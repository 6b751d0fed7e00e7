//! File-backed application counters — the Fig. 10 design.
//!
//! Applications sometimes need monotonic counters (the paper's ML use case
//! limits how many models a customer may produce). Platform counters manage
//! ~13 increments/s and wear out; PALÆMON's answer is a plain counter file
//! on the shielded (rollback-protected) file system, which is five orders
//! of magnitude faster because the file system tag — not the counter — is
//! what gets rollback protection.
//!
//! The variants here mirror the Fig. 10 bars:
//! (a) platform counter — see [`tee_sim::counter`], adapted here as
//!     [`PlatformCounter`];
//! (b) native file counter ([`NativeFileCounter`]) — a real file;
//! (c) in-enclave file counter ([`MemFileCounter`]) — memory-backed store;
//! (d) + encrypted file system ([`ShieldedCounter`]);
//! (e) + PALÆMON strict mode ([`StrictShieldedCounter`]) — every increment
//!     pushes the tag to PALÆMON.
//!
//! Every variant implements its increment *as* the [`MonotonicCounter`]
//! trait method — one uniform `increment(&mut self) -> Result<u64>` shape,
//! no per-backend inherent variants — so layers above (the
//! [`BatchedCounter`] group-commit path, [`crate::server::TmsServer`]'s
//! strict commit mode, the per-shard counters of `palaemon-cluster`, the
//! benches) use any backend through the trait object without wrapper glue.
//!
//! ## Covering a commit window ([`BatchedCounter`])
//! Monotonic-counter increments are the dominant cost of the Fig. 6
//! rollback protocol, and serializing every state change behind one counter
//! write caps throughput at counter latency. The batching that amortizes it
//! is the database's: a strict shard's WAL commit window calls
//! [`BatchedCounter::cover`]`(n)` **once**, from the window's leader, after
//! the window's sync and before any of its commits is acknowledged (see
//! [`crate::server`]) — `n` is the number of client mutations the window
//! carried. One leader runs at a time per database, so nobody queues for
//! the counter and `cover` is a plain locked call: lock the backend,
//! `increment()`, book the result. [`BatchedCounter::commit`] — `cover(1)`
//! — remains for callers outside a WAL window; concurrent callers
//! serialize on the backend lock and pay one increment each.
//!
//! Ordering holds by construction — a call returns the value of an
//! increment it issued itself, after it began — so a crash can never
//! surface a committed operation without its covering increment (the exact
//! ordering the Fig. 6 edge-case tests below pin down). The statistics and
//! the last value are atomics: [`BatchedCounter::value`] on the forward
//! path and in health probes takes no lock.

use std::io::{Read, Seek, SeekFrom, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use palaemon_telemetry::{Collect, MetricSink};
use shielded_fs::fs::{ShieldedFs, TagEvent};
use shielded_fs::store::MemStore;
use tee_sim::counter::CounterBank;

use crate::error::{PalaemonError, Result};
use crate::tms::{Palaemon, SessionId};

/// A monotonic counter: every call yields a strictly larger value.
///
/// Unifies the Fig. 10 counter family (file, memory, shielded, strict) and
/// the platform counter behind one interface so batching and server layers
/// do not care which backend pays the increment cost.
pub trait MonotonicCounter {
    /// Performs one durable increment and returns the new value.
    ///
    /// # Errors
    /// Backend I/O, file-system, or tag-push failures.
    fn increment(&mut self) -> Result<u64>;
}

/// Variant (b): a counter in a real file, opened/updated/closed per
/// increment like a legacy application would.
#[derive(Debug)]
pub struct NativeFileCounter {
    path: PathBuf,
}

impl NativeFileCounter {
    /// Creates (or resets) the counter file at `path`.
    ///
    /// # Errors
    /// I/O errors creating the file.
    pub fn create(path: impl Into<PathBuf>) -> Result<Self> {
        let path = path.into();
        std::fs::write(&path, 0u64.to_be_bytes())
            .map_err(|e| PalaemonError::Fs(format!("create counter: {e}")))?;
        Ok(NativeFileCounter { path })
    }

    /// Removes the counter file.
    pub fn cleanup(self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

impl MonotonicCounter for NativeFileCounter {
    /// Increments by open → read → write-back → close.
    fn increment(&mut self) -> Result<u64> {
        let mut f = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(&self.path)
            .map_err(|e| PalaemonError::Fs(e.to_string()))?;
        let mut buf = [0u8; 8];
        f.read_exact(&mut buf)
            .map_err(|e| PalaemonError::Fs(e.to_string()))?;
        let v = u64::from_be_bytes(buf) + 1;
        f.seek(SeekFrom::Start(0))
            .map_err(|e| PalaemonError::Fs(e.to_string()))?;
        f.write_all(&v.to_be_bytes())
            .map_err(|e| PalaemonError::Fs(e.to_string()))?;
        Ok(v)
    }
}

/// Variant (c): a counter file on an in-memory (enclave-mapped) store,
/// without encryption — SCONE memory-maps files inside the enclave.
#[derive(Debug)]
pub struct MemFileCounter {
    store: MemStore,
    value: u64,
}

impl Default for MemFileCounter {
    fn default() -> Self {
        Self::new()
    }
}

impl MemFileCounter {
    /// Creates a zeroed counter.
    pub fn new() -> Self {
        let store = MemStore::new();
        shielded_fs::store::BlockStore::put(&store, "counter", 0u64.to_be_bytes().to_vec());
        MemFileCounter { store, value: 0 }
    }
}

impl MonotonicCounter for MemFileCounter {
    /// Increments with a full store read/write round trip (infallible, but
    /// uniform with every other backend behind the trait).
    fn increment(&mut self) -> Result<u64> {
        let raw = shielded_fs::store::BlockStore::get(&self.store, "counter").unwrap_or_default();
        let mut v = raw.try_into().map(u64::from_be_bytes).unwrap_or(self.value);
        v += 1;
        shielded_fs::store::BlockStore::put(&self.store, "counter", v.to_be_bytes().to_vec());
        self.value = v;
        Ok(v)
    }
}

/// Variant (d): counter file on the encrypted shielded file system.
pub struct ShieldedCounter {
    fs: ShieldedFs,
    value: u64,
}

impl std::fmt::Debug for ShieldedCounter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ShieldedCounter({})", self.value)
    }
}

impl ShieldedCounter {
    /// Creates a counter on the given shielded file system.
    ///
    /// # Errors
    /// Fs errors.
    pub fn create(mut fs: ShieldedFs) -> Result<Self> {
        fs.write("/counter", &0u64.to_be_bytes())?;
        Ok(ShieldedCounter { fs, value: 0 })
    }

    /// The file system's current tag.
    pub fn tag(&self) -> palaemon_crypto::Digest {
        self.fs.tag()
    }
}

impl MonotonicCounter for ShieldedCounter {
    /// Increments: encrypted read, encrypted write, tag recompute.
    fn increment(&mut self) -> Result<u64> {
        let raw = self.fs.read("/counter")?;
        let v = raw
            .try_into()
            .map(u64::from_be_bytes)
            .map_err(|_| PalaemonError::Fs("counter corrupt".into()))?
            + 1;
        self.fs.write("/counter", &v.to_be_bytes())?;
        self.value = v;
        Ok(v)
    }
}

/// Variant (e): like [`ShieldedCounter`], but every increment also pushes
/// the new tag to PALÆMON (strict rollback protection). Holds a shared
/// handle to the engine, so many strict counters across threads push to one
/// PALÆMON concurrently.
pub struct StrictShieldedCounter {
    inner: ShieldedCounter,
    palaemon: Arc<Palaemon>,
    session: SessionId,
    volume: String,
}

impl std::fmt::Debug for StrictShieldedCounter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "StrictShieldedCounter({})", self.inner.value)
    }
}

impl StrictShieldedCounter {
    /// Wraps a shielded counter bound to an attested session's volume.
    pub fn new(
        inner: ShieldedCounter,
        palaemon: Arc<Palaemon>,
        session: SessionId,
        volume: &str,
    ) -> Self {
        StrictShieldedCounter {
            inner,
            palaemon,
            session,
            volume: volume.to_string(),
        }
    }
}

impl MonotonicCounter for StrictShieldedCounter {
    /// Increments and pushes the tag to PALÆMON.
    fn increment(&mut self) -> Result<u64> {
        let v = self.inner.increment()?;
        self.palaemon.push_tag(
            self.session,
            &self.volume,
            self.inner.tag(),
            TagEvent::FileClose,
        )?;
        Ok(v)
    }
}

/// Variant (a): the platform monotonic counter, adapted to
/// [`MonotonicCounter`]. Wait times are *modelled* (the bank returns the
/// latency a real counter would have cost) and accumulated, so callers can
/// report how much platform-counter time a workload would have burned.
#[derive(Debug, Clone)]
pub struct PlatformCounter {
    bank: CounterBank,
    id: u32,
    now_ms: u64,
    waited_ms: u64,
}

impl PlatformCounter {
    /// Binds counter `id` in `bank` (creating it if needed).
    pub fn new(bank: CounterBank, id: u32) -> Self {
        bank.create(id);
        PlatformCounter {
            bank,
            id,
            now_ms: 0,
            waited_ms: 0,
        }
    }

    /// Total modelled milliseconds spent waiting on the platform counter.
    pub fn modelled_wait_ms(&self) -> u64 {
        self.waited_ms
    }
}

impl MonotonicCounter for PlatformCounter {
    fn increment(&mut self) -> Result<u64> {
        let inc = self
            .bank
            .increment(self.id, self.now_ms)
            .map_err(PalaemonError::from)?;
        self.now_ms += inc.wait_ms;
        self.waited_ms += inc.wait_ms;
        Ok(inc.value)
    }
}

/// Statistics of a [`BatchedCounter`]: how many logical operations were
/// committed and how many physical increments they cost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Logical operations whose commit completed.
    pub ops_committed: u64,
    /// Physical `increment()` calls performed.
    pub increments: u64,
}

impl Collect for BatchStats {
    fn collect(&self, sink: &mut MetricSink) {
        sink.counter("counter_ops_committed_total", self.ops_committed);
        sink.counter("counter_increments_total", self.increments);
    }
}

/// The Fig. 6 counter as a commit window sees it: one
/// [`BatchedCounter::cover`] call covers many operations with one backend
/// `increment()`. See the module docs for the ordering guarantee.
pub struct BatchedCounter {
    counter: Mutex<Box<dyn MonotonicCounter + Send>>,
    /// Operations whose `cover()` returned `Ok`.
    ops_committed: AtomicU64,
    increments: AtomicU64,
    /// Counter value of the most recent completed increment (published
    /// under the backend lock, so it never runs backwards).
    last_value: AtomicU64,
}

impl std::fmt::Debug for BatchedCounter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        write!(
            f,
            "BatchedCounter({} ops / {} increments)",
            s.ops_committed, s.increments
        )
    }
}

impl BatchedCounter {
    /// Wraps any counter backend.
    pub fn new(counter: impl MonotonicCounter + Send + 'static) -> Self {
        BatchedCounter {
            counter: Mutex::new(Box::new(counter)),
            ops_committed: AtomicU64::new(0),
            increments: AtomicU64::new(0),
            last_value: AtomicU64::new(0),
        }
    }

    /// Commits one logical operation: [`BatchedCounter::cover`]`(1)`.
    ///
    /// # Errors
    /// As for [`BatchedCounter::cover`].
    pub fn commit(&self) -> Result<u64> {
        self.cover(1)
    }

    /// Covers `ops` logical operations with one increment, issued after
    /// this call began, and yields the counter value that covers them.
    ///
    /// # Errors
    /// Backend increment failures; none of `ops` is then counted and the
    /// next call increments afresh.
    ///
    /// An increment that **panicked** fails closed instead: the backend lock
    /// is poisoned, and every later call returns
    /// [`PalaemonError::StrictModeViolation`] without touching the backend.
    /// A counter interrupted mid-increment can no longer vouch for anything,
    /// so the windows it would cover are refused until a restart passes the
    /// Fig. 6 startup check; unlike a panic, the refusal reaches each
    /// window's verdict and so every waiting client.
    pub fn cover(&self, ops: u32) -> Result<u64> {
        let mut counter = self.counter.lock().map_err(|_| {
            PalaemonError::StrictModeViolation(
                "rollback counter panicked mid-increment; refusing until restart".into(),
            )
        })?;
        let value = counter.increment()?;
        self.last_value.store(value, Ordering::Release);
        self.increments.fetch_add(1, Ordering::Relaxed);
        self.ops_committed
            .fetch_add(u64::from(ops), Ordering::Relaxed);
        Ok(value)
    }

    /// Operations committed vs physical increments performed.
    pub fn stats(&self) -> BatchStats {
        BatchStats {
            ops_committed: self.ops_committed.load(Ordering::Relaxed),
            increments: self.increments.load(Ordering::Relaxed),
        }
    }

    /// The most recent counter value (0 before the first commit).
    pub fn value(&self) -> u64 {
        self.last_value.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use std::panic::{catch_unwind, AssertUnwindSafe};

    use super::*;
    use palaemon_crypto::aead::AeadKey;

    #[test]
    fn native_counter_counts() {
        let path = std::env::temp_dir().join(format!("ctr-{}.bin", std::process::id()));
        let mut c = NativeFileCounter::create(&path).unwrap();
        assert_eq!(c.increment().unwrap(), 1);
        assert_eq!(c.increment().unwrap(), 2);
        assert_eq!(c.increment().unwrap(), 3);
        c.cleanup();
    }

    #[test]
    fn mem_counter_counts() {
        let mut c = MemFileCounter::new();
        for i in 1..=100 {
            assert_eq!(c.increment().unwrap(), i);
        }
    }

    #[test]
    fn shielded_counter_counts_and_changes_tag() {
        let fs = ShieldedFs::create(Box::new(MemStore::new()), AeadKey::from_bytes([1; 32]));
        let mut c = ShieldedCounter::create(fs).unwrap();
        let t0 = c.tag();
        assert_eq!(c.increment().unwrap(), 1);
        let t1 = c.tag();
        assert_ne!(t0, t1, "every increment must change the tag");
        assert_eq!(c.increment().unwrap(), 2);
        assert_ne!(c.tag(), t1);
    }

    #[test]
    fn shielded_counter_increment_on_corrupt_length_fails() {
        let fs = ShieldedFs::create(Box::new(MemStore::new()), AeadKey::from_bytes([1; 32]));
        let mut c = ShieldedCounter::create(fs).unwrap();
        c.increment().unwrap();
        // A truncated counter file must surface as an error, not a reset.
        c.fs.write("/counter", &[1, 2, 3]).unwrap();
        assert!(matches!(c.increment(), Err(PalaemonError::Fs(_))));
    }

    #[test]
    fn monotonic_counter_trait_unifies_backends() {
        let path = std::env::temp_dir().join(format!("ctr-dyn-{}.bin", std::process::id()));
        let fs = ShieldedFs::create(Box::new(MemStore::new()), AeadKey::from_bytes([1; 32]));
        let mut counters: Vec<Box<dyn MonotonicCounter + Send>> = vec![
            Box::new(NativeFileCounter::create(&path).unwrap()),
            Box::new(MemFileCounter::new()),
            Box::new(ShieldedCounter::create(fs).unwrap()),
            Box::new(PlatformCounter::new(
                tee_sim::counter::CounterBank::new(),
                1,
            )),
        ];
        for c in &mut counters {
            assert_eq!(c.increment().unwrap(), 1);
            assert_eq!(c.increment().unwrap(), 2);
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn platform_counter_accumulates_modelled_wait() {
        let mut c = PlatformCounter::new(tee_sim::counter::CounterBank::new(), 7);
        c.increment().unwrap();
        c.increment().unwrap();
        assert!(c.modelled_wait_ms() > 0, "platform counters are slow");
    }

    #[test]
    fn batched_counter_serial_commits_count_one_each() {
        let batched = BatchedCounter::new(MemFileCounter::new());
        for i in 1..=5 {
            assert_eq!(batched.commit().unwrap(), i);
        }
        let stats = batched.stats();
        assert_eq!(stats.ops_committed, 5);
        assert_eq!(stats.increments, 5);
        assert_eq!(batched.value(), 5);
    }

    #[test]
    fn cover_counts_its_operations_against_one_increment() {
        let batched = BatchedCounter::new(MemFileCounter::new());
        assert_eq!(batched.cover(5).unwrap(), 1);
        assert_eq!(batched.commit().unwrap(), 2);
        assert_eq!(batched.cover(3).unwrap(), 3);
        let stats = batched.stats();
        assert_eq!(stats.ops_committed, 9);
        assert_eq!(stats.increments, 3);
    }

    /// Direct `commit()` callers coalesce nobody (the WAL window is what
    /// batches): they serialize on the backend, one increment each, and
    /// every caller's covering values still advance.
    #[test]
    fn direct_concurrent_commits_pay_one_increment_each() {
        let batched = Arc::new(BatchedCounter::new(MemFileCounter::new()));
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let b = Arc::clone(&batched);
                scope.spawn(move || {
                    let mut last = 0;
                    for _ in 0..20 {
                        let v = b.commit().unwrap();
                        assert!(v > last, "covering values must advance per commit");
                        last = v;
                    }
                });
            }
        });
        let stats = batched.stats();
        assert_eq!(stats.ops_committed, 160);
        assert_eq!(stats.increments, stats.ops_committed);
        assert_eq!(batched.value(), stats.increments);
    }

    #[test]
    fn batched_counter_leader_error_surfaces_and_recovers() {
        /// Fails exactly once, on the second increment.
        struct Flaky(u64);
        impl MonotonicCounter for Flaky {
            fn increment(&mut self) -> crate::error::Result<u64> {
                self.0 += 1;
                if self.0 == 2 {
                    return Err(PalaemonError::Fs("device glitch".into()));
                }
                Ok(self.0)
            }
        }
        let batched = BatchedCounter::new(Flaky(0));
        assert_eq!(batched.commit().unwrap(), 1);
        assert!(batched.commit().is_err());
        // The failure is not sticky: the next commit increments afresh.
        assert_eq!(batched.commit().unwrap(), 3);
    }

    /// Panics on its second increment (and would count on, were it asked).
    struct PanicsOnSecond(u64);
    impl MonotonicCounter for PanicsOnSecond {
        fn increment(&mut self) -> crate::error::Result<u64> {
            self.0 += 1;
            assert_ne!(self.0, 2, "counter backend panics mid-increment");
            Ok(self.0)
        }
    }

    #[test]
    fn a_panicked_increment_fails_every_later_cover_closed() {
        let batched = BatchedCounter::new(PanicsOnSecond(0));
        assert_eq!(batched.cover(2).unwrap(), 1);
        let unwound = catch_unwind(AssertUnwindSafe(|| batched.cover(1)));
        assert!(unwound.is_err(), "the backend's own panic is not hidden");
        // Poisoned: refused, not panicked, and the backend never runs again.
        for _ in 0..2 {
            assert!(matches!(
                batched.cover(1),
                Err(PalaemonError::StrictModeViolation(_))
            ));
        }
        let stats = batched.stats();
        assert_eq!((stats.ops_committed, stats.increments), (2, 1));
        assert_eq!(batched.value(), 1);
    }

    /// The same poison reached through a strict server: the mutation whose
    /// window leader panicked in the cover unwinds its own caller, and every
    /// later mutation is refused with the window's verdict — no panic.
    #[test]
    fn a_strict_server_refuses_mutations_after_its_counter_panicked() {
        use crate::policy::Policy;
        use crate::server::{TmsRequest, TmsServer};
        use palaemon_crypto::sig::SigningKey;
        use palaemon_crypto::Digest;
        use palaemon_db::Db;

        let db =
            Db::create(Box::new(MemStore::new()), AeadKey::from_bytes([4; 32])).expect("create db");
        let engine = Arc::new(Palaemon::new(
            db,
            SigningKey::from_seed(b"poison"),
            Digest::ZERO,
            5,
        ));
        let counter = Arc::new(BatchedCounter::new(PanicsOnSecond(0)));
        let server = TmsServer::with_commit_counter(engine, Arc::clone(&counter));
        let create = |name: &str| TmsRequest::CreatePolicy {
            owner: SigningKey::from_seed(b"owner").verifying_key(),
            policy: Box::new(Policy::parse(&format!("name: {name}\n")).unwrap()),
            approval: None,
            votes: Vec::new(),
        };
        server
            .handle(create("first"))
            .expect("covered by increment 1");
        let unwound = catch_unwind(AssertUnwindSafe(|| server.handle(create("second"))));
        assert!(unwound.is_err(), "the leader's own caller sees the panic");
        for name in ["third", "fourth"] {
            let refused = server.handle(create(name));
            assert!(
                matches!(&refused, Err(PalaemonError::Db(why)) if why.contains("rollback counter")),
                "{refused:?}"
            );
        }
        assert_eq!(counter.stats().ops_committed, 1);
    }

    #[test]
    fn shielded_counter_rollback_detected_via_tag() {
        let store = MemStore::new();
        let key = AeadKey::from_bytes([1; 32]);
        let fs = ShieldedFs::create(Box::new(store.clone()), key.clone());
        let mut c = ShieldedCounter::create(fs).unwrap();
        c.increment().unwrap();
        let snapshot = store.snapshot();
        c.increment().unwrap();
        let fresh_tag = c.tag();
        drop(c);
        store.restore(snapshot);
        // Remounting with the fresh expected tag detects the rollback.
        let err = ShieldedFs::load(Box::new(store), key, Some(fresh_tag)).unwrap_err();
        assert!(matches!(err, shielded_fs::FsError::RollbackDetected { .. }));
    }

    #[test]
    fn strict_counter_pushes_tags_through_shared_engine() {
        use crate::policy::Policy;
        use palaemon_crypto::sig::SigningKey;
        use palaemon_crypto::Digest;
        use palaemon_db::Db;
        use tee_sim::platform::{Microcode, Platform};
        use tee_sim::quote::{create_report, quote_report};

        let platform = Platform::new("ctr-host", Microcode::PostForeshadow);
        let db =
            Db::create(Box::new(MemStore::new()), AeadKey::from_bytes([2; 32])).expect("create db");
        let palaemon = Arc::new(Palaemon::new(
            db,
            SigningKey::from_seed(b"ctr"),
            Digest::ZERO,
            9,
        ));
        palaemon.register_platform(platform.id(), platform.qe_verifying_key());
        let mre = Digest::from_bytes([0x21; 32]);
        let policy = Policy::parse(&format!(
            "name: ctr\nservices:\n  - name: app\n    mrenclaves: [\"{}\"]\n    \
             volumes: [\"data\"]\nvolumes:\n  - name: data\n",
            mre.to_hex()
        ))
        .unwrap();
        let owner = SigningKey::from_seed(b"owner").verifying_key();
        palaemon.create_policy(&owner, policy, None, &[]).unwrap();
        let binding = [0u8; 64];
        let report = create_report(&platform, mre, binding);
        let quote = quote_report(&platform, &report).unwrap();
        let session = palaemon
            .attest_service(&quote, &binding, "ctr", "app")
            .unwrap()
            .session;

        let fs = ShieldedFs::create(Box::new(MemStore::new()), AeadKey::from_bytes([3; 32]));
        let inner = ShieldedCounter::create(fs).unwrap();
        let mut strict = StrictShieldedCounter::new(inner, Arc::clone(&palaemon), session, "data");
        assert_eq!(strict.increment().unwrap(), 1);
        assert_eq!(strict.increment().unwrap(), 2);
        // Every increment pushed the fs tag to the engine.
        let rec = palaemon.read_tag(session, "data").unwrap().unwrap();
        assert_eq!(rec.event, TagEvent::FileClose);
        assert_eq!(rec.tag, strict.inner.tag());
    }
}

/// Edge cases of the Fig. 6 version/monotonic-counter protocol that guards
/// PALÆMON's own database (the protocol the file counters above lean on:
/// they are only safe because *this* check protects the tag store).
#[cfg(test)]
mod fig6_edge_tests {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use shielded_fs::store::{BlockStore, MemStore};
    use tee_sim::platform::{Microcode, Platform};

    use crate::error::PalaemonError;
    use crate::instance::{shutdown_instance, start_instance, StartupInfo, VERSION_KEY};
    use crate::tms::Palaemon;
    use palaemon_crypto::Digest;

    const MRE: [u8; 32] = [0xEE; 32];
    const CTR: u32 = 7;

    fn start(
        platform: &Platform,
        store: &MemStore,
        counter_id: u32,
        rng: &mut StdRng,
    ) -> crate::error::Result<(Palaemon, StartupInfo)> {
        start_instance(
            platform,
            Box::new(store.clone()),
            Digest::from_bytes(MRE),
            counter_id,
            0,
            rng,
        )
    }

    /// Version file ahead of the counter (`v > c`): the database claims a
    /// future the counter never saw — e.g. the sealed state was copied next
    /// to a freshly-created counter. Startup must refuse.
    #[test]
    fn version_ahead_of_counter_refused() {
        let platform = Platform::new("host", Microcode::PostForeshadow);
        let store = MemStore::new();
        let mut rng = StdRng::seed_from_u64(10);
        let (mut p, _) = start(&platform, &store, CTR, &mut rng).unwrap();
        shutdown_instance(&mut p, &platform, CTR).unwrap();
        drop(p);
        // v = 1 in the database, but counter id 8 starts fresh at c = 0.
        let err = start(&platform, &store, CTR + 1, &mut rng).unwrap_err();
        assert!(
            matches!(err, PalaemonError::RollbackDetected(ref msg) if msg.contains("version 1")),
            "v=1 > c=0 must read as rollback, got: {err:?}"
        );
    }

    /// Counter ahead of the version file (`c > v`) after a clean shutdown:
    /// someone else advanced the counter — a concurrent instance or replayed
    /// old state. Startup must refuse.
    #[test]
    fn counter_ahead_of_version_refused() {
        let platform = Platform::new("host", Microcode::PostForeshadow);
        let store = MemStore::new();
        let mut rng = StdRng::seed_from_u64(11);
        let (mut p, _) = start(&platform, &store, CTR, &mut rng).unwrap();
        shutdown_instance(&mut p, &platform, CTR).unwrap();
        drop(p);
        platform.counters().increment(CTR, 500).unwrap();
        let err = start(&platform, &store, CTR, &mut rng).unwrap_err();
        assert!(matches!(err, PalaemonError::RollbackDetected(_)));
    }

    /// Crash after the startup increment but before any shutdown persist:
    /// the database trails the counter (`v = 0`, `c = 1`), and per the paper
    /// a crash is treated as an attack — restart is refused even though the
    /// instance committed application data in between.
    #[test]
    fn crash_between_increment_and_persist_refused() {
        let platform = Platform::new("host", Microcode::PostForeshadow);
        let store = MemStore::new();
        let mut rng = StdRng::seed_from_u64(12);
        let (mut p, info) = start(&platform, &store, CTR, &mut rng).unwrap();
        assert_eq!(info.counter, 1);
        // Application data committed mid-lifetime does not persist v.
        p.db_mut().put(b"tag/app".as_slice(), b"t1".as_slice());
        p.db_mut().commit().unwrap();
        drop(p); // crash
        let err = start(&platform, &store, CTR, &mut rng).unwrap_err();
        assert!(matches!(err, PalaemonError::RollbackDetected(_)));
    }

    /// Crash *during* shutdown, after `v = c` was written but before the
    /// commit reached the untrusted store: durable state still has the old
    /// version, so the restart must be refused exactly like a plain crash.
    #[test]
    fn shutdown_commit_lost_refused() {
        let platform = Platform::new("host", Microcode::PostForeshadow);
        let store = MemStore::new();
        let mut rng = StdRng::seed_from_u64(13);
        let (mut p, _) = start(&platform, &store, CTR, &mut rng).unwrap();
        // Model the torn shutdown: snapshot the store before the shutdown
        // commit lands, then restore it — the commit never became durable.
        let pre_shutdown = store.snapshot();
        shutdown_instance(&mut p, &platform, CTR).unwrap();
        drop(p);
        store.restore(pre_shutdown);
        let err = start(&platform, &store, CTR, &mut rng).unwrap_err();
        assert!(matches!(err, PalaemonError::RollbackDetected(_)));
    }

    /// The version key itself is tamper-evident: flipping bytes of any blob
    /// in the untrusted store surfaces as a database integrity error, not a
    /// silently accepted version.
    #[test]
    fn tampered_version_record_detected() {
        let platform = Platform::new("host", Microcode::PostForeshadow);
        let store = MemStore::new();
        let mut rng = StdRng::seed_from_u64(14);
        let (mut p, _) = start(&platform, &store, CTR, &mut rng).unwrap();
        shutdown_instance(&mut p, &platform, CTR).unwrap();
        drop(p);
        for name in store.list() {
            if name == crate::instance::SEALED_IDENTITY_BLOB {
                continue;
            }
            if let Some(mut blob) = store.get(&name) {
                if let Some(byte) = blob.last_mut() {
                    *byte ^= 0xFF;
                }
                store.put(&name, blob);
            }
        }
        let err = start(&platform, &store, CTR, &mut rng).unwrap_err();
        assert!(
            !matches!(err, PalaemonError::SecondInstance),
            "tampering must not masquerade as a benign race: {err:?}"
        );
    }

    /// After a clean recovery cycle the protocol still admits exactly one
    /// instance: version and counter advance in lockstep.
    #[test]
    fn version_key_tracks_counter_across_restarts() {
        let platform = Platform::new("host", Microcode::PostForeshadow);
        let store = MemStore::new();
        let mut rng = StdRng::seed_from_u64(15);
        for expected in 1..=5u64 {
            let (mut p, info) = start(&platform, &store, CTR, &mut rng).unwrap();
            assert_eq!(info.counter, expected);
            shutdown_instance(&mut p, &platform, CTR).unwrap();
            let v = p
                .db_mut()
                .get(VERSION_KEY)
                .map(|raw| u64::from_be_bytes(raw.try_into().unwrap()))
                .unwrap();
            assert_eq!(v, expected, "shutdown must persist v = c");
        }
    }
}
