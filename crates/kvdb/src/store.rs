//! The key-value store engine: persistent tree + group-commit sealed WAL +
//! checkpoints.
//!
//! ## Concurrency model
//! The visible table is a path-copying persistent tree ([`crate::tree`]):
//! [`Db::view`] hands out O(1) snapshots (one `Arc` bump), and a write under
//! outstanding views pays an O(log n) path copy instead of cloning the
//! table. Durability runs through a shared [`WalShared`] core so commits
//! group-commit across writer threads:
//!
//! * [`Db::commit_stage`] appends the handle's pending ops into the current
//!   *window* under the window mutex and returns a [`CommitTicket`] — cheap,
//!   done while the caller still holds whatever outer lock serializes table
//!   mutation (in PALÆMON, the engine's db write lock).
//!   [`Db::commit_stage_covered`] does the same and also counts the commit
//!   towards the window's [`CommitCover`];
//! * [`CommitTicket::wait`] — called **after** dropping that outer lock —
//!   elects one committer per window as leader. The leader runs the window
//!   start to finish: **seal** everything staged in it as one WAL batch,
//!   bump **meta**, perform the single `store.sync()`, then — if the window
//!   carried covered commits — call the **cover** once with their count, and
//!   only then post the **verdict**. Followers park on a condvar and wake
//!   with that verdict, so no ticket of a window reads `Ok` before a cover
//!   issued *after that window's sync* has returned `Ok`; a failed sync or a
//!   failed cover fails every ticket of the window alike. While a leader
//!   runs, new committers stage into the *next* window, so the sync (and
//!   the cover) amortize across every writer that arrives meanwhile.
//!
//! Crash recovery lands on a committed-window boundary: a window's ops are
//! one sealed WAL blob written before the meta bump, so either the whole
//! window replays or none of it does — never a tear inside a window. A
//! window whose cover failed is durable and visible all the same; it is
//! merely never acknowledged.
//!
//! Lock order inside this crate: `window` before `wal`. The leader drops
//! the window mutex before sealing/syncing under the `wal` mutex, and runs
//! the cover under **neither**, so followers' condvar waits never hold the
//! store hostage and a cover may take whatever locks its owner needs. The
//! verdict is posted, and every waiter's predicate re-checked, under the
//! `window` mutex, so a wakeup cannot be lost and the waits carry no timeout.

use std::collections::BTreeMap;
use std::error::Error as StdError;
use std::fmt;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Instant;

use palaemon_crypto::aead::AeadKey;
use palaemon_crypto::wire::{Decoder, Encoder};
use shielded_fs::store::BlockStore;

use crate::tree::{Bytes, Tree};

/// Errors raised by the database.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DbError {
    /// Stored state failed authentication or decoding.
    Corrupt(String),
    /// The backing store failed.
    Storage(String),
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::Corrupt(why) => write!(f, "database corrupt: {why}"),
            DbError::Storage(why) => write!(f, "storage error: {why}"),
        }
    }
}

impl StdError for DbError {}

const META_BLOB: &str = "db-meta";

/// Window-failure verdicts retained for late [`CommitTicket::wait`] calls.
const FAILURE_MEMORY: usize = 64;

/// What covers a window's commits before any of them is acknowledged — in
/// PALÆMON, the Fig. 6 rollback-counter increment. The window's leader calls
/// it **once**, with the number of covered commits the window carried
/// ([`Db::commit_stage_covered`]), after the window's `sync` returned `Ok`
/// and before it posts the verdict; an `Err` *is* that verdict. It runs on
/// the leader's thread, holding no lock of this crate.
pub type CommitCover = Arc<dyn Fn(u32) -> Result<(), DbError> + Send + Sync>;

fn wal_blob(seq: u64) -> String {
    format!("db-wal-{seq:016x}")
}

fn snapshot_blob(generation: u64) -> String {
    format!("db-snap-{generation:016x}")
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Meta {
    generation: u64,
    first_seq: u64,
    next_seq: u64,
}

impl Meta {
    fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.put_str("palaemon-db.meta.v1")
            .put_u64(self.generation)
            .put_u64(self.first_seq)
            .put_u64(self.next_seq);
        e.finish()
    }

    fn decode(bytes: &[u8]) -> Result<Meta, DbError> {
        let mut d = Decoder::new(bytes);
        let mut parse = || -> palaemon_crypto::Result<Meta> {
            let magic = d.get_str()?;
            if magic != "palaemon-db.meta.v1" {
                return Err(palaemon_crypto::CryptoError::Decode(
                    "bad meta magic".into(),
                ));
            }
            let generation = d.get_u64()?;
            let first_seq = d.get_u64()?;
            let next_seq = d.get_u64()?;
            d.finish()?;
            Ok(Meta {
                generation,
                first_seq,
                next_seq,
            })
        };
        parse().map_err(|e| DbError::Corrupt(format!("meta: {e}")))
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Op {
    Put(Vec<u8>, Vec<u8>),
    Delete(Vec<u8>),
}

/// Owned `(key, value)` records a write span put (half of
/// [`ChangeSet::into_parts`]). Values are [`Bytes`], so shipping a put
/// clones a reference count, not the payload.
pub type Puts = Vec<(Bytes, Bytes)>;

/// Keys a write span deleted (the other half of
/// [`ChangeSet::into_parts`]).
pub type Tombstones = Vec<Bytes>;

/// The exact keys a span of writes touched: puts (with their final value)
/// and tombstones (deleted keys), coalesced per key — a later write to the
/// same key replaces the earlier entry, so applying a `ChangeSet` in any
/// order reproduces the final state of the span.
///
/// Captured between [`Db::begin_capture`] and [`Db::take_changes`]; this is
/// what lets replication ship *what a commit changed* instead of
/// re-exporting whole prefixes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChangeSet {
    /// `key -> Some(value)` for a put, `key -> None` for a delete.
    changes: BTreeMap<Bytes, Option<Bytes>>,
}

impl ChangeSet {
    /// Records a put (replacing any earlier entry for the key).
    pub fn record_put(&mut self, key: impl Into<Bytes>, value: impl Into<Bytes>) {
        self.changes.insert(key.into(), Some(value.into()));
    }

    /// Records a delete (replacing any earlier entry for the key).
    pub fn record_delete(&mut self, key: impl Into<Bytes>) {
        self.changes.insert(key.into(), None);
    }

    /// Folds `later` into `self`: entries of `later` win per key, as if the
    /// two captured spans had run back to back.
    pub fn merge(&mut self, later: ChangeSet) {
        self.changes.extend(later.changes);
    }

    /// True when nothing was captured.
    pub fn is_empty(&self) -> bool {
        self.changes.is_empty()
    }

    /// Number of distinct keys touched.
    pub fn len(&self) -> usize {
        self.changes.len()
    }

    /// Splits into `(puts, tombstones)` — the wire shape of an incremental
    /// replication delta. Keys are disjoint across the two lists.
    pub fn into_parts(self) -> (Puts, Tombstones) {
        let mut puts = Vec::new();
        let mut tombstones = Vec::new();
        for (key, value) in self.changes {
            match value {
                Some(value) => puts.push((key, value)),
                None => tombstones.push(key),
            }
        }
        (puts, tombstones)
    }
}

/// Runtime statistics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DbStats {
    /// Committed (durably acknowledged) WAL commits since open.
    pub commits: u64,
    /// Checkpoints taken since open.
    pub checkpoints: u64,
    /// Keys currently stored.
    pub keys: usize,
    /// WAL batches pending checkpoint.
    pub wal_batches: u64,
    /// Group-commit windows flushed and acknowledged (each is one sealed
    /// batch, one sync and — when it carried covered commits — one cover).
    pub wal_windows: u64,
    /// Histogram of commits coalesced per flushed window:
    /// `(commits_in_window, windows_observed)`. Conservation invariant:
    /// `commits == Σ size · count` over these buckets.
    pub commits_per_window: Vec<(u32, u64)>,
    /// 99th-percentile time a committer spent parked waiting for its
    /// window's durability verdict (ns).
    pub group_commit_wait_p99_ns: u64,
    /// Tree nodes copied (not mutated in place) because an outstanding
    /// snapshot shared them — the real cost of views, path-sized not
    /// table-sized.
    pub snapshot_path_copies: u64,
}

impl palaemon_telemetry::Collect for DbStats {
    fn collect(&self, sink: &mut palaemon_telemetry::MetricSink) {
        sink.counter("db_commits_total", self.commits);
        sink.counter("db_checkpoints_total", self.checkpoints);
        sink.gauge("db_keys", self.keys as f64);
        sink.gauge("db_wal_batches_pending", self.wal_batches as f64);
        sink.counter("db_wal_windows_total", self.wal_windows);
        sink.gauge(
            "db_group_commit_wait_p99_ns",
            self.group_commit_wait_p99_ns as f64,
        );
        sink.counter("db_snapshot_path_copies_total", self.snapshot_path_copies);
        for &(size, count) in &self.commits_per_window {
            sink.scoped("size", size, |sink| {
                sink.counter("db_commits_per_window", count);
            });
        }
    }
}

/// The durable half of the engine: store, key and meta, serialized by one
/// mutex. Only window leaders and checkpoints touch it.
struct WalCore {
    store: Box<dyn BlockStore>,
    key: AeadKey,
    meta: Meta,
}

/// The currently open group-commit window plus flush bookkeeping.
#[derive(Default)]
struct WindowState {
    /// WAL-encoded ops staged by committers since the last leader took the
    /// window.
    staged_buf: Vec<u8>,
    staged_count: u32,
    /// Commits (tickets) staged into the open window.
    staged_commits: u32,
    /// The cover the open window owes, and how many of its commits were
    /// staged covered (`None`: none were, the leader calls nothing).
    staged_cover: Option<(CommitCover, u32)>,
    /// Index of the open window. A leader taking the window bumps this, so
    /// late stagers land in the next window while the sync runs.
    epoch: u64,
    /// Windows `< flushed` have a durability verdict.
    flushed: u64,
    /// A leader is between taking the window and posting its verdict.
    leader_running: bool,
    /// Failed windows (bounded memory; see [`FAILURE_MEMORY`]).
    failures: Vec<(u64, DbError)>,
    /// Highest failed epoch evicted from `failures`: no window at or below
    /// it can be told from a forgotten failure any more.
    forgotten_through: Option<u64>,
    // Stats (owned here so leaders update them under the window mutex).
    commits: u64,
    wal_windows: u64,
    checkpoints: u64,
    /// `commits per window -> windows seen` histogram.
    per_window: BTreeMap<u32, u64>,
}

impl WindowState {
    /// The verdict of flushed window `epoch`. Conservative once failures
    /// have been evicted: an epoch old enough to have been one of them reads
    /// `Err` (a forgotten success may too — never a failure as `Ok`).
    fn verdict(&self, epoch: u64) -> Result<(), DbError> {
        match self.failures.iter().find(|(e, _)| *e == epoch) {
            Some((_, err)) => Err(err.clone()),
            None if self.forgotten_through >= Some(epoch) => {
                Err(DbError::Storage("verdict expired".into()))
            }
            None => Ok(()),
        }
    }

    fn note_failure(&mut self, epoch: u64, err: DbError) {
        if self.failures.len() >= FAILURE_MEMORY {
            // Epochs are noted in increasing order: the oldest is first.
            self.forgotten_through = Some(self.failures.remove(0).0);
        }
        self.failures.push((epoch, err));
    }
}

/// The shared durability core: one per database, held by the [`Db`] handle
/// and by every outstanding [`CommitTicket`].
struct WalShared {
    window: Mutex<WindowState>,
    window_cv: Condvar,
    wal: Mutex<WalCore>,
    /// Committer park times, for `group_commit_wait_p99`.
    wait_hist: palaemon_telemetry::Histogram,
}

impl WalShared {
    fn new(store: Box<dyn BlockStore>, key: AeadKey, meta: Meta) -> Arc<Self> {
        Arc::new(WalShared {
            window: Mutex::new(WindowState::default()),
            window_cv: Condvar::new(),
            wal: Mutex::new(WalCore { store, key, meta }),
            wait_hist: palaemon_telemetry::Histogram::new(),
        })
    }

    /// Takes the open window (caller observed `!leader_running`), seals and
    /// flushes everything staged in it, covers its covered commits, posts
    /// the verdict and wakes the followers. Returns that verdict.
    fn lead(&self, mut st: MutexGuard<'_, WindowState>) -> Result<(), DbError> {
        debug_assert!(!st.leader_running);
        let buf = std::mem::take(&mut st.staged_buf);
        let count = std::mem::replace(&mut st.staged_count, 0);
        let commits = std::mem::replace(&mut st.staged_commits, 0);
        let cover = st.staged_cover.take();
        let epoch = st.epoch;
        st.epoch += 1;
        st.leader_running = true;
        drop(st);

        // Persist first, then cover, then acknowledge (Fig. 6): the cover is
        // issued only after this window's sync, under neither mutex.
        let result = self.flush(&buf, count).and_then(|()| match cover {
            Some((cover, covered)) => cover(covered),
            None => Ok(()),
        });

        let mut st = self.window.lock().unwrap();
        st.leader_running = false;
        st.flushed = epoch + 1;
        match &result {
            Ok(()) => {
                st.commits += u64::from(commits);
                st.wal_windows += 1;
                *st.per_window.entry(commits).or_insert(0) += 1;
            }
            Err(err) => st.note_failure(epoch, err.clone()),
        }
        drop(st);
        self.window_cv.notify_all();
        result
    }

    /// Seals `count` staged ops as the next WAL batch, bumps meta and syncs
    /// — the one expensive step per window.
    fn flush(&self, buf: &[u8], count: u32) -> Result<(), DbError> {
        let mut wal = self.wal.lock().unwrap();
        let seq = wal.meta.next_seq;
        let mut header = Encoder::new();
        header.put_u32(count);
        let mut plain = header.finish();
        plain.extend_from_slice(buf);
        let sealed = wal.key.seal(
            format!("wal.{seq}").as_bytes(),
            &plain,
            format!("db-wal.{seq}").as_bytes(),
        );
        wal.store.put(&wal_blob(seq), sealed);
        wal.meta.next_seq += 1;
        let meta = wal.meta.encode();
        wal.store.put(META_BLOB, meta);
        wal.store
            .sync()
            .map_err(|e| DbError::Storage(e.to_string()))
    }
}

/// A claim on a staged commit's durability verdict. Returned by
/// [`Db::commit_stage`]; redeem it with [`CommitTicket::wait`] *after*
/// releasing whatever outer lock serializes table mutation, so the sync
/// wait never blocks other writers from staging into the window.
#[must_use = "a staged commit is only durable once wait() returns Ok"]
pub struct CommitTicket {
    inner: Option<(Arc<WalShared>, u64)>,
}

impl fmt::Debug for CommitTicket {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.inner {
            Some((_, epoch)) => write!(f, "CommitTicket(window {epoch})"),
            None => write!(f, "CommitTicket(noop)"),
        }
    }
}

impl CommitTicket {
    /// Blocks until the staged window is durable (or failed) and returns
    /// the verdict. One waiter per window is elected leader and performs
    /// the single seal + sync for everything staged; the rest park on the
    /// window condvar.
    ///
    /// # Errors
    /// Propagates the leader's storage failure to every commit in the
    /// window.
    pub fn wait(self) -> Result<(), DbError> {
        let Some((shared, epoch)) = self.inner else {
            return Ok(());
        };
        let start = Instant::now();
        let mut st = shared.window.lock().unwrap();
        loop {
            if st.flushed > epoch {
                let verdict = st.verdict(epoch);
                drop(st);
                shared.wait_hist.record(start.elapsed().as_nanos() as u64);
                return verdict;
            }
            if st.epoch == epoch && !st.leader_running {
                let result = shared.lead(st);
                shared.wait_hist.record(start.elapsed().as_nanos() as u64);
                return result;
            }
            // Follower: park until a leader posts a verdict (posted, like
            // this predicate is checked, under the window mutex).
            st = shared.window_cv.wait(st).unwrap();
        }
    }
}

/// The embedded encrypted key-value store handle: the visible tree plus
/// this handle's pending (uncommitted) ops. Durability is shared — see
/// [`CommitTicket`].
pub struct Db {
    shared: Arc<WalShared>,
    tree: Tree,
    /// WAL-encoded pending ops (serialized at `put`/`delete` time, so the
    /// hot path moves key and value into the tree instead of cloning them).
    pending_buf: Vec<u8>,
    pending_count: u32,
    /// Active write-batch capture, if a caller asked for one.
    capture: Option<ChangeSet>,
}

impl fmt::Debug for Db {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Db")
            .field("keys", &self.tree.len())
            .field("pending", &self.pending_count)
            .finish()
    }
}

/// A consistent point-in-time view of the visible table (including
/// not-yet-committed buffered writes), detached from the [`Db`]: readers
/// hold a `DbView` and read lock-free while writers continue on the `Db`.
/// Taking one is O(1) — a reference-count bump, never a table copy.
#[derive(Clone)]
pub struct DbView {
    tree: Tree,
}

impl fmt::Debug for DbView {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DbView({} keys)", self.tree.len())
    }
}

impl DbView {
    /// Reads a value as of the view's snapshot.
    pub fn get(&self, key: &[u8]) -> Option<&[u8]> {
        self.tree.get(key).map(|v| v.as_ref())
    }

    /// Number of keys in the snapshot.
    pub fn len(&self) -> usize {
        self.tree.len()
    }

    /// True when the snapshot holds no keys.
    pub fn is_empty(&self) -> bool {
        self.tree.is_empty()
    }

    /// Iterates over `(key, value)` pairs whose key starts with `prefix`.
    pub fn scan_prefix<'a>(
        &'a self,
        prefix: &'a [u8],
    ) -> impl Iterator<Item = (&'a [u8], &'a [u8])> + 'a {
        self.tree
            .range_from(prefix)
            .take_while(move |(k, _)| k.starts_with(prefix))
            .map(|(k, v)| (k.as_ref(), v.as_ref()))
    }

    /// Collects all `(key, value)` pairs under `prefix` as owned records —
    /// the shape shard migration ships between databases. Owned means
    /// reference-counted: no payload is copied.
    pub fn export_prefix(&self, prefix: &[u8]) -> Vec<(Bytes, Bytes)> {
        self.tree
            .range_from(prefix)
            .take_while(move |(k, _)| k.starts_with(prefix))
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }
}

impl Db {
    /// Creates a fresh database on `store`, erasing any previous state, and
    /// syncs it: a crash immediately after `create` returns must reopen as
    /// an empty database, never as "meta missing".
    ///
    /// # Errors
    /// Propagates storage sync failures.
    pub fn create(store: Box<dyn BlockStore>, key: AeadKey) -> Result<Self, DbError> {
        let meta = Meta {
            generation: 0,
            first_seq: 0,
            next_seq: 0,
        };
        let db = Db {
            shared: WalShared::new(store, key, meta),
            tree: Tree::new(),
            pending_buf: Vec::new(),
            pending_count: 0,
            capture: None,
        };
        {
            let wal = db.shared.wal.lock().unwrap();
            let plain = encode_tree(&db.tree);
            let sealed = wal.key.seal(b"snap.0", &plain, b"db-snap.0");
            wal.store.put(&snapshot_blob(0), sealed);
            let meta = wal.meta.encode();
            wal.store.put(META_BLOB, meta);
            wal.store
                .sync()
                .map_err(|e| DbError::Storage(e.to_string()))?;
        }
        Ok(db)
    }

    /// Opens an existing database, verifying and replaying the WAL.
    ///
    /// # Errors
    /// Returns [`DbError::Corrupt`] when the snapshot, meta or any committed
    /// WAL batch fails authentication or decoding.
    pub fn open(store: Box<dyn BlockStore>, key: AeadKey) -> Result<Self, DbError> {
        let meta_raw = store
            .get(META_BLOB)
            .ok_or_else(|| DbError::Corrupt("meta missing".into()))?;
        let meta = Meta::decode(&meta_raw)?;

        // Load the snapshot for this generation.
        let snap_raw = store
            .get(&snapshot_blob(meta.generation))
            .ok_or_else(|| DbError::Corrupt("snapshot missing".into()))?;
        let snap_plain = key
            .open(
                format!("snap.{}", meta.generation).as_bytes(),
                &snap_raw,
                format!("db-snap.{}", meta.generation).as_bytes(),
            )
            .map_err(|e| DbError::Corrupt(format!("snapshot: {e}")))?;
        let mut tree = decode_tree(&snap_plain)?;

        // Replay committed WAL windows in order. Each window is one sealed
        // blob, so recovery always lands on a window boundary.
        for seq in meta.first_seq..meta.next_seq {
            let raw = store
                .get(&wal_blob(seq))
                .ok_or_else(|| DbError::Corrupt(format!("wal batch {seq} missing")))?;
            let plain = key
                .open(
                    format!("wal.{seq}").as_bytes(),
                    &raw,
                    format!("db-wal.{seq}").as_bytes(),
                )
                .map_err(|e| DbError::Corrupt(format!("wal batch {seq}: {e}")))?;
            for op in decode_ops(&plain)? {
                match op {
                    Op::Put(k, v) => {
                        tree.insert(k.into(), v.into());
                    }
                    Op::Delete(k) => {
                        tree.remove(&k);
                    }
                }
            }
        }

        Ok(Db {
            shared: WalShared::new(store, key, meta),
            tree,
            pending_buf: Vec::new(),
            pending_count: 0,
            capture: None,
        })
    }

    /// Reads a value.
    pub fn get(&self, key: &[u8]) -> Option<&[u8]> {
        self.tree.get(key).map(|v| v.as_ref())
    }

    /// Returns a detached snapshot of the currently visible state. O(1):
    /// one reference-count bump; the *next* write pays an O(log n) path
    /// copy for the nodes the snapshot still shares.
    pub fn view(&self) -> DbView {
        DbView {
            tree: self.tree.clone(),
        }
    }

    /// Buffers a put; visible immediately, durable after [`Db::commit`].
    ///
    /// The WAL record is encoded here (while key and value are still
    /// borrowed) and the reference-counted buffers are then moved into the
    /// tree, so the hot path performs no extra payload copies.
    pub fn put(&mut self, key: impl Into<Bytes>, value: impl Into<Bytes>) {
        let (key, value) = (key.into(), value.into());
        let mut e = Encoder::new();
        e.put_u8(1).put_bytes(&key).put_bytes(&value);
        self.pending_buf.extend_from_slice(e.as_bytes());
        self.pending_count += 1;
        if let Some(capture) = &mut self.capture {
            capture.record_put(key.clone(), value.clone());
        }
        self.tree.insert(key, value);
    }

    /// Buffers a delete.
    pub fn delete(&mut self, key: &[u8]) {
        let mut e = Encoder::new();
        e.put_u8(2).put_bytes(key);
        self.pending_buf.extend_from_slice(e.as_bytes());
        self.pending_count += 1;
        if let Some(capture) = &mut self.capture {
            capture.record_delete(key);
        }
        self.tree.remove(key);
    }

    /// Starts (or restarts) write-batch capture: every `put`/`delete` from
    /// here on is also recorded into a [`ChangeSet`] until
    /// [`Db::take_changes`] collects it. Restarting discards anything
    /// captured but not yet taken.
    ///
    /// Capture is how a caller learns *exactly which keys a commit wrote or
    /// deleted* — replication ships that instead of re-exporting whole
    /// prefixes. Captured entries share the tree's buffers, so recording is
    /// a reference-count bump per write.
    pub fn begin_capture(&mut self) {
        self.capture = Some(ChangeSet::default());
    }

    /// Ends the active capture and returns what it recorded (empty when no
    /// capture was active).
    pub fn take_changes(&mut self) -> ChangeSet {
        self.capture.take().unwrap_or_default()
    }

    /// Number of keys currently visible.
    pub fn len(&self) -> usize {
        self.tree.len()
    }

    /// True when no keys exist.
    pub fn is_empty(&self) -> bool {
        self.tree.is_empty()
    }

    /// Iterates over `(key, value)` pairs whose key starts with `prefix`.
    /// Allocation-free: the range start borrows `prefix` directly.
    pub fn scan_prefix<'a>(
        &'a self,
        prefix: &'a [u8],
    ) -> impl Iterator<Item = (&'a [u8], &'a [u8])> + 'a {
        self.tree
            .range_from(prefix)
            .take_while(move |(k, _)| k.starts_with(prefix))
            .map(|(k, v)| (k.as_ref(), v.as_ref()))
    }

    /// Buffers a delete for every key starting with `prefix` and returns how
    /// many keys were removed. Like [`Db::delete`], the removals are visible
    /// immediately and durable after [`Db::commit`].
    pub fn delete_prefix(&mut self, prefix: &[u8]) -> usize {
        let doomed: Vec<Bytes> = self
            .scan_prefix(prefix)
            .map(|(k, _)| Bytes::from(k))
            .collect();
        for key in &doomed {
            self.delete(key);
        }
        doomed.len()
    }

    /// Stages this handle's pending ops into the current group-commit
    /// window and returns a [`CommitTicket`] for the window's verdict.
    /// Cheap (one short mutex hold, no I/O): call it while still holding
    /// the outer write lock, then drop that lock and [`CommitTicket::wait`].
    pub fn commit_stage(&mut self) -> CommitTicket {
        self.stage(None)
    }

    /// [`Db::commit_stage`] for a commit that must be *covered* before it is
    /// acknowledged: under the same window-mutex hold that appends its ops,
    /// the commit is counted towards the one `cover(n)` call the window's
    /// leader makes between the window's sync and its verdict (see
    /// [`CommitCover`]). A handle with nothing pending stages nothing and is
    /// not counted. Every covered commit of one database passes the same
    /// cover.
    pub fn commit_stage_covered(&mut self, cover: &CommitCover) -> CommitTicket {
        self.stage(Some(cover))
    }

    fn stage(&mut self, cover: Option<&CommitCover>) -> CommitTicket {
        if self.pending_count == 0 {
            return CommitTicket { inner: None };
        }
        let mut st = self.shared.window.lock().unwrap();
        st.staged_buf.append(&mut self.pending_buf);
        st.staged_count += self.pending_count;
        st.staged_commits += 1;
        if let Some(cover) = cover {
            st.staged_cover
                .get_or_insert_with(|| (Arc::clone(cover), 0))
                .1 += 1;
        }
        let epoch = st.epoch;
        drop(st);
        self.pending_count = 0;
        CommitTicket {
            inner: Some((Arc::clone(&self.shared), epoch)),
        }
    }

    /// Durably commits all pending operations: stage + wait in one call,
    /// for single-writer callers. Still group-commits with any concurrent
    /// stagers on the same underlying database.
    ///
    /// # Errors
    /// Propagates storage sync failures.
    pub fn commit(&mut self) -> Result<(), DbError> {
        self.commit_stage().wait()
    }

    /// Writes a full snapshot and truncates the WAL. Drains any in-flight
    /// or orphaned (staged but never waited) windows first — leading them
    /// here, cover included — so the snapshot supersedes exactly the WAL it
    /// garbage-collects.
    ///
    /// # Errors
    /// Propagates storage sync failures; commits pending operations first.
    pub fn checkpoint(&mut self) -> Result<(), DbError> {
        self.commit()?;
        // Drain: `&mut self` means no new ops can stage, but a concurrent
        // ticket's leader may be mid-flush, and dropped tickets may have
        // left staged ops behind. Flush until the window is empty and idle.
        loop {
            let st = self.shared.window.lock().unwrap();
            if st.leader_running {
                drop(self.shared.window_cv.wait(st).unwrap());
                continue;
            }
            if st.staged_count == 0 {
                break;
            }
            self.shared.lead(st)?;
        }

        let mut wal = self.shared.wal.lock().unwrap();
        let generation = wal.meta.generation + 1;
        let plain = encode_tree(&self.tree);
        let sealed = wal.key.seal(
            format!("snap.{generation}").as_bytes(),
            &plain,
            format!("db-snap.{generation}").as_bytes(),
        );
        wal.store.put(&snapshot_blob(generation), sealed);
        let old_first = wal.meta.first_seq;
        let old_gen = wal.meta.generation;
        wal.meta = Meta {
            generation,
            first_seq: wal.meta.next_seq,
            next_seq: wal.meta.next_seq,
        };
        let meta = wal.meta.encode();
        wal.store.put(META_BLOB, meta);
        wal.store
            .sync()
            .map_err(|e| DbError::Storage(e.to_string()))?;
        // Garbage-collect superseded blobs, then sync again: a crash after
        // the deletes but before they reach the medium must still leave a
        // cleanly openable store (the new snapshot + meta are already
        // durable; the deletes only reclaim space).
        for seq in old_first..wal.meta.first_seq {
            wal.store.delete(&wal_blob(seq));
        }
        wal.store.delete(&snapshot_blob(old_gen));
        wal.store
            .sync()
            .map_err(|e| DbError::Storage(e.to_string()))?;
        drop(wal);
        self.shared.window.lock().unwrap().checkpoints += 1;
        Ok(())
    }

    /// Runtime statistics.
    pub fn stats(&self) -> DbStats {
        let (commits, checkpoints, wal_windows, per_window) = {
            let st = self.shared.window.lock().unwrap();
            (
                st.commits,
                st.checkpoints,
                st.wal_windows,
                st.per_window.iter().map(|(&s, &c)| (s, c)).collect(),
            )
        };
        let wal_batches = {
            let wal = self.shared.wal.lock().unwrap();
            wal.meta.next_seq - wal.meta.first_seq
        };
        DbStats {
            commits,
            checkpoints,
            keys: self.tree.len(),
            wal_batches,
            wal_windows,
            commits_per_window: per_window,
            group_commit_wait_p99_ns: self.shared.wait_hist.percentile(0.99),
            snapshot_path_copies: self.tree.path_copies(),
        }
    }

    /// Count of pending (uncommitted, unstaged) operations.
    pub fn pending_ops(&self) -> usize {
        self.pending_count as usize
    }
}

fn decode_ops(bytes: &[u8]) -> Result<Vec<Op>, DbError> {
    let mut d = Decoder::new(bytes);
    let mut parse = || -> palaemon_crypto::Result<Vec<Op>> {
        let n = d.get_u32()? as usize;
        let mut ops = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            match d.get_u8()? {
                1 => ops.push(Op::Put(d.get_bytes()?, d.get_bytes()?)),
                2 => ops.push(Op::Delete(d.get_bytes()?)),
                t => {
                    return Err(palaemon_crypto::CryptoError::Decode(format!(
                        "bad op tag {t}"
                    )))
                }
            }
        }
        d.finish()?;
        Ok(ops)
    };
    parse().map_err(|e| DbError::Corrupt(format!("wal decode: {e}")))
}

fn encode_tree(tree: &Tree) -> Vec<u8> {
    let mut e = Encoder::new();
    e.put_u32(tree.len() as u32);
    for (k, v) in tree.iter() {
        e.put_bytes(k).put_bytes(v);
    }
    e.finish()
}

fn decode_tree(bytes: &[u8]) -> Result<Tree, DbError> {
    let mut d = Decoder::new(bytes);
    let mut parse = || -> palaemon_crypto::Result<Tree> {
        let n = d.get_u32()? as usize;
        let mut tree = Tree::new();
        for _ in 0..n {
            let k = d.get_bytes()?;
            let v = d.get_bytes()?;
            tree.insert(k.into(), v.into());
        }
        d.finish()?;
        Ok(tree)
    };
    parse().map_err(|e| DbError::Corrupt(format!("snapshot decode: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use shielded_fs::store::{BufferedStore, FaultyStore, MemStore};
    use std::time::Duration;

    fn key() -> AeadKey {
        AeadKey::from_bytes([3u8; 32])
    }

    fn fresh() -> (MemStore, Db) {
        let store = MemStore::new();
        let db = Db::create(Box::new(store.clone()), key()).unwrap();
        (store, db)
    }

    #[test]
    fn put_get_commit_reopen() {
        let (store, mut db) = fresh();
        db.put(b"k1".as_slice(), b"v1".as_slice());
        db.put(b"k2".as_slice(), b"v2".as_slice());
        assert_eq!(db.get(b"k1"), Some(b"v1".as_slice()));
        db.commit().unwrap();
        drop(db);
        let db2 = Db::open(Box::new(store), key()).unwrap();
        assert_eq!(db2.get(b"k1"), Some(b"v1".as_slice()));
        assert_eq!(db2.get(b"k2"), Some(b"v2".as_slice()));
        assert_eq!(db2.len(), 2);
    }

    #[test]
    fn uncommitted_writes_lost_on_crash() {
        let (store, mut db) = fresh();
        db.put(b"durable".as_slice(), b"1".as_slice());
        db.commit().unwrap();
        db.put(b"volatile".as_slice(), b"2".as_slice());
        // Crash: no commit.
        drop(db);
        let db2 = Db::open(Box::new(store), key()).unwrap();
        assert_eq!(db2.get(b"durable"), Some(b"1".as_slice()));
        assert_eq!(db2.get(b"volatile"), None);
    }

    #[test]
    fn delete_is_durable() {
        let (store, mut db) = fresh();
        db.put(b"k".as_slice(), b"v".as_slice());
        db.commit().unwrap();
        db.delete(b"k");
        db.commit().unwrap();
        drop(db);
        let db2 = Db::open(Box::new(store), key()).unwrap();
        assert_eq!(db2.get(b"k"), None);
    }

    #[test]
    fn torn_wal_write_is_invisible() {
        // A WAL blob written without the meta update (crash inside commit)
        // must be ignored at open.
        let (store, mut db) = fresh();
        db.put(b"a".as_slice(), b"1".as_slice());
        db.commit().unwrap();
        // Simulate a torn commit: a wal blob exists past next_seq.
        store.put(&wal_blob(99), b"garbage".to_vec());
        drop(db);
        let db2 = Db::open(Box::new(store), key()).unwrap();
        assert_eq!(db2.get(b"a"), Some(b"1".as_slice()));
    }

    #[test]
    fn corrupt_wal_detected() {
        let (store, mut db) = fresh();
        db.put(b"a".as_slice(), b"1".as_slice());
        db.commit().unwrap();
        store.corrupt(&wal_blob(0), 5);
        drop(db);
        assert!(matches!(
            Db::open(Box::new(store), key()),
            Err(DbError::Corrupt(_))
        ));
    }

    #[test]
    fn corrupt_snapshot_detected() {
        let (store, mut db) = fresh();
        db.put(b"a".as_slice(), b"1".as_slice());
        db.checkpoint().unwrap();
        store.corrupt(&snapshot_blob(1), 3);
        drop(db);
        assert!(Db::open(Box::new(store), key()).is_err());
    }

    #[test]
    fn missing_committed_wal_detected() {
        let (store, mut db) = fresh();
        db.put(b"a".as_slice(), b"1".as_slice());
        db.commit().unwrap();
        store.delete(&wal_blob(0));
        drop(db);
        assert!(Db::open(Box::new(store), key()).is_err());
    }

    #[test]
    fn wrong_key_rejected() {
        let (store, mut db) = fresh();
        db.put(b"a".as_slice(), b"1".as_slice());
        db.commit().unwrap();
        drop(db);
        let wrong = AeadKey::from_bytes([9u8; 32]);
        assert!(Db::open(Box::new(store), wrong).is_err());
    }

    #[test]
    fn checkpoint_compacts_and_preserves() {
        let (store, mut db) = fresh();
        for i in 0..50u32 {
            db.put(
                format!("key-{i}").into_bytes(),
                format!("val-{i}").into_bytes(),
            );
            db.commit().unwrap();
        }
        assert_eq!(db.stats().wal_batches, 50);
        db.checkpoint().unwrap();
        assert_eq!(db.stats().wal_batches, 0);
        // Old WAL blobs are gone.
        assert!(store.get(&wal_blob(0)).is_none());
        drop(db);
        let db2 = Db::open(Box::new(store), key()).unwrap();
        assert_eq!(db2.len(), 50);
        assert_eq!(db2.get(b"key-17"), Some(b"val-17".as_slice()));
    }

    #[test]
    fn writes_after_checkpoint_survive() {
        let (store, mut db) = fresh();
        db.put(b"before".as_slice(), b"1".as_slice());
        db.checkpoint().unwrap();
        db.put(b"after".as_slice(), b"2".as_slice());
        db.commit().unwrap();
        drop(db);
        let db2 = Db::open(Box::new(store), key()).unwrap();
        assert_eq!(db2.get(b"before"), Some(b"1".as_slice()));
        assert_eq!(db2.get(b"after"), Some(b"2".as_slice()));
    }

    #[test]
    fn whole_db_rollback_is_undetectable_here() {
        // Documents the layering: a consistent rollback of the entire store
        // opens cleanly; catching it is the instance guard's job (Fig. 6).
        let (store, mut db) = fresh();
        db.put(b"v".as_slice(), b"old".as_slice());
        db.commit().unwrap();
        let snapshot = store.snapshot();
        db.put(b"v".as_slice(), b"new".as_slice());
        db.commit().unwrap();
        drop(db);
        store.restore(snapshot);
        let db2 = Db::open(Box::new(store), key()).unwrap();
        assert_eq!(db2.get(b"v"), Some(b"old".as_slice()));
    }

    #[test]
    fn scan_prefix_finds_range() {
        let (_, mut db) = fresh();
        db.put(b"tag/app1".as_slice(), b"1".as_slice());
        db.put(b"tag/app2".as_slice(), b"2".as_slice());
        db.put(b"policy/p1".as_slice(), b"3".as_slice());
        let tags: Vec<_> = db.scan_prefix(b"tag/").collect();
        assert_eq!(tags.len(), 2);
        assert_eq!(tags[0].0, b"tag/app1");
        assert_eq!(tags[1].0, b"tag/app2");
    }

    #[test]
    fn delete_prefix_is_durable_and_scoped() {
        let (store, mut db) = fresh();
        db.put(b"tag/p1/a".as_slice(), b"1".as_slice());
        db.put(b"tag/p1/b".as_slice(), b"2".as_slice());
        db.put(b"tag/p10/a".as_slice(), b"3".as_slice());
        db.commit().unwrap();
        assert_eq!(db.delete_prefix(b"tag/p1/"), 2);
        db.commit().unwrap();
        drop(db);
        let db2 = Db::open(Box::new(store), key()).unwrap();
        assert_eq!(db2.get(b"tag/p1/a"), None);
        assert_eq!(db2.get(b"tag/p1/b"), None);
        // The sibling prefix is untouched.
        assert_eq!(db2.get(b"tag/p10/a"), Some(b"3".as_slice()));
    }

    #[test]
    fn view_export_prefix_returns_owned_snapshot() {
        let (_, mut db) = fresh();
        db.put(b"policy/a".as_slice(), b"1".as_slice());
        db.put(b"policy/b".as_slice(), b"2".as_slice());
        db.put(b"owner/a".as_slice(), b"3".as_slice());
        let view = db.view();
        let records = view.export_prefix(b"policy/");
        db.delete(b"policy/a");
        // Exported records are owned and unaffected by later writes.
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].0.as_ref(), b"policy/a");
        assert_eq!(records[0].1.as_ref(), b"1");
        assert_eq!(records[1].0.as_ref(), b"policy/b");
        assert_eq!(records[1].1.as_ref(), b"2");
    }

    #[test]
    fn empty_commit_is_noop() {
        let (_, mut db) = fresh();
        db.commit().unwrap();
        assert_eq!(db.stats().commits, 0);
    }

    #[test]
    fn overwrite_within_batch() {
        let (store, mut db) = fresh();
        db.put(b"k".as_slice(), b"v1".as_slice());
        db.put(b"k".as_slice(), b"v2".as_slice());
        db.commit().unwrap();
        drop(db);
        let db2 = Db::open(Box::new(store), key()).unwrap();
        assert_eq!(db2.get(b"k"), Some(b"v2".as_slice()));
        assert_eq!(db2.len(), 1);
    }

    #[test]
    fn crash_mid_commit_recovers_to_last_commit() {
        // Fill the database, then let the device die partway through a
        // commit: the WAL blob may land but the meta update is lost (or
        // vice versa) — either way, open() must recover exactly the last
        // fully committed state.
        // Db::create issues 2 puts (snapshot + meta); a commit issues 2
        // more (wal batch + meta) and then syncs. Sweep the failure point
        // across the commit.
        for fuse in 1..=4 {
            let store = MemStore::new();
            let faulty = FaultyStore::new(store.clone(), fuse + 2); // allow create
            let mut db = Db::create(Box::new(faulty), key()).unwrap();
            db.put(b"k".as_slice(), b"v1".as_slice());
            // This commit may tear at any point; errors are acceptable.
            let _ = db.commit();
            drop(db);
            // Recovery must either see v1 (commit completed) or nothing
            // (commit torn) — never corruption.
            match Db::open(Box::new(store), key()) {
                Ok(db2) => {
                    let v = db2.get(b"k");
                    assert!(v.is_none() || v == Some(b"v1".as_slice()), "fuse={fuse}");
                }
                Err(DbError::Corrupt(_)) => {
                    // Acceptable only if a WAL blob committed without meta
                    // can never happen; our order (wal then meta) means a
                    // missing wal WITH updated meta is impossible, so
                    // corruption here would be a bug.
                    panic!("torn commit must not corrupt the database (fuse={fuse})");
                }
                Err(other) => panic!("unexpected: {other} (fuse={fuse})"),
            }
        }
    }

    #[test]
    fn crash_right_after_create_opens_as_empty_db() {
        // Regression: create() must sync. With a store that only persists
        // on sync, a crash immediately after create (zero commits) must
        // reopen as a valid empty database — not Corrupt("meta missing").
        let inner = MemStore::new();
        let buffered = BufferedStore::new(inner.clone());
        let db = Db::create(Box::new(buffered.clone()), key()).unwrap();
        drop(db);
        buffered.crash();
        let db2 = Db::open(Box::new(inner), key()).unwrap();
        assert!(db2.is_empty());
    }

    #[test]
    fn crash_between_checkpoint_gc_and_sync_opens_cleanly() {
        // Regression: the GC deletes after a checkpoint ride their own
        // sync. Crash with the deletes buffered but un-synced: the store
        // still holds the old blobs *and* the new snapshot/meta — open
        // must succeed on the new generation.
        let inner = MemStore::new();
        let buffered = BufferedStore::new(inner.clone());
        let mut db = Db::create(Box::new(buffered.clone()), key()).unwrap();
        db.put(b"a".as_slice(), b"1".as_slice());
        db.commit().unwrap();
        db.put(b"b".as_slice(), b"2".as_slice());
        // Fail exactly the checkpoint's post-GC sync. From here the
        // checkpoint performs: commit of `b` (wal put, meta put, sync = 3
        // ops), snapshot flush (snap put, meta put, sync = 3), then GC
        // (2 wal deletes + 1 snapshot delete = 3) — so op 10 is the GC
        // sync.
        buffered.fail_after(9);
        let err = db.checkpoint().unwrap_err();
        assert!(matches!(err, DbError::Storage(_)));
        drop(db);
        buffered.crash();
        // The new snapshot and truncated meta are durable; the GC deletes
        // were lost with the crash. Stale blobs must not break open.
        let db2 = Db::open(Box::new(inner.clone()), key()).unwrap();
        assert_eq!(db2.get(b"a"), Some(b"1".as_slice()));
        assert_eq!(db2.get(b"b"), Some(b"2".as_slice()));
        // The superseded blobs are indeed still lying around (that is the
        // crash being modelled), and open ignored them.
        assert!(inner.get(&wal_blob(0)).is_some());
    }

    #[test]
    fn checkpoint_gc_deletes_are_synced() {
        // The happy path: after a successful checkpoint the deletes have
        // been pushed through a sync of their own.
        let inner = MemStore::new();
        let buffered = BufferedStore::new(inner.clone());
        let mut db = Db::create(Box::new(buffered), key()).unwrap();
        db.put(b"a".as_slice(), b"1".as_slice());
        db.commit().unwrap();
        db.checkpoint().unwrap();
        // No crash: the inner store saw the delete via the final sync.
        assert!(inner.get(&wal_blob(0)).is_none());
        assert!(inner.get(&snapshot_blob(0)).is_none());
        assert!(inner.get(&snapshot_blob(1)).is_some());
    }

    #[test]
    fn view_is_snapshot_isolated() {
        let (_, mut db) = fresh();
        db.put(b"k".as_slice(), b"v1".as_slice());
        let view = db.view();
        db.put(b"k".as_slice(), b"v2".as_slice());
        db.delete(b"k");
        // The view keeps the state as of its creation.
        assert_eq!(view.get(b"k"), Some(b"v1".as_slice()));
        assert_eq!(db.get(b"k"), None);
        assert_eq!(view.len(), 1);
        assert!(!view.is_empty());
    }

    #[test]
    fn view_sees_uncommitted_buffered_writes() {
        let (_, mut db) = fresh();
        db.put(b"k".as_slice(), b"v".as_slice());
        // Visible (not necessarily durable) state, like Db::get.
        assert_eq!(db.view().get(b"k"), Some(b"v".as_slice()));
    }

    #[test]
    fn view_scan_prefix_matches_db() {
        let (_, mut db) = fresh();
        db.put(b"tag/a".as_slice(), b"1".as_slice());
        db.put(b"tag/b".as_slice(), b"2".as_slice());
        db.put(b"other".as_slice(), b"3".as_slice());
        let view = db.view();
        db.delete(b"tag/a");
        let tags: Vec<_> = view.scan_prefix(b"tag/").collect();
        assert_eq!(tags.len(), 2);
        assert_eq!(tags[0], (b"tag/a".as_slice(), b"1".as_slice()));
    }

    #[test]
    fn concurrent_readers_on_views_while_writing() {
        let (_, mut db) = fresh();
        for i in 0..64u32 {
            db.put(format!("k{i}").into_bytes(), vec![i as u8]);
        }
        let view = db.view();
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let v = view.clone();
                std::thread::spawn(move || {
                    for i in 0..64u32 {
                        assert_eq!(v.get(format!("k{i}").as_bytes()), Some(&[i as u8][..]));
                    }
                    v.scan_prefix(b"k").count()
                })
            })
            .collect();
        // Writer keeps going while readers scan their snapshot.
        for i in 0..64u32 {
            db.put(format!("k{i}").into_bytes(), vec![0xFF]);
        }
        for r in readers {
            assert_eq!(r.join().unwrap(), 64);
        }
        assert_eq!(db.get(b"k0"), Some(&[0xFF][..]));
    }

    #[test]
    fn capture_records_exactly_the_written_keys() {
        let (_, mut db) = fresh();
        db.put(b"before".as_slice(), b"0".as_slice());
        db.begin_capture();
        db.put(b"tag/p/v".as_slice(), b"t1".as_slice());
        db.put(b"tag/p/v".as_slice(), b"t2".as_slice()); // coalesces
        db.put(b"policy/p".as_slice(), b"pol".as_slice());
        db.delete(b"secretv/p/s");
        db.commit().unwrap();
        let changes = db.take_changes();
        assert_eq!(changes.len(), 3, "same-key writes must coalesce");
        let (puts, tombstones) = changes.into_parts();
        assert_eq!(
            puts,
            vec![
                (
                    Bytes::from(b"policy/p".as_slice()),
                    Bytes::from(b"pol".as_slice())
                ),
                (
                    Bytes::from(b"tag/p/v".as_slice()),
                    Bytes::from(b"t2".as_slice())
                ),
            ]
        );
        assert_eq!(tombstones, vec![Bytes::from(b"secretv/p/s".as_slice())]);
        // Capture is one-shot: nothing recorded after the take.
        db.put(b"after".as_slice(), b"1".as_slice());
        assert!(db.take_changes().is_empty());
    }

    #[test]
    fn capture_covers_delete_prefix_and_restart_discards() {
        let (_, mut db) = fresh();
        db.put(b"tag/p/a".as_slice(), b"1".as_slice());
        db.put(b"tag/p/b".as_slice(), b"2".as_slice());
        db.begin_capture();
        db.delete_prefix(b"tag/p/");
        let first = db.take_changes();
        let (puts, tombstones) = first.into_parts();
        assert!(puts.is_empty());
        assert_eq!(
            tombstones,
            vec![
                Bytes::from(b"tag/p/a".as_slice()),
                Bytes::from(b"tag/p/b".as_slice())
            ]
        );
        // Restarting a capture discards the uncollected recording.
        db.begin_capture();
        db.put(b"x".as_slice(), b"1".as_slice());
        db.begin_capture();
        db.put(b"y".as_slice(), b"2".as_slice());
        let (puts, _) = db.take_changes().into_parts();
        assert_eq!(
            puts,
            vec![(Bytes::from(b"y".as_slice()), Bytes::from(b"2".as_slice()))]
        );
    }

    #[test]
    fn changeset_merge_later_entry_wins() {
        let mut first = ChangeSet::default();
        first.record_put(b"k".as_slice(), b"v1".as_slice());
        first.record_delete(b"gone".as_slice());
        let mut second = ChangeSet::default();
        second.record_delete(b"k".as_slice());
        second.record_put(b"gone".as_slice(), b"back".as_slice());
        first.merge(second);
        let (puts, tombstones) = first.into_parts();
        assert_eq!(
            puts,
            vec![(
                Bytes::from(b"gone".as_slice()),
                Bytes::from(b"back".as_slice())
            )]
        );
        assert_eq!(tombstones, vec![Bytes::from(b"k".as_slice())]);
    }

    #[test]
    fn stats_track_activity() {
        let (_, mut db) = fresh();
        db.put(b"a".as_slice(), b"1".as_slice());
        assert_eq!(db.pending_ops(), 1);
        db.commit().unwrap();
        assert_eq!(db.pending_ops(), 0);
        let s = db.stats();
        assert_eq!(s.commits, 1);
        assert_eq!(s.keys, 1);
        assert_eq!(s.wal_windows, 1);
        assert_eq!(s.commits_per_window, vec![(1, 1)]);
    }

    #[test]
    fn commits_per_window_conservation() {
        // commits == Σ size · count over the per-window histogram, in both
        // the sequential and the coalesced case.
        let (_, mut db) = fresh();
        for i in 0..7u32 {
            db.put(format!("k{i}").into_bytes(), b"v".as_slice());
            db.commit().unwrap();
        }
        let s = db.stats();
        assert_eq!(s.commits, 7);
        let total: u64 = s
            .commits_per_window
            .iter()
            .map(|&(size, count)| u64::from(size) * count)
            .sum();
        assert_eq!(s.commits, total);
        assert_eq!(
            s.wal_windows,
            s.commits_per_window.iter().map(|&(_, c)| c).sum()
        );
    }

    /// A store whose sync is slow enough that concurrent committers pile
    /// into the next window while the leader flushes.
    struct SlowSync(MemStore);

    impl BlockStore for SlowSync {
        fn get(&self, name: &str) -> Option<Vec<u8>> {
            self.0.get(name)
        }
        fn put(&self, name: &str, data: Vec<u8>) {
            self.0.put(name, data);
        }
        fn delete(&self, name: &str) {
            self.0.delete(name);
        }
        fn list(&self) -> Vec<String> {
            self.0.list()
        }
        fn sync(&self) -> shielded_fs::Result<()> {
            std::thread::sleep(Duration::from_micros(500));
            self.0.sync()
        }
    }

    #[test]
    fn concurrent_commits_coalesce_into_windows() {
        use std::sync::Mutex as StdMutex;
        let inner = MemStore::new();
        let db = Arc::new(StdMutex::new(
            Db::create(Box::new(SlowSync(inner.clone())), key()).unwrap(),
        ));
        const WRITERS: usize = 8;
        const PER_WRITER: usize = 20;
        let workers: Vec<_> = (0..WRITERS)
            .map(|w| {
                let db = Arc::clone(&db);
                std::thread::spawn(move || {
                    for i in 0..PER_WRITER {
                        let ticket = {
                            let mut db = db.lock().unwrap();
                            db.put(format!("w{w}/k{i}").into_bytes(), vec![w as u8]);
                            db.commit_stage()
                        };
                        ticket.wait().unwrap();
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        let db = Arc::try_unwrap(db).ok().unwrap().into_inner().unwrap();
        let s = db.stats();
        assert_eq!(s.commits, (WRITERS * PER_WRITER) as u64);
        assert_eq!(s.keys, WRITERS * PER_WRITER);
        // Group commit actually grouped: strictly fewer syncs than commits.
        assert!(
            s.wal_windows < s.commits,
            "windows={} commits={}",
            s.wal_windows,
            s.commits
        );
        // Conservation across the histogram.
        let total: u64 = s
            .commits_per_window
            .iter()
            .map(|&(size, count)| u64::from(size) * count)
            .sum();
        assert_eq!(total, s.commits);
        // Everything acked is durable.
        drop(db);
        let db2 = Db::open(Box::new(inner), key()).unwrap();
        assert_eq!(db2.len(), WRITERS * PER_WRITER);
    }

    #[test]
    fn multi_writer_crash_sweep_recovers_on_window_boundaries() {
        // Fuse the store at every op inside a multi-writer window schedule:
        // recovery must land on a window boundary — for every committer,
        // either all of its acked commit is visible or none of it, and the
        // store never reports corruption.
        for fuse in 1..16 {
            let inner = MemStore::new();
            let buffered = BufferedStore::new(inner.clone());
            let mut db = Db::create(Box::new(buffered.clone()), key()).unwrap();
            buffered.fail_after(fuse);
            // Two committers per round staging into the *same* window
            // (stage both tickets before waiting either); each commit
            // writes a pair of keys that must be atomic, and both commits
            // of a window must share a fate.
            let mut acked = [false; 6];
            for round in 0..3usize {
                let (c0, c1) = (2 * round, 2 * round + 1);
                db.put(format!("c{c0}/a").into_bytes(), b"1".as_slice());
                db.put(format!("c{c0}/b").into_bytes(), b"2".as_slice());
                let t0 = db.commit_stage();
                db.put(format!("c{c1}/a").into_bytes(), b"1".as_slice());
                db.put(format!("c{c1}/b").into_bytes(), b"2".as_slice());
                let t1 = db.commit_stage();
                acked[c0] = t0.wait().is_ok();
                acked[c1] = t1.wait().is_ok();
            }
            drop(db);
            buffered.crash();
            match Db::open(Box::new(inner), key()) {
                Ok(db2) => {
                    for (c, &was_acked) in acked.iter().enumerate() {
                        let a = db2.get(format!("c{c}/a").as_bytes()).is_some();
                        let b = db2.get(format!("c{c}/b").as_bytes()).is_some();
                        assert_eq!(a, b, "torn commit: c{c}, fuse {fuse}");
                        if was_acked {
                            assert!(a, "acked commit lost: c{c}, fuse {fuse}");
                        }
                    }
                    // Window atomicity: the two commits staged into one
                    // window are both present or both absent.
                    for round in 0..3usize {
                        let first = db2.get(format!("c{}/a", 2 * round).as_bytes()).is_some();
                        let second = db2
                            .get(format!("c{}/a", 2 * round + 1).as_bytes())
                            .is_some();
                        assert_eq!(
                            first, second,
                            "window torn between commits: round {round}, fuse {fuse}"
                        );
                    }
                }
                Err(e) => panic!("crash recovery must not corrupt (fuse={fuse}): {e}"),
            }
        }
    }

    #[test]
    fn a_failed_windows_verdict_expires_instead_of_reading_durable() {
        // A ticket of a failed window redeemed after the failure memory has
        // turned over must not read "durable".
        let buffered = BufferedStore::new(MemStore::new());
        let mut db = Db::create(Box::new(buffered.clone()), key()).unwrap();
        buffered.fail_after(0);
        db.put(b"late".as_slice(), b"1".as_slice());
        let late = db.commit_stage();
        db.put(b"lead".as_slice(), b"1".as_slice());
        assert!(db.commit().is_err(), "window 0 fails (led by its peer)");
        for i in 0..FAILURE_MEMORY {
            db.put(format!("k{i}").into_bytes(), b"v".as_slice());
            assert!(db.commit().is_err());
        }
        assert_eq!(
            late.wait(),
            Err(DbError::Storage("verdict expired".into())),
            "window 0's failure was evicted; its ticket must still not ack"
        );
        // Failures still in memory keep their own error, and the store
        // recovering does not resurrect the expired range.
        db.put(b"recent".as_slice(), b"1".as_slice());
        let recent = db.commit_stage();
        assert!(matches!(recent.wait(), Err(DbError::Storage(why)) if why != "verdict expired"));
    }

    /// A store that writes `sync` into an order log.
    struct LoggedSync(MemStore, Arc<Mutex<Vec<String>>>);

    impl BlockStore for LoggedSync {
        fn get(&self, name: &str) -> Option<Vec<u8>> {
            self.0.get(name)
        }
        fn put(&self, name: &str, data: Vec<u8>) {
            self.0.put(name, data);
        }
        fn delete(&self, name: &str) {
            self.0.delete(name);
        }
        fn list(&self) -> Vec<String> {
            self.0.list()
        }
        fn sync(&self) -> shielded_fs::Result<()> {
            self.1.lock().unwrap().push("sync".into());
            self.0.sync()
        }
    }

    #[test]
    fn a_covered_window_pays_one_cover_after_its_sync_and_before_any_verdict() {
        let log = Arc::new(Mutex::new(Vec::<String>::new()));
        let mut db = Db::create(
            Box::new(LoggedSync(MemStore::new(), Arc::clone(&log))),
            key(),
        )
        .unwrap();
        // Forget `create`'s own sync.
        log.lock().unwrap().clear();

        // Waiters that have reached `wait()`: the cover holds the window
        // open until all three have, so the two followers are at the
        // verdict's door while it runs.
        let waiting = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let cover: CommitCover = {
            let (log, waiting) = (Arc::clone(&log), Arc::clone(&waiting));
            Arc::new(move |n| {
                log.lock().unwrap().push(format!("cover({n})"));
                while waiting.load(std::sync::atomic::Ordering::SeqCst) < 3 {
                    std::thread::yield_now();
                }
                Ok(())
            })
        };
        // One window: two covered commits and one uncovered.
        let mut tickets = Vec::new();
        for (i, covered) in [true, false, true].into_iter().enumerate() {
            db.put(format!("k{i}").into_bytes(), b"v".as_slice());
            tickets.push(if covered {
                db.commit_stage_covered(&cover)
            } else {
                db.commit_stage()
            });
        }
        std::thread::scope(|scope| {
            for ticket in tickets {
                let (log, waiting) = (Arc::clone(&log), Arc::clone(&waiting));
                scope.spawn(move || {
                    waiting.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                    ticket.wait().unwrap();
                    log.lock().unwrap().push("ok".into());
                });
            }
        });
        assert_eq!(
            *log.lock().unwrap(),
            ["sync", "cover(2)", "ok", "ok", "ok"],
            "one cover, counting the covered commits only, between sync and verdict"
        );
        // A window with no covered commit never calls the cover.
        log.lock().unwrap().clear();
        db.put(b"plain".as_slice(), b"v".as_slice());
        db.commit().unwrap();
        assert_eq!(*log.lock().unwrap(), ["sync"]);
        assert_eq!(db.stats().wal_windows, 2);
    }

    #[test]
    fn a_failed_cover_fails_its_whole_window_and_the_next_recovers() {
        let inner = MemStore::new();
        let buffered = BufferedStore::new(inner.clone());
        let mut db = Db::create(Box::new(buffered.clone()), key()).unwrap();
        let calls = Arc::new(Mutex::new(0u32));
        let cover: CommitCover = {
            let calls = Arc::clone(&calls);
            Arc::new(move |_| {
                let mut calls = calls.lock().unwrap();
                *calls += 1;
                if *calls == 1 {
                    return Err(DbError::Storage("counter device glitch".into()));
                }
                Ok(())
            })
        };
        db.put(b"covered".as_slice(), b"1".as_slice());
        let covered = db.commit_stage_covered(&cover);
        db.put(b"rider".as_slice(), b"2".as_slice());
        let rider = db.commit_stage();
        let glitch = Err(DbError::Storage("counter device glitch".into()));
        assert_eq!(covered.wait(), glitch);
        assert_eq!(rider.wait(), glitch, "the cover's failure is the window's");
        // Un-acked, yet visible — and an unacknowledged window counts nowhere.
        assert_eq!(db.get(b"covered"), Some(b"1".as_slice()));
        assert_eq!(db.stats().commits, 0);
        assert_eq!(db.stats().wal_windows, 0);
        // The next window is covered and acknowledged as usual.
        db.put(b"next".as_slice(), b"3".as_slice());
        db.commit_stage_covered(&cover).wait().unwrap();
        assert_eq!(*calls.lock().unwrap(), 2);
        assert_eq!(db.stats().commits, 1);
        // The failed window had synced before its cover ran: it is in the
        // crash image like any other.
        drop(db);
        buffered.crash();
        let db2 = Db::open(Box::new(inner), key()).unwrap();
        for k in [b"covered".as_slice(), b"rider", b"next"] {
            assert!(db2.get(k).is_some(), "{} lost", String::from_utf8_lossy(k));
        }
    }

    #[test]
    fn snapshot_path_copies_stat_moves() {
        let (_, mut db) = fresh();
        for i in 0..1000u32 {
            db.put(format!("k{i:04}").into_bytes(), b"v".as_slice());
        }
        assert_eq!(db.stats().snapshot_path_copies, 0);
        let _view = db.view();
        db.put(b"k0500".as_slice(), b"w".as_slice());
        let copies = db.stats().snapshot_path_copies;
        assert!(copies >= 1, "a write under a view must path-copy");
        assert!(copies <= 8, "path copy must be path-sized, got {copies}");
    }
}
