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
//! * [`Db::commit_stage`] appends the handle's pending ops into the open
//!   *window* under the window mutex and returns a [`CommitTicket`] — cheap,
//!   done while the caller still holds whatever outer lock serializes table
//!   mutation (in PALÆMON, the engine's db write lock).
//!   [`Db::commit_stage_covered`] does the same and also counts the commit
//!   towards the window's [`CommitCover`];
//! * [`CommitTicket::wait`] — called **after** dropping that outer lock —
//!   makes the first waiter of a window that finds no leader at work its
//!   leader. Every other ticket parks on a condvar and wakes with the
//!   leader's verdict. [`WalShared::lead`] is the only function that takes a
//!   window, and it has three steps:
//!
//!   1. **Elect.** The leader marks itself; until its window's verdict is
//!      posted nobody else is elected — a leader still asleep in step 2 can
//!      only be relieved of the window it holds open, see "Who closes".
//!   2. **Linger.** The window stays *open* — stagers still land in it, its
//!      other tickets park as ever — while the writers the last verdict
//!      released come back. A closed-loop writer stages its next commit a
//!      moment after that verdict wakes it; a leader that shut the window
//!      in the same instant would leave the whole returning herd to sit out
//!      the sync it just started before their own could begin. The linger
//!      ends when all of the herd but one is back or at a bound that is a
//!      fraction of the store's last sync, whichever is first. See below
//!      for when it is skipped — which is most of the time.
//!   3. **Close.** **Seal** everything staged as one WAL batch, bump
//!      **meta**, perform the single `store.sync()`, then — if the window
//!      carried covered commits — call the **cover** once with their count,
//!      and only then post the **verdict**. No ticket of a window reads `Ok`
//!      before a cover issued *after that window's sync* has returned `Ok`;
//!      a failed sync or a failed cover fails every ticket of the window
//!      alike. Commits staged after the close land in the *next* window, so
//!      the sync (and the cover) amortize across every writer that arrives
//!      meanwhile.
//!
//! ### When a leader lingers
//! Everything the rule needs is measured by the windows themselves, under
//! the window mutex; nothing is configured.
//!
//! * **The herd** — the writers a verdict released: the tickets that were
//!   parked on its window when it was posted, plus the leader that posted
//!   it. A lone committer ([`Db::commit`], a replication follower's single
//!   sender thread redeeming the tickets it staged, [`Db::checkpoint`]'s
//!   drain) finds nobody parked, is no herd and **never** lingers: a solo
//!   commit still pays exactly one sync.
//! * **The return** — how many commits were staged after that verdict and
//!   no later than the bound. A lingering window closes the moment this
//!   reaches the herd **less one**; the timeout only bounds it. The last of
//!   N to come back is the slowest of N: waiting for it holds the other
//!   N − 1 for one commit more, and leaves every writer parked on the same
//!   window for the whole sync. It stages into the next window instead, is
//!   parked there when the verdict is posted and so elected on the spot.
//!   Measured on `perf_bench`'s `push_r1_dev` (eight workers, sixteen
//!   requests in flight, half of them mutations): waiting for all eight
//!   fills windows to 7.96 for 11.6 k ops/s, and then half of the reads —
//!   50.2 to 51.6 % — find a worker free, so that their *median* is 0.2 ms
//!   in one run and 1.1 ms in the next; waiting for seven fills windows to
//!   7.03 for 10.6 k ops/s (7.5 k with no linger), 44 % of the reads find a
//!   worker free and the median was 1.12–1.16 ms in 25 runs of 25.
//! * **Who closes** — the first thread to see, under the mutex, that the
//!   herd is back: as a rule the writer that brought it back, in its own
//!   [`CommitTicket::wait`] a moment after it staged. It is running; the
//!   lingering leader is asleep and would have to be scheduled first, and
//!   on a busy machine that takes long enough for the straggler to slip in
//!   every other window — the fill then follows the scheduler (7.5 measured)
//!   instead of the rule. The sleeping leader is signalled all the same (a
//!   ticket may be redeemed late, or never); if it finds its window closed
//!   over it, it parks on that verdict like the window's other tickets.
//! * **The bound** — [`LINGER_FRACTION`] of the time the store's last
//!   successful `sync` took, counted from the verdict (not from the
//!   election, so an arrival long after the last verdict never waits). On a
//!   store whose `sync` is free the bound has passed before any leader can
//!   be elected, so such a store never lingers by construction.
//! * **The evidence** — the returns are counted after *every* verdict,
//!   whether or not anyone lingered, and smoothed; a leader lingers only
//!   while at least five eighths of the recent herds were seen back inside
//!   the bound. Writers that go elsewhere after their verdict (a
//!   replication primary's wait for follower receipts) stop the lingering
//!   within a few windows and it costs them nothing thereafter. The count
//!   is passive — any commit staged inside the bound counts, whoever staged
//!   it — so the bar sits between what the two kinds of traffic were
//!   measured to score: eight closed-loop writers are above five eighths at
//!   96 % of their elections, a replication primary (whose only "returns"
//!   are bursts released by follower receipts that happen to land behind a
//!   verdict) at 2 %; at one half it was 99 % against 12 %.
//!
//! What an acknowledgement means is untouched: a window is one sealed blob
//! whether or not it lingered, and its verdict follows its own sync and
//! cover.
//!
//! ### Recovery and failure
//! Crash recovery lands on a committed-window boundary: a window's ops are
//! one sealed WAL blob written before the meta bump, so either the whole
//! window replays or none of it does — never a tear inside a window. A
//! window whose cover failed is durable and visible all the same; it is
//! merely never acknowledged. A leader that *unwinds* — the store or the
//! cover panicked under it — fails its window through a scope guard
//! (`Err("commit leader panicked")` to every ticket) and steps down, so the
//! next window elects a leader as if the sync had returned an error.
//!
//! ### Locks
//! Lock order inside this crate: `window` before `wal`. The leader lingers
//! holding only `window` (released while it sleeps), drops it before
//! sealing/syncing under the `wal` mutex, and runs the cover under
//! **neither**, so parked tickets never hold the store hostage and a cover
//! may take whatever locks its owner needs. The verdict is posted, and
//! every waiter's predicate re-checked, under the `window` mutex, so a
//! wakeup cannot be lost and the ticket waits carry no timeout; the linger
//! has its own condvar on the same mutex, so a stager wakes the one
//! lingering leader rather than every parked ticket. Closing a window —
//! taking what is staged and bumping the epoch — happens in one hold of the
//! `window` mutex inside [`WalShared::lead`], whoever runs it, so a window
//! is closed exactly once. Both mutexes are recovered when poisoned, see
//! [`WalShared::window`].

use std::collections::BTreeMap;
use std::error::Error as StdError;
use std::fmt;
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

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

/// A leader holds its window open for the returning herd no longer than the
/// store's last successful `sync` divided by this, counted from the verdict
/// that released the herd.
///
/// Derivation: traced on a device whose sync takes 1.08 ms under eight
/// closed-loop workers (`perf_bench`'s `push_r1_dev`, leaders closing at
/// once), 80 % of mutations entered their request inside a *foreign*
/// window's sync, a median 5 % and a 90th percentile 12 % of that sync after
/// it began (≈ 55 and 130 µs) — that is how late a released writer is back.
/// A quarter covers that tail with room for a descheduled thread and for
/// the timer's own overshoot, and caps the worst case — a herd that was
/// expected and did not come — at a quarter of a sync. Swept on that
/// workload, dividing by 3, 4, 5, 6, 8 and 12 gave 10.9, 11.4, 11.5, 11.0,
/// 10.5 and 8.5 k ops/s (7.4 k without lingering): flat from a quarter to a
/// fifth, falling off once the bound cuts into the arrival tail.
const LINGER_FRACTION: u32 = 4;

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
    /// WAL-encoded ops staged by committers since the last close.
    staged_buf: Vec<u8>,
    staged_count: u32,
    /// Commits (tickets) staged into the open window.
    staged_commits: u32,
    /// The cover the open window owes, and how many of its commits were
    /// staged covered (`None`: none were, the leader calls nothing).
    staged_cover: Option<(CommitCover, u32)>,
    /// Index of the open window. A leader closing the window bumps this, so
    /// late stagers land in the next window while the sync runs.
    epoch: u64,
    /// Windows `< flushed` have a durability verdict.
    flushed: u64,
    /// A leader is elected and has not posted its verdict: it lingers on the
    /// open window (`flushed == epoch`) or flushes the one it closed
    /// (`flushed + 1 == epoch`).
    leader_running: bool,
    /// Tickets parked on the open window, and on the closed window in
    /// flight. No older window has any: it has a verdict.
    parked_open: u32,
    parked_closed: u32,
    /// The herd: the writers the last verdict released — the tickets it
    /// found parked plus the leader that posted it; 0 when nobody was parked.
    herd: u32,
    /// Commits staged since that verdict and no later than `return_by`,
    /// counted up to `herd`.
    returned: u32,
    /// The last verdict's instant plus the linger bound (`None` before the
    /// first verdict).
    return_by: Option<Instant>,
    /// How long the store's last successful `sync` took.
    last_sync: Duration,
    /// Share of the recent herds seen back by their `return_by`, smoothed
    /// (each verdict folds one observation in at weight ¼), in 1/1024ths.
    /// Leaders linger from 640 (⅝) up.
    return_score: u32,
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
    /// Windows whose leader actually slept in the linger. Tests only: the
    /// fill it buys is already exported as `db_commits_per_window{size}`.
    #[cfg(test)]
    lingers: u64,
}

impl WindowState {
    /// The elected leader is asleep in its linger — seen from under the
    /// window mutex, which a leader between election and close gives up
    /// nowhere else.
    fn lingering(&self) -> bool {
        self.leader_running && self.flushed == self.epoch
    }

    /// How many of the herd a lingering window waits for: all but one. See
    /// the module docs, "When a leader lingers".
    fn close_at(&self) -> u32 {
        self.herd.saturating_sub(1)
    }

    /// A leader lingers on a window whose herd is back: the window is due to
    /// close, and the first thread to see that under the mutex closes it.
    fn herd_is_back(&self) -> bool {
        self.lingering() && self.returned >= self.close_at()
    }

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
    /// Parked tickets (and `checkpoint`'s drain) wait here for a verdict.
    window_cv: Condvar,
    /// The one lingering leader waits here for the herd's last stager.
    linger_cv: Condvar,
    wal: Mutex<WalCore>,
    /// The shorter of the store's last two successful `sync`s, in
    /// nanoseconds: [`CommitTicket::expected_wait`], read without the mutex.
    settled_sync_ns: AtomicU64,
    /// Committer park times, for `group_commit_wait_p99`.
    wait_hist: palaemon_telemetry::Histogram,
}

/// Fails window `epoch` if its leader unwinds between closing it and posting
/// its verdict (the store or the cover panicked): neither mutex is held
/// there, so nothing else would ever clear `leader_running` or wake the
/// parked tickets, of this window or of any later one.
struct FailOnUnwind<'a> {
    shared: &'a WalShared,
    epoch: u64,
}

impl Drop for FailOnUnwind<'_> {
    fn drop(&mut self) {
        let verdict = Err(DbError::Storage("commit leader panicked".into()));
        self.shared.post(self.epoch, 0, &verdict);
    }
}

impl WalShared {
    fn new(store: Box<dyn BlockStore>, key: AeadKey, meta: Meta) -> Arc<Self> {
        Arc::new(WalShared {
            window: Mutex::new(WindowState::default()),
            window_cv: Condvar::new(),
            linger_cv: Condvar::new(),
            wal: Mutex::new(WalCore { store, key, meta }),
            settled_sync_ns: AtomicU64::new(0),
            wait_hist: palaemon_telemetry::Histogram::new(),
        })
    }

    /// The window mutex. Lock-poison policy of this crate, stated once for
    /// this and [`WalShared::wal`]: a poisoned lock is **recovered**, not
    /// propagated. Every critical section leaves its state valid at each
    /// step — `window` sections are plain field updates; a `wal` section
    /// that unwinds out of the store leaves at worst a WAL blob beyond
    /// `next_seq` (invisible, like a torn write) or an in-memory `meta` one
    /// ahead of the stored one over a blob that was written (the next flush
    /// stores it, exactly as after a failed `sync`) — and the window that
    /// was in flight is failed by [`FailOnUnwind`]. Propagating would turn
    /// one panicking store call into a panic in every later committer.
    fn window(&self) -> MutexGuard<'_, WindowState> {
        self.window.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The flush mutex; poison is recovered, see [`WalShared::window`].
    fn wal(&self) -> MutexGuard<'_, WalCore> {
        self.wal.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Parks on `window_cv` until the next verdict is posted.
    fn park<'a>(&self, st: MutexGuard<'a, WindowState>) -> MutexGuard<'a, WindowState> {
        self.window_cv
            .wait(st)
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Leads the open window (caller observed no leader, or one lingering
    /// on a herd that [is back](WindowState::herd_is_back)): elect, linger,
    /// close — see the module docs. Seals and flushes everything staged by
    /// the close, covers its covered commits, posts the verdict and wakes
    /// the parked tickets. Breaks with that verdict — or continues, lock in
    /// hand, when another thread closed the window over this one's linger:
    /// the caller is then one more waiter on that thread's verdict.
    fn lead<'a>(
        &self,
        mut st: MutexGuard<'a, WindowState>,
    ) -> ControlFlow<Result<(), DbError>, MutexGuard<'a, WindowState>> {
        debug_assert!(!st.leader_running || st.herd_is_back());
        st.leader_running = true;
        let open = st.epoch;
        st = self.linger(st);
        if st.epoch != open {
            return ControlFlow::Continue(st);
        }

        let buf = std::mem::take(&mut st.staged_buf);
        let count = std::mem::replace(&mut st.staged_count, 0);
        let commits = std::mem::replace(&mut st.staged_commits, 0);
        let cover = st.staged_cover.take();
        let epoch = st.epoch;
        st.epoch += 1;
        st.parked_closed = std::mem::take(&mut st.parked_open);
        drop(st);

        // Persist first, then cover, then acknowledge (Fig. 6): the cover is
        // issued only after this window's sync, under neither mutex.
        let unwind = FailOnUnwind {
            shared: self,
            epoch,
        };
        let result = self.flush(&buf, count).and_then(|synced| {
            if let Some((cover, covered)) = cover {
                cover(covered)?;
            }
            Ok(synced)
        });
        std::mem::forget(unwind);
        self.post(epoch, commits, &result);
        ControlFlow::Break(result.map(drop))
    }

    /// The linger step of [`WalShared::lead`]: sleeps, window open, until
    /// the herd the last verdict released is back, `return_by` passes, or
    /// another thread has closed the window meanwhile. Returns at once —
    /// the common case — when that verdict released nobody, when recent
    /// herds were not seen to come back in time, or when the bound has
    /// already passed.
    fn linger<'a>(&self, mut st: MutexGuard<'a, WindowState>) -> MutexGuard<'a, WindowState> {
        let Some(return_by) = st.return_by else {
            return st;
        };
        if st.return_score < 640 {
            return st;
        }
        #[cfg(test)]
        let mut slept = false;
        let open = st.epoch;
        while st.epoch == open && st.returned < st.close_at() {
            let left = return_by.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break;
            }
            #[cfg(test)]
            if !std::mem::replace(&mut slept, true) {
                st.lingers += 1;
            }
            st = self
                .linger_cv
                .wait_timeout(st, left)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
        st
    }

    /// Posts window `epoch`'s verdict and wakes everyone parked: the leader
    /// steps down, the window's tickets read `result`, the next window's
    /// elect a leader. `result` carries how long the window's `sync` took.
    fn post(&self, epoch: u64, commits: u32, result: &Result<Duration, DbError>) {
        let mut st = self.window();
        st.leader_running = false;
        st.flushed = epoch + 1;
        match result {
            Ok(synced) => {
                st.commits += u64::from(commits);
                st.wal_windows += 1;
                *st.per_window.entry(commits).or_insert(0) += 1;
                let settled = st.last_sync.min(*synced);
                self.settled_sync_ns
                    .store(settled.as_nanos() as u64, Ordering::Relaxed);
                st.last_sync = *synced;
            }
            Err(err) => st.note_failure(epoch, err.clone()),
        }
        // Fold in what the previous verdict's herd was seen to do (its
        // bound, a fraction of one sync, passed during this window's sync),
        // then start watching the herd this verdict releases.
        if let Some(share) = (1024 * st.returned).checked_div(st.herd) {
            st.return_score = (3 * st.return_score + share) / 4;
        }
        // The leader was not parked, but with company it is one more writer
        // on its way back; alone it is a lone committer, and no herd.
        st.herd = match std::mem::take(&mut st.parked_closed) {
            0 => 0,
            parked => parked + 1,
        };
        st.returned = 0;
        st.return_by = Some(Instant::now() + st.last_sync / LINGER_FRACTION);
        drop(st);
        self.window_cv.notify_all();
    }

    /// Seals `count` staged ops as the next WAL batch, bumps meta and syncs
    /// — the one expensive step per window. Returns how long the `sync`
    /// took: the device wait a window amortizes, which bounds the linger.
    fn flush(&self, buf: &[u8], count: u32) -> Result<Duration, DbError> {
        let mut wal = self.wal();
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
        let begun = Instant::now();
        wal.store
            .sync()
            .map_err(|e| DbError::Storage(e.to_string()))?;
        Ok(begun.elapsed())
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
    /// How long [`CommitTicket::wait`] is likely to sleep: the time a
    /// `sync` of the store takes — what the window's leader is about to
    /// spend, and every other ticket to sit out. Measured, not configured:
    /// the shorter of the store's last two successful syncs, because a
    /// single reading on a busy machine now and then includes a preemption
    /// of the thread that took it (9 in 90 000 `MemStore` syncs read over
    /// 100 µs on `perf_bench`'s `push_r1_cpu`) and two in a row do not.
    /// Zero for a no-op ticket and before the second window. A caller that
    /// can lend its thread's place to other work while it sleeps (PALÆMON's
    /// front door) decides by this whether that is worth the hand-over.
    pub fn expected_wait(&self) -> Duration {
        self.inner.as_ref().map_or(Duration::ZERO, |(shared, _)| {
            Duration::from_nanos(shared.settled_sync_ns.load(Ordering::Relaxed))
        })
    }

    /// Blocks until the staged window is durable (or failed) and returns
    /// the verdict. The first waiter of a window to find no leader at work
    /// leads it ([`WalShared::lead`]: it may hold the window open briefly
    /// for a returning herd, then performs the single seal + sync + cover
    /// for everything staged); the rest park on the window condvar — but
    /// for one that finds the leader still asleep over a herd that is back:
    /// it closes the window in the sleeper's stead.
    ///
    /// # Errors
    /// Propagates the leader's storage or cover failure to every commit in
    /// the window.
    pub fn wait(self) -> Result<(), DbError> {
        let Some((shared, epoch)) = self.inner else {
            return Ok(());
        };
        let start = Instant::now();
        let mut st = shared.window();
        let mut parked = false;
        loop {
            if st.flushed > epoch {
                let verdict = st.verdict(epoch);
                drop(st);
                shared.wait_hist.record(start.elapsed().as_nanos() as u64);
                return verdict;
            }
            if st.epoch == epoch && (!st.leader_running || st.herd_is_back()) {
                // A ticket that parked before it was elected is no longer
                // among the parked its verdict will find.
                st.parked_open -= u32::from(std::mem::take(&mut parked));
                match shared.lead(st) {
                    ControlFlow::Break(result) => {
                        shared.wait_hist.record(start.elapsed().as_nanos() as u64);
                        return result;
                    }
                    // Its window was closed over its linger: it parks on
                    // that leader's verdict like any other ticket.
                    ControlFlow::Continue(guard) => {
                        st = guard;
                        continue;
                    }
                }
            }
            // Park until a leader posts a verdict (posted, like this
            // predicate is checked, under the window mutex), counted once
            // among those its window's verdict will release.
            if !parked {
                parked = true;
                if st.epoch == epoch {
                    st.parked_open += 1;
                } else {
                    st.parked_closed += 1;
                }
            }
            st = shared.park(st);
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
            let wal = db.shared.wal();
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
        let mut st = self.shared.window();
        st.staged_buf.append(&mut self.pending_buf);
        st.staged_count += self.pending_count;
        st.staged_commits += 1;
        if let Some(cover) = cover {
            st.staged_cover
                .get_or_insert_with(|| (Arc::clone(cover), 0))
                .1 += 1;
        }
        // A commit staged this soon after the last verdict counts as one of
        // the writers it released coming back: the evidence a later leader
        // lingers on, and — when it brings the herd back — the end of the
        // lingering one's wait. This commit's own `wait` closes the window
        // if it gets there first; the signal covers a ticket that is
        // redeemed late or never.
        let mut herd_is_back = false;
        if st.returned < st.herd && st.return_by.is_some_and(|by| Instant::now() <= by) {
            st.returned += 1;
            herd_is_back = st.lingering() && st.returned == st.close_at();
        }
        let epoch = st.epoch;
        drop(st);
        if herd_is_back {
            self.shared.linger_cv.notify_one();
        }
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
        // ticket's leader may be lingering or mid-flush, and dropped tickets
        // may have left staged ops behind. Flush until the window is empty
        // and idle.
        loop {
            let st = self.shared.window();
            if st.leader_running {
                drop(self.shared.park(st));
                continue;
            }
            if st.staged_count == 0 {
                break;
            }
            if let ControlFlow::Break(verdict) = self.shared.lead(st) {
                verdict?;
            }
        }

        let mut wal = self.shared.wal();
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
        self.shared.window().checkpoints += 1;
        Ok(())
    }

    /// Runtime statistics.
    pub fn stats(&self) -> DbStats {
        let (commits, checkpoints, wal_windows, per_window) = {
            let st = self.shared.window();
            (
                st.commits,
                st.checkpoints,
                st.wal_windows,
                st.per_window.iter().map(|(&s, &c)| (s, c)).collect(),
            )
        };
        let wal_batches = {
            let wal = self.shared.wal();
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

    /// A modelled device: `sync` takes the given wall time, long enough that
    /// concurrent committers pile into the next window while a leader
    /// flushes — and long enough to bound a linger.
    struct SlowSync<S>(S, Duration);

    impl<S: BlockStore> BlockStore for SlowSync<S> {
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
            std::thread::sleep(self.1);
            self.0.sync()
        }
    }

    #[test]
    fn concurrent_commits_coalesce_into_windows() {
        const WRITERS: usize = 8;
        const PER_WRITER: usize = 20;
        let (inner, db) = slow_db(Duration::from_micros(500));
        closed_loop(&db, "w", WRITERS, PER_WRITER, |_| {});
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

    /// A `Db` on a [`SlowSync`] device, behind the mutex that stands in for
    /// the engine's write lock.
    fn slow_db(sync: Duration) -> (MemStore, Arc<Mutex<Db>>) {
        let inner = MemStore::new();
        let db = Db::create(Box::new(SlowSync(inner.clone(), sync)), key()).unwrap();
        (inner, Arc::new(Mutex::new(db)))
    }

    /// `writers` closed-loop threads: each stages a one-key commit under the
    /// lock, redeems it outside, runs `detour(writer)` and goes again —
    /// `per_writer` times.
    fn closed_loop(
        db: &Mutex<Db>,
        tag: &str,
        writers: usize,
        per_writer: usize,
        detour: impl Fn(usize) + Sync,
    ) {
        std::thread::scope(|scope| {
            for w in 0..writers {
                let detour = &detour;
                scope.spawn(move || {
                    for i in 0..per_writer {
                        let ticket = {
                            let mut db = db.lock().unwrap();
                            db.put(format!("{tag}/w{w}/k{i}").into_bytes(), vec![w as u8]);
                            db.commit_stage()
                        };
                        ticket.wait().unwrap();
                        detour(w);
                    }
                });
            }
        });
    }

    fn lingers(db: &Mutex<Db>) -> u64 {
        db.lock().unwrap().shared.window().lingers
    }

    /// Makes the next leader linger: a herd of `herd` was released just
    /// now, herds have been coming back, and they have until `bound` from
    /// now. (The state a closed loop reaches by itself within a few windows;
    /// set directly so a test can act *during* the linger it causes.)
    fn expect_a_herd(db: &Db, herd: u32, bound: Duration) {
        let mut st = db.shared.window();
        st.herd = herd;
        st.returned = 0;
        st.return_score = 1024;
        st.return_by = Some(Instant::now() + bound);
    }

    /// Spins (no sleep: the linger under test is what takes time) until a
    /// leader is asleep in its linger.
    fn until_a_leader_lingers(db: &Db) {
        while !db.shared.window().lingering() {
            std::thread::yield_now();
        }
    }

    #[test]
    fn a_released_herd_joins_the_next_window() {
        // Eight closed-loop writers: every verdict releases its window's,
        // and they are back a moment later. A leader that closed the next
        // window at once would split them into two alternating cohorts of
        // four, each sitting out the other's sync; one that waits for all
        // but the last of them keeps seven to a window, and the eighth
        // parked on the next.
        let (inner, db) = slow_db(Duration::from_millis(2));
        closed_loop(&db, "a", 8, 30, |_| {});
        let s = db.lock().unwrap().stats();
        assert_eq!(s.commits, 240);
        let full: u64 = s
            .commits_per_window
            .iter()
            .filter(|&&(size, _)| size >= 7)
            .map(|&(size, count)| u64::from(size) * count)
            .sum();
        assert!(
            full * 3 >= s.commits * 2,
            "past the first windows a window holds the herd: {:?}",
            s.commits_per_window
        );
        assert!(
            s.wal_windows <= 46,
            "240 commits in {} windows",
            s.wal_windows
        );
        assert!(lingers(&db) > 0);
        drop(db);
        assert_eq!(Db::open(Box::new(inner), key()).unwrap().len(), 240);
    }

    #[test]
    fn a_lone_committer_never_lingers() {
        let (_, db) = slow_db(Duration::from_micros(500));
        let mut db = Arc::try_unwrap(db).ok().unwrap().into_inner().unwrap();
        // Db::commit: stage + wait, nobody else parked.
        for i in 0..50u32 {
            db.put(format!("solo/{i}").into_bytes(), b"v".as_slice());
            db.commit().unwrap();
        }
        // A replication follower's sender: one thread stages a shipped
        // batch's K commits, then redeems the K tickets — one window.
        for round in 0..10u32 {
            let tickets: Vec<_> = (0..4u32)
                .map(|i| {
                    db.put(format!("batch/{round}/{i}").into_bytes(), b"v".as_slice());
                    db.commit_stage()
                })
                .collect();
            for ticket in tickets {
                ticket.wait().unwrap();
            }
        }
        let s = db.stats();
        assert_eq!(s.commits_per_window, vec![(1, 50), (4, 10)]);
        assert_eq!(db.shared.window().lingers, 0);
        assert_eq!(db.shared.window().herd, 0, "nobody was ever parked");
    }

    #[test]
    fn an_arrival_long_after_the_last_verdict_never_lingers() {
        // Leaders have learned to linger and the last verdict released a
        // herd — but its bound has run out: an open-loop arrival, one that
        // verdict did not trigger, must not pay for what a closed loop taught.
        let (_, db) = slow_db(Duration::from_micros(500));
        let mut db = Arc::try_unwrap(db).ok().unwrap().into_inner().unwrap();
        expect_a_herd(&db, 8, Duration::ZERO);
        db.put(b"late".as_slice(), b"v".as_slice());
        db.commit().unwrap();
        assert_eq!(db.shared.window().lingers, 0);
    }

    #[test]
    fn a_store_whose_sync_is_free_never_lingers() {
        // Parked tickets and returning herds aplenty, but a quarter of a
        // MemStore sync has passed before any leader can be elected.
        let store = MemStore::new();
        let db = Mutex::new(Db::create(Box::new(store), key()).unwrap());
        closed_loop(&db, "mem", 8, 200, |_| {});
        assert_eq!(db.lock().unwrap().stats().commits, 1600);
        assert_eq!(lingers(&db), 0);
    }

    #[test]
    fn a_herd_that_does_not_come_back_stops_the_lingering() {
        let sync = Duration::from_millis(2);
        let (_, db) = slow_db(sync);
        // Phase 1: the herd returns at once, so leaders learn to linger.
        closed_loop(&db, "home", 4, 15, |_| {});
        let learned = lingers(&db);
        assert!(learned > 0, "a closed loop must have lingered");
        // Phase 2, the replication primary's shape: after each verdict a
        // writer waits out a receipt from elsewhere — a commit on a device
        // of its own, one and a half syncs long, so it is back half a sync
        // after some verdict: later than the bound, before the next one.
        let elsewhere: Vec<_> = (0..4).map(|_| slow_db(sync * 3 / 2).1).collect();
        let before = db.lock().unwrap().stats().wal_windows;
        closed_loop(&db, "away", 4, 60, |w| {
            let mut other = elsewhere[w].lock().unwrap();
            other.put(b"receipt".as_slice(), b"v".as_slice());
            other.commit().unwrap();
        });
        let windows = db.lock().unwrap().stats().wal_windows - before;
        assert!(windows >= 100, "{windows} windows");
        let wasted = lingers(&db) - learned;
        assert!(
            wasted < 10,
            "{wasted} lingers over {windows} windows for a herd that never came"
        );
    }

    #[test]
    fn a_ticket_dropped_during_a_linger_lands_in_that_window() {
        let (inner, db) = slow_db(Duration::from_micros(500));
        let mut db = Arc::try_unwrap(db).ok().unwrap().into_inner().unwrap();
        expect_a_herd(&db, 4, Duration::from_secs(30));
        db.put(b"leader".as_slice(), b"1".as_slice());
        let ticket = db.commit_stage();
        std::thread::scope(|scope| {
            let leader = scope.spawn(move || ticket.wait());
            until_a_leader_lingers(&db);
            // Staged while the leader holds the window open, never
            // redeemed: the orphan rides the window all the same, and the
            // second one is the third of a herd of four, which ends the
            // linger.
            for orphan in [b"orphan-1".as_slice(), b"orphan-2"] {
                db.put(orphan, b"2".as_slice());
                drop(db.commit_stage());
            }
            leader.join().unwrap().unwrap();
        });
        let s = db.stats();
        assert_eq!(s.commits_per_window, vec![(3, 1)], "one window, all three");
        assert_eq!(db.shared.window().lingers, 1);
        drop(db);
        let db2 = Db::open(Box::new(inner), key()).unwrap();
        assert_eq!(db2.len(), 3);
    }

    #[test]
    fn the_last_of_the_herd_is_not_waited_for() {
        // A herd of three is expected and has half a minute: the window
        // closes when the second is back, whoever gets to close it — the
        // writer that brought it back, in its own `wait`, or the lingering
        // leader it signalled — and both read that one window's verdict.
        let (_, db) = slow_db(Duration::from_micros(500));
        let mut db = Arc::try_unwrap(db).ok().unwrap().into_inner().unwrap();
        expect_a_herd(&db, 3, Duration::from_secs(30));
        db.put(b"first".as_slice(), b"1".as_slice());
        let ticket = db.commit_stage();
        std::thread::scope(|scope| {
            let leader = scope.spawn(move || ticket.wait());
            until_a_leader_lingers(&db);
            db.put(b"second".as_slice(), b"2".as_slice());
            db.commit().unwrap();
            leader.join().unwrap().unwrap();
        });
        assert_eq!(db.stats().commits_per_window, vec![(2, 1)]);
        assert_eq!(db.shared.window().lingers, 1);
        assert!(!db.shared.window().leader_running);
    }

    #[test]
    fn a_checkpoint_waits_out_a_lingering_leader() {
        let log = Arc::new(Mutex::new(Vec::<String>::new()));
        let inner = MemStore::new();
        let mut db =
            Db::create(Box::new(LoggedSync(inner.clone(), Arc::clone(&log))), key()).unwrap();
        // With something of its own to commit, the checkpoint joins the
        // lingering window (and here is the second of a herd of three: it
        // closes the window over the sleeping leader) …
        for (pending, bound) in [(true, Duration::from_secs(30)), (false, Duration::ZERO)] {
            // … with nothing, it parks until the linger runs out by itself:
            // `&mut self` keeps every other stager away, so only the bound
            // ends it.
            let bound = bound.max(Duration::from_millis(20));
            expect_a_herd(&db, 3, bound);
            db.put(format!("lingering/{pending}").into_bytes(), b"1".as_slice());
            let ticket = db.commit_stage();
            log.lock().unwrap().clear();
            std::thread::scope(|scope| {
                let leader = scope.spawn(move || ticket.wait());
                until_a_leader_lingers(&db);
                if pending {
                    db.put(b"own".as_slice(), b"2".as_slice());
                }
                db.checkpoint().unwrap();
                leader.join().unwrap().unwrap();
            });
            // The lingering window was flushed — one sync — before the
            // snapshot's two, and nothing of it is left in the WAL: the
            // snapshot did not run past an unflushed window.
            assert_eq!(*log.lock().unwrap(), ["sync", "sync", "sync"]);
            assert_eq!(db.stats().wal_batches, 0);
        }
        assert_eq!(db.stats().commits_per_window, vec![(1, 1), (2, 1)]);
        drop(db);
        let db2 = Db::open(Box::new(inner), key()).unwrap();
        assert_eq!(db2.len(), 3);
    }

    #[test]
    fn multi_writer_crash_sweep_on_a_slow_device_recovers_on_window_boundaries() {
        // The sweep above stages both commits of a window from one thread,
        // so no window of it ever lingers. Here four closed-loop writers on
        // a slow device do, and the fuse burns at every op of that schedule.
        const WRITERS: usize = 4;
        const PER_WRITER: usize = 8;
        let mut lingered = 0;
        for fuse in 1..40 {
            let inner = MemStore::new();
            let buffered = BufferedStore::new(inner.clone());
            let db = Mutex::new(
                Db::create(
                    Box::new(SlowSync(buffered.clone(), Duration::from_millis(1))),
                    key(),
                )
                .unwrap(),
            );
            buffered.fail_after(fuse);
            let acked: Vec<Vec<bool>> = std::thread::scope(|scope| {
                let writers: Vec<_> = (0..WRITERS)
                    .map(|w| {
                        let db = &db;
                        scope.spawn(move || {
                            (0..PER_WRITER)
                                .map(|i| {
                                    let ticket = {
                                        let mut db = db.lock().unwrap();
                                        for half in ["a", "b"] {
                                            db.put(
                                                format!("w{w}/c{i}/{half}").into_bytes(),
                                                b"v".as_slice(),
                                            );
                                        }
                                        db.commit_stage()
                                    };
                                    ticket.wait().is_ok()
                                })
                                .collect()
                        })
                    })
                    .collect();
                writers.into_iter().map(|w| w.join().unwrap()).collect()
            });
            lingered += lingers(&db);
            drop(db);
            buffered.crash();
            let db2 = Db::open(Box::new(inner), key())
                .unwrap_or_else(|e| panic!("crash recovery must not corrupt (fuse={fuse}): {e}"));
            for (w, acked) in acked.iter().enumerate() {
                let present: Vec<bool> = (0..PER_WRITER)
                    .map(|i| {
                        let a = db2.get(format!("w{w}/c{i}/a").as_bytes()).is_some();
                        let b = db2.get(format!("w{w}/c{i}/b").as_bytes()).is_some();
                        assert_eq!(a, b, "torn commit: w{w}/c{i}, fuse {fuse}");
                        a
                    })
                    .collect();
                for i in 0..PER_WRITER {
                    assert!(
                        present[i] || !acked[i],
                        "acked commit lost: w{w}/c{i}, fuse {fuse}"
                    );
                }
                // A writer's commits sit in successive windows and recovery
                // keeps a prefix of the windows: so a prefix of its commits.
                assert!(
                    present.windows(2).all(|pair| pair[0] || !pair[1]),
                    "recovery skipped a window: w{w} {present:?}, fuse {fuse}"
                );
            }
        }
        assert!(
            lingered > 0,
            "the sweep must have crossed lingering windows"
        );
    }

    /// A store whose `sync` panics once, when armed.
    struct PanickingSync(MemStore, Arc<std::sync::atomic::AtomicBool>);

    impl BlockStore for PanickingSync {
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
            if self.1.swap(false, std::sync::atomic::Ordering::SeqCst) {
                panic!("device driver bug");
            }
            self.0.sync()
        }
    }

    #[test]
    fn a_leader_that_panics_fails_its_window_and_wedges_nobody() {
        let inner = MemStore::new();
        let armed = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let mut db = Db::create(
            Box::new(PanickingSync(inner.clone(), Arc::clone(&armed))),
            key(),
        )
        .unwrap();
        armed.store(true, std::sync::atomic::Ordering::SeqCst);
        // Three writers in one window; whichever leads, its sync panics.
        let (verdicts, results) = std::sync::mpsc::channel();
        let tickets: Vec<_> = (0..3u32)
            .map(|w| {
                db.put(format!("w{w}").into_bytes(), b"v".as_slice());
                db.commit_stage()
            })
            .collect();
        let writers: Vec<_> = tickets
            .into_iter()
            .map(|ticket| {
                let verdicts = verdicts.clone();
                std::thread::spawn(move || verdicts.send(ticket.wait()).unwrap())
            })
            .collect();
        // Neither mutex was held across the sync, so nothing is poisoned and
        // without the leader's scope guard the other two would park forever.
        for _ in 0..2 {
            assert_eq!(
                results.recv_timeout(Duration::from_secs(10)),
                Ok(Err(DbError::Storage("commit leader panicked".into()))),
                "a parked ticket of the panicked window"
            );
        }
        let panicked = writers
            .into_iter()
            .map(|w| w.join())
            .filter(Result::is_err)
            .count();
        assert_eq!(panicked, 1, "the leader, and only it, unwound");
        assert_eq!(db.stats().wal_windows, 0);
        // The next window elects a leader and commits as usual — on the
        // flush mutex the panic poisoned.
        db.put(b"next".as_slice(), b"v".as_slice());
        db.commit().unwrap();
        assert_eq!(db.stats().commits_per_window, vec![(1, 1)]);
        drop(db);
        let db2 = Db::open(Box::new(inner), key()).unwrap();
        assert_eq!(db2.get(b"next"), Some(b"v".as_slice()));
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
