//! The cluster front door: consistent-hash routing over N PALÆMON shards,
//! each a **replica group** that fails over instead of going dark.
//!
//! A [`ClusterRouter`] owns a set of shards — each a replica group of 1..R
//! [`TmsServer`]s over independent `Palaemon` engines, each with its own
//! (optional) [`BatchedCounter`] rollback coupling — and dispatches the
//! existing [`TmsRequest`] protocol:
//!
//! * **policy-keyed** requests ([`TmsRequest::policy_key`]) route through
//!   the [`HashRing`];
//! * **session-keyed** requests ([`TmsRequest::session_key`]) are pinned to
//!   the *group* that attested the session — the router hands out its own
//!   cluster-level session ids (shard-local ids from different engines
//!   collide) and translates on every dispatch;
//! * aggregates (`PolicyCount`, `SessionCount`) fan out and sum.
//!
//! ## Replication protocol (incremental deltas + write quorum)
//! Every mutation is applied by the group's **primary** replica. Once the
//! primary has applied it — commit staged in its WAL window, redeemed (and
//! covered by its Fig. 6 counter) while the forward is already under way —
//! the router, still inside the client's call, forwards a
//! *counter-attested delta*
//! ([`PolicyDelta`](palaemon_core::tms::PolicyDelta)) to every in-quorum
//! follower. The delta carries only **what the mutation changed** (the
//! engine's captured write batch: puts + tombstones — e.g. just the tag row
//! for a tag push), digest-bound to the policy name and *chained to the
//! predecessor delta's counter token*: a follower applies an incremental
//! only when its own per-policy cursor equals the delta's `parent`, so a
//! lost or reordered forward surfaces as an out-of-sequence rejection and
//! is healed by an on-the-spot **snapshot resync** (the full-record form,
//! which resets the chain) — never silent divergence. Replication cost
//! therefore tracks the mutation, not the policy size; snapshots are the
//! resync, catch-up and migration form only. The call acknowledges as soon
//! as `write_quorum` replicas (primary included) hold the write durably —
//! **at the quorum, not at the slowest follower**: a replica that cannot
//! forge can still stall, and one stalled replica must not park the
//! group's writers. If the quorum cannot form it fails with [`ClusterError::QuorumLost`] and
//! the write may legitimately be lost by a later failover. A follower that
//! misses or fails a forward is demoted from the quorum until it catches
//! up. Attested sessions are mirrored (create and close), so a session
//! survives the loss of the replica that attested it. Delta *extraction*
//! is serialized per group (`forward_lock`), so in-quorum followers apply
//! the same delta sequence the primary produced.
//!
//! ## Pipelined forwards
//! Forwards ride a **per-follower background channel**: the primary
//! enqueues each delta under the forward lock — the critical section is
//! seat-check + capture-drain + enqueue, microseconds instead of R−1 wire
//! round-trips — and a dedicated sender thread per follower delivers it.
//!
//! **One ack rule** (Fig. 6: *state durable, counter covered, then ack*).
//! The mutation is *staged* on the primary ([`TmsServer::stage`]), its
//! delta enqueued on every in-quorum follower's channel with one shared
//! **receipt tally**, and only then is the local commit ticket redeemed —
//! one wait: its WAL window's leader syncs and, on a strict shard, covers
//! the window with one counter increment before the verdict. The writer
//! then parks **once**, on the tally, until `write_quorum − 1` followers
//! have reported the delta durable — or every forward it queued has
//! resolved, which is the moment a missed quorum is certain — **and gives
//! its seat back** while it does: both sleeps are declared waits
//! (`palaemon_core::frontdoor::parked`, this one expected to last as long
//! as the group's last one did), so a front-door worker asleep on a device
//! or a wire lets another request run in its place. `Ok`
//! therefore means: durable in the primary's crash image, covered by its
//! counter, *and* durable on `write_quorum − 1` followers. The followers
//! outside that quorum finish **behind the ack** and book their verdicts
//! into a tally nobody waits on; at `write_quorum = R` every follower is
//! needed and is waited for, at `write_quorum = 1` the local verdict is
//! the ack. Followers apply forwarded deltas uncovered: their counters
//! move only once they take the seat.
//!
//! Three things keep "acked" meaning what it did when every follower was
//! awaited. *Reads:* the group's freshness watermark moves at **enqueue**,
//! so a follower that has not yet applied an acked delta is below the
//! watermark and is never quorum-read. *Failover:* every seat change
//! fences first (below), delivering every queued delta — a straggler's
//! included — before the election, and only in-quorum, chain-complete
//! replicas stand. *Backlog:* since no writer paces a follower outside
//! the quorum, its channel is bounded instead: an enqueue that finds
//! `PIPE_BACKLOG_CAP` deltas undelivered **demotes** the follower with
//! that cause — a slow follower is a faulty follower — which stops
//! further enqueues and keeps it out of elections and quorum reads; what
//! is queued still lands, and the monitor's sweep or a reinstate fences,
//! converges the rest and re-admits it.
//!
//! Of the four waits involved — the primary's WAL
//! sync, the sender finishing its previous cycle, the wire, the follower's
//! sync — only wire → follower sync depend on each other, so the rest
//! overlap: the primary redeems **behind** the forward, and wire transit
//! is an **arrival deadline on the delta**, not a sleep in the sender (send
//! time + the forward latency, stamped at enqueue under the forward lock,
//! so deadlines are queue-ordered). The sender waits for its head to
//! arrive holding only the queue condvar, then pops the arrived *prefix* —
//! never reordered — as one window: it **stages** each delta on the
//! follower in queue order (digest check, chain check, tree apply, cursor
//! advance, into the follower's group-commit window) and only afterwards
//! **redeems** the commit tickets — the first leads one `sync` for the
//! whole window, the rest read its verdict. Window N+1 travels while
//! window N syncs, and no delta is staged before its transit has elapsed.
//! A follower's applied token advances and its receipt is booked only
//! behind that verdict; a failed verdict demotes the follower and fails
//! every delta of the window. Deltas stay one per mutation, so an
//! omission fault surfaces per delta: a gap (e.g. a dropped window) is an
//! out-of-sequence rejection at the next delivery, healed in place by a
//! snapshot resync staged into the same window.
//!
//! **Fencing.** Every seat change drains all channels under the forward
//! lock before the election — waiting out only the residual transit of the
//! newest queued delta, and delivering through a wedged channel too — so
//! every acked write, whichever follower vouched for it, is on the whole
//! live electorate, a writer still parked on a follower it needs is
//! released, and a deposed primary's queued deltas can never clobber its
//! successor. An operator can force the same drain with
//! [`ClusterRouter::flush_replication`] — which is also what "once
//! everything has landed" means to a test or a tool: an `Ok` no longer
//! implies empty channels.
//!
//! ## Read placement ([`ReadPreference`])
//! Under the default [`ReadPreference::Primary`] every read is served by
//! the primary. [`ReadPreference::Quorum`] fans `ReadPolicy`/`ReadTag`
//! reads round-robin across the whole group: a follower serves only while
//! it is in the write quorum **and** its applied counter token has reached
//! the group's freshness watermark (the token of the last forwarded
//! mutation), so a lagging or rolled-back follower is never read — those
//! reads, and anything a follower cannot answer (board-approval nonces,
//! every mutation), fall back to the primary. `Attest` is fanned out the
//! same way: the session-id space is partitioned into per-replica residue
//! classes (`partition_session_ids`), so any fresh in-quorum replica can
//! seat `AttestService` and mirror the session it created to the rest of
//! the group. Read *and* attestation throughput per arc then scale with R
//! instead of being pinned to the primary.
//!
//! ## Failover (freshness by counter value)
//! When a primary is quarantined — by the health monitor or an operator —
//! the group elects the **freshest in-quorum follower**: the one with the
//! highest applied counter token, ties to the lowest index. Freshness is
//! decided by the Fig. 6 counter value, so a replica whose state was rolled
//! back (its token regressed) can never win the election while a fresher
//! replica survives. Reads retry on the new primary if a failover races
//! them, so a quarantine loses **zero quorum-acked writes** and keeps every
//! policy readable as long as one in-quorum follower remains. Deterministic
//! fault injection for all of this lives in [`crate::fault`].
//!
//! ## Convergence (one repair ladder, one heal sequence)
//! How a replica comes *back* is defined once, in the `repair` module.
//! `converge(group, target)` brings one replica onto the seat's state from
//! a single consistent cut, per policy by the cheapest sufficient rung —
//! skip, set the cursor, cursor-bounded delta resend, snapshot at the
//! chain tail — trusting an in-service replica's cursor but verifying a
//! quarantined or joining one by digest, and paying one sync.
//! `ReplicaSet::heal(fit)` is the order around it: repair and drain the
//! channels, re-seat a dark seat on the freshest fit replica, purge what a
//! previous life left queued, converge, rejoin — or quarantine with the
//! cause. Every entry point is a thin wrapper that picks the replicas and
//! books the outcome: [`ClusterRouter::reinstate`] heals all of a group,
//! [`ClusterRouter::add_replica`] converges a newcomer marked out of
//! service, and the monitor's three hooks heal the probe-answering
//! replicas of a dark group, heal one quarantined replica after
//! probation, and converge every live follower each sweep.
//!
//! ## Rebalance protocol (warm copy + cutover barrier)
//! [`ClusterRouter::add_shard`] and [`ClusterRouter::drain_shard`] migrate
//! in two phases. The *warm* phase runs under the topology **read** lock —
//! traffic keeps flowing — and bulk-copies every affected policy (snapshot
//! export → purge-stale → import commit) onto its new owner. The *cutover*
//! phase takes the **write** lock (every request's dispatch holds the read
//! lock, so the write lock is a barrier), re-exports each policy and
//! re-installs only those that changed since the warm copy, swaps the
//! ring, and finally retires the sources (pinned sessions revoked, records
//! purged). Reads therefore never observe a half-migrated policy: before
//! the swap they hit the fully populated source, after it the fully
//! populated target, and the (short — deltas only) barrier blocks them
//! during the swap itself. Sessions of a migrated policy are closed on the
//! source: applications re-attest against the new owner (a session is a
//! trust relationship with one attested instance and does not travel).
//!
//! Failure atomicity: an error before the ring swap aborts with the old
//! topology intact (warm copies on a joining shard are unobservable; warm
//! copies on live drain targets are purged best-effort). Retirement runs
//! *after* the swap and is best-effort — a failed source purge leaves
//! unrouted leftovers, which later rebalance plans skip (only policies the
//! current ring routes to a shard ever migrate from it): wasted space and
//! an inflated `PolicyCount` until the shard is drained, never overwritten
//! live data. During a drain's warm phase `PolicyCount` may likewise
//! transiently over-count.
//!
//! ## Byzantine shard health
//! [`ClusterRouter::health_check`] probes every replica of every group
//! with a benign request and watches its rollback counters: a probe
//! failure, a physical counter value that *regressed* since the last
//! check, or an applied-token watermark that went backwards (the classic
//! rollback signature of Fig. 6) quarantines the replica. Quarantining the
//! primary triggers a failover; only when no in-quorum follower survives
//! does the group answer [`ClusterError::ShardUnavailable`] until it is
//! healed — by an operator's [`ClusterRouter::reinstate`] or, with a
//! [`ClusterMonitor`](crate::monitor::ClusterMonitor) attached, on its own.
//!
//! The probe sweep itself runs on a snapshot of the replica handles with
//! the topology lock **released**, so one wedged replica can stall only
//! the sweep, never `add_shard`/`drain_shard`.
//!
//! **Lock order:** `rebalance_gate` → `topology` → (one group's
//! `forward_lock`) → (one pipe's `delivery` then `queue`) → `sessions` →
//! (any engine's internal locks). Sender threads take only their own
//! pipe's locks and engine locks, so the request path and the background
//! data plane cannot deadlock. `delivery` covers pop + stage + redeem and
//! is **not** held across the wire (the arrival wait is a condvar wait on
//! `queue`), so fence drains never queue behind a delta in transit. A heal
//! or sweep is one `forward_lock` hold — fence, purge and `converge` all
//! run under it, taking pipe and engine locks in the order above — so the
//! monitor follows the dispatch order exactly and attaching one adds no
//! lock edges; its health sweep probes with **no** router lock held.
//! Health flags are atomics; a mutation's receipt tally and the telemetry
//! locks (flight-recorder ring, registry maps) are **leaves** — never
//! calling back into router or engine code — and may be taken under any
//! lock above. So is the front door's queue mutex, which a worker's two
//! declared waits take on the way into and out of the sleep: both sleeps
//! hold the `topology` read lock (the whole dispatch does) and nothing
//! below it.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex};
use std::time::{Duration, Instant};

use palaemon_core::counterfile::{BatchedCounter, MonotonicCounter};
use palaemon_core::frontdoor::{self, Door};
use palaemon_core::server::{ServerStats, TmsRequest, TmsResponse, TmsServer};
use palaemon_core::tms::{Palaemon, PolicyDelta, PolicyRecords, SessionId};
use palaemon_core::PalaemonError;
use palaemon_db::CommitTicket;
use palaemon_telemetry::{trace, Collect, EventKind, FlightRecorder, MetricSink, Stage, Telemetry};
use parking_lot::{Mutex, RwLock};

use crate::fault::{FaultKind, FaultPlan, FaultSite};
use crate::repair::{converge, diff_records, freshest, note_catch_up, probe_replica};
use crate::ring::{HashRing, ShardId};

/// Errors raised by the cluster layer (engine errors pass through).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ClusterError {
    /// The cluster has no shards.
    NoShards,
    /// A shard with this id already exists.
    ShardExists(ShardId),
    /// No shard with this id.
    NoSuchShard(ShardId),
    /// The shard is quarantined (Byzantine or failed health checks).
    ShardUnavailable(ShardId),
    /// The last remaining shard cannot be drained.
    LastShard,
    /// The request is neither policy-keyed, session-keyed nor an
    /// aggregate, so the router has no way to place it.
    Unroutable,
    /// A mutation was applied on the primary but could not gather its
    /// write quorum. It is **not** acknowledged: a failover may lose it.
    QuorumLost {
        /// The replica group that fell short.
        shard: ShardId,
        /// Replicas (primary included) that hold the write.
        acked: usize,
        /// The configured write quorum.
        needed: usize,
    },
    /// A replica-set configuration was rejected (empty set, or a write
    /// quorum outside `1..=replicas`).
    BadReplicaSet(String),
    /// The dispatched engine returned an error.
    Engine(PalaemonError),
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::NoShards => write!(f, "cluster has no shards"),
            ClusterError::ShardExists(id) => write!(f, "{id} already exists"),
            ClusterError::NoSuchShard(id) => write!(f, "no such shard {id}"),
            ClusterError::ShardUnavailable(id) => {
                write!(f, "{id} is quarantined and unroutable")
            }
            ClusterError::LastShard => write!(f, "cannot drain the last shard"),
            ClusterError::Unroutable => {
                write!(f, "request is neither policy- nor session-keyed")
            }
            ClusterError::QuorumLost {
                shard,
                acked,
                needed,
            } => write!(
                f,
                "{shard}: write acked by {acked} of the {needed} required replicas"
            ),
            ClusterError::BadReplicaSet(why) => write!(f, "bad replica set: {why}"),
            ClusterError::Engine(e) => write!(f, "engine error: {e}"),
        }
    }
}

impl std::error::Error for ClusterError {}

impl From<PalaemonError> for ClusterError {
    fn from(e: PalaemonError) -> Self {
        ClusterError::Engine(e)
    }
}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, ClusterError>;

/// Builds a strict-commit shard: the server couples every mutation to a
/// fresh [`BatchedCounter`] over `backend`, and the counter handle is also
/// returned so the router can watch it for Byzantine regressions.
pub fn strict_shard(
    engine: Arc<Palaemon>,
    backend: impl MonotonicCounter + Send + 'static,
) -> (TmsServer, Arc<BatchedCounter>) {
    let counter = Arc::new(BatchedCounter::new(backend));
    let server = TmsServer::with_commit_counter(engine, Arc::clone(&counter));
    (server, counter)
}

/// How reads are placed within a replica group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReadPreference {
    /// Every read is served by the group's primary (the PR 4 behavior).
    #[default]
    Primary,
    /// `ReadPolicy`/`ReadTag` reads rotate round-robin across the group —
    /// followers included — but a follower serves only while it is in the
    /// write quorum **and** its applied counter token matches the group's
    /// freshness watermark, so a lagging or rolled-back follower is never
    /// read; anything else falls back to the primary. Multiplies read
    /// throughput per arc by up to R.
    Quorum,
}

/// Why a window of deltas was delivered (pipeline telemetry).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FlushReason {
    /// A fence (failover, migration install, operator flush) drained the
    /// queue.
    Fence,
    /// The follower's sender delivered what had arrived.
    Durable,
}

/// The modelled wire of the pipelined forward path (one per router, shared
/// with every group; atomic so it is read lock-free).
#[derive(Default)]
struct PipelineConfig {
    /// Modelled one-way wire latency per delta sent, in microseconds —
    /// overlappable: a delta's transit runs concurrently with its
    /// predecessors' follower sync and the primary's own. 0 (production
    /// default) disables it; benches set it to price the wire.
    forward_latency_micros: AtomicU64,
}

impl PipelineConfig {
    fn forward_latency(&self) -> Duration {
        Duration::from_micros(self.forward_latency_micros.load(Ordering::Acquire))
    }
}

/// Last-resort bound on a mutation's one wait for its write quorum. No
/// test and no bench reaches it: a writer leaves at its
/// `write_quorum − 1`-th durable receipt, or as soon as every delta it
/// queued has resolved, and a follower it *needs* that stalls is released
/// by the next fence (failover, monitor sweep, operator flush). The cap
/// only keeps a front-door worker from hanging forever should all of that
/// fail; the write then reports [`ClusterError::QuorumLost`], whose
/// contract already allows it to survive.
const ACK_WAIT_CAP: Duration = Duration::from_secs(30);

/// Most deltas one follower's channel holds undelivered. A writer waits
/// for its quorum only, so nothing else paces a follower outside it: an
/// enqueue that finds the backlog here **demotes** the follower instead
/// of queueing — a slow follower is a faulty follower — which stops
/// further enqueues and keeps it out of elections and quorum reads until
/// a sweep or reinstate has drained the backlog and converged the rest.
/// Sized like the front door's default queue bound (8 workers × 128).
const PIPE_BACKLOG_CAP: usize = 1024;

/// Replication and read-path telemetry of one replica group — what the
/// per-arc `ClusterStats` report: where reads landed, how often the
/// freshness check refused a follower, and how many bytes each delta form
/// shipped.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplicationStats {
    /// `ReadPolicy`/`ReadTag` reads served by the primary.
    pub reads_primary: u64,
    /// `ReadPolicy`/`ReadTag` reads served by in-quorum followers.
    pub reads_follower: u64,
    /// `AttestService` sessions seated on the primary.
    pub attests_primary: u64,
    /// `AttestService` sessions seated on in-quorum followers (scale-out
    /// attestation: each replica allocates from its own session-id class).
    pub attests_follower: u64,
    /// Times the freshness check skipped a follower whose applied token
    /// lagged the group watermark (the read went elsewhere).
    pub freshness_rejections: u64,
    /// Incremental deltas forwarded (counted per follower delivery).
    pub incremental_deltas: u64,
    /// Snapshot deltas forwarded (counted per follower delivery).
    pub snapshot_deltas: u64,
    /// Wire bytes of forwarded incremental deltas.
    pub incremental_bytes: u64,
    /// Wire bytes of forwarded snapshot deltas (incl. resyncs).
    pub snapshot_bytes: u64,
    /// Chain breaks healed by an on-the-spot snapshot resync.
    pub snapshot_resyncs: u64,
    /// Out-of-sequence deltas a follower refused (lost/reordered/replayed
    /// forwards surfacing at the chain check).
    pub sequence_rejections: u64,
    /// Deltas delivered to followers (counted per follower delivery) —
    /// *not* wire transfers: one transfer carries a whole popped window,
    /// so transfers are `flushes_durable + flushes_fence`.
    pub batches_shipped: u64,
    /// Mutations those deltas covered: one per delta, so over the flush
    /// sum above it is mutations per wire transfer — and per follower
    /// sync.
    pub mutations_shipped: u64,
    /// Windows delivered by a fence (failover, migration, operator flush).
    pub flushes_fence: u64,
    /// Windows delivered by the followers' sender threads.
    pub flushes_durable: u64,
    /// Policies a heal's convergence repaired (cursor or digest diverged).
    pub catchup_policies_shipped: u64,
    /// Policies a heal skipped because the target already held them
    /// (chain cursor at the tail; digest equal for a rebuilt replica).
    pub catchup_policies_skipped: u64,
    /// Wire bytes heals shipped (0 when the target was fully in sync).
    pub catchup_bytes: u64,
}

impl Collect for ReplicationStats {
    fn collect(&self, sink: &mut MetricSink) {
        sink.counter("replication_reads_primary_total", self.reads_primary);
        sink.counter("replication_reads_follower_total", self.reads_follower);
        sink.counter("replication_attests_primary_total", self.attests_primary);
        sink.counter("replication_attests_follower_total", self.attests_follower);
        sink.counter(
            "replication_freshness_rejections_total",
            self.freshness_rejections,
        );
        sink.counter(
            "replication_incremental_deltas_total",
            self.incremental_deltas,
        );
        sink.counter("replication_snapshot_deltas_total", self.snapshot_deltas);
        sink.counter(
            "replication_incremental_bytes_total",
            self.incremental_bytes,
        );
        sink.counter("replication_snapshot_bytes_total", self.snapshot_bytes);
        sink.counter("replication_snapshot_resyncs_total", self.snapshot_resyncs);
        sink.counter(
            "replication_sequence_rejections_total",
            self.sequence_rejections,
        );
        sink.counter("replication_batches_shipped_total", self.batches_shipped);
        sink.counter(
            "replication_mutations_shipped_total",
            self.mutations_shipped,
        );
        sink.counter("replication_flushes_fence_total", self.flushes_fence);
        sink.counter("replication_flushes_durable_total", self.flushes_durable);
        sink.counter(
            "replication_catchup_policies_shipped_total",
            self.catchup_policies_shipped,
        );
        sink.counter(
            "replication_catchup_policies_skipped_total",
            self.catchup_policies_skipped,
        );
        sink.counter("replication_catchup_bytes_total", self.catchup_bytes);
    }
}

/// Atomic backing for [`ReplicationStats`] (one per replica group).
#[derive(Default)]
pub(super) struct ReplTelemetry {
    reads_primary: AtomicU64,
    reads_follower: AtomicU64,
    attests_primary: AtomicU64,
    attests_follower: AtomicU64,
    freshness_rejections: AtomicU64,
    incremental_deltas: AtomicU64,
    snapshot_deltas: AtomicU64,
    incremental_bytes: AtomicU64,
    snapshot_bytes: AtomicU64,
    snapshot_resyncs: AtomicU64,
    sequence_rejections: AtomicU64,
    batches_shipped: AtomicU64,
    mutations_shipped: AtomicU64,
    flushes_fence: AtomicU64,
    flushes_durable: AtomicU64,
    pub(super) catchup_policies_shipped: AtomicU64,
    pub(super) catchup_policies_skipped: AtomicU64,
    pub(super) catchup_bytes: AtomicU64,
}

impl ReplTelemetry {
    /// Accounts one delta delivery (bytes by payload form).
    fn count_delta(&self, delta: &PolicyDelta) {
        let bytes = delta.wire_size() as u64;
        if delta.is_incremental() {
            self.incremental_deltas.fetch_add(1, Ordering::Relaxed);
            self.incremental_bytes.fetch_add(bytes, Ordering::Relaxed);
        } else {
            self.snapshot_deltas.fetch_add(1, Ordering::Relaxed);
            self.snapshot_bytes.fetch_add(bytes, Ordering::Relaxed);
        }
    }

    /// Accounts `deltas` delivered deltas (each covers one mutation).
    fn count_batches(&self, deltas: u64) {
        self.batches_shipped.fetch_add(deltas, Ordering::Relaxed);
        self.mutations_shipped.fetch_add(deltas, Ordering::Relaxed);
    }

    /// Accounts who delivered a window.
    fn count_flush(&self, reason: FlushReason) {
        let counter = match reason {
            FlushReason::Fence => &self.flushes_fence,
            FlushReason::Durable => &self.flushes_durable,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    fn snapshot(&self) -> ReplicationStats {
        ReplicationStats {
            reads_primary: self.reads_primary.load(Ordering::Relaxed),
            reads_follower: self.reads_follower.load(Ordering::Relaxed),
            attests_primary: self.attests_primary.load(Ordering::Relaxed),
            attests_follower: self.attests_follower.load(Ordering::Relaxed),
            freshness_rejections: self.freshness_rejections.load(Ordering::Relaxed),
            incremental_deltas: self.incremental_deltas.load(Ordering::Relaxed),
            snapshot_deltas: self.snapshot_deltas.load(Ordering::Relaxed),
            incremental_bytes: self.incremental_bytes.load(Ordering::Relaxed),
            snapshot_bytes: self.snapshot_bytes.load(Ordering::Relaxed),
            snapshot_resyncs: self.snapshot_resyncs.load(Ordering::Relaxed),
            sequence_rejections: self.sequence_rejections.load(Ordering::Relaxed),
            batches_shipped: self.batches_shipped.load(Ordering::Relaxed),
            mutations_shipped: self.mutations_shipped.load(Ordering::Relaxed),
            flushes_fence: self.flushes_fence.load(Ordering::Relaxed),
            flushes_durable: self.flushes_durable.load(Ordering::Relaxed),
            catchup_policies_shipped: self.catchup_policies_shipped.load(Ordering::Relaxed),
            catchup_policies_skipped: self.catchup_policies_skipped.load(Ordering::Relaxed),
            catchup_bytes: self.catchup_bytes.load(Ordering::Relaxed),
        }
    }
}

/// One policy scheduled to move between shards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PolicyMove {
    /// The policy being migrated.
    pub policy: String,
    /// Shard it moves from.
    pub from: ShardId,
    /// Shard it moves to.
    pub to: ShardId,
}

/// The executed outcome of a rebalance operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    /// Shard added by this rebalance, if any.
    pub added: Option<ShardId>,
    /// Shard removed by this rebalance, if any.
    pub removed: Option<ShardId>,
    /// Policies migrated, in execution order.
    pub moves: Vec<PolicyMove>,
}

/// Health verdict for one replica within a group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicaHealth {
    /// Replica index within the group.
    pub replica: usize,
    /// True for the replica currently seated as primary.
    pub primary: bool,
    /// False when quarantined **or** demoted from the write quorum: a
    /// follower that missed a forward or failed a migration install is
    /// not serving its share of the group even though it still answers
    /// probes.
    pub healthy: bool,
    /// True while the replica counts toward the write quorum.
    pub in_quorum: bool,
    /// The replica's applied rollback-counter token (freshness).
    pub applied: u64,
    /// Why the replica was quarantined or demoted, when it was.
    pub reason: Option<String>,
}

/// Health verdict for one shard (replica group).
#[derive(Debug, Clone, PartialEq)]
pub struct ShardHealth {
    /// The shard.
    pub id: ShardId,
    /// False when the group is unroutable (its primary seat is
    /// quarantined and no in-quorum follower could be elected).
    pub healthy: bool,
    /// Why the primary seat was quarantined, when it was.
    pub reason: Option<String>,
    /// Per-replica verdicts, in replica-index order.
    pub replicas: Vec<ReplicaHealth>,
}

/// The outcome of pulling a shard's primary
/// ([`ClusterRouter::quarantine`]; the monitor's auto-failovers follow
/// the same election).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuarantineOutcome {
    /// The freshest chain-complete in-quorum follower was seated; the
    /// shard keeps serving through the failover.
    FailedOver {
        /// Replica index of the new primary.
        new_primary: usize,
    },
    /// No successor was electable: the group is dark (unroutable) until
    /// a replica is healed or reinstated. A `group_dark` flight event
    /// was recorded.
    GroupDark,
}

/// Point-in-time statistics of one shard (replica group). The per-request
/// figures (`policies`, `sessions`, `server`) describe the current primary.
#[derive(Debug, Clone)]
pub struct ShardStats {
    /// The shard.
    pub id: ShardId,
    /// False when the group is unroutable.
    pub healthy: bool,
    /// Policies stored on this shard.
    pub policies: usize,
    /// Sessions attested by this shard.
    pub sessions: usize,
    /// The primary server's dispatch + counter statistics.
    pub server: ServerStats,
    /// Replication factor (replica count) of the group.
    pub replicas: usize,
    /// Replicas currently counting toward the write quorum.
    pub in_quorum: usize,
    /// Index of the current primary replica.
    pub primary: usize,
    /// Failovers the group has performed.
    pub failovers: u64,
    /// Read-path and replication byte counters of the group.
    pub replication: ReplicationStats,
    /// Deltas currently queued on each replica's forward channel, in
    /// replica-index order (the primary's own slot is 0). Empty for
    /// single-replica shards.
    pub queue_depths: Vec<usize>,
}

impl Collect for ShardStats {
    fn collect(&self, sink: &mut MetricSink) {
        sink.scoped("shard", self.id.0, |sink| {
            sink.gauge("shard_healthy", if self.healthy { 1.0 } else { 0.0 });
            sink.gauge("shard_policies", self.policies as f64);
            sink.gauge("shard_sessions", self.sessions as f64);
            sink.gauge("shard_replicas", self.replicas as f64);
            sink.gauge("shard_in_quorum", self.in_quorum as f64);
            sink.gauge("shard_primary_index", self.primary as f64);
            sink.counter("shard_failovers_total", self.failovers);
            sink.gauge(
                "shard_queue_depth",
                self.queue_depths.iter().sum::<usize>() as f64,
            );
            self.server.collect(sink);
            self.replication.collect(sink);
        });
    }
}

/// Point-in-time view of one replica (for failover tests and operators).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicaStatus {
    /// Replica index within the group.
    pub replica: usize,
    /// True for the current primary.
    pub primary: bool,
    /// True when quarantined.
    pub quarantined: bool,
    /// True while the replica counts toward the write quorum.
    pub in_quorum: bool,
    /// The replica's applied rollback-counter token (freshness).
    pub applied: u64,
}

/// Point-in-time view of one replica group
/// ([`ClusterRouter::replica_status`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicaSetStatus {
    /// The shard.
    pub id: ShardId,
    /// Acks (primary included) a mutation needs before it is acknowledged.
    pub write_quorum: usize,
    /// Replicated mutations the group has executed (the fault-plan
    /// operation coordinate).
    pub ops: u64,
    /// Failovers the group has performed.
    pub failovers: u64,
    /// Index of the current primary replica.
    pub primary: usize,
    /// Per-replica views, in replica-index order.
    pub replicas: Vec<ReplicaStatus>,
}

/// Aggregated statistics across the cluster.
#[derive(Debug, Clone)]
pub struct ClusterStats {
    /// Per-shard statistics, in shard-id order.
    pub shards: Vec<ShardStats>,
    /// Rebalance operations executed since the router was built.
    pub rebalances: u64,
}

impl ClusterStats {
    /// Policies stored across all shards.
    pub fn total_policies(&self) -> usize {
        self.shards.iter().map(|s| s.policies).sum()
    }

    /// Sessions attested across all shards.
    pub fn total_sessions(&self) -> usize {
        self.shards.iter().map(|s| s.sessions).sum()
    }

    /// Physical rollback-counter increments across all shards.
    pub fn total_increments(&self) -> u64 {
        self.shards
            .iter()
            .filter_map(|s| s.server.counter)
            .map(|c| c.increments)
            .sum()
    }

    /// Mutations committed through the per-shard counters.
    pub fn total_ops_committed(&self) -> u64 {
        self.shards
            .iter()
            .filter_map(|s| s.server.counter)
            .map(|c| c.ops_committed)
            .sum()
    }
}

impl Collect for ClusterStats {
    fn collect(&self, sink: &mut MetricSink) {
        sink.counter("cluster_rebalances_total", self.rebalances);
        sink.gauge("cluster_shards", self.shards.len() as f64);
        for shard in &self.shards {
            shard.collect(sink);
        }
    }
}

impl std::fmt::Display for ClusterStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for s in &self.shards {
            write!(
                f,
                "  {}: {} | {} policies, {} sessions | {} ok / {} failed",
                s.id,
                if s.healthy { "healthy" } else { "QUARANTINED" },
                s.policies,
                s.sessions,
                s.server.ok,
                s.server.failed,
            )?;
            if let Some(c) = s.server.counter {
                write!(
                    f,
                    " | counter: {} ops / {} increments",
                    c.ops_committed, c.increments
                )?;
            }
            if s.replicas > 1 {
                write!(
                    f,
                    " | R={} ({} in quorum), primary #{}, {} failovers",
                    s.replicas, s.in_quorum, s.primary, s.failovers
                )?;
                let r = &s.replication;
                write!(
                    f,
                    " | fwd: {} inc ({} B) / {} snap ({} B), {} resyncs | reads: {} follower / {} primary, {} freshness rejects | attests: {} follower / {} primary",
                    r.incremental_deltas,
                    r.incremental_bytes,
                    r.snapshot_deltas,
                    r.snapshot_bytes,
                    r.snapshot_resyncs,
                    r.reads_follower,
                    r.reads_primary,
                    r.freshness_rejections,
                    r.attests_follower,
                    r.attests_primary,
                )?;
                if r.batches_shipped > 0 {
                    let queued: usize = s.queue_depths.iter().sum();
                    write!(
                        f,
                        " | pipeline: {} batches / {} mutations ({} queued), flushes: {} fence / {} durable",
                        r.batches_shipped,
                        r.mutations_shipped,
                        queued,
                        r.flushes_fence,
                        r.flushes_durable,
                    )?;
                }
            }
            writeln!(f)?;
        }
        write!(f, "  rebalances: {}", self.rebalances)
    }
}

/// One engine within a replica group.
pub(super) struct Replica {
    pub(super) server: TmsServer,
    pub(super) counter: Option<Arc<BatchedCounter>>,
    /// Rollback-counter token of the last replicated mutation this replica
    /// applied — the freshness evidence a failover election compares.
    pub(super) applied: AtomicU64,
    /// True while the replica has applied every forwarded delta since it
    /// last (re)joined; a missed or failed forward clears it.
    in_quorum: AtomicBool,
    quarantined: AtomicBool,
    reason: Mutex<Option<String>>,
    /// Health-monitor watermarks (regression watch).
    pub(super) watch_counter: AtomicU64,
    pub(super) watch_applied: AtomicU64,
    /// A delta the fault injector is holding back to deliver out of order
    /// ([`FaultKind::ReorderIncremental`]); always `None` in production.
    pub(super) held_delta: Mutex<Option<PolicyDelta>>,
}

impl Replica {
    fn new(server: TmsServer, counter: Option<Arc<BatchedCounter>>) -> Self {
        Replica {
            server,
            counter,
            applied: AtomicU64::new(0),
            in_quorum: AtomicBool::new(true),
            quarantined: AtomicBool::new(false),
            reason: Mutex::new(None),
            watch_counter: AtomicU64::new(0),
            watch_applied: AtomicU64::new(0),
            held_delta: Mutex::new(None),
        }
    }

    pub(super) fn engine(&self) -> &Arc<Palaemon> {
        self.server.engine()
    }

    pub(super) fn is_quarantined(&self) -> bool {
        self.quarantined.load(Ordering::Acquire)
    }

    pub(super) fn is_in_quorum(&self) -> bool {
        !self.is_quarantined() && self.in_quorum.load(Ordering::Acquire)
    }

    /// Demotes the replica from the write quorum without quarantining
    /// it, recording why. The first diagnosis wins: a follower failing
    /// every forward of a burst keeps the original cause, and a
    /// quarantine reason already in the slot is never overwritten.
    /// Cleared by [`Replica::rejoin`] (reinstate, or the monitor's
    /// re-admission). Returns whether `reason` became the diagnosis; call
    /// it through [`GroupCore::demote`], which records that as an event.
    fn demote(&self, reason: &str) -> bool {
        let mut slot = self.reason.lock();
        let first = slot.is_none();
        if first {
            *slot = Some(reason.to_owned());
        }
        drop(slot);
        self.in_quorum.store(false, Ordering::Release);
        first
    }

    /// Quarantines the replica. An already-quarantined replica keeps its
    /// original reason and appends the new one — the first diagnosis is
    /// what the operator needs to see.
    pub(super) fn quarantine(&self, reason: String) {
        let mut slot = self.reason.lock();
        *slot = Some(match slot.take() {
            Some(first) => format!("{first}; {reason}"),
            None => reason,
        });
        self.quarantined.store(true, Ordering::Release);
        self.in_quorum.store(false, Ordering::Release);
    }

    /// Clears quarantine and rejoins the write quorum, resetting the
    /// health watches to the current values (catch-up ran first).
    pub(super) fn rejoin(&self) {
        if let Some(counter) = &self.counter {
            self.watch_counter.store(counter.value(), Ordering::Release);
        }
        self.watch_applied
            .store(self.applied.load(Ordering::Acquire), Ordering::Release);
        *self.reason.lock() = None;
        self.quarantined.store(false, Ordering::Release);
        self.in_quorum.store(true, Ordering::Release);
    }
}

/// One replicated mutation's **receipt tally**, shared by the deltas it
/// queued (one per counting follower). Whoever resolves a queued delta —
/// a sender's or a fence drain's delivery, a dropped window, a purge, a
/// sender shutting down — books that follower's verdict here; the writer
/// parks on it once ([`Tally::wait`]) and leaves at the quorum, so a
/// straggler's verdict is booked into a tally nobody waits on any more.
#[derive(Default)]
struct Tally {
    /// `(followers that reported the delta durable, forwards that failed)`.
    receipts: StdMutex<(usize, usize)>,
    booked: Condvar,
}

impl Tally {
    fn book(&self, durable: bool) {
        let mut receipts = self.receipts.lock().unwrap();
        if durable {
            receipts.0 += 1;
        } else {
            receipts.1 += 1;
        }
        drop(receipts);
        self.booked.notify_one();
    }

    /// Parks the mutation's writer until `needed` followers reported the
    /// delta durable, or all `queued` forwards resolved (the quorum can no
    /// longer grow), or `deadline` passes. Returns the durable receipts
    /// booked so far.
    fn wait(&self, needed: usize, queued: usize, deadline: Instant) -> usize {
        let mut receipts = self.receipts.lock().unwrap();
        loop {
            let (durable, failed) = *receipts;
            if durable >= needed || durable + failed >= queued {
                return durable;
            }
            let now = Instant::now();
            if now >= deadline {
                return durable;
            }
            receipts = self
                .booked
                .wait_timeout(receipts, deadline - now)
                .unwrap()
                .0;
        }
    }
}

/// One delta queued on a follower's forward channel. Built at enqueue,
/// under `forward_lock`.
struct QueuedForward {
    delta: PolicyDelta,
    /// When the modelled wire delivers the delta to the follower: enqueue
    /// time + [`PipelineConfig::forward_latency`], stamped under
    /// `forward_lock`, so deadlines are queue-ordered. Nothing is staged
    /// before it has arrived.
    arrives: Instant,
    /// Where this follower's durable verdict for the delta is booked.
    /// `None` marks a delta the fault injector delivered out of order
    /// (behind its successor) — nobody counts it. It is staged via the
    /// legacy stale path: a same-policy chain mismatch only counts a
    /// rejection — no resync, no demotion — because the successor already
    /// carried the state.
    ///
    /// **Coupling, on purpose:** "has no tally" and "is a stale
    /// redelivery" are one bit today because `replicate` builds exactly
    /// two kinds of forward — a mutation's own delta, always with its
    /// tally, and a held-back redelivery, never with one. A forward that
    /// is in order yet needs no receipt must not be built with `None`: it
    /// would be staged without the chain check's resync and demotion. Give
    /// it a tally nobody waits on (as every straggler's is), or split the
    /// bit out again.
    tally: Option<Arc<Tally>>,
}

impl QueuedForward {
    /// How the delta is staged — see the coupling note on `tally`.
    fn is_stale(&self) -> bool {
        self.tally.is_none()
    }

    /// Books the delta's fate; every queued delta is resolved exactly
    /// once, by whoever takes it off its queue.
    fn resolve(self, durable: bool) {
        if let Some(tally) = self.tally {
            tally.book(durable);
        }
    }
}

/// Mutable state of one follower's forward channel.
struct PipeQueue {
    items: VecDeque<QueuedForward>,
    /// [`FaultKind::StallForwardChannel`]: the sender stops draining (a
    /// wedged network path) until a repair clears it; a failover fence
    /// delivers through it meanwhile.
    stalled: bool,
    /// [`FaultKind::DropBatch`]: the next popped window vanishes on the
    /// wire — silently, without demotion.
    drop_next: bool,
    shutdown: bool,
}

/// One follower's background forward channel plus its wakeup machinery.
/// Lock order: `delivery` strictly before `queue`. `delivery` is held
/// across pop + stage + redeem (by the sender or a fence drain), which
/// makes "queue empty" observed under both locks mean "everything
/// enqueued so far has been applied and synced". It is **not** held while
/// a delta is in transit: the sender waits for its head to arrive holding
/// `queue` only (a condvar wait), so the next window travels while this
/// one syncs and a fence never queues behind a wire wait.
pub(super) struct Pipe {
    queue: StdMutex<PipeQueue>,
    ready: Condvar,
    delivery: StdMutex<()>,
    depth_peak: AtomicUsize,
}

impl Pipe {
    fn new() -> Arc<Self> {
        Arc::new(Pipe {
            queue: StdMutex::new(PipeQueue {
                items: VecDeque::new(),
                stalled: false,
                drop_next: false,
                shutdown: false,
            }),
            ready: Condvar::new(),
            delivery: StdMutex::new(()),
            depth_peak: AtomicUsize::new(0),
        })
    }

    /// Queues `item` — unless the follower's backlog already sits at
    /// [`PIPE_BACKLOG_CAP`]: then nothing is queued and the caller demotes
    /// the follower (`false`).
    #[must_use]
    fn push(&self, item: QueuedForward) -> bool {
        let mut q = self.queue.lock().unwrap();
        if q.items.len() >= PIPE_BACKLOG_CAP {
            return false;
        }
        q.items.push_back(item);
        self.depth_peak.fetch_max(q.items.len(), Ordering::Relaxed);
        drop(q);
        self.ready.notify_all();
        true
    }

    fn depth(&self) -> usize {
        self.queue.lock().unwrap().items.len()
    }

    /// When the newest queued delta lands (`None`: nothing queued).
    fn last_arrival(&self) -> Option<Instant> {
        let q = self.queue.lock().unwrap();
        q.items.iter().map(|item| item.arrives).max()
    }

    fn set_stalled(&self) {
        self.queue.lock().unwrap().stalled = true;
    }

    fn set_drop_next(&self) {
        self.queue.lock().unwrap().drop_next = true;
    }

    /// Clears injected faults (reinstate: the wedged path is repaired).
    fn clear_faults(&self) {
        let mut q = self.queue.lock().unwrap();
        q.stalled = false;
        q.drop_next = false;
        drop(q);
        self.ready.notify_all();
    }

    /// Discards everything queued without delivering — atomically w.r.t.
    /// an in-flight delivery (the replica is about to take the seat or be
    /// converged onto it, which supersedes any delta queued in its
    /// previous life).
    pub(super) fn purge(&self) {
        let _delivery = self.delivery.lock().unwrap();
        let mut q = self.queue.lock().unwrap();
        for item in q.items.drain(..) {
            item.resolve(false);
        }
    }

    /// Pops the prefix of the queue that has arrived — never past an item
    /// still in transit, so delivery order is queue order — respecting
    /// `stalled` unless `ignore_stall`, together with whether a
    /// [`FaultKind::DropBatch`] consumes it. Caller holds `delivery`.
    fn pop_arrived(&self, ignore_stall: bool) -> (Vec<QueuedForward>, bool) {
        let mut q = self.queue.lock().unwrap();
        if q.stalled && !ignore_stall {
            return (Vec::new(), false);
        }
        let now = Instant::now();
        let arrived = q
            .items
            .iter()
            .take_while(|item| item.arrives <= now)
            .count();
        let items: Vec<QueuedForward> = q.items.drain(..arrived).collect();
        let dropped = !items.is_empty() && std::mem::take(&mut q.drop_next);
        (items, dropped)
    }

    fn begin_shutdown(&self) {
        self.queue.lock().unwrap().shutdown = true;
        self.ready.notify_all();
    }
}

/// The replica-group state shared between the request path and the
/// background sender threads. [`ReplicaSet`] derefs to it, so group
/// fields read the same at every call site.
pub(super) struct GroupCore {
    /// Index of the current primary.
    pub(super) primary: AtomicUsize,
    /// Acks (primary included) a mutation needs before it returns.
    write_quorum: usize,
    /// Serializes delta extraction + enqueue (and migration installs),
    /// so followers apply the same delta sequence the primary produced.
    /// Since pipelining, the wire time is *outside* this lock.
    forward_lock: Mutex<()>,
    /// Replicated-mutation index — the deterministic fault-plan coordinate.
    ops: AtomicU64,
    /// Highest freshness token the group has handed out. Tokens are
    /// `max(primary counter value, watermark + 1)`: monotone per *group*,
    /// so a newly promoted primary (whose own physical counter starts low)
    /// can never issue a token older than the group has seen.
    watermark: AtomicU64,
    /// Per-policy delta chain tail: the token of the last delta issued for
    /// each policy (what the next incremental's `parent` must be). Reset
    /// when a migration installs/purges the policy group-wide.
    pub(super) chain: Mutex<HashMap<String, u64>>,
    /// Round-robin cursor for quorum reads.
    read_cursor: AtomicUsize,
    /// How long the last replicated mutation slept for its quorum's
    /// receipts, in nanoseconds: what the next one declares it expects to
    /// ([`frontdoor::parked`]). A measurement, not a setting.
    quorum_wait_ns: AtomicU64,
    pub(super) telemetry: ReplTelemetry,
    /// This group's shard id, as the flight recorder reports it.
    pub(super) shard: u64,
    /// The router-wide control-plane flight recorder (a telemetry leaf
    /// lock — safe under every router lock).
    pub(super) flight: Arc<FlightRecorder>,
    pub(super) failovers: AtomicU64,
    /// Replica roster mirror for the sender threads (resolving the
    /// current primary's engine for snapshot resyncs without touching
    /// the topology-guarded vector). Grows only under `add_replica`.
    roster: Mutex<Vec<Arc<Replica>>>,
    config: Arc<PipelineConfig>,
}

impl GroupCore {
    /// The engine behind the current primary seat, as the sender threads
    /// resolve it (never holds the roster lock across engine work).
    fn seat_engine(&self) -> Arc<Palaemon> {
        let roster = self.roster.lock();
        let idx = self.primary.load(Ordering::Acquire).min(roster.len() - 1);
        Arc::clone(roster[idx].engine())
    }

    /// Demotes replica `k` from the write quorum (see [`Replica::demote`])
    /// and, when `reason` is the diagnosis that stuck, records it as an
    /// [`EventKind::Demotion`] — the one way a follower leaves the quorum
    /// short of quarantine, so the flight recorder sees every one.
    pub(super) fn demote(&self, k: usize, follower: &Replica, reason: String) {
        if follower.demote(&reason) {
            self.flight.record(EventKind::Demotion {
                shard: self.shard,
                replica: k,
                reason,
            });
        }
    }

    /// Stages one delta on follower `k` (applied and in its commit window,
    /// not yet synced), healing a broken chain with an on-the-spot snapshot
    /// resync — staged too — from the current primary seat. The follower
    /// holds the write once the returned ticket redeems.
    fn stage(
        &self,
        follower: &Replica,
        k: usize,
        delta: &PolicyDelta,
    ) -> palaemon_core::Result<CommitTicket> {
        self.telemetry.count_delta(delta);
        match follower.engine().stage_policy_delta(delta) {
            Err(PalaemonError::DeltaOutOfSequence { .. }) => {
                // The follower's chain for this policy does not match —
                // it is fresh, or a forward to it was lost or reordered.
                // Never apply out of sequence: re-base it with a full
                // snapshot at the same token.
                self.telemetry
                    .sequence_rejections
                    .fetch_add(1, Ordering::Relaxed);
                self.telemetry
                    .snapshot_resyncs
                    .fetch_add(1, Ordering::Relaxed);
                self.flight.record(EventKind::GapRejection {
                    shard: self.shard,
                    replica: k,
                    policy: delta.policy.clone(),
                    token: delta.token,
                    parent: delta.parent,
                });
                let resync = self
                    .seat_engine()
                    .export_policy_snapshot(&delta.policy, delta.token);
                self.telemetry.count_delta(&resync);
                self.flight.record(EventKind::SnapshotResync {
                    shard: self.shard,
                    replica: k,
                    policy: delta.policy.clone(),
                    token: delta.token,
                });
                follower.engine().stage_policy_delta(&resync)
            }
            other => other,
        }
    }

    /// Stages a stale (reordered) delta via the legacy out-of-order path:
    /// cross-policy it is merely late and applies; same-policy the chain
    /// check rejects it — counted, but no resync and no demotion (`None`:
    /// nothing to redeem), because its successor already carried the state.
    fn stage_stale(
        &self,
        follower: &Replica,
        k: usize,
        delta: &PolicyDelta,
    ) -> Option<CommitTicket> {
        self.telemetry.count_delta(delta);
        let staged = follower.engine().stage_policy_delta(delta);
        if staged.is_err() {
            self.telemetry
                .sequence_rejections
                .fetch_add(1, Ordering::Relaxed);
            self.flight.record(EventKind::GapRejection {
                shard: self.shard,
                replica: k,
                policy: delta.policy.clone(),
                token: delta.token,
                parent: delta.parent,
            });
        }
        staged.ok()
    }

    /// Delivers one popped window — every item of it has arrived — to
    /// follower `k`: accounts the flush, **stages** every delta in queue
    /// order and only then **redeems** the tickets — the first leads one
    /// sync covering the window, the rest find it flushed. `applied` moves
    /// and the receipt is booked behind each ticket's verdict, so a
    /// receipt means "durable on this follower"; a failed stage or verdict
    /// demotes it and books a failure. `dropped` consumes the transfer on the wire
    /// ([`FaultKind::DropBatch`]): nothing arrives, nobody is demoted,
    /// and the resulting chain gap must surface at the next delivery.
    /// Returns the mutations actually delivered (0 for a dropped window).
    fn deliver_batch(
        &self,
        follower: &Replica,
        k: usize,
        items: Vec<QueuedForward>,
        dropped: bool,
        reason: FlushReason,
    ) -> u64 {
        self.telemetry.count_flush(reason);
        let mutations = items.len() as u64;
        if dropped {
            self.flight.record(EventKind::BatchDrop {
                shard: self.shard,
                replica: k,
                mutations,
            });
            for item in items {
                item.resolve(false);
            }
            return 0;
        }
        self.telemetry.count_batches(mutations);
        let mut staged = Vec::with_capacity(items.len());
        for item in items {
            let ticket = if item.is_stale() {
                Ok(self.stage_stale(follower, k, &item.delta))
            } else {
                self.stage(follower, k, &item.delta).map(Some)
            };
            staged.push((ticket, item));
        }
        // `Ok(None)` is a refused stale delta: nothing staged, nothing to
        // advance, and — as ever — no demotion.
        for (ticket, item) in staged {
            let (policy, token) = (&item.delta.policy, item.delta.token);
            let ok = match ticket.and_then(|t| Ok(t.map(CommitTicket::wait).transpose()?)) {
                Ok(durable) => {
                    if durable.is_some() {
                        follower.applied.fetch_max(token, Ordering::AcqRel);
                    }
                    true
                }
                Err(e) => {
                    let why = format!("demoted: applying delta for policy '{policy}' failed: {e}");
                    self.demote(k, follower, why);
                    false
                }
            };
            item.resolve(ok);
        }
        mutations
    }
}

/// The per-follower background sender: waits for queued deltas, waits —
/// holding `queue` only — for the head to arrive, and delivers everything
/// that has arrived under the pipe's delivery lock so fence drains stay
/// atomic with in-flight deliveries. While one window syncs the next is
/// already travelling, so a busy channel cycles once per follower sync,
/// not per wire + sync.
fn follower_sender(core: Arc<GroupCore>, pipe: Arc<Pipe>, k: usize, follower: Arc<Replica>) {
    loop {
        {
            let mut q = pipe.queue.lock().unwrap();
            loop {
                if q.shutdown {
                    for item in q.items.drain(..) {
                        item.resolve(false);
                    }
                    return;
                }
                if !q.items.is_empty() && !q.stalled {
                    break;
                }
                q = pipe.ready.wait(q).unwrap();
            }
            // The head's transit is waited out on the condvar — a fence
            // (or shutdown, or a stall) may take over meanwhile.
            while !(q.shutdown || q.stalled) {
                let Some(wait) = q
                    .items
                    .front()
                    .map(|head| head.arrives.saturating_duration_since(Instant::now()))
                    .filter(|wait| !wait.is_zero())
                else {
                    break;
                };
                q = pipe.ready.wait_timeout(q, wait).unwrap().0;
            }
        }
        // Queue lock released; take delivery → queue (the lock order the
        // fence drain also follows) and deliver whatever has arrived — a
        // racing fence may have drained it already.
        let _delivery = pipe.delivery.lock().unwrap();
        let (items, dropped) = pipe.pop_arrived(false);
        if items.is_empty() {
            continue;
        }
        core.deliver_batch(&follower, k, items, dropped, FlushReason::Durable);
    }
}

/// One ring arc's replica group: a primary plus R−1 mirrored followers,
/// each fed by its own background forward channel. Derefs to
/// [`GroupCore`] (the state the sender threads share).
pub(super) struct ReplicaSet {
    pub(super) replicas: Vec<Arc<Replica>>,
    /// One forward channel per replica (parallel to `replicas`; empty
    /// for single-replica groups, which never forward). Every replica
    /// gets a pipe because any of them may become a follower later.
    pub(super) pipes: Vec<Arc<Pipe>>,
    senders: Mutex<Vec<std::thread::JoinHandle<()>>>,
    core: Arc<GroupCore>,
}

impl std::ops::Deref for ReplicaSet {
    type Target = GroupCore;
    fn deref(&self) -> &GroupCore {
        &self.core
    }
}

impl Drop for ReplicaSet {
    fn drop(&mut self) {
        for pipe in &self.pipes {
            pipe.begin_shutdown();
        }
        for handle in self.senders.lock().drain(..) {
            let _ = handle.join();
        }
    }
}

impl ReplicaSet {
    fn new(
        replicas: Vec<Replica>,
        write_quorum: usize,
        config: Arc<PipelineConfig>,
        shard: u64,
        flight: Arc<FlightRecorder>,
    ) -> Self {
        let replicas: Vec<Arc<Replica>> = replicas.into_iter().map(Arc::new).collect();
        let core = Arc::new(GroupCore {
            primary: AtomicUsize::new(0),
            write_quorum,
            forward_lock: Mutex::new(()),
            ops: AtomicU64::new(0),
            watermark: AtomicU64::new(0),
            chain: Mutex::new(HashMap::new()),
            read_cursor: AtomicUsize::new(0),
            quorum_wait_ns: AtomicU64::new(0),
            telemetry: ReplTelemetry::default(),
            shard,
            flight,
            failovers: AtomicU64::new(0),
            roster: Mutex::new(replicas.clone()),
            config,
        });
        let mut group = ReplicaSet {
            replicas,
            pipes: Vec::new(),
            senders: Mutex::new(Vec::new()),
            core,
        };
        if group.replicas.len() > 1 {
            group.spawn_pipes();
        }
        group
    }

    /// Gives every replica without one a forward channel + sender thread
    /// (group construction, and the R=1 → 2 upgrade in `add_replica`).
    fn spawn_pipes(&mut self) {
        let mut senders = self.senders.lock();
        for k in self.pipes.len()..self.replicas.len() {
            let pipe = Pipe::new();
            let handle = std::thread::Builder::new()
                .name(format!("palaemon-fwd-{k}"))
                .spawn({
                    let core = Arc::clone(&self.core);
                    let pipe = Arc::clone(&pipe);
                    let follower = Arc::clone(&self.replicas[k]);
                    move || follower_sender(core, pipe, k, follower)
                })
                .expect("spawn forward sender");
            senders.push(handle);
            self.pipes.push(pipe);
        }
    }

    /// Fences and drains every follower channel: delivers everything
    /// queued (atomically w.r.t. in-flight sender deliveries) before
    /// returning, so "drained" means *applied*, not just dequeued. Only
    /// the residual transit of the newest queued item is waited out
    /// (nothing enqueues meanwhile — the caller's `forward_lock` — so
    /// afterwards everything has arrived).
    /// Returns the mutations the drain delivered, recording a
    /// [`EventKind::FenceDrain`] per non-empty channel. Caller holds
    /// `forward_lock`.
    fn drain_pipes(&self, ignore_stall: bool) -> u64 {
        (0..self.pipes.len())
            .map(|k| self.drain_pipe(k, ignore_stall))
            .sum()
    }

    /// Replica `k`'s share of [`ReplicaSet::drain_pipes`]: touches no
    /// other channel. Caller holds `forward_lock`.
    fn drain_pipe(&self, k: usize, ignore_stall: bool) -> u64 {
        let (pipe, replica) = (&self.pipes[k], &self.replicas[k]);
        if replica.is_quarantined() {
            return 0; // nobody to deliver to; reinstate clears it
        }
        let _delivery = pipe.delivery.lock().unwrap();
        if let Some(at) = pipe.last_arrival() {
            std::thread::sleep(at.saturating_duration_since(Instant::now()));
        }
        let (items, dropped) = pipe.pop_arrived(ignore_stall);
        if items.is_empty() {
            return 0;
        }
        let delivered = self
            .core
            .deliver_batch(replica, k, items, dropped, FlushReason::Fence);
        if delivered > 0 {
            self.flight.record(EventKind::FenceDrain {
                shard: self.shard,
                replica: k,
                mutations: delivered,
            });
        }
        delivered
    }

    /// Repairs the `fit` replicas' channels — injected stall/drop faults
    /// are gone (the operator fixed the network, or the stall outlived the
    /// monitor's tolerance) — then fences: whatever is still queued to a
    /// live replica lands before anyone is converged. Returns the
    /// mutations delivered. Caller holds `forward_lock`.
    pub(super) fn fence(&self, fit: impl Fn(usize) -> bool) -> u64 {
        for (k, pipe) in self.pipes.iter().enumerate() {
            if fit(k) {
                pipe.clear_faults();
            }
        }
        self.drain_pipes(true)
    }

    /// Books the monitor's re-admission of replica `k` (already rejoined).
    fn note_readmit(&self, k: usize) {
        self.flight.record(EventKind::AutoReadmit {
            shard: self.shard,
            replica: k,
            applied: self.replicas[k].applied.load(Ordering::Acquire),
        });
    }

    pub(super) fn primary_idx(&self) -> usize {
        self.primary.load(Ordering::Acquire)
    }

    /// The engine behind the current primary seat — consulted for stats,
    /// aggregates and migration regardless of quarantine state.
    fn primary_engine(&self) -> &Arc<Palaemon> {
        self.replicas[self.primary_idx()].engine()
    }

    /// True while the group can serve requests.
    fn is_routable(&self) -> bool {
        !self.replicas[self.primary_idx()].is_quarantined()
    }

    /// Router-side ground truth that a replica applied **every** delta the
    /// group ever forwarded: each per-policy chain tail must match the
    /// replica's own cursor for that policy. Unlike the global applied
    /// token — which later deltas for *other* policies keep advancing — an
    /// omission gap for one policy stays visible here until it is healed,
    /// so a replica silently missing a quorum-acked write can never look
    /// fit to lead. In crash-only executions every in-quorum replica is
    /// chain-complete once its channel is drained (misses demote) — and an
    /// election always follows a fence drain — so this only bites under
    /// omission faults.
    pub(super) fn chain_complete(&self, replica: &Replica) -> bool {
        let chain = self.chain.lock();
        chain
            .iter()
            .all(|(policy, &tail)| replica.engine().policy_cursor(policy) == Some(tail))
    }

    /// Freshness election: the chain-complete in-quorum replica (excluding
    /// `not`) with the highest applied counter token; ties go to the
    /// lowest index. A rolled-back replica reports an older token, so it
    /// can never beat a fresh one, and a replica with an unhealed delta
    /// gap is not a candidate at all.
    fn elect(&self, not: usize) -> Option<usize> {
        freshest(
            self.replicas
                .iter()
                .enumerate()
                .filter(|(i, r)| *i != not && r.is_in_quorum() && self.chain_complete(r)),
        )
    }

    /// Quarantines replica `idx`; when it held the primary seat, fails
    /// over to the freshest in-quorum follower. Returns the new primary
    /// index if a failover happened.
    ///
    /// Seat changes take the forward lock, so a failover never interleaves
    /// with an in-flight delta forward: an acked write always reaches the
    /// future primary before the promotion, and a deposed primary can
    /// never forward a stale snapshot over its successor's writes (the
    /// replication path re-checks the seat under the lock).
    fn quarantine_replica(&self, idx: usize, reason: String) -> Option<usize> {
        // Always under the lock — even for an apparent follower: a
        // concurrent failover may be seating exactly this replica, and
        // flagging it lock-free could strand the group on a quarantined
        // seat while live followers exist.
        let _forward = self.forward_lock.lock();
        self.depose_locked(idx, reason)
    }

    /// Quarantines whoever holds the primary seat *at lock time*: the seat
    /// is re-read under the forward lock, so a racing failover cannot
    /// redirect the caller's action onto an already-deposed replica.
    fn quarantine_primary(&self, reason: String) -> Option<usize> {
        let _forward = self.forward_lock.lock();
        self.depose_locked(self.primary.load(Ordering::Acquire), reason)
    }

    /// The failover itself; caller holds `forward_lock`. The seat moves
    /// *before* the deposed replica is flagged, so dispatch never observes
    /// a quarantined seat while a live follower exists — traffic flows
    /// through the entire failover window.
    fn depose_locked(&self, idx: usize, reason: String) -> Option<usize> {
        let moved = if self.primary.load(Ordering::Acquire) == idx {
            // Fence + drain before the election: every queued delta —
            // stalled channels included — reaches its follower now, so
            // any write parked on its ack is on the electorate and
            // nothing of the deposed primary's reign stays queued to
            // clobber the successor later.
            let fence_drained = self.drain_pipes(true);
            let winner = self.elect(idx).inspect(|&new| {
                self.primary.store(new, Ordering::Release);
                self.failovers.fetch_add(1, Ordering::Relaxed);
                self.flight.record(EventKind::Election {
                    shard: self.shard,
                    deposed: idx,
                    winner: new,
                    winner_token: self.replicas[new].applied.load(Ordering::Acquire),
                    fence_drained,
                });
            });
            if winner.is_none() {
                // No chain-complete in-quorum follower left: the seat
                // stays put and the group serves nothing until a replica
                // is healed or reinstated.
                self.flight.record(EventKind::GroupDark {
                    shard: self.shard,
                    deposed: idx,
                    reason: reason.clone(),
                });
            }
            winner
        } else {
            None // someone else already moved the seat
        };
        self.flight.record(EventKind::Quarantine {
            shard: self.shard,
            replica: idx,
            reason: reason.clone(),
        });
        self.replicas[idx].quarantine(reason);
        moved
    }

    /// Installs one policy's records on every live replica (migration
    /// path). The primary seat must succeed — its error propagates so a
    /// rebalance can abort before the ring swap; a follower failure only
    /// demotes the follower from the quorum.
    fn group_install(&self, policy: &str, records: &PolicyRecords) -> Result<()> {
        let _forward = self.forward_lock.lock();
        // Queued deltas predate the install; landing one *after* it would
        // clobber the migrated records. Deliver them all first.
        self.drain_pipes(true);
        let pidx = self.primary_idx();
        let primary = &self.replicas[pidx];
        let install = |r: &Replica| r.engine().stage_policy_records(policy, records).wait();
        install(primary).map_err(PalaemonError::from)?;
        for (k, follower) in self.replicas.iter().enumerate() {
            if k == pidx || !follower.is_in_quorum() {
                continue;
            }
            if let Err(e) = install(follower) {
                let why = format!("demoted: installing policy '{policy}' failed: {e}");
                self.demote(k, follower, why);
            }
        }
        // The install re-based every replica's copy outside the delta
        // chain: restart the chain so the next incremental is accepted
        // from scratch (replica cursors were reset by the purge).
        self.chain.lock().remove(policy);
        Ok(())
    }

    /// Removes one policy's records from every live replica (migration
    /// retirement). Primary-seat errors propagate; follower failures
    /// demote.
    fn group_purge(&self, policy: &str) -> Result<()> {
        let _forward = self.forward_lock.lock();
        self.drain_pipes(true);
        let pidx = self.primary_idx();
        self.replicas[pidx].engine().purge_policy_records(policy)?;
        for (k, follower) in self.replicas.iter().enumerate() {
            if k == pidx || !follower.is_in_quorum() {
                continue;
            }
            if let Err(e) = follower.engine().purge_policy_records(policy) {
                let why = format!("demoted: purging policy '{policy}' failed: {e}");
                self.demote(k, follower, why);
            }
        }
        self.chain.lock().remove(policy);
        Ok(())
    }

    /// Mirrors a session the primary just attested onto the followers, so
    /// the session survives a failover.
    fn mirror_session(&self, pidx: usize, local: SessionId) {
        if self.replicas.len() == 1 {
            return;
        }
        let _forward = self.forward_lock.lock();
        let Some(record) = self.replicas[pidx].engine().export_session(local) else {
            return;
        };
        for (k, follower) in self.replicas.iter().enumerate() {
            if k != pidx && !follower.is_quarantined() {
                follower.engine().import_session(&record);
            }
        }
    }

    /// Mirrors a session close onto the followers.
    fn mirror_close(&self, pidx: usize, local: SessionId) {
        if self.replicas.len() == 1 {
            return;
        }
        let _forward = self.forward_lock.lock();
        for (k, follower) in self.replicas.iter().enumerate() {
            if k != pidx && !follower.is_quarantined() {
                follower.engine().close_session(local);
            }
        }
    }

    /// Mirrors an approval round the seat at `from` just opened onto the
    /// rest of the group, so the round (and its single-use nonce) survives
    /// a failover of the replica that issued it.
    fn mirror_approval(&self, from: usize, nonce: u64) {
        if self.replicas.len() == 1 {
            return;
        }
        let _forward = self.forward_lock.lock();
        let Some(record) = self.replicas[from].engine().export_approval(nonce) else {
            return;
        };
        for (k, peer) in self.replicas.iter().enumerate() {
            if k != from && !peer.is_quarantined() {
                peer.engine().import_approval(&record);
            }
        }
    }

    /// Mirrors the consumption (or burn) of an approval nonce onto the
    /// rest of the group: the round is closed group-wide, so a promoted
    /// follower can never accept a replayed approval.
    fn mirror_discard(&self, from: usize, nonce: u64) {
        if self.replicas.len() == 1 {
            return;
        }
        let _forward = self.forward_lock.lock();
        for (k, peer) in self.replicas.iter().enumerate() {
            if k != from && !peer.is_quarantined() {
                peer.engine().discard_approval(nonce);
            }
        }
    }
}

/// Capacity of a replica group's session-id partition: replica `k`
/// allocates local session ids from the residue class
/// `k + 1 (mod SESSION_ID_STRIDE)`, so any in-quorum replica can seat
/// attestations without coordinating with its peers. Bounds the group
/// size.
const SESSION_ID_STRIDE: u64 = 64;

/// Gives each replica of a group its own disjoint session-id residue
/// class (idempotent; see [`SESSION_ID_STRIDE`]).
fn partition_session_ids(replicas: &[Arc<Replica>]) {
    for (k, r) in replicas.iter().enumerate() {
        r.engine()
            .set_session_id_range(k as u64 + 1, SESSION_ID_STRIDE);
    }
}

/// The board-approval nonce a request carries, if any. Such requests must
/// seat on the primary: consuming the single-use nonce anywhere else would
/// diverge the group's round state.
/// The export targets a policy-keyed request can add, retarget, or drop:
/// the union of the incoming policy body's declared targets (create/update)
/// and the stored version's (update may drop one; delete destroys them
/// all), minus the producer itself (same-shard by definition).
fn export_targets_for(group: &ReplicaSet, policy: &str, request: &TmsRequest) -> Vec<String> {
    let mut targets = match request {
        TmsRequest::CreatePolicy { policy: body, .. }
        | TmsRequest::UpdatePolicy { policy: body, .. } => body.export_targets(),
        TmsRequest::DeletePolicy { .. } => Vec::new(),
        _ => return Vec::new(),
    };
    targets.extend(group.primary_engine().export_targets(policy));
    targets.sort_unstable();
    targets.dedup();
    targets.retain(|t| t != policy);
    targets
}

fn approval_nonce(request: &TmsRequest) -> Option<u64> {
    match request {
        TmsRequest::CreatePolicy { approval, .. }
        | TmsRequest::ReadPolicy { approval, .. }
        | TmsRequest::UpdatePolicy { approval, .. }
        | TmsRequest::DeletePolicy { approval, .. } => approval.as_ref().map(|r| r.nonce),
        _ => None,
    }
}

struct Topology {
    ring: HashRing,
    shards: HashMap<ShardId, ReplicaSet>,
}

#[derive(Debug, Clone, Copy)]
struct SessionBinding {
    shard: ShardId,
    local: SessionId,
}

/// The sharded multi-instance front door. Share it behind an `Arc`; every
/// method takes `&self`.
pub struct ClusterRouter {
    topology: RwLock<Topology>,
    sessions: RwLock<HashMap<u64, SessionBinding>>,
    next_session: AtomicU64,
    rebalances: AtomicU64,
    /// Serializes rebalance operations, so a warm copy always reconciles
    /// against the same shard set at cutover.
    rebalance_gate: Mutex<()>,
    /// Where reads land within a replica group (encoded [`ReadPreference`];
    /// an atomic so the read hot path never takes a lock).
    read_preference: AtomicU8,
    /// The modelled wire of the pipelined forward path, shared with every
    /// group.
    pipeline: Arc<PipelineConfig>,
    /// Deterministic fault schedule (test builds); `None` in production.
    fault_plan: Mutex<Option<Arc<FaultPlan>>>,
    /// Fast-path flag mirroring `fault_plan.is_some()`, so the production
    /// replication path (no plan installed) never takes the plan mutex.
    fault_armed: AtomicBool,
    /// The unified telemetry plane: metrics registry, request-stage
    /// histograms and the control-plane flight recorder every replica
    /// group records into.
    telemetry: Arc<Telemetry>,
}

impl std::fmt::Debug for ClusterRouter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let topo = self.topology.read();
        f.debug_struct("ClusterRouter")
            .field("shards", &topo.ring.shard_count())
            .field("sessions", &self.sessions.read().len())
            .finish()
    }
}

impl ClusterRouter {
    /// Creates an empty router. `seed` and `vnodes` fix the ring layout
    /// (see [`HashRing::new`]); add shards with [`ClusterRouter::add_shard`].
    pub fn new(seed: u64, vnodes: u32) -> Self {
        ClusterRouter {
            topology: RwLock::new(Topology {
                ring: HashRing::new(seed, vnodes),
                shards: HashMap::new(),
            }),
            sessions: RwLock::new(HashMap::new()),
            next_session: AtomicU64::new(1),
            rebalances: AtomicU64::new(0),
            rebalance_gate: Mutex::new(()),
            read_preference: AtomicU8::new(0),
            pipeline: Arc::new(PipelineConfig::default()),
            fault_plan: Mutex::new(None),
            fault_armed: AtomicBool::new(false),
            telemetry: Telemetry::new(),
        }
    }

    /// The router's telemetry plane. Groups record control-plane events
    /// into its flight recorder; [`FrontDoor`](palaemon_core::frontdoor::FrontDoor)
    /// pools built with
    /// [`with_telemetry`](palaemon_core::frontdoor::FrontDoor::with_telemetry)
    /// over this router should share it so request traces and cluster
    /// events land in one snapshot.
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.telemetry
    }

    /// Installs a deterministic [`FaultPlan`] the replication path
    /// consults on every replicated mutation (fault-injection tests).
    pub fn set_fault_plan(&self, plan: Arc<FaultPlan>) {
        *self.fault_plan.lock() = Some(plan);
        self.fault_armed.store(true, Ordering::Release);
    }

    /// Switches where reads land within replica groups (default:
    /// [`ReadPreference::Primary`]).
    pub fn set_read_preference(&self, preference: ReadPreference) {
        let code = match preference {
            ReadPreference::Primary => 0,
            ReadPreference::Quorum => 1,
        };
        self.read_preference.store(code, Ordering::Release);
    }

    /// The current read placement policy.
    pub fn read_preference(&self) -> ReadPreference {
        match self.read_preference.load(Ordering::Acquire) {
            0 => ReadPreference::Primary,
            _ => ReadPreference::Quorum,
        }
    }

    /// Sets a modelled one-way wire latency: every delta arrives this long
    /// after its enqueue and is never staged on a follower earlier.
    /// Transits overlap each other and the syncs on either end.
    /// Zero (the default) disables it; benches use it to price the wire.
    pub fn set_forward_latency(&self, latency: Duration) {
        self.pipeline
            .forward_latency_micros
            .store(latency.as_micros() as u64, Ordering::Release);
    }

    /// Fences and drains shard `id`'s forward channels: every queued
    /// delta is applied to its follower before this returns (stalled
    /// channels excepted — a wedged path cannot be flushed from here;
    /// failover fencing ignores the stall instead). Returns false for an
    /// unknown shard.
    pub fn flush_replication(&self, id: ShardId) -> bool {
        let topo = self.topology.read();
        let Some(group) = topo.shards.get(&id) else {
            return false;
        };
        let _forward = group.forward_lock.lock();
        group.drain_pipes(false);
        true
    }

    /// Shard ids currently in the cluster, in id order.
    pub fn shard_ids(&self) -> Vec<ShardId> {
        self.topology.read().ring.shards().collect()
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.topology.read().ring.shard_count()
    }

    /// The shard a policy name routes to right now.
    pub fn shard_for_policy(&self, policy: &str) -> Option<ShardId> {
        self.topology.read().ring.route(policy)
    }

    /// The engine behind a shard's current primary (lifecycle paths, e.g.
    /// registering platform quoting-enclave keys on every shard).
    pub fn engine(&self, id: ShardId) -> Option<Arc<Palaemon>> {
        self.topology
            .read()
            .shards
            .get(&id)
            .map(|g| Arc::clone(g.primary_engine()))
    }

    /// Every replica engine of a shard, in replica-index order (divergence
    /// checks, fleet-wide key provisioning).
    pub fn replica_engines(&self, id: ShardId) -> Vec<Arc<Palaemon>> {
        self.topology
            .read()
            .shards
            .get(&id)
            .map(|g| g.replicas.iter().map(|r| Arc::clone(r.engine())).collect())
            .unwrap_or_default()
    }

    /// Point-in-time view of a shard's replica group: primary seat, quorum
    /// membership and per-replica freshness tokens.
    pub fn replica_status(&self, id: ShardId) -> Option<ReplicaSetStatus> {
        let topo = self.topology.read();
        let group = topo.shards.get(&id)?;
        let pidx = group.primary_idx();
        Some(ReplicaSetStatus {
            id,
            write_quorum: group.write_quorum,
            ops: group.ops.load(Ordering::Relaxed),
            failovers: group.failovers.load(Ordering::Relaxed),
            primary: pidx,
            replicas: group
                .replicas
                .iter()
                .enumerate()
                .map(|(k, r)| ReplicaStatus {
                    replica: k,
                    primary: k == pidx,
                    quarantined: r.is_quarantined(),
                    in_quorum: r.is_in_quorum(),
                    applied: r.applied.load(Ordering::Acquire),
                })
                .collect(),
        })
    }

    /// Handles one request, routing it to the owning replica group (or
    /// fanning out for aggregates). Mutations are synchronously mirrored
    /// onto the group's followers and acknowledged only at write quorum.
    /// Safe to call from any number of threads.
    ///
    /// # Errors
    /// Routing failures ([`ClusterError::NoShards`],
    /// [`ClusterError::ShardUnavailable`]), a missed write quorum
    /// ([`ClusterError::QuorumLost`]), or whatever the dispatched engine
    /// returns ([`ClusterError::Engine`]).
    pub fn handle(&self, request: TmsRequest) -> Result<TmsResponse> {
        // Held for the whole dispatch: this is what the rebalance cutover
        // barrier (the write lock) synchronizes against.
        let topo = self.topology.read();
        if topo.shards.is_empty() {
            return Err(ClusterError::NoShards);
        }

        // Aggregates fan out to the primary engines directly (bypassing
        // the shard servers so per-shard request stats are not inflated,
        // and counting each group once, not once per replica).
        match &request {
            TmsRequest::PolicyCount => {
                let total = topo
                    .shards
                    .values()
                    .map(|g| g.primary_engine().policy_count())
                    .sum();
                return Ok(TmsResponse::Count(total));
            }
            TmsRequest::SessionCount => {
                let total = topo
                    .shards
                    .values()
                    .map(|g| g.primary_engine().session_count())
                    .sum();
                return Ok(TmsResponse::Count(total));
            }
            _ => {}
        }

        if let Some(policy) = request.policy_key() {
            let policy = policy.to_string();
            let id = topo.ring.route(&policy).ok_or(ClusterError::NoShards)?;
            let group = topo.shards.get(&id).ok_or(ClusterError::NoSuchShard(id))?;
            // Export targets this mutation may add, retarget, or drop —
            // resolved *before* dispatch (a delete destroys the records
            // that name them) so the consumers' shards can be diffed
            // afterwards.
            let export_targets = export_targets_for(group, &policy, &request);
            let response = self.dispatch_to_group(id, group, request, None, Some(&policy))?;
            if !export_targets.is_empty() {
                self.sync_exports(&topo, id, &policy, &export_targets)?;
            }
            // Attestation pinned a new session to this group: hand the
            // client a cluster-level id and remember the binding.
            if let TmsResponse::Config(mut config) = response {
                let local = config.session;
                let cluster = SessionId(self.next_session.fetch_add(1, Ordering::Relaxed));
                self.sessions
                    .write()
                    .insert(cluster.0, SessionBinding { shard: id, local });
                config.session = cluster;
                return Ok(TmsResponse::Config(config));
            }
            return Ok(response);
        }

        if let Some(cluster_session) = request.session_key() {
            let binding = self
                .sessions
                .read()
                .get(&cluster_session.0)
                .copied()
                .ok_or(ClusterError::Engine(PalaemonError::NoSuchSession))?;
            let group = topo
                .shards
                .get(&binding.shard)
                .ok_or(ClusterError::Engine(PalaemonError::NoSuchSession))?;
            let closing = matches!(request, TmsRequest::CloseSession { .. });
            let response =
                self.dispatch_to_group(binding.shard, group, request, Some(binding.local), None)?;
            if closing {
                self.sessions.write().remove(&cluster_session.0);
            }
            return Ok(response);
        }

        // `policy_key`/`session_key` are exhaustive over today's protocol;
        // refuse (rather than panic on) anything a future variant misses.
        Err(ClusterError::Unroutable)
    }

    /// Serves one request on a group's primary; replicates mutations and
    /// mirrors session-table changes onto the followers.
    fn dispatch_to_group(
        &self,
        id: ShardId,
        group: &ReplicaSet,
        request: TmsRequest,
        local: Option<SessionId>,
        policy: Option<&str>,
    ) -> Result<TmsResponse> {
        // Snapshot reads can be served by any freshness-checked in-quorum
        // replica, and attestation can *seat* on one (each replica
        // allocates session ids from its own residue class, and the new
        // session is mirrored group-wide either way); everything else —
        // mutations, approval rounds and approval-carrying reads (whose
        // single-use nonces must be consumed exactly once, then mirrored)
        // — seats on the primary.
        if request.is_snapshot_read()
            && group.replicas.len() > 1
            && self.read_preference() == ReadPreference::Quorum
        {
            if let Some(response) = self.try_follower_read(group, &request, local) {
                return Ok(response);
            }
        }
        let mutation = request.is_mutation();
        let is_attest = matches!(request, TmsRequest::AttestService { .. });
        if is_attest && group.replicas.len() > 1 && self.read_preference() == ReadPreference::Quorum
        {
            if let Some(response) = self.try_follower_attest(group, &request) {
                return Ok(response);
            }
        }
        let is_close = matches!(request, TmsRequest::CloseSession { .. });
        let approval = approval_nonce(&request);
        let request = match local {
            Some(l) => localize_session(request, l),
            None => request,
        };
        // An approval nonce is single-use and was mirrored group-wide when
        // issued: if the primary no longer holds it after a dispatch
        // (consumed by success, or burned by the board's reject/mismatch
        // paths), the peers must burn their copies too or a failover
        // would resurrect a spent nonce.
        let burn_spent_nonce = |pidx: usize| {
            if let Some(nonce) = approval.filter(|_| group.replicas.len() > 1) {
                if group.replicas[pidx]
                    .engine()
                    .export_approval(nonce)
                    .is_none()
                {
                    group.mirror_discard(pidx, nonce);
                }
            }
        };
        loop {
            let pidx = group.primary_idx();
            let primary = &group.replicas[pidx];
            if primary.is_quarantined() {
                if group.primary_idx() != pidx {
                    // A failover ran between the two loads above: the
                    // seat moved before its old holder was flagged, so
                    // a live primary exists — dispatch to it.
                    continue;
                }
                return Err(ClusterError::ShardUnavailable(id));
            }
            // A mutation never comes back around the loop, so it is
            // dispatched zero-copy: the request moves into the engine.
            if mutation && group.replicas.len() == 1 {
                // Single-replica groups have nobody to forward to: skip
                // the whole replication machinery (delta export, digest,
                // forward-lock serialization) and keep PR 3's engine-level
                // concurrency for unreplicated shards.
                return primary.server.handle(request).map_err(ClusterError::Engine);
            }
            if mutation {
                // Resolve the policy the mutation covers *before* applying
                // it: the request's own key, or — for session-keyed tag
                // pushes — the policy the session is attested under. Once
                // the engine applies the write it must be forwarded, and a
                // concurrent `CloseSession` could make the session
                // unresolvable afterwards.
                let mutation_policy = match policy {
                    Some(p) => Some(p.to_string()),
                    None => local.and_then(|l| primary.engine().policy_of_session(l)),
                };
                // Stage only: the commit sits in the primary's WAL window
                // and is redeemed *behind* the forward (inside
                // `replicate`), so the local sync overlaps the wire and
                // the followers' syncs instead of preceding them.
                let staged = primary.server.stage(request);
                burn_spent_nonce(pidx);
                let staged = staged.map_err(ClusterError::Engine)?;
                let Some(policy) = mutation_policy else {
                    // The session vanished between resolution and apply
                    // yet the engine accepted the write: it reached only
                    // the primary and must NOT be acknowledged as
                    // replicated (its commit is still redeemed, so the
                    // server's request accounting stays whole).
                    let _ = staged.redeem();
                    return Err(ClusterError::QuorumLost {
                        shard: id,
                        acked: 1,
                        needed: group.write_quorum,
                    });
                };
                return self.replicate(id, group, pidx, &policy, || {
                    staged.redeem().map_err(ClusterError::Engine)
                });
            }
            // Only non-mutations can come back around the loop (failover
            // retry), so only they pay the clone.
            let response = primary.server.handle(request.clone());
            burn_spent_nonce(pidx);
            let response = response.map_err(ClusterError::Engine)?;
            // Session-table changes are mirrored so sessions survive a
            // failover of the replica that attested them.
            if is_attest {
                if let TmsResponse::Config(config) = &response {
                    group.mirror_session(pidx, config.session);
                    if group.replicas.len() > 1 {
                        group
                            .telemetry
                            .attests_primary
                            .fetch_add(1, Ordering::Relaxed);
                    }
                    return Ok(response);
                }
            }
            if is_close {
                if let Some(l) = local {
                    group.mirror_close(pidx, l);
                }
                return Ok(response);
            }
            // A freshly opened approval round lives only on the issuing
            // engine until mirrored; copy the round (nonce + tuple) to the
            // peers so a failover mid-round does not strand the approval.
            if let TmsResponse::Approval(approval) = &response {
                group.mirror_approval(pidx, approval.nonce);
                return Ok(response);
            }
            // Pure read (`ReadTag` / `ReadPolicy`, the only requests left):
            // if a failover raced us, the deposed primary may have missed a
            // write acked on its successor — retry there.
            if group.primary_idx() != pidx || primary.is_quarantined() {
                continue;
            }
            group
                .telemetry
                .reads_primary
                .fetch_add(1, Ordering::Relaxed);
            return Ok(response);
        }
    }

    /// Forwards a producer's `export-secret/` / `export-volume/` records
    /// to each consumer's owning shard, diffing the consumer-side copy
    /// against the producer shard's authoritative rows and applying only
    /// the delta (puts for new/changed rows, tombstones for dropped ones).
    /// Runs after the producer mutation committed, under the same topology
    /// read guard, so a concurrent rebalance cannot re-route mid-sync. The
    /// applied rows are captured under the *consumer* policy's name, so
    /// on replicated consumer shards they ride the consumer's incremental
    /// delta chain to its followers — and because they live under
    /// `policy_record_prefixes(target)`, they migrate with the consumer.
    /// Same-shard targets are skipped: producer and consumer share an
    /// engine there, so the rows already exist.
    fn sync_exports(
        &self,
        topo: &Topology,
        producer_shard: ShardId,
        producer: &str,
        targets: &[String],
    ) -> Result<()> {
        let source = topo
            .shards
            .get(&producer_shard)
            .ok_or(ClusterError::NoSuchShard(producer_shard))?;
        for target in targets {
            // Routes even for targets with no policy yet: the rows
            // pre-land on the shard that will own the consumer when it
            // is created, exactly where its attestation will scan.
            let Some(tid) = topo.ring.route(target) else {
                continue;
            };
            if tid == producer_shard {
                continue;
            }
            let Some(tgroup) = topo.shards.get(&tid) else {
                continue;
            };
            let tpidx = tgroup.primary_idx();
            let tprimary = &tgroup.replicas[tpidx];
            if tprimary.is_quarantined() {
                return Err(ClusterError::ShardUnavailable(tid));
            }
            let desired = source.primary_engine().export_records_for(target, producer);
            let current = tprimary.engine().export_records_for(target, producer);
            let (puts, tombstones) = diff_records(&desired, &current).into_parts();
            if puts.is_empty() && tombstones.is_empty() {
                continue;
            }
            // A client mutation of the consumer's engine: on a strict shard
            // its commit window's leader covers it with the shard's rollback
            // counter before this returns.
            tprimary
                .engine()
                .apply_export_records(target, &puts, &tombstones)
                .map_err(ClusterError::Engine)?;
            if tgroup.replicas.len() > 1 {
                // Already durable and counter-covered above: nothing
                // left to redeem behind the forward.
                self.replicate(tid, tgroup, tpidx, target, || Ok(()))?;
            }
        }
        Ok(())
    }

    /// Quorum placement, shared by reads and attestation: rotates
    /// round-robin across the group and picks the first follower that is in
    /// the write quorum **and** freshness-checked at two granularities —
    /// its applied counter token must have reached the group watermark,
    /// *and* its chain cursor for the specific policy the request touches
    /// must match the group's chain tail (the global token alone can mask a
    /// silently lost delta for one policy once a later delta for another
    /// policy advances it) — so a lagging or rolled-back follower is never
    /// picked. `None` hands the request to the primary path instead: the
    /// primary's own slot in the rotation (which keeps the load spread even
    /// across all R replicas), or no eligible follower.
    fn fresh_follower(
        &self,
        group: &ReplicaSet,
        request: &TmsRequest,
        local: Option<SessionId>,
    ) -> Option<usize> {
        let pidx = group.primary_idx();
        let watermark = group.watermark.load(Ordering::Acquire);
        let n = group.replicas.len();
        let start = group.read_cursor.fetch_add(1, Ordering::Relaxed) % n;
        for off in 0..n {
            let k = (start + off) % n;
            if k == pidx {
                if off == 0 {
                    return None;
                }
                // Mid-scan (an earlier follower was skipped): prefer any
                // remaining eligible follower over loading the primary.
                continue;
            }
            let follower = &group.replicas[k];
            if !follower.is_in_quorum() {
                continue;
            }
            if follower.applied.load(Ordering::Acquire) < watermark
                || !self.policy_chain_fresh(group, follower, request, local)
            {
                group
                    .telemetry
                    .freshness_rejections
                    .fetch_add(1, Ordering::Relaxed);
                continue;
            }
            return Some(k);
        }
        None
    }

    /// Quorum-read placement for a snapshot read: serves it from
    /// [`Self::fresh_follower`]'s pick. `None` hands it to the primary
    /// path (no pick, or a follower-side error — falling back rather than
    /// guessing which errors are benign).
    fn try_follower_read(
        &self,
        group: &ReplicaSet,
        request: &TmsRequest,
        local: Option<SessionId>,
    ) -> Option<TmsResponse> {
        let k = self.fresh_follower(group, request, local)?;
        let req = match local {
            Some(l) => localize_session(request.clone(), l),
            None => request.clone(),
        };
        let response = group.replicas[k].server.handle(req).ok()?;
        group
            .telemetry
            .reads_follower
            .fetch_add(1, Ordering::Relaxed);
        Some(response)
    }

    /// Quorum attestation placement: like [`Self::try_follower_read`],
    /// but for `AttestService` — which reads the policy being attested
    /// (quote checks, secret material, export scans), hence the same
    /// freshness bar. Every replica allocates session ids from its own
    /// residue class (domain `k+1`, stride [`SESSION_ID_STRIDE`]) so a
    /// follower-seated attestation cannot collide with one seated anywhere
    /// else in the group, and the resulting session is mirrored group-wide
    /// exactly as primary-seated ones are. `None` hands the attestation to
    /// the primary path.
    fn try_follower_attest(&self, group: &ReplicaSet, request: &TmsRequest) -> Option<TmsResponse> {
        let k = self.fresh_follower(group, request, None)?;
        let response = group.replicas[k].server.handle(request.clone()).ok()?;
        if let TmsResponse::Config(config) = &response {
            group.mirror_session(k, config.session);
        }
        group
            .telemetry
            .attests_follower
            .fetch_add(1, Ordering::Relaxed);
        Some(response)
    }

    /// Per-policy freshness: the follower's chain cursor for the policy
    /// this read touches must match the group's chain tail. Unlike the
    /// global applied token, the cursor is follower-side ground truth —
    /// a delta that silently vanished on the wire never advanced it, so
    /// the gap stays visible even after later deltas for *other* policies
    /// lift the follower's global token to the watermark. Reads that
    /// resolve no policy (unknown session/policy) pass — the engine
    /// answers with the same error the primary would.
    fn policy_chain_fresh(
        &self,
        group: &ReplicaSet,
        follower: &Replica,
        request: &TmsRequest,
        local: Option<SessionId>,
    ) -> bool {
        let policy = match request.policy_key() {
            Some(p) => Some(p.to_string()),
            None => local.and_then(|l| follower.engine().policy_of_session(l)),
        };
        let Some(policy) = policy else {
            return true;
        };
        let tail = group.chain.lock().get(&policy).copied();
        follower.engine().policy_cursor(&policy) == tail
    }

    /// Replicates the counter-attested delta of `policy` — just mutated on
    /// the primary, its commit staged or already durable — to the group's
    /// in-quorum followers via their background channels, and returns at
    /// the **write quorum**: enqueue under `forward_lock` → redeem the
    /// primary's own commit (`redeem`) **behind** the forward, so its WAL
    /// sync runs while the delta travels and the followers sync → park
    /// once on the mutation's receipt tally.
    ///
    /// **What an ack means.** Fig. 6 orders only the *acknowledgement*
    /// after "state durable, counter covered", and so does this: `Ok`
    /// needs the local verdict **and** `write_quorum − 1` followers'
    /// durable receipts — durable in the primary's crash image, covered by
    /// its Fig. 6 increment, durable on `write_quorum − 1` followers. It
    /// does *not* mean every follower holds the write yet, nor that the
    /// channels are empty. `redeem` runs on every path, early returns
    /// included, so the server counts each request once; if it fails
    /// after the enqueue the call returns its error un-acked and the
    /// forwarded delta is allowed to survive (the
    /// [`ClusterError::QuorumLost`] contract — the write stays in the
    /// primary's visible tree; chain and cursors agree group-wide).
    ///
    /// **Who resolves the tally.** Every delta queued here carries the
    /// mutation's one tally, and whoever takes a delta off its queue books
    /// that follower's verdict: a delivery (the follower's sender, or a
    /// fence drain) behind the window's sync verdict, a window dropped on
    /// the wire, a purge, a sender shutting down. The writer leaves when
    /// `write_quorum − 1` receipts are durable, or when every forward it
    /// queued has resolved — then the quorum is certainly lost — or, as a
    /// last resort, at [`ACK_WAIT_CAP`]. Stragglers book into a tally
    /// nobody waits on. A follower whose backlog is at `PIPE_BACKLOG_CAP`
    /// is not queued to but demoted, with that cause.
    ///
    /// The forward lock covers only seat-check + capture-drain + chain
    /// assignment + enqueue, so independent mutations of one shard
    /// pipeline concurrently. The delta carries only what the mutation
    /// changed (the engine's captured [`ChangeSet`]), chained onto the
    /// policy's previous token; a follower whose chain does not match is
    /// resynced on the spot with a snapshot delta. Consults the fault plan
    /// at the three injection sites.
    ///
    /// **Freshness token:** still `max(primary counter value, watermark +
    /// 1)`. The counter value is read *before* this mutation's own Fig. 6
    /// increment, but it is only a floor keeping tokens in step with the
    /// physical counter; monotonicity comes from `watermark + 1` alone, so
    /// group-monotonicity is unaffected (a token may merely trail the
    /// counter by the increments in flight). The **watermark** and
    /// `primary.applied` move at enqueue, not behind any verdict — and
    /// with quorum acks that is what keeps reads fresh: from the moment a
    /// delta can be acked, every follower that has not applied it sits
    /// below the watermark and is refused quorum reads, however far behind
    /// the ack it finishes. For the seat the token names the state it
    /// *serves* — the mutation is in its visible tree from `stage` on,
    /// which is what primary reads return and catch-up copies and stamps
    /// its target with — and the seat is never a candidate in its own
    /// failover election.
    fn replicate<T>(
        &self,
        id: ShardId,
        group: &ReplicaSet,
        pidx: usize,
        policy: &str,
        redeem: impl FnOnce() -> Result<T>,
    ) -> Result<T> {
        let primary = &group.replicas[pidx];
        // Where every follower this mutation's delta is queued to books
        // its verdict, and how many of them there are.
        let tally = Arc::new(Tally::default());
        let mut queued = 0usize;
        let enqueue = trace::start();
        let enqueued = 'forward: {
            let _forward = group.forward_lock.lock();
            if group.primary_idx() != pidx || primary.is_quarantined() {
                // A failover deposed us between the engine apply and the
                // forward: the write reached only the deposed primary and
                // is not acknowledged. Its captured changes stay
                // undrained; the snapshot-based catch-up voids them
                // before any rejoin.
                break 'forward Err(ClusterError::ShardUnavailable(id));
            }
            let op = group.ops.fetch_add(1, Ordering::Relaxed) + 1;
            let plan = if self.fault_armed.load(Ordering::Acquire) {
                self.fault_plan.lock().clone()
            } else {
                None
            };
            if let Some(plan) = &plan {
                if plan
                    .take(id, op, FaultSite::BeforeForward)
                    .contains(&FaultKind::CrashBeforeForward)
                {
                    // The primary dies with the write applied only
                    // locally: it was never acked, so losing it in the
                    // failover is sound.
                    group.depose_locked(pidx, "fault: primary crashed before forwarding".into());
                    break 'forward Err(ClusterError::ShardUnavailable(id));
                }
            }
            // Drain what the mutation changed and assign the chain
            // position: the freshness token is group-monotone (derived
            // from the primary's Fig. 6 counter value), and `parent` is
            // the token of the policy's previous delta — what a
            // follower's cursor must match for an incremental to apply.
            let changes = primary.engine().take_policy_changes(policy);
            let counter_value = primary.counter.as_ref().map_or(0, |c| c.value());
            let token = counter_value.max(group.watermark.load(Ordering::Acquire) + 1);
            group.watermark.store(token, Ordering::Release);
            primary.applied.store(token, Ordering::Release);
            let parent = {
                let mut chain = group.chain.lock();
                let parent = chain.get(policy).copied().unwrap_or(0);
                chain.insert(policy.to_string(), token);
                parent
            };
            // The primary holds the mutation by construction; keep its
            // own cursor in step so chain completeness (the election
            // fitness check) is comparable across every replica.
            primary.engine().advance_policy_cursor(policy, token);
            // A racing forward may have drained this mutation's changes
            // already (they rode the earlier delta); an empty incremental
            // still advances the chain.
            let delta =
                PolicyDelta::incremental(policy, changes.unwrap_or_default(), token, parent);
            // The delta goes on the wire now (stamped under the lock, so
            // deadlines are queue-ordered).
            let arrives = Instant::now() + group.config.forward_latency();
            for (k, follower) in group.replicas.iter().enumerate() {
                if k == pidx || follower.is_quarantined() {
                    continue;
                }
                if let Some(plan) = &plan {
                    let faults = plan.take(id, op, FaultSite::ForwardTo(k));
                    if faults.contains(&FaultKind::StallForwardChannel(k)) {
                        // The channel wedges *before* this enqueue: the
                        // delta queues behind a stalled sender — a network
                        // stall is invisible to the router — until a fence
                        // drain delivers anyway. Its mutation parks on
                        // that verdict only where the quorum needs this
                        // follower.
                        group.pipes[k].set_stalled();
                    }
                    if faults.contains(&FaultKind::DropBatch(k)) {
                        // The next window delivered on this channel
                        // vanishes on the wire, silently.
                        group.pipes[k].set_drop_next();
                    }
                    if faults.contains(&FaultKind::DropForwardToReplica(k)) {
                        // Partitioned, and the router *saw* the send
                        // fail: the follower no longer counts toward the
                        // quorum until it catches up.
                        let why = "demoted: forward failed (partitioned link)".into();
                        group.demote(k, follower, why);
                        continue;
                    }
                    if faults.contains(&FaultKind::LoseIncremental(k)) {
                        // Lost on the wire without the router noticing:
                        // no demotion — the gap must surface at the
                        // follower's next chain check.
                        continue;
                    }
                    if faults.contains(&FaultKind::ReorderIncremental(k)) {
                        // Held back by the network; delivered (stale)
                        // after the next delta.
                        *follower.held_delta.lock() = Some(delta.clone());
                        continue;
                    }
                }
                if !follower.in_quorum.load(Ordering::Acquire) {
                    continue; // lagging — must catch up before rejoining
                }
                // In order, so always `Some` — counted or not, awaited or
                // not: `None` would stage it as a stale redelivery.
                if !group.pipes[k].push(QueuedForward {
                    delta: delta.clone(),
                    arrives,
                    tally: Some(Arc::clone(&tally)),
                }) {
                    // Nothing paces a follower nobody waits for, so its
                    // backlog is what bounds it: a slow follower is a
                    // faulty follower. Whatever is queued still lands;
                    // the next sweep (or reinstate) converges the rest.
                    let why = format!(
                        "demoted: forward backlog at the cap ({PIPE_BACKLOG_CAP} undelivered deltas)"
                    );
                    group.demote(k, follower, why);
                    continue;
                }
                queued += 1;
                // A delta the injector held back arrives now, out of
                // order — queued behind its successor on the same
                // channel. Cross-policy it is merely late (its own chain
                // is intact); same-policy it must be rejected. Held
                // deltas only exist under a fault plan, so production
                // forwards never touch this lock.
                let stale = if plan.is_some() {
                    follower.held_delta.lock().take()
                } else {
                    None
                };
                if let Some(stale) = stale {
                    // A redelivery refused at the cap is simply lost again.
                    // `None` is what marks it stale (the only forward
                    // built without a tally): no receipt, and the legacy
                    // staging path.
                    let _ = group.pipes[k].push(QueuedForward {
                        delta: stale,
                        arrives,
                        tally: None,
                    });
                }
            }
            Ok((op, plan))
        };
        trace::finish(Stage::ForwardEnqueue, enqueue);
        // Lock released, the delta travelling (or refused): the local
        // commit is redeemed here on every path — the early returns above
        // included, so the server counts each request exactly once.
        let local = redeem();
        let (op, plan) = enqueued?;
        let response = local?;
        // One wait, for the quorum — not for the slowest follower: the
        // rest finish behind the ack. A front-door worker's seat serves
        // another request meanwhile.
        let quorum_wait = trace::start();
        let needed = group.write_quorum - 1; // the primary holds it
        let began = Instant::now();
        let expected = Duration::from_nanos(group.quorum_wait_ns.load(Ordering::Relaxed));
        let acked = 1 + frontdoor::parked(expected, || {
            tally.wait(needed, queued, began + ACK_WAIT_CAP)
        });
        group
            .quorum_wait_ns
            .store(began.elapsed().as_nanos() as u64, Ordering::Relaxed);
        trace::finish(Stage::QuorumAck, quorum_wait);
        if acked < group.write_quorum {
            return Err(ClusterError::QuorumLost {
                shard: id,
                acked,
                needed: group.write_quorum,
            });
        }
        if let Some(plan) = &plan {
            for kind in plan.take(id, op, FaultSite::AfterQuorum) {
                match kind {
                    FaultKind::CrashAfterQuorum => {
                        // The write is quorum-acked, so the failover
                        // election must (and does) preserve it.
                        group.quarantine_replica(
                            pidx,
                            "fault: primary crashed after the quorum ack".into(),
                        );
                    }
                    FaultKind::CounterRollback { replica, to } => {
                        if let Some(r) = group.replicas.get(replica) {
                            // The ack was the quorum's: the victim's own
                            // receipt for this mutation may still be on its
                            // way and would raise the token again behind
                            // the rollback. Land it first — the victim's
                            // channel only: the other followers' deltas,
                            // and faults pending on their channels, are
                            // none of this fault's business.
                            let _forward = group.forward_lock.lock();
                            group.drain_pipe(replica, false);
                            r.applied.store(to, Ordering::Release);
                        }
                    }
                    _ => {}
                }
            }
        }
        Ok(response)
    }

    // ------------------------------------------------------------------
    // Rebalancing
    // ------------------------------------------------------------------

    /// Adds a single-replica shard, migrating every policy the new ring
    /// assigns to it. The joining `server` must wrap a fresh engine; pass
    /// its commit counter (if strict) so health checks can watch it.
    ///
    /// # Errors
    /// See [`ClusterRouter::add_replicated_shard`].
    pub fn add_shard(
        &self,
        id: ShardId,
        server: TmsServer,
        counter: Option<Arc<BatchedCounter>>,
    ) -> Result<ShardPlan> {
        self.add_replicated_shard(id, vec![(server, counter)], 1)
    }

    /// Adds a replicated shard: `replicas[0]` starts as the primary, the
    /// rest as synchronously mirrored followers, and every mutation needs
    /// `write_quorum` acks (primary included) before it returns. All
    /// replica servers must wrap fresh engines.
    ///
    /// Warm-copies under the read lock (traffic keeps flowing), then takes
    /// the cutover barrier only to reconcile deltas and swap the ring —
    /// see the module docs for the protocol and its failure atomicity.
    ///
    /// # Errors
    /// [`ClusterError::ShardExists`], [`ClusterError::BadReplicaSet`], or
    /// engine errors from before the ring swap (the topology is then
    /// unchanged).
    pub fn add_replicated_shard(
        &self,
        id: ShardId,
        replicas: Vec<(TmsServer, Option<Arc<BatchedCounter>>)>,
        write_quorum: usize,
    ) -> Result<ShardPlan> {
        if replicas.is_empty() {
            return Err(ClusterError::BadReplicaSet("no replicas".into()));
        }
        if write_quorum == 0 || write_quorum > replicas.len() {
            return Err(ClusterError::BadReplicaSet(format!(
                "write quorum {write_quorum} outside 1..={}",
                replicas.len()
            )));
        }
        if replicas.len() as u64 > SESSION_ID_STRIDE {
            return Err(ClusterError::BadReplicaSet(format!(
                "replica count {} exceeds the session-id partition width {SESSION_ID_STRIDE}",
                replicas.len()
            )));
        }
        let group = ReplicaSet::new(
            replicas
                .into_iter()
                .map(|(server, counter)| Replica::new(server, counter))
                .collect(),
            write_quorum,
            Arc::clone(&self.pipeline),
            u64::from(id.0),
            Arc::clone(self.telemetry.flight()),
        );
        // Replicated groups capture per-mutation change sets on every
        // engine (any replica can be seated as the forwarding primary);
        // single-replica shards skip the capture cost entirely. Each
        // replica also allocates session ids from its own residue class
        // so attestation can seat on any of them without collisions.
        if group.replicas.len() > 1 {
            for r in &group.replicas {
                r.engine().enable_change_capture();
            }
            partition_session_ids(&group.replicas);
        }
        let _gate = self.rebalance_gate.lock(); // one rebalance at a time

        // Warm phase (read lock): bulk-copy into the joining group, which
        // is not routable yet — errors abort with nothing observable.
        let mut warm: HashMap<String, PolicyRecords> = HashMap::new();
        {
            let topo = self.topology.read();
            if topo.shards.contains_key(&id) {
                return Err(ClusterError::ShardExists(id));
            }
            let mut next_ring = topo.ring.clone();
            next_ring.add_shard(id);
            for (&from, source) in &topo.shards {
                for policy in source.primary_engine().policy_names() {
                    if !moves_to(&topo.ring, &next_ring, &policy, from, id) {
                        continue;
                    }
                    if let Some(records) = install_policy(source.primary_engine(), &group, &policy)?
                    {
                        warm.insert(policy, records);
                    }
                }
            }
        }

        // Cutover barrier (write lock): re-install only what changed since
        // the warm pass, then swap the ring.
        let mut topo = self.topology.write();
        let mut next_ring = topo.ring.clone();
        next_ring.add_shard(id);
        let mut moves = Vec::new();
        for (&from, source) in &topo.shards {
            for policy in source.primary_engine().policy_names() {
                if !moves_to(&topo.ring, &next_ring, &policy, from, id) {
                    continue;
                }
                let records = source.primary_engine().export_policy_records(&policy);
                if records.is_empty() {
                    continue;
                }
                if warm.remove(&policy).as_ref() != Some(&records) {
                    group.group_install(&policy, &records)?;
                }
                moves.push(PolicyMove {
                    policy,
                    from,
                    to: id,
                });
            }
        }
        // Warm copies whose policy vanished mid-copy must not become
        // ghosts on the joining shard.
        for policy in warm.keys() {
            group.group_purge(policy)?;
        }

        topo.shards.insert(id, group);
        topo.ring = next_ring;
        for m in &moves {
            self.retire_source(&topo, m.from, &m.policy);
        }
        self.rebalances.fetch_add(1, Ordering::Relaxed);
        self.telemetry.flight().record(EventKind::MigrationCutover {
            added: Some(u64::from(id.0)),
            removed: None,
            moves: moves.len() as u64,
        });
        Ok(ShardPlan {
            added: Some(id),
            removed: None,
            moves,
        })
    }

    /// Adds a replacement follower to an existing group: the new engine
    /// is converged onto the current primary (every record set, the
    /// session and approval tables — see the `repair` module) and joins
    /// the write quorum. Returns its replica index. The configured write
    /// quorum is unchanged.
    ///
    /// # Errors
    /// [`ClusterError::NoSuchShard`], or engine errors from the
    /// convergence (the group is then unchanged — a half-synced replica
    /// never joins).
    pub fn add_replica(
        &self,
        id: ShardId,
        server: TmsServer,
        counter: Option<Arc<BatchedCounter>>,
    ) -> Result<usize> {
        // Write lock: the replica vector grows, and the barrier guarantees
        // no forward is in flight while the newcomer copies state.
        let mut topo = self.topology.write();
        let group = topo
            .shards
            .get_mut(&id)
            .ok_or(ClusterError::NoSuchShard(id))?;
        if group.replicas.len() as u64 >= SESSION_ID_STRIDE {
            return Err(ClusterError::BadReplicaSet(format!(
                "replica count {} exceeds the session-id partition width {SESSION_ID_STRIDE}",
                group.replicas.len() + 1
            )));
        }
        let replica = Arc::new(Replica::new(server, counter));
        // Out of service until converged: a joining engine is verified by
        // digest and rebuilt like a quarantined one (it may have been
        // restored from anybody's old storage).
        replica.quarantine("joining".into());
        // The newcomer's session-id residue class is fixed *before* the
        // sessions mirror over so the live ones it imports advance only
        // its own class counter (peer-class ids are not confusable with
        // its future allocations).
        replica
            .engine()
            .set_session_id_range(group.replicas.len() as u64 + 1, SESSION_ID_STRIDE);
        let done = converge(group, &replica).map_err(ClusterError::Engine)?;
        note_catch_up(group, group.replicas.len(), &done);
        replica.rejoin();
        group.roster.lock().push(Arc::clone(&replica));
        group.replicas.push(replica);
        // Every replica gets a forward channel (covers the R=1 → 2
        // upgrade, where replica 0 needs one too).
        group.spawn_pipes();
        // The group is (now) replicated: every engine must capture what
        // its mutations change, since any replica may be seated as the
        // delta-forwarding primary later. Partitioning the session-id
        // space covers the R=1 -> 2 upgrade: replica 0 switches from the
        // default (1, 1) range to class (1, 64), which is monotone (the
        // next id in the new class is never below one it already issued).
        if group.replicas.len() > 1 {
            for r in &group.replicas {
                r.engine().enable_change_capture();
            }
            partition_session_ids(&group.replicas);
        }
        Ok(group.replicas.len() - 1)
    }

    /// Drains a shard: migrates every policy the ring routes to it onto
    /// the shard the ring-without-it assigns, revokes its sessions, and
    /// removes it. Same warm-copy + cutover-barrier protocol as
    /// [`ClusterRouter::add_shard`]; during the warm phase the aggregate
    /// `PolicyCount` may transiently over-count (live targets hold
    /// not-yet-routed warm copies).
    ///
    /// # Errors
    /// [`ClusterError::NoSuchShard`], [`ClusterError::LastShard`], or
    /// engine errors from before the ring swap (the topology is then
    /// unchanged and warm copies are purged best-effort).
    pub fn drain_shard(&self, id: ShardId) -> Result<ShardPlan> {
        let _gate = self.rebalance_gate.lock(); // one rebalance at a time

        // Warm phase (read lock): bulk-copy onto the surviving groups.
        // `warm` remembers each policy's target so a failed drain can
        // clean up after itself.
        let mut warm: HashMap<String, (ShardId, PolicyRecords)> = HashMap::new();
        let warm_result = (|| -> Result<()> {
            let topo = self.topology.read();
            if !topo.shards.contains_key(&id) {
                return Err(ClusterError::NoSuchShard(id));
            }
            if topo.shards.len() == 1 {
                return Err(ClusterError::LastShard);
            }
            let mut next_ring = topo.ring.clone();
            next_ring.remove_shard(id);
            let source = topo.shards[&id].primary_engine();
            for policy in source.policy_names() {
                if topo.ring.route(&policy) != Some(id) {
                    continue; // unrouted leftover; dropped with the shard
                }
                let to = next_ring.route(&policy).ok_or(ClusterError::NoShards)?;
                if let Some(records) = install_policy(source, &topo.shards[&to], &policy)? {
                    warm.insert(policy, (to, records));
                }
            }
            Ok(())
        })();
        if let Err(e) = warm_result {
            self.purge_warm_copies(&warm);
            return Err(e);
        }

        // Cutover barrier: reconcile deltas, swap the ring, retire.
        let mut topo = self.topology.write();
        let mut next_ring = topo.ring.clone();
        next_ring.remove_shard(id);
        let source = Arc::clone(topo.shards[&id].primary_engine());
        let mut moves = Vec::new();
        for policy in source.policy_names() {
            if topo.ring.route(&policy) != Some(id) {
                continue;
            }
            let Some(to) = next_ring.route(&policy) else {
                continue;
            };
            let records = source.export_policy_records(&policy);
            if records.is_empty() {
                continue;
            }
            let fresh = warm.remove(&policy).map(|(_, r)| r).as_ref() != Some(&records);
            let reconcile = if fresh {
                topo.shards[&to].group_install(&policy, &records)
            } else {
                Ok(())
            };
            if let Err(e) = reconcile {
                drop(topo); // release the barrier before cleaning up
                self.purge_warm_copies(&warm);
                return Err(e);
            }
            moves.push(PolicyMove {
                policy,
                from: id,
                to,
            });
        }
        // Warm copies whose policy vanished mid-copy must not become
        // ghosts on their targets.
        let stale: HashMap<_, _> = warm;
        self.purge_warm_copies_locked(&topo, &stale);

        topo.ring = next_ring;
        for m in &moves {
            self.retire_source(&topo, id, &m.policy);
        }
        topo.shards.remove(&id);
        self.sessions.write().retain(|_, b| b.shard != id);
        self.rebalances.fetch_add(1, Ordering::Relaxed);
        self.telemetry.flight().record(EventKind::MigrationCutover {
            added: None,
            removed: Some(u64::from(id.0)),
            moves: moves.len() as u64,
        });
        Ok(ShardPlan {
            added: None,
            removed: Some(id),
            moves,
        })
    }

    /// Best-effort removal of warm copies after a failed drain (acquires
    /// the topology read lock itself).
    fn purge_warm_copies(&self, warm: &HashMap<String, (ShardId, PolicyRecords)>) {
        let topo = self.topology.read();
        self.purge_warm_copies_locked(&topo, warm);
    }

    fn purge_warm_copies_locked(
        &self,
        topo: &Topology,
        warm: &HashMap<String, (ShardId, PolicyRecords)>,
    ) {
        for (policy, (to, _)) in warm {
            if let Some(group) = topo.shards.get(to) {
                let _ = group.group_purge(policy);
            }
        }
    }

    /// Closes the source-side sessions of a migrated policy (on every
    /// replica — the group mirrors its session table), drops their router
    /// bindings, and purges the policy's records group-wide. Runs after
    /// the ring swap, so it is best-effort: a failed purge leaves unrouted
    /// leftovers that later rebalance plans skip (only policies the
    /// current ring routes to a shard ever migrate from it) — wasted
    /// space, never overwritten live data.
    fn retire_source(&self, topo: &Topology, from: ShardId, policy: &str) {
        let Some(group) = topo.shards.get(&from) else {
            return;
        };
        let locals = group.primary_engine().sessions_for_policy(policy);
        if !locals.is_empty() {
            for replica in &group.replicas {
                for &sid in &locals {
                    replica.engine().close_session(sid);
                }
            }
            self.sessions
                .write()
                .retain(|_, b| !(b.shard == from && locals.contains(&b.local)));
        }
        let _ = group.group_purge(policy);
    }

    // ------------------------------------------------------------------
    // Health
    // ------------------------------------------------------------------

    /// Probes every replica of every group and watches its rollback
    /// counters; quarantines misbehaving (Byzantine) replicas, failing the
    /// group over when the primary is hit. Returns the per-shard verdicts
    /// in shard-id order. A quarantined replica stays quarantined until
    /// [`ClusterRouter::reinstate`] (or until an attached monitor heals
    /// it).
    ///
    /// The probe sweep runs against a snapshot of the replica handles
    /// with the topology lock **released**, so a replica wedged
    /// mid-probe stalls only this sweep — never `add_shard` /
    /// `drain_shard`, which need the topology write lock. Verdicts are
    /// applied under a fresh read lock; a shard drained mid-sweep is
    /// skipped.
    pub fn health_check(&self) -> Vec<ShardHealth> {
        // Phase 1: snapshot the group handles (`Arc` clones keep the
        // replicas alive across a concurrent drain).
        let handles: Vec<(ShardId, Vec<Arc<Replica>>)> = {
            let topo = self.topology.read();
            let mut ids: Vec<ShardId> = topo.shards.keys().copied().collect();
            ids.sort_unstable();
            ids.into_iter()
                .map(|id| (id, topo.shards[&id].replicas.to_vec()))
                .collect()
        };
        // Phase 2: probe with no router lock held.
        type Probed = Vec<(ShardId, Vec<(Arc<Replica>, Option<String>)>)>;
        let probed: Probed = handles
            .into_iter()
            .map(|(id, replicas)| {
                (
                    id,
                    replicas
                        .into_iter()
                        .map(|r| {
                            let verdict = probe_replica(&r);
                            (r, verdict)
                        })
                        .collect(),
                )
            })
            .collect();
        // Phase 3: apply the verdicts and assemble the report under a
        // fresh read lock.
        let topo = self.topology.read();
        let mut out = Vec::with_capacity(probed.len());
        for (id, verdicts) in probed {
            let Some(group) = topo.shards.get(&id) else {
                continue; // drained mid-sweep
            };
            let mut replicas = Vec::with_capacity(verdicts.len());
            for (k, (handle, verdict)) in verdicts.into_iter().enumerate() {
                // `add_replica` only appends, so index `k` still names
                // the probed replica unless the shard was drained and
                // re-added mid-sweep — the pointer check covers that.
                let live = group
                    .replicas
                    .get(k)
                    .is_some_and(|r| Arc::ptr_eq(r, &handle));
                if live {
                    if let Some(reason) = verdict {
                        group.quarantine_replica(k, reason);
                    }
                }
                replicas.push(ReplicaHealth {
                    replica: k,
                    primary: false, // seated below, once the loop settled
                    healthy: handle.is_in_quorum(),
                    in_quorum: handle.is_in_quorum(),
                    applied: handle.applied.load(Ordering::Acquire),
                    reason: handle.reason.lock().clone(),
                });
            }
            let pidx = group.primary_idx();
            if let Some(r) = replicas.get_mut(pidx) {
                r.primary = true;
            }
            let seat = &group.replicas[pidx];
            let healthy = !seat.is_quarantined();
            out.push(ShardHealth {
                id,
                healthy,
                reason: seat.reason.lock().clone(),
                replicas,
            });
        }
        out
    }

    /// Manually quarantines a shard's current primary, failing over to the
    /// freshest in-quorum follower when one exists. Quarantining an
    /// already-quarantined shard preserves the original reason and appends
    /// the new one. Returns `None` for unknown shards; otherwise the
    /// failover outcome, so callers can tell "new primary seated" from
    /// "group went dark" (which also records an
    /// [`EventKind::GroupDark`] flight event) instead of discovering the
    /// dark group at their next request.
    pub fn quarantine(&self, id: ShardId, reason: &str) -> Option<QuarantineOutcome> {
        let topo = self.topology.read();
        let group = topo.shards.get(&id)?;
        Some(
            match group.quarantine_primary(format!("operator: {reason}")) {
                Some(new_primary) => QuarantineOutcome::FailedOver { new_primary },
                None => QuarantineOutcome::GroupDark,
            },
        )
    }

    /// Lifts every quarantine in a group (after the operator repaired or
    /// replaced the replicas): the one heal sequence
    /// (`ReplicaSet::heal`, see the `repair` module) over **all** its
    /// replicas — channels repaired and drained, a dark seat moved to the
    /// freshest surviving state, every quarantined or lagging replica
    /// converged onto the seat before it rejoins the write quorum with
    /// its counter watches reset. Returns false for unknown shards.
    pub fn reinstate(&self, id: ShardId) -> bool {
        let topo = self.topology.read();
        let Some(group) = topo.shards.get(&id) else {
            return false;
        };
        let _forward = group.forward_lock.lock(); // no forwards mid-resync
        group.heal(|_| true);
        true
    }

    // ------------------------------------------------------------------
    // Monitor hooks (crate-internal: `ClusterMonitor` drives these)
    // ------------------------------------------------------------------

    /// One anti-entropy pass over shard `id` (monitor-driven). Under the
    /// group's forward lock — so no mutation can interleave — wedged
    /// channels are force-fenced first (the sweep cadence *is* the
    /// bounded stall tolerance, and repairing around a queued delta would
    /// only be re-broken when it lands), then every live follower is
    /// converged onto the seat by the one repair ladder (`converge`, see
    /// the `repair` module): divergence is healed *now*, with one follower
    /// sync, instead of at the next mutation's chain check. Each repair is
    /// flight-recorded; a quorum-demoted follower that converged is
    /// re-admitted to the write quorum, one whose repair failed is
    /// demoted with the cause. Dark groups are
    /// [`ClusterRouter::heal_dark_shard`]'s job. Returns the pass's
    /// `(repairs, re-admissions)` for the monitor's tick report.
    pub(crate) fn anti_entropy_sweep(&self, id: ShardId) -> (u64, u64) {
        let topo = self.topology.read();
        let Some(group) = topo.shards.get(&id) else {
            return (0, 0);
        };
        let _forward = group.forward_lock.lock();
        if !group.is_routable() {
            return (0, 0); // dark group — no sane state to converge onto
        }
        let live = |k: usize| !group.replicas[k].is_quarantined();
        group.fence(live);
        let (mut repairs, mut readmitted) = (0, 0);
        for (k, follower) in group.replicas.iter().enumerate() {
            if k == group.primary_idx() || !live(k) {
                continue;
            }
            let done = match converge(group, follower) {
                Ok(done) => done,
                Err(e) => {
                    let why = format!("demoted: anti-entropy repair failed: {e}");
                    group.demote(k, follower, why);
                    continue;
                }
            };
            repairs += done.repairs.len() as u64;
            for (policy, from, to, method) in done.repairs {
                group.flight.record(EventKind::AntiEntropyRepair {
                    shard: group.shard,
                    replica: k,
                    policy,
                    from,
                    to,
                    method,
                });
            }
            if !follower.is_in_quorum() {
                follower.rejoin();
                group.note_readmit(k);
                readmitted += 1;
            }
        }
        (repairs, readmitted)
    }

    /// Rebuilds one quarantined replica from the quorum's state and
    /// rejoins it — the monitor's probation heal: the one heal sequence
    /// over replica `k` only. The replica must answer a probe first
    /// (rejoining an engine that cannot serve would only flap), and its
    /// previous state is discarded wholesale: a Byzantine (rolled-back)
    /// replica re-enters with the group's state, never its own. Returns
    /// true when the replica rejoined.
    pub(crate) fn heal_quarantined(&self, id: ShardId, k: usize) -> bool {
        let topo = self.topology.read();
        let Some(group) = topo.shards.get(&id) else {
            return false;
        };
        let Some(replica) = group.replicas.get(k) else {
            return false;
        };
        if !replica.is_quarantined() || replica.server.handle(TmsRequest::PolicyCount).is_err() {
            return false;
        }
        let _forward = group.forward_lock.lock();
        if !group.is_routable() {
            return false; // a dark seat is heal_dark_shard's job
        }
        group.heal(|i| i == k);
        let healed = replica.is_in_quorum();
        if healed {
            group.note_readmit(k);
        }
        healed
    }

    /// Dark-group recovery (the monitor's `reinstate`): when a group's
    /// seat is quarantined with no successor seated, the one heal
    /// sequence over the **probe-answering** replicas. Replicas that fail
    /// their probe stay quarantined for a later probation heal. Returns
    /// the seated primary when the group came back, `None` while it stays
    /// dark.
    pub(crate) fn heal_dark_shard(&self, id: ShardId) -> Option<usize> {
        let topo = self.topology.read();
        let group = topo.shards.get(&id)?;
        let _forward = group.forward_lock.lock();
        if group.is_routable() {
            return None; // not dark (or healed since the caller looked)
        }
        let dark = group.primary_idx();
        let fit: Vec<bool> = group
            .replicas
            .iter()
            .map(|r| r.server.handle(TmsRequest::PolicyCount).is_ok())
            .collect();
        group.heal(|k| fit[k]);
        let seat = group.is_routable().then(|| group.primary_idx())?;
        group.flight.record(EventKind::AutoFailover {
            shard: group.shard,
            deposed: dark,
            winner: seat,
            reason: "dark-group recovery".into(),
        });
        Some(seat)
    }

    /// Aggregated per-shard statistics.
    pub fn stats(&self) -> ClusterStats {
        let topo = self.topology.read();
        let mut ids: Vec<ShardId> = topo.shards.keys().copied().collect();
        ids.sort_unstable();
        ClusterStats {
            shards: ids
                .into_iter()
                .map(|id| {
                    let group = &topo.shards[&id];
                    let pidx = group.primary_idx();
                    ShardStats {
                        id,
                        healthy: group.is_routable(),
                        policies: group.primary_engine().policy_count(),
                        sessions: group.primary_engine().session_count(),
                        server: group.replicas[pidx].server.stats(),
                        replicas: group.replicas.len(),
                        in_quorum: group.replicas.iter().filter(|r| r.is_in_quorum()).count(),
                        primary: pidx,
                        failovers: group.failovers.load(Ordering::Relaxed),
                        replication: group.telemetry.snapshot(),
                        queue_depths: group.pipes.iter().map(|p| p.depth()).collect(),
                    }
                })
                .collect(),
            rebalances: self.rebalances.load(Ordering::Relaxed),
        }
    }
}

/// A shared router as a [`Door`]: a `FrontDoor<ClusterDoor>` pool
/// multiplexes callers over the whole cluster, and with the router's
/// [`Telemetry`] installed each request's trace crosses queue wait,
/// engine apply, counter commit, forward enqueue and quorum ack.
/// (A newtype because the orphan rule forbids `impl Door for
/// Arc<ClusterRouter>` outside the `Door`-defining crate.)
#[derive(Clone)]
pub struct ClusterDoor(pub Arc<ClusterRouter>);

impl From<Arc<ClusterRouter>> for ClusterDoor {
    fn from(router: Arc<ClusterRouter>) -> ClusterDoor {
        ClusterDoor(router)
    }
}

impl Door for ClusterDoor {
    type Error = ClusterError;

    fn call(&self, request: TmsRequest) -> std::result::Result<TmsResponse, ClusterError> {
        self.0.handle(request)
    }
}

/// True when `policy`, stored on `from`, must migrate to `to` under the
/// next ring: the *current* ring must actually route it to `from` (stale
/// leftovers of a failed retirement never migrate — the live owner does)
/// and the next ring must hand it to `to`.
fn moves_to(
    ring: &HashRing,
    next_ring: &HashRing,
    policy: &str,
    from: ShardId,
    to: ShardId,
) -> bool {
    ring.route(policy) == Some(from) && next_ring.route(policy) == Some(to)
}

/// Copies one policy's records from `source` onto every live replica of
/// `target` (purging any stale copy first) and returns them for the later
/// delta check. `None` when the policy vanished (deleted while planning) —
/// nothing to move.
fn install_policy(
    source: &Palaemon,
    target: &ReplicaSet,
    policy: &str,
) -> Result<Option<PolicyRecords>> {
    let records = source.export_policy_records(policy);
    if records.is_empty() {
        return Ok(None);
    }
    target.group_install(policy, &records)?;
    Ok(Some(records))
}

/// Rewrites a session-keyed request to carry the shard-local session id.
fn localize_session(request: TmsRequest, local: SessionId) -> TmsRequest {
    match request {
        TmsRequest::PushTag {
            volume, tag, event, ..
        } => TmsRequest::PushTag {
            session: local,
            volume,
            tag,
            event,
        },
        TmsRequest::ReadTag { volume, .. } => TmsRequest::ReadTag {
            session: local,
            volume,
        },
        TmsRequest::CloseSession { .. } => TmsRequest::CloseSession { session: local },
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::PlannedFault;
    use palaemon_core::board::{PolicyAction, Stakeholder};
    use palaemon_core::counterfile::MemFileCounter;
    use palaemon_core::policy::Policy;
    use palaemon_crypto::aead::AeadKey;
    use palaemon_crypto::sig::SigningKey;
    use palaemon_crypto::Digest;
    use palaemon_db::Db;
    use shielded_fs::fs::TagEvent;
    use shielded_fs::store::{BlockStore, BufferedStore, MemStore};
    use tee_sim::platform::{Microcode, Platform};
    use tee_sim::quote::{create_report, quote_report};

    const MRE: [u8; 32] = [0x61; 32];

    fn engine(seed: &[u8]) -> Arc<Palaemon> {
        let db =
            Db::create(Box::new(MemStore::new()), AeadKey::from_bytes([9; 32])).expect("create db");
        Arc::new(Palaemon::new(
            db,
            SigningKey::from_seed(seed),
            Digest::ZERO,
            5,
        ))
    }

    fn fresh_shard(platform: &Platform, tag: u32) -> (TmsServer, Arc<BatchedCounter>) {
        let engine = engine(format!("shard-{tag}").as_bytes());
        engine.register_platform(platform.id(), platform.qe_verifying_key());
        strict_shard(engine, MemFileCounter::new())
    }

    fn cluster(shards: u32, platform: &Platform) -> ClusterRouter {
        let router = ClusterRouter::new(42, 64);
        for i in 0..shards {
            let (server, counter) = fresh_shard(platform, i);
            router.add_shard(ShardId(i), server, Some(counter)).unwrap();
        }
        router
    }

    fn owner() -> palaemon_crypto::sig::VerifyingKey {
        SigningKey::from_seed(b"cluster-owner").verifying_key()
    }

    fn create_policy(router: &ClusterRouter, name: &str) {
        let policy = Policy::parse(&format!(
            "name: {name}\nservices:\n  - name: app\n    mrenclaves: [\"{}\"]\n    \
             volumes: [\"data\"]\nvolumes:\n  - name: data\n",
            Digest::from_bytes(MRE).to_hex()
        ))
        .unwrap();
        router
            .handle(TmsRequest::CreatePolicy {
                owner: owner(),
                policy: Box::new(policy),
                approval: None,
                votes: Vec::new(),
            })
            .unwrap();
    }

    fn attest(router: &ClusterRouter, platform: &Platform, policy: &str) -> SessionId {
        let binding = [0u8; 64];
        let report = create_report(platform, Digest::from_bytes(MRE), binding);
        let quote = quote_report(platform, &report).unwrap();
        match router
            .handle(TmsRequest::AttestService {
                quote: Box::new(quote),
                tls_key_binding: binding,
                policy_name: policy.into(),
                service_name: "app".into(),
            })
            .unwrap()
        {
            TmsResponse::Config(config) => config.session,
            other => panic!("expected Config, got {other:?}"),
        }
    }

    fn push(router: &ClusterRouter, session: SessionId, byte: u8) {
        router
            .handle(TmsRequest::PushTag {
                session,
                volume: "data".into(),
                tag: Digest::from_bytes([byte; 32]),
                event: TagEvent::Sync,
            })
            .unwrap();
    }

    fn count(router: &ClusterRouter, request: TmsRequest) -> usize {
        match router.handle(request).unwrap() {
            TmsResponse::Count(n) => n,
            other => panic!("expected Count, got {other:?}"),
        }
    }

    #[test]
    fn empty_router_refuses() {
        let router = ClusterRouter::new(1, 8);
        assert!(matches!(
            router.handle(TmsRequest::PolicyCount),
            Err(ClusterError::NoShards)
        ));
    }

    #[test]
    fn policies_spread_across_shards_and_stay_readable() {
        let platform = Platform::new("cl-host", Microcode::PostForeshadow);
        let router = cluster(4, &platform);
        let names: Vec<String> = (0..12).map(|i| format!("tenant-{i}")).collect();
        for name in &names {
            create_policy(&router, name);
        }
        assert_eq!(count(&router, TmsRequest::PolicyCount), 12);
        // Each policy is stored exactly where the ring says, and readable.
        for name in &names {
            let home = router.shard_for_policy(name).unwrap();
            assert!(router.engine(home).unwrap().policy_names().contains(name));
            match router
                .handle(TmsRequest::ReadPolicy {
                    name: name.clone(),
                    client: owner(),
                    approval: None,
                    votes: Vec::new(),
                })
                .unwrap()
            {
                TmsResponse::Policy(p) => assert_eq!(&p.name, name),
                other => panic!("expected policy, got {other:?}"),
            }
        }
        // 12 policies over 4 shards: the ring must actually spread them.
        let occupied = router
            .shard_ids()
            .into_iter()
            .filter(|&id| router.engine(id).unwrap().policy_count() > 0)
            .count();
        assert!(occupied >= 2, "ring routed every policy to one shard");
    }

    #[test]
    fn sessions_are_pinned_and_cluster_ids_never_collide() {
        let platform = Platform::new("cl-host", Microcode::PostForeshadow);
        let router = cluster(2, &platform);
        // Find two policies living on different shards.
        let mut by_shard: HashMap<ShardId, String> = HashMap::new();
        for i in 0..64 {
            let name = format!("pin-{i}");
            by_shard
                .entry(router.shard_for_policy(&name).unwrap())
                .or_insert(name);
            if by_shard.len() == 2 {
                break;
            }
        }
        assert_eq!(by_shard.len(), 2, "need policies on both shards");
        let names: Vec<String> = by_shard.values().cloned().collect();
        for name in &names {
            create_policy(&router, name);
        }
        // Each shard allocates local session id 1; the router must still
        // hand out distinct cluster ids.
        let s0 = attest(&router, &platform, &names[0]);
        let s1 = attest(&router, &platform, &names[1]);
        assert_ne!(s0, s1);
        assert_eq!(count(&router, TmsRequest::SessionCount), 2);
        push(&router, s0, 1);
        push(&router, s1, 2);
        for (s, byte) in [(s0, 1u8), (s1, 2u8)] {
            match router
                .handle(TmsRequest::ReadTag {
                    session: s,
                    volume: "data".into(),
                })
                .unwrap()
            {
                TmsResponse::Tag(Some(rec)) => {
                    assert_eq!(rec.tag, Digest::from_bytes([byte; 32]));
                }
                other => panic!("expected tag, got {other:?}"),
            }
        }
        router
            .handle(TmsRequest::CloseSession { session: s0 })
            .unwrap();
        assert_eq!(count(&router, TmsRequest::SessionCount), 1);
        // The closed (and any unknown) session is gone.
        assert!(matches!(
            router.handle(TmsRequest::ReadTag {
                session: s0,
                volume: "data".into()
            }),
            Err(ClusterError::Engine(PalaemonError::NoSuchSession))
        ));
    }

    #[test]
    fn mutations_commit_on_per_shard_counters() {
        let platform = Platform::new("cl-host", Microcode::PostForeshadow);
        let router = cluster(4, &platform);
        let names: Vec<String> = (0..16).map(|i| format!("ctr-{i}")).collect();
        for name in &names {
            create_policy(&router, name);
        }
        let stats = router.stats();
        assert_eq!(stats.total_ops_committed(), 16);
        // Every shard that stores policies committed them on its *own*
        // counter — the per-shard distribution the bench also reports.
        for shard in &stats.shards {
            let counter = shard.server.counter.unwrap();
            assert_eq!(counter.ops_committed, shard.policies as u64);
        }
        assert!(stats.total_increments() > 0);
    }

    #[test]
    fn add_shard_migrates_exactly_the_stolen_policies() {
        let platform = Platform::new("cl-host", Microcode::PostForeshadow);
        let router = cluster(3, &platform);
        let names: Vec<String> = (0..18).map(|i| format!("mig-{i}")).collect();
        for name in &names {
            create_policy(&router, name);
        }
        let before: HashMap<String, ShardId> = names
            .iter()
            .map(|n| (n.clone(), router.shard_for_policy(n).unwrap()))
            .collect();
        // One live session per policy, to observe revocation.
        let sessions: HashMap<String, SessionId> = names
            .iter()
            .map(|n| (n.clone(), attest(&router, &platform, n)))
            .collect();

        let (server, counter) = fresh_shard(&platform, 3);
        let plan = router.add_shard(ShardId(3), server, Some(counter)).unwrap();
        assert!(!plan.moves.is_empty(), "a 4th shard must steal something");
        assert!(plan.moves.iter().all(|m| m.to == ShardId(3)));

        let moved: Vec<&String> = names
            .iter()
            .filter(|n| router.shard_for_policy(n) == Some(ShardId(3)))
            .collect();
        assert_eq!(
            plan.moves.len(),
            moved.len(),
            "plan must cover exactly the stolen policies"
        );
        for name in &names {
            let now = router.shard_for_policy(name).unwrap();
            if now != ShardId(3) {
                // Minimal disruption: unmoved policies kept their shard.
                assert_eq!(now, before[name], "policy {name} moved between old shards");
            }
            // Every policy — moved or not — stays readable.
            assert!(matches!(
                router.handle(TmsRequest::ReadPolicy {
                    name: name.clone(),
                    client: owner(),
                    approval: None,
                    votes: Vec::new(),
                }),
                Ok(TmsResponse::Policy(_))
            ));
            // The source no longer stores a migrated policy.
            if now == ShardId(3) {
                assert!(!router
                    .engine(before[name])
                    .unwrap()
                    .policy_names()
                    .contains(name));
            }
            // Sessions of migrated policies were revoked; others survive.
            let read = router.handle(TmsRequest::ReadTag {
                session: sessions[name],
                volume: "data".into(),
            });
            if now == ShardId(3) {
                assert!(
                    matches!(
                        read,
                        Err(ClusterError::Engine(PalaemonError::NoSuchSession))
                    ),
                    "migrated policy {name} must force re-attestation"
                );
            } else {
                assert!(read.is_ok(), "unmoved session {name} must survive");
            }
        }
        assert_eq!(count(&router, TmsRequest::PolicyCount), 18);
        // 3 bootstrap adds + this expansion.
        assert_eq!(router.stats().rebalances, 4);
        // Re-adding the same shard id is refused.
        let (server, _) = fresh_shard(&platform, 9);
        assert!(matches!(
            router.add_shard(ShardId(3), server, None),
            Err(ClusterError::ShardExists(ShardId(3)))
        ));
    }

    #[test]
    fn drain_shard_redistributes_and_removes() {
        let platform = Platform::new("cl-host", Microcode::PostForeshadow);
        let router = cluster(3, &platform);
        let names: Vec<String> = (0..15).map(|i| format!("dr-{i}")).collect();
        for name in &names {
            create_policy(&router, name);
        }
        let plan = router.drain_shard(ShardId(1)).unwrap();
        assert_eq!(plan.removed, Some(ShardId(1)));
        assert!(plan.moves.iter().all(|m| m.from == ShardId(1)));
        assert_eq!(router.shard_count(), 2);
        assert!(router.engine(ShardId(1)).is_none());
        assert_eq!(count(&router, TmsRequest::PolicyCount), 15);
        for name in &names {
            assert_ne!(router.shard_for_policy(name), Some(ShardId(1)));
            assert!(matches!(
                router.handle(TmsRequest::ReadPolicy {
                    name: name.clone(),
                    client: owner(),
                    approval: None,
                    votes: Vec::new(),
                }),
                Ok(TmsResponse::Policy(_))
            ));
        }
        assert!(matches!(
            router.drain_shard(ShardId(1)),
            Err(ClusterError::NoSuchShard(ShardId(1)))
        ));
        router.drain_shard(ShardId(0)).unwrap();
        assert!(matches!(
            router.drain_shard(ShardId(2)),
            Err(ClusterError::LastShard)
        ));
    }

    fn versioned(name: &str, version: u32) -> Policy {
        Policy::parse(&format!(
            "name: {name}\nservices:\n  - name: app\n    mrenclaves: [\"{}\"]\n    \
             env:\n      VERSION: \"{version}\"\nvolumes: []\n",
            Digest::from_bytes(MRE).to_hex()
        ))
        .unwrap()
    }

    fn version_of(router: &ClusterRouter, name: &str) -> String {
        match router
            .handle(TmsRequest::ReadPolicy {
                name: name.into(),
                client: owner(),
                approval: None,
                votes: Vec::new(),
            })
            .unwrap()
        {
            TmsResponse::Policy(p) => p.services[0].env["VERSION"].clone(),
            other => panic!("expected policy, got {other:?}"),
        }
    }

    /// A stale leftover (the residue of a failed source purge) must never
    /// be treated as the live copy: rebalance plans skip it, and when its
    /// shard legitimately *receives* the policy, the live records replace
    /// it.
    #[test]
    fn stale_leftovers_never_overwrite_live_policies() {
        let platform = Platform::new("cl-host", Microcode::PostForeshadow);
        for drain_live_owner in [false, true] {
            let router = cluster(2, &platform);
            // A policy owned by shard 0.
            let name = (0..64)
                .map(|i| format!("stale-{i}"))
                .find(|n| router.shard_for_policy(n) == Some(ShardId(0)))
                .unwrap();
            router
                .handle(TmsRequest::CreatePolicy {
                    owner: owner(),
                    policy: Box::new(versioned(&name, 1)),
                    approval: None,
                    votes: Vec::new(),
                })
                .unwrap();
            // Plant v1 residue on shard 1 (as if a retirement purge had
            // failed there), then advance the live copy to v2.
            let residue = router
                .engine(ShardId(0))
                .unwrap()
                .export_policy_records(&name);
            router
                .engine(ShardId(1))
                .unwrap()
                .stage_policy_records(&name, &residue)
                .wait()
                .unwrap();
            router
                .handle(TmsRequest::UpdatePolicy {
                    client: owner(),
                    policy: Box::new(versioned(&name, 2)),
                    approval: None,
                    votes: Vec::new(),
                })
                .unwrap();

            if drain_live_owner {
                // Shard 0 drains: the live v2 migrates onto shard 1,
                // replacing the v1 residue there.
                let plan = router.drain_shard(ShardId(0)).unwrap();
                assert!(plan.moves.iter().any(|m| m.policy == name));
                assert_eq!(router.shard_for_policy(&name), Some(ShardId(1)));
            } else {
                // Shard 1 (the residue holder) drains: the residue is NOT
                // a live policy there, so it must not migrate back over
                // the live copy on shard 0.
                let plan = router.drain_shard(ShardId(1)).unwrap();
                assert!(plan.moves.iter().all(|m| m.policy != name));
            }
            assert_eq!(version_of(&router, &name), "2", "live copy must win");
            match router.handle(TmsRequest::PolicyCount).unwrap() {
                TmsResponse::Count(n) => assert_eq!(n, 1),
                other => panic!("expected count, got {other:?}"),
            }
        }
    }

    fn replicated_cluster(
        platform: &Platform,
        replicas: usize,
        quorum: usize,
    ) -> (ClusterRouter, ShardId) {
        let router = ClusterRouter::new(42, 64);
        let set: Vec<_> = (0..replicas)
            .map(|r| {
                let (server, counter) = fresh_shard(platform, 100 + r as u32);
                (server, Some(counter))
            })
            .collect();
        router
            .add_replicated_shard(ShardId(0), set, quorum)
            .unwrap();
        (router, ShardId(0))
    }

    #[test]
    fn bad_replica_sets_are_rejected() {
        let router = ClusterRouter::new(1, 8);
        assert!(matches!(
            router.add_replicated_shard(ShardId(0), Vec::new(), 1),
            Err(ClusterError::BadReplicaSet(_))
        ));
        let platform = Platform::new("cl-host", Microcode::PostForeshadow);
        for quorum in [0usize, 3] {
            let (server, counter) = fresh_shard(&platform, 50);
            assert!(matches!(
                router.add_replicated_shard(ShardId(0), vec![(server, Some(counter))], quorum),
                Err(ClusterError::BadReplicaSet(_))
            ));
        }
    }

    #[test]
    fn mutations_mirror_onto_followers_and_survive_failover() {
        let platform = Platform::new("cl-host", Microcode::PostForeshadow);
        let (router, id) = replicated_cluster(&platform, 3, 2);
        for i in 0..6 {
            create_policy(&router, &format!("rep-{i}"));
        }
        // Once the slower follower has landed them too, every follower
        // holds byte-identical records for every policy.
        assert!(router.flush_replication(id));
        let engines = router.replica_engines(id);
        assert_eq!(engines.len(), 3);
        for i in 0..6 {
            let name = format!("rep-{i}");
            let reference = engines[0].export_policy_records(&name);
            assert!(!reference.is_empty());
            for engine in &engines[1..] {
                assert_eq!(engine.export_policy_records(&name), reference);
            }
        }
        // A session attested on the primary is mirrored too.
        let session = attest(&router, &platform, "rep-0");
        push(&router, session, 9);

        let before = router.replica_status(id).unwrap();
        assert_eq!(before.primary, 0);
        assert_eq!(before.write_quorum, 2);
        assert!(before.replicas.iter().all(|r| r.in_quorum));

        // Quarantining the primary fails over instead of going dark.
        assert!(router.quarantine(id, "power cut").is_some());
        let after = router.replica_status(id).unwrap();
        assert_ne!(after.primary, 0, "a follower must take the seat");
        assert_eq!(after.failovers, 1);
        // All quorum-acked state — policies, tags, the session — serves.
        for i in 0..6 {
            assert!(matches!(
                router.handle(TmsRequest::ReadPolicy {
                    name: format!("rep-{i}"),
                    client: owner(),
                    approval: None,
                    votes: Vec::new(),
                }),
                Ok(TmsResponse::Policy(_))
            ));
        }
        match router
            .handle(TmsRequest::ReadTag {
                session,
                volume: "data".into(),
            })
            .unwrap()
        {
            TmsResponse::Tag(Some(rec)) => assert_eq!(rec.tag, Digest::from_bytes([9; 32])),
            other => panic!("expected mirrored tag, got {other:?}"),
        }
        // And new writes keep replicating through the new primary.
        push(&router, session, 10);
        create_policy(&router, "rep-after");
        let stats = router.stats();
        assert_eq!(stats.shards[0].replicas, 3);
        assert_eq!(stats.shards[0].in_quorum, 2);
        assert_eq!(stats.shards[0].failovers, 1);
        assert!(stats.shards[0].healthy);
        assert!(format!("{stats}").contains("R=3"));
    }

    #[test]
    fn incremental_deltas_ship_fewer_bytes_than_snapshots() {
        let platform = Platform::new("cl-host", Microcode::PostForeshadow);
        let (router, id) = replicated_cluster(&platform, 2, 2);
        create_policy(&router, "inc-0");
        let session = attest(&router, &platform, "inc-0");

        let before = router.stats().shards[0].replication;
        for i in 0..8 {
            push(&router, session, i);
        }
        let after = router.stats().shards[0].replication;
        let inc_deltas = after.incremental_deltas - before.incremental_deltas;
        let inc_bytes = after.incremental_bytes - before.incremental_bytes;
        assert_eq!(inc_deltas, 8, "one incremental per push per follower");
        assert_eq!(after.snapshot_deltas, before.snapshot_deltas);
        assert_eq!(
            after.snapshot_resyncs, 0,
            "a clean run never needs a resync"
        );

        // What the same eight pushes would have shipped as full snapshots
        // (the resync form), built directly from the primary's records.
        let engines = router.replica_engines(id);
        let token = router.replica_status(id).unwrap().replicas[0].applied;
        let snapshot = engines[0].export_policy_snapshot("inc-0", token);
        let snap_bytes = 8 * snapshot.wire_size() as u64;
        assert!(
            inc_bytes * 3 < snap_bytes,
            "a tag push must ship far fewer bytes incrementally \
             ({inc_bytes} B) than as a snapshot ({snap_bytes} B)"
        );
        assert_eq!(
            engines[0].export_policy_records("inc-0"),
            engines[1].export_policy_records("inc-0")
        );
    }

    #[test]
    fn quorum_reads_rotate_and_skip_stale_followers() {
        let platform = Platform::new("cl-host", Microcode::PostForeshadow);
        let (router, id) = replicated_cluster(&platform, 3, 2);
        create_policy(&router, "qr-0");
        let session = attest(&router, &platform, "qr-0");
        push(&router, session, 1);
        router.set_read_preference(ReadPreference::Quorum);
        assert_eq!(router.read_preference(), ReadPreference::Quorum);

        let read = |router: &ClusterRouter| match router
            .handle(TmsRequest::ReadTag {
                session,
                volume: "data".into(),
            })
            .unwrap()
        {
            TmsResponse::Tag(rec) => rec.expect("tag stored"),
            other => panic!("expected tag, got {other:?}"),
        };
        for _ in 0..12 {
            assert_eq!(read(&router).tag, Digest::from_bytes([1; 32]));
        }
        let repl = router.stats().shards[0].replication;
        assert!(
            repl.reads_follower >= 6,
            "followers must take most of the rotation: {repl:?}"
        );
        assert!(
            repl.reads_primary >= 1,
            "the primary keeps its slot in the rotation: {repl:?}"
        );

        // Lose a forward to follower 2 silently: it stays in the quorum
        // but its applied token lags the watermark, so the freshness check
        // must refuse to read from it — no read may see the old tag.
        let plan = FaultPlan::new([PlannedFault {
            shard: id,
            op: router.replica_status(id).unwrap().ops + 1,
            kind: FaultKind::LoseIncremental(2),
        }]);
        router.set_fault_plan(Arc::clone(&plan));
        push(&router, session, 2);
        assert!(plan.all_fired());
        let status = router.replica_status(id).unwrap();
        assert!(status.replicas[2].in_quorum, "a silent loss never demotes");
        assert!(status.replicas[2].applied < status.replicas[1].applied);
        for _ in 0..12 {
            assert_eq!(read(&router).tag, Digest::from_bytes([2; 32]));
        }
        let repl = router.stats().shards[0].replication;
        assert!(
            repl.freshness_rejections > 0,
            "the lagging follower must have been refused: {repl:?}"
        );

        // The next forward heals the gap (snapshot resync), after which
        // the follower serves again.
        push(&router, session, 3);
        assert!(router.flush_replication(id));
        let repl = router.stats().shards[0].replication;
        assert_eq!(repl.snapshot_resyncs, 1);
        let status = router.replica_status(id).unwrap();
        assert_eq!(status.replicas[2].applied, status.replicas[1].applied);
        for _ in 0..6 {
            assert_eq!(read(&router).tag, Digest::from_bytes([3; 32]));
        }
    }

    /// Regression test: a policy that predates the group's replication
    /// (created at R=1, no chain entry) must stay follower-servable after
    /// a replica joins — catch-up must not stamp it with a cursor the
    /// absent chain tail disagrees with.
    #[test]
    fn catch_up_of_chain_absent_policies_keeps_quorum_reads_available() {
        let platform = Platform::new("cl-host", Microcode::PostForeshadow);
        let router = ClusterRouter::new(42, 64);
        let (server, counter) = fresh_shard(&platform, 0);
        router.add_shard(ShardId(0), server, Some(counter)).unwrap();
        create_policy(&router, "pre-repl"); // unreplicated: no chain entry

        let (server, counter) = fresh_shard(&platform, 1);
        router
            .add_replica(ShardId(0), server, Some(counter))
            .unwrap();
        router.set_read_preference(ReadPreference::Quorum);
        for _ in 0..8 {
            assert!(matches!(
                router.handle(TmsRequest::ReadPolicy {
                    name: "pre-repl".into(),
                    client: owner(),
                    approval: None,
                    votes: Vec::new(),
                }),
                Ok(TmsResponse::Policy(_))
            ));
        }
        let repl = router.stats().shards[0].replication;
        assert_eq!(
            repl.freshness_rejections, 0,
            "a chain-absent policy must not read as stale: {repl:?}"
        );
        assert!(repl.reads_follower > 0, "{repl:?}");
        // And the caught-up replica is election-fit for it too.
        assert!(router.quarantine(ShardId(0), "chaos").is_some());
        let status = router.replica_status(ShardId(0)).unwrap();
        assert_eq!(status.primary, 1, "joined replica must take the seat");
    }

    /// Regression test: the quorum-read freshness check must be
    /// per-policy. A delta for policy A silently lost to a follower is
    /// masked at the *global* token level as soon as a later delta for
    /// policy B advances that follower's applied token to the watermark —
    /// only the per-policy chain cursor still shows the gap.
    #[test]
    fn quorum_reads_reject_per_policy_gaps_hidden_by_the_global_token() {
        let platform = Platform::new("cl-host", Microcode::PostForeshadow);
        let (router, id) = replicated_cluster(&platform, 3, 2);
        router.set_read_preference(ReadPreference::Quorum);
        let create_versioned = |name: &str, v: u32| {
            router
                .handle(TmsRequest::CreatePolicy {
                    owner: owner(),
                    policy: Box::new(versioned(name, v)),
                    approval: None,
                    votes: Vec::new(),
                })
                .unwrap();
        };
        let update_versioned = |name: &str, v: u32| {
            router
                .handle(TmsRequest::UpdatePolicy {
                    client: owner(),
                    policy: Box::new(versioned(name, v)),
                    approval: None,
                    votes: Vec::new(),
                })
                .unwrap();
        };
        create_versioned("gap-a", 1); // op 1
        create_versioned("gap-b", 1); // op 2
        let plan = FaultPlan::new([PlannedFault {
            shard: id,
            op: 3,
            kind: FaultKind::LoseIncremental(2),
        }]);
        router.set_fault_plan(Arc::clone(&plan));
        update_versioned("gap-a", 2); // op 3: follower 2 silently misses
        update_versioned("gap-b", 2); // op 4: follower 2 applies — its
                                      // global token reaches the watermark
        assert!(plan.all_fired());
        // An ack is the quorum's: let the slower follower land op 4 too.
        assert!(router.flush_replication(id));
        let status = router.replica_status(id).unwrap();
        assert_eq!(
            status.replicas[2].applied, status.replicas[1].applied,
            "the global token must NOT show the policy-A gap (that is the point)"
        );

        // Every quorum read of gap-a must still see v2: follower 2's
        // chain cursor for gap-a exposes the gap the global token hides.
        for _ in 0..9 {
            assert_eq!(version_of(&router, "gap-a"), "2", "stale acked-over read");
            assert_eq!(version_of(&router, "gap-b"), "2");
        }
        let repl = router.stats().shards[0].replication;
        assert!(
            repl.freshness_rejections > 0,
            "follower 2 must have been refused for gap-a: {repl:?}"
        );
        // gap-b reads are servable by every follower, so the rotation
        // still reaches followers.
        assert!(repl.reads_follower > 0, "{repl:?}");

        // The next gap-a mutation heals the chain (snapshot resync);
        // follower 2 serves gap-a again afterwards.
        update_versioned("gap-a", 3);
        assert!(router.flush_replication(id));
        assert_eq!(router.stats().shards[0].replication.snapshot_resyncs, 1);
        for _ in 0..6 {
            assert_eq!(version_of(&router, "gap-a"), "3");
        }
    }

    /// Regression test: quarantining an already-quarantined shard must not
    /// overwrite the original reason — the first diagnosis is preserved
    /// and later ones append.
    #[test]
    fn quarantine_preserves_the_first_reason_and_appends() {
        let platform = Platform::new("cl-host", Microcode::PostForeshadow);
        let router = cluster(1, &platform);
        assert!(router
            .quarantine(ShardId(0), "disk smells of smoke")
            .is_some());
        assert!(router.quarantine(ShardId(0), "now it is on fire").is_some());
        let health = router.health_check();
        let reason = health[0].reason.as_ref().unwrap();
        assert!(
            reason.starts_with("operator: disk smells of smoke"),
            "first reason must survive: {reason}"
        );
        assert!(
            reason.contains("now it is on fire"),
            "later reasons must append: {reason}"
        );
        // Reinstating clears the whole history.
        assert!(router.reinstate(ShardId(0)));
        assert_eq!(router.health_check()[0].reason, None);
    }

    #[test]
    fn byzantine_counter_regression_quarantines_the_shard() {
        /// Counts 1, 2, 3 — then "rolls back" and reports 1 forever: the
        /// signature of a shard whose rollback state was reset.
        struct RegressingCounter {
            calls: u64,
        }
        impl MonotonicCounter for RegressingCounter {
            fn increment(&mut self) -> palaemon_core::Result<u64> {
                self.calls += 1;
                if self.calls <= 3 {
                    Ok(self.calls)
                } else {
                    Ok(1)
                }
            }
        }

        let platform = Platform::new("cl-host", Microcode::PostForeshadow);
        let router = ClusterRouter::new(42, 64);
        let byzantine_engine = engine(b"byz");
        byzantine_engine.register_platform(platform.id(), platform.qe_verifying_key());
        let (srv0, ctr0) = strict_shard(byzantine_engine, RegressingCounter { calls: 0 });
        router.add_shard(ShardId(0), srv0, Some(ctr0)).unwrap();
        let (srv1, ctr1) = fresh_shard(&platform, 1);
        router.add_shard(ShardId(1), srv1, Some(ctr1)).unwrap();

        // Policies pinned to each shard.
        let mut on_byz = Vec::new();
        let mut on_good = String::new();
        for i in 0..128 {
            let name = format!("byz-{i}");
            match router.shard_for_policy(&name).unwrap() {
                ShardId(0) if on_byz.len() < 4 => on_byz.push(name),
                ShardId(1) if on_good.is_empty() => on_good = name,
                _ => {}
            }
            if on_byz.len() == 4 && !on_good.is_empty() {
                break;
            }
        }
        assert_eq!(on_byz.len(), 4);

        // Three clean commits (counter 1, 2, 3) — health checks pass.
        for name in &on_byz[..3] {
            create_policy(&router, name);
        }
        assert!(router.health_check().iter().all(|h| h.healthy));
        // The fourth commit regresses the counter to 1.
        create_policy(&router, &on_byz[3]);
        let health = router.health_check();
        assert!(!health[0].healthy, "regression must quarantine shard 0");
        assert!(health[0].reason.as_ref().unwrap().contains("regressed"));
        assert!(health[1].healthy);

        // The Byzantine shard is unroutable; the healthy one keeps serving.
        assert!(matches!(
            router.handle(TmsRequest::ReadPolicy {
                name: on_byz[0].clone(),
                client: owner(),
                approval: None,
                votes: Vec::new(),
            }),
            Err(ClusterError::ShardUnavailable(ShardId(0)))
        ));
        create_policy(&router, &on_good);
        assert!(!router.stats().shards[0].healthy);

        // Quarantine persists across checks until the operator reinstates.
        assert!(!router.health_check()[0].healthy);
        assert!(router.reinstate(ShardId(0)));
        assert!(router.health_check()[0].healthy);
        assert!(matches!(
            router.handle(TmsRequest::ReadPolicy {
                name: on_byz[0].clone(),
                client: owner(),
                approval: None,
                votes: Vec::new(),
            }),
            Ok(TmsResponse::Policy(_))
        ));

        // Manual quarantine also works (and unknown shards are refused).
        assert!(router.quarantine(ShardId(1), "maintenance").is_some());
        assert!(matches!(
            router.handle(TmsRequest::ReadPolicy {
                name: on_good.clone(),
                client: owner(),
                approval: None,
                votes: Vec::new(),
            }),
            Err(ClusterError::ShardUnavailable(ShardId(1)))
        ));
        assert!(router.quarantine(ShardId(9), "ghost").is_none());
        assert!(!router.reinstate(ShardId(9)));
    }

    fn attest_config(
        router: &ClusterRouter,
        platform: &Platform,
        policy: &str,
    ) -> palaemon_core::tms::AppConfig {
        let binding = [0u8; 64];
        let report = create_report(platform, Digest::from_bytes(MRE), binding);
        let quote = quote_report(platform, &report).unwrap();
        match router
            .handle(TmsRequest::AttestService {
                quote: Box::new(quote),
                tls_key_binding: binding,
                policy_name: policy.into(),
                service_name: "app".into(),
            })
            .unwrap()
        {
            TmsResponse::Config(config) => *config,
            other => panic!("expected Config, got {other:?}"),
        }
    }

    /// A producer policy exporting one binary secret to `target`; pass
    /// `target: None` for the no-longer-exporting update body.
    fn producer_policy(name: &str, target: Option<&str>) -> Policy {
        let export = match target {
            Some(t) => format!("\n    export: {t}"),
            None => String::new(),
        };
        Policy::parse(&format!(
            "name: {name}\nservices:\n  - name: app\n    mrenclaves: [\"{}\"]\n\
             secrets:\n  - name: exported_key\n    kind: binary\n    length: 32{export}\n",
            Digest::from_bytes(MRE).to_hex()
        ))
        .unwrap()
    }

    #[test]
    fn attestation_scales_onto_followers_and_sessions_survive_failover() {
        let platform = Platform::new("cl-host", Microcode::PostForeshadow);
        let (router, id) = replicated_cluster(&platform, 3, 2);
        router.set_read_preference(ReadPreference::Quorum);
        create_policy(&router, "att-0");

        // The rotation spreads attestations over all three replicas; every
        // one must get a distinct cluster session id, and every engine
        // must end up holding every (mirrored) session.
        let sessions: Vec<SessionId> = (0..9)
            .map(|_| attest(&router, &platform, "att-0"))
            .collect();
        let distinct: std::collections::HashSet<u64> = sessions.iter().map(|s| s.0).collect();
        assert_eq!(distinct.len(), 9, "cluster session ids collided");
        for engine in router.replica_engines(id) {
            assert_eq!(engine.session_count(), 9, "sessions must mirror group-wide");
        }
        let repl = router.stats().shards[0].replication;
        assert!(
            repl.attests_follower > 0,
            "attestation never landed on a follower: {repl:?}"
        );
        assert!(
            repl.attests_primary > 0,
            "the primary's rotation slot never fired: {repl:?}"
        );

        // Every session is live for tag pushes regardless of which replica
        // seated it (the volume tag is shared, so the last push wins)...
        for (i, s) in sessions.iter().enumerate() {
            push(&router, *s, i as u8);
        }
        // ...and every session survives a failover of the (former) primary.
        assert!(router.quarantine(id, "power cut").is_some());
        for (i, s) in sessions.iter().enumerate() {
            match router
                .handle(TmsRequest::ReadTag {
                    session: *s,
                    volume: "data".into(),
                })
                .unwrap()
            {
                TmsResponse::Tag(Some(rec)) => {
                    assert_eq!(rec.tag, Digest::from_bytes([8; 32]));
                }
                other => panic!("expected tag for session {i}, got {other:?}"),
            }
        }
        // Follower-seated attestation keeps working after the failover.
        let after = attest(&router, &platform, "att-0");
        assert!(!distinct.contains(&after.0));
    }

    #[test]
    fn oversized_replica_sets_are_rejected() {
        let platform = Platform::new("cl-host", Microcode::PostForeshadow);
        let router = ClusterRouter::new(42, 64);
        let set: Vec<_> = (0..65)
            .map(|r| {
                let (server, counter) = fresh_shard(&platform, 200 + r as u32);
                (server, Some(counter))
            })
            .collect();
        assert!(matches!(
            router.add_replicated_shard(ShardId(0), set, 2),
            Err(ClusterError::BadReplicaSet(_))
        ));
    }

    /// Finds a name of the form `{prefix}-{i}` that the router's ring
    /// places on `shard`.
    fn name_on_shard(router: &ClusterRouter, prefix: &str, shard: ShardId) -> String {
        (0..256)
            .map(|i| format!("{prefix}-{i}"))
            .find(|n| router.shard_for_policy(n) == Some(shard))
            .expect("no candidate name routed to the shard")
    }

    #[test]
    fn cross_shard_exports_are_consumable_and_reconciled() {
        let platform = Platform::new("cl-host", Microcode::PostForeshadow);
        let router = cluster(2, &platform);
        let producer = name_on_shard(&router, "xprod", ShardId(0));
        let consumer = name_on_shard(&router, "xcons", ShardId(1));

        create_policy(&router, &consumer);
        router
            .handle(TmsRequest::CreatePolicy {
                owner: owner(),
                policy: Box::new(producer_policy(&producer, Some(&consumer))),
                approval: None,
                votes: Vec::new(),
            })
            .unwrap();

        // The export row crossed to the consumer's shard and attestation
        // there delivers the secret.
        let config = attest_config(&router, &platform, &consumer);
        let value = config
            .secrets
            .get("exported_key")
            .expect("export missing")
            .clone();
        assert_eq!(value.len(), 32);

        // An update that drops the export target tombstones the row on
        // the consumer's shard...
        router
            .handle(TmsRequest::UpdatePolicy {
                client: owner(),
                policy: Box::new(producer_policy(&producer, None)),
                approval: None,
                votes: Vec::new(),
            })
            .unwrap();
        let config = attest_config(&router, &platform, &consumer);
        assert!(
            !config.secrets.contains_key("exported_key"),
            "dropped export must stop flowing"
        );

        // ...re-declaring it restores the same secret value (reconciled,
        // not rotated)...
        router
            .handle(TmsRequest::UpdatePolicy {
                client: owner(),
                policy: Box::new(producer_policy(&producer, Some(&consumer))),
                approval: None,
                votes: Vec::new(),
            })
            .unwrap();
        let config = attest_config(&router, &platform, &consumer);
        assert_eq!(config.secrets.get("exported_key"), Some(&value));

        // ...and deleting the producer purges it for good.
        router
            .handle(TmsRequest::DeletePolicy {
                name: producer.clone(),
                client: owner(),
                approval: None,
                votes: Vec::new(),
            })
            .unwrap();
        let config = attest_config(&router, &platform, &consumer);
        assert!(!config.secrets.contains_key("exported_key"));
        let home = router.shard_for_policy(&consumer).unwrap();
        assert!(
            router
                .engine(home)
                .unwrap()
                .export_records_for(&consumer, &producer)
                .is_empty(),
            "deleted producer left ghost rows on the consumer's shard"
        );
    }

    /// A forwarded export is a client mutation of the consumer's engine: on
    /// a strict consumer shard its own commit window covers it, once.
    #[test]
    fn forwarded_exports_are_covered_by_the_consumer_shards_counter() {
        let platform = Platform::new("cl-host", Microcode::PostForeshadow);
        let router = cluster(2, &platform);
        let producer = name_on_shard(&router, "cprod", ShardId(0));
        let consumer = name_on_shard(&router, "ccons", ShardId(1));
        let counters = || -> Vec<_> {
            let shards = router.stats().shards;
            shards.iter().map(|s| s.server.counter.unwrap()).collect()
        };
        let before = counters();
        router
            .handle(TmsRequest::CreatePolicy {
                owner: owner(),
                policy: Box::new(producer_policy(&producer, Some(&consumer))),
                approval: None,
                votes: Vec::new(),
            })
            .unwrap();
        let after = counters();
        for (shard, what) in [(0, "the producer's create"), (1, "the forwarded export")] {
            assert_eq!(
                (
                    after[shard].ops_committed - before[shard].ops_committed,
                    after[shard].increments - before[shard].increments
                ),
                (1, 1),
                "{what}"
            );
        }
    }

    #[test]
    fn cross_shard_exports_replicate_and_survive_consumer_failover() {
        let platform = Platform::new("cl-host", Microcode::PostForeshadow);
        let router = ClusterRouter::new(42, 64);
        let (server, counter) = fresh_shard(&platform, 0);
        router.add_shard(ShardId(0), server, Some(counter)).unwrap();
        let set: Vec<_> = (0..3)
            .map(|r| {
                let (server, counter) = fresh_shard(&platform, 300 + r as u32);
                (server, Some(counter))
            })
            .collect();
        router.add_replicated_shard(ShardId(1), set, 2).unwrap();
        let producer = name_on_shard(&router, "rprod", ShardId(0));
        let consumer = name_on_shard(&router, "rcons", ShardId(1));

        create_policy(&router, &consumer);
        router
            .handle(TmsRequest::CreatePolicy {
                owner: owner(),
                policy: Box::new(producer_policy(&producer, Some(&consumer))),
                approval: None,
                votes: Vec::new(),
            })
            .unwrap();

        // The forwarded export row rode the consumer policy's delta chain:
        // every replica of the consumer's group holds it.
        assert!(router.flush_replication(ShardId(1)));
        for engine in router.replica_engines(ShardId(1)) {
            assert_eq!(
                engine.export_records_for(&consumer, &producer).len(),
                1,
                "export row missing on a consumer-shard replica"
            );
        }
        // After the consumer shard's primary fails over, the export is
        // still consumable on the successor.
        assert!(router.quarantine(ShardId(1), "power cut").is_some());
        let config = attest_config(&router, &platform, &consumer);
        assert!(config.secrets.contains_key("exported_key"));
    }

    #[test]
    fn cross_shard_exports_follow_a_migrating_consumer() {
        let platform = Platform::new("cl-host", Microcode::PostForeshadow);
        let router = cluster(2, &platform);
        let producer = name_on_shard(&router, "mprod", ShardId(0));
        let consumer = name_on_shard(&router, "mcons", ShardId(1));
        create_policy(&router, &consumer);
        router
            .handle(TmsRequest::CreatePolicy {
                owner: owner(),
                policy: Box::new(producer_policy(&producer, Some(&consumer))),
                approval: None,
                votes: Vec::new(),
            })
            .unwrap();

        // Grow the ring until the consumer actually moves: its export
        // rows live under the consumer's own record prefixes, so they
        // migrate with it.
        let mut next = 2u32;
        while router.shard_for_policy(&consumer) == Some(ShardId(1)) {
            let (server, counter) = fresh_shard(&platform, 400 + next);
            router
                .add_shard(ShardId(next), server, Some(counter))
                .unwrap();
            next += 1;
            assert!(next < 16, "consumer never migrated");
        }
        let config = attest_config(&router, &platform, &consumer);
        assert!(
            config.secrets.contains_key("exported_key"),
            "migration must carry the export rows"
        );
        // Post-migration reconciliation still reaches the new owner.
        router
            .handle(TmsRequest::DeletePolicy {
                name: producer.clone(),
                client: owner(),
                approval: None,
                votes: Vec::new(),
            })
            .unwrap();
        let config = attest_config(&router, &platform, &consumer);
        assert!(!config.secrets.contains_key("exported_key"));
    }

    #[test]
    fn approval_rounds_survive_failover_via_mirroring() {
        let platform = Platform::new("cl-host", Microcode::PostForeshadow);
        let (router, id) = replicated_cluster(&platform, 3, 2);
        let alice = Stakeholder::from_seed("alice", b"router-board-a");
        let policy_text = format!(
            "name: board-p\nservices:\n  - name: app\n    mrenclaves: [\"{}\"]\n\
             board:\n  threshold: 1\n  members:\n    - id: alice\n      key: {}\n",
            Digest::from_bytes(MRE).to_hex(),
            alice.verifying_key().to_u64()
        );
        let policy = Policy::parse(&policy_text).unwrap();
        let begin = |action| match router
            .handle(TmsRequest::BeginApproval {
                policy_name: "board-p".into(),
                action,
                policy_digest: policy.digest(),
            })
            .unwrap()
        {
            TmsResponse::Approval(approval) => approval,
            other => panic!("expected Approval, got {other:?}"),
        };
        let create_round = begin(PolicyAction::Create);
        router
            .handle(TmsRequest::CreatePolicy {
                owner: owner(),
                policy: Box::new(policy.clone()),
                approval: Some(create_round.clone()),
                votes: vec![alice.vote(&create_round, true)],
            })
            .unwrap();

        // Open a round; the nonce is mirrored to the followers.
        let approval = begin(PolicyAction::Update);
        for engine in router.replica_engines(id) {
            assert!(
                engine.export_approval(approval.nonce).is_some(),
                "round must be mirrored group-wide"
            );
        }

        // The primary that issued the nonce dies mid-round; the vote
        // completes against its successor.
        assert!(router.quarantine(id, "power cut").is_some());
        let vote = alice.vote(&approval, true);
        router
            .handle(TmsRequest::UpdatePolicy {
                client: owner(),
                policy: Box::new(policy),
                approval: Some(approval.clone()),
                votes: vec![vote],
            })
            .unwrap();
        // The consumed nonce was discarded on every live replica (the
        // quarantined ex-primary keeps its stale copy until the snapshot
        // catch-up reconciles it on rejoin), so whichever replica is
        // primary now refuses a replay.
        let status = router.replica_status(id).unwrap();
        for (engine, replica) in router.replica_engines(id).iter().zip(&status.replicas) {
            if replica.quarantined {
                continue;
            }
            assert!(
                engine.export_approvals().is_empty(),
                "consumed round must be discarded on every live replica"
            );
        }
        let replay = router.handle(TmsRequest::UpdatePolicy {
            client: owner(),
            policy: Box::new(Policy::parse(&policy_text).unwrap()),
            approval: Some(approval.clone()),
            votes: vec![alice.vote(&approval, true)],
        });
        assert!(replay.is_err(), "spent nonce must not be replayable");
    }

    // ------------------------------------------------------------------
    // Follower group-apply: one sync and one verdict per shipped window
    // ------------------------------------------------------------------

    /// A replica's device: write-back (a power cut loses whatever `sync`
    /// has not flushed), counting its syncs, timestamping its puts, and
    /// with a `gate` a test locks to hold `sync` shut. `disk` only ever
    /// holds flushed blobs, so reopening it *is* the crash image.
    #[derive(Clone)]
    struct Device {
        disk: MemStore,
        cache: BufferedStore<MemStore>,
        syncs: Arc<AtomicU64>,
        puts: Arc<StdMutex<Vec<Instant>>>,
        gate: Arc<StdMutex<()>>,
    }

    impl Device {
        const KEY: [u8; 32] = [0xD7; 32];

        fn new() -> Self {
            let disk = MemStore::new();
            Device {
                cache: BufferedStore::new(disk.clone()),
                disk,
                syncs: Arc::default(),
                puts: Arc::default(),
                gate: Arc::default(),
            }
        }

        fn syncs(&self) -> u64 {
            self.syncs.load(Ordering::Relaxed)
        }

        fn crash_image(&self) -> Db {
            Db::open(Box::new(self.disk.clone()), AeadKey::from_bytes(Self::KEY))
                .expect("crash image reopens")
        }
    }

    impl BlockStore for Device {
        fn get(&self, name: &str) -> Option<Vec<u8>> {
            self.cache.get(name)
        }
        fn put(&self, name: &str, data: Vec<u8>) {
            self.puts.lock().unwrap().push(Instant::now());
            self.cache.put(name, data)
        }
        fn delete(&self, name: &str) {
            self.cache.delete(name)
        }
        fn list(&self) -> Vec<String> {
            self.cache.list()
        }
        fn sync(&self) -> shielded_fs::Result<()> {
            let _open = self.gate.lock().unwrap();
            self.syncs.fetch_add(1, Ordering::Relaxed);
            self.cache.sync()
        }
    }

    /// One R=3 group whose replicas' databases sit on [`Device`]s, with
    /// `policies` policies (`ga-<i>`) and one attested session each.
    struct DeviceGroup {
        router: ClusterRouter,
        id: ShardId,
        /// Backs replica 0, the primary.
        primary: Device,
        /// `devices[k - 1]` backs follower `k`.
        devices: [Device; 2],
        names: Vec<String>,
        sessions: Vec<SessionId>,
    }

    impl DeviceGroup {
        fn new(quorum: usize, policies: usize) -> Self {
            let platform = Platform::new("cl-host", Microcode::PostForeshadow);
            let primary = Device::new();
            let devices = [Device::new(), Device::new()];
            let mut set = Vec::new();
            for (k, device) in std::iter::once(&primary).chain(&devices).enumerate() {
                let db = Db::create(Box::new(device.clone()), AeadKey::from_bytes(Device::KEY))
                    .expect("create db");
                let seed = format!("device-replica-{k}");
                let engine = Arc::new(Palaemon::new(
                    db,
                    SigningKey::from_seed(seed.as_bytes()),
                    Digest::ZERO,
                    5,
                ));
                engine.register_platform(platform.id(), platform.qe_verifying_key());
                set.push(strict_shard(engine, MemFileCounter::new()));
            }
            let router = ClusterRouter::new(42, 64);
            let id = ShardId(0);
            let set = set.into_iter().map(|(s, c)| (s, Some(c))).collect();
            router.add_replicated_shard(id, set, quorum).unwrap();
            let names: Vec<String> = (0..policies).map(|i| format!("ga-{i}")).collect();
            let sessions = names
                .iter()
                .map(|name| {
                    create_policy(&router, name);
                    attest(&router, &platform, name)
                })
                .collect();
            // An ack is the quorum's: let the slower follower land the
            // set-up too, so every test starts from empty channels.
            assert!(router.flush_replication(id));
            DeviceGroup {
                router,
                id,
                primary,
                devices,
                names,
                sessions,
            }
        }

        /// The distinct tag push `seq` of policy `p` carries.
        fn tag(p: usize, seq: u8) -> Digest {
            let mut bytes = [p as u8; 32];
            bytes[0] = seq;
            Digest::from_bytes(bytes)
        }

        fn push(&self, p: usize, seq: u8) -> Result<TmsResponse> {
            self.router.handle(TmsRequest::PushTag {
                session: self.sessions[p],
                volume: "data".into(),
                tag: Self::tag(p, seq),
                event: TagEvent::Sync,
            })
        }

        /// Whether replica `k` would still hold push `seq` of policy `p`
        /// after a power cut right now.
        fn survives_crash(&self, k: usize, p: usize, seq: u8) -> bool {
            let device = k.checked_sub(1).map_or(&self.primary, |f| &self.devices[f]);
            let image = device.crash_image();
            let row = image.get(format!("tag/{}/data", self.names[p]).as_bytes());
            row.is_some_and(|row| row[..32] == Self::tag(p, seq).as_bytes()[..])
        }

        fn pipe(&self, k: usize) -> Arc<Pipe> {
            Arc::clone(&self.router.topology.read().shards[&self.id].pipes[k])
        }

        /// Every replica holds every policy at the chain tail, digest-equal
        /// to the primary.
        fn assert_converged(&self) {
            let topo = self.router.topology.read();
            let group = &topo.shards[&self.id];
            let primary = group.primary_engine();
            for name in &self.names {
                let tail = group.chain.lock().get(name).copied();
                assert!(tail.is_some());
                for replica in &group.replicas {
                    assert_eq!(replica.engine().policy_cursor(name), tail, "{name}");
                    assert_eq!(
                        replica.engine().policy_digest(name),
                        primary.policy_digest(name),
                        "{name}"
                    );
                }
            }
        }
    }

    /// Spins (no sleeping) until `cond` holds; the cap only turns a hang
    /// into a failure.
    fn wait_for(cond: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(30);
        while !cond() {
            assert!(Instant::now() < deadline, "condition never held");
            std::thread::yield_now();
        }
    }

    /// A durable ack means *durable on a write quorum*: whenever a push
    /// returns `Ok`, the primary's crash image and at least
    /// `write_quorum − 1` followers' already hold that tag — although the
    /// followers sync once per window, not per delta. At quorum 3 that is
    /// every follower; at quorum 2 the slower one may still be syncing.
    #[test]
    fn durable_ack_means_durable_on_a_write_quorum() {
        const WRITERS: usize = 8;
        const PUSHES: u8 = 50;
        for quorum in [2usize, 3] {
            let rig = DeviceGroup::new(quorum, WRITERS);
            let before = [rig.devices[0].syncs(), rig.devices[1].syncs()];
            let pipes = [rig.pipe(1), rig.pipe(2)];
            // Hold both delivery gates until every writer's first push is
            // queued: the first window is then WRITERS deltas wide on both
            // followers, whatever the scheduler does with the rest.
            let gates = pipes.each_ref().map(|p| p.delivery.lock().unwrap());
            std::thread::scope(|scope| {
                for w in 0..WRITERS {
                    let rig = &rig;
                    scope.spawn(move || {
                        for seq in 0..PUSHES {
                            rig.push(w, seq).unwrap();
                            let status = rig.router.replica_status(rig.id).unwrap();
                            assert!(status.replicas.iter().all(|r| r.in_quorum));
                            assert!(
                                rig.survives_crash(0, w, seq),
                                "push {seq} of writer {w} acked before the primary synced it"
                            );
                            let holders =
                                (1..=2).filter(|&k| rig.survives_crash(k, w, seq)).count();
                            assert!(
                                holders >= quorum - 1,
                                "push {seq} of writer {w} acked at quorum {quorum} with \
                                 {holders} follower image(s) holding it"
                            );
                        }
                    });
                }
                wait_for(|| pipes.iter().all(|p| p.depth() == WRITERS));
                drop(gates);
            });

            // Once the stragglers have landed too.
            assert!(rig.router.flush_replication(rig.id));
            let mutations = WRITERS as u64 * u64::from(PUSHES);
            for (device, before) in rig.devices.iter().zip(before) {
                let syncs = device.syncs() - before;
                assert!(
                    syncs <= mutations - (WRITERS as u64 - 1),
                    "{syncs} follower syncs for {mutations} mutations"
                );
            }
            let repl = rig.router.stats().shards[0].replication;
            assert_eq!(repl.sequence_rejections, 0, "{repl:?}");
            assert_eq!(repl.snapshot_resyncs, 0, "{repl:?}");
            rig.assert_converged();
        }
    }

    /// A chain gap surfacing inside a window heals in place: only the
    /// gapped policy resyncs, every other delta of the window acks, the
    /// follower stays in the quorum — and the window, resync included,
    /// still costs one sync.
    #[test]
    fn chain_gap_inside_a_window_resyncs_only_its_policy() {
        const POLICIES: usize = 4;
        // Quorum 3: a push returns `Ok` only when *both* followers acked
        // its delta, so `Ok` below is follower 2's per-delta verdict.
        let rig = DeviceGroup::new(3, POLICIES);
        let op = rig.router.replica_status(rig.id).unwrap().ops + 1;
        let plan = FaultPlan::new([PlannedFault {
            shard: rig.id,
            op,
            kind: FaultKind::LoseIncremental(2),
        }]);
        rig.router.set_fault_plan(Arc::clone(&plan));
        // Lost on follower 2's wire, silently: one ack short of quorum 3,
        // nobody demoted, a gap in follower 2's chain for policy 0.
        assert!(matches!(
            rig.push(0, 1),
            Err(ClusterError::QuorumLost { acked: 2, .. })
        ));
        assert!(plan.all_fired());

        let pipe = rig.pipe(2);
        let gate = pipe.delivery.lock().unwrap();
        let before = rig.devices[1].syncs();
        std::thread::scope(|scope| {
            for p in 0..POLICIES {
                let rig = &rig;
                scope.spawn(move || rig.push(p, 2).unwrap());
            }
            wait_for(|| pipe.depth() == POLICIES);
            drop(gate);
        });

        assert_eq!(
            rig.devices[1].syncs() - before,
            1,
            "four deltas and a staged resync must share one sync"
        );
        let repl = rig.router.stats().shards[0].replication;
        assert_eq!(repl.sequence_rejections, 1, "{repl:?}");
        assert_eq!(repl.snapshot_resyncs, 1, "{repl:?}");
        let status = rig.router.replica_status(rig.id).unwrap();
        assert!(status.replicas[2].in_quorum);
        assert_eq!(status.replicas[2].applied, status.replicas[0].applied);
        for p in 0..POLICIES {
            assert!(rig.survives_crash(2, p, 2));
        }
        rig.assert_converged();
    }

    /// A follower whose device fails the window's one sync fails *every*
    /// delta of that window: each books a failed receipt (at quorum 3
    /// each push is one ack short; at quorum 2 each still acks through the
    /// other follower), the follower is demoted with the first diagnosis,
    /// and its applied token never moves.
    #[test]
    fn failed_follower_sync_fails_its_whole_window() {
        const POLICIES: usize = 4;
        for quorum in [2usize, 3] {
            let rig = DeviceGroup::new(quorum, POLICIES);
            let applied = rig.router.replica_status(rig.id).unwrap().replicas[2].applied;
            let pipe = rig.pipe(2);
            let gate = pipe.delivery.lock().unwrap();
            // From here on the device drops writes and fails `sync`.
            rig.devices[1].cache.fail_after(0);
            let results: Vec<Result<TmsResponse>> = std::thread::scope(|scope| {
                let pushes: Vec<_> = (0..POLICIES)
                    .map(|p| {
                        let rig = &rig;
                        scope.spawn(move || rig.push(p, 1))
                    })
                    .collect();
                wait_for(|| pipe.depth() == POLICIES);
                drop(gate);
                pushes.into_iter().map(|h| h.join().unwrap()).collect()
            });
            for result in results {
                match quorum {
                    2 => assert!(result.is_ok(), "{result:?}"),
                    _ => assert!(
                        matches!(
                            result,
                            Err(ClusterError::QuorumLost {
                                acked: 2,
                                needed: 3,
                                ..
                            })
                        ),
                        "{result:?}"
                    ),
                }
            }
            // At quorum 2 the acks were follower 1's; wait out follower
            // 2's failing delivery before reading its state.
            assert!(rig.router.flush_replication(rig.id));
            let status = rig.router.replica_status(rig.id).unwrap();
            assert!(status.replicas[1].in_quorum);
            assert!(!status.replicas[2].in_quorum);
            assert_eq!(
                status.replicas[2].applied, applied,
                "no verdict, no advance"
            );
            let topo = rig.router.topology.read();
            let reason = topo.shards[&rig.id].replicas[2].reason.lock().clone();
            let reason = reason.expect("demotion records its diagnosis");
            assert!(
                reason.starts_with("demoted: applying delta for policy 'ga-")
                    && reason.matches("demoted").count() == 1,
                "{reason}"
            );
        }
    }

    // ------------------------------------------------------------------
    // Overlap, don't serialize: transit as an arrival deadline, and the
    // primary's own commit redeemed behind the forward
    // ------------------------------------------------------------------

    /// An ack needs the primary's WAL verdict even when both followers
    /// already hold the delta durably — and the forward does not wait for
    /// that verdict: with the primary's `sync` held shut the followers'
    /// crash images gain the write while the client call is still parked.
    #[test]
    fn ack_waits_for_the_primary_sync_even_when_followers_are_durable() {
        let rig = DeviceGroup::new(2, 1);
        let shut = rig.primary.gate.lock().unwrap();
        std::thread::scope(|scope| {
            let push = scope.spawn(|| rig.push(0, 1));
            wait_for(|| [1, 2].iter().all(|&k| rig.survives_crash(k, 0, 1)));
            assert!(
                !push.is_finished(),
                "acked with the primary's own sync still outstanding"
            );
            assert!(!rig.survives_crash(0, 0, 1));
            drop(shut);
            push.join().unwrap().unwrap();
        });
        assert!(rig.survives_crash(0, 0, 1));
        rig.assert_converged();
    }

    /// The primary's sync fails *after* its delta was enqueued: the call
    /// returns the error un-acked, nobody is demoted, and the group stays
    /// whole — the next push on the policy chains on and acks, cursors sit
    /// at the tail and every replica digests equal.
    #[test]
    fn failed_primary_sync_after_forward_is_not_acked_and_group_stays_whole() {
        let rig = DeviceGroup::new(2, 1);
        let served = |rig: &DeviceGroup| rig.router.stats().shards[0].server;
        let before = served(&rig);
        rig.primary.cache.fail_after(0);
        let err = rig.push(0, 1).unwrap_err();
        assert!(matches!(err, ClusterError::Engine(_)), "{err:?}");
        let after = served(&rig);
        assert_eq!((after.ok, after.failed), (before.ok, before.failed + 1));
        rig.primary.cache.fail_after(i64::MAX); // the device recovers
        let status = rig.router.replica_status(rig.id).unwrap();
        assert_eq!(status.primary, 0);
        assert!(status.replicas.iter().all(|r| r.in_quorum), "{status:?}");
        rig.push(0, 2).unwrap();
        assert!(rig.router.flush_replication(rig.id));
        for k in [1, 2] {
            assert!(rig.survives_crash(k, 0, 2));
        }
        let repl = rig.router.stats().shards[0].replication;
        assert_eq!(repl.snapshot_resyncs, 0, "{repl:?}");
        rig.assert_converged();
    }

    /// The counter covers a mutation where a client submitted it, once:
    /// followers apply forwarded deltas uncovered, so on a strict R=3 group
    /// only the seat's counter moves.
    #[test]
    fn followers_apply_uncovered_and_the_primary_counts_every_push() {
        let rig = DeviceGroup::new(2, 1);
        let counters = || {
            let topo = rig.router.topology.read();
            let replicas = &topo.shards[&rig.id].replicas;
            [0, 1, 2].map(|k| replicas[k].counter.as_ref().unwrap().stats())
        };
        let before = counters();
        for seq in 0..50 {
            rig.push(0, seq).unwrap();
        }
        assert!(rig.router.flush_replication(rig.id));
        let after = counters();
        assert_eq!(after[0].ops_committed - before[0].ops_committed, 50);
        assert!(after[0].increments - before[0].increments <= 50);
        for k in [1, 2] {
            // Not since the group was built, policy creation included.
            assert_eq!(after[k].increments, 0, "follower {k} incremented");
            assert_eq!(after[k].ops_committed, 0);
            assert!(rig.survives_crash(k, 0, 49));
        }
        rig.assert_converged();
    }

    /// A follower's sender is a lone committer: it stages a shipped batch's
    /// deltas and redeems their tickets itself, nobody ever parks beside it,
    /// so — whatever the primary's window leaders do for a herd of writers —
    /// a shipped batch is one WAL window and one sync on its follower, and
    /// the primary still pays one Fig. 6 increment per window of its own.
    #[test]
    fn a_follower_pays_one_window_per_shipped_batch() {
        const WRITERS: usize = 8;
        const PUSHES: u8 = 20;
        let rig = DeviceGroup::new(2, WRITERS);
        let windows = || {
            let engines = rig.router.replica_engines(rig.id);
            [0, 1, 2].map(|k| engines[k].db_stats().wal_windows)
        };
        let shipped = || {
            let repl = rig.router.stats().shards[0].replication;
            repl.flushes_durable + repl.flushes_fence
        };
        let increments = || {
            let topo = rig.router.topology.read();
            let counter = topo.shards[&rig.id].replicas[0].counter.as_ref().unwrap();
            counter.stats().increments
        };
        let syncs = || [rig.devices[0].syncs(), rig.devices[1].syncs()];
        let counts = || (windows(), shipped(), increments(), syncs());
        let (windows0, shipped0, increments0, syncs0) = counts();
        std::thread::scope(|scope| {
            for w in 0..WRITERS {
                let rig = &rig;
                scope.spawn(move || {
                    for seq in 0..PUSHES {
                        rig.push(w, seq).unwrap();
                    }
                });
            }
        });
        assert!(rig.router.flush_replication(rig.id));
        let (windows1, shipped1, increments1, syncs1) = counts();
        let flushed = [0, 1, 2].map(|k| windows1[k] - windows0[k]);
        assert_eq!(
            flushed[1] + flushed[2],
            shipped1 - shipped0,
            "one follower window per batch delivered"
        );
        for k in [1, 2] {
            assert_eq!(flushed[k], syncs1[k - 1] - syncs0[k - 1], "follower {k}");
        }
        assert_eq!(
            flushed[0],
            increments1 - increments0,
            "increments == wal_windows"
        );
        rig.assert_converged();
    }

    /// An early return between stage and redeem — here the seat crashing
    /// before the forward — still redeems the staged commit, so the
    /// deposed server's `ok + failed` equals the requests it handled.
    #[test]
    fn a_mutation_refused_before_its_forward_is_still_redeemed_and_counted() {
        let rig = DeviceGroup::new(2, 1);
        let server = {
            let topo = rig.router.topology.read();
            topo.shards[&rig.id].replicas[0].server.clone()
        };
        let before = server.stats();
        let op = rig.router.replica_status(rig.id).unwrap().ops + 1;
        rig.router.set_fault_plan(FaultPlan::new([PlannedFault {
            shard: rig.id,
            op,
            kind: FaultKind::CrashBeforeForward,
        }]));
        assert!(matches!(
            rig.push(0, 1),
            Err(ClusterError::ShardUnavailable(_))
        ));
        let after = server.stats();
        assert_eq!(
            after.ok + after.failed,
            before.ok + before.failed + 1,
            "{after:?}"
        );
    }

    /// No delta is staged on a follower before its transit has elapsed:
    /// with a 2 ms wire, the follower WAL put carrying a push lies no
    /// earlier than 2 ms after the push began (it was enqueued later
    /// still) on either follower, and no later than its ack on the one
    /// that made the quorum — while windows still group.
    #[test]
    fn no_delta_is_staged_before_its_transit_elapses() {
        const WRITERS: usize = 8;
        const PUSHES: u8 = 20;
        const WIRE: Duration = Duration::from_millis(2);
        let rig = DeviceGroup::new(2, WRITERS);
        rig.router.set_forward_latency(WIRE);
        let before = [rig.devices[0].syncs(), rig.devices[1].syncs()];
        let pipes = [rig.pipe(1), rig.pipe(2)];
        // Hold both delivery gates until every writer's first delta has
        // arrived: the first window is then WRITERS deltas wide.
        let gates = pipes.each_ref().map(|p| p.delivery.lock().unwrap());
        let spans: Vec<(Instant, Instant)> = std::thread::scope(|scope| {
            let writers: Vec<_> = (0..WRITERS)
                .map(|w| {
                    let rig = &rig;
                    scope.spawn(move || {
                        (0..PUSHES)
                            .map(|seq| {
                                let began = Instant::now();
                                rig.push(w, seq).unwrap();
                                (began, Instant::now())
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            wait_for(|| pipes.iter().all(|p| p.depth() == WRITERS));
            let queued = Instant::now();
            wait_for(|| queued.elapsed() >= WIRE);
            drop(gates);
            writers
                .into_iter()
                .flat_map(|w| w.join().unwrap())
                .collect()
        });

        // The follower outside a push's quorum may stage it behind the ack.
        assert!(rig.router.flush_replication(rig.id));
        let mutations = WRITERS as u64 * u64::from(PUSHES);
        let puts = rig
            .devices
            .each_ref()
            .map(|d| d.puts.lock().unwrap().clone());
        for (began, acked) in &spans {
            // Each follower's first put once the push's transit was over.
            let [a, b] = puts.each_ref().map(|puts| {
                let landed = puts.iter().filter(|at| **at >= *began + WIRE).min();
                *landed.expect("a follower staged a delta before its transit elapsed")
            });
            assert!(
                a.min(b) <= *acked,
                "a push acked before any follower staged its delta"
            );
        }
        for (device, before) in rig.devices.iter().zip(before) {
            let syncs = device.syncs() - before;
            assert!(syncs < mutations, "{syncs} syncs for {mutations} mutations");
        }
        rig.assert_converged();
    }

    /// Starts one push per policy on scoped threads, waits until `parked`
    /// holds — a state in which no quorum can form: every follower's copy
    /// in transit, or a needed follower wedged — checks that no push has
    /// returned, runs `fence`, and only then joins the pushes — each must
    /// have been released with `Ok`. Returns when the last push began.
    fn fence_parked_pushes(
        rig: &DeviceGroup,
        seq: u8,
        parked: impl Fn() -> bool,
        fence: impl FnOnce(),
    ) -> Instant {
        std::thread::scope(|scope| {
            let pushes: Vec<_> = (0..rig.names.len())
                .map(|p| {
                    scope.spawn(move || {
                        let began = Instant::now();
                        rig.push(p, seq).map(|_| began)
                    })
                })
                .collect();
            wait_for(parked);
            assert!(
                pushes.iter().all(|push| !push.is_finished()),
                "a push acked short of its write quorum"
            );
            fence();
            pushes
                .into_iter()
                .map(|push| push.join().unwrap().expect("the fence releases with Ok"))
                .max()
                .expect("at least one policy")
        })
    }

    /// Every policy's tag, as the group serves it now, is push `seq`.
    fn assert_serves(rig: &DeviceGroup, seq: u8) {
        for p in 0..rig.names.len() {
            let read = rig.router.handle(TmsRequest::ReadTag {
                session: rig.sessions[p],
                volume: "data".into(),
            });
            match read.unwrap() {
                TmsResponse::Tag(Some(rec)) => {
                    assert_eq!(rec.tag, DeviceGroup::tag(p, seq), "acked write lost")
                }
                other => panic!("expected the acked tag, got {other:?}"),
            }
        }
    }

    /// A fence drain delivers what is still on the wire: quarantining the
    /// primary while four pushes are parked on deltas that have not yet
    /// arrived loses none of them, honours their transit, releases every
    /// writer with `Ok`, and leaves every channel empty.
    #[test]
    fn fence_drain_delivers_deltas_still_in_transit() {
        const POLICIES: usize = 4;
        const WIRE: Duration = Duration::from_millis(200);
        let rig = DeviceGroup::new(2, POLICIES);
        rig.router.set_forward_latency(WIRE);
        let last = fence_parked_pushes(
            &rig,
            1,
            || [1, 2].iter().all(|&k| rig.pipe(k).depth() == POLICIES),
            || {
                let outcome = rig.router.quarantine(rig.id, "pulled mid-transit");
                assert!(matches!(
                    outcome,
                    Some(QuarantineOutcome::FailedOver { .. })
                ));
            },
        );
        assert!(
            last.elapsed() >= WIRE,
            "the fence staged a delta before its transit elapsed"
        );
        for k in 0..3 {
            assert_eq!(rig.pipe(k).depth(), 0, "channel {k} not drained");
        }
        assert_serves(&rig, 1);
    }

    /// Wedges follower 2's channel from the rig's next replicated
    /// mutation on.
    fn wedge_follower_2(rig: &DeviceGroup) -> Arc<FaultPlan> {
        let op = rig.router.replica_status(rig.id).unwrap().ops + 1;
        let plan = FaultPlan::new([PlannedFault {
            shard: rig.id,
            op,
            kind: FaultKind::StallForwardChannel(2),
        }]);
        rig.router.set_fault_plan(Arc::clone(&plan));
        plan
    }

    /// Where every follower is needed (quorum 3), one wedged follower
    /// parks every writer — follower 1 holds all four writes durably, yet
    /// none acks while follower 2's verdict is outstanding — until a fence
    /// drains through the stall: all four then return `Ok`, and the
    /// survivor that got them only through its wedged pipe serves all four.
    #[test]
    fn a_stalled_follower_parks_awaited_writers_until_the_fence_and_loses_none() {
        const POLICIES: usize = 4;
        let rig = DeviceGroup::new(3, POLICIES);
        let plan = wedge_follower_2(&rig);
        fence_parked_pushes(
            &rig,
            1,
            || {
                rig.pipe(2).depth() == POLICIES
                    && (0..POLICIES).all(|p| rig.survives_crash(1, p, 1))
            },
            || assert!(rig.router.quarantine(rig.id, "chaos 1").is_some()),
        );
        assert!(plan.all_fired());
        assert_eq!(rig.pipe(2).depth(), 0);
        // The tie on freshness seated follower 1; pull it too.
        assert!(rig.router.quarantine(rig.id, "chaos 2").is_some());
        assert_eq!(rig.router.replica_status(rig.id).unwrap().primary, 2);
        assert_serves(&rig, 1);
    }

    /// The opposite at quorum 2: the same wedged follower parks nobody —
    /// all four pushes ack on follower 1's receipt with no fence anywhere,
    /// their deltas still queued behind the stall and follower 2 still in
    /// the quorum. None is lost for it: the fence drain, not the ack, is
    /// what puts them on follower 2 before it can be elected.
    #[test]
    fn a_stalled_follower_parks_nobody_at_quorum_two_and_loses_none() {
        const POLICIES: usize = 4;
        let rig = DeviceGroup::new(2, POLICIES);
        let plan = wedge_follower_2(&rig);
        for p in 0..POLICIES {
            rig.push(p, 1).unwrap();
            assert!(rig.survives_crash(0, p, 1) && rig.survives_crash(1, p, 1));
            assert!(!rig.survives_crash(2, p, 1));
        }
        assert!(plan.all_fired());
        assert_eq!(rig.pipe(2).depth(), POLICIES);
        let status = rig.router.replica_status(rig.id).unwrap();
        assert!(status.replicas[2].in_quorum && status.failovers == 0);
        // Pull the primary, then the follower 1 the freshness tie seats.
        assert!(rig.router.quarantine(rig.id, "chaos 1").is_some());
        assert_eq!(rig.pipe(2).depth(), 0);
        assert!(rig.router.quarantine(rig.id, "chaos 2").is_some());
        assert_eq!(rig.router.replica_status(rig.id).unwrap().primary, 2);
        assert_serves(&rig, 1);
    }

    /// A slow follower does not set the ack: with follower 2's device held
    /// shut every push still returns `Ok` — durable on the primary and on
    /// follower 1 — and follower 2 catches up behind the acks once its
    /// device answers again.
    #[test]
    fn a_slow_follower_does_not_set_the_ack_at_quorum_two() {
        const WRITERS: usize = 8;
        const PUSHES: u8 = 20;
        let rig = DeviceGroup::new(2, WRITERS);
        let before = rig.devices[1].syncs();
        // Its sender sticks in the sync of the first window it pops;
        // everything later stays queued.
        let shut = rig.devices[1].gate.lock().unwrap();
        std::thread::scope(|scope| {
            for w in 0..WRITERS {
                let rig = &rig;
                scope.spawn(move || {
                    for seq in 0..PUSHES {
                        rig.push(w, seq).unwrap();
                        assert!(
                            rig.survives_crash(0, w, seq) && rig.survives_crash(1, w, seq),
                            "push {seq} of writer {w} acked short of its quorum"
                        );
                    }
                });
            }
        });
        assert_eq!(rig.devices[1].syncs(), before, "follower 2 never synced");
        let status = rig.router.replica_status(rig.id).unwrap();
        assert!(status.replicas[2].in_quorum, "slow is not yet faulty");
        assert!(status.replicas[2].applied < status.replicas[1].applied);
        drop(shut);
        assert!(rig.router.flush_replication(rig.id));
        assert_eq!(rig.pipe(2).depth(), 0);
        for w in 0..WRITERS {
            assert!(rig.survives_crash(2, w, PUSHES - 1));
        }
        rig.assert_converged();
    }

    /// A quorum-acked write outlives both replicas that made its quorum:
    /// the primary crashes right after acks follower 1 alone vouched for —
    /// follower 2's copies still queued behind its stuck device — and then
    /// follower 1 is pulled as well. The failover's fence drain delivered
    /// them before the election, so follower 2 serves every one.
    #[test]
    fn a_quorum_acked_write_survives_losing_the_primary_and_the_follower_that_acked_it() {
        const POLICIES: usize = 4;
        let rig = DeviceGroup::new(2, POLICIES);
        let before = rig.devices[1].syncs();
        let staged = rig.devices[1].puts.lock().unwrap().len();
        let shut = rig.devices[1].gate.lock().unwrap();
        for p in 0..POLICIES {
            rig.push(p, 1).unwrap();
        }
        // Follower 2's sender has staged a window of these and is stuck in
        // its sync: whatever is enqueued from here on stays queued.
        wait_for(|| rig.devices[1].puts.lock().unwrap().len() > staged);
        let op = rig.router.replica_status(rig.id).unwrap().ops + POLICIES as u64;
        let plan = FaultPlan::new([PlannedFault {
            shard: rig.id,
            op,
            kind: FaultKind::CrashAfterQuorum,
        }]);
        rig.router.set_fault_plan(Arc::clone(&plan));
        for p in 0..POLICIES - 1 {
            rig.push(p, 2).unwrap();
        }
        std::thread::scope(|scope| {
            // The last push crashes the primary behind its quorum ack; the
            // failover's fence then waits for follower 2's device.
            let last = scope.spawn(|| rig.push(POLICIES - 1, 2));
            wait_for(|| plan.all_fired());
            assert!(rig.pipe(2).depth() >= POLICIES, "the copies are queued");
            assert_eq!(rig.devices[1].syncs(), before);
            drop(shut);
            last.join().unwrap().unwrap();
        });
        assert_eq!(rig.router.replica_status(rig.id).unwrap().primary, 1);
        assert_eq!(rig.pipe(2).depth(), 0);
        assert!(rig.router.quarantine(rig.id, "chaos 2").is_some());
        assert_eq!(rig.router.replica_status(rig.id).unwrap().primary, 2);
        assert_serves(&rig, 2);
    }

    /// Wedges follower 2 and pushes one mutation more than its channel
    /// may hold, at quorum 2: every push acks, the backlog stops at the
    /// cap, and the enqueue that found it there demoted the follower.
    /// Returns the rig and the last push's sequence number.
    fn backlog_demoted_rig() -> (DeviceGroup, u8) {
        let rig = DeviceGroup::new(2, 1);
        wedge_follower_2(&rig);
        let seq = |i: usize| (i % 251) as u8;
        for i in 0..=PIPE_BACKLOG_CAP {
            rig.push(0, seq(i)).unwrap();
            assert!(rig.pipe(2).depth() <= PIPE_BACKLOG_CAP);
        }
        let pipe = rig.pipe(2);
        assert_eq!(pipe.depth(), PIPE_BACKLOG_CAP);
        assert_eq!(pipe.depth_peak.load(Ordering::Relaxed), PIPE_BACKLOG_CAP);
        let status = rig.router.replica_status(rig.id).unwrap();
        assert!(status.replicas[1].in_quorum && !status.replicas[2].in_quorum);
        assert!(!status.replicas[2].quarantined);
        let reason = {
            let topo = rig.router.topology.read();
            let reason = topo.shards[&rig.id].replicas[2].reason.lock().clone();
            reason.expect("demotion records its diagnosis")
        };
        assert!(
            reason.starts_with("demoted: forward backlog at the cap"),
            "{reason}"
        );
        // The flight recorder saw it leave the quorum, once, with that cause.
        let events = rig.router.telemetry().flight().events();
        let demotions: Vec<_> = events
            .into_iter()
            .filter_map(|e| match e.kind {
                EventKind::Demotion {
                    shard: 0,
                    replica,
                    reason,
                } => Some((replica, reason)),
                _ => None,
            })
            .collect();
        assert_eq!(demotions, [(2, reason)]);
        (rig, seq(PIPE_BACKLOG_CAP))
    }

    /// Nothing paces a follower outside the quorum but its backlog: at the
    /// cap it is demoted — never quorum-read while it lags — and one
    /// anti-entropy sweep fences through the stall, converges the delta the
    /// cap refused and re-admits it, digest-equal.
    #[test]
    fn an_unawaited_backlog_is_bounded_by_demotion() {
        let (rig, last) = backlog_demoted_rig();
        rig.router.set_read_preference(ReadPreference::Quorum);
        let reads = |rig: &DeviceGroup| {
            let repl = rig.router.stats().shards[0].replication;
            repl.reads_follower + repl.reads_primary
        };
        let before = reads(&rig);
        for _ in 0..12 {
            assert_serves(&rig, last); // follower 2 holds none of the pushes
        }
        assert_eq!(reads(&rig) - before, 12);
        // Demoted, it takes no further deltas: the backlog cannot grow.
        rig.push(0, last).unwrap();
        assert_eq!(rig.pipe(2).depth(), PIPE_BACKLOG_CAP);

        assert_eq!(rig.router.anti_entropy_sweep(rig.id), (1, 1));
        assert_eq!(rig.pipe(2).depth(), 0);
        let status = rig.router.replica_status(rig.id).unwrap();
        assert!(status.replicas[2].in_quorum);
        assert_eq!(status.replicas[2].applied, status.replicas[0].applied);
        assert!(rig.survives_crash(2, 0, last));
        rig.assert_converged();
    }

    /// A backlog-demoted follower is never elected: the failover's fence
    /// delivers its backlog, but the delta the cap refused is a gap no
    /// election may seat — with the primary and follower 1 both pulled the
    /// group goes dark rather than serve from it.
    #[test]
    fn a_backlog_demoted_follower_is_never_elected() {
        let (rig, _) = backlog_demoted_rig();
        assert_eq!(
            rig.router.quarantine(rig.id, "chaos 1"),
            Some(QuarantineOutcome::FailedOver { new_primary: 1 })
        );
        assert_eq!(rig.pipe(2).depth(), 0, "the fence delivered the backlog");
        assert_eq!(
            rig.router.quarantine(rig.id, "chaos 2"),
            Some(QuarantineOutcome::GroupDark)
        );
        assert!(!rig.router.replica_status(rig.id).unwrap().replicas[2].in_quorum);
    }

    /// `QuorumLost` is reported as soon as the quorum cannot form any
    /// more — every queued forward resolved — not at [`ACK_WAIT_CAP`]: a
    /// follower whose delivery fails, and one the forward never reached.
    #[test]
    fn quorum_lost_is_reported_as_soon_as_it_is_certain() {
        for partitioned in [false, true] {
            let rig = DeviceGroup::new(3, 1);
            if partitioned {
                let op = rig.router.replica_status(rig.id).unwrap().ops + 1;
                rig.router.set_fault_plan(FaultPlan::new([PlannedFault {
                    shard: rig.id,
                    op,
                    kind: FaultKind::DropForwardToReplica(2),
                }]));
            } else {
                rig.devices[1].cache.fail_after(0);
            }
            let began = Instant::now();
            let result = rig.push(0, 1);
            assert!(
                matches!(
                    result,
                    Err(ClusterError::QuorumLost {
                        acked: 2,
                        needed: 3,
                        ..
                    })
                ),
                "{result:?}"
            );
            assert!(began.elapsed() < ACK_WAIT_CAP / 2);
            assert!(rig.survives_crash(1, 0, 1), "follower 1 did count");
        }
    }

    /// The writer's one wait for its quorum is a declared wait: asleep on a
    /// follower's receipt, a front-door worker gives its seat back. One
    /// seat, a push stuck behind follower 1's shut device at quorum 3 — a
    /// close submitted behind it is answered while the push still sleeps.
    /// (A tag read needs no seat at all: the door answers it in place.)
    #[test]
    fn a_writer_asleep_on_its_quorum_gives_its_front_door_seat_back() {
        use palaemon_core::frontdoor::FrontDoor;
        #[derive(Clone)]
        struct RigDoor(Arc<DeviceGroup>);
        impl Door for RigDoor {
            type Error = ClusterError;
            fn call(&self, request: TmsRequest) -> Result<TmsResponse> {
                self.0.router.handle(request)
            }
        }
        let rig = Arc::new(DeviceGroup::new(3, 2));
        // What the wait is expected to take is the group's last measured
        // one; set-up's were microseconds. Stand in for a slow follower's.
        rig.router.topology.read().shards[&rig.id]
            .quorum_wait_ns
            .store(1_000_000_000, Ordering::Relaxed);
        let staged = rig.devices[0].puts.lock().unwrap().len();
        let shut = rig.devices[0].gate.lock().unwrap();
        let door = FrontDoor::with_capacity(RigDoor(Arc::clone(&rig)), 1, 8);
        let push = door.submit(TmsRequest::PushTag {
            session: rig.sessions[0],
            volume: "data".into(),
            tag: DeviceGroup::tag(0, 1),
            event: TagEvent::Sync,
        });
        // Follower 1's sender has staged the delta and is stuck in its sync.
        wait_for(|| rig.devices[0].puts.lock().unwrap().len() > staged);
        let read = TmsRequest::ReadTag {
            session: rig.sessions[1],
            volume: "data".into(),
        };
        assert!(
            door.submit(read).is_done(),
            "answered before submit returned"
        );
        let close = door.submit(TmsRequest::CloseSession {
            session: rig.sessions[1],
        });
        wait_for(|| close.is_done());
        assert!(!push.is_done(), "the push cannot have its third receipt");
        drop(shut);
        push.wait().unwrap();
        let drained = door.drain();
        assert_eq!(drained.submitted, drained.completed + drained.rejected);
        assert!(rig.router.flush_replication(rig.id));
        rig.assert_converged();
    }

    /// An injected counter rollback is its victim's business alone: it
    /// lands the victim's own receipt first (which would otherwise raise
    /// the token again behind it) and touches no other channel. Follower 1
    /// is stuck in a sync with the next delta queued behind it and a
    /// [`FaultKind::DropBatch`] pending on that; the push that rolls
    /// follower 2 back neither waits for follower 1's device nor delivers
    /// or drops that delta — the drop fires on follower 1's own sender
    /// once its device answers.
    #[test]
    fn a_counter_rollback_touches_only_its_victims_channel() {
        let rig = DeviceGroup::new(2, 2);
        let staged = rig.devices[0].puts.lock().unwrap().len();
        let shut = rig.devices[0].gate.lock().unwrap();
        rig.push(0, 1).unwrap(); // follower 2 vouches for it
        wait_for(|| rig.devices[0].puts.lock().unwrap().len() > staged);
        let op = rig.router.replica_status(rig.id).unwrap().ops + 1;
        let plan = FaultPlan::new(
            [
                FaultKind::DropBatch(1),
                FaultKind::CounterRollback { replica: 2, to: 0 },
            ]
            .map(|kind| PlannedFault {
                shard: rig.id,
                op,
                kind,
            }),
        );
        rig.router.set_fault_plan(Arc::clone(&plan));
        let fences = || rig.router.stats().shards[0].replication.flushes_fence;
        let before = fences();
        let (returned, queued, status) = std::thread::scope(|scope| {
            let push = scope.spawn(|| rig.push(1, 1));
            // Capped, and the gate reopened before anything is asserted: a
            // rollback that waits for follower 1 must fail, not hang.
            let deadline = Instant::now() + Duration::from_secs(10);
            while !push.is_finished() && Instant::now() < deadline {
                std::thread::yield_now();
            }
            let seen = (
                push.is_finished(),
                rig.pipe(1).depth(),
                rig.router.replica_status(rig.id).unwrap(),
            );
            drop(shut);
            push.join().unwrap().unwrap();
            seen
        });
        assert!(returned, "the rollback waited for follower 1's device");
        assert!(plan.all_fired());
        assert_eq!(queued, 1, "follower 1's delta stayed queued, drop pending");
        assert_eq!(status.replicas[2].applied, 0);
        assert!(status.replicas[1].in_quorum && status.replicas[2].in_quorum);
        wait_for(|| rig.pipe(1).depth() == 0);
        assert!(rig.survives_crash(1, 0, 1), "the window it was stuck in");
        assert!(!rig.survives_crash(1, 1, 1), "the dropped one");
        assert_eq!(fences(), before, "a rollback is not a fence");
    }

    // ------------------------------------------------------------------
    // Convergence: one repair ladder, one heal sequence
    // ------------------------------------------------------------------

    /// Export rows `sync_exports` pre-landed for a consumer that does not
    /// exist yet have no `policy/` row to be enumerated by — they are
    /// records of that name all the same, and must reach a joining
    /// replica and survive a rebuild like any other.
    #[test]
    fn pre_landed_exports_survive_a_replica_catch_up() {
        let platform = Platform::new("cl-host", Microcode::PostForeshadow);
        let router = ClusterRouter::new(42, 64);
        let (server, counter) = fresh_shard(&platform, 0);
        router.add_shard(ShardId(0), server, Some(counter)).unwrap();
        let set: Vec<_> = (0..3)
            .map(|r| {
                let (server, counter) = fresh_shard(&platform, 500 + r as u32);
                (server, Some(counter))
            })
            .collect();
        router.add_replicated_shard(ShardId(1), set, 2).unwrap();
        let producer = name_on_shard(&router, "pprod", ShardId(0));
        let consumer = name_on_shard(&router, "pcons", ShardId(1));
        router
            .handle(TmsRequest::CreatePolicy {
                owner: owner(),
                policy: Box::new(producer_policy(&producer, Some(&consumer))),
                approval: None,
                votes: Vec::new(),
            })
            .unwrap();

        let held = || -> Vec<usize> {
            let engines = router.replica_engines(ShardId(1));
            let rows = |e: &Arc<Palaemon>| e.export_records_for(&consumer, &producer).len();
            engines.iter().map(rows).collect()
        };
        assert!(router.flush_replication(ShardId(1)));
        assert_eq!(held(), [1, 1, 1], "the row pre-lands on the whole group");
        let seat = router.engine(ShardId(1)).unwrap();
        assert!(!seat.policy_names().contains(&consumer));
        assert_eq!(
            seat.export_policy_records(&consumer),
            seat.export_records_for(&consumer, &producer),
            "rows under a name with no policy row are that name's records"
        );

        let (server, counter) = fresh_shard(&platform, 510);
        router
            .add_replica(ShardId(1), server, Some(counter))
            .unwrap();
        assert_eq!(held(), [1, 1, 1, 1], "the newcomer must hold the row");
        assert!(router.quarantine(ShardId(1), "drill").is_some());
        assert!(router.reinstate(ShardId(1)));
        assert_eq!(held(), [1, 1, 1, 1], "a rebuild must keep the row");
        let status = router.replica_status(ShardId(1)).unwrap();
        assert!(status.replicas.iter().all(|r| r.in_quorum));
    }

    /// The merged repair ladder, one follower holding every kind of
    /// divergence at once: each policy gets the cheapest sufficient rung,
    /// ends byte-equal to the seat with its cursor where the chain says,
    /// and the follower ends chain-complete. Then the ladder's one branch:
    /// a cursor at the tail vouches for an in-service follower, never for a
    /// quarantined one.
    #[test]
    fn converge_applies_the_cheapest_sufficient_rung() {
        let platform = Platform::new("cl-host", Microcode::PostForeshadow);
        let (router, id) = replicated_cluster(&platform, 2, 2);
        let write = |name: &str, v: u32| {
            let policy = Box::new(versioned(name, v));
            let request = if v == 1 {
                TmsRequest::CreatePolicy {
                    owner: owner(),
                    policy,
                    approval: None,
                    votes: Vec::new(),
                }
            } else {
                TmsRequest::UpdatePolicy {
                    client: owner(),
                    policy,
                    approval: None,
                    votes: Vec::new(),
                }
            };
            router.handle(request).unwrap();
        };
        let engines = router.replica_engines(id);
        let (seat, follower) = (&engines[0], &engines[1]);
        // Every policy goes to v2 through the router; `old` keeps what the
        // follower held at v1 (records + cursor) so rows can put it back.
        let names = [
            "in-sync",
            "lagging-cursor",
            "usable-cursor",
            "no-cursor",
            "cursor-ahead",
            "unchained-equal",
            "unchained-stale-cursor",
            "unchained-unequal",
            "ghost",
            "dead-entry",
            "replayed",
        ];
        let mut old = HashMap::new();
        for name in names {
            write(name, 1);
            let cursor = follower.policy_cursor(name).expect("replicated");
            old.insert(name, (follower.export_policy_records(name), cursor));
            write(name, 2);
        }
        router
            .handle(TmsRequest::DeletePolicy {
                name: "dead-entry".into(),
                client: owner(),
                approval: None,
                votes: Vec::new(),
            })
            .unwrap();
        let rewind = |name: &str, cursor: Option<u64>| {
            follower
                .stage_policy_records(name, &old[name].0)
                .wait()
                .unwrap();
            if let Some(cursor) = cursor {
                follower.advance_policy_cursor(name, cursor);
            }
        };

        let topo = router.topology.read();
        let group = &topo.shards[&id];
        let target = &group.replicas[1];
        let tail = |name: &str| group.chain.lock().get(name).copied();
        let t = |name: &str| tail(name).expect("chained");
        // (policy, how the follower diverges) -> (cursor before, method).
        follower.advance_policy_cursor("lagging-cursor", old["lagging-cursor"].1);
        rewind("usable-cursor", Some(old["usable-cursor"].1));
        rewind("no-cursor", None);
        rewind("cursor-ahead", Some(t("cursor-ahead") + 1_000));
        for name in [
            "unchained-equal",
            "unchained-stale-cursor",
            "unchained-unequal",
        ] {
            // As after a migration install: no chain entry, no cursors.
            group.chain.lock().remove(name);
            seat.clear_policy_cursor(name);
            follower.clear_policy_cursor(name);
        }
        follower.advance_policy_cursor("unchained-stale-cursor", 7);
        rewind("unchained-unequal", None);
        // The seat dropped `ghost` outside the chain; the follower did not.
        seat.purge_policy_records("ghost").unwrap();
        group.chain.lock().remove("ghost");
        let ghost_cursor = follower.policy_cursor("ghost");
        // A deleted policy's chain entry, met by a follower with no cursor.
        follower.clear_policy_cursor("dead-entry");
        let expected = [
            (
                "cursor-ahead",
                Some(t("cursor-ahead") + 1_000),
                t("cursor-ahead"),
                "delta_resend",
            ),
            ("dead-entry", None, t("dead-entry"), "cursor_advance"),
            ("ghost", ghost_cursor, 0, "snapshot_resync"),
            (
                "lagging-cursor",
                Some(old["lagging-cursor"].1),
                t("lagging-cursor"),
                "cursor_advance",
            ),
            ("no-cursor", None, t("no-cursor"), "snapshot_resync"),
            ("unchained-stale-cursor", Some(7), 0, "cursor_advance"),
            ("unchained-unequal", None, 0, "snapshot_resync"),
            (
                "usable-cursor",
                Some(old["usable-cursor"].1),
                t("usable-cursor"),
                "delta_resend",
            ),
        ];

        let _forward = group.forward_lock.lock();
        let done = converge(group, target).unwrap();
        let repairs: Vec<_> = done
            .repairs
            .iter()
            .map(|(name, from, to, method)| (name.as_str(), *from, *to, *method))
            .collect();
        assert_eq!(repairs, expected);
        assert_eq!(done.skipped, 3, "in-sync, unchained-equal, replayed");
        for name in names {
            assert_eq!(follower.policy_cursor(name), tail(name), "{name}");
            assert_eq!(
                follower.export_policy_records(name),
                seat.export_policy_records(name),
                "{name}"
            );
        }
        assert!(follower.export_policy_records("ghost").is_empty());
        assert!(group.chain_complete(target));
        let again = converge(group, target).unwrap();
        assert!(again.repairs.is_empty() && again.bytes == 0);

        // A replayed cursor over stale records (an engine restored from
        // older storage): the cursor is all an in-service follower is asked
        // for — the chain check vouched for every link it applied — but a
        // quarantined one is verified by digest and repaired.
        rewind("replayed", Some(t("replayed")));
        assert!(converge(group, target).unwrap().repairs.is_empty());
        target.quarantine("restored from an old disk".into());
        let done = converge(group, target).unwrap();
        assert_eq!(
            done.repairs,
            [(
                "replayed".to_string(),
                tail("replayed"),
                t("replayed"),
                "delta_resend"
            )]
        );
        assert_eq!(
            follower.export_policy_records("replayed"),
            seat.export_policy_records("replayed")
        );
    }

    /// The sweep stages every repair of a follower into one commit window:
    /// K diverged policies cost that follower's device one sync.
    #[test]
    fn an_anti_entropy_sweep_costs_one_follower_sync() {
        const POLICIES: usize = 5;
        let rig = DeviceGroup::new(2, POLICIES);
        let op = rig.router.replica_status(rig.id).unwrap().ops;
        let plan = FaultPlan::new((1..=POLICIES as u64).map(|i| PlannedFault {
            shard: rig.id,
            op: op + i,
            kind: FaultKind::LoseIncremental(2),
        }));
        rig.router.set_fault_plan(Arc::clone(&plan));
        for p in 0..POLICIES {
            rig.push(p, 1).unwrap(); // lost on follower 2's wire, silently
        }
        assert!(plan.all_fired());
        assert!(rig.router.replica_status(rig.id).unwrap().replicas[2].in_quorum);

        let before = [rig.devices[0].syncs(), rig.devices[1].syncs()];
        let (repairs, _) = rig.router.anti_entropy_sweep(rig.id);
        assert_eq!(repairs, POLICIES as u64);
        assert_eq!(
            rig.devices[0].syncs() - before[0],
            0,
            "follower 1 was whole"
        );
        assert_eq!(
            rig.devices[1].syncs() - before[1],
            1,
            "five repairs must share one sync"
        );
        for p in 0..POLICIES {
            assert!(rig.survives_crash(2, p, 1));
        }
        rig.assert_converged();
        assert_eq!(rig.router.anti_entropy_sweep(rig.id), (0, 0));
    }

    /// A follower that missed one forward still holds a usable cursor:
    /// its catch-up ships the record-level diff chained onto that cursor,
    /// not the policy's snapshot.
    #[test]
    fn catch_up_of_a_usable_cursor_ships_a_diff_not_a_snapshot() {
        let platform = Platform::new("cl-host", Microcode::PostForeshadow);
        let (router, id) = replicated_cluster(&platform, 3, 2);
        create_policy(&router, "diff-0");
        let session = attest(&router, &platform, "diff-0");
        push(&router, session, 1);
        let plan = FaultPlan::new([PlannedFault {
            shard: id,
            op: router.replica_status(id).unwrap().ops + 1,
            kind: FaultKind::DropForwardToReplica(2),
        }]);
        router.set_fault_plan(Arc::clone(&plan));
        push(&router, session, 2);
        assert!(plan.all_fired());
        assert!(!router.replica_status(id).unwrap().replicas[2].in_quorum);

        let before = router.stats().shards[0].replication;
        assert!(router.reinstate(id));
        let after = router.stats().shards[0].replication;
        let shipped = after.catchup_bytes - before.catchup_bytes;
        let engines = router.replica_engines(id);
        let snapshot = engines[0].export_policy_snapshot("diff-0", 0).wire_size() as u64;
        assert!(
            0 < shipped && shipped * 2 < snapshot,
            "catch-up shipped {shipped} B against a {snapshot} B snapshot"
        );
        assert_eq!(
            after.catchup_policies_shipped - before.catchup_policies_shipped,
            1
        );
        assert_eq!(
            engines[2].export_policy_records("diff-0"),
            engines[0].export_policy_records("diff-0")
        );
        assert!(router.replica_status(id).unwrap().replicas[2].in_quorum);
    }
}
