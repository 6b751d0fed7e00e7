//! Sharded multi-instance PALÆMON — scale-out for the trust management
//! service.
//!
//! The paper evaluates one PALÆMON instance; its Byzantine-stakeholder
//! model, though, is exactly the setting where a single trusted front door
//! must serve *many* stakeholders and policies. This crate reproduces the
//! scale-out shape related systems use (TeeDAO's distributed trust nodes,
//! Dstack's replicated attested instances behind a router): a
//! [`ClusterRouter`] speaks the existing
//! [`TmsRequest`](palaemon_core::server::TmsRequest) /
//! [`TmsResponse`](palaemon_core::server::TmsResponse) protocol and fans
//! requests out across N independent `Palaemon` engines.
//!
//! * **Routing** ([`ring`]) — policy names map to shards via a consistent-
//!   hash ring (virtual nodes, deterministic seed), so the assignment is
//!   stable across restarts and adding a shard remaps only ~1/N of the
//!   policies.
//! * **Per-shard rollback counters** — every shard runs its own
//!   [`TmsServer`](palaemon_core::server::TmsServer) with its own
//!   `MonotonicCounter`-backed `BatchedCounter`, so Fig. 6 commit traffic
//!   scales with shard count instead of serializing on one counter.
//! * **Session pinning** — attestation binds a session to the shard that
//!   verified the quote; the router hands out cluster-level session ids and
//!   keeps dispatching tag traffic to the pinned shard.
//! * **Rebalancing** ([`router`]) — [`ClusterRouter::add_shard`] /
//!   [`ClusterRouter::drain_shard`] migrate the affected policy keys
//!   between engines under a cutover barrier: reads either see the fully
//!   populated source or the fully populated target, never a half-migrated
//!   policy.
//! * **Replication & failover** ([`router`]) — each ring arc can be a
//!   replica group ([`ClusterRouter::add_replicated_shard`]): the primary
//!   applies a mutation, enqueues the counter-attested incremental delta
//!   onto per-follower background channels, and acks at the configurable
//!   write quorum's last durable receipt — not the slowest follower's; a
//!   follower whose undelivered backlog reaches its bound is demoted. A
//!   quarantined primary fails over to the freshest in-quorum follower —
//!   freshness decided by the Fig. 6 counter token, so a rolled-back
//!   replica never wins — instead of taking its arc offline. Reinstated,
//!   replacement and monitor-healed replicas all return through one
//!   convergence routine (digest-verified, cursor-bounded diffs) before
//!   rejoining the quorum.
//! * **Byzantine shard health** — periodic [`ClusterRouter::health_check`]
//!   probes every replica and watches its rollback counters for
//!   regressions; a misbehaving replica is quarantined (triggering a
//!   failover when it held the primary seat) and surfaced in
//!   [`ClusterStats`].
//! * **Self-healing** ([`monitor`]) — an optional [`ClusterMonitor`]
//!   closes the health loop without an operator: background probe sweeps
//!   (automatic quarantine + failover, dark-group recovery), per-policy
//!   chain-cursor/digest anti-entropy that repairs quietly-diverged
//!   followers before a mutation trips the chain check, and automatic
//!   re-admission of caught-up replicas — every action recorded on the
//!   telemetry flight recorder.
//! * **Deterministic fault injection** ([`fault`]) — a [`FaultPlan`] names
//!   crash / partition / counter-rollback faults by an exact
//!   (shard, operation) coordinate, so every failover scenario the test
//!   suite asserts on is reproducible.

pub mod fault;
pub mod monitor;
mod repair;
pub mod ring;
pub mod router;

pub use fault::{kill_server_at, kill_server_between, FaultKind, FaultPlan, PlannedFault};
pub use monitor::{ClusterMonitor, MonitorConfig, TickReport};
pub use ring::{HashRing, ShardId};
pub use router::{
    strict_shard, ClusterDoor, ClusterError, ClusterRouter, ClusterStats, PolicyMove,
    QuarantineOutcome, ReadPreference, ReplicaHealth, ReplicaSetStatus, ReplicaStatus,
    ReplicationStats, ShardHealth, ShardPlan, ShardStats,
};

/// Convenience alias for results in this crate.
pub type Result<T> = std::result::Result<T, router::ClusterError>;
