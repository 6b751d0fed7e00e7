//! Deterministic fault injection for the replicated cluster.
//!
//! Failover code is only trustworthy if every failure scenario is
//! *reproducible*: "the primary crashed somewhere around the 40th write"
//! cannot be asserted on. A [`FaultPlan`] names faults by an exact
//! coordinate — *shard S, replicated-mutation index N* — and the router's
//! replication path consults the plan at three well-defined sites of every
//! mutation (before forwarding, per-follower forward, after the quorum
//! ack). Each planned fault fires **exactly once**, at exactly that
//! operation, and is recorded so a test can assert both the firing and its
//! consequences.
//!
//! The eight fault kinds cover the interesting corners of the replication
//! protocol (see `router` for the semantics each one exercises):
//!
//! * [`FaultKind::CrashBeforeForward`] — the primary dies after applying a
//!   mutation locally but before any follower saw the delta: the write was
//!   never quorum-acked and is legitimately lost by the failover.
//! * [`FaultKind::CrashAfterQuorum`] — the primary dies right after the
//!   write quorum acked: the write *was* acked and must survive.
//! * [`FaultKind::DropForwardToReplica`] — the link to one follower is
//!   partitioned for this mutation: the follower misses the delta and must
//!   be demoted from the write quorum until it catches up.
//! * [`FaultKind::LoseIncremental`] — an incremental delta vanishes on the
//!   wire *without the router noticing*: the gap must surface at the next
//!   delta's chain check (snapshot resync), never as silent divergence.
//! * [`FaultKind::ReorderIncremental`] — an incremental delta is delivered
//!   to one follower after its successor: both out-of-order deliveries hit
//!   the chain check; the stale one must never overwrite newer state.
//! * [`FaultKind::CounterRollback`] — a replica's rollback-counter
//!   watermark is reset to an older value (the Fig. 6 rollback signature):
//!   the freshness election must never seat it.
//! * [`FaultKind::StallForwardChannel`] — one follower's background
//!   forward channel wedges: deltas enqueue but nothing is delivered until
//!   a fence drain goes through the stall or a reinstate repairs the path.
//!   A mutation parks on the wedged follower's verdict only when its write
//!   quorum needs that follower; otherwise it acks on the others' receipts
//!   and the wedged copy stays queued, up to the channel's backlog bound —
//!   at which the follower is demoted. The failover fence *ignores* the
//!   stall, which is exactly how a write queued behind a dead pipe —
//!   acked elsewhere, or still parked — reaches the electorate before a
//!   primary crash's election.
//! * [`FaultKind::DropBatch`] — the next window delivered on one
//!   follower's channel vanishes on the wire, silently (no demotion): the
//!   window-wide chain gap must surface at the follower's next delivery as
//!   a snapshot resync — the per-window analogue of
//!   [`FaultKind::LoseIncremental`].
//!
//! For "kill this replica's process" scenarios — where the replica stops
//! answering *requests*, not just replication traffic — [`kill_server_at`]
//! builds a [`FaultHook`] for the replica's
//! [`TmsServer`](palaemon_core::server::TmsServer) that fails every request
//! from a named operation index onward; the next health probe then
//! quarantines it through the normal monitoring path.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use palaemon_core::server::{FaultHook, TmsRequest};
use palaemon_core::PalaemonError;
use parking_lot::Mutex;

use crate::ring::ShardId;

/// What to break (see the module docs for the scenario each kind models).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Quarantine the primary after it applied the mutation locally but
    /// before any forward reached a follower.
    CrashBeforeForward,
    /// Quarantine the primary right after the write quorum acked.
    CrashAfterQuorum,
    /// Silently drop the forward to follower `.0` for this mutation.
    DropForwardToReplica(usize),
    /// Lose this mutation's incremental delta on the wire to follower `.0`
    /// **without the router noticing** (no demotion): the follower's chain
    /// now has a gap that the *next* delta's parent check must surface as
    /// a snapshot resync — never silent divergence. Contrast with
    /// [`FaultKind::DropForwardToReplica`], where the router itself
    /// observes the drop and demotes.
    LoseIncremental(usize),
    /// Deliver this mutation's delta to follower `.0` *after* the next one
    /// (a reordered network): the out-of-order delivery must be rejected
    /// by the chain check and trigger a snapshot resync, and the late
    /// stale delta must never overwrite newer state.
    ReorderIncremental(usize),
    /// Roll replica `replica`'s applied-counter watermark back to `to`.
    CounterRollback {
        /// Index of the replica to roll back.
        replica: usize,
        /// The (older) counter value it reports afterwards.
        to: u64,
    },
    /// Wedge follower `.0`'s background forward channel from this
    /// mutation's enqueue on: deltas keep queueing — their mutations
    /// parked on the ack only where the write quorum needs this follower —
    /// but the sender stops delivering until a fence drain (failover,
    /// migration, the monitor's sweep) goes through the stall or
    /// [`reinstate`](crate::ClusterRouter::reinstate) clears it.
    StallForwardChannel(usize),
    /// Silently lose the *next window* delivered on follower `.0`'s
    /// channel — the whole wire transfer, however many deltas it carries —
    /// without the router noticing (no demotion).
    DropBatch(usize),
}

/// The replication-path site a fault kind fires at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FaultSite {
    /// After the primary applied, before any forward.
    BeforeForward,
    /// Just before the forward to follower `.0`.
    ForwardTo(usize),
    /// After the write quorum acked.
    AfterQuorum,
}

impl FaultKind {
    pub(crate) fn site(self) -> FaultSite {
        match self {
            FaultKind::CrashBeforeForward => FaultSite::BeforeForward,
            FaultKind::DropForwardToReplica(k)
            | FaultKind::LoseIncremental(k)
            | FaultKind::ReorderIncremental(k)
            | FaultKind::StallForwardChannel(k)
            | FaultKind::DropBatch(k) => FaultSite::ForwardTo(k),
            FaultKind::CrashAfterQuorum | FaultKind::CounterRollback { .. } => {
                FaultSite::AfterQuorum
            }
        }
    }
}

/// One planned fault: fire `kind` when shard `shard` executes its `op`-th
/// replicated mutation (1-based; the coordinate
/// [`ClusterRouter::replica_status`](crate::ClusterRouter::replica_status)
/// reports as `ops`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannedFault {
    /// The replica group the fault targets.
    pub shard: ShardId,
    /// 1-based replicated-mutation index within that group.
    pub op: u64,
    /// What breaks.
    pub kind: FaultKind,
}

struct Slot {
    fault: PlannedFault,
    fired: bool,
}

/// A deterministic fault schedule, installed on a router with
/// [`ClusterRouter::set_fault_plan`](crate::ClusterRouter::set_fault_plan).
/// Faults can also be [`FaultPlan::schedule`]d incrementally while the
/// cluster runs (property tests interleave faults with live mutations).
#[derive(Default)]
pub struct FaultPlan {
    slots: Mutex<Vec<Slot>>,
    fired: Mutex<Vec<PlannedFault>>,
}

impl std::fmt::Debug for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let slots = self.slots.lock();
        f.debug_struct("FaultPlan")
            .field("planned", &slots.len())
            .field("fired", &slots.iter().filter(|s| s.fired).count())
            .finish()
    }
}

impl FaultPlan {
    /// Builds a plan from a fixed schedule.
    pub fn new(faults: impl IntoIterator<Item = PlannedFault>) -> Arc<Self> {
        let plan = Arc::new(FaultPlan::default());
        for fault in faults {
            plan.schedule(fault);
        }
        plan
    }

    /// Adds one more fault to the schedule (usable while traffic runs).
    pub fn schedule(&self, fault: PlannedFault) {
        self.slots.lock().push(Slot {
            fault,
            fired: false,
        });
    }

    /// Consumes every not-yet-fired fault planted at `(shard, op, site)`,
    /// in schedule order. Each planned fault is returned at most once,
    /// ever — the exactly-once contract the unit tests pin down.
    pub(crate) fn take(&self, shard: ShardId, op: u64, site: FaultSite) -> Vec<FaultKind> {
        let mut slots = self.slots.lock();
        let mut out = Vec::new();
        for slot in slots.iter_mut() {
            if !slot.fired
                && slot.fault.shard == shard
                && slot.fault.op == op
                && slot.fault.kind.site() == site
            {
                slot.fired = true;
                out.push(slot.fault.kind);
                self.fired.lock().push(slot.fault);
            }
        }
        out
    }

    /// Every fault that has fired, in firing order.
    pub fn fired(&self) -> Vec<PlannedFault> {
        self.fired.lock().clone()
    }

    /// True when every planned fault has fired.
    pub fn all_fired(&self) -> bool {
        self.slots.lock().iter().all(|s| s.fired)
    }
}

/// Builds a [`FaultHook`] that kills a replica's server at its `at`-th
/// handled request (1-based): that request and every later one fail
/// without touching the engine, like a process that died mid-traffic. The
/// router's health probe then fails against it and quarantines it.
pub fn kill_server_at(at: u64) -> FaultHook {
    let seen = AtomicU64::new(0);
    Arc::new(move |_req: &TmsRequest| {
        if seen.fetch_add(1, Ordering::Relaxed) + 1 >= at {
            return Err(PalaemonError::Fs(
                "replica killed by fault plan".to_string(),
            ));
        }
        Ok(())
    })
}

/// Builds a [`FaultHook`] that kills a replica's server for a *window*
/// of handled requests — from its `from`-th through its `to`-th
/// (1-based, inclusive), recovering afterwards. Models a crash-restart:
/// the health probe fails while the window is open (quarantining the
/// replica), then succeeds again, so a monitor's probation heal can
/// catch the replica up and re-admit it without an operator
/// `reinstate`.
pub fn kill_server_between(from: u64, to: u64) -> FaultHook {
    let seen = AtomicU64::new(0);
    Arc::new(move |_req: &TmsRequest| {
        let n = seen.fetch_add(1, Ordering::Relaxed) + 1;
        if n >= from && n <= to {
            return Err(PalaemonError::Fs(
                "replica down for repair window".to_string(),
            ));
        }
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_fault_fires_exactly_once_at_the_named_operation() {
        let plan = FaultPlan::new([
            PlannedFault {
                shard: ShardId(0),
                op: 3,
                kind: FaultKind::CrashBeforeForward,
            },
            PlannedFault {
                shard: ShardId(0),
                op: 5,
                kind: FaultKind::CrashAfterQuorum,
            },
            PlannedFault {
                shard: ShardId(1),
                op: 3,
                kind: FaultKind::DropForwardToReplica(2),
            },
            PlannedFault {
                shard: ShardId(1),
                op: 4,
                kind: FaultKind::CounterRollback { replica: 1, to: 1 },
            },
        ]);

        // Walk both shards through ops 1..=6, probing every site the way
        // the replication path does.
        let mut fired = Vec::new();
        for op in 1..=6u64 {
            for shard in [ShardId(0), ShardId(1)] {
                for site in [
                    FaultSite::BeforeForward,
                    FaultSite::ForwardTo(1),
                    FaultSite::ForwardTo(2),
                    FaultSite::AfterQuorum,
                ] {
                    for kind in plan.take(shard, op, site) {
                        fired.push((shard, op, kind));
                    }
                }
            }
        }
        assert_eq!(
            fired,
            vec![
                (ShardId(0), 3, FaultKind::CrashBeforeForward),
                (ShardId(1), 3, FaultKind::DropForwardToReplica(2)),
                (
                    ShardId(1),
                    4,
                    FaultKind::CounterRollback { replica: 1, to: 1 }
                ),
                (ShardId(0), 5, FaultKind::CrashAfterQuorum),
            ],
            "each fault must fire exactly once, at its own (shard, op)"
        );
        assert!(plan.all_fired());
        assert_eq!(plan.fired().len(), 4);
        // A second pass over the same coordinates fires nothing.
        for op in 1..=6u64 {
            for shard in [ShardId(0), ShardId(1)] {
                for site in [
                    FaultSite::BeforeForward,
                    FaultSite::ForwardTo(1),
                    FaultSite::ForwardTo(2),
                    FaultSite::AfterQuorum,
                ] {
                    assert!(plan.take(shard, op, site).is_empty());
                }
            }
        }
    }

    #[test]
    fn sites_partition_the_fault_kinds() {
        assert_eq!(
            FaultKind::CrashBeforeForward.site(),
            FaultSite::BeforeForward
        );
        assert_eq!(
            FaultKind::DropForwardToReplica(4).site(),
            FaultSite::ForwardTo(4)
        );
        assert_eq!(
            FaultKind::LoseIncremental(1).site(),
            FaultSite::ForwardTo(1)
        );
        assert_eq!(
            FaultKind::ReorderIncremental(2).site(),
            FaultSite::ForwardTo(2)
        );
        assert_eq!(
            FaultKind::StallForwardChannel(1).site(),
            FaultSite::ForwardTo(1)
        );
        assert_eq!(FaultKind::DropBatch(2).site(), FaultSite::ForwardTo(2));
        assert_eq!(FaultKind::CrashAfterQuorum.site(), FaultSite::AfterQuorum);
        assert_eq!(
            FaultKind::CounterRollback { replica: 0, to: 0 }.site(),
            FaultSite::AfterQuorum
        );
        // A drop targeted at follower 4 must not fire at follower 2's
        // forward site.
        let plan = FaultPlan::new([PlannedFault {
            shard: ShardId(9),
            op: 1,
            kind: FaultKind::DropForwardToReplica(4),
        }]);
        assert!(plan.take(ShardId(9), 1, FaultSite::ForwardTo(2)).is_empty());
        assert_eq!(
            plan.take(ShardId(9), 1, FaultSite::ForwardTo(4)),
            vec![FaultKind::DropForwardToReplica(4)]
        );
    }

    #[test]
    fn kill_hook_fails_from_the_named_request_on() {
        let hook = kill_server_at(3);
        let probe = TmsRequest::PolicyCount;
        assert!(hook(&probe).is_ok());
        assert!(hook(&probe).is_ok());
        assert!(hook(&probe).is_err(), "3rd request must be the first kill");
        assert!(hook(&probe).is_err(), "a killed server stays dead");
    }
}
