//! The control-plane flight recorder: a bounded ring of the rare,
//! high-signal events an operator replays after an incident —
//! quarantines, failover elections, fence drains, gap rejections,
//! snapshot resyncs, migration cutovers, batch drops, and the
//! cluster monitor's autonomous actions (auto-failovers, anti-entropy
//! repairs, re-admissions, dark groups).
//!
//! The ring is a leaf mutex (taken, pushed, released — never nested
//! with router or engine locks) and events are rare by construction,
//! so recording stays off the mutation hot path. When the ring wraps,
//! the overwritten events are counted: the exposition can always say
//! how much history is missing.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One recorded control-plane event.
#[derive(Debug, Clone)]
pub struct Event {
    /// Monotonic sequence number (1-based, gap-free across drops).
    pub seq: u64,
    /// Time since the recorder was created.
    pub at: Duration,
    /// What happened.
    pub kind: EventKind,
}

/// The control-plane event taxonomy.
#[derive(Debug, Clone)]
pub enum EventKind {
    /// A replica was quarantined (probe failure, watch regression,
    /// injected fault, or a failed catch-up on reinstate).
    Quarantine {
        /// Shard id.
        shard: u64,
        /// Replica index within the shard.
        replica: usize,
        /// Why the replica was benched.
        reason: String,
    },
    /// A follower left the write quorum without being quarantined (its
    /// forward backlog hit the cap, the link to it was seen to fail, or an
    /// apply, install, purge or sweep repair failed on it). It is neither
    /// electable nor quorum-read until a heal re-admits it.
    Demotion {
        /// Shard id.
        shard: u64,
        /// Replica index within the shard.
        replica: usize,
        /// The first diagnosis (later ones never overwrite it).
        reason: String,
    },
    /// A primary was deposed and a follower elected in its place.
    Election {
        /// Shard id.
        shard: u64,
        /// Replica index of the deposed primary.
        deposed: usize,
        /// Replica index of the election winner.
        winner: usize,
        /// The winner's applied rollback-counter token at election.
        winner_token: u64,
        /// Mutations delivered by the fence drain that preceded the
        /// election.
        fence_drained: u64,
    },
    /// A fence drain flushed a follower's queued forwards.
    FenceDrain {
        /// Shard id.
        shard: u64,
        /// Follower index whose pipe was drained.
        replica: usize,
        /// Mutations delivered by the drain.
        mutations: u64,
    },
    /// A follower rejected an out-of-sequence delta (parent-token gap).
    GapRejection {
        /// Shard id.
        shard: u64,
        /// Follower index that rejected.
        replica: usize,
        /// Policy whose chain had the gap.
        policy: String,
        /// Token of the rejected delta.
        token: u64,
        /// Parent token the delta claimed.
        parent: u64,
    },
    /// A follower was healed with a full snapshot after a gap.
    SnapshotResync {
        /// Shard id.
        shard: u64,
        /// Follower index that was resynced.
        replica: usize,
        /// Policy that was re-exported.
        policy: String,
        /// Token the snapshot carries.
        token: u64,
    },
    /// The shard map changed (scale-out, scale-in, or rebalance).
    MigrationCutover {
        /// Shard id added, if any.
        added: Option<u64>,
        /// Shard id removed, if any.
        removed: Option<u64>,
        /// Policies moved during the cutover.
        moves: u64,
    },
    /// A forward batch was dropped (injected fault or shutdown race);
    /// its waiters were failed, not left hanging.
    BatchDrop {
        /// Shard id.
        shard: u64,
        /// Follower index whose batch dropped.
        replica: usize,
        /// Mutations in the dropped batch.
        mutations: u64,
    },
    /// The cluster monitor deposed a failed primary and seated a
    /// follower without operator involvement.
    AutoFailover {
        /// Shard id.
        shard: u64,
        /// Replica index of the deposed primary.
        deposed: usize,
        /// Replica index the monitor seated in its place.
        winner: usize,
        /// Why the monitor pulled the primary.
        reason: String,
    },
    /// The monitor's anti-entropy sweep converged a diverged follower
    /// onto the group's chain tail for one policy.
    AntiEntropyRepair {
        /// Shard id.
        shard: u64,
        /// Follower index that was healed.
        replica: usize,
        /// Policy whose chain was repaired.
        policy: String,
        /// The follower's chain cursor before the repair (`None` when it
        /// had no chain entry for the policy at all).
        from: Option<u64>,
        /// The chain tail the repair converged onto.
        to: u64,
        /// How the repair was performed: `cursor_advance` (digests
        /// already matched), `delta_resend` (cursor-bounded diff), or
        /// `snapshot_resync` (full re-base).
        method: &'static str,
    },
    /// A heal converged a replica onto the primary on (re)join,
    /// repairing only the policies whose chain cursor or digest diverged.
    CatchUp {
        /// Shard id.
        shard: u64,
        /// Replica index that was caught up.
        replica: usize,
        /// Policies repaired (cursor set, delta resend or snapshot).
        shipped: u64,
        /// Policies skipped because cursor and digest already matched.
        skipped: u64,
        /// Wire bytes the repairs shipped (0 for an in-sync replica).
        bytes: u64,
    },
    /// The monitor re-admitted a caught-up replica to the write quorum.
    AutoReadmit {
        /// Shard id.
        shard: u64,
        /// Replica index that rejoined.
        replica: usize,
        /// The replica's applied freshness token at re-admission.
        applied: u64,
    },
    /// A primary was deposed with no electable successor: the group is
    /// dark (unroutable) until a replica is healed or reinstated.
    GroupDark {
        /// Shard id.
        shard: u64,
        /// Replica index of the deposed primary.
        deposed: usize,
        /// Why the primary was pulled.
        reason: String,
    },
}

impl EventKind {
    /// The stable taxonomy name of this event.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::Quarantine { .. } => "quarantine",
            EventKind::Demotion { .. } => "demotion",
            EventKind::Election { .. } => "election",
            EventKind::FenceDrain { .. } => "fence_drain",
            EventKind::GapRejection { .. } => "gap_rejection",
            EventKind::SnapshotResync { .. } => "snapshot_resync",
            EventKind::MigrationCutover { .. } => "migration_cutover",
            EventKind::BatchDrop { .. } => "batch_drop",
            EventKind::AutoFailover { .. } => "auto_failover",
            EventKind::AntiEntropyRepair { .. } => "anti_entropy_repair",
            EventKind::CatchUp { .. } => "catch_up",
            EventKind::AutoReadmit { .. } => "auto_readmit",
            EventKind::GroupDark { .. } => "group_dark",
        }
    }

    /// The event's payload as JSON object fields (no surrounding
    /// braces), used by the snapshot exposition.
    pub fn json_fields(&self) -> String {
        fn opt(v: &Option<u64>) -> String {
            match v {
                Some(v) => v.to_string(),
                None => "null".to_string(),
            }
        }
        match self {
            EventKind::Quarantine {
                shard,
                replica,
                reason,
            }
            | EventKind::Demotion {
                shard,
                replica,
                reason,
            } => format!(
                "\"shard\":{shard},\"replica\":{replica},\"reason\":{}",
                crate::snapshot::json_string(reason)
            ),
            EventKind::Election {
                shard,
                deposed,
                winner,
                winner_token,
                fence_drained,
            } => format!(
                "\"shard\":{shard},\"deposed\":{deposed},\"winner\":{winner},\
                 \"winner_token\":{winner_token},\"fence_drained\":{fence_drained}"
            ),
            EventKind::FenceDrain {
                shard,
                replica,
                mutations,
            } => format!("\"shard\":{shard},\"replica\":{replica},\"mutations\":{mutations}"),
            EventKind::GapRejection {
                shard,
                replica,
                policy,
                token,
                parent,
            } => format!(
                "\"shard\":{shard},\"replica\":{replica},\"policy\":{},\
                 \"token\":{token},\"parent\":{parent}",
                crate::snapshot::json_string(policy)
            ),
            EventKind::SnapshotResync {
                shard,
                replica,
                policy,
                token,
            } => format!(
                "\"shard\":{shard},\"replica\":{replica},\"policy\":{},\"token\":{token}",
                crate::snapshot::json_string(policy)
            ),
            EventKind::MigrationCutover {
                added,
                removed,
                moves,
            } => format!(
                "\"added\":{},\"removed\":{},\"moves\":{moves}",
                opt(added),
                opt(removed)
            ),
            EventKind::BatchDrop {
                shard,
                replica,
                mutations,
            } => format!("\"shard\":{shard},\"replica\":{replica},\"mutations\":{mutations}"),
            EventKind::AutoFailover {
                shard,
                deposed,
                winner,
                reason,
            } => format!(
                "\"shard\":{shard},\"deposed\":{deposed},\"winner\":{winner},\"reason\":{}",
                crate::snapshot::json_string(reason)
            ),
            EventKind::AntiEntropyRepair {
                shard,
                replica,
                policy,
                from,
                to,
                method,
            } => format!(
                "\"shard\":{shard},\"replica\":{replica},\"policy\":{},\
                 \"from\":{},\"to\":{to},\"method\":{}",
                crate::snapshot::json_string(policy),
                opt(from),
                crate::snapshot::json_string(method)
            ),
            EventKind::CatchUp {
                shard,
                replica,
                shipped,
                skipped,
                bytes,
            } => format!(
                "\"shard\":{shard},\"replica\":{replica},\"shipped\":{shipped},\
                 \"skipped\":{skipped},\"bytes\":{bytes}"
            ),
            EventKind::AutoReadmit {
                shard,
                replica,
                applied,
            } => format!("\"shard\":{shard},\"replica\":{replica},\"applied\":{applied}"),
            EventKind::GroupDark {
                shard,
                deposed,
                reason,
            } => format!(
                "\"shard\":{shard},\"deposed\":{deposed},\"reason\":{}",
                crate::snapshot::json_string(reason)
            ),
        }
    }
}

/// A bounded ring of control-plane [`Event`]s.
pub struct FlightRecorder {
    ring: Mutex<VecDeque<Event>>,
    cap: usize,
    seq: AtomicU64,
    dropped: AtomicU64,
    origin: Instant,
}

impl FlightRecorder {
    /// A recorder retaining at most `cap` events (`cap` is clamped to at
    /// least one).
    pub fn new(cap: usize) -> FlightRecorder {
        FlightRecorder {
            ring: Mutex::new(VecDeque::new()),
            cap: cap.max(1),
            seq: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            origin: Instant::now(),
        }
    }

    /// Records one event, evicting (and counting) the oldest when full.
    pub fn record(&self, kind: EventKind) {
        let event = Event {
            seq: self.seq.fetch_add(1, Ordering::Relaxed) + 1,
            at: self.origin.elapsed(),
            kind,
        };
        let mut ring = self.ring.lock().unwrap();
        if ring.len() == self.cap {
            ring.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(event);
    }

    /// Every retained event, oldest first.
    pub fn events(&self) -> Vec<Event> {
        self.ring.lock().unwrap().iter().cloned().collect()
    }

    /// The last `n` retained events, oldest first.
    pub fn tail(&self, n: usize) -> Vec<Event> {
        let ring = self.ring.lock().unwrap();
        let skip = ring.len().saturating_sub(n);
        ring.iter().skip(skip).cloned().collect()
    }

    /// Retained event count.
    pub fn len(&self) -> usize {
        self.ring.lock().unwrap().len()
    }

    /// True when nothing has been recorded (or everything was evicted).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events evicted by ring wrap-around.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("len", &self.len())
            .field("cap", &self.cap)
            .field("dropped", &self.dropped())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn probe(n: u64) -> EventKind {
        EventKind::FenceDrain {
            shard: 0,
            replica: 1,
            mutations: n,
        }
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let r = FlightRecorder::new(3);
        for n in 1..=5 {
            r.record(probe(n));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 2);
        let events = r.events();
        // Sequence numbers stay gap-free across eviction.
        assert_eq!(
            events.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![3, 4, 5]
        );
        assert!(events.windows(2).all(|w| w[0].at <= w[1].at));
    }

    #[test]
    fn tail_returns_newest_oldest_first() {
        let r = FlightRecorder::new(10);
        for n in 1..=6 {
            r.record(probe(n));
        }
        let tail = r.tail(2);
        assert_eq!(tail.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![5, 6]);
        // Asking for more than retained returns everything.
        assert_eq!(r.tail(100).len(), 6);
    }

    #[test]
    fn event_names_cover_the_taxonomy() {
        let kinds = [
            EventKind::Quarantine {
                shard: 1,
                replica: 0,
                reason: "probe".into(),
            },
            EventKind::Demotion {
                shard: 1,
                replica: 2,
                reason: "forward backlog at the cap".into(),
            },
            EventKind::Election {
                shard: 1,
                deposed: 0,
                winner: 2,
                winner_token: 9,
                fence_drained: 3,
            },
            EventKind::FenceDrain {
                shard: 1,
                replica: 2,
                mutations: 4,
            },
            EventKind::GapRejection {
                shard: 1,
                replica: 2,
                policy: "p".into(),
                token: 7,
                parent: 5,
            },
            EventKind::SnapshotResync {
                shard: 1,
                replica: 2,
                policy: "p".into(),
                token: 7,
            },
            EventKind::MigrationCutover {
                added: Some(2),
                removed: None,
                moves: 12,
            },
            EventKind::BatchDrop {
                shard: 1,
                replica: 2,
                mutations: 8,
            },
            EventKind::AutoFailover {
                shard: 1,
                deposed: 0,
                winner: 2,
                reason: "probe failed".into(),
            },
            EventKind::AntiEntropyRepair {
                shard: 1,
                replica: 2,
                policy: "p".into(),
                from: Some(5),
                to: 7,
                method: "delta_resend",
            },
            EventKind::CatchUp {
                shard: 1,
                replica: 2,
                shipped: 1,
                skipped: 3,
                bytes: 96,
            },
            EventKind::AutoReadmit {
                shard: 1,
                replica: 2,
                applied: 7,
            },
            EventKind::GroupDark {
                shard: 1,
                deposed: 0,
                reason: "no electable successor".into(),
            },
        ];
        let names: Vec<_> = kinds.iter().map(|k| k.name()).collect();
        assert_eq!(
            names,
            vec![
                "quarantine",
                "demotion",
                "election",
                "fence_drain",
                "gap_rejection",
                "snapshot_resync",
                "migration_cutover",
                "batch_drop",
                "auto_failover",
                "anti_entropy_repair",
                "catch_up",
                "auto_readmit",
                "group_dark",
            ]
        );
        for kind in &kinds {
            let fields = kind.json_fields();
            assert!(!fields.contains('{') && !fields.contains('}'), "{fields}");
        }
    }
}
