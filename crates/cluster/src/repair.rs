//! Convergence: the **one** repair ladder ([`converge`]) and the **one**
//! heal sequence ([`ReplicaSet::heal`]) that bring a replica back. Every
//! way back into a group — operator `reinstate`, a joining `add_replica`,
//! the monitor's dark-group recovery, probation heal and anti-entropy
//! sweep — is a thin wrapper in [`crate::router`] that picks the replicas
//! and books the returned [`Converged`], so "converged" has one definition.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::atomic::Ordering;
use std::sync::Arc;

use palaemon_core::server::TmsRequest;
use palaemon_core::tms::{records_digest, PolicyDelta, PolicyRecords};
use palaemon_db::ChangeSet;
use palaemon_telemetry::EventKind;

use crate::router::{Replica, ReplicaSet};

/// One replica's health probe plus its Fig. 6 regression watches, run
/// with **no** router lock held (the probe may block on a wedged
/// engine). Returns the quarantine reason when the replica is unfit,
/// `None` when it passes; already-quarantined replicas are not probed.
pub(super) fn probe_replica(replica: &Replica) -> Option<String> {
    if replica.is_quarantined() {
        return None;
    }
    // Probe with a benign read; a replica that cannot even count its
    // policies is not fit to serve or vote.
    if let Err(e) = replica.server.handle(TmsRequest::PolicyCount) {
        return Some(format!("probe failed: {e}"));
    }
    // The Fig. 6 signature of a Byzantine replica: its physical rollback
    // counter or its applied freshness token went backwards. The two
    // watches have different repair stories (counter-file tampering vs
    // replication-state rollback), so the reason names which one fired.
    if let Some(counter) = &replica.counter {
        let value = counter.value();
        let last = replica.watch_counter.load(Ordering::Acquire);
        if value < last {
            return Some(format!("rollback counter regressed: {last} -> {value}"));
        }
        replica.watch_counter.store(value, Ordering::Release);
    }
    let applied = replica.applied.load(Ordering::Acquire);
    let last = replica.watch_applied.load(Ordering::Acquire);
    if applied < last {
        return Some(format!(
            "applied freshness token regressed: {last} -> {applied}"
        ));
    }
    replica.watch_applied.store(applied, Ordering::Release);
    None
}

/// The freshness comparator every seat election shares: the candidate
/// with the highest applied counter token wins; ties go to the lowest
/// index.
pub(super) fn freshest<'a>(
    candidates: impl Iterator<Item = (usize, &'a Arc<Replica>)>,
) -> Option<usize> {
    candidates
        .max_by(|(ia, a), (ib, b)| {
            let fa = a.applied.load(Ordering::Acquire);
            let fb = b.applied.load(Ordering::Acquire);
            fa.cmp(&fb).then(ib.cmp(ia))
        })
        .map(|(i, _)| i)
}

/// Record-level diff turning `have` into `want` — tombstones for keys only
/// `have` holds, puts for keys `want` adds or changes: the payload of a
/// cursor-bounded **delta resend**, and how cross-shard exports are
/// reconciled. Empty when the stores already agree.
pub(super) fn diff_records(want: &PolicyRecords, have: &PolicyRecords) -> ChangeSet {
    let target: HashMap<&[u8], &[u8]> =
        want.iter().map(|(k, v)| (k.as_ref(), v.as_ref())).collect();
    let current: HashMap<&[u8], &[u8]> =
        have.iter().map(|(k, v)| (k.as_ref(), v.as_ref())).collect();
    let mut changes = ChangeSet::default();
    for (k, _) in have {
        if !target.contains_key(k.as_ref()) {
            changes.record_delete(k.clone());
        }
    }
    for (k, v) in want {
        if current.get(k.as_ref()) != Some(&v.as_ref()) {
            changes.record_put(k.clone(), v.clone());
        }
    }
    changes
}

/// What one [`converge`] did; its caller books it (flight events, tick
/// report, `catchup_*` counters).
#[derive(Default)]
pub(super) struct Converged {
    /// One `(policy, cursor before, chain tail converged onto — 0 without
    /// a chain entry —, method)` per repaired policy, in name order. The
    /// method is `cursor_advance`, `delta_resend` or `snapshot_resync`.
    pub(super) repairs: Vec<(String, Option<u64>, u64, &'static str)>,
    /// Policies found converged already.
    pub(super) skipped: u64,
    /// Wire bytes the repairs shipped (0 when only cursors moved).
    pub(super) bytes: u64,
}

/// Converges `target` onto the group's seat. Caller holds `forward_lock`
/// (or the topology write lock), and `target`'s channel is drained or
/// purged, so nothing lands on it meanwhile.
///
/// Everything is read from **one consistent cut** of the seat
/// ([`Palaemon::replication_snapshot`](palaemon_core::tms::Palaemon::replication_snapshot)):
/// a concurrent mutation can neither interleave between per-policy exports
/// nor skew a divergence check. Over every name the chain, the seat or the
/// target knows — a policy the seat no longer holds is the empty record
/// set, so ghosts and chain entries of deleted policies need no special
/// case — the cheapest sufficient rung converges both the bytes and the
/// cursor (`None` where the chain holds no entry: a minted cursor would
/// disagree with the absent tail forever):
///
/// 1. **skip** — cursor at the tail and digest equal. An in-service target
///    at a chain tail is trusted on the cursor alone: the chain check
///    vouched for every link. A **quarantined or joining** target is not —
///    an engine restored from older storage can replay a cursor over stale
///    records — and is always verified by digest.
/// 2. **set cursor** — digest equal, cursor off the tail (a redelivered
///    window or an earlier repair carried the bytes).
/// 3. **delta resend** — a record-level diff chained onto the target's
///    actual cursor, whatever it is.
/// 4. **snapshot at the tail** when the target has no cursor to chain
///    onto; a plain record install when the chain holds no entry.
///
/// Every write stages into the target's commit window and the tickets
/// redeem together: **one sync per converged replica**. A quarantined or
/// joining target is being rebuilt: its capture residue and held-back
/// delta are void, the session and approval tables are mirrored, and its
/// freshness token is *replaced* by the seat's; an in-service target's own
/// token is evidence and only ever raised. Nothing is stamped before every
/// ticket's verdict is `Ok` — a replica whose repair failed must never
/// re-enter a freshness election claiming state it does not hold.
///
/// # Errors
/// Whatever the target engine's stages or commits return; the caller keeps
/// the target out of the quorum.
pub(super) fn converge(group: &ReplicaSet, target: &Replica) -> palaemon_core::Result<Converged> {
    let seat = &group.replicas[group.primary_idx()];
    let cut = seat.engine().replication_snapshot();
    let dst = target.engine();
    let rebuilt = target.is_quarantined();
    if rebuilt {
        dst.clear_captured_changes();
        *target.held_delta.lock() = None;
    }
    let mut policies: BTreeMap<String, Option<u64>> = {
        let chain = group.chain.lock();
        chain
            .iter()
            .map(|(n, &tail)| (n.clone(), Some(tail)))
            .collect()
    };
    for name in cut.policy_names().into_iter().chain(dst.policy_names()) {
        policies.entry(name).or_insert(None);
    }
    let mut done = Converged::default();
    let mut tickets = Vec::new();
    for (name, tail) in policies {
        let cursor = dst.policy_cursor(&name);
        if !rebuilt && tail.is_some() && cursor == tail {
            done.skipped += 1;
            continue;
        }
        let want = cut.records(&name);
        let have = dst.export_policy_records(&name);
        let method = if records_digest(&name, &have) == records_digest(&name, &want) {
            if cursor == tail {
                done.skipped += 1;
                continue;
            }
            match tail {
                Some(tail) => dst.advance_policy_cursor(&name, tail),
                None => dst.clear_policy_cursor(&name),
            }
            "cursor_advance"
        } else if let Some(tail) = tail {
            let (delta, method) = match cursor {
                Some(from) => {
                    let diff = diff_records(&want, &have);
                    (
                        PolicyDelta::incremental(&name, diff, tail, from),
                        "delta_resend",
                    )
                }
                None => (PolicyDelta::snapshot(&name, want, tail), "snapshot_resync"),
            };
            done.bytes += delta.wire_size() as u64;
            tickets.push(dst.stage_policy_delta(&delta)?);
            method
        } else {
            done.bytes += want
                .iter()
                .map(|(k, v)| (k.len() + v.len()) as u64)
                .sum::<u64>();
            tickets.push(dst.stage_policy_records(&name, &want));
            "snapshot_resync"
        };
        done.repairs.push((name, cursor, tail.unwrap_or(0), method));
    }
    for ticket in tickets {
        ticket.wait()?;
    }
    let seat_token = seat.applied.load(Ordering::Acquire);
    if !rebuilt {
        target.applied.fetch_max(seat_token, Ordering::AcqRel);
        return Ok(done);
    }
    let keep: HashSet<u64> = cut.sessions.iter().map(|s| s.session.0).collect();
    for stale in dst.export_sessions() {
        if !keep.contains(&stale.session.0) {
            dst.close_session(stale.session);
        }
    }
    for record in &cut.sessions {
        dst.import_session(record);
    }
    // Approval rounds mirror like sessions: rounds consumed while the
    // target was away are discarded, open ones installed (and the target's
    // nonce counter pulled ahead of them).
    let keep: HashSet<u64> = cut.approvals.iter().map(|a| a.nonce).collect();
    for stale in dst.export_approvals() {
        if !keep.contains(&stale.nonce) {
            dst.discard_approval(stale.nonce);
        }
    }
    for record in &cut.approvals {
        dst.import_approval(record);
    }
    target.applied.store(seat_token, Ordering::Release);
    Ok(done)
}

/// Books a heal's [`converge`] of replica `k`: the `catchup_*` counters
/// and the [`EventKind::CatchUp`] flight event.
pub(super) fn note_catch_up(group: &ReplicaSet, k: usize, done: &Converged) {
    let shipped = done.repairs.len() as u64;
    let t = &group.telemetry;
    t.catchup_policies_shipped
        .fetch_add(shipped, Ordering::Relaxed);
    t.catchup_policies_skipped
        .fetch_add(done.skipped, Ordering::Relaxed);
    t.catchup_bytes.fetch_add(done.bytes, Ordering::Relaxed);
    group.flight.record(EventKind::CatchUp {
        shard: group.shard,
        replica: k,
        shipped,
        skipped: done.skipped,
        bytes: done.bytes,
    });
}

impl ReplicaSet {
    /// **The** heal sequence, over the replicas `fit` selects (the rest
    /// are left exactly as they are). Caller holds `forward_lock`.
    ///
    /// 1. The fit channels are repaired and everything still queued to a
    ///    live replica is delivered — a queued delta surviving its
    ///    replica's resync would clobber it.
    /// 2. A dark seat moves to the freshest fit replica, chain-complete
    ///    preferred (it holds every forwarded delta; freshness-by-counter
    ///    means a rolled-back replica loses while a complete one stands),
    ///    falling back — catastrophic loss — to the freshest state still
    ///    standing. No fit replica: the group stays dark.
    /// 3. The channel of the new seat and of every out-of-quorum fit
    ///    replica is purged: deltas queued in a previous life are void.
    /// 4. Each out-of-quorum fit replica is [`converge`]d onto the seat and
    ///    rejoins; one whose resync fails is quarantined with the cause —
    ///    rejoining it would let it claim state it does not hold.
    pub(super) fn heal(&self, fit: impl Fn(usize) -> bool) {
        let fence_drained = self.fence(&fit);
        let mut seat = self.primary_idx();
        if self.replicas[seat].is_quarantined() {
            let candidates = || self.replicas.iter().enumerate().filter(|(k, _)| fit(*k));
            let Some(best) = freshest(candidates().filter(|(_, r)| self.chain_complete(r)))
                .or_else(|| freshest(candidates()))
            else {
                return;
            };
            if best != seat {
                self.primary.store(best, Ordering::Release);
                self.failovers.fetch_add(1, Ordering::Relaxed);
                self.flight.record(EventKind::Election {
                    shard: self.shard,
                    deposed: seat,
                    winner: best,
                    winner_token: self.replicas[best].applied.load(Ordering::Acquire),
                    fence_drained,
                });
            }
            if let Some(pipe) = self.pipes.get(best) {
                pipe.purge();
            }
            self.replicas[best].rejoin();
            seat = best;
        }
        for (k, replica) in self.replicas.iter().enumerate() {
            if k == seat || !fit(k) || replica.is_in_quorum() {
                continue;
            }
            if let Some(pipe) = self.pipes.get(k) {
                pipe.purge();
            }
            match converge(self, replica) {
                Ok(done) => {
                    note_catch_up(self, k, &done);
                    replica.rejoin();
                }
                Err(e) => {
                    let reason = format!("catch-up failed: {e}");
                    self.flight.record(EventKind::Quarantine {
                        shard: self.shard,
                        replica: k,
                        reason: reason.clone(),
                    });
                    replica.quarantine(reason);
                }
            }
        }
    }
}
