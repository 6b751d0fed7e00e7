//! The load generator: closed loops that keep one request in flight per
//! session, the open loop that sends on a schedule whatever the program
//! does, and the watcher that samples the group, injects the seeded faults
//! and times how long the group takes to become whole again.
//!
//! Requests enter through `FrontDoor::submit_with`; the completion callback
//! runs on the worker thread right after the backend call, so it reads that
//! call's span from the [`ProbeDoor`](crate::probe::ProbeDoor) and stamps
//! the acknowledgement before handing the answer to a generator thread.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::Duration;

use palaemon_cluster::{
    ClusterError, ClusterMonitor, FaultKind, FaultPlan, MonitorConfig, PlannedFault,
};
use palaemon_core::server::TmsResponse;
use palaemon_core::tms::SessionId;

use crate::check::{Floors, Verdicts};
use crate::probe::{last_call, now_ns};
use crate::rig::{Rig, SlotSeed, SHARD};
use crate::stats::Rng;
use crate::workload::{
    churn_schedule, Kind, Shape, SlotScript, CHURN_RATE, FAULT_EVERY_OPS, SLOTS_PER_THREAD,
};

/// Attempts after the first a client makes before a request counts as
/// failed (open loop only; the closed loops see no errors to retry).
pub const MAX_RETRIES: u8 = 3;
/// Pause before the `n`-th retry is `n` times this: long enough for the
/// synchronous failover to have seated a successor.
const RETRY_BACKOFF: Duration = Duration::from_millis(5);
/// Monitor passes the end of a faulted run may take to converge the group.
const QUIET_PASSES_MAX: usize = 50;
/// Monitor cadence and probation of `churn_r3_dev`.
const MONITOR_CADENCE: Duration = Duration::from_millis(20);

/// One answered request, as the generator saw it. Times are nanoseconds;
/// `lat_ns` runs from submission (closed loop) or from the due time (open
/// loop) to the acknowledgement, `queue_ns` from the last submission to the
/// start of the backend call, `handle_ns` over the backend call. The three
/// spans of a request are rebuilt from these.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub ack_ns: u64,
    pub lat_ns: u32,
    pub queue_ns: u32,
    pub handle_ns: u32,
    /// End of the backend call to the acknowledgement stamp.
    pub done_ns: u32,
    pub kind: Kind,
    pub ok: bool,
}

fn clamp_ns(ns: u64) -> u32 {
    u32::try_from(ns).unwrap_or(u32::MAX)
}

/// What one generator run produced.
pub struct GenOutput {
    pub samples: Vec<Sample>,
    /// Open loop: `(due_ns, lateness_ns)` of every first submission.
    pub lags: Vec<(u64, u32)>,
    /// Open loop: retries made.
    pub retries: u64,
    pub floors: Floors,
    pub verdicts: Verdicts,
}

impl GenOutput {
    fn new(policies: usize) -> GenOutput {
        GenOutput {
            samples: Vec::new(),
            lags: Vec::new(),
            retries: 0,
            floors: Floors::new(policies),
            verdicts: Verdicts::default(),
        }
    }
}

/// What is known of a request when it is sent.
#[derive(Clone, Copy)]
struct Sent {
    slot: u16,
    kind: Kind,
    policy: u32,
    /// Tag sequence / policy version the request carries.
    seq: u64,
    /// Acknowledged floor the answer must not be older than, fixed when
    /// the request was first sent.
    floor: u64,
    /// When the request was due (open loop) or first submitted.
    origin_ns: u64,
    attempt: u8,
}

/// An answered request, as handed from the worker's callback to a
/// generator thread.
struct Completion {
    sent: Sent,
    submit_ns: u64,
    call: (u64, u64),
    ack_ns: u64,
    result: Result<TmsResponse, ClusterError>,
}

fn submit(rig: &Rig, tx: &Sender<Completion>, sent: Sent, session: SessionId, salt: u64) {
    let request = rig
        .factory
        .request(sent.kind, sent.policy, session, sent.seq, salt);
    let tx = tx.clone();
    let submit_ns = now_ns();
    rig.door().submit_with(request, move |result| {
        let call = last_call();
        let ack_ns = now_ns();
        // The receiver only goes away once its loop has every answer.
        let _ = tx.send(Completion {
            sent,
            submit_ns,
            call,
            ack_ns,
            result,
        });
    });
}

fn sample_of(c: &Completion, ok: bool) -> Sample {
    Sample {
        ack_ns: c.ack_ns,
        lat_ns: clamp_ns(c.ack_ns.saturating_sub(c.sent.origin_ns)),
        queue_ns: clamp_ns(c.call.0.saturating_sub(c.submit_ns)),
        handle_ns: clamp_ns(c.call.1.saturating_sub(c.call.0)),
        done_ns: clamp_ns(c.ack_ns.saturating_sub(c.call.1)),
        kind: c.sent.kind,
        ok,
    }
}

/// When a closed loop stops sending.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// Once an answer arrives at or after this instant.
    AtNs(u64),
    /// Once this many requests have been sent (a fixed amount of work, for
    /// runs whose counts must repeat exactly).
    #[cfg_attr(not(test), allow(dead_code))]
    AfterRequests(u64),
}

struct ClosedSlot {
    script: SlotScript,
    session: Option<SessionId>,
    policy: u32,
    attests: u64,
}

/// One closed-loop generator thread: `seeds` are its sessions, each with
/// one request in flight until `stop`.
fn closed_loop(rig: &Rig, first_slot: usize, seeds: Vec<SlotSeed>, stop: Stop) -> GenOutput {
    let mut out = GenOutput::new(rig.factory.names.len());
    let (tx, rx) = mpsc::channel();
    let mut slots: Vec<ClosedSlot> = seeds
        .into_iter()
        .map(|seed| ClosedSlot {
            script: seed.script.expect("closed loops are scripted"),
            session: Some(seed.session),
            policy: seed.policy,
            attests: 0,
        })
        .collect();

    let send_next = |slot: &mut ClosedSlot, idx: usize, floors: &mut Floors| {
        let mut step = slot.script.next_step();
        if slot.session.is_none() && step.kind != Kind::Attest {
            // Only after a failed attest: try again before anything else.
            step.kind = Kind::Attest;
            step.policy = slot.policy;
        }
        slot.policy = step.policy;
        let p = step.policy as usize;
        let (seq, floor) = match step.kind {
            Kind::PushTag => {
                floors.next_tag[p] += 1;
                (floors.next_tag[p], 0)
            }
            Kind::UpdatePolicy => {
                floors.next_version[p] += 1;
                (floors.next_version[p], 0)
            }
            Kind::ReadTag | Kind::Attest => (0, floors.acked_tag[p]),
            Kind::ReadPolicy => (0, floors.acked_version[p]),
            Kind::Close => (0, 0),
        };
        slot.attests += u64::from(step.kind == Kind::Attest);
        let sent = Sent {
            slot: idx as u16,
            kind: step.kind,
            policy: step.policy,
            seq,
            floor,
            origin_ns: now_ns(),
            attempt: 0,
        };
        let salt = (first_slot + idx) as u64 * 7 + slot.attests;
        submit(rig, &tx, sent, slot.session.unwrap_or(SessionId(0)), salt);
    };

    for (idx, slot) in slots.iter_mut().enumerate() {
        send_next(slot, idx, &mut out.floors);
    }
    let mut sent = slots.len() as u64;
    let mut live = slots.len();
    while live > 0 {
        let c = rx.recv().expect("every submitted request is answered");
        let idx = usize::from(c.sent.slot);
        let ok = match &c.result {
            Ok(response) => {
                let judged = out.verdicts.judge(
                    &rig.factory,
                    c.sent.kind,
                    c.sent.policy,
                    c.sent.floor,
                    out.floors.next_tag[c.sent.policy as usize],
                    response,
                );
                match (c.sent.kind, judged) {
                    (Kind::PushTag, _) => out.floors.ack_tag(c.sent.policy, c.sent.seq),
                    (Kind::UpdatePolicy, _) => out.floors.ack_version(c.sent.policy, c.sent.seq),
                    (Kind::Attest, Some(session)) => slots[idx].session = Some(session),
                    (Kind::Close, _) => slots[idx].session = None,
                    _ => {}
                }
                true
            }
            Err(e) => {
                out.verdicts.failed(c.sent.kind, &e.to_string());
                if c.sent.kind == Kind::Close {
                    slots[idx].session = None;
                }
                false
            }
        };
        out.samples.push(sample_of(&c, ok));
        let go_on = match stop {
            Stop::AtNs(at) => c.ack_ns < at,
            Stop::AfterRequests(n) => sent < n,
        };
        if go_on {
            send_next(&mut slots[idx], idx, &mut out.floors);
            sent += 1;
        } else {
            live -= 1;
        }
    }
    out
}

/// State the open loop's two threads share, one entry per session slot.
struct ChurnShared {
    sessions: Vec<AtomicU64>,
    /// A push is in flight (or waiting for its retry) on the slot.
    push_busy: Vec<AtomicBool>,
    acked_tag: Vec<AtomicU64>,
    /// Requests the pacer has sent; set once, when it stops.
    sent_total: AtomicU64,
    pacer_done: AtomicBool,
}

/// The open loop's sender: request `i` is due at `start + i / CHURN_RATE`
/// whatever happened to the ones before it. It spins to each due time and
/// never sleeps: on a virtual machine a sleeping thread's wake-up waits for
/// the host to run the halted CPU again, which on a busy host took up to
/// 190 ms here, while a spinning sender was late by 35 us at the 99th
/// percentile. The price is one CPU of the machine, stated in the README.
fn pacer(
    rig: &Rig,
    shared: &ChurnShared,
    policies: &[u32],
    seed: u64,
    start_ns: u64,
    stop_ns: u64,
    tx: &Sender<Completion>,
) -> Vec<(u64, u32)> {
    let period_ns = 1_000_000_000 / CHURN_RATE;
    let ticks = ((stop_ns - start_ns) / period_ns) as usize;
    let schedule = churn_schedule(seed, ticks);
    let mut next_seq = vec![0u64; policies.len()];
    let mut lags = Vec::with_capacity(ticks);
    for (i, tick) in schedule.iter().enumerate() {
        let due_ns = start_ns + i as u64 * period_ns;
        while now_ns() < due_ns {
            std::hint::spin_loop();
        }
        let slot = usize::from(tick.slot);
        let (seq, floor) = match tick.kind {
            Kind::PushTag => {
                // One push in flight per session: a push that is due while
                // the last one is still out waits, and is late.
                while shared.push_busy[slot].swap(true, Ordering::AcqRel) {
                    std::thread::sleep(Duration::from_micros(50));
                }
                next_seq[slot] += 1;
                (next_seq[slot], 0)
            }
            Kind::ReadTag | Kind::Attest => (0, shared.acked_tag[slot].load(Ordering::Acquire)),
            _ => (0, 0),
        };
        let session = SessionId(shared.sessions[slot].load(Ordering::Acquire));
        let sent = Sent {
            slot: tick.slot,
            kind: tick.kind,
            policy: policies[slot],
            seq,
            floor,
            origin_ns: due_ns,
            attempt: 0,
        };
        lags.push((due_ns, clamp_ns(now_ns().saturating_sub(due_ns))));
        submit(rig, tx, sent, session, i as u64);
    }
    shared.sent_total.store(ticks as u64, Ordering::Release);
    shared.pacer_done.store(true, Ordering::Release);
    lags
}

/// The open loop's receiver: judges answers, retries errors after a
/// back-off, and ends once every request the pacer sent is settled.
fn collector(
    rig: &Rig,
    shared: &ChurnShared,
    rx: &mpsc::Receiver<Completion>,
    tx: &Sender<Completion>,
) -> GenOutput {
    let mut out = GenOutput::new(rig.factory.names.len());
    let mut settled = 0u64;
    let mut retry_at: VecDeque<(u64, Sent)> = VecDeque::new();
    loop {
        while retry_at.front().is_some_and(|(at, _)| *at <= now_ns()) {
            let (_, sent) = retry_at.pop_front().expect("front exists");
            let session =
                SessionId(shared.sessions[usize::from(sent.slot)].load(Ordering::Acquire));
            out.retries += 1;
            submit(rig, tx, sent, session, out.retries);
        }
        if shared.pacer_done.load(Ordering::Acquire)
            && settled == shared.sent_total.load(Ordering::Acquire)
        {
            return out;
        }
        let c = match rx.recv_timeout(Duration::from_millis(1)) {
            Ok(c) => c,
            Err(RecvTimeoutError::Timeout) => continue,
            Err(RecvTimeoutError::Disconnected) => unreachable!("the collector holds a sender"),
        };
        let slot = usize::from(c.sent.slot);
        match &c.result {
            Ok(response) => {
                let judged = out.verdicts.judge(
                    &rig.factory,
                    c.sent.kind,
                    c.sent.policy,
                    c.sent.floor,
                    u64::MAX,
                    response,
                );
                match (c.sent.kind, judged) {
                    (Kind::PushTag, _) => {
                        out.floors.ack_tag(c.sent.policy, c.sent.seq);
                        shared.acked_tag[slot].fetch_max(c.sent.seq, Ordering::AcqRel);
                        shared.push_busy[slot].store(false, Ordering::Release);
                    }
                    (Kind::Attest, Some(session)) => {
                        shared.sessions[slot].store(session.0, Ordering::Release);
                    }
                    _ => {}
                }
                out.samples.push(sample_of(&c, true));
                settled += 1;
            }
            Err(_) if c.sent.attempt < MAX_RETRIES => {
                let attempt = c.sent.attempt + 1;
                let at = c.ack_ns + RETRY_BACKOFF.as_nanos() as u64 * u64::from(attempt);
                let sent = Sent { attempt, ..c.sent };
                // Back-offs grow with the attempt, so keep the queue in
                // due order rather than arrival order.
                let pos = retry_at.partition_point(|(t, _)| *t <= at);
                retry_at.insert(pos, (at, sent));
            }
            Err(e) => {
                out.verdicts.failed(c.sent.kind, &e.to_string());
                if c.sent.kind == Kind::PushTag {
                    shared.push_busy[slot].store(false, Ordering::Release);
                }
                out.samples.push(sample_of(&c, false));
                settled += 1;
            }
        }
    }
}

/// What the watcher saw.
#[derive(Debug, Default, Clone)]
pub struct WatchOutput {
    /// Deepest the front-door queue was seen.
    pub door_queue_peak: usize,
    /// Deepest any replication pipe was seen.
    pub pipe_depth_peak: usize,
    /// Times a replica's applied token was seen lower than before.
    pub applied_regressions: Vec<String>,
    /// Fault fired → group whole again, per fault, in milliseconds.
    pub heal_ms: Vec<f64>,
    pub faults_fired: u64,
}

/// Watches the group for the length of the run: applied tokens must never
/// go down, pipe depth is sampled, and — when `faults` is set — one fault is
/// armed per [`FAULT_EVERY_OPS`] replicated mutations (waiting until the
/// group is whole), cycling through the five kinds the issue names.
fn watch(rig: &Rig, seed: u64, faults: bool, stop: &AtomicBool) -> WatchOutput {
    let mut out = WatchOutput::default();
    let plan = FaultPlan::new([]);
    if faults {
        rig.router.set_fault_plan(Arc::clone(&plan));
    }
    let cadence = if faults {
        Duration::from_millis(1)
    } else {
        Duration::from_millis(10)
    };
    let mut rng = Rng::lane(seed, 0xFA17);
    let mut applied = vec![0u64; rig.spec.replicas as usize];
    let mut next_fault_at = rig
        .router
        .replica_status(SHARD)
        .map_or(0, |s| s.ops + FAULT_EVERY_OPS);
    let mut armed: Option<u64> = None;
    let mut healing_since: Option<u64> = None;
    let mut round = 0u64;
    let mut polls = 0u64;
    while !stop.load(Ordering::Acquire) {
        std::thread::sleep(cadence);
        polls += 1;
        let Some(status) = rig.router.replica_status(SHARD) else {
            continue;
        };
        for r in &status.replicas {
            // A quarantined replica is rebuilt from its peers and may
            // restart its token; one that serves must never step back.
            if r.in_quorum && !r.quarantined && r.applied < applied[r.replica] {
                out.applied_regressions.push(format!(
                    "replica {} applied {} after {}",
                    r.replica, r.applied, applied[r.replica]
                ));
            }
            if r.in_quorum && !r.quarantined {
                applied[r.replica] = r.applied;
            }
        }
        if !faults || polls.is_multiple_of(10) {
            out.door_queue_peak = out.door_queue_peak.max(rig.door().stats().queue_depth);
            if let Some(shard) = rig.router.stats().shards.first() {
                let depth = shard.queue_depths.iter().copied().max().unwrap_or(0);
                out.pipe_depth_peak = out.pipe_depth_peak.max(depth);
            }
        }
        if !faults {
            continue;
        }
        let whole = status
            .replicas
            .iter()
            .all(|r| r.in_quorum && !r.quarantined);
        let fired = plan.fired().len() as u64;
        if fired > out.faults_fired {
            out.faults_fired = fired;
            armed = None;
            healing_since = Some(now_ns());
            continue;
        }
        if let Some(since) = healing_since {
            if whole {
                out.heal_ms.push((now_ns() - since) as f64 / 1e6);
                healing_since = None;
            }
            continue;
        }
        match armed {
            // The op passed without the fault firing (its target had
            // become the primary): arm the next one instead.
            Some(op) if status.ops > op + 8 => armed = None,
            Some(_) => {}
            None if whole && status.ops >= next_fault_at => {
                let followers: Vec<usize> = (0..status.replicas.len())
                    .filter(|&k| k != status.primary)
                    .collect();
                let k = followers[rng.below(followers.len() as u64) as usize];
                let kind = match round % 5 {
                    0 => FaultKind::CrashAfterQuorum,
                    1 => FaultKind::LoseIncremental(k),
                    2 => FaultKind::DropBatch(k),
                    3 => FaultKind::DropForwardToReplica(k),
                    _ => FaultKind::CrashBeforeForward,
                };
                round += 1;
                let op = status.ops + 3;
                plan.schedule(PlannedFault {
                    shard: SHARD,
                    op,
                    kind,
                });
                armed = Some(op);
                next_fault_at = op + FAULT_EVERY_OPS;
            }
            None => {}
        }
    }
    out
}

/// Everything one run of the generator and watcher produced.
pub struct DriveOutput {
    pub gen: GenOutput,
    pub watch: WatchOutput,
    /// Monitor totals (`churn_r3_dev` only): failovers, repairs, healed.
    pub monitor: Option<palaemon_cluster::TickReport>,
}

/// Drives `rig` from now until `stop_ns` and returns once every request
/// sent has been answered. `on_tick` runs on the calling thread every
/// millisecond or so with the current time — the caller flips tracing and
/// takes its window snapshots there.
pub fn drive(
    rig: &Rig,
    seeds: Vec<SlotSeed>,
    seed: u64,
    stop_ns: u64,
    mut on_tick: impl FnMut(u64),
) -> DriveOutput {
    let faults = rig.spec.shape == Shape::Churn;
    let monitor = faults.then(|| {
        let monitor = ClusterMonitor::new(
            Arc::clone(&rig.router),
            MonitorConfig {
                cadence: MONITOR_CADENCE,
                probation_ticks: 1,
                ..MonitorConfig::default()
            },
        );
        monitor.start();
        monitor
    });
    let stop_watch = AtomicBool::new(false);
    let start_ns = now_ns();

    let (gen, watch) = std::thread::scope(|scope| {
        let watcher = scope.spawn(|| watch(rig, seed, faults, &stop_watch));
        let mut handles = Vec::new();
        if faults {
            let policies: Vec<u32> = seeds.iter().map(|s| s.policy).collect();
            let shared = Arc::new(ChurnShared {
                sessions: seeds.iter().map(|s| AtomicU64::new(s.session.0)).collect(),
                push_busy: seeds.iter().map(|_| AtomicBool::new(false)).collect(),
                acked_tag: seeds.iter().map(|_| AtomicU64::new(0)).collect(),
                sent_total: AtomicU64::new(0),
                pacer_done: AtomicBool::new(false),
            });
            let (tx, rx) = mpsc::channel();
            let pacer_tx = tx.clone();
            let pacer_shared = Arc::clone(&shared);
            let pace = scope.spawn(move || {
                pacer(
                    rig,
                    &pacer_shared,
                    &policies,
                    seed,
                    start_ns,
                    stop_ns,
                    &pacer_tx,
                )
            });
            let collect = scope.spawn(move || collector(rig, &shared, &rx, &tx));
            handles.push(scope.spawn(move || {
                let lags = pace.join().expect("pacer thread");
                let mut out = collect.join().expect("collector thread");
                out.lags = lags;
                out
            }));
        } else {
            let mut seeds = seeds.into_iter();
            let mut first = 0;
            loop {
                let mine: Vec<SlotSeed> = seeds.by_ref().take(SLOTS_PER_THREAD).collect();
                if mine.is_empty() {
                    break;
                }
                let from = first;
                first += mine.len();
                handles
                    .push(scope.spawn(move || closed_loop(rig, from, mine, Stop::AtNs(stop_ns))));
            }
        }
        while handles.iter().any(|h| !h.is_finished()) {
            on_tick(now_ns());
            std::thread::sleep(Duration::from_micros(500));
        }
        // The generators outlive `stop_ns`, so the closing tick is due.
        on_tick(now_ns().max(stop_ns));
        let mut gen = GenOutput::new(rig.factory.names.len());
        for handle in handles {
            let part = handle.join().expect("generator thread");
            gen.samples.extend(part.samples);
            gen.lags.extend(part.lags);
            gen.retries += part.retries;
            gen.floors.merge(&part.floors);
            gen.verdicts.merge(part.verdicts);
        }
        stop_watch.store(true, Ordering::Release);
        (gen, watcher.join().expect("watch thread"))
    });

    DriveOutput {
        gen,
        watch,
        monitor: monitor.map(|m| {
            // The cadence thread stops; the same passes are then run by
            // hand until one finds nothing left to do, so that silently
            // lost deltas (which only anti-entropy notices) are repaired
            // before the checker compares the replicas.
            m.stop();
            for _ in 0..QUIET_PASSES_MAX {
                let whole = rig
                    .router
                    .replica_status(SHARD)
                    .is_some_and(|s| s.replicas.iter().all(|r| r.in_quorum && !r.quarantined));
                if m.tick().actions() == 0 && whole {
                    break;
                }
            }
            m.totals()
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::StoreSnapshot;
    use crate::workload::find;

    /// Everything the probes count, over one fixed amount of work.
    #[derive(Debug, PartialEq, Eq)]
    struct Counts {
        answered: usize,
        failed: u64,
        door_calls: u64,
        db: Vec<StoreSnapshot>,
        counter_store: Vec<StoreSnapshot>,
        increments: Vec<u64>,
        batches_shipped: u64,
        mutations_shipped: u64,
        forwarded_bytes: u64,
    }

    fn counts_now(rig: &Rig) -> Counts {
        let repl = rig.router.stats().shards[0].replication;
        Counts {
            answered: 0,
            failed: 0,
            door_calls: rig.probe_door.calls(),
            // Sync *time* is a clock reading; everything else is a count.
            db: rig
                .replicas
                .iter()
                .map(|r| StoreSnapshot {
                    sync_ns: 0,
                    ..r.db.snapshot()
                })
                .collect(),
            counter_store: rig
                .replicas
                .iter()
                .map(|r| StoreSnapshot {
                    sync_ns: 0,
                    ..r.counter_store.snapshot()
                })
                .collect(),
            increments: rig
                .replicas
                .iter()
                .map(|r| r.counter.increments.load(Ordering::Relaxed))
                .collect(),
            batches_shipped: repl.batches_shipped,
            mutations_shipped: repl.mutations_shipped,
            forwarded_bytes: repl.incremental_bytes + repl.snapshot_bytes,
        }
    }

    /// 400 requests of `workload`'s stream with a single session in flight;
    /// returns what they cost, layer by layer.
    fn fixed_work(workload: &str, seed: u64) -> Counts {
        let spec = find(workload).expect("workload");
        // Delays stay disarmed: counts do not depend on them.
        let (mut rig, _) = Rig::set_up(spec, seed, 64, 1, false, false).expect("set-up");
        let one: Vec<SlotSeed> = std::mem::take(&mut rig.slots).into_iter().take(1).collect();
        let before = counts_now(&rig);
        let out = closed_loop(&rig, 0, one, Stop::AfterRequests(400));
        assert_eq!(
            out.verdicts.violations, 0,
            "{:?}",
            out.verdicts.violation_notes
        );
        let after = counts_now(&rig);
        let since = |a: &[StoreSnapshot], b: &[StoreSnapshot]| {
            a.iter().zip(b).map(|(a, b)| a.since(*b)).collect()
        };
        Counts {
            answered: out.samples.len(),
            failed: out.verdicts.failed,
            door_calls: after.door_calls - before.door_calls,
            db: since(&after.db, &before.db),
            counter_store: since(&after.counter_store, &before.counter_store),
            increments: after
                .increments
                .iter()
                .zip(&before.increments)
                .map(|(a, b)| a - b)
                .collect(),
            batches_shipped: after.batches_shipped - before.batches_shipped,
            mutations_shipped: after.mutations_shipped - before.mutations_shipped,
            forwarded_bytes: after.forwarded_bytes - before.forwarded_bytes,
        }
    }

    #[test]
    fn every_count_repeats_exactly_with_one_session_in_flight() {
        for workload in ["push_r1_cpu", "push_r3_dev", "lifecycle_r3_cpu"] {
            let first = fixed_work(workload, 7);
            let second = fixed_work(workload, 7);
            assert_eq!(first, second, "{workload}: one seed, one set of counts");
            assert_eq!(
                (first.answered, first.failed, first.door_calls),
                (400, 0, 400)
            );
        }
    }

    #[test]
    fn one_in_flight_means_one_sync_and_one_increment_per_mutation() {
        // With nothing to coalesce with, every mutation pays its own WAL
        // window and its own counter increment; the wrappers must see that.
        let counts = fixed_work("push_r1_cpu", 3);
        assert!(counts.db[0].syncs > 0);
        assert_eq!(counts.db[0].syncs, counts.increments[0]);
        assert_eq!(counts.db[0].puts, 2 * counts.db[0].syncs);
        assert_eq!(
            counts.counter_store[0].syncs, 0,
            "the counter file never syncs"
        );
        assert_eq!(counts.batches_shipped, 0, "R=1 ships nothing");
    }
}
