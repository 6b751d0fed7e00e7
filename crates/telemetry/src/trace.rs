//! Request-scoped tracing: a [`TraceCtx`] minted at the front door,
//! carried across the layers in a thread-local, and folded into
//! per-stage histograms when the request completes.
//!
//! The thread-local carriage is the point: the request path crosses
//! `TmsServer` → `Palaemon` → `ClusterRouter` → the replication pipes
//! without changing a single `handle()` signature. A worker thread
//! [`install`]s the context before dispatching and [`take`]s it back
//! after; instrumentation sites deep in the stack call [`start`] /
//! [`finish`], which collapse to one thread-local read when no trace is
//! active. The quorum-ack wait happens on the same worker thread (the
//! durable replication path blocks the caller), so every stage of one
//! request lands in one context.

use std::cell::RefCell;
use std::time::Instant;

/// The instrumented stages of one request's life.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Stage {
    /// Front-door submit → worker pop: how long the request queued.
    QueueWait = 0,
    /// Engine dispatch: policy/session/attestation work inside
    /// `Palaemon`, **plus** — for a mutation — the wait for its WAL commit
    /// window's verdict, the one wait a mutation has (sync and, on a strict
    /// shard, the leader's counter increment). The two halves
    /// (`TmsServer::stage`, `Staged::redeem`) accumulate into this one
    /// sample; on a replicated mutation the forward enqueue runs between
    /// them.
    EngineApply = 1,
    /// The Fig. 6 rollback-counter increment covering a WAL commit window:
    /// the increment's own duration, recorded only by the request whose
    /// redeem *led* the window (one sample per window, not per mutation —
    /// the window's other mutations wait for it inside
    /// [`Stage::EngineApply`]). A child span of the leader's
    /// `EngineApply`, not a sibling: that sample contains this one.
    CounterCommit = 2,
    /// Delta extraction + enqueue onto the follower forward channels
    /// (the replication path's `forward_lock` critical section).
    ForwardEnqueue = 3,
    /// Waiting for the write quorum's durable acks — the *residual* wait
    /// once the primary's own commit has been redeemed (the followers'
    /// wire and syncs overlap that redeem), not their whole round trip.
    QuorumAck = 4,
}

impl Stage {
    /// Number of stages.
    pub const COUNT: usize = 5;

    /// Every stage, in pipeline order.
    pub const ALL: [Stage; Stage::COUNT] = [
        Stage::QueueWait,
        Stage::EngineApply,
        Stage::CounterCommit,
        Stage::ForwardEnqueue,
        Stage::QuorumAck,
    ];

    /// The stable exposition name (metric label value).
    pub fn name(self) -> &'static str {
        match self {
            Stage::QueueWait => "queue_wait",
            Stage::EngineApply => "engine_apply",
            Stage::CounterCommit => "counter_commit",
            Stage::ForwardEnqueue => "forward_enqueue",
            Stage::QuorumAck => "quorum_ack",
        }
    }
}

/// One request's accumulated per-stage timings.
#[derive(Debug, Clone)]
pub struct TraceCtx {
    id: u64,
    nanos: [u64; Stage::COUNT],
    touched: [bool; Stage::COUNT],
}

impl TraceCtx {
    /// A fresh context for request `id` (minted by the telemetry plane).
    pub fn new(id: u64) -> TraceCtx {
        TraceCtx {
            id,
            nanos: [0; Stage::COUNT],
            touched: [false; Stage::COUNT],
        }
    }

    /// The request id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Accumulates `nanos` into `stage` (a stage hit twice — e.g. a
    /// failover retry re-entering the forward path — sums).
    pub fn add(&mut self, stage: Stage, nanos: u64) {
        self.nanos[stage as usize] += nanos;
        self.touched[stage as usize] = true;
    }

    /// The accumulated time of `stage`, or `None` if it never ran.
    pub fn stage_nanos(&self, stage: Stage) -> Option<u64> {
        self.touched[stage as usize].then(|| self.nanos[stage as usize])
    }
}

thread_local! {
    static CURRENT: RefCell<Option<TraceCtx>> = const { RefCell::new(None) };
}

/// Installs `ctx` as this thread's active trace (the front-door worker,
/// right before dispatching). Replaces any leftover context.
pub fn install(ctx: TraceCtx) {
    CURRENT.with(|slot| *slot.borrow_mut() = Some(ctx));
}

/// Removes and returns this thread's active trace (the front-door
/// worker, right after dispatch returns).
pub fn take() -> Option<TraceCtx> {
    CURRENT.with(|slot| slot.borrow_mut().take())
}

/// True while a trace is active on this thread.
pub fn active() -> bool {
    CURRENT.with(|slot| slot.borrow().is_some())
}

/// Starts timing a stage: `Some(now)` iff a trace is active — the only
/// cost an untraced request pays at an instrumentation site is this
/// thread-local read.
pub fn start() -> Option<Instant> {
    active().then(Instant::now)
}

/// Ends a timing started by [`start`], folding the elapsed time into the
/// active trace. A `None` start (no trace when the stage began) is a
/// no-op.
pub fn finish(stage: Stage, started: Option<Instant>) {
    let Some(started) = started else {
        return;
    };
    let nanos = started.elapsed().as_nanos() as u64;
    CURRENT.with(|slot| {
        if let Some(ctx) = slot.borrow_mut().as_mut() {
            ctx.add(stage, nanos);
        }
    });
}

/// Records an externally measured duration into the active trace (used
/// for queue wait, whose clock starts on the submitting thread).
pub fn record(stage: Stage, nanos: u64) {
    CURRENT.with(|slot| {
        if let Some(ctx) = slot.borrow_mut().as_mut() {
            ctx.add(stage, nanos);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn start_is_none_without_a_context() {
        assert!(take().is_none());
        assert!(start().is_none());
        finish(Stage::EngineApply, None); // no-op, no panic
        assert!(!active());
    }

    #[test]
    fn stages_accumulate_into_the_installed_context() {
        install(TraceCtx::new(7));
        assert!(active());
        record(Stage::QueueWait, 1_000);
        let t = start();
        assert!(t.is_some());
        finish(Stage::EngineApply, t);
        // A retried stage sums.
        record(Stage::QueueWait, 500);
        let ctx = take().expect("installed");
        assert_eq!(ctx.id(), 7);
        assert_eq!(ctx.stage_nanos(Stage::QueueWait), Some(1_500));
        assert!(ctx.stage_nanos(Stage::EngineApply).is_some());
        assert_eq!(ctx.stage_nanos(Stage::QuorumAck), None);
        assert!(!active());
    }
}
