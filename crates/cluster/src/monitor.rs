//! Self-healing control plane: the background cluster monitor.
//!
//! Everything the cluster can do about a sick replica —
//! [`ClusterRouter::health_check`], failover,
//! [`ClusterRouter::reinstate`] — is caller-driven; in production nobody
//! is calling. A [`ClusterMonitor`] closes the loop (after Dstack's
//! framing of verifiable state propagation that converges without an
//! operator): a background thread sweeps the cluster on a configurable
//! cadence, and every pass is **probe → heal → sweep** over the one
//! convergence routine the operator's `reinstate` also runs (the `repair`
//! module: `converge` + `ReplicaSet::heal`):
//!
//! 1. **probe** — the router's health check quarantines Byzantine
//!    replicas (probe failure, rollback-counter or freshness regression)
//!    and fails groups over off their quarantined primaries;
//! 2. **heal dark groups** — a group whose seat died with no electable
//!    successor is healed over its probe-answering replicas: re-seated on
//!    the freshest, the rest converged onto it
//!    ([`ClusterRouter::heal_dark_shard`]);
//! 3. **sweep** — wedged forward channels are fenced through (landing
//!    the backlog of a follower no writer waits for, and releasing any
//!    writer whose quorum does need it), then every live follower is
//!    converged onto its seat — per policy by cursor advance,
//!    cursor-bounded delta resend or snapshot resync, one sync per
//!    follower — *before* the next mutation trips the chain check; a
//!    quorum-demoted follower that converged — one demoted for its backlog
//!    included — is re-admitted ([`ClusterRouter::anti_entropy_sweep`]);
//! 4. **heal after probation** — a replica that stayed quarantined for
//!    [`MonitorConfig::probation_ticks`] consecutive passes but answers
//!    probes again is healed — rebuilt from the seat, digest-verified —
//!    and rejoined ([`ClusterRouter::heal_quarantined`]).
//!
//! Every autonomous action lands on the flight recorder
//! ([`EventKind::AutoFailover`], [`EventKind::AntiEntropyRepair`],
//! [`EventKind::AutoReadmit`], [`EventKind::GroupDark`]), so the
//! operator can audit what the monitor did and why.
//!
//! **Determinism.** [`ClusterMonitor::tick`] runs exactly one pass
//! synchronously, so the `FaultPlan` chaos harness can interleave passes
//! with injected faults at exact operation coordinates — no wall-clock
//! sleeps, no racing background thread. [`ClusterMonitor::start`] spawns
//! the production thread that calls the same `tick` on the configured
//! cadence.
//!
//! **Locking.** The monitor takes no locks of its own beyond its private
//! probation book-keeping; each step is one router entry point holding one
//! group's `forward_lock`, in the dispatch order (`topology` read → group
//! `forward_lock` → pipe `delivery` then `queue` → engine locks;
//! `delivery` is never held across the wire, so a fence waits for at most
//! one in-flight stage + sync) — see the lock-order note in
//! [`crate::router`].

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex};
use std::thread::JoinHandle;
use std::time::Duration;

use palaemon_telemetry::EventKind;
use parking_lot::Mutex;

use crate::ring::ShardId;
use crate::router::ClusterRouter;

/// Tuning knobs for a [`ClusterMonitor`].
#[derive(Debug, Clone)]
pub struct MonitorConfig {
    /// How often the background thread ticks ([`ClusterMonitor::start`];
    /// irrelevant when the harness drives [`ClusterMonitor::tick`]
    /// directly).
    pub cadence: Duration,
    /// Consecutive ticks a replica must sit quarantined before the
    /// monitor attempts to rebuild and rejoin it. A floor of 1 means
    /// "heal on the next tick"; higher values keep a flapping replica
    /// benched longer.
    pub probation_ticks: u32,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig {
            cadence: Duration::from_millis(250),
            probation_ticks: 2,
        }
    }
}

/// What one monitor pass did (all counts are for that pass only;
/// [`ClusterMonitor::totals`] accumulates across passes).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TickReport {
    /// Failovers the pass performed or observed: seats moved by the
    /// health probe's quarantines, plus dark groups re-seated.
    pub auto_failovers: u64,
    /// Dark groups (quarantined seat, no successor) brought back.
    pub dark_recovered: u64,
    /// Anti-entropy repairs applied (cursor advances, delta resends,
    /// snapshot resyncs — one per healed (replica, policy) pair).
    pub repairs: u64,
    /// Quorum-demoted followers re-admitted by anti-entropy.
    pub readmitted: u64,
    /// Quarantined replicas rebuilt from the quorum and rejoined after
    /// probation.
    pub healed: u64,
}

impl TickReport {
    /// Total autonomous actions the pass took; 0 means the cluster was
    /// converged and the pass was a pure observation.
    pub fn actions(&self) -> u64 {
        self.auto_failovers + self.dark_recovered + self.repairs + self.readmitted + self.healed
    }
}

#[derive(Default)]
struct Totals {
    auto_failovers: AtomicU64,
    dark_recovered: AtomicU64,
    repairs: AtomicU64,
    readmitted: AtomicU64,
    healed: AtomicU64,
    ticks: AtomicU64,
}

/// The background self-healing loop for one [`ClusterRouter`]. See the
/// module docs for what a pass does. Dropping the monitor stops the
/// background thread (if started) and detaches cleanly; the router
/// itself never depends on the monitor being alive.
pub struct ClusterMonitor {
    router: Arc<ClusterRouter>,
    config: MonitorConfig,
    /// Consecutive quarantined ticks per replica, the probation clock.
    probation: Mutex<HashMap<(ShardId, usize), u32>>,
    totals: Totals,
    /// `true` once `stop` was requested; paired with `wake` so `stop`
    /// interrupts the cadence sleep instead of waiting it out. (Std
    /// primitives: the vendored `parking_lot` stand-in has no condvar.)
    stopping: StdMutex<bool>,
    wake: Condvar,
    thread: Mutex<Option<JoinHandle<()>>>,
}

impl ClusterMonitor {
    /// Builds a monitor over `router` with the given knobs. Nothing runs
    /// until [`ClusterMonitor::tick`] is called or
    /// [`ClusterMonitor::start`] spawns the cadence thread.
    pub fn new(router: Arc<ClusterRouter>, config: MonitorConfig) -> Arc<Self> {
        Arc::new(ClusterMonitor {
            router,
            config,
            probation: Mutex::new(HashMap::new()),
            totals: Totals::default(),
            stopping: StdMutex::new(false),
            wake: Condvar::new(),
            thread: Mutex::new(None),
        })
    }

    /// Runs exactly one monitor pass synchronously and reports what it
    /// did. Deterministic given the cluster's state — the chaos harness
    /// interleaves this with `FaultPlan` faults instead of sleeping.
    pub fn tick(&self) -> TickReport {
        let mut report = TickReport::default();
        let router = &self.router;

        // Seat map before the probe, so monitor-induced failovers are
        // attributed on the flight recorder.
        let seats_before: HashMap<ShardId, usize> = router
            .shard_ids()
            .into_iter()
            .filter_map(|id| router.replica_status(id).map(|s| (id, s.primary)))
            .collect();

        // 1. Probe: quarantines Byzantine replicas, fails over off a
        //    quarantined primary, demotions surface as healthy=false.
        let health = router.health_check();

        for shard in &health {
            let seat_now = shard.replicas.iter().find(|r| r.primary).map(|r| r.replica);
            if let (Some(&before), Some(now)) = (seats_before.get(&shard.id), seat_now) {
                if before != now {
                    report.auto_failovers += 1;
                    let reason = shard
                        .replicas
                        .iter()
                        .find(|r| r.replica == before)
                        .and_then(|r| r.reason.clone())
                        .unwrap_or_else(|| "health probe".into());
                    router.telemetry().flight().record(EventKind::AutoFailover {
                        shard: u64::from(shard.id.0),
                        deposed: before,
                        winner: now,
                        reason,
                    });
                }
            }

            // 2. Dark-group recovery.
            if !shard.healthy && router.heal_dark_shard(shard.id).is_some() {
                report.dark_recovered += 1;
                report.auto_failovers += 1;
            }
        }

        // 3. Anti-entropy: heal divergence, re-admit caught-up
        //    followers. Runs after dark recovery so a just-reseated
        //    group gets its sweep this same pass.
        for id in router.shard_ids() {
            let (repairs, readmitted) = router.anti_entropy_sweep(id);
            report.repairs += repairs;
            report.readmitted += readmitted;
        }

        // 4. Probation: rebuild quarantined replicas that answered
        //    probes for `probation_ticks` consecutive passes.
        let mut probation = self.probation.lock();
        let mut live: Vec<(ShardId, usize)> = Vec::new();
        for id in router.shard_ids() {
            let Some(status) = router.replica_status(id) else {
                continue;
            };
            for replica in &status.replicas {
                if replica.quarantined {
                    live.push((id, replica.replica));
                }
            }
        }
        probation.retain(|key, _| live.contains(key));
        for key in live {
            let ticks = probation.entry(key).or_insert(0);
            *ticks += 1;
            if *ticks >= self.config.probation_ticks {
                // Healed, or still failing its probe or its resync: either
                // way the probation clock restarts rather than hammering it.
                *ticks = 0;
                report.healed += u64::from(self.router.heal_quarantined(key.0, key.1));
            }
        }
        drop(probation);

        self.totals
            .auto_failovers
            .fetch_add(report.auto_failovers, Ordering::Relaxed);
        self.totals
            .dark_recovered
            .fetch_add(report.dark_recovered, Ordering::Relaxed);
        self.totals
            .repairs
            .fetch_add(report.repairs, Ordering::Relaxed);
        self.totals
            .readmitted
            .fetch_add(report.readmitted, Ordering::Relaxed);
        self.totals
            .healed
            .fetch_add(report.healed, Ordering::Relaxed);
        self.totals.ticks.fetch_add(1, Ordering::Relaxed);
        report
    }

    /// Cumulative action counts across every pass so far (background or
    /// harness-driven).
    pub fn totals(&self) -> TickReport {
        TickReport {
            auto_failovers: self.totals.auto_failovers.load(Ordering::Relaxed),
            dark_recovered: self.totals.dark_recovered.load(Ordering::Relaxed),
            repairs: self.totals.repairs.load(Ordering::Relaxed),
            readmitted: self.totals.readmitted.load(Ordering::Relaxed),
            healed: self.totals.healed.load(Ordering::Relaxed),
        }
    }

    /// Passes run so far.
    pub fn ticks(&self) -> u64 {
        self.totals.ticks.load(Ordering::Relaxed)
    }

    /// Spawns the background thread: one [`ClusterMonitor::tick`] per
    /// [`MonitorConfig::cadence`] until [`ClusterMonitor::stop`] (or
    /// drop). Idempotent — a second call while running is a no-op.
    pub fn start(self: &Arc<Self>) {
        let mut slot = self.thread.lock();
        if slot.is_some() {
            return;
        }
        *self.stopping.lock().unwrap() = false;
        // The thread holds only a Weak, so dropping the last user handle
        // tears the monitor (and its thread) down instead of leaking a
        // self-keeping loop.
        let weak = Arc::downgrade(self);
        let handle = std::thread::Builder::new()
            .name("palaemon-monitor".into())
            .spawn(move || loop {
                let Some(monitor) = weak.upgrade() else {
                    return;
                };
                {
                    let mut stopping = monitor.stopping.lock().unwrap();
                    if !*stopping {
                        stopping = monitor
                            .wake
                            .wait_timeout(stopping, monitor.config.cadence)
                            .unwrap()
                            .0;
                    }
                    if *stopping {
                        return;
                    }
                }
                monitor.tick();
            })
            .expect("spawn cluster monitor");
        *slot = Some(handle);
    }

    /// Stops and joins the background thread. Safe to call when never
    /// started or already stopped.
    pub fn stop(&self) {
        *self.stopping.lock().unwrap() = true;
        self.wake.notify_all();
        let handle = self.thread.lock().take();
        if let Some(handle) = handle {
            // The monitor thread itself can end up running this drop
            // (its transient upgrade may hold the last Arc); joining
            // yourself deadlocks, and the loop exits on its own next
            // upgrade anyway.
            if handle.thread().id() != std::thread::current().id() {
                let _ = handle.join();
            }
        }
    }
}

impl Drop for ClusterMonitor {
    fn drop(&mut self) {
        self.stop();
    }
}
