//! Self-healing control-plane suite: the background [`ClusterMonitor`]
//! must converge a replicated cluster without an operator.
//!
//! * health-reporting bugfixes — a demotion records *why* (failed
//!   install, partitioned forward) and the report names the cause; a
//!   wedged replica stalls only the probe sweep, never topology changes;
//!   operator `quarantine` distinguishes "failed over" from "group went
//!   dark";
//! * the monitor's anti-entropy pass heals a quorum-demoted follower
//!   (cursor-bounded delta resend / snapshot resync) and re-admits it —
//!   no `reinstate`;
//! * dark groups are re-seated on the freshest probe-answering survivor;
//! * a crash-restarted replica is rebuilt after its probation window;
//! * the acceptance bar — a `FaultPlan` drives 200+ faults
//!   (crash/stall/drop/rollback/reorder/demotion) against a monitored
//!   R=3 group: zero acked-write loss, zero operator `reinstate` calls,
//!   and replica digest equality once the monitor drains the dust.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use palaemon::cluster::{
    kill_server_between, strict_shard, ClusterError, ClusterMonitor, ClusterRouter, FaultKind,
    FaultPlan, MonitorConfig, PlannedFault, QuarantineOutcome, ShardId,
};
use palaemon::core::counterfile::{BatchedCounter, MemFileCounter};
use palaemon::core::policy::Policy;
use palaemon::core::server::{FaultHook, TmsRequest, TmsResponse, TmsServer};
use palaemon::core::tms::Palaemon;
use palaemon::crypto::aead::AeadKey;
use palaemon::crypto::sig::{SigningKey, VerifyingKey};
use palaemon::crypto::Digest;
use palaemon::db::Db;
use palaemon::shielded_fs::store::{BlockStore, MemStore};
use palaemon::shielded_fs::FsError;
use palaemon::tee_sim::platform::{Microcode, Platform};
use palaemon::telemetry::EventKind;

const MRE: [u8; 32] = [0x5E; 32];

fn owner() -> VerifyingKey {
    SigningKey::from_seed(b"selfheal-owner").verifying_key()
}

fn versioned_policy(name: &str, version: u64) -> Policy {
    Policy::parse(&format!(
        "name: {name}\nservices:\n  - name: app\n    mrenclaves: [\"{}\"]\n    \
         volumes: [\"data\"]\n    env:\n      VERSION: \"{version}\"\nvolumes:\n  - name: data\n",
        Digest::from_bytes(MRE).to_hex()
    ))
    .unwrap()
}

fn replica_on(
    platform: &Platform,
    tag: u32,
    store: Box<dyn BlockStore>,
    hook: Option<FaultHook>,
) -> (TmsServer, Arc<BatchedCounter>) {
    let db = Db::create(store, AeadKey::from_bytes([tag as u8; 32])).expect("create db");
    let engine = Arc::new(Palaemon::new(
        db,
        SigningKey::from_seed(format!("sh-replica-{tag}").as_bytes()),
        Digest::ZERO,
        71 + u64::from(tag),
    ));
    engine.register_platform(platform.id(), platform.qe_verifying_key());
    let (server, counter) = strict_shard(engine, MemFileCounter::new());
    let server = match hook {
        Some(hook) => server.with_fault_hook(hook),
        None => server,
    };
    (server, counter)
}

fn replica(
    platform: &Platform,
    tag: u32,
    hook: Option<FaultHook>,
) -> (TmsServer, Arc<BatchedCounter>) {
    replica_on(platform, tag, Box::new(MemStore::new()), hook)
}

fn replicated_cluster(
    platform: &Platform,
    groups: u32,
    replicas: u32,
    quorum: usize,
) -> ClusterRouter {
    let router = ClusterRouter::new(7007, 96);
    for g in 0..groups {
        let set: Vec<_> = (0..replicas)
            .map(|r| {
                let (server, counter) = replica(platform, g * 10 + r, None);
                (server, Some(counter))
            })
            .collect();
        router
            .add_replicated_shard(ShardId(g), set, quorum)
            .unwrap();
    }
    router
}

fn create(router: &ClusterRouter, name: &str, version: u64) {
    router
        .handle(TmsRequest::CreatePolicy {
            owner: owner(),
            policy: Box::new(versioned_policy(name, version)),
            approval: None,
            votes: Vec::new(),
        })
        .unwrap();
}

fn update(router: &ClusterRouter, name: &str, version: u64) -> Result<(), ClusterError> {
    router
        .handle(TmsRequest::UpdatePolicy {
            client: owner(),
            policy: Box::new(versioned_policy(name, version)),
            approval: None,
            votes: Vec::new(),
        })
        .map(|_| ())
}

fn read_version(router: &ClusterRouter, name: &str) -> u64 {
    match router
        .handle(TmsRequest::ReadPolicy {
            name: name.to_string(),
            client: owner(),
            approval: None,
            votes: Vec::new(),
        })
        .unwrap_or_else(|e| panic!("read of '{name}' failed: {e}"))
    {
        TmsResponse::Policy(p) => p.services[0].env["VERSION"].parse().unwrap(),
        other => panic!("expected policy, got {other:?}"),
    }
}

/// Asserts every replica of `id` holds byte-identical records for every
/// policy any of them knows — the anti-entropy convergence invariant —
/// once whatever the last acks left on its way to a follower has landed.
fn assert_digests_converged(router: &ClusterRouter, id: ShardId) {
    assert!(router.flush_replication(id));
    let engines = router.replica_engines(id);
    let mut names: Vec<String> = Vec::new();
    for engine in &engines {
        for name in engine.policy_names() {
            if !names.contains(&name) {
                names.push(name);
            }
        }
    }
    for name in &names {
        let reference = engines[0].policy_digest(name);
        for (k, engine) in engines.iter().enumerate().skip(1) {
            assert_eq!(
                engine.policy_digest(name),
                reference,
                "replica {k} diverged on '{name}'"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Satellite: demotion reasons in the health report
// ---------------------------------------------------------------------

/// A [`MemStore`] whose `sync` fails while armed — the injectable disk
/// failure the seed never had.
struct FlakyStore {
    inner: MemStore,
    fail: Arc<AtomicBool>,
}

impl BlockStore for FlakyStore {
    fn get(&self, name: &str) -> Option<Vec<u8>> {
        self.inner.get(name)
    }
    fn put(&self, name: &str, data: Vec<u8>) {
        self.inner.put(name, data)
    }
    fn delete(&self, name: &str) {
        self.inner.delete(name)
    }
    fn list(&self) -> Vec<String> {
        self.inner.list()
    }
    fn sync(&self) -> Result<(), FsError> {
        if self.fail.load(Ordering::Acquire) {
            return Err(FsError::Storage("injected disk failure".into()));
        }
        self.inner.sync()
    }
}

/// Regression (health-reporting bugfix): a follower whose engine fails a
/// migration install is demoted from the quorum, and the health report
/// must say so — `healthy: false` with the cause — instead of the
/// pre-fix `healthy: true, reason: None`. The monitor's anti-entropy
/// pass then heals and re-admits it once the disk recovers.
#[test]
fn failed_follower_install_demotes_with_the_cause_in_the_health_report() {
    let platform = Platform::new("sh-host", Microcode::PostForeshadow);
    let router = ClusterRouter::new(7007, 96);
    let (server, counter) = replica(&platform, 0, None);
    router.add_shard(ShardId(0), server, Some(counter)).unwrap();
    for i in 0..12 {
        create(&router, &format!("mig-{i}"), 1);
    }

    // Shard 1 joins as an R=3 group whose follower 1 sits on a disk that
    // fails every commit during the migration install.
    let fail = Arc::new(AtomicBool::new(false));
    let mut set = Vec::new();
    for r in 0..3u32 {
        let store: Box<dyn BlockStore> = if r == 1 {
            Box::new(FlakyStore {
                inner: MemStore::new(),
                fail: Arc::clone(&fail),
            })
        } else {
            Box::new(MemStore::new())
        };
        let (server, counter) = replica_on(&platform, 10 + r, store, None);
        set.push((server, Some(counter)));
    }
    fail.store(true, Ordering::Release);
    let plan = router
        .add_replicated_shard(ShardId(1), set, 2)
        .expect("a follower's disk failure must not abort the join");
    assert!(
        !plan.moves.is_empty(),
        "the join must have migrated policies for the install to fail"
    );

    // The report names the cause (pre-fix: healthy:true, reason:None).
    let health = router.health_check();
    let shard = health.iter().find(|s| s.id == ShardId(1)).unwrap();
    let victim = &shard.replicas[1];
    assert!(!victim.healthy, "a demoted follower is not healthy");
    assert!(!victim.in_quorum);
    let reason = victim.reason.as_deref().expect("demotion must record why");
    assert!(
        reason.contains("installing policy"),
        "the report must name the failed install, got: {reason}"
    );
    let status = router.replica_status(ShardId(1)).unwrap();
    assert!(
        !status.replicas[1].quarantined,
        "a failed install demotes, it does not quarantine"
    );

    // Disk recovers; one monitor pass heals the divergence and re-admits
    // the follower — no operator reinstate.
    fail.store(false, Ordering::Release);
    let router = Arc::new(router);
    let monitor = ClusterMonitor::new(Arc::clone(&router), MonitorConfig::default());
    let report = monitor.tick();
    assert!(report.repairs > 0, "the missed installs must be repaired");
    assert_eq!(report.readmitted, 1, "{report:?}");
    let health = router.health_check();
    let shard = health.iter().find(|s| s.id == ShardId(1)).unwrap();
    assert!(shard.replicas[1].healthy);
    assert!(
        shard.replicas[1].reason.is_none(),
        "rejoin clears the reason"
    );
    assert_digests_converged(&router, ShardId(1));
    let events = router.telemetry().flight().events();
    assert!(events
        .iter()
        .any(|e| matches!(&e.kind, EventKind::AntiEntropyRepair { replica: 1, .. })));
    assert!(events
        .iter()
        .any(|e| matches!(&e.kind, EventKind::AutoReadmit { replica: 1, .. })));
}

/// Regression (health-reporting bugfix): a follower demoted by a
/// partitioned forward reports the partition as its reason.
#[test]
fn dropped_forward_demotion_names_the_partition() {
    let platform = Platform::new("sh-host", Microcode::PostForeshadow);
    let router = replicated_cluster(&platform, 1, 3, 2);
    let id = ShardId(0);
    let plan = FaultPlan::new([PlannedFault {
        shard: id,
        op: 2,
        kind: FaultKind::DropForwardToReplica(2),
    }]);
    router.set_fault_plan(Arc::clone(&plan));
    create(&router, "part", 1); // op 1
    update(&router, "part", 2).unwrap(); // op 2: forward to replica 2 drops
    assert!(plan.all_fired());

    let health = router.health_check();
    let victim = &health[0].replicas[2];
    assert!(!victim.healthy);
    let reason = victim.reason.as_deref().expect("demotion must record why");
    assert!(
        reason.contains("partitioned"),
        "the report must name the partition, got: {reason}"
    );
}

// ---------------------------------------------------------------------
// Satellite: probe sweep must not hold the topology lock
// ---------------------------------------------------------------------

/// Regression: `health_check` used to hold the topology read lock across
/// the serial probe sweep, so one wedged replica blocked
/// `add_shard`/`drain_shard` cluster-wide. The probes now run on a
/// snapshot with the lock released: while a probe sits wedged, a shard
/// join must complete.
#[test]
fn stalled_probe_does_not_block_topology_changes() {
    let platform = Platform::new("sh-host", Microcode::PostForeshadow);
    let router = Arc::new(ClusterRouter::new(7007, 96));

    // Shard 0's server wedges (parks, does not fail) on health probes.
    let in_probe = Arc::new(AtomicBool::new(false));
    let release = Arc::new(AtomicBool::new(false));
    let hook: FaultHook = {
        let in_probe = Arc::clone(&in_probe);
        let release = Arc::clone(&release);
        Arc::new(move |req: &TmsRequest| {
            if matches!(req, TmsRequest::PolicyCount) {
                in_probe.store(true, Ordering::Release);
                while !release.load(Ordering::Acquire) {
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
            Ok(())
        })
    };
    let (server, counter) = replica(&platform, 0, Some(hook));
    router.add_shard(ShardId(0), server, Some(counter)).unwrap();
    create(&router, "wedge", 1);

    let sweep = {
        let router = Arc::clone(&router);
        std::thread::spawn(move || router.health_check())
    };
    while !in_probe.load(Ordering::Acquire) {
        std::thread::sleep(Duration::from_millis(1));
    }

    // The sweep is wedged inside the probe; the join needs the topology
    // write lock and must not wait for it.
    let start = Instant::now();
    let (server, counter) = replica(&platform, 1, None);
    router.add_shard(ShardId(1), server, Some(counter)).unwrap();
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "add_shard must not wait out a wedged probe"
    );

    release.store(true, Ordering::Release);
    let health = sweep.join().unwrap();
    // The sweep still reports shard 0 (probed healthy once released);
    // shard 1 joined mid-sweep and is simply not in this report.
    assert!(health.iter().any(|s| s.id == ShardId(0) && s.healthy));
}

// ---------------------------------------------------------------------
// Satellite: operator quarantine reports the failover outcome
// ---------------------------------------------------------------------

/// Regression: `quarantine` used to discard the failover result, so a
/// caller could not tell "new primary seated" from "group went dark".
/// It now returns the outcome, and a dark group records a `GroupDark`
/// flight event at deposition time.
#[test]
fn operator_quarantine_reports_dark_groups() {
    let platform = Platform::new("sh-host", Microcode::PostForeshadow);
    let router = replicated_cluster(&platform, 1, 3, 2);
    let id = ShardId(0);
    create(&router, "dark", 1);
    update(&router, "dark", 2).unwrap();

    assert!(matches!(
        router.quarantine(id, "chaos 1"),
        Some(QuarantineOutcome::FailedOver { .. })
    ));
    assert!(matches!(
        router.quarantine(id, "chaos 2"),
        Some(QuarantineOutcome::FailedOver { .. })
    ));
    // Third pull: no survivor is electable — the caller learns now, not
    // at its next failed request.
    assert!(matches!(
        router.quarantine(id, "chaos 3"),
        Some(QuarantineOutcome::GroupDark)
    ));
    assert!(router.quarantine(ShardId(9), "ghost").is_none());
    assert!(router
        .telemetry()
        .flight()
        .events()
        .iter()
        .any(|e| matches!(&e.kind, EventKind::GroupDark { .. })));
    assert!(matches!(
        update(&router, "dark", 3),
        Err(ClusterError::ShardUnavailable(s)) if s == id
    ));
}

// ---------------------------------------------------------------------
// Tentpole: anti-entropy heal + re-admission, dark-group recovery,
// probation heal
// ---------------------------------------------------------------------

/// A quorum-demoted (not quarantined) follower used to stay stranded
/// until a full operator `reinstate`. One monitor pass must repair its
/// missed delta (cursor-bounded resend) and re-admit it — and the healed
/// follower must be a first-class election candidate again.
#[test]
fn anti_entropy_heals_and_readmits_a_demoted_follower() {
    let platform = Platform::new("sh-host", Microcode::PostForeshadow);
    let router = Arc::new(replicated_cluster(&platform, 1, 3, 2));
    let id = ShardId(0);
    let plan = FaultPlan::new([PlannedFault {
        shard: id,
        op: 2,
        kind: FaultKind::DropForwardToReplica(2),
    }]);
    router.set_fault_plan(Arc::clone(&plan));
    create(&router, "heal", 1); // op 1
    update(&router, "heal", 2).unwrap(); // op 2: replica 2 misses v2, demotes
    assert!(!router.replica_status(id).unwrap().replicas[2].in_quorum);

    let monitor = ClusterMonitor::new(
        Arc::clone(&router),
        MonitorConfig {
            probation_ticks: 1,
            ..MonitorConfig::default()
        },
    );
    let report = monitor.tick();
    assert!(
        report.repairs >= 1,
        "the missed delta must be resent: {report:?}"
    );
    assert_eq!(report.readmitted, 1, "{report:?}");

    let status = router.replica_status(id).unwrap();
    assert!(status.replicas[2].in_quorum, "healed follower rejoins");
    assert_eq!(
        status.replicas[2].applied, status.replicas[0].applied,
        "re-admission stamps the group freshness token"
    );
    assert_digests_converged(&router, id);

    // Election fitness: pull the other two and the healed follower must
    // take the seat and serve the write it once missed.
    assert!(router.quarantine(id, "chaos 1").is_some());
    assert!(router.quarantine(id, "chaos 2").is_some());
    assert_eq!(router.replica_status(id).unwrap().primary, 2);
    assert_eq!(read_version(&router, "heal"), 2);
}

/// A dark group (seat quarantined, no electable successor) is re-seated
/// by the monitor on the freshest probe-answering survivor, the other
/// replicas are caught up from it, and writes flow again — no operator
/// `reinstate`.
#[test]
fn monitor_recovers_a_dark_group() {
    let platform = Platform::new("sh-host", Microcode::PostForeshadow);
    let router = Arc::new(replicated_cluster(&platform, 1, 3, 2));
    let id = ShardId(0);
    create(&router, "dg", 1);
    update(&router, "dg", 2).unwrap();
    update(&router, "dg", 3).unwrap();
    assert!(router.quarantine(id, "chaos 1").is_some());
    assert!(router.quarantine(id, "chaos 2").is_some());
    assert!(matches!(
        router.quarantine(id, "chaos 3"),
        Some(QuarantineOutcome::GroupDark)
    ));
    assert!(matches!(
        update(&router, "dg", 4),
        Err(ClusterError::ShardUnavailable(_))
    ));

    let monitor = ClusterMonitor::new(
        Arc::clone(&router),
        MonitorConfig {
            probation_ticks: 1,
            ..MonitorConfig::default()
        },
    );
    let report = monitor.tick();
    assert_eq!(report.dark_recovered, 1, "{report:?}");

    let status = router.replica_status(id).unwrap();
    assert!(!status.replicas[status.primary].quarantined);
    assert_eq!(
        status.replicas.iter().filter(|r| r.in_quorum).count(),
        3,
        "every probe-answering replica rejoins after the recovery"
    );
    assert_eq!(
        read_version(&router, "dg"),
        3,
        "acked writes survive the dark window"
    );
    update(&router, "dg", 5).unwrap();
    assert_eq!(read_version(&router, "dg"), 5);
    assert_digests_converged(&router, id);
}

/// A crash-restarted replica (its server stops answering, then comes
/// back) is quarantined by the probe sweep, kept benched while it still
/// fails probes, and rebuilt + re-admitted after its probation window —
/// the monitor-driven equivalent of `reinstate`, with the replica's own
/// state discarded wholesale.
#[test]
fn probation_heal_readmits_a_crash_restarted_replica() {
    let platform = Platform::new("sh-host", Microcode::PostForeshadow);
    let router = Arc::new(ClusterRouter::new(7007, 96));
    let id = ShardId(0);
    // Replica 2's server fails its first two requests — which, with
    // primary reads and engine-level forwards, are exactly the monitor's
    // probes — then recovers.
    let mut set = Vec::new();
    for r in 0..3u32 {
        let hook = (r == 2).then(|| kill_server_between(1, 2));
        let (server, counter) = replica(&platform, r, hook);
        set.push((server, Some(counter)));
    }
    router.add_replicated_shard(id, set, 2).unwrap();
    create(&router, "cr", 1);
    update(&router, "cr", 2).unwrap();

    let monitor = ClusterMonitor::new(
        Arc::clone(&router),
        MonitorConfig {
            probation_ticks: 2,
            ..MonitorConfig::default()
        },
    );
    // Tick 1: probe (request 1) fails — quarantined, probation starts.
    monitor.tick();
    let status = router.replica_status(id).unwrap();
    assert!(status.replicas[2].quarantined);
    // Tick 2: probation reached — the heal attempt's probe (request 2)
    // still fails; the clock restarts instead of flapping.
    assert_eq!(monitor.tick().healed, 0);
    assert!(router.replica_status(id).unwrap().replicas[2].quarantined);
    // Tick 3: back on probation — benched, not probed.
    assert_eq!(monitor.tick().healed, 0);
    // Tick 4: the server answers (request 3) — rebuilt and re-admitted.
    let report = monitor.tick();
    assert_eq!(report.healed, 1, "{report:?}");
    let status = router.replica_status(id).unwrap();
    assert!(!status.replicas[2].quarantined);
    assert!(status.replicas[2].in_quorum);
    assert_digests_converged(&router, id);
    update(&router, "cr", 3).unwrap();
    assert_eq!(read_version(&router, "cr"), 3);
}

// ---------------------------------------------------------------------
// Acceptance bar: 200+ faults, zero acked loss, zero reinstate
// ---------------------------------------------------------------------

/// The long-horizon chaos run. A `FaultPlan` drives 210 faults — primary
/// crashes before/after quorum, observed partitions (demotions), silent
/// wire losses, reorders, batch drops, channel stalls and counter
/// rollbacks — against a monitored R=3 group under continuous writes,
/// with a deterministic monitor tick interleaved every third mutation.
/// A stall parks its round's writes on their acks, so that round writes
/// from a scoped thread while the monitor ticks until its sweep has fenced
/// through the wedge and released them. `reinstate` is never called. At the end the monitor alone must have
/// converged the group: every acked write readable, all three replicas
/// back in the write quorum, byte-identical policy records everywhere.
#[test]
fn monitor_converges_two_hundred_faults_without_an_operator() {
    const POLICIES: u64 = 10;
    const FAULTS: u64 = 210;

    let platform = Platform::new("sh-host", Microcode::PostForeshadow);
    let router = Arc::new(replicated_cluster(&platform, 1, 3, 2));
    let id = ShardId(0);
    let monitor = ClusterMonitor::new(
        Arc::clone(&router),
        MonitorConfig {
            probation_ticks: 1,
            ..MonitorConfig::default()
        },
    );
    let plan = FaultPlan::new([]);
    router.set_fault_plan(Arc::clone(&plan));

    let names: Vec<String> = (0..POLICIES).map(|i| format!("chaos-{i}")).collect();
    for name in &names {
        create(&router, name, 1); // ops 1..=POLICIES
    }
    let mut acked: Vec<u64> = vec![1; names.len()];

    let mut version = 1u64;
    for round in 0..FAULTS {
        // Schedule the next fault at the next op, aimed at a replica
        // that can actually receive it *right now* (the seat moves and
        // quarantines accumulate, so the target is picked live).
        let status = router.replica_status(id).unwrap();
        let target = (0..3)
            .find(|&k| k != status.primary && !status.replicas[k].quarantined)
            .unwrap_or((status.primary + 1) % 3);
        let kind = match round % 8 {
            0 => FaultKind::CrashAfterQuorum,
            1 => FaultKind::DropForwardToReplica(target),
            2 => FaultKind::LoseIncremental(target),
            3 => FaultKind::StallForwardChannel(target),
            4 => FaultKind::CrashBeforeForward,
            5 => FaultKind::DropBatch(target),
            6 => FaultKind::ReorderIncremental(target),
            _ => FaultKind::CounterRollback {
                replica: target,
                to: 1,
            },
        };
        plan.schedule(PlannedFault {
            shard: id,
            op: status.ops + 1,
            kind,
        });

        // Three writes per fault: the faulted op plus two clean ones, so
        // reorder/lose gaps surface at a successor delta.
        let mut write_three = || {
            for _ in 0..3 {
                version += 1;
                let i = (version % POLICIES) as usize;
                if update(&router, &names[i], version).is_ok() {
                    acked[i] = version;
                }
            }
        };
        if matches!(kind, FaultKind::StallForwardChannel(_)) {
            // The wedge parks the writer; only the monitor's sweep (fence
            // through the stall, then clear it) lets it return.
            std::thread::scope(|scope| {
                let writer = scope.spawn(write_three);
                let deadline = Instant::now() + Duration::from_secs(10);
                while !writer.is_finished() {
                    assert!(
                        Instant::now() < deadline,
                        "the monitor never released the writes parked behind the wedge"
                    );
                    monitor.tick();
                }
            });
        } else {
            write_three();
        }
        monitor.tick();
    }

    assert!(
        plan.fired().len() as u64 >= 200,
        "the run must actually drive 200+ faults, fired {}",
        plan.fired().len()
    );

    // Drain: tick until the monitor reports a converged, fully reformed
    // group (bounded — convergence must not need many passes).
    let mut reformed = false;
    for _ in 0..20 {
        monitor.tick();
        let status = router.replica_status(id).unwrap();
        if status.replicas.iter().filter(|r| r.in_quorum).count() == 3 {
            reformed = true;
            break;
        }
    }
    assert!(reformed, "the monitor must reform the full quorum");
    // One final quiet pass: nothing left to heal.
    let residue = monitor.tick();
    assert_eq!(
        residue.repairs, 0,
        "converged group needs no repairs: {residue:?}"
    );

    // Zero acked-write loss, no operator involved.
    for (i, name) in names.iter().enumerate() {
        assert!(
            read_version(&router, name) >= acked[i],
            "'{name}' lost its acked write"
        );
    }
    assert_digests_converged(&router, id);
    let status = router.replica_status(id).unwrap();
    assert_eq!(status.replicas.iter().filter(|r| r.in_quorum).count(), 3);
    let totals = monitor.totals();
    assert!(
        totals.repairs > 0,
        "chaos at this scale must exercise repair"
    );
    assert!(
        totals.readmitted + totals.healed + totals.dark_recovered > 0,
        "chaos at this scale must exercise re-admission: {totals:?}"
    );
}

/// The PR 4 acceptance scenario with the background monitor *running*:
/// live writer/reader traffic, every primary pulled mid-stream — and the
/// monitor (not `reinstate`) rebuilds the pulled replicas, so the run
/// ends with every group at full strength.
#[test]
fn chaos_under_live_traffic_with_the_monitor_running() {
    const POLICIES: usize = 8;
    let platform = Platform::new("sh-host", Microcode::PostForeshadow);
    let router = Arc::new(replicated_cluster(&platform, 2, 3, 2));
    let names: Vec<String> = (0..POLICIES).map(|i| format!("live-{i}")).collect();
    for name in &names {
        create(&router, name, 1);
    }
    let monitor = ClusterMonitor::new(
        Arc::clone(&router),
        MonitorConfig {
            cadence: Duration::from_millis(5),
            probation_ticks: 1,
        },
    );
    monitor.start();

    let stop = Arc::new(AtomicBool::new(false));
    let acked: Arc<Vec<AtomicU64>> = Arc::new((0..POLICIES).map(|_| AtomicU64::new(1)).collect());
    std::thread::scope(|scope| {
        {
            let router = Arc::clone(&router);
            let stop = Arc::clone(&stop);
            let acked = Arc::clone(&acked);
            let names = names.clone();
            scope.spawn(move || {
                let mut version = 1u64;
                let mut i = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    version += 1;
                    if update(&router, &names[i], version).is_ok() {
                        acked[i].store(version, Ordering::Release);
                    }
                    i = (i + 1) % POLICIES;
                }
            });
        }
        {
            let router = Arc::clone(&router);
            let stop = Arc::clone(&stop);
            let acked = Arc::clone(&acked);
            let names = names.clone();
            scope.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    for (i, name) in names.iter().enumerate() {
                        let floor = acked[i].load(Ordering::Acquire);
                        let version = read_version(&router, name);
                        assert!(version >= floor, "stale read of '{name}'");
                    }
                }
            });
        }
        for id in [ShardId(0), ShardId(1)] {
            std::thread::sleep(Duration::from_millis(20));
            assert!(router.quarantine(id, "chaos: primary pulled").is_some());
        }
        std::thread::sleep(Duration::from_millis(30));
        stop.store(true, Ordering::Relaxed);
    });

    // The monitor (never `reinstate`) must rebuild the pulled replicas.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let whole = [ShardId(0), ShardId(1)].iter().all(|&id| {
            let status = router.replica_status(id).unwrap();
            status.replicas.iter().filter(|r| r.in_quorum).count() == 3
        });
        if whole {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "monitor failed to reform both groups in time"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    monitor.stop();
    for (i, name) in names.iter().enumerate() {
        assert!(read_version(&router, name) >= acked[i].load(Ordering::Acquire));
    }
    for id in [ShardId(0), ShardId(1)] {
        assert_digests_converged(&router, id);
    }
    assert!(monitor.totals().healed + monitor.totals().readmitted > 0);
}

// ---------------------------------------------------------------------
// One heal sequence: operator and monitor take the same path
// ---------------------------------------------------------------------

/// An R=3 group whose replica `flaky` sits on a [`FlakyStore`], with the
/// switch that fails its disk.
fn group_with_a_flaky_disk(
    platform: &Platform,
    flaky: u32,
) -> (Arc<ClusterRouter>, Arc<AtomicBool>) {
    let fail = Arc::new(AtomicBool::new(false));
    let set = (0..3u32)
        .map(|r| {
            let store: Box<dyn BlockStore> = if r == flaky {
                Box::new(FlakyStore {
                    inner: MemStore::new(),
                    fail: Arc::clone(&fail),
                })
            } else {
                Box::new(MemStore::new())
            };
            let (server, counter) = replica_on(platform, r, store, None);
            (server, Some(counter))
        })
        .collect();
    let router = ClusterRouter::new(7007, 96);
    router.add_replicated_shard(ShardId(0), set, 2).unwrap();
    (Arc::new(router), fail)
}

/// Replica `k`'s recorded quarantine/demotion reason.
fn reason_of(router: &ClusterRouter, k: usize) -> String {
    router.health_check()[0].replicas[k]
        .reason
        .clone()
        .unwrap_or_default()
}

/// `reinstate` and the monitor's dark-group recovery are the same heal
/// sequence: two identical dark groups — a follower that missed a write,
/// two crashed primaries — one reinstated, one ticked, end on the same
/// seat with the same records and chain cursors on every replica, the
/// re-seated primary's own channel empty, and the re-seat on the flight
/// recorder.
#[test]
fn operator_and_monitor_heal_a_dark_group_identically() {
    let platform = Platform::new("sh-host", Microcode::PostForeshadow);
    let id = ShardId(0);
    let names = ["same-a", "same-b", "same-c"];
    let dark_group = || {
        let router = Arc::new(replicated_cluster(&platform, 1, 3, 2));
        for name in names {
            create(&router, name, 1); // ops 1..=3
        }
        router.set_fault_plan(FaultPlan::new([PlannedFault {
            shard: id,
            op: 4,
            kind: FaultKind::DropForwardToReplica(2),
        }]));
        update(&router, "same-a", 2).unwrap(); // op 4: replica 2 demotes
        assert!(router.quarantine(id, "chaos 1").is_some()); // seat 0 -> 1
        assert!(matches!(
            router.quarantine(id, "chaos 2"),
            Some(QuarantineOutcome::GroupDark)
        ));
        router
    };
    let state = |router: &ClusterRouter| {
        let status = router.replica_status(id).unwrap();
        assert!(status.replicas.iter().all(|r| r.in_quorum), "{status:?}");
        let depths = router.stats().shards[0].queue_depths.clone();
        assert_eq!(depths[status.primary], 0, "the new seat's channel");
        let engines = router.replica_engines(id);
        let held: Vec<_> = engines
            .iter()
            .flat_map(|e| names.map(|n| (e.policy_cursor(n), e.policy_digest(n))))
            .collect();
        (status.primary, held)
    };
    let reseats = |router: &ClusterRouter| {
        let events = router.telemetry().flight().events();
        let is_reseat = |e: &&palaemon::telemetry::Event| {
            matches!(e.kind, EventKind::Election { deposed: 1, .. })
        };
        events.iter().filter(is_reseat).count()
    };

    let by_operator = dark_group();
    assert!(by_operator.reinstate(id));
    let by_monitor = dark_group();
    let monitor = ClusterMonitor::new(Arc::clone(&by_monitor), MonitorConfig::default());
    assert_eq!(monitor.tick().dark_recovered, 1);

    assert_eq!(state(&by_operator), state(&by_monitor));
    // Replicas 0 and 1 tie on freshness, so the seat moves off the dark
    // replica 1 to the lowest index — on both paths, recorded on both.
    assert_eq!(by_operator.replica_status(id).unwrap().primary, 0);
    assert_eq!((reseats(&by_operator), reseats(&by_monitor)), (1, 1));
    for router in [&by_operator, &by_monitor] {
        assert_eq!(read_version(router, "same-a"), 2, "acked write survives");
        assert_digests_converged(router, id);
        update(router, "same-c", 2).unwrap();
    }
}

/// A replica whose resync fails is never rejoined — and every heal path
/// says why: operator reinstate, the monitor's dark-group recovery and its
/// probation heal all quarantine it with the cause appended (the two
/// monitor paths used to skip it silently). Once the disk recovers a
/// reinstate brings it back.
#[test]
fn a_failed_resync_is_quarantined_with_its_cause_on_every_heal_path() {
    let platform = Platform::new("sh-host", Microcode::PostForeshadow);
    let id = ShardId(0);
    type Heal = fn(&Arc<ClusterRouter>);
    let paths: [(&str, bool, Heal); 3] = [
        ("reinstate", false, |router| {
            assert!(router.reinstate(ShardId(0)));
        }),
        ("dark-group recovery", true, |router| {
            let config = MonitorConfig {
                probation_ticks: u32::MAX,
                ..MonitorConfig::default()
            };
            let report = ClusterMonitor::new(Arc::clone(router), config).tick();
            assert_eq!(report.dark_recovered, 1, "{report:?}");
        }),
        ("probation heal", false, |router| {
            let config = MonitorConfig {
                probation_ticks: 1,
                ..MonitorConfig::default()
            };
            ClusterMonitor::new(Arc::clone(router), config).tick();
        }),
    ];
    for (path, dark, heal) in paths {
        // Replica 0 — the first primary, on the flaky disk — is pulled and
        // misses a write; the group optionally goes dark behind it.
        let (router, fail) = group_with_a_flaky_disk(&platform, 0);
        create(&router, "fr", 1);
        assert!(router.quarantine(id, "pulled").is_some());
        update(&router, "fr", 2).unwrap();
        if dark {
            assert!(router.quarantine(id, "pulled too").is_some());
            assert!(matches!(
                router.quarantine(id, "and the last"),
                Some(QuarantineOutcome::GroupDark)
            ));
        }

        fail.store(true, Ordering::Release);
        heal(&router);
        let status = router.replica_status(id).unwrap();
        assert!(status.replicas[0].quarantined, "{path}: rejoined unsynced");
        assert!(!status.replicas[status.primary].quarantined, "{path}");
        let reason = reason_of(&router, 0);
        assert!(
            reason.contains("catch-up failed") && reason.contains("injected disk failure"),
            "{path}: the cause must be recorded, got: {reason}"
        );

        fail.store(false, Ordering::Release);
        assert!(router.reinstate(id));
        let status = router.replica_status(id).unwrap();
        assert!(status.replicas.iter().all(|r| r.in_quorum), "{path}");
        assert_digests_converged(&router, id);
    }
}

/// The sweep's half of the same rule: a follower whose anti-entropy
/// repair fails is demoted with the cause instead of staying in the
/// quorum it silently diverged from, and re-admitted once it converges.
#[test]
fn a_failed_sweep_repair_demotes_with_its_cause() {
    let platform = Platform::new("sh-host", Microcode::PostForeshadow);
    let id = ShardId(0);
    let (router, fail) = group_with_a_flaky_disk(&platform, 2);
    router.set_fault_plan(FaultPlan::new([PlannedFault {
        shard: id,
        op: 2,
        kind: FaultKind::LoseIncremental(2),
    }]));
    create(&router, "sw", 1); // op 1
    update(&router, "sw", 2).unwrap(); // op 2: lost on replica 2's wire
    assert!(router.replica_status(id).unwrap().replicas[2].in_quorum);
    // Replica 2's copy of op 1 lands while its disk still works.
    assert!(router.flush_replication(id));

    let monitor = ClusterMonitor::new(Arc::clone(&router), MonitorConfig::default());
    fail.store(true, Ordering::Release);
    let report = monitor.tick();
    assert_eq!((report.repairs, report.readmitted), (0, 0), "{report:?}");
    let status = router.replica_status(id).unwrap();
    assert!(!status.replicas[2].in_quorum && !status.replicas[2].quarantined);
    let reason = reason_of(&router, 2);
    assert!(
        reason.contains("anti-entropy repair failed") && reason.contains("injected disk failure"),
        "the demotion must name the failed repair, got: {reason}"
    );
    // ... and it is a flight-recorder event carrying the same diagnosis.
    let recorded = router.telemetry().flight().events().into_iter().any(|e| {
        matches!(e.kind, EventKind::Demotion { shard: 0, replica: 2, reason: why } if why == reason)
    });
    assert!(recorded, "the demotion must reach the flight recorder");

    // The failed window's records reach the disk with its next sync; the
    // follower converged in memory, so the next pass only re-admits it.
    fail.store(false, Ordering::Release);
    assert_eq!(monitor.tick().readmitted, 1);
    assert!(router.replica_status(id).unwrap().replicas[2].in_quorum);
    assert_digests_converged(&router, id);
}
