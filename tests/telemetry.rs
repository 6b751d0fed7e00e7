//! Telemetry-plane integration suite.
//!
//! * One [`Telemetry::snapshot`] call covers all nine stats surfaces —
//!   server, front door, batched counter, replication, shard, cluster,
//!   database, EPC and simnet latency — plus the five request-stage
//!   histograms and the flight-recorder tail, in both JSON and
//!   Prometheus renderings.
//! * Conservation: a front door drained mid-storm accounts for every
//!   submission (`submitted == completed + rejected`), and a clean
//!   windowed replication run accounts for every shipped batch and
//!   mutation.

use std::sync::Arc;
use std::time::Duration;

use palaemon::cluster::{strict_shard, ClusterDoor, ClusterRouter, ShardId};
use palaemon::core::counterfile::MemFileCounter;
use palaemon::core::frontdoor::FrontDoor;
use palaemon::core::policy::Policy;
use palaemon::core::server::{FaultHook, TmsRequest};
use palaemon::core::tms::Palaemon;
use palaemon::crypto::aead::AeadKey;
use palaemon::crypto::sig::{SigningKey, VerifyingKey};
use palaemon::crypto::Digest;
use palaemon::db::Db;
use palaemon::shielded_fs::store::MemStore;
use palaemon::simnet::stats::LatencyStats;
use palaemon::tee_sim::epc::EpcAllocator;
use palaemon::tee_sim::platform::{Microcode, Platform};
use palaemon::telemetry::{Collect, MetricValue, Stage};

const MRE: [u8; 32] = [0x7E; 32];

fn owner() -> VerifyingKey {
    SigningKey::from_seed(b"telemetry-owner").verifying_key()
}

fn versioned_policy(name: &str, version: u64) -> Policy {
    Policy::parse(&format!(
        "name: {name}\nservices:\n  - name: app\n    mrenclaves: [\"{}\"]\n    \
         volumes: [\"data\"]\n    env:\n      VERSION: \"{version}\"\nvolumes:\n  - name: data\n",
        Digest::from_bytes(MRE).to_hex()
    ))
    .unwrap()
}

fn engine(platform: &Platform, tag: u32) -> Arc<Palaemon> {
    let db = Db::create(
        Box::new(MemStore::new()),
        AeadKey::from_bytes([tag as u8; 32]),
    )
    .expect("create db");
    let engine = Arc::new(Palaemon::new(
        db,
        SigningKey::from_seed(format!("tel-replica-{tag}").as_bytes()),
        Digest::ZERO,
        31 + u64::from(tag),
    ));
    engine.register_platform(platform.id(), platform.qe_verifying_key());
    engine
}

/// One R=3 replicated arc with write-quorum 2.
fn replicated_router(platform: &Platform) -> ClusterRouter {
    let router = ClusterRouter::new(0x7E1E, 64);
    let set: Vec<_> = (0..3)
        .map(|r| {
            let (server, counter) = strict_shard(engine(platform, r), MemFileCounter::new());
            (server, Some(counter))
        })
        .collect();
    router.add_replicated_shard(ShardId(0), set, 2).unwrap();
    router
}

fn create(router: &ClusterRouter, name: &str) {
    router
        .handle(TmsRequest::CreatePolicy {
            owner: owner(),
            policy: Box::new(versioned_policy(name, 1)),
            approval: None,
            votes: Vec::new(),
        })
        .unwrap();
}

fn update(router: &ClusterRouter, name: &str, version: u64) {
    router
        .handle(TmsRequest::UpdatePolicy {
            client: owner(),
            policy: Box::new(versioned_policy(name, version)),
            approval: None,
            votes: Vec::new(),
        })
        .unwrap();
}

/// The acceptance bar: one snapshot call aggregates every stats surface
/// in the workspace, the per-stage trace histograms and the flight
/// recorder, and renders to both exposition formats.
#[test]
fn one_snapshot_covers_all_nine_surfaces() {
    let platform = Platform::new("tel-host", Microcode::PostForeshadow);
    let router = Arc::new(replicated_router(&platform));
    let telemetry = Arc::clone(router.telemetry());
    telemetry.set_tracing(true);
    let door = FrontDoor::with_telemetry(
        ClusterDoor(Arc::clone(&router)),
        2,
        64,
        Arc::clone(&telemetry),
    );

    // Traced traffic through the whole pipeline: front door -> router ->
    // engine -> counter -> replication forwards -> quorum ack.
    door.submit(TmsRequest::CreatePolicy {
        owner: owner(),
        policy: Box::new(versioned_policy("snap", 1)),
        approval: None,
        votes: Vec::new(),
    })
    .wait()
    .unwrap();
    for version in 2..=8 {
        door.submit(TmsRequest::UpdatePolicy {
            client: owner(),
            policy: Box::new(versioned_policy("snap", version)),
            approval: None,
            votes: Vec::new(),
        })
        .wait()
        .unwrap();
    }
    // A control-plane event for the recorder tail.
    assert!(router
        .quarantine(ShardId(0), "snapshot: primary pulled")
        .is_some());

    // The nine surfaces.
    let cluster_stats = router.stats();
    let shard_stats = cluster_stats.shards[0].clone();
    let server_stats = shard_stats.server;
    let batch_stats = server_stats.counter.expect("strict shard");
    let replication_stats = shard_stats.replication;
    let frontdoor_stats = door.stats();
    let mut db =
        Db::create(Box::new(MemStore::new()), AeadKey::from_bytes([9; 32])).expect("create db");
    db.put(b"k".to_vec(), b"v".to_vec());
    db.commit().unwrap();
    let db_stats = db.stats();
    let epc = EpcAllocator::new(64 * 4096);
    epc.alloc(3).unwrap();
    let epc_stats = epc.stats();
    let latency_stats = LatencyStats::from_samples((1..=100).collect()).unwrap();

    let snapshot = telemetry.snapshot(&[
        &server_stats as &dyn Collect,
        &frontdoor_stats,
        &batch_stats,
        &replication_stats,
        &shard_stats,
        &cluster_stats,
        &db_stats,
        &epc_stats,
        &latency_stats,
    ]);

    // Every surface contributed at least its signature metric.
    let find = |name: &str| {
        snapshot
            .metrics
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("metric {name} missing from the snapshot"))
    };
    find("server_requests_ok_total");
    find("frontdoor_submitted_total");
    find("counter_ops_committed_total");
    find("replication_mutations_shipped_total");
    find("shard_queue_depth");
    find("cluster_shards");
    find("db_commits_total");
    find("db_wal_windows_total");
    find("db_group_commit_wait_p99_ns");
    find("db_snapshot_path_copies_total");
    find("epc_allocated_pages_total");
    find("latency_p99_ns");
    match find("frontdoor_submitted_total").value {
        MetricValue::Counter(v) => assert_eq!(v, 8, "8 traced submissions"),
        MetricValue::Gauge(_) => panic!("submitted is a counter"),
    }

    // All five stages recorded, quantiles ordered.
    assert_eq!(snapshot.stages.len(), Stage::COUNT);
    for stage in &snapshot.stages {
        assert!(stage.count > 0, "stage {} never recorded", stage.stage);
        assert!(stage.p50_ns <= stage.p95_ns, "{stage:?}");
        assert!(stage.p95_ns <= stage.p99_ns, "{stage:?}");
        assert!(stage.p99_ns <= stage.max_ns, "{stage:?}");
    }
    assert_eq!(snapshot.traces, 8);

    // The recorder tail holds the failover sequence just provoked.
    assert!(!snapshot.events.is_empty());
    let kinds: Vec<&str> = snapshot.events.iter().map(|e| e.kind.name()).collect();
    assert!(kinds.contains(&"election"), "recorder tail: {kinds:?}");
    assert!(kinds.contains(&"quarantine"), "recorder tail: {kinds:?}");

    // Both renderings carry the same plane.
    let json = snapshot.to_json();
    assert!(json.contains("\"replication_mutations_shipped_total\""));
    assert!(json.contains("\"kind\":\"election\""));
    assert!(json.contains("\"stage\":\"quorum_ack\""));
    let prom = snapshot.to_prometheus();
    assert!(prom.contains("server_requests_ok_total{shard=\"0\"}"));
    assert!(
        prom.contains("db_commits_per_window{size=\"1\"}"),
        "the group-commit window histogram must reach Prometheus"
    );
    assert!(prom.contains("palaemon_stage_latency_ns{stage=\"engine_apply\",quantile=\"0.99\"}"));
    assert!(prom.contains("palaemon_traces_total 8\n"));
}

/// Conservation across a drop-drain: a bounded front door hammered by
/// more submitters than it can absorb must account for every attempt —
/// `submitted == completed + rejected` — once drained.
#[test]
fn front_door_conservation_under_drop_drain() {
    let platform = Platform::new("tel-host", Microcode::PostForeshadow);
    let (server, _counter) = strict_shard(engine(&platform, 40), MemFileCounter::new());
    // Each request occupies the engine briefly so the tiny queue
    // saturates and try_submit actually refuses work.
    let hook: FaultHook = Arc::new(|_req| {
        std::thread::sleep(Duration::from_micros(200));
        Ok(())
    });
    let server = server.with_fault_hook(hook);
    server
        .handle(TmsRequest::CreatePolicy {
            owner: owner(),
            policy: Box::new(versioned_policy("cons", 1)),
            approval: None,
            votes: Vec::new(),
        })
        .unwrap();

    let door = FrontDoor::with_capacity(server, 2, 4);
    const THREADS: usize = 8;
    const ATTEMPTS: usize = 50;
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            let door = &door;
            scope.spawn(move || {
                for _ in 0..ATTEMPTS {
                    // Accepted tickets are dropped without waiting: the
                    // drain below must still complete every one of them.
                    // A queued request: a snapshot read would be answered
                    // in place and never meet the queue bound.
                    let _ = door.try_submit(TmsRequest::PolicyCount);
                }
            });
        }
    });

    let stats = door.drain();
    assert_eq!(
        stats.submitted,
        (THREADS * ATTEMPTS) as u64,
        "every attempt is a submission"
    );
    assert_eq!(
        stats.submitted,
        stats.completed + stats.rejected,
        "conservation must hold after the drain: {stats:?}"
    );
    assert!(stats.completed > 0, "some requests must get through");
    assert!(
        stats.rejected > 0,
        "the storm must saturate a 4-deep queue: {stats:?}"
    );
    assert_eq!(stats.queue_depth, 0, "drained means empty");
}

/// Conservation on the replication plane: over a clean run every mutation
/// is one delta per follower — delivered, counted and acked exactly once.
#[test]
fn replication_accounting_is_conserved() {
    let platform = Platform::new("tel-host", Microcode::PostForeshadow);
    let router = replicated_router(&platform);

    let before = router.stats().shards[0].replication;
    let served_before = router.stats().shards[0].server;
    const POLICIES: usize = 3;
    const UPDATES: u64 = 6;
    for p in 0..POLICIES {
        create(&router, &format!("cons_{p}"));
        for version in 2..=(1 + UPDATES) {
            update(&router, &format!("cons_{p}"), version);
        }
    }
    // An ack is the quorum's; the books balance once the slower follower's
    // deliveries have landed too.
    assert!(router.flush_replication(ShardId(0)));
    let after = router.stats().shards[0].replication;

    assert_eq!(after.sequence_rejections, before.sequence_rejections);
    assert_eq!(after.snapshot_resyncs, before.snapshot_resyncs);

    let mutations = (POLICIES as u64) * (1 + UPDATES); // create + updates
    let followers = 2u64;
    assert_eq!(
        after.mutations_shipped - before.mutations_shipped,
        mutations * followers,
        "both followers must see every mutation exactly once"
    );
    let deltas = (after.incremental_deltas + after.snapshot_deltas)
        - (before.incremental_deltas + before.snapshot_deltas);
    assert_eq!(
        deltas,
        mutations * followers,
        "on a clean run each mutation is one delta per follower"
    );
    assert_eq!(
        after.batches_shipped - before.batches_shipped,
        deltas,
        "every delta forwarded is a delta delivered"
    );
    let transfers = (after.flushes_durable + after.flushes_fence)
        - (before.flushes_durable + before.flushes_fence);
    assert!(
        (1..=deltas).contains(&transfers),
        "{transfers} wire transfers carried {deltas} deltas"
    );

    // The primary's server stages every mutation and redeems it behind the
    // forward: each request handled is counted exactly once, ok or failed.
    let served = router.stats().shards[0].server;
    assert_eq!(
        (served.ok + served.failed) - (served_before.ok + served_before.failed),
        mutations,
        "ok + failed must equal requests handled: {served:?}"
    );
    assert_eq!(served.failed, served_before.failed);
}

/// Conservation on the storage plane: every group commit lands in exactly
/// one commits-per-window bucket, so the histogram re-derives both the
/// commit and the window totals — under concurrent writers included.
#[test]
fn group_commit_accounting_is_conserved() {
    let db = Arc::new(std::sync::Mutex::new(
        Db::create(Box::new(MemStore::new()), AeadKey::from_bytes([0x6A; 32])).expect("create db"),
    ));
    let writers = 4;
    let per_writer = 25;
    let handles: Vec<_> = (0..writers)
        .map(|w| {
            let db = Arc::clone(&db);
            std::thread::spawn(move || {
                for i in 0..per_writer {
                    // Stage under the engine lock, wait on the ticket
                    // outside it — the concurrent-writer commit protocol.
                    let ticket = {
                        let mut db = db.lock().unwrap();
                        db.put(format!("w{w}/k{i}").into_bytes(), vec![w as u8; 8]);
                        db.commit_stage()
                    };
                    ticket.wait().expect("group commit");
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    let stats = db.lock().unwrap().stats();
    assert_eq!(stats.commits, (writers * per_writer) as u64);
    let histogram_commits: u64 = stats
        .commits_per_window
        .iter()
        .map(|&(size, count)| u64::from(size) * count)
        .sum();
    assert_eq!(
        histogram_commits, stats.commits,
        "commits == sum(size * count) over the per-window histogram"
    );
    let histogram_windows: u64 = stats.commits_per_window.iter().map(|&(_, c)| c).sum();
    assert_eq!(
        histogram_windows, stats.wal_windows,
        "every WAL window lands in exactly one bucket"
    );
}
