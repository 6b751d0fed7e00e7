//! Integration suite for the sharded cluster: live policy migration under
//! concurrent readers and writers (the rebalance acceptance criterion —
//! no read ever misses or observes stale policy data while a shard is
//! added or drained), plus cluster-wide stat aggregation.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use palaemon::cluster::{strict_shard, ClusterRouter, ShardId};
use palaemon::core::counterfile::{BatchedCounter, MemFileCounter};
use palaemon::core::policy::Policy;
use palaemon::core::server::{TmsRequest, TmsResponse, TmsServer};
use palaemon::core::tms::Palaemon;
use palaemon::crypto::aead::AeadKey;
use palaemon::crypto::sig::{SigningKey, VerifyingKey};
use palaemon::crypto::Digest;
use palaemon::db::Db;
use palaemon::shielded_fs::store::MemStore;
use palaemon::tee_sim::platform::{Microcode, Platform};

const MRE: [u8; 32] = [0x83; 32];
const POLICIES: usize = 18;
const READERS: usize = 3;

fn owner() -> VerifyingKey {
    SigningKey::from_seed(b"cluster-it-owner").verifying_key()
}

fn versioned_policy(name: &str, version: u64) -> Policy {
    Policy::parse(&format!(
        "name: {name}\nservices:\n  - name: app\n    mrenclaves: [\"{}\"]\n    \
         env:\n      VERSION: \"{version}\"\n",
        Digest::from_bytes(MRE).to_hex()
    ))
    .unwrap()
}

fn fresh_shard(platform: &Platform, tag: u32) -> (TmsServer, Arc<BatchedCounter>) {
    let db = Db::create(
        Box::new(MemStore::new()),
        AeadKey::from_bytes([tag as u8; 32]),
    )
    .expect("create db");
    let engine = Arc::new(Palaemon::new(
        db,
        SigningKey::from_seed(format!("it-shard-{tag}").as_bytes()),
        Digest::ZERO,
        31 + u64::from(tag),
    ));
    engine.register_platform(platform.id(), platform.qe_verifying_key());
    strict_shard(engine, MemFileCounter::new())
}

fn cluster(shards: u32, platform: &Platform) -> ClusterRouter {
    let router = ClusterRouter::new(2026, 96);
    for i in 0..shards {
        let (server, counter) = fresh_shard(platform, i);
        router.add_shard(ShardId(i), server, Some(counter)).unwrap();
    }
    router
}

fn read_version(router: &ClusterRouter, name: &str) -> u64 {
    match router
        .handle(TmsRequest::ReadPolicy {
            name: name.to_string(),
            client: owner(),
            approval: None,
            votes: Vec::new(),
        })
        .unwrap_or_else(|e| panic!("read of '{name}' missed during migration: {e}"))
    {
        TmsResponse::Policy(p) => p.services[0]
            .env
            .get("VERSION")
            .expect("version marker")
            .parse()
            .expect("numeric version"),
        other => panic!("expected policy, got {other:?}"),
    }
}

/// The rebalance acceptance test: while policies are being live-migrated
/// (a shard joins, then another drains), a writer keeps publishing
/// monotonically versioned policy updates and reader threads continuously
/// read every policy. No read may fail ("miss") and no read may observe a
/// version older than what was already acknowledged ("stale").
#[test]
fn live_migration_loses_no_reads_and_serves_no_stale_data() {
    let platform = Platform::new("it-host", Microcode::PostForeshadow);
    let router = Arc::new(cluster(3, &platform));
    let names: Vec<String> = (0..POLICIES).map(|i| format!("ten-{i}")).collect();
    for name in &names {
        router
            .handle(TmsRequest::CreatePolicy {
                owner: owner(),
                policy: Box::new(versioned_policy(name, 1)),
                approval: None,
                votes: Vec::new(),
            })
            .unwrap();
    }
    let before: Vec<ShardId> = names
        .iter()
        .map(|n| router.shard_for_policy(n).unwrap())
        .collect();

    let stop = Arc::new(AtomicBool::new(false));
    // acked[i]: highest version of policy i whose update was acknowledged.
    let acked: Arc<Vec<AtomicU64>> = Arc::new((0..POLICIES).map(|_| AtomicU64::new(1)).collect());

    std::thread::scope(|scope| {
        // Writer: round-robin versioned updates across all policies.
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
                    router
                        .handle(TmsRequest::UpdatePolicy {
                            client: owner(),
                            policy: Box::new(versioned_policy(&names[i], version)),
                            approval: None,
                            votes: Vec::new(),
                        })
                        .unwrap();
                    acked[i].store(version, Ordering::Release);
                    i = (i + 1) % POLICIES;
                }
            });
        }
        // Readers: every policy, forever; never a miss, never stale, never
        // going backwards.
        for _ in 0..READERS {
            let router = Arc::clone(&router);
            let stop = Arc::clone(&stop);
            let acked = Arc::clone(&acked);
            let names = names.clone();
            scope.spawn(move || {
                let mut last_seen = [0u64; POLICIES];
                while !stop.load(Ordering::Relaxed) {
                    for (i, name) in names.iter().enumerate() {
                        let floor = acked[i].load(Ordering::Acquire);
                        let version = read_version(&router, name);
                        assert!(
                            version >= floor,
                            "stale read of '{name}': saw v{version}, acked v{floor}"
                        );
                        assert!(
                            version >= last_seen[i],
                            "'{name}' went backwards: v{} then v{version}",
                            last_seen[i]
                        );
                        last_seen[i] = version;
                    }
                }
            });
        }

        // Main thread: rebalance twice while the traffic runs.
        std::thread::sleep(Duration::from_millis(30));
        let (server, counter) = fresh_shard(&platform, 3);
        let plan = router.add_shard(ShardId(3), server, Some(counter)).unwrap();
        assert!(!plan.moves.is_empty(), "the new shard must steal policies");
        std::thread::sleep(Duration::from_millis(30));
        let drained = router.drain_shard(ShardId(0)).unwrap();
        assert_eq!(drained.removed, Some(ShardId(0)));
        std::thread::sleep(Duration::from_millis(30));
        stop.store(true, Ordering::Relaxed);
    });

    // Every policy survived both rebalances, none on the drained shard.
    assert_eq!(router.shard_count(), 3);
    match router.handle(TmsRequest::PolicyCount).unwrap() {
        TmsResponse::Count(n) => assert_eq!(n, POLICIES),
        other => panic!("expected count, got {other:?}"),
    }
    let mut migrated = 0;
    for (i, name) in names.iter().enumerate() {
        let home = router.shard_for_policy(name).unwrap();
        assert_ne!(home, ShardId(0), "'{name}' still routed to drained shard");
        assert!(router.engine(home).unwrap().policy_names().contains(name));
        if home != before[i] {
            migrated += 1;
        }
        // And the final stored version is the last acknowledged one.
        assert_eq!(
            read_version(&router, name),
            acked[i].load(Ordering::Acquire)
        );
    }
    assert!(migrated > 0, "rebalances must have moved policies");
    let stats = router.stats();
    assert!(
        stats.shards.iter().all(|s| s.server.failed == 0),
        "no shard may have failed a request: {stats}"
    );
}

/// Crash-point for live migration × replication: draining a *replicated*
/// arc while mutations are in flight must leave no replica divergence —
/// after the drain, every in-quorum replica of every surviving group holds
/// byte-identical records for every policy, and every policy serves its
/// last acknowledged version.
#[test]
fn drain_of_replicated_arc_mid_mutation_leaves_no_divergence() {
    const GROUPS: u32 = 3;
    const REPLICAS: u32 = 3;

    let platform = Platform::new("it-host", Microcode::PostForeshadow);
    let router = Arc::new(ClusterRouter::new(4242, 96));
    for g in 0..GROUPS {
        let set: Vec<_> = (0..REPLICAS)
            .map(|r| {
                let (server, counter) = fresh_shard(&platform, g * 10 + r);
                (server, Some(counter))
            })
            .collect();
        router
            .add_replicated_shard(ShardId(g), set, 2)
            .expect("replicated shard");
    }
    let names: Vec<String> = (0..POLICIES).map(|i| format!("rep-{i}")).collect();
    for name in &names {
        router
            .handle(TmsRequest::CreatePolicy {
                owner: owner(),
                policy: Box::new(versioned_policy(name, 1)),
                approval: None,
                votes: Vec::new(),
            })
            .unwrap();
    }

    let stop = Arc::new(AtomicBool::new(false));
    let acked: Arc<Vec<AtomicU64>> = Arc::new((0..POLICIES).map(|_| AtomicU64::new(1)).collect());
    std::thread::scope(|scope| {
        // Writers keep mutating throughout the drain.
        for w in 0..2 {
            let router = Arc::clone(&router);
            let stop = Arc::clone(&stop);
            let acked = Arc::clone(&acked);
            let names = names.clone();
            scope.spawn(move || {
                let mut version = 1u64;
                let mut i = w; // the two writers interleave over policies
                while !stop.load(Ordering::Relaxed) {
                    version += 1;
                    router
                        .handle(TmsRequest::UpdatePolicy {
                            client: owner(),
                            policy: Box::new(versioned_policy(&names[i], version)),
                            approval: None,
                            votes: Vec::new(),
                        })
                        .unwrap();
                    acked[i].fetch_max(version, Ordering::AcqRel);
                    i = (i + 2) % POLICIES;
                }
            });
        }
        // Readers assert no miss / no stale read mid-drain.
        let reader_router = Arc::clone(&router);
        let reader_stop = Arc::clone(&stop);
        let reader_acked = Arc::clone(&acked);
        let reader_names = names.clone();
        scope.spawn(move || {
            while !reader_stop.load(Ordering::Relaxed) {
                for (i, name) in reader_names.iter().enumerate() {
                    let floor = reader_acked[i].load(Ordering::Acquire);
                    let version = read_version(&reader_router, name);
                    assert!(
                        version >= floor,
                        "stale read of '{name}' mid-drain: v{version} < acked v{floor}"
                    );
                }
            }
        });

        std::thread::sleep(Duration::from_millis(30));
        let plan = router.drain_shard(ShardId(1)).expect("drain mid-mutation");
        assert_eq!(plan.removed, Some(ShardId(1)));
        std::thread::sleep(Duration::from_millis(30));
        stop.store(true, Ordering::Relaxed);
    });

    // No divergence: within every surviving group — once what the last
    // acks left on its way to the slower follower has landed — every
    // in-quorum replica exports byte-identical records for every policy
    // it owns.
    assert_eq!(router.shard_count(), 2);
    for id in router.shard_ids() {
        assert!(router.flush_replication(id));
    }
    for (i, name) in names.iter().enumerate() {
        let home = router.shard_for_policy(name).unwrap();
        assert_ne!(home, ShardId(1));
        let status = router.replica_status(home).unwrap();
        let engines = router.replica_engines(home);
        let reference = engines[status.primary].export_policy_records(name);
        assert!(!reference.is_empty(), "'{name}' lost by the drain");
        for replica in &status.replicas {
            if replica.in_quorum {
                assert_eq!(
                    engines[replica.replica].export_policy_records(name),
                    reference,
                    "{home} replica #{} diverged on '{name}'",
                    replica.replica
                );
            }
        }
        assert_eq!(
            read_version(&router, name),
            acked[i].load(Ordering::Acquire),
            "'{name}' must serve its last acked version"
        );
    }
    // The drain never cost a replica its quorum membership.
    for id in router.shard_ids() {
        let status = router.replica_status(id).unwrap();
        assert!(
            status.replicas.iter().all(|r| r.in_quorum),
            "{id}: migration imports must not demote replicas"
        );
    }
}

/// Aggregated stats stay coherent across shards: totals equal the sums of
/// the per-shard figures and every mutation is covered by exactly one
/// shard's counter.
#[test]
fn cluster_stats_aggregate_per_shard_counters() {
    let platform = Platform::new("it-host", Microcode::PostForeshadow);
    let router = cluster(4, &platform);
    for i in 0..20 {
        router
            .handle(TmsRequest::CreatePolicy {
                owner: owner(),
                policy: Box::new(versioned_policy(&format!("agg-{i}"), 1)),
                approval: None,
                votes: Vec::new(),
            })
            .unwrap();
    }
    let stats = router.stats();
    assert_eq!(stats.total_policies(), 20);
    assert_eq!(stats.total_ops_committed(), 20);
    assert!(stats.total_increments() > 0);
    assert!(stats.total_increments() <= stats.total_ops_committed());
    for shard in &stats.shards {
        let counter = shard.server.counter.expect("strict shards");
        assert_eq!(
            counter.ops_committed, shard.policies as u64,
            "{}: counter ops must match its own policies",
            shard.id
        );
    }
    // The Display rendering names every shard (used by examples/ops).
    let rendered = format!("{stats}");
    for shard in &stats.shards {
        assert!(rendered.contains(&shard.id.to_string()));
    }
}
