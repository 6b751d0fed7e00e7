//! Failover integration suite, driven by the deterministic fault injector.
//!
//! Every scenario here names its fault by an exact (shard, operation)
//! coordinate through a [`FaultPlan`], so each run exercises the same
//! interleaving:
//!
//! * the acceptance bar — with R=3 and write-quorum 2, quarantining any
//!   single primary under live traffic loses **zero quorum-acked writes**
//!   and keeps every policy readable;
//! * crash-before-forward loses exactly the one un-acked write, nothing
//!   acked;
//! * crash-after-quorum preserves the acked write across the failover;
//! * a dropped forward demotes the follower from the quorum until it
//!   catches up, and the election never seats it while it lags;
//! * a counter-rollback victim is quarantined by the health monitor and
//!   never elected primary;
//! * a killed primary (its server stops answering) is quarantined by the
//!   health probe and replaced;
//! * a replacement replica added mid-life catches up and can take over.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use palaemon::cluster::{
    kill_server_at, strict_shard, ClusterError, ClusterRouter, FaultKind, FaultPlan, PlannedFault,
    ReadPreference, ShardId,
};
use palaemon::core::counterfile::{BatchedCounter, MemFileCounter};
use palaemon::core::policy::Policy;
use palaemon::core::server::{FaultHook, TmsRequest, TmsResponse, TmsServer};
use palaemon::core::tms::{Palaemon, SessionId};
use palaemon::crypto::aead::AeadKey;
use palaemon::crypto::sig::{SigningKey, VerifyingKey};
use palaemon::crypto::Digest;
use palaemon::db::Db;
use palaemon::shielded_fs::store::MemStore;
use palaemon::tee_sim::platform::{Microcode, Platform};
use palaemon::tee_sim::quote::{create_report, quote_report};
use palaemon::telemetry::EventKind;

const MRE: [u8; 32] = [0x9C; 32];

fn owner() -> VerifyingKey {
    SigningKey::from_seed(b"failover-owner").verifying_key()
}

fn versioned_policy(name: &str, version: u64) -> Policy {
    Policy::parse(&format!(
        "name: {name}\nservices:\n  - name: app\n    mrenclaves: [\"{}\"]\n    \
         volumes: [\"data\"]\n    env:\n      VERSION: \"{version}\"\nvolumes:\n  - name: data\n",
        Digest::from_bytes(MRE).to_hex()
    ))
    .unwrap()
}

fn replica(
    platform: &Platform,
    tag: u32,
    hook: Option<FaultHook>,
) -> (TmsServer, Arc<BatchedCounter>) {
    let db = Db::create(
        Box::new(MemStore::new()),
        AeadKey::from_bytes([tag as u8; 32]),
    )
    .expect("create db");
    let engine = Arc::new(Palaemon::new(
        db,
        SigningKey::from_seed(format!("fo-replica-{tag}").as_bytes()),
        Digest::ZERO,
        51 + u64::from(tag),
    ));
    engine.register_platform(platform.id(), platform.qe_verifying_key());
    let (server, counter) = strict_shard(engine, MemFileCounter::new());
    let server = match hook {
        Some(hook) => server.with_fault_hook(hook),
        None => server,
    };
    (server, counter)
}

/// A cluster of `groups` shards, each an R=`replicas` group with
/// write-quorum `quorum`.
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

fn attest(router: &ClusterRouter, platform: &Platform, policy: &str) -> SessionId {
    let binding = [0u8; 64];
    let report = create_report(platform, Digest::from_bytes(MRE), binding);
    let quote = quote_report(platform, &report).unwrap();
    match router
        .handle(TmsRequest::AttestService {
            quote: Box::new(quote),
            tls_key_binding: binding,
            policy_name: policy.into(),
            service_name: "app".into(),
        })
        .unwrap()
    {
        TmsResponse::Config(config) => config.session,
        other => panic!("expected Config, got {other:?}"),
    }
}

/// The acceptance bar. R=3, write-quorum 2, two replica groups, live
/// writer + reader traffic. The main thread quarantines the primary of
/// *every* shard mid-traffic. No read may miss, no read may observe a
/// version older than the last acknowledged one, and after the dust
/// settles every policy serves its last acked version. Runs under both
/// read placements (primary-only, and quorum reads fanned across the
/// freshness-checked followers).
fn chaos_under_live_traffic(preference: ReadPreference) {
    const POLICIES: usize = 12;
    const READERS: usize = 3;

    let platform = Platform::new("fo-host", Microcode::PostForeshadow);
    let router = Arc::new(replicated_cluster(&platform, 2, 3, 2));
    router.set_read_preference(preference);
    let names: Vec<String> = (0..POLICIES).map(|i| format!("ha-{i}")).collect();
    for name in &names {
        create(&router, name, 1);
    }

    let stop = Arc::new(AtomicBool::new(false));
    // acked[i]: highest version of policy i whose update was acknowledged.
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
                    // A failed update (e.g. the shard mid-failover) is
                    // simply not acknowledged — the invariant only covers
                    // acked writes.
                    if update(&router, &names[i], version).is_ok() {
                        acked[i].store(version, Ordering::Release);
                    }
                    i = (i + 1) % POLICIES;
                }
            });
        }
        for _ in 0..READERS {
            let router = Arc::clone(&router);
            let stop = Arc::clone(&stop);
            let acked = Arc::clone(&acked);
            let names = names.clone();
            scope.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    for (i, name) in names.iter().enumerate() {
                        let floor = acked[i].load(Ordering::Acquire);
                        let version = read_version(&router, name);
                        assert!(
                            version >= floor,
                            "stale read of '{name}': saw v{version}, acked v{floor}"
                        );
                    }
                }
            });
        }

        // Fail over every shard while the traffic runs.
        for id in [ShardId(0), ShardId(1)] {
            std::thread::sleep(Duration::from_millis(30));
            assert!(router.quarantine(id, "chaos: primary pulled").is_some());
            let status = router.replica_status(id).unwrap();
            assert!(status.failovers >= 1, "{id} must have failed over");
            assert!(
                !status.replicas[status.primary].quarantined,
                "{id}: elected primary must be live"
            );
        }
        std::thread::sleep(Duration::from_millis(30));
        stop.store(true, Ordering::Relaxed);
    });

    // Every policy still readable at (at least) its last acked version,
    // despite every original primary being gone.
    for (i, name) in names.iter().enumerate() {
        assert!(read_version(router.as_ref(), name) >= acked[i].load(Ordering::Acquire));
    }
    let stats = router.stats();
    for shard in &stats.shards {
        assert!(
            shard.healthy,
            "{}: group must survive its failover",
            shard.id
        );
        assert_eq!(shard.replicas, 3);
        assert!(shard.failovers >= 1);
        // The steady-state forward path must have run incrementally.
        assert!(shard.replication.incremental_deltas > 0);
        if preference == ReadPreference::Quorum {
            assert!(
                shard.replication.reads_follower > 0,
                "{}: quorum mode must spread reads onto followers",
                shard.id
            );
        }
    }
}

#[test]
fn quarantining_any_primary_under_live_traffic_loses_no_acked_writes() {
    chaos_under_live_traffic(ReadPreference::Primary);
}

/// Same chaos, but every read fans out across the quorum: the freshness
/// check (follower token vs. group watermark) must keep the "never older
/// than acked" bar even while primaries are being pulled.
#[test]
fn quorum_reads_lose_no_acked_writes_under_chaos() {
    chaos_under_live_traffic(ReadPreference::Quorum);
}

/// An incremental delta lost on the wire *without the router noticing*
/// (no demotion — unlike a dropped forward) leaves a gap in the victim's
/// chain. The next forward must surface it and heal with a snapshot
/// resync; at no point may the group silently diverge, and the victim can
/// still be elected after the resync equalizes it.
#[test]
fn lost_incremental_heals_by_snapshot_resync_never_diverges() {
    let platform = Platform::new("fo-host", Microcode::PostForeshadow);
    let router = replicated_cluster(&platform, 1, 3, 2);
    let id = ShardId(0);
    let plan = FaultPlan::new([PlannedFault {
        shard: id,
        op: 2,
        kind: FaultKind::LoseIncremental(2),
    }]);
    router.set_fault_plan(Arc::clone(&plan));

    create(&router, "li", 1); // op 1: everyone at v1
    update(&router, "li", 2).unwrap(); // op 2: follower 2's copy is lost silently
    assert!(plan.all_fired());
    let status = router.replica_status(id).unwrap();
    assert!(
        status.replicas[2].in_quorum,
        "a silent wire loss must not demote (the router never saw it fail)"
    );
    assert!(
        status.replicas[2].applied < status.replicas[1].applied,
        "the gap must show in the freshness tokens"
    );

    // Op 3: follower 2 rejects the out-of-sequence incremental (its chain
    // is at v1, the delta chains from v2) and is resynced with a snapshot.
    update(&router, "li", 3).unwrap();
    // The ack was follower 1's; let follower 2's delivery land as well.
    assert!(router.flush_replication(id));
    let repl = router.stats().shards[0].replication;
    assert!(repl.sequence_rejections >= 1, "{repl:?}");
    assert_eq!(repl.snapshot_resyncs, 1, "{repl:?}");

    // No divergence anywhere: every replica holds identical records.
    let engines = router.replica_engines(id);
    let reference = engines[0].export_policy_records("li");
    for engine in &engines[1..] {
        assert_eq!(engine.export_policy_records("li"), reference);
    }
    let status = router.replica_status(id).unwrap();
    assert_eq!(status.replicas[2].applied, status.replicas[1].applied);

    // The healed follower is a first-class election candidate again.
    assert!(router.quarantine(id, "chaos 1").is_some());
    assert!(router.quarantine(id, "chaos 2").is_some());
    assert_eq!(router.replica_status(id).unwrap().primary, 2);
    assert_eq!(read_version(&router, "li"), 3);
}

/// A reordered incremental — delivered to one follower *after* its
/// successor — must be rejected by the chain check on both ends: the
/// successor triggers a snapshot resync, and the late stale delta must
/// never overwrite the newer state it arrives on top of.
#[test]
fn reordered_incremental_is_rejected_and_never_rolls_back() {
    let platform = Platform::new("fo-host", Microcode::PostForeshadow);
    let router = replicated_cluster(&platform, 1, 3, 2);
    let id = ShardId(0);
    let plan = FaultPlan::new([PlannedFault {
        shard: id,
        op: 2,
        kind: FaultKind::ReorderIncremental(2),
    }]);
    router.set_fault_plan(Arc::clone(&plan));

    create(&router, "ri", 1); // op 1
    update(&router, "ri", 2).unwrap(); // op 2: v2's delta is held back for follower 2
    assert!(plan.all_fired());
    assert!(
        router.replica_status(id).unwrap().replicas[2].applied
            < router.replica_status(id).unwrap().replicas[1].applied
    );

    // Op 3 reaches follower 2 *before* the held v2 delta: the v3 delta is
    // out of sequence (snapshot resync to v3), and the stale v2 delta then
    // arrives late — it must be rejected, not roll the follower back.
    update(&router, "ri", 3).unwrap();
    // The ack was follower 1's; let both of follower 2's deliveries land.
    assert!(router.flush_replication(id));
    let repl = router.stats().shards[0].replication;
    assert_eq!(repl.snapshot_resyncs, 1, "{repl:?}");
    assert!(
        repl.sequence_rejections >= 2,
        "both the out-of-order successor and the stale straggler must be \
         rejected by the chain check: {repl:?}"
    );
    let engines = router.replica_engines(id);
    let reference = engines[0].export_policy_records("ri");
    for engine in &engines[1..] {
        assert_eq!(engine.export_policy_records("ri"), reference);
    }

    // Elect the reorder victim: it must serve v3, not the stale v2.
    assert!(router.quarantine(id, "chaos 1").is_some());
    assert!(router.quarantine(id, "chaos 2").is_some());
    assert_eq!(router.replica_status(id).unwrap().primary, 2);
    assert_eq!(read_version(&router, "ri"), 3);
    // After repairing the others, writes flow again through the victim.
    assert!(router.reinstate(id));
    update(&router, "ri", 4).unwrap();
    assert_eq!(read_version(&router, "ri"), 4);
}

/// Regression: deleting a policy leaves its entry in the group's delta
/// chain, but a follower caught up *after* the delete holds nothing for
/// that policy — which IS the current state. The dead entry must not fail
/// the follower's chain-completeness (its election fitness) forever.
#[test]
fn deleted_policy_does_not_block_failover_after_catch_up() {
    let platform = Platform::new("fo-host", Microcode::PostForeshadow);
    let router = replicated_cluster(&platform, 1, 3, 2);
    let id = ShardId(0);
    create(&router, "dead", 1); // op 1
    create(&router, "alive", 1); // op 2
    router
        .handle(TmsRequest::DeletePolicy {
            name: "dead".into(),
            client: owner(),
            approval: None,
            votes: Vec::new(),
        })
        .unwrap(); // op 3: chain keeps an entry for "dead"

    // Demote follower 2, then reinstate it: catch-up resets its cursors
    // and re-seeds from the live snapshot — which no longer contains
    // "dead".
    let plan = FaultPlan::new([PlannedFault {
        shard: id,
        op: 4,
        kind: FaultKind::DropForwardToReplica(2),
    }]);
    router.set_fault_plan(Arc::clone(&plan));
    update(&router, "alive", 2).unwrap(); // op 4
    assert!(!router.replica_status(id).unwrap().replicas[2].in_quorum);
    assert!(router.reinstate(id));

    // The caught-up follower must be a first-class election candidate:
    // pull the other two replicas and it has to take the seat (before the
    // fix the dead chain entry made it chain-incomplete and the group
    // went dark instead).
    assert!(router.quarantine(id, "chaos 1").is_some());
    assert!(router.quarantine(id, "chaos 2").is_some());
    let status = router.replica_status(id).unwrap();
    assert_eq!(status.primary, 2, "caught-up follower must be electable");
    assert!(
        !status.replicas[2].quarantined,
        "the group must not go dark while a synced follower survives"
    );
    assert_eq!(read_version(&router, "alive"), 2);
}

/// Crash-after-quorum: the write was acknowledged, so the failover must
/// preserve it — the elected follower already holds the delta.
#[test]
fn crash_after_quorum_preserves_the_acked_write() {
    let platform = Platform::new("fo-host", Microcode::PostForeshadow);
    let router = replicated_cluster(&platform, 1, 3, 2);
    let id = ShardId(0);
    let plan = FaultPlan::new([PlannedFault {
        shard: id,
        op: 3,
        kind: FaultKind::CrashAfterQuorum,
    }]);
    router.set_fault_plan(Arc::clone(&plan));

    create(&router, "aq", 1); // op 1
    update(&router, "aq", 2).unwrap(); // op 2
    update(&router, "aq", 3).unwrap(); // op 3: acked, then primary dies
    assert!(plan.all_fired());

    let status = router.replica_status(id).unwrap();
    assert_eq!(status.failovers, 1);
    assert_ne!(status.primary, 0, "a follower must hold the seat");
    assert_eq!(read_version(&router, "aq"), 3, "acked write must survive");
    // The group keeps accepting (and replicating) writes.
    update(&router, "aq", 4).unwrap(); // op 4, on the new primary
    assert_eq!(read_version(&router, "aq"), 4);
    assert_eq!(router.replica_status(id).unwrap().ops, 4);
}

/// Crash-before-forward: the write reached only the dying primary and was
/// never acknowledged — the failover may lose it, and nothing else.
#[test]
fn crash_before_forward_loses_exactly_the_unacked_write() {
    let platform = Platform::new("fo-host", Microcode::PostForeshadow);
    let router = replicated_cluster(&platform, 1, 3, 2);
    let id = ShardId(0);
    let plan = FaultPlan::new([PlannedFault {
        shard: id,
        op: 3,
        kind: FaultKind::CrashBeforeForward,
    }]);
    router.set_fault_plan(Arc::clone(&plan));

    create(&router, "bf", 1); // op 1
    update(&router, "bf", 2).unwrap(); // op 2: acked
                                       // Op 3: applied on the primary, which crashes before any forward —
                                       // the client sees a failure, i.e. no acknowledgement.
    assert!(matches!(
        update(&router, "bf", 3),
        Err(ClusterError::ShardUnavailable(s)) if s == id
    ));
    assert!(plan.all_fired());

    // The un-acked v3 is gone; the acked v2 serves from the new primary.
    assert_eq!(router.replica_status(id).unwrap().failovers, 1);
    assert_eq!(read_version(&router, "bf"), 2);
    update(&router, "bf", 4).unwrap();
    assert_eq!(read_version(&router, "bf"), 4);
}

/// A dropped forward (partitioned link) demotes the follower: it stops
/// counting toward the quorum, the election never seats it while it lags,
/// and `reinstate` catches it up before it rejoins.
#[test]
fn dropped_forward_demotes_the_follower_until_catch_up() {
    let platform = Platform::new("fo-host", Microcode::PostForeshadow);
    let router = replicated_cluster(&platform, 1, 3, 2);
    let id = ShardId(0);
    let plan = FaultPlan::new([PlannedFault {
        shard: id,
        op: 2,
        kind: FaultKind::DropForwardToReplica(2),
    }]);
    router.set_fault_plan(Arc::clone(&plan));

    create(&router, "dp", 1); // op 1: everyone has v1
    update(&router, "dp", 2).unwrap(); // op 2: replica 2 misses v2
    assert!(plan.all_fired());
    let status = router.replica_status(id).unwrap();
    assert!(!status.replicas[2].in_quorum, "lagging replica must demote");
    assert!(status.replicas[1].in_quorum);
    assert!(
        status.replicas[2].applied < status.replicas[1].applied,
        "the miss must show in the freshness tokens"
    );

    update(&router, "dp", 3).unwrap(); // op 3: only replica 1 mirrors

    // Primary dies: the election must seat replica 1 (freshest in-quorum),
    // never the lagging replica 2.
    assert!(router.quarantine(id, "chaos").is_some());
    let status = router.replica_status(id).unwrap();
    assert_eq!(status.primary, 1);
    assert_eq!(read_version(&router, "dp"), 3, "acked writes survive");

    // Reinstate: replica 2 (and the crashed ex-primary) catch up over the
    // warm-copy path and rejoin the quorum with identical records.
    assert!(router.reinstate(id));
    let status = router.replica_status(id).unwrap();
    assert!(status
        .replicas
        .iter()
        .all(|r| r.in_quorum && !r.quarantined));
    let engines = router.replica_engines(id);
    let reference = engines[status.primary].export_policy_records("dp");
    for engine in &engines {
        assert_eq!(engine.export_policy_records("dp"), reference);
    }
    update(&router, "dp", 4).unwrap();
    assert_eq!(read_version(&router, "dp"), 4);
}

/// Catch-up is cursor-bounded: reinstating a follower that missed the
/// forward for exactly one of four policies ships that one policy over
/// the warm-copy path and *skips* the three whose chain cursor and
/// record digest already match — and a fully in-sync ex-primary
/// re-enters after a failover drill with zero warm-copy bytes.
#[test]
fn reinstate_ships_only_the_diverged_policies() {
    let platform = Platform::new("fo-host", Microcode::PostForeshadow);
    let router = replicated_cluster(&platform, 1, 3, 2);
    let id = ShardId(0);
    let policies = ["cb-a", "cb-b", "cb-c", "cb-d"];
    for name in policies {
        create(&router, name, 1); // ops 1..=4: everyone holds all four
    }
    // Replica 2 misses the forward of exactly one policy's update.
    let plan = FaultPlan::new([PlannedFault {
        shard: id,
        op: 5,
        kind: FaultKind::DropForwardToReplica(2),
    }]);
    router.set_fault_plan(Arc::clone(&plan));
    update(&router, "cb-b", 2).unwrap(); // op 5
    assert!(plan.all_fired());
    let status = router.replica_status(id).unwrap();
    assert!(!status.replicas[2].in_quorum, "lagging replica must demote");

    let before = router.stats().shards[0].replication;
    assert!(router.reinstate(id));
    let after = router.stats().shards[0].replication;
    assert_eq!(
        after.catchup_policies_shipped - before.catchup_policies_shipped,
        1,
        "only the diverged policy rides the warm-copy path"
    );
    assert_eq!(
        after.catchup_policies_skipped - before.catchup_policies_skipped,
        3,
        "the three in-sync policies are skipped by cursor + digest"
    );
    assert!(
        after.catchup_bytes > before.catchup_bytes,
        "the shipped snapshot has wire weight"
    );
    // The flight recorder carries the same accounting.
    let events = router.telemetry().flight().events();
    assert!(
        events.iter().any(|e| matches!(
            e.kind,
            EventKind::CatchUp {
                replica: 2,
                shipped: 1,
                skipped: 3,
                ..
            }
        )),
        "catch_up event missing: {:?}",
        events.iter().map(|e| e.kind.name()).collect::<Vec<_>>()
    );
    // And the skip was sound: every replica converged on the update.
    let engines = router.replica_engines(id);
    for name in policies {
        let reference = engines[0].export_policy_records(name);
        for engine in &engines[1..] {
            assert_eq!(engine.export_policy_records(name), reference);
        }
    }
    assert_eq!(read_version(&router, "cb-b"), 2);

    // A failover drill deposes the (fully in-sync) primary; its
    // re-admission must ship nothing at all.
    assert!(router.quarantine(id, "drill").is_some());
    let before = router.stats().shards[0].replication;
    assert!(router.reinstate(id));
    let after = router.stats().shards[0].replication;
    assert_eq!(
        after.catchup_policies_shipped, before.catchup_policies_shipped,
        "an in-sync ex-primary re-enters with zero warm-copy policies"
    );
    assert_eq!(
        after.catchup_bytes, before.catchup_bytes,
        "an in-sync ex-primary re-enters with zero warm-copy bytes"
    );
    assert_eq!(
        after.catchup_policies_skipped - before.catchup_policies_skipped,
        4,
        "all four policies verified in place"
    );
    update(&router, "cb-d", 2).unwrap();
    assert_eq!(read_version(&router, "cb-d"), 2, "group stays writable");
}

/// A rolled-back replica (its counter token regressed — the Fig. 6 attack
/// signature) is quarantined by the health monitor and can never win the
/// failover election while a fresher replica survives.
#[test]
fn rolled_back_replica_is_never_elected_primary() {
    let platform = Platform::new("fo-host", Microcode::PostForeshadow);
    let router = replicated_cluster(&platform, 1, 3, 2);
    let id = ShardId(0);

    create(&router, "rb", 1); // op 1
    assert!(router.flush_replication(id)); // landed on both followers
    assert!(router.health_check()[0].healthy); // watches armed
    let plan = FaultPlan::new([PlannedFault {
        shard: id,
        op: 2,
        kind: FaultKind::CounterRollback { replica: 2, to: 0 },
    }]);
    router.set_fault_plan(Arc::clone(&plan));
    update(&router, "rb", 2).unwrap(); // op 2: replica 2 rolls back
    assert!(plan.all_fired());

    // Even before the monitor notices, a failover skips the rolled-back
    // replica: its token (0) loses the freshness election.
    let status = router.replica_status(id).unwrap();
    assert_eq!(status.replicas[2].applied, 0);
    assert!(status.replicas[1].applied > 0);

    // The health monitor sees the regression and quarantines replica 2.
    let health = router.health_check();
    assert!(health[0].healthy, "the group itself stays routable");
    assert!(!health[0].replicas[2].healthy);
    assert!(health[0].replicas[2]
        .reason
        .as_ref()
        .unwrap()
        .contains("regressed"));

    // Primary crash: the seat must go to replica 1, never to the
    // rolled-back replica 2.
    assert!(router.quarantine(id, "chaos").is_some());
    let status = router.replica_status(id).unwrap();
    assert_eq!(status.primary, 1, "rolled-back replica must never win");
    assert_eq!(read_version(&router, "rb"), 2);
}

/// A killed primary — its server stops answering requests entirely — is
/// caught by the health probe and replaced by a follower.
#[test]
fn killed_primary_is_quarantined_by_probe_and_replaced() {
    let platform = Platform::new("fo-host", Microcode::PostForeshadow);
    let router = ClusterRouter::new(7007, 96);
    let id = ShardId(0);
    // The primary's server dies at its 4th handled request.
    let mut set = vec![{
        let (server, counter) = replica(&platform, 0, Some(kill_server_at(4)));
        (server, Some(counter))
    }];
    for r in 1..3u32 {
        let (server, counter) = replica(&platform, r, None);
        set.push((server, Some(counter)));
    }
    router.add_replicated_shard(id, set, 2).unwrap();

    create(&router, "kp", 1); // request 1
    update(&router, "kp", 2).unwrap(); // request 2
    update(&router, "kp", 3).unwrap(); // request 3 — the last one served
    let dead = update(&router, "kp", 4); // request 4: the server is dead
    assert!(matches!(dead, Err(ClusterError::Engine(_))));

    // The health probe fails against the dead server; the monitor
    // quarantines it and the group fails over.
    let health = router.health_check();
    assert!(health[0].healthy, "failover must keep the group routable");
    assert!(!health[0].replicas[0].healthy);
    assert!(health[0].replicas[0]
        .reason
        .as_ref()
        .unwrap()
        .contains("probe failed"));
    let status = router.replica_status(id).unwrap();
    assert_ne!(status.primary, 0);
    assert_eq!(read_version(&router, "kp"), 3);
    update(&router, "kp", 5).unwrap();
    assert_eq!(read_version(&router, "kp"), 5);
}

/// A replacement replica added to a running group catches up through the
/// warm-copy path (policies *and* sessions) and can later take the seat.
#[test]
fn replacement_replica_catches_up_and_takes_over() {
    let platform = Platform::new("fo-host", Microcode::PostForeshadow);
    let router = replicated_cluster(&platform, 1, 2, 2);
    let id = ShardId(0);

    create(&router, "rr", 1);
    let session = attest(&router, &platform, "rr");
    router
        .handle(TmsRequest::PushTag {
            session,
            volume: "data".into(),
            tag: Digest::from_bytes([0x42; 32]),
            event: palaemon::shielded_fs::fs::TagEvent::Sync,
        })
        .unwrap();
    update(&router, "rr", 2).unwrap();

    // The replacement joins and is immediately a full quorum member.
    let (server, counter) = replica(&platform, 9, None);
    let idx = router.add_replica(id, server, Some(counter)).unwrap();
    assert_eq!(idx, 2);
    let status = router.replica_status(id).unwrap();
    assert_eq!(status.replicas.len(), 3);
    assert!(status.replicas[2].in_quorum);
    assert_eq!(
        status.replicas[2].applied, status.replicas[0].applied,
        "catch-up must equalize the freshness tokens"
    );

    // Kill both original replicas, one after the other: the replacement
    // ends up primary with every acked write and the mirrored session.
    update(&router, "rr", 3).unwrap();
    assert!(router.quarantine(id, "chaos 1").is_some());
    assert!(router.quarantine(id, "chaos 2").is_some());
    let status = router.replica_status(id).unwrap();
    assert_eq!(status.primary, 2, "the replacement must hold the seat");
    assert_eq!(read_version(&router, "rr"), 3);
    match router
        .handle(TmsRequest::ReadTag {
            session,
            volume: "data".into(),
        })
        .unwrap()
    {
        TmsResponse::Tag(Some(rec)) => assert_eq!(rec.tag, Digest::from_bytes([0x42; 32])),
        other => panic!("expected the mirrored tag, got {other:?}"),
    }
}

/// When every replica of a group is gone, the group goes dark (refuses)
/// rather than serving stale state; `reinstate` seats the freshest
/// replica and resyncs the rest.
#[test]
fn total_group_loss_refuses_until_reinstated() {
    let platform = Platform::new("fo-host", Microcode::PostForeshadow);
    let router = replicated_cluster(&platform, 1, 3, 2);
    let id = ShardId(0);
    create(&router, "tg", 1);
    update(&router, "tg", 2).unwrap();
    for _ in 0..3 {
        assert!(router.quarantine(id, "cascading failure").is_some());
    }
    assert!(!router.replica_status(id).unwrap().replicas.is_empty());
    assert!(matches!(
        router.handle(TmsRequest::ReadPolicy {
            name: "tg".into(),
            client: owner(),
            approval: None,
            votes: Vec::new(),
        }),
        Err(ClusterError::ShardUnavailable(s)) if s == id
    ));
    assert!(!router.health_check()[0].healthy);

    assert!(router.reinstate(id));
    assert!(router.health_check()[0].healthy);
    assert_eq!(read_version(&router, "tg"), 2);
    update(&router, "tg", 3).unwrap();
    assert_eq!(read_version(&router, "tg"), 3);
    let status = router.replica_status(id).unwrap();
    assert!(status.replicas.iter().all(|r| r.in_quorum));
}

/// Losing the write quorum (too few live followers) fails the mutation
/// with `QuorumLost` — it is not silently acknowledged.
#[test]
fn missing_write_quorum_fails_the_mutation() {
    let platform = Platform::new("fo-host", Microcode::PostForeshadow);
    let router = replicated_cluster(&platform, 1, 3, 3);
    let id = ShardId(0);
    create(&router, "wq", 1); // all 3 ack
    let plan = FaultPlan::new([PlannedFault {
        shard: id,
        op: 2,
        kind: FaultKind::DropForwardToReplica(2),
    }]);
    router.set_fault_plan(Arc::clone(&plan));
    assert!(matches!(
        update(&router, "wq", 2),
        Err(ClusterError::QuorumLost {
            shard,
            acked: 2,
            needed: 3,
        }) if shard == id
    ));
    // Reinstate resyncs the demoted follower; quorum writes work again.
    assert!(router.reinstate(id));
    update(&router, "wq", 3).unwrap();
    assert_eq!(read_version(&router, "wq"), 3);
}

/// A board-approval round opened on one primary completes on its
/// successor: the round (nonce + approval tuple) is mirrored alongside
/// the session table, so quarantining the issuing primary mid-round no
/// longer strands the in-flight approval.
#[test]
fn approval_round_completes_on_the_successor_after_failover() {
    use palaemon::core::board::{PolicyAction, Stakeholder};

    let platform = Platform::new("fo-host", Microcode::PostForeshadow);
    let router = replicated_cluster(&platform, 1, 3, 2);
    let id = ShardId(0);
    let alice = Stakeholder::from_seed("alice", b"fo-board-a");
    let bob = Stakeholder::from_seed("bob", b"fo-board-b");
    let policy_text = format!(
        "name: board-ha\nservices:\n  - name: app\n    mrenclaves: [\"{}\"]\n\
         board:\n  threshold: 2\n  members:\n    - id: alice\n      key: {}\n    \
         - id: bob\n      key: {}\n",
        Digest::from_bytes(MRE).to_hex(),
        alice.verifying_key().to_u64(),
        bob.verifying_key().to_u64(),
    );
    let policy = Policy::parse(&policy_text).unwrap();
    let begin = |action| match router
        .handle(TmsRequest::BeginApproval {
            policy_name: "board-ha".into(),
            action,
            policy_digest: policy.digest(),
        })
        .unwrap()
    {
        TmsResponse::Approval(approval) => approval,
        other => panic!("expected Approval, got {other:?}"),
    };
    let create_round = begin(PolicyAction::Create);
    router
        .handle(TmsRequest::CreatePolicy {
            owner: owner(),
            policy: Box::new(policy.clone()),
            approval: Some(create_round.clone()),
            votes: vec![
                alice.vote(&create_round, true),
                bob.vote(&create_round, true),
            ],
        })
        .unwrap();

    // Open an update round on the current primary, then kill that
    // primary before any vote lands.
    let round = begin(PolicyAction::Update);
    let before = router.replica_status(id).unwrap();
    assert!(router.quarantine(id, "power cut mid-round").is_some());
    let after = router.replica_status(id).unwrap();
    assert_ne!(after.primary, before.primary, "a follower must take over");

    // Both stakeholders vote against the successor; the round completes.
    router
        .handle(TmsRequest::UpdatePolicy {
            client: owner(),
            policy: Box::new(policy.clone()),
            approval: Some(round.clone()),
            votes: vec![alice.vote(&round, true), bob.vote(&round, true)],
        })
        .unwrap();

    // The spent nonce is gone group-wide (live replicas) and a replay is
    // refused; a fresh round gets a strictly newer nonce.
    let replay = router.handle(TmsRequest::UpdatePolicy {
        client: owner(),
        policy: Box::new(policy.clone()),
        approval: Some(round.clone()),
        votes: vec![alice.vote(&round, true), bob.vote(&round, true)],
    });
    assert!(replay.is_err(), "spent nonce must not be replayable");
    let fresh = begin(PolicyAction::Delete);
    assert!(
        fresh.nonce > round.nonce,
        "the successor re-issued a mirrored nonce"
    );
}

/// Spins (no sleeping) until `cond` holds; the cap only turns a hang into
/// a failure.
fn wait_for(cond: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "condition never held");
        std::thread::yield_now();
    }
}

/// Schedules a wedge of both follower channels of shard 0 at its next
/// replicated mutation.
fn stall_both_followers(router: &ClusterRouter) -> Arc<FaultPlan> {
    let id = ShardId(0);
    // Start from empty channels: the set-up's acks were the quorum's, and
    // a straggler's leftover delta would count into the depths below.
    assert!(router.flush_replication(id));
    let op = router.replica_status(id).unwrap().ops + 1;
    let plan = FaultPlan::new([1, 2].map(|k| PlannedFault {
        shard: id,
        op,
        kind: FaultKind::StallForwardChannel(k),
    }));
    router.set_fault_plan(Arc::clone(&plan));
    plan
}

/// Starts one update (to `version`) per policy on scoped threads, waits
/// until every one of them sits queued on both follower channels of shard
/// 0 — both wedged, so no follower can make its quorum and it is parked on
/// the ack — checks that none has returned, runs `fence`, and only then
/// joins them: each must have been released with `Ok`.
fn fence_parked_updates(
    router: &ClusterRouter,
    names: &[&str],
    version: u64,
    fence: impl FnOnce(),
) {
    std::thread::scope(|scope| {
        let updates: Vec<_> = names
            .iter()
            .map(|name| scope.spawn(move || update(router, name, version)))
            .collect();
        wait_for(|| router.stats().shards[0].queue_depths.iter().sum::<usize>() == 2 * names.len());
        assert!(
            updates.iter().all(|update| !update.is_finished()),
            "an update acked with no follower holding it"
        );
        fence();
        for update in updates {
            update
                .join()
                .unwrap()
                .expect("the fence releases a parked update with Ok");
        }
    });
}

/// Both forward channels wedged: a network stall is invisible to the
/// router, so nothing is demoted — the deltas pile up in the per-follower
/// queues with their writers parked on the ack — and the fence drain at
/// deposition delivers every one of them before the election. Zero acked
/// writes lost even though *no* forward reached any follower before the
/// primary died.
#[test]
fn stalled_forward_channels_lose_no_acked_writes_across_failover() {
    let platform = Platform::new("fo-host", Microcode::PostForeshadow);
    let router = replicated_cluster(&platform, 1, 3, 2);
    let id = ShardId(0);
    let names = ["st-0", "st-1", "st-2", "st-3", "st-4"];
    for name in names {
        create(&router, name, 1);
    }
    let plan = stall_both_followers(&router);

    fence_parked_updates(&router, &names, 2, || {
        assert!(plan.all_fired());
        // Nothing was demoted — the stall is indistinguishable from a
        // slow wire.
        let status = router.replica_status(id).unwrap();
        assert!(status.replicas.iter().all(|r| r.in_quorum));
        // Pull the primary: deposing it fences (drains) its channels, so
        // the queued updates reach the followers before the freshness
        // election — and their writers are released with `Ok`.
        assert!(router.quarantine(id, "chaos: primary pulled").is_some());
    });
    let status = router.replica_status(id).unwrap();
    assert_ne!(status.primary, 0, "a follower must hold the seat");
    for name in names {
        assert_eq!(
            read_version(&router, name),
            2,
            "every acked write must survive the stalled-channel failover"
        );
    }
    let repl = router.stats().shards[0].replication;
    assert!(repl.flushes_fence >= 1, "{repl:?}");

    // Its channels repaired, the group keeps accepting writes on the
    // successor.
    assert!(router.reinstate(id));
    update(&router, "st-0", 3).unwrap();
    assert_eq!(read_version(&router, "st-0"), 3);
}

/// A whole window lost on the wire *silently* (no demotion — the sender
/// saw it leave): the write still acks through the other follower, the
/// victim's chain now has a gap, the next delivery must surface it, and
/// the group heals with a snapshot resync. Failing over onto either
/// follower afterwards serves the acked state.
#[test]
fn dropped_batch_heals_by_snapshot_resync_and_survives_failover() {
    let platform = Platform::new("fo-host", Microcode::PostForeshadow);
    let router = replicated_cluster(&platform, 1, 3, 2);
    let id = ShardId(0);

    create(&router, "db", 1); // op 1
    assert!(router.flush_replication(id)); // on both followers
    let applied_after_create = router.replica_status(id).unwrap().replicas[1].applied;

    // Op 2's window to follower 1 vanishes on the wire.
    let plan = FaultPlan::new([PlannedFault {
        shard: id,
        op: 2,
        kind: FaultKind::DropBatch(1),
    }]);
    router.set_fault_plan(Arc::clone(&plan));
    update(&router, "db", 2).unwrap(); // op 2: acked by the primary + one follower
    assert!(plan.all_fired());

    let status = router.replica_status(id).unwrap();
    assert!(
        status.replicas[1..]
            .iter()
            .any(|r| r.applied > applied_after_create),
        "some follower's copy of v2 must land: the ack needed it"
    );
    // The doomed window leaves the queue — with follower 1's sender or with
    // this flush — before op 3 can join it.
    assert!(router.flush_replication(id));
    let status = router.replica_status(id).unwrap();
    assert!(
        status.replicas[1].in_quorum,
        "a silent batch loss must not demote (the router never saw it fail)"
    );
    assert_eq!(
        status.replicas[1].applied, applied_after_create,
        "the dropped batch must leave follower 1 behind"
    );

    // Op 3 ships normally: follower 1 rejects the out-of-sequence delta
    // (its chain is at v1, the delta chains from v2) and resyncs by
    // snapshot.
    update(&router, "db", 3).unwrap();
    // The ack was follower 2's; let follower 1's delivery land as well.
    assert!(router.flush_replication(id));
    let repl = router.stats().shards[0].replication;
    assert!(repl.sequence_rejections >= 1, "{repl:?}");
    assert_eq!(repl.snapshot_resyncs, 1, "{repl:?}");

    // No divergence anywhere; the victim is a first-class candidate.
    let engines = router.replica_engines(id);
    let reference = engines[0].export_policy_records("db");
    for engine in &engines[1..] {
        assert_eq!(engine.export_policy_records("db"), reference);
    }
    assert!(router.quarantine(id, "chaos 1").is_some());
    assert!(router.quarantine(id, "chaos 2").is_some());
    assert_eq!(router.replica_status(id).unwrap().primary, 2);
    assert_eq!(read_version(&router, "db"), 3, "acked writes must survive");
}

/// The control-plane flight recorder must capture a failover end to end:
/// deposing a primary with a backlog parked behind wedged channels leaves
/// a `FenceDrain` for the delivered backlog, an `Election` naming the
/// deposed seat, the winner and its counter token, and a `Quarantine`
/// for the pulled replica — in that order, with the election's
/// fence-drain count agreeing with the drain events.
#[test]
fn flight_recorder_captures_the_election() {
    let platform = Platform::new("fo-host", Microcode::PostForeshadow);
    let router = replicated_cluster(&platform, 1, 3, 2);
    let id = ShardId(0);
    let names = ["fr-0", "fr-1", "fr-2", "fr-3"];
    for name in names {
        create(&router, name, 1);
    }
    stall_both_followers(&router);
    // Drains before this point (the set-up's flush) are not the failover's.
    let flight = router.telemetry().flight();
    let set_up = flight.events().last().map_or(0, |e| e.seq);
    fence_parked_updates(&router, &names, 2, || {
        assert!(router.quarantine(id, "chaos: primary pulled").is_some());
    });
    let status = router.replica_status(id).unwrap();
    let winner = status.primary;
    assert_ne!(winner, 0, "a follower must hold the seat");
    for name in names {
        assert_eq!(read_version(&router, name), 2, "acked writes survive");
    }

    let events = flight.events();
    let drained: u64 = events
        .iter()
        .filter(|e| e.seq > set_up)
        .filter_map(|e| match e.kind {
            EventKind::FenceDrain {
                shard: 0,
                mutations,
                ..
            } => Some(mutations),
            _ => None,
        })
        .sum();
    assert!(drained > 0, "the fence drain must deliver the backlog");

    let election = events
        .iter()
        .find(|e| matches!(e.kind, EventKind::Election { .. }))
        .expect("the recorder must capture the election");
    let EventKind::Election {
        shard,
        deposed,
        winner: elected,
        winner_token,
        fence_drained,
    } = &election.kind
    else {
        unreachable!()
    };
    assert_eq!(*shard, 0);
    assert_eq!(*deposed, 0, "replica 0 held the seat when it was pulled");
    assert_eq!(*elected, winner, "the recorder names the seated follower");
    assert_eq!(
        *winner_token, status.replicas[winner].applied,
        "the winning token is the freshness-election counter token"
    );
    assert!(*winner_token > 0, "the winner carries real applied state");
    assert_eq!(
        *fence_drained, drained,
        "the election's drain count agrees with the FenceDrain events"
    );

    let quarantine = events
        .iter()
        .find(|e| {
            matches!(
                &e.kind,
                EventKind::Quarantine { shard: 0, replica: 0, reason }
                    if reason.contains("primary pulled")
            )
        })
        .expect("the recorder must capture the quarantine");
    assert!(
        election.seq < quarantine.seq,
        "fence + election precede the quarantine mark"
    );
}
