//! What does synchronous replication cost, and what do incremental deltas
//! and quorum reads buy back?
//!
//! Seven measurements over one replicated ring arc whose replicas each sit
//! on a database with a modelled ~150 µs durable-media flush (the same
//! scaled-latency technique as `cluster_scaling`):
//!
//! 1. **Replication overhead** — the push/update mutation mix at R=1, 2
//!    and 3 with write-quorum `min(R, 2)`. Every mutation pays its own WAL
//!    sync on the primary plus, per follower, the delta apply — the price
//!    of surviving a primary loss with zero acked writes dropped.
//! 2. **Bytes per mutation** — what the forward path ships per `PushTag`
//!    on a 50-record policy (just the changed tag row, counter-token
//!    chained) vs what the same push would cost as a full snapshot (the
//!    resync form, built directly from the primary's records). Asserts
//!    incremental ≤ 1/5 of snapshot.
//! 3. **Follower-read scaling** — `ReadPolicy` throughput at R=3 under a
//!    modelled per-replica service capacity (each replica serves one
//!    request at a time at a fixed cost): `ReadPreference::Primary` pins
//!    every read to one replica, `ReadPreference::Quorum` fans them across
//!    the freshness-checked group. Asserts quorum ≥ 2× primary-only.
//! 4. **Attestation scaling** — `AttestService` throughput at R=3 vs R=1
//!    under the same capacity model: with the session-id space partitioned
//!    into per-replica residue classes, any in-quorum replica seats an
//!    attestation and mirrors the session group-wide. Asserts R=3 ≥ 1.5×
//!    the R=1 rate.
//! 5. **Failover window** — read throughput against an R=3 group while
//!    its primary is quarantined mid-run: reads must keep succeeding
//!    before, across and after the failover (zero misses), and the acked
//!    write floor must survive.
//! 6. **Ack latency** — p99 mutation ack latency at R=3, write quorum 2,
//!    with a modelled 5 ms follower wire (the ack is the quorum's: the
//!    faster follower's durable verdict, not the slower one's). Asserts
//!    zero demotions and — after a flush — full convergence. Key figures
//!    land in `BENCH_replication.json` at the workspace root.
//! 7. **Self-healing MTTR** — quarantine the primary of an R=3 group
//!    watched by the background [`ClusterMonitor`] and measure the
//!    wall-clock until the group is whole again: new primary seated by
//!    the synchronous failover, pulled replica rebuilt and re-admitted
//!    by the monitor alone (no operator `reinstate`). Asserts the window
//!    stays under a CI-safe bound; lands in `BENCH_selfheal.json`.
//!
//! Run with `--quick` (CI) for a shorter opcount.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use palaemon_bench::measure::percentile;
use palaemon_cluster::{
    strict_shard, ClusterMonitor, ClusterRouter, MonitorConfig, QuarantineOutcome, ReadPreference,
    ShardId,
};
use palaemon_core::counterfile::ShieldedCounter;
use palaemon_core::policy::Policy;
use palaemon_core::server::{FaultHook, TmsRequest, TmsResponse};
use palaemon_core::tms::{Palaemon, SessionId};
use palaemon_crypto::aead::AeadKey;
use palaemon_crypto::sig::SigningKey;
use palaemon_crypto::Digest;
use palaemon_db::Db;
use shielded_fs::fs::{ShieldedFs, TagEvent};
use shielded_fs::store::MemStore;
use tee_sim::platform::{Microcode, Platform};
use tee_sim::quote::{create_report, quote_report};

const CLIENTS: usize = 8;
const POLICIES: usize = 16;
const MRE: [u8; 32] = [0x5E; 32];
/// Modelled durable-media flush latency per WAL sync.
const SYNC_LATENCY: Duration = Duration::from_micros(150);

/// A block store whose `sync()` costs wall time, like a real disk.
struct SlowSyncStore(MemStore);

impl shielded_fs::store::BlockStore for SlowSyncStore {
    fn get(&self, name: &str) -> Option<Vec<u8>> {
        self.0.get(name)
    }
    fn put(&self, name: &str, data: Vec<u8>) {
        shielded_fs::store::BlockStore::put(&self.0, name, data);
    }
    fn delete(&self, name: &str) {
        shielded_fs::store::BlockStore::delete(&self.0, name);
    }
    fn list(&self) -> Vec<String> {
        self.0.list()
    }
    fn sync(&self) -> shielded_fs::Result<()> {
        std::thread::sleep(SYNC_LATENCY);
        self.0.sync()
    }
}

fn policy_with_payload(name: &str) -> Policy {
    let payload = "x".repeat(1024);
    Policy::parse(&format!(
        "name: {name}\nservices:\n  - name: app\n    mrenclaves: [\"{}\"]\n    \
         volumes: [\"data\"]\n    env:\n      PAYLOAD: \"{payload}\"\nvolumes:\n  - name: data\n",
        Digest::from_bytes(MRE).to_hex()
    ))
    .expect("policy")
}

/// One replicated arc: R replicas, write-quorum `min(R, 2)`.
fn build_group(replicas: u32, platform: &Platform) -> ClusterRouter {
    let router = ClusterRouter::new(0xFA11, 64);
    let set: Vec<_> = (0..replicas)
        .map(|r| {
            let db = Db::create(
                Box::new(SlowSyncStore(MemStore::new())),
                AeadKey::from_bytes([r as u8; 32]),
            )
            .expect("create db");
            let engine = Arc::new(Palaemon::new(
                db,
                SigningKey::from_seed(format!("ro-replica-{r}").as_bytes()),
                Digest::ZERO,
                23 + u64::from(r),
            ));
            engine.register_platform(platform.id(), platform.qe_verifying_key());
            let fs = ShieldedFs::create(
                Box::new(MemStore::new()),
                AeadKey::from_bytes([0xD0 + r as u8; 32]),
            );
            let counter = ShieldedCounter::create(fs).expect("counter fs");
            let (server, batched) = strict_shard(engine, counter);
            (server, Some(batched))
        })
        .collect();
    router
        .add_replicated_shard(ShardId(0), set, (replicas as usize).min(2))
        .expect("replicated shard");
    router
}

/// A policy whose stored footprint is ~50 database records (policy and
/// owner rows, 24 secrets, 24 volume keys) — the shape where full-snapshot
/// replication pays for the whole set on every one-row tag push.
fn wide_policy(name: &str) -> Policy {
    let mut text = format!(
        "name: {name}\nservices:\n  - name: app\n    mrenclaves: [\"{}\"]\n    \
         volumes: [\"data\"]\n",
        Digest::from_bytes(MRE).to_hex()
    );
    text.push_str("secrets:\n");
    for i in 0..24 {
        text.push_str(&format!(
            "  - name: s{i}\n    kind: ascii\n    length: 16\n"
        ));
    }
    text.push_str("volumes:\n  - name: data\n");
    for i in 1..24 {
        text.push_str(&format!("  - name: v{i}\n"));
    }
    Policy::parse(&text).expect("wide policy")
}

/// Models a replica with bounded service capacity: every request
/// serializes through the replica's gate and *occupies* it for `cost`
/// (sleeping, not spinning — the modelled work runs on the replica's own
/// processor, so fanning requests across replicas genuinely parallelizes
/// even on a single-core bench host). The stand-in for the
/// attestation/TLS/request-processing work that makes a single primary
/// the read ceiling of its arc.
fn service_cost_hook(cost: Duration) -> FaultHook {
    let gate = Mutex::new(());
    Arc::new(move |_req: &TmsRequest| {
        let _g = gate.lock().unwrap();
        std::thread::sleep(cost);
        Ok(())
    })
}

/// One R-replica arc on plain in-memory stores (no modelled WAL latency —
/// these sections measure bytes and read placement, not sync cost), each
/// replica optionally behind a modelled per-replica service cost.
fn build_fast_group(replicas: u32, platform: &Platform, cost: Option<Duration>) -> ClusterRouter {
    let router = ClusterRouter::new(0xFA57, 64);
    let set: Vec<_> = (0..replicas)
        .map(|r| {
            let db = Db::create(
                Box::new(MemStore::new()),
                AeadKey::from_bytes([0x40 + r as u8; 32]),
            )
            .expect("create db");
            let engine = Arc::new(Palaemon::new(
                db,
                SigningKey::from_seed(format!("fast-replica-{r}").as_bytes()),
                Digest::ZERO,
                91 + u64::from(r),
            ));
            engine.register_platform(platform.id(), platform.qe_verifying_key());
            let fs = ShieldedFs::create(
                Box::new(MemStore::new()),
                AeadKey::from_bytes([0x80 + r as u8; 32]),
            );
            let counter = ShieldedCounter::create(fs).expect("counter fs");
            let (server, batched) = strict_shard(engine, counter);
            let server = match cost {
                Some(cost) => server.with_fault_hook(service_cost_hook(cost)),
                None => server,
            };
            (server, Some(batched))
        })
        .collect();
    router
        .add_replicated_shard(ShardId(0), set, (replicas as usize).min(2))
        .expect("replicated shard");
    router
}

/// Forwarded bytes per `PushTag` mutation on a ~50-record policy, R=3: the
/// incremental deltas measured on the forward path vs the same deliveries
/// as full snapshots. Returns (inc, snap) bytes/mutation.
fn run_bytes_per_mutation(pushes: usize, platform: &Platform) -> (f64, f64) {
    let router = build_fast_group(3, platform, None);
    let owner = SigningKey::from_seed(b"ro-owner").verifying_key();
    router
        .handle(TmsRequest::CreatePolicy {
            owner,
            policy: Box::new(wide_policy("bw_tenant")),
            approval: None,
            votes: Vec::new(),
        })
        .expect("create");
    let records = router
        .engine(ShardId(0))
        .expect("shard")
        .export_policy_records("bw_tenant")
        .len();
    assert!(
        records >= 50,
        "policy must span >= 50 records, has {records}"
    );
    let session = attest(&router, platform, "bw_tenant");

    let before = router.stats().shards[0].replication;
    for i in 0..pushes {
        let mut tag = [0u8; 32];
        tag[..8].copy_from_slice(&(i as u64).to_be_bytes());
        router
            .handle(TmsRequest::PushTag {
                session,
                volume: "data".into(),
                tag: Digest::from_bytes(tag),
                event: TagEvent::Sync,
            })
            .expect("push");
    }
    let after = router.stats().shards[0].replication;
    assert_eq!(after.snapshot_bytes, before.snapshot_bytes, "clean run");
    let inc = (after.incremental_bytes - before.incremental_bytes) as f64 / pushes as f64;
    // The comparator: each push delivered to both followers as a snapshot.
    let primary = router.engine(ShardId(0)).expect("shard");
    let snap = 2.0 * primary.export_policy_snapshot("bw_tenant", 1).wire_size() as f64;
    (inc, snap)
}

/// `ReadPolicy` throughput at R=3 under the modelled per-replica service
/// cost, primary-only vs quorum placement. Returns (primary, quorum)
/// reads/s plus the quorum-mode read split (follower, primary).
fn run_read_scaling(window_ms: u64, platform: &Platform) -> (f64, f64, u64, u64) {
    /// What one request occupies a replica for (gated, so a replica
    /// serves one request at a time — a capacity model, not a latency
    /// model). Large enough to dominate both client-side dispatch cost
    /// and OS timer slack, so the replica gates — not the calling threads
    /// — are the bottleneck being measured.
    const SERVICE_COST: Duration = Duration::from_micros(100);
    let router = Arc::new(build_fast_group(3, platform, Some(SERVICE_COST)));
    let owner = SigningKey::from_seed(b"ro-owner").verifying_key();
    let names: Vec<String> = (0..POLICIES).map(|i| format!("rs_tenant_{i}")).collect();
    for name in &names {
        router
            .handle(TmsRequest::CreatePolicy {
                owner,
                policy: Box::new(policy_with_payload(name)),
                approval: None,
                votes: Vec::new(),
            })
            .expect("create");
    }

    let mut rates = Vec::new();
    let mut split = (0, 0);
    for pref in [ReadPreference::Primary, ReadPreference::Quorum] {
        router.set_read_preference(pref);
        let before = router.stats().shards[0].replication;
        let stop = Arc::new(AtomicBool::new(false));
        let reads = Arc::new(AtomicU64::new(0));
        let start = Instant::now();
        std::thread::scope(|scope| {
            for c in 0..CLIENTS {
                let router = Arc::clone(&router);
                let stop = Arc::clone(&stop);
                let reads = Arc::clone(&reads);
                let names = names.clone();
                scope.spawn(move || {
                    let mut i = c;
                    while !stop.load(Ordering::Relaxed) {
                        router
                            .handle(TmsRequest::ReadPolicy {
                                name: names[i % names.len()].clone(),
                                client: owner,
                                approval: None,
                                votes: Vec::new(),
                            })
                            .expect("read");
                        reads.fetch_add(1, Ordering::Relaxed);
                        i += 1;
                    }
                });
            }
            std::thread::sleep(Duration::from_millis(window_ms));
            stop.store(true, Ordering::Relaxed);
        });
        let elapsed = start.elapsed();
        rates.push(reads.load(Ordering::Relaxed) as f64 / elapsed.as_secs_f64().max(1e-9));
        if pref == ReadPreference::Quorum {
            let after = router.stats().shards[0].replication;
            split = (
                after.reads_follower - before.reads_follower,
                after.reads_primary - before.reads_primary,
            );
        }
    }
    (rates[0], rates[1], split.0, split.1)
}

/// `AttestService` throughput under the modelled per-replica service
/// cost: R=1 (every attestation seats on the lone replica) vs R=3 with
/// quorum placement (any in-quorum replica seats it, allocating from its
/// own session-id residue class, and the session mirrors group-wide).
/// Returns (r1, r3) attestations/s plus the R=3 seat split
/// (follower, primary).
fn run_attest_scaling(window_ms: u64, platform: &Platform) -> (f64, f64, u64, u64) {
    /// See `run_read_scaling`: a capacity model — one request occupies a
    /// replica's gate for this long.
    const SERVICE_COST: Duration = Duration::from_micros(100);
    let owner = SigningKey::from_seed(b"ro-owner").verifying_key();
    let mut rates = Vec::new();
    let mut split = (0, 0);
    for replicas in [1u32, 3] {
        let router = Arc::new(build_fast_group(replicas, platform, Some(SERVICE_COST)));
        router.set_read_preference(ReadPreference::Quorum);
        router
            .handle(TmsRequest::CreatePolicy {
                owner,
                policy: Box::new(policy_with_payload("as_tenant")),
                approval: None,
                votes: Vec::new(),
            })
            .expect("create");
        let stop = Arc::new(AtomicBool::new(false));
        let attests = Arc::new(AtomicU64::new(0));
        let start = Instant::now();
        std::thread::scope(|scope| {
            for _ in 0..CLIENTS {
                let router = Arc::clone(&router);
                let stop = Arc::clone(&stop);
                let attests = Arc::clone(&attests);
                scope.spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        attest(&router, platform, "as_tenant");
                        attests.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
            std::thread::sleep(Duration::from_millis(window_ms));
            stop.store(true, Ordering::Relaxed);
        });
        let elapsed = start.elapsed();
        rates.push(attests.load(Ordering::Relaxed) as f64 / elapsed.as_secs_f64().max(1e-9));
        if replicas == 3 {
            let repl = router.stats().shards[0].replication;
            split = (repl.attests_follower, repl.attests_primary);
        }
    }
    (rates[0], rates[1], split.0, split.1)
}

fn attest(router: &ClusterRouter, platform: &Platform, policy: &str) -> SessionId {
    let binding = [0u8; 64];
    let report = create_report(platform, Digest::from_bytes(MRE), binding);
    let quote = quote_report(platform, &report).expect("quote");
    match router
        .handle(TmsRequest::AttestService {
            quote: Box::new(quote),
            tls_key_binding: binding,
            policy_name: policy.into(),
            service_name: "app".into(),
        })
        .expect("attest")
    {
        TmsResponse::Config(config) => config.session,
        other => panic!("expected Config, got {other:?}"),
    }
}

/// Drives `ops_per_client` mutations (3 tag pushes : 1 policy update) from
/// `CLIENTS` threads against a fresh R-replica group.
fn run_mutations(replicas: u32, ops_per_client: usize, platform: &Platform) -> f64 {
    let router = Arc::new(build_group(replicas, platform));
    let owner = SigningKey::from_seed(b"ro-owner").verifying_key();
    let names: Vec<String> = (0..POLICIES).map(|i| format!("ro_tenant_{i}")).collect();
    for name in &names {
        router
            .handle(TmsRequest::CreatePolicy {
                owner,
                policy: Box::new(policy_with_payload(name)),
                approval: None,
                votes: Vec::new(),
            })
            .expect("create");
    }
    let assignments: Vec<Vec<(SessionId, Policy)>> = (0..CLIENTS)
        .map(|c| {
            names
                .iter()
                .skip(c)
                .step_by(CLIENTS)
                .map(|n| (attest(&router, platform, n), policy_with_payload(n)))
                .collect()
        })
        .collect();

    let start = Instant::now();
    std::thread::scope(|scope| {
        for mine in &assignments {
            let router = Arc::clone(&router);
            scope.spawn(move || {
                for i in 0..ops_per_client {
                    let (session, policy) = &mine[i % mine.len()];
                    if i % 4 == 0 {
                        router
                            .handle(TmsRequest::UpdatePolicy {
                                client: owner,
                                policy: Box::new(policy.clone()),
                                approval: None,
                                votes: Vec::new(),
                            })
                            .expect("update");
                    } else {
                        let mut tag = [0u8; 32];
                        tag[..8].copy_from_slice(&(i as u64).to_be_bytes());
                        router
                            .handle(TmsRequest::PushTag {
                                session: *session,
                                volume: "data".into(),
                                tag: Digest::from_bytes(tag),
                                event: TagEvent::Sync,
                            })
                            .expect("push");
                    }
                }
            });
        }
    });
    let elapsed = start.elapsed();
    let status = router.replica_status(ShardId(0)).expect("status");
    assert_eq!(
        status.replicas.iter().filter(|r| r.in_quorum).count(),
        replicas as usize,
        "a clean run must not demote any replica"
    );
    (CLIENTS * ops_per_client) as f64 / elapsed.as_secs_f64().max(1e-9)
}

/// Read throughput against an R=3 group whose primary is quarantined
/// mid-run. Returns (reads/s, reads completed, failover count).
fn run_failover_window(window_ms: u64, platform: &Platform) -> (f64, u64, u64) {
    let router = Arc::new(build_group(3, platform));
    let owner = SigningKey::from_seed(b"ro-owner").verifying_key();
    let names: Vec<String> = (0..POLICIES).map(|i| format!("fw_tenant_{i}")).collect();
    for name in &names {
        router
            .handle(TmsRequest::CreatePolicy {
                owner,
                policy: Box::new(policy_with_payload(name)),
                approval: None,
                votes: Vec::new(),
            })
            .expect("create");
    }

    let stop = Arc::new(AtomicBool::new(false));
    let reads = Arc::new(AtomicU64::new(0));
    let start = Instant::now();
    std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            let router = Arc::clone(&router);
            let stop = Arc::clone(&stop);
            let reads = Arc::clone(&reads);
            let names = names.clone();
            scope.spawn(move || {
                let mut i = c;
                while !stop.load(Ordering::Relaxed) {
                    router
                        .handle(TmsRequest::ReadPolicy {
                            name: names[i % names.len()].clone(),
                            client: owner,
                            approval: None,
                            votes: Vec::new(),
                        })
                        .expect("reads must survive the failover window");
                    reads.fetch_add(1, Ordering::Relaxed);
                    i += 1;
                }
            });
        }
        std::thread::sleep(Duration::from_millis(window_ms / 2));
        assert!(router
            .quarantine(ShardId(0), "bench: primary pulled")
            .is_some());
        std::thread::sleep(Duration::from_millis(window_ms / 2));
        stop.store(true, Ordering::Relaxed);
    });
    let elapsed = start.elapsed();
    let done = reads.load(Ordering::Relaxed);
    let failovers = router.replica_status(ShardId(0)).expect("status").failovers;
    (
        done as f64 / elapsed.as_secs_f64().max(1e-9),
        done,
        failovers,
    )
}

/// Per-mutation ack latency at R=3, write quorum 2, with a modelled
/// follower wire: an ack awaits the quorum's one follower receipt, so it
/// pays the wire once (transits overlap each other and the syncs) and the
/// slower follower finishes behind it. Plain in-memory
/// stores (like the bytes/read sections): the term under test is the wire
/// on the ack path, not WAL sync cost. Returns the p99 in microseconds.
fn run_ack_latency(ops_per_client: usize, platform: &Platform) -> f64 {
    /// Modelled one-way wire latency per delta — a LAN round to a
    /// follower enclave. Dominates every other modelled cost on purpose.
    const WIRE_LATENCY: Duration = Duration::from_millis(5);
    let router = Arc::new(build_fast_group(3, platform, None));
    router.set_forward_latency(WIRE_LATENCY);
    let owner = SigningKey::from_seed(b"ro-owner").verifying_key();
    // One policy per client: contention stays on the replication path, not
    // on a single policy's engine locks.
    let names: Vec<String> = (0..CLIENTS).map(|c| format!("al_tenant_{c}")).collect();
    let policies: Vec<Policy> = names.iter().map(|n| policy_with_payload(n)).collect();
    for policy in &policies {
        router
            .handle(TmsRequest::CreatePolicy {
                owner,
                policy: Box::new(policy.clone()),
                approval: None,
                votes: Vec::new(),
            })
            .expect("create");
    }

    let all = Mutex::new(Vec::with_capacity(CLIENTS * ops_per_client));
    std::thread::scope(|scope| {
        for (c, policy) in policies.iter().enumerate() {
            let router = Arc::clone(&router);
            let all = &all;
            scope.spawn(move || {
                let mut mine = Vec::with_capacity(ops_per_client);
                for _ in 0..ops_per_client {
                    let start = Instant::now();
                    router
                        .handle(TmsRequest::UpdatePolicy {
                            client: owner,
                            policy: Box::new(policy.clone()),
                            approval: None,
                            votes: Vec::new(),
                        })
                        .unwrap_or_else(|e| panic!("update on client {c}: {e}"));
                    mine.push(start.elapsed().as_micros() as u64);
                }
                all.lock().unwrap().extend(mine);
            });
        }
    });
    let p99 = percentile(&all.into_inner().unwrap(), 0.99) as f64;

    // An ack is the quorum's, so the slower follower may still hold the
    // last few deltas queued: once they have landed nobody is demoted,
    // every queue is empty and every follower sits at the group watermark.
    assert!(router.flush_replication(ShardId(0)));
    let status = router.replica_status(ShardId(0)).expect("status");
    assert!(
        status.replicas.iter().all(|r| r.in_quorum),
        "a clean pipelined run must not demote any replica"
    );
    let shard = &router.stats().shards[0];
    assert_eq!(
        shard.queue_depths.iter().sum::<usize>(),
        0,
        "a flushed run leaves nothing queued: {:?}",
        shard.queue_depths
    );
    let top = status.replicas.iter().map(|r| r.applied).max().unwrap();
    assert!(
        status.replicas.iter().all(|r| r.applied == top),
        "once flushed every replica must sit at the watermark"
    );
    p99
}

/// Self-healing MTTR at R=3: pull the primary of a monitored group and
/// measure the wall-clock from the quarantine to full strength — the
/// synchronous failover seats a new primary immediately, and the
/// background monitor (probation + catch-up, no operator `reinstate`)
/// rebuilds the pulled replica. Returns the repair window in
/// milliseconds plus the monitor's (healed, ticks) counters.
fn run_selfheal_mttr(platform: &Platform) -> (f64, u64, u64) {
    let router = Arc::new(build_group(3, platform));
    let owner = SigningKey::from_seed(b"ro-owner").verifying_key();
    let names: Vec<String> = (0..POLICIES).map(|i| format!("sh_tenant_{i}")).collect();
    for name in &names {
        router
            .handle(TmsRequest::CreatePolicy {
                owner,
                policy: Box::new(policy_with_payload(name)),
                approval: None,
                votes: Vec::new(),
            })
            .expect("create");
    }

    let monitor = ClusterMonitor::new(
        Arc::clone(&router),
        MonitorConfig {
            cadence: Duration::from_millis(5),
            probation_ticks: 1,
        },
    );
    monitor.start();

    let start = Instant::now();
    let outcome = router
        .quarantine(ShardId(0), "bench: primary pulled")
        .expect("the group exists");
    assert!(
        matches!(outcome, QuarantineOutcome::FailedOver { .. }),
        "pulling one of three replicas must fail over, not go dark"
    );
    // Writes keep landing on the new seat while the monitor repairs.
    router
        .handle(TmsRequest::UpdatePolicy {
            client: owner,
            policy: Box::new(policy_with_payload(&names[0])),
            approval: None,
            votes: Vec::new(),
        })
        .expect("the group must stay writable across the repair window");
    let deadline = start + Duration::from_secs(10);
    let mttr = loop {
        let status = router.replica_status(ShardId(0)).expect("status");
        let whole = status.replicas.iter().filter(|r| r.in_quorum).count() == 3
            && !status.replicas[status.primary].quarantined;
        if whole {
            break start.elapsed();
        }
        assert!(
            Instant::now() < deadline,
            "monitor failed to re-admit the pulled replica in time: {status:?}"
        );
        std::thread::sleep(Duration::from_millis(1));
    };
    monitor.stop();
    let totals = monitor.totals();
    assert!(
        totals.healed >= 1,
        "the pulled replica must come back through the probation heal: {totals:?}"
    );
    (mttr.as_secs_f64() * 1e3, totals.healed, monitor.ticks())
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let ops_per_client = if quick { 150 } else { 600 };
    let window_ms = if quick { 200 } else { 800 };
    let platform = Platform::new("ro-host", Microcode::PostForeshadow);

    println!("replication_overhead: mutation cost of R-way mirroring + the failover window");
    println!("=============================================================================");
    println!("  {CLIENTS} clients x {ops_per_client} mutations over {POLICIES} policies\n");

    let mut rates = Vec::new();
    for replicas in [1u32, 2, 3] {
        let rate = run_mutations(replicas, ops_per_client, &platform);
        let quorum = (replicas as usize).min(2);
        println!("  R={replicas} (quorum {quorum}) : {rate:>9.0} mutations/s");
        rates.push(rate);
    }
    let overhead3 = rates[0] / rates[2];
    println!("\n  R=3 pays {overhead3:.2}x the R=1 mutation cost (sync mirroring, quorum 2)");
    // The follower apply is bounded work: one in-place incremental commit
    // per follower. R=3 must stay within an order of magnitude of R=1 —
    // a regression here means forwarding went quadratic or serialized.
    assert!(
        rates[2] * 10.0 >= rates[0],
        "R=3 throughput collapsed: {:.0}/s vs {:.0}/s at R=1",
        rates[2],
        rates[0]
    );

    let pushes = if quick { 32 } else { 128 };
    let (inc, snap) = run_bytes_per_mutation(pushes, &platform);
    let ratio = snap / inc.max(1.0);
    println!("\n  bytes/PushTag on a 50-record policy, R=3 (2 follower deliveries):");
    println!("    incremental : {inc:>8.0} B  (the changed tag row, token-chained)");
    println!("    snapshot    : {snap:>8.0} B  (full record set, the resync form)");
    println!("    => incremental ships {ratio:.1}x fewer bytes per mutation");
    assert!(
        inc * 5.0 <= snap,
        "incremental deltas must cut forwarded bytes by >= 5x \
         ({inc:.0} B vs {snap:.0} B per PushTag)"
    );

    let read_window = if quick { 150 } else { 500 };
    let (primary_rps, quorum_rps, follower_reads, primary_reads) =
        run_read_scaling(read_window, &platform);
    let scale = quorum_rps / primary_rps.max(1.0);
    println!("\n  follower-read scaling at R=3 (modelled per-replica service capacity):");
    println!("    ReadPreference::Primary : {primary_rps:>9.0} reads/s (one replica serves all)");
    println!(
        "    ReadPreference::Quorum  : {quorum_rps:>9.0} reads/s \
         ({follower_reads} follower / {primary_reads} primary)"
    );
    println!("    => quorum reads serve {scale:.2}x the primary-only throughput");
    assert!(
        quorum_rps >= 2.0 * primary_rps,
        "quorum reads at R=3 must at least double read throughput \
         ({quorum_rps:.0} vs {primary_rps:.0} reads/s)"
    );
    assert!(
        follower_reads > 0,
        "quorum mode must actually serve from followers"
    );

    let (r1_aps, r3_aps, att_follower, att_primary) = run_attest_scaling(read_window, &platform);
    let att_scale = r3_aps / r1_aps.max(1.0);
    println!("\n  attestation scaling (partitioned session-id space, mirrored sessions):");
    println!("    R=1 : {r1_aps:>9.0} attestations/s (single seat)");
    println!(
        "    R=3 : {r3_aps:>9.0} attestations/s \
         ({att_follower} follower-seated / {att_primary} primary-seated)"
    );
    println!("    => attestation serves {att_scale:.2}x the single-replica rate");
    assert!(
        r3_aps >= 1.5 * r1_aps,
        "attestation at R=3 must reach >= 1.5x the R=1 rate \
         ({r3_aps:.0} vs {r1_aps:.0} attestations/s)"
    );
    assert!(
        att_follower > 0,
        "quorum placement must actually seat attestations on followers"
    );

    let (rps, done, failovers) = run_failover_window(window_ms, &platform);
    println!("\n  failover window: {rps:>9.0} reads/s sustained, {done} reads, 0 misses");
    assert_eq!(failovers, 1, "the quarantine must have failed over");
    assert!(done > 0, "readers must make progress across the failover");
    println!("  => quarantining the primary loses no reads: the arc stays online");

    let latency_ops = if quick { 40 } else { 150 };
    let ack_p99 = run_ack_latency(latency_ops, &platform);
    println!("\n  ack latency at R=3 (modelled 5 ms follower wire):");
    println!("    p99 {ack_p99:>7.0} us (ack at the write quorum's last durable receipt)");

    let (mttr_ms, healed, ticks) = run_selfheal_mttr(&platform);
    println!("\n  self-healing MTTR at R=3 (5 ms monitor cadence, probation 1 tick):");
    println!(
        "    primary pulled -> group whole : {mttr_ms:>7.1} ms \
         ({healed} probation heal, {ticks} monitor ticks)"
    );
    println!("    => the monitor rebuilds the pulled replica; no operator reinstate");
    assert!(
        mttr_ms < 5_000.0,
        "self-heal window must close well inside the CI bound ({mttr_ms:.1} ms)"
    );

    let json = format!(
        "{{\n  \"bench\": \"replication_overhead\",\n  \"quick\": {quick},\n  \
         \"mutations_per_sec\": {{ \"r1\": {:.0}, \"r2\": {:.0}, \"r3\": {:.0} }},\n  \
         \"bytes_per_push\": {{ \"incremental\": {inc:.0}, \"snapshot\": {snap:.0} }},\n  \
         \"reads_per_sec\": {{ \"primary\": {primary_rps:.0}, \"quorum\": {quorum_rps:.0} }},\n  \
         \"attests_per_sec\": {{ \"r1\": {r1_aps:.0}, \"r3\": {r3_aps:.0} }},\n  \
         \"failover_reads_per_sec\": {rps:.0},\n  \
         \"ack_p99_us\": {{ \"durable\": {ack_p99:.0} }}\n}}\n",
        rates[0], rates[1], rates[2],
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_replication.json");
    if let Err(e) = std::fs::write(path, &json) {
        eprintln!("  (could not write BENCH_replication.json: {e})");
    } else {
        println!("\n  wrote BENCH_replication.json");
    }

    let selfheal_json = format!(
        "{{\n  \"bench\": \"selfheal_mttr\",\n  \"quick\": {quick},\n  \
         \"mttr_ms\": {mttr_ms:.1},\n  \
         \"monitor\": {{ \"cadence_ms\": 5, \"probation_ticks\": 1, \
         \"healed\": {healed}, \"ticks\": {ticks} }}\n}}\n"
    );
    let selfheal_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_selfheal.json");
    if let Err(e) = std::fs::write(selfheal_path, &selfheal_json) {
        eprintln!("  (could not write BENCH_selfheal.json: {e})");
    } else {
        println!("  wrote BENCH_selfheal.json");
    }
}
