//! Property-based tests (proptest) over the core data structures and
//! protocol invariants.

use std::collections::BTreeMap;

use proptest::prelude::*;

use palaemon::cluster::{
    strict_shard, ClusterRouter, FaultKind, FaultPlan, HashRing, PlannedFault, ReadPreference,
    ShardId,
};
use palaemon::crypto::aead::AeadKey;
use palaemon::crypto::merkle::MerkleTree;
use palaemon::crypto::sha256::Sha256;
use palaemon::crypto::sig::SigningKey;
use palaemon::crypto::wire::{Decoder, Encoder};
use palaemon::db::Db;
use shielded_fs::fs::ShieldedFs;
use shielded_fs::inject::{inject_secrets, SecretMap};
use shielded_fs::store::MemStore;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// AEAD: decryption inverts encryption for arbitrary payloads/AAD.
    #[test]
    fn aead_roundtrip(key in any::<[u8; 32]>(),
                      nonce_seed in proptest::collection::vec(any::<u8>(), 0..64),
                      plaintext in proptest::collection::vec(any::<u8>(), 0..2048),
                      aad in proptest::collection::vec(any::<u8>(), 0..128)) {
        let k = AeadKey::from_bytes(key);
        let sealed = k.seal(&nonce_seed, &plaintext, &aad);
        prop_assert_eq!(k.open(&nonce_seed, &sealed, &aad).unwrap(), plaintext);
    }

    /// AEAD: any single-byte corruption is detected.
    #[test]
    fn aead_tamper_detected(key in any::<[u8; 32]>(),
                            plaintext in proptest::collection::vec(any::<u8>(), 1..512),
                            flip_at in any::<usize>()) {
        let k = AeadKey::from_bytes(key);
        let mut sealed = k.seal(b"n", &plaintext, b"");
        let idx = flip_at % sealed.len();
        sealed[idx] ^= 0x01;
        prop_assert!(k.open(b"n", &sealed, b"").is_err());
    }

    /// SHA-256 streaming equals one-shot for arbitrary chunkings.
    #[test]
    fn sha256_chunking_invariant(data in proptest::collection::vec(any::<u8>(), 0..4096),
                                 cuts in proptest::collection::vec(any::<usize>(), 0..8)) {
        let mut hasher = Sha256::new();
        let mut offsets: Vec<usize> = cuts.iter().map(|c| c % (data.len() + 1)).collect();
        offsets.sort_unstable();
        let mut prev = 0;
        for &o in &offsets {
            hasher.update(&data[prev..o]);
            prev = o;
        }
        hasher.update(&data[prev..]);
        prop_assert_eq!(hasher.finalize(), Sha256::digest(&data));
    }

    /// Merkle: every leaf of every tree size proves against the root, and
    /// proofs never verify a different value.
    #[test]
    fn merkle_proofs_sound(values in proptest::collection::vec(
        proptest::collection::vec(any::<u8>(), 0..32), 1..24)) {
        let tree = MerkleTree::from_values(&values);
        let root = tree.root();
        for (i, v) in values.iter().enumerate() {
            let proof = tree.prove(i);
            prop_assert!(MerkleTree::verify(&root, v, &proof));
            let mut other = v.clone();
            other.push(0xFF);
            prop_assert!(!MerkleTree::verify(&root, &other, &proof));
        }
    }

    /// Signatures: valid for the signed message, invalid for any other.
    #[test]
    fn signature_soundness(seed in any::<u64>(),
                           msg in proptest::collection::vec(any::<u8>(), 0..256),
                           other in proptest::collection::vec(any::<u8>(), 0..256)) {
        let sk = SigningKey::from_secret(seed);
        let sig = sk.sign(&msg);
        prop_assert!(sk.verifying_key().verify(&msg, &sig).is_ok());
        if msg != other {
            prop_assert!(sk.verifying_key().verify(&other, &sig).is_err());
        }
    }

    /// Wire encoding: lists of (u64, bytes, str) round-trip.
    #[test]
    fn wire_roundtrip(items in proptest::collection::vec(
        (any::<u64>(), proptest::collection::vec(any::<u8>(), 0..64), "[a-z]{0,16}"), 0..16)) {
        let mut e = Encoder::new();
        e.put_list(&items, |e, (n, b, s)| {
            e.put_u64(*n).put_bytes(b).put_str(s);
        });
        let buf = e.finish();
        let mut d = Decoder::new(&buf);
        let decoded = d
            .get_list(|d| Ok((d.get_u64()?, d.get_bytes()?, d.get_str()?)))
            .unwrap();
        d.finish().unwrap();
        prop_assert_eq!(decoded, items);
    }

    /// Secret injection: output never contains a replaced variable, always
    /// preserves non-variable content length relations, and replacing with
    /// empty secrets is identity.
    #[test]
    fn injection_properties(content in "[a-zA-Z0-9 \n=_-]{0,200}",
                            name in "[a-z]{1,8}",
                            value in "[a-zA-Z0-9]{0,16}") {
        let template = format!("{content}{{{{{name}}}}}{content}");
        let mut secrets = SecretMap::new();
        secrets.insert(name.clone(), value.as_bytes().to_vec());
        let (out, n) = inject_secrets(template.as_bytes(), &secrets);
        prop_assert_eq!(n, 1);
        let out_str = String::from_utf8(out).unwrap();
        let variable = format!("{{{{{name}}}}}");
        let still_there = out_str.contains(&variable);
        prop_assert!(!still_there);
        prop_assert_eq!(out_str, format!("{content}{value}{content}"));
        // No secrets: identity.
        let (unchanged, zero) = inject_secrets(template.as_bytes(), &SecretMap::new());
        prop_assert_eq!(zero, 0);
        prop_assert_eq!(unchanged, template.as_bytes());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Policies round-trip through the storage encoding for arbitrary
    /// structurally valid content.
    #[test]
    fn policy_encode_decode_roundtrip(
        name in "[a-z_]{1,16}",
        svc_names in proptest::collection::btree_set("[a-z]{1,8}", 1..4),
        mre_bytes in proptest::collection::vec(any::<u8>(), 1..4),
        strict in any::<bool>(),
        secret_len in 1usize..64,
    ) {
        use palaemon::core::policy::{Policy, SecretKind, SecretSpec, ServiceSpec, VolumeSpec};
        let services: Vec<ServiceSpec> = svc_names
            .iter()
            .map(|svc| ServiceSpec {
                name: svc.clone(),
                image_name: Some(format!("{svc}-img")),
                command: format!("{svc} --run"),
                env: [("MODE".to_string(), "x".to_string())].into_iter().collect(),
                mrenclaves: mre_bytes
                    .iter()
                    .map(|b| palaemon::crypto::Digest::from_bytes([*b; 32]))
                    .collect(),
                platforms: vec![],
                pwd: "/".into(),
                injection_files: vec!["/cfg".into()],
                volumes: vec!["data".into()],
                import_combos: vec![],
            })
            .collect();
        let policy = Policy {
            name,
            services,
            images: vec![],
            volumes: vec![VolumeSpec { name: "data".into(), export_to: None }],
            secrets: vec![SecretSpec {
                name: "s".into(),
                kind: SecretKind::Ascii { length: secret_len },
                export_to: vec![],
            }],
            board: None,
            exported_combos: vec![],
            imports: vec![],
            strict,
        };
        policy.validate().unwrap();
        let decoded = Policy::decode(&policy.encode()).unwrap();
        prop_assert_eq!(&decoded, &policy);
        prop_assert_eq!(decoded.digest(), policy.digest());
    }

    /// Queueing simulator sanity: achieved throughput never exceeds offered
    /// load or capacity, and latency is at least the service floor.
    #[test]
    fn queue_sim_conservation(rate_frac in 0.1f64..2.0, servers in 1usize..8,
                              svc_us in 100u64..5_000) {
        use simnet::queue::{open_loop, ServiceDist};
        let svc_ns = svc_us * 1_000;
        let capacity = servers as f64 * 1e9 / svc_ns as f64;
        let p = open_loop(capacity * rate_frac, 2 * simnet::SEC, servers,
                          ServiceDist::Fixed(svc_ns), false, 5);
        prop_assert!(p.achieved_rps <= capacity * 1.05 + 1.0);
        prop_assert!(p.achieved_rps <= p.offered_rps * 1.05 + 1.0);
        prop_assert!(p.latency.p50 >= svc_ns);
    }
}

/// Model-based test: the encrypted database behaves exactly like a
/// `BTreeMap` across arbitrary put/delete/commit/reopen/checkpoint traces,
/// and every `View` taken along the way stays frozen at the state it saw
/// no matter what happens to the live database afterwards.
#[derive(Debug, Clone)]
enum DbOp {
    Put(u8, Vec<u8>),
    Delete(u8),
    Commit,
    Checkpoint,
    Reopen,
    View,
}

fn db_op_strategy() -> impl Strategy<Value = DbOp> {
    prop_oneof![
        (any::<u8>(), proptest::collection::vec(any::<u8>(), 0..16))
            .prop_map(|(k, v)| DbOp::Put(k, v)),
        any::<u8>().prop_map(DbOp::Delete),
        Just(DbOp::Commit),
        Just(DbOp::Checkpoint),
        Just(DbOp::Reopen),
        Just(DbOp::View),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn db_matches_model(ops in proptest::collection::vec(db_op_strategy(), 0..40)) {
        let store = MemStore::new();
        let key = AeadKey::from_bytes([1; 32]);
        let mut db = Db::create(Box::new(store.clone()), key.clone()).expect("create db");
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        let mut durable = model.clone();
        // Outstanding O(1) snapshots, each paired with the model state it
        // captured. They even outlive a crash/reopen of the database.
        type FrozenView = (palaemon_db::DbView, BTreeMap<Vec<u8>, Vec<u8>>);
        let mut views: Vec<FrozenView> = Vec::new();

        for op in ops {
            match op {
                DbOp::Put(k, v) => {
                    db.put(vec![k], v.clone());
                    model.insert(vec![k], v);
                }
                DbOp::Delete(k) => {
                    db.delete(&[k]);
                    model.remove(&vec![k]);
                }
                DbOp::Commit => {
                    db.commit().unwrap();
                    durable = model.clone();
                }
                DbOp::Checkpoint => {
                    db.checkpoint().unwrap();
                    durable = model.clone();
                }
                DbOp::Reopen => {
                    // Crash: uncommitted writes vanish.
                    drop(db);
                    db = Db::open(Box::new(store.clone()), key.clone()).unwrap();
                    model = durable.clone();
                }
                DbOp::View => {
                    views.push((db.view(), model.clone()));
                }
            }
            // The live view always matches the model.
            prop_assert_eq!(db.len(), model.len());
            for (k, v) in &model {
                prop_assert_eq!(db.get(k), Some(v.as_slice()));
            }
            // Every outstanding snapshot stays exactly what it saw.
            for (view, frozen) in &views {
                prop_assert_eq!(view.len(), frozen.len());
                for (k, v) in frozen {
                    prop_assert_eq!(view.get(k), Some(v.as_slice()));
                }
            }
        }
    }

    /// Shielded FS: arbitrary write/remove traces keep read-back exact and
    /// the tag history free of duplicates (freshness).
    #[test]
    fn shielded_fs_tag_uniqueness(ops in proptest::collection::vec(
        ("[ab]", proptest::collection::vec(any::<u8>(), 0..32)), 1..20)) {
        let mut fs = ShieldedFs::create(Box::new(MemStore::new()), AeadKey::from_bytes([2; 32]));
        let mut tags = vec![fs.tag()];
        let mut model: BTreeMap<String, Vec<u8>> = BTreeMap::new();
        for (path, content) in ops {
            let path = format!("/{path}");
            fs.write(&path, &content).unwrap();
            model.insert(path, content);
            let tag = fs.tag();
            prop_assert!(!tags.contains(&tag), "tag reuse would permit replay");
            tags.push(tag);
        }
        for (path, content) in &model {
            prop_assert_eq!(&fs.read(path).unwrap(), content);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Consistent-hash ring: the key distribution across 8 shards stays
    /// within ±25 % of the uniform share, for arbitrary ring seeds and key
    /// populations.
    #[test]
    fn ring_distribution_balanced_within_25_percent(seed in any::<u64>(),
                                                    salt in any::<u32>()) {
        // 512 vnodes/shard puts the per-shard share's relative std-dev
        // around 4 % — the ±25 % bound is then a >5σ event, robust for
        // arbitrary seeds rather than lucky on the sampled ones.
        let mut ring = HashRing::new(seed, 512);
        for i in 0..8 {
            ring.add_shard(ShardId(i));
        }
        const KEYS: usize = 4000;
        let mut counts: BTreeMap<ShardId, usize> = BTreeMap::new();
        for i in 0..KEYS {
            let shard = ring.route(&format!("policy-{salt}-{i}")).unwrap();
            *counts.entry(shard).or_default() += 1;
        }
        prop_assert_eq!(counts.len(), 8, "every shard must receive keys");
        let share = KEYS / 8;
        for (&shard, &n) in &counts {
            prop_assert!(
                n >= share * 3 / 4 && n <= share * 5 / 4,
                "{} holds {} keys; uniform share is {} (±25 %)", shard, n, share
            );
        }
    }

    /// Minimal disruption: growing an N-shard ring by one remaps roughly
    /// 1/(N+1) of the keys — and every remapped key lands on the *new*
    /// shard, never between two pre-existing ones.
    #[test]
    fn ring_expansion_remaps_about_one_nth(seed in any::<u64>(), n in 2u32..8) {
        let mut old = HashRing::new(seed, 256);
        for i in 0..n {
            old.add_shard(ShardId(i));
        }
        let mut new = old.clone();
        new.add_shard(ShardId(n));
        const KEYS: usize = 2000;
        let mut moved = 0usize;
        for i in 0..KEYS {
            let key = format!("policy-{i}");
            let was = old.route(&key).unwrap();
            let is = new.route(&key).unwrap();
            if was != is {
                prop_assert_eq!(is, ShardId(n), "key moved between old shards");
                moved += 1;
            }
        }
        let expected = KEYS / (n as usize + 1);
        prop_assert!(moved > 0, "the new shard must take over some keys");
        prop_assert!(
            moved <= expected * 7 / 4,
            "remapped {} keys; ~1/{} of {} is {}", moved, n + 1, KEYS, expected
        );
    }
}

// ----------------------------------------------------------------------
// Replication / failover invariants under random fault interleavings
// ----------------------------------------------------------------------

/// One step of a randomized mutation/fault schedule against a replicated
/// shard (R=3, write-quorum 2).
#[derive(Debug, Clone, Copy)]
enum FailoverOp {
    /// Publish the next version of policy `0..POLICIES`.
    Update(u8),
    /// Quarantine the current primary (operator / health monitor).
    CrashPrimary,
    /// Roll replica `0..3`'s counter token back to 0 at the next mutation.
    Rollback(u8),
    /// Partition the link to replica `0..3` for the next mutation.
    Drop(u8),
    /// Repair: catch every quarantined/lagging replica up and rejoin.
    Reinstate,
}

fn failover_op_strategy() -> impl Strategy<Value = FailoverOp> {
    // Updates listed four times and repairs twice: the schedule leans
    // toward mutations, with faults sprinkled in between.
    prop_oneof![
        (0u8..4).prop_map(FailoverOp::Update),
        (0u8..4).prop_map(FailoverOp::Update),
        (0u8..4).prop_map(FailoverOp::Update),
        (0u8..4).prop_map(FailoverOp::Update),
        Just(FailoverOp::CrashPrimary),
        (0u8..3).prop_map(FailoverOp::Rollback),
        (0u8..3).prop_map(FailoverOp::Drop),
        Just(FailoverOp::Reinstate),
        Just(FailoverOp::Reinstate),
    ]
}

/// One step of a randomized schedule for the incremental-delta data plane
/// (R=3, write-quorum 2, quorum reads on).
#[derive(Debug, Clone, Copy)]
enum DeltaOp {
    /// Publish the next version of policy `0..2`.
    Update(u8),
    /// Lose the next mutation's incremental to follower `0..3` *silently*
    /// (no demotion — the chain check must catch the gap later).
    Lose(u8),
    /// Deliver the next mutation's delta to follower `0..3` out of order
    /// (after its successor).
    Reorder(u8),
    /// Quarantine the current primary.
    CrashPrimary,
    /// Catch every quarantined/lagging replica up and rejoin.
    Reinstate,
}

fn delta_op_strategy() -> impl Strategy<Value = DeltaOp> {
    prop_oneof![
        (0u8..2).prop_map(DeltaOp::Update),
        (0u8..2).prop_map(DeltaOp::Update),
        (0u8..2).prop_map(DeltaOp::Update),
        (0u8..2).prop_map(DeltaOp::Update),
        (0u8..3).prop_map(DeltaOp::Lose),
        (0u8..3).prop_map(DeltaOp::Reorder),
        Just(DeltaOp::CrashPrimary),
        Just(DeltaOp::Reinstate),
        Just(DeltaOp::Reinstate),
    ]
}

/// One step of a randomized schedule for the pipelined replication data
/// plane: forwards ride per-follower background channels and an ack
/// awaits the `write_quorum − 1`-th follower's durable verdict (here: one).
#[derive(Debug, Clone, Copy)]
enum PipelineOp {
    /// Publish the next version of policy `0..2`.
    Update(u8),
    /// Wedge replica `0..3`'s forward channel at the next mutation (the
    /// sender stops draining; a mutation queued behind it parks on its ack
    /// until a fence only if no other follower can make its quorum;
    /// cleared by reinstate).
    Stall(u8),
    /// Silently drop the next window delivered to follower 1 (acked
    /// writes survive on the primary and follower 2; the chain gap must
    /// heal by snapshot resync, never diverge).
    DropBatch,
    /// Operator flush: drain every non-stalled channel now.
    Flush,
    /// Quarantine the current primary (deposing fences its channels).
    CrashPrimary,
    /// Catch every quarantined/lagging replica up and rejoin; clears
    /// stalls and pending drops.
    Reinstate,
}

fn pipeline_op_strategy() -> impl Strategy<Value = PipelineOp> {
    prop_oneof![
        (0u8..2).prop_map(PipelineOp::Update),
        (0u8..2).prop_map(PipelineOp::Update),
        (0u8..2).prop_map(PipelineOp::Update),
        (0u8..2).prop_map(PipelineOp::Update),
        (0u8..3).prop_map(PipelineOp::Stall),
        Just(PipelineOp::DropBatch),
        Just(PipelineOp::Flush),
        Just(PipelineOp::CrashPrimary),
        Just(PipelineOp::Reinstate),
        Just(PipelineOp::Reinstate),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For arbitrary interleavings of updates, silently lost incrementals,
    /// reordered incrementals, primary crashes and repairs — with reads in
    /// quorum mode, fanned across the freshness-checked followers:
    ///
    /// 1. a quorum read never returns a version older than the last
    ///    quorum-acked write, no matter which replica served it;
    /// 2. a lost or reordered incremental never causes silent divergence:
    ///    once the chain advances past the damage, every in-quorum replica
    ///    holds byte-identical records (gaps are healed by snapshot
    ///    resyncs, which the stats must show whenever a chain actually
    ///    broke).
    #[test]
    fn quorum_reads_never_stale_and_incrementals_never_diverge(
        ops in proptest::collection::vec(delta_op_strategy(), 1..40)
    ) {
        use palaemon::core::counterfile::MemFileCounter;
        use palaemon::core::policy::Policy;
        use palaemon::core::server::{TmsRequest, TmsResponse};
        use palaemon::core::tms::Palaemon;
        use palaemon::crypto::aead::AeadKey;
        use palaemon::crypto::sig::SigningKey;
        use palaemon::crypto::Digest;
        use palaemon::db::Db;
        use shielded_fs::store::MemStore;
        use std::sync::Arc;

        const REPLICAS: u32 = 3;
        // Two policies: a silently lost delta for one policy must stay
        // visible to the freshness check even after deltas for the other
        // policy advance the victim's global applied token.
        const POLICIES: u8 = 2;
        let owner = SigningKey::from_seed(b"delta-owner").verifying_key();
        let versioned = |p: u8, version: u64| {
            Policy::parse(&format!(
                "name: delta-{p}\nservices:\n  - name: app\n    mrenclaves: [\"{}\"]\n    \
                 env:\n      VERSION: \"{version}\"\nvolumes: []\n",
                Digest::from_bytes([0xD1; 32]).to_hex()
            ))
            .unwrap()
        };

        let id = ShardId(0);
        let router = ClusterRouter::new(77, 32);
        let set: Vec<_> = (0..REPLICAS)
            .map(|r| {
                let db = Db::create(Box::new(MemStore::new()), AeadKey::from_bytes([r as u8; 32])).expect("create db");
                let engine = Arc::new(Palaemon::new(
                    db,
                    SigningKey::from_seed(format!("delta-{r}").as_bytes()),
                    Digest::ZERO,
                    u64::from(r),
                ));
                let (server, counter) = strict_shard(engine, MemFileCounter::new());
                (server, Some(counter))
            })
            .collect();
        router.add_replicated_shard(id, set, 2).unwrap();
        router.set_read_preference(ReadPreference::Quorum);
        let plan = FaultPlan::new([]);
        router.set_fault_plan(Arc::clone(&plan));

        let update = |p: u8, version: u64| {
            router.handle(TmsRequest::UpdatePolicy {
                client: owner,
                policy: Box::new(versioned(p, version)),
                approval: None,
                votes: Vec::new(),
            })
        };
        let mut version = 1u64;
        let mut acked = [1u64; POLICIES as usize];
        for p in 0..POLICIES {
            router
                .handle(TmsRequest::CreatePolicy {
                    owner,
                    policy: Box::new(versioned(p, version)),
                    approval: None,
                    votes: Vec::new(),
                })
                .unwrap();
        }

        for op in ops {
            match op {
                DeltaOp::Update(p) => {
                    version += 1;
                    if update(p, version).is_ok() {
                        acked[p as usize] = version;
                    }
                }
                DeltaOp::Lose(r) => {
                    let next = router.replica_status(id).unwrap().ops + 1;
                    plan.schedule(PlannedFault {
                        shard: id,
                        op: next,
                        kind: FaultKind::LoseIncremental(r as usize),
                    });
                }
                DeltaOp::Reorder(r) => {
                    let next = router.replica_status(id).unwrap().ops + 1;
                    plan.schedule(PlannedFault {
                        shard: id,
                        op: next,
                        kind: FaultKind::ReorderIncremental(r as usize),
                    });
                }
                DeltaOp::CrashPrimary => {
                    router.quarantine(id, "prop: crash");
                }
                DeltaOp::Reinstate => {
                    router.reinstate(id);
                }
            }

            let status = router.replica_status(id).unwrap();
            if status.replicas[status.primary].quarantined {
                continue; // group dark until a repair
            }
            // Invariant 1: several reads of both policies, so the rotation
            // crosses every eligible replica — none may serve older than
            // that policy's last acked write.
            for p in 0..POLICIES {
                for _ in 0..REPLICAS as usize {
                    match router.handle(TmsRequest::ReadPolicy {
                        name: format!("delta-{p}"),
                        client: owner,
                        approval: None,
                        votes: Vec::new(),
                    }) {
                        Ok(TmsResponse::Policy(policy)) => {
                            let seen: u64 = policy.services[0].env["VERSION"].parse().unwrap();
                            prop_assert!(
                                seen >= acked[p as usize],
                                "quorum read of delta-{p} saw v{seen} after v{} was acked",
                                acked[p as usize]
                            );
                        }
                        other => prop_assert!(false, "routable group must serve: {other:?}"),
                    }
                }
            }
        }

        // Drain the schedule: repair everything, then force more chained
        // mutations. Faults are always armed for the *next* op at
        // scheduling time, so only the first drain update can still be hit
        // by one — every later one forwards cleanly, surfacing and healing
        // any remaining gap or held-back delta on both policy chains.
        router.reinstate(id);
        version += 1;
        let _ = update(0, version); // may be the victim of a still-armed fault
        for p in [1u8, 0] {
            version += 1;
            prop_assert!(update(p, version).is_ok(), "the clean drain update must ack");
            acked[p as usize] = version;
        }
        let status = router.replica_status(id).unwrap();
        prop_assert!(status.replicas.iter().all(|r| r.in_quorum));

        // Invariant 2: no silent divergence — once the slower follower's
        // deliveries have landed too, every replica is identical.
        router.flush_replication(id);
        let engines = router.replica_engines(id);
        for p in 0..POLICIES {
            let name = format!("delta-{p}");
            let reference = engines[status.primary].export_policy_records(&name);
            for (k, engine) in engines.iter().enumerate() {
                prop_assert!(
                    engine.export_policy_records(&name) == reference,
                    "replica {k} diverged from the primary on {name}"
                );
            }
        }
        let repl = router.stats().shards[0].replication;
        prop_assert!(repl.incremental_deltas > 0, "data plane must run incrementally");
        // Every chain break was healed by an explicit snapshot resync.
        prop_assert!(
            repl.snapshot_resyncs <= repl.sequence_rejections,
            "resyncs only happen against a detected break: {repl:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For arbitrary interleavings of updates, channel stalls, silently
    /// dropped windows, operator flushes, primary crashes and repairs —
    /// with forwards riding the background channels and reads in quorum
    /// mode:
    ///
    /// 1. whenever the group is routable, no read returns a version older
    ///    than the last acked write — the deposition fence must deliver
    ///    the queued forwards before any election, and the freshness check
    ///    must push reads off lagging followers;
    /// 2. after a final repair + flush, every replica holds byte-identical
    ///    records: stalls and dropped windows never cause silent
    ///    divergence.
    ///
    /// An update acks at its quorum: while one in-quorum follower's channel
    /// is clear it **must** return `Ok`, whatever else is wedged — the
    /// wedged follower's copy stays queued, a straggler no flush ever
    /// delivers. Only an update no clear follower can vouch for may park on
    /// its ack; that one is issued from a scoped thread and joined after
    /// the next fencing op (a primary crash or a reinstate) — which must
    /// release it. A crash is never preceded by a flush here: the
    /// deposition fence alone must put every acked version on the seat it
    /// elects, so after each crash the new seat is read on its own first.
    #[test]
    fn windowed_pipeline_never_serves_stale_and_never_diverges(
        ops in proptest::collection::vec(pipeline_op_strategy(), 1..40)
    ) {
        use palaemon::core::counterfile::MemFileCounter;
        use palaemon::core::policy::Policy;
        use palaemon::core::server::{TmsRequest, TmsResponse};
        use palaemon::core::tms::Palaemon;
        use palaemon::crypto::aead::AeadKey;
        use palaemon::crypto::sig::SigningKey;
        use palaemon::crypto::Digest;
        use palaemon::db::Db;
        use shielded_fs::store::MemStore;
        use std::sync::Arc;
        use std::time::{Duration, Instant};

        const REPLICAS: u32 = 3;
        const POLICIES: u8 = 2;
        let owner = SigningKey::from_seed(b"pipe-owner").verifying_key();
        let versioned = |p: u8, version: u64| {
            Policy::parse(&format!(
                "name: pipe-{p}\nservices:\n  - name: app\n    mrenclaves: [\"{}\"]\n    \
                 env:\n      VERSION: \"{version}\"\nvolumes: []\n",
                Digest::from_bytes([0xB7; 32]).to_hex()
            ))
            .unwrap()
        };

        let id = ShardId(0);
        let router = ClusterRouter::new(88, 32);
        let set: Vec<_> = (0..REPLICAS)
            .map(|r| {
                let db = Db::create(Box::new(MemStore::new()), AeadKey::from_bytes([r as u8; 32])).expect("create db");
                let engine = Arc::new(Palaemon::new(
                    db,
                    SigningKey::from_seed(format!("pipe-{r}").as_bytes()),
                    Digest::ZERO,
                    u64::from(r),
                ));
                let (server, counter) = strict_shard(engine, MemFileCounter::new());
                (server, Some(counter))
            })
            .collect();
        router.add_replicated_shard(id, set, 2).unwrap();
        router.set_read_preference(ReadPreference::Quorum);
        let plan = FaultPlan::new([]);
        router.set_fault_plan(Arc::clone(&plan));

        let update = &|p: u8, version: u64| {
            router.handle(TmsRequest::UpdatePolicy {
                client: owner,
                policy: Box::new(versioned(p, version)),
                approval: None,
                votes: Vec::new(),
            })
        };
        let mut version = 1u64;
        let mut acked = [1u64; POLICIES as usize];
        for p in 0..POLICIES {
            router
                .handle(TmsRequest::CreatePolicy {
                    owner,
                    policy: Box::new(versioned(p, version)),
                    approval: None,
                    votes: Vec::new(),
                })
                .unwrap();
        }

        // The driver's mirror of the wedges, so it knows which update will
        // park: stalls armed for a coming operation, and the channels
        // already wedged (a stall fires at its operation's enqueue for a
        // live non-primary replica; only reinstate clears it).
        let mut armed: Vec<(u64, usize)> = Vec::new();
        let mut stalled = [false; REPLICAS as usize];
        // Drain: a repair, one update that may still meet an armed fault,
        // and the repair that fences it.
        let drain = [PipelineOp::Reinstate, PipelineOp::Update(0), PipelineOp::Reinstate];

        std::thread::scope(|scope| {
            let mut parked = Vec::new();
            for op in ops.into_iter().chain(drain) {
                let (mut fenced, mut crashed) = (false, false);
                match op {
                    PipelineOp::Update(p) => {
                        version += 1;
                        let status = router.replica_status(id).unwrap();
                        let this_op = status.ops + 1;
                        let routable = !status.replicas[status.primary].quarantined;
                        if routable {
                            for &(at, r) in &armed {
                                if at == this_op && r != status.primary && !status.replicas[r].quarantined {
                                    stalled[r] = true;
                                }
                            }
                            armed.retain(|&(at, _)| at > this_op);
                        }
                        let followers = || status.replicas.iter().filter(|r| !r.primary && r.in_quorum);
                        let wedged = routable && followers().any(|r| stalled[r.replica]);
                        // A clear follower makes the quorum — unless it is
                        // replica 1, whose window a `DropBatch` may take.
                        let vouched = followers().any(|r| !stalled[r.replica] && r.replica != 1);
                        if wedged && vouched {
                            prop_assert!(
                                update(p, version).is_ok(),
                                "a wedged follower outside the quorum held up the ack"
                            );
                            acked[p as usize] = version;
                        } else if wedged {
                            let writer = scope.spawn(move || update(p, version));
                            // Enqueued (hence parked) before the schedule moves on.
                            let deadline = Instant::now() + Duration::from_secs(10);
                            while router.replica_status(id).unwrap().ops < this_op && !writer.is_finished() {
                                assert!(Instant::now() < deadline, "parked update never enqueued");
                                std::thread::yield_now();
                            }
                            parked.push((writer, p, version));
                        } else if update(p, version).is_ok() {
                            acked[p as usize] = version;
                        }
                    }
                    PipelineOp::Stall(r) => {
                        let next = router.replica_status(id).unwrap().ops + 1;
                        plan.schedule(PlannedFault {
                            shard: id,
                            op: next,
                            kind: FaultKind::StallForwardChannel(r as usize),
                        });
                        armed.push((next, r as usize));
                    }
                    PipelineOp::DropBatch => {
                        let next = router.replica_status(id).unwrap().ops + 1;
                        plan.schedule(PlannedFault {
                            shard: id,
                            op: next,
                            kind: FaultKind::DropBatch(1),
                        });
                    }
                    PipelineOp::Flush => {
                        router.flush_replication(id);
                    }
                    PipelineOp::CrashPrimary => {
                        router.quarantine(id, "prop: crash");
                        fenced = true;
                        crashed = true;
                    }
                    PipelineOp::Reinstate => {
                        router.reinstate(id);
                        stalled = [false; REPLICAS as usize];
                        fenced = true;
                    }
                }
                if fenced {
                    // The fence delivered through every wedge: each parked
                    // update has its verdicts and returns.
                    for (writer, p, version) in parked.drain(..) {
                        if writer.join().unwrap().is_ok() {
                            acked[p as usize] = acked[p as usize].max(version);
                        }
                    }
                }

                let status = router.replica_status(id).unwrap();
                if status.replicas[status.primary].quarantined {
                    continue; // group dark until a repair
                }
                // Invariant 1: several reads of both policies, so the rotation
                // crosses every eligible replica — none may serve older than
                // that policy's last acked write, follower lag notwithstanding.
                // After a crash the freshly elected seat answers alone first.
                let placements: &[ReadPreference] = if crashed {
                    &[ReadPreference::Primary, ReadPreference::Quorum]
                } else {
                    &[ReadPreference::Quorum]
                };
                for &placement in placements {
                    router.set_read_preference(placement);
                    for p in 0..POLICIES {
                        for _ in 0..REPLICAS as usize {
                            match router.handle(TmsRequest::ReadPolicy {
                                name: format!("pipe-{p}"),
                                client: owner,
                                approval: None,
                                votes: Vec::new(),
                            }) {
                                Ok(TmsResponse::Policy(policy)) => {
                                    let seen: u64 = policy.services[0].env["VERSION"].parse().unwrap();
                                    prop_assert!(
                                        seen >= acked[p as usize],
                                        "{placement:?} read of pipe-{p} saw v{seen} after v{} was acked",
                                        acked[p as usize]
                                    );
                                }
                                other => prop_assert!(false, "routable group must serve: {other:?}"),
                            }
                        }
                    }
                }
            }
            prop_assert!(parked.is_empty(), "the drain ends on a fence");
        });

        // The schedule is spent: force chained mutations on both policies,
        // then repair and flush so everything queued lands.
        for p in [1u8, 0] {
            version += 1;
            prop_assert!(update(p, version).is_ok(), "the clean drain update must ack");
            acked[p as usize] = version;
        }
        router.reinstate(id);
        router.flush_replication(id);
        let status = router.replica_status(id).unwrap();
        prop_assert!(status.replicas.iter().all(|r| r.in_quorum));

        // Invariant 2: no silent divergence — every replica identical.
        let engines = router.replica_engines(id);
        for p in 0..POLICIES {
            let name = format!("pipe-{p}");
            let reference = engines[status.primary].export_policy_records(&name);
            for (k, engine) in engines.iter().enumerate() {
                prop_assert!(
                    engine.export_policy_records(&name) == reference,
                    "replica {k} diverged from the primary on {name}"
                );
            }
        }
        let repl = router.stats().shards[0].replication;
        prop_assert!(repl.batches_shipped > 0, "forwards must ride the channels: {repl:?}");
        prop_assert!(
            repl.snapshot_resyncs <= repl.sequence_rejections,
            "resyncs only happen against a detected break: {repl:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For arbitrary interleavings of mutations, primary crashes, counter
    /// rollbacks (within the `write_quorum - 1` tolerance, see below),
    /// dropped forwards and repairs:
    ///
    /// 1. a read never returns a version older than the last quorum-acked
    ///    write of that policy (in particular post-failover), and
    /// 2. the replica holding the primary seat always has the maximum
    ///    applied counter token among in-quorum replicas — i.e. the
    ///    election always picks the freshest candidate and never a
    ///    rolled-back one.
    #[test]
    fn failover_never_serves_older_than_acked(
        ops in proptest::collection::vec(failover_op_strategy(), 1..40)
    ) {
        use palaemon::core::counterfile::MemFileCounter;
        use palaemon::core::policy::Policy;
        use palaemon::core::server::{TmsRequest, TmsResponse};
        use palaemon::core::tms::Palaemon;
        use palaemon::crypto::aead::AeadKey;
        use palaemon::crypto::sig::SigningKey;
        use palaemon::crypto::Digest;
        use palaemon::db::Db;
        use shielded_fs::store::MemStore;
        use std::sync::Arc;

        const POLICIES: u8 = 4;
        const REPLICAS: u32 = 3;
        let owner = SigningKey::from_seed(b"prop-owner").verifying_key();
        let versioned = |p: u8, version: u64| {
            Policy::parse(&format!(
                "name: prop-{p}\nservices:\n  - name: app\n    mrenclaves: [\"{}\"]\n    \
                 env:\n      VERSION: \"{version}\"\nvolumes: []\n",
                Digest::from_bytes([0xF0; 32]).to_hex()
            ))
            .unwrap()
        };

        // One replicated shard: every policy routes to it.
        let id = ShardId(0);
        let router = ClusterRouter::new(99, 32);
        let set: Vec<_> = (0..REPLICAS)
            .map(|r| {
                let db = Db::create(Box::new(MemStore::new()), AeadKey::from_bytes([r as u8; 32])).expect("create db");
                let engine = Arc::new(Palaemon::new(
                    db,
                    SigningKey::from_seed(format!("prop-{r}").as_bytes()),
                    Digest::ZERO,
                    u64::from(r),
                ));
                let (server, counter) = strict_shard(engine, MemFileCounter::new());
                (server, Some(counter))
            })
            .collect();
        router.add_replicated_shard(id, set, 2).unwrap();
        let plan = FaultPlan::new([]);
        router.set_fault_plan(Arc::clone(&plan));

        let mut acked = [0u64; POLICIES as usize];
        let mut version = 0u64;
        for p in 0..POLICIES {
            version += 1;
            router
                .handle(TmsRequest::CreatePolicy {
                    owner,
                    policy: Box::new(versioned(p, version)),
                    approval: None,
                    votes: Vec::new(),
                })
                .unwrap();
            acked[p as usize] = version;
        }

        // A rollback attack destroys its victim's freshness evidence, so a
        // quorum protocol can only tolerate `write_quorum - 1` un-repaired
        // victims at once (here: one) — beyond that, every holder of an
        // acked write may have been compromised and no election can
        // recover it. Crashes and partitions are fail-stop (state and
        // token survive) and are *not* budgeted. The driver enforces the
        // budget the way a deployment's monitoring would.
        let mut rollback_armed_at: Option<u64> = None;
        for op in ops {
            match op {
                FailoverOp::Update(p) => {
                    version += 1;
                    let outcome = router.handle(TmsRequest::UpdatePolicy {
                        client: owner,
                        policy: Box::new(versioned(p, version)),
                        approval: None,
                        votes: Vec::new(),
                    });
                    if outcome.is_ok() {
                        // Only acknowledged writes enter the model.
                        acked[p as usize] = version;
                    }
                }
                FailoverOp::CrashPrimary => {
                    router.quarantine(id, "prop: crash");
                }
                FailoverOp::Rollback(r) => {
                    if rollback_armed_at.is_none() {
                        let next = router.replica_status(id).unwrap().ops + 1;
                        plan.schedule(PlannedFault {
                            shard: id,
                            op: next,
                            kind: FaultKind::CounterRollback { replica: r as usize, to: 0 },
                        });
                        rollback_armed_at = Some(next);
                    }
                }
                FailoverOp::Drop(r) => {
                    let next = router.replica_status(id).unwrap().ops + 1;
                    plan.schedule(PlannedFault {
                        shard: id,
                        op: next,
                        kind: FaultKind::DropForwardToReplica(r as usize),
                    });
                }
                FailoverOp::Reinstate => {
                    router.reinstate(id);
                    // The repair clears the rollback budget once the fault
                    // actually fired (an armed-but-unfired fault stays
                    // pending).
                    if let Some(at) = rollback_armed_at {
                        if router.replica_status(id).unwrap().ops >= at {
                            rollback_armed_at = None;
                        }
                    }
                }
            }
            // The health monitor runs after every step: it quarantines
            // rolled-back replicas (failing over when the primary is hit).
            router.health_check();

            // Invariant 2: the seat always holds the max applied token
            // among in-quorum replicas.
            let status = router.replica_status(id).unwrap();
            let seat = &status.replicas[status.primary];
            if !seat.quarantined {
                for r in &status.replicas {
                    if r.in_quorum {
                        prop_assert!(
                            seat.applied >= r.applied,
                            "primary #{} (applied {}) behind in-quorum #{} (applied {})",
                            status.primary, seat.applied, r.replica, r.applied
                        );
                    }
                }
                // Invariant 1: reads serve at least the last acked write.
                for p in 0..POLICIES {
                    match router.handle(TmsRequest::ReadPolicy {
                        name: format!("prop-{p}"),
                        client: owner,
                        approval: None,
                        votes: Vec::new(),
                    }) {
                        Ok(TmsResponse::Policy(policy)) => {
                            let seen: u64 = policy.services[0].env["VERSION"].parse().unwrap();
                            prop_assert!(
                                seen >= acked[p as usize],
                                "policy prop-{p}: read v{seen} after v{} was acked",
                                acked[p as usize]
                            );
                        }
                        other => prop_assert!(false, "routable group must serve: {other:?}"),
                    }
                }
            }
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum ExportOp {
    /// Create producer `0..3` (exporting its secret to the consumer).
    Create(u8),
    /// Update producer `0..3` to stop exporting.
    Drop(u8),
    /// Update producer `0..3` to export again.
    Restore(u8),
    /// Delete producer `0..3`.
    Delete(u8),
    /// Grow the ring by one shard (migrates whatever the ring reassigns).
    AddShard,
    /// Drain the most recently added shard (migrates its policies back).
    DrainShard,
}

fn export_op_strategy() -> impl Strategy<Value = ExportOp> {
    prop_oneof![
        (0u8..3).prop_map(ExportOp::Create),
        (0u8..3).prop_map(ExportOp::Create),
        (0u8..3).prop_map(ExportOp::Drop),
        (0u8..3).prop_map(ExportOp::Restore),
        (0u8..3).prop_map(ExportOp::Delete),
        Just(ExportOp::AddShard),
        Just(ExportOp::DrainShard),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// For arbitrary interleavings of producer lifecycle events (create /
    /// drop-export / restore-export / delete) with ring changes (add /
    /// drain shards — i.e. live migration of producers and the consumer),
    /// attesting the consumer always delivers **exactly** the secrets of
    /// the currently-live, currently-exporting producers: no dropped or
    /// deleted producer's secret lingers, and no live export goes missing
    /// because producer and consumer landed on different shards.
    #[test]
    fn cross_shard_exports_track_producers_through_migration(
        ops in proptest::collection::vec(export_op_strategy(), 1..25)
    ) {
        use palaemon::core::counterfile::MemFileCounter;
        use palaemon::core::policy::Policy;
        use palaemon::core::server::{TmsRequest, TmsResponse};
        use palaemon::core::tms::Palaemon;
        use palaemon::crypto::Digest;
        use palaemon::tee_sim::platform::{Microcode, Platform};
        use palaemon::tee_sim::quote::{create_report, quote_report};
        use std::sync::Arc;

        let platform = Platform::new("xp-host", Microcode::PostForeshadow);
        let mre = Digest::from_bytes([0xF0; 32]);
        let owner = SigningKey::from_seed(b"xp-owner").verifying_key();
        let shard = |tag: u32| {
            let db = Db::create(Box::new(MemStore::new()), AeadKey::from_bytes([tag as u8; 32])).expect("create db");
            let engine = Arc::new(Palaemon::new(
                db,
                SigningKey::from_seed(format!("xp-shard-{tag}").as_bytes()),
                Digest::ZERO,
                7 + u64::from(tag),
            ));
            engine.register_platform(platform.id(), platform.qe_verifying_key());
            strict_shard(engine, MemFileCounter::new())
        };
        let producer = |p: u8, exporting: bool| {
            let export = if exporting { "\n    export: xcons" } else { "" };
            Policy::parse(&format!(
                "name: xprod-{p}\nservices:\n  - name: app\n    mrenclaves: [\"{}\"]\n\
                 secrets:\n  - name: key-{p}\n    kind: binary\n    length: 32{export}\n",
                mre.to_hex()
            ))
            .unwrap()
        };

        let router = ClusterRouter::new(77, 32);
        for i in 0..2u32 {
            let (server, counter) = shard(i);
            router.add_shard(ShardId(i), server, Some(counter)).unwrap();
        }
        router
            .handle(TmsRequest::CreatePolicy {
                owner,
                policy: Box::new(Policy::parse(&format!(
                    "name: xcons\nservices:\n  - name: app\n    mrenclaves: [\"{}\"]\n",
                    mre.to_hex()
                )).unwrap()),
                approval: None,
                votes: Vec::new(),
            })
            .unwrap();

        let mut present = [false; 3];
        let mut exporting = [false; 3];
        let mut added: Vec<u32> = Vec::new();
        let mut next_shard = 2u32;
        for op in ops {
            match op {
                ExportOp::Create(p) => {
                    if !present[p as usize] {
                        router
                            .handle(TmsRequest::CreatePolicy {
                                owner,
                                policy: Box::new(producer(p, true)),
                                approval: None,
                                votes: Vec::new(),
                            })
                            .unwrap();
                        present[p as usize] = true;
                        exporting[p as usize] = true;
                    }
                }
                ExportOp::Drop(p) | ExportOp::Restore(p) => {
                    let want = matches!(op, ExportOp::Restore(_));
                    if present[p as usize] && exporting[p as usize] != want {
                        router
                            .handle(TmsRequest::UpdatePolicy {
                                client: owner,
                                policy: Box::new(producer(p, want)),
                                approval: None,
                                votes: Vec::new(),
                            })
                            .unwrap();
                        exporting[p as usize] = want;
                    }
                }
                ExportOp::Delete(p) => {
                    if present[p as usize] {
                        router
                            .handle(TmsRequest::DeletePolicy {
                                name: format!("xprod-{p}"),
                                client: owner,
                                approval: None,
                                votes: Vec::new(),
                            })
                            .unwrap();
                        present[p as usize] = false;
                        exporting[p as usize] = false;
                    }
                }
                ExportOp::AddShard => {
                    if added.len() < 4 {
                        let (server, counter) = shard(next_shard);
                        router
                            .add_shard(ShardId(next_shard), server, Some(counter))
                            .unwrap();
                        added.push(next_shard);
                        next_shard += 1;
                    }
                }
                ExportOp::DrainShard => {
                    if let Some(id) = added.pop() {
                        router.drain_shard(ShardId(id)).unwrap();
                    }
                }
            }

            // The consumer's attestation delivers exactly the live,
            // exporting producers' secrets — wherever the ring currently
            // places the producers and the consumer.
            let binding = [0u8; 64];
            let report = create_report(&platform, mre, binding);
            let quote = quote_report(&platform, &report).unwrap();
            let config = match router
                .handle(TmsRequest::AttestService {
                    quote: Box::new(quote),
                    tls_key_binding: binding,
                    policy_name: "xcons".into(),
                    service_name: "app".into(),
                })
                .unwrap()
            {
                TmsResponse::Config(config) => config,
                other => panic!("expected Config, got {other:?}"),
            };
            let mut got: Vec<String> = config.secrets.keys().cloned().collect();
            got.sort_unstable();
            let mut expect: Vec<String> = (0..3u8)
                .filter(|&p| present[p as usize] && exporting[p as usize])
                .map(|p| format!("key-{p}"))
                .collect();
            expect.sort_unstable();
            prop_assert_eq!(&got, &expect, "live exports must match live producers");
            router
                .handle(TmsRequest::CloseSession { session: config.session })
                .unwrap();
        }
    }
}
