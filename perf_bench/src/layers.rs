//! Single-caller probes of each layer's public functions, and the layer
//! ledger built by differencing them: one `PushTag` at R=1 and R=3, one
//! `ReadTag` and one `AttestService`, each split into self time per layer
//! without a line of the program changed.
//!
//! Every probe runs on plain `MemStore`s with no modelled delay, one caller,
//! so the numbers are the machine's CPU time on that path.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use palaemon_cluster::{strict_shard, ClusterDoor, ClusterRouter, ReadPreference};
use palaemon_core::counterfile::{BatchedCounter, ShieldedCounter};
use palaemon_core::frontdoor::FrontDoor;
use palaemon_core::policy::Policy;
use palaemon_core::server::{TmsRequest, TmsResponse, TmsServer};
use palaemon_core::tms::{Palaemon, SessionId};
use palaemon_crypto::aead::AeadKey;
use palaemon_crypto::sha256::Sha256;
use palaemon_crypto::sig::SigningKey;
use palaemon_crypto::Digest;
use palaemon_db::Db;
use shielded_fs::fs::{ShieldedFs, TagEvent};
use shielded_fs::store::MemStore;

use crate::probe::SpanSink;
use crate::rig::{
    build_replica, sample_policy_text, tag_for, Factory, DOOR_CAPACITY, DOOR_WORKERS, SHARD,
};
use crate::stats::{median, range};
use crate::workload::Kind;

/// Repetitions of each probe; the median is reported and the range is the
/// probe's run-to-run spread.
const REPS: usize = 5;

/// One probe's result, in nanoseconds per call.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Timing {
    pub ns: f64,
    /// Largest minus smallest repetition.
    pub spread_ns: f64,
}

impl Timing {
    fn us(self) -> f64 {
        self.ns / 1e3
    }
}

/// Times `op`, which says whether its call succeeded: `REPS` repetitions of
/// `budget / REPS` each, every one the mean over however many calls fit. A
/// single failed call is an error — the time of an error path is not the
/// layer's.
fn time_op(what: &str, budget: Duration, mut op: impl FnMut() -> bool) -> Result<Timing, String> {
    let per_rep = (budget / REPS as u32).max(Duration::from_millis(1));
    let mut failed = 0u64;
    for _ in 0..4 {
        failed += u64::from(!op());
    }
    let reps: Vec<f64> = (0..REPS)
        .map(|_| {
            let start = Instant::now();
            let mut calls = 0u64;
            loop {
                for _ in 0..8 {
                    failed += u64::from(!op());
                }
                calls += 8;
                let elapsed = start.elapsed();
                if elapsed >= per_rep {
                    break elapsed.as_nanos() as f64 / calls as f64;
                }
            }
        })
        .collect();
    if failed > 0 {
        return Err(format!("probe {what}: {failed} calls failed"));
    }
    Ok(Timing {
        ns: median(&reps),
        spread_ns: range(&reps),
    })
}

/// What the probes measured.
#[derive(Debug, Default)]
pub struct ProbeResults {
    /// Per-layer metric name → value.
    pub metrics: Vec<(&'static str, f64)>,
    /// The printed ledger.
    pub ledger: Vec<String>,
}

/// A bare engine holding `factory`'s policies, with one attested session.
fn engine_fixture(factory: &Factory) -> Result<(Arc<Palaemon>, SessionId), String> {
    let db = Db::create(Box::new(MemStore::new()), AeadKey::from_bytes([0x21; 32]))
        .map_err(|e| format!("probe db: {e}"))?;
    let engine = Arc::new(Palaemon::new(
        db,
        SigningKey::from_seed(b"perf-probe"),
        Digest::ZERO,
        0x9E0B,
    ));
    engine.register_platform(&factory.platform_id, factory.qe_key);
    for i in 0..factory.names.len() {
        engine
            .create_policy(&factory.owner, factory.policy(i as u32, 0), None, &[])
            .map_err(|e| format!("probe create: {e}"))?;
    }
    let signed = &factory.quotes[0];
    let session = engine
        .attest_service(&signed.quote, &signed.binding, &factory.names[0], "app")
        .map_err(|e| format!("probe attest: {e}"))?
        .session;
    Ok((engine, session))
}

fn shielded_counter() -> Result<ShieldedCounter, String> {
    let fs = ShieldedFs::create(Box::new(MemStore::new()), AeadKey::from_bytes([0x22; 32]));
    ShieldedCounter::create(fs).map_err(|e| format!("probe counter: {e}"))
}

/// A router over one R-replica group on `MemStore`s holding `factory`'s
/// policies, with one attested session.
fn router_fixture(
    factory: &Factory,
    replicas: u32,
) -> Result<(Arc<ClusterRouter>, SessionId), String> {
    let spans = SpanSink::new();
    let router = Arc::new(ClusterRouter::new(0x9A1A, 64));
    let mut set = Vec::new();
    for r in 0..replicas {
        set.push(build_replica(r, false, factory, &spans)?.0);
    }
    router
        .add_replicated_shard(SHARD, set, (replicas as usize).min(2))
        .map_err(|e| format!("probe shard: {e}"))?;
    if replicas > 1 {
        router.set_read_preference(ReadPreference::Quorum);
    }
    for i in 0..factory.names.len() {
        router
            .handle(TmsRequest::CreatePolicy {
                owner: factory.owner,
                policy: Box::new(factory.policy(i as u32, 0)),
                approval: None,
                votes: Vec::new(),
            })
            .map_err(|e| format!("probe create: {e}"))?;
    }
    match router.handle(factory.request(Kind::Attest, 0, SessionId(0), 0, 0)) {
        Ok(TmsResponse::Config(config)) => Ok((router, config.session)),
        other => Err(format!("probe attest: {other:?}")),
    }
}

/// One ledger: the top-level probe split into self time per layer. Each
/// row is `(layer, self time, spread of the probes it was differenced
/// from)`; by construction the rows sum to `top`.
fn ledger(title: &str, top: Timing, rows: &[(&str, f64, f64)]) -> Vec<String> {
    let mut out = vec![format!(
        "  ledger: {title} = {:.2} us (probe spread {:.2} us)",
        top.us(),
        top.spread_ns / 1e3
    )];
    let mut sum = 0.0;
    for (layer, self_ns, spread_ns) in rows {
        sum += self_ns;
        let note = if self_ns.abs() <= *spread_ns {
            "  (inside the probes' run-to-run spread)"
        } else {
            ""
        };
        out.push(format!(
            "    {layer:<12} {:>10.2} us  {:>5.1} %{note}",
            self_ns / 1e3,
            100.0 * self_ns / top.ns.max(1.0)
        ));
    }
    out.push(format!("    {:<12} {:>10.2} us", "sum", sum / 1e3));
    out
}

/// `a - b`, with the spread of the difference.
fn diff(a: Timing, b: &[Timing]) -> (f64, f64) {
    (
        a.ns - b.iter().map(|t| t.ns).sum::<f64>(),
        a.spread_ns + b.iter().map(|t| t.spread_ns).sum::<f64>(),
    )
}

/// Runs every probe. `seconds` is the run's window; each probe gets 1/150
/// of it. A fixture that cannot be built or a probed call that fails is an
/// error: the run reports it and prints no metrics.
pub fn run_probes(seconds: f64, policies: usize) -> Result<ProbeResults, String> {
    let budget = Duration::from_secs_f64(seconds / 150.0);
    let factory = Factory::new(policies)?;
    let mut seq = 0u64;
    let mut next = || {
        seq += 1;
        seq
    };

    // crypto, tee-sim, policy
    let key = AeadKey::from_bytes([0x33; 32]);
    let block = vec![0xABu8; 4096];
    let seal_4k = time_op("crypto.aead_seal_4k", budget, || {
        black_box(key.seal(b"probe", black_box(&block), b"aad"));
        true
    })?;
    let sealed = key.seal(b"probe", &block, b"aad");
    let open_4k = time_op("crypto.aead_open_4k", budget, || {
        key.open(b"probe", black_box(&sealed), b"aad").is_ok()
    })?;
    // The WAL batch a tag push seals is about this size.
    let small = vec![0xCDu8; 96];
    let seal_small = time_op("crypto.aead_seal_96", budget, || {
        black_box(key.seal(b"probe", black_box(&small), b"aad"));
        true
    })?;
    let sha_4k = time_op("crypto.sha256_4k", budget, || {
        black_box(Sha256::digest(black_box(&block)));
        true
    })?;
    let signer = SigningKey::from_seed(b"perf-probe-sig");
    let verifier = signer.verifying_key();
    let signature = signer.sign(&block[..64]);
    let sig_verify = time_op("crypto.sig_verify", budget, || {
        verifier.verify(black_box(&block[..64]), &signature).is_ok()
    })?;
    let signed = factory.quotes[0].clone();
    let quote_verify = time_op("tee-sim.quote_verify", budget, || {
        signed.quote.verify(&factory.qe_key).is_ok()
    })?;
    let text = sample_policy_text();
    let parse = time_op("policy.parse", budget, || {
        Policy::parse(black_box(&text)).is_ok()
    })?;

    // shielded-fs, counterfile
    let mut fs = ShieldedFs::create(Box::new(MemStore::new()), AeadKey::from_bytes([0x34; 32]));
    let fs_write = time_op("shielded-fs.write", budget, || {
        fs.write("/counter", &next().to_be_bytes()).is_ok()
    })?;
    let batched = BatchedCounter::new(shielded_counter()?);
    let counter_commit = time_op("counterfile.commit", budget, || batched.commit().is_ok())?;

    // kvdb, on a database the size the workloads run against
    let mut db = Db::create(Box::new(MemStore::new()), AeadKey::from_bytes([0x35; 32]))
        .map_err(|e| format!("probe db: {e}"))?;
    for i in 0..policies {
        for part in ["policy", "owner", "volkey", "tag"] {
            db.put(
                format!("{part}/tenant_{i}/data").into_bytes(),
                vec![0x5A; 256],
            );
        }
    }
    db.commit().map_err(|e| format!("probe db: {e}"))?;
    let put_commit = time_op("kvdb.put_commit", budget, || {
        db.put(b"tag/tenant_0/data".to_vec(), next().to_be_bytes().to_vec());
        db.commit().is_ok()
    })?;
    let view = time_op("kvdb.view", budget, || {
        black_box(db.view());
        true
    })?;
    let snapshot = db.view();
    let lookup = format!("tag/tenant_{}/data", policies / 2).into_bytes();
    let view_get = time_op("kvdb.view_get", budget, || {
        snapshot.get(black_box(&lookup)).is_some()
    })?;

    // tms: the engine's own operations
    let (engine, session) = engine_fixture(&factory)?;
    let tms_push = time_op("tms.push_tag", budget, || {
        let tag = tag_for(0, next());
        engine
            .push_tag(session, "data", tag, TagEvent::Sync)
            .is_ok()
    })?;
    let tms_update = time_op("tms.update_policy", budget, || {
        let policy = factory.policy(0, next());
        engine
            .update_policy(&factory.owner, policy, None, &[])
            .is_ok()
    })?;
    let tms_read_tag = time_op("tms.read_tag", budget, || {
        engine.read_tag(session, "data").is_ok()
    })?;
    let tms_read_policy = time_op("tms.read_policy", budget, || {
        engine
            .read_policy(&factory.names[0], &factory.owner, None, &[])
            .is_ok()
    })?;
    let tms_attest = time_op("tms.attest", budget, || {
        engine
            .attest_service(&signed.quote, &signed.binding, &factory.names[0], "app")
            .is_ok()
    })?;
    drop(engine);

    // server: the strict front-end (engine + Fig. 6 counter commit)
    let (engine, session) = engine_fixture(&factory)?;
    let (server, _counter): (TmsServer, _) = strict_shard(engine, shielded_counter()?);
    let server_push = time_op("server.push_tag", budget, || {
        let request = factory.request(Kind::PushTag, 0, session, next(), 0);
        server.handle(request).is_ok()
    })?;
    let server_read = time_op("server.read_tag", budget, || {
        let request = factory.request(Kind::ReadTag, 0, session, 0, 0);
        server.handle(request).is_ok()
    })?;
    let server_attest = time_op("server.attest", budget, || {
        let request = factory.request(Kind::Attest, 0, session, 0, 0);
        server.handle(request).is_ok()
    })?;
    drop(server);

    // cluster and frontdoor, R=1
    let (router, session) = router_fixture(&factory, 1)?;
    let r1_push = time_op("cluster.r1_push_tag", budget, || {
        let request = factory.request(Kind::PushTag, 0, session, next(), 0);
        router.handle(request).is_ok()
    })?;
    let door = FrontDoor::with_capacity(
        ClusterDoor(Arc::clone(&router)),
        DOOR_WORKERS,
        DOOR_CAPACITY,
    );
    let door_r1_push = time_op("frontdoor.r1_push_tag", budget, || {
        let request = factory.request(Kind::PushTag, 0, session, next(), 0);
        door.submit(request).wait().is_ok()
    })?;
    let roundtrip = time_op("frontdoor.roundtrip", budget, || {
        door.submit(TmsRequest::PolicyCount).wait().is_ok()
    })?;
    drop(door);
    drop(router);

    // cluster and frontdoor, R=3 with quorum reads
    let (router, session) = router_fixture(&factory, 3)?;
    let r3_push = time_op("cluster.r3_push_tag", budget, || {
        let request = factory.request(Kind::PushTag, 0, session, next(), 0);
        router.handle(request).is_ok()
    })?;
    let r3_read = time_op("cluster.r3_read_tag", budget, || {
        let request = factory.request(Kind::ReadTag, 0, session, 0, 0);
        router.handle(request).is_ok()
    })?;
    let r3_attest = time_op("cluster.r3_attest", budget, || {
        let request = factory.request(Kind::Attest, 0, session, 0, 0);
        router.handle(request).is_ok()
    })?;
    let door = FrontDoor::with_capacity(
        ClusterDoor(Arc::clone(&router)),
        DOOR_WORKERS,
        DOOR_CAPACITY,
    );
    let door_r3_push = time_op("frontdoor.r3_push_tag", budget, || {
        let request = factory.request(Kind::PushTag, 0, session, next(), 0);
        door.submit(request).wait().is_ok()
    })?;
    let door_r3_read = time_op("frontdoor.r3_read_tag", budget, || {
        let request = factory.request(Kind::ReadTag, 0, session, 0, 0);
        door.submit(request).wait().is_ok()
    })?;
    let door_r3_attest = time_op("frontdoor.r3_attest", budget, || {
        let request = factory.request(Kind::Attest, 0, session, 0, 0);
        door.submit(request).wait().is_ok()
    })?;
    drop(door);
    drop(router);

    let metrics = vec![
        ("frontdoor.roundtrip_us", roundtrip.us()),
        ("cluster.r1_push_tag_us", r1_push.us()),
        ("cluster.r3_push_tag_us", r3_push.us()),
        ("cluster.r3_read_tag_us", r3_read.us()),
        ("cluster.r3_attest_us", r3_attest.us()),
        ("server.push_tag_us", server_push.us()),
        ("server.read_tag_us", server_read.us()),
        ("tms.push_tag_us", tms_push.us()),
        ("tms.update_policy_us", tms_update.us()),
        ("tms.read_tag_us", tms_read_tag.us()),
        ("tms.read_policy_us", tms_read_policy.us()),
        ("tms.attest_us", tms_attest.us()),
        ("policy.parse_us", parse.us()),
        ("counterfile.commit_us", counter_commit.us()),
        ("kvdb.put_commit_us", put_commit.us()),
        ("kvdb.view_ns", view.ns),
        ("kvdb.view_get_ns", view_get.ns),
        ("shielded-fs.write_us", fs_write.us()),
        ("crypto.aead_seal_4k_us", seal_4k.us()),
        ("crypto.aead_open_4k_us", open_4k.us()),
        ("crypto.sha256_4k_us", sha_4k.us()),
        ("crypto.sig_verify_us", sig_verify.us()),
        ("tee-sim.quote_verify_us", quote_verify.us()),
    ];

    // The ledgers. Self time of a layer is its probe minus the probes of
    // the layers it calls; the counter file's own file-system and AEAD work
    // stays in its row, `crypto` is the seal (or signature check) on the
    // engine's path.
    let push_rows = |top: Timing, cluster: Timing| {
        let (fd, fd_s) = diff(top, &[cluster]);
        let (cl, cl_s) = diff(cluster, &[server_push]);
        let (sv, sv_s) = diff(server_push, &[tms_push, counter_commit]);
        let (tm, tm_s) = diff(tms_push, &[put_commit]);
        let (kv, kv_s) = diff(put_commit, &[seal_small]);
        vec![
            ("frontdoor", fd, fd_s),
            ("cluster", cl, cl_s),
            ("server", sv, sv_s),
            ("tms", tm, tm_s),
            ("counterfile", counter_commit.ns, counter_commit.spread_ns),
            ("kvdb", kv, kv_s),
            ("crypto", seal_small.ns, seal_small.spread_ns),
        ]
    };
    let mut lines = Vec::new();
    lines.extend(ledger(
        "PushTag R=1 through the front door",
        door_r1_push,
        &push_rows(door_r1_push, r1_push),
    ));
    lines.extend(ledger(
        "PushTag R=3 through the front door",
        door_r3_push,
        &push_rows(door_r3_push, r3_push),
    ));
    {
        let reads = Timing {
            ns: view.ns + view_get.ns,
            spread_ns: view.spread_ns + view_get.spread_ns,
        };
        let (fd, fd_s) = diff(door_r3_read, &[r3_read]);
        let (cl, cl_s) = diff(r3_read, &[server_read]);
        let (sv, sv_s) = diff(server_read, &[tms_read_tag]);
        let (tm, tm_s) = diff(tms_read_tag, &[reads]);
        lines.extend(ledger(
            "ReadTag R=3 (quorum reads) through the front door",
            door_r3_read,
            &[
                ("frontdoor", fd, fd_s),
                ("cluster", cl, cl_s),
                ("server", sv, sv_s),
                ("tms", tm, tm_s),
                ("counterfile", 0.0, 0.0),
                ("kvdb", reads.ns, reads.spread_ns),
                ("crypto", 0.0, 0.0),
            ],
        ));
    }
    {
        let (fd, fd_s) = diff(door_r3_attest, &[r3_attest]);
        let (cl, cl_s) = diff(r3_attest, &[server_attest]);
        let (sv, sv_s) = diff(server_attest, &[tms_attest]);
        let (tm, tm_s) = diff(tms_attest, &[quote_verify]);
        lines.extend(ledger(
            "AttestService R=3 (quorum placement) through the front door",
            door_r3_attest,
            &[
                ("frontdoor", fd, fd_s),
                ("cluster", cl, cl_s),
                ("server", sv, sv_s),
                ("tms", tm, tm_s),
                ("counterfile", 0.0, 0.0),
                ("kvdb", 0.0, 0.0),
                ("crypto", quote_verify.ns, quote_verify.spread_ns),
            ],
        ));
    }
    Ok(ProbeResults {
        metrics,
        ledger: lines,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_rows_sum_to_the_top_level_probe() {
        let t = |ns: f64| Timing { ns, spread_ns: 1.0 };
        let (top, cluster, server) = (t(100.0), t(70.0), t(40.0));
        let (fd, fd_s) = diff(top, &[cluster]);
        let (cl, cl_s) = diff(cluster, &[server]);
        let rows = [
            ("frontdoor", fd, fd_s),
            ("cluster", cl, cl_s),
            ("server", server.ns, server.spread_ns),
        ];
        assert_eq!(rows.iter().map(|r| r.1).sum::<f64>(), top.ns);
        let lines = ledger("x", top, &rows);
        assert!(lines.last().expect("sum row").contains("0.10 us"));
    }

    #[test]
    fn a_row_inside_the_spread_is_said_to_be_not_clamped() {
        let top = Timing {
            ns: 1000.0,
            spread_ns: 50.0,
        };
        let lines = ledger("x", top, &[("noisy", -20.0, 60.0), ("real", 1020.0, 60.0)]);
        assert!(lines[1].contains("-0.02 us") && lines[1].contains("inside the probes"));
        assert!(!lines[2].contains("inside the probes"));
    }

    #[test]
    fn time_op_counts_calls() {
        let mut calls = 0u64;
        let t = time_op("count", Duration::from_millis(5), || {
            calls += 1;
            true
        })
        .expect("no call failed");
        assert!(calls > 8 && t.ns > 0.0 && t.spread_ns >= 0.0);
    }

    #[test]
    fn a_probe_whose_call_fails_is_an_error_not_a_timing() {
        let mut calls = 0u64;
        let err = time_op("flaky", Duration::from_millis(5), || {
            calls += 1;
            calls != 20
        })
        .expect_err("the twentieth call failed");
        assert_eq!(err, "probe flaky: 1 calls failed");
    }
}
