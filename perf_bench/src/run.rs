//! One run of one workload: set-up (timed), warm-up, the measured window,
//! the checks, and the metrics — end to end with tracing off, or per layer
//! from a traced run.

use std::io::Write;
use std::path::PathBuf;

use palaemon_cluster::{ReplicationStats, TickReport};
use palaemon_core::frontdoor::FrontDoorStats;
use palaemon_telemetry::Stage;

use crate::check::final_checks;
use crate::drive::{drive, DriveOutput, GenOutput, Sample, WatchOutput};
use crate::layers;
use crate::metrics::{Metric, MetricDef, END_TO_END, PER_LAYER};
use crate::probe::{now_ns, DeviceSpan, StoreSnapshot};
use crate::rig::{generator_threads, Rig, SHARD};
use crate::stats::{median, percentile_sorted, range, summarise_ns, LatencySummary};
use crate::workload::{stream_hash, Class, Shape, Spec};

/// `gen.lag_p99_us` above this voids an open-loop run: the generator, not
/// the program, was late.
pub const MAX_LAG_P99_US: f64 = 1000.0;
/// More than this share of a window's requests failing fails the run
/// (`churn_r3_dev`; the closed loops allow none).
pub const MAX_FAILED_SHARE: f64 = 0.001;
/// Policies every measured run is set up with.
pub const POLICIES: usize = 1024;
/// Times a measured run sets up; `setup_s` is their median.
pub const SETUPS: usize = 5;
/// Alternating untraced/traced segments of a traced run.
const TRACE_SEGMENTS: usize = 6;

#[derive(Debug, Clone)]
pub struct RunConfig {
    pub seed: u64,
    /// Length of the measured window (all segments of a traced run).
    pub seconds: f64,
    pub policies: usize,
    pub trace: bool,
    /// Times set-up is done (the last one is used); `setup_s` is their
    /// median.
    pub setups: usize,
    /// Where a traced run writes its spans, if anywhere.
    pub spans_dir: Option<PathBuf>,
}

impl RunConfig {
    fn warmup_s(&self) -> f64 {
        (self.seconds * 0.15).clamp(0.2, 2.0)
    }
}

/// The outcome of one run.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    pub workload: &'static str,
    pub problems: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Lines for the human-readable report.
    pub notes: Vec<String>,
}

impl RunReport {
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// Counters at one instant; two of them bound a window.
struct Snapshot {
    t_ns: u64,
    db: Vec<StoreSnapshot>,
    counter_store: Vec<StoreSnapshot>,
    increments: Vec<u64>,
    repl: ReplicationStats,
    failovers: u64,
    primary: usize,
    cpu_ms: f64,
    rss_kb: u64,
}

fn snapshot(rig: &Rig) -> Snapshot {
    let stats = rig.router.stats();
    let shard = stats.shards.first();
    Snapshot {
        t_ns: now_ns(),
        db: rig.replicas.iter().map(|r| r.db.snapshot()).collect(),
        counter_store: rig
            .replicas
            .iter()
            .map(|r| r.counter_store.snapshot())
            .collect(),
        increments: rig
            .replicas
            .iter()
            .map(|r| {
                r.counter
                    .increments
                    .load(std::sync::atomic::Ordering::Relaxed)
            })
            .collect(),
        repl: shard.map(|s| s.replication).unwrap_or_default(),
        failovers: shard.map_or(0, |s| s.failovers),
        primary: shard.map_or(0, |s| s.primary),
        cpu_ms: proc_cpu_ms(),
        rss_kb: proc_status_kb("VmRSS:"),
    }
}

/// User + system CPU time of this process, in milliseconds.
fn proc_cpu_ms() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th of the whole line, in clock ticks (100 per second).
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) * 10.0
}

fn proc_status_kb(key: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(key))
                .and_then(|l| l.split_whitespace().nth(1)?.parse().ok())
        })
        .unwrap_or(0)
}

fn in_window(s: &Sample, from_ns: u64, to_ns: u64) -> bool {
    s.ack_ns >= from_ns && s.ack_ns < to_ns
}

fn ok_count(samples: &[Sample], from_ns: u64, to_ns: u64) -> usize {
    samples
        .iter()
        .filter(|s| s.ok && in_window(s, from_ns, to_ns))
        .count()
}

/// Exact median and 99th percentile of one class over every request
/// acknowledged OK in `[from_ns, to_ns)`: raw samples, whole window, nothing
/// left out.
fn class_latency(samples: &[Sample], class: Class, from_ns: u64, to_ns: u64) -> LatencySummary {
    let mut ns: Vec<u64> = samples
        .iter()
        .filter(|s| s.ok && s.kind.class() == class && in_window(s, from_ns, to_ns))
        .map(|s| u64::from(s.lat_ns))
        .collect();
    summarise_ns(&mut ns)
}

/// Everything a finished run's metrics are computed from.
struct Measured<'a> {
    spec: &'static Spec,
    config: &'a RunConfig,
    gen: &'a GenOutput,
    watch: &'a WatchOutput,
    /// One snapshot per segment boundary.
    snaps: &'a [Snapshot],
    /// Per segment: was tracing on.
    segments: &'a [bool],
    mutation: LatencySummary,
    read: LatencySummary,
    attest: LatencySummary,
    /// Requests acknowledged OK / answered at all / late or failed, in the
    /// window.
    ok: usize,
    answered: usize,
    slo_missed: usize,
    lag_p99_us: f64,
    lag_max_us: f64,
}

impl<'a> Measured<'a> {
    fn new(
        spec: &'static Spec,
        config: &'a RunConfig,
        gen: &'a GenOutput,
        watch: &'a WatchOutput,
        snaps: &'a [Snapshot],
        segments: &'a [bool],
    ) -> Measured<'a> {
        let (w0, w1) = (snaps[0].t_ns, snaps[snaps.len() - 1].t_ns);
        let slo_ns = spec.slo_us * 1000;
        let mut lags: Vec<u64> = gen
            .lags
            .iter()
            .filter(|(due, _)| *due >= w0 && *due < w1)
            .map(|(_, lag)| u64::from(*lag))
            .collect();
        lags.sort_unstable();
        Measured {
            spec,
            config,
            gen,
            watch,
            snaps,
            segments,
            mutation: class_latency(&gen.samples, Class::Mutation, w0, w1),
            read: class_latency(&gen.samples, Class::Read, w0, w1),
            attest: class_latency(&gen.samples, Class::Attest, w0, w1),
            ok: ok_count(&gen.samples, w0, w1),
            answered: gen.samples.iter().filter(|s| in_window(s, w0, w1)).count(),
            slo_missed: gen
                .samples
                .iter()
                .filter(|s| in_window(s, w0, w1) && (!s.ok || u64::from(s.lat_ns) > slo_ns))
                .count(),
            lag_p99_us: percentile_sorted(&lags, 0.99) as f64 / 1e3,
            lag_max_us: lags.last().copied().unwrap_or(0) as f64 / 1e3,
        }
    }

    fn window(&self) -> (u64, u64) {
        (self.snaps[0].t_ns, self.snaps[self.snaps.len() - 1].t_ns)
    }

    fn failed_share(&self) -> f64 {
        (self.answered - self.ok) as f64 / self.answered.max(1) as f64
    }

    fn slo_miss_share(&self) -> f64 {
        self.slo_missed as f64 / self.answered.max(1) as f64
    }

    /// The lines that head every run's report: configuration, modelled
    /// delays, sample counts.
    fn describe(&self, threads: usize) -> Vec<String> {
        let (spec, config) = (self.spec, self.config);
        let (w0, w1) = self.window();
        let window_s = (w1 - w0) as f64 / 1e9;
        let per_second: Vec<String> = (0..window_s.floor() as u64)
            .map(|i| {
                let (a, b) = (w0 + i * 1_000_000_000, w0 + (i + 1) * 1_000_000_000);
                ok_count(&self.gen.samples, a, b).to_string()
            })
            .collect();
        let mut notes = vec![
            format!(
                "{}: R={} device={} wire={} quorum_reads={} {} | seed {} | {} policies | {} generator threads, {} sessions | nproc {}",
                spec.name,
                spec.replicas,
                if spec.device { "1ms" } else { "none" },
                if spec.wire { "1ms" } else { "none" },
                spec.quorum_reads,
                match spec.shape {
                    Shape::Churn => "open loop 1000 req/s",
                    _ => "closed loop",
                },
                config.seed,
                config.policies,
                threads,
                spec.slots(threads),
                std::thread::available_parallelism().map_or(1, |n| n.get()),
            ),
            format!("  why: {}", spec.why),
            format!(
                "  op stream {:016x} (a function of workload and seed alone)",
                stream_hash(spec, config.seed, config.policies, threads, 4096)
            ),
            format!(
                "  window {window_s:.3} s | acked {} | failed {} | samples: mut {} read {} attest {} | slo {} ms missed {}",
                self.ok,
                self.answered - self.ok,
                self.mutation.count,
                self.read.count,
                self.attest.count,
                spec.slo_us / 1000,
                self.slo_missed
            ),
            format!("  acked per second: {}", per_second.join(" ")),
            format!(
                "  failed_share {:.6} | slo_miss_share {:.6}",
                self.failed_share(),
                self.slo_miss_share()
            ),
        ];
        if spec.shape == Shape::Churn {
            notes.push(format!(
                "  faults fired {} | heal p50 {:.1} ms | retries {} | lag p99 {:.1} us max {:.1} us",
                self.watch.faults_fired,
                median(&self.watch.heal_ms),
                self.gen.retries,
                self.lag_p99_us,
                self.lag_max_us
            ));
        }
        notes
    }

    /// What a run must satisfy beyond the end-of-run checks.
    fn problems(&self) -> Vec<String> {
        let mut problems = Vec::new();
        let verdicts = &self.gen.verdicts;
        if verdicts.violations > 0 {
            problems.push(format!(
                "{} wrong answers, e.g. {:?}",
                verdicts.violations, verdicts.violation_notes
            ));
        }
        if self.spec.shape != Shape::Churn && verdicts.failed > 0 {
            problems.push(format!(
                "{} requests failed on a closed-loop workload, e.g. {:?}",
                verdicts.failed, verdicts.failure_notes
            ));
        }
        if self.failed_share() > MAX_FAILED_SHARE {
            problems.push(format!(
                "failed_share {:.5} exceeds {MAX_FAILED_SHARE}, e.g. {:?}",
                self.failed_share(),
                verdicts.failure_notes
            ));
        }
        if self.lag_p99_us > MAX_LAG_P99_US {
            problems.push(format!(
                "void: generator lag p99 {:.0} us exceeds {MAX_LAG_P99_US:.0} us",
                self.lag_p99_us
            ));
        }
        // Two faults a second are due; fewer than one means the injector,
        // not the program, fell short.
        if self.spec.shape == Shape::Churn
            && self.watch.faults_fired < self.config.seconds.floor() as u64
        {
            problems.push(format!(
                "void: only {} faults fired in {} s",
                self.watch.faults_fired, self.config.seconds
            ));
        }
        for (class, s) in [
            ("mutation", self.mutation),
            ("read", self.read),
            ("attestation", self.attest),
        ] {
            if s.count == 0 {
                problems.push(format!("no {class} was acknowledged in the window"));
            }
        }
        problems
    }

    fn end_to_end(&self, setup_s: &[f64]) -> Vec<(&'static str, f64)> {
        let (w0, w1) = self.window();
        vec![
            ("setup_s", median(setup_s)),
            ("ops_per_s", self.ok as f64 / ((w1 - w0) as f64 / 1e9)),
            ("mut_p50_us", self.mutation.p50_us),
            ("mut_p99_us", self.mutation.p99_us),
            ("read_p50_us", self.read.p50_us),
            ("read_p99_us", self.read.p99_us),
            ("attest_p50_us", self.attest.p50_us),
            ("attest_p99_us", self.attest.p99_us),
        ]
    }

    /// `(start, end)` of every traced segment.
    fn traced(&self) -> Vec<(u64, u64)> {
        self.segments
            .iter()
            .enumerate()
            .filter(|(_, t)| **t)
            .map(|(i, _)| (self.snaps[i].t_ns, self.snaps[i + 1].t_ns))
            .collect()
    }

    /// Tracing overhead in percent: each untraced segment against the
    /// traced one that follows it.
    fn tracing_overheads(&self) -> Vec<f64> {
        let rate = |i: usize| {
            let (a, b) = (self.snaps[i].t_ns, self.snaps[i + 1].t_ns);
            ok_count(&self.gen.samples, a, b) as f64 / ((b - a) as f64 / 1e9)
        };
        (0..self.segments.len() / 2)
            .map(|pair| (1.0 - ratio(rate(2 * pair + 1), rate(2 * pair))) * 100.0)
            .collect()
    }

    /// The per-layer metrics of the live window: counts from the wrappers
    /// over the whole window, times from its traced segments.
    fn live_layers(
        &self,
        rig: &Rig,
        door_stats: &FrontDoorStats,
        monitor: Option<TickReport>,
    ) -> Vec<(&'static str, f64)> {
        let (w0, w1) = self.window();
        let (first, last) = (&self.snaps[0], &self.snaps[self.snaps.len() - 1]);
        let samples = &self.gen.samples;
        let muts = samples
            .iter()
            .filter(|s| s.ok && s.kind.class() == Class::Mutation && in_window(s, w0, w1))
            .count() as f64;
        let per_mut = |v: f64| ratio(v, muts);
        let p = last.primary.min(rig.replicas.len() - 1);
        let db: Vec<StoreSnapshot> = last
            .db
            .iter()
            .zip(&first.db)
            .map(|(l, f)| l.since(*f))
            .collect();
        let follower_syncs: u64 = db
            .iter()
            .enumerate()
            .filter(|(k, _)| *k != p)
            .map(|(_, d)| d.syncs)
            .sum();
        let counter_store = last.counter_store[p].since(first.counter_store[p]);
        let repl = |f: fn(&ReplicationStats) -> u64| (f(&last.repl) - f(&first.repl)) as f64;

        let traced = self.traced();
        let in_traced = |s: &&Sample| traced.iter().any(|(a, b)| in_window(s, *a, *b));
        let mut queue_ns: Vec<u64> = samples
            .iter()
            .filter(in_traced)
            .map(|s| u64::from(s.queue_ns))
            .collect();
        let mut handle_ns: Vec<u64> = samples
            .iter()
            .filter(in_traced)
            .filter(|s| s.kind.class() == Class::Mutation)
            .map(|s| u64::from(s.handle_ns))
            .collect();
        let queue = summarise_ns(&mut queue_ns);
        let handle = summarise_ns(&mut handle_ns);
        let overheads = self.tracing_overheads();

        let mut increments_ns = rig.replicas[p].counter.take_durations_ns();
        increments_ns.sort_unstable();
        let held: u64 = rig.replicas[p]
            .blobs
            .snapshot()
            .values()
            .map(|b| b.len() as u64)
            .sum();
        let live: u64 = rig.router.engine(SHARD).map_or(0, |engine| {
            rig.factory
                .names
                .iter()
                .flat_map(|n| engine.export_policy_records(n))
                .map(|(k, v)| (k.len() + v.len()) as u64)
                .sum()
        });
        let telemetry = rig.router.telemetry();
        let stage_mean_us = |stage: Stage| telemetry.stage_histogram(stage).summary().mean_ns / 1e3;
        let kops = self.ok as f64 / 1e3;
        let totals = monitor.unwrap_or_default();

        vec![
            ("frontdoor.queue_wait_p50_us", queue.p50_us),
            ("frontdoor.queue_wait_p99_us", queue.p99_us),
            ("frontdoor.queue_peak", self.watch.door_queue_peak as f64),
            ("frontdoor.rejected", door_stats.rejected as f64),
            ("cluster.handle_p50_us", handle.p50_us),
            ("cluster.handle_p99_us", handle.p99_us),
            (
                "cluster.muts_per_batch",
                ratio(repl(|r| r.mutations_shipped), repl(|r| r.batches_shipped)),
            ),
            (
                "cluster.fwd_bytes_per_mut",
                per_mut(repl(|r| r.incremental_bytes + r.snapshot_bytes)),
            ),
            ("cluster.pipe_depth_peak", self.watch.pipe_depth_peak as f64),
            (
                "cluster.follower_read_share",
                ratio(
                    repl(|r| r.reads_follower),
                    repl(|r| r.reads_follower + r.reads_primary),
                ),
            ),
            (
                "cluster.follower_attest_share",
                ratio(
                    repl(|r| r.attests_follower),
                    repl(|r| r.attests_follower + r.attests_primary),
                ),
            ),
            (
                "cluster.freshness_rejections",
                repl(|r| r.freshness_rejections),
            ),
            (
                "cluster.failovers",
                (last.failovers - first.failovers) as f64,
            ),
            ("cluster.repairs", totals.repairs as f64),
            ("cluster.healed", (totals.healed + totals.readmitted) as f64),
            ("cluster.snapshot_resyncs", repl(|r| r.snapshot_resyncs)),
            ("cluster.catchup_bytes", repl(|r| r.catchup_bytes)),
            ("cluster.heal_p50_ms", median(&self.watch.heal_ms)),
            ("cluster.client_retries", self.gen.retries as f64),
            ("cluster.faults_fired", self.watch.faults_fired as f64),
            (
                "counterfile.increments_per_mut",
                per_mut((last.increments[p] - first.increments[p]) as f64),
            ),
            (
                "counterfile.increment_p50_us",
                percentile_sorted(&increments_ns, 0.5) as f64 / 1e3,
            ),
            (
                "counterfile.store_syncs_per_mut",
                per_mut(counter_store.syncs as f64),
            ),
            ("kvdb.muts_per_sync", ratio(muts, db[p].syncs as f64)),
            ("kvdb.primary_syncs_per_mut", per_mut(db[p].syncs as f64)),
            (
                "kvdb.follower_syncs_per_mut",
                per_mut(ratio(
                    follower_syncs as f64,
                    (rig.replicas.len() - 1) as f64,
                )),
            ),
            ("kvdb.wal_bytes_per_mut", per_mut(db[p].put_bytes as f64)),
            (
                "kvdb.sync_busy_share",
                ratio(db[p].sync_ns as f64, (w1 - w0) as f64),
            ),
            (
                "shielded-fs.bytes_held_per_user_byte",
                ratio(held as f64, live as f64),
            ),
            ("telemetry.tracing_overhead_pct", median(&overheads)),
            ("telemetry.tracing_overhead_spread_pct", range(&overheads)),
            (
                "telemetry.stage_queue_wait_mean_us",
                stage_mean_us(Stage::QueueWait),
            ),
            (
                "telemetry.stage_engine_apply_mean_us",
                stage_mean_us(Stage::EngineApply),
            ),
            (
                "telemetry.stage_counter_commit_mean_us",
                stage_mean_us(Stage::CounterCommit),
            ),
            (
                "telemetry.stage_forward_enqueue_mean_us",
                stage_mean_us(Stage::ForwardEnqueue),
            ),
            (
                "telemetry.stage_quorum_ack_mean_us",
                stage_mean_us(Stage::QuorumAck),
            ),
            ("gen.lag_p99_us", self.lag_p99_us),
            ("gen.max_lag_us", self.lag_max_us),
            ("client.failed_share", self.failed_share()),
            ("client.slo_miss_share", self.slo_miss_share()),
            (
                "proc.cpu_ms_per_kop",
                ratio(last.cpu_ms - first.cpu_ms, kops),
            ),
            ("proc.peak_rss_mb", proc_status_kb("VmHWM:") as f64 / 1024.0),
            (
                "proc.rss_kb_per_kop",
                ratio(last.rss_kb.saturating_sub(first.rss_kb) as f64, kops),
            ),
        ]
    }
}

/// `num / den`, or 0 where there is nothing to divide by.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The values of `defs`, in their order, out of `values`; a definition with
/// no value is a problem, not a silent 0.
fn pick(
    defs: &[MetricDef],
    values: &[(&'static str, f64)],
    problems: &mut Vec<String>,
) -> Vec<Metric> {
    defs.iter()
        .map(|def| {
            let value = values.iter().find(|(n, _)| *n == def.name).map(|(_, v)| *v);
            if value.is_none() {
                problems.push(format!("metric {} was not measured", def.name));
            }
            Metric::of(def, value.unwrap_or(0.0))
        })
        .collect()
}

/// Runs `spec` once under `config`.
pub fn run(spec: &'static Spec, config: &RunConfig) -> RunReport {
    let mut report = RunReport {
        workload: spec.name,
        ..RunReport::default()
    };
    let threads = generator_threads();

    // The single-caller probes go first, so that they start from the same
    // state whatever the workload: run after it, a push over the door read
    // 16 us behind a `_dev` run and 62 us behind a `_cpu` one (the thread
    // hand-offs it is made of depend on how the host last saw the virtual
    // CPUs idle).
    let probes = match config
        .trace
        .then(|| layers::run_probes(config.seconds, config.policies))
        .transpose()
    {
        Ok(probes) => probes,
        Err(e) => {
            report.problems.push(e);
            return report;
        }
    };

    // Set-up, several times over: its median is steadier than one reading
    // and the last instance is the one the run uses.
    let mut setup_s = Vec::new();
    let mut rig = None;
    // A traced run prints no `setup_s`: one set-up is enough for it.
    let setups = if config.trace {
        1
    } else {
        config.setups.max(1)
    };
    for _ in 0..setups {
        drop(rig.take());
        match Rig::set_up(
            spec,
            config.seed,
            config.policies,
            threads,
            config.trace,
            true,
        ) {
            Ok((r, s)) => {
                setup_s.push(s);
                rig = Some(r);
            }
            Err(e) => {
                report.problems.push(format!("set-up: {e}"));
                return report;
            }
        }
    }
    let mut rig = rig.expect("at least one set-up ran");

    // The window: warm-up, then one untraced segment — or, traced,
    // alternating untraced/traced segments so tracing overhead is read
    // from adjacent pairs.
    let segments: Vec<bool> = if config.trace {
        (0..TRACE_SEGMENTS).map(|i| i % 2 == 1).collect()
    } else {
        vec![false]
    };
    let start_ns = now_ns();
    let warm_ns = (config.warmup_s() * 1e9) as u64;
    let seg_ns = (config.seconds * 1e9) as u64 / segments.len() as u64;
    let bounds: Vec<u64> = (0..=segments.len() as u64)
        .map(|i| start_ns + warm_ns + i * seg_ns)
        .collect();
    let stop_ns = *bounds.last().expect("at least one bound");

    let seeds = std::mem::take(&mut rig.slots);
    let mut snaps: Vec<Snapshot> = Vec::new();
    let DriveOutput {
        gen,
        watch,
        monitor,
    } = drive(&rig, seeds, config.seed, stop_ns, |now| {
        while snaps.len() < bounds.len() && now >= bounds[snaps.len()] {
            let i = snaps.len();
            if i == 0 {
                // Increment timings from set-up and warm-up are not the
                // window's.
                for replica in &rig.replicas {
                    replica.counter.take_durations_ns();
                }
            }
            snaps.push(snapshot(&rig));
            let traced = segments.get(i).copied().unwrap_or(false);
            rig.router.telemetry().set_tracing(traced);
            rig.spans.set_enabled(traced);
        }
    });

    // Every request is answered; shut the door, then look at the group.
    let door_stats = rig.drain_door();
    if let Err(problems) = final_checks(&rig, &gen.floors, &watch, spec.device) {
        report.problems.extend(problems);
    }
    if door_stats.submitted != door_stats.completed + door_stats.rejected
        || door_stats.completed != rig.probe_door.calls()
    {
        report.problems.push(format!(
            "front door lost requests: {door_stats:?}, backend calls {}",
            rig.probe_door.calls()
        ));
    }
    report.attempted = gen.samples.len() as u64;
    report.failed = gen.verdicts.failed;
    if snaps.len() != bounds.len() {
        report.problems.push(format!(
            "window snapshots: took {} of {}",
            snaps.len(),
            bounds.len()
        ));
        return report;
    }

    let measured = Measured::new(spec, config, &gen, &watch, &snaps, &segments);
    report.problems.extend(measured.problems());
    report.notes = measured.describe(threads);
    if let Some(totals) = monitor {
        report.notes.push(format!("  monitor {totals:?}"));
    }

    let Some(probes) = probes else {
        report.notes.push(format!("  setup_s readings {setup_s:?}"));
        report.metrics = pick(
            END_TO_END,
            &measured.end_to_end(&setup_s),
            &mut report.problems,
        );
        return report;
    };

    // Traced run: the live window's layers beside the probes' and the
    // ledger.
    let mut values = measured.live_layers(&rig, &door_stats, monitor);
    let traced = measured.traced();
    report.notes.push(format!(
        "  traced segments {} of {} | tracing overhead per pair {:.2?} % | traces minted {}",
        traced.len(),
        segments.len(),
        measured.tracing_overheads(),
        rig.router.telemetry().traces_minted()
    ));
    let device_spans = rig.spans.take();
    values.extend(probes.metrics);
    report.metrics = pick(PER_LAYER, &values, &mut report.problems);
    report.notes.extend(probes.ledger);

    match check_spans(&gen.samples, &traced) {
        Ok(n) => report.notes.push(format!(
            "  spans: {n} requests x 3, no child outlasts its root; {} device spans",
            device_spans.len()
        )),
        Err(e) => report.problems.push(e),
    }
    if let Some(dir) = &config.spans_dir {
        match write_spans(dir, spec.name, &gen.samples, &traced, &device_spans) {
            Ok(path) => report
                .notes
                .push(format!("  spans written to {}", path.display())),
            Err(e) => report.problems.push(format!("writing spans: {e}")),
        }
    }
    report
}

/// Every traced request is three spans — root `client.request`, children
/// `frontdoor.queue` and `cluster.handle` — rebuilt from its sample. Checks
/// that no child outlasts its root and returns how many requests were
/// traced.
fn check_spans(samples: &[Sample], traced: &[(u64, u64)]) -> Result<usize, String> {
    let mut n = 0;
    for s in samples {
        if !traced.iter().any(|(a, b)| in_window(s, *a, *b)) {
            continue;
        }
        n += 1;
        let children = u64::from(s.queue_ns) + u64::from(s.handle_ns) + u64::from(s.done_ns);
        // A latency that saturated its 32-bit field proves nothing.
        if s.lat_ns != u32::MAX && children > u64::from(s.lat_ns) {
            return Err(format!(
                "span check: {:?} children end {children} ns after the root began, the root lasts {} ns",
                s.kind, s.lat_ns
            ));
        }
    }
    Ok(n)
}

/// Writes the traced window's spans as JSON lines: three per request
/// (root `client.request`, children `frontdoor.queue` and
/// `cluster.handle`), then the device-side spans with the requests whose
/// backend call they overlap.
fn write_spans(
    dir: &std::path::Path,
    workload: &str,
    samples: &[Sample],
    traced: &[(u64, u64)],
    device: &[DeviceSpan],
) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{workload}.spans.jsonl"));
    let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
    // (call_start, call_end, id) of every traced mutation, for the overlap
    // join below.
    let mut calls: Vec<(u64, u64, usize)> = Vec::new();
    for (id, s) in samples.iter().enumerate() {
        if !traced.iter().any(|(a, b)| in_window(s, *a, *b)) {
            continue;
        }
        let end = s.ack_ns;
        let start = end.saturating_sub(u64::from(s.lat_ns));
        let call_end = end.saturating_sub(u64::from(s.done_ns));
        let call_start = call_end.saturating_sub(u64::from(s.handle_ns));
        let queue_start = call_start.saturating_sub(u64::from(s.queue_ns));
        writeln!(
            out,
            "{{\"id\":{id},\"span\":\"client.request\",\"parent\":null,\"kind\":\"{:?}\",\"ok\":{},\"start_ns\":{start},\"end_ns\":{end}}}",
            s.kind, s.ok
        )?;
        writeln!(
            out,
            "{{\"id\":{id},\"span\":\"frontdoor.queue\",\"parent\":\"client.request\",\"start_ns\":{queue_start},\"end_ns\":{call_start}}}"
        )?;
        writeln!(
            out,
            "{{\"id\":{id},\"span\":\"cluster.handle\",\"parent\":\"client.request\",\"start_ns\":{call_start},\"end_ns\":{call_end}}}"
        )?;
        if s.kind.class() == Class::Mutation {
            calls.push((call_start, call_end, id));
        }
    }
    calls.sort_unstable();
    for d in device {
        // One sync serves a whole commit window: attach it to every
        // mutation whose backend call it overlaps (the first few).
        let upto = calls.partition_point(|(start, _, _)| *start <= d.end_ns);
        let ids: Vec<String> = calls[..upto]
            .iter()
            .rev()
            .take_while(|(start, _, _)| d.start_ns.saturating_sub(*start) < 1_000_000_000)
            .filter(|(_, end, _)| *end >= d.start_ns)
            .take(32)
            .map(|(_, _, id)| id.to_string())
            .collect();
        writeln!(
            out,
            "{{\"span\":\"{}\",\"replica\":{},\"parent\":\"cluster.handle\",\"requests\":[{}],\"start_ns\":{},\"end_ns\":{}}}",
            d.name,
            d.replica,
            ids.join(","),
            d.start_ns,
            d.end_ns
        )?;
    }
    out.flush()?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Kind;

    fn sample(ack_ns: u64) -> Sample {
        Sample {
            ack_ns,
            lat_ns: 1000,
            queue_ns: 100,
            handle_ns: 800,
            done_ns: 50,
            kind: Kind::PushTag,
            ok: true,
        }
    }

    #[test]
    fn latency_is_the_exact_percentile_of_the_whole_windows_raw_samples() {
        // 1000 mutations a second for ten seconds at 1 ms, of which the
        // tenth second stalls at 50 ms: a tenth of the window is slow, so
        // the window's 99th percentile is the stall and its median is not.
        let mut samples = Vec::new();
        for i in 0..10_000u64 {
            let mut s = sample(i * 1_000_000);
            s.lat_ns = if i >= 9_000 { 50_000_000 } else { 1_000_000 };
            samples.push(s);
        }
        let all = class_latency(&samples, Class::Mutation, 0, 10_000_000_000);
        assert_eq!(all.count, 10_000);
        assert_eq!((all.p50_us, all.p99_us), (1000.0, 50_000.0));
        // Only what was acknowledged inside the window, OK, in the class.
        let quiet = class_latency(&samples, Class::Mutation, 0, 9_000_000_000);
        assert_eq!((quiet.count, quiet.p99_us), (9_000, 1000.0));
        assert_eq!(class_latency(&samples, Class::Read, 0, u64::MAX).count, 0);
        samples[0].ok = false;
        assert_eq!(ok_count(&samples, 0, 10_000_000_000), 9_999);
        assert_eq!(
            class_latency(&samples, Class::Mutation, 0, 10_000_000_000).count,
            9_999
        );
    }

    #[test]
    fn a_child_span_that_outlasts_its_root_is_caught() {
        let mut s = sample(10_000);
        assert_eq!(check_spans(&[s], &[(0, 20_000)]), Ok(1));
        s.handle_ns = 5_000;
        assert!(check_spans(&[s], &[(0, 20_000)]).is_err());
        // Outside the traced segments nothing is checked.
        assert_eq!(check_spans(&[s], &[(20_000, 30_000)]), Ok(0));
    }
}
