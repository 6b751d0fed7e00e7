//! The metric dictionary: every name the benchmark prints, with its unit
//! and direction. `BENCHMARK.json` at the repository root lists the same
//! names (a test holds the two together).

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric's definition.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end metrics only: the share of the parent's median by which
    /// the metric may worsen before a change counts as a regression.
    pub bound: f64,
}

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub value: f64,
}

impl Metric {
    pub fn of(def: &MetricDef, value: f64) -> Metric {
        Metric {
            name: def.name,
            unit: def.unit,
            better: def.better,
            value,
        }
    }
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees, per workload. Every workload carries
/// all three request classes, so every metric is live on every workload.
/// A bound holds on every listed workload, so each is set by the noisiest
/// one: `push_r1_cpu` runs at a shared host's speed and spread by 7-13 %
/// over ten seeds (README, Steadiness); three times that leaves only the
/// contract's maximum.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("ops_per_s", "1/s", Higher, 0.25),
    e2e("mut_p50_us", "us", Lower, 0.25),
    e2e("mut_p99_us", "us", Lower, 0.25),
    e2e("read_p50_us", "us", Lower, 0.25),
    e2e("read_p99_us", "us", Lower, 0.25),
    e2e("attest_p50_us", "us", Lower, 0.25),
    e2e("attest_p99_us", "us", Lower, 0.25),
];

/// Single layers, named `<module>.<what>`; printed by the traced run.
pub const PER_LAYER: &[MetricDef] = &[
    layer("frontdoor.queue_wait_p50_us", "us", Lower),
    layer("frontdoor.queue_wait_p99_us", "us", Lower),
    layer("frontdoor.queue_peak", "count", Lower),
    layer("frontdoor.rejected", "count", Lower),
    layer("frontdoor.roundtrip_us", "us", Lower),
    layer("cluster.handle_p50_us", "us", Lower),
    layer("cluster.handle_p99_us", "us", Lower),
    layer("cluster.muts_per_batch", "count", Higher),
    layer("cluster.fwd_bytes_per_mut", "B", Lower),
    layer("cluster.pipe_depth_peak", "count", Lower),
    layer("cluster.follower_read_share", "ratio", Higher),
    layer("cluster.follower_attest_share", "ratio", Higher),
    layer("cluster.freshness_rejections", "count", Lower),
    layer("cluster.failovers", "count", Lower),
    layer("cluster.repairs", "count", Lower),
    layer("cluster.healed", "count", Lower),
    layer("cluster.snapshot_resyncs", "count", Lower),
    layer("cluster.catchup_bytes", "B", Lower),
    layer("cluster.heal_p50_ms", "ms", Lower),
    layer("cluster.client_retries", "count", Lower),
    layer("cluster.faults_fired", "count", Higher),
    layer("cluster.r1_push_tag_us", "us", Lower),
    layer("cluster.r3_push_tag_us", "us", Lower),
    layer("cluster.r3_read_tag_us", "us", Lower),
    layer("cluster.r3_attest_us", "us", Lower),
    layer("server.push_tag_us", "us", Lower),
    layer("server.read_tag_us", "us", Lower),
    layer("tms.push_tag_us", "us", Lower),
    layer("tms.update_policy_us", "us", Lower),
    layer("tms.read_tag_us", "us", Lower),
    layer("tms.read_policy_us", "us", Lower),
    layer("tms.attest_us", "us", Lower),
    layer("policy.parse_us", "us", Lower),
    layer("counterfile.increments_per_mut", "count", Lower),
    layer("counterfile.increment_p50_us", "us", Lower),
    layer("counterfile.store_syncs_per_mut", "count", Lower),
    layer("counterfile.commit_us", "us", Lower),
    layer("kvdb.muts_per_sync", "count", Higher),
    layer("kvdb.primary_syncs_per_mut", "count", Lower),
    layer("kvdb.follower_syncs_per_mut", "count", Lower),
    layer("kvdb.wal_bytes_per_mut", "B", Lower),
    layer("kvdb.sync_busy_share", "ratio", Lower),
    layer("kvdb.put_commit_us", "us", Lower),
    layer("kvdb.view_ns", "ns", Lower),
    layer("kvdb.view_get_ns", "ns", Lower),
    layer("shielded-fs.write_us", "us", Lower),
    layer("shielded-fs.bytes_held_per_user_byte", "ratio", Lower),
    layer("crypto.aead_seal_4k_us", "us", Lower),
    layer("crypto.aead_open_4k_us", "us", Lower),
    layer("crypto.sha256_4k_us", "us", Lower),
    layer("crypto.sig_verify_us", "us", Lower),
    layer("tee-sim.quote_verify_us", "us", Lower),
    layer("telemetry.tracing_overhead_pct", "%", Lower),
    layer("telemetry.tracing_overhead_spread_pct", "%", Lower),
    layer("telemetry.stage_queue_wait_mean_us", "us", Lower),
    layer("telemetry.stage_engine_apply_mean_us", "us", Lower),
    layer("telemetry.stage_counter_commit_mean_us", "us", Lower),
    layer("telemetry.stage_forward_enqueue_mean_us", "us", Lower),
    layer("telemetry.stage_quorum_ack_mean_us", "us", Lower),
    layer("gen.lag_p99_us", "us", Lower),
    layer("gen.max_lag_us", "us", Lower),
    layer("client.failed_share", "ratio", Lower),
    layer("client.slo_miss_share", "ratio", Lower),
    layer("proc.cpu_ms_per_kop", "ms", Lower),
    layer("proc.peak_rss_mb", "MB", Lower),
    layer("proc.rss_kb_per_kop", "kB", Lower),
];

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_and_units_meet_the_contract_and_are_used_once() {
        let mut seen = std::collections::BTreeSet::new();
        for def in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(def.name), "{}", def.name);
            assert!(valid_unit(def.unit), "{} unit {}", def.name, def.unit);
            assert!(seen.insert(def.name), "{} used twice", def.name);
        }
        for w in &crate::workload::WORKLOADS {
            assert!(valid_name(w.name) && seen.insert(w.name));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END.iter().all(|d| d.bound > 0.0 && d.bound <= 0.25));
        let setup = END_TO_END
            .iter()
            .find(|d| d.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Lower));
    }
}
