//! `perf_bench`: the repository's benchmark. See `README.md` beside this
//! package for the metric dictionary and how to read the output.

mod check;
mod drive;
mod layers;
mod metrics;
mod probe;
mod rig;
mod run;
mod stats;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use metrics::{END_TO_END, PER_LAYER};
use run::{run, RunConfig, RunReport, POLICIES, SETUPS};
use workload::WORKLOADS;

const USAGE: &str = "\
usage: perf_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
       perf_bench --all [--seed <n>] [--seconds <s>] [--trace <0|1>] [--out <file>] [--spans <dir>]
       perf_bench --check-aa [--seed <n>] [--seconds <s>]
       perf_bench --smoke
workloads: push_r1_dev push_r3_dev push_r1_cpu lifecycle_r3_cpu churn_r3_dev";

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    all: bool,
    check_aa: bool,
    smoke: bool,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
    spans: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        all: false,
        check_aa: false,
        smoke: false,
        seed: 1,
        seconds: 15.0,
        trace: false,
        out: None,
        spans: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                };
            }
            "--out" => args.out = Some(PathBuf::from(value("a file")?)),
            "--spans" => args.spans = Some(PathBuf::from(value("a directory")?)),
            "--all" => args.all = true,
            "--check-aa" => args.check_aa = true,
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    let modes = [args.workload.is_some(), args.all, args.check_aa, args.smoke];
    if modes.iter().filter(|m| **m).count() != 1 {
        return Err("choose exactly one of --workload, --all, --check-aa, --smoke".into());
    }
    Ok(args)
}

/// A float as JSON: every digit measured, and never `NaN`/`inf` (not JSON).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The one-line result the driver reads: `correct`, `attempted`, `failed`
/// and every metric by name with its unit.
fn result_line(report: &RunReport) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(m.name),
                json_number(m.value),
                json_string(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct(),
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}

fn print_report(report: &RunReport) {
    for note in &report.notes {
        eprintln!("{note}");
    }
    for m in &report.metrics {
        eprintln!(
            "  {:<44} {:>16.4} {:<6} ({} is better)",
            m.name,
            m.value,
            m.unit,
            m.better.as_str()
        );
    }
    for problem in &report.problems {
        eprintln!("  FAILED CHECK: {problem}");
    }
}

fn config(args: &Args) -> RunConfig {
    RunConfig {
        seed: args.seed,
        seconds: args.seconds,
        policies: POLICIES,
        trace: args.trace,
        setups: SETUPS,
        spans_dir: args.spans.clone(),
    }
}

fn run_all(config: &RunConfig) -> Vec<RunReport> {
    WORKLOADS
        .iter()
        .map(|spec| {
            let report = run(spec, config);
            print_report(&report);
            report
        })
        .collect()
}

/// `--all`: every workload, every metric by name, one JSON document.
fn all_json(reports: &[RunReport], config: &RunConfig) -> String {
    let body: Vec<String> = reports
        .iter()
        .map(|r| format!("  {}: {}", json_string(r.workload), result_line(r)))
        .collect();
    format!(
        "{{\n\"seed\": {}, \"seconds\": {}, \"trace\": {}, \"policies\": {},\n\"modelled_delays\": {{\"device_sync_ms\": 1, \"wire_one_way_ms\": 1, \"applies_to\": \"_dev device, _r3_dev wire; _cpu workloads have none\"}},\n\"workloads\": {{\n{}\n}}\n}}\n",
        config.seed,
        json_number(config.seconds),
        config.trace,
        config.policies,
        body.join(",\n")
    )
}

/// How far two readings of one metric are apart, as a share of the smaller.
fn pair_spread(a: f64, b: f64) -> f64 {
    let base = a.abs().min(b.abs());
    if base > 0.0 {
        (a - b).abs() / base
    } else {
        0.0
    }
}

/// `--check-aa`: the whole set twice on one build; every end-to-end metric
/// of every workload must agree within its bound.
fn check_aa(config: &RunConfig) -> bool {
    let first = run_all(config);
    let second = run_all(config);
    let mut ok = first.iter().chain(&second).all(RunReport::correct);
    println!(
        "{:<18} {:<16} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "run A", "run B", "spread", "bound"
    );
    for (a, b) in first.iter().zip(&second) {
        for def in END_TO_END {
            let (va, vb) = (
                a.value(def.name).unwrap_or(0.0),
                b.value(def.name).unwrap_or(0.0),
            );
            let spread = pair_spread(va, vb);
            let within = spread <= def.bound;
            let gated = workload::find(a.workload).is_some_and(|w| w.gated);
            println!(
                "{:<18} {:<16} {:>14.3} {:>14.3} {:>8.1}% {:>6.0}%{}",
                a.workload,
                def.name,
                va,
                vb,
                spread * 100.0,
                def.bound * 100.0,
                match (within, gated) {
                    (true, _) => "",
                    (false, true) => "  DISAGREE",
                    (false, false) => "  (not gated)",
                }
            );
            ok &= within || !gated;
        }
    }
    ok
}

/// `--smoke`: every workload, the checker and the JSON writer on half-second
/// windows and 64 policies; no bounds.
fn smoke() -> Result<(), String> {
    for trace in [false, true] {
        let config = RunConfig {
            seed: 1,
            seconds: 0.5,
            policies: 64,
            trace,
            setups: 1,
            spans_dir: None,
        };
        for spec in &WORKLOADS {
            let report = run(spec, &config);
            if !report.correct() {
                return Err(format!("{}: {:?}", spec.name, report.problems));
            }
            let expected = if trace { PER_LAYER } else { END_TO_END };
            let line = result_line(&report);
            for def in expected {
                if !line.contains(&format!("\"{}\": {{\"value\": ", def.name)) {
                    return Err(format!("{}: result lacks {}", spec.name, def.name));
                }
            }
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perf_bench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let config = config(&args);
    let ok = if let Some(name) = &args.workload {
        let Some(spec) = workload::find(name) else {
            eprintln!("perf_bench: no workload '{name}'\n{USAGE}");
            return ExitCode::from(2);
        };
        let report = run(spec, &config);
        print_report(&report);
        if report.correct() {
            println!("{}", result_line(&report));
        }
        report.correct()
    } else if args.all {
        let reports = run_all(&config);
        let ok = reports.iter().all(RunReport::correct);
        if ok {
            let doc = all_json(&reports, &config);
            match &args.out {
                Some(path) => {
                    if let Err(e) = std::fs::write(path, &doc) {
                        eprintln!("perf_bench: writing {}: {e}", path.display());
                        return ExitCode::FAILURE;
                    }
                    eprintln!("wrote {}", path.display());
                }
                None => print!("{doc}"),
            }
        }
        ok
    } else if args.check_aa {
        check_aa(&config)
    } else {
        match smoke() {
            Ok(()) => {
                println!("smoke: every workload ran, checked and reported");
                true
            }
            Err(e) => {
                eprintln!("smoke: {e}");
                false
            }
        }
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_runs_every_workload_the_checker_and_the_json_writer() {
        smoke().expect("smoke");
    }

    #[test]
    fn arguments_of_the_contract_parse() {
        let argv: Vec<String> = "--workload churn_r3_dev --seed 9 --seconds 15 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let args = parse_args(&argv).expect("parse");
        assert_eq!(args.workload.as_deref(), Some("churn_r3_dev"));
        assert_eq!((args.seed, args.seconds, args.trace), (9, 15.0, true));
        assert!(parse_args(&["--all".into(), "--smoke".into()]).is_err());
        assert!(parse_args(&["--trace".into(), "2".into(), "--all".into()]).is_err());
        assert!(parse_args(&[]).is_err());
        // Policy count and set-up count are constants, not flags.
        assert!(parse_args(&["--all".into(), "--policies".into(), "8".into()]).is_err());
    }

    #[test]
    fn result_line_is_one_json_object_with_the_four_keys() {
        let report = RunReport {
            workload: "w",
            attempted: 10,
            failed: 1,
            metrics: vec![metrics::Metric {
                name: "ops_per_s",
                unit: "1/s",
                better: metrics::Better::Higher,
                value: 1234.5678,
            }],
            ..RunReport::default()
        };
        assert_eq!(
            result_line(&report),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 1, \"metrics\": \
             {\"ops_per_s\": {\"value\": 1234.5678, \"unit\": \"1/s\"}}}"
        );
        assert_eq!(json_number(f64::NAN), "0");
        assert_eq!(json_string("a\"b\n"), "\"a\\\"b\\n\"");
    }

    /// `BENCHMARK.json` is written by hand; this holds it to the code.
    #[test]
    fn benchmark_json_lists_exactly_what_the_program_prints() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for w in WORKLOADS.iter().filter(|w| w.gated) {
            assert!(
                text.contains(&format!(
                    "{{\"name\": \"{}\", \"why\": {}}}",
                    w.name,
                    json_string(w.why)
                )),
                "workload {}",
                w.name
            );
        }
        for d in END_TO_END {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                d.name,
                d.unit,
                d.better.as_str(),
                json_number(d.bound)
            );
            assert!(text.contains(&entry), "end-to-end {entry}");
        }
        for d in PER_LAYER {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                d.name,
                d.unit,
                d.better.as_str()
            );
            assert!(text.contains(&entry), "per-layer {entry}");
        }
        let names = text.matches("{\"name\": ").count();
        let gated = WORKLOADS.iter().filter(|w| w.gated).count();
        assert_eq!(names, gated + END_TO_END.len() + PER_LAYER.len());
        assert!(
            !text.contains("churn_r3_dev"),
            "the ungated workload is not listed"
        );
    }
}
