//! Layer-resolved benchmark of the instant-ads simulator.
//!
//! Each workload is a closed batch: one fixed-seed, single-threaded
//! `World` run to the horizon. Run from the repository root:
//!
//! ```text
//! cargo run --release --manifest-path simbench/Cargo.toml -- \
//!     --workload <opt-dense|gossip-chaos|all> \
//!     [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
//! ```
//!
//! `--trace 0` (the default) reports the end-to-end metrics of untraced
//! runs repeated for `--seconds`; `--trace 1` reports the per-layer
//! metrics of a traced run and its layer replays. `--workload all`
//! reports both for every workload. Provenance and a table of every
//! metric go to stdout as `#` lines; the typed report is the last stdout
//! line, and `--out FILE` also writes it to `FILE`. `README.md` defines
//! each metric and the end-to-end metric each layer metric should move.

mod alloc;
mod calib;
mod e2e;
// The typed reader half is exercised by the tests, which read reports
// and `BENCHMARK.json` back.
#[cfg_attr(not(test), allow(dead_code))]
mod json;
mod layers;
mod provenance;
#[cfg_attr(not(test), allow(dead_code))]
mod report;
mod workload;

use json::Json;
use std::path::PathBuf;
use workload::Workload;

const USAGE: &str = "usage: simbench --workload <opt-dense|gossip-chaos|all> \
                     [--seed N] [--seconds S] [--trace 0|1] [--out FILE]";

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
}

/// Report a command-line problem and exit with status 2.
fn usage_error(problem: &str) -> ! {
    eprintln!("simbench: {problem}\n{USAGE}");
    std::process::exit(2)
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Args {
    let mut parsed = Args {
        workloads: Vec::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        out: None,
    };
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .unwrap_or_else(|| usage_error(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" if value == "all" => parsed.workloads = Workload::ALL.to_vec(),
            "--workload" => {
                let workload = Workload::parse(&value)
                    .unwrap_or_else(|| usage_error(&format!("unknown workload {value}")));
                parsed.workloads = vec![workload];
            }
            "--seed" => {
                parsed.seed = value
                    .parse()
                    .unwrap_or_else(|_| usage_error("--seed takes a whole number"));
            }
            "--seconds" => {
                parsed.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .unwrap_or_else(|| usage_error("--seconds takes a non-negative number"));
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage_error("--trace takes 0 or 1"),
                };
            }
            "--out" => parsed.out = Some(value.into()),
            _ => usage_error(&format!("unknown argument {flag}")),
        }
    }
    if parsed.workloads.is_empty() {
        usage_error("--workload is required");
    }
    parsed
}

fn main() {
    let args = parse_args(std::env::args().skip(1));
    println!("# host: {}", provenance::Host::detect());
    let traced: Vec<bool> = if args.workloads.len() > 1 {
        vec![false, true]
    } else {
        vec![args.trace]
    };
    let mut by_workload = Vec::new();
    let mut last = Json::Null;
    for &workload in &args.workloads {
        let scenario = workload.scenario(args.seed);
        let mut reports = Vec::new();
        for &trace in &traced {
            let (kind, (report, outcome)) = if trace {
                ("per_layer", layers::measure(&scenario, args.seconds))
            } else {
                ("end_to_end", e2e::measure(&scenario, args.seconds))
            };
            println!(
                "# {} {kind}: seed={} scenario_digest={:016x} outcome_digest={} \
                 correct={} attempted={} failed={}",
                workload.name(),
                args.seed,
                provenance::digest_of(&scenario),
                outcome.map_or_else(|| "none".to_string(), |d| format!("{d:016x}")),
                report.correct,
                report.attempted,
                report.failed,
            );
            for (name, metric) in &report.metrics {
                println!("#   {name:<32} {:>22} {}", metric.value, metric.unit);
            }
            last = report.to_json();
            reports.push((kind.to_string(), last.clone()));
        }
        by_workload.push((workload.name().to_string(), Json::Obj(reports)));
    }
    // One report prints as is; several nest by workload and kind.
    let result = if by_workload.len() * traced.len() == 1 {
        last
    } else {
        Json::Obj(by_workload)
    };
    if let Some(path) = &args.out {
        if let Err(e) = std::fs::write(path, format!("{result}\n")) {
            eprintln!("simbench: cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
    }
    println!("{result}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use report::Report;

    fn declared(bench: &Json, list: &str) -> Vec<(String, String)> {
        let field = |metric: &Json, key: &str| {
            metric
                .get(key)
                .and_then(Json::as_str)
                .unwrap_or_else(|| panic!("a {list} metric lacks {key}"))
                .to_string()
        };
        bench
            .get(list)
            .and_then(Json::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json lacks {list}"))
            .iter()
            .map(|metric| (field(metric, "name"), field(metric, "unit")))
            .collect()
    }

    /// `(name, unit)` of every metric, read back from the printed report.
    fn printed(report: &Report) -> Vec<(String, String)> {
        let parsed = Report::parse(&report.to_string()).expect("the printed report parses");
        assert_eq!(&parsed, report, "the reader returns what the writer wrote");
        parsed
            .metrics
            .into_iter()
            .map(|(name, metric)| (name, metric.unit))
            .collect()
    }

    #[test]
    fn printed_names_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the root");
        let bench = Json::parse(&text).expect("BENCHMARK.json parses");
        let workloads: Vec<&str> = bench
            .get("workloads")
            .and_then(Json::as_array)
            .expect("BENCHMARK.json lists workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("workload name"))
            .collect();
        assert_eq!(workloads, Workload::ALL.map(Workload::name));

        let scenario = Workload::OptDense.tiny(1);
        let (end_to_end, _) = e2e::measure(&scenario, 0.0);
        assert_eq!(printed(&end_to_end), declared(&bench, "end_to_end"));
        let (per_layer, _) = layers::measure(&scenario, 0.0);
        assert_eq!(printed(&per_layer), declared(&bench, "per_layer"));
    }

    #[test]
    fn every_workload_traces_replays_and_reconciles() {
        for workload in Workload::ALL {
            let (report, digest) = layers::measure(&workload.tiny(2), 0.0);
            let name = workload.name();
            assert!(report.correct, "{name}: {report}");
            assert!(digest.is_some());
            let v = |metric: &str| report.get(metric).expect("metric reported").value;
            let phases = v("phase.queue_ms")
                + v("phase.radio_ms")
                + v("phase.protocol_ms")
                + v("phase.observer_ms");
            assert!((phases - v("phase.sum_ms")).abs() < 1e-9, "{name}");
            assert!(
                (phases + v("world.unattributed_ms") - v("world.traced_wall_ms")).abs() < 1e-6,
                "{name}: phases plus residual must equal the traced wall time"
            );
            assert!(
                v("des.events") > 0.0 && v("mobility.lookups") > 0.0,
                "{name}"
            );
        }
    }

    #[test]
    fn radio_replay_reproduces_the_traced_run() {
        for workload in Workload::ALL {
            let traced = layers::traced_run(&workload.tiny(4));
            let (replayed, _) = layers::radio_replay(&traced.world);
            assert!(
                replayed.stats().messages > 0,
                "{}: no broadcasts",
                workload.name()
            );
            assert!(
                layers::same_channel(&replayed, traced.world.medium()),
                "{}: replay {:?} vs run {:?}",
                workload.name(),
                replayed.stats(),
                traced.world.medium().stats()
            );
        }
    }

    #[test]
    fn digest_repeats_for_a_seed_and_differs_across_seeds() {
        let mut calibration = calib::Calibration::new();
        let mut run = |scenario| e2e::run_once(&scenario, &mut calibration);
        let scenario = Workload::GossipChaos.tiny(7);
        let (a, b) = (run(scenario.clone()), run(scenario));
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.result, b.result);
        let other = run(Workload::GossipChaos.tiny(8));
        assert_ne!(a.digest, other.digest);
    }

    #[test]
    fn reader_rejects_malformed_reports() {
        for bad in [
            "",
            "{",
            "[]",
            r#"{"correct": true}"#,
            r#"{"correct": true, "attempted": 1.5, "failed": 0, "metrics": {}}"#,
            r#"{"correct": true, "attempted": 1, "failed": 0, "metrics": {"x": {"value": 1}}}"#,
            r#"{"correct": true, "attempted": 1, "failed": 0, "metrics": {}, "extra": 0}"#,
            r#"{"correct": true, "attempted": 1, "failed": 0, "metrics": {}} trailing"#,
            r#"{"correct": true, "correct": false, "attempted": 1, "failed": 0, "metrics": {}}"#,
        ] {
            assert!(Report::parse(bad).is_err(), "accepted {bad:?}");
        }
        let good = r#"{"correct": false, "attempted": 2, "failed": 1,
            "metrics": {"run_s": {"value": 1.5e-3, "unit": "s"}}}"#;
        let report = Report::parse(good).expect("a well-formed report");
        assert_eq!(
            (report.correct, report.attempted, report.failed),
            (false, 2, 1)
        );
        assert_eq!(report.get("run_s").map(|m| m.value), Some(0.0015));
    }
}
