//! One module per reproduced figure/table of the paper's evaluation.
//!
//! Every module exposes a `run` entry point returning its `Table`s;
//! [`run`] maps each of [`NAMES`] to it for the `figures` binary.
//! `Options::quick()` shrinks the sweeps so a full reproduction pass
//! stays laptop-sized.

pub mod beta_sweep;
pub mod cache_ablation;
pub mod chaos;
pub mod churn;
pub mod contention;
pub mod fig10;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod issuer_offline;
pub mod popularity;
pub mod robustness;
pub mod tables;

use crate::report::Table;
use crate::runner::{run_seeds, summarize, Summary};
use crate::scenario::Scenario;

/// Shared experiment options.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    /// Seeds to average over.
    pub seeds: Vec<u64>,
    /// Scale the sweep down (fewer x-values, shorter life cycle) for
    /// quick runs and benches.
    pub quick: bool,
    /// Optional directory to drop CSV files into.
    pub csv_dir: Option<String>,
}

impl Options {
    pub fn full() -> Self {
        Options {
            seeds: vec![1, 2, 3],
            quick: false,
            csv_dir: None,
        }
    }

    pub fn quick() -> Self {
        Options {
            seeds: vec![1],
            quick: true,
            csv_dir: None,
        }
    }

    /// Parse the shared command-line options: `--quick`, `--seeds N`
    /// (N >= 1; seeds 1..=N, whatever the order of `--quick`),
    /// `--csv DIR`. Other arguments are returned in order.
    pub fn from_args(args: &[String]) -> Result<(Self, Vec<String>), String> {
        let mut quick = false;
        let mut seeds = None;
        let mut csv_dir = None;
        let mut rest = Vec::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--quick" => quick = true,
                "--seeds" => match it.next().and_then(|v| v.parse::<u64>().ok()) {
                    Some(n) if n >= 1 => seeds = Some((1..=n).collect()),
                    _ => return Err("--seeds needs a positive number".into()),
                },
                "--csv" => {
                    let dir = it.next().ok_or("--csv needs a directory")?;
                    csv_dir = Some(dir.clone());
                }
                other => rest.push(other.to_string()),
            }
        }
        let defaults = if quick {
            Options::quick()
        } else {
            Options::full()
        };
        let opts = Options {
            seeds: seeds.unwrap_or(defaults.seeds),
            quick,
            csv_dir,
        };
        Ok((opts, rest))
    }

    /// Apply quick-mode scaling to a scenario (shorter life cycle).
    pub fn scale(&self, scenario: Scenario) -> Scenario {
        if self.quick {
            scenario.with_life_cycle(ia_des::SimDuration::from_secs(300.0))
        } else {
            scenario
        }
    }
}

/// Every figure [`run`] knows, in the order `figures all` runs them.
pub const NAMES: [&str; 13] = [
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "beta_sweep",
    "popularity",
    "issuer_offline",
    "cache_ablation",
    "contention",
    "churn",
    "robustness",
    "chaos",
    "tables",
];

/// The tables of figure `name` (one of [`NAMES`]). `selectors` picks
/// Figure 10's sweeps (`alpha`, `round`, `dis`; all when empty) and must
/// be empty for every other figure.
pub fn run(name: &str, opts: &Options, selectors: &[String]) -> Result<Vec<Table>, String> {
    if name != "fig10" && !selectors.is_empty() {
        return Err(format!("unexpected arguments for {name}: {selectors:?}"));
    }
    Ok(match name {
        "fig7" => fig7::run(opts),
        "fig8" => fig8::run(opts),
        "fig9" => fig9::run(opts),
        "fig10" => fig10::run(opts, selectors),
        "beta_sweep" => beta_sweep::run(opts),
        "popularity" => popularity::run(opts),
        "issuer_offline" => issuer_offline::run(opts),
        "cache_ablation" => cache_ablation::run(opts),
        "contention" => contention::run(opts),
        "churn" => churn::run(opts),
        "robustness" => robustness::run(opts),
        "chaos" => chaos::run(opts),
        "tables" => tables::run(),
        other => return Err(format!("unknown figure '{other}'")),
    })
}

/// Run one scenario over the option's seeds and summarise.
pub fn sweep_point(opts: &Options, scenario: Scenario) -> Summary {
    let scenario = opts.scale(scenario);
    summarize(&run_seeds(&scenario, &opts.seeds))
}

/// Print tables and optionally dump CSVs.
pub fn emit(opts: &Options, tables: &[Table]) {
    for t in tables {
        println!("{}", t.render());
    }
    if let Some(dir) = &opts.csv_dir {
        std::fs::create_dir_all(dir).expect("create csv dir");
        for t in tables {
            let name: String = t
                .title()
                .chars()
                .map(|c| {
                    if c.is_ascii_alphanumeric() {
                        c.to_ascii_lowercase()
                    } else {
                        '_'
                    }
                })
                .collect();
            let path = format!("{dir}/{name}.csv");
            std::fs::write(&path, t.to_csv()).expect("write csv");
            println!("wrote {path}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn arg_parsing() {
        let (o, rest) = Options::from_args(&args(&[
            "--quick", "--seeds", "5", "alpha", "--csv", "/tmp/x",
        ]))
        .unwrap();
        assert!(o.quick);
        assert_eq!(o.seeds, vec![1, 2, 3, 4, 5]);
        assert_eq!(o.csv_dir.as_deref(), Some("/tmp/x"));
        assert_eq!(rest, vec!["alpha".to_string()]);
    }

    #[test]
    fn zero_or_missing_seeds_rejected() {
        for bad in [&["--seeds", "0"][..], &["--seeds"], &["--seeds", "x"]] {
            let err = Options::from_args(&args(bad)).unwrap_err();
            assert!(err.contains("--seeds"), "{bad:?}: {err}");
        }
        assert!(Options::from_args(&args(&["--csv"])).is_err());
    }

    #[test]
    fn quick_keeps_explicit_seeds_in_either_order() {
        for order in [
            &["--seeds", "4", "--quick"][..],
            &["--quick", "--seeds", "4"],
        ] {
            let (o, _) = Options::from_args(&args(order)).unwrap();
            assert!(o.quick);
            assert_eq!(o.seeds, vec![1, 2, 3, 4], "{order:?}");
        }
        let (o, _) = Options::from_args(&args(&["--quick"])).unwrap();
        assert_eq!(o, Options::quick());
        let (o, _) = Options::from_args(&[]).unwrap();
        assert_eq!(o, Options::full());
    }

    #[test]
    fn unknown_names_and_stray_selectors_rejected() {
        let opts = Options::quick();
        assert_eq!(run("tables", &opts, &[]).unwrap().len(), 3);
        assert!(run("fig11", &opts, &[]).unwrap_err().contains("unknown"));
        assert!(run("fig9", &opts, &args(&["alpha"])).is_err());
        for (i, name) in NAMES.iter().enumerate() {
            assert!(!NAMES[..i].contains(name), "{name} listed twice");
        }
    }

    #[test]
    fn defaults() {
        let full = Options::full();
        assert!(!full.quick);
        assert_eq!(full.seeds.len(), 3);
        let quick = Options::quick();
        assert!(quick.quick);
        assert_eq!(quick.seeds.len(), 1);
    }

    #[test]
    fn quick_scaling_shrinks_life_cycle() {
        use ia_core::ProtocolKind;
        let s = Scenario::paper(ProtocolKind::Gossip, 50);
        let scaled = Options::quick().scale(s.clone());
        assert!(scaled.sim_time < s.sim_time);
        let unscaled = Options::full().scale(s.clone());
        assert_eq!(unscaled.sim_time, s.sim_time);
    }
}
