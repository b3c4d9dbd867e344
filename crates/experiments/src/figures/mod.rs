//! One module per reproduced figure/table of the paper's evaluation.
//!
//! Every module exposes a `run(&Options) -> Vec<Table>` entry point used
//! by the `ia-experiments` binaries. `Options::quick()` shrinks the
//! sweeps so a full reproduction pass stays laptop-sized.

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

    /// Parse command-line arguments shared by the figure binaries:
    /// `--quick`, `--seeds N`, `--csv DIR`. Unrecognised args are
    /// returned for binary-specific handling.
    pub fn from_args(args: &[String]) -> (Self, Vec<String>) {
        let mut opts = Options::full();
        let mut rest = Vec::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--quick" => {
                    opts.quick = true;
                    opts.seeds = vec![1];
                }
                "--seeds" => {
                    let n: u64 = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .expect("--seeds needs a number");
                    opts.seeds = (1..=n).collect();
                }
                "--csv" => {
                    opts.csv_dir = Some(it.next().expect("--csv needs a directory").clone());
                }
                other => rest.push(other.to_string()),
            }
        }
        (opts, rest)
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

    #[test]
    fn arg_parsing() {
        let (o, rest) = Options::from_args(&[
            "--quick".into(),
            "--seeds".into(),
            "5".into(),
            "alpha".into(),
            "--csv".into(),
            "/tmp/x".into(),
        ]);
        assert!(o.quick);
        assert_eq!(o.seeds, vec![1, 2, 3, 4, 5]);
        assert_eq!(o.csv_dir.as_deref(), Some("/tmp/x"));
        assert_eq!(rest, vec!["alpha".to_string()]);
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
