//! Regenerates the paper's figures and tables, and the extension
//! experiments, by name.
//!
//! Usage: `cargo run --release -p ia-experiments --bin figures -- <name|all> [--quick] [--seeds N] [--csv DIR] [alpha] [round] [dis]`
//!
//! `name` is one of `fig7 fig8 fig9 fig10 beta_sweep popularity
//! issuer_offline cache_ablation contention churn robustness chaos
//! tables`; `all` runs each in that order. `alpha`, `round` and `dis`
//! pick Figure 10's sweeps (all three when none is given). `--seeds N`
//! averages seeds 1..=N (default 3, or 1 with `--quick`). Bad arguments
//! print usage and exit with code 2.

use ia_experiments::figures::{self, emit, Options, NAMES};

fn usage(problem: &str) -> ! {
    eprintln!("figures: {problem}");
    eprintln!("usage: figures <name|all> [--quick] [--seeds N] [--csv DIR] [alpha] [round] [dis]");
    eprintln!("names: {}", NAMES.join(" "));
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (opts, rest) = Options::from_args(&args).unwrap_or_else(|e| usage(&e));
    let Some((name, selectors)) = rest.split_first() else {
        usage("name a figure or `all`");
    };
    let names = if name == "all" {
        NAMES.to_vec()
    } else {
        vec![name.as_str()]
    };
    for name in names {
        let tables = figures::run(name, &opts, selectors).unwrap_or_else(|e| usage(&e));
        emit(&opts, &tables);
    }
}
