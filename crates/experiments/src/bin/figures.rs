//! Regenerates the paper's figures and tables, and the extension
//! experiments, by name: `figures --help` prints how ([`USAGE`]).

use ia_experiments::figures::{self, emit, Options, NAMES};

/// The help, which the figure names follow. `--help` prints it; bad
/// input prints it after the problem and exits with code 2, as does a
/// CSV directory that cannot be created (checked before any figure runs)
/// or written.
const USAGE: &str = "\
usage: figures <name|all> [--quick] [--seeds N] [--csv DIR] [alpha] [round] [dis]
all runs each name below in turn. alpha, round and dis pick Figure 10's sweeps
(all three when none is given). --seeds N averages seeds 1..=N (default 3, or 1
with --quick). --csv DIR also writes each table as CSV.
names:";

fn fail(problem: &str) -> ! {
    eprintln!("figures: {problem}");
    std::process::exit(2);
}

fn usage(problem: &str) -> ! {
    eprintln!("figures: {problem}");
    eprintln!("{USAGE} {}", NAMES.join(" "));
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE} {}", NAMES.join(" "));
        return;
    }
    let (opts, rest) = Options::from_args(&args).unwrap_or_else(|e| usage(&e));
    let Some((name, selectors)) = rest.split_first() else {
        usage("name a figure or `all`");
    };
    if let Some(dir) = &opts.csv_dir {
        std::fs::create_dir_all(dir)
            .unwrap_or_else(|e| fail(&format!("cannot create CSV directory {dir}: {e}")));
    }
    let names = if name == "all" {
        NAMES.to_vec()
    } else {
        vec![name.as_str()]
    };
    for name in names {
        let tables = figures::run(name, &opts, selectors).unwrap_or_else(|e| usage(&e));
        emit(&opts, &tables).unwrap_or_else(|e| fail(&format!("cannot write CSV: {e}")));
    }
}
