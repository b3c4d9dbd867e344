//! `instant-ads` — run a custom instant-advertising scenario from the
//! command line: `instant-ads --help` lists the options ([`USAGE`]).

use instant_ads::core::ProtocolKind;
use instant_ads::des::SimDuration;
use instant_ads::experiments::scenario::MobilityKind;
use instant_ads::experiments::{run_seeds, summarize, Scenario};
use instant_ads::geo::{Point, Rect};
use instant_ads::radio::LossModel;

/// `--help` prints this; bad input prints it after its message and
/// exits with code 2.
const USAGE: &str = "\
USAGE: instant-ads [OPTIONS]      run a custom instant-advertising scenario

  --protocol KIND     flooding | gossip | opt1 | opt2 | opt   [opt]
  --peers N           mobile peers                            [300]
  --field METRES      square field side                       [5000]
  --radius METRES     advertising radius R                    [1000]
  --duration SECS     advertisement lifetime D                [1800]
  --speed MPS         mean peer speed (delta 5 m/s)           [10]
  --alpha X --beta X  formula (1)/(2) decay parameters        [0.5]
  --round SECS        gossiping round time                    [5]
  --dis METRES        mechanism-1 annulus width               [250]
  --cache K           cache capacity                          [10]
  --range METRES      radio range, also formula (4)'s         [250]
  --loss P            i.i.d. frame loss probability           [0]
  --manhattan         street-grid mobility instead of RWP
  --issuer-offline S  issuer departs S seconds after issuing
  --seeds N           average over N >= 1 seeds               [1]
  --seed X            first seed                              [42]
  --churn UP:DOWN     mean up/down seconds, e.g. 120:60
  --export-trace F    write the fleet as an NS-2 setdest trace
  -h, --help          print this help

EXAMPLE: instant-ads --protocol opt --peers 500 --loss 0.1 --seeds 3
";

fn usage() -> ! {
    eprint!("{USAGE}");
    std::process::exit(2);
}

/// Build and validate the scenario. A rule the flags break (`--peers 0`,
/// `--alpha 1.5`, ...) panics in a builder or in `Scenario::validate`;
/// it is reported with its message and exit code 2, like a bad flag.
fn checked(build: impl FnOnce() -> Scenario) -> Scenario {
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let built = std::panic::catch_unwind(std::panic::AssertUnwindSafe(build));
    std::panic::set_hook(hook);
    built.unwrap_or_else(|panic| {
        let why = panic
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| panic.downcast_ref::<&str>().copied())
            .unwrap_or("rejected");
        eprintln!("invalid scenario: {why}");
        usage();
    })
}

struct Args(std::vec::IntoIter<String>);

impl Args {
    fn value<T: std::str::FromStr>(&mut self, flag: &str) -> T {
        let Some(raw) = self.0.next() else {
            eprintln!("{flag} needs a value");
            usage();
        };
        raw.parse().unwrap_or_else(|_| {
            eprintln!("{flag}: cannot parse '{raw}'");
            usage();
        })
    }
}

fn main() {
    let mut protocol = ProtocolKind::OptGossip;
    let mut peers = 300usize;
    let mut field = 5000.0f64;
    let mut radius = 1000.0f64;
    let mut duration = 1800.0f64;
    let mut speed = 10.0f64;
    let mut alpha = 0.5f64;
    let mut beta = 0.5f64;
    let mut round = 5.0f64;
    let mut dis = 250.0f64;
    let mut cache = 10usize;
    let mut range = 250.0f64;
    let mut loss = 0.0f64;
    let mut manhattan = false;
    let mut issuer_offline: Option<f64> = None;
    let mut n_seeds = 1u64;
    let mut seed0 = 42u64;
    let mut churn: Option<(f64, f64)> = None;
    let mut export_trace: Option<String> = None;

    let mut args = Args(std::env::args().skip(1).collect::<Vec<_>>().into_iter());
    while let Some(arg) = args.0.next() {
        match arg.as_str() {
            "--protocol" => {
                let v: String = args.value("--protocol");
                protocol = match v.as_str() {
                    "flooding" => ProtocolKind::Flooding,
                    "gossip" => ProtocolKind::Gossip,
                    "opt1" => ProtocolKind::OptGossip1,
                    "opt2" => ProtocolKind::OptGossip2,
                    "opt" => ProtocolKind::OptGossip,
                    other => {
                        eprintln!("unknown protocol '{other}'");
                        usage();
                    }
                };
            }
            "--peers" => peers = args.value("--peers"),
            "--field" => field = args.value("--field"),
            "--radius" => radius = args.value("--radius"),
            "--duration" => duration = args.value("--duration"),
            "--speed" => speed = args.value("--speed"),
            "--alpha" => alpha = args.value("--alpha"),
            "--beta" => beta = args.value("--beta"),
            "--round" => round = args.value("--round"),
            "--dis" => dis = args.value("--dis"),
            "--cache" => cache = args.value("--cache"),
            "--range" => range = args.value("--range"),
            "--loss" => loss = args.value("--loss"),
            "--manhattan" => manhattan = true,
            "--issuer-offline" => issuer_offline = Some(args.value("--issuer-offline")),
            "--seeds" => {
                n_seeds = args.value("--seeds");
                if n_seeds == 0 {
                    eprintln!("--seeds needs a positive number");
                    usage();
                }
            }
            "--seed" => seed0 = args.value("--seed"),
            "--churn" => {
                let v: String = args.value("--churn");
                let Some((up, down)) = v.split_once(':') else {
                    eprintln!("--churn wants UP:DOWN seconds");
                    usage();
                };
                churn = Some((
                    up.parse().unwrap_or_else(|_| usage()),
                    down.parse().unwrap_or_else(|_| usage()),
                ));
            }
            "--export-trace" => export_trace = Some(args.value("--export-trace")),
            "--help" | "-h" => {
                print!("{USAGE}");
                return;
            }
            other => {
                eprintln!("unknown argument '{other}'");
                usage();
            }
        }
    }

    let delta = (speed * 0.5).min(5.0);
    let s = checked(|| {
        let mut s = Scenario::paper(protocol, peers);
        s.area = Rect::with_size(field, field);
        s.ads[0].issue_pos = Point::new(field / 2.0, field / 2.0);
        s.ads[0].radius = radius;
        s = s.with_life_cycle(SimDuration::from_secs(duration));
        s = s.with_speed(speed, delta);
        s.params = s
            .params
            .with_alpha(alpha)
            .with_beta(beta)
            .with_round_time(SimDuration::from_secs(round))
            .with_dis(dis)
            .with_cache_capacity(cache);
        s.radio = s.radio.clone().with_range(range);
        if loss != 0.0 {
            s.radio = s.radio.clone().with_loss(LossModel::Bernoulli(loss));
        }
        if manhattan {
            s = s.with_mobility(MobilityKind::Manhattan);
        }
        if let Some(after) = issuer_offline {
            s = s.with_issuer_offline_after(SimDuration::from_secs(after));
        }
        if let Some((up, down)) = churn {
            s = s.with_churn(instant_ads::experiments::ChurnSpec::new(
                SimDuration::from_secs(up),
                SimDuration::from_secs(down),
            ));
        }
        s.validate();
        s
    });

    if let Some(path) = &export_trace {
        let world = instant_ads::experiments::World::new(s.clone().with_seed(seed0));
        let trace = instant_ads::mobility::ns2::export_fleet(world.fleet());
        if let Err(e) = std::fs::write(path, &trace) {
            eprintln!("--export-trace {path}: {e}");
            std::process::exit(2);
        }
        println!(
            "wrote NS-2 setdest trace for {} nodes to {path}",
            s.n_nodes()
        );
    }

    println!("instant-ads: {protocol} | {peers} peers on {field:.0} m x {field:.0} m");
    println!(
        "  ad: R = {radius:.0} m, D = {duration:.0} s | alpha {alpha}, beta {beta}, round {round:.0} s, DIS {dis:.0} m, k = {cache}"
    );
    println!(
        "  radio: {range:.0} m range, loss {loss} | mobility: {} at {speed:.0} +/- {delta:.0} m/s{}",
        if manhattan { "Manhattan" } else { "Random Waypoint" },
        match issuer_offline {
            Some(a) => format!(" | issuer departs after {a:.0} s"),
            None => String::new(),
        }
    );

    let seeds: Vec<u64> = (0..n_seeds).map(|k| seed0 + k).collect();
    let results = run_seeds(&s, &seeds);
    let sum = summarize(&results);
    println!();
    println!(
        "delivery rate : {:.2}% (std {:.2}) over {} seed(s)",
        sum.delivery_rate_mean, sum.delivery_rate_std, sum.runs
    );
    println!(
        "delivery time : {:.2} s (std {:.2})",
        sum.delivery_time_mean, sum.delivery_time_std
    );
    println!(
        "messages      : {:.0} (std {:.0})",
        sum.messages_mean, sum.messages_std
    );
    let tails = &results[0].delivery_time_dist[0];
    println!(
        "wait tails    : p50 {:.2} s, p90 {:.2} s, p99 {:.2} s, max {:.2} s (seed {seed0})",
        tails.p50, tails.p90, tails.p99, tails.max
    );
    let bytes: f64 = results
        .iter()
        .map(|r| r.traffic.bytes_sent as f64)
        .sum::<f64>()
        / results.len() as f64;
    println!("traffic       : {:.1} kB mean", bytes / 1000.0);
}
