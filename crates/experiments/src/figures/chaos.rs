//! Chaos robustness matrix (extension, `ext-6`).
//!
//! Sweeps a deterministic fault plan of rising intensity across the three
//! headline protocols and reports delivery quality next to the
//! [`FaultLedger`]'s injected-vs-survived accounting. The matrix makes
//! the paper's "highly vulnerable mobile environment" motivation
//! concrete:
//!
//! * **Restricted Flooding** depends on fresh issuer waves — jam the
//!   early waves and take the issuer off-line and its delivery collapses;
//! * **(Optimized) Gossiping** stores and forwards, so cached copies
//!   re-enter circulation once a jam lifts or a partition heals, and
//!   delivery degrades gracefully instead.
//!
//! Faults are timed to hit the critical early phase of the ad life cycle
//! (the first 300 s), so the matrix shape is the same at `--quick` and
//! full scale.
//!
//! With `--csv DIR`, every (intensity, protocol) cell additionally drops
//! the first seed's per-round [`FaultLedger`] timeline as
//! `chaos_rounds_<level>_<protocol>.csv` — the collapse-vs-heal curves
//! behind the endpoint aggregates.

use super::Options;
use crate::observer::FaultLedger;
use crate::report::{fmt0, fmt2, Table};
use crate::scenario::{BurstLossSpec, CorruptionSpec, FaultPlan, PartitionWave, Scenario};
use crate::world::World;
use ia_core::ProtocolKind;
use ia_des::{SimDuration, SimTime};
use ia_geo::Point;
use ia_radio::JamZone;

/// Network size for the chaos grid.
pub const N_PEERS: usize = 300;

const PROTOCOLS: [ProtocolKind; 3] = [
    ProtocolKind::Flooding,
    ProtocolKind::Gossip,
    ProtocolKind::OptGossip,
];

/// One rung of the fault-intensity ladder.
pub struct Level {
    pub label: &'static str,
    pub faults: FaultPlan,
    /// The issuer's device switches off this long after the start (the
    /// paper's off-line scenario) — `None` keeps it on-line.
    pub issuer_offline_after: Option<SimDuration>,
}

/// The three intensity levels of the matrix.
pub fn levels() -> Vec<Level> {
    vec![
        Level {
            label: "none",
            faults: FaultPlan::none(),
            issuer_offline_after: None,
        },
        // Moderate: a lossy, corrupting channel plus an off-centre jammer
        // during the early spread; the issuer retires at 120 s.
        Level {
            label: "moderate",
            faults: FaultPlan::none()
                .with_burst_loss(BurstLossSpec {
                    from: SimTime::from_secs(30.0),
                    until: SimTime::from_secs(600.0),
                    p_enter_bad: 0.05,
                    p_exit_bad: 0.25,
                    loss_good: 0.01,
                    loss_bad: 0.5,
                })
                .with_corruption(CorruptionSpec {
                    from: SimTime::from_secs(30.0),
                    until: SimTime::from_secs(600.0),
                    p_corrupt: 0.1,
                    max_flips: 4,
                })
                .with_jam_zone(JamZone::stationary(
                    Point::new(1700.0, 2500.0),
                    500.0,
                    SimTime::from_secs(60.0),
                    SimTime::from_secs(240.0),
                )),
            issuer_offline_after: Some(SimDuration::from_secs(120.0)),
        },
        // Severe: the jammer parks on the advertising area through the
        // critical early waves, half the fleet partitions at 90 s, the
        // channel bursts and corrupts harder, and the issuer is gone
        // after 60 s. Only stored copies can finish the job.
        Level {
            label: "severe",
            faults: FaultPlan::none()
                .with_jam_zone(JamZone::stationary(
                    Point::new(2500.0, 2500.0),
                    900.0,
                    SimTime::from_secs(45.0),
                    SimTime::from_secs(150.0),
                ))
                .with_partition_wave(PartitionWave {
                    at: SimTime::from_secs(90.0),
                    fraction: 0.5,
                    down_for: SimDuration::from_secs(150.0),
                })
                .with_burst_loss(BurstLossSpec {
                    from: SimTime::from_secs(20.0),
                    until: SimTime::from_secs(600.0),
                    p_enter_bad: 0.1,
                    p_exit_bad: 0.15,
                    loss_good: 0.05,
                    loss_bad: 0.8,
                })
                .with_corruption(CorruptionSpec {
                    from: SimTime::from_secs(20.0),
                    until: SimTime::from_secs(600.0),
                    p_corrupt: 0.25,
                    max_flips: 8,
                }),
            issuer_offline_after: Some(SimDuration::from_secs(60.0)),
        },
    ]
}

/// File-name-safe form of a protocol label.
fn slug(label: &str) -> String {
    label
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '_'
            }
        })
        .collect()
}

/// Per-cell aggregates over the option's seeds.
struct Cell {
    delivery_rate: f64,
    messages: f64,
    faulted: f64,
    survival_pct: f64,
}

/// Run one (level, protocol) cell with a [`FaultLedger`] attached.
fn chaos_point(opts: &Options, level: &Level, kind: ProtocolKind) -> Cell {
    let mut rates = Vec::new();
    let mut msgs = Vec::new();
    let mut faulted = Vec::new();
    let mut survival = Vec::new();
    for &seed in &opts.seeds {
        let mut s = Scenario::paper(kind, N_PEERS)
            .with_faults(level.faults.clone())
            .with_seed(seed);
        if let Some(after) = level.issuer_offline_after {
            s = s.with_issuer_offline_after(after);
        }
        let s = opts.scale(s);
        let bucket = s.params.round_time;
        let mut w = World::new(s);
        w.attach_observer(Box::new(FaultLedger::new(bucket)));
        w.run();
        rates.push(w.tracker().outcomes()[0].delivery_rate);
        msgs.push(w.medium().stats().messages as f64);
        let ledger = w.observer::<FaultLedger>().expect("ledger attached");
        faulted.push(ledger.faulted() as f64);
        survival.push(100.0 * ledger.survival_rate());
        // Collapse-vs-heal curves: the first seed's per-round ledger
        // timeline, one CSV per (intensity, protocol) cell.
        if seed == opts.seeds[0] {
            if let Some(dir) = &opts.csv_dir {
                std::fs::create_dir_all(dir).expect("create csv dir");
                let path = format!(
                    "{dir}/chaos_rounds_{}_{}.csv",
                    level.label,
                    slug(kind.label())
                );
                std::fs::write(&path, ledger.to_csv()).expect("write csv");
                println!("wrote {path}");
            }
        }
    }
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
    Cell {
        delivery_rate: mean(&rates),
        messages: mean(&msgs),
        faulted: mean(&faulted),
        survival_pct: mean(&survival),
    }
}

/// The chaos robustness matrix.
pub fn run_matrix(opts: &Options) -> Table {
    let mut t = Table::new(
        "Chaos: fault-intensity matrix (300 peers, FaultLedger accounting)",
        &[
            "intensity",
            "protocol",
            "delivery_rate_pct",
            "messages",
            "frames_faulted",
            "frame_survival_pct",
        ],
    );
    for level in levels() {
        for kind in PROTOCOLS {
            let c = chaos_point(opts, &level, kind);
            t.row(vec![
                level.label.to_string(),
                kind.label().to_string(),
                fmt2(c.delivery_rate),
                fmt0(c.messages),
                fmt0(c.faulted),
                fmt2(c.survival_pct),
            ]);
        }
    }
    t
}

/// The chaos table set.
pub fn run(opts: &Options) -> Vec<Table> {
    vec![run_matrix(opts)]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// FNV-1a over `text`, to pin long outputs in one hex literal.
    fn fnv1a(text: &str) -> u64 {
        text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// Row layout: 3 protocols per level in `PROTOCOLS` order, levels in
    /// `levels()` order. Columns: 2 = delivery rate, 3 = messages,
    /// 4 = faulted, 5 = survival.
    #[test]
    fn matrix_shows_gossip_degrading_gracefully_and_flooding_collapsing() {
        let dir = std::env::temp_dir().join(format!("ia_chaos_rounds_{}", std::process::id()));
        let mut opts = Options::quick();
        opts.csv_dir = Some(dir.to_string_lossy().into_owned());
        let t = run_matrix(&opts);

        // Every (intensity, protocol) cell dropped a per-round ledger CSV.
        for level in ["none", "moderate", "severe"] {
            for proto in ["flooding", "gossiping", "optimized_gossiping"] {
                let path = dir.join(format!("chaos_rounds_{level}_{proto}.csv"));
                let csv = std::fs::read_to_string(&path).expect("round csv written");
                assert!(csv.starts_with("round,t_start_s,delivered,faulted,degradation\n"));
                assert!(csv.lines().count() > 1, "{path:?} has no data rows");
            }
        }
        // The severe rung must ledger real per-round faults.
        let severe = std::fs::read_to_string(dir.join("chaos_rounds_severe_gossiping.csv"))
            .expect("severe csv");
        assert!(
            severe
                .lines()
                .skip(1)
                .any(|l| l.split(',').nth(3).is_some_and(|f| f != "0")),
            "severe gossiping rounds ledgered no faults:\n{severe}"
        );
        // Pinned outputs, frozen before the observer bus went empty by
        // default: the rendered quick-mode table and the severe-gossiping
        // ledger timeline must not move while observers are removed. The
        // table (its Optimized Gossiping rows) was re-pinned when entry
        // ticks switched to keyed draws, and the table and the ledger when
        // the start phase, round coins and GPS noise did too, and both
        // again when frame corruption became a keyed, send-time verdict.
        assert_eq!(
            format!("{:016x}", fnv1a(&severe)),
            "b6ebb83188ee3217",
            "severe gossiping ledger CSV drifted:\n{severe}"
        );
        let rendered = t.render();
        assert_eq!(
            format!("{:016x}", fnv1a(&rendered)),
            "eedfc6f7c45ba381",
            "chaos table drifted:\n{rendered}"
        );
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(t.n_rows(), 9);
        let rate = |row: usize| t.cell_f64(row, 2);
        let msgs = |row: usize| t.cell_f64(row, 3);

        // Clean level sanity: everyone delivers, optimized gossiping does
        // not out-message plain gossiping.
        assert!(rate(0) > 80.0 && rate(1) > 80.0 && rate(2) > 80.0);
        for base in [0, 3, 6] {
            assert!(
                msgs(base + 2) <= msgs(base + 1),
                "optimized must not exceed gossip messages at level {base}"
            );
        }

        // Fault accounting only appears once faults are injected.
        assert_eq!(t.cell_f64(0, 4), 0.0);
        for row in 3..9 {
            assert!(t.cell_f64(row, 4) > 0.0, "row {row} ledgered no faults");
            assert!(t.cell_f64(row, 5) < 100.0);
        }

        // At both fault levels flooding collapses — the jammed early
        // waves are never reissued — while gossiping's stored copies keep
        // a usable delivery rate.
        for base in [3, 6] {
            let flood = rate(base);
            let gossip = rate(base + 1);
            assert!(
                flood < 50.0,
                "flooding should collapse at level {base}: {flood}"
            );
            assert!(
                gossip > 60.0,
                "gossip should degrade gracefully at level {base}: {gossip}"
            );
            assert!(gossip > flood + 20.0, "{gossip} vs {flood}");
        }
    }
}
