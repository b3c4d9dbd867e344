//! The paper's parameter-setting tables (Table II and Table III) as
//! reconstructed by this reproduction, plus derived quantities
//! (densities, the expiry bound, the sketch budget) used throughout
//! DESIGN.md.

use crate::report::Table;
use crate::scenario::Scenario;
use ia_core::params::MAX_ENLARGE_FACTOR;
use ia_core::{rank, ProtocolKind};

/// Table II, Table III and the derived quantities.
pub fn run() -> Vec<Table> {
    let s = Scenario::paper(ProtocolKind::OptGossip, 300);
    let p = &s.params;

    let mut t2 = Table::new(
        "Table II: parameter setting (performance comparison)",
        &["name", "value"],
    );
    t2.row(vec![
        "Simulation Time".into(),
        format!("{} s (one life cycle)", s.sim_time.as_secs()),
    ]);
    t2.row(vec![
        "Field".into(),
        format!("{} m x {} m", s.area.width(), s.area.height()),
    ]);
    t2.row(vec!["R".into(), format!("{} m", s.ads[0].radius)]);
    t2.row(vec![
        "D".into(),
        format!("{} s", s.ads[0].duration.as_secs()),
    ]);
    t2.row(vec![
        "alpha, beta".into(),
        format!("{}, {}", p.alpha, p.beta),
    ]);
    t2.row(vec![
        "Gossiping Round Time".into(),
        format!("{} s", p.round_time.as_secs()),
    ]);
    t2.row(vec!["DIS".into(), format!("{} m (= R/4)", p.dis)]);
    t2.row(vec![
        "Transmission range".into(),
        format!("{} m", s.radio.range),
    ]);
    t2.row(vec![
        "Cache capacity k".into(),
        p.cache_capacity.to_string(),
    ]);
    t2.row(vec![
        "Speed".into(),
        format!("{} +/- {} m/s", s.speed_mean, s.speed_delta),
    ]);
    t2.row(vec!["Network size".into(), "100 .. 1000 peers".into()]);

    let mut t3 = Table::new(
        "Table III: parameter setting (tuning experiments)",
        &["name", "value"],
    );
    t3.row(vec!["Network size".into(), "300 peers".into()]);
    t3.row(vec!["Speed".into(), "10 +/- 5 m/s".into()]);
    t3.row(vec!["Others".into(), "as Table II".into()]);

    let mut derived = Table::new("Derived quantities", &["name", "value"]);
    derived.row(vec![
        "Density range".into(),
        format!(
            "{:.0} .. {:.0} peers/km^2",
            Scenario::paper(ProtocolKind::Gossip, 100).density_per_km2(),
            Scenario::paper(ProtocolKind::Gossip, 1000).density_per_km2()
        ),
    ]);
    derived.row(vec![
        "Guaranteed expiry bound".into(),
        format!(
            "{} rounds (cap {}x)",
            rank::expiry_bound_rounds(s.ads[0].duration, p.round_time),
            MAX_ENLARGE_FACTOR
        ),
    ]);
    derived.row(vec![
        "Sketch budget".into(),
        format!(
            "{} x {} = {} bits",
            p.sketch_f,
            p.sketch_l,
            p.sketch_f * p.sketch_l as usize
        ),
    ]);
    vec![t2, t3, derived]
}
