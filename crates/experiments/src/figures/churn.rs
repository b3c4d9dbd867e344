//! Device-churn experiment (extension).
//!
//! The paper motivates gossiping with the "highly vulnerable mobile
//! environment" — devices come and go. Here every mobile peer alternates
//! between exponential on-line and off-line periods; an off-line device
//! neither relays nor hears anything, and on return it restarts with a
//! warm cache (gossip) or its receipt history (flooding).
//!
//! Expected shape: the gossiping family degrades gracefully with churn —
//! the ad lives in many caches, so individual outages cost little more
//! than those devices' own lost listening time — while flooding is tied
//! to its issuer and wave connectivity.

use super::{sweep_point, Options};
use crate::report::{fmt0, fmt2, Table};
use crate::scenario::{ChurnSpec, Scenario};
use ia_core::ProtocolKind;
use ia_des::SimDuration;

/// Network size for the churn grid.
pub const N_PEERS: usize = 300;

/// The churn levels swept: (label, spec).
pub fn levels(opts: &Options) -> Vec<(&'static str, Option<ChurnSpec>)> {
    let spec = |up: f64, down: f64| {
        Some(ChurnSpec::new(
            SimDuration::from_secs(up),
            SimDuration::from_secs(down),
        ))
    };
    if opts.quick {
        vec![("none", None), ("heavy (50% up)", spec(60.0, 60.0))]
    } else {
        vec![
            ("none", None),
            ("light (91% up)", spec(300.0, 30.0)),
            ("moderate (67% up)", spec(120.0, 60.0)),
            ("heavy (50% up)", spec(60.0, 60.0)),
        ]
    }
}

/// Run the churn grid.
pub fn run(opts: &Options) -> Vec<Table> {
    let mut t = Table::new(
        "Device churn (300 peers, exponential up/down periods)",
        &[
            "churn",
            "protocol",
            "delivery_rate_pct",
            "delivery_time_s",
            "messages",
        ],
    );
    for (label, churn) in levels(opts) {
        for kind in [
            ProtocolKind::Flooding,
            ProtocolKind::Gossip,
            ProtocolKind::OptGossip,
        ] {
            let mut s = Scenario::paper(kind, N_PEERS);
            s.churn = churn;
            let sum = sweep_point(opts, s);
            t.row(vec![
                label.to_string(),
                kind.label().to_string(),
                fmt2(sum.delivery_rate_mean),
                fmt2(sum.delivery_time_mean),
                fmt0(sum.messages_mean),
            ]);
        }
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Heavy churn (devices up half the time) must not collapse the
    /// gossip family: the ad survives in the collective cache.
    #[test]
    fn gossip_degrades_gracefully_under_heavy_churn() {
        let t = &run(&Options::quick())[0];
        assert_eq!(t.n_rows(), 6);
        // Rows: none x {flood, gossip, opt}, heavy x {flood, gossip, opt}.
        let gossip_none = t.cell_f64(1, 2);
        let gossip_heavy = t.cell_f64(4, 2);
        let opt_heavy = t.cell_f64(5, 2);
        // With devices off half the time, roughly half of all passages
        // are undeliverable in principle; gossip should stay well above
        // that floor thanks to redundant carriers.
        assert!(
            gossip_heavy > 55.0,
            "gossip under heavy churn: {gossip_heavy}"
        );
        assert!(opt_heavy > 45.0, "optimized under heavy churn: {opt_heavy}");
        assert!(gossip_none > gossip_heavy, "churn must cost something");
        // Churned runs still send messages (the network stays alive).
        assert!(t.cell_f64(4, 4) > 0.0);
    }
}
