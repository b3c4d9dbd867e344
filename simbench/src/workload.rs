//! The benchmark's workloads. Each is a closed batch: one fixed-seed,
//! single-threaded `World` run to the horizon, with no arrivals. Together
//! they load every layer, and each planned hot-path change has one
//! workload that exercises it and one that bypasses it (see `README.md`).

use ia_core::ProtocolKind;
use ia_des::SimDuration;
use ia_experiments::figures::chaos;
use ia_experiments::Scenario;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Timer-bound: Optimized Gossiping at 3000 peers on the paper's
    /// 5 x 5 km field (120 /km²). Per-entry wake-ups are most events and
    /// broadcasts are rare.
    OptDense,
    /// Broadcast-bound: basic gossiping (no per-entry timers) at 1000
    /// peers under the ext-6 severe fault plan, issuer off-line at 60 s.
    GossipChaos,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::OptDense, Workload::GossipChaos];

    pub fn name(self) -> &'static str {
        match self {
            Workload::OptDense => "opt-dense",
            Workload::GossipChaos => "gossip-chaos",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's scenario at `seed`: a full 1800 s life cycle.
    pub fn scenario(self, seed: u64) -> Scenario {
        self.build(seed, 1, 1800.0)
    }

    /// A cut-down scenario for the tests: a tenth of the peers and a
    /// 300 s life cycle.
    #[cfg(test)]
    pub fn tiny(self, seed: u64) -> Scenario {
        self.build(seed, 10, 300.0)
    }

    fn build(self, seed: u64, shrink: usize, life_cycle_s: f64) -> Scenario {
        let scenario = match self {
            Workload::OptDense => Scenario::paper(ProtocolKind::OptGossip, 3000 / shrink),
            Workload::GossipChaos => {
                let severe = chaos::levels()
                    .into_iter()
                    .find(|level| level.label == "severe")
                    .expect("the chaos ladder has a severe level");
                let s =
                    Scenario::paper(ProtocolKind::Gossip, 1000 / shrink).with_faults(severe.faults);
                match severe.issuer_offline_after {
                    Some(after) => s.with_issuer_offline_after(after),
                    None => s,
                }
            }
        };
        let scenario = scenario
            .with_seed(seed)
            .with_life_cycle(SimDuration::from_secs(life_cycle_s));
        scenario.validate();
        scenario
    }
}
