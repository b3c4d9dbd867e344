//! Behaviour pinned at the scales the simulator is benchmarked at.
//!
//! The goldens in `determinism.rs` run 80 peers for 250 s; these run
//! 300 to 3000 peers for a full 1800 s life cycle at seed 1. Each test
//! pins the run's whole [`RunResult`] (via `Debug`, which round-trips
//! every `f64` exactly) plus the exact work counters behind it: events
//! delivered, queue pushes/pops/cascades, and spatial-grid
//! rebuilds/queries. The counters do not depend on the host, so any
//! change to event ordering, timer scheduling or the grid refresh policy
//! shows up here as an exact diff, in debug and in release alike.

use ia_core::ProtocolKind;
use ia_des::SimDuration;
use ia_experiments::figures::chaos;
use ia_experiments::{RunResult, Scenario, World};

/// What a run must reproduce exactly.
struct Pin {
    result: &'static str,
    events: u64,
    pushes: u64,
    pops: u64,
    cascades: u64,
    grid_rebuilds: u64,
    grid_queries: u64,
}

/// Seed 1, a full 1800 s life cycle: the benchmark's run length.
fn at_benchmark_length(s: Scenario) -> Scenario {
    s.with_seed(1)
        .with_life_cycle(SimDuration::from_secs(1800.0))
}

fn check(scenario: Scenario, pin: Pin) {
    let mut w = World::new(scenario);
    w.run();
    assert_eq!(format!("{:?}", RunResult::of(&w)), pin.result, "RunResult");
    let q = w.queue_stats();
    let got = (
        w.events_processed(),
        q.pushes,
        q.pops,
        q.cascades,
        w.medium().grid_rebuilds(),
        w.medium().grid_queries(),
    );
    let want = (
        pin.events,
        pin.pushes,
        pin.pops,
        pin.cascades,
        pin.grid_rebuilds,
        pin.grid_queries,
    );
    assert_eq!(
        got, want,
        "(events, pushes, pops, cascades, grid rebuilds, grid queries)"
    );
}

/// Built exactly as simbench's `opt-dense` workload
/// (`simbench/src/workload.rs`): Optimized Gossiping, 3000 peers on the
/// paper's 5 x 5 km field. Per-entry wake-ups are most of its events.
#[test]
fn opt_dense() {
    check(
        at_benchmark_length(Scenario::paper(ProtocolKind::OptGossip, 3000)),
        Pin {
            result: r#"RunResult { ads: [AdOutcome { id: AdId { issuer: PeerId(3000), seq: 0 }, passed: 2928, delivered: 2927, passages: 7743, delivered_passages: 7715, delivery_rate: 99.63838305566318, mean_delivery_time: 0.7704644457550227 }], delivery_time_dist: [Distribution { count: 7715, mean: 0.7704644457550227, p50: 0.0, p90: 0.0, p99: 20.02122678, max: 33.016226 }], traffic: TrafficStats { messages: 5626, receptions: 239292, drops: 0, jammed: 0, bytes_sent: 1794694, dead_air: 0, collisions: 0 } }"#,
            events: 1_070_294,
            pushes: 1_076_376,
            pops: 1_070_295,
            cascades: 2_929_083,
            grid_rebuilds: 208,
            grid_queries: 5_626,
        },
    );
}

/// Built exactly as simbench's `gossip-chaos` workload
/// (`simbench/src/workload.rs`): basic gossiping, 1000 peers, the chaos
/// ladder's "severe" fault plan, and the issuer off-line after that
/// level's `issuer_offline_after`.
#[test]
fn gossip_chaos() {
    let severe = chaos::levels()
        .into_iter()
        .find(|level| level.label == "severe")
        .expect("the chaos ladder has a severe level");
    let s = Scenario::paper(ProtocolKind::Gossip, 1000).with_faults(severe.faults);
    let s = match severe.issuer_offline_after {
        Some(after) => s.with_issuer_offline_after(after),
        None => s,
    };
    check(
        at_benchmark_length(s),
        Pin {
            result: r#"RunResult { ads: [AdOutcome { id: AdId { issuer: PeerId(1000), seq: 0 }, passed: 972, delivered: 972, passages: 2528, delivered_passages: 2510, delivery_rate: 99.2879746835443, mean_delivery_time: 2.9276621278884463 }], delivery_time_dist: [Distribution { count: 2510, mean: 2.9276621278884463, p50: 0.0, p90: 0.0, p99: 92.69981930999967, max: 140.921666 }], traffic: TrafficStats { messages: 75297, receptions: 1010796, drops: 113157, jammed: 24880, bytes_sent: 24019743, dead_air: 1569, collisions: 0 } }"#,
            events: 1_359_720,
            pushes: 1_360_720,
            pops: 1_359_721,
            cascades: 2_720_464,
            grid_rebuilds: 1748,
            grid_queries: 75_297,
        },
    );
}

/// Flooding, 300 peers: the one protocol neither benchmark workload runs.
#[test]
fn flooding_300() {
    check(
        at_benchmark_length(Scenario::paper(ProtocolKind::Flooding, 300)),
        Pin {
            result: r#"RunResult { ads: [AdOutcome { id: AdId { issuer: PeerId(300), seq: 0 }, passed: 294, delivered: 294, passages: 756, delivered_passages: 750, delivery_rate: 99.2063492063492, mean_delivery_time: 3.657011988000002 }], delivery_time_dist: [Distribution { count: 750, mean: 3.657011988000002, p50: 0.0, p90: 5.997083400000005, p99: 78.25462518999997, max: 131.986264 }], traffic: TrafficStats { messages: 19898, receptions: 101307, drops: 0, jammed: 0, bytes_sent: 6586238, dead_air: 2, collisions: 0 } }"#,
            events: 101_968,
            pushes: 101_969,
            pops: 101_969,
            cascades: 185_431,
            grid_rebuilds: 359,
            grid_queries: 19_898,
        },
    );
}
