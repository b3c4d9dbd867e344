//! Behaviour pinned at the scales the simulator is benchmarked at.
//!
//! The goldens in `determinism.rs` run 80 peers for 250 s; these run
//! 300 to 3000 peers for a full 1800 s life cycle at seed 1. Each test
//! pins the run's whole [`RunResult`] (via `Debug`, which round-trips
//! every `f64` exactly) plus the exact work counters behind it: events
//! delivered, queue pushes/pops/cascades, spatial-grid rebuilds, queries
//! and candidates evaluated exactly, per-entry wake-ups (every
//! protocol's one timer) by outcome, and frame deliveries queued or left
//! out as covered (their sum is the channel's receptions). The
//! counters do not depend on the host, so any change to event ordering,
//! timer scheduling or the grid refresh policy shows up here as an exact
//! diff, in debug and in release alike.

use ia_core::ProtocolKind;
use ia_des::SimDuration;
use ia_experiments::figures::chaos;
use ia_experiments::{Deliveries, EntryWakeups, RunResult, Scenario, World};

/// What a run must reproduce exactly.
struct Pin {
    result: &'static str,
    events: u64,
    pushes: u64,
    pops: u64,
    cascades: u64,
    grid_rebuilds: u64,
    grid_queries: u64,
    grid_candidates: u64,
    entry_wakeups: EntryWakeups,
    deliveries: Deliveries,
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
        w.medium().grid_candidates(),
    );
    let want = (
        pin.events,
        pin.pushes,
        pin.pops,
        pin.cascades,
        pin.grid_rebuilds,
        pin.grid_queries,
        pin.grid_candidates,
    );
    assert_eq!(
        got, want,
        "(events, pushes, pops, cascades, grid rebuilds, grid queries, grid candidates)"
    );
    // Nothing at or after the horizon is stored, so every pop delivers.
    assert_eq!(q.pops, w.events_processed(), "pops");
    assert_eq!(w.entry_wakeups(), pin.entry_wakeups, "entry wake-ups");
    let d = w.deliveries();
    assert_eq!(d, pin.deliveries, "deliveries");
    assert_eq!(d.queued + d.skipped, w.medium().stats().receptions);
}

/// Built exactly as simbench's `opt-dense` workload
/// (`simbench/src/workload.rs`): Optimized Gossiping, 3000 peers on the
/// paper's 5 x 5 km field. Per-entry wake-ups are most of its events.
#[test]
fn opt_dense() {
    check(
        at_benchmark_length(Scenario::paper(ProtocolKind::OptGossip, 3000)),
        Pin {
            result: r#"RunResult { ads: [AdOutcome { id: AdId { issuer: PeerId(3000), seq: 0 }, passed: 2928, delivered: 2926, passages: 7743, delivered_passages: 7712, delivery_rate: 99.59963838305566, mean_delivery_time: 0.796393284232365 }], delivery_time_dist: [Distribution { count: 7712, mean: 0.796393284232365, p50: 0.0, p90: 0.0, p99: 20.02752061, max: 36.762029 }], traffic: TrafficStats { messages: 5613, receptions: 238465, drops: 0, jammed: 0, bytes_sent: 1790547, dead_air: 0, collisions: 0 } }"#,
            events: 355_291,
            pushes: 360_208,
            pops: 355_291,
            cascades: 755_914,
            grid_rebuilds: 209,
            grid_queries: 5613,
            grid_candidates: 548_147,
            entry_wakeups: EntryWakeups {
                fired: 28_127,
                rearmed: 69_509,
                dropped: 16_188,
            },
            deliveries: Deliveries {
                queued: 238_465,
                skipped: 0,
            },
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
            result: r#"RunResult { ads: [AdOutcome { id: AdId { issuer: PeerId(1000), seq: 0 }, passed: 972, delivered: 972, passages: 2528, delivered_passages: 2510, delivery_rate: 99.2879746835443, mean_delivery_time: 3.2118317780876517 }], delivery_time_dist: [Distribution { count: 2510, mean: 3.2118317780876517, p50: 0.0, p90: 0.0013600999999999863, p99: 99.37634902999989, max: 144.841394 }], traffic: TrafficStats { messages: 75343, receptions: 1012575, drops: 112989, jammed: 24965, bytes_sent: 24034417, dead_air: 1555, collisions: 0 } }"#,
            events: 287_918,
            pushes: 288_912,
            pops: 287_918,
            cascades: 542_349,
            grid_rebuilds: 594,
            grid_queries: 75_343,
            grid_candidates: 1_606_497,
            entry_wakeups: EntryWakeups {
                fired: 75_342,
                rearmed: 23,
                dropped: 12,
            },
            deliveries: Deliveries {
                queued: 210_362,
                skipped: 802_213,
            },
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
            pops: 101_968,
            cascades: 185_430,
            grid_rebuilds: 359,
            grid_queries: 19_898,
            grid_candidates: 101_895,
            entry_wakeups: EntryWakeups {
                fired: 359,
                rearmed: 0,
                dropped: 0,
            },
            deliveries: Deliveries {
                queued: 101_307,
                skipped: 0,
            },
        },
    );
}
