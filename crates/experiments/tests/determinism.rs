//! Satellite guarantee: the same scenario + seed produces a
//! byte-identical [`RunResult`] no matter how many worker threads run the
//! sweep and no matter which observers are attached. Observers are
//! passive and every RNG stream derives from the master seed, so neither
//! knob may leak into the simulated outcome.

use ia_core::ProtocolKind;
use ia_des::{SimDuration, SimTime};
use ia_experiments::scenario::InterestWorkload;
use ia_experiments::{
    run_scenario, run_seeds_with_threads, BurstLossSpec, ChurnSpec, CorruptionSpec, FaultLedger,
    FaultPlan, JsonlTrace, PartitionWave, RunResult, Scenario, SimObserver, World,
};
use ia_geo::Point;
use ia_mobility::NoiseRamp;
use ia_radio::JamZone;

fn scenario() -> Scenario {
    Scenario::paper(ProtocolKind::OptGossip, 60)
        .with_seed(77)
        .with_life_cycle(SimDuration::from_secs(250.0))
}

/// A scenario exercising every fault class at once: jamming, burst loss,
/// frame corruption, a partition wave, and a GPS degradation ramp.
fn chaotic_scenario() -> Scenario {
    Scenario::paper(ProtocolKind::Gossip, 90)
        .with_seed(909)
        .with_life_cycle(SimDuration::from_secs(250.0))
        .with_faults(golden_faults())
}

/// Exact equality of everything a run reports, including the float
/// distributions (bitwise, via PartialEq on f64 fields).
fn assert_identical(a: &RunResult, b: &RunResult, what: &str) {
    assert_eq!(a.ads, b.ads, "{what}: ad outcomes differ");
    assert_eq!(
        a.delivery_time_dist, b.delivery_time_dist,
        "{what}: distributions differ"
    );
    assert_eq!(a.traffic, b.traffic, "{what}: traffic differs");
}

/// The fault plan of [`chaotic_scenario`] and of the frozen reference
/// runs below: every fault class at once, at pinned parameters.
fn golden_faults() -> FaultPlan {
    FaultPlan::none()
        .with_jam_zone(
            JamZone::stationary(
                Point::new(2200.0, 2500.0),
                700.0,
                SimTime::from_secs(30.0),
                SimTime::from_secs(200.0),
            )
            .moving(ia_geo::Vector::new(3.0, 0.0)),
        )
        .with_burst_loss(BurstLossSpec {
            from: SimTime::from_secs(20.0),
            until: SimTime::from_secs(220.0),
            p_enter_bad: 0.08,
            p_exit_bad: 0.25,
            loss_good: 0.01,
            loss_bad: 0.6,
        })
        .with_corruption(CorruptionSpec {
            from: SimTime::from_secs(15.0),
            until: SimTime::from_secs(230.0),
            p_corrupt: 0.15,
            max_flips: 6,
        })
        .with_partition_wave(PartitionWave {
            at: SimTime::from_secs(90.0),
            fraction: 0.3,
            down_for: SimDuration::from_secs(45.0),
        })
        .with_gps_ramp(NoiseRamp::new(
            SimTime::from_secs(40.0),
            SimTime::from_secs(210.0),
            120.0,
        ))
}

fn golden_scenario(kind: ProtocolKind, faulted: bool) -> Scenario {
    let mut s = Scenario::paper(kind, 80)
        .with_seed(4242)
        .with_life_cycle(SimDuration::from_secs(250.0));
    if faulted {
        s = s.with_faults(golden_faults());
    }
    s
}

/// Full [`RunResult`]s captured from the build *before* the hot-path
/// overhaul (mobility leg cursors, recycled broadcast outcomes, the
/// watermark event queue), printed via `Debug` — which round-trips every
/// `f64` exactly, so string equality is bitwise equality. Any optimization
/// that perturbs a position value, an RNG draw, or an event ordering
/// shows up here as a diff against the frozen reference.
///
/// The OptGossip1/OptGossip2/OptGossip rows were frozen later, from the
/// build *before* the timing-wheel scheduler swap and the adaptive grid
/// refresh: they pin exactly the postponement and annulus paths the wheel
/// reorders first if it ever breaks the `(time, seq)` total order.
///
/// The OptGossip2 and OptGossip rows were re-pinned once more when entry
/// ticks switched from the peer's sequential RNG stream to keyed draws
/// (`ia_des::rng::keyed_unit`) and a stale wake-up stopped building a
/// context (and with it drawing GPS noise).
///
/// The Gossip and OptGossip1 rows, and every faulted row whose run the
/// GPS ramp moves, were re-pinned when the last protocol-side and GPS
/// draws became keyed: the start phase by (peer, start instant), round
/// coins by (peer, ad, round instant), GPS noise by (node, instant), and
/// rounds were ranked ahead of the other events at their instant.
///
/// Every faulted row was re-pinned when frame corruption became a keyed
/// draw on (sender, ad, send instant, receiver), decided when the frame
/// is sent, instead of a draw from one sequential stream at arrival.
const GOLDEN_PINS: [(ProtocolKind, bool, &str); 10] = [
    (
        ProtocolKind::Flooding,
        false,
        r#"RunResult { ads: [AdOutcome { id: AdId { issuer: PeerId(80), seq: 0 }, passed: 42, delivered: 18, passages: 46, delivered_passages: 19, delivery_rate: 41.30434782608695, mean_delivery_time: 64.18520710526316 }], delivery_time_dist: [Distribution { count: 19, mean: 64.18520710526316, p50: 70.297316, p90: 96.17644179999999, p99: 168.85214182, max: 181.87165 }], traffic: TrafficStats { messages: 216, receptions: 378, drops: 0, jammed: 0, bytes_sent: 71496, dead_air: 0, collisions: 0 } }"#,
    ),
    (
        ProtocolKind::Flooding,
        true,
        r#"RunResult { ads: [AdOutcome { id: AdId { issuer: PeerId(80), seq: 0 }, passed: 42, delivered: 12, passages: 46, delivered_passages: 13, delivery_rate: 28.26086956521739, mean_delivery_time: 90.8218306923077 }], delivery_time_dist: [Distribution { count: 13, mean: 90.8218306923077, p50: 82.632926, p90: 181.4373284, p99: 233.03618011999993, max: 240.014759 }], traffic: TrafficStats { messages: 107, receptions: 159, drops: 5, jammed: 50, bytes_sent: 35417, dead_air: 36, collisions: 0 } }"#,
    ),
    (
        ProtocolKind::Gossip,
        false,
        r#"RunResult { ads: [AdOutcome { id: AdId { issuer: PeerId(80), seq: 0 }, passed: 42, delivered: 27, passages: 46, delivered_passages: 28, delivery_rate: 60.869565217391305, mean_delivery_time: 42.93497214285714 }], delivery_time_dist: [Distribution { count: 28, mean: 42.93497214285714, p50: 44.1457505, p90: 82.2361431, p99: 123.56050141000003, max: 135.921187 }], traffic: TrafficStats { messages: 430, receptions: 577, drops: 0, jammed: 0, bytes_sent: 137170, dead_air: 73, collisions: 0 } }"#,
    ),
    (
        ProtocolKind::Gossip,
        true,
        r#"RunResult { ads: [AdOutcome { id: AdId { issuer: PeerId(80), seq: 0 }, passed: 42, delivered: 27, passages: 46, delivered_passages: 28, delivery_rate: 60.869565217391305, mean_delivery_time: 66.30127839285713 }], delivery_time_dist: [Distribution { count: 28, mean: 66.30127839285713, p50: 56.0211525, p90: 144.1604444, p99: 196.58637435, max: 205.467078 }], traffic: TrafficStats { messages: 301, receptions: 320, drops: 17, jammed: 93, bytes_sent: 96019, dead_air: 124, collisions: 0 } }"#,
    ),
    (
        ProtocolKind::OptGossip1,
        false,
        r#"RunResult { ads: [AdOutcome { id: AdId { issuer: PeerId(80), seq: 0 }, passed: 42, delivered: 17, passages: 46, delivered_passages: 18, delivery_rate: 39.130434782608695, mean_delivery_time: 54.809912499999996 }], delivery_time_dist: [Distribution { count: 18, mean: 54.809912499999996, p50: 42.5444805, p90: 116.48299410000003, p99: 185.6462185399999, max: 194.612824 }], traffic: TrafficStats { messages: 83, receptions: 115, drops: 0, jammed: 0, bytes_sent: 26477, dead_air: 11, collisions: 0 } }"#,
    ),
    (
        ProtocolKind::OptGossip1,
        true,
        r#"RunResult { ads: [AdOutcome { id: AdId { issuer: PeerId(80), seq: 0 }, passed: 42, delivered: 15, passages: 46, delivered_passages: 16, delivery_rate: 34.78260869565217, mean_delivery_time: 61.85650449999999 }], delivery_time_dist: [Distribution { count: 16, mean: 61.85650449999999, p50: 56.12589, p90: 123.737957, p99: 176.4692398, max: 182.57533 }], traffic: TrafficStats { messages: 63, receptions: 64, drops: 8, jammed: 20, bytes_sent: 20097, dead_air: 23, collisions: 0 } }"#,
    ),
    (
        ProtocolKind::OptGossip2,
        false,
        r#"RunResult { ads: [AdOutcome { id: AdId { issuer: PeerId(80), seq: 0 }, passed: 42, delivered: 23, passages: 46, delivered_passages: 24, delivery_rate: 52.17391304347826, mean_delivery_time: 50.82801729166665 }], delivery_time_dist: [Distribution { count: 24, mean: 50.82801729166665, p50: 49.510929, p90: 98.3836171, p99: 159.15625686999996, max: 175.667389 }], traffic: TrafficStats { messages: 190, receptions: 207, drops: 0, jammed: 0, bytes_sent: 60610, dead_air: 49, collisions: 0 } }"#,
    ),
    (
        ProtocolKind::OptGossip2,
        true,
        r#"RunResult { ads: [AdOutcome { id: AdId { issuer: PeerId(80), seq: 0 }, passed: 42, delivered: 21, passages: 46, delivered_passages: 22, delivery_rate: 47.82608695652174, mean_delivery_time: 63.30896295454543 }], delivery_time_dist: [Distribution { count: 22, mean: 63.30896295454543, p50: 61.3263965, p90: 141.9012737000001, p99: 224.63502910999995, max: 241.511954 }], traffic: TrafficStats { messages: 189, receptions: 119, drops: 14, jammed: 85, bytes_sent: 60291, dead_air: 109, collisions: 0 } }"#,
    ),
    (
        ProtocolKind::OptGossip,
        false,
        r#"RunResult { ads: [AdOutcome { id: AdId { issuer: PeerId(80), seq: 0 }, passed: 42, delivered: 13, passages: 46, delivered_passages: 14, delivery_rate: 30.434782608695652, mean_delivery_time: 42.19174192857143 }], delivery_time_dist: [Distribution { count: 14, mean: 42.19174192857143, p50: 44.7235005, p90: 81.9159155, p99: 110.96109466999998, max: 115.149297 }], traffic: TrafficStats { messages: 49, receptions: 55, drops: 0, jammed: 0, bytes_sent: 15631, dead_air: 11, collisions: 0 } }"#,
    ),
    (
        ProtocolKind::OptGossip,
        true,
        r#"RunResult { ads: [AdOutcome { id: AdId { issuer: PeerId(80), seq: 0 }, passed: 42, delivered: 16, passages: 46, delivered_passages: 17, delivery_rate: 36.95652173913044, mean_delivery_time: 73.94802388235293 }], delivery_time_dist: [Distribution { count: 17, mean: 73.94802388235293, p50: 59.805539, p90: 173.0463008, p99: 224.8179002, max: 231.222165 }], traffic: TrafficStats { messages: 52, receptions: 49, drops: 2, jammed: 11, bytes_sent: 16588, dead_air: 21, collisions: 0 } }"#,
    ),
];

#[test]
fn run_results_match_pre_optimization_reference_builds() {
    for (kind, faulted, expected) in GOLDEN_PINS {
        let r = run_scenario(&golden_scenario(kind, faulted));
        assert_eq!(
            format!("{r:?}"),
            expected,
            "{kind:?} faulted={faulted}: results drifted from the frozen pre-optimization reference"
        );
    }
}

/// Full [`RunResult`]s with half the peers interested in the ad's topic,
/// so Algorithm 5 hashes user ids into the FM sketches and enlarges R
/// and D on every rank increase. The reference runs above all use
/// indifferent peers and never touch a sketch; these pin the sketch
/// hashing, merge and enlargement paths. Frozen from the build before
/// the FM bundle kept its bitmaps as plain `u64`s; the OptGossip row
/// re-pinned with the keyed entry-tick draws, the Gossip row with the
/// keyed start phase and round coins.
const INTEREST_PINS: [(ProtocolKind, &str); 2] = [
    (
        ProtocolKind::Gossip,
        r#"RunResult { ads: [AdOutcome { id: AdId { issuer: PeerId(80), seq: 0 }, passed: 42, delivered: 31, passages: 46, delivered_passages: 32, delivery_rate: 69.56521739130434, mean_delivery_time: 43.454969343749994 }], delivery_time_dist: [Distribution { count: 32, mean: 43.454969343749994, p50: 44.149345, p90: 87.72668750000003, p99: 125.96534908000005, max: 135.92848 }], traffic: TrafficStats { messages: 531, receptions: 719, drops: 0, jammed: 0, bytes_sent: 169389, dead_air: 94, collisions: 0 } }"#,
    ),
    (
        ProtocolKind::OptGossip,
        r#"RunResult { ads: [AdOutcome { id: AdId { issuer: PeerId(80), seq: 0 }, passed: 42, delivered: 6, passages: 46, delivered_passages: 7, delivery_rate: 15.217391304347826, mean_delivery_time: 22.150510428571426 }], delivery_time_dist: [Distribution { count: 7, mean: 22.150510428571426, p50: 0.0082, p90: 59.43807980000002, p99: 89.58503617999997, max: 92.934698 }], traffic: TrafficStats { messages: 29, receptions: 29, drops: 0, jammed: 0, bytes_sent: 9251, dead_air: 8, collisions: 0 } }"#,
    ),
];

#[test]
fn interest_run_results_match_reference_builds() {
    for (kind, expected) in INTEREST_PINS {
        let mut s = golden_scenario(kind, false);
        s.interests = InterestWorkload::Uniform {
            universe: 2,
            p_interested: 0.5,
        };
        let r = run_scenario(&s);
        assert_eq!(
            format!("{r:?}"),
            expected,
            "{kind:?}: interest-driven results drifted from the frozen reference"
        );
    }
}

#[test]
fn run_result_is_identical_across_thread_counts() {
    let s = scenario();
    let seeds: Vec<u64> = (77..82).collect();
    let single = run_seeds_with_threads(&s, &seeds, 1);
    for threads in [2, 4, 8] {
        let multi = run_seeds_with_threads(&s, &seeds, threads);
        assert_eq!(multi.len(), seeds.len());
        for (i, (a, b)) in single.iter().zip(&multi).enumerate() {
            assert_identical(a, b, &format!("seed {} threads {threads}", seeds[i]));
        }
    }
}

/// An observer that does everything wrong short of mutating the world:
/// it buffers state, counts events, allocates. Still must not perturb
/// the run.
#[derive(Default)]
struct NoisyObserver {
    log: Vec<(f64, u32)>,
}

impl SimObserver for NoisyObserver {
    fn on_broadcast(
        &mut self,
        now: SimTime,
        node: u32,
        _msg: &ia_core::AdMessage,
        _info: &ia_experiments::BroadcastInfo,
    ) {
        self.log.push((now.as_secs(), node));
    }
    fn on_round(&mut self, now: SimTime, node: u32) {
        self.log.push((now.as_secs(), node));
    }
}

/// Observers change neither the outcome nor the work: a Gossiping run
/// with every fault class and churn, which skips covered copies and drops
/// corrupted ones, and a fault-free Optimized Gossiping run, which applies
/// copies when their frames are sent, each give the same `RunResult`,
/// events, queue operations, deliveries (queued, skipped, applied and
/// corrupted) and entry wake-ups with a ledger, a trace and a noisy
/// observer attached as with none.
#[test]
fn run_result_is_identical_with_and_without_extra_observers() {
    let churn = ChurnSpec::new(SimDuration::from_secs(80.0), SimDuration::from_secs(20.0));
    let chaotic = chaotic_scenario().with_churn(churn);
    let calm = Scenario::paper(ProtocolKind::OptGossip, 150)
        .with_seed(43)
        .with_life_cycle(SimDuration::from_secs(250.0));
    let work = |w: &World| {
        let q = (w.events_processed(), w.queue_stats());
        (q, w.deliveries(), w.entry_wakeups())
    };
    for s in [chaotic, calm] {
        let mut plain = World::new(s.clone());
        plain.run();
        let d = plain.deliveries();
        match s.protocol {
            ProtocolKind::Gossip => assert!(d.skipped > 0 && d.corrupted > 0, "{d:?}"),
            _ => assert!(d.applied > 0, "{d:?}"),
        }
        let baseline = RunResult::of(&plain);

        let (trace, buffer) = JsonlTrace::in_memory();
        let mut w = World::new(s.clone());
        w.attach_observer(Box::new(FaultLedger::new(s.params.round_time)));
        w.attach_observer(Box::new(trace));
        w.attach_observer(Box::new(NoisyObserver::default()));
        w.run();
        assert_identical(&baseline, &RunResult::of(&w), "observer set");
        assert_eq!(work(&w), work(&plain));

        // The extra observers did observe a real run.
        let ledger = w.observer::<FaultLedger>().expect("ledger attached");
        assert!(ledger.delivered() > 0);
        assert_eq!(ledger.faulted() > 0, s.protocol == ProtocolKind::Gossip);
        assert!(!buffer.contents().is_empty(), "trace captured nothing");
        let noisy = w.observer::<NoisyObserver>().expect("observer attached");
        assert!(!noisy.log.is_empty(), "noisy observer saw nothing");

        // And the threaded sweep agrees with the solo world too.
        let sweep = run_seeds_with_threads(&s, &[s.seed], 1);
        assert_identical(&baseline, &sweep[0], "sweep vs solo");
    }
}

#[test]
fn fault_injected_run_is_identical_across_thread_counts() {
    let s = chaotic_scenario();
    let seeds: Vec<u64> = (909..913).collect();
    let single = run_seeds_with_threads(&s, &seeds, 1);
    // The chaos plan must actually bite in at least one seed, otherwise
    // this test pins nothing interesting.
    assert!(
        single.iter().any(|r| r.traffic.jammed > 0),
        "no jamming observed"
    );
    assert!(
        single.iter().any(|r| r.traffic.drops > 0),
        "no burst loss observed"
    );
    for threads in [2, 4, 8] {
        let multi = run_seeds_with_threads(&s, &seeds, threads);
        for (i, (a, b)) in single.iter().zip(&multi).enumerate() {
            assert_identical(a, b, &format!("chaos seed {} threads {threads}", seeds[i]));
        }
    }
}

#[test]
fn fault_ledger_does_not_perturb_a_fault_injected_run() {
    let s = chaotic_scenario();
    let baseline = run_scenario(&s);

    let mut w = World::new(s.clone());
    w.attach_observer(Box::new(FaultLedger::new(s.params.round_time)));
    w.attach_observer(Box::new(NoisyObserver::default()));
    w.run();
    let observed = RunResult::of(&w);
    assert_identical(&baseline, &observed, "fault ledger attach");

    let ledger = w.observer::<FaultLedger>().expect("ledger attached");
    assert!(
        ledger.faulted() > 0,
        "chaos plan must register in the ledger"
    );
    assert!(ledger.departs() > 0, "partition wave must register");
    assert!(ledger.survival_rate() < 1.0);
}
