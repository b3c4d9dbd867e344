//! Scenario fuzz: any scenario `Scenario::validate` accepts must run to
//! completion. Each case draws a protocol, mobility model, speed spec,
//! field, radio range, fault plan and churn spec — edge values included
//! (zero and sub-`MIN_SPEED` speeds, zero-width and 10¹² m fields, ranges
//! up to `f64::MAX` and infinite, empty fault windows, GPS ramps whose
//! variance overflows) — on small, short runs. Scenarios `validate`
//! rejects are skipped; the rest go through
//! `run_scenario`, which must not panic. A second property runs only the
//! four gossip protocols, whose entry ticks are decided ahead, with churn,
//! partition waves and GPS ramps drawn more often: the look-ahead must
//! end on every one of them.

use ia_core::ProtocolKind;
use ia_des::{SimDuration, SimTime};
use ia_experiments::scenario::MobilityKind;
use ia_experiments::{
    run_scenario, BurstLossSpec, ChurnSpec, CorruptionSpec, FaultPlan, PartitionWave, Scenario,
};
use ia_geo::{Point, Rect, Vector};
use ia_mobility::NoiseRamp;
use ia_radio::JamZone;
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};

fn secs(s: f64) -> SimTime {
    SimTime::from_secs(s)
}

/// `typical` fifteen draws in sixteen, else `edge`: the edge values stay rare
/// enough that most scenarios pass `validate` and actually run.
fn mostly(
    typical: impl Strategy<Value = f64>,
    edge: impl Strategy<Value = f64>,
) -> impl Strategy<Value = f64> {
    (0u8..16, typical, edge).prop_map(|(k, typical, edge)| if k == 0 { edge } else { typical })
}

/// One field side, metres: up to past the paper's 5 km, or zero, or
/// smaller than a Manhattan block, or up to 10¹² m.
fn side() -> impl Strategy<Value = f64> {
    mostly(
        100.0..8000.0f64,
        prop_oneof![Just(0.0), 1.0..300.0f64, 1e6..1e12f64, Just(1e12)],
    )
}

/// Mean speed and half-width, m/s, with the slow and degenerate corners.
fn speed() -> impl Strategy<Value = (f64, f64)> {
    (
        mostly(0.5..40.0f64, prop_oneof![Just(0.05), 0.0..0.3f64]),
        mostly(0.0..1.0f64, prop_oneof![Just(0.0), Just(1.0)]),
    )
        .prop_map(|(mean, delta_frac)| (mean, mean * delta_frac))
}

/// Radio range, metres (the medium's and formula (4)'s).
fn range() -> impl Strategy<Value = f64> {
    mostly(
        50.0..2000.0f64,
        prop_oneof![
            Just(f64::INFINITY),
            Just(f64::MAX),
            1e4..1e300f64,
            Just(0.0),
            1.0..50.0f64
        ],
    )
}

/// A fault window `[from, from + len)` in seconds; `len` may be zero.
fn window() -> impl Strategy<Value = (f64, f64)> {
    (0.0..130.0f64, mostly(0.0..130.0f64, Just(0.0)))
}

/// A GPS ramp's peak sigma, metres: up to 500, or so large that its
/// square nears or passes `f64::MAX`.
fn ramp_sigma() -> impl Strategy<Value = f64> {
    mostly(0.0..500.0f64, 1e150..1e300f64)
}

fn fault_plan() -> impl Strategy<Value = FaultPlan> {
    (
        proptest::option::of((
            (0.0..6000.0f64, 0.0..6000.0f64),
            mostly(1.0..3000.0f64, Just(0.0)),
            window(),
            (-20.0..20.0f64, -20.0..20.0f64),
        )),
        proptest::option::of((window(), 0.0..1.0f64, 0.0..1.0f64, 0.0..1.0f64, 0.0..1.0f64)),
        proptest::option::of((window(), 0.0..1.02f64, 0u32..20)),
        proptest::option::of((0.0..130.0f64, 0.0..1.02f64, 0.0..60.0f64)),
        proptest::option::of((0.0..130.0f64, 0.1..130.0f64, ramp_sigma())),
    )
        .prop_map(|(jam, burst, corrupt, wave, ramp)| {
            let mut plan = FaultPlan::none();
            if let Some(((x, y), radius, (from, len), (vx, vy))) = jam {
                plan = plan.with_jam_zone(
                    JamZone::stationary(Point::new(x, y), radius, secs(from), secs(from + len))
                        .moving(Vector::new(vx, vy)),
                );
            }
            if let Some(((from, len), p_enter_bad, p_exit_bad, loss_good, loss_bad)) = burst {
                plan = plan.with_burst_loss(BurstLossSpec {
                    from: secs(from),
                    until: secs(from + len),
                    p_enter_bad,
                    p_exit_bad,
                    loss_good,
                    loss_bad,
                });
            }
            if let Some(((from, len), p_corrupt, max_flips)) = corrupt {
                plan = plan.with_corruption(CorruptionSpec {
                    from: secs(from),
                    until: secs(from + len),
                    p_corrupt,
                    max_flips,
                });
            }
            if let Some((at, fraction, down_s)) = wave {
                plan = plan.with_partition_wave(PartitionWave {
                    at: secs(at),
                    fraction,
                    down_for: SimDuration::from_secs(down_s),
                });
            }
            if let Some((from, len, sigma)) = ramp {
                plan = plan.with_gps_ramp(NoiseRamp::new(secs(from), secs(from + len), sigma));
            }
            plan
        })
}

fn scenario() -> impl Strategy<Value = Scenario> {
    scenario_of(0usize..ProtocolKind::ALL.len(), fault_plan())
}

/// A fault plan that always carries a partition wave and a GPS ramp,
/// plus whatever [`fault_plan`] draws on top.
fn wave_and_ramp_plan() -> impl Strategy<Value = FaultPlan> {
    (
        fault_plan(),
        (0.0..130.0f64, 0.0..1.02f64, 0.0..60.0f64),
        (0.0..130.0f64, 0.1..130.0f64, ramp_sigma()),
    )
        .prop_map(|(plan, (at, fraction, down_s), (from, len, sigma))| {
            plan.with_partition_wave(PartitionWave {
                at: secs(at),
                fraction,
                down_for: SimDuration::from_secs(down_s),
            })
            .with_gps_ramp(NoiseRamp::new(secs(from), secs(from + len), sigma))
        })
}

/// Scenarios of the protocols `kinds` indexes in [`ProtocolKind::ALL`],
/// under the fault plans `faults` draws.
fn scenario_of(
    kinds: impl Strategy<Value = usize>,
    faults: impl Strategy<Value = FaultPlan>,
) -> impl Strategy<Value = Scenario> {
    (
        (kinds, any::<bool>(), 1usize..31),
        (1.0..110.0f64, any::<u64>()),
        speed(),
        (side(), side()),
        range(),
        (faults, proptest::option::of((0.0..100.0f64, 0.0..100.0f64))),
    )
        .prop_map(
            |(
                (kind, manhattan, peers),
                (life_s, seed),
                (mean, delta),
                (w, h),
                range,
                (faults, churn),
            )| {
                let mut s = Scenario::paper(ProtocolKind::ALL[kind], peers)
                    .with_seed(seed)
                    .with_life_cycle(SimDuration::from_secs(life_s))
                    .with_speed(mean, delta)
                    .with_faults(faults);
                if manhattan {
                    s = s.with_mobility(MobilityKind::Manhattan);
                }
                s.area = Rect::with_size(w, h);
                // Issue at the field's centre, so small fields still
                // hold the issuer.
                s.ads[0].issue_pos = s.area.center();
                s.radio.range = range;
                s.churn = churn.map(|(up, down)| ChurnSpec {
                    mean_up: SimDuration::from_secs(up),
                    mean_down: SimDuration::from_secs(down),
                });
                s
            },
        )
}

/// `validate` rejects `s`, or it runs without panicking.
fn runs_unless_rejected(s: &Scenario) {
    if catch_unwind(AssertUnwindSafe(|| s.validate())).is_ok() {
        let run = catch_unwind(AssertUnwindSafe(|| run_scenario(s)));
        prop_assert!(run.is_ok(), "validated scenario panicked: {:?}", s);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn validated_scenarios_run_without_panicking(s in scenario()) {
        runs_unless_rejected(&s);
    }

    /// The four gossip protocols (indices 1 to 4 of `ProtocolKind::ALL`)
    /// with a partition wave and a GPS ramp always, churn often: the
    /// entry-tick look-ahead must end.
    #[test]
    fn entry_look_ahead_ends_on_validated_scenarios(
        s in scenario_of(1usize..5, wave_and_ramp_plan())
    ) {
        runs_unless_rejected(&s);
    }
}
