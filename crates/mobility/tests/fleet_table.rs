//! Property: a fleet's one leg table reads exactly as the trajectories it
//! was built from. Every read of a node through the fleet (and through a
//! cursor over it) is bitwise the same read on the node's own
//! `Trajectory` before flattening, on Random Waypoint and Manhattan
//! fleets and on hand-built plans with seams just under the 10⁻⁶ m
//! continuity tolerance and zero-duration jump legs, which also stress
//! the node boundaries of the table.

use ia_des::{rng::stream, SimDuration, SimRng, SimTime};
use ia_geo::{Circle, Point, Rect, Vector};
use ia_mobility::{
    Fleet, FleetCursor, Leg, Manhattan, MobilityModel, RandomWaypoint, Trajectory, TrajectoryView,
};
use proptest::prelude::*;
use proptest::TestRng;

fn bits(p: Point) -> (u64, u64) {
    (p.x.to_bits(), p.y.to_bits())
}

fn vbits(v: Vector) -> (u64, u64) {
    (v.x.to_bits(), v.y.to_bits())
}

fn leg_bits(leg: &Leg) -> (SimTime, SimTime, (u64, u64), (u64, u64)) {
    (leg.start_time, leg.end_time, bits(leg.from), bits(leg.to))
}

/// A hand-built plan from `start`: legs of random duration (zero for a
/// jump or an instant pause), heading and speed, each starting just
/// under 10⁻⁶ m from where the previous one ended when `seams` is set.
fn hand_built(rng: &mut TestRng, start: SimTime, seams: bool) -> Trajectory {
    let (mut t, mut at) = (
        start,
        Point::new(rng.unit_f64() * 1e3, rng.unit_f64() * 1e3),
    );
    let n = 1 + rng.below(12) as usize;
    let legs = (0..n)
        .map(|_| {
            if seams && rng.below(2) == 0 {
                let a = rng.unit_f64() * std::f64::consts::TAU;
                at = Point::new(at.x + 9.9e-7 * a.cos(), at.y + 9.9e-7 * a.sin());
            }
            let ms = [0, 0, 1, 1_000, 60_000][rng.below(5) as usize];
            let reach = match rng.below(3) {
                0 => 0.0,
                1 => rng.unit_f64() * 500.0,
                _ => rng.unit_f64() * 1e-3,
            };
            let a = rng.unit_f64() * std::f64::consts::TAU;
            let to = Point::new(at.x + reach * a.cos(), at.y + reach * a.sin());
            let end = t + SimDuration::from_millis(ms);
            let leg = Leg::new(t, end, at, to);
            (t, at) = (end, to);
            leg
        })
        .collect();
    Trajectory::new(legs)
}

/// Node `i`'s plan as [`Fleet::generate`] draws it.
fn drawn<M: MobilityModel>(model: &M, seed: u64, i: usize, end: SimTime) -> Trajectory {
    let mut rng = SimRng::derive(seed, stream::MOBILITY | i as u64);
    model.trajectory(&mut rng, SimTime::ZERO, end)
}

/// A fleet built every way a fleet is built (generated, from explicit
/// trajectories, extended), with its nodes' source trajectories.
fn fleet_and_sources(rng: &mut TestRng) -> (Fleet, Vec<Trajectory>) {
    let seed = rng.next_u64();
    let end = SimTime::from_secs(10.0 + rng.unit_f64() * 1990.0);
    let side = 300.0 + rng.unit_f64() * 4700.0;
    let area = Rect::with_size(side, side);
    let n = rng.below(24) as usize;
    let (mut fleet, mut sources) = match rng.below(3) {
        0 => {
            let model = RandomWaypoint::paper(area, 1.0 + rng.unit_f64() * 20.0, 5.0);
            let sources = (0..n).map(|i| drawn(&model, seed, i, end)).collect();
            (
                Fleet::generate(&model, n, seed, SimTime::ZERO, end),
                sources,
            )
        }
        1 => {
            let model = Manhattan::paper(area, 1.0 + rng.unit_f64() * 20.0, 5.0);
            let sources = (0..n).map(|i| drawn(&model, seed, i, end)).collect();
            (
                Fleet::generate(&model, n, seed, SimTime::ZERO, end),
                sources,
            )
        }
        _ => {
            let sources: Vec<Trajectory> = (0..n + 1)
                .map(|_| {
                    let start = SimTime::from_millis(rng.below(3) * 500);
                    hand_built(rng, start, true)
                })
                .collect();
            (Fleet::from_trajectories(sources.clone()), sources)
        }
    };
    // Appended nodes, as the world appends its issuers.
    let more: Vec<Trajectory> = (0..rng.below(3))
        .map(|_| {
            let seams = rng.below(2) == 0;
            hand_built(rng, SimTime::ZERO, seams)
        })
        .collect();
    fleet.extend(more.iter().cloned());
    sources.extend(more);
    (fleet, sources)
}

/// Query instants for `tr`: every leg's ends and a microsecond either
/// side, before the plan and past it, and a few at random.
fn instants(rng: &mut TestRng, tr: TrajectoryView<'_>) -> Vec<SimTime> {
    let micro = SimDuration::from_micros(1);
    let mut ts: Vec<SimTime> = tr
        .legs()
        .iter()
        .flat_map(|leg| [leg.start_time, leg.end_time])
        .flat_map(|t| [t - micro.min(t.since(SimTime::ZERO)), t, t + micro])
        .collect();
    let span = tr.end_time().as_micros() + 2_000_000;
    ts.extend((0..8).map(|_| SimTime::from_micros(rng.below(span))));
    ts.push(SimTime::ZERO);
    ts
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `leg_at`, `position_at`, `estimated_velocity`, `disk_intervals`,
    /// the legs themselves and the fleet-wide `max_speed` and `max_jump`.
    #[test]
    fn fleet_reads_equal_the_source_trajectories(case in any::<u64>()) {
        let mut rng = TestRng::seed_from_u64(case);
        let (fleet, sources) = fleet_and_sources(&mut rng);
        prop_assert_eq!(fleet.len(), sources.len());
        prop_assert_eq!(fleet.is_empty(), sources.is_empty());
        for (node, source) in sources.iter().enumerate() {
            let (flat, own) = (fleet.trajectory(node as u32), source.view());
            prop_assert_eq!(flat.legs().len(), own.legs().len());
            for (a, b) in flat.legs().iter().zip(own.legs()) {
                prop_assert_eq!(leg_bits(a), leg_bits(b));
            }
            for t in instants(&mut rng, own) {
                prop_assert_eq!(leg_bits(flat.leg_at(t)), leg_bits(own.leg_at(t)));
                prop_assert_eq!(bits(flat.position_at(t)), bits(own.position_at(t)));
                prop_assert_eq!(bits(fleet.position(node as u32, t)), bits(own.position_at(t)));
                let dt = SimDuration::from_millis([0, 1, 1_000, 7_500][rng.below(4) as usize]);
                prop_assert_eq!(
                    vbits(fleet.estimated_velocity(node as u32, t, dt)),
                    vbits(own.estimated_velocity(t, dt))
                );
            }
            let at = own.position_at(SimTime::from_micros(rng.below(own.end_time().as_micros() + 1)));
            let circle = Circle::new(at, [1e-6, 10.0, 300.0][rng.below(3) as usize]);
            let from = SimTime::from_micros(rng.below(own.end_time().as_micros() + 1));
            let to = from + SimDuration::from_micros(rng.below(4_000_000_000));
            prop_assert_eq!(
                flat.disk_intervals(&circle, from, to),
                own.disk_intervals(&circle, from, to)
            );
        }
        // The fleet-wide bounds, node by node from one-node fleets: no
        // seam or speed spans two nodes of the table.
        let alone: Vec<Fleet> = sources.iter().map(|s| Fleet::from_trajectories(vec![s.clone()])).collect();
        let max_speed = alone.iter().map(Fleet::max_speed).fold(0.0, f64::max);
        let max_jump = alone.iter().map(Fleet::max_jump).fold(0.0, f64::max);
        prop_assert_eq!(fleet.max_speed().to_bits(), max_speed.to_bits());
        prop_assert_eq!(fleet.max_jump().to_bits(), max_jump.to_bits());
    }

    /// The cursor's `position`, `estimated_velocity` and `positions_into`
    /// over the table, at monotone instants with backward jumps mixed in.
    #[test]
    fn cursor_reads_equal_the_source_trajectories(case in any::<u64>()) {
        let mut rng = TestRng::seed_from_u64(case);
        let (fleet, sources) = fleet_and_sources(&mut rng);
        let mut cursor = FleetCursor::new();
        let mut snapshot = FleetCursor::new();
        let mut out = Vec::new();
        let mut t = SimTime::ZERO;
        for _ in 0..40 {
            t = match rng.below(4) {
                0 => SimTime::from_micros(rng.below(t.as_micros() + 1)),
                _ => t + SimDuration::from_micros(rng.below(120_000_000)),
            };
            let dt = SimDuration::from_millis([0, 1_000, 5_000][rng.below(3) as usize]);
            for (node, source) in sources.iter().enumerate() {
                let own = source.view();
                prop_assert_eq!(bits(cursor.position(&fleet, node as u32, t)), bits(own.position_at(t)));
                prop_assert_eq!(
                    vbits(cursor.estimated_velocity(&fleet, node as u32, t, dt)),
                    vbits(own.estimated_velocity(t, dt))
                );
            }
            snapshot.positions_into(&fleet, t, &mut out);
            prop_assert_eq!(out.len(), sources.len());
            for (p, source) in out.iter().zip(&sources) {
                prop_assert_eq!(bits(*p), bits(source.view().position_at(t)));
            }
        }
    }
}
