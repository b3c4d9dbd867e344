//! Property: a fleet's waypoint table reads exactly as the legs it was
//! built from. A test-only reference keeps each node's plan as the plain
//! `Vec<Leg>` it was given and looks legs up by a linear scan; every read
//! of a node through the fleet (and through a cursor or a leg walk over
//! it) is bitwise that reference's read, on Random Waypoint and Manhattan
//! fleets and on hand-built plans with pauses, zero-duration jumps and
//! seams just under the 10⁻⁶ m continuity tolerance, at, before and
//! after every leg boundary. The fleet-wide `max_speed` and `max_jump`
//! equal the legs formulas, so the stale-grid slack built on them cannot
//! move.

use ia_des::{rng::stream, SimDuration, SimRng, SimTime};
use ia_geo::{Circle, Point, Rect, Vector};
use ia_mobility::{Fleet, FleetCursor, Leg, Manhattan, MobilityModel, RandomWaypoint, Trajectory};
use proptest::prelude::*;
use proptest::TestRng;

fn bits(p: Point) -> (u64, u64) {
    (p.x.to_bits(), p.y.to_bits())
}

fn vbits(v: Vector) -> (u64, u64) {
    (v.x.to_bits(), v.y.to_bits())
}

fn leg_bits(leg: Leg) -> (SimTime, SimTime, (u64, u64), (u64, u64)) {
    (leg.start_time, leg.end_time, bits(leg.from), bits(leg.to))
}

/// One node's plan as the legs it was given, read the way a stored leg
/// table reads: the leg active at `t` is the last one starting at or
/// before `t`, the first before the plan and the last after it.
struct Plan<'a>(&'a [Leg]);

impl Plan<'_> {
    fn leg_at(&self, t: SimTime) -> Leg {
        let legs = self.0;
        if t < legs[0].start_time {
            return legs[0];
        }
        if t >= legs[legs.len() - 1].end_time {
            return legs[legs.len() - 1];
        }
        *legs.iter().rev().find(|leg| leg.start_time <= t).unwrap()
    }

    fn position(&self, t: SimTime) -> Point {
        self.leg_at(t).position_at(t)
    }

    /// The paper's two-fix estimate: fixes at `t - dt` and `t`.
    fn velocity(&self, t: SimTime, dt: SimDuration) -> Vector {
        let secs = dt.as_secs();
        if secs <= 0.0 {
            return Vector::ZERO;
        }
        (self.position(t) - self.position(t - dt)) / secs
    }

    /// The legs a fleet reads back: each seam (a leg starting apart from
    /// where the previous one ended) as a zero-duration step first.
    fn with_seam_steps(&self) -> Vec<Leg> {
        let mut out: Vec<Leg> = Vec::new();
        for &leg in self.0 {
            if let Some(prev) = out.last().copied() {
                if bits(prev.to) != bits(leg.from) {
                    out.push(Leg::new(leg.start_time, leg.start_time, prev.to, leg.from));
                }
            }
            out.push(leg);
        }
        out
    }

    /// Seam gaps plus zero-duration legs' displacements, in plan order.
    fn jump(&self) -> f64 {
        let mut sum = 0.0;
        for (i, leg) in self.0.iter().enumerate() {
            if i > 0 {
                sum += self.0[i - 1].to.distance(leg.from);
            }
            if leg.end_time == leg.start_time {
                sum += leg.from.distance(leg.to);
            }
        }
        sum
    }
}

/// A hand-built plan from `start`: legs of random duration (zero for a
/// jump or an instant pause), heading and speed, each starting just
/// under 10⁻⁶ m from where the previous one ended when `seams` is set.
fn hand_built(rng: &mut TestRng, start: SimTime, seams: bool) -> Vec<Leg> {
    let (mut t, mut at) = (
        start,
        Point::new(rng.unit_f64() * 1e3, rng.unit_f64() * 1e3),
    );
    let n = 1 + rng.below(12) as usize;
    (0..n)
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
        .collect()
}

/// Node `i`'s legs as [`Fleet::generate`] draws them.
fn drawn<M: MobilityModel>(model: &M, seed: u64, i: usize, end: SimTime) -> Vec<Leg> {
    let mut rng = SimRng::derive(seed, stream::MOBILITY | i as u64);
    let mut plan = Vec::new();
    model.waypoints_into(&mut rng, SimTime::ZERO, end, &mut plan);
    plan.windows(2)
        .map(|w| Leg::new(w[0].at, w[1].at, w[0].pos, w[1].pos))
        .collect()
}

/// A fleet built every way a fleet is built (generated, from explicit
/// trajectories, extended), with its nodes' source legs.
fn fleet_and_sources(rng: &mut TestRng) -> (Fleet, Vec<Vec<Leg>>) {
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
            let sources: Vec<Vec<Leg>> = (0..n + 1)
                .map(|_| {
                    let start = SimTime::from_millis(rng.below(3) * 500);
                    hand_built(rng, start, true)
                })
                .collect();
            let trajectories = sources.iter().cloned().map(Trajectory::new).collect();
            (Fleet::from_trajectories(trajectories), sources)
        }
    };
    // Appended nodes, as the world appends its issuers.
    let more: Vec<Vec<Leg>> = (0..rng.below(3))
        .map(|_| {
            let seams = rng.below(2) == 0;
            hand_built(rng, SimTime::ZERO, seams)
        })
        .collect();
    fleet.extend(more.iter().cloned().map(Trajectory::new));
    sources.extend(more);
    (fleet, sources)
}

/// Query instants for `legs`: every leg's ends and a microsecond either
/// side, before the plan and past it, and a few at random.
fn instants(rng: &mut TestRng, legs: &[Leg]) -> Vec<SimTime> {
    let micro = SimDuration::from_micros(1);
    let mut ts: Vec<SimTime> = legs
        .iter()
        .flat_map(|leg| [leg.start_time, leg.end_time])
        .flat_map(|t| [t - micro.min(t.since(SimTime::ZERO)), t, t + micro])
        .collect();
    let span = legs[legs.len() - 1].end_time.as_micros() + 2_000_000;
    ts.extend((0..8).map(|_| SimTime::from_micros(rng.below(span))));
    ts.push(SimTime::ZERO);
    ts
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The legs read back, `leg_at` (on the fleet and on the node's own
    /// `Trajectory`), `position_at`, `estimated_velocity`,
    /// `disk_intervals` (against the node's own `Trajectory`) and the
    /// fleet-wide `max_speed` and `max_jump`.
    #[test]
    fn fleet_reads_equal_the_source_trajectories(case in any::<u64>()) {
        let mut rng = TestRng::seed_from_u64(case);
        let (fleet, sources) = fleet_and_sources(&mut rng);
        prop_assert_eq!(fleet.len(), sources.len());
        prop_assert_eq!(fleet.is_empty(), sources.is_empty());
        for (node, legs) in sources.iter().enumerate() {
            let (flat, plan) = (fleet.trajectory(node as u32), Plan(legs));
            let own = Trajectory::new(legs.clone());
            let own = own.view();
            let stepped = plan.with_seam_steps();
            prop_assert_eq!(flat.legs().len(), stepped.len());
            for (a, b) in flat.legs().zip(stepped) {
                prop_assert_eq!(leg_bits(a), leg_bits(b));
            }
            for t in instants(&mut rng, legs) {
                prop_assert_eq!(leg_bits(flat.leg_at(t)), leg_bits(plan.leg_at(t)));
                prop_assert_eq!(leg_bits(own.leg_at(t)), leg_bits(plan.leg_at(t)));
                prop_assert_eq!(bits(flat.position_at(t)), bits(plan.position(t)));
                prop_assert_eq!(bits(fleet.position(node as u32, t)), bits(plan.position(t)));
                let dt = SimDuration::from_millis([0, 1, 1_000, 7_500][rng.below(4) as usize]);
                prop_assert_eq!(
                    vbits(fleet.estimated_velocity(node as u32, t, dt)),
                    vbits(plan.velocity(t, dt))
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
        // The fleet-wide bounds from the legs: the top speed of any leg,
        // and per node its seams and instant legs summed in plan order,
        // no seam spanning two nodes of the table.
        let max_speed = sources
            .iter()
            .flatten()
            .map(|leg| leg.velocity().norm())
            .fold(0.0, f64::max);
        let max_jump = sources.iter().map(|legs| Plan(legs).jump()).fold(0.0, f64::max);
        prop_assert_eq!(fleet.max_speed().to_bits(), max_speed.to_bits());
        prop_assert_eq!(fleet.max_jump().to_bits(), max_jump.to_bits());
    }

    /// The cursor's `position`, `estimated_velocity` and `positions_into`,
    /// and a leg walk's `position`, over the table, at monotone instants
    /// with backward jumps and probes outside every plan (at 0, before a
    /// plan that starts later, and far past every end) mixed in: each
    /// hinted leg index reads the leg the reference finds.
    #[test]
    fn cursor_reads_equal_the_source_trajectories(case in any::<u64>()) {
        let mut rng = TestRng::seed_from_u64(case);
        let (fleet, sources) = fleet_and_sources(&mut rng);
        let mut cursor = FleetCursor::new();
        let mut snapshot = FleetCursor::new();
        let mut walks: Vec<_> = (0..fleet.len() as u32)
            .map(|node| FleetCursor::new().walk(&fleet, node))
            .collect();
        let mut out = Vec::new();
        let mut t = SimTime::ZERO;
        for _ in 0..40 {
            t = match rng.below(5) {
                0 => SimTime::from_micros(rng.below(t.as_micros() + 1)),
                // The next leg boundary of some node, or just before it.
                1 if !sources.is_empty() => {
                    let legs = &sources[rng.below(sources.len() as u64) as usize];
                    let next = legs.iter().map(|leg| leg.end_time).find(|&end| end >= t);
                    let early = SimDuration::from_micros(rng.below(2));
                    next.map_or(t, |end| (end - early).max(t))
                }
                _ => t + SimDuration::from_micros(rng.below(120_000_000)),
            };
            // A third of the probes fall at 0 (before a plan that starts
            // later) or far past every plan's end, between in-plan ones.
            let far = SimTime::from_secs(10_000.0);
            let t = [SimTime::ZERO, far, t, t, t, t][rng.below(6) as usize];
            let dt = SimDuration::from_millis([0, 1_000, 5_000][rng.below(3) as usize]);
            for (node, legs) in sources.iter().enumerate() {
                let plan = Plan(legs);
                prop_assert_eq!(bits(cursor.position(&fleet, node as u32, t)), bits(plan.position(t)));
                prop_assert_eq!(
                    vbits(cursor.estimated_velocity(&fleet, node as u32, t, dt)),
                    vbits(plan.velocity(t, dt))
                );
                prop_assert_eq!(bits(walks[node].position(t)), bits(plan.position(t)));
            }
            snapshot.positions_into(&fleet, t, &mut out);
            prop_assert_eq!(out.len(), sources.len());
            for (p, legs) in out.iter().zip(&sources) {
                prop_assert_eq!(bits(*p), bits(Plan(legs).position(t)));
            }
        }
    }
}
