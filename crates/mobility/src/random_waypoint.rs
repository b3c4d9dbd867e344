//! The Random Waypoint model — the mobility model used in the paper's
//! evaluation (§IV): "each moving peer is allocated at a random position
//! of the simulation area and it moves at constant speed in a straight
//! line to another random position, where it pauses for a while and then
//! moves again to another random position; and so on."

use crate::model::{pause, travel, MobilityModel, MIN_SPEED};
use crate::trajectory::Waypoint;
use ia_des::{SimRng, SimTime};
use ia_geo::Rect;

/// Random Waypoint over a rectangular field.
#[derive(Debug, Clone, PartialEq)]
pub struct RandomWaypoint {
    /// Field the waypoints are drawn from.
    pub area: Rect,
    /// Minimum speed, m/s. Must be positive: the classic RWP pathology of
    /// nodes "freezing" as speeds approach zero is avoided by construction.
    pub speed_min: f64,
    /// Maximum speed, m/s.
    pub speed_max: f64,
    /// Pause-time bounds at each waypoint, seconds.
    pub pause_min: f64,
    pub pause_max: f64,
}

impl RandomWaypoint {
    /// The paper's configuration: uniform speed in
    /// `[mean - delta, mean + delta]` and a short uniform pause.
    pub fn paper(area: Rect, speed_mean: f64, speed_delta: f64) -> Self {
        let speed_min = (speed_mean - speed_delta).max(MIN_SPEED);
        RandomWaypoint {
            area,
            speed_min,
            speed_max: speed_mean + speed_delta,
            pause_min: 0.0,
            pause_max: 10.0,
        }
    }

    fn validate(&self) {
        assert!(
            self.speed_min > 0.0 && self.speed_max >= self.speed_min,
            "invalid speed bounds [{}, {}]",
            self.speed_min,
            self.speed_max
        );
        assert!(self.area.area() > 0.0, "degenerate field");
        assert!(
            (0.0..=self.pause_max).contains(&self.pause_min),
            "invalid pause bounds"
        );
    }
}

impl MobilityModel for RandomWaypoint {
    fn waypoints_into(
        &self,
        rng: &mut SimRng,
        start: SimTime,
        end: SimTime,
        plan: &mut Vec<Waypoint>,
    ) {
        self.validate();
        assert!(end > start, "empty time window");
        let (first, p0) = (plan.len(), self.area.at_fraction(rng.unit(), rng.unit()));
        plan.push(Waypoint::new(start, p0));
        while plan[plan.len() - 1].at < end {
            // Travel leg to the next waypoint, then a pause there.
            let target = self.area.at_fraction(rng.unit(), rng.unit());
            let speed = rng.range_f64(self.speed_min, self.speed_max);
            let moves = plan[plan.len() - 1].pos.distance(target) > 1e-9;
            if moves && travel(plan, target, speed, end) {
                break;
            }
            pause(plan, rng.range_f64(self.pause_min, self.pause_max), end);
        }
        if plan.len() == first + 1 {
            // Degenerate (e.g. first waypoint equalled the start and the
            // pause was zero until the window closed): stand still.
            plan.push(Waypoint::new(end, p0));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trajectory::Trajectory;
    use ia_geo::Point;

    fn field() -> Rect {
        Rect::with_size(5000.0, 5000.0)
    }

    fn gen(seed: u64) -> Trajectory {
        let model = RandomWaypoint::paper(field(), 10.0, 5.0);
        let mut rng = SimRng::derive(seed, ia_des::rng::stream::MOBILITY);
        model.trajectory(&mut rng, SimTime::ZERO, SimTime::from_secs(2000.0))
    }

    #[test]
    fn covers_requested_window() {
        let tr = gen(1);
        assert_eq!(tr.view().start_time(), SimTime::ZERO);
        assert_eq!(tr.view().end_time(), SimTime::from_secs(2000.0));
    }

    #[test]
    fn stays_in_field() {
        let tr = gen(2);
        for i in 0..=2000 {
            let p = tr.view().position_at(SimTime::from_secs(i as f64));
            assert!(field().contains(p), "escaped field at t={i}: {p}");
        }
    }

    #[test]
    fn speeds_respect_bounds() {
        let tr = gen(3);
        for leg in tr.view().legs() {
            let v = leg.velocity().norm();
            if !leg.is_pause() && !leg.duration().is_zero() {
                // The final truncated leg keeps its speed too, so every
                // moving leg must respect the bounds.
                assert!(
                    (5.0 - 1e-6..=15.0 + 1e-6).contains(&v),
                    "leg speed {v} out of [5, 15]"
                );
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(gen(7), gen(7));
        assert_ne!(gen(7), gen(8));
    }

    #[test]
    fn pauses_alternate_with_moves() {
        let tr = gen(5);
        let mut moves = 0;
        let mut pauses = 0;
        for leg in tr.view().legs() {
            if leg.is_pause() {
                pauses += 1;
            } else {
                moves += 1;
            }
        }
        assert!(moves >= 3, "expected several legs in 2000s, got {moves}");
        assert!(pauses >= 1);
    }

    #[test]
    fn max_displacement_bounded_by_vmax_dt() {
        // The Optimized Gossiping-1 premise: in any interval dt a peer
        // moves at most V_max * dt.
        let tr = gen(11);
        let dt = 5.0;
        let vmax = 15.0;
        for i in 0..((2000.0 / dt) as u64) {
            let a = tr.view().position_at(SimTime::from_secs(i as f64 * dt));
            let b = tr
                .view()
                .position_at(SimTime::from_secs((i + 1) as f64 * dt));
            assert!(
                a.distance(b) <= vmax * dt + 1e-6,
                "moved {} in {dt}s",
                a.distance(b)
            );
        }
    }

    #[test]
    fn pause_bounds_respected() {
        let model = RandomWaypoint {
            pause_min: 2.0,
            pause_max: 4.0,
            ..RandomWaypoint::paper(field(), 10.0, 5.0)
        };
        let mut rng = SimRng::from_master(1);
        let tr = model.trajectory(&mut rng, SimTime::ZERO, SimTime::from_secs(500.0));
        for leg in tr.view().legs() {
            if leg.is_pause() && leg.end_time < tr.view().end_time() {
                let d = leg.duration().as_secs();
                assert!((2.0 - 1e-6..=4.0 + 1e-6).contains(&d), "pause {d}s");
            }
        }
    }

    #[test]
    fn start_position_is_uniform_ish() {
        // Mean of many start positions should approach the field centre.
        let model = RandomWaypoint::paper(field(), 10.0, 5.0);
        let mut sum = Point::ORIGIN;
        let n = 500;
        for seed in 0..n {
            let mut rng = SimRng::derive(seed, 0);
            let tr = model.trajectory(&mut rng, SimTime::ZERO, SimTime::from_secs(10.0));
            let p = tr.view().waypoints()[0].pos;
            sum = Point::new(sum.x + p.x, sum.y + p.y);
        }
        let mean = Point::new(sum.x / n as f64, sum.y / n as f64);
        assert!(mean.distance(Point::new(2500.0, 2500.0)) < 200.0, "{mean}");
    }

    #[test]
    #[should_panic(expected = "invalid speed bounds")]
    fn zero_speed_rejected() {
        let m = RandomWaypoint {
            area: field(),
            speed_min: 0.0,
            speed_max: 1.0,
            pause_min: 0.0,
            pause_max: 0.0,
        };
        let mut rng = SimRng::from_master(1);
        let _ = m.trajectory(&mut rng, SimTime::ZERO, SimTime::from_secs(1.0));
    }
}
