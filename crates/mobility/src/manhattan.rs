//! Manhattan-grid mobility (extension).
//!
//! The paper's motivating scenario is urban: vehicles and pedestrians on
//! streets. Random Waypoint lets peers cut across blocks; this model
//! restricts movement to a square street grid, which produces the more
//! clustered encounter patterns of real cities. It is used by the
//! robustness experiments to show the protocol ranking is not an artifact
//! of Random Waypoint.
//!
//! Dynamics: a peer starts at a random intersection and repeatedly travels
//! to an adjacent intersection at a uniform random speed. At each
//! intersection it keeps its heading with probability `p_straight` and
//! otherwise turns left or right with equal probability (U-turns only at
//! the field boundary when no other street continues).

use crate::model::{pause, travel, MobilityModel, MIN_SPEED};
use crate::trajectory::Waypoint;
use ia_des::{SimRng, SimTime};
use ia_geo::{Point, Rect};

/// Manhattan street-grid mobility model.
#[derive(Debug, Clone, PartialEq)]
pub struct Manhattan {
    /// Field; streets run at multiples of `block` starting at `area.min`.
    pub area: Rect,
    /// Block side length (street spacing), metres.
    pub block: f64,
    pub speed_min: f64,
    pub speed_max: f64,
    /// Probability of continuing straight at an intersection when
    /// possible.
    pub p_straight: f64,
    /// Pause bounds at intersections, seconds.
    pub pause_min: f64,
    pub pause_max: f64,
}

impl Manhattan {
    /// An urban grid matching the paper's field with 250 m blocks.
    pub fn paper(area: Rect, speed_mean: f64, speed_delta: f64) -> Self {
        Manhattan {
            area,
            block: 250.0,
            speed_min: (speed_mean - speed_delta).max(MIN_SPEED),
            speed_max: speed_mean + speed_delta,
            p_straight: 0.5,
            pause_min: 0.0,
            pause_max: 5.0,
        }
    }

    fn cols(&self) -> i64 {
        (self.area.width() / self.block).floor() as i64
    }

    fn rows(&self) -> i64 {
        (self.area.height() / self.block).floor() as i64
    }

    fn intersection(&self, cx: i64, cy: i64) -> Point {
        Point::new(
            self.area.min.x + cx as f64 * self.block,
            self.area.min.y + cy as f64 * self.block,
        )
    }

    fn in_grid(&self, cx: i64, cy: i64) -> bool {
        (0..=self.cols()).contains(&cx) && (0..=self.rows()).contains(&cy)
    }

    fn validate(&self) {
        assert!(self.block > 0.0, "non-positive block size");
        assert!(
            self.cols() >= 1 && self.rows() >= 1,
            "field smaller than one block"
        );
        assert!(
            self.speed_min > 0.0 && self.speed_max >= self.speed_min,
            "invalid speed bounds"
        );
        assert!((0.0..=1.0).contains(&self.p_straight), "invalid p_straight");
    }
}

/// The four street headings.
const DIRS: [(i64, i64); 4] = [(1, 0), (-1, 0), (0, 1), (0, -1)];

impl MobilityModel for Manhattan {
    fn waypoints_into(
        &self,
        rng: &mut SimRng,
        start: SimTime,
        end: SimTime,
        plan: &mut Vec<Waypoint>,
    ) {
        self.validate();
        assert!(end > start, "empty time window");
        let mut cx = rng.range_u64(0, self.cols() as u64 + 1) as i64;
        let mut cy = rng.range_u64(0, self.rows() as u64 + 1) as i64;
        let mut heading = DIRS[rng.range_u64(0, 4) as usize];
        plan.push(Waypoint::new(start, self.intersection(cx, cy)));
        while plan[plan.len() - 1].at < end {
            // Pick the next heading: straight if allowed and the coin says
            // so, otherwise a random lawful turn.
            let (hx, hy) = heading;
            let straight_ok = self.in_grid(cx + hx, cy + hy);
            // The lawful turns in `DIRS` order, kept on the stack.
            let mut turns = [(0, 0); 4];
            let mut count = 0;
            for (dx, dy) in DIRS {
                if (dx, dy) != (hx, hy) && (dx, dy) != (-hx, -hy) && self.in_grid(cx + dx, cy + dy)
                {
                    turns[count] = (dx, dy);
                    count += 1;
                }
            }
            let next = if straight_ok && (count == 0 || rng.chance(self.p_straight)) {
                (hx, hy)
            } else if count > 0 {
                turns[rng.range_u64(0, count as u64) as usize]
            } else if self.in_grid(cx - hx, cy - hy) {
                (-hx, -hy) // dead end: U-turn
            } else {
                // Isolated intersection (1x1 grid corner case): stand still.
                plan.push(Waypoint::new(end, plan[plan.len() - 1].pos));
                break;
            };
            heading = next;
            (cx, cy) = (cx + next.0, cy + next.1);
            let target = self.intersection(cx, cy);
            let speed = rng.range_f64(self.speed_min, self.speed_max);
            if travel(plan, target, speed, end) {
                break;
            }
            pause(plan, rng.range_f64(self.pause_min, self.pause_max), end);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trajectory::Trajectory;

    fn model() -> Manhattan {
        Manhattan::paper(Rect::with_size(5000.0, 5000.0), 10.0, 5.0)
    }

    fn gen(seed: u64) -> Trajectory {
        let mut rng = SimRng::derive(seed, ia_des::rng::stream::MOBILITY);
        model().trajectory(&mut rng, SimTime::ZERO, SimTime::from_secs(2000.0))
    }

    #[test]
    fn covers_window_and_stays_in_field() {
        let tr = gen(1);
        assert_eq!(tr.view().start_time(), SimTime::ZERO);
        assert_eq!(tr.view().end_time(), SimTime::from_secs(2000.0));
        let field = Rect::with_size(5000.0, 5000.0);
        for i in 0..=2000 {
            assert!(field.contains(tr.view().position_at(SimTime::from_secs(i as f64))));
        }
    }

    #[test]
    fn movement_is_axis_aligned() {
        let tr = gen(2);
        for leg in tr.view().legs() {
            if !leg.is_pause() {
                let d = leg.to - leg.from;
                assert!(d.x.abs() < 1e-6 || d.y.abs() < 1e-6, "diagonal leg {d:?}");
            }
        }
    }

    #[test]
    fn positions_stay_on_streets() {
        // At all times, x or y must be a multiple of the block size.
        let tr = gen(3);
        for i in 0..2000 {
            let p = tr.view().position_at(SimTime::from_secs(i as f64));
            let on_v_street = (p.x / 250.0 - (p.x / 250.0).round()).abs() < 1e-6;
            let on_h_street = (p.y / 250.0 - (p.y / 250.0).round()).abs() < 1e-6;
            assert!(on_v_street || on_h_street, "off-street at {p}");
        }
    }

    #[test]
    fn speeds_respect_bounds() {
        let tr = gen(4);
        for leg in tr.view().legs() {
            if !leg.is_pause() && !leg.duration().is_zero() {
                let v = leg.velocity().norm();
                assert!((5.0 - 1e-6..=15.0 + 1e-6).contains(&v), "speed {v}");
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(gen(9), gen(9));
        assert_ne!(gen(9), gen(10));
    }

    #[test]
    fn tiny_grid_still_works() {
        let m = Manhattan {
            area: Rect::with_size(250.0, 250.0),
            block: 250.0,
            speed_min: 1.0,
            speed_max: 2.0,
            p_straight: 0.5,
            pause_min: 0.0,
            pause_max: 1.0,
        };
        let mut rng = SimRng::from_master(5);
        let tr = m.trajectory(&mut rng, SimTime::ZERO, SimTime::from_secs(100.0));
        assert_eq!(tr.view().end_time(), SimTime::from_secs(100.0));
    }

    #[test]
    #[should_panic(expected = "field smaller than one block")]
    fn oversized_block_rejected() {
        let m = Manhattan {
            area: Rect::with_size(100.0, 100.0),
            block: 250.0,
            speed_min: 1.0,
            speed_max: 2.0,
            p_straight: 0.5,
            pause_min: 0.0,
            pause_max: 0.0,
        };
        let mut rng = SimRng::from_master(5);
        let _ = m.trajectory(&mut rng, SimTime::ZERO, SimTime::from_secs(1.0));
    }
}
