//! Directed line segments and exact segment/circle intersection.
//!
//! Mobile peers move along piecewise-linear trajectories (Random Waypoint
//! legs). The delivery-rate metric needs the *exact* time a peer first
//! enters an advertising area; [`Segment::circle_crossings`] solves the
//! quadratic `|a + t*(b-a) - c|^2 = r^2` for the normalised parameters
//! `t in [0, 1]` where the segment crosses the circle boundary.

use crate::circle::Circle;
use crate::point::{Point, Vector};

/// A directed segment from `a` to `b`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    pub a: Point,
    pub b: Point,
}

/// How a segment interacts with a disk, as parameter intervals.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DiskTransit {
    /// Entirely outside the disk.
    Outside,
    /// Inside the disk for the parameter interval `[enter, exit] ⊆ [0,1]`.
    Crossing { enter: f64, exit: f64 },
}

impl Segment {
    pub fn new(a: Point, b: Point) -> Self {
        Segment { a, b }
    }

    #[inline]
    pub fn length(&self) -> f64 {
        self.a.distance(self.b)
    }

    #[inline]
    pub fn direction(&self) -> Vector {
        self.b - self.a
    }

    /// Parameters `t in [0, 1]` where the segment crosses the circle
    /// boundary, in increasing order (0, 1 or 2 values).
    ///
    /// Tangency (discriminant == 0) is reported as a single crossing.
    pub fn circle_crossings(&self, circle: &Circle) -> Vec<f64> {
        let d = self.direction();
        let f = self.a - circle.center;
        let aa = d.norm_sq();
        if aa < crate::EPS * crate::EPS {
            return Vec::new(); // degenerate segment: never *crosses*
        }
        let bb = 2.0 * f.dot(d);
        let cc = f.norm_sq() - circle.radius * circle.radius;
        let disc = bb * bb - 4.0 * aa * cc;
        if disc < 0.0 {
            return Vec::new();
        }
        let sqrt_disc = disc.sqrt();
        let t1 = (-bb - sqrt_disc) / (2.0 * aa);
        let t2 = (-bb + sqrt_disc) / (2.0 * aa);
        let mut out = Vec::with_capacity(2);
        if (0.0..=1.0).contains(&t1) {
            out.push(t1);
        }
        if (0.0..=1.0).contains(&t2) && (t2 - t1).abs() > crate::EPS {
            out.push(t2);
        }
        out
    }

    /// Classify how this segment transits `circle`'s disk.
    ///
    /// Returns the interval of parameters during which the moving point is
    /// inside the disk, which the delivery tracker converts to wall-clock
    /// entry/exit times.
    pub fn disk_transit(&self, circle: &Circle) -> DiskTransit {
        let a_in = circle.contains(self.a);
        let b_in = circle.contains(self.b);
        let crossings = self.circle_crossings(circle);
        match (a_in, b_in, crossings.len()) {
            // Both endpoints inside: a disk is convex, so the chord
            // never leaves it.
            (true, true, _) => DiskTransit::Crossing {
                enter: 0.0,
                exit: 1.0,
            },
            (true, false, _) => DiskTransit::Crossing {
                enter: 0.0,
                exit: *crossings.first().unwrap_or(&1.0),
            },
            (false, true, _) => DiskTransit::Crossing {
                enter: *crossings.first().unwrap_or(&0.0),
                exit: 1.0,
            },
            (false, false, 2) => DiskTransit::Crossing {
                enter: crossings[0],
                exit: crossings[1],
            },
            (false, false, _) => DiskTransit::Outside,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg(ax: f64, ay: f64, bx: f64, by: f64) -> Segment {
        Segment::new(Point::new(ax, ay), Point::new(bx, by))
    }

    fn unit_circle() -> Circle {
        Circle::new(Point::ORIGIN, 1.0)
    }

    #[test]
    fn length_and_point_at() {
        let s = seg(0.0, 0.0, 3.0, 4.0);
        assert_eq!(s.length(), 5.0);
        assert_eq!(s.a.lerp(s.b, 0.5), Point::new(1.5, 2.0));
    }

    #[test]
    fn degenerate_segment_never_crosses() {
        let s = seg(2.0, 2.0, 2.0, 2.0);
        assert!(s.circle_crossings(&unit_circle()).is_empty());
    }

    #[test]
    fn through_crossing_has_two_roots() {
        let s = seg(-2.0, 0.0, 2.0, 0.0);
        let xs = s.circle_crossings(&unit_circle());
        assert_eq!(xs.len(), 2);
        assert!((xs[0] - 0.25).abs() < 1e-12);
        assert!((xs[1] - 0.75).abs() < 1e-12);
        assert_eq!(
            s.disk_transit(&unit_circle()),
            DiskTransit::Crossing {
                enter: 0.25,
                exit: 0.75
            }
        );
    }

    #[test]
    fn miss_has_no_roots() {
        let s = seg(-2.0, 2.0, 2.0, 2.0);
        assert!(s.circle_crossings(&unit_circle()).is_empty());
        assert_eq!(s.disk_transit(&unit_circle()), DiskTransit::Outside);
    }

    #[test]
    fn tangent_reports_single_crossing() {
        let s = seg(-2.0, 1.0, 2.0, 1.0);
        let xs = s.circle_crossings(&unit_circle());
        assert_eq!(xs.len(), 1);
        assert!((xs[0] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn start_inside_enters_at_zero() {
        let s = seg(0.0, 0.0, 5.0, 0.0);
        match s.disk_transit(&unit_circle()) {
            DiskTransit::Crossing { enter, exit } => {
                assert_eq!(enter, 0.0);
                assert!((exit - 0.2).abs() < 1e-12);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn end_inside_enters_midway() {
        let s = seg(-5.0, 0.0, 0.0, 0.0);
        match s.disk_transit(&unit_circle()) {
            DiskTransit::Crossing { enter, exit } => {
                assert!((enter - 0.8).abs() < 1e-12);
                assert_eq!(exit, 1.0);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn fully_inside_is_whole_interval() {
        let s = seg(-0.2, 0.0, 0.2, 0.0);
        assert_eq!(
            s.disk_transit(&unit_circle()),
            DiskTransit::Crossing {
                enter: 0.0,
                exit: 1.0
            }
        );
    }

    #[test]
    fn entry_point_lies_on_boundary() {
        let s = seg(-3.0, 0.4, 4.0, 0.4);
        let c = unit_circle();
        let DiskTransit::Crossing { enter, .. } = s.disk_transit(&c) else {
            panic!("segment misses the disk");
        };
        let p = s.a.lerp(s.b, enter);
        assert!((p.distance(c.center) - c.radius).abs() < 1e-9);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    fn arb_point() -> impl Strategy<Value = Point> {
        (-100.0..100.0f64, -100.0..100.0f64).prop_map(|(x, y)| Point::new(x, y))
    }

    proptest! {
        /// Crossing parameters always lie on the circle boundary.
        #[test]
        fn crossings_lie_on_boundary(a in arb_point(), b in arb_point(),
                                     cx in -50.0..50.0f64, cy in -50.0..50.0f64,
                                     r in 0.1..80.0f64) {
            let s = Segment::new(a, b);
            let c = Circle::new(Point::new(cx, cy), r);
            for t in s.circle_crossings(&c) {
                let p = s.a.lerp(s.b, t);
                prop_assert!((p.distance(c.center) - r).abs() < 1e-6);
                prop_assert!((0.0..=1.0).contains(&t));
            }
        }

        /// disk_transit's interval is consistent with pointwise membership
        /// at the interval midpoint.
        #[test]
        fn transit_interval_midpoint_inside(a in arb_point(), b in arb_point(),
                                            r in 0.1..80.0f64) {
            let s = Segment::new(a, b);
            let c = Circle::new(Point::ORIGIN, r);
            if let DiskTransit::Crossing { enter, exit } = s.disk_transit(&c) {
                prop_assert!(enter <= exit + 1e-9);
                let mid = s.a.lerp(s.b, (enter + exit) / 2.0);
                prop_assert!(c.center.distance(mid) <= r + 1e-6);
            }
        }

        /// The entry parameter (if any) is minimal: slightly earlier points
        /// are outside (when entry > 0).
        #[test]
        fn entry_is_first(a in arb_point(), b in arb_point(), r in 0.5..80.0f64) {
            let s = Segment::new(a, b);
            let c = Circle::new(Point::ORIGIN, r);
            if let DiskTransit::Crossing { enter: t, .. } = s.disk_transit(&c) {
                if t > 1e-6 {
                    let before = s.a.lerp(s.b, t - 1e-6);
                    prop_assert!(c.center.distance(before) >= r - 1e-3);
                }
            }
        }
    }
}
