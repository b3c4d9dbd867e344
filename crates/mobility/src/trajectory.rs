//! Piecewise-linear trajectories.

use ia_des::{SimDuration, SimTime};
use ia_geo::{Circle, Point, Segment, Vector};

/// One constant-velocity leg of a trajectory. A pause is a leg whose
/// endpoints coincide.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Leg {
    pub start_time: SimTime,
    pub end_time: SimTime,
    pub from: Point,
    pub to: Point,
}

impl Leg {
    pub fn new(start_time: SimTime, end_time: SimTime, from: Point, to: Point) -> Self {
        assert!(end_time >= start_time, "leg ends before it starts");
        Leg {
            start_time,
            end_time,
            from,
            to,
        }
    }

    /// A stationary leg at `p` over `[start, end]`.
    pub fn pause(start_time: SimTime, end_time: SimTime, p: Point) -> Self {
        Leg::new(start_time, end_time, p, p)
    }

    pub fn duration(&self) -> SimDuration {
        self.end_time - self.start_time
    }

    /// Is this a zero-displacement (pause) leg?
    pub fn is_pause(&self) -> bool {
        self.from == self.to
    }

    /// Constant velocity over the leg (zero for pauses and instant legs).
    pub fn velocity(&self) -> Vector {
        let dt = self.duration().as_secs();
        if dt <= 0.0 {
            return Vector::ZERO;
        }
        (self.to - self.from) / dt
    }

    /// Position at time `t`, clamped to the leg's interval.
    pub fn position_at(&self, t: SimTime) -> Point {
        if t <= self.start_time {
            return self.from;
        }
        if t >= self.end_time {
            return self.to;
        }
        let dt = self.duration().as_secs();
        if dt <= 0.0 {
            return self.from;
        }
        let frac = t.since(self.start_time).as_secs() / dt;
        self.from.lerp(self.to, frac)
    }
}

/// One instant of a movement plan: the node is at `pos` at `at`. Each
/// adjacent pair of a plan's waypoints is one [`Leg`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Waypoint {
    pub at: SimTime,
    pub pos: Point,
}

impl Waypoint {
    pub fn new(at: SimTime, pos: Point) -> Self {
        Waypoint { at, pos }
    }
}

/// A node's full movement plan, stored as waypoints: contiguous legs
/// covering `[start_time, end_time]`. Before the first leg the node sits
/// at the initial point; after the last leg it sits at the final point.
///
/// The owned plan only builds and validates; every read goes through
/// its [`TrajectoryView`], the same view a [`Fleet`](crate::Fleet) lends
/// out for each of its nodes.
#[derive(Debug, Clone, PartialEq)]
pub struct Trajectory {
    waypoints: Vec<Waypoint>,
}

impl Trajectory {
    /// Build from legs. Where a leg starts apart from where the previous
    /// one ended (a seam, under 10⁻⁶ m), the plan steps from the one
    /// point to the other in zero time at the leg's start. The leg after
    /// the step starts at the same instant, so every lookup reads the
    /// legs given here.
    ///
    /// # Panics
    /// Panics if `legs` is empty, times are not contiguous
    /// (`leg[i].end_time == leg[i+1].start_time`) or positions are not
    /// continuous (`leg[i].to` within 10⁻⁶ m of `leg[i+1].from`).
    pub fn new(legs: Vec<Leg>) -> Self {
        assert!(!legs.is_empty(), "trajectory needs at least one leg");
        let mut waypoints = vec![Waypoint::new(legs[0].start_time, legs[0].from)];
        for leg in &legs {
            let end = waypoints[waypoints.len() - 1];
            assert_eq!(end.at, leg.start_time, "legs must be time-contiguous");
            let gap = end.pos.distance(leg.from);
            assert!(gap < 1e-6, "legs must be position-continuous");
            let bits = |p: Point| (p.x.to_bits(), p.y.to_bits());
            if bits(end.pos) != bits(leg.from) {
                waypoints.push(Waypoint::new(leg.start_time, leg.from));
            }
            waypoints.push(Waypoint::new(leg.end_time, leg.to));
        }
        Trajectory::from_waypoints(waypoints)
    }

    /// Build from a plan's waypoints, checked as [`validate`] documents.
    pub(crate) fn from_waypoints(waypoints: Vec<Waypoint>) -> Self {
        validate(&waypoints);
        Trajectory { waypoints }
    }

    /// A trajectory that never moves.
    pub fn stationary(p: Point, start: SimTime, end: SimTime) -> Self {
        Trajectory::from_waypoints(vec![Waypoint::new(start, p), Waypoint::new(end, p)])
    }

    /// The plan's reads.
    pub fn view(&self) -> TrajectoryView<'_> {
        let waypoints = &self.waypoints;
        TrajectoryView { waypoints }
    }
}

/// Check one node's plan: at least one leg (two waypoints), at
/// non-decreasing instants.
pub(crate) fn validate(waypoints: &[Waypoint]) {
    assert!(waypoints.len() >= 2, "trajectory needs at least one leg");
    let in_order = waypoints.is_sorted_by_key(|w| w.at);
    assert!(in_order, "leg ends before it starts");
}

/// One node's movement plan, borrowed: the waypoints of a [`Trajectory`],
/// or one node's run of a [`Fleet`](crate::Fleet)'s waypoint table.
/// Every position and velocity lookup reads one leg through
/// [`TrajectoryView::leg_at`] or the hinted index behind the cursors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrajectoryView<'a> {
    /// Waypoints [`validate`] accepted.
    pub(crate) waypoints: &'a [Waypoint],
}

impl<'a> TrajectoryView<'a> {
    pub fn waypoints(self) -> &'a [Waypoint] {
        self.waypoints
    }

    /// The plan's legs, one per adjacent pair of waypoints.
    pub fn legs(self) -> impl ExactSizeIterator<Item = Leg> + 'a {
        (0..self.waypoints.len() - 1).map(move |i| self.leg(i))
    }

    /// Leg `i`, the one from waypoint `i` to waypoint `i + 1`.
    #[inline]
    pub(crate) fn leg(self, i: usize) -> Leg {
        let (a, b) = (self.waypoints[i], self.waypoints[i + 1]);
        Leg::new(a.at, b.at, a.pos, b.pos)
    }

    pub fn start_time(self) -> SimTime {
        self.waypoints[0].at
    }

    pub fn end_time(self) -> SimTime {
        self.waypoints[self.waypoints.len() - 1].at
    }

    /// Index of the leg active at `t` (clamped to the first/last leg):
    /// the last leg starting at or before `t`, so at an instant where
    /// zero-length legs start too, the leg after them.
    pub(crate) fn leg_index_at(self, t: SimTime) -> usize {
        let last = self.waypoints.len() - 2;
        if t < self.start_time() {
            return 0;
        }
        if t >= self.end_time() {
            return last;
        }
        // Binary search on the waypoints' instants; partition_point yields
        // the first waypoint after t (the final one is), which ends the
        // active leg.
        self.waypoints.partition_point(|w| w.at <= t) - 1
    }

    /// Exact position at `t` from the leg [`Self::leg_index_at`] finds,
    /// searched from a cached `hint` index and leaving `hint` at that leg:
    /// O(1) amortized when query times are non-decreasing (the DES clock),
    /// a binary search when the hint overshoots `t`. Any hint yields the
    /// same leg — a stale one only costs speed.
    pub(crate) fn position_hinted(self, t: SimTime, hint: &mut u32) -> Point {
        let last = self.waypoints.len() - 2;
        let mut i = (*hint as usize).min(last);
        if t < self.waypoints[i].at {
            // Backward jump below the hinted leg: resync with a search.
            i = self.leg_index_at(t);
        }
        while i < last && self.waypoints[i + 1].at <= t {
            i += 1;
        }
        *hint = i as u32;
        self.leg(i).position_at(t)
    }

    /// The leg active at `t`: the last leg starting at or before `t`, the
    /// first leg before the plan starts. Every position and velocity
    /// lookup, cursor or not, reads this leg.
    pub fn leg_at(self, t: SimTime) -> Leg {
        self.leg(self.leg_index_at(t))
    }

    /// Exact position at time `t` (clamped outside the plan's interval).
    pub fn position_at(self, t: SimTime) -> Point {
        self.leg_at(t).position_at(t)
    }

    /// The paper derives a peer's motion direction "from two consecutive
    /// recorded locations"; this reproduces that estimate with fixes at
    /// `t - dt` and `t` (falls back to zero for a degenerate window).
    pub fn estimated_velocity(self, t: SimTime, dt: SimDuration) -> Vector {
        let secs = dt.as_secs();
        if secs <= 0.0 {
            return Vector::ZERO;
        }
        let prev = self.position_at(t - dt);
        let cur = self.position_at(t);
        (cur - prev) / secs
    }

    /// All intervals `[enter, exit]` (absolute times) during which the
    /// node is inside `circle`, restricted to `[from, to]`, merged when
    /// adjacent legs keep the node inside.
    pub fn disk_intervals(
        self,
        circle: &Circle,
        from: SimTime,
        to: SimTime,
    ) -> Vec<(SimTime, SimTime)> {
        let mut merged: Vec<(SimTime, SimTime)> = Vec::new();
        let overlaps = |leg: &Leg| leg.end_time >= from && leg.start_time <= to;
        for leg in self.legs().filter(overlaps) {
            let transit = if leg.is_pause() || leg.duration().is_zero() {
                circle
                    .contains(leg.from)
                    .then_some((leg.start_time, leg.end_time))
            } else {
                match Segment::new(leg.from, leg.to).disk_transit(circle) {
                    ia_geo::segment::DiskTransit::Outside => None,
                    ia_geo::segment::DiskTransit::Crossing { enter, exit } => {
                        let dur = leg.duration();
                        Some((
                            leg.start_time + dur.mul_f64(enter),
                            leg.start_time + dur.mul_f64(exit),
                        ))
                    }
                }
            };
            let clipped = transit.map(|(a, b)| (a.max(from), b.min(to)));
            let Some((a, b)) = clipped.filter(|(a, b)| a <= b) else {
                continue;
            };
            // Merge intervals that touch (consecutive legs both inside).
            match merged.last_mut() {
                Some((_, last_b)) if a <= *last_b + SimDuration::from_micros(1) => {
                    *last_b = (*last_b).max(b);
                }
                _ => merged.push((a, b)),
            }
        }
        merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn straight_line() -> Trajectory {
        // Move (0,0) -> (100,0) over [0, 10], then pause to 20.
        Trajectory::new(vec![
            Leg::new(
                t(0.0),
                t(10.0),
                Point::new(0.0, 0.0),
                Point::new(100.0, 0.0),
            ),
            Leg::pause(t(10.0), t(20.0), Point::new(100.0, 0.0)),
        ])
    }

    #[test]
    fn position_interpolates_linearly() {
        let tr = straight_line();
        assert_eq!(tr.view().position_at(t(0.0)), Point::new(0.0, 0.0));
        assert_eq!(tr.view().position_at(t(5.0)), Point::new(50.0, 0.0));
        assert_eq!(tr.view().position_at(t(10.0)), Point::new(100.0, 0.0));
        assert_eq!(tr.view().position_at(t(15.0)), Point::new(100.0, 0.0));
    }

    #[test]
    fn position_clamps_outside_plan() {
        let tr = straight_line();
        assert_eq!(
            tr.view().position_at(t(0.0) - SimDuration::from_secs(5.0)),
            Point::new(0.0, 0.0)
        );
        assert_eq!(tr.view().position_at(t(100.0)), Point::new(100.0, 0.0));
    }

    #[test]
    fn velocity_per_leg() {
        let tr = straight_line();
        assert_eq!(tr.view().leg_at(t(5.0)).velocity(), Vector::new(10.0, 0.0));
        assert_eq!(tr.view().leg_at(t(15.0)).velocity(), Vector::ZERO);
        assert_eq!(tr.view().leg_at(t(25.0)).velocity(), Vector::ZERO);
    }

    #[test]
    fn estimated_velocity_matches_exact_on_straight_leg() {
        let tr = straight_line();
        let est = tr
            .view()
            .estimated_velocity(t(5.0), SimDuration::from_secs(1.0));
        assert!((est.x - 10.0).abs() < 1e-9);
        assert!((est.y).abs() < 1e-9);
        assert_eq!(
            tr.view().estimated_velocity(t(5.0), SimDuration::ZERO),
            Vector::ZERO
        );
    }

    #[test]
    fn disk_intervals_on_crossing() {
        let tr = straight_line();
        let c = Circle::new(Point::new(50.0, 0.0), 10.0);
        let iv = tr.view().disk_intervals(&c, t(0.0), t(20.0));
        assert_eq!(iv.len(), 1);
        let (a, b) = iv[0];
        assert!((a.as_secs() - 4.0).abs() < 1e-6);
        assert!((b.as_secs() - 6.0).abs() < 1e-6);
        assert!(tr.view().disk_intervals(&c, t(7.0), t(20.0)).is_empty());
    }

    #[test]
    fn disk_intervals_merge_across_legs() {
        // Two legs passing straight through the disk; the pause inside the
        // disk must merge with the moving leg.
        let tr = Trajectory::new(vec![
            Leg::new(t(0.0), t(10.0), Point::new(0.0, 0.0), Point::new(50.0, 0.0)),
            Leg::pause(t(10.0), t(20.0), Point::new(50.0, 0.0)),
            Leg::new(
                t(20.0),
                t(30.0),
                Point::new(50.0, 0.0),
                Point::new(100.0, 0.0),
            ),
        ]);
        let c = Circle::new(Point::new(50.0, 0.0), 10.0);
        let iv = tr.view().disk_intervals(&c, t(0.0), t(30.0));
        assert_eq!(iv.len(), 1, "{iv:?}");
        let (a, b) = iv[0];
        assert!((a.as_secs() - 8.0).abs() < 1e-6);
        assert!((b.as_secs() - 22.0).abs() < 1e-6);
    }

    #[test]
    fn disk_intervals_window_restriction() {
        let tr = straight_line();
        let c = Circle::new(Point::new(50.0, 0.0), 10.0);
        let iv = tr.view().disk_intervals(&c, t(5.0), t(20.0));
        assert_eq!(iv.len(), 1);
        assert!((iv[0].0.as_secs() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn pause_outside_disk_yields_nothing() {
        let tr = Trajectory::stationary(Point::new(500.0, 500.0), t(0.0), t(100.0));
        let c = Circle::new(Point::ORIGIN, 10.0);
        assert!(tr.view().disk_intervals(&c, t(0.0), t(100.0)).is_empty());
    }

    #[test]
    fn stationary_inside_disk_covers_window() {
        let tr = Trajectory::stationary(Point::new(1.0, 1.0), t(0.0), t(100.0));
        let c = Circle::new(Point::ORIGIN, 10.0);
        let iv = tr.view().disk_intervals(&c, t(10.0), t(50.0));
        assert_eq!(iv, vec![(t(10.0), t(50.0))]);
    }

    #[test]
    #[should_panic(expected = "time-contiguous")]
    fn non_contiguous_times_rejected() {
        let _ = Trajectory::new(vec![
            Leg::new(t(0.0), t(5.0), Point::ORIGIN, Point::new(1.0, 0.0)),
            Leg::new(t(6.0), t(7.0), Point::new(1.0, 0.0), Point::new(2.0, 0.0)),
        ]);
    }

    #[test]
    #[should_panic(expected = "position-continuous")]
    fn teleporting_legs_rejected() {
        let _ = Trajectory::new(vec![
            Leg::new(t(0.0), t(5.0), Point::ORIGIN, Point::new(1.0, 0.0)),
            Leg::new(t(5.0), t(7.0), Point::new(9.0, 0.0), Point::new(2.0, 0.0)),
        ]);
    }

    #[test]
    #[should_panic(expected = "at least one leg")]
    fn empty_trajectory_rejected() {
        let _ = Trajectory::new(vec![]);
    }

    #[test]
    fn leg_index_binary_search_is_consistent() {
        let mut legs = Vec::new();
        let mut p = Point::ORIGIN;
        for i in 0..50 {
            let q = Point::new((i + 1) as f64, 0.0);
            legs.push(Leg::new(t(i as f64), t((i + 1) as f64), p, q));
            p = q;
        }
        let tr = Trajectory::new(legs);
        for i in 0..500 {
            let ti = t(i as f64 * 0.1);
            let pos = tr.view().position_at(ti);
            assert!((pos.x - ti.as_secs()).abs() < 1e-9, "at {ti}: {pos}");
        }
    }
}
