//! Per-node leg-cursor cache for amortized O(1) trajectory lookups.
//!
//! The DES clock is monotone non-decreasing, so successive position
//! queries for a node almost always land on the same leg as the last
//! query or the one after it. [`FleetCursor`] remembers the last leg
//! index per node and resumes the scan there, falling back to binary
//! search only on backward jumps (e.g. the `t - dt` probe of
//! [`Fleet::estimated_velocity`], which gets its own hint lane so the
//! probe series is itself monotone).
//!
//! The cursor is pure acceleration: every lookup returns the exact same
//! value as the corresponding [`Fleet`] method (the hinted index always
//! equals the binary-search index — a stale hint only costs speed), so
//! holders can share one immutable [`Fleet`] and keep their own mutable
//! cursors without perturbing results.

use crate::fleet::Fleet;
use crate::trajectory::TrajectoryView;
use ia_des::{SimDuration, SimTime};
use ia_geo::{Point, Vector};

/// Cached leg indices for every node of a [`Fleet`].
///
/// Separate from the fleet itself because fleets are shared immutably
/// (worlds, observers, parallel sweeps) while cursors are per-holder
/// mutable state. Lazily sized on first use; indexing is by the fleet's
/// dense `u32` node ids.
#[derive(Debug, Clone, Default)]
pub struct FleetCursor {
    /// Current-leg hint per node, fed by the main (monotone) query time.
    hints: Vec<u32>,
    /// Hint lane for the `t - dt` probe of velocity estimation, which
    /// trails the main clock and would otherwise force a resync on every
    /// estimate.
    prev_hints: Vec<u32>,
}

impl FleetCursor {
    pub fn new() -> Self {
        FleetCursor::default()
    }

    #[inline]
    fn ensure(&mut self, n: usize) {
        if self.hints.len() < n {
            self.hints.resize(n, 0);
            self.prev_hints.resize(n, 0);
        }
    }

    /// Exact position of `node` at `t` (equals [`Fleet::position`]).
    #[inline]
    pub fn position(&mut self, fleet: &Fleet, node: u32, t: SimTime) -> Point {
        self.ensure(fleet.len());
        let hint = &mut self.hints[node as usize];
        fleet.trajectory(node).position_hinted(t, hint)
    }

    /// Batch position snapshot: every node's exact position at `t`
    /// written into `out` (cleared first; index = node id). Bitwise
    /// equal to calling [`Self::position`] per node.
    pub fn positions_into(&mut self, fleet: &Fleet, t: SimTime, out: &mut Vec<Point>) {
        out.clear();
        out.extend((0..fleet.len() as u32).map(|node| self.position(fleet, node, t)));
    }

    /// Two-fix velocity estimate (equals [`Fleet::estimated_velocity`]).
    pub fn estimated_velocity(
        &mut self,
        fleet: &Fleet,
        node: u32,
        t: SimTime,
        dt: SimDuration,
    ) -> Vector {
        let cur = self.position(fleet, node, t);
        self.estimated_velocity_from(fleet, node, t, dt, cur)
    }

    /// [`Self::estimated_velocity`] given `cur`, the node's exact
    /// position at `t` ([`Self::position`]), so only the fix at `t - dt`
    /// is evaluated.
    pub fn estimated_velocity_from(
        &mut self,
        fleet: &Fleet,
        node: u32,
        t: SimTime,
        dt: SimDuration,
        cur: Point,
    ) -> Vector {
        let secs = dt.as_secs();
        if secs <= 0.0 {
            return Vector::ZERO;
        }
        self.ensure(fleet.len());
        let hint = &mut self.prev_hints[node as usize];
        let prev = fleet.trajectory(node).position_hinted(t - dt, hint);
        (cur - prev) / secs
    }

    /// A forward walk over `node`'s legs that starts at this cursor's
    /// hint and leaves the cursor as it was: a look-ahead past the
    /// current instant reads its positions from it.
    pub fn walk<'a>(&self, fleet: &'a Fleet, node: u32) -> LegWalk<'a> {
        LegWalk {
            trajectory: fleet.trajectory(node),
            leg: self.hints.get(node as usize).copied().unwrap_or(0),
        }
    }
}

/// One node's leg cursor for queries at non-decreasing instants
/// ([`FleetCursor::walk`]). Every position equals
/// [`Fleet::position`]'s; an earlier instant only costs a search.
#[derive(Debug, Clone)]
pub struct LegWalk<'a> {
    trajectory: TrajectoryView<'a>,
    leg: u32,
}

impl LegWalk<'_> {
    /// Exact position at `t` (equals [`Fleet::position`]).
    #[inline]
    pub fn position(&mut self, t: SimTime) -> Point {
        self.trajectory.position_hinted(t, &mut self.leg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random_waypoint::RandomWaypoint;
    use crate::trajectory::{Leg, Trajectory};
    use ia_geo::Rect;

    fn fleet(n: usize, seed: u64) -> Fleet {
        let model = RandomWaypoint::paper(Rect::with_size(1000.0, 1000.0), 10.0, 5.0);
        Fleet::generate(&model, n, seed, SimTime::ZERO, SimTime::from_secs(300.0))
    }

    #[test]
    fn cursor_matches_fleet_on_monotone_queries() {
        let f = fleet(8, 11);
        let mut c = FleetCursor::new();
        for step in 0..600 {
            let t = SimTime::from_secs(step as f64 * 0.5);
            for node in 0..8 {
                assert_eq!(c.position(&f, node, t), f.position(node, t));
            }
        }
    }

    #[test]
    fn cursor_matches_fleet_on_backward_jumps() {
        let f = fleet(4, 23);
        let mut c = FleetCursor::new();
        // Jump to the end, then all the way back, then zig-zag.
        let times = [290.0, 5.0, 150.0, 10.0, 299.0, 0.0, 75.0];
        for &s in &times {
            let t = SimTime::from_secs(s);
            for node in 0..4 {
                assert_eq!(c.position(&f, node, t), f.position(node, t), "t={s}");
            }
        }
    }

    #[test]
    fn walk_matches_fleet_and_leaves_the_cursor_alone() {
        let f = fleet(4, 29);
        let mut c = FleetCursor::new();
        for node in 0..4 {
            c.position(&f, node, SimTime::from_secs(40.0));
            let before = c.clone();
            // Forward from the cursor's leg, then back before it.
            let mut walk = c.walk(&f, node);
            for s in [40.0, 41.5, 90.0, 90.0, 299.0, 10_000.0, 3.0, 120.0] {
                let t = SimTime::from_secs(s);
                let (p, q) = (walk.position(t), f.position(node, t));
                assert_eq!(
                    (p.x.to_bits(), p.y.to_bits()),
                    (q.x.to_bits(), q.y.to_bits())
                );
            }
            assert_eq!(c.hints, before.hints);
        }
        // A cursor that has not seen the node starts at its first leg.
        let t = SimTime::from_secs(200.0);
        assert_eq!(FleetCursor::new().walk(&f, 3).position(t), f.position(3, t));
    }

    #[test]
    fn batch_snapshot_bitwise_equals_per_node_lookups() {
        let f = fleet(6, 17);
        let mut batch = FleetCursor::new();
        let mut single = FleetCursor::new();
        let mut out = Vec::new();
        for step in 0..120 {
            let t = SimTime::from_secs(step as f64 * 2.5);
            batch.positions_into(&f, t, &mut out);
            assert_eq!(out.len(), 6);
            for node in 0..6u32 {
                let p = single.position(&f, node, t);
                assert_eq!(out[node as usize].x.to_bits(), p.x.to_bits());
                assert_eq!(out[node as usize].y.to_bits(), p.y.to_bits());
            }
        }
    }

    #[test]
    fn estimated_velocity_bitwise_equals_fleet() {
        let f = fleet(6, 37);
        let mut c = FleetCursor::new();
        let dt = SimDuration::from_millis(1000);
        for step in 0..300 {
            let t = SimTime::from_secs(step as f64);
            for node in 0..6 {
                let a = c.estimated_velocity(&f, node, t, dt);
                let b = f.estimated_velocity(node, t, dt);
                assert_eq!(a.x.to_bits(), b.x.to_bits(), "node {node} t {t}");
                assert_eq!(a.y.to_bits(), b.y.to_bits(), "node {node} t {t}");
            }
        }
        assert_eq!(
            c.estimated_velocity(&f, 0, SimTime::from_secs(10.0), SimDuration::ZERO),
            Vector::ZERO
        );
    }

    #[test]
    fn zero_length_legs_at_the_plan_start_read_alike() {
        // A zero-length jump, then a zero-length pause, then motion, all
        // starting at 0: fleet and cursor both read the moving leg there.
        let (p, q) = (Point::ORIGIN, Point::new(100.0, 0.0));
        let (t0, t1) = (SimTime::ZERO, SimTime::from_secs(10.0));
        let f = Fleet::from_trajectories(vec![Trajectory::new(vec![
            Leg::new(t0, t0, Point::new(-5.0, 0.0), p),
            Leg::pause(t0, t0, p),
            Leg::new(t0, t1, p, q),
        ])]);
        let mut c = FleetCursor::new();
        assert_eq!(
            f.trajectory(0).leg_at(t0).velocity(),
            Vector::new(10.0, 0.0)
        );
        assert_eq!(f.position(0, t0), p);
        assert_eq!(c.position(&f, 0, t0), p);
        assert_eq!(c.walk(&f, 0).position(t0), p);
    }

    #[test]
    fn clamped_outside_plan_queries_agree() {
        let f = fleet(3, 5);
        let mut c = FleetCursor::new();
        let before = SimTime::ZERO;
        let after = SimTime::from_secs(10_000.0);
        for node in 0..3 {
            assert_eq!(c.position(&f, node, after), f.position(node, after));
            assert_eq!(c.position(&f, node, before), f.position(node, before));
        }
    }
}
