//! A fleet: every node's plan in one waypoint table, with bulk queries.

use crate::model::MobilityModel;
use crate::trajectory::{validate, Trajectory, TrajectoryView, Waypoint};
use ia_des::{rng::stream, SimDuration, SimRng, SimTime};
use ia_geo::{Point, Vector};

/// All node movement plans for one scenario.
///
/// Node ids are dense `u32` indices (`0..len`), matching the ids used by
/// the radio medium's spatial grid. The waypoints of every node sit in
/// one table, node after node, sized exactly to them: no per-node vector,
/// header or growth slack survives construction.
#[derive(Debug, Clone)]
pub struct Fleet {
    /// Every node's waypoints, node after node.
    waypoints: Vec<Waypoint>,
    /// Node `i`'s waypoints are `waypoints[starts[i]..starts[i + 1]]`: one
    /// offset per node, then the table's end.
    starts: Vec<u32>,
}

/// Append nodes (e.g. stationary issuers after the mobile peers); their
/// ids continue from the current [`Fleet::len`]. Each trajectory's
/// waypoints are copied in and the trajectory dropped at once.
impl Extend<Trajectory> for Fleet {
    fn extend<I: IntoIterator<Item = Trajectory>>(&mut self, nodes: I) {
        let mut nodes = nodes.into_iter();
        self.starts.reserve_exact(nodes.size_hint().0);
        while let Some(trajectory) = nodes.next() {
            self.push(trajectory.view().waypoints(), nodes.size_hint().0);
        }
        self.waypoints.shrink_to_fit();
        self.starts.shrink_to_fit();
    }
}

impl Fleet {
    fn empty() -> Self {
        Fleet {
            waypoints: Vec::new(),
            starts: vec![0],
        }
    }

    /// Append one node's waypoints, with `remaining` nodes still to come.
    /// A full table grows to hold them at the fleet's mean waypoint count
    /// so far less a sixteenth, at most doubling, so its capacity ends at
    /// about its final size, not up to twice it; callers cut it to size.
    fn push(&mut self, plan: &[Waypoint], remaining: usize) {
        if self.waypoints.capacity() - self.waypoints.len() < plan.len() {
            let len = self.waypoints.len() + plan.len();
            let ahead = len.saturating_mul(remaining) / self.starts.len();
            self.waypoints
                .reserve_exact(plan.len() + (ahead - ahead / 16).min(len));
        }
        self.waypoints.extend_from_slice(plan);
        let end = u32::try_from(self.waypoints.len()).expect("a fleet holds under 2^32 waypoints");
        self.starts.push(end);
    }

    /// Build a fleet of `n` nodes from `model`, deriving one independent
    /// RNG stream per node from `master_seed` (so fleets are reproducible
    /// and node `i`'s path does not depend on `n`). Each node's waypoints
    /// are drawn into one reused buffer and copied into the table.
    pub fn generate<M: MobilityModel>(
        model: &M,
        n: usize,
        master_seed: u64,
        start: SimTime,
        end: SimTime,
    ) -> Self {
        let mut fleet = Fleet::empty();
        fleet.starts.reserve_exact(n);
        let mut plan = Vec::new();
        for i in 0..n {
            let mut rng = SimRng::derive(master_seed, stream::MOBILITY | i as u64);
            plan.clear();
            model.waypoints_into(&mut rng, start, end, &mut plan);
            validate(&plan);
            fleet.push(&plan, n - 1 - i);
        }
        fleet.waypoints.shrink_to_fit();
        fleet
    }

    /// Build a fleet from explicit trajectories (e.g. a mixed fleet with a
    /// stationary issuer plus mobile peers).
    pub fn from_trajectories(trajectories: Vec<Trajectory>) -> Self {
        assert!(!trajectories.is_empty(), "empty fleet");
        let mut fleet = Fleet::empty();
        fleet.extend(trajectories);
        fleet
    }

    pub fn len(&self) -> usize {
        self.starts.len() - 1
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Node `node`'s movement plan.
    pub fn trajectory(&self, node: u32) -> TrajectoryView<'_> {
        let i = node as usize;
        let (from, to) = (self.starts[i] as usize, self.starts[i + 1] as usize);
        let waypoints = &self.waypoints[from..to];
        TrajectoryView { waypoints }
    }

    pub fn iter(&self) -> impl Iterator<Item = (u32, TrajectoryView<'_>)> {
        (0..self.len() as u32).map(|node| (node, self.trajectory(node)))
    }

    /// Exact position of `node` at `t`.
    pub fn position(&self, node: u32, t: SimTime) -> Point {
        self.trajectory(node).position_at(t)
    }

    /// The paper's GPS-style velocity estimate from two consecutive fixes.
    pub fn estimated_velocity(&self, node: u32, t: SimTime, dt: SimDuration) -> Vector {
        self.trajectory(node).estimated_velocity(t, dt)
    }

    /// Maximum speed over all moving legs in the fleet — the `V_max`
    /// feeding the paper's `DIS = V_max * round_time` constraint.
    pub fn max_speed(&self) -> f64 {
        self.iter()
            .flat_map(|(_, tr)| tr.legs())
            .map(|leg| leg.velocity().norm())
            .fold(0.0, f64::max)
    }

    /// The largest distance any node covers other than by moving at a
    /// leg's velocity: over one trajectory, the sum of its zero-duration
    /// legs' displacements, which [`Leg::velocity`](crate::Leg::velocity)
    /// reports as zero, in plan order. A seam (where a leg given to
    /// [`Trajectory::new`] starts up to 10⁻⁶ m from where the previous
    /// one ended) is such a leg. A node moves at most
    /// `max_speed() · Δt + max_jump()` in any `Δt`.
    pub fn max_jump(&self) -> f64 {
        self.iter()
            .map(|(_, tr)| {
                tr.legs()
                    .filter(|leg| leg.end_time == leg.start_time)
                    .fold(0.0, |sum, leg| sum + leg.from.distance(leg.to))
            })
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random_waypoint::RandomWaypoint;
    use crate::stationary::Stationary;
    use ia_geo::Rect;

    fn fleet(n: usize, seed: u64) -> Fleet {
        let model = RandomWaypoint::paper(Rect::with_size(1000.0, 1000.0), 10.0, 5.0);
        Fleet::generate(&model, n, seed, SimTime::ZERO, SimTime::from_secs(100.0))
    }

    #[test]
    fn generates_n_trajectories() {
        let f = fleet(20, 1);
        assert_eq!(f.len(), 20);
        assert!(!f.is_empty());
    }

    #[test]
    fn node_paths_are_independent_of_fleet_size() {
        let small = fleet(5, 42);
        let big = fleet(50, 42);
        for node in 0..5 {
            assert_eq!(small.trajectory(node), big.trajectory(node));
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = fleet(10, 7);
        let b = fleet(10, 7);
        for node in 0..10 {
            assert_eq!(a.trajectory(node), b.trajectory(node));
        }
        let c = fleet(10, 8);
        assert_ne!(a.trajectory(0), c.trajectory(0));
    }

    #[test]
    fn mixed_fleet_from_trajectories() {
        let issuer = Stationary::at(Point::new(500.0, 500.0));
        let mut rng = SimRng::from_master(3);
        let t0 = SimTime::ZERO;
        let t1 = SimTime::from_secs(100.0);
        let model = RandomWaypoint::paper(Rect::with_size(1000.0, 1000.0), 10.0, 5.0);
        let mut rng2 = SimRng::from_master(4);
        let f = Fleet::from_trajectories(vec![
            issuer.trajectory(&mut rng, t0, t1),
            model.trajectory(&mut rng2, t0, t1),
        ]);
        assert_eq!(f.len(), 2);
        assert_eq!(
            f.position(0, SimTime::from_secs(30.0)),
            Point::new(500.0, 500.0)
        );
        let at = SimTime::from_secs(30.0);
        assert_eq!(
            f.estimated_velocity(0, at, SimDuration::from_secs(1.0)),
            Vector::ZERO
        );
    }

    #[test]
    fn max_speed_within_model_bounds() {
        let f = fleet(20, 5);
        let vmax = f.max_speed();
        assert!(vmax > 5.0 && vmax <= 15.0 + 1e-6, "vmax={vmax}");
    }

    #[test]
    fn estimated_velocity_close_to_exact_mid_leg() {
        let f = fleet(5, 9);
        let t = SimTime::from_secs(20.0);
        for node in 0..5 {
            let exact = f.trajectory(node).leg_at(t).velocity();
            let est = f.estimated_velocity(node, t, SimDuration::from_millis(100));
            // Mid-leg (no waypoint change in the window) the estimate is
            // exact; across a waypoint it is a blend — allow slack.
            assert!((est - exact).norm() <= exact.norm() + 20.0);
        }
    }

    #[test]
    fn max_jump_sums_one_trajectorys_seams_and_instant_legs() {
        use crate::trajectory::Leg;
        let (t1, t2, t3) = (
            SimTime::from_secs(1.0),
            SimTime::from_secs(2.0),
            SimTime::from_secs(3.0),
        );
        let jumpy = Trajectory::new(vec![
            Leg::new(
                SimTime::ZERO,
                t1,
                Point::new(0.0, 0.0),
                Point::new(10.0, 0.0),
            ),
            // A 0.5 µm seam, then a zero-duration leg 40 m long.
            Leg::new(t1, t1, Point::new(10.0, 5e-7), Point::new(10.0, 40.0)),
            Leg::new(t1, t2, Point::new(10.0, 40.0), Point::new(20.0, 40.0)),
            Leg::pause(t2, t3, Point::new(20.0, 40.0)),
        ]);
        let f = Fleet::from_trajectories(vec![
            Trajectory::stationary(Point::ORIGIN, SimTime::ZERO, t3),
            jumpy,
        ]);
        // 5e-7 at the seam, then 40 m less 5e-7 along the instant leg.
        assert!((f.max_jump() - 40.0).abs() < 1e-12, "{}", f.max_jump());
        assert_eq!(f.max_speed(), 10.0);
        assert_eq!(fleet(20, 5).max_jump(), 0.0);
    }

    #[test]
    #[should_panic(expected = "empty fleet")]
    fn empty_fleet_rejected() {
        let _ = Fleet::from_trajectories(vec![]);
    }
}
