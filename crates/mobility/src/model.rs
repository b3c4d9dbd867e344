//! The mobility-model abstraction.

use crate::trajectory::{Trajectory, Waypoint};
use ia_des::{SimDuration, SimRng, SimTime};
use ia_geo::Point;

/// Slowest speed a mobility model draws, m/s. The paper's models clamp
/// `mean - delta` up to it, so a node never stalls on a leg.
pub const MIN_SPEED: f64 = 0.1;

/// A generator of node movement plans.
///
/// Implementations must be deterministic functions of the RNG stream they
/// are handed: two calls with identically-seeded RNGs must produce
/// identical trajectories.
pub trait MobilityModel {
    /// Append one node's plan covering `[start, end]` to `plan`, drawing
    /// all randomness from `rng`: at least two waypoints, the first at
    /// `start` and the last at `end`, at non-decreasing instants. Each
    /// adjacent pair is one leg.
    fn waypoints_into(
        &self,
        rng: &mut SimRng,
        start: SimTime,
        end: SimTime,
        plan: &mut Vec<Waypoint>,
    );

    /// Generate a trajectory covering `[start, end]` for one node, drawing
    /// all randomness from `rng`.
    fn trajectory(&self, rng: &mut SimRng, start: SimTime, end: SimTime) -> Trajectory {
        let mut plan = Vec::new();
        self.waypoints_into(rng, start, end, &mut plan);
        Trajectory::from_waypoints(plan)
    }
}

/// Append a straight leg from the plan's last waypoint to `target` at
/// `speed`, cut at the exact point reached when the window closes at
/// `end`. Returns whether it closed.
pub(crate) fn travel(plan: &mut Vec<Waypoint>, target: Point, speed: f64, end: SimTime) -> bool {
    let Waypoint { at: now, pos } = plan[plan.len() - 1];
    let trip = SimDuration::from_secs(pos.distance(target) / speed);
    let leg_end = (now + trip).min(end);
    let reached = if leg_end < now + trip {
        pos.lerp(target, leg_end.since(now).as_secs() / trip.as_secs())
    } else {
        target
    };
    plan.push(Waypoint::new(leg_end, reached));
    leg_end >= end
}

/// Append a pause of `secs` at the plan's last point, cut at `end`.
pub(crate) fn pause(plan: &mut Vec<Waypoint>, secs: f64, end: SimTime) {
    let last = plan[plan.len() - 1];
    let until = (last.at + SimDuration::from_secs(secs)).min(end);
    if secs > 0.0 && until > last.at {
        plan.push(Waypoint::new(until, last.pos));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stationary::Stationary;
    use ia_geo::Point;

    #[test]
    fn trait_objects_and_references_delegate() {
        let model = Stationary::at(Point::new(1.0, 2.0));
        let boxed: Box<dyn MobilityModel> = Box::new(model);
        let mut rng = SimRng::from_master(1);
        let tr = boxed.trajectory(&mut rng, SimTime::ZERO, SimTime::from_secs(10.0));
        assert_eq!(
            tr.view().position_at(SimTime::from_secs(5.0)),
            Point::new(1.0, 2.0)
        );
        let by_ref = &*boxed;
        let tr2 = by_ref.trajectory(&mut rng, SimTime::ZERO, SimTime::from_secs(10.0));
        assert_eq!(tr, tr2);
    }
}
