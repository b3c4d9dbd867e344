//! Stationary "mobility" — fixed peers.
//!
//! Used for advertisement issuers that stay put (the supermarket, the
//! petrol station) and as a degenerate baseline in tests.

use crate::model::MobilityModel;
use crate::trajectory::Waypoint;
use ia_des::{SimRng, SimTime};
use ia_geo::{Point, Rect};

/// A node that never moves.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Stationary {
    /// Pinned at a specific point.
    At(Point),
    /// Placed uniformly at random in a field (drawn once per trajectory).
    UniformIn(Rect),
}

impl Stationary {
    pub fn at(p: Point) -> Self {
        Stationary::At(p)
    }
}

impl MobilityModel for Stationary {
    fn waypoints_into(
        &self,
        rng: &mut SimRng,
        start: SimTime,
        end: SimTime,
        plan: &mut Vec<Waypoint>,
    ) {
        assert!(end > start, "empty time window");
        let p = match self {
            Stationary::At(p) => *p,
            Stationary::UniformIn(area) => area.at_fraction(rng.unit(), rng.unit()),
        };
        plan.extend([Waypoint::new(start, p), Waypoint::new(end, p)]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ia_des::SimDuration;

    #[test]
    fn pinned_node_never_moves() {
        let m = Stationary::at(Point::new(3.0, 4.0));
        let mut rng = SimRng::from_master(0);
        let tr = m.trajectory(&mut rng, SimTime::ZERO, SimTime::from_secs(100.0));
        for i in 0..=10 {
            assert_eq!(
                tr.view().position_at(SimTime::from_secs(i as f64 * 10.0)),
                Point::new(3.0, 4.0)
            );
        }
        assert_eq!(
            tr.view().leg_at(SimTime::from_secs(50.0)).velocity(),
            ia_geo::Vector::ZERO
        );
        assert_eq!(
            tr.view()
                .estimated_velocity(SimTime::from_secs(50.0), SimDuration::from_secs(5.0)),
            ia_geo::Vector::ZERO
        );
    }

    #[test]
    fn uniform_placement_is_inside_and_seed_dependent() {
        let area = Rect::with_size(100.0, 100.0);
        let m = Stationary::UniformIn(area);
        let mut r1 = SimRng::from_master(1);
        let mut r2 = SimRng::from_master(2);
        let p1 = m
            .trajectory(&mut r1, SimTime::ZERO, SimTime::from_secs(1.0))
            .view()
            .waypoints()[0]
            .pos;
        let p2 = m
            .trajectory(&mut r2, SimTime::ZERO, SimTime::from_secs(1.0))
            .view()
            .waypoints()[0]
            .pos;
        assert!(area.contains(p1));
        assert!(area.contains(p2));
        assert_ne!(p1, p2);
    }
}
