//! The mobility-model abstraction.

use crate::trajectory::Trajectory;
use ia_des::{SimRng, SimTime};

/// Slowest speed a mobility model draws, m/s. The paper's models clamp
/// `mean - delta` up to it, so a node never stalls on a leg.
pub const MIN_SPEED: f64 = 0.1;

/// A generator of node movement plans.
///
/// Implementations must be deterministic functions of the RNG stream they
/// are handed: two calls with identically-seeded RNGs must produce
/// identical trajectories.
pub trait MobilityModel {
    /// Generate a trajectory covering `[start, end]` for one node, drawing
    /// all randomness from `rng`.
    fn trajectory(&self, rng: &mut SimRng, start: SimTime, end: SimTime) -> Trajectory;
}

impl<M: MobilityModel + ?Sized> MobilityModel for &M {
    fn trajectory(&self, rng: &mut SimRng, start: SimTime, end: SimTime) -> Trajectory {
        (**self).trajectory(rng, start, end)
    }
}

impl<M: MobilityModel + ?Sized> MobilityModel for Box<M> {
    fn trajectory(&self, rng: &mut SimRng, start: SimTime, end: SimTime) -> Trajectory {
        (**self).trajectory(rng, start, end)
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
            tr.position_at(SimTime::from_secs(5.0)),
            Point::new(1.0, 2.0)
        );
        let by_ref = &*boxed;
        let tr2 = by_ref.trajectory(&mut rng, SimTime::ZERO, SimTime::from_secs(10.0));
        assert_eq!(tr, tr2);
    }
}
