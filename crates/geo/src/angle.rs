//! The angle between two directions.
//!
//! The paper's Optimized Gossiping-2 rule (formula 4) needs the angle
//! `theta in [0, pi]` between a peer's motion direction and the line from
//! the peer to the broadcaster it overheard. This module keeps that
//! computation in one well-tested place.

use crate::point::Vector;

/// Unsigned angle between two vectors, in `[0, pi]`.
///
/// Zero vectors have no direction; by convention the angle to or from a
/// zero vector is `pi/2` (cos = 0), which makes formula-4 postponement
/// neutral with respect to direction for a stationary peer.
pub fn angle_between(a: Vector, b: Vector) -> f64 {
    let na = a.norm();
    let nb = b.norm();
    if na < crate::EPS || nb < crate::EPS {
        return std::f64::consts::FRAC_PI_2;
    }
    let cos = (a.dot(b) / (na * nb)).clamp(-1.0, 1.0);
    cos.acos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::{FRAC_PI_2, PI};

    #[test]
    fn angle_between_basic_cases() {
        let x = Vector::new(1.0, 0.0);
        let y = Vector::new(0.0, 3.0);
        assert!((angle_between(x, x)).abs() < 1e-12);
        assert!((angle_between(x, y) - FRAC_PI_2).abs() < 1e-12);
        assert!((angle_between(x, -x) - PI).abs() < 1e-12);
    }

    #[test]
    fn angle_between_is_symmetric_and_scale_invariant() {
        let a = Vector::new(2.0, 1.0);
        let b = Vector::new(-1.0, 4.0);
        assert!((angle_between(a, b) - angle_between(b, a)).abs() < 1e-12);
        assert!((angle_between(a * 10.0, b * 0.5) - angle_between(a, b)).abs() < 1e-12);
    }

    #[test]
    fn zero_vector_is_neutral() {
        let a = Vector::new(1.0, 1.0);
        assert!((angle_between(Vector::ZERO, a) - FRAC_PI_2).abs() < 1e-12);
        assert!((angle_between(a, Vector::ZERO) - FRAC_PI_2).abs() < 1e-12);
    }

    #[test]
    fn nearly_parallel_vectors_do_not_nan() {
        // Rounding can push the cosine slightly above 1; clamp must hold.
        let a = Vector::new(1.0, 1e-9);
        let b = Vector::new(1.0, 0.0);
        let theta = angle_between(a, b);
        assert!(theta.is_finite());
        assert!(theta >= 0.0);
    }
}
