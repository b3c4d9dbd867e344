//! Formula (4): overhearing-based gossip postponement
//! (Optimized Gossiping-2).
//!
//! When peer `B` overhears neighbour `A` broadcasting an advertisement
//! that `B` also caches, `B` pushes back that entry's next scheduled
//! gossip by
//!
//! ```text
//! interval = round_time * exp( p * (1 + cos(theta)) / 2 )
//! ```
//!
//! where `p` is the fraction of `B`'s transmission disk overlapped by
//! `A`'s, and `theta` is the angle between `B`'s velocity and the line
//! `B -> A`. The OCR of the published formula reads `t e^{p p cosθ 2}`;
//! this reconstruction satisfies both stated properties: the interval
//! rises quickly as `p` increases and `theta` decreases, and overhearing
//! a *closer* neighbour causes a much greater delay. Since two in-range
//! equal-radius disks overlap by at least `2/3 - sqrt(3)/(2 pi) ≈ 0.391`,
//! the interval ranges over `[round_time, e * round_time]`.

use ia_des::SimDuration;
use ia_geo::{angle_between, Circle, Point, Vector};

/// The overlap fraction `p`: how much of the overhearing peer's
/// transmission disk (centred at `my_pos`) is covered by the
/// broadcaster's (centred at `sender_pos`), both of radius `tx_range`.
pub fn overlap_fraction(my_pos: Point, sender_pos: Point, tx_range: f64) -> f64 {
    let mine = Circle::new(my_pos, tx_range);
    let theirs = Circle::new(sender_pos, tx_range);
    mine.overlap_fraction(&theirs)
}

/// The angle `theta in [0, pi]` between the overhearing peer's motion
/// direction and the line from it to the broadcaster. A stationary peer
/// gets `pi/2` (direction-neutral).
pub fn approach_angle(my_pos: Point, my_velocity: Vector, sender_pos: Point) -> f64 {
    angle_between(my_velocity, sender_pos - my_pos)
}

/// Formula (4): how far to push back the next scheduled gossip of the
/// overheard advertisement.
pub fn postpone_interval(round_time: SimDuration, p: f64, theta: f64) -> SimDuration {
    debug_assert!((0.0..=1.0 + 1e-9).contains(&p), "bad overlap fraction {p}");
    let exponent = p.clamp(0.0, 1.0) * (1.0 + theta.cos()) / 2.0;
    round_time.mul_f64(exponent.exp())
}

/// Panics unless formula (4) can run at transmission range `tx_range`:
/// the range must be positive, and the lens of two disks of that radius
/// must stay finite (see [`ia_geo::circle::max_lens_radius`]).
pub fn validate_range(tx_range: f64) {
    assert!(tx_range > 0.0, "tx_range must be positive");
    assert!(
        tx_range <= ia_geo::circle::max_lens_radius(),
        "tx_range too large for formula (4)"
    );
}

/// Convenience: the full formula-(4) pipeline from raw positions.
pub fn postponement(
    round_time: SimDuration,
    my_pos: Point,
    my_velocity: Vector,
    sender_pos: Point,
    tx_range: f64,
) -> SimDuration {
    let p = overlap_fraction(my_pos, sender_pos, tx_range);
    let theta = approach_angle(my_pos, my_velocity, sender_pos);
    postpone_interval(round_time, p, theta)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::{E, PI};

    const DT: f64 = 5.0;

    fn dt() -> SimDuration {
        SimDuration::from_secs(DT)
    }

    #[test]
    fn interval_bounds() {
        // p = 1 (same spot), theta = 0 (moving straight at the sender):
        // maximal postponement of e * dt.
        let max = postpone_interval(dt(), 1.0, 0.0);
        assert!((max.as_secs() - E * DT).abs() < 1e-3);
        // p = 0, or theta = pi with p = 0: minimal postponement of dt.
        let min = postpone_interval(dt(), 0.0, PI);
        assert!((min.as_secs() - DT).abs() < 1e-6);
    }

    #[test]
    fn interval_increases_with_overlap() {
        let mut last = SimDuration::ZERO;
        for i in 0..=10 {
            let p = i as f64 / 10.0;
            let iv = postpone_interval(dt(), p, PI / 4.0);
            assert!(iv >= last);
            last = iv;
        }
    }

    #[test]
    fn interval_decreases_with_angle() {
        let mut last = SimDuration::from_secs(1e9);
        for i in 0..=10 {
            let theta = i as f64 * PI / 10.0;
            let iv = postpone_interval(dt(), 0.8, theta);
            assert!(iv <= last);
            last = iv;
        }
    }

    #[test]
    fn closer_neighbour_causes_greater_delay() {
        // Same heading, different distances: the closer sender must
        // produce the longer postponement (the paper's key property).
        let me = Point::ORIGIN;
        let v = Vector::new(1.0, 0.0);
        let near = postponement(dt(), me, v, Point::new(20.0, 0.0), 250.0);
        let far = postponement(dt(), me, v, Point::new(240.0, 0.0), 250.0);
        assert!(near > far, "near {near} vs far {far}");
    }

    #[test]
    fn moving_towards_sender_delays_more_than_away() {
        let me = Point::ORIGIN;
        let sender = Point::new(100.0, 0.0);
        let towards = postponement(dt(), me, Vector::new(5.0, 0.0), sender, 250.0);
        let away = postponement(dt(), me, Vector::new(-5.0, 0.0), sender, 250.0);
        assert!(towards > away);
    }

    #[test]
    fn stationary_peer_is_direction_neutral() {
        let me = Point::ORIGIN;
        let sender = Point::new(100.0, 0.0);
        let still = postponement(dt(), me, Vector::ZERO, sender, 250.0);
        // theta = pi/2 -> exponent p/2.
        let p = overlap_fraction(me, sender, 250.0);
        let expect = DT * (p / 2.0).exp();
        assert!((still.as_secs() - expect).abs() < 1e-6);
    }

    #[test]
    fn overlap_fraction_range_for_in_range_peers() {
        // Peers within transmission range overlap by at least
        // 2/3 - sqrt(3)/(2 pi).
        let lower = 2.0 / 3.0 - 3f64.sqrt() / (2.0 * PI);
        for i in 0..=10 {
            let d = i as f64 * 25.0; // 0..250
            let p = overlap_fraction(Point::ORIGIN, Point::new(d, 0.0), 250.0);
            assert!(
                p >= lower - 1e-9 && p <= 1.0,
                "d={d}: p={p} outside [{lower}, 1]"
            );
        }
    }

    #[test]
    fn postponement_always_at_least_one_round() {
        for i in 0..20 {
            let d = i as f64 * 30.0;
            let iv = postponement(
                dt(),
                Point::ORIGIN,
                Vector::new(3.0, 4.0),
                Point::new(d, 0.0),
                250.0,
            );
            assert!(iv >= dt());
            assert!(iv <= dt().mul_f64(E + 1e-9));
        }
    }
}
