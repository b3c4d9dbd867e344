//! Formulas (1)–(3): forwarding probability and radius decay.
//!
//! The published formulas are OCR-damaged; the reconstructions below
//! satisfy every property the prose states (see `DESIGN.md §2`):
//!
//! * **Formula (1)** — `P(d)` decreases slowly while `d < R_t`, drops
//!   drastically near `R_t`, approaches 0 beyond it, and is continuous at
//!   the boundary (both branches give `1 - alpha`). Higher `alpha` means
//!   lower probability everywhere.
//! * **Formula (2)** — `R_t ≈ R` while `t ≪ D`, collapses as `t → D`,
//!   and is exactly 0 for `t >= D`.
//! * **Formula (3)** — only the annulus `[R - DIS, R]` keeps the high
//!   formula-(1) probability; the interior decays geometrically moving
//!   inward, continuously at `d = R - DIS`.
//!
//! Distances/ages are normalised by a unit scale (the protocols pass
//! [`crate::params::PROB_UNIT`] and [`crate::params::AGE_UNIT`]) so that
//! the exponent magnitudes match the paper's figures, which are drawn
//! with `R = 10` and `D = 5` *units*.

use ia_des::SimDuration;

/// Formula (1): forwarding probability at distance `d` (metres) from the
/// issuing location, with current advertising radius `r_t` (metres).
///
/// ```text
/// P(d) = 1 - alpha^((r_t - d)/unit + 1)                d <= r_t
/// P(d) = (1 - alpha) * alpha^((d - r_t)/outside_unit)  d >  r_t
/// ```
///
/// Two normalisation scales: the *inside* branch uses `unit`
/// (default R/10 = 100 m, reproducing the alpha-sensitivity of the
/// paper's Figures 2 and 10(a)), while the *outside* tail uses the much
/// smaller `outside_unit` (default 25 m) so that `P` "approximates to 0
/// when d is larger than R_t" in earnest — otherwise store-&-forward
/// carriers would seed the entire field over a 30-minute lifetime,
/// destroying the paper's "sparse distribution outside the advertising
/// area" premise. Both branches give `1 - alpha` at `d = r_t`, so the
/// function stays continuous.
///
/// Returns 0 when the advertising area has collapsed (`r_t <= 0`).
pub fn forwarding_probability(alpha: f64, d: f64, r_t: f64, unit: f64, outside_unit: f64) -> f64 {
    debug_assert!((0.0..1.0).contains(&alpha) && alpha > 0.0, "bad alpha");
    debug_assert!(unit > 0.0 && outside_unit > 0.0, "bad unit");
    debug_assert!(d >= 0.0, "negative distance");
    if r_t <= 0.0 {
        return 0.0;
    }
    if d <= r_t {
        1.0 - alpha.powf((r_t - d) / unit + 1.0)
    } else {
        (1.0 - alpha) * alpha.powf((d - r_t) / outside_unit)
    }
}

/// Formula (2): the advertising radius at age `age`, for an advertisement
/// issued with radius `r0` and duration `d0`.
///
/// ```text
/// R_t = (1 - beta^((d0 - age)/unit)) * r0   age <= d0
/// R_t = 0                                   age >  d0
/// ```
pub fn radius_at(beta: f64, r0: f64, age: SimDuration, d0: SimDuration, unit: SimDuration) -> f64 {
    debug_assert!((0.0..1.0).contains(&beta) && beta > 0.0, "bad beta");
    debug_assert!(!unit.is_zero(), "bad age unit");
    if age >= d0 {
        return 0.0;
    }
    let remaining = (d0 - age).as_secs() / unit.as_secs();
    (1.0 - beta.powf(remaining)) * r0
}

/// Formula (3): the Optimized Gossiping-1 probability. High probability is
/// confined to the annulus `[r - dis, r]`; the interior decays
/// geometrically inward.
///
/// ```text
/// P(d) = 1 - alpha^((r - d)/unit + 1)                           r - dis <= d <= r
/// P(d) = (1 - alpha) * alpha^((d - r)/unit)                     d > r
/// P(d) = (1 - alpha^(dis/unit + 1)) * alpha^((r - dis - d)/iu)  d < r - dis
/// ```
///
/// The interior branch decays with its own (smaller) unit `interior_unit`
/// (`iu`): the paper's formula, read with literal metre exponents,
/// suppresses interior gossip almost completely, and the Figure 10(c)
/// delivery-rate cliff at small `DIS` only exists when interior peers are
/// "released from frequent advertisement gossiping" in earnest. The
/// function is continuous at both branch boundaries for any `iu`.
pub fn annular_probability(
    alpha: f64,
    d: f64,
    r: f64,
    dis: f64,
    unit: f64,
    outside_unit: f64,
    interior_unit: f64,
) -> f64 {
    debug_assert!(dis >= 0.0, "negative DIS");
    debug_assert!(interior_unit > 0.0, "bad interior unit");
    if r <= 0.0 {
        return 0.0;
    }
    let inner = (r - dis).max(0.0);
    if d >= inner {
        // The annulus and the exterior reuse formula (1) with R_t = r.
        forwarding_probability(alpha, d, r, unit, outside_unit)
    } else {
        let rim = 1.0 - alpha.powf(dis / unit + 1.0);
        rim * alpha.powf((inner - d) / interior_unit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const UNIT: f64 = 100.0;
    const OUNIT: f64 = 25.0;
    const IUNIT: f64 = 25.0;

    #[test]
    fn formula1_boundary_continuity() {
        for &alpha in &[0.1, 0.5, 0.9] {
            let inside = forwarding_probability(alpha, 1000.0, 1000.0, UNIT, OUNIT);
            let outside = forwarding_probability(alpha, 1000.0 + 1e-9, 1000.0, UNIT, OUNIT);
            assert!(
                (inside - outside).abs() < 1e-6,
                "discontinuous at boundary for alpha={alpha}"
            );
            assert!((inside - (1.0 - alpha)).abs() < 1e-9);
        }
    }

    #[test]
    fn formula1_monotone_decreasing_in_distance() {
        for &alpha in &[0.1, 0.5, 0.9] {
            let mut last = 1.1;
            for i in 0..=40 {
                let d = i as f64 * 50.0;
                let p = forwarding_probability(alpha, d, 1000.0, UNIT, OUNIT);
                assert!(p <= last + 1e-12, "not monotone at d={d}, alpha={alpha}");
                assert!((0.0..=1.0).contains(&p));
                last = p;
            }
        }
    }

    #[test]
    fn formula1_higher_alpha_means_lower_probability_inside() {
        // "higher alpha leads to lower P" — within the advertising area.
        // (Outside, a higher alpha also means a slower tail decay, so the
        // ordering legitimately flips there.)
        for i in 0..=20 {
            let d = i as f64 * 50.0; // 0..=1000
            let lo = forwarding_probability(0.1, d, 1000.0, UNIT, OUNIT);
            let hi = forwarding_probability(0.9, d, 1000.0, UNIT, OUNIT);
            assert!(hi <= lo + 1e-12, "alpha ordering violated at d={d}");
        }
    }

    #[test]
    fn formula1_shape_dense_inside_sparse_outside() {
        let alpha = 0.5;
        // Near the issuing location: close to 1.
        assert!(forwarding_probability(alpha, 0.0, 1000.0, UNIT, OUNIT) > 0.999);
        // Deep inside: still high.
        assert!(forwarding_probability(alpha, 500.0, 1000.0, UNIT, OUNIT) > 0.98);
        // At the rim: 1 - alpha.
        assert!((forwarding_probability(alpha, 1000.0, 1000.0, UNIT, OUNIT) - 0.5).abs() < 1e-12);
        // Well outside: negligible.
        assert!(forwarding_probability(alpha, 1500.0, 1000.0, UNIT, OUNIT) < 0.02);
    }

    #[test]
    fn formula1_collapsed_area_gives_zero() {
        assert_eq!(forwarding_probability(0.5, 10.0, 0.0, UNIT, OUNIT), 0.0);
        assert_eq!(forwarding_probability(0.5, 10.0, -5.0, UNIT, OUNIT), 0.0);
    }

    #[test]
    fn formula2_stable_then_collapsing() {
        let d0 = SimDuration::from_secs(1800.0);
        let unit = SimDuration::from_secs(180.0);
        let r0 = 1000.0;
        // Fresh ad: nearly full radius.
        let fresh = radius_at(0.5, r0, SimDuration::ZERO, d0, unit);
        assert!(fresh > 0.999 * r0, "fresh radius {fresh}");
        // Half-life: still most of the radius.
        let mid = radius_at(0.5, r0, SimDuration::from_secs(900.0), d0, unit);
        assert!(mid > 0.95 * r0, "mid radius {mid}");
        // One unit before expiry: half the radius.
        let late = radius_at(0.5, r0, SimDuration::from_secs(1620.0), d0, unit);
        assert!((late - 0.5 * r0).abs() < 1e-6, "late radius {late}");
        // At and after expiry: zero.
        assert_eq!(radius_at(0.5, r0, d0, d0, unit), 0.0);
        assert_eq!(
            radius_at(0.5, r0, SimDuration::from_secs(2000.0), d0, unit),
            0.0
        );
    }

    #[test]
    fn formula2_monotone_decreasing_in_age() {
        let d0 = SimDuration::from_secs(1800.0);
        let unit = SimDuration::from_secs(180.0);
        let mut last = f64::INFINITY;
        for i in 0..=60 {
            let r = radius_at(
                0.5,
                1000.0,
                SimDuration::from_secs(i as f64 * 30.0),
                d0,
                unit,
            );
            assert!(r <= last + 1e-9);
            last = r;
        }
    }

    #[test]
    fn formula2_beta_has_mild_effect_early() {
        // "beta has negligible impact" (§IV-C) — early in the lifetime the
        // radius barely depends on beta.
        let d0 = SimDuration::from_secs(1800.0);
        let unit = SimDuration::from_secs(180.0);
        let age = SimDuration::from_secs(300.0);
        let r_low = radius_at(0.1, 1000.0, age, d0, unit);
        let r_high = radius_at(0.9, 1000.0, age, d0, unit);
        assert!((r_low - r_high).abs() < 0.45 * 1000.0);
        assert!(r_low >= r_high, "higher beta shrinks earlier");
    }

    #[test]
    fn formula3_continuity_at_inner_boundary() {
        let (alpha, r, dis) = (0.5, 1000.0, 250.0);
        let at = annular_probability(alpha, r - dis, r, dis, UNIT, OUNIT, IUNIT);
        let just_inside = annular_probability(alpha, r - dis - 1e-9, r, dis, UNIT, OUNIT, IUNIT);
        assert!((at - just_inside).abs() < 1e-6);
        // And it matches formula (1) on the annulus and outside.
        for &d in &[800.0, 900.0, 1000.0, 1100.0] {
            assert_eq!(
                annular_probability(alpha, d, r, dis, UNIT, OUNIT, IUNIT),
                forwarding_probability(alpha, d, r, UNIT, OUNIT)
            );
        }
    }

    #[test]
    fn formula3_interior_is_suppressed() {
        let (alpha, r, dis) = (0.5, 1000.0, 250.0);
        // Centre of the area: gossip probability must be tiny compared to
        // the annulus.
        let centre = annular_probability(alpha, 0.0, r, dis, UNIT, OUNIT, IUNIT);
        let annulus = annular_probability(alpha, 900.0, r, dis, UNIT, OUNIT, IUNIT);
        assert!(centre < 0.02, "centre {centre}");
        assert!(annulus >= 0.75, "annulus {annulus}");
    }

    #[test]
    fn formula3_interior_monotone_increasing_outward() {
        let (alpha, r, dis) = (0.5, 1000.0, 250.0);
        let mut last = -1.0;
        for i in 0..=15 {
            let d = i as f64 * 50.0; // 0..750
            let p = annular_probability(alpha, d, r, dis, UNIT, OUNIT, IUNIT);
            assert!(p >= last - 1e-12, "interior not monotone at d={d}");
            last = p;
        }
    }

    #[test]
    fn formula3_with_dis_equal_r_reduces_to_formula1() {
        let (alpha, r) = (0.5, 1000.0);
        for i in 0..=25 {
            let d = i as f64 * 50.0;
            assert!(
                (annular_probability(alpha, d, r, r, UNIT, OUNIT, IUNIT)
                    - forwarding_probability(alpha, d, r, UNIT, OUNIT))
                .abs()
                    < 1e-12,
                "DIS=R should restore pure gossiping at d={d}"
            );
        }
    }

    #[test]
    fn formula3_zero_dis_suppresses_almost_everything() {
        let p_centre = annular_probability(0.5, 0.0, 1000.0, 0.0, UNIT, OUNIT, IUNIT);
        assert!(p_centre < 0.01);
        // Rim keeps the formula-(1) boundary value.
        let p_rim = annular_probability(0.5, 1000.0, 1000.0, 0.0, UNIT, OUNIT, IUNIT);
        assert!((p_rim - 0.5).abs() < 1e-9);
    }

    #[test]
    fn formula3_collapsed_area_gives_zero() {
        assert_eq!(
            annular_probability(0.5, 10.0, 0.0, 250.0, UNIT, OUNIT, IUNIT),
            0.0
        );
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Formula (1) is always a probability and monotone in d.
        #[test]
        fn formula1_valid_probability(
            alpha in 0.01..0.99f64,
            d in 0.0..5000.0f64,
            r_t in 0.0..2000.0f64,
        ) {
            let p = forwarding_probability(alpha, d, r_t, 100.0, 25.0);
            prop_assert!((0.0..=1.0).contains(&p));
            let p2 = forwarding_probability(alpha, d + 10.0, r_t, 100.0, 25.0);
            prop_assert!(p2 <= p + 1e-12);
        }

        /// Formula (3) is always a probability, peaks in the annulus.
        #[test]
        fn formula3_valid_probability(
            alpha in 0.01..0.99f64,
            d in 0.0..5000.0f64,
            dis in 0.0..1000.0f64,
        ) {
            let r = 1000.0;
            let p = annular_probability(alpha, d, r, dis, 100.0, 25.0, 25.0);
            prop_assert!((0.0..=1.0).contains(&p));
            // Never exceeds the formula-(1) value at the same distance.
            let p1 = forwarding_probability(alpha, d, r, 100.0, 25.0);
            prop_assert!(p <= p1 + 1e-9);
        }

        /// Formula (2) stays within [0, r0] and hits 0 exactly at expiry.
        #[test]
        fn formula2_bounds(
            beta in 0.01..0.99f64,
            age_s in 0.0..4000.0f64,
            r0 in 1.0..5000.0f64,
        ) {
            let d0 = SimDuration::from_secs(1800.0);
            let unit = SimDuration::from_secs(180.0);
            let r = radius_at(beta, r0, SimDuration::from_secs(age_s), d0, unit);
            prop_assert!(r >= 0.0 && r <= r0);
            if age_s >= 1800.0 {
                prop_assert_eq!(r, 0.0);
            }
        }
    }
}
