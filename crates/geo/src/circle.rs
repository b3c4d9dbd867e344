//! Circles: advertising areas and radio transmission disks.
//!
//! Beyond the obvious containment predicates, this module implements the
//! *lens* (two-circle intersection) area. The paper's Optimized
//! Gossiping-2 rule needs the fraction `p` of a peer's transmission disk
//! that is covered by a neighbouring broadcaster's disk; for two disks of
//! equal radius `r` at distance `d <= r` that fraction ranges over
//! `[2/3 - sqrt(3)/(2*pi), 1]` — the interval quoted in the paper.

use crate::point::Point;

/// A circle (disk) with `center` and `radius` in metres.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Circle {
    pub center: Point,
    pub radius: f64,
}

impl Circle {
    pub fn new(center: Point, radius: f64) -> Self {
        debug_assert!(radius >= 0.0, "negative radius");
        Circle { center, radius }
    }

    /// Disk area.
    #[inline]
    pub fn area(&self) -> f64 {
        std::f64::consts::PI * self.radius * self.radius
    }

    /// True when `p` lies inside or on the circle.
    #[inline]
    pub fn contains(&self, p: Point) -> bool {
        self.center.distance_sq(p) <= self.radius * self.radius + crate::EPS
    }

    /// Area of the intersection (lens) of two disks.
    ///
    /// Handles the disjoint case (0), the nested case (area of the smaller
    /// disk), and the general lens via the standard circular-segment
    /// formula.
    pub fn lens_area(&self, other: &Circle) -> f64 {
        let d = self.center.distance(other.center);
        let (r1, r2) = (self.radius, other.radius);
        if d >= r1 + r2 {
            return 0.0;
        }
        let rmin = r1.min(r2);
        if d <= (r1 - r2).abs() {
            return std::f64::consts::PI * rmin * rmin;
        }
        // General case: sum of two circular segments. Equal radii give
        // the two half-angles bitwise-equal arguments, so one `acos`.
        let d2 = d * d;
        let r1_2 = r1 * r1;
        let r2_2 = r2 * r2;
        let alpha = ((d2 + r1_2 - r2_2) / (2.0 * d * r1))
            .clamp(-1.0, 1.0)
            .acos();
        let beta = if r1 == r2 {
            alpha
        } else {
            ((d2 + r2_2 - r1_2) / (2.0 * d * r2))
                .clamp(-1.0, 1.0)
                .acos()
        };
        let tri = 0.5
            * ((-d + r1 + r2) * (d + r1 - r2) * (d - r1 + r2) * (d + r1 + r2))
                .max(0.0)
                .sqrt();
        r1_2 * alpha + r2_2 * beta - tri
    }

    /// Fraction of *this* disk's area covered by `other`, in `[0, 1]`.
    ///
    /// This is the paper's `p` when both disks are transmission disks of
    /// the same radius: `p = |A ∩ B| / |B|` where `B` is the overhearing
    /// peer's disk.
    pub fn overlap_fraction(&self, other: &Circle) -> f64 {
        if self.radius <= 0.0 {
            // A degenerate (zero-radius) disk is entirely covered iff its
            // centre lies in the other disk.
            return if other.contains(self.center) {
                1.0
            } else {
                0.0
            };
        }
        (self.lens_area(other) / self.area()).clamp(0.0, 1.0)
    }
}

/// The largest radius at which [`Circle::lens_area`] of two equal disks
/// stays finite at every centre distance. Its first step to overflow is
/// the triangle term's radicand, which peaks at `4 r^4` (at `d = sqrt(2) r`),
/// so the bound is `(f64::MAX / 4)^(1/4)`, about 8.2e76.
pub fn max_lens_radius() -> f64 {
    (f64::MAX / 4.0).sqrt().sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn c(x: f64, y: f64, r: f64) -> Circle {
        Circle::new(Point::new(x, y), r)
    }

    #[test]
    fn contains_and_boundary() {
        let k = c(0.0, 0.0, 5.0);
        assert!(k.contains(Point::new(3.0, 4.0))); // on boundary
        assert!(k.contains(Point::new(1.0, 1.0)));
        assert!(!k.contains(Point::new(4.0, 4.0)));
    }

    #[test]
    fn disjoint_circles_have_zero_lens() {
        let a = c(0.0, 0.0, 1.0);
        let b = c(5.0, 0.0, 1.0);
        assert_eq!(a.lens_area(&b), 0.0);
        assert_eq!(a.overlap_fraction(&b), 0.0);
    }

    #[test]
    fn nested_circle_lens_is_smaller_disk() {
        let big = c(0.0, 0.0, 10.0);
        let small = c(1.0, 1.0, 2.0);
        assert!((big.lens_area(&small) - small.area()).abs() < 1e-9);
        assert!((small.overlap_fraction(&big) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn identical_circles_fully_overlap() {
        let a = c(2.0, 3.0, 4.0);
        assert!((a.lens_area(&a) - a.area()).abs() < 1e-9);
        assert!((a.overlap_fraction(&a) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn lens_is_symmetric() {
        let a = c(0.0, 0.0, 3.0);
        let b = c(2.5, 1.0, 2.0);
        assert!((a.lens_area(&b) - b.lens_area(&a)).abs() < 1e-9);
    }

    #[test]
    fn equal_radius_at_distance_r_matches_paper_bound() {
        // Two transmission disks of radius r whose centres are exactly r
        // apart: lens = (2*pi/3 - sqrt(3)/2) r^2.
        let r = 250.0;
        let a = c(0.0, 0.0, r);
        let b = c(r, 0.0, r);
        let expect = (2.0 * std::f64::consts::PI / 3.0 - 3.0_f64.sqrt() / 2.0) * r * r;
        assert!((a.lens_area(&b) - expect).abs() / expect < 1e-12);
        let frac = a.overlap_fraction(&b);
        let paper_bound = 2.0 / 3.0 - 3.0_f64.sqrt() / (2.0 * std::f64::consts::PI);
        assert!((frac - paper_bound).abs() < 1e-12);
        // ~0.391, as the paper states.
        assert!((frac - 0.391).abs() < 1e-3);
    }

    #[test]
    fn overlap_fraction_monotone_in_distance() {
        let r = 1.0;
        let a = c(0.0, 0.0, r);
        let mut last = 1.0 + 1e-12;
        for i in 0..=20 {
            let d = i as f64 * 0.1; // 0 .. 2r
            let b = c(d, 0.0, r);
            let f = a.overlap_fraction(&b);
            assert!(f <= last + 1e-12, "overlap not monotone at d={d}");
            last = f;
        }
        assert_eq!(last, 0.0);
    }

    #[test]
    fn tangent_circles_have_zero_lens() {
        let a = c(0.0, 0.0, 1.0);
        let b = c(2.0, 0.0, 1.0);
        assert!(a.lens_area(&b).abs() < 1e-9);
    }

    #[test]
    fn degenerate_zero_radius() {
        let pt_in = c(0.5, 0.0, 0.0);
        let pt_out = c(5.0, 0.0, 0.0);
        let k = c(0.0, 0.0, 1.0);
        assert_eq!(pt_in.overlap_fraction(&k), 1.0);
        assert_eq!(pt_out.overlap_fraction(&k), 0.0);
        assert_eq!(k.lens_area(&pt_in), 0.0);
    }

    #[test]
    fn lens_stays_finite_up_to_max_lens_radius() {
        let r = max_lens_radius();
        let a = c(0.0, 0.0, r);
        for k in 1..=400 {
            let b = c(r * k as f64 / 200.0, 0.0, r);
            let f = a.overlap_fraction(&b);
            assert!(
                a.lens_area(&b).is_finite() && (0.0..=1.0).contains(&f),
                "k={k}"
            );
        }
        // One step further the radicand overflows and the lens is lost.
        let r = r * 1.001;
        let b = c(r * std::f64::consts::SQRT_2, 0.0, r);
        assert!(!c(0.0, 0.0, r).lens_area(&b).is_finite());
    }

    #[test]
    fn half_overlap_sanity() {
        // d = 0.8086r gives roughly 50% overlap for equal radii (known
        // numeric value); just sanity-check we are in the right region.
        let a = c(0.0, 0.0, 1.0);
        let b = c(0.8086, 0.0, 1.0);
        let f = a.overlap_fraction(&b);
        assert!((f - 0.5).abs() < 0.01, "f={f}");
    }

    /// The general lens with both half-angles computed, as for unequal
    /// radii.
    fn two_acos_lens(a: &Circle, b: &Circle) -> f64 {
        let d = a.center.distance(b.center);
        let (r1, r2) = (a.radius, b.radius);
        let (d2, r1_2, r2_2) = (d * d, r1 * r1, r2 * r2);
        let alpha = ((d2 + r1_2 - r2_2) / (2.0 * d * r1))
            .clamp(-1.0, 1.0)
            .acos();
        let beta = ((d2 + r2_2 - r1_2) / (2.0 * d * r2))
            .clamp(-1.0, 1.0)
            .acos();
        let tri = 0.5
            * ((-d + r1 + r2) * (d + r1 - r2) * (d - r1 + r2) * (d + r1 + r2))
                .max(0.0)
                .sqrt();
        r1_2 * alpha + r2_2 * beta - tri
    }

    proptest! {
        /// Equal radii: the one-`acos` lens is bitwise the two-`acos`
        /// formula, for overlapping disks at any distance, radius up to
        /// `max_lens_radius` and centres up to 10¹² m out.
        #[test]
        fn equal_radius_lens_is_the_two_acos_formula(
            r in prop_oneof![1e-6..1.0f64, 1.0..1e4f64, 1e4..max_lens_radius()],
            frac in prop_oneof![1e-9..1e-3f64, 0.0..2.0f64, (2.0 - 1e-9)..2.0f64],
            (x, y) in prop_oneof![(-1e4..1e4f64, -1e4..1e4f64), (-1e12..1e12f64, -1e12..1e12f64)],
            theta in 0.0..std::f64::consts::TAU,
        ) {
            let a = c(x, y, r);
            let b = c(x + frac * r * theta.cos(), y + frac * r * theta.sin(), r);
            let d = a.center.distance(b.center);
            if d > 0.0 && d < 2.0 * r {
                let (one, two) = (a.lens_area(&b), two_acos_lens(&a, &b));
                prop_assert_eq!(one.to_bits(), two.to_bits(), "r {} d {}", r, d);
            }
        }
    }
}
