//! Points and vectors in the simulation plane.
//!
//! Coordinates are metres. [`Point`] is an absolute position,
//! [`Vector`] a displacement; the usual affine conventions apply
//! (`Point - Point = Vector`, `Point + Vector = Point`).

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// An absolute position in the plane, in metres.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point {
    pub x: f64,
    pub y: f64,
}

/// A displacement (or velocity, in m/s) in the plane.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vector {
    pub x: f64,
    pub y: f64,
}

impl Point {
    pub const ORIGIN: Point = Point { x: 0.0, y: 0.0 };

    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// Euclidean distance to `other`.
    #[inline]
    pub fn distance(&self, other: Point) -> f64 {
        self.distance_sq(other).sqrt()
    }

    /// Squared Euclidean distance (avoids the square root when only
    /// comparisons are needed, e.g. range checks in the radio medium).
    #[inline]
    pub fn distance_sq(&self, other: Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }

    /// Linear interpolation: `t = 0` gives `self`, `t = 1` gives `other`.
    /// `t` outside `[0, 1]` extrapolates along the same line.
    #[inline]
    pub fn lerp(&self, other: Point, t: f64) -> Point {
        Point {
            x: self.x + (other.x - self.x) * t,
            y: self.y + (other.y - self.y) * t,
        }
    }

    /// Midpoint between `self` and `other`.
    #[inline]
    pub fn midpoint(&self, other: Point) -> Point {
        self.lerp(other, 0.5)
    }

    /// The displacement from `self` to `other`.
    #[inline]
    pub fn to(&self, other: Point) -> Vector {
        other - *self
    }

    /// True when both coordinates are finite.
    #[inline]
    pub fn is_finite(&self) -> bool {
        self.x.is_finite() && self.y.is_finite()
    }
}

impl Vector {
    pub const ZERO: Vector = Vector { x: 0.0, y: 0.0 };

    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Vector { x, y }
    }

    /// A unit vector at `theta` radians from the +x axis.
    #[inline]
    pub fn from_angle(theta: f64) -> Self {
        Vector {
            x: theta.cos(),
            y: theta.sin(),
        }
    }

    /// Euclidean norm (length).
    #[inline]
    pub fn norm(&self) -> f64 {
        self.norm_sq().sqrt()
    }

    #[inline]
    pub fn norm_sq(&self) -> f64 {
        self.x * self.x + self.y * self.y
    }

    /// Dot product.
    #[inline]
    pub fn dot(&self, other: Vector) -> f64 {
        self.x * other.x + self.y * other.y
    }

    /// 2-D cross product (z-component of the 3-D cross product).
    #[inline]
    pub fn cross(&self, other: Vector) -> f64 {
        self.x * other.y - self.y * other.x
    }

    /// Unit vector in the same direction, or `None` for the zero vector.
    pub fn unit(&self) -> Option<Vector> {
        let n = self.norm();
        if n < crate::EPS {
            None
        } else {
            Some(*self / n)
        }
    }

    /// Angle from the +x axis in `(-pi, pi]`.
    #[inline]
    pub fn angle(&self) -> f64 {
        self.y.atan2(self.x)
    }

    #[inline]
    pub fn is_finite(&self) -> bool {
        self.x.is_finite() && self.y.is_finite()
    }
}

impl Sub for Point {
    type Output = Vector;
    #[inline]
    fn sub(self, rhs: Point) -> Vector {
        Vector::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl Add<Vector> for Point {
    type Output = Point;
    #[inline]
    fn add(self, rhs: Vector) -> Point {
        Point::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl Sub<Vector> for Point {
    type Output = Point;
    #[inline]
    fn sub(self, rhs: Vector) -> Point {
        Point::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl AddAssign<Vector> for Point {
    #[inline]
    fn add_assign(&mut self, rhs: Vector) {
        self.x += rhs.x;
        self.y += rhs.y;
    }
}

impl SubAssign<Vector> for Point {
    #[inline]
    fn sub_assign(&mut self, rhs: Vector) {
        self.x -= rhs.x;
        self.y -= rhs.y;
    }
}

impl Add for Vector {
    type Output = Vector;
    #[inline]
    fn add(self, rhs: Vector) -> Vector {
        Vector::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl Sub for Vector {
    type Output = Vector;
    #[inline]
    fn sub(self, rhs: Vector) -> Vector {
        Vector::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl Mul<f64> for Vector {
    type Output = Vector;
    #[inline]
    fn mul(self, rhs: f64) -> Vector {
        Vector::new(self.x * rhs, self.y * rhs)
    }
}

impl Div<f64> for Vector {
    type Output = Vector;
    #[inline]
    fn div(self, rhs: f64) -> Vector {
        Vector::new(self.x / rhs, self.y / rhs)
    }
}

impl Neg for Vector {
    type Output = Vector;
    #[inline]
    fn neg(self) -> Vector {
        Vector::new(-self.x, -self.y)
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.2}, {:.2})", self.x, self.y)
    }
}

impl fmt::Display for Vector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<{:.2}, {:.2}>", self.x, self.y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_is_symmetric_and_zero_on_self() {
        let a = Point::new(1.0, 2.0);
        let b = Point::new(4.0, 6.0);
        assert_eq!(a.distance(b), 5.0);
        assert_eq!(b.distance(a), 5.0);
        assert_eq!(a.distance(a), 0.0);
    }

    #[test]
    fn distance_sq_matches_distance() {
        let a = Point::new(-3.0, 0.5);
        let b = Point::new(2.0, -1.5);
        assert!((a.distance_sq(b) - a.distance(b).powi(2)).abs() < 1e-12);
    }

    #[test]
    fn lerp_endpoints_and_midpoint() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(10.0, -4.0);
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        assert_eq!(a.midpoint(b), Point::new(5.0, -2.0));
    }

    #[test]
    fn lerp_extrapolates() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(1.0, 1.0);
        assert_eq!(a.lerp(b, 2.0), Point::new(2.0, 2.0));
    }

    #[test]
    fn affine_arithmetic_roundtrips() {
        let a = Point::new(3.0, 4.0);
        let v = Vector::new(-1.0, 2.5);
        assert_eq!((a + v) - a, v);
        assert_eq!((a + v) - v, a);
        let mut m = a;
        m += v;
        m -= v;
        assert_eq!(m, a);
    }

    #[test]
    fn vector_norm_and_unit() {
        let v = Vector::new(3.0, 4.0);
        assert_eq!(v.norm(), 5.0);
        let u = v.unit().unwrap();
        assert!((u.norm() - 1.0).abs() < 1e-12);
        assert!(Vector::ZERO.unit().is_none());
    }

    #[test]
    fn dot_and_cross_products() {
        let x = Vector::new(1.0, 0.0);
        let y = Vector::new(0.0, 1.0);
        assert_eq!(x.dot(y), 0.0);
        assert_eq!(x.cross(y), 1.0);
        assert_eq!(y.cross(x), -1.0);
    }

    #[test]
    fn from_angle_and_angle_roundtrip() {
        for k in 0..8 {
            let theta = -std::f64::consts::PI + (k as f64 + 0.5) * std::f64::consts::FRAC_PI_4;
            let v = Vector::from_angle(theta);
            assert!((v.angle() - theta).abs() < 1e-12, "theta={theta}");
            assert!((v.norm() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn display_formats() {
        assert_eq!(Point::new(1.0, 2.0).to_string(), "(1.00, 2.00)");
        assert_eq!(Vector::new(1.0, 2.0).to_string(), "<1.00, 2.00>");
    }
}
