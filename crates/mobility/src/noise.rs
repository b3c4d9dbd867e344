//! GPS positioning noise (extension).
//!
//! The paper assumes peers know their position via GPS. Real receivers
//! have metre-scale error; this wrapper perturbs sampled positions with
//! isotropic Gaussian noise so robustness experiments can check that the
//! distance-based probability functions tolerate realistic positioning
//! error. Noise is a *view* applied at sampling time — the underlying
//! ground-truth trajectory (used by delivery metrics) stays exact.
//!
//! A fix is a keyed draw ([`ia_des::rng::keyed_unit`]): a pure function
//! of the receiver's key and the instant, so the fix a peer gets at `t`
//! is known ahead and does not depend on any other draw.

use ia_des::{rng::keyed_unit, SimTime};
use ia_geo::{Point, Vector};

/// Isotropic Gaussian position noise with standard deviation
/// `sigma` metres per axis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpsNoise {
    pub sigma: f64,
}

impl GpsNoise {
    pub fn new(sigma: f64) -> Self {
        assert!(sigma >= 0.0 && sigma.is_finite(), "invalid sigma {sigma}");
        GpsNoise { sigma }
    }

    /// No noise (ground truth).
    pub fn none() -> Self {
        GpsNoise { sigma: 0.0 }
    }

    /// A standard-normal pair via Box–Muller from two keyed uniforms.
    fn standard_normal_pair(key: u64, t: SimTime) -> (f64, f64) {
        // Guard u1 away from 0 to keep ln finite.
        let u1 = keyed_unit(key, 0, t.as_micros()).max(1e-300);
        let u2 = keyed_unit(key, 1, t.as_micros());
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        (r * theta.cos(), r * theta.sin())
    }

    /// Perturb a true position into the fix a receiver keyed `key` reads
    /// at `t`; the same `(key, t)` always gives the same fix.
    pub fn apply(&self, truth: Point, key: u64, t: SimTime) -> Point {
        if self.sigma == 0.0 {
            return truth;
        }
        let (nx, ny) = Self::standard_normal_pair(key, t);
        truth + Vector::new(nx * self.sigma, ny * self.sigma)
    }
}

/// A time-windowed GPS degradation ramp (fault injection).
///
/// Outside `[from, until)` the ramp contributes no noise. Inside it the
/// per-axis standard deviation rises linearly from 0 at `from` to
/// `sigma_peak` at the window midpoint and falls back to 0 at `until` —
/// a triangular profile that models a receiver drifting through an urban
/// canyon or a slow ionospheric disturbance rather than a step change.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseRamp {
    pub from: SimTime,
    pub until: SimTime,
    pub sigma_peak: f64,
}

impl NoiseRamp {
    pub fn new(from: SimTime, until: SimTime, sigma_peak: f64) -> Self {
        let ramp = NoiseRamp {
            from,
            until,
            sigma_peak,
        };
        ramp.validate();
        ramp
    }

    /// Panic unless the window is non-empty and the peak is finite and
    /// non-negative. The fields are public, so a ramp built without
    /// [`NoiseRamp::new`] is checked here.
    pub fn validate(&self) {
        assert!(self.until > self.from, "empty ramp window");
        assert!(
            self.sigma_peak >= 0.0 && self.sigma_peak.is_finite(),
            "invalid sigma_peak {}",
            self.sigma_peak
        );
    }

    /// The ramp's noise level at `t` (0 outside the window).
    pub fn sigma_at(&self, t: SimTime) -> f64 {
        if t < self.from || t >= self.until {
            return 0.0;
        }
        let span = self.until.since(self.from).as_secs();
        let x = t.since(self.from).as_secs() / span; // in [0, 1)
        let tri = 1.0 - (2.0 * x - 1.0).abs(); // 0 → 1 → 0
        self.sigma_peak * tri
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_sigma_is_identity() {
        let p = Point::new(10.0, 20.0);
        assert_eq!(GpsNoise::none().apply(p, 1, SimTime::from_secs(3.0)), p);
    }

    #[test]
    fn noise_statistics_match_sigma() {
        let noise = GpsNoise::new(5.0);
        let p = Point::ORIGIN;
        let n = 20_000;
        let mut sum = Vector::ZERO;
        let mut sum_sq = 0.0;
        for k in 0..n {
            let q = noise.apply(p, 2, SimTime::from_micros(k * 1_000));
            let d = q - p;
            sum = sum + d;
            sum_sq += d.x * d.x; // per-axis variance check on x
        }
        let mean = sum / n as f64;
        assert!(mean.norm() < 0.2, "bias {mean}");
        let var = sum_sq / n as f64;
        assert!((var.sqrt() - 5.0).abs() < 0.2, "std {}", var.sqrt());
    }

    #[test]
    fn a_fix_is_a_function_of_key_and_instant() {
        let noise = GpsNoise::new(3.0);
        let p = Point::new(1.0, 1.0);
        let t = SimTime::from_secs(7.0);
        assert_eq!(noise.apply(p, 9, t), noise.apply(p, 9, t));
        assert_ne!(noise.apply(p, 9, t), noise.apply(p, 10, t));
        assert_ne!(
            noise.apply(p, 9, t),
            noise.apply(p, 9, SimTime::from_secs(7.5))
        );
    }

    #[test]
    #[should_panic(expected = "invalid sigma")]
    fn negative_sigma_rejected() {
        let _ = GpsNoise::new(-1.0);
    }

    #[test]
    fn ramp_is_triangular_and_zero_outside_window() {
        let ramp = NoiseRamp::new(SimTime::from_secs(100.0), SimTime::from_secs(200.0), 8.0);
        assert_eq!(ramp.sigma_at(SimTime::from_secs(50.0)), 0.0);
        assert_eq!(ramp.sigma_at(SimTime::from_secs(100.0)), 0.0);
        assert!((ramp.sigma_at(SimTime::from_secs(125.0)) - 4.0).abs() < 1e-9);
        assert!((ramp.sigma_at(SimTime::from_secs(150.0)) - 8.0).abs() < 1e-9);
        assert!((ramp.sigma_at(SimTime::from_secs(175.0)) - 4.0).abs() < 1e-9);
        assert_eq!(ramp.sigma_at(SimTime::from_secs(200.0)), 0.0);
        assert_eq!(ramp.sigma_at(SimTime::from_secs(999.0)), 0.0);
    }

    #[test]
    #[should_panic(expected = "empty ramp window")]
    fn ramp_rejects_empty_window() {
        let _ = NoiseRamp::new(SimTime::from_secs(5.0), SimTime::from_secs(5.0), 1.0);
    }
}
