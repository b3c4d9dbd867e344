//! Protocol tuning parameters (Table I / Table II of the paper).

use ia_des::SimDuration;
use ia_sketch::FmBundle;
use std::ops::Deref;
use std::sync::Arc;

/// Distance normalisation unit for the exponents in formulas (1) and
/// (3), metres. The paper's Figure 2 is drawn with `R = 10` units; we
/// use `R / 10 = 100 m` per unit so the published probability shapes
/// are reproduced at field scale (see DESIGN.md §2).
pub const PROB_UNIT: f64 = 100.0;

/// Decay unit for the *outside* tail of formulas (1) and (3), metres.
/// Small (25 m) so the forwarding probability "approximates to 0"
/// beyond the advertising area, keeping the distribution outside
/// genuinely sparse.
pub const OUTSIDE_UNIT: f64 = 25.0;

/// Decay unit for the *interior* branch of formula (3), metres. The
/// paper's formula, read with literal metre exponents, suppresses
/// interior gossip almost completely; a small unit (25 m) realises that
/// while keeping the function continuous.
pub const INTERIOR_UNIT: f64 = 25.0;

/// Age normalisation unit for formula (2). Unlike [`PROB_UNIT`], this
/// must be *small* relative to `D`: the paper reports that beta has
/// negligible impact on the end-to-end metrics (§IV-C), which holds only
/// if `R_t ≈ R` for almost the whole lifetime and the collapse is
/// confined to the last few rounds. One paper round time (5 s) confines
/// even the beta = 0.9 collapse to the final ~30 s of an 1800 s
/// lifetime. It stays 5 s when a run changes its round time.
pub const AGE_UNIT: SimDuration = SimDuration::from_millis(5_000);

/// Optimized Gossiping-1 suppresses interior gossiping only after this
/// warm-up age; "except for the first time that an advertisement spreads
/// from the issuing location outwards" (§III-D). The time for the ad to
/// traverse the paper's area hop by hop, with 2x margin
/// (`2 * ceil(R / range) * round_time = 40 s` at `R = 1000 m`, a 250 m
/// range and 5 s rounds). It stays 40 s when a run changes any of them.
pub const OPT1_WARMUP: SimDuration = SimDuration::from_millis(40_000);

/// Popularity enlargement fraction (formula 7): each rank increase adds
/// `ENLARGE_FRAC * R0 / log2(rank + 1)` to `R` (and likewise for `D`).
/// The paper's worked example uses 0.1.
pub const ENLARGE_FRAC: f64 = 0.1;

/// Hard cap on enlargement, as a multiple of the initial value — "these
/// two parameters can not be increased infinitely" (§III-E).
pub const MAX_ENLARGE_FACTOR: f64 = 2.0;

/// Everything the gossiping protocols are tuned by.
///
/// Defaults come from the paper's Table II (see `DESIGN.md §3` for the
/// OCR reconstruction): `alpha = beta = 0.5`, round time 5 s,
/// `DIS = R/4 = 250 m`, cache `k = 10`. The transmission range is the
/// radio's; the values no experiment varies are the constants above.
#[derive(Debug, Clone, PartialEq)]
pub struct GossipParams {
    /// Formula (1)/(3) decay parameter, in `(0, 1)`. Higher alpha means
    /// lower forwarding probability (faster spatial drop).
    pub alpha: f64,
    /// Formula (2) radius-decay parameter, in `(0, 1)`.
    pub beta: f64,
    /// Gossiping round time (the paper's `t`, 5 s).
    pub round_time: SimDuration,
    /// Width of the Optimized Gossiping-1 annulus (metres). The paper
    /// derives it from `DIS = V_max * round_time` and then widens it to
    /// `R / 4` as a robustness trade-off.
    pub dis: f64,
    /// Cache capacity `k`: ads kept per peer, sorted by probability.
    pub cache_capacity: usize,
    /// FM sketch bundle shape: `sketch_f` sketches of `sketch_l` bits.
    /// Default 16x16 = 256 bits, the paper's example budget, which is
    /// also the cap: `sketch_f · sketch_l ≤ 256`, `sketch_l` in `1..=56`
    /// and `sketch_f` in `1..=255` ([`FmBundle::fits`]). Each ad carries
    /// its sketches inline in those 256 bits.
    pub sketch_f: usize,
    pub sketch_l: u8,
    /// Shared hash-family seed (a deployment-wide protocol constant).
    pub sketch_seed: u64,
}

impl GossipParams {
    /// Table II defaults for the paper's scenario
    /// (`R = 1000 m`, `D = 1800 s`).
    pub fn paper() -> Self {
        GossipParams {
            alpha: 0.5,
            beta: 0.5,
            round_time: SimDuration::from_secs(5.0),
            dis: 250.0,
            cache_capacity: 10,
            sketch_f: 16,
            sketch_l: 16,
            sketch_seed: 0x1ADC_0DE5_EED0_u64,
        }
    }

    pub fn with_alpha(mut self, alpha: f64) -> Self {
        self.alpha = alpha;
        self
    }

    pub fn with_beta(mut self, beta: f64) -> Self {
        self.beta = beta;
        self
    }

    pub fn with_round_time(mut self, t: SimDuration) -> Self {
        self.round_time = t;
        self
    }

    pub fn with_dis(mut self, dis: f64) -> Self {
        self.dis = dis;
        self
    }

    pub fn with_cache_capacity(mut self, k: usize) -> Self {
        self.cache_capacity = k;
        self
    }

    /// Panic on out-of-range values; called by protocol constructors.
    pub fn validate(&self) {
        assert!(
            self.alpha > 0.0 && self.alpha < 1.0,
            "alpha must be in (0,1), got {}",
            self.alpha
        );
        assert!(
            self.beta > 0.0 && self.beta < 1.0,
            "beta must be in (0,1), got {}",
            self.beta
        );
        assert!(!self.round_time.is_zero(), "round_time must be positive");
        assert!(self.dis >= 0.0, "DIS must be non-negative");
        assert!(self.cache_capacity >= 1, "cache capacity must be >= 1");
        assert!(
            FmBundle::fits(self.sketch_f, self.sketch_l),
            "FM sketch shape {} x {} must have 1..=56-bit sketches, at most 255 of them, \
             in at most 256 bits",
            self.sketch_f,
            self.sketch_l
        );
    }
}

impl Default for GossipParams {
    fn default() -> Self {
        GossipParams::paper()
    }
}

/// A run's [`GossipParams`] as every peer of the run shares them, in one
/// [`Arc`] ([`GossipParams::shared`]), with the logarithms the gossip
/// look-ahead compares its coins against, computed once per run:
/// `ln alpha`, `ln(1 - alpha)` (formula (1)'s outside factor) and
/// `ln(1 - alpha^(DIS/PROB_UNIT + 1))` (formula (3)'s interior factor).
/// It dereferences to the parameters.
#[derive(Debug)]
pub struct SharedParams {
    params: GossipParams,
    pub(crate) ln_alpha: f64,
    pub(crate) ln_tail: f64,
    pub(crate) ln_rim: f64,
}

impl GossipParams {
    /// The parameters as every peer of one run shares them.
    pub fn shared(self) -> Arc<SharedParams> {
        let alpha = self.alpha;
        Arc::new(SharedParams {
            ln_alpha: alpha.ln(),
            ln_tail: (1.0 - alpha).ln(),
            ln_rim: (1.0 - alpha.powf(self.dis / PROB_UNIT + 1.0)).ln(),
            params: self,
        })
    }
}

impl Deref for SharedParams {
    type Target = GossipParams;

    fn deref(&self) -> &GossipParams {
        &self.params
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_validate() {
        let p = GossipParams::paper();
        p.validate();
        assert_eq!(p.alpha, 0.5);
        assert_eq!(p.beta, 0.5);
        assert_eq!(p.round_time, SimDuration::from_secs(5.0));
        assert_eq!(p.dis, 250.0);
        assert_eq!(p.cache_capacity, 10);
        assert_eq!(p.sketch_f * p.sketch_l as usize, 256);
        assert_eq!(AGE_UNIT, SimDuration::from_secs(5.0));
        assert_eq!(OPT1_WARMUP, SimDuration::from_secs(40.0));
    }

    #[test]
    fn builders_apply() {
        let p = GossipParams::paper()
            .with_alpha(0.9)
            .with_beta(0.1)
            .with_dis(100.0)
            .with_round_time(SimDuration::from_secs(2.0))
            .with_cache_capacity(5);
        p.validate();
        assert_eq!(p.alpha, 0.9);
        assert_eq!(p.beta, 0.1);
        assert_eq!(p.dis, 100.0);
        assert_eq!(p.round_time, SimDuration::from_secs(2.0));
        assert_eq!(p.cache_capacity, 5);
    }

    #[test]
    #[should_panic(expected = "alpha must be in (0,1)")]
    fn alpha_one_rejected() {
        GossipParams::paper().with_alpha(1.0).validate();
    }

    #[test]
    #[should_panic(expected = "cache capacity")]
    fn zero_cache_rejected() {
        GossipParams::paper().with_cache_capacity(0).validate();
    }

    /// Every shape within the 256-bit cap validates; one more sketch, or
    /// a sketch over 56 bits, does not.
    #[test]
    fn sketch_shapes_within_the_cap_validate() {
        let shaped = |f, l| GossipParams {
            sketch_f: f,
            sketch_l: l,
            ..GossipParams::paper()
        };
        for l in 1..=56u8 {
            let most = (256 / l as usize).min(255);
            for f in [1, most] {
                shaped(f, l).validate();
            }
            let over = std::panic::catch_unwind(|| shaped(most + 1, l).validate());
            assert!(over.is_err(), "{} x {l} validated", most + 1);
        }
        for (f, l) in [(0, 16), (1, 0), (1, 57), (4, 64)] {
            assert!(std::panic::catch_unwind(|| shaped(f, l).validate()).is_err());
        }
    }
}
