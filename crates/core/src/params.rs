//! Protocol tuning parameters (Table I / Table II of the paper).

use ia_des::SimDuration;

/// Everything the gossiping protocols are tuned by.
///
/// Defaults come from the paper's Table II (see `DESIGN.md §3` for the
/// OCR reconstruction): `alpha = beta = 0.5`, round time 5 s,
/// `DIS = R/4 = 250 m`, cache `k = 10`, transmission range 250 m.
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
    /// Distance normalisation unit for the exponents in formulas (1) and
    /// (3), metres. The paper's Figure 2 is drawn with `R = 10` units; we
    /// default to `R / 10 = 100 m` per unit so the published probability
    /// shapes are reproduced at field scale (see DESIGN.md §2).
    pub prob_unit: f64,
    /// Decay unit for the *outside* tail of formulas (1) and (3),
    /// metres. Small (default 25 m) so the forwarding probability
    /// "approximates to 0" beyond the advertising area, keeping the
    /// distribution outside genuinely sparse.
    pub outside_unit: f64,
    /// Decay unit for the *interior* branch of formula (3), metres. The
    /// paper's formula, read with literal metre exponents, suppresses
    /// interior gossip almost completely; a small unit (default 25 m)
    /// realises that while keeping the function continuous.
    pub interior_unit: f64,
    /// Age normalisation unit for formula (2). Unlike `prob_unit`, this
    /// must be *small* relative to `D`: the paper reports that beta has
    /// negligible impact on the end-to-end metrics (§IV-C), which holds
    /// only if `R_t ≈ R` for almost the whole lifetime and the collapse
    /// is confined to the last few rounds. Default: one round time (5 s),
    /// confining even the beta = 0.9 collapse to the final ~30 s of an
    /// 1800 s lifetime.
    pub age_unit: SimDuration,
    /// Radio transmission range, metres — needed by Optimized Gossiping-2
    /// to compute the transmission-area overlap fraction `p`.
    pub tx_range: f64,
    /// Optimized Gossiping-1 suppresses interior gossiping only after this
    /// warm-up age; "except for the first time that an advertisement
    /// spreads from the issuing location outwards" (§III-D). Default: the
    /// time for the ad to traverse the area hop by hop, with 2x margin
    /// (`2 * ceil(R / tx_range) * round_time = 40 s`).
    pub opt1_warmup: SimDuration,
    /// Popularity enlargement fraction (formula 7): each rank increase
    /// adds `enlarge_frac * R0 / log2(rank + 1)` to `R` (and likewise for
    /// `D`). The paper's worked example uses 0.1.
    pub enlarge_frac: f64,
    /// Hard cap on enlargement, as a multiple of the initial value —
    /// "these two parameters can not be increased infinitely" (§III-E).
    pub max_enlarge_factor: f64,
    /// FM sketch bundle shape: `sketch_f` sketches of `sketch_l` bits.
    /// Default 16x16 = 256 bits, the paper's example budget.
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
            prob_unit: 100.0,
            outside_unit: 25.0,
            interior_unit: 25.0,
            age_unit: SimDuration::from_secs(5.0),
            tx_range: 250.0,
            opt1_warmup: SimDuration::from_secs(40.0),
            enlarge_frac: 0.1,
            max_enlarge_factor: 2.0,
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
        assert!(self.prob_unit > 0.0, "prob_unit must be positive");
        assert!(self.outside_unit > 0.0, "outside_unit must be positive");
        assert!(self.interior_unit > 0.0, "interior_unit must be positive");
        assert!(!self.age_unit.is_zero(), "age_unit must be positive");
        assert!(self.tx_range > 0.0, "tx_range must be positive");
        // Formula (4) takes the lens of two transmission disks.
        assert!(
            self.tx_range <= ia_geo::circle::max_lens_radius(),
            "tx_range too large for formula (4)"
        );
        assert!(
            self.enlarge_frac >= 0.0,
            "enlarge_frac must be non-negative"
        );
        assert!(
            self.max_enlarge_factor >= 1.0,
            "max_enlarge_factor must be >= 1"
        );
        assert!(self.sketch_f > 0 && (1..=64).contains(&self.sketch_l));
    }
}

impl Default for GossipParams {
    fn default() -> Self {
        GossipParams::paper()
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
}
