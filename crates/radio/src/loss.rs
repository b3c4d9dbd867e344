//! Packet-loss models.

use ia_des::SimRng;

/// Per-(broadcast, receiver) loss model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LossModel {
    /// Perfect channel (the paper's evaluation setting).
    None,
    /// Independent loss with fixed probability.
    Bernoulli(f64),
    /// Distance-dependent loss: reliable up to `reliable_frac * range`,
    /// then the loss probability ramps linearly to 1.0 at `range` —
    /// a coarse stand-in for SNR falloff near the edge of coverage.
    DistanceRamp { reliable_frac: f64 },
}

impl LossModel {
    /// Panics (naming the field) on a probability or fraction outside
    /// `[0, 1]`, NaN included: [`Self::loss_probability`] would clamp it
    /// to total or no loss without a word.
    pub fn validate(&self) {
        let (name, value) = match *self {
            LossModel::None => return,
            LossModel::Bernoulli(p) => ("loss probability", p),
            LossModel::DistanceRamp { reliable_frac } => ("reliable_frac", reliable_frac),
        };
        assert!(
            (0.0..=1.0).contains(&value),
            "{name} = {value} outside [0, 1]"
        );
    }

    /// Probability that a frame sent over `distance` (with channel range
    /// `range`) is *lost*.
    pub fn loss_probability(&self, distance: f64, range: f64) -> f64 {
        match *self {
            LossModel::None => 0.0,
            LossModel::Bernoulli(p) => p.clamp(0.0, 1.0),
            LossModel::DistanceRamp { reliable_frac } => {
                let knee = reliable_frac.clamp(0.0, 1.0) * range;
                if distance <= knee {
                    0.0
                } else if distance >= range {
                    1.0
                } else {
                    (distance - knee) / (range - knee)
                }
            }
        }
    }

    /// Can this model drop a frame at all? Only [`LossModel::None`]
    /// cannot; its [`Self::drops`] draws nothing.
    pub(crate) fn can_drop(&self) -> bool {
        !matches!(self, LossModel::None)
    }

    /// Sample whether a frame is dropped.
    pub fn drops(&self, distance: f64, range: f64, rng: &mut SimRng) -> bool {
        rng.chance(self.loss_probability(distance, range))
    }
}

/// A Gilbert–Elliott two-state burst-loss channel.
///
/// The channel alternates between a *good* and a *bad* state following a
/// two-state Markov chain; each per-receiver sample first advances the
/// chain, then draws loss at the current state's rate. Unlike the
/// memoryless [`LossModel`]s, losses cluster into bursts — the channel
/// condition that gossip's store-&-forward redundancy is supposed to ride
/// out and that per-wave flooding cannot.
///
/// The chain's stationary distribution gives the closed-form average loss
/// rate ([`GilbertElliott::stationary_loss`]); the mean burst (bad-state
/// sojourn) length is `1 / p_exit_bad` samples.
#[derive(Debug, Clone, PartialEq)]
pub struct GilbertElliott {
    /// Per-sample transition probability good → bad.
    p_enter_bad: f64,
    /// Per-sample transition probability bad → good.
    p_exit_bad: f64,
    /// Loss probability while in the good state.
    loss_good: f64,
    /// Loss probability while in the bad state.
    loss_bad: f64,
    /// Current chain state.
    in_bad: bool,
}

impl GilbertElliott {
    /// Build a channel starting in the good state.
    pub fn new(p_enter_bad: f64, p_exit_bad: f64, loss_good: f64, loss_bad: f64) -> Self {
        for (name, p) in [
            ("p_enter_bad", p_enter_bad),
            ("p_exit_bad", p_exit_bad),
            ("loss_good", loss_good),
            ("loss_bad", loss_bad),
        ] {
            assert!((0.0..=1.0).contains(&p), "{name} = {p} outside [0, 1]");
        }
        assert!(
            p_enter_bad > 0.0 && p_exit_bad > 0.0,
            "degenerate chain: transition probabilities must be positive"
        );
        GilbertElliott {
            p_enter_bad,
            p_exit_bad,
            loss_good,
            loss_bad,
            in_bad: false,
        }
    }

    /// Stationary probability of being in the bad state.
    pub fn stationary_bad(&self) -> f64 {
        self.p_enter_bad / (self.p_enter_bad + self.p_exit_bad)
    }

    /// Closed-form long-run loss rate:
    /// `p_bad * loss_bad + p_good * loss_good`.
    pub fn stationary_loss(&self) -> f64 {
        let pb = self.stationary_bad();
        pb * self.loss_bad + (1.0 - pb) * self.loss_good
    }

    /// Is the chain currently in the bad state?
    pub fn in_bad(&self) -> bool {
        self.in_bad
    }

    /// Advance the chain one sample and draw whether that sample's frame
    /// is lost.
    pub fn drops(&mut self, rng: &mut SimRng) -> bool {
        let flip = if self.in_bad {
            self.p_exit_bad
        } else {
            self.p_enter_bad
        };
        if rng.chance(flip) {
            self.in_bad = !self.in_bad;
        }
        rng.chance(if self.in_bad {
            self.loss_bad
        } else {
            self.loss_good
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_never_drops() {
        let mut rng = SimRng::from_master(1);
        for _ in 0..100 {
            assert!(!LossModel::None.drops(100.0, 250.0, &mut rng));
        }
    }

    #[test]
    fn bernoulli_frequency() {
        let mut rng = SimRng::from_master(2);
        let m = LossModel::Bernoulli(0.25);
        let drops = (0..100_000)
            .filter(|_| m.drops(0.0, 250.0, &mut rng))
            .count();
        let f = drops as f64 / 100_000.0;
        assert!((f - 0.25).abs() < 0.01, "f={f}");
    }

    #[test]
    fn bernoulli_clamps() {
        assert_eq!(LossModel::Bernoulli(7.0).loss_probability(0.0, 1.0), 1.0);
        assert_eq!(LossModel::Bernoulli(-1.0).loss_probability(0.0, 1.0), 0.0);
    }

    #[test]
    fn distance_ramp_shape() {
        let m = LossModel::DistanceRamp { reliable_frac: 0.8 };
        let r = 250.0;
        assert_eq!(m.loss_probability(0.0, r), 0.0);
        assert_eq!(m.loss_probability(200.0, r), 0.0);
        assert!((m.loss_probability(225.0, r) - 0.5).abs() < 1e-12);
        assert_eq!(m.loss_probability(250.0, r), 1.0);
        assert_eq!(m.loss_probability(300.0, r), 1.0);
    }

    #[test]
    fn distance_ramp_monotone() {
        let m = LossModel::DistanceRamp { reliable_frac: 0.5 };
        let mut last = -1.0;
        for i in 0..=50 {
            let p = m.loss_probability(i as f64 * 5.0, 250.0);
            assert!(p >= last);
            last = p;
        }
    }

    /// Mean length of loss runs (consecutive dropped samples) in a
    /// sampled loss sequence.
    fn mean_loss_run(samples: &[bool]) -> f64 {
        let mut runs = 0u64;
        let mut lost = 0u64;
        let mut prev = false;
        for &s in samples {
            if s {
                lost += 1;
                if !prev {
                    runs += 1;
                }
            }
            prev = s;
        }
        if runs == 0 {
            0.0
        } else {
            lost as f64 / runs as f64
        }
    }

    #[test]
    fn gilbert_elliott_matches_closed_form_stationary_loss() {
        let mut ge = GilbertElliott::new(0.05, 0.20, 0.02, 0.70);
        let expected = ge.stationary_loss();
        // p_bad = 0.05/0.25 = 0.2; loss = 0.2*0.7 + 0.8*0.02 = 0.156.
        assert!((expected - 0.156).abs() < 1e-12);
        let mut rng = SimRng::from_master(42);
        let n = 400_000;
        let lost = (0..n).filter(|_| ge.drops(&mut rng)).count();
        let observed = lost as f64 / n as f64;
        assert!(
            (observed - expected).abs() < 0.005,
            "observed {observed} vs closed-form {expected}"
        );
    }

    #[test]
    fn gilbert_elliott_is_burstier_than_iid_at_equal_average_loss() {
        let mut ge = GilbertElliott::new(0.02, 0.10, 0.0, 0.9);
        let p = ge.stationary_loss();
        let mut rng = SimRng::from_master(7);
        let n = 200_000;
        let ge_seq: Vec<bool> = (0..n).map(|_| ge.drops(&mut rng)).collect();
        let iid = LossModel::Bernoulli(p);
        let iid_seq: Vec<bool> = (0..n).map(|_| iid.drops(0.0, 250.0, &mut rng)).collect();
        // Equal average loss (sanity)...
        let ge_rate = ge_seq.iter().filter(|&&s| s).count() as f64 / n as f64;
        let iid_rate = iid_seq.iter().filter(|&&s| s).count() as f64 / n as f64;
        assert!((ge_rate - iid_rate).abs() < 0.01, "{ge_rate} vs {iid_rate}");
        // ...but clustered drops: mean loss-run length well above i.i.d.
        let ge_burst = mean_loss_run(&ge_seq);
        let iid_burst = mean_loss_run(&iid_seq);
        assert!(
            ge_burst > 2.0 * iid_burst,
            "GE burst {ge_burst} vs iid {iid_burst}"
        );
    }

    #[test]
    fn gilbert_elliott_chain_visits_both_states() {
        let mut ge = GilbertElliott::new(0.1, 0.1, 0.0, 1.0);
        assert!(!ge.in_bad());
        let mut rng = SimRng::from_master(3);
        let mut saw_bad = false;
        let mut saw_good = false;
        for _ in 0..1000 {
            ge.drops(&mut rng);
            saw_bad |= ge.in_bad();
            saw_good |= !ge.in_bad();
        }
        assert!(saw_bad && saw_good);
    }

    #[test]
    fn gilbert_elliott_is_deterministic_per_stream() {
        let mk = || {
            let mut ge = GilbertElliott::new(0.05, 0.2, 0.0, 0.8);
            let mut rng = SimRng::from_master(11);
            (0..500).map(|_| ge.drops(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn gilbert_elliott_rejects_bad_probability() {
        let _ = GilbertElliott::new(0.5, 0.5, 0.0, 1.5);
    }

    #[test]
    #[should_panic(expected = "degenerate chain")]
    fn gilbert_elliott_rejects_absorbing_state() {
        let _ = GilbertElliott::new(0.0, 0.5, 0.0, 1.0);
    }
}
