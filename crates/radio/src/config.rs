//! Radio channel configuration.

use crate::contention::Contention;
use crate::loss::LossModel;
use ia_des::SimDuration;

/// Parameters of the broadcast channel.
#[derive(Debug, Clone, PartialEq)]
pub struct RadioConfig {
    /// Transmission range in metres. The paper uses 250 m (the standard
    /// NS-2 802.11 outdoor range).
    pub range: f64,
    /// Minimum per-receiver delivery delay (propagation + MAC access).
    pub delay_min: SimDuration,
    /// Maximum per-receiver delivery delay. Jitter is uniform in
    /// `[delay_min, delay_max]` and drawn independently per receiver,
    /// which also breaks event-ordering ties the way contention would.
    pub delay_max: SimDuration,
    /// Packet-loss model applied per (broadcast, receiver) pair.
    pub loss: LossModel,
    /// Maximum staleness tolerated for the neighbour-lookup grid before it
    /// is rebuilt. Candidate sets are widened by the distance the fleet's
    /// fastest node can cover in this window and then exact-checked, so
    /// this is purely a performance knob — results do not depend on it.
    pub grid_refresh: SimDuration,
    /// Channel bitrate, bits per second (sets frame airtime for the
    /// contention model). Default 1 Mb/s (802.11 basic rate).
    pub bitrate_bps: f64,
    /// Collision model (default: none, the paper-shape configuration).
    pub contention: Contention,
}

impl RadioConfig {
    /// The paper's channel: 250 m range, 1–10 ms delivery jitter, no loss.
    pub fn paper() -> Self {
        RadioConfig {
            range: 250.0,
            delay_min: SimDuration::from_millis(1),
            delay_max: SimDuration::from_millis(10),
            loss: LossModel::None,
            grid_refresh: SimDuration::from_secs(1.0),
            bitrate_bps: 1_000_000.0,
            contention: Contention::None,
        }
    }

    pub fn with_contention(mut self, contention: Contention) -> Self {
        self.contention = contention;
        self
    }

    pub fn with_range(mut self, range: f64) -> Self {
        assert!(range > 0.0, "non-positive range");
        self.range = range;
        self
    }

    pub fn with_loss(mut self, loss: LossModel) -> Self {
        self.loss = loss;
        self
    }

    /// Panics (naming the field) on a configuration [`crate::Medium::new`]
    /// cannot run.
    pub fn validate(&self) {
        assert!(self.range > 0.0, "non-positive range");
        // The spatial grid's cell size is the range.
        assert!(self.range.is_finite(), "non-finite range");
        assert!(self.delay_max >= self.delay_min, "delay_max < delay_min");
        assert!(self.bitrate_bps > 0.0, "non-positive bitrate");
    }
}

impl Default for RadioConfig {
    fn default() -> Self {
        RadioConfig::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let c = RadioConfig::paper();
        assert_eq!(c.range, 250.0);
        assert_eq!(c.loss, LossModel::None);
        assert!(c.delay_min <= c.delay_max);
    }

    #[test]
    fn contention_builder() {
        let c = RadioConfig::paper().with_contention(Contention::Aloha);
        assert_eq!(c.contention, Contention::Aloha);
        assert_eq!(RadioConfig::paper().contention, Contention::None);
    }

    #[test]
    fn builders_apply() {
        let c = RadioConfig::paper()
            .with_range(100.0)
            .with_loss(LossModel::Bernoulli(0.1));
        assert_eq!(c.range, 100.0);
        assert_eq!(c.loss, LossModel::Bernoulli(0.1));
    }

    #[test]
    #[should_panic(expected = "non-positive range")]
    fn zero_range_rejected() {
        let _ = RadioConfig::paper().with_range(0.0);
    }
}
