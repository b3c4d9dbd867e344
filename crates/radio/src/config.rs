//! Radio channel configuration.

use crate::contention::Contention;
use crate::loss::LossModel;
use ia_des::SimDuration;

/// Minimum per-receiver delivery delay (propagation + MAC access).
pub const DELAY_MIN: SimDuration = SimDuration::from_millis(1);

/// Maximum per-receiver delivery delay. Jitter is uniform in
/// `[DELAY_MIN, DELAY_MAX]` and drawn independently per receiver, which
/// also breaks event-ordering ties the way contention would.
pub const DELAY_MAX: SimDuration = SimDuration::from_millis(10);

/// Channel bitrate, bits per second (sets frame airtime for the
/// contention model): 1 Mb/s, the 802.11 basic rate.
pub const BITRATE_BPS: f64 = 1_000_000.0;

/// Parameters of the broadcast channel.
#[derive(Debug, Clone, PartialEq)]
pub struct RadioConfig {
    /// Transmission range in metres. The paper uses 250 m (the standard
    /// NS-2 802.11 outdoor range). The gossip protocols' formula (4)
    /// reads the same range.
    pub range: f64,
    /// Packet-loss model applied per (broadcast, receiver) pair.
    pub loss: LossModel,
    /// Collision model (default: none, the paper-shape configuration).
    pub contention: Contention,
}

impl RadioConfig {
    /// The paper's channel: 250 m range, 1–10 ms delivery jitter, no loss.
    pub fn paper() -> Self {
        RadioConfig {
            range: 250.0,
            loss: LossModel::None,
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

    /// Cell side of the medium's neighbour grid: the range, at least 1 m
    /// (the grid coarsens it over a wide spread of nodes).
    pub fn grid_cell(&self) -> f64 {
        self.range.max(1.0)
    }

    /// Panics (naming the field) on a configuration [`crate::Medium::new`]
    /// cannot run.
    pub fn validate(&self) {
        assert!(self.range > 0.0, "non-positive range");
        // The spatial grid's cell size is the range.
        assert!(self.range.is_finite(), "non-finite range");
        self.loss.validate();
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
        assert!(DELAY_MIN <= DELAY_MAX);
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
