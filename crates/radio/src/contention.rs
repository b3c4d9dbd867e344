//! Channel contention (collision) modelling.
//!
//! The paper rides on NS-2's 802.11 stack, where simultaneous
//! transmissions near a receiver corrupt each other — the *broadcast
//! storm* problem that makes naive flooding expensive in dense networks.
//! The default unit-disk medium ignores contention; this module adds an
//! ALOHA-style collision model:
//!
//! * every frame occupies the air for `airtime = bytes * 8 / bitrate`;
//! * a frame is lost at a receiver if another transmission audible at
//!   that receiver started within `±airtime` of this frame's start.
//!
//! Approximation note: collisions are evaluated against transmissions
//! *already sent* when a frame goes out (the earlier frame of an
//! overlapping pair is delivered, the later lost). A full 802.11
//! capture/corruption model would kill both; in aggregate the loss rates
//! differ by at most 2x, which does not change any protocol ranking —
//! flooding's relays cluster within milliseconds of each wave while
//! gossip rounds spread over seconds, so contention punishes flooding
//! regardless. The approximation keeps the simulator single-pass (no
//! retro-cancellation of scheduled deliveries).

use crate::config::BITRATE_BPS;
use ia_des::{SimDuration, SimTime};
use ia_geo::Point;

/// Which contention model the medium applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Contention {
    /// No contention (the paper-shape default).
    #[default]
    None,
    /// ALOHA-style overlap collisions as described in the module docs.
    Aloha,
}

/// Sliding log of recent transmissions for overlap queries.
#[derive(Debug, Clone, Default)]
pub struct TxLog {
    entries: Vec<(SimTime, Point)>,
}

/// How long entries are retained (generous upper bound on airtime).
const RETENTION: SimDuration = SimDuration::from_millis(100);

impl TxLog {
    pub fn new() -> Self {
        TxLog::default()
    }

    /// Record a transmission starting at `t` from `pos`.
    pub fn record(&mut self, t: SimTime, pos: Point) {
        self.entries.push((t, pos));
    }

    /// Drop entries older than the retention window.
    pub fn prune(&mut self, now: SimTime) {
        self.entries.retain(|&(t, _)| now.since(t) <= RETENTION);
    }

    /// Does a transmission other than the one from `sender_pos` at `now`
    /// collide at a receiver located at `rx_pos`? True when any logged
    /// transmission within `airtime` of `now` is audible at `rx_pos`
    /// (within `range`).
    pub fn collides(
        &self,
        now: SimTime,
        sender_pos: Point,
        rx_pos: Point,
        range: f64,
        airtime: SimDuration,
    ) -> bool {
        self.entries.iter().any(|&(t, p)| {
            p != sender_pos
                && now.since(t) <= airtime
                && t.since(now) <= airtime
                && p.distance(rx_pos) <= range
        })
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Airtime of a frame of `bytes` at the channel's [`BITRATE_BPS`].
pub fn airtime(bytes: usize) -> SimDuration {
    SimDuration::from_secs(bytes as f64 * 8.0 / BITRATE_BPS)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn airtime_math() {
        // 250 bytes at 1 Mb/s = 2 ms.
        assert_eq!(airtime(250), SimDuration::from_millis(2));
        assert_eq!(airtime(0), SimDuration::ZERO);
    }

    #[test]
    fn overlapping_nearby_transmission_collides() {
        let mut log = TxLog::new();
        log.record(t(100), Point::new(0.0, 0.0));
        let a = airtime(250);
        // A second sender 400 m away transmits 1 ms later; a receiver
        // between them hears both -> collision.
        let rx = Point::new(200.0, 0.0);
        assert!(log.collides(t(101), Point::new(400.0, 0.0), rx, 250.0, a));
    }

    #[test]
    fn non_overlapping_times_do_not_collide() {
        let mut log = TxLog::new();
        log.record(t(100), Point::new(0.0, 0.0));
        let a = airtime(250);
        let rx = Point::new(200.0, 0.0);
        // 5 ms later: the first frame is long gone.
        assert!(!log.collides(t(105), Point::new(400.0, 0.0), rx, 250.0, a));
    }

    #[test]
    fn distant_transmission_does_not_collide() {
        let mut log = TxLog::new();
        log.record(t(100), Point::new(5000.0, 5000.0));
        let a = airtime(250);
        let rx = Point::new(200.0, 0.0);
        assert!(!log.collides(t(100), Point::new(400.0, 0.0), rx, 250.0, a));
    }

    #[test]
    fn own_transmission_is_not_a_collision() {
        let mut log = TxLog::new();
        let me = Point::new(0.0, 0.0);
        log.record(t(100), me);
        let a = airtime(250);
        assert!(!log.collides(t(100), me, Point::new(100.0, 0.0), 250.0, a));
    }

    #[test]
    fn prune_discards_old_entries() {
        let mut log = TxLog::new();
        log.record(t(0), Point::ORIGIN);
        log.record(t(450), Point::ORIGIN);
        log.prune(t(500));
        assert_eq!(log.len(), 1);
        assert!(!log.is_empty());
    }
}
