//! The paper's metrics (§IV):
//!
//! * **Delivery Rate** — "the percentage of mobile peers that receive the
//!   advertisement successfully while passing through the corresponding
//!   advertising area".
//! * **Delivery Time** — "the duration from a peer entering the
//!   advertising area until it receives the advertisement".
//! * **Number of Messages** — taken from the radio's traffic stats by the
//!   runner; this module owns the first two.
//!
//! All metrics are collected over an advertisement's life cycle
//! `[issue_time, issue_time + D0]`. Area entry instants are *exact*:
//! the piecewise-linear trajectories are intersected with the advertising
//! circle analytically (`TrajectoryView::disk_intervals`), something
//! NS-2 post-processing could only approximate by sampling.

use crate::scenario::AdSpec;
use ia_core::AdId;
use ia_des::SimTime;
use ia_geo::Circle;
use ia_mobility::Fleet;

/// A node's first receipt before it has one. No receipt is recorded at
/// it: the scheduler runs nothing at or past its horizon.
const NOT_RECEIVED: SimTime = SimTime::MAX;

/// Delivery bookkeeping for one advertisement.
#[derive(Debug, Clone)]
struct AdTracking {
    id: AdId,
    window_end: SimTime,
    /// Exact in-area intervals of the mobile peers during the life
    /// cycle, clipped to the window, peer after peer in id order.
    passages: Vec<(SimTime, SimTime)>,
    /// Each peer that passed, in id order, with the end of its run in
    /// `passages` (peers that never enter are absent).
    passed: Vec<(u32, u32)>,
    /// First receipt time per node, issuers included (an issuer may
    /// accept another's ad); [`NOT_RECEIVED`] until it has one.
    receipts: Vec<SimTime>,
}

impl AdTracking {
    fn receipt(&self, node: u32) -> Option<SimTime> {
        Some(self.receipts[node as usize]).filter(|&r| r != NOT_RECEIVED)
    }

    /// Every passage, peer by peer in id order, with its wait in seconds
    /// from entering the area until the peer's first receipt; `None` when
    /// that receipt is missing, after the window or after the passage's
    /// exit. A receipt before entry waits 0.
    fn passage_waits(&self) -> impl Iterator<Item = (u32, Option<f64>)> + '_ {
        let starts = std::iter::once(0).chain(self.passed.iter().map(|&(_, end)| end));
        self.passed
            .iter()
            .zip(starts)
            .flat_map(move |(&(peer, end), start)| {
                let receipt = self.receipt(peer).filter(|&r| r <= self.window_end);
                let intervals = &self.passages[start as usize..end as usize];
                intervals.iter().map(move |&(enter, exit)| {
                    let wait = receipt
                        .filter(|&r| r <= exit)
                        .map(|r| r.since(enter).as_secs());
                    (peer, wait)
                })
            })
    }
}

/// Aggregated outcome for one advertisement.
///
/// The primary delivery metric is *passage-level*: every traversal of the
/// advertising area is one delivery opportunity, and it succeeds when the
/// peer holds the advertisement by the time that traversal ends. A peer
/// that misses the ad on its first pass and receives it on a later one
/// scores one miss and one success — which is what lets the paper's
/// delivery rates distinguish protocols even though peers re-enter the
/// area many times over a 30-minute life cycle. Peer-level counts are
/// reported alongside.
#[derive(Debug, Clone, PartialEq)]
pub struct AdOutcome {
    pub id: AdId,
    /// Mobile peers that passed through the advertising area during the
    /// life cycle.
    pub passed: usize,
    /// Of those, how many ever received the ad by the end of some
    /// passage.
    pub delivered: usize,
    /// Total passages through the area (every peer may contribute
    /// several).
    pub passages: usize,
    /// Passages during (or before) which the peer held the ad.
    pub delivered_passages: usize,
    /// Passage-level delivery rate in percent (100 when nobody passed —
    /// nothing to miss). This is the paper's Delivery Rate.
    pub delivery_rate: f64,
    /// Mean delivery time over delivered passages, seconds: the wait
    /// from entering the area until first receipt; passages entered
    /// already holding the ad contribute zero wait.
    pub mean_delivery_time: f64,
}

/// Tracks deliveries for every advertisement in a run.
#[derive(Debug, Clone)]
pub struct DeliveryTracker {
    ads: Vec<AdTracking>,
}

impl DeliveryTracker {
    /// Precompute exact entry times for all `n_mobile` peers (node ids
    /// `0..n_mobile`; issuer nodes beyond that are excluded from the
    /// metrics, as the paper counts *mobile peers passing through*).
    /// Receipts are kept for every node of `fleet`.
    pub fn new(fleet: &Fleet, n_mobile: usize, specs: &[(AdId, AdSpec)]) -> Self {
        let ads = specs
            .iter()
            .map(|(id, spec)| {
                let circle = Circle::new(spec.issue_pos, spec.radius);
                let start = spec.issue_time;
                let end = spec.window_end();
                let mut passages = Vec::new();
                let mut passed = Vec::new();
                for node in 0..n_mobile as u32 {
                    let iv = fleet.trajectory(node).disk_intervals(&circle, start, end);
                    if !iv.is_empty() {
                        passages.extend(iv);
                        let run_end = u32::try_from(passages.len()).expect("under 2^32 passages");
                        passed.push((node, run_end));
                    }
                }
                passages.shrink_to_fit();
                passed.shrink_to_fit();
                AdTracking {
                    id: *id,
                    window_end: end,
                    passages,
                    passed,
                    receipts: vec![NOT_RECEIVED; fleet.len()],
                }
            })
            .collect();
        DeliveryTracker { ads }
    }

    /// Record that `peer` accepted `ad` at `time` (first receipt wins).
    pub fn record_receipt(&mut self, peer: u32, ad: AdId, time: SimTime) {
        for t in self.ads.iter_mut().filter(|t| t.id == ad) {
            let first = &mut t.receipts[peer as usize];
            if *first == NOT_RECEIVED {
                *first = time;
            }
        }
    }

    /// Has `peer` already received `ad`?
    pub fn has_received(&self, peer: u32, ad: AdId) -> bool {
        self.ads
            .iter()
            .any(|t| t.id == ad && t.receipt(peer).is_some())
    }

    /// Compute the final per-ad outcomes.
    ///
    /// Passage-level accounting: a passage `[enter, exit]` is delivered
    /// iff the peer's first receipt is `<= exit` — "receive the
    /// advertisement successfully *while passing through* the advertising
    /// area". A receipt after a passage has ended does not rescue that
    /// passage (but does rescue later ones: the peer then enters already
    /// informed, wait 0).
    pub fn outcomes(&self) -> Vec<AdOutcome> {
        self.ads
            .iter()
            .map(|t| {
                let passed = t.passed.len();
                let mut delivered = 0usize;
                let mut passages = 0usize;
                let mut delivered_passages = 0usize;
                let mut time_sum = 0.0;
                let mut last_delivered = None;
                for (peer, wait) in t.passage_waits() {
                    passages += 1;
                    if let Some(wait) = wait {
                        delivered_passages += 1;
                        time_sum += wait;
                        if last_delivered != Some(peer) {
                            delivered += 1;
                            last_delivered = Some(peer);
                        }
                    }
                }
                let delivery_rate = if passages == 0 {
                    100.0
                } else {
                    100.0 * delivered_passages as f64 / passages as f64
                };
                let mean_delivery_time = if delivered_passages == 0 {
                    0.0
                } else {
                    time_sum / delivered_passages as f64
                };
                AdOutcome {
                    id: t.id,
                    passed,
                    delivered,
                    passages,
                    delivered_passages,
                    delivery_rate,
                    mean_delivery_time,
                }
            })
            .collect()
    }

    /// Distribution summary of the delivery waits for ad index `i`
    /// (seconds, one per delivered passage): the raw data behind the
    /// mean delivery time, for tail analysis.
    pub fn delivery_time_distribution(&self, i: usize) -> crate::stats::Distribution {
        let waits = self.ads[i].passage_waits().filter_map(|(_, wait)| wait);
        crate::stats::Distribution::of(waits.collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ia_core::PeerId;
    use ia_des::SimDuration;
    use ia_geo::Point;
    use ia_mobility::{Leg, Trajectory};

    fn spec() -> AdSpec {
        AdSpec {
            issue_pos: Point::new(500.0, 500.0),
            issue_time: SimTime::from_secs(10.0),
            radius: 100.0,
            duration: SimDuration::from_secs(500.0),
            topics: vec![],
            payload_bytes: 0,
        }
    }

    fn ad_id() -> AdId {
        AdId::new(PeerId(3), 0)
    }

    /// Three peers: one crossing the area, one static inside, one far away.
    fn fleet() -> Fleet {
        let end = SimTime::from_secs(1000.0);
        let crossing = Trajectory::new(vec![Leg::new(
            SimTime::ZERO,
            end,
            Point::new(0.0, 500.0),
            Point::new(1000.0, 500.0),
        )]); // 1 m/s along y=500: enters x=400 at t=400
        let inside = Trajectory::stationary(Point::new(510.0, 500.0), SimTime::ZERO, end);
        let far = Trajectory::stationary(Point::new(4000.0, 4000.0), SimTime::ZERO, end);
        Fleet::from_trajectories(vec![crossing, inside, far])
    }

    #[test]
    fn entry_detection_is_exact() {
        let t = DeliveryTracker::new(&fleet(), 3, &[(ad_id(), spec())]);
        let out = t.outcomes();
        assert_eq!(out[0].passed, 2); // crossing + inside
        assert_eq!(out[0].delivered, 0);
        assert_eq!(out[0].delivery_rate, 0.0);
    }

    #[test]
    fn receipt_during_passage_counts() {
        let mut t = DeliveryTracker::new(&fleet(), 3, &[(ad_id(), spec())]);
        // Peer 0 enters at t=400, receives at t=450.
        t.record_receipt(0, ad_id(), SimTime::from_secs(450.0));
        // Peer 1 is inside from the window start (t=10), receives at 20.
        t.record_receipt(1, ad_id(), SimTime::from_secs(20.0));
        assert!(t.has_received(0, ad_id()));
        let out = &t.outcomes()[0];
        assert_eq!(out.delivered, 2);
        assert_eq!(out.delivery_rate, 100.0);
        // Delivery times: (450-400) and (20-10) -> mean 30.
        assert!((out.mean_delivery_time - 30.0).abs() < 1e-6);
    }

    #[test]
    fn first_receipt_wins() {
        let mut t = DeliveryTracker::new(&fleet(), 3, &[(ad_id(), spec())]);
        t.record_receipt(1, ad_id(), SimTime::from_secs(20.0));
        t.record_receipt(1, ad_id(), SimTime::from_secs(400.0));
        let out = &t.outcomes()[0];
        assert!((out.mean_delivery_time - 10.0).abs() < 1e-6);
    }

    #[test]
    fn receipt_after_window_does_not_count() {
        let mut t = DeliveryTracker::new(&fleet(), 3, &[(ad_id(), spec())]);
        t.record_receipt(1, ad_id(), SimTime::from_secs(600.0)); // window ends 510
        assert_eq!(t.outcomes()[0].delivered, 0);
    }

    #[test]
    fn receipt_after_leaving_the_area_does_not_count() {
        // Peer 0 exits the area at t=600 / window end 510; its passage is
        // clipped to [400, 510]. A receipt at t=505 counts...
        let mut t = DeliveryTracker::new(&fleet(), 3, &[(ad_id(), spec())]);
        t.record_receipt(0, ad_id(), SimTime::from_secs(505.0));
        assert_eq!(t.outcomes()[0].delivered, 1);
        // ...but with a shorter window ending before the receipt, the peer
        // has effectively left and a later receipt is a miss.
        let mut s = spec();
        s.duration = SimDuration::from_secs(440.0); // window [10, 450]
        let mut t2 = DeliveryTracker::new(&fleet(), 3, &[(ad_id(), s)]);
        t2.record_receipt(0, ad_id(), SimTime::from_secs(460.0));
        assert_eq!(t2.outcomes()[0].delivered, 0);
    }

    #[test]
    fn receipt_before_entry_clamps_to_zero() {
        let mut t = DeliveryTracker::new(&fleet(), 3, &[(ad_id(), spec())]);
        // Peer 0 receives at t=100 (before entering at t=400).
        t.record_receipt(0, ad_id(), SimTime::from_secs(100.0));
        let out = &t.outcomes()[0];
        assert_eq!(out.delivered, 1);
        assert_eq!(out.mean_delivery_time, 0.0);
    }

    #[test]
    fn peers_outside_do_not_affect_rate() {
        let mut t = DeliveryTracker::new(&fleet(), 3, &[(ad_id(), spec())]);
        // Peer 2 never passes; a receipt by it changes nothing.
        t.record_receipt(2, ad_id(), SimTime::from_secs(20.0));
        let out = &t.outcomes()[0];
        assert_eq!(out.passed, 2);
        assert_eq!(out.delivered, 0);
    }

    #[test]
    fn unknown_ad_receipts_are_ignored() {
        let mut t = DeliveryTracker::new(&fleet(), 3, &[(ad_id(), spec())]);
        t.record_receipt(1, AdId::new(PeerId(9), 9), SimTime::from_secs(20.0));
        assert_eq!(t.outcomes()[0].delivered, 0);
        assert!(!t.has_received(1, ad_id()));
    }

    #[test]
    fn empty_passage_reports_full_rate() {
        // Ad area nobody visits.
        let mut s = spec();
        s.issue_pos = Point::new(2500.0, 100.0);
        let t = DeliveryTracker::new(&fleet(), 3, &[(ad_id(), s)]);
        let out = &t.outcomes()[0];
        assert_eq!(out.passed, 0);
        assert_eq!(out.delivery_rate, 100.0);
    }

    #[test]
    fn issuer_nodes_are_excluded() {
        // n_mobile = 2 excludes node 2 even if it were inside.
        let t = DeliveryTracker::new(&fleet(), 2, &[(ad_id(), spec())]);
        assert_eq!(t.outcomes()[0].passed, 2);
        let t_small = DeliveryTracker::new(&fleet(), 1, &[(ad_id(), spec())]);
        assert_eq!(t_small.outcomes()[0].passed, 1);
    }
}
