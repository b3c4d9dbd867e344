//! The advertisement object.

use crate::ids::AdId;
use crate::params::{GossipParams, AGE_UNIT};
use crate::prob;
use ia_des::{SimDuration, SimTime};
use ia_geo::Point;
use ia_sketch::FmBundle;
use std::sync::Arc;

/// An instant advertisement as carried on the wire.
///
/// `radius`/`duration` start at the issuer's `initial_radius`/
/// `initial_duration` and may grow through popularity enlargement
/// (formula 7); the initial values are retained because the enlargement
/// increments and the hard cap are defined relative to them.
///
/// A copy allocates nothing: the sketches are inline, and every copy of
/// one ad shares its topic list, which no copy changes.
#[derive(Debug, Clone, PartialEq)]
pub struct Advertisement {
    pub id: AdId,
    /// Where the advertisement was issued (the centre of the advertising
    /// area).
    pub issue_pos: Point,
    /// When it was issued.
    pub issue_time: SimTime,
    /// Issuer-chosen advertising radius `R0`, metres.
    pub initial_radius: f64,
    /// Issuer-chosen duration `D0`.
    pub initial_duration: SimDuration,
    /// Current (possibly enlarged) radius `R`.
    pub radius: f64,
    /// Current (possibly enlarged) duration `D`.
    pub duration: SimDuration,
    /// Topic keywords (interest ids) this ad advertises, sorted and
    /// without duplicates, shared by every copy.
    pub topics: Arc<[u32]>,
    /// Size of the human-readable content, bytes (for traffic accounting;
    /// the content itself is irrelevant to the protocols).
    pub payload_bytes: usize,
    /// Piggybacked FM sketches counting distinct interested users.
    pub sketches: FmBundle,
}

impl Advertisement {
    /// Create a fresh advertisement with the sketch bundle shaped by
    /// `params`.
    #[allow(clippy::too_many_arguments)] // mirrors the wire-format fields
    pub fn new(
        id: AdId,
        issue_pos: Point,
        issue_time: SimTime,
        radius: f64,
        duration: SimDuration,
        mut topics: Vec<u32>,
        payload_bytes: usize,
        params: &GossipParams,
    ) -> Self {
        assert!(radius > 0.0, "non-positive advertising radius");
        assert!(!duration.is_zero(), "zero advertising duration");
        topics.sort_unstable();
        topics.dedup();
        Advertisement {
            id,
            issue_pos,
            issue_time,
            initial_radius: radius,
            initial_duration: duration,
            radius,
            duration,
            topics: topics.into(),
            payload_bytes,
            sketches: FmBundle::new(params.sketch_seed, params.sketch_f, params.sketch_l),
        }
    }

    /// Age at time `now` (zero before issue).
    pub fn age(&self, now: SimTime) -> SimDuration {
        now.since(self.issue_time)
    }

    /// Has the advertisement outlived its (possibly enlarged) duration?
    pub fn expired(&self, now: SimTime) -> bool {
        self.age(now) >= self.duration
    }

    /// Formula (2): the current advertising radius `R_t`.
    pub fn radius_at(&self, now: SimTime, params: &GossipParams) -> f64 {
        prob::radius_at(
            params.beta,
            self.radius,
            self.age(now),
            self.duration,
            AGE_UNIT,
        )
    }

    /// Does `topic` match this advertisement? (The paper's `Match`
    /// function compares an ad against one interest keyword.)
    pub fn matches_topic(&self, topic: u32) -> bool {
        self.topics.binary_search(&topic).is_ok()
    }

    /// Merge a copy of the same advertisement received from a neighbour:
    /// sketches are OR-ed (duplicate-insensitive), and the spatial/
    /// temporal parameters take the maximum seen, so popularity
    /// enlargements propagate monotonically through the network.
    pub fn absorb(&mut self, other: &Advertisement) {
        assert_eq!(self.id, other.id, "absorbing a different advertisement");
        self.sketches.merge(&other.sketches);
        self.radius = self.radius.max(other.radius);
        self.duration = self.duration.max(other.duration);
    }

    /// Does this copy already hold everything `other` carries: the same
    /// ad, every sketch bit `other` sets, and `R` and `D` at least as
    /// large? Exactly when [`Advertisement::absorb`]`(other)` would leave
    /// this copy bitwise unchanged; `false`, not a panic, for another ad
    /// or a bundle of another sketch family.
    pub fn covers(&self, other: &Advertisement) -> bool {
        self.id == other.id
            && self.sketches.covers(&other.sketches)
            && self.radius.max(other.radius).to_bits() == self.radius.to_bits()
            && self.duration >= other.duration
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::PeerId;

    fn ad() -> Advertisement {
        Advertisement::new(
            AdId::new(PeerId(1), 0),
            Point::new(2500.0, 2500.0),
            SimTime::from_secs(100.0),
            1000.0,
            SimDuration::from_secs(1800.0),
            vec![3, 1, 3],
            200,
            &GossipParams::paper(),
        )
    }

    #[test]
    fn topics_sorted_and_deduped() {
        let a = ad();
        assert_eq!(a.topics[..], [1, 3]);
        assert!(a.matches_topic(1));
        assert!(a.matches_topic(3));
        assert!(!a.matches_topic(2));
    }

    #[test]
    fn age_and_expiry() {
        let a = ad();
        assert_eq!(a.age(SimTime::from_secs(50.0)), SimDuration::ZERO);
        assert_eq!(
            a.age(SimTime::from_secs(400.0)),
            SimDuration::from_secs(300.0)
        );
        assert!(!a.expired(SimTime::from_secs(1899.0)));
        assert!(a.expired(SimTime::from_secs(1900.0)));
        assert!(a.expired(SimTime::from_secs(5000.0)));
    }

    #[test]
    fn radius_shrinks_with_age() {
        let a = ad();
        let p = GossipParams::paper();
        let fresh = a.radius_at(SimTime::from_secs(100.0), &p);
        let old = a.radius_at(SimTime::from_secs(1800.0), &p);
        let dead = a.radius_at(SimTime::from_secs(1901.0), &p);
        assert!(fresh > 999.0);
        assert!(old < fresh && old > 0.0);
        assert_eq!(dead, 0.0);
    }

    #[test]
    fn wire_bytes_accounts_for_everything() {
        let a = ad();
        // 67 fixed + (2 + 8) topics + (2 + 32 + 8) sketches
        // + (4 + 200) payload.
        assert_eq!(crate::codec::ad_encoded_len(&a), 67 + 10 + 42 + 204);
    }

    #[test]
    fn absorb_merges_sketches_and_takes_maxima() {
        let mut a = ad();
        let mut b = ad();
        b.sketches.insert(77);
        b.radius = 1200.0;
        b.duration = SimDuration::from_secs(2000.0);
        a.sketches.insert(99);
        a.absorb(&b);
        assert_eq!(a.radius, 1200.0);
        assert_eq!(a.duration, SimDuration::from_secs(2000.0));
        // a now covers both users' bits.
        let mut expect = ad().sketches;
        expect.insert(77);
        expect.insert(99);
        assert_eq!(a.sketches, expect);
    }

    #[test]
    #[should_panic(expected = "different advertisement")]
    fn absorb_rejects_mismatched_ids() {
        let mut a = ad();
        let mut b = ad();
        b.id = AdId::new(PeerId(9), 9);
        a.absorb(&b);
    }

    #[test]
    #[should_panic(expected = "non-positive advertising radius")]
    fn zero_radius_rejected() {
        let _ = Advertisement::new(
            AdId::new(PeerId(1), 0),
            Point::ORIGIN,
            SimTime::ZERO,
            0.0,
            SimDuration::from_secs(1.0),
            vec![],
            0,
            &GossipParams::paper(),
        );
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use crate::ids::PeerId;
    use proptest::prelude::*;

    /// An ad of sketch family `family` (seed, `F`, `L`) holding `users`,
    /// with `R` and `D` as given.
    fn copy(
        seq: u32,
        family: (u64, usize, u8),
        users: &[u64],
        radius: f64,
        duration_s: u64,
    ) -> Advertisement {
        let (seed, f, l) = family;
        let params = GossipParams {
            sketch_seed: seed,
            sketch_f: f,
            sketch_l: l,
            ..GossipParams::paper()
        };
        let mut ad = Advertisement::new(
            AdId::new(PeerId(1), seq),
            Point::new(2500.0, 2500.0),
            SimTime::from_secs(100.0),
            500.0,
            SimDuration::from_secs(600.0),
            vec![1, 2],
            64,
            &params,
        );
        for &u in users {
            ad.sketches.insert(u);
        }
        ad.radius = radius;
        ad.duration = SimDuration::from_secs(duration_s as f64);
        ad
    }

    /// `R`, metres: few values, so equal radii are common.
    fn radius() -> impl Strategy<Value = f64> {
        prop_oneof![
            Just(500.0),
            Just(700.0),
            Just(f64::INFINITY),
            1.0..5000.0f64
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// `a.covers(b)` holds exactly when `a.absorb(b)` leaves `a`
        /// bitwise unchanged, and so does `FmBundle::covers` for the
        /// bundles. Another ad id, family seed, `F` or `L` answers
        /// `false` without a panic.
        #[test]
        fn covers_iff_absorb_changes_nothing(
            mine in proptest::collection::vec(0u64..40, 0..12),
            theirs in proptest::collection::vec(0u64..40, 0..12),
            subset in any::<bool>(),
            (r_a, r_b) in (radius(), radius()),
            (d_a, d_b) in (1u64..4, 1u64..4),
            mismatch in 0u8..8,
        ) {
            let paper = (0x1ADC_0DE5_EED0, 16, 16);
            // Half the cases draw the incoming users from the copy's own.
            let theirs: Vec<u64> = if subset {
                mine.iter().copied().filter(|u| theirs.contains(u) || u % 2 == 0).collect()
            } else {
                theirs
            };
            let a = copy(0, paper, &mine, r_a, d_a);
            let (seq, family) = match mismatch {
                0 => (1, paper),
                1 => (0, (7, 16, 16)),
                2 => (0, (paper.0, 8, 16)),
                3 => (0, (paper.0, 16, 12)),
                _ => (0, paper),
            };
            let b = copy(seq, family, &theirs, r_b, d_b);
            if mismatch < 4 {
                prop_assert!(!a.covers(&b));
                prop_assert!(!a.sketches.covers(&b.sketches) || mismatch == 0);
            } else {
                let mut merged = a.clone();
                merged.absorb(&b);
                let unchanged = merged.sketches == a.sketches
                    && merged.radius.to_bits() == a.radius.to_bits()
                    && merged.duration == a.duration;
                prop_assert_eq!(a.covers(&b), unchanged);
                let mut bundle = a.sketches;
                bundle.merge(&b.sketches);
                prop_assert_eq!(a.sketches.covers(&b.sketches), bundle == a.sketches);
            }
        }
    }
}
