//! Popularity ranking and enlargement — formulas (5)–(7), Algorithm 5.
//!
//! The rank of an advertisement is the number of *distinct* users whose
//! interests it matches, estimated by the FM sketches piggybacked on the
//! message. When a peer whose interests match receives the ad, it hashes
//! its user id into the sketches; if the estimated rank increased, the
//! ad's radius `R` and duration `D` are enlarged by a log-damped step
//! (formula 7), capped by [`MAX_ENLARGE_FACTOR`] so spatial/temporal
//! constraints survive arbitrary popularity.

use crate::ad::Advertisement;
use crate::interest::UserProfile;
use crate::params::{ENLARGE_FRAC, MAX_ENLARGE_FACTOR};
use ia_des::SimDuration;

/// What Algorithm 5 did for one received advertisement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankOutcome {
    /// Estimated rank before this user's id was inserted.
    pub rank_before: u64,
    /// Estimated rank after.
    pub rank_after: u64,
    /// Whether `R`/`D` were actually enlarged (rank increased and the cap
    /// had headroom).
    pub enlarged: bool,
}

/// Formula (7)'s increment: `frac * initial / log2(rank + 1)`.
///
/// The `1/log2(rank+1)` factor "is used to limit the rate of increasing
/// R and D": later increases (at higher rank) add less.
pub fn enlargement_step(initial: f64, rank: u64, frac: f64) -> f64 {
    let denom = ((rank + 1) as f64).log2();
    if denom <= 0.0 {
        // rank = 0: log2(1) = 0. Treat as the largest allowed step.
        return frac * initial;
    }
    (frac * initial / denom).min(frac * initial)
}

/// Algorithm 5: process a received advertisement against a user profile.
///
/// If the ad matches at least one interest, the user's id is hashed into
/// the sketches; if the rank estimate rose, `R` and `D` are enlarged per
/// formula (7), clamped to [`MAX_ENLARGE_FACTOR`] times the initial
/// values. Returns `None` when the ad does not match (nothing happens).
pub fn process_interest(ad: &mut Advertisement, profile: &UserProfile) -> Option<RankOutcome> {
    if !profile.matches(ad) {
        return None;
    }
    let rank_before = ad.sketches.rank();
    ad.sketches.insert(profile.user_id);
    let rank_after = ad.sketches.rank();
    let mut enlarged = false;
    if rank_after > rank_before {
        let r_step = enlargement_step(ad.initial_radius, rank_after, ENLARGE_FRAC);
        let d_step = enlargement_step(ad.initial_duration.as_secs(), rank_after, ENLARGE_FRAC);
        let r_cap = ad.initial_radius * MAX_ENLARGE_FACTOR;
        let d_cap = ad.initial_duration.as_secs() * MAX_ENLARGE_FACTOR;
        let new_r = (ad.radius + r_step).min(r_cap);
        let new_d = (ad.duration.as_secs() + d_step).min(d_cap);
        enlarged = new_r > ad.radius || new_d > ad.duration.as_secs();
        ad.radius = new_r;
        ad.duration = SimDuration::from_secs(new_d);
    }
    Some(RankOutcome {
        rank_before,
        rank_after,
        enlarged,
    })
}

/// The paper's boundedness guarantee, made concrete: "these two
/// parameters can not be increased infinitely".
///
/// The paper argues expiry via the sublinear growth of
/// `sum_{rank=1..k} 1/log2(rank+1)`; that argument is asymptotically
/// correct but the crossover round is astronomically large at the
/// paper's parameter magnitudes (the `1/log2` damping shrinks very
/// slowly). Our implementation therefore enforces the explicit cap
/// `duration <= MAX_ENLARGE_FACTOR * D0`, which yields the hard bound
/// returned here: the advertisement is guaranteed expired after
/// `ceil(MAX_ENLARGE_FACTOR * D0 / round_time)` rounds, no matter how
/// popular it becomes.
pub fn expiry_bound_rounds(d0: SimDuration, round_time: SimDuration) -> u64 {
    assert!(!round_time.is_zero(), "zero round time");
    (d0.as_secs() * MAX_ENLARGE_FACTOR / round_time.as_secs()).ceil() as u64 + 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{AdId, PeerId};
    use crate::params::GossipParams;
    use ia_des::SimTime;
    use ia_geo::Point;

    fn ad() -> Advertisement {
        Advertisement::new(
            AdId::new(PeerId(0), 0),
            Point::ORIGIN,
            SimTime::ZERO,
            1000.0,
            SimDuration::from_secs(1800.0),
            vec![1, 2],
            0,
            &GossipParams::paper(),
        )
    }

    #[test]
    fn non_matching_user_does_nothing() {
        let mut a = ad();
        let before = a.clone();
        let u = UserProfile::new(42, vec![99]);
        assert_eq!(process_interest(&mut a, &u), None);
        assert_eq!(a, before);
    }

    #[test]
    fn matching_user_raises_rank_and_enlarges() {
        let mut a = ad();
        let u = UserProfile::new(42, vec![1]);
        let out = process_interest(&mut a, &u).unwrap();
        assert!(out.rank_after >= out.rank_before);
        if out.rank_after > out.rank_before {
            assert!(out.enlarged);
            assert!(a.radius > 1000.0);
            assert!(a.duration > SimDuration::from_secs(1800.0));
        }
    }

    #[test]
    fn duplicate_processing_is_a_noop() {
        // The same user processing the same ad twice must not enlarge
        // twice — the FM sketches make the second pass rank-neutral.
        let mut a = ad();
        let u = UserProfile::new(42, vec![1]);
        process_interest(&mut a, &u);
        let snapshot = a.clone();
        let out = process_interest(&mut a, &u).unwrap();
        assert_eq!(out.rank_before, out.rank_after);
        assert!(!out.enlarged);
        assert_eq!(a, snapshot);
    }

    #[test]
    fn many_users_enlarge_up_to_cap_only() {
        let mut a = ad();
        for uid in 0..5000u64 {
            let u = UserProfile::new(uid, vec![1]);
            process_interest(&mut a, &u);
        }
        assert!(a.radius <= 1000.0 * MAX_ENLARGE_FACTOR + 1e-9);
        assert!(a.duration.as_secs() <= 1800.0 * MAX_ENLARGE_FACTOR + 1e-6);
        assert!(a.radius > 1000.0, "popular ad should have grown");
        // Rank should be in the right ballpark for 5000 distinct users.
        let rank = a.sketches.rank();
        assert!((1000..25_000).contains(&rank), "rank {rank}");
    }

    #[test]
    fn enlargement_step_shrinks_with_rank() {
        let s1 = enlargement_step(1000.0, 1, 0.1);
        let s10 = enlargement_step(1000.0, 10, 0.1);
        let s1000 = enlargement_step(1000.0, 1000, 0.1);
        assert!(s1 >= s10 && s10 >= s1000);
        assert!((s1 - 100.0).abs() < 1e-9); // log2(2) = 1
        assert!(s1000 < 11.0); // log2(1001) ~ 9.97
    }

    #[test]
    fn enlargement_step_rank_zero_is_capped() {
        assert_eq!(enlargement_step(1000.0, 0, 0.1), 100.0);
    }

    #[test]
    fn expiry_bound_exists_and_exceeds_base_lifetime() {
        let d0 = SimDuration::from_secs(1800.0);
        let dt = SimDuration::from_secs(5.0);
        let k = expiry_bound_rounds(d0, dt);
        // Must exceed the no-enlargement bound D0/dt = 360 rounds...
        assert!(k > 360);
        // ...and equal the capped lifetime: 2 * 1800 / 5 + 1.
        assert_eq!(k, 721);
    }

    #[test]
    fn expiry_bound_grows_with_lifetime() {
        let dt = SimDuration::from_secs(5.0);
        let bound = |d0| expiry_bound_rounds(SimDuration::from_secs(d0), dt);
        assert!(bound(3600.0) > bound(1800.0));
        assert_eq!(bound(3600.0), 1441);
    }

    #[test]
    fn capped_ad_actually_expires_within_the_bound() {
        // End-to-end: however popular, an ad is dead by the bound.
        let mut a = ad();
        let p = GossipParams::paper();
        for uid in 0..10_000u64 {
            process_interest(&mut a, &UserProfile::new(uid, vec![1]));
        }
        let k = expiry_bound_rounds(a.initial_duration, p.round_time);
        let t_bound = SimTime::ZERO + p.round_time * k;
        assert!(a.expired(t_bound), "ad still alive at the expiry bound");
    }
}
