//! User interests and the `Match` function (formula 5).
//!
//! "How to define interest is out of the scope of this paper, and we
//! simply use keywords to represent a user's interests (notice that a
//! user may have more than one interest)." Keywords are opaque `u32`
//! topic ids here; the experiment harness maps workload categories
//! (petrol, groceries, traffic, ...) onto them.

use crate::ad::Advertisement;

/// A user's identity and interests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UserProfile {
    /// Distinct user id — what gets hashed into the FM sketches.
    pub user_id: u64,
    /// Interest keywords, sorted and deduplicated.
    interests: Vec<u32>,
}

impl UserProfile {
    pub fn new(user_id: u64, mut interests: Vec<u32>) -> Self {
        interests.sort_unstable();
        interests.dedup();
        UserProfile { user_id, interests }
    }

    /// A user with no interests (participates in relaying but never ranks
    /// ads up).
    pub fn indifferent(user_id: u64) -> Self {
        UserProfile {
            user_id,
            interests: Vec::new(),
        }
    }

    pub fn interests(&self) -> &[u32] {
        &self.interests
    }

    /// The paper's `Match(ad, I_i)` summed over this user's interests:
    /// how many of the user's interest keywords the ad matches.
    pub fn match_count(&self, ad: &Advertisement) -> usize {
        self.interests
            .iter()
            .filter(|&&i| ad.matches_topic(i))
            .count()
    }

    /// Does the ad match at least one interest? (This is what gates both
    /// display and sketch insertion in Algorithm 5.)
    pub fn matches(&self, ad: &Advertisement) -> bool {
        self.match_count(ad) > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{AdId, PeerId};
    use crate::params::GossipParams;
    use ia_des::{SimDuration, SimTime};
    use ia_geo::Point;

    fn ad_with_topics(topics: Vec<u32>) -> Advertisement {
        Advertisement::new(
            AdId::new(PeerId(0), 0),
            Point::ORIGIN,
            SimTime::ZERO,
            100.0,
            SimDuration::from_secs(60.0),
            topics,
            0,
            &GossipParams::paper(),
        )
    }

    #[test]
    fn interests_sorted_deduped() {
        let u = UserProfile::new(1, vec![5, 2, 5, 9]);
        assert_eq!(u.interests(), &[2, 5, 9]);
    }

    #[test]
    fn match_counts() {
        let u = UserProfile::new(1, vec![1, 2, 3]);
        assert_eq!(u.match_count(&ad_with_topics(vec![2, 3, 9])), 2);
        assert!(u.matches(&ad_with_topics(vec![3])));
        assert!(!u.matches(&ad_with_topics(vec![7, 8])));
        assert_eq!(u.match_count(&ad_with_topics(vec![])), 0);
    }

    #[test]
    fn indifferent_user_matches_nothing() {
        let u = UserProfile::indifferent(9);
        assert!(!u.matches(&ad_with_topics(vec![1, 2, 3])));
        assert!(u.interests().is_empty());
    }
}
