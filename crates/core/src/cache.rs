//! The per-peer advertisement cache (store & forward).
//!
//! "All received advertisements are sorted by forwarding probability and
//! stored in cache. If the number of received advertisements exceeds a
//! threshold, those with low probabilities will be discarded." (§III-A)
//!
//! Capacity `k` is small (the paper suggests 10), so entries live in a
//! `Vec` with linear lookup — simpler and faster than a map at this size,
//! and iteration order is deterministic. The `Vec` grows on demand: a new
//! cache allocates nothing, and the first insert reserves exactly one
//! entry, since most peers hold one ad (a plain `push` would reserve
//! four).
//!
//! Each entry also carries its tick schedule: the logical tick grid
//! `next_time + k·round_time`, the planned tick `wake` (the first grid
//! tick that must run) and `queued`, the one wake-up the world holds for
//! the entry. Under Gossiping and Optimized Gossiping-1 every entry's
//! grid is the peer's round grid (Algorithms 1–2); under Optimized
//! Gossiping(-2) each entry has its own (Algorithms 3–4).

use crate::ad::Advertisement;
use crate::ids::AdId;
use ia_des::SimTime;

/// One cached advertisement with its bookkeeping.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheEntry {
    pub ad: Advertisement,
    /// Forwarding probability, refreshed before use.
    pub probability: f64,
    /// The entry's tick grid: ticks fall at `next_time + k·round_time`,
    /// `k >= 0`. It moves only as per-tick execution moves it: one round
    /// past each executed tick, and on postponement and restart.
    pub next_time: SimTime,
    /// The planned tick: the first tick of the grid that must run (it
    /// expires the ad, broadcasts, or cannot be evaluated ahead). Every
    /// grid tick before it would neither broadcast nor change state.
    pub wake: SimTime,
    /// When the one wake-up queued for this entry pops (`SimTime::ZERO`
    /// before the first). Wake-ups that pop at any other time are stale.
    pub queued: SimTime,
}

impl CacheEntry {
    /// A fresh entry whose grid and planned tick start at `next_time`,
    /// with no wake-up queued yet.
    pub fn new(ad: Advertisement, probability: f64, next_time: SimTime) -> Self {
        CacheEntry {
            ad,
            probability,
            next_time,
            wake: next_time,
            queued: SimTime::ZERO,
        }
    }
}

/// A bounded advertisement cache.
#[derive(Debug, Clone, PartialEq)]
pub struct AdCache {
    entries: Vec<CacheEntry>,
    capacity: usize,
}

impl AdCache {
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "cache capacity must be >= 1");
        AdCache {
            entries: Vec::new(),
            capacity,
        }
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    pub fn contains(&self, id: AdId) -> bool {
        self.entries.iter().any(|e| e.ad.id == id)
    }

    pub fn get(&self, id: AdId) -> Option<&CacheEntry> {
        self.entries.iter().find(|e| e.ad.id == id)
    }

    pub fn get_mut(&mut self, id: AdId) -> Option<&mut CacheEntry> {
        self.entries.iter_mut().find(|e| e.ad.id == id)
    }

    /// Insert a new entry. If the cache exceeds capacity, the entry with
    /// the lowest probability is dropped (which may be the new one).
    /// Returns the evicted ad id, if any.
    ///
    /// Callers should refresh probabilities first (Algorithm 1: "refresh
    /// all entries' probabilities; drop the entry with the least
    /// probability").
    pub fn insert(&mut self, entry: CacheEntry) -> Option<AdId> {
        debug_assert!(
            !self.contains(entry.ad.id),
            "inserting duplicate ad {}",
            entry.ad.id
        );
        if self.entries.capacity() == 0 {
            self.entries.reserve_exact(1);
        }
        self.entries.push(entry);
        if self.entries.len() > self.capacity {
            let (worst_idx, _) = self
                .entries
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| {
                    a.probability
                        .partial_cmp(&b.probability)
                        .expect("NaN probability in cache")
                })
                .expect("non-empty cache");
            let evicted = self.entries.remove(worst_idx);
            return Some(evicted.ad.id);
        }
        None
    }

    /// Remove one ad.
    pub fn remove(&mut self, id: AdId) -> Option<CacheEntry> {
        let idx = self.entries.iter().position(|e| e.ad.id == id)?;
        Some(self.entries.remove(idx))
    }

    /// Recompute every entry's probability with `f(ad) -> probability`.
    pub fn refresh_probabilities(&mut self, mut f: impl FnMut(&Advertisement) -> f64) {
        for e in &mut self.entries {
            e.probability = f(&e.ad);
        }
    }

    /// Drop every expired advertisement; returns how many were removed.
    pub fn prune_expired(&mut self, now: SimTime) -> usize {
        let before = self.entries.len();
        self.entries.retain(|e| !e.ad.expired(now));
        before - self.entries.len()
    }

    /// Iterate entries in insertion order (deterministic).
    pub fn iter(&self) -> impl Iterator<Item = &CacheEntry> {
        self.entries.iter()
    }

    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut CacheEntry> {
        self.entries.iter_mut()
    }

    /// Ids currently cached, in insertion order.
    pub fn ids(&self) -> Vec<AdId> {
        self.entries.iter().map(|e| e.ad.id).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::PeerId;
    use crate::params::GossipParams;
    use ia_des::SimDuration;
    use ia_geo::Point;

    fn mk_ad(seq: u32, duration_s: f64) -> Advertisement {
        Advertisement::new(
            AdId::new(PeerId(0), seq),
            Point::ORIGIN,
            SimTime::ZERO,
            100.0,
            SimDuration::from_secs(duration_s),
            vec![],
            0,
            &GossipParams::paper(),
        )
    }

    fn entry(seq: u32, prob: f64) -> CacheEntry {
        CacheEntry::new(mk_ad(seq, 600.0), prob, SimTime::ZERO)
    }

    #[test]
    fn first_insert_reserves_exactly_one_entry() {
        let mut c = AdCache::new(10);
        assert_eq!(c.entries.capacity(), 0, "a new cache allocates nothing");
        c.insert(entry(1, 0.5));
        assert_eq!(c.entries.capacity(), 1);
        c.insert(entry(2, 0.5));
        assert!(c.entries.capacity() >= 2);
    }

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut c = AdCache::new(3);
        assert!(c.insert(entry(1, 0.5)).is_none());
        assert!(c.contains(AdId::new(PeerId(0), 1)));
        assert_eq!(c.get(AdId::new(PeerId(0), 1)).unwrap().probability, 0.5);
        assert!(c.remove(AdId::new(PeerId(0), 1)).is_some());
        assert!(c.is_empty());
        assert!(c.remove(AdId::new(PeerId(0), 1)).is_none());
    }

    #[test]
    fn eviction_drops_lowest_probability() {
        let mut c = AdCache::new(2);
        c.insert(entry(1, 0.9));
        c.insert(entry(2, 0.1));
        let evicted = c.insert(entry(3, 0.5));
        assert_eq!(evicted, Some(AdId::new(PeerId(0), 2)));
        assert_eq!(c.len(), 2);
        assert!(c.contains(AdId::new(PeerId(0), 1)));
        assert!(c.contains(AdId::new(PeerId(0), 3)));
    }

    #[test]
    fn new_entry_itself_can_be_evicted() {
        let mut c = AdCache::new(2);
        c.insert(entry(1, 0.9));
        c.insert(entry(2, 0.8));
        let evicted = c.insert(entry(3, 0.01));
        assert_eq!(evicted, Some(AdId::new(PeerId(0), 3)));
        assert!(!c.contains(AdId::new(PeerId(0), 3)));
    }

    #[test]
    fn refresh_probabilities_applies_closure() {
        let mut c = AdCache::new(4);
        c.insert(entry(1, 0.0));
        c.insert(entry(2, 0.0));
        c.refresh_probabilities(|ad| ad.id.seq as f64 / 10.0);
        assert_eq!(c.get(AdId::new(PeerId(0), 1)).unwrap().probability, 0.1);
        assert_eq!(c.get(AdId::new(PeerId(0), 2)).unwrap().probability, 0.2);
    }

    #[test]
    fn prune_expired_removes_old_ads() {
        let mut c = AdCache::new(4);
        c.insert(CacheEntry::new(mk_ad(1, 100.0), 0.5, SimTime::ZERO));
        c.insert(CacheEntry::new(mk_ad(2, 1000.0), 0.5, SimTime::ZERO));
        assert_eq!(c.prune_expired(SimTime::from_secs(500.0)), 1);
        assert_eq!(c.len(), 1);
        assert!(c.contains(AdId::new(PeerId(0), 2)));
    }

    #[test]
    fn iteration_is_insertion_ordered() {
        let mut c = AdCache::new(5);
        for seq in [3, 1, 4, 5] {
            c.insert(entry(seq, 0.5));
        }
        let ids: Vec<u32> = c.iter().map(|e| e.ad.id.seq).collect();
        assert_eq!(ids, vec![3, 1, 4, 5]);
        assert_eq!(c.ids().len(), 4);
    }

    #[test]
    #[should_panic(expected = "cache capacity must be >= 1")]
    fn zero_capacity_rejected() {
        let _ = AdCache::new(0);
    }
}
