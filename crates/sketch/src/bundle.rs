//! A bundle of `F` FM sketches with the averaged estimator (formula 6).

use crate::{fm, hash, PHI};

/// `F` FM bitmaps of `L` bits each, hashed with the family `seed`.
///
/// This is the structure piggybacked on every advertisement message; its
/// wire size is `F * L` bits (the paper's example budget is 256 bits).
/// Formula 6 gives the distinct-count estimate:
///
/// ```text
/// rank = (1 / phi) * 2^( sum_i Min(FM_i) / F )
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FmBundle {
    /// The shared family seed (a protocol constant).
    seed: u64,
    /// Sketch length `L`, `1..=64`.
    len: u8,
    /// One bitmap per hash function; bits at or above `len` are zero.
    bitmaps: Vec<u64>,
}

impl FmBundle {
    /// An empty bundle of `f` sketches of `l` bits, hashed with the family
    /// `family_seed`. All peers in a deployment must use the same seed (a
    /// protocol constant).
    pub fn new(family_seed: u64, f: usize, l: u8) -> Self {
        FmBundle::from_parts(family_seed, l, vec![0; f])
    }

    pub fn num_sketches(&self) -> usize {
        self.bitmaps.len()
    }

    pub fn sketch_len(&self) -> u8 {
        self.len
    }

    /// Wire size in bits.
    pub fn size_bits(&self) -> usize {
        self.num_sketches() * self.sketch_len() as usize
    }

    /// Record `item` (e.g. a user id) in every sketch. Duplicate inserts
    /// are no-ops by construction.
    pub fn insert(&mut self, item: u64) {
        for (i, bits) in self.bitmaps.iter_mut().enumerate() {
            fm::insert_rho(bits, self.len, hash::rho(self.seed, i, item));
        }
    }

    /// Formula 6: the estimated number of distinct items inserted.
    pub fn estimate(&self) -> f64 {
        let sum: u32 = self
            .bitmaps
            .iter()
            .map(|&bits| fm::min_zero_bit(bits, self.len) as u32)
            .sum();
        let mean = sum as f64 / self.num_sketches() as f64;
        2f64.powf(mean) / PHI
    }

    /// The estimate rounded to a whole rank, never below the number of
    /// set "levels" (so a single insert yields rank >= 1).
    pub fn rank(&self) -> u64 {
        self.estimate().round() as u64
    }

    /// Do the bundles share a hash family and shape (seed, `F` and `L`),
    /// so that [`FmBundle::merge`] accepts one into the other?
    #[inline]
    pub fn same_family(&self, other: &FmBundle) -> bool {
        (self.seed, self.len, self.bitmaps.len()) == (other.seed, other.len, other.bitmaps.len())
    }

    /// Does `other` add nothing to this bundle: same family, and every
    /// bit it sets already set here? Exactly when merging `other` would
    /// leave this bundle as it is; `false`, not a panic, for bundles of
    /// another family or shape.
    ///
    /// The bits `other` adds are OR-ed over every word and tested once:
    /// no early exit, so the loop vectorizes. Most copies a gossip peer
    /// receives are covered, and a covered copy reads every word anyway.
    #[inline]
    pub fn covers(&self, other: &FmBundle) -> bool {
        self.same_family(other)
            && self
                .bitmaps
                .iter()
                .zip(&other.bitmaps)
                .fold(0, |added, (mine, theirs)| added | (theirs & !mine))
                == 0
    }

    /// Duplicate-insensitive merge (bitwise OR per sketch).
    ///
    /// # Panics
    /// Panics if the bundles have different hash families or shapes.
    pub fn merge(&mut self, other: &FmBundle) {
        assert!(
            self.same_family(other),
            "merging bundles from different hash families or of different sizes"
        );
        fm::merge(&mut self.bitmaps, &other.bitmaps);
    }

    /// Standard error of the FM estimator, roughly `0.78 / sqrt(F)`
    /// (Flajolet & Martin 1985). Useful for choosing `F`.
    pub fn standard_error(&self) -> f64 {
        0.78 / (self.num_sketches() as f64).sqrt()
    }

    /// The raw bitmaps, low bit = position 0 (e.g. for wire encoding).
    pub fn bitmaps(&self) -> &[u64] {
        &self.bitmaps
    }

    /// The family seed this bundle hashes with (for wire encoding; all
    /// peers share it as a protocol constant).
    pub fn family_seed(&self) -> u64 {
        self.seed
    }

    /// Rebuild a bundle from decoded wire parts: the family seed, the
    /// sketch length `l`, and one bitmap per sketch. Bits at or above `l`
    /// are masked off.
    ///
    /// # Panics
    /// Panics on an empty bitmap list or `l` outside `1..=64`.
    pub fn from_parts(family_seed: u64, l: u8, mut bitmaps: Vec<u64>) -> Self {
        assert!(
            !bitmaps.is_empty(),
            "empty hash family: need at least one sketch"
        );
        assert!((1..=64).contains(&l), "sketch length must be 1..=64");
        for bits in &mut bitmaps {
            *bits &= fm::mask(l);
        }
        FmBundle {
            seed: family_seed,
            len: l,
            bitmaps,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_bundle_estimates_near_one() {
        let b = FmBundle::new(1, 16, 16);
        // Empty: all Min(FM) = 0 -> estimate = 1/phi ~ 1.29.
        assert!((b.estimate() - 1.0 / PHI).abs() < 1e-9);
    }

    #[test]
    fn sizes_reported_correctly() {
        // The paper's example shape: 32 sketches x 8 bits = 256 bits.
        let b = FmBundle::new(1, 32, 8);
        assert_eq!(b.num_sketches(), 32);
        assert_eq!(b.sketch_len(), 8);
        assert_eq!(b.size_bits(), 256);
    }

    #[test]
    fn duplicate_inserts_do_not_change_estimate() {
        let mut b = FmBundle::new(2, 16, 16);
        for u in 0..50u64 {
            b.insert(u);
        }
        let est = b.estimate();
        for _ in 0..10 {
            for u in 0..50u64 {
                b.insert(u);
            }
        }
        assert_eq!(b.estimate(), est);
    }

    #[test]
    fn estimate_tracks_distinct_count_within_error() {
        // F = 64 gives ~10% standard error; check a few magnitudes.
        for &n in &[100u64, 1000, 10_000] {
            let mut b = FmBundle::new(3, 64, 24);
            for u in 0..n {
                b.insert(u.wrapping_mul(0x9E3779B97F4A7C15)); // arbitrary ids
            }
            let est = b.estimate();
            let ratio = est / n as f64;
            assert!(
                (0.6..1.6).contains(&ratio),
                "n={n}, est={est:.1}, ratio={ratio:.2}"
            );
        }
    }

    #[test]
    fn merge_equals_union() {
        let mut a = FmBundle::new(4, 32, 16);
        let mut b = FmBundle::new(4, 32, 16);
        let mut union = FmBundle::new(4, 32, 16);
        for u in 0..100u64 {
            a.insert(u);
            union.insert(u);
        }
        for u in 50..150u64 {
            b.insert(u);
            union.insert(u);
        }
        a.merge(&b);
        assert_eq!(a, union);
    }

    #[test]
    fn merge_absorbs_new_information() {
        let mut a = FmBundle::new(5, 16, 16);
        let mut b = a.clone();
        b.insert(42);
        // With 16 sketches it is (overwhelmingly) likely that inserting a
        // fresh item sets at least one new bit somewhere.
        assert_ne!(a, b);
        a.merge(&b);
        assert_eq!(a, b);
        a.merge(&b); // merging a subset changes nothing
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "different hash families")]
    fn merging_different_families_panics() {
        let mut a = FmBundle::new(1, 8, 8);
        let b = FmBundle::new(2, 8, 8);
        a.merge(&b);
    }

    #[test]
    fn rank_is_rounded_estimate() {
        let mut b = FmBundle::new(6, 32, 16);
        b.insert(1);
        assert_eq!(b.rank(), b.estimate().round() as u64);
        assert!(b.rank() >= 1);
    }

    #[test]
    fn standard_error_shrinks_with_f() {
        let small = FmBundle::new(1, 4, 16);
        let large = FmBundle::new(1, 64, 16);
        assert!(large.standard_error() < small.standard_error());
        assert!((large.standard_error() - 0.78 / 8.0).abs() < 1e-12);
    }

    /// Known answer: the bitmaps of the protocol's default 16x16 shape and
    /// family seed after a fixed id set, frozen from the build that still
    /// kept a per-bundle seed vector. Any change to the hash derivation
    /// or the rho clamp moves a bit here.
    #[test]
    fn bitmaps_match_reference() {
        let mut b = FmBundle::new(0x1ADC_0DE5_EED0, 16, 16);
        for id in [0u64, 1, 2, 3, 42, 1000, 0xDEAD_BEEF, u64::MAX] {
            b.insert(id);
        }
        assert_eq!(
            b.bitmaps(),
            [11, 15, 39, 23, 7, 7, 15, 15, 87, 23, 27, 19, 3, 3, 7, 3]
        );
        let mut narrow = FmBundle::new(7, 4, 3);
        for id in 0..5u64 {
            narrow.insert(id);
        }
        assert_eq!(narrow.bitmaps(), [5, 7, 7, 7]);
    }

    #[test]
    fn deterministic_across_instances_with_same_seed() {
        let mut a = FmBundle::new(9, 16, 16);
        let mut b = FmBundle::new(9, 16, 16);
        for u in [5u64, 17, 99, 12345] {
            a.insert(u);
            b.insert(u);
        }
        assert_eq!(a, b);
        assert_eq!(a.estimate(), b.estimate());
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Merging is commutative and idempotent at the bundle level.
        #[test]
        fn merge_commutative_idempotent(
            xs in proptest::collection::vec(any::<u64>(), 0..50),
            ys in proptest::collection::vec(any::<u64>(), 0..50),
        ) {
            let mut a = FmBundle::new(11, 8, 16);
            let mut b = FmBundle::new(11, 8, 16);
            for &x in &xs { a.insert(x); }
            for &y in &ys { b.insert(y); }
            let mut ab = a.clone();
            ab.merge(&b);
            let mut ba = b.clone();
            ba.merge(&a);
            prop_assert_eq!(&ab, &ba);
            let mut abb = ab.clone();
            abb.merge(&b);
            prop_assert_eq!(&ab, &abb);
        }

        /// `a.covers(b)` holds exactly when merging `b` into `a` leaves
        /// `a` as it is, at every shape (`F` odd or even, so the vector
        /// loop's remainder runs), and never for another seed, `F` or `L`.
        #[test]
        fn covers_iff_merge_changes_nothing(
            l in 1u8..=64,
            words in proptest::collection::vec((any::<u64>(), any::<u64>()), 1..65),
            spoil in proptest::option::of(any::<usize>()),
        ) {
            // One word per sketch, `F` = 1..=64. `b` is a subset of `a`
            // word by word, but for one word at a random position (in
            // the vector loop's body or its remainder) that may add bits.
            let f = words.len();
            let mine: Vec<u64> = words.iter().map(|&(x, _)| x).collect();
            let mut theirs: Vec<u64> = words.iter().map(|&(x, y)| x & y).collect();
            if let Some(i) = spoil {
                theirs[i % f] = words[i % f].1;
            }
            let a = FmBundle::from_parts(17, l, mine);
            let b = FmBundle::from_parts(17, l, theirs.clone());
            let mut merged = a.clone();
            merged.merge(&b);
            prop_assert_eq!(a.covers(&b), merged == a);
            prop_assert!(!a.covers(&FmBundle::from_parts(18, l, theirs.clone())));
            let other_f = if f == 1 { 2 } else { f - 1 };
            prop_assert!(!a.covers(&FmBundle::new(17, other_f, l)));
            let other_l = if l == 1 { 2 } else { l - 1 };
            prop_assert!(!a.covers(&FmBundle::from_parts(17, other_l, theirs)));
        }

        /// The estimate never decreases as items are inserted.
        #[test]
        fn estimate_monotone(xs in proptest::collection::vec(any::<u64>(), 1..100)) {
            let mut b = FmBundle::new(13, 8, 16);
            let mut last = b.estimate();
            for &x in &xs {
                b.insert(x);
                let e = b.estimate();
                prop_assert!(e >= last - 1e-9);
                last = e;
            }
        }
    }
}
