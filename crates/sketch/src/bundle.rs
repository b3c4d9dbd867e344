//! A bundle of `F` FM sketches with the averaged estimator (formula 6).

use crate::{fm, hash, PHI};

/// The bits a bundle holds at most: the paper's example budget
/// (§III-E, 32 sketches of 8 bits), and the size of the packed store.
pub const MAX_BITS: usize = 256;

/// The longest sketch, bits: the wire format's limit.
pub const MAX_SKETCH_LEN: u8 = 56;

/// `F` FM bitmaps of `L` bits each, hashed with the family `seed`,
/// packed inline.
///
/// This is the structure piggybacked on every advertisement message; its
/// wire size is `F * L` bits. Formula 6 gives the distinct-count
/// estimate:
///
/// ```text
/// rank = (1 / phi) * 2^( sum_i Min(FM_i) / F )
/// ```
///
/// The sketches live in one `[u64; 4]`: sketch `i` is bits
/// `i·L .. (i+1)·L` of the little-endian words, so a sketch may straddle
/// two words. That is bit for bit the LSB-first packing the wire carries
/// ([`FmBundle::packed`]), and it caps a bundle at [`MAX_BITS`]: `F ≥ 1`,
/// `L` in `1..=`[`MAX_SKETCH_LEN`], `F·L ≤ 256`, and `F ≤ 255`, the
/// wire's byte for it ([`FmBundle::fits`]). A bundle owns no heap, so
/// copying an ad copies its sketches with it, and merging or comparing
/// two bundles is four word operations whatever the shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FmBundle {
    /// The shared family seed (a protocol constant).
    seed: u64,
    /// The packed sketches; every bit at or above `F·L` is zero.
    words: [u64; 4],
    /// Number of sketches `F`.
    f: u8,
    /// Sketch length `L`.
    len: u8,
}

impl FmBundle {
    /// An empty bundle of `f` sketches of `l` bits, hashed with the family
    /// `family_seed`. All peers in a deployment must use the same seed (a
    /// protocol constant).
    ///
    /// # Panics
    /// Panics unless the shape [`fits`](FmBundle::fits).
    pub fn new(family_seed: u64, f: usize, l: u8) -> Self {
        assert!(f > 0, "empty hash family: need at least one sketch");
        assert!(
            (1..=MAX_SKETCH_LEN).contains(&l),
            "sketch length must be 1..={MAX_SKETCH_LEN}"
        );
        assert!(
            Self::fits(f, l),
            "a {f} x {l} sketch bundle is over {MAX_BITS} bits or 255 sketches"
        );
        FmBundle {
            seed: family_seed,
            words: [0; 4],
            f: f as u8,
            len: l,
        }
    }

    /// Can a bundle have `f` sketches of `l` bits: `f ≥ 1`, `l` in
    /// `1..=`[`MAX_SKETCH_LEN`], `f·l ≤ `[`MAX_BITS`] and `f ≤ 255`?
    pub fn fits(f: usize, l: u8) -> bool {
        (1..=MAX_SKETCH_LEN).contains(&l) && (1..=255).contains(&f) && f * l as usize <= MAX_BITS
    }

    pub fn num_sketches(&self) -> usize {
        self.f as usize
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
        let len = self.len as usize;
        for i in 0..self.num_sketches() {
            let bit = i * len + fm::rho_bit(self.len, hash::rho(self.seed, i, item)) as usize;
            self.words[bit / 64] |= 1 << (bit % 64);
        }
    }

    /// Sketch `i`'s bitmap, low bit = position 0.
    #[inline]
    fn sketch(&self, i: usize) -> u64 {
        let bit = i * self.len as usize;
        let (word, shift) = (bit / 64, bit % 64);
        let mut bits = self.words[word] >> shift;
        if shift + self.len as usize > 64 {
            bits |= self.words[word + 1] << (64 - shift);
        }
        bits & fm::mask(self.len)
    }

    /// Formula 6: the estimated number of distinct items inserted.
    pub fn estimate(&self) -> f64 {
        let sum: u32 = (0..self.num_sketches())
            .map(|i| fm::min_zero_bit(self.sketch(i), self.len) as u32)
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
        (self.seed, self.len, self.f) == (other.seed, other.len, other.f)
    }

    /// Does `other` add nothing to this bundle: same family, and every
    /// bit it sets already set here? Exactly when merging `other` would
    /// leave this bundle as it is; `false`, not a panic, for bundles of
    /// another family or shape.
    ///
    /// The bits `other` adds are OR-ed over the four words and tested
    /// once, with no branch per word. Most copies a gossip peer receives
    /// are covered, and a covered copy reads every word anyway.
    #[inline]
    pub fn covers(&self, other: &FmBundle) -> bool {
        self.same_family(other)
            && self
                .words
                .iter()
                .zip(&other.words)
                .fold(0, |added, (mine, theirs)| added | (theirs & !mine))
                == 0
    }

    /// Duplicate-insensitive merge: bitwise OR, which is OR per sketch.
    ///
    /// # Panics
    /// Panics if the bundles have different hash families or shapes.
    #[inline]
    pub fn merge(&mut self, other: &FmBundle) {
        assert!(
            self.same_family(other),
            "merging bundles from different hash families or of different sizes"
        );
        for (mine, theirs) in self.words.iter_mut().zip(&other.words) {
            *mine |= theirs;
        }
    }

    /// Standard error of the FM estimator, roughly `0.78 / sqrt(F)`
    /// (Flajolet & Martin 1985). Useful for choosing `F`.
    pub fn standard_error(&self) -> f64 {
        0.78 / (self.num_sketches() as f64).sqrt()
    }

    /// The family seed this bundle hashes with (for wire encoding; all
    /// peers share it as a protocol constant).
    pub fn family_seed(&self) -> u64 {
        self.seed
    }

    /// The packed sketches as the wire carries them: sketch `i` at bits
    /// `i·L .. (i+1)·L`, bit `k` being bit `k % 8` of byte `k / 8`. The
    /// wire keeps the first `ceil(F·L / 8)` bytes; the rest are zero.
    pub fn packed(&self) -> [u8; MAX_BITS / 8] {
        let mut bytes = [0; MAX_BITS / 8];
        for (chunk, word) in bytes.chunks_exact_mut(8).zip(&self.words) {
            chunk.copy_from_slice(&word.to_le_bytes());
        }
        bytes
    }

    /// Rebuild a bundle from decoded wire parts: the family seed, the
    /// shape, and the packed sketches as [`FmBundle::packed`] lays them
    /// out (a shorter slice reads as zero-padded). Bits at or above `F·L`
    /// are masked off.
    ///
    /// # Panics
    /// Panics unless the shape [`fits`](FmBundle::fits), or if `packed`
    /// is longer than `MAX_BITS / 8` bytes.
    pub fn from_packed(family_seed: u64, f: usize, l: u8, packed: &[u8]) -> Self {
        let mut bundle = FmBundle::new(family_seed, f, l);
        let mut bytes = [0; MAX_BITS / 8];
        bytes[..packed.len()].copy_from_slice(packed);
        let bits = bundle.size_bits();
        for (w, (word, chunk)) in bundle
            .words
            .iter_mut()
            .zip(bytes.chunks_exact(8))
            .enumerate()
        {
            let keep = bits.saturating_sub(64 * w).min(64);
            *word = u64::from_le_bytes(chunk.try_into().expect("8 bytes")) & fm::mask(keep as u8);
        }
        bundle
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every sketch's bitmap, in order.
    fn bitmaps(b: &FmBundle) -> Vec<u64> {
        (0..b.num_sketches()).map(|i| b.sketch(i)).collect()
    }

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
        // F = 16 gives ~20% standard error; check a few magnitudes.
        for &n in &[100u64, 1000, 10_000] {
            let mut b = FmBundle::new(3, 16, 16);
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
        let mut a = FmBundle::new(4, 16, 16);
        let mut b = FmBundle::new(4, 16, 16);
        let mut union = FmBundle::new(4, 16, 16);
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
        let mut b = a;
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
        let mut b = FmBundle::new(6, 16, 16);
        b.insert(1);
        assert_eq!(b.rank(), b.estimate().round() as u64);
        assert!(b.rank() >= 1);
    }

    #[test]
    fn standard_error_shrinks_with_f() {
        let small = FmBundle::new(1, 4, 16);
        let large = FmBundle::new(1, 64, 4);
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
            bitmaps(&b),
            [11, 15, 39, 23, 7, 7, 15, 15, 87, 23, 27, 19, 3, 3, 7, 3]
        );
        let mut narrow = FmBundle::new(7, 4, 3);
        for id in 0..5u64 {
            narrow.insert(id);
        }
        assert_eq!(bitmaps(&narrow), [5, 7, 7, 7]);
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

    #[test]
    fn a_bundle_owns_no_heap() {
        assert!(size_of::<FmBundle>() <= 48);
        assert!(!std::mem::needs_drop::<FmBundle>());
    }
}

/// The bundle as it was before the sketches were packed, one `u64` per
/// sketch in a `Vec`: the oracle for the packed bundle.
#[cfg(test)]
mod reference {
    use crate::{fm, hash, PHI};

    #[derive(Debug, Clone, PartialEq)]
    pub struct VecBundle {
        pub seed: u64,
        pub len: u8,
        pub bitmaps: Vec<u64>,
    }

    impl VecBundle {
        pub fn new(seed: u64, f: usize, len: u8) -> Self {
            VecBundle {
                seed,
                len,
                bitmaps: vec![0; f],
            }
        }

        pub fn insert(&mut self, item: u64) {
            for (i, bits) in self.bitmaps.iter_mut().enumerate() {
                let pos = hash::rho(self.seed, i, item).min(self.len as u32 - 1);
                *bits |= 1u64 << pos;
            }
        }

        pub fn estimate(&self) -> f64 {
            let sum: u32 = self
                .bitmaps
                .iter()
                .map(|&bits| fm::min_zero_bit(bits, self.len) as u32)
                .sum();
            let mean = sum as f64 / self.bitmaps.len() as f64;
            2f64.powf(mean) / PHI
        }

        pub fn rank(&self) -> u64 {
            self.estimate().round() as u64
        }

        pub fn merge(&mut self, other: &VecBundle) {
            for (a, b) in self.bitmaps.iter_mut().zip(&other.bitmaps) {
                *a |= b;
            }
        }

        pub fn covers(&self, other: &VecBundle) -> bool {
            (self.seed, self.len, self.bitmaps.len())
                == (other.seed, other.len, other.bitmaps.len())
                && self
                    .bitmaps
                    .iter()
                    .zip(&other.bitmaps)
                    .all(|(mine, theirs)| theirs & !mine == 0)
        }

        /// The wire bytes as the codec's bit-packing loop wrote them: an
        /// accumulator of leftover bits plus one sketch, flushed a byte
        /// at a time, LSB first, and a last partial byte.
        pub fn encoded(&self) -> Vec<u8> {
            let mut out = Vec::new();
            let (mut acc, mut acc_bits) = (0u64, 0u32);
            for &bits in &self.bitmaps {
                acc |= bits << acc_bits;
                acc_bits += self.len as u32;
                while acc_bits >= 8 {
                    out.push(acc as u8);
                    acc >>= 8;
                    acc_bits -= 8;
                }
            }
            if acc_bits > 0 {
                out.push(acc as u8);
            }
            out
        }
    }
}

#[cfg(test)]
mod prop_tests {
    use super::reference::VecBundle;
    use super::*;
    use proptest::prelude::*;

    /// The most sketches of `l` bits a bundle holds.
    fn most_sketches(l: u8) -> usize {
        (MAX_BITS / l as usize).min(255)
    }

    /// A shape under the cap, `L` from 1 to 56 and `F` up to its cap.
    fn shape(l: u8, f_draw: usize) -> (usize, u8) {
        (1 + f_draw % most_sketches(l), l)
    }

    /// Build a packed bundle and its reference with `users`.
    fn pair(seed: u64, (f, l): (usize, u8), users: &[u64]) -> (FmBundle, VecBundle) {
        let (mut packed, mut reference) = (FmBundle::new(seed, f, l), VecBundle::new(seed, f, l));
        for &u in users {
            packed.insert(u);
            reference.insert(u);
        }
        (packed, reference)
    }

    /// Whatever the packed bundle answers, the reference answers: each
    /// sketch's bits, the estimate to the bit, the rank, `covers` both
    /// ways, the merged bundle, and the encoded bytes, which decode back
    /// to the bundle.
    fn agree(a: (FmBundle, VecBundle), b: (FmBundle, VecBundle)) -> Result<(), String> {
        let check = |x: &FmBundle, r: &VecBundle| -> Result<(), String> {
            let sketches: Vec<u64> = (0..x.num_sketches()).map(|i| x.sketch(i)).collect();
            let encoded = r.encoded();
            let bits = x.size_bits();
            let decoded = FmBundle::from_packed(r.seed, r.bitmaps.len(), r.len, &encoded);
            let mut padded = encoded.clone();
            padded.resize(MAX_BITS / 8, 0);
            // Set bits past `F·L` are not the bundle's.
            let mut dirty = padded.clone();
            for k in bits..MAX_BITS {
                dirty[k / 8] |= 1 << (k % 8);
            }
            let undirtied = FmBundle::from_packed(r.seed, r.bitmaps.len(), r.len, &dirty);
            let ok = sketches == r.bitmaps
                && x.estimate().to_bits() == r.estimate().to_bits()
                && x.rank() == r.rank()
                && x.packed()[..bits.div_ceil(8)] == encoded[..]
                && x.packed()[..] == padded[..]
                && decoded == *x
                && undirtied == *x;
            ok.then_some(()).ok_or_else(|| format!("{x:?} vs {r:?}"))
        };
        let ((pa, ra), (pb, rb)) = (a, b);
        check(&pa, &ra)?;
        check(&pb, &rb)?;
        if pa.covers(&pb) != ra.covers(&rb) || pb.covers(&pa) != rb.covers(&ra) {
            return Err(format!("covers differs on {pa:?} and {pb:?}"));
        }
        if pa.same_family(&pb) {
            let (mut pm, mut rm) = (pa, ra);
            pm.merge(&pb);
            rm.merge(&rb);
            check(&pm, &rm)?;
            if pa.covers(&pb) != (pm == pa) {
                return Err(format!("covers is not 'merge changes nothing' on {pa:?}"));
            }
        }
        Ok(())
    }

    /// Every shape under the cap, each with a few users on one side and
    /// some of them on the other, agrees with the reference. The shapes
    /// with `L` straddling a word boundary (7, 24, 56, ...) are among them.
    #[test]
    fn every_shape_matches_the_vec_reference() {
        for (f, l) in (1..=MAX_SKETCH_LEN).flat_map(|l| (1..=most_sketches(l)).map(move |f| (f, l)))
        {
            let users: Vec<u64> = (0..12u64)
                .map(|u| u.wrapping_mul(0x9E37_79B9) ^ l as u64)
                .collect();
            let a = pair(21, (f, l), &users);
            let b = pair(21, (f, l), &users[..(f % 12)]);
            agree(a, b).unwrap_or_else(|e| panic!("{f} x {l}: {e}"));
        }
    }

    /// `new` builds exactly the shapes that fit: `F·L` up to 256 bits,
    /// `L` up to 56 and `F` up to 255, and panics one sketch, one bit or
    /// one step of `L` past any of them.
    #[test]
    fn new_builds_exactly_the_shapes_that_fit() {
        for (f, l) in [(255, 1), (32, 8), (16, 16), (4, 56)] {
            assert!(FmBundle::fits(f, l), "{f} x {l}");
        }
        for (f, l) in [
            (256, 1),
            (33, 8),
            (17, 16),
            (5, 56),
            (1, 57),
            (0, 8),
            (1, 0),
        ] {
            assert!(!FmBundle::fits(f, l), "{f} x {l}");
        }
        for l in 0..=64u8 {
            let most = most_sketches(l.max(1));
            for f in [0, 1, most, most + 1] {
                let built = std::panic::catch_unwind(|| FmBundle::new(1, f, l));
                assert_eq!(built.is_ok(), FmBundle::fits(f, l), "{f} x {l}");
                if let Ok(b) = built {
                    assert_eq!(b.size_bits(), f * l as usize);
                }
            }
        }
    }

    proptest! {
        /// A random shape under the cap, random users, and the second
        /// bundle of another seed or shape in some cases: the packed
        /// bundle answers as the reference does.
        #[test]
        fn packed_bundle_matches_the_vec_reference(
            l in 1u8..=MAX_SKETCH_LEN,
            f_draw in any::<usize>(),
            mine in proptest::collection::vec(any::<u64>(), 0..40),
            theirs in proptest::collection::vec(any::<u64>(), 0..40),
            subset in any::<bool>(),
            other in 0u8..4,
        ) {
            let mine_shape = shape(l, f_draw);
            // Half the cases draw the other side's users from this one's.
            let theirs: Vec<u64> = if subset {
                mine.iter().copied().filter(|u| theirs.contains(u) || u % 3 != 0).collect()
            } else {
                theirs
            };
            let (seed, other_shape) = match other {
                0 => (18, mine_shape),
                1 => (17, (mine_shape.0 % most_sketches(l) + 1, l)),
                2 => (17, shape(if l == 1 { 2 } else { l - 1 }, mine_shape.0)),
                _ => (17, mine_shape),
            };
            let a = pair(17, mine_shape, &mine);
            let b = pair(seed, other_shape, &theirs);
            if let Err(e) = agree(a, b) {
                panic!("{e}");
            }
        }

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
            let mut ab = a;
            ab.merge(&b);
            let mut ba = b;
            ba.merge(&a);
            prop_assert_eq!(&ab, &ba);
            let mut abb = ab;
            abb.merge(&b);
            prop_assert_eq!(&ab, &abb);
        }

        /// `a.covers(b)` holds exactly when merging `b` into `a` leaves
        /// `a` as it is, at every shape under the cap, and never for
        /// another seed, `F` or `L`.
        #[test]
        fn covers_iff_merge_changes_nothing(
            l in 1u8..=MAX_SKETCH_LEN,
            f_draw in any::<usize>(),
            words in proptest::collection::vec((any::<u8>(), any::<u8>()), 32..33),
            spoil in proptest::option::of(any::<usize>()),
        ) {
            // `b` is a subset of `a` byte by byte, but for one byte at a
            // random position that may add bits.
            let (f, l) = shape(l, f_draw);
            let mine: Vec<u8> = words.iter().map(|&(x, _)| x).collect();
            let mut theirs: Vec<u8> = words.iter().map(|&(x, y)| x & y).collect();
            if let Some(i) = spoil {
                let i = i % (f * l as usize).div_ceil(8);
                theirs[i] = words[i].1;
            }
            let a = FmBundle::from_packed(17, f, l, &mine);
            let b = FmBundle::from_packed(17, f, l, &theirs);
            let mut merged = a;
            merged.merge(&b);
            prop_assert_eq!(a.covers(&b), merged == a);
            prop_assert!(!a.covers(&FmBundle::from_packed(18, f, l, &theirs)));
            let other_f = if f == 1 { 2 } else { f - 1 };
            prop_assert!(!a.covers(&FmBundle::new(17, other_f, l)));
            let other_l = if l == 1 { 2 } else { l - 1 };
            prop_assert!(!a.covers(&FmBundle::new(17, 1, other_l)));
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
