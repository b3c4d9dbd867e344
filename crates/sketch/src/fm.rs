//! Flajolet–Martin bitmaps: one `u64` per sketch, of which the low
//! `len` (`1..=64`) bits are addressable.
//!
//! Inserting an element sets bit `rho(hash(x))` (capped at `len - 1`).
//! The paper's `Min(FM)` statistic — "the least bit (from the left) with
//! value 0, or `L` if all bits are 1" — is the classic FM `R` statistic:
//! the index of the lowest unset bit.

/// The addressable bits of a `len`-bit bitmap.
#[inline]
pub(crate) fn mask(len: u8) -> u64 {
    if len == 64 {
        u64::MAX
    } else {
        (1u64 << len) - 1
    }
}

/// Record an element whose `rho` statistic is `rho`. Values beyond the
/// bitmap length clamp to the top bit, as in the original algorithm.
#[inline]
pub(crate) fn insert_rho(bits: &mut u64, len: u8, rho: u32) {
    let pos = rho.min(len as u32 - 1);
    *bits |= 1u64 << pos;
}

/// The paper's `Min(FM)`: index of the lowest zero bit, or `len` when
/// every bit is set.
#[inline]
pub(crate) fn min_zero_bit(bits: u64, len: u8) -> u8 {
    let tz = (!bits & mask(len)).trailing_zeros() as u8;
    tz.min(len)
}

/// Duplicate-insensitive merge: bitwise OR, bitmap by bitmap.
#[inline]
pub(crate) fn merge(into: &mut [u64], from: &[u64]) {
    for (a, b) in into.iter_mut().zip(from) {
        *a |= b;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FmBundle;

    #[test]
    fn empty_sketch_min_zero_is_zero() {
        assert_eq!(min_zero_bit(0, 16), 0);
    }

    #[test]
    fn insert_sets_expected_bit() {
        let mut s = 0;
        insert_rho(&mut s, 16, 0);
        assert_eq!(s, 0b1);
        assert_eq!(min_zero_bit(s, 16), 1);
        insert_rho(&mut s, 16, 1);
        assert_eq!(s, 0b11);
        assert_eq!(min_zero_bit(s, 16), 2);
        insert_rho(&mut s, 16, 3);
        assert_eq!(s, 0b1011);
        assert_eq!(min_zero_bit(s, 16), 2, "gap at bit 2 caps the statistic");
    }

    #[test]
    fn rho_clamps_to_top_bit() {
        let mut s = 0;
        insert_rho(&mut s, 4, 63);
        assert_eq!(s, 0b1000);
    }

    #[test]
    fn full_sketch_min_zero_is_len() {
        let mut s = 0;
        for i in 0..8 {
            insert_rho(&mut s, 8, i);
        }
        assert_eq!(min_zero_bit(s, 8), 8);
    }

    #[test]
    fn merge_is_or_and_idempotent() {
        let (mut a, mut b) = (0, 0);
        insert_rho(&mut a, 16, 0);
        insert_rho(&mut a, 16, 2);
        insert_rho(&mut b, 16, 1);
        let mut merged = [b];
        merge(&mut merged, &[a]);
        assert_eq!(merged, [0b111]);
        merge(&mut merged, &[a]); // duplicates change nothing
        assert_eq!(merged, [0b111]);
    }

    #[test]
    #[should_panic(expected = "different sizes")]
    fn merging_mismatched_sizes_panics() {
        let mut a = FmBundle::new(1, 4, 8);
        a.merge(&FmBundle::new(1, 4, 16));
    }

    #[test]
    fn from_bits_masks_excess() {
        let b = FmBundle::from_parts(1, 4, vec![u64::MAX]);
        assert_eq!(b.bitmaps(), [0b1111]);
        assert_eq!(min_zero_bit(b.bitmaps()[0], 4), 4);
    }

    #[test]
    fn len_64_sketch_works() {
        let mut s = 0;
        insert_rho(&mut s, 64, 63);
        assert_eq!(min_zero_bit(s, 64), 0);
        for i in 0..64 {
            insert_rho(&mut s, 64, i);
        }
        assert_eq!(min_zero_bit(s, 64), 64);
    }

    #[test]
    #[should_panic(expected = "sketch length must be 1..=64")]
    fn zero_length_rejected() {
        let _ = FmBundle::new(1, 1, 0);
    }
}
