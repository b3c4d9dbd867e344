//! Flajolet–Martin bitmaps: one sketch is a `u64` of which the low
//! `len` (`1..=64`) bits are addressable.
//!
//! Inserting an element sets bit `rho(hash(x))` (capped at `len - 1`).
//! The paper's `Min(FM)` statistic — "the least bit (from the left) with
//! value 0, or `L` if all bits are 1" — is the classic FM `R` statistic:
//! the index of the lowest unset bit.

/// The low `len` bits, `len` in `0..=64`.
#[inline]
pub(crate) fn mask(len: u8) -> u64 {
    if len == 64 {
        u64::MAX
    } else {
        (1u64 << len) - 1
    }
}

/// The bit an element whose `rho` statistic is `rho` sets in a `len`-bit
/// sketch. Values beyond the bitmap length clamp to the top bit, as in
/// the original algorithm.
#[inline]
pub(crate) fn rho_bit(len: u8, rho: u32) -> u32 {
    rho.min(len as u32 - 1)
}

/// The paper's `Min(FM)`: index of the lowest zero bit, or `len` when
/// every bit is set.
#[inline]
pub(crate) fn min_zero_bit(bits: u64, len: u8) -> u8 {
    let tz = (!bits & mask(len)).trailing_zeros() as u8;
    tz.min(len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FmBundle;

    /// Record an element whose `rho` statistic is `rho` in one sketch.
    fn insert_rho(bits: &mut u64, len: u8, rho: u32) {
        *bits |= 1u64 << rho_bit(len, rho);
    }

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

    /// Merging is a bitwise OR of the packed sketches: it unions every
    /// sketch's bits, and merging again changes nothing.
    #[test]
    fn merge_is_or_and_idempotent() {
        // Three 16-bit sketches, the middle one straddling no word: bits
        // 0 and 2 of sketch 1 on one side, bit 1 on the other.
        let (mut a, mut b) = ([0u8; 6], [0u8; 6]);
        a[2] = 0b101;
        b[2] = 0b010;
        let mut merged = FmBundle::from_packed(1, 3, 16, &b);
        merged.merge(&FmBundle::from_packed(1, 3, 16, &a));
        let union = FmBundle::from_packed(1, 3, 16, &[0, 0, 0b111, 0, 0, 0]);
        assert_eq!(merged, union);
        merged.merge(&FmBundle::from_packed(1, 3, 16, &a)); // duplicates change nothing
        assert_eq!(merged, union);
    }

    #[test]
    #[should_panic(expected = "different sizes")]
    fn merging_mismatched_sizes_panics() {
        let mut a = FmBundle::new(1, 4, 8);
        a.merge(&FmBundle::new(1, 4, 16));
    }

    /// Bits past `F·L` in the wire bytes are not the bundle's.
    #[test]
    fn from_bits_masks_excess() {
        let b = FmBundle::from_packed(1, 1, 4, &[0xFF; 32]);
        assert_eq!(b, FmBundle::from_packed(1, 1, 4, &[0b1111]));
        assert_eq!(b.packed()[..2], [0b1111, 0]);
        assert_eq!(b.estimate(), 2f64.powi(4) / crate::PHI);
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
    #[should_panic(expected = "sketch length must be 1..=56")]
    fn zero_length_rejected() {
        let _ = FmBundle::new(1, 1, 0);
    }
}
