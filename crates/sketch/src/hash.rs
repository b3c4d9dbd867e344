//! The shared hash family: `F` independent 64-bit hash functions.
//!
//! The paper requires "F independently generated hash functions"; hash
//! function `i` is a pure function of the family seed and `i`, derived
//! with SplitMix64-style mixing. All peers must share the family seed (it
//! is a protocol constant carried by the advertisement format), so hashing
//! the same user id on different peers sets the same sketch bits.

/// SplitMix64 finalizer — the one mixing function of this crate.
#[inline]
pub(crate) fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Hash function `i` of the family `family_seed`, applied to `x`.
#[inline]
pub(crate) fn hash(family_seed: u64, i: usize, x: u64) -> u64 {
    let seed = mix(mix(family_seed) ^ mix((i as u64).wrapping_mul(0xA24BAED4963EE407)));
    mix(seed ^ mix(x))
}

/// FM's `rho` statistic for function `i`: the number of trailing zero
/// bits of the hash — geometrically distributed, `P(rho >= k) = 2^-k`.
#[inline]
pub(crate) fn rho(family_seed: u64, i: usize, x: u64) -> u32 {
    hash(family_seed, i, x).trailing_zeros()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        for i in 0..8 {
            assert_eq!(hash(42, i, 12345), hash(42, i, 12345));
        }
        assert_ne!(hash(42, 0, 12345), hash(43, 0, 12345));
    }

    #[test]
    fn functions_are_distinct() {
        let x = 999u64;
        let mut outs: Vec<u64> = (0..16).map(|i| hash(7, i, x)).collect();
        outs.sort_unstable();
        outs.dedup();
        assert_eq!(outs.len(), 16, "hash functions collide on a fixed input");
    }

    #[test]
    fn rho_is_geometric() {
        // Over many inputs, P(rho = 0) ~ 1/2, P(rho = 1) ~ 1/4, ...
        let n = 100_000u64;
        let mut counts = [0u64; 4];
        for x in 0..n {
            let r = rho(1, 0, x);
            if (r as usize) < counts.len() {
                counts[r as usize] += 1;
            }
        }
        for (k, &c) in counts.iter().enumerate() {
            let expect = n as f64 / 2f64.powi(k as i32 + 1);
            let ratio = c as f64 / expect;
            assert!((0.9..1.1).contains(&ratio), "rho={k}: ratio {ratio}");
        }
    }

    #[test]
    fn avalanche_on_input_bit_flips() {
        let base = hash(3, 0, 0);
        let mut total = 0;
        for bit in 0..64 {
            total += (base ^ hash(3, 0, 1u64 << bit)).count_ones();
        }
        let avg = total as f64 / 64.0;
        assert!((avg - 32.0).abs() < 6.0, "poor avalanche: {avg}");
    }

    #[test]
    #[should_panic(expected = "empty hash family")]
    fn zero_functions_rejected() {
        let _ = crate::FmBundle::new(1, 0, 16);
    }
}
