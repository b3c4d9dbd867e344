//! HyperLogLog — the modern alternative to FM sketches.
//!
//! The paper (2009) uses Flajolet–Martin bitmaps for duplicate-
//! insensitive distinct counting. HyperLogLog (Flajolet et al., 2007)
//! achieves better accuracy per bit by keeping, per register, the
//! *maximum* `rho` observed rather than a bitmap of all observed values.
//! This module implements a compact HLL with the same merge-by-max
//! duplicate insensitivity, so the popularity experiment can compare the
//! two designs at equal wire budgets (`ia-experiments`' popularity study
//! and the `sketch_shootout` bench).
//!
//! Registers are 6 bits (enough for 64-bit hashes); `m` registers cost
//! `6m` bits on the wire, so the paper's 256-bit budget buys `m = 42`
//! registers (~16 % standard error) versus FM's 16x16 layout (~19.5 %).

use crate::hash::mix;

/// A HyperLogLog sketch with `m` six-bit registers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HyperLogLog {
    registers: Vec<u8>,
    seed: u64,
}

impl HyperLogLog {
    /// An empty sketch with `m >= 8` registers hashed with `seed`
    /// (a deployment-wide constant, like the FM family seed).
    pub fn new(seed: u64, m: usize) -> Self {
        assert!(m >= 8, "need at least 8 registers");
        HyperLogLog {
            registers: vec![0; m],
            seed,
        }
    }

    /// The largest register count fitting `bits` wire bits.
    pub fn registers_for_budget(bits: usize) -> usize {
        (bits / 6).max(8)
    }

    /// Wire size in bits (6 per register).
    pub fn size_bits(&self) -> usize {
        6 * self.registers.len()
    }

    /// Record an item; duplicates are no-ops by construction.
    pub fn insert(&mut self, item: u64) {
        let h = mix(self.seed ^ mix(item));
        let idx = (h % self.registers.len() as u64) as usize;
        // Use the upper bits for rho so index and rank stay independent.
        let rho = ((h >> 8) | (1 << 55)).trailing_zeros() as u8 + 1;
        let slot = &mut self.registers[idx];
        *slot = (*slot).max(rho.min(56));
    }

    /// Duplicate-insensitive merge: per-register maximum.
    ///
    /// # Panics
    /// Panics on mismatched shapes or seeds.
    pub fn merge(&mut self, other: &HyperLogLog) {
        assert_eq!(self.seed, other.seed, "merging different hash seeds");
        assert_eq!(
            self.registers.len(),
            other.registers.len(),
            "merging different register counts"
        );
        for (a, &b) in self.registers.iter_mut().zip(&other.registers) {
            *a = (*a).max(b);
        }
    }

    /// The HLL estimate with the standard small-range (linear counting)
    /// correction.
    pub fn estimate(&self) -> f64 {
        let m = self.registers.len() as f64;
        let alpha = match self.registers.len() {
            8..=16 => 0.673,
            17..=32 => 0.697,
            33..=64 => 0.709,
            _ => 0.7213 / (1.0 + 1.079 / m),
        };
        let sum: f64 = self.registers.iter().map(|&r| 2f64.powi(-(r as i32))).sum();
        let raw = alpha * m * m / sum;
        let zeros = self.registers.iter().filter(|&&r| r == 0).count();
        if raw <= 2.5 * m && zeros > 0 {
            // Linear counting for small cardinalities.
            m * (m / zeros as f64).ln()
        } else {
            raw
        }
    }

    /// Theoretical standard error, `1.04 / sqrt(m)`.
    pub fn standard_error(&self) -> f64 {
        1.04 / (self.registers.len() as f64).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_estimates_zero_ish() {
        let h = HyperLogLog::new(1, 42);
        assert!(h.estimate() < 1.0);
    }

    #[test]
    fn budget_sizing() {
        assert_eq!(HyperLogLog::registers_for_budget(256), 42);
        assert_eq!(HyperLogLog::registers_for_budget(10), 8);
        let h = HyperLogLog::new(1, 42);
        assert_eq!(h.size_bits(), 252);
    }

    #[test]
    fn duplicates_do_not_change_estimate() {
        let mut h = HyperLogLog::new(2, 42);
        for u in 0..100u64 {
            h.insert(u);
        }
        let e = h.estimate();
        for _ in 0..5 {
            for u in 0..100u64 {
                h.insert(u);
            }
        }
        assert_eq!(h.estimate(), e);
    }

    #[test]
    fn estimate_tracks_cardinality() {
        for &n in &[50u64, 200, 1000, 10_000] {
            let mut h = HyperLogLog::new(3, 64);
            for u in 0..n {
                h.insert(u.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            }
            let ratio = h.estimate() / n as f64;
            assert!(
                (0.65..1.5).contains(&ratio),
                "n={n}: estimate {:.1} (ratio {ratio:.2})",
                h.estimate()
            );
        }
    }

    #[test]
    fn merge_equals_union() {
        let mut a = HyperLogLog::new(4, 42);
        let mut b = HyperLogLog::new(4, 42);
        let mut union = HyperLogLog::new(4, 42);
        for u in 0..300u64 {
            a.insert(u);
            union.insert(u);
        }
        for u in 150..450u64 {
            b.insert(u);
            union.insert(u);
        }
        a.merge(&b);
        assert_eq!(a, union);
    }

    #[test]
    fn better_accuracy_per_bit_than_fm_in_theory() {
        // At the paper's 256-bit budget: HLL m=42 vs FM F=16.
        let hll = HyperLogLog::new(1, HyperLogLog::registers_for_budget(256));
        let fm = crate::FmBundle::new(1, 16, 16);
        assert!(hll.standard_error() < fm.standard_error());
    }

    #[test]
    #[should_panic(expected = "different hash seeds")]
    fn merging_different_seeds_panics() {
        let mut a = HyperLogLog::new(1, 16);
        let b = HyperLogLog::new(2, 16);
        a.merge(&b);
    }

    #[test]
    #[should_panic(expected = "at least 8 registers")]
    fn too_few_registers_rejected() {
        let _ = HyperLogLog::new(1, 4);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Merge is commutative and idempotent; estimates never decrease
        /// under insertion.
        #[test]
        fn merge_laws(
            xs in proptest::collection::vec(any::<u64>(), 0..80),
            ys in proptest::collection::vec(any::<u64>(), 0..80),
        ) {
            let mut a = HyperLogLog::new(7, 16);
            let mut b = HyperLogLog::new(7, 16);
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

        /// Estimates grow with insertions up to the well-known dip at the
        /// linear-counting -> raw-estimator hand-off (bounded here), and
        /// duplicate insertions never change the estimate at all.
        #[test]
        fn estimate_quasi_monotone_and_duplicate_stable(
            xs in proptest::collection::vec(any::<u64>(), 1..100),
        ) {
            let mut h = HyperLogLog::new(9, 16);
            let mut peak = h.estimate();
            for &x in &xs {
                h.insert(x);
                let e = h.estimate();
                // Regime hand-off may dip, but never below 60% of the peak.
                prop_assert!(e >= 0.6 * peak - 1e-9, "estimate fell {peak} -> {e}");
                peak = peak.max(e);
                let before = h.estimate();
                h.insert(x); // duplicate
                prop_assert_eq!(h.estimate(), before);
            }
        }
    }
}
