//! Deterministic, splittable randomness.
//!
//! Every stochastic component of the simulator derives its randomness
//! from the scenario's master seed via a SplitMix64 mix. Build-time draws
//! (mobility, churn, placement, interests) and the radio's loss, jitter
//! and corruption draws come from sequential streams; the protocols' coins
//! (start phase, round and entry-tick coins) and GPS noise are keyed
//! draws ([`keyed_unit`]), pure functions of what each one decides. This
//! guarantees:
//!
//! * identical runs for identical seeds, regardless of component order;
//! * adding randomness to one component does not perturb another;
//! * parallel multi-seed sweeps need no shared RNG state.

use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};

/// SplitMix64 finalizer — a high-quality 64-bit mixing function.
#[inline]
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Derive a stream seed from a master seed and a stream label.
///
/// Labels are arbitrary `u64`s; components conventionally build them from
/// a component tag and an entity id, e.g. `tag << 32 | peer_id`.
pub fn derive_seed(master: u64, stream: u64) -> u64 {
    splitmix64(splitmix64(master) ^ splitmix64(stream.wrapping_mul(0xA24BAED4963EE407)))
}

/// A uniform `f64` in `[0, 1)` that is a pure function of `(key, a, b)`.
///
/// A counter-based draw (cf. Salmon et al., "Parallel Random Numbers:
/// As Easy as 1, 2, 3", SC'11): nothing is consumed, so a caller may
/// evaluate any draw in any order, skip draws, or evaluate one twice and
/// always see the same value. The three words go through SplitMix64
/// rounds; the top 53 bits of the result become the mantissa, so every
/// value is a multiple of 2⁻⁵³, the same grid [`SimRng::unit`] samples.
#[inline]
pub fn keyed_unit(key: u64, a: u64, b: u64) -> f64 {
    let z = splitmix64(splitmix64(key ^ splitmix64(a)) ^ b);
    (z >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// A seeded simulation RNG stream.
///
/// Wraps [`SmallRng`] with constructors that enforce the derivation
/// discipline and a few convenience samplers used throughout the
/// simulator.
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: SmallRng,
}

/// Stream tags for the standard components (kept here so collisions are
/// impossible to introduce by accident).
pub mod stream {
    pub const MOBILITY: u64 = 1 << 32;
    pub const RADIO: u64 = 2 << 32;
    pub const WORKLOAD: u64 = 4 << 32;
    pub const PLACEMENT: u64 = 5 << 32;
    pub const INTEREST: u64 = 6 << 32;
    /// Fault-injection draws (chaos plans). Sub-labelled in the low bits
    /// by [`fault`] so the corruption and partition streams and the
    /// GPS-noise keys never collide with each other or with per-entity
    /// labels.
    pub const FAULT: u64 = 7 << 32;
    /// Per-peer keys for the protocols' keyed draws (start phase, round
    /// and entry-tick coins; [`keyed_unit`](super::keyed_unit)); the node
    /// id is the low bits.
    pub const ENTRY: u64 = 8 << 32;

    /// Sub-labels within the [`FAULT`] stream. Entity ids
    /// (node, wave index) occupy the low 24 bits.
    pub mod fault {
        /// Frame-corruption draws (one world-level stream).
        pub const CORRUPT: u64 = 1 << 24;
        /// Partition-wave membership draws (one stream per wave).
        pub const PARTITION: u64 = 2 << 24;
        /// Per-node keys for the keyed GPS-noise draws.
        pub const GPS: u64 = 3 << 24;
    }
}

impl SimRng {
    /// Root stream for a scenario.
    pub fn from_master(master: u64) -> Self {
        SimRng {
            inner: SmallRng::seed_from_u64(splitmix64(master)),
        }
    }

    /// A component/entity stream derived from the master seed.
    pub fn derive(master: u64, stream_label: u64) -> Self {
        SimRng {
            inner: SmallRng::seed_from_u64(derive_seed(master, stream_label)),
        }
    }

    /// Uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn unit(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    /// Uniform in `[lo, hi)` (`lo` when the interval is empty).
    #[inline]
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        if hi <= lo {
            return lo;
        }
        lo + (hi - lo) * self.unit()
    }

    /// Uniform integer in `[lo, hi)`.
    #[inline]
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        if hi <= lo {
            return lo;
        }
        self.inner.gen_range(lo..hi)
    }

    /// Bernoulli trial: true with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.unit() < p
        }
    }

    /// A raw 64-bit draw.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }
}

impl RngCore for SimRng {
    fn next_u32(&mut self) -> u32 {
        self.inner.next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.inner.fill_bytes(dest)
    }
    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.inner.try_fill_bytes(dest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::derive(42, stream::MOBILITY | 7);
        let mut b = SimRng::derive(42, stream::MOBILITY | 7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_streams_differ() {
        let mut a = SimRng::derive(42, stream::MOBILITY | 7);
        let mut b = SimRng::derive(42, stream::MOBILITY | 8);
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 3, "streams should be effectively independent");
    }

    #[test]
    fn different_masters_differ() {
        let mut a = SimRng::derive(1, stream::RADIO);
        let mut b = SimRng::derive(2, stream::RADIO);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn derive_seed_avalanches() {
        // Flipping one bit of the stream label should change about half the
        // output bits on average.
        let base = derive_seed(123, 0);
        let mut total = 0;
        for bit in 0..64 {
            total += (base ^ derive_seed(123, 1u64 << bit)).count_ones();
        }
        let avg = total as f64 / 64.0;
        assert!((avg - 32.0).abs() < 6.0, "poor avalanche: {avg}");
    }

    #[test]
    fn unit_stays_in_range_and_covers() {
        let mut r = SimRng::from_master(7);
        let mut lo = 1.0f64;
        let mut hi = 0.0f64;
        for _ in 0..10_000 {
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
            lo = lo.min(u);
            hi = hi.max(u);
        }
        assert!(lo < 0.01 && hi > 0.99);
    }

    #[test]
    fn range_f64_respects_bounds_and_degenerate() {
        let mut r = SimRng::from_master(9);
        for _ in 0..1000 {
            let x = r.range_f64(5.0, 15.0);
            assert!((5.0..15.0).contains(&x));
        }
        assert_eq!(r.range_f64(3.0, 3.0), 3.0);
        assert_eq!(r.range_f64(5.0, 2.0), 5.0);
    }

    #[test]
    fn range_u64_respects_bounds() {
        let mut r = SimRng::from_master(11);
        for _ in 0..1000 {
            let x = r.range_u64(10, 20);
            assert!((10..20).contains(&x));
        }
        assert_eq!(r.range_u64(5, 5), 5);
    }

    #[test]
    fn keyed_unit_is_pure_uniform_and_key_sensitive() {
        assert_eq!(keyed_unit(1, 2, 3), keyed_unit(1, 2, 3));
        let (mut hits, mut lo, mut hi) = (0, 1.0f64, 0.0f64);
        for tick in 0..100_000u64 {
            let u = keyed_unit(42, 7, tick * 5_000_000);
            assert!((0.0..1.0).contains(&u));
            hits += (u < 0.3) as u32;
            lo = lo.min(u);
            hi = hi.max(u);
        }
        let freq = f64::from(hits) / 100_000.0;
        assert!((freq - 0.3).abs() < 0.01, "freq={freq}");
        assert!(lo < 0.001 && hi > 0.999);
        // Each of the three words changes the draw.
        let base = keyed_unit(42, 7, 5);
        assert_ne!(base, keyed_unit(43, 7, 5));
        assert_ne!(base, keyed_unit(42, 8, 5));
        assert_ne!(base, keyed_unit(42, 7, 6));
        // The key and the first word are not interchangeable.
        assert_ne!(keyed_unit(7, 42, 5), base);
    }

    #[test]
    fn chance_extremes_and_frequency() {
        let mut r = SimRng::from_master(13);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(!r.chance(-0.5));
        assert!(r.chance(1.5));
        let hits = (0..100_000).filter(|_| r.chance(0.3)).count();
        let freq = hits as f64 / 100_000.0;
        assert!((freq - 0.3).abs() < 0.01, "freq={freq}");
    }
}
