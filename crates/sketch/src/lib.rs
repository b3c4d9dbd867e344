//! Flajolet–Martin (FM) probabilistic distinct counting.
//!
//! The paper ranks an advertisement by the number of *distinct* users
//! whose interests it matches (formula 5), estimated without duplicate
//! counting by piggybacking a fixed-size bundle of FM bitmap sketches on
//! the advertisement message (§III-E). This crate implements:
//!
//! * [`FmBundle`] — plain data with no heap: the family seed, the shape,
//!   and `F` bitmaps of `L` bits, one per hash function, packed into 256
//!   bits as the wire carries them. Hash function `i` is a pure function
//!   of `(seed, i)`; each bitmap keeps the classic FM `rho`/`min`
//!   statistic, and the bundle averages them into the estimator of
//!   formula 6, `E = 2^(sum min_i / F) / phi`, `phi ≈ 0.77351`;
//! * merge (bitwise OR — the duplicate-insensitivity the paper relies on)
//!   and the `(epsilon, delta)` sizing rule quoted in the paper;
//! * [`HyperLogLog`] — the modern alternative, for comparison.

pub mod bundle;
mod fm;
mod hash;
pub mod hll;

pub use bundle::FmBundle;
pub use hll::HyperLogLog;

/// Flajolet–Martin's magic constant `phi`: the expected bias factor of
/// the `2^R` estimator.
pub const PHI: f64 = 0.77351;
