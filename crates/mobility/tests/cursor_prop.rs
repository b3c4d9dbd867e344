//! Property: cursor-accelerated lookups are bitwise-identical to the
//! binary-search path for *any* query sequence — monotone (the DES
//! clock), backward-jittered (velocity-fix probes), or clamped outside
//! the plan entirely. The cursor is pure acceleration; a hint can never
//! change a returned value.

use ia_des::{SimDuration, SimTime};
use ia_geo::Rect;
use ia_mobility::{Fleet, FleetCursor, RandomWaypoint};
use proptest::prelude::*;

fn fleet(n: usize, seed: u64, end_secs: f64) -> Fleet {
    let model = RandomWaypoint::paper(Rect::with_size(1000.0, 1000.0), 10.0, 5.0);
    Fleet::generate(&model, n, seed, SimTime::ZERO, SimTime::from_secs(end_secs))
}

/// Turn per-step micro increments into an absolute monotone time series.
fn monotone_times(increments: &[u64]) -> Vec<SimTime> {
    let mut t = 0u64;
    increments
        .iter()
        .map(|&d| {
            t += d;
            SimTime::from_micros(t)
        })
        .collect()
}

proptest! {
    /// Monotone query sequences (the hot path): every position and
    /// velocity estimate agrees bit-for-bit with the uncached fleet.
    #[test]
    fn monotone_queries_match_binary_search(
        seed in 0u64..1_000,
        increments in proptest::collection::vec(0u64..5_000_000, 1..200),
    ) {
        let f = fleet(4, seed, 120.0);
        let mut c = FleetCursor::new();
        let dt = SimDuration::from_millis(1000);
        for t in monotone_times(&increments) {
            for node in 0..4 {
                let (p, q) = (c.position(&f, node, t), f.position(node, t));
                prop_assert_eq!(p.x.to_bits(), q.x.to_bits());
                prop_assert_eq!(p.y.to_bits(), q.y.to_bits());
                let (e, g) = (
                    c.estimated_velocity(&f, node, t, dt),
                    f.estimated_velocity(node, t, dt),
                );
                prop_assert_eq!(e.x.to_bits(), g.x.to_bits());
                prop_assert_eq!(e.y.to_bits(), g.y.to_bits());
            }
        }
    }

    /// Arbitrary (backward-jittering) query sequences: the cursor falls
    /// back to binary search on backward jumps and must still agree.
    #[test]
    fn jittered_queries_match_binary_search(
        seed in 0u64..1_000,
        times in proptest::collection::vec(0u64..150_000_000, 1..200),
    ) {
        let f = fleet(3, seed, 120.0);
        let mut c = FleetCursor::new();
        for &micros in &times {
            let t = SimTime::from_micros(micros);
            for node in 0..3 {
                let (p, q) = (c.position(&f, node, t), f.position(node, t));
                prop_assert_eq!(p.x.to_bits(), q.x.to_bits());
                prop_assert_eq!(p.y.to_bits(), q.y.to_bits());
            }
        }
    }

    /// Queries clamped outside the plan (before the first leg, past the
    /// last) agree, including when interleaved with in-plan queries that
    /// drag the hint around.
    #[test]
    fn clamped_outside_plan_queries_match(
        seed in 0u64..1_000,
        inside in 0u64..120_000_000,
    ) {
        let f = fleet(2, seed, 120.0);
        let mut c = FleetCursor::new();
        let probes = [
            SimTime::from_micros(inside),
            SimTime::from_secs(10_000.0), // far past the end: clamp to last
            SimTime::ZERO,                // plan start: clamp to first
            SimTime::from_micros(inside),
        ];
        for &t in &probes {
            for node in 0..2 {
                let (p, q) = (c.position(&f, node, t), f.position(node, t));
                prop_assert_eq!(p.x.to_bits(), q.x.to_bits());
                prop_assert_eq!(p.y.to_bits(), q.y.to_bits());
            }
        }
    }
}
