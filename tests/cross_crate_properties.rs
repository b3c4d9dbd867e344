//! Property-based integration tests across crate boundaries.

use instant_ads::core::{postpone, prob};
use instant_ads::des::{SimDuration, SimRng, SimTime};
use instant_ads::geo::{Circle, Point, Vector};
use instant_ads::mobility::{Fleet, MobilityModel, RandomWaypoint};
use instant_ads::radio::{BroadcastOutcome, Medium, RadioConfig};
use instant_ads::sketch::FmBundle;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Radio reachability is symmetric: if A's broadcast reaches B, then
    /// B's broadcast at the same instant reaches A.
    #[test]
    fn radio_reachability_symmetric(
        ax in 0.0..1000.0f64, ay in 0.0..1000.0f64,
        bx in 0.0..1000.0f64, by in 0.0..1000.0f64,
        seed in any::<u64>(),
    ) {
        use instant_ads::mobility::Trajectory;
        let end = SimTime::from_secs(10.0);
        let fleet = Fleet::from_trajectories(vec![
            Trajectory::stationary(Point::new(ax, ay), SimTime::ZERO, end),
            Trajectory::stationary(Point::new(bx, by), SimTime::ZERO, end),
        ]);
        let mut medium = Medium::new(RadioConfig::paper());
        let mut rng = SimRng::from_master(seed);
        let mut out = BroadcastOutcome::default();
        medium.broadcast_into(&fleet, SimTime::ZERO, 0, 10, &mut rng, &mut out);
        let a_hits_b = !out.deliveries.is_empty();
        medium.broadcast_into(&fleet, SimTime::ZERO, 1, 10, &mut rng, &mut out);
        let b_hits_a = !out.deliveries.is_empty();
        prop_assert_eq!(a_hits_b, b_hits_a);
    }

    /// Mobility positions sampled at a trajectory's own leg boundaries
    /// agree with positions interpolated around them (continuity of the
    /// full pipeline used by the radio).
    #[test]
    fn trajectory_positions_are_continuous(seed in any::<u64>()) {
        let model = RandomWaypoint::paper(
            instant_ads::geo::Rect::with_size(1000.0, 1000.0), 10.0, 5.0);
        let mut rng = SimRng::from_master(seed);
        let owned = model.trajectory(&mut rng, SimTime::ZERO, SimTime::from_secs(200.0));
        let tr = owned.view();
        for leg in tr.legs() {
            let t = leg.start_time;
            let before = tr.position_at(t - SimDuration::from_millis(1));
            let after = tr.position_at(t + SimDuration::from_millis(1));
            // 15 m/s * 2 ms = 3 cm max movement.
            prop_assert!(before.distance(after) < 0.1);
        }
    }

    /// The forwarding probability of a peer standing at its exact area
    /// entry point equals the boundary value (1 - alpha): geometry and
    /// probability agree about where the rim is.
    #[test]
    fn entry_point_probability_is_rim_value(
        alpha in 0.05..0.95f64,
        cx in 1000.0..4000.0f64, cy in 1000.0..4000.0f64,
        seed in any::<u64>(),
    ) {
        let model = RandomWaypoint::paper(
            instant_ads::geo::Rect::with_size(5000.0, 5000.0), 10.0, 5.0);
        let mut rng = SimRng::from_master(seed);
        let owned = model.trajectory(&mut rng, SimTime::ZERO, SimTime::from_secs(2000.0));
        let tr = owned.view();
        let circle = Circle::new(Point::new(cx, cy), 800.0);
        let entry = tr.disk_intervals(&circle, SimTime::ZERO, SimTime::from_secs(2000.0)).first().map(|&(t, _)| t);
        if let Some(t) = entry {
            let pos = tr.position_at(t);
            let d = pos.distance(circle.center);
            // Either the peer started inside, or it is on the rim.
            if t > SimTime::ZERO {
                prop_assert!((d - 800.0).abs() < 0.5, "entry at distance {d}");
                let p = prob::forwarding_probability(alpha, d, 800.0, 100.0, 25.0);
                prop_assert!((p - (1.0 - alpha)).abs() < 0.05);
            }
        }
    }

    /// Formula-4 postponement always lands in [dt, e*dt] for peers within
    /// radio range, regardless of geometry.
    #[test]
    fn postponement_bounds_for_in_range_peers(
        d in 0.0..250.0f64,
        heading in 0.0..std::f64::consts::TAU,
        speed in 0.0..30.0f64,
    ) {
        let dt = SimDuration::from_secs(5.0);
        let iv = postpone::postponement(
            dt,
            Point::ORIGIN,
            Vector::from_angle(heading) * speed,
            Point::new(d, 0.0),
            250.0,
        );
        prop_assert!(iv >= dt);
        prop_assert!(iv <= dt.mul_f64(std::f64::consts::E + 1e-9));
    }

    /// FM bundles built independently on two "peers" and merged give the
    /// same estimate as a single bundle fed the union (the wire-merge
    /// invariant the popularity protocol depends on).
    #[test]
    fn sketch_union_invariant(
        xs in proptest::collection::vec(any::<u64>(), 0..60),
        ys in proptest::collection::vec(any::<u64>(), 0..60),
    ) {
        let mk = || FmBundle::new(0xC0FFEE, 16, 16);
        let mut a = mk();
        let mut b = mk();
        let mut union = mk();
        for &x in &xs { a.insert(x); union.insert(x); }
        for &y in &ys { b.insert(y); union.insert(y); }
        a.merge(&b);
        prop_assert_eq!(a, union);
    }
}

/// Deterministic cross-crate check kept outside proptest: over a moving
/// fleet, every broadcast reaches exactly the nodes brute-force geometry
/// puts in range. Each 10 s step forces a grid rebuild; the sub-second
/// instants after it are served from the stale, widened grid, so both
/// query paths are checked. One recycled outcome buffer serves every
/// broadcast, which also proves it stays correct across interleaved
/// nodes and times.
#[test]
fn medium_agrees_with_geometry_over_time() {
    let model = RandomWaypoint::paper(instant_ads::geo::Rect::with_size(2000.0, 2000.0), 10.0, 5.0);
    let fleet = Fleet::generate(&model, 40, 77, SimTime::ZERO, SimTime::from_secs(300.0));
    let mut medium = Medium::new(RadioConfig::paper());
    let mut rng = SimRng::from_master(77);
    let mut outcome = BroadcastOutcome::default();
    for k in 0..30 {
        for offset in [0.0, 0.3, 0.7] {
            let t = SimTime::from_secs(k as f64 * 10.0 + offset);
            for node in 0..40u32 {
                let pos = fleet.position(node, t);
                let want: Vec<u32> = (0..40u32)
                    .filter(|&o| o != node && fleet.position(o, t).distance(pos) <= 250.0)
                    .collect();
                medium.broadcast_into(&fleet, t, node, 10, &mut rng, &mut outcome);
                let mut reached: Vec<u32> = outcome.deliveries.iter().map(|d| d.to).collect();
                reached.extend(outcome.drops.iter().map(|d| d.to));
                reached.sort_unstable();
                assert_eq!(reached, want, "broadcast from {node} at {t}");
            }
        }
    }
    // One rebuild per 10 s step; every sub-second query reused it.
    assert_eq!(medium.grid_rebuilds(), 30);
}
