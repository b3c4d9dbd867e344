//! The broadcast medium itself.

use crate::config::{RadioConfig, DELAY_MAX, DELAY_MIN};
use crate::contention::{airtime, Contention, TxLog};
use crate::frame::{BroadcastOutcome, Delivery, DropReason};
use crate::loss::GilbertElliott;
use crate::stats::TrafficStats;
use ia_des::{SimDuration, SimRng, SimTime};
use ia_geo::{FlatGrid, Point};
use ia_mobility::{Fleet, FleetCursor};

/// A circular dead region: receivers inside an active zone hear nothing
/// (the jammer raises their noise floor above any signal). Zones may
/// drift at a constant velocity — a jammer mounted on a vehicle.
///
/// Jamming is receiver-side: a sender inside a zone can still reach
/// receivers outside it, but nobody inside the zone receives anything
/// while it is active.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JamZone {
    /// Zone centre at `from`.
    pub center: Point,
    /// Dead-region radius, metres.
    pub radius: f64,
    /// Drift velocity, m/s per axis (zero for a stationary jammer).
    pub velocity: ia_geo::Vector,
    /// Activation time.
    pub from: SimTime,
    /// Deactivation time (exclusive).
    pub until: SimTime,
}

impl JamZone {
    /// A stationary zone active over `[from, until)`.
    pub fn stationary(center: Point, radius: f64, from: SimTime, until: SimTime) -> Self {
        JamZone {
            center,
            radius,
            velocity: ia_geo::Vector::ZERO,
            from,
            until,
        }
    }

    /// Give the zone a drift velocity.
    pub fn moving(mut self, velocity: ia_geo::Vector) -> Self {
        self.velocity = velocity;
        self
    }

    pub fn validate(&self) {
        assert!(
            self.radius > 0.0 && self.radius.is_finite(),
            "non-positive jam radius"
        );
        assert!(self.until > self.from, "empty jam window");
        assert!(self.velocity.is_finite(), "non-finite jam velocity");
    }

    /// Zone centre at time `t` (meaningful only while active).
    pub fn center_at(&self, t: SimTime) -> Point {
        let dt = t.since(self.from).as_secs();
        self.center + self.velocity * dt
    }

    /// Is `p` inside the dead region at time `t`?
    pub fn covers(&self, t: SimTime, p: Point) -> bool {
        if t < self.from || t >= self.until {
            return false;
        }
        self.center_at(t).distance(p) <= self.radius
    }
}

/// Maximum staleness tolerated for the neighbour-lookup grid before a
/// rebuild is armed (see [`Medium::refresh_grid`]). Candidate sets are
/// widened by the distance the fleet's fastest node can cover since the
/// last rebuild and then exact-checked, so results do not depend on it.
const GRID_REFRESH: SimDuration = SimDuration::from_millis(1000);

/// A shared wireless channel over a [`Fleet`] of mobile nodes.
///
/// The medium owns the traffic statistics and a lazily rebuilt spatial
/// grid; the simulation world calls [`Medium::broadcast_into`] and
/// schedules the resulting [`Delivery`] records as receive events,
/// surfacing the accompanying drops through its suppression hook.
pub struct Medium {
    config: RadioConfig,
    stats: TrafficStats,
    /// Flat CSR spatial index over the snapshot, rebuilt in place (no
    /// steady-state allocations) at a bounded staleness.
    grid: FlatGrid,
    /// When the current grid/snapshot pair was sampled; `None` before the
    /// first broadcast.
    grid_built_at: Option<SimTime>,
    /// Shared position snapshot at `grid_built_at` (index = node id):
    /// the grid is built from it, and exact-position filtering reuses it
    /// whenever the query time equals the snapshot time.
    snapshot: Vec<Point>,
    /// Result buffer of [`Medium::query_range`]: `(id, exact position)`
    /// of every node in range of the last query's centre.
    in_range: Vec<(u32, Point)>,
    /// Leg-cursor cache for position lookups. Every query the medium
    /// issues is at the current (monotone) simulation time, so lookups
    /// are O(1) amortized.
    cursor: FleetCursor,
    /// Top speed of the fleet being simulated, by which stale-grid
    /// queries widen: set by [`Medium::set_fleet_speed_bound`], or
    /// computed from the fleet at the first grid refresh.
    fleet_speed_bound: Option<f64>,
    tx_log: TxLog,
    /// Active jamming zones (fault injection).
    jam_zones: Vec<JamZone>,
    /// Burst-loss channel plus its activity window (fault injection).
    /// Applies on top of `config.loss`.
    burst: Option<(SimTime, SimTime, GilbertElliott)>,
    /// Queries served from the current snapshot since its rebuild —
    /// the adaptive-refresh demand signal (see [`Medium::refresh_grid`]).
    queries_since_rebuild: u32,
    /// Lifetime grid counters for the perf harness.
    grid_rebuilds: u64,
    grid_queries: u64,
}

impl Medium {
    pub fn new(config: RadioConfig) -> Self {
        config.validate();
        Medium {
            config,
            stats: TrafficStats::new(),
            grid: FlatGrid::new(),
            grid_built_at: None,
            snapshot: Vec::new(),
            in_range: Vec::new(),
            cursor: FleetCursor::new(),
            fleet_speed_bound: None,
            tx_log: TxLog::new(),
            jam_zones: Vec::new(),
            burst: None,
            queries_since_rebuild: 0,
            grid_rebuilds: 0,
            grid_queries: 0,
        }
    }

    /// Lifetime count of snapshot/grid rebuilds.
    pub fn grid_rebuilds(&self) -> u64 {
        self.grid_rebuilds
    }

    /// Lifetime count of grid queries (one per broadcast or neighbour
    /// probe).
    pub fn grid_queries(&self) -> u64 {
        self.grid_queries
    }

    pub fn stats(&self) -> &TrafficStats {
        &self.stats
    }

    /// Install a jamming zone (fault injection). Zones are checked per
    /// receiver on every broadcast while their window is active.
    pub fn add_jam_zone(&mut self, zone: JamZone) {
        zone.validate();
        self.jam_zones.push(zone);
    }

    /// Install a Gilbert–Elliott burst-loss channel active over
    /// `[from, until)`, layered on top of the configured loss model.
    pub fn set_burst_loss(&mut self, from: SimTime, until: SimTime, channel: GilbertElliott) {
        assert!(until > from, "empty burst-loss window");
        self.burst = Some((from, until, channel));
    }

    /// Set the speed stale-grid queries widen by: the fleet's top speed
    /// (`Fleet::max_speed`), which a caller that already knows it passes
    /// here so the medium need not scan the fleet at its first grid
    /// refresh. Candidates are still exact-checked, so results do not
    /// depend on the bound as long as it really covers the fleet; a
    /// tighter one only scans fewer false candidates.
    pub fn set_fleet_speed_bound(&mut self, max_speed: f64) {
        assert!(
            max_speed >= 0.0 && max_speed.is_finite(),
            "invalid fleet speed bound"
        );
        self.fleet_speed_bound = Some(max_speed);
    }

    /// Drop the grid/snapshot pair so the next query rebuilds it — a
    /// hook for benchmarks that need to exercise the rebuild path on
    /// every broadcast (the buffers keep their capacity).
    pub fn invalidate_grid(&mut self) {
        self.grid_built_at = None;
    }

    /// Refresh the neighbour grid snapshot, adaptively: the base
    /// [`GRID_REFRESH`] cadence only *arms* a rebuild; it actually
    /// happens once enough queries have been served from the stale
    /// snapshot to amortize the O(n) resample (`max(8, n/64)` — until
    /// then the stale-widened path is cheaper in total), or when the
    /// widening margin outgrows the radio range (at which point stale
    /// queries scan ~4× the disk area and a rebuild pays for itself).
    /// Idle stretches thus cost one rebuild per `max(8, n/64)` queries
    /// instead of one per `GRID_REFRESH` interval; busy stretches keep
    /// the old per-interval cadence.
    ///
    /// Skipping a rebuild is bitwise-safe, not an approximation: stale
    /// queries widen the search disk by the worst-case drift and then
    /// exact-check every candidate at `now`, so fresh and stale paths
    /// return identical outcomes (pinned by the determinism goldens and
    /// `adaptive_refresh_is_outcome_identical` below). Only when a
    /// rebuild fires is it relevant that the snapshot equals the exact
    /// positions.
    ///
    /// The snapshot is sampled in one cursor pass and the CSR grid is
    /// rebuilt in place over it — a warm rebuild allocates nothing.
    ///
    /// Returns the snapshot time and the fleet speed bound.
    fn refresh_grid(&mut self, fleet: &Fleet, now: SimTime) -> (SimTime, f64) {
        self.grid_queries += 1;
        let speed = *self
            .fleet_speed_bound
            .get_or_insert_with(|| fleet.max_speed());
        let needs_rebuild = match self.grid_built_at {
            Some(built_at) => {
                let staleness = now.since(built_at);
                staleness > GRID_REFRESH && {
                    let demand = (self.snapshot.len() as u32 / 64).max(8);
                    let margin = 2.0 * speed * staleness.as_secs();
                    self.queries_since_rebuild >= demand || margin > self.config.range
                }
            }
            None => true,
        };
        if needs_rebuild {
            self.cursor.positions_into(fleet, now, &mut self.snapshot);
            self.grid.rebuild(self.config.grid_cell(), &self.snapshot);
            self.grid_built_at = Some(now);
            self.grid_rebuilds += 1;
            self.queries_since_rebuild = 0;
        } else {
            self.queries_since_rebuild += 1;
        }
        (self.grid_built_at.unwrap(), speed)
    }

    /// Fill `in_range` with `(id, exact position)` of every node other
    /// than `center` within radio range of it at `now`, in id order, and
    /// return `center`'s exact position. Candidates come from the
    /// (possibly stale) grid with a widened radius, then are filtered
    /// against exact positions at `now` — so fresh and stale grids give
    /// identical results.
    fn query_range(&mut self, fleet: &Fleet, now: SimTime, center: u32) -> Point {
        let (built_at, speed) = self.refresh_grid(fleet, now);
        let fresh = built_at == now;
        // Both the centre and the candidates may have moved since the
        // snapshot, so widen by twice the covered distance.
        let margin = 2.0 * speed * now.since(built_at).as_secs();
        // When the snapshot was sampled at `now`, snapshot positions ARE
        // the exact positions (bitwise: same cursor evaluation), so the
        // per-candidate cursor re-query collapses to an array read.
        let center_pos = if fresh {
            self.snapshot[center as usize]
        } else {
            self.cursor.position(fleet, center, now)
        };
        self.grid
            .query_disk_into(center_pos, self.config.range + margin, &mut self.in_range);
        let (cursor, range) = (&mut self.cursor, self.config.range);
        self.in_range.retain_mut(|(id, pos)| {
            if *id == center {
                return false;
            }
            if !fresh {
                *pos = cursor.position(fleet, *id, now);
            }
            center_pos.distance(*pos) <= range
        });
        center_pos
    }

    /// Broadcast a frame of `bytes` bytes from `src` at time `now` into a
    /// caller-recycled outcome buffer (cleared on entry, capacity
    /// retained).
    ///
    /// The outcome holds one [`Delivery`] per receiver that actually hears
    /// the frame plus one drop per receiver the channel silenced (both in
    /// deterministic node-id order), with independent arrival jitter on
    /// the deliveries. The sender never receives its own frame.
    ///
    /// Per-receiver checks run in a fixed order — collision, jamming,
    /// burst channel, loss model — so RNG consumption is identical for
    /// identical scenarios. Repeat broadcasts — including the periodic
    /// in-place grid rebuilds — allocate nothing once the buffers have
    /// warmed up (proven by the counting-allocator bench).
    pub fn broadcast_into(
        &mut self,
        fleet: &Fleet,
        now: SimTime,
        src: u32,
        bytes: usize,
        rng: &mut SimRng,
        out: &mut BroadcastOutcome,
    ) {
        out.clear();
        let sender_pos = self.query_range(fleet, now, src);
        let frame_airtime = airtime(bytes);
        let burst_active =
            matches!(&self.burst, Some((from, until, _)) if now >= *from && now < *until);
        for &(id, pos) in &self.in_range {
            let distance = sender_pos.distance(pos);
            let reason = if self.config.contention == Contention::Aloha
                && self
                    .tx_log
                    .collides(now, sender_pos, pos, self.config.range, frame_airtime)
            {
                Some(DropReason::Collision)
            } else if self.jam_zones.iter().any(|z| z.covers(now, pos)) {
                Some(DropReason::Jam)
            } else if (burst_active
                && self
                    .burst
                    .as_mut()
                    .expect("burst_active checked")
                    .2
                    .drops(rng))
                || self.config.loss.drops(distance, self.config.range, rng)
            {
                // Short-circuit keeps the draw order fixed: the burst
                // channel samples first (only inside its window), the
                // configured loss model only if the burst let it through.
                Some(DropReason::Loss)
            } else {
                None
            };
            if let Some(reason) = reason {
                out.drop_frame(id, reason);
                continue;
            }
            let jitter_micros = rng.range_u64(DELAY_MIN.as_micros(), DELAY_MAX.as_micros() + 1);
            out.deliveries.push(Delivery {
                to: id,
                arrival: now + ia_des::SimDuration::from_micros(jitter_micros),
                sender_pos,
                from: src,
                distance,
            });
        }
        if self.config.contention == Contention::Aloha {
            self.tx_log.prune(now);
            self.tx_log.record(now, sender_pos);
        }
        self.stats
            .record_broadcast(bytes, out.deliveries.len(), out.drop_counts());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{DropCounts, FrameDrop};
    use crate::loss::LossModel;
    use ia_des::SimDuration;
    use ia_geo::Point;
    use ia_mobility::Trajectory;

    /// One broadcast at `secs` into a fresh outcome buffer.
    fn send(
        medium: &mut Medium,
        fleet: &Fleet,
        secs: f64,
        src: u32,
        bytes: usize,
        rng: &mut SimRng,
    ) -> BroadcastOutcome {
        let mut out = BroadcastOutcome::default();
        let now = SimTime::from_secs(secs);
        medium.broadcast_into(fleet, now, src, bytes, rng, &mut out);
        out
    }

    fn static_fleet(points: &[(f64, f64)]) -> Fleet {
        let end = SimTime::from_secs(1000.0);
        Fleet::from_trajectories(
            points
                .iter()
                .map(|&(x, y)| Trajectory::stationary(Point::new(x, y), SimTime::ZERO, end))
                .collect(),
        )
    }

    #[test]
    fn broadcast_reaches_only_nodes_in_range() {
        let fleet = static_fleet(&[(0.0, 0.0), (100.0, 0.0), (249.0, 0.0), (251.0, 0.0)]);
        let mut medium = Medium::new(RadioConfig::paper());
        let mut rng = SimRng::from_master(1);
        let out = send(&mut medium, &fleet, 1.0, 0, 100, &mut rng);
        let to: Vec<u32> = out.deliveries.iter().map(|d| d.to).collect();
        assert_eq!(to, vec![1, 2]);
        assert!(out.drops.is_empty());
        assert_eq!(medium.stats().messages, 1);
        assert_eq!(medium.stats().receptions, 2);
        assert_eq!(medium.stats().bytes_sent, 100);
    }

    #[test]
    fn sender_does_not_hear_itself() {
        let fleet = static_fleet(&[(0.0, 0.0), (1.0, 0.0)]);
        let mut medium = Medium::new(RadioConfig::paper());
        let mut rng = SimRng::from_master(2);
        let out = send(&mut medium, &fleet, 0.0, 0, 10, &mut rng);
        assert!(out.deliveries.iter().all(|d| d.to != 0));
    }

    #[test]
    fn arrival_jitter_within_bounds_and_after_send() {
        let fleet = static_fleet(&[(0.0, 0.0), (10.0, 0.0)]);
        let mut medium = Medium::new(RadioConfig::paper());
        let mut rng = SimRng::from_master(3);
        let now = SimTime::from_secs(5.0);
        for _ in 0..100 {
            let out = send(&mut medium, &fleet, 5.0, 0, 10, &mut rng);
            let d = out.deliveries[0];
            assert!(d.arrival >= now + SimDuration::from_millis(1));
            assert!(d.arrival <= now + SimDuration::from_millis(10));
        }
    }

    #[test]
    fn delivery_carries_sender_context() {
        let fleet = static_fleet(&[(0.0, 0.0), (30.0, 40.0)]);
        let mut medium = Medium::new(RadioConfig::paper());
        let mut rng = SimRng::from_master(4);
        let out = send(&mut medium, &fleet, 0.0, 0, 10, &mut rng);
        assert_eq!(out.deliveries[0].from, 0);
        assert_eq!(out.deliveries[0].sender_pos, Point::new(0.0, 0.0));
        assert!((out.deliveries[0].distance - 50.0).abs() < 1e-9);
    }

    #[test]
    fn isolated_sender_counts_dead_air() {
        let fleet = static_fleet(&[(0.0, 0.0), (5000.0, 5000.0)]);
        let mut medium = Medium::new(RadioConfig::paper());
        let mut rng = SimRng::from_master(5);
        let out = send(&mut medium, &fleet, 0.0, 0, 10, &mut rng);
        assert!(out.deliveries.is_empty());
        assert_eq!(medium.stats().dead_air, 1);
    }

    #[test]
    fn full_loss_drops_everything() {
        let fleet = static_fleet(&[(0.0, 0.0), (10.0, 0.0), (20.0, 0.0)]);
        let cfg = RadioConfig::paper().with_loss(LossModel::Bernoulli(1.0));
        let mut medium = Medium::new(cfg);
        let mut rng = SimRng::from_master(6);
        let out = send(&mut medium, &fleet, 0.0, 0, 10, &mut rng);
        assert!(out.deliveries.is_empty());
        assert_eq!(
            out.drops,
            vec![
                FrameDrop {
                    to: 1,
                    reason: DropReason::Loss
                },
                FrameDrop {
                    to: 2,
                    reason: DropReason::Loss
                },
            ]
        );
        assert_eq!(medium.stats().drops, 2);
    }

    #[test]
    fn jam_zone_silences_covered_receivers_only() {
        // Node 1 inside the zone, node 2 outside it; both in radio range.
        let fleet = static_fleet(&[(0.0, 0.0), (100.0, 0.0), (0.0, 200.0)]);
        let mut medium = Medium::new(RadioConfig::paper());
        medium.add_jam_zone(JamZone::stationary(
            Point::new(100.0, 0.0),
            50.0,
            SimTime::ZERO,
            SimTime::from_secs(10.0),
        ));
        let mut rng = SimRng::from_master(7);
        let out = send(&mut medium, &fleet, 1.0, 0, 10, &mut rng);
        assert_eq!(
            out.deliveries.iter().map(|d| d.to).collect::<Vec<_>>(),
            vec![2]
        );
        assert_eq!(
            out.drops,
            vec![FrameDrop {
                to: 1,
                reason: DropReason::Jam
            }]
        );
        assert_eq!(medium.stats().jammed, 1);
        // After the window the zone is inert.
        let out = send(&mut medium, &fleet, 11.0, 0, 10, &mut rng);
        assert_eq!(out.deliveries.len(), 2);
        assert!(out.drops.is_empty());
    }

    #[test]
    fn faulted_channel_tallies_each_drop_once() {
        // ALOHA contention, a jam zone and a lossy burst channel at once:
        // each outcome's per-cause counts must equal its drops grouped by
        // reason and the broadcast's `TrafficStats` delta.
        let fleet = static_fleet(&[
            (0.0, 0.0),
            (50.0, 0.0),
            (100.0, 0.0),
            (150.0, 0.0),
            (0.0, 120.0),
            (60.0, 90.0),
        ]);
        let mut medium = Medium::new(RadioConfig::paper().with_contention(Contention::Aloha));
        let window = (SimTime::ZERO, SimTime::from_secs(10.0));
        medium.add_jam_zone(JamZone::stationary(
            Point::new(150.0, 0.0),
            20.0,
            window.0,
            window.1,
        ));
        medium.set_burst_loss(window.0, window.1, GilbertElliott::new(0.3, 0.3, 0.1, 0.6));
        let mut rng = SimRng::from_master(14);
        let mut out = BroadcastOutcome::default();
        let mut total = DropCounts::default();
        for step in 0..60u64 {
            // Two senders per instant: the second frame collides with the
            // first wherever both are audible.
            let t = SimTime::from_millis(step / 2 * 100);
            let before = medium.stats().clone();
            medium.broadcast_into(&fleet, t, (step % 6) as u32, 300, &mut rng, &mut out);
            let mut grouped = DropCounts::default();
            for d in &out.drops {
                match d.reason {
                    DropReason::Loss => grouped.lost += 1,
                    DropReason::Jam => grouped.jammed += 1,
                    DropReason::Collision => grouped.collided += 1,
                }
            }
            assert_eq!(out.drop_counts(), grouped);
            let after = medium.stats();
            let delta = DropCounts {
                lost: after.drops - before.drops,
                jammed: after.jammed - before.jammed,
                collided: after.collisions - before.collisions,
            };
            assert_eq!(out.drop_counts(), delta);
            total.lost += grouped.lost;
            total.jammed += grouped.jammed;
            total.collided += grouped.collided;
        }
        assert!(
            total.lost > 0 && total.jammed > 0 && total.collided > 0,
            "every drop cause exercised: {total:?}"
        );
    }

    #[test]
    fn moving_jam_zone_tracks_its_velocity() {
        let z = JamZone::stationary(
            Point::new(0.0, 0.0),
            100.0,
            SimTime::ZERO,
            SimTime::from_secs(100.0),
        )
        .moving(ia_geo::Vector::new(10.0, 0.0));
        // At t=50 the centre is at (500, 0).
        assert!(z.covers(SimTime::from_secs(50.0), Point::new(450.0, 0.0)));
        assert!(!z.covers(SimTime::from_secs(50.0), Point::new(50.0, 0.0)));
        // Outside the window nothing is covered.
        assert!(!z.covers(SimTime::from_secs(150.0), Point::new(1500.0, 0.0)));
    }

    #[test]
    fn burst_loss_applies_only_inside_its_window() {
        let fleet = static_fleet(&[(0.0, 0.0), (10.0, 0.0)]);
        let mut medium = Medium::new(RadioConfig::paper());
        // A channel pinned to the bad state with certain loss.
        medium.set_burst_loss(
            SimTime::from_secs(10.0),
            SimTime::from_secs(20.0),
            GilbertElliott::new(1.0, 1e-9, 0.0, 1.0),
        );
        let mut rng = SimRng::from_master(8);
        let before = send(&mut medium, &fleet, 5.0, 0, 10, &mut rng);
        assert_eq!(before.deliveries.len(), 1);
        let during = send(&mut medium, &fleet, 15.0, 0, 10, &mut rng);
        assert!(during.deliveries.is_empty());
        assert_eq!(during.drops[0].reason, DropReason::Loss);
        let after = send(&mut medium, &fleet, 25.0, 0, 10, &mut rng);
        assert_eq!(after.deliveries.len(), 1);
        assert_eq!(medium.stats().drops, 1);
    }

    #[test]
    fn stale_grid_still_exact_for_moving_nodes() {
        // Node 1 moves away from node 0 at 20 m/s starting inside range.
        // Even with a 1 s refresh, deliveries must track true positions.
        let end = SimTime::from_secs(100.0);
        let moving = Trajectory::new(vec![ia_mobility::Leg::new(
            SimTime::ZERO,
            end,
            Point::new(240.0, 0.0),
            Point::new(240.0 + 20.0 * 100.0, 0.0),
        )]);
        let fleet = Fleet::from_trajectories(vec![
            Trajectory::stationary(Point::ORIGIN, SimTime::ZERO, end),
            moving,
        ]);
        let mut medium = Medium::new(RadioConfig::paper());
        let mut rng = SimRng::from_master(7);
        // t=0: in range (240 m).
        assert_eq!(
            send(&mut medium, &fleet, 0.0, 0, 10, &mut rng)
                .deliveries
                .len(),
            1
        );
        // t=0.9: 258 m, out of range, but the grid snapshot is from t=0.
        assert_eq!(
            send(&mut medium, &fleet, 0.9, 0, 10, &mut rng)
                .deliveries
                .len(),
            0
        );
    }

    #[test]
    fn stale_grid_finds_nodes_that_moved_into_range() {
        // Node 1 starts out of range and moves in; a naive stale grid
        // would miss it, the widened query must not.
        let end = SimTime::from_secs(100.0);
        let moving = Trajectory::new(vec![ia_mobility::Leg::new(
            SimTime::ZERO,
            end,
            Point::new(270.0, 0.0),
            Point::new(270.0 - 30.0 * 100.0, 0.0),
        )]);
        let fleet = Fleet::from_trajectories(vec![
            Trajectory::stationary(Point::ORIGIN, SimTime::ZERO, end),
            moving,
        ]);
        let mut medium = Medium::new(RadioConfig::paper());
        let mut rng = SimRng::from_master(8);
        // Build the grid at t=0 (node 1 at 270 m, out of range).
        assert_eq!(
            send(&mut medium, &fleet, 0.0, 0, 10, &mut rng)
                .deliveries
                .len(),
            0
        );
        // t=0.9 s: node 1 is at 243 m — in range; grid is still the t=0 one.
        assert_eq!(
            send(&mut medium, &fleet, 0.9, 0, 10, &mut rng)
                .deliveries
                .len(),
            1
        );
    }

    #[test]
    fn fleet_speed_bound_preserves_results_exactly() {
        // A slow fleet (5 m/s): widening by its true maximum instead of a
        // generous 40 m/s bound must not change a single delivery, across
        // fresh and stale grids.
        let end = SimTime::from_secs(100.0);
        let mk_fleet = || {
            let legs = |x0: f64, v: f64| {
                Trajectory::new(vec![ia_mobility::Leg::new(
                    SimTime::ZERO,
                    end,
                    Point::new(x0, 0.0),
                    Point::new(x0 + v * 100.0, 0.0),
                )])
            };
            Fleet::from_trajectories(vec![
                Trajectory::stationary(Point::ORIGIN, SimTime::ZERO, end),
                legs(252.0, -5.0), // drifts into range during grid staleness
                legs(245.0, 5.0),  // drifts out of range
                legs(100.0, 3.0),
            ])
        };
        let fleet = mk_fleet();
        let run = |bound: f64| {
            let mut medium = Medium::new(RadioConfig::paper());
            medium.set_fleet_speed_bound(bound);
            let mut rng = SimRng::from_master(11);
            let mut log = Vec::new();
            for step in 0..40 {
                let t = step as f64 * 0.23;
                let out = send(&mut medium, &fleet, t, 0, 50, &mut rng);
                log.push(out.deliveries.iter().map(|d| d.to).collect::<Vec<_>>());
            }
            (log, medium.stats().clone())
        };
        assert!(fleet.max_speed() <= 5.0 + 1e-9);
        assert_eq!(run(40.0), run(fleet.max_speed()));
    }

    #[test]
    fn stale_grid_with_fleet_bound_still_finds_incoming_nodes() {
        // Same shape as `stale_grid_finds_nodes_that_moved_into_range`,
        // but with a slow fleet (5 m/s) and so a small widening: a node
        // 8 m out of range closing at 5 m/s must be caught by the widened
        // stale query.
        let end = SimTime::from_secs(100.0);
        let moving = Trajectory::new(vec![ia_mobility::Leg::new(
            SimTime::ZERO,
            end,
            Point::new(258.0, 0.0),
            Point::new(258.0 - 5.0 * 100.0, 0.0),
        )]);
        let fleet = Fleet::from_trajectories(vec![
            Trajectory::stationary(Point::ORIGIN, SimTime::ZERO, end),
            moving,
        ]);
        let mut medium = Medium::new(RadioConfig::paper());
        medium.set_fleet_speed_bound(fleet.max_speed());
        let mut rng = SimRng::from_master(12);
        // Grid built at t=0 (node 1 at 258 m, out of range).
        assert_eq!(
            send(&mut medium, &fleet, 0.0, 0, 10, &mut rng)
                .deliveries
                .len(),
            0
        );
        // t=0.9 s: node 1 at 253.5 m — still out. At t=1.6 s it is at
        // 250 m — in range; whether the adaptive policy rebuilds or keeps
        // serving the widened t=0 snapshot, the exact check must find it.
        assert_eq!(
            send(&mut medium, &fleet, 0.9, 0, 10, &mut rng)
                .deliveries
                .len(),
            0
        );
        assert_eq!(
            send(&mut medium, &fleet, 1.6, 0, 10, &mut rng)
                .deliveries
                .len(),
            1
        );
    }

    #[test]
    fn position_snapshot_tracks_grid_refresh() {
        let fleet = static_fleet(&[(0.0, 0.0), (100.0, 0.0)]);
        let mut medium = Medium::new(RadioConfig::paper());
        let mut rng = SimRng::from_master(13);
        // The first broadcast samples the snapshot ...
        let out = send(&mut medium, &fleet, 2.0, 0, 10, &mut rng);
        assert_eq!(out.deliveries[0].to, 1);
        assert_eq!(out.deliveries[0].distance, 100.0);
        assert_eq!(medium.grid_rebuilds(), 1);
        // ... within the refresh window it is reused ...
        send(&mut medium, &fleet, 2.5, 0, 10, &mut rng);
        assert_eq!(medium.grid_rebuilds(), 1);
        // ... and invalidation forces a resample at the next broadcast.
        medium.invalidate_grid();
        send(&mut medium, &fleet, 2.6, 0, 10, &mut rng);
        assert_eq!(medium.grid_rebuilds(), 2);
        assert_eq!(medium.grid_queries(), 3);
    }

    #[test]
    fn adaptive_refresh_is_outcome_identical() {
        // The adaptive cadence may serve queries from an arbitrarily
        // stale snapshot; the widened-then-exact-checked path must return
        // bitwise the same deliveries and drops as a medium that rebuilds
        // before every single broadcast. (Out-of-range candidates are
        // filtered before any RNG draw, so the streams stay aligned.)
        let end = SimTime::from_secs(100.0);
        let legs = |x0: f64, v: f64| {
            Trajectory::new(vec![ia_mobility::Leg::new(
                SimTime::ZERO,
                end,
                Point::new(x0, 0.0),
                Point::new(x0 + v * 100.0, 0.0),
            )])
        };
        let fleet = Fleet::from_trajectories(vec![
            Trajectory::stationary(Point::ORIGIN, SimTime::ZERO, end),
            legs(240.0, 4.0),  // drifts out of range
            legs(260.0, -4.0), // drifts into range
            legs(80.0, 2.0),
            legs(-200.0, 1.5),
        ]);
        let cfg = RadioConfig::paper().with_loss(LossModel::Bernoulli(0.25));
        let run = |rebuild_every_time: bool| {
            let mut medium = Medium::new(cfg.clone());
            let mut rng = SimRng::from_master(21);
            let mut log = Vec::new();
            for step in 0..120 {
                if rebuild_every_time {
                    medium.invalidate_grid();
                }
                let t = step as f64 * 0.31;
                let out = send(&mut medium, &fleet, t, 0, 50, &mut rng);
                log.push(out);
            }
            (log, medium.stats().clone())
        };
        let (log_adaptive, stats_adaptive) = run(false);
        let (log_fresh, stats_fresh) = run(true);
        assert_eq!(log_adaptive, log_fresh);
        assert_eq!(stats_adaptive, stats_fresh);
    }

    #[test]
    fn adaptive_refresh_amortizes_low_demand_rebuilds() {
        // A stationary fleet (zero widening margin) queried once per 2 s:
        // the old cadence-only policy rebuilt on every one of these
        // queries. The adaptive policy rebuilds only once per `max(8,
        // n/64)` stale-served queries, so 20 sparse queries cost 2
        // cadence rebuilds (at the 8-query marks) on top of the initial
        // build — and the results stay exact throughout.
        let end = SimTime::from_secs(1000.0);
        let fleet = Fleet::from_trajectories(vec![
            Trajectory::stationary(Point::ORIGIN, SimTime::ZERO, end),
            Trajectory::stationary(Point::new(100.0, 0.0), SimTime::ZERO, end),
        ]);
        let mut medium = Medium::new(RadioConfig::paper());
        medium.set_fleet_speed_bound(fleet.max_speed()); // 0 m/s
        let mut rng = SimRng::from_master(22);
        for step in 0..20 {
            // One broadcast every 2 s: cadence (1 s) elapses every time.
            let t = step as f64 * 2.0;
            let out = send(&mut medium, &fleet, t, 0, 10, &mut rng);
            assert_eq!(out.deliveries.len(), 1, "results stay exact");
        }
        assert_eq!(medium.grid_queries(), 20);
        assert_eq!(
            medium.grid_rebuilds(),
            3,
            "initial build + one rebuild per 8 stale queries, not per interval"
        );
    }

    #[test]
    fn adaptive_refresh_caps_margin_growth() {
        // With a generous 40 m/s bound the widening margin passes the
        // 250 m range at ~3.1 s staleness; the cap must then rebuild even
        // though demand is low.
        let fleet = static_fleet(&[(0.0, 0.0), (100.0, 0.0)]);
        let mut medium = Medium::new(RadioConfig::paper());
        medium.set_fleet_speed_bound(40.0);
        let mut rng = SimRng::from_master(23);
        send(&mut medium, &fleet, 0.0, 0, 10, &mut rng);
        send(&mut medium, &fleet, 2.0, 0, 10, &mut rng);
        assert_eq!(
            medium.grid_rebuilds(),
            1,
            "margin 160 m: still stale-served"
        );
        send(&mut medium, &fleet, 4.0, 0, 10, &mut rng);
        assert_eq!(medium.grid_rebuilds(), 2, "margin 320 m > range: rebuilt");
    }

    #[test]
    fn deliveries_are_in_node_id_order() {
        let fleet = static_fleet(&[(0.0, 0.0), (10.0, 0.0), (20.0, 0.0), (30.0, 0.0)]);
        let mut medium = Medium::new(RadioConfig::paper());
        let mut rng = SimRng::from_master(9);
        let out = send(&mut medium, &fleet, 0.0, 2, 10, &mut rng);
        let to: Vec<u32> = out.deliveries.iter().map(|d| d.to).collect();
        assert_eq!(to, vec![0, 1, 3]);
    }
}
