//! The broadcast medium itself.

use crate::config::{RadioConfig, DELAY_MAX, DELAY_MIN};
use crate::contention::{airtime, Contention, TxLog};
use crate::frame::{BroadcastOutcome, Delivery, DropReason};
use crate::loss::GilbertElliott;
use crate::stats::TrafficStats;
use ia_des::{SimDuration, SimRng, SimTime};
use ia_geo::{FlatGrid, Point};
use ia_mobility::{Fleet, Leg};

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

    /// Is the zone on at time `t`, inside `[from, until)`?
    fn active_at(&self, t: SimTime) -> bool {
        t >= self.from && t < self.until
    }

    /// Is `p` inside the dead region at time `t`?
    pub fn covers(&self, t: SimTime, p: Point) -> bool {
        self.active_at(t) && self.center_at(t).distance(p) <= self.radius
    }
}

/// Maximum staleness tolerated for the neighbour-lookup grid before a
/// rebuild is armed (see [`Medium::refresh_grid`]). Candidate sets are
/// widened by the distance the fleet's fastest node can cover since the
/// last rebuild and then exact-checked, so results do not depend on it.
///
/// A stale-grid candidate costs one interpolation on the leg the grid
/// stored for it, so staleness costs little until the widened disk grows:
/// at 3 s and 20 m/s the margin is 60 m. On gossip-chaos, 1 s rebuilt the
/// 1000-node grid 1 743 times and 3 s rebuilds it 594 times.
const GRID_REFRESH: SimDuration = SimDuration::from_millis(3000);

/// The stale-grid widening's rounding allowance, relative to the
/// magnitudes involved: 2⁻⁴⁰, 256 times the 32 unit roundoffs (2⁻⁵³
/// each) that bound the error of a node's two interpolated positions and
/// of the distances compared (DESIGN.md §10).
const ROUNDING: f64 = 1.0 / (1u64 << 40) as f64;

/// What a stale-grid query widens by besides one drift `v_max · Δt`: the
/// fleet's largest jump ([`Fleet::max_jump`]), plus [`ROUNDING`] times the
/// largest coordinate any leg reaches and the radio range. With it a node
/// in range at `now` lies inside the widened disk around the centre at its
/// grid position (DESIGN.md §10 proves the bound).
fn stale_slack(fleet: &Fleet, range: f64) -> f64 {
    let extent = fleet
        .iter()
        .flat_map(|(_, tr)| tr.waypoints())
        .map(|w| w.pos.x.abs().max(w.pos.y.abs()))
        .fold(0.0, f64::max);
    fleet.max_jump() + ROUNDING * (extent + range)
}

/// A shared wireless channel over a [`Fleet`] of mobile nodes.
///
/// The medium owns the traffic statistics and a lazily rebuilt spatial
/// grid; the simulation world calls [`Medium::broadcast_into`] and
/// schedules the resulting [`Delivery`] records as receive events,
/// surfacing the accompanying drops through its suppression hook.
///
/// One medium serves one fleet, at non-decreasing times: it keeps the
/// legs it read from the fleet of its first broadcast.
pub struct Medium {
    config: RadioConfig,
    stats: TrafficStats,
    /// Flat CSR spatial index of every node's id and position at
    /// `grid_built_at`, rebuilt in place (no steady-state allocations) at
    /// a bounded staleness. A rebuild permutes 24 bytes per node (id,
    /// position and its scratch slot); the legs stay put in `legs`.
    grid: FlatGrid,
    /// Per node id, its trajectory leg at `grid_built_at`: a stale
    /// candidate's exact position is one interpolation on it while it
    /// lasts.
    legs: Vec<Leg>,
    /// When the grid was sampled; `None` before the first broadcast.
    grid_built_at: Option<SimTime>,
    /// The one query buffer: the grid's candidates `(id, grid position)`
    /// in scan order, then, at its front, `(id, exact position)` of every
    /// node in range of the last query's centre.
    hits: Vec<(u32, Point)>,
    /// One bit per node id, set for the last query's hits: walking the
    /// words in order yields them in id order. The walk clears them.
    hit_bits: Vec<u64>,
    /// Per node id, its index into `hits`; read only where its bit is set.
    hit_slot: Vec<u32>,
    /// Top speed of the fleet being simulated, by which stale-grid
    /// queries widen: set by [`Medium::set_fleet_speed_bound`], or
    /// computed from the fleet at the first grid refresh.
    fleet_speed_bound: Option<f64>,
    /// What a stale-grid query widens by besides one drift
    /// ([`stale_slack`]); computed from the fleet at the first refresh.
    stale_slack: Option<f64>,
    tx_log: TxLog,
    /// Active jamming zones (fault injection).
    jam_zones: Vec<JamZone>,
    /// Burst-loss channel plus its activity window (fault injection).
    /// Applies on top of `config.loss`.
    burst: Option<(SimTime, SimTime, GilbertElliott)>,
    /// Queries served from the current grid since its rebuild — the
    /// adaptive-refresh demand signal (see [`Medium::refresh_grid`]).
    queries_since_rebuild: u32,
    /// Lifetime grid counters for the perf harness.
    grid_rebuilds: u64,
    grid_queries: u64,
    grid_candidates: u64,
}

/// Node `id`'s leg at `now`, given the leg the medium stored for it: that
/// leg is still the current one while `now` is before its end. At or
/// after the end (where the next leg starts, equal only within
/// `Trajectory`'s 10⁻⁶ m tolerance) the trajectory is searched.
#[inline]
fn current_leg(stored: &Leg, fleet: &Fleet, id: u32, now: SimTime) -> Leg {
    if now < stored.end_time {
        *stored
    } else {
        fleet.trajectory(id).leg_at(now)
    }
}

impl Medium {
    pub fn new(config: RadioConfig) -> Self {
        config.validate();
        Medium {
            config,
            stats: TrafficStats::new(),
            grid: FlatGrid::new(),
            legs: Vec::new(),
            grid_built_at: None,
            hits: Vec::new(),
            hit_bits: Vec::new(),
            hit_slot: Vec::new(),
            fleet_speed_bound: None,
            stale_slack: None,
            tx_log: TxLog::new(),
            jam_zones: Vec::new(),
            burst: None,
            queries_since_rebuild: 0,
            grid_rebuilds: 0,
            grid_queries: 0,
            grid_candidates: 0,
        }
    }

    /// Lifetime count of grid rebuilds.
    pub fn grid_rebuilds(&self) -> u64 {
        self.grid_rebuilds
    }

    /// Lifetime count of grid queries (one per broadcast or neighbour
    /// probe).
    pub fn grid_queries(&self) -> u64 {
        self.grid_queries
    }

    /// Lifetime count of candidates evaluated exactly: grid entries
    /// inside a query's widened disk, the query's centre excluded.
    pub fn grid_candidates(&self) -> u64 {
        self.grid_candidates
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

    /// Refresh the neighbour grid, adaptively: the base [`GRID_REFRESH`]
    /// cadence only *arms* a rebuild; it actually happens once enough
    /// queries have been served from the stale grid to amortize the O(n)
    /// resample (`max(8, n/64)` — until then the stale-widened path is
    /// cheaper in total), or when the widening margin outgrows the radio
    /// range (at which point stale queries scan ~4× the disk area and a
    /// rebuild pays for itself). Idle stretches thus cost one rebuild per
    /// `max(8, n/64)` queries instead of one per `GRID_REFRESH` interval.
    ///
    /// Skipping a rebuild is bitwise-safe, not an approximation: stale
    /// queries widen the search disk by the worst-case drift and then
    /// exact-check every candidate at `now`, so fresh and stale paths
    /// return identical outcomes (pinned by the determinism goldens and
    /// `adaptive_refresh_is_outcome_identical` below).
    ///
    /// A rebuild re-samples each node in its packed slot: from the leg
    /// stored for it while that leg lasts, from its trajectory otherwise.
    /// The grid is then re-sorted in place — a warm rebuild allocates
    /// nothing.
    ///
    /// Returns the grid's sampling time, the fleet speed bound and the
    /// stale-grid slack ([`stale_slack`]).
    fn refresh_grid(&mut self, fleet: &Fleet, now: SimTime) -> (SimTime, f64, f64) {
        debug_assert!(
            self.grid_built_at.is_none_or(|built_at| now >= built_at),
            "medium queried back in time"
        );
        self.grid_queries += 1;
        let speed = *self
            .fleet_speed_bound
            .get_or_insert_with(|| fleet.max_speed());
        let range = self.config.range;
        let slack = *self
            .stale_slack
            .get_or_insert_with(|| stale_slack(fleet, range));
        let needs_rebuild = match self.grid_built_at {
            Some(built_at) => {
                let staleness = now.since(built_at);
                staleness > GRID_REFRESH && {
                    let demand = (self.grid.len() as u32 / 64).max(8);
                    let margin = 2.0 * speed * staleness.as_secs();
                    self.queries_since_rebuild >= demand || margin > range
                }
            }
            None => true,
        };
        if needs_rebuild {
            let n = fleet.len();
            if self.legs.len() != n {
                self.legs = (0..n as u32)
                    .map(|id| fleet.trajectory(id).leg_at(now))
                    .collect();
            }
            let legs = &mut self.legs;
            self.grid.resample(self.config.grid_cell(), n, |id| {
                let leg = &mut legs[id as usize];
                *leg = current_leg(leg, fleet, id, now);
                leg.position_at(now)
            });
            self.grid_built_at = Some(now);
            self.grid_rebuilds += 1;
            self.queries_since_rebuild = 0;
            self.hit_bits.resize(fleet.len().div_ceil(64), 0);
            self.hit_slot.resize(fleet.len(), 0);
        } else {
            self.queries_since_rebuild += 1;
        }
        (self.grid_built_at.unwrap(), speed, slack)
    }

    /// Fill `hits`, `hit_bits` and `hit_slot` with every node other than
    /// `center` within radio range of it at `now`, and return `center`'s
    /// exact position. Candidates come from the (possibly stale) grid with
    /// a widened radius, then are filtered against exact positions at
    /// `now` — so fresh and stale grids give identical results.
    ///
    /// Both passes are branch-free on where a node lies: the grid writes
    /// every entry of the disk's row ranges and keeps those inside it,
    /// and the exact check writes every candidate back over the front of
    /// the same buffer, advancing by `distance <= range && id != center`.
    fn query_range(&mut self, fleet: &Fleet, now: SimTime, center: u32) -> Point {
        let (built_at, speed, slack) = self.refresh_grid(fleet, now);
        let fresh = built_at == now;
        // The centre's position is exact at `now`; only the candidates
        // have moved since the grid was sampled, each by at most one
        // drift plus the slack.
        let margin = if fresh {
            0.0
        } else {
            speed * now.since(built_at).as_secs() * (1.0 + ROUNDING) + slack
        };
        let center_pos = fleet.trajectory(center).leg_at(now).position_at(now);
        let range = self.config.range;
        let found = self
            .grid
            .scan_disk(center_pos, range + margin, &mut self.hits);
        let (mut hit, mut others) = (0, 0);
        for k in 0..found {
            let (id, pos) = self.hits[k];
            // On a fresh grid the sampled position is the exact one.
            let pos = if fresh {
                pos
            } else {
                current_leg(&self.legs[id as usize], fleet, id, now).position_at(now)
            };
            let other = id != center;
            let in_range = (center_pos.distance(pos) <= range) & other;
            // `hit <= k`: the write never overtakes the candidates unread.
            self.hits[hit] = (id, pos);
            self.hit_slot[id as usize] = hit as u32;
            self.hit_bits[id as usize / 64] |= (in_range as u64) << (id % 64);
            hit += in_range as usize;
            others += other as u64;
        }
        self.grid_candidates += others;
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
    /// identical scenarios. Whether each can apply at all (contention on,
    /// a jam zone inside its window, the burst window open, a loss model
    /// that can drop) is decided once per broadcast; a check that cannot
    /// apply draws nothing, so skipping it leaves the stream as it is.
    /// Repeat broadcasts — including the periodic
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
        // The same for every receiver of this frame.
        let aloha = self.config.contention == Contention::Aloha;
        let jam_active = self.jam_zones.iter().any(|z| z.active_at(now));
        let burst_active =
            matches!(&self.burst, Some((from, until, _)) if now >= *from && now < *until);
        let lossy = self.config.loss.can_drop();
        // The hits in id order: each bitmap word's set bits, lowest
        // first. Taking a word clears it for the next query.
        for w in 0..self.hit_bits.len() {
            let mut word = std::mem::take(&mut self.hit_bits[w]);
            while word != 0 {
                let id = (w * 64) as u32 + word.trailing_zeros();
                word &= word - 1;
                let (_, pos) = self.hits[self.hit_slot[id as usize] as usize];
                // Bitwise the distance the range check compared.
                let distance = sender_pos.distance(pos);
                let reason = if aloha
                    && self
                        .tx_log
                        .collides(now, sender_pos, pos, self.config.range, frame_airtime)
                {
                    Some(DropReason::Collision)
                } else if jam_active && self.jam_zones.iter().any(|z| z.covers(now, pos)) {
                    Some(DropReason::Jam)
                } else if (burst_active
                    && self
                        .burst
                        .as_mut()
                        .expect("burst_active checked")
                        .2
                        .drops(rng))
                    || (lossy && self.config.loss.drops(distance, self.config.range, rng))
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
        }
        if aloha {
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

    /// A jam zone outside its window and a channel that cannot lose a
    /// frame are skipped for the whole broadcast: the outcome and the
    /// radio stream after it equal a plain channel's, in which every
    /// receiver draws its arrival jitter and nothing else.
    #[test]
    fn inactive_zones_and_lossless_channels_draw_nothing() {
        let fleet = static_fleet(&[(0.0, 0.0), (100.0, 0.0), (0.0, 200.0), (-150.0, -100.0)]);
        let at = SimTime::from_secs(10.0);
        // Over every receiver while it is on.
        let zone = |from, until| JamZone::stationary(Point::ORIGIN, 500.0, from, until);
        // Its loss model is called for every receiver and draws nothing.
        let plain = RadioConfig::paper().with_loss(LossModel::Bernoulli(0.0));
        let broadcast = |config, zone: Option<JamZone>| {
            let mut medium = Medium::new(config);
            if let Some(zone) = zone {
                medium.add_jam_zone(zone);
            }
            let mut rng = SimRng::from_master(21);
            let out = send(&mut medium, &fleet, at.as_secs(), 0, 100, &mut rng);
            (out, rng.next_u64())
        };
        let (reference, next) = broadcast(plain.clone(), None);
        let mut rng = SimRng::from_master(21);
        let ids: Vec<u32> = reference.deliveries.iter().map(|d| d.to).collect();
        assert_eq!(ids, [1, 2, 3]);
        assert!(reference.drops.is_empty());
        for d in &reference.deliveries {
            let jitter = rng.range_u64(DELAY_MIN.as_micros(), DELAY_MAX.as_micros() + 1);
            assert_eq!(d.arrival, at + SimDuration::from_micros(jitter));
        }
        assert_eq!(next, rng.next_u64());
        let later = zone(SimTime::from_secs(11.0), SimTime::from_secs(20.0));
        let ended = zone(SimTime::ZERO, at);
        for (name, config, zone) in [
            ("a jam zone before its from", plain.clone(), Some(later)),
            ("a jam zone at its until", plain.clone(), Some(ended)),
            ("a LossModel::None channel", RadioConfig::paper(), None),
        ] {
            let (out, after) = broadcast(config, zone);
            assert_eq!(out, reference, "{name}");
            assert_eq!(after, next, "{name}: the radio stream moved");
        }
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
        // t=0.9: 258 m, out of range, but the grid is from t=0.
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
        // serving the widened t=0 grid, the exact check must find it.
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
        // The first broadcast samples the grid ...
        let out = send(&mut medium, &fleet, 2.0, 0, 10, &mut rng);
        assert_eq!(out.deliveries[0].to, 1);
        assert_eq!(out.deliveries[0].distance, 100.0);
        assert_eq!(medium.grid_rebuilds(), 1);
        // ... within the refresh window it is reused ...
        send(&mut medium, &fleet, 2.5, 0, 10, &mut rng);
        assert_eq!(medium.grid_rebuilds(), 1);
        // ... and a grid marked stale is resampled at the next broadcast.
        medium.grid_built_at = None;
        send(&mut medium, &fleet, 2.6, 0, 10, &mut rng);
        assert_eq!(medium.grid_rebuilds(), 2);
        assert_eq!(medium.grid_queries(), 3);
        // One candidate per query: the sender is not one.
        assert_eq!(medium.grid_candidates(), 3);
    }

    #[test]
    fn adaptive_refresh_is_outcome_identical() {
        // The adaptive cadence may serve queries from an arbitrarily
        // stale grid; the widened-then-exact-checked path must return
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
                    medium.grid_built_at = None;
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
        // A stationary fleet (zero widening margin) queried once per
        // `GRID_REFRESH` + 1 s: a cadence-only policy would rebuild on
        // every one of these queries. The adaptive policy rebuilds only
        // once per `max(8, n/64)` stale-served queries, so 20 sparse
        // queries cost 2 cadence rebuilds (at the 8-query marks) on top
        // of the initial build — and the results stay exact throughout.
        let end = SimTime::from_secs(1000.0);
        let fleet = Fleet::from_trajectories(vec![
            Trajectory::stationary(Point::ORIGIN, SimTime::ZERO, end),
            Trajectory::stationary(Point::new(100.0, 0.0), SimTime::ZERO, end),
        ]);
        let mut medium = Medium::new(RadioConfig::paper());
        medium.set_fleet_speed_bound(fleet.max_speed()); // 0 m/s
        let mut rng = SimRng::from_master(22);
        for step in 0..20 {
            // The cadence elapses before every broadcast.
            let t = step as f64 * (GRID_REFRESH.as_secs() + 1.0);
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
        // 250 m range at ~3.1 s staleness; once the 3 s cadence has also
        // elapsed, the cap must rebuild even though demand is low.
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

    /// A node that jumps along a zero-duration leg moves with no
    /// velocity, so only the fleet's jump term widens a stale query
    /// enough to find it. Node 1 pauses 1 km out until 5 s, then jumps
    /// to 100 m and stays: a fresh medium and the stale one agree.
    #[test]
    fn stale_grid_finds_a_node_that_jumped_along_a_zero_duration_leg() {
        let (jump_at, end) = (SimTime::from_secs(5.0), SimTime::from_secs(100.0));
        let (far, near) = (Point::new(1000.0, 0.0), Point::new(100.0, 0.0));
        let fleet = Fleet::from_trajectories(vec![
            Trajectory::stationary(Point::ORIGIN, SimTime::ZERO, end),
            Trajectory::new(vec![
                Leg::pause(SimTime::ZERO, jump_at, far),
                Leg::new(jump_at, jump_at, far, near),
                Leg::pause(jump_at, end, near),
            ]),
        ]);
        assert_eq!(fleet.max_speed(), 0.0);
        assert_eq!(fleet.max_jump(), 900.0);
        let mut medium = Medium::new(RadioConfig::paper());
        let mut rng = SimRng::from_master(15);
        assert!(send(&mut medium, &fleet, 0.0, 0, 10, &mut rng)
            .deliveries
            .is_empty());
        let stale = send(&mut medium, &fleet, 6.0, 0, 10, &mut rng);
        assert_eq!(medium.grid_rebuilds(), 1, "the grid from 0 s serves 6 s");
        let fresh = send(
            &mut Medium::new(RadioConfig::paper()),
            &fleet,
            6.0,
            0,
            10,
            &mut rng,
        );
        assert_eq!(fresh.deliveries.len(), 1);
        assert_eq!(stale.deliveries.len(), 1);
    }

    /// The widening's boundary case: a node moving at exactly the
    /// fleet's top speed, across a 0.5 µm leg seam, that reaches exactly
    /// the radio range at the query instant. One drift alone (or less)
    /// stops 0.5 µm short of where the stale grid holds it; the jump term
    /// covers the seam.
    #[test]
    fn stale_grid_finds_a_node_at_top_speed_across_a_seam_at_exactly_range() {
        let end = SimTime::from_secs(100.0);
        let seam = 5e-7;
        let one = SimTime::from_secs(1.0);
        let incoming = Trajectory::new(vec![
            Leg::new(
                SimTime::ZERO,
                one,
                Point::new(282.0 + seam, 0.0),
                Point::new(266.0 + seam, 0.0),
            ),
            // 16 m/s on from 266 m: at 2 s exactly 250 m out.
            Leg::new(
                one,
                SimTime::from_secs(3.0),
                Point::new(266.0, 0.0),
                Point::new(234.0, 0.0),
            ),
            Leg::pause(SimTime::from_secs(3.0), end, Point::new(234.0, 0.0)),
        ]);
        let fleet = Fleet::from_trajectories(vec![
            Trajectory::stationary(Point::ORIGIN, SimTime::ZERO, end),
            incoming,
        ]);
        assert!((fleet.max_speed() - 16.0).abs() < 1e-9);
        assert_eq!(
            fleet.position(1, SimTime::from_secs(2.0)),
            Point::new(250.0, 0.0)
        );
        let mut medium = Medium::new(RadioConfig::paper());
        medium.set_fleet_speed_bound(16.0);
        let mut rng = SimRng::from_master(16);
        assert!(send(&mut medium, &fleet, 0.0, 0, 10, &mut rng)
            .deliveries
            .is_empty());
        let out = send(&mut medium, &fleet, 2.0, 0, 10, &mut rng);
        assert_eq!(medium.grid_rebuilds(), 1, "served from the 0 s grid");
        assert_eq!(out.deliveries.len(), 1);
        assert_eq!(out.deliveries[0].distance, 250.0);
    }

    /// The centre is never a hit and never a candidate, even where
    /// another node shares its point, and `grid_candidates` grows by
    /// exactly the other entries inside the widened disk, on a fresh and
    /// on a stale grid. The exact check folds both tests into masks, so
    /// nothing else pins them.
    #[test]
    fn the_centre_is_no_hit_and_candidates_fill_the_widened_disk() {
        // Nodes 2 and 4 share the origin; the rest lie 100 m out, at
        // exactly the range, 10 m past it and 30 m past it.
        let fleet = static_fleet(&[
            (100.0, 0.0),
            (0.0, 250.0),
            (0.0, 0.0),
            (260.0, 0.0),
            (0.0, 0.0),
            (-280.0, 0.0),
        ]);
        let mut medium = Medium::new(RadioConfig::paper());
        medium.set_fleet_speed_bound(10.0);
        let mut rng = SimRng::from_master(24);
        let mut heard = |medium: &mut Medium, secs, src| {
            let before = medium.grid_candidates();
            let out = send(medium, &fleet, secs, src, 10, &mut rng);
            assert!(out.drops.is_empty());
            let to: Vec<u32> = out.deliveries.iter().map(|d| d.to).collect();
            (to, medium.grid_candidates() - before)
        };
        // Fresh: the disk is the range, and its other entries are the hits.
        assert_eq!(heard(&mut medium, 0.0, 2), (vec![0, 1, 4], 3));
        assert_eq!(heard(&mut medium, 0.0, 4), (vec![0, 1, 2], 3));
        // Stale by 2 s: the disk widens by a 20 m drift (and a rounding
        // slack), so node 3 is a candidate too but no hit; node 5 is
        // neither.
        assert_eq!(heard(&mut medium, 2.0, 2), (vec![0, 1, 4], 4));
        assert_eq!(heard(&mut medium, 2.0, 4), (vec![0, 1, 2], 4));
        assert_eq!(medium.grid_rebuilds(), 1, "the 0 s grid serves 2 s");
        assert_eq!(medium.stats().receptions, 12);
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

#[cfg(test)]
mod prop_tests {
    use super::*;
    use crate::loss::LossModel;
    use ia_mobility::Trajectory;
    use proptest::prelude::*;

    /// One node's plan from `(start, legs)`: each leg is `(duration ms,
    /// speed, heading, seam)`. A zero duration gives a zero-length leg
    /// that jumps `speed` metres when `seam` is set, a pause otherwise.
    /// With `seam`, a leg also starts 0.5 µm off where the previous one
    /// ended, as the trajectory tolerance allows, so reading the ended
    /// leg at its end instant gives a different point from the next
    /// leg's.
    fn trajectory(start: (f64, f64), legs: &[(u64, f64, f64, bool)]) -> Trajectory {
        let (mut t, mut at) = (SimTime::ZERO, Point::new(start.0, start.1));
        let legs = legs
            .iter()
            .map(|&(ms, speed, heading, seam)| {
                if seam {
                    at.x += 5e-7;
                }
                let end = t + SimDuration::from_millis(ms);
                let reach = match ms {
                    0 if seam => speed,
                    _ => speed * ms as f64 / 1000.0,
                };
                let to = Point::new(at.x + reach * heading.cos(), at.y + reach * heading.sin());
                let leg = Leg::new(t, end, at, to);
                (t, at) = (end, to);
                leg
            })
            .collect();
        Trajectory::new(legs)
    }

    /// What `broadcast_into` must produce, from `Fleet::position` alone:
    /// every other node within range in id order, each jammed, lost or
    /// delivered with the draws the medium makes.
    fn brute_force(
        fleet: &Fleet,
        cfg: &RadioConfig,
        jam: &JamZone,
        now: SimTime,
        src: u32,
        rng: &mut SimRng,
    ) -> BroadcastOutcome {
        let mut out = BroadcastOutcome::default();
        let sender_pos = fleet.position(src, now);
        for to in (0..fleet.len() as u32).filter(|&id| id != src) {
            let pos = fleet.position(to, now);
            let distance = sender_pos.distance(pos);
            if distance > cfg.range {
                continue;
            }
            if jam.covers(now, pos) {
                out.drop_frame(to, DropReason::Jam);
            } else if cfg.loss.drops(distance, cfg.range, rng) {
                out.drop_frame(to, DropReason::Loss);
            } else {
                let jitter = rng.range_u64(DELAY_MIN.as_micros(), DELAY_MAX.as_micros() + 1);
                out.deliveries.push(Delivery {
                    to,
                    arrival: now + SimDuration::from_micros(jitter),
                    sender_pos,
                    from: src,
                    distance,
                });
            }
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `broadcast_into` equals brute force over `Fleet::position` on
        /// fleets of up to 199 nodes (so the id bitmap spans up to four
        /// words) with zero-length pauses and jumps, at query instants
        /// that land on a leg's end, fall past every plan's last leg, and
        /// leave the grid stale by just under, exactly and just over
        /// `GRID_REFRESH`.
        #[test]
        fn broadcasts_match_brute_force(
            nodes in proptest::collection::vec(
                (
                    (0.0..600.0f64, 0.0..600.0f64),
                    proptest::collection::vec(
                        (
                            prop_oneof![Just(0u64), 1u64..20_000],
                            10.0..40.0f64,
                            0.0..std::f64::consts::TAU,
                            any::<bool>(),
                        ),
                        1..8,
                    ),
                ),
                2..200,
            ),
            steps in proptest::collection::vec((0u8..5, any::<u64>()), 1..48),
            loss in 0.0..0.6f64,
            jam_at in (0.0..600.0f64, 0.0..600.0f64),
        ) {
            let fleet = Fleet::from_trajectories(
                nodes.iter().map(|(start, legs)| trajectory(*start, legs)).collect(),
            );
            let n = fleet.len() as u64;
            let cfg = RadioConfig::paper().with_loss(LossModel::Bernoulli(loss));
            let jam = JamZone::stationary(
                Point::new(jam_at.0, jam_at.1),
                60.0,
                SimTime::ZERO,
                SimTime::from_secs(90.0),
            );
            let mut medium = Medium::new(cfg.clone());
            medium.add_jam_zone(jam);
            let (mut rng, mut oracle_rng) = (SimRng::from_master(9), SimRng::from_master(9));
            let mut out = BroadcastOutcome::default();
            let mut now = SimTime::ZERO;
            for &(kind, raw) in &steps {
                let ms = |d: SimDuration| d.as_micros() / 1000;
                now += match kind {
                    0 => SimDuration::from_millis(raw % 10_000),
                    // Just under, at or just over the refresh cadence.
                    1 => SimDuration::from_millis(ms(GRID_REFRESH) - 1 + raw % 3),
                    // The next end of a leg of some node, if any is left.
                    2 => fleet
                        .trajectory((raw % n) as u32)
                        .legs()
                        .map(|leg| leg.end_time)
                        .find(|&end| end >= now)
                        .map_or(SimDuration::ZERO, |end| end - now),
                    // Far past most plans' ends.
                    3 => SimDuration::from_secs(60.0 + (raw % 60) as f64),
                    _ => SimDuration::ZERO,
                };
                let src = (raw >> 32) as u32 % n as u32;
                medium.broadcast_into(&fleet, now, src, 100, &mut rng, &mut out);
                let want = brute_force(&fleet, &cfg, &jam, now, src, &mut oracle_rng);
                prop_assert_eq!(&out, &want, "at {} from {}", now, src);
            }
            prop_assert_eq!(medium.grid_queries(), steps.len() as u64);
        }
    }
}
