//! The simulation world: protocols x mobility x radio x scheduler.
//!
//! The world is a thin orchestrator: it routes scheduler events into
//! protocol callbacks through a single reused [`ActionSink`] (so the
//! steady-state dispatch path allocates nothing), applies the resulting
//! actions, feeds every acceptance to its [`DeliveryTracker`] (the
//! paper's metrics), and fans every observable moment out to its
//! attached [`SimObserver`]s, in attachment order. There are none unless
//! a caller attaches one; all optional measurement — fault ledgers,
//! traces — lives in [`crate::observer`] implementations, not here.
//!
//! Every event addressed to an on-line peer is one protocol callback.
//! The [`PeerContext`] it gets looks nothing up until the protocol asks:
//! the position fix, the velocity estimate and future fixes all come
//! through [`Motion`] on demand, so a callback that reads no position
//! (a stale or early wake-up, a pure-Gossip duplicate) costs no cursor
//! lookup. An entry wake-up's callback says what it did
//! ([`EntryWake`]), which the world counts and reports to observers.

use crate::observer::{BroadcastInfo, SimObserver, SuppressReason};
use crate::scenario::{CorruptionSpec, InterestWorkload, MobilityKind, Scenario, MAX_FLIPS};
use crate::tracker::DeliveryTracker;
use ia_core::{
    build_protocol, codec, Action, ActionSink, AdId, AdMessage, Advertisement, CopyFate, EntryWake,
    Motion, PeerContext, PeerId, Protocol, RxMeta, UserProfile,
};
use ia_des::rng::{keyed_below, keyed_bits, keyed_unit, stream};
use ia_des::{Scheduler, SimDuration, SimRng, SimTime};
use ia_geo::{Point, Vector};
use ia_mobility::{Fleet, FleetCursor, GpsNoise, LegWalk, Manhattan, RandomWaypoint, Trajectory};
use ia_radio::{BroadcastOutcome, DropReason, Medium};
use std::any::Any;
use std::sync::Arc;
use std::time::Instant;

/// Events driving one run: 24 bytes each, so a scheduler slab slot is
/// 48.
enum Event {
    /// Bring a peer online (fires at t = 0 for everyone).
    Start(u32),
    /// A peer's timer for one ad: a gossip entry tick or a flooding wave.
    Entry(u32, AdId),
    /// Arrival at `to`, `distance` metres from the sender, of a copy of
    /// the frame in flight in slot `tx` ([`Flights`]), queued only for a
    /// copy the receiver neither skipped nor applied when it was sent
    /// ([`World::broadcast`]).
    Deliver { tx: u32, to: u32, distance: f64 },
    /// The issuer of ad `index` publishes it.
    Issue { index: u32 },
    /// A node switches off: no further transmissions, receptions, or
    /// timers (the paper's issuer-goes-off-line scenario).
    Depart(u32),
    /// A churned node switches back on; its protocol restarts (warm
    /// cache, fresh timers).
    Rejoin(u32),
}

/// A fully wired simulation run.
pub struct World {
    scenario: Scenario,
    fleet: Fleet,
    medium: Medium,
    sched: Scheduler<Event>,
    peers: Vec<Box<dyn Protocol>>,
    radio_rng: SimRng,
    /// The key of the keyed frame-corruption draws ([`World::verdict`]).
    corrupt_key: u64,
    /// The corruption verdict's syndrome table, built at the first
    /// corrupted frame and kept for its length.
    flip_verdict: codec::FlipVerdict,
    /// The paper's delivery metrics, fed on every `Action::Accepted`.
    tracker: DeliveryTracker,
    /// Passive instrumentation, fed every hook in attachment order.
    observers: Vec<Box<dyn SimObserver>>,
    /// The one action buffer every protocol callback pushes into; drained
    /// by `apply` and reused, so dispatch never allocates at steady state.
    sink: ActionSink,
    /// The one broadcast-outcome buffer `apply` recycles across
    /// transmissions (same take/restore discipline as `sink`).
    outcome: BroadcastOutcome,
    /// Leg-cursor cache for the context's position lookup and on-demand
    /// velocity estimate; the medium keeps its own.
    cursor: FleetCursor,
    /// The fleet's top speed, m/s, which bounds a peer's drift between
    /// two fixes ([`Motion::max_drift`]).
    max_speed: f64,
    ad_ids: Vec<AdId>,
    /// Each ad as its issuer publishes it: built with the world, so
    /// issuing one is a copy that allocates nothing.
    issued: Vec<Advertisement>,
    /// The frames whose copies are queued to arrive.
    flights: Flights,
    /// Per-node online flag; departed nodes are radio-silent and ignore
    /// timers.
    online: Vec<bool>,
    /// Wall-clock phase breakdown, off (and branch-only overhead) unless
    /// [`World::enable_phase_profile`] was called. The perf harness
    /// measures its headline numbers in a separate, uninstrumented run.
    profile: Option<Box<PhaseProfile>>,
    entry_wakeups: EntryWakeups,
    /// Whether a broadcast asks each intact copy's receiver what the copy
    /// will do there ([`Protocol::on_copy_sent`]): only where no cache
    /// can evict (the scenario has no more ads than a cache holds).
    ask_at_send: bool,
    /// Whether no node goes off-line during the run: no churn, no
    /// partition wave and no issuer departure.
    always_online: bool,
    deliveries: Deliveries,
}

/// Per-entry wake-ups that reached an on-line peer, by what
/// [`Protocol::on_entry_timer`] did with them. They are every timer of
/// every protocol.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EntryWakeups {
    /// Ran the entry's tick (`on_entry_timer`).
    pub fired: u64,
    /// Popped before the entry's planned tick and was queued again there.
    pub rearmed: u64,
    /// Superseded, or the entry is gone.
    pub dropped: u64,
}

/// Frame copies the channel delivered, by their fate when the frame was
/// sent. The sum over the five fates is the medium's `receptions`. A
/// copy that arrives at or past the horizon is `past_horizon`, whatever
/// its verdict or its receiver would have made of it; the other four
/// count copies that arrive before the horizon.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Deliveries {
    /// Queued to arrive at their receivers.
    pub queued: u64,
    /// Left out: the arrival would have changed nothing at the receiver
    /// ([`CopyFate::Skip`]).
    pub skipped: u64,
    /// Left out: applied by the receiver when its frame was sent, with the
    /// context at its arrival instant ([`CopyFate::Applied`]).
    pub applied: u64,
    /// Left out: the copy's corruption verdict, a keyed draw made at send
    /// time, drops it at the receiver's CRC check.
    pub corrupted: u64,
    /// Left out: the copy arrives at or past the run's horizon, where no
    /// callback runs. No observer sees it.
    pub past_horizon: u64,
}

/// What the receiver's CRC check makes of one frame copy.
#[derive(Debug, PartialEq)]
enum Verdict {
    /// No bit flipped.
    Intact,
    /// Flipped and dropped as corrupted.
    Dropped,
    /// Flipped, yet passed the CRC as this message.
    Escaped(AdMessage),
}

/// A frame in flight: the message its queued copies carry, where and by
/// whom it was sent, and how many of its copies are still queued.
struct InFlight {
    msg: AdMessage,
    sender_pos: Point,
    from: u32,
    pending: u32,
}

/// The world's frames in flight, one slot per frame with queued copies;
/// an [`Event::Deliver`] names its frame by slot. A slot is taken when a
/// frame's first copy is queued and freed when its last one arrives, and
/// freed slots are reused, so a warm table allocates nothing. Every
/// queued copy arrives before the horizon, so every slot drains.
#[derive(Default)]
struct Flights {
    slots: Vec<Option<InFlight>>,
    free: Vec<u32>,
}

impl Flights {
    /// Take a slot for `msg` sent by `from` at `sender_pos`, with no copy
    /// queued yet.
    fn open(&mut self, msg: AdMessage, sender_pos: Point, from: u32) -> u32 {
        let flight = Some(InFlight {
            msg,
            sender_pos,
            from,
            pending: 0,
        });
        match self.free.pop() {
            Some(tx) => {
                self.slots[tx as usize] = flight;
                tx
            }
            None => {
                self.slots.push(flight);
                (self.slots.len() - 1) as u32
            }
        }
    }

    /// One more copy of frame `tx` is queued.
    fn queue_copy(&mut self, tx: u32) {
        self.flight(tx).pending += 1;
    }

    /// A queued copy of frame `tx` arrives `distance` metres from its
    /// sender: its message and metadata. The last copy frees the slot
    /// and takes the message; earlier ones copy it.
    fn land(&mut self, tx: u32, distance: f64) -> (AdMessage, RxMeta) {
        let flight = self.flight(tx);
        flight.pending -= 1;
        let meta = RxMeta {
            sender_pos: flight.sender_pos,
            from: flight.from,
            distance,
        };
        if flight.pending > 0 {
            return (flight.msg.clone(), meta);
        }
        self.free.push(tx);
        let flight = self.slots[tx as usize].take().expect("in flight");
        (flight.msg, meta)
    }

    fn flight(&mut self, tx: u32) -> &mut InFlight {
        self.slots[tx as usize]
            .as_mut()
            .expect("a queued copy's frame is in flight")
    }
}

/// Wall-clock nanoseconds spent in each hot phase of a run, collected
/// only when phase profiling is enabled. The buckets cover the dominant
/// code paths rather than partitioning the total: `queue_ns` is the
/// scheduler pop loop, `grid_ns` the medium broadcast (spatial query +
/// channel), `protocol_ns` the protocol callbacks, and `observer_ns` the
/// broadcast/suppression observer fan-out.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseProfile {
    pub queue_ns: u64,
    pub grid_ns: u64,
    pub protocol_ns: u64,
    pub observer_ns: u64,
}

/// Velocity-estimation window for the paper's "two consecutive recorded
/// locations" heading derivation.
const VELOCITY_FIX_WINDOW: SimDuration = SimDuration::from_millis(1000);

/// The position fix a protocol callback of `node` at `t` reads, given
/// the node's true position there. While a GPS ramp is active
/// (fault injection) the fix is noisy; overlapping ramps compose by
/// adding variances. The noise is keyed by (node, `t`), so the fix is a
/// function of the instant alone. Ground truth, and with it the delivery
/// metrics and the radio's propagation geometry, stays exact.
fn gps_fix(scenario: &Scenario, node: u32, t: SimTime, truth: Point) -> Point {
    let sigma2 = gps_variance(scenario, t);
    if sigma2 > 0.0 {
        let key = ia_des::derive_seed(
            scenario.seed,
            stream::FAULT | stream::fault::GPS | node as u64,
        );
        GpsNoise::new(sigma2.sqrt()).apply(truth, key, t)
    } else {
        truth
    }
}

/// The per-axis variance of the GPS noise at `t`, summed over the active
/// ramps; a fix is noisy iff it is positive.
fn gps_variance(scenario: &Scenario, t: SimTime) -> f64 {
    scenario
        .faults
        .gps_ramps
        .iter()
        .map(|r| r.sigma_at(t).powi(2))
        .sum()
}

/// A peer's motion at one callback instant: the position fix and the
/// velocity estimate through the world's leg cursor, and exact future
/// fixes from a forward walk over the node's legs, each only when the
/// protocol asks.
struct FleetMotion<'a> {
    cursor: &'a mut FleetCursor,
    fleet: &'a Fleet,
    scenario: &'a Scenario,
    /// The fleet's top speed, m/s ([`Fleet::max_speed`]).
    max_speed: f64,
    node: u32,
    now: SimTime,
    /// The true position at `now`, once read: the fix and the velocity
    /// estimate share it.
    truth: Option<Point>,
    /// The look-ahead's leg walk, from the cursor's leg at `now` on.
    ahead: Option<LegWalk<'a>>,
}

impl FleetMotion<'_> {
    fn truth(&mut self) -> Point {
        let (cursor, fleet, node, now) = (&mut *self.cursor, self.fleet, self.node, self.now);
        *self
            .truth
            .get_or_insert_with(|| cursor.position(fleet, node, now))
    }
}

impl Motion for FleetMotion<'_> {
    fn position(&mut self) -> Point {
        let truth = self.truth();
        gps_fix(self.scenario, self.node, self.now, truth)
    }

    /// The two-fix estimate from true positions, never from noisy fixes.
    fn velocity(&mut self) -> Vector {
        let truth = self.truth();
        let (fleet, node, now) = (self.fleet, self.node, self.now);
        self.cursor
            .estimated_velocity_from(fleet, node, now, VELOCITY_FIX_WINDOW, truth)
    }

    /// The fix a callback at `t` reads ([`gps_fix`]), up to the
    /// scheduler's horizon, past which no callback runs.
    fn position_at(&mut self, t: SimTime) -> Option<Point> {
        if t >= SimTime::ZERO + self.scenario.sim_time {
            return None;
        }
        let (cursor, fleet, node) = (&*self.cursor, self.fleet, self.node);
        let truth = self
            .ahead
            .get_or_insert_with(|| cursor.walk(fleet, node))
            .position(t);
        Some(gps_fix(self.scenario, self.node, t, truth))
    }

    /// The fleet's top speed times the elapsed time: no trajectory moves
    /// faster. `None` wherever [`Self::position_at`] is, and while the
    /// fix at either instant is noisy (the test [`gps_fix`] applies).
    fn max_drift(&mut self, from: SimTime, to: SimTime) -> Option<f64> {
        let noisy = |t| gps_variance(self.scenario, t) > 0.0;
        if to >= SimTime::ZERO + self.scenario.sim_time || noisy(from) || noisy(to) {
            return None;
        }
        Some(self.max_speed * to.since(from).as_secs())
    }
}

impl World {
    /// Build the world: generate the fleet (mobile peers + one stationary
    /// issuer per ad), instantiate per-peer protocol state, and schedule
    /// start/issue events.
    pub fn new(scenario: Scenario) -> Self {
        scenario.validate();
        let start = SimTime::ZERO;
        let end = start + scenario.sim_time;

        // Mobile peers, then one stationary issuer per ad at its issue
        // position.
        let (n, seed) = (scenario.n_peers, scenario.seed);
        let (area, mean, delta) = (scenario.area, scenario.speed_mean, scenario.speed_delta);
        let mut fleet = match scenario.mobility {
            MobilityKind::RandomWaypoint => Fleet::generate(
                &RandomWaypoint::paper(area, mean, delta),
                n,
                seed,
                start,
                end,
            ),
            MobilityKind::Manhattan => {
                Fleet::generate(&Manhattan::paper(area, mean, delta), n, seed, start, end)
            }
        };
        let issuers = scenario.ads.iter();
        fleet.extend(issuers.map(|spec| Trajectory::stationary(spec.issue_pos, start, end)));
        // An ad's seq is its scenario index: `schedule_entry`'s rank needs
        // it to be unique.
        let ad_ids: Vec<AdId> = scenario
            .ads
            .iter()
            .enumerate()
            .map(|(i, _)| AdId::new(PeerId(scenario.issuer_node(i)), i as u32))
            .collect();
        // The tracker cuts its tables to size as it builds them; built
        // before the peers, the scheduler and the medium, whose heap
        // outweighs the tables' growth slack, it leaves set-up peaking at
        // the heap the world keeps (`zero_alloc.rs` pins this).
        let tracker = {
            let specs: Vec<(AdId, crate::scenario::AdSpec)> = ad_ids
                .iter()
                .copied()
                .zip(scenario.ads.iter().cloned())
                .collect();
            DeliveryTracker::new(&fleet, scenario.n_peers, &specs)
        };

        // Per-peer protocol instances, each with the key of its draws;
        // every peer shares one copy of the parameters.
        let params = scenario.params.clone().shared();
        let peers: Vec<Box<dyn Protocol>> = (0..scenario.n_nodes() as u32)
            .map(|node| {
                build_protocol(
                    scenario.protocol,
                    Arc::clone(&params),
                    scenario.radio.range,
                    Self::profile_for(&scenario, node),
                    ia_des::derive_seed(scenario.seed, stream::ENTRY | node as u64),
                )
            })
            .collect();

        let mut medium = Medium::new(scenario.radio.clone());
        // Stale-grid queries widen by the fleet's top speed. Derived once
        // here — trajectories are immutable — so the medium need not scan
        // the fleet itself.
        let max_speed = fleet.max_speed();
        medium.set_fleet_speed_bound(max_speed);
        for zone in &scenario.faults.jam_zones {
            medium.add_jam_zone(*zone);
        }
        if let Some(burst) = &scenario.faults.burst_loss {
            medium.set_burst_loss(burst.from, burst.until, burst.channel());
        }
        let mut sched = Scheduler::new().with_horizon(end);
        for node in 0..scenario.n_nodes() as u32 {
            sched.schedule_at(start, Event::Start(node));
        }
        for (i, spec) in scenario.ads.iter().enumerate() {
            sched.schedule_at(spec.issue_time, Event::Issue { index: i as u32 });
        }
        if let Some(churn) = &scenario.churn {
            // Pre-generate each mobile peer's up/down timeline from its
            // own stream (exponential periods, memoryless process).
            for node in 0..scenario.n_peers as u32 {
                let mut rng = SimRng::derive(scenario.seed, stream::WORKLOAD | node as u64);
                let exp = |rng: &mut SimRng, mean: SimDuration| {
                    let u = rng.unit().max(1e-12);
                    mean.mul_f64(-u.ln())
                };
                let mut t = start + exp(&mut rng, churn.mean_up);
                while t < end {
                    sched.schedule_at(t, Event::Depart(node));
                    t += exp(&mut rng, churn.mean_down);
                    if t >= end {
                        break;
                    }
                    sched.schedule_at(t, Event::Rejoin(node));
                    t += exp(&mut rng, churn.mean_up);
                }
            }
        }
        // Partition waves: membership is drawn per wave from its own
        // fault stream at build time, so an identical scenario always
        // takes down an identical set of peers at identical instants.
        for (w, wave) in scenario.faults.partition_waves.iter().enumerate() {
            let mut rng = SimRng::derive(
                scenario.seed,
                stream::FAULT | stream::fault::PARTITION | w as u64,
            );
            for node in 0..scenario.n_peers as u32 {
                if rng.chance(wave.fraction) {
                    sched.schedule_at(wave.at, Event::Depart(node));
                    let back = wave.at + wave.down_for;
                    if back < end {
                        sched.schedule_at(back, Event::Rejoin(node));
                    }
                }
            }
        }
        if let Some(after) = scenario.issuer_offline_after {
            for (i, spec) in scenario.ads.iter().enumerate() {
                sched.schedule_at(
                    spec.issue_time + after,
                    Event::Depart(scenario.issuer_node(i)),
                );
            }
        }
        // The issue event fires at the ad's issue time, so the ad is the
        // same built now.
        let issued = (scenario.ads.iter().zip(&ad_ids))
            .map(|(spec, &id)| {
                Advertisement::new(
                    id,
                    spec.issue_pos,
                    spec.issue_time,
                    spec.radius,
                    spec.duration,
                    spec.topics.clone(),
                    spec.payload_bytes,
                    &scenario.params,
                )
            })
            .collect();
        let online = vec![true; scenario.n_nodes()];
        let ask_at_send = scenario.ads.len() <= scenario.params.cache_capacity;
        let always_online = scenario.churn.is_none()
            && scenario.faults.partition_waves.is_empty()
            && scenario.issuer_offline_after.is_none();

        World {
            radio_rng: SimRng::derive(scenario.seed, stream::RADIO),
            corrupt_key: ia_des::derive_seed(scenario.seed, stream::FAULT | stream::fault::CORRUPT),
            flip_verdict: codec::FlipVerdict::new(),
            scenario,
            fleet,
            medium,
            sched,
            peers,
            tracker,
            observers: Vec::new(),
            sink: ActionSink::new(),
            outcome: BroadcastOutcome::default(),
            cursor: FleetCursor::new(),
            max_speed,
            ad_ids,
            issued,
            flights: Flights::default(),
            online,
            profile: None,
            entry_wakeups: EntryWakeups::default(),
            ask_at_send,
            always_online,
            deliveries: Deliveries::default(),
        }
    }

    /// Attach an additional [`SimObserver`]; it receives every hook from
    /// this point on. Attach before [`World::run`] to see the whole run.
    /// Observers are passive: the outcome and the work (events, queue
    /// operations, [`World::deliveries`]) are the same with any set.
    pub fn attach_observer(&mut self, observer: Box<dyn SimObserver>) {
        self.observers.push(observer);
    }

    /// Typed access to the first attached observer of type `T` (e.g.
    /// `world.observer::<FaultLedger>()`).
    pub fn observer<T: SimObserver>(&self) -> Option<&T> {
        self.observers
            .iter()
            .find_map(|o| (o.as_ref() as &dyn Any).downcast_ref::<T>())
    }

    /// Fan one hook out to every attached observer, in attachment order.
    fn observe(&mut self, mut hook: impl FnMut(&mut dyn SimObserver)) {
        for o in &mut self.observers {
            hook(o.as_mut());
        }
    }

    fn profile_for(scenario: &Scenario, node: u32) -> UserProfile {
        let user_id = ia_des::derive_seed(scenario.seed, stream::INTEREST | node as u64);
        match &scenario.interests {
            InterestWorkload::None => UserProfile::indifferent(user_id),
            InterestWorkload::Uniform {
                universe,
                p_interested,
            } => {
                let mut rng = SimRng::derive(scenario.seed, stream::INTEREST | node as u64);
                let interests: Vec<u32> = (1..=*universe)
                    .filter(|_| rng.chance(*p_interested))
                    .collect();
                UserProfile::new(user_id, interests)
            }
        }
    }

    /// Enable the wall-clock phase breakdown for this run. Adds timer
    /// reads around the hot phases, so enable it only on runs whose
    /// headline timing is not being measured.
    pub fn enable_phase_profile(&mut self) {
        self.profile = Some(Box::default());
    }

    /// The phase breakdown collected so far, if profiling is enabled.
    pub fn phase_profile(&self) -> Option<&PhaseProfile> {
        self.profile.as_deref()
    }

    /// Lifetime scheduler-queue operation counters.
    pub fn queue_stats(&self) -> ia_des::QueueStats {
        self.sched.queue_stats()
    }

    /// Per-entry wake-ups so far, by outcome (fired, re-armed, dropped).
    pub fn entry_wakeups(&self) -> EntryWakeups {
        self.entry_wakeups
    }

    /// Frame deliveries so far, queued, or left out as skipped, applied,
    /// corrupted or past the horizon.
    pub fn deliveries(&self) -> Deliveries {
        self.deliveries
    }

    /// Drive the run to the horizon.
    pub fn run(&mut self) {
        self.run_until(SimTime::MAX);
    }

    /// Start timing a phase: the current instant while profiling, else
    /// `None` (no clock read).
    fn phase_start(&self) -> Option<Instant> {
        self.profile.as_ref().map(|_| Instant::now())
    }

    /// Charge the time since `t0` to the profile bucket `bucket` picks.
    fn phase_end(&mut self, t0: Option<Instant>, bucket: fn(&mut PhaseProfile) -> &mut u64) {
        if let (Some(t0), Some(p)) = (t0, self.profile.as_deref_mut()) {
            *bucket(p) += t0.elapsed().as_nanos() as u64;
        }
    }

    /// Drive the run up to (and including) simulated time `t`, then stop.
    /// Repeated calls step the world forward; useful for inspection and
    /// visualisation between phases. Returns how many events fired.
    ///
    /// A copy applied when its frame was sent ([`Deliveries::applied`])
    /// is in the receiver's state from then on, so between steps
    /// [`World::best_copy`] and the peers' cached copies may already
    /// include copies still in flight at `t`. A full run reads the same.
    pub fn run_until(&mut self, t: SimTime) -> u64 {
        let mut fired = 0;
        loop {
            let t0 = self.phase_start();
            // Only a stepped run peeks (a wheel scan): the full run pops.
            let due = t == SimTime::MAX || self.sched.peek_time().is_some_and(|next| next <= t);
            let ev = if due { self.sched.pop() } else { None };
            self.phase_end(t0, |p| &mut p.queue_ns);
            let Some(ev) = ev else { break };
            self.handle(ev);
            fired += 1;
        }
        fired
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.sched.now()
    }

    /// Total scheduler events delivered so far (the perf harness's
    /// denominator for ns/event).
    pub fn events_processed(&self) -> u64 {
        self.sched.events_processed()
    }

    /// Snapshot for visualisation: every node's position at `t` plus
    /// whether it currently holds `ad` and whether it is online.
    pub fn snapshot(&self, ad: AdId, t: SimTime) -> Vec<(ia_geo::Point, bool, bool)> {
        (0..self.scenario.n_nodes() as u32)
            .map(|node| {
                (
                    self.fleet.position(node, t),
                    self.peers[node as usize].holds(ad),
                    self.online[node as usize],
                )
            })
            .collect()
    }

    fn handle(&mut self, ev: Event) {
        let now = self.sched.now();
        match ev {
            Event::Deliver { tx, to, distance } => {
                let (msg, meta) = self.flights.land(tx, distance);
                self.deliver(now, to, &msg, &meta);
            }
            Event::Depart(node) => {
                if self.is_online(node) {
                    self.online[node as usize] = false;
                    self.observe(|o| o.on_depart(now, node));
                }
            }
            Event::Rejoin(node) => {
                if !self.is_online(node) {
                    self.online[node as usize] = true;
                    self.observe(|o| o.on_rejoin(now, node));
                    self.dispatch(node, now, |peer, ctx, out| peer.on_start(ctx, out));
                }
            }
            // A departed node's timers and issues are dropped.
            Event::Start(node) if self.is_online(node) => {
                self.dispatch(node, now, |peer, ctx, out| peer.on_start(ctx, out));
            }
            Event::Entry(node, ad) if self.is_online(node) => {
                let wake = self.dispatch(node, now, |peer, ctx, out| {
                    peer.on_entry_timer(ctx, ad, out)
                });
                match wake {
                    EntryWake::Drop => self.entry_wakeups.dropped += 1,
                    EntryWake::Rearm => self.entry_wakeups.rearmed += 1,
                    EntryWake::Fire => {
                        self.entry_wakeups.fired += 1;
                        self.observe(|o| o.on_round(now, node));
                    }
                }
            }
            Event::Issue { index } if self.is_online(self.scenario.issuer_node(index as usize)) => {
                let index = index as usize;
                let node = self.scenario.issuer_node(index);
                let ad = self.issued[index].clone();
                debug_assert_eq!(ad.issue_time, now, "an ad is issued at its issue time");
                self.dispatch(node, now, |peer, ctx, out| peer.issue(ctx, ad, out));
            }
            Event::Start(_) | Event::Entry(..) | Event::Issue { .. } => {}
        }
    }

    fn is_online(&self, node: u32) -> bool {
        self.online[node as usize]
    }

    /// A queued copy of `msg` arrives at `to`: its receiver handles it,
    /// or, off-line, drops it (`on_suppress`).
    fn deliver(&mut self, now: SimTime, to: u32, msg: &AdMessage, meta: &RxMeta) {
        if !self.is_online(to) {
            self.observe(|o| o.on_suppress(now, to, msg, SuppressReason::Offline));
            return;
        }
        self.observe(|o| o.on_deliver(now, to, msg, meta));
        self.dispatch(to, now, |peer, ctx, out| {
            peer.on_receive(ctx, msg, meta, out)
        });
    }

    /// The key of the corruption draws of every copy of the frame of
    /// `msg` sent at `sent`: one per broadcast, as the ad and the send
    /// instant are the same for all its copies.
    fn frame_key(&self, msg: &AdMessage, sent: SimTime) -> u64 {
        let id = msg.ad.id;
        let ad = u64::from(id.issuer.0) << 32 | u64::from(id.seq);
        keyed_bits(self.corrupt_key, ad, sent.as_micros())
    }

    /// The verdict on the copy of `msg` that `from` sends to `to` in the
    /// frame keyed `frame` ([`World::frame_key`]), inside an active
    /// corruption window (fault injection): with probability `p_corrupt`
    /// the frame gets 1..=`max_flips` bit flips between encode and
    /// decode, and the CRC check decides ([`World::flipped`]).
    ///
    /// Every draw is keyed by (sender, ad, send instant, receiver), so a
    /// verdict is a pure function of the copy: it can be made when the
    /// frame is sent, for copies in any order, and it is the same whether
    /// or not the copy is then queued.
    fn verdict(
        &mut self,
        c: CorruptionSpec,
        frame: u64,
        from: u32,
        to: u32,
        msg: &AdMessage,
    ) -> Verdict {
        let copy = u64::from(from) << 32 | u64::from(to);
        if keyed_unit(frame, copy, 0) >= c.p_corrupt {
            return Verdict::Intact;
        }
        let frame_bits = (msg.bytes() + codec::FRAME_CRC_BYTES) as u64 * 8;
        let mut bits = [0u64; MAX_FLIPS as usize];
        let n = 1 + keyed_below(frame, copy, 1, u64::from(c.max_flips)) as usize;
        for (k, bit) in (2..).zip(&mut bits[..n]) {
            *bit = keyed_below(frame, copy, k, frame_bits);
        }
        match self.flipped(msg, &bits[..n]) {
            Some(decoded) => Verdict::Escaped(decoded),
            None => Verdict::Dropped,
        }
    }

    /// The message a receiver decodes from `msg`'s frame with the bits at
    /// `flips` flipped, or `None` when the frame is dropped as corrupted.
    ///
    /// The CRC verdict comes from the flip positions alone
    /// ([`codec::FlipVerdict`]). Only a flip set that passes the CRC
    /// (flips that cancel, or an undetected error, about 2⁻³²) builds,
    /// flips and decodes the real frame, so the outcome is exactly that
    /// of the frame path. A decoded frame that escaped the CRC may still
    /// differ from the sent one; it reaches the receiver only if it
    /// carries the sent ad's id and sketch family. A changed id would be
    /// a phantom ad, and another family would fail the merge into a
    /// cached copy ([`Advertisement::absorb`]).
    fn flipped(&mut self, msg: &AdMessage, flips: &[u64]) -> Option<AdMessage> {
        let frame_len = msg.bytes() + codec::FRAME_CRC_BYTES;
        if !self.flip_verdict.passes(frame_len, flips) {
            return None;
        }
        let mut frame = codec::encode_frame(msg);
        for &bit in flips {
            frame[(bit / 8) as usize] ^= 1 << (bit % 8);
        }
        let sent = &msg.ad;
        codec::decode_frame(&frame).ok().filter(|recovered| {
            recovered.ad.id == sent.id && recovered.ad.sketches.same_family(&sent.sketches)
        })
    }

    /// Run one protocol callback against the shared action sink, then
    /// apply whatever it pushed, and return what the callback returned.
    /// The sink is moved out for the duration of the call (so `apply` can
    /// borrow the rest of `self`) and moved back with its capacity intact
    /// — no allocation at steady state.
    fn dispatch<R>(
        &mut self,
        node: u32,
        now: SimTime,
        f: impl FnOnce(&mut dyn Protocol, &mut PeerContext<'_>, &mut ActionSink) -> R,
    ) -> R {
        let mut sink = std::mem::take(&mut self.sink);
        let t0 = self.phase_start();
        let result = self.with_ctx(node, now, |peer, ctx| f(peer, ctx, &mut sink));
        self.phase_end(t0, |p| &mut p.protocol_ns);
        self.apply(node, now, &mut sink);
        self.sink = sink;
        result
    }

    fn with_ctx<R>(
        &mut self,
        node: u32,
        now: SimTime,
        f: impl FnOnce(&mut dyn Protocol, &mut PeerContext<'_>) -> R,
    ) -> R {
        let mut ctx = PeerContext {
            now,
            motion: &mut FleetMotion {
                cursor: &mut self.cursor,
                fleet: &self.fleet,
                scenario: &self.scenario,
                max_speed: self.max_speed,
                node,
                now,
                truth: None,
                ahead: None,
            },
        };
        f(self.peers[node as usize].as_mut(), &mut ctx)
    }

    fn apply(&mut self, node: u32, now: SimTime, sink: &mut ActionSink) {
        for action in sink.drain() {
            match action {
                Action::Broadcast(msg) => self.broadcast(node, now, msg),
                Action::ScheduleEntry { ad, at } => self.schedule_entry(node, ad, at),
                Action::Accepted { ad } => {
                    self.tracker.record_receipt(node, ad, now);
                    self.observe(|o| o.on_accept(now, node, ad));
                }
                Action::CacheEvicted { ad } => {
                    self.observe(|o| o.on_cache_evict(now, node, ad));
                }
            }
        }
    }

    /// Transmit `msg` from `node` now: the channel decides who hears it,
    /// and the observers see the outcome. A copy that arrives at or past
    /// the horizon, where no callback runs, is counted first and left
    /// out: it gets no verdict, its receiver is not asked, and no observer
    /// sees it. Every other copy gets its corruption verdict
    /// ([`World::verdict`]) if it arrives inside a corruption window, and
    /// a copy the CRC drops is not queued. Where no cache can evict, the
    /// receiver of an intact copy is asked, with the context at the
    /// copy's arrival instant, what the copy will do there
    /// ([`Protocol::on_copy_sent`]): a copy it skips is dropped, and one it
    /// applies has had its effect. Neither is queued, and every copy left
    /// out before the horizon is reported now. A copy that escapes the
    /// CRC carries what it decodes to.
    ///
    /// The first queued copy takes a slot in the in-flight table
    /// ([`Flights`]) for the message, and every queued copy names the
    /// slot; an escaped copy takes a slot of its own.
    #[inline(never)]
    fn broadcast(&mut self, node: u32, now: SimTime, msg: AdMessage) {
        let bytes = msg.bytes();
        // Take/restore the outcome buffer (like `sink`) so the
        // scheduler below can borrow the rest of `self`.
        let mut outcome = std::mem::take(&mut self.outcome);
        let t0 = self.phase_start();
        self.medium.broadcast_into(
            &self.fleet,
            now,
            node,
            bytes,
            &mut self.radio_rng,
            &mut outcome,
        );
        self.phase_end(t0, |p| &mut p.grid_ns);
        let info = BroadcastInfo {
            bytes,
            receivers: outcome.deliveries.len(),
            drops: outcome.drop_counts(),
        };
        let t0 = self.phase_start();
        self.observe(|o| o.on_broadcast(now, node, &msg, &info));
        for d in &outcome.drops {
            let reason = match d.reason {
                DropReason::Loss => SuppressReason::ChannelLoss,
                DropReason::Jam => SuppressReason::Jammed,
                DropReason::Collision => SuppressReason::Collision,
            };
            self.observe(|o| o.on_suppress(now, d.to, &msg, reason));
        }
        self.phase_end(t0, |p| &mut p.observer_ns);
        // An intact copy's arrival runs its callback unless the receiver
        // can go off-line first (the copy arrives before the horizon).
        let (ask, arrives) = (self.ask_at_send, self.always_online);
        let horizon = SimTime::ZERO + self.scenario.sim_time;
        // Every copy's verdict draws from one key per frame.
        let corruption = self.scenario.faults.corruption;
        let corruption = corruption.map(|c| (c, self.frame_key(&msg, now)));
        let mut tx = None;
        for d in outcome.deliveries.drain(..) {
            if d.arrival >= horizon {
                self.deliveries.past_horizon += 1;
                continue;
            }
            let verdict = match corruption {
                Some((c, frame)) if c.active(d.arrival) => self.verdict(c, frame, node, d.to, &msg),
                _ => Verdict::Intact,
            };
            let meta = RxMeta {
                sender_pos: d.sender_pos,
                from: d.from,
                distance: d.distance,
            };
            let fate = match verdict {
                Verdict::Intact if ask => self.with_ctx(d.to, d.arrival, |peer, ctx| {
                    peer.on_copy_sent(ctx, &msg, &meta, arrives)
                }),
                _ => CopyFate::Queue,
            };
            let left_out = match fate {
                CopyFate::Queue => None,
                CopyFate::Skip => Some(&mut self.deliveries.skipped),
                CopyFate::Applied => Some(&mut self.deliveries.applied),
            };
            if let Some(count) = left_out {
                *count += 1;
                self.report_unqueued(now, d.to, &msg, Some(&meta));
                continue;
            }
            let slot = match verdict {
                Verdict::Dropped => {
                    self.deliveries.corrupted += 1;
                    self.report_unqueued(now, d.to, &msg, None);
                    continue;
                }
                Verdict::Intact => {
                    *tx.get_or_insert_with(|| self.flights.open(msg.clone(), d.sender_pos, d.from))
                }
                Verdict::Escaped(decoded) => self.flights.open(decoded, d.sender_pos, d.from),
            };
            self.flights.queue_copy(slot);
            self.deliveries.queued += 1;
            let event = Event::Deliver {
                tx: slot,
                to: d.to,
                distance: d.distance,
            };
            self.sched.schedule_at(d.arrival, event);
        }
        self.outcome = outcome;
    }

    /// Report a copy that is not queued when its frame is sent: a skipped
    /// or applied one (`meta`) as delivered, a dropped one as corrupted,
    /// either as off-line if its receiver is off-line now. Reads nothing
    /// when nobody watches: most copies of a gossip run pass here.
    fn report_unqueued(&mut self, now: SimTime, to: u32, msg: &AdMessage, meta: Option<&RxMeta>) {
        if self.observers.is_empty() {
            return;
        }
        let reason = match meta {
            _ if !self.online[to as usize] => SuppressReason::Offline,
            Some(meta) => return self.observe(|o| o.on_deliver(now, to, msg, meta)),
            None => SuppressReason::Corrupted,
        };
        self.observe(|o| o.on_suppress(now, to, msg, reason));
    }

    /// Queue a wake-up for `node`'s entry `ad`. Entry wake-ups due at one
    /// instant run before any other event due then, in (node, ad) order:
    /// their order is then a function of the instant alone, not of when
    /// each was pushed, so deciding ticks ahead (which pushes them at
    /// other instants than running every tick does) cannot reorder two
    /// broadcasts at one instant.
    ///
    /// The rank leaves out the ad's issuer: it is unique only because
    /// every ad's `seq` is its scenario index (`World::new`). Equal ranks
    /// would fall back to push order and break that exactness quietly.
    fn schedule_entry(&mut self, node: u32, ad: AdId, at: SimTime) {
        debug_assert_eq!(
            self.ad_ids.get(ad.seq as usize),
            Some(&ad),
            "an ad's seq is its scenario index"
        );
        let rank = u64::from(node) << 32 | u64::from(ad.seq);
        self.sched.schedule_ranked(at, rank, Event::Entry(node, ad));
    }

    /// The paper's Delivery Rate / Delivery Time bookkeeping.
    pub fn tracker(&self) -> &DeliveryTracker {
        &self.tracker
    }

    pub fn medium(&self) -> &Medium {
        &self.medium
    }

    pub fn fleet(&self) -> &Fleet {
        &self.fleet
    }

    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    pub fn ad_ids(&self) -> &[AdId] {
        &self.ad_ids
    }

    /// How many peers currently hold `ad` (diagnostics).
    pub fn holders(&self, ad: AdId) -> usize {
        self.peers.iter().filter(|p| p.holds(ad)).count()
    }

    /// The most-informed copy of `ad` anywhere in the network: maximal
    /// estimated rank and the (monotone) enlarged radius/duration. `None`
    /// if no peer stores a copy.
    pub fn best_copy(&self, ad: AdId) -> Option<Advertisement> {
        let mut best: Option<Advertisement> = None;
        for peer in &self.peers {
            if let Some(copy) = peer.cached_ad(ad) {
                match &mut best {
                    None => best = Some(copy.clone()),
                    Some(b) => b.absorb(copy),
                }
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ia_core::ProtocolKind;
    use std::cell::RefCell;
    use std::collections::{BTreeMap, HashMap, HashSet};
    use std::rc::Rc;

    fn tiny(protocol: ProtocolKind, n: usize, seed: u64) -> Scenario {
        // Shrink the run so unit tests stay fast: 300 s life cycle.
        Scenario::paper(protocol, n)
            .with_seed(seed)
            .with_life_cycle(SimDuration::from_secs(300.0))
    }

    /// A queued arrival names its frame's slot in the in-flight table,
    /// not the message, so every event is 24 bytes.
    #[test]
    fn an_event_is_24_bytes() {
        assert_eq!(size_of::<Event>(), 24);
    }

    #[test]
    fn world_runs_to_completion_for_every_protocol() {
        for kind in ProtocolKind::ALL {
            let mut w = World::new(tiny(kind, 50, 1));
            w.run();
            assert!(w.medium().stats().messages > 0, "{kind}: no traffic at all");
            assert!(
                w.observers.is_empty(),
                "a world attaches no observer itself"
            );
        }
    }

    #[test]
    fn gossip_delivers_in_dense_network() {
        let mut w = World::new(tiny(ProtocolKind::Gossip, 300, 2));
        w.run();
        let out = &w.tracker().outcomes()[0];
        assert!(out.passed > 50, "passed {}", out.passed);
        assert!(
            out.delivery_rate > 80.0,
            "dense gossip delivery rate {}",
            out.delivery_rate
        );
    }

    #[test]
    fn flooding_delivers_in_dense_network() {
        let mut w = World::new(tiny(ProtocolKind::Flooding, 300, 3));
        w.run();
        let out = &w.tracker().outcomes()[0];
        assert!(
            out.delivery_rate > 85.0,
            "dense flooding delivery rate {}",
            out.delivery_rate
        );
    }

    #[test]
    fn optimized_gossiping_sends_far_fewer_messages_than_flooding() {
        let mut flood = World::new(tiny(ProtocolKind::Flooding, 300, 4));
        flood.run();
        let mut opt = World::new(tiny(ProtocolKind::OptGossip, 300, 4));
        opt.run();
        let f = flood.medium().stats().messages;
        let o = opt.medium().stats().messages;
        assert!(
            (o as f64) < 0.5 * f as f64,
            "optimized {o} vs flooding {f} messages"
        );
    }

    #[test]
    fn identical_seeds_reproduce_identical_runs() {
        let mut a = World::new(tiny(ProtocolKind::OptGossip, 80, 7));
        a.run();
        let mut b = World::new(tiny(ProtocolKind::OptGossip, 80, 7));
        b.run();
        assert_eq!(a.medium().stats(), b.medium().stats());
        assert_eq!(a.tracker().outcomes(), b.tracker().outcomes());
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = World::new(tiny(ProtocolKind::Gossip, 80, 8));
        a.run();
        let mut b = World::new(tiny(ProtocolKind::Gossip, 80, 9));
        b.run();
        assert_ne!(a.medium().stats().messages, b.medium().stats().messages);
    }

    #[test]
    fn issuer_departure_stops_flooding_traffic() {
        let online = {
            let mut w = World::new(tiny(ProtocolKind::Flooding, 100, 21));
            w.run();
            w.medium().stats().messages
        };
        let offline = {
            let mut s = tiny(ProtocolKind::Flooding, 100, 21);
            s = s.with_issuer_offline_after(SimDuration::from_secs(30.0));
            let mut w = World::new(s);
            w.run();
            w.medium().stats().messages
        };
        assert!(
            offline < online / 2,
            "issuer departure should kill most waves: {offline} vs {online}"
        );
    }

    #[test]
    fn churn_reduces_but_does_not_kill_gossip() {
        use crate::scenario::ChurnSpec;
        let steady = {
            let mut w = World::new(tiny(ProtocolKind::Gossip, 150, 22));
            w.run();
            w.tracker().outcomes()[0].clone()
        };
        let churned = {
            let s = tiny(ProtocolKind::Gossip, 150, 22).with_churn(ChurnSpec::new(
                SimDuration::from_secs(60.0),
                SimDuration::from_secs(60.0),
            ));
            let mut w = World::new(s);
            w.run();
            w.tracker().outcomes()[0].clone()
        };
        assert!(churned.delivery_rate < steady.delivery_rate);
        assert!(
            churned.delivery_rate > 40.0,
            "heavy churn should degrade, not kill: {}",
            churned.delivery_rate
        );
    }

    #[test]
    fn churned_runs_stay_reproducible() {
        use crate::scenario::ChurnSpec;
        let mk = || {
            tiny(ProtocolKind::OptGossip, 80, 23).with_churn(ChurnSpec::new(
                SimDuration::from_secs(100.0),
                SimDuration::from_secs(50.0),
            ))
        };
        let mut a = World::new(mk());
        a.run();
        let mut b = World::new(mk());
        b.run();
        assert_eq!(a.medium().stats(), b.medium().stats());
        assert_eq!(a.tracker().outcomes(), b.tracker().outcomes());
    }

    /// A run stepped by `run_until` is the full run. Under Optimized
    /// Gossiping copies are applied when their frames are sent, also
    /// across the step boundaries.
    #[test]
    fn run_until_steps_incrementally_and_matches_full_run() {
        for kind in [ProtocolKind::Gossip, ProtocolKind::OptGossip] {
            let mut stepped = World::new(tiny(kind, 60, 24));
            for k in 1..=31 {
                stepped.run_until(SimTime::from_secs(k as f64 * 10.0));
            }
            stepped.run();
            let mut full = World::new(tiny(kind, 60, 24));
            full.run();
            assert_eq!(stepped.medium().stats(), full.medium().stats());
            assert_eq!(stepped.tracker().outcomes(), full.tracker().outcomes());
            assert_eq!(stepped.deliveries(), full.deliveries());
            let applied = full.deliveries().applied;
            assert_eq!(applied > 0, kind == ProtocolKind::OptGossip, "{kind}");
        }
    }

    #[test]
    fn snapshot_reports_positions_and_holders() {
        let mut w = World::new(tiny(ProtocolKind::Gossip, 60, 25));
        w.run_until(SimTime::from_secs(100.0));
        let ad = w.ad_ids()[0];
        let snap = w.snapshot(ad, w.now());
        assert_eq!(snap.len(), 61); // 60 peers + issuer
        let holders = snap.iter().filter(|(_, h, _)| *h).count();
        assert_eq!(holders, w.holders(ad));
        assert!(snap.iter().all(|(_, _, online)| *online));
        // All positions inside the field.
        let area = w.scenario().area;
        assert!(snap.iter().all(|(p, _, _)| area.contains(*p)));
    }

    /// Counts hook invocations; used to probe the world's fan-out.
    #[derive(Default)]
    struct HookCounter {
        broadcasts: usize,
        delivers: usize,
        accepts: usize,
        suppresses: usize,
        evicts: usize,
        rounds: usize,
        departs: usize,
        rejoins: usize,
    }

    impl crate::observer::SimObserver for HookCounter {
        fn on_broadcast(
            &mut self,
            _: SimTime,
            _: u32,
            _: &AdMessage,
            _: &crate::observer::BroadcastInfo,
        ) {
            self.broadcasts += 1;
        }
        fn on_deliver(&mut self, _: SimTime, _: u32, _: &AdMessage, _: &RxMeta) {
            self.delivers += 1;
        }
        fn on_accept(&mut self, _: SimTime, _: u32, _: AdId) {
            self.accepts += 1;
        }
        fn on_suppress(&mut self, _: SimTime, _: u32, _: &AdMessage, _: SuppressReason) {
            self.suppresses += 1;
        }
        fn on_cache_evict(&mut self, _: SimTime, _: u32, _: AdId) {
            self.evicts += 1;
        }
        fn on_round(&mut self, _: SimTime, _: u32) {
            self.rounds += 1;
        }
        fn on_depart(&mut self, _: SimTime, _: u32) {
            self.departs += 1;
        }
        fn on_rejoin(&mut self, _: SimTime, _: u32) {
            self.rejoins += 1;
        }
    }

    #[test]
    fn world_fans_out_hooks_consistently_with_channel_stats() {
        let mut w = World::new(tiny(ProtocolKind::Gossip, 80, 32));
        w.attach_observer(Box::new(HookCounter::default()));
        w.run();
        let stats = w.medium().stats().clone();
        let c = w.observer::<HookCounter>().expect("counter attached");
        assert_eq!(c.broadcasts as u64, stats.messages);
        // Every scheduled reception either arrives (deliver), is
        // suppressed at an off-line node (none here — no churn), or was
        // still in flight when the horizon cut the run. Airtime is
        // milliseconds, so in-flight losses are a sliver of the total.
        assert_eq!(c.suppresses, 0);
        let in_flight = stats.receptions - c.delivers as u64;
        assert!(
            in_flight <= stats.receptions / 10,
            "{in_flight} of {} receptions never delivered",
            stats.receptions
        );
        assert!(c.accepts > 0 && c.rounds > 0);
        assert_eq!(c.departs + c.rejoins, 0);
    }

    /// Every observer sees every hook, and each is retrieved by type.
    /// Two ads and a one-slot cache make peers evict, and churn makes
    /// them depart, rejoin and suppress off-line receipts.
    #[test]
    fn observers_see_every_hook_and_are_retrieved_by_type() {
        use crate::observer::{FaultLedger, JsonlTrace};
        use crate::scenario::{AdSpec, ChurnSpec};
        let mut s = tiny(ProtocolKind::Gossip, 40, 11).with_churn(ChurnSpec::new(
            SimDuration::from_secs(40.0),
            SimDuration::from_secs(20.0),
        ));
        s.area = ia_geo::Rect::with_size(1500.0, 1500.0);
        s.params.cache_capacity = 1;
        let paper = AdSpec::paper();
        s.ads = vec![
            AdSpec {
                issue_pos: Point::new(1400.0, 1400.0),
                ..paper.clone()
            },
            AdSpec {
                issue_pos: Point::new(700.0, 800.0),
                issue_time: SimTime::from_secs(20.0),
                radius: 600.0,
                ..paper
            },
        ];
        let mut w = World::new(s.with_life_cycle(SimDuration::from_secs(120.0)));
        w.attach_observer(Box::new(HookCounter::default()));
        w.attach_observer(Box::new(FaultLedger::new(SimDuration::from_secs(5.0))));
        w.run();

        let c = w.observer::<HookCounter>().expect("counter attached");
        let hooks = [
            c.broadcasts,
            c.delivers,
            c.accepts,
            c.suppresses,
            c.evicts,
            c.rounds,
            c.departs,
            c.rejoins,
        ];
        assert!(
            hooks.iter().all(|&n| n > 0),
            "a hook never fired: {hooks:?}"
        );
        assert_eq!(c.broadcasts as u64, w.medium().stats().messages);
        let ledger = w.observer::<FaultLedger>().expect("ledger attached");
        assert_eq!(ledger.delivered(), c.delivers as u64);
        assert_eq!(
            ledger.count(SuppressReason::Offline) + ledger.faulted(),
            c.suppresses as u64
        );
        assert_eq!(
            (ledger.departs(), ledger.rejoins()),
            (c.departs as u64, c.rejoins as u64)
        );
        assert!(w.observer::<JsonlTrace>().is_none());
    }

    #[test]
    fn churn_fires_depart_rejoin_and_suppress_hooks() {
        use crate::scenario::ChurnSpec;
        let s = tiny(ProtocolKind::Gossip, 150, 33).with_churn(ChurnSpec::new(
            SimDuration::from_secs(60.0),
            SimDuration::from_secs(60.0),
        ));
        let mut w = World::new(s);
        w.attach_observer(Box::new(HookCounter::default()));
        w.run();
        let stats = w.medium().stats().clone();
        let c = w.observer::<HookCounter>().expect("counter attached");
        assert!(c.departs > 0, "heavy churn must take peers down");
        assert!(c.rejoins > 0, "and bring some back");
        assert!(c.suppresses > 0, "some frames must hit off-line peers");
        let accounted = c.delivers as u64 + c.suppresses as u64;
        assert!(accounted <= stats.receptions);
        assert!(
            stats.receptions - accounted <= stats.receptions / 10,
            "too many receptions unaccounted for"
        );
    }

    #[test]
    fn trace_observer_records_events_without_changing_the_run() {
        use crate::observer::JsonlTrace;
        let plain = {
            let mut w = World::new(tiny(ProtocolKind::OptGossip, 60, 34));
            w.run();
            (w.medium().stats().clone(), w.tracker().outcomes())
        };
        let (trace, buffer) = JsonlTrace::in_memory();
        let mut w = World::new(tiny(ProtocolKind::OptGossip, 60, 34));
        w.attach_observer(Box::new(trace));
        w.run();
        assert_eq!(w.medium().stats(), &plain.0);
        assert_eq!(w.tracker().outcomes(), plain.1);
        let text = buffer.contents();
        assert_eq!(
            text.lines()
                .filter(|l| l.contains("\"ev\":\"broadcast\""))
                .count() as u64,
            plain.0.messages
        );
        assert!(text.lines().all(|l| l.starts_with('{') && l.ends_with('}')));
    }

    /// Logs `(time, sender, receivers + drops)` for every broadcast.
    #[derive(Default)]
    struct ReachLog(Vec<(SimTime, u32, u64)>);

    impl crate::observer::SimObserver for ReachLog {
        fn on_broadcast(
            &mut self,
            now: SimTime,
            node: u32,
            _: &AdMessage,
            info: &crate::observer::BroadcastInfo,
        ) {
            let d = info.drops;
            self.0.push((
                now,
                node,
                info.receivers as u64 + d.lost + d.jammed + d.collided,
            ));
        }
    }

    /// Records every `(node, ad)` acceptance the world reports.
    #[derive(Default)]
    struct AcceptLog(std::collections::HashSet<(u32, AdId)>);

    impl crate::observer::SimObserver for AcceptLog {
        fn on_accept(&mut self, _: SimTime, node: u32, ad: AdId) {
            self.0.insert((node, ad));
        }
    }

    #[test]
    fn delivery_tracker_records_exactly_the_accepted_ads() {
        let mut w = World::new(tiny(ProtocolKind::Gossip, 80, 36));
        w.attach_observer(Box::new(AcceptLog::default()));
        w.run();
        let ad = w.ad_ids()[0];
        let accepted = &w.observer::<AcceptLog>().expect("log attached").0;
        assert!(accepted.len() > 10, "only {} acceptances", accepted.len());
        for node in 0..w.scenario().n_nodes() as u32 {
            assert_eq!(
                w.tracker().has_received(node, ad),
                accepted.contains(&(node, ad)),
                "node {node}"
            );
        }
    }

    #[test]
    fn speed_fields_set_directly_still_bound_stale_grid_queries() {
        // `speed_mean`/`speed_delta` are public: setting them directly
        // (not through `with_speed`) must still widen stale-grid queries
        // by the fleet's real top speed, so every broadcast reaches
        // exactly the nodes a brute-force range check finds.
        let mut s = tiny(ProtocolKind::Gossip, 300, 3);
        s.speed_mean = 30.0;
        s.speed_delta = 5.0;
        let mut w = World::new(s);
        w.attach_observer(Box::new(ReachLog::default()));
        w.run();
        let fleet = w.fleet();
        let range = w.scenario().radio.range;
        let log = &w.observer::<ReachLog>().expect("log attached").0;
        assert!(log.len() > 1000, "only {} broadcasts", log.len());
        let wrong = log
            .iter()
            .filter(|&&(t, src, reached)| {
                let at = fleet.position(src, t);
                let in_range = (0..fleet.len() as u32)
                    .filter(|&n| n != src && at.distance(fleet.position(n, t)) <= range)
                    .count() as u64;
                reached != in_range
            })
            .count();
        assert_eq!(wrong, 0, "{wrong} of {} broadcasts missed", log.len());
    }

    #[test]
    fn ad_spreads_to_many_holders_under_gossip() {
        let mut w = World::new(tiny(ProtocolKind::Gossip, 200, 10));
        w.run();
        let ad = w.ad_ids()[0];
        // Expired ads are pruned lazily (at the entry's next grid tick),
        // so holder counts at the horizon are only a sanity signal.
        let holders = w.holders(ad);
        assert!(holders > 20, "only {holders} holders");
    }

    // ---- the world's shortcuts vs per-tick execution ------------------

    impl Flights {
        /// Frames with a copy still queued.
        fn in_flight(&self) -> usize {
            self.slots.len() - self.free.len()
        }
    }

    /// What one callback read of its motion: the fix and the velocity
    /// now, and the look-ahead ticks it decided from a drift bound whose
    /// fix it never read (`bounded`: the last instant bounded, until its
    /// fix is read).
    #[derive(Debug, Default)]
    struct Reads {
        fixes: u32,
        velocities: u32,
        bounded: Option<SimTime>,
        without_fix: u32,
    }

    /// The world's motion as a [`Watched`] peer sees it, every read
    /// counted. Per tick, it predicts no position and bounds no drift, so
    /// every entry tick runs.
    struct Counting<'a> {
        motion: &'a mut dyn Motion,
        per_tick: bool,
        reads: Reads,
    }

    impl Motion for Counting<'_> {
        fn position(&mut self) -> Point {
            self.reads.fixes += 1;
            self.motion.position()
        }

        fn velocity(&mut self) -> Vector {
            self.reads.velocities += 1;
            self.motion.velocity()
        }

        fn position_at(&mut self, t: SimTime) -> Option<Point> {
            if self.reads.bounded == Some(t) {
                self.reads.bounded = None;
            }
            (!self.per_tick).then(|| self.motion.position_at(t))?
        }

        fn max_drift(&mut self, from: SimTime, to: SimTime) -> Option<f64> {
            let drift = (!self.per_tick).then(|| self.motion.max_drift(from, to))?;
            // A tick bounded earlier whose fix was not read since was
            // decided from the bound.
            if drift.is_some() && self.reads.bounded.replace(to).is_some() {
                self.reads.without_fix += 1;
            }
            drift
        }
    }

    /// What the [`Watched`] peers of one protocol saw, counted by name.
    type Tally = Rc<RefCell<BTreeMap<&'static str, u64>>>;

    /// A peer's protocol in a checked run. Per tick (`per_tick`) it is
    /// the reference for the world's shortcuts: its motion predicts
    /// nothing, so every entry tick runs, and it keeps the default
    /// [`Protocol::on_copy_sent`], so every intact copy is queued. Either
    /// way each callback is held to the read contract: only a postponing
    /// duplicate reads the velocity, no callback reads more than one fix,
    /// and a dropped or re-armed wake-up, a flooding wave tick, a relayed
    /// or expired copy, a copy skipped or queued when sent and a
    /// duplicate that leaves `R` and `D` unchanged without postponing
    /// read no fix and no velocity. On the look-ahead side no planned tick
    /// is idle: an entry wake-up that runs its tick broadcasts or drops
    /// its expired ad, except the first tick after a mechanism-(2)
    /// postponement, which is not evaluated ahead.
    struct Watched {
        inner: Box<dyn Protocol>,
        per_tick: bool,
        kind: ProtocolKind,
        /// Mechanism (2): duplicates postpone.
        postpones: bool,
        node: u32,
        /// Entries whose next tick a postponement left unplanned.
        unplanned: HashSet<AdId>,
        /// Restricted Flooding: the newest wave heard of each ad.
        waves: HashMap<AdId, u32>,
        tally: Tally,
    }

    impl Watched {
        /// Run `f` on the wrapped protocol, its motion seen through
        /// [`Counting`]: what `f` returned and what it read.
        fn call<R>(
            &mut self,
            ctx: &mut PeerContext<'_>,
            f: impl FnOnce(&mut dyn Protocol, &mut PeerContext<'_>) -> R,
        ) -> (R, Reads) {
            let mut motion = Counting {
                motion: &mut *ctx.motion,
                per_tick: self.per_tick,
                reads: Reads::default(),
            };
            let mut c = PeerContext {
                now: ctx.now,
                motion: &mut motion,
            };
            let result = f(self.inner.as_mut(), &mut c);
            let mut reads = motion.reads;
            reads.without_fix += u32::from(reads.bounded.is_some());
            (result, reads)
        }

        /// Check that `what`, at `now`, read nothing if `quiet`, and else
        /// at most one fix and, only if `postponing`, one velocity; count
        /// it and its reads.
        fn check(&self, now: SimTime, what: &'static str, r: Reads, quiet: bool, postponing: bool) {
            let ok = if quiet {
                (r.fixes, r.velocities) == (0, 0)
            } else {
                r.fixes <= 1 && r.velocities <= u32::from(postponing)
            };
            let (kind, node) = (self.kind, self.node);
            assert!(ok, "{kind}, node {node} at {now:?}: {what} read {r:?}");
            let mut tally = self.tally.borrow_mut();
            *tally.entry(what).or_default() += 1;
            *tally.entry("fixes").or_default() += u64::from(r.fixes);
            *tally.entry("velocities").or_default() += u64::from(r.velocities);
            *tally.entry("decided without a fix").or_default() += u64::from(r.without_fix);
        }
    }

    impl Protocol for Watched {
        fn on_start(&mut self, ctx: &mut PeerContext<'_>, out: &mut ActionSink) {
            // A restart plans every entry.
            self.unplanned.clear();
            let ((), reads) = self.call(ctx, |p, c| p.on_start(c, out));
            self.check(ctx.now, "a restart", reads, false, false);
        }

        fn on_receive(
            &mut self,
            ctx: &mut PeerContext<'_>,
            msg: &AdMessage,
            meta: &RxMeta,
            out: &mut ActionSink,
        ) {
            let id = msg.ad.id;
            let r_and_d = |p: &dyn Protocol| p.cached_ad(id).map(|a| (a.radius, a.duration));
            let (held, before) = (self.inner.holds(id), r_and_d(self.inner.as_ref()));
            let ((), reads) = self.call(ctx, |p, c| p.on_receive(c, msg, meta, out));
            let newest = self.waves.get(&id).copied();
            let (what, quiet) = match msg.flood {
                _ if msg.ad.expired(ctx.now) => ("an expired copy", true),
                Some(f) if newest.is_some_and(|w| f.wave <= w) => ("a relayed wave", true),
                Some(f) => {
                    self.waves.insert(id, f.wave);
                    ("a new wave", false)
                }
                None if !held => {
                    // An admission plans its entry.
                    self.unplanned.remove(&id);
                    ("an admission", false)
                }
                None if self.postpones => {
                    self.unplanned.insert(id);
                    ("a postponing duplicate", false)
                }
                None if r_and_d(self.inner.as_ref()) == before => ("an unchanged duplicate", true),
                None => ("a duplicate that grew", false),
            };
            let postponing = what == "a postponing duplicate";
            self.check(ctx.now, what, reads, quiet, postponing);
        }

        fn on_entry_timer(
            &mut self,
            ctx: &mut PeerContext<'_>,
            ad: AdId,
            out: &mut ActionSink,
        ) -> EntryWake {
            let mut actions = Vec::new();
            let (wake, reads) = self.call(ctx, |p, c| {
                let mut wake = EntryWake::Drop;
                actions = ActionSink::collect(|o| wake = p.on_entry_timer(c, ad, o));
                wake
            });
            let broadcast = actions.iter().any(|a| matches!(a, Action::Broadcast(_)));
            for a in actions {
                out.push(a);
            }
            // Only a tick that runs ends a postponement's unplanned stretch.
            let unplanned = wake == EntryWake::Fire && self.unplanned.remove(&ad);
            let (what, quiet) = match wake {
                EntryWake::Drop | EntryWake::Rearm => ("a stale wake-up", true),
                EntryWake::Fire if self.kind == ProtocolKind::Flooding => ("a wave tick", true),
                EntryWake::Fire if unplanned || self.per_tick => ("an unplanned tick", false),
                EntryWake::Fire => {
                    let (kind, node, now) = (self.kind, self.node, ctx.now);
                    let idle = !broadcast && self.inner.holds(ad);
                    assert!(
                        !idle,
                        "{kind}, node {node}: {ad:?}'s planned tick at {now:?} is idle"
                    );
                    ("a planned tick", false)
                }
            };
            self.check(ctx.now, what, reads, quiet, false);
            wake
        }

        fn issue(&mut self, ctx: &mut PeerContext<'_>, ad: Advertisement, out: &mut ActionSink) {
            self.unplanned.remove(&ad.id);
            let ((), reads) = self.call(ctx, |p, c| p.issue(c, ad, out));
            self.check(ctx.now, "an issue", reads, false, false);
        }

        fn on_copy_sent(
            &mut self,
            ctx: &mut PeerContext<'_>,
            msg: &AdMessage,
            meta: &RxMeta,
            arrives: bool,
        ) -> CopyFate {
            if self.per_tick {
                return CopyFate::Queue;
            }
            let (fate, reads) = self.call(ctx, |p, c| p.on_copy_sent(c, msg, meta, arrives));
            let applied = fate == CopyFate::Applied;
            if applied {
                self.unplanned.insert(msg.ad.id);
            }
            self.check(ctx.now, "a copy asked about", reads, !applied, applied);
            fate
        }

        fn holds(&self, ad: AdId) -> bool {
            self.inner.holds(ad)
        }

        fn cached_ad(&self, ad: AdId) -> Option<&Advertisement> {
            self.inner.cached_ad(ad)
        }
    }

    /// Run `s` to the horizon with every peer [`Watched`], per tick if
    /// `per_tick`, counting into `tally`.
    fn run_in(s: Scenario, per_tick: bool, tally: &Tally) -> World {
        let kind = s.protocol;
        let mut w = World::new(s);
        let peers = std::mem::take(&mut w.peers).into_iter().zip(0..);
        let watched = |(inner, node)| Watched {
            inner,
            per_tick,
            kind,
            postpones: matches!(kind, ProtocolKind::OptGossip2 | ProtocolKind::OptGossip),
            node,
            unplanned: HashSet::new(),
            waves: HashMap::new(),
            tally: Rc::clone(tally),
        };
        w.peers = peers.map(|p| Box::new(watched(p)) as _).collect();
        w.run();
        w
    }

    /// Run `s` with the world's shortcuts, counting into `tally`, and per
    /// tick ([`run_in`]): both give the same `RunResult` and
    /// `TrafficStats` bytes and leave every peer the same copy of every
    /// ad, and the reference skips and applies no copy but queues every
    /// one the other queued, skipped or applied. Returns both worlds, the
    /// reference second.
    fn reference_alike(s: &Scenario, what: &str, tally: &Tally) -> (World, World) {
        let w = run_in(s.clone(), false, tally);
        let reference = run_in(s.clone(), true, &Tally::default());
        let result = |w: &World| format!("{:?}", crate::RunResult::of(w));
        assert_eq!(result(&w), result(&reference), "{what}");
        assert_eq!(w.medium().stats(), reference.medium().stats(), "{what}");
        let copies = |w: &World| {
            let peers = w.peers.iter();
            peers
                .flat_map(|p| w.ad_ids.iter().map(|&ad| p.cached_ad(ad).cloned()))
                .collect::<Vec<_>>()
        };
        assert!(copies(&w) == copies(&reference), "{what}: cached copies");
        let (d, r) = (w.deliveries(), reference.deliveries());
        assert_eq!((r.skipped, r.applied), (0, 0), "{what}: reference");
        assert_eq!(
            (
                d.queued + d.skipped + d.applied + d.past_horizon,
                d.corrupted
            ),
            (r.queued + r.past_horizon, r.corrupted),
            "{what}"
        );
        let in_flight = (w.flights.in_flight(), reference.flights.in_flight());
        assert_eq!(in_flight, (0, 0), "{what}: frames left in flight");
        (w, reference)
    }

    /// Both shortcuts are exact: on seeded scenarios of all five
    /// protocols with GPS ramps (fixes are keyed, so the look-ahead
    /// predicts noisy ones too), churn and partition waves (restarts
    /// re-anchor grids and re-arm entries; a healing wave restarts many
    /// peers at one instant, so their wake-ups share instants), several
    /// ads under cache pressure (evictions and re-admissions), interested
    /// peers (ads grow), corruption windows, Manhattan mobility and round
    /// times from 20 ms to 9 s, every run gives the bytes of the same
    /// run per tick ([`Watched`]), which runs every entry tick and queues
    /// every intact copy, and every callback keeps the read contract and
    /// runs no idle planned tick. Flooding has nothing to look ahead at;
    /// every gossip kind skips ticks, some runs skip copies and drop
    /// corrupted ones, and the postponing kinds apply copies when their
    /// frames are sent.
    #[test]
    fn entry_look_ahead_matches_per_tick_execution() {
        use crate::scenario::ChurnSpec;
        let mut draw = SimRng::from_master(0x10c4_a11e);
        let mut skipped = [0u64; 5];
        let tallies: [Tally; 5] = Default::default();
        let (mut rearmed, mut covered, mut applied, mut corrupted) = (0, 0, 0, 0);
        for case in 0..80u64 {
            let k = case as usize % 5;
            let (kind, features) = (ProtocolKind::ALL[k], case / 5);
            let peers = 40 + draw.range_u64(0, 110) as usize;
            let round = SimDuration::from_micros(draw.range_u64(20_000, 9_000_000));
            let mut s = tiny(kind, peers, 1000 + draw.range_u64(0, 1 << 20));
            s.params = s.params.clone().with_round_time(round);
            let mut faults = FaultPlan::none();
            if features & 1 != 0 {
                let from = draw.range_f64(0.0, 150.0);
                faults = faults.with_gps_ramp(NoiseRamp::new(
                    SimTime::from_secs(from),
                    SimTime::from_secs(from + draw.range_f64(1.0, 120.0)),
                    draw.range_f64(1.0, 200.0),
                ));
            }
            if features & 2 != 0 {
                faults = faults.with_partition_wave(PartitionWave {
                    at: SimTime::from_secs(draw.range_f64(10.0, 200.0)),
                    fraction: draw.range_f64(0.1, 0.9),
                    down_for: SimDuration::from_secs(draw.range_f64(0.0, 60.0)),
                });
            }
            if draw.chance(0.5) {
                let from = draw.range_f64(0.0, 250.0);
                faults = faults.with_corruption(CorruptionSpec {
                    from: SimTime::from_secs(from),
                    until: SimTime::from_secs(from + draw.range_f64(1.0, 300.0)),
                    p_corrupt: draw.unit(),
                    max_flips: 1 + draw.range_u64(0, 16) as u32,
                });
            }
            s = s.with_faults(faults);
            if draw.chance(0.5) {
                s = s.with_mobility(MobilityKind::Manhattan);
            }
            if features & 8 != 0 {
                // Several ads at once under cache pressure: admits evict,
                // and evicted ads come back.
                let template = s.ads[0].clone();
                s.ads = (0..2 + draw.range_u64(0, 5))
                    .map(|_| crate::scenario::AdSpec {
                        issue_pos: s.area.at_fraction(draw.unit(), draw.unit()),
                        issue_time: SimTime::from_secs(draw.range_f64(0.0, 60.0)),
                        ..template.clone()
                    })
                    .collect();
                s.params = s
                    .params
                    .clone()
                    .with_cache_capacity(1 + draw.range_u64(0, 3) as usize);
            }
            if draw.chance(0.5) {
                // Interested peers rank the ad up, and duplicates carrying
                // a larger R or D make peer-grid entries re-plan.
                s.interests = crate::scenario::InterestWorkload::Uniform {
                    universe: 2,
                    p_interested: 0.5,
                };
            }
            if features & 4 != 0 {
                s = s.with_churn(ChurnSpec::new(
                    SimDuration::from_secs(draw.range_f64(20.0, 200.0)),
                    SimDuration::from_secs(draw.range_f64(1.0, 60.0)),
                ));
            }
            let what = format!("case {case}: {kind}, {peers} peers, round {round:?}");
            let (w, reference) = reference_alike(&s, &what, &tallies[k]);
            let (a, r) = (w.entry_wakeups(), reference.entry_wakeups());
            assert!(a.fired <= r.fired, "{what}: {a:?} vs {r:?}");
            skipped[k] += r.fired - a.fired;
            rearmed += a.rearmed;
            covered += w.deliveries().skipped;
            applied += w.deliveries().applied;
            corrupted += w.deliveries().corrupted;
        }
        // Every gossip kind skipped ticks, wake-ups re-armed, and copies
        // were skipped, applied and dropped as corrupted, so the equality
        // above is not vacuous.
        assert_eq!(skipped[0], 0, "Flooding has no look-ahead");
        assert!(
            skipped[1..].iter().all(|&n| n > 1000) && rearmed > 100,
            "{skipped:?} skipped, {rearmed} re-armed"
        );
        assert!(
            covered > 0 && applied > 0 && corrupted > 0,
            "{covered} skipped, {applied} applied, {corrupted} corrupted"
        );
        // The watched rules were not vacuous: every protocol read fixes,
        // and Flooding heard relayed waves; every gossip kind ran planned
        // ticks, decided ticks from the drift bound alone and popped
        // stale wake-ups; the postponing kinds read velocities, and the
        // peer-grid kinds none, but re-planned after duplicates that grew
        // and heard unchanged ones.
        let t = tallies.map(|t| t.take());
        let n = |k: usize, what: &str| t[k].get(what).copied().unwrap_or(0);
        let seen = format!("{t:#?}");
        assert!(
            (0..5).all(|k| n(k, "fixes") > 0) && n(0, "a relayed wave") > 0,
            "{seen}"
        );
        for k in 1..5 {
            let checked = n(k, "a planned tick").min(n(k, "decided without a fix"));
            assert!(checked > 100 && n(k, "a stale wake-up") > 0, "{seen}");
            // Optimized Gossiping-2 and Optimized Gossiping.
            let postpones = k >= 3;
            let grew = n(k, "a duplicate that grew").min(n(k, "an unchanged duplicate"));
            assert_eq!(n(k, "velocities") > 0, postpones, "{seen}");
            assert_eq!(grew > 0, !postpones, "{seen}");
        }
    }

    /// The covered skip applies only where no arrival can differ. Dense
    /// Gossiping and Optimized Gossiping-1 runs with churn, a partition
    /// wave, a corruption window and two ads in a two-ad cache leave
    /// copies out, also with the window spanning the whole run. No copy
    /// is left out as covered with more ads than the cache holds, nor
    /// under mechanism (2), which applies none here either (peers churn).
    /// Restricted Flooding skips the waves a receiver has relayed.
    ///
    /// The run with three ads issued together in a two-ad cache is one
    /// where the capacity guard matters: a peer ticks two entries at one
    /// instant, and a receiver that held the first admits the second,
    /// whose frame arrives first, and evicts the first. Its frame,
    /// covered when sent, then re-admits it. A world without the guard
    /// gives another `RunResult` there.
    #[test]
    fn covered_skip_only_where_no_arrival_can_differ() {
        use crate::scenario::{AdSpec, ChurnSpec};
        use ia_geo::Rect;
        let secs = SimTime::from_secs;
        let dense_in = |kind: ProtocolKind, capacity: usize, window: (f64, f64)| {
            let mut s = Scenario::paper(kind, 60)
                .with_seed(5)
                .with_life_cycle(SimDuration::from_secs(150.0))
                .with_churn(ChurnSpec::new(
                    SimDuration::from_secs(100.0),
                    SimDuration::from_secs(20.0),
                ))
                .with_faults(
                    FaultPlan::none()
                        .with_partition_wave(PartitionWave {
                            at: secs(50.0),
                            fraction: 0.3,
                            down_for: SimDuration::from_secs(20.0),
                        })
                        .with_corruption(CorruptionSpec {
                            from: secs(window.0),
                            until: secs(window.1),
                            p_corrupt: 0.3,
                            max_flips: 8,
                        }),
                );
            s.area = Rect::with_size(1500.0, 1500.0);
            s.ads[0].issue_pos = s.area.center();
            let second = AdSpec {
                issue_pos: Point::new(400.0, 400.0),
                issue_time: secs(30.0),
                ..s.ads[0].clone()
            };
            s.ads.push(second);
            s.params = s.params.clone().with_cache_capacity(capacity);
            s
        };
        let dense = |kind, capacity| dense_in(kind, capacity, (40.0, 70.0));
        let deliveries =
            |s: &Scenario, what: String| reference_alike(s, &what, &Rc::default()).0.deliveries();
        for kind in [ProtocolKind::Gossip, ProtocolKind::OptGossip1] {
            let d = deliveries(&dense(kind, 2), format!("{kind}, two ads"));
            assert!(d.skipped > 0 && d.queued > 0, "{kind}: {d:?}");
            let whole_run = dense_in(kind, 2, (0.0, 150.0));
            let d = deliveries(&whole_run, format!("{kind}, window over the whole run"));
            assert!(
                d.skipped > 0 && d.corrupted > 0 && d.queued > 0,
                "{kind}, window over the whole run: {d:?}"
            );
            let d = deliveries(&dense(kind, 1), format!("{kind}, one-ad cache"));
            assert_eq!(d.skipped, 0, "{kind}, two ads in a one-ad cache");
            let mut s = Scenario::paper(kind, 100)
                .with_seed(56)
                .with_life_cycle(SimDuration::from_secs(200.0));
            s.area = Rect::with_size(1000.0, 1000.0);
            s.ads[0].issue_pos = s.area.center();
            for x in [520.0, 480.0] {
                let next = AdSpec {
                    issue_pos: Point::new(x, 500.0),
                    ..s.ads[0].clone()
                };
                s.ads.push(next);
            }
            s.params = s.params.clone().with_cache_capacity(2);
            let d = deliveries(&s, format!("{kind}, three ads"));
            assert_eq!(d.skipped, 0, "{kind}, three ads in a two-ad cache");
        }
        for kind in [ProtocolKind::OptGossip2, ProtocolKind::OptGossip] {
            let d = deliveries(&dense(kind, 2), format!("{kind}, two ads"));
            assert_eq!((d.skipped, d.applied), (0, 0), "{kind}");
        }
        let d = deliveries(&dense(ProtocolKind::Flooding, 2), "Flooding".into());
        assert!(d.skipped > 0 && d.queued > 0 && d.applied == 0, "{d:?}");
    }

    /// A copy is applied when its frame is sent only where its arrival
    /// is settled. A dense Optimized Gossiping-2 run with interested peers
    /// (their sketches differ, and ads grow) and two ads in a two-ad cache
    /// applies copies. Each guard alone then refuses every copy: churn, a
    /// partition wave, a one-ad cache, or an arrival at or past the
    /// horizon. For the last, every holder sends its copy once 20 ms
    /// before the horizon, where some copies are applied, and once 1 µs
    /// before it, in a world run to the same instant, where every copy
    /// arrives at or past the horizon and none is. The runs end mid-life,
    /// and every peer's cached copy after each is the reference's
    /// ([`reference_alike`]).
    #[test]
    fn applied_copies_only_where_the_arrival_is_settled() {
        use crate::scenario::{AdSpec, ChurnSpec};
        use ia_geo::Rect;
        let secs = SimTime::from_secs;
        let base = |kind: ProtocolKind, capacity: usize| {
            let mut s = Scenario::paper(kind, 80)
                .with_seed(9)
                .with_life_cycle(SimDuration::from_secs(150.0));
            s.area = Rect::with_size(1200.0, 1200.0);
            s.ads[0].issue_pos = s.area.center();
            let second = AdSpec {
                issue_pos: Point::new(400.0, 400.0),
                issue_time: secs(20.0),
                ..s.ads[0].clone()
            };
            s.ads.push(second);
            s.interests = crate::scenario::InterestWorkload::Uniform {
                universe: 2,
                p_interested: 0.5,
            };
            s.params = s
                .params
                .clone()
                .with_cache_capacity(capacity)
                .with_round_time(SimDuration::from_millis(500));
            s.sim_time = SimDuration::from_secs(90.0);
            s
        };
        let deliveries =
            |s: &Scenario, what: &str| reference_alike(s, what, &Rc::default()).0.deliveries();
        for kind in [ProtocolKind::OptGossip2, ProtocolKind::OptGossip] {
            let d = deliveries(&base(kind, 2), &format!("{kind}"));
            assert!(d.applied > 0 && d.queued > 0, "{kind}: {d:?}");
            let churned = base(kind, 2).with_churn(ChurnSpec::new(
                SimDuration::from_secs(100.0),
                SimDuration::from_secs(20.0),
            ));
            let wave = PartitionWave {
                at: secs(50.0),
                fraction: 0.3,
                down_for: SimDuration::from_secs(20.0),
            };
            let waved = base(kind, 2).with_faults(FaultPlan::none().with_partition_wave(wave));
            for (what, s) in [("churn", churned), ("a partition wave", waved)] {
                let d = deliveries(&s, &format!("{kind}, {what}"));
                assert_eq!(d.applied, 0, "{kind}, {what}");
            }
            let d = deliveries(&base(kind, 1), &format!("{kind}, one-ad cache"));
            assert_eq!((d.skipped, d.applied), (0, 0), "{kind}, one-ad cache");
        }
        let s = base(ProtocolKind::OptGossip2, 2);
        let horizon = SimTime::ZERO + s.sim_time;
        let applied_when_sent_at = |sent: SimTime| {
            let mut w = World::new(s.clone());
            w.run_until(horizon - SimDuration::from_millis(30));
            let ad = w.ad_ids[0];
            let before = w.deliveries();
            for node in 0..s.n_peers as u32 {
                let copy = w.peers[node as usize].cached_ad(ad).cloned();
                if let Some(copy) = copy {
                    w.broadcast(node, sent, AdMessage::gossip(copy));
                }
            }
            let after = w.deliveries();
            let late = after.past_horizon - before.past_horizon;
            assert!(after.queued + late > before.queued, "{after:?}");
            (
                after.applied - before.applied,
                after.queued - before.queued,
                late,
            )
        };
        let (applied, _, late) = applied_when_sent_at(horizon - SimDuration::from_millis(20));
        assert!(applied > 0, "no copy applied before the horizon");
        assert_eq!(
            late, 0,
            "a copy sent 20 ms before the horizon arrived past it"
        );
        let (applied, queued, late) = applied_when_sent_at(horizon - SimDuration::from_micros(1));
        assert_eq!(
            applied, 0,
            "a copy arriving at or past the horizon was applied"
        );
        assert!(
            queued == 0 && late > 0,
            "a copy arriving at or past the horizon was queued"
        );
    }

    /// Under an active GPS ramp a fix is keyed by (node, instant): the
    /// position a callback at `t` reads is the one `position_at(t)`
    /// predicted earlier, it is noisy, and other nodes' callbacks at `t`
    /// (in any number and order, in this world or another) leave it as is.
    #[test]
    fn gps_fix_is_keyed_by_node_and_instant() {
        let ramp = NoiseRamp::new(SimTime::from_secs(10.0), SimTime::from_secs(200.0), 150.0);
        let s =
            tiny(ProtocolKind::Gossip, 30, 47).with_faults(FaultPlan::none().with_gps_ramp(ramp));
        let t = SimTime::from_secs(100.0);
        let fix = |w: &mut World, node: u32| w.with_ctx(node, t, |_, ctx| ctx.position());
        let mut w = World::new(s.clone());
        let predicted = w
            .with_ctx(3, SimTime::from_secs(50.0), |_, ctx| {
                ctx.motion.position_at(t)
            })
            .expect("a fix inside the horizon is known ahead");
        let at_t = fix(&mut w, 3);
        assert_eq!(predicted, at_t);
        assert!(
            at_t.distance(w.fleet().position(3, t)) > 0.0,
            "the ramp adds noise"
        );
        for node in (0..30).rev() {
            let theirs = fix(&mut w, node);
            assert_eq!(
                w.with_ctx(node, t, |_, ctx| ctx.motion.position_at(t)),
                Some(theirs)
            );
        }
        assert_eq!(fix(&mut w, 3), at_t);
        assert_eq!(fix(&mut World::new(s), 3), at_t);
    }

    /// A callback's fix and velocity estimate share one true position:
    /// `position()` is the fix of [`Fleet::position`] and `velocity()` is
    /// [`Fleet::estimated_velocity`], bitwise, asked in either order or
    /// alone. Under a GPS ramp the fix is noisy and the estimate still
    /// reads the truth.
    #[test]
    fn motion_shares_one_true_position_between_fix_and_velocity() {
        let bits = |x: f64, y: f64| (x.to_bits(), y.to_bits());
        let ramp = NoiseRamp::new(SimTime::from_secs(10.0), SimTime::from_secs(200.0), 150.0);
        for faults in [FaultPlan::none(), FaultPlan::none().with_gps_ramp(ramp)] {
            let ramped = !faults.gps_ramps.is_empty();
            let s = tiny(ProtocolKind::OptGossip, 30, 47).with_faults(faults);
            let mut w = World::new(s.clone());
            let mut noisy = 0;
            for step in 0..400 {
                let t = SimTime::from_secs(step as f64 * 0.7);
                for node in 0..30 {
                    let truth = w.fleet().position(node, t);
                    let fix = gps_fix(&s, node, t, truth);
                    let fix = bits(fix.x, fix.y);
                    let v = w.fleet().estimated_velocity(node, t, VELOCITY_FIX_WINDOW);
                    let v = bits(v.x, v.y);
                    let (p1, v1) = w.with_ctx(node, t, |_, c| (c.position(), c.velocity()));
                    let (v2, p2) = w.with_ctx(node, t, |_, c| (c.velocity(), c.position()));
                    let v3 = w.with_ctx(node, t, |_, c| c.velocity());
                    for p in [p1, p2] {
                        assert_eq!(bits(p.x, p.y), fix, "node {node} at {t:?}");
                    }
                    for u in [v1, v2, v3] {
                        assert_eq!(bits(u.x, u.y), v, "node {node} at {t:?}");
                    }
                    noisy += u32::from(fix != bits(truth.x, truth.y));
                }
            }
            assert_eq!(noisy > 1000, ramped, "{noisy} noisy fixes");
        }
    }

    // ---- fault injection (chaos plans) ------------------------------

    use crate::observer::FaultLedger;
    use crate::scenario::{BurstLossSpec, CorruptionSpec, FaultPlan, PartitionWave};
    use ia_geo::Point;
    use ia_mobility::NoiseRamp;
    use ia_radio::JamZone;

    #[test]
    fn jam_zone_suppresses_frames_and_stays_deterministic() {
        // A large dead region parked on the advertising area for most of
        // the run: receivers inside hear nothing.
        let faults = FaultPlan::none().with_jam_zone(JamZone::stationary(
            Point::new(2500.0, 2500.0),
            800.0,
            SimTime::from_secs(20.0),
            SimTime::from_secs(280.0),
        ));
        let run = |seed| {
            let s = tiny(ProtocolKind::Gossip, 150, seed).with_faults(faults.clone());
            let mut w = World::new(s);
            w.attach_observer(Box::new(HookCounter::default()));
            w.run();
            let jammed = w.medium().stats().jammed;
            let suppresses = w.observer::<HookCounter>().unwrap().suppresses;
            (
                w.medium().stats().clone(),
                w.tracker().outcomes(),
                jammed,
                suppresses,
            )
        };
        let a = run(41);
        let b = run(41);
        assert!(a.2 > 0, "no frames jammed");
        assert!(a.3 as u64 >= a.2, "every jam must surface via on_suppress");
        assert_eq!(a, b, "jammed run must be reproducible");
    }

    #[test]
    fn burst_loss_window_drops_frames_on_an_otherwise_clean_channel() {
        // The paper radio has LossModel::None, so every drop below comes
        // from the injected Gilbert–Elliott window.
        let faults = FaultPlan::none().with_burst_loss(BurstLossSpec {
            from: SimTime::from_secs(30.0),
            until: SimTime::from_secs(250.0),
            p_enter_bad: 0.1,
            p_exit_bad: 0.2,
            loss_good: 0.02,
            loss_bad: 0.8,
        });
        let s = tiny(ProtocolKind::Gossip, 150, 42).with_faults(faults);
        let mut w = World::new(s);
        w.attach_observer(Box::new(FaultLedger::new(SimDuration::from_secs(5.0))));
        w.run();
        assert!(w.medium().stats().drops > 0, "burst window never dropped");
        let ledger = w.observer::<FaultLedger>().expect("ledger attached");
        assert_eq!(
            ledger.count(SuppressReason::ChannelLoss),
            w.medium().stats().drops,
            "every loss must surface as a suppression"
        );
    }

    #[test]
    fn corruption_window_is_caught_by_the_crc_and_ledgered() {
        let faults = FaultPlan::none().with_corruption(CorruptionSpec {
            from: SimTime::from_secs(20.0),
            until: SimTime::from_secs(280.0),
            p_corrupt: 0.3,
            max_flips: 4,
        });
        let run = || {
            let s = tiny(ProtocolKind::Gossip, 150, 43).with_faults(faults.clone());
            let mut w = World::new(s);
            w.attach_observer(Box::new(FaultLedger::new(SimDuration::from_secs(5.0))));
            w.run();
            let corrupted = w
                .observer::<FaultLedger>()
                .unwrap()
                .count(SuppressReason::Corrupted);
            (
                w.medium().stats().clone(),
                w.tracker().outcomes(),
                corrupted,
            )
        };
        let a = run();
        let b = run();
        assert!(a.2 > 0, "no frames corrupted in a 260 s window at p = 0.3");
        assert_eq!(a, b, "corrupted run must be reproducible");
    }

    /// Every reception reaches the observers exactly once: at its
    /// arrival if it was queued, else when its frame was sent (a skipped
    /// or applied copy as delivered, a dropped corrupted one as
    /// corrupted, either as off-line if its receiver was off-line then).
    /// Where the ad expires a second before the horizon, no copy is in
    /// flight at the end; where frames are sent just before it, their
    /// copies are counted as `past_horizon` and never reported. A
    /// Gossiping run with every fault class skips copies; a fault-free
    /// Optimized Gossiping run applies them. No run leaves a frame in the
    /// in-flight table.
    #[test]
    fn every_reception_is_reported_exactly_once() {
        use crate::scenario::ChurnSpec;
        use SuppressReason::{ChannelLoss, Collision, Corrupted, Jammed, Offline};
        let (secs, dur) = (SimTime::from_secs, SimDuration::from_secs);
        let jam = JamZone::stationary(Point::new(2000.0, 2500.0), 600.0, secs(30.0), secs(200.0));
        let faults = FaultPlan::none()
            .with_jam_zone(jam)
            .with_partition_wave(PartitionWave {
                at: secs(60.0),
                fraction: 0.3,
                down_for: dur(30.0),
            })
            .with_corruption(CorruptionSpec {
                from: secs(20.0),
                until: secs(280.0),
                p_corrupt: 0.3,
                max_flips: 4,
            });
        // The run ends a second after the ad, or mid-life with frames in
        // flight: every on-line holder sends its copy 1 µs before the
        // horizon.
        let chaotic = |in_flight_at_end: bool| {
            let mut s = tiny(ProtocolKind::Gossip, 150, 43)
                .with_faults(faults.clone())
                .with_churn(ChurnSpec::new(dur(60.0), dur(20.0)));
            s.radio.loss = ia_radio::LossModel::Bernoulli(0.1);
            s.radio.contention = ia_radio::Contention::Aloha;
            if in_flight_at_end {
                s.sim_time -= dur(150.0);
            } else {
                s.sim_time += dur(1.0);
            }
            let horizon = SimTime::ZERO + s.sim_time;
            let mut w = World::new(s);
            w.attach_observer(Box::new(FaultLedger::new(dur(5.0))));
            if in_flight_at_end {
                let sent = horizon - SimDuration::from_micros(1);
                w.run_until(sent);
                let before = (w.medium().stats().receptions, w.deliveries().past_horizon);
                let ad = w.ad_ids[0];
                for node in 0..w.scenario.n_nodes() as u32 {
                    let copy = w.peers[node as usize].cached_ad(ad).cloned();
                    if let (true, Some(copy)) = (w.online[node as usize], copy) {
                        w.broadcast(node, sent, AdMessage::gossip(copy));
                    }
                }
                // Every copy of these frames arrives past the horizon,
                // whatever its verdict or its receiver would make of it.
                let (receptions, d) = (w.medium().stats().receptions, w.deliveries());
                let late = d.past_horizon - before.1;
                assert!(late > 0 && late == receptions - before.0, "{d:?}");
            }
            w.run();
            assert_eq!(w.flights.in_flight(), 0, "frames left in flight");
            w
        };
        let w = chaotic(false);
        let (stats, d) = (w.medium().stats(), w.deliveries());
        let ledger = w.observer::<FaultLedger>().expect("ledger attached");
        let count = |reason| ledger.count(reason);
        assert!(d.skipped > 0 && d.corrupted > 0, "{d:?}");
        assert_eq!(d.past_horizon, 0, "{d:?}");
        let reported = ledger.delivered() + count(Offline) + count(Corrupted);
        assert_eq!(reported, stats.receptions);
        let drops = (count(ChannelLoss), count(Jammed), count(Collision));
        assert_eq!(drops, (stats.drops, stats.jammed, stats.collisions));
        assert!(stats.drops > 0 && stats.jammed > 0 && stats.collisions > 0);
        // A corrupted copy whose receiver is off-line when it is sent is
        // reported as off-line, so fewer are reported corrupted than
        // were dropped.
        assert!(count(Corrupted) < d.corrupted, "{d:?}");

        // Frames in flight at the end: their copies are not queued and
        // not reported, and they make up the rest.
        let w = chaotic(true);
        let (stats, d) = (w.medium().stats(), w.deliveries());
        let ledger = w.observer::<FaultLedger>().expect("ledger attached");
        let count = |reason| ledger.count(reason);
        assert!(d.past_horizon > 0, "{d:?}");
        let reported = ledger.delivered() + count(Offline) + count(Corrupted);
        assert_eq!(reported + d.past_horizon, stats.receptions);

        let mut s = tiny(ProtocolKind::OptGossip, 150, 43);
        s.sim_time += dur(1.0);
        let mut w = World::new(s);
        w.attach_observer(Box::new(FaultLedger::new(dur(5.0))));
        w.run();
        let (stats, d) = (w.medium().stats(), w.deliveries());
        let ledger = w.observer::<FaultLedger>().expect("ledger attached");
        assert!(d.applied > 0 && d.queued > 0, "{d:?}");
        assert_eq!(w.flights.in_flight(), 0, "frames left in flight");
        assert_eq!(ledger.delivered(), stats.receptions);
        assert_eq!(ledger.faulted(), 0);
    }

    /// A paper ad issued by `issuer` as ad `seq`, wrapped in a frame.
    fn gossip_msg(w: &World, issuer: u32, seq: u32) -> AdMessage {
        AdMessage::gossip(Advertisement::new(
            AdId::new(PeerId(issuer), seq),
            Point::new(10.0, 10.0),
            SimTime::ZERO,
            500.0,
            SimDuration::from_secs(60.0),
            vec![1],
            0,
            &w.scenario.params,
        ))
    }

    /// A corruption verdict is keyed by (sender, ad, send instant,
    /// receiver): over 100 000 distinct copies, each copy's verdict is
    /// the same in reverse order, in another world, and with other
    /// copies' verdicts interleaved, and the share of corrupted copies
    /// is within 1 % of `p_corrupt`.
    #[test]
    fn corruption_verdicts_are_keyed_by_the_frame_copy() {
        let c = CorruptionSpec {
            from: SimTime::ZERO,
            until: SimTime::from_secs(1000.0),
            p_corrupt: 0.3,
            max_flips: 4,
        };
        let s =
            tiny(ProtocolKind::Gossip, 10, 49).with_faults(FaultPlan::none().with_corruption(c));
        let mut w = World::new(s.clone());
        let msgs = [gossip_msg(&w, 10, 0), gossip_msg(&w, 3, 1)];
        let copy = |i: u64| {
            let (from, to) = ((i % 10) as u32, (i / 10 % 10) as u32);
            (
                from,
                (i / 100 % 2) as usize,
                SimTime::from_millis(i / 200),
                to,
            )
        };
        let copies = 100_000;
        let verdict = |w: &mut World, i: u64| {
            let (from, ad, sent, to) = copy(i);
            w.verdict(c, w.frame_key(&msgs[ad], sent), from, to, &msgs[ad])
        };
        let forward: Vec<Verdict> = (0..copies).map(|i| verdict(&mut w, i)).collect();
        let corrupted = forward.iter().filter(|v| **v != Verdict::Intact).count();
        let share = corrupted as f64 / copies as f64;
        assert!((share / c.p_corrupt - 1.0).abs() < 0.01, "share {share}");
        let mut other = World::new(s);
        for i in (0..copies).rev() {
            assert_eq!(verdict(&mut w, i), forward[i as usize], "copy {i}");
            // Another copy's verdict in between changes nothing.
            verdict(&mut other, (i * 7_919 + 13) % copies);
            assert_eq!(verdict(&mut other, i), forward[i as usize], "copy {i}");
        }
    }

    /// A flip set that cancels out passes the CRC verdict and goes
    /// through the real frame path, which delivers the message unchanged;
    /// every other flip set is dropped as corrupted. With two flips per
    /// frame only a bit drawn twice passes (CRC-32 catches every 2-bit
    /// error), about one frame in 2 000 here.
    #[test]
    fn cancelling_flips_deliver_through_the_frame_path() {
        let c = CorruptionSpec {
            from: SimTime::ZERO,
            until: SimTime::from_secs(1.0),
            p_corrupt: 1.0,
            max_flips: 2,
        };
        let s =
            tiny(ProtocolKind::Gossip, 10, 45).with_faults(FaultPlan::none().with_corruption(c));
        let mut w = World::new(s);
        let msg = gossip_msg(&w, 0, 1);
        let frames = 30_000;
        let mut delivered = 0;
        for sent in 0..frames {
            let frame = w.frame_key(&msg, SimTime::from_micros(sent));
            match w.verdict(c, frame, 0, 1, &msg) {
                Verdict::Escaped(got) => {
                    assert_eq!(got, msg);
                    delivered += 1;
                }
                Verdict::Dropped => {}
                Verdict::Intact => panic!("p_corrupt = 1 flips every frame"),
            }
        }
        assert!(delivered > 0, "no flip set cancelled out");
    }

    /// Body flips `body` plus the trailer flips that cancel their CRC
    /// change: a frame that passes its CRC check though its body changed.
    fn crc_escape(clean: &[u8], body: &[u64]) -> Vec<u64> {
        let body_len = clean.len() - codec::FRAME_CRC_BYTES;
        let mut dirty = clean.to_vec();
        for &bit in body {
            dirty[(bit / 8) as usize] ^= 1 << (bit % 8);
        }
        let syndrome = codec::crc32(&dirty[..body_len]) ^ codec::crc32(&clean[..body_len]);
        let trailer = (0..32)
            .filter(|k| syndrome >> k & 1 == 1)
            .map(|k| body_len as u64 * 8 + k);
        body.iter().copied().chain(trailer).collect()
    }

    /// A frame whose flips escape the CRC reaches the receiver only if it
    /// decodes with the sent ad's id and sketch family. A flipped sketch
    /// count `F` gives a shape the packed bundle cannot hold, which does
    /// not decode; a flipped family seed would fail the merge into a
    /// cached copy, and a flipped issuer would be a phantom ad. All three
    /// are dropped as corrupted. A flip in the opaque content still
    /// delivers.
    #[test]
    fn crc_escapes_reach_the_receiver_only_as_the_sent_ad() {
        let c = CorruptionSpec {
            from: SimTime::ZERO,
            until: SimTime::from_secs(1.0),
            p_corrupt: 1.0,
            max_flips: MAX_FLIPS,
        };
        let s =
            tiny(ProtocolKind::Gossip, 10, 48).with_faults(FaultPlan::none().with_corruption(c));
        let mut w = World::new(s);
        let ad = Advertisement::new(
            AdId::new(PeerId(10), 0),
            Point::new(1200.0, 800.0),
            SimTime::ZERO,
            700.0,
            SimDuration::from_secs(600.0),
            vec![1, 5],
            64,
            &w.scenario.params,
        );
        let msg = AdMessage::gossip(ad);
        let clean = codec::encode_frame(&msg);
        // Body byte 77 of a two-topic ad is the sketch count `F`, byte 78
        // the length `L`, then come 32 bytes of sketches and the family
        // seed; bytes 3 to 6 are the issuer; the last body byte is opaque
        // content.
        let count_bit = 77 * 8;
        let seed_bit = (79 + 32) * 8 + 3;
        let issuer_bit = 3 * 8 + 2;
        let content_bit = (clean.len() - codec::FRAME_CRC_BYTES) as u64 * 8 - 1;
        let decoded = |bits: &[u64]| {
            let mut frame = clean.clone();
            for &bit in bits {
                frame[(bit / 8) as usize] ^= 1 << (bit % 8);
            }
            codec::decode_frame(&frame)
        };

        let reshaped = crc_escape(&clean, &[count_bit]);
        assert!(reshaped.len() <= MAX_FLIPS as usize);
        let shape = codec::CodecError::InvalidField("sketch shape");
        assert_eq!(decoded(&reshaped), Err(shape));
        assert!(w.flipped(&msg, &reshaped).is_none());

        let reseeded = crc_escape(&clean, &[seed_bit]);
        let got = decoded(&reseeded).expect("the flips escape the CRC");
        assert_eq!(got.ad.id, msg.ad.id);
        assert!(!got.ad.sketches.same_family(&msg.ad.sketches));
        assert!(w.flipped(&msg, &reseeded).is_none());

        let phantom = crc_escape(&clean, &[issuer_bit]);
        let got = decoded(&phantom).expect("the flips escape the CRC");
        assert_ne!(got.ad.id, msg.ad.id);
        assert!(w.flipped(&msg, &phantom).is_none());

        let content = crc_escape(&clean, &[content_bit]);
        assert_eq!(decoded(&content).as_ref(), Ok(&msg));
        assert_eq!(w.flipped(&msg, &content), Some(msg));
    }

    #[test]
    fn partition_wave_departs_then_heals_and_gossip_survives() {
        let faults = FaultPlan::none().with_partition_wave(PartitionWave {
            at: SimTime::from_secs(60.0),
            fraction: 0.5,
            down_for: SimDuration::from_secs(60.0),
        });
        let s = tiny(ProtocolKind::Gossip, 200, 44).with_faults(faults);
        let mut w = World::new(s);
        w.attach_observer(Box::new(HookCounter::default()));
        w.run();
        let c = w.observer::<HookCounter>().expect("counter attached");
        assert!(c.departs >= 60, "wave should take ~half of 200 peers down");
        assert_eq!(c.departs, c.rejoins, "every partitioned peer heals");
        let out = &w.tracker().outcomes()[0];
        assert!(
            out.delivery_rate > 50.0,
            "store-&-forward gossip should ride out a healing partition, got {}",
            out.delivery_rate
        );
    }

    #[test]
    fn gps_ramp_perturbs_decisions_but_not_determinism() {
        let faults = FaultPlan::none().with_gps_ramp(NoiseRamp::new(
            SimTime::from_secs(20.0),
            SimTime::from_secs(280.0),
            300.0,
        ));
        let run = |f: &FaultPlan| {
            let s = tiny(ProtocolKind::OptGossip, 150, 45).with_faults(f.clone());
            let mut w = World::new(s);
            w.run();
            (w.medium().stats().clone(), w.tracker().outcomes())
        };
        let noisy_a = run(&faults);
        let noisy_b = run(&faults);
        assert_eq!(noisy_a, noisy_b, "GPS noise must be reproducible");
        let clean = run(&FaultPlan::none());
        assert_ne!(
            noisy_a.0.messages, clean.0.messages,
            "300 m position error should change distance-based decisions"
        );
    }

    #[test]
    fn fault_ledger_attachment_does_not_change_outcomes() {
        let faults = FaultPlan::none()
            .with_jam_zone(JamZone::stationary(
                Point::new(2000.0, 2500.0),
                600.0,
                SimTime::from_secs(30.0),
                SimTime::from_secs(200.0),
            ))
            .with_corruption(CorruptionSpec {
                from: SimTime::from_secs(20.0),
                until: SimTime::from_secs(280.0),
                p_corrupt: 0.2,
                max_flips: 8,
            });
        let scenario = || tiny(ProtocolKind::Gossip, 150, 46).with_faults(faults.clone());
        let plain = {
            let mut w = World::new(scenario());
            w.run();
            (w.medium().stats().clone(), w.tracker().outcomes())
        };
        let mut w = World::new(scenario());
        w.attach_observer(Box::new(FaultLedger::new(SimDuration::from_secs(5.0))));
        w.run();
        assert_eq!(w.medium().stats(), &plain.0);
        assert_eq!(w.tracker().outcomes(), plain.1);
        let ledger = w.observer::<FaultLedger>().unwrap();
        assert!(ledger.faulted() > 0, "ledger must have seen the faults");
        assert!(ledger.survival_rate() < 1.0);
    }
}
