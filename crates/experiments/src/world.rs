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
use crate::scenario::{InterestWorkload, MobilityKind, Scenario};
use crate::tracker::DeliveryTracker;
use ia_core::{
    build_protocol, codec, Action, ActionSink, AdId, AdMessage, Advertisement, EntryWake, Motion,
    PeerContext, PeerId, Protocol, RxMeta, UserProfile,
};
use ia_des::{rng::stream, Scheduler, SimDuration, SimRng, SimTime};
use ia_geo::{Point, Vector};
use ia_mobility::{
    Fleet, FleetCursor, GpsNoise, Manhattan, MobilityModel, RandomWaypoint, Stationary,
};
use ia_radio::{BroadcastOutcome, DropReason, Medium};
use std::any::Any;
use std::sync::Arc;
use std::time::Instant;

/// Events driving one run.
enum Event {
    /// Bring a peer online (fires at t = 0 for everyone).
    Start(u32),
    /// A peer's timer for one ad: a gossip entry tick or a flooding wave.
    Entry(u32, AdId),
    /// Frame arrival at a receiver.
    Deliver {
        msg: Arc<AdMessage>,
        meta: RxMeta,
        to: u32,
    },
    /// The issuer of ad `index` publishes it.
    Issue { index: usize },
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
    /// Frame-corruption draws (fault injection); consumed only while a
    /// corruption window is active, so fault-free runs never touch it.
    fault_rng: SimRng,
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
    ad_ids: Vec<AdId>,
    /// Per-node online flag; departed nodes are radio-silent and ignore
    /// timers.
    online: Vec<bool>,
    /// Wall-clock phase breakdown, off (and branch-only overhead) unless
    /// [`World::enable_phase_profile`] was called. The perf harness
    /// measures its headline numbers in a separate, uninstrumented run.
    profile: Option<Box<PhaseProfile>>,
    entry_wakeups: EntryWakeups,
    /// Test-only reference mode: predict no position, so every entry
    /// tick runs (the per-tick oracle for the look-ahead).
    #[cfg(test)]
    per_tick: bool,
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
    let sigma2: f64 = scenario
        .faults
        .gps_ramps
        .iter()
        .map(|r| r.sigma_at(t).powi(2))
        .sum();
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

/// A peer's motion at one callback instant: the position fix and the
/// velocity estimate through the world's leg cursor, and exact future
/// fixes from the fleet's immutable trajectories, each only when the
/// protocol asks.
struct FleetMotion<'a> {
    cursor: &'a mut FleetCursor,
    fleet: &'a Fleet,
    scenario: &'a Scenario,
    node: u32,
    now: SimTime,
    #[cfg(test)]
    per_tick: bool,
}

impl Motion for FleetMotion<'_> {
    fn position(&mut self) -> Point {
        let truth = self.cursor.position(self.fleet, self.node, self.now);
        gps_fix(self.scenario, self.node, self.now, truth)
    }

    fn velocity(&mut self) -> Vector {
        self.cursor
            .estimated_velocity(self.fleet, self.node, self.now, VELOCITY_FIX_WINDOW)
    }

    /// The fix a callback at `t` reads ([`gps_fix`]), up to the
    /// scheduler's horizon, past which no callback runs.
    fn position_at(&mut self, t: SimTime) -> Option<Point> {
        #[cfg(test)]
        if self.per_tick {
            return None;
        }
        if t >= SimTime::ZERO + self.scenario.sim_time {
            return None;
        }
        let truth = self.fleet.position(self.node, t);
        Some(gps_fix(self.scenario, self.node, t, truth))
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
        let model: Box<dyn MobilityModel> = match scenario.mobility {
            MobilityKind::RandomWaypoint => Box::new(RandomWaypoint::paper(
                scenario.area,
                scenario.speed_mean,
                scenario.speed_delta,
            )),
            MobilityKind::Manhattan => Box::new(Manhattan::paper(
                scenario.area,
                scenario.speed_mean,
                scenario.speed_delta,
            )),
        };
        let mut fleet = Fleet::generate(&model, scenario.n_peers, scenario.seed, start, end);
        fleet.extend(scenario.ads.iter().map(|spec| {
            let mut rng = SimRng::derive(scenario.seed, stream::PLACEMENT);
            Stationary::at(spec.issue_pos).trajectory(&mut rng, start, end)
        }));

        // Per-peer protocol instances, each with the key of its draws;
        // every peer shares one copy of the parameters.
        let params = Arc::new(scenario.params.clone());
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
        medium.set_fleet_speed_bound(fleet.max_speed());
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
        // An ad's seq is its scenario index: `schedule_entry`'s rank needs
        // it to be unique.
        let ad_ids: Vec<AdId> = scenario
            .ads
            .iter()
            .enumerate()
            .map(|(i, _)| AdId::new(PeerId(scenario.issuer_node(i)), i as u32))
            .collect();
        for (i, spec) in scenario.ads.iter().enumerate() {
            sched.schedule_at(spec.issue_time, Event::Issue { index: i });
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
        let specs: Vec<(AdId, crate::scenario::AdSpec)> = ad_ids
            .iter()
            .copied()
            .zip(scenario.ads.iter().cloned())
            .collect();
        let tracker = DeliveryTracker::new(&fleet, scenario.n_peers, &specs);
        let online = vec![true; scenario.n_nodes()];

        World {
            radio_rng: SimRng::derive(scenario.seed, stream::RADIO),
            fault_rng: SimRng::derive(scenario.seed, stream::FAULT | stream::fault::CORRUPT),
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
            ad_ids,
            online,
            profile: None,
            entry_wakeups: EntryWakeups::default(),
            #[cfg(test)]
            per_tick: false,
        }
    }

    /// Attach an additional [`SimObserver`]; it receives every hook from
    /// this point on. Attach before [`World::run`] to see the whole run.
    /// Observers are passive, so the simulated outcome is identical with
    /// any observer set.
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
        // Departed nodes drop everything addressed to them; a dropped
        // frame delivery is the one observable case (on_suppress).
        let target = match &ev {
            Event::Start(n) | Event::Entry(n, _) => Some(*n),
            Event::Deliver { to, .. } => Some(*to),
            Event::Issue { index } => Some(self.scenario.issuer_node(*index)),
            Event::Depart(_) | Event::Rejoin(_) => None,
        };
        if let Some(n) = target {
            if !self.online[n as usize] {
                if let Event::Deliver { msg, to, .. } = &ev {
                    self.observe(|o| o.on_suppress(now, *to, msg, SuppressReason::Offline));
                }
                return;
            }
        }
        match ev {
            Event::Depart(node) => {
                if self.online[node as usize] {
                    self.online[node as usize] = false;
                    self.observe(|o| o.on_depart(now, node));
                }
            }
            Event::Rejoin(node) => {
                if !self.online[node as usize] {
                    self.online[node as usize] = true;
                    self.observe(|o| o.on_rejoin(now, node));
                    self.dispatch(node, now, |peer, ctx, out| peer.on_start(ctx, out));
                }
            }
            Event::Start(node) => {
                self.dispatch(node, now, |peer, ctx, out| peer.on_start(ctx, out));
            }
            Event::Entry(node, ad) => {
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
            Event::Deliver { msg, meta, to } => {
                // Frame corruption (fault injection): while a corruption
                // window is active, each delivery may get bit-flipped
                // between encode and decode. The hardened codec's CRC
                // trailer turns the flips into a typed decode error and
                // the receiver drops the frame.
                let msg = if let Some(c) = self.scenario.faults.corruption {
                    if c.active(now) && self.fault_rng.chance(c.p_corrupt) {
                        let mut frame = codec::encode_frame(&msg);
                        let flips = 1 + self.fault_rng.range_u64(0, c.max_flips as u64);
                        for _ in 0..flips {
                            let bit = self.fault_rng.range_u64(0, frame.len() as u64 * 8);
                            frame[(bit / 8) as usize] ^= 1 << (bit % 8);
                        }
                        match codec::decode_frame(&frame) {
                            Ok(recovered) => Arc::new(recovered), // CRC escape (~2⁻³²)
                            Err(_) => {
                                self.observe(|o| {
                                    o.on_suppress(now, to, &msg, SuppressReason::Corrupted)
                                });
                                return;
                            }
                        }
                    } else {
                        msg
                    }
                } else {
                    msg
                };
                self.observe(|o| o.on_deliver(now, to, &msg, &meta));
                self.dispatch(to, now, |peer, ctx, out| {
                    peer.on_receive(ctx, &msg, &meta, out)
                });
            }
            Event::Issue { index } => {
                let node = self.scenario.issuer_node(index);
                let spec = self.scenario.ads[index].clone();
                let ad = Advertisement::new(
                    self.ad_ids[index],
                    spec.issue_pos,
                    now,
                    spec.radius,
                    spec.duration,
                    spec.topics.clone(),
                    spec.payload_bytes,
                    &self.scenario.params,
                );
                self.dispatch(node, now, |peer, ctx, out| peer.issue(ctx, ad, out));
            }
        }
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
                node,
                now,
                #[cfg(test)]
                per_tick: self.per_tick,
            },
        };
        f(self.peers[node as usize].as_mut(), &mut ctx)
    }

    fn apply(&mut self, node: u32, now: SimTime, sink: &mut ActionSink) {
        for action in sink.drain() {
            match action {
                Action::Broadcast(msg) => {
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
                    let shared = Arc::new(msg);
                    let t0 = self.phase_start();
                    self.observe(|o| o.on_broadcast(now, node, &shared, &info));
                    for d in &outcome.drops {
                        let reason = match d.reason {
                            DropReason::Loss => SuppressReason::ChannelLoss,
                            DropReason::Jam => SuppressReason::Jammed,
                            DropReason::Collision => SuppressReason::Collision,
                        };
                        self.observe(|o| o.on_suppress(now, d.to, &shared, reason));
                    }
                    self.phase_end(t0, |p| &mut p.observer_ns);
                    for d in outcome.deliveries.drain(..) {
                        self.sched.schedule_at(
                            d.arrival,
                            Event::Deliver {
                                msg: Arc::clone(&shared),
                                meta: RxMeta {
                                    sender_pos: d.sender_pos,
                                    from: d.from,
                                    distance: d.distance,
                                },
                                to: d.to,
                            },
                        );
                    }
                    self.outcome = outcome;
                }
                Action::ScheduleEntry { ad, at } => self.schedule_entry(node, ad, at.max(now)),
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

    fn tiny(protocol: ProtocolKind, n: usize, seed: u64) -> Scenario {
        // Shrink the run so unit tests stay fast: 300 s life cycle.
        Scenario::paper(protocol, n)
            .with_seed(seed)
            .with_life_cycle(SimDuration::from_secs(300.0))
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

    #[test]
    fn run_until_steps_incrementally_and_matches_full_run() {
        let mut stepped = World::new(tiny(ProtocolKind::Gossip, 60, 24));
        for k in 1..=31 {
            stepped.run_until(SimTime::from_secs(k as f64 * 10.0));
        }
        stepped.run();
        let mut full = World::new(tiny(ProtocolKind::Gossip, 60, 24));
        full.run();
        assert_eq!(stepped.medium().stats(), full.medium().stats());
        assert_eq!(stepped.tracker().outcomes(), full.tracker().outcomes());
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

    // ---- entry-tick look-ahead vs per-tick execution ------------------

    /// Run `s` to the horizon; `per_tick` makes the motion predict no
    /// position, so every entry tick runs instead of being decided ahead.
    fn run_entry_ticks(s: Scenario, per_tick: bool) -> World {
        let mut w = World::new(s);
        w.per_tick = per_tick;
        w.run();
        w
    }

    /// The look-ahead is exact: on seeded scenarios of all five protocols
    /// with GPS ramps (fixes are keyed, so the look-ahead predicts noisy
    /// ones too), churn and partition waves (restarts re-anchor grids and
    /// re-arm entries; a healing wave restarts many peers at one instant,
    /// so their wake-ups share instants), several ads under cache
    /// pressure (evictions and re-admissions), interested peers (ads grow)
    /// and round times from 20 ms to 9 s, every run gives the per-tick
    /// run's bytes. Flooding has
    /// nothing to look ahead at; every gossip kind skips ticks.
    #[test]
    fn entry_look_ahead_matches_per_tick_execution() {
        use crate::scenario::ChurnSpec;
        let mut draw = SimRng::from_master(0x10c4_a11e);
        let mut skipped = [0u64; 5];
        let mut rearmed = 0;
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
            s = s.with_faults(faults);
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
            let (w, reference) = (run_entry_ticks(s.clone(), false), run_entry_ticks(s, true));
            let result = |w: &World| format!("{:?}", crate::RunResult::of(w));
            assert_eq!(result(&w), result(&reference), "{what}");
            assert_eq!(w.medium().stats(), reference.medium().stats(), "{what}");
            let (a, r) = (w.entry_wakeups(), reference.entry_wakeups());
            assert!(a.fired <= r.fired, "{what}: {a:?} vs {r:?}");
            skipped[k] += r.fired - a.fired;
            rearmed += a.rearmed;
        }
        // Every gossip kind skipped ticks, and wake-ups re-armed, so the
        // equality above is not vacuous.
        assert_eq!(skipped[0], 0, "Flooding has no look-ahead");
        assert!(
            skipped[1..].iter().all(|&n| n > 1000) && rearmed > 100,
            "{skipped:?} skipped, {rearmed} re-armed"
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
