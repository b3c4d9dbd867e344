//! Per-layer measurement. Untraced runs give the clean ns/event and
//! allocation figures. One traced run, with the phase profile and a
//! recording observer attached, gives the queue, phase and hook counts.
//! The streams it recorded are then replayed through each layer's public
//! API (`Medium`, `FleetCursor`, `FlatGrid`, `Advertisement`, `codec`)
//! and timed from outside the simulator.

use crate::alloc::AllocCount;
use crate::e2e::{per, run_result, Runs};
use crate::provenance::digest_of;
use crate::report::Report;
use ia_core::{codec, AdId, AdMessage, Advertisement, RxMeta};
use ia_des::{rng::stream, SimDuration, SimRng, SimTime};
use ia_experiments::{BroadcastInfo, Scenario, SimObserver, SuppressReason, World};
use ia_geo::FlatGrid;
use ia_mobility::{Fleet, FleetCursor};
use ia_radio::{BroadcastOutcome, Medium};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// `World`'s two-fix velocity window (private there): the mobility replay
/// must make the lookups the world's context builder makes.
const VELOCITY_FIX_WINDOW: SimDuration = SimDuration::from_millis(1000);
/// Broadcast instants the grid replay samples, and disk queries it times
/// at each.
const GRID_SAMPLES: usize = 64;
const QUERIES_PER_SAMPLE: usize = 64;
/// Calls per core micro-replay (clone, absorb, encode, decode).
const CORE_REPS: u32 = 20_000;

/// Every suppression cause, in report order.
const REASONS: [SuppressReason; 5] = [
    SuppressReason::Offline,
    SuppressReason::ChannelLoss,
    SuppressReason::Jammed,
    SuppressReason::Collision,
    SuppressReason::Corrupted,
];

fn slot(reason: SuppressReason) -> usize {
    REASONS
        .iter()
        .position(|r| *r == reason)
        .expect("REASONS lists every cause")
}

/// Counts every hook and records the streams the replays consume.
#[derive(Default)]
struct Recorder {
    /// `(time, sender, frame bytes)` per broadcast, in transmission order.
    broadcasts: Vec<(SimTime, u32, usize)>,
    /// `(time, node)` per round and deliver dispatch, in dispatch order:
    /// lookups the world's context builder made.
    lookups: Vec<(SimTime, u32)>,
    rounds: u64,
    delivers: u64,
    accepts: u64,
    evictions: u64,
    departs: u64,
    rejoins: u64,
    /// Indexed like `REASONS`.
    suppressed: [u64; 5],
}

impl Recorder {
    /// Events some hook saw: rounds, deliveries, deliveries dropped at an
    /// off-line node or for corruption, departures and rejoins.
    fn observed_events(&self) -> u64 {
        self.rounds
            + self.delivers
            + self.suppressed[slot(SuppressReason::Offline)]
            + self.suppressed[slot(SuppressReason::Corrupted)]
            + self.departs
            + self.rejoins
    }
}

impl SimObserver for Recorder {
    fn on_broadcast(&mut self, now: SimTime, node: u32, _: &AdMessage, info: &BroadcastInfo) {
        self.broadcasts.push((now, node, info.bytes));
    }

    fn on_deliver(&mut self, now: SimTime, to: u32, _: &AdMessage, _: &RxMeta) {
        self.delivers += 1;
        self.lookups.push((now, to));
    }

    fn on_accept(&mut self, _: SimTime, _: u32, _: AdId) {
        self.accepts += 1;
    }

    fn on_suppress(&mut self, _: SimTime, _: u32, _: &AdMessage, reason: SuppressReason) {
        self.suppressed[slot(reason)] += 1;
    }

    fn on_cache_evict(&mut self, _: SimTime, _: u32, _: AdId) {
        self.evictions += 1;
    }

    fn on_round(&mut self, now: SimTime, node: u32) {
        self.rounds += 1;
        self.lookups.push((now, node));
    }

    fn on_depart(&mut self, _: SimTime, _: u32) {
        self.departs += 1;
    }

    fn on_rejoin(&mut self, _: SimTime, _: u32) {
        self.rejoins += 1;
    }
}

/// A finished traced run.
pub struct Traced {
    pub world: World,
    pub wall_ns: f64,
}

/// Run `scenario` with the phase profile and a recorder attached.
pub fn traced_run(scenario: &Scenario) -> Traced {
    let mut world = World::new(scenario.clone());
    world.enable_phase_profile();
    world.attach_observer(Box::new(Recorder::default()));
    let start = Instant::now();
    world.run();
    Traced {
        wall_ns: start.elapsed().as_nanos() as f64,
        world,
    }
}

fn recorder(world: &World) -> &Recorder {
    world
        .observer::<Recorder>()
        .expect("traced runs attach a recorder")
}

/// Replay a traced run's broadcasts through a fresh `Medium`, wired as
/// `World::new` wires its own. Returns the medium and the wall time per
/// `broadcast_into` call, ns.
pub fn radio_replay(world: &World) -> (Medium, f64) {
    let scenario = world.scenario();
    let fleet = world.fleet();
    let mut medium = Medium::new(scenario.radio.clone());
    medium.set_fleet_speed_bound(fleet.max_speed());
    for zone in &scenario.faults.jam_zones {
        medium.add_jam_zone(*zone);
    }
    if let Some(burst) = &scenario.faults.burst_loss {
        medium.set_burst_loss(burst.from, burst.until, burst.channel());
    }
    let mut rng = SimRng::derive(scenario.seed, stream::RADIO);
    let mut outcome = BroadcastOutcome::default();
    let broadcasts = &recorder(world).broadcasts;
    let start = Instant::now();
    for &(t, node, bytes) in broadcasts {
        medium.broadcast_into(fleet, t, node, bytes, &mut rng, &mut outcome);
    }
    let ns = per(start.elapsed().as_nanos() as f64, broadcasts.len() as f64);
    (medium, ns)
}

/// Do two media agree on every traffic statistic and grid counter?
pub fn same_channel(a: &Medium, b: &Medium) -> bool {
    a.stats() == b.stats()
        && a.grid_rebuilds() == b.grid_rebuilds()
        && a.grid_queries() == b.grid_queries()
}

/// Mean cost of a context lookup (position plus two-fix velocity), ns:
/// a fresh cursor replays the recorded dispatches in order.
fn mobility_replay(fleet: &Fleet, lookups: &[(SimTime, u32)]) -> f64 {
    let mut cursor = FleetCursor::new();
    let start = Instant::now();
    for &(t, node) in lookups {
        black_box(cursor.position(fleet, node, t));
        black_box(cursor.estimated_velocity(fleet, node, t, VELOCITY_FIX_WINDOW));
    }
    per(start.elapsed().as_nanos() as f64, lookups.len() as f64)
}

struct GridCost {
    rebuild_ns: f64,
    query_ns: f64,
    candidates_per_query: f64,
}

/// `FlatGrid` rebuild and radio-range disk queries over the fleet's
/// positions at sampled broadcast instants. The first query of each
/// instant is centred on that broadcast's sender, the rest on a fixed
/// spread of nodes.
fn grid_replay(fleet: &Fleet, range: f64, broadcasts: &[(SimTime, u32, usize)]) -> GridCost {
    let n = fleet.len();
    let cell = range.max(1.0); // the medium's cell side
    let mut cursor = FleetCursor::new();
    let (mut positions, mut found) = (Vec::new(), Vec::new());
    let mut grid = FlatGrid::new();
    let (mut rebuild, mut query) = (Duration::ZERO, Duration::ZERO);
    let (mut samples, mut candidates) = (0usize, 0usize);
    let step = (broadcasts.len() / GRID_SAMPLES).max(1);
    for &(t, sender, _) in broadcasts.iter().step_by(step) {
        cursor.positions_into(fleet, t, &mut positions);
        if samples == 0 {
            grid.rebuild(cell, &positions); // size the buffers untimed
        }
        let start = Instant::now();
        grid.rebuild(cell, &positions);
        rebuild += start.elapsed();
        let start = Instant::now();
        for k in 0..QUERIES_PER_SAMPLE {
            let centre = if k == 0 {
                sender as usize
            } else {
                k * n / QUERIES_PER_SAMPLE
            };
            grid.query_disk_into(positions[centre], range, &mut found);
            candidates += found.len();
        }
        query += start.elapsed();
        samples += 1;
    }
    let queries = (samples * QUERIES_PER_SAMPLE) as f64;
    GridCost {
        rebuild_ns: per(rebuild.as_nanos() as f64, samples as f64),
        query_ns: per(query.as_nanos() as f64, queries),
        candidates_per_query: per(candidates as f64, queries),
    }
}

struct CoreCost {
    clone_ns: f64,
    clone_allocs: f64,
    absorb_ns: f64,
    encode_ns: f64,
    decode_ns: f64,
    round_trips: bool,
}

/// Mean wall time of `f` over `CORE_REPS` calls, ns.
fn mean_ns(mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    for _ in 0..CORE_REPS {
        f();
    }
    start.elapsed().as_nanos() as f64 / f64::from(CORE_REPS)
}

/// Clone (with drop), absorb and frame codec costs on the workload's ad.
fn core_replay(ad: &Advertisement) -> CoreCost {
    let allocs_base = AllocCount::now();
    let clone_ns = mean_ns(|| drop(black_box(black_box(ad).clone())));
    let clone_allocs = AllocCount::now().since(allocs_base).allocs as f64 / f64::from(CORE_REPS);
    let mut merged = ad.clone();
    let absorb_ns = mean_ns(|| black_box(&mut merged).absorb(black_box(ad)));
    let msg = AdMessage::gossip(ad.clone());
    let encode_ns = mean_ns(|| drop(black_box(codec::encode_frame(black_box(&msg)))));
    let frame = codec::encode_frame(&msg);
    let decode_ns = mean_ns(|| drop(black_box(codec::decode_frame(black_box(&frame)))));
    CoreCost {
        clone_ns,
        clone_allocs,
        absorb_ns,
        encode_ns,
        decode_ns,
        round_trips: codec::decode_frame(&frame).ok().as_ref() == Some(&msg),
    }
}

/// The most-informed copy of the workload's ad at the horizon, or the ad
/// as issued if no peer still stores one.
fn workload_ad(world: &World) -> Advertisement {
    let id = world.ad_ids()[0];
    world.best_copy(id).unwrap_or_else(|| {
        let scenario = world.scenario();
        let spec = &scenario.ads[0];
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
}

/// Measure `scenario` traced and report the per-layer metrics, with the
/// traced run's outcome digest.
pub fn measure(scenario: &Scenario, seconds: f64) -> (Report, Option<u64>) {
    // Half the budget buys untraced runs: ns/event and allocations must
    // not carry the instruments' cost.
    let runs = Runs::collect(scenario, Duration::from_secs_f64(seconds / 2.0), 1);
    let clean = runs.consensus();
    let untraced_s = runs.median(|r| r.run_s);

    let Traced { world, wall_ns } = traced_run(scenario);
    let digest = digest_of(&run_result(&world));
    let rec = recorder(&world);
    let phases = *world.phase_profile().expect("traced runs profile phases");
    let stats = world.medium().stats();
    let queue = world.queue_stats();
    let events = world.events_processed() as f64;
    let broadcasts = stats.messages as f64;
    let phase_ns =
        (phases.queue_ns + phases.grid_ns + phases.protocol_ns + phases.observer_ns) as f64;
    let residual_ns = wall_ns - phase_ns;

    let (replayed, replay_ns) = radio_replay(&world);
    let ctx_ns = mobility_replay(world.fleet(), &rec.lookups);
    let grid = grid_replay(world.fleet(), scenario.radio.range, &rec.broadcasts);
    let core = core_replay(&workload_ad(&world));

    let offline = rec.suppressed[slot(SuppressReason::Offline)];
    let corrupt = rec.suppressed[slot(SuppressReason::Corrupted)];
    let traced_agrees = clean.map(|run| run.digest) == Some(digest);
    let checks = [
        ("untraced runs agree on the outcome", runs.failed() == 0),
        ("the traced run has the untraced outcome", traced_agrees),
        (
            "the radio replay reproduces TrafficStats and the grid counters",
            same_channel(&replayed, world.medium()),
        ),
        (
            "the observer saw every broadcast",
            rec.broadcasts.len() as u64 == stats.messages,
        ),
        (
            "suppressions by loss, jam and collision equal the channel's drops",
            rec.suppressed[slot(SuppressReason::ChannelLoss)] == stats.drops
                && rec.suppressed[slot(SuppressReason::Jammed)] == stats.jammed
                && rec.suppressed[slot(SuppressReason::Collision)] == stats.collisions,
        ),
        (
            "no more frames arrived than the channel scheduled",
            rec.delivers + offline + corrupt <= stats.receptions,
        ),
        (
            "the phases fit inside the traced wall time",
            residual_ns >= 0.0,
        ),
        ("the frame codec round-trips the ad", core.round_trips),
    ];
    for (check, ok) in &checks {
        if !ok {
            eprintln!("simbench: check failed: {check}");
        }
    }

    let mut r = Report {
        correct: checks.iter().all(|(_, ok)| *ok),
        attempted: runs.attempted() as u64 + 1,
        failed: runs.failed() as u64 + u64::from(!traced_agrees),
        metrics: Vec::new(),
    };
    let ms = |ns: u64| ns as f64 / 1e6;
    r.push("des.events", events, "count");
    r.push("des.pushes", queue.pushes as f64, "count");
    r.push("des.pops", queue.pops as f64, "count");
    r.push("des.cancels", queue.cancels as f64, "count");
    r.push("des.cascades", queue.cascades as f64, "count");
    let cascades_per_pop = per(queue.cascades as f64, queue.pops as f64);
    r.push("des.cascades_per_pop", cascades_per_pop, "ratio");
    r.push(
        "des.pop_ns",
        per(phases.queue_ns as f64, queue.pops as f64),
        "ns",
    );

    let (allocs, alloc_bytes, clean_events) = clean.map_or((0.0, 0.0, 0.0), |run| {
        (
            run.allocs.allocs as f64,
            run.allocs.bytes as f64,
            run.events as f64,
        )
    });
    let overhead_pct = if untraced_s > 0.0 {
        100.0 * (wall_ns / 1e9 / untraced_s - 1.0)
    } else {
        0.0
    };
    r.push(
        "world.ns_per_event",
        per(untraced_s * 1e9, clean_events),
        "ns",
    );
    r.push("world.allocs", allocs, "count");
    r.push("world.allocs_per_event", per(allocs, clean_events), "ratio");
    r.push("world.alloc_bytes", alloc_bytes, "bytes");
    let unobserved = (events - rec.observed_events() as f64).max(0.0);
    r.push("world.unobserved_events", unobserved, "count");
    r.push("world.traced_wall_ms", wall_ns / 1e6, "ms");
    r.push("world.unattributed_ms", residual_ns / 1e6, "ms");
    r.push("world.trace_overhead_pct", overhead_pct, "%");
    r.push("host.kernel_ms", runs.median(|r| r.kernel_s) * 1e3, "ms");

    r.push("phase.queue_ms", ms(phases.queue_ns), "ms");
    r.push("phase.radio_ms", ms(phases.grid_ns), "ms");
    r.push("phase.protocol_ms", ms(phases.protocol_ns), "ms");
    r.push("phase.observer_ms", ms(phases.observer_ns), "ms");
    r.push("phase.sum_ms", phase_ns / 1e6, "ms");

    r.push("mobility.ctx_ns", ctx_ns, "ns");
    r.push("mobility.lookups", rec.lookups.len() as f64, "count");

    r.push("geo.rebuild_ns", grid.rebuild_ns, "ns");
    r.push("geo.query_ns", grid.query_ns, "ns");
    r.push(
        "geo.candidates_per_query",
        grid.candidates_per_query,
        "count",
    );

    let rebuilds = world.medium().grid_rebuilds() as f64;
    let queries = world.medium().grid_queries() as f64;
    let receptions = stats.receptions as f64;
    r.push("radio.broadcasts", broadcasts, "count");
    r.push("radio.receptions", receptions, "count");
    r.push(
        "radio.rx_per_broadcast",
        per(receptions, broadcasts),
        "ratio",
    );
    r.push("radio.drops", stats.drops as f64, "count");
    r.push("radio.jammed", stats.jammed as f64, "count");
    r.push("radio.collisions", stats.collisions as f64, "count");
    r.push("radio.grid_rebuilds", rebuilds, "count");
    r.push("radio.grid_queries", queries, "count");
    r.push("radio.queries_per_rebuild", per(queries, rebuilds), "ratio");
    r.push(
        "radio.broadcast_ns",
        per(phases.grid_ns as f64, broadcasts),
        "ns",
    );
    r.push("radio.replay_ns", replay_ns, "ns");

    let protocol_ns = per(phases.protocol_ns as f64, events);
    r.push("core.protocol_ns_per_event", protocol_ns, "ns");
    r.push("core.broadcast_ratio", per(broadcasts, events), "ratio");
    r.push("core.accepts", rec.accepts as f64, "count");
    r.push("core.evictions", rec.evictions as f64, "count");
    r.push("core.ad_clone_ns", core.clone_ns, "ns");
    r.push("core.ad_clone_allocs", core.clone_allocs, "count");
    r.push("core.absorb_ns", core.absorb_ns, "ns");
    r.push("core.frame_encode_ns", core.encode_ns, "ns");
    r.push("core.frame_decode_ns", core.decode_ns, "ns");

    let observer_ns = per(phases.observer_ns as f64, broadcasts);
    r.push("observer.ns_per_broadcast", observer_ns, "ns");
    r.push("observer.delivers", rec.delivers as f64, "count");
    for reason in REASONS {
        let name = format!("observer.suppressed.{}", reason.as_str());
        r.push(&name, rec.suppressed[slot(reason)] as f64, "count");
    }
    (r, Some(digest))
}
