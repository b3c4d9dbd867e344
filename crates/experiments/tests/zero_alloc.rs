//! Zero-allocation proofs for the simulator's hot paths, and heap proofs
//! for its set-up.
//!
//! One counting global allocator serves every test here. It counts only
//! the calling thread's allocations (a `const`-initialised thread-local
//! counter), so each proof is an ordinary `#[test]` under the default
//! parallel harness: allocations made by other test threads, or by the
//! harness itself, never reach the counter a proof reads.
//!
//! Each proof warms its path up first (sizing every recycled buffer),
//! then asserts that a further stretch of steady-state work performs
//! exactly zero allocations. The proofs cover: scheduler churn, grid
//! rebuilds and queries, broadcast → dispatch (with and without grid
//! rebuilds), copies applied when their frame is sent, duplicate
//! receipts, non-forwarding entry ticks, and
//! the corruption verdict (`codec::FlipVerdict`), and Manhattan
//! waypoints drawn into a reused buffer. One test checks
//! that attaching a passive observer adds no allocation to a whole
//! `World::run`. The heap proofs read the thread's live and peak bytes:
//! a fleet holds exactly its waypoints and offsets, and `World::new` peaks at
//! the heap it leaves.

use ia_core::{
    build_protocol, codec, Action, ActionSink, AdId, AdMessage, Advertisement, CopyFate, EntryWake,
    GossipParams, PeerContext, PeerId, Protocol, ProtocolKind, RxMeta, SharedParams, UserProfile,
};
use ia_des::{Scheduler, SimDuration, SimRng, SimTime};
use ia_experiments::observer::{BroadcastInfo, SuppressReason};
use ia_experiments::scenario::{AdSpec, MAX_FLIPS};
use ia_experiments::{ChurnSpec, Scenario, SimObserver, World};
use ia_geo::{FlatGrid, Point, Vector};
use ia_mobility::{Fleet, Manhattan, MobilityModel, RandomWaypoint, Trajectory, Waypoint};
use ia_radio::{BroadcastOutcome, Medium, RadioConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;
use std::sync::Arc;

/// System allocator wrapper that counts the current thread's
/// allocations and reallocations, and its live and peak heap bytes. A
/// `realloc` moves the live heap from the old size to the new one, as if
/// in place.
struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread allocated less the bytes it freed; negative
    /// after it frees another thread's memory.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

/// Record an allocation of `grow` bytes (or a `realloc` that grew the
/// heap by `grow`), counted as one allocation.
fn count_one(grow: i64) {
    // `try_with`: the allocator can run while this thread's locals are
    // being torn down; those allocations are not part of any proof.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + grow);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let _ = LIVE.try_with(|live| live.set(live.get() - layout.size() as i64));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Run `f` and return how many allocations this thread made during it,
/// with `f`'s result.
fn allocations_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCATIONS.with(Cell::get);
    let r = f();
    (ALLOCATIONS.with(Cell::get) - before, r)
}

/// This thread's heap over a call, in bytes above its live heap at the
/// start.
#[derive(Debug)]
struct HeapUse {
    /// Still allocated when the call returned.
    live: i64,
    /// The most allocated at any moment during the call.
    peak: i64,
}

/// Run `f` and return its [`HeapUse`], with `f`'s result.
fn heap_during<R>(f: impl FnOnce() -> R) -> (HeapUse, R) {
    let base = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(base));
    let r = f();
    let heap = HeapUse {
        live: LIVE.with(Cell::get) - base,
        peak: PEAK.with(Cell::get) - base,
    };
    (heap, r)
}

/// Postponement churn modelled on Optimized Gossiping-2 as the world
/// runs it: every peer keeps one pending broadcast timer, and each
/// arriving copy pushes a later one, leaving the stale timer queued to
/// pop and be ignored. The workload is therefore one push per round with
/// a pop every fifth round, then a full drain.
const CHURN_PEERS: usize = 32;
const CHURN_ROUNDS: usize = 512;

/// Pass starts are aligned to 64^6-µs blocks: far larger than one pass's
/// time span, so within a pass every event time shares the block's high
/// bits and the wheel's XOR-based level placement is exactly
/// translation-invariant from pass to pass. That keeps successive passes
/// structurally identical (same chains, cascades, and buffer peaks),
/// which the proof below relies on.
const CHURN_BLOCK: u64 = 1 << 36;

fn churn_wheel(q: &mut Scheduler<usize>, start: u64) -> u64 {
    for peer in 0..CHURN_PEERS {
        q.schedule_at(SimTime::from_micros(start + 1_000 + 37 * peer as u64), peer);
    }
    let mut now = start;
    let mut x: u64 = 0xDEADBEEFCAFE;
    let mut rand = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut delivered = 0u64;
    for round in 0..CHURN_ROUNDS {
        let peer = (rand() % CHURN_PEERS as u64) as usize;
        let t2 = now + 500 + rand() % 50_000;
        q.schedule_at(SimTime::from_micros(t2), peer);
        if round % 5 == 0 && q.pop().is_some() {
            now = q.now().as_micros();
            delivered += 1;
        }
    }
    while q.pop().is_some() {
        delivered += 1;
    }
    delivered
}

/// A warm scheduler's schedule/pop churn must not touch the allocator.
/// The first passes size the wheel's slab, the due batch, and the slot
/// chains; later block-aligned passes are structurally identical and
/// must recycle every one of them.
#[test]
fn des_queue_churn_wheel() {
    let mut q: Scheduler<usize> = Scheduler::new();
    let mut warm_delivered = 0;
    for pass in 1..=2 {
        warm_delivered = black_box(churn_wheel(&mut q, pass * CHURN_BLOCK));
    }
    let (allocated, delivered) = allocations_during(|| churn_wheel(&mut q, 3 * CHURN_BLOCK));
    assert_eq!(
        allocated, 0,
        "wheel schedule/pop churn allocated {allocated} times over {CHURN_ROUNDS} rounds"
    );
    // Every pass replays the same PRNG sequence, so the delivery count
    // must be identical pass to pass.
    assert_eq!(delivered, warm_delivered);
}

/// Steady-state rebuild + query cycles through a warm [`FlatGrid`] must
/// not touch the allocator at all.
#[test]
fn grid_rebuild_query() {
    let mut rng = SimRng::from_master(1);
    let positions: Vec<Point> = (0..1000)
        .map(|_| Point::new(rng.range_f64(0.0, 5000.0), rng.range_f64(0.0, 5000.0)))
        .collect();
    let mut flat = FlatGrid::new();
    let mut out = Vec::with_capacity(1024);
    let cycle = |flat: &mut FlatGrid, out: &mut Vec<(u32, Point)>| {
        flat.rebuild(250.0, &positions);
        for q in 0..64 {
            let p = Point::new(78.125 * q as f64, 5000.0 - 78.125 * q as f64);
            flat.query_disk_into(p, 250.0, out);
            black_box(out.len());
        }
    };
    for _ in 0..4 {
        cycle(&mut flat, &mut out);
    }
    let (allocated, ()) = allocations_during(|| cycle(&mut flat, &mut out));
    assert_eq!(
        allocated, 0,
        "grid_rebuild_query allocated {allocated} times (rebuild + 64 queries)"
    );
}

/// A deterministic point cloud at `phase`, bounded so the cell rectangle
/// (and hence the offset-table size) stays constant across phases.
fn cloud(n: usize, phase: u64, out: &mut Vec<Point>) {
    out.clear();
    let mut x = 0x9E3779B97F4A7C15u64 ^ phase.wrapping_mul(0xD1B54A32D192ED03);
    for _ in 0..n {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let px = (x % 5_000) as f64;
        let py = ((x >> 20) % 5_000) as f64;
        out.push(Point::new(px, py));
    }
}

/// Once warm, rebuild/query cycles over a point cloud that changes every
/// phase allocate nothing, through the sorted query and the unsorted
/// scan alike: the property the radio medium's steady state depends on
/// (grid rebuilds used to be the one remaining allocation in the
/// broadcast hot path).
#[test]
fn flat_grid_warm_rebuild_and_query_cycles() {
    let mut grid = FlatGrid::new();
    let mut positions = Vec::new();
    // A query returns at most n entries, and a scan writes at most one
    // slot past them; cap both buffers up front so the assertion tests
    // the grid, not Vec growth heuristics.
    let mut out = Vec::with_capacity(1000);
    let mut scan = Vec::with_capacity(1001);
    let mut phase_cycle = |grid: &mut FlatGrid, positions: &mut Vec<Point>, phase| {
        cloud(1000, phase, positions);
        grid.rebuild(250.0, positions);
        for q in 0..16 {
            let c = Point::new((q * 311 % 5000) as f64, (q * 733 % 5000) as f64);
            grid.query_disk_into(c, 250.0, &mut out);
            assert!(out.len() <= 1000);
            let found = grid.scan_disk(c, 250.0, &mut scan);
            assert_eq!(found, out.len());
        }
    };

    // Warm-up: size every recycled buffer (offset table, packed arrays,
    // write heads) over a few phases.
    for phase in 0..4 {
        phase_cycle(&mut grid, &mut positions, phase);
    }
    let (allocated, ()) = allocations_during(|| {
        for phase in 4..36 {
            phase_cycle(&mut grid, &mut positions, phase);
        }
    });
    assert_eq!(
        allocated, 0,
        "warm FlatGrid rebuild/query/scan cycles allocated {allocated} times over 32 phases"
    );
}

/// The paper's ad (`R = 1000 m`, topic 1) from issuer 7, issued at 10 s
/// at the centre of the 5 x 5 km field.
fn paper_ad(params: &GossipParams, duration: SimDuration) -> Advertisement {
    Advertisement::new(
        AdId::new(PeerId(7), 0),
        Point::new(2500.0, 2500.0),
        SimTime::from_secs(10.0),
        1000.0,
        duration,
        vec![1],
        200,
        params,
    )
}

fn opt_gossip_peer(params: &Arc<SharedParams>) -> Box<dyn Protocol> {
    build_protocol(
        ProtocolKind::OptGossip,
        Arc::clone(params),
        RadioConfig::paper().range,
        UserProfile::indifferent(1),
        0,
    )
}

/// The broadcast → protocol-dispatch chain: `broadcast_into` through a
/// recycled outcome buffer, every resulting delivery fed into a warm
/// protocol `on_receive` through a reused sink. The paper radio has no
/// contention, so nothing in the steady state may allocate.
struct RadioChain {
    fleet: Fleet,
    medium: Medium,
    peer: Box<dyn Protocol>,
    msg: AdMessage,
    rng: SimRng,
    out: BroadcastOutcome,
    sink: ActionSink,
}

impl RadioChain {
    /// 1000 Random Waypoint nodes on the paper field, after a warm-up
    /// pass over every source that sizes the grid, the medium's leg table
    /// and candidate buffer (to the most candidates any of these
    /// broadcasts scans), the outcome buffer and the peer's ad cache.
    fn warm() -> Self {
        let model = RandomWaypoint::paper(ia_geo::Rect::with_size(5000.0, 5000.0), 10.0, 5.0);
        let params = GossipParams::paper().shared();
        let mut chain = RadioChain {
            fleet: Fleet::generate(&model, 1000, 3, SimTime::ZERO, SimTime::from_secs(200.0)),
            medium: Medium::new(RadioConfig::paper()),
            peer: opt_gossip_peer(&params),
            msg: AdMessage::gossip(paper_ad(&params, SimDuration::from_secs(1800.0))),
            rng: SimRng::from_master(4),
            out: BroadcastOutcome::default(),
            sink: ActionSink::new(),
        };
        for src in 0..1000 {
            chain.broadcast_and_dispatch(SimTime::from_secs(100.0), src);
        }
        chain
    }

    /// One broadcast from `src` at `t`, each copy received at once.
    fn broadcast_and_dispatch(&mut self, t: SimTime, src: u32) -> usize {
        self.medium
            .broadcast_into(&self.fleet, t, src, 300, &mut self.rng, &mut self.out);
        for d in &self.out.deliveries {
            let meta = RxMeta {
                sender_pos: d.sender_pos,
                from: d.from,
                distance: d.distance,
            };
            let mut ctx = PeerContext {
                now: t,
                motion: &mut (d.sender_pos, Vector::new(-10.0, 0.0)),
            };
            self.peer
                .on_receive(&mut ctx, &self.msg, &meta, &mut self.sink);
            for action in self.sink.drain() {
                black_box(&action);
            }
        }
        black_box(self.out.deliveries.len())
    }

    /// One broadcast from `src` whose every copy is asked about when the
    /// frame is sent, as `World::broadcast` asks, with the context at its
    /// arrival instant (the receiver's fix and velocity there). Returns
    /// the copies and how many the peer applied.
    fn broadcast_and_apply(&mut self, src: u32) -> (usize, usize) {
        let t = SimTime::from_secs(100.0);
        self.medium
            .broadcast_into(&self.fleet, t, src, 300, &mut self.rng, &mut self.out);
        let mut applied = 0;
        for d in &self.out.deliveries {
            let meta = RxMeta {
                sender_pos: d.sender_pos,
                from: d.from,
                distance: d.distance,
            };
            let window = SimDuration::from_secs(1.0);
            let mut ctx = PeerContext {
                now: d.arrival,
                motion: &mut (
                    self.fleet.position(d.to, d.arrival),
                    self.fleet.estimated_velocity(d.to, d.arrival, window),
                ),
            };
            let fate = self.peer.on_copy_sent(&mut ctx, &self.msg, &meta, true);
            applied += usize::from(fate == CopyFate::Applied);
        }
        (self.out.deliveries.len(), applied)
    }
}

#[test]
fn radio_broadcast_into_dispatch() {
    let mut chain = RadioChain::warm();
    let (allocated, ()) = allocations_during(|| {
        for src in 0..1000 {
            chain.broadcast_and_dispatch(SimTime::from_secs(100.0), src);
        }
    });
    assert_eq!(
        allocated, 0,
        "broadcast_into -> dispatch allocated {allocated} times over 1000 broadcasts"
    );
}

/// The same chain with the grid rebuilt (resample from the leg table +
/// CSR counting sort) by the medium's own refresh rule: broadcasts at
/// instants 3.5 s apart, past its 3 s refresh, with 16 at each, at least
/// the `max(8, n/64)` = 15 queries a rebuild waits for, so the first
/// broadcast at each instant rebuilds. The instants lie past the end of
/// every node's plan, where each node rests at its last waypoint, so
/// every grid holds the same positions: one warm-up instant with every
/// source sizes every buffer, and then 16 rebuilds and 256 broadcasts
/// allocate nothing, since the index and the leg table rebuild in place.
#[test]
fn radio_rebuild_broadcast_dispatch() {
    let mut chain = RadioChain::warm();
    let fleet = &chain.fleet;
    let rest = (0..1000).map(|id| fleet.trajectory(id).end_time()).max();
    let rest = rest.expect("a fleet");
    let instant = |k: u32| rest + SimDuration::from_secs(1.0 + 3.5 * f64::from(k));
    for src in 0..1000 {
        chain.broadcast_and_dispatch(instant(0), src);
    }
    let rebuilds = chain.medium.grid_rebuilds();
    let (allocated, ()) = allocations_during(|| {
        for k in 1..=16 {
            for src in 0..16 {
                chain.broadcast_and_dispatch(instant(k), src * 61);
            }
        }
    });
    let rebuilt = chain.medium.grid_rebuilds() - rebuilds;
    assert_eq!(rebuilt, 16, "one rebuild per instant");
    assert_eq!(
        allocated, 0,
        "rebuild -> broadcast_into -> dispatch allocated {allocated} times over {rebuilt} rebuilds"
    );
}

/// A warm broadcast whose copies are applied when its frame is sent:
/// `broadcast_into`, then each copy's receiver asked with the context at
/// the copy's arrival instant. The chain's one peer holds the ad, its
/// wake-up queued at its first tick, after every arrival and no later
/// than its pending tick, so it applies every copy (absorb + postpone)
/// through a sink that stays empty, and nothing allocates.
#[test]
fn applied_copies_allocate_nothing() {
    let mut chain = RadioChain::warm();
    let (allocated, (copies, applied)) = allocations_during(|| {
        (0..1000).fold((0, 0), |(copies, applied), src| {
            let (c, a) = chain.broadcast_and_apply(src);
            (copies + c, applied + a)
        })
    });
    assert!(copies > 1000 && applied == copies, "{applied} of {copies}");
    assert_eq!(
        allocated, 0,
        "applying copies at send time allocated {allocated} times over 1000 broadcasts"
    );
}

/// The protocol callback hot path: a duplicate receipt (absorb +
/// postpone) pushed through a warm, reused [`ActionSink`].
#[test]
fn protocol_dispatch_sink_reuse() {
    let params = GossipParams::paper().shared();
    let mut peer = opt_gossip_peer(&params);
    let msg = AdMessage::gossip(paper_ad(&params, SimDuration::from_secs(1800.0)));
    let meta = RxMeta {
        sender_pos: Point::new(2550.0, 2500.0),
        from: 3,
        distance: 50.0,
    };
    let motion = (Point::new(2520.0, 2500.0), Vector::new(-10.0, 0.0));
    let mut sink = ActionSink::new();
    let mut event = |i: u64| {
        let mut ctx = PeerContext {
            now: SimTime::from_secs(10.0 + i as f64 * 1e-3),
            motion: &mut { motion },
        };
        peer.on_receive(&mut ctx, &msg, &meta, &mut sink);
        for action in sink.drain() {
            black_box(&action);
        }
    };

    // Prime the peer (the first receipt caches the ad, which allocates)
    // and warm the sink's capacity, exactly as the simulation world does.
    for i in 0..16 {
        event(i);
    }
    const EVENTS: u64 = 10_000;
    let (allocated, ()) = allocations_during(|| {
        for i in 0..EVENTS {
            event(16 + i);
        }
    });
    assert_eq!(
        allocated, 0,
        "sink hot path allocated {allocated} times over {EVENTS} events"
    );
}

/// The common Optimized Gossiping event: a due entry wake-up at an
/// interior peer, past the mechanism (1) warm-up, that loses its draw
/// (formula 3 gives ~1e-9 at the centre). Deciding not to forward must
/// not allocate: the ad is copied only to be sent.
#[test]
fn protocol_entry_tick_no_forward() {
    let params = GossipParams::paper().shared();
    let mut peer = opt_gossip_peer(&params);
    // Long-lived, so the measured ticks never reach expiry.
    let msg = AdMessage::gossip(paper_ad(&params, SimDuration::from_secs(1.0e9)));
    let centre = msg.ad.issue_pos;
    let mut sink = ActionSink::new();
    // Tick `k` runs at 20 s + k rounds and counts the broadcasts it
    // pushed. Tick 0 is the first receipt; it schedules the entry for
    // tick 1, and every tick after that finds the entry due.
    let mut tick = |k: u64| {
        let mut ctx = PeerContext {
            now: SimTime::from_secs(20.0 + 5.0 * k as f64),
            motion: &mut (centre, Vector::ZERO),
        };
        if k == 0 {
            let meta = RxMeta {
                sender_pos: centre,
                from: 3,
                distance: 0.0,
            };
            peer.on_receive(&mut ctx, &msg, &meta, &mut sink);
        } else {
            let wake = peer.on_entry_timer(&mut ctx, msg.ad.id, &mut sink);
            assert_eq!(wake, EntryWake::Fire, "tick {k} did not run");
        }
        sink.drain()
            .filter(|a| matches!(a, Action::Broadcast(_)))
            .count()
    };
    // Warm-up past the 40 s mechanism (1) warm-up age.
    for k in 0..10 {
        tick(k);
    }
    const TICKS: u64 = 256;
    let (allocated, broadcasts) =
        allocations_during(|| (10..10 + TICKS).map(&mut tick).sum::<usize>());
    assert_eq!(broadcasts, 0, "an interior entry tick forwarded");
    assert_eq!(
        allocated, 0,
        "non-forwarding entry tick allocated {allocated} times over {TICKS} ticks"
    );
}

/// How often each [`SimObserver`] hook fired, in fixed fields: the
/// observer does no work beyond the count and never allocates.
#[derive(Default)]
struct HookCounts {
    broadcast: u64,
    deliver: u64,
    accept: u64,
    suppress: u64,
    cache_evict: u64,
    round: u64,
    depart: u64,
    rejoin: u64,
}

impl SimObserver for HookCounts {
    fn on_broadcast(&mut self, _: SimTime, _: u32, _: &AdMessage, _: &BroadcastInfo) {
        self.broadcast += 1;
    }
    fn on_deliver(&mut self, _: SimTime, _: u32, _: &AdMessage, _: &RxMeta) {
        self.deliver += 1;
    }
    fn on_accept(&mut self, _: SimTime, _: u32, _: AdId) {
        self.accept += 1;
    }
    fn on_suppress(&mut self, _: SimTime, _: u32, _: &AdMessage, _: SuppressReason) {
        self.suppress += 1;
    }
    fn on_cache_evict(&mut self, _: SimTime, _: u32, _: AdId) {
        self.cache_evict += 1;
    }
    fn on_round(&mut self, _: SimTime, _: u32) {
        self.round += 1;
    }
    fn on_depart(&mut self, _: SimTime, _: u32) {
        self.depart += 1;
    }
    fn on_rejoin(&mut self, _: SimTime, _: u32) {
        self.rejoin += 1;
    }
}

/// The corruption verdict allocates nothing once its syndrome table has
/// grown to the longest frame: frames of several lengths (so the table is
/// rebuilt in place), each with 1..=`MAX_FLIPS` flips drawn into a stack
/// array as the world draws them, some repeated so that they cancel.
#[test]
fn corruption_verdict_allocates_nothing() {
    const MAX_FRAME: usize = 689;
    let mut rng = SimRng::from_master(5);
    let mut verdict = codec::FlipVerdict::new();
    verdict.passes(MAX_FRAME, &[0]);
    let mut verdicts = |rounds: usize| {
        let mut passed = 0;
        for round in 0..rounds {
            let frame_len = MAX_FRAME - rng.range_u64(0, 600) as usize;
            let mut bits = [0u64; MAX_FLIPS as usize];
            let n = 1 + rng.range_u64(0, MAX_FLIPS as u64) as usize;
            for bit in &mut bits[..n] {
                *bit = rng.range_u64(0, frame_len as u64 * 8);
            }
            // Every fourth set is a run of cancelling pairs.
            let flips = if round % 4 == 0 {
                let half = n.div_ceil(2).min(MAX_FLIPS as usize / 2);
                bits.copy_within(..half, half);
                &mut bits[..2 * half]
            } else {
                &mut bits[..n]
            };
            passed += verdict.passes(frame_len, black_box(flips)) as usize;
        }
        passed
    };
    let (allocs, passed) = allocations_during(|| verdicts(4096));
    assert_eq!(allocs, 0, "the corruption verdict allocated");
    assert_eq!(passed, 1024, "only the cancelling sets pass");
}

/// Observer fan-out allocates nothing: the same churned Gossip world,
/// run once with no observer and once with a passive one attached, makes
/// exactly as many allocations in `World::run`. Two ads and a one-slot
/// cache make peers evict, and churn makes them depart, rejoin and
/// suppress off-line receipts, so every hook fires.
#[test]
fn observer_fan_out_allocates_nothing() {
    let scenario = || {
        let mut s = Scenario::paper(ProtocolKind::Gossip, 40)
            .with_seed(11)
            .with_churn(ChurnSpec::new(
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
        s.with_life_cycle(SimDuration::from_secs(120.0))
    };

    let mut bare = World::new(scenario());
    let (bare_allocs, ()) = allocations_during(|| bare.run());

    let mut observed = World::new(scenario());
    observed.attach_observer(Box::<HookCounts>::default());
    let (observed_allocs, ()) = allocations_during(|| observed.run());

    let hooks = observed.observer::<HookCounts>().expect("attached");
    let fired = [
        ("broadcast", hooks.broadcast),
        ("deliver", hooks.deliver),
        ("accept", hooks.accept),
        ("suppress", hooks.suppress),
        ("cache_evict", hooks.cache_evict),
        ("round", hooks.round),
        ("depart", hooks.depart),
        ("rejoin", hooks.rejoin),
    ];
    for (hook, n) in fired {
        assert!(n > 0, "hook {hook} never fired");
    }
    assert_eq!(
        bare.medium().stats(),
        observed.medium().stats(),
        "the observer changed the run"
    );
    assert_eq!(
        observed_allocs, bare_allocs,
        "attaching a passive observer changed World::run's allocation count"
    );
}

/// One World-level cycle allocates nothing once warm: an issue, its
/// broadcast, queued copies delivered, copies applied when their frame
/// is sent (Optimized Gossiping) or skipped (Gossiping), forwarding
/// ticks and re-broadcasts. Two ads are issued at the centre of a small
/// field, each covering all of it, the second after the first has
/// expired and left every cache. The first ad's life sizes every
/// buffer: the scheduler's slab, the in-flight table, the medium's, the
/// sink, and each cache's one slot, which the second ad's admissions
/// reuse. The second ad's whole life then allocates nothing.
fn world_cycle_allocates_nothing(kind: ProtocolKind) {
    let first = AdSpec {
        issue_pos: Point::new(600.0, 600.0),
        issue_time: SimTime::from_secs(10.0),
        radius: 900.0,
        duration: SimDuration::from_secs(150.0),
        ..AdSpec::paper()
    };
    let second = AdSpec {
        issue_time: SimTime::from_secs(240.0),
        duration: SimDuration::from_secs(120.0),
        ..first.clone()
    };
    let mut s = Scenario::paper(kind, 60).with_seed(3);
    s.area = ia_geo::Rect::with_size(1200.0, 1200.0);
    s.ads = vec![first, second];
    s.sim_time = SimDuration::from_secs(360.0);
    let mut w = World::new(s);
    w.run_until(SimTime::from_secs(235.0));
    assert_eq!(
        w.holders(w.ad_ids()[0]),
        0,
        "{kind}: the first ad is still cached"
    );
    let (messages, deliveries, fired) = (
        w.medium().stats().messages,
        w.deliveries(),
        w.entry_wakeups().fired,
    );

    let (allocated, ()) = allocations_during(|| w.run());

    let d = w.deliveries();
    let outcomes = w.tracker().outcomes();
    assert!(outcomes[1].delivered > 50, "{kind}: {:?}", outcomes[1]);
    assert!(
        w.medium().stats().messages > messages + 1,
        "{kind}: no re-broadcast"
    );
    assert!(w.entry_wakeups().fired > fired, "{kind}: no tick");
    assert!(d.queued > deliveries.queued, "{kind}: {d:?}");
    let (applied, skipped) = (
        d.applied - deliveries.applied,
        d.skipped - deliveries.skipped,
    );
    match kind {
        ProtocolKind::OptGossip => assert!(applied > 0, "{kind}: {d:?}"),
        _ => assert!(skipped > 0, "{kind}: {d:?}"),
    }
    assert_eq!(
        allocated, 0,
        "{kind}: a warm World cycle allocated {allocated} times"
    );
}

#[test]
fn world_cycle_allocates_nothing_under_optimized_gossiping() {
    world_cycle_allocates_nothing(ProtocolKind::OptGossip);
}

#[test]
fn world_cycle_allocates_nothing_under_gossiping() {
    world_cycle_allocates_nothing(ProtocolKind::Gossip);
}

/// A Manhattan model draws its waypoints into a caller's buffer without
/// a heap allocation of its own: once the buffer has held a fleet's
/// longest plan, drawing the same fleet again allocates nothing.
#[test]
fn manhattan_waypoints_into_a_reused_buffer_allocates_nothing() {
    let model = Manhattan::paper(ia_geo::Rect::with_size(5000.0, 5000.0), 10.0, 5.0);
    let end = SimTime::from_secs(1800.0);
    let mut plan = Vec::new();
    let draw_fleet = |plan: &mut Vec<Waypoint>| {
        for node in 0..16 {
            let mut rng = SimRng::derive(1, ia_des::rng::stream::MOBILITY | node);
            plan.clear();
            model.waypoints_into(&mut rng, SimTime::ZERO, end, plan);
        }
    };
    draw_fleet(&mut plan);
    assert!(!plan.is_empty());
    let (allocated, ()) = allocations_during(|| draw_fleet(&mut plan));
    assert_eq!(allocated, 0, "Manhattan waypoints_into allocated");
}

/// A generated fleet keeps exactly its waypoints (one more than its legs
/// per node, 24 bytes each) and one offset per node plus the table's
/// end: no per-node vector, header or growth slack survives, and
/// appending an issuer keeps it exact. While it is built the table never
/// holds more than a few percent beyond its final size.
#[test]
fn a_generated_fleet_holds_exactly_its_waypoints_and_offsets() {
    assert_eq!(size_of::<Waypoint>(), 24);
    let model = RandomWaypoint::paper(ia_geo::Rect::with_size(5000.0, 5000.0), 10.0, 5.0);
    let end = SimTime::from_secs(1800.0);
    for (n, seed) in [(1, 1), (7, 2), (300, 3), (3000, 1)] {
        let (heap, mut fleet) =
            heap_during(|| Fleet::generate(&model, n, seed, SimTime::ZERO, end));
        let table = |fleet: &Fleet| {
            let legs: usize = fleet.iter().map(|(_, tr)| tr.legs().len()).sum();
            ((legs + fleet.len()) * size_of::<Waypoint>() + (fleet.len() + 1) * size_of::<u32>())
                as i64
        };
        assert_eq!(heap.live, table(&fleet), "{n} nodes");
        // A sixteenth over the table, and the one node's own buffer of
        // waypoints that is being copied in.
        assert!(
            heap.peak <= heap.live + heap.live / 16 + 2048,
            "{n} nodes: {heap:?}"
        );
        let issuer = || Trajectory::stationary(Point::new(2500.0, 2500.0), SimTime::ZERO, end);
        let (grown, ()) = heap_during(|| fleet.extend([issuer()]));
        assert_eq!(
            heap.live + grown.live,
            table(&fleet),
            "{n} nodes and an issuer"
        );
    }
}

/// `World::new` ends at its own peak: the fleet's and the tracker's
/// tables are cut to size before the peers, the scheduler and the
/// medium are built, so no transient of set-up outgrows the heap the
/// world keeps, and set-up never sets a run's peak heap.
#[test]
fn world_setup_peaks_at_the_heap_it_leaves() {
    for kind in [ProtocolKind::OptGossip, ProtocolKind::Gossip] {
        let scenario = Scenario::paper(kind, 300).with_seed(1);
        let (heap, world) = heap_during(|| World::new(scenario));
        assert!(heap.peak <= heap.live, "{kind:?}: {heap:?}");
        drop(world);
    }
}
