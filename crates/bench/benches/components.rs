//! Component microbenchmarks: the hot paths of every substrate.
//!
//! This binary also *proves* the event-sink contract: every allocation
//! goes through the counting global allocator below, and
//! `bench_sink_dispatch` asserts that the protocol callback hot path —
//! a duplicate receipt pushed through a warm, reused [`ActionSink`] —
//! performs zero allocations per event. The companion `vec_collect`
//! benchmark measures the old return-a-`Vec<Action>` shape for
//! comparison.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use ia_core::{
    build_protocol, postpone, prob, ActionSink, AdId, AdMessage, Advertisement, GossipParams,
    PeerContext, PeerId, ProtocolKind, RxMeta, UserProfile,
};
use ia_des::{EventQueue, SimDuration, SimRng, SimTime};
use ia_geo::{Circle, FlatGrid, Point, Vector};
use ia_mobility::{Fleet, MobilityModel, RandomWaypoint};
use ia_radio::{BroadcastOutcome, Medium, RadioConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// System allocator wrapper that counts every allocation, so benchmarks
/// can assert allocation-freedom rather than eyeball it.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("des_event_queue_push_pop_10k", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            let mut x: u64 = 0x9E3779B97F4A7C15;
            for i in 0..10_000u64 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                q.push(SimTime::from_micros(x % 1_000_000), i);
            }
            let mut n = 0;
            while q.pop().is_some() {
                n += 1;
            }
            n
        })
    });
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
/// which the zero-alloc proof below relies on.
const CHURN_BLOCK: u64 = 1 << 36;

fn bench_queue_churn(c: &mut Criterion) {
    fn churn_wheel(q: &mut EventQueue<usize>, start: u64) -> u64 {
        for peer in 0..CHURN_PEERS {
            q.push(SimTime::from_micros(start + 1_000 + 37 * peer as u64), peer);
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
            q.push(SimTime::from_micros(t2), peer);
            if round % 5 == 0 {
                if let Some((t, _)) = q.pop() {
                    now = t.as_micros();
                    delivered += 1;
                }
            }
        }
        while q.pop().is_some() {
            delivered += 1;
        }
        delivered
    }

    // Zero-alloc proof: a warm wheel's schedule/pop churn must not
    // touch the allocator. The first passes size the slab arena, the due
    // batch, and the slot chains; later block-aligned passes are
    // structurally identical and must recycle every one of them.
    let mut q: EventQueue<usize> = EventQueue::new();
    let mut pass = 1u64;
    let mut warm_delivered = 0;
    for _ in 0..2 {
        warm_delivered = black_box(churn_wheel(&mut q, pass * CHURN_BLOCK));
        pass += 1;
    }
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let delivered = churn_wheel(&mut q, pass * CHURN_BLOCK);
    pass += 1;
    let allocated = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(
        allocated, 0,
        "wheel schedule/pop churn allocated {allocated} times over {CHURN_ROUNDS} rounds"
    );
    // Every pass replays the same PRNG sequence, so the delivery count
    // must be identical pass to pass.
    assert_eq!(delivered, warm_delivered);
    println!("des_queue_churn_wheel: 0 allocations over {CHURN_ROUNDS} postpone rounds (verified)");

    c.bench_function("des_queue_churn_wheel", |b| {
        b.iter(|| {
            let delivered = black_box(churn_wheel(&mut q, pass * CHURN_BLOCK));
            pass += 1;
            delivered
        })
    });
}

fn bench_grid(c: &mut Criterion) {
    let mut rng = SimRng::from_master(1);
    // CSR index over 1000 points: queries hit id-sorted packed runs (no
    // per-query sort), rebuilds are two counting-sort passes into
    // recycled buffers.
    let positions: Vec<Point> = (0..1000)
        .map(|_| Point::new(rng.range_f64(0.0, 5000.0), rng.range_f64(0.0, 5000.0)))
        .collect();
    let mut flat = FlatGrid::new();
    flat.rebuild(250.0, &positions);
    c.bench_function("geo_flat_grid_disk_query_1000pts", |b| {
        let mut out = Vec::new();
        b.iter(|| {
            flat.query_disk_into(black_box(Point::new(2500.0, 2500.0)), 250.0, &mut out);
            out.len()
        })
    });
    c.bench_function("geo_flat_grid_rebuild_1000pts", |b| {
        b.iter(|| {
            flat.rebuild(250.0, black_box(&positions));
            flat.len()
        })
    });

    // grid_rebuild_query: steady-state rebuild + query cycles through a
    // warm FlatGrid must not touch the allocator at all.
    let mut out = Vec::with_capacity(1024);
    for _ in 0..4 {
        flat.rebuild(250.0, &positions);
        for q in 0..64 {
            let p = Point::new(78.125 * q as f64, 5000.0 - 78.125 * q as f64);
            flat.query_disk_into(p, 250.0, &mut out);
            black_box(out.len());
        }
    }
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    flat.rebuild(250.0, &positions);
    for q in 0..64 {
        let p = Point::new(78.125 * q as f64, 5000.0 - 78.125 * q as f64);
        flat.query_disk_into(p, 250.0, &mut out);
        black_box(out.len());
    }
    let allocated = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(
        allocated, 0,
        "grid_rebuild_query allocated {allocated} times (rebuild + 64 queries)"
    );
    println!("grid_rebuild_query: 0 allocations over rebuild + 64 queries (verified)");
}

fn bench_lens(c: &mut Criterion) {
    let a = Circle::new(Point::ORIGIN, 250.0);
    c.bench_function("geo_lens_overlap_fraction", |b| {
        let mut d = 0.0f64;
        b.iter(|| {
            d = (d + 7.3) % 250.0;
            a.overlap_fraction(&Circle::new(Point::new(black_box(d), 0.0), 250.0))
        })
    });
}

fn bench_mobility(c: &mut Criterion) {
    let model = RandomWaypoint::paper(ia_geo::Rect::with_size(5000.0, 5000.0), 10.0, 5.0);
    c.bench_function("mobility_rwp_generate_2000s", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            let mut rng = SimRng::from_master(seed);
            model.trajectory(&mut rng, SimTime::ZERO, SimTime::from_secs(2000.0))
        })
    });
    let mut rng = SimRng::from_master(9);
    let tr = model.trajectory(&mut rng, SimTime::ZERO, SimTime::from_secs(2000.0));
    c.bench_function("mobility_position_lookup", |b| {
        let mut t = 0.0f64;
        b.iter(|| {
            t = (t + 13.7) % 2000.0;
            tr.position_at(SimTime::from_secs(black_box(t)))
        })
    });
}

fn bench_radio(c: &mut Criterion) {
    let model = RandomWaypoint::paper(ia_geo::Rect::with_size(5000.0, 5000.0), 10.0, 5.0);
    let fleet = Fleet::generate(&model, 1000, 3, SimTime::ZERO, SimTime::from_secs(200.0));
    c.bench_function("radio_broadcast_1000_nodes", |b| {
        let mut medium = Medium::new(RadioConfig::paper());
        let mut rng = SimRng::from_master(4);
        let mut out = BroadcastOutcome::default();
        let t = SimTime::from_secs(100.0);
        let mut src = 0u32;
        b.iter(|| {
            src = (src + 1) % 1000;
            medium.broadcast_into(&fleet, t, src, 300, &mut rng, &mut out);
            out.deliveries.len()
        })
    });

    // The zero-alloc proof for the broadcast → protocol-dispatch chain:
    // `broadcast_into` through a recycled outcome buffer, every resulting
    // delivery fed into a warm protocol `on_receive` through a reused
    // sink. The paper radio has no contention, so nothing in the steady
    // state may allocate — grid rebuilds *included* (the CSR index and
    // the position snapshot rebuild into recycled buffers; a second
    // assertion below forces a rebuild before every broadcast).
    let params = Arc::new(GossipParams::paper());
    let mut peer = build_protocol(
        ProtocolKind::OptGossip,
        Arc::clone(&params),
        UserProfile::indifferent(1),
    );
    let msg = AdMessage::gossip(paper_ad(&params, SimDuration::from_secs(1800.0)));
    let mut medium = Medium::new(RadioConfig::paper());
    let mut rng = SimRng::from_master(4);
    let mut out = BroadcastOutcome::default();
    let mut sink = ActionSink::new();
    let t = SimTime::from_secs(100.0);
    let chain = |medium: &mut Medium,
                 peer: &mut dyn ia_core::Protocol,
                 out: &mut BroadcastOutcome,
                 sink: &mut ActionSink,
                 rng: &mut SimRng,
                 src: u32| {
        medium.broadcast_into(&fleet, t, src, 300, rng, out);
        for d in &out.deliveries {
            let meta = RxMeta {
                sender_pos: d.sender_pos,
                from: d.from,
                distance: d.distance,
            };
            let mut ctx = PeerContext {
                now: t,
                position: d.sender_pos,
                rng,
                velocity_source: &mut Vector::new(-10.0, 0.0),
            };
            peer.on_receive(&mut ctx, &msg, &meta, sink);
            for action in sink.drain() {
                black_box(&action);
            }
        }
        black_box(out.deliveries.len())
    };
    // Warm-up: a full pass over every source sizes the grid, the leg
    // cursors, the scratch/outcome buffers, and the peer's ad cache.
    for src in 0..1000 {
        chain(
            &mut medium,
            peer.as_mut(),
            &mut out,
            &mut sink,
            &mut rng,
            src,
        );
    }
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for src in 0..1000 {
        chain(
            &mut medium,
            peer.as_mut(),
            &mut out,
            &mut sink,
            &mut rng,
            src,
        );
    }
    let allocated = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(
        allocated, 0,
        "broadcast_into -> dispatch allocated {allocated} times over 1000 broadcasts"
    );
    println!("radio_broadcast_into_dispatch: 0 allocations over 1000 broadcasts (verified)");

    // Same chain with a forced grid rebuild (snapshot resample + CSR
    // counting sort) before every broadcast: still zero allocations.
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for src in 0..256 {
        medium.invalidate_grid();
        chain(
            &mut medium,
            peer.as_mut(),
            &mut out,
            &mut sink,
            &mut rng,
            src,
        );
    }
    let allocated = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(
        allocated, 0,
        "rebuild -> broadcast_into -> dispatch allocated {allocated} times over 256 rebuilds"
    );
    println!("radio_rebuild_broadcast_dispatch: 0 allocations over 256 forced rebuilds (verified)");

    c.bench_function("radio_broadcast_into_dispatch_1000_nodes", |b| {
        let mut src = 0u32;
        b.iter(|| {
            src = (src + 1) % 1000;
            chain(
                &mut medium,
                peer.as_mut(),
                &mut out,
                &mut sink,
                &mut rng,
                src,
            )
        })
    });
}

fn bench_formulas(c: &mut Criterion) {
    let mut group = c.benchmark_group("core_formulas");
    {
        let alpha = 0.5f64;
        group.bench_with_input(BenchmarkId::new("formula1", alpha), &alpha, |b, &a| {
            let mut d = 0.0;
            b.iter(|| {
                d = (d + 17.0) % 2000.0;
                prob::forwarding_probability(a, black_box(d), 1000.0, 100.0, 25.0)
            })
        });
        group.bench_with_input(BenchmarkId::new("formula3", alpha), &alpha, |b, &a| {
            let mut d = 0.0;
            b.iter(|| {
                d = (d + 17.0) % 2000.0;
                prob::annular_probability(a, black_box(d), 1000.0, 250.0, 100.0, 25.0, 25.0)
            })
        });
    }

    group.bench_function("formula2_radius", |b| {
        let mut t = 0.0;
        b.iter(|| {
            t = (t + 3.0) % 1800.0;
            prob::radius_at(
                0.5,
                1000.0,
                SimDuration::from_secs(black_box(t)),
                SimDuration::from_secs(1800.0),
                SimDuration::from_secs(5.0),
            )
        })
    });
    group.bench_function("formula4_postponement", |b| {
        let mut d = 0.0;
        b.iter(|| {
            d = (d + 3.0) % 250.0;
            postpone::postponement(
                SimDuration::from_secs(5.0),
                Point::ORIGIN,
                Vector::new(10.0, 3.0),
                Point::new(black_box(d), 10.0),
                250.0,
            )
        })
    });
    group.finish();
}

fn bench_sink_dispatch(c: &mut Criterion) {
    let params = Arc::new(GossipParams::paper());
    let mut peer = build_protocol(
        ProtocolKind::OptGossip,
        Arc::clone(&params),
        UserProfile::indifferent(1),
    );
    let mut rng = SimRng::from_master(5);
    let msg = AdMessage::gossip(paper_ad(&params, SimDuration::from_secs(1800.0)));
    let meta = RxMeta {
        sender_pos: Point::new(2550.0, 2500.0),
        from: 3,
        distance: 50.0,
    };
    let position = Point::new(2520.0, 2500.0);
    let velocity = Vector::new(-10.0, 0.0);

    // Prime the peer (first receipt caches the ad — that one allocates)
    // and warm the sink's capacity, exactly as the simulation world does.
    let mut sink = ActionSink::new();
    let event =
        |peer: &mut dyn ia_core::Protocol, rng: &mut SimRng, sink: &mut ActionSink, i: u64| {
            let mut ctx = PeerContext {
                now: SimTime::from_secs(10.0 + i as f64 * 1e-3),
                position,
                rng,
                velocity_source: &mut { velocity },
            };
            // Duplicate receipt: the per-event hot path (absorb + postpone).
            peer.on_receive(&mut ctx, &msg, &meta, sink);
            for action in sink.drain() {
                black_box(&action);
            }
        };
    for i in 0..16 {
        event(peer.as_mut(), &mut rng, &mut sink, i);
    }

    // The proof: N further events through the warm sink, zero allocations.
    const EVENTS: u64 = 10_000;
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for i in 0..EVENTS {
        event(peer.as_mut(), &mut rng, &mut sink, 16 + i);
    }
    let allocated = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(
        allocated, 0,
        "sink hot path allocated {allocated} times over {EVENTS} events"
    );
    println!("protocol_dispatch_sink_reuse: 0 allocations over {EVENTS} events (verified)");

    let mut n = 16 + EVENTS;
    c.bench_function("protocol_dispatch_sink_reuse", |b| {
        b.iter(|| {
            n += 1;
            event(peer.as_mut(), &mut rng, &mut sink, n);
        })
    });
    // The pre-refactor API shape: every callback returns a fresh
    // Vec<Action>. One allocation per non-empty event, for comparison.
    c.bench_function("protocol_dispatch_vec_collect", |b| {
        b.iter(|| {
            n += 1;
            let mut ctx = PeerContext {
                now: SimTime::from_secs(10.0 + n as f64 * 1e-3),
                position,
                rng: &mut rng,
                velocity_source: &mut { velocity },
            };
            let actions = ActionSink::collect(|out| peer.on_receive(&mut ctx, &msg, &meta, out));
            black_box(actions.len())
        })
    });
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

/// The common Optimized Gossiping event: a due entry wake-up at an
/// interior peer, past the mechanism (1) warm-up, that loses its draw
/// (formula 3 gives ~1e-9 at the centre). Deciding not to forward must
/// not allocate: the ad is copied only to be sent.
fn bench_entry_tick(c: &mut Criterion) {
    let params = Arc::new(GossipParams::paper());
    let mut peer = build_protocol(
        ProtocolKind::OptGossip,
        Arc::clone(&params),
        UserProfile::indifferent(1),
    );
    // Long-lived, so the timed loop below never reaches expiry.
    let msg = AdMessage::gossip(paper_ad(&params, SimDuration::from_secs(1.0e9)));
    let centre = msg.ad.issue_pos;
    let mut rng = SimRng::from_master(6);
    let mut sink = ActionSink::new();
    // Tick `k` runs at 20 s + k rounds and counts the broadcasts it
    // pushed. Tick 0 is the first receipt; it schedules the entry for
    // tick 1, and every tick after that finds the entry due.
    let tick = |peer: &mut dyn ia_core::Protocol, rng: &mut SimRng, sink: &mut ActionSink, k| {
        let mut ctx = PeerContext {
            now: SimTime::from_secs(20.0 + 5.0 * k as f64),
            position: centre,
            rng,
            velocity_source: &mut Vector::new(0.0, 0.0),
        };
        if k == 0 {
            let meta = RxMeta {
                sender_pos: centre,
                from: 3,
                distance: 0.0,
            };
            peer.on_receive(&mut ctx, &msg, &meta, sink);
        } else {
            peer.on_entry_timer(&mut ctx, msg.ad.id, sink);
        }
        let broadcasts = sink
            .drain()
            .filter(|a| matches!(a, ia_core::Action::Broadcast(_)));
        broadcasts.count()
    };
    // Warm-up past the 40 s mechanism (1) warm-up age.
    for k in 0..10 {
        tick(peer.as_mut(), &mut rng, &mut sink, k);
    }
    const TICKS: u64 = 256;
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let broadcasts: usize = (10..10 + TICKS)
        .map(|k| tick(peer.as_mut(), &mut rng, &mut sink, k))
        .sum();
    let allocated = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(broadcasts, 0, "an interior entry tick forwarded");
    assert_eq!(
        allocated, 0,
        "non-forwarding entry tick allocated {allocated} times over {TICKS} ticks"
    );
    println!("protocol_entry_tick_no_forward: 0 allocations over {TICKS} ticks (verified)");

    let mut k = 10 + TICKS;
    c.bench_function("protocol_entry_tick_no_forward", |b| {
        b.iter(|| {
            k += 1;
            tick(peer.as_mut(), &mut rng, &mut sink, k)
        })
    });
}

criterion_group!(
    benches,
    bench_sink_dispatch,
    bench_entry_tick,
    bench_event_queue,
    bench_queue_churn,
    bench_grid,
    bench_lens,
    bench_mobility,
    bench_radio,
    bench_formulas
);
criterion_main!(benches);
