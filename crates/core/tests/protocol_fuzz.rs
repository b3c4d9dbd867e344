//! Protocol fuzzing: drive every protocol through random event sequences
//! and check the action-stream invariants that the simulation world (or
//! a real radio stack) depends on:
//!
//! * no panics, ever, for any interleaving of receives, ticks, issues and
//!   restarts;
//! * scheduled wake-ups always lie in the future (or now);
//! * broadcast advertisements are never expired at transmission time;
//! * `Accepted` fires at most once per (peer, ad);
//! * after an `Accepted`, the peer `holds` the ad (until expiry/eviction);
//! * each entry has at most one queued wake-up that does anything: only
//!   the wake-up queued last for an ad ever fires or re-arms.
//!
//! The harness stands in for the world's scheduler. It queues every
//! wake-up a protocol asks for and, as time advances, pops the due ones
//! in (time, ad) order straight into `on_entry_timer`. A dropped wake-up
//! must push nothing, and a re-armed one exactly its own later wake-up.

use ia_core::{
    build_protocol, Action, ActionSink, AdId, AdMessage, Advertisement, EntryWake, GossipParams,
    PeerContext, PeerId, Protocol, ProtocolKind, RxMeta, UserProfile,
};
use ia_des::{SimDuration, SimTime};
use ia_geo::{Point, Vector};
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::{HashMap, HashSet};

/// One fuzz step.
#[derive(Debug, Clone)]
enum Op {
    /// Receive ad `pool_idx` (flooded when `wave` is Some) from a sender
    /// at the given offset.
    Receive {
        pool_idx: usize,
        wave: Option<u32>,
        sender_dx: f64,
        sender_dy: f64,
    },
    Issue {
        pool_idx: usize,
    },
    /// Advance time by this many milliseconds, running the ticks due.
    Advance {
        millis: u64,
    },
    /// Teleport the peer (models GPS jumps / extreme mobility).
    Move {
        dx: f64,
        dy: f64,
    },
    /// The device switches off and on again at once: `on_start` with a
    /// warm cache, while earlier wake-ups are still queued.
    Restart,
}

fn arb_op(pool: usize) -> impl Strategy<Value = Op> {
    prop_oneof![
        (
            0..pool,
            proptest::option::of(0u32..50),
            -200.0..200.0f64,
            -200.0..200.0f64
        )
            .prop_map(|(pool_idx, wave, sender_dx, sender_dy)| Op::Receive {
                pool_idx,
                wave,
                sender_dx,
                sender_dy,
            }),
        (0..pool).prop_map(|pool_idx| Op::Issue { pool_idx }),
        (1u64..60_000).prop_map(|millis| Op::Advance { millis }),
        (-500.0..500.0f64, -500.0..500.0f64).prop_map(|(dx, dy)| Op::Move { dx, dy }),
        Just(Op::Restart),
    ]
}

fn ad_pool(params: &GossipParams) -> Vec<Advertisement> {
    (0..4u32)
        .map(|i| {
            Advertisement::new(
                AdId::new(PeerId(100 + i), i),
                Point::new(2000.0 + 300.0 * i as f64, 2500.0),
                SimTime::from_secs(5.0 + i as f64),
                800.0 + 100.0 * i as f64,
                SimDuration::from_secs(120.0 + 60.0 * i as f64),
                vec![i % 3],
                50,
                params,
            )
        })
        .collect()
}

/// A queued wake-up; `seq` counts pushes over the run.
struct Wake {
    at: SimTime,
    ad: AdId,
    seq: u64,
}

/// One peer, its clock and position, and the queue standing in for the
/// world's scheduler.
struct Harness {
    kind: ProtocolKind,
    protocol: Box<dyn Protocol>,
    now: SimTime,
    pos: Point,
    accepted: HashSet<AdId>,
    /// One sink for the whole run, drained between callbacks — the same
    /// reuse discipline the simulation world applies.
    sink: ActionSink,
    pending: Vec<Wake>,
    pushes: u64,
    /// The `seq` of the wake-up queued last for each ad.
    latest: HashMap<AdId, u64>,
}

impl Harness {
    fn queue(&mut self, ad: AdId, at: SimTime) {
        assert!(
            at >= self.now,
            "{}: wake-up queued into the past",
            self.kind
        );
        self.pushes += 1;
        self.latest.insert(ad, self.pushes);
        self.pending.push(Wake {
            at,
            ad,
            seq: self.pushes,
        });
    }

    /// Run one callback at the current instant, check what it pushed and
    /// queue its wake-ups; return its result and its actions.
    fn call<R>(
        &mut self,
        f: impl FnOnce(&mut dyn Protocol, &mut PeerContext<'_>, &mut ActionSink) -> R,
    ) -> (R, Vec<Action>) {
        let mut ctx = PeerContext {
            now: self.now,
            motion: &mut (self.pos, Vector::new(5.0, 1.0)),
        };
        let result = f(self.protocol.as_mut(), &mut ctx, &mut self.sink);
        let (kind, now) = (self.kind, self.now);
        let actions: Vec<Action> = self.sink.drain().collect();
        let mut wakes = Vec::new();
        for a in &actions {
            match a {
                Action::Broadcast(msg) => {
                    assert!(
                        !msg.ad.expired(now),
                        "{kind}: broadcast an expired ad at {now}"
                    );
                    assert!(msg.bytes() > 0);
                }
                Action::ScheduleEntry { ad, at } => wakes.push((*ad, *at)),
                Action::Accepted { ad } => {
                    assert!(
                        self.accepted.insert(*ad),
                        "{kind}: duplicate Accepted for {ad}"
                    );
                    // Accepted implies holds for the gossip family
                    // (flooding tracks receipt without storing a copy, so
                    // holds() is its receipt set).
                    assert!(self.protocol.holds(*ad), "{kind}: accepted but not held");
                }
                Action::CacheEvicted { ad } => {
                    assert!(!self.protocol.holds(*ad), "{kind}: evicted but still held");
                }
            }
        }
        for (ad, at) in wakes {
            self.queue(ad, at);
        }
        (result, actions)
    }

    /// Pop and run every wake-up due by `until`, then move the clock
    /// there. Wake-ups of one ad at one instant are interchangeable (the
    /// world's equal ranks), so the one queued last pops first.
    fn advance_to(&mut self, until: SimTime) {
        while let Some(i) = (0..self.pending.len())
            .filter(|&i| self.pending[i].at <= until)
            .min_by_key(|&i| {
                let w = &self.pending[i];
                (w.at, w.ad, Reverse(w.seq))
            })
        {
            let w = self.pending.swap_remove(i);
            self.now = w.at;
            let latest = self.latest.get(&w.ad).copied();
            let (wake, actions) = self.call(|p, c, o| p.on_entry_timer(c, w.ad, o));
            let kind = self.kind;
            if wake != EntryWake::Drop {
                assert_eq!(
                    Some(w.seq),
                    latest,
                    "{kind}: a superseded wake-up of {} acted at {}",
                    w.ad,
                    w.at
                );
            }
            match wake {
                EntryWake::Drop => {
                    assert!(
                        actions.is_empty(),
                        "{kind}: a dropped wake-up pushed {actions:?}"
                    );
                }
                EntryWake::Rearm => match actions[..] {
                    [Action::ScheduleEntry { ad, at }] if ad == w.ad && at > w.at => {}
                    _ => panic!("{kind}: a wake-up at {} re-armed with {actions:?}", w.at),
                },
                EntryWake::Fire => {}
            }
        }
        self.now = self.now.max(until);
    }
}

fn run_fuzz(kind: ProtocolKind, ops: &[Op], seed: u64) {
    let params = GossipParams::paper().shared();
    let pool = ad_pool(&params);
    let mut h = Harness {
        kind,
        protocol: build_protocol(
            kind,
            params,
            250.0,
            UserProfile::new(seed, vec![0, 1]),
            seed,
        ),
        now: SimTime::ZERO,
        pos: Point::new(2500.0, 2500.0),
        accepted: HashSet::new(),
        sink: ActionSink::new(),
        pending: Vec::new(),
        pushes: 0,
        latest: HashMap::new(),
    };
    h.call(|p, c, o| p.on_start(c, o));

    for op in ops {
        match op {
            Op::Advance { millis } => {
                let until = h.now + SimDuration::from_millis(*millis);
                h.advance_to(until);
            }
            Op::Move { dx, dy } => {
                h.pos = Point::new(
                    (h.pos.x + dx).clamp(0.0, 5000.0),
                    (h.pos.y + dy).clamp(0.0, 5000.0),
                );
            }
            Op::Receive {
                pool_idx,
                wave,
                sender_dx,
                sender_dy,
            } => {
                let ad = pool[*pool_idx].clone();
                let msg = match wave {
                    Some(w) => AdMessage::flood(ad, *w, 1000.0),
                    None => AdMessage::gossip(ad),
                };
                let sender_pos = h.pos + Vector::new(*sender_dx, *sender_dy);
                let meta = RxMeta {
                    sender_pos,
                    from: 9,
                    distance: h.pos.distance(sender_pos),
                };
                h.call(|p, c, o| p.on_receive(c, &msg, &meta, o));
            }
            Op::Issue { pool_idx } => {
                // Fresh ad owned by this peer, issued "now" so it is live.
                let ad = Advertisement::new(
                    AdId::new(PeerId(7), 1000 + *pool_idx as u32),
                    h.pos,
                    h.now,
                    500.0,
                    SimDuration::from_secs(300.0),
                    vec![0],
                    20,
                    &GossipParams::paper(),
                );
                // Issuing twice with the same id is a caller error; skip
                // duplicates like the world does.
                if !h.protocol.holds(ad.id) {
                    h.call(|p, c, o| p.issue(c, ad, o));
                }
            }
            Op::Restart => {
                h.call(|p, c, o| p.on_start(c, o));
            }
        }
        // Wake-ups queued for now run before the next event, as ranked
        // wake-ups do in the world.
        h.advance_to(h.now);
    }
    // Every ad expires, so the queue drains.
    h.advance_to(SimTime::MAX);
    assert!(h.pending.is_empty());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn flooding_survives_random_event_sequences(
        ops in proptest::collection::vec(arb_op(4), 0..120),
        seed in any::<u64>(),
    ) {
        run_fuzz(ProtocolKind::Flooding, &ops, seed);
    }

    #[test]
    fn gossip_survives_random_event_sequences(
        ops in proptest::collection::vec(arb_op(4), 0..120),
        seed in any::<u64>(),
    ) {
        run_fuzz(ProtocolKind::Gossip, &ops, seed);
    }

    #[test]
    fn opt1_survives_random_event_sequences(
        ops in proptest::collection::vec(arb_op(4), 0..120),
        seed in any::<u64>(),
    ) {
        run_fuzz(ProtocolKind::OptGossip1, &ops, seed);
    }

    #[test]
    fn opt2_survives_random_event_sequences(
        ops in proptest::collection::vec(arb_op(4), 0..120),
        seed in any::<u64>(),
    ) {
        run_fuzz(ProtocolKind::OptGossip2, &ops, seed);
    }

    #[test]
    fn optimized_survives_random_event_sequences(
        ops in proptest::collection::vec(arb_op(4), 0..120),
        seed in any::<u64>(),
    ) {
        run_fuzz(ProtocolKind::OptGossip, &ops, seed);
    }
}
