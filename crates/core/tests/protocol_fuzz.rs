//! Protocol fuzzing: drive every protocol through random event sequences
//! and check the action-stream invariants that the simulation world (or
//! a real radio stack) depends on:
//!
//! * no panics, ever, for any interleaving of receives/timers/issues;
//! * scheduled wake-ups always lie in the future (or now);
//! * broadcast advertisements are never expired at transmission time;
//! * `Accepted` fires at most once per (peer, ad);
//! * after an `Accepted`, the peer `holds` the ad (until expiry/eviction).

use ia_core::{
    build_protocol, Action, ActionSink, AdId, AdMessage, Advertisement, GossipParams, PeerContext,
    PeerId, ProtocolKind, RxMeta, UserProfile,
};
use ia_des::{SimDuration, SimRng, SimTime};
use ia_geo::{Point, Vector};
use proptest::prelude::*;
use std::collections::HashSet;
use std::sync::Arc;

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
    Round,
    EntryTimer {
        pool_idx: usize,
    },
    Issue {
        pool_idx: usize,
    },
    /// Advance time by this many milliseconds before the next op.
    Advance {
        millis: u64,
    },
    /// Teleport the peer (models GPS jumps / extreme mobility).
    Move {
        dx: f64,
        dy: f64,
    },
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
        Just(Op::Round),
        (0..pool).prop_map(|pool_idx| Op::EntryTimer { pool_idx }),
        (0..pool).prop_map(|pool_idx| Op::Issue { pool_idx }),
        (1u64..60_000).prop_map(|millis| Op::Advance { millis }),
        (-500.0..500.0f64, -500.0..500.0f64).prop_map(|(dx, dy)| Op::Move { dx, dy }),
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

fn check_actions(
    kind: ProtocolKind,
    now: SimTime,
    actions: &[Action],
    accepted: &mut HashSet<AdId>,
) {
    for a in actions {
        match a {
            Action::Broadcast(msg) => {
                assert!(
                    !msg.ad.expired(now),
                    "{kind}: broadcast an expired ad at {now}"
                );
                assert!(msg.bytes() > 0);
            }
            Action::ScheduleRound(at) => {
                assert!(*at >= now, "{kind}: round scheduled into the past");
            }
            Action::ScheduleEntry { at, .. } => {
                assert!(*at >= now, "{kind}: entry timer scheduled into the past");
            }
            Action::Accepted { ad } => {
                assert!(accepted.insert(*ad), "{kind}: duplicate Accepted for {ad}");
            }
            Action::CacheEvicted { .. } => {
                // Checked against `holds` by the caller, which owns the
                // protocol borrow.
            }
        }
    }
}

fn run_fuzz(kind: ProtocolKind, ops: &[Op], seed: u64) {
    let params = Arc::new(GossipParams::paper());
    let pool = ad_pool(&params);
    let mut protocol = build_protocol(kind, params, 250.0, UserProfile::new(seed, vec![0, 1]), 0);
    let mut rng = SimRng::from_master(seed);
    let mut now = SimTime::ZERO;
    let mut pos = Point::new(2500.0, 2500.0);
    let mut accepted: HashSet<AdId> = HashSet::new();
    // One sink for the whole run, drained between callbacks — the same
    // reuse discipline the simulation world applies.
    let mut sink = ActionSink::new();

    {
        let mut ctx = PeerContext {
            now,
            position: pos,
            rng: &mut rng,
            motion: &mut Vector::new(5.0, 0.0),
        };
        protocol.on_start(&mut ctx, &mut sink);
        check_actions(kind, now, sink.as_slice(), &mut accepted);
        sink.clear();
    }

    for op in ops {
        match op {
            Op::Advance { millis } => {
                now += SimDuration::from_millis(*millis);
                continue;
            }
            Op::Move { dx, dy } => {
                pos = Point::new(
                    (pos.x + dx).clamp(0.0, 5000.0),
                    (pos.y + dy).clamp(0.0, 5000.0),
                );
                continue;
            }
            _ => {}
        }
        let mut ctx = PeerContext {
            now,
            position: pos,
            rng: &mut rng,
            motion: &mut Vector::new(5.0, 1.0),
        };
        match op {
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
                let sender_pos = pos + Vector::new(*sender_dx, *sender_dy);
                let meta = RxMeta {
                    sender_pos,
                    from: 9,
                    distance: pos.distance(sender_pos),
                };
                protocol.on_receive(&mut ctx, &msg, &meta, &mut sink);
            }
            Op::Round => protocol.on_round(&mut ctx, &mut sink),
            Op::EntryTimer { pool_idx } => {
                protocol.on_entry_timer(&mut ctx, pool[*pool_idx].id, &mut sink)
            }
            Op::Issue { pool_idx } => {
                // Fresh ad owned by this peer, issued "now" so it is live.
                let params = GossipParams::paper();
                let ad = Advertisement::new(
                    AdId::new(PeerId(7), 1000 + *pool_idx as u32),
                    pos,
                    now,
                    500.0,
                    SimDuration::from_secs(300.0),
                    vec![0],
                    20,
                    &params,
                );
                // Issuing twice with the same id is a caller error; skip
                // duplicates like the world does.
                if protocol.holds(ad.id) {
                    continue;
                }
                protocol.issue(&mut ctx, ad, &mut sink);
            }
            Op::Advance { .. } | Op::Move { .. } => unreachable!(),
        };
        check_actions(kind, now, sink.as_slice(), &mut accepted);
        // Accepted implies holds for the gossip family (flooding tracks
        // receipt without storing a copy, so holds() is its receipt set);
        // CacheEvicted implies the peer no longer holds the evicted ad.
        for a in sink.as_slice() {
            match a {
                Action::Accepted { ad } => {
                    assert!(protocol.holds(*ad), "{kind}: accepted but not held");
                }
                Action::CacheEvicted { ad } => {
                    assert!(!protocol.holds(*ad), "{kind}: evicted but still held");
                }
                _ => {}
            }
        }
        sink.clear();
    }
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
