//! Driving the protocol state machines directly — no simulator.
//!
//! `ia-core`'s protocols are plain state machines: you feed them receive
//! events and timer wake-ups with an explicit [`PeerContext`], and they
//! answer by pushing [`Action`]s into an [`ActionSink`]. The context asks
//! its motion for the position and velocity only when the protocol needs
//! them. Every protocol has one kind of timer, a wake-up per cache entry
//! (or, for a flooding issuer, per issued ad): the five protocols differ
//! only in when an entry's next tick falls, and each wake-up that pops
//! is one `on_entry_timer` call that says what it did ([`EntryWake`]). This example walks one Optimized Gossiping
//! peer through the interesting transitions by hand, printing what the
//! protocol decides at each step — useful both as API documentation and
//! as a debugging harness when porting the protocol to real radios.
//!
//! Run with: `cargo run --release --example protocol_internals`

use instant_ads::core::protocol::Gossip;
use instant_ads::core::{
    Action, ActionSink, AdId, AdMessage, Advertisement, EntryWake, GossipParams, PeerContext,
    PeerId, Protocol, ProtocolKind, RxMeta, UserProfile,
};
use instant_ads::des::{SimDuration, SimTime};
use instant_ads::geo::{Point, Vector};
use instant_ads::radio::RadioConfig;
use std::sync::Arc;

fn show(step: &str, sink: &mut ActionSink) {
    println!("{step}:");
    let actions: Vec<Action> = sink.drain().collect();
    if actions.is_empty() {
        println!("    (no actions)");
    }
    for a in &actions {
        match a {
            Action::Broadcast(m) => println!(
                "    broadcast {} ({} bytes, rank {})",
                m.ad.id,
                m.bytes(),
                m.ad.sketches.rank()
            ),
            Action::ScheduleEntry { ad, at } => {
                println!("    schedule entry timer for {ad} at {at}")
            }
            Action::Accepted { ad } => println!("    accepted {ad} (first receipt)"),
            Action::CacheEvicted { ad } => println!("    evicted {ad} from the cache"),
        }
    }
    println!();
}

fn main() {
    let params = GossipParams::paper().shared();
    // This peer is interested in topic 1 — it will rank the ad up. One
    // constructor builds every gossip variant from its `ProtocolKind`.
    let mut peer = Gossip::new(
        ProtocolKind::OptGossip,
        Arc::clone(&params),
        RadioConfig::paper().range,
        UserProfile::new(4242, vec![1]),
        0,
    );

    let ad = Advertisement::new(
        AdId::new(PeerId(7), 0),
        Point::new(2500.0, 2500.0),
        SimTime::from_secs(100.0),
        1000.0,
        SimDuration::from_secs(1800.0),
        vec![1],
        200,
        &params,
    );
    println!(
        "advertisement: {} issued at {} (R = {:.0} m, D = {:.0} s)\n",
        ad.id,
        ad.issue_pos,
        ad.radius,
        ad.duration.as_secs()
    );

    // The peer sits 600 m from the issuing location, heading towards it.
    // A fixed (position, velocity) pair is a `Motion` that reports both
    // when asked and predicts no position, so every entry tick runs; the
    // simulator reads both from the trajectory instead, and lets the
    // protocol decide ticks ahead from future positions.
    let mut me = (Point::new(3100.0, 2500.0), Vector::new(-10.0, 0.0));
    fn ctx_at(now: f64, motion: &mut (Point, Vector)) -> PeerContext<'_> {
        PeerContext {
            now: SimTime::from_secs(now),
            motion,
        }
    }

    // 1. Coming online with an empty cache: there is nothing to tick, so
    //    nothing is queued. (A Gossiping peer would also fix its round
    //    grid's phase here; Optimized Gossiping gives each entry its own
    //    grid.)
    let mut sink = ActionSink::new();
    peer.on_start(&mut ctx_at(100.0, &mut me), &mut sink);
    show("on_start (600 m inside the area)", &mut sink);

    // 2. First receipt: accept, rank (topic matches), queue the entry's
    //    first tick one round out. (With a motion that can predict
    //    positions, the peer would skip ahead to the first tick whose
    //    keyed coin fires.)
    let msg = AdMessage::gossip(ad.clone());
    let meta = RxMeta {
        sender_pos: Point::new(3150.0, 2500.0),
        from: 3,
        distance: 50.0,
    };
    peer.on_receive(&mut ctx_at(105.0, &mut me), &msg, &meta, &mut sink);
    show("on_receive (new ad from a neighbour 50 m away)", &mut sink);

    // 3. Overhearing a duplicate from a *very close* neighbour: formula 4
    //    postpones this entry's next gossip (the closer and the more
    //    head-on, the longer). The wake-up already queued for 110 s comes
    //    first, so nothing new is queued.
    let close = RxMeta {
        sender_pos: Point::new(3102.0, 2500.0),
        from: 4,
        distance: 2.0,
    };
    peer.on_receive(&mut ctx_at(106.0, &mut me), &msg, &close, &mut sink);
    show("on_receive (duplicate overheard from 2 m away)", &mut sink);

    // 4. The queued wake-up pops at 110 s, before the postponed tick: it
    //    only re-queues itself at the tick, and reads no position.
    let early = peer.on_entry_timer(&mut ctx_at(110.0, &mut me), ad.id, &mut sink);
    assert_eq!(early, EntryWake::Rearm, "the postponed tick is later");
    let tick = match sink.drain().next() {
        Some(Action::ScheduleEntry { at, .. }) => at,
        other => unreachable!("a re-armed wake-up queues itself again: {other:?}"),
    };
    println!("on_entry_timer at 110 s (after postponement):\n    re-arm at {tick}\n");

    // 5. The postponed tick: the entry gossips with the formula-1/3
    //    probability at this distance and queues its next tick.
    let due = peer.on_entry_timer(&mut ctx_at(tick.as_secs(), &mut me), ad.id, &mut sink);
    assert_eq!(due, EntryWake::Fire);
    show("on_entry_timer (the postponed tick)", &mut sink);

    // 6. Inspect the cached copy: our user id is in the sketches now.
    let copy = peer.cached_ad(ad.id).expect("cached");
    println!(
        "cached copy: rank {} (was {}), R = {:.1} m (was {:.0}), D = {:.1} s",
        copy.sketches.rank(),
        ad.sketches.rank(),
        copy.radius,
        ad.radius,
        copy.duration.as_secs()
    );
}
