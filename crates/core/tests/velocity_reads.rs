//! The context looks nothing up until a protocol asks: a callback that
//! does not need the peer's velocity or position must not ask for it.
//!
//! Velocity: only mechanism (2)'s duplicate handling reads it (formula
//! 4's approach angle), so Flooding, Gossiping and Optimized Gossiping-1
//! never read it, and Optimized Gossiping-2 / Optimized Gossiping read it
//! at most once per delivered duplicate.
//!
//! Position: a gossip tick that runs reads it once (P(d, t)), a wake-up
//! that is dropped or re-armed reads none, and a duplicate reads it only
//! to postpone (mechanism (2)); under Gossiping and Optimized
//! Gossiping-1 a duplicate that leaves R and D unchanged only merges the
//! sketches. A flooding wave tick reads none, and a flooding receipt
//! reads it only for a wave the peer has not relayed yet.

use ia_core::{
    build_protocol, Action, ActionSink, AdId, AdMessage, Advertisement, EntryWake, GossipParams,
    Motion, PeerContext, PeerId, Protocol, ProtocolKind, RxMeta, UserProfile,
};
use ia_des::{SimDuration, SimTime};
use ia_geo::{Point, Vector};
use std::sync::Arc;

/// A motion that counts how often its position and velocity are asked
/// for.
#[derive(Default)]
struct CountingMotion {
    positions: u32,
    velocities: u32,
}

impl Motion for CountingMotion {
    fn position(&mut self) -> Point {
        self.positions += 1;
        Point::new(2600.0, 2500.0)
    }

    fn velocity(&mut self) -> Vector {
        self.velocities += 1;
        Vector::new(-3.0, 4.0)
    }

    fn position_at(&mut self, _t: SimTime) -> Option<Point> {
        None
    }
}

/// One peer under test, the counting source, and its queued wake-ups.
struct Harness {
    peer: Box<dyn Protocol>,
    source: CountingMotion,
    sink: ActionSink,
    wakes: Vec<(SimTime, AdId)>,
    /// Every wake-up that popped: what it did and the positions it read.
    popped: Vec<(EntryWake, u32)>,
}

impl Harness {
    /// Run one callback at `now`, queue the wake-ups it asked for, and
    /// return how many positions it read.
    fn call<R>(
        &mut self,
        now: SimTime,
        f: impl FnOnce(&mut dyn Protocol, &mut PeerContext<'_>, &mut ActionSink) -> R,
    ) -> (R, u32) {
        let before = self.source.positions;
        let mut ctx = PeerContext {
            now,
            motion: &mut self.source,
        };
        let result = f(self.peer.as_mut(), &mut ctx, &mut self.sink);
        for a in self.sink.drain() {
            if let Action::ScheduleEntry { ad, at } = a {
                self.wakes.push((at, ad));
            }
        }
        (result, self.source.positions - before)
    }

    /// Pop every wake-up due by `until` into `on_entry_timer`, as the
    /// world does.
    fn run_ticks(&mut self, until: SimTime) {
        while let Some(i) = (0..self.wakes.len())
            .filter(|&i| self.wakes[i].0 <= until)
            .min_by_key(|&i| self.wakes[i])
        {
            let (at, ad) = self.wakes.swap_remove(i);
            let popped = self.call(at, |p, ctx, out| p.on_entry_timer(ctx, ad, out));
            self.popped.push(popped);
        }
    }

    fn count(&self, wake: EntryWake) -> usize {
        self.popped.iter().filter(|&&(w, _)| w == wake).count()
    }
}

fn ad(params: &GossipParams, issuer: u32, issued_at: f64) -> Advertisement {
    Advertisement::new(
        AdId::new(PeerId(issuer), 0),
        Point::new(2500.0, 2500.0),
        SimTime::from_secs(issued_at),
        1000.0,
        SimDuration::from_secs(1800.0),
        vec![1],
        100,
        params,
    )
}

/// What [`drive`] observed.
struct Reads {
    velocities: u32,
    /// Positions read by each duplicate receipt, in order.
    duplicate_positions: Vec<u32>,
    harness: Harness,
}

/// Drive `kind` through start, issue, a new receipt and four overheard
/// duplicates (for Flooding, three new waves and one repeated), a
/// restart at 102.5 s and 200 s of entry ticks.
fn drive(kind: ProtocolKind) -> Reads {
    let params = GossipParams::paper().shared();
    let mut h = Harness {
        peer: build_protocol(
            kind,
            Arc::clone(&params),
            250.0,
            UserProfile::new(1, vec![1]),
            0,
        ),
        source: CountingMotion::default(),
        sink: ActionSink::new(),
        wakes: Vec::new(),
        popped: Vec::new(),
    };
    let own = ad(&params, 1, 10.0);
    let heard = ad(&params, 9, 5.0);
    let heard_id = heard.id;
    let msg = |wave: u32| match kind {
        ProtocolKind::Flooding => AdMessage::flood(heard.clone(), wave, 1000.0),
        _ => AdMessage::gossip(heard.clone()),
    };
    let meta = RxMeta {
        sender_pos: Point::new(2610.0, 2500.0),
        from: 9,
        distance: 10.0,
    };

    let at = SimTime::from_secs;
    h.call(at(0.0), |p, ctx, out| p.on_start(ctx, out));
    h.call(at(10.0), |p, ctx, out| p.issue(ctx, own, out));
    // First receipt, then four overheard duplicates.
    let mut duplicate_positions = Vec::new();
    let mut r_and_d = None;
    for (k, (secs, wave)) in [(20.0, 0), (21.0, 1), (22.0, 2), (23.0, 3), (24.0, 3)]
        .into_iter()
        .enumerate()
    {
        h.run_ticks(at(secs));
        let m = msg(wave);
        let (_, positions) = h.call(at(secs), |p, ctx, out| p.on_receive(ctx, &m, &meta, out));
        let cached = h.peer.cached_ad(heard_id).map(|c| (c.radius, c.duration));
        if k > 0 {
            duplicate_positions.push(positions);
            assert_eq!(cached, r_and_d, "{kind}: a duplicate changed R or D");
        }
        r_and_d = cached;
    }
    assert!(h.peer.holds(heard_id), "{kind}: the heard ad must be held");
    let velocities = h.source.velocities;
    h.run_ticks(at(102.5));
    h.call(at(102.5), |p, ctx, out| p.on_start(ctx, out));
    h.run_ticks(at(225.0));
    assert_eq!(
        h.source.velocities, velocities,
        "{kind}: an entry tick or a restart read the velocity"
    );
    // Every kind ticks its own ad (a gossip entry, or a flooding wave).
    let ticks = h.count(EntryWake::Fire);
    assert!(ticks >= 40, "{kind}: only {ticks} ticks ran");
    Reads {
        velocities,
        duplicate_positions,
        harness: h,
    }
}

#[test]
fn only_mechanism_2_duplicates_read_velocity() {
    for kind in ProtocolKind::ALL {
        let r = drive(kind);
        let (reads, duplicates) = (r.velocities, r.duplicate_positions.len() as u32);
        match kind {
            ProtocolKind::Flooding | ProtocolKind::Gossip | ProtocolKind::OptGossip1 => {
                assert_eq!(reads, 0, "{kind} read the velocity {reads} times");
            }
            ProtocolKind::OptGossip2 | ProtocolKind::OptGossip => {
                assert!(
                    reads <= duplicates,
                    "{kind}: {reads} velocity reads for {duplicates} duplicates"
                );
                // The postponement path really runs, so the bound is not
                // vacuous.
                assert!(reads > 0, "{kind}: no duplicate reached formula 4");
            }
        }
    }
}

#[test]
fn only_ticks_that_run_postponements_and_new_waves_read_the_position() {
    let (mut dropped, mut rearmed) = (0, 0);
    for kind in ProtocolKind::ALL {
        let r = drive(kind);
        let h = &r.harness;
        for &(wake, positions) in &h.popped {
            let expected = match (wake, kind) {
                (EntryWake::Drop | EntryWake::Rearm, _)
                | (EntryWake::Fire, ProtocolKind::Flooding) => 0,
                (EntryWake::Fire, _) => 1,
            };
            assert_eq!(positions, expected, "{kind}: a {wake:?} wake-up");
        }
        let duplicates = match kind {
            ProtocolKind::Gossip | ProtocolKind::OptGossip1 => [0; 4],
            ProtocolKind::OptGossip2 | ProtocolKind::OptGossip => [1; 4],
            // Waves 1, 2 and 3 are new; the repeated wave 3 is not.
            ProtocolKind::Flooding => [1, 1, 1, 0],
        };
        assert_eq!(r.duplicate_positions, duplicates, "{kind}: duplicates");
        dropped += h.count(EntryWake::Drop);
        rearmed += h.count(EntryWake::Rearm);
        if kind == ProtocolKind::Flooding {
            assert!(
                h.count(EntryWake::Drop) > 0,
                "the restart left no stale wave"
            );
        }
    }
    // Dropped and re-armed wake-ups really popped, so their zero reads
    // are not vacuous.
    assert!(
        dropped > 0 && rearmed > 0,
        "{dropped} dropped, {rearmed} re-armed"
    );
}
