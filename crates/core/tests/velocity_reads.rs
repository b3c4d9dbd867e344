//! Velocity is estimated on demand: a protocol callback that does not
//! need the peer's velocity must not ask the context for it.
//!
//! Only mechanism (2)'s duplicate handling reads it (formula 4's
//! approach angle), so Flooding, Gossiping and Optimized Gossiping-1
//! never read it, and Optimized Gossiping-2 / Optimized Gossiping read
//! it at most once per delivered duplicate.

use ia_core::{
    build_protocol, Action, ActionSink, AdId, AdMessage, Advertisement, EntryWake, GossipParams,
    Motion, PeerContext, PeerId, Protocol, ProtocolKind, RxMeta, UserProfile,
};
use ia_des::{SimDuration, SimTime};
use ia_geo::{Point, Vector};
use std::sync::Arc;

/// A motion that counts how often its velocity is asked for.
struct CountingVelocity {
    reads: u32,
}

impl Motion for CountingVelocity {
    fn velocity(&mut self) -> Vector {
        self.reads += 1;
        Vector::new(-3.0, 4.0)
    }

    fn position_at(&mut self, _t: SimTime) -> Option<Point> {
        None
    }
}

/// One peer under test, the counting source, and its queued wake-ups.
struct Harness {
    peer: Box<dyn Protocol>,
    source: CountingVelocity,
    sink: ActionSink,
    pos: Point,
    wakes: Vec<(SimTime, AdId)>,
    ticks: u32,
}

impl Harness {
    fn call(
        &mut self,
        now: SimTime,
        f: impl FnOnce(&mut dyn Protocol, &mut PeerContext<'_>, &mut ActionSink),
    ) {
        let mut ctx = PeerContext {
            now,
            position: self.pos,
            motion: &mut self.source,
        };
        f(self.peer.as_mut(), &mut ctx, &mut self.sink);
        for a in self.sink.drain() {
            if let Action::ScheduleEntry { ad, at } = a {
                self.wakes.push((at, ad));
            }
        }
    }

    /// Run every wake-up due by `until` as the world does: triage with
    /// `entry_wake`, and tick the entry when it says fire.
    fn run_ticks(&mut self, until: SimTime) {
        while let Some(i) = (0..self.wakes.len())
            .filter(|&i| self.wakes[i].0 <= until)
            .min_by_key(|&i| self.wakes[i])
        {
            let (at, ad) = self.wakes.swap_remove(i);
            match self.peer.entry_wake(ad, at) {
                EntryWake::Drop => {}
                EntryWake::Rearm(later) => self.wakes.push((later, ad)),
                EntryWake::Fire => {
                    self.ticks += 1;
                    self.call(at, |p, ctx, out| p.on_entry_timer(ctx, ad, out));
                }
            }
        }
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

/// Drive `kind` through start, issue, new and duplicate receipts and
/// 200 s of entry ticks; return (velocity reads, duplicates delivered).
fn drive(kind: ProtocolKind) -> (u32, u32) {
    let params = Arc::new(GossipParams::paper());
    let mut h = Harness {
        peer: build_protocol(
            kind,
            Arc::clone(&params),
            250.0,
            UserProfile::new(1, vec![1]),
            0,
        ),
        source: CountingVelocity { reads: 0 },
        sink: ActionSink::new(),
        pos: Point::new(2600.0, 2500.0),
        wakes: Vec::new(),
        ticks: 0,
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
    // First receipt, then three overheard duplicates.
    let mut duplicates = 0;
    for (k, secs) in [20.0, 21.0, 22.0, 23.0].into_iter().enumerate() {
        h.run_ticks(at(secs));
        let m = msg(k as u32);
        h.call(at(secs), |p, ctx, out| p.on_receive(ctx, &m, &meta, out));
        if k > 0 {
            duplicates += 1;
        }
    }
    assert!(h.peer.holds(heard_id), "{kind}: the heard ad must be held");
    let reads = h.source.reads;
    h.run_ticks(at(225.0));
    assert_eq!(
        h.source.reads, reads,
        "{kind}: an entry tick read the velocity"
    );
    // Every kind ticks its own ad (a gossip entry, or a flooding wave).
    assert!(h.ticks >= 40, "{kind}: only {} ticks ran", h.ticks);
    (h.source.reads, duplicates)
}

#[test]
fn only_mechanism_2_duplicates_read_velocity() {
    for kind in ProtocolKind::ALL {
        let (reads, duplicates) = drive(kind);
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
