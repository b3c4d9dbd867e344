//! Restricted Flooding (§III-B) — the paper's baseline.
//!
//! "The issuer peer broadcasts the advertisement with radius R embedded
//! in the message to its neighbors periodically, and then each neighbor
//! peer that receives the message relays it further until the message is
//! outside the advertising area limited by R. The broadcasting cycle is
//! set to be the Round Time, and R will be decreased gradually by the
//! issuer peer as time elapses."
//!
//! Implementation notes:
//!
//! * Each issuer broadcast starts a numbered *wave*; a relay forwards a
//!   given wave at most once (tracked by the highest wave relayed per
//!   ad), which is what bounds the per-round message count at
//!   `O(rho * pi * R^2)`.
//! * Each issued ad has its own wave timer: one queued wake-up, one
//!   round after the last wave, until the ad expires.
//! * The radius stamped on each wave follows formula (2), realising "R
//!   will be decreased gradually"; when it reaches zero the issuer stops.
//! * Relays forward immediately on receipt (flooding has no
//!   store-&-forward), which is exactly why it collapses in sparse,
//!   partitioned networks (Figure 7a).
//! * Interest processing (Algorithm 5) still runs on the copy a peer
//!   relays on first receipt, so the popularity machinery is comparable
//!   across protocols; a receipt that is not relayed copies nothing.

use super::{
    Action, ActionSink, AdMessage, CopyFate, EntryWake, FloodInfo, PeerContext, Protocol, RxMeta,
};
use crate::ad::Advertisement;
use crate::ids::AdId;
use crate::interest::UserProfile;
use crate::params::SharedParams;
use crate::rank;
use ia_des::SimTime;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Per-issued-ad issuer state.
#[derive(Debug, Clone)]
struct Issued {
    ad: Advertisement,
    next_wave: u32,
    /// When the ad's next wave goes out: its one live wake-up pops then.
    next_at: SimTime,
}

/// Restricted Flooding protocol state for one peer.
pub struct RestrictedFlooding {
    /// The run's parameters, shared by every peer.
    params: Arc<SharedParams>,
    profile: UserProfile,
    /// Ads this peer issued (it keeps re-broadcasting them).
    issued: Vec<Issued>,
    /// Highest wave relayed per ad (receiver role).
    relayed: HashMap<AdId, u32>,
    /// Ads ever received (for first-receipt detection).
    received: HashSet<AdId>,
}

impl RestrictedFlooding {
    pub fn new(params: Arc<SharedParams>, profile: UserProfile) -> Self {
        params.validate();
        RestrictedFlooding {
            params,
            profile,
            issued: Vec::new(),
            relayed: HashMap::new(),
            received: HashSet::new(),
        }
    }

    /// Send issued ad `idx`'s next wave (while its stamped radius is
    /// positive) and queue the wave after it, one round out.
    fn wave(&mut self, idx: usize, now: SimTime, out: &mut ActionSink) {
        let issued = &mut self.issued[idx];
        let r_t = issued.ad.radius_at(now, &self.params);
        if r_t > 0.0 {
            let wave = issued.next_wave;
            issued.next_wave += 1;
            out.push(Action::Broadcast(AdMessage::flood(
                issued.ad.clone(),
                wave,
                r_t,
            )));
        }
        issued.next_at = now + self.params.round_time;
        out.push(Action::ScheduleEntry {
            ad: issued.ad.id,
            at: issued.next_at,
        });
    }
}

impl Protocol for RestrictedFlooding {
    fn on_start(&mut self, ctx: &mut PeerContext<'_>, out: &mut ActionSink) {
        // Pure receivers need no timers; issuers start their cycle in
        // `issue`. On a restart with live issued ads (the issuer's device
        // came back), resume each ad's waves one round out.
        let now = ctx.now;
        self.issued.retain(|i| !i.ad.expired(now));
        for i in &mut self.issued {
            i.next_at = now + self.params.round_time;
            out.push(Action::ScheduleEntry {
                ad: i.ad.id,
                at: i.next_at,
            });
        }
    }

    fn issue(&mut self, ctx: &mut PeerContext<'_>, ad: Advertisement, out: &mut ActionSink) {
        self.received.insert(ad.id);
        self.issued.push(Issued {
            ad,
            next_wave: 0,
            next_at: ctx.now,
        });
        self.wave(self.issued.len() - 1, ctx.now, out);
    }

    fn on_entry_timer(
        &mut self,
        ctx: &mut PeerContext<'_>,
        ad: AdId,
        out: &mut ActionSink,
    ) -> EntryWake {
        // Issuer role: re-broadcast the live ad, drop it once it expires.
        // A wake-up queued before a restart is stale.
        let now = ctx.now;
        let Some(idx) = self
            .issued
            .iter()
            .position(|i| i.ad.id == ad && i.next_at == now)
        else {
            return EntryWake::Drop;
        };
        if self.issued[idx].ad.expired(now) {
            self.issued.remove(idx);
        } else {
            self.wave(idx, now, out);
        }
        EntryWake::Fire
    }

    fn on_receive(
        &mut self,
        ctx: &mut PeerContext<'_>,
        msg: &AdMessage,
        _meta: &RxMeta,
        out: &mut ActionSink,
    ) {
        let Some(flood) = msg.flood else {
            // Gossip traffic reaching a flooding peer is ignored (mixed
            // deployments are out of scope, but don't crash).
            return;
        };
        if msg.ad.expired(ctx.now) {
            return;
        }
        let id = msg.ad.id;
        let first_time = self.received.insert(id);
        if first_time {
            out.push(Action::Accepted { ad: id });
        }
        // Relay the wave if it is new to us and we are inside the stamped
        // advertising radius; only a new wave needs the position.
        let newest = self.relayed.get(&id).copied();
        if newest.is_none_or(|w| flood.wave > w) {
            self.relayed.insert(id, flood.wave);
            if ctx.position().distance(msg.ad.issue_pos) <= flood.radius {
                // Copy the ad only to relay it; on first receipt the relayed
                // copy carries this peer's interest processing (Algorithm 5).
                let mut ad = msg.ad.clone();
                if first_time {
                    rank::process_interest(&mut ad, &self.profile);
                }
                out.push(Action::Broadcast(AdMessage::flood(
                    ad,
                    flood.wave,
                    flood.radius,
                )));
            }
        }
    }

    /// A wave this peer has relayed, of an ad it has received, changes
    /// nothing on arrival: both sets only grow, restarts included.
    fn on_copy_sent(
        &mut self,
        _ctx: &mut PeerContext<'_>,
        msg: &AdMessage,
        _meta: &RxMeta,
        _arrives: bool,
    ) -> CopyFate {
        let id = msg.ad.id;
        let relayed = |flood: FloodInfo| self.relayed.get(&id).is_some_and(|&w| w >= flood.wave);
        if msg.flood.is_some_and(relayed) && self.received.contains(&id) {
            CopyFate::Skip
        } else {
            CopyFate::Queue
        }
    }

    fn holds(&self, ad: AdId) -> bool {
        self.received.contains(&ad)
    }

    fn cached_ad(&self, ad: AdId) -> Option<&Advertisement> {
        self.issued.iter().find(|i| i.ad.id == ad).map(|i| &i.ad)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::PeerId;
    use crate::params::GossipParams;
    use ia_des::{SimDuration, SimTime};
    use ia_geo::{Point, Vector};

    fn params() -> Arc<SharedParams> {
        GossipParams::paper().shared()
    }

    fn mk_ad(seq: u32) -> Advertisement {
        Advertisement::new(
            AdId::new(PeerId(0), seq),
            Point::new(2500.0, 2500.0),
            SimTime::from_secs(10.0),
            1000.0,
            SimDuration::from_secs(1800.0),
            vec![1],
            100,
            &params(),
        )
    }

    /// The fixed position and velocity a test peer reports.
    struct Env {
        motion: (Point, Vector),
    }

    impl Env {
        fn new() -> Self {
            Env {
                motion: (Point::ORIGIN, Vector::ZERO),
            }
        }

        fn ctx(&mut self, now: f64, pos: Point) -> PeerContext<'_> {
            self.motion.0 = pos;
            PeerContext {
                now: SimTime::from_secs(now),
                motion: &mut self.motion,
            }
        }

        /// Pop a wake-up for `ad` at `now`: what it did and what it pushed.
        fn wake(
            &mut self,
            p: &mut RestrictedFlooding,
            now: f64,
            ad: AdId,
        ) -> (EntryWake, Vec<Action>) {
            let mut c = self.ctx(now, Point::new(2500.0, 2500.0));
            let mut wake = EntryWake::Drop;
            let actions = ActionSink::collect(|out| wake = p.on_entry_timer(&mut c, ad, out));
            (wake, actions)
        }
    }

    fn meta(from: u32, pos: Point) -> RxMeta {
        RxMeta {
            sender_pos: pos,
            from,
            distance: 50.0,
        }
    }

    #[test]
    fn issuer_broadcasts_and_schedules_rounds() {
        let mut p = RestrictedFlooding::new(params(), UserProfile::indifferent(1));
        let mut env = Env::new();
        let mut c = env.ctx(10.0, Point::new(2500.0, 2500.0));
        let actions = ActionSink::collect(|out| p.issue(&mut c, mk_ad(0), out));
        let id = AdId::new(PeerId(0), 0);
        assert!(matches!(actions[0], Action::Broadcast(_)));
        assert_eq!(
            actions[1],
            Action::ScheduleEntry {
                ad: id,
                at: SimTime::from_secs(15.0)
            }
        );
        assert!(p.holds(id));
        // The wave timer is per issued ad: a second ad gets its own.
        let mut c = env.ctx(12.0, Point::new(2500.0, 2500.0));
        let actions = ActionSink::collect(|out| p.issue(&mut c, mk_ad(1), out));
        assert_eq!(
            actions[1],
            Action::ScheduleEntry {
                ad: AdId::new(PeerId(0), 1),
                at: SimTime::from_secs(17.0)
            }
        );
    }

    #[test]
    fn issuer_round_rebroadcasts_with_wave_numbers() {
        let mut p = RestrictedFlooding::new(params(), UserProfile::indifferent(1));
        let mut env = Env::new();
        let mut c = env.ctx(10.0, Point::new(2500.0, 2500.0));
        ActionSink::collect(|out| p.issue(&mut c, mk_ad(0), out));
        let id = AdId::new(PeerId(0), 0);
        assert_eq!(env.wake(&mut p, 14.0, id), (EntryWake::Drop, vec![]));
        let (wake, actions) = env.wake(&mut p, 15.0, id);
        assert_eq!(wake, EntryWake::Fire);
        assert!(actions.contains(&Action::ScheduleEntry {
            ad: id,
            at: SimTime::from_secs(20.0)
        }));
        let waves: Vec<u32> = actions
            .iter()
            .filter_map(|a| match a {
                Action::Broadcast(m) => Some(m.flood.unwrap().wave),
                _ => None,
            })
            .collect();
        assert_eq!(waves, vec![1]);
    }

    #[test]
    fn issuer_stops_after_expiry() {
        let mut p = RestrictedFlooding::new(params(), UserProfile::indifferent(1));
        let mut env = Env::new();
        let mut c = env.ctx(10.0, Point::new(2500.0, 2500.0));
        let mut actions = ActionSink::collect(|out| p.issue(&mut c, mk_ad(0), out));
        // Follow the wave timer until it stops queueing (issue 10 +
        // duration 1800).
        let id = AdId::new(PeerId(0), 0);
        let mut last = SimTime::ZERO;
        while let Some(&Action::ScheduleEntry { at, .. }) = actions.last() {
            let wake;
            (wake, actions) = env.wake(&mut p, at.as_secs(), id);
            assert_eq!(wake, EntryWake::Fire);
            last = at;
        }
        assert!(
            actions.is_empty(),
            "expired ad must stop the cycle: {actions:?}"
        );
        assert_eq!(last, SimTime::from_secs(1810.0), "the first tick at expiry");
        assert!(p.cached_ad(id).is_none());
    }

    #[test]
    fn restart_resumes_waves_and_drops_stale_wake_ups() {
        let mut p = RestrictedFlooding::new(params(), UserProfile::indifferent(1));
        let mut env = Env::new();
        let mut c = env.ctx(10.0, Point::new(2500.0, 2500.0));
        ActionSink::collect(|out| p.issue(&mut c, mk_ad(0), out));
        let id = AdId::new(PeerId(0), 0);
        let mut c = env.ctx(13.0, Point::new(2500.0, 2500.0));
        let actions = ActionSink::collect(|out| p.on_start(&mut c, out));
        assert_eq!(
            actions,
            [Action::ScheduleEntry {
                ad: id,
                at: SimTime::from_secs(18.0)
            }]
        );
        assert_eq!(env.wake(&mut p, 15.0, id), (EntryWake::Drop, vec![]));
        assert_eq!(env.wake(&mut p, 18.0, id).0, EntryWake::Fire);
    }

    #[test]
    fn receiver_relays_new_wave_inside_radius_once() {
        let mut p = RestrictedFlooding::new(params(), UserProfile::indifferent(2));
        let mut env = Env::new();
        let msg = AdMessage::flood(mk_ad(0), 3, 1000.0);
        let inside = Point::new(2600.0, 2500.0);
        let mut c = env.ctx(20.0, inside);
        let actions = ActionSink::collect(|out| {
            p.on_receive(&mut c, &msg, &meta(5, Point::new(2550.0, 2500.0)), out)
        });
        assert!(actions.iter().any(|a| matches!(a, Action::Accepted { .. })));
        assert!(actions
            .iter()
            .any(|a| matches!(a, Action::Broadcast(m) if m.flood.unwrap().wave == 3)));
        // Duplicate wave: no relay, no accept.
        let mut c2 = env.ctx(21.0, inside);
        let again = ActionSink::collect(|out| {
            p.on_receive(&mut c2, &msg, &meta(6, Point::new(2550.0, 2500.0)), out)
        });
        assert!(again.is_empty());
    }

    #[test]
    fn receiver_outside_radius_accepts_but_does_not_relay() {
        let mut p = RestrictedFlooding::new(params(), UserProfile::indifferent(2));
        let mut env = Env::new();
        let msg = AdMessage::flood(mk_ad(0), 0, 1000.0);
        let outside = Point::new(4000.0, 2500.0); // 1500 m from centre
        let mut c = env.ctx(20.0, outside);
        let actions = ActionSink::collect(|out| {
            p.on_receive(&mut c, &msg, &meta(5, Point::new(3800.0, 2500.0)), out)
        });
        assert!(actions.iter().any(|a| matches!(a, Action::Accepted { .. })));
        assert!(!actions.iter().any(|a| matches!(a, Action::Broadcast(_))));
    }

    #[test]
    fn later_waves_are_relayed_earlier_ones_ignored() {
        let mut p = RestrictedFlooding::new(params(), UserProfile::indifferent(2));
        let mut env = Env::new();
        let inside = Point::new(2600.0, 2500.0);
        let m3 = AdMessage::flood(mk_ad(0), 3, 1000.0);
        let m2 = AdMessage::flood(mk_ad(0), 2, 1000.0);
        let m4 = AdMessage::flood(mk_ad(0), 4, 1000.0);
        let sender = meta(5, Point::new(2550.0, 2500.0));
        let mut c = env.ctx(20.0, inside);
        assert!(
            ActionSink::collect(|out| p.on_receive(&mut c, &m3, &sender, out))
                .iter()
                .any(|a| matches!(a, Action::Broadcast(_)))
        );
        let mut c = env.ctx(21.0, inside);
        assert!(
            !ActionSink::collect(|out| p.on_receive(&mut c, &m2, &sender, out))
                .iter()
                .any(|a| matches!(a, Action::Broadcast(_)))
        );
        let mut c = env.ctx(22.0, inside);
        assert!(
            ActionSink::collect(|out| p.on_receive(&mut c, &m4, &sender, out))
                .iter()
                .any(|a| matches!(a, Action::Broadcast(_)))
        );
    }

    /// A wave is skipped when its frame is sent only once this peer has
    /// received the ad and relayed that wave or a later one, which a
    /// restart keeps; a newer wave, gossip traffic and an issuer's own
    /// first wave back are queued.
    #[test]
    fn relayed_waves_are_skipped_when_sent() {
        let mut p = RestrictedFlooding::new(params(), UserProfile::indifferent(2));
        let inside = Point::new(2600.0, 2500.0);
        let sender = meta(5, Point::new(2550.0, 2500.0));
        let wave = |w| AdMessage::flood(mk_ad(0), w, 1000.0);
        let mut env = Env::new();
        let mut fate = |p: &mut RestrictedFlooding, m: &AdMessage| {
            p.on_copy_sent(&mut env.ctx(30.0, inside), m, &sender, true)
        };
        assert_eq!(fate(&mut p, &wave(3)), CopyFate::Queue, "nothing received");
        let mut c = Env::new();
        let mut c = c.ctx(20.0, inside);
        ActionSink::collect(|out| p.on_receive(&mut c, &wave(3), &sender, out));
        for w in [2, 3] {
            assert_eq!(fate(&mut p, &wave(w)), CopyFate::Skip, "wave {w}");
        }
        assert_eq!(fate(&mut p, &wave(4)), CopyFate::Queue, "a newer wave");
        let gossip = AdMessage::gossip(mk_ad(0));
        assert_eq!(fate(&mut p, &gossip), CopyFate::Queue, "gossip traffic");
        let mut c = Env::new();
        let mut c = c.ctx(40.0, inside);
        ActionSink::collect(|out| p.on_start(&mut c, out));
        assert_eq!(fate(&mut p, &wave(3)), CopyFate::Skip, "after a restart");

        let mut issuer = RestrictedFlooding::new(params(), UserProfile::indifferent(2));
        let mut c = Env::new();
        let mut c = c.ctx(10.0, inside);
        ActionSink::collect(|out| issuer.issue(&mut c, mk_ad(0), out));
        assert_eq!(fate(&mut issuer, &wave(0)), CopyFate::Queue, "the issuer");
    }

    #[test]
    fn expired_messages_ignored() {
        let mut p = RestrictedFlooding::new(params(), UserProfile::indifferent(2));
        let mut env = Env::new();
        let msg = AdMessage::flood(mk_ad(0), 0, 1000.0);
        let mut c = env.ctx(5000.0, Point::new(2500.0, 2500.0));
        assert!(ActionSink::collect(|out| p.on_receive(
            &mut c,
            &msg,
            &meta(5, Point::new(2550.0, 2500.0)),
            out
        ))
        .is_empty());
    }

    #[test]
    fn gossip_traffic_is_ignored() {
        let mut p = RestrictedFlooding::new(params(), UserProfile::indifferent(2));
        let mut env = Env::new();
        let msg = AdMessage::gossip(mk_ad(0));
        let mut c = env.ctx(20.0, Point::new(2500.0, 2500.0));
        assert!(ActionSink::collect(|out| p.on_receive(
            &mut c,
            &msg,
            &meta(5, Point::new(2550.0, 2500.0)),
            out
        ))
        .is_empty());
    }

    #[test]
    fn interested_receiver_ranks_the_ad() {
        let mut p = RestrictedFlooding::new(params(), UserProfile::new(7, vec![1]));
        let mut env = Env::new();
        let msg = AdMessage::flood(mk_ad(0), 0, 1000.0);
        let mut c = env.ctx(20.0, Point::new(2600.0, 2500.0));
        let actions = ActionSink::collect(|out| {
            p.on_receive(&mut c, &msg, &meta(5, Point::new(2550.0, 2500.0)), out)
        });
        // The relayed copy must carry the user's sketch bits.
        let relayed = actions
            .iter()
            .find_map(|a| match a {
                Action::Broadcast(m) => Some(&m.ad),
                _ => None,
            })
            .expect("relay expected");
        assert_ne!(relayed.sketches, msg.ad.sketches);
    }
}
