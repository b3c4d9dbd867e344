//! Opportunistic Gossiping (§III-C) and its optimizations (§III-D).
//!
//! One implementation covers the four gossip variants; the two
//! optimization mechanisms are orthogonal flags:
//!
//! * `annular` (mechanism 1): the forwarding probability uses formula (3)
//!   once the advertisement is past its initial outward-spread warm-up,
//!   confining high-rate gossip to the rim annulus of width `DIS`.
//! * `postpone` (mechanism 2): each cache entry carries its own scheduled
//!   time; overhearing a neighbour broadcast the same ad pushes that
//!   entry's schedule back by formula (4). Without this flag, all entries
//!   share the peer's global round timer (Algorithms 1–2); with it, the
//!   per-entry Algorithms 3–4 apply.

use super::{Action, ActionSink, AdMessage, PeerContext, Protocol, ProtocolKind, RxMeta};
use crate::ad::Advertisement;
use crate::cache::{AdCache, CacheEntry};
use crate::ids::AdId;
use crate::interest::UserProfile;
use crate::params::{GossipParams, INTERIOR_UNIT, OPT1_WARMUP, OUTSIDE_UNIT, PROB_UNIT};
use crate::postpone;
use crate::prob;
use crate::rank;
use ia_des::SimTime;
use ia_geo::Point;
use std::sync::Arc;

/// The gossip family: pure, optimized-1, optimized-2, or both.
pub struct Gossip {
    /// The run's parameters, shared by every peer.
    params: Arc<GossipParams>,
    /// The radio's transmission range, metres (formula 4).
    range: f64,
    profile: UserProfile,
    cache: AdCache,
    /// Mechanism (1): annular probability.
    annular: bool,
    /// Mechanism (2): per-entry timers with overhearing postponement.
    postpone: bool,
}

impl Gossip {
    /// Pure Opportunistic Gossiping (Algorithms 1–2).
    pub fn pure(params: Arc<GossipParams>, range: f64, profile: UserProfile) -> Self {
        Self::with_flags(params, range, profile, false, false)
    }

    /// Gossiping + mechanism (1).
    pub fn optimized_1(params: Arc<GossipParams>, range: f64, profile: UserProfile) -> Self {
        Self::with_flags(params, range, profile, true, false)
    }

    /// Gossiping + mechanism (2) (Algorithms 3–4).
    pub fn optimized_2(params: Arc<GossipParams>, range: f64, profile: UserProfile) -> Self {
        Self::with_flags(params, range, profile, false, true)
    }

    /// Optimized Gossiping: both mechanisms.
    pub fn optimized(params: Arc<GossipParams>, range: f64, profile: UserProfile) -> Self {
        Self::with_flags(params, range, profile, true, true)
    }

    fn with_flags(
        params: Arc<GossipParams>,
        range: f64,
        profile: UserProfile,
        annular: bool,
        postpone: bool,
    ) -> Self {
        params.validate();
        postpone::validate_range(range);
        let cache = AdCache::new(params.cache_capacity);
        Gossip {
            params,
            range,
            profile,
            cache,
            annular,
            postpone,
        }
    }

    fn refresh_all(&mut self, now: SimTime, pos: Point) {
        self.cache.prune_expired(now);
        let (params, annular) = (&self.params, self.annular);
        self.cache
            .refresh_probabilities(|ad| probability(params, annular, ad, now, pos));
    }

    /// Store a new advertisement (already interest-processed), pushing
    /// the follow-up actions (accept signal unless the peer is the
    /// issuer, eviction notice, entry timer for mechanism 2).
    fn admit(
        &mut self,
        ad: Advertisement,
        now: SimTime,
        pos: Point,
        announce_accept: bool,
        out: &mut ActionSink,
    ) {
        if announce_accept {
            out.push(Action::Accepted { ad: ad.id });
        }
        let probability = probability(&self.params, self.annular, &ad, now, pos);
        // Algorithm 1: refresh all probabilities before an eviction
        // decision.
        self.refresh_all(now, pos);
        let next_time = now + self.params.round_time;
        let id = ad.id;
        let evicted = self.cache.insert(CacheEntry {
            ad,
            probability,
            next_time,
        });
        if let Some(evicted) = evicted {
            // `evicted == id` means the cache rejected the incoming ad
            // itself — it was never stored, so no eviction to report.
            if evicted != id {
                out.push(Action::CacheEvicted { ad: evicted });
            }
        }
        if self.postpone && evicted != Some(id) {
            out.push(Action::ScheduleEntry {
                ad: id,
                at: next_time,
            });
        }
    }
}

/// Forwarding probability of `ad` for a peer at `pos` at time `now`.
///
/// Uses formula (1) against the age-shrunk radius `R_t`; with mechanism
/// (1) (`annular`) active and the ad past its outward-spread warm-up,
/// formula (3) (with the same shrunk radius) applies instead.
fn probability(
    params: &GossipParams,
    annular: bool,
    ad: &Advertisement,
    now: SimTime,
    pos: Point,
) -> f64 {
    let d = pos.distance(ad.issue_pos);
    let r_t = ad.radius_at(now, params);
    if annular && ad.age(now) > OPT1_WARMUP {
        prob::annular_probability(
            params.alpha,
            d,
            r_t,
            params.dis,
            PROB_UNIT,
            OUTSIDE_UNIT,
            INTERIOR_UNIT,
        )
    } else {
        prob::forwarding_probability(params.alpha, d, r_t, PROB_UNIT, OUTSIDE_UNIT)
    }
}

impl Protocol for Gossip {
    fn kind(&self) -> ProtocolKind {
        match (self.annular, self.postpone) {
            (false, false) => ProtocolKind::Gossip,
            (true, false) => ProtocolKind::OptGossip1,
            (false, true) => ProtocolKind::OptGossip2,
            (true, true) => ProtocolKind::OptGossip,
        }
    }

    fn on_start(&mut self, ctx: &mut PeerContext<'_>, out: &mut ActionSink) {
        if self.postpone {
            // Mechanism (2) peers have no global round; entries carry
            // their own timers. On a restart (device switched back on
            // with a warm cache), re-arm every entry's timer — the
            // wake-ups scheduled before the outage were dropped.
            self.cache.prune_expired(ctx.now);
            let now = ctx.now;
            let round = self.params.round_time;
            for e in self.cache.iter_mut() {
                e.next_time = e.next_time.max(now + round);
                out.push(Action::ScheduleEntry {
                    ad: e.ad.id,
                    at: e.next_time,
                });
            }
        } else {
            // "All peers work asynchronously and the gossiping process is
            // always active": desynchronise rounds with a random phase.
            let phase = self.params.round_time.mul_f64(ctx.rng.unit());
            out.push(Action::ScheduleRound(ctx.now + phase));
        }
    }

    fn issue(&mut self, ctx: &mut PeerContext<'_>, mut ad: Advertisement, out: &mut ActionSink) {
        // The issuer counts as an interested/served user of its own ad.
        rank::process_interest(&mut ad, &self.profile);
        // Issue is accompanied by an immediate broadcast so neighbours
        // learn of the ad even if the issuer then goes off-line (§III-C).
        out.push(Action::Broadcast(AdMessage::gossip(ad.clone())));
        // No accept signal: the issuer did not "receive" its own ad.
        self.admit(ad, ctx.now, ctx.position, false, out);
    }

    fn on_receive(
        &mut self,
        ctx: &mut PeerContext<'_>,
        msg: &AdMessage,
        meta: &RxMeta,
        out: &mut ActionSink,
    ) {
        if msg.flood.is_some() || msg.ad.expired(ctx.now) {
            return;
        }
        if let Some(entry) = self.cache.get_mut(msg.ad.id) {
            // Duplicate: absorb popularity state; with mechanism (2),
            // postpone this entry's next gossip (Algorithm 3).
            entry.ad.absorb(&msg.ad);
            if self.postpone {
                let interval = postpone::postponement(
                    self.params.round_time,
                    ctx.position,
                    ctx.velocity(),
                    meta.sender_pos,
                    self.range,
                );
                entry.next_time = entry.next_time.max(ctx.now) + interval;
                let at = entry.next_time;
                out.push(Action::ScheduleEntry { ad: msg.ad.id, at });
            }
            return;
        }
        // New advertisement: interest processing (Algorithm 5), then
        // Algorithm 1 insertion.
        let mut ad = msg.ad.clone();
        rank::process_interest(&mut ad, &self.profile);
        self.admit(ad, ctx.now, ctx.position, true, out);
    }

    fn on_round(&mut self, ctx: &mut PeerContext<'_>, out: &mut ActionSink) {
        if self.postpone {
            return; // no global rounds under mechanism (2)
        }
        // Algorithm 2: refresh probabilities, broadcast each entry with
        // its probability, reschedule.
        self.refresh_all(ctx.now, ctx.position);
        for e in self.cache.iter() {
            if ctx.rng.chance(e.probability) {
                out.push(Action::Broadcast(AdMessage::gossip(e.ad.clone())));
            }
        }
        out.push(Action::ScheduleRound(ctx.now + self.params.round_time));
    }

    fn on_entry_timer(&mut self, ctx: &mut PeerContext<'_>, ad: AdId, out: &mut ActionSink) {
        if !self.postpone {
            return;
        }
        // Algorithm 4, with stale-timer filtering: postponements leave the
        // earlier wake-up in the queue; it fires, sees the entry's
        // scheduled time is still in the future, and does nothing.
        let now = ctx.now;
        let pos = ctx.position;
        let Some(entry) = self.cache.get_mut(ad) else {
            return; // evicted or expired meanwhile
        };
        if entry.next_time > now {
            return; // stale wake-up superseded by a postponement
        }
        if entry.ad.expired(now) {
            self.cache.remove(ad);
            return;
        }
        entry.probability = probability(&self.params, self.annular, &entry.ad, now, pos);
        entry.next_time = now + self.params.round_time;
        // Most wake-ups lose the draw: copy the ad only to send it.
        if ctx.rng.chance(entry.probability) {
            out.push(Action::Broadcast(AdMessage::gossip(entry.ad.clone())));
        }
        out.push(Action::ScheduleEntry {
            ad,
            at: entry.next_time,
        });
    }

    fn holds(&self, ad: AdId) -> bool {
        self.cache.contains(ad)
    }

    fn cached_ad(&self, ad: AdId) -> Option<&Advertisement> {
        self.cache.get(ad).map(|e| &e.ad)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::PeerId;
    use ia_des::{SimDuration, SimRng};
    use ia_geo::Vector;

    /// The paper's radio range, metres.
    const RANGE: f64 = 250.0;

    fn params() -> Arc<GossipParams> {
        Arc::new(GossipParams::paper())
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

    /// A test peer's RNG stream and the fixed velocity it reports.
    struct Env {
        rng: SimRng,
        velocity: Vector,
    }

    impl Env {
        fn new(seed: u64) -> Self {
            Env {
                rng: SimRng::from_master(seed),
                velocity: Vector::new(5.0, 0.0),
            }
        }

        fn ctx(&mut self, now: f64, pos: Point) -> PeerContext<'_> {
            PeerContext {
                now: SimTime::from_secs(now),
                position: pos,
                rng: &mut self.rng,
                velocity_source: &mut self.velocity,
            }
        }
    }

    fn meta_at(pos: Point) -> RxMeta {
        RxMeta {
            sender_pos: pos,
            from: 9,
            distance: 50.0,
        }
    }

    #[test]
    fn pure_gossip_schedules_desynchronised_round_on_start() {
        let mut env = Env::new(1);
        let mut g = Gossip::pure(params(), RANGE, UserProfile::indifferent(1));
        let mut c = env.ctx(0.0, Point::ORIGIN);
        let a = ActionSink::collect(|out| g.on_start(&mut c, out));
        assert_eq!(a.len(), 1);
        match a[0] {
            Action::ScheduleRound(t) => {
                assert!(t >= SimTime::ZERO && t <= SimTime::from_secs(5.0));
            }
            ref other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn opt2_has_no_global_round() {
        let mut env = Env::new(1);
        let mut g = Gossip::optimized_2(params(), RANGE, UserProfile::indifferent(1));
        let mut c = env.ctx(0.0, Point::ORIGIN);
        assert!(ActionSink::collect(|out| g.on_start(&mut c, out)).is_empty());
        let mut c2 = env.ctx(5.0, Point::ORIGIN);
        assert!(ActionSink::collect(|out| g.on_round(&mut c2, out)).is_empty());
    }

    #[test]
    fn issue_broadcasts_immediately_and_caches() {
        let mut env = Env::new(2);
        let mut g = Gossip::pure(params(), RANGE, UserProfile::indifferent(1));
        let mut c = env.ctx(10.0, Point::new(2500.0, 2500.0));
        let actions = ActionSink::collect(|out| g.issue(&mut c, mk_ad(0), out));
        assert!(matches!(actions[0], Action::Broadcast(_)));
        assert!(g.holds(AdId::new(PeerId(0), 0)));
    }

    #[test]
    fn new_ad_is_accepted_and_cached() {
        let mut env = Env::new(3);
        let mut g = Gossip::pure(params(), RANGE, UserProfile::indifferent(1));
        let msg = AdMessage::gossip(mk_ad(0));
        let mut c = env.ctx(20.0, Point::new(2600.0, 2500.0));
        let actions = ActionSink::collect(|out| {
            g.on_receive(&mut c, &msg, &meta_at(Point::new(2550.0, 2500.0)), out)
        });
        assert!(actions.iter().any(|a| matches!(a, Action::Accepted { .. })));
        assert!(g.holds(msg.ad.id));
        // Duplicate in pure mode: silently absorbed.
        let mut c2 = env.ctx(21.0, Point::new(2600.0, 2500.0));
        assert!(ActionSink::collect(|out| g.on_receive(
            &mut c2,
            &msg,
            &meta_at(Point::new(2550.0, 2500.0)),
            out
        ))
        .is_empty());
    }

    #[test]
    fn round_broadcasts_cached_ads_with_high_probability_inside_area() {
        let mut env = Env::new(4);
        let mut g = Gossip::pure(params(), RANGE, UserProfile::indifferent(1));
        let pos = Point::new(2550.0, 2500.0); // 50 m from centre: P ~ 1
        let msg = AdMessage::gossip(mk_ad(0));
        let mut c = env.ctx(20.0, pos);
        ActionSink::collect(|out| {
            g.on_receive(&mut c, &msg, &meta_at(Point::new(2500.0, 2500.0)), out)
        });
        let mut broadcasts = 0;
        for k in 0..20 {
            let mut cr = env.ctx(25.0 + k as f64 * 5.0, pos);
            let actions = ActionSink::collect(|out| g.on_round(&mut cr, out));
            assert!(matches!(actions.last(), Some(Action::ScheduleRound(_))));
            broadcasts += actions
                .iter()
                .filter(|a| matches!(a, Action::Broadcast(_)))
                .count();
        }
        assert!(broadcasts >= 18, "P~1 inside the area, got {broadcasts}/20");
    }

    #[test]
    fn round_rarely_broadcasts_far_outside_area() {
        let mut env = Env::new(5);
        let mut g = Gossip::pure(params(), RANGE, UserProfile::indifferent(1));
        let pos = Point::new(4500.0, 2500.0); // 2000 m out: P ~ 0.5*0.5^10
        let msg = AdMessage::gossip(mk_ad(0));
        let mut c = env.ctx(20.0, pos);
        ActionSink::collect(|out| {
            g.on_receive(&mut c, &msg, &meta_at(Point::new(4400.0, 2500.0)), out)
        });
        let mut broadcasts = 0;
        for k in 0..50 {
            let mut cr = env.ctx(25.0 + k as f64 * 5.0, pos);
            broadcasts += ActionSink::collect(|out| g.on_round(&mut cr, out))
                .iter()
                .filter(|a| matches!(a, Action::Broadcast(_)))
                .count();
        }
        assert!(broadcasts <= 2, "P~0 outside, got {broadcasts}/50");
    }

    #[test]
    fn opt1_suppresses_interior_after_warmup() {
        let mut env = Env::new(6);
        let mut g = Gossip::optimized_1(params(), RANGE, UserProfile::indifferent(1));
        let centre = Point::new(2500.0, 2500.0);
        let msg = AdMessage::gossip(mk_ad(0));
        let mut c = env.ctx(20.0, centre);
        ActionSink::collect(|out| g.on_receive(&mut c, &msg, &meta_at(centre), out));
        let p_at =
            |secs, pos| probability(&g.params, g.annular, &msg.ad, SimTime::from_secs(secs), pos);
        // During warm-up (age <= 40 s) the interior still gossips.
        let p_young = p_at(30.0, centre);
        assert!(p_young > 0.9, "warm-up probability {p_young}");
        // After warm-up the interior is suppressed...
        let p_old = p_at(100.0, centre);
        assert!(p_old < 0.02, "interior probability {p_old}");
        // ...but the annulus is not.
        let p_rim = p_at(100.0, Point::new(2500.0 + 900.0, 2500.0));
        assert!(p_rim > 0.7, "annulus probability {p_rim}");
    }

    #[test]
    fn opt2_insert_schedules_entry_timer() {
        let mut env = Env::new(7);
        let mut g = Gossip::optimized_2(params(), RANGE, UserProfile::indifferent(1));
        let msg = AdMessage::gossip(mk_ad(0));
        let mut c = env.ctx(20.0, Point::new(2600.0, 2500.0));
        let actions = ActionSink::collect(|out| {
            g.on_receive(&mut c, &msg, &meta_at(Point::new(2550.0, 2500.0)), out)
        });
        assert!(actions.iter().any(
            |a| matches!(a, Action::ScheduleEntry { at, .. } if *at == SimTime::from_secs(25.0))
        ));
    }

    #[test]
    fn opt2_duplicate_postpones_entry() {
        let mut env = Env::new(8);
        let mut g = Gossip::optimized_2(params(), RANGE, UserProfile::indifferent(1));
        let msg = AdMessage::gossip(mk_ad(0));
        let pos = Point::new(2600.0, 2500.0);
        let mut c = env.ctx(20.0, pos);
        ActionSink::collect(|out| {
            g.on_receive(&mut c, &msg, &meta_at(Point::new(2550.0, 2500.0)), out)
        });
        let before = g.cache.get(msg.ad.id).unwrap().next_time;
        // Overhear a very close neighbour broadcasting the same ad.
        let mut c2 = env.ctx(21.0, pos);
        let actions = ActionSink::collect(|out| {
            g.on_receive(&mut c2, &msg, &meta_at(Point::new(2601.0, 2500.0)), out)
        });
        let after = g.cache.get(msg.ad.id).unwrap().next_time;
        assert!(after > before, "postponement must push the schedule back");
        // Pushed back by at least one round time (formula 4 lower bound).
        assert!(after.since(before) >= params().round_time);
        assert!(matches!(actions[0], Action::ScheduleEntry { .. }));
    }

    #[test]
    fn opt2_closer_sender_postpones_more() {
        let pos = Point::new(2600.0, 2500.0);
        let run = |sender: Point| -> SimTime {
            let mut env = Env::new(9);
            let mut g = Gossip::optimized_2(params(), RANGE, UserProfile::indifferent(1));
            let msg = AdMessage::gossip(mk_ad(0));
            let mut c = env.ctx(20.0, pos);
            ActionSink::collect(|out| {
                g.on_receive(&mut c, &msg, &meta_at(Point::new(2550.0, 2500.0)), out)
            });
            let mut c2 = env.ctx(21.0, pos);
            ActionSink::collect(|out| g.on_receive(&mut c2, &msg, &meta_at(sender), out));
            g.cache.get(msg.ad.id).unwrap().next_time
        };
        let near = run(Point::new(2605.0, 2500.0));
        let far = run(Point::new(2840.0, 2500.0));
        assert!(near > far);
    }

    /// Formula (4) reads the range the peer was built with: the same
    /// duplicate receipt postpones by `postponement(.., range)` under a
    /// 250 m and a 300 m radio, and the two differ.
    #[test]
    fn opt2_postponement_uses_the_radio_range() {
        let pos = Point::new(2600.0, 2500.0);
        let sender = Point::new(2700.0, 2500.0);
        let postponed = |range: f64| {
            let mut env = Env::new(13);
            let mut g = Gossip::optimized_2(params(), range, UserProfile::indifferent(1));
            let msg = AdMessage::gossip(mk_ad(0));
            let mut c = env.ctx(20.0, pos);
            ActionSink::collect(|out| g.on_receive(&mut c, &msg, &meta_at(sender), out));
            let before = g.cache.get(msg.ad.id).unwrap().next_time;
            let mut c2 = env.ctx(21.0, pos);
            ActionSink::collect(|out| g.on_receive(&mut c2, &msg, &meta_at(sender), out));
            let after = g.cache.get(msg.ad.id).unwrap().next_time;
            let interval =
                postpone::postponement(params().round_time, pos, env.velocity, sender, range);
            assert_eq!(after, before + interval, "range {range}");
            interval
        };
        assert_ne!(postponed(250.0), postponed(300.0));
    }

    #[test]
    fn opt2_stale_timer_is_ignored_fresh_timer_fires() {
        let mut env = Env::new(10);
        let mut g = Gossip::optimized_2(params(), RANGE, UserProfile::indifferent(1));
        let msg = AdMessage::gossip(mk_ad(0));
        let pos = Point::new(2600.0, 2500.0);
        let mut c = env.ctx(20.0, pos);
        ActionSink::collect(|out| {
            g.on_receive(&mut c, &msg, &meta_at(Point::new(2550.0, 2500.0)), out)
        });
        // Postpone: next_time moves past 25 s.
        let mut c2 = env.ctx(21.0, pos);
        ActionSink::collect(|out| {
            g.on_receive(&mut c2, &msg, &meta_at(Point::new(2601.0, 2500.0)), out)
        });
        let scheduled = g.cache.get(msg.ad.id).unwrap().next_time;
        // The original 25 s wake-up is now stale.
        let mut c3 = env.ctx(25.0, pos);
        assert!(ActionSink::collect(|out| g.on_entry_timer(&mut c3, msg.ad.id, out)).is_empty());
        // The postponed wake-up fires and reschedules.
        let mut rng2 = SimRng::from_master(11);
        let mut c4 = PeerContext {
            now: scheduled,
            position: pos,
            rng: &mut rng2,
            velocity_source: &mut Vector::new(0.0, 0.0),
        };
        let actions = ActionSink::collect(|out| g.on_entry_timer(&mut c4, msg.ad.id, out));
        assert!(actions
            .iter()
            .any(|a| matches!(a, Action::ScheduleEntry { .. })));
    }

    #[test]
    fn opt2_expired_entry_is_dropped_on_timer() {
        let mut env = Env::new(12);
        let mut g = Gossip::optimized_2(params(), RANGE, UserProfile::indifferent(1));
        let msg = AdMessage::gossip(mk_ad(0));
        let pos = Point::new(2600.0, 2500.0);
        let mut c = env.ctx(20.0, pos);
        ActionSink::collect(|out| {
            g.on_receive(&mut c, &msg, &meta_at(Point::new(2550.0, 2500.0)), out)
        });
        // Force the entry's schedule into the deep future then fire after
        // expiry.
        g.cache.get_mut(msg.ad.id).unwrap().next_time = SimTime::from_secs(3000.0);
        let mut c2 = env.ctx(3000.0, pos);
        assert!(ActionSink::collect(|out| g.on_entry_timer(&mut c2, msg.ad.id, out)).is_empty());
        assert!(!g.holds(msg.ad.id));
    }

    #[test]
    fn cache_eviction_respects_capacity() {
        let mut env = Env::new(13);
        let p = Arc::new(GossipParams::paper().with_cache_capacity(3));
        let mut g = Gossip::pure(p, RANGE, UserProfile::indifferent(1));
        let pos = Point::new(2500.0, 2500.0);
        for seq in 0..5 {
            let msg = AdMessage::gossip(mk_ad(seq));
            let mut c = env.ctx(20.0 + seq as f64, pos);
            ActionSink::collect(|out| g.on_receive(&mut c, &msg, &meta_at(pos), out));
        }
        assert_eq!(g.cache.len(), 3);
    }

    #[test]
    fn expired_gossip_is_ignored() {
        let mut env = Env::new(14);
        let mut g = Gossip::pure(params(), RANGE, UserProfile::indifferent(1));
        let msg = AdMessage::gossip(mk_ad(0));
        let mut c = env.ctx(5000.0, Point::new(2500.0, 2500.0));
        assert!(ActionSink::collect(|out| g.on_receive(
            &mut c,
            &msg,
            &meta_at(Point::new(2550.0, 2500.0)),
            out
        ))
        .is_empty());
        assert!(!g.holds(msg.ad.id));
    }

    #[test]
    fn interested_receiver_enlarges_popular_ad() {
        let mut env = Env::new(15);
        let mut g = Gossip::pure(params(), RANGE, UserProfile::new(7, vec![1]));
        let msg = AdMessage::gossip(mk_ad(0));
        let mut c = env.ctx(20.0, Point::new(2600.0, 2500.0));
        ActionSink::collect(|out| {
            g.on_receive(&mut c, &msg, &meta_at(Point::new(2550.0, 2500.0)), out)
        });
        let cached = &g.cache.get(msg.ad.id).unwrap().ad;
        assert!(cached.sketches.rank() >= msg.ad.sketches.rank());
        assert_ne!(cached.sketches, msg.ad.sketches);
    }

    #[test]
    fn kind_reflects_flags() {
        let u = || UserProfile::indifferent(0);
        assert_eq!(
            Gossip::pure(params(), RANGE, u()).kind(),
            ProtocolKind::Gossip
        );
        assert_eq!(
            Gossip::optimized_1(params(), RANGE, u()).kind(),
            ProtocolKind::OptGossip1
        );
        assert_eq!(
            Gossip::optimized_2(params(), RANGE, u()).kind(),
            ProtocolKind::OptGossip2
        );
        assert_eq!(
            Gossip::optimized(params(), RANGE, u()).kind(),
            ProtocolKind::OptGossip
        );
    }
}
