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
//!
//! Entry ticks are decided ahead. A tick's coin is a keyed draw, a pure
//! function of (peer, ad, tick instant), and its position comes from the
//! immutable trajectory ([`Motion::position_at`](super::Motion::position_at)). So after each tick
//! that runs, the entry walks its own tick grid forward, evaluating each
//! tick exactly as the tick itself would, and plans one wake-up at the
//! first tick that must run: one that broadcasts, expires the ad, or
//! cannot be evaluated ahead. The ticks it skips would neither broadcast
//! nor change any state a later event reads (the grid, `next_time`, is
//! derived on demand), so the run is the one per-tick execution gives.

use super::{
    Action, ActionSink, AdMessage, EntryWake, PeerContext, Protocol, ProtocolKind, RxMeta,
};
use crate::ad::Advertisement;
use crate::cache::{AdCache, CacheEntry};
use crate::ids::AdId;
use crate::interest::UserProfile;
use crate::params::{GossipParams, INTERIOR_UNIT, OPT1_WARMUP, OUTSIDE_UNIT, PROB_UNIT};
use crate::postpone;
use crate::prob;
use crate::rank;
use ia_des::{rng::keyed_unit, SimDuration, SimTime};
use ia_geo::Point;
use std::sync::Arc;

/// The gossip family: pure, optimized-1, optimized-2, or both.
pub struct Gossip {
    /// The run's parameters, shared by every peer.
    params: Arc<GossipParams>,
    /// The radio's transmission range, metres (formula 4).
    range: f64,
    /// This peer's key for entry-tick coins (mechanism (2) only).
    entry_key: u64,
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
        Self::with_flags(params, range, profile, 0, false, false)
    }

    /// Gossiping + mechanism (1).
    pub fn optimized_1(params: Arc<GossipParams>, range: f64, profile: UserProfile) -> Self {
        Self::with_flags(params, range, profile, 0, true, false)
    }

    /// Gossiping + mechanism (2) (Algorithms 3–4). The tick of entry
    /// `ad` at `t` broadcasts iff `keyed_unit(entry_key, ad, t) < p`
    /// ([`ia_des::rng::keyed_unit`]), a pure function of the tick.
    pub fn optimized_2(
        params: Arc<GossipParams>,
        range: f64,
        profile: UserProfile,
        entry_key: u64,
    ) -> Self {
        Self::with_flags(params, range, profile, entry_key, false, true)
    }

    /// Optimized Gossiping: both mechanisms; `entry_key` as for
    /// [`Gossip::optimized_2`].
    pub fn optimized(
        params: Arc<GossipParams>,
        range: f64,
        profile: UserProfile,
        entry_key: u64,
    ) -> Self {
        Self::with_flags(params, range, profile, entry_key, true, true)
    }

    fn with_flags(
        params: Arc<GossipParams>,
        range: f64,
        profile: UserProfile,
        entry_key: u64,
        annular: bool,
        postpone: bool,
    ) -> Self {
        params.validate();
        postpone::validate_range(range);
        let cache = AdCache::new(params.cache_capacity);
        Gossip {
            params,
            range,
            entry_key,
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
        ctx: &mut PeerContext<'_>,
        ad: Advertisement,
        announce_accept: bool,
        out: &mut ActionSink,
    ) {
        let (now, pos) = (ctx.now, ctx.position);
        if announce_accept {
            out.push(Action::Accepted { ad: ad.id });
        }
        let probability = probability(&self.params, self.annular, &ad, now, pos);
        // Algorithm 1: refresh all probabilities before an eviction
        // decision.
        self.refresh_all(now, pos);
        let id = ad.id;
        let next_time = now + self.params.round_time;
        let evicted = self
            .cache
            .insert(CacheEntry::new(ad, probability, next_time));
        if let Some(evicted) = evicted {
            // `evicted == id` means the cache rejected the incoming ad
            // itself — it was never stored, so no eviction to report.
            if evicted != id {
                out.push(Action::CacheEvicted { ad: evicted });
            }
        }
        if self.postpone && evicted != Some(id) {
            let entry = self.cache.get_mut(id).expect("admitted entry is cached");
            plan(&self.params, self.annular, self.entry_key, entry, ctx);
            arm(entry, now, out);
        }
    }
}

/// Set `entry.wake` to the first tick of its grid (from `next_time`, one
/// round apart) that must run: the ad has expired by then, the motion
/// cannot give the position ahead, or the keyed coin fires with the
/// probability the tick itself would compute. Every tick before it
/// would neither broadcast nor change state a later event reads.
fn plan(
    params: &GossipParams,
    annular: bool,
    entry_key: u64,
    entry: &mut CacheEntry,
    ctx: &mut PeerContext<'_>,
) {
    let ad = &entry.ad;
    let mut t = entry.next_time;
    entry.wake = loop {
        if ad.expired(t) {
            break t;
        }
        let Some(pos) = ctx.motion.position_at(t) else {
            break t;
        };
        if tick_fires(
            entry_key,
            ad.id,
            t,
            probability(params, annular, ad, t, pos),
        ) {
            break t;
        }
        let next = t + params.round_time;
        if next == t {
            break t; // the clock saturated
        }
        t = next;
    };
}

/// Keep one wake-up queued for `entry`: queue one at `entry.wake` unless
/// the one already queued pops in `(now, wake]`, where it re-arms at
/// `wake` (or fires, if it is `wake`).
fn arm(entry: &mut CacheEntry, now: SimTime, out: &mut ActionSink) {
    if entry.queued <= now || entry.queued > entry.wake {
        entry.queued = entry.wake;
        out.push(Action::ScheduleEntry {
            ad: entry.ad.id,
            at: entry.wake,
        });
    }
}

/// The tick per-tick execution would hold pending at `now`: the first
/// grid tick after `now`, as every earlier one has run or been skipped,
/// but never past the planned tick, which has not run yet.
fn pending_tick(entry: &CacheEntry, now: SimTime, round: SimDuration) -> SimTime {
    let n = entry.next_time;
    let pending = if n > now {
        n
    } else {
        let rounds = now.since(n).as_micros() / round.as_micros() + 1;
        n + SimDuration::from_micros(round.as_micros().saturating_mul(rounds))
    };
    pending.min(entry.wake)
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

/// Does the tick of entry `ad` at `t` broadcast with probability `p`?
///
/// The coin is keyed by (peer key, ad, tick instant), not drawn from a
/// stream, so it is the same whenever and however often it is asked. At
/// the edges it matches `SimRng::chance`: `p <= 0` (or NaN) never
/// fires and `p >= 1` always does, since the draw lies in `[0, 1)`.
fn tick_fires(entry_key: u64, ad: AdId, t: SimTime, p: f64) -> bool {
    let ad = u64::from(ad.issuer.0) << 32 | u64::from(ad.seq);
    keyed_unit(entry_key, ad, t.as_micros()) < p
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
            // with a warm cache), re-arm every entry's timer — a wake-up
            // that fell due during the outage was dropped.
            let now = ctx.now;
            self.cache.prune_expired(now);
            let (params, annular, key) = (&self.params, self.annular, self.entry_key);
            for e in self.cache.iter_mut() {
                e.next_time = e.next_time.max(now + params.round_time);
                plan(params, annular, key, e, ctx);
                arm(e, now, out);
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
        self.admit(ctx, ad, false, out);
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
                // The grid restarts `interval` after the tick that was
                // pending. Its first tick is not evaluated ahead: the
                // wake-up there runs it (and plans on from it), so a
                // burst of duplicates costs no look-ahead.
                let now = ctx.now;
                entry.next_time =
                    pending_tick(entry, now, self.params.round_time).max(now) + interval;
                entry.wake = entry.next_time;
                arm(entry, now, out);
            }
            return;
        }
        // New advertisement: interest processing (Algorithm 5), then
        // Algorithm 1 insertion.
        let mut ad = msg.ad.clone();
        rank::process_interest(&mut ad, &self.profile);
        self.admit(ctx, ad, true, out);
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

    fn entry_wake(&mut self, ad: AdId, now: SimTime) -> EntryWake {
        // Only the entry's one queued wake-up counts; earlier ones were
        // superseded when it was queued.
        match self.cache.get_mut(ad) {
            Some(entry) if self.postpone && entry.queued == now => {
                if entry.wake > now {
                    entry.queued = entry.wake;
                    EntryWake::Rearm(entry.wake)
                } else {
                    EntryWake::Fire
                }
            }
            _ => EntryWake::Drop,
        }
    }

    fn on_entry_timer(&mut self, ctx: &mut PeerContext<'_>, ad: AdId, out: &mut ActionSink) {
        if !self.postpone {
            return;
        }
        // Algorithm 4: one tick, then plan the next one that must run.
        let now = ctx.now;
        let Some(entry) = self.cache.get_mut(ad) else {
            return; // evicted or expired meanwhile
        };
        if entry.wake > now {
            return; // not due
        }
        if entry.ad.expired(now) {
            self.cache.remove(ad);
            return;
        }
        entry.probability = probability(&self.params, self.annular, &entry.ad, now, ctx.position);
        // Most wake-ups lose the draw: copy the ad only to send it.
        if tick_fires(self.entry_key, ad, now, entry.probability) {
            out.push(Action::Broadcast(AdMessage::gossip(entry.ad.clone())));
        }
        entry.next_time = now + self.params.round_time;
        plan(&self.params, self.annular, self.entry_key, entry, ctx);
        arm(entry, now, out);
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
    use crate::protocol::Motion;
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
                motion: &mut self.velocity,
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
        let mut g = Gossip::optimized_2(params(), RANGE, UserProfile::indifferent(1), 0);
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
        let mut g = Gossip::optimized_2(params(), RANGE, UserProfile::indifferent(1), 0);
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
        let mut g = Gossip::optimized_2(params(), RANGE, UserProfile::indifferent(1), 0);
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
        // The wake-up already queued at 25 s re-arms at the new tick, so
        // none is queued now.
        assert!(actions.is_empty());
        assert_eq!(g.entry_wake(msg.ad.id, before), EntryWake::Rearm(after));
    }

    #[test]
    fn opt2_closer_sender_postpones_more() {
        let pos = Point::new(2600.0, 2500.0);
        let run = |sender: Point| -> SimTime {
            let mut env = Env::new(9);
            let mut g = Gossip::optimized_2(params(), RANGE, UserProfile::indifferent(1), 0);
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
            let mut g = Gossip::optimized_2(params(), range, UserProfile::indifferent(1), 0);
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
        let mut g = Gossip::optimized_2(params(), RANGE, UserProfile::indifferent(1), 0);
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
            motion: &mut Vector::new(0.0, 0.0),
        };
        let actions = ActionSink::collect(|out| g.on_entry_timer(&mut c4, msg.ad.id, out));
        assert!(actions
            .iter()
            .any(|a| matches!(a, Action::ScheduleEntry { .. })));
    }

    #[test]
    fn opt2_expired_entry_is_dropped_on_timer() {
        let mut env = Env::new(12);
        let mut g = Gossip::optimized_2(params(), RANGE, UserProfile::indifferent(1), 0);
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

    // ---- the entry-tick planner against per-tick execution ----------

    /// A peer moving along a polyline through timed waypoints. Inside
    /// `blind` its fixes are noisy (callbacks see a shifted position and
    /// nothing can be predicted), and no callback runs at or past `end`.
    struct Track {
        waypoints: Vec<(SimTime, Point)>,
        blind: (SimTime, SimTime),
        end: SimTime,
    }

    impl Track {
        fn exact(&self, t: SimTime) -> Point {
            let i = self.waypoints.partition_point(|&(at, _)| at <= t);
            if i == 0 {
                return self.waypoints[0].1;
            }
            let Some(&(t1, p1)) = self.waypoints.get(i) else {
                return self.waypoints[i - 1].1;
            };
            let (t0, p0) = self.waypoints[i - 1];
            p0.lerp(p1, t.since(t0).as_secs() / t1.since(t0).as_secs())
        }

        fn blind_at(&self, t: SimTime) -> bool {
            self.blind.0 <= t && t < self.blind.1
        }

        /// The position a callback at `t` is given.
        fn observed(&self, t: SimTime) -> Point {
            let p = self.exact(t);
            if self.blind_at(t) {
                Point::new(p.x + 150.0, p.y - 90.0)
            } else {
                p
            }
        }
    }

    /// The motion a world would give over a [`Track`].
    struct TrackMotion<'a>(&'a Track);

    impl Motion for TrackMotion<'_> {
        fn velocity(&mut self) -> Vector {
            Vector::new(3.0, -2.0)
        }

        fn position_at(&mut self, t: SimTime) -> Option<Point> {
            (t < self.0.end && !self.0.blind_at(t)).then(|| self.0.exact(t))
        }
    }

    /// What an executed tick did that anything could observe.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Effect {
        Broadcast(SimTime),
        Expired(SimTime),
    }

    /// One peer under test and the effects of the ticks it ran.
    struct Driven {
        g: Gossip,
        rng: SimRng,
        effects: Vec<Effect>,
    }

    impl Driven {
        /// Run one callback at `t` with the track's fix, logging its
        /// broadcasts and returning the wake-ups it scheduled.
        fn call(
            &mut self,
            track: &Track,
            look_ahead: bool,
            t: SimTime,
            f: impl FnOnce(&mut Gossip, &mut PeerContext<'_>, &mut ActionSink),
        ) -> Vec<SimTime> {
            let mut fixed = Vector::new(3.0, -2.0);
            let mut along = TrackMotion(track);
            let mut ctx = PeerContext {
                now: t,
                position: track.observed(t),
                rng: &mut self.rng,
                motion: if look_ahead { &mut along } else { &mut fixed },
            };
            let actions = ActionSink::collect(|out| f(&mut self.g, &mut ctx, out));
            let mut wakes = Vec::new();
            for a in actions {
                match a {
                    Action::Broadcast(_) => self.effects.push(Effect::Broadcast(t)),
                    Action::ScheduleEntry { at, .. } => wakes.push(at),
                    _ => {}
                }
            }
            wakes
        }
    }

    /// The look-ahead plans exactly the ticks per-tick execution needs.
    /// Two Optimized Gossiping(-2) peers hold the same ad and hear the
    /// same duplicates: one runs every tick of its grid (its motion
    /// predicts nothing), the other runs only the wake-ups it planned,
    /// honouring `entry_wake`. Cases draw the round time, mechanism (1),
    /// the ad (an age crossing `OPT1_WARMUP`, expiry within the scan),
    /// duplicates that enlarge its radius and land on grid ticks, a
    /// noisy-fix window and a piecewise-linear track. Both must broadcast
    /// at the same instants and drop the ad at the same tick; every
    /// planned tick must be one per-tick execution needs (it broadcasts,
    /// expires the ad or has a noisy fix), and a duplicate must leave
    /// both grids equal.
    #[test]
    fn planned_ticks_are_the_ticks_per_tick_execution_needs() {
        let mut draw = SimRng::from_master(0x91a2);
        let (mut checked_plans, mut broadcasts, mut expiries) = (0, 0, 0);
        for case in 0..300 {
            let round = SimDuration::from_micros(draw.range_u64(300_000, 10_000_000));
            let p = Arc::new(GossipParams::paper().with_round_time(round));
            let annular = draw.chance(0.5);
            let centre = Point::new(2500.0, 2500.0);
            let issued = SimTime::from_secs(draw.range_f64(0.0, 100.0));
            let mut ad = Advertisement::new(
                AdId::new(PeerId(0), 0),
                centre,
                issued,
                draw.range_f64(200.0, 1500.0),
                SimDuration::from_secs(draw.range_f64(60.0, 1200.0)),
                vec![1],
                100,
                &p,
            );
            let end = issued + ad.duration.mul_f64(draw.range_f64(0.5, 2.5));
            let mut waypoints = Vec::new();
            let mut t = SimTime::ZERO;
            while t <= end {
                let spread = draw.range_f64(100.0, 2500.0);
                let at = Point::new(
                    centre.x + draw.range_f64(-spread, spread),
                    centre.y + draw.range_f64(-spread, spread),
                );
                waypoints.push((t, at));
                t += SimDuration::from_secs(draw.range_f64(5.0, 300.0));
            }
            waypoints.push((t, centre));
            let blind_from = issued + SimDuration::from_secs(draw.range_f64(0.0, 800.0));
            let blind = (
                blind_from,
                blind_from + SimDuration::from_secs(draw.range_f64(0.0, 60.0)),
            );
            let track = Track {
                waypoints,
                blind,
                end,
            };
            let key = draw.next_u64();
            let mk = |g: Gossip| Driven {
                g,
                rng: SimRng::from_master(1),
                effects: Vec::new(),
            };
            let profile = || UserProfile::new(7, vec![1]);
            let build = |p: &Arc<GossipParams>| {
                if annular {
                    Gossip::optimized(Arc::clone(p), RANGE, profile(), key)
                } else {
                    Gossip::optimized_2(Arc::clone(p), RANGE, profile(), key)
                }
            };
            let (mut ahead, mut per_tick) = (mk(build(&p)), mk(build(&p)));
            let id = ad.id;
            let sender = |draw: &mut SimRng, t: SimTime| {
                let at = track.exact(t);
                RxMeta {
                    sender_pos: Point::new(
                        at.x + draw.range_f64(-240.0, 240.0),
                        at.y + draw.range_f64(-240.0, 240.0),
                    ),
                    from: 9,
                    distance: 0.0,
                }
            };

            // First receipt.
            let t0 = issued + SimDuration::from_secs(draw.range_f64(0.0, 60.0));
            let msg = AdMessage::gossip(ad.clone());
            let meta = sender(&mut draw, t0);
            let mut queue = ahead.call(&track, true, t0, |g, c, o| g.on_receive(c, &msg, &meta, o));
            per_tick.call(&track, false, t0, |g, c, o| g.on_receive(c, &msg, &meta, o));
            let mut planned = true;
            let mut next_dup = Some(t0 + round.mul_f64(draw.range_f64(0.2, 6.0)));
            loop {
                let tick = per_tick.g.cache.get(id).map(|e| e.next_time);
                let wake = queue.iter().min().copied();
                let Some(t) = [tick, wake, next_dup].into_iter().flatten().min() else {
                    break;
                };
                if t >= end {
                    break;
                }
                // Ticks run before a duplicate at the same instant, as
                // in the world (a tick is queued a round ahead, a frame
                // milliseconds ahead).
                let before = per_tick.effects.len();
                if tick == Some(t) {
                    per_tick.call(&track, false, t, |g, c, o| g.on_entry_timer(c, id, o));
                    if !per_tick.g.holds(id) {
                        per_tick.effects.push(Effect::Expired(t));
                    }
                }
                if wake == Some(t) {
                    let at = queue.iter().position(|&w| w == t).unwrap();
                    queue.swap_remove(at);
                    match ahead.g.entry_wake(id, t) {
                        EntryWake::Drop => {}
                        EntryWake::Rearm(w) => queue.push(w),
                        EntryWake::Fire => {
                            queue.extend(
                                ahead.call(&track, true, t, |g, c, o| g.on_entry_timer(c, id, o)),
                            );
                            if !ahead.g.holds(id) {
                                ahead.effects.push(Effect::Expired(t));
                            }
                            if planned {
                                // A planned tick is one per-tick
                                // execution needs.
                                let needed = per_tick.effects.len() > before
                                    || track.blind_at(t)
                                    || !ahead.g.holds(id);
                                assert!(needed, "case {case}: idle tick {t:?} was planned");
                                checked_plans += 1;
                            }
                            planned = true;
                        }
                    }
                }
                if next_dup == Some(t) {
                    if per_tick.g.holds(id) {
                        // Now and then enlarge the radius and duration,
                        // as a copy that met more interested users would.
                        if draw.chance(0.2) {
                            ad.radius *= draw.range_f64(1.0, 1.4);
                            ad.duration = ad.duration.mul_f64(draw.range_f64(1.0, 1.1));
                        }
                        let msg = AdMessage::gossip(ad.clone());
                        let meta = sender(&mut draw, t);
                        queue.extend(
                            ahead.call(&track, true, t, |g, c, o| g.on_receive(c, &msg, &meta, o)),
                        );
                        per_tick.call(&track, false, t, |g, c, o| g.on_receive(c, &msg, &meta, o));
                        // Both hold the same pending tick (the look-ahead
                        // keeps only the grid's anchor).
                        let pending =
                            |d: &Driven| d.g.cache.get(id).map(|e| pending_tick(e, t, round));
                        assert_eq!(pending(&ahead), pending(&per_tick), "case {case} at {t:?}");
                        planned = false;
                    }
                    // The next duplicate: often exactly on a grid tick.
                    next_dup = per_tick.g.cache.get(id).map(|e| {
                        let k = draw.range_u64(0, 4) as f64;
                        if draw.chance(0.5) {
                            e.next_time + round.mul_f64(k)
                        } else {
                            t + round.mul_f64(draw.range_f64(0.1, 8.0))
                        }
                    });
                }
            }
            assert_eq!(ahead.effects, per_tick.effects, "case {case}");
            for e in &ahead.effects {
                match e {
                    Effect::Broadcast(_) => broadcasts += 1,
                    Effect::Expired(_) => expiries += 1,
                }
            }
        }
        // Not vacuous: plans were checked, and ticks broadcast and
        // expired ads.
        assert!(
            checked_plans > 1000 && broadcasts > 1000 && expiries > 50,
            "{checked_plans} planned ticks, {broadcasts} broadcasts, {expiries} expiries"
        );
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
            Gossip::optimized_2(params(), RANGE, u(), 0).kind(),
            ProtocolKind::OptGossip2
        );
        assert_eq!(
            Gossip::optimized(params(), RANGE, u(), 0).kind(),
            ProtocolKind::OptGossip
        );
    }
}
