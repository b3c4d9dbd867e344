//! Opportunistic Gossiping (§III-C) and its optimizations (§III-D).
//!
//! One implementation covers the four gossip variants; the two
//! optimization mechanisms are orthogonal flags:
//!
//! * `annular` (mechanism 1): the forwarding probability uses formula (3)
//!   once the advertisement is past its initial outward-spread warm-up,
//!   confining high-rate gossip to the rim annulus of width `DIS`.
//! * `postpone` (mechanism 2): overhearing a neighbour broadcast the same
//!   ad pushes that entry's schedule back by formula (4).
//!
//! Every entry ticks on a grid one round apart, and each tick tosses the
//! entry's coin. Without mechanism (2) all entries share the peer's one
//! round grid (Algorithms 1–2): `anchor + k·round_time`, where the
//! anchor is a phase keyed by the start instant, and an entry's first
//! tick is the first grid instant after its admission. With it, each
//! entry has its own grid, starting one round after admission and
//! restarted by every postponement (Algorithms 3–4).
//!
//! Ticks are decided ahead. A tick's coin is a keyed draw, a pure
//! function of (peer, ad, tick instant), and its position is the fix the
//! peer would read then ([`Motion::position_at`](super::Motion::position_at)). So after each tick
//! that runs, the entry walks its grid forward, evaluating each tick
//! exactly as the tick itself would, and plans one wake-up at the first
//! tick that must run: one that broadcasts, expires the ad, or cannot be
//! evaluated ahead. The ticks it skips would neither broadcast nor change
//! any state a later event reads (the grid, `next_time`, is derived on
//! demand), so the run is the one per-tick execution gives. A peer with
//! an empty cache queues nothing until its next admission.
//!
//! Each entry keeps one wake-up queued. When it pops,
//! [`Protocol::on_entry_timer`] drops it if a later one superseded it,
//! queues it again at the planned tick if the plan moved later, and runs
//! the tick only when it is due; only the tick reads the peer's
//! position. A duplicate reads it only to postpone (mechanism (2)): under
//! Algorithms 1–2 it merges the sketches and, if R or D grew, re-plans
//! from future fixes.

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
    /// This peer's key for its keyed draws: the start phase and the coin
    /// of every entry tick.
    key: u64,
    profile: UserProfile,
    cache: AdCache,
    /// Mechanism (1): annular probability.
    annular: bool,
    /// Mechanism (2): overhearing postponement.
    postpone: bool,
    /// The origin of the peer's round grid, which every entry ticks on
    /// (Algorithms 1–2); `None` under mechanism (2), where each entry
    /// keeps its own grid.
    anchor: Option<SimTime>,
}

/// The draw word of the start phase. Tick coins use the ad's id as their
/// word, and no ad's id is all ones.
const PHASE_WORD: u64 = u64::MAX;

impl Gossip {
    /// Pure Opportunistic Gossiping (Algorithms 1–2). Every draw is
    /// keyed by `key` ([`ia_des::rng::keyed_unit`]): the tick of entry
    /// `ad` at `t` broadcasts iff `keyed_unit(key, ad, t) < p`, a pure
    /// function of the tick.
    pub fn pure(params: Arc<GossipParams>, range: f64, profile: UserProfile, key: u64) -> Self {
        Self::with_flags(params, range, profile, key, false, false)
    }

    /// Gossiping + mechanism (1); `key` as for [`Gossip::pure`].
    pub fn optimized_1(
        params: Arc<GossipParams>,
        range: f64,
        profile: UserProfile,
        key: u64,
    ) -> Self {
        Self::with_flags(params, range, profile, key, true, false)
    }

    /// Gossiping + mechanism (2) (Algorithms 3–4); `key` as for
    /// [`Gossip::pure`].
    pub fn optimized_2(
        params: Arc<GossipParams>,
        range: f64,
        profile: UserProfile,
        key: u64,
    ) -> Self {
        Self::with_flags(params, range, profile, key, false, true)
    }

    /// Optimized Gossiping: both mechanisms; `key` as for
    /// [`Gossip::pure`].
    pub fn optimized(
        params: Arc<GossipParams>,
        range: f64,
        profile: UserProfile,
        key: u64,
    ) -> Self {
        Self::with_flags(params, range, profile, key, true, true)
    }

    fn with_flags(
        params: Arc<GossipParams>,
        range: f64,
        profile: UserProfile,
        key: u64,
        annular: bool,
        postpone: bool,
    ) -> Self {
        params.validate();
        postpone::validate_range(range);
        let cache = AdCache::new(params.cache_capacity);
        Gossip {
            params,
            range,
            key,
            profile,
            cache,
            annular,
            postpone,
            anchor: (!postpone).then_some(SimTime::ZERO),
        }
    }

    /// Store a new advertisement (already interest-processed), pushing
    /// the follow-up actions (accept signal unless the peer is the
    /// issuer, eviction notice, the entry's first wake-up).
    fn admit(
        &mut self,
        ctx: &mut PeerContext<'_>,
        ad: Advertisement,
        announce_accept: bool,
        out: &mut ActionSink,
    ) {
        let (now, pos) = (ctx.now, ctx.position());
        if announce_accept {
            out.push(Action::Accepted { ad: ad.id });
        }
        let p = probability(&self.params, self.annular, &ad, now, pos);
        // Algorithm 1: refresh all probabilities before an eviction
        // decision.
        self.cache.prune_expired(now);
        let (params, annular) = (&self.params, self.annular);
        self.cache
            .refresh_probabilities(|ad| probability(params, annular, ad, now, pos));
        let id = ad.id;
        // The first tick falls strictly after admission: on the peer's
        // grid, or one round out on the entry's own.
        let round = self.params.round_time;
        let next_time = match self.anchor {
            Some(anchor) => grid_tick_after(anchor, now, round),
            None => now + round,
        };
        let evicted = self.cache.insert(CacheEntry::new(ad, p, next_time));
        if let Some(evicted) = evicted {
            // `evicted == id` means the cache rejected the incoming ad
            // itself — it was never stored, so no eviction to report.
            if evicted != id {
                out.push(Action::CacheEvicted { ad: evicted });
            }
        }
        if evicted != Some(id) {
            let entry = self.cache.get_mut(id).expect("admitted entry is cached");
            plan(&self.params, self.annular, self.key, entry, ctx);
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
    key: u64,
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
        if tick_fires(key, ad.id, t, probability(params, annular, ad, t, pos)) {
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

/// The first tick strictly after `t` of the grid `origin + k·round`,
/// `k >= 0` (`origin` itself when it lies after `t`).
fn grid_tick_after(origin: SimTime, t: SimTime, round: SimDuration) -> SimTime {
    if origin > t {
        return origin;
    }
    let rounds = t.since(origin).as_micros() / round.as_micros() + 1;
    origin + SimDuration::from_micros(round.as_micros().saturating_mul(rounds))
}

/// The tick per-tick execution would hold pending at `now`: the first
/// grid tick after `now`, as every earlier one has run or been skipped,
/// but never past the planned tick, which has not run yet.
fn pending_tick(entry: &CacheEntry, now: SimTime, round: SimDuration) -> SimTime {
    grid_tick_after(entry.next_time, now, round).min(entry.wake)
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
fn tick_fires(key: u64, ad: AdId, t: SimTime, p: f64) -> bool {
    let ad = u64::from(ad.issuer.0) << 32 | u64::from(ad.seq);
    keyed_unit(key, ad, t.as_micros()) < p
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
        let now = ctx.now;
        let round = self.params.round_time;
        if let Some(anchor) = &mut self.anchor {
            // "All peers work asynchronously and the gossiping process is
            // always active": desynchronise the peer's grid with a phase
            // keyed by the start instant. A restart re-anchors it.
            let u = keyed_unit(self.key, PHASE_WORD, now.as_micros());
            *anchor = now + round.mul_f64(u);
        }
        // On a restart (device switched back on with a warm cache), re-arm
        // every entry: a wake-up that fell due during the outage was
        // dropped. Peer-grid entries resume at the new anchor; an entry
        // with its own grid at least one round out.
        self.cache.prune_expired(now);
        let (params, annular, key, anchor) = (&self.params, self.annular, self.key, self.anchor);
        for e in self.cache.iter_mut() {
            e.next_time = anchor.unwrap_or(e.next_time.max(now + round));
            plan(params, annular, key, e, ctx);
            arm(e, now, out);
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
        let now = ctx.now;
        let round = self.params.round_time;
        if let Some(entry) = self.cache.get_mut(msg.ad.id) {
            // Duplicate: absorb popularity state.
            let (radius, duration) = (entry.ad.radius, entry.ad.duration);
            entry.ad.absorb(&msg.ad);
            if self.postpone {
                // Mechanism (2): postpone this entry's next gossip
                // (Algorithm 3). The grid restarts `interval` after the
                // tick that was pending. Its first tick is not evaluated
                // ahead: the wake-up there runs it (and plans on from it),
                // so a burst of duplicates costs no look-ahead.
                let interval = postpone::postponement(
                    round,
                    ctx.position(),
                    ctx.velocity(),
                    meta.sender_pos,
                    self.range,
                );
                entry.next_time = pending_tick(entry, now, round).max(now) + interval;
                entry.wake = entry.next_time;
                arm(entry, now, out);
            } else if (entry.ad.radius, entry.ad.duration) != (radius, duration) {
                // A larger R or D changes every tick's probability from
                // the pending one on: plan again from there.
                entry.next_time = pending_tick(entry, now, round);
                plan(&self.params, self.annular, self.key, entry, ctx);
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

    fn on_entry_timer(
        &mut self,
        ctx: &mut PeerContext<'_>,
        ad: AdId,
        out: &mut ActionSink,
    ) -> EntryWake {
        // Only the entry's one queued wake-up counts; earlier ones were
        // superseded when it was queued.
        let now = ctx.now;
        let Some(entry) = self.cache.get_mut(ad).filter(|e| e.queued == now) else {
            return EntryWake::Drop;
        };
        if entry.wake > now {
            arm(entry, now, out); // the popped wake-up was the queued one
            return EntryWake::Rearm;
        }
        // Algorithms 2 and 4: one tick, then plan the next one that must
        // run.
        if entry.ad.expired(now) {
            self.cache.remove(ad);
            return EntryWake::Fire;
        }
        let pos = ctx.position();
        entry.probability = probability(&self.params, self.annular, &entry.ad, now, pos);
        // Most wake-ups lose the draw: copy the ad only to send it.
        if tick_fires(self.key, ad, now, entry.probability) {
            out.push(Action::Broadcast(AdMessage::gossip(entry.ad.clone())));
        }
        entry.next_time = now + self.params.round_time;
        plan(&self.params, self.annular, self.key, entry, ctx);
        arm(entry, now, out);
        EntryWake::Fire
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

    /// The fixed position and velocity a test peer reports.
    struct Env {
        motion: (Point, Vector),
    }

    impl Env {
        fn new() -> Self {
            Env {
                motion: (Point::ORIGIN, Vector::new(5.0, 0.0)),
            }
        }

        fn ctx(&mut self, now: f64, pos: Point) -> PeerContext<'_> {
            self.motion.0 = pos;
            PeerContext {
                now: SimTime::from_secs(now),
                motion: &mut self.motion,
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
        let mut env = Env::new();
        let round = params().round_time;
        let pos = Point::new(2600.0, 2500.0);
        // Each peer's round grid starts at a phase keyed by its start
        // instant; an empty cache queues nothing.
        let mut anchors = Vec::new();
        for key in 0..4 {
            let mut g = Gossip::pure(params(), RANGE, UserProfile::indifferent(1), key);
            let mut c = env.ctx(0.0, pos);
            assert!(ActionSink::collect(|out| g.on_start(&mut c, out)).is_empty());
            let anchor = g.anchor.expect("pure gossip has a peer grid");
            assert!(anchor < SimTime::ZERO + round);
            anchors.push(anchor);
            // Two ads admitted at different instants tick on that grid,
            // each first strictly after its admission.
            for (seq, at) in [(0, 20.0), (1, 23.0)] {
                let msg = AdMessage::gossip(mk_ad(seq));
                let mut c = env.ctx(at, pos);
                let a = ActionSink::collect(|out| g.on_receive(&mut c, &msg, &meta_at(pos), out));
                let tick = g.cache.get(msg.ad.id).unwrap().next_time;
                let admitted = SimTime::from_secs(at);
                assert!(tick > admitted && tick <= admitted + round, "{tick:?}");
                assert_eq!(tick.since(anchor).as_micros() % round.as_micros(), 0);
                assert!(a.iter().any(|a| matches!(a, Action::ScheduleEntry { .. })));
            }
        }
        anchors.dedup();
        assert_eq!(anchors.len(), 4, "peers must not share a phase");
    }

    #[test]
    fn opt2_has_no_global_round() {
        // Each entry keeps its own grid: its first tick is one round
        // after admission, whatever the peer's key or start instant.
        for key in 0..4 {
            let mut env = Env::new();
            let mut g = Gossip::optimized_2(params(), RANGE, UserProfile::indifferent(1), key);
            let mut c = env.ctx(0.0, Point::ORIGIN);
            assert!(ActionSink::collect(|out| g.on_start(&mut c, out)).is_empty());
            assert_eq!(g.anchor, None);
            let msg = AdMessage::gossip(mk_ad(0));
            let pos = Point::new(2600.0, 2500.0);
            let mut c = env.ctx(20.0, pos);
            ActionSink::collect(|out| g.on_receive(&mut c, &msg, &meta_at(pos), out));
            let next = g.cache.get(msg.ad.id).unwrap().next_time;
            assert_eq!(next, SimTime::from_secs(25.0));
        }
    }

    #[test]
    fn issue_broadcasts_immediately_and_caches() {
        let mut env = Env::new();
        let mut g = Gossip::pure(params(), RANGE, UserProfile::indifferent(1), 0);
        let mut c = env.ctx(10.0, Point::new(2500.0, 2500.0));
        let actions = ActionSink::collect(|out| g.issue(&mut c, mk_ad(0), out));
        assert!(matches!(actions[0], Action::Broadcast(_)));
        assert!(g.holds(AdId::new(PeerId(0), 0)));
    }

    #[test]
    fn new_ad_is_accepted_and_cached() {
        let mut env = Env::new();
        let mut g = Gossip::pure(params(), RANGE, UserProfile::indifferent(1), 0);
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

    /// Run `n` consecutive ticks of entry `id` (the context's fixed
    /// motion predicts nothing, so every grid tick runs) and count the
    /// broadcasts.
    fn tick_broadcasts(g: &mut Gossip, env: &mut Env, id: AdId, pos: Point, n: usize) -> usize {
        let mut broadcasts = 0;
        for _ in 0..n {
            let t = g.cache.get(id).expect("entry cached").wake;
            let mut c = env.ctx(t.as_secs(), pos);
            let actions = ActionSink::collect(|out| {
                assert_eq!(g.on_entry_timer(&mut c, id, out), EntryWake::Fire);
            });
            broadcasts += actions
                .iter()
                .filter(|a| matches!(a, Action::Broadcast(_)))
                .count();
        }
        broadcasts
    }

    #[test]
    fn round_broadcasts_cached_ads_with_high_probability_inside_area() {
        let mut env = Env::new();
        let mut g = Gossip::pure(params(), RANGE, UserProfile::indifferent(1), 0);
        let pos = Point::new(2550.0, 2500.0); // 50 m from centre: P ~ 1
        let msg = AdMessage::gossip(mk_ad(0));
        let mut c0 = env.ctx(0.0, pos);
        ActionSink::collect(|out| g.on_start(&mut c0, out));
        let mut c = env.ctx(20.0, pos);
        ActionSink::collect(|out| {
            g.on_receive(&mut c, &msg, &meta_at(Point::new(2500.0, 2500.0)), out)
        });
        let broadcasts = tick_broadcasts(&mut g, &mut env, msg.ad.id, pos, 20);
        assert!(broadcasts >= 18, "P~1 inside the area, got {broadcasts}/20");
    }

    #[test]
    fn round_rarely_broadcasts_far_outside_area() {
        let mut env = Env::new();
        let mut g = Gossip::pure(params(), RANGE, UserProfile::indifferent(1), 0);
        let pos = Point::new(4500.0, 2500.0); // 2000 m out: P ~ 0.5*0.5^10
        let msg = AdMessage::gossip(mk_ad(0));
        let mut c0 = env.ctx(0.0, pos);
        ActionSink::collect(|out| g.on_start(&mut c0, out));
        let mut c = env.ctx(20.0, pos);
        ActionSink::collect(|out| {
            g.on_receive(&mut c, &msg, &meta_at(Point::new(4400.0, 2500.0)), out)
        });
        let broadcasts = tick_broadcasts(&mut g, &mut env, msg.ad.id, pos, 50);
        assert!(broadcasts <= 2, "P~0 outside, got {broadcasts}/50");
    }

    #[test]
    fn opt1_suppresses_interior_after_warmup() {
        let mut env = Env::new();
        let mut g = Gossip::optimized_1(params(), RANGE, UserProfile::indifferent(1), 0);
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
        let mut env = Env::new();
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
        let mut env = Env::new();
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
        let mut c3 = env.ctx(before.as_secs(), pos);
        let rearmed = ActionSink::collect(|out| {
            assert_eq!(g.on_entry_timer(&mut c3, msg.ad.id, out), EntryWake::Rearm);
        });
        assert_eq!(
            rearmed,
            [Action::ScheduleEntry {
                ad: msg.ad.id,
                at: after
            }]
        );
    }

    #[test]
    fn opt2_closer_sender_postpones_more() {
        let pos = Point::new(2600.0, 2500.0);
        let run = |sender: Point| -> SimTime {
            let mut env = Env::new();
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
            let mut env = Env::new();
            let mut g = Gossip::optimized_2(params(), range, UserProfile::indifferent(1), 0);
            let msg = AdMessage::gossip(mk_ad(0));
            let mut c = env.ctx(20.0, pos);
            ActionSink::collect(|out| g.on_receive(&mut c, &msg, &meta_at(sender), out));
            let before = g.cache.get(msg.ad.id).unwrap().next_time;
            let mut c2 = env.ctx(21.0, pos);
            ActionSink::collect(|out| g.on_receive(&mut c2, &msg, &meta_at(sender), out));
            let after = g.cache.get(msg.ad.id).unwrap().next_time;
            let interval =
                postpone::postponement(params().round_time, pos, env.motion.1, sender, range);
            assert_eq!(after, before + interval, "range {range}");
            interval
        };
        assert_ne!(postponed(250.0), postponed(300.0));
    }

    #[test]
    fn opt2_stale_timer_is_ignored_fresh_timer_fires() {
        let mut env = Env::new();
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
        // The original 25 s wake-up is now early: it only re-arms at the
        // postponed tick. A second copy of it is stale and does nothing.
        let mut timer = |now: SimTime, wake: EntryWake| {
            let mut c = PeerContext {
                now,
                motion: &mut (pos, Vector::ZERO),
            };
            ActionSink::collect(|out| assert_eq!(g.on_entry_timer(&mut c, msg.ad.id, out), wake))
        };
        let early = SimTime::from_secs(25.0);
        let id = msg.ad.id;
        let rearm = [Action::ScheduleEntry {
            ad: id,
            at: scheduled,
        }];
        assert_eq!(timer(early, EntryWake::Rearm), rearm);
        assert!(timer(early, EntryWake::Drop).is_empty());
        // The postponed wake-up fires and reschedules.
        let actions = timer(scheduled, EntryWake::Fire);
        assert!(actions
            .iter()
            .any(|a| matches!(a, Action::ScheduleEntry { .. })));
    }

    #[test]
    fn opt2_expired_entry_is_dropped_on_timer() {
        let mut env = Env::new();
        let mut g = Gossip::optimized_2(params(), RANGE, UserProfile::indifferent(1), 0);
        let msg = AdMessage::gossip(mk_ad(0));
        let pos = Point::new(2600.0, 2500.0);
        let mut c = env.ctx(20.0, pos);
        ActionSink::collect(|out| {
            g.on_receive(&mut c, &msg, &meta_at(Point::new(2550.0, 2500.0)), out)
        });
        // Force the entry's schedule into the deep future then fire after
        // expiry.
        let late = SimTime::from_secs(3000.0);
        let e = g.cache.get_mut(msg.ad.id).unwrap();
        (e.next_time, e.wake, e.queued) = (late, late, late);
        let mut c2 = env.ctx(3000.0, pos);
        let actions = ActionSink::collect(|out| {
            assert_eq!(g.on_entry_timer(&mut c2, msg.ad.id, out), EntryWake::Fire);
        });
        assert!(actions.is_empty());
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

    /// The motion a world would give over a [`Track`] at an instant.
    struct TrackMotion<'a>(&'a Track, SimTime);

    impl Motion for TrackMotion<'_> {
        fn position(&mut self) -> Point {
            self.0.observed(self.1)
        }

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

    /// One peer under test, its queued wake-ups and the effects of the
    /// ticks it ran.
    struct Driven {
        g: Gossip,
        queue: Vec<SimTime>,
        effects: Vec<Effect>,
    }

    impl Driven {
        /// Run one callback at `t` with the track's fix, logging its
        /// broadcasts and queueing the wake-ups it scheduled.
        fn call<R>(
            &mut self,
            track: &Track,
            look_ahead: bool,
            t: SimTime,
            f: impl FnOnce(&mut Gossip, &mut PeerContext<'_>, &mut ActionSink) -> R,
        ) -> R {
            let mut fixed = (track.observed(t), Vector::new(3.0, -2.0));
            let mut along = TrackMotion(track, t);
            let mut ctx = PeerContext {
                now: t,
                motion: if look_ahead { &mut along } else { &mut fixed },
            };
            let mut result = None;
            let actions = ActionSink::collect(|out| result = Some(f(&mut self.g, &mut ctx, out)));
            for a in actions {
                match a {
                    Action::Broadcast(_) => self.effects.push(Effect::Broadcast(t)),
                    Action::ScheduleEntry { at, .. } => self.queue.push(at),
                    _ => {}
                }
            }
            result.expect("the callback ran")
        }

        /// Pop one of the peer's wake-ups due at `t`, if any, and run it.
        fn pop(
            &mut self,
            track: &Track,
            look_ahead: bool,
            id: AdId,
            t: SimTime,
        ) -> Option<EntryWake> {
            let at = self.queue.iter().position(|&w| w == t)?;
            self.queue.swap_remove(at);
            let wake = self.call(track, look_ahead, t, |g, c, o| g.on_entry_timer(c, id, o));
            if wake == EntryWake::Fire && !self.g.holds(id) {
                self.effects.push(Effect::Expired(t));
            }
            Some(wake)
        }
    }

    /// What [`drive_planned_ticks`] checked, summed over its cases.
    #[derive(Debug, Default)]
    struct PlanCounts {
        checked_plans: u32,
        broadcasts: u32,
        expiries: u32,
        restarts: u32,
    }

    /// The look-ahead plans exactly the ticks per-tick execution needs.
    /// Two peers of one of `kinds` hold the same ad and hear the same
    /// duplicates and restarts, and each runs every wake-up it queued:
    /// one plans every tick of its grid (its motion predicts nothing), the
    /// other only the ticks its look-ahead must run. Cases draw the round time, the
    /// kind, the start instant (the peer grid's anchor), the ad (an age
    /// crossing `OPT1_WARMUP`, expiry within the scan), duplicates that
    /// enlarge its radius and land on grid ticks, restarts, a noisy-fix
    /// window and a piecewise-linear track. Both must broadcast at the
    /// same instants and drop the ad at the same tick; every planned tick
    /// must be one per-tick execution needs (it broadcasts, expires the ad
    /// or has a noisy fix) and lie on the peer's grid when it has one, and
    /// a duplicate or restart must leave both grids equal.
    fn drive_planned_ticks(kinds: [ProtocolKind; 2], seed: u64, cases: u32) -> PlanCounts {
        let mut draw = SimRng::from_master(seed);
        let mut counts = PlanCounts::default();
        for case in 0..cases {
            let round = SimDuration::from_micros(draw.range_u64(300_000, 10_000_000));
            let p = Arc::new(GossipParams::paper().with_round_time(round));
            let kind = kinds[draw.range_u64(0, 2) as usize];
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
            let build = || {
                let (params, profile) = (Arc::clone(&p), UserProfile::new(7, vec![1]));
                let g = match kind {
                    ProtocolKind::Gossip => Gossip::pure(params, RANGE, profile, key),
                    ProtocolKind::OptGossip1 => Gossip::optimized_1(params, RANGE, profile, key),
                    ProtocolKind::OptGossip2 => Gossip::optimized_2(params, RANGE, profile, key),
                    ProtocolKind::OptGossip => Gossip::optimized(params, RANGE, profile, key),
                    ProtocolKind::Flooding => unreachable!("not a gossip kind"),
                };
                Driven {
                    g,
                    queue: Vec::new(),
                    effects: Vec::new(),
                }
            };
            let (mut ahead, mut per_tick) = (build(), build());
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
            // Both hold the same pending tick (the look-ahead keeps only
            // the grid's anchor).
            let same_pending = |ahead: &Driven, per_tick: &Driven, t: SimTime| {
                let pending = |d: &Driven| d.g.cache.get(id).map(|e| pending_tick(e, t, round));
                assert_eq!(pending(ahead), pending(per_tick), "case {case} at {t:?}");
            };

            // Start (anchoring the peer grid, if any), then first receipt.
            let started = SimTime::from_secs(draw.range_f64(0.0, 100.0));
            let t0 = issued.max(started) + SimDuration::from_secs(draw.range_f64(0.0, 60.0));
            ahead.call(&track, true, started, |g, c, o| g.on_start(c, o));
            per_tick.call(&track, false, started, |g, c, o| g.on_start(c, o));
            let msg = AdMessage::gossip(ad.clone());
            let meta = sender(&mut draw, t0);
            ahead.call(&track, true, t0, |g, c, o| g.on_receive(c, &msg, &meta, o));
            per_tick.call(&track, false, t0, |g, c, o| g.on_receive(c, &msg, &meta, o));
            let mut planned = true;
            let mut next_dup = Some(t0 + round.mul_f64(draw.range_f64(0.2, 6.0)));
            let mut next_restart = t0 + round.mul_f64(draw.range_f64(0.5, 80.0));
            loop {
                let wakes = per_tick.queue.iter().chain(&ahead.queue).min().copied();
                let Some(t) = [wakes, next_dup, Some(next_restart)]
                    .into_iter()
                    .flatten()
                    .min()
                else {
                    break;
                };
                if t >= end || !(per_tick.g.holds(id) || ahead.g.holds(id)) {
                    break;
                }
                // Ticks run before a duplicate or restart at the same
                // instant, as ranked wake-ups do in the world; a tick
                // queues nothing at its own instant.
                let before = per_tick.effects.len();
                while per_tick.pop(&track, false, id, t).is_some() {}
                while let Some(wake) = ahead.pop(&track, true, id, t) {
                    if wake != EntryWake::Fire {
                        continue;
                    }
                    if let Some(anchor) = ahead.g.anchor {
                        let off = t.since(anchor).as_micros();
                        assert!(
                            t >= anchor && off % round.as_micros() == 0,
                            "case {case}: {t:?} is off the grid"
                        );
                    }
                    if planned {
                        // A planned tick is one per-tick execution needs.
                        let needed = per_tick.effects.len() > before
                            || track.blind_at(t)
                            || !ahead.g.holds(id);
                        assert!(needed, "case {case}: idle tick {t:?} was planned");
                        counts.checked_plans += 1;
                    }
                    planned = true;
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
                        ahead.call(&track, true, t, |g, c, o| g.on_receive(c, &msg, &meta, o));
                        per_tick.call(&track, false, t, |g, c, o| g.on_receive(c, &msg, &meta, o));
                        same_pending(&ahead, &per_tick, t);
                        // A postponed grid's first tick is not evaluated
                        // ahead; a re-planned peer-grid entry's is.
                        planned = !ahead.g.postpone;
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
                if next_restart == t {
                    // Switched off and on again: the grid re-anchors, and
                    // wake-ups queued before stay in the queue.
                    ahead.call(&track, true, t, |g, c, o| g.on_start(c, o));
                    per_tick.call(&track, false, t, |g, c, o| g.on_start(c, o));
                    same_pending(&ahead, &per_tick, t);
                    planned = true;
                    counts.restarts += 1;
                    next_restart = t + round.mul_f64(draw.range_f64(0.5, 80.0));
                }
            }
            assert_eq!(ahead.effects, per_tick.effects, "case {case}");
            for e in &ahead.effects {
                match e {
                    Effect::Broadcast(_) => counts.broadcasts += 1,
                    Effect::Expired(_) => counts.expiries += 1,
                }
            }
        }
        counts
    }

    /// Optimized Gossiping(-2): every entry keeps its own grid, restarted
    /// by each postponement.
    #[test]
    fn planned_ticks_are_the_ticks_per_tick_execution_needs() {
        let kinds = [ProtocolKind::OptGossip, ProtocolKind::OptGossip2];
        let c = drive_planned_ticks(kinds, 0x91a2, 300);
        // Not vacuous: plans were checked, and ticks broadcast and
        // expired ads.
        assert!(
            c.checked_plans > 1000 && c.broadcasts > 1000 && c.expiries > 50 && c.restarts > 50,
            "{c:?}"
        );
    }

    /// Gossiping and Optimized Gossiping-1: every entry ticks on the
    /// peer's one round grid, anchored by a keyed phase at each (re)start;
    /// a duplicate that enlarges R or D re-plans from the pending tick.
    #[test]
    fn planned_ticks_on_the_peer_grid_are_the_ticks_per_tick_execution_needs() {
        let kinds = [ProtocolKind::Gossip, ProtocolKind::OptGossip1];
        let c = drive_planned_ticks(kinds, 0x6e1d, 300);
        assert!(
            c.checked_plans > 1000 && c.broadcasts > 1000 && c.expiries > 50 && c.restarts > 50,
            "{c:?}"
        );
    }

    #[test]
    fn cache_eviction_respects_capacity() {
        let mut env = Env::new();
        let p = Arc::new(GossipParams::paper().with_cache_capacity(3));
        let mut g = Gossip::pure(p, RANGE, UserProfile::indifferent(1), 0);
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
        let mut env = Env::new();
        let mut g = Gossip::pure(params(), RANGE, UserProfile::indifferent(1), 0);
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
        let mut env = Env::new();
        let mut g = Gossip::pure(params(), RANGE, UserProfile::new(7, vec![1]), 0);
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
            Gossip::pure(params(), RANGE, u(), 0).kind(),
            ProtocolKind::Gossip
        );
        assert_eq!(
            Gossip::optimized_1(params(), RANGE, u(), 0).kind(),
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
