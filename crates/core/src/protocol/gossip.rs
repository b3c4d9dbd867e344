//! Opportunistic Gossiping (§III-C) and its optimizations (§III-D).
//!
//! One implementation covers the four gossip variants, which
//! [`Gossip::new`] builds from their [`ProtocolKind`]; the two
//! optimization mechanisms are orthogonal:
//!
//! * mechanism (1), `annular`: the forwarding probability uses formula
//!   (3) once the advertisement is past its initial outward-spread
//!   warm-up, confining high-rate gossip to the rim annulus of width
//!   `DIS`.
//! * mechanism (2), no peer grid (`anchor` is `None`): overhearing a
//!   neighbour broadcast the same ad pushes that entry's schedule back by
//!   formula (4).
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
//! Most ticks it skips lie far outside the advertising area, where the
//! probability is nearly 0, and those cost no fix: from the last exact
//! fix outside the ad's radius and a bound on how far the peer can have
//! drifted since ([`Motion::max_drift`](super::Motion::max_drift)), a
//! tick whose coin is at least the largest probability the peer could
//! have there is decided without reading its position. A tick the bound
//! cannot decide is evaluated exactly, so the decision never changes.
//!
//! Each entry keeps one wake-up queued. When it pops,
//! [`Protocol::on_entry_timer`] drops it if a later one superseded it,
//! queues it again at the planned tick if the plan moved later, and runs
//! the tick only when it is due; only the tick reads the peer's
//! position. A duplicate reads it only to postpone (mechanism (2)): under
//! Algorithms 1–2 it merges the sketches and, if R or D grew, re-plans
//! from future fixes.
//!
//! Most duplicates are settled when their frame is sent
//! ([`Protocol::on_copy_sent`]): under Algorithms 1–2 a covered copy is
//! skipped, and under Algorithms 3–4 a postponement whose outcome is
//! already fixed is applied then, from the fix and velocity at its arrival.

use super::{
    Action, ActionSink, AdMessage, CopyFate, EntryWake, PeerContext, Protocol, ProtocolKind, RxMeta,
};
use crate::ad::Advertisement;
use crate::cache::{AdCache, CacheEntry};
use crate::ids::AdId;
use crate::interest::UserProfile;
use crate::params::{
    GossipParams, SharedParams, INTERIOR_UNIT, OPT1_WARMUP, OUTSIDE_UNIT, PROB_UNIT,
};
use crate::postpone;
use crate::prob;
use crate::rank;
use ia_des::{rng::keyed_unit, SimDuration, SimTime};
use ia_geo::Point;
use std::sync::Arc;

/// The gossip family: pure, optimized-1, optimized-2, or both.
pub struct Gossip {
    /// The run's parameters, shared by every peer.
    params: Arc<SharedParams>,
    /// The radio's transmission range, metres (formula 4).
    range: f64,
    /// This peer's key for its keyed draws: the start phase and the coin
    /// of every entry tick.
    key: u64,
    profile: UserProfile,
    cache: AdCache,
    /// Mechanism (1): annular probability.
    annular: bool,
    /// The origin of the peer's round grid, which every entry ticks on
    /// (Algorithms 1–2); `None` under mechanism (2), overhearing
    /// postponement, where each entry keeps its own grid.
    anchor: Option<SimTime>,
}

/// The draw word of the start phase. Tick coins use the ad's id as their
/// word, and no ad's id is all ones.
const PHASE_WORD: u64 = u64::MAX;

impl Gossip {
    /// The gossip variant `kind`: Gossiping (Algorithms 1–2), with
    /// mechanism (1) for Optimized Gossiping-1, mechanism (2) for
    /// Optimized Gossiping-2 (Algorithms 3–4), both for Optimized
    /// Gossiping. Every draw is keyed by `key`
    /// ([`ia_des::rng::keyed_unit`]): the tick of entry `ad` at `t`
    /// broadcasts iff `keyed_unit(key, ad, t) < p`, a pure function of the
    /// tick.
    ///
    /// # Panics
    ///
    /// On [`ProtocolKind::Flooding`], which is not a gossip variant.
    pub fn new(
        kind: ProtocolKind,
        params: Arc<SharedParams>,
        range: f64,
        profile: UserProfile,
        key: u64,
    ) -> Self {
        let (annular, postpones) = match kind {
            ProtocolKind::Gossip => (false, false),
            ProtocolKind::OptGossip1 => (true, false),
            ProtocolKind::OptGossip2 => (false, true),
            ProtocolKind::OptGossip => (true, true),
            ProtocolKind::Flooding => panic!("Restricted Flooding is not a gossip variant"),
        };
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
            anchor: (!postpones).then_some(SimTime::ZERO),
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
///
/// Most skipped ticks lose their coin by far, so they are decided from a
/// cheap upper bound on the probability ([`TickBounds`]), and only a tick
/// the bound cannot decide evaluates formula (1) or (3) exactly. Far
/// outside the advertising area the bound needs no fix: from the last
/// exact fix outside the ad's radius, at `t0` and distance `d0`, the peer
/// is at least `d_lo = d0 - max_drift(t0, t) - margin` from the issue
/// position at `t`, and the tail bound at `d_lo` decides the tick. Either
/// way the decision is the one the tick makes.
fn plan(
    params: &SharedParams,
    annular: bool,
    key: u64,
    entry: &mut CacheEntry,
    ctx: &mut PeerContext<'_>,
) {
    let ad = &entry.ad;
    let mut bounds = TickBounds::new(params, annular);
    let mut t = entry.next_time;
    // The last exact fix outside `R`: its instant, its distance from the
    // issue position and the magnitude of the coordinates behind it.
    let mut outside: Option<(SimTime, f64, f64)> = None;
    entry.wake = loop {
        if ad.expired(t) {
            break t;
        }
        let u = tick_unit(key, ad.id, t);
        let decided = outside.is_some_and(|(t0, d0, scale)| {
            ctx.motion.max_drift(t0, t).is_some_and(|drift| {
                let d_lo = d0 - drift - drift_margin(scale + drift);
                d_lo > ad.radius && bounds.tail_loses(u, d_lo, ad.radius)
            })
        });
        if !decided {
            let Some(pos) = ctx.motion.position_at(t) else {
                break t;
            };
            let d = pos.distance(ad.issue_pos);
            if !bounds.loses(params, ad, t, d, u) && u < probability_at(params, annular, ad, t, d) {
                break t;
            }
            if d > ad.radius {
                let scale = pos.x.abs() + pos.y.abs() + ad.issue_pos.x.abs() + ad.issue_pos.y.abs();
                outside = Some((t, d, scale));
            }
        }
        let next = t + params.round_time;
        if next == t {
            break t; // the clock saturated
        }
        t = next;
    };
}

/// What a lower bound on the distance from the issue position must leave
/// for rounding, metres, when the coordinates behind it are of magnitude
/// at most `scale` (the last exact fix's and the issue position's, plus
/// the drift since, which bounds how much larger the later fix's are).
///
/// `d_lo` stands in for a distance the tick would compute from its own
/// fix. Between the two lie: the fix at `t0` and the one at `t` each a
/// few rounding steps away from the trajectory (a leg's interpolation),
/// the two distances each a few steps away from the exact ones (two
/// differences, a square root), `max_drift`'s own product, and the two
/// subtractions that form `d_lo`. Each step errs by at most one unit in
/// the last place, 2⁻⁵² relative to the magnitudes it combines, so a
/// relative term of 10⁻⁹ covers them over 10⁶ times at any field size.
/// The absolute metre covers what is not relative to those magnitudes:
/// an interpolation's error relative to its leg's far endpoint (about
/// 10⁻⁴ m on a 10¹² m field) and legs that meet within `Trajectory`'s
/// 10⁻⁶ m continuity tolerance.
fn drift_margin(scale: f64) -> f64 {
    1.0 + 1e-9 * scale
}

/// The ticks of one look-ahead over which `R_t` is bounded below by its
/// value at the last of them.
const RADIUS_WINDOW: u64 = 32;

/// Cheap upper bounds on a tick's forwarding probability, each of the
/// form `factor·alpha^x`, compared with the tick's coin `u` in the log
/// domain ([`loses_to`]): at most one `ln(u)` per bound, no `powf`. A
/// bound only ever decides that a tick does not fire; a tick it cannot
/// decide is evaluated exactly.
///
/// * **Tail** (`d > R`): the age-shrunk radius `R_t` never exceeds `R`,
///   so `d > R_t`: formula (1) is on its outside branch, and formula (3)
///   on its annulus/exterior branch, which is formula (1) with the same
///   `R_t`. Both give `(1 - alpha)·alpha^((d - R_t)/OUTSIDE_UNIT)` (or 0
///   once `R_t` has collapsed), at most
///   `(1 - alpha)·alpha^((d - R)/OUTSIDE_UNIT)`.
/// * **Interior** (formula (3) past `OPT1_WARMUP`, `d < R_lo - DIS`):
///   `R_t` does not grow with age, and `R` and `D` stay fixed during one
///   look-ahead, so `R_t` at the end of a window of at most
///   [`RADIUS_WINDOW`] ticks, less a rounding term, is a lower bound
///   `R_lo` on `R_t` at every tick of the window. Then
///   `d < R_lo - DIS <= R_t - DIS`, so formula (3) is on its interior
///   branch, `rim·alpha^((R_t - DIS - d)/INTERIOR_UNIT)`, at most
///   `rim·alpha^((R_lo - DIS - d)/INTERIOR_UNIT)`.
///
/// The exponents are formed with the same rounded steps as the formulas'
/// own from operands no larger (rounding is monotone), so they stay at
/// most the formulas'. [`loses_to`] covers the rest of the rounding.
struct TickBounds {
    ln_alpha: f64,
    /// `ln(1 - alpha)`, the tail's factor.
    ln_tail: f64,
    /// `ln(rim)`, formula (3)'s interior factor, if it applies.
    ln_rim: Option<f64>,
    /// The interior bound's window: its last tick, and `R_lo - DIS`.
    window: Option<(SimTime, f64)>,
}

impl TickBounds {
    /// The bounds of one look-ahead, from the run's logarithms.
    fn new(params: &SharedParams, annular: bool) -> Self {
        TickBounds {
            ln_alpha: params.ln_alpha,
            ln_tail: params.ln_tail,
            ln_rim: annular.then_some(params.ln_rim),
            window: None,
        }
    }

    /// Does a bound decide that the tick at `t`, at distance `d` from the
    /// issue position, with coin `u`, does not fire?
    fn loses(
        &mut self,
        params: &GossipParams,
        ad: &Advertisement,
        t: SimTime,
        d: f64,
        u: f64,
    ) -> bool {
        if d > ad.radius {
            return self.tail_loses(u, d, ad.radius);
        }
        let Some(ln_rim) = self.ln_rim.filter(|_| ad.age(t) > OPT1_WARMUP) else {
            return false;
        };
        let inner_lo = match self.window {
            Some((last, inner_lo)) if t <= last => inner_lo,
            _ => {
                // At most half the ad's remaining life ahead, so the
                // windows shrink as `R_t` collapses towards expiry.
                let rounds = params
                    .round_time
                    .as_micros()
                    .saturating_mul(RADIUS_WINDOW - 1);
                let half_life = (ad.issue_time + ad.duration).since(t).as_micros() / 2;
                let last = t + SimDuration::from_micros(rounds.min(half_life));
                // Powers round to within an ulp of exact, so `R_t` is
                // monotone only to within a few ulps of `R`.
                let r_lo = ad.radius_at(last, params) - 1e-12 * ad.radius;
                self.window = Some((last, r_lo - params.dis));
                r_lo - params.dis
            }
        };
        d < inner_lo && loses_to(u, ln_rim, (inner_lo - d) / INTERIOR_UNIT, self.ln_alpha)
    }

    /// The tail bound at `d > radius`, or at a lower bound on `d`.
    fn tail_loses(&self, u: f64, d: f64, radius: f64) -> bool {
        loses_to(u, self.ln_tail, (d - radius) / OUTSIDE_UNIT, self.ln_alpha)
    }
}

/// Is the coin `u` at least every probability that rounds from
/// `factor·alpha^x`, given `ln_factor`, `x >= 0` and `ln_alpha`?
///
/// The comparison is in the log domain. A positive coin in
/// `[2^e, 2^(e+1))` has `e·ln 2 <= ln(u) < (e+1)·ln 2`, so its binary
/// exponent decides most ticks without a logarithm: the coin clears the
/// bound if `e·ln 2` does, and cannot if `(e+1)·ln 2` does not (refusing
/// only sends the tick to the exact evaluation). A coin of 0 never
/// clears. Both logs are at most 0, so the terms summed into `ln_bound`
/// share a sign, and every rounded step (the `ln`s, the products and
/// sums here; `powf`, the factor's product and `ln(u)` on the other
/// side) errs by a few units in the last place relative to
/// `|ln_bound| + |ln_u|`, or by a few relative to the probability
/// itself: the slack of 10⁻¹² in [`clears`] covers both over 10³ times.
/// A probability in the subnormal range errs by less than 2⁻¹⁰⁷⁰, far
/// below the slack on a positive coin, which is at least 2⁻⁵³
/// ([`keyed_unit`]). NaN never decides.
fn loses_to(u: f64, ln_factor: f64, x: f64, ln_alpha: f64) -> bool {
    debug_assert!(u == 0.0 || u >= f64::EPSILON / 2.0, "no coin: {u}");
    if u <= 0.0 {
        return false;
    }
    let ln_bound = ln_factor + x * ln_alpha;
    let exponent = ((u.to_bits() >> 52) & 0x7ff) as f64 - 1023.0;
    let floor = exponent * std::f64::consts::LN_2;
    clears(floor, ln_bound)
        || (floor + std::f64::consts::LN_2 >= ln_bound && clears(u.ln(), ln_bound))
}

/// Does a coin whose log is at least `ln_u` beat every probability that
/// rounds from a bound whose log is `ln_bound`, with the slack
/// [`loses_to`] derives?
fn clears(ln_u: f64, ln_bound: f64) -> bool {
    ln_u - ln_bound > 1e-12 * (1.0 - ln_u - ln_bound)
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

/// Mechanism (2): postpone the entry's next gossip (Algorithm 3) for a
/// duplicate heard now from `sender_pos`. The grid restarts `interval`
/// after the tick that was pending. Its first tick is not evaluated
/// ahead: the wake-up there runs it (and plans on from it), so a burst of
/// duplicates costs no look-ahead.
fn postpone_entry(
    entry: &mut CacheEntry,
    ctx: &mut PeerContext<'_>,
    sender_pos: Point,
    round: SimDuration,
    range: f64,
) {
    let now = ctx.now;
    let interval = postpone::postponement(round, ctx.position(), ctx.velocity(), sender_pos, range);
    entry.next_time = pending_tick(entry, now, round).max(now) + interval;
    entry.wake = entry.next_time;
}

/// `Gossip::on_copy_sent` under mechanism (2): apply the duplicate as
/// `on_receive` would at the arrival, if that is settled. Out of line, so
/// the common covered answer stays a small call.
#[inline(never)]
fn apply_settled(
    entry: &mut CacheEntry,
    ctx: &mut PeerContext<'_>,
    msg: &AdMessage,
    sender_pos: Point,
    arrives: bool,
    round: SimDuration,
    range: f64,
) -> CopyFate {
    let arrival = ctx.now;
    let settled = arrives
        && arrival < entry.queued
        && entry.queued <= entry.next_time
        && msg.ad.duration <= entry.ad.duration
        && !msg.ad.expired(arrival)
        && !entry.ad.expired(arrival);
    if !settled {
        return CopyFate::Queue;
    }
    entry.ad.absorb(&msg.ad);
    postpone_entry(entry, ctx, sender_pos, round, range);
    // `arm` would queue nothing: the queued wake-up still pops after the
    // arrival and no later than the planned tick.
    debug_assert!(arrival < entry.queued && entry.queued <= entry.wake);
    CopyFate::Applied
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
    probability_at(params, annular, ad, now, pos.distance(ad.issue_pos))
}

/// [`probability`] for a peer at distance `d` from the issue position.
fn probability_at(
    params: &GossipParams,
    annular: bool,
    ad: &Advertisement,
    now: SimTime,
    d: f64,
) -> f64 {
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
    tick_unit(key, ad, t) < p
}

/// The keyed coin of entry `ad`'s tick at `t`, in `[0, 1)`.
fn tick_unit(key: u64, ad: AdId, t: SimTime) -> f64 {
    let ad = u64::from(ad.issuer.0) << 32 | u64::from(ad.seq);
    keyed_unit(key, ad, t.as_micros())
}

impl Protocol for Gossip {
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
            if self.anchor.is_none() {
                postpone_entry(entry, ctx, meta.sender_pos, round, self.range);
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

    /// Without mechanism (2), skip a copy the cached one covers and that
    /// was issued no later. With it, apply the duplicate if the arrival
    /// runs, neither copy has expired by then, the message's `D` is no
    /// larger and the entry's queued wake-up falls after the arrival and
    /// no later than `next_time`: `on_receive` then only absorbs and adds
    /// its postponement, and queues nothing (DESIGN.md §10).
    fn on_copy_sent(
        &mut self,
        ctx: &mut PeerContext<'_>,
        msg: &AdMessage,
        meta: &RxMeta,
        arrives: bool,
    ) -> CopyFate {
        if msg.flood.is_some() {
            return CopyFate::Queue;
        }
        if self.anchor.is_some() {
            let covered = self
                .cache
                .get(msg.ad.id)
                .is_some_and(|e| e.ad.issue_time >= msg.ad.issue_time && e.ad.covers(&msg.ad));
            return if covered {
                CopyFate::Skip
            } else {
                CopyFate::Queue
            };
        }
        let Some(entry) = self.cache.get_mut(msg.ad.id) else {
            return CopyFate::Queue;
        };
        let round = self.params.round_time;
        apply_settled(entry, ctx, msg, meta.sender_pos, arrives, round, self.range)
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
    use ia_des::SimDuration;
    use ia_geo::Vector;
    use proptest::prelude::*;

    /// The paper's radio range, metres.
    const RANGE: f64 = 250.0;

    fn params() -> Arc<SharedParams> {
        GossipParams::paper().shared()
    }

    /// A peer of the gossip variant `kind`, with the paper's parameters
    /// and range and an indifferent user, drawing with `key`.
    fn peer(kind: ProtocolKind, key: u64) -> Gossip {
        Gossip::new(kind, params(), RANGE, UserProfile::indifferent(1), key)
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
            let mut g = peer(ProtocolKind::Gossip, key);
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
            let mut g = peer(ProtocolKind::OptGossip2, key);
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
        let mut g = peer(ProtocolKind::Gossip, 0);
        let mut c = env.ctx(10.0, Point::new(2500.0, 2500.0));
        let actions = ActionSink::collect(|out| g.issue(&mut c, mk_ad(0), out));
        assert!(matches!(actions[0], Action::Broadcast(_)));
        assert!(g.holds(AdId::new(PeerId(0), 0)));
    }

    #[test]
    fn new_ad_is_accepted_and_cached() {
        let mut env = Env::new();
        let mut g = peer(ProtocolKind::Gossip, 0);
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

    /// Only a peer that merges duplicates without postponing skips a copy
    /// when its frame is sent, and only with a cached copy issued no later
    /// that holds everything the message carries; never a flooding wave.
    #[test]
    fn covers_needs_a_covering_copy_and_no_postponement() {
        let pos = Point::new(2600.0, 2500.0);
        let msg = AdMessage::gossip(mk_ad(0));
        // `arrives` is false, so a postponing peer applies nothing.
        let mut env = Env::new();
        let mut fate = |g: &mut Gossip, m: &AdMessage| {
            g.on_copy_sent(&mut env.ctx(20.5, pos), m, &meta_at(pos), false)
        };
        let mut richer = msg.clone();
        richer.ad.sketches.insert(42);
        let mut later = msg.clone();
        later.ad.issue_time = SimTime::from_secs(11.0);
        let wave = AdMessage::flood(mk_ad(0), 1, 1000.0);
        for kind in ProtocolKind::ALL[1..].iter().copied() {
            let mut g = peer(kind, 0);
            assert_eq!(fate(&mut g, &msg), CopyFate::Queue, "{kind}: empty");
            let mut c = Env::new();
            let mut c = c.ctx(20.0, pos);
            ActionSink::collect(|out| g.on_receive(&mut c, &msg, &meta_at(pos), out));
            let covered = if g.anchor.is_none() {
                CopyFate::Queue
            } else {
                CopyFate::Skip
            };
            // The copy itself, one with a new bit, one issued later and a
            // flooding wave.
            let fates = [&msg, &richer, &later, &wave].map(|m| fate(&mut g, m));
            let queue = CopyFate::Queue;
            assert_eq!(fates, [covered, queue, queue, queue], "{kind}");
        }
    }

    /// A postponing peer's duplicate applied when its frame is sent, by
    /// `on_receive` at its arrival instant, leaves the entry as arrival
    /// order does, and queues nothing; each guard alone refuses. Two
    /// peers hold the same entry: one is asked about each copy, the other
    /// receives the copies at their arrivals, in another order.
    #[test]
    fn applied_copies_leave_the_entry_their_arrivals_would() {
        let pos = Point::new(2600.0, 2500.0);
        let msg = AdMessage::gossip(mk_ad(0));
        let admitted = || {
            let mut g = peer(ProtocolKind::OptGossip, 3);
            let mut c = Env::new();
            let mut c = c.ctx(20.0, pos);
            ActionSink::collect(|out| g.on_receive(&mut c, &msg, &meta_at(pos), out));
            g
        };
        let (mut sent, mut arrived) = (admitted(), admitted());
        let e = sent.cache.get(msg.ad.id).unwrap();
        // A fixed motion predicts nothing: the entry's wake-up is queued
        // at its first tick, one round out.
        assert_eq!((e.queued, e.wake), (e.next_time, e.next_time));
        let senders = [2550.0, 2700.0, 2640.0, 2580.0].map(|x| Point::new(x, 2480.0));
        let mut richer = msg.clone();
        richer.ad.sketches.insert(42);
        richer.ad.radius = 1200.0;
        let copies = [(20.1, &msg), (20.4, &richer), (20.3, &msg), (24.9, &msg)];
        let mut env = Env::new();
        for ((at, m), from) in copies.iter().zip(senders) {
            let fate = sent.on_copy_sent(&mut env.ctx(*at, pos), m, &meta_at(from), true);
            assert_eq!(fate, CopyFate::Applied, "copy at {at}");
        }
        let mut order: Vec<usize> = (0..copies.len()).collect();
        order.sort_by(|&a, &b| copies[a].0.total_cmp(&copies[b].0));
        for i in order {
            let (at, m) = copies[i];
            let mut c = env.ctx(at, pos);
            let meta = meta_at(senders[i]);
            let pushed = ActionSink::collect(|out| arrived.on_receive(&mut c, m, &meta, out));
            assert!(pushed.is_empty(), "a duplicate at {at} queued a wake-up");
        }
        assert_eq!(sent.cache, arrived.cache);
        let e = sent.cache.get(msg.ad.id).unwrap();
        assert!(e.next_time > e.queued && e.ad.radius == 1200.0);

        // Each guard alone queues the copy.
        let queued = e.queued.as_secs();
        let mut longer = msg.clone();
        longer.ad.duration = SimDuration::from_secs(1900.0);
        let mut expired = msg.clone();
        expired.ad.duration = SimDuration::from_secs(5.0);
        let refused: [(&str, f64, &AdMessage, bool); 5] = [
            ("an arrival that may not run", 21.0, &msg, false),
            ("an arrival at the queued wake-up", queued, &msg, true),
            ("an arrival after it", queued + 1.0, &msg, true),
            ("a larger D", 21.0, &longer, true),
            ("an expired message", 21.0, &expired, true),
        ];
        for (what, at, m, arrives) in refused {
            let before = sent.cache.clone();
            let fate = sent.on_copy_sent(&mut env.ctx(at, pos), m, &meta_at(pos), arrives);
            assert_eq!((fate, &sent.cache), (CopyFate::Queue, &before), "{what}");
        }
        // A wake-up queued after the pending tick would be re-queued by
        // the postponement, at a time that depends on which copy arrives
        // first: the copy is queued.
        let e = sent.cache.get_mut(msg.ad.id).unwrap();
        e.queued = e.next_time + SimDuration::from_secs(1.0);
        let fate = sent.on_copy_sent(&mut env.ctx(21.0, pos), &msg, &meta_at(pos), true);
        assert_eq!(fate, CopyFate::Queue, "a wake-up past the pending tick");
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
        let mut g = peer(ProtocolKind::Gossip, 0);
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
        let mut g = peer(ProtocolKind::Gossip, 0);
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
        let mut g = peer(ProtocolKind::OptGossip1, 0);
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
        let mut g = peer(ProtocolKind::OptGossip2, 0);
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
        let mut g = peer(ProtocolKind::OptGossip2, 0);
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
            let mut g = peer(ProtocolKind::OptGossip2, 0);
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
            let u = UserProfile::indifferent(1);
            let mut g = Gossip::new(ProtocolKind::OptGossip2, params(), range, u, 0);
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
        let mut g = peer(ProtocolKind::OptGossip2, 0);
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
        let mut g = peer(ProtocolKind::OptGossip2, 0);
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

    /// A peer-grid entry that hears a duplicate enlarging `R` exactly at
    /// its planned tick, before that tick's wake-up pops, plans again from
    /// that tick, which has not run: the wake-up still runs it. A driver
    /// may deliver a frame before a wake-up due at the same instant.
    #[test]
    fn a_duplicate_at_the_planned_tick_keeps_the_tick() {
        let mut env = Env::new();
        let pos = Point::new(2600.0, 2500.0);
        let round = params().round_time;
        let mut g = peer(ProtocolKind::Gossip, 5);
        ActionSink::collect(|out| g.on_start(&mut env.ctx(0.0, pos), out));
        let msg = AdMessage::gossip(mk_ad(0));
        let meta = meta_at(pos);
        ActionSink::collect(|out| g.on_receive(&mut env.ctx(20.0, pos), &msg, &meta, out));
        // A fixed motion predicts nothing: the planned tick is the first.
        let tick = g.cache.get(msg.ad.id).unwrap().wake;
        let mut richer = msg.clone();
        richer.ad.radius = 1200.0;
        let mut c = env.ctx(tick.as_secs(), pos);
        assert_eq!(c.now, tick);
        ActionSink::collect(|out| g.on_receive(&mut c, &richer, &meta, out));
        let pushed = ActionSink::collect(|out| {
            assert_eq!(g.on_entry_timer(&mut c, msg.ad.id, out), EntryWake::Fire);
        });
        let e = g.cache.get(msg.ad.id).unwrap();
        assert_eq!(
            (e.ad.radius, e.next_time),
            (1200.0, tick + round),
            "{pushed:?}"
        );
    }

    /// A peer parked far outside the area holds an ad that outlives the
    /// run. Its look-ahead decides the ticks from the drift bound alone and
    /// plans the wake-up at the first tick at or past the horizon, the
    /// first one the motion cannot give ahead, and never later.
    #[test]
    fn a_far_parked_plan_stops_at_the_horizon() {
        /// A peer parked at `at` until `end`, past which no callback runs:
        /// it never drifts, and it counts the fixes read ahead.
        struct Parked {
            at: Point,
            end: SimTime,
            fixes: u32,
        }

        impl Motion for Parked {
            fn position(&mut self) -> Point {
                self.at
            }

            fn velocity(&mut self) -> Vector {
                Vector::ZERO
            }

            fn position_at(&mut self, t: SimTime) -> Option<Point> {
                self.fixes += 1;
                (t < self.end).then_some(self.at)
            }

            fn max_drift(&mut self, _from: SimTime, to: SimTime) -> Option<f64> {
                (to < self.end).then_some(0.0)
            }
        }

        let round = params().round_time;
        let end = SimTime::from_secs(1800.0);
        let far = Point::new(2500.0 + 20_000.0, 2500.0);
        let mut ad = mk_ad(0);
        ad.duration = SimDuration::from_secs(1e6);
        let msg = AdMessage::gossip(ad);
        for (i, kind) in ProtocolKind::ALL[1..].iter().copied().enumerate() {
            let mut g = peer(kind, i as u64);
            let mut parked = Parked {
                at: far,
                end,
                fixes: 0,
            };
            let mut c = PeerContext {
                now: SimTime::ZERO,
                motion: &mut parked,
            };
            assert!(ActionSink::collect(|out| g.on_start(&mut c, out)).is_empty());
            c.now = SimTime::from_secs(20.0);
            let queued = ActionSink::collect(|out| g.on_receive(&mut c, &msg, &meta_at(far), out));
            let wake = g.cache.get(msg.ad.id).expect("admitted").wake;
            assert!(
                wake >= end && wake < end + round,
                "{kind}: wake-up at {wake:?}"
            );
            let schedule = Action::ScheduleEntry {
                ad: msg.ad.id,
                at: wake,
            };
            assert_eq!(
                queued,
                [Action::Accepted { ad: msg.ad.id }, schedule],
                "{kind}"
            );
            // Only the first tick and the one at the horizon read a fix:
            // every tick between was decided from the drift bound.
            assert_eq!(parked.fixes, 2, "{kind}");
        }
    }

    /// Issue positions near the origin, or up to 10¹² m from it.
    fn issue_xy() -> impl Strategy<Value = (f64, f64)> {
        prop_oneof![
            (-1e4..1e4f64, -1e4..1e4f64),
            (-1e12..1e12f64, -1e12..1e12f64)
        ]
    }

    /// A decay parameter in `(0, 1)`: the paper's range, down to 10⁻³⁰⁰
    /// (log-uniform) or up to `1 - 2⁻⁵²`.
    fn decay() -> impl Strategy<Value = f64> {
        let top = 1.0 - f64::EPSILON;
        prop_oneof![
            0.01..0.99f64,
            (-300.0..-1.0f64).prop_map(|e| 10f64.powf(e)),
            Just(1e-300),
            (0.999..top).prop_map(move |a: f64| a.min(top)),
            Just(top),
        ]
    }

    /// The largest coin `keyed_unit` can draw at most `p`, one grid step
    /// either side of it, a few units in the last place below `p` (off
    /// the grid), 0, or any coin; never strictly between 0 and one grid
    /// step, where no coin lies.
    fn coin(rng: &mut proptest::TestRng, p: f64) -> f64 {
        const STEP: f64 = 1.0 / (1u64 << 53) as f64;
        let below = (p.min(1.0) / STEP).floor() * STEP;
        let u = match rng.below(6) {
            0 => below,
            1 => below - STEP,
            2 => below + STEP,
            3 => p * (1.0 - f64::EPSILON * (1 + rng.below(4)) as f64),
            4 => 0.0,
            _ => rng.unit_f64(),
        };
        if u < STEP {
            0.0
        } else {
            u.min(1.0 - STEP)
        }
    }

    /// The look-ahead's bounds are sound: whenever one decides a tick, at
    /// its fix ([`TickBounds::loses`]) or from a lower bound on its
    /// distance outside `R` ([`TickBounds::tail_loses`], the drift
    /// bound), the tick's coin is at least the probability the tick
    /// computes exactly, so it does not fire. Cases walk 48 ticks of one
    /// look-ahead (so the interior bound's radius window turns over) with
    /// ages from before `OPT1_WARMUP` into `R_t`'s collapse, under both
    /// formulas; alpha and beta from 10⁻³⁰⁰ to `1 - 2⁻⁵²`, `DIS` of 0,
    /// finite or infinite, `R` up to 10³⁰⁰, issue positions up to 10¹² m,
    /// and coins of 0, one grid step either side of the probability and a
    /// few units in the last place below it. The tail, drift and interior
    /// bounds each decide over 1 000 ticks, so the property is not
    /// vacuous.
    #[test]
    fn tick_bounds_decide_only_ticks_that_do_not_fire() {
        let mut rng = proptest::TestRng::seed_from_u64(0xb0_4d5);
        let (mut tail, mut drift, mut interior, mut fired) = (0u32, 0u32, 0u32, 0u32);
        for case in 0..3000 {
            let (alpha, beta, annular) = (decay(), decay(), any::<bool>()).generate(&mut rng);
            let dis = prop_oneof![Just(0.0), 0.0..3000.0f64, Just(f64::INFINITY)];
            let round = SimDuration::from_micros(rng.below(20_000_000) + 1);
            let p = GossipParams::paper()
                .with_alpha(alpha)
                .with_beta(beta)
                .with_dis(dis.generate(&mut rng))
                .with_round_time(round)
                .shared();
            let (x, y) = issue_xy().generate(&mut rng);
            let r0 = prop_oneof![1.0..5000.0f64, (0.0..300.0f64).prop_map(|e| 10f64.powf(e))];
            let duration = SimDuration::from_secs((1.0..3600.0f64).generate(&mut rng));
            let issued = SimTime::from_secs(10.0);
            let mut ad = Advertisement::new(
                AdId::new(PeerId(0), 0),
                Point::new(x, y),
                issued,
                r0.generate(&mut rng),
                duration,
                vec![],
                0,
                &p,
            );
            ad.radius *= prop_oneof![Just(1.0), 1.0..3.0f64].generate(&mut rng);
            let r = ad.radius;
            // The first tick: around the warm-up, or near expiry.
            let age = prop_oneof![0.0..120.0f64, 0.9..1.0f64].generate(&mut rng);
            let first = issued
                + if age > 2.0 {
                    SimDuration::from_secs(age)
                } else {
                    duration.mul_f64(age)
                };
            let mut bounds = TickBounds::new(&p, annular);
            for k in 0..48u64 {
                let t = first + SimDuration::from_micros(round.as_micros() * k);
                if ad.expired(t) {
                    break;
                }
                // Outside by a sub-millimetre or a wide gap, or inside.
                let gap = prop_oneof![1e-9..1e-3f64, 0.0..5000.0f64].generate(&mut rng);
                let out = match rng.below(3) {
                    0 => r + gap,
                    1 => (r - p.dis - gap).max(0.0),
                    _ => r * rng.unit_f64(),
                };
                let theta = (0.0..std::f64::consts::TAU).generate(&mut rng);
                let pos = Point::new(x + out * theta.cos(), y + out * theta.sin());
                let d = pos.distance(ad.issue_pos);
                let prob = probability_at(&p, annular, &ad, t, d);
                let u = coin(&mut rng, prob);
                fired += u32::from(u < prob);
                let what = || format!("case {case} tick {k}: u {u}, p {prob}, d {d}, R {r}, {p:?}");
                if bounds.loses(&p, &ad, t, d, u) {
                    assert!(u >= prob, "{}", what());
                    if d > r {
                        tail += 1;
                    } else {
                        interior += 1;
                    }
                }
                // The drift bound: any lower bound past `R` on `d`.
                let d_lo = r + (d - r) * rng.unit_f64();
                if d_lo > r && bounds.tail_loses(u, d_lo, r) {
                    assert!(u >= prob, "{}, d_lo {d_lo}", what());
                    drift += 1;
                }
            }
        }
        let counts = format!("tail {tail}, drift {drift}, interior {interior}, fired {fired}");
        assert!(
            tail > 1000 && drift > 1000 && interior > 1000 && fired > 1000,
            "{counts}"
        );
    }

    #[test]
    fn cache_eviction_respects_capacity() {
        let mut env = Env::new();
        let p = GossipParams::paper().with_cache_capacity(3).shared();
        let u = UserProfile::indifferent(1);
        let mut g = Gossip::new(ProtocolKind::Gossip, p, RANGE, u, 0);
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
        let mut g = peer(ProtocolKind::Gossip, 0);
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
        let profile = UserProfile::new(7, vec![1]);
        let mut g = Gossip::new(ProtocolKind::Gossip, params(), RANGE, profile, 0);
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
        let peers = ProtocolKind::ALL[1..].iter().map(|&kind| peer(kind, 0));
        let flags: Vec<_> = peers.map(|g| (g.annular, g.anchor.is_none())).collect();
        let want = [(false, false), (true, false), (false, true), (true, true)];
        assert_eq!(flags, want, "(mechanism (1), mechanism (2)) by kind");
    }

    #[test]
    #[should_panic(expected = "not a gossip variant")]
    fn flooding_is_not_a_gossip_variant() {
        peer(ProtocolKind::Flooding, 0);
    }
}
