//! The protocol state machines.
//!
//! Protocols are pure state machines: the simulation world calls
//! [`Protocol::on_receive`] and [`Protocol::on_entry_timer`] with a
//! [`PeerContext`] view of the peer's kinematic state, and the protocol
//! answers with [`Action`]s (broadcasts to transmit, wake-ups to
//! schedule) pushed into the caller-owned [`ActionSink`]. The sink is a
//! reusable buffer: the event loop drains it after every callback and
//! hands the same allocation to the next one, so steady-state protocol
//! dispatch allocates nothing per event. This keeps `ia-core` free of any
//! dependency on the event engine, radio, or mobility — the same
//! implementations could drive real hardware.
//!
//! Every protocol has one timer concept: a wake-up per entry, keyed by
//! the ad ([`Action::ScheduleEntry`]). The five protocols differ only in
//! when an entry's next tick falls. Gossiping and Optimized Gossiping-1
//! tick every entry on the peer's one round grid (Algorithms 1–2),
//! Optimized Gossiping(-2) gives each entry its own grid (Algorithms
//! 3–4), and a Restricted Flooding issuer sends one wave per issued ad
//! per round. A peer with nothing to tick queues nothing. Every wake-up
//! that pops is one [`Protocol::on_entry_timer`] call, which drops it if
//! it is stale, queues it again if it is early, or runs the due tick, and
//! returns the [`EntryWake`] that names what it did.
//!
//! The context looks nothing up until asked: a callback that reads no
//! position (a dropped or re-armed wake-up, a pure-Gossip duplicate, a
//! flooding wave already relayed) costs no position fix.
//! A frame copy's receiver is also asked about it when the frame is sent
//! ([`Protocol::on_copy_sent`]), so a copy whose arrival would change
//! nothing, or whose effect is already fixed, is never queued.

pub mod flooding;
pub mod gossip;

use crate::ad::Advertisement;
use crate::ids::AdId;
use crate::interest::UserProfile;
use crate::params::SharedParams;
use ia_des::SimTime;
use ia_geo::{Point, Vector};
use std::sync::Arc;

pub use flooding::RestrictedFlooding;
pub use gossip::Gossip;

/// Which of the paper's five protocols to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProtocolKind {
    /// Restricted Flooding (§III-B, baseline).
    Flooding,
    /// Pure Opportunistic Gossiping (§III-C).
    Gossip,
    /// Gossiping + optimization mechanism (1): annular probability.
    OptGossip1,
    /// Gossiping + optimization mechanism (2): overhearing postponement.
    OptGossip2,
    /// Gossiping + both mechanisms ("Optimized Gossiping").
    OptGossip,
}

impl ProtocolKind {
    /// All five, in the order the paper's figures list them: the
    /// baseline first, then gossiping with each optimization mechanism
    /// in mechanism order, then both combined.
    pub const ALL: [ProtocolKind; 5] = [
        ProtocolKind::Flooding,
        ProtocolKind::Gossip,
        ProtocolKind::OptGossip1,
        ProtocolKind::OptGossip2,
        ProtocolKind::OptGossip,
    ];

    /// Label used in experiment output (matches the paper's legends).
    pub fn label(&self) -> &'static str {
        match self {
            ProtocolKind::Flooding => "Flooding",
            ProtocolKind::Gossip => "Gossiping",
            ProtocolKind::OptGossip1 => "Optimized Gossiping-1",
            ProtocolKind::OptGossip2 => "Optimized Gossiping-2",
            ProtocolKind::OptGossip => "Optimized Gossiping",
        }
    }
}

impl std::fmt::Display for ProtocolKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The kinematic state a protocol sees when handling an event.
///
/// Nothing is looked up before the protocol asks, through [`Motion`]:
/// the position (a gossip tick, an admission, a postponement and a new
/// flooding wave read it, via [`PeerContext::position`]), the velocity
/// (only mechanism (2)'s duplicate handling reads it, via
/// [`PeerContext::velocity`]) and positions at later instants (only the
/// entry-tick look-ahead reads them).
pub struct PeerContext<'a> {
    /// Current simulation time.
    pub now: SimTime,
    /// The peer's motion, computed on request.
    pub motion: &'a mut dyn Motion,
}

impl PeerContext<'_> {
    /// The peer's own (GPS) position fix now. Each call asks the source
    /// again.
    #[inline]
    pub fn position(&mut self) -> Point {
        self.motion.position()
    }

    /// The peer's velocity, as derived from consecutive position fixes
    /// (the paper's §III-D derivation). Each call asks the source again.
    #[inline]
    pub fn velocity(&mut self) -> Vector {
        self.motion.velocity()
    }
}

/// The peer's motion as a protocol may query it during one callback.
///
/// The simulation world implements it over the fleet's immutable
/// trajectories. A fixed `(Point, Vector)` pair is a motion that always
/// reports them as the position and the velocity and never predicts a
/// position or bounds a drift, so a protocol driven by one runs every
/// entry tick.
///
/// The entry-tick look-ahead asks two things about later instants: the
/// exact fix ([`Motion::position_at`]) and, cheaper, how far the fix can
/// have moved since one it already read ([`Motion::max_drift`]). A tick
/// far enough outside the advertising area is decided from the drift
/// bound alone, without reading its fix.
pub trait Motion {
    /// The position fix at the callback's instant.
    fn position(&mut self) -> Point;

    /// The velocity at the callback's instant.
    fn velocity(&mut self) -> Vector;

    /// The position the peer's callback at `t` (not before the current
    /// instant) would read from [`PeerContext::position`], or `None`
    /// when that cannot be known exactly now or no callback runs at `t`
    /// (past the run's horizon). `None` is always
    /// safe: the look-ahead then runs the tick at `t` instead of deciding
    /// it ahead. Some `t` must answer `None`, or the look-ahead over a
    /// never-expiring ad that never fires would not end.
    fn position_at(&mut self, t: SimTime) -> Option<Point>;

    /// An upper bound, metres, on the distance between the positions
    /// [`Motion::position_at`] returns for `from` and for `to`
    /// (`from <= to`), or `None`. It must be `None` wherever
    /// `position_at(to)` is (a tick the look-ahead cannot decide ahead
    /// must not be decided from a bound either), and wherever the fix is
    /// not a point on the trajectory (noise). Rounding of the fixes
    /// themselves is the caller's margin. `None`, the default, is always
    /// safe: the look-ahead then reads the fix.
    fn max_drift(&mut self, from: SimTime, to: SimTime) -> Option<f64> {
        let _ = (from, to);
        None
    }
}

impl Motion for (Point, Vector) {
    #[inline]
    fn position(&mut self) -> Point {
        self.0
    }

    #[inline]
    fn velocity(&mut self) -> Vector {
        self.1
    }

    #[inline]
    fn position_at(&mut self, _t: SimTime) -> Option<Point> {
        None
    }
}

/// What a per-entry wake-up did, as [`Protocol::on_entry_timer`]
/// reports it.
///
/// A protocol keeps at most one live wake-up queued per entry. Its
/// planned tick may move earlier or later than that wake-up (a
/// postponement restarts the grid, a restart re-anchors it, and the
/// look-ahead skips ticks that cannot fire); a wake-up that pops before
/// the planned tick re-arms at it, and one that was superseded is
/// dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntryWake {
    /// Nothing: the entry is gone or the wake-up was superseded.
    Drop,
    /// Early: queued again at the planned tick
    /// ([`Action::ScheduleEntry`]), and nothing else.
    Rearm,
    /// The due tick ran.
    Fire,
}

/// What a receiver makes of an intact frame copy when the frame is sent,
/// as [`Protocol::on_copy_sent`] answers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CopyFate {
    /// Queue the copy: its arrival runs [`Protocol::on_receive`].
    Queue,
    /// Leave it out: its arrival would change nothing.
    Skip,
    /// Applied now: the call made the change [`Protocol::on_receive`]
    /// would make at the arrival, from the context at the arrival instant,
    /// and the arrival would push no action.
    Applied,
}

/// Per-delivery metadata from the radio (who sent, from where).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RxMeta {
    /// Sender's position at transmission time.
    pub sender_pos: Point,
    /// Sender node id.
    pub from: u32,
    /// Sender–receiver distance at transmission time, metres.
    pub distance: f64,
}

/// Flooding wave metadata carried on flooded messages.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FloodInfo {
    /// Wave sequence number (one per issuer broadcast cycle).
    pub wave: u32,
    /// The advertising radius the issuer stamped on this wave — relays
    /// forward the wave only while inside this radius.
    pub radius: f64,
}

/// A protocol message: the advertisement plus transport metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct AdMessage {
    pub ad: Advertisement,
    /// `Some` for Restricted Flooding traffic, `None` for gossip.
    pub flood: Option<FloodInfo>,
}

impl AdMessage {
    pub fn gossip(ad: Advertisement) -> Self {
        AdMessage { ad, flood: None }
    }

    pub fn flood(ad: Advertisement, wave: u32, radius: f64) -> Self {
        AdMessage {
            ad,
            flood: Some(FloodInfo { wave, radius }),
        }
    }

    /// Wire size for traffic accounting — the exact encoded length
    /// (see [`crate::codec`]).
    pub fn bytes(&self) -> usize {
        crate::codec::message_encoded_len(self)
    }
}

/// What a protocol asks the world to do.
#[derive(Debug, Clone, PartialEq)]
pub enum Action {
    /// Transmit a message on the broadcast channel now.
    Broadcast(AdMessage),
    /// Wake this peer's timer for `ad` at the given absolute time: a
    /// cache entry's next gossip tick, or an issuer's next flooding wave.
    /// `at` is never before the callback's instant ([`PeerContext::now`]);
    /// the world queues it as is, and its scheduler panics on a wake-up in
    /// the past.
    ScheduleEntry { ad: AdId, at: SimTime },
    /// The peer accepted (first stored/displayed) this advertisement —
    /// the delivery-metric hook.
    Accepted { ad: AdId },
    /// The peer's cache evicted a previously stored advertisement to
    /// make room — the cache-churn observability hook.
    CacheEvicted { ad: AdId },
}

/// A reusable buffer protocol callbacks push their [`Action`]s into.
///
/// The event loop owns one sink per run, hands it to every callback, and
/// [`drain`](ActionSink::drain)s it afterwards — so after warm-up the
/// protocol hot path performs no per-event allocation (the buffer's
/// capacity is retained across callbacks). Tests that want a plain
/// `Vec<Action>` use the [`ActionSink::collect`] adapter.
#[derive(Debug, Default)]
pub struct ActionSink {
    actions: Vec<Action>,
}

impl ActionSink {
    pub fn new() -> Self {
        ActionSink {
            actions: Vec::new(),
        }
    }

    /// Run `f` against a fresh sink and return the pushed actions as a
    /// `Vec` — the adapter unit tests use to keep their assertions on
    /// plain vectors.
    pub fn collect(f: impl FnOnce(&mut ActionSink)) -> Vec<Action> {
        let mut sink = ActionSink::new();
        f(&mut sink);
        sink.actions
    }

    #[inline]
    pub fn push(&mut self, action: Action) {
        self.actions.push(action);
    }

    /// Remove and yield the buffered actions in push order, retaining
    /// the buffer's capacity for the next callback.
    pub fn drain(&mut self) -> std::vec::Drain<'_, Action> {
        self.actions.drain(..)
    }

    pub fn clear(&mut self) {
        self.actions.clear();
    }
}

/// A protocol instance: one per peer.
///
/// Every callback receives the caller's [`ActionSink`] and pushes zero
/// or more [`Action`]s; nothing is returned. Callbacks must only append —
/// the caller may already hold actions from an earlier callback in the
/// same batch.
pub trait Protocol {
    /// Called once when the peer comes online.
    fn on_start(&mut self, ctx: &mut PeerContext<'_>, out: &mut ActionSink);

    /// Called for each frame the radio delivers to this peer.
    fn on_receive(
        &mut self,
        ctx: &mut PeerContext<'_>,
        msg: &AdMessage,
        meta: &RxMeta,
        out: &mut ActionSink,
    );

    /// Called for every per-entry wake-up for `ad` that pops: drop it if
    /// it is stale, queue it again if it is early, or run the due tick,
    /// and say which. Only a tick that runs reads the context's position.
    fn on_entry_timer(
        &mut self,
        ctx: &mut PeerContext<'_>,
        ad: AdId,
        out: &mut ActionSink,
    ) -> EntryWake;

    /// Issue a new advertisement from this peer.
    fn issue(&mut self, ctx: &mut PeerContext<'_>, ad: Advertisement, out: &mut ActionSink);

    /// Does this peer currently hold `ad` (cache or issuer state)?
    fn holds(&self, ad: AdId) -> bool;

    /// Asked for each intact copy of a frame addressed to this peer when
    /// the frame is sent, with `ctx` at the copy's arrival instant, which
    /// lies before the run's horizon (a later copy is never asked). The
    /// world asks only where no cache can evict (the scenario has no more
    /// ads than a cache holds); `arrives` says that the arrival surely
    /// runs [`Protocol::on_receive`]: the peer stays on-line until then.
    ///
    /// [`CopyFate::Skip`] means the arrival would change nothing here.
    /// [`CopyFate::Applied`], only when `arrives`, means the call made the
    /// change `on_receive` would make with `ctx`, which would push no
    /// action, and changed only what no event before the arrival reads or
    /// alters, in a way that does not depend on the order such copies are
    /// applied in. The world queues neither. [`CopyFate::Queue`], the default, is always safe.
    /// Gossip skips covered copies and applies postponements; Restricted
    /// Flooding skips waves it has relayed (DESIGN.md §10).
    fn on_copy_sent(
        &mut self,
        ctx: &mut PeerContext<'_>,
        msg: &AdMessage,
        meta: &RxMeta,
        arrives: bool,
    ) -> CopyFate {
        let _ = (ctx, msg, meta, arrives);
        CopyFate::Queue
    }

    /// The peer's current copy of `ad`, if it stores one (gossip cache,
    /// flooding issuer state). Used by experiments to inspect popularity
    /// state; pure flooding relays store no copy and return `None`.
    fn cached_ad(&self, ad: AdId) -> Option<&Advertisement> {
        let _ = ad;
        None
    }
}

/// Construct the protocol instance for one peer: Restricted Flooding, or
/// the gossip variant `kind` names ([`Gossip::new`]). Every peer of a run
/// shares the one `params` allocation ([`GossipParams::shared`](crate::GossipParams::shared)); `range` is the radio's
/// transmission range, metres, which formula (4) needs; `key` keys the
/// peer's draws (start phase, round and entry-tick coins), which only
/// the gossip family makes.
pub fn build_protocol(
    kind: ProtocolKind,
    params: Arc<SharedParams>,
    range: f64,
    profile: UserProfile,
    key: u64,
) -> Box<dyn Protocol> {
    match kind {
        ProtocolKind::Flooding => Box::new(RestrictedFlooding::new(params, profile)),
        gossip => Box::new(Gossip::new(gossip, params, range, profile, key)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::GossipParams;

    #[test]
    fn labels_are_distinct() {
        let labels: std::collections::HashSet<&str> =
            ProtocolKind::ALL.iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), 5);
        assert_eq!(ProtocolKind::Flooding.to_string(), "Flooding");
    }

    #[test]
    fn all_pins_figure_legend_order() {
        // The paper's figure legends list the protocols in this order;
        // figure output iterates `ALL`, so this order IS the legend.
        let legend: Vec<&str> = ProtocolKind::ALL.iter().map(|k| k.label()).collect();
        assert_eq!(
            legend,
            [
                "Flooding",
                "Gossiping",
                "Optimized Gossiping-1",
                "Optimized Gossiping-2",
                "Optimized Gossiping",
            ]
        );
    }

    #[test]
    fn sink_collect_drain_and_reuse() {
        let ad = AdId::new(crate::ids::PeerId(1), 0);
        let wake = |secs| Action::ScheduleEntry {
            ad,
            at: SimTime::from_secs(secs),
        };
        let mut sink = ActionSink::new();
        sink.push(wake(1.0));
        sink.push(Action::Accepted { ad });
        let drained: Vec<Action> = sink.drain().collect();
        assert_eq!(drained, [wake(1.0), Action::Accepted { ad }]);
        // Draining empties the sink but keeps the allocation for reuse.
        assert_eq!(sink.drain().count(), 0);
        sink.push(wake(2.0));
        sink.clear();
        assert_eq!(sink.drain().count(), 0);
        let collected = ActionSink::collect(|out| out.push(wake(3.0)));
        assert_eq!(collected, [wake(3.0)]);
    }

    /// Each kind builds its protocol: an issuer of Restricted Flooding
    /// sends a flooding wave, one of every gossip variant a gossip frame.
    #[test]
    fn build_constructs_every_kind() {
        let params = GossipParams::paper().shared();
        let ad = paper_ad(&params);
        for kind in ProtocolKind::ALL {
            let profile = UserProfile::indifferent(1);
            let mut p = build_protocol(kind, Arc::clone(&params), 250.0, profile, 0);
            let mut motion = (Point::ORIGIN, Vector::ZERO);
            let mut ctx = PeerContext {
                now: SimTime::ZERO,
                motion: &mut motion,
            };
            let actions = ActionSink::collect(|out| p.issue(&mut ctx, ad.clone(), out));
            let flooding = kind == ProtocolKind::Flooding;
            let sent =
                |a: &Action| matches!(a, Action::Broadcast(m) if m.flood.is_some() == flooding);
            assert!(sent(&actions[0]), "{kind}: {actions:?}");
            assert!(p.holds(ad.id), "{kind}");
        }
    }

    fn paper_ad(params: &GossipParams) -> Advertisement {
        Advertisement::new(
            AdId::new(crate::ids::PeerId(0), 0),
            Point::ORIGIN,
            SimTime::ZERO,
            100.0,
            ia_des::SimDuration::from_secs(60.0),
            vec![],
            0,
            params,
        )
    }

    #[test]
    fn message_bytes_include_flood_overhead() {
        let ad = paper_ad(&GossipParams::paper());
        let g = AdMessage::gossip(ad.clone());
        let f = AdMessage::flood(ad, 0, 100.0);
        assert_eq!(f.bytes(), g.bytes() + 12);
    }
}
