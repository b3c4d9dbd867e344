//! A deterministic discrete-event simulation (DES) engine.
//!
//! This crate replaces the NS-2 core the paper used. It provides:
//!
//! * [`SimTime`] / [`SimDuration`] — an integer microsecond clock, so that
//!   event ordering is exact and runs are bit-for-bit reproducible.
//! * [`Scheduler`] — the simulation clock plus the pending-event set, the
//!   crate's one queue type. Events at equal timestamps fire in
//!   scheduling order, or before them in rank order when scheduled with
//!   a rank. Internally a hierarchical timing wheel over its own recycled
//!   slab (the private `wheel` module), so the hot schedule/pop path is
//!   allocation-free at steady state. An optional horizon ends the run:
//!   a push at or after it is counted and dropped at once, so the
//!   scheduler stores only events it will deliver. There is no cancel:
//!   a component that reschedules a timer pushes the new one and ignores
//!   the stale one when it fires. The world object drains the scheduler
//!   in a simple `while let Some(...)` loop, keeping borrows trivial and
//!   the engine free of callbacks.
//! * [`rng`] — a seeded, splittable RNG: every component derives an
//!   independent stream from a master seed, so adding randomness to one
//!   component never perturbs another.

pub mod rng;
pub mod time;
mod wheel;

pub use rng::{derive_seed, SimRng};
pub use time::{SimDuration, SimTime};

use std::fmt;
use wheel::TimingWheel;

/// Queue operation counters, cheap enough to maintain unconditionally.
/// Consumed by the `simbench` harness for its per-layer report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Events scheduled over the scheduler's lifetime.
    pub pushes: u64,
    /// Events taken off the queue. Nothing at or after the horizon is
    /// stored, so every pop is a delivery: this equals
    /// [`Scheduler::events_processed`].
    pub pops: u64,
    /// Always 0: the queue has no cancel. The field stays only because
    /// the `simbench` harness still reads it.
    pub cancels: u64,
    /// Timing-wheel cascade moves (node re-placements on level descent).
    pub cascades: u64,
}

/// The first insertion-order sequence number; ranks lie below it.
pub const RANK_LIMIT: u64 = 1 << 63;

/// The simulation clock plus the pending-event set.
///
/// Pops come out in `(time, seq)` order. An unranked event's `seq`
/// counts up from [`RANK_LIMIT`], so events at equal timestamps fire in
/// scheduling order (NS-2 calendar queues make the same guarantee, and
/// several protocol behaviours — e.g. "receive before your own round
/// timer at the same instant" — depend on a stable order). A ranked
/// event ([`Scheduler::schedule_ranked`]) uses its rank as the `seq`:
/// it pops before the unranked events at its instant, in rank order,
/// however and whenever it was scheduled.
///
/// `Scheduler` is generic over the event payload `E`. A typical main loop:
///
/// ```
/// use ia_des::{Scheduler, SimDuration, SimTime};
///
/// #[derive(Debug)]
/// enum Ev { Tick(u32) }
///
/// let mut sched = Scheduler::new();
/// sched.schedule_at(SimTime::from_secs(5.0), Ev::Tick(1));
/// sched.schedule_at(SimTime::from_secs(1.0), Ev::Tick(2));
///
/// let mut order = Vec::new();
/// while let Some(ev) = sched.pop() {
///     match ev { Ev::Tick(n) => order.push(n) }
/// }
/// assert_eq!(order, vec![2, 1]);
/// assert_eq!(sched.now(), SimTime::from_secs(5.0));
/// ```
pub struct Scheduler<E> {
    now: SimTime,
    wheel: TimingWheel<E>,
    /// If set, pushes at or after this instant are dropped, and the
    /// clock stops here once nothing is left.
    horizon: Option<SimTime>,
    next_seq: u64,
    pushes: u64,
    pops: u64,
}

impl<E> Default for Scheduler<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Scheduler<E> {
    pub fn new() -> Self {
        Scheduler {
            now: SimTime::ZERO,
            wheel: TimingWheel::new(),
            horizon: None,
            next_seq: RANK_LIMIT,
            pushes: 0,
            pops: 0,
        }
    }

    /// Deliver only events scheduled before `t`: a push at or after `t`
    /// is counted and dropped at once, and once nothing is left [`pop`]
    /// returns `None` with the clock at `t`.
    ///
    /// # Panics
    /// Panics if an event is already pending.
    ///
    /// [`pop`]: Scheduler::pop
    pub fn with_horizon(mut self, t: SimTime) -> Self {
        assert!(self.wheel.len() == 0, "set the horizon before scheduling");
        self.horizon = Some(t);
        self
    }

    /// Current simulation time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total number of events delivered so far.
    pub fn events_processed(&self) -> u64 {
        self.pops
    }

    /// Number of events still pending, all of them below the horizon (a
    /// push at or after it is not stored).
    pub fn pending(&self) -> usize {
        self.wheel.len()
    }

    /// Lifetime queue operation counters (pushes/pops/cascades).
    pub fn queue_stats(&self) -> QueueStats {
        QueueStats {
            pushes: self.pushes,
            pops: self.pops,
            cancels: 0,
            cascades: self.wheel.cascades(),
        }
    }

    /// Schedule `event` at the absolute time `t`, after every event
    /// already scheduled for `t`.
    ///
    /// # Panics
    /// Panics if `t` is before the current time — scheduling into the past
    /// is always a logic error in a DES.
    pub fn schedule_at(&mut self, t: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.push(t, seq, event);
    }

    /// Schedule `event` at the absolute time `t`, before every event
    /// scheduled with [`Scheduler::schedule_at`] for `t`, in `rank` order.
    /// Events of equal time and rank pop in an unspecified order.
    ///
    /// # Panics
    /// Panics if `t` is before the current time, or unless
    /// `rank < RANK_LIMIT`.
    pub fn schedule_ranked(&mut self, t: SimTime, rank: u64, event: E) {
        assert!(rank < RANK_LIMIT, "rank {rank} out of range");
        self.push(t, rank, event);
    }

    fn push(&mut self, t: SimTime, seq: u64, event: E) {
        assert!(
            t >= self.now,
            "scheduled into the past: {} < {}",
            t,
            self.now
        );
        self.pushes += 1;
        if self.horizon.is_none_or(|h| t < h) {
            self.wheel.push(t, seq, event);
        }
    }

    /// Advance the clock to the next event and return its payload, or
    /// `None` when nothing is left; the clock then stands at the horizon,
    /// if one is set, and at the last event otherwise.
    pub fn pop(&mut self) -> Option<E> {
        let Some((t, _seq, ev)) = self.wheel.pop() else {
            self.now = self.horizon.unwrap_or(self.now);
            return None;
        };
        debug_assert!(t >= self.now, "queue returned time travel");
        self.now = t;
        self.pops += 1;
        Some(ev)
    }

    /// Peek at the timestamp of the next pending event. A read-only
    /// wheel scan, cheap at the front; only stepped drivers
    /// (`run_until`) use it, never the hot pop loop.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.wheel.peek().map(|(t, _)| t)
    }
}

impl<E> fmt::Debug for Scheduler<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Scheduler")
            .field("now", &self.now)
            .field("pending", &self.wheel.len())
            .field("pops", &self.pops)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_fire_in_time_order() {
        let mut s: Scheduler<u32> = Scheduler::new();
        s.schedule_at(SimTime::from_secs(3.0), 3);
        s.schedule_at(SimTime::from_secs(1.0), 1);
        s.schedule_at(SimTime::from_secs(2.0), 2);
        let got: Vec<u32> = std::iter::from_fn(|| s.pop()).collect();
        assert_eq!(got, vec![1, 2, 3]);
        assert_eq!(s.events_processed(), 3);
    }

    #[test]
    fn ties_fire_in_scheduling_order() {
        let mut s: Scheduler<u32> = Scheduler::new();
        let t = SimTime::from_secs(1.0);
        for i in 0..100 {
            s.schedule_at(t, i);
        }
        let got: Vec<u32> = std::iter::from_fn(|| s.pop()).collect();
        assert_eq!(got, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_to_event_time() {
        let mut s: Scheduler<&str> = Scheduler::new();
        s.schedule_at(SimTime::from_secs(2.5), "a");
        assert_eq!(s.now(), SimTime::ZERO);
        s.pop();
        assert_eq!(s.now(), SimTime::from_secs(2.5));
    }

    #[test]
    #[should_panic(expected = "scheduled into the past")]
    fn scheduling_into_past_panics() {
        let mut s: Scheduler<u8> = Scheduler::new();
        s.schedule_at(SimTime::from_secs(5.0), 1);
        s.pop();
        s.schedule_at(SimTime::from_secs(1.0), 2);
    }

    #[test]
    fn horizon_stops_delivery_and_clamps_clock() {
        let mut s: Scheduler<u32> = Scheduler::new().with_horizon(SimTime::from_secs(10.0));
        s.schedule_at(SimTime::from_secs(5.0), 1);
        s.schedule_at(SimTime::from_secs(10.0), 2);
        s.schedule_at(SimTime::from_secs(15.0), 3);
        assert_eq!(s.pending(), 1);
        let got: Vec<u32> = std::iter::from_fn(|| s.pop()).collect();
        assert_eq!(got, vec![1]);
        assert_eq!(s.now(), SimTime::from_secs(10.0));
        assert_eq!(s.pending(), 0);
        let q = s.queue_stats();
        assert_eq!((q.pushes, q.pops, s.events_processed()), (3, 1, 1));
    }

    #[test]
    #[should_panic(expected = "set the horizon before scheduling")]
    fn horizon_after_a_push_panics() {
        let mut s: Scheduler<u8> = Scheduler::new();
        s.schedule_at(SimTime::from_secs(5.0), 1);
        let _ = s.with_horizon(SimTime::from_secs(1.0));
    }

    #[test]
    fn peek_time_sees_next_event() {
        let mut s: Scheduler<u32> = Scheduler::new();
        assert_eq!(s.peek_time(), None);
        s.schedule_at(SimTime::from_secs(4.0), 9);
        assert_eq!(s.peek_time(), Some(SimTime::from_secs(4.0)));
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        // A recurring timer pattern: each pop schedules the next tick.
        let mut s: Scheduler<u32> = Scheduler::new();
        s.schedule_at(SimTime::from_secs(1.0), 0);
        let mut fired = 0;
        while let Some(n) = s.pop() {
            fired += 1;
            if n < 4 {
                s.schedule_at(s.now() + SimDuration::from_secs(1.0), n + 1);
            }
        }
        assert_eq!(fired, 5);
        assert_eq!(s.now(), SimTime::from_secs(5.0));
    }

    #[test]
    fn queue_stats_count_operations() {
        let mut s: Scheduler<u32> = Scheduler::new();
        s.schedule_at(SimTime::from_secs(1.0), 1);
        s.schedule_ranked(SimTime::from_secs(2.0), 0, 2);
        s.pop();
        let q = s.queue_stats();
        assert_eq!((q.pushes, q.pops, q.cancels), (2, 1, 0));
        assert_eq!((s.pending(), s.events_processed()), (1, 1));
    }
}
