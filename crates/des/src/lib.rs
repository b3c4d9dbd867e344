//! A deterministic discrete-event simulation (DES) engine.
//!
//! This crate replaces the NS-2 core the paper used. It provides:
//!
//! * [`SimTime`] / [`SimDuration`] — an integer microsecond clock, so that
//!   event ordering is exact and runs are bit-for-bit reproducible.
//! * [`EventQueue`] — a stable priority queue: events at equal timestamps
//!   fire in scheduling order. Internally a hierarchical timing wheel
//!   over a recycled slab arena (see the `wheel` and `arena` modules), so
//!   the hot push/pop path is allocation-free at steady state. There is
//!   no cancel: a component that reschedules a timer pushes the new one
//!   and ignores the stale one when it fires.
//! * [`Scheduler`] — the simulation clock plus the queue; the world object
//!   drains it in a simple `while let Some(...)` loop, keeping borrows
//!   trivial and the engine free of callbacks.
//! * [`rng`] — a seeded, splittable RNG: every component derives an
//!   independent stream from a master seed, so adding randomness to one
//!   component never perturbs another.

mod arena;
pub mod queue;
pub mod rng;
pub mod time;
mod wheel;

pub use queue::{EventQueue, QueueStats};
pub use rng::{derive_seed, SimRng};
pub use time::{SimDuration, SimTime};

use std::fmt;

/// The simulation clock plus the pending-event queue.
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
    queue: EventQueue<E>,
    /// Events are discarded (not delivered) once `now` passes this horizon,
    /// if set. `pop` returns `None` at the horizon.
    horizon: Option<SimTime>,
    processed: u64,
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
            queue: EventQueue::new(),
            horizon: None,
            processed: 0,
        }
    }

    /// Stop delivering events scheduled at or after `t`.
    pub fn with_horizon(mut self, t: SimTime) -> Self {
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
        self.processed
    }

    /// Number of events still pending.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Lifetime queue operation counters (pushes/pops/cascades).
    pub fn queue_stats(&self) -> QueueStats {
        self.queue.stats()
    }

    /// Schedule `event` at the absolute time `t`.
    ///
    /// # Panics
    /// Panics if `t` is before the current time — scheduling into the past
    /// is always a logic error in a DES.
    pub fn schedule_at(&mut self, t: SimTime, event: E) {
        assert!(
            t >= self.now,
            "scheduled into the past: {} < {}",
            t,
            self.now
        );
        self.queue.push(t, event)
    }

    /// Schedule `event` at the absolute time `t`, before every event
    /// scheduled with [`Scheduler::schedule_at`] for `t`, in `rank` order
    /// (see [`EventQueue::push_ranked`]).
    ///
    /// # Panics
    /// Panics if `t` is before the current time, or unless
    /// `rank < queue::RANK_LIMIT`.
    pub fn schedule_ranked(&mut self, t: SimTime, rank: u64, event: E) {
        assert!(
            t >= self.now,
            "scheduled into the past: {} < {}",
            t,
            self.now
        );
        self.queue.push_ranked(t, rank, event)
    }

    /// Advance the clock to the next event and return its payload, or
    /// `None` when the queue is exhausted or the horizon reached.
    pub fn pop(&mut self) -> Option<E> {
        let (t, ev) = self.queue.pop()?;
        if let Some(h) = self.horizon {
            if t >= h {
                // The queue is monotone; everything remaining is at or
                // beyond the horizon too. Drop it all.
                self.queue.clear();
                self.now = h;
                return None;
            }
        }
        debug_assert!(t >= self.now, "queue returned time travel");
        self.now = t;
        self.processed += 1;
        Some(ev)
    }

    /// Peek at the timestamp of the next pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }
}

impl<E> fmt::Debug for Scheduler<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Scheduler")
            .field("now", &self.now)
            .field("pending", &self.queue.len())
            .field("processed", &self.processed)
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
        let got: Vec<u32> = std::iter::from_fn(|| s.pop()).collect();
        assert_eq!(got, vec![1]);
        assert_eq!(s.now(), SimTime::from_secs(10.0));
        assert_eq!(s.pending(), 0);
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
}
