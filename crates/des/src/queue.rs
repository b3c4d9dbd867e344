//! The pending-event set: a stable priority queue.
//!
//! The queue is a hierarchical timing wheel ([`crate::wheel`]) over a
//! recycled slab arena ([`crate::arena`]). The wheel moves only compact
//! `(time, seq, slot)` keys; payloads stay put in the slab from schedule
//! to fire, and at steady state every slot is recycled, so push and pop
//! allocate nothing (pinned by the counting-allocator benches in
//! `crates/bench`).
//!
//! Pops come out in `(time, seq)` order: events at equal timestamps fire
//! in insertion order (NS-2 calendar queues make the same guarantee, and
//! several protocol behaviours — e.g. "receive before your own round
//! timer at the same instant" — depend on a stable order). A *ranked*
//! push ([`EventQueue::push_ranked`]) uses its caller-chosen rank as the
//! `seq`, below every insertion-order `seq`: ranked events pop before
//! the unranked ones at their instant, in rank order, however and
//! whenever they were pushed. The equivalence with a stable binary heap
//! is pinned by a wheel-vs-heap proptest in
//! `crates/des/tests/wheel_vs_heap.rs`.
//!
//! There is no cancel. A component that postpones a timer pushes the new
//! one and leaves the stale one queued; the handler recognises the stale
//! timer when it fires and ignores it.
//!
//! Scheduling at or below the last popped time is best-effort (such
//! events still pop, first), but the [`crate::Scheduler`] layer rejects
//! past scheduling outright.

use crate::arena::EventArena;
use crate::time::SimTime;
use crate::wheel::TimingWheel;

/// Operation counters, cheap enough to maintain unconditionally.
/// Consumed by the `simbench` harness for its per-layer report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Events pushed over the queue's lifetime.
    pub pushes: u64,
    /// Events delivered by `pop`.
    pub pops: u64,
    /// Always 0: the queue has no cancel. The field stays only because
    /// the `simbench` harness still reads it.
    pub cancels: u64,
    /// Timing-wheel cascade moves (node re-placements on level descent).
    pub cascades: u64,
}

/// The first insertion-order sequence number; ranks lie below it.
pub const RANK_LIMIT: u64 = 1 << 63;

/// A time-ordered, FIFO-stable event queue.
pub struct EventQueue<E> {
    wheel: TimingWheel,
    arena: EventArena<E>,
    /// Count of pending events.
    len: usize,
    next_seq: u64,
    pushes: u64,
    pops: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    pub fn new() -> Self {
        EventQueue {
            wheel: TimingWheel::new(),
            arena: EventArena::new(),
            len: 0,
            next_seq: RANK_LIMIT,
            pushes: 0,
            pops: 0,
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Lifetime operation counters.
    pub fn stats(&self) -> QueueStats {
        QueueStats {
            pushes: self.pushes,
            pops: self.pops,
            cancels: 0,
            cascades: self.wheel.cascades(),
        }
    }

    /// Enqueue `event` at time `t`, after everything already queued for
    /// `t`.
    pub fn push(&mut self, t: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.insert(t, seq, event);
    }

    /// Enqueue `event` at time `t`, ordered by `rank` before every
    /// unranked event at `t`. Events of equal time and rank pop in an
    /// unspecified order.
    ///
    /// # Panics
    /// Panics unless `rank < RANK_LIMIT`.
    pub fn push_ranked(&mut self, t: SimTime, rank: u64, event: E) {
        assert!(rank < RANK_LIMIT, "rank {rank} out of range");
        self.insert(t, rank, event);
    }

    fn insert(&mut self, t: SimTime, seq: u64, event: E) {
        self.len += 1;
        self.pushes += 1;
        let slot = self.arena.insert(t, seq, event);
        self.wheel.schedule(&mut self.arena, t, seq, slot);
    }

    /// Pop the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let (t, _seq, event) = self.wheel.pop(&mut self.arena)?;
        self.len -= 1;
        self.pops += 1;
        Some((t, event))
    }

    /// Timestamp of the earliest event, or `None` when empty.
    pub fn peek_time(&self) -> Option<SimTime> {
        // Read-only wheel scan; cheap at the front (the common case).
        // Only used by stepped drivers (`run_until`), never in the hot
        // pop loop.
        self.wheel.peek(&self.arena).map(|(t, _)| t)
    }

    /// Drop every pending event. Sequence numbers keep counting, so the
    /// FIFO order of later pushes is unaffected.
    pub fn clear(&mut self) {
        self.wheel.clear();
        self.arena.clear();
        self.len = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn pops_in_time_then_fifo_order() {
        let mut q = EventQueue::new();
        q.push(t(2.0), "b1");
        q.push(t(1.0), "a");
        q.push(t(2.0), "b2");
        assert_eq!(q.pop(), Some((t(1.0), "a")));
        assert_eq!(q.pop(), Some((t(2.0), "b1")));
        assert_eq!(q.pop(), Some((t(2.0), "b2")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn len_tracks_pushes_and_pops() {
        let mut q = EventQueue::new();
        q.push(t(1.0), 1);
        q.push(t(2.0), 2);
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some((t(1.0), 1)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        assert_eq!(q.pop(), Some((t(2.0), 2)));
        assert!(q.is_empty());
    }

    #[test]
    fn peek_time_matches_next_pop() {
        let mut q = EventQueue::new();
        q.push(t(2.0), 2);
        q.push(t(1.0), 1);
        assert_eq!(q.peek_time(), Some(t(1.0)));
        q.pop();
        assert_eq!(q.peek_time(), Some(t(2.0)));
    }

    #[test]
    fn peek_time_empty_is_none() {
        let q: EventQueue<u8> = EventQueue::new();
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn clear_empties_everything() {
        let mut q = EventQueue::new();
        q.push(t(1.0), 1);
        q.push(t(2.0), 2);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
        // Pushes after the clear behave normally.
        q.push(t(3.0), 3);
        assert_eq!(q.pop(), Some((t(3.0), 3)));
    }

    #[test]
    fn many_events_maintain_order_invariant() {
        // Insert pseudo-random times; pops must come out sorted.
        let mut q = EventQueue::new();
        let mut x: u64 = 0x9E3779B97F4A7C15;
        for i in 0..1000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            q.push(SimTime::from_micros(x % 1_000_000), i);
        }
        let mut last = SimTime::ZERO;
        let mut n = 0;
        while let Some((ti, _)) = q.pop() {
            assert!(ti >= last);
            last = ti;
            n += 1;
        }
        assert_eq!(n, 1000);
    }

    #[test]
    fn stats_count_operations() {
        let mut q = EventQueue::new();
        q.push(t(1.0), 1);
        q.push(t(2.0), 2);
        q.pop();
        let s = q.stats();
        assert_eq!((s.pushes, s.pops, s.cancels), (2, 1, 0));
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Regardless of the push order, pops are `(time, seq)`-ordered
        /// and every pushed event comes out exactly once.
        #[test]
        fn pop_order_and_membership(
            times in proptest::collection::vec(0u64..1_000, 1..100),
        ) {
            let mut q = EventQueue::new();
            let mut expect: Vec<(u64, usize)> = Vec::new();
            for (i, &tt) in times.iter().enumerate() {
                q.push(SimTime::from_micros(tt), i);
                expect.push((tt, i));
            }
            expect.sort_unstable();
            let mut got = Vec::new();
            while let Some((tt, i)) = q.pop() {
                got.push((tt.as_micros(), i));
            }
            prop_assert_eq!(got, expect);
        }
    }
}
