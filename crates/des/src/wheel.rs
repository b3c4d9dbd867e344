//! A hierarchical timing wheel over the microsecond clock.
//!
//! The wheel replaces the `BinaryHeap` inside [`crate::EventQueue`]. It
//! holds only compact keys — slab slot indices into the
//! [`crate::arena::EventArena`], threaded into per-slot chains through
//! the arena's intrusive `next` links — so schedule and the amortized
//! per-event cascade work both touch O(1) memory, independent of how
//! many events are pending.
//!
//! # Layout
//!
//! `LEVELS` (8) wheels of `SLOTS` (64) slots each. A level-`k` slot spans
//! `64^k` µs, so level 0 resolves exact microsecond timestamps and the
//! eight levels together cover `64^8` µs ≈ 8.9 simulated years; anything
//! farther out parks in a far-future overflow ring and is folded back in
//! if the clock ever gets there. An event at time `t` lives at the level
//! of the highest base-64 digit in which `t` differs from the wheel
//! cursor `cur` — i.e. as low as its distance allows — at slot index
//! `(t >> 6k) & 63` (absolute indexing, no per-level offsets).
//!
//! # Cascade rules
//!
//! `cur` only advances during [`TimingWheel::pop`]: the search scans
//! level 0 from the cursor's digit upward (a single `u64` occupancy
//! bitmap per level makes that a `trailing_zeros`), and when the current
//! level-0 window is empty it finds the next occupied slot of the lowest
//! occupied higher level, moves `cur` to that slot's earliest event, and
//! lazily redistributes the slot's chain to lower levels. An event
//! scheduled `d` µs ahead therefore pays at most `log64 d` O(1) moves
//! over its lifetime, amortized constant for the simulator's workloads.
//!
//! # Exact total order
//!
//! Chains are unordered (pushes prepend), so when a level-0 slot comes
//! due its events are staged into a small recycled `due` batch and
//! sorted by `(time, seq)` — one exact timestamp per slot means the sort
//! almost always sees 0 or 1 elements. Pops drain the batch before
//! touching the wheel again; events pushed *at* the popped instant land
//! in the (already passed) level-0 slot, which the search revisits
//! because its bitmap scan is inclusive of the cursor digit. The result
//! is the same `(time, seq)` total order a stable binary heap produces,
//! pinned bitwise by the wheel-vs-heap proptest in
//! `crates/des/tests/wheel_vs_heap.rs`.
//!
//! Scheduling below the cursor ("into the past") is rejected by
//! [`crate::Scheduler`]; the queue itself keeps the old best-effort
//! contract — such events are merged into the due batch (or the cursor
//! slot) and still pop first, exactly like the heap they replace.

use crate::arena::{EventArena, NIL};
use crate::time::SimTime;

/// Slots per level; one `u64` occupancy bitmap per level.
const SLOTS: usize = 64;
/// Bits per base-64 digit.
const DIGIT_BITS: u32 = 6;
/// Wheel levels; total span `64^LEVELS` µs (~8.9 simulated years).
const LEVELS: usize = 8;

/// Base-64 digit `k` of `t`.
#[inline]
fn digit(t: u64, level: usize) -> u64 {
    (t >> (DIGIT_BITS * level as u32)) & (SLOTS as u64 - 1)
}

/// The wheel: chains of arena slots plus the due batch and overflow ring.
pub(crate) struct TimingWheel {
    /// Occupancy bitmap per level (bit `s` = slot `s` chain non-empty).
    occupied: [u64; LEVELS],
    /// Chain heads per level/slot (`NIL` = empty).
    heads: [[u32; SLOTS]; LEVELS],
    /// Wheel cursor, µs: every pending event is at or after `cur`, except
    /// best-effort past pushes which are clamped into the due batch.
    cur: u64,
    /// The staged level-0 slot, sorted ascending by `(time, seq)`;
    /// `due[due_pos..]` is still pending. Recycled between slots.
    due: Vec<(u64, u64, u32)>,
    due_pos: usize,
    /// Events beyond the wheel span: `(time µs, seq, slot)` — unsorted,
    /// folded back when the wheels drain.
    overflow: Vec<(u64, u64, u32)>,
    /// Total node re-placements (cascade moves), for perf counters.
    cascades: u64,
}

impl TimingWheel {
    pub fn new() -> Self {
        TimingWheel {
            occupied: [0; LEVELS],
            heads: [[NIL; SLOTS]; LEVELS],
            cur: 0,
            due: Vec::new(),
            due_pos: 0,
            overflow: Vec::new(),
            cascades: 0,
        }
    }

    /// Cascade moves performed so far (diagnostics/perf counters).
    pub fn cascades(&self) -> u64 {
        self.cascades
    }

    /// Occupancy bitmap of `level` restricted to slots at or after the
    /// cursor's digit there.
    #[inline]
    fn pending_from_cursor(&self, level: usize) -> u64 {
        let dk = digit(self.cur, level);
        (self.occupied[level] >> dk) << dk
    }

    /// Thread `slot` (already holding `(t, seq)` in the arena) into the
    /// wheel.
    pub fn schedule<E>(&mut self, arena: &mut EventArena<E>, t: SimTime, seq: u64, slot: u32) {
        let tm = t.as_micros();
        if tm <= self.cur && self.due_pos < self.due.len() {
            // Best-effort past push while a due batch is active: it must
            // pop before the batch remainder, so merge it in, keeping the
            // batch sorted. Never taken by `Scheduler` (which rejects
            // past scheduling); `t == cur` with an active batch also
            // lands here and sorts after the batch by its higher seq.
            let key = (tm, seq, slot);
            let at = self.due[self.due_pos..].partition_point(|e| *e < key) + self.due_pos;
            self.due.insert(at, key);
            return;
        }
        self.place(arena, tm.max(self.cur), seq, slot);
    }

    /// Put `slot` into the level/slot derived from `tm ≥ cur`. The
    /// arena's stored time is authoritative for delivery; `tm` is only
    /// the placement key (past pushes clamp it to `cur`).
    fn place<E>(&mut self, arena: &mut EventArena<E>, tm: u64, seq: u64, slot: u32) {
        let x = tm ^ self.cur;
        let level = if x == 0 {
            0
        } else {
            ((63 - x.leading_zeros()) / DIGIT_BITS) as usize
        };
        if level >= LEVELS {
            self.overflow.push((tm, seq, slot));
            return;
        }
        let s = digit(tm, level) as usize;
        arena.entry_mut(slot).next = self.heads[level][s];
        self.heads[level][s] = slot;
        self.occupied[level] |= 1 << s;
    }

    /// Deliver the earliest event: `(time, seq, payload)`.
    pub fn pop<E>(&mut self, arena: &mut EventArena<E>) -> Option<(SimTime, u64, E)> {
        loop {
            if self.due_pos < self.due.len() {
                let (tm, seq, slot) = self.due[self.due_pos];
                self.due_pos += 1;
                debug_assert!(arena.entry(slot).seq == seq, "due slot was recycled");
                let payload = arena.take_and_free(slot);
                return Some((SimTime::from_micros(tm), seq, payload));
            }
            self.due.clear();
            self.due_pos = 0;
            if !self.stage_next(arena) {
                if self.overflow.is_empty() {
                    return None;
                }
                self.rebase(arena);
            }
        }
    }

    /// Advance the cursor to the next occupied level-0 slot (cascading
    /// higher levels as needed) and stage its chain into `due`.
    /// Returns `false` when every wheel is empty.
    fn stage_next<E>(&mut self, arena: &mut EventArena<E>) -> bool {
        'search: loop {
            let m = self.pending_from_cursor(0);
            if m != 0 {
                let s = m.trailing_zeros() as usize;
                self.occupied[0] &= !(1 << s);
                let mut node = self.heads[0][s];
                self.heads[0][s] = NIL;
                // The slot's exact timestamp; past-clamped events may
                // carry earlier stored times and sort first.
                self.cur = (self.cur & !(SLOTS as u64 - 1)) | s as u64;
                while node != NIL {
                    let e = arena.entry(node);
                    self.due.push((e.time.as_micros(), e.seq, node));
                    node = e.next;
                }
                if self.due.len() > 1 {
                    self.due.sort_unstable();
                }
                return true;
            }
            for level in 1..LEVELS {
                let m = self.pending_from_cursor(level);
                if m == 0 {
                    continue;
                }
                let s = m.trailing_zeros() as usize;
                self.occupied[level] &= !(1 << s);
                let head = self.heads[level][s];
                self.heads[level][s] = NIL;
                // This chain is the earliest pending region, so the
                // cursor can jump straight to its earliest time (every
                // other event is beyond this slot's range): the minimum
                // then re-places at level 0 directly and the rest land
                // strictly below `level`, skipping the intermediate
                // cascade hops and empty low-level rescans a slot-start
                // cursor would pay.
                let mut min_tm = u64::MAX;
                let mut node = head;
                while node != NIL {
                    let e = arena.entry(node);
                    min_tm = min_tm.min(e.time.as_micros());
                    node = e.next;
                }
                self.cur = min_tm;
                let mut node = head;
                while node != NIL {
                    let e = arena.entry(node);
                    let (tm, seq, next) = (e.time.as_micros(), e.seq, e.next);
                    self.place(arena, tm, seq, node);
                    self.cascades += 1;
                    node = next;
                }
                continue 'search;
            }
            return false;
        }
    }

    /// Fold far-future overflow events back into the wheel once it has
    /// drained: jump the cursor to the earliest overflow time and
    /// re-place whatever now fits (the rest stays parked).
    fn rebase<E>(&mut self, arena: &mut EventArena<E>) {
        let min_tm = self.overflow.iter().map(|&(tm, _, _)| tm).min();
        self.cur = self
            .cur
            .max(min_tm.expect("rebase of an empty overflow ring"));
        for (tm, seq, slot) in std::mem::take(&mut self.overflow) {
            if (tm ^ self.cur) >> (DIGIT_BITS * LEVELS as u32) == 0 {
                self.place(arena, tm, seq, slot);
            } else {
                self.overflow.push((tm, seq, slot));
            }
        }
    }

    /// `(time, seq)` of the earliest event without delivering it.
    /// Read-only, so it scans a chain instead of cascading: the earliest
    /// event sits in the first occupied slot of the lowest occupied
    /// level, so only that slot's chain is read.
    pub fn peek<E>(&self, arena: &EventArena<E>) -> Option<(SimTime, u64)> {
        let earliest = if let Some(&(tm, seq, _)) = self.due.get(self.due_pos) {
            Some((tm, seq))
        } else if let Some(level) = (0..LEVELS).find(|&k| self.pending_from_cursor(k) != 0) {
            let s = self.pending_from_cursor(level).trailing_zeros() as usize;
            let mut best = (u64::MAX, u64::MAX);
            let mut node = self.heads[level][s];
            while node != NIL {
                let e = arena.entry(node);
                best = best.min((e.time.as_micros(), e.seq));
                node = e.next;
            }
            Some(best)
        } else {
            self.overflow.iter().map(|&(tm, seq, _)| (tm, seq)).min()
        };
        earliest.map(|(tm, seq)| (SimTime::from_micros(tm), seq))
    }

    /// Forget every chain. The arena is cleared by the caller; capacities
    /// (due/overflow buffers) are retained, and the cursor keeps its
    /// position so the clock stays monotone.
    pub fn clear(&mut self) {
        self.occupied = [0; LEVELS];
        self.heads = [[NIL; SLOTS]; LEVELS];
        self.due.clear();
        self.due_pos = 0;
        self.overflow.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(micros: u64) -> SimTime {
        SimTime::from_micros(micros)
    }

    /// Drive the wheel directly (the queue-level tests in
    /// `crate::queue` cover the public API; these pin the internals).
    struct Rig {
        wheel: TimingWheel,
        arena: EventArena<u64>,
        seq: u64,
    }

    impl Rig {
        fn new() -> Self {
            Rig {
                wheel: TimingWheel::new(),
                arena: EventArena::new(),
                seq: 0,
            }
        }

        fn push(&mut self, micros: u64) {
            let seq = self.seq;
            self.seq += 1;
            let slot = self.arena.insert(t(micros), seq, micros);
            self.wheel.schedule(&mut self.arena, t(micros), seq, slot);
        }

        fn pop(&mut self) -> Option<u64> {
            self.wheel.pop(&mut self.arena).map(|(tm, _, p)| {
                assert_eq!(tm.as_micros(), p);
                p
            })
        }
    }

    #[test]
    fn cross_level_times_pop_sorted() {
        let mut r = Rig::new();
        // One event per level boundary region, pushed out of order.
        let times = [
            5u64,
            64 + 3,
            64 * 64 + 9,
            64 * 64 * 64 + 1,
            16_777_216 + 77, // 64^4
            1_073_741_824,   // 64^5
            0,
            63,
            64,
        ];
        for &tm in &times {
            r.push(tm);
        }
        let mut sorted = times.to_vec();
        sorted.sort_unstable();
        let got: Vec<u64> = std::iter::from_fn(|| r.pop()).collect();
        assert_eq!(got, sorted);
    }

    #[test]
    fn same_slot_events_sort_by_seq() {
        let mut r = Rig::new();
        for _ in 0..5 {
            r.push(1000);
        }
        let mut seqs = Vec::new();
        while let Some((tm, seq, _)) = r.wheel.pop(&mut r.arena) {
            assert_eq!(tm, t(1000));
            seqs.push(seq);
        }
        assert_eq!(seqs, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn cascade_jumps_to_the_earliest_event() {
        let mut r = Rig::new();
        let far = 64 * 64 + 5; // level 2
        r.push(far + 1);
        r.push(far);
        assert_eq!(r.pop(), Some(far));
        assert_eq!(r.pop(), Some(far + 1));
        assert_eq!(r.pop(), None);
        // The cursor jumps straight to `far`: one move each out of
        // level 2, both landing at level 0, no intermediate hop.
        assert_eq!(r.wheel.cascades(), 2);
    }

    #[test]
    fn overflow_ring_round_trips() {
        let mut r = Rig::new();
        let span = 64u64.pow(8);
        r.push(span + 123); // beyond the wheels: parks in overflow
        r.push(50);
        assert_eq!(r.wheel.overflow.len(), 1);
        assert_eq!(r.pop(), Some(50));
        assert_eq!(r.pop(), Some(span + 123));
        assert_eq!(r.pop(), None);
    }

    #[test]
    fn peek_matches_pop() {
        let mut r = Rig::new();
        let span = 64u64.pow(8);
        for tm in [900, 10, 64 * 64 + 3, 900, span + 1] {
            r.push(tm);
        }
        while let Some(peeked) = r.wheel.peek(&r.arena) {
            let (tm, seq, _) = r.wheel.pop(&mut r.arena).expect("peek saw an event");
            assert_eq!(peeked, (tm, seq));
        }
        assert_eq!(r.pop(), None);
    }

    #[test]
    fn push_at_popped_instant_pops_after_batch() {
        let mut r = Rig::new();
        r.push(100);
        r.push(100);
        assert_eq!(r.pop(), Some(100));
        // Mid-batch push at the same instant: must pop after the batch
        // remainder (higher seq), like a stable heap.
        r.push(100);
        let mut seqs = Vec::new();
        while let Some((_, seq, _)) = r.wheel.pop(&mut r.arena) {
            seqs.push(seq);
        }
        assert_eq!(seqs, vec![1, 2]);
    }
}
