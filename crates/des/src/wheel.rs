//! The pending-event set behind [`crate::Scheduler`]: a hierarchical
//! timing wheel over the microsecond clock, and the slab its chains
//! thread through.
//!
//! # Slab
//!
//! Every pending event sits in one slab slot, `(time, seq, next,
//! payload)`, from schedule to fire; the wheel moves only slot indices.
//! The slot's intrusive `next` link threads it into a wheel chain or the
//! free list, so one contiguous allocation backs both the payload store
//! and the chains. A delivered slot goes onto the free list, and the
//! next push takes it back (LIFO), so at steady state push and pop
//! allocate nothing (pinned by `zero_alloc.rs::des_queue_churn_wheel`).
//! Schedule and the amortized per-event cascade work both touch O(1)
//! memory, independent of how many events are pending.
//!
//! # Layout
//!
//! `LEVELS` (11) wheels of `SLOTS` (64) slots each. A level-`k` slot
//! spans `64^k` µs, so level 0 resolves exact microsecond timestamps.
//! Eleven base-64 digits are 66 bits, so the wheel places every `u64`
//! instant directly, [`SimTime::MAX`] included. An event at time `t`
//! lives at the level of the highest base-64 digit in which `t` differs
//! from the wheel cursor `cur` — i.e. as low as its distance allows — at
//! slot index `(t >> 6k) & 63` (absolute indexing, no per-level
//! offsets).
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
//! touching the wheel again. A push *at* the cursor instant merges into
//! the batch while one is active (an unranked push sorts after its
//! remainder, a ranked one may sort before it); otherwise it lands in
//! the level-0 cursor slot, which the search revisits because its bitmap
//! scan is inclusive of the cursor digit. The result is the same
//! `(time, seq)` total order a stable binary heap produces, pinned
//! bitwise by the Scheduler-vs-heap proptests in
//! `crates/des/tests/wheel_vs_heap.rs`.
//!
//! No push lands below the cursor: the cursor never passes the
//! scheduler's clock (it stands at the last popped instant), and the
//! [`crate::Scheduler`] rejects scheduling before its clock.

use crate::time::SimTime;

/// Slots per level; one `u64` occupancy bitmap per level.
const SLOTS: usize = 64;
/// Bits per base-64 digit.
const DIGIT_BITS: u32 = 6;
/// Wheel levels: enough base-64 digits to place every `u64` instant.
const LEVELS: usize = 11;
const _: () = assert!(DIGIT_BITS as usize * LEVELS >= u64::BITS as usize);

/// Base-64 digit `k` of `t`.
#[inline]
fn digit(t: u64, level: usize) -> u64 {
    (t >> (DIGIT_BITS * level as u32)) & (SLOTS as u64 - 1)
}

/// Sentinel for "end of chain" in `next` links.
const NIL: u32 = u32::MAX;

/// One slab slot.
struct Slot<E> {
    /// Scheduled fire time of the current occupant.
    time: SimTime,
    /// Occupant sequence number, the tie-breaker at equal times.
    seq: u64,
    /// Next slot in whatever chain this slot is threaded into: a wheel
    /// slot list, or the free list (unused while in the due batch).
    next: u32,
    /// `None` once the event was delivered and the slot freed.
    payload: Option<E>,
}

/// The wheel and its slab: chains of slab slots plus the due batch.
pub(crate) struct TimingWheel<E> {
    /// Occupancy bitmap per level (bit `s` = slot `s` chain non-empty).
    occupied: [u64; LEVELS],
    /// Chain heads per level/slot (`NIL` = empty).
    heads: [[u32; SLOTS]; LEVELS],
    /// Wheel cursor, µs: every pending event is at or after `cur`.
    cur: u64,
    /// The staged level-0 slot, sorted ascending by `(time, seq)`;
    /// `due[due_pos..]` is still pending. Recycled between slots.
    due: Vec<(u64, u64, u32)>,
    due_pos: usize,
    /// The slab every pending event lives in.
    slots: Vec<Slot<E>>,
    /// Head of the free list threaded through `slots` (`NIL` = empty).
    free: u32,
    /// Count of pending events.
    len: usize,
    /// Total node re-placements (cascade moves), for perf counters.
    cascades: u64,
}

impl<E> TimingWheel<E> {
    pub fn new() -> Self {
        TimingWheel {
            occupied: [0; LEVELS],
            heads: [[NIL; SLOTS]; LEVELS],
            cur: 0,
            due: Vec::new(),
            due_pos: 0,
            slots: Vec::new(),
            free: NIL,
            len: 0,
            cascades: 0,
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
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

    /// Enqueue `payload` at `t ≥ cur`, ordered by `seq` among equal times.
    pub fn push(&mut self, t: SimTime, seq: u64, payload: E) {
        let tm = t.as_micros();
        debug_assert!(tm >= self.cur, "push below the wheel cursor");
        let slot = self.claim(t, seq, payload);
        self.len += 1;
        if tm == self.cur && self.due_pos < self.due.len() {
            // The batch remainder is at the cursor instant too: merge by
            // seq, keeping the batch sorted.
            let key = (tm, seq, slot);
            let at = self.due[self.due_pos..].partition_point(|e| *e < key) + self.due_pos;
            self.due.insert(at, key);
            return;
        }
        self.place(tm, slot);
    }

    /// Store `(time, seq, payload)` in a slab slot: the last freed one
    /// when there is one (LIFO), a new one otherwise (steady state never
    /// grows the slab).
    fn claim(&mut self, time: SimTime, seq: u64, payload: E) -> u32 {
        if self.free != NIL {
            let slot = self.free;
            let e = &mut self.slots[slot as usize];
            self.free = e.next;
            e.time = time;
            e.seq = seq;
            e.next = NIL;
            e.payload = Some(payload);
            slot
        } else {
            let slot = self.slots.len() as u32;
            assert!(slot != NIL, "event slab exhausted");
            self.slots.push(Slot {
                time,
                seq,
                next: NIL,
                payload: Some(payload),
            });
            slot
        }
    }

    /// Put `slot`, due at `tm ≥ cur`, into the level and slot `tm`'s
    /// distance from the cursor picks.
    fn place(&mut self, tm: u64, slot: u32) {
        let level = (((tm ^ self.cur) | 1).ilog2() / DIGIT_BITS) as usize;
        let s = digit(tm, level) as usize;
        self.slots[slot as usize].next = self.heads[level][s];
        self.heads[level][s] = slot;
        self.occupied[level] |= 1 << s;
    }

    /// Deliver the earliest event: `(time, seq, payload)`. Its slot goes
    /// onto the free list.
    pub fn pop(&mut self) -> Option<(SimTime, u64, E)> {
        loop {
            if self.due_pos < self.due.len() {
                let (tm, seq, slot) = self.due[self.due_pos];
                self.due_pos += 1;
                let e = &mut self.slots[slot as usize];
                debug_assert!(e.seq == seq, "due slot was recycled");
                let payload = e.payload.take().expect("popping a free slot");
                e.next = self.free;
                self.free = slot;
                self.len -= 1;
                return Some((SimTime::from_micros(tm), seq, payload));
            }
            self.due.clear();
            self.due_pos = 0;
            if !self.stage_next() {
                return None;
            }
        }
    }

    /// Advance the cursor to the next occupied level-0 slot (cascading
    /// higher levels as needed) and stage its chain into `due`.
    /// Returns `false` when every wheel is empty.
    fn stage_next(&mut self) -> bool {
        'search: loop {
            let m = self.pending_from_cursor(0);
            if m != 0 {
                let s = m.trailing_zeros() as usize;
                self.occupied[0] &= !(1 << s);
                let mut node = self.heads[0][s];
                self.heads[0][s] = NIL;
                // The slot's exact timestamp.
                self.cur = (self.cur & !(SLOTS as u64 - 1)) | s as u64;
                while node != NIL {
                    let e = &self.slots[node as usize];
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
                    let e = &self.slots[node as usize];
                    min_tm = min_tm.min(e.time.as_micros());
                    node = e.next;
                }
                self.cur = min_tm;
                let mut node = head;
                while node != NIL {
                    let e = &self.slots[node as usize];
                    let (tm, next) = (e.time.as_micros(), e.next);
                    self.place(tm, node);
                    self.cascades += 1;
                    node = next;
                }
                continue 'search;
            }
            return false;
        }
    }

    /// `(time, seq)` of the earliest event without delivering it.
    /// Read-only, so it scans a chain instead of cascading: the earliest
    /// event sits in the first occupied slot of the lowest occupied
    /// level, so only that slot's chain is read.
    pub fn peek(&self) -> Option<(SimTime, u64)> {
        let (tm, seq) = if let Some(&(tm, seq, _)) = self.due.get(self.due_pos) {
            (tm, seq)
        } else {
            let level = (0..LEVELS).find(|&k| self.pending_from_cursor(k) != 0)?;
            let s = self.pending_from_cursor(level).trailing_zeros() as usize;
            let mut best = (u64::MAX, u64::MAX);
            let mut node = self.heads[level][s];
            while node != NIL {
                let e = &self.slots[node as usize];
                best = best.min((e.time.as_micros(), e.seq));
                node = e.next;
            }
            best
        };
        Some((SimTime::from_micros(tm), seq))
    }
}
#[cfg(test)]
mod tests {
    use super::*;

    fn t(micros: u64) -> SimTime {
        SimTime::from_micros(micros)
    }

    /// Drive the wheel directly with insertion-order seqs (the
    /// `Scheduler` tests cover the public API; these pin the internals).
    struct Rig {
        wheel: TimingWheel<u64>,
        seq: u64,
    }

    impl Rig {
        fn new() -> Self {
            Rig {
                wheel: TimingWheel::new(),
                seq: 0,
            }
        }

        fn push(&mut self, micros: u64) {
            self.wheel.push(t(micros), self.seq, micros);
            self.seq += 1;
        }

        fn pop(&mut self) -> Option<u64> {
            self.wheel.pop().map(|(tm, _, p)| {
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
        while let Some((tm, seq, _)) = r.wheel.pop() {
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
    fn top_levels_reach_the_end_of_time() {
        let mut r = Rig::new();
        // Levels 8 (from 64^8 = 2^48 µs), 9 and 10, up to `SimTime::MAX`
        // twice, pushed out of order among a level-0 event.
        let times = [
            u64::MAX,
            1 << 60,
            (1 << 54) + 7,
            3,
            (1 << 63) + 5,
            1 << 48,
            u64::MAX - 1,
            (1 << 48) + 64,
            u64::MAX,
        ];
        for &tm in &times {
            r.push(tm);
        }
        assert!(r.wheel.occupied[8..].iter().all(|&m| m != 0));
        // `(time, seq)` order: the two events at `SimTime::MAX` pop in
        // push order.
        let mut want: Vec<(u64, u64)> = times.iter().copied().zip(0..).collect();
        want.sort_unstable();
        let got: Vec<(u64, u64)> = std::iter::from_fn(|| r.wheel.pop())
            .map(|(tm, seq, _)| (tm.as_micros(), seq))
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn peek_matches_pop() {
        let mut r = Rig::new();
        for tm in [900, 10, 64 * 64 + 3, 900, 1 << 48, u64::MAX] {
            r.push(tm);
        }
        while let Some(peeked) = r.wheel.peek() {
            let (tm, seq, _) = r.wheel.pop().expect("peek saw an event");
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
        while let Some((_, seq, _)) = r.wheel.pop() {
            seqs.push(seq);
        }
        assert_eq!(seqs, vec![1, 2]);
    }

    #[test]
    fn freed_slots_are_reused_lifo() {
        let mut r = Rig::new();
        r.push(1); // slot 0
        r.push(2); // slot 1
        assert_eq!(r.pop(), Some(1));
        assert_eq!(r.pop(), Some(2));
        // LIFO: the last freed slot comes back first, and the slab does
        // not grow.
        assert_eq!(r.wheel.free, 1);
        r.push(3);
        assert_eq!((r.wheel.slots[1].payload, r.wheel.free), (Some(3), 0));
        r.push(4);
        assert_eq!((r.wheel.slots[0].payload, r.wheel.free), (Some(4), NIL));
        assert_eq!(r.wheel.slots.len(), 2);
        assert_eq!(r.pop(), Some(3));
        assert_eq!(r.pop(), Some(4));
    }
}
