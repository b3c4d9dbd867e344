//! A recycled slab arena for pending-event payloads.
//!
//! The timing wheel (see [`crate::wheel`]) moves only compact
//! `(time, seq, slot)` keys; the payloads live here and never move
//! between schedule and fire. Each slab slot also stores the intrusive
//! `next` link that threads it into a wheel-slot list or the arena's own
//! free list, so one contiguous allocation backs both the payload store
//! and the wheel's chains.
//!
//! Lifetime rules:
//! * `insert` pops the free list (or grows the slab once, at warm-up).
//! * `take_and_free` hands the payload back on delivery and pushes the
//!   slot onto the free list. Every occupied slot is threaded into
//!   exactly one wheel chain, the due batch, or the overflow ring until
//!   then.

use crate::time::SimTime;

/// Sentinel for "end of chain" in `next` links.
pub(crate) const NIL: u32 = u32::MAX;

pub(crate) struct SlabEntry<E> {
    /// Scheduled fire time of the current occupant.
    pub time: SimTime,
    /// Occupant sequence number, the FIFO tie-breaker.
    pub seq: u64,
    /// Next slot in whatever chain this slot is threaded into: a wheel
    /// slot list, the due batch (unused there), or the free list.
    pub next: u32,
    /// `None` once the event was delivered and the slot freed.
    pub payload: Option<E>,
}

/// The slab: contiguous entries plus an intrusive free list.
pub(crate) struct EventArena<E> {
    entries: Vec<SlabEntry<E>>,
    free_head: u32,
}

impl<E> EventArena<E> {
    pub fn new() -> Self {
        EventArena {
            entries: Vec::new(),
            free_head: NIL,
        }
    }

    /// Claim a slot for `(time, seq, payload)`. Reuses a freed slot when
    /// one exists; grows the slab otherwise (steady state never grows).
    pub fn insert(&mut self, time: SimTime, seq: u64, payload: E) -> u32 {
        if self.free_head != NIL {
            let slot = self.free_head;
            let e = &mut self.entries[slot as usize];
            self.free_head = e.next;
            e.time = time;
            e.seq = seq;
            e.next = NIL;
            e.payload = Some(payload);
            slot
        } else {
            let slot = self.entries.len() as u32;
            assert!(slot != NIL, "event arena exhausted");
            self.entries.push(SlabEntry {
                time,
                seq,
                next: NIL,
                payload: Some(payload),
            });
            slot
        }
    }

    /// Take the payload out of an occupied slot and push the slot onto
    /// the free list. The caller must have unthreaded it from any wheel
    /// chain first.
    pub fn take_and_free(&mut self, slot: u32) -> E {
        let e = &mut self.entries[slot as usize];
        let payload = e.payload.take().expect("freeing an empty slot");
        e.next = self.free_head;
        self.free_head = slot;
        payload
    }

    #[inline]
    pub fn entry(&self, slot: u32) -> &SlabEntry<E> {
        &self.entries[slot as usize]
    }

    #[inline]
    pub fn entry_mut(&mut self, slot: u32) -> &mut SlabEntry<E> {
        &mut self.entries[slot as usize]
    }

    /// Drop everything and reset the free list. Capacity is retained.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.free_head = NIL;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(micros: u64) -> SimTime {
        SimTime::from_micros(micros)
    }

    #[test]
    fn insert_take_roundtrip() {
        let mut a = EventArena::new();
        let s = a.insert(t(5), 0, "x");
        assert_eq!(a.entry(s).seq, 0);
        assert_eq!(a.take_and_free(s), "x");
        assert!(a.entry(s).payload.is_none());
    }

    #[test]
    fn freed_slots_are_reused_lifo() {
        let mut a = EventArena::new();
        let s0 = a.insert(t(1), 0, 10);
        let s1 = a.insert(t(2), 1, 11);
        a.take_and_free(s0);
        a.take_and_free(s1);
        // LIFO: the last freed slot comes back first.
        assert_eq!(a.insert(t(3), 2, 12), s1);
        assert_eq!(a.insert(t(4), 3, 13), s0);
    }
}
