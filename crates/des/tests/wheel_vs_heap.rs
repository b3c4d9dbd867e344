//! Scheduler-vs-heap equivalence: the timing-wheel `Scheduler` must be
//! observationally identical to a stable `BinaryHeap` keyed on
//! `(time, seq)`, where a ranked push's rank replaces the `seq` and
//! sorts below every insertion-order `seq`. A reference heap lives in
//! this file, and proptest drives both side by side through random
//! schedule/pop/peek interleavings — including deltas spanning every
//! wheel level and the far-future overflow ring, with and without a
//! horizon — plus a deterministic model of the Optimized Gossiping-2
//! postpone storm, where every postponement pushes a new timer and
//! leaves the stale one queued. Every pop, clock reading, peek and
//! pending count must match exactly. Nothing is ever scheduled before
//! the scheduler's clock.

use ia_des::{Scheduler, SimTime, RANK_LIMIT};
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The reference queue: a binary heap on stable `(time, seq)` keys.
struct RefQueue<E> {
    heap: BinaryHeap<Reverse<(u64, u64, ValueCell<E>)>>,
    next_seq: u64,
}

/// Payload wrapper that compares as always-equal so the heap orders
/// purely on `(time, seq)`.
struct ValueCell<E>(E);
impl<E> PartialEq for ValueCell<E> {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}
impl<E> Eq for ValueCell<E> {}
impl<E> PartialOrd for ValueCell<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for ValueCell<E> {
    fn cmp(&self, _: &Self) -> std::cmp::Ordering {
        std::cmp::Ordering::Equal
    }
}

impl<E> RefQueue<E> {
    fn new() -> Self {
        RefQueue {
            heap: BinaryHeap::new(),
            next_seq: RANK_LIMIT,
        }
    }

    fn push(&mut self, t: u64, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse((t, seq, ValueCell(event))));
    }

    fn push_ranked(&mut self, t: u64, rank: u64, event: E) {
        self.heap.push(Reverse((t, rank, ValueCell(event))));
    }

    fn pop(&mut self) -> Option<(u64, E)> {
        self.heap.pop().map(|Reverse((t, _, cell))| (t, cell.0))
    }

    fn peek_time(&self) -> Option<u64> {
        self.heap.peek().map(|Reverse((t, _, _))| *t)
    }
}

/// Pop both queues once and check they agree; the heap's events at or
/// after `horizon` must not come out of the scheduler. Returns the
/// delivered event, if any.
fn pop_both(
    sched: &mut Scheduler<usize>,
    heap: &mut RefQueue<usize>,
    horizon: Option<u64>,
) -> Option<(u64, usize)> {
    let want = heap.pop().filter(|&(t, _)| horizon.is_none_or(|h| t < h));
    let got = sched.pop().map(|p| (sched.now().as_micros(), p));
    assert_eq!(got, want, "pop diverged");
    if got.is_some() {
        assert_eq!(sched.pending(), heap.heap.len(), "pending diverged");
    }
    got
}

#[derive(Debug, Clone)]
enum Op {
    /// Schedule at `last popped time + delta` with the next payload id.
    Push(u64),
    /// The same, ranked. The rank is the payload id with its bits
    /// reversed: unique, and in no relation to the push order.
    PushRanked(u64),
    Pop,
    Peek,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // Deltas chosen to land on every wheel level: level 0 (≤63 µs), mid
    // levels, the top level, and past the 64^8 span into the overflow
    // ring. The vendored `prop_oneof!` is unweighted, so the common
    // small-delta and pop arms are simply repeated.
    prop_oneof![
        (0u64..64).prop_map(Op::Push),
        (0u64..64).prop_map(Op::Push),
        (0u64..100_000).prop_map(Op::Push),
        (0u64..100_000).prop_map(Op::Push),
        (0u64..4_000_000_000).prop_map(Op::Push),
        (1u64 << 47..1 << 52).prop_map(Op::Push),
        (0u64..64).prop_map(Op::PushRanked),
        (0u64..100_000).prop_map(Op::PushRanked),
        Just(Op::Peek),
        Just(Op::Pop),
        Just(Op::Pop),
        Just(Op::Pop),
    ]
}

/// Run one op sequence through both queues, asserting identical
/// observable behaviour at every step. With a horizon `h`, the
/// scheduler delivers exactly the heap's events below `h`, then ends
/// empty with its clock at `h`.
fn drive(ops: &[Op], horizon: Option<u64>) {
    let mut sched: Scheduler<usize> = match horizon {
        Some(h) => Scheduler::new().with_horizon(SimTime::from_micros(h)),
        None => Scheduler::new(),
    };
    let mut heap: RefQueue<usize> = RefQueue::new();
    let mut payload = 0usize;

    for op in ops {
        let now = sched.now().as_micros();
        match op {
            Op::Push(delta) => {
                let t = now.saturating_add(*delta);
                sched.schedule_at(SimTime::from_micros(t), payload);
                heap.push(t, payload);
                payload += 1;
            }
            Op::PushRanked(delta) => {
                let t = now.saturating_add(*delta);
                let rank = (payload as u64).reverse_bits() >> 1;
                sched.schedule_ranked(SimTime::from_micros(t), rank, payload);
                heap.push_ranked(t, rank, payload);
                payload += 1;
            }
            Op::Pop => {
                let pending = !heap.heap.is_empty();
                if pop_both(&mut sched, &mut heap, horizon).is_none() && pending {
                    break; // the horizon cut the run
                }
            }
            Op::Peek => {
                let got = sched.peek_time().map(|t| t.as_micros());
                prop_assert_eq!(got, heap.peek_time(), "peek diverged at now={}", now);
            }
        }
    }
    let Some(h) = horizon else {
        // Drain both to the end: full pop order must agree.
        while pop_both(&mut sched, &mut heap, None).is_some() {}
        return;
    };
    // An event at the horizon itself ends the run even when every
    // random event lies below it.
    sched.schedule_at(SimTime::from_micros(h), payload);
    heap.push(h, payload);
    while pop_both(&mut sched, &mut heap, horizon).is_some() {}
    assert_eq!(sched.pop(), None);
    assert_eq!(sched.pending(), 0);
    assert_eq!(sched.now(), SimTime::from_micros(h));
    // A push after the horizon is cut by it too, wherever the wheel's
    // cursor stopped.
    sched.schedule_at(SimTime::from_micros(h), payload + 1);
    assert_eq!((sched.pending(), sched.pop()), (1, None));
    assert_eq!((sched.pending(), sched.now()), (0, SimTime::from_micros(h)));
}

fn horizon_strategy() -> impl Strategy<Value = u64> {
    // Horizons below, among and above the op deltas' scales.
    prop_oneof![
        0u64..1_000,
        0u64..100_000,
        0u64..4_000_000_000,
        1u64 << 47..1 << 53,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn wheel_matches_heap(ops in proptest::collection::vec(op_strategy(), 1..200)) {
        drive(&ops, None);
    }

    #[test]
    fn wheel_matches_heap_below_the_horizon(
        ops in proptest::collection::vec(op_strategy(), 1..200),
        h in horizon_strategy(),
    ) {
        drive(&ops, Some(h));
    }
}

/// The Optimized Gossiping-2 pattern as the simulation world runs it:
/// each received copy postpones the peer's pending broadcast timer by
/// pushing a new one, and the stale one stays queued until it pops and
/// is ignored. One delivery can produce dozens of such pushes. Model 32
/// peers postponing across interleaved pops and check every pop agrees.
#[test]
fn postpone_storm_matches_heap() {
    const PEERS: usize = 32;
    let mut sched: Scheduler<usize> = Scheduler::new();
    let mut heap: RefQueue<usize> = RefQueue::new();
    // Payload `id * PEERS + peer`; `current[peer]` is the live timer.
    let mut current = [0usize; PEERS];
    let mut next_id = 0usize;
    let mut arm = |sched: &mut Scheduler<usize>, heap: &mut RefQueue<usize>, peer, t| {
        let payload = next_id * PEERS + peer;
        next_id += 1;
        sched.schedule_at(SimTime::from_micros(t), payload);
        heap.push(t, payload);
        payload
    };

    // Every peer arms an initial timer.
    for (peer, slot) in current.iter_mut().enumerate() {
        *slot = arm(&mut sched, &mut heap, peer, 1_000 + 37 * peer as u64);
    }

    let mut x: u64 = 0xDEADBEEFCAFE;
    let mut rand = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };

    let mut now = 0u64;
    let mut stale = 0;
    for round in 0..2_000 {
        // A "copy arrives" at a pseudo-random peer: postpone its timer.
        let peer = (rand() % PEERS as u64) as usize;
        let t2 = now + 500 + rand() % 50_000;
        current[peer] = arm(&mut sched, &mut heap, peer, t2);

        // Occasionally let time advance.
        if round % 5 == 0 {
            if let Some((t, payload)) = pop_both(&mut sched, &mut heap, None) {
                now = t;
                if current[payload % PEERS] != payload {
                    stale += 1;
                }
            }
        }
    }
    while pop_both(&mut sched, &mut heap, None).is_some() {}
    assert!(stale > 0, "the storm never popped a stale timer");
}
