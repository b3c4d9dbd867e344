//! Wheel-vs-heap equivalence: the timing-wheel `EventQueue` must be
//! observationally identical to a stable `BinaryHeap` keyed on
//! `(time, seq)`. A reference heap lives in this file, and proptest
//! drives both side by side through random push/pop/peek interleavings —
//! including deltas spanning every wheel level and the far-future
//! overflow ring — plus a deterministic model of the Optimized
//! Gossiping-2 postpone storm, where every postponement pushes a new
//! timer and leaves the stale one queued. Every pop, peek and length
//! must match exactly.

use ia_des::{EventQueue, SimTime};
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
            next_seq: 0,
        }
    }

    fn push(&mut self, t: u64, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse((t, seq, ValueCell(event))));
    }

    fn pop(&mut self) -> Option<(u64, E)> {
        self.heap.pop().map(|Reverse((t, _, cell))| (t, cell.0))
    }

    fn peek_time(&self) -> Option<u64> {
        self.heap.peek().map(|Reverse((t, _, _))| *t)
    }
}

/// Pop both queues once and check they agree.
fn pop_both(wheel: &mut EventQueue<usize>, heap: &mut RefQueue<usize>) -> Option<(u64, usize)> {
    let got = wheel.pop().map(|(t, p)| (t.as_micros(), p));
    let want = heap.pop();
    assert_eq!(got, want, "pop diverged");
    assert_eq!(wheel.len(), heap.heap.len(), "len diverged");
    got
}

#[derive(Debug, Clone)]
enum Op {
    /// Schedule at `last popped time + delta` with the next payload id.
    Push(u64),
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
        Just(Op::Peek),
        Just(Op::Pop),
        Just(Op::Pop),
        Just(Op::Pop),
    ]
}

/// Run one op sequence through both queues, asserting identical
/// observable behaviour at every step.
fn drive(ops: &[Op]) {
    let mut wheel: EventQueue<usize> = EventQueue::new();
    let mut heap: RefQueue<usize> = RefQueue::new();
    let mut now = 0u64;
    let mut payload = 0usize;

    for op in ops {
        match op {
            Op::Push(delta) => {
                let t = now.saturating_add(*delta);
                wheel.push(SimTime::from_micros(t), payload);
                heap.push(t, payload);
                payload += 1;
            }
            Op::Pop => {
                if let Some((t, _)) = pop_both(&mut wheel, &mut heap) {
                    now = t;
                }
            }
            Op::Peek => {
                let got = wheel.peek_time().map(|t| t.as_micros());
                prop_assert_eq!(got, heap.peek_time(), "peek diverged at now={}", now);
            }
        }
    }
    // Drain both to the end: full pop order must agree.
    while pop_both(&mut wheel, &mut heap).is_some() {}
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn wheel_matches_heap(ops in proptest::collection::vec(op_strategy(), 1..200)) {
        drive(&ops);
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
    let mut wheel: EventQueue<usize> = EventQueue::new();
    let mut heap: RefQueue<usize> = RefQueue::new();
    // Payload `id * PEERS + peer`; `current[peer]` is the live timer.
    let mut current = [0usize; PEERS];
    let mut next_id = 0usize;
    let mut arm = |wheel: &mut EventQueue<usize>, heap: &mut RefQueue<usize>, peer, t| {
        let payload = next_id * PEERS + peer;
        next_id += 1;
        wheel.push(SimTime::from_micros(t), payload);
        heap.push(t, payload);
        payload
    };

    // Every peer arms an initial timer.
    for (peer, slot) in current.iter_mut().enumerate() {
        *slot = arm(&mut wheel, &mut heap, peer, 1_000 + 37 * peer as u64);
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
        current[peer] = arm(&mut wheel, &mut heap, peer, t2);

        // Occasionally let time advance.
        if round % 5 == 0 {
            if let Some((t, payload)) = pop_both(&mut wheel, &mut heap) {
                now = t;
                if current[payload % PEERS] != payload {
                    stale += 1;
                }
            }
        }
    }
    while pop_both(&mut wheel, &mut heap).is_some() {}
    assert!(stale > 0, "the storm never popped a stale timer");
}
