//! Scheduler-vs-heap equivalence: the timing-wheel `Scheduler` must be
//! observationally identical to a stable `BinaryHeap` keyed on
//! `(time, seq)`, where a ranked push's rank replaces the `seq` and
//! sorts below every insertion-order `seq`. A reference heap lives in
//! this file, and proptest drives both side by side through random
//! schedule/pop/peek interleavings — including deltas and horizons up
//! to 2^63 µs, so every one of the wheel's eleven levels runs, with and
//! without a horizon — plus a deterministic model of the Optimized
//! Gossiping-2 postpone storm, where every postponement pushes a new
//! timer and leaves the stale one queued. Every pop, clock reading, peek
//! and pending count must match exactly. The heap keeps every push; the
//! scheduler drops a push at or after its horizon at once, so its peek
//! and pending count see only the heap's events below the horizon.
//! Nothing is ever scheduled before the scheduler's clock.

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

    /// The earliest time below `horizon`.
    fn peek_time(&self, horizon: Option<u64>) -> Option<u64> {
        let t = self.heap.peek().map(|Reverse((t, _, _))| *t);
        t.filter(|&t| below(t, horizon))
    }

    /// How many events lie below `horizon`.
    fn pending(&self, horizon: Option<u64>) -> usize {
        let times = self.heap.iter().map(|Reverse((t, _, _))| *t);
        times.filter(|&t| below(t, horizon)).count()
    }
}

fn below(t: u64, horizon: Option<u64>) -> bool {
    horizon.is_none_or(|h| t < h)
}

/// Pop both queues once and check they agree; the heap's events at or
/// after `horizon` must not come out of the scheduler, nor count as
/// pending in it. Returns the delivered event, if any.
fn pop_both(
    sched: &mut Scheduler<usize>,
    heap: &mut RefQueue<usize>,
    horizon: Option<u64>,
) -> Option<(u64, usize)> {
    let want = heap.pop().filter(|&(t, _)| below(t, horizon));
    let got = sched.pop().map(|p| (sched.now().as_micros(), p));
    assert_eq!(got, want, "pop diverged");
    assert_eq!(sched.pending(), heap.pending(horizon), "pending diverged");
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
    // levels, and levels 8 to 10 (from 64^8 = 2^48 µs up to 2^63 µs;
    // times saturate at `SimTime::MAX`). The vendored `prop_oneof!` is
    // unweighted, so the common small-delta and pop arms are simply
    // repeated.
    prop_oneof![
        (0u64..64).prop_map(Op::Push),
        (0u64..64).prop_map(Op::Push),
        (0u64..100_000).prop_map(Op::Push),
        (0u64..100_000).prop_map(Op::Push),
        (0u64..4_000_000_000).prop_map(Op::Push),
        (1u64 << 47..1 << 52).prop_map(Op::Push),
        (1u64 << 52..=1 << 63).prop_map(Op::Push),
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
/// empty with its clock at `h`; pushes after that are dropped too.
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
                pop_both(&mut sched, &mut heap, horizon);
            }
            Op::Peek => {
                let got = sched.peek_time().map(|t| t.as_micros());
                let want = heap.peek_time(horizon);
                prop_assert_eq!(got, want, "peek diverged at now={}", now);
                assert_eq!(sched.pending(), heap.pending(horizon), "pending diverged");
            }
        }
    }
    let Some(h) = horizon else {
        // Drain both to the end: full pop order must agree.
        while pop_both(&mut sched, &mut heap, None).is_some() {}
        return;
    };
    // A push at the horizon itself is dropped at once, whether or not
    // the run has reached the horizon yet.
    let pending = sched.pending();
    sched.schedule_at(SimTime::from_micros(h), payload);
    heap.push(h, payload);
    assert_eq!(sched.pending(), pending);
    while pop_both(&mut sched, &mut heap, horizon).is_some() {}
    assert_eq!(sched.pop(), None);
    assert_eq!(sched.pending(), 0);
    assert_eq!(sched.now(), SimTime::from_micros(h));
    // So is a push at the horizon after the run ended.
    sched.schedule_at(SimTime::from_micros(h), payload + 1);
    assert_eq!((sched.pending(), sched.pop()), (0, None));
    assert_eq!(sched.now(), SimTime::from_micros(h));
    // Every push counted, and every pop delivered.
    let q = sched.queue_stats();
    assert_eq!(q.pushes, payload as u64 + 2);
    assert_eq!(q.pops, sched.events_processed());
}

fn horizon_strategy() -> impl Strategy<Value = u64> {
    // Horizons below, among and above the op deltas' scales, up to
    // 2^63 µs.
    prop_oneof![
        0u64..1_000,
        0u64..100_000,
        0u64..4_000_000_000,
        1u64 << 47..1 << 53,
        1u64 << 53..=1 << 63,
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
