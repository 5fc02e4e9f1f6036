//! Differential property tests for the timing-wheel event queues.
//!
//! Every golden digest in the repo pins an event *schedule*, so the wheel
//! ([`Wheel`], under [`EventQueue`] and the sharded drain) is only
//! correct if it pops the exact sequence the binary heap it replaced
//! would pop — `(time, insertion seq)` for the engine queue, full
//! [`EventKey`] order for the shard queues. These tests drive the wheel
//! and the retained heap reference ([`Heap`], under [`HeapQueue`])
//! through arbitrary interleaved schedule/pop/pop-before programs over
//! both key orders — same-instant bursts, zero-delay self-events, page
//! and overflow crossings, u64-boundary times — and assert the two never
//! disagree on a pop, a peek, a length, or a clock.

use dynagg_node::event::{Heap, KeyedQueue, Wheel, WheelKey};
use dynagg_node::{EventKey, EventQueue, EventSched, HeapQueue};
use proptest::prelude::*;
use std::fmt::Debug;

/// Decode one generated op into a time delta with interesting shapes:
/// zero (same-instant), tiny (in-slot / next-slot), page-scale (inner ↔
/// outer wheel), overflow-scale, and u64-boundary.
fn delta_of(class: u8, raw: u64) -> u64 {
    match class % 6 {
        0 => 0,
        1 => raw % 4,
        2 => raw % 1_000,                 // inner/outer page crossings
        3 => (raw % 1_000) * 97 + 70_000, // past the outer horizon
        4 => u64::MAX - (raw % 1_000),    // u64-boundary times
        _ => (raw % 1_000) * 1_000_003,   // huge empty gaps
    }
}

/// One generated op: `(kind, class, raw, node, kclass, pops)`. `kind % 3`
/// schedules, pops `pops % 4 + 1` times, or pops before a horizon;
/// `class` and `raw` pick the delay or horizon; `node` and `kclass` pick
/// an [`EventKey`]'s shape.
type Op = (u8, u8, u64, u16, u8, u8);

/// An op of the `(time, seq)` programs: one pop per pop op.
fn seq_op((kind, class, raw): (u8, u8, u64)) -> Op {
    (kind, class, raw, 0, 0, 0)
}

/// The `(time, seq)` key of op `i`: op indices grow in scheduling order,
/// so one is the seq [`EventQueue`] would stamp.
fn seq_key(at: u64, i: usize, _: u16, _: u8) -> (u64, u64) {
    (at, i as u64)
}

/// The [`EventKey`] of op `i`. A unique per-op seq keeps keys distinct,
/// as in the engine (per-sender frame sequence / one timer per node).
fn event_key(at: u64, i: usize, node: u16, kclass: u8) -> EventKey {
    if kclass == 0 {
        EventKey::timer(at, u32::from(node) | ((i as u32) << 16))
    } else {
        EventKey::deliver(at, u32::from(node), u32::from(node / 3), i as u64)
    }
}

/// Run one program against the wheel and the heap in lockstep, ordered
/// by `key`, asserting identical observable behavior at every step.
fn run_program<K: WheelKey + Debug>(ops: &[Op], key: fn(u64, usize, u16, u8) -> K) {
    let mut wheel = Wheel::with_capacity(ops.len());
    let mut heap = Heap::with_capacity(ops.len());
    for (i, &(kind, class, raw, node, kclass, pops)) in ops.iter().enumerate() {
        let delta = delta_of(class, raw);
        match kind % 3 {
            0 => {
                // Schedule relative to the drain position (causality:
                // never into the past). Saturating keeps boundary math
                // honest at u64::MAX.
                let k = key(wheel.now_ms().saturating_add(delta), i, node, kclass);
                wheel.schedule(k, i);
                heap.schedule(k, i);
            }
            1 => {
                for _ in 0..=(pops % 4) {
                    assert_eq!(wheel.pop(), heap.pop(), "pop diverged at op {i}");
                }
            }
            _ => {
                let horizon = wheel.now_ms().saturating_add(delta);
                assert_eq!(
                    wheel.pop_before(horizon),
                    heap.pop_before(horizon),
                    "pop_before({horizon}) diverged at op {i}"
                );
            }
        }
        assert_eq!(wheel.len(), heap.len(), "len diverged at op {i}");
        assert_eq!(wheel.is_empty(), heap.is_empty());
        assert_eq!(wheel.peek_time(), heap.peek_time(), "peek diverged at op {i}");
        assert_eq!(wheel.now_ms(), heap.now_ms(), "clock diverged at op {i}");
    }
    // Drain to empty: the tail must agree too.
    loop {
        let (w, h) = (wheel.pop(), heap.pop());
        assert_eq!(w, h, "drain diverged");
        if w.is_none() {
            break;
        }
    }
}

proptest! {
    /// Wheel and heap pop identical `(time, seq)` sequences for arbitrary
    /// interleaved schedules.
    #[test]
    fn wheel_matches_heap_on_arbitrary_programs(
        ops in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u64>()), 0..400),
    ) {
        let ops: Vec<Op> = ops.into_iter().map(seq_op).collect();
        run_program(&ops, seq_key);
    }

    /// Same, biased to schedule-heavy programs so deep queues (thousands
    /// pending across all wheel levels) get drained.
    #[test]
    fn wheel_matches_heap_on_deep_queues(
        ops in proptest::collection::vec((0u8..4, any::<u8>(), any::<u64>()), 0..600),
    ) {
        // kind % 3: 0 and 3 schedule, 1 pops, 2 pop_befores → ~half the
        // ops enqueue, and the final drain walks the rest.
        let ops: Vec<Op> = ops.into_iter().map(seq_op).collect();
        run_program(&ops, seq_key);
    }

    /// The same runner over explicit [`EventKey`] order: keys arrive in
    /// arbitrary order within the causality envelope, and both queues
    /// must emit the identical key sequence.
    #[test]
    fn shard_wheel_matches_heap(
        ops in proptest::collection::vec(
            (any::<u8>(), any::<u8>(), any::<u64>(), any::<u16>(), 0u8..3, any::<u8>()),
            0..400,
        ),
    ) {
        run_program(&ops, event_key);
    }
}

/// A same-instant burst bigger than any wheel slot's warm capacity, with
/// zero-delay self-events injected while the instant drains.
#[test]
fn same_instant_burst_with_zero_delay_chains() {
    let mut wheel = EventQueue::new();
    let mut heap = HeapQueue::new();
    for i in 0..1_000 {
        wheel.schedule(42, i);
        heap.schedule(42, i);
    }
    for step in 0..500 {
        assert_eq!(wheel.pop(), heap.pop());
        // Mid-instant zero-delay self-event: must land behind every
        // already-queued same-time entry, in both implementations.
        let tag = 10_000 + step;
        wheel.schedule(42, tag);
        heap.schedule(42, tag);
    }
    loop {
        let (w, h) = (wheel.pop(), heap.pop());
        assert_eq!(w, h);
        if w.is_none() {
            break;
        }
    }
}

/// Timer-style workload: every pop reschedules its event one jittered
/// interval out, cycling the same population through the wheel's pages
/// for many laps (the engines' steady state).
#[test]
fn rescheduling_workload_stays_identical_for_many_laps() {
    let mut wheel = EventQueue::new();
    let mut heap = HeapQueue::new();
    for id in 0..64u64 {
        let at = id * 7 % 100;
        wheel.schedule(at, id);
        heap.schedule(at, id);
    }
    for step in 0..20_000u64 {
        let w = wheel.pop();
        assert_eq!(w, heap.pop(), "diverged at step {step}");
        let (at, id) = w.expect("population never drains");
        // Deterministic pseudo-jitter: interval 90..160 ms.
        let next = at + 90 + (at ^ id ^ step) % 70;
        wheel.schedule(next, id);
        heap.schedule(next, id);
    }
    assert_eq!(wheel.len(), 64);
    assert!(wheel.now_ms() > 20_000 * 90 / 64, "laps actually advanced time");
}

/// Far-future pre-scheduled events (the engine's sample/boundary pattern)
/// interleaved with near-term traffic: overflow → wheel migration paths.
#[test]
fn presched_far_future_interleaves_with_near_traffic() {
    let mut wheel = EventQueue::new();
    let mut heap = HeapQueue::new();
    // Pre-schedule "samples" every 100 ms out to 200 s (past the outer
    // horizon) — exactly what AsyncNet::run does up front.
    for k in 1..=2_000u64 {
        wheel.schedule(k * 100, usize::MAX - k as usize);
        heap.schedule(k * 100, usize::MAX - k as usize);
    }
    let mut id = 0usize;
    while let (Some(w), h) = (wheel.pop(), heap.pop()) {
        assert_eq!(Some(w), h);
        // Each event spawns a little near-term traffic for a while.
        if id < 3_000 {
            let at = w.0 + 1 + (w.0 % 37);
            wheel.schedule(at, id);
            heap.schedule(at, id);
            id += 1;
        }
    }
    assert!(wheel.is_empty() && heap.is_empty());
}
