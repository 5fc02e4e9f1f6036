//! The time-ordered event queues behind the asynchronous engines.
//!
//! All three async-family drains — the sequential [`AsyncNet`] loop, the
//! per-shard queues of `ShardedNet`, and the live service's timer pump —
//! schedule through one implementation: a two-level **timing wheel**
//! ([`Wheel`]) with a sorted overflow heap. Enqueue and dequeue are O(1)
//! amortized instead of the binary heap's O(log n), and slot storage is
//! recycled so a warmed-up queue allocates nothing per `schedule` call.
//!
//! The non-negotiable property is that pop order is **bit-identical** to
//! the binary heap it replaced: every golden digest in the repo pins the
//! event schedule, so the wheel may only change *when work happens on the
//! wall clock*, never *what* the simulation computes. Each slot therefore
//! carries the event's full ordering key — a [`WheelKey`]: `(time,
//! insertion seq)` for [`EventQueue`], the shard-invariant [`EventKey`]
//! the sharded drain schedules under — and a slot is sorted by that key
//! the moment it fires. Within one slot every entry shares a timestamp
//! (slots are page-aligned, see below), so the sort resolves exactly the
//! same ties the heap resolved, in exactly the same order. The retained
//! heap ([`Heap`], generic over the same keys) exists so property tests
//! and the benchmark's `node.event.*` metrics can check that claim
//! differentially. Both implement [`KeyedQueue`]; [`Sequenced`] stamps
//! the insertion seq over either, which makes [`EventQueue`] and
//! [`HeapQueue`].
//!
//! Two debug invariants guard causality, unchanged from the heap era:
//!
//! * events may only be scheduled at or after the last popped time
//!   (nothing schedules into the past), and
//! * popped event times are monotonically non-decreasing.
//!
//! [`AsyncNet`]: crate::loopback::AsyncNet

use std::cmp::{Ordering, Reverse};
use std::collections::{BinaryHeap, VecDeque};

/// Slot-index bits per wheel level: 256 slots each for the inner (1 ms
/// granularity) and outer (256 ms granularity) wheels, covering ~65 s of
/// future before the overflow heap takes over.
const SLOT_BITS: u32 = 8;
/// Slots per wheel level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Low-bits mask selecting a slot index out of a time.
const SLOT_MASK: u64 = SLOTS as u64 - 1;

/// The ordering key a wheel entry carries: a total order whose primary
/// component is the due time in milliseconds.
pub trait WheelKey: Copy + Ord {
    /// Due time of the event this key orders.
    fn at_ms(&self) -> u64;
}

/// `(at_ms, insertion seq)` — the key [`Sequenced`] stamps.
impl WheelKey for (u64, u64) {
    #[inline]
    fn at_ms(&self) -> u64 {
        self.0
    }
}

impl WheelKey for EventKey {
    #[inline]
    fn at_ms(&self) -> u64 {
        self.at_ms
    }
}

/// What a keyed event queue does — the one API of the [`Wheel`] and of
/// its [`Heap`] reference, whichever [`WheelKey`] they order by.
pub trait KeyedQueue: Default {
    /// The order events pop in.
    type Key: WheelKey;
    /// What an event carries.
    type Val;
    /// An empty queue at time 0, pre-sized for about `n` pending events,
    /// so a population-scale engine does not grow it event by event.
    fn with_capacity(n: usize) -> Self;
    /// Schedule `val` under `key`, due at `key.at_ms()`: never before the
    /// last popped time (a debug assertion guards causality).
    fn schedule(&mut self, key: Self::Key, val: Self::Val);
    /// The time of the next due event.
    fn peek_time(&self) -> Option<u64>;
    /// Pop the next event in key order.
    fn pop(&mut self) -> Option<(Self::Key, Self::Val)>;
    /// Pending events.
    fn len(&self) -> usize;
    /// The time the last popped event fired at (0 before any pop).
    fn now_ms(&self) -> u64;
    /// Pop the next event if it is due at or before `horizon_ms`.
    fn pop_before(&mut self, horizon_ms: u64) -> Option<(Self::Key, Self::Val)> {
        if self.peek_time()? <= horizon_ms {
            self.pop()
        } else {
            None
        }
    }
    /// Whether nothing is scheduled.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Overflow-heap entry ordered by key alone (`V` needs no ordering).
#[derive(Debug)]
struct OverEnt<K, V>(K, V);

impl<K: Ord, V> PartialEq for OverEnt<K, V> {
    fn eq(&self, other: &Self) -> bool {
        self.0 == other.0
    }
}

impl<K: Ord, V> Eq for OverEnt<K, V> {}

impl<K: Ord, V> PartialOrd for OverEnt<K, V> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<K: Ord, V> Ord for OverEnt<K, V> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.cmp(&other.0)
    }
}

/// A 256-bit occupancy bitmap: which slots of one wheel level are
/// non-empty. Lets the drain skip runs of empty slots in a handful of
/// word operations instead of scanning vectors.
#[derive(Debug, Default, Clone, Copy)]
struct Occ([u64; SLOTS / 64]);

impl Occ {
    #[inline]
    fn set(&mut self, i: usize) {
        self.0[i / 64] |= 1u64 << (i % 64);
    }

    #[inline]
    fn clear(&mut self, i: usize) {
        self.0[i / 64] &= !(1u64 << (i % 64));
    }

    /// Lowest occupied slot index `>= start`, if any.
    #[inline]
    fn next_at_or_after(&self, start: usize) -> Option<usize> {
        if start >= SLOTS {
            return None;
        }
        let mut w = start / 64;
        let mut bits = self.0[w] & (!0u64 << (start % 64));
        loop {
            if bits != 0 {
                return Some(w * 64 + bits.trailing_zeros() as usize);
            }
            w += 1;
            if w == SLOTS / 64 {
                return None;
            }
            bits = self.0[w];
        }
    }
}

/// A hierarchical timing wheel with exact (heap-identical) pop order.
///
/// Level layout, for a drain positioned at time `cursor` (the last popped
/// event time):
///
/// * **firing** — the slot currently being drained, sorted ascending by
///   key. Zero-delay events scheduled *at* `cursor` while it drains are
///   appended here (their keys compare greater than everything already
///   popped, so append preserves the sort).
/// * **inner** — 256 slots of 1 ms covering the *page-aligned* window
///   `t >> 8 == page`. Page alignment is what makes a slot single-valued:
///   every entry in slot `s` is due at exactly `(page << 8) | s`, so a
///   fired slot never needs re-bucketing and its sort is a pure tie-break.
/// * **outer** — 256 slots of 256 ms covering `t >> 16 == opage`; a slot
///   holds whole inner pages and cascades into the inner wheel when the
///   drain reaches it.
/// * **overflow** — a min-heap (by full key) for everything past the
///   outer horizon (~65 s ahead). When both wheels drain empty, the
///   wheels jump *directly* to the overflow minimum's page — no walking
///   of empty slots — which is what keeps u64-scale gaps O(k log n)
///   instead of O(gap).
///
/// Slot vectors, the firing deque, and the overflow heap all keep their
/// capacity across fire/cascade cycles, so a warmed-up wheel services
/// `schedule` without touching the allocator.
#[derive(Debug)]
pub struct Wheel<K, V> {
    firing: VecDeque<(K, V)>,
    inner: Box<[Vec<(K, V)>]>,
    outer: Box<[Vec<(K, V)>]>,
    inner_occ: Occ,
    outer_occ: Occ,
    inner_len: usize,
    outer_len: usize,
    overflow: BinaryHeap<Reverse<OverEnt<K, V>>>,
    /// Last popped event time (0 before any pop).
    cursor: u64,
    /// Inner window: the wheel holds times `t` with `t >> 8 == page`.
    page: u64,
    /// Outer window: `t >> 16 == opage` (and not in the inner window).
    opage: u64,
    len: usize,
}

impl<K: WheelKey, V> Default for Wheel<K, V> {
    fn default() -> Self {
        Self {
            firing: VecDeque::new(),
            inner: (0..SLOTS).map(|_| Vec::new()).collect(),
            outer: (0..SLOTS).map(|_| Vec::new()).collect(),
            inner_occ: Occ::default(),
            outer_occ: Occ::default(),
            inner_len: 0,
            outer_len: 0,
            overflow: BinaryHeap::new(),
            cursor: 0,
            page: 0,
            opage: 0,
            len: 0,
        }
    }
}

impl<K: WheelKey, V> KeyedQueue for Wheel<K, V> {
    type Key = K;
    type Val = V;

    /// The overflow heap absorbs the far-future bulk (pre-scheduled
    /// samples and boundaries), the firing deque the worst same-instant
    /// burst.
    fn with_capacity(n: usize) -> Self {
        let mut wheel = Self::default();
        wheel.overflow.reserve(n);
        wheel.firing.reserve((n / SLOTS).max(16));
        wheel
    }

    #[inline]
    fn len(&self) -> usize {
        self.len
    }

    #[inline]
    fn now_ms(&self) -> u64 {
        self.cursor
    }

    fn schedule(&mut self, key: K, val: V) {
        let t = key.at_ms();
        debug_assert!(
            t >= self.cursor,
            "scheduling into the past ({t} < {}) breaks causality",
            self.cursor
        );
        self.len += 1;
        if t <= self.cursor {
            // Due immediately (zero-delay self-event while its instant is
            // draining). Keep the firing deque sorted: the common case —
            // same time, fresh (larger) seq — lands at the back in O(1).
            let pos = self.firing.partition_point(|(k, _)| *k < key);
            if pos == self.firing.len() {
                self.firing.push_back((key, val));
            } else {
                self.firing.insert(pos, (key, val));
            }
        } else if t >> SLOT_BITS == self.page {
            let s = (t & SLOT_MASK) as usize;
            self.inner[s].push((key, val));
            self.inner_occ.set(s);
            self.inner_len += 1;
        } else if t >> (2 * SLOT_BITS) == self.opage {
            let s = ((t >> SLOT_BITS) & SLOT_MASK) as usize;
            self.outer[s].push((key, val));
            self.outer_occ.set(s);
            self.outer_len += 1;
        } else {
            self.overflow.push(Reverse(OverEnt(key, val)));
        }
    }

    /// Earliest pending key's due time. The level scan mirrors
    /// `advance` but mutates nothing.
    fn peek_time(&self) -> Option<u64> {
        if let Some((k, _)) = self.firing.front() {
            return Some(k.at_ms());
        }
        if self.len == 0 {
            return None;
        }
        if self.inner_len > 0 {
            if let Some(s) = self.inner_occ.next_at_or_after(self.inner_scan_start()) {
                return Some((self.page << SLOT_BITS) | s as u64);
            }
        }
        if self.outer_len > 0 {
            if let Some(o) = self.outer_occ.next_at_or_after(self.outer_scan_start()) {
                return self.outer[o].iter().map(|(k, _)| k.at_ms()).min();
            }
        }
        self.overflow.peek().map(|Reverse(OverEnt(k, _))| k.at_ms())
    }

    fn pop(&mut self) -> Option<(K, V)> {
        if self.firing.is_empty() {
            if self.len == 0 {
                return None;
            }
            self.advance();
        }
        let (k, v) = self.firing.pop_front().expect("advance leaves the due slot in firing");
        self.len -= 1;
        debug_assert!(
            k.at_ms() >= self.cursor,
            "event-time monotonicity violated: popped {} after {}",
            k.at_ms(),
            self.cursor
        );
        self.cursor = self.cursor.max(k.at_ms());
        Some((k, v))
    }
}

impl<K: WheelKey, V> Wheel<K, V> {
    /// The event the `n + 1`-th next pop returns, if it is already in
    /// the firing slot (no later slot is looked at) — what a drain
    /// prefetches for. A schedule in between lands behind it unless its
    /// key orders before it at the same instant.
    #[inline]
    pub(crate) fn peek_firing(&self, n: usize) -> Option<&V> {
        self.firing.get(n).map(|(_, v)| v)
    }

    /// First inner slot the drain has not passed yet.
    #[inline]
    fn inner_scan_start(&self) -> usize {
        if self.cursor >> SLOT_BITS == self.page {
            // The cursor's own slot already fired (its stragglers live in
            // `firing`), so the scan resumes one past it.
            (self.cursor & SLOT_MASK) as usize + 1
        } else {
            // Fresh page (cascade / overflow jump): nothing passed yet.
            0
        }
    }

    /// First outer slot (inner page) the drain has not passed yet.
    #[inline]
    fn outer_scan_start(&self) -> usize {
        if self.page >> SLOT_BITS == self.opage {
            (self.page & SLOT_MASK) as usize + 1
        } else {
            0
        }
    }

    /// Move the next due slot into `firing`, cascading levels as needed.
    /// Only called with `firing` empty and `len > 0`.
    fn advance(&mut self) {
        loop {
            if self.inner_len > 0 {
                let s = self
                    .inner_occ
                    .next_at_or_after(self.inner_scan_start())
                    .expect("inner entries are never behind the cursor");
                let mut v = std::mem::take(&mut self.inner[s]);
                self.inner_len -= v.len();
                self.inner_occ.clear(s);
                // Page alignment ⇒ one timestamp per slot; this sort is
                // exactly the heap's same-instant tie-break.
                v.sort_unstable_by_key(|e| e.0);
                self.firing.extend(v.drain(..));
                self.inner[s] = v; // hand the slot its capacity back
                return;
            }
            if self.outer_len > 0 {
                let o = self
                    .outer_occ
                    .next_at_or_after(self.outer_scan_start())
                    .expect("outer entries are never behind the current page");
                let mut v = std::mem::take(&mut self.outer[o]);
                self.outer_len -= v.len();
                self.outer_occ.clear(o);
                self.page = (self.opage << SLOT_BITS) | o as u64;
                for (k, val) in v.drain(..) {
                    let s = (k.at_ms() & SLOT_MASK) as usize;
                    self.inner[s].push((k, val));
                    self.inner_occ.set(s);
                    self.inner_len += 1;
                }
                self.outer[o] = v;
                continue;
            }
            // Both wheels empty: jump the windows straight to the
            // overflow minimum's page and pull that whole outer page in.
            let t = {
                let Reverse(OverEnt(k, _)) =
                    self.overflow.peek().expect("len > 0 with empty wheels ⇒ overflow holds it");
                k.at_ms()
            };
            self.opage = t >> (2 * SLOT_BITS);
            self.page = t >> SLOT_BITS;
            while let Some(Reverse(OverEnt(k, _))) = self.overflow.peek() {
                if k.at_ms() >> (2 * SLOT_BITS) != self.opage {
                    break;
                }
                let Reverse(OverEnt(k, val)) = self.overflow.pop().expect("just peeked");
                let t2 = k.at_ms();
                if t2 >> SLOT_BITS == self.page {
                    let s = (t2 & SLOT_MASK) as usize;
                    self.inner[s].push((k, val));
                    self.inner_occ.set(s);
                    self.inner_len += 1;
                } else {
                    let s = ((t2 >> SLOT_BITS) & SLOT_MASK) as usize;
                    self.outer[s].push((k, val));
                    self.outer_occ.set(s);
                    self.outer_len += 1;
                }
            }
        }
    }
}

/// The scheduling seam shared by the simulation ([`AsyncNet`]), sharded,
/// and live-service drains: timed events that pop in
/// `(time, insertion order)`. [`EventQueue`] is the wheel-backed
/// production implementation; [`HeapQueue`] the binary-heap reference the
/// property tests and the benchmark's `node.event.wheel_vs_heap` metric
/// compare it against.
///
/// [`AsyncNet`]: crate::loopback::AsyncNet
pub trait EventSched<K> {
    /// Schedule `kind` at `at_ms`. Same-time events pop in scheduling
    /// order.
    fn schedule(&mut self, at_ms: u64, kind: K);
    /// The time of the next due event.
    fn peek_time(&self) -> Option<u64>;
    /// Pop the next event.
    fn pop(&mut self) -> Option<(u64, K)>;
    /// Pop the next event if it is due at or before `horizon_ms`.
    fn pop_before(&mut self, horizon_ms: u64) -> Option<(u64, K)> {
        if self.peek_time()? <= horizon_ms {
            self.pop()
        } else {
            None
        }
    }
    /// Pending events.
    fn len(&self) -> usize;
    /// Whether nothing is scheduled.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// The time the last popped event fired at (0 before any pop).
    fn now_ms(&self) -> u64;
}

/// The `(time, insertion seq)` front-end over a keyed queue: the one
/// place a sequence number is stamped, so two events due at the same
/// millisecond resolve by who was scheduled first — a total order that
/// never depends on container internals.
#[derive(Debug, Default)]
pub struct Sequenced<Q> {
    queue: Q,
    seq: u64,
}

/// A deterministic timed event queue: pops in `(time, insertion order)`.
/// Wheel-backed (O(1) amortized); bit-identical in pop order to
/// [`HeapQueue`].
pub type EventQueue<K> = Sequenced<Wheel<(u64, u64), K>>;

/// The binary-heap queue the wheel replaced, kept as the differential
/// reference: property tests assert [`EventQueue`] pops the identical
/// `(time, seq)` sequence, and the benchmark's `node.event.heap_ns` /
/// `node.event.wheel_vs_heap` metrics report heap-vs-wheel throughput.
pub type HeapQueue<K> = Sequenced<Heap<(u64, u64), K>>;

impl<Q: KeyedQueue<Key = (u64, u64)>> Sequenced<Q> {
    /// An empty queue at time 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty queue pre-sized for about `n` pending events.
    pub fn with_capacity(n: usize) -> Self {
        Self { queue: Q::with_capacity(n), seq: 0 }
    }
}

impl<K> EventQueue<K> {
    /// [`Wheel::peek_firing`]: a schedule in between lands behind the
    /// peeked event (a fresh `seq` orders last in its instant).
    #[inline]
    pub(crate) fn peek_firing(&self, n: usize) -> Option<&K> {
        self.queue.peek_firing(n)
    }
}

impl<Q: KeyedQueue<Key = (u64, u64)>> EventSched<Q::Val> for Sequenced<Q> {
    fn schedule(&mut self, at_ms: u64, kind: Q::Val) {
        self.queue.schedule((at_ms, self.seq), kind);
        self.seq += 1;
    }

    fn peek_time(&self) -> Option<u64> {
        self.queue.peek_time()
    }

    fn pop(&mut self) -> Option<(u64, Q::Val)> {
        self.queue.pop().map(|((at_ms, _), kind)| (at_ms, kind))
    }

    fn len(&self) -> usize {
        self.queue.len()
    }

    fn now_ms(&self) -> u64 {
        self.queue.now_ms()
    }
}

/// The differential reference for [`Wheel`], generic over the same keys:
/// a min-heap pops any [`WheelKey`] order exactly, and keeps the same
/// causality guards.
#[derive(Debug)]
pub struct Heap<K, V> {
    heap: BinaryHeap<Reverse<OverEnt<K, V>>>,
    last_popped_ms: u64,
}

impl<K: WheelKey, V> Default for Heap<K, V> {
    fn default() -> Self {
        Self::with_capacity(0)
    }
}

impl<K: WheelKey, V> KeyedQueue for Heap<K, V> {
    type Key = K;
    type Val = V;

    fn with_capacity(n: usize) -> Self {
        Self { heap: BinaryHeap::with_capacity(n), last_popped_ms: 0 }
    }

    fn schedule(&mut self, key: K, val: V) {
        debug_assert!(
            key.at_ms() >= self.last_popped_ms,
            "scheduling into the past ({} < {}) breaks causality",
            key.at_ms(),
            self.last_popped_ms
        );
        self.heap.push(Reverse(OverEnt(key, val)));
    }

    fn peek_time(&self) -> Option<u64> {
        self.heap.peek().map(|Reverse(OverEnt(k, _))| k.at_ms())
    }

    fn pop(&mut self) -> Option<(K, V)> {
        let Reverse(OverEnt(key, val)) = self.heap.pop()?;
        debug_assert!(
            key.at_ms() >= self.last_popped_ms,
            "event-time monotonicity violated: popped {} after {}",
            key.at_ms(),
            self.last_popped_ms
        );
        self.last_popped_ms = key.at_ms();
        Some((key, val))
    }

    fn len(&self) -> usize {
        self.heap.len()
    }

    fn now_ms(&self) -> u64 {
        self.last_popped_ms
    }
}

/// The canonical ordering key of the **sharded** engine's queues.
///
/// [`EventQueue`] breaks same-millisecond ties by insertion order — a
/// total order, but one that depends on the global sequence in which the
/// single-threaded engine happened to schedule events. Shards schedule
/// concurrently, so insertion order is not reproducible across shard
/// counts; instead every event carries a key derived purely from *what*
/// it is: `(time, class, receiver, sender, per-sender sequence)`. Two
/// runs of the same spec at different shard counts build the same key
/// for every event, so each node observes its events in an identical
/// order no matter which shard processed them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct EventKey {
    /// Due time.
    pub at_ms: u64,
    /// Event class: timers (0) before deliveries (1) at the same time.
    pub class: u8,
    /// Receiving node (the timer's owner for class 0).
    pub to: u32,
    /// Sending node (the timer's owner for class 0).
    pub from: u32,
    /// The sender's frame sequence number (0 for timers — a node has at
    /// most one outstanding timer, so the first four fields already
    /// order them).
    pub seq: u64,
}

impl EventKey {
    /// A node's round-timer key.
    pub fn timer(at_ms: u64, id: u32) -> Self {
        Self { at_ms, class: 0, to: id, from: id, seq: 0 }
    }

    /// A frame-delivery key.
    pub fn deliver(at_ms: u64, to: u32, from: u32, seq: u64) -> Self {
        Self { at_ms, class: 1, to, from, seq }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_then_insertion_order() {
        let mut q = EventQueue::new();
        q.schedule(30, "c");
        q.schedule(10, "a1");
        q.schedule(10, "a2");
        q.schedule(20, "b");
        let order: Vec<(u64, &str)> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(order, vec![(10, "a1"), (10, "a2"), (20, "b"), (30, "c")]);
    }

    /// One horizon sequence, run over each key order below.
    fn check_horizon<K: WheelKey + std::fmt::Debug>(key: fn(u64, u32) -> K) {
        let mut q = Wheel::default();
        q.schedule(key(5, 0), "a");
        q.schedule(key(15, 1), "b");
        assert_eq!(q.pop_before(10), Some((key(5, 0), "a")));
        assert_eq!(q.pop_before(10), None);
        assert_eq!(q.len(), 1, "the late event stays scheduled");
        q.schedule(key(12, 2), "c");
        assert_eq!(q.pop_before(15), Some((key(12, 2), "c")));
        assert_eq!(q.pop_before(15), Some((key(15, 1), "b")));
        assert!(q.is_empty());
        assert_eq!(q.now_ms(), 15);
    }

    #[test]
    fn pop_before_respects_horizon() {
        check_horizon(|at, i| (at, u64::from(i)));
    }

    #[test]
    fn now_tracks_last_pop() {
        let mut q = EventQueue::new();
        assert_eq!(q.now_ms(), 0);
        q.schedule(7, ());
        q.pop();
        assert_eq!(q.now_ms(), 7);
        // Scheduling at the current time is allowed (zero-latency links).
        q.schedule(7, ());
        assert_eq!(q.pop(), Some((7, ())));
    }

    /// Schedule behind the clock on a fresh `Q`: a causality panic in
    /// debug builds.
    #[cfg(debug_assertions)]
    fn schedule_into_the_past<Q: KeyedQueue<Val = ()>>(key: fn(u64) -> Q::Key) {
        let mut q = Q::default();
        q.schedule(key(10), ());
        q.pop();
        q.schedule(key(9), ());
    }

    /// On the wheel and on its heap reference: the heap cases over both
    /// key orders are caught here, the wheel's by `should_panic`.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "breaks causality")]
    fn scheduling_into_the_past_is_caught() {
        let caught = |case: &dyn Fn()| {
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(case))
                .expect_err("scheduling into the past panics");
            let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
            assert!(msg.contains("breaks causality"), "{msg}");
        };
        caught(&|| schedule_into_the_past::<Heap<_, ()>>(|at| (at, 0)));
        caught(&|| schedule_into_the_past::<Heap<_, ()>>(|at| EventKey::timer(at, 0)));
        schedule_into_the_past::<Wheel<_, ()>>(|at| (at, 0));
    }

    #[test]
    fn crosses_pages_and_overflow_in_time_order() {
        // One event per level: firing-adjacent, inner, outer, overflow —
        // scheduled out of order, popped in time order.
        let mut q = EventQueue::new();
        q.schedule(100_000, "overflow");
        q.schedule(3, "inner");
        q.schedule(700, "outer");
        q.schedule(0, "due-now");
        let order: Vec<(u64, &str)> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(
            order,
            vec![(0, "due-now"), (3, "inner"), (700, "outer"), (100_000, "overflow")]
        );
        assert_eq!(q.now_ms(), 100_000);
    }

    #[test]
    fn zero_delay_events_scheduled_mid_instant_pop_in_seq_order() {
        let mut q = EventQueue::new();
        q.schedule(10, "first");
        q.schedule(10, "second");
        assert_eq!(q.pop(), Some((10, "first")));
        // The instant is still draining: a zero-delay self-event lands
        // after the already-queued same-time entry.
        q.schedule(10, "third");
        assert_eq!(q.pop(), Some((10, "second")));
        assert_eq!(q.pop(), Some((10, "third")));
        assert!(q.is_empty());
    }

    #[test]
    fn u64_boundary_times_survive() {
        let mut q = EventQueue::new();
        q.schedule(u64::MAX, "max");
        q.schedule(u64::MAX - 1, "almost");
        q.schedule(5, "near");
        assert_eq!(q.pop(), Some((5, "near")));
        assert_eq!(q.pop(), Some((u64::MAX - 1, "almost")));
        assert_eq!(q.pop(), Some((u64::MAX, "max")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn slot_capacity_is_recycled_across_laps() {
        // Drive several full inner-wheel laps through one slot index and
        // check the queue keeps draining correctly (allocation reuse is
        // measured by the benchmark's `node.event.allocs_per_event`;
        // correctness of the swap-back is here).
        let mut q = EventQueue::new();
        let mut expect = Vec::new();
        for lap in 0u64..5 {
            let t = lap * 256 + 17;
            for i in 0..3 {
                q.schedule(t, (lap, i));
                expect.push((t, (lap, i)));
            }
        }
        let got: Vec<(u64, (u64, u64))> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn shard_queue_pop_order_ignores_insertion_order() {
        // Same event set, two insertion orders → identical pop order.
        let keys = [
            EventKey::deliver(10, 2, 1, 5),
            EventKey::timer(10, 2),
            EventKey::deliver(10, 2, 1, 4),
            EventKey::deliver(10, 1, 3, 0),
            EventKey::deliver(5, 9, 0, 0),
        ];
        let pop_all = |order: &[usize]| {
            let mut q = Wheel::default();
            for &i in order {
                q.schedule(keys[i], i);
            }
            std::iter::from_fn(|| q.pop()).map(|(k, _)| k).collect::<Vec<_>>()
        };
        let a = pop_all(&[0, 1, 2, 3, 4]);
        let b = pop_all(&[4, 3, 2, 1, 0]);
        assert_eq!(a, b);
        // Time first, then class (timer before deliver), then receiver,
        // then sender sequence.
        assert_eq!(a[0], keys[4]);
        assert_eq!(a[1], keys[1]);
        assert_eq!(a[2], keys[3]);
        assert_eq!(a[3], keys[2]);
        assert_eq!(a[4], keys[0]);
    }

    #[test]
    fn shard_queue_respects_horizon() {
        check_horizon(EventKey::timer);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "breaks causality")]
    fn shard_queue_catches_scheduling_into_the_past() {
        schedule_into_the_past::<Wheel<_, ()>>(|at| EventKey::timer(at, 0));
    }

    /// How far the `peek_firing` properties look: twice the drains'
    /// distance.
    const PEEKS: usize = 2 * crate::PREFETCH_AHEAD;

    /// One action of a `peek_firing` program: schedule `tag` `dt` after
    /// the clock (`bits` picks a shard key's shape), or pop.
    enum Act {
        Schedule { dt: u64, tag: usize, bits: u64 },
        Pop,
    }

    /// Expand generated `(op, class, raw)` steps: op 0 schedules one
    /// event, 1 a same-instant burst of up to 16, 2 pops. Delay class 0 is
    /// zero — once its instant fires, an insert into the firing slot — and
    /// the others stay in the page or cross it. Tags are unique.
    fn program(steps: &[(u8, u8, u64)]) -> Vec<Act> {
        let mut acts = Vec::new();
        for (i, &(op, class, raw)) in steps.iter().enumerate() {
            let dt = match class % 3 {
                0 => 0,
                1 => raw % 4,
                _ => raw % 600,
            };
            let burst = match op % 3 {
                0 => 1,
                1 => 1 + raw % 16,
                _ => {
                    acts.push(Act::Pop);
                    continue;
                }
            };
            for j in 0..burst {
                acts.push(Act::Schedule { dt, tag: i * 64 + j as usize, bits: (raw >> 8) + j });
            }
        }
        acts
    }

    /// After every prefix of the program `acts`, a `Some` from
    /// `peek_firing(n)` is what the `n + 1`-th next pop returns, due at
    /// the instant the next pop is: the peek never reaches past the
    /// firing slot. `key` builds an event's key from its time, tag and
    /// shape bits; `last`, where the order has one, is a key behind every
    /// event pending at an instant, so scheduling it after the peek must
    /// not move the prediction.
    fn check_peek_firing<K: WheelKey>(
        acts: &[Act],
        key: impl Fn(u64, usize, u64) -> K,
        last: impl Fn(u64) -> Option<K>,
    ) {
        for end in 1..=acts.len() {
            let mut q = Wheel::default();
            for act in &acts[..end] {
                match *act {
                    Act::Schedule { dt, tag, bits } => {
                        q.schedule(key(q.now_ms() + dt, tag, bits), tag)
                    }
                    Act::Pop => drop(q.pop()),
                }
            }
            let peeks: Vec<Option<usize>> = (0..PEEKS).map(|n| q.peek_firing(n).copied()).collect();
            let next_at = q.peek_time();
            if let Some(k) = last(q.now_ms()) {
                q.schedule(k, usize::MAX);
            }
            for (n, peek) in peeks.into_iter().enumerate() {
                let popped = q.pop();
                if let Some(tag) = peek {
                    let (k, got) = popped.expect("a peeked event pops");
                    assert_eq!(got, tag, "peek_firing({n}) after {end} actions");
                    assert_eq!(Some(k.at_ms()), next_at, "peek_firing({n}) left the instant");
                }
            }
        }
    }

    proptest::proptest! {
        /// [`check_peek_firing`] over `(time, seq)` keys: tags grow in
        /// scheduling order, so a tag is the seq [`Sequenced`] would stamp.
        #[test]
        fn event_queue_peek_firing_is_the_pop_n_ahead(
            steps in proptest::collection::vec(
                (proptest::prelude::any::<u8>(), proptest::prelude::any::<u8>(),
                 proptest::prelude::any::<u64>()),
                0..60,
            ),
        ) {
            let acts = program(&steps);
            check_peek_firing(&acts, |at, tag, _| (at, tag as u64), |at| Some((at, u64::MAX)));
        }

        /// The same over [`EventKey`], whose same-instant inserts land
        /// anywhere in the firing slot by key: timers, and deliveries among
        /// a few receivers and senders.
        #[test]
        fn shard_queue_peek_firing_is_the_pop_n_ahead(
            steps in proptest::collection::vec(
                (proptest::prelude::any::<u8>(), proptest::prelude::any::<u8>(),
                 proptest::prelude::any::<u64>()),
                0..60,
            ),
        ) {
            let acts = program(&steps);
            check_peek_firing(
                &acts,
                |at, tag, bits| {
                    if bits % 3 == 0 {
                        EventKey::timer(at, tag as u32)
                    } else {
                        EventKey::deliver(at, (bits % 5) as u32, (bits % 7) as u32, tag as u64)
                    }
                },
                |_| None,
            );
        }
    }
}
