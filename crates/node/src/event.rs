//! The time-ordered event queues behind the asynchronous engines.
//!
//! All three async-family drains — the sequential [`AsyncNet`] loop, the
//! per-shard queues of `ShardedNet`, and the live service's timer pump —
//! schedule through one implementation: a two-level **timing wheel**
//! (the private `Wheel`) with a sorted overflow heap. Enqueue and
//! dequeue are O(1)
//! amortized instead of the binary heap's O(log n), and slot storage is
//! recycled so a warmed-up queue allocates nothing per `schedule` call.
//!
//! The non-negotiable property is that pop order is **bit-identical** to
//! the binary heap it replaced: every golden digest in the repo pins the
//! event schedule, so the wheel may only change *when work happens on the
//! wall clock*, never *what* the simulation computes. Each slot therefore
//! carries the event's full ordering key — `(time, insertion seq)` for
//! [`EventQueue`], the shard-invariant [`EventKey`] for [`ShardQueue`] —
//! and a slot is sorted by that key the moment it fires. Within one slot
//! every entry shares a timestamp (slots are page-aligned, see below), so
//! the sort resolves exactly the same ties the heap resolved, in exactly
//! the same order. The retained heap implementations ([`HeapQueue`],
//! [`HeapShardQueue`]) exist so property tests and the benchmark's
//! `node.event.*` metrics can check that claim differentially.
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

/// `(at_ms, insertion seq)` — the [`EventQueue`] key.
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
struct Wheel<K, V> {
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

impl<K: WheelKey, V> Wheel<K, V> {
    fn new() -> Self {
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

    /// Pre-size for about `n` pending events (population-scale): the
    /// overflow heap absorbs the far-future bulk (pre-scheduled samples
    /// and boundaries), the firing deque the worst same-instant burst.
    fn reserve(&mut self, n: usize) {
        self.overflow.reserve(n);
        self.firing.reserve((n / SLOTS).max(16));
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
    /// [`Self::advance`] but mutates nothing.
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

/// A deterministic timed event queue: pops in `(time, insertion order)`,
/// so two events due at the same millisecond resolve by who was scheduled
/// first — a total order that never depends on container internals.
/// Wheel-backed (O(1) amortized); bit-identical in pop order to
/// [`HeapQueue`].
#[derive(Debug)]
pub struct EventQueue<K> {
    wheel: Wheel<(u64, u64), K>,
    seq: u64,
}

impl<K> Default for EventQueue<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K> EventQueue<K> {
    /// An empty queue at time 0.
    pub fn new() -> Self {
        Self { wheel: Wheel::new(), seq: 0 }
    }

    /// An empty queue pre-sized for about `n` pending events, so a
    /// population-scale engine does not grow the queue event by event.
    pub fn with_capacity(n: usize) -> Self {
        let mut q = Self::new();
        q.wheel.reserve(n);
        q
    }
}

impl<K> EventSched<K> for EventQueue<K> {
    fn schedule(&mut self, at_ms: u64, kind: K) {
        self.wheel.schedule((at_ms, self.seq), kind);
        self.seq += 1;
    }

    fn peek_time(&self) -> Option<u64> {
        self.wheel.peek_time()
    }

    fn pop(&mut self) -> Option<(u64, K)> {
        self.wheel.pop().map(|((at_ms, _), kind)| (at_ms, kind))
    }

    fn len(&self) -> usize {
        self.wheel.len()
    }

    fn now_ms(&self) -> u64 {
        self.wheel.now_ms()
    }
}

/// The binary-heap queue the wheel replaced, kept as the differential
/// reference: property tests assert [`EventQueue`] pops the identical
/// `(time, seq)` sequence, and the benchmark's `node.event.heap_ns` /
/// `node.event.wheel_vs_heap` metrics report heap-vs-wheel throughput.
#[derive(Debug)]
pub struct HeapQueue<K> {
    heap: BinaryHeap<Reverse<OverEnt<(u64, u64), K>>>,
    seq: u64,
    last_popped_ms: u64,
}

impl<K> Default for HeapQueue<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K> HeapQueue<K> {
    /// An empty queue at time 0.
    pub fn new() -> Self {
        Self { heap: BinaryHeap::new(), seq: 0, last_popped_ms: 0 }
    }

    /// An empty queue pre-sized for `n` pending events.
    pub fn with_capacity(n: usize) -> Self {
        Self { heap: BinaryHeap::with_capacity(n), seq: 0, last_popped_ms: 0 }
    }
}

impl<K> EventSched<K> for HeapQueue<K> {
    fn schedule(&mut self, at_ms: u64, kind: K) {
        debug_assert!(
            at_ms >= self.last_popped_ms,
            "scheduling into the past ({at_ms} < {}) breaks causality",
            self.last_popped_ms
        );
        self.heap.push(Reverse(OverEnt((at_ms, self.seq), kind)));
        self.seq += 1;
    }

    fn peek_time(&self) -> Option<u64> {
        self.heap.peek().map(|Reverse(OverEnt((at_ms, _), _))| *at_ms)
    }

    fn pop(&mut self) -> Option<(u64, K)> {
        let Reverse(OverEnt((at_ms, _), kind)) = self.heap.pop()?;
        debug_assert!(
            at_ms >= self.last_popped_ms,
            "event-time monotonicity violated: popped {} after {}",
            at_ms,
            self.last_popped_ms
        );
        self.last_popped_ms = at_ms;
        Some((at_ms, kind))
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

/// The per-shard queue of the sharded engine: the same timing wheel,
/// ordered by an explicit [`EventKey`] so the tie-break is a pure
/// function of the event set rather than of insertion order. Same
/// causality guards as [`EventQueue`]. [`HeapShardQueue`] is its
/// binary-heap differential reference.
#[derive(Debug)]
pub struct ShardQueue<K> {
    wheel: Wheel<EventKey, K>,
}

impl<K> Default for ShardQueue<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K> ShardQueue<K> {
    /// An empty queue at time 0.
    pub fn new() -> Self {
        Self { wheel: Wheel::new() }
    }

    /// An empty queue pre-sized for about `n` pending events.
    pub fn with_capacity(n: usize) -> Self {
        let mut q = Self::new();
        q.wheel.reserve(n);
        q
    }

    /// Pending events.
    pub fn len(&self) -> usize {
        self.wheel.len()
    }

    /// Whether nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.wheel.len() == 0
    }

    /// The time the last popped event fired at (0 before any pop).
    pub fn now_ms(&self) -> u64 {
        self.wheel.now_ms()
    }

    /// Schedule `kind` under `key`.
    pub fn schedule(&mut self, key: EventKey, kind: K) {
        self.wheel.schedule(key, kind);
    }

    /// The time of the next due event.
    pub fn peek_time(&self) -> Option<u64> {
        self.wheel.peek_time()
    }

    /// Pop the next event in key order.
    pub fn pop(&mut self) -> Option<(EventKey, K)> {
        self.wheel.pop()
    }

    /// Pop the next event if it is due at or before `horizon_ms`.
    pub fn pop_before(&mut self, horizon_ms: u64) -> Option<(EventKey, K)> {
        if self.peek_time()? <= horizon_ms {
            self.pop()
        } else {
            None
        }
    }
}

/// Binary-heap reference for [`ShardQueue`] (differential tests only).
#[derive(Debug)]
pub struct HeapShardQueue<K> {
    heap: BinaryHeap<Reverse<OverEnt<EventKey, K>>>,
    last_popped_ms: u64,
}

impl<K> Default for HeapShardQueue<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K> HeapShardQueue<K> {
    /// An empty queue at time 0.
    pub fn new() -> Self {
        Self { heap: BinaryHeap::new(), last_popped_ms: 0 }
    }

    /// Pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedule `kind` under `key`.
    pub fn schedule(&mut self, key: EventKey, kind: K) {
        debug_assert!(
            key.at_ms >= self.last_popped_ms,
            "scheduling into the past ({} < {}) breaks causality",
            key.at_ms,
            self.last_popped_ms
        );
        self.heap.push(Reverse(OverEnt(key, kind)));
    }

    /// The time of the next due event.
    pub fn peek_time(&self) -> Option<u64> {
        self.heap.peek().map(|Reverse(OverEnt(k, _))| k.at_ms)
    }

    /// Pop the next event in key order.
    pub fn pop(&mut self) -> Option<(EventKey, K)> {
        let Reverse(OverEnt(key, kind)) = self.heap.pop()?;
        self.last_popped_ms = key.at_ms;
        Some((key, kind))
    }

    /// Pop the next event if it is due at or before `horizon_ms`.
    pub fn pop_before(&mut self, horizon_ms: u64) -> Option<(EventKey, K)> {
        if self.peek_time()? <= horizon_ms {
            self.pop()
        } else {
            None
        }
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

    #[test]
    fn pop_before_respects_horizon() {
        let mut q = EventQueue::new();
        q.schedule(5, ());
        q.schedule(15, ());
        assert_eq!(q.pop_before(10), Some((5, ())));
        assert_eq!(q.pop_before(10), None);
        assert_eq!(q.len(), 1, "the late event stays scheduled");
        assert_eq!(q.pop_before(15), Some((15, ())));
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

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "breaks causality")]
    fn scheduling_into_the_past_is_caught() {
        let mut q = EventQueue::new();
        q.schedule(10, ());
        q.pop();
        q.schedule(9, ());
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
            let mut q = ShardQueue::new();
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
        let mut q = ShardQueue::new();
        q.schedule(EventKey::timer(5, 0), "a");
        q.schedule(EventKey::timer(15, 1), "b");
        assert_eq!(q.pop_before(10).map(|(k, v)| (k.at_ms, v)), Some((5, "a")));
        assert_eq!(q.pop_before(10), None);
        assert_eq!(q.len(), 1, "the late event stays scheduled");
        q.schedule(EventKey::timer(12, 2), "c");
        assert_eq!(q.pop_before(15).map(|(_, v)| v), Some("c"));
        assert_eq!(q.pop_before(15).map(|(_, v)| v), Some("b"));
        assert!(q.is_empty());
        assert_eq!(q.now_ms(), 15);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "breaks causality")]
    fn shard_queue_catches_scheduling_into_the_past() {
        let mut q = ShardQueue::new();
        q.schedule(EventKey::timer(10, 0), ());
        q.pop();
        q.schedule(EventKey::timer(9, 0), ());
    }
}
