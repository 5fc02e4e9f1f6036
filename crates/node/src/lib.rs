//! # dynagg-node
//!
//! The **asynchronous node runtime and discrete-event engine** for the
//! dynagg protocols. The simulator (`dynagg-sim`) drives protocols in
//! idealized lockstep rounds; this crate drives the *same protocol state
//! machines* the way devices would — local (possibly drifting) timers,
//! byte payloads ([`dynagg_core::wire`]), peers discovered at runtime, and
//! **no global synchronization whatsoever**.
//!
//! Three layers:
//!
//! * [`runtime`] — the sans-io per-device driver. A
//!   [`runtime::NodeRuntime`] performs no networking itself: you call
//!   [`runtime::NodeRuntime::poll`] with the current time and ship the
//!   returned envelopes however you like (UDP, BLE, a message bus), and
//!   you call [`runtime::NodeRuntime::handle`] with whatever bytes
//!   arrive. Frames carry a [`runtime::FrameHeader`] (kind + sender
//!   round), and the local timer advances through a
//!   [`dynagg_core::epoch::DriftModel`].
//! * [`control`] — the discrete-event engines' **one control plane**:
//!   population, peers from a [`dynagg_sim::membership::Membership`]
//!   topology (uniform, spatial grid, drifting cliques, trace replay)
//!   tracked in a [`views::ViewTable`] whose inverted index lets churn
//!   repair touch only the views a departure actually appears in,
//!   failure plans through the [`dynagg_sim::FailurePlan`] kernel the
//!   lockstep engines share, partition schedule, and estimate sampling
//!   into the same [`dynagg_sim::metrics::Series`] the lockstep engines
//!   emit.
//! * two **drains** under it, which own only what differs — event
//!   queue(s), dispatch, send, link RNG stream(s), their [`Counters`]:
//!   [`loopback::AsyncNet`], one time-ordered queue
//!   ([`event::EventQueue`], which stamps `(time, insertion seq)` over
//!   the hierarchical timing wheel [`event::Wheel`]) with per-link
//!   latency distributions and frame loss — what `engine = "async"`
//!   scenarios run on, over every environment; and
//!   [`shard::ShardedNet`], the **parallel** drain: hosts partitioned
//!   into topology-aware shards (one [`event::Wheel`] each, keyed by
//!   [`event::EventKey`] and drained by one worker per core over
//!   contiguous groups of shards), cross-shard frames exchanged
//!   through mailboxes under a conservative time-window barrier whose
//!   lookahead is the latency model's lower bound. Its results are
//!   bit-identical at any shard and worker count — every random draw is
//!   attributed to a node and every queue orders events by a canonical
//!   [`event::EventKey`], so the worker interleaving cannot leak into the
//!   [`dynagg_sim::metrics::Series`].
//!
//! The engine doubles as evidence for a claim the paper makes only in
//! passing: the dynamic protocols need no round synchronization. Nodes
//! ticking at different phases and different rates, over lossy
//! variable-latency links, still converge and still heal after silent
//! failures.
//!
//! ## The one `unsafe`
//!
//! Unsafe code is denied crate-wide with a single exemption, the private
//! `prefetch`: a cache hint (`_mm_prefetch` on x86-64, nothing elsewhere)
//! that the drains issue for the node state of the event eight pops
//! ahead, and [`views::ViewTable`] for the lists a walk is about to scan.
//! Safe Rust has no operation that requests a line without waiting for
//! it; the nearest one, a `black_box`ed load, holds retirement up until
//! the line arrives, and at the same distance it bought the sharded
//! drain ×1.18 where the prefetch bought ×1.26 (`sharded_avg`
//! host-rounds/s on a two-core x86-64 VM, four alternated runs each).
//! A prefetch cannot fault on any address and SSE is baseline on x86-64,
//! so the exemption has no precondition for a caller to keep.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod control;
pub mod counters;
pub mod event;
pub mod loopback;
pub mod runtime;
pub mod service;
pub mod shard;
pub mod transport;
pub mod views;

pub use counters::Counters;
pub use event::{EventKey, EventQueue, EventSched, HeapQueue};
pub use loopback::{AsyncConfig, AsyncNet, LatencyModel};
pub use runtime::{Envelope, FrameHeader, FrameKind, NodeRuntime, RuntimeConfig, Stock};
pub use service::{LiveService, NodeSnap, ServiceConfig, ServiceReport, VirtualService};
pub use shard::ShardedNet;
pub use transport::{
    ChannelMesh, ChannelTransport, RecvFrame, Transport, TransportStats, UdpMesh, UdpTransport,
};
pub use views::ViewTable;

/// How many pops ahead a drain asks the cache for an event's node state:
/// far enough that a line requested from memory has landed by the time
/// its event is dispatched, near enough that the event is usually
/// already in the firing slot (a `sharded_avg` shard fires ≈ 90 events
/// a millisecond; the first eight of a slot go unrequested).
pub(crate) const PREFETCH_AHEAD: usize = 8;

/// Ask the cache for every line of the `len` bytes at `ptr`, without
/// waiting for them: the caller touches them a few hundred cycles later.
/// A hint only — it changes no value and nothing reads whether it landed.
#[inline(always)]
#[allow(unsafe_code)]
pub(crate) fn prefetch<T>(ptr: *const T, len: usize) {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        const LINE: usize = 64;
        let skew = ptr as usize % LINE;
        let base = ptr.cast::<i8>().wrapping_sub(skew);
        let lines = if len == 0 { 0 } else { (skew + len).div_ceil(LINE) };
        for line in 0..lines {
            // SAFETY: a prefetch dereferences nothing and never faults,
            // whatever the address (`wrapping_*` keeps the arithmetic that
            // forms it defined), and `_mm_prefetch` needs only SSE, which
            // every x86-64 target has.
            unsafe { _mm_prefetch::<_MM_HINT_T0>(base.wrapping_add(line * LINE)) };
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (ptr, len);
}
