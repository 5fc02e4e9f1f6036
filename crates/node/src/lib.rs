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
//!   queue(s), dispatch, send, link RNG stream(s), traffic counters:
//!   [`loopback::AsyncNet`], one time-ordered queue (a hierarchical
//!   timing wheel, [`event::EventQueue`]) with per-link latency
//!   distributions and frame loss — what `engine = "async"` scenarios
//!   run on, over every environment; and [`shard::ShardedNet`], the
//!   **parallel** drain: hosts partitioned into topology-aware shards
//!   (one [`event::ShardQueue`] each, drained by one worker per core
//!   over contiguous groups of shards), cross-shard frames exchanged
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

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod control;
pub mod event;
pub mod loopback;
pub mod runtime;
pub mod service;
pub mod shard;
pub mod transport;
pub mod views;

pub use event::{EventKey, EventQueue, EventSched, HeapQueue, HeapShardQueue, ShardQueue};
pub use loopback::{AsyncConfig, AsyncNet, LatencyModel};
pub use runtime::{Envelope, FrameHeader, FrameKind, NodeRuntime, RuntimeConfig, Stock};
pub use service::{LiveService, NodeSnap, ServiceConfig, ServiceReport, VirtualService};
pub use shard::ShardedNet;
pub use transport::{
    ChannelMesh, ChannelTransport, RecvFrame, Transport, TransportStats, UdpMesh, UdpTransport,
};
pub use views::ViewTable;
