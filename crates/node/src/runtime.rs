//! The per-device protocol driver.
//!
//! One [`NodeRuntime`] owns one protocol instance and a local round timer.
//! [`NodeRuntime::poll`] fires gossip rounds when their time comes (ending
//! the previous round first, exactly like the simulator's
//! `end_round → begin_round` boundary); [`NodeRuntime::handle`] ingests
//! received frames, producing reply frames for push-pull protocols.
//!
//! ## What a drain lends
//!
//! A round needs three lists that are not the node's state: the **view**
//! its protocol samples partners from, **payload buffers** for the frames
//! it emits, and a **scratch** list `begin_round` fills with `(to,
//! message)` pairs. A driver that runs many nodes — the engines' drains,
//! the live service's pump — keeps all three once and lends them per
//! call ([`NodeRuntime::poll_among`] / [`NodeRuntime::handle_among`]):
//! the view is a slice of its `ViewTable`, buffers and scratch are its
//! [`Stock`]. A view then exists once and an edit to it needs no copy to
//! reach the node; a buffer a delivery just released is the one the next
//! send takes, still in cache, and a warmed-up drain allocates none;
//! and a runtime it drives owns no heap beyond its protocol's. A delivered
//! or dropped frame's buffer goes back to the stock it will next be lent
//! from ([`Stock::give`]), never into a runtime.
//!
//! A standalone runtime is its own driver: it keeps a peer list
//! ([`NodeRuntime::set_peers`]) and a small stock
//! ([`NodeRuntime::recycle_buffer`]), and [`NodeRuntime::poll`] /
//! [`NodeRuntime::handle`] are one-line wrappers that lend it those.
//! There is one round body and one frame body.
//!
//! The local timer advances through a [`DriftModel`] (shared with the
//! epoch lifecycle in `dynagg-core`): a skewed crystal fires rounds faster
//! or slower than nominal, a Bernoulli model skips them, a random walk
//! jitters them. The asynchronous engine in [`crate::loopback`] gives
//! every node a different drift to model weakly synchronized deployments.
//!
//! Frames are [`FrameHeader`] `++` wire-encoded payload; see the header
//! type for the layout.

use dynagg_core::epoch::DriftModel;
use dynagg_core::protocol::{NodeId, PushProtocol, RoundCtx};
use dynagg_core::samplers::SliceSampler;
use dynagg_core::wire::{WireError, WireMessage};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Whether a frame initiates an exchange or answers one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// A round-initiating gossip message (routed to `on_message`).
    Initiation,
    /// A same-exchange response (routed to `on_reply`).
    Reply,
}

impl FrameKind {
    fn to_byte(self) -> u8 {
        match self {
            FrameKind::Initiation => 0,
            FrameKind::Reply => 1,
        }
    }

    fn from_byte(b: u8) -> Result<Self, WireError> {
        match b {
            0 => Ok(FrameKind::Initiation),
            1 => Ok(FrameKind::Reply),
            _ => Err(WireError::Malformed("unknown frame kind")),
        }
    }
}

/// Bytes a [`FrameHeader`] occupies on the wire.
pub const FRAME_HEADER_BYTES: usize = 5;

/// The async frame header: one kind byte plus the sender's local round
/// number (little-endian `u32`, saturated). The round lets a receiver
/// detect badly delayed frames — under asynchronous delivery a frame can
/// arrive arbitrarily late, and
/// [`RuntimeConfig::max_round_lag`] turns the header into a staleness
/// guard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// Initiation or reply.
    pub kind: FrameKind,
    /// The sender's local round when the frame was emitted.
    pub sender_round: u32,
}

impl FrameHeader {
    /// Append the 5-byte encoding to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        out.push(self.kind.to_byte());
        out.extend_from_slice(&self.sender_round.to_le_bytes());
    }

    /// Decode a header from the front of `bytes`; never panics on
    /// arbitrary input.
    pub fn decode(bytes: &[u8]) -> Result<Self, WireError> {
        if bytes.len() < FRAME_HEADER_BYTES {
            return Err(WireError::Truncated);
        }
        let kind = FrameKind::from_byte(bytes[0])?;
        let sender_round = u32::from_le_bytes(bytes[1..5].try_into().expect("4 bytes"));
        Ok(Self { kind, sender_round })
    }
}

/// An outgoing frame: ship `payload` to `to` by any transport.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope {
    /// Sender.
    pub from: NodeId,
    /// Destination.
    pub to: NodeId,
    /// [`FrameHeader`] `++` encoded message.
    pub payload: Vec<u8>,
    /// The message's raw in-memory size
    /// ([`PushProtocol::message_bytes`]'s convention) — the
    /// paper-comparable `bytes` accounting, as opposed to
    /// `payload.len()`'s wire accounting (header + codec).
    pub raw_bytes: usize,
}

/// Payload buffers a standalone runtime's own [`Stock`] holds; past this,
/// returned buffers are dropped (a node rarely has more frames in flight
/// toward itself than this).
const SPARE_BUFFERS: usize = 4;

/// Capacity of a freshly allocated payload buffer: the header plus every
/// fixed-size message (`Mass` 16, `EpochMsg` 28, `TreeMsg` ≤ 17) in one
/// allocation, where growing from empty through appends of 1 + 4 + 8 + 8
/// bytes is three. A sketch frame outgrows it and reserves per column as
/// it is written.
const FRESH_BUFFER_BYTES: usize = 32;

/// What a driver keeps once and lends to whichever runtime it is calling:
/// a LIFO stack of payload buffers and the round scratch (see the
/// [module docs](self)). LIFO, so a send takes the buffer the previous
/// delivery released.
///
/// The stack holds at most `cap` buffers — for a drain, its node count —
/// and drops what is returned beyond that. A drain that is handed back
/// every buffer it takes never comes near the bound (stack + frames in
/// flight is its allocation high-water mark), but buffers cross shards
/// with their frames: a shard that receives more than it sends would
/// otherwise grow its stack for as long as its peer allocates.
#[derive(Debug)]
pub struct Stock<M> {
    free: Vec<Vec<u8>>,
    cap: usize,
    scratch: Vec<(NodeId, M)>,
    /// Buffers [`Stock::take`] had to allocate.
    #[cfg(test)]
    pub(crate) buffers_fresh: u64,
}

impl<M> Stock<M> {
    /// An empty stock whose stack keeps at most `cap` buffers.
    pub fn new(cap: usize) -> Self {
        Self {
            free: Vec::new(),
            cap,
            scratch: Vec::new(),
            #[cfg(test)]
            buffers_fresh: 0,
        }
    }

    /// Move the stack's bound (a drain's node count moves with every
    /// join).
    pub(crate) fn set_cap(&mut self, cap: usize) {
        self.cap = cap;
    }

    /// Buffers on the stack.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.free.len()
    }

    /// An empty payload buffer: the most recently returned one, cleared
    /// here — whatever a transport or a test left in it cannot reach the
    /// wire — or a fresh one when the stack is empty.
    fn take(&mut self) -> Vec<u8> {
        match self.free.pop() {
            Some(mut buf) => {
                buf.clear();
                buf
            }
            None => {
                #[cfg(test)]
                {
                    self.buffers_fresh += 1;
                }
                Vec::with_capacity(FRESH_BUFFER_BYTES)
            }
        }
    }

    /// Return a frame's payload buffer — delivered, lost, dropped at a
    /// partition or addressed to a dark node alike. Dropped when the stack
    /// is at its bound.
    pub fn give(&mut self, buf: Vec<u8>) {
        if self.free.len() < self.cap {
            self.free.push(buf);
        }
    }
}

/// Static configuration of one runtime.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RuntimeConfig {
    /// This node's identifier (must be unique per deployment).
    pub node_id: NodeId,
    /// Milliseconds between gossip rounds (the paper's trace setting is
    /// 30 000 ms).
    pub round_interval_ms: u64,
    /// Offset of the first round from time 0 — deployments are *not*
    /// phase-aligned; give every node a different offset.
    pub start_offset_ms: u64,
    /// Seed of this node's RNG stream.
    pub seed: u64,
    /// How this node's crystal misbehaves (default: [`DriftModel::Synced`]).
    pub drift: DriftModel,
    /// Drop inbound frames whose sender round lags this node's round by
    /// more than the limit (`None` = accept everything). Dropped frames
    /// count in [`NodeRuntime::stale_frames`].
    pub max_round_lag: Option<u64>,
}

impl RuntimeConfig {
    /// A config with everything derived from the node id (convenient for
    /// tests: distinct phases and seeds per node).
    pub fn for_node(node_id: NodeId, round_interval_ms: u64) -> Self {
        Self {
            node_id,
            round_interval_ms,
            start_offset_ms: u64::from(node_id) * 7 % round_interval_ms.max(1),
            seed: 0xD0DE ^ u64::from(node_id),
            drift: DriftModel::Synced,
            max_round_lag: None,
        }
    }
}

/// A protocol instance bound to a local clock — what every driver, the
/// runtime's own wrappers included, calls with lists it holds.
struct Node<P: PushProtocol> {
    cfg: RuntimeConfig,
    protocol: P,
    rng: SmallRng,
    round: u64,
    next_tick_ms: u64,
    /// Fractional-tick carry for [`DriftModel::ConstantSkew`].
    drift_carry: f64,
    in_round: bool,
    stale_frames: u64,
}

/// A protocol instance bound to a local clock and — unless its driver
/// lends them per call — a peer list and a [`Stock`].
pub struct NodeRuntime<P: PushProtocol>
where
    P::Message: WireMessage,
{
    node: Node<P>,
    /// What [`NodeRuntime::set_peers`] installed.
    peers: Vec<NodeId>,
    /// What [`NodeRuntime::recycle_buffer`] fills. Beside `node`, not in
    /// it, so the owning wrappers lend both without moving either.
    own: Stock<P::Message>,
}

impl<P: PushProtocol> NodeRuntime<P>
where
    P::Message: WireMessage,
{
    /// Bind `protocol` to a runtime.
    pub fn new(cfg: RuntimeConfig, protocol: P) -> Self {
        Self {
            node: Node {
                next_tick_ms: cfg.start_offset_ms,
                rng: SmallRng::seed_from_u64(cfg.seed),
                cfg,
                protocol,
                round: 0,
                drift_carry: 0.0,
                in_round: false,
                stale_frames: 0,
            },
            peers: Vec::new(),
            own: Stock::new(SPARE_BUFFERS),
        }
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.node.cfg.node_id
    }

    /// The static configuration this runtime was built with (a restart
    /// reuses it with a fresh phase offset).
    pub fn config(&self) -> &RuntimeConfig {
        &self.node.cfg
    }

    /// Completed local rounds.
    pub fn round(&self) -> u64 {
        self.node.round
    }

    /// Frames dropped by the [`RuntimeConfig::max_round_lag`] staleness
    /// guard.
    pub fn stale_frames(&self) -> u64 {
        self.node.stale_frames
    }

    /// Replace the runtime's own reachable-peer list (radio neighborhood,
    /// DHT sample, membership view — the transport layer's business). The
    /// `p != self` filter guards caller-supplied lists only: a list lent
    /// through [`NodeRuntime::poll_among`] / [`NodeRuntime::handle_among`]
    /// is used as it stands, and must be owner-free already.
    pub fn set_peers(&mut self, peers: &[NodeId]) {
        self.peers.clear();
        self.peers.extend(peers.iter().copied().filter(|&p| p != self.node.cfg.node_id));
    }

    /// The runtime's own reachable-peer list — what
    /// [`NodeRuntime::set_peers`] installed; empty for a runtime whose
    /// driver lends its peers.
    pub fn peers(&self) -> &[NodeId] {
        &self.peers
    }

    /// Hand a frame's payload buffer back to the runtime's own stock, for
    /// [`NodeRuntime::poll`] / [`NodeRuntime::handle`] to reuse. Buffers
    /// beyond a small stock are dropped. (A driver that lends its
    /// [`Stock`] returns buffers there, not here.)
    pub fn recycle_buffer(&mut self, buf: Vec<u8>) {
        self.own.give(buf);
    }

    /// Read the protocol state.
    pub fn protocol(&self) -> &P {
        &self.node.protocol
    }

    /// Mutable protocol access (e.g. `set_value` when the sensor changes).
    pub fn protocol_mut(&mut self) -> &mut P {
        &mut self.node.protocol
    }

    /// The node's current estimate.
    pub fn estimate(&self) -> Option<f64> {
        self.node.protocol.estimate()
    }

    /// When the next round fires (for scheduling the next `poll`).
    pub fn next_tick_ms(&self) -> u64 {
        self.node.next_tick_ms
    }

    /// Advance the local clock to `now_ms`, firing any due rounds over the
    /// runtime's own peer list ([`NodeRuntime::set_peers`]) and stock.
    /// Returns the frames to transmit.
    ///
    /// Each elapsed timer boundary advances the logical clock through the
    /// configured [`DriftModel`]: a synced clock fires exactly one round, a
    /// fast crystal occasionally fires two back-to-back, a Bernoulli model
    /// sometimes fires none.
    pub fn poll(&mut self, now_ms: u64, out: &mut Vec<Envelope>) {
        self.node.poll(now_ms, &self.peers, &mut self.own, out);
    }

    /// [`NodeRuntime::poll`] over lists the caller holds: the rounds sample
    /// from `peers` as lent, their frames take their buffers from `stock`,
    /// and the runtime's own lists are neither read nor written. `peers`
    /// must not contain this node.
    pub fn poll_among(
        &mut self,
        now_ms: u64,
        peers: &[NodeId],
        stock: &mut Stock<P::Message>,
        out: &mut Vec<Envelope>,
    ) {
        self.node.poll(now_ms, peers, stock, out);
    }

    /// Ingest a received frame over the runtime's own peer list and stock;
    /// may produce a reply frame. Malformed input is reported, never
    /// panics — radio bytes are untrusted.
    pub fn handle(&mut self, from: NodeId, payload: &[u8]) -> Result<Option<Envelope>, WireError> {
        self.node.handle(from, payload, &self.peers, &mut self.own)
    }

    /// [`NodeRuntime::handle`] over lists the caller holds (see
    /// [`NodeRuntime::poll_among`]).
    pub fn handle_among(
        &mut self,
        from: NodeId,
        payload: &[u8],
        peers: &[NodeId],
        stock: &mut Stock<P::Message>,
    ) -> Result<Option<Envelope>, WireError> {
        self.node.handle(from, payload, peers, stock)
    }
}

impl<P: PushProtocol> Node<P>
where
    P::Message: WireMessage,
{
    fn poll(
        &mut self,
        now_ms: u64,
        peers: &[NodeId],
        stock: &mut Stock<P::Message>,
        out: &mut Vec<Envelope>,
    ) {
        while now_ms >= self.next_tick_ms {
            let tick = self.next_tick_ms;
            let rounds = self.cfg.drift.ticks(&mut self.drift_carry, &mut self.rng);
            for _ in 0..rounds {
                self.fire_round(peers, stock, out);
            }
            self.next_tick_ms = tick + self.cfg.round_interval_ms.max(1);
        }
    }

    fn fire_round(
        &mut self,
        peers: &[NodeId],
        stock: &mut Stock<P::Message>,
        out: &mut Vec<Envelope>,
    ) {
        let mut scratch = std::mem::take(&mut stock.scratch);
        {
            let mut sampler = SliceSampler::new(peers);
            if self.in_round {
                let mut ctx =
                    RoundCtx { round: self.round, rng: &mut self.rng, peers: &mut sampler };
                self.protocol.end_round(&mut ctx);
                self.round += 1;
            }
            let mut ctx = RoundCtx { round: self.round, rng: &mut self.rng, peers: &mut sampler };
            scratch.clear();
            self.protocol.begin_round(&mut ctx, &mut scratch);
            self.in_round = true;
        }
        let header = self.header(FrameKind::Initiation);
        for (to, msg) in scratch.drain(..) {
            let raw_bytes = P::message_bytes(&msg);
            let mut payload = stock.take();
            header.encode(&mut payload);
            msg.encode(&mut payload);
            out.push(Envelope { from: self.cfg.node_id, to, payload, raw_bytes });
        }
        stock.scratch = scratch;
    }

    fn header(&self, kind: FrameKind) -> FrameHeader {
        FrameHeader { kind, sender_round: u32::try_from(self.round).unwrap_or(u32::MAX) }
    }

    fn handle(
        &mut self,
        from: NodeId,
        payload: &[u8],
        peers: &[NodeId],
        stock: &mut Stock<P::Message>,
    ) -> Result<Option<Envelope>, WireError> {
        let header = FrameHeader::decode(payload)?;
        if let Some(lag) = self.cfg.max_round_lag {
            if u64::from(header.sender_round).saturating_add(lag) < self.round {
                self.stale_frames += 1;
                return Ok(None);
            }
        }
        let msg = P::Message::decode(&payload[FRAME_HEADER_BYTES..])?;
        let reply = {
            let mut sampler = SliceSampler::new(peers);
            let mut ctx = RoundCtx { round: self.round, rng: &mut self.rng, peers: &mut sampler };
            match header.kind {
                FrameKind::Initiation => self.protocol.on_message(from, &msg, &mut ctx),
                FrameKind::Reply => {
                    self.protocol.on_reply(from, &msg, &mut ctx);
                    None
                }
            }
        };
        Ok(reply.map(|r| {
            let raw_bytes = P::message_bytes(&r);
            let mut payload = stock.take();
            self.header(FrameKind::Reply).encode(&mut payload);
            r.encode(&mut payload);
            Envelope { from: self.cfg.node_id, to: from, payload, raw_bytes }
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynagg_core::mass::Mass;
    use dynagg_core::push_sum_revert::PushSumRevert;

    fn cfg(id: NodeId) -> RuntimeConfig {
        RuntimeConfig {
            node_id: id,
            round_interval_ms: 100,
            start_offset_ms: 0,
            seed: id.into(),
            drift: DriftModel::Synced,
            max_round_lag: None,
        }
    }

    #[test]
    fn poll_fires_rounds_on_schedule() {
        let mut rt = NodeRuntime::new(cfg(0), PushSumRevert::new(50.0, 0.1));
        rt.set_peers(&[1]);
        let mut out = Vec::new();
        rt.poll(0, &mut out);
        assert_eq!(out.len(), 1, "first round fires at the offset");
        out.clear();
        rt.poll(99, &mut out);
        assert!(out.is_empty(), "no round due yet");
        rt.poll(250, &mut out);
        assert_eq!(out.len(), 2, "two rounds were due by t=250");
        assert_eq!(rt.round(), 2);
    }

    #[test]
    fn skewed_clocks_fire_at_their_own_rate() {
        let run = |rate: f64| {
            let mut c = cfg(0);
            c.drift = DriftModel::ConstantSkew { rate };
            let mut rt = NodeRuntime::new(c, PushSumRevert::new(1.0, 0.0));
            rt.set_peers(&[1]);
            let mut out = Vec::new();
            rt.poll(10_000, &mut out);
            rt.round()
        };
        // 101 timer boundaries pass (t=0 included); rate scales rounds.
        assert_eq!(run(1.0), 100);
        assert!(run(1.2) > 115, "fast crystal fires extra rounds");
        assert!(run(0.8) < 85, "slow crystal skips rounds");
    }

    #[test]
    fn frames_roundtrip_between_two_runtimes() {
        let mut a = NodeRuntime::new(cfg(0), PushSumRevert::new(0.0, 0.0));
        let mut b = NodeRuntime::new(cfg(1), PushSumRevert::new(100.0, 0.0));
        a.set_peers(&[1]);
        b.set_peers(&[0]);
        let mut out = Vec::new();
        // Drive both for a while, delivering instantly.
        for t in (0..10_000).step_by(50) {
            out.clear();
            a.poll(t, &mut out);
            b.poll(t, &mut out);
            let frames: Vec<Envelope> = out.clone();
            for env in frames {
                let target = if env.to == 0 { &mut a } else { &mut b };
                if let Some(reply) = target.handle(env.from, &env.payload).unwrap() {
                    let target = if reply.to == 0 { &mut a } else { &mut b };
                    target.handle(reply.from, &reply.payload).unwrap();
                }
            }
        }
        let ea = a.estimate().unwrap();
        let eb = b.estimate().unwrap();
        assert!((ea - 50.0).abs() < 5.0, "a converged to {ea}");
        assert!((eb - 50.0).abs() < 5.0, "b converged to {eb}");
    }

    #[test]
    fn isolated_runtime_keeps_estimating() {
        let mut rt = NodeRuntime::new(cfg(3), PushSumRevert::new(42.0, 0.1));
        // no peers set
        let mut out = Vec::new();
        rt.poll(10_000, &mut out);
        assert!(out.is_empty());
        let e = rt.estimate().unwrap();
        assert!((e - 42.0).abs() < 1e-9, "isolated estimate drifted: {e}");
    }

    #[test]
    fn garbage_frames_are_rejected_not_panicked() {
        let mut rt = NodeRuntime::new(cfg(4), PushSumRevert::new(1.0, 0.1));
        assert!(rt.handle(9, &[]).is_err());
        assert!(rt.handle(9, &[7, 0, 0, 0, 0]).is_err(), "unknown frame kind");
        assert!(rt.handle(9, &[0, 1, 2]).is_err(), "truncated header");
        assert!(rt.handle(9, &[0, 0, 0, 0, 0, 1, 2, 3]).is_err(), "truncated mass");
        // Valid frame still works afterwards.
        let mut good = Vec::new();
        FrameHeader { kind: FrameKind::Initiation, sender_round: 0 }.encode(&mut good);
        Mass::new(0.5, 1.0).encode(&mut good);
        assert!(rt.handle(9, &good).unwrap().is_none());
    }

    #[test]
    fn stale_frames_are_dropped_when_guard_is_set() {
        let mut c = cfg(5);
        c.max_round_lag = Some(3);
        let mut rt = NodeRuntime::new(c, PushSumRevert::new(1.0, 0.1));
        rt.set_peers(&[1]);
        let mut out = Vec::new();
        rt.poll(1_000, &mut out); // round is now 10
        assert_eq!(rt.round(), 10);
        let frame = |round: u32| {
            let mut p = Vec::new();
            FrameHeader { kind: FrameKind::Initiation, sender_round: round }.encode(&mut p);
            Mass::new(0.5, 1.0).encode(&mut p);
            p
        };
        assert!(rt.handle(9, &frame(2)).unwrap().is_none());
        assert_eq!(rt.stale_frames(), 1, "round 2 lags round 10 by more than 3");
        rt.handle(9, &frame(8)).unwrap();
        assert_eq!(rt.stale_frames(), 1, "round 8 is within the lag window");
    }

    #[test]
    fn frame_header_roundtrips() {
        for (kind, round) in
            [(FrameKind::Initiation, 0u32), (FrameKind::Reply, 19), (FrameKind::Reply, u32::MAX)]
        {
            let h = FrameHeader { kind, sender_round: round };
            let mut bytes = Vec::new();
            h.encode(&mut bytes);
            assert_eq!(bytes.len(), FRAME_HEADER_BYTES);
            assert_eq!(FrameHeader::decode(&bytes).unwrap(), h);
        }
        assert!(FrameHeader::decode(&[0, 1]).is_err());
    }

    #[test]
    fn set_peers_excludes_self() {
        let mut rt = NodeRuntime::new(cfg(5), PushSumRevert::new(1.0, 0.1));
        rt.set_peers(&[5, 6, 7]);
        let mut out = Vec::new();
        for t in (0..1_000).step_by(100) {
            rt.poll(t, &mut out);
        }
        assert!(out.iter().all(|e| e.to != 5), "never gossips to itself");
    }

    #[test]
    fn a_stock_is_a_bounded_lifo_that_clears_what_it_hands_out() {
        let mut stock: Stock<Mass> = Stock::new(2);
        let fresh = stock.take();
        assert!(fresh.is_empty() && fresh.capacity() >= FRESH_BUFFER_BYTES);
        assert_eq!(stock.buffers_fresh, 1);
        stock.give(vec![1; 40]);
        stock.give(vec![2; 50]);
        stock.give(vec![3; 60]); // over the bound: dropped
        assert_eq!(stock.len(), 2);
        let (top, below) = (stock.take(), stock.take());
        assert!(top.is_empty() && below.is_empty(), "stale bytes never leave the stock");
        assert_eq!((top.capacity(), below.capacity()), (50, 40), "last in, first out");
        assert_eq!(stock.buffers_fresh, 1, "a stacked buffer is not a fresh one");
    }

    #[test]
    fn a_fresh_frame_is_one_allocation() {
        // 21 bytes of header + mass land in the capacity the buffer was
        // born with; growing into them from empty reallocates twice.
        let mut rt = NodeRuntime::new(cfg(0), PushSumRevert::new(50.0, 0.1));
        rt.set_peers(&[1]);
        let mut out = Vec::new();
        rt.poll(0, &mut out);
        assert_eq!(out[0].payload.len(), FRAME_HEADER_BYTES + 16);
        assert_eq!(
            out[0].payload.capacity(),
            Vec::<u8>::with_capacity(FRESH_BUFFER_BYTES).capacity()
        );
    }

    #[test]
    fn for_node_configs_are_phase_staggered() {
        let a = RuntimeConfig::for_node(1, 100);
        let b = RuntimeConfig::for_node(2, 100);
        assert_ne!(a.start_offset_ms, b.start_offset_ms);
        assert_ne!(a.seed, b.seed);
    }
}
