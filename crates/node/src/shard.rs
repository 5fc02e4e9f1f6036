//! The **sharded** asynchronous engine: conservative parallel
//! discrete-event simulation over the same [`NodeRuntime`]s and the same
//! [control plane](crate::control) the single-threaded
//! [`AsyncNet`](crate::AsyncNet) drives. This file is the parallel
//! **drain** only.
//!
//! ## Execution model
//!
//! Hosts are partitioned into shards by a topology-aware
//! [`ShardMap`]; each shard owns its nodes' runtimes, a
//! [`ShardQueue`], and per-node link RNGs. Simulated time advances as a
//! sequence of **windows** bounded by the conservative *lookahead* — the
//! latency model's lower bound ([`crate::LatencyModel::min_ms`]): no frame sent
//! inside a window can arrive within it, so shards drain their windows
//! concurrently on [`std::thread::scope`] workers without hearing from
//! each other. At each window edge, workers flush cross-shard frames
//! into per-pair mailboxes, meet at a [`Barrier`], and ingest their
//! inboxes — every frame lands strictly beyond the edge, so causality
//! holds by construction (and is still debug-asserted per queue).
//!
//! Sample and nominal-round-boundary work (failure plan, membership
//! clock, view repair) is the shared coordinator's, called **between**
//! windows on the coordinating thread: at a barrier point every queue
//! has drained past the previous window, so the coordinator sees a
//! globally consistent state. At a shared instant the sample runs before
//! the boundary, and both run before any timer or frame due at that
//! instant — part of this family's pinned output.
//!
//! ## Determinism: bit-identical at any shard count
//!
//! A run is a pure function of `(seed, spec)` — the shard count, the
//! assignment heuristic, and the worker interleaving cannot affect one
//! bit of the [`Series`]:
//!
//! * every random draw is attributed to a node, not to a shard or to
//!   global event order: loss and latency come from a **per-node link
//!   stream** (`derive(seed, LINK_SEED_BASE ^ id)`) consumed in the
//!   sender's own send order, and node boot/value/failure/view draws
//!   happen on the coordinator in ascending-id order (see
//!   [`crate::control`]),
//! * events carry a canonical [`EventKey`] `(time, class, receiver,
//!   sender, sender-sequence)`, so each node observes its timers and
//!   frames in one total order no matter which shard popped them, and
//! * cross-shard effects are timestamped frames only; counters summed
//!   across shards are integers, and sampling walks nodes in global id
//!   order.
//!
//! The sequential [`AsyncNet`](crate::AsyncNet) draws loss and latency
//! from one global stream in global pop order, an order a parallel
//! engine cannot reproduce — so `ShardedNet` digests differ from
//! `AsyncNet` digests *statistically but not semantically* (same
//! distributions, different draws). The scenario layer therefore maps
//! `shards = 1` to the sequential engine (pinned goldens stay
//! byte-identical) and `shards ≥ 2` to this engine, which is
//! bit-identical across every shard count ≥ 1.

use crate::control::{engine_facade, Coordinator, Drain};
use crate::event::{EventKey, ShardQueue};
use crate::hot::NodeHot;
use crate::loopback::{AsyncConfig, DriftFn, NodeFactory, ValueFn};
use crate::runtime::{Envelope, NodeRuntime};
use dynagg_core::protocol::{NodeId, PushProtocol};
use dynagg_core::wire::WireMessage;
use dynagg_sim::membership::Membership;
use dynagg_sim::metrics::{Series, Truth};
use dynagg_sim::rng;
use dynagg_sim::shard::ShardMap;
use dynagg_sim::{FailureSpec, PartitionTable};
use rand::rngs::SmallRng;
use rand::Rng;
use std::collections::BTreeMap;
use std::sync::{Barrier, Mutex};

/// Stream tag for per-node link RNGs (loss + latency draws). Disjoint
/// from [`crate::loopback`]'s node-seed tag and the engine's small stream
/// constants.
const LINK_SEED_BASE: u64 = 0x6C69_6E6B_5F72_6E67; // "link_rng"

/// Where a node lives: which shard, and at which slot of that shard's
/// runtime vector.
#[derive(Debug, Clone, Copy)]
struct Home {
    shard: u32,
    slot: u32,
}

/// A shard-local event.
enum SEv {
    /// A node's round timer is due.
    Timer(NodeId),
    /// A frame arrives (its [`EventKey`] carries the ordering).
    Deliver(Envelope),
}

/// A cross-shard frame in transit between windows.
struct Flight {
    key: EventKey,
    env: Envelope,
}

/// One shard: the state a worker thread owns exclusively during a
/// window.
struct Shard<P: PushProtocol>
where
    P::Message: WireMessage,
{
    queue: ShardQueue<SEv>,
    runtimes: Vec<NodeRuntime<P>>,
    /// Per-node link RNG, parallel to `runtimes`.
    link_rngs: Vec<SmallRng>,
    /// Per-node sent-frame sequence, parallel to `runtimes`.
    send_seq: Vec<u64>,
    /// Per-node outstanding timer deadline, parallel to `runtimes` — the
    /// shard-local slice of the struct-of-arrays hot state (each shard
    /// mutates only its own slots during a window).
    deadline_ms: Vec<u64>,
    /// Outbound cross-shard frames staged per destination shard.
    stage: Vec<Vec<Flight>>,
    msgs: u64,
    bytes: u64,
    wire: u64,
    events: u64,
    decode_errors: u64,
    partition_drops: u64,
    /// Frames that arrived across an active partition cut (sent before
    /// the split; the send path drops frames sent across it).
    cross_island_deliveries: u64,
    /// Cross-shard frames ingested below their window edge (must stay 0;
    /// the conservative-horizon invariant, also debug-asserted).
    horizon_violations: u64,
    out_buf: Vec<Envelope>,
}

/// Read-only context shared by every worker during a window segment.
struct Window<'a> {
    cfg: AsyncConfig,
    lookahead: u64,
    shards: usize,
    /// Struct-of-arrays alive bits (read-only during a window; failures
    /// and churn only land at barrier points).
    hot: &'a NodeHot,
    partition: &'a PartitionTable,
    home: &'a [Home],
    /// `shards × shards` mailboxes; worker `s` appends to `s·k + d`,
    /// worker `d` drains `s·k + d` after the barrier.
    mail: &'a [Mutex<Vec<Flight>>],
    barrier: &'a Barrier,
}

/// Drain `[from_ms, to_ms)` on one shard: lookahead-bounded windows,
/// mailbox exchange at every edge.
fn drain_windows<P>(shard: &mut Shard<P>, me: usize, from_ms: u64, to_ms: u64, ctx: &Window<'_>)
where
    P: PushProtocol + Send,
    P::Message: WireMessage + Send,
{
    let mut w = from_ms;
    while w < to_ms {
        // `lookahead ≥ 1`, so `w_end ≥ w + 1` and `w_end - 1` is safe.
        let w_end = to_ms.min(w + ctx.lookahead);
        while let Some((key, ev)) = shard.queue.pop_before(w_end - 1) {
            shard.events += 1;
            dispatch(shard, key, ev, me, ctx);
        }
        for d in 0..ctx.shards {
            if d != me && !shard.stage[d].is_empty() {
                ctx.mail[me * ctx.shards + d]
                    .lock()
                    .expect("mailbox lock")
                    .append(&mut shard.stage[d]);
            }
        }
        // First meet: every shard has flushed its window's outbound.
        ctx.barrier.wait();
        for s in 0..ctx.shards {
            if s == me {
                continue;
            }
            let mut inbox = ctx.mail[s * ctx.shards + me].lock().expect("mailbox lock");
            for f in inbox.drain(..) {
                if f.key.at_ms < w_end {
                    shard.horizon_violations += 1;
                }
                debug_assert!(
                    f.key.at_ms >= w_end,
                    "cross-shard frame at {} breaches the conservative horizon {w_end}",
                    f.key.at_ms
                );
                shard.queue.schedule(f.key, SEv::Deliver(f.env));
            }
        }
        // Second meet: nobody starts the next window (writing mailboxes)
        // until everyone has drained this window's inbox.
        ctx.barrier.wait();
        w = w_end;
    }
}

fn dispatch<P>(shard: &mut Shard<P>, key: EventKey, ev: SEv, me: usize, ctx: &Window<'_>)
where
    P: PushProtocol + Send,
    P::Message: WireMessage + Send,
{
    match ev {
        SEv::Timer(id) => {
            if !ctx.hot.is_alive(id) {
                return; // a dark node's timer dies with it
            }
            let slot = ctx.home[id as usize].slot as usize;
            debug_assert_eq!(
                key.at_ms, shard.deadline_ms[slot],
                "timer fires at its recorded deadline"
            );
            let mut out = std::mem::take(&mut shard.out_buf);
            out.clear();
            let rt = &mut shard.runtimes[slot];
            rt.poll(key.at_ms, &mut out);
            let next = rt.next_tick_ms();
            shard.queue.schedule(EventKey::timer(next, id), SEv::Timer(id));
            shard.deadline_ms[slot] = next;
            for env in out.drain(..) {
                send(shard, key.at_ms, env, me, ctx);
            }
            shard.out_buf = out;
        }
        SEv::Deliver(env) => {
            if ctx.partition.active() && !ctx.partition.allows(env.from, env.to) {
                // Sent before the split, arriving across the cut (the
                // send path already drops frames sent across it).
                shard.cross_island_deliveries += 1;
            }
            let slot = ctx.home[env.to as usize].slot as usize;
            if !ctx.hot.is_alive(env.to) {
                shard.runtimes[slot].recycle_buffer(env.payload);
                return;
            }
            match shard.runtimes[slot].handle(env.from, &env.payload) {
                Ok(Some(reply)) => send(shard, key.at_ms, reply, me, ctx),
                Ok(None) => {}
                Err(_) => shard.decode_errors += 1,
            }
            shard.runtimes[slot].recycle_buffer(env.payload);
        }
    }
}

/// Account a frame as sent, maybe lose it, else schedule its arrival.
/// Loss and latency are drawn from the **sender's** link stream, so the
/// draw order is shard-invariant.
fn send<P>(shard: &mut Shard<P>, now_ms: u64, env: Envelope, me: usize, ctx: &Window<'_>)
where
    P: PushProtocol + Send,
    P::Message: WireMessage + Send,
{
    shard.msgs += 1;
    shard.bytes += env.raw_bytes as u64;
    shard.wire += env.payload.len() as u64;
    let from_slot = ctx.home[env.from as usize].slot as usize;
    if !ctx.partition.allows(env.from, env.to) {
        // The link across the cut is down; the frame dies in flight.
        shard.partition_drops += 1;
        shard.runtimes[from_slot].recycle_buffer(env.payload);
        return;
    }
    let rng = &mut shard.link_rngs[from_slot];
    if ctx.cfg.loss > 0.0 && rng.gen::<f64>() < ctx.cfg.loss {
        shard.runtimes[from_slot].recycle_buffer(env.payload);
        return;
    }
    let at = now_ms + ctx.cfg.latency.sample(rng);
    let seq = shard.send_seq[from_slot];
    shard.send_seq[from_slot] += 1;
    let key = EventKey::deliver(at, env.to, env.from, seq);
    let dest = ctx.home[env.to as usize].shard as usize;
    if dest == me {
        shard.queue.schedule(key, SEv::Deliver(env));
    } else {
        shard.stage[dest].push(Flight { key, env });
    }
}

/// The sharded drain's node-side state — what the coordinator's seam
/// reaches, and what [`ShardedNet::parallel_drain`] lends to the workers.
struct ShardDrain<P: PushProtocol>
where
    P::Message: WireMessage,
{
    /// Master seed, for the per-node link streams `install` creates.
    seed: u64,
    map: ShardMap,
    shards: Vec<Shard<P>>,
    /// Global id → (shard, slot), grown by churn joins.
    home: Vec<Home>,
    /// Reused `shards²` cross-shard mailboxes.
    mail: Vec<Mutex<Vec<Flight>>>,
}

impl<P: PushProtocol> Drain<P> for ShardDrain<P>
where
    P::Message: WireMessage,
{
    fn runtime(&self, id: NodeId) -> &NodeRuntime<P> {
        let h = self.home[id as usize];
        &self.shards[h.shard as usize].runtimes[h.slot as usize]
    }

    fn runtime_mut(&mut self, id: NodeId) -> &mut NodeRuntime<P> {
        let h = self.home[id as usize];
        &mut self.shards[h.shard as usize].runtimes[h.slot as usize]
    }

    fn install(&mut self, id: NodeId, runtime: NodeRuntime<P>) {
        debug_assert_eq!(id as usize, self.home.len());
        let s = self.map.shard_of(id as usize);
        let shard = &mut self.shards[s];
        self.home.push(Home { shard: s as u32, slot: shard.runtimes.len() as u32 });
        let first_tick = runtime.next_tick_ms();
        shard.queue.schedule(EventKey::timer(first_tick, id), SEv::Timer(id));
        shard.link_rngs.push(rng::rng_for(self.seed, LINK_SEED_BASE ^ u64::from(id)));
        shard.send_seq.push(0);
        shard.deadline_ms.push(first_tick);
        shard.runtimes.push(runtime);
    }

    fn take_traffic(&mut self) -> (u64, u64, u64) {
        let (mut msgs, mut bytes, mut wire) = (0u64, 0u64, 0u64);
        for s in &mut self.shards {
            msgs += std::mem::take(&mut s.msgs);
            bytes += std::mem::take(&mut s.bytes);
            wire += std::mem::take(&mut s.wire);
        }
        (msgs, bytes, wire)
    }
}

/// A sharded asynchronous network: the parallel counterpart of
/// [`AsyncNet`](crate::AsyncNet), bit-identical at any shard count.
pub struct ShardedNet<P: PushProtocol>
where
    P::Message: WireMessage,
{
    ctl: Coordinator<P>,
    drain: ShardDrain<P>,
    /// Conservative lookahead: [`crate::LatencyModel::min_ms`] (≥ 1 asserted).
    lookahead_ms: u64,
    ran: bool,
    now_ms: u64,
    coord_events: u64,
}

impl<P> ShardedNet<P>
where
    P: PushProtocol + Send,
    P::Message: WireMessage + Send,
{
    /// Build a sharded network of `n` nodes. Same population semantics
    /// as [`AsyncNet::new`](crate::AsyncNet::new) — values, intervals,
    /// offsets, and node seeds are drawn from the same streams in the
    /// same order, so a given seed boots the same nodes. Panics if the
    /// latency model has zero lookahead (the scenario layer routes such
    /// configs to the sequential engine instead).
    pub fn new(
        n: usize,
        cfg: AsyncConfig,
        map: ShardMap,
        value_gen: ValueFn,
        drift_of: DriftFn,
        factory: NodeFactory<P>,
    ) -> Self {
        let lookahead_ms = cfg.latency.min_ms();
        assert!(
            lookahead_ms >= 1,
            "the sharded engine needs lookahead ≥ 1 ms ({:?} has none); \
             run zero-lookahead configs on the sequential engine",
            cfg.latency
        );
        let k = map.shards();
        assert!(k >= 1, "at least one shard");
        let mut drain = ShardDrain {
            seed: cfg.seed,
            shards: (0..k)
                .map(|_| Shard {
                    // Pre-sized from this shard's share of the population
                    // (timer + in-flight frame per node).
                    queue: ShardQueue::with_capacity(2 * n / k + 16),
                    runtimes: Vec::new(),
                    link_rngs: Vec::new(),
                    send_seq: Vec::new(),
                    deadline_ms: Vec::new(),
                    stage: (0..k).map(|_| Vec::new()).collect(),
                    msgs: 0,
                    bytes: 0,
                    wire: 0,
                    events: 0,
                    decode_errors: 0,
                    partition_drops: 0,
                    cross_island_deliveries: 0,
                    horizon_violations: 0,
                    out_buf: Vec::new(),
                })
                .collect(),
            home: Vec::with_capacity(n),
            mail: (0..k * k).map(|_| Mutex::new(Vec::new())).collect(),
            map,
        };
        Self {
            ctl: Coordinator::new(n, cfg, value_gen, drift_of, factory, &mut drain),
            drain,
            lookahead_ms,
            ran: false,
            now_ms: 0,
            coord_events: 0,
        }
    }

    engine_facade!();

    /// Shard count.
    pub fn shard_count(&self) -> usize {
        self.drain.shards.len()
    }

    /// The conservative lookahead (window length) in milliseconds.
    pub fn lookahead_ms(&self) -> u64 {
        self.lookahead_ms
    }

    /// Current simulated wall-clock (the last barrier point).
    pub fn now_ms(&self) -> u64 {
        self.now_ms
    }

    /// Events processed across all shards plus coordinator phases —
    /// comparable to [`AsyncNet::events_processed`](crate::AsyncNet::events_processed).
    pub fn events_processed(&self) -> u64 {
        self.coord_events + self.drain.shards.iter().map(|s| s.events).sum::<u64>()
    }

    /// Frames that failed to decode (should stay 0).
    pub fn decode_errors(&self) -> u64 {
        self.drain.shards.iter().map(|s| s.decode_errors).sum()
    }

    /// Frames dropped at the partition boundary.
    pub fn partition_drops(&self) -> u64 {
        self.drain.shards.iter().map(|s| s.partition_drops).sum()
    }

    /// Frames that *arrived* across an active cut — only frames already
    /// in flight when a split fires can do this; with a split active
    /// from round 0 this must be 0 (test hook for partition gating).
    pub fn cross_island_deliveries(&self) -> u64 {
        self.drain.shards.iter().map(|s| s.cross_island_deliveries).sum()
    }

    /// Cross-shard frames ingested below their window edge — always 0,
    /// or the conservative time-window barrier is broken (test hook;
    /// also debug-asserted at ingest).
    pub fn horizon_violations(&self) -> u64 {
        self.drain.shards.iter().map(|s| s.horizon_violations).sum()
    }

    /// Run for `nominal_rounds × interval_ms` of simulated time. May
    /// only be called once per network.
    pub fn run(&mut self, nominal_rounds: u64) {
        assert!(!self.ran, "run() may only be called once");
        self.ran = true;
        self.ctl.ensure_views(&mut self.drain);
        let interval_ms = self.ctl.cfg.interval_ms;
        let horizon = nominal_rounds * interval_ms;
        // Coordinator timeline: barrier points are the union of sample
        // times and nominal round boundaries; samples run before
        // boundaries at shared points.
        let mut points: BTreeMap<u64, (bool, Option<u64>)> = BTreeMap::new();
        let cadence = self.ctl.cfg.sample_every_ms.max(1);
        let mut t = cadence;
        while t <= horizon {
            points.entry(t).or_insert((false, None)).0 = true;
            t += cadence;
        }
        for k in 0..nominal_rounds {
            points.entry(k * interval_ms).or_insert((false, None)).1 = Some(k);
        }
        points.entry(horizon).or_insert((false, None));
        let mut prev = 0;
        for (&at, &(sample, boundary)) in &points {
            self.parallel_drain(prev, at);
            self.now_ms = at;
            if sample {
                self.coord_events += 1;
                self.ctl.record_sample(&mut self.drain);
            }
            if let Some(k) = boundary {
                self.coord_events += 1;
                self.ctl.nominal_round(k, at, &mut self.drain);
            }
            prev = at;
        }
    }

    /// Drain `[from_ms, to_ms)` on every shard concurrently.
    fn parallel_drain(&mut self, from_ms: u64, to_ms: u64) {
        if from_ms == to_ms {
            return;
        }
        let k = self.drain.shards.len();
        let barrier = Barrier::new(k);
        let ctx = Window {
            cfg: self.ctl.cfg,
            lookahead: self.lookahead_ms,
            shards: k,
            hot: &self.ctl.hot,
            partition: &self.ctl.partition,
            home: &self.drain.home,
            mail: &self.drain.mail,
            barrier: &barrier,
        };
        std::thread::scope(|s| {
            for (me, shard) in self.drain.shards.iter_mut().enumerate() {
                let ctx = &ctx;
                s.spawn(move || drain_windows(shard, me, from_ms, to_ms, ctx));
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LatencyModel;
    use dynagg_core::epoch::DriftModel;
    use dynagg_core::push_sum_revert::PushSumRevert;

    fn net_with(
        seed: u64,
        n: usize,
        shards: usize,
        latency: LatencyModel,
        loss: f64,
    ) -> ShardedNet<PushSumRevert> {
        let mut cfg = AsyncConfig::new(seed);
        cfg.latency = latency;
        cfg.loss = loss;
        cfg.view_size = 16;
        ShardedNet::new(
            n,
            cfg,
            ShardMap::uniform(n, shards),
            Box::new(|rng, _| rng.gen_range(0.0..100.0)),
            Box::new(|_| DriftModel::Synced),
            Box::new(|_, v| PushSumRevert::new(v, 0.01)),
        )
    }

    #[test]
    fn sharded_run_converges_and_samples_a_series() {
        let mut net = net_with(3, 200, 4, LatencyModel::Uniform { lo_ms: 5, hi_ms: 30 }, 0.0);
        net.run(50);
        let last = *net.series().last().unwrap();
        assert_eq!(net.series().rounds.len(), 50);
        assert_eq!(last.alive, 200);
        assert!(last.stddev < 3.0, "converged: stddev {}", last.stddev);
        assert!(last.messages > 0 && last.bytes > 0);
        assert_eq!(last.wire_bytes, last.bytes + 5 * last.messages, "wire = raw + header");
        assert_eq!(net.decode_errors(), 0);
        assert_eq!(net.horizon_violations(), 0);
    }

    #[test]
    fn series_is_bit_identical_across_shard_counts() {
        let run = |shards: usize| {
            let mut net =
                net_with(7, 150, shards, LatencyModel::Uniform { lo_ms: 5, hi_ms: 30 }, 0.05);
            net.run(30);
            net.into_series()
        };
        let one = run(1);
        for k in [2, 3, 4, 8] {
            assert_eq!(one, run(k), "shard count {k} changed the series");
        }
    }

    #[test]
    fn assignment_heuristic_cannot_change_the_series() {
        // Ownership is perf-only: a clustered map and a uniform map over
        // the same spec must produce the same bits.
        let run = |map: ShardMap| {
            let mut cfg = AsyncConfig::new(11);
            cfg.latency = LatencyModel::Constant { ms: 10 };
            cfg.view_size = 12;
            let mut net: ShardedNet<PushSumRevert> = ShardedNet::new(
                120,
                cfg,
                map,
                Box::new(|rng, _| rng.gen_range(0.0..100.0)),
                Box::new(|_| DriftModel::Synced),
                Box::new(|_, v| PushSumRevert::new(v, 0.01)),
            );
            net.run(20);
            net.into_series()
        };
        assert_eq!(run(ShardMap::uniform(120, 4)), run(ShardMap::clustered(120, 4, 4)));
        assert_eq!(run(ShardMap::uniform(120, 4)), run(ShardMap::spatial(120, 11, 4)));
    }

    #[test]
    #[should_panic(expected = "lookahead")]
    fn zero_lookahead_is_rejected() {
        net_with(1, 10, 2, LatencyModel::Exponential { mean_ms: 15.0 }, 0.0);
    }
}
