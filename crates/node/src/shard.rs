//! The **sharded** asynchronous engine: conservative parallel
//! discrete-event simulation over the same [`NodeRuntime`]s and the same
//! [control plane](crate::control) the single-threaded
//! [`AsyncNet`](crate::AsyncNet) drives. This file is the parallel
//! **drain** only.
//!
//! ## Execution model
//!
//! Hosts are partitioned into shards by a topology-aware
//! [`ShardMap`]; each shard owns a timing [`Wheel`] ordered by
//! [`EventKey`] and one record per node (runtime, link RNG, send
//! sequence). Whether a node is alive is the
//! coordinator's live set, lent read-only like the views. Simulated time
//! advances as a sequence of **windows** bounded by the conservative
//! *lookahead* — the latency model's lower bound
//! ([`crate::LatencyModel::min_ms`]): no frame sent inside a window can
//! arrive within it, so shards drain their windows without hearing from
//! each other. At each window edge every shard flushes its cross-shard
//! frames into per-pair mailboxes, the workers **meet once**, and every
//! shard ingests its inboxes — every frame lands at or beyond the edge,
//! so causality holds by construction (and is still counted and
//! debug-asserted per frame).
//!
//! *One meet is enough.* The meet orders "all flushed" before "any
//! ingested". Nothing needs the converse: a worker that is through its
//! ingest may drain the next window and flush it while a slower one still
//! ingests this edge, and the slower one may pick those frames up an edge
//! early. A mailbox is a mutex-guarded vector, every frame carries its
//! [`EventKey`], and the queue orders by key — a frame of the next window
//! is due at or beyond the *next* edge and lands in the same place
//! whichever edge ingests it. At the last edge of a drain every flush
//! precedes the meet and every ingest follows it, so all mailboxes are
//! empty when the coordinator runs.
//!
//! *Workers are cores, shards are data.* The meet spins before it yields
//! (the private `Rendezvous`), which only pays when every party has a
//! core, so a drain runs one worker per core
//! ([`std::thread::available_parallelism`]), at most one per shard, on
//! [`std::thread::scope`], each over a contiguous group of shards; the
//! calling thread is worker 0, so one worker spawns nothing and meets
//! nobody. The shard count decides data placement and nothing else; the
//! bits are invariant under both counts.
//!
//! *The poison rule.* A worker that unwinds poisons the rendezvous from a
//! drop guard; a worker that finds it poisoned stops draining, the scope
//! joins, and the original panic resumes on the caller of
//! [`ShardedNet::run`] — a panicking protocol fails the run, it cannot
//! hang it.
//!
//! Sample and nominal-round-boundary work (failure plan, membership
//! clock, view repair) is the shared coordinator's, called **between**
//! drains on the coordinating thread: at the end of a drain every queue
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
use crate::counters::Counters;
use crate::event::{EventKey, KeyedQueue, Wheel};
use crate::loopback::{AsyncConfig, DriftFn, NodeFactory, ValueFn};
use crate::runtime::{Envelope, NodeRuntime, Stock};
use crate::views::ViewTable;
use crate::{prefetch, PREFETCH_AHEAD};
use dynagg_core::protocol::{NodeId, PushProtocol};
use dynagg_core::wire::WireMessage;
use dynagg_sim::alive::AliveSet;
use dynagg_sim::membership::Membership;
use dynagg_sim::metrics::{Series, Truth};
use dynagg_sim::rng;
use dynagg_sim::shard::ShardMap;
use dynagg_sim::{FailureSpec, PartitionTable};
use rand::rngs::SmallRng;
use rand::Rng;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

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

/// Everything the drain keeps per node, in one record: a send touches the
/// lines next to the runtime it is already holding. The timer's deadline
/// is the runtime's own `next_tick_ms`, and liveness is the coordinator's.
struct Slot<P: PushProtocol>
where
    P::Message: WireMessage,
{
    rt: NodeRuntime<P>,
    /// Link RNG (loss + latency draws, in this node's own send order).
    link: SmallRng,
    /// Sent-frame sequence.
    send_seq: u64,
}

/// One shard: the state exactly one worker thread touches during a
/// window.
struct Shard<P: PushProtocol>
where
    P::Message: WireMessage,
{
    queue: Wheel<EventKey, SEv>,
    nodes: Vec<Slot<P>>,
    /// Payload buffers and round scratch, lent to whichever runtime an
    /// event calls. A frame's buffer goes to the stock of the shard that
    /// disposes of it, so buffers cross shards with their frames — which
    /// is what the stack's bound (this shard's node count) is for.
    stock: Stock<P::Message>,
    /// Outbound cross-shard frames staged per destination shard.
    stage: Vec<Vec<Flight>>,
    counters: Counters,
    out_buf: Vec<Envelope>,
}

impl<P: PushProtocol> Shard<P>
where
    P::Message: WireMessage,
{
    /// Ask the cache for what the event [`PREFETCH_AHEAD`] pops from now
    /// will touch, if it is in the firing slot: a timer's `Slot` and view,
    /// a delivery's receiving `Slot` and the first line of its frame.
    fn prefetch_ahead(&self, ctx: &Window<'_>) {
        let record = size_of::<Slot<P>>();
        let slot = |id: NodeId| &self.nodes[ctx.home[id as usize].slot as usize];
        match self.queue.peek_firing(PREFETCH_AHEAD - 1) {
            Some(&SEv::Timer(id)) => {
                prefetch(slot(id), record);
                let view = ctx.views.view(id);
                prefetch(view.as_ptr(), size_of_val(view));
            }
            Some(SEv::Deliver(env)) => {
                prefetch(slot(env.to), record);
                prefetch(env.payload.as_ptr(), 1);
            }
            None => {}
        }
    }
}

/// How long a waiter spins on the generation before it starts yielding:
/// about 3 µs of `spin_loop` hints, the arrival skew of two workers on
/// small windows. Deliberately not the tens of µs a 10⁴-host window can
/// be skewed by: a `yield_now` that finds nothing else to run returns in
/// under a µs, so yielding early costs a late wake-up at most that long,
/// while spinning on costs the whole bound at every meet whenever the
/// kernel has put two workers on one core — which this VM does for
/// seconds at a time (measured: 4 000 spins turned a 30 ms run into
/// 150 ms).
const SPIN_LIMIT: u32 = 200;

/// The error a waiter gets when a sibling worker panicked: stop draining,
/// the panic is on its way to the caller of [`ShardedNet::run`].
struct Poisoned;

/// The window-edge rendezvous of the drain's workers: a generation-counted
/// barrier that spins before it yields, where [`std::sync::Barrier`] pays
/// a futex sleep and wake per wait. It carries no data — the mailbox
/// mutexes do — and only orders "all flushed" before "any ingested": an
/// arrival is a release on `arrived`, the last arriver's bump of
/// `generation` is a release the waiters acquire.
struct Rendezvous {
    parties: usize,
    arrived: AtomicUsize,
    generation: AtomicUsize,
    /// Set when a party unwinds; waiters stop waiting for it.
    poisoned: AtomicBool,
}

impl Rendezvous {
    fn new(parties: usize) -> Self {
        Self {
            parties,
            arrived: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            poisoned: AtomicBool::new(false),
        }
    }

    /// Block until all `parties` have called `meet` for this generation,
    /// or until one of them has panicked.
    fn meet(&self) -> Result<(), Poisoned> {
        let generation = self.generation.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.parties {
            // Reset before the bump: a released party's next arrival
            // happens-after its acquire of the new generation.
            self.arrived.store(0, Ordering::Relaxed);
            self.generation.store(generation.wrapping_add(1), Ordering::Release);
            return Ok(());
        }
        let mut spins = 0;
        while self.generation.load(Ordering::Acquire) == generation {
            if self.poisoned.load(Ordering::Acquire) {
                return Err(Poisoned);
            }
            if spins < SPIN_LIMIT {
                spins += 1;
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
        Ok(())
    }
}

/// A guard each party holds while it works: dropped during a panic, it
/// poisons the rendezvous so no sibling waits for the dead party.
struct Party<'a>(&'a Rendezvous);

impl Drop for Party<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.poisoned.store(true, Ordering::Release);
        }
    }
}

/// Read-only context shared by every worker during a window segment.
struct Window<'a> {
    cfg: AsyncConfig,
    shards: usize,
    /// The coordinator's live set (read-only during a window; failures
    /// and churn only land between drains).
    alive: &'a AliveSet,
    partition: &'a PartitionTable,
    /// Every node's view, lent to its runtime per event (read-only during
    /// a window, like `alive`: views only change on the coordinating
    /// thread, between drains).
    views: &'a ViewTable,
    home: &'a [Home],
    /// `shards × shards` mailboxes; shard `s` appends to `s·k + d` before
    /// the meet, shard `d` drains `s·k + d` after it.
    mail: &'a [Mutex<Vec<Flight>>],
    meet: &'a Rendezvous,
}

/// Drain `[from_ms, to_ms)` on one worker's group of shards (`first` is
/// the group's first shard index): lookahead-bounded windows, one meet
/// and one mailbox exchange at every edge.
fn drain_windows<P>(
    group: &mut [Shard<P>],
    first: usize,
    from_ms: u64,
    to_ms: u64,
    ctx: &Window<'_>,
) where
    P: PushProtocol + Send,
    P::Message: WireMessage + Send,
{
    let _party = Party(ctx.meet);
    let lookahead = ctx.cfg.latency.min_ms();
    let mut w = from_ms;
    while w < to_ms {
        // `lookahead ≥ 1`, so `w_end ≥ w + 1` and `w_end - 1` is safe.
        let w_end = to_ms.min(w + lookahead);
        for (me, shard) in (first..).zip(group.iter_mut()) {
            while let Some((key, ev)) = shard.queue.pop_before(w_end - 1) {
                shard.counters.events += 1;
                shard.prefetch_ahead(ctx);
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
        }
        // The one meet: every shard has flushed this window's outbound.
        // A peer already past it may flush the *next* window's frames
        // while this worker still ingests; those are due at or beyond the
        // next edge and the queue orders by key, so picking them up one
        // edge early changes nothing.
        if ctx.meet.meet().is_err() {
            return;
        }
        for (me, shard) in (first..).zip(group.iter_mut()) {
            for s in 0..ctx.shards {
                if s == me {
                    continue;
                }
                let mut inbox = ctx.mail[s * ctx.shards + me].lock().expect("mailbox lock");
                for f in inbox.drain(..) {
                    if f.key.at_ms < w_end {
                        shard.counters.horizon_violations += 1;
                    }
                    debug_assert!(
                        f.key.at_ms >= w_end,
                        "cross-shard frame at {} breaches the conservative horizon {w_end}",
                        f.key.at_ms
                    );
                    shard.queue.schedule(f.key, SEv::Deliver(f.env));
                }
            }
        }
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
            if !ctx.alive.contains(id) {
                return; // a dark node's timer dies with it
            }
            let rt = &mut shard.nodes[ctx.home[id as usize].slot as usize].rt;
            debug_assert_eq!(key.at_ms, rt.next_tick_ms(), "timer fires at its recorded deadline");
            let mut out = std::mem::take(&mut shard.out_buf);
            out.clear();
            rt.poll_among(key.at_ms, ctx.views.view(id), &mut shard.stock, &mut out);
            shard.queue.schedule(EventKey::timer(rt.next_tick_ms(), id), SEv::Timer(id));
            for env in out.drain(..) {
                send(shard, key.at_ms, env, me, ctx);
            }
            shard.out_buf = out;
        }
        SEv::Deliver(env) => {
            if ctx.partition.active() && !ctx.partition.allows(env.from, env.to) {
                // Sent before the split, arriving across the cut (the
                // send path already drops frames sent across it).
                shard.counters.cross_island_deliveries += 1;
            }
            if !ctx.alive.contains(env.to) {
                shard.stock.give(env.payload);
                return;
            }
            let rt = &mut shard.nodes[ctx.home[env.to as usize].slot as usize].rt;
            let peers = ctx.views.view(env.to);
            match rt.handle_among(env.from, &env.payload, peers, &mut shard.stock) {
                Ok(Some(reply)) => send(shard, key.at_ms, reply, me, ctx),
                Ok(None) => {}
                Err(_) => shard.counters.decode_errors += 1,
            }
            shard.stock.give(env.payload);
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
    shard.counters.frames_out += 1;
    shard.counters.payload_bytes += env.raw_bytes as u64;
    shard.counters.wire_bytes += env.payload.len() as u64;
    let node = &mut shard.nodes[ctx.home[env.from as usize].slot as usize];
    if !ctx.partition.allows(env.from, env.to) {
        // The link across the cut is down; the frame dies in flight.
        shard.counters.partition_drops += 1;
        shard.stock.give(env.payload);
        return;
    }
    if ctx.cfg.loss > 0.0 && node.link.gen::<f64>() < ctx.cfg.loss {
        shard.stock.give(env.payload);
        return;
    }
    let at = now_ms + ctx.cfg.latency.sample(&mut node.link);
    let key = EventKey::deliver(at, env.to, env.from, node.send_seq);
    node.send_seq += 1;
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
    /// Samples and boundaries run between drains; shards count the rest.
    counters: Counters,
}

impl<P: PushProtocol> Drain<P> for ShardDrain<P>
where
    P::Message: WireMessage,
{
    fn runtime(&self, id: NodeId) -> &NodeRuntime<P> {
        let h = self.home[id as usize];
        &self.shards[h.shard as usize].nodes[h.slot as usize].rt
    }

    fn runtime_mut(&mut self, id: NodeId) -> &mut NodeRuntime<P> {
        let h = self.home[id as usize];
        &mut self.shards[h.shard as usize].nodes[h.slot as usize].rt
    }

    fn install(&mut self, id: NodeId, rt: NodeRuntime<P>) {
        debug_assert_eq!(id as usize, self.home.len());
        let s = self.map.shard_of(id as usize);
        let shard = &mut self.shards[s];
        self.home.push(Home { shard: s as u32, slot: shard.nodes.len() as u32 });
        shard.queue.schedule(EventKey::timer(rt.next_tick_ms(), id), SEv::Timer(id));
        shard.nodes.push(Slot {
            rt,
            link: rng::rng_for(self.seed, LINK_SEED_BASE ^ u64::from(id)),
            send_seq: 0,
        });
        shard.stock.set_cap(shard.nodes.len());
    }

    fn counters(&self) -> Counters {
        let mut total = self.counters;
        for shard in &self.shards {
            total.absorb(&shard.counters);
        }
        total
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
    ran: bool,
    now_ms: u64,
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
        assert!(
            cfg.latency.min_ms() >= 1,
            "the sharded engine needs lookahead ≥ 1 ms ({:?} has none); \
             run zero-lookahead configs on the sequential engine",
            cfg.latency
        );
        let k = map.shards();
        assert!(k >= 1, "at least one shard");
        let mut owned = vec![0usize; k];
        for id in 0..n {
            owned[map.shard_of(id)] += 1;
        }
        let mut drain = ShardDrain {
            seed: cfg.seed,
            shards: owned
                .into_iter()
                .map(|owned| Shard {
                    // Pre-sized from this shard's share of the population
                    // (timer + in-flight frame per node).
                    queue: Wheel::with_capacity(2 * n / k + 16),
                    nodes: Vec::with_capacity(owned),
                    stock: Stock::new(0),
                    stage: (0..k).map(|_| Vec::new()).collect(),
                    counters: Counters::default(),
                    out_buf: Vec::new(),
                })
                .collect(),
            home: Vec::with_capacity(n),
            mail: (0..k * k).map(|_| Mutex::new(Vec::new())).collect(),
            map,
            counters: Counters::default(),
        };
        Self {
            ctl: Coordinator::new(n, cfg, value_gen, drift_of, factory, &mut drain),
            drain,
            ran: false,
            now_ms: 0,
        }
    }

    engine_facade!();

    /// Current simulated wall-clock (the last barrier point).
    pub fn now_ms(&self) -> u64 {
        self.now_ms
    }

    /// Run for `nominal_rounds × interval_ms` of simulated time. May
    /// only be called once per network.
    pub fn run(&mut self, nominal_rounds: u64) {
        let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
        self.run_on(nominal_rounds, cores);
    }

    /// [`Self::run`] on at most `workers` threads, the caller's included —
    /// what `run` reads off the machine and a test passes explicitly.
    fn run_on(&mut self, nominal_rounds: u64, workers: usize) {
        assert!(!self.ran, "run() may only be called once");
        self.ran = true;
        self.ctl.ensure_views();
        // Contiguous groups of shards, one per worker; the last group may
        // be short and a worker count that divides badly leaves fewer
        // groups than workers, so the groups are what meets.
        let k = self.drain.shards.len();
        let group = k.div_ceil(workers.clamp(1, k));
        let meet = Rendezvous::new(k.div_ceil(group));
        let horizon = nominal_rounds * self.ctl.cfg.interval_ms;
        // Barrier points are the coordinator's instants, then the horizon.
        let mut prev = 0;
        for (at, tick) in self.ctl.timeline(nominal_rounds) {
            self.parallel_drain(prev, at, group, &meet);
            self.now_ms = at;
            self.drain.counters.events += 1;
            self.ctl.fire(tick, at, &mut self.drain);
            prev = at;
        }
        self.parallel_drain(prev, horizon, group, &meet);
        self.now_ms = horizon;
    }

    /// Drain `[from_ms, to_ms)` on every shard, `group` shards to a
    /// worker. The calling thread is worker 0, so one group spawns no
    /// thread.
    fn parallel_drain(&mut self, from_ms: u64, to_ms: u64, group: usize, meet: &Rendezvous) {
        if from_ms == to_ms {
            return;
        }
        let ctx = Window {
            cfg: self.ctl.cfg,
            shards: self.drain.shards.len(),
            alive: &self.ctl.alive,
            partition: &self.ctl.partition,
            views: &self.ctl.views,
            home: &self.drain.home,
            mail: &self.drain.mail,
            meet,
        };
        let ctx = &ctx;
        let mut groups = self.drain.shards.chunks_mut(group).enumerate();
        let (_, mine) = groups.next().expect("at least one shard");
        std::thread::scope(|s| {
            let spawned: Vec<_> = groups
                .map(|(g, shards)| {
                    s.spawn(move || drain_windows(shards, g * group, from_ms, to_ms, ctx))
                })
                .collect();
            drain_windows(mine, 0, from_ms, to_ms, ctx);
            // A worker that panicked poisoned the meet and released the
            // rest; hand its panic, not a summary of it, to the caller.
            for worker in spawned {
                if let Err(panic) = worker.join() {
                    std::panic::resume_unwind(panic);
                }
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LatencyModel;
    use dynagg_core::epoch::DriftModel;
    use dynagg_core::protocol::{Estimator, RoundCtx};
    use dynagg_core::push_sum_revert::PushSumRevert;

    fn net_of<P>(
        seed: u64,
        n: usize,
        shards: usize,
        latency: LatencyModel,
        loss: f64,
        factory: NodeFactory<P>,
    ) -> ShardedNet<P>
    where
        P: PushProtocol + Send,
        P::Message: WireMessage + Send,
    {
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
            factory,
        )
    }

    fn net_with(
        seed: u64,
        n: usize,
        shards: usize,
        latency: LatencyModel,
        loss: f64,
    ) -> ShardedNet<PushSumRevert> {
        net_of(seed, n, shards, latency, loss, Box::new(|_, v| PushSumRevert::new(v, 0.01)))
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
    fn worker_count_cannot_change_the_series() {
        // Shards are data, workers are threads: eight shards drained by
        // one worker, by even and uneven groups, and by a thread each.
        let run = |shards: usize, workers: usize| {
            let mut net =
                net_with(7, 300, shards, LatencyModel::Uniform { lo_ms: 5, hi_ms: 30 }, 0.05);
            net.run_on(30, workers);
            assert_eq!(net.horizon_violations(), 0, "{shards} shards on {workers} workers");
            assert_eq!(net.decode_errors(), 0, "{shards} shards on {workers} workers");
            net.into_series()
        };
        let one = run(1, 1);
        for workers in [1, 2, 3, 8] {
            assert_eq!(one, run(8, workers), "{workers} workers changed the series");
        }
    }

    #[test]
    fn a_warmed_up_shard_allocates_less_than_a_buffer_per_node() {
        // One shard is the sequential case: its fresh count is its peak in
        // flight. With more, buffers wander between shards with their
        // frames — a random walk, so a shard that runs dry allocates while
        // another drops at its bound — and what stays bounded is each
        // stack (by its shard's node count) and, here, the total: under
        // one buffer per node where the runtimes kept up to four. Neither
        // count may reach the series, and the worker count reaches neither.
        let run = |shards: usize, workers: usize| {
            let mut net =
                net_with(7, 300, shards, LatencyModel::Uniform { lo_ms: 5, hi_ms: 30 }, 0.05);
            net.run_on(30, workers);
            let fresh: Vec<u64> = net.drain.shards.iter().map(|s| s.stock.buffers_fresh).collect();
            for (s, shard) in net.drain.shards.iter().enumerate() {
                assert!(
                    shard.stock.len() <= shard.nodes.len(),
                    "shard {s} of {shards} on {workers} workers outgrew its bound"
                );
            }
            (net.into_series(), fresh)
        };
        let (one, fresh_one) = run(1, 1);
        assert!(fresh_one[0] < 300 / 4, "one shard allocates its peak in flight: {fresh_one:?}");
        assert_eq!((one.clone(), fresh_one), run(1, 2));
        let (four, fresh_four) = run(4, 1);
        assert_eq!(one, four, "four shards changed the series");
        assert!(fresh_four.iter().sum::<u64>() < 300, "under a buffer per node: {fresh_four:?}");
        assert_eq!((four, fresh_four), run(4, 2));
    }

    /// Every node of the lower half sends one unit a round to its
    /// counterpart in the upper half, which counts what it hears and sends
    /// nothing: over two contiguous shards all traffic runs one way.
    struct OneWay {
        to: Option<NodeId>,
        heard: f64,
    }

    impl Estimator for OneWay {
        fn estimate(&self) -> Option<f64> {
            Some(self.heard)
        }
    }

    impl PushProtocol for OneWay {
        type Message = <PushSumRevert as PushProtocol>::Message;

        fn begin_round(&mut self, _: &mut RoundCtx<'_>, out: &mut Vec<(NodeId, Self::Message)>) {
            out.extend(self.to.map(|to| (to, Self::Message::new(1.0, 1.0))));
        }

        fn on_message(
            &mut self,
            _: NodeId,
            msg: &Self::Message,
            _: &mut RoundCtx<'_>,
        ) -> Option<Self::Message> {
            self.heard += msg.value;
            None
        }

        fn end_round(&mut self, _: &mut RoundCtx<'_>) {}

        fn message_bytes(msg: &Self::Message) -> usize {
            PushSumRevert::message_bytes(msg)
        }
    }

    #[test]
    fn one_way_traffic_cannot_grow_a_stack_past_its_shard() {
        // Shard 1 is handed a buffer with every frame and never sends one:
        // unbounded, its stack would grow by 100 a round for as long as
        // shard 0 allocates.
        const N: usize = 200;
        let run = |shards: usize| {
            let half = (N / 2) as NodeId;
            let factory: NodeFactory<OneWay> =
                Box::new(move |id, _| OneWay { to: (id < half).then_some(id + half), heard: 0.0 });
            let mut net =
                net_of(9, N, shards, LatencyModel::Uniform { lo_ms: 5, hi_ms: 30 }, 0.0, factory);
            net.run_on(200, 2);
            assert_eq!(net.horizon_violations(), 0);
            assert_eq!(net.decode_errors(), 0);
            net
        };
        let net = run(2);
        assert_eq!(net.drain.shards[1].stock.len(), N / 2, "the receiving stack sits at its bound");
        assert_eq!(net.drain.shards[0].stock.len(), 0, "the sending shard gets nothing back");
        // Every frame arrives: sent = heard + still in flight at the horizon
        // (what a queue holds beyond its nodes' timers).
        let sent: u64 = net.series().rounds.iter().map(|r| r.messages).sum();
        let heard: f64 = net.nodes().filter_map(|(_, p)| p.estimate()).sum();
        let in_flight: usize = net.drain.shards.iter().map(|s| s.queue.len() - s.nodes.len()).sum();
        assert!(sent >= 199 * (N as u64 / 2), "senders fire every round: {sent}");
        assert_eq!(sent, heard as u64 + in_flight as u64, "a frame went missing");
        assert_eq!(net.into_series(), run(1).into_series(), "two shards changed the series");
    }

    #[test]
    fn rendezvous_neither_loses_a_wake_up_nor_releases_early() {
        // More parties than this box has cores, so waiters exhaust their
        // spins and yield. Each generation has its own counter: a party
        // released early reads it short, a lost wake-up never returns.
        const PARTIES: usize = 3;
        let meet = Rendezvous::new(PARTIES);
        let arrivals: Vec<AtomicUsize> = (0..10_000).map(|_| AtomicUsize::new(0)).collect();
        std::thread::scope(|s| {
            for _ in 0..PARTIES {
                s.spawn(|| {
                    for arrived in &arrivals {
                        arrived.fetch_add(1, Ordering::Relaxed);
                        assert!(meet.meet().is_ok());
                        assert_eq!(arrived.load(Ordering::Relaxed), PARTIES);
                    }
                });
            }
        });
    }

    #[test]
    fn poison_releases_every_waiter() {
        let meet = Rendezvous::new(3);
        std::thread::scope(|s| {
            let waiters: Vec<_> = (0..2).map(|_| s.spawn(|| meet.meet().is_err())).collect();
            let dead = s.spawn(|| {
                let _party = Party(&meet);
                panic!("injected fault: a party dies before it arrives");
            });
            assert!(dead.join().is_err());
            for waiter in waiters {
                assert!(waiter.join().expect("waiters do not panic"), "released by poison");
            }
        });
    }

    /// Push-Sum-Revert whose `on_message` panics on an armed node.
    struct Bomb {
        inner: PushSumRevert,
        armed: bool,
    }

    impl Estimator for Bomb {
        fn estimate(&self) -> Option<f64> {
            self.inner.estimate()
        }
    }

    impl PushProtocol for Bomb {
        type Message = <PushSumRevert as PushProtocol>::Message;

        fn begin_round(&mut self, ctx: &mut RoundCtx<'_>, out: &mut Vec<(NodeId, Self::Message)>) {
            self.inner.begin_round(ctx, out);
        }

        fn on_message(
            &mut self,
            from: NodeId,
            msg: &Self::Message,
            ctx: &mut RoundCtx<'_>,
        ) -> Option<Self::Message> {
            assert!(!self.armed, "injected fault: the armed node heard from {from}");
            self.inner.on_message(from, msg, ctx)
        }

        fn end_round(&mut self, ctx: &mut RoundCtx<'_>) {
            self.inner.end_round(ctx);
        }

        fn message_bytes(msg: &Self::Message) -> usize {
            PushSumRevert::message_bytes(msg)
        }
    }

    #[test]
    fn a_panicking_worker_reaches_the_caller_instead_of_hanging_the_run() {
        // Node 0 lives on the calling thread's shard, node 199 on the
        // spawned worker's: either way the sibling must be released and
        // `run` must end in the original panic.
        for armed in [0, 199] {
            let (tx, rx) = std::sync::mpsc::channel();
            std::thread::spawn(move || {
                let latency = LatencyModel::Uniform { lo_ms: 5, hi_ms: 30 };
                let factory: NodeFactory<Bomb> = Box::new(move |id, v| Bomb {
                    inner: PushSumRevert::new(v, 0.01),
                    armed: id == armed,
                });
                let mut net = net_of(5, 200, 2, latency, 0.0, factory);
                let run = std::panic::AssertUnwindSafe(|| net.run_on(30, 2));
                let panic = std::panic::catch_unwind(run).expect_err("the armed node panics");
                let _ = tx.send(panic.downcast_ref::<String>().cloned());
            });
            let message = rx
                .recv_timeout(std::time::Duration::from_secs(20))
                .expect("run() hangs on a panicked worker");
            let message = message.expect("the original panic's payload, a formatted message");
            assert!(message.contains("injected fault"), "caller saw: {message}");
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
