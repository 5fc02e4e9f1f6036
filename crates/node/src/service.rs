//! A long-running aggregation **service**: the sans-io runtimes served
//! over a live [`Transport`] instead of a simulated network.
//!
//! Two drivers share the seam:
//!
//! * [`LiveService`] — the production shape. `W` worker threads each own
//!   a contiguous range of nodes, fire their round timers off the real
//!   wall clock, and move frames through whichever [`Transport`]
//!   endpoints they were handed ([`crate::transport::ChannelMesh`] or
//!   [`crate::transport::UdpMesh`]). A command channel per worker gives
//!   the outside world a client API: inject value updates while the
//!   protocol runs, stop/restart nodes mid-flight (chaos), snapshot live
//!   estimates.
//! * [`VirtualService`] — the same node population and the same
//!   transport seam, driven by an injected **virtual clock** on one
//!   thread. Deterministic: with a zero-latency transport it reproduces
//!   the sequential [`crate::AsyncNet`] schedule *exactly* (the
//!   sim↔live equivalence tests pin this), and it doubles as the
//!   capacity benchmark — how many protocol events per second the
//!   service loop can push when never sleeping.
//!
//! There is one way to boot and one way to pump. Both drivers get their
//! runtimes and initial views by running the engines' own control plane
//! (`Coordinator::new` + `ensure_views`, [`crate::control`]) into a drain
//! that merely collects — a seed names one population through one
//! function under all four drivers (`AsyncNet`, `ShardedNet`, live,
//! virtual). Both then move their nodes with one private data-plane pump
//! (`fire due timers → ship`, `recv → handle → ship reply → restock`)
//! that holds the booted views and one [`Stock`] of payload buffers and
//! lends them per call — a view exists once, a restarted node finds it
//! where it was, and a received frame's buffer carries the next frame
//! sent — and that has no clock of its own, so the loop the bit-exact
//! sim↔live test exercises is the production worker loop, not a copy of
//! it.
//!
//! The handle never panics on client input and never loses a worker
//! silently: unknown node ids, commands a dead worker could not take and
//! workers that panicked are all counted in the [`Counters`]
//! [`LiveService::shutdown`] returns.

use crate::control::{Coordinator, Drain};
use crate::counters::Counters;
use crate::event::{EventQueue, EventSched};
use crate::loopback::{AsyncConfig, DriftFn, NodeFactory, ValueFn};
use crate::runtime::{Envelope, NodeRuntime, RuntimeConfig, Stock};
use crate::transport::{RecvFrame, Transport};
use dynagg_core::mass::Mass;
use dynagg_core::protocol::{NodeId, PushProtocol};
use dynagg_core::wire::WireMessage;
use std::sync::mpsc::{self, Receiver, Sender, TryRecvError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Construct a node's protocol from `(id, initial value)` — the shared,
/// clonable cousin of [`NodeFactory`], needed because live workers
/// rebuild protocols on restart from their own threads.
pub type SharedFactory<P> = Arc<dyn Fn(NodeId, f64) -> P + Send + Sync>;

/// Apply an injected client value to a running protocol (for
/// [`dynagg_core::push_sum_revert::PushSumRevert`]:
/// `|p, v| p.set_value(v)`).
pub type ValueUpdate<P> = Arc<dyn Fn(&mut P, f64) + Send + Sync>;

/// Configuration of one live aggregation service.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceConfig {
    /// Population size.
    pub nodes: usize,
    /// Worker threads (each owns a contiguous node range and one
    /// transport endpoint).
    pub workers: usize,
    /// Nominal milliseconds between a node's gossip rounds.
    pub interval_ms: u64,
    /// Per-node interval jitter fraction, as in [`AsyncConfig::jitter`].
    pub jitter: f64,
    /// Membership-view size.
    pub view_size: usize,
    /// Master seed: names the population (values, phases, per-node
    /// runtime seeds, views) identically to a simulation of that seed.
    pub seed: u64,
}

impl ServiceConfig {
    /// Defaults mirroring [`AsyncConfig::new`]: 100 ms rounds, ±5 %
    /// jitter, 64-peer views, one worker.
    pub fn new(nodes: usize, seed: u64) -> Self {
        Self { nodes, workers: 1, interval_ms: 100, jitter: 0.05, view_size: 64, seed }
    }

    /// The [`AsyncConfig`] describing this population — what the service
    /// boots from, and what a simulator run of the same seed would use.
    /// Latency/loss are zeroed: on a live transport those are properties
    /// of the wire, not the config.
    pub fn engine_config(&self) -> AsyncConfig {
        let mut cfg = AsyncConfig::new(self.seed);
        cfg.interval_ms = self.interval_ms;
        cfg.jitter = self.jitter;
        cfg.view_size = self.view_size;
        cfg.latency = crate::loopback::LatencyModel::Constant { ms: 0 };
        cfg.loss = 0.0;
        cfg
    }

    /// Worker ranges: node id space split into `workers` contiguous
    /// chunks (first `nodes % workers` chunks one longer).
    pub fn worker_bounds(&self) -> Vec<(NodeId, NodeId)> {
        let base = self.nodes / self.workers;
        let rem = self.nodes % self.workers;
        let mut bounds = Vec::with_capacity(self.workers);
        let mut lo = 0usize;
        for w in 0..self.workers {
            let len = base + usize::from(w < rem);
            bounds.push((lo as NodeId, (lo + len) as NodeId));
            lo += len;
        }
        bounds
    }
}

/// One node's state as read by [`LiveService::snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct NodeSnap {
    /// Node id.
    pub id: NodeId,
    /// Its current local estimate, if the protocol has one yet.
    pub estimate: Option<f64>,
    /// Its share of the conservation audit, if the protocol tracks mass.
    pub mass: Option<Mass>,
    /// Frames it rejected as stale (late replies from superseded rounds).
    pub stale_frames: u64,
}

/// What [`LiveService::shutdown`] returns: the workers' [`Counters`]
/// summed, plus what the handle itself saw go wrong. The name is kept
/// for callers that read a service's report by it.
pub type ServiceReport = Counters;

/// Spawn the population `cfg` names and materialize its initial views by
/// running the engines' own control plane — [`Coordinator::new`] then
/// `ensure_views` — into a drain that merely collects. The runtimes come
/// back in id order, beside the coordinator's table of their views
/// (`views[id]`, handed over rather than copied into the runtimes).
fn boot<P>(
    n: usize,
    cfg: AsyncConfig,
    value_gen: ValueFn,
    drift_of: DriftFn,
    factory: NodeFactory<P>,
) -> (Vec<NodeRuntime<P>>, Vec<Vec<NodeId>>)
where
    P: PushProtocol,
    P::Message: WireMessage,
{
    /// No queue (the pump schedules a runtime's timer when it takes it
    /// over) and nothing to count.
    struct Collect<P: PushProtocol>(Vec<NodeRuntime<P>>)
    where
        P::Message: WireMessage;

    impl<P: PushProtocol> Drain<P> for Collect<P>
    where
        P::Message: WireMessage,
    {
        fn runtime(&self, id: NodeId) -> &NodeRuntime<P> {
            &self.0[id as usize]
        }
        fn runtime_mut(&mut self, id: NodeId) -> &mut NodeRuntime<P> {
            &mut self.0[id as usize]
        }
        fn install(&mut self, _id: NodeId, runtime: NodeRuntime<P>) {
            self.0.push(runtime);
        }
        fn counters(&self) -> Counters {
            Counters::default()
        }
    }

    let mut booted = Collect(Vec::with_capacity(n));
    let mut ctl = Coordinator::new(n, cfg, value_gen, drift_of, factory, &mut booted);
    ctl.ensure_views();
    (booted.0, ctl.views.into_views())
}

/// A running node beside what its pump lends it: its view and the stock.
type Loan<'a, P> =
    (&'a mut NodeRuntime<P>, &'a [NodeId], &'a mut Stock<<P as PushProtocol>::Message>);

/// The service's **data plane**, written once: a contiguous range of
/// runtimes, the views it lends them, their round timers (the same
/// wheel-backed [`EventQueue`] the discrete-event engines drain), and one
/// transport endpoint. It has no clock of its own — [`Worker`] hands it
/// wall-clock milliseconds, [`VirtualService`] an injected instant — so
/// the loop the sim↔live tests pin is the loop production runs.
struct Pump<P, T>
where
    P: PushProtocol,
    P::Message: WireMessage,
{
    transport: T,
    /// `slots[i]` runs node `lo + i`; `None` while stopped.
    slots: Vec<Option<NodeRuntime<P>>>,
    /// `views[i]` is node `lo + i`'s membership view, lent to its runtime
    /// per call; it outlives a stop, so a restart finds it in place.
    views: Vec<Vec<NodeId>>,
    /// Payload buffers and round scratch, lent beside the view; what the
    /// transport hands back or delivers returns here. Bounded by the
    /// pump's node count: a serializing transport returns the sent buffer
    /// *and* delivers a received one, two per frame.
    stock: Stock<P::Message>,
    lo: NodeId,
    timers: EventQueue<NodeId>,
    /// Data-plane counters (the handle-side fields stay 0 here).
    counters: Counters,
    out_buf: Vec<Envelope>,
    in_buf: Vec<RecvFrame>,
}

impl<P, T> Pump<P, T>
where
    P: PushProtocol,
    P::Message: WireMessage,
    T: Transport,
{
    /// Take over the booted runtimes of nodes `lo..lo + runtimes.len()`
    /// and their views.
    fn new(
        transport: T,
        lo: NodeId,
        runtimes: Vec<NodeRuntime<P>>,
        views: Vec<Vec<NodeId>>,
    ) -> Self {
        debug_assert_eq!(runtimes.len(), views.len());
        let mut pump = Self {
            transport,
            slots: runtimes.iter().map(|_| None).collect(),
            stock: Stock::new(runtimes.len()),
            views,
            lo,
            timers: EventQueue::with_capacity(runtimes.len()),
            counters: Counters::default(),
            out_buf: Vec::new(),
            in_buf: Vec::new(),
        };
        for rt in runtimes {
            pump.start(rt);
        }
        pump
    }

    /// `id`'s slot, if this pump owns the id at all.
    fn slot(&mut self, id: NodeId) -> Option<&mut Option<NodeRuntime<P>>> {
        self.slots.get_mut(id.checked_sub(self.lo)? as usize)
    }

    /// `id`'s runtime, if it is ours and running, beside what to lend it.
    fn running_with_loan(&mut self, id: NodeId) -> Option<Loan<'_, P>> {
        let idx = id.checked_sub(self.lo)? as usize;
        Some((self.slots.get_mut(idx)?.as_mut()?, &self.views[idx], &mut self.stock))
    }

    fn running_mut(&mut self, id: NodeId) -> Option<&mut NodeRuntime<P>> {
        self.slot(id)?.as_mut()
    }

    /// The running nodes, ascending by id.
    fn running(&self) -> impl Iterator<Item = &NodeRuntime<P>> {
        self.slots.iter().flatten()
    }

    /// Run `rt` in its own (empty) slot: arm its timer, route its id here.
    fn start(&mut self, rt: NodeRuntime<P>) {
        let id = rt.id();
        self.timers.schedule(rt.next_tick_ms(), id);
        self.transport.bind(id, self.transport.endpoint());
        *self.slot(id).expect("a pump only starts its own nodes") = Some(rt);
    }

    /// Kill a node: unbind its route and drop its runtime; its pending
    /// timer dies when it next pops (see [`Pump::fire_due`]).
    fn stop(&mut self, id: NodeId) {
        self.transport.unbind(id);
        if let Some(slot) = self.slot(id) {
            *slot = None;
        }
    }

    /// Fire every timer due at or before `now`, in scheduling order:
    /// poll, re-arm, ship the round's frames. A live timer fires at its
    /// runtime's recorded deadline; an entry at any other instant was armed
    /// for a runtime since stopped (and maybe restarted, with a timer of
    /// its own) and dies here instead of re-arming.
    fn fire_due(&mut self, now: u64) {
        let mut out = std::mem::take(&mut self.out_buf);
        while let Some((at, id)) = self.timers.pop_before(now) {
            let Some((rt, view, stock)) =
                self.running_with_loan(id).filter(|(rt, ..)| rt.next_tick_ms() == at)
            else {
                continue;
            };
            rt.poll_among(now, view, stock, &mut out);
            let next = rt.next_tick_ms();
            self.timers.schedule(next, id);
            self.counters.polls += 1;
            for env in out.drain(..) {
                self.ship(env);
            }
        }
        self.out_buf = out;
    }

    fn ship(&mut self, env: Envelope) {
        self.counters.frames_out += 1;
        if let Some(buf) = self.transport.send(env) {
            self.stock.give(buf);
        }
    }

    /// Receive one batch — blocking up to `wait` when given — and feed
    /// each frame to its runtime in arrival order; replies join the
    /// transport behind whatever is already in flight. Returns the number
    /// of frames received.
    fn deliver(&mut self, wait: Option<Duration>) -> usize {
        let mut frames = std::mem::take(&mut self.in_buf);
        let got = match wait {
            Some(wait) => self.transport.recv_wait(wait, &mut frames),
            None => self.transport.recv(&mut frames),
        };
        for frame in frames.drain(..) {
            let Some((rt, view, stock)) = self.running_with_loan(frame.to) else {
                self.counters.dark_frames += 1;
                self.stock.give(frame.payload);
                continue;
            };
            let outcome = rt.handle_among(frame.from, &frame.payload, view, stock);
            stock.give(frame.payload);
            match outcome {
                Ok(reply) => {
                    self.counters.frames_in += 1;
                    if let Some(reply) = reply {
                        self.ship(reply);
                    }
                }
                Err(_) => self.counters.decode_errors += 1,
            }
        }
        self.in_buf = frames;
        got
    }

    /// Deliver until the transport is quiescent.
    fn settle(&mut self) {
        while self.deliver(None) > 0 {}
    }
}

/// Control-plane messages from the handle to a worker.
enum Command {
    /// Apply client value updates to the named (local, running) nodes.
    SetValues(Vec<(NodeId, f64)>),
    /// Kill a node: unbind its route, drop its runtime and timer.
    Stop(NodeId),
    /// Restart a stopped node with a fresh protocol at the given value and
    /// its original runtime config (re-phased to now); its view never left
    /// the pump.
    Restart(NodeId, f64),
    /// Report every running local node's state.
    Snapshot(Sender<Vec<NodeSnap>>),
    /// Drain and exit.
    Shutdown,
}

/// The longest a worker sleeps in the transport when idle — bounds
/// command latency without busy-spinning.
const IDLE_WAIT_MS: u64 = 5;

/// One live worker: a [`Pump`] driven by elapsed wall-clock milliseconds,
/// plus the control plane only a live deployment has — a command channel
/// and what a restart needs to rebuild a node.
struct Worker<P, T>
where
    P: PushProtocol,
    P::Message: WireMessage,
{
    pump: Pump<P, T>,
    /// Each local node's spawn-time config, kept for restarts.
    cfgs: Vec<RuntimeConfig>,
    start: Instant,
    cmds: Receiver<Command>,
    factory: SharedFactory<P>,
    update: ValueUpdate<P>,
}

impl<P, T> Worker<P, T>
where
    P: PushProtocol,
    P::Message: WireMessage,
    T: Transport,
{
    fn now_ms(&self) -> u64 {
        self.start.elapsed().as_millis() as u64
    }

    fn apply(&mut self, cmd: Command) {
        match cmd {
            Command::SetValues(batch) => {
                for (id, v) in batch {
                    if let Some(rt) = self.pump.running_mut(id) {
                        (self.update)(rt.protocol_mut(), v);
                    }
                }
            }
            Command::Stop(id) => self.pump.stop(id),
            Command::Restart(id, v) => {
                if !matches!(self.pump.slot(id), Some(None)) {
                    return; // not ours, or already running
                }
                let idx = (id - self.pump.lo) as usize;
                let mut cfg = self.cfgs[idx];
                // Re-phase: the node boots now, first round one interval
                // out, exactly like a rebooted host rejoining.
                cfg.start_offset_ms = self.now_ms() + cfg.round_interval_ms;
                self.pump.start(NodeRuntime::new(cfg, (self.factory)(id, v)));
            }
            Command::Snapshot(reply) => {
                let snaps = self
                    .pump
                    .running()
                    .map(|rt| NodeSnap {
                        id: rt.id(),
                        estimate: rt.estimate(),
                        mass: rt.protocol().audit_mass(),
                        stale_frames: rt.stale_frames(),
                    })
                    .collect();
                // A handle that stopped waiting needs no answer.
                let _ = reply.send(snaps);
            }
            Command::Shutdown => unreachable!("handled by the caller"),
        }
    }

    fn run(mut self) -> Counters {
        loop {
            // Control plane first, so stop/restart/shutdown never wait
            // behind a busy data plane.
            loop {
                match self.cmds.try_recv() {
                    Ok(Command::Shutdown) | Err(TryRecvError::Disconnected) => {
                        // Drain whatever is already in flight toward us,
                        // then report out.
                        self.pump.settle();
                        self.pump.counters.transport = self.pump.transport.stats();
                        return self.pump.counters;
                    }
                    Ok(cmd) => self.apply(cmd),
                    Err(TryRecvError::Empty) => break,
                }
            }
            self.pump.fire_due(self.now_ms());
            // Sleep in the transport until the next timer is due (capped
            // so commands stay responsive), handling whatever arrives.
            let wait = match self.pump.timers.peek_time() {
                Some(t) => t.saturating_sub(self.now_ms()).min(IDLE_WAIT_MS),
                None => IDLE_WAIT_MS,
            };
            self.pump.deliver((wait > 0).then(|| Duration::from_millis(wait)));
        }
    }
}

/// A running live aggregation service — the handle the client API hangs
/// off. Dropping it without [`LiveService::shutdown`] detaches the
/// workers (they exit when the command channels disconnect).
pub struct LiveService {
    cmd_tx: Vec<Sender<Command>>,
    joins: Vec<JoinHandle<Counters>>,
    bounds: Vec<(NodeId, NodeId)>,
    /// The handle's own record (`unknown_ids`, `commands_undelivered`);
    /// the client API takes `&self`.
    counters: Mutex<Counters>,
}

impl LiveService {
    /// Spawn the population described by `cfg` across
    /// `cfg.workers` threads, each driving one of `transports`
    /// (`transports.len()` must equal `cfg.workers`; build them with
    /// [`crate::transport::ChannelMesh::new`] or
    /// [`crate::transport::UdpMesh::new`] over a universe of
    /// `cfg.nodes`). Values and phases are drawn exactly as a simulator
    /// run of `cfg.seed` would draw them.
    pub fn start<P, T>(
        cfg: &ServiceConfig,
        transports: Vec<T>,
        value_gen: ValueFn,
        drift_of: DriftFn,
        factory: SharedFactory<P>,
        update: ValueUpdate<P>,
    ) -> Self
    where
        P: PushProtocol + Send + 'static,
        P::Message: WireMessage + Send,
        T: Transport + 'static,
    {
        assert_eq!(transports.len(), cfg.workers, "one transport endpoint per worker");
        assert!(cfg.nodes >= cfg.workers, "at least one node per worker");
        let spawn_factory = Arc::clone(&factory);
        let (runtimes, views) = boot(
            cfg.nodes,
            cfg.engine_config(),
            value_gen,
            drift_of,
            Box::new(move |id, v| spawn_factory(id, v)),
        );
        let (mut runtimes, mut views) = (runtimes.into_iter(), views.into_iter());
        let bounds = cfg.worker_bounds();

        // Every pump is built — and with it every route bound — before
        // the first thread starts, so no frame from an early worker finds
        // a not-yet-bound peer.
        let start = Instant::now();
        let mut cmd_tx = Vec::with_capacity(cfg.workers);
        let mut workers = Vec::with_capacity(cfg.workers);
        for (transport, &(lo, hi)) in transports.into_iter().zip(&bounds) {
            let local: Vec<_> = runtimes.by_ref().take((hi - lo) as usize).collect();
            let local_views = views.by_ref().take((hi - lo) as usize).collect();
            let (tx, rx) = mpsc::channel();
            cmd_tx.push(tx);
            workers.push(Worker {
                cfgs: local.iter().map(|rt| *rt.config()).collect(),
                pump: Pump::new(transport, lo, local, local_views),
                start,
                cmds: rx,
                factory: Arc::clone(&factory),
                update: Arc::clone(&update),
            });
        }
        let joins = workers
            .into_iter()
            .enumerate()
            .map(|(w, worker)| {
                std::thread::Builder::new()
                    .name(format!("dynagg-worker-{w}"))
                    .spawn(move || worker.run())
                    .expect("spawn worker thread")
            })
            .collect();
        Self { cmd_tx, joins, bounds, counters: Mutex::default() }
    }

    /// The worker running `id`; an id outside the universe is counted
    /// and has no owner (client input never panics the handle).
    fn owner_of(&self, id: NodeId) -> Option<usize> {
        let owner = self.bounds.iter().position(|&(lo, hi)| (lo..hi).contains(&id));
        if owner.is_none() {
            self.counters.lock().expect("no holder of the counters lock panics").unknown_ids += 1;
        }
        owner
    }

    /// Hand `cmd` to worker `w`, counting it if that worker is gone.
    fn send(&self, w: usize, cmd: Command) {
        if self.cmd_tx[w].send(cmd).is_err() {
            self.counters
                .lock()
                .expect("no holder of the counters lock panics")
                .commands_undelivered += 1;
        }
    }

    /// Inject client value updates (the writes whose mean the network is
    /// estimating). Batched: one command per worker that owns any of the
    /// named nodes. Ids outside the universe are dropped and counted in
    /// [`Counters::unknown_ids`].
    pub fn set_values(&self, batch: &[(NodeId, f64)]) {
        let mut per_worker: Vec<Vec<(NodeId, f64)>> = vec![Vec::new(); self.cmd_tx.len()];
        for &(id, v) in batch {
            if let Some(w) = self.owner_of(id) {
                per_worker[w].push((id, v));
            }
        }
        for (w, chunk) in per_worker.into_iter().enumerate() {
            if !chunk.is_empty() {
                self.send(w, Command::SetValues(chunk));
            }
        }
    }

    /// Inject one value update.
    pub fn set_value(&self, id: NodeId, value: f64) {
        self.set_values(&[(id, value)]);
    }

    /// Kill a node mid-run (chaos): its route disappears, its timer and
    /// state die. Peers keep gossiping around it.
    pub fn stop(&self, id: NodeId) {
        if let Some(w) = self.owner_of(id) {
            self.send(w, Command::Stop(id));
        }
    }

    /// Restart a stopped node with a fresh protocol anchored at `value`.
    pub fn restart(&self, id: NodeId, value: f64) {
        if let Some(w) = self.owner_of(id) {
            self.send(w, Command::Restart(id, value));
        }
    }

    /// Snapshot every running node's state, ascending by id. Blocks
    /// until every worker still alive has responded (bounded by their
    /// command latency); a lost worker's nodes are simply absent.
    pub fn snapshot(&self) -> Vec<NodeSnap> {
        let (tx, rx) = mpsc::channel();
        for w in 0..self.cmd_tx.len() {
            self.send(w, Command::Snapshot(tx.clone()));
        }
        drop(tx);
        // Ends when the last reply sender is gone: answered, or dropped
        // with the command queue of a worker that died holding it.
        let mut snaps: Vec<NodeSnap> = rx.iter().flatten().collect();
        snaps.sort_unstable_by_key(|s| s.id);
        snaps
    }

    /// Every running node's current estimate, ascending by id.
    pub fn estimates(&self) -> Vec<f64> {
        self.snapshot().into_iter().filter_map(|s| s.estimate).collect()
    }

    /// Stop all workers (draining in-flight frames) and return their
    /// summed [`Counters`] with the handle's own. A worker that panicked
    /// is counted in [`Counters::workers_lost`], never silently omitted.
    pub fn shutdown(self) -> Counters {
        for cmd in &self.cmd_tx {
            // A worker that is already gone shows up below as lost.
            let _ = cmd.send(Command::Shutdown);
        }
        let mut report = self.counters.into_inner().expect("no holder of the counters lock panics");
        for join in self.joins {
            match join.join() {
                Ok(w) => report.absorb(&w),
                Err(_) => report.workers_lost += 1,
            }
        }
        report
    }
}

/// The deterministic single-threaded driver: the same boot and the same
/// data-plane pump as a live worker, on **virtual** time. `run_until` advances
/// an injected clock through the node timer schedule; at every instant it
/// fires *all* timers due at that instant, in scheduling order (a re-armed
/// timer always lands strictly later, and the queue is the
/// discrete-event engine's, so the same-instant tie-break is the engine's
/// by construction), then drains the transport to quiescence, delivering
/// frames in send (FIFO) order with replies appended behind in-flight
/// traffic. Over a zero-latency single-endpoint
/// [`crate::transport::ChannelMesh`] this is exactly the schedule
/// `AsyncNet` executes with zero latency, zero loss and zero jitter —
/// pinned by `tests/sim_live_equivalence.rs`.
pub struct VirtualService<P, T>
where
    P: PushProtocol,
    P::Message: WireMessage,
{
    pump: Pump<P, T>,
    now_ms: u64,
    /// Frames that failed to decode (should stay 0 on a clean wire).
    pub decode_errors: u64,
}

impl<P, T> VirtualService<P, T>
where
    P: PushProtocol,
    P::Message: WireMessage,
    T: Transport,
{
    /// Spawn `n` nodes, all bound to `transport`'s own endpoint — the
    /// whole population rides one endpoint because one thread drives it.
    pub fn new(
        cfg: &AsyncConfig,
        n: usize,
        value_gen: ValueFn,
        drift_of: DriftFn,
        factory: NodeFactory<P>,
        transport: T,
    ) -> Self {
        let (runtimes, views) = boot(n, *cfg, value_gen, drift_of, factory);
        Self { pump: Pump::new(transport, 0, runtimes, views), now_ms: 0, decode_errors: 0 }
    }

    /// Current virtual time.
    pub fn now_ms(&self) -> u64 {
        self.now_ms
    }

    /// Timer firings plus frame deliveries so far: `AsyncNet`'s
    /// `events_processed` minus its samples and boundaries.
    pub fn events_processed(&self) -> u64 {
        self.pump.counters.polls + self.frames_delivered()
    }

    /// Access the transport (for its counters).
    pub fn transport(&self) -> &T {
        &self.pump.transport
    }

    /// Frames taken off the transport and dispatched so far (handled,
    /// undecodable, or addressed to a stopped node).
    pub fn frames_delivered(&self) -> u64 {
        let r = &self.pump.counters;
        r.frames_in + r.decode_errors + r.dark_frames
    }

    /// Running nodes' estimates, ascending by id — the same shape
    /// [`crate::AsyncNet::estimates`] returns.
    pub fn estimates(&self) -> Vec<f64> {
        self.pump.running().filter_map(NodeRuntime::estimate).collect()
    }

    /// Mutable access to a running node's protocol (inject a value
    /// update between advances).
    pub fn protocol_mut(&mut self, id: NodeId) -> Option<&mut P> {
        self.pump.running_mut(id).map(NodeRuntime::protocol_mut)
    }

    /// Kill a node: unbind its route, drop its runtime and timer.
    pub fn stop(&mut self, id: NodeId) {
        self.pump.stop(id);
    }

    /// Advance virtual time, firing every timer scheduled at or before
    /// `until_ms` and draining the transport to quiescence after each
    /// instant (zero-latency semantics: a frame sent at `t` arrives and
    /// is answered at `t`).
    pub fn run_until(&mut self, until_ms: u64) {
        while let Some(t0) = self.pump.timers.peek_time().filter(|&t| t <= until_ms) {
            self.now_ms = t0;
            self.pump.fire_due(t0);
            self.pump.settle();
        }
        self.now_ms = self.now_ms.max(until_ms);
        self.decode_errors = self.pump.counters.decode_errors;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loopback::AsyncNet;
    use dynagg_core::epoch::DriftModel;
    use dynagg_core::push_sum_revert::PushSumRevert;
    use rand::Rng;

    /// The service boots *through* the engines' coordinator, so its
    /// runtimes are the engine's runtimes: same config (interval, phase,
    /// drift, per-node seed) and same initial view. (Initial values and
    /// first ticks are pinned from outside, in
    /// `tests/sim_live_equivalence.rs`.)
    #[test]
    fn boot_yields_the_engines_population_and_views() {
        let mut cfg = AsyncConfig::new(42);
        cfg.view_size = 8;
        let n = 40;
        let values = || -> ValueFn { Box::new(|rng, _| rng.gen_range(0.0..100.0)) };
        let drift = || -> DriftFn {
            Box::new(|id| DriftModel::ConstantSkew { rate: 1.0 + f64::from(id) / 400.0 })
        };
        let factory =
            || -> NodeFactory<PushSumRevert> { Box::new(|_, v| PushSumRevert::new(v, 0.1)) };
        let mut net = AsyncNet::new(n, cfg, values(), drift(), factory());
        net.refresh_views(); // first call: the engine's initial views, no event run
        let (booted, views) = boot(n, cfg, values(), drift(), factory());
        assert_eq!(booted.len(), n);
        for (rt, view) in booted.iter().zip(&views) {
            let engine = net.node(rt.id());
            assert_eq!(rt.config(), engine.config(), "node {} config", rt.id());
            assert_eq!(view, net.view_of(rt.id()), "node {} view", rt.id());
            assert_eq!(view.len(), cfg.view_size);
        }
    }
}
