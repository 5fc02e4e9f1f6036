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
//! Both spawn their population through [`AsyncConfig::population`] /
//! [`AsyncConfig::initial_views`], i.e. from the *identical* RNG streams
//! the discrete-event engines use — a seed names one population, no
//! matter which of the three drivers runs it.

use crate::event::{EventQueue, EventSched};
use crate::loopback::{AsyncConfig, DriftFn, NodeFactory, ValueFn};
use crate::runtime::{Envelope, NodeRuntime, RuntimeConfig};
use crate::transport::{RecvFrame, Transport, TransportStats};
use dynagg_core::mass::Mass;
use dynagg_core::protocol::{NodeId, PushProtocol};
use dynagg_core::wire::WireMessage;
use dynagg_sim::env::UniformEnv;
use std::sync::mpsc::{self, Receiver, Sender, TryRecvError};
use std::sync::Arc;
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

    /// The [`AsyncConfig`] describing this population — what
    /// [`AsyncConfig::population`] draws from, and what a simulator run
    /// of the same seed would use. Latency/loss are zeroed: on a live
    /// transport those are properties of the wire, not the config.
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

/// Aggregate run accounting returned by [`LiveService::shutdown`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ServiceReport {
    /// Round-timer firings across all workers.
    pub polls: u64,
    /// Frames handled (decoded and fed to a runtime).
    pub frames_in: u64,
    /// Frames emitted by runtimes and offered to the transport.
    pub frames_out: u64,
    /// Frames that failed to decode (should stay 0 on a clean wire).
    pub decode_errors: u64,
    /// Frames addressed to a node the receiving worker no longer runs
    /// (stopped between route lookup and arrival).
    pub dark_frames: u64,
    /// Summed transport endpoint counters.
    pub transport: TransportStats,
}

impl ServiceReport {
    fn absorb(&mut self, w: &WorkerReport) {
        self.polls += w.polls;
        self.frames_in += w.frames_in;
        self.frames_out += w.frames_out;
        self.decode_errors += w.decode_errors;
        self.dark_frames += w.dark_frames;
        self.transport.absorb(&w.transport);
    }
}

/// What one worker thread hands back when it exits.
struct WorkerReport {
    polls: u64,
    frames_in: u64,
    frames_out: u64,
    decode_errors: u64,
    dark_frames: u64,
    transport: TransportStats,
}

/// Control-plane messages from the handle to a worker.
enum Command {
    /// Apply client value updates to the named (local, running) nodes.
    SetValues(Vec<(NodeId, f64)>),
    /// Kill a node: unbind its route, drop its runtime and timer.
    Stop(NodeId),
    /// Restart a stopped node with a fresh protocol at the given value,
    /// its original runtime config (re-phased to now), and its old view.
    Restart(NodeId, f64),
    /// Report every running local node's state.
    Snapshot(Sender<Vec<NodeSnap>>),
    /// Drain and exit.
    Shutdown,
}

/// The longest a worker sleeps in the transport when idle — bounds
/// command latency without busy-spinning.
const IDLE_WAIT_MS: u64 = 5;

/// One live worker: a contiguous node range, its transport endpoint,
/// and a wall-clock timer schedule (the same wheel-backed [`EventQueue`]
/// the discrete-event engines drain, driven by elapsed milliseconds).
struct Worker<P, T>
where
    P: PushProtocol,
    P::Message: WireMessage,
{
    transport: T,
    /// `slots[i]` runs node `lo + i`; `None` while stopped.
    slots: Vec<Option<NodeRuntime<P>>>,
    /// Each local node's spawn-time config, kept for restarts.
    cfgs: Vec<RuntimeConfig>,
    /// Each local node's membership view (restarts re-install it).
    views: Vec<Vec<NodeId>>,
    lo: NodeId,
    index: usize,
    start: Instant,
    timers: EventQueue<NodeId>,
    cmds: Receiver<Command>,
    factory: SharedFactory<P>,
    update: ValueUpdate<P>,
    report: WorkerReport,
    out_buf: Vec<Envelope>,
    in_buf: Vec<RecvFrame>,
}

impl<P, T> Worker<P, T>
where
    P: PushProtocol,
    P::Message: WireMessage,
    T: Transport,
{
    fn slot_mut(&mut self, id: NodeId) -> Option<&mut NodeRuntime<P>> {
        self.slots.get_mut((id - self.lo) as usize).and_then(Option::as_mut)
    }

    fn now_ms(&self) -> u64 {
        self.start.elapsed().as_millis() as u64
    }

    /// Fire every due timer, ship the frames, reschedule.
    fn run_timers(&mut self, now: u64) {
        while let Some((_, id)) = self.timers.pop_before(now) {
            let mut out = std::mem::take(&mut self.out_buf);
            out.clear();
            if let Some(rt) = self.slots.get_mut((id - self.lo) as usize).and_then(Option::as_mut) {
                rt.poll(now, &mut out);
                let next = rt.next_tick_ms();
                self.report.polls += 1;
                self.timers.schedule(next, id);
                for env in out.drain(..) {
                    self.ship(env);
                }
            }
            self.out_buf = out;
        }
    }

    fn ship(&mut self, env: Envelope) {
        let from = env.from;
        self.report.frames_out += 1;
        if let Some(buf) = self.transport.send(env) {
            if let Some(rt) = self.slot_mut(from) {
                rt.recycle_buffer(buf);
            }
        }
    }

    /// Feed every frame in `in_buf` to its runtime.
    fn handle_frames(&mut self) {
        let mut frames = std::mem::take(&mut self.in_buf);
        for frame in frames.drain(..) {
            let Some(rt) = self.slot_mut(frame.to) else {
                self.report.dark_frames += 1;
                continue;
            };
            let outcome = rt.handle(frame.from, &frame.payload);
            rt.recycle_buffer(frame.payload);
            match outcome {
                Ok(Some(reply)) => {
                    self.report.frames_in += 1;
                    self.ship(reply);
                }
                Ok(None) => self.report.frames_in += 1,
                Err(_) => self.report.decode_errors += 1,
            }
        }
        self.in_buf = frames;
    }

    fn apply(&mut self, cmd: Command) {
        match cmd {
            Command::SetValues(batch) => {
                for (id, v) in batch {
                    let update = Arc::clone(&self.update);
                    if let Some(rt) = self.slot_mut(id) {
                        update(rt.protocol_mut(), v);
                    }
                }
            }
            Command::Stop(id) => {
                self.transport.unbind(id);
                if let Some(slot) = self.slots.get_mut((id - self.lo) as usize) {
                    *slot = None;
                }
            }
            Command::Restart(id, v) => {
                let idx = (id - self.lo) as usize;
                if idx >= self.slots.len() || self.slots[idx].is_some() {
                    return;
                }
                let mut cfg = self.cfgs[idx];
                // Re-phase: the node boots now, first round one interval
                // out, exactly like a rebooted host rejoining.
                cfg.start_offset_ms = self.now_ms() + cfg.round_interval_ms;
                let mut rt = NodeRuntime::new(cfg, (self.factory)(id, v));
                rt.set_peers(&self.views[idx]);
                self.timers.schedule(rt.next_tick_ms(), id);
                self.slots[idx] = Some(rt);
                self.transport.bind(id, self.index);
            }
            Command::Snapshot(reply) => {
                let snaps = self
                    .slots
                    .iter()
                    .enumerate()
                    .filter_map(|(i, slot)| {
                        let rt = slot.as_ref()?;
                        let p = rt.protocol();
                        Some(NodeSnap {
                            id: self.lo + i as NodeId,
                            estimate: p.estimate(),
                            mass: p.audit_mass(),
                            stale_frames: rt.stale_frames(),
                        })
                    })
                    .collect();
                let _ = reply.send(snaps);
            }
            Command::Shutdown => unreachable!("handled by the caller"),
        }
    }

    fn run(mut self) -> WorkerReport {
        loop {
            // Control plane first, so stop/restart/shutdown never wait
            // behind a busy data plane.
            loop {
                match self.cmds.try_recv() {
                    Ok(Command::Shutdown) | Err(TryRecvError::Disconnected) => {
                        // Drain whatever is already in flight toward us,
                        // then report out.
                        self.in_buf.clear();
                        while self.transport.recv(&mut self.in_buf) > 0 {
                            self.handle_frames();
                        }
                        self.report.transport = self.transport.stats();
                        return self.report;
                    }
                    Ok(cmd) => self.apply(cmd),
                    Err(TryRecvError::Empty) => break,
                }
            }
            let now = self.now_ms();
            self.run_timers(now);
            // Sleep in the transport until the next timer is due (capped
            // so commands stay responsive), handling whatever arrives.
            let wait = match self.timers.peek_time() {
                Some(t) => t.saturating_sub(self.now_ms()).min(IDLE_WAIT_MS),
                None => IDLE_WAIT_MS,
            };
            self.in_buf.clear();
            if wait == 0 {
                self.transport.recv(&mut self.in_buf);
            } else {
                self.transport.recv_wait(Duration::from_millis(wait), &mut self.in_buf);
            }
            self.handle_frames();
        }
    }
}

/// A running live aggregation service — the handle the client API hangs
/// off. Dropping it without [`LiveService::shutdown`] detaches the
/// workers (they exit when the command channels disconnect).
pub struct LiveService {
    cmd_tx: Vec<Sender<Command>>,
    joins: Vec<JoinHandle<WorkerReport>>,
    bounds: Vec<(NodeId, NodeId)>,
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
        let engine_cfg = cfg.engine_config();
        let spawn_factory = Arc::clone(&factory);
        let population = engine_cfg.population(
            cfg.nodes,
            value_gen,
            drift_of,
            Box::new(move |id, v| spawn_factory(id, v)),
        );
        let views = engine_cfg.initial_views(cfg.nodes, &mut UniformEnv::new());
        let bounds = cfg.worker_bounds();

        // Routes first, so no frame from an early-starting worker finds
        // a not-yet-bound peer.
        for (w, &(lo, hi)) in bounds.iter().enumerate() {
            for id in lo..hi {
                transports[0].bind(id, w);
            }
        }

        let start = Instant::now();
        let mut cmd_tx = Vec::with_capacity(cfg.workers);
        let mut joins = Vec::with_capacity(cfg.workers);
        let mut population = population.into_iter();
        let mut views = views.into_iter();
        for (w, transport) in transports.into_iter().enumerate() {
            let (lo, hi) = bounds[w];
            let len = (hi - lo) as usize;
            let mut slots = Vec::with_capacity(len);
            let mut cfgs = Vec::with_capacity(len);
            let mut wviews = Vec::with_capacity(len);
            let mut timers = EventQueue::with_capacity(len);
            for id in lo..hi {
                let (mut rt, _v) = population.next().expect("population covers every worker");
                let view = views.next().expect("one view per node");
                rt.set_peers(&view);
                cfgs.push(*rt.config());
                timers.schedule(rt.next_tick_ms(), id);
                slots.push(Some(rt));
                wviews.push(view);
            }
            let (tx, rx) = mpsc::channel();
            cmd_tx.push(tx);
            let worker = Worker {
                transport,
                slots,
                cfgs,
                views: wviews,
                lo,
                index: w,
                start,
                timers,
                cmds: rx,
                factory: Arc::clone(&factory),
                update: Arc::clone(&update),
                report: WorkerReport {
                    polls: 0,
                    frames_in: 0,
                    frames_out: 0,
                    decode_errors: 0,
                    dark_frames: 0,
                    transport: TransportStats::default(),
                },
                out_buf: Vec::new(),
                in_buf: Vec::new(),
            };
            joins.push(
                std::thread::Builder::new()
                    .name(format!("dynagg-worker-{w}"))
                    .spawn(move || worker.run())
                    .expect("spawn worker thread"),
            );
        }
        Self { cmd_tx, joins, bounds }
    }

    fn owner_of(&self, id: NodeId) -> usize {
        self.bounds
            .iter()
            .position(|&(lo, hi)| (lo..hi).contains(&id))
            .expect("node id within the service universe")
    }

    /// Inject client value updates (the writes whose mean the network is
    /// estimating). Batched: one command per worker that owns any of the
    /// named nodes.
    pub fn set_values(&self, batch: &[(NodeId, f64)]) {
        let mut per_worker: Vec<Vec<(NodeId, f64)>> = vec![Vec::new(); self.cmd_tx.len()];
        for &(id, v) in batch {
            per_worker[self.owner_of(id)].push((id, v));
        }
        for (w, chunk) in per_worker.into_iter().enumerate() {
            if !chunk.is_empty() {
                let _ = self.cmd_tx[w].send(Command::SetValues(chunk));
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
        let _ = self.cmd_tx[self.owner_of(id)].send(Command::Stop(id));
    }

    /// Restart a stopped node with a fresh protocol anchored at `value`.
    pub fn restart(&self, id: NodeId, value: f64) {
        let _ = self.cmd_tx[self.owner_of(id)].send(Command::Restart(id, value));
    }

    /// Snapshot every running node's state, ascending by id. Blocks
    /// until all workers respond (bounded by their command latency).
    pub fn snapshot(&self) -> Vec<NodeSnap> {
        let (tx, rx) = mpsc::channel();
        let mut expected = 0usize;
        for cmd in &self.cmd_tx {
            if cmd.send(Command::Snapshot(tx.clone())).is_ok() {
                expected += 1;
            }
        }
        drop(tx);
        let mut snaps = Vec::new();
        for _ in 0..expected {
            if let Ok(mut chunk) = rx.recv() {
                snaps.append(&mut chunk);
            }
        }
        snaps.sort_unstable_by_key(|s| s.id);
        snaps
    }

    /// Every running node's current estimate, ascending by id.
    pub fn estimates(&self) -> Vec<f64> {
        self.snapshot().into_iter().filter_map(|s| s.estimate).collect()
    }

    /// Stop all workers (draining in-flight frames) and return the
    /// aggregate run accounting.
    pub fn shutdown(self) -> ServiceReport {
        for cmd in &self.cmd_tx {
            let _ = cmd.send(Command::Shutdown);
        }
        let mut report = ServiceReport::default();
        for join in self.joins {
            if let Ok(w) = join.join() {
                report.absorb(&w);
            }
        }
        report
    }
}

/// The deterministic single-threaded driver: same population, same
/// transport seam, **virtual** time. `run_until` advances an injected
/// clock through the node timer schedule; at every instant it first
/// fires *all* timers due at that instant, in scheduling order — it
/// shares [`EventQueue`] with the discrete-event engine, so the
/// same-instant tie-break is the engine's, by construction — then drains the
/// transport to quiescence, delivering frames in send (FIFO) order with
/// replies appended behind in-flight traffic. Over a zero-latency
/// single-endpoint [`crate::transport::ChannelMesh`] this is exactly the
/// schedule `AsyncNet` executes with zero latency, zero loss and zero
/// jitter — pinned by `tests/sim_live_equivalence.rs`.
pub struct VirtualService<P, T>
where
    P: PushProtocol,
    P::Message: WireMessage,
{
    slots: Vec<Option<NodeRuntime<P>>>,
    transport: T,
    timers: EventQueue<NodeId>,
    now_ms: u64,
    events: u64,
    frames_delivered: u64,
    /// Frames that failed to decode (should stay 0 on a clean wire).
    pub decode_errors: u64,
    out_buf: Vec<Envelope>,
    in_buf: Vec<RecvFrame>,
    due: Vec<NodeId>,
}

impl<P, T> VirtualService<P, T>
where
    P: PushProtocol,
    P::Message: WireMessage,
    T: Transport,
{
    /// Spawn `n` nodes (drawn via [`AsyncConfig::population`], views via
    /// [`AsyncConfig::initial_views`] over a uniform membership) all
    /// bound to `transport`'s own endpoint — the whole population rides
    /// one endpoint because one thread drives it.
    pub fn new(
        cfg: &AsyncConfig,
        n: usize,
        value_gen: ValueFn,
        drift_of: DriftFn,
        factory: NodeFactory<P>,
        transport: T,
    ) -> Self {
        let population = cfg.population(n, value_gen, drift_of, factory);
        let views = cfg.initial_views(n, &mut UniformEnv::new());
        let ep = transport.endpoint();
        let mut timers = EventQueue::with_capacity(n);
        let mut slots = Vec::with_capacity(n);
        for ((mut rt, _v), view) in population.into_iter().zip(views) {
            let id = slots.len() as NodeId;
            transport.bind(id, ep);
            rt.set_peers(&view);
            timers.schedule(rt.next_tick_ms(), id);
            slots.push(Some(rt));
        }
        Self {
            slots,
            transport,
            timers,
            now_ms: 0,
            events: 0,
            frames_delivered: 0,
            decode_errors: 0,
            out_buf: Vec::new(),
            in_buf: Vec::new(),
            due: Vec::new(),
        }
    }

    /// Current virtual time.
    pub fn now_ms(&self) -> u64 {
        self.now_ms
    }

    /// Timer firings plus frame deliveries so far — comparable to
    /// [`crate::AsyncNet::events_processed`] (minus its sample/boundary
    /// events), and the unit behind the benchmark's
    /// `node.service.virtual_ns_per_event`.
    pub fn events_processed(&self) -> u64 {
        self.events
    }

    /// Access the transport (for its counters).
    pub fn transport(&self) -> &T {
        &self.transport
    }

    /// Frames delivered to runtimes so far.
    pub fn frames_delivered(&self) -> u64 {
        self.frames_delivered
    }

    /// Running nodes' estimates, ascending by id — the same shape
    /// [`crate::AsyncNet::estimates`] returns.
    pub fn estimates(&self) -> Vec<f64> {
        self.slots.iter().filter_map(|slot| slot.as_ref().and_then(|rt| rt.estimate())).collect()
    }

    /// Mutable access to a running node's protocol (inject a value
    /// update between advances).
    pub fn protocol_mut(&mut self, id: NodeId) -> Option<&mut P> {
        self.slots.get_mut(id as usize)?.as_mut().map(|rt| rt.protocol_mut())
    }

    /// Kill a node: unbind its route, drop its runtime and timer.
    pub fn stop(&mut self, id: NodeId) {
        self.transport.unbind(id);
        if let Some(slot) = self.slots.get_mut(id as usize) {
            *slot = None;
        }
    }

    /// Advance virtual time, firing every timer scheduled at or before
    /// `until_ms` and draining the transport to quiescence after each
    /// instant (zero-latency semantics: a frame sent at `t` arrives and
    /// is answered at `t`).
    pub fn run_until(&mut self, until_ms: u64) {
        while let Some(t0) = self.timers.peek_time() {
            if t0 > until_ms {
                break;
            }
            self.now_ms = t0;
            // All timers due at this instant fire before any delivery —
            // the discrete-event queue's ordering (timers were scheduled
            // strictly earlier than any same-instant frame).
            self.due.clear();
            while self.timers.peek_time() == Some(t0) {
                let (_, id) = self.timers.pop().expect("just peeked");
                self.due.push(id);
            }
            let due = std::mem::take(&mut self.due);
            for &id in &due {
                if let Some(rt) = self.slots[id as usize].as_mut() {
                    let mut out = std::mem::take(&mut self.out_buf);
                    out.clear();
                    rt.poll(t0, &mut out);
                    self.events += 1;
                    let next = rt.next_tick_ms();
                    self.timers.schedule(next, id);
                    for env in out.drain(..) {
                        self.ship(env);
                    }
                    self.out_buf = out;
                }
            }
            self.due = due;
            self.drain_deliveries();
        }
        self.now_ms = self.now_ms.max(until_ms);
    }

    fn ship(&mut self, env: Envelope) {
        let from = env.from;
        if let Some(buf) = self.transport.send(env) {
            if let Some(rt) = self.slots.get_mut(from as usize).and_then(Option::as_mut) {
                rt.recycle_buffer(buf);
            }
        }
    }

    /// Deliver in FIFO order until the transport is quiescent; replies
    /// generated along the way join the back of the queue, exactly like
    /// same-instant events appended to a discrete-event heap.
    fn drain_deliveries(&mut self) {
        loop {
            self.in_buf.clear();
            if self.transport.recv(&mut self.in_buf) == 0 {
                return;
            }
            let frames = std::mem::take(&mut self.in_buf);
            for frame in frames {
                self.events += 1;
                self.frames_delivered += 1;
                let Some(rt) = self.slots.get_mut(frame.to as usize).and_then(Option::as_mut)
                else {
                    continue;
                };
                match rt.handle(frame.from, &frame.payload) {
                    Ok(Some(reply)) => {
                        rt.recycle_buffer(frame.payload);
                        self.ship(reply);
                    }
                    Ok(None) => rt.recycle_buffer(frame.payload),
                    Err(_) => {
                        self.decode_errors += 1;
                        rt.recycle_buffer(frame.payload);
                    }
                }
            }
        }
    }
}
