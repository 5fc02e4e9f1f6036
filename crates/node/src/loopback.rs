//! The sequential asynchronous discrete-event engine.
//!
//! [`AsyncNet`] drives a population of [`NodeRuntime`]s with **no global
//! round synchronization whatsoever**: every node owns a jittered,
//! possibly drifting round timer, frames travel over links with a
//! configurable [`LatencyModel`] and loss probability, and everything is
//! sequenced through a time-ordered [`EventQueue`] (a hierarchical timing
//! wheel, `O(1)` amortized per event — the old loopback rig rescanned a
//! `Vec` of in-flight frames every tick, `O(rounds × queue)`, which
//! capped it at a few hundred nodes; the wheel replaced an intermediate
//! binary heap without changing a single pop).
//!
//! This file is the engine's **drain**: one event queue, `dispatch`,
//! `send`, one global link RNG stream consumed in pop order, and the
//! [`Counters`] it fills. Everything else — population, membership
//! views (lent to each runtime per event, never copied into it), failure
//! plan, partition schedule, sampling — is the shared
//! [control plane](crate::control), which
//! [`ShardedNet`](crate::ShardedNet) runs unmodified over its own drain.
//!
//! The engine mirrors the lockstep simulator's instrumentation so
//! asynchronous runs are first-class experiments, not a side rig:
//!
//! * estimates are sampled at a configurable wall-clock cadence into a
//!   [`dynagg_sim::metrics::Series`] with the same per-round columns
//!   (error, settling, disruptions, messages, payload + wire bytes) the
//!   lockstep engines emit,
//! * the failure plan is a [`dynagg_sim::FailureSpec`] applied at nominal
//!   round boundaries through the same [`dynagg_sim::FailurePlan`] kernel
//!   `sim::runner` uses, and
//! * a run is a pure function of the master seed: bit-identical across
//!   `sim::par` trial parallelism at any thread count.
//!
//! `Sample` and `Boundary` are queue events here (scheduled up front by
//! [`AsyncNet::run`], samples first), so their order against same-instant
//! timers and deliveries is the queue's `(time, seq)` order — part of
//! this family's pinned output.

use crate::control::{engine_facade, Coordinator, Drain, Tick};
use crate::counters::Counters;
use crate::event::{EventQueue, EventSched};
use crate::runtime::{Envelope, NodeRuntime, RuntimeConfig, Stock};
use crate::views::ViewTable;
use crate::{prefetch, PREFETCH_AHEAD};
use dynagg_core::epoch::DriftModel;
use dynagg_core::protocol::{NodeId, PushProtocol};
use dynagg_core::wire::WireMessage;
use dynagg_sim::membership::Membership;
use dynagg_sim::metrics::{Series, Truth};
use dynagg_sim::rng::{self, stream};
use dynagg_sim::{FailureSpec, PartitionTable};
use rand::rngs::SmallRng;
use rand::Rng;

/// Stream tag for per-node runtime seeds (disjoint from the engine's small
/// [`stream`] constants by construction).
const NODE_SEED_BASE: u64 = 0x6E6F_6465_5F73_6565; // "node_see"

/// Per-link one-way latency distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LatencyModel {
    /// Every frame takes exactly `ms`.
    Constant {
        /// One-way delay in milliseconds.
        ms: u64,
    },
    /// Uniform in `[lo_ms, hi_ms]`.
    Uniform {
        /// Minimum delay.
        lo_ms: u64,
        /// Maximum delay (inclusive).
        hi_ms: u64,
    },
    /// Exponentially distributed with the given mean (heavy tail: a few
    /// frames arrive much later than the rest).
    Exponential {
        /// Mean delay in milliseconds.
        mean_ms: f64,
    },
}

impl LatencyModel {
    /// The distribution's lower bound in milliseconds — the conservative
    /// **lookahead** of the sharded engine: no frame sent at time `t` can
    /// arrive before `t + min_ms()`, so shards may run `min_ms()` of
    /// simulated time without hearing from each other. Exponential
    /// latency has no positive lower bound (a draw can round to 0), so
    /// it yields zero lookahead and cannot drive a sharded run.
    pub fn min_ms(&self) -> u64 {
        match *self {
            LatencyModel::Constant { ms } => ms,
            LatencyModel::Uniform { lo_ms, .. } => lo_ms,
            LatencyModel::Exponential { .. } => 0,
        }
    }

    /// Draw one delay.
    pub fn sample(&self, rng: &mut SmallRng) -> u64 {
        match *self {
            LatencyModel::Constant { ms } => ms,
            LatencyModel::Uniform { lo_ms, hi_ms } => {
                if lo_ms >= hi_ms {
                    lo_ms
                } else {
                    rng.gen_range(lo_ms..=hi_ms)
                }
            }
            LatencyModel::Exponential { mean_ms } => {
                if mean_ms <= 0.0 {
                    return 0;
                }
                let u: f64 = rng.gen(); // in [0, 1) -> 1-u in (0, 1]
                (-mean_ms * (1.0 - u).ln()).round() as u64
            }
        }
    }
}

/// Configuration of one asynchronous network.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AsyncConfig {
    /// Master seed; the whole run is a pure function of it.
    pub seed: u64,
    /// Nominal milliseconds between a node's gossip rounds.
    pub interval_ms: u64,
    /// Per-node interval jitter as a fraction of `interval_ms` (each
    /// node's interval is drawn once from `±jitter`), in `[0, 1)`.
    pub jitter: f64,
    /// Per-link latency distribution.
    pub latency: LatencyModel,
    /// Independent per-frame loss probability.
    pub loss: f64,
    /// Wall-clock cadence at which estimates are sampled into the
    /// [`Series`] (defaults to `interval_ms`, one sample per nominal
    /// round).
    pub sample_every_ms: u64,
    /// Membership-view size; populations at or below it get full views.
    pub view_size: usize,
}

impl AsyncConfig {
    /// Defaults: 100 ms rounds with ±5 % jitter, 10 ms constant latency,
    /// no loss, one sample per nominal round, 64-peer views.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            interval_ms: 100,
            jitter: 0.05,
            latency: LatencyModel::Constant { ms: 10 },
            loss: 0.0,
            sample_every_ms: 100,
            view_size: 64,
        }
    }
}

/// What one scheduled event does.
enum Ev {
    /// A node's round timer is due.
    Timer(NodeId),
    /// A frame arrives.
    Deliver(Envelope),
    /// A sample or a nominal round boundary.
    Coord(Tick),
}

/// Closure constructing a node's protocol from `(id, initial value)`.
pub type NodeFactory<P> = Box<dyn FnMut(NodeId, f64) -> P>;
/// Closure drawing a node's initial value.
pub type ValueFn = Box<dyn FnMut(&mut SmallRng, NodeId) -> f64>;
/// Closure assigning a node's clock-drift model.
pub type DriftFn = Box<dyn FnMut(NodeId) -> DriftModel>;

/// Draw one node's initial value and runtime config — the recipe behind
/// the one spawn site, the shared coordinator, which the discrete-event
/// engines and the live service all boot through, so a given seed yields
/// the identical population no matter what drives it. Draw order is part
/// of the golden contract: value stream first, then the setup stream for
/// interval (only when jitter is nonzero) and phase offset.
pub(crate) fn node_recipe(
    cfg: &AsyncConfig,
    id: NodeId,
    from_ms: u64,
    value_rng: &mut SmallRng,
    setup_rng: &mut SmallRng,
    value_gen: &mut ValueFn,
    drift_of: &mut DriftFn,
) -> (f64, RuntimeConfig) {
    let v = value_gen(value_rng, id);
    let jitter_ms = (cfg.interval_ms as f64 * cfg.jitter) as u64;
    let interval = if jitter_ms == 0 {
        cfg.interval_ms
    } else {
        cfg.interval_ms - jitter_ms + setup_rng.gen_range(0..=2 * jitter_ms)
    };
    let rt_cfg = RuntimeConfig {
        node_id: id,
        round_interval_ms: interval.max(1),
        start_offset_ms: from_ms + setup_rng.gen_range(0..interval.max(1)),
        seed: rng::derive(cfg.seed, NODE_SEED_BASE ^ u64::from(id)),
        drift: drift_of(id),
        max_round_lag: None,
    };
    (v, rt_cfg)
}

/// The sequential drain's node-side state — what the coordinator's seam
/// reaches.
struct SeqDrain<P: PushProtocol>
where
    P::Message: WireMessage,
{
    runtimes: Vec<NodeRuntime<P>>,
    queue: EventQueue<Ev>,
    /// Payload buffers and round scratch, lent to whichever runtime an
    /// event calls; every frame's buffer comes back here.
    stock: Stock<P::Message>,
    /// One global loss/latency stream, consumed in pop order.
    link_rng: SmallRng,
    counters: Counters,
}

impl<P: PushProtocol> SeqDrain<P>
where
    P::Message: WireMessage,
{
    /// Ask the cache for what the event [`PREFETCH_AHEAD`] pops from now
    /// will touch, if it is in the firing slot: a timer's runtime and
    /// view, a delivery's receiver and the first line of its frame.
    fn prefetch_ahead(&self, views: &ViewTable) {
        let record = size_of::<NodeRuntime<P>>();
        match self.queue.peek_firing(PREFETCH_AHEAD - 1) {
            Some(&Ev::Timer(id)) => {
                prefetch(&self.runtimes[id as usize], record);
                let view = views.view(id);
                prefetch(view.as_ptr(), size_of_val(view));
            }
            Some(Ev::Deliver(env)) => {
                prefetch(&self.runtimes[env.to as usize], record);
                prefetch(env.payload.as_ptr(), 1);
            }
            _ => {}
        }
    }
}

impl<P: PushProtocol> Drain<P> for SeqDrain<P>
where
    P::Message: WireMessage,
{
    fn runtime(&self, id: NodeId) -> &NodeRuntime<P> {
        &self.runtimes[id as usize]
    }

    fn runtime_mut(&mut self, id: NodeId) -> &mut NodeRuntime<P> {
        &mut self.runtimes[id as usize]
    }

    fn install(&mut self, id: NodeId, runtime: NodeRuntime<P>) {
        debug_assert_eq!(id as usize, self.runtimes.len());
        self.queue.schedule(runtime.next_tick_ms(), Ev::Timer(id));
        self.runtimes.push(runtime);
        self.stock.set_cap(self.runtimes.len());
    }

    fn counters(&self) -> Counters {
        self.counters
    }
}

/// An asynchronous in-memory network of [`NodeRuntime`]s.
pub struct AsyncNet<P: PushProtocol>
where
    P::Message: WireMessage,
{
    ctl: Coordinator<P>,
    drain: SeqDrain<P>,
    horizon_ms: Option<u64>,
    out_buf: Vec<Envelope>,
}

impl<P: PushProtocol> AsyncNet<P>
where
    P::Message: WireMessage,
{
    /// Build a network of `n` nodes: values drawn by `value_gen` (from the
    /// same dedicated RNG stream the lockstep engine uses, so a given seed
    /// yields the same population), clocks drifting per `drift_of`, and
    /// protocols built by `factory`. Membership defaults to uniform;
    /// swap topologies with [`AsyncNet::with_membership`].
    pub fn new(
        n: usize,
        cfg: AsyncConfig,
        value_gen: ValueFn,
        drift_of: DriftFn,
        factory: NodeFactory<P>,
    ) -> Self {
        let mut drain = SeqDrain {
            runtimes: Vec::with_capacity(n),
            // Pre-sized from the population: one outstanding timer per
            // node plus in-flight frames, instead of growing pop by pop.
            queue: EventQueue::with_capacity(2 * n),
            stock: Stock::new(0),
            link_rng: rng::rng_for(cfg.seed, stream::ENGINE),
            counters: Counters::default(),
        };
        Self {
            ctl: Coordinator::new(n, cfg, value_gen, drift_of, factory, &mut drain),
            drain,
            horizon_ms: None,
            out_buf: Vec::new(),
        }
    }

    engine_facade!();

    /// Current simulated wall-clock.
    pub fn now_ms(&self) -> u64 {
        self.drain.queue.now_ms()
    }

    /// Silently power a node off: it stops polling and receiving, exactly
    /// a silent departure. (Survivors keep addressing it until
    /// [`AsyncNet::refresh_views`] models neighbor rediscovery; the
    /// failure plan instead repairs affected views incrementally.)
    pub fn power_off(&mut self, id: NodeId) {
        self.ctl.power_off(id);
    }

    /// Re-run "neighbor discovery": every live node's view is re-drawn
    /// from the membership layer. Without this (or the failure plan's
    /// incremental repair), frames sent to dark nodes behave as (heavy)
    /// message loss — which the protocols also survive, at the cost of
    /// estimates anchoring harder to local values.
    ///
    /// Costs `O(live × view)` draws — the rig-API sledgehammer. The
    /// failure plan never calls this; it patches only affected views.
    pub fn refresh_views(&mut self) {
        self.ctl.refresh_views();
    }

    /// Estimates of all powered nodes.
    pub fn estimates(&self) -> Vec<f64> {
        self.nodes().filter_map(|(_, p)| p.estimate()).collect()
    }

    /// Run for `nominal_rounds × interval_ms` of simulated time: schedules
    /// the sampling cadence and the nominal round boundaries (failure
    /// plan + membership clock), then drains the event queue up to the
    /// horizon. May only be called once per network.
    pub fn run(&mut self, nominal_rounds: u64) {
        assert!(self.horizon_ms.is_none(), "run() may only be called once");
        assert_eq!(
            self.drain.queue.now_ms(),
            0,
            "run() schedules its cadence from time 0 and cannot follow run_until(); \
             drive a sampled engine with run() alone (run_until is the rig API)"
        );
        self.ctl.ensure_views();
        let horizon = nominal_rounds * self.ctl.cfg.interval_ms;
        self.horizon_ms = Some(horizon);
        // In list order, so a shared instant's sample pops before its
        // boundary and both after the boot timers.
        for (at, tick) in self.ctl.timeline(nominal_rounds) {
            self.drain.queue.schedule(at, Ev::Coord(tick));
        }
        self.drain_until(horizon);
    }

    /// Advance the network to `until_ms`, processing timers and
    /// deliveries (the rig API: no sampling, failure plan, or membership
    /// clock involved).
    pub fn run_until(&mut self, until_ms: u64) {
        self.ctl.ensure_views();
        self.drain_until(until_ms);
    }

    fn drain_until(&mut self, horizon_ms: u64) {
        while let Some((at, ev)) = self.drain.queue.pop_before(horizon_ms) {
            self.drain.counters.events += 1;
            self.drain.prefetch_ahead(&self.ctl.views);
            self.dispatch(at, ev);
        }
    }

    fn dispatch(&mut self, at: u64, ev: Ev) {
        match ev {
            Ev::Timer(id) => {
                if !self.ctl.alive.contains(id) {
                    return; // a dark node's timer dies with it
                }
                let mut out = std::mem::take(&mut self.out_buf);
                out.clear();
                let rt = &mut self.drain.runtimes[id as usize];
                debug_assert_eq!(at, rt.next_tick_ms(), "timer fires at its recorded deadline");
                rt.poll_among(at, self.ctl.views.view(id), &mut self.drain.stock, &mut out);
                self.drain.queue.schedule(rt.next_tick_ms(), Ev::Timer(id));
                for env in out.drain(..) {
                    self.send(at, env);
                }
                self.out_buf = out;
            }
            Ev::Deliver(env) => {
                if !self.ctl.alive.contains(env.to) {
                    self.drain.stock.give(env.payload); // the receiver is dark
                    return;
                }
                let drain = &mut self.drain;
                let rt = &mut drain.runtimes[env.to as usize];
                let peers = self.ctl.views.view(env.to);
                match rt.handle_among(env.from, &env.payload, peers, &mut drain.stock) {
                    Ok(Some(reply)) => self.send(at, reply),
                    Ok(None) => {}
                    Err(_) => self.drain.counters.decode_errors += 1,
                }
                self.drain.stock.give(env.payload);
            }
            Ev::Coord(tick) => self.ctl.fire(tick, at, &mut self.drain),
        }
    }

    /// Account a frame as sent, then maybe lose it, else schedule its
    /// arrival (lost frames still count as sent — bandwidth is spent
    /// whether or not they arrive, exactly as in the lockstep engine).
    fn send(&mut self, now_ms: u64, env: Envelope) {
        let drain = &mut self.drain;
        drain.counters.frames_out += 1;
        drain.counters.payload_bytes += env.raw_bytes as u64;
        drain.counters.wire_bytes += env.payload.len() as u64;
        if !self.ctl.partition.allows(env.from, env.to) {
            // The link across the cut is down; the frame dies in flight.
            drain.counters.partition_drops += 1;
            drain.stock.give(env.payload);
            return;
        }
        let cfg = &self.ctl.cfg;
        if cfg.loss > 0.0 && drain.link_rng.gen::<f64>() < cfg.loss {
            drain.stock.give(env.payload);
            return;
        }
        // A draw past the end of the clock saturates: due at `u64::MAX`,
        // the frame never arrives rather than wrapping into the past.
        let at = now_ms.saturating_add(cfg.latency.sample(&mut drain.link_rng));
        drain.queue.schedule(at, Ev::Deliver(env));
    }
}

/// Convenience constructor matching the old loopback test rig: full
/// views, constant latency, protocols built from node ids alone.
impl<P: PushProtocol> AsyncNet<P>
where
    P::Message: WireMessage,
{
    /// A small fully-visible network: `n` nodes, jittered `±5 %` round
    /// intervals, constant `latency_ms` links, frame loss `loss`.
    ///
    /// The rig records each node's *id* as its value, so the series
    /// truth and value-correlated failure modes key on ids, not on
    /// whatever values `mk`'s protocols actually hold — fine for
    /// driving with [`AsyncNet::run_until`] and reading protocol state
    /// directly (what tests do). For sampled `run()` experiments or
    /// value-correlated failures, use [`AsyncNet::new`] with a real
    /// value generator.
    pub fn loopback(
        n: usize,
        base_interval_ms: u64,
        latency_ms: u64,
        loss: f64,
        seed: u64,
        mut mk: impl FnMut(NodeId) -> P + 'static,
    ) -> Self
    where
        P: 'static,
    {
        let mut cfg = AsyncConfig::new(seed);
        cfg.interval_ms = base_interval_ms;
        cfg.latency = LatencyModel::Constant { ms: latency_ms };
        cfg.loss = loss;
        cfg.sample_every_ms = base_interval_ms;
        cfg.view_size = n; // full views, like the old rig
        Self::new(
            n,
            cfg,
            Box::new(|_, id| f64::from(id)),
            Box::new(|_| DriftModel::Synced),
            Box::new(move |id, _| mk(id)),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynagg_core::config::ResetConfig;
    use dynagg_core::count_sketch_reset::CountSketchReset;
    use dynagg_core::push_sum_revert::PushSumRevert;
    use dynagg_sim::env::{ClusteredEnv, MobilityEvent, MobilityKind, SpatialEnv};
    use dynagg_sim::FailureMode;

    #[test]
    fn unsynchronized_averaging_converges() {
        // 40 nodes, jittered intervals, 15ms latency on 100ms rounds:
        // nothing lines up, the protocol still converges to ~49.5 (values
        // are 0..40 scaled).
        let mut net = AsyncNet::loopback(40, 100, 15, 0.0, 1, |id| {
            PushSumRevert::new(f64::from(id) * 2.5, 0.01)
        });
        net.run_until(20_000);
        let truth = (0..40).map(|i| f64::from(i) * 2.5).sum::<f64>() / 40.0;
        for e in net.estimates() {
            assert!((e - truth).abs() < 8.0, "estimate {e} vs truth {truth}");
        }
        assert_eq!(net.decode_errors(), 0);
    }

    #[test]
    fn averaging_heals_after_silent_power_off() {
        let mut net =
            AsyncNet::loopback(32, 100, 10, 0.0, 2, |id| PushSumRevert::new(f64::from(id), 0.05));
        net.run_until(8_000);
        // Power off the high-valued half (correlated failure). Survivors
        // rediscover their neighborhood shortly after.
        for id in 16..32 {
            net.power_off(id);
        }
        net.run_until(9_000);
        net.refresh_views();
        net.run_until(40_000);
        let truth = (0..16).map(f64::from).sum::<f64>() / 16.0; // 7.5
        for e in net.estimates() {
            assert!((e - truth).abs() < 4.0, "healed estimate {e} vs {truth}");
        }
    }

    #[test]
    fn counting_heals_over_loopback() {
        let n = 64usize;
        let cfg = ResetConfig::paper(n as u64, 0x10);
        let mut net = AsyncNet::loopback(n, 100, 5, 0.0, 3, move |id| {
            CountSketchReset::counting(cfg, u64::from(id))
        });
        net.run_until(4_000);
        let before: f64 = net.estimates().iter().sum::<f64>() / net.estimates().len() as f64;
        let rel = (before - n as f64).abs() / n as f64;
        assert!(rel < 0.5, "converged count {before}");
        for id in 32..64 {
            net.power_off(id as NodeId);
        }
        net.run_until(4_500);
        net.refresh_views();
        net.run_until(10_000);
        let after: f64 = net.estimates().iter().sum::<f64>() / net.estimates().len() as f64;
        assert!(
            after < before * 0.8,
            "count should heal after power-off: {before:.0} -> {after:.0}"
        );
    }

    #[test]
    fn the_timeline_lists_the_sample_before_the_boundary() {
        let mut net =
            AsyncNet::loopback(2, 100, 10, 0.0, 1, |id| PushSumRevert::new(f64::from(id), 0.01));
        let mut timeline = |cadence| {
            net.ctl.cfg.sample_every_ms = cadence;
            let ticks = net.ctl.timeline(3).into_iter().map(|(at, tick)| match tick {
                Tick::Sample => format!("s{at}"),
                Tick::Boundary(k) => format!("b{k}@{at}"),
            });
            ticks.collect::<Vec<_>>().join(" ")
        };
        // A cadence that divides the interval shares its instants, one
        // that does not meets it only at the horizon, and one above it
        // samples between boundaries.
        assert_eq!(timeline(50), "b0@0 s50 s100 b1@100 s150 s200 b2@200 s250 s300");
        assert_eq!(
            timeline(30),
            "b0@0 s30 s60 s90 b1@100 s120 s150 s180 b2@200 s210 s240 s270 s300"
        );
        assert_eq!(timeline(250), "b0@0 b1@100 b2@200 s250");
    }

    #[test]
    fn a_latency_past_the_clock_delivers_nothing() {
        // `mean_ms = 1e300` draws saturate to `u64::MAX`: every frame is
        // due beyond the clock, so no host ever hears from another and
        // static Push-Sum's spread stays exactly where it started.
        let mut net =
            AsyncNet::loopback(50, 100, 10, 0.0, 4, |id| PushSumRevert::new(f64::from(id), 0.0));
        net.ctl.cfg.latency = LatencyModel::Exponential { mean_ms: 1e300 };
        net.run(5);
        let rows = &net.series().rounds;
        assert!(rows.iter().map(|r| r.messages).sum::<u64>() > 0, "frames were sent");
        let spread: Vec<f64> = rows.iter().map(|r| r.stddev).collect();
        assert!(spread.iter().all(|&s| s == spread[0]), "a frame arrived: {spread:?}");
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed: u64| {
            let mut net = AsyncNet::loopback(10, 100, 10, 0.05, seed, |id| {
                PushSumRevert::new(f64::from(id), 0.02)
            });
            net.run_until(5_000);
            net.estimates()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    /// A full-featured engine run: paper values, sampling, failure plan.
    fn engine_net(seed: u64, loss: f64) -> AsyncNet<PushSumRevert> {
        let mut cfg = AsyncConfig::new(seed);
        cfg.loss = loss;
        AsyncNet::new(
            300,
            cfg,
            Box::new(|rng, _| rng.gen_range(0.0..100.0)),
            Box::new(|_| DriftModel::Synced),
            Box::new(|_, v| PushSumRevert::new(v, 0.01)),
        )
    }

    #[test]
    fn run_samples_a_lockstep_shaped_series() {
        let mut net = engine_net(11, 0.0);
        net.run(50);
        let series = net.series();
        assert_eq!(series.rounds.len(), 50, "one sample per nominal round");
        let last = series.last().unwrap();
        assert_eq!(last.alive, 300);
        assert_eq!(last.defined, 300);
        // λ = 0.01 reversion floor at n = 300 sits near 2.
        assert!(last.stddev < 3.0, "converged: stddev {}", last.stddev);
        assert!(last.messages > 0 && last.bytes > 0, "bandwidth columns populated");
        // Wire accounting: every Mass frame is payload + 5-byte header.
        assert_eq!(last.wire_bytes, last.bytes + 5 * last.messages, "wire = raw + header");
        assert_eq!(net.decode_errors(), 0);
    }

    #[test]
    fn a_warmed_up_drain_allocates_no_frame_buffer() {
        // A take allocates only when the stack is empty, i.e. when every
        // buffer that exists is in flight; so as long as none leaks or is
        // dropped — fresh = stacked + in flight, checked every round — the
        // fresh count *is* the peak number of frames in flight, and it
        // stops moving once that record stops being broken (≈ 30 frames
        // are in flight at a time here, where the runtimes used to keep
        // up to four buffers each).
        let n = 300;
        let mut net = engine_net(13, 0.02);
        let mut fresh_at = Vec::new();
        for round in 1..=100u64 {
            net.run_until(round * net.ctl.cfg.interval_ms);
            let stock = &net.drain.stock;
            let in_flight = net.drain.queue.len() - n; // all but the timers
            assert_eq!(
                stock.buffers_fresh as usize,
                stock.len() + in_flight,
                "round {round}: a buffer leaked or was dropped"
            );
            fresh_at.push(stock.buffers_fresh);
        }
        assert_eq!(fresh_at[49], fresh_at[99], "the second half of the run allocates nothing");
        assert!(fresh_at[99] < n as u64 / 4, "peak in flight, not a stock per node: {fresh_at:?}");
        assert_eq!(net.decode_errors(), 0);
    }

    #[test]
    fn at_round_failure_mirrors_lockstep_semantics() {
        let mut cfg = AsyncConfig::new(5);
        cfg.view_size = 32;
        let mut net = AsyncNet::new(
            200,
            cfg,
            Box::new(|rng, _| rng.gen_range(0.0..100.0)),
            Box::new(|_| DriftModel::Synced),
            Box::new(|_, v| PushSumRevert::new(v, 0.05)),
        )
        .with_failure(FailureSpec::AtRound {
            round: 20,
            mode: FailureMode::TopValue,
            fraction: 0.5,
            graceful: false,
        });
        net.run(90);
        let series = net.series();
        assert_eq!(series.rounds[10].alive, 200);
        assert_eq!(series.last().unwrap().alive, 100, "half failed at round 20");
        // Correlated failure shifts the truth; reversion re-converges.
        assert!(series.last().unwrap().stddev < 6.0, "healed: {}", series.last().unwrap().stddev);
    }

    #[test]
    fn churn_keeps_population_near_equilibrium() {
        let mut net = engine_net(9, 0.0).with_failure(FailureSpec::Churn {
            start: 0,
            leave_per_round: 0.02,
            join_per_round: 0.02,
        });
        net.run(60);
        let last = net.series().last().unwrap();
        assert!((180..=420).contains(&last.alive), "population drifted to {}", last.alive);
        assert_eq!(last.defined, last.alive, "joined nodes enter the metrics");
    }

    #[test]
    fn churn_repair_is_incremental_not_full_refresh() {
        // 2 000 hosts with 32-peer views and 1 %/round churn for 40
        // rounds. A full-refresh engine re-draws every live view every
        // churn round: ≥ 2 000 × 40 = 80 000 whole-view draws. The
        // incremental engine draws whole views only at init and for
        // joins (~2 000 + 0.01 × 2 000 × 40 = 2 800), and patches
        // ~view-size slots per departure.
        let mut cfg = AsyncConfig::new(77);
        cfg.view_size = 32;
        let mut net: AsyncNet<PushSumRevert> = AsyncNet::new(
            2_000,
            cfg,
            Box::new(|rng, _| rng.gen_range(0.0..100.0)),
            Box::new(|_| DriftModel::Synced),
            Box::new(|_, v| PushSumRevert::new(v, 0.01)),
        )
        .with_failure(FailureSpec::Churn {
            start: 0,
            leave_per_round: 0.01,
            join_per_round: 0.01,
        });
        net.run(40);
        let full = net.full_view_assignments();
        assert!(
            full < 2_000 + 2_000,
            "whole-view draws must stay O(init + joins), got {full} (full refresh would be 80k+)"
        );
        assert!(net.view_slots_patched() > 0, "departures must exercise the patch path");
        // Repair keeps the gossip graph healthy: views stay near-full.
        let live = net.live();
        let mean_view: f64 =
            live.iter().map(|&id| net.view_of(id).len() as f64).sum::<f64>() / live.len() as f64;
        assert!(mean_view > 28.0, "mean view size {mean_view} of 32 after 40 churn rounds");
        let last = net.series().last().unwrap();
        assert!(last.stddev < 10.0, "still converges under churn: {}", last.stddev);
    }

    #[test]
    fn runs_are_a_pure_function_of_the_seed() {
        let digest = |seed| {
            let mut net = engine_net(seed, 0.1);
            net.run(30);
            net.into_series()
        };
        assert_eq!(digest(21), digest(21), "same seed, same series, bit for bit");
        assert_ne!(digest(21), digest(22));
    }

    #[test]
    fn drifted_clocks_change_round_rates_not_correctness() {
        let mut cfg = AsyncConfig::new(33);
        cfg.latency = LatencyModel::Uniform { lo_ms: 2, hi_ms: 40 };
        let mut net = AsyncNet::new(
            100,
            cfg,
            Box::new(|rng, _| rng.gen_range(0.0..100.0)),
            // Clocks spanning ±20 %.
            Box::new(|id| DriftModel::ConstantSkew { rate: 0.8 + 0.4 * f64::from(id) / 99.0 }),
            Box::new(|_, v| PushSumRevert::new(v, 0.01)),
        );
        net.run(80);
        let fast = net.node(99).round();
        let slow = net.node(0).round();
        assert!(fast > slow + 20, "fast crystal outpaces slow: {fast} vs {slow}");
        let last = net.series().last().unwrap();
        assert!(last.stddev < 3.0, "still converges under skew: {}", last.stddev);
    }

    #[test]
    fn clustered_membership_keeps_gossip_inside_cliques() {
        // 3 isolated cliques, no bridges, no migration: every view and
        // every frame stays within the sender's clique, so each clique
        // converges to its *own* mean, not the global one.
        let n = 90usize;
        let mut cfg = AsyncConfig::new(41);
        cfg.view_size = 16;
        let env = ClusteredEnv::new(n, 3, 0.0, 0.0, 41);
        let cluster_of: Vec<u32> = (0..n as NodeId).map(|i| env.cluster_of(i)).collect();
        let mut net = AsyncNet::new(
            n,
            cfg,
            Box::new(|rng, _| rng.gen_range(0.0..100.0)),
            Box::new(|_| DriftModel::Synced),
            Box::new(|_, v| PushSumRevert::new(v, 0.0)),
        )
        .with_membership(Box::new(env));
        net.run(60);
        for id in net.live() {
            let home = cluster_of[id as usize];
            for &p in net.view_of(id) {
                assert_eq!(cluster_of[p as usize], home, "view of {id} crosses cliques");
            }
        }
        // Values 0..100 uniform per clique of 30: clique means differ from
        // each other, and each clique agrees internally.
        for c in 0..3u32 {
            let members: Vec<NodeId> =
                (0..n as NodeId).filter(|&i| cluster_of[i as usize] == c).collect();
            let ests: Vec<f64> = members.iter().filter_map(|&i| net.node(i).estimate()).collect();
            assert_eq!(ests.len(), members.len());
            let mean = ests.iter().sum::<f64>() / ests.len() as f64;
            for e in &ests {
                assert!((e - mean).abs() < 2.0, "clique {c} internally agreed: {e} vs {mean}");
            }
        }
    }

    #[test]
    fn clustered_mobility_events_reshape_views_mid_run() {
        // A merge at nominal round 10 dissolves clique 0 into clique 1;
        // afterwards former clique-0 members' views contain clique-1
        // hosts. Exercises the advance() change report end to end.
        let n = 60usize;
        let mut cfg = AsyncConfig::new(43);
        cfg.view_size = 8;
        let env = ClusteredEnv::new(n, 3, 0.0, 0.0, 43).with_events(vec![MobilityEvent {
            round: 10,
            kind: MobilityKind::Merge { from: 0, into: 1 },
        }]);
        let mut net = AsyncNet::new(
            n,
            cfg,
            Box::new(|rng, _| rng.gen_range(0.0..100.0)),
            Box::new(|_| DriftModel::Synced),
            Box::new(|_, v| PushSumRevert::new(v, 0.01)),
        )
        .with_membership(Box::new(ClusteredEnv::new(n, 3, 0.0, 0.0, 43).with_events(vec![
            MobilityEvent { round: 10, kind: MobilityKind::Merge { from: 0, into: 1 } },
        ])));
        net.run(30);
        assert!(
            net.full_view_assignments() > n as u64,
            "the merge must rebuild views beyond the initial assignment: {}",
            net.full_view_assignments()
        );
        // Former clique 0 (ids ≡ 0 mod 3) now sees clique 1 (ids ≡ 1 mod 3).
        let view = net.view_of(0);
        assert!(!view.is_empty());
        assert!(
            view.iter().any(|&p| env.cluster_of(p) == 1),
            "merged host's view {view:?} should reach its new clique"
        );
    }

    #[test]
    fn spatial_membership_views_are_the_grid() {
        let n = 64usize; // 8×8 grid
        let cfg = AsyncConfig::new(47);
        let env = SpatialEnv::for_nodes(n);
        let side = env.side();
        let mut net = AsyncNet::new(
            n,
            cfg,
            Box::new(|rng, _| rng.gen_range(0.0..100.0)),
            Box::new(|_| DriftModel::Synced),
            Box::new(|_, v| PushSumRevert::new(v, 0.01)),
        )
        .with_membership(Box::new(env));
        net.run(120);
        for id in net.live() {
            for &p in net.view_of(id) {
                let (x0, y0) = (id % side, id / side);
                let (x1, y1) = (p % side, p / side);
                assert_eq!(
                    x0.abs_diff(x1) + y0.abs_diff(y1),
                    1,
                    "spatial view of {id} holds non-adjacent {p}"
                );
            }
        }
        // Grid gossip is slower than uniform but still converges.
        let last = net.series().last().unwrap();
        assert!(last.stddev < 12.0, "grid convergence: {}", last.stddev);
        assert_eq!(net.decode_errors(), 0);
    }

    fn halves_table(n: NodeId, at: u64, heal: Option<u64>) -> PartitionTable {
        use dynagg_sim::partition::{resolve, Island, PartitionEvent, TopologyInfo};
        let event = PartitionEvent {
            at_round: at,
            heal_at: heal,
            islands: vec![Island::Range { lo: 0, hi: n / 2 }, Island::Range { lo: n / 2, hi: n }],
        };
        let resolved = resolve(&event, n as usize, &TopologyInfo::default()).unwrap();
        PartitionTable::new(vec![resolved]).unwrap()
    }

    #[test]
    fn partition_blocks_cross_island_frames_then_heals() {
        // Island A all hold 10, island B all hold 90. Any frame crossing
        // the cut would pull an estimate off its island's mean; after the
        // heal the population must re-merge to the global 50.
        let n = 40usize;
        let mut cfg = AsyncConfig::new(51);
        cfg.view_size = 8;
        let mut net = AsyncNet::new(
            n,
            cfg,
            Box::new(|_, id| if id < 20 { 10.0 } else { 90.0 }),
            Box::new(|_| DriftModel::Synced),
            Box::new(|_, v| PushSumRevert::new(v, 0.0)),
        )
        .with_partition(halves_table(n as NodeId, 0, Some(60)));
        net.run(140);
        let series = net.series();
        // Mid-split samples: two islands, no forged mass.
        let mid = &series.rounds[30];
        assert_eq!(mid.islands, 2, "split visible in metrics");
        // Sampling is not synchronized with node ticks, so the async audit
        // jitters by the in-flight fraction of a round — but it must stay
        // bounded (honest chaos never *mints* mass; an inflation adversary
        // drives this without bound).
        assert!(mid.mass_audit.abs() < 5.0, "honest audit stays bounded: {}", mid.mass_audit);
        // The split keeps the islands at their own means exactly.
        assert!(mid.stddev > 30.0, "island means are 40 apart: stddev {}", mid.stddev);
        // Post-heal: one component again, converged to the global mean.
        let last = series.last().unwrap();
        assert_eq!(last.islands, 1, "heal visible in metrics");
        assert!(last.stddev < 2.0, "re-merged after heal: stddev {}", last.stddev);
        for id in net.live() {
            let e = net.node(id).estimate().unwrap();
            assert!((e - 50.0).abs() < 2.0, "node {id} not re-merged: {e}");
        }
        assert_eq!(net.decode_errors(), 0);
    }

    #[test]
    fn partitioned_views_stay_island_local() {
        let n = 60usize;
        let mut cfg = AsyncConfig::new(53);
        cfg.view_size = 12;
        let mut net: AsyncNet<PushSumRevert> = AsyncNet::new(
            n,
            cfg,
            Box::new(|rng, _| rng.gen_range(0.0..100.0)),
            Box::new(|_| DriftModel::Synced),
            Box::new(|_, v| PushSumRevert::new(v, 0.01)),
        )
        .with_partition(halves_table(n as NodeId, 5, None))
        .with_failure(FailureSpec::AtRound {
            round: 12,
            mode: FailureMode::Random,
            fraction: 0.2,
            graceful: false,
        });
        net.run(30);
        // Views were rebuilt on split and repaired after the failure; both
        // paths must respect the island boundary.
        for id in net.live() {
            let island = u32::from(id >= n as NodeId / 2);
            for &p in net.view_of(id) {
                assert_eq!(
                    u32::from(p >= n as NodeId / 2),
                    island,
                    "view of {id} crosses the partition: {p}"
                );
            }
        }
        net.check_view_consistency();
    }

    #[test]
    fn latency_lower_bounds_bound_their_samples() {
        let mut rng = rng::rng_for(9, stream::ENGINE);
        for m in [
            LatencyModel::Constant { ms: 7 },
            LatencyModel::Uniform { lo_ms: 3, hi_ms: 30 },
            LatencyModel::Uniform { lo_ms: 5, hi_ms: 5 },
            LatencyModel::Exponential { mean_ms: 12.0 },
        ] {
            for _ in 0..2_000 {
                assert!(m.sample(&mut rng) >= m.min_ms(), "{m:?} drew below its lower bound");
            }
        }
        assert_eq!(LatencyModel::Exponential { mean_ms: 5.0 }.min_ms(), 0, "zero lookahead");
    }

    #[test]
    fn exponential_latency_samples_are_heavy_tailed_but_finite() {
        let mut rng = rng::rng_for(1, stream::ENGINE);
        let m = LatencyModel::Exponential { mean_ms: 20.0 };
        let draws: Vec<u64> = (0..10_000).map(|_| m.sample(&mut rng)).collect();
        let mean = draws.iter().sum::<u64>() as f64 / draws.len() as f64;
        assert!((mean - 20.0).abs() < 2.0, "sample mean {mean}");
        assert!(draws.iter().any(|&d| d > 60), "tail draws exist");
    }
}
