//! The environment/protocol registry and the scenario runner.
//!
//! This is the single place where a declarative [`ScenarioSpec`] meets the
//! concrete types in `dynagg-core` / `dynagg-sim`: [`build_env`] maps an
//! [`EnvSpec`] onto an environment, and [`run`] dispatches over
//! (protocol × engine) to assemble and drive a simulation. The figure
//! modules in `dynagg-bench` embed their `scenarios/*.toml` file and call
//! these same functions, so a figure command and `experiments run
//! <file.toml>` are one run.

use crate::caps::{Frames, Payload};
use crate::error::ScenarioError;
use crate::spec::{
    topology_info, AdversarySpec, Engine, EnvSpec, Probe, ProtocolSpec, Report, ScenarioSpec,
    ValueSpec, WireAccounting,
};
use dynagg_core::adaptive::AdaptiveRevert;
use dynagg_core::adversary::{Adversarial, Corruptible};
use dynagg_core::config::ResetConfig;
use dynagg_core::config::SketchConfig;
use dynagg_core::count_sketch::CountSketch;
use dynagg_core::count_sketch_reset::CountSketchReset;
use dynagg_core::epoch::{DriftModel, EpochPushSum, EPOCH_MSG_WIRE_BYTES};
use dynagg_core::full_transfer::FullTransfer;
use dynagg_core::invert_average::InvertAverage;
use dynagg_core::mass::{Mass, MASS_WIRE_BYTES};
use dynagg_core::protocol::{NodeId, PairwiseProtocol, PushProtocol};
use dynagg_core::push_sum_revert::PushSumRevert;
use dynagg_core::tree::TagTree;
use dynagg_core::wire::WireMessage;
use dynagg_node::loopback::ValueFn;
use dynagg_node::runtime::FRAME_HEADER_BYTES;
use dynagg_node::{AsyncConfig, AsyncNet, ShardedNet};
use dynagg_sim::env::{ClusteredEnv, Environment, SpatialEnv, TraceEnv, UniformEnv};
use dynagg_sim::partition::{self, PartitionTable};
use dynagg_sim::shard::ShardMap;
use dynagg_sim::{par, runner, Series};
use dynagg_sketch::age::{AgeMatrix, INF_AGE};
use dynagg_sketch::codec;
use dynagg_sketch::hash::SplitMix64;
use dynagg_sketch::pcsa::Pcsa;
use dynagg_sketch::sum::insert_value;
use dynagg_trace::datasets::Dataset;
use dynagg_trace::Timeline;
use rand::Rng;
use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

/// What one trial produced.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialOutput {
    /// The per-round metric series.
    pub series: Series,
    /// `samples[k][age]` — finite age-counter histogram per bit index,
    /// collected after the last round. Only for
    /// [`Report::CounterCdf`] runs.
    pub counter_samples: Option<Vec<Vec<u64>>>,
    /// The post-run node-state reading, when the spec requested a
    /// [`Probe`].
    pub probe: Option<f64>,
}

/// All trials of one sweep instance.
#[derive(Debug, Clone, PartialEq)]
pub struct InstanceOutcome {
    /// `axis=value` label (sweeps only).
    pub label: Option<String>,
    /// The effective population (trace environments resolve it here).
    pub n: usize,
    /// Rounds actually simulated.
    pub rounds: u64,
    /// One output per trial.
    pub trials: Vec<TrialOutput>,
}

impl InstanceOutcome {
    /// The single series of a one-trial instance.
    pub fn series(&self) -> &Series {
        &self.trials[0].series
    }
}

/// A full scenario result: one outcome per sweep instance (a single
/// outcome when there is no sweep).
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioOutcome {
    /// Sweep instances, in sweep-value order.
    pub instances: Vec<InstanceOutcome>,
}

/// Facts about a trace dataset the spec layer needs before running
/// (population, horizon, hourly bucketing).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceInfo {
    /// Devices in the trace (the population).
    pub devices: usize,
    /// Rounds in the full trace.
    pub total_rounds: u64,
    /// Rounds per simulated hour.
    pub rounds_per_hour: u64,
}

/// Inspect a dataset without running anything.
pub fn trace_info(dataset: Dataset) -> TraceInfo {
    trace_data(dataset).0
}

/// Process-level memo of the (deterministic) synthetic trace per dataset:
/// one scenario run touches the dataset several times (shape resolution,
/// one environment per trial, hourly bucketing in fig11), and regenerating
/// the full contact timeline each time is pure waste.
fn trace_data(dataset: Dataset) -> (TraceInfo, Timeline) {
    static CACHE: OnceLock<Mutex<HashMap<Dataset, (TraceInfo, Timeline)>>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    let mut guard = cache.lock().expect("trace cache poisoned");
    guard
        .entry(dataset)
        .or_insert_with(|| {
            let env = TraceEnv::paper(dataset.generate());
            let info = TraceInfo {
                devices: env.device_count(),
                total_rounds: env.total_rounds(),
                rounds_per_hour: env.rounds_per_hour(),
            };
            (info, env.timeline().clone())
        })
        .clone()
}

/// Build the environment a spec names. `n` is the effective population and
/// `seed` the master seed (the clustered environment derives its migration
/// stream from it).
pub fn build_env(env: &EnvSpec, n: usize, seed: u64) -> Box<dyn Environment> {
    match env {
        EnvSpec::Uniform => Box::new(UniformEnv::new()),
        EnvSpec::Spatial => Box::new(SpatialEnv::for_nodes(n)),
        EnvSpec::Clustered { clusters, migration, bridge, events } => {
            let e = ClusteredEnv::new(n, *clusters, *migration, *bridge, seed);
            Box::new(if events.is_empty() { e } else { e.with_events(events.clone()) })
        }
        EnvSpec::Trace { dataset } => Box::new(TraceEnv::paper(trace_data(*dataset).1)),
    }
}

/// Run a full scenario: validate, expand the sweep, run every instance
/// (instances fan out as parallel trials).
pub fn run(spec: &ScenarioSpec) -> Result<ScenarioOutcome, ScenarioError> {
    spec.validate()?;
    let instances = spec.instances();
    let outcomes = par::par_map(&instances, |_, (label, inst)| run_instance(label.clone(), inst));
    Ok(ScenarioOutcome { instances: outcomes })
}

/// Run a sweepless, single-trial spec and return its series — the call
/// the figure modules' line runners reduce to.
///
/// # Panics
/// Panics if the spec has a sweep or multiple trials (callers hold those
/// at the figure level); validation errors are returned.
pub fn run_series(spec: &ScenarioSpec) -> Result<Series, ScenarioError> {
    spec.validate()?;
    assert!(spec.sweep.is_none(), "run_series takes a sweepless spec; use run()");
    assert_eq!(spec.trials, 1, "run_series takes a single-trial spec; use run()");
    let (_, inst) = spec.instances().pop().expect("one instance");
    let mut outcome = run_instance(None, &inst);
    Ok(outcome.trials.pop().expect("one trial").series)
}

/// Run one sweep instance (all its trials). The spec must have validated.
fn run_instance(label: Option<String>, spec: &ScenarioSpec) -> InstanceOutcome {
    let (n, rounds) = resolve_shape(spec);
    let trials = if spec.trials == 1 {
        vec![run_trial(spec, spec.seed, n, rounds)]
    } else {
        par::run_trials(spec.seed, spec.trials, |seed| run_trial(spec, seed, n, rounds))
    };
    InstanceOutcome { label, n, rounds, trials }
}

/// Effective population and horizon (trace environments resolve both from
/// the dataset).
pub(crate) fn resolve_shape(spec: &ScenarioSpec) -> (usize, u64) {
    match &spec.env {
        EnvSpec::Trace { dataset } => {
            let info = trace_info(*dataset);
            (info.devices, spec.rounds.unwrap_or(info.total_rounds).min(info.total_rounds))
        }
        _ => (
            spec.n.expect("validated: non-trace specs have n"),
            spec.rounds.expect("validated: non-trace specs have rounds"),
        ),
    }
}

/// One trial of a validated spec: its resolved shape plus the engine
/// assemblies every (protocol × engine) run goes through. Each assembly
/// builds its engine once, runs it, and ends in [`Trial::visit`]: every
/// live node's final protocol state (ascending id) goes to `read` — the
/// one readout seam, so a probe or report is a closure, not a per-engine
/// code path.
struct Trial<'a> {
    spec: &'a ScenarioSpec,
    seed: u64,
    n: usize,
    rounds: u64,
}

/// The post-run node reader the assemblies call.
type Read<'r, P> = &'r mut dyn FnMut(&P);

/// One trial: pick the protocol's factory and readers, and the assembly
/// its capabilities admit — pairwise-capable protocols branch on the
/// engine, protocols with a [`Corruptible`] message go through the
/// adversary seam, the rest straight to the message-passing engines. This
/// match *is* the protocol registry; which assembly a protocol may take is
/// the capability table's ([`crate::caps`]) to say, and each assembly
/// asserts the arm that called it against the protocol's row.
fn run_trial(spec: &ScenarioSpec, seed: u64, n: usize, rounds: u64) -> TrialOutput {
    use ProtocolSpec as P;
    let t = Trial { spec, seed, n, rounds };
    let mut probe = spec.output.probe.map(|Probe::MassWeight| 0.0);
    let mut counter_samples = None;
    let mut series = match spec.protocol {
        P::PushSumRevert { lambda } => {
            let factory = move |_, v| PushSumRevert::new(v, lambda);
            let read = &mut weigh(&mut probe, PushSumRevert::mass);
            if spec.engine == Engine::Pairwise {
                t.pairwise(factory, read)
            } else {
                t.corruptible(factory, read)
            }
        }
        P::FullTransfer { lambda, parcels, window } => t.corruptible(
            move |_, v| FullTransfer::try_new(v, lambda, parcels, window).expect("validated"),
            &mut weigh(&mut probe, FullTransfer::mass),
        ),
        P::AdaptiveRevert { lambda } => t.corruptible(
            move |_, v| AdaptiveRevert::new(v, lambda),
            &mut weigh(&mut probe, AdaptiveRevert::mass),
        ),
        P::EpochPushSum { epoch_len, settle_len, clique_drift } => {
            let factory = move |id: NodeId, v| {
                let mut p = EpochPushSum::new(v, epoch_len);
                if let Some(s) = settle_len {
                    p = p.with_settle_len(s);
                }
                if let Some(cd) = clique_drift {
                    let clique = id % cd.clusters;
                    p = p
                        .with_clock_offset(cd.offset_of(clique, epoch_len))
                        .with_drift_model(DriftModel::ConstantSkew { rate: cd.rate_of(clique) });
                }
                p
            };
            t.corruptible(factory, &mut |_| {})
        }
        P::CountSketch { multiplier, hash_seed_xor } => {
            let cfg = SketchConfig::paper(n as u64 * multiplier, seed ^ hash_seed_xor);
            let factory = move |id: NodeId, _| {
                if multiplier == 1 {
                    CountSketch::counting(cfg, u64::from(id))
                } else {
                    CountSketch::summing(cfg, u64::from(id), multiplier)
                }
            };
            t.corruptible(factory, &mut |_| {})
        }
        P::CountSketchReset { cutoff, push_pull, multiplier, hash_seed_xor } => {
            let cfg = ResetConfig::paper(n as u64 * multiplier, seed ^ hash_seed_xor)
                .with_cutoff(cutoff)
                .with_push_pull(push_pull);
            if spec.output.report == Report::CounterCdf {
                let width = cfg.sketch.width as usize + 1;
                counter_samples = Some(vec![vec![0u64; usize::from(INF_AGE)]; width]);
            }
            t.corruptible(
                move |id, _| CountSketchReset::with_multiplier(cfg, u64::from(id), multiplier),
                &mut tally_ages(&mut counter_samples),
            )
        }
        P::InvertAverage { lambda, hash_seed_xor } => {
            let cfg = ResetConfig::paper(n as u64, seed ^ hash_seed_xor);
            t.message(move |id, v| InvertAverage::new(v, lambda, cfg, u64::from(id)), &mut |_| {})
        }
        P::TagTree { child_timeout } => {
            t.message(move |id, v| TagTree::new(v, id == 0, child_timeout), &mut |_| {})
        }
    };
    if t.priced() {
        price_wire(&mut series, &spec.protocol, n, seed);
    }
    TrialOutput { series, counter_samples, probe }
}

/// [`Probe::MassWeight`] as a node reader: when the probe was requested,
/// add every visited node's mass weight to its total.
fn weigh<P: 'static>(total: &mut Option<f64>, mass_of: fn(&P) -> Mass) -> impl FnMut(&P) + '_ {
    move |node| {
        if let Some(total) = total {
            *total += mass_of(node).weight;
        }
    }
}

/// [`Report::CounterCdf`] (the Fig. 6 readout) as a node reader: when the
/// report was requested, histogram every visited host's finite age
/// counters per bit index into `samples[k][age]`.
fn tally_ages(samples: &mut Option<Vec<Vec<u64>>>) -> impl FnMut(&CountSketchReset) + '_ {
    move |node| {
        if let Some(samples) = samples {
            for (_, k, age) in node.ages().finite_cells() {
                samples[usize::from(k)][usize::from(age)] += 1;
            }
        }
    }
}

/// The resolved partition schedule of a validated spec (empty when the
/// spec has no `[[partition]]` tables).
fn partition_table(spec: &ScenarioSpec, n: usize) -> PartitionTable {
    if spec.partitions.is_empty() {
        return PartitionTable::empty();
    }
    let topo = topology_info(&spec.env, n);
    let events = spec
        .partitions
        .iter()
        .map(|event| partition::resolve(event, n, &topo).expect("validated partition event"))
        .collect();
    PartitionTable::new(events).expect("validated partition schedule")
}

/// Wrap a protocol factory so the first `⌈fraction · n⌉` host ids run the
/// Byzantine wrapper and everyone else an honest pass-through.
fn adversarial<P, F>(
    adv: AdversarySpec,
    n: usize,
    mut factory: F,
) -> impl FnMut(NodeId, f64) -> Adversarial<P> + 'static
where
    P: PushProtocol + 'static,
    P::Message: Corruptible,
    F: FnMut(NodeId, f64) -> P + 'static,
{
    let malicious = ((adv.fraction * n as f64).ceil() as usize).clamp(1, n.max(1)) as NodeId;
    move |id, v| {
        let inner = factory(id, v);
        if id < malicious {
            Adversarial::malicious(inner, adv.attack, adv.from_round)
        } else {
            Adversarial::honest(inner)
        }
    }
}

impl Trial<'_> {
    /// Hand every live node an engine yields (ascending id) to the reader
    /// — when the spec asked for a readout at all: a plain series run
    /// never walks its nodes.
    fn visit<'n, P: 'n>(&self, nodes: impl Iterator<Item = (NodeId, &'n P)>, read: Read<P>) {
        let output = &self.spec.output;
        if output.probe.is_some() || output.report == Report::CounterCdf {
            nodes.for_each(|(_, node)| read(node));
        }
    }

    /// A protocol whose message is [`Corruptible`]: the one site where the
    /// `[adversary]` table wraps the factory. Readers keep seeing the
    /// wrapped protocol's own state — an attacker forges what it sends,
    /// never its own books.
    fn corruptible<P, F>(&self, factory: F, read: Read<P>) -> Series
    where
        P: PushProtocol + Send + 'static,
        P::Message: WireMessage + Corruptible + Send,
        F: FnMut(NodeId, f64) -> P + 'static,
    {
        let row = self.spec.protocol.caps();
        assert!(row.payload != Payload::Other, "`{}` has no payload to forge", row.name);
        match self.spec.adversary {
            Some(adv) => {
                self.engine(adversarial(adv, self.n, factory), &mut |node| read(node.inner()))
            }
            None => self.engine(factory, read),
        }
    }

    /// A protocol whose message nothing outside it reads or forges:
    /// straight to the message-passing engines.
    fn message<P, F>(&self, factory: F, read: Read<P>) -> Series
    where
        P: PushProtocol + Send + 'static,
        P::Message: WireMessage + Send,
        F: FnMut(NodeId, f64) -> P + 'static,
    {
        let row = self.spec.protocol.caps();
        assert!(row.payload == Payload::Other, "`{}` skipped the adversary seam", row.name);
        self.engine(factory, read)
    }

    /// Message passing: the push engine or the asynchronous discrete-event
    /// engine, as the spec says.
    fn engine<P, F>(&self, factory: F, read: Read<P>) -> Series
    where
        P: PushProtocol + Send + 'static,
        P::Message: WireMessage + Send,
        F: FnMut(NodeId, f64) -> P + 'static,
    {
        match self.spec.engine {
            Engine::Push => self.push(factory, read),
            Engine::Async => self.asynchronous(factory, read),
            Engine::Pairwise => panic!(
                "the table grants `{}` a pairwise form the registry never assembles",
                self.spec.protocol.name()
            ),
        }
    }

    /// Does the registry price this trial's `wire_bytes` column after the
    /// run ([`price_wire`])? Always for an engine without frames, never
    /// for one that encodes them, and for a metering engine unless the
    /// spec asked it to measure each message (`wire = "measured"`).
    fn priced(&self) -> bool {
        let frames = self.spec.engine.caps().frames;
        frames == Frames::None
            || (frames == Frames::Metered && self.spec.wire == WireAccounting::Priced)
    }

    /// The lockstep assembly, shared by both lockstep engines up to the
    /// final `build` / `build_pairwise`.
    fn lockstep<P, F>(&self, factory: F) -> runner::TypedBuilder<P, F>
    where
        F: FnMut(NodeId, f64) -> P,
    {
        let (spec, n) = (self.spec, self.n);
        let b = runner::builder(self.seed).environment_boxed(build_env(&spec.env, n, self.seed));
        match spec.values {
            ValueSpec::Paper => b.nodes_with_paper_values(n),
            ValueSpec::Constant(x) => b.nodes_with_constant(n, x),
        }
        .protocol(factory)
        .truth(spec.truth)
        .failure(spec.failure)
        .message_loss(spec.loss)
        .partition(partition_table(spec, n))
    }

    /// The push engine; measures each message when the series will not be
    /// priced.
    fn push<P, F>(&self, factory: F, read: Read<P>) -> Series
    where
        P: PushProtocol + 'static,
        P::Message: WireMessage,
        F: FnMut(NodeId, f64) -> P,
    {
        let mut sim = self.lockstep(factory).build();
        if !self.priced() {
            // The message's actual codec size (via the version-stamped
            // encode memo for sketch payloads — one `Arc` snapshot fanned
            // to `k` partners is encoded once) plus the same frame header
            // `AsyncNet` frames carry.
            sim = sim.with_wire_meter(|msg: &P::Message| {
                (msg.encoded_len() + FRAME_HEADER_BYTES) as u64
            });
        }
        for _ in 0..self.rounds {
            sim.step();
        }
        self.visit(sim.nodes(), read);
        sim.run(0) // steps nothing: moves the series out
    }

    /// The atomic push/pull engine (exchanges pass state by reference, so
    /// there is nothing to measure or corrupt).
    fn pairwise<P, F>(&self, factory: F, read: Read<P>) -> Series
    where
        P: PairwiseProtocol,
        F: FnMut(NodeId, f64) -> P,
    {
        let row = self.spec.protocol.caps();
        assert!(row.pairwise, "`{}` has no pairwise form", row.name);
        let mut sim = self.lockstep(factory).build_pairwise();
        for _ in 0..self.rounds {
            sim.step();
        }
        self.visit(sim.nodes(), read);
        sim.run(0) // steps nothing: moves the series out
    }

    /// The asynchronous assembly: nominal rounds map to `interval_ms` of
    /// simulated wall-clock each, and the sampled series has the same
    /// shape as a lockstep run of the same horizon. Peers come from the
    /// spec's environment through the shared membership layer, so every
    /// `env` kind runs asynchronously — topology changes (clique mobility,
    /// trace replay) land at nominal round boundaries.
    fn asynchronous<P, F>(&self, factory: F, read: Read<P>) -> Series
    where
        P: PushProtocol + Send + 'static,
        P::Message: WireMessage + Send,
        F: FnMut(NodeId, f64) -> P + 'static,
    {
        let (spec, seed, n) = (self.spec, self.seed, self.n);
        let a = spec.asynchrony.unwrap_or_default();
        let mut cfg = AsyncConfig::new(seed);
        cfg.interval_ms = a.interval_ms;
        cfg.jitter = a.jitter;
        cfg.latency = a.latency;
        cfg.loss = spec.loss;
        cfg.sample_every_ms = a.sample_every_ms.unwrap_or(a.interval_ms);
        let value_gen: ValueFn = match spec.values {
            ValueSpec::Paper => Box::new(|rng, _| rng.gen_range(0.0..100.0)),
            ValueSpec::Constant(x) => Box::new(move |_, _| x),
        };
        let drift_of = Box::new(move |id| a.drift.model_for(id, n));
        // The two drains share one control plane, so everything from here
        // on is the same builder chain and the same post-run readout.
        macro_rules! drive {
            ($net:expr) => {{
                let mut net = $net
                    .with_membership(build_env(&spec.env, n, seed))
                    .with_truth(spec.truth)
                    .with_failure(spec.failure)
                    .with_partition(partition_table(spec, n));
                net.run(self.rounds);
                self.visit(net.nodes(), read);
                net.into_series()
            }};
        }
        // `shards = 1` (or an absent key) keeps the sequential engine,
        // whose pinned digests predate sharding; `shards ≥ 2` runs the
        // sharded engine, bit-identical across every count but
        // statistically distinct from the sequential engine (its
        // loss/latency draws are per-node streams, not one global stream
        // in pop order).
        let (shards, _fallback) = spec.effective_shards(n);
        if shards >= 2 {
            let map = ShardMap::from_topology(&topology_info(&spec.env, n), n, shards);
            drive!(ShardedNet::new(n, cfg, map, value_gen, drift_of, Box::new(factory)))
        } else {
            drive!(AsyncNet::new(n, cfg, value_gen, drift_of, Box::new(factory)))
        }
    }
}

/// Fill a lockstep series' `wire_bytes` column. The lockstep engines
/// count raw payload bytes and never encode frames, so the registry
/// prices each message at the protocol's [`wire_cost`] plus the async
/// frame header — the same frame shape `AsyncNet` measures. Exact for
/// scalar payloads; an approximation for sketch payloads, whose plane-
/// coded size grows over a run with the finite cells a host has heard of.
/// The price is [`WireCost::encoded_bytes`] — a *freshly initialized*
/// node's frame, the round-0 floor — not the steady state
/// ([`converged_wire_bytes`], several hundred bytes at paper geometry):
/// a series that needs the real curve sets `wire = "measured"`.
fn price_wire(series: &mut Series, protocol: &ProtocolSpec, n: usize, seed: u64) {
    let per_msg = (wire_cost(protocol, n, seed).encoded_bytes + FRAME_HEADER_BYTES) as u64;
    for r in &mut series.rounds {
        r.wire_bytes = r.messages * per_msg;
    }
}

/// Per-message wire cost of a protocol as the registry would build it for
/// population `n`: `raw_bytes` is the paper-comparable in-memory payload
/// accounting ([`PushProtocol::message_bytes`]'s convention), and
/// `encoded_bytes` the actual wire codec's size (register planes for age
/// matrices, packed registers for PCSA; identical to raw for scalar
/// payloads).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireCost {
    /// Raw payload bytes.
    pub raw_bytes: usize,
    /// Encoded (wire-codec) bytes of a freshly-initialized node's message.
    pub encoded_bytes: usize,
}

/// Compute the [`WireCost`] of one gossip message without simulating —
/// the declarative path for bandwidth comparisons (the §IV-B cost
/// argument).
pub fn wire_cost(protocol: &ProtocolSpec, n: usize, seed: u64) -> WireCost {
    use ProtocolSpec as P;
    let scalar = |bytes: usize| WireCost { raw_bytes: bytes, encoded_bytes: bytes };
    match *protocol {
        P::PushSumRevert { .. } | P::AdaptiveRevert { .. } | P::FullTransfer { .. } => {
            scalar(MASS_WIRE_BYTES)
        }
        P::EpochPushSum { .. } => scalar(EPOCH_MSG_WIRE_BYTES),
        // TagTree's steady-state frame (the Partial variant): the engine
        // accounts 16 bytes of payload; the wire form adds a tag byte.
        P::TagTree { .. } => WireCost { raw_bytes: 16, encoded_bytes: 17 },
        P::CountSketch { multiplier, hash_seed_xor } => {
            let cfg = SketchConfig::paper(n as u64 * multiplier, seed ^ hash_seed_xor);
            let node = if multiplier == 1 {
                CountSketch::counting(cfg, 0)
            } else {
                CountSketch::summing(cfg, 0, multiplier)
            };
            WireCost {
                raw_bytes: node.sketch().wire_bytes(),
                encoded_bytes: codec::encode_pcsa(node.sketch()).len(),
            }
        }
        P::CountSketchReset { cutoff, push_pull, multiplier, hash_seed_xor } => {
            let cfg = ResetConfig::paper(n as u64 * multiplier, seed ^ hash_seed_xor)
                .with_cutoff(cutoff)
                .with_push_pull(push_pull);
            let node = CountSketchReset::with_multiplier(cfg, 0, multiplier);
            WireCost {
                raw_bytes: node.ages().wire_bytes(),
                encoded_bytes: codec::encoded_len_ages(node.ages()),
            }
        }
        P::InvertAverage { hash_seed_xor, .. } => {
            // One counting matrix (sized for hosts, not the sum range)
            // plus a 16-byte mass per sum.
            let cfg = ResetConfig::paper(n as u64, seed ^ hash_seed_xor);
            let node = CountSketchReset::counting(cfg, 0);
            WireCost {
                raw_bytes: node.ages().wire_bytes() + MASS_WIRE_BYTES,
                // `InvertMsg` on the wire: flag byte + mass + matrix.
                encoded_bytes: 1 + MASS_WIRE_BYTES + codec::encoded_len_ages(node.ages()),
            }
        }
    }
}

/// [`WireCost::encoded_bytes`] in the steady state instead of at boot: the
/// encoded size of the same message once gossip has converged — every one
/// of the `n` hosts' identifiers claimed into the protocol's geometry and
/// released. Only age matrices differ from the fresh price (a fresh one
/// holds the host's own cells, a converged one the ≈ `log2(n/m)` live
/// registers); PCSA and scalar payloads are content-independent.
///
/// Costs one hash per identifier (`n × multiplier`), which is why it is
/// not a [`WireCost`] field: `wire_cost` runs on every lockstep series.
pub fn converged_wire_bytes(protocol: &ProtocolSpec, n: usize, seed: u64) -> usize {
    use ProtocolSpec as P;
    let matrix = |sketch: SketchConfig, per_host: u64| {
        // The cells the hosts source between them are the bits of the
        // static sketch of the same identifiers (`claim_value` claims
        // the cell `insert_value` sets), and setting a bit is cheap.
        let hasher = SplitMix64::new(sketch.hash_seed);
        let mut bits = Pcsa::new(sketch.bins, sketch.width);
        for host in 0..n as u64 {
            insert_value(&mut bits, &hasher, host, per_host);
        }
        let mut ages = AgeMatrix::new(sketch.bins, sketch.width);
        for (bin, register) in bits.bins().iter().enumerate() {
            for k in (0..=sketch.width).filter(|&k| register.bit(k)) {
                ages.claim_cell(bin as u32, k);
            }
        }
        ages.release_all();
        codec::encoded_len_ages(&ages)
    };
    match *protocol {
        P::CountSketchReset { multiplier, hash_seed_xor, .. } => {
            matrix(SketchConfig::paper(n as u64 * multiplier, seed ^ hash_seed_xor), multiplier)
        }
        P::InvertAverage { hash_seed_xor, .. } => {
            1 + MASS_WIRE_BYTES + matrix(SketchConfig::paper(n as u64, seed ^ hash_seed_xor), 1)
        }
        _ => wire_cost(protocol, n, seed).encoded_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{AsyncSpec, ShardsSpec};
    use dynagg_sim::failure::FailureMode;
    use dynagg_sim::FailureSpec;
    use dynagg_sketch::cutoff::Cutoff;

    /// The one reader sees exactly the hosts the last series row counts
    /// alive, in ascending id order, whichever engine was assembled.
    #[test]
    fn the_reader_visits_the_last_rows_live_hosts_in_id_order() {
        let (n, rounds, seed) = (60usize, 8u64, 5u64);
        let mut spec = ScenarioSpec::new(
            "parity",
            seed,
            EnvSpec::Uniform,
            ProtocolSpec::PushSumRevert { lambda: 0.0 },
        );
        (spec.n, spec.rounds) = (Some(n), Some(rounds));
        spec.output.probe = Some(Probe::MassWeight); // any readout: the reader runs
        spec.failure = FailureSpec::AtRound {
            round: 3,
            mode: FailureMode::Random,
            fraction: 0.3,
            graceful: false,
        };
        let sharded = AsyncSpec { shards: Some(ShardsSpec::Count(2)), ..AsyncSpec::default() };
        for (engine, asynchrony) in [
            (Engine::Push, None),
            (Engine::Pairwise, None),
            (Engine::Async, None),
            (Engine::Async, Some(sharded)),
        ] {
            (spec.engine, spec.asynchrony) = (engine, asynchrony);
            spec.validate().unwrap();
            let t = Trial { spec: &spec, seed, n, rounds };
            let what = format!("{engine:?} {asynchrony:?}");

            // A host's reversion anchor keeps the value it booted with:
            // here, its id.
            let anchored = |id: NodeId, _| PushSumRevert::new(f64::from(id), 0.1);
            let mut ids = Vec::new();
            let read = &mut |node: &PushSumRevert| ids.push(node.initial().value);
            let series = match engine {
                Engine::Pairwise => t.pairwise(anchored, read),
                _ => t.corruptible(anchored, read),
            };
            assert_eq!(series.rounds.len() as u64, rounds, "{what}");
            assert_eq!(ids.len(), series.last().unwrap().alive, "{what}");
            assert_eq!(ids.len(), 42, "{what}: the failure struck");
            assert!(ids.windows(2).all(|w| w[0] < w[1]), "{what}: {ids:?}");

            if engine != Engine::Pairwise {
                let cfg = ResetConfig::paper(n as u64, seed);
                let mut visits = 0;
                let series = t.corruptible(
                    move |id, _| CountSketchReset::counting(cfg, u64::from(id)),
                    &mut |_| visits += 1,
                );
                assert_eq!(visits, series.last().unwrap().alive, "{what}");
            }
        }
    }

    /// The shortcut through the static sketch prices exactly the matrix
    /// real hosts converge to by merging.
    #[test]
    fn converged_price_is_the_merged_network_frame() {
        let (n, seed, multiplier) = (40usize, 9u64, 25u64);
        let protocol = ProtocolSpec::CountSketchReset {
            cutoff: Cutoff::paper_uniform(),
            push_pull: true,
            multiplier,
            hash_seed_xor: 0x5E7C,
        };
        let cfg = ResetConfig::paper(n as u64 * multiplier, seed ^ 0x5E7C);
        let mut network = CountSketchReset::with_multiplier(cfg, 0, multiplier);
        for host in 1..n as u64 {
            network.absorb(CountSketchReset::with_multiplier(cfg, host, multiplier).ages());
        }
        network.depart_gracefully();
        assert_eq!(
            converged_wire_bytes(&protocol, n, seed),
            codec::encoded_len_ages(network.ages())
        );
        let fresh = wire_cost(&protocol, n, seed).encoded_bytes;
        assert!(fresh < converged_wire_bytes(&protocol, n, seed), "one host's cells < everyone's");
        // Content-independent payloads price the same fresh and converged.
        let mass = ProtocolSpec::PushSumRevert { lambda: 0.1 };
        assert_eq!(converged_wire_bytes(&mass, n, seed), wire_cost(&mass, n, seed).encoded_bytes);
    }
}
