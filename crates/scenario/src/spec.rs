//! The scenario specification: a validated, declarative description of one
//! experiment — environment, protocol, population, failure plan, and
//! outputs — that the TOML front end parses and code can construct.

use crate::caps::{Frames, Payload, ProtocolCaps, PROTOCOLS};
use crate::error::ScenarioError;
use dynagg_core::adversary::Attack;
use dynagg_core::config::RevertConfig;
use dynagg_core::epoch::DriftModel;
use dynagg_sim::env::{MobilityEvent, MobilityKind};
use dynagg_sim::metrics::RoundStats;
use dynagg_sim::partition::{self, PartitionEvent, PartitionTable, TopologyInfo};
use dynagg_sim::{FailureSpec, Truth};
use dynagg_sketch::cutoff::Cutoff;
use dynagg_trace::datasets::Dataset;

/// Which simulation engine drives the protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// Message-passing gossip ([`dynagg_sim::runner::Simulation`]).
    #[default]
    Push,
    /// Atomic push/pull exchanges
    /// ([`dynagg_sim::runner::PairwiseSimulation`]), for the protocols
    /// whose row of [`crate::caps::PROTOCOLS`] has a pairwise form.
    Pairwise,
    /// Asynchronous discrete-event execution
    /// ([`dynagg_node::AsyncNet`]): no global rounds — every node owns a
    /// jittered, possibly drifting timer; frames travel over links with
    /// latency and loss; estimates are sampled at a wall-clock cadence.
    /// Configured by the `[async]` table ([`AsyncSpec`]). Runs every
    /// environment: peers come from the same membership/topology layer
    /// the lockstep engines sample from, with topology changes (clique
    /// mobility, trace replay) applied at nominal round boundaries.
    Async,
}

/// Give a file-facing enum its scenario-file names — `ALL`, `name` and
/// `from_name` — with each name written once.
macro_rules! file_names {
    ($ty:ident { $($variant:ident => $name:literal),+ $(,)? }) => {
        impl $ty {
            /// Every variant, in declaration order.
            pub const ALL: [$ty; [$($name),+].len()] = [$($ty::$variant),+];

            /// The name scenario files use.
            pub fn name(self) -> &'static str {
                match self {
                    $($ty::$variant => $name),+
                }
            }

            /// Resolve a name from a scenario file.
            pub fn from_name(name: &str) -> Option<Self> {
                Self::ALL.into_iter().find(|v| v.name() == name)
            }
        }
    };
}

file_names!(Engine { Push => "push", Pairwise => "pairwise", Async => "async" });

/// How the `wire_bytes` column is accounted (the top-level `wire` key).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WireAccounting {
    /// Price every message once per round from a fresh node's encoded
    /// size ([`crate::registry`]'s `wire_cost`): cheap, deterministic,
    /// but blind to how payloads grow as counters populate.
    #[default]
    Priced,
    /// Measure each message's actual encoded size (codec bytes + frame
    /// header) at emission time, via the version-stamped encode memo.
    /// For an engine whose frames are [`crate::caps::Frames::Metered`].
    Measured,
}

file_names!(WireAccounting { Priced => "priced", Measured => "measured" });

/// Per-link latency distribution for the async engine: the engine's own
/// [`dynagg_node::LatencyModel`] under the name scenario files use.
pub use dynagg_node::LatencyModel as LatencySpec;

/// How node clocks drift under the async engine (the per-node incarnation
/// of [`dynagg_core::epoch::DriftModel`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DriftSpec {
    /// All crystals run at the nominal rate.
    Synced,
    /// Constant-skew spread: node `i` of `n` runs at
    /// `1 + spread · (2i/(n−1) − 1)` ticks per interval, so crystals span
    /// `±spread` across the population (the skewed-clock workload).
    Skew {
        /// Half-width of the rate spread, in `[0, 1)`.
        spread: f64,
    },
}

impl DriftSpec {
    /// The concrete [`DriftModel`] of node `id` in a population of `n`.
    /// Ids are taken modulo `n`, so churn-joined nodes (whose ids grow
    /// past the initial population) land back inside the documented
    /// `±spread` span instead of extrapolating beyond it.
    pub fn model_for(self, id: u32, n: usize) -> DriftModel {
        match self {
            DriftSpec::Synced => DriftModel::Synced,
            DriftSpec::Skew { spread } => {
                let pos = (id as usize % n.max(1)) as f64;
                let centered = if n <= 1 { 0.0 } else { 2.0 * pos / (n as f64 - 1.0) - 1.0 };
                DriftModel::ConstantSkew { rate: 1.0 + spread * centered }
            }
        }
    }
}

/// The `shards` key of the `[async]` table: how many parallel shards the
/// asynchronous engine runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardsSpec {
    /// A fixed shard count. `1` (like an absent key) runs the sequential
    /// engine; `≥ 2` runs the sharded engine, whose results are
    /// bit-identical at *any* count `≥ 2`.
    Count(u64),
    /// `shards = "auto"`: size the shard pool from the machine's worker
    /// budget (`DYNAGG_THREADS` or the core count), clamped to `[2, n]`.
    /// Because the sharded engine is shard-count invariant, the digest
    /// stays machine-independent even though the count is not.
    Auto,
}

/// Why a `shards` request fell back to the sequential engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ShardFallback {
    /// The latency model has no positive lower bound, so the conservative
    /// window protocol has zero lookahead. `shards = "auto"` degrades to
    /// one shard with this note; an explicit count ≥ 2 is a validation
    /// error instead.
    ZeroLookahead {
        /// The offending latency model.
        latency: LatencySpec,
    },
}

impl std::fmt::Display for ShardFallback {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardFallback::ZeroLookahead { latency } => write!(
                f,
                "shards = \"auto\" fell back to the sequential engine: latency {latency:?} has \
                 no positive lower bound, so the conservative window protocol has zero lookahead"
            ),
        }
    }
}

/// The `[async]` table: asynchronous-engine timing configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AsyncSpec {
    /// Nominal milliseconds between a node's gossip rounds.
    pub interval_ms: u64,
    /// Per-node interval jitter as a fraction of `interval_ms`, in
    /// `[0, 1)` (drawn once per node).
    pub jitter: f64,
    /// Per-link latency distribution.
    pub latency: LatencySpec,
    /// Clock-drift assignment.
    pub drift: DriftSpec,
    /// Estimate-sampling cadence (defaults to `interval_ms`, producing
    /// one series row per nominal round, like the lockstep engines).
    pub sample_every_ms: Option<u64>,
    /// Shard count for parallel execution (absent = sequential).
    pub shards: Option<ShardsSpec>,
}

impl Default for AsyncSpec {
    /// 100 ms rounds, ±5 % jitter, 10 ms constant latency, synced clocks,
    /// one sample per nominal round, sequential execution.
    fn default() -> Self {
        Self {
            interval_ms: 100,
            jitter: 0.05,
            latency: LatencySpec::Constant { ms: 10 },
            drift: DriftSpec::Synced,
            sample_every_ms: None,
            shards: None,
        }
    }
}

/// Which gossip environment partners are sampled from (paper §V).
#[derive(Debug, Clone, PartialEq)]
pub enum EnvSpec {
    /// Full connectivity (the paper's 100 000-host setting).
    Uniform,
    /// Grid adjacency with `1/d²` random-walk long links.
    Spatial,
    /// §II-C's mostly isolated cliques.
    Clustered {
        /// Number of cliques.
        clusters: u32,
        /// Per-round per-host migration probability.
        migration: f64,
        /// Probability a sampled partner crosses cliques.
        bridge: f64,
        /// Scheduled topology events (bursts, merges, splits).
        events: Vec<MobilityEvent>,
    },
    /// Adjacency replayed from a synthetic Haggle-like contact trace
    /// (Fig. 11). Population and default horizon come from the dataset.
    Trace {
        /// Which bundled dataset.
        dataset: Dataset,
    },
}

/// How hosts' initial values are drawn.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum ValueSpec {
    /// Uniform in `[0, 100)` — "values are selected uniformly in the
    /// range [0, 100)" (§V).
    #[default]
    Paper,
    /// Every host holds the same value (counting experiments use 1.0).
    Constant(f64),
}

/// Per-clique clock divergence for the epoch protocol: host `id`'s clique
/// is `id % clusters` (matching [`EnvSpec::Clustered`]'s round-robin
/// assignment); clique `k` starts `k · round(magnitude · epoch_len)` ticks
/// in and its crystal runs at `1 + 0.2 · magnitude · centered(k)` ticks
/// per round. This is the epoch-disruption sweep's drift model, made
/// declarative.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CliqueDrift {
    /// Cliques the drift pattern spans (≥ 2).
    pub clusters: u32,
    /// Drift magnitude `d`: 0 = all clocks agree; 1 = neighboring cliques
    /// start a full epoch apart and crystals span ±20 %.
    pub magnitude: f64,
}

impl CliqueDrift {
    /// The clock rate of a host initially in clique `k`.
    pub fn rate_of(&self, clique: u32) -> f64 {
        let centered = 2.0 * f64::from(clique) / f64::from(self.clusters - 1) - 1.0;
        1.0 + 0.2 * self.magnitude * centered
    }

    /// The initial clock offset of a host in clique `k`.
    pub fn offset_of(&self, clique: u32, epoch_len: u64) -> u64 {
        let step = (self.magnitude * epoch_len as f64).round() as u64;
        u64::from(clique) * step
    }
}

/// The `[adversary]` table: install a Byzantine attack on part of the
/// population. The first `⌈fraction · n⌉` host ids run their protocol
/// through [`dynagg_core::adversary::Adversarial`], corrupting every
/// outgoing message once `from_round` passes; the rest stay honest.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdversarySpec {
    /// Which semantic corruption malicious hosts apply.
    pub attack: Attack,
    /// Fraction of the population that is malicious, in `(0, 1]`.
    pub fraction: f64,
    /// First round at which the attack is live (default 0).
    pub from_round: u64,
}

/// The topology facts symbolic partition islands resolve against, read
/// off an [`EnvSpec`] the way [`crate::registry`] will build it.
pub(crate) fn topology_info(env: &EnvSpec, n: usize) -> TopologyInfo {
    match env {
        EnvSpec::Clustered { clusters, .. } => {
            TopologyInfo { clusters: Some(*clusters), side: None }
        }
        // Matches `SpatialEnv::for_nodes`: a ⌈√n⌉-sided row-major grid.
        EnvSpec::Spatial => {
            TopologyInfo { clusters: None, side: Some(((n as f64).sqrt().ceil() as u32).max(1)) }
        }
        _ => TopologyInfo::default(),
    }
}

/// Which protocol every host runs, with its configuration. One variant per
/// protocol in `dynagg-core`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ProtocolSpec {
    /// Push-Sum-Revert (§III); `lambda = 0` is static Push-Sum (Fig. 1).
    PushSumRevert {
        /// Reversion constant λ ∈ [0, 1].
        lambda: f64,
    },
    /// Push-Sum-Revert + Full-Transfer (§III-A).
    FullTransfer {
        /// Reversion constant λ.
        lambda: f64,
        /// Parcel count N (paper: 4).
        parcels: u32,
        /// Estimate window T (paper: 3).
        window: usize,
    },
    /// Adaptive λ/2-per-message reversion (§III-A).
    AdaptiveRevert {
        /// Base reversion constant λ.
        lambda: f64,
    },
    /// Epoch-reset baseline with the §II-C restart/settling lifecycle.
    EpochPushSum {
        /// Rounds per epoch.
        epoch_len: u64,
        /// Settling-window override (default `max(1, epoch_len / 4)`).
        settle_len: Option<u64>,
        /// Per-clique constant-skew drift (the epoch-disruption model).
        clique_drift: Option<CliqueDrift>,
    },
    /// Static Sketch-Count (Fig. 2), counting hosts (× `multiplier`
    /// identifiers per host — `> 1` models the multi-insertion summation
    /// load of §IV-B, sizing the sketch for `n × multiplier`).
    CountSketch {
        /// Identifiers registered per host (default 1: plain counting).
        multiplier: u64,
        /// XORed into the master seed to derive the shared hash seed.
        hash_seed_xor: u64,
    },
    /// Count-Sketch-Reset (§IV-A), counting hosts (× `multiplier` ids).
    CountSketchReset {
        /// Bit-expiry cutoff.
        cutoff: Cutoff,
        /// Push-pull message exchange (paper default: on).
        push_pull: bool,
        /// Identifiers sourced per host (Fig. 11 §V-B uses 100).
        multiplier: u64,
        /// XORed into the master seed to derive the shared hash seed.
        hash_seed_xor: u64,
    },
    /// Invert-Average: sum = average × count (§IV-B).
    InvertAverage {
        /// Reversion constant λ for the averaging half.
        lambda: f64,
        /// XORed into the master seed for the counting half's hash seed.
        hash_seed_xor: u64,
    },
    /// TAG-style spanning-tree baseline (related work §VI); host 0 is the
    /// root.
    TagTree {
        /// Rounds a silent child's report survives.
        child_timeout: u64,
    },
}

impl ProtocolSpec {
    /// This protocol's row of the capability table.
    pub fn caps(&self) -> &'static ProtocolCaps {
        let variant = std::mem::discriminant(self);
        PROTOCOLS
            .iter()
            .find(|row| std::mem::discriminant(&row.example) == variant)
            .expect("every protocol has a row")
    }

    /// The registry name (what `[protocol] name = "…"` says).
    pub fn name(&self) -> &'static str {
        self.caps().name
    }

    /// The reversion constant, for protocols that have one.
    pub fn lambda_mut(&mut self) -> Option<&mut f64> {
        match self {
            ProtocolSpec::PushSumRevert { lambda }
            | ProtocolSpec::FullTransfer { lambda, .. }
            | ProtocolSpec::AdaptiveRevert { lambda }
            | ProtocolSpec::InvertAverage { lambda, .. } => Some(lambda),
            _ => None,
        }
    }
}

/// One per-round statistic a scenario can record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Live hosts.
    Alive,
    /// The correct value.
    Truth,
    /// Mean estimate over hosts with one.
    MeanEstimate,
    /// √(mean squared error) — the paper's y-axis.
    Stddev,
    /// Mean absolute error.
    MeanAbsErr,
    /// Max absolute error.
    MaxAbsErr,
    /// Hosts with a defined estimate.
    Defined,
    /// Messages sent.
    Messages,
    /// Payload bytes sent (raw in-memory accounting, engine-comparable).
    Bytes,
    /// Wire bytes sent (frame header + codec): measured frames under the
    /// async engine; under the lockstep engines, `registry::wire_cost`
    /// pricing by default or per-message measurement with
    /// `wire = "measured"` ([`WireAccounting::Measured`]).
    WireBytes,
    /// Mean experienced group size (trace runs).
    MeanGroupSize,
    /// Hosts inside a settling window.
    Settling,
    /// Cumulative disruptive restarts.
    Disruptions,
    /// Global mass-conservation drift: mean of every live host's audited
    /// Push-Sum mass minus the true mean. Exactly 0 under honest lockstep
    /// runs (§III conservation); jitters by ~one round's in-flight mass
    /// under the async engine; drifts without bound under a
    /// mass-inflation adversary. 0 for protocols that expose no mass.
    MassAudit,
    /// Network islands this round (1 when no partition is active).
    Islands,
}

// In CSV column order.
file_names!(Metric {
    Alive => "alive",
    Truth => "truth",
    MeanEstimate => "mean_estimate",
    Stddev => "stddev",
    MeanAbsErr => "mean_abs_err",
    MaxAbsErr => "max_abs_err",
    Defined => "defined",
    Messages => "messages",
    Bytes => "bytes",
    WireBytes => "wire_bytes",
    MeanGroupSize => "mean_group_size",
    Settling => "settling",
    Disruptions => "disruptions",
    MassAudit => "mass_audit",
    Islands => "islands",
});

impl Metric {
    /// Read this metric out of one round's statistics.
    pub fn read(self, s: &RoundStats) -> f64 {
        match self {
            Metric::Alive => s.alive as f64,
            Metric::Truth => s.truth,
            Metric::MeanEstimate => s.mean_estimate,
            Metric::Stddev => s.stddev,
            Metric::MeanAbsErr => s.mean_abs_err,
            Metric::MaxAbsErr => s.max_abs_err,
            Metric::Defined => s.defined as f64,
            Metric::Messages => s.messages as f64,
            Metric::Bytes => s.bytes as f64,
            Metric::WireBytes => s.wire_bytes as f64,
            Metric::MeanGroupSize => s.mean_group_size,
            Metric::Settling => s.settling as f64,
            Metric::Disruptions => s.disruptions as f64,
            Metric::MassAudit => s.mass_audit,
            Metric::Islands => s.islands as f64,
        }
    }
}

/// What a scenario run records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Report {
    /// The per-round metric series (the default).
    #[default]
    Series,
    /// Fig. 6's readout: the converged per-bit age-counter histograms
    /// (a protocol whose message is an age matrix).
    CounterCdf,
}

file_names!(Report { Series => "series", CounterCdf => "counter-cdf" });

/// A post-run node-state reading the series cannot express — the probe
/// hook that lets protocol-internal ablations run through the registry
/// instead of bypassing it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Probe {
    /// Total Push-Sum mass *weight* summed over live nodes after the last
    /// round (the loss ablation's numerical-collapse reading). Requires a
    /// mass-carrying averaging protocol.
    MassWeight,
}

file_names!(Probe { MassWeight => "mass-weight" });

/// Output selection: which metrics, and which report shape.
#[derive(Debug, Clone, PartialEq)]
pub struct OutputSpec {
    /// Per-round columns to emit (default: `stddev`).
    pub metrics: Vec<Metric>,
    /// Report shape.
    pub report: Report,
    /// Optional post-run node-state probe.
    pub probe: Option<Probe>,
}

impl Default for OutputSpec {
    fn default() -> Self {
        Self { metrics: vec![Metric::Stddev], report: Report::Series, probe: None }
    }
}

/// The parameter a sweep varies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepAxis {
    /// The protocol's reversion constant λ.
    Lambda,
    /// The population size.
    N,
}

file_names!(SweepAxis { Lambda => "lambda", N => "n" });

/// A one-axis parameter sweep: the scenario is instantiated once per
/// value, instances run as parallel trials (Figs. 6, 8, 10 are sweeps).
#[derive(Debug, Clone, PartialEq)]
pub struct Sweep {
    /// Which parameter varies.
    pub axis: SweepAxis,
    /// The values it takes (populations are given as integers).
    pub values: Vec<f64>,
}

/// A complete, declarative experiment description.
///
/// Construct programmatically with [`ScenarioSpec::new`] + struct update,
/// or from a TOML file via [`ScenarioSpec::from_toml_str`]. Run with
/// [`crate::run`] (full outcome) or [`crate::run_series`] (single series).
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Scenario id (table ids and CSV filenames derive from it).
    pub name: String,
    /// Free-form description.
    pub description: String,
    /// Master seed; every run is a pure function of it.
    pub seed: u64,
    /// Population. Required except for trace environments, which derive
    /// it from the dataset (and reject an explicit `n`).
    pub n: Option<usize>,
    /// Rounds to simulate. Required except for trace environments, which
    /// default to the full trace horizon.
    pub rounds: Option<u64>,
    /// Independent trials (per-trial seeds derived as in
    /// [`dynagg_sim::par::trial_seed`]). Default 1.
    pub trials: u64,
    /// Engine flavour.
    pub engine: Engine,
    /// How `wire_bytes` is accounted (priced estimate vs. per-message
    /// measurement). Default [`WireAccounting::Priced`].
    pub wire: WireAccounting,
    /// Asynchronous-engine timing (the `[async]` table). Only meaningful
    /// — and only accepted — with [`Engine::Async`]; `None` under the
    /// async engine means [`AsyncSpec::default`].
    pub asynchrony: Option<AsyncSpec>,
    /// Gossip environment.
    pub env: EnvSpec,
    /// Initial host values.
    pub values: ValueSpec,
    /// Protocol and its configuration.
    pub protocol: ProtocolSpec,
    /// What estimates are measured against.
    pub truth: Truth,
    /// Failure plan.
    pub failure: FailureSpec,
    /// Independent per-message loss probability.
    pub loss: f64,
    /// Scheduled network partitions (the `[[partition]]` tables): at
    /// `at_round` the population splits into islands no traffic crosses;
    /// at `heal_at` it re-merges. Resolved against the population and
    /// topology by [`dynagg_sim::partition::resolve`].
    pub partitions: Vec<PartitionEvent>,
    /// Byzantine adversary installation (the `[adversary]` table).
    pub adversary: Option<AdversarySpec>,
    /// Output selection.
    pub output: OutputSpec,
    /// Optional parameter sweep.
    pub sweep: Option<Sweep>,
}

/// Largest per-host size a protocol key may ask for (full-transfer
/// `parcels` and `window`). Each is allocated on every host, and
/// `parcels` is paid again on every message: the paper's values stay
/// under 100 and 65 536 already means megabyte states, while the keys'
/// own types reach 2³² and beyond, where [`crate::run`] dies in the
/// allocator instead of returning an error.
const MAX_PER_HOST: u64 = 1 << 16;

/// Largest `n × multiplier` a counting sketch may be sized for. Every
/// identifier is hashed once at boot (`multiplier` of them per host), so
/// 2³² is already minutes of start-up; and the product must not wrap the
/// `u64` the sketch geometry is computed from.
const MAX_IDENTIFIERS: u64 = 1 << 32;

fn invalid(key: &str, reason: impl Into<String>) -> ScenarioError {
    ScenarioError::Invalid { key: key.into(), reason: reason.into() }
}

fn unsupported(reason: impl Into<String>) -> ScenarioError {
    ScenarioError::Unsupported { reason: reason.into() }
}

fn positive(key: &str, v: u64) -> Result<(), ScenarioError> {
    if v == 0 {
        return Err(invalid(key, "must be at least 1"));
    }
    Ok(())
}

fn per_host(key: &str, v: u64) -> Result<(), ScenarioError> {
    positive(key, v)?;
    if v > MAX_PER_HOST {
        return Err(invalid(key, format!("{v} is more than the {MAX_PER_HOST} a host may hold")));
    }
    Ok(())
}

/// `p` in `[0, 1]` (which NaN is not).
fn probability(key: &str, p: f64) -> Result<(), ScenarioError> {
    if !(0.0..=1.0).contains(&p) {
        return Err(invalid(key, format!("probability {p} outside [0, 1]")));
    }
    Ok(())
}

/// `f` in `(0, 1]`.
fn fraction(key: &str, f: f64) -> Result<(), ScenarioError> {
    if !(f > 0.0 && f <= 1.0) {
        return Err(invalid(key, format!("fraction {f} outside (0, 1]")));
    }
    Ok(())
}

impl ScenarioSpec {
    /// A spec with the given essentials and default everything else
    /// (push engine, paper values, mean truth, no failure, no loss, one
    /// trial, stddev series output, no sweep).
    pub fn new(name: impl Into<String>, seed: u64, env: EnvSpec, protocol: ProtocolSpec) -> Self {
        Self {
            name: name.into(),
            description: String::new(),
            seed,
            n: None,
            rounds: None,
            trials: 1,
            engine: Engine::Push,
            wire: WireAccounting::default(),
            asynchrony: None,
            env,
            values: ValueSpec::Paper,
            protocol,
            truth: Truth::Mean,
            failure: FailureSpec::None,
            loss: 0.0,
            partitions: Vec::new(),
            adversary: None,
            output: OutputSpec::default(),
            sweep: None,
        }
    }

    /// Check every cross-field constraint. [`crate::run`] validates
    /// automatically; the CLI calls this up front so `--check` runs
    /// nothing.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        if self.name.is_empty() {
            return Err(invalid("name", "must be non-empty"));
        }
        positive("trials", self.trials)?;
        probability("loss", self.loss)?;

        let is_trace = matches!(self.env, EnvSpec::Trace { .. });
        match (is_trace, self.n) {
            (false, None) => return Err(ScenarioError::Missing { table: "", key: "n" }),
            (false, Some(0)) => return Err(invalid("n", "population must be positive")),
            (true, Some(_)) => {
                return Err(unsupported(
                    "trace environments derive `n` from the dataset; drop the `n` key",
                ))
            }
            _ => {}
        }
        match (is_trace, self.rounds) {
            (false, None) => return Err(ScenarioError::Missing { table: "", key: "rounds" }),
            (_, Some(0)) => return Err(invalid("rounds", "must be positive")),
            _ => {}
        }

        self.validate_env()?;
        self.validate_protocol()?;
        self.validate_failure()?;
        self.validate_async()?;
        self.validate_partitions()?;
        self.validate_adversary()?;
        self.validate_requirements()?;

        if self.truth.needs_groups() && !is_trace {
            return Err(unsupported(format!(
                "truth `{:?}` needs per-group structure; only trace environments provide it",
                self.truth
            )));
        }
        if self.output.report == Report::CounterCdf && self.trials != 1 {
            return Err(unsupported(format!(
                "report = \"{}\" supports a single trial",
                Report::CounterCdf.name()
            )));
        }
        if self.output.metrics.is_empty() {
            return Err(invalid("output.metrics", "select at least one metric"));
        }

        if let Some(sweep) = &self.sweep {
            if sweep.values.is_empty() {
                return Err(invalid("sweep.values", "must be non-empty"));
            }
            if sweep.axis == SweepAxis::N {
                if is_trace {
                    return Err(unsupported(
                        "sweep axis `n` cannot apply to a trace environment (population comes \
                         from the dataset)",
                    ));
                }
                for &v in &sweep.values {
                    if v < 1.0 || v.fract() != 0.0 {
                        return Err(invalid(
                            "sweep.values",
                            format!("population {v} is not a positive integer"),
                        ));
                    }
                }
            }
            // A sweep is valid when each of its instances is: a swept value
            // can leave a range, or break what a population bounds.
            for (_, instance) in self.instances() {
                instance.validate()?;
            }
        }
        Ok(())
    }

    /// The cross-field rules that are questions to the capability table
    /// ([`crate::caps`]): what a spec can ask for, and the row fact that
    /// grants it.
    fn validate_requirements(&self) -> Result<(), ScenarioError> {
        use Payload::{AgeMatrix, EpochMass, Mass, SketchBits};
        let (row, engine) = (self.protocol.caps(), self.engine.caps());
        let carries = |any: &[Payload]| any.contains(&row.payload);
        let (attack, forgeable, forges) = match self.adversary.map(|adv| adv.attack) {
            None => ("", true, ""),
            Some(Attack::MassInflation { .. }) => {
                ("mass-inflation", carries(&[Mass, EpochMass]), "a message carrying Push-Sum mass")
            }
            Some(Attack::StaleEpochReplay) => {
                ("stale-epoch-replay", carries(&[EpochMass]), "a message carrying an epoch stamp")
            }
            Some(Attack::SketchCorruption { .. }) => (
                "sketch-corruption",
                carries(&[SketchBits, AgeMatrix]),
                "a message carrying sketch bits or an age matrix",
            ),
        };
        let (report, probe) = (self.output.report, self.output.probe);
        let lambda_swept = self.sweep.as_ref().is_some_and(|s| s.axis == SweepAxis::Lambda);
        // (the spec asks, the table grants, the key that asks, its value, what it needs)
        #[rustfmt::skip]
        let requirements = [
            (self.engine == Engine::Pairwise,       row.pairwise,                     "engine",      self.engine.name(),         "a protocol with an atomic push/pull exchange"),
            (lambda_swept,                          row.has_lambda(),                 "sweep axis",  SweepAxis::Lambda.name(),   "a protocol with a reversion constant"),
            (report == Report::CounterCdf,          carries(&[AgeMatrix]),            "report",      report.name(),              "a message carrying an age matrix"),
            (probe == Some(Probe::MassWeight),      carries(&[Mass]),                 "probe",       Probe::MassWeight.name(),   "a message carrying bare Push-Sum mass"),
            (self.adversary.is_some(),              forgeable,                        "attack",      attack,                     forges),
            (self.wire == WireAccounting::Measured, engine.frames == Frames::Metered, "wire",        self.wire.name(),           "an engine that prices messages unless asked to meter them"),
            (self.adversary.is_some(),              engine.messages,                  "[adversary]", attack,                     "a message-passing engine"),
            (self.asynchrony.is_some(),             engine.reads_async,               "[async]",     "present",                  "the asynchronous engine (switch to it or drop the table)"),
        ];
        for (asked, granted, key, value, needs) in requirements {
            if asked && !granted {
                return Err(unsupported(format!(
                    "`{key}` ({value}) needs {needs}; protocol `{}` on engine = \"{}\" does not \
                     qualify (docs/scenario-guide.md shows the capability table)",
                    row.name,
                    self.engine.name()
                )));
            }
        }
        Ok(())
    }

    fn validate_env(&self) -> Result<(), ScenarioError> {
        let EnvSpec::Clustered { clusters, migration, bridge, events } = &self.env else {
            return Ok(());
        };
        if *clusters == 0 {
            return Err(invalid("env.clusters", "need at least one clique"));
        }
        probability("env.migration", *migration)?;
        probability("env.bridge", *bridge)?;
        for e in events {
            match e.kind {
                MobilityKind::Burst { fraction } => probability("env.events", fraction)?,
                MobilityKind::Merge { from, into } | MobilityKind::Split { from, into } => {
                    if from >= *clusters || into >= *clusters {
                        return Err(invalid(
                            "env.events",
                            format!(
                                "event names clique {} but there are only {clusters}",
                                from.max(into)
                            ),
                        ));
                    }
                    if from == into {
                        return Err(invalid(
                            "env.events",
                            "merge/split needs two distinct cliques",
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    fn validate_protocol(&self) -> Result<(), ScenarioError> {
        let mut protocol = self.protocol;
        if let Some(&mut lambda) = protocol.lambda_mut() {
            RevertConfig::new(lambda).map_err(|_| {
                invalid("protocol.lambda", format!("lambda {lambda} outside [0, 1]"))
            })?;
        }
        // A counting sketch is sized for, and hashes at boot, one
        // identifier per host × `multiplier`.
        let identifiers = |multiplier: u64| {
            let n = self.n.unwrap_or_else(|| crate::registry::resolve_shape(self).0);
            match (n as u64).checked_mul(multiplier) {
                Some(ids) if ids <= MAX_IDENTIFIERS => Ok(()),
                _ => Err(invalid(
                    "protocol.multiplier",
                    format!("{n} hosts × {multiplier} is more than {MAX_IDENTIFIERS} identifiers"),
                )),
            }
        };
        match self.protocol {
            ProtocolSpec::FullTransfer { parcels, window, .. } => {
                per_host("protocol.parcels", u64::from(parcels))?;
                per_host("protocol.window", window as u64)
            }
            ProtocolSpec::EpochPushSum { epoch_len, clique_drift, .. } => {
                positive("protocol.epoch_len", epoch_len)?;
                let Some(cd) = clique_drift else { return Ok(()) };
                if cd.clusters < 2 {
                    return Err(invalid(
                        "protocol.clique_drift",
                        "needs at least 2 cliques to diverge",
                    ));
                }
                if !cd.magnitude.is_finite() || cd.magnitude < 0.0 {
                    return Err(invalid(
                        "protocol.clique_drift",
                        format!("magnitude {} must be finite and >= 0", cd.magnitude),
                    ));
                }
                // Drift cliques are defined as the clustered env's
                // round-robin cliques; a mismatch would silently change
                // what the drift pattern means.
                match &self.env {
                    EnvSpec::Clustered { clusters, .. } if *clusters == cd.clusters => Ok(()),
                    EnvSpec::Clustered { clusters, .. } => Err(invalid(
                        "protocol.clique_drift.clusters",
                        format!("must match env.clusters ({clusters}), got {}", cd.clusters),
                    )),
                    _ => Err(unsupported(
                        "clique_drift assigns clocks by the clustered environment's cliques; \
                         use kind = \"clustered\"",
                    )),
                }
            }
            ProtocolSpec::CountSketch { multiplier, .. } => identifiers(multiplier),
            ProtocolSpec::CountSketchReset { multiplier, .. } => {
                positive("protocol.multiplier", multiplier)?;
                identifiers(multiplier)
            }
            ProtocolSpec::TagTree { child_timeout } => {
                positive("protocol.child_timeout", child_timeout)
            }
            _ => Ok(()),
        }
    }

    fn validate_async(&self) -> Result<(), ScenarioError> {
        // An `[async]` table a lockstep engine would ignore is rejected by
        // `validate_requirements`, whatever its values.
        if !self.engine.caps().reads_async {
            return Ok(());
        }
        let a = self.asynchrony.unwrap_or_default();
        positive("async.interval_ms", a.interval_ms)?;
        // Both async drains keep time in `u64` milliseconds and compute the
        // horizon as `rounds × interval_ms` unchecked.
        let rounds = self.rounds.unwrap_or_else(|| crate::registry::resolve_shape(self).1);
        if rounds.checked_mul(a.interval_ms).is_none() {
            return Err(invalid(
                "async.interval_ms",
                format!("{rounds} rounds of it overflow the engine's 64-bit millisecond clock"),
            ));
        }
        if !(0.0..1.0).contains(&a.jitter) {
            return Err(invalid("async.jitter", format!("fraction {} outside [0, 1)", a.jitter)));
        }
        match a.latency {
            LatencySpec::Constant { .. } => {}
            LatencySpec::Uniform { lo_ms, hi_ms } => {
                if lo_ms > hi_ms {
                    return Err(invalid(
                        "async.latency",
                        format!("uniform range [{lo_ms}, {hi_ms}] is inverted"),
                    ));
                }
            }
            LatencySpec::Exponential { mean_ms } => {
                if !mean_ms.is_finite() || mean_ms < 0.0 {
                    return Err(invalid(
                        "async.latency",
                        format!("mean {mean_ms} must be finite and >= 0"),
                    ));
                }
            }
        }
        if let DriftSpec::Skew { spread } = a.drift {
            if !(0.0..1.0).contains(&spread) {
                return Err(invalid(
                    "async.drift.spread",
                    format!("spread {spread} outside [0, 1) (rates must stay positive)"),
                ));
            }
        }
        positive("async.sample_every_ms", a.sample_every_ms.unwrap_or(1))?;
        match a.shards {
            None | Some(ShardsSpec::Auto) => {}
            Some(ShardsSpec::Count(0)) => {
                return Err(invalid(
                    "async.shards",
                    "need at least one shard (1 = sequential, \"auto\" = size from the machine)",
                ));
            }
            Some(ShardsSpec::Count(s)) => {
                if let Some(n) = self.n {
                    if s as usize > n {
                        return Err(invalid(
                            "async.shards",
                            format!("{s} shards exceed the population of {n} hosts"),
                        ));
                    }
                }
                if s >= 2 && a.latency.min_ms() == 0 {
                    return Err(invalid(
                        "async.shards",
                        format!(
                            "latency {:?} has no positive lower bound, so the sharded engine's \
                             conservative window protocol has zero lookahead; use a latency with \
                             a positive minimum, shards = 1, or shards = \"auto\" (which falls \
                             back to the sequential engine)",
                            a.latency
                        ),
                    ));
                }
            }
        }
        Ok(())
    }

    /// Resolve the `[async] shards` request against a population of `n`
    /// hosts: the shard count to run with, plus a note when the request
    /// degraded to the sequential engine. `1` means sequential; `≥ 2`
    /// means the sharded engine. Assumes the spec already validated.
    pub fn effective_shards(&self, n: usize) -> (usize, Option<ShardFallback>) {
        if self.engine != Engine::Async {
            return (1, None);
        }
        let a = self.asynchrony.unwrap_or_default();
        match a.shards {
            None => (1, None),
            Some(ShardsSpec::Count(s)) => {
                let s = (s as usize).min(n.max(1));
                if s >= 2 && a.latency.min_ms() == 0 {
                    // Unreachable after validate(); kept as a belt for
                    // programmatic specs that skip it.
                    (1, Some(ShardFallback::ZeroLookahead { latency: a.latency }))
                } else {
                    (s.max(1), None)
                }
            }
            Some(ShardsSpec::Auto) => {
                if a.latency.min_ms() == 0 {
                    return (1, Some(ShardFallback::ZeroLookahead { latency: a.latency }));
                }
                // Clamp to ≥ 2 so the digest never depends on the machine:
                // every count ≥ 2 is the same bit-identical family, whereas
                // 1 would select the (statistically different) sequential
                // engine on single-core hosts only.
                let k = dynagg_sim::par::effective_threads().max(2).min(n.max(1));
                (k.max(1), None)
            }
        }
    }

    fn validate_partitions(&self) -> Result<(), ScenarioError> {
        if self.partitions.is_empty() {
            return Ok(());
        }
        if matches!(self.env, EnvSpec::Trace { .. }) {
            return Err(unsupported(
                "partition islands resolve against a fixed synthetic population; trace \
                 environments derive theirs from the dataset — use kind = \"uniform\", \
                 \"spatial\", or \"clustered\"",
            ));
        }
        if let Some(sweep) = &self.sweep {
            if sweep.axis == SweepAxis::N {
                return Err(unsupported(
                    "a population sweep changes what the island definitions cover; fix `n` or \
                     drop the [[partition]] tables",
                ));
            }
        }
        if let FailureSpec::Churn { join_per_round, .. } = self.failure {
            if join_per_round > 0.0 {
                return Err(unsupported(
                    "churn-joined hosts have no island assignment; use leave-only churn or \
                     at-round failures alongside [[partition]] tables",
                ));
            }
        }
        let n = self.n.expect("validated above: non-trace specs have n");
        let topo = topology_info(&self.env, n);
        let mut resolved = Vec::with_capacity(self.partitions.len());
        for (i, event) in self.partitions.iter().enumerate() {
            resolved.push(
                partition::resolve(event, n, &topo)
                    .map_err(|reason| invalid(&format!("partition[{i}]"), reason))?,
            );
        }
        PartitionTable::new(resolved).map(|_| ()).map_err(|reason| invalid("partition", reason))
    }

    /// The `[adversary]` table's own ranges; whether the attack has a
    /// payload to forge and the engine a message step to wrap is
    /// `validate_requirements`' business.
    fn validate_adversary(&self) -> Result<(), ScenarioError> {
        let Some(adv) = self.adversary else { return Ok(()) };
        fraction("adversary.fraction", adv.fraction)?;
        match adv.attack {
            Attack::MassInflation { factor } if !factor.is_finite() || factor < 0.0 => {
                Err(invalid("adversary.factor", format!("factor {factor} must be finite and >= 0")))
            }
            Attack::SketchCorruption { cells } => positive("adversary.cells", u64::from(cells)),
            _ => Ok(()),
        }
    }

    fn validate_failure(&self) -> Result<(), ScenarioError> {
        match self.failure {
            FailureSpec::None => Ok(()),
            FailureSpec::AtRound { fraction: f, .. } => fraction("failure.fraction", f),
            FailureSpec::Churn { leave_per_round, join_per_round, .. } => {
                probability("failure.leave_per_round", leave_per_round)?;
                probability("failure.join_per_round", join_per_round)
            }
        }
    }

    /// Expand the sweep into concrete single-run specs, labeled
    /// `axis=value`. A sweepless spec yields itself, unlabeled. The spec
    /// must already validate.
    pub fn instances(&self) -> Vec<(Option<String>, ScenarioSpec)> {
        let Some(sweep) = &self.sweep else {
            let mut single = self.clone();
            single.sweep = None;
            return vec![(None, single)];
        };
        sweep
            .values
            .iter()
            .map(|&v| {
                let mut inst = self.clone();
                inst.sweep = None;
                match sweep.axis {
                    SweepAxis::Lambda => {
                        *inst.protocol.lambda_mut().expect("validated: protocol has lambda") = v;
                    }
                    SweepAxis::N => inst.n = Some(v as usize),
                }
                let label = match sweep.axis {
                    SweepAxis::Lambda => format!("lambda={v}"),
                    SweepAxis::N => format!("n={}", v as usize),
                };
                (Some(label), inst)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> ScenarioSpec {
        let mut s = ScenarioSpec::new(
            "t",
            1,
            EnvSpec::Uniform,
            ProtocolSpec::PushSumRevert { lambda: 0.01 },
        );
        s.n = Some(100);
        s.rounds = Some(5);
        s
    }

    #[test]
    fn base_spec_validates() {
        base().validate().unwrap();
    }

    #[test]
    fn missing_n_and_rounds_rejected() {
        let mut s = base();
        s.n = None;
        assert_eq!(s.validate(), Err(ScenarioError::Missing { table: "", key: "n" }));
        let mut s = base();
        s.rounds = None;
        assert_eq!(s.validate(), Err(ScenarioError::Missing { table: "", key: "rounds" }));
    }

    #[test]
    fn trace_env_rejects_explicit_n() {
        let mut s = base();
        s.env = EnvSpec::Trace { dataset: Dataset::One };
        assert!(matches!(s.validate(), Err(ScenarioError::Unsupported { .. })));
        s.n = None;
        s.validate().unwrap(); // rounds defaults to the trace horizon
    }

    #[test]
    fn lambda_range_enforced() {
        let mut s = base();
        s.protocol = ProtocolSpec::PushSumRevert { lambda: 1.5 };
        assert!(matches!(s.validate(), Err(ScenarioError::Invalid { .. })));
    }

    #[test]
    fn pairwise_needs_support() {
        let mut s = base();
        s.engine = Engine::Pairwise;
        s.validate().unwrap();
        s.protocol = ProtocolSpec::TagTree { child_timeout: 3 };
        assert!(matches!(s.validate(), Err(ScenarioError::Unsupported { .. })));
    }

    #[test]
    fn group_truth_needs_trace() {
        let mut s = base();
        s.truth = Truth::GroupMean;
        assert!(matches!(s.validate(), Err(ScenarioError::Unsupported { .. })));
    }

    #[test]
    fn sweep_instances_apply_axis() {
        let mut s = base();
        s.sweep = Some(Sweep { axis: SweepAxis::Lambda, values: vec![0.0, 0.5] });
        s.validate().unwrap();
        let inst = s.instances();
        assert_eq!(inst.len(), 2);
        assert_eq!(inst[0].0.as_deref(), Some("lambda=0"));
        assert_eq!(inst[1].1.protocol, ProtocolSpec::PushSumRevert { lambda: 0.5 });
        assert!(inst.iter().all(|(_, s)| s.sweep.is_none()));
    }

    #[test]
    fn lambda_sweep_needs_lambda_protocol() {
        let mut s = base();
        s.protocol =
            ProtocolSpec::EpochPushSum { epoch_len: 20, settle_len: None, clique_drift: None };
        s.sweep = Some(Sweep { axis: SweepAxis::Lambda, values: vec![0.1] });
        assert!(matches!(s.validate(), Err(ScenarioError::Unsupported { .. })));
    }

    #[test]
    fn counter_cdf_constraints() {
        let mut s = base();
        s.output.report = Report::CounterCdf;
        assert!(matches!(s.validate(), Err(ScenarioError::Unsupported { .. })));
        s.protocol = ProtocolSpec::CountSketchReset {
            cutoff: Cutoff::paper_uniform(),
            push_pull: true,
            multiplier: 1,
            hash_seed_xor: 0,
        };
        s.validate().unwrap();
    }

    #[test]
    fn clustered_event_bounds_checked() {
        let mut s = base();
        s.env = EnvSpec::Clustered {
            clusters: 2,
            migration: 0.0,
            bridge: 0.0,
            events: vec![MobilityEvent {
                round: 0,
                kind: MobilityKind::Merge { from: 0, into: 5 },
            }],
        };
        assert!(matches!(s.validate(), Err(ScenarioError::Invalid { .. })));
    }
}
