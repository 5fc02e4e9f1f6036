//! The simulation engines.
//!
//! [`Simulation`] drives message-passing ([`PushProtocol`]) gossip:
//! per round it applies the failure plan, lets every live host emit
//! messages, delivers them in a shuffled order (replies included), and
//! finalizes. [`PairwiseSimulation`] drives atomic push/pull exchanges
//! ([`PairwiseProtocol`]) the way Figs. 8 and 10 describe: "all hosts
//! performed a push/pull exchange with one randomly selected peer".
//!
//! Both engines are fully deterministic functions of the builder's master
//! seed, and both produce a [`Series`] of per-round error statistics
//! against the configured [`Truth`].
//!
//! ## Hot-path discipline
//!
//! The paper's sweeps run hundreds of (protocol × environment × failure ×
//! trial) configurations, so the per-round path is kept allocation-free in
//! steady state: the message queue, emission buffer, victim list, and the
//! metrics' estimate/truth buffers are all owned by the engine and reused
//! across rounds. The protocol factory is
//! a generic parameter (not a boxed closure), so node construction during
//! churn stays devirtualized. Per-trial parallelism lives in
//! [`crate::par`]; one engine is strictly single-threaded.

use crate::alive::AliveSet;
use crate::env::{EnvSampler, Environment};
use crate::failure::{FailurePlan, FailureSpec};
use crate::metrics::{sample_round, Series, Truth};
use crate::partition::PartitionTable;
use crate::rng::{rng_for, stream};
use dynagg_core::protocol::{Estimator, NodeId, PairwiseProtocol, PushProtocol, RoundCtx};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::Rng;

/// Closure type generating a node's initial value.
pub type ValueGen = Box<dyn FnMut(&mut SmallRng, NodeId) -> f64>;
/// Boxed protocol-factory type (the builder itself is generic over the
/// factory; this alias remains for code that wants to name a fully
/// type-erased builder).
pub type Factory<P> = Box<dyn FnMut(NodeId, f64) -> P>;

/// Start building a simulation from a master seed. The protocol type is
/// fixed later by [`Builder::protocol`], and the engine flavour by
/// [`TypedBuilder::build`] (message passing) or
/// [`TypedBuilder::build_pairwise`] (atomic push/pull).
pub fn builder(seed: u64) -> Builder {
    Builder { seed, env: None, n: 0, value_gen: None }
}

/// Stage-one builder: everything except the protocol type.
pub struct Builder {
    seed: u64,
    env: Option<Box<dyn Environment>>,
    n: usize,
    value_gen: Option<ValueGen>,
}

impl Builder {
    /// Same as the free [`builder`] function.
    pub fn new(seed: u64) -> Self {
        builder(seed)
    }

    /// Choose the gossip environment.
    pub fn environment<E: Environment + 'static>(mut self, env: E) -> Self {
        self.env = Some(Box::new(env));
        self
    }

    /// Choose an already-boxed gossip environment. Registry-style callers
    /// (the scenario engine) pick the environment at runtime from a spec;
    /// this avoids double-boxing what [`Builder::environment`] would box
    /// again.
    pub fn environment_boxed(mut self, env: Box<dyn Environment>) -> Self {
        self.env = Some(env);
        self
    }

    /// `n` hosts with values drawn by `gen` (called once per host with the
    /// dedicated value RNG stream).
    pub fn nodes_with_values<F>(mut self, n: usize, gen: F) -> Self
    where
        F: FnMut(&mut SmallRng, NodeId) -> f64 + 'static,
    {
        self.n = n;
        self.value_gen = Some(Box::new(gen));
        self
    }

    /// `n` hosts all holding the same value.
    pub fn nodes_with_constant(self, n: usize, value: f64) -> Self {
        self.nodes_with_values(n, move |_, _| value)
    }

    /// `n` hosts with the paper's default values: uniform in `[0, 100)`
    /// ("when hosts are required to have values, the values are selected
    /// uniformly in the range [0, 100)", §V).
    pub fn nodes_with_paper_values(self, n: usize) -> Self {
        self.nodes_with_values(n, |rng, _| rng.gen_range(0.0..100.0))
    }

    /// Choose the protocol via a per-node factory. The factory type stays
    /// generic all the way into the engine, so churn-time node
    /// construction involves no virtual dispatch.
    pub fn protocol<P, F>(self, factory: F) -> TypedBuilder<P, F>
    where
        F: FnMut(NodeId, f64) -> P,
    {
        TypedBuilder {
            seed: self.seed,
            env: self.env,
            n: self.n,
            value_gen: self.value_gen,
            factory,
            truth: Truth::Mean,
            failure: FailureSpec::None,
            loss: 0.0,
            partition: PartitionTable::empty(),
            _protocol: std::marker::PhantomData,
        }
    }
}

/// Stage-two builder, parameterized by protocol type and factory.
pub struct TypedBuilder<P, F> {
    seed: u64,
    env: Option<Box<dyn Environment>>,
    n: usize,
    value_gen: Option<ValueGen>,
    factory: F,
    truth: Truth,
    failure: FailureSpec,
    loss: f64,
    partition: PartitionTable,
    _protocol: std::marker::PhantomData<fn() -> P>,
}

impl<P, F: FnMut(NodeId, f64) -> P> TypedBuilder<P, F> {
    /// What estimates are compared against (default: [`Truth::Mean`]).
    pub fn truth(mut self, truth: Truth) -> Self {
        self.truth = truth;
        self
    }

    /// The failure plan (default: none).
    pub fn failure(mut self, failure: FailureSpec) -> Self {
        self.failure = failure;
        self
    }

    /// Independent per-message loss probability (default 0). Wireless
    /// links drop frames; a lost Push-Sum message destroys mass in flight,
    /// a lost sketch message merely delays convergence. The `loss` ablation
    /// quantifies both. Lost messages still count as *sent* in the
    /// bandwidth accounting. In pairwise mode, the whole exchange is lost
    /// with this probability.
    pub fn message_loss(mut self, loss: f64) -> Self {
        assert!((0.0..=1.0).contains(&loss), "loss probability must be in [0, 1]");
        self.loss = loss;
        self
    }

    /// The partition schedule (default: never partitioned). While a
    /// partition is active, a host whose sampled gossip partner is on
    /// another island skips the exchange entirely — its mass stays home,
    /// so §III conservation holds exactly through the split — and any
    /// message a protocol addresses across the cut is dropped in flight
    /// (still billed as sent, like radio loss).
    pub fn partition(mut self, partition: PartitionTable) -> Self {
        self.partition = partition;
        self
    }

    fn into_parts(self) -> SimCore<P, F> {
        let env = self.env.expect("environment must be configured");
        let mut value_gen = self.value_gen.expect("nodes must be configured");
        let mut factory = self.factory;
        let mut value_rng = rng_for(self.seed, stream::VALUES);
        let mut nodes = Vec::with_capacity(self.n);
        let mut values = Vec::with_capacity(self.n);
        for id in 0..self.n as NodeId {
            let v = value_gen(&mut value_rng, id);
            values.push(Some(v));
            nodes.push(Some(factory(id, v)));
        }
        SimCore {
            nodes,
            values,
            alive: AliveSet::full(self.n),
            env,
            truth: self.truth,
            failure: FailurePlan::new(self.failure, self.seed, self.n),
            round: 0,
            engine_rng: rng_for(self.seed, stream::ENGINE),
            value_rng,
            value_gen,
            factory,
            loss: self.loss,
            partition: self.partition,
            series: Series::default(),
            victims: Vec::new(),
            truth_buf: Vec::new(),
        }
    }

    /// Build a message-passing simulation.
    pub fn build(self) -> Simulation<P, F>
    where
        P: PushProtocol,
    {
        let mut core = self.into_parts();
        // The lockstep engine delivers message → reply → both merges
        // within one phase of one round; no node can tick in between.
        // Declare that, so lattice protocols may share post-merge replies.
        for node in core.nodes.iter_mut().flatten() {
            node.hint_atomic_exchanges();
        }
        Simulation { core, out_buf: Vec::new(), queue: Vec::new(), wire_meter: None }
    }

    /// Build an atomic push/pull simulation.
    pub fn build_pairwise(self) -> PairwiseSimulation<P, F>
    where
        P: PairwiseProtocol,
    {
        PairwiseSimulation { core: self.into_parts() }
    }
}

/// State shared by both engines.
struct SimCore<P, F> {
    nodes: Vec<Option<P>>,
    values: Vec<Option<f64>>,
    alive: AliveSet,
    env: Box<dyn Environment>,
    truth: Truth,
    failure: FailurePlan,
    round: u64,
    engine_rng: SmallRng,
    value_rng: SmallRng,
    value_gen: ValueGen,
    factory: F,
    /// Per-message loss probability.
    loss: f64,
    /// The chaos layer's partition schedule.
    partition: PartitionTable,
    series: Series,
    /// Reused per-round buffer: this round's failure victims.
    victims: Vec<NodeId>,
    /// Reused per-round buffer: per-host truths (group-truth path only).
    truth_buf: Vec<Option<f64>>,
}

impl<P, F: FnMut(NodeId, f64) -> P> SimCore<P, F> {
    /// Apply the failure plan at the top of the round: victims leave
    /// (through `sign_off` first when the plan is graceful), then joins
    /// arrive; returns the joined ids. Live hosts are offered to the plan
    /// in `alive.ids()` order — the lockstep family's pinned candidate
    /// order.
    fn churn(&mut self, sign_off: impl Fn(&mut P)) -> std::ops::Range<usize> {
        let mut victims = std::mem::take(&mut self.victims);
        let (graceful, joins) = self.failure.plan(
            self.round,
            self.alive.ids().iter().copied(),
            &self.values,
            &mut victims,
        );
        for &id in &victims {
            if graceful {
                if let Some(node) = self.nodes[id as usize].as_mut() {
                    sign_off(node);
                }
            }
            self.remove(id);
        }
        self.victims = victims;
        let first = self.nodes.len();
        for _ in 0..joins {
            self.join_one();
        }
        first..self.nodes.len()
    }

    fn remove(&mut self, id: NodeId) {
        if self.alive.remove(id) {
            self.nodes[id as usize] = None;
            self.values[id as usize] = None;
        }
    }

    fn join_one(&mut self) {
        let id = self.nodes.len() as NodeId;
        let v = (self.value_gen)(&mut self.value_rng, id);
        self.values.push(Some(v));
        self.nodes.push(Some((self.factory)(id, v)));
        self.alive.insert(id);
    }

    /// Sample this round through the shared [`sample_round`] pass.
    /// `wire` is 0 unless the engine measured frames (the push engine's
    /// optional wire meter); the scenario registry prices unmeasured
    /// rounds per message via `registry::wire_cost`.
    fn record_stats(&mut self, messages: u64, bytes: u64, wire: u64)
    where
        P: Estimator,
    {
        let nodes = &self.nodes;
        let mut stats = sample_round(
            self.round,
            self.truth,
            &self.values,
            self.env.group_view(),
            &mut self.truth_buf,
            (messages, bytes, wire),
            |id| nodes[id].as_ref().expect("alive node present"),
        );
        stats.islands = self.partition.islands();
        self.series.push(stats);
    }
}

/// Per-message wire pricing hook; see
/// [`Simulation::with_wire_meter`].
type WireMeter<M> = Box<dyn Fn(&M) -> u64>;

/// A message-passing gossip simulation.
pub struct Simulation<P: PushProtocol, F> {
    core: SimCore<P, F>,
    out_buf: Vec<(NodeId, P::Message)>,
    queue: Vec<(NodeId, NodeId, P::Message)>,
    /// Optional per-message wire meter: when installed, every sent
    /// message (and same-round reply) is priced through it and the sum
    /// lands in the round's `wire_bytes`; when absent, `wire_bytes`
    /// stays 0 for the caller to fill (the scenario registry's priced
    /// accounting).
    wire_meter: Option<WireMeter<P::Message>>,
}

impl<P: PushProtocol, F: FnMut(NodeId, f64) -> P> Simulation<P, F> {
    /// The current round (number of completed steps).
    pub fn round(&self) -> u64 {
        self.core.round
    }

    /// Live node count.
    pub fn alive(&self) -> usize {
        self.core.alive.len()
    }

    /// Access a node's protocol state.
    pub fn node(&self, id: NodeId) -> Option<&P> {
        self.core.nodes.get(id as usize)?.as_ref()
    }

    /// Iterate over all live nodes' protocol state (Fig. 6 reads every
    /// host's counter matrix this way).
    pub fn nodes(&self) -> impl Iterator<Item = (NodeId, &P)> {
        self.core
            .nodes
            .iter()
            .enumerate()
            .filter_map(|(id, n)| n.as_ref().map(|p| (id as NodeId, p)))
    }

    /// Current per-host estimates (`None` for dead hosts).
    pub fn estimates(&self) -> Vec<Option<f64>> {
        self.core.nodes.iter().map(|n| n.as_ref().and_then(|p| p.estimate())).collect()
    }

    /// The statistics collected so far.
    pub fn series(&self) -> &Series {
        &self.core.series
    }

    /// Install a per-message wire meter (e.g. the codec's encoded size
    /// plus a frame header). With a meter, the engine measures every
    /// message it delivers — capturing payload growth the registry's
    /// fresh-node pricing cannot see.
    pub fn with_wire_meter(mut self, meter: impl Fn(&P::Message) -> u64 + 'static) -> Self {
        self.wire_meter = Some(Box::new(meter));
        self
    }

    /// Run `rounds` iterations, returning the cumulative series.
    pub fn run(mut self, rounds: u64) -> Series {
        for _ in 0..rounds {
            self.step();
        }
        self.core.series
    }

    /// Advance one gossip iteration.
    pub fn step(&mut self) {
        let core = &mut self.core;

        // 1. failures / churn at the round boundary
        for id in core.churn(P::depart_gracefully) {
            if let Some(node) = core.nodes[id].as_mut() {
                node.hint_atomic_exchanges();
            }
        }

        // 2. environment preparation (the partition table advances with
        // the round; lockstep keeps no persistent views, so transitions
        // need no repair — next round's sampling is filtered afresh)
        core.env.begin_round(core.round, &core.alive);
        core.partition.begin_round(core.round);

        // 3. emission (id order; determinism comes from the seeded RNG)
        let mut messages = 0u64;
        let mut bytes = 0u64;
        let mut wire = 0u64;
        self.queue.clear();
        for id in 0..core.nodes.len() as NodeId {
            if !core.alive.contains(id) {
                continue;
            }
            let node = core.nodes[id as usize].as_mut().expect("alive node present");
            let mut sampler =
                EnvSampler::new(core.env.as_ref(), &core.alive, id).partitioned(&core.partition);
            let mut ctx =
                RoundCtx { round: core.round, rng: &mut core.engine_rng, peers: &mut sampler };
            self.out_buf.clear();
            node.begin_round(&mut ctx, &mut self.out_buf);
            for (to, msg) in self.out_buf.drain(..) {
                self.queue.push((id, to, msg));
            }
        }

        // 4. delivery in shuffled order (plus same-round replies)
        self.queue.shuffle(&mut core.engine_rng);
        for (src, dst, msg) in self.queue.drain(..) {
            messages += 1;
            bytes += P::message_bytes(&msg) as u64;
            if let Some(meter) = &self.wire_meter {
                wire += meter(&msg);
            }
            if core.loss > 0.0 && core.engine_rng.gen::<f64>() < core.loss {
                continue; // dropped by the radio link
            }
            if !core.partition.allows(src, dst) {
                continue; // addressed across the cut (broadcast protocols)
            }
            if !core.alive.contains(dst) {
                continue; // lost to a silent failure
            }
            let reply = {
                let node = core.nodes[dst as usize].as_mut().expect("alive");
                let mut sampler = EnvSampler::new(core.env.as_ref(), &core.alive, dst)
                    .partitioned(&core.partition);
                let mut ctx =
                    RoundCtx { round: core.round, rng: &mut core.engine_rng, peers: &mut sampler };
                node.on_message(src, &msg, &mut ctx)
            };
            // Release the delivered message before the reply lands: for
            // reference-counted payloads this lets the initiator's
            // `on_reply` mutate its state in place instead of
            // copying-on-write under the outstanding snapshot.
            drop(msg);
            if let Some(reply) = reply {
                messages += 1;
                bytes += P::message_bytes(&reply) as u64;
                if let Some(meter) = &self.wire_meter {
                    wire += meter(&reply);
                }
                if core.alive.contains(src) {
                    let node = core.nodes[src as usize].as_mut().expect("alive");
                    let mut sampler = EnvSampler::new(core.env.as_ref(), &core.alive, src)
                        .partitioned(&core.partition);
                    let mut ctx = RoundCtx {
                        round: core.round,
                        rng: &mut core.engine_rng,
                        peers: &mut sampler,
                    };
                    node.on_reply(dst, &reply, &mut ctx);
                }
            }
        }

        // 5. finalization (id order)
        for id in 0..core.nodes.len() as NodeId {
            if !core.alive.contains(id) {
                continue;
            }
            let node = core.nodes[id as usize].as_mut().expect("alive");
            let mut sampler =
                EnvSampler::new(core.env.as_ref(), &core.alive, id).partitioned(&core.partition);
            let mut ctx =
                RoundCtx { round: core.round, rng: &mut core.engine_rng, peers: &mut sampler };
            node.end_round(&mut ctx);
        }

        // 6. metrics
        core.record_stats(messages, bytes, wire);
        core.round += 1;
    }
}

/// An atomic push/pull simulation (pairwise mass equalization).
pub struct PairwiseSimulation<P: PairwiseProtocol, F> {
    core: SimCore<P, F>,
}

impl<P: PairwiseProtocol, F: FnMut(NodeId, f64) -> P> PairwiseSimulation<P, F> {
    /// The current round.
    pub fn round(&self) -> u64 {
        self.core.round
    }

    /// Live node count.
    pub fn alive(&self) -> usize {
        self.core.alive.len()
    }

    /// Access a node's protocol state.
    pub fn node(&self, id: NodeId) -> Option<&P> {
        self.core.nodes.get(id as usize)?.as_ref()
    }

    /// Iterate over all live nodes' protocol state.
    pub fn nodes(&self) -> impl Iterator<Item = (NodeId, &P)> {
        self.core
            .nodes
            .iter()
            .enumerate()
            .filter_map(|(id, n)| n.as_ref().map(|p| (id as NodeId, p)))
    }

    /// The statistics collected so far.
    pub fn series(&self) -> &Series {
        &self.core.series
    }

    /// Run `rounds` iterations, returning the cumulative series.
    pub fn run(mut self, rounds: u64) -> Series {
        for _ in 0..rounds {
            self.step();
        }
        self.core.series
    }

    /// Advance one iteration: every live host initiates one exchange.
    pub fn step(&mut self) {
        let core = &mut self.core;

        core.churn(|_| {}); // pairwise protocols have no sign-off

        core.env.begin_round(core.round, &core.alive);
        core.partition.begin_round(core.round);

        let mut messages = 0u64;
        let mut bytes = 0u64;
        for id in 0..core.nodes.len() as NodeId {
            if !core.alive.contains(id) {
                continue;
            }
            let peer = core.env.sample(id, &core.alive, &mut core.engine_rng);
            let Some(peer) = peer else { continue };
            debug_assert_ne!(peer, id, "environments never return self");
            if !core.partition.allows(id, peer) {
                continue; // partner unreachable across the cut
            }
            if core.loss > 0.0 && core.engine_rng.gen::<f64>() < core.loss {
                continue; // the exchange never completed
            }
            // Temporarily lift the responder out to get two disjoint &muts.
            let mut responder = core.nodes[peer as usize].take().expect("alive peer present");
            {
                let initiator = core.nodes[id as usize].as_mut().expect("alive");
                P::exchange(initiator, &mut responder, &mut core.engine_rng);
                messages += 2;
                bytes += initiator.exchange_bytes() as u64;
            }
            core.nodes[peer as usize] = Some(responder);
        }

        for id in 0..core.nodes.len() as NodeId {
            if !core.alive.contains(id) {
                continue;
            }
            core.nodes[id as usize].as_mut().expect("alive").end_round(core.round);
        }

        core.record_stats(messages, bytes, 0);
        core.round += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::uniform::UniformEnv;
    use crate::failure::FailureMode;
    use dynagg_core::push_sum_revert::PushSumRevert;

    #[test]
    fn push_engine_converges_push_sum() {
        let sim = builder(1)
            .environment(UniformEnv::new())
            .nodes_with_paper_values(500)
            .protocol(|_, v| PushSumRevert::new(v, 0.0))
            .truth(Truth::Mean)
            .build();
        let series = sim.run(40);
        let last = series.last().unwrap();
        assert!(last.stddev < 1.0, "stddev {} after 40 rounds", last.stddev);
        assert_eq!(last.alive, 500);
        assert_eq!(last.defined, 500);
    }

    #[test]
    fn pairwise_engine_converges_push_sum() {
        let sim = builder(2)
            .environment(UniformEnv::new())
            .nodes_with_paper_values(500)
            .protocol(|_, v| PushSumRevert::new(v, 0.0))
            .truth(Truth::Mean)
            .build_pairwise();
        let series = sim.run(30);
        assert!(series.last().unwrap().stddev < 0.5);
    }

    #[test]
    fn identical_seeds_reproduce_identical_series() {
        let mk = |seed| {
            builder(seed)
                .environment(UniformEnv::new())
                .nodes_with_paper_values(100)
                .protocol(|_, v| PushSumRevert::new(v, 0.0))
                .build()
                .run(15)
        };
        assert_eq!(mk(7), mk(7));
        assert_ne!(mk(7), mk(8));
    }

    #[test]
    fn random_failure_leaves_mean_stable_with_reversion() {
        let sim = builder(3)
            .environment(UniformEnv::new())
            .nodes_with_paper_values(1000)
            .protocol(|_, v| PushSumRevert::new(v, 0.01))
            .truth(Truth::Mean)
            .failure(FailureSpec::paper_half_at_20(FailureMode::Random))
            .build_pairwise();
        let series = sim.run(45);
        let last = series.last().unwrap();
        assert_eq!(last.alive, 500);
        assert!(
            last.stddev < 6.0,
            "uncorrelated failure should not destabilize: stddev {}",
            last.stddev
        );
    }

    #[test]
    fn correlated_failure_heals_only_with_reversion() {
        let run = |lambda: f64| {
            builder(4)
                .environment(UniformEnv::new())
                .nodes_with_paper_values(1000)
                .protocol(move |_, v| PushSumRevert::new(v, lambda))
                .truth(Truth::Mean)
                .failure(FailureSpec::paper_half_at_20(FailureMode::TopValue))
                .build_pairwise()
                .run(80)
        };
        let healed = run(0.1).last().unwrap().stddev;
        let stuck = run(0.0).last().unwrap().stddev;
        assert!(
            healed < stuck / 2.0,
            "reversion should beat static after correlated failure: {healed} vs {stuck}"
        );
        // Static protocol's residual error is ~|50 - 25| = 25.
        assert!(stuck > 15.0, "static error should stay near 25, got {stuck}");
    }

    #[test]
    fn churn_keeps_population_near_equilibrium() {
        let sim = builder(5)
            .environment(UniformEnv::new())
            .nodes_with_paper_values(200)
            .protocol(|_, v| PushSumRevert::new(v, 0.0))
            .failure(FailureSpec::Churn { start: 0, leave_per_round: 0.02, join_per_round: 0.02 })
            .build();
        let series = sim.run(60);
        let last = series.last().unwrap();
        // E[leave] = E[join] -> population stays near 200 (±noise).
        assert!((120..=280).contains(&last.alive), "population drifted to {}", last.alive);
        // Joined nodes must be counted in metrics.
        assert_eq!(last.defined, last.alive);
    }

    #[test]
    fn bandwidth_accounting_matches_message_count() {
        let sim = builder(6)
            .environment(UniformEnv::new())
            .nodes_with_constant(50, 1.0)
            .protocol(|_, v| PushSumRevert::new(v, 0.0))
            .build();
        let series = sim.run(5);
        for s in &series.rounds {
            // One push message per host per round, 16 bytes each.
            assert_eq!(s.messages, 50);
            assert_eq!(s.bytes, 50 * 16);
        }
    }

    #[test]
    fn series_length_matches_rounds() {
        let sim = builder(7)
            .environment(UniformEnv::new())
            .nodes_with_constant(10, 1.0)
            .protocol(|_, v| PushSumRevert::new(v, 0.0))
            .build();
        let series = sim.run(12);
        assert_eq!(series.rounds.len(), 12);
        assert_eq!(series.rounds[11].round, 11);
    }

    #[test]
    fn message_loss_destroys_push_sum_mass() {
        // 20% loss: each round ~10% of total mass evaporates (half of a
        // node's mass is in flight, 20% of that is lost). After 40 rounds
        // total weight should have collapsed toward zero.
        let mut sim = builder(8)
            .environment(UniformEnv::new())
            .nodes_with_paper_values(200)
            .protocol(|_, v| PushSumRevert::new(v, 0.0))
            .message_loss(0.2)
            .build();
        for _ in 0..40 {
            sim.step();
        }
        let total_w: f64 = sim.nodes().map(|(_, p)| p.mass().weight).sum();
        assert!(total_w < 10.0, "push-sum weight should leak away under loss, still {total_w}");
    }

    #[test]
    fn reversion_bounds_weight_decay_under_loss() {
        // Random loss removes v and w *proportionally*, so static
        // Push-Sum's ratio estimate stays unbiased — but its total weight
        // decays exponentially (~(1 − loss/2)^t), eventually collapsing
        // the estimate numerically. Reversion re-injects λ·(1, v₀) every
        // round, so its total weight stays bounded below. Assert both
        // halves of that statement.
        let total_weight = |lambda: f64| {
            let mut sim = builder(9)
                .environment(UniformEnv::new())
                .nodes_with_paper_values(500)
                .protocol(move |_, v| PushSumRevert::new(v, lambda))
                .truth(Truth::Mean)
                .message_loss(0.2)
                .build();
            for _ in 0..80 {
                sim.step();
            }
            let w: f64 = sim.nodes().map(|(_, p)| p.mass().weight).sum();
            let err = sim.series().last().unwrap().stddev;
            (w, err)
        };
        let (static_w, static_err) = total_weight(0.0);
        let (revert_w, revert_err) = total_weight(0.05);
        assert!(
            static_w < 1.0,
            "static weight should decay to ~(0.9)^80·500 ≈ 0.1, got {static_w}"
        );
        assert!(revert_w > 50.0, "reversion must keep total weight bounded, got {revert_w}");
        // Both stay accurate at this horizon (loss is unbiased); reversion
        // pays an elevated λ floor (lost inbound mass makes the local
        // anchor weigh more) but remains bounded.
        assert!(static_err.is_finite());
        assert!(revert_err < 20.0, "reverted error {revert_err}");
    }

    #[test]
    fn lost_messages_still_count_as_sent() {
        let sim = builder(10)
            .environment(UniformEnv::new())
            .nodes_with_constant(50, 1.0)
            .protocol(|_, v| PushSumRevert::new(v, 0.0))
            .message_loss(1.0)
            .build();
        let series = sim.run(3);
        for s in &series.rounds {
            assert_eq!(s.messages, 50, "bandwidth is spent whether or not frames arrive");
        }
    }

    #[test]
    #[should_panic(expected = "loss probability")]
    fn invalid_loss_rejected() {
        let _ = builder(11)
            .environment(UniformEnv::new())
            .nodes_with_constant(2, 1.0)
            .protocol(|_, v| PushSumRevert::new(v, 0.0))
            .message_loss(1.5);
    }

    fn halves(n: NodeId, at: u64, heal: Option<u64>) -> PartitionTable {
        use crate::partition::{resolve, Island, PartitionEvent, TopologyInfo};
        let event = PartitionEvent {
            at_round: at,
            heal_at: heal,
            islands: vec![Island::Range { lo: 0, hi: n / 2 }, Island::Range { lo: n / 2, hi: n }],
        };
        let resolved = resolve(&event, n as usize, &TopologyInfo::default()).unwrap();
        PartitionTable::new(vec![resolved]).unwrap()
    }

    #[test]
    fn partition_isolates_islands_and_conserves_mass() {
        // Island A all hold 10, island B all hold 90: any frame leaking
        // across the cut would drag an estimate off its island's mean.
        let mut sim = builder(13)
            .environment(UniformEnv::new())
            .nodes_with_values(40, |_, id| if id < 20 { 10.0 } else { 90.0 })
            .protocol(|_, v| PushSumRevert::new(v, 0.0))
            .partition(halves(40, 0, Some(40)))
            .build();
        for _ in 0..40 {
            sim.step();
        }
        let s = sim.series().last().unwrap();
        assert_eq!(s.islands, 2, "split reported in metrics");
        assert!(s.mass_audit.abs() < 1e-9, "split conserves mass: {}", s.mass_audit);
        for (id, node) in sim.nodes() {
            let e = node.estimate().unwrap();
            let want = if id < 20 { 10.0 } else { 90.0 };
            assert!((e - want).abs() < 1e-9, "node {id} leaked across the cut: {e}");
        }
        // Heal at round 40: islands re-merge and converge globally.
        for _ in 0..60 {
            sim.step();
        }
        let s = sim.series().last().unwrap();
        assert_eq!(s.islands, 1, "heal reported in metrics");
        for (id, node) in sim.nodes() {
            let e = node.estimate().unwrap();
            assert!((e - 50.0).abs() < 2.0, "node {id} not re-merged: {e}");
        }
    }

    #[test]
    fn pairwise_partition_blocks_cross_island_exchanges() {
        let mut sim = builder(14)
            .environment(UniformEnv::new())
            .nodes_with_values(30, |_, id| if id < 15 { 0.0 } else { 100.0 })
            .protocol(|_, v| PushSumRevert::new(v, 0.0))
            .partition(halves(30, 0, None))
            .build_pairwise();
        for _ in 0..25 {
            sim.step();
        }
        for (id, node) in sim.nodes() {
            let e = node.estimate().unwrap();
            let want = if id < 15 { 0.0 } else { 100.0 };
            assert!((e - want).abs() < 1e-9, "node {id} exchanged across the cut: {e}");
        }
        assert_eq!(sim.series().last().unwrap().islands, 2);
    }

    #[test]
    fn inflation_adversary_shows_in_the_mass_audit() {
        use dynagg_core::adversary::{Adversarial, Attack};
        let mut sim = builder(15)
            .environment(UniformEnv::new())
            .nodes_with_paper_values(100)
            .protocol(|id, v| {
                let inner = PushSumRevert::new(v, 0.0);
                if id == 0 {
                    Adversarial::malicious(inner, Attack::MassInflation { factor: 2.0 }, 10)
                } else {
                    Adversarial::honest(inner)
                }
            })
            .build();
        for _ in 0..10 {
            sim.step();
        }
        let clean = sim.series().last().unwrap().mass_audit;
        assert!(clean.abs() < 1e-6, "honest rounds audit clean: {clean}");
        for _ in 0..20 {
            sim.step();
        }
        let forged = sim.series().last().unwrap().mass_audit;
        assert!(forged > 1.0, "forged mass must show in the audit: {forged}");
    }

    #[test]
    fn victim_buffers_are_reused_across_failure_rounds() {
        // Churn every round exercises the victim path repeatedly; the
        // engine must keep producing correct removals (buffer clearing
        // regression guard).
        let mut sim = builder(12)
            .environment(UniformEnv::new())
            .nodes_with_paper_values(100)
            .protocol(|_, v| PushSumRevert::new(v, 0.0))
            .failure(FailureSpec::Churn { start: 0, leave_per_round: 0.5, join_per_round: 0.5 })
            .build();
        for _ in 0..20 {
            sim.step();
            let s = sim.series().last().unwrap();
            assert_eq!(s.defined, s.alive, "metrics must track membership exactly");
        }
    }
}
