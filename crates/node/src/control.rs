//! The asynchronous engines' **control plane**, written once.
//!
//! Everything about an async run that is *not* draining events lives in
//! `Coordinator`: the population recipe and spawn bookkeeping, the live
//! set and per-node values, the membership layer with its [`ViewTable`],
//! the coordinator RNG streams, truth, the partition schedule, the
//! failure plan, and the sampler that fills the [`Series`].
//! [`AsyncNet`](crate::AsyncNet) and [`ShardedNet`](crate::ShardedNet)
//! each own one and differ only in
//! their **drain** — event queue(s), `dispatch`, `send`, link RNG
//! stream(s), the [`Counters`] they fill, and for the sharded engine the
//! window/mailbox/barrier machinery.
//!
//! The coordinator reaches node state only through the four-method
//! `Drain` seam, which hides exactly one decision: whether a runtime
//! lives in a flat `Vec` or at `(shard, slot)`.
//!
//! ## Membership
//!
//! Nodes address peers through bounded **views** drawn from a
//! [`Membership`] implementation — the same topology layer the lockstep
//! engines sample partners from, so *every* environment (uniform,
//! spatial grid, drifting cliques, trace replay) runs asynchronously.
//! The default is [`UniformEnv`] (a uniform sample of the live
//! population, like partial-view membership services in deployed gossip
//! systems). At every nominal round boundary the coordinator advances
//! the membership clock (mobility events, trace replay) and rebuilds
//! **only the views the change report names**.
//!
//! Failure-plan departures and churn are repaired *incrementally* through
//! the [`ViewTable`]'s inverted index: a departure patches exactly the
//! views containing the departed node (one slot each, refilled via
//! [`Membership::repair_peer`] so repairs respect the topology), and a
//! join assigns the newcomer one view plus a handful of introductions.
//! That is `O(changed × view)` per churn round where a full refresh is
//! `O(live × view)` — the difference between unusable and routine at
//! 100 000 hosts.
//!
//! The table is the **only copy** of a view. The drains lend a node its
//! slice per event ([`NodeRuntime::poll_among`] /
//! [`NodeRuntime::handle_among`]); an engine-run runtime's own peer list
//! stays empty, and a slot patched at a boundary is what the next event
//! samples from with nothing pushed anywhere. Views change only on the
//! coordinating thread, between drains. What the bits rest on is that a
//! view never contains its owner (the runtimes' `set_peers` filter is not
//! on this path): every `view_into` excludes it, repair and `introduce`
//! guard it, and [`ViewTable::check_consistency`] asserts it.
//!
//! ## Draw order
//!
//! Every coordinator draw happens on the coordinating thread in
//! ascending node-id order, from four streams — values, setup
//! (interval + phase), views, failures — so a run's control decisions
//! are a pure function of the seed no matter which drain executes them.
//! The order *within* each method below is part of the golden contract.

use crate::counters::Counters;
use crate::loopback::{node_recipe, AsyncConfig, DriftFn, NodeFactory, ValueFn};
use crate::runtime::NodeRuntime;
use crate::views::ViewTable;
use dynagg_core::protocol::{NodeId, PushProtocol};
use dynagg_core::wire::WireMessage;
use dynagg_sim::alive::AliveSet;
use dynagg_sim::env::UniformEnv;
use dynagg_sim::membership::{Membership, ViewChange};
use dynagg_sim::metrics::{sample_round, Series, Truth};
use dynagg_sim::rng::{self, stream};
use dynagg_sim::{FailurePlan, FailureSpec, PartitionTable, PartitionTransition};
use rand::rngs::SmallRng;
use rand::Rng;

/// Slot-repair attempts before a patched view is allowed to shrink (a
/// candidate can be a duplicate or freshly dead).
const REPAIR_TRIES: usize = 4;

/// Existing views a churn join is introduced into. The newcomer's own
/// view gives it full outbound fan-out immediately; a few inbound slots
/// are enough to pull it into the gossip flow, and later repairs keep
/// sampling it like anyone else. Kept deliberately small: introductions
/// are `O(1)` slot edits, so joins stay `O(view)` rather than
/// `O(view²)`.
const INTRODUCTIONS: usize = 8;

/// What the coordinator needs from an engine's drain: where a node's
/// runtime lives, and what it counted.
pub(crate) trait Drain<P: PushProtocol>
where
    P::Message: WireMessage,
{
    /// Node `id`'s runtime.
    fn runtime(&self, id: NodeId) -> &NodeRuntime<P>;
    /// Node `id`'s runtime, mutably.
    fn runtime_mut(&mut self, id: NodeId) -> &mut NodeRuntime<P>;
    /// Take ownership of a freshly spawned runtime: schedule its first
    /// timer and push any per-node drain state. Ids arrive densely, in
    /// ascending order.
    fn install(&mut self, id: NodeId, runtime: NodeRuntime<P>);
    /// What the drain has counted since boot.
    fn counters(&self) -> Counters;
}

/// The public surface [`AsyncNet`](crate::AsyncNet) and
/// [`ShardedNet`](crate::ShardedNet) share, expanded inside each engine's
/// `impl` block (both name their fields `ctl` and `drain`) so every
/// signature and doc line exists once.
macro_rules! engine_facade {
    () => {
        /// What estimates are measured against (default: [`Truth::Mean`]).
        /// Group truths read the membership layer's
        /// [`Membership::group_view`] at each wall-clock sample, so they
        /// require a group-aware topology (the trace environment).
        pub fn with_truth(mut self, truth: Truth) -> Self {
            self.ctl.truth = truth;
            self
        }

        /// The failure plan, applied at nominal round boundaries
        /// (`k × interval_ms`), mirroring the lockstep engine's round
        /// semantics.
        pub fn with_failure(mut self, failure: FailureSpec) -> Self {
            self.ctl.set_failure(failure);
            self
        }

        /// The partition schedule (default: never partitioned). While a
        /// partition holds, frames whose endpoints sit on different
        /// islands are dropped in flight (the link is down; bandwidth was
        /// still spent) and membership views are rebuilt island-locally on
        /// split and globally on heal, through the same full-view path
        /// topology changes use. Must be installed before the first run.
        pub fn with_partition(mut self, partition: PartitionTable) -> Self {
            self.ctl.set_partition(partition);
            self
        }

        /// Replace the membership/topology layer (default: uniform). Must
        /// be called before the first run — views materialize lazily from
        /// whatever topology is installed then.
        pub fn with_membership(mut self, membership: Box<dyn Membership>) -> Self {
            self.ctl.set_membership(membership);
            self
        }

        /// Access a node's runtime. The engine lends each node its view
        /// per event, so an engine-run runtime's own
        /// [`NodeRuntime::peers`] is empty; read a node's peers with
        /// `view_of`.
        pub fn node(&self, id: NodeId) -> &NodeRuntime<P> {
            self.drain.runtime(id)
        }

        /// Iterate over the powered nodes' protocol state, in ascending id
        /// order.
        pub fn nodes(&self) -> impl Iterator<Item = (NodeId, &P)> {
            self.ctl.nodes(&self.drain)
        }

        /// A node's current membership view (empty until the first run).
        pub fn view_of(&self, id: NodeId) -> &[NodeId] {
            self.ctl.view_of(id)
        }

        /// Validate the views ↔ holders index invariant and that no view
        /// contains its owner (test support; `O(n × view²)`).
        pub fn check_view_consistency(&self) {
            self.ctl.check_view_consistency();
        }

        /// Powered (live) node ids, ascending.
        pub fn live(&self) -> Vec<NodeId> {
            self.ctl.live()
        }

        /// The series sampled so far (empty until `run` samples).
        pub fn series(&self) -> &Series {
            &self.ctl.series
        }

        /// Consume the network, returning its series.
        pub fn into_series(self) -> Series {
            self.ctl.series
        }

        /// Everything the run has counted so far: the drain's records and
        /// the coordinator's ([`Counters`] says who fills which field).
        pub fn counters(&self) -> Counters {
            let mut counters = self.drain.counters();
            counters.absorb(&self.ctl.counters);
            counters
        }

        /// [`Counters::events`]: the unit of `*_ns_per_event` metrics.
        pub fn events_processed(&self) -> u64 {
            self.counters().events
        }

        /// [`Counters::decode_errors`] (should stay 0).
        pub fn decode_errors(&self) -> u64 {
            self.counters().decode_errors
        }

        /// [`Counters::horizon_violations`] (always 0).
        pub fn horizon_violations(&self) -> u64 {
            self.counters().horizon_violations
        }

        /// [`Counters::cross_island_deliveries`].
        pub fn cross_island_deliveries(&self) -> u64 {
            self.counters().cross_island_deliveries
        }

        /// [`Counters::view_slots_patched`].
        pub fn view_slots_patched(&self) -> u64 {
            self.counters().view_slots_patched
        }

        /// [`Counters::full_view_assignments`].
        pub fn full_view_assignments(&self) -> u64 {
            self.counters().full_view_assignments
        }
    };
}
pub(crate) use engine_facade;

/// The control plane of one asynchronous network. Crate-visible fields
/// are the ones the drains read on their hot paths (`cfg`, `alive`,
/// `partition`, `views`) and plain settings/readouts with no invariant
/// to keep (`truth`, `series`, `counters`); everything else
/// that must stay mutually consistent is private.
pub(crate) struct Coordinator<P: PushProtocol>
where
    P::Message: WireMessage,
{
    pub(crate) cfg: AsyncConfig,
    /// The live set (powered-on nodes; a silent failure removes its id):
    /// what membership samples from, and what the drains ask per event
    /// whether a timer's owner or a frame's receiver is still powered.
    /// Edited through the coordinator's methods only.
    pub(crate) alive: AliveSet,
    /// Initial values of live nodes (`None` = dead), for truth and
    /// value-correlated failure selection.
    values: Vec<Option<f64>>,
    /// The topology: who can each node currently reach.
    membership: Box<dyn Membership>,
    /// Per-node views + inverted index for incremental repair — the one
    /// copy of every view, lent to the runtimes by the drains. Edited
    /// through the coordinator's methods only.
    pub(crate) views: ViewTable,
    /// Whether initial views have been materialized (deferred so
    /// [`Coordinator::set_membership`] can swap the topology first).
    views_ready: bool,
    value_rng: SmallRng,
    setup_rng: SmallRng,
    /// View-draw randomness, on its own stream so topology-internal RNGs
    /// (clustered migrations) never interleave with view sampling.
    view_rng: SmallRng,
    value_gen: ValueFn,
    drift_of: DriftFn,
    factory: NodeFactory<P>,
    /// What estimates are measured against.
    pub(crate) truth: Truth,
    failure: FailurePlan,
    /// The chaos layer's partition schedule, advanced at nominal round
    /// boundaries. The drains drop cross-island frames at send time and
    /// views are kept island-local while a partition holds.
    pub(crate) partition: PartitionTable,
    /// The samples recorded so far.
    pub(crate) series: Series,
    /// The drain's totals at the previous sample.
    sampled: Counters,
    /// This boundary's failure victims.
    victims: Vec<NodeId>,
    /// Per-host truth buffer, filled on the group-truth sampling path.
    truth_buf: Vec<Option<f64>>,
    /// View assembly buffer.
    view_buf: Vec<NodeId>,
    /// Holders of a departed node, mid-repair.
    holder_buf: Vec<NodeId>,
    /// Membership change report buffer.
    changed_buf: Vec<NodeId>,
    /// View work: `full_view_assignments` and `view_slots_patched`.
    pub(crate) counters: Counters,
}

impl<P: PushProtocol> Coordinator<P>
where
    P::Message: WireMessage,
{
    /// Validate `cfg` and spawn the initial population of `n` nodes into
    /// `drain`: values drawn by `value_gen` (from the same dedicated RNG
    /// stream the lockstep engine uses, so a given seed yields the same
    /// population), clocks drifting per `drift_of`, protocols built by
    /// `factory`. Membership defaults to uniform.
    pub(crate) fn new(
        n: usize,
        cfg: AsyncConfig,
        value_gen: ValueFn,
        drift_of: DriftFn,
        factory: NodeFactory<P>,
        drain: &mut impl Drain<P>,
    ) -> Self {
        assert!((0.0..=1.0).contains(&cfg.loss), "loss probability must be in [0, 1]");
        assert!((0.0..1.0).contains(&cfg.jitter), "jitter fraction must be in [0, 1)");
        assert!(cfg.interval_ms >= 1, "round interval must be at least 1 ms");
        let mut ctl = Self {
            alive: AliveSet::empty(n),
            values: Vec::with_capacity(n),
            membership: Box::new(UniformEnv::new()),
            views: ViewTable::new(),
            views_ready: false,
            value_rng: rng::rng_for(cfg.seed, stream::VALUES),
            setup_rng: rng::rng_for(cfg.seed, stream::ENVIRONMENT),
            view_rng: rng::rng_for(cfg.seed, stream::VIEWS),
            value_gen,
            drift_of,
            factory,
            truth: Truth::Mean,
            failure: FailurePlan::new(FailureSpec::None, cfg.seed, n),
            partition: PartitionTable::empty(),
            series: Series::default(),
            sampled: Counters::default(),
            victims: Vec::new(),
            truth_buf: Vec::new(),
            view_buf: Vec::new(),
            holder_buf: Vec::new(),
            changed_buf: Vec::new(),
            counters: Counters::default(),
            cfg,
        };
        for _ in 0..n {
            ctl.spawn_node(0, drain);
        }
        ctl
    }

    /// The failure plan, applied at nominal round boundaries. The join
    /// rate is a fraction of the population spawned so far.
    pub(crate) fn set_failure(&mut self, failure: FailureSpec) {
        self.failure = FailurePlan::new(failure, self.cfg.seed, self.values.len());
    }

    /// Install the partition schedule; only before the first run.
    pub(crate) fn set_partition(&mut self, partition: PartitionTable) {
        assert!(!self.views_ready, "install the partition schedule before running");
        self.partition = partition;
    }

    /// Replace the topology layer; only before the first run — views
    /// materialize lazily from whatever topology is installed then.
    pub(crate) fn set_membership(&mut self, membership: Box<dyn Membership>) {
        assert!(!self.views_ready, "install the membership layer before running");
        self.membership = membership;
    }

    /// Nodes ever spawned (alive or dead); ids are `0..population()`.
    pub(crate) fn population(&self) -> usize {
        self.values.len()
    }

    /// Powered (live) node ids, ascending.
    pub(crate) fn live(&self) -> Vec<NodeId> {
        let mut ids = self.alive.ids().to_vec();
        ids.sort_unstable();
        ids
    }

    /// `id`'s current membership view (empty until the first run).
    pub(crate) fn view_of(&self, id: NodeId) -> &[NodeId] {
        self.views.view(id)
    }

    /// Validate the views ↔ holders index invariant and owner-freedom.
    pub(crate) fn check_view_consistency(&self) {
        self.views.check_consistency();
    }

    /// The powered nodes' protocol state, in ascending id order.
    pub(crate) fn nodes<'a, D: Drain<P>>(
        &'a self,
        drain: &'a D,
    ) -> impl Iterator<Item = (NodeId, &'a P)> {
        (0..self.population() as NodeId)
            .filter(|&id| self.alive.contains(id))
            .map(|id| (id, drain.runtime(id).protocol()))
    }

    /// Spawn one node whose first round fires at `from_ms` plus a random
    /// phase offset, and hand it to the drain. View assignment is the
    /// caller's business.
    fn spawn_node(&mut self, from_ms: u64, drain: &mut impl Drain<P>) -> NodeId {
        let id = self.values.len() as NodeId;
        let (v, rt_cfg) = node_recipe(
            &self.cfg,
            id,
            from_ms,
            &mut self.value_rng,
            &mut self.setup_rng,
            &mut self.value_gen,
            &mut self.drift_of,
        );
        drain.install(id, NodeRuntime::new(rt_cfg, (self.factory)(id, v)));
        self.values.push(Some(v));
        self.alive.insert(id);
        self.views.ensure(self.values.len());
        id
    }

    /// Silently power a node off: it stops polling and receiving, exactly
    /// a silent departure. Views that hold it are the caller's business.
    pub(crate) fn power_off(&mut self, id: NodeId) {
        if self.alive.remove(id) {
            self.values[id as usize] = None;
        }
    }

    /// Re-draw every live node's view from the membership layer
    /// (`O(live × view)` draws). The first call also starts the
    /// membership clock; it is how initial views materialize.
    pub(crate) fn refresh_views(&mut self) {
        if !self.views_ready {
            self.membership.advance(0, &self.alive, &mut self.changed_buf);
            self.views_ready = true;
        }
        self.assign_all_views();
    }

    /// Materialize initial views on first run.
    pub(crate) fn ensure_views(&mut self) {
        if !self.views_ready {
            self.refresh_views();
        }
    }

    fn assign_all_views(&mut self) {
        for id in 0..self.population() as NodeId {
            if self.alive.contains(id) {
                self.assign_view(id);
            }
        }
    }

    /// Draw `id` a fresh view from the membership layer and index it.
    /// While a partition holds, cross-island draws are filtered out, so
    /// repaired views stay island-local.
    fn assign_view(&mut self, id: NodeId) {
        self.membership.view_into(
            id,
            &self.alive,
            self.cfg.view_size,
            &mut self.view_rng,
            &mut self.view_buf,
        );
        if self.partition.active() {
            let partition = &self.partition;
            self.view_buf.retain(|&p| partition.allows(id, p));
        }
        self.views.assign(id, &self.view_buf);
        self.counters.full_view_assignments += 1;
    }

    /// Sample the live nodes through the shared [`sample_round`] pass
    /// (ascending id order, so floating-point accumulation is fixed
    /// regardless of where runtimes live). Group truths
    /// ([`Truth::needs_groups`]) read the membership layer's group
    /// structure as it stands at this wall-clock instant, exactly as the
    /// lockstep sampler reads the environment's.
    pub(crate) fn record_sample(&mut self, drain: &impl Drain<P>) {
        // A sample's traffic is what the drain counted since the last one.
        let (now, was) = (drain.counters(), self.sampled);
        self.sampled = now;
        let mut stats = sample_round(
            self.series.rounds.len() as u64,
            self.truth,
            &self.values,
            self.membership.group_view(),
            &mut self.truth_buf,
            (
                now.frames_out - was.frames_out,
                now.payload_bytes - was.payload_bytes,
                now.wire_bytes - was.wire_bytes,
            ),
            |id| drain.runtime(id as NodeId).protocol(),
        );
        stats.islands = self.partition.islands();
        self.series.push(stats);
    }

    /// Nominal round boundary `k` at simulated time `now_ms`: apply the
    /// failure plan (victims repaired incrementally, joins introduced),
    /// then advance the membership clock and rebuild exactly the views
    /// its change report names.
    pub(crate) fn nominal_round(&mut self, k: u64, now_ms: u64, drain: &mut impl Drain<P>) {
        // Advance the partition schedule first so failure repair and
        // membership rebuilds within this boundary already respect the
        // new connectivity.
        let transition = self.partition.begin_round(k);
        self.apply_failure(k, now_ms, drain);
        if k > 0 {
            match self.membership.advance(k, &self.alive, &mut self.changed_buf) {
                ViewChange::Unchanged => {}
                ViewChange::Nodes => {
                    let changed = std::mem::take(&mut self.changed_buf);
                    for &id in &changed {
                        if self.alive.contains(id) {
                            self.assign_view(id);
                        }
                    }
                    self.changed_buf = changed;
                }
                ViewChange::All => self.assign_all_views(),
            }
        }
        if transition != PartitionTransition::None {
            // Split: re-draw every view island-locally (assign_view
            // filters). Heal: re-draw globally, re-merging the islands
            // through the ordinary view path.
            self.assign_all_views();
        }
    }

    /// Apply the failure plan for nominal round `k`, repairing views
    /// incrementally. Victim candidates are offered to the plan in
    /// ascending id order — the async families' pinned candidate order.
    fn apply_failure(&mut self, k: u64, now_ms: u64, drain: &mut impl Drain<P>) {
        let mut victims = std::mem::take(&mut self.victims);
        let alive = &self.alive;
        let candidates = (0..self.values.len() as NodeId).filter(|&id| alive.contains(id));
        let (graceful, joins) = self.failure.plan(k, candidates, &self.values, &mut victims);
        for &id in &victims {
            if graceful {
                drain.runtime_mut(id).protocol_mut().depart_gracefully();
            }
            self.power_off(id);
        }
        // Incremental repair: first unindex every victim's own view, then
        // patch exactly the surviving views that referenced a victim —
        // one slot each, refilled through the topology's own sampler.
        for &id in &victims {
            self.views.clear_node(id);
        }
        let mut holders = std::mem::take(&mut self.holder_buf);
        for &id in &victims {
            self.views.take_holders_into(id, &mut holders);
            for &h in &holders {
                if !self.alive.contains(h) {
                    continue; // the holder died in the same batch
                }
                self.views.drop_slot(h, id);
                self.counters.view_slots_patched += 1;
                for _ in 0..REPAIR_TRIES {
                    let Some(y) = self.membership.repair_peer(h, &self.alive, &mut self.view_rng)
                    else {
                        break; // adjacency topologies: the view just shrinks
                    };
                    if y != h
                        && self.alive.contains(y)
                        && self.partition.allows(h, y)
                        && !self.views.has_member(h, y)
                    {
                        self.views.push_slot(h, y);
                        break;
                    }
                }
            }
        }
        self.holder_buf = holders;
        self.victims = victims;
        for _ in 0..joins {
            let id = self.spawn_node(now_ms, drain);
            if self.views_ready {
                self.assign_view(id);
                self.introduce(id);
            }
        }
    }

    /// Splice a joined node into a handful of existing views so inbound
    /// gossip reaches it (its own fresh view covers the outbound side).
    /// Targets come from the topology's repair draw, so a clustered join
    /// is introduced to clique-mates, a uniform join to anyone — and
    /// adjacency topologies (grid, trace) get no artificial inbound
    /// links: their neighbors notice the newcomer at the next refresh.
    fn introduce(&mut self, id: NodeId) {
        let want = INTRODUCTIONS.min(self.cfg.view_size).min(self.alive.len().saturating_sub(1));
        let mut done = 0;
        let mut tries = 0;
        while done < want && tries < want * 4 {
            tries += 1;
            let Some(h) = self.membership.repair_peer(id, &self.alive, &mut self.view_rng) else {
                break;
            };
            if h == id
                || !self.alive.contains(h)
                || !self.partition.allows(h, id)
                || self.views.has_member(h, id)
            {
                continue;
            }
            if self.views.view_len(h) < self.cfg.view_size {
                self.views.push_slot(h, id);
            } else {
                let slot = self.view_rng.gen_range(0..self.views.view_len(h));
                self.views.replace_slot(h, slot, id);
            }
            done += 1;
        }
    }
}
