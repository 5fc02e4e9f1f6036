//! Per-layer probes: the benchmark's own code around public calls of
//! each layer, on inputs shaped like the named workload (paper sketch
//! geometry, 64 bins × `width_for(n)`; the workload's protocol,
//! membership and population). Times are per operation; counts repeat
//! exactly for one (workload, seed).
//!
//! Engine-level probes (`node.loopback`, `node.shard`, `node.service`)
//! cap their population so a traced run stays inside its time budget;
//! the caps are part of the metric's definition and printed with it.

use crate::alloc::allocs;
use crate::checks::Checks;
use crate::measure::{metric, Metric};
use crate::spans::Tracer;
use crate::workloads::{self, Carrier, Kind, ServeWorkload, Workload};
use crate::{serve, stats};
use dynagg_core::config::ResetConfig;
use dynagg_core::count_sketch_reset::CountSketchReset;
use dynagg_core::epoch::DriftModel;
use dynagg_core::mass::Mass;
use dynagg_core::protocol::{NodeId, PeerSampler, PushProtocol, RoundCtx};
use dynagg_core::push_sum_revert::PushSumRevert;
use dynagg_core::wire::WireMessage;
use dynagg_node::transport::{decode_datagram, encode_datagram, Transport};
use dynagg_node::{
    AsyncConfig, AsyncNet, ChannelMesh, Envelope, EventQueue, EventSched, HeapQueue, LatencyModel,
    NodeRuntime, RecvFrame, RuntimeConfig, ShardedNet, UdpMesh, ViewTable, VirtualService,
};
use dynagg_scenario::{Engine, EnvSpec, ProtocolSpec, ScenarioSpec};
use dynagg_sim::env::{ClusteredEnv, UniformEnv};
use dynagg_sim::{runner, AliveSet, FailureSpec, Membership, ShardMap, Truth};
use dynagg_sketch::age::AgeMatrix;
use dynagg_sketch::reference::RefAgeMatrix;
use dynagg_sketch::{codec, Cutoff, SplitMix64};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// What a workload looks like to the probes.
pub struct Shape {
    pub seed: u64,
    pub n: usize,
    /// Sketch register width for this population (paper geometry).
    pub width: u8,
    /// Whether the workload gossips age matrices (else masses).
    pub sketch: bool,
    pub lambda: f64,
    /// Whether the workload runs on a lockstep engine (else async or live).
    pub lockstep: bool,
    /// `(clusters, migration, bridge)` of the clustered membership the
    /// workload uses, or the `sharded_avg` file's for the others.
    pub clustered: (u32, f64, f64),
    /// Whether that clustered membership is the workload's own.
    pub own_clustered: bool,
    /// The workload's failure plan; the lockstep probe moves its round
    /// to just after the steps it times.
    pub failure: FailureSpec,
    /// The scenario file the `scenario` probes parse: the workload's own,
    /// or `async_churn`'s for the serve workloads, which do not pass
    /// through the scenario layer.
    pub scenario_toml: &'static str,
}

/// Steps a lockstep probe runs before it times anything: long enough
/// for sketches to fill, so the timed steps are steady-state ones.
const WARM_ROUNDS: u64 = 10;
/// Steps a lockstep or membership probe times.
const TIMED_ROUNDS: u64 = 3;
/// Bins of the paper's sketch geometry.
const BINS: u32 = 64;
/// Membership-view size every engine uses.
const VIEW: usize = 64;

impl Shape {
    pub fn of(w: &Workload, seed: u64) -> Shape {
        let file_of = |name: &str| match workloads::find(name).expect("named workload").kind {
            Kind::Sim(s) => s,
            Kind::Serve(_) => unreachable!("simulator workload"),
        };
        let clustered_of = |spec: &ScenarioSpec| match spec.env {
            EnvSpec::Clustered { clusters, migration, bridge, .. } => {
                Some((clusters, migration, bridge))
            }
            _ => None,
        };
        let default_clusters =
            clustered_of(&file_of("sharded_avg").spec(seed)).expect("sharded_avg is clustered");
        match &w.kind {
            Kind::Sim(s) => {
                let spec = s.spec(seed);
                let n = spec.n.expect("workloads name their population");
                let (sketch, lambda) = match spec.protocol {
                    ProtocolSpec::PushSumRevert { lambda } => (false, lambda),
                    ProtocolSpec::CountSketchReset { .. } => (true, 0.0),
                    ref other => unreachable!("no workload runs {}", other.name()),
                };
                Shape {
                    seed,
                    n,
                    width: dynagg_sketch::estimate::width_for(n as u64, BINS),
                    sketch,
                    lambda,
                    lockstep: spec.engine != Engine::Async,
                    clustered: clustered_of(&spec).unwrap_or(default_clusters),
                    own_clustered: clustered_of(&spec).is_some(),
                    failure: spec.failure,
                    scenario_toml: s.toml,
                }
            }
            Kind::Serve(s) => Shape {
                seed,
                n: s.nodes,
                width: dynagg_sketch::estimate::width_for(s.nodes as u64, BINS),
                sketch: false,
                lambda: s.lambda,
                lockstep: false,
                clustered: default_clusters,
                own_clustered: false,
                failure: FailureSpec::AtRound {
                    round: 0,
                    mode: dynagg_sim::FailureMode::Random,
                    fraction: s.chaos_fraction,
                    graceful: false,
                },
                scenario_toml: file_of("async_churn").toml,
            },
        }
    }

    /// Population of the engine-level probes.
    pub fn engine_pop(&self) -> usize {
        self.n.min(if self.sketch { 2_000 } else { 20_000 })
    }

    fn reset_config(&self) -> ResetConfig {
        ResetConfig::paper(self.n as u64, self.seed ^ 0x5E7C)
    }

    /// A sketch host mid-run: its own identifier plus the converged
    /// network's bits as hearsay.
    fn converged_host(&self, host: u64, network_bits: &AgeMatrix) -> CountSketchReset {
        let mut p = CountSketchReset::counting(self.reset_config(), host);
        p.absorb(network_bits);
        p
    }

    /// Every host's identifier claimed into one matrix, then released:
    /// what gossip has spread to everyone once the network has converged.
    fn network_bits(&self) -> AgeMatrix {
        let h = SplitMix64::new(self.reset_config().sketch.hash_seed);
        let mut bits = AgeMatrix::new(BINS, self.width);
        for id in 0..self.n as u64 {
            bits.claim_id(&h, id);
        }
        bits.release_all();
        bits
    }
}

/// Time slice of one micro probe.
const SLICE: Duration = Duration::from_millis(30);
/// Alternations of an interleaved ratio probe.
const ALTERNATIONS: usize = 5;
/// Nominal rounds an engine-level probe simulates.
const ENGINE_ROUNDS: u64 = 10;

/// Run `f` in batches for about `slice`; nanoseconds and allocations per
/// call.
fn per_op(slice: Duration, mut f: impl FnMut()) -> (f64, f64) {
    let alloc0 = allocs();
    let mut ops = 0u64;
    let t = Instant::now();
    loop {
        for _ in 0..32 {
            f();
        }
        ops += 32;
        if t.elapsed() >= slice {
            break;
        }
    }
    let ns = t.elapsed().as_nanos() as f64;
    (ns / ops as f64, (allocs() - alloc0) as f64 / ops as f64)
}

/// Two implementations timed alternately in short slices, so allocator
/// and cache drift hit both equally: median ns per call of each.
fn interleaved(mut a: impl FnMut(), mut b: impl FnMut()) -> (f64, f64) {
    let (mut ta, mut tb) = (Vec::new(), Vec::new());
    for _ in 0..ALTERNATIONS {
        ta.push(per_op(SLICE / ALTERNATIONS as u32 * 2, &mut a).0);
        tb.push(per_op(SLICE / ALTERNATIONS as u32 * 2, &mut b).0);
    }
    (stats::median(&ta), stats::median(&tb))
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// A sampler that always names one peer: the `core` probes time the
/// protocol step alone; partner sampling is `sim.membership`'s number.
struct OnePeer(NodeId);

impl PeerSampler for OnePeer {
    fn sample(&mut self, _rng: &mut SmallRng) -> Option<NodeId> {
        Some(self.0)
    }
    fn degree(&self) -> usize {
        1
    }
    fn neighbors(&mut self, _rng: &mut SmallRng, out: &mut Vec<NodeId>) {
        out.push(self.0);
    }
}

/// Every per-layer metric, in `BENCHMARK.json` order, except the ones
/// the traced drive itself supplies (`workload.*`, `trace.*`).
pub fn probe_all(shape: &Shape, checks: &mut Checks) -> Vec<Metric> {
    let mut out = Vec::new();
    out.extend(sketch_layer(shape));
    out.extend(core_layer(shape));
    out.extend(sim_layer(shape));
    out.extend(event_layer(shape));
    out.extend(runtime_layer(shape));
    let (loopback, view_counts) = loopback_layer(shape, checks);
    out.extend(views_layer(shape, view_counts));
    out.extend(loopback);
    out.extend(shard_layer(shape, checks));
    out.extend(transport_layer(shape));
    out.extend(service_layer(shape, checks));
    out.extend(scenario_layer(shape));
    out
}

// ---------------------------------------------------------------- sketch

/// A gossip-shaped matrix pair: mostly hearsay counters, one owned cell,
/// a converged partner — driven through identical histories on the lazy
/// matrix and the eager reference.
fn sketch_pair(shape: &Shape) -> [(AgeMatrix, RefAgeMatrix); 2] {
    let h = SplitMix64::new(shape.seed);
    let ids = shape.n as u64;
    let build = |offset: u64| {
        let mut lazy = AgeMatrix::new(BINS, shape.width);
        let mut eager = RefAgeMatrix::new(BINS, shape.width);
        for id in 0..ids {
            lazy.claim_id(&h, id + offset);
            eager.claim_id(&h, id + offset);
        }
        lazy.release_all();
        eager.release_all();
        lazy.claim_id(&h, ids * 1000 + offset);
        eager.claim_id(&h, ids * 1000 + offset);
        for _ in 0..10 {
            lazy.tick();
            eager.tick();
        }
        (lazy, eager)
    };
    [build(0), build(ids / 2)]
}

fn sketch_layer(shape: &Shape) -> Vec<Metric> {
    let [(a, ref_a), (b, ref_b)] = sketch_pair(shape);
    let cutoff = Cutoff::paper_uniform();

    let mut m = a.clone();
    let (tick_ns, _) = per_op(SLICE, || m.tick());

    // Aligned clocks (the lockstep case) against the eager reference.
    let mut lazy = a.clone();
    let mut eager = ref_a.clone();
    let (merge_ns, ref_merge_ns) =
        interleaved(|| lazy.merge_min(black_box(&b)), || eager.merge_min(black_box(&ref_b)));

    // A peer three ticks ahead: stamps are translated by the clock delta.
    let mut ahead = b.clone();
    for _ in 0..3 {
        ahead.tick();
    }
    let mut m = a.clone();
    let (merge_drift_ns, _) = per_op(SLICE, || m.merge_min(black_box(&ahead)));
    let (merged_with_ns, _) = per_op(SLICE, || {
        black_box(a.merged_with(black_box(&b)));
    });
    let (estimate_ns, _) = per_op(SLICE, || {
        black_box(black_box(&a).estimate(&cutoff));
    });

    // A changed matrix misses the encode memo. `merge_min` bumps the
    // version without changing a converged matrix, so time merge+encode
    // and take the merge back out.
    let mut m = a.clone();
    m.merge_min(&b);
    let mut buf = Vec::new();
    let (merge_encode_ns, _) = per_op(SLICE, || {
        m.merge_min(&b);
        buf.clear();
        codec::encode_ages_into(&m, &mut buf);
    });
    let (remerge_ns, _) = per_op(SLICE, || m.merge_min(&b));
    let (encode_memo_ns, _) = per_op(SLICE, || {
        buf.clear();
        codec::encode_ages_into(black_box(&m), &mut buf);
    });
    let frame = codec::encode_ages(&m);
    let (decode_ns, _) = per_op(SLICE, || {
        black_box(codec::decode_ages(black_box(&frame)).expect("own encoding decodes"));
    });

    let mut p = a.bit_view(&cutoff);
    let q = b.bit_view(&cutoff);
    let (pcsa_merge_ns, _) = per_op(SLICE, || p.merge(black_box(&q)));

    vec![
        metric("sketch.age.tick_ns", tick_ns, "ns"),
        metric("sketch.age.merge_ns", merge_ns, "ns"),
        metric("sketch.age.merge_drift_ns", merge_drift_ns, "ns"),
        metric("sketch.age.merged_with_ns", merged_with_ns, "ns"),
        metric("sketch.age.estimate_ns", estimate_ns, "ns"),
        // Merges per second, lazy over eager reference (the BENCH_7 debt).
        metric("sketch.age.lazy_vs_ref_merge", ref_merge_ns / merge_ns, "ratio"),
        metric("sketch.codec.encode_ns", (merge_encode_ns - remerge_ns).max(0.0), "ns"),
        metric("sketch.codec.encode_memo_ns", encode_memo_ns, "ns"),
        metric("sketch.codec.decode_ns", decode_ns, "ns"),
        metric("sketch.codec.frame_bytes", frame.len() as f64, "B"),
        metric("sketch.pcsa.merge_ns", pcsa_merge_ns, "ns"),
    ]
}

// ------------------------------------------------------------------ core

fn core_layer(shape: &Shape) -> Vec<Metric> {
    let mut rng = SmallRng::seed_from_u64(shape.seed);
    let mut peers = OnePeer(1);

    let mut psr = PushSumRevert::new(50.0, shape.lambda);
    let mut out = Vec::new();
    let (psr_round_ns, _) = per_op(SLICE, || {
        let mut ctx = RoundCtx { round: 0, rng: &mut rng, peers: &mut peers };
        out.clear();
        psr.begin_round(&mut ctx, &mut out);
        psr.end_round(&mut ctx);
    });
    let mass = Mass::averaging(42.0);
    let (psr_msg_ns, _) = per_op(SLICE, || {
        let mut ctx = RoundCtx { round: 0, rng: &mut rng, peers: &mut peers };
        black_box(psr.on_message(1, black_box(&mass), &mut ctx));
    });

    // A host whose matrix already holds the converged network's bits,
    // receiving a converged peer's snapshot (push-pull: it replies).
    let network_bits = shape.network_bits();
    let mut csr = shape.converged_host(0, &network_bits);
    let mut peer = shape.converged_host(1, &network_bits);
    let snapshot = peer.emit_snapshot();
    let mut out = Vec::new();
    let (csr_round_ns, _) = per_op(SLICE, || {
        let mut ctx = RoundCtx { round: 0, rng: &mut rng, peers: &mut peers };
        out.clear();
        csr.begin_round(&mut ctx, &mut out);
        csr.end_round(&mut ctx);
    });
    out.clear();
    let (csr_msg_ns, _) = per_op(SLICE, || {
        let mut ctx = RoundCtx { round: 0, rng: &mut rng, peers: &mut peers };
        black_box(csr.on_message(1, black_box(&snapshot), &mut ctx));
    });

    let mut buf = Vec::new();
    let (mass_encode_ns, _) = per_op(SLICE, || {
        buf.clear();
        black_box(&mass).encode(&mut buf);
    });
    let (mass_decode_ns, _) = per_op(SLICE, || {
        black_box(Mass::decode(black_box(&buf)).expect("own encoding decodes"));
    });

    vec![
        metric("core.push_sum_revert.round_ns", psr_round_ns, "ns"),
        metric("core.push_sum_revert.on_message_ns", psr_msg_ns, "ns"),
        metric("core.count_sketch_reset.round_ns", csr_round_ns, "ns"),
        metric("core.count_sketch_reset.on_message_ns", csr_msg_ns, "ns"),
        metric("core.wire.mass_encode_ns", mass_encode_ns, "ns"),
        metric("core.wire.mass_decode_ns", mass_decode_ns, "ns"),
    ]
}

// ------------------------------------------------------------------- sim

/// `(build_ms, steady ns per host-round, failure-step ms, allocs per
/// steady round)` of a lockstep simulation of protocol `P`.
fn lockstep_probe<P, F>(shape: &Shape, clustered: bool, factory: F, truth: Truth) -> [f64; 4]
where
    P: PushProtocol + 'static,
    P::Message: WireMessage,
    F: FnMut(NodeId, f64) -> P,
{
    let t = Instant::now();
    let builder = runner::builder(shape.seed);
    let builder = if clustered {
        let (clusters, migration, bridge) = shape.clustered;
        builder.environment(ClusteredEnv::new(shape.n, clusters, migration, bridge, shape.seed))
    } else {
        builder.environment(UniformEnv::new())
    };
    let mut sim = builder
        .nodes_with_paper_values(shape.n)
        .protocol(factory)
        .truth(truth)
        .failure(match shape.failure {
            // Struck right after the steady steps timed below.
            FailureSpec::AtRound { mode, fraction, graceful, .. } => {
                FailureSpec::AtRound { round: WARM_ROUNDS + TIMED_ROUNDS, mode, fraction, graceful }
            }
            FailureSpec::Churn { leave_per_round, join_per_round, .. } => FailureSpec::Churn {
                start: WARM_ROUNDS + TIMED_ROUNDS,
                leave_per_round,
                join_per_round,
            },
            FailureSpec::None => FailureSpec::None,
        })
        .build();
    let build_ms = ms(t);
    for _ in 0..WARM_ROUNDS {
        sim.step();
    }
    let alloc0 = allocs();
    let t = Instant::now();
    for _ in 0..TIMED_ROUNDS {
        sim.step();
    }
    let steady_ns = t.elapsed().as_nanos() as f64 / (TIMED_ROUNDS * shape.n as u64) as f64;
    let allocs_per_round = (allocs() - alloc0) as f64 / TIMED_ROUNDS as f64;
    let t = Instant::now();
    sim.step();
    [build_ms, steady_ns, ms(t), allocs_per_round]
}

fn sim_layer(shape: &Shape) -> Vec<Metric> {
    // The lockstep engine at the workload's population, on the
    // workload's protocol and (for sharded_avg) its clustered membership.
    let clustered = shape.own_clustered;
    let [build_ms, steady_ns, failure_ms, allocs_per_round] = if shape.sketch {
        let cfg = shape.reset_config();
        lockstep_probe(
            shape,
            clustered,
            move |id, _| CountSketchReset::counting(cfg, u64::from(id)),
            Truth::Count,
        )
    } else {
        let lambda = shape.lambda;
        lockstep_probe(shape, clustered, move |_, v| PushSumRevert::new(v, lambda), Truth::Mean)
    };

    let alive = AliveSet::full(shape.n);
    let mut rng = SmallRng::seed_from_u64(shape.seed);
    let uniform = UniformEnv::new();
    let mut node = 0;
    let (uniform_ns, _) = per_op(SLICE, || {
        node = (node + 1) % shape.n as NodeId;
        black_box(uniform.sample(node, &alive, &mut rng));
    });
    let (clusters, migration, bridge) = shape.clustered;
    let mut env = ClusteredEnv::new(shape.n, clusters, migration, bridge, shape.seed);
    let mut changed = Vec::new();
    env.advance(0, &alive, &mut changed);
    let (clustered_ns, _) = per_op(SLICE, || {
        node = (node + 1) % shape.n as NodeId;
        black_box(env.sample(node, &alive, &mut rng));
    });
    let t = Instant::now();
    for round in 1..=TIMED_ROUNDS {
        black_box(env.advance(round, &alive, &mut changed));
    }
    let advance_ms = ms(t) / TIMED_ROUNDS as f64;

    vec![
        metric("sim.runner.step_steady_ns_per_host", steady_ns, "ns"),
        metric("sim.runner.step_failure_ms", failure_ms, "ms"),
        metric("sim.runner.build_ms", build_ms, "ms"),
        metric("sim.membership.uniform_sample_ns", uniform_ns, "ns"),
        metric("sim.membership.clustered_sample_ns", clustered_ns, "ns"),
        metric("sim.membership.clustered_advance_ms", advance_ms, "ms"),
        metric("sim.runner.allocs_per_round", allocs_per_round, "count"),
    ]
}

// ------------------------------------------------------------ node.event

/// Pop-and-reschedule with the population pending: the engines' timer
/// pattern (mostly near-future, an occasional far jump).
fn queue_mix<Q: EventSched<u64>>(q: &mut Q, rng: &mut SmallRng, op: &mut u64) {
    let (at, id) = q.pop().expect("population held steady");
    *op += 1;
    let far = u64::from(op.is_multiple_of(97)) * 70_000;
    q.schedule(at + 1 + rng.gen_range(0..250u64) + far, id);
}

fn event_layer(shape: &Shape) -> Vec<Metric> {
    let mut rng = SmallRng::seed_from_u64(shape.seed);
    let mut wheel = EventQueue::with_capacity(shape.n);
    let mut heap = HeapQueue::with_capacity(shape.n);
    for i in 0..shape.n as u64 {
        let at = rng.gen_range(0..1_000u64);
        wheel.schedule(at, i);
        heap.schedule(at, i);
    }
    let (mut wheel_rng, mut heap_rng) = (rng.clone(), rng);
    let (mut wheel_op, mut heap_op) = (0u64, 0u64);
    let (wheel_ns, heap_ns) = interleaved(
        || queue_mix(&mut wheel, &mut wheel_rng, &mut wheel_op),
        || queue_mix(&mut heap, &mut heap_rng, &mut heap_op),
    );
    let (_, allocs_per_event) =
        per_op(SLICE, || queue_mix(&mut wheel, &mut wheel_rng, &mut wheel_op));
    vec![
        metric("node.event.wheel_ns", wheel_ns, "ns"),
        metric("node.event.heap_ns", heap_ns, "ns"),
        // Events per second, wheel over heap reference.
        metric("node.event.wheel_vs_heap", heap_ns / wheel_ns, "ratio"),
        metric("node.event.allocs_per_event", allocs_per_event, "count"),
    ]
}

// ---------------------------------------------------------- node.runtime

fn runtime_probe<P>(mut factory: impl FnMut(NodeId) -> P) -> [f64; 3]
where
    P: PushProtocol,
    P::Message: WireMessage,
{
    const INTERVAL_MS: u64 = 100;
    let peers: Vec<NodeId> = (1..=VIEW as NodeId).collect();
    let mut a = NodeRuntime::new(RuntimeConfig::for_node(0, INTERVAL_MS), factory(0));
    let mut b = NodeRuntime::new(RuntimeConfig::for_node(1, INTERVAL_MS), factory(1));
    a.set_peers(&peers);
    b.set_peers(&[0]);
    let mut out: Vec<Envelope> = Vec::new();
    let mut now = a.next_tick_ms();
    let (poll_ns, _) = per_op(SLICE, || {
        a.poll(now, &mut out);
        now += INTERVAL_MS;
        for env in out.drain(..) {
            a.recycle_buffer(env.payload);
        }
    });
    a.poll(now, &mut out);
    let frame = out.pop().expect("a round with peers emits a frame").payload;
    let (handle_ns, _) = per_op(SLICE, || {
        if let Some(reply) = b.handle(0, black_box(&frame)).expect("own frame decodes") {
            b.recycle_buffer(reply.payload);
        }
    });
    [poll_ns, handle_ns, frame.len() as f64]
}

fn runtime_layer(shape: &Shape) -> Vec<Metric> {
    let [poll_ns, handle_ns, frame_bytes] = if shape.sketch {
        let network_bits = shape.network_bits();
        runtime_probe(|id| shape.converged_host(u64::from(id), &network_bits))
    } else {
        runtime_probe(|id| PushSumRevert::new(f64::from(id), shape.lambda))
    };
    vec![
        metric("node.runtime.poll_ns", poll_ns, "ns"),
        metric("node.runtime.handle_ns", handle_ns, "ns"),
        metric("node.runtime.frame_bytes", frame_bytes, "B"),
    ]
}

// ------------------------------------------------------------ node.views

fn views_layer(shape: &Shape, (slots_patched, full_assignments): (u64, u64)) -> Vec<Metric> {
    let n = shape.n;
    let mut rng = SmallRng::seed_from_u64(shape.seed);
    let alive = AliveSet::full(n);
    let env = UniformEnv::new();
    let mut table = ViewTable::new();
    table.ensure(n);
    let mut view = Vec::new();
    for node in 0..n as NodeId {
        env.view_into(node, &alive, VIEW, &mut rng, &mut view);
        table.assign(node, &view);
    }
    // Re-assign a view over an existing one: the full-rebuild path.
    let mut node = 0;
    let (assign_ns, _) = per_op(SLICE, || {
        node = (node + 1) % n as NodeId;
        env.view_into(node, &alive, VIEW, &mut rng, &mut view);
        table.assign(node, &view);
    });
    // Departure repair: walk only the holders of the departed node and
    // refill each slot with a fresh sample, as the engines do.
    let mut holders = Vec::new();
    let mut slots = 0u64;
    let mut departed = 0;
    let t = Instant::now();
    while t.elapsed() < SLICE {
        departed = (departed + 1) % n as NodeId;
        table.take_holders_into(departed, &mut holders);
        for &holder in &holders {
            table.drop_slot(holder, departed);
            if let Some(fresh) = env.repair_peer(holder, &alive, &mut rng) {
                if fresh != holder {
                    table.push_slot(holder, fresh);
                }
            }
            slots += 1;
        }
    }
    let patch_ns = t.elapsed().as_nanos() as f64 / slots.max(1) as f64;
    vec![
        metric("node.views.assign_ns", assign_ns, "ns"),
        metric("node.views.patch_ns", patch_ns, "ns"),
        metric("node.views.slots_patched", slots_patched as f64, "count"),
        metric("node.views.full_assignments", full_assignments as f64, "count"),
    ]
}

// --------------------------------------------------------- node.loopback

fn engine_config(shape: &Shape) -> AsyncConfig {
    let mut cfg = AsyncConfig::new(shape.seed);
    cfg.latency = LatencyModel::Uniform { lo_ms: 5, hi_ms: 30 };
    cfg
}

/// One engine-probe population of the workload's protocol on `AsyncNet`,
/// or on `ShardedNet` when `shards` is given.
macro_rules! engine_net {
    ($shape:expr, $net:ident $(, $map:expr)?) => {{
        let shape: &Shape = $shape;
        let n = shape.engine_pop();
        let values = Box::new(|rng: &mut SmallRng, _| rng.gen_range(0.0..100.0));
        let drift = Box::new(|_| DriftModel::Synced);
        if shape.sketch {
            let cfg = shape.reset_config();
            EngineNet::Sketch($net::new(
                n,
                engine_config(shape),
                $($map,)?
                Box::new(|_, _| 1.0),
                drift,
                Box::new(move |id, _| CountSketchReset::counting(cfg, u64::from(id))),
            ).with_truth(Truth::Count))
        } else {
            let lambda = shape.lambda;
            EngineNet::Mass($net::new(
                n,
                engine_config(shape),
                $($map,)?
                values,
                drift,
                Box::new(move |_, v| PushSumRevert::new(v, lambda)),
            ))
        }
    }};
}

enum EngineNet<M, S> {
    Mass(M),
    Sketch(S),
}

type Loopback = EngineNet<AsyncNet<PushSumRevert>, AsyncNet<CountSketchReset>>;
type Sharded = EngineNet<ShardedNet<PushSumRevert>, ShardedNet<CountSketchReset>>;

/// `(wall seconds, events, slots patched, full assignments)` of one
/// `AsyncNet::run` under `failure`.
fn loopback_run(shape: &Shape, failure: FailureSpec) -> (f64, f64, u64, u64, u64) {
    let t = Instant::now();
    let net: Loopback = engine_net!(shape, AsyncNet);
    let spawn_ms = ms(t);
    macro_rules! go {
        ($net:expr) => {{
            let mut net = $net.with_failure(failure);
            let t = Instant::now();
            net.run(ENGINE_ROUNDS);
            (
                spawn_ms,
                t.elapsed().as_secs_f64(),
                net.events_processed(),
                net.view_slots_patched(),
                net.full_view_assignments(),
            )
        }};
    }
    match net {
        EngineNet::Mass(net) => go!(net),
        EngineNet::Sketch(net) => go!(net),
    }
}

fn loopback_layer(shape: &Shape, checks: &mut Checks) -> (Vec<Metric>, (u64, u64)) {
    let (spawn_ms, steady_s, events, _, _) = loopback_run(shape, FailureSpec::None);
    let churn = FailureSpec::Churn { start: 0, leave_per_round: 0.01, join_per_round: 0.01 };
    let (_, churn_s, churn_events, patched, assigned) = loopback_run(shape, churn);
    checks.check(events > 0 && churn_events > 0, || "an engine probe processed no events".into());
    let metrics = vec![
        metric("node.loopback.spawn_ms", spawn_ms, "ms"),
        metric("node.loopback.steady_ns_per_event", steady_s * 1e9 / events as f64, "ns"),
        metric("node.loopback.churn_ns_per_event", churn_s * 1e9 / churn_events as f64, "ns"),
        metric("node.loopback.events", events as f64, "count"),
        metric("node.loopback.events_per_s", events as f64 / steady_s, "1/s"),
    ];
    (metrics, (patched, assigned))
}

// ------------------------------------------------------------ node.shard

/// `(spawn ms, wall seconds, events, horizon violations)` of one
/// `ShardedNet::run` on `shards` shards.
fn shard_run(shape: &Shape, shards: usize) -> (f64, f64, u64, u64) {
    let t = Instant::now();
    let net: Sharded =
        engine_net!(shape, ShardedNet, ShardMap::uniform(shape.engine_pop(), shards));
    let spawn_ms = ms(t);
    macro_rules! go {
        ($net:expr) => {{
            let mut net = $net;
            let t = Instant::now();
            net.run(ENGINE_ROUNDS);
            (spawn_ms, t.elapsed().as_secs_f64(), net.events_processed(), net.horizon_violations())
        }};
    }
    match net {
        EngineNet::Mass(net) => go!(net),
        EngineNet::Sketch(net) => go!(net),
    }
}

fn shard_layer(shape: &Shape, checks: &mut Checks) -> Vec<Metric> {
    // k = 1 against the sequential engine, alternately, on one workload.
    let (mut seq_ns, mut k1_ns) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        let (_, s, events, _, _) = loopback_run(shape, FailureSpec::None);
        seq_ns.push(s * 1e9 / events as f64);
        let (_, s, events, _) = shard_run(shape, 1);
        k1_ns.push(s * 1e9 / events as f64);
    }
    let (spawn_ms, k2_s, k2_events, violations) = shard_run(shape, 2);
    checks.check(violations == 0, || format!("{violations} horizon violations at 2 shards"));
    let (seq_ns, k1_ns) = (stats::median(&seq_ns), stats::median(&k1_ns));
    vec![
        metric("node.shard.spawn_ms", spawn_ms, "ms"),
        metric("node.shard.k1_ns_per_event", k1_ns, "ns"),
        metric("node.shard.k2_ns_per_event", k2_s * 1e9 / k2_events as f64, "ns"),
        // Events per second, one shard over the sequential engine.
        metric("node.shard.k1_vs_seq", seq_ns / k1_ns, "ratio"),
        metric("node.shard.horizon_violations", violations as f64, "count"),
    ]
}

// -------------------------------------------------------- node.transport

/// Frames offered per burst: small enough that a loopback socket buffer
/// holds a whole burst until it is drained.
const BURST: usize = 64;

/// Nanoseconds per frame through `transport` (send then receive, in
/// bursts), and `(sent, received)`.
fn carrier_probe<T: Transport>(mut transport: T, universe: usize) -> (f64, u64, u64) {
    for node in 0..universe as NodeId {
        transport.bind(node, 0);
    }
    let mut payload = vec![0u8; dynagg_node::runtime::FRAME_HEADER_BYTES];
    Mass::averaging(1.0).encode(&mut payload);
    let mut spare: Vec<Vec<u8>> = (0..BURST).map(|_| payload.clone()).collect();
    let mut inbox: Vec<RecvFrame> = Vec::new();
    let (mut sent, mut received) = (0u64, 0u64);
    let mut to = 0;
    let t = Instant::now();
    while t.elapsed() < SLICE * 2 {
        for _ in 0..BURST {
            to = (to + 1) % universe as NodeId;
            let payload = spare.pop().unwrap_or_else(|| payload.clone());
            sent += 1;
            if let Some(buf) = transport.send(Envelope { from: 0, to, payload, raw_bytes: 16 }) {
                spare.push(buf);
            }
        }
        transport.recv_wait(Duration::from_millis(1), &mut inbox);
        received += inbox.len() as u64;
        spare.extend(inbox.drain(..).map(|f| f.payload));
    }
    let ns = t.elapsed().as_nanos() as f64 / sent as f64;
    // Whatever is still in flight, outside the timed region.
    while transport.recv_wait(Duration::from_millis(20), &mut inbox) > 0 {
        received += inbox.len() as u64;
        inbox.clear();
    }
    (ns, sent, received)
}

fn transport_layer(shape: &Shape) -> Vec<Metric> {
    let universe = shape.n;
    let (channel_ns, _, _) = carrier_probe(ChannelMesh::new(1, universe).remove(0), universe);
    let udp = UdpMesh::new(1, universe).expect("bind a loopback UDP socket").remove(0);
    let (udp_ns, sent, received) = carrier_probe(udp, universe);

    let mut payload = vec![0u8; dynagg_node::runtime::FRAME_HEADER_BYTES];
    Mass::averaging(1.0).encode(&mut payload);
    let env = Envelope { from: 0, to: 1, payload, raw_bytes: 16 };
    let mut dgram = Vec::new();
    let (encode_ns, _) = per_op(SLICE, || encode_datagram(black_box(&env), &mut dgram));
    let (decode_ns, _) = per_op(SLICE, || {
        black_box(decode_datagram(black_box(&dgram), universe));
    });
    vec![
        metric("node.transport.channel_ns_per_frame", channel_ns, "ns"),
        metric("node.transport.udp_ns_per_datagram", udp_ns, "ns"),
        metric("node.transport.datagram_encode_ns", encode_ns, "ns"),
        metric("node.transport.datagram_decode_ns", decode_ns, "ns"),
        metric("node.transport.udp_loss_pct", 100.0 * (sent - received) as f64 / sent as f64, "%"),
    ]
}

// ---------------------------------------------------------- node.service

/// The service probe every workload shares: `serve_inproc`'s file for
/// one second with the reader at 250 calls/s, so the percentiles rest
/// on over 200 samples.
fn service_probe_workload() -> ServeWorkload {
    let Kind::Serve(mut w) = workloads::find("serve_inproc").expect("named workload").kind else {
        unreachable!("serve_inproc is a serve workload");
    };
    w.snapshot_every_ms = 4;
    debug_assert_eq!(w.carrier, Carrier::Inproc);
    w
}

const SERVICE_PROBE_SECONDS: f64 = 1.0;

fn service_layer(shape: &Shape, checks: &mut Checks) -> Vec<Metric> {
    let w = service_probe_workload();
    let run = serve::run_window(
        "node.service",
        &w,
        shape.seed,
        SERVICE_PROBE_SECONDS,
        &mut Tracer::new(false),
        checks,
    );

    // The same runtimes under a virtual clock: loop capacity, never
    // sleeping.
    let pop = shape.n.min(20_000);
    let mut cfg = AsyncConfig::new(shape.seed);
    cfg.latency = LatencyModel::Constant { ms: 0 };
    let lambda = shape.lambda;
    let mut svc: VirtualService<PushSumRevert, _> = VirtualService::new(
        &cfg,
        pop,
        Box::new(|rng, _| rng.gen_range(0.0..100.0)),
        Box::new(|_| DriftModel::Synced),
        Box::new(move |_, v| PushSumRevert::new(v, lambda)),
        ChannelMesh::new(1, pop).remove(0),
    );
    let t = Instant::now();
    svc.run_until(ENGINE_ROUNDS * cfg.interval_ms);
    let virtual_ns = t.elapsed().as_nanos() as f64 / svc.events_processed() as f64;
    checks.check(svc.decode_errors == 0, || {
        format!("{} decode errors under the virtual clock", svc.decode_errors)
    });

    vec![
        metric("node.service.start_ms", run.start_ms, "ms"),
        metric("node.service.virtual_ns_per_event", virtual_ns, "ns"),
        metric("node.service.snapshot_p50_us", stats::median(&run.snapshot_us), "us"),
        metric("node.service.snapshot_p95_us", stats::quantile(&run.snapshot_us, 0.95), "us"),
        metric("node.service.set_values_us_per_batch", stats::median(&run.set_values_us), "us"),
        metric("node.service.polls", run.report.polls as f64, "count"),
        metric("node.service.frames_in", run.report.frames_in as f64, "count"),
        metric("node.service.frames_out", run.report.frames_out as f64, "count"),
    ]
}

// -------------------------------------------------------------- scenario

fn scenario_layer(shape: &Shape) -> Vec<Metric> {
    let text = format!("seed = {}\n{}", shape.seed, shape.scenario_toml);
    let (parse_ns, _) = per_op(SLICE, || {
        black_box(ScenarioSpec::from_toml_str(black_box(&text)).expect("workload files parse"));
    });
    let spec = ScenarioSpec::from_toml_str(&text).expect("workload files parse");
    let (validate_ns, _) = per_op(SLICE, || {
        black_box(&spec).validate().expect("workload specs validate");
    });
    let n = spec.n.expect("workloads name their population");
    let t = Instant::now();
    black_box(dynagg_scenario::build_env(&spec.env, n, shape.seed));
    vec![
        metric("scenario.parse_us", parse_ns / 1e3, "us"),
        metric("scenario.validate_us", validate_ns / 1e3, "us"),
        metric("scenario.build_env_ms", ms(t), "ms"),
    ]
}
