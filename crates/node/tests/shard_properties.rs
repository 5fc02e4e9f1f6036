//! Property tests for the sharded engine's two headline invariants:
//!
//! * **shard-count invariance** — over arbitrary topology / latency /
//!   drift / churn specs (global and group truths), a [`ShardedNet`]
//!   produces a bit-identical [`Series`] at every shard count — and ends
//!   with identical membership views, which the coordinator owns and the
//!   workers only borrow, and
//! * **conservative safety** — no cross-shard frame is ever ingested
//!   below its window's horizon, and active partitions gate cross-shard
//!   frames exactly like local ones (a frame sent across an active cut
//!   is dropped at send, on both engines).

use dynagg_core::config::ResetConfig;
use dynagg_core::count_sketch_reset::CountSketchReset;
use dynagg_core::epoch::DriftModel;
use dynagg_core::protocol::NodeId;
use dynagg_core::push_sum_revert::PushSumRevert;
use dynagg_node::{AsyncConfig, AsyncNet, LatencyModel, ShardedNet};
use dynagg_sim::env::{ClusteredEnv, SpatialEnv, TraceEnv, UniformEnv};
use dynagg_sim::membership::Membership;
use dynagg_sim::metrics::{Series, Truth};
use dynagg_sim::partition::{resolve, Island, PartitionEvent, PartitionTable, TopologyInfo};
use dynagg_sim::shard::ShardMap;
use dynagg_sim::FailureSpec;
use dynagg_trace::model::{TraceModel, TraceModelConfig};
use proptest::prelude::*;
use proptest::strategy::Just;
use rand::Rng;

/// Which membership/topology layer a generated spec runs on. `Trace` is
/// a generated contact trace — the group-aware topology, sampled against
/// [`Truth::GroupMean`] so the shared sampler's group-truth path is
/// under test too.
#[derive(Debug, Clone, Copy)]
enum Topo {
    Uniform,
    Clustered { clusters: u32 },
    Spatial,
    Trace,
}

/// One generated spec: everything that parameterizes a run except the
/// shard count — the variable under test.
#[derive(Debug, Clone, Copy)]
struct Spec {
    seed: u64,
    n: usize,
    topo: Topo,
    latency: LatencyModel,
    drift_rate: f64,
    loss: f64,
    churn: Option<(f64, f64)>,
    rounds: u64,
}

fn topo_strategy() -> impl Strategy<Value = Topo> {
    prop_oneof![
        Just(Topo::Uniform),
        (2u32..5).prop_map(|clusters| Topo::Clustered { clusters }),
        Just(Topo::Spatial),
        Just(Topo::Trace),
    ]
}

/// Latency models with a positive lower bound (the sharded engine's
/// admission requirement).
fn latency_strategy() -> impl Strategy<Value = LatencyModel> {
    prop_oneof![
        (1u64..40).prop_map(|ms| LatencyModel::Constant { ms }),
        (1u64..20, 0u64..40)
            .prop_map(|(lo, extra)| LatencyModel::Uniform { lo_ms: lo, hi_ms: lo + extra }),
    ]
}

fn spec_strategy() -> impl Strategy<Value = Spec> {
    (
        any::<u64>(),
        40usize..120,
        topo_strategy(),
        latency_strategy(),
        0.85f64..1.15,
        0.0f64..0.2,
        proptest::option::of((0.0f64..0.08, 0.0f64..0.08)),
        6u64..20,
    )
        .prop_map(|(seed, n, topo, latency, drift_rate, loss, churn, rounds)| Spec {
            seed,
            n,
            topo,
            latency,
            drift_rate,
            loss,
            churn,
            rounds,
        })
}

fn membership_for(spec: &Spec) -> Box<dyn Membership> {
    match spec.topo {
        Topo::Uniform => Box::new(UniformEnv::new()),
        Topo::Clustered { clusters } => {
            Box::new(ClusteredEnv::new(spec.n, clusters, 0.01, 0.02, spec.seed))
        }
        Topo::Spatial => Box::new(SpatialEnv::for_nodes(spec.n)),
        Topo::Trace => {
            // Meetings every ~20 s around the clock, so the few minutes of
            // trace a run replays hold real multi-host groups.
            let model = TraceModelConfig {
                devices: spec.n as u16,
                duration_s: 3600,
                mean_meeting_gap_s: 20.0,
                grow_p: 0.6,
                max_meeting_size: 8,
                mean_meeting_duration_s: 300.0,
                min_meeting_duration_s: 60,
                communities: 4,
                community_bias: 0.6,
                diurnal: [1.0; 24],
            };
            Box::new(TraceEnv::paper(TraceModel::new(model, spec.seed).generate()))
        }
    }
}

fn map_for(spec: &Spec, shards: usize) -> ShardMap {
    match spec.topo {
        Topo::Uniform | Topo::Trace => ShardMap::uniform(spec.n, shards),
        Topo::Clustered { clusters } => ShardMap::clustered(spec.n, clusters, shards),
        Topo::Spatial => ShardMap::spatial(spec.n, SpatialEnv::for_nodes(spec.n).side(), shards),
    }
}

/// What one run leaves behind: the series, every live node's final view
/// (ascending id), and the horizon-violation counter.
struct Outcome {
    series: Series,
    views: Vec<(NodeId, Vec<NodeId>)>,
    horizon: u64,
}

/// Run `spec` at `shards`. Every run also checks the views ↔ holders
/// index and that no view contains its owner.
fn run_sharded(spec: &Spec, shards: usize) -> Outcome {
    let mut cfg = AsyncConfig::new(spec.seed);
    cfg.latency = spec.latency;
    cfg.loss = spec.loss;
    cfg.view_size = 12;
    let rate = spec.drift_rate;
    let mut net: ShardedNet<PushSumRevert> =
        ShardedNet::new(
            spec.n,
            cfg,
            map_for(spec, shards),
            Box::new(|rng, _| rng.gen_range(0.0..100.0)),
            Box::new(move |id| {
                if id % 3 == 0 {
                    DriftModel::ConstantSkew { rate }
                } else {
                    DriftModel::Synced
                }
            }),
            Box::new(|_, v| PushSumRevert::new(v, 0.01)),
        )
        .with_membership(membership_for(spec));
    if let Some((leave, join)) = spec.churn {
        net = net.with_failure(FailureSpec::Churn {
            start: 0,
            leave_per_round: leave,
            // A trace's group structure covers its devices only.
            join_per_round: if matches!(spec.topo, Topo::Trace) { 0.0 } else { join },
        });
    }
    if matches!(spec.topo, Topo::Trace) {
        net = net.with_truth(Truth::GroupMean);
    }
    net.run(spec.rounds);
    net.check_view_consistency();
    let views = net.live().into_iter().map(|id| (id, net.view_of(id).to_vec())).collect();
    Outcome { horizon: net.horizon_violations(), views, series: net.into_series() }
}

/// A two-island range partition `0..split | split..n`.
fn split_table(n: usize, split: usize, at: u64, heal: Option<u64>) -> PartitionTable {
    let event = PartitionEvent {
        at_round: at,
        heal_at: heal,
        islands: vec![
            Island::Range { lo: 0, hi: split as NodeId },
            Island::Range { lo: split as NodeId, hi: n as NodeId },
        ],
    };
    let resolved = resolve(&event, n, &TopologyInfo::default()).unwrap();
    PartitionTable::new(vec![resolved]).unwrap()
}

proptest! {
    /// Shard-count invariance over arbitrary specs: topology, latency
    /// distribution, clock drift, loss, and churn are all free — the
    /// series must be bit-identical at 1, 2, 3, 4, and 8 shards (3 is the
    /// first count two workers split into uneven groups), the
    /// conservative horizon must never be breached at any count, and the
    /// final views must agree: a worker that ever wrote a view it was
    /// lent would show here before it shows in a series.
    #[test]
    fn series_is_invariant_across_shard_counts(spec in spec_strategy()) {
        let base = run_sharded(&spec, 1);
        for shards in [2usize, 3, 4, 8] {
            let run = run_sharded(&spec, shards);
            prop_assert_eq!(run.horizon, 0, "horizon breached at {} shards", shards);
            prop_assert_eq!(
                &run.series, &base.series,
                "series diverged between 1 and {} shards", shards
            );
            prop_assert_eq!(
                &run.views, &base.views,
                "views diverged between 1 and {} shards", shards
            );
        }
        prop_assert_eq!(base.horizon, 0);
    }

    /// Partition gating crosses shard boundaries intact. With a split
    /// active from round 0 nothing is in flight when it fires, so not
    /// one frame may arrive across the cut — `cross_island_deliveries`
    /// stays 0 — and the contamination proof from the sequential
    /// engine's suite holds shard-side: island A holds constant 10,
    /// island B constant 90, `λ = 0`, so any estimate off its island's
    /// constant would require a frame that leaked across the boundary.
    #[test]
    fn cross_shard_frames_respect_active_partitions(
        seed: u64,
        n in 24usize..80,
        split_frac in 0.2f64..0.8,
        shards in 2usize..6,
        rounds in 4u64..24,
    ) {
        let split = ((n as f64 * split_frac) as usize).clamp(1, n - 1);
        let mut cfg = AsyncConfig::new(seed);
        cfg.view_size = 10;
        cfg.latency = LatencyModel::Uniform { lo_ms: 5, hi_ms: 30 };
        let mut net: ShardedNet<PushSumRevert> = ShardedNet::new(
            n,
            cfg,
            // Deliberately misaligned with the islands: shards slice the
            // id space differently than the partition does, so island
            // traffic is forced across shard boundaries.
            ShardMap::uniform(n, shards),
            Box::new(move |_, id| if (id as usize) < split { 10.0 } else { 90.0 }),
            Box::new(|_| DriftModel::Synced),
            Box::new(|_, v| PushSumRevert::new(v, 0.0)),
        )
        .with_partition(split_table(n, split, 0, None));
        net.run(rounds);
        net.check_view_consistency();
        prop_assert_eq!(net.horizon_violations(), 0);
        prop_assert_eq!(
            net.cross_island_deliveries(), 0,
            "a frame crossed the active cut"
        );
        for id in net.live() {
            let want = if (id as usize) < split { 10.0 } else { 90.0 };
            let got = net.node(id).estimate().unwrap();
            prop_assert!(
                (got - want).abs() < 1e-9,
                "frame leaked across the cut: node {} estimates {} (island mean {})",
                id, got, want
            );
        }
        for sample in &net.series().rounds {
            prop_assert_eq!(sample.islands, 2, "islands column reads the active split");
        }
    }

    /// A mid-run split + heal is still shard-count invariant — series,
    /// views and every field of the run's `Counters`, summed over its
    /// shards (partition transitions rebuild views on the coordinator,
    /// between windows).
    #[test]
    fn partition_and_heal_are_shard_count_invariant(
        seed: u64,
        n in 30usize..80,
        split_frac in 0.25f64..0.75,
        at in 2u64..6,
        dwell in 2u64..8,
    ) {
        let split = ((n as f64 * split_frac) as usize).clamp(2, n - 2);
        let run = |shards: usize| {
            let mut cfg = AsyncConfig::new(seed);
            cfg.view_size = 10;
            let mut net: ShardedNet<PushSumRevert> = ShardedNet::new(
                n,
                cfg,
                ShardMap::uniform(n, shards),
                Box::new(|rng, _| rng.gen_range(0.0..100.0)),
                Box::new(|_| DriftModel::Synced),
                Box::new(|_, v| PushSumRevert::new(v, 0.01)),
            )
            .with_partition(split_table(n, split, at, Some(at + dwell)));
            net.run(at + dwell + 6);
            net.check_view_consistency();
            let counters = net.counters();
            let views: Vec<Vec<NodeId>> =
                net.live().into_iter().map(|id| net.view_of(id).to_vec()).collect();
            (net.into_series(), views, counters)
        };
        let one = run(1);
        let two = run(2);
        let five = run(5);
        prop_assert_eq!(one.2.horizon_violations, 0, "horizon breached");
        prop_assert_eq!(&two, &one);
        prop_assert_eq!(&five, &one);
    }
}

/// The send-side cut, reached. Push-Sum-Revert never replies, and views
/// turn island-local at the split, so only a push-pull reply to a frame
/// that crossed before the split is sent across an active cut: both
/// engines must drop it at send, and the sharded count must not depend
/// on the shard count.
#[test]
fn a_reply_across_a_fresh_cut_is_dropped_at_send() {
    const N: usize = 60;
    let cfg = |seed| {
        let mut cfg = AsyncConfig::new(seed);
        cfg.latency = LatencyModel::Uniform { lo_ms: 5, hi_ms: 40 };
        cfg
    };
    let partition = || split_table(N, N / 2, 4, Some(10));
    for seed in 0..6u64 {
        let sketch = ResetConfig::paper(N as u64, seed);
        let mut seq: AsyncNet<CountSketchReset> = AsyncNet::new(
            N,
            cfg(seed),
            Box::new(|_, _| 1.0),
            Box::new(|_| DriftModel::Synced),
            Box::new(move |id, _| CountSketchReset::counting(sketch, u64::from(id))),
        )
        .with_partition(partition());
        seq.run(14);
        let drops = seq.counters().partition_drops;
        assert!(drops > 0, "seed {seed}: the sequential engine never dropped");
        let sharded = |shards: usize| {
            let mut net: ShardedNet<CountSketchReset> = ShardedNet::new(
                N,
                cfg(seed),
                ShardMap::uniform(N, shards),
                Box::new(|_, _| 1.0),
                Box::new(|_| DriftModel::Synced),
                Box::new(move |id, _| CountSketchReset::counting(sketch, u64::from(id))),
            )
            .with_partition(partition());
            net.run(14);
            net.counters().partition_drops
        };
        let one = sharded(1);
        assert!(one > 0, "seed {seed}: the sharded engine never dropped");
        assert_eq!(sharded(2), one, "seed {seed}: two shards");
        assert_eq!(sharded(5), one, "seed {seed}: five shards");
    }
}

/// The series and the readout are one record: a sample's traffic is the
/// difference of the drain's cumulative counters, so over a run with
/// churn, loss and a split-then-heal, Σ `messages` / `bytes` /
/// `wire_bytes` is `frames_out` / `payload_bytes` / `wire_bytes`. Exactly
/// on the sharded engine, whose last drain stops short of the horizon
/// instant that its last sample is taken at; at most on the sequential
/// one, where a timer due at that instant may fire after the sample. A
/// window dropped or counted twice by the difference breaks either.
#[test]
fn the_series_sums_to_the_counters() {
    const N: usize = 120;
    const ROUNDS: u64 = 24;
    let mut cfg = AsyncConfig::new(17);
    cfg.loss = 0.02;
    cfg.view_size = 12;
    cfg.latency = LatencyModel::Uniform { lo_ms: 5, hi_ms: 30 };
    let churn = FailureSpec::Churn { start: 0, leave_per_round: 0.02, join_per_round: 0.02 };
    let partition = || split_table(N, N / 2, 6, Some(14));
    let sums = |series: &Series| {
        let rounds = series.rounds.iter();
        rounds.fold((0, 0, 0), |(m, b, w), r| (m + r.messages, b + r.bytes, w + r.wire_bytes))
    };
    for shards in [1, 2] {
        let mut net: ShardedNet<PushSumRevert> = ShardedNet::new(
            N,
            cfg,
            ShardMap::uniform(N, shards),
            Box::new(|rng, _| rng.gen_range(0.0..100.0)),
            Box::new(|_| DriftModel::Synced),
            Box::new(|_, v| PushSumRevert::new(v, 0.01)),
        )
        .with_partition(partition())
        .with_failure(churn);
        net.run(ROUNDS);
        let c = net.counters();
        assert!(c.frames_out > 0 && c.view_slots_patched > 0, "{shards} shards: {c:?}");
        assert_eq!(
            sums(net.series()),
            (c.frames_out, c.payload_bytes, c.wire_bytes),
            "{shards} shards: the series and the counters disagree"
        );
    }
    let mut net: AsyncNet<PushSumRevert> = AsyncNet::new(
        N,
        cfg,
        Box::new(|rng, _| rng.gen_range(0.0..100.0)),
        Box::new(|_| DriftModel::Synced),
        Box::new(|_, v| PushSumRevert::new(v, 0.01)),
    )
    .with_partition(partition())
    .with_failure(churn);
    net.run(ROUNDS);
    let c = net.counters();
    let (messages, bytes, wire) = sums(net.series());
    assert!(messages > 0 && c.view_slots_patched > 0, "{c:?}");
    assert!(messages <= c.frames_out, "{messages} sampled of {} sent", c.frames_out);
    assert!(bytes <= c.payload_bytes, "{bytes} sampled of {} payload bytes", c.payload_bytes);
    assert!(wire <= c.wire_bytes, "{wire} sampled of {} wire bytes", c.wire_bytes);
}
