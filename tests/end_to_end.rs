//! Cross-crate integration tests: protocols (dynagg-core) driven through
//! the simulator (dynagg-sim) over synthetic traces (dynagg-trace) and
//! sketches (dynagg-sketch), exercised exactly the way the experiment
//! harness uses them.

use dynagg::protocols::adaptive::AdaptiveRevert;
use dynagg::protocols::config::ResetConfig;
use dynagg::protocols::count_sketch::CountSketch;
use dynagg::protocols::count_sketch_reset::CountSketchReset;
use dynagg::protocols::epoch::EpochPushSum;
use dynagg::protocols::full_transfer::FullTransfer;
use dynagg::protocols::invert_average::InvertAverage;
use dynagg::protocols::push_sum_revert::PushSumRevert;
use dynagg::sim::env::spatial::SpatialEnv;
use dynagg::sim::env::trace::TraceEnv;
use dynagg::sim::env::uniform::UniformEnv;
use dynagg::sim::{runner, FailureMode, FailureSpec, Truth};
use dynagg::sketch::cutoff::Cutoff;
use dynagg::trace::datasets::Dataset;

// ---------------------------------------------------------------------
// Averaging protocols across environments
// ---------------------------------------------------------------------

#[test]
fn push_sum_converges_in_uniform_env() {
    let series = runner::builder(101)
        .environment(UniformEnv::new())
        .nodes_with_paper_values(1_000)
        .protocol(|_, v| PushSumRevert::new(v, 0.0))
        .truth(Truth::Mean)
        .build()
        .run(35);
    assert!(series.last().unwrap().stddev < 0.5);
}

#[test]
fn push_sum_converges_in_spatial_env() {
    // Spatial gossip is slower than uniform but must still converge.
    let n = 400;
    let series = runner::builder(102)
        .environment(SpatialEnv::for_nodes(n))
        .nodes_with_paper_values(n)
        .protocol(|_, v| PushSumRevert::new(v, 0.0))
        .truth(Truth::Mean)
        .build()
        .run(80);
    assert!(
        series.last().unwrap().stddev < 5.0,
        "spatial stddev {}",
        series.last().unwrap().stddev
    );
}

#[test]
fn pairwise_beats_push_on_initial_convergence() {
    // Karp et al.: push/pull roughly halves convergence time. Compare the
    // round at which stddev first stays below 1.0.
    let push = runner::builder(103)
        .environment(UniformEnv::new())
        .nodes_with_paper_values(2_000)
        .protocol(|_, v| PushSumRevert::new(v, 0.0))
        .build()
        .run(60);
    let pairwise = runner::builder(103)
        .environment(UniformEnv::new())
        .nodes_with_paper_values(2_000)
        .protocol(|_, v| PushSumRevert::new(v, 0.0))
        .build_pairwise()
        .run(60);
    let t_push = push.converged_at(1.0).expect("push converges");
    let t_pair = pairwise.converged_at(1.0).expect("pairwise converges");
    assert!(t_pair < t_push, "push/pull ({t_pair}) should converge faster than push ({t_push})");
}

#[test]
fn revert_tracks_value_changes_at_runtime() {
    // A running aggregate must follow the data, not just membership: run
    // manually and flip every node's value mid-run via set_value.
    let mut sim = runner::builder(104)
        .environment(UniformEnv::new())
        .nodes_with_constant(300, 10.0)
        .protocol(|_, v| PushSumRevert::new(v, 0.05))
        .truth(Truth::Mean)
        .build_pairwise();
    for _ in 0..20 {
        sim.step();
    }
    assert!((sim.series().last().unwrap().mean_estimate - 10.0).abs() < 0.5);
    // NOTE: values held by the simulator's truth tracking cannot be mutated
    // through the public API (by design — values are the ground truth), so
    // this test asserts the protocol-level behaviour directly.
    let mut node = PushSumRevert::new(10.0, 0.5);
    node.set_value(90.0);
    for round in 0..20 {
        dynagg::protocols::protocol::PairwiseProtocol::end_round(&mut node, round);
    }
    assert!((dynagg::protocols::Estimator::estimate(&node).unwrap() - 90.0).abs() < 1e-3);
}

#[test]
fn full_transfer_beats_basic_revert_steady_state() {
    // Fig. 10b's point: at equal λ, full-transfer reaches a lower error
    // floor after a correlated failure.
    let lambda = 0.1;
    let basic = runner::builder(105)
        .environment(UniformEnv::new())
        .nodes_with_paper_values(2_000)
        .protocol(move |_, v| PushSumRevert::new(v, lambda))
        .truth(Truth::Mean)
        .failure(FailureSpec::paper_half_at_20(FailureMode::TopValue))
        .build()
        .run(70);
    let full = runner::builder(105)
        .environment(UniformEnv::new())
        .nodes_with_paper_values(2_000)
        .protocol(move |_, v| FullTransfer::paper(v, lambda))
        .truth(Truth::Mean)
        .failure(FailureSpec::paper_half_at_20(FailureMode::TopValue))
        .build()
        .run(70);
    let basic_floor = basic.steady_state_stddev(55);
    let full_floor = full.steady_state_stddev(55);
    assert!(
        full_floor < basic_floor,
        "full-transfer floor {full_floor:.3} should be below basic {basic_floor:.3}"
    );
}

#[test]
fn adaptive_revert_converges_under_failures() {
    let series = runner::builder(106)
        .environment(UniformEnv::new())
        .nodes_with_paper_values(1_000)
        .protocol(|_, v| AdaptiveRevert::new(v, 0.05))
        .truth(Truth::Mean)
        .failure(FailureSpec::paper_half_at_20(FailureMode::TopValue))
        .build()
        .run(70);
    assert!(
        series.last().unwrap().stddev < 8.0,
        "adaptive stddev {}",
        series.last().unwrap().stddev
    );
}

#[test]
fn epoch_baseline_recovers_only_after_reset() {
    let epoch_len = 25u64;
    let series = runner::builder(107)
        .environment(UniformEnv::new())
        .nodes_with_paper_values(500)
        .protocol(move |_, v| EpochPushSum::new(v, epoch_len))
        .truth(Truth::Mean)
        .failure(FailureSpec::paper_half_at_20(FailureMode::TopValue))
        .build()
        .run(80);
    // Right after the failure (rounds 20..45, inside the poisoned epoch)
    // the error is large; after a full fresh epoch it must be small.
    let poisoned = series.rounds[30].stddev;
    let healed = series.last().unwrap().stddev;
    assert!(healed < poisoned, "post-epoch error {healed} should improve on mid-epoch {poisoned}");
    assert!(healed < 8.0, "healed error {healed}");
}

// ---------------------------------------------------------------------
// Counting protocols
// ---------------------------------------------------------------------

#[test]
fn count_sketch_reset_heals_static_does_not() {
    let n = 3_000usize;
    let reset_cfg = ResetConfig::paper(n as u64, 0xAB);
    let reset = runner::builder(108)
        .environment(UniformEnv::new())
        .nodes_with_constant(n, 1.0)
        .protocol(move |id, _| CountSketchReset::counting(reset_cfg, u64::from(id)))
        .truth(Truth::Count)
        .failure(FailureSpec::paper_half_at_20(FailureMode::Random))
        .build()
        .run(45);
    let sketch_cfg = reset_cfg.sketch;
    let static_ = runner::builder(108)
        .environment(UniformEnv::new())
        .nodes_with_constant(n, 1.0)
        .protocol(move |id, _| CountSketch::counting(sketch_cfg, u64::from(id)))
        .truth(Truth::Count)
        .failure(FailureSpec::paper_half_at_20(FailureMode::Random))
        .build()
        .run(45);

    let truth_after = (n / 2) as f64;
    let reset_final = reset.last().unwrap().mean_estimate;
    let static_final = static_.last().unwrap().mean_estimate;
    assert!(
        (reset_final - truth_after).abs() / truth_after < 0.4,
        "reset estimate {reset_final:.0} should track {truth_after}"
    );
    assert!(
        static_final > n as f64 * 0.7,
        "static estimate {static_final:.0} must stay near the pre-failure count {n}"
    );
}

#[test]
fn invert_average_tracks_sum_through_failure() {
    let n = 1_000usize;
    let reset_cfg = ResetConfig::paper(n as u64, 0xCD);
    let series = runner::builder(109)
        .environment(UniformEnv::new())
        .nodes_with_paper_values(n)
        .protocol(move |id, v| InvertAverage::new(v, 0.05, reset_cfg, u64::from(id)))
        .truth(Truth::Sum)
        .failure(FailureSpec::paper_half_at_20(FailureMode::Random))
        .build()
        .run(55);
    let last = series.last().unwrap();
    let rel = (last.mean_estimate - last.truth).abs() / last.truth;
    assert!(rel < 0.35, "sum estimate off by {:.0}% after failure", rel * 100.0);
}

// ---------------------------------------------------------------------
// Trace-driven runs (the Fig. 11 pipeline)
// ---------------------------------------------------------------------

#[test]
fn trace_run_produces_group_relative_errors() {
    let timeline = Dataset::One.generate();
    let env = TraceEnv::paper(timeline);
    let devices = env.device_count();
    let rounds = 12 * env.rounds_per_hour(); // 12 simulated hours
    let series = runner::builder(110)
        .environment(env)
        .nodes_with_paper_values(devices)
        .protocol(|_, v| PushSumRevert::new(v, 0.01))
        .truth(Truth::GroupMean)
        .build()
        .run(rounds);
    let last = series.last().unwrap();
    assert_eq!(last.alive, devices);
    assert!(last.mean_group_size >= 1.0);
    // Errors are bounded by the value range; group-relative truth keeps
    // them meaningful even while the network is partitioned.
    assert!(last.stddev.is_finite());
    assert!(
        series.rounds.iter().any(|s| s.mean_group_size > 1.5),
        "the trace must actually form groups"
    );
}

#[test]
fn trace_reversion_beats_static_on_group_average() {
    // Fig. 11's qualitative claim: with small transient groups, reversion
    // tracks the group average better than static push-sum.
    let run = |lambda: f64| {
        let env = TraceEnv::paper(Dataset::One.generate());
        let devices = env.device_count();
        let rounds = 48 * env.rounds_per_hour();
        runner::builder(111)
            .environment(env)
            .nodes_with_paper_values(devices)
            .protocol(move |_, v| PushSumRevert::new(v, lambda))
            .truth(Truth::GroupMean)
            .build()
            .run(rounds)
    };
    let dynamic = run(0.01).steady_state_stddev(240);
    let static_ = run(0.0).steady_state_stddev(240);
    assert!(
        dynamic < static_,
        "reversion ({dynamic:.2}) should beat static ({static_:.2}) on group tracking"
    );
}

#[test]
fn trace_group_size_estimation_with_multiplier() {
    // Fig. 11 right column: Count-Sketch-Reset with 100 identifiers per
    // host estimating group size.
    let env = TraceEnv::paper(Dataset::One.generate());
    let devices = env.device_count();
    let rounds = 24 * env.rounds_per_hour();
    let mut cfg = ResetConfig::paper(100 * devices as u64, 0xEF);
    cfg.cutoff = Cutoff::paper_uniform();
    let series = runner::builder(112)
        .environment(env)
        .nodes_with_constant(devices, 1.0)
        .protocol(move |id, _| CountSketchReset::with_multiplier(cfg, u64::from(id), 100))
        .truth(Truth::GroupSize)
        .build()
        .run(rounds);
    let last = series.last().unwrap();
    assert!(last.stddev.is_finite());
    assert_eq!(last.defined, devices);
}

// ---------------------------------------------------------------------
// §II-C: epoch disruption under clique migration (clustered environment)
// ---------------------------------------------------------------------

#[test]
fn clique_migration_favors_reversion_over_epochs() {
    use dynagg::protocols::epoch::DriftModel;
    use dynagg::sim::env::clustered::ClusteredEnv;
    // Six cliques of ~50 hosts, drifting clocks, 2% migration per round.
    // The reversion-based protocol needs no synchronization at all and
    // beats the drifting epoch protocol on the same mobile topology.
    let n = 300;
    let epoch_series = runner::builder(114)
        .environment(ClusteredEnv::new(n, 6, 0.02, 0.02, 114))
        .nodes_with_paper_values(n)
        .protocol(|_, v| {
            EpochPushSum::new(v, 20).with_drift_model(DriftModel::Bernoulli { skip_prob: 0.15 })
        })
        .truth(Truth::Mean)
        .build()
        .run(160);
    let revert_series = runner::builder(114)
        .environment(ClusteredEnv::new(n, 6, 0.02, 0.02, 114))
        .nodes_with_paper_values(n)
        .protocol(|_, v| PushSumRevert::new(v, 0.01))
        .truth(Truth::Mean)
        .build()
        .run(160);
    let epoch_err = epoch_series.steady_state_stddev(60);
    let revert_err = revert_series.steady_state_stddev(60);
    assert!(
        revert_err < epoch_err,
        "reversion ({revert_err:.2}) should beat drifting epochs ({epoch_err:.2})"
    );
}

#[test]
fn clique_migration_disrupts_epochs() {
    use dynagg::protocols::epoch::DriftModel;
    use dynagg::sim::env::clustered::ClusteredEnv;
    // The paper's §II-C critique, isolated: cliques with independent clock
    // histories (initial epoch offsets + per-clique constant skew) make
    // epoch numbers diverge, and migrants carrying foreign epochs force
    // disruptive mid-epoch restarts with settling windows. The drifting
    // variant must show clearly higher steady-state error than the
    // clock-synced variant on the same mobile topology — deterministically,
    // across eight seeds.
    let n = 300u32;
    let clusters = 6u32;
    let epoch_len = 20u64;
    let run = |drift: bool, seed: u64| {
        let series = runner::builder(seed)
            .environment(ClusteredEnv::new(n as usize, clusters, 0.02, 0.0, seed))
            .nodes_with_paper_values(n as usize)
            .protocol(move |id, v| {
                let node = EpochPushSum::new(v, epoch_len).with_settle_len(5);
                if drift {
                    // Initial clique = id % clusters (round-robin): each
                    // clique starts a full epoch apart and its hosts'
                    // crystals span 0.8..1.2 ticks per round.
                    let k = id % clusters;
                    let rate = 1.0 + 0.2 * (2.0 * f64::from(k) / f64::from(clusters - 1) - 1.0);
                    node.with_clock_offset(u64::from(k) * epoch_len)
                        .with_drift_model(DriftModel::ConstantSkew { rate })
                } else {
                    node
                }
            })
            .truth(Truth::Mean)
            .build()
            .run(160);
        (series.steady_state_stddev(60), series.disruptions_between(60))
    };
    for seed in [114u64, 115, 116, 117, 118, 119, 120, 121] {
        let (drifting_err, disruptions) = run(true, seed);
        let (synced_err, synced_disruptions) = run(false, seed);
        assert!(
            drifting_err > 1.2 * synced_err,
            "seed {seed}: clock drift should disrupt epochs: drifting {drifting_err:.2} vs \
             synced {synced_err:.2}"
        );
        assert!(
            disruptions > 0,
            "seed {seed}: migrants from drifted cliques must force disruptive restarts"
        );
        assert_eq!(
            synced_disruptions, 0,
            "seed {seed}: synced clocks never disrupt, mobility or not"
        );
    }
}

#[test]
fn clustered_env_converges_within_cliques() {
    use dynagg::sim::env::clustered::ClusteredEnv;
    // With zero bridges and zero migration, each clique converges to its
    // own average — verify via per-node estimates straddling cliques.
    let n = 60;
    let mut sim = runner::builder(115)
        .environment(ClusteredEnv::new(n, 2, 0.0, 0.0, 115))
        .nodes_with_values(n, |_, id| if id % 2 == 0 { 10.0 } else { 90.0 })
        .protocol(|_, v| PushSumRevert::new(v, 0.0))
        .truth(Truth::Mean)
        .build();
    for _ in 0..40 {
        sim.step();
    }
    // Round-robin assignment: even ids -> clique 0 (all value 10), odd ->
    // clique 1 (all value 90). No mixing, so estimates stay at the clique
    // averages and the *global* truth (50) is never reached.
    use dynagg::protocols::Estimator;
    let e0 = sim.node(0).unwrap().estimate().unwrap();
    let e1 = sim.node(1).unwrap().estimate().unwrap();
    assert!((e0 - 10.0).abs() < 1.0, "clique-0 estimate {e0}");
    assert!((e1 - 90.0).abs() < 1.0, "clique-1 estimate {e1}");
}

// ---------------------------------------------------------------------
// Determinism across the full stack
// ---------------------------------------------------------------------

#[test]
fn full_stack_runs_are_reproducible() {
    let run = || {
        let env = TraceEnv::paper(Dataset::Two.generate());
        let devices = env.device_count();
        runner::builder(113)
            .environment(env)
            .nodes_with_paper_values(devices)
            .protocol(|_, v| PushSumRevert::new(v, 0.01))
            .truth(Truth::GroupMean)
            .build()
            .run(500)
    };
    assert_eq!(run(), run());
}
