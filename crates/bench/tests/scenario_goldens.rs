//! Scenario goldens: the checked-in `scenarios/*.toml` files are the only
//! statement of each workload — the figure modules embed them — so what
//! guards them is what they *produce*.
//!
//! **Golden digests** — fixed constants over full series content (or raw
//! counter histograms for the counter-cdf figures) catch any
//! file/registry/parser/engine drift, in the style of
//! `tests/determinism.rs`. Every pin loads its file from disk, scales it
//! down for test time, and runs it through `dynagg_scenario`. The rest of
//! the file tells each non-figure scenario's story at reduced size.

use dynagg_bench::ExpOpts;
use dynagg_scenario::ScenarioSpec;
use dynagg_sim::Series;
use std::path::{Path, PathBuf};

fn scenarios_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios")
}

fn load(name: &str) -> ScenarioSpec {
    let path = scenarios_dir().join(name);
    let src = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    ScenarioSpec::from_toml_str(&src).unwrap_or_else(|e| panic!("{name}: {e}"))
}

/// One FNV-1a step over a little-endian `u64`.
fn fnv(h: &mut u64, x: u64) {
    for b in x.to_le_bytes() {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x100_0000_01B3);
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a over the full series content, order-sensitive, bit-exact
/// (extends `tests/determinism.rs`' digest with the lifecycle columns).
fn digest(s: &Series) -> u64 {
    let mut h = FNV_OFFSET;
    for r in &s.rounds {
        for x in [
            r.round,
            r.alive as u64,
            r.truth.to_bits(),
            r.mean_estimate.to_bits(),
            r.stddev.to_bits(),
            r.mean_abs_err.to_bits(),
            r.max_abs_err.to_bits(),
            r.defined as u64,
            r.messages,
            r.bytes,
            r.mean_group_size.to_bits(),
            r.settling as u64,
            r.disruptions,
        ] {
            fnv(&mut h, x);
        }
    }
    h
}

/// FNV-1a over a counter-cdf run's raw per-bit age histograms (row
/// lengths included, so a reshaped histogram cannot collide).
fn digest_counters(spec: &ScenarioSpec) -> u64 {
    let outcome = dynagg_scenario::run(spec).unwrap();
    let samples = outcome.instances[0].trials[0].counter_samples.as_ref().expect("counter-cdf");
    let mut h = FNV_OFFSET;
    for row in samples {
        fnv(&mut h, row.len() as u64);
        for &c in row {
            fnv(&mut h, c);
        }
    }
    h
}

/// One λ line of a swept figure file, scaled to `n` hosts for test time.
fn lambda_line(file: &str, lambda: f64, n: usize) -> ScenarioSpec {
    let mut spec = load(file);
    spec.n = Some(n);
    spec.sweep = None;
    *spec.protocol.lambda_mut().unwrap() = lambda;
    spec
}

#[test]
fn every_checked_in_scenario_parses_and_validates() {
    let mut seen = 0;
    for entry in std::fs::read_dir(scenarios_dir()).expect("scenarios/ exists") {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("toml") {
            continue;
        }
        let src = std::fs::read_to_string(&path).unwrap();
        ScenarioSpec::from_toml_str(&src).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        seen += 1;
    }
    assert!(seen >= 19, "expected the full scenario library, found {seen} files");
}

/// Pinned digests: any engine/registry/parser change that alters scenario
/// output must update these constants with a documented reason.
const GOLDEN_FIG8_L001_N800: u64 = 0x68DD_20E9_5CB6_A2DE;
const GOLDEN_EPOCH_CELL_N300: u64 = 0x7F24_3B97_E780_0A60;

#[test]
fn golden_digest_fig8_line() {
    let series = dynagg_scenario::run_series(&lambda_line("fig8.toml", 0.01, 800)).unwrap();
    assert_eq!(
        digest(&series),
        GOLDEN_FIG8_L001_N800,
        "fig8 scenario output changed for a fixed seed; if intentional, update the golden \
         digest with a documented reason"
    );
}

#[test]
fn golden_digest_epoch_cell() {
    let mut spec = load("epoch_disruption.toml");
    spec.n = Some(300);
    let series = dynagg_scenario::run_series(&spec).unwrap();
    assert_eq!(
        digest(&series),
        GOLDEN_EPOCH_CELL_N300,
        "epoch-disruption scenario output changed for a fixed seed"
    );
    assert!(series.disruptions_between(0) > 0, "the cell must actually exhibit §II-C disruptions");
}

/// Pinned digests for the remaining figure files. First computed through
/// the hand-written spec builders the figure modules carried before they
/// embedded these files (builders and files agreed bit for bit).
const GOLDEN_FIG9_PAPER_CUTOFF_N800: u64 = 0xF6D0_4B71_6C3E_D15F;
const GOLDEN_FIG10A_L01_N800: u64 = 0x04F4_8F26_565D_8224;
const GOLDEN_FIG10B_L01_N800: u64 = 0x623C_6D49_CA34_A949;
const GOLDEN_FIG11_AVG_D1_L001_R24: u64 = 0xCABC_9BCA_BC74_0745;
const GOLDEN_FIG6_COUNTERS_N600: u64 = 0xB89E_34D1_2E92_ECCD;
const GOLDEN_SPATIAL_CUTOFF_COUNTERS_N400: u64 = 0x85B1_FB7A_F433_41D2;

#[test]
fn golden_digest_fig9_line() {
    let mut spec = load("fig9.toml");
    spec.n = Some(800);
    let series = dynagg_scenario::run_series(&spec).unwrap();
    assert_eq!(
        digest(&series),
        GOLDEN_FIG9_PAPER_CUTOFF_N800,
        "fig9 scenario output changed for a fixed seed"
    );
}

#[test]
fn golden_digest_fig10_lines() {
    let a = dynagg_scenario::run_series(&lambda_line("fig10a.toml", 0.1, 800)).unwrap();
    assert_eq!(digest(&a), GOLDEN_FIG10A_L01_N800, "fig10a scenario output changed");
    let b = dynagg_scenario::run_series(&lambda_line("fig10b.toml", 0.1, 800)).unwrap();
    assert_eq!(digest(&b), GOLDEN_FIG10B_L01_N800, "fig10b scenario output changed");
}

#[test]
fn golden_digest_fig11_avg_line() {
    let mut spec = load("fig11_avg_d1.toml");
    spec.rounds = Some(24);
    spec.sweep = None;
    *spec.protocol.lambda_mut().unwrap() = 0.01;
    let series = dynagg_scenario::run_series(&spec).unwrap();
    assert_eq!(
        digest(&series),
        GOLDEN_FIG11_AVG_D1_L001_R24,
        "fig11 average scenario output changed for a fixed seed"
    );
}

#[test]
fn golden_digest_counter_cdf_figures() {
    let mut fig6 = load("fig6.toml");
    fig6.sweep.as_mut().expect("fig6 sweeps n").values = vec![600.0];
    assert_eq!(digest_counters(&fig6), GOLDEN_FIG6_COUNTERS_N600, "fig6 counter samples changed");
    let mut spatial = load("spatial_cutoff.toml");
    spatial.n = Some(400);
    assert_eq!(
        digest_counters(&spatial),
        GOLDEN_SPATIAL_CUTOFF_COUNTERS_N400,
        "spatial-cutoff counter samples changed"
    );
}

#[test]
fn new_workload_scenarios_run_from_toml() {
    // The two genuinely-new workloads: parse, validate, and simulate a few
    // rounds at reduced size through the same subcommand path.
    let mut churn = load("churn_spike.toml");
    churn.n = Some(400);
    churn.rounds = Some(40);
    let outcome = dynagg_scenario::run(&churn).unwrap();
    assert_eq!(outcome.instances.len(), 3, "three λ lines");
    for inst in &outcome.instances {
        assert_eq!(inst.series().rounds.len(), 40);
        let last = inst.series().last().unwrap();
        assert!(last.alive > 0 && last.defined > 0);
    }

    let mut storm = load("merge_storm.toml");
    storm.n = Some(320);
    storm.rounds = Some(130); // past the merge wave and the first split
    let series = dynagg_scenario::run_series(&storm).unwrap();
    assert_eq!(series.rounds.len(), 130);
    assert!(series.disruptions_between(0) > 0, "merge storm must force disruptive epoch restarts");
    assert!(series.settling_host_rounds(35) > 0, "settling cascades must follow the merges");
}

#[test]
fn fig11_trace_scenario_parses_and_smokes() {
    let mut spec = load("fig11_avg_d1.toml");
    spec.rounds = Some(24);
    let outcome = dynagg_scenario::run(&spec).unwrap();
    assert_eq!(outcome.instances.len(), 3);
    assert_eq!(outcome.instances[0].n, 9, "dataset 1 has 9 devices");
    assert_eq!(outcome.instances[0].series().rounds.len(), 24);
}

// ── async engine scenarios ──────────────────────────────────────────────

#[test]
fn async_scenarios_run_from_toml() {
    // The async fig8 counterpart: three λ lines, half the population
    // silently removed at nominal round 20 — scaled down, same code path
    // as `experiments run scenarios/async_fig8.toml`.
    let mut spec = load("async_fig8.toml");
    spec.n = Some(400);
    spec.rounds = Some(40);
    let outcome = dynagg_scenario::run(&spec).unwrap();
    assert_eq!(outcome.instances.len(), 3, "three λ lines");
    for inst in &outcome.instances {
        let series = inst.series();
        assert_eq!(series.rounds.len(), 40, "one sample per nominal round");
        assert_eq!(series.rounds[10].alive, 400);
        assert_eq!(series.last().unwrap().alive, 200, "half failed at round 20");
        assert!(series.last().unwrap().defined > 0);
    }
    // λ = 0 after an uncorrelated failure: the average is preserved
    // (Fig. 8's headline claim), now under asynchronous delivery.
    let static_line = outcome.instances[0].series();
    assert!(
        static_line.last().unwrap().stddev < 3.0,
        "uncorrelated failure must not destabilize static averaging: {}",
        static_line.last().unwrap().stddev
    );

    // The skewed-clock workload, scaled down.
    let mut skew = load("async_skew_10k.toml");
    skew.n = Some(500);
    skew.rounds = Some(50);
    let series = dynagg_scenario::run_series(&skew).unwrap();
    assert_eq!(series.rounds.len(), 50);
    let last = series.last().unwrap();
    assert_eq!(last.defined, 500, "no host is stuck waiting for a round boundary");
    assert!(last.stddev < 4.0, "converges under ±20% clock skew: {}", last.stddev);
}

/// Asynchrony-robustness, demonstrated: with zero latency, zero drift,
/// and zero jitter, the async engine's converged error matches the push
/// engine's within tolerance (the runs are not bit-comparable — event
/// order differs — but the *estimate quality* must be the same).
#[test]
fn async_zero_latency_zero_drift_matches_push_engine() {
    use dynagg_scenario::{AsyncSpec, DriftSpec, Engine, EnvSpec, LatencySpec, ProtocolSpec};
    let mut push = dynagg_scenario::ScenarioSpec::new(
        "equivalence",
        ExpOpts::default().seed,
        EnvSpec::Uniform { broadcast_fanout: None },
        ProtocolSpec::PushSumRevert { lambda: 0.01 },
    );
    push.n = Some(600);
    push.rounds = Some(40);
    let mut asynch = push.clone();
    asynch.engine = Engine::Async;
    asynch.asynchrony = Some(AsyncSpec {
        interval_ms: 100,
        jitter: 0.0,
        latency: LatencySpec::Constant { ms: 0 },
        drift: DriftSpec::Synced,
        sample_every_ms: None,
        shards: None,
    });
    let push_series = dynagg_scenario::run_series(&push).unwrap();
    let async_series = dynagg_scenario::run_series(&asynch).unwrap();
    let push_err = push_series.steady_state_stddev(30);
    let async_err = async_series.steady_state_stddev(30);
    // Both settle onto the λ = 0.01 reversion floor (~1.2 at n = 600).
    assert!(push_err < 2.5, "push engine converged: {push_err}");
    assert!(async_err < 2.5, "async engine converged: {async_err}");
    assert!(
        (push_err - async_err).abs() < 1.0,
        "converged errors must agree within tolerance: push {push_err} vs async {async_err}"
    );
    // Same truth: both engines draw initial values from the same stream.
    let pt = push_series.last().unwrap().truth;
    let at = async_series.last().unwrap().truth;
    assert!((pt - at).abs() < 1e-9, "identical populations: {pt} vs {at}");
}

/// Async trials fan out through the same `sim::par` machinery as the
/// lockstep engines and stay bit-identical: re-running the whole
/// multi-trial scenario reproduces every series exactly.
#[test]
fn async_trials_are_bit_identical_across_runs() {
    let mut spec = load("async_skew_10k.toml");
    spec.n = Some(300);
    spec.rounds = Some(25);
    spec.trials = 3;
    let a = dynagg_scenario::run(&spec).unwrap();
    let b = dynagg_scenario::run(&spec).unwrap();
    assert_eq!(a, b, "async runs must be a pure function of the seed");
    let trials = &a.instances[0].trials;
    assert_eq!(trials.len(), 3);
    assert_ne!(trials[0].series, trials[1].series, "trials use distinct derived seeds");
}

/// Pinned digests for the async scenarios (scaled-down single lines).
/// Any engine/registry/parser change that alters async output must update
/// these constants with a documented reason.
// Re-pinned for the membership layer: view draws moved to their own RNG
// stream (`stream::VIEWS`, no longer interleaved with interval/phase
// setup draws), views go through the shared `Membership::view_into`
// path, and the `bytes` column now carries raw payload bytes (the
// lockstep convention) with wire bytes in the new `wire_bytes` column.
const GOLDEN_ASYNC_FIG8_L001_N400: u64 = 0x51C2_B33A_B6C7_B931;
const GOLDEN_ASYNC_SKEW_N500: u64 = 0xF0A6_FDFB_5C52_72E0;

#[test]
fn golden_digest_async_fig8_line() {
    let mut spec = load("async_fig8.toml");
    spec.n = Some(400);
    spec.rounds = Some(40);
    spec.sweep = None;
    *spec.protocol.lambda_mut().unwrap() = 0.01;
    let series = dynagg_scenario::run_series(&spec).unwrap();
    assert_eq!(
        digest(&series),
        GOLDEN_ASYNC_FIG8_L001_N400,
        "async fig8 scenario output changed for a fixed seed; if intentional, update the \
         golden digest with a documented reason"
    );
}

// ── async topology scenarios (membership layer) ─────────────────────────

#[test]
fn async_topology_scenarios_run_from_toml() {
    // The async §II-C cell, scaled down: migration keeps carrying foreign
    // epoch numbers into mid-epoch cliques, so disruptions accumulate and
    // settling stays chronically nonzero — under asynchronous delivery.
    let mut spec = load("async_clustered.toml");
    spec.n = Some(1200);
    spec.rounds = Some(60);
    let series = dynagg_scenario::run_series(&spec).unwrap();
    assert_eq!(series.rounds.len(), 60);
    assert_eq!(series.last().unwrap().alive, 1200);
    assert!(
        series.disruptions_between(10) > 100,
        "mobility must keep forcing disruptive restarts: {}",
        series.disruptions_between(10)
    );
    assert!(series.settling_host_rounds(10) > 0, "settling windows follow the disruptions");

    // The async spatial cutoff, scaled down: strictly grid-local gossip
    // still converges the count (the diameter-scaled cutoff keeps distant
    // bits alive), and the plane-coded wire frames undercut the raw
    // age-matrix accounting (from the first exchange on; they stay below
    // it once converged too — `sketch/tests/properties.rs` holds that).
    let mut spec = load("async_spatial.toml");
    spec.n = Some(400);
    spec.rounds = Some(120);
    let series = dynagg_scenario::run_series(&spec).unwrap();
    assert_eq!(series.rounds.len(), 120);
    let last = series.last().unwrap();
    assert_eq!(last.alive, 400);
    assert!(last.stddev < 150.0, "count converging on the grid: {}", last.stddev);
    assert!(last.stddev < series.rounds[5].stddev / 2.0, "error fell substantially");
    let early = &series.rounds[1];
    assert!(
        early.wire_bytes < early.bytes,
        "encoded frames beat raw matrix accounting early on: {} vs {}",
        early.wire_bytes,
        early.bytes
    );
}

/// Zero-latency/zero-jitter/zero-drift equivalence against the lockstep
/// push engine, over the newly-unlocked topologies. The runs are not
/// bit-comparable (event order differs) but estimate quality must match:
/// same truth, and steady-state error floors within tolerance.
#[test]
fn async_topologies_match_lockstep_at_zero_latency() {
    use dynagg_scenario::{AsyncSpec, DriftSpec, Engine, EnvSpec, LatencySpec, ProtocolSpec};
    let zero_async = AsyncSpec {
        interval_ms: 100,
        jitter: 0.0,
        latency: LatencySpec::Constant { ms: 0 },
        drift: DriftSpec::Synced,
        sample_every_ms: None,
        shards: None,
    };
    let run_pair = |env: EnvSpec, rounds: u64| {
        let mut push = dynagg_scenario::ScenarioSpec::new(
            "equivalence",
            ExpOpts::default().seed,
            env,
            ProtocolSpec::PushSumRevert { lambda: 0.01 },
        );
        push.n = Some(600);
        push.rounds = Some(rounds);
        let mut asynch = push.clone();
        asynch.engine = Engine::Async;
        asynch.asynchrony = Some(zero_async);
        (dynagg_scenario::run_series(&push).unwrap(), dynagg_scenario::run_series(&asynch).unwrap())
    };

    // Clustered (bridged, no migration): both engines settle onto nearly
    // the same λ-floor — the views are clique samples, like the sampler.
    let (push, asynch) = run_pair(
        EnvSpec::Clustered { clusters: 6, migration: 0.0, bridge: 0.05, events: Vec::new() },
        60,
    );
    let (pe, ae) = (push.steady_state_stddev(45), asynch.steady_state_stddev(45));
    assert!(pe < 3.0 && ae < 3.0, "both converged: push {pe} vs async {ae}");
    assert!((pe - ae).abs() < 1.0, "clustered floors agree: push {pe} vs async {ae}");
    let (pt, at) = (push.last().unwrap().truth, asynch.last().unwrap().truth);
    assert!((pt - at).abs() < 1e-9, "identical populations: {pt} vs {at}");

    // Spatial: async views are the bare adjacency (no 1/d² long links),
    // so mixing is strictly slower and its λ-floor sits measurably — but
    // boundedly — above the walk-based lockstep sampler's.
    let (push, asynch) = run_pair(EnvSpec::Spatial { max_walk: None }, 150);
    let (pe, ae) = (push.steady_state_stddev(110), asynch.steady_state_stddev(110));
    assert!(pe < 4.0 && ae < 4.0, "both converged: push {pe} vs async {ae}");
    assert!(ae > pe, "strictly local mixing pays a floor premium: push {pe} vs async {ae}");
    assert!((pe - ae).abs() < 1.5, "grid floors stay close: push {pe} vs async {ae}");
}

/// Pinned digests for the async topology scenarios (scaled-down runs).
const GOLDEN_ASYNC_CLUSTERED_N1200: u64 = 0xBA4B_C751_CB72_9FA1;
const GOLDEN_ASYNC_SPATIAL_N400: u64 = 0x42F7_DE40_0D13_2EBE;

#[test]
fn golden_digest_async_clustered() {
    let mut spec = load("async_clustered.toml");
    spec.n = Some(1200);
    spec.rounds = Some(60);
    let series = dynagg_scenario::run_series(&spec).unwrap();
    assert_eq!(
        digest(&series),
        GOLDEN_ASYNC_CLUSTERED_N1200,
        "async clustered scenario output changed for a fixed seed; if intentional, update \
         the golden digest with a documented reason"
    );
}

#[test]
fn golden_digest_async_spatial() {
    let mut spec = load("async_spatial.toml");
    spec.n = Some(400);
    spec.rounds = Some(80);
    let series = dynagg_scenario::run_series(&spec).unwrap();
    assert_eq!(
        digest(&series),
        GOLDEN_ASYNC_SPATIAL_N400,
        "async spatial scenario output changed for a fixed seed"
    );
}

#[test]
fn golden_digest_async_skew() {
    let mut spec = load("async_skew_10k.toml");
    spec.n = Some(500);
    spec.rounds = Some(50);
    let series = dynagg_scenario::run_series(&spec).unwrap();
    assert_eq!(
        digest(&series),
        GOLDEN_ASYNC_SKEW_N500,
        "async skewed-clock scenario output changed for a fixed seed"
    );
}

/// Pinned digest for the async trace-group scenario — the async sampler
/// reading per-group truths (and `mean_group_size`) through the
/// membership layer's group view. The digest folds in
/// `mean_group_size.to_bits()`, so the group columns populating is part
/// of the pin.
const GOLDEN_ASYNC_TRACE_GROUPS_R400: u64 = 0x733C_0E16_3488_832E;

#[test]
fn golden_digest_async_trace_groups() {
    let mut spec = load("async_trace_groups.toml");
    // Trace envs derive n (dataset 1: 9 devices); 400 nominal rounds
    // reaches past the trace's first contacts, so the pinned window
    // contains real multi-device groups, not just the singleton prefix.
    spec.rounds = Some(400);
    let series = dynagg_scenario::run_series(&spec).unwrap();
    assert_eq!(series.last().unwrap().alive, 9);
    assert!(
        series.rounds.iter().any(|r| r.mean_group_size > 1.0),
        "async group columns populate from the membership layer's group view"
    );
    assert_eq!(
        digest(&series),
        GOLDEN_ASYNC_TRACE_GROUPS_R400,
        "async trace-group scenario output changed for a fixed seed; if intentional, update \
         the golden digest with a documented reason"
    );
}

// ── chaos scenarios (partition/heal + adversary) ────────────────────────

/// The chaos digest: the base [`digest`] fields plus the two chaos
/// columns (`mass_audit`, `islands`), which the older goldens predate.
fn digest_chaos(s: &Series) -> u64 {
    let mut h = digest(s);
    for r in &s.rounds {
        fnv(&mut h, r.mass_audit.to_bits());
        fnv(&mut h, r.islands);
    }
    h
}

#[test]
fn partition_heal_toml_tells_the_split_heal_story() {
    let mut spec = load("partition_heal.toml");
    spec.n = Some(300);
    spec.rounds = Some(140);
    let series = dynagg_scenario::run_series(&spec).unwrap();
    assert_eq!(series.rounds.len(), 140);

    // The islands column traces the schedule: whole → two → whole.
    assert_eq!(series.rounds[39].islands, 1);
    assert_eq!(series.rounds[40].islands, 2, "split lands at round 40");
    assert_eq!(series.rounds[99].islands, 2);
    assert_eq!(series.rounds[100].islands, 1, "heal lands at round 100");

    // The heal delivers the fast island's epoch backlog as one disruptive
    // wave: the 25 rounds after the heal force far more restarts than the
    // same window at the end of the split, and settling cascades follow.
    let in_window =
        |lo: u64, hi: u64| series.disruptions_between(lo) - series.disruptions_between(hi);
    let before = in_window(75, 100);
    let after = in_window(100, 125);
    assert!(
        after > before && after > 50,
        "heal must trigger a disruptive restart wave: {after} after vs {before} before"
    );
    assert!(series.settling_host_rounds(100) > 0, "restart waves cost settling time");

    // Bounded re-convergence: within the settling window after the heal
    // the population touches its §II-C floor again (background disruption
    // waves keep error oscillating, so we assert the floor is *reached*).
    let floor_again = series
        .rounds
        .iter()
        .filter(|r| (100..126).contains(&r.round))
        .map(|r| r.stddev)
        .fold(f64::INFINITY, f64::min);
    assert!(floor_again < 3.0, "post-heal error must return to the floor: {floor_again}");

    // Partitions redistribute mass but never mint it; the only audit
    // wobble is the stale mass each disruptive restart discards.
    for r in &series.rounds {
        assert!(
            r.mass_audit.abs() < 3.0,
            "round {}: audit {} out of bounds",
            r.round,
            r.mass_audit
        );
    }
}

#[test]
fn byzantine_inflation_toml_shows_up_in_the_mass_audit() {
    let mut spec = load("byzantine_inflation.toml");
    spec.n = Some(300);
    spec.rounds = Some(80);
    let series = dynagg_scenario::run_series(&spec).unwrap();

    // Honest phase: lockstep Push-Sum-Revert conserves mass exactly.
    for r in &series.rounds[..30] {
        assert!(r.mass_audit.abs() < 1e-6, "round {}: honest audit {}", r.round, r.mass_audit);
        assert_eq!(r.islands, 1);
    }
    // Attack phase: forged mass compounds without bound, and the mean
    // estimate follows it upward — averaging has no defense.
    let last = series.last().unwrap();
    assert!(last.mass_audit > 1.0, "inflation must drift the audit: {}", last.mass_audit);
    assert!(last.mass_audit > series.rounds[40].mass_audit, "the drift keeps compounding");
    assert!(last.mean_estimate > last.truth + 1.0, "the estimate follows the forged mass");
}

/// The §IV contrast the adversary table exists to demonstrate: the same
/// Byzantine population that drives Push-Sum's error without bound only
/// shifts a count-sketch estimate by a bounded factor, because forged
/// bits are capped by the `cells` budget (and age out under reset).
#[test]
fn sketch_corruption_damage_is_bounded() {
    use dynagg_core::adversary::Attack;
    use dynagg_scenario::{AdversarySpec, EnvSpec, ProtocolSpec};
    use dynagg_sketch::cutoff::Cutoff;

    let mut honest = dynagg_scenario::ScenarioSpec::new(
        "sketch-attack",
        ExpOpts::default().seed,
        EnvSpec::Uniform { broadcast_fanout: None },
        ProtocolSpec::CountSketchReset {
            cutoff: Cutoff::paper_uniform(),
            push_pull: true,
            multiplier: 1,
            hash_seed_xor: 0,
        },
    );
    honest.n = Some(400);
    honest.rounds = Some(60);
    honest.truth = dynagg_sim::Truth::Count;
    honest.values = dynagg_scenario::ValueSpec::Constant(1.0);

    let mut attacked = honest.clone();
    attacked.adversary = Some(AdversarySpec {
        attack: Attack::SketchCorruption { cells: 8 },
        fraction: 0.02,
        from_round: 10,
    });

    let honest_last = *dynagg_scenario::run_series(&honest).unwrap().last().unwrap();
    let attacked_last = *dynagg_scenario::run_series(&attacked).unwrap().last().unwrap();
    assert!(
        attacked_last.mean_estimate >= honest_last.mean_estimate,
        "forged cells can only inflate a union-of-bits estimate"
    );
    // Bounded: 8 forged cells spread over ~64 bins extend the mean live
    // run by a fraction of a bit — worst case a small constant factor,
    // never the unbounded compounding drift mass inflation achieves.
    assert!(
        attacked_last.mean_estimate < honest_last.mean_estimate * 2.0,
        "sketch damage stays bounded: honest {} vs attacked {}",
        honest_last.mean_estimate,
        attacked_last.mean_estimate
    );
}

/// Mirrors `epoch_disruption`'s acceptance shape: across seeds, the heal
/// must fire disruptive epoch restarts within the settling window —
/// the re-merged islands carry diverged epoch clocks, and §II-C says
/// rejoining hosts restart. Window = epoch_len + settle_len = 25 rounds.
#[test]
fn heal_triggers_epoch_restarts_across_seeds() {
    let mut spec = load("partition_heal.toml");
    spec.n = Some(240);
    spec.rounds = Some(130);
    for seed in 11u64..19 {
        spec.seed = seed;
        let series = dynagg_scenario::run_series(&spec).unwrap();
        let wave = series.disruptions_between(100) - series.disruptions_between(125);
        assert!(wave > 0, "seed {seed}: the heal must force restarts within the settling window");
        let before = series.disruptions_between(75) - series.disruptions_between(100);
        assert!(
            wave > before,
            "seed {seed}: the heal wave ({wave}) must exceed the split-time \
             background rate ({before})"
        );
    }
}

/// The same chaos events drive the async engine (satellite of the async
/// lifecycle-columns work): the partition shows in `islands`, the heal
/// fires restarts that reach the sampled `disruptions`/`settling`
/// columns, and an inflation adversary drifts the (noisy but bounded-
/// when-honest) async mass audit without bound.
#[test]
fn async_chaos_scenarios_run_from_toml() {
    use dynagg_scenario::Engine;

    let mut spec = load("partition_heal.toml");
    spec.n = Some(300);
    spec.rounds = Some(140);
    spec.engine = Engine::Async;
    let series = dynagg_scenario::run_series(&spec).unwrap();
    assert_eq!(series.rounds.len(), 140);
    assert_eq!(series.rounds[50].islands, 2, "split visible in async samples");
    assert_eq!(series.rounds[139].islands, 1, "heal visible in async samples");
    assert!(
        series.disruptions_between(100) - series.disruptions_between(130) > 0,
        "heal-triggered restarts must reach the async lifecycle columns"
    );
    assert!(series.settling_host_rounds(100) > 0, "and their settling windows");

    let mut spec = load("byzantine_inflation.toml");
    spec.n = Some(300);
    spec.rounds = Some(80);
    spec.engine = Engine::Async;
    let series = dynagg_scenario::run_series(&spec).unwrap();
    // Async sampling is not synchronized with node ticks, so the honest
    // audit jitters by ~one round's in-flight mass — bounded, unlike the
    // adversarial drift that follows.
    for r in &series.rounds[5..30] {
        assert!(r.mass_audit.abs() < 5.0, "round {}: honest async audit {}", r.round, r.mass_audit);
    }
    assert!(
        series.last().unwrap().mass_audit > 1.0,
        "inflation drifts the async audit without bound: {}",
        series.last().unwrap().mass_audit
    );
}

/// Region islands on the spatial grid: the other topology the partition
/// DSL must cover. Two half-grid islands, never healed — each side
/// converges exactly onto its own mean and lockstep conservation holds
/// to machine precision.
#[test]
fn spatial_region_partition_isolates_grid_halves() {
    use dynagg_scenario::{EnvSpec, ProtocolSpec};
    let src = r#"
        name = "region-split"
        seed = 7
        n = 400
        rounds = 120
        [env]
        kind = "spatial"
        [values]
        kind = "constant"
        value = 1.0
        [protocol]
        name = "push-sum-revert"
        lambda = 0.0
        [[partition]]
        at_round = 0
        islands = ["region:0,0,9,19", "region:10,0,19,19"]
        [output]
        metrics = ["stddev", "mass_audit", "islands"]
    "#;
    let mut spec = ScenarioSpec::from_toml_str(src).unwrap();
    assert!(matches!(spec.env, EnvSpec::Spatial { .. }));
    assert!(matches!(spec.protocol, ProtocolSpec::PushSumRevert { .. }));
    // Constant values: both islands share the truth, so estimates must
    // converge to it exactly despite the cut, and the audit stays at 0.
    let series = dynagg_scenario::run_series(&spec).unwrap();
    let last = series.last().unwrap();
    assert_eq!(last.islands, 2);
    assert!(last.stddev < 1e-9, "island-local averaging still converges: {}", last.stddev);
    assert!(last.mass_audit.abs() < 1e-9, "conservation is exact under lockstep");

    // Distinct per-island values: each island must converge onto its own
    // mean, which shows up as a *stable* global stddev, not convergence.
    spec.values = dynagg_scenario::ValueSpec::Paper;
    let series = dynagg_scenario::run_series(&spec).unwrap();
    let last = series.last().unwrap();
    assert!(last.mass_audit.abs() < 1e-9, "conservation is exact under lockstep");
    assert!(last.stddev > 0.1, "two islands hold two means: {}", last.stddev);
}

/// Pinned digests for the chaos scenarios (scaled-down runs, chaos digest
/// includes the `mass_audit` and `islands` columns).
const GOLDEN_PARTITION_HEAL_N300: u64 = 0x6DD3_BDD8_15D6_F9B2;
const GOLDEN_BYZ_INFLATION_N300: u64 = 0x0E91_B7EB_64FE_D2F8;

#[test]
fn golden_digest_partition_heal() {
    let mut spec = load("partition_heal.toml");
    spec.n = Some(300);
    spec.rounds = Some(140);
    let series = dynagg_scenario::run_series(&spec).unwrap();
    assert_eq!(
        digest_chaos(&series),
        GOLDEN_PARTITION_HEAL_N300,
        "partition-heal scenario output changed for a fixed seed; if intentional, update \
         the golden digest with a documented reason"
    );
}

#[test]
fn golden_digest_byzantine_inflation() {
    let mut spec = load("byzantine_inflation.toml");
    spec.n = Some(300);
    spec.rounds = Some(80);
    let series = dynagg_scenario::run_series(&spec).unwrap();
    assert_eq!(
        digest_chaos(&series),
        GOLDEN_BYZ_INFLATION_N300,
        "byzantine-inflation scenario output changed for a fixed seed"
    );
}

// ── the capability table's census ───────────────────────────────────────

/// One digest per `caps::PROTOCOLS` row: its `example` on the census spec.
const CENSUS: &[(&str, u64)] = &[
    ("push-sum", 0x1D27_9629_FBCA_D7D1),
    ("push-sum-revert", 0x2012_ED28_3459_D28E),
    ("full-transfer", 0xB700_5F74_3B37_EA2C),
    ("adaptive-revert", 0x0203_533F_CCC4_96B0),
    ("epoch-push-sum", 0x26E0_90DF_B7F5_5275),
    ("count-sketch", 0xE65B_5768_86D9_0085),
    ("count-sketch-reset", 0xCD13_940A_25FD_0525),
    ("invert-average", 0x6E58_0CBB_BEFF_0D11),
    ("tag-tree", 0x7359_A6D3_A697_AA87),
];

/// Every protocol the table grants is run by something that pins it: its
/// `example` on one small fixed spec (uniform env, push engine, n = 48, 12
/// rounds, seed 7) must match its [`CENSUS`] digest. A granted row without
/// a pin fails, and so does a pin whose row is gone.
#[test]
fn every_granted_protocol_is_pinned() {
    use dynagg_scenario::caps::PROTOCOLS;
    use dynagg_scenario::EnvSpec;
    for (name, _) in CENSUS {
        assert!(
            PROTOCOLS.iter().any(|row| row.name == *name),
            "the census pins `{name}`, which the capability table does not grant: pin it or \
             delete it"
        );
    }
    let mut changed = Vec::new();
    for row in &PROTOCOLS {
        let Some(&(_, pinned)) = CENSUS.iter().find(|(name, _)| *name == row.name) else {
            panic!("`{}` is granted but no census digest checks it: pin it or delete it", row.name);
        };
        let env = EnvSpec::Uniform { broadcast_fanout: None };
        let mut spec = ScenarioSpec::new("census", 7, env, row.example);
        (spec.n, spec.rounds) = (Some(48), Some(12));
        let got = digest(&dynagg_scenario::run_series(&spec).unwrap());
        if got != pinned {
            changed.push(format!("{}: 0x{got:016X}", row.name));
        }
    }
    assert!(changed.is_empty(), "census digests changed for a fixed seed: {changed:?}");
}

// ── the TAG baseline (§VI) ──────────────────────────────────────────────

/// Pinned digest for the TAG-tree scenario, at the file's own size.
const GOLDEN_TAG_TREE_ROOT_LOSS_N1000: u64 = 0x1197_E0A5_C20D_71F1;

/// The paper's §VI argument against structured aggregation, shown: a TAG
/// tree has a single point of failure. On the file's seed the departing
/// top-value half holds host 0, the root, so no new aggregate is computed
/// and every survivor's estimate stays frozen at the pre-failure average.
/// On seed 3 the same departure leaves the root alive, and the tree heals
/// once the departed subtrees' reports expire (`child_timeout`).
#[test]
fn tag_tree_root_loss_freezes_every_estimate() {
    let mut spec = load("tag_tree_root_loss.toml");
    let series = dynagg_scenario::run_series(&spec).unwrap();
    assert_eq!(
        digest(&series),
        GOLDEN_TAG_TREE_ROOT_LOSS_N1000,
        "tag-tree scenario output changed for a fixed seed; if intentional, update the golden \
         digest with a documented reason"
    );
    let rows = &series.rounds;
    assert!(rows[39].stddev < 1.0, "the tree converged before the failure: {}", rows[39].stddev);
    assert_eq!(rows[40].alive, 500);
    let frozen = rows[44].mean_estimate;
    for r in &rows[44..] {
        assert_eq!(r.mean_estimate, frozen, "round {}: an aggregate reached a survivor", r.round);
        assert!(r.stddev > 20.0, "round {}: the error fell to {}", r.round, r.stddev);
    }
    assert!(
        (frozen - rows[39].truth).abs() < 1.0,
        "survivors keep serving the pre-failure average {} (truth now {})",
        rows[39].truth,
        rows[59].truth
    );

    spec.seed = 3;
    let healed = dynagg_scenario::run_series(&spec).unwrap();
    assert!(healed.rounds[40].stddev > 20.0, "the same departure strikes with the root alive");
    let last = healed.last().unwrap();
    assert!(last.stddev < 1.0, "with its root alive the tree heals: {}", last.stddev);
}

// ── wire accounting ─────────────────────────────────────────────────────

/// A sketch-gossip cell for the `wire = "measured"` story: identical to
/// its priced twin except for the accounting mode.
const MEASURED_WIRE_TOML: &str = r#"
name = "measured-wire"
seed = 11
n = 300
rounds = 30
wire = "measured"
truth = "count"

[env]
kind = "uniform"

[values]
kind = "constant"
value = 1.0

[protocol]
name = "count-sketch-reset"
cutoff = "paper"
"#;

#[test]
fn measured_wire_tracks_payload_growth() {
    let measured_spec = ScenarioSpec::from_toml_str(MEASURED_WIRE_TOML).unwrap();
    let priced_src = MEASURED_WIRE_TOML.replace("wire = \"measured\"\n", "");
    let priced_spec = ScenarioSpec::from_toml_str(&priced_src).unwrap();

    let measured = dynagg_scenario::run_series(&measured_spec).unwrap();
    let priced = dynagg_scenario::run_series(&priced_spec).unwrap();

    // The meter observes messages without perturbing the simulation:
    // every non-wire column is bit-identical to the priced twin.
    assert_eq!(digest(&measured), digest(&priced), "measuring wire changed the simulation");

    // Round 0: every outgoing matrix holds exactly one claimed cell, the
    // same shape the registry prices from a freshly-initialized node.
    // Measured lands above the price but same-magnitude: initiations
    // match it, while replies — post-merge snapshots under the lockstep
    // engine's atomic-exchange hint — already carry both parties' cells.
    let m0 = &measured.rounds[0];
    let p0 = &priced.rounds[0];
    assert!(m0.wire_bytes > 0 && p0.wire_bytes > 0);
    let ratio0 = m0.wire_bytes as f64 / p0.wire_bytes as f64;
    assert!((0.9..=1.8).contains(&ratio0), "fresh-population ratio {ratio0}");

    // Converged: matrices carry hundreds of finite counters, the encoded
    // payload has grown far past the fresh-node price, and only the
    // measured column sees it.
    let ml = measured.last().unwrap();
    let pl = priced.last().unwrap();
    let ratio_last = ml.wire_bytes as f64 / pl.wire_bytes as f64;
    assert!(ratio_last > 1.5, "converged payloads must outgrow the price: ratio {ratio_last}");
    // And the growth is monotone-ish: the measured column strictly
    // exceeds its own round-0 per-message cost by the end.
    assert!(
        ml.wire_bytes as f64 / ml.messages as f64
            > 1.5 * (m0.wire_bytes as f64 / m0.messages as f64),
        "per-message measured size must grow as counters populate"
    );
}

// ── async fig6 ──────────────────────────────────────────────────────────

#[test]
fn fig6_async_toml_reads_counters_through_the_sequential_engine() {
    let mut spec = load("fig6_async.toml");
    spec.n = Some(400); // scaled for test time
    let outcome = dynagg_scenario::run(&spec).unwrap();
    let samples = outcome.instances[0].trials[0]
        .counter_samples
        .as_ref()
        .expect("counter-cdf report under the sequential async engine");
    let total: u64 = samples.iter().flatten().sum();
    assert!(total > 0, "converged async network must hold finite counters");
    // The async engine's interleaved ticks and merges spread counters
    // past age 0: lockstep's own-cell pins are not the only mass.
    let aged: u64 = samples.iter().map(|row| row.iter().skip(1).sum::<u64>()).sum();
    assert!(aged > 0, "asynchrony must spread counter ages past zero");
    // Low bit indexes (claimed by every host) dominate high ones, the
    // same cutoff-fit shape the lockstep fig6 reads.
    let low: u64 = samples[0].iter().sum();
    let high: u64 = samples[samples.len() - 1].iter().sum();
    assert!(low > high, "counter mass must concentrate at low bit indexes");
}

// ── the CLI around the scenarios ────────────────────────────────────────

/// `--out` that cannot be written is the command's failure: a scripted
/// figure run must not exit 0 having produced no files.
#[test]
fn unwritable_out_dir_fails_the_command() {
    let blocker = std::env::temp_dir().join(format!("dynagg-out-blocker-{}", std::process::id()));
    std::fs::write(&blocker, "a regular file, not a directory").unwrap();
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["table-sketch-error", "--quick", "--out"])
        .arg(blocker.join("csv"))
        .output()
        .expect("experiments binary runs");
    std::fs::remove_file(&blocker).unwrap();
    assert!(!out.status.success(), "exit status must report the failed csv write");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("csv write failed for table_sketch_error"), "stderr: {stderr}");
}

/// `--rounds 0` fails `--check`: run, it would write a header-only CSV
/// and a NaN steady-state note, and exit 0.
#[test]
fn zero_rounds_override_fails_the_check() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_experiments"))
        .arg("run")
        .arg(scenarios_dir().join("fig8.toml"))
        .args(["--rounds", "0", "--check"])
        .output()
        .expect("experiments binary runs");
    assert!(!out.status.success(), "--rounds 0 must fail --check");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("invalid `rounds`: must be positive"), "stderr: {stderr}");
}
