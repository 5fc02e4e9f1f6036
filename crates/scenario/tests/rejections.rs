//! Spec-validation rejection tests: every class of scenario-file misuse
//! must produce a *typed* [`ScenarioError`], never a panic, and the right
//! variant — these are the errors scenario authors will actually see.
//!
//! What combines with what (protocol × engine × report × probe × attack ×
//! wire) is walked exhaustively by `tests/lattice.rs`; the tests here pin
//! what the lattice cannot see: the TOML surface, value ranges, the text
//! of a message, and what an accepted spec computes.

use dynagg_scenario::{ScenarioError, ScenarioSpec};

const VALID: &str = r#"
name = "valid"
seed = 7
n = 200
rounds = 10

[env]
kind = "uniform"

[protocol]
name = "push-sum-revert"
lambda = 0.01
"#;

fn replace(base: &str, from: &str, to: &str) -> String {
    assert!(base.contains(from), "fixture drift: `{from}` not found");
    base.replace(from, to)
}

/// Parse, validate and run a sweepless single-trial file.
fn run_trial(src: &str) -> dynagg_scenario::TrialOutput {
    let spec = ScenarioSpec::from_toml_str(src).unwrap();
    dynagg_scenario::run(&spec).unwrap().instances.remove(0).trials.remove(0)
}

#[test]
fn the_fixture_itself_parses() {
    let spec = ScenarioSpec::from_toml_str(VALID).unwrap();
    assert_eq!(spec.name, "valid");
    assert_eq!(spec.seed, 7);
}

#[test]
fn unknown_protocol_name_is_typed() {
    let src = replace(VALID, "push-sum-revert", "push-pull-sum");
    match ScenarioSpec::from_toml_str(&src) {
        Err(ScenarioError::UnknownName { what: "protocol", name }) => {
            assert_eq!(name, "push-pull-sum");
        }
        other => panic!("expected UnknownName {{ protocol }}, got {other:?}"),
    }
}

#[test]
fn missing_seed_is_typed() {
    let src = replace(VALID, "seed = 7\n", "");
    assert_eq!(
        ScenarioSpec::from_toml_str(&src),
        Err(ScenarioError::Missing { table: "", key: "seed" })
    );
}

#[test]
fn conflicting_env_keys_are_typed() {
    // `clusters` belongs to the clustered environment; under uniform it is
    // a conflict, not dead configuration.
    let src = replace(VALID, "kind = \"uniform\"", "kind = \"uniform\"\nclusters = 4");
    match ScenarioSpec::from_toml_str(&src) {
        Err(ScenarioError::UnknownKey { table: "env", key }) => assert_eq!(key, "clusters"),
        other => panic!("expected UnknownKey {{ env, clusters }}, got {other:?}"),
    }
}

#[test]
fn unknown_top_level_key_is_typed() {
    let src = replace(VALID, "n = 200", "n = 200\npopulation = 200");
    match ScenarioSpec::from_toml_str(&src) {
        Err(ScenarioError::UnknownKey { table: "", key }) => assert_eq!(key, "population"),
        other => panic!("expected UnknownKey, got {other:?}"),
    }
}

#[test]
fn wrong_type_is_typed() {
    let src = replace(VALID, "lambda = 0.01", "lambda = \"small\"");
    match ScenarioSpec::from_toml_str(&src) {
        Err(ScenarioError::Type { key, expected: "number", found: "string" }) => {
            assert_eq!(key, "protocol.lambda");
        }
        other => panic!("expected Type error, got {other:?}"),
    }
}

#[test]
fn out_of_range_lambda_is_typed() {
    let src = replace(VALID, "lambda = 0.01", "lambda = 1.5");
    assert!(matches!(
        ScenarioSpec::from_toml_str(&src),
        Err(ScenarioError::Invalid { key, .. }) if key == "protocol.lambda"
    ));
}

#[test]
fn negative_seed_is_typed() {
    let src = replace(VALID, "seed = 7", "seed = -7");
    assert!(matches!(
        ScenarioSpec::from_toml_str(&src),
        Err(ScenarioError::Invalid { key, .. }) if key == "seed"
    ));
}

#[test]
fn zero_rounds_is_typed() {
    // Zero rounds would run nothing and report a NaN steady state.
    let src = replace(VALID, "rounds = 10", "rounds = 0");
    match ScenarioSpec::from_toml_str(&src) {
        Err(e @ ScenarioError::Invalid { .. }) => {
            assert_eq!(e.to_string(), "invalid `rounds`: must be positive");
        }
        other => panic!("expected Invalid {{ rounds }}, got {other:?}"),
    }
}

#[test]
fn bad_toml_surfaces_parse_error_with_line() {
    let src = replace(VALID, "seed = 7", "seed = ");
    match ScenarioSpec::from_toml_str(&src) {
        Err(ScenarioError::Toml(e)) => assert!(e.line >= 2, "line {}", e.line),
        other => panic!("expected Toml error, got {other:?}"),
    }
}

#[test]
fn group_truth_without_trace_env_is_unsupported() {
    let src = replace(VALID, "n = 200", "n = 200\ntruth = \"group-mean\"");
    assert!(matches!(ScenarioSpec::from_toml_str(&src), Err(ScenarioError::Unsupported { .. })));
}

#[test]
fn unknown_truth_and_metric_names_are_typed() {
    let src = replace(VALID, "n = 200", "n = 200\ntruth = \"median\"");
    assert!(matches!(
        ScenarioSpec::from_toml_str(&src),
        Err(ScenarioError::UnknownName { what: "truth", .. })
    ));
    let src = format!("{VALID}\n[output]\nmetrics = [\"stdev\"]\n");
    assert!(matches!(
        ScenarioSpec::from_toml_str(&src),
        Err(ScenarioError::UnknownName { what: "metric", .. })
    ));
}

#[test]
fn lambda_sweep_on_lambdaless_protocol_is_unsupported() {
    let src = replace(
        VALID,
        "[protocol]\nname = \"push-sum-revert\"\nlambda = 0.01",
        "[protocol]\nname = \"epoch-push-sum\"\nepoch_len = 20\n\n[sweep]\naxis = \"lambda\"\nvalues = [0.0, 0.1]",
    );
    assert!(matches!(ScenarioSpec::from_toml_str(&src), Err(ScenarioError::Unsupported { .. })));
}

#[test]
fn clustered_event_naming_missing_clique_is_typed() {
    let src = replace(
        VALID,
        "kind = \"uniform\"",
        "kind = \"clustered\"\nclusters = 2\n\n[[env.events]]\nround = 3\nkind = \"merge\"\nfrom = 0\ninto = 9",
    );
    assert!(matches!(
        ScenarioSpec::from_toml_str(&src),
        Err(ScenarioError::Invalid { key, .. }) if key == "env.events"
    ));
}

#[test]
fn clique_drift_must_match_the_clustered_env() {
    let clustered = replace(VALID, "kind = \"uniform\"", "kind = \"clustered\"\nclusters = 6");
    let epoch = |src: &str| {
        replace(
            src,
            "[protocol]\nname = \"push-sum-revert\"\nlambda = 0.01",
            "[protocol]\nname = \"epoch-push-sum\"\nepoch_len = 20\nclique_drift = { clusters = 8, magnitude = 1.0 }",
        )
    };
    // Mismatched cluster counts: the drift topology would silently diverge
    // from the actual cliques.
    assert!(matches!(
        ScenarioSpec::from_toml_str(&epoch(&clustered)),
        Err(ScenarioError::Invalid { key, .. }) if key == "protocol.clique_drift.clusters"
    ));
    // Matching counts validate.
    let matching = epoch(&clustered).replace("clusters = 8,", "clusters = 6,");
    ScenarioSpec::from_toml_str(&matching).unwrap();
    // clique_drift without a clustered environment is meaningless.
    assert!(matches!(
        ScenarioSpec::from_toml_str(&epoch(VALID)),
        Err(ScenarioError::Unsupported { .. })
    ));
}

#[test]
fn trace_env_with_explicit_n_is_unsupported() {
    let src = replace(VALID, "kind = \"uniform\"", "kind = \"trace\"\ndataset = 1");
    assert!(matches!(ScenarioSpec::from_toml_str(&src), Err(ScenarioError::Unsupported { .. })));
}

#[test]
fn errors_render_readable_messages() {
    let src = replace(VALID, "push-sum-revert", "nope");
    let msg = ScenarioSpec::from_toml_str(&src).unwrap_err().to_string();
    assert!(msg.contains("unknown protocol `nope`"), "{msg}");
    let src = replace(VALID, "seed = 7\n", "");
    let msg = ScenarioSpec::from_toml_str(&src).unwrap_err().to_string();
    assert!(msg.contains("missing required key `seed`"), "{msg}");
}

// ── sizes a run could not survive ───────────────────────────────────────

/// `[protocol]` swapped for `table`; must be `Invalid` at `key`.
fn assert_protocol_invalid(base: &str, table: &str, key: &str) {
    let src = replace(base, "[protocol]\nname = \"push-sum-revert\"\nlambda = 0.01", table);
    match ScenarioSpec::from_toml_str(&src) {
        Err(ScenarioError::Invalid { key: k, .. }) if k == key => {}
        other => panic!("{table}: expected Invalid {{ {key} }}, got {other:?}"),
    }
}

#[test]
fn full_transfer_parcels_and_window_are_bounded() {
    let full_transfer = |key: &str, v: u64| {
        format!("[protocol]\nname = \"full-transfer\"\nlambda = 0.01\n{key} = {v}")
    };
    // `u32::MAX` parcels reserved a 17 GB target list per host.
    assert_protocol_invalid(VALID, &full_transfer("parcels", 4_294_967_295), "protocol.parcels");
    assert_protocol_invalid(VALID, &full_transfer("parcels", 0), "protocol.parcels");
    assert_protocol_invalid(VALID, &full_transfer("window", 1 << 40), "protocol.window");
    assert_protocol_invalid(VALID, &full_transfer("window", 0), "protocol.window");
    // The per-host bound is inclusive: 65 536 is accepted, one more is not.
    assert_protocol_invalid(VALID, &full_transfer("parcels", 65_537), "protocol.parcels");
    let at_bound = replace(
        VALID,
        "[protocol]\nname = \"push-sum-revert\"\nlambda = 0.01",
        &full_transfer("parcels", 65_536),
    );
    ScenarioSpec::from_toml_str(&at_bound).unwrap();
    // A count past `u32` is refused, not wrapped to a small valid one.
    assert_protocol_invalid(VALID, &full_transfer("parcels", (1 << 32) + 1), "protocol.parcels");
}

#[test]
fn sketch_identifiers_are_bounded() {
    // `n × multiplier` wrapped in release and overflowed in debug, and
    // each host hashes `multiplier` identifiers at boot.
    for name in ["count-sketch", "count-sketch-reset"] {
        let sketch = |m: u64| format!("[protocol]\nname = \"{name}\"\nmultiplier = {m}");
        assert_protocol_invalid(VALID, &sketch(i64::MAX as u64), "protocol.multiplier");
        // 200 hosts × 2³² / 100 identifiers is past the 2³² bound…
        assert_protocol_invalid(VALID, &sketch((1 << 32) / 100), "protocol.multiplier");
        // …and 200 × 100 (Fig. 11's load) is far inside it.
        let ok =
            replace(VALID, "[protocol]\nname = \"push-sum-revert\"\nlambda = 0.01", &sketch(100));
        ScenarioSpec::from_toml_str(&ok).unwrap();
    }
    // The bound holds at every swept population, not only at `n`.
    let swept = format!("{VALID}\n[sweep]\naxis = \"n\"\nvalues = [200.0, 100000000.0]\n");
    assert_protocol_invalid(
        &swept,
        "[protocol]\nname = \"count-sketch-reset\"\nmultiplier = 100",
        "protocol.multiplier",
    );
    // Trace environments resolve their population from the dataset.
    let trace = replace(VALID, "kind = \"uniform\"", "kind = \"trace\"\ndataset = 1");
    let trace = replace(&trace, "n = 200\n", "");
    assert_protocol_invalid(
        &trace,
        "[protocol]\nname = \"count-sketch-reset\"\nmultiplier = 4294967296",
        "protocol.multiplier",
    );
}

// ── async engine ────────────────────────────────────────────────────────

/// A valid async scenario exercising every `[async]` key.
const VALID_ASYNC: &str = r#"
name = "valid-async"
seed = 7
n = 200
rounds = 10
engine = "async"

[async]
interval_ms = 100
jitter = 0.05
sample_every_ms = 50

[async.latency]
kind = "uniform"
lo_ms = 5
hi_ms = 30

[async.drift]
kind = "skew"
spread = 0.2

[env]
kind = "uniform"

[protocol]
name = "push-sum-revert"
lambda = 0.01
"#;

#[test]
fn the_async_fixture_parses_and_validates() {
    let spec = ScenarioSpec::from_toml_str(VALID_ASYNC).unwrap();
    assert_eq!(spec.engine, dynagg_scenario::Engine::Async);
    let a = spec.asynchrony.expect("[async] table parsed");
    assert_eq!(a.interval_ms, 100);
    assert_eq!(a.sample_every_ms, Some(50));
    assert_eq!(a.latency, dynagg_scenario::LatencySpec::Uniform { lo_ms: 5, hi_ms: 30 });
    assert_eq!(a.drift, dynagg_scenario::DriftSpec::Skew { spread: 0.2 });
}

#[test]
fn async_engine_without_async_table_uses_defaults() {
    let src = replace(VALID, "rounds = 10", "rounds = 10\nengine = \"async\"");
    let spec = ScenarioSpec::from_toml_str(&src).unwrap();
    assert_eq!(spec.engine, dynagg_scenario::Engine::Async);
    assert!(spec.asynchrony.is_none(), "defaults apply at run time");
}

#[test]
fn async_keys_under_lockstep_engines_are_unsupported() {
    // [async] with the (default) push engine.
    let src = format!("{VALID}\n[async]\ninterval_ms = 50\n");
    match ScenarioSpec::from_toml_str(&src) {
        Err(ScenarioError::Unsupported { reason }) => {
            assert!(reason.contains("engine = \"push\""), "{reason}");
        }
        other => panic!("expected Unsupported, got {other:?}"),
    }
    // [async] with the pairwise engine.
    let src = replace(VALID, "rounds = 10", "rounds = 10\nengine = \"pairwise\"");
    let src = format!("{src}\n[async]\ninterval_ms = 50\n");
    assert!(matches!(ScenarioSpec::from_toml_str(&src), Err(ScenarioError::Unsupported { .. })));
}

#[test]
fn async_engine_runs_every_environment() {
    // The membership layer lets the async engine drive every topology;
    // these used to be typed rejections and must now validate — and run.
    let clustered = replace(
        VALID_ASYNC,
        "[env]\nkind = \"uniform\"",
        "[env]\nkind = \"clustered\"\nclusters = 4\nmigration = 0.01",
    );
    let mut spec = ScenarioSpec::from_toml_str(&clustered).unwrap();
    spec.n = Some(80);
    spec.rounds = Some(3);
    let series = dynagg_scenario::run_series(&spec).unwrap();
    // The fixture samples every 50 ms: two rows per 100 ms nominal round.
    assert_eq!(series.rounds.len(), 6);
    assert_eq!(series.last().unwrap().alive, 80);

    let spatial = replace(VALID_ASYNC, "[env]\nkind = \"uniform\"", "[env]\nkind = \"spatial\"");
    let mut spec = ScenarioSpec::from_toml_str(&spatial).unwrap();
    spec.n = Some(49);
    spec.rounds = Some(3);
    let series = dynagg_scenario::run_series(&spec).unwrap();
    assert_eq!(series.last().unwrap().alive, 49);

    let trace =
        replace(VALID_ASYNC, "[env]\nkind = \"uniform\"", "[env]\nkind = \"trace\"\ndataset = 1");
    let trace = replace(&trace, "n = 200\n", ""); // trace envs derive n
    let mut spec = ScenarioSpec::from_toml_str(&trace).unwrap();
    spec.rounds = Some(3);
    let series = dynagg_scenario::run_series(&spec).unwrap();
    assert_eq!(series.last().unwrap().alive, 9, "dataset 1 has 9 devices");
}

#[test]
fn group_truth_under_async_is_shard_count_invariant() {
    // Both async drains sample through one coordinator, which reads group
    // truths from the membership layer's group view on the coordinating
    // thread — so a trace + group-mean spec validates at every shard
    // setting and the sharded series cannot depend on the count.
    let src =
        replace(VALID_ASYNC, "[env]\nkind = \"uniform\"", "[env]\nkind = \"trace\"\ndataset = 1");
    let src = replace(&src, "n = 200\n", "");
    let src = replace(&src, "rounds = 10", "rounds = 10\ntruth = \"group-mean\"");
    ScenarioSpec::from_toml_str(&src).expect("sequential async samples group truths");
    let auto = replace(&src, "interval_ms = 100", "interval_ms = 100\nshards = \"auto\"");
    ScenarioSpec::from_toml_str(&auto).expect("so does the sharded engine");

    let run = |shards: u32| {
        let src =
            replace(&src, "interval_ms = 100", &format!("interval_ms = 100\nshards = {shards}"));
        dynagg_scenario::run_series(&ScenarioSpec::from_toml_str(&src).unwrap()).unwrap()
    };
    let two = run(2);
    assert_eq!(two, run(4), "group-truth series must not depend on the shard count");
    assert!(
        two.rounds.iter().any(|r| r.mean_group_size > 0.0),
        "the sharded sampler must read the trace's group structure"
    );
}

#[test]
fn unknown_async_keys_and_kinds_are_typed() {
    let src = replace(VALID_ASYNC, "interval_ms = 100", "interval = 100");
    assert!(matches!(
        ScenarioSpec::from_toml_str(&src),
        Err(ScenarioError::UnknownKey { table: "async", .. })
    ));
    let src =
        replace(VALID_ASYNC, "kind = \"uniform\"\nlo_ms = 5\nhi_ms = 30", "kind = \"gaussian\"");
    assert!(matches!(
        ScenarioSpec::from_toml_str(&src),
        Err(ScenarioError::UnknownName { what: "latency kind", .. })
    ));
    let src = replace(VALID_ASYNC, "kind = \"skew\"\nspread = 0.2", "kind = \"wobble\"");
    assert!(matches!(
        ScenarioSpec::from_toml_str(&src),
        Err(ScenarioError::UnknownName { what: "drift kind", .. })
    ));
}

#[test]
fn async_range_violations_are_typed() {
    let src = replace(VALID_ASYNC, "jitter = 0.05", "jitter = 1.5");
    assert!(matches!(
        ScenarioSpec::from_toml_str(&src),
        Err(ScenarioError::Invalid { key, .. }) if key == "async.jitter"
    ));
    let src = replace(VALID_ASYNC, "lo_ms = 5\nhi_ms = 30", "lo_ms = 30\nhi_ms = 5");
    assert!(matches!(
        ScenarioSpec::from_toml_str(&src),
        Err(ScenarioError::Invalid { key, .. }) if key == "async.latency"
    ));
    let src = replace(VALID_ASYNC, "spread = 0.2", "spread = 1.0");
    assert!(matches!(
        ScenarioSpec::from_toml_str(&src),
        Err(ScenarioError::Invalid { key, .. }) if key == "async.drift.spread"
    ));
    let src = replace(VALID_ASYNC, "sample_every_ms = 50", "sample_every_ms = 0");
    assert!(matches!(
        ScenarioSpec::from_toml_str(&src),
        Err(ScenarioError::Invalid { key, .. }) if key == "async.sample_every_ms"
    ));
}

#[test]
fn async_horizon_must_fit_the_millisecond_clock() {
    // `rounds × interval_ms` is the drains' horizon in `u64` milliseconds:
    // it wrapped in release (an empty series) and overflowed in debug.
    let src = replace(VALID_ASYNC, "interval_ms = 100", "interval_ms = 9223372036854775807");
    match ScenarioSpec::from_toml_str(&src) {
        Err(ScenarioError::Invalid { key, reason }) => {
            assert_eq!(key, "async.interval_ms");
            assert!(reason.contains("10 rounds"), "{reason}");
        }
        other => panic!("expected Invalid {{ async.interval_ms }}, got {other:?}"),
    }
}

#[test]
fn counter_cdf_under_async_is_shard_count_invariant() {
    let base = replace(
        VALID_ASYNC,
        "[protocol]\nname = \"push-sum-revert\"\nlambda = 0.01",
        "[protocol]\nname = \"count-sketch-reset\"\n\n[output]\nreport = \"counter-cdf\"",
    );
    // Every async drain hands its nodes back once `run` returns, so the
    // post-run counter readout validates at every shard setting.
    ScenarioSpec::from_toml_str(&base).unwrap();
    for shards in ["shards = 1", "shards = \"auto\""] {
        let src = replace(&base, "interval_ms = 100", &format!("interval_ms = 100\n{shards}"));
        ScenarioSpec::from_toml_str(&src).unwrap();
    }
    let run = |shards: u32| {
        let src =
            replace(&base, "interval_ms = 100", &format!("interval_ms = 100\nshards = {shards}"));
        let mut outcome =
            dynagg_scenario::run(&ScenarioSpec::from_toml_str(&src).unwrap()).unwrap();
        outcome.instances.remove(0).trials.remove(0)
    };
    let two = run(2);
    assert_eq!(two, run(4), "series and counter samples must not depend on the shard count");
    let samples = two.counter_samples.expect("counter-cdf report under the sharded engine");
    assert!(samples.iter().flatten().sum::<u64>() > 0, "live hosts hold finite counters");
}

// ── wire accounting ─────────────────────────────────────────────────────

#[test]
fn measured_wire_parses_on_the_push_engine() {
    let src = replace(VALID, "rounds = 10", "rounds = 10\nwire = \"measured\"");
    let spec = ScenarioSpec::from_toml_str(&src).unwrap();
    assert_eq!(spec.wire, dynagg_scenario::WireAccounting::Measured);
    // `priced` and an absent key are the same default.
    let src = replace(VALID, "rounds = 10", "rounds = 10\nwire = \"priced\"");
    assert_eq!(
        ScenarioSpec::from_toml_str(&src).unwrap().wire,
        ScenarioSpec::from_toml_str(VALID).unwrap().wire,
    );
}

#[test]
fn unknown_wire_name_is_typed() {
    let src = replace(VALID, "rounds = 10", "rounds = 10\nwire = \"metered\"");
    match ScenarioSpec::from_toml_str(&src) {
        Err(ScenarioError::UnknownName { what: "wire", name }) => assert_eq!(name, "metered"),
        other => panic!("expected UnknownName {{ wire }}, got {other:?}"),
    }
}

// ── probes ──────────────────────────────────────────────────────────────

#[test]
fn mass_weight_probe_parses_on_mass_protocols() {
    let src = format!("{VALID}\n[output]\nprobe = \"mass-weight\"\n");
    let spec = ScenarioSpec::from_toml_str(&src).unwrap();
    assert_eq!(spec.output.probe, Some(dynagg_scenario::Probe::MassWeight));
}

#[test]
fn mass_weight_probe_on_massless_protocol_is_unsupported() {
    let src = replace(
        VALID,
        "[protocol]\nname = \"push-sum-revert\"\nlambda = 0.01",
        "[protocol]\nname = \"count-sketch-reset\"",
    );
    let src = format!("{src}\n[output]\nprobe = \"mass-weight\"\n");
    match ScenarioSpec::from_toml_str(&src) {
        Err(ScenarioError::Unsupported { reason }) => {
            assert!(reason.contains("mass"), "{reason}");
        }
        other => panic!("expected Unsupported, got {other:?}"),
    }
}

/// Every engine hands its live nodes to the one post-run reader, so the
/// probe reads the async engines too (once a typed rejection).
#[test]
fn mass_weight_probe_reads_the_async_engines() {
    let src = format!("{VALID_ASYNC}\n[output]\nprobe = \"mass-weight\"\n");
    assert!(run_trial(&src).probe.is_some());

    // Static Push-Sum neither creates nor reverts weight, so a lossless
    // run reads Σw = n up to the shares in flight when the run stops (a
    // host keeps counting the half it sent until its own round ends);
    // lost frames take their weight with them.
    let n = 200.0;
    let push_sum = replace(&src, "lambda = 0.01", "lambda = 0.0");
    let lossless = run_trial(&push_sum).probe.unwrap();
    assert!((lossless - n).abs() <= n / 2.0, "lossless Σw = {lossless} for {n} hosts");
    let lossy = replace(&push_sum, "rounds = 10", "rounds = 10\nloss = 0.2");
    let lossy = run_trial(&lossy).probe.unwrap();
    assert!(lossy < lossless.min(n), "20 % loss must leak weight: {lossy} vs {lossless}");

    let sharded = |k: u32| {
        run_trial(&replace(
            &push_sum,
            "interval_ms = 100",
            &format!("interval_ms = 100\nshards = {k}"),
        ))
    };
    let two = sharded(2);
    assert_eq!(two, sharded(4), "the reading must not depend on the shard count");
    let w = two.probe.expect("probe under the sharded engine");
    assert!((w - n).abs() <= n / 2.0, "sharded Σw = {w} for {n} hosts");
}

/// The reader visits exactly the hosts the last row counts alive,
/// whichever engine ran. λ = 1 re-anchors every host at weight 1 each
/// round: a lockstep survivor ends its round holding its own half plus
/// one half per frame received, and after the failure every frame goes to
/// a survivor, so Σw *is* the head count; the async engines stop
/// mid-round, within the shares in flight of it.
#[test]
fn mass_weight_probe_counts_the_live_hosts_on_every_engine() {
    let base = replace(VALID, "lambda = 0.01", "lambda = 1.0");
    let base = format!(
        "{base}\n[failure]\nkind = \"at-round\"\nround = 3\nfraction = 0.3\n\n\
         [output]\nmetrics = [\"alive\"]\nprobe = \"mass-weight\"\n"
    );
    let engine =
        |keys: &str| run_trial(&replace(&base, "rounds = 10", &format!("rounds = 10\n{keys}")));
    for keys in ["engine = \"push\"", "engine = \"pairwise\""] {
        let trial = engine(keys);
        let alive = trial.series.last().unwrap().alive;
        assert_eq!(alive, 140, "{keys}: the failure struck");
        assert_eq!(trial.probe, Some(alive as f64), "{keys}");
    }
    for keys in ["engine = \"async\"", "engine = \"async\"\n\n[async]\nshards = 2"] {
        let trial = engine(keys);
        let alive = trial.series.last().unwrap().alive as f64;
        let w = trial.probe.expect("probe under async");
        assert!((w - alive).abs() <= alive / 2.0, "{keys}: Σw = {w} for {alive} live hosts");
    }
}

#[test]
fn unknown_probe_name_is_typed() {
    let src = format!("{VALID}\n[output]\nprobe = \"total-mass\"\n");
    assert!(matches!(
        ScenarioSpec::from_toml_str(&src),
        Err(ScenarioError::UnknownName { what: "probe", .. })
    ));
}

// ── chaos: partitions ───────────────────────────────────────────────────

/// A valid two-island split/heal over the uniform environment.
const VALID_PARTITION: &str = r#"
name = "valid-partition"
seed = 7
n = 200
rounds = 10

[env]
kind = "uniform"

[protocol]
name = "push-sum-revert"
lambda = 0.01

[[partition]]
at_round = 2
heal_at = 6
islands = ["nodes:0..100", "nodes:100..200"]
"#;

#[test]
fn the_partition_fixture_parses() {
    let spec = ScenarioSpec::from_toml_str(VALID_PARTITION).unwrap();
    assert_eq!(spec.partitions.len(), 1);
    assert_eq!(spec.partitions[0].at_round, 2);
    assert_eq!(spec.partitions[0].heal_at, Some(6));
    assert_eq!(spec.partitions[0].islands.len(), 2);
}

#[test]
fn unknown_island_kind_is_typed() {
    let src = replace(VALID_PARTITION, "nodes:0..100", "rows:0..100");
    match ScenarioSpec::from_toml_str(&src) {
        Err(ScenarioError::UnknownName { what: "island kind", name }) => assert_eq!(name, "rows"),
        other => panic!("expected UnknownName {{ island kind }}, got {other:?}"),
    }
}

#[test]
fn malformed_island_syntax_is_typed() {
    // Not a range.
    let src = replace(VALID_PARTITION, "nodes:0..100", "nodes:0-100");
    match ScenarioSpec::from_toml_str(&src) {
        Err(ScenarioError::Invalid { key, reason }) => {
            assert_eq!(key, "partition.islands");
            assert!(reason.contains("half-open range"), "{reason}");
        }
        other => panic!("expected Invalid {{ partition.islands }}, got {other:?}"),
    }
    // Not an integer.
    let src = replace(VALID_PARTITION, "nodes:0..100", "nodes:zero..100");
    assert!(matches!(
        ScenarioSpec::from_toml_str(&src),
        Err(ScenarioError::Invalid { key, .. }) if key == "partition.islands"
    ));
    // Region needs four coordinates.
    let src = replace(VALID_PARTITION, "nodes:0..100", "region:0,0,5");
    assert!(matches!(
        ScenarioSpec::from_toml_str(&src),
        Err(ScenarioError::Invalid { key, .. }) if key == "partition.islands"
    ));
    // No kind prefix at all.
    let src = replace(VALID_PARTITION, "nodes:0..100", "0..100");
    assert!(matches!(
        ScenarioSpec::from_toml_str(&src),
        Err(ScenarioError::Invalid { key, .. }) if key == "partition.islands"
    ));
}

#[test]
fn overlapping_and_incomplete_islands_are_typed() {
    let overlap = replace(VALID_PARTITION, "nodes:100..200", "nodes:50..200");
    match ScenarioSpec::from_toml_str(&overlap) {
        Err(ScenarioError::Invalid { key, reason }) => {
            assert_eq!(key, "partition[0]");
            assert!(reason.contains("overlap"), "{reason}");
        }
        other => panic!("expected Invalid {{ partition[0] }}, got {other:?}"),
    }
    let hole = replace(VALID_PARTITION, "nodes:100..200", "nodes:150..200");
    match ScenarioSpec::from_toml_str(&hole) {
        Err(ScenarioError::Invalid { key, reason }) => {
            assert_eq!(key, "partition[0]");
            assert!(reason.contains("no island"), "{reason}");
        }
        other => panic!("expected Invalid {{ partition[0] }}, got {other:?}"),
    }
}

#[test]
fn heal_before_split_is_typed() {
    let src = replace(VALID_PARTITION, "heal_at = 6", "heal_at = 2");
    assert!(matches!(
        ScenarioSpec::from_toml_str(&src),
        Err(ScenarioError::Invalid { key, .. }) if key == "partition[0]"
    ));
}

#[test]
fn island_kinds_must_match_the_environment() {
    // Clique islands against the uniform environment.
    let src = replace(
        VALID_PARTITION,
        "\"nodes:0..100\", \"nodes:100..200\"",
        "\"cliques:0\", \"cliques:1\"",
    );
    match ScenarioSpec::from_toml_str(&src) {
        Err(ScenarioError::Invalid { key, reason }) => {
            assert_eq!(key, "partition[0]");
            assert!(reason.contains("clustered"), "{reason}");
        }
        other => panic!("expected Invalid {{ partition[0] }}, got {other:?}"),
    }
    // Region islands likewise need the spatial grid.
    let src = replace(
        VALID_PARTITION,
        "\"nodes:0..100\", \"nodes:100..200\"",
        "\"region:0,0,7,14\", \"region:8,0,14,14\"",
    );
    assert!(matches!(
        ScenarioSpec::from_toml_str(&src),
        Err(ScenarioError::Invalid { key, reason }) if key == "partition[0]" && reason.contains("spatial")
    ));
}

#[test]
fn partition_on_trace_env_is_unsupported() {
    let src = replace(VALID_PARTITION, "kind = \"uniform\"", "kind = \"trace\"\ndataset = 1");
    let src = replace(&src, "n = 200\n", "");
    match ScenarioSpec::from_toml_str(&src) {
        Err(ScenarioError::Unsupported { reason }) => assert!(reason.contains("trace"), "{reason}"),
        other => panic!("expected Unsupported, got {other:?}"),
    }
}

#[test]
fn partition_with_population_sweep_is_unsupported() {
    let src = format!("{VALID_PARTITION}\n[sweep]\naxis = \"n\"\nvalues = [100.0, 200.0]\n");
    match ScenarioSpec::from_toml_str(&src) {
        Err(ScenarioError::Unsupported { reason }) => {
            assert!(reason.contains("population sweep"), "{reason}");
        }
        other => panic!("expected Unsupported, got {other:?}"),
    }
}

#[test]
fn partition_with_churn_joins_is_unsupported() {
    let src = format!(
        "{VALID_PARTITION}\n[failure]\nkind = \"churn\"\nleave_per_round = 0.01\njoin_per_round = 0.01\n"
    );
    match ScenarioSpec::from_toml_str(&src) {
        Err(ScenarioError::Unsupported { reason }) => {
            assert!(reason.contains("island assignment"), "{reason}");
        }
        other => panic!("expected Unsupported, got {other:?}"),
    }
    // Leave-only churn composes fine.
    let src = format!(
        "{VALID_PARTITION}\n[failure]\nkind = \"churn\"\nleave_per_round = 0.01\njoin_per_round = 0.0\n"
    );
    ScenarioSpec::from_toml_str(&src).unwrap();
}

#[test]
fn overlapping_partition_schedules_are_typed() {
    let second = "\n[[partition]]\nat_round = 4\nheal_at = 9\nislands = [\"nodes:0..50\", \"nodes:50..200\"]\n";
    let src = format!("{VALID_PARTITION}{second}");
    match ScenarioSpec::from_toml_str(&src) {
        Err(ScenarioError::Invalid { key, reason }) => {
            assert_eq!(key, "partition");
            assert!(reason.contains("overlap"), "{reason}");
        }
        other => panic!("expected Invalid {{ partition }}, got {other:?}"),
    }
}

#[test]
fn unknown_partition_keys_and_missing_islands_are_typed() {
    let src = replace(VALID_PARTITION, "at_round = 2", "at_round = 2\nsplit_at = 2");
    assert!(matches!(
        ScenarioSpec::from_toml_str(&src),
        Err(ScenarioError::UnknownKey { table: "partition", key }) if key == "split_at"
    ));
    let src = replace(VALID_PARTITION, "islands = [\"nodes:0..100\", \"nodes:100..200\"]\n", "");
    assert_eq!(
        ScenarioSpec::from_toml_str(&src).unwrap_err(),
        ScenarioError::Missing { table: "partition", key: "islands" }
    );
}

// ── chaos: adversaries ──────────────────────────────────────────────────

/// A valid mass-inflation adversary over Push-Sum-Revert.
const VALID_ADVERSARY: &str = r#"
name = "valid-adversary"
seed = 7
n = 200
rounds = 10

[env]
kind = "uniform"

[protocol]
name = "push-sum-revert"
lambda = 0.01

[adversary]
attack = "mass-inflation"
fraction = 0.02
factor = 2.0
from_round = 3
"#;

#[test]
fn the_adversary_fixture_parses() {
    let spec = ScenarioSpec::from_toml_str(VALID_ADVERSARY).unwrap();
    let adv = spec.adversary.expect("[adversary] parsed");
    assert_eq!(adv.fraction, 0.02);
    assert_eq!(adv.from_round, 3);
}

#[test]
fn unknown_attack_name_is_typed() {
    let src = replace(VALID_ADVERSARY, "mass-inflation", "bit-rot");
    match ScenarioSpec::from_toml_str(&src) {
        Err(ScenarioError::UnknownName { what: "attack", name }) => assert_eq!(name, "bit-rot"),
        other => panic!("expected UnknownName {{ attack }}, got {other:?}"),
    }
}

#[test]
fn adversary_under_pairwise_engine_is_unsupported() {
    let src = replace(VALID_ADVERSARY, "rounds = 10", "rounds = 10\nengine = \"pairwise\"");
    match ScenarioSpec::from_toml_str(&src) {
        Err(ScenarioError::Unsupported { reason }) => {
            assert!(reason.contains("pairwise"), "{reason}");
        }
        other => panic!("expected Unsupported, got {other:?}"),
    }
}

#[test]
fn adversary_fraction_out_of_range_is_typed() {
    for bad in ["fraction = 0.0", "fraction = 1.5", "fraction = -0.1"] {
        let src = replace(VALID_ADVERSARY, "fraction = 0.02", bad);
        assert!(
            matches!(
                ScenarioSpec::from_toml_str(&src),
                Err(ScenarioError::Invalid { ref key, .. }) if key == "adversary.fraction"
            ),
            "`{bad}` must be rejected"
        );
    }
}

#[test]
fn negative_inflation_factor_is_typed() {
    let src = replace(VALID_ADVERSARY, "factor = 2.0", "factor = -1.0");
    assert!(matches!(
        ScenarioSpec::from_toml_str(&src),
        Err(ScenarioError::Invalid { key, .. }) if key == "adversary.factor"
    ));
}

#[test]
fn attack_protocol_mismatches_are_unsupported() {
    // Mass inflation has nothing to corrupt in a sketch protocol.
    let src = replace(
        VALID_ADVERSARY,
        "[protocol]\nname = \"push-sum-revert\"\nlambda = 0.01",
        "[protocol]\nname = \"count-sketch\"",
    );
    match ScenarioSpec::from_toml_str(&src) {
        Err(ScenarioError::Unsupported { reason }) => {
            assert!(reason.contains("mass-inflation"), "{reason}");
        }
        other => panic!("expected Unsupported, got {other:?}"),
    }
    // Stale-epoch replay needs epoch annotations on the wire.
    let src = replace(
        VALID_ADVERSARY,
        "attack = \"mass-inflation\"\nfraction = 0.02\nfactor = 2.0",
        "attack = \"stale-epoch-replay\"\nfraction = 0.02",
    );
    assert!(matches!(ScenarioSpec::from_toml_str(&src), Err(ScenarioError::Unsupported { .. })));
    // Sketch corruption needs sketch payloads.
    let src = replace(
        VALID_ADVERSARY,
        "attack = \"mass-inflation\"\nfraction = 0.02\nfactor = 2.0",
        "attack = \"sketch-corruption\"\nfraction = 0.02\ncells = 4",
    );
    assert!(matches!(ScenarioSpec::from_toml_str(&src), Err(ScenarioError::Unsupported { .. })));
}

#[test]
fn attack_keys_are_attack_specific() {
    // `cells` belongs to sketch-corruption, not mass-inflation.
    let src = replace(VALID_ADVERSARY, "factor = 2.0", "factor = 2.0\ncells = 4");
    assert!(matches!(
        ScenarioSpec::from_toml_str(&src),
        Err(ScenarioError::UnknownKey { table: "adversary", key }) if key == "cells"
    ));
    // `factor` is meaningless for stale-epoch-replay.
    let src = replace(
        VALID_ADVERSARY,
        "push-sum-revert\"\nlambda = 0.01",
        "epoch-push-sum\"\nepoch_len = 20",
    );
    let src = replace(&src, "attack = \"mass-inflation\"", "attack = \"stale-epoch-replay\"");
    assert!(matches!(
        ScenarioSpec::from_toml_str(&src),
        Err(ScenarioError::UnknownKey { table: "adversary", key }) if key == "factor"
    ));
    // Zero forged cells is no attack at all.
    let sketch = replace(
        VALID_ADVERSARY,
        "[protocol]\nname = \"push-sum-revert\"\nlambda = 0.01",
        "[protocol]\nname = \"count-sketch-reset\"",
    );
    let sketch = replace(
        &sketch,
        "attack = \"mass-inflation\"\nfraction = 0.02\nfactor = 2.0",
        "attack = \"sketch-corruption\"\nfraction = 0.02\ncells = 0",
    );
    assert!(matches!(
        ScenarioSpec::from_toml_str(&sketch),
        Err(ScenarioError::Invalid { key, .. }) if key == "adversary.cells"
    ));
}

/// Readers see through the adversarial wrapper to the protocol state it
/// wraps (both once typed rejections).
#[test]
fn probe_and_counter_cdf_read_through_the_adversary() {
    use dynagg_core::adversary::{Adversarial, Attack};
    use dynagg_core::push_sum_revert::PushSumRevert;
    use dynagg_sim::env::UniformEnv;

    let src = format!("{VALID_ADVERSARY}\n[output]\nprobe = \"mass-weight\"\n");
    let trial = run_trial(&src);
    // The same run assembled by hand, summing the wrapped protocols' own
    // books.
    let mut sim = dynagg_sim::runner::builder(7)
        .environment(UniformEnv::new())
        .nodes_with_paper_values(200)
        .protocol(|id, v| {
            let inner = PushSumRevert::new(v, 0.01);
            if id < 4 {
                Adversarial::malicious(inner, Attack::MassInflation { factor: 2.0 }, 3)
            } else {
                Adversarial::honest(inner)
            }
        })
        .build();
    for _ in 0..10 {
        sim.step();
    }
    let by_hand: f64 = sim.nodes().map(|(_, node)| node.inner().mass().weight).sum();
    assert_eq!(trial.probe, Some(by_hand));
    assert!(trial.series.last().unwrap().mass_audit > 1e-3, "the attack was live");
    // Mass inflation forges the value of what it sends, never a weight:
    // the honest run of the same seed weighs the same.
    let honest = run_trial(&format!("{VALID}\n[output]\nprobe = \"mass-weight\"\n"));
    assert_eq!(trial.probe, honest.probe);
    assert!(honest.series.last().unwrap().mass_audit.abs() < 1e-9);

    let sketch = replace(
        VALID_ADVERSARY,
        "[protocol]\nname = \"push-sum-revert\"\nlambda = 0.01",
        "[protocol]\nname = \"count-sketch-reset\"",
    );
    let sketch = replace(
        &sketch,
        "attack = \"mass-inflation\"\nfraction = 0.02\nfactor = 2.0",
        "attack = \"sketch-corruption\"\nfraction = 0.02\ncells = 4",
    );
    let sketch = format!("{sketch}\n[output]\nreport = \"counter-cdf\"\n");
    assert!(run_trial(&sketch).counter_samples.is_some());

    // 256 forged cells fill bit indices 0..4 of all 64 bins. 200 honest
    // hosts source a shrinking share of them (a host claims index k with
    // probability 2^-(k+1)), so the forged run holds finite counters
    // where the honest run of the same seed holds none.
    let forged = run_trial(&replace(&sketch, "cells = 4", "cells = 256")).counter_samples.unwrap();
    let honest = sketch.split("[adversary]").next().unwrap();
    let honest = format!("{honest}\n[output]\nreport = \"counter-cdf\"\n");
    let honest = run_trial(&honest).counter_samples.unwrap();
    for k in 0..4 {
        let (forged, honest): (u64, u64) = (forged[k].iter().sum(), honest[k].iter().sum());
        assert!(forged > honest, "bit index {k}: {forged} forged vs {honest} honest counters");
    }
}

#[test]
fn shards_key_parses_counts_and_auto() {
    let src = replace(VALID_ASYNC, "interval_ms = 100", "interval_ms = 100\nshards = 4");
    let spec = ScenarioSpec::from_toml_str(&src).unwrap();
    let a = spec.asynchrony.unwrap();
    assert_eq!(a.shards, Some(dynagg_scenario::ShardsSpec::Count(4)));
    assert_eq!(spec.effective_shards(200), (4, None));

    let src = replace(VALID_ASYNC, "interval_ms = 100", "interval_ms = 100\nshards = \"auto\"");
    let spec = ScenarioSpec::from_toml_str(&src).unwrap();
    assert_eq!(spec.asynchrony.unwrap().shards, Some(dynagg_scenario::ShardsSpec::Auto));
    let (k, note) = spec.effective_shards(200);
    assert!(note.is_none());
    assert!((2..=200).contains(&k), "auto clamps to [2, n], got {k}");

    // shards = 1 is the sequential engine, explicitly.
    let src = replace(VALID_ASYNC, "interval_ms = 100", "interval_ms = 100\nshards = 1");
    let spec = ScenarioSpec::from_toml_str(&src).unwrap();
    assert_eq!(spec.effective_shards(200), (1, None));
}

#[test]
fn shards_under_lockstep_engines_are_unsupported() {
    // `shards` lives in [async]; any [async] table under a lockstep
    // engine is already a typed rejection.
    let src = format!("{VALID}\n[async]\nshards = 4\n");
    match ScenarioSpec::from_toml_str(&src) {
        Err(ScenarioError::Unsupported { reason }) => {
            assert!(reason.contains("engine = \"push\""), "{reason}");
        }
        other => panic!("expected Unsupported, got {other:?}"),
    }
    let src = replace(VALID, "rounds = 10", "rounds = 10\nengine = \"pairwise\"");
    let src = format!("{src}\n[async]\nshards = 4\n");
    assert!(matches!(ScenarioSpec::from_toml_str(&src), Err(ScenarioError::Unsupported { .. })));
}

#[test]
fn shard_count_range_violations_are_typed() {
    // Zero shards is meaningless.
    let src = replace(VALID_ASYNC, "interval_ms = 100", "interval_ms = 100\nshards = 0");
    assert!(matches!(
        ScenarioSpec::from_toml_str(&src),
        Err(ScenarioError::Invalid { key, .. }) if key == "async.shards"
    ));
    // More shards than hosts is a spec bug, not a clamp.
    let src = replace(VALID_ASYNC, "interval_ms = 100", "interval_ms = 100\nshards = 300");
    assert!(matches!(
        ScenarioSpec::from_toml_str(&src),
        Err(ScenarioError::Invalid { key, .. }) if key == "async.shards"
    ));
    // Neither an integer nor "auto".
    let src = replace(VALID_ASYNC, "interval_ms = 100", "interval_ms = 100\nshards = \"all\"");
    assert!(matches!(
        ScenarioSpec::from_toml_str(&src),
        Err(ScenarioError::Invalid { key, .. }) if key == "async.shards"
    ));
}

#[test]
fn explicit_shards_with_zero_lookahead_are_typed() {
    // Exponential latency has no positive lower bound: the conservative
    // window protocol has zero lookahead, so an explicit parallel request
    // cannot be honored — a typed rejection, not a silent fallback.
    let src = replace(
        VALID_ASYNC,
        "kind = \"uniform\"\nlo_ms = 5\nhi_ms = 30",
        "kind = \"exponential\"\nmean_ms = 15.0",
    );
    let src = replace(&src, "interval_ms = 100", "interval_ms = 100\nshards = 4");
    match ScenarioSpec::from_toml_str(&src) {
        Err(ScenarioError::Invalid { key, reason }) => {
            assert_eq!(key, "async.shards");
            assert!(reason.contains("lookahead"), "{reason}");
        }
        other => panic!("expected Invalid {{ async.shards }}, got {other:?}"),
    }
}

#[test]
fn auto_shards_with_zero_lookahead_fall_back_with_a_typed_note() {
    // `shards = "auto"` degrades gracefully: the spec validates, and the
    // resolver reports the sequential fallback as a typed note.
    let src = replace(
        VALID_ASYNC,
        "kind = \"uniform\"\nlo_ms = 5\nhi_ms = 30",
        "kind = \"exponential\"\nmean_ms = 15.0",
    );
    let src = replace(&src, "interval_ms = 100", "interval_ms = 100\nshards = \"auto\"");
    let spec = ScenarioSpec::from_toml_str(&src).unwrap();
    let (k, note) = spec.effective_shards(200);
    assert_eq!(k, 1, "zero lookahead forces the sequential engine");
    match note {
        Some(dynagg_scenario::ShardFallback::ZeroLookahead { latency }) => {
            assert_eq!(latency, dynagg_scenario::LatencySpec::Exponential { mean_ms: 15.0 });
        }
        other => panic!("expected a ZeroLookahead note, got {other:?}"),
    }
    let rendered = note.unwrap().to_string();
    assert!(rendered.contains("zero lookahead"), "{rendered}");
}

// ── values the format no longer has ─────────────────────────────────────

/// A value deleted from the format is a typed error, never a silent
/// default: its key is unknown, or its name is.
#[test]
fn deleted_values_are_typed() {
    let env = |lines| replace(VALID, "kind = \"uniform\"", lines);
    let protocol = |lines| replace(VALID, "name = \"push-sum-revert\"\nlambda = 0.01", lines);
    let drift = |lines| replace(VALID_ASYNC, "kind = \"skew\"\nspread = 0.2", lines);
    let key = |table, key: &str| ScenarioError::UnknownKey { table, key: key.into() };
    let name = |what, name: &str| ScenarioError::UnknownName { what, name: name.into() };
    let epoch = "name = \"epoch-push-sum\"\nepoch_len = 20";
    let failure = "[failure]\nkind = \"at-round\"\nround = 3\nfraction = 0.5";
    let cases = [
        (env("kind = \"uniform\"\nbroadcast_fanout = 8"), key("env", "broadcast_fanout")),
        (env("kind = \"spatial\"\nmax_walk = 50"), key("env", "max_walk")),
        (protocol(&format!("{epoch}\ndrift_prob = 0.1")), key("protocol", "drift_prob")),
        (drift("kind = \"bernoulli\"\nskip_prob = 0.1"), name("drift kind", "bernoulli")),
        (drift("kind = \"random-walk\"\nstep_prob = 0.1"), name("drift kind", "random-walk")),
        (
            format!("{VALID}{failure}\nmode = \"bottom-value\"\n"),
            name("failure mode", "bottom-value"),
        ),
        (protocol("name = \"count-sketch-reset\"\ncutoff = \"slow\""), name("cutoff", "slow")),
        // Static Push-Sum is `push-sum-revert` at `lambda = 0`.
        (protocol("name = \"push-sum\""), name("protocol", "push-sum")),
    ];
    for (src, want) in cases {
        assert_eq!(ScenarioSpec::from_toml_str(&src), Err(want), "{src}");
    }
}

/// The two cutoff spellings no checked-in file uses parse to the values
/// they name, and `{ scale = 2.0 }` is Fig. 11's slow cutoff (the one
/// spelling it has).
#[test]
fn surviving_cutoff_spellings_parse_to_their_cutoffs() {
    use dynagg_scenario::ProtocolSpec;
    use dynagg_sketch::cutoff::Cutoff;
    let sketch = replace(
        VALID,
        "name = \"push-sum-revert\"\nlambda = 0.01",
        "name = \"count-sketch-reset\"",
    );
    for (spelling, want) in [
        ("\"infinite\"", Cutoff::Infinite),
        ("{ base = 7.0, slope = 0.25 }", Cutoff::paper_uniform()),
        ("{ scale = 2.0 }", Cutoff::slow()),
    ] {
        let spec = ScenarioSpec::from_toml_str(&format!("{sketch}cutoff = {spelling}\n")).unwrap();
        let ProtocolSpec::CountSketchReset { cutoff, .. } = spec.protocol else {
            panic!("{spelling}: not a Count-Sketch-Reset spec");
        };
        assert_eq!(cutoff, want, "cutoff = {spelling}");
    }
}
