//! Shard-equivalence harness: the headline guarantee of the sharded
//! asynchronous engine, in two layers.
//!
//! 1. **`shards = 1` is the engine we already pinned.** Adding
//!    `shards = 1` (or leaving the key out) to any async scenario keeps
//!    the sequential `AsyncNet` path, byte-for-byte: every pinned async
//!    golden digest from `scenario_goldens.rs` is re-asserted here with
//!    the key explicitly present. No golden is re-pinned by this PR.
//! 2. **`shards = k` is one digest family for every k ≥ 2.** The sharded
//!    engine's output is a pure function of `(seed, spec)` — the shard
//!    count, the shard *assignment*, and the worker interleaving cannot
//!    reach the bits. Those digests are pinned as `SHARDED_*` constants
//!    and asserted identical across shards ∈ {2, 4, 8}.
//!
//! The two families differ statistically (the sharded engine draws
//! loss/latency from per-sender RNG streams rather than one global
//! stream in population order — see `dynagg_node::shard`), which is why
//! layer 2 pins its own constants instead of reusing layer 1's.

mod common;

use common::*;
use dynagg_scenario::{AsyncSpec, Engine, ScenarioSpec, ShardsSpec};
use dynagg_sim::Series;

/// A pin table row: scenario name, pinned digest, digest flavor.
type Pin = (&'static str, u64, fn(&Series) -> u64);

/// Set the shard count on a spec, materializing the default `[async]`
/// table when the file omits it (the chaos scenarios re-run under
/// `engine = "async"` this way).
fn with_shards(mut spec: ScenarioSpec, shards: u64) -> ScenarioSpec {
    spec.asynchrony.get_or_insert(AsyncSpec::default()).shards = Some(ShardsSpec::Count(shards));
    spec
}

/// The six equivalence scenarios, scaled down to their pinned-golden
/// sizes (the chaos pair swaps to the async engine — its lockstep pins
/// live elsewhere and are not at stake here).
fn equivalence_specs() -> Vec<(&'static str, ScenarioSpec)> {
    let mut fig8 = load("async_fig8.toml");
    fig8.n = Some(400);
    fig8.rounds = Some(40);
    fig8.sweep = None;
    *fig8.protocol.lambda_mut().unwrap() = 0.01;

    let mut skew = load("async_skew_10k.toml");
    skew.n = Some(500);
    skew.rounds = Some(50);

    let mut clustered = load("async_clustered.toml");
    clustered.n = Some(1200);
    clustered.rounds = Some(60);

    let mut spatial = load("async_spatial.toml");
    spatial.n = Some(400);
    spatial.rounds = Some(80);

    let mut heal = load("partition_heal.toml");
    heal.n = Some(300);
    heal.rounds = Some(140);
    heal.engine = Engine::Async;

    let mut byz = load("byzantine_inflation.toml");
    byz.n = Some(300);
    byz.rounds = Some(80);
    byz.engine = Engine::Async;

    vec![
        ("async_fig8", fig8),
        ("async_skew_10k", skew),
        ("async_clustered", clustered),
        ("async_spatial", spatial),
        ("partition_heal", heal),
        ("byzantine_inflation", byz),
    ]
}

/// Layer 1a: `shards = 1` routes through the sequential engine, so the
/// whole series — not just its digest — matches a run without the key.
#[test]
fn shards_one_is_byte_identical_to_the_sequential_engine() {
    for (name, spec) in equivalence_specs() {
        let baseline = dynagg_scenario::run_series(&spec).unwrap();
        let sharded = dynagg_scenario::run_series(&with_shards(spec, 1)).unwrap();
        assert_eq!(
            baseline, sharded,
            "{name}: shards = 1 must be byte-identical to the engine without the key"
        );
    }
}

/// Layer 1b: the pinned async golden digests, re-asserted with
/// `shards = 1` explicitly present. `scenario_goldens.rs` asserts the
/// same constants (`common`) without the key, so a failure in only one
/// file means the two engines diverged.
#[test]
fn shards_one_reproduces_every_pinned_async_golden() {
    let pins: &[Pin] = &[
        ("async_fig8", GOLDEN_ASYNC_FIG8_L001_N400, digest),
        ("async_skew_10k", GOLDEN_ASYNC_SKEW_N500, digest),
        ("async_clustered", GOLDEN_ASYNC_CLUSTERED_N1200, digest),
        ("async_spatial", GOLDEN_ASYNC_SPATIAL_N400, digest),
    ];
    for (name, spec) in equivalence_specs() {
        let Some(&(_, pin, hash)) = pins.iter().find(|(n, ..)| n == &name) else {
            continue; // the chaos pair's pins are lockstep-engine digests
        };
        let series = dynagg_scenario::run_series(&with_shards(spec, 1)).unwrap();
        assert_eq!(
            hash(&series),
            pin,
            "{name}: shards = 1 must reproduce the pinned sequential golden digest"
        );
    }
}

/// Layer 2: pinned digests for the sharded family. Computed once at
/// `shards = 2` and asserted for every k — any assignment- or
/// interleaving-dependence shows up as a cross-k mismatch before it can
/// silently re-pin.
const SHARDED_ASYNC_FIG8_L001_N400: u64 = 0x4301_C806_23E6_B431;
const SHARDED_ASYNC_CLUSTERED_N600: u64 = 0xA5BC_6D97_E7AC_E229;
const SHARDED_ASYNC_SPATIAL_N400: u64 = 0x504D_A359_E61C_FFBE;
const SHARDED_PARTITION_HEAL_N300: u64 = 0xD018_81B6_19BD_41BC;
const SHARDED_BYZ_INFLATION_N300: u64 = 0x042F_1151_C307_2A8E;

#[test]
fn sharded_digests_are_pinned_and_shard_count_invariant() {
    let pins: &[Pin] = &[
        ("async_fig8", SHARDED_ASYNC_FIG8_L001_N400, digest),
        ("async_clustered", SHARDED_ASYNC_CLUSTERED_N600, digest),
        ("async_spatial", SHARDED_ASYNC_SPATIAL_N400, digest),
        ("partition_heal", SHARDED_PARTITION_HEAL_N300, digest_chaos),
        ("byzantine_inflation", SHARDED_BYZ_INFLATION_N300, digest_chaos),
    ];
    for (name, mut spec) in equivalence_specs() {
        let Some(&(_, pin, hash)) = pins.iter().find(|(n, ..)| n == &name) else {
            continue; // async_skew_10k: zero lookahead, covered below
        };
        if name == "async_clustered" {
            // The n = 1200 cell is the suite's most expensive run; one
            // size suffices for the invariance claim.
            spec.n = Some(600);
            spec.rounds = Some(40);
        }
        for k in [2u64, 4, 8] {
            let series = dynagg_scenario::run_series(&with_shards(spec.clone(), k)).unwrap();
            assert_eq!(
                hash(&series),
                pin,
                "{name}: the sharded digest must be identical at every shard count (k = {k}); \
                 if an engine change moved it, every k must move together and the SHARDED_* \
                 pin needs a documented update"
            );
        }
    }
}

/// The odd one out: exponential latency has no positive lower bound, so
/// the conservative window protocol cannot shard `async_skew_10k`. An
/// explicit count is a typed validation error, and `"auto"` falls back
/// to one shard — reproducing the sequential pin rather than silently
/// running a zero-lookahead parallel schedule.
#[test]
fn zero_lookahead_scenario_cannot_shard_but_auto_still_pins() {
    let (_, spec) = equivalence_specs().swap_remove(1);
    assert_eq!(spec.name, "async-skew-10k");

    let explicit = with_shards(spec.clone(), 4);
    let err = explicit.validate().unwrap_err();
    assert!(
        matches!(&err, dynagg_scenario::ScenarioError::Invalid { key, .. } if key == "async.shards"),
        "explicit shards with zero lookahead must be a typed rejection: {err}"
    );

    let mut auto = spec;
    auto.asynchrony.as_mut().unwrap().shards = Some(ShardsSpec::Auto);
    auto.validate().unwrap();
    let (k, note) = auto.effective_shards(500);
    assert_eq!(k, 1, "auto must fall back to the sequential engine");
    assert!(note.is_some(), "and say so through the typed fallback note");
    let series = dynagg_scenario::run_series(&auto).unwrap();
    assert_eq!(digest(&series), GOLDEN_ASYNC_SKEW_N500, "the fallback is the pinned engine");
}
