//! What `scenario_goldens.rs` and `shard_equivalence.rs` both pin
//! against: the scenario loader, the series digests and the sequential
//! async goldens, held once so the two files cannot drift apart.

use dynagg_scenario::ScenarioSpec;
use dynagg_sim::Series;
use std::path::{Path, PathBuf};

pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

pub fn scenarios_dir() -> PathBuf {
    repo_root().join("scenarios")
}

pub fn load(name: &str) -> ScenarioSpec {
    let path = scenarios_dir().join(name);
    let src = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    ScenarioSpec::from_toml_str(&src).unwrap_or_else(|e| panic!("{name}: {e}"))
}

/// One FNV-1a step over a little-endian `u64`.
pub fn fnv(h: &mut u64, x: u64) {
    for b in x.to_le_bytes() {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x100_0000_01B3);
    }
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a over the full series content, order-sensitive, bit-exact
/// (extends `tests/determinism.rs`' digest with the lifecycle columns).
pub fn digest(s: &Series) -> u64 {
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

/// The chaos digest: the base [`digest`] fields plus the two chaos
/// columns (`mass_audit`, `islands`), which the older goldens predate.
pub fn digest_chaos(s: &Series) -> u64 {
    let mut h = digest(s);
    for r in &s.rounds {
        fnv(&mut h, r.mass_audit.to_bits());
        fnv(&mut h, r.islands);
    }
    h
}

/// Pinned digests for the async scenarios (scaled-down single lines),
/// asserted on the sequential engine by `scenario_goldens.rs` and with
/// `shards = 1` by `shard_equivalence.rs`. Any engine/registry/parser
/// change that alters async output must update these constants with a
/// documented reason.
// Re-pinned for the membership layer: view draws moved to their own RNG
// stream (`stream::VIEWS`, no longer interleaved with interval/phase
// setup draws), views go through the shared `Membership::view_into`
// path, and the `bytes` column now carries raw payload bytes (the
// lockstep convention) with wire bytes in the new `wire_bytes` column.
pub const GOLDEN_ASYNC_FIG8_L001_N400: u64 = 0x51C2_B33A_B6C7_B931;
pub const GOLDEN_ASYNC_SKEW_N500: u64 = 0xF0A6_FDFB_5C52_72E0;
/// The async topology scenarios (scaled-down runs).
pub const GOLDEN_ASYNC_CLUSTERED_N1200: u64 = 0xBA4B_C751_CB72_9FA1;
pub const GOLDEN_ASYNC_SPATIAL_N400: u64 = 0x42F7_DE40_0D13_2EBE;
