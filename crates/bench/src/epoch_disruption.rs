//! Extension scenario — the §II-C figure the paper argues but never plots:
//! epoch-reset aggregation breaking under clique mobility.
//!
//! "Node mobility may result in disruptions in aggregate computation while
//! the destination clique settles on a new epoch number" (§II-C). This
//! sweep makes that cost a number: over a [`ClusteredEnv`] of isolated
//! cliques, it crosses **migration probability × clock-drift magnitude**
//! and, per cell, runs [`EpochPushSum`] (weak epoch sync, restart/settling
//! lifecycle) and [`PushSumRevert`] (no synchronization at all) on the
//! same topology and seed.
//!
//! Drift magnitude `d` models cliques with independent clock histories:
//! every host starts its epoch clock `clique_id × d × epoch_len` ticks in,
//! and its crystal runs at a per-clique constant skew (cliques span
//! `1 ± 0.2·d` ticks per round). At `d = 0` all clocks agree; at `d = 1`
//! neighboring cliques start a full epoch apart and diverge by several
//! ticks per epoch.
//!
//! Expected shape (asserted by this module's tests):
//!
//! * **zero mobility** — no cross-clique contact, so epoch variance never
//!   surfaces: both protocols plateau at the same within-clique floor;
//! * **migration + drift** — migrants carry foreign epoch numbers, every
//!   arrival forces disruptive restarts that cascade through the
//!   destination clique, estimates stay pinned to stale published values,
//!   and `EpochPushSum`'s steady-state error degrades ≥ 2× while
//!   `PushSumRevert` actually *improves* (migration mixes mass between
//!   cliques). The `settling` / `disruptions` columns show the §II-C
//!   mechanics directly.
//!
//! [`ClusteredEnv`]: dynagg_sim::env::ClusteredEnv
//! [`EpochPushSum`]: dynagg_core::epoch::EpochPushSum
//! [`PushSumRevert`]: dynagg_core::push_sum_revert::PushSumRevert

use crate::opts::ExpOpts;
use crate::output::Table;
use crate::scenario_run;
use dynagg_scenario::{EnvSpec, ProtocolSpec, ScenarioSpec};
use dynagg_sim::par;

/// Steady-state window start: several epochs past the initial transient.
const STEADY_FROM: u64 = 100;

/// One cell of the sweep.
#[derive(Debug, Clone, Copy)]
struct Cell {
    migration: f64,
    drift: f64,
}

/// Readings for one cell.
#[derive(Debug, Clone, Copy)]
struct Reading {
    epoch_err: f64,
    revert_err: f64,
    settling_rounds: u64,
    disruptions: u64,
}

/// The §II-C cell: `scenarios/epoch_disruption.toml` — [`EpochPushSum`]
/// over isolated cliques whose per-clique drift clocks (initial offset
/// `k · drift · epoch_len`, crystals spanning `1 ± 0.2·drift` ticks per
/// round) follow the clique a host *started* in, so mobility mixes fast
/// clocks into slow cliques — at another population, seed, migration
/// probability and drift magnitude. The file states the (0.02, 1.0) cell.
///
/// [`EpochPushSum`]: dynagg_core::epoch::EpochPushSum
pub fn epoch_cell_spec(n: usize, seed: u64, migration: f64, drift: f64) -> ScenarioSpec {
    let mut s =
        scenario_run::embedded(include_str!("../../../scenarios/epoch_disruption.toml"), seed);
    s.n = Some(n);
    let (
        EnvSpec::Clustered { migration: file_migration, .. },
        ProtocolSpec::EpochPushSum { clique_drift: Some(file_drift), .. },
    ) = (&mut s.env, &mut s.protocol)
    else {
        unreachable!("epoch_disruption.toml runs epoch-push-sum with clique drift over cliques");
    };
    *file_migration = migration;
    file_drift.magnitude = drift;
    s
}

/// The no-synchronization baseline on the identical topology and seed.
pub fn revert_cell_spec(n: usize, seed: u64, migration: f64) -> ScenarioSpec {
    let mut s = epoch_cell_spec(n, seed, migration, 0.0);
    s.name = "epoch-disruption-revert".into();
    s.protocol = ProtocolSpec::PushSumRevert { lambda: 0.01 };
    s
}

fn run_cell(n: usize, seed: u64, cell: Cell) -> Reading {
    let Cell { migration, drift } = cell;
    let epoch = dynagg_scenario::run_series(&epoch_cell_spec(n, seed, migration, drift))
        .expect("epoch cell spec is valid");
    let revert = dynagg_scenario::run_series(&revert_cell_spec(n, seed, migration))
        .expect("revert cell spec is valid");
    Reading {
        epoch_err: epoch.steady_state_stddev(STEADY_FROM),
        revert_err: revert.steady_state_stddev(STEADY_FROM),
        settling_rounds: epoch.settling_host_rounds(STEADY_FROM),
        disruptions: epoch.disruptions_between(STEADY_FROM),
    }
}

/// The migration × drift sweep as a table.
pub fn run(opts: &ExpOpts) -> Table {
    let n = opts.population().clamp(300, 1_200);
    let migrations = [0.0, 0.01, 0.02, 0.05];
    let drifts = [0.0, 0.5, 1.0];
    let cells: Vec<Cell> = migrations
        .iter()
        .flat_map(|&migration| drifts.iter().map(move |&drift| Cell { migration, drift }))
        .collect();
    let readings = par::par_map(&cells, |_, &cell| run_cell(n, opts.seed, cell));

    let file = epoch_cell_spec(n, opts.seed, 0.0, 0.0);
    let (
        EnvSpec::Clustered { clusters, .. },
        ProtocolSpec::EpochPushSum { epoch_len, settle_len: Some(settle_len), .. },
    ) = (&file.env, &file.protocol)
    else {
        unreachable!("epoch_disruption.toml runs epoch-push-sum with a settle window over cliques");
    };
    let mut t = Table::new(
        "epoch_disruption",
        format!(
            "Epoch disruption under clique mobility (§II-C) — {n} hosts, {clusters} cliques, \
             epoch_len {epoch_len}, settle {settle_len}, steady-state rounds {STEADY_FROM}+"
        ),
        &[
            "migration_prob",
            "drift_magnitude",
            "epoch_stddev",
            "revert_stddev",
            "ratio",
            "settling_host_rounds",
            "disruptions",
        ],
    );
    for (cell, r) in cells.iter().zip(&readings) {
        let ratio = if r.revert_err > 0.0 { r.epoch_err / r.revert_err } else { f64::NAN };
        t.push_row(vec![
            cell.migration,
            cell.drift,
            r.epoch_err,
            r.revert_err,
            ratio,
            r.settling_rounds as f64,
            r.disruptions as f64,
        ]);
    }
    t.note(
        "drift d: cliques start d·epoch_len ticks apart; crystals span 1±0.2d ticks/round"
            .to_string(),
    );
    t.note(
        "expected: at migration 0 both protocols share the within-clique floor; with \
         migration and drift, migrant epochs force settling cascades and the epoch \
         baseline degrades >=2x while reversion improves"
            .to_string(),
    );
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_mobility_matches_and_migration_degrades() {
        // The acceptance shape of the §II-C scenario, across seeds.
        for seed in 11u64..19 {
            let calm = run_cell(300, seed, Cell { migration: 0.0, drift: 1.0 });
            assert!(
                calm.epoch_err < calm.revert_err * 2.0 && calm.revert_err < calm.epoch_err * 2.0,
                "seed {seed}: zero mobility must keep both at the clique floor \
                 (epoch {:.2}, revert {:.2})",
                calm.epoch_err,
                calm.revert_err,
            );
            assert_eq!(calm.disruptions, 0, "no cross-clique contact, no disruptions");

            let mobile = run_cell(300, seed, Cell { migration: 0.02, drift: 1.0 });
            assert!(
                mobile.epoch_err >= 2.0 * mobile.revert_err,
                "seed {seed}: migration across drifted cliques must degrade epochs >=2x \
                 (epoch {:.2}, revert {:.2})",
                mobile.epoch_err,
                mobile.revert_err,
            );
            assert!(mobile.disruptions > 0, "migrant epochs must force restarts");
            assert!(mobile.settling_rounds > 0, "restarts must cost settling time");
        }
    }

    #[test]
    fn synced_clocks_survive_migration() {
        // Drift, not migration alone, is what breaks the epoch baseline:
        // with agreeing clocks the same mobility is harmless.
        let r = run_cell(300, 14, Cell { migration: 0.02, drift: 0.0 });
        assert_eq!(r.disruptions, 0, "synced cliques never disrupt each other");
        assert!(
            r.epoch_err < r.revert_err * 2.0,
            "synced epochs stay near the reversion floor (epoch {:.2}, revert {:.2})",
            r.epoch_err,
            r.revert_err,
        );
    }
}
