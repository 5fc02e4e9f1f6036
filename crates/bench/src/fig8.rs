//! **Figure 8** — accuracy of dynamic averaging under *uncorrelated*
//! failures.
//!
//! Paper workload: 100 000 hosts with values uniform in `[0, 100)`; every
//! iteration each host performs a push/pull exchange with one random peer;
//! after 20 iterations 50 000 random hosts are removed. One line per
//! reversion constant λ ∈ {0, 0.001, 0.01, 0.1, 0.5}; y-axis is the
//! standard deviation from the correct average.
//!
//! Expected shape (paper): the failure produces no lasting error for *any*
//! λ — random failures do not move the average — so all lines converge and
//! stay converged, with larger λ sitting at a slightly higher steady floor.
//!
//! The workload is `scenarios/fig8.toml`, embedded here; the command runs
//! that file at the CLI's seed and population.

use crate::opts::ExpOpts;
use crate::output::Table;
use crate::scenario_run;
use dynagg_scenario::ScenarioSpec;
use dynagg_sim::Series;

/// The figure's scenario at the CLI's seed and population.
pub fn scenario(opts: &ExpOpts) -> ScenarioSpec {
    let mut s = scenario_run::embedded(include_str!("../../../scenarios/fig8.toml"), opts.seed);
    s.n = Some(opts.population());
    s
}

/// Run one λ line.
pub fn run_line(opts: &ExpOpts, lambda: f64) -> Series {
    scenario_run::lambda_line(scenario(opts), lambda)
}

/// Run the full figure: the file's λ sweep, one column per line.
pub fn run(opts: &ExpOpts) -> Table {
    let mut table = scenario_run::run_series_table(&scenario(opts));
    table.note(
        "paper shape: random failures leave every line stable; larger l has a higher floor"
            .to_string(),
    );
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> ExpOpts {
        ExpOpts { quick: true, seed: 1, ..ExpOpts::default() }
    }

    #[test]
    fn uncorrelated_failure_does_not_bias_any_lambda() {
        // Fig. 8's claim: random failures add no *lasting* error — the
        // post-failure floor matches the pre-failure floor for every λ
        // (the floor itself grows with λ; that is the expected trade-off).
        let opts = quick();
        for lambda in [0.0, 0.01, 0.5] {
            let s = run_line(&opts, lambda);
            let pre: f64 = s.rounds[14..20].iter().map(|r| r.stddev).sum::<f64>() / 6.0;
            let post = s.steady_state_stddev(50);
            assert!(
                post < pre * 1.5 + 2.0,
                "lambda={lambda}: post-failure floor {post:.2} should match pre-failure {pre:.2}"
            );
        }
        // Small λ floors stay small in absolute terms too.
        let s = run_line(&opts, 0.01);
        assert!(s.steady_state_stddev(50) < 8.0);
    }

    #[test]
    fn table_has_one_row_per_round() {
        let t = run(&quick());
        assert_eq!(t.rows.len() as u64, scenario(&quick()).rounds.unwrap());
        assert_eq!(t.columns.len(), 6);
    }
}
