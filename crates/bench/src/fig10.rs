//! **Figure 10 (a, b)** — accuracy of dynamic averaging under *correlated*
//! failures.
//!
//! Same workload as Fig. 8, but the failed half is the **highest-valued**
//! half, dropping the true average from ~50 to ~25. Static Push-Sum (λ=0)
//! can never recover — the departed mass keeps the estimate at 50, a
//! residual error of ~25. Reversion recovers, with λ trading convergence
//! speed against steady error:
//!
//! * (a) basic Push-Sum-Revert: λ=0.5 converges fastest but to the highest
//!   floor; λ=0.001 barely moves within 60 rounds.
//! * (b) Full-Transfer (4 parcels, 3-round window): same trade-off but
//!   every floor drops — the paper quotes σ≈2.13 (8.53 % of 25) for λ=0.5
//!   and σ≈0.694 (2.77 %) for λ=0.1.
//!
//! The two workloads are `scenarios/fig10a.toml` and `fig10b.toml`,
//! embedded here; each command runs its file at the CLI's seed and
//! population.

use crate::opts::ExpOpts;
use crate::output::Table;
use crate::scenario_run;
use dynagg_scenario::ScenarioSpec;
use dynagg_sim::Series;

const PANEL_A: &str = include_str!("../../../scenarios/fig10a.toml");
const PANEL_B: &str = include_str!("../../../scenarios/fig10b.toml");

fn panel(src: &str, opts: &ExpOpts) -> ScenarioSpec {
    let mut s = scenario_run::embedded(src, opts.seed);
    s.n = Some(opts.population());
    s
}

/// One Full-Transfer λ line (panel b).
pub fn run_line_full_transfer(opts: &ExpOpts, lambda: f64) -> Series {
    scenario_run::lambda_line(panel(PANEL_B, opts), lambda)
}

fn run_panel(src: &str, opts: &ExpOpts, note: &str) -> Table {
    let mut t = scenario_run::run_series_table(&panel(src, opts));
    t.note(note);
    t
}

/// Panel (a): basic Push-Sum-Revert under correlated failure.
pub fn run_a(opts: &ExpOpts) -> Table {
    run_panel(
        PANEL_A,
        opts,
        "paper shape: l=0 stays at ~25 error forever; larger l converges faster to a higher floor",
    )
}

/// Panel (b): the Full-Transfer optimization under correlated failure.
pub fn run_b(opts: &ExpOpts) -> Table {
    run_panel(
        PANEL_B,
        opts,
        "paper reference points: l=0.5 -> stddev ~2.13 (8.53% of 25); l=0.1 -> ~0.694 (2.77%)",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> ExpOpts {
        ExpOpts { quick: true, seed: 2, ..ExpOpts::default() }
    }

    fn run_line_basic(opts: &ExpOpts, lambda: f64) -> Series {
        scenario_run::lambda_line(panel(PANEL_A, opts), lambda)
    }

    #[test]
    fn static_lambda_never_recovers_but_half_lambda_does() {
        let opts = quick();
        let stuck = run_line_basic(&opts, 0.0);
        let healed = run_line_basic(&opts, 0.5);
        let stuck_err = stuck.steady_state_stddev(50);
        let healed_err = healed.steady_state_stddev(50);
        assert!(stuck_err > 15.0, "static error should be ~25, got {stuck_err}");
        assert!(healed_err < 15.0, "l=0.5 should recover, got {healed_err}");
    }

    #[test]
    fn full_transfer_floor_beats_basic_at_same_lambda() {
        let opts = quick();
        let basic = run_line_basic(&opts, 0.1).steady_state_stddev(50);
        let full = run_line_full_transfer(&opts, 0.1).steady_state_stddev(50);
        assert!(full < basic, "full-transfer steady error {full:.3} should beat basic {basic:.3}");
    }

    #[test]
    fn tables_have_expected_shape() {
        let opts = ExpOpts { quick: true, seed: 3, n: 50_000, ..ExpOpts::default() };
        let a = run_a(&opts);
        assert_eq!(a.rows.len() as u64, panel(PANEL_A, &opts).rounds.unwrap());
        assert_eq!(a.columns.len(), 6);
    }
}
