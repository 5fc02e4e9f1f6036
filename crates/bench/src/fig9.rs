//! **Figure 9** — accuracy of dynamic counting under failure.
//!
//! Paper workload: 100 000 hosts each holding value 1; after 20 rounds of
//! gossip half the hosts are removed. Two lines: naive sketch counting
//! (no expiry — the estimate never drops) and Count-Sketch-Reset with the
//! propagation cutoff `f(k) = 7 + k/4` (the estimate "reverts to its
//! original state within 10 rounds of a massive node failure"). The
//! y-axis is the standard deviation from the correct sum.
//!
//! The workload is `scenarios/fig9.toml` (the "limiting on" line),
//! embedded here; the naive line is the same file with the cutoff removed.

use crate::opts::ExpOpts;
use crate::output::Table;
use crate::scenario_run;
use dynagg_scenario::ProtocolSpec;
use dynagg_sim::{par, Series};
use dynagg_sketch::cutoff::Cutoff;

/// Run one cutoff line: the figure's scenario at the CLI's seed and
/// population, with `cutoff` in place of the file's paper cutoff.
pub fn run_line(opts: &ExpOpts, cutoff: Cutoff) -> Series {
    let mut s = scenario_run::embedded(include_str!("../../../scenarios/fig9.toml"), opts.seed);
    s.n = Some(opts.population());
    let ProtocolSpec::CountSketchReset { cutoff: file_cutoff, .. } = &mut s.protocol else {
        unreachable!("fig9.toml runs count-sketch-reset");
    };
    *file_cutoff = cutoff;
    dynagg_scenario::run_series(&s).expect("fig9 scenario is valid")
}

/// Run the full figure.
pub fn run(opts: &ExpOpts) -> Table {
    let cutoffs = [Cutoff::Infinite, Cutoff::paper_uniform()];
    let mut lines = par::par_map(&cutoffs, |_, &c| run_line(opts, c)).into_iter();
    let (naive, limited) = (lines.next().expect("naive line"), lines.next().expect("limited line"));
    let mut table = Table::new(
        "fig9",
        format!(
            "Fig. 9 — dynamic counting under failure ({} hosts, half fail at round 20; 64 bins)",
            opts.population()
        ),
        &[
            "round",
            "stddev(limiting off)",
            "stddev(limiting on)",
            "mean_est(off)",
            "mean_est(on)",
            "truth",
        ],
    );
    for (off, on) in naive.rounds.iter().zip(&limited.rounds) {
        table.push_row(vec![
            on.round as f64,
            off.stddev,
            on.stddev,
            off.mean_estimate,
            on.mean_estimate,
            on.truth,
        ]);
    }
    // Healing-time reading: first round ≥ 20 where the limited line's mean
    // estimate is within the 64-bin sketch error of the halved truth.
    let tol = 3.0 * dynagg_sketch::expected_error(64);
    let heal = limited
        .rounds
        .iter()
        .skip(20)
        .find(|s| (s.mean_estimate - s.truth).abs() / s.truth <= tol)
        .map(|s| s.round);
    table.note(format!(
        "healing: limited line re-enters the 3-sigma sketch band at round {:?} (paper: ~10 rounds after failure)",
        heal
    ));
    table.note("naive line must never drop below its pre-failure estimate".to_string());
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> ExpOpts {
        ExpOpts { quick: true, seed: 4, ..ExpOpts::default() }
    }

    #[test]
    fn limited_heals_naive_does_not() {
        let opts = quick();
        let naive = run_line(&opts, Cutoff::Infinite);
        let limited = run_line(&opts, Cutoff::paper_uniform());
        let n = opts.population() as f64;
        let naive_final = naive.last().unwrap().mean_estimate;
        let limited_final = limited.last().unwrap().mean_estimate;
        assert!(
            naive_final > 0.7 * n,
            "naive estimate {naive_final:.0} should stay near pre-failure {n}"
        );
        assert!(
            (limited_final - n / 2.0).abs() / (n / 2.0) < 0.5,
            "limited estimate {limited_final:.0} should approach {}",
            n / 2.0
        );
    }

    #[test]
    fn healing_happens_within_about_15_rounds() {
        let opts = quick();
        let limited = run_line(&opts, Cutoff::paper_uniform());
        let tol = 0.4;
        let heal = limited
            .rounds
            .iter()
            .skip(21)
            .find(|s| (s.mean_estimate - s.truth).abs() / s.truth <= tol)
            .map(|s| s.round)
            .expect("must heal within the run");
        assert!(heal <= 38, "healed too slowly: round {heal}");
    }
}
