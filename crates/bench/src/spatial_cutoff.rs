//! **Extension** — the cutoff fit in the spatially distributed environment.
//!
//! §IV-A argues the uniform-gossip cutoff `f(k) = 7 + k/4` has an analogue
//! in spatial environments: "a similar bound may be achieved even in
//! spatially distributed environments, where hosts distributed evenly in a
//! D-dimensional grid can only communicate with adjacent nodes", using
//! `1/d²` random-walk long links. The paper never shows the spatial fit;
//! this experiment produces it: run Count-Sketch-Reset on the grid
//! environment to convergence, collect the per-bit age distribution
//! (exactly Fig. 6's methodology), and fit the high-percentile age as
//! `base + slope·k`.
//!
//! Expected outcome: the relation stays linear — a valid cutoff exists —
//! but with a larger intercept and slope than uniform gossip, reflecting
//! the slower spatial propagation. A deployment on a grid would configure
//! `Cutoff::Linear` with the fitted parameters.
//!
//! The grid workload is `scenarios/spatial_cutoff.toml`, embedded here;
//! the uniform baseline is Fig. 6's scenario at the same size.

use crate::fig6::{self, CounterDistribution};
use crate::opts::ExpOpts;
use crate::output::Table;
use crate::scenario_run;
use dynagg_scenario::ScenarioSpec;

/// The grid scenario at the CLI's seed.
fn grid(opts: &ExpOpts) -> ScenarioSpec {
    scenario_run::embedded(include_str!("../../../scenarios/spatial_cutoff.toml"), opts.seed)
}

/// Collect the spatial and uniform distributions at the same size (the
/// two environments run as parallel trials).
pub fn collect_pair(opts: &ExpOpts, n: usize) -> (CounterDistribution, CounterDistribution) {
    let mut dists = dynagg_sim::par::par_map(&[true, false], |_, &spatial| {
        if spatial {
            let mut grid = grid(opts);
            grid.n = Some(n);
            fig6::collect_from(&grid)
        } else {
            fig6::collect(opts, n)
        }
    })
    .into_iter();
    (dists.next().expect("spatial"), dists.next().expect("uniform"))
}

/// Run the experiment at the file's population (a quarter of it under
/// `--quick`).
pub fn run(opts: &ExpOpts) -> Table {
    let n = if opts.quick { 2_500 } else { grid(opts).n.expect("spatial_cutoff.toml states n") };
    let (spatial, uniform) = collect_pair(opts, n);
    let bits = spatial.p99.len().min(uniform.p99.len());
    let mut t = Table::new(
        "spatial_cutoff",
        format!("Extension — cutoff fit: spatial grid vs uniform gossip ({n} hosts)"),
        &["bit", "p99_age_spatial", "p99_age_uniform"],
    );
    for k in 0..bits {
        t.push_row(vec![k as f64, spatial.p99[k], uniform.p99[k]]);
    }
    let (sb, ss) = spatial.fit;
    let (ub, us) = uniform.fit;
    t.note(format!(
        "spatial fit: {sb:.2} + {ss:.3}k; uniform fit: {ub:.2} + {us:.3}k (paper uniform cutoff: 7 + 0.25k)"
    ));
    t.note("expected: both linear; spatial has the larger intercept/slope (slower propagation), supporting §IV-A's claim that a linear cutoff exists beyond the idealized model".to_string());
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spatial_relation_is_linear_and_dominates_uniform() {
        let opts = ExpOpts { quick: true, seed: 12, ..ExpOpts::default() };
        let (spatial, uniform) = collect_pair(&opts, 1_024);
        assert!(spatial.p99.len() >= 3, "need several sampled bits");
        // Spatial ages must be at least as old as uniform ages on average
        // (propagation is slower on the grid).
        let bits = spatial.p99.len().min(uniform.p99.len());
        let ms: f64 = spatial.p99[..bits].iter().sum::<f64>() / bits as f64;
        let mu: f64 = uniform.p99[..bits].iter().sum::<f64>() / bits as f64;
        assert!(ms >= mu, "spatial mean p99 {ms:.1} should be >= uniform {mu:.1}");
        // And a finite linear fit exists.
        let (base, slope) = spatial.fit;
        assert!(base.is_finite() && slope.is_finite());
        assert!(slope >= -0.1, "slope should not be meaningfully negative: {slope}");
    }
}
