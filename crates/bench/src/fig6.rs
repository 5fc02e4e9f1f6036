//! **Figure 6** — bit counter distribution.
//!
//! Paper workload: fully converged Count-Sketch-Reset networks of 1 000 /
//! 10 000 / 100 000 hosts under uniform gossip; for each bit index `k`,
//! the CDF of the age counters observed across the network. The paper
//! reads two facts off this figure:
//!
//! 1. the per-`k` distributions are essentially independent of network
//!    size (what makes the cutoff *size-agnostic*), and
//! 2. the distribution shifts right ~linearly in `k` (each increment of
//!    `k` halves the expected source count, adding a constant propagation
//!    delay), yielding the experimental cutoff `f(k) ≈ 7 + k/4`.
//!
//! We reproduce the CDFs and additionally *fit* the high-percentile age as
//! a linear function of `k`, reporting the fitted intercept/slope next to
//! the paper's 7 + k/4.
//!
//! The workload is `scenarios/fig6.toml`, embedded here; the command runs
//! the file's size sweep at the CLI's seed (two sizes under `--quick`).

use crate::opts::ExpOpts;
use crate::output::Table;
use crate::scenario_run;
use dynagg_scenario::{InstanceOutcome, ScenarioSpec};
use dynagg_sketch::age::MAX_FINITE_AGE;

/// Highest counter value tabulated in the CDF.
pub const MAX_AGE: u8 = 14;
/// Minimum finite samples for a bit to be reported.
pub const MIN_SAMPLES: usize = 50;

/// Per-bit counter samples plus the high-percentile fit for one size.
#[derive(Debug, Clone, PartialEq)]
pub struct CounterDistribution {
    /// Network size.
    pub n: usize,
    /// `cdf[k][v]` = P[counter ≤ v] over finite counters of bit `k`.
    pub cdf: Vec<Vec<f64>>,
    /// 99th-percentile age per bit (fit input).
    pub p99: Vec<f64>,
    /// Fitted `base + slope·k` over the well-sampled bits.
    pub fit: (f64, f64),
}

/// The figure's scenario at the CLI's seed, sweeping `opts.fig6_sizes()`.
pub fn scenario(opts: &ExpOpts) -> ScenarioSpec {
    let mut s = scenario_run::embedded(include_str!("../../../scenarios/fig6.toml"), opts.seed);
    let sweep = s.sweep.as_mut().expect("fig6.toml sweeps n");
    sweep.values = opts.fig6_sizes().iter().map(|&n| n as f64).collect();
    s
}

/// Collect the converged counter distribution for one network size under
/// uniform gossip.
pub fn collect(opts: &ExpOpts, n: usize) -> CounterDistribution {
    let mut s = scenario(opts);
    s.sweep = None;
    s.n = Some(n);
    collect_from(&s)
}

/// Run a sweepless counter-cdf scenario and reduce its samples (the
/// `spatial-cutoff` extension collects its grid scenario through this).
pub fn collect_from(spec: &ScenarioSpec) -> CounterDistribution {
    let outcome = dynagg_scenario::run(spec).expect("counter-cdf scenario is valid");
    CounterDistribution::from_instance(&outcome.instances[0])
}

impl CounterDistribution {
    /// Reduce one counter-cdf sweep instance's raw per-bit age histograms
    /// (`samples[k][age]`, the scenario engine's `Report::CounterCdf`
    /// output) to CDFs, p99 ages, and the linear fit.
    pub fn from_instance(inst: &InstanceOutcome) -> Self {
        let samples = inst.trials[0].counter_samples.as_ref().expect("counter-cdf report");
        let mut cdf = Vec::new();
        let mut p99 = Vec::new();
        for hist in samples {
            let total: u64 = hist.iter().sum();
            if (total as usize) < MIN_SAMPLES {
                break; // higher bits have too few sources network-wide
            }
            let mut acc = 0u64;
            let mut row = Vec::with_capacity(usize::from(MAX_AGE) + 1);
            let mut p99_val = None;
            for (age, &c) in hist.iter().enumerate() {
                acc += c;
                let frac = acc as f64 / total as f64;
                if age <= usize::from(MAX_AGE) {
                    row.push(frac);
                }
                if p99_val.is_none() && frac >= 0.99 {
                    p99_val = Some(age as f64);
                }
            }
            cdf.push(row);
            p99.push(p99_val.unwrap_or(f64::from(MAX_FINITE_AGE)));
        }
        let fit = linear_fit(&p99);
        CounterDistribution { n: inst.n, cdf, p99, fit }
    }
}

/// Least-squares fit `y = base + slope·k` over `ys[k]`.
pub fn linear_fit(ys: &[f64]) -> (f64, f64) {
    let n = ys.len() as f64;
    if ys.len() < 2 {
        return (ys.first().copied().unwrap_or(0.0), 0.0);
    }
    let sx: f64 = (0..ys.len()).map(|k| k as f64).sum();
    let sy: f64 = ys.iter().sum();
    let sxx: f64 = (0..ys.len()).map(|k| (k as f64) * (k as f64)).sum();
    let sxy: f64 = ys.iter().enumerate().map(|(k, y)| k as f64 * y).sum();
    let slope = (n * sxy - sx * sy) / (n * sxx - sx * sx);
    let base = (sy - slope * sx) / n;
    (base, slope)
}

/// Render one size's distribution as its table.
pub fn cdf_table(
    id: impl Into<String>,
    title: impl Into<String>,
    dist: &CounterDistribution,
) -> Table {
    let mut columns = vec!["counter_value".to_string()];
    columns.extend((0..dist.cdf.len()).map(|k| format!("bit{k}")));
    let col_refs: Vec<&str> = columns.iter().map(String::as_str).collect();
    let mut t = Table::new(id, title, &col_refs);
    for v in 0..=usize::from(MAX_AGE) {
        let mut row = vec![v as f64];
        row.extend(dist.cdf.iter().map(|c| c.get(v).copied().unwrap_or(1.0)));
        t.push_row(row);
    }
    let (base, slope) = dist.fit;
    t.note(format!(
        "p99 age per bit: {:?}",
        dist.p99.iter().map(|v| *v as i64).collect::<Vec<_>>()
    ));
    t.note(format!("linear fit of p99 age: {base:.2} + {slope:.3}k   (paper cutoff: 7 + 0.25k)"));
    t
}

/// Run the full figure: one table per network size, the sizes collected as
/// the scenario's parallel sweep instances.
pub fn run(opts: &ExpOpts) -> Vec<Table> {
    let spec = scenario(opts);
    let outcome = dynagg_scenario::run(&spec).expect("fig6 scenario is valid");
    scenario_run::tables(&spec, &outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_fit_recovers_line() {
        let ys: Vec<f64> = (0..10).map(|k| 7.0 + 0.25 * k as f64).collect();
        let (b, s) = linear_fit(&ys);
        assert!((b - 7.0).abs() < 1e-9);
        assert!((s - 0.25).abs() < 1e-9);
    }

    #[test]
    fn distributions_are_size_agnostic_for_low_bits() {
        let opts = ExpOpts { quick: true, seed: 5, ..ExpOpts::default() };
        let a = collect(&opts, 500);
        let b = collect(&opts, 2_000);
        // Bit 0's p99 should be nearly identical across sizes (the paper's
        // "distribution ... remains constant" reading).
        assert!(
            (a.p99[0] - b.p99[0]).abs() <= 3.0,
            "bit-0 p99 drifted with size: {} vs {}",
            a.p99[0],
            b.p99[0]
        );
        // CDFs are monotone.
        for row in &a.cdf {
            for w in row.windows(2) {
                assert!(w[1] >= w[0] - 1e-12);
            }
        }
    }

    #[test]
    fn p99_grows_with_bit_index() {
        let opts = ExpOpts { quick: true, seed: 6, ..ExpOpts::default() };
        let d = collect(&opts, 2_000);
        assert!(d.p99.len() >= 4, "need several well-sampled bits");
        let first = d.p99[0];
        let last = *d.p99.last().unwrap();
        assert!(last >= first, "higher bits should age more: p99[0]={first}, p99[last]={last}");
        let (_, slope) = d.fit;
        assert!(slope >= 0.0, "fitted slope must be non-negative, got {slope}");
    }
}
