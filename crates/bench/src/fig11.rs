//! **Figure 11** — dynamic averaging and summation on the Cambridge/Haggle
//! traces (replayed here on the synthetic Haggle-like datasets; see
//! [`dynagg_trace::datasets`] for the substitution).
//!
//! Paper setup: devices gossip once every 30 s of simulated time,
//! restricted to wireless range; a host's error is measured against the
//! aggregate of its *group* (connected component of the last-10-minutes
//! union graph). Left column: running group **average** with
//! λ ∈ {0, 0.001, 0.01}. Right column: running group **size** via
//! Count-Sketch-Reset with 100 identifiers per host and reversion
//! off / on / slow. Each panel also plots the average group size.
//!
//! The average panel's workload is `scenarios/fig11_avg_d1.toml`, embedded
//! here and pointed at the requested dataset; the sum panel's three
//! cutoff variants have no scenario file and are built in code.

use crate::opts::ExpOpts;
use crate::output::Table;
use crate::scenario_run::{self, Overrides};
use dynagg_scenario::{trace_info, EnvSpec, ProtocolSpec, ScenarioSpec, ValueSpec};
use dynagg_sim::{Series, Truth};
use dynagg_sketch::cutoff::Cutoff;
use dynagg_trace::datasets::Dataset;

/// Identifiers per host in the dynamic-sum panels (§V-B).
pub const IDS_PER_HOST: u64 = 100;

/// `--quick` caps a trace scenario at the first 12 simulated hours (the
/// rule `experiments run --quick` applies to a trace environment).
fn cap_horizon(mut spec: ScenarioSpec, opts: &ExpOpts) -> ScenarioSpec {
    let quick = Overrides { quick: opts.quick, ..Overrides::default() };
    scenario_run::apply_overrides(&mut spec, &quick).expect("quick mode never overrides n");
    spec
}

/// The dynamic-average scenario (the file's λ sweep) on `dataset`.
pub fn avg_spec(opts: &ExpOpts, dataset: Dataset) -> ScenarioSpec {
    let mut s =
        scenario_run::embedded(include_str!("../../../scenarios/fig11_avg_d1.toml"), opts.seed);
    s.env = EnvSpec::Trace { dataset };
    cap_horizon(s, opts)
}

/// The scenario behind one dynamic-sum (group size) line.
pub fn sum_line_spec(opts: &ExpOpts, dataset: Dataset, cutoff: Cutoff) -> ScenarioSpec {
    let mut s = ScenarioSpec::new(
        format!("fig11-sum-d{}", dataset.index()),
        opts.seed,
        EnvSpec::Trace { dataset },
        ProtocolSpec::CountSketchReset {
            cutoff,
            push_pull: true,
            multiplier: IDS_PER_HOST,
            hash_seed_xor: 0x11,
        },
    );
    s.description = "Fig. 11 — trace-driven dynamic group size".into();
    s.values = ValueSpec::Constant(1.0);
    s.truth = Truth::GroupSize;
    cap_horizon(s, opts)
}

/// One dynamic-sum (group size) line.
pub fn run_sum_line(opts: &ExpOpts, dataset: Dataset, cutoff: Cutoff) -> Series {
    dynagg_scenario::run_series(&sum_line_spec(opts, dataset, cutoff))
        .expect("fig11 sum spec is valid")
}

/// Average a series into per-hour means of `(stddev, group size)`.
pub fn hourly(series: &Series, rounds_per_hour: u64) -> Vec<(f64, f64)> {
    let rph = rounds_per_hour as usize;
    series
        .rounds
        .chunks(rph)
        .filter(|c| c.len() == rph)
        .map(|c| {
            let sd = c.iter().map(|s| s.stddev).sum::<f64>() / c.len() as f64;
            let gs = c.iter().map(|s| s.mean_group_size).sum::<f64>() / c.len() as f64;
            (sd, gs)
        })
        .collect()
}

/// One Fig. 11 panel: hourly stddev per labelled line beside the average
/// group size, plus the mean-hourly-stddev and paper-shape notes.
fn panel(
    id: String,
    title: String,
    dataset: Dataset,
    lines: &[(String, &Series)],
    shape: &str,
) -> Table {
    let rph = trace_info(dataset).rounds_per_hour;
    let hourly_lines: Vec<Vec<(f64, f64)>> = lines.iter().map(|(_, s)| hourly(s, rph)).collect();

    let mut columns = vec!["hour".to_string(), "avg_group_size".to_string()];
    columns.extend(lines.iter().map(|(label, _)| format!("stddev({label})")));
    let col_refs: Vec<&str> = columns.iter().map(String::as_str).collect();
    let mut t = Table::new(id, title, &col_refs);
    for h in 0..hourly_lines[0].len() {
        let mut row = vec![h as f64 + 1.0, hourly_lines[0][h].1];
        row.extend(hourly_lines.iter().map(|l| l[h].0));
        t.push_row(row);
    }
    let overall: Vec<String> = lines
        .iter()
        .zip(&hourly_lines)
        .map(|((label, _), hl)| {
            let m = hl.iter().map(|(sd, _)| sd).sum::<f64>() / hl.len().max(1) as f64;
            format!("{label}: {m:.3}")
        })
        .collect();
    t.note(format!("mean hourly stddev: {}", overall.join(", ")));
    t.note(shape);
    t
}

/// The dynamic-average panel for one dataset: the file's λ sweep, one
/// line per value.
pub fn run_avg(opts: &ExpOpts, dataset: Dataset) -> Table {
    let spec = avg_spec(opts, dataset);
    let lambdas = &spec.sweep.as_ref().expect("fig11_avg_d1.toml sweeps lambda").values;
    let outcome = dynagg_scenario::run(&spec).expect("fig11 avg scenario is valid");
    let lines: Vec<(String, &Series)> = lambdas
        .iter()
        .zip(&outcome.instances)
        .map(|(l, inst)| (format!("l={l}"), inst.series()))
        .collect();
    panel(
        format!("fig11_avg_d{}", dataset.index()),
        format!(
            "Fig. 11 — dynamic average, dataset {} ({} devices)",
            dataset.index(),
            outcome.instances[0].n
        ),
        dataset,
        &lines,
        "paper shape: reversion (l>0) tracks group churn better than static (l=0), most visibly when groups are small",
    )
}

/// The dynamic-sum panel for one dataset.
pub fn run_sum(opts: &ExpOpts, dataset: Dataset) -> Table {
    let variants: [(&str, Cutoff); 3] =
        [("off", Cutoff::Infinite), ("on", Cutoff::paper_uniform()), ("slow", Cutoff::slow())];
    let series = dynagg_sim::par::par_map(&variants, |_, &(_, c)| run_sum_line(opts, dataset, c));
    let lines: Vec<(String, &Series)> = variants
        .iter()
        .zip(&series)
        .map(|((name, _), s)| (format!("reversion {name}"), s))
        .collect();
    panel(
        format!("fig11_sum_d{}", dataset.index()),
        format!(
            "Fig. 11 — dynamic sum (group size), dataset {} (100 ids/host, 64 bins)",
            dataset.index()
        ),
        dataset,
        &lines,
        "paper shape: reversion on/slow stays within ~half the correct value; 'off' drifts up monotonically",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> ExpOpts {
        ExpOpts { quick: true, seed: 7, ..ExpOpts::default() }
    }

    #[test]
    fn avg_panel_shape() {
        let t = run_avg(&quick(), Dataset::One);
        assert_eq!(t.columns.len(), 5);
        assert_eq!(t.rows.len(), 12, "12 quick-mode hours");
        // group size column is sane
        assert!(t.rows.iter().all(|r| r[1] >= 1.0));
    }

    #[test]
    fn sum_reversion_off_is_monotonically_inflating() {
        let opts = quick();
        let off = run_sum_line(&opts, Dataset::One, Cutoff::Infinite);
        // Mean estimate under Infinite cutoff can never decrease.
        let mut prev = 0.0;
        for s in &off.rounds {
            assert!(
                s.mean_estimate >= prev - 1e-6,
                "static sum estimate decreased at round {}",
                s.round
            );
            prev = s.mean_estimate;
        }
    }

    #[test]
    fn sum_reversion_on_beats_off() {
        let opts = quick();
        let on = run_sum_line(&opts, Dataset::One, Cutoff::paper_uniform());
        let rph = trace_info(Dataset::One).rounds_per_hour;
        let off = run_sum_line(&opts, Dataset::One, Cutoff::Infinite);
        let on_mean = hourly(&on, rph).iter().map(|(sd, _)| sd).sum::<f64>();
        let off_mean = hourly(&off, rph).iter().map(|(sd, _)| sd).sum::<f64>();
        assert!(
            on_mean < off_mean,
            "reset cutoff should beat static on group-size tracking: {on_mean:.1} vs {off_mean:.1}"
        );
    }
}
