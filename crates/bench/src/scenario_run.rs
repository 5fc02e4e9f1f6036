//! The `experiments run <file.toml>` path: load a declarative scenario,
//! apply CLI overrides, run it through `dynagg-scenario`'s registry, and
//! render the outcome as [`Table`]s. The figure modules embed their
//! checked-in file ([`embedded`]) and render through the same tables, so
//! `experiments fig8` and `experiments run scenarios/fig8.toml` are one
//! workload stated once.

use crate::fig6::{self, CounterDistribution};
use crate::opts::ExpOpts;
use crate::output::Table;
use dynagg_scenario::{
    AsyncSpec, Engine, EnvSpec, Report, ScenarioOutcome, ScenarioSpec, ShardsSpec, SweepAxis,
};
use dynagg_sim::Series;
use std::path::Path;

/// CLI overrides applied on top of the file's spec.
#[derive(Debug, Clone, Copy, Default)]
pub struct Overrides {
    /// Replace the population (drops an `n` sweep).
    pub n: Option<usize>,
    /// Replace the master seed.
    pub seed: Option<u64>,
    /// Replace the horizon.
    pub rounds: Option<u64>,
    /// Replace the trial count.
    pub trials: Option<u64>,
    /// Replace the engine (`push` | `pairwise` | `async`) — re-run a
    /// checked-in scenario under another engine family without editing
    /// the file; engine × protocol compatibility is re-validated.
    pub engine: Option<Engine>,
    /// Replace the `[async] shards` setting (`--shards N | auto`) —
    /// re-run an async scenario sharded (or force it sequential with
    /// `--shards 1`) without editing the file. Materializes a default
    /// `[async]` table if the file has none; validity (async engine
    /// only, count ≤ n, positive lookahead) is re-checked at run time.
    pub shards: Option<ShardsSpec>,
    /// Apply the quick-mode population rule to `n` (and `n`-sweep values).
    pub quick: bool,
    /// Parse and validate only; run nothing.
    pub check_only: bool,
}

/// Load and validate a scenario file.
pub fn load(path: &Path) -> Result<ScenarioSpec, String> {
    let src = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    ScenarioSpec::from_toml_str(&src).map_err(|e| format!("{}: {e}", path.display()))
}

/// Parse a figure file a bench module embeds with `include_str!`, at the
/// CLI's seed. The module then applies its population rule and edits the
/// spec into the line it wants; the file stays the only statement of the
/// workload.
///
/// # Panics
/// Panics if the file does not parse: `tests/scenario_goldens.rs` parses
/// every checked-in scenario, so that is a broken build, not an input.
pub fn embedded(src: &str, seed: u64) -> ScenarioSpec {
    let mut spec = ScenarioSpec::from_toml_str(src).expect("checked-in figure scenario parses");
    spec.seed = seed;
    spec
}

/// Run one λ line of a λ-swept scenario: drop the sweep, set the
/// reversion constant, return the series.
pub fn lambda_line(mut spec: ScenarioSpec, lambda: f64) -> Series {
    spec.sweep = None;
    *spec.protocol.lambda_mut().expect("a lambda-swept protocol has a lambda") = lambda;
    dynagg_scenario::run_series(&spec).expect("figure scenario is valid")
}

/// Run a figure module's series scenario — the whole sweep the file
/// declares, instances fanned out across cores — as the one table
/// `experiments run` renders for it.
pub fn run_series_table(spec: &ScenarioSpec) -> Table {
    series_table(spec, &dynagg_scenario::run(spec).expect("figure scenario is valid"))
}

/// Apply CLI overrides; re-validation happens at run time.
pub fn apply_overrides(spec: &mut ScenarioSpec, ov: &Overrides) -> Result<(), String> {
    if let Some(seed) = ov.seed {
        spec.seed = seed;
    }
    if let Some(n) = ov.n {
        if matches!(spec.env, EnvSpec::Trace { .. }) {
            return Err("--n cannot override a trace environment's population".into());
        }
        spec.n = Some(n);
        if spec.sweep.as_ref().is_some_and(|s| s.axis == SweepAxis::N) {
            spec.sweep = None;
        }
    }
    if let Some(rounds) = ov.rounds {
        spec.rounds = Some(rounds);
    }
    if let Some(trials) = ov.trials {
        spec.trials = trials;
    }
    if let Some(engine) = ov.engine {
        spec.engine = engine;
    }
    if let Some(shards) = ov.shards {
        spec.asynchrony.get_or_insert(AsyncSpec::default()).shards = Some(shards);
    }
    if ov.quick {
        if let Some(n) = spec.n {
            spec.n = Some(ExpOpts::quick_scale(n));
        }
        if let Some(sweep) = &mut spec.sweep {
            if sweep.axis == SweepAxis::N {
                for v in &mut sweep.values {
                    *v = ExpOpts::quick_scale(*v as usize) as f64;
                }
                // The quick floor can collapse distinct sizes onto 500;
                // drop the duplicates so instances (and their CSV ids)
                // stay unique.
                let mut seen = Vec::new();
                sweep.values.retain(|v| {
                    let fresh = !seen.contains(v);
                    if fresh {
                        seen.push(*v);
                    }
                    fresh
                });
            }
        }
        // Trace populations come from the dataset; quick mode shortens the
        // horizon instead (the figure modules' 12-hour cap).
        if let EnvSpec::Trace { dataset } = &spec.env {
            let info = dynagg_scenario::trace_info(*dataset);
            let cap = ExpOpts::QUICK_TRACE_HOURS * info.rounds_per_hour;
            spec.rounds = Some(spec.rounds.unwrap_or(info.total_rounds).min(cap));
        }
    }
    Ok(())
}

/// Run a scenario file end to end, returning its tables.
pub fn run_file(path: &Path, ov: &Overrides) -> Result<Vec<Table>, String> {
    let mut spec = load(path)?;
    apply_overrides(&mut spec, ov)?;
    spec.validate().map_err(|e| format!("{}: {e}", path.display()))?;
    if ov.check_only {
        println!("ok: {} ({})", spec.name, path.display());
        return Ok(Vec::new());
    }
    // The fallback depends on the latency model, not the population, so
    // any plausible n surfaces it.
    if let (_, Some(note)) = spec.effective_shards(spec.n.unwrap_or(2)) {
        eprintln!("warning: {}: {note}", spec.name);
    }
    let outcome = dynagg_scenario::run(&spec).map_err(|e| e.to_string())?;
    Ok(tables(&spec, &outcome))
}

/// Render a scenario outcome. Counter-CDF reports produce one Fig. 6-style
/// table per sweep instance; series reports produce one table with a
/// column per (instance × trial × metric).
pub fn tables(spec: &ScenarioSpec, outcome: &ScenarioOutcome) -> Vec<Table> {
    match spec.output.report {
        Report::CounterCdf => outcome
            .instances
            .iter()
            .map(|inst| {
                let dist = CounterDistribution::from_instance(inst);
                fig6::cdf_table(
                    format!("{}_n{}", table_id(&spec.name), inst.n),
                    format!("{} — bit counter CDF, {} hosts", spec.name, inst.n),
                    &dist,
                )
            })
            .collect(),
        Report::Series => vec![series_table(spec, outcome)],
    }
}

fn table_id(name: &str) -> String {
    name.chars().map(|c| if c.is_ascii_alphanumeric() { c } else { '_' }).collect()
}

fn series_table(spec: &ScenarioSpec, outcome: &ScenarioOutcome) -> Table {
    let mut columns = vec!["round".to_string()];
    for inst in &outcome.instances {
        for (ti, _) in inst.trials.iter().enumerate() {
            for metric in &spec.output.metrics {
                let mut col = metric.name().to_string();
                if let Some(label) = &inst.label {
                    col = format!("{col}({label})");
                }
                if inst.trials.len() > 1 {
                    col = format!("{col}#t{ti}");
                }
                columns.push(col);
            }
        }
    }
    let col_refs: Vec<&str> = columns.iter().map(String::as_str).collect();
    let title = if spec.description.is_empty() {
        format!("Scenario — {}", spec.name)
    } else {
        format!("Scenario — {}: {}", spec.name, spec.description)
    };
    let mut t = Table::new(table_id(&spec.name), title, &col_refs);

    let rounds = outcome
        .instances
        .iter()
        .flat_map(|i| i.trials.iter().map(|tr| tr.series.rounds.len()))
        .min()
        .unwrap_or(0);
    for r in 0..rounds {
        let mut row = vec![r as f64];
        for inst in &outcome.instances {
            for trial in &inst.trials {
                for metric in &spec.output.metrics {
                    row.push(metric.read(&trial.series.rounds[r]));
                }
            }
        }
        t.push_row(row);
    }

    for inst in &outcome.instances {
        let label = inst.label.as_deref().unwrap_or("run");
        let steady: Vec<String> = inst
            .trials
            .iter()
            .map(|tr| format!("{:.3}", tr.series.steady_state_stddev(rounds as u64 * 3 / 4)))
            .collect();
        t.note(format!(
            "{label}: n={}, rounds={}, steady-state stddev (last quarter): {}",
            inst.n,
            inst.rounds,
            steady.join(", ")
        ));
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynagg_scenario::{Metric, ProtocolSpec, Sweep};

    fn demo_spec() -> ScenarioSpec {
        let mut s = ScenarioSpec::new(
            "demo",
            3,
            EnvSpec::Uniform,
            ProtocolSpec::PushSumRevert { lambda: 0.05 },
        );
        s.n = Some(200);
        s.rounds = Some(8);
        s
    }

    #[test]
    fn series_table_has_round_rows_and_metric_columns() {
        let mut spec = demo_spec();
        spec.output.metrics = vec![Metric::Stddev, Metric::Alive];
        spec.sweep = Some(Sweep { axis: SweepAxis::Lambda, values: vec![0.0, 0.1] });
        let outcome = dynagg_scenario::run(&spec).unwrap();
        let t = series_table(&spec, &outcome);
        assert_eq!(t.rows.len(), 8);
        // round + 2 instances × 2 metrics
        assert_eq!(t.columns.len(), 5);
        assert!(t.columns.contains(&"stddev(lambda=0.1)".to_string()));
        assert!(t.rows.iter().all(|r| r[2] == 200.0 || r[4] == 200.0), "alive column present");
    }

    #[test]
    fn overrides_apply_and_drop_n_sweep() {
        let mut spec = demo_spec();
        spec.sweep = Some(Sweep { axis: SweepAxis::N, values: vec![1000.0, 2000.0] });
        let ov = Overrides { n: Some(300), ..Overrides::default() };
        apply_overrides(&mut spec, &ov).unwrap();
        assert_eq!(spec.n, Some(300));
        assert!(spec.sweep.is_none());
        let mut spec = demo_spec();
        apply_overrides(&mut spec, &Overrides { quick: true, ..Overrides::default() }).unwrap();
        assert_eq!(spec.n, Some(500), "quick floors at 500");
    }

    #[test]
    fn engine_override_swaps_the_engine_and_revalidates() {
        let mut spec = demo_spec();
        assert_eq!(spec.engine, Engine::Push);
        let ov = Overrides { engine: Some(Engine::Async), ..Overrides::default() };
        apply_overrides(&mut spec, &ov).unwrap();
        assert_eq!(spec.engine, Engine::Async);
        spec.validate().unwrap();
        // An incompatible override is caught by re-validation, not a panic:
        // the pairwise engine cannot drive a sketch protocol.
        let mut spec = demo_spec();
        spec.protocol = ProtocolSpec::CountSketch { multiplier: 1, hash_seed_xor: 0 };
        let ov = Overrides { engine: Some(Engine::Pairwise), ..Overrides::default() };
        apply_overrides(&mut spec, &ov).unwrap();
        assert!(spec.validate().is_err());
    }

    #[test]
    fn quick_dedups_collapsed_n_sweep_values() {
        // 1000 and 10000 both floor to 500; the duplicate must not yield
        // two identical instances fighting over one CSV id.
        let mut spec = demo_spec();
        spec.sweep = Some(Sweep { axis: SweepAxis::N, values: vec![1000.0, 10000.0, 100000.0] });
        apply_overrides(&mut spec, &Overrides { quick: true, ..Overrides::default() }).unwrap();
        assert_eq!(spec.sweep.unwrap().values, vec![500.0, 1000.0]);
    }

    #[test]
    fn quick_caps_trace_horizon() {
        let mut spec = demo_spec();
        spec.env = EnvSpec::Trace { dataset: dynagg_trace::datasets::Dataset::One };
        spec.n = None;
        spec.rounds = None;
        apply_overrides(&mut spec, &Overrides { quick: true, ..Overrides::default() }).unwrap();
        let info = dynagg_scenario::trace_info(dynagg_trace::datasets::Dataset::One);
        assert_eq!(
            spec.rounds,
            Some(ExpOpts::QUICK_TRACE_HOURS * info.rounds_per_hour),
            "quick must shorten the trace horizon like the figure modules do"
        );
    }
}
