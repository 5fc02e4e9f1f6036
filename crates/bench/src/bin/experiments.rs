//! Experiment harness CLI: regenerate every figure and table of the paper,
//! or run a declarative TOML scenario.
//!
//! ```text
//! experiments <command> [--n N] [--seed S] [--out DIR] [--quick] [--dataset 1|2|3]
//! experiments run <file.toml> [--n N] [--seed S] [--rounds R] [--trials T] [--engine E] [--shards K|auto] [--out DIR] [--quick] [--check]
//! experiments serve [--nodes N] [--workers W] [--transport inproc|udp] [--duration-ms MS]
//!                   [--interval-ms MS] [--clients C] [--push-every-ms MS] [--period-ms MS]
//!                   [--lambda L] [--view V] [--seed S] [--report-every-ms MS]
//!                   [--kill-frac F] [--assert-error PCT]
//!
//! commands:
//!   fig6               bit counter CDFs (1k/10k/100k hosts) + cutoff fit
//!   fig8               averaging under uncorrelated failures (λ sweep)
//!   fig9               counting under failure (naive vs cutoff)
//!   fig10a             averaging under correlated failures (basic)
//!   fig10b             averaging under correlated failures (full-transfer)
//!   fig11-avg          trace-driven group average (needs --dataset)
//!   fig11-sum          trace-driven group size (needs --dataset)
//!   table-convergence  §V-A full-transfer convergence numbers
//!   table-sketch-error §V-B PCSA 64-bin error
//!   spatial-cutoff     extension: cutoff fit in the grid environment
//!   epoch-disruption   extension: §II-C epoch disruption under clique mobility
//!   ablations          all ablation sweeps
//!   run FILE           run a declarative scenario (see scenarios/ and
//!                      docs/scenario-guide.md)
//!   serve              long-running live aggregation service under generated
//!                      client load (README "Serving live"; own flag set)
//!   all                everything above except `run`/`serve`, all datasets
//!
//! flags:
//!   --n N        uniform-env population (default 100000, the paper scale);
//!                for `run`, overrides the file's `n` and drops an n-sweep
//!   --seed S     master seed (default fixed; for `run`, the file's seed)
//!   --out DIR    also write each table as DIR/<id>.csv
//!   --quick      ~100× smaller populations / 12 h traces (smoke runs)
//!   --dataset D  Fig. 11 dataset index (default: all three)
//!   --rounds R   (run) override the scenario's horizon
//!   --trials T   (run) override the scenario's trial count
//!   --engine E   (run) override the engine: push | pairwise | async
//!   --shards K   (run) override `[async] shards`: a count or `auto`
//!   --check      (run) parse + validate only, run nothing
//! ```

use dynagg_bench::{
    ablations, epoch_disruption, fig10, fig11, fig6, fig8, fig9, scenario_run, serve,
    spatial_cutoff, tables, ExpOpts, Table,
};
use dynagg_trace::datasets::Dataset;
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    command: String,
    /// `run`'s scenario file.
    file: Option<PathBuf>,
    opts: ExpOpts,
    dataset: Option<Dataset>,
    overrides: scenario_run::Overrides,
    /// `serve`'s own flag set.
    serve: Option<serve::ServeOpts>,
}

fn parse_serve_args(argv: impl Iterator<Item = String>) -> Result<serve::ServeOpts, String> {
    let mut opts = serve::ServeOpts::default();
    let mut argv = argv;
    while let Some(flag) = argv.next() {
        let mut val = |name: &str| argv.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--nodes" => {
                opts.nodes = val("--nodes")?.parse().map_err(|e| format!("bad --nodes: {e}"))?
            }
            "--workers" => {
                opts.workers =
                    val("--workers")?.parse().map_err(|e| format!("bad --workers: {e}"))?
            }
            "--transport" => {
                opts.transport = match val("--transport")?.as_str() {
                    "inproc" => serve::TransportKind::Inproc,
                    "udp" => serve::TransportKind::Udp,
                    other => return Err(format!("bad --transport {other} (inproc|udp)")),
                }
            }
            "--duration-ms" => {
                opts.duration_ms =
                    val("--duration-ms")?.parse().map_err(|e| format!("bad --duration-ms: {e}"))?
            }
            "--interval-ms" => {
                opts.interval_ms =
                    val("--interval-ms")?.parse().map_err(|e| format!("bad --interval-ms: {e}"))?
            }
            "--clients" => {
                opts.clients =
                    val("--clients")?.parse().map_err(|e| format!("bad --clients: {e}"))?
            }
            "--push-every-ms" => {
                opts.push_every_ms = val("--push-every-ms")?
                    .parse()
                    .map_err(|e| format!("bad --push-every-ms: {e}"))?
            }
            "--period-ms" => {
                opts.period_ms =
                    val("--period-ms")?.parse().map_err(|e| format!("bad --period-ms: {e}"))?
            }
            "--lambda" => {
                opts.lambda = val("--lambda")?.parse().map_err(|e| format!("bad --lambda: {e}"))?
            }
            "--view" => {
                opts.view = val("--view")?.parse().map_err(|e| format!("bad --view: {e}"))?
            }
            "--seed" => {
                opts.seed = val("--seed")?.parse().map_err(|e| format!("bad --seed: {e}"))?
            }
            "--report-every-ms" => {
                opts.report_every_ms = val("--report-every-ms")?
                    .parse()
                    .map_err(|e| format!("bad --report-every-ms: {e}"))?
            }
            "--kill-frac" => {
                opts.kill_frac =
                    val("--kill-frac")?.parse().map_err(|e| format!("bad --kill-frac: {e}"))?
            }
            "--assert-error" => {
                let pct: f64 = val("--assert-error")?
                    .parse()
                    .map_err(|e| format!("bad --assert-error: {e}"))?;
                opts.assert_error = Some(pct / 100.0);
            }
            other => return Err(format!("unknown serve flag {other}\n{}", usage())),
        }
    }
    Ok(opts)
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let command = argv.next().ok_or_else(usage)?;
    if command == "serve" {
        let serve_opts = parse_serve_args(argv)?;
        return Ok(Args {
            command,
            file: None,
            opts: ExpOpts::default(),
            dataset: None,
            overrides: scenario_run::Overrides::default(),
            serve: Some(serve_opts),
        });
    }
    let mut file = None;
    if command == "run" {
        file = Some(PathBuf::from(argv.next().ok_or("run needs a scenario file\n")?));
    }
    let mut opts = ExpOpts::default();
    let mut dataset = None;
    let mut overrides = scenario_run::Overrides::default();
    while let Some(flag) = argv.next() {
        match flag.as_str() {
            "--n" => {
                let v = argv.next().ok_or("--n needs a value")?;
                opts.n = v.parse().map_err(|e| format!("bad --n: {e}"))?;
                overrides.n = Some(opts.n);
            }
            "--seed" => {
                let v = argv.next().ok_or("--seed needs a value")?;
                opts.seed = v.parse().map_err(|e| format!("bad --seed: {e}"))?;
                overrides.seed = Some(opts.seed);
            }
            "--out" => {
                let v = argv.next().ok_or("--out needs a value")?;
                opts.out_dir = Some(PathBuf::from(v));
            }
            "--quick" => {
                opts.quick = true;
                overrides.quick = true;
            }
            "--dataset" => {
                let v = argv.next().ok_or("--dataset needs a value")?;
                let idx: usize = v.parse().map_err(|e| format!("bad --dataset: {e}"))?;
                dataset = Some(Dataset::from_index(idx).ok_or(format!("no dataset {idx}"))?);
            }
            "--rounds" => {
                let v = argv.next().ok_or("--rounds needs a value")?;
                overrides.rounds = Some(v.parse().map_err(|e| format!("bad --rounds: {e}"))?);
            }
            "--trials" => {
                let v = argv.next().ok_or("--trials needs a value")?;
                overrides.trials = Some(v.parse().map_err(|e| format!("bad --trials: {e}"))?);
            }
            "--engine" => {
                let v = argv.next().ok_or("--engine needs a value")?;
                let names = dynagg_scenario::Engine::ALL.map(dynagg_scenario::Engine::name);
                overrides.engine = Some(
                    dynagg_scenario::Engine::from_name(&v)
                        .ok_or_else(|| format!("bad --engine {v} ({})", names.join("|")))?,
                );
            }
            "--shards" => {
                let v = argv.next().ok_or("--shards needs a value")?;
                overrides.shards = Some(match v.as_str() {
                    "auto" => dynagg_scenario::ShardsSpec::Auto,
                    n => dynagg_scenario::ShardsSpec::Count(
                        n.parse().map_err(|e| format!("bad --shards: {e}"))?,
                    ),
                });
            }
            "--check" => overrides.check_only = true,
            other => return Err(format!("unknown flag {other}\n{}", usage())),
        }
    }
    if command != "run"
        && (overrides.check_only
            || overrides.rounds.is_some()
            || overrides.trials.is_some()
            || overrides.engine.is_some()
            || overrides.shards.is_some())
    {
        return Err(format!(
            "--check/--rounds/--trials/--engine/--shards only apply to the `run` command\n{}",
            usage()
        ));
    }
    Ok(Args { command, file, opts, dataset, overrides, serve: None })
}

fn usage() -> String {
    "usage: experiments <fig6|fig8|fig9|fig10a|fig10b|fig11-avg|fig11-sum|table-convergence|table-sketch-error|spatial-cutoff|epoch-disruption|ablations|all> [--n N] [--seed S] [--out DIR] [--quick] [--dataset 1|2|3]\n       experiments run <file.toml> [--n N] [--seed S] [--rounds R] [--trials T] [--engine push|pairwise|async] [--shards K|auto] [--out DIR] [--quick] [--check]\n       experiments serve [--nodes N] [--workers W] [--transport inproc|udp] [--duration-ms MS] [--interval-ms MS] [--clients C] [--push-every-ms MS] [--period-ms MS] [--lambda L] [--view V] [--seed S] [--report-every-ms MS] [--kill-frac F] [--assert-error PCT]".to_string()
}

/// Print each table and, under `--out`, write its CSV; a failed write is
/// the command's failure, so a scripted run cannot end with no files.
fn emit(tables: Vec<Table>, opts: &ExpOpts) -> Result<(), String> {
    for t in tables {
        println!("{}", t.render());
        if let Some(dir) = &opts.out_dir {
            let p = t.write_csv(dir).map_err(|e| format!("csv write failed for {}: {e}", t.id))?;
            println!("csv: {}\n", p.display());
        }
    }
    Ok(())
}

fn datasets(selected: Option<Dataset>) -> Vec<Dataset> {
    selected.map(|d| vec![d]).unwrap_or_else(|| Dataset::ALL.to_vec())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let started = std::time::Instant::now();
    if let Err(e) = run_command(args) {
        eprintln!("{e}");
        return ExitCode::FAILURE;
    }
    eprintln!("[done in {:.1}s]", started.elapsed().as_secs_f64());
    ExitCode::SUCCESS
}

fn run_command(args: Args) -> Result<(), String> {
    let opts = &args.opts;
    match args.command.as_str() {
        "fig6" => emit(fig6::run(opts), opts),
        "fig8" => emit(vec![fig8::run(opts)], opts),
        "fig9" => emit(vec![fig9::run(opts)], opts),
        "fig10a" => emit(vec![fig10::run_a(opts)], opts),
        "fig10b" => emit(vec![fig10::run_b(opts)], opts),
        "fig11-avg" => datasets(args.dataset)
            .into_iter()
            .try_for_each(|d| emit(vec![fig11::run_avg(opts, d)], opts)),
        "fig11-sum" => datasets(args.dataset)
            .into_iter()
            .try_for_each(|d| emit(vec![fig11::run_sum(opts, d)], opts)),
        "table-convergence" => emit(vec![tables::convergence(opts)], opts),
        "table-sketch-error" => emit(vec![tables::sketch_error(opts)], opts),
        "spatial-cutoff" => emit(vec![spatial_cutoff::run(opts)], opts),
        "epoch-disruption" => emit(vec![epoch_disruption::run(opts)], opts),
        "ablations" => emit(ablations::run_all(opts), opts),
        "run" => {
            let file = args.file.as_deref().expect("run parsed a file argument");
            emit(scenario_run::run_file(file, &args.overrides)?, opts)
        }
        "serve" => serve::run(&args.serve.expect("serve parsed its flag set")).map(|_| ()),
        "all" => {
            emit(vec![fig8::run(opts)], opts)?;
            emit(vec![fig10::run_a(opts)], opts)?;
            emit(vec![fig10::run_b(opts)], opts)?;
            emit(vec![fig9::run(opts)], opts)?;
            emit(fig6::run(opts), opts)?;
            for d in Dataset::ALL {
                emit(vec![fig11::run_avg(opts, d)], opts)?;
                emit(vec![fig11::run_sum(opts, d)], opts)?;
            }
            emit(vec![tables::convergence(opts)], opts)?;
            emit(vec![tables::sketch_error(opts)], opts)?;
            emit(vec![spatial_cutoff::run(opts)], opts)?;
            emit(vec![epoch_disruption::run(opts)], opts)?;
            emit(ablations::run_all(opts), opts)
        }
        other => Err(format!("unknown command {other}\n{}", usage())),
    }
}
