//! `dynagg-benchmark`: the repository's one benchmark. See README.md.
//!
//! Two faces. The **measured run** is what the acceptance driver (and
//! the harness, per child) invokes:
//!
//! ```text
//! dynagg-benchmark --workload W --seed N --seconds S --trace 0|1
//! ```
//!
//! and the **harness** is what a person runs:
//!
//! ```text
//! dynagg-benchmark run     [--seed S] [--reps R] [--seconds S] [--smoke] [--out FILE]
//! dynagg-benchmark trace   [--seed S] [--seconds S]
//! dynagg-benchmark aa      [--seed S] [--reps R] [--seconds S]
//! dynagg-benchmark compare A.json B.json
//! ```

mod alloc;
mod calibrate;
mod checks;
mod environment;
mod harness;
mod json;
mod layers;
mod measure;
mod procfs;
mod serve;
mod sim;
mod spans;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

const USAGE: &str = "usage:
  dynagg-benchmark --workload W --seed N --seconds S --trace 0|1
  dynagg-benchmark run     [--seed S] [--reps R] [--seconds S] [--smoke] [--out FILE]
  dynagg-benchmark trace   [--seed S] [--seconds S]
  dynagg-benchmark aa      [--seed S] [--reps R] [--seconds S]
  dynagg-benchmark compare A.json B.json";

/// Default seed of the harness modes (the driver always passes its own).
const DEFAULT_SEED: u64 = 20090329;
const DEFAULT_REPS: usize = 5;

struct Args(Vec<String>);

impl Args {
    /// The value after `--name`, parsed; `Ok(None)` when absent.
    fn value<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        let Some(i) = self.0.iter().position(|a| a == name) else { return Ok(None) };
        let raw = self.0.get(i + 1).ok_or(format!("{name} needs a value"))?;
        raw.parse().map(Some).map_err(|_| format!("{name}: cannot read `{raw}`"))
    }

    fn required<T: std::str::FromStr>(&self, name: &str) -> Result<T, String> {
        self.value(name)?.ok_or(format!("{name} is required"))
    }

    fn has(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }
}

/// One measured run: the driver contract. A run that printed its result
/// line exits 0 even when a gate failed — the line's `correct` says so,
/// and the harness modes turn it into their own exit code.
fn measured(args: &Args) -> Result<(), String> {
    let name: String = args.required("--workload")?;
    let w = workloads::find(&name).ok_or(format!(
        "unknown workload `{name}` (known: {})",
        workloads::all().iter().map(|w| w.name).collect::<Vec<_>>().join(", ")
    ))?;
    let seed: u64 = args.required("--seed")?;
    let seconds: f64 = args.required("--seconds")?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds {seconds} is outside (0, 60]"));
    }
    let traced = match args.required::<u8>("--trace")? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace {other}: expected 0 or 1")),
    };
    let outcome = if traced {
        trace::traced(&w, seed, seconds)
    } else {
        measure::end_to_end(&w, seed, seconds)
    };
    for failure in &outcome.checks.failures {
        println!("# FAILED: {failure}");
    }
    println!("#simulated {}", outcome.simulated.to_line());
    println!("{}", outcome.result_line());
    Ok(())
}

fn dispatch(args: &Args) -> Result<bool, String> {
    environment::check_profile_parity()?;
    let mode = args.0.first().map(String::as_str).unwrap_or("");
    if mode.starts_with("--") {
        return measured(args).map(|()| true);
    }
    let smoke = args.has("--smoke");
    let opts = harness::RunOpts {
        seed: args.value("--seed")?.unwrap_or(DEFAULT_SEED),
        reps: args.value("--reps")?.unwrap_or(if smoke { 1 } else { DEFAULT_REPS }),
        seconds: args.value("--seconds")?.unwrap_or(if smoke {
            2.0
        } else {
            harness::DEFAULT_SECONDS
        }),
        out: args.value::<PathBuf>("--out")?,
    };
    match mode {
        "run" => harness::run(&opts),
        "trace" => harness::trace(opts.seed, opts.seconds),
        "aa" => harness::aa(&opts),
        "compare" => match (args.0.get(1), args.0.get(2)) {
            (Some(a), Some(b)) => harness::compare(a.as_ref(), b.as_ref()),
            _ => Err("compare needs two report files".into()),
        },
        _ => Err(USAGE.into()),
    }
}

fn main() -> ExitCode {
    // Before any thread exists: the engines read it when sizing their
    // worker pools, and the benchmark's load is two threads at most.
    std::env::set_var("DYNAGG_THREADS", "1");
    match dispatch(&Args(std::env::args().skip(1).collect())) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("dynagg-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
