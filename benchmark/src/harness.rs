//! The harness modes: `run`, `trace`, `aa`, `compare`.
//!
//! `run` spawns **one child process per (workload, repetition)** — a
//! fresh heap and its own `VmHWM` each, `DYNAGG_THREADS=1` — interleaved
//! round-robin with the order rotated every repetition, so drift over
//! the session lands on every workload alike. A child is this same
//! binary in its measured mode (`--workload … --trace 0`): what the
//! harness aggregates is exactly what the acceptance driver measures.

use crate::environment;
use crate::json::{obj, Json};
use crate::stats::{self, Summary};
use crate::workloads;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

pub struct RunOpts {
    pub seed: u64,
    pub reps: usize,
    pub seconds: f64,
    pub out: Option<PathBuf>,
}

/// One end-to-end metric as `BENCHMARK.json` declares it.
struct Declared {
    name: String,
    unit: String,
    higher_is_better: bool,
    bound: f64,
}

fn declared_metrics(benchmark: &Json) -> Result<Vec<Declared>, String> {
    let list = benchmark
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    let mut declared = list
        .iter()
        .map(|m| {
            let field =
                |k: &str| m.get(k).and_then(Json::as_str).ok_or(format!("metric lacks {k}"));
            Ok(Declared {
                name: field("name")?.to_string(),
                unit: field("unit")?.to_string(),
                higher_is_better: field("better")? == "higher",
                bound: m.get("bound").and_then(Json::as_f64).ok_or("metric lacks bound")?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    // `BENCHMARK.json` lists what every workload of the acceptance
    // driver's list reports. The serve workloads are outside that list
    // (README, "What the acceptance driver runs") and report one metric
    // more, which the harness bounds like the other host-time metrics.
    declared.push(Declared {
        name: "cpu_us_per_frame".into(),
        unit: "us".into(),
        higher_is_better: false,
        bound: 0.25,
    });
    Ok(declared)
}

/// Window of one child in the harness modes, unless `--seconds` says
/// otherwise. The acceptance driver passes `BENCHMARK.json`'s longer
/// `run_seconds`, sized for its ten-run spread check on a shared box.
pub const DEFAULT_SECONDS: f64 = 10.0;

/// What one measured child reported.
struct Child {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, String)>,
    simulated: Json,
    /// The child's `#` lines (its own report), for `trace`.
    notes: Vec<String>,
}

fn spawn_child(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate own binary: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .env("DYNAGG_THREADS", "1")
        .output()
        .map_err(|e| format!("spawn child for {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "child for {workload} exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    let last = stdout.lines().last().ok_or(format!("child for {workload} printed nothing"))?;
    let result = Json::parse(last).map_err(|e| format!("child result line: {e}"))?;
    let count = |k: &str| result.get(k).and_then(Json::as_f64).map(|n| n as u64);
    let metrics = result
        .get("metrics")
        .and_then(Json::as_obj)
        .ok_or("child result lacks metrics")?
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Json::as_f64).ok_or("metric lacks value")?;
            let unit = m.get("unit").and_then(Json::as_str).ok_or("metric lacks unit")?;
            Ok((name.clone(), value, unit.to_string()))
        })
        .collect::<Result<Vec<_>, String>>()?;
    let simulated = stdout
        .lines()
        .find_map(|l| l.strip_prefix("#simulated "))
        .and_then(|s| Json::parse(s).ok())
        .unwrap_or(Json::Obj(Vec::new()));
    Ok(Child {
        correct: result
            .get("correct")
            .and_then(Json::as_bool)
            .ok_or("child result lacks correct")?,
        attempted: count("attempted").ok_or("child result lacks attempted")?,
        failed: count("failed").ok_or("child result lacks failed")?,
        metrics,
        simulated,
        notes: stdout.lines().filter(|l| l.starts_with("# ")).map(str::to_string).collect(),
    })
}

/// Everything the repetitions of one workload produced.
#[derive(Default)]
struct Collected {
    /// metric → (unit, one sample per repetition).
    samples: BTreeMap<String, (String, Vec<f64>)>,
    simulated: Option<Json>,
    attempted: u64,
    failed: u64,
}

/// Per-workload collections, in declared order.
type Set = Vec<(&'static str, Collected)>;

/// Run `reps` repetitions of every workload, round-robin, rotating the
/// order each repetition. Returns the collections and whether every gate
/// passed.
fn collect(opts: &RunOpts, label: &str, rotate: usize) -> Result<(Set, bool), String> {
    let names: Vec<&'static str> = workloads::all().iter().map(|w| w.name).collect();
    let mut collected: Set = names.iter().map(|&n| (n, Collected::default())).collect();
    let mut ok = true;
    for rep in 0..opts.reps {
        for slot in 0..names.len() {
            let index = (slot + rep + rotate) % names.len();
            let name = names[index];
            let started = std::time::Instant::now();
            let child = spawn_child(name, opts.seed, opts.seconds, false)?;
            eprintln!(
                "[{label}rep {}/{}] {name:<14} {} ({} checks, {} failed) in {:.1} s",
                rep + 1,
                opts.reps,
                if child.correct { "ok" } else { "FAILED" },
                child.attempted,
                child.failed,
                started.elapsed().as_secs_f64()
            );
            for note in child.notes.iter().filter(|n| n.starts_with("# FAILED")) {
                eprintln!("    {note}");
            }
            ok &= child.correct;
            let c = &mut collected[index].1;
            c.attempted += child.attempted;
            c.failed += child.failed;
            for (metric, value, unit) in child.metrics {
                c.samples.entry(metric).or_insert_with(|| (unit, Vec::new())).1.push(value);
            }
            // Simulated statistics are pure functions of (workload, seed).
            match &c.simulated {
                None => c.simulated = Some(child.simulated),
                Some(first) if *first != child.simulated => {
                    eprintln!(
                        "    FAILED: {name} repetition {} is not a pure function of the seed: {} vs {}",
                        rep + 1,
                        child.simulated.to_line(),
                        first.to_line()
                    );
                    c.failed += 1;
                    ok = false;
                }
                Some(_) => {}
            }
        }
    }
    Ok((collected, ok))
}

fn summary_json(unit: &str, samples: &[f64]) -> Json {
    let s = stats::summarize(samples);
    obj([
        ("unit", Json::Str(unit.into())),
        ("median", Json::Num(s.median)),
        ("q1", Json::Num(s.q1)),
        ("q3", Json::Num(s.q3)),
        ("n", Json::Num(s.n as f64)),
        ("samples", Json::Arr(samples.iter().map(|&v| Json::Num(v)).collect())),
    ])
}

fn report_json(opts: &RunOpts, collected: &[(&'static str, Collected)]) -> Json {
    obj([
        ("schema", Json::Str("dynagg-benchmark/report/1".into())),
        ("environment", environment::capture()),
        ("seed", Json::Num(opts.seed as f64)),
        ("reps", Json::Num(opts.reps as f64)),
        ("seconds", Json::Num(opts.seconds)),
        (
            "workloads",
            Json::Obj(
                collected
                    .iter()
                    .map(|(name, c)| {
                        let metrics = Json::Obj(
                            c.samples
                                .iter()
                                .map(|(m, (unit, v))| (m.clone(), summary_json(unit, v)))
                                .collect(),
                        );
                        (
                            name.to_string(),
                            obj([
                                ("attempted", Json::Num(c.attempted as f64)),
                                ("failed", Json::Num(c.failed as f64)),
                                ("simulated", c.simulated.clone().unwrap_or(Json::Null)),
                                ("metrics", metrics),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
}

fn print_table(declared: &[Declared], collected: &[(&'static str, Collected)]) {
    println!(
        "{:<14} {:<26} {:<14} {:>14} {:>14} {:>14} {:>3}",
        "workload", "metric", "unit", "median", "q1", "q3", "n"
    );
    for (name, c) in collected {
        for d in declared {
            if let Some((unit, samples)) = c.samples.get(&d.name) {
                let s = stats::summarize(samples);
                println!(
                    "{name:<14} {:<26} {unit:<14} {:>14.6} {:>14.6} {:>14.6} {:>3}",
                    d.name, s.median, s.q1, s.q3, s.n
                );
            }
        }
        if let Some(sim) =
            c.simulated.as_ref().filter(|s| s.as_obj().is_some_and(|o| !o.is_empty()))
        {
            println!("{name:<14} simulated (exact per seed): {}", sim.to_line());
        }
        println!("{name:<14} checks: {} attempted, {} failed", c.attempted, c.failed);
    }
}

fn write_report(path: &Path, report: &Json) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, report.to_line() + "\n")
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("report written to {}", path.display());
    Ok(())
}

/// `run`: every end-to-end metric of every workload, by name.
pub fn run(opts: &RunOpts) -> Result<bool, String> {
    let declared = declared_metrics(&environment::benchmark_json()?)?;
    environment::warn_if_loaded();
    let (collected, ok) = collect(opts, "", 0)?;
    print_table(&declared, &collected);
    let report = report_json(opts, &collected);
    let path = opts
        .out
        .clone()
        .unwrap_or_else(|| environment::out_dir().join(format!("run-{}.json", opts.seed)));
    write_report(&path, &report)?;
    println!("{}", report.to_line());
    Ok(ok)
}

/// `trace`: one traced child per workload; its span table, attribution
/// and per-layer metrics, printed as the child reported them.
pub fn trace(seed: u64, seconds: f64) -> Result<bool, String> {
    environment::warn_if_loaded();
    let mut ok = true;
    let mut per_workload = Vec::new();
    for w in workloads::all() {
        let child = spawn_child(w.name, seed, seconds, true)?;
        println!("== {} ({})", w.name, if child.correct { "ok" } else { "FAILED" });
        for note in &child.notes {
            println!("{note}");
        }
        for (name, value, unit) in &child.metrics {
            println!("{:<14} {name:<42} {value:>16.4} {unit}", w.name);
        }
        ok &= child.correct;
        per_workload.push((
            w.name.to_string(),
            obj([
                ("attempted", Json::Num(child.attempted as f64)),
                ("failed", Json::Num(child.failed as f64)),
                (
                    "metrics",
                    Json::Obj(
                        child
                            .metrics
                            .iter()
                            .map(|(n, v, u)| {
                                (
                                    n.clone(),
                                    obj([("value", Json::Num(*v)), ("unit", Json::Str(u.clone()))]),
                                )
                            })
                            .collect(),
                    ),
                ),
            ]),
        ));
    }
    let report = obj([
        ("schema", Json::Str("dynagg-benchmark/trace-report/1".into())),
        ("environment", environment::capture()),
        ("seed", Json::Num(seed as f64)),
        ("workloads", Json::Obj(per_workload)),
    ]);
    write_report(&environment::out_dir().join(format!("trace-report-{seed}.json")), &report)?;
    Ok(ok)
}

/// How much worse `b` is than `a`, as a share of `a` (negative when
/// better).
fn worse_by(d: &Declared, a: f64, b: f64) -> f64 {
    if d.higher_is_better {
        (a - b) / a
    } else {
        (b - a) / a
    }
}

/// `aa`: two interleaved sets of the same binary; every end-to-end
/// median must agree within its bound, and the simulated statistics
/// exactly.
pub fn aa(opts: &RunOpts) -> Result<bool, String> {
    let declared = declared_metrics(&environment::benchmark_json()?)?;
    environment::warn_if_loaded();
    // Alternate single repetitions of A and B so both see the same drift.
    let one = RunOpts { seed: opts.seed, reps: 1, seconds: opts.seconds, out: None };
    let mut sets: [Set; 2] = [Vec::new(), Vec::new()];
    let mut ok = true;
    for rep in 0..opts.reps {
        for (side, set) in sets.iter_mut().enumerate() {
            let label = format!("{} {}/{} ", ["A", "B"][side], rep + 1, opts.reps);
            let (collected, passed) = collect(&one, &label, rep)?;
            ok &= passed;
            if set.is_empty() {
                *set = collected;
            } else {
                for ((_, into), (_, from)) in set.iter_mut().zip(collected) {
                    for (metric, (unit, values)) in from.samples {
                        into.samples
                            .entry(metric)
                            .or_insert_with(|| (unit, Vec::new()))
                            .1
                            .extend(values);
                    }
                    into.attempted += from.attempted;
                    into.failed += from.failed;
                    if into.simulated != from.simulated {
                        eprintln!("FAILED: simulated statistics differ between repetitions");
                        ok = false;
                    }
                }
            }
        }
    }
    let [a, b] = sets;
    println!(
        "{:<14} {:<26} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "B vs A", "bound"
    );
    for ((name, ca), (_, cb)) in a.iter().zip(&b) {
        if ca.simulated != cb.simulated {
            println!("{name:<14} simulated statistics differ between A and B: FAILED");
            ok = false;
        }
        for d in &declared {
            let (Some((_, va)), Some((_, vb))) = (ca.samples.get(&d.name), cb.samples.get(&d.name))
            else {
                continue;
            };
            let (ma, mb) = (stats::median(va), stats::median(vb));
            let gap = worse_by(d, ma, mb).abs().max(worse_by(d, mb, ma).abs());
            let within = gap <= d.bound;
            ok &= within;
            println!(
                "{name:<14} {:<26} {ma:>14.6} {mb:>14.6} {:>+8.2}% {:>6.0}%  {}",
                d.name,
                100.0 * (mb - ma) / ma,
                100.0 * d.bound,
                if within { "agree" } else { "DISAGREE" }
            );
        }
    }
    write_report(
        &environment::out_dir().join(format!("aa-{}-A.json", opts.seed)),
        &report_json(opts, &a),
    )?;
    write_report(
        &environment::out_dir().join(format!("aa-{}-B.json", opts.seed)),
        &report_json(opts, &b),
    )?;
    Ok(ok)
}

fn load_report(path: &Path) -> Result<Json, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let report = Json::parse(text.trim()).map_err(|e| format!("{}: {e}", path.display()))?;
    match report.get("schema").and_then(Json::as_str) {
        Some("dynagg-benchmark/report/1") => Ok(report),
        other => Err(format!("{}: not a run report (schema {other:?})", path.display())),
    }
}

fn samples_of(report: &Json, workload: &str, metric: &str) -> Option<Vec<f64>> {
    report
        .get("workloads")?
        .get(workload)?
        .get("metrics")?
        .get(metric)?
        .get("samples")?
        .as_arr()?
        .iter()
        .map(Json::as_f64)
        .collect()
}

/// The verdict of one (workload, metric) row: B against baseline A.
fn verdict(d: &Declared, a: &[f64], b: &[f64]) -> &'static str {
    let (sa, sb): (Summary, Summary) = (stats::summarize(a), stats::summarize(b));
    let better = |x: f64, y: f64| if d.higher_is_better { x > y } else { x < y };
    let pairs = a.len().min(b.len());
    let wins = (0..pairs).filter(|&i| better(b[i], a[i])).count();
    let gap = (sb.median - sa.median).abs();
    // A gain: B wins at least nine tenths of all pairs (ties count for
    // neither) and the medians differ by more than the baseline's own
    // interquartile distance.
    if better(sb.median, sa.median) && wins * 10 >= pairs * 9 && gap > sa.q3 - sa.q1 {
        return "improved";
    }
    if worse_by(d, sa.median, sb.median) > d.bound {
        return "regressed";
    }
    // Spread wider than the bound cannot show "no worse than the bound",
    // unless every run of B reads better than every run of A.
    let every_b_better = b.iter().all(|&y| a.iter().all(|&x| better(y, x)));
    if sa.spread() > d.bound && !every_b_better {
        return "unresolved";
    }
    "unchanged"
}

/// `compare A.json B.json`: one row per (workload, metric).
pub fn compare(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let declared = declared_metrics(&environment::benchmark_json()?)?;
    let (a, b) = (load_report(a_path)?, load_report(b_path)?);
    println!("A (base of every ratio) = {}", a_path.display());
    println!("B                       = {}", b_path.display());
    println!(
        "{:<14} {:<26} {:<14} {:>13} {:>22} {:>13} {:>22} {:>8}  verdict",
        "workload", "metric", "unit", "A median", "A q1..q3", "B median", "B q1..q3", "B/A"
    );
    let mut regressed = false;
    for w in workloads::all() {
        for d in &declared {
            let (Some(va), Some(vb)) =
                (samples_of(&a, w.name, &d.name), samples_of(&b, w.name, &d.name))
            else {
                continue;
            };
            let (sa, sb) = (stats::summarize(&va), stats::summarize(&vb));
            let v = verdict(d, &va, &vb);
            regressed |= v == "regressed";
            println!(
                "{:<14} {:<26} {:<14} {:>13.6} {:>22} {:>13.6} {:>22} {:>8.4}  {v}",
                w.name,
                d.name,
                d.unit,
                sa.median,
                format!("{:.6}..{:.6}", sa.q1, sa.q3),
                sb.median,
                format!("{:.6}..{:.6}", sb.q1, sb.q3),
                sb.median / sa.median,
            );
        }
        let sim = |r: &Json| r.get("workloads")?.get(w.name)?.get("simulated").cloned();
        if sim(&a) != sim(&b) {
            println!(
                "{:<14} simulated statistics differ: A {} B {}",
                w.name,
                sim(&a).map_or("-".into(), |j| j.to_line()),
                sim(&b).map_or("-".into(), |j| j.to_line())
            );
        }
    }
    Ok(!regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(bound: f64) -> Declared {
        Declared { name: "m".into(), unit: "s".into(), higher_is_better: false, bound }
    }

    #[test]
    fn verdicts_follow_the_pairs_and_spread_rule() {
        let base = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0];
        let faster: Vec<f64> = base.iter().map(|v| v * 0.8).collect();
        let slower: Vec<f64> = base.iter().map(|v| v * 1.3).collect();
        assert_eq!(verdict(&lower(0.1), &base, &faster), "improved");
        assert_eq!(verdict(&lower(0.1), &base, &slower), "regressed");
        assert_eq!(verdict(&lower(0.1), &base, &base), "unchanged");
        // A noisy baseline cannot show "unchanged".
        let noisy = [10.0, 14.0, 7.0, 12.0, 8.0, 13.0, 9.0, 11.0, 6.0, 15.0];
        assert_eq!(verdict(&lower(0.1), &noisy, &noisy), "unresolved");
    }
}
