//! The untraced measurement of a simulator workload: set-up repetitions,
//! timed `dynagg_scenario::run` calls for `--seconds`, a reference pass
//! between every two of them, and the correctness gates over every
//! call's `Series`.

use crate::calibrate::{self, Calibrator};
use crate::checks::Checks;
use crate::procfs;
use crate::workloads::SimWorkload;
use dynagg_scenario::{Engine, ScenarioSpec};
use dynagg_sim::{FailureSpec, Series};
use std::time::Instant;

/// The simulated, seed-determined statistics of one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimStats {
    /// FNV-1a over the raw bits of every `RoundStats` field.
    pub digest: u64,
    /// Σ over rounds of live hosts.
    pub host_rounds: u64,
    pub messages: u64,
    /// Real encoded frame bytes on the async engines, the paper's
    /// payload accounting on the lockstep ones.
    pub wire_bytes: u64,
    pub est_err_pct: f64,
    /// Rounds from the failure until the error is back under the
    /// workload's tolerance for good; `None` when it never is (or the
    /// workload has no failure round).
    pub recover_rounds: Option<u64>,
}

/// A digest that changes with any bit of any row.
pub fn digest(series: &Series) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |word: u64| {
        for b in word.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for r in &series.rounds {
        for word in [
            r.round,
            r.alive as u64,
            r.truth.to_bits(),
            r.mean_estimate.to_bits(),
            r.stddev.to_bits(),
            r.mean_abs_err.to_bits(),
            r.max_abs_err.to_bits(),
            r.defined as u64,
            r.messages,
            r.bytes,
            r.wire_bytes,
            r.mean_group_size.to_bits(),
            r.settling as u64,
            r.disruptions,
            r.mass_audit.to_bits(),
            r.islands,
        ] {
            eat(word);
        }
    }
    h
}

/// The round the workload's failure plan first strikes.
pub fn failure_round(spec: &ScenarioSpec) -> Option<u64> {
    match spec.failure {
        FailureSpec::None => None,
        FailureSpec::AtRound { round, .. } => Some(round),
        FailureSpec::Churn { start, .. } => Some(start),
    }
}

pub fn stats_of(w: &SimWorkload, spec: &ScenarioSpec, series: &Series) -> SimStats {
    let last = series.last().expect("workloads run at least one round");
    let recover_rounds = w.recover_tol_pct.and_then(|tol| {
        series.reconvergence_after(
            failure_round(spec).expect("a recovery tolerance implies a failure round"),
            last.truth * tol / 100.0,
        )
    });
    SimStats {
        digest: digest(series),
        host_rounds: series.rounds.iter().map(|r| r.alive as u64).sum(),
        messages: series.total_messages(),
        wire_bytes: if spec.engine == Engine::Async {
            series.total_wire_bytes()
        } else {
            series.total_bytes()
        },
        est_err_pct: 100.0 * last.mean_abs_err / last.truth,
        recover_rounds,
    }
}

/// The gates every run of a simulator workload must pass, whichever way
/// it was driven: the alive-count trajectory follows the failure plan,
/// and the simulated statistics sit inside the workload's limits.
pub fn check_series(
    w: &SimWorkload,
    spec: &ScenarioSpec,
    series: &Series,
    stats: &SimStats,
    checks: &mut Checks,
) {
    let n = spec.n.expect("workloads name their population");
    let rounds = spec.rounds.expect("workloads name their horizon");
    checks.check(series.rounds.len() as u64 == rounds, || {
        format!("series has {} rows, the spec asked for {rounds}", series.rounds.len())
    });
    let off_plan = series.rounds.iter().find(|r| match spec.failure {
        FailureSpec::None => r.alive != n,
        FailureSpec::AtRound { round, fraction, .. } => {
            let after = n - (n as f64 * fraction).round() as usize;
            r.alive != if r.round < round { n } else { after }
        }
        // Leave and join rates are equal in expectation, so the
        // population hovers around its initial size.
        FailureSpec::Churn { start, .. } => {
            if r.round < start {
                r.alive != n
            } else {
                (r.alive as f64 - n as f64).abs() > 0.1 * n as f64
            }
        }
    });
    checks.check(off_plan.is_none(), || {
        let r = off_plan.expect("checked");
        format!("alive count {} at round {} is off the failure plan", r.alive, r.round)
    });
    checks.check(stats.est_err_pct.is_finite() && stats.est_err_pct <= w.err_limit_pct, || {
        format!("est_err_pct {:.3} is over the limit {}", stats.est_err_pct, w.err_limit_pct)
    });
    if w.recover_tol_pct.is_some() {
        checks.check(stats.recover_rounds.is_some_and(|r| r <= w.recover_limit), || {
            format!(
                "recover_rounds {:?} (never, or over the limit {})",
                stats.recover_rounds, w.recover_limit
            )
        });
    }
}

/// A wall time beside how slow the machine was while it was taken: the
/// mean of the reference passes before and after it (see
/// [`crate::calibrate`]).
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    pub wall_s: f64,
    pub slowdown: f64,
}

impl Timed {
    /// The wall stated at the nominal machine speed.
    pub fn calibrated_s(&self) -> f64 {
        self.wall_s / self.slowdown
    }
}

/// What the untraced measurement of one simulator workload yields.
pub struct SimMeasurement {
    pub setups: Vec<Timed>,
    /// One entry per timed `run` call.
    pub calls: Vec<Timed>,
    /// `VmHWM` after the first timed call, less the calibrator's own
    /// buffers: what a process that ran the workload once would show at
    /// exit. Later calls only re-use (and fragment) the same heap, by an
    /// amount that grows with their count.
    pub peak_rss_mb: f64,
    pub stats: SimStats,
}

/// One untraced `dynagg_scenario::run` of a sweepless, single-trial spec.
pub fn run_series(spec: &ScenarioSpec) -> Series {
    let mut outcome = dynagg_scenario::run(spec).expect("workload specs validate");
    let mut instance = outcome.instances.pop().expect("sweepless spec: one instance");
    instance.trials.pop().expect("one trial").series
}

/// The spec cut to its first round: what `setup_s` times (parse,
/// validate, build, first row).
pub fn first_row_spec(spec: &ScenarioSpec) -> ScenarioSpec {
    let mut cut = spec.clone();
    cut.rounds = Some(1);
    cut
}

/// Set-up repetitions per measured run; `setup_s` is their median. A
/// fixed count, so the heap the timed calls start from — and with it the
/// peak resident set — does not depend on how fast the box is today.
/// Set-ups take 8–50 ms, each between two reference passes.
const SETUPS: usize = 25;

pub fn measure(w: &SimWorkload, seed: u64, seconds: f64, checks: &mut Checks) -> SimMeasurement {
    // A reference pass sits between every two timed regions: each region
    // is scaled by the reading before it and the reading after it.
    let mut calibrator = Calibrator::new();
    let mut before = calibrator.slowdown();
    let mut timed = |region: &mut dyn FnMut()| {
        let t = Instant::now();
        region();
        let wall_s = t.elapsed().as_secs_f64();
        let after = calibrator.slowdown();
        let slowdown = (before + after) / 2.0;
        before = after;
        Timed { wall_s, slowdown }
    };

    // Set-up first, on the fresh heap a CLI user's run starts from. Parse
    // is inside the timed region: it is part of time-to-first-row.
    let mut setups = Vec::new();
    for _ in 0..SETUPS {
        let mut rows = 0;
        setups.push(timed(&mut || rows = run_series(&first_row_spec(&w.spec(seed))).rounds.len()));
        checks.check(rows == 1, || format!("set-up run produced {rows} rows, expected 1"));
    }

    let spec = w.spec(seed);
    let mut calls = Vec::new();
    let mut first: Option<SimStats> = None;
    let mut peak_rss_mb = 0.0;
    let window = Instant::now();
    loop {
        let mut series = None;
        calls.push(timed(&mut || series = Some(run_series(&spec))));
        let series = series.expect("the timed region ran");
        if first.is_none() {
            peak_rss_mb = procfs::peak_rss_mb() - calibrate::RESIDENT_BYTES as f64 / 1e6;
        }

        let stats = stats_of(w, &spec, &series);
        check_series(w, &spec, &series, &stats, checks);
        let reference = *first.get_or_insert(stats);
        checks.check(stats == reference, || {
            format!(
                "repetition {} is not a pure function of (workload, seed): digest {:016x} vs {:016x}",
                calls.len(),
                stats.digest,
                reference.digest
            )
        });
        // Whole calls only: the window closes with the call that crosses
        // `seconds`, so a run measures at least that long.
        if window.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    SimMeasurement { setups, calls, peak_rss_mb, stats: first.expect("at least one timed call") }
}
