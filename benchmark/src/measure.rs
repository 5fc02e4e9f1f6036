//! One measured run of one workload — what a child process does, and
//! what the acceptance driver invokes directly:
//! `--workload W --seed N --seconds S --trace 0|1`.
//!
//! With `--trace 0` the run reports every end-to-end metric, measured
//! with the span recorder off. With `--trace 1` it reports every
//! per-layer metric (see [`crate::trace`]). Either way the last line of
//! standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`.

use crate::checks::Checks;
use crate::json::{obj, Json};
use crate::sim::Timed;
use crate::spans::Tracer;
use crate::workloads::{Kind, ServeWorkload, SimWorkload, Workload};
use crate::{procfs, serve, sim, stats};

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric { name: name.into(), value, unit }
}

/// What a measured run hands back: its metrics, its gates, and the
/// seed-determined facts the harness compares across repetitions.
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub checks: Checks,
    /// An object of facts that must repeat exactly for one (workload,
    /// seed): the series digest and the simulated statistics.
    pub simulated: Json,
}

impl Outcome {
    /// The result line of the driver contract, plus `simulated` for the
    /// harness (the driver reads only the four keys it names).
    pub fn result_line(&self) -> String {
        let metrics = Json::Obj(
            self.metrics
                .iter()
                .map(|m| {
                    (
                        m.name.clone(),
                        obj([("value", Json::Num(m.value)), ("unit", Json::Str(m.unit.into()))]),
                    )
                })
                .collect(),
        );
        obj([
            ("correct", Json::Bool(self.checks.correct())),
            ("attempted", Json::Num(self.checks.attempted as f64)),
            ("failed", Json::Num(self.checks.failed as f64)),
            ("metrics", metrics),
        ])
        .to_line()
    }
}

pub fn end_to_end(w: &Workload, seed: u64, seconds: f64) -> Outcome {
    let mut checks = Checks::default();
    let (metrics, simulated) = match &w.kind {
        Kind::Sim(sw) => sim_metrics(sw, seed, seconds, &mut checks),
        Kind::Serve(sw) => serve_metrics(w.name, sw, seed, seconds, &mut checks),
    };
    Outcome { metrics, checks, simulated }
}

fn sim_metrics(
    w: &SimWorkload,
    seed: u64,
    seconds: f64,
    checks: &mut Checks,
) -> (Vec<Metric>, Json) {
    let m = sim::measure(w, seed, seconds, checks);
    let s = m.stats;
    let raw = |t: &[Timed]| t.iter().map(|t| t.wall_s).collect::<Vec<_>>();
    let calibrated = |t: &[Timed]| t.iter().map(Timed::calibrated_s).collect::<Vec<_>>();
    let slowdowns: Vec<f64> = m.calls.iter().map(|t| t.slowdown).collect();
    let quartiles = |v: &[f64]| {
        let q = stats::summarize(v);
        format!("{:.4} ({:.4}..{:.4})", q.median, q.q1, q.q3)
    };
    println!(
        "# {} set-ups, {} timed calls; digest {:016x}",
        m.setups.len(),
        m.calls.len(),
        s.digest
    );
    println!(
        "# call wall as measured {} s, at nominal speed {} s; machine slowdown {} (median, quartiles)",
        quartiles(&raw(&m.calls)),
        quartiles(&calibrated(&m.calls)),
        quartiles(&slowdowns)
    );
    println!(
        "# as measured: setup_s {:.6} host_rounds_per_s {:.1}",
        stats::median(&raw(&m.setups)),
        s.host_rounds as f64 / stats::median(&raw(&m.calls))
    );
    println!(
        "# simulated: host_rounds {} messages {} est_err_pct {:.4} recover_rounds {:?}",
        s.host_rounds, s.messages, s.est_err_pct, s.recover_rounds
    );
    // Host time is stated at the nominal machine speed, and as the median
    // over the window's calls: a burst that slows the workload more than
    // the reference pass moves one call, not the metric.
    let metrics = vec![
        metric("setup_s", stats::median(&calibrated(&m.setups)), "s"),
        metric(
            "host_rounds_per_s",
            s.host_rounds as f64 / stats::median(&calibrated(&m.calls)),
            "host-rounds/s",
        ),
        metric("wire_bytes_per_host_round", s.wire_bytes as f64 / s.host_rounds as f64, "B"),
        metric("peak_rss_mb", m.peak_rss_mb, "MB"),
    ];
    let simulated = obj([
        ("digest", Json::Str(format!("{:016x}", s.digest))),
        ("est_err_pct", Json::Num(s.est_err_pct)),
        ("recover_rounds", s.recover_rounds.map_or(Json::Null, |r| Json::Num(r as f64))),
        ("wire_bytes_per_host_round", Json::Num(s.wire_bytes as f64 / s.host_rounds as f64)),
    ]);
    (metrics, simulated)
}

/// Service set-ups timed before the serving window (the window's own
/// set-up is one more sample). They take milliseconds each.
const SERVE_SETUPS: usize = 20;

fn serve_metrics(
    name: &'static str,
    w: &ServeWorkload,
    seed: u64,
    seconds: f64,
    checks: &mut Checks,
) -> (Vec<Metric>, Json) {
    let mut setup_s: Vec<f64> = (0..SERVE_SETUPS).map(|_| serve::setup_once(w, seed)).collect();
    let run = serve::run_window(name, w, seed, seconds, &mut Tracer::new(false), checks);
    setup_s.push(run.setup_s);
    let r = &run.report;
    println!(
        "# served {:.3} s: polls {} frames_out {} frames_in {} unroutable {} dark {} lost {}",
        run.lifetime_s,
        r.polls,
        r.frames_out,
        r.frames_in,
        r.transport.unroutable,
        r.dark_frames,
        run.lost_frames()
    );
    println!(
        "# {} snapshots p50 {:.0} us p95 {:.0} us; generator worst lateness {:.1} ms; final mean error {:.3} %",
        run.snapshot_us.len(),
        stats::median(&run.snapshot_us),
        stats::quantile(&run.snapshot_us, 0.95),
        run.generator_late_ms,
        run.final_err_pct
    );
    let metrics = vec![
        metric("setup_s", stats::median(&setup_s), "s"),
        // The service is paced: this reads the offered round rate unless
        // the worker falls behind its timers.
        metric("host_rounds_per_s", r.polls as f64 / run.lifetime_s, "host-rounds/s"),
        metric("cpu_us_per_frame", run.cpu_s * 1e6 / r.frames_in as f64, "us"),
        metric(
            "wire_bytes_per_host_round",
            (r.frames_out * run.frame_bytes as u64) as f64 / r.polls as f64,
            "B",
        ),
        // One window per process, so this is `VmHWM` at exit.
        metric("peak_rss_mb", procfs::peak_rss_mb(), "MB"),
    ];
    (metrics, Json::Obj(Vec::new()))
}
