//! The `serve` subcommand: a **long-running live aggregation service**
//! under generated client load.
//!
//! `experiments serve` boots `--nodes` Push-Sum-Revert hosts behind a
//! live [`Transport`] (in-process channels by default, UDP loopback with
//! `--transport udp`), then plays `--clients` simulated clients against
//! it. Each client owns a diurnal value curve (base + sinusoid with a
//! per-client phase) and pushes its current value to its home node
//! (`client % nodes`) on a fixed cadence; the service's job is to keep
//! every node's local estimate tracking the *instantaneous mean of the
//! written values* — the paper's dynamic-aggregation story, live.
//!
//! The harness knows the truth exactly (it wrote every value), so each
//! report line compares live estimates against it; `--assert-error PCT`
//! turns the final report into a CI gate. `--kill-frac F` kills that
//! fraction of nodes a third of the way in and restarts them at the
//! two-thirds mark — the chaos story on the live transport.

use dynagg_core::config::RevertConfig;
use dynagg_core::push_sum_revert::PushSumRevert;
use dynagg_node::service::{LiveService, ServiceConfig};
use dynagg_node::transport::{ChannelMesh, Transport, UdpMesh};
use dynagg_node::Counters;
use dynagg_sim::rng;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which live carrier the service runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportKind {
    /// In-process channel mesh ([`ChannelMesh`]) — the high-throughput
    /// default.
    Inproc,
    /// UDP loopback mesh ([`UdpMesh`]) — real sockets, real datagrams.
    Udp,
}

/// `serve` options (see the CLI help for flag spellings).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeOpts {
    /// Population size.
    pub nodes: usize,
    /// Worker threads (and transport endpoints).
    pub workers: usize,
    /// Live carrier.
    pub transport: TransportKind,
    /// Wall-clock run length.
    pub duration_ms: u64,
    /// Nominal gossip round interval.
    pub interval_ms: u64,
    /// Simulated clients pushing values.
    pub clients: usize,
    /// Per-client push cadence (each client re-writes its value this
    /// often).
    pub push_every_ms: u64,
    /// Diurnal period of the client value curves.
    pub period_ms: u64,
    /// Push-Sum-Revert reversion weight.
    pub lambda: f64,
    /// Membership-view size.
    pub view: usize,
    /// Master seed (population and client curves).
    pub seed: u64,
    /// Report cadence.
    pub report_every_ms: u64,
    /// Fraction of nodes killed at `duration/3` and restarted at
    /// `2·duration/3`.
    pub kill_frac: f64,
    /// Gate: fail unless the final report's mean relative estimate error
    /// is at or below this (a fraction, e.g. `0.05`).
    pub assert_error: Option<f64>,
}

impl Default for ServeOpts {
    fn default() -> Self {
        Self {
            nodes: 10_000,
            workers: 1,
            transport: TransportKind::Inproc,
            duration_ms: 10_000,
            interval_ms: 100,
            clients: 100_000,
            push_every_ms: 5_000,
            period_ms: 60_000,
            lambda: 0.1,
            view: 64,
            seed: 0xD15C0,
            report_every_ms: 1_000,
            kill_frac: 0.0,
            assert_error: None,
        }
    }
}

/// One report line's numbers, also the run's final verdict material.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeObservation {
    /// Wall-clock milliseconds since service start.
    pub at_ms: u64,
    /// Instantaneous mean of all written values.
    pub truth: f64,
    /// Mean of the live node estimates.
    pub est_mean: f64,
    /// `|est_mean − truth| / |truth|`.
    pub mean_err: f64,
    /// 95th-percentile per-node relative error.
    pub p95_err: f64,
    /// Nodes that reported an estimate.
    pub reporting: usize,
}

/// What a `serve` run hands back after shutdown.
#[derive(Debug, Clone)]
pub struct ServeSummary {
    /// Every report taken, in time order.
    pub observations: Vec<ServeObservation>,
    /// Aggregate worker/transport accounting.
    pub report: Counters,
    /// Client value updates injected.
    pub updates: u64,
}

impl ServeSummary {
    /// The last observation (the gated one).
    pub fn last(&self) -> Option<&ServeObservation> {
        self.observations.last()
    }
}

/// Stream tags for the per-client curve parameters.
const BASE_TAG: u64 = 0x62617365_00000000; // "base"
const AMP_TAG: u64 = 0x616D705F_00000000; // "amp_"
const PHASE_TAG: u64 = 0x70687300_00000000; // "phs"

/// A uniform draw in `[0, 1)` addressed by `(seed, tag, index)` — pure,
/// so the generator never has to store per-client state.
fn unit(seed: u64, tag: u64, index: u64) -> f64 {
    (rng::derive(seed, tag ^ index) >> 11) as f64 / (1u64 << 53) as f64
}

/// The diurnal client model: each client `c` follows
/// `base_c + amp_c · sin(2π(t/period + phase_c))` with per-client base
/// (20..100), amplitude (up to 30 % of base) and phase.
#[derive(Debug, Clone, Copy)]
pub struct ClientModel {
    seed: u64,
    clients: usize,
    period_ms: u64,
}

impl ClientModel {
    /// Build the model for `clients` clients on a diurnal `period_ms`.
    pub fn new(seed: u64, clients: usize, period_ms: u64) -> Self {
        Self { seed, clients, period_ms }
    }

    /// Client `c`'s value at time `t_ms`.
    pub fn value(&self, c: usize, t_ms: u64) -> f64 {
        let base = 20.0 + 80.0 * unit(self.seed, BASE_TAG, c as u64);
        let amp = 0.3 * base * unit(self.seed, AMP_TAG, c as u64);
        let phase = unit(self.seed, PHASE_TAG, c as u64);
        let arg = std::f64::consts::TAU * (t_ms as f64 / self.period_ms as f64 + phase);
        base + amp * arg.sin()
    }

    /// Number of clients.
    pub fn clients(&self) -> usize {
        self.clients
    }
}

/// Tracks what the load generator has written: each node's latest value
/// and the exact running mean (the "instantaneous injected truth").
struct TruthLedger {
    node_value: Vec<f64>,
    sum: f64,
}

impl TruthLedger {
    fn new(initial: Vec<f64>) -> Self {
        let sum = initial.iter().sum();
        Self { node_value: initial, sum }
    }

    fn write(&mut self, node: usize, value: f64) {
        self.sum += value - self.node_value[node];
        self.node_value[node] = value;
    }

    fn truth(&self) -> f64 {
        self.sum / self.node_value.len() as f64
    }
}

/// Drive a full `serve` run to completion and return its summary.
pub fn run(opts: &ServeOpts) -> Result<ServeSummary, String> {
    if opts.nodes == 0 || opts.workers == 0 {
        return Err("serve needs at least one node and one worker".into());
    }
    if opts.workers > opts.nodes {
        return Err("serve needs at least one node per worker".into());
    }
    RevertConfig::new(opts.lambda).map_err(|e| format!("--lambda: {e}"))?;
    if opts.interval_ms == 0 {
        return Err("--interval-ms must be at least 1".into());
    }
    if opts.period_ms == 0 {
        return Err("--period-ms must be at least 1".into());
    }
    match opts.transport {
        TransportKind::Inproc => {
            let mesh = ChannelMesh::new(opts.workers, opts.nodes);
            drive(opts, mesh)
        }
        TransportKind::Udp => {
            let mesh = UdpMesh::new(opts.workers, opts.nodes)
                .map_err(|e| format!("udp mesh bind failed: {e}"))?;
            drive(opts, mesh)
        }
    }
}

/// The transport-generic body of [`run`].
fn drive<T: Transport + 'static>(opts: &ServeOpts, mesh: Vec<T>) -> Result<ServeSummary, String> {
    let mut cfg = ServiceConfig::new(opts.nodes, opts.seed);
    cfg.workers = opts.workers;
    cfg.interval_ms = opts.interval_ms;
    cfg.view_size = opts.view;

    let model = ClientModel::new(opts.seed, opts.clients.max(opts.nodes), opts.period_ms);
    let nodes = opts.nodes;
    // Node `id`'s boot value is client `id`'s curve at t = 0 (each node
    // has at least one home client because the model covers ≥ `nodes`
    // clients), so the truth ledger is exact from the first write on.
    let boot = model;
    let lambda = opts.lambda;
    let service = LiveService::start(
        &cfg,
        mesh,
        Box::new(move |_rng, id| boot.value(id as usize, 0)),
        Box::new(|_| dynagg_core::epoch::DriftModel::Synced),
        Arc::new(move |_id, v| PushSumRevert::new(v, lambda)),
        Arc::new(|p: &mut PushSumRevert, v| p.set_value(v)),
    );

    let mut ledger = TruthLedger::new((0..nodes).map(|id| model.value(id, 0)).collect());
    let started = Instant::now();
    let mut observations = Vec::new();
    let mut updates = 0u64;

    // Each loop tick advances the client schedule: clients push on a
    // round-robin cadence (client c pushes at phase c/clients of every
    // push period), so load is spread evenly instead of bursting.
    let tick_ms = opts.report_every_ms.clamp(50, 250).min(opts.push_every_ms.max(1));
    let mut next_client = 0usize;
    let mut next_report = opts.report_every_ms;
    let kill_at = opts.duration_ms / 3;
    let heal_at = 2 * opts.duration_ms / 3;
    let kill_count = ((nodes as f64) * opts.kill_frac).round() as usize;
    let mut killed: Vec<usize> = Vec::new();
    let mut batch: Vec<(u32, f64)> = Vec::new();

    loop {
        let now = started.elapsed().as_millis() as u64;
        if now >= opts.duration_ms {
            break;
        }

        // Chaos: one kill wave, one heal wave.
        if kill_count > 0 && killed.is_empty() && now >= kill_at && now < heal_at {
            // Deterministic victim choice: spread across the id space.
            killed = (0..kill_count).map(|k| k * nodes / kill_count).collect();
            for &id in &killed {
                service.stop(id as u32);
            }
            eprintln!("[serve] killed {} nodes at t={now}ms", killed.len());
        }
        if !killed.is_empty() && now >= heal_at {
            for &id in &killed {
                service.restart(id as u32, ledger.node_value[id]);
            }
            eprintln!("[serve] restarted {} nodes at t={now}ms", killed.len());
            killed.clear();
        }

        // The slice of clients due this tick.
        let due = ((model.clients() as u64 * tick_ms) / opts.push_every_ms.max(1)).max(1) as usize;
        batch.clear();
        for _ in 0..due.min(model.clients()) {
            let c = next_client;
            next_client = (next_client + 1) % model.clients();
            let node = c % nodes;
            let v = model.value(c, now);
            ledger.write(node, v);
            if !killed.contains(&node) {
                batch.push((node as u32, v));
            }
            updates += 1;
        }
        service.set_values(&batch);

        if now >= next_report {
            next_report += opts.report_every_ms;
            let obs = observe(&service, &ledger, now, &killed);
            println!(
                "[serve t={:>6}ms] truth={:>8.3} est_mean={:>8.3} err_mean={:>6.2}% p95={:>6.2}% reporting={}/{}",
                obs.at_ms,
                obs.truth,
                obs.est_mean,
                obs.mean_err * 100.0,
                obs.p95_err * 100.0,
                obs.reporting,
                nodes - killed.len(),
            );
            observations.push(obs);
        }

        std::thread::sleep(Duration::from_millis(tick_ms));
    }

    // Final, gated observation.
    let now = started.elapsed().as_millis() as u64;
    let obs = observe(&service, &ledger, now, &killed);
    println!(
        "[serve  final ] truth={:>8.3} est_mean={:>8.3} err_mean={:>6.2}% p95={:>6.2}% reporting={}",
        obs.truth,
        obs.est_mean,
        obs.mean_err * 100.0,
        obs.p95_err * 100.0,
        obs.reporting,
    );
    observations.push(obs);

    let report = service.shutdown();
    println!(
        "[serve report ] polls={} frames_out={} frames_in={} decode_errors={} unroutable={} rejected={} updates={}",
        report.polls,
        report.frames_out,
        report.frames_in,
        report.decode_errors,
        report.transport.unroutable,
        report.transport.rejected(),
        updates,
    );
    if report.decode_errors > 0 {
        return Err(format!("{} frames failed to decode on a clean wire", report.decode_errors));
    }
    if report.workers_lost > 0 || report.commands_undelivered > 0 {
        return Err(format!(
            "{} worker(s) panicked mid-run; {} command(s) never reached one",
            report.workers_lost, report.commands_undelivered
        ));
    }

    let summary = ServeSummary { observations, report, updates };
    if let Some(gate) = opts.assert_error {
        let last = summary.last().expect("at least the final observation");
        // NaN must fail the gate, so the comparison is spelled out rather
        // than written as `!(mean_err <= gate)`.
        if last.mean_err.is_nan() || last.mean_err > gate {
            return Err(format!(
                "final mean estimate error {:.3}% exceeds the --assert-error gate {:.3}%",
                last.mean_err * 100.0,
                gate * 100.0
            ));
        }
    }
    Ok(summary)
}

/// Snapshot the service and score it against the ledger.
fn observe(
    service: &LiveService,
    ledger: &TruthLedger,
    at_ms: u64,
    killed: &[usize],
) -> ServeObservation {
    let truth = if killed.is_empty() {
        ledger.truth()
    } else {
        // Killed nodes' values are out of the live population; the live
        // network can only track the mean of what is still being served.
        let (mut sum, mut n) = (0.0, 0usize);
        for (id, &v) in ledger.node_value.iter().enumerate() {
            if !killed.contains(&id) {
                sum += v;
                n += 1;
            }
        }
        sum / n.max(1) as f64
    };
    let estimates: Vec<f64> = service.estimates();
    let reporting = estimates.len();
    if reporting == 0 {
        return ServeObservation {
            at_ms,
            truth,
            est_mean: f64::NAN,
            mean_err: f64::INFINITY,
            p95_err: f64::INFINITY,
            reporting,
        };
    }
    let est_mean = estimates.iter().sum::<f64>() / reporting as f64;
    let denom = truth.abs().max(f64::MIN_POSITIVE);
    let mean_err = (est_mean - truth).abs() / denom;
    let mut errs: Vec<f64> = estimates.iter().map(|e| (e - truth).abs() / denom).collect();
    errs.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite errors"));
    let p95 = errs[((errs.len() - 1) as f64 * 0.95) as usize];
    ServeObservation { at_ms, truth, est_mean, mean_err, p95_err: p95, reporting }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `run` refuses `opts` before it binds a mesh, with a message naming
    /// `flag`.
    fn refused(opts: ServeOpts, flag: &str) {
        match run(&opts) {
            Err(msg) => assert!(msg.contains(flag), "{flag}: {msg}"),
            Ok(_) => panic!("{flag}: a bad value ran"),
        }
    }

    #[test]
    fn lambda_outside_the_unit_interval_is_refused() {
        refused(ServeOpts { lambda: 1.5, ..ServeOpts::default() }, "--lambda");
    }

    #[test]
    fn zero_interval_is_refused() {
        refused(ServeOpts { interval_ms: 0, ..ServeOpts::default() }, "--interval-ms");
    }

    #[test]
    fn zero_period_is_refused() {
        refused(ServeOpts { period_ms: 0, ..ServeOpts::default() }, "--period-ms");
    }
}
