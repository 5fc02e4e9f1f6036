//! The live-service workloads: `LiveService` over a real transport on
//! the wall clock, with writes beside reads beside restarts.
//!
//! Loop kinds: the service itself is an **open loop** (its own round
//! timers fire whether or not the worker keeps up); the value generator
//! is an open loop on a fixed schedule (its lateness is reported); the
//! snapshot reader is a **closed loop** of one client that waits for
//! each reply before sleeping toward the next call.
//!
//! One driver serves the untraced measurement and the traced run: with
//! the recorder off, every span call is a branch.

use crate::checks::Checks;
use crate::procfs;
use crate::spans::Tracer;
use crate::workloads::{Carrier, ServeWorkload};
use dynagg_core::epoch::DriftModel;
use dynagg_core::mass::Mass;
use dynagg_core::push_sum_revert::PushSumRevert;
use dynagg_core::wire::WireMessage;
use dynagg_node::runtime::FRAME_HEADER_BYTES;
use dynagg_node::transport::{encode_datagram, Transport};
use dynagg_node::{ChannelMesh, Envelope, LiveService, ServiceConfig, ServiceReport, UdpMesh};
use dynagg_sim::rng;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Diurnal period of the written values: slow against a 10 s window, so
/// the truth drifts while the service tracks it.
const VALUE_PERIOD_MS: f64 = 60_000.0;
/// A snapshot slower than this fails its check.
const SNAPSHOT_LIMIT: Duration = Duration::from_secs(1);
/// Final `|mean estimate − truth| / truth` may not exceed this.
const FINAL_ERR_LIMIT_PCT: f64 = 5.0;
/// Share of datagrams loopback UDP may drop. A quiet box loses about
/// 0.1 % at the offered rate; a worker descheduled for some tens of
/// milliseconds overflows its socket buffer and has lost up to 8.5 %.
/// The gate is for a carrier that drops frames wholesale, not for a noisy
/// neighbour, so it sits well above both.
const UDP_LOSS_LIMIT: f64 = 0.2;

/// A uniform draw in `[0, 1)` addressed by `(seed, tag, node)`.
fn unit(seed: u64, tag: u64, node: usize) -> f64 {
    (rng::derive(seed, (tag << 32) ^ node as u64) >> 11) as f64 / (1u64 << 53) as f64
}

/// The value node `id`'s clients hold at `t_ms`: a per-node base in
/// 20..100 with a sinusoid of up to 30 % around it — the inputs, made
/// from the seed alone.
fn value_at(seed: u64, node: usize, t_ms: f64) -> f64 {
    let base = 20.0 + 80.0 * unit(seed, 1, node);
    let amp = 0.3 * base * unit(seed, 2, node);
    let phase = unit(seed, 3, node);
    base + amp * (std::f64::consts::TAU * (t_ms / VALUE_PERIOD_MS + phase)).sin()
}

/// What the generator has written, and which nodes are stopped: the
/// exact truth the service is estimating.
struct Ledger {
    value: Vec<f64>,
    stopped: Vec<bool>,
}

impl Ledger {
    fn truth(&self) -> f64 {
        let (sum, n) = self
            .value
            .iter()
            .zip(&self.stopped)
            .filter(|(_, &stopped)| !stopped)
            .fold((0.0, 0usize), |(s, n), (v, _)| (s + v, n + 1));
        sum / n as f64
    }
}

fn start_service<T: Transport + 'static>(
    w: &ServeWorkload,
    seed: u64,
    mesh: Vec<T>,
) -> LiveService {
    let mut cfg = ServiceConfig::new(w.nodes, seed);
    cfg.workers = w.workers;
    cfg.interval_ms = w.interval_ms;
    let lambda = w.lambda;
    LiveService::start(
        &cfg,
        mesh,
        Box::new(move |_rng, id| value_at(seed, id as usize, 0.0)),
        Box::new(|_| DriftModel::Synced),
        std::sync::Arc::new(move |_id, v| PushSumRevert::new(v, lambda)),
        std::sync::Arc::new(|p: &mut PushSumRevert, v| p.set_value(v)),
    )
}

/// Bytes one gossip frame puts on this carrier, by the carrier's own
/// public encoders: frame header plus mass codec, and for UDP the
/// datagram preamble on top.
pub fn frame_bytes(carrier: Carrier) -> usize {
    let mut payload = vec![0u8; FRAME_HEADER_BYTES];
    Mass::ZERO.encode(&mut payload);
    match carrier {
        Carrier::Inproc => payload.len(),
        Carrier::Udp => {
            let env = Envelope { from: 0, to: 1, payload, raw_bytes: 0 };
            let mut dgram = Vec::new();
            encode_datagram(&env, &mut dgram);
            dgram.len()
        }
    }
}

/// Everything one serving window produced.
pub struct ServeRun {
    /// Mesh construction + `LiveService::start` + the first full snapshot.
    pub setup_s: f64,
    /// `LiveService::start` alone, for `node.service.start_ms`.
    pub start_ms: f64,
    /// From `start` returning to `shutdown` being called.
    pub lifetime_s: f64,
    /// Process CPU seconds over the same interval.
    pub cpu_s: f64,
    pub report: ServiceReport,
    pub snapshot_us: Vec<f64>,
    pub set_values_us: Vec<f64>,
    /// How far behind its schedule the generator ran, worst batch.
    pub generator_late_ms: f64,
    pub final_err_pct: f64,
    pub frame_bytes: usize,
}

impl ServeRun {
    /// Frames the runtimes emitted that no runtime, route drop or dark
    /// slot accounts for — what the carrier itself lost.
    pub fn lost_frames(&self) -> i64 {
        let r = &self.report;
        r.frames_out as i64
            - r.frames_in as i64
            - r.transport.unroutable as i64
            - r.dark_frames as i64
            - r.decode_errors as i64
    }
}

/// One serving window of `seconds` on the workload's carrier.
pub fn run_window(
    name: &'static str,
    w: &ServeWorkload,
    seed: u64,
    seconds: f64,
    tracer: &mut Tracer,
    checks: &mut Checks,
) -> ServeRun {
    match w.carrier {
        Carrier::Inproc => drive(name, w, seed, seconds, tracer, checks, |t| {
            t.scope("ChannelMesh::new", |_| ChannelMesh::new(w.workers, w.nodes))
        }),
        Carrier::Udp => drive(name, w, seed, seconds, tracer, checks, |t| {
            t.scope("UdpMesh::new", |_| {
                UdpMesh::new(w.workers, w.nodes).expect("bind loopback UDP sockets")
            })
        }),
    }
}

/// Set the service up and tear it straight down: one `setup_s` sample.
pub fn setup_once(w: &ServeWorkload, seed: u64) -> f64 {
    let t = Instant::now();
    let service = match w.carrier {
        Carrier::Inproc => start_service(w, seed, ChannelMesh::new(w.workers, w.nodes)),
        Carrier::Udp => start_service(
            w,
            seed,
            UdpMesh::new(w.workers, w.nodes).expect("bind loopback UDP sockets"),
        ),
    };
    while !is_full(&service.snapshot(), w.nodes) {}
    let setup_s = t.elapsed().as_secs_f64();
    service.shutdown();
    setup_s
}

fn is_full(snaps: &[dynagg_node::NodeSnap], expected: usize) -> bool {
    snaps.len() == expected && snaps.iter().all(|s| s.estimate.is_some())
}

fn drive<T: Transport + 'static>(
    name: &'static str,
    w: &ServeWorkload,
    seed: u64,
    seconds: f64,
    tracer: &mut Tracer,
    checks: &mut Checks,
    build_mesh: impl FnOnce(&mut Tracer) -> Vec<T>,
) -> ServeRun {
    let root = tracer.open(name);
    let origin = tracer.origin();

    let phase = tracer.open("setup");
    let t_setup = Instant::now();
    let mesh = build_mesh(tracer);
    let t_start = Instant::now();
    let service = tracer.scope("LiveService::start", |_| start_service(w, seed, mesh));
    let start_ms = t_start.elapsed().as_secs_f64() * 1e3;
    let born = Instant::now();
    let cpu0 = procfs::cpu_seconds();
    while !tracer.scope("LiveService::snapshot", |_| is_full(&service.snapshot(), w.nodes)) {}
    let setup_s = t_setup.elapsed().as_secs_f64();
    tracer.close(phase);

    let ledger = Mutex::new(Ledger {
        value: (0..w.nodes).map(|id| value_at(seed, id, 0.0)).collect(),
        stopped: vec![false; w.nodes],
    });
    let victims: Vec<usize> = {
        let count = (w.nodes as f64 * w.chaos_fraction).round() as usize;
        (0..count).map(|k| k * w.nodes / count).collect()
    };
    let done = AtomicBool::new(false);
    let window = Duration::from_secs_f64(seconds);
    let mut snapshot_us = Vec::new();
    let mut final_err_pct = f64::NAN;

    let ((set_values_spans, generator_late_ms), teardown) = std::thread::scope(|scope| {
        let generator = scope.spawn(|| {
            let per_batch = (w.writes_per_s * w.write_batch_ms / 1000).max(1) as usize;
            let mut spans: Vec<(u64, u64)> = Vec::new();
            let mut worst_late = Duration::ZERO;
            let mut cursor = 0usize;
            let mut batch = Vec::with_capacity(per_batch);
            for k in 0u32.. {
                let due = born + Duration::from_millis(w.write_batch_ms) * k;
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                if done.load(Ordering::SeqCst) {
                    break;
                }
                worst_late = worst_late.max(due.elapsed());
                let t_ms = born.elapsed().as_secs_f64() * 1e3;
                batch.clear();
                {
                    let mut ledger = ledger.lock().expect("reader never panics holding it");
                    for _ in 0..per_batch {
                        let v = value_at(seed, cursor, t_ms);
                        ledger.value[cursor] = v;
                        batch.push((cursor as u32, v));
                        cursor = (cursor + 1) % w.nodes;
                    }
                }
                let t0 = origin.elapsed().as_nanos() as u64;
                service.set_values(&batch);
                spans.push((t0, origin.elapsed().as_nanos() as u64));
            }
            (spans, worst_late.as_secs_f64() * 1e3)
        });

        // The reader: a closed loop of one client, and the chaos timeline.
        let mut stopped = false;
        let mut restarted = false;
        let mut phase_name = "steady";
        let mut phase = tracer.open(phase_name);
        loop {
            let at = born.elapsed();
            if at >= window {
                break;
            }
            if !stopped && at >= window / 3 {
                tracer.close(phase);
                phase_name = "perturb";
                phase = tracer.open(phase_name);
                let mut ledger = ledger.lock().expect("generator never panics holding it");
                tracer.scope("LiveService::stop", |_| {
                    for &id in &victims {
                        service.stop(id as u32);
                        ledger.stopped[id] = true;
                    }
                });
                stopped = true;
            }
            if !restarted && at >= window * 2 / 3 {
                tracer.close(phase);
                phase_name = "recover";
                phase = tracer.open(phase_name);
                let mut ledger = ledger.lock().expect("generator never panics holding it");
                tracer.scope("LiveService::restart", |_| {
                    for &id in &victims {
                        service.restart(id as u32, ledger.value[id]);
                        ledger.stopped[id] = false;
                    }
                });
                restarted = true;
            }
            let running = w.nodes - if stopped && !restarted { victims.len() } else { 0 };
            let t = Instant::now();
            let snaps = tracer.scope("LiveService::snapshot", |_| service.snapshot());
            let latency = t.elapsed();
            snapshot_us.push(latency.as_secs_f64() * 1e6);
            // A stop or restart still queued behind the worker's current
            // pass may show for one snapshot; count only settled ones.
            let settled = at < window / 3
                || (at >= window / 3 + SETTLE && at < window * 2 / 3)
                || at >= window * 2 / 3 + SETTLE;
            if settled {
                checks.check(is_full(&snaps, running), || {
                    format!(
                        "snapshot at {:.0} ms reports {} of {running} running nodes",
                        at.as_secs_f64() * 1e3,
                        snaps.len()
                    )
                });
            }
            checks.check(latency <= SNAPSHOT_LIMIT, || {
                format!("snapshot took {:.0} ms", latency.as_secs_f64() * 1e3)
            });
            if let Some(wait) = Duration::from_millis(w.snapshot_every_ms).checked_sub(t.elapsed())
            {
                std::thread::sleep(wait);
            }
        }
        tracer.close(phase);

        let phase = tracer.open("teardown");
        done.store(true, Ordering::SeqCst);
        let generated = generator.join().expect("generator thread");
        let snaps = tracer.scope("LiveService::snapshot", |_| service.snapshot());
        let truth = ledger.lock().expect("generator has exited").truth();
        let estimates: Vec<f64> = snaps.iter().filter_map(|s| s.estimate).collect();
        checks.check(estimates.len() == w.nodes, || {
            format!("{} of {} nodes report at the end", estimates.len(), w.nodes)
        });
        let mean = estimates.iter().sum::<f64>() / estimates.len().max(1) as f64;
        final_err_pct = 100.0 * (mean - truth).abs() / truth.abs();
        (generated, phase)
    });
    checks.check(final_err_pct <= FINAL_ERR_LIMIT_PCT, || {
        format!("final mean error {final_err_pct:.3} % is over {FINAL_ERR_LIMIT_PCT} %")
    });

    let lifetime_s = born.elapsed().as_secs_f64();
    let cpu_s = procfs::cpu_seconds() - cpu0;
    let report = tracer.scope("LiveService::shutdown", |_| service.shutdown());
    tracer.close(teardown);
    tracer.close(root);
    tracer.adopt("LiveService::set_values", &set_values_spans, &["steady", "perturb", "recover"]);

    let run = ServeRun {
        setup_s,
        start_ms,
        lifetime_s,
        cpu_s,
        report,
        snapshot_us,
        set_values_us: set_values_spans.iter().map(|&(a, b)| (b - a) as f64 / 1e3).collect(),
        generator_late_ms,
        final_err_pct,
        frame_bytes: frame_bytes(w.carrier),
    };
    checks.check(run.report.decode_errors == 0, || {
        format!("{} frames failed to decode on a clean wire", run.report.decode_errors)
    });
    let lost = run.lost_frames();
    let allowed = match w.carrier {
        Carrier::Inproc => 0,
        Carrier::Udp => (run.report.frames_out as f64 * UDP_LOSS_LIMIT) as i64,
    };
    checks.check((0..=allowed).contains(&lost), || {
        format!(
            "carrier lost {lost} of {} frames (allowed {allowed}): {:?}",
            run.report.frames_out, run.report
        )
    });
    run
}

/// How long after a stop or restart wave a snapshot may still show the
/// old population (commands queue behind the worker's current pass).
const SETTLE: Duration = Duration::from_millis(250);
