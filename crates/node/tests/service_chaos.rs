//! Soak/chaos smoke for the live service: a seconds-scale run on real
//! worker threads with kills, restarts, and live value reconfiguration —
//! the CI-sized version of the `experiments serve` acceptance run.
//!
//! The storyline:
//!
//! 1. **Converge** — 400 nodes across two workers on an in-process mesh
//!    estimate a known truth within tolerance.
//! 2. **Chaos** — 10 % of the population is killed mid-run (routes
//!    dropped, state gone), then restarted with fresh protocols at their
//!    old values. Estimates re-converge; nobody hangs; the wire stays
//!    clean.
//! 3. **Reconfigure** — every client value shifts by a constant while
//!    the protocol runs; estimates track the new truth.
//! 4. **Audit** — the conservation ledger stays bounded through all of
//!    it: killing nodes destroys their in-flight mass, but the reversion
//!    drift (λ) regenerates it, so total audited weight ends near the
//!    population size, not collapsed or inflated.
//!
//! Everything is deadline-polled, not sleep-calibrated: each phase waits
//! until the assertion holds (or a generous deadline trips), so the test
//! is CI-safe on slow, noisy machines.

use dynagg_core::push_sum_revert::PushSumRevert;
use dynagg_node::runtime::Envelope;
use dynagg_node::service::{LiveService, ServiceConfig, SharedFactory};
use dynagg_node::transport::{encode_datagram, ChannelMesh, Transport, UdpMesh};
use std::sync::Arc;
use std::time::{Duration, Instant};

const N: usize = 400;
const LAMBDA: f64 = 0.1;
const TOL: f64 = 0.05;

/// The known client value of node `id` (deterministic, so the test can
/// compute the truth the network should estimate).
fn value_of(id: u32) -> f64 {
    50.0 + f64::from(id % 100)
}

fn healthy_factory() -> SharedFactory<PushSumRevert> {
    Arc::new(|_, v| PushSumRevert::new(v, LAMBDA))
}

/// A push-sum-revert service over `mesh` whose node `id` starts at
/// `value_of(id)`.
fn start<T: Transport + 'static>(
    cfg: &ServiceConfig,
    mesh: Vec<T>,
    factory: SharedFactory<PushSumRevert>,
) -> LiveService {
    LiveService::start(
        cfg,
        mesh,
        Box::new(|_, id| value_of(id)),
        Box::new(|_| dynagg_core::epoch::DriftModel::Synced),
        factory,
        Arc::new(|p: &mut PushSumRevert, v| p.set_value(v)),
    )
}

fn truth(shift: f64) -> f64 {
    (0..N as u32).map(|id| value_of(id) + shift).sum::<f64>() / N as f64
}

/// Poll the service until the mean relative error against `want` drops
/// under `tol`, or the deadline trips. Returns the final error.
fn await_convergence(svc: &LiveService, want: f64, tol: f64, patience: Duration) -> f64 {
    let deadline = Instant::now() + patience;
    let mut err = f64::INFINITY;
    loop {
        let est = svc.estimates();
        if !est.is_empty() {
            err = est.iter().map(|e| (e - want).abs() / want.abs()).sum::<f64>() / est.len() as f64;
        }
        if err < tol || Instant::now() > deadline {
            return err;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
}

#[test]
fn chaos_soak_converges_reconverges_and_conserves_mass() {
    let mut cfg = ServiceConfig::new(N, 0xC4A05);
    cfg.workers = 2;
    cfg.interval_ms = 25; // fast rounds: seconds of wall clock ≈ a long soak
    cfg.view_size = 32;
    let svc = start(&cfg, ChannelMesh::new(cfg.workers, N), healthy_factory());

    // Phase 1: converge on the initial truth.
    let err = await_convergence(&svc, truth(0.0), TOL, Duration::from_secs(10));
    assert!(err < TOL, "initial convergence stalled: mean err {:.2}%", err * 100.0);

    // Phase 2: kill 10% of the population (every tenth node), let the
    // survivors gossip around the holes, then bring the victims back at
    // their old values.
    let victims: Vec<u32> = (0..N as u32).filter(|id| id % 10 == 0).collect();
    assert_eq!(victims.len(), N / 10);
    for &id in &victims {
        svc.stop(id);
    }
    // Survivors keep estimating while the routes are dark (frames toward
    // the dead are counted unroutable, never delivered).
    std::thread::sleep(Duration::from_millis(8 * cfg.interval_ms));
    let alive = svc.snapshot();
    assert_eq!(alive.len(), N - victims.len(), "stopped nodes leave the snapshot");
    for &id in &victims {
        svc.restart(id, value_of(id));
    }
    let err = await_convergence(&svc, truth(0.0), TOL, Duration::from_secs(10));
    assert!(err < TOL, "no re-convergence after chaos: mean err {:.2}%", err * 100.0);

    // Phase 3: shift every client value by +25 while the protocol runs;
    // the estimate must track the new truth.
    let shift = 25.0;
    let batch: Vec<(u32, f64)> = (0..N as u32).map(|id| (id, value_of(id) + shift)).collect();
    svc.set_values(&batch);
    let err = await_convergence(&svc, truth(shift), TOL, Duration::from_secs(10));
    assert!(err < TOL, "estimates lost the shifted truth: mean err {:.2}%", err * 100.0);

    // Phase 4: the mass audit is bounded. Kills destroyed in-flight
    // mass, but λ-reversion regenerates it toward the anchors: total
    // audited weight ends near N (one unit per node), not collapsed or
    // inflated, and the mass-weighted mean agrees with the truth.
    let snaps = svc.snapshot();
    assert_eq!(snaps.len(), N, "every node is back and reporting");
    let (mut wsum, mut vsum) = (0.0, 0.0);
    for s in &snaps {
        let m = s.mass.expect("push-sum-revert tracks mass");
        wsum += m.weight;
        vsum += m.value;
    }
    let w_err = (wsum - N as f64).abs() / N as f64;
    assert!(w_err < 0.3, "audited weight drifted: {wsum:.1} for {N} nodes");
    let mass_mean = vsum / wsum;
    let m_err = (mass_mean - truth(shift)).abs() / truth(shift);
    assert!(m_err < TOL, "mass-weighted mean {mass_mean:.2} vs truth {:.2}", truth(shift));

    let report = svc.shutdown();
    assert_eq!(report.decode_errors, 0, "the wire stayed clean through the chaos");
    assert!(report.polls > 0 && report.frames_out > 0);
    // Frames toward killed nodes were dropped at send time, counted —
    // that is the only legitimate loss on an in-process mesh.
    assert_eq!(report.transport.malformed, 0);
    assert_eq!(report.transport.unknown_sender, 0);
    assert_eq!(report.transport.unknown_dest, 0);
}

/// A stopped node must not resurrect on a duplicate restart, a
/// duplicate stop is harmless, and ids outside the universe — one stray
/// or a flood of them — are dropped and counted, never a panic: the
/// chaos control plane is idempotent and total over client input.
#[test]
fn chaos_control_plane_is_idempotent() {
    let mut cfg = ServiceConfig::new(32, 7);
    cfg.interval_ms = 20;
    let svc = start(&cfg, ChannelMesh::new(1, 32), healthy_factory());
    svc.stop(5);
    svc.stop(5); // double-stop: no panic, still stopped
    svc.restart(5, value_of(5));
    svc.restart(5, 1e9); // double-restart: ignored, value unchanged
    svc.stop(32); // first id past the universe
    svc.restart(u32::MAX, 1e9);
    let flood: Vec<(u32, f64)> = (0..10_000u32).map(|k| (32 + k * 429_000, 1e9)).collect();
    svc.set_values(&flood);
    svc.set_values(&[(7, value_of(7)), (1 << 20, 1e9)]); // a known id among strangers still lands
    std::thread::sleep(Duration::from_millis(100));
    let snaps = svc.snapshot();
    assert_eq!(snaps.len(), 32, "node 5 is back exactly once, nobody else appeared");
    for s in &snaps {
        if let Some(est) = s.estimate {
            assert!(est < 1e6, "node {}: a dropped or duplicate command's value leaked", s.id);
        }
    }
    let report = svc.shutdown();
    assert_eq!(report.decode_errors, 0);
    assert_eq!(report.unknown_ids, 2 + 10_000 + 1, "every stray id is accounted");
    assert_eq!((report.commands_undelivered, report.workers_lost), (0, 0));
}

/// A stop→restart flood leaves one round timer per node, not one per
/// cycle: a stopped node's pending timer must die when it pops even if
/// the node is running again by then. Every cycle lands inside the first
/// few intervals; were each to leak a timer that re-arms forever, every
/// node would poll `CYCLES + 1` times per interval from then on.
#[test]
fn a_restart_flood_leaves_one_timer_per_node() {
    const NODES: u32 = 16;
    const CYCLES: usize = 40;
    let mut cfg = ServiceConfig::new(NODES as usize, 17);
    cfg.interval_ms = 50;
    cfg.jitter = 0.0; // every interval is exactly 50 ms: a clean bound
    let booted = Instant::now();
    let svc = start(&cfg, ChannelMesh::new(1, NODES as usize), healthy_factory());
    for _ in 0..CYCLES {
        for id in 0..NODES {
            svc.stop(id);
            svc.restart(id, value_of(id));
        }
    }
    std::thread::sleep(Duration::from_millis(6 * cfg.interval_ms));
    assert_eq!(svc.snapshot().len(), NODES as usize, "every node came back");
    let report = svc.shutdown();
    // A node fires at most once per elapsed interval, plus its first
    // (phase-offset) round; restarts only push a node's next round out.
    let intervals = booted.elapsed().as_millis() as u64 / cfg.interval_ms + 1;
    assert!(report.polls > 0, "restarted nodes keep gossiping");
    assert!(
        report.polls <= u64::from(NODES) * intervals,
        "{} polls from {NODES} nodes in {intervals} intervals: stale timers re-armed",
        report.polls
    );
}

/// A worker that dies is reported, not omitted: its factory panics on a
/// restart, and from then on the handle keeps serving the survivors —
/// snapshots shrink to the live workers, commands toward the dead one
/// are counted, and `shutdown` returns with the loss on the books.
#[test]
fn a_lost_worker_is_reported_and_the_survivors_keep_serving() {
    let n = 32u32;
    let mut cfg = ServiceConfig::new(n as usize, 11);
    cfg.workers = 2;
    cfg.interval_ms = 20;
    // The injected fault: a NaN restart value blows up the factory on the
    // owning worker's thread.
    let faulty: SharedFactory<PushSumRevert> = Arc::new(|id, v: f64| {
        assert!(!v.is_nan(), "injected fault: node {id} restarted on garbage");
        PushSumRevert::new(v, LAMBDA)
    });
    let svc = start(&cfg, ChannelMesh::new(cfg.workers, n as usize), faulty);
    assert_eq!(svc.snapshot().len(), n as usize);
    svc.stop(20); // worker 1 owns 16..32
    svc.restart(20, f64::NAN);
    // The snapshot ends once worker 1's command queue is gone, so from
    // the first short one on its channel is closed for good.
    let deadline = Instant::now() + Duration::from_secs(10);
    while svc.snapshot().len() > 16 {
        assert!(Instant::now() < deadline, "worker 1 never went down");
        std::thread::sleep(Duration::from_millis(5));
    }
    svc.set_value(21, 1.0);
    svc.stop(22);
    svc.restart(20, value_of(20));
    svc.set_value(3, value_of(3)); // worker 0 still takes commands
    let survivors = svc.snapshot();
    assert_eq!(survivors.len(), 16, "worker 0's nodes keep reporting");
    assert!(survivors.iter().all(|s| s.id < 16));
    let report = svc.shutdown();
    assert_eq!(report.workers_lost, 1, "the panicked worker is on the books");
    assert!(
        report.commands_undelivered >= 4,
        "three client commands and a snapshot went to a dead worker: {}",
        report.commands_undelivered
    );
    assert!(report.polls > 0, "the survivor's counters made it into the report");
    assert_eq!((report.decode_errors, report.unknown_ids), (0, 0));
}

/// Socket bytes are client input too: a well-formed datagram that lands
/// on the wrong worker's socket (addressed to a node another worker
/// owns, below this worker's range) is a dark frame, not a dead worker.
#[test]
fn a_misrouted_datagram_is_a_dark_frame_not_a_lost_worker() {
    let mut cfg = ServiceConfig::new(32, 13);
    cfg.workers = 2;
    cfg.interval_ms = 20;
    let mesh = UdpMesh::new(cfg.workers, 32).expect("bind loopback sockets");
    let worker1 = mesh[1].local_addr().expect("bound socket has an address");
    let svc = start(&cfg, mesh, healthy_factory());
    let mut datagram = Vec::new();
    let stray = Envelope { from: 20, to: 3, payload: vec![0; 5], raw_bytes: 0 };
    encode_datagram(&stray, &mut datagram);
    let gun = std::net::UdpSocket::bind("127.0.0.1:0").expect("bind sender socket");
    gun.send_to(&datagram, worker1).expect("loopback send");
    // Loopback delivery completes inside `send_to`; give the worker a few
    // rounds anyway so the frame meets the live loop, not only the
    // shutdown drain.
    std::thread::sleep(Duration::from_millis(60));
    assert_eq!(svc.snapshot().len(), 32, "both workers still answer");
    let report = svc.shutdown();
    assert_eq!(report.workers_lost, 0);
    assert!(report.dark_frames >= 1, "the stray frame was counted: {report:?}");
}
