//! The "swap only the transport" claim, pinned: the same seed, the same
//! sans-io runtimes, driven once by the sequential discrete-event engine
//! ([`AsyncNet`]) and once by the live service loop over a real
//! [`Transport`] — and the estimates agree.
//!
//! Two strengths of the claim:
//!
//! * **Exact** — [`VirtualService`] over a zero-latency in-process
//!   channel, clock injected. With zero jitter, zero latency, and zero
//!   loss the discrete-event engine's schedule is "all timers due at an
//!   instant fire in id order, then frames deliver in send order", which
//!   is precisely the virtual driver's loop — so every node's estimate
//!   is **bit-identical** at every checkpoint. f64 addition does not
//!   commute, so this only holds because the orderings match exactly:
//!   the test would catch a single swapped delivery.
//! * **Statistical** — [`LiveService`] on real wall-clock threads. Timer
//!   phase now depends on scheduler timing, so trajectories diverge in
//!   the low bits, but the protocol's fixed point does not: after the
//!   same simulated/elapsed time, live and simulated mean estimates
//!   agree with the true mean within tolerance.

use dynagg_core::push_sum_revert::PushSumRevert;
use dynagg_node::loopback::{AsyncConfig, AsyncNet};
use dynagg_node::service::{LiveService, ServiceConfig, VirtualService};
use dynagg_node::transport::ChannelMesh;
use dynagg_node::LatencyModel;
use rand::Rng;
use std::sync::Arc;
use std::time::{Duration, Instant};

const LAMBDA: f64 = 0.1;

/// Zero-latency, zero-jitter, zero-loss: the regime where the live
/// schedule and the discrete-event schedule are the same schedule.
fn exact_cfg(seed: u64, view: usize) -> AsyncConfig {
    let mut cfg = AsyncConfig::new(seed);
    cfg.interval_ms = 100;
    cfg.jitter = 0.0;
    cfg.latency = LatencyModel::Constant { ms: 0 };
    cfg.loss = 0.0;
    cfg.view_size = view;
    cfg
}

fn sim(cfg: &AsyncConfig, n: usize) -> AsyncNet<PushSumRevert> {
    AsyncNet::new(
        n,
        *cfg,
        Box::new(|rng, _| rng.gen_range(0.0..100.0)),
        Box::new(|_| dynagg_core::epoch::DriftModel::Synced),
        Box::new(|_, v| PushSumRevert::new(v, LAMBDA)),
    )
}

fn live(cfg: &AsyncConfig, n: usize) -> VirtualService<PushSumRevert, impl dynagg_node::Transport> {
    let transport = ChannelMesh::new(1, n).remove(0);
    VirtualService::new(
        cfg,
        n,
        Box::new(|rng, _| rng.gen_range(0.0..100.0)),
        Box::new(|_| dynagg_core::epoch::DriftModel::Synced),
        Box::new(|_, v| PushSumRevert::new(v, LAMBDA)),
        transport,
    )
}

/// Every live node's estimate, bit for bit, or the first divergence.
fn assert_bit_identical(
    net: &AsyncNet<PushSumRevert>,
    svc: &VirtualService<PushSumRevert, impl dynagg_node::Transport>,
    at: &str,
) {
    let (sim_est, live_est) = (net.estimates(), svc.estimates());
    assert_eq!(sim_est.len(), live_est.len(), "same population {at}");
    for (live_id, (s, l)) in net.live().iter().zip(sim_est.iter().zip(&live_est)) {
        assert_eq!(s.to_bits(), l.to_bits(), "node {live_id} diverged {at}: sim {s} vs live {l}");
    }
}

/// Driven by the deterministic clock, the transport swap changes
/// nothing: every node's estimate is bit-identical at every checkpoint —
/// including after a mid-run kill of the same nodes on both sides, where
/// survivors keep addressing the dead (the engine drops those frames at
/// delivery, the transport at send) and must still agree to the bit.
#[test]
fn virtual_clock_matches_asyncnet_exactly() {
    let n = 48;
    let cfg = exact_cfg(0xE0_01, 8);
    let mut net = sim(&cfg, n);
    let mut svc = live(&cfg, n);
    for checkpoint in [150, 400, 1000, 2500, 5000] {
        net.run_until(checkpoint);
        svc.run_until(checkpoint);
        assert_bit_identical(&net, &svc, &format!("at t={checkpoint}"));
        if checkpoint == 1000 {
            for id in (0..n as u32).filter(|id| id % 6 == 1) {
                net.power_off(id);
                svc.stop(id);
            }
            assert_eq!(svc.estimates().len(), n - n / 6, "the victims left both populations");
            assert_bit_identical(&net, &svc, "right after the kill");
        }
    }
    assert_eq!(svc.decode_errors, 0);
}

/// The exact match holds across seeds and population sizes (the
/// schedule argument is structural, not a lucky seed).
#[test]
fn exact_equivalence_across_seeds() {
    for (seed, n, view) in [(1u64, 16, 4), (0xBEEF, 33, 6), (7, 80, 12)] {
        let cfg = exact_cfg(seed, view);
        let mut net = sim(&cfg, n);
        let mut svc = live(&cfg, n);
        net.run_until(1200);
        svc.run_until(1200);
        assert_bit_identical(&net, &svc, &format!("for seed {seed}, n {n}"));
    }
}

/// On real threads and a real wall clock the trajectories can differ in
/// the low bits, but after the same elapsed protocol time both agree
/// with the true mean (and hence each other) within tolerance.
#[test]
fn wall_clock_matches_asyncnet_within_tolerance() {
    let n = 64;
    let seed = 0xE0_02;
    let rounds = 15u64;
    let interval = 50u64;

    // Simulated leg: default jitter, zero-cost links.
    let mut cfg = AsyncConfig::new(seed);
    cfg.interval_ms = interval;
    cfg.latency = LatencyModel::Constant { ms: 0 };
    cfg.view_size = 16;
    let mut net = sim(&cfg, n);
    net.run_until(rounds * interval);
    let sim_est = net.estimates();
    let sim_mean = sim_est.iter().sum::<f64>() / sim_est.len() as f64;

    // Live leg: same population (same seed, same streams), real threads.
    let mut scfg = ServiceConfig::new(n, seed);
    scfg.interval_ms = interval;
    scfg.view_size = 16;
    let service = LiveService::start(
        &scfg,
        ChannelMesh::new(1, n),
        Box::new(|rng, _| rng.gen_range(0.0..100.0)),
        Box::new(|_| dynagg_core::epoch::DriftModel::Synced),
        Arc::new(|_, v| PushSumRevert::new(v, LAMBDA)),
        Arc::new(|p: &mut PushSumRevert, v| p.set_value(v)),
    );
    let deadline = Instant::now() + Duration::from_millis(rounds * interval);
    while Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    let live_est = service.estimates();
    let report = service.shutdown();
    assert_eq!(report.decode_errors, 0, "clean wire");
    assert_eq!(live_est.len(), n, "every node reports");

    // Both populations drew identical values, so both estimate the same
    // truth; after ~15 rounds each mean is near it, hence near the other.
    let live_mean = live_est.iter().sum::<f64>() / live_est.len() as f64;
    let rel = (live_mean - sim_mean).abs() / sim_mean.abs();
    assert!(rel < 0.05, "live mean {live_mean} vs sim mean {sim_mean}: {:.2}% apart", rel * 100.0);
}

/// The two drivers also agree on the *population itself*: the service's
/// own booted runtimes carry the same configs (interval, phase, per-node
/// seed), first ticks and initial values as the engine's — both boot
/// through the one coordinator spawn path. Read off the service before
/// its clock moves: a node polls for the first time exactly at its first
/// tick, so the number of frames sent by `t` counts the nodes whose first
/// tick is `<= t`, and a push-sum node's estimate before any exchange is
/// its initial value.
#[test]
fn populations_are_identical() {
    let cfg = exact_cfg(42, 8);
    let n = 24;
    let net = sim(&cfg, n);
    let mut svc = live(&cfg, n);
    let (sim_est, live_est) = (net.estimates(), svc.estimates());
    assert_eq!(live_est.len(), n);
    for (id, (s, l)) in sim_est.iter().zip(&live_est).enumerate() {
        assert_eq!(s.to_bits(), l.to_bits(), "node {id} initial value diverged");
    }
    for t in 0..cfg.interval_ms {
        svc.run_until(t);
        let first_ticks_due =
            (0..n as u32).filter(|&id| net.node(id).next_tick_ms() <= t).count() as u64;
        // One initiation per first round (replies travel too, so count
        // timer firings, not frames).
        assert_eq!(
            svc.events_processed() - svc.frames_delivered(),
            first_ticks_due,
            "a node's first tick diverged at t={t}"
        );
    }
}
