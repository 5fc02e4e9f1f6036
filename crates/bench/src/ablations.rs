//! Ablation studies for the design choices the paper describes.
//!
//! Unlike the figure reproductions these are not paper artifacts; they
//! quantify the individual optimizations the paper *describes* so the
//! trade-offs are visible in numbers: exchange style, reversion style,
//! parcel count, estimate window, cutoff scale, bandwidth, epoch length.

use crate::opts::ExpOpts;
use crate::output::Table;
use dynagg_core::mass::MASS_WIRE_BYTES;
use dynagg_scenario::{
    converged_wire_bytes, wire_cost, Engine, EnvSpec, Probe, ProtocolSpec, ScenarioSpec, ValueSpec,
};
use dynagg_sim::{par, FailureMode, FailureSpec, Series, Truth};
use dynagg_sketch::cutoff::Cutoff;

fn pop(opts: &ExpOpts) -> usize {
    // Ablations sweep many configurations; cap the population so `all`
    // stays affordable while the comparisons keep their shape.
    opts.population().min(10_000)
}

/// The common ablation shape: uniform gossip, paper values, mean truth.
/// Each ablation takes this spec and varies one thing — the same registry
/// path `experiments run` uses.
fn ablation_spec(
    opts: &ExpOpts,
    name: &str,
    n: usize,
    rounds: u64,
    protocol: ProtocolSpec,
) -> ScenarioSpec {
    let mut s = ScenarioSpec::new(name, opts.seed, EnvSpec::Uniform, protocol);
    s.n = Some(n);
    s.rounds = Some(rounds);
    s.truth = Truth::Mean;
    s
}

/// The correlated failure every reversion ablation heals from.
const CORRELATED_HALF_AT_20: FailureSpec =
    FailureSpec::AtRound { round: 20, mode: FailureMode::TopValue, fraction: 0.5, graceful: false };

fn run_spec(spec: &ScenarioSpec) -> Series {
    dynagg_scenario::run_series(spec).expect("ablation spec is valid")
}

/// Ablation 1 — push vs push/pull exchange (Karp et al.: push/pull roughly
/// halves initial convergence).
pub fn push_vs_pushpull(opts: &ExpOpts) -> Table {
    let n = pop(opts);
    let static_push_sum = ProtocolSpec::PushSumRevert { lambda: 0.0 };
    let push = run_spec(&ablation_spec(opts, "ablation-push", n, 50, static_push_sum));
    let mut pairwise_spec = ablation_spec(opts, "ablation-pushpull", n, 50, static_push_sum);
    pairwise_spec.engine = Engine::Pairwise;
    let pairwise = run_spec(&pairwise_spec);
    let mut t = Table::new(
        "ablation_push_vs_pushpull",
        format!("Ablation — exchange style, static Push-Sum, {n} hosts"),
        &["style(0=push,1=pushpull)", "rounds_to_stddev_1", "rounds_to_stddev_0.1"],
    );
    for (style, s) in [(0.0, &push), (1.0, &pairwise)] {
        t.push_row(vec![
            style,
            s.converged_at(1.0).unwrap_or(50) as f64,
            s.converged_at(0.1).unwrap_or(50) as f64,
        ]);
    }
    t.note("expected: push/pull converges in roughly half the rounds (Karp et al.)".to_string());
    t
}

/// Ablation 2 — fixed λ vs adaptive λ/2-per-message reversion after a
/// correlated failure.
pub fn adaptive_vs_fixed(opts: &ExpOpts) -> Table {
    let n = pop(opts);
    let lambda = 0.1;
    let mut fixed_spec =
        ablation_spec(opts, "ablation-fixed", n, 70, ProtocolSpec::PushSumRevert { lambda });
    fixed_spec.failure = CORRELATED_HALF_AT_20;
    let fixed = run_spec(&fixed_spec);
    let mut adaptive_spec =
        ablation_spec(opts, "ablation-adaptive", n, 70, ProtocolSpec::AdaptiveRevert { lambda });
    adaptive_spec.failure = CORRELATED_HALF_AT_20;
    let adaptive = run_spec(&adaptive_spec);
    let reading = |s: &Series| {
        let steady = s.steady_state_stddev(60);
        let tol = (steady * 1.25).max(steady + 0.1);
        let conv = s
            .rounds
            .iter()
            .filter(|r| r.round >= 20)
            .find(|r| r.stddev <= tol)
            .map(|r| r.round - 20)
            .unwrap_or(50);
        (conv as f64, steady)
    };
    let mut t = Table::new(
        "ablation_adaptive_lambda",
        format!("Ablation — fixed vs adaptive reversion (l=0.1, {n} hosts, correlated failure)"),
        &["variant(0=fixed,1=adaptive)", "rounds_to_reconverge", "steady_stddev"],
    );
    let (cf, sf) = reading(&fixed);
    let (ca, sa) = reading(&adaptive);
    t.push_row(vec![0.0, cf, sf]);
    t.push_row(vec![1.0, ca, sa]);
    t.note("paper claim (§III-A): adaptive reversion roughly halves reconvergence time under uniform values".to_string());
    t
}

/// Ablation 3 — Full-Transfer parcel count N.
pub fn parcels_sweep(opts: &ExpOpts) -> Table {
    let n = pop(opts);
    let mut t = Table::new(
        "ablation_parcels",
        format!(
            "Ablation — Full-Transfer parcel count (l=0.1, T=3, {n} hosts, correlated failure)"
        ),
        &["parcels", "steady_stddev", "messages_per_round_per_host"],
    );
    let parcel_counts = [1u32, 2, 4, 8];
    let lines = par::par_map(&parcel_counts, |_, &parcels| {
        let mut spec = ablation_spec(
            opts,
            "ablation-parcels",
            n,
            70,
            ProtocolSpec::FullTransfer { lambda: 0.1, parcels, window: 3 },
        );
        spec.failure = CORRELATED_HALF_AT_20;
        run_spec(&spec)
    });
    for (parcels, series) in parcel_counts.into_iter().zip(&lines) {
        let msgs = series.rounds[5].messages as f64 / series.rounds[5].alive as f64;
        t.push_row(vec![f64::from(parcels), series.steady_state_stddev(55), msgs]);
    }
    t.note(
        "more parcels reduce the no-mass-received variance at linear bandwidth cost".to_string(),
    );
    t
}

/// Ablation 4 — Full-Transfer estimate window T.
pub fn window_sweep(opts: &ExpOpts) -> Table {
    let n = pop(opts);
    let mut t = Table::new(
        "ablation_window",
        format!("Ablation — Full-Transfer window (l=0.1, N=4, {n} hosts, correlated failure)"),
        &["window", "steady_stddev", "rounds_to_reconverge"],
    );
    let windows = [1usize, 3, 5, 10];
    let lines = par::par_map(&windows, |_, &window| {
        let mut spec = ablation_spec(
            opts,
            "ablation-window",
            n,
            70,
            ProtocolSpec::FullTransfer { lambda: 0.1, parcels: 4, window },
        );
        spec.failure = CORRELATED_HALF_AT_20;
        run_spec(&spec)
    });
    for (window, series) in windows.into_iter().zip(&lines) {
        let steady = series.steady_state_stddev(60);
        let tol = (steady * 1.25).max(steady + 0.1);
        let conv = series
            .rounds
            .iter()
            .filter(|r| r.round >= 20)
            .find(|r| r.stddev <= tol)
            .map(|r| r.round - 20)
            .unwrap_or(50);
        t.push_row(vec![window as f64, steady, conv as f64]);
    }
    t.note("longer windows lower variance but slow reaction (the paper picks T=3)".to_string());
    t
}

/// Ablation 5 — cutoff scale: healing speed vs premature bit expiry.
pub fn cutoff_sweep(opts: &ExpOpts) -> Table {
    let n = pop(opts);
    let mut t = Table::new(
        "ablation_cutoff",
        format!("Ablation — Count-Sketch-Reset cutoff scale ({n} hosts, half fail at 20)"),
        &["scale(0=infinite)", "prefail_stddev", "postfail_steady_stddev", "rounds_to_heal"],
    );
    let mut variants: Vec<(f64, Cutoff)> = vec![(0.0, Cutoff::Infinite)];
    for scale in [0.5, 1.0, 2.0, 4.0] {
        variants.push((scale, Cutoff::paper_uniform().scaled(scale)));
    }
    let lines = par::par_map(&variants, |_, &(_, cutoff)| {
        let mut spec = ablation_spec(
            opts,
            "ablation-cutoff",
            n,
            55,
            ProtocolSpec::CountSketchReset {
                cutoff,
                push_pull: true,
                multiplier: 1,
                hash_seed_xor: 0xCC,
            },
        );
        spec.values = ValueSpec::Constant(1.0);
        spec.truth = Truth::Count;
        spec.failure = FailureSpec::paper_half_at_20(FailureMode::Random);
        run_spec(&spec)
    });
    for ((scale, _), series) in variants.into_iter().zip(&lines) {
        let prefail = series.rounds[15..20].iter().map(|s| s.stddev).sum::<f64>() / 5.0;
        let steady = series.steady_state_stddev(45);
        let heal = series
            .rounds
            .iter()
            .filter(|s| s.round > 20)
            .find(|s| (s.mean_estimate - s.truth).abs() / s.truth < 0.4)
            .map(|s| (s.round - 20) as f64)
            .unwrap_or(35.0);
        t.push_row(vec![scale, prefail, steady, heal]);
    }
    t.note("scale<1 expires live bits (pre-failure error grows); scale>1 heals slower; infinite never heals".to_string());
    t.note("the paper observes the benefit of raising the cutoff 'drops steeply after a certain point'".to_string());
    t
}

/// Ablation 6 — bandwidth per protocol (the Invert-Average §IV-B cost
/// argument), read through [`dynagg_scenario::wire_cost`]: each variant is
/// expressed as the `ProtocolSpec` a scenario file would name, and the
/// registry prices its message — no direct core-type construction.
pub fn bandwidth(opts: &ExpOpts) -> Table {
    let n = pop(opts).min(2_000);
    let sum_range = 100_000u64; // per-host values up to 100k
    let mut t = Table::new(
        "ablation_bandwidth",
        format!("Ablation — bytes/round/host for sum estimation ({n} hosts)"),
        &[
            "protocol(0=psr,1=csr_sum,2=sketch_sum,3=invert_avg)",
            "bytes_per_round_per_host",
            "encoded_bytes",
            "encoded_bytes_converged",
            "bytes_for_10_sums",
        ],
    );
    // Each protocol's message priced fresh (raw + encoded) and converged.
    let price = |p: &ProtocolSpec| {
        (wire_cost(p, n, opts.seed), converged_wire_bytes(p, n, opts.seed) as f64)
    };

    // 0: Push-Sum-Revert alone (the marginal cost of each extra sum).
    let (psr, psr_converged) = price(&ProtocolSpec::PushSumRevert { lambda: 0.1 });
    let psr_bytes = psr.raw_bytes as f64;
    t.push_row(vec![0.0, psr_bytes, psr.encoded_bytes as f64, psr_converged, 10.0 * psr_bytes]);

    // 1: Count-Sketch-Reset summation load (multi-insertion of the value
    // range: the counter matrix is sized for the total sum range).
    let (csr, csr_converged) = price(&ProtocolSpec::CountSketchReset {
        cutoff: Cutoff::paper_uniform(),
        push_pull: true,
        multiplier: sum_range,
        hash_seed_xor: 0,
    });
    t.push_row(vec![
        1.0,
        csr.raw_bytes as f64,
        csr.encoded_bytes as f64,
        csr_converged,
        10.0 * csr.raw_bytes as f64,
    ]);

    // 2: static multi-insertion sketch summation.
    let (cs, cs_converged) =
        price(&ProtocolSpec::CountSketch { multiplier: sum_range, hash_seed_xor: 0 });
    t.push_row(vec![
        2.0,
        cs.raw_bytes as f64,
        cs.encoded_bytes as f64,
        cs_converged,
        10.0 * cs.raw_bytes as f64,
    ]);

    // 3: Invert-Average: one counting matrix (sized for n hosts, not the
    // sum range) amortized over all sums + 16 bytes per sum.
    let (ia, ia_converged) = price(&ProtocolSpec::InvertAverage { lambda: 0.1, hash_seed_xor: 0 });
    let ia_matrix = (ia.raw_bytes - MASS_WIRE_BYTES) as f64;
    t.push_row(vec![
        3.0,
        ia.raw_bytes as f64,
        ia.encoded_bytes as f64,
        ia_converged,
        ia_matrix + 10.0 * psr_bytes,
    ]);

    t.note("invert-average amortizes the counting matrix across sums; each extra sum costs 16 bytes vs a full matrix".to_string());
    t.note("encoded_bytes = the wire codec (sketch::codec) on a freshly initialised host's message - what the lockstep wire_bytes column is priced at; encoded_bytes_converged = the same message once every host's identifiers have spread (all claimed and released); raw bytes keep the paper-comparable accounting".to_string());
    t
}

/// Ablation 7 — epoch length under churn (§II-C's critique).
pub fn epoch_sweep(opts: &ExpOpts) -> Table {
    let n = pop(opts);
    let mut t = Table::new(
        "ablation_epoch",
        format!("Ablation — epoch-reset baseline vs reversion under churn ({n} hosts)"),
        &["epoch_len(0=push_sum_revert)", "mean_stddev_rounds_30plus"],
    );
    let churn = FailureSpec::Churn { start: 10, leave_per_round: 0.01, join_per_round: 0.01 };
    let epoch_lens = [5u64, 15, 40, 100];
    let lines = par::par_map(&epoch_lens, |_, &epoch_len| {
        let mut spec = ablation_spec(
            opts,
            "ablation-epoch",
            n,
            120,
            ProtocolSpec::EpochPushSum { epoch_len, settle_len: None, clique_drift: None },
        );
        spec.failure = churn;
        run_spec(&spec)
    });
    for (epoch_len, series) in epoch_lens.into_iter().zip(&lines) {
        t.push_row(vec![epoch_len as f64, series.steady_state_stddev(30)]);
    }
    let mut revert_spec = ablation_spec(
        opts,
        "ablation-epoch-revert",
        n,
        120,
        ProtocolSpec::PushSumRevert { lambda: 0.01 },
    );
    revert_spec.failure = churn;
    let revert = run_spec(&revert_spec);
    t.push_row(vec![0.0, revert.steady_state_stddev(30)]);
    t.note("too-short epochs never converge; too-long epochs serve stale values; reversion needs no length tuning".to_string());
    t
}

/// Ablation 8 — message loss (extension): unbiased frame loss leaks mass
/// but not accuracy from static Push-Sum at short horizons; reversion
/// bounds the weight decay (long-horizon numerical stability) at the cost
/// of an elevated λ floor.
///
/// The total-weight reading comes through the registry's `mass-weight`
/// probe (`output.probe` in a scenario file) — the node-state hook that
/// closed the last bypass of the declarative path.
pub fn loss_sweep(opts: &ExpOpts) -> Table {
    let n = pop(opts).min(5_000);
    let mut t = Table::new(
        "ablation_loss",
        format!("Ablation — message loss, push gossip, {n} hosts, 80 rounds"),
        &[
            "loss",
            "static_stddev",
            "static_total_weight",
            "revert_stddev(l=0.05)",
            "revert_total_weight",
        ],
    );
    let losses = [0.0, 0.05, 0.1, 0.2];
    let rows = par::par_map(&losses, |_, &loss| {
        let run = |lambda: f64| {
            let mut spec =
                ablation_spec(opts, "ablation-loss", n, 80, ProtocolSpec::PushSumRevert { lambda });
            spec.loss = loss;
            spec.output.probe = Some(Probe::MassWeight);
            let outcome = dynagg_scenario::run(&spec).expect("ablation spec is valid");
            let trial = &outcome.instances[0].trials[0];
            let w = trial.probe.expect("mass-weight probe requested");
            (trial.series.steady_state_stddev(60), w)
        };
        let (s_err, s_w) = run(0.0);
        let (r_err, r_w) = run(0.05);
        vec![loss, s_err, s_w, r_err, r_w]
    });
    for row in rows {
        t.push_row(row);
    }
    t.note(
        "static weight decays ~(1 − loss/2)^t toward numerical collapse; reversion re-injects it"
            .to_string(),
    );
    t.note("loss is value-proportional in expectation, so the static *ratio* stays unbiased short-term".to_string());
    t
}

/// All ablations.
pub fn run_all(opts: &ExpOpts) -> Vec<Table> {
    vec![
        push_vs_pushpull(opts),
        adaptive_vs_fixed(opts),
        parcels_sweep(opts),
        window_sweep(opts),
        cutoff_sweep(opts),
        bandwidth(opts),
        epoch_sweep(opts),
        loss_sweep(opts),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> ExpOpts {
        ExpOpts { quick: true, seed: 11, ..ExpOpts::default() }
    }

    /// Field count of one CSV line, honouring RFC 4180 quoting.
    fn csv_fields(line: &str) -> usize {
        let mut quoted = false;
        let separators = line.chars().filter(|&c| {
            quoted ^= c == '"';
            c == ',' && !quoted
        });
        1 + separators.count()
    }

    #[test]
    fn every_ablation_csv_header_is_as_wide_as_its_rows() {
        for t in run_all(&quick()) {
            let csv = t.to_csv();
            let mut lines = csv.lines();
            let header = csv_fields(lines.next().expect("header line"));
            assert_eq!(header, t.columns.len(), "{}: header splits into the wrong fields", t.id);
            assert!(lines.all(|l| csv_fields(l) == header), "{}: row width != header width", t.id);
        }
    }

    #[test]
    fn pushpull_converges_faster() {
        let t = push_vs_pushpull(&quick());
        let push_rounds = t.rows[0][1];
        let pair_rounds = t.rows[1][1];
        assert!(
            pair_rounds < push_rounds,
            "push/pull {pair_rounds} should beat push {push_rounds}"
        );
    }

    #[test]
    fn bandwidth_ordering_matches_paper_argument() {
        let t = bandwidth(&quick());
        let psr = t.rows[0][1];
        let csr_sum = t.rows[1][1];
        let invert_10 = t.rows[3][4];
        let csr_10 = t.rows[1][4];
        assert!(psr < csr_sum / 10.0, "mass messages are orders cheaper than matrices");
        assert!(
            invert_10 < csr_10,
            "10 sums via invert-average ({invert_10}) must undercut 10 summation matrices ({csr_10})"
        );
        for row in &t.rows {
            assert!(row[2] <= row[3], "a host only ever learns of more cells");
        }
        for matrix_row in [&t.rows[1], &t.rows[3]] {
            assert!(matrix_row[3] < matrix_row[1], "steady-state frames undercut the raw grid");
        }
        assert!(t.rows[3][3] > 10.0 * t.rows[3][2], "the boot frame is not the steady state");
    }

    #[test]
    fn cutoff_sweep_shows_tradeoff() {
        let t = cutoff_sweep(&quick());
        // infinite row: never heals (heal = cap).
        let infinite = &t.rows[0];
        assert_eq!(infinite[0], 0.0);
        assert!(infinite[3] >= 34.0, "infinite cutoff must not heal");
        // paper-scale row heals.
        let paper = t.rows.iter().find(|r| r[0] == 1.0).unwrap();
        assert!(paper[3] < 20.0, "paper cutoff should heal in ~10 rounds, got {}", paper[3]);
    }

    #[test]
    fn loss_sweep_shows_weight_leak_and_repair() {
        let t = loss_sweep(&quick());
        // loss = 0 row: both variants keep full weight.
        let no_loss = &t.rows[0];
        assert!(no_loss[2] > no_loss[4] * 0.5 && no_loss[2] > 100.0);
        // highest-loss row: static weight collapses, reverted stays.
        let worst = t.rows.last().unwrap();
        assert!(
            worst[2] < worst[4] / 10.0,
            "static weight {} should be far below reverted {}",
            worst[2],
            worst[4]
        );
    }
}
