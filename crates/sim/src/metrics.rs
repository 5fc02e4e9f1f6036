//! Error metrics: "Errors are presented in aggregate as the standard
//! deviation from the correct value" (§V).
//!
//! The *correct value* depends on the experiment: the live-population mean
//! (Figs. 8/10), the live count or sum (Fig. 9), or — in trace runs — each
//! host's **group** aggregate ("a host's error is reported relative to the
//! aggregate of its group", Fig. 11).

use dynagg_core::protocol::Estimator;
use dynagg_trace::GroupView;
use serde::{Deserialize, Serialize};

/// What each host's estimate is compared against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Truth {
    /// The mean value over live hosts (Figs. 8, 10).
    Mean,
    /// The number of live hosts (Fig. 9 and Fig. 6's convergence runs).
    Count,
    /// The sum of live hosts' values.
    Sum,
    /// Each host's 10-minute-window group mean (Fig. 11 left column).
    GroupMean,
    /// Each host's group size (Fig. 11 right column).
    GroupSize,
}

impl std::str::FromStr for Truth {
    type Err = String;

    /// Parse the kebab-case names scenario files use.
    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "mean" => Ok(Truth::Mean),
            "count" => Ok(Truth::Count),
            "sum" => Ok(Truth::Sum),
            "group-mean" => Ok(Truth::GroupMean),
            "group-size" => Ok(Truth::GroupSize),
            other => Err(format!(
                "unknown truth `{other}` (expected mean|count|sum|group-mean|group-size)"
            )),
        }
    }
}

impl Truth {
    /// Does this truth need per-group structure from the environment?
    pub fn needs_groups(self) -> bool {
        matches!(self, Truth::GroupMean | Truth::GroupSize)
    }

    /// For global truths, the single scalar every live host is compared
    /// against — computed in one streaming pass. `None` for group truths
    /// (those differ per host; use [`Truth::per_host_into`]).
    pub fn global_scalar(self, values: &[Option<f64>]) -> Option<f64> {
        if self.needs_groups() {
            return None;
        }
        let mut sum = 0.0;
        let mut live = 0usize;
        for v in values.iter().flatten() {
            sum += v;
            live += 1;
        }
        Some(match self {
            Truth::Mean => {
                if live == 0 {
                    0.0
                } else {
                    sum / live as f64
                }
            }
            Truth::Count => live as f64,
            Truth::Sum => sum,
            Truth::GroupMean | Truth::GroupSize => unreachable!("handled above"),
        })
    }

    /// Per-host truth values given live values (`None` = dead host).
    ///
    /// Global truths return the same number for every host; group truths
    /// broadcast each group's aggregate to its members. `groups` must be
    /// `Some` for group truths.
    pub fn per_host(self, values: &[Option<f64>], groups: Option<&GroupView>) -> Vec<Option<f64>> {
        let mut out = Vec::new();
        self.per_host_into(values, groups, &mut out);
        out
    }

    /// [`Truth::per_host`] writing into a caller-provided buffer — the
    /// engine calls this every round, so no intermediate `Vec`s are
    /// allocated (the global truths are computed in one streaming pass).
    pub fn per_host_into(
        self,
        values: &[Option<f64>],
        groups: Option<&GroupView>,
        out: &mut Vec<Option<f64>>,
    ) {
        out.clear();
        match self {
            Truth::Mean | Truth::Count | Truth::Sum => {
                let t = self.global_scalar(values).expect("global truth");
                out.extend(values.iter().map(|v| v.map(|_| t)));
            }
            Truth::GroupMean | Truth::GroupSize => {
                let groups = groups.expect("group truth requires a group-aware environment");
                out.extend(values.iter().enumerate().map(|(i, v)| {
                    v.map(|_| {
                        let mut sum = 0.0;
                        let mut live = 0usize;
                        for &m in groups.members_of(i as u16) {
                            if let Some(mv) = values[usize::from(m)] {
                                sum += mv;
                                live += 1;
                            }
                        }
                        match self {
                            Truth::GroupSize => live as f64,
                            _ => {
                                if live == 0 {
                                    0.0
                                } else {
                                    sum / live as f64
                                }
                            }
                        }
                    })
                }));
            }
        }
    }
}

/// Per-round aggregate error statistics.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RoundStats {
    /// Gossip iteration (0-based).
    pub round: u64,
    /// Live hosts this round.
    pub alive: usize,
    /// Mean per-host truth (= the global truth for global modes).
    pub truth: f64,
    /// Mean estimate across hosts with a defined estimate.
    pub mean_estimate: f64,
    /// √(mean((estimate − truth)²)) — the paper's y-axis.
    pub stddev: f64,
    /// Mean |estimate − truth|.
    pub mean_abs_err: f64,
    /// Max |estimate − truth|.
    pub max_abs_err: f64,
    /// Hosts with a defined estimate.
    pub defined: usize,
    /// Messages sent this round.
    pub messages: u64,
    /// Payload bytes sent this round — the paper-comparable in-memory
    /// accounting ([`message_bytes`]'s convention), identical across
    /// engines.
    ///
    /// [`message_bytes`]: dynagg_core::protocol::PushProtocol::message_bytes
    pub bytes: u64,
    /// Wire bytes sent this round: frame header plus the `core::wire`
    /// codec's output (register planes for sketch matrices, whose size
    /// follows the finite cells a host has heard of). The asynchronous engine
    /// counts real frames; the lockstep engines leave this 0 and the
    /// scenario registry prices it per message (`registry::wire_cost`),
    /// since they never encode.
    pub wire_bytes: u64,
    /// Mean group size experienced by a live host (trace runs; 0 elsewhere).
    pub mean_group_size: f64,
    /// Hosts inside an epoch restart/settling window this round — their
    /// estimates are unusable (§II-C). Zero for protocols without an
    /// epoch lifecycle.
    pub settling: usize,
    /// Cumulative disruptive restarts summed over live hosts (a gauge:
    /// compare across rounds via [`Series::disruptions_between`]).
    pub disruptions: u64,
    /// Global mass audit: the deviation of the *globally aggregated* mass
    /// (`Σ value / Σ weight` over live hosts) from the truth. Under
    /// conservation of mass (§III) this sits at ~0 regardless of how far
    /// individual hosts are from convergence — so a persistent, growing
    /// deviation is direct evidence of mass forgery (an inflation
    /// adversary), and a step change marks mass destruction (loss, a
    /// partition cutting in-flight frames). The lockstep engines snapshot
    /// between rounds, so their audit is conservation-exact; the async
    /// engine samples mid-flight and its audit jitters by roughly one
    /// round's in-transit mass around zero. Zero for protocols that
    /// expose no mass.
    pub mass_audit: f64,
    /// Connectivity islands the chaos layer is enforcing this round (1
    /// when no partition is active).
    pub islands: u64,
}

/// Per-round lifecycle tallies (epoch settling windows and disruptive
/// restarts), folded into [`StatsAcc`] alongside the error statistics.
#[derive(Debug, Default, Clone, Copy)]
pub struct LifecycleAcc {
    /// Hosts currently settling.
    pub settling: usize,
    /// Sum of cumulative per-host disruption counters.
    pub disruptions: u64,
}

/// Streaming accumulator behind [`RoundStats`]. The engine feeds it
/// node-by-node — estimates via [`StatsAcc::add`], lifecycle state via
/// [`StatsAcc::note_lifecycle`] — so no per-host estimate buffers exist
/// on the hot path.
#[derive(Debug, Default)]
pub struct StatsAcc {
    n: usize,
    sum_est: f64,
    sum_truth: f64,
    sum_sq: f64,
    sum_abs: f64,
    max_abs: f64,
    lifecycle: LifecycleAcc,
}

impl StatsAcc {
    /// Record one host with a defined estimate and truth.
    #[inline]
    pub fn add(&mut self, estimate: f64, truth: f64) {
        self.n += 1;
        self.sum_est += estimate;
        self.sum_truth += truth;
        let d = estimate - truth;
        self.sum_sq += d * d;
        self.sum_abs += d.abs();
        self.max_abs = self.max_abs.max(d.abs());
    }

    /// Record one live host's lifecycle state (called for every live host,
    /// whether or not its estimate is defined — settling hosts have none).
    #[inline]
    pub fn note_lifecycle(&mut self, settling: bool, disruptions: u64) {
        self.lifecycle.settling += usize::from(settling);
        self.lifecycle.disruptions += disruptions;
    }

    /// Close the round. `bytes` is the raw payload accounting and
    /// `wire_bytes` the encoded frame accounting (0 when the engine does
    /// not encode; see [`RoundStats::wire_bytes`]).
    pub fn finish(
        self,
        round: u64,
        alive: usize,
        messages: u64,
        bytes: u64,
        wire_bytes: u64,
        mean_group_size: f64,
    ) -> RoundStats {
        let nf = self.n.max(1) as f64;
        RoundStats {
            round,
            alive,
            truth: self.sum_truth / nf,
            mean_estimate: self.sum_est / nf,
            stddev: (self.sum_sq / nf).sqrt(),
            mean_abs_err: self.sum_abs / nf,
            max_abs_err: self.max_abs,
            defined: self.n,
            messages,
            bytes,
            wire_bytes,
            mean_group_size,
            settling: self.lifecycle.settling,
            disruptions: self.lifecycle.disruptions,
            mass_audit: 0.0,
            islands: 1,
        }
    }
}

/// Sample one round of a population — the single pass behind every
/// engine's [`RoundStats`] (the lockstep engines call it between rounds,
/// the async coordinator at each wall-clock sample).
///
/// `values[id]` is `Some` exactly for the live hosts, and `node(id)` is
/// asked only for those, in **ascending id order** — so every
/// floating-point sum is fixed no matter where the caller keeps its
/// nodes. A live host's lifecycle state and mass are recorded whether or
/// not its estimate is defined; it enters the error statistics only when
/// it is. Global truths cost one scalar; group truths read `groups`
/// through `truth_buf`. Fills [`RoundStats::mass_audit`]; `islands` is
/// left at 1 for the caller's partition layer to overwrite.
pub fn sample_round<'a, E: Estimator + 'a>(
    round: u64,
    truth: Truth,
    values: &[Option<f64>],
    groups: Option<&GroupView>,
    truth_buf: &mut Vec<Option<f64>>,
    (messages, bytes, wire_bytes): (u64, u64, u64),
    node: impl Fn(usize) -> &'a E,
) -> RoundStats {
    let mut acc = StatsAcc::default();
    let (mut live, mut mass_value, mut mass_weight) = (0usize, 0.0f64, 0.0f64);
    let mut note = |id: usize, truth: f64| {
        let p = node(id);
        live += 1;
        acc.note_lifecycle(p.is_settling(), p.disruptions());
        if let Some(e) = p.estimate() {
            acc.add(e, truth);
        }
        if let Some(m) = p.audit_mass() {
            mass_value += m.value;
            mass_weight += m.weight;
        }
    };
    if let Some(t) = truth.global_scalar(values) {
        for (id, value) in values.iter().enumerate() {
            if value.is_some() {
                note(id, t);
            }
        }
    } else {
        truth.per_host_into(values, groups, truth_buf);
        for (id, truth) in truth_buf.iter().enumerate() {
            if let Some(t) = truth {
                note(id, *t);
            }
        }
    }
    let mean_group_size = groups.map_or(0.0, GroupView::mean_experienced_size);
    let mut stats = acc.finish(round, live, messages, bytes, wire_bytes, mean_group_size);
    if mass_weight > 0.0 {
        let mean = Truth::Mean.global_scalar(values).expect("the mean is a global truth");
        stats.mass_audit = mass_value / mass_weight - mean;
    }
    stats
}

/// A time series of round statistics with export helpers.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Series {
    /// One entry per simulated round.
    pub rounds: Vec<RoundStats>,
}

impl Series {
    /// Append one round.
    pub fn push(&mut self, s: RoundStats) {
        self.rounds.push(s);
    }

    /// The final round, if any rounds ran.
    pub fn last(&self) -> Option<&RoundStats> {
        self.rounds.last()
    }

    /// First round at which `stddev` drops below `threshold` and stays
    /// below for the rest of the series ("converged" in the paper's
    /// convergence-time readings).
    pub fn converged_at(&self, threshold: f64) -> Option<u64> {
        let mut candidate: Option<u64> = None;
        for s in &self.rounds {
            if s.stddev <= threshold {
                candidate.get_or_insert(s.round);
            } else {
                candidate = None;
            }
        }
        candidate
    }

    /// Mean stddev over rounds `from..` (steady-state error reading).
    pub fn steady_state_stddev(&self, from: u64) -> f64 {
        let tail: Vec<f64> =
            self.rounds.iter().filter(|s| s.round >= from).map(|s| s.stddev).collect();
        if tail.is_empty() {
            return f64::NAN;
        }
        tail.iter().sum::<f64>() / tail.len() as f64
    }

    /// Host-rounds spent in settling windows from round `from` onward (the
    /// paper's "disrupted rounds": rounds in which a host's estimate was
    /// unusable while its clique settled on a new epoch number). Pass 0
    /// for the whole run.
    pub fn settling_host_rounds(&self, from: u64) -> u64 {
        self.rounds.iter().filter(|s| s.round >= from).map(|s| s.settling as u64).sum()
    }

    /// Disruptive restarts accumulated between round `from` and the end of
    /// the series. `RoundStats::disruptions` is a gauge (the sum of
    /// cumulative per-host counters), so the difference of two readings is
    /// the number of disruptions in between; saturates at 0 if churn
    /// removed disrupted hosts. A `from` past the end of the series reads
    /// an empty window: 0.
    pub fn disruptions_between(&self, from: u64) -> u64 {
        let end = self.rounds.last().map_or(0, |s| s.disruptions);
        let start = self.rounds.iter().find(|s| s.round >= from).map_or(end, |s| s.disruptions);
        end.saturating_sub(start)
    }

    /// Rounds until re-convergence after a disruption (a partition heal, a
    /// mass failure): the first round at or after `from` whose
    /// `mean_abs_err` drops to `tol` or below *and stays there* for the
    /// rest of the series, reported as an offset from `from`. `None` if
    /// the series never re-converges within its horizon.
    pub fn reconvergence_after(&self, from: u64, tol: f64) -> Option<u64> {
        let mut candidate: Option<u64> = None;
        for s in self.rounds.iter().filter(|s| s.round >= from) {
            if s.mean_abs_err <= tol && s.defined > 0 {
                candidate.get_or_insert(s.round - from);
            } else {
                candidate = None;
            }
        }
        candidate
    }

    /// Total payload bytes over the whole run.
    pub fn total_bytes(&self) -> u64 {
        self.rounds.iter().map(|s| s.bytes).sum()
    }

    /// Total wire bytes over the whole run (0 for engines that do not
    /// encode frames — see [`RoundStats::wire_bytes`]).
    pub fn total_wire_bytes(&self) -> u64 {
        self.rounds.iter().map(|s| s.wire_bytes).sum()
    }

    /// Total messages over the whole run.
    pub fn total_messages(&self) -> u64 {
        self.rounds.iter().map(|s| s.messages).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_truth_ignores_dead_hosts() {
        let values = vec![Some(10.0), None, Some(30.0)];
        let t = Truth::Mean.per_host(&values, None);
        assert_eq!(t, vec![Some(20.0), None, Some(20.0)]);
    }

    #[test]
    fn count_and_sum_truths() {
        let values = vec![Some(10.0), Some(5.0), None];
        assert_eq!(Truth::Count.per_host(&values, None)[0], Some(2.0));
        assert_eq!(Truth::Sum.per_host(&values, None)[1], Some(15.0));
    }

    #[test]
    fn group_truths_follow_components() {
        // Devices 0,1 in one group; 2 alone.
        let groups = GroupView::from_edges(3, &[(0, 1)]);
        let values = vec![Some(10.0), Some(30.0), Some(99.0)];
        let means = Truth::GroupMean.per_host(&values, Some(&groups));
        assert_eq!(means, vec![Some(20.0), Some(20.0), Some(99.0)]);
        let sizes = Truth::GroupSize.per_host(&values, Some(&groups));
        assert_eq!(sizes, vec![Some(2.0), Some(2.0), Some(1.0)]);
    }

    #[test]
    fn group_size_counts_only_live_members() {
        let groups = GroupView::from_edges(3, &[(0, 1), (1, 2)]);
        let values = vec![Some(1.0), None, Some(1.0)];
        let sizes = Truth::GroupSize.per_host(&values, Some(&groups));
        assert_eq!(sizes, vec![Some(2.0), None, Some(2.0)]);
    }

    #[test]
    fn stats_compute_rms() {
        let est = [Some(1.0), Some(3.0), None];
        let truth = [Some(0.0), Some(0.0), Some(0.0)];
        let mut acc = StatsAcc::default();
        for (e, t) in est.iter().zip(&truth) {
            if let (Some(e), Some(t)) = (e, t) {
                acc.add(*e, *t);
            }
        }
        let s = acc.finish(5, 3, 10, 100, 0, 0.0);
        assert_eq!(s.defined, 2);
        assert!((s.stddev - 5.0f64.sqrt()).abs() < 1e-12); // sqrt((1+9)/2)
        assert_eq!(s.max_abs_err, 3.0);
        assert_eq!(s.mean_abs_err, 2.0);
    }

    #[test]
    fn converged_at_requires_staying_below() {
        let mk = |round, stddev| RoundStats {
            round,
            alive: 1,
            truth: 0.0,
            mean_estimate: 0.0,
            stddev,
            mean_abs_err: 0.0,
            max_abs_err: 0.0,
            defined: 1,
            messages: 0,
            bytes: 0,
            wire_bytes: 0,
            mean_group_size: 0.0,
            settling: 0,
            disruptions: 0,
            mass_audit: 0.0,
            islands: 1,
        };
        let mut series = Series::default();
        for (r, sd) in [(0, 10.0), (1, 0.5), (2, 5.0), (3, 0.4), (4, 0.3)] {
            series.push(mk(r, sd));
        }
        assert_eq!(series.converged_at(1.0), Some(3), "round 1 dip doesn't count");
        assert_eq!(series.converged_at(0.1), None);
    }

    #[test]
    fn lifecycle_tallies_reach_the_round_stats() {
        let mut acc = StatsAcc::default();
        acc.add(1.0, 1.0);
        acc.note_lifecycle(true, 3);
        let stats = acc.finish(0, 1, 2, 32, 42, 0.0);
        assert_eq!((stats.settling, stats.disruptions), (1, 3));
        assert_eq!((stats.mass_audit, stats.islands), (0.0, 1), "chaos columns default clean");
    }

    #[test]
    fn reconvergence_measures_from_the_heal_point() {
        let mk = |round, err| RoundStats {
            round,
            alive: 1,
            truth: 0.0,
            mean_estimate: 0.0,
            stddev: 0.0,
            mean_abs_err: err,
            max_abs_err: err,
            defined: 1,
            messages: 0,
            bytes: 0,
            wire_bytes: 0,
            mean_group_size: 0.0,
            settling: 0,
            disruptions: 0,
            mass_audit: 0.0,
            islands: 1,
        };
        let mut s = Series::default();
        for (r, e) in [(0u64, 0.1), (1, 9.0), (2, 6.0), (3, 0.4), (4, 2.0), (5, 0.3), (6, 0.2)] {
            s.push(mk(r, e));
        }
        // Healing at round 1: the round-3 dip doesn't stick; round 5 does.
        assert_eq!(s.reconvergence_after(1, 0.5), Some(4));
        assert_eq!(s.reconvergence_after(1, 0.01), None, "never reaches the tolerance");
        assert_eq!(s.reconvergence_after(99, 1.0), None, "empty window");
    }

    #[test]
    fn lifecycle_series_helpers_window_correctly() {
        let mk = |round, settling, disruptions| RoundStats {
            round,
            alive: 1,
            truth: 0.0,
            mean_estimate: 0.0,
            stddev: 0.0,
            mean_abs_err: 0.0,
            max_abs_err: 0.0,
            defined: 1,
            messages: 0,
            bytes: 0,
            wire_bytes: 0,
            mean_group_size: 0.0,
            settling,
            disruptions,
            mass_audit: 0.0,
            islands: 1,
        };
        let mut s = Series::default();
        for (r, settle, d) in [(0u64, 2usize, 0u64), (1, 1, 4), (2, 0, 7)] {
            s.push(mk(r, settle, d));
        }
        assert_eq!(s.settling_host_rounds(0), 3);
        assert_eq!(s.settling_host_rounds(1), 1);
        assert_eq!(s.disruptions_between(0), 7);
        assert_eq!(s.disruptions_between(1), 3);
        // An empty window reads zero, not the lifetime total.
        assert_eq!(s.settling_host_rounds(99), 0);
        assert_eq!(s.disruptions_between(99), 0);
        assert_eq!(Series::default().disruptions_between(0), 0);
    }

    #[test]
    fn steady_state_reads_tail() {
        let mk = |round, stddev| RoundStats {
            round,
            alive: 1,
            truth: 0.0,
            mean_estimate: 0.0,
            stddev,
            mean_abs_err: 0.0,
            max_abs_err: 0.0,
            defined: 1,
            messages: 0,
            bytes: 0,
            wire_bytes: 0,
            mean_group_size: 0.0,
            settling: 0,
            disruptions: 0,
            mass_audit: 0.0,
            islands: 1,
        };
        let mut s = Series::default();
        for (r, sd) in [(0u64, 100.0), (1, 2.0), (2, 4.0)] {
            s.push(mk(r, sd));
        }
        assert!((s.steady_state_stddev(1) - 3.0).abs() < 1e-12);
    }
}
