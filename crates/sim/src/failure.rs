//! Failure injection (paper §V: "failing half of the participating nodes";
//! Fig. 8 vs Fig. 10's uncorrelated/correlated modes).
//!
//! Failures are *silent* by default — the protocols receive no sign-off,
//! which is precisely the condition the dynamic protocols are built for.
//! Setting `graceful` routes the removal through
//! `PushProtocol::depart_gracefully` first (sketch hosts release their
//! sourced cells), modeling a clean sign-off for comparison runs.
//!
//! [`FailurePlan`] is the one place a [`FailureSpec`] is interpreted: the
//! lockstep engines and the asynchronous coordinator both ask it, once
//! per round, who departs and how many join.

use crate::rng::{rng_for, stream};
use dynagg_core::protocol::NodeId;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Which hosts a mass failure removes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FailureMode {
    /// Uniformly random hosts (Fig. 8: "by the law of large numbers,
    /// random host failures do not impact the average over the long term").
    Random,
    /// The highest-valued hosts (Fig. 10: "host failures that are
    /// correlated with values stored at those hosts will alter the average
    /// without altering the average mass in the system").
    TopValue,
}

impl std::str::FromStr for FailureMode {
    type Err = String;

    /// Parse the kebab-case names scenario files use.
    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "random" => Ok(FailureMode::Random),
            "top-value" => Ok(FailureMode::TopValue),
            other => Err(format!("unknown failure mode `{other}` (expected random|top-value)")),
        }
    }
}

/// A failure plan for one simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FailureSpec {
    /// No failures.
    None,
    /// Remove `fraction` of the live hosts at the start of `round`.
    AtRound {
        /// Round at which the failure strikes (before exchanges).
        round: u64,
        /// Which hosts are selected.
        mode: FailureMode,
        /// Fraction of the live population to remove, in `(0, 1]`.
        fraction: f64,
        /// Whether hosts sign off (release sketch cells) before leaving.
        graceful: bool,
    },
    /// Continuous churn from `start`: each round an expected
    /// `leave_per_round` fraction of live hosts silently departs and
    /// `join_per_round × initial_n` fresh hosts join.
    Churn {
        /// First round of churn.
        start: u64,
        /// Expected per-round departure fraction of the live population.
        leave_per_round: f64,
        /// Expected per-round arrivals as a fraction of the initial size.
        join_per_round: f64,
    },
}

impl FailureSpec {
    /// The paper's uniform-environment failure: half the nodes at round 20.
    pub fn paper_half_at_20(mode: FailureMode) -> Self {
        FailureSpec::AtRound { round: 20, mode, fraction: 0.5, graceful: false }
    }
}

/// The failure-plan kernel: a [`FailureSpec`] plus the state that makes
/// it a deterministic schedule — the failure RNG stream and the
/// fractional-join carry.
pub struct FailurePlan {
    spec: FailureSpec,
    rng: SmallRng,
    /// Population the churn join rate is a fraction of.
    initial_n: usize,
    /// Fractional joins carried to the next round.
    join_accum: f64,
}

impl FailurePlan {
    /// The plan for `spec` over an initial population of `initial_n`,
    /// drawing from `seed`'s [`stream::FAILURES`] stream.
    pub fn new(spec: FailureSpec, seed: u64, initial_n: usize) -> Self {
        Self { spec, rng: rng_for(seed, stream::FAILURES), initial_n, join_accum: 0.0 }
    }

    /// Decide `round`'s departures and arrivals: `victims` is cleared and
    /// filled with the departing ids, and the return is `(graceful,
    /// joins)` — whether victims sign off first, and how many fresh hosts
    /// join.
    ///
    /// `live` is the live population **in the caller's canonical order**,
    /// which is part of each engine family's pinned output: [`Random`]
    /// shuffles it, [`Churn`] draws one leave coin per id in that order,
    /// and the value-correlated modes break ties between equal values by
    /// it. It is consumed only on rounds where the plan acts. `values[id]`
    /// must be present for every live id.
    ///
    /// [`Random`]: FailureMode::Random
    /// [`Churn`]: FailureSpec::Churn
    pub fn plan(
        &mut self,
        round: u64,
        live: impl IntoIterator<Item = NodeId>,
        values: &[Option<f64>],
        victims: &mut Vec<NodeId>,
    ) -> (bool, usize) {
        victims.clear();
        match self.spec {
            FailureSpec::None => (false, 0),
            FailureSpec::AtRound { round: at, mode, fraction, graceful } => {
                if round != at {
                    return (false, 0);
                }
                victims.extend(live);
                let count = (victims.len() as f64 * fraction).round() as usize;
                let value = |id: NodeId| values[id as usize].expect("live hosts have values");
                match mode {
                    FailureMode::Random => victims.shuffle(&mut self.rng),
                    FailureMode::TopValue => victims.sort_unstable_by(|&a, &b| {
                        value(b).partial_cmp(&value(a)).expect("values are finite")
                    }),
                }
                victims.truncate(count);
                (graceful, 0)
            }
            FailureSpec::Churn { start, leave_per_round, join_per_round } => {
                if round < start {
                    return (false, 0);
                }
                let rng = &mut self.rng;
                victims.extend(live.into_iter().filter(|_| rng.gen::<f64>() < leave_per_round));
                self.join_accum += join_per_round * self.initial_n as f64;
                let joins = self.join_accum as usize;
                self.join_accum -= joins as f64;
                (false, joins)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_spec_is_half_at_20() {
        let FailureSpec::AtRound { round, fraction, graceful, mode } =
            FailureSpec::paper_half_at_20(FailureMode::Random)
        else {
            panic!("wrong variant");
        };
        assert_eq!(round, 20);
        assert_eq!(fraction, 0.5);
        assert!(!graceful);
        assert_eq!(mode, FailureMode::Random);
    }

    /// `n` live hosts with values `0, 1, …, n − 1`.
    fn values(n: usize) -> Vec<Option<f64>> {
        (0..n).map(|i| Some(i as f64)).collect()
    }

    fn at_round(mode: FailureMode, fraction: f64) -> FailureSpec {
        FailureSpec::AtRound { round: 3, mode, fraction, graceful: true }
    }

    #[test]
    fn every_call_starts_from_a_cleared_victims_buffer() {
        // The caller owns and reuses the buffer; churn every round must
        // not carry victims over, and the plan must stay silent on rounds
        // it does not act.
        let spec = FailureSpec::Churn { start: 2, leave_per_round: 0.5, join_per_round: 0.0 };
        let mut plan = FailurePlan::new(spec, 12, 100);
        let mut victims = vec![99; 7]; // stale content from "last round"
        for round in 0..20 {
            plan.plan(round, 0..100, &values(100), &mut victims);
            if round < 2 {
                assert!(victims.is_empty(), "round {round}: churn has not started");
                continue;
            }
            assert!(victims.len() < 100 && !victims.is_empty(), "round {round}: {victims:?}");
            assert!(victims.windows(2).all(|w| w[0] < w[1]), "no carry-over, no repeats");
        }
        let mut none = FailurePlan::new(FailureSpec::None, 12, 100);
        assert_eq!(none.plan(0, 0..100, &values(100), &mut victims), (false, 0));
        assert!(victims.is_empty());
    }

    #[test]
    fn fractional_joins_carry_across_rounds() {
        // 0.3 × 5 = 1.5 joins a round: the half carries, so rounds
        // alternate 1, 2, 1, 2 — and rounds before `start` accrue nothing.
        let spec = FailureSpec::Churn { start: 1, leave_per_round: 0.0, join_per_round: 0.3 };
        let mut plan = FailurePlan::new(spec, 1, 5);
        let mut victims = Vec::new();
        let joins: Vec<usize> =
            (0..5).map(|r| plan.plan(r, 0..5, &values(5), &mut victims).1).collect();
        assert_eq!(joins, [0, 1, 2, 1, 2]);
        assert!(victims.is_empty(), "leave rate 0 removes nobody");
    }

    #[test]
    fn at_round_count_rounds_to_nearest_and_fires_once() {
        let mut victims = Vec::new();
        for (live, fraction, want) in [(10, 0.25, 3), (10, 0.24, 2), (7, 0.5, 4), (3, 1.0, 3)] {
            let mut plan = FailurePlan::new(at_round(FailureMode::Random, fraction), 5, live);
            assert_eq!(plan.plan(2, 0..live as NodeId, &values(live), &mut victims), (false, 0));
            assert!(victims.is_empty(), "nothing before the failure round");
            assert_eq!(plan.plan(3, 0..live as NodeId, &values(live), &mut victims), (true, 0));
            assert_eq!(victims.len(), want, "{fraction} of {live}");
            assert_eq!(plan.plan(4, 0..live as NodeId, &values(live), &mut victims), (false, 0));
            assert!(victims.is_empty(), "nothing after it");
        }
    }

    #[test]
    fn value_modes_pick_by_value_whatever_the_candidate_order() {
        let vals = values(8);
        let orders: [Vec<NodeId>; 3] =
            [(0..8).collect(), (0..8).rev().collect(), vec![3, 7, 0, 5, 1, 6, 2, 4]];
        for order in orders {
            let mut victims = Vec::new();
            let mut top = FailurePlan::new(at_round(FailureMode::TopValue, 0.375), 9, 8);
            top.plan(3, order.iter().copied(), &vals, &mut victims);
            assert_eq!(victims, [7, 6, 5], "highest three, descending");
        }
    }

    #[test]
    fn random_and_churn_draw_in_the_candidate_order_given() {
        // The kernel attaches its draws to *positions* in the candidate
        // sequence: relabeling the candidates relabels the victims the
        // same way. (This is why each engine family's candidate order is
        // part of its pinned output.)
        let ids: Vec<NodeId> = (0..40).collect();
        let relabel = |id: NodeId| 39 - id;
        let reversed: Vec<NodeId> = ids.iter().map(|&id| relabel(id)).collect();
        let vals = values(40);
        for spec in [
            at_round(FailureMode::Random, 0.5),
            FailureSpec::Churn { start: 3, leave_per_round: 0.3, join_per_round: 0.0 },
        ] {
            let (mut a, mut b) = (Vec::new(), Vec::new());
            FailurePlan::new(spec, 77, 40).plan(3, ids.iter().copied(), &vals, &mut a);
            FailurePlan::new(spec, 77, 40).plan(3, reversed.iter().copied(), &vals, &mut b);
            assert!(!a.is_empty() && a.len() < 40);
            let a_relabeled: Vec<NodeId> = a.iter().map(|&id| relabel(id)).collect();
            assert_eq!(a_relabeled, b, "{spec:?}");
        }
    }
}
