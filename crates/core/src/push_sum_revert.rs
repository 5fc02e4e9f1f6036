//! **Push-Sum-Revert** (paper §III, Fig. 3): the paper's first dynamic
//! protocol, and — at `λ = 0` — Kempe et al.'s static Push-Sum (Fig. 1).
//!
//! **λ = 0 is Push-Sum.** Every host keeps a mass `(w, v)`, initialized to
//! `(1, value)` for averaging. Each iteration it sends half its mass to one
//! random peer and half to itself, then replaces its mass with the sum of
//! everything it received. `v/w` converges to the network average with
//! error shrinking by a constant factor per round, because exchanges are
//! zero-sum ("conservation of mass"). The Karp-style push/pull variant
//! ([`PairwiseProtocol`]) atomically equalizes the two hosts' masses
//! ("exports (or imports) half the difference", §III-A), roughly halving
//! initial convergence time. Figs. 8 and 10a draw static Push-Sum as their
//! `λ = 0.0000` line.
//!
//! Push-Sum's correctness rests on conservation of mass, so a silent host
//! failure permanently corrupts the estimate — the departed host's mass is
//! gone, and if failures correlate with values (Fig. 10's scenario) the
//! surviving average is biased forever. Push-Sum-Revert injects a
//! *controlled local error*: after every iteration each host decays its
//! mass toward its initial value,
//!
//! ```text
//! w ← λ + (1−λ)·Σŵ        v ← λ·v₀ + (1−λ)·Σv̂
//! ```
//!
//! While membership is stable this is still conservative (§III's
//! telescoping argument, tested in [`crate::mass`]); after failures it
//! steadily re-injects the *surviving* hosts' initial masses, so the
//! network re-converges to the new true average. λ trades convergence
//! speed against steady-state error (Fig. 10a).
//!
//! Both execution styles are provided:
//! * message-passing push exactly as Fig. 3,
//! * atomic push/pull ([`PairwiseProtocol`]): mass equalization followed by
//!   a local revert step in `end_round` — the decomposition "Push-Sum ∘
//!   Revert" the paper uses in its conservation proof. Figs. 8 and 10 use
//!   this style.
//!
//! ```
//! use dynagg_core::protocol::{Estimator, PairwiseProtocol};
//! use dynagg_core::push_sum_revert::PushSumRevert;
//! use rand::{rngs::SmallRng, SeedableRng};
//!
//! // Push-Sum ∘ Revert (§III): equalize, then decay toward the anchor.
//! let mut rng = SmallRng::seed_from_u64(1);
//! let mut a = PushSumRevert::new(10.0, 0.1);
//! let mut b = PushSumRevert::new(50.0, 0.1);
//! PushSumRevert::exchange(&mut a, &mut b, &mut rng);
//! PairwiseProtocol::end_round(&mut a, 0);
//! // Equalized to 30, then reverted: 0.9·30 + 0.1·10 = 28.
//! assert!((a.estimate().unwrap() - 28.0).abs() < 1e-12);
//! ```
//!
//! [`PairwiseProtocol`]: crate::protocol::PairwiseProtocol

use crate::config::RevertConfig;
use crate::error::ProtocolError;
use crate::mass::{Mass, MASS_WIRE_BYTES};
use crate::protocol::{Estimator, NodeId, PairwiseProtocol, PushProtocol, RoundCtx};
use rand::rngs::SmallRng;

/// One host's Push-Sum-Revert state.
///
/// ```
/// use dynagg_core::protocol::{Estimator, PairwiseProtocol};
/// use dynagg_core::push_sum_revert::PushSumRevert;
/// use rand::{rngs::SmallRng, SeedableRng};
///
/// // One §III-A push/pull exchange at λ = 0 (Push-Sum) equalizes the two
/// // hosts' masses.
/// let mut rng = SmallRng::seed_from_u64(1);
/// let mut a = PushSumRevert::new(10.0, 0.0);
/// let mut b = PushSumRevert::new(50.0, 0.0);
/// PushSumRevert::exchange(&mut a, &mut b, &mut rng);
/// PairwiseProtocol::end_round(&mut a, 0);
/// PairwiseProtocol::end_round(&mut b, 0);
/// assert_eq!(a.estimate(), Some(30.0));
/// assert_eq!(b.estimate(), Some(30.0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PushSumRevert {
    lambda: f64,
    initial: Mass,
    mass: Mass,
    inbox: Mass,
    /// Last defined estimate — kept so a host that momentarily holds zero
    /// weight still answers queries (§II-A's running-estimate reading).
    last_estimate: Option<f64>,
}

impl PushSumRevert {
    /// An averaging host holding `value`, with reversion constant `lambda`.
    ///
    /// # Panics
    /// Panics if `lambda` is outside `[0, 1]`; use [`PushSumRevert::try_new`]
    /// for fallible construction.
    pub fn new(value: f64, lambda: f64) -> Self {
        Self::try_new(value, lambda).expect("invalid Push-Sum-Revert parameters")
    }

    /// Fallible constructor.
    pub fn try_new(value: f64, lambda: f64) -> Result<Self, ProtocolError> {
        let cfg = RevertConfig::new(lambda)?;
        let initial = Mass::averaging(value);
        Ok(Self {
            lambda: cfg.lambda,
            initial,
            mass: initial,
            inbox: Mass::ZERO,
            last_estimate: initial.estimate(),
        })
    }

    /// Construct from a validated config.
    pub fn from_config(value: f64, cfg: RevertConfig) -> Self {
        let initial = Mass::averaging(value);
        Self {
            lambda: cfg.lambda,
            initial,
            mass: initial,
            inbox: Mass::ZERO,
            last_estimate: initial.estimate(),
        }
    }

    /// The reversion constant λ.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// The host's initial (anchor) mass.
    pub fn initial(&self) -> Mass {
        self.initial
    }

    /// Current mass.
    pub fn mass(&self) -> Mass {
        self.mass
    }

    /// Update the host's local value in place (the device's sensor reading
    /// changed). The reversion term immediately starts pulling the network
    /// toward the new value — this is what makes the protocol a *running*
    /// aggregate rather than a one-shot query.
    pub fn set_value(&mut self, value: f64) {
        self.initial = Mass::averaging(value);
    }

    /// The outgoing total for this round: `(1−λ)·mass + λ·initial`
    /// (the numerator of Fig. 3 step 2).
    fn reverted(&self) -> Mass {
        self.mass.revert_toward(self.initial, self.lambda)
    }

    /// Start a push round *without* peer selection: retain the self half
    /// in the inbox and return the outgoing half. A composite protocol
    /// ([`crate::invert_average`]) uses this to drive an instance against
    /// a peer it samples itself.
    pub fn emit_half(&mut self) -> Mass {
        let half = self.reverted().half();
        self.inbox = half;
        half
    }

    /// Return an outgoing half that was never sent (the host turned out to
    /// be isolated this round): the mass stays home.
    pub fn absorb_unsent(&mut self, m: Mass) {
        self.inbox += m;
    }

    /// Absorb a received mass share (composite-protocol delivery path;
    /// equivalent to `on_message`).
    pub fn absorb(&mut self, m: Mass) {
        self.inbox += m;
    }

    /// Conclude a push round started with [`PushSumRevert::emit_half`].
    pub fn conclude_round(&mut self) {
        self.mass = self.inbox;
        self.inbox = Mass::ZERO;
        if let Some(e) = self.mass.estimate() {
            self.last_estimate = Some(e);
        }
    }
}

impl Estimator for PushSumRevert {
    fn estimate(&self) -> Option<f64> {
        self.mass.estimate().or(self.last_estimate)
    }

    fn audit_mass(&self) -> Option<Mass> {
        // `mass` is replaced only at `end_round`, so between rounds it
        // still accounts for shares currently in flight — summing it over
        // hosts is conservation-exact at any sampling instant.
        Some(self.mass)
    }
}

impl PushProtocol for PushSumRevert {
    type Message = Mass;

    fn begin_round(&mut self, ctx: &mut RoundCtx<'_>, out: &mut Vec<(NodeId, Mass)>) {
        let half = self.emit_half();
        match ctx.sample_peer() {
            Some(peer) => out.push((peer, half)),
            None => self.absorb_unsent(half),
        }
    }

    fn on_message(&mut self, _from: NodeId, msg: &Mass, _ctx: &mut RoundCtx<'_>) -> Option<Mass> {
        self.absorb(*msg);
        None
    }

    fn end_round(&mut self, _ctx: &mut RoundCtx<'_>) {
        self.conclude_round();
    }

    fn message_bytes(_msg: &Mass) -> usize {
        MASS_WIRE_BYTES
    }
}

impl PairwiseProtocol for PushSumRevert {
    fn exchange(initiator: &mut Self, responder: &mut Self, _rng: &mut SmallRng) {
        let avg = (initiator.mass + responder.mass).half();
        initiator.mass = avg;
        responder.mass = avg;
    }

    fn end_round(&mut self, _round: u64) {
        // The Revert step of the "Push-Sum ∘ Revert" decomposition.
        self.mass = self.reverted();
        if let Some(e) = self.mass.estimate() {
            self.last_estimate = Some(e);
        }
    }

    fn exchange_bytes(&self) -> usize {
        2 * MASS_WIRE_BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::samplers::{IsolatedSampler, SliceSampler};
    use rand::Rng;
    use rand::SeedableRng;

    /// Drive a tiny all-to-all static Push-Sum (λ = 0) push network by
    /// hand for `rounds`.
    fn run_push(values: &[f64], rounds: u64, seed: u64) -> Vec<PushSumRevert> {
        let mut nodes = nodes_with_values(values, 0.0);
        let ids: Vec<NodeId> = (0..nodes.len() as NodeId).collect();
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut out = Vec::new();
        for round in 0..rounds {
            let mut queue: Vec<(usize, Mass)> = Vec::new();
            for (i, node) in nodes.iter_mut().enumerate() {
                let peers: Vec<NodeId> = ids.iter().copied().filter(|&p| p as usize != i).collect();
                let mut sampler = SliceSampler::new(&peers);
                let mut ctx = RoundCtx { round, rng: &mut rng, peers: &mut sampler };
                out.clear();
                node.begin_round(&mut ctx, &mut out);
                queue.extend(out.drain(..).map(|(to, m)| (to as usize, m)));
            }
            for (to, m) in queue {
                let mut sampler = SliceSampler::new(&[]);
                let mut ctx = RoundCtx { round, rng: &mut rng, peers: &mut sampler };
                nodes[to].on_message(0, &m, &mut ctx);
            }
            for node in nodes.iter_mut() {
                let mut sampler = SliceSampler::new(&[]);
                let mut ctx = RoundCtx { round, rng: &mut rng, peers: &mut sampler };
                PushProtocol::end_round(node, &mut ctx);
            }
        }
        nodes
    }

    /// Run pairwise push/pull rounds over all nodes; returns final states.
    fn run_pairwise(mut nodes: Vec<PushSumRevert>, rounds: u64, seed: u64) -> Vec<PushSumRevert> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let n = nodes.len();
        for round in 0..rounds {
            for i in 0..n {
                let j = loop {
                    let j = rng.gen_range(0..n);
                    if j != i {
                        break j;
                    }
                };
                let (lo, hi) = if i < j { (i, j) } else { (j, i) };
                let (a, b) = nodes.split_at_mut(hi);
                PushSumRevert::exchange(&mut a[lo], &mut b[0], &mut rng);
            }
            for node in nodes.iter_mut() {
                PairwiseProtocol::end_round(node, round);
            }
        }
        nodes
    }

    fn nodes_with_values(values: &[f64], lambda: f64) -> Vec<PushSumRevert> {
        values.iter().map(|&v| PushSumRevert::new(v, lambda)).collect()
    }

    #[test]
    fn lambda_zero_behaves_like_push_sum() {
        let values = [10.0, 30.0, 50.0, 70.0];
        let nodes = run_pairwise(nodes_with_values(&values, 0.0), 30, 5);
        for n in &nodes {
            assert!((n.estimate().unwrap() - 40.0).abs() < 0.5);
        }
    }

    #[test]
    fn push_converges_to_average() {
        // Fig. 1's message-passing Push-Sum is the λ = 0 push protocol.
        let values = [10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0];
        let avg = 45.0;
        for n in &run_push(&values, 40, 7) {
            let e = n.estimate().unwrap();
            assert!((e - avg).abs() < 1.0, "estimate {e} far from {avg}");
        }
    }

    #[test]
    fn push_conserves_mass() {
        let nodes = run_push(&[5.0, 15.0, 25.0], 10, 8);
        let total: Mass = nodes.iter().map(|n| n.mass()).fold(Mass::ZERO, |a, b| a + b);
        assert!((total.weight - 3.0).abs() < 1e-9);
        assert!((total.value - 45.0).abs() < 1e-9);
    }

    #[test]
    fn isolated_host_keeps_its_mass() {
        let mut n = PushSumRevert::new(42.0, 0.0);
        let mut rng = SmallRng::seed_from_u64(3);
        let mut out = Vec::new();
        for round in 0..5 {
            let mut ctx = RoundCtx { round, rng: &mut rng, peers: &mut IsolatedSampler };
            out.clear();
            n.begin_round(&mut ctx, &mut out);
            assert!(out.is_empty());
            PushProtocol::end_round(&mut n, &mut ctx);
        }
        assert_eq!(n.estimate(), Some(42.0));
        assert!((n.mass().weight - 1.0).abs() < 1e-12);
    }

    #[test]
    fn estimate_survives_zero_weight_rounds() {
        let mut n = PushSumRevert::new(10.0, 0.0);
        // Manually strip its mass (as if it exported everything).
        n.mass = Mass::ZERO;
        assert_eq!(n.estimate(), Some(10.0), "falls back to last defined estimate");
    }

    #[test]
    fn converges_with_reversion_active() {
        let values = [0.0, 25.0, 50.0, 75.0, 100.0];
        let nodes = run_pairwise(nodes_with_values(&values, 0.01), 50, 6);
        for n in &nodes {
            let e = n.estimate().unwrap();
            assert!((e - 50.0).abs() < 5.0, "estimate {e} too far from 50");
        }
    }

    #[test]
    fn conservation_of_mass_under_stable_membership() {
        // §III: with no churn, the revert step conserves total mass.
        let values = [10.0, 20.0, 60.0, 110.0];
        let total_v: f64 = values.iter().sum();
        let nodes = run_pairwise(nodes_with_values(&values, 0.1), 25, 7);
        let total: Mass = nodes.iter().map(|n| n.mass()).fold(Mass::ZERO, |a, b| a + b);
        assert!((total.weight - 4.0).abs() < 1e-6, "weight drifted: {}", total.weight);
        assert!((total.value - total_v).abs() < 1e-6, "value drifted: {}", total.value);
    }

    #[test]
    fn recovers_from_correlated_failure() {
        // 8 hosts; fail the high-valued half after convergence. Static
        // push-sum (λ=0) keeps estimating ~50; reversion pulls survivors to
        // their own average of 25.
        let values = [10.0, 20.0, 30.0, 40.0, 60.0, 70.0, 80.0, 90.0];
        let lambda = 0.1;
        let mut nodes = nodes_with_values(&values, lambda);
        let mut rng = SmallRng::seed_from_u64(8);
        // converge
        for round in 0..20u64 {
            for i in 0..nodes.len() {
                let j = (i + 1 + rng.gen_range(0..nodes.len() - 1)) % nodes.len();
                let (lo, hi) = if i < j { (i, j) } else { (j, i) };
                let (a, b) = nodes.split_at_mut(hi);
                PushSumRevert::exchange(&mut a[lo], &mut b[0], &mut rng);
            }
            for n in nodes.iter_mut() {
                PairwiseProtocol::end_round(n, round);
            }
        }
        // silently fail the top half (values 60..90)
        nodes.truncate(4);
        let survivors_avg = 25.0;
        for round in 20..120u64 {
            for i in 0..nodes.len() {
                let j = (i + 1 + rng.gen_range(0..nodes.len() - 1)) % nodes.len();
                let (lo, hi) = if i < j { (i, j) } else { (j, i) };
                let (a, b) = nodes.split_at_mut(hi);
                PushSumRevert::exchange(&mut a[lo], &mut b[0], &mut rng);
            }
            for n in nodes.iter_mut() {
                PairwiseProtocol::end_round(n, round);
            }
        }
        for n in &nodes {
            let e = n.estimate().unwrap();
            assert!(
                (e - survivors_avg).abs() < 5.0,
                "post-failure estimate {e} should approach {survivors_avg}"
            );
        }
    }

    #[test]
    fn static_protocol_stays_biased_after_correlated_failure() {
        // The contrast case: λ = 0 never heals. (This is the paper's core
        // motivation, so pin it as a regression test.)
        let values = [10.0, 20.0, 30.0, 40.0, 60.0, 70.0, 80.0, 90.0];
        let mut nodes = nodes_with_values(&values, 0.0);
        let mut rng = SmallRng::seed_from_u64(9);
        for round in 0..20u64 {
            for i in 0..nodes.len() {
                let j = (i + 1 + rng.gen_range(0..nodes.len() - 1)) % nodes.len();
                let (lo, hi) = if i < j { (i, j) } else { (j, i) };
                let (a, b) = nodes.split_at_mut(hi);
                PushSumRevert::exchange(&mut a[lo], &mut b[0], &mut rng);
            }
            for n in nodes.iter_mut() {
                PairwiseProtocol::end_round(n, round);
            }
        }
        nodes.truncate(4);
        for round in 20..80u64 {
            for i in 0..nodes.len() {
                let j = (i + 1 + rng.gen_range(0..nodes.len() - 1)) % nodes.len();
                let (lo, hi) = if i < j { (i, j) } else { (j, i) };
                let (a, b) = nodes.split_at_mut(hi);
                PushSumRevert::exchange(&mut a[lo], &mut b[0], &mut rng);
            }
            for n in nodes.iter_mut() {
                PairwiseProtocol::end_round(n, round);
            }
        }
        for n in &nodes {
            let e = n.estimate().unwrap();
            assert!(
                (e - 50.0).abs() < 2.0,
                "static estimate {e} should remain near the pre-failure average 50"
            );
        }
    }

    #[test]
    fn higher_lambda_converges_faster_but_noisier() {
        // Qualitative Fig. 10a shape on a small network: after a correlated
        // failure, λ=0.5 must be closer to the new truth than λ=0.001 at
        // round 10 post-failure.
        let values: Vec<f64> = (0..16).map(|i| f64::from(i) * 10.0).collect();
        let run = |lambda: f64| -> f64 {
            let mut nodes = nodes_with_values(&values, lambda);
            let mut rng = SmallRng::seed_from_u64(10);
            for round in 0..20u64 {
                for i in 0..nodes.len() {
                    let j = (i + 1 + rng.gen_range(0..nodes.len() - 1)) % nodes.len();
                    let (lo, hi) = if i < j { (i, j) } else { (j, i) };
                    let (a, b) = nodes.split_at_mut(hi);
                    PushSumRevert::exchange(&mut a[lo], &mut b[0], &mut rng);
                }
                for n in nodes.iter_mut() {
                    PairwiseProtocol::end_round(n, round);
                }
            }
            nodes.truncate(8); // fail high half; survivor avg = 35
            for round in 20..30u64 {
                for i in 0..nodes.len() {
                    let j = (i + 1 + rng.gen_range(0..nodes.len() - 1)) % nodes.len();
                    let (lo, hi) = if i < j { (i, j) } else { (j, i) };
                    let (a, b) = nodes.split_at_mut(hi);
                    PushSumRevert::exchange(&mut a[lo], &mut b[0], &mut rng);
                }
                for n in nodes.iter_mut() {
                    PairwiseProtocol::end_round(n, round);
                }
            }
            let truth = 35.0;
            let mse: f64 =
                nodes.iter().map(|n| (n.estimate().unwrap() - truth).powi(2)).sum::<f64>()
                    / nodes.len() as f64;
            mse.sqrt()
        };
        let fast = run(0.5);
        let slow = run(0.001);
        assert!(
            fast < slow,
            "10 rounds after failure λ=0.5 (err {fast:.2}) should beat λ=0.001 (err {slow:.2})"
        );
    }

    #[test]
    fn set_value_moves_the_anchor() {
        let mut n = PushSumRevert::new(10.0, 0.5);
        n.set_value(90.0);
        // With λ=0.5 and no gossip, repeated end_round pulls mass halfway
        // to the new anchor each round.
        for round in 0..20 {
            PairwiseProtocol::end_round(&mut n, round);
        }
        assert!((n.estimate().unwrap() - 90.0).abs() < 1e-3);
    }

    #[test]
    fn invalid_lambda_rejected() {
        assert!(PushSumRevert::try_new(1.0, -0.5).is_err());
        assert!(PushSumRevert::try_new(1.0, 2.0).is_err());
    }
}
