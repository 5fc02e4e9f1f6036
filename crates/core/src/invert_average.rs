//! **Invert-Average** (paper §IV-B, Fig. 7): cheap dynamic summation.
//!
//! Sketch summation by multiple insertion scales the sketch with the summed
//! range; Invert-Average instead composes the two dynamic primitives:
//!
//! ```text
//! sum ≈ Push-Sum-Revert(average of values) × Count-Sketch-Reset(host count)
//! ```
//!
//! The errors of the two protocols multiply, but Push-Sum-Revert costs two
//! doubles per message versus kilobytes for a counter matrix, and one
//! Count-Sketch-Reset instance can be amortized across any number of
//! simultaneous sums — "significantly less expensive than the multiple
//! insertion technique".
//!
//! ```
//! use dynagg_core::config::ResetConfig;
//! use dynagg_core::invert_average::InvertAverage;
//! use dynagg_core::protocol::Estimator;
//!
//! // sum ≈ average × count (Fig. 7): both factors are defined from round
//! // zero, so the product is too (a one-host PCSA may well read 0 — the
//! // sketch error the count factor inherits at tiny populations).
//! let host = InvertAverage::new(25.0, 0.05, ResetConfig::paper(100, 9), 1);
//! let sum = host.estimate().unwrap();
//! assert!(sum >= 0.0, "sum estimate defined, got {sum}");
//! ```
//!
//! Implementation note: both sub-protocols gossip to the *same* sampled
//! peer each round (one combined message), matching the paper's model of
//! one exchange per host per iteration.

use crate::config::ResetConfig;
use crate::count_sketch_reset::CountSketchReset;
use crate::mass::Mass;
use crate::protocol::{Estimator, NodeId, PushProtocol, RoundCtx};
use crate::push_sum_revert::PushSumRevert;
use dynagg_sketch::age::AgeMatrix;
use std::sync::Arc;

/// The combined gossip payload: an averaging mass share plus the counter
/// matrix snapshot.
#[derive(Debug, Clone)]
pub struct InvertMsg {
    /// Push-Sum-Revert half-mass.
    pub avg: Mass,
    /// Count-Sketch-Reset matrix snapshot (present on initiations and on
    /// push-pull replies).
    pub count: Option<Arc<AgeMatrix>>,
}

/// One host's Invert-Average state: an averaging instance and a counting
/// instance advanced in lockstep.
#[derive(Debug, Clone)]
pub struct InvertAverage {
    avg: PushSumRevert,
    count: CountSketchReset,
}

impl InvertAverage {
    /// A host holding `value`, with reversion constant `lambda` for the
    /// averaging half and `reset` for the counting half.
    pub fn new(value: f64, lambda: f64, reset: ResetConfig, host_id: u64) -> Self {
        Self {
            avg: PushSumRevert::new(value, lambda),
            count: CountSketchReset::counting(reset, host_id),
        }
    }

    /// The averaging sub-protocol.
    pub fn averager(&self) -> &PushSumRevert {
        &self.avg
    }

    /// The counting sub-protocol.
    pub fn counter(&self) -> &CountSketchReset {
        &self.count
    }

    /// The network-size estimate alone.
    pub fn count_estimate(&self) -> Option<f64> {
        self.count.estimate()
    }

    /// The average estimate alone.
    pub fn avg_estimate(&self) -> Option<f64> {
        self.avg.estimate()
    }

    /// Whether `msg`'s matrix, if it carries one, has this host's
    /// geometry. One that does not makes the whole message a lost frame —
    /// mass included, as if the datagram never arrived.
    fn accepts(&self, msg: &InvertMsg) -> bool {
        msg.count.as_ref().is_none_or(|m| self.count.ages().same_geometry(m))
    }

    /// Update the host's local value.
    pub fn set_value(&mut self, value: f64) {
        self.avg.set_value(value);
    }
}

impl Estimator for InvertAverage {
    /// The sum estimate: `avg × count` (Fig. 7 step 3 rearranged: the paper
    /// computes `A/netsize` to get the average *of a sum protocol*; with an
    /// averaging Push-Sum-Revert the sum is the product).
    fn estimate(&self) -> Option<f64> {
        Some(self.avg.estimate()? * self.count.estimate()?)
    }
}

impl PushProtocol for InvertAverage {
    type Message = InvertMsg;

    fn begin_round(&mut self, ctx: &mut RoundCtx<'_>, out: &mut Vec<(NodeId, InvertMsg)>) {
        // Drive both sub-protocols against the same peer: emit the
        // averaging half and the aged matrix snapshot directly, then bind
        // them to one sampled peer (keeps the composite's dynamics
        // identical to the standalone protocols sharing peer choices).
        let avg = self.avg.emit_half();
        let count = self.count.emit_snapshot();
        match ctx.sample_peer() {
            Some(p) => out.push((p, InvertMsg { avg, count: Some(count) })),
            None => self.avg.absorb_unsent(avg),
        }
    }

    fn on_message(
        &mut self,
        _from: NodeId,
        msg: &InvertMsg,
        _ctx: &mut RoundCtx<'_>,
    ) -> Option<InvertMsg> {
        if !self.accepts(msg) {
            return None;
        }
        self.avg.absorb(msg.avg);
        let count_reply = msg.count.as_ref().and_then(|m| self.count.absorb(m));
        // Only the counting half replies (the averaging half is pure push
        // here); an empty reply carries no mass.
        count_reply.map(|count| InvertMsg { avg: Mass::ZERO, count: Some(count) })
    }

    fn on_reply(&mut self, from: NodeId, msg: &InvertMsg, ctx: &mut RoundCtx<'_>) {
        if !self.accepts(msg) {
            return;
        }
        if !msg.avg.is_zero() {
            self.avg.absorb(msg.avg);
        }
        if let Some(m) = &msg.count {
            self.count.on_reply(from, m, ctx);
        }
    }

    fn end_round(&mut self, ctx: &mut RoundCtx<'_>) {
        self.avg.conclude_round();
        self.count.end_round(ctx);
    }

    fn message_bytes(msg: &InvertMsg) -> usize {
        crate::mass::MASS_WIRE_BYTES + msg.count.as_ref().map_or(0, |m| m.wire_bytes())
    }

    fn depart_gracefully(&mut self) {
        self.count.depart_gracefully();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SketchConfig;
    use crate::samplers::SliceSampler;
    use dynagg_sketch::cutoff::Cutoff;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn reset_cfg() -> ResetConfig {
        ResetConfig {
            sketch: SketchConfig::new(64, 24, 0xCAFE).unwrap(),
            cutoff: Cutoff::paper_uniform(),
            push_pull: true,
        }
    }

    fn run(values: &[f64], lambda: f64, rounds: u64, seed: u64) -> Vec<InvertAverage> {
        let mut nodes: Vec<InvertAverage> = values
            .iter()
            .enumerate()
            .map(|(i, &v)| InvertAverage::new(v, lambda, reset_cfg(), i as u64))
            .collect();
        let ids: Vec<NodeId> = (0..nodes.len() as NodeId).collect();
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut out = Vec::new();
        for round in 0..rounds {
            let mut queue: Vec<(usize, usize, InvertMsg)> = Vec::new();
            for (i, node) in nodes.iter_mut().enumerate() {
                let peers: Vec<NodeId> = ids.iter().copied().filter(|&p| p as usize != i).collect();
                let mut sampler = SliceSampler::new(&peers);
                let mut ctx = RoundCtx { round, rng: &mut rng, peers: &mut sampler };
                out.clear();
                node.begin_round(&mut ctx, &mut out);
                for (to, m) in out.drain(..) {
                    queue.push((i, to as usize, m));
                }
            }
            for (from, to, m) in queue {
                let mut sampler = SliceSampler::new(&[]);
                let mut ctx = RoundCtx { round, rng: &mut rng, peers: &mut sampler };
                if let Some(reply) = nodes[to].on_message(from as NodeId, &m, &mut ctx) {
                    let mut sampler = SliceSampler::new(&[]);
                    let mut ctx = RoundCtx { round, rng: &mut rng, peers: &mut sampler };
                    nodes[from].on_reply(to as NodeId, &reply, &mut ctx);
                }
            }
            for node in nodes.iter_mut() {
                let mut sampler = SliceSampler::new(&[]);
                let mut ctx = RoundCtx { round, rng: &mut rng, peers: &mut sampler };
                node.end_round(&mut ctx);
            }
        }
        nodes
    }

    #[test]
    fn estimates_the_sum() {
        // 64 hosts each holding 50 => sum = 3200.
        let values = vec![50.0; 64];
        let nodes = run(&values, 0.01, 25, 61);
        let sum: f64 = values.iter().sum();
        for node in nodes.iter().take(8) {
            let e = node.estimate().unwrap();
            let rel = (e - sum).abs() / sum;
            // Errors multiply: allow the count's ~10% plus averaging noise.
            assert!(rel < 0.5, "sum estimate {e:.0} vs {sum} (rel {rel:.2})");
        }
    }

    #[test]
    fn sub_estimates_compose() {
        let values = vec![10.0; 32];
        let nodes = run(&values, 0.01, 20, 62);
        let n = &nodes[0];
        let product = n.avg_estimate().unwrap() * n.count_estimate().unwrap();
        assert!((n.estimate().unwrap() - product).abs() < 1e-9);
    }

    #[test]
    fn heals_after_failure() {
        let values = vec![10.0; 128];
        let mut nodes = run(&values, 0.1, 20, 63);
        nodes.truncate(64);
        // Continue gossiping among survivors.
        let ids: Vec<NodeId> = (0..64 as NodeId).collect();
        let mut rng = SmallRng::seed_from_u64(64);
        let mut out = Vec::new();
        for round in 20..55u64 {
            let mut queue: Vec<(usize, usize, InvertMsg)> = Vec::new();
            for (i, node) in nodes.iter_mut().enumerate() {
                let peers: Vec<NodeId> = ids.iter().copied().filter(|&p| p as usize != i).collect();
                let mut sampler = SliceSampler::new(&peers);
                let mut ctx = RoundCtx { round, rng: &mut rng, peers: &mut sampler };
                out.clear();
                node.begin_round(&mut ctx, &mut out);
                for (to, m) in out.drain(..) {
                    queue.push((i, to as usize, m));
                }
            }
            for (from, to, m) in queue {
                let mut sampler = SliceSampler::new(&[]);
                let mut ctx = RoundCtx { round, rng: &mut rng, peers: &mut sampler };
                if let Some(reply) = nodes[to].on_message(from as NodeId, &m, &mut ctx) {
                    let mut sampler = SliceSampler::new(&[]);
                    let mut ctx = RoundCtx { round, rng: &mut rng, peers: &mut sampler };
                    nodes[from].on_reply(to as NodeId, &reply, &mut ctx);
                }
            }
            for node in nodes.iter_mut() {
                let mut sampler = SliceSampler::new(&[]);
                let mut ctx = RoundCtx { round, rng: &mut rng, peers: &mut sampler };
                node.end_round(&mut ctx);
            }
        }
        let target = 640.0; // 64 hosts × 10
        let est = nodes[0].estimate().unwrap();
        assert!(
            (est - target).abs() / target < 0.5,
            "healed sum estimate {est:.0} should approach {target}"
        );
    }

    #[test]
    fn message_bytes_dominated_by_counter_matrix() {
        // The bandwidth claim: the averaging half is ~16 bytes, the matrix
        // kilobytes. Verify accounting reflects that.
        let cfg = reset_cfg();
        let node = InvertAverage::new(1.0, 0.1, cfg, 0);
        let msg = InvertMsg {
            avg: Mass::averaging(1.0),
            count: Some(Arc::new(node.counter().ages().clone())),
        };
        let with_matrix = InvertAverage::message_bytes(&msg);
        let without =
            InvertAverage::message_bytes(&InvertMsg { avg: Mass::averaging(1.0), count: None });
        assert_eq!(without, 16);
        assert!(with_matrix > 1000, "matrix snapshot is kilobytes: {with_matrix}");
    }
}
