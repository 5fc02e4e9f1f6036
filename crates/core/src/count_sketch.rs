//! Static Sketch-Count (paper Fig. 2; Considine et al. 2004).
//!
//! Every host contributes identifiers to a PCSA counting sketch — one
//! identifier to count hosts, `v` identifiers to sum values — and gossips
//! the whole sketch. Receivers OR-merge, which is idempotent, so redundant
//! delivery is free and the estimate converges to the count of *all
//! identifiers ever inserted*.
//!
//! That monotonicity is the failure mode motivating Count-Sketch-Reset:
//! "unless hosts remove their contribution to the systemwide bit vector
//! before departing, the estimate increases monotonically" (§II-B) — and a
//! host cannot remove its contribution, because it cannot know whether
//! another live host sources the same bit.
//!
//! ```
//! use dynagg_core::config::SketchConfig;
//! use dynagg_core::count_sketch::CountSketch;
//! use dynagg_core::protocol::{Estimator, PushProtocol, RoundCtx};
//! use dynagg_core::samplers::SliceSampler;
//! use rand::{rngs::SmallRng, SeedableRng};
//!
//! // Merging is an idempotent OR: absorbing a peer's sketch twice
//! // changes nothing (Fig. 2 step 3).
//! let cfg = SketchConfig::paper(1_000, 7);
//! let mut rng = SmallRng::seed_from_u64(2);
//! let mut a = CountSketch::counting(cfg, 1);
//! let b = CountSketch::counting(cfg, 2);
//! let snapshot = std::sync::Arc::new(b.sketch().clone());
//! let mut sampler = SliceSampler::new(&[]);
//! let mut ctx = RoundCtx { round: 0, rng: &mut rng, peers: &mut sampler };
//! a.on_message(1, &snapshot, &mut ctx);
//! let once = a.estimate();
//! a.on_message(1, &snapshot, &mut ctx);
//! assert_eq!(a.estimate(), once, "redundant delivery is free");
//! ```

use crate::config::SketchConfig;
use crate::protocol::{Estimator, NodeId, PushProtocol, RoundCtx};
use dynagg_sketch::hash::SplitMix64;
use dynagg_sketch::pcsa::Pcsa;
use dynagg_sketch::sum::insert_value;
use std::sync::Arc;

/// One host's static Sketch-Count state.
#[derive(Debug, Clone)]
pub struct CountSketch {
    sketch: Pcsa,
    /// Reply with our own sketch on receipt (push-pull message exchange).
    /// Messages are `Arc`-shared, so the reply and any fan-out reuse one
    /// sketch allocation.
    push_pull: bool,
}

impl CountSketch {
    /// A host counting *hosts*: inserts one identifier (`host_id`).
    pub fn counting(cfg: SketchConfig, host_id: u64) -> Self {
        let hasher = SplitMix64::new(cfg.hash_seed);
        let mut sketch = Pcsa::new(cfg.bins, cfg.width);
        sketch.insert(&hasher, host_id);
        Self { sketch, push_pull: true }
    }

    /// A host registering `value` identifiers (sketch summation). `value`
    /// identifiers cost `O(value)` once, at construction.
    pub fn summing(cfg: SketchConfig, host_id: u64, value: u64) -> Self {
        let hasher = SplitMix64::new(cfg.hash_seed);
        let mut sketch = Pcsa::new(cfg.bins, cfg.width);
        insert_value(&mut sketch, &hasher, host_id, value);
        Self { sketch, push_pull: true }
    }

    /// Disable push-pull replies (pure push gossip, exactly Fig. 2).
    pub fn push_only(mut self) -> Self {
        self.push_pull = false;
        self
    }

    /// The local sketch view.
    pub fn sketch(&self) -> &Pcsa {
        &self.sketch
    }
}

impl Estimator for CountSketch {
    fn estimate(&self) -> Option<f64> {
        Some(self.sketch.estimate())
    }
}

impl PushProtocol for CountSketch {
    type Message = Arc<Pcsa>;

    fn begin_round(&mut self, ctx: &mut RoundCtx<'_>, out: &mut Vec<(NodeId, Arc<Pcsa>)>) {
        if let Some(peer) = ctx.sample_peer() {
            out.push((peer, Arc::new(self.sketch.clone())));
        }
    }

    fn on_message(
        &mut self,
        _from: NodeId,
        msg: &Arc<Pcsa>,
        _ctx: &mut RoundCtx<'_>,
    ) -> Option<Arc<Pcsa>> {
        // A sketch of foreign geometry (a differently configured or forged
        // peer) is dropped like a lost frame: no merge, no reply.
        if !self.sketch.same_geometry(msg) {
            return None;
        }
        // Reply *before* merging: the reply is this host's own view, which
        // the initiator does not have yet (sending the merged view would be
        // fine too — OR is idempotent — but costs an extra clone).
        let reply = self.push_pull.then(|| Arc::new(self.sketch.clone()));
        self.sketch.merge(msg);
        reply
    }

    fn on_reply(&mut self, _from: NodeId, msg: &Arc<Pcsa>, _ctx: &mut RoundCtx<'_>) {
        if self.sketch.same_geometry(msg) {
            self.sketch.merge(msg);
        }
    }

    fn end_round(&mut self, _ctx: &mut RoundCtx<'_>) {}

    fn message_bytes(msg: &Arc<Pcsa>) -> usize {
        msg.wire_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::samplers::SliceSampler;
    use dynagg_sketch::estimate::expected_error;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn cfg() -> SketchConfig {
        SketchConfig::new(64, 24, 0xFEED).unwrap()
    }

    fn run(n: usize, rounds: u64, seed: u64) -> Vec<CountSketch> {
        let mut nodes: Vec<CountSketch> =
            (0..n).map(|i| CountSketch::counting(cfg(), i as u64)).collect();
        let ids: Vec<NodeId> = (0..n as NodeId).collect();
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut out = Vec::new();
        for round in 0..rounds {
            let mut queue: Vec<(usize, usize, Arc<Pcsa>)> = Vec::new();
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
    fn all_hosts_converge_to_network_size() {
        let n = 500;
        let nodes = run(n, 20, 41);
        // After convergence every host holds the same (union) sketch.
        let first = nodes[0].sketch().clone();
        for node in &nodes {
            assert_eq!(node.sketch(), &first, "gossip should reach a fixed point");
        }
        let est = nodes[0].estimate().unwrap();
        let rel = (est - n as f64).abs() / n as f64;
        assert!(rel < 3.0 * expected_error(64), "est {est:.0} rel {rel:.3}");
    }

    #[test]
    fn summing_counts_identifiers() {
        let mut a = CountSketch::summing(cfg(), 1, 700);
        let b = CountSketch::summing(cfg(), 2, 300);
        a.sketch.merge(b.sketch());
        let est = a.estimate().unwrap();
        let rel = (est - 1000.0).abs() / 1000.0;
        assert!(rel < 3.0 * expected_error(64), "sum est {est:.0}");
    }

    #[test]
    fn estimate_is_monotone_in_rounds() {
        // The motivating defect: merges only ever add bits.
        let n = 200;
        let mut prev = 0.0;
        for rounds in [1u64, 3, 6, 12] {
            let nodes = run(n, rounds, 42);
            let est = nodes[0].estimate().unwrap();
            assert!(est >= prev - 1e-9, "estimate decreased: {prev} -> {est}");
            prev = est;
        }
    }

    #[test]
    fn departed_hosts_keep_inflating_the_estimate() {
        // Converge 300 hosts, remove 150, keep gossiping: the estimate must
        // NOT drop (static sketches cannot heal).
        let n = 300;
        let mut nodes = run(n, 15, 43);
        let before = nodes[0].estimate().unwrap();
        nodes.truncate(150);
        // keep gossiping among survivors
        let ids: Vec<NodeId> = (0..150 as NodeId).collect();
        let mut rng = SmallRng::seed_from_u64(44);
        let mut out = Vec::new();
        for round in 0..15u64 {
            let mut queue: Vec<(usize, Arc<Pcsa>)> = Vec::new();
            for (i, node) in nodes.iter_mut().enumerate() {
                let peers: Vec<NodeId> = ids.iter().copied().filter(|&p| p as usize != i).collect();
                let mut sampler = SliceSampler::new(&peers);
                let mut ctx = RoundCtx { round, rng: &mut rng, peers: &mut sampler };
                out.clear();
                node.begin_round(&mut ctx, &mut out);
                for (to, m) in out.drain(..) {
                    queue.push((to as usize, m));
                }
            }
            for (to, m) in queue {
                let mut sampler = SliceSampler::new(&[]);
                let mut ctx = RoundCtx { round, rng: &mut rng, peers: &mut sampler };
                nodes[to].on_message(0, &m, &mut ctx);
            }
        }
        let after = nodes[0].estimate().unwrap();
        assert!(
            after >= before - 1e-9,
            "static sketch estimate must not heal: before {before}, after {after}"
        );
    }
}
