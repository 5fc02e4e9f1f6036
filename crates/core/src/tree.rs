//! A TAG-style spanning-tree aggregation baseline (related work, paper §VI).
//!
//! TAG, Mobile Agents and SPIN "flood small user requests for data through
//! the entire network and then use the flood path to build a spanning
//! tree. Data is then passed up the spanning tree and aggregated where
//! possible." This module implements that pattern, simplified to the round
//! model:
//!
//! * the root floods `Request(level)` every round; hosts adopt the lowest
//!   level they hear as their parent (re-flooding keeps the tree fresh
//!   under mobility),
//! * every host sends its partial aggregate `(sum, count)` — its own value
//!   plus its children's last reports — one hop up,
//! * the root combines partials into the average and floods it back down.
//!
//! Child reports expire after `child_timeout` rounds so departed subtrees
//! eventually drop out — but until they do, the root serves stale data, and
//! every re-parenting event double-counts or loses subtrees for a few
//! rounds. The paper's argument is that in highly dynamic networks the
//! tree never stabilizes, and its root is a single point of failure:
//! `scenarios/tag_tree_root_loss.toml` departs half the hosts, the root
//! among them, and every survivor's estimate freezes at the pre-failure
//! average for good.
//!
//! ```
//! use dynagg_core::protocol::Estimator;
//! use dynagg_core::tree::TagTree;
//!
//! // The root is level 0 and serves its own value until partials arrive;
//! // a non-root host has no estimate before it joins the tree.
//! let root = TagTree::new(40.0, true, 3);
//! assert_eq!(root.level(), Some(0));
//! assert_eq!(root.estimate(), Some(40.0));
//! let leaf = TagTree::new(10.0, false, 3);
//! assert_eq!(leaf.level(), None);
//! assert_eq!(leaf.estimate(), None);
//! ```

use crate::protocol::{Estimator, NodeId, PushProtocol, RoundCtx};
use std::collections::BTreeMap;

/// TAG gossip payloads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TreeMsg {
    /// Tree-building flood: "my level is `level`; adopt me as parent and be
    /// `level + 1`".
    Request {
        /// Sender's hop distance from the root.
        level: u32,
    },
    /// A partial aggregate flowing toward the root.
    Partial {
        /// Sum of values in the sender's subtree.
        sum: f64,
        /// Number of hosts in the sender's subtree.
        count: u64,
    },
    /// The computed aggregate flooding back down.
    Aggregate {
        /// The network average computed at the root.
        value: f64,
        /// Root-assigned sequence number. Hosts only adopt and re-flood
        /// aggregates newer than anything they have seen — without this,
        /// stale values circulate around cycles in the topology forever.
        seq: u64,
    },
}

#[derive(Debug, Clone, Copy)]
struct ChildReport {
    sum: f64,
    count: u64,
    last_round: u64,
}

/// One host's TAG-style aggregation state.
#[derive(Debug, Clone)]
pub struct TagTree {
    value: f64,
    is_root: bool,
    level: Option<u32>,
    parent: Option<NodeId>,
    /// Ordered by child id, so [`TagTree::partial`] adds the reports in
    /// the same order on every run (a hashed map's order, and with it the
    /// float sum's last bits, changes from process to process).
    children: BTreeMap<NodeId, ChildReport>,
    child_timeout: u64,
    estimate: Option<f64>,
    /// Sequence number of the newest aggregate seen.
    agg_seq: u64,
    /// Aggregate pending re-flood next round: `(value, seq)`.
    forward: Option<(f64, u64)>,
    neighbor_buf: Vec<NodeId>,
}

impl TagTree {
    /// A host holding `value`. Exactly one host per network must be the
    /// root (the query leader). `child_timeout` is the number of rounds a
    /// silent child's report survives (TAG's child timeout).
    pub fn new(value: f64, is_root: bool, child_timeout: u64) -> Self {
        Self {
            value,
            is_root,
            level: is_root.then_some(0),
            parent: None,
            children: BTreeMap::new(),
            child_timeout: child_timeout.max(1),
            estimate: is_root.then_some(value),
            agg_seq: 0,
            forward: None,
            neighbor_buf: Vec::new(),
        }
    }

    /// This host's hop distance from the root, once joined.
    pub fn level(&self) -> Option<u32> {
        self.level
    }

    /// This host's parent in the tree, once joined.
    pub fn parent(&self) -> Option<NodeId> {
        self.parent
    }

    /// Number of live (unexpired) child reports.
    pub fn child_count(&self) -> usize {
        self.children.len()
    }

    /// The subtree partial this host would report: its own value plus all
    /// live child reports.
    pub fn partial(&self) -> (f64, u64) {
        let mut sum = self.value;
        let mut count = 1u64;
        for r in self.children.values() {
            sum += r.sum;
            count += r.count;
        }
        (sum, count)
    }
}

impl Estimator for TagTree {
    fn estimate(&self) -> Option<f64> {
        self.estimate
    }
}

impl PushProtocol for TagTree {
    type Message = TreeMsg;

    fn begin_round(&mut self, ctx: &mut RoundCtx<'_>, out: &mut Vec<(NodeId, TreeMsg)>) {
        // Flood tree construction from any joined host.
        if let Some(level) = self.level {
            self.neighbor_buf.clear();
            ctx.peers.neighbors(ctx.rng, &mut self.neighbor_buf);
            for &n in &self.neighbor_buf {
                out.push((n, TreeMsg::Request { level }));
            }
            // Flood the aggregate downstream.
            if let Some((value, seq)) = self.forward.take() {
                for &n in &self.neighbor_buf {
                    out.push((n, TreeMsg::Aggregate { value, seq }));
                }
            }
        }
        // Report up.
        if let Some(parent) = self.parent {
            let (sum, count) = self.partial();
            out.push((parent, TreeMsg::Partial { sum, count }));
        }
    }

    fn on_message(
        &mut self,
        from: NodeId,
        msg: &TreeMsg,
        ctx: &mut RoundCtx<'_>,
    ) -> Option<TreeMsg> {
        match *msg {
            TreeMsg::Request { level } => {
                if !self.is_root {
                    let my_level = level + 1;
                    if self.level.is_none_or(|l| my_level < l) {
                        self.level = Some(my_level);
                        self.parent = Some(from);
                        self.children.clear(); // old subtree is stale
                    }
                }
            }
            TreeMsg::Partial { sum, count } => {
                if Some(from) != self.parent {
                    self.children.insert(from, ChildReport { sum, count, last_round: ctx.round });
                }
            }
            TreeMsg::Aggregate { value, seq } => {
                if !self.is_root && seq > self.agg_seq {
                    self.agg_seq = seq;
                    self.estimate = Some(value);
                    self.forward = Some((value, seq)); // flood downstream once
                }
            }
        }
        None
    }

    fn end_round(&mut self, ctx: &mut RoundCtx<'_>) {
        // Expire silent children.
        let horizon = ctx.round.saturating_sub(self.child_timeout);
        self.children.retain(|_, r| r.last_round >= horizon);
        if self.is_root {
            let (sum, count) = self.partial();
            let avg = sum / count as f64;
            self.estimate = Some(avg);
            self.agg_seq = ctx.round + 1; // fresh epoch of the aggregate
            self.forward = Some((avg, self.agg_seq));
        }
    }

    fn message_bytes(msg: &TreeMsg) -> usize {
        match msg {
            TreeMsg::Request { .. } => 4,
            TreeMsg::Partial { .. } => 16,
            TreeMsg::Aggregate { .. } => 16,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::samplers::SliceSampler;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// Drive a TAG network over a fixed neighbor topology (ring + chords to
    /// make level assignment interesting).
    fn run(values: &[f64], rounds: u64, seed: u64) -> Vec<TagTree> {
        let n = values.len();
        let mut nodes: Vec<TagTree> =
            values.iter().enumerate().map(|(i, &v)| TagTree::new(v, i == 0, 3)).collect();
        // ring topology
        let neighbors: Vec<Vec<NodeId>> =
            (0..n).map(|i| vec![((i + 1) % n) as NodeId, ((i + n - 1) % n) as NodeId]).collect();
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut out = Vec::new();
        for round in 0..rounds {
            let mut queue: Vec<(usize, usize, TreeMsg)> = Vec::new();
            for (i, node) in nodes.iter_mut().enumerate() {
                let mut sampler = SliceSampler::new(&neighbors[i]).with_broadcast_cap(8);
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
                nodes[to].on_message(from as NodeId, &m, &mut ctx);
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
    fn tree_forms_with_correct_levels() {
        let values = vec![1.0; 8];
        let nodes = run(&values, 12, 71);
        assert_eq!(nodes[0].level(), Some(0));
        // Ring of 8: levels are min hop distance, max 4.
        for (i, n) in nodes.iter().enumerate() {
            let expect = (i.min(8 - i)) as u32;
            assert_eq!(n.level(), Some(expect), "node {i}");
        }
    }

    #[test]
    fn root_computes_the_average() {
        let values: Vec<f64> = (0..8).map(|i| f64::from(i) * 10.0).collect();
        let nodes = run(&values, 20, 72);
        let avg = 35.0;
        let root_est = nodes[0].estimate().unwrap();
        assert!((root_est - avg).abs() < 1.0, "root estimate {root_est}");
    }

    #[test]
    fn aggregate_disseminates_to_leaves() {
        let values: Vec<f64> = (0..8).map(|i| f64::from(i) * 10.0).collect();
        let nodes = run(&values, 25, 73);
        for (i, n) in nodes.iter().enumerate() {
            let e = n.estimate().expect("every host should have received the aggregate");
            assert!((e - 35.0).abs() < 2.0, "node {i} estimate {e}");
        }
    }

    #[test]
    fn child_reports_expire() {
        let mut root = TagTree::new(10.0, true, 2);
        let mut rng = SmallRng::seed_from_u64(74);
        // Receive a child partial at round 0.
        {
            let mut sampler = SliceSampler::new(&[]);
            let mut ctx = RoundCtx { round: 0, rng: &mut rng, peers: &mut sampler };
            root.on_message(5, &TreeMsg::Partial { sum: 90.0, count: 1 }, &mut ctx);
            root.end_round(&mut ctx);
        }
        assert_eq!(root.child_count(), 1);
        assert_eq!(root.estimate(), Some(50.0));
        // Child goes silent; after timeout the report drops and the root's
        // estimate collapses to its own value — the staleness failure mode.
        for round in 1..6u64 {
            let mut sampler = SliceSampler::new(&[]);
            let mut ctx = RoundCtx { round, rng: &mut rng, peers: &mut sampler };
            root.end_round(&mut ctx);
        }
        assert_eq!(root.child_count(), 0);
        assert_eq!(root.estimate(), Some(10.0));
    }
}
