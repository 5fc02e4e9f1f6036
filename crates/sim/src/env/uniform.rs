//! The uniform gossip environment: every live host can exchange with every
//! other ("100,000 hosts with full connectivity. Idealized models of this
//! form are commonly employed in the analysis of gossip protocols", §V).

use super::Environment;
use crate::alive::AliveSet;
use crate::membership::{sample_view_from, Membership, ViewChange};
use dynagg_core::protocol::NodeId;
use rand::rngs::SmallRng;

/// Broadcast-set size handed to tree-style protocols (uniform gossip has
/// no real neighborhoods; a bounded random subset stands in).
const BROADCAST_FANOUT: usize = 8;

/// Full-connectivity uniform peer selection.
#[derive(Debug, Clone, Default)]
pub struct UniformEnv;

impl UniformEnv {
    /// The uniform environment.
    pub fn new() -> Self {
        Self
    }
}

impl Membership for UniformEnv {
    /// Full connectivity never changes shape: views only go stale through
    /// failures and churn, which the consuming engine repairs itself.
    fn advance(
        &mut self,
        _round: u64,
        _alive: &AliveSet,
        _changed: &mut Vec<NodeId>,
    ) -> ViewChange {
        ViewChange::Unchanged
    }

    fn sample(&self, node: NodeId, alive: &AliveSet, rng: &mut SmallRng) -> Option<NodeId> {
        alive.sample_other(node, rng)
    }

    /// A bounded uniform sample of the live population (the partial-view
    /// membership services deployed gossip systems use).
    fn view_into(
        &self,
        node: NodeId,
        alive: &AliveSet,
        cap: usize,
        rng: &mut SmallRng,
        out: &mut Vec<NodeId>,
    ) {
        sample_view_from(alive.ids(), node, alive, cap, rng, out);
    }

    fn name(&self) -> &'static str {
        "uniform"
    }
}

impl Environment for UniformEnv {
    fn degree(&self, node: NodeId, alive: &AliveSet) -> usize {
        alive.len().saturating_sub(usize::from(alive.contains(node)))
    }

    fn neighbors(&self, node: NodeId, alive: &AliveSet, rng: &mut SmallRng, out: &mut Vec<NodeId>) {
        // A random subset, deduplicated: tree protocols flood to these.
        let want = BROADCAST_FANOUT.min(alive.len().saturating_sub(1));
        let mut tries = 0;
        while out.len() < want && tries < want * 8 {
            if let Some(p) = alive.sample_other(node, rng) {
                if !out.contains(&p) {
                    out.push(p);
                }
            }
            tries += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn samples_only_live_others() {
        let mut alive = AliveSet::full(10);
        alive.remove(3);
        alive.remove(7);
        let env = UniformEnv::new();
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..1000 {
            let p = env.sample(0, &alive, &mut rng).unwrap();
            assert_ne!(p, 0);
            assert_ne!(p, 3);
            assert_ne!(p, 7);
        }
    }

    #[test]
    fn degree_counts_everyone_else() {
        let alive = AliveSet::full(10);
        let env = UniformEnv::new();
        assert_eq!(env.degree(0, &alive), 9);
    }

    #[test]
    #[allow(clippy::default_constructed_unit_structs)] // `default()` is what is checked
    fn neighbors_are_distinct_and_bounded() {
        let alive = AliveSet::full(100);
        // `default()` is the same environment as `new()`: a tree protocol
        // gets a full broadcast set from either.
        for env in [UniformEnv::new(), UniformEnv::default()] {
            let mut rng = SmallRng::seed_from_u64(2);
            let mut out = Vec::new();
            env.neighbors(9, &alive, &mut rng, &mut out);
            assert_eq!(out.len(), 8);
            let mut dedup = out.clone();
            dedup.sort_unstable();
            dedup.dedup();
            assert_eq!(dedup.len(), out.len());
            assert!(!out.contains(&9));
        }
    }

    #[test]
    fn views_are_bounded_live_only_and_self_free() {
        let mut alive = AliveSet::full(200);
        alive.remove(17);
        let env = UniformEnv::new();
        let mut rng = SmallRng::seed_from_u64(9);
        let mut view = Vec::new();
        env.view_into(3, &alive, 12, &mut rng, &mut view);
        assert_eq!(view.len(), 12);
        assert!(!view.contains(&3) && !view.contains(&17));
        // Small populations get the full live set.
        let small = AliveSet::full(8);
        env.view_into(3, &small, 12, &mut rng, &mut view);
        assert_eq!(view.len(), 7);
    }

    #[test]
    fn isolated_when_alone() {
        let mut alive = AliveSet::full(2);
        alive.remove(1);
        let env = UniformEnv::new();
        let mut rng = SmallRng::seed_from_u64(3);
        assert_eq!(env.sample(0, &alive, &mut rng), None);
        assert_eq!(env.degree(0, &alive), 0);
    }
}
