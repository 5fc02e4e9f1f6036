//! The spatially distributed gossip environment (paper §IV, citing Kempe,
//! Kleinberg, Demers): hosts on a D=2 grid that "can only communicate with
//! adjacent nodes", approximating uniform peer selection with multi-hop
//! random walks whose length `d` is drawn with `P[d] ∝ 1/d²`.
//!
//! This environment is what makes the cutoff argument transfer beyond the
//! idealized uniform model: spatial gossip also delivers (poly)logarithmic
//! propagation, so the linear-in-`k` cutoff keeps working with a different
//! slope. The ablation benches sweep exactly that.

use super::Environment;
use crate::alive::AliveSet;
use crate::membership::{Membership, ViewChange};
use dynagg_core::protocol::NodeId;
use rand::rngs::SmallRng;
use rand::Rng;

/// A √n × √n grid with 4-adjacency and `1/d²` random-walk long links.
#[derive(Debug, Clone)]
pub struct SpatialEnv {
    side: u32,
    /// Maximum random-walk length: the grid diameter.
    max_walk: u32,
}

impl SpatialEnv {
    /// A grid sized for `n` hosts: side = ⌈√n⌉. Node `i` sits at
    /// `(i % side, i / side)`.
    pub fn for_nodes(n: usize) -> Self {
        let side = (n as f64).sqrt().ceil() as u32;
        Self { side: side.max(1), max_walk: 2 * side.max(1) }
    }

    /// Grid side length.
    pub fn side(&self) -> u32 {
        self.side
    }

    fn coords(&self, node: NodeId) -> (u32, u32) {
        (node % self.side, node / self.side)
    }

    fn node_at(&self, x: u32, y: u32) -> NodeId {
        y * self.side + x
    }

    /// Grid neighbors of `node` (alive only).
    fn grid_neighbors(&self, node: NodeId, alive: &AliveSet, out: &mut Vec<NodeId>) {
        let (x, y) = self.coords(node);
        let side = self.side;
        let mut push = |nx: u32, ny: u32| {
            let id = self.node_at(nx, ny);
            if alive.contains(id) {
                out.push(id);
            }
        };
        if x > 0 {
            push(x - 1, y);
        }
        if x + 1 < side {
            push(x + 1, y);
        }
        if y > 0 {
            push(x, y - 1);
        }
        if y + 1 < side {
            push(x, y + 1);
        }
    }

    /// Draw a walk length with `P[d] ∝ 1/d²` over `1..=max_walk` via
    /// inverse-CDF on the truncated zeta(2) distribution.
    fn sample_walk_len(&self, rng: &mut SmallRng) -> u32 {
        // Normalizer H = Σ 1/d² for d = 1..=max_walk.
        // max_walk is small (≤ a few hundred); compute lazily each call is
        // wasteful, so approximate with the closed tail: for the modest
        // sizes here a linear scan is still cheap and exact.
        let mut h = 0.0;
        for d in 1..=self.max_walk {
            h += 1.0 / (f64::from(d) * f64::from(d));
        }
        let target = rng.gen::<f64>() * h;
        let mut acc = 0.0;
        for d in 1..=self.max_walk {
            acc += 1.0 / (f64::from(d) * f64::from(d));
            if acc >= target {
                return d;
            }
        }
        self.max_walk
    }
}

impl Membership for SpatialEnv {
    /// The grid is static: adjacency only changes through failures, which
    /// the consuming engine repairs itself.
    fn advance(
        &mut self,
        _round: u64,
        _alive: &AliveSet,
        _changed: &mut Vec<NodeId>,
    ) -> ViewChange {
        ViewChange::Unchanged
    }

    /// Exchange partners come from `1/d²` random walks, but a *view slot*
    /// never does: views are the literal grid adjacency, and a departed
    /// neighbor has no replacement — the view simply shrinks.
    fn repair_peer(&self, _node: NodeId, _alive: &AliveSet, _rng: &mut SmallRng) -> Option<NodeId> {
        None
    }

    fn sample(&self, node: NodeId, alive: &AliveSet, rng: &mut SmallRng) -> Option<NodeId> {
        // Random walk of length d over live grid neighbors.
        let d = self.sample_walk_len(rng);
        let mut cur = node;
        let mut buf = Vec::with_capacity(4);
        for _ in 0..d {
            buf.clear();
            self.grid_neighbors(cur, alive, &mut buf);
            if buf.is_empty() {
                break; // walled in by failures
            }
            cur = buf[rng.gen_range(0..buf.len())];
        }
        (cur != node).then_some(cur)
    }

    /// A spatial view is the live grid adjacency itself (≤ 4 peers):
    /// "hosts can only communicate with adjacent nodes". A departed
    /// neighbor has no replacement — the view simply shrinks, exactly as a
    /// radio neighborhood would.
    fn view_into(
        &self,
        node: NodeId,
        alive: &AliveSet,
        cap: usize,
        _rng: &mut SmallRng,
        out: &mut Vec<NodeId>,
    ) {
        out.clear();
        self.grid_neighbors(node, alive, out);
        out.truncate(cap);
    }

    fn name(&self) -> &'static str {
        "spatial-grid"
    }
}

impl Environment for SpatialEnv {
    fn degree(&self, node: NodeId, alive: &AliveSet) -> usize {
        let mut buf = Vec::with_capacity(4);
        self.grid_neighbors(node, alive, &mut buf);
        buf.len()
    }

    fn neighbors(
        &self,
        node: NodeId,
        alive: &AliveSet,
        _rng: &mut SmallRng,
        out: &mut Vec<NodeId>,
    ) {
        self.grid_neighbors(node, alive, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn corner_has_two_neighbors() {
        let env = SpatialEnv::for_nodes(16); // 4x4
        let alive = AliveSet::full(16);
        assert_eq!(env.degree(0, &alive), 2);
        // center cell
        assert_eq!(env.degree(5, &alive), 4);
    }

    #[test]
    fn walk_stays_on_live_cells() {
        let env = SpatialEnv::for_nodes(25);
        let mut alive = AliveSet::full(25);
        for id in [6u32, 8, 16, 18] {
            alive.remove(id);
        }
        let mut rng = SmallRng::seed_from_u64(4);
        for _ in 0..500 {
            if let Some(p) = env.sample(12, &alive, &mut rng) {
                assert!(alive.contains(p), "walk endpoint {p} must be alive");
                assert_ne!(p, 12);
            }
        }
    }

    #[test]
    fn walk_lengths_favor_short_distances() {
        let env = SpatialEnv::for_nodes(625); // side 25: walks up to 50 hops
        let mut rng = SmallRng::seed_from_u64(5);
        let mut ones = 0;
        let n = 10_000;
        for _ in 0..n {
            if env.sample_walk_len(&mut rng) == 1 {
                ones += 1;
            }
        }
        // P[d=1] = 1 / H(50) ≈ 1/1.625 ≈ 0.615.
        let frac = f64::from(ones) / f64::from(n);
        assert!((0.55..=0.68).contains(&frac), "P[d=1] = {frac}");
    }

    #[test]
    fn isolated_node_samples_none() {
        let env = SpatialEnv::for_nodes(9);
        let mut alive = AliveSet::full(9);
        // strand node 4 (center of 3x3) by removing its cross.
        for id in [1u32, 3, 5, 7] {
            alive.remove(id);
        }
        let mut rng = SmallRng::seed_from_u64(6);
        assert_eq!(env.sample(4, &alive, &mut rng), None);
        assert_eq!(env.degree(4, &alive), 0);
    }

    #[test]
    fn long_links_reach_far_cells() {
        // With 1/d² walks some exchanges must leave the immediate
        // neighborhood — that's what gives spatial gossip its log-time
        // propagation.
        let env = SpatialEnv::for_nodes(400); // 20x20
        let alive = AliveSet::full(400);
        let mut rng = SmallRng::seed_from_u64(7);
        let (x0, y0) = env.coords(210);
        let mut far = 0;
        for _ in 0..2000 {
            if let Some(p) = env.sample(210, &alive, &mut rng) {
                let (x, y) = env.coords(p);
                let dist = x.abs_diff(x0) + y.abs_diff(y0);
                if dist >= 3 {
                    far += 1;
                }
            }
        }
        assert!(far > 100, "expected a long-link tail, got {far}/2000 far endpoints");
    }
}
