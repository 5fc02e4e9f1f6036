//! The membership/topology layer: who can a host currently reach?
//!
//! The paper separates gossip *protocols* from gossip *environments*
//! (§V); this module separates one more concern out of the environment:
//! **membership** — the per-host bounded view of reachable peers, and how
//! that view changes over time (mobility, trace replay, churn). Both
//! engine families consume it:
//!
//! * the lockstep engines (`crate::runner`) sample exchange partners
//!   through [`Membership::sample`] each round and drive topology time
//!   with [`Membership::begin_round`];
//! * the asynchronous discrete-event engines (`dynagg-node`'s `AsyncNet`
//!   and `ShardedNet`) materialize [`Membership::view_into`] into one
//!   table of views, lent to each node's runtime per event — which is why
//!   a view must never contain its own node — and use
//!   [`Membership::advance`]'s change report to repair
//!   **only the views that a topology change actually touched** — the
//!   incremental path that makes per-round churn affordable at 100 000
//!   hosts (a full view refresh is `O(live × view)`; patching is
//!   `O(changed × view)`).
//!
//! Every concrete topology lives in [`crate::env`]; the full
//! [`crate::env::Environment`] trait extends `Membership` with the
//! lockstep-only queries (degree, broadcast sets, group structure).

use crate::alive::AliveSet;
use dynagg_core::protocol::NodeId;
use dynagg_trace::GroupView;
use rand::rngs::SmallRng;

/// What a [`Membership::advance`] round boundary did to the topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViewChange {
    /// No host's neighborhood changed; existing views remain valid.
    Unchanged,
    /// Only the hosts pushed into `advance`'s `changed` buffer have a
    /// different neighborhood; everyone else's view remains valid.
    Nodes,
    /// Potentially every host's neighborhood changed; consumers should
    /// rebuild all views.
    All,
}

/// A source of per-host peer views over a changing topology.
///
/// Implementations precompute whatever they need in [`Membership::advance`]
/// (clique member lists, trace adjacency for the round's timestamp) and
/// then answer per-host queries. All randomness comes from caller-supplied
/// RNGs or streams derived from the construction seed, so every
/// implementation is a pure function of its inputs — the determinism
/// contract the whole harness rests on.
pub trait Membership {
    /// Advance the topology to `round` over the live set `alive`
    /// (mobility events, per-host migrations, trace replay), reporting
    /// what changed: hosts whose neighborhood differs from the previous
    /// round are pushed into `changed` (cleared first) when the return
    /// value is [`ViewChange::Nodes`]; [`ViewChange::All`] means the
    /// buffer is not filled and everything should be rebuilt.
    fn advance(&mut self, round: u64, alive: &AliveSet, changed: &mut Vec<NodeId>) -> ViewChange;

    /// [`Membership::advance`] without the change report — the lockstep
    /// engines re-derive peer sets from scratch every round, so they never
    /// consume the delta.
    fn begin_round(&mut self, round: u64, alive: &AliveSet) {
        let mut discard = Vec::new();
        let _ = self.advance(round, alive, &mut discard);
    }

    /// Sample one exchange partner for `node` (`None` when `node` is
    /// isolated).
    fn sample(&self, node: NodeId, alive: &AliveSet, rng: &mut SmallRng) -> Option<NodeId>;

    /// Draw one candidate to refill a repaired view slot of `node` (the
    /// consuming engine dedupes and checks liveness). Defaults to
    /// [`Membership::sample`], which is right wherever views are *samples*
    /// of a pool (uniform, clustered — a clique-mate steps in). Topologies
    /// whose views are literal adjacency (the spatial grid, trace radio
    /// range) return `None`: a departed neighbor has no replacement, the
    /// view simply shrinks. Exchange sampling must NOT be overridden to
    /// `None` — only this repair draw.
    fn repair_peer(&self, node: NodeId, alive: &AliveSet, rng: &mut SmallRng) -> Option<NodeId> {
        self.sample(node, alive, rng)
    }

    /// Fill `out` (cleared first) with `node`'s bounded membership view:
    /// at most `cap` live peers, never `node` itself. Views are
    /// duplicate-free except in the uniform with-replacement regime
    /// (`live > 16 × cap`), where the expected duplicate count is a
    /// fraction of one entry — see [`crate::env::UniformEnv`].
    fn view_into(
        &self,
        node: NodeId,
        alive: &AliveSet,
        cap: usize,
        rng: &mut SmallRng,
        out: &mut Vec<NodeId>,
    );

    /// The per-host group structure, where the topology has one (the
    /// trace environment's 10-minute "nearby" components). Metrics use
    /// this for Fig. 11's per-group truths; it lives here rather than on
    /// [`crate::env::Environment`] so the asynchronous engines — which
    /// hold only the `Membership` layer — can sample group truths too.
    fn group_view(&self) -> Option<&GroupView> {
        None
    }

    /// Human-readable name for logs and CSV headers.
    fn name(&self) -> &'static str;
}

/// Words of the on-stack "position taken" bitmap: covers every
/// duplicate-free pool behind a 64-peer view (`16 × 64` positions).
const TAKEN_STACK_WORDS: usize = 16;

/// Fill `out` with up to `cap` distinct **live** picks from `pool`,
/// excluding `node` — the shared sampling kernel behind the uniform and
/// clustered [`Membership::view_into`] implementations. The alive filter
/// matters when the pool is stale (a clustered member list between a
/// failure boundary and the next `advance`); a pool of live ids pays one
/// always-true check per draw. Small pools are copied whole; mid-size
/// pools are rejection-sampled duplicate-free — pool entries are distinct
/// ids, so "already picked" is one bit per pool *position*; pools beyond
/// `16 × cap` are sampled with replacement, where the expected duplicate
/// count (≈ `cap²/(2·pool)`) is a fraction of one entry. Either way one
/// view costs `O(cap)` RNG draws, not `O(pool)` — rejection attempts are
/// bounded, so a mostly-dead pool yields a short view rather than a
/// stall.
pub(crate) fn sample_view_from(
    pool: &[NodeId],
    node: NodeId,
    alive: &AliveSet,
    cap: usize,
    rng: &mut SmallRng,
    out: &mut Vec<NodeId>,
) {
    use rand::Rng;
    out.clear();
    if pool.len() <= cap + 1 {
        out.extend(pool.iter().copied().filter(|&p| p != node && alive.contains(p)));
        return;
    }
    let dedupe = pool.len() <= cap.saturating_mul(16);
    let words = if dedupe { pool.len().div_ceil(64) } else { 0 };
    let mut on_stack = [0u64; TAKEN_STACK_WORDS];
    let mut on_heap = Vec::new();
    let taken = if words <= TAKEN_STACK_WORDS {
        &mut on_stack[..words]
    } else {
        on_heap.resize(words, 0u64);
        &mut on_heap[..]
    };
    let max_attempts = cap.saturating_mul(16) + 16;
    let mut attempts = 0;
    while out.len() < cap && attempts < max_attempts {
        attempts += 1;
        let at = rng.gen_range(0..pool.len());
        let pick = pool[at];
        let (word, bit) = (at / 64, 1u64 << (at % 64));
        if pick != node && alive.contains(pick) && !(dedupe && taken[word] & bit != 0) {
            if dedupe {
                taken[word] |= bit;
            }
            out.push(pick);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    /// The kernel as it was before positions were tracked by bit: dedupe
    /// by scanning the view. The reference the bitmap kernel must match
    /// draw for draw.
    fn scanning_reference(
        pool: &[NodeId],
        node: NodeId,
        alive: &AliveSet,
        cap: usize,
        rng: &mut SmallRng,
        out: &mut Vec<NodeId>,
    ) {
        use rand::Rng;
        out.clear();
        if pool.len() <= cap + 1 {
            out.extend(pool.iter().copied().filter(|&p| p != node && alive.contains(p)));
            return;
        }
        let dedupe = pool.len() <= cap.saturating_mul(16);
        let max_attempts = cap.saturating_mul(16) + 16;
        let mut attempts = 0;
        while out.len() < cap && attempts < max_attempts {
            attempts += 1;
            let pick = pool[rng.gen_range(0..pool.len())];
            if pick != node && alive.contains(pick) && (!dedupe || !out.contains(&pick)) {
                out.push(pick);
            }
        }
    }

    #[test]
    fn bitmap_dedupe_matches_the_scanning_kernel_draw_for_draw() {
        use rand::Rng;
        // Cap 80 is beyond the issue's list: 16 × 80 positions is the one
        // size here whose bitmap does not fit the stack words.
        for cap in [1usize, 6, 64, 80] {
            for len in [cap + 2, 100, 16 * cap] {
                // Distinct ids in no particular order.
                let pool: Vec<NodeId> =
                    (0..len as NodeId).map(|i| (i * 7 + 3) % len as NodeId).collect();
                for stale in [false, true] {
                    let mut alive = AliveSet::full(len);
                    if stale {
                        (0..len as NodeId).step_by(2).for_each(|id| {
                            alive.remove(id);
                        });
                    }
                    for seed in 0..200u64 {
                        let node = pool[seed as usize % len];
                        let mut rngs =
                            [SmallRng::seed_from_u64(seed), SmallRng::seed_from_u64(seed)];
                        let (mut got, mut want) = (Vec::new(), Vec::new());
                        sample_view_from(&pool, node, &alive, cap, &mut rngs[0], &mut got);
                        scanning_reference(&pool, node, &alive, cap, &mut rngs[1], &mut want);
                        assert_eq!(got, want, "cap {cap}, pool {len}, stale {stale}, seed {seed}");
                        assert_eq!(
                            rngs[0].gen::<u64>(),
                            rngs[1].gen::<u64>(),
                            "RNG state diverged: cap {cap}, pool {len}, stale {stale}, seed {seed}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn small_pools_are_copied_whole() {
        let pool: Vec<NodeId> = (0..5).collect();
        let alive = AliveSet::full(5);
        let mut rng = SmallRng::seed_from_u64(1);
        let mut out = Vec::new();
        sample_view_from(&pool, 2, &alive, 8, &mut rng, &mut out);
        assert_eq!(out, vec![0, 1, 3, 4]);
    }

    #[test]
    fn midsize_pools_sample_duplicate_free() {
        let pool: Vec<NodeId> = (0..100).collect();
        let alive = AliveSet::full(100);
        let mut rng = SmallRng::seed_from_u64(2);
        let mut out = Vec::new();
        sample_view_from(&pool, 7, &alive, 16, &mut rng, &mut out);
        assert_eq!(out.len(), 16);
        assert!(!out.contains(&7));
        let mut sorted = out.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), out.len(), "dedupe regime yields distinct peers");
    }

    #[test]
    fn huge_pools_stay_o_cap() {
        let pool: Vec<NodeId> = (0..100_000).collect();
        let alive = AliveSet::full(100_000);
        let mut rng = SmallRng::seed_from_u64(3);
        let mut out = Vec::new();
        sample_view_from(&pool, 0, &alive, 64, &mut rng, &mut out);
        assert_eq!(out.len(), 64);
        assert!(!out.contains(&0));
    }

    #[test]
    fn stale_pools_are_filtered_not_stalled() {
        // A clustered member list between a failure boundary and the next
        // advance can reference dead hosts: views must skip them, and a
        // mostly-dead pool must terminate with a short view, not spin.
        let pool: Vec<NodeId> = (0..40).collect();
        let mut alive = AliveSet::full(40);
        for id in 8..40 {
            alive.remove(id);
        }
        let mut rng = SmallRng::seed_from_u64(4);
        let mut out = Vec::new();
        sample_view_from(&pool, 1, &alive, 6, &mut rng, &mut out);
        assert!(out.len() <= 6);
        assert!(!out.is_empty(), "live candidates exist and are found");
        for &p in &out {
            assert!(alive.contains(p) && p != 1);
        }
    }
}
