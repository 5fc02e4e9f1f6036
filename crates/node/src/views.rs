//! Membership-view bookkeeping with an inverted index, so churn repairs
//! touch only the views that actually contain a departed node.
//!
//! The naive way to handle a membership change is to re-draw every live
//! node's view — `O(live × view)` work per churn round, which dominates
//! everything else at 100 000 hosts. [`ViewTable`] keeps, next to each
//! node's view, the inverted **holders** index (`holders[x]` = the nodes
//! whose view currently contains `x`), so when `x` departs the engine can
//! walk exactly the views that reference it and patch one slot each:
//! `O(holders(x))` ≈ `O(view)` per departure instead of `O(live × view)`
//! per round.
//!
//! The table is pure bookkeeping — *what* goes into a view (topology,
//! sampling) is the [`Membership`] implementation's business, and *when*
//! to patch is the engines' shared coordinator's ([`crate::control`]).
//! It is also the only copy of a view: the drains lend
//! [`ViewTable::view`] to a node's runtime per event, as it stands, which
//! is why [`ViewTable::check_consistency`] also demands that no view
//! contains its owner.
//!
//! ## The touch pass
//!
//! A departure scans 64 `holders[m]` lists picked by the victim's view,
//! then 64 `views[h]` lists picked by its holders — random lists of a
//! table that, with its index, overflows a 2 MB L2 from a few thousand
//! hosts up. Timed on the `async_churn` benchmark workload (4 000 hosts,
//! 64 departures a round), a scan cost ≈ 100–125 ns where the compares of
//! a 64-entry list cost a fifth of that: the scans wait on memory, and
//! since each leaves its loop at an unpredictable position only 3–4 of
//! the independent misses are ever in flight. So before each walk one
//! tight read-only loop loads the first element of every list the walk is
//! about to scan; nothing in it depends on anything but the loads, they
//! overlap, and the scans find their lines resident. It changes no state
//! and no order. (Loading two lines per list measured no better than one;
//! a branch-free 16-lane compare for the scans themselves bought 2 % —
//! they were never compare-bound.)
//!
//! [`Membership`]: dynagg_sim::membership::Membership

use dynagg_core::protocol::NodeId;

/// Per-node bounded views plus the inverted holders index.
#[derive(Debug, Default)]
pub struct ViewTable {
    /// `views[node]` — the node's current peer view.
    views: Vec<Vec<NodeId>>,
    /// `holders[x]` — every node whose view contains `x`, one entry per
    /// occurrence (the uniform with-replacement regime can hold a peer
    /// twice; the index mirrors that exactly).
    holders: Vec<Vec<NodeId>>,
}

impl ViewTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Grow the table to cover node ids `0..n`.
    pub fn ensure(&mut self, n: usize) {
        if self.views.len() < n {
            self.views.resize_with(n, Vec::new);
            self.holders.resize_with(n, Vec::new);
        }
    }

    /// Node ids the table covers.
    pub fn len(&self) -> usize {
        self.views.len()
    }

    /// Whether the table covers no nodes yet.
    pub fn is_empty(&self) -> bool {
        self.views.is_empty()
    }

    /// `node`'s current view.
    pub fn view(&self, node: NodeId) -> &[NodeId] {
        &self.views[node as usize]
    }

    /// Hand the views over, indexed by node id, dropping the index (the
    /// live service's boot: its views never change again).
    pub(crate) fn into_views(self) -> Vec<Vec<NodeId>> {
        self.views
    }

    /// Number of peers in `node`'s view.
    pub fn view_len(&self, node: NodeId) -> usize {
        self.views[node as usize].len()
    }

    /// Does `holder`'s view contain `member`? (Linear scan — views are
    /// small by construction.)
    pub fn has_member(&self, holder: NodeId, member: NodeId) -> bool {
        self.views[holder as usize].contains(&member)
    }

    /// Replace `node`'s whole view, keeping the holders index consistent.
    pub fn assign(&mut self, node: NodeId, view: &[NodeId]) {
        let mut old = std::mem::take(&mut self.views[node as usize]);
        for &m in &old {
            Self::unindex(&mut self.holders[m as usize], node);
        }
        old.clear();
        old.extend_from_slice(view);
        for &m in &old {
            debug_assert_ne!(m, node, "a view never contains its owner");
            self.holders[m as usize].push(node);
        }
        self.views[node as usize] = old;
    }

    /// Drop `node`'s own view (it departed); its slots in *other* views
    /// are found through [`ViewTable::take_holders_into`].
    pub fn clear_node(&mut self, node: NodeId) {
        let old = std::mem::take(&mut self.views[node as usize]);
        Self::touch(&self.holders, &old);
        for &m in &old {
            Self::unindex(&mut self.holders[m as usize], node);
        }
        // Keep the (now empty) buffer for a possible future assign.
        let mut old = old;
        old.clear();
        self.views[node as usize] = old;
    }

    /// Move the holders of `x` into `out` (cleared first), emptying the
    /// index entry — the caller walks them, calling
    /// [`ViewTable::drop_slot`] for each live one.
    pub fn take_holders_into(&mut self, x: NodeId, out: &mut Vec<NodeId>) {
        out.clear();
        std::mem::swap(&mut self.holders[x as usize], out);
        Self::touch(&self.views, out);
    }

    /// Remove one occurrence of `member` from `holder`'s view *without*
    /// touching `holders[member]` (the caller already took it).
    pub fn drop_slot(&mut self, holder: NodeId, member: NodeId) {
        Self::unindex(&mut self.views[holder as usize], member);
    }

    /// Append `member` to `holder`'s view, indexing it.
    pub fn push_slot(&mut self, holder: NodeId, member: NodeId) {
        debug_assert_ne!(holder, member);
        self.views[holder as usize].push(member);
        self.holders[member as usize].push(holder);
    }

    /// Overwrite slot `idx` of `holder`'s view with `member`, unindexing
    /// the evicted peer.
    pub fn replace_slot(&mut self, holder: NodeId, idx: usize, member: NodeId) {
        debug_assert_ne!(holder, member);
        let evicted = self.views[holder as usize][idx];
        Self::unindex(&mut self.holders[evicted as usize], holder);
        self.views[holder as usize][idx] = member;
        self.holders[member as usize].push(holder);
    }

    /// The touch pass (module docs): read the first element of `lists[i]`
    /// for every `i` in `ids`, and nothing else, so the misses of the
    /// walk that follows start together.
    fn touch(lists: &[Vec<NodeId>], ids: &[NodeId]) {
        let mut acc = 0;
        for &i in ids {
            acc ^= lists[i as usize].first().copied().unwrap_or(0);
        }
        std::hint::black_box(acc);
    }

    fn unindex(list: &mut Vec<NodeId>, x: NodeId) {
        if let Some(p) = list.iter().position(|&v| v == x) {
            list.swap_remove(p);
        }
    }

    /// Check the bidirectional views ↔ holders invariant, and that no
    /// view contains its owner — a view is lent to its node as it stands,
    /// so owner-freedom is what keeps a node from gossiping to itself
    /// (tests only — `O(n × view²)`).
    pub fn check_consistency(&self) {
        let count = |list: &[NodeId], x: NodeId| list.iter().filter(|&&v| v == x).count();
        for (node, view) in self.views.iter().enumerate() {
            assert!(!view.contains(&(node as NodeId)), "view {node} contains its owner");
            for &m in view {
                assert_eq!(
                    count(view, m),
                    count(&self.holders[m as usize], node as NodeId),
                    "view {node} ↔ holders[{m}] out of sync"
                );
            }
        }
        for (m, holders) in self.holders.iter().enumerate() {
            for &h in holders {
                assert!(
                    self.views[h as usize].contains(&(m as NodeId)),
                    "holders[{m}] lists {h}, whose view lacks {m}"
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assign_and_reassign_keep_the_index_consistent() {
        let mut t = ViewTable::new();
        t.ensure(5);
        t.assign(0, &[1, 2, 3]);
        t.assign(4, &[1, 2]);
        t.check_consistency();
        assert_eq!(t.view(0), &[1, 2, 3]);
        t.assign(0, &[2, 4]);
        t.check_consistency();
        assert_eq!(t.view(0), &[2, 4]);
    }

    #[test]
    fn departure_walks_only_the_holders() {
        let mut t = ViewTable::new();
        t.ensure(6);
        t.assign(0, &[1, 2]);
        t.assign(3, &[2, 4]);
        t.assign(5, &[2]);
        // 2 departs: exactly the views of 0, 3, 5 reference it.
        t.clear_node(2);
        let mut holders = Vec::new();
        t.take_holders_into(2, &mut holders);
        holders.sort_unstable();
        assert_eq!(holders, vec![0, 3, 5]);
        for &h in &holders {
            t.drop_slot(h, 2);
        }
        t.check_consistency();
        assert_eq!(t.view(0), &[1]);
        assert_eq!(t.view(3), &[4]);
        assert!(t.view(5).is_empty());
    }

    #[test]
    fn slot_surgery_reindexes() {
        let mut t = ViewTable::new();
        t.ensure(5);
        t.assign(0, &[1, 2]);
        t.push_slot(0, 3);
        t.check_consistency();
        t.replace_slot(0, 0, 4); // evicts 1
        t.check_consistency();
        assert_eq!(t.view(0), &[4, 2, 3]);
        let mut holders = Vec::new();
        t.take_holders_into(1, &mut holders);
        assert!(holders.is_empty(), "evicted peer fully unindexed");
    }

    #[test]
    fn duplicate_occurrences_are_tracked_per_slot() {
        // The uniform with-replacement regime can hold a peer twice; each
        // occurrence carries its own index entry.
        let mut t = ViewTable::new();
        t.ensure(3);
        t.assign(0, &[1, 2, 1]);
        t.check_consistency();
        let mut holders = Vec::new();
        t.take_holders_into(1, &mut holders);
        assert_eq!(holders, vec![0, 0]);
        t.drop_slot(0, 1);
        t.drop_slot(0, 1);
        t.check_consistency();
        assert_eq!(t.view(0), &[2]);
    }
}
