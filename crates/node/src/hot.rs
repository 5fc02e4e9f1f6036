//! Struct-of-arrays per-node hot state, owned by the engines.
//!
//! The discrete-event drain touches two facts about a node for *every*
//! event it processes — "is it alive?" (timers die with their owner,
//! deliveries to dark nodes are dropped) and "when does its timer fire?"
//! — while everything else in a [`NodeRuntime`](crate::runtime::NodeRuntime)
//! (protocol state, round clock, RNG) is touched only when the
//! node actually runs. Keeping those two facts inside the runtime means
//! every alive-check drags a whole runtime struct through the cache.
//! [`NodeHot`] hoists them into engine-owned parallel arrays: one packed
//! bitset word covers 64 nodes' alive bits, and the deadline array doubles
//! as a determinism guard (a popped timer must match the deadline the
//! engine recorded when it scheduled it).
//!
//! Estimates deliberately stay inside the protocol: the sampler reads
//! them once per wall-clock cadence, not per event, so hoisting them
//! would tax every `handle()` to speed up a cold path.

/// Sentinel deadline for a node with no scheduled timer (dead nodes).
pub const NO_DEADLINE: u64 = u64::MAX;

/// Engine-owned struct-of-arrays block: alive bits + timer deadlines.
#[derive(Debug, Clone, Default)]
pub struct NodeHot {
    /// Packed alive bits, 64 nodes per word.
    alive: Vec<u64>,
    /// `deadline_ms[id]` = the node's outstanding timer, or
    /// [`NO_DEADLINE`].
    deadline_ms: Vec<u64>,
    live: usize,
}

impl NodeHot {
    /// An empty block with capacity for `n` nodes.
    pub fn with_population(n: usize) -> Self {
        Self {
            alive: Vec::with_capacity(n.div_ceil(64)),
            deadline_ms: Vec::with_capacity(n),
            live: 0,
        }
    }

    /// Nodes tracked (alive or dead).
    pub fn len(&self) -> usize {
        self.deadline_ms.len()
    }

    /// Whether no node was ever added.
    pub fn is_empty(&self) -> bool {
        self.deadline_ms.is_empty()
    }

    /// Alive nodes.
    pub fn live(&self) -> usize {
        self.live
    }

    /// Append a node, alive, with its first timer deadline. Returns its
    /// id (dense, append-ordered — the engines' node-id convention).
    pub fn push(&mut self, deadline_ms: u64) -> u32 {
        let id = self.deadline_ms.len();
        self.deadline_ms.push(deadline_ms);
        let (w, b) = (id / 64, id % 64);
        if w == self.alive.len() {
            self.alive.push(0);
        }
        self.alive[w] |= 1 << b;
        self.live += 1;
        id as u32
    }

    /// Is `id` alive? (False for ids never added.)
    #[inline]
    pub fn is_alive(&self, id: u32) -> bool {
        let id = id as usize;
        self.alive.get(id / 64).is_some_and(|w| w & (1 << (id % 64)) != 0)
    }

    /// Power `id` off; returns whether it was alive. Its deadline becomes
    /// [`NO_DEADLINE`] (the stale timer event, if any, is skipped by the
    /// drain's alive check).
    pub fn kill(&mut self, id: u32) -> bool {
        let idx = id as usize;
        let Some(w) = self.alive.get_mut(idx / 64) else {
            return false;
        };
        let bit = 1u64 << (idx % 64);
        if *w & bit == 0 {
            return false;
        }
        *w &= !bit;
        self.deadline_ms[idx] = NO_DEADLINE;
        self.live -= 1;
        true
    }

    /// The node's outstanding timer deadline ([`NO_DEADLINE`] if none).
    #[inline]
    pub fn deadline(&self, id: u32) -> u64 {
        self.deadline_ms[id as usize]
    }

    /// Record the node's next timer deadline.
    #[inline]
    pub fn set_deadline(&mut self, id: u32, at_ms: u64) {
        self.deadline_ms[id as usize] = at_ms;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_kill_and_deadlines() {
        let mut hot = NodeHot::with_population(3);
        assert_eq!(hot.push(10), 0);
        assert_eq!(hot.push(12), 1);
        assert_eq!(hot.push(11), 2);
        assert_eq!(hot.live(), 3);
        assert!(hot.is_alive(1));
        assert_eq!(hot.deadline(2), 11);
        hot.set_deadline(2, 31);
        assert_eq!(hot.deadline(2), 31);
        assert!(hot.kill(1));
        assert!(!hot.kill(1), "double kill is a no-op");
        assert!(!hot.is_alive(1));
        assert_eq!(hot.deadline(1), NO_DEADLINE);
        assert_eq!(hot.live(), 2);
        assert!(!hot.is_alive(99), "unknown ids are dead");
    }

    #[test]
    fn crosses_word_boundaries() {
        let mut hot = NodeHot::with_population(130);
        for i in 0..130u64 {
            hot.push(i);
        }
        assert!(hot.is_alive(64));
        assert!(hot.is_alive(129));
        hot.kill(64);
        assert!(!hot.is_alive(64));
        assert!(hot.is_alive(63));
        assert!(hot.is_alive(65));
        assert_eq!(hot.live(), 129);
    }
}
