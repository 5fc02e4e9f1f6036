//! **Count-Sketch-Reset** (paper §IV-A, Fig. 5): self-healing distributed
//! counting.
//!
//! Each host keeps an [`AgeMatrix`] instead of a bit sketch: its own
//! cell(s) are pinned at age 0, every other cell ages by one per round, and
//! gossip min-merges matrices. A cell whose last source departed ages
//! uniformly everywhere; once its age passes the cutoff `f(k) = 7 + k/4`
//! the corresponding bit expires and the estimate heals — typically within
//! ~10 rounds of a massive failure (Fig. 9).
//!
//! The cutoff is *network-size agnostic*: it depends only on the gossip
//! propagation time of a bit with `≈ 2^-(k+1)·n` sources, which is constant
//! in `n` for the low bits and grows linearly in `k` (Fig. 6, §IV).
//!
//! Hosts may source multiple identifiers: `value` cells for sketch
//! summation, or a fixed multiplier (Fig. 11 uses 100 identifiers per host
//! to raise `R(A)` on tiny networks — see [`CountSketchReset::with_multiplier`]).
//!
//! ```
//! use dynagg_core::config::ResetConfig;
//! use dynagg_core::count_sketch_reset::CountSketchReset;
//! use dynagg_core::protocol::Estimator;
//!
//! // A counting host sources exactly one identifier (§IV-A): one owned
//! // cell pinned at age 0, and the estimate is always defined.
//! let host = CountSketchReset::counting(ResetConfig::paper(1_000, 7), 42);
//! assert!(host.estimate().is_some());
//! assert_eq!(host.ages().owned_cells(), 1);
//! assert_eq!(host.ages().finite_cells().count(), 1, "only the sourced cell is set");
//! ```

use crate::config::ResetConfig;
use crate::protocol::{Estimator, NodeId, PushProtocol, RoundCtx};
use dynagg_sketch::age::AgeMatrix;
use dynagg_sketch::cutoff::Cutoff;
use dynagg_sketch::hash::SplitMix64;
use std::sync::Arc;

/// Min-merge `msg` into a copy-on-write matrix: in place when `ages` is
/// the sole holder, otherwise a single fused pass building the merged
/// matrix into a fresh allocation ([`AgeMatrix::merged_with`]) rather
/// than `Arc::make_mut`'s copy-then-rewrite.
///
/// A `msg` of another geometry — a well-formed frame from a peer
/// configured differently, or forged — is not merged: `ages` stays as it
/// is and the result is `false`, which callers treat like a lost frame.
#[inline]
fn merge_cow(ages: &mut Arc<AgeMatrix>, msg: &AgeMatrix) -> bool {
    if !ages.same_geometry(msg) {
        return false;
    }
    match Arc::get_mut(ages) {
        Some(own) => own.merge_min(msg),
        None => *ages = Arc::new(ages.merged_with(msg)),
    }
    true
}

/// One host's Count-Sketch-Reset state.
///
/// The matrix lives behind an [`Arc`] so that outgoing snapshots are a
/// reference-count bump, not a deep copy: mutation goes through
/// [`Arc::make_mut`], which clones lazily only while a previously emitted
/// snapshot is still in flight (copy-on-write).
#[derive(Debug, Clone)]
pub struct CountSketchReset {
    ages: Arc<AgeMatrix>,
    cutoff: Cutoff,
    push_pull: bool,
    /// identifiers sourced per unit of counted value (1 for plain counting).
    multiplier: u64,
    /// Set by [`PushProtocol::hint_atomic_exchanges`]: replies may share
    /// the post-merge state (see `on_message`).
    atomic_exchanges: bool,
}

impl CountSketchReset {
    /// A host counting *hosts*: sources one identifier.
    pub fn counting(cfg: ResetConfig, host_id: u64) -> Self {
        Self::with_multiplier(cfg, host_id, 1)
    }

    /// A host sourcing `multiplier` identifiers ("each node acquires 100
    /// identifiers and adjusts its estimate of the network size
    /// accordingly", §V-B). [`Estimator::estimate`] divides back by the
    /// multiplier, so it reports *hosts*; the raw identifier count is
    /// available via [`CountSketchReset::raw_estimate`].
    pub fn with_multiplier(cfg: ResetConfig, host_id: u64, multiplier: u64) -> Self {
        let hasher = SplitMix64::new(cfg.sketch.hash_seed);
        let mut ages = AgeMatrix::new(cfg.sketch.bins, cfg.sketch.width);
        ages.claim_value(&hasher, host_id, multiplier);
        Self {
            ages: Arc::new(ages),
            cutoff: cfg.cutoff,
            push_pull: cfg.push_pull,
            multiplier: multiplier.max(1),
            atomic_exchanges: false,
        }
    }

    /// A host registering `value` identifiers (dynamic sketch summation,
    /// §IV-B's multiple-insertion alternative).
    pub fn summing(cfg: ResetConfig, host_id: u64, value: u64) -> Self {
        let hasher = SplitMix64::new(cfg.sketch.hash_seed);
        let mut ages = AgeMatrix::new(cfg.sketch.bins, cfg.sketch.width);
        ages.claim_value(&hasher, host_id, value);
        Self {
            ages: Arc::new(ages),
            cutoff: cfg.cutoff,
            push_pull: cfg.push_pull,
            multiplier: 1,
            atomic_exchanges: false,
        }
    }

    /// The local age matrix (exposed for Fig. 6's counter-distribution
    /// experiment).
    pub fn ages(&self) -> &AgeMatrix {
        &self.ages
    }

    /// The configured cutoff.
    pub fn cutoff(&self) -> Cutoff {
        self.cutoff
    }

    /// The raw identifier-count estimate, before the multiplier scaling.
    pub fn raw_estimate(&self) -> f64 {
        self.ages.estimate(&self.cutoff)
    }

    /// Estimate divided by the identifier multiplier (host count for
    /// Fig. 11's group-size panels). Identical to [`Estimator::estimate`];
    /// kept as an explicitly named reading.
    pub fn scaled_estimate(&self) -> Option<f64> {
        Some(self.raw_estimate() / self.multiplier as f64)
    }

    /// Start a round *without* peer selection: age the counters (Fig. 5
    /// step 2) and return the snapshot to ship. Composite protocols use
    /// this to pair the exchange with other sub-protocols on one peer.
    /// The snapshot is a reference-count bump; the next mutation copies
    /// only if the snapshot is still held.
    pub fn emit_snapshot(&mut self) -> Arc<AgeMatrix> {
        Arc::make_mut(&mut self.ages).tick();
        Arc::clone(&self.ages)
    }

    /// Absorb a received matrix (composite-protocol delivery path);
    /// returns the pre-merge snapshot to reply with when push-pull is on.
    /// A matrix of foreign geometry is dropped like a lost frame: no
    /// merge, no reply.
    pub fn absorb(&mut self, msg: &AgeMatrix) -> Option<Arc<AgeMatrix>> {
        let reply = self.push_pull.then(|| Arc::clone(&self.ages));
        // With a reply alive this copies-on-write, preserving the
        // pre-merge bytes the reply must carry.
        if merge_cow(&mut self.ages, msg) {
            reply
        } else {
            None
        }
    }
}

impl Estimator for CountSketchReset {
    /// The estimate in the units the host registered: host count for
    /// `counting`/`with_multiplier` constructions, value sum for `summing`.
    fn estimate(&self) -> Option<f64> {
        Some(self.raw_estimate() / self.multiplier as f64)
    }
}

impl PushProtocol for CountSketchReset {
    type Message = Arc<AgeMatrix>;

    fn begin_round(&mut self, ctx: &mut RoundCtx<'_>, out: &mut Vec<(NodeId, Arc<AgeMatrix>)>) {
        // Fig. 5 step 2: increment all counters except own cells...
        Arc::make_mut(&mut self.ages).tick();
        // ...step 3: send the incremented array to a random peer. (The
        // "send to Self" leg is the matrix we keep — the outgoing copy is
        // a reference-count bump on it.)
        if let Some(peer) = ctx.sample_peer() {
            out.push((peer, Arc::clone(&self.ages)));
        }
    }

    fn on_message(
        &mut self,
        _from: NodeId,
        msg: &Arc<AgeMatrix>,
        _ctx: &mut RoundCtx<'_>,
    ) -> Option<Arc<AgeMatrix>> {
        // "the peer can also respond by sending its own array" (§IV-A).
        if self.atomic_exchanges {
            // Under atomic exchanges, replying with the *post-merge* array
            // is observationally identical to the pre-merge snapshot: the
            // initiator's state already dominates the message it sent, so
            // join(initiator, pre ⊔ sent) = join(initiator, pre). That
            // makes the reply a reference-count bump instead of a copy.
            (merge_cow(&mut self.ages, msg) && self.push_pull).then(|| Arc::clone(&self.ages))
        } else {
            // A discrete-event engine may let the initiator tick while the
            // reply is in flight, so the reply must pin the pre-merge
            // bytes; the merge then builds into a fresh allocation.
            self.absorb(msg)
        }
    }

    fn on_reply(&mut self, _from: NodeId, msg: &Arc<AgeMatrix>, _ctx: &mut RoundCtx<'_>) {
        // A reply of foreign geometry is not merged — a lost frame.
        merge_cow(&mut self.ages, msg);
    }

    fn end_round(&mut self, _ctx: &mut RoundCtx<'_>) {}

    fn message_bytes(msg: &Arc<AgeMatrix>) -> usize {
        msg.wire_bytes()
    }

    fn depart_gracefully(&mut self) {
        // A signing-off host stops pinning its cells; they will age out at
        // all peers within f(k) rounds. (Silent failures skip this — the
        // healing still happens, which is the whole point.)
        Arc::make_mut(&mut self.ages).release_all();
    }

    fn hint_atomic_exchanges(&mut self) {
        self.atomic_exchanges = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SketchConfig;
    use crate::samplers::SliceSampler;
    use dynagg_sketch::estimate::expected_error;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn cfg() -> ResetConfig {
        ResetConfig {
            sketch: SketchConfig::new(64, 24, 0xBEEF).unwrap(),
            cutoff: Cutoff::paper_uniform(),
            push_pull: true,
        }
    }

    struct Net {
        nodes: Vec<CountSketchReset>,
        rng: SmallRng,
        round: u64,
    }

    impl Net {
        fn new(n: usize, seed: u64) -> Self {
            Self {
                nodes: (0..n).map(|i| CountSketchReset::counting(cfg(), i as u64)).collect(),
                rng: SmallRng::seed_from_u64(seed),
                round: 0,
            }
        }

        fn step(&mut self) {
            let n = self.nodes.len();
            let ids: Vec<NodeId> = (0..n as NodeId).collect();
            let mut out = Vec::new();
            let mut queue: Vec<(usize, usize, Arc<AgeMatrix>)> = Vec::new();
            for (i, node) in self.nodes.iter_mut().enumerate() {
                let peers: Vec<NodeId> = ids.iter().copied().filter(|&p| p as usize != i).collect();
                let mut sampler = SliceSampler::new(&peers);
                let mut ctx =
                    RoundCtx { round: self.round, rng: &mut self.rng, peers: &mut sampler };
                out.clear();
                node.begin_round(&mut ctx, &mut out);
                for (to, m) in out.drain(..) {
                    queue.push((i, to as usize, m));
                }
            }
            for (from, to, m) in queue {
                let mut sampler = SliceSampler::new(&[]);
                let mut ctx =
                    RoundCtx { round: self.round, rng: &mut self.rng, peers: &mut sampler };
                if let Some(reply) = self.nodes[to].on_message(from as NodeId, &m, &mut ctx) {
                    let mut sampler = SliceSampler::new(&[]);
                    let mut ctx =
                        RoundCtx { round: self.round, rng: &mut self.rng, peers: &mut sampler };
                    self.nodes[from].on_reply(to as NodeId, &reply, &mut ctx);
                }
            }
            self.round += 1;
        }

        fn mean_estimate(&self) -> f64 {
            self.nodes.iter().map(|n| n.estimate().unwrap()).sum::<f64>() / self.nodes.len() as f64
        }
    }

    #[test]
    fn converges_to_network_size() {
        let n = 400;
        let mut net = Net::new(n, 51);
        for _ in 0..20 {
            net.step();
        }
        let est = net.mean_estimate();
        let rel = (est - n as f64).abs() / n as f64;
        assert!(rel < 3.0 * expected_error(64), "est {est:.0} rel {rel:.3}");
    }

    #[test]
    fn heals_after_mass_failure() {
        let n = 400;
        let mut net = Net::new(n, 52);
        for _ in 0..20 {
            net.step();
        }
        let before = net.mean_estimate();
        net.nodes.truncate(n / 2); // silent failure of half the network
        for _ in 0..20 {
            net.step();
        }
        let after = net.mean_estimate();
        let target = (n / 2) as f64;
        assert!(
            (after - target).abs() / target < 0.5,
            "estimate should heal toward {target}: before {before:.0}, after {after:.0}"
        );
        assert!(after < before * 0.75, "estimate must visibly drop after failure");
    }

    #[test]
    fn infinite_cutoff_never_heals() {
        let mut c = cfg();
        c.cutoff = Cutoff::Infinite;
        let n = 300;
        let mut net = Net {
            nodes: (0..n).map(|i| CountSketchReset::counting(c, i as u64)).collect(),
            rng: SmallRng::seed_from_u64(53),
            round: 0,
        };
        for _ in 0..15 {
            net.step();
        }
        let before = net.mean_estimate();
        net.nodes.truncate(n / 2);
        for _ in 0..15 {
            net.step();
        }
        let after = net.mean_estimate();
        assert!(
            after >= before * 0.95,
            "Infinite cutoff = static sketch: no healing (before {before:.0}, after {after:.0})"
        );
    }

    #[test]
    fn graceful_departure_releases_cells() {
        let mut node = CountSketchReset::counting(cfg(), 7);
        assert!(node.ages().owned_cells() > 0);
        node.depart_gracefully();
        assert_eq!(node.ages().owned_cells(), 0);
    }

    #[test]
    fn multiplier_scales_estimate_back() {
        // A single host sourcing 100 ids: raw_estimate counts identifiers,
        // estimate() reports hosts (raw / 100).
        let node = CountSketchReset::with_multiplier(cfg(), 3, 100);
        let raw = node.raw_estimate();
        let est = node.estimate().unwrap();
        assert!((est - raw / 100.0).abs() < 1e-9);
        assert_eq!(node.scaled_estimate(), node.estimate());
        // raw counts ~100 identifiers (within sketch error of a single view)
        assert!(raw > 20.0 && raw < 500.0, "raw {raw}");
    }

    #[test]
    fn joining_host_is_counted() {
        let n = 200;
        let mut net = Net::new(n, 54);
        for _ in 0..15 {
            net.step();
        }
        let before = net.mean_estimate();
        // 200 new hosts join.
        for i in n..2 * n {
            net.nodes.push(CountSketchReset::counting(cfg(), i as u64));
        }
        for _ in 0..15 {
            net.step();
        }
        let after = net.mean_estimate();
        assert!(
            after > before * 1.4,
            "estimate should grow after doubling: {before:.0} -> {after:.0}"
        );
    }
}
