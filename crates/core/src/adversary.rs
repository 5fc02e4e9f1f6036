//! Semantic adversaries: hosts that follow the protocol but lie.
//!
//! The wire fuzzers prove malformed *bytes* are rejected; this module
//! covers well-formed *lies* — payloads that decode cleanly yet violate
//! the protocol's semantic contract. An [`Adversarial`] wrapper runs the
//! honest protocol unchanged and corrupts only its **outgoing** messages,
//! so an adversary converges on true state internally (the most effective
//! lie is anchored in reality) while feeding the network forged payloads.
//!
//! Three attacks cover the paper's protocol families:
//!
//! * [`Attack::MassInflation`] — scale the value component of every
//!   outgoing mass share. Push-Sum's correctness *is* conservation of
//!   mass (§III), so forged mass compounds round over round and the
//!   estimate diverges without bound. The simulator's `mass_audit`
//!   column (global `Σ value / Σ weight` vs. truth) detects it.
//! * [`Attack::StaleEpochReplay`] — rewrite outgoing epoch annotations to
//!   epoch 0. Honest receivers classify the payload as a stale epoch and
//!   drop the mass (§II-C's weak-sync rule), so the attacker's shares
//!   evaporate: a targeted mass-loss attack that degrades rather than
//!   poisons.
//! * [`Attack::SketchCorruption`] — set phantom low-order cells in
//!   outgoing FM sketches. The forged bits inflate the count estimate,
//!   but damage is structurally bounded: a sketch cell saturates (OR
//!   semantics) instead of compounding, and Count-Sketch-Reset ages
//!   forged cells out once the attacker stops — the paper's §IV-A
//!   argument that "lies age out of the sketch".
//!
//! The wrapper is transparent to both engine families: it implements
//! [`PushProtocol`] with the inner protocol's message type, so the
//! lockstep runner, the scenario registry, and the async node runtime
//! drive it like any honest host.

use crate::epoch::EpochMsg;
use crate::mass::Mass;
use crate::protocol::{Estimator, NodeId, PushProtocol, RoundCtx};
use dynagg_sketch::age::AgeMatrix;
use dynagg_sketch::pcsa::Pcsa;
use std::sync::Arc;

/// What a malicious host does to its outgoing payloads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Attack {
    /// Multiply the value component of outgoing mass by `factor` (weight
    /// untouched, so the lie is undetectable from any single message).
    MassInflation {
        /// Inflation factor per message (> 1 inflates, < 1 deflates).
        factor: f64,
    },
    /// Stamp outgoing epoch messages with epoch 0, phase 0 — a replayed
    /// relic from the network's first epoch.
    StaleEpochReplay,
    /// Set `cells` phantom low-order cells in outgoing sketches,
    /// extending every bin's live-bit run.
    SketchCorruption {
        /// Number of forged cells per message (spread across bins;
        /// `cells / num_bins` is the forged run depth per bin).
        cells: u32,
    },
}

/// A payload an [`Attack`] knows how to forge. Attacks that don't apply
/// to a payload type leave it untouched (a mass-inflation adversary
/// running a sketch protocol simply behaves honestly).
pub trait Corruptible {
    /// Apply `attack` to this outgoing payload in place.
    fn corrupt(&mut self, attack: &Attack);
}

impl Corruptible for Mass {
    fn corrupt(&mut self, attack: &Attack) {
        if let Attack::MassInflation { factor } = attack {
            self.value *= factor;
        }
    }
}

impl Corruptible for EpochMsg {
    fn corrupt(&mut self, attack: &Attack) {
        match attack {
            Attack::MassInflation { factor } => self.mass.value *= factor,
            Attack::StaleEpochReplay => {
                self.epoch = 0;
                self.phase = 0;
            }
            Attack::SketchCorruption { .. } => {}
        }
    }
}

/// Deterministic forged-cell positions: cycle the bins, filling each
/// bin's *low-order* rows bottom-up. An FM estimate reads `R` — the
/// contiguous run of live bits from bit 0 — so only a forged low prefix
/// moves it; isolated high bits are invisible to the estimator.
fn phantom_cells(num_bins: u32, width: u8, cells: u32) -> impl Iterator<Item = (u32, u8)> {
    (0..cells).filter_map(move |i| {
        if num_bins == 0 || width == 0 {
            return None;
        }
        let bin = i % num_bins;
        let row = (i / num_bins) as u8;
        (row < width).then_some((bin, row))
    })
}

impl Corruptible for Arc<AgeMatrix> {
    fn corrupt(&mut self, attack: &Attack) {
        if let Attack::SketchCorruption { cells } = attack {
            let mut forged = (**self).clone();
            for (bin, k) in phantom_cells(forged.num_bins(), forged.width(), *cells) {
                forged.claim_cell(bin, k);
            }
            // Forged cells are not this host's sourced state: release
            // ownership so they age like any other hearsay.
            forged.release_all();
            *self = Arc::new(forged);
        }
    }
}

impl Corruptible for Arc<Pcsa> {
    fn corrupt(&mut self, attack: &Attack) {
        if let Attack::SketchCorruption { cells } = attack {
            let mut forged = (**self).clone();
            for (bin, k) in phantom_cells(forged.num_bins(), forged.width(), *cells) {
                forged.set_cell(bin, k);
            }
            *self = Arc::new(forged);
        }
    }
}

/// A host that runs `P` honestly but may forge its outgoing payloads.
/// Honest instances (`attack = None`) are bit-identical to a bare `P`.
#[derive(Debug, Clone)]
pub struct Adversarial<P> {
    inner: P,
    attack: Option<Attack>,
    /// First round at which the attack activates.
    from_round: u64,
}

impl<P> Adversarial<P> {
    /// An honest host (the wrapper is a no-op).
    pub fn honest(inner: P) -> Self {
        Self { inner, attack: None, from_round: 0 }
    }

    /// A malicious host forging outgoing payloads with `attack` from
    /// round `from_round` onward.
    pub fn malicious(inner: P, attack: Attack, from_round: u64) -> Self {
        Self { inner, attack: Some(attack), from_round }
    }

    /// The wrapped protocol.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// Is this host configured to attack?
    pub fn is_malicious(&self) -> bool {
        self.attack.is_some()
    }

    fn active_attack(&self, round: u64) -> Option<&Attack> {
        self.attack.as_ref().filter(|_| round >= self.from_round)
    }
}

impl<P: Estimator> Estimator for Adversarial<P> {
    fn estimate(&self) -> Option<f64> {
        self.inner.estimate()
    }

    fn is_settling(&self) -> bool {
        self.inner.is_settling()
    }

    fn disruptions(&self) -> u64 {
        self.inner.disruptions()
    }

    fn audit_mass(&self) -> Option<Mass> {
        self.inner.audit_mass()
    }
}

impl<P: PushProtocol> PushProtocol for Adversarial<P>
where
    P::Message: Corruptible,
{
    type Message = P::Message;

    fn begin_round(&mut self, ctx: &mut RoundCtx<'_>, out: &mut Vec<(NodeId, Self::Message)>) {
        let start = out.len();
        self.inner.begin_round(ctx, out);
        if let Some(attack) = self.active_attack(ctx.round) {
            for (_, msg) in &mut out[start..] {
                msg.corrupt(attack);
            }
        }
    }

    fn on_message(
        &mut self,
        from: NodeId,
        msg: &Self::Message,
        ctx: &mut RoundCtx<'_>,
    ) -> Option<Self::Message> {
        let mut reply = self.inner.on_message(from, msg, ctx);
        if let (Some(reply), Some(attack)) = (reply.as_mut(), self.active_attack(ctx.round)) {
            reply.corrupt(attack);
        }
        reply
    }

    fn on_reply(&mut self, from: NodeId, msg: &Self::Message, ctx: &mut RoundCtx<'_>) {
        self.inner.on_reply(from, msg, ctx);
    }

    fn end_round(&mut self, ctx: &mut RoundCtx<'_>) {
        self.inner.end_round(ctx);
    }

    fn message_bytes(msg: &Self::Message) -> usize {
        P::message_bytes(msg)
    }

    fn depart_gracefully(&mut self) {
        self.inner.depart_gracefully();
    }

    fn hint_atomic_exchanges(&mut self) {
        // Forgery happens on the outgoing message Arc, never on the inner
        // state, so the wrapped protocol's lattice argument is unaffected.
        self.inner.hint_atomic_exchanges();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::push_sum_revert::PushSumRevert;
    use crate::samplers::SliceSampler;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn emit<P: PushProtocol>(
        node: &mut P,
        round: u64,
        peers: &[NodeId],
    ) -> Vec<(NodeId, P::Message)>
    where
        P::Message: Clone,
    {
        let mut rng = SmallRng::seed_from_u64(7);
        let mut sampler = SliceSampler::new(peers);
        let mut ctx = RoundCtx { round, rng: &mut rng, peers: &mut sampler };
        let mut out = Vec::new();
        node.begin_round(&mut ctx, &mut out);
        out
    }

    #[test]
    fn honest_wrapper_is_transparent() {
        let mut bare = PushSumRevert::new(40.0, 0.1);
        let mut wrapped = Adversarial::honest(PushSumRevert::new(40.0, 0.1));
        let a = emit(&mut bare, 0, &[1]);
        let b = emit(&mut wrapped, 0, &[1]);
        assert_eq!(a, b, "honest wrapper emits identical messages");
        assert_eq!(bare.estimate(), wrapped.estimate());
        assert_eq!(wrapped.audit_mass(), bare.audit_mass());
        assert!(!wrapped.is_malicious());
    }

    #[test]
    fn mass_inflation_scales_value_not_weight() {
        let mut node = Adversarial::malicious(
            PushSumRevert::new(10.0, 0.0),
            Attack::MassInflation { factor: 10.0 },
            0,
        );
        let out = emit(&mut node, 0, &[1]);
        assert_eq!(out.len(), 1);
        let sent = out[0].1;
        assert!((sent.value - 50.0).abs() < 1e-12, "half of 10 inflated ×10: {}", sent.value);
        assert!((sent.weight - 0.5).abs() < 1e-12, "weight untouched: {}", sent.weight);
        // The attacker's own books stay honest: `mass` (replaced only at
        // end_round) still audits the uninflated pre-send value.
        assert_eq!(node.audit_mass().unwrap().value, 10.0, "internal mass is unforged");
    }

    #[test]
    fn attack_waits_for_its_activation_round() {
        let mk = || {
            Adversarial::malicious(
                PushSumRevert::new(8.0, 0.0),
                Attack::MassInflation { factor: 3.0 },
                5,
            )
        };
        let early = emit(&mut mk(), 4, &[1]);
        let late = emit(&mut mk(), 5, &[1]);
        assert_eq!(early[0].1.value, 4.0, "honest before from_round");
        assert_eq!(late[0].1.value, 12.0, "forging from round 5");
    }

    #[test]
    fn stale_replay_rewrites_epoch_annotations() {
        use crate::epoch::EpochPushSum;
        let inner = EpochPushSum::new(10.0, 20).with_clock_offset(45);
        let mut node = Adversarial::malicious(inner, Attack::StaleEpochReplay, 0);
        let out = emit(&mut node, 0, &[1]);
        assert_eq!(out[0].1.epoch, 0, "epoch rewritten to the stale epoch");
        assert_eq!(out[0].1.phase, 0);
        assert_eq!(node.inner().epoch(), 2, "internal clock untouched");
    }

    #[test]
    fn sketch_corruption_inflates_but_saturates() {
        use dynagg_sketch::hash::SplitMix64;
        let h = SplitMix64::new(1);
        let mut m = AgeMatrix::new(16, 16);
        for id in 0..32u64 {
            m.claim_id(&h, id);
        }
        let honest = Arc::new(m);
        let mut forged = honest.clone();
        forged.corrupt(&Attack::SketchCorruption { cells: 64 });
        let mut twice = forged.clone();
        twice.corrupt(&Attack::SketchCorruption { cells: 64 });
        let cutoff = dynagg_sketch::cutoff::Cutoff::paper_uniform();
        let honest_est = honest.estimate(&cutoff);
        let forged_est = forged.estimate(&cutoff);
        assert!(forged_est > honest_est * 2.0, "{honest_est} -> {forged_est}");
        assert_eq!(
            forged.estimate(&cutoff),
            twice.estimate(&cutoff),
            "corruption saturates: repeating the attack adds nothing"
        );
        assert_eq!(forged.owned_cells(), 0, "forged cells are unowned hearsay");
    }

    #[test]
    fn corruption_never_serves_stale_encode_memo() {
        use crate::wire::WireMessage;
        let h = dynagg_sketch::hash::SplitMix64::new(3);
        let mut m = AgeMatrix::new(8, 12);
        for id in 0..8u64 {
            m.claim_id(&h, id);
        }
        let mut msg = Arc::new(m);
        // Warm the version-stamped encode memo, then corrupt in place.
        let honest_bytes = msg.encoded();
        let honest_version = msg.version();
        msg.corrupt(&Attack::SketchCorruption { cells: 32 });
        assert_ne!(msg.version(), honest_version, "corruption must bump the version");
        let forged_bytes = msg.encoded();
        assert_ne!(forged_bytes, honest_bytes, "memo must not serve pre-corruption bytes");
        assert_eq!(msg.encoded_len(), forged_bytes.len());
        let decoded = dynagg_sketch::codec::decode_ages(&forged_bytes).unwrap();
        assert_eq!(Arc::new(decoded), msg, "forged payload round-trips exactly");
    }

    #[test]
    fn pcsa_corruption_sets_high_cells() {
        let mut p = Arc::new(Pcsa::new(8, 16));
        p.corrupt(&Attack::SketchCorruption { cells: 80 });
        assert!(p.estimate() > 1000.0, "forged run depth 10 explodes the count: {}", p.estimate());
        let mut untouched = Arc::new(Pcsa::new(8, 16));
        untouched.corrupt(&Attack::MassInflation { factor: 9.0 });
        assert!(untouched.is_empty(), "inapplicable attacks leave sketches honest");
    }
}
