//! The epoch lifecycle subsystem (paper §II-C): drift clocks, the
//! restart/settling protocol, and the epoch-reset baseline built on them.
//!
//! Epoch-reset aggregation is "the simplest form of dynamic aggregation":
//! wrap a static protocol and periodically restart it, so errors from
//! departed hosts only survive until the next reset. No leader is needed —
//! messages carry an epoch counter and hosts adopt the highest epoch they
//! see ("weak clock synchronization by annotating each message with a
//! periodically incremented epoch counter").
//!
//! The paper's critique, which this module makes measurable:
//!
//! 1. the right epoch length depends on the network's convergence time,
//!    which depends on the network size — *itself an aggregate* — and
//! 2. "node mobility may result in disruptions in aggregate computation
//!    while the destination clique settles on a new epoch number".
//!
//! Three pieces model that critique:
//!
//! * [`DriftModel`] — how a host's local clock misbehaves: perfectly
//!   [`DriftModel::Synced`], a [`DriftModel::ConstantSkew`] rate, a
//!   [`DriftModel::Bernoulli`] missed-tick process (a slept radio), or
//!   [`DriftModel::RandomWalk`] jitter.
//! * [`EpochClock`] — a per-host logical clock: an epoch number plus a
//!   phase (ticks into the current epoch), advanced through a drift model,
//!   optionally starting at a configurable offset (cliques with
//!   independent histories sit at unrelated epoch numbers).
//! * [`EpochPushSum`] — Push-Sum restarted every epoch, with the paper's
//!   restart/settling protocol: a host receiving a *disruptively* higher
//!   epoch number discards its partial sums, rejoins at the new epoch, and
//!   spends a settling window during which its estimate is unusable
//!   ([`crate::protocol::Estimator::estimate`] returns `None` and
//!   [`crate::protocol::Estimator::is_settling`] reports `true`).
//!
//! A restart is *benign* — the normal weak-sync rollover — only when the
//! incoming epoch is exactly one ahead, the receiver is within its
//! settling-window length of its own rollover, and the sender freshly
//! rolled. Everything else (a migrant carrying a distant epoch number, a
//! mid-epoch jump) is a disruption: the interrupted epoch's partial sums
//! *and* the previously published value are discarded — the host
//! abandoned that epoch chain — leaving only the fresh epoch's
//! half-converged partials to serve once settling ends. `crates/bench`'s
//! `epoch-disruption` scenario sweeps exactly this against
//! [`crate::push_sum_revert::PushSumRevert`], which needs no
//! synchronization at all.
//!
//! ```
//! use dynagg_core::epoch::{DriftModel, EpochPushSum};
//! use dynagg_core::protocol::Estimator;
//!
//! // A host in a clique whose clock runs 12 ticks ahead of a peer's.
//! let ahead = EpochPushSum::new(10.0, 20).with_clock_offset(32);
//! assert_eq!(ahead.epoch(), 1);
//! let behind = EpochPushSum::new(50.0, 20).with_drift_model(DriftModel::Synced);
//! assert_eq!(behind.epoch(), 0);
//! // Fresh hosts publish their own value until the first epoch completes.
//! assert_eq!(behind.estimate(), Some(50.0));
//! assert!(!behind.is_settling());
//! ```

use crate::error::ProtocolError;
use crate::mass::{Mass, MASS_WIRE_BYTES};
use crate::protocol::{Estimator, NodeId, PushProtocol, RoundCtx};
use rand::rngs::SmallRng;
use rand::Rng;

/// How a host's logical clock drifts relative to the global round counter
/// (§II-C: "weak clock synchronization").
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DriftModel {
    /// A perfect clock: exactly one tick per round.
    Synced,
    /// Constant skew: the clock advances `rate` ticks per round
    /// (deterministically, via a fractional carry). `rate < 1` models a
    /// slow crystal, `rate > 1` a fast one.
    ConstantSkew {
        /// Ticks per round; must be finite and non-negative.
        rate: f64,
    },
    /// Missed ticks: with probability `skip_prob` per round the clock does
    /// not advance (a slept radio, a missed beacon).
    Bernoulli {
        /// Per-round probability of missing a tick, in `[0, 1]`.
        skip_prob: f64,
    },
    /// Random-walk jitter: with probability `step_prob / 2` the clock
    /// skips a tick, with probability `step_prob / 2` it double-ticks.
    /// Unbiased in expectation, but host offsets diffuse over time.
    RandomWalk {
        /// Per-round probability of a jitter step, in `[0, 1]`.
        step_prob: f64,
    },
}

impl DriftModel {
    fn validate(self) -> Result<Self, ProtocolError> {
        let ok = match self {
            DriftModel::Synced => true,
            DriftModel::ConstantSkew { rate } => rate.is_finite() && rate >= 0.0,
            DriftModel::Bernoulli { skip_prob } => (0.0..=1.0).contains(&skip_prob),
            DriftModel::RandomWalk { step_prob } => (0.0..=1.0).contains(&step_prob),
        };
        if ok {
            Ok(self)
        } else {
            Err(ProtocolError::InvalidDrift)
        }
    }

    /// Ticks to advance this round. `carry` accumulates fractional skew
    /// between calls. Random models draw from `rng`; deterministic models
    /// consume no randomness (so adding drift never perturbs unrelated
    /// RNG streams).
    ///
    /// Public because clock consumers outside the epoch lifecycle reuse
    /// the same drift semantics — the async node runtime
    /// (`dynagg-node`) drives each device's round timer through this.
    pub fn ticks(self, carry: &mut f64, rng: &mut SmallRng) -> u64 {
        match self {
            DriftModel::Synced => 1,
            DriftModel::ConstantSkew { rate } => {
                *carry += rate;
                let whole = carry.floor();
                *carry -= whole;
                whole as u64
            }
            DriftModel::Bernoulli { skip_prob } => {
                u64::from(skip_prob == 0.0 || rng.gen::<f64>() >= skip_prob)
            }
            DriftModel::RandomWalk { step_prob } => {
                if step_prob == 0.0 {
                    return 1;
                }
                let x = rng.gen::<f64>();
                if x < step_prob / 2.0 {
                    0
                } else if x < step_prob {
                    2
                } else {
                    1
                }
            }
        }
    }
}

/// A per-host logical epoch clock: an epoch number plus a phase (ticks
/// into the current epoch), advanced through a [`DriftModel`].
///
/// ```
/// use dynagg_core::epoch::EpochClock;
///
/// let mut clock = EpochClock::new(10).with_offset(25); // 2 epochs + 5 ticks
/// assert_eq!((clock.epoch(), clock.phase()), (2, 5));
/// for _ in 0..5 {
///     clock.tick_synced();
/// }
/// assert!(clock.due());
/// clock.roll();
/// assert_eq!((clock.epoch(), clock.phase()), (3, 0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct EpochClock {
    epoch_len: u64,
    drift: DriftModel,
    /// Fractional tick accumulator for [`DriftModel::ConstantSkew`].
    carry: f64,
    epoch: u64,
    phase: u64,
}

impl EpochClock {
    /// A synced clock at epoch 0, phase 0, rolling every `epoch_len` ticks.
    ///
    /// # Panics
    /// Panics if `epoch_len` is zero; use [`EpochClock::try_new`].
    pub fn new(epoch_len: u64) -> Self {
        Self::try_new(epoch_len).expect("invalid epoch length")
    }

    /// Fallible constructor.
    pub fn try_new(epoch_len: u64) -> Result<Self, ProtocolError> {
        if epoch_len == 0 {
            return Err(ProtocolError::InvalidEpochLength(epoch_len));
        }
        Ok(Self { epoch_len, drift: DriftModel::Synced, carry: 0.0, epoch: 0, phase: 0 })
    }

    /// Start the clock `ticks` logical ticks into its life: epoch
    /// `ticks / epoch_len`, phase `ticks % epoch_len`. Models cliques with
    /// independent histories sitting at unrelated epoch numbers.
    pub fn with_offset(mut self, ticks: u64) -> Self {
        self.epoch = ticks / self.epoch_len;
        self.phase = ticks % self.epoch_len;
        self
    }

    /// Replace the drift model.
    ///
    /// # Panics
    /// Panics if the model's parameters are out of range; use
    /// [`EpochClock::try_with_drift`].
    pub fn with_drift(mut self, drift: DriftModel) -> Self {
        self.drift = drift.validate().expect("invalid drift model");
        self
    }

    /// Fallible [`EpochClock::with_drift`].
    pub fn try_with_drift(mut self, drift: DriftModel) -> Result<Self, ProtocolError> {
        self.drift = drift.validate()?;
        Ok(self)
    }

    /// Current epoch number.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Ticks into the current epoch.
    pub fn phase(&self) -> u64 {
        self.phase
    }

    /// The configured epoch length in ticks.
    pub fn epoch_len(&self) -> u64 {
        self.epoch_len
    }

    /// The configured drift model.
    pub fn drift(&self) -> DriftModel {
        self.drift
    }

    /// Has the current epoch run its full length?
    pub fn due(&self) -> bool {
        self.phase >= self.epoch_len
    }

    /// Is the clock in the second half of its epoch? (The window in which
    /// the current partial sums are trusted over the published value.)
    pub fn in_second_half(&self) -> bool {
        self.phase * 2 >= self.epoch_len
    }

    /// Is the clock within `window` ticks of its natural rollover? (The
    /// window in which an epoch+1 adoption counts as a benign rollover
    /// rather than a §II-C disruption.)
    pub fn near_rollover(&self, window: u64) -> bool {
        self.phase + window >= self.epoch_len
    }

    /// Advance by one round through the drift model.
    pub fn tick(&mut self, rng: &mut SmallRng) {
        self.phase += self.drift.ticks(&mut self.carry, rng);
    }

    /// Advance exactly one tick, ignoring drift (useful in tests and for
    /// runtimes with externally disciplined clocks).
    pub fn tick_synced(&mut self) {
        self.phase += 1;
    }

    /// Natural rollover: enter the next epoch at phase 0.
    pub fn roll(&mut self) {
        self.epoch += 1;
        self.phase = 0;
    }

    /// Forced restart: jump to `epoch`, phase 0. The phase reset is what
    /// desynchronizes a disrupted clique from the epoch's source — the
    /// next rollover happens a partial epoch later, sustaining §II-C's
    /// epoch-number variance.
    pub fn restart_at(&mut self, epoch: u64) {
        self.epoch = epoch;
        self.phase = 0;
    }
}

/// An epoch-annotated Push-Sum message: the explicit epoch number and the
/// sender's phase within it, so receivers can classify a restart as benign
/// rollover vs. §II-C disruption. Wire format in [`crate::wire`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochMsg {
    /// Sender's epoch counter.
    pub epoch: u64,
    /// Sender's ticks into that epoch (saturated to `u32::MAX` on wire).
    pub phase: u32,
    /// The mass share.
    pub mass: Mass,
}

/// Serialized [`EpochMsg`] size: epoch (8) + phase (4) + mass (16).
pub const EPOCH_MSG_WIRE_BYTES: usize = 8 + 4 + MASS_WIRE_BYTES;

/// Push-Sum restarted every epoch via weak epoch counters, with the
/// restart/settling lifecycle of §II-C.
///
/// Lifecycle of one host:
///
/// * **Natural rollover** (its own clock reaches `epoch_len`): publish the
///   finished epoch's estimate, reset mass, enter the next epoch.
/// * **Benign adoption** (message from epoch+1, receiver late in its
///   epoch, sender early in the new one): same as a rollover — weak sync
///   working as intended.
/// * **Disruption** (any other higher-epoch message — a migrant from a
///   clique whose clock history differs): discard the partial sums
///   *without publishing*, jump to the new epoch, and spend
///   [`EpochPushSum::settle_len`] rounds settling, during which
///   [`Estimator::estimate`] is `None` and the local clock does not tick.
///
/// While settling or early in an epoch the host serves the last published
/// value; only past the epoch midpoint does it trust the fresh partial
/// sums. [`Estimator::disruptions`] counts lifetime disruptions so the
/// simulator can report disruption/settling time series.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochPushSum {
    value: f64,
    clock: EpochClock,
    /// Rounds of unusable estimates after a disruption.
    settle_len: u64,
    /// Settling rounds remaining (0 = steady).
    settling: u64,
    /// Lifetime disruptive restarts.
    disruptions: u64,
    mass: Mass,
    inbox: Mass,
    /// The final estimate of the last *completed* epoch — what the host
    /// reports while the current epoch is still converging.
    published: Option<f64>,
}

impl EpochPushSum {
    /// An averaging host holding `value` that restarts every `epoch_len`
    /// rounds, with a synced clock and a settling window of
    /// `max(1, epoch_len / 4)`.
    ///
    /// # Panics
    /// Panics if `epoch_len` is zero; use [`EpochPushSum::try_new`].
    pub fn new(value: f64, epoch_len: u64) -> Self {
        Self::try_new(value, epoch_len).expect("invalid epoch length")
    }

    /// Fallible constructor.
    pub fn try_new(value: f64, epoch_len: u64) -> Result<Self, ProtocolError> {
        let clock = EpochClock::try_new(epoch_len)?;
        Ok(Self {
            value,
            clock,
            settle_len: (epoch_len / 4).max(1),
            settling: 0,
            disruptions: 0,
            mass: Mass::averaging(value),
            inbox: Mass::ZERO,
            published: Some(value),
        })
    }

    /// Replace the clock's drift model.
    ///
    /// # Panics
    /// Panics if the model's parameters are out of range.
    pub fn with_drift_model(mut self, drift: DriftModel) -> Self {
        self.clock = self.clock.with_drift(drift);
        self
    }

    /// Start the host's clock `ticks` logical ticks into its life (see
    /// [`EpochClock::with_offset`]). Hosts in cliques with independent
    /// histories carry unrelated epoch numbers — the §II-C scenario.
    pub fn with_clock_offset(mut self, ticks: u64) -> Self {
        self.clock = self.clock.with_offset(ticks);
        self
    }

    /// Override the settling window length (rounds of unusable estimates
    /// after a disruption).
    pub fn with_settle_len(mut self, settle_len: u64) -> Self {
        self.settle_len = settle_len;
        self
    }

    /// Current epoch number.
    pub fn epoch(&self) -> u64 {
        self.clock.epoch()
    }

    /// The configured epoch length in rounds.
    pub fn epoch_len(&self) -> u64 {
        self.clock.epoch_len()
    }

    /// The host's logical clock.
    pub fn clock(&self) -> &EpochClock {
        &self.clock
    }

    /// The configured settling-window length.
    pub fn settle_len(&self) -> u64 {
        self.settle_len
    }

    /// Record the current estimate as the last completed epoch's value.
    fn publish(&mut self) {
        if let Some(e) = self.mass.estimate() {
            self.published = Some(e);
        }
    }

    /// Reset the partial sums to this host's own contribution.
    fn reset_mass(&mut self) {
        self.mass = Mass::averaging(self.value);
        self.inbox = Mass::ZERO;
    }

    /// Is `msg` (already known to carry a higher epoch) a benign rollover
    /// rather than a §II-C disruption? Benign means: the next epoch, the
    /// receiver within `settle_len` ticks of its own rollover, and the
    /// sender freshly rolled — weak clock sync working as intended.
    /// Anything wider is a foreign clock history arriving mid-epoch.
    fn is_benign_rollover(&self, msg: &EpochMsg) -> bool {
        msg.epoch == self.clock.epoch() + 1
            && self.clock.near_rollover(self.settle_len)
            && u64::from(msg.phase) <= self.settle_len
    }
}

impl Estimator for EpochPushSum {
    fn estimate(&self) -> Option<f64> {
        if self.settling > 0 {
            // §II-C: the estimate is unusable while the host settles on a
            // new epoch number.
            return None;
        }
        if self.clock.in_second_half() {
            self.mass.estimate().or(self.published)
        } else {
            self.published.or_else(|| self.mass.estimate())
        }
    }

    fn is_settling(&self) -> bool {
        self.settling > 0
    }

    fn disruptions(&self) -> u64 {
        self.disruptions
    }

    fn audit_mass(&self) -> Option<Mass> {
        Some(self.mass)
    }
}

impl PushProtocol for EpochPushSum {
    type Message = EpochMsg;

    fn begin_round(&mut self, ctx: &mut RoundCtx<'_>, out: &mut Vec<(NodeId, EpochMsg)>) {
        // Natural rollover on the local clock: publish the completed
        // epoch's estimate and start fresh.
        if self.settling == 0 && self.clock.due() {
            self.publish();
            self.clock.roll();
            self.reset_mass();
        }
        let half = self.mass.half();
        self.inbox = half;
        let msg = EpochMsg {
            epoch: self.clock.epoch(),
            phase: u32::try_from(self.clock.phase()).unwrap_or(u32::MAX),
            mass: half,
        };
        if let Some(peer) = ctx.sample_peer() {
            out.push((peer, msg));
        } else {
            self.inbox += half;
        }
    }

    fn on_message(
        &mut self,
        _from: NodeId,
        msg: &EpochMsg,
        _ctx: &mut RoundCtx<'_>,
    ) -> Option<EpochMsg> {
        use std::cmp::Ordering;
        match msg.epoch.cmp(&self.clock.epoch()) {
            Ordering::Greater => {
                if self.is_benign_rollover(msg) {
                    // The normal weak-sync path: a peer rolled first and
                    // this host follows, keeping its finished estimate.
                    self.publish();
                } else {
                    // A disruption: a migrant (or a bridge message) from a
                    // clique whose clock history differs. The interrupted
                    // epoch's partial sums are garbage — discard without
                    // publishing — and the previously published value
                    // belongs to an epoch numbering this host just
                    // abandoned, so it is dropped too. The host settles.
                    self.disruptions += 1;
                    self.settling = self.settle_len;
                    self.published = None;
                }
                self.clock.restart_at(msg.epoch);
                self.reset_mass();
                // Rejoin this round's exchange with fresh mass: retain one
                // half locally (as if the other half had been pushed) and
                // absorb the incoming share.
                self.inbox = self.mass.half();
                self.mass = self.inbox;
                self.inbox += msg.mass;
            }
            Ordering::Equal => self.inbox += msg.mass,
            Ordering::Less => { /* stale epoch: drop the mass */ }
        }
        None
    }

    fn end_round(&mut self, ctx: &mut RoundCtx<'_>) {
        self.mass = self.inbox;
        self.inbox = Mass::ZERO;
        if self.settling > 0 {
            // The clock does not tick while the host settles.
            self.settling -= 1;
        } else {
            self.clock.tick(ctx.rng);
        }
    }

    fn message_bytes(_msg: &EpochMsg) -> usize {
        EPOCH_MSG_WIRE_BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::samplers::SliceSampler;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn drive(nodes: &mut [EpochPushSum], rounds: std::ops::Range<u64>, rng: &mut SmallRng) {
        let mut out = Vec::new();
        for round in rounds {
            let ids: Vec<NodeId> = (0..nodes.len() as NodeId).collect();
            let mut queue: Vec<(usize, EpochMsg)> = Vec::new();
            for (i, node) in nodes.iter_mut().enumerate() {
                let peers: Vec<NodeId> = ids.iter().copied().filter(|&p| p as usize != i).collect();
                let mut sampler = SliceSampler::new(&peers);
                let mut ctx = RoundCtx { round, rng, peers: &mut sampler };
                out.clear();
                node.begin_round(&mut ctx, &mut out);
                for (to, m) in out.drain(..) {
                    queue.push((to as usize, m));
                }
            }
            for (to, m) in queue {
                let mut sampler = SliceSampler::new(&[]);
                let mut ctx = RoundCtx { round, rng, peers: &mut sampler };
                nodes[to].on_message(0, &m, &mut ctx);
            }
            for node in nodes.iter_mut() {
                let mut sampler = SliceSampler::new(&[]);
                let mut ctx = RoundCtx { round, rng, peers: &mut sampler };
                node.end_round(&mut ctx);
            }
        }
    }

    fn run(values: &[f64], epoch_len: u64, rounds: u64, seed: u64) -> Vec<EpochPushSum> {
        let mut nodes: Vec<EpochPushSum> =
            values.iter().map(|&v| EpochPushSum::new(v, epoch_len)).collect();
        let mut rng = SmallRng::seed_from_u64(seed);
        drive(&mut nodes, 0..rounds, &mut rng);
        nodes
    }

    #[test]
    fn converges_within_an_epoch() {
        let values: Vec<f64> = (0..8).map(|i| f64::from(i) * 10.0).collect();
        let nodes = run(&values, 25, 24, 31);
        for n in &nodes {
            let e = n.estimate().unwrap();
            assert!((e - 35.0).abs() < 5.0, "estimate {e}");
        }
    }

    #[test]
    fn epochs_advance_in_lockstep() {
        let values = [1.0, 2.0, 3.0, 4.0];
        let nodes = run(&values, 10, 35, 32);
        for n in &nodes {
            assert_eq!(n.epoch(), 3, "after 35 rounds with epoch_len 10");
            assert_eq!(n.disruptions(), 0, "synced clocks never disrupt");
        }
    }

    #[test]
    fn recovers_after_failures_once_epoch_turns() {
        let values = [10.0, 20.0, 80.0, 90.0];
        let epoch_len = 15u64;
        let mut nodes: Vec<EpochPushSum> =
            values.iter().map(|&v| EpochPushSum::new(v, epoch_len)).collect();
        let mut rng = SmallRng::seed_from_u64(33);
        drive(&mut nodes, 0..14, &mut rng);
        nodes.truncate(2); // survivors: 10, 20 -> avg 15
                           // Run long enough for a full fresh epoch after the failure.
        drive(&mut nodes, 14..50, &mut rng);
        for n in &nodes {
            let e = n.estimate().unwrap();
            assert!((e - 15.0).abs() < 3.0, "post-epoch estimate {e} should be ~15");
        }
    }

    #[test]
    fn zero_epoch_rejected() {
        assert!(EpochPushSum::try_new(1.0, 0).is_err());
        assert!(EpochClock::try_new(0).is_err());
    }

    #[test]
    fn invalid_drift_rejected() {
        assert!(EpochClock::new(10)
            .try_with_drift(DriftModel::Bernoulli { skip_prob: 1.5 })
            .is_err());
        assert!(EpochClock::new(10)
            .try_with_drift(DriftModel::ConstantSkew { rate: f64::NAN })
            .is_err());
        assert!(EpochClock::new(10)
            .try_with_drift(DriftModel::RandomWalk { step_prob: -0.1 })
            .is_err());
    }

    #[test]
    fn constant_skew_halves_clock_rate() {
        let mut clock = EpochClock::new(10).with_drift(DriftModel::ConstantSkew { rate: 0.5 });
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..40 {
            clock.tick(&mut rng);
            if clock.due() {
                clock.roll();
            }
        }
        // 40 rounds × 0.5 ticks = 20 ticks = 2 epochs of 10.
        assert_eq!(clock.epoch(), 2);
        assert_eq!(clock.phase(), 0);
    }

    #[test]
    fn random_walk_is_unbiased_but_diffuses() {
        let mut rng = SmallRng::seed_from_u64(7);
        let total: u64 = (0..64)
            .map(|_| {
                let mut clock = EpochClock::new(1_000_000)
                    .with_drift(DriftModel::RandomWalk { step_prob: 0.5 });
                for _ in 0..500 {
                    clock.tick(&mut rng);
                }
                clock.phase()
            })
            .sum();
        let mean = total as f64 / 64.0;
        assert!((mean - 500.0).abs() < 20.0, "mean phase {mean} should stay near 500");
    }

    #[test]
    fn clock_offset_places_epoch_and_phase() {
        let n = EpochPushSum::new(1.0, 20).with_clock_offset(52);
        assert_eq!(n.epoch(), 2);
        assert_eq!(n.clock().phase(), 12);
    }

    #[test]
    fn disruption_triggers_settling_and_counts() {
        let mut node = EpochPushSum::new(10.0, 20).with_settle_len(3);
        let mut rng = SmallRng::seed_from_u64(40);
        // A migrant message from a distant epoch, mid-epoch: disruptive.
        let msg = EpochMsg { epoch: 5, phase: 13, mass: Mass::averaging(90.0).half() };
        let mut sampler = SliceSampler::new(&[]);
        let mut ctx = RoundCtx { round: 0, rng: &mut rng, peers: &mut sampler };
        node.on_message(1, &msg, &mut ctx);
        assert_eq!(node.epoch(), 5);
        assert_eq!(node.disruptions(), 1);
        assert!(node.is_settling());
        assert_eq!(node.estimate(), None, "settling estimates are unusable");
        // The settling window expires after settle_len end_rounds, during
        // which the clock does not tick.
        for _ in 0..3 {
            assert!(node.is_settling());
            let mut sampler = SliceSampler::new(&[]);
            let mut ctx = RoundCtx { round: 0, rng: &mut rng, peers: &mut sampler };
            node.end_round(&mut ctx);
        }
        assert!(!node.is_settling());
        assert_eq!(node.clock().phase(), 0, "clock paused while settling");
        // The disruption dropped the published value along with the
        // partial sums: the host now serves whatever its fresh epoch has.
        node.mass = Mass::averaging(10.0);
        assert_eq!(node.published, None, "disruption abandons the old epoch chain");
        assert_eq!(node.estimate(), Some(10.0), "fresh partial sums are all that remain");
    }

    #[test]
    fn benign_rollover_publishes_without_disruption() {
        let mut node = EpochPushSum::new(10.0, 20);
        let mut rng = SmallRng::seed_from_u64(41);
        // Advance deep into epoch 0 (second half), with converged mass.
        for _ in 0..15 {
            let mut sampler = SliceSampler::new(&[]);
            let mut ctx = RoundCtx { round: 0, rng: &mut rng, peers: &mut sampler };
            node.end_round(&mut ctx);
        }
        node.mass = Mass::new(1.0, 42.0); // pretend the epoch converged to 42
        let msg = EpochMsg { epoch: 1, phase: 1, mass: Mass::averaging(42.0).half() };
        let mut sampler = SliceSampler::new(&[]);
        let mut ctx = RoundCtx { round: 15, rng: &mut rng, peers: &mut sampler };
        node.on_message(1, &msg, &mut ctx);
        assert_eq!(node.epoch(), 1);
        assert_eq!(node.disruptions(), 0, "late-epoch +1 adoption is benign");
        assert!(!node.is_settling());
        assert_eq!(node.estimate(), Some(42.0), "the finished epoch was published");
    }

    #[test]
    fn early_jump_is_disruptive_even_by_one_epoch() {
        let mut node = EpochPushSum::new(10.0, 20);
        let mut rng = SmallRng::seed_from_u64(42);
        // Phase 2 of epoch 0: far from rollover.
        for _ in 0..2 {
            let mut sampler = SliceSampler::new(&[]);
            let mut ctx = RoundCtx { round: 0, rng: &mut rng, peers: &mut sampler };
            node.end_round(&mut ctx);
        }
        let msg = EpochMsg { epoch: 1, phase: 1, mass: Mass::averaging(50.0).half() };
        let mut sampler = SliceSampler::new(&[]);
        let mut ctx = RoundCtx { round: 2, rng: &mut rng, peers: &mut sampler };
        node.on_message(1, &msg, &mut ctx);
        assert_eq!(node.disruptions(), 1);
        assert!(node.is_settling());
    }

    #[test]
    fn stale_epoch_mass_is_dropped() {
        let mut node = EpochPushSum::new(10.0, 20).with_clock_offset(45);
        let mut rng = SmallRng::seed_from_u64(43);
        let inbox_before = node.inbox;
        let msg = EpochMsg { epoch: 0, phase: 3, mass: Mass::averaging(99.0) };
        let mut sampler = SliceSampler::new(&[]);
        let mut ctx = RoundCtx { round: 0, rng: &mut rng, peers: &mut sampler };
        node.on_message(1, &msg, &mut ctx);
        assert_eq!(node.inbox, inbox_before, "stale mass must not be absorbed");
        assert_eq!(node.disruptions(), 0);
    }

    #[test]
    fn drifted_cliques_disrupt_each_other_through_one_migrant() {
        // Two 4-host cliques gossiping internally; clique B starts 17
        // ticks behind clique A. One message from A lands in B while B is
        // still mid-epoch: every downstream B host that hears the new
        // epoch early disrupts.
        let epoch_len = 20u64;
        let mut a: Vec<EpochPushSum> = (0..4)
            .map(|i| EpochPushSum::new(f64::from(i), epoch_len).with_clock_offset(17))
            .collect();
        let mut b: Vec<EpochPushSum> =
            (0..4).map(|i| EpochPushSum::new(f64::from(i) + 50.0, epoch_len)).collect();
        let mut rng = SmallRng::seed_from_u64(44);
        drive(&mut a, 0..6, &mut rng); // A rolls to epoch 1 at round 3
        drive(&mut b, 0..6, &mut rng); // B still in epoch 0, phase 6
        assert!(a.iter().all(|n| n.epoch() == 1));
        assert!(b.iter().all(|n| n.epoch() == 0));
        // The migrant push: an A host's share arrives at a B host.
        let msg = EpochMsg {
            epoch: 1,
            phase: a[0].clock().phase() as u32,
            mass: Mass::averaging(0.0).half(),
        };
        let mut sampler = SliceSampler::new(&[]);
        let mut ctx = RoundCtx { round: 6, rng: &mut rng, peers: &mut sampler };
        b[0].on_message(9, &msg, &mut ctx);
        assert_eq!(b[0].disruptions(), 1, "mid-epoch foreign rollover disrupts");
        // The disruption spreads: B0's next pushes carry epoch 1 into the
        // rest of the clique, which is still mid-epoch.
        drive(&mut b, 6..9, &mut rng);
        let disrupted: u64 = b.iter().map(|n| n.disruptions()).sum();
        assert!(disrupted >= 2, "the restart should cascade, got {disrupted}");
        assert!(b.iter().all(|n| n.epoch() >= 1));
    }
}
