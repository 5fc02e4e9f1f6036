//! # dynagg-core
//!
//! The protocols of *"Dynamic Approaches to In-Network Aggregation"*
//! (Kennedy, Koch, Demers; ICDE 2009), plus the static baselines they
//! extend and two related-work baselines used in ablations.
//!
//! ## Protocol inventory
//!
//! | module | protocol | paper |
//! |---|---|---|
//! | [`push_sum_revert`] | **Push-Sum-Revert**; at λ = 0, Push-Sum (push, and Karp-style push-pull pairwise averaging) | Fig. 3, §III; Fig. 1, Kempe et al. |
//! | [`full_transfer`] | **Push-Sum-Revert + Full-Transfer** (N parcels, T-window estimate) | Fig. 4, §III-A |
//! | [`adaptive`] | adaptive λ/2-per-message reversion | §III-A |
//! | [`epoch`] | epoch-reset dynamic baseline | §II-C |
//! | [`count_sketch`] | static Sketch-Count | Fig. 2, Considine et al. |
//! | [`count_sketch_reset`] | **Count-Sketch-Reset** | Fig. 5, §IV-A |
//! | [`invert_average`] | **Invert-Average** (sum = avg × count) | Fig. 7, §IV-B |
//! | [`tree`] | TAG-style spanning-tree aggregation | related work §VI |
//! | [`adversary`] | Byzantine wrapper: mass inflation, stale-epoch replay, sketch corruption | robustness suite |
//!
//! ## Execution model
//!
//! Protocols are node-local state machines driven by a runtime (normally
//! `dynagg-sim`) through one of two traits in [`protocol`]:
//!
//! * [`protocol::PushProtocol`] — message-passing gossip: each round the
//!   node emits messages to sampled peers, absorbs what it receives, and
//!   finalizes in `end_round`. Replies model push-pull message exchange.
//! * [`protocol::PairwiseProtocol`] — atomic push/pull exchanges ("export
//!   half the difference", §III-A / Fig. 8's push/pull experiments), where
//!   initiator and responder are updated together.
//!
//! Both extend [`protocol::Estimator`], the read side used by applications
//! and by the simulator's metrics.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptive;
pub mod adversary;
pub mod config;
pub mod count_sketch;
pub mod count_sketch_reset;
pub mod epoch;
pub mod error;
pub mod full_transfer;
pub mod invert_average;
pub mod mass;
pub mod protocol;
pub mod push_sum_revert;
pub mod samplers;
pub mod tree;
pub mod wire;

pub use adversary::{Adversarial, Attack};
pub use config::{FullTransferConfig, ResetConfig, RevertConfig, SketchConfig};
pub use error::ProtocolError;
pub use mass::Mass;
pub use protocol::{Estimator, NodeId, PairwiseProtocol, PeerSampler, PushProtocol, RoundCtx};
