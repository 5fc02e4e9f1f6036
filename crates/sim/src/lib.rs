//! # dynagg-sim
//!
//! A round-based gossip simulator, reproducing the paper's evaluation
//! methodology (§V): "simulation in rounds, or iterations — at every
//! iteration, each host performs the protocol's exchange with one peer,
//! selected as per the environment."
//!
//! * [`env`][mod@env] — the four gossip environments: [`env::uniform`]
//!   (full connectivity, the 100 000-host setting), [`env::spatial`] (grid
//!   adjacency with `1/d²` random-walk long links, Kempe–Kleinberg–Demers
//!   spatial gossip), [`env::trace`] (adjacency driven by a mobility
//!   trace, the Fig. 11 setting), and [`env::clustered`] (§II-C's mostly
//!   isolated cliques with migration, bridges, and scheduled
//!   mobility events),
//! * [`membership`] — the membership/topology layer shared by every
//!   engine: [`membership::Membership`] answers "who can this host reach
//!   right now" as a bounded view, and reports which hosts a topology
//!   change touched so the asynchronous engine can repair views
//!   incrementally instead of rebuilding all of them,
//! * [`alive`] — live-host bookkeeping with O(1) removal,
//! * [`failure`] — failure plans: random and value-correlated mass
//!   failures, Poisson churn, graceful sign-offs,
//! * [`metrics`] — per-round error series ("standard deviation from the
//!   correct value", per-group truths for trace runs) and CSV emitters,
//! * [`partition`] — scheduled network partitions (split into islands,
//!   heal later) both engine families enforce at their delivery layers,
//! * [`runner`] — [`runner::Simulation`] (message-passing protocols) and
//!   [`runner::PairwiseSimulation`] (atomic push/pull exchanges),
//! * [`rng`] — deterministic seed derivation; a simulation's entire
//!   behaviour is a function of one `u64`,
//! * [`par`] — parallel trial fan-out with per-trial seed streams;
//!   bit-for-bit identical to serial execution at any thread count,
//! * [`shard`] — topology-aware node→shard assignment for the sharded
//!   asynchronous engine (`dynagg-node`'s `ShardedNet`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alive;
pub mod env;
pub mod failure;
pub mod membership;
pub mod metrics;
pub mod par;
pub mod partition;
pub mod rng;
pub mod runner;
pub mod shard;

pub use alive::AliveSet;
pub use env::Environment;
pub use failure::{FailureMode, FailurePlan, FailureSpec};
pub use membership::{Membership, ViewChange};
pub use metrics::{RoundStats, Series, Truth};
pub use partition::{PartitionTable, PartitionTransition};
pub use runner::{PairwiseSimulation, Simulation};
pub use shard::ShardMap;
