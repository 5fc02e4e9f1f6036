//! # dynagg-scenario
//!
//! Declarative experiment assembly: a [`ScenarioSpec`] names an
//! environment, a protocol (any of the 9 in `dynagg-core`) with its
//! configuration, seeds/rounds/trials, a failure plan, and the outputs to
//! record — parsed from a TOML file (the `experiments run <file.toml>`
//! subcommand, over the offline `toml` shim; the figure modules in
//! `dynagg-bench` embed their checked-in `scenarios/*.toml` the same
//! way) or built programmatically (ablations, tests). Both paths meet in
//! [`registry`].
//!
//! What combines with what is stated once, in the capability table
//! ([`caps`]); validation, parsing and the registry all read it.
//!
//! Parsing and validation return typed [`ScenarioError`]s — an unknown
//! protocol name, a missing seed, or a key from the wrong environment
//! kind is a diagnosis, never a panic.
//!
//! ```
//! use dynagg_scenario::ScenarioSpec;
//!
//! let spec = ScenarioSpec::from_toml_str(
//!     r#"
//!     name = "demo"
//!     seed = 42
//!     n = 120
//!     rounds = 6
//!
//!     [env]
//!     kind = "uniform"
//!
//!     [protocol]
//!     name = "push-sum-revert"
//!     lambda = 0.01
//!     "#,
//! )
//! .unwrap();
//! let series = dynagg_scenario::run_series(&spec).unwrap();
//! assert_eq!(series.rounds.len(), 6);
//! assert_eq!(series.rounds[0].alive, 120);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod caps;
mod error;
mod parse;
pub mod registry;
mod spec;

pub use error::ScenarioError;
pub use registry::{
    build_env, converged_wire_bytes, run, run_series, trace_info, wire_cost, InstanceOutcome,
    ScenarioOutcome, TraceInfo, TrialOutput, WireCost,
};
pub use spec::{
    AdversarySpec, AsyncSpec, CliqueDrift, DriftSpec, Engine, EnvSpec, LatencySpec, Metric,
    OutputSpec, Probe, ProtocolSpec, Report, ScenarioSpec, ShardFallback, ShardsSpec, Sweep,
    SweepAxis, ValueSpec, WireAccounting,
};
