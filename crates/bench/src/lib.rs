//! # dynagg-bench
//!
//! The experiment harness: one module per figure/table of the paper's
//! evaluation (§V), plus the ablations `DESIGN.md` §6 calls out. The
//! `experiments` binary dispatches to these. (Throughput is measured by
//! the repository's `benchmark/` package, not here.)
//!
//! | module | reproduces |
//! |---|---|
//! | [`fig6`] | Fig. 6 — bit counter CDFs + cutoff fit |
//! | [`fig8`] | Fig. 8 — averaging under uncorrelated failures |
//! | [`fig9`] | Fig. 9 — counting under failure (naive vs cutoff) |
//! | [`fig10`] | Fig. 10a/b — averaging under correlated failures |
//! | [`fig11`] | Fig. 11 — trace-driven average & group size |
//! | [`tables`] | §V-A convergence numbers, §V-B sketch error |
//! | [`ablations`] | exchange style, adaptive λ, N/T sweeps, cutoff scale, bandwidth, epochs |
//! | [`spatial_cutoff`] | extension: the cutoff fit in the grid environment (§IV-A's claim) |
//! | [`epoch_disruption`] | extension: §II-C's epoch disruption under clique mobility (migration × drift sweep) |
//! | [`scenario_run`] | `experiments run <file.toml>` — declarative scenarios via `dynagg-scenario` |
//! | [`serve`] | `experiments serve` — the live aggregation service under generated client load |
//!
//! Each figure's workload is stated once, in its checked-in
//! `scenarios/*.toml` file: the figure module embeds that file
//! (`include_str!`), applies the CLI's seed and population, edits the
//! parsed [`ScenarioSpec`] into the lines it draws, and runs them through
//! the `dynagg-scenario` registry — so `experiments fig8` and
//! `experiments run scenarios/fig8.toml` write the same CSV
//! (`tests/scenario_goldens.rs` pins what the files produce). Only the
//! Fig. 11 sum panel, the convergence table's static line and the
//! ablations, which have no scenario file, build specs in code.
//!
//! [`ScenarioSpec`]: dynagg_scenario::ScenarioSpec

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablations;
pub mod epoch_disruption;
pub mod fig10;
pub mod fig11;
pub mod fig6;
pub mod fig8;
pub mod fig9;
pub mod opts;
pub mod output;
pub mod scenario_run;
pub mod serve;
pub mod spatial_cutoff;
pub mod tables;

pub use opts::ExpOpts;
pub use output::Table;
