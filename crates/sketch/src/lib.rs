//! # dynagg-sketch
//!
//! Probabilistic counting substrates for dynamic in-network aggregation:
//!
//! * [`hash`] — deterministic 64-bit avalanche hashing (no external crates),
//! * [`rho`][mod@rho] — the Flajolet–Martin ρ function with its geometric distribution,
//! * [`fm`] — a single FM bit-sketch with OR-merge and the `R` run-length,
//! * [`pcsa`] — stochastic averaging over `m` bins (Probabilistic Counting
//!   with Stochastic Averaging, Flajolet & Martin 1985),
//! * [`sum`] — multi-insertion summation (Considine et al. 2004),
//! * [`age`] — the **age-counter matrix** that replaces sketch bits with
//!   integer ages; the substrate of Count-Sketch-Reset (Kennedy, Koch,
//!   Demers 2009, §IV), stored lazily as birth stamps under a global
//!   clock so ticking is O(own) instead of O(m·l),
//! * [`mod@reference`] — the retained eager (scalar `u8`) age matrix the
//!   lazy representation is differentially tested against,
//! * [`cutoff`] — the bit-expiry cutoff policies `f(k)` (paper: `7 + k/4`),
//! * [`codec`] — compact lossless wire encoding of matrices and sketches,
//! * [`estimate`] — shared estimator constants and error bounds.
//!
//! All structures are deterministic given a hasher seed, mergeable
//! (OR for bit sketches, element-wise `min` for age matrices), and
//! duplicate-insensitive, which is exactly what gossip dissemination needs.
//!
//! ## Estimator note
//!
//! The paper's inline formula reads `n ≈ φ·2^R`; Flajolet & Martin's
//! actual result is `E[R] ≈ log2(φn)`, i.e. `n̂ = 2^R / φ` (and
//! `n̂ = (m/φ)·2^{avg R}` with `m` bins). We implement the FM85-correct
//! estimator.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod age;
pub mod codec;
pub mod cutoff;
pub mod estimate;
pub mod fm;
pub mod hash;
pub mod pcsa;
pub mod reference;
pub mod rho;
pub mod sum;

pub use age::AgeMatrix;
pub use cutoff::Cutoff;
pub use estimate::{expected_error, PHI};
pub use fm::FmSketch;
pub use hash::{Hash64, SplitMix64, XxLike64};
pub use pcsa::Pcsa;
pub use rho::{bin_and_rho, rho};
