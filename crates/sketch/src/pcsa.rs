//! Probabilistic Counting with Stochastic Averaging (PCSA).
//!
//! One FM sketch has a standard deviation of more than one binary order of
//! magnitude. FM85's fix — used verbatim by the paper — is *stochastic
//! averaging*: deterministically shard objects into `m` bins, keep one
//! sketch per bin, and average the per-bin run lengths:
//!
//! ```text
//! n̂ = (m / φ) · 2^{ (1/m) Σ_j R(A_j) }      relative error ≈ 0.78/√m
//! ```
//!
//! The sharding is part of the hash, so PCSA keeps both gossip-critical
//! properties of the base sketch: OR-decomposability and duplicate
//! insensitivity.

use crate::age::EncodeSlot;
use crate::estimate;
use crate::fm::FmSketch;
use crate::hash::Hash64;
use crate::rho::bin_and_rho;
use std::sync::Mutex;

/// A binned FM sketch (PCSA).
///
/// Like [`crate::age::AgeMatrix`], the sketch carries a mutation version
/// keying the codec's per-snapshot encode memo, so a sketch asked for
/// again unmutated is not serialized again.
#[derive(Debug, serde::Serialize, serde::Deserialize)]
pub struct Pcsa {
    bins: Vec<FmSketch>,
    l: u8,
    version: u64,
    cache: Mutex<EncodeSlot>,
}

impl Clone for Pcsa {
    fn clone(&self) -> Self {
        Self {
            bins: self.bins.clone(),
            l: self.l,
            version: self.version,
            cache: Mutex::new(EncodeSlot::default()),
        }
    }
}

impl PartialEq for Pcsa {
    fn eq(&self, other: &Self) -> bool {
        self.l == other.l && self.bins == other.bins
    }
}

impl Eq for Pcsa {}

impl Pcsa {
    /// Empty PCSA with `m` bins (power of two) of width `l` bits each.
    ///
    /// # Panics
    /// Panics if `m` is not a power of two or `l` is out of range.
    pub fn new(m: u32, l: u8) -> Self {
        assert!(m.is_power_of_two() && m >= 1, "bin count must be a power of two");
        Self {
            bins: vec![FmSketch::new(l); m as usize],
            l,
            version: 1,
            cache: Mutex::new(EncodeSlot::default()),
        }
    }

    /// Mutation version; see [`crate::age::AgeMatrix::version`].
    pub fn version(&self) -> u64 {
        self.version
    }

    pub(crate) fn encode_cache(&self) -> &Mutex<EncodeSlot> {
        &self.cache
    }

    #[inline]
    fn bump(&mut self) {
        self.version = self.version.wrapping_add(1);
    }

    /// Number of bins `m`.
    pub fn num_bins(&self) -> u32 {
        self.bins.len() as u32
    }

    /// Register width `L`.
    pub fn width(&self) -> u8 {
        self.l
    }

    /// Whether `other` has this sketch's `(m, L)` — the precondition of
    /// [`merge`](Pcsa::merge); see [`crate::age::AgeMatrix::same_geometry`].
    pub fn same_geometry(&self, other: &Pcsa) -> bool {
        self.l == other.l && self.bins.len() == other.bins.len()
    }

    /// Access the per-bin sketches.
    pub fn bins(&self) -> &[FmSketch] {
        &self.bins
    }

    /// True if nothing has been inserted.
    pub fn is_empty(&self) -> bool {
        self.bins.iter().all(FmSketch::is_empty)
    }

    /// Insert an object identifier: the hash picks both bin and register bit.
    #[inline]
    pub fn insert<H: Hash64>(&mut self, hasher: &H, id: u64) {
        let (bin, k) = self.cell_for(hasher, id);
        self.bins[bin as usize].set_bit(k);
        self.bump();
    }

    /// The `(bin, bit)` cell that `id` occupies — exposed so the age matrix
    /// can claim the *same* cell an OR-sketch would set.
    #[inline]
    pub fn cell_for<H: Hash64>(&self, hasher: &H, id: u64) -> (u32, u8) {
        bin_and_rho(hasher.hash_u64(id), self.num_bins(), self.l)
    }

    /// Set a cell directly.
    #[inline]
    pub fn set_cell(&mut self, bin: u32, k: u8) {
        self.bins[bin as usize].set_bit(k);
        self.bump();
    }

    /// OR-merge another PCSA into this one.
    ///
    /// # Panics
    /// Panics on geometry mismatch (different `m` or `L`).
    pub fn merge(&mut self, other: &Pcsa) {
        assert_eq!(self.l, other.l, "width mismatch");
        assert_eq!(self.bins.len(), other.bins.len(), "bin-count mismatch");
        // Geometry is uniform across bins (checked above), so the per-bin
        // loop is a straight word-wise OR with no per-element asserts.
        for (a, b) in self.bins.iter_mut().zip(&other.bins) {
            a.or_bits_unchecked(b.bits());
        }
        self.bump();
    }

    /// Mean run length `(1/m) Σ R(A_j)` across bins.
    pub fn mean_r(&self) -> f64 {
        let sum: u32 = self.bins.iter().map(|b| u32::from(b.r())).sum();
        f64::from(sum) / self.bins.len() as f64
    }

    /// Cardinality estimate `(m/φ)·2^{mean R}`.
    ///
    /// Returns 0.0 for an empty sketch: FM85's estimator is biased for
    /// small `n` anyway and gossip protocols treat "no bits set" as an
    /// empty network.
    pub fn estimate(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        estimate::estimate_from_mean_r(self.num_bins(), self.mean_r())
    }

    /// Serialized wire size in bytes (used by the simulator's bandwidth
    /// accounting): one `L+1`-bit register per bin, byte-padded.
    pub fn wire_bytes(&self) -> usize {
        let bits_per_bin = usize::from(self.l) + 1;
        self.bins.len() * bits_per_bin.div_ceil(8)
    }

    /// Clear all bins.
    pub fn clear(&mut self) {
        for b in &mut self.bins {
            b.clear();
        }
        self.bump();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::SplitMix64;

    fn filled(n: u64, m: u32, seed: u64) -> Pcsa {
        let h = SplitMix64::new(seed);
        let mut p = Pcsa::new(m, 32);
        for i in 0..n {
            p.insert(&h, i);
        }
        p
    }

    #[test]
    fn empty_estimate_is_zero() {
        assert_eq!(Pcsa::new(64, 24).estimate(), 0.0);
    }

    #[test]
    fn estimate_within_expected_error_64_bins() {
        // 64 bins -> expected relative error ~9.7%. Allow 3 sigma.
        for (seed, n) in [(1u64, 10_000u64), (2, 50_000), (3, 100_000)] {
            let p = filled(n, 64, seed);
            let est = p.estimate();
            let rel = (est - n as f64).abs() / n as f64;
            assert!(rel < 3.0 * estimate::expected_error(64), "n={n} est={est:.0} rel={rel:.3}");
        }
    }

    #[test]
    fn merge_equals_union() {
        let h = SplitMix64::new(9);
        let mut a = Pcsa::new(16, 24);
        let mut b = Pcsa::new(16, 24);
        let mut union = Pcsa::new(16, 24);
        for i in 0..5_000u64 {
            a.insert(&h, i);
            union.insert(&h, i);
        }
        for i in 2_500..7_500u64 {
            b.insert(&h, i);
            union.insert(&h, i);
        }
        a.merge(&b);
        assert_eq!(a, union, "merge of overlapping sketches must equal the union sketch");
    }

    #[test]
    fn merge_is_idempotent() {
        let a = filled(1000, 16, 4);
        let mut b = a.clone();
        b.merge(&a);
        assert_eq!(a, b);
    }

    #[test]
    fn wire_bytes_matches_geometry() {
        let p = Pcsa::new(64, 23); // 24 bits per bin -> 3 bytes
        assert_eq!(p.wire_bytes(), 64 * 3);
    }

    #[test]
    fn estimate_is_monotone_under_merge() {
        let a = filled(2_000, 64, 5);
        let b = filled(2_000, 64, 6); // different hashers simulate disjoint id spaces
        let mut merged = a.clone();
        merged.merge(&b);
        assert!(merged.estimate() >= a.estimate());
        assert!(merged.estimate() >= b.estimate());
    }
}
