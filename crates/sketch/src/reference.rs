//! Retained scalar reference for the lazy-aged [`AgeMatrix`].
//!
//! [`crate::age::AgeMatrix`] stores one-byte birth stamps and a
//! matrix-global clock so that `tick` is O(own) instead of O(m·l). Every
//! golden digest in the repo pins behavior of the *eager* representation
//! it replaced — one `u8` age per cell, incremented cell-by-cell each
//! round — so the lazy matrix is only correct if the two can never be told
//! apart through any public observation: ages, estimates, cutoff admits,
//! or encoded wire bytes. The two share [`MAX_FINITE_AGE`] (253: the lazy
//! matrix spends one byte code on the stamp of a cell pinned a tick past
//! its base clock), so the saturation boundary is part of what is compared.
//!
//! [`RefAgeMatrix`] *is* that eager representation, kept verbatim (same
//! branchless tick, same scalar min-merge, same estimate path), plus an
//! independent encoder — written from the format description over the
//! bin-major grid — producing the exact plane wire format of
//! [`crate::codec::encode_ages`]. The differential proptests in
//! `tests/lazy_equivalence.rs` drive both implementations through
//! arbitrary interleaved claim/tick/merge/release/load programs — the
//! same harness style as the wheel-vs-heap queue suite — and assert they
//! never disagree.
//!
//! This module is test infrastructure: nothing on a hot path uses it, and
//! the benchmark's `sketch.age.lazy_vs_ref_merge` metric times it as the
//! "before" column — both sides of that ratio now stream one byte per cell.
//!
//! [`AgeMatrix`]: crate::age::AgeMatrix

use crate::age::{INF_AGE, MAX_FINITE_AGE};
use crate::cutoff::Cutoff;
use crate::estimate;
use crate::hash::Hash64;
use crate::pcsa::Pcsa;
use crate::rho::bin_and_rho;

/// The eager `m × (L+1)` age-counter matrix: one `u8` per cell, aged by a
/// full pass per [`tick`](RefAgeMatrix::tick).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RefAgeMatrix {
    m: u32,
    l: u8,
    /// Row-major `m` rows of `l + 1` counters; `INF_AGE` = never sourced.
    ages: Box<[u8]>,
    /// Flat indices of cells this host sources (kept pinned at 0).
    own: Vec<u32>,
}

impl RefAgeMatrix {
    /// Empty matrix with `m` bins (power of two), `l + 1` counters per bin.
    ///
    /// # Panics
    /// Panics on the same geometry bounds as [`crate::age::AgeMatrix::new`].
    pub fn new(m: u32, l: u8) -> Self {
        assert!(m.is_power_of_two(), "bin count must be a power of two");
        assert!(l > 0 && l <= crate::fm::MAX_WIDTH);
        let cells = (m as usize) * (usize::from(l) + 1);
        Self { m, l, ages: vec![INF_AGE; cells].into_boxed_slice(), own: Vec::new() }
    }

    /// Number of bins `m`.
    pub fn num_bins(&self) -> u32 {
        self.m
    }

    /// Register width `L`.
    pub fn width(&self) -> u8 {
        self.l
    }

    #[inline]
    fn row_len(&self) -> usize {
        usize::from(self.l) + 1
    }

    #[inline]
    fn flat(&self, bin: u32, k: u8) -> usize {
        debug_assert!(bin < self.m && k <= self.l);
        (bin as usize) * self.row_len() + usize::from(k)
    }

    /// Current age of cell `(bin, k)`; `INF_AGE` if never sourced.
    #[inline]
    pub fn age(&self, bin: u32, k: u8) -> u8 {
        self.ages[self.flat(bin, k)]
    }

    /// The raw row-major cell slice.
    pub fn cells(&self) -> &[u8] {
        &self.ages
    }

    /// Claim cell `(bin, k)`: pin its age to zero until
    /// [`release_all`](RefAgeMatrix::release_all).
    pub fn claim_cell(&mut self, bin: u32, k: u8) {
        let idx = self.flat(bin, k) as u32;
        self.ages[idx as usize] = 0;
        if let Err(pos) = self.own.binary_search(&idx) {
            self.own.insert(pos, idx);
        }
    }

    /// Claim the cell an OR-sketch would set for `id`.
    pub fn claim_id<H: Hash64>(&mut self, hasher: &H, id: u64) -> (u32, u8) {
        let (bin, k) = bin_and_rho(hasher.hash_u64(id), self.m, self.l);
        self.claim_cell(bin, k);
        (bin, k)
    }

    /// Claim `value` cells via multi-insertion.
    pub fn claim_value<H: Hash64>(&mut self, hasher: &H, id: u64, value: u64) {
        for j in 0..value {
            let (bin, k) = bin_and_rho(hasher.hash_pair(id, j), self.m, self.l);
            self.claim_cell(bin, k);
        }
    }

    /// Number of distinct cells this host sources.
    pub fn owned_cells(&self) -> usize {
        self.own.len()
    }

    /// Stop sourcing all owned cells.
    pub fn release_all(&mut self) {
        self.own.clear();
    }

    /// One round of aging: every counter increments (saturating at
    /// [`MAX_FINITE_AGE`]) except owned cells, which stay pinned at 0.
    pub fn tick(&mut self) {
        for a in self.ages.iter_mut() {
            *a += u8::from(*a < MAX_FINITE_AGE);
        }
        for &idx in &self.own {
            self.ages[idx as usize] = 0;
        }
    }

    /// Replace every counter from a flat row-major slice and clear
    /// ownership (wire-decode semantics).
    ///
    /// # Panics
    /// Panics if `cells` does not match the matrix geometry.
    pub fn load_ages(&mut self, cells: &[u8]) {
        assert_eq!(cells.len(), self.ages.len(), "cell count must match geometry");
        self.ages.copy_from_slice(cells);
        self.own.clear();
    }

    /// Element-wise scalar min-merge.
    ///
    /// # Panics
    /// Panics on geometry mismatch.
    pub fn merge_min(&mut self, other: &RefAgeMatrix) {
        assert_eq!(self.m, other.m, "bin-count mismatch");
        assert_eq!(self.l, other.l, "width mismatch");
        for (a, &b) in self.ages.iter_mut().zip(other.ages.iter()) {
            *a = (*a).min(b);
        }
    }

    /// Live-bit view under `cutoff`.
    pub fn bit_view(&self, cutoff: &Cutoff) -> Pcsa {
        let mut p = Pcsa::new(self.m, self.l);
        let row = self.row_len();
        for (i, &a) in self.ages.iter().enumerate() {
            if a == INF_AGE {
                continue;
            }
            let k = (i % row) as u8;
            if cutoff.admits(k, u32::from(a)) {
                p.set_cell((i / row) as u32, k);
            }
        }
        p
    }

    /// Cardinality estimate under `cutoff` (eager path: an any-live scan
    /// followed by the per-bin run walk, exactly as shipped before the
    /// lazy rewrite).
    pub fn estimate(&self, cutoff: &Cutoff) -> f64 {
        if !self.any_live(cutoff) {
            return 0.0;
        }
        estimate::estimate_from_mean_r(self.m, self.mean_r(cutoff))
    }

    /// Mean live-bit run length under `cutoff`.
    pub fn mean_r(&self, cutoff: &Cutoff) -> f64 {
        let row = self.row_len();
        let mut sum: u32 = 0;
        for bin in self.ages.chunks_exact(row) {
            let mut r = 0u32;
            for (k, &a) in bin.iter().enumerate() {
                if a != INF_AGE && cutoff.admits(k as u8, u32::from(a)) {
                    r += 1;
                } else {
                    break;
                }
            }
            sum += r.min(u32::from(self.l));
        }
        f64::from(sum) / f64::from(self.m)
    }

    fn any_live(&self, cutoff: &Cutoff) -> bool {
        let row = self.row_len();
        self.ages
            .iter()
            .enumerate()
            .any(|(i, &a)| a != INF_AGE && cutoff.admits((i % row) as u8, u32::from(a)))
    }

    /// Independent encoder for the plane wire format of
    /// [`crate::codec::encode_ages`], written from the format description
    /// over this bin-major grid — cell lookups through
    /// [`age`](RefAgeMatrix::age), no stamps, no shared helpers — so a
    /// codec bug cannot hide from the differential suite. Header (`m` LE,
    /// `l`); a ⌈(l+1)/8⌉-byte mask with bit `k` set iff register `k` is
    /// finite in some bin; then for each such register, ascending, a
    /// ⌈m/8⌉-byte bitmap of the bins where it is finite followed by those
    /// bins' ages in ascending bin order. Bits are LSB-first.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&self.m.to_le_bytes());
        out.push(self.l);
        let finite_bins = |k: u8| (0..self.m).filter(move |&bin| self.age(bin, k) != INF_AGE);
        let present: Vec<u8> = (0..=self.l).filter(|&k| finite_bins(k).next().is_some()).collect();
        let mut mask = vec![0u8; self.row_len().div_ceil(8)];
        for &k in &present {
            mask[usize::from(k / 8)] |= 1 << (k % 8);
        }
        out.extend_from_slice(&mask);
        for &k in &present {
            let mut bitmap = vec![0u8; (self.m as usize).div_ceil(8)];
            for bin in finite_bins(k) {
                bitmap[(bin / 8) as usize] |= 1 << (bin % 8);
            }
            out.extend_from_slice(&bitmap);
            out.extend(finite_bins(k).map(|bin| self.age(bin, k)));
        }
        out
    }
}
