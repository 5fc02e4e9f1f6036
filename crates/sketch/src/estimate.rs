//! Estimator constants and error bounds shared by all sketch variants, and
//! the per-thread tables behind the age matrix's per-round readout.

use crate::age::{base_stamp_floor, MAX_ROW};
use crate::cutoff::Cutoff;
use std::cell::Cell;

/// Flajolet–Martin's magic constant φ ≈ 0.77351.
///
/// FM85 prove `E[R] ≈ log2(φ·n)` for a single sketch, so the point estimate
/// of `n` from an observed run length `R` is `2^R / φ`.
pub const PHI: f64 = 0.77351;

/// Small-cardinality correction exponent (Scheuermann & Mauve 2007).
const SMALL_N_KAPPA: f64 = 1.75;

/// Estimate cardinality from the mean run length across `m` bins:
/// `n̂ = (m/φ) · (2^{mean R} − 2^{−1.75·mean R})`.
///
/// The subtracted term is Scheuermann & Mauve's standard correction for
/// FM85's small-cardinality bias (PCSA overestimates badly when `n/m ≲ 10`;
/// the paper's own experiments sidestep the regime by giving each host 100
/// identifiers, but a library must behave at all loads). The correction
/// vanishes exponentially for large `mean R`, leaving the asymptotic FM85
/// estimator untouched.
///
/// With `m = 1` this degenerates to the (corrected) single-sketch estimator.
#[inline]
pub fn estimate_from_mean_r(m: u32, mean_r: f64) -> f64 {
    (f64::from(m) / PHI) * (mean_r.exp2() - (-SMALL_N_KAPPA * mean_r).exp2())
}

thread_local! {
    /// Lazily filled estimate table for one sketch geometry `(m, L)`: the
    /// live-run sum is an integer in `0..=m·L`, so the per-round estimate
    /// the engine reads from every host becomes a table load instead of
    /// two `exp2` calls. Entries are produced by [`estimate_from_mean_r`]
    /// itself, so the cached and direct paths are bit-identical.
    static RUN_SUM_TABLE: std::cell::RefCell<(u32, u8, Vec<f64>)> =
        const { std::cell::RefCell::new((0, 0, Vec::new())) };
}

/// [`estimate_from_mean_r`] addressed by the integer live-run sum
/// `Σ_bins min(R, L)` (i.e. `mean_r = sum / m`), memoized per geometry in
/// a thread-local table. Changing geometry resets the table, so tests
/// mixing sketch sizes stay correct (just uncached across the switch).
pub fn estimate_from_run_sum(m: u32, l: u8, sum: u32) -> f64 {
    RUN_SUM_TABLE.with(|cell| {
        let mut t = cell.borrow_mut();
        if t.0 != m || t.1 != l {
            *t = (m, l, vec![f64::NAN; m as usize * usize::from(l) + 1]);
        }
        let slot = &mut t.2[sum as usize];
        if slot.is_nan() {
            // NaN marks "not yet computed": real entries are finite for
            // every representable sum.
            *slot = estimate_from_mean_r(m, f64::from(sum) / f64::from(m));
        }
        *slot
    })
}

thread_local! {
    /// The admission floors of one cutoff at the base clock, beside the
    /// estimate table above and for the same reader: every host's
    /// estimate every round asks for the same cutoff, so the per-register
    /// float work is done once per thread, not once per call.
    static FLOOR_TABLE: Cell<(Option<Cutoff>, [u8; MAX_ROW])> =
        const { Cell::new((None, [0; MAX_ROW])) };
}

/// [`base_stamp_floor`] of every register under `cutoff`, memoized per
/// cutoff in a thread-local table. A cutoff that is not equal to itself
/// (a NaN parameter) is recomputed on every call, never served stale.
pub(crate) fn stamp_floors(cutoff: &Cutoff) -> [u8; MAX_ROW] {
    FLOOR_TABLE.with(|cell| {
        let (of, floors) = cell.get();
        if of == Some(*cutoff) {
            return floors;
        }
        let floors = std::array::from_fn(|k| base_stamp_floor(cutoff, k as u8));
        cell.set((Some(*cutoff), floors));
        floors
    })
}

/// FM85's standard-error bound for PCSA with `m` bins: ≈ `0.78 / √m`
/// (relative error of the estimate).
///
/// The paper's §V-B uses 64 bins "for an expected error of 9.7 %" —
/// `expected_error(64) = 0.0975`, matching the paper's figure.
#[inline]
pub fn expected_error(m: u32) -> f64 {
    0.78 / f64::from(m).sqrt()
}

/// Inverse of [`estimate_from_mean_r`]: the mean run length a converged
/// sketch should exhibit for a given cardinality. Used by experiments to
/// size registers (`L` must exceed `expected_r(n, m)` by a safety margin).
#[inline]
pub fn expected_r(n: f64, m: u32) -> f64 {
    (PHI * n / f64::from(m)).max(1.0).log2()
}

/// Pick a register width `L` adequate for counting up to `max_n` items in
/// `m` bins, with eight bits of headroom above the expected boundary.
pub fn width_for(max_n: u64, m: u32) -> u8 {
    let need = expected_r(max_n as f64, m).ceil() as i64 + 8;
    need.clamp(8, i64::from(crate::fm::MAX_WIDTH)) as u8
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_error_claim_64_bins() {
        // §V-B: "use 64 buckets for an expected error of 9.7%".
        let e = expected_error(64);
        assert!((e - 0.097).abs() < 0.001, "expected_error(64) = {e}");
    }

    #[test]
    fn estimator_roundtrip() {
        // If mean R equals the expected R for n, the estimate returns n
        // (in the asymptotic regime where the small-n correction is
        // negligible, i.e. mean R well above ~4).
        for n in [100.0, 10_000.0, 1_000_000.0] {
            for m in [1u32, 16, 64] {
                let r = expected_r(n, m);
                if r > 4.0 {
                    let est = estimate_from_mean_r(m, r);
                    let ratio = est / n;
                    assert!(
                        (0.99..=1.01).contains(&ratio),
                        "roundtrip failed: n={n} m={m} est={est}"
                    );
                }
            }
        }
    }

    #[test]
    fn small_n_correction_reduces_bias() {
        // At mean R ≈ 0.55 (the n ≈ m regime) the corrected estimate must
        // be well below the raw FM85 value and closer to n.
        let m = 64u32;
        let mean_r = 0.55f64;
        let raw = (f64::from(m) / PHI) * mean_r.exp2();
        let corrected = estimate_from_mean_r(m, mean_r);
        assert!(corrected < raw);
        // n ≈ 64 in this regime: corrected should land within ~40%.
        assert!((corrected - 64.0).abs() / 64.0 < 0.4, "corrected = {corrected}");
    }

    #[test]
    fn width_for_is_monotone_and_sane() {
        assert!(width_for(1_000, 64) < width_for(1_000_000_000, 64));
        // 100k hosts in 64 bins: expected boundary ~ log2(0.77*1562) ≈ 10.2,
        // so width must be comfortably above that but below the u64 cap.
        let w = width_for(100_000, 64);
        assert!((18..=30).contains(&w), "width_for(100k, 64) = {w}");
    }

    #[test]
    fn error_shrinks_with_bins() {
        assert!(expected_error(256) < expected_error(64));
        assert!(expected_error(64) < expected_error(16));
    }
}
