//! Compact wire encoding for sketch gossip payloads.
//!
//! The counter matrix dominates Count-Sketch-Reset's bandwidth (§IV-B's
//! cost argument, our `ablation_bandwidth`). Real deployments would not
//! ship raw byte grids: a converged matrix is all ∞ ("never sourced") in
//! the registers above `log2(n/m)` and small ages below. This module
//! provides a simple, dependency-free encoding exploiting exactly that:
//!
//! * **age matrices** — a *plane code* in the matrix's own register-major
//!   order: a presence mask of the register columns holding any finite
//!   cell, then per present column a bin bitmap and one age byte per set
//!   bit ([`encode_ages`] has the layout),
//! * **PCSA sketches** — the raw bit registers, bit-packed little-endian.
//!
//! The codec is exact (lossless round-trip, property-tested) and
//! *canonical*: a matrix has exactly one encoding and the decoder accepts
//! nothing else, so `decode` ∘ `encode` and `encode` ∘ `decode` are both
//! identities. Measured on the traffic the engines ship — a converged
//! paper-geometry matrix (64 bins, `width_for(n, 64)`, every id claimed
//! and released under hash seed 7, ten ticks) — against the raw grid and
//! the run-length code this format replaced (3-byte chunk headers over a
//! bin-major cell stream, which two of the four rows show *inflating*):
//!
//! | hosts `n` | geometry | raw B | run-length B | plane B |
//! |---|---|---|---|---|
//! | 100 | 64 × 10 | 640 | 470 | 144 |
//! | 1 000 | 64 × 13 | 832 | 884 | 360 |
//! | 6 000 | 64 × 16 | 1 024 | 984 | 542 |
//! | 100 000 | 64 × 20 | 1 280 | 1 344 | 857 |
//!
//! ```
//! use dynagg_sketch::age::AgeMatrix;
//! use dynagg_sketch::codec::encoded_len_ages;
//! use dynagg_sketch::estimate::width_for;
//! use dynagg_sketch::hash::SplitMix64;
//!
//! let plane = |n: u64| {
//!     let mut m = AgeMatrix::new(64, width_for(n, 64));
//!     for id in 0..n {
//!         m.claim_id(&SplitMix64::new(7), id);
//!     }
//!     m.release_all();
//!     (0..10).for_each(|_| m.tick());
//!     (m.wire_bytes(), encoded_len_ages(&m))
//! };
//! assert_eq!(plane(100), (640, 144));
//! assert_eq!(plane(1_000), (832, 360));
//! assert_eq!(plane(6_000), (1_024, 542));
//! assert_eq!(plane(100_000), (1_280, 857));
//! ```
//!
//! A fresh host (one finite cell) costs 16–17 B at these geometries
//! (header, mask, one bitmap, one age). The simulator's bandwidth
//! accounting intentionally reports *raw* sizes to stay comparable with
//! the paper; `encoded_len` gives the deployment number (and backs
//! `wire = "measured"` scenario accounting).
//!
//! Encoding is **memoized per mutation version**: both payload types carry
//! a version ([`AgeMatrix::version`], [`Pcsa::version`]) and a per-object
//! slot. The traffic the memo serves was measured, on the async engine's
//! sketch workload: every protocol pushes one snapshot to one peer, so
//! there is no fan-out to amortise, and 14.8 % of encodes re-read a
//! version (the reply that follows a poll with no merge between). So the
//! first encode of a version goes straight into the caller's buffer and
//! leaves only its length behind, copying nothing for a frame that is
//! sent once; the payload is kept when the same version is asked for
//! again, and every encode after that is a `memcpy`. A length-only probe
//! ([`encoded_len_ages`]) fills the same slot without building the
//! payload.

use crate::age::{finite_age_of, wire_stamp, AgeMatrix, EncodeSlot, MAX_FINITE_AGE};
use crate::pcsa::Pcsa;
use std::sync::{Arc, Mutex, MutexGuard};

/// Encoding errors (decode side).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Input ended mid-structure.
    Truncated,
    /// Header fields disagree with payload length or are invalid.
    Malformed(&'static str),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Truncated => write!(f, "encoded sketch is truncated"),
            Self::Malformed(what) => write!(f, "malformed encoded sketch: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Largest geometry, in cells, [`decode_ages`] builds for a frame that
/// names no present column. Every present column is backed by its
/// ⌈m/8⌉-byte bitmap, so a frame with one can only make the decoder
/// allocate in proportion to its own length; an all-∞ matrix is five
/// header bytes and a zero mask whatever geometry it claims, so that one
/// case is capped — 1 024 bins × 64 registers, 64 KiB of stamps.
pub const MAX_EMPTY_CELLS: u64 = 1 << 16;

/// Bytes of the presence mask for register width `l`: one bit per
/// register `0..=l`.
fn mask_len(l: u8) -> usize {
    (usize::from(l) + 1).div_ceil(8)
}

fn lock_memo(cache: &Mutex<EncodeSlot>) -> MutexGuard<'_, EncodeSlot> {
    cache.lock().expect("no encode panics while holding the memo lock")
}

/// Append to `out` the payload `write` produces for the object state at
/// `version`, through that object's memo: written straight into `out` —
/// and only its length noted — the first time a version is encoded, kept
/// as well the second time, copied out of the memo from then on.
fn encode_memoized(
    cache: &Mutex<EncodeSlot>,
    version: u64,
    out: &mut Vec<u8>,
    write: impl FnOnce(&mut Vec<u8>),
) {
    let mut slot = lock_memo(cache);
    let seen = slot.version == version;
    if let (true, Some(bytes)) = (seen, &slot.bytes) {
        out.extend_from_slice(bytes);
        return;
    }
    let start = out.len();
    write(out);
    let built = &out[start..];
    *slot = EncodeSlot { version, len: built.len(), bytes: seen.then(|| Arc::new(built.to_vec())) };
}

/// Encode an age matrix as register planes:
///
/// ```text
/// m: u32 LE | l: u8 | presence mask: ⌈(l+1)/8⌉ B, bit k ⇔ column k has a finite cell
/// then, for each present column in ascending k:
///   bin bitmap: ⌈m/8⌉ B, bit b ⇔ cell (b, k) is finite | one age byte per set bit, ascending b
/// ```
///
/// Bits are LSB-first within a byte. Absent columns, bitmap bits beyond
/// `m`, mask bits beyond `l`, a present column without a set bit, an age
/// byte above [`MAX_FINITE_AGE`] and trailing bytes never occur — which
/// is what makes the encoding canonical.
///
/// Owned-cell bookkeeping is *not* encoded: a receiver merges the ages; it
/// never inherits sourcing duties (Fig. 5's exchange sends counters only).
pub fn encode_ages(m: &AgeMatrix) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + m.wire_bytes() / 2);
    encode_ages_into(m, &mut out);
    out
}

/// [`encode_ages`] appending into a caller-provided buffer (not cleared),
/// so per-message encoding on a node runtime reuses one allocation.
///
/// Memoized per [`AgeMatrix::version`] (the module doc has the rule): a
/// frame that is encoded once is written into `out` and copied nowhere.
pub fn encode_ages_into(m: &AgeMatrix, out: &mut Vec<u8>) {
    encode_memoized(m.encode_cache(), m.version(), out, |out| write_planes(m, out));
}

/// Bins per bitmap word: the plane kernels walk a column in runs of this
/// many cells, one `u64` of bin bitmap each.
const RUN: usize = 64;

/// The bin-bitmap word of a run of at most [`RUN`] stamps: bit `b` set ⇔
/// `run[b]` is finite (nonzero). Eight stamps at a time through a SWAR
/// nonzero test — the carry out of the low seven bits, or the top bit
/// itself, lights bit 7 of each nonzero byte — and a multiply that
/// gathers those eight bits, LSB-first, into the top byte.
#[inline]
fn finite_word(run: &[u8]) -> u64 {
    const LO7: u64 = 0x7f7f_7f7f_7f7f_7f7f;
    let (groups, tail) = run.as_chunks::<8>();
    let mut word = 0;
    for (i, &group) in groups.iter().enumerate() {
        let g = u64::from_le_bytes(group);
        let nz = (((g & LO7) + LO7) | g) & !LO7;
        word |= ((nz >> 7).wrapping_mul(0x0102_0408_1020_4080) >> 56) << (8 * i);
    }
    // Fewer than eight bins to the column (the count is a power of two).
    for (i, &s) in tail.iter().enumerate() {
        word |= u64::from(s != 0) << (8 * groups.len() + i);
    }
    word
}

/// Encode one run of a column: its bitmap word into `bits`, then the
/// ages the word names onto the front of `ages`; returns how many. A full
/// run is translated whole (one vectorised loop; registers 0–1 of a
/// converged matrix), any other stores one age per set bit.
#[inline(always)]
fn write_run(now: u8, run: &[u8], bits: &mut [u8], ages: &mut [u8]) -> usize {
    let word = finite_word(run);
    (bits.iter_mut().zip(word.to_le_bytes())).for_each(|(b, w)| *b = w);
    let finite = word.count_ones() as usize;
    let ages = &mut ages[..finite];
    if finite == run.len() {
        (ages.iter_mut().zip(run)).for_each(|(a, &s)| *a = finite_age_of(now, s));
    } else {
        // `% RUN` changes no index (a set bit sits below it); it lets a
        // whole run, whose length the compiler knows, go unchecked.
        let mut left = word;
        for a in ages {
            *a = finite_age_of(now, run[left.trailing_zeros() as usize % RUN]);
            left &= left - 1;
        }
    }
    finite
}

/// The miss path of [`encode_ages_into`]: each live column of the
/// register-major stamps, [`RUN`] bins at a time, so the work follows the
/// finite cells (under a third of a converged matrix) and not the cells.
fn write_planes(m: &AgeMatrix, out: &mut Vec<u8>) {
    let bins = m.num_bins() as usize;
    let bitmap_len = bins.div_ceil(8);
    let (now, stamps) = m.clock_and_stamps();
    out.extend_from_slice(&m.num_bins().to_le_bytes());
    out.push(m.width());
    let mask_at = out.len();
    out.resize(mask_at + mask_len(m.width()), 0);
    for (k, col) in stamps.chunks_exact(bins).enumerate() {
        if col.iter().fold(0, |any, &s| any | s) == 0 {
            continue;
        }
        out[mask_at + k / 8] |= 1 << (k % 8);
        // Room for the bitmap and the worst case of `bins` ages, reserved
        // per column so a recycled buffer grows to the frames it carries
        // and not to the geometry; the tail left over is cut off below.
        let plane_at = out.len();
        out.resize(plane_at + bitmap_len + bins, 0);
        let (bitmap, ages) = out[plane_at..].split_at_mut(bitmap_len);
        // Whole runs at a length the compiler sees; a column narrower
        // than a word is all remainder, any other has none.
        let (runs, narrow) = col.as_chunks::<RUN>();
        let (words, stub) = bitmap.as_chunks_mut::<8>();
        let mut finite = 0;
        for (run, bits) in runs.iter().zip(words) {
            finite += write_run(now, run, bits, &mut ages[finite..]);
        }
        finite += write_run(now, narrow, stub, &mut ages[finite..]);
        out.truncate(plane_at + bitmap_len + finite);
    }
}

/// The first `bits.len() ≤ 8` bitmap bytes as a little-endian word.
#[inline]
fn bitmap_word(bits: &[u8]) -> u64 {
    bits.iter().rev().fold(0, |word, &b| word << 8 | u64::from(b))
}

/// [`write_run`] in reverse: fill one run of a fresh column from the
/// front of `ages` as its bitmap `word` directs — whole if every bit is
/// set, else scattered to the set bits — and return the ages left over.
/// The caller has counted the column's bits against `ages`.
#[inline(always)]
fn read_run<'a>(run: &mut [u8], word: u64, ages: &'a [u8]) -> &'a [u8] {
    let (ages, later) = ages.split_at(word.count_ones() as usize);
    if ages.len() == run.len() {
        (run.iter_mut().zip(ages)).for_each(|(s, &a)| *s = wire_stamp(a));
    } else {
        let mut left = word;
        for &a in ages {
            run[left.trailing_zeros() as usize % RUN] = wire_stamp(a);
            left &= left - 1;
        }
    }
    later
}

/// Decode an age matrix previously produced by [`encode_ages`]; anything
/// but a canonical encoding is an error. The result has no owned cells
/// (it is a peer's view, to be min-merged) and its clock is at base.
pub fn decode_ages(bytes: &[u8]) -> Result<AgeMatrix, CodecError> {
    if bytes.len() < 5 {
        return Err(CodecError::Truncated);
    }
    let m = u32::from_le_bytes(bytes[0..4].try_into().expect("4 bytes"));
    let l = bytes[4];
    if !m.is_power_of_two() || l == 0 || l > crate::fm::MAX_WIDTH {
        return Err(CodecError::Malformed("invalid geometry header"));
    }
    let registers = usize::from(l) + 1;
    let body = bytes.get(5 + mask_len(l)..).ok_or(CodecError::Truncated)?;
    let mask = bitmap_word(&bytes[5..5 + mask_len(l)]);
    if registers < 64 && mask >> registers != 0 {
        return Err(CodecError::Malformed("presence mask names a register beyond the geometry"));
    }
    // Pre-allocation guard: nothing is reserved for geometry the payload
    // does not pay for. A present column costs its bitmap plus at least
    // one age, so the stamps allocated below are at most 8·(l+1) bytes
    // per payload byte; only the all-∞ matrix is described in fewer, and
    // that one is capped (see `MAX_EMPTY_CELLS`).
    let bitmap_len = (m as usize).div_ceil(8);
    if mask == 0 {
        if u64::from(m) * registers as u64 > MAX_EMPTY_CELLS {
            return Err(CodecError::Malformed("empty matrix exceeds the unbacked-geometry cap"));
        }
    } else if (body.len() as u64) < u64::from(mask.count_ones()) * (bitmap_len as u64 + 1) {
        return Err(CodecError::Truncated);
    }
    let mut out = AgeMatrix::new(m, l);
    let mut rest = body;
    for (k, col) in out.base_stamps_mut().chunks_exact_mut(m as usize).enumerate() {
        if mask >> k & 1 == 0 {
            continue;
        }
        if rest.len() < bitmap_len {
            return Err(CodecError::Truncated);
        }
        let (bitmap, tail) = rest.split_at(bitmap_len);
        if m < 8 && bitmap[0] >> m != 0 {
            return Err(CodecError::Malformed("bin bitmap names a bin beyond the geometry"));
        }
        // Whole words at a length the compiler sees; a column narrower
        // than one is all `stub`, any other has none.
        let (words, stub) = bitmap.as_chunks::<8>();
        let words = words.iter().map(|&w| u64::from_le_bytes(w));
        let stub = bitmap_word(stub);
        let finite = words.clone().map(u64::count_ones).sum::<u32>() + stub.count_ones();
        if finite == 0 {
            return Err(CodecError::Malformed("present column holds no finite cell"));
        }
        let Some((ages, tail)) = tail.split_at_checked(finite as usize) else {
            return Err(CodecError::Truncated);
        };
        // A whole-slice max, not a short-circuiting search: it vectorizes.
        if ages.iter().fold(0, |oldest, &a| oldest.max(a)) > MAX_FINITE_AGE {
            return Err(CodecError::Malformed("age byte is past the saturation clamp"));
        }
        let (runs, narrow) = col.as_chunks_mut::<RUN>();
        let mut ages = ages;
        for (run, word) in runs.iter_mut().zip(words) {
            ages = read_run(run, word, ages);
        }
        read_run(narrow, stub, ages);
        rest = tail;
    }
    if !rest.is_empty() {
        return Err(CodecError::Malformed("trailing bytes"));
    }
    Ok(out)
}

/// Encoded size without materializing the payload (bandwidth accounting,
/// `wire = "measured"` lockstep metering): header, mask, and per live
/// column its bitmap plus one byte per nonzero stamp — one counting pass
/// over the stamps, by the encoder's bitmap words, memoized in the same
/// version-stamped slot as the payload so re-probing an unmutated
/// snapshot is O(1).
pub fn encoded_len_ages(m: &AgeMatrix) -> usize {
    let version = m.version();
    let mut slot = lock_memo(m.encode_cache());
    if slot.version == version && slot.len != 0 {
        return slot.len;
    }
    let bins = m.num_bins() as usize;
    let (_, stamps) = m.clock_and_stamps();
    let planes: usize = (stamps.chunks_exact(bins))
        .map(|col| col.chunks(RUN).map(|run| finite_word(run).count_ones() as usize).sum::<usize>())
        .filter(|&finite| finite != 0)
        .map(|finite| bins.div_ceil(8) + finite)
        .sum();
    let len = 5 + mask_len(m.width()) + planes;
    *slot = EncodeSlot { version, len, bytes: None };
    len
}

/// Encode a PCSA sketch: header `(m: u32, l: u8)`, then each bin's
/// `L + 1`-bit register packed little-endian into ⌈(L+1)/8⌉ bytes.
pub fn encode_pcsa(p: &Pcsa) -> Vec<u8> {
    let bytes_per_bin = (usize::from(p.width()) + 1).div_ceil(8);
    let mut out = Vec::with_capacity(5 + p.bins().len() * bytes_per_bin);
    encode_pcsa_into(p, &mut out);
    out
}

/// [`encode_pcsa`] appending into a caller-provided buffer (not cleared).
/// Memoized per [`Pcsa::version`], like [`encode_ages_into`].
pub fn encode_pcsa_into(p: &Pcsa, out: &mut Vec<u8>) {
    encode_memoized(p.encode_cache(), p.version(), out, |out| {
        let bytes_per_bin = (usize::from(p.width()) + 1).div_ceil(8);
        out.extend_from_slice(&p.num_bins().to_le_bytes());
        out.push(p.width());
        for bin in p.bins() {
            out.extend_from_slice(&bin.bits().to_le_bytes()[..bytes_per_bin]);
        }
    });
}

/// Decode a PCSA sketch previously produced by [`encode_pcsa`].
pub fn decode_pcsa(bytes: &[u8]) -> Result<Pcsa, CodecError> {
    if bytes.len() < 5 {
        return Err(CodecError::Truncated);
    }
    let m = u32::from_le_bytes(bytes[0..4].try_into().expect("4 bytes"));
    let l = bytes[4];
    if !m.is_power_of_two() || l == 0 || l > crate::fm::MAX_WIDTH {
        return Err(CodecError::Malformed("invalid geometry header"));
    }
    let bytes_per_bin = (usize::from(l) + 1).div_ceil(8);
    let expected = 5 + m as usize * bytes_per_bin;
    if bytes.len() != expected {
        return Err(CodecError::Malformed("payload length mismatch"));
    }
    let mut p = Pcsa::new(m, l);
    let mask: u64 = if usize::from(l) + 1 >= 64 { u64::MAX } else { (1u64 << (l + 1)) - 1 };
    for (bin, chunk) in bytes[5..].chunks_exact(bytes_per_bin).enumerate() {
        let mut raw = [0u8; 8];
        raw[..bytes_per_bin].copy_from_slice(chunk);
        let bits = u64::from_le_bytes(raw) & mask;
        for k in 0..=l {
            if bits & (1 << k) != 0 {
                p.set_cell(bin as u32, k);
            }
        }
    }
    Ok(p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::age::INF_AGE;
    use crate::cutoff::Cutoff;
    use crate::hash::SplitMix64;

    fn sample_matrix(n: u64, ticks: u8) -> AgeMatrix {
        let h = SplitMix64::new(3);
        let mut m = AgeMatrix::new(64, 24);
        for id in 0..n {
            m.claim_id(&h, id);
        }
        m.release_all();
        for _ in 0..ticks {
            m.tick();
        }
        m
    }

    #[test]
    fn ages_roundtrip_exactly() {
        for (n, ticks) in [(0u64, 0u8), (1, 0), (100, 3), (5_000, 10), (5_000, 200)] {
            let m = sample_matrix(n, ticks);
            let decoded = decode_ages(&encode_ages(&m)).unwrap();
            for bin in 0..m.num_bins() {
                for k in 0..=m.width() {
                    assert_eq!(decoded.age(bin, k), m.age(bin, k), "cell ({bin}, {k})");
                }
            }
            // Bit views (the thing estimates read) agree too.
            assert_eq!(
                decoded.bit_view(&Cutoff::paper_uniform()),
                m.bit_view(&Cutoff::paper_uniform())
            );
        }
    }

    #[test]
    fn encoded_len_matches_actual_encoding() {
        for (n, ticks) in [(0u64, 0u8), (1, 0), (100, 3), (5_000, 10), (5_000, 200)] {
            let m = sample_matrix(n, ticks);
            assert_eq!(encoded_len_ages(&m), encode_ages(&m).len(), "n={n} ticks={ticks}");
        }
    }

    #[test]
    fn encode_into_appends_without_clearing() {
        let m = sample_matrix(64, 2);
        let mut buf = vec![0xAA, 0xBB];
        encode_ages_into(&m, &mut buf);
        assert_eq!(&buf[..2], &[0xAA, 0xBB]);
        assert_eq!(&buf[2..], encode_ages(&m).as_slice());
    }

    #[test]
    fn encoding_compresses_sparse_and_converged_matrices() {
        let empty = AgeMatrix::new(64, 24);
        let raw = empty.wire_bytes();
        let enc = encoded_len_ages(&empty);
        assert!(enc < raw / 10, "empty matrix should collapse: {enc} vs {raw}");

        let converged = sample_matrix(5_000, 5);
        let enc = encoded_len_ages(&converged);
        assert!(
            enc < converged.wire_bytes(),
            "converged matrix should still shrink: {enc} vs {}",
            converged.wire_bytes()
        );
    }

    #[test]
    fn pcsa_roundtrip_exactly() {
        let h = SplitMix64::new(4);
        for n in [0u64, 1, 50, 20_000] {
            let mut p = Pcsa::new(64, 24);
            for id in 0..n {
                p.insert(&h, id);
            }
            let decoded = decode_pcsa(&encode_pcsa(&p)).unwrap();
            assert_eq!(decoded, p);
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert_eq!(decode_ages(&[]), Err(CodecError::Truncated));
        assert_eq!(decode_ages(&[1, 2, 3]), Err(CodecError::Truncated));
        // bad geometry: m = 3 not a power of two
        let mut bad = 3u32.to_le_bytes().to_vec();
        bad.push(24);
        assert!(matches!(decode_ages(&bad), Err(CodecError::Malformed(_))));
        // truncated mid-plane
        let m = sample_matrix(100, 2);
        let enc = encode_ages(&m);
        assert!(decode_ages(&enc[..enc.len() - 3]).is_err());
        // pcsa length mismatch
        let p = Pcsa::new(16, 24);
        let mut enc = encode_pcsa(&p);
        enc.pop();
        assert!(decode_pcsa(&enc).is_err());
    }

    #[test]
    fn decode_accepts_only_the_canonical_planes() {
        // 2 bins × 2 registers, by hand: header, mask, then per present
        // register a bin bitmap and the ages of its set bits.
        const HEADER: [u8; 5] = [2, 0, 0, 0, 1];
        let frame = |planes: &[u8]| [&HEADER[..], planes].concat();
        let m = decode_ages(&frame(&[0b11, 0b01, 4, 0b11, 0, 9])).unwrap();
        assert_eq!([m.age(0, 0), m.age(1, 0), m.age(0, 1), m.age(1, 1)], [4, INF_AGE, 0, 9]);
        assert_eq!(encode_ages(&m), frame(&[0b11, 0b01, 4, 0b11, 0, 9]));
        assert_eq!(encode_ages(&decode_ages(&frame(&[0])).unwrap()), frame(&[0]));

        let malformed = |planes: &[u8]| match decode_ages(&frame(planes)) {
            Err(CodecError::Malformed(why)) => why,
            other => panic!("{planes:?} must be malformed, got {other:?}"),
        };
        assert!(malformed(&[0b100, 0b01, 4]).contains("register beyond"));
        assert!(malformed(&[0b01, 0b100, 4]).contains("bin beyond"));
        assert!(malformed(&[0b01, 0b00, 4]).contains("no finite cell"));
        assert!(malformed(&[0b01, 0b01, INF_AGE]).contains("saturation clamp"));
        assert!(malformed(&[0b01, 0b01, MAX_FINITE_AGE + 1]).contains("saturation clamp"));
        assert!(decode_ages(&frame(&[0b01, 0b01, MAX_FINITE_AGE])).is_ok());
        assert_eq!(malformed(&[0b01, 0b01, 4, 0]), "trailing bytes");
        assert_eq!(malformed(&[0, 0]), "trailing bytes");
        assert_eq!(decode_ages(&frame(&[])), Err(CodecError::Truncated));
        assert_eq!(decode_ages(&frame(&[0b01, 0b01])), Err(CodecError::Truncated));
        assert_eq!(decode_ages(&frame(&[0b11, 0b11, 4, 5, 0b01])), Err(CodecError::Truncated));
    }

    #[test]
    fn encode_memo_is_stable_and_invalidated_by_mutation() {
        let mut m = sample_matrix(500, 4);
        let first = encode_ages(&m);
        // The second encode keeps the payload, the third is served from
        // the memo — bytes identical.
        assert_eq!(encode_ages(&m), first);
        assert_eq!(encode_ages(&m), first);
        // A length-only probe agrees with the cached payload.
        assert_eq!(encoded_len_ages(&m), first.len());
        // Any mutation must invalidate: the next encode reflects it.
        m.tick();
        let after = encode_ages(&m);
        assert_ne!(after, first, "tick must invalidate the encode memo");
        assert_eq!(decode_ages(&after).unwrap().age(0, 0), m.age(0, 0));
    }

    #[test]
    fn length_probe_then_encode_agree() {
        // encoded_len first (fills a bytes-less memo), then encode must
        // still produce the real payload at the same length.
        let m = sample_matrix(200, 2);
        let len = encoded_len_ages(&m);
        let enc = encode_ages(&m);
        assert_eq!(enc.len(), len);
        assert!(decode_ages(&enc).is_ok());
    }

    #[test]
    fn pcsa_encode_memo_matches_fresh_encoding() {
        let h = SplitMix64::new(11);
        let mut p = Pcsa::new(32, 24);
        for id in 0..300u64 {
            p.insert(&h, id);
        }
        let first = encode_pcsa(&p);
        assert_eq!(encode_pcsa(&p), first);
        p.insert(&h, 10_000);
        // Clone starts cold: its fresh encode must equal the mutated
        // original's (memo cannot leak stale bytes through clones).
        assert_eq!(encode_pcsa(&p.clone()), encode_pcsa(&p));
    }

    #[test]
    fn decoded_matrix_has_no_owned_cells() {
        let h = SplitMix64::new(5);
        let mut m = AgeMatrix::new(16, 16);
        m.claim_id(&h, 1);
        let decoded = decode_ages(&encode_ages(&m)).unwrap();
        assert_eq!(decoded.owned_cells(), 0, "sourcing duties never transfer over the wire");
        // ...but the age-0 cell is still present for min-merging.
        assert_eq!(decoded.finite_cells().count(), 1);
    }
}
