//! The age-counter matrix behind Count-Sketch-Reset (paper §IV-A, Fig. 5).
//!
//! Static counting sketches cannot heal: a bit, once set, has no way to
//! decay, and a departing host cannot know whether another live host still
//! sources the same bit. Count-Sketch-Reset's fix is to replace every bit
//! with an **age counter**:
//!
//! * a host that *sources* cell `(bin, k)` pins that counter to 0,
//! * every other counter increments by one each gossip round,
//! * gossip exchanges merge counters element-wise with `min`,
//! * a bit is considered set iff its age is within a cutoff `f(k)`
//!   ([`crate::cutoff::Cutoff`]).
//!
//! While a source is alive, the age of its cell anywhere in the network is
//! bounded (w.h.p.) by the gossip propagation time, which for bit `k` is
//! `≈ 7 + k/4` rounds under uniform gossip — independent of network size.
//! When the last source of a cell departs, the cell's minimum age grows by
//! exactly one per round everywhere, crosses the cutoff, and the bit
//! expires: the estimate self-heals.
//!
//! # Lazy aging
//!
//! Aging is global — every counter moves by the same +1 each round — so
//! storing ages eagerly wastes an O(m·l) write pass per host per round.
//! This implementation stores a per-cell **birth stamp** plus one
//! matrix-global clock `now`, with the invariant
//!
//! ```text
//! age(cell) = min(now + 1 − stamp, MAX_FINITE_AGE)     stamp ∈ [1, now+1]
//! stamp = 0  ⇔  age = INF_AGE (never sourced)
//! ```
//!
//! so [`tick`](AgeMatrix::tick) is a clock bump plus re-pinning the
//! O(own) sourced cells, and [`merge_min`](AgeMatrix::merge_min) becomes
//! a branchless element-wise **max of stamps** (larger stamp = younger
//! cell; 0 is the identity, preserving the ∞ sentinel). Min-of-ages and
//! max-of-stamps agree even past the saturation boundary because
//! clamping is monotone: `clamp(min(e₁,e₂)) = min(clamp(e₁), clamp(e₂))`.
//!
//! A stamp is **one byte**, the paper's counter width, so a merge streams
//! exactly the bytes the eager matrix would. A byte holds the ∞ sentinel
//! plus 255 stamps, and the clock moves in a window of two values: at
//! the base clock [`MAX_FINITE_AGE`] the ages `0..=MAX_FINITE_AGE` take
//! stamps `now + 1 ..= 1`, and one tick later the pinned cells take the
//! one stamp above that, `u8::MAX`. That spare code is why
//! `MAX_FINITE_AGE` is 253 and not 254. Every merge translates both
//! operands to the base clock as it takes their max (a saturating
//! subtract of the operand's clock offset, 0 or 1, floored at 1 for
//! finite cells — exact on each cell's clamped age) and leaves its result
//! there, so the gossip rhythm tick → merge → tick never leaves the
//! window. Only a tick that follows a tick with no merge between must
//! first shift the stamps down itself: one eager pass over the cells,
//! which is what the eager representation pays on *every* tick.
//! That representation is retained verbatim as
//! [`crate::reference::RefAgeMatrix`] and the two are proven
//! indistinguishable by the differential suite in
//! `tests/lazy_equivalence.rs`.
//!
//! Each matrix also carries a **mutation version** ([`AgeMatrix::version`])
//! keying the codec's per-snapshot encode memo: a reply that follows a
//! poll with no merge between re-reads the frame instead of re-encoding.

use crate::cutoff::Cutoff;
use crate::estimate;
use crate::hash::Hash64;
use crate::pcsa::Pcsa;
use crate::rho::bin_and_rho;
use std::sync::{Arc, Mutex};

/// Sentinel for "never sourced": behaves as +∞ under `min`.
pub const INF_AGE: u8 = u8::MAX;

/// Largest representable finite age; ages saturate here so a very old
/// cell never wraps around into looking fresh. All practical cutoffs are
/// far below this. Two below `u8::MAX`: one code is [`INF_AGE`], one is
/// the stamp of a cell pinned a tick past the base clock.
pub const MAX_FINITE_AGE: u8 = u8::MAX - 2;

/// The clock value of a fresh, freshly decoded or freshly merged matrix;
/// a tick moves the clock one past it and no further. Starting at
/// `MAX_FINITE_AGE` keeps every stamp for ages `0..=MAX_FINITE_AGE`
/// at least 1, so stamp 0 can mean ∞ unambiguously.
const BASE_NOW: u8 = MAX_FINITE_AGE;

/// Clamped age of a stamp under clock `now` (`INF_AGE` for the 0 sentinel).
#[inline]
fn age_of(now: u8, s: u8) -> u8 {
    if s == 0 {
        INF_AGE
    } else {
        finite_age_of(now, s)
    }
}

/// [`age_of`] for a stamp known to be finite (`s ≥ 1`), without the
/// sentinel test. Total on the sentinel too — it reads `MAX_FINITE_AGE`
/// there — so a branch-free pass may call it on every stamp and discard
/// the sentinels' bytes.
#[inline]
pub(crate) fn finite_age_of(now: u8, s: u8) -> u8 {
    (now + 1 - s).min(MAX_FINITE_AGE)
}

/// Stamp of a finite cell of age `a ≤ MAX_FINITE_AGE` under the base
/// clock — what a matrix loaded from age bytes holds: age 0 sits at
/// `BASE_NOW + 1`, [`MAX_FINITE_AGE`] at 1, clear of the 0 sentinel.
#[inline]
pub(crate) fn wire_stamp(a: u8) -> u8 {
    BASE_NOW + 1 - a
}

/// The younger of two stamps at the base clock, `s` and `o` each coming
/// from a matrix whose clock is `mine` / `theirs` (0 or 1) past it. The
/// subtraction maps the ∞ sentinel to itself; the last term floors a
/// finite stamp at 1 — for an offset of at most 1 only stamp 1 can sink
/// below, and `& 1` picks it out — so a cell past the clamp stays exactly
/// [`MAX_FINITE_AGE`], matching eager saturation. Six packed byte ops.
#[inline]
fn max_at_base(s: u8, mine: u8, o: u8, theirs: u8) -> u8 {
    s.saturating_sub(mine).max(o.saturating_sub(theirs)).max((s | o) & 1)
}

/// Largest `L + 1` row length ([`crate::fm::MAX_WIDTH`] + 1): the size of
/// an admission-floor table.
pub(crate) const MAX_ROW: usize = crate::fm::MAX_WIDTH as usize + 1;

/// Bins per chunk of the live-run kernel ([`live_run_sum`]): four 16-byte
/// vectors of flags and four of run lengths on baseline x86-64, and the
/// paper's whole 64-bin column.
const LANES: usize = 64;

/// Exclusive admission floor at the base clock: the highest stamp a cell
/// at register `k` of a matrix whose clock is [`BASE_NOW`] may hold and
/// *not* be admitted by `cutoff`, so a cell is live iff its stamp is
/// strictly above. One `u8` compare per cell in place of the float
/// compare of `Cutoff::admits`; stamp 0 (∞) is above no floor. (Exclusive
/// because the pinned stamp can be `u8::MAX`, which no inclusive floor
/// excludes.) [`floor_at`] carries it to a ticked clock.
pub(crate) fn base_stamp_floor(cutoff: &Cutoff, k: u8) -> u8 {
    match cutoff.threshold(k) {
        // Infinite cutoff: every finite stamp is live.
        None => 0,
        Some(t) => {
            if t.is_nan() || t < 0.0 {
                // Negative (or NaN) threshold admits no age at all.
                u8::MAX
            } else if t >= f64::from(MAX_FINITE_AGE) {
                // Ages clamp at MAX_FINITE_AGE, so every finite cell
                // is admitted.
                0
            } else {
                // 0 ≤ t < MAX_FINITE_AGE: `age ≤ t ⇔ age ≤ ⌊t⌋` for
                // integer ages, and truncation is floor for
                // non-negative t.
                BASE_NOW - t as u8
            }
        }
    }
}

/// A [`base_stamp_floor`] under a clock `ahead` (0 or 1) ticks past base.
/// A threshold's floor, `1..=BASE_NOW`, moves with the clock; the two
/// constant floors — 0, every finite stamp, and `u8::MAX`, none — hold at
/// either clock.
#[inline]
fn floor_at(base: u8, ahead: u8) -> u8 {
    if base == 0 || base == u8::MAX {
        base
    } else {
        base + ahead
    }
}

/// `Σ_bins min(R, L)` of register-major `stamps` with `m` bins, a cell of
/// register `k` live iff its stamp is above `floors[k]`; `floors` holds
/// registers `0..L`. `R` for a bin is the index of its first dead
/// register, so the register-major layout turns the per-bin walk into a
/// sweep of contiguous columns, [`LANES`] bins at a time: each bin keeps
/// an alive flag and a run-length lane, both one byte, so a column is a
/// compare, an `and`, an `add` and an `or` on packed `u8` lanes, and
/// nothing is widened until the lanes are summed, once per chunk. A chunk
/// is left at the first column none of its runs survives — the end of its
/// *deepest* run, two or three columns past the mean one — and a bin count
/// below [`LANES`] is one short chunk of the same loop: 128 bytes of
/// stack at any `m`, no heap.
///
/// A function of plain slices, not a method: `&AgeMatrix` holds a `Mutex`,
/// so it promises the compiler nothing about aliasing, and the lane loop
/// then re-reads the stamps' pointer and range-checks it against the lanes
/// on every column (82 against 68 ns on a live 64 × 16 matrix).
fn live_run_sum(stamps: &[u8], m: usize, floors: &[u8]) -> u32 {
    // A lane gains at most one per column swept, and `L` is itself a byte.
    debug_assert!(floors.len() <= usize::from(crate::fm::MAX_WIDTH));
    let mut sum = 0u32;
    for start in (0..m).step_by(LANES) {
        let lanes = LANES.min(m - start);
        let mut alive = [1u8; LANES];
        let mut run = [0u8; LANES];
        for (k, &f) in floors.iter().enumerate() {
            let col = &stamps[k * m + start..][..lanes];
            let mut any = 0u8;
            for i in 0..lanes {
                alive[i] &= u8::from(col[i] > f);
                run[i] += alive[i];
                any |= alive[i];
            }
            if any == 0 {
                break;
            }
        }
        sum += run.iter().map(|&r| u32::from(r)).sum::<u32>();
    }
    sum
}

/// Codec memo for one matrix: the encoded payload (and its length) of the
/// matrix state at `version`. Interior-mutable behind `&self` because
/// encoding happens on shared snapshots; never shared between matrix
/// objects (clones start empty), so a stale hit is impossible — any
/// mutation holds `&mut` and bumps the owner's version first.
#[derive(Debug, Default)]
pub(crate) struct EncodeSlot {
    /// Matrix version the memo was computed at (0 = empty; versions
    /// start at 1).
    pub(crate) version: u64,
    /// Encoded length in bytes (0 = not yet computed; real payloads are
    /// never empty — the header alone is 5 bytes).
    pub(crate) len: usize,
    /// Full encoded payload, kept from the second request for `version`
    /// on (a length-only probe or a first encode fills just `len`).
    pub(crate) bytes: Option<Arc<Vec<u8>>>,
}

/// An `m × (L+1)` matrix of age counters with min-merge semantics,
/// stored lazily as birth stamps under a matrix-global clock.
#[derive(Debug, serde::Serialize, serde::Deserialize)]
pub struct AgeMatrix {
    m: u32,
    l: u8,
    /// Matrix-global clock, `BASE_NOW` or one tick past it; a cell's age
    /// is `now + 1 − stamp`, clamped.
    now: u8,
    /// Register-major (column-major) birth stamps: `l + 1` columns of `m`
    /// stamps each, so column `k` — what the estimate's live-run scan and
    /// the wire codec's plane pass both read — is contiguous. 0 = never
    /// sourced.
    stamps: Box<[u8]>,
    /// Flat indices of cells this host sources (kept pinned at age 0).
    /// Sorted and deduplicated.
    own: Vec<u32>,
    /// Mutation version: bumped by every `&mut` method that can change
    /// observable state. Keys [`EncodeSlot`].
    version: u64,
    cache: Mutex<EncodeSlot>,
}

impl Clone for AgeMatrix {
    fn clone(&self) -> Self {
        Self {
            m: self.m,
            l: self.l,
            now: self.now,
            stamps: self.stamps.clone(),
            own: self.own.clone(),
            version: self.version,
            // Memos are per-object: a clone starts cold rather than
            // sharing a slot whose owner may mutate away from it.
            cache: Mutex::new(EncodeSlot::default()),
        }
    }
}

impl PartialEq for AgeMatrix {
    fn eq(&self, other: &Self) -> bool {
        self.m == other.m
            && self.l == other.l
            && self.own == other.own
            && self
                .stamps
                .iter()
                .zip(other.stamps.iter())
                .all(|(&a, &b)| age_of(self.now, a) == age_of(other.now, b))
    }
}

impl Eq for AgeMatrix {}

impl AgeMatrix {
    /// Empty matrix with `m` bins (power of two), `l + 1` counters per bin,
    /// every counter at ∞ and no owned cells.
    ///
    /// # Panics
    /// Panics if `m` is not a power of two or `l` exceeds
    /// [`crate::fm::MAX_WIDTH`].
    pub fn new(m: u32, l: u8) -> Self {
        assert!(m.is_power_of_two(), "bin count must be a power of two");
        assert!(l > 0 && l <= crate::fm::MAX_WIDTH);
        let cells = (m as usize) * (usize::from(l) + 1);
        Self {
            m,
            l,
            now: BASE_NOW,
            stamps: vec![0u8; cells].into_boxed_slice(),
            own: Vec::new(),
            version: 1,
            cache: Mutex::new(EncodeSlot::default()),
        }
    }

    /// Number of bins `m`.
    pub fn num_bins(&self) -> u32 {
        self.m
    }

    /// Register width `L`.
    pub fn width(&self) -> u8 {
        self.l
    }

    /// Whether `other` has this matrix's `(m, L)` — the precondition of
    /// every merge. A protocol checks it on a matrix decoded off the wire
    /// and drops a foreign one instead of panicking in the merge.
    pub fn same_geometry(&self, other: &AgeMatrix) -> bool {
        self.m == other.m && self.l == other.l
    }

    /// Mutation version. Monotone per object within a lineage of `&mut`
    /// calls; clones keep the version they were cloned at. Any call that
    /// can change an observable (ages, ownership) assigns a fresh value —
    /// including adversarial cell forgery, which goes through
    /// [`claim_cell`](AgeMatrix::claim_cell).
    pub fn version(&self) -> u64 {
        self.version
    }

    pub(crate) fn encode_cache(&self) -> &Mutex<EncodeSlot> {
        &self.cache
    }

    /// The matrix clock and the register-major stamps under it, column `k`
    /// at `[k·m, (k+1)·m)`: the wire encoder reads planes straight off the
    /// storage ([`finite_age_of`] turns a stamp into its wire byte).
    pub(crate) fn clock_and_stamps(&self) -> (u8, &[u8]) {
        (self.now, &self.stamps)
    }

    /// The stamps of a matrix whose clock is still at base — a fresh one
    /// the wire decoder fills in place through [`wire_stamp`].
    pub(crate) fn base_stamps_mut(&mut self) -> &mut [u8] {
        debug_assert_eq!(self.now, BASE_NOW, "only a base-clock matrix takes wire stamps");
        self.bump();
        &mut self.stamps
    }

    #[inline]
    fn bump(&mut self) {
        self.version = self.version.wrapping_add(1);
    }

    /// Counters per bin (`L + 1`).
    #[inline]
    fn row_len(&self) -> usize {
        usize::from(self.l) + 1
    }

    #[inline]
    fn flat(&self, bin: u32, k: u8) -> usize {
        debug_assert!(bin < self.m && k <= self.l);
        usize::from(k) * (self.m as usize) + bin as usize
    }

    /// Current age of cell `(bin, k)`; `INF_AGE` if never sourced.
    #[inline]
    pub fn age(&self, bin: u32, k: u8) -> u8 {
        age_of(self.now, self.stamps[self.flat(bin, k)])
    }

    /// Append the bin-major clamped age bytes — the eager reference's cell
    /// order, independent of the register-major storage — to `out`. Tests
    /// use it to compare representations; the wire codec does not.
    pub fn dump_ages(&self, out: &mut Vec<u8>) {
        out.reserve(self.stamps.len());
        let m = self.m as usize;
        let now = self.now;
        for bin in 0..m {
            out.extend(self.stamps[bin..].iter().step_by(m).map(|&s| age_of(now, s)));
        }
    }

    /// All `(bin, k, age)` triples with a finite age, in bin-major order.
    /// Fig. 6 aggregates these across hosts into per-`k` CDFs.
    pub fn finite_cells(&self) -> impl Iterator<Item = (u32, u8, u8)> + '_ {
        let m = self.m as usize;
        let now = self.now;
        (0..self.m).flat_map(move |bin| {
            self.stamps[bin as usize..]
                .iter()
                .step_by(m)
                .enumerate()
                .filter(|&(_, &s)| s != 0)
                .map(move |(k, &s)| (bin, k as u8, age_of(now, s)))
        })
    }

    /// Claim cell `(bin, k)`: this host becomes a source, pinning the age
    /// to zero until [`AgeMatrix::release_all`]. Claiming the same cell
    /// twice is a no-op (duplicate insensitivity).
    pub fn claim_cell(&mut self, bin: u32, k: u8) {
        let idx = self.flat(bin, k) as u32;
        self.stamps[idx as usize] = self.now + 1;
        if let Err(pos) = self.own.binary_search(&idx) {
            self.own.insert(pos, idx);
        }
        self.bump();
    }

    /// Claim the cell a plain OR-sketch would set for `id` — one identifier,
    /// used for counting hosts (paper: "one object at each host").
    pub fn claim_id<H: Hash64>(&mut self, hasher: &H, id: u64) -> (u32, u8) {
        let (bin, k) = bin_and_rho(hasher.hash_u64(id), self.m, self.l);
        self.claim_cell(bin, k);
        (bin, k)
    }

    /// Claim `value` cells via multi-insertion (Considine-style summation:
    /// host `id` registers `value` independent identifiers). Cost is
    /// `O(value)`; see [`crate::sum`] for scaled alternatives.
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

    /// Stop sourcing all owned cells (graceful departure): the cells keep
    /// their current age of 0 but resume aging on the next [`tick`].
    ///
    /// [`tick`]: AgeMatrix::tick
    pub fn release_all(&mut self) {
        self.own.clear();
        self.bump();
    }

    /// One gossip round of aging (Fig. 5 step 2): every counter increments
    /// (saturating at [`MAX_FINITE_AGE`]) *except* the cells this host
    /// sources, which stay pinned at 0.
    ///
    /// O(own), not O(m·l), when a merge came since the last tick (every
    /// gossip round with an exchange): unsourced cells age implicitly
    /// through the clock bump; only the pinned cells are rewritten. A tick
    /// straight after a tick first pays the one pass over the cells that a
    /// merge would have folded in.
    pub fn tick(&mut self) {
        if self.now != BASE_NOW {
            self.rebase();
        }
        self.now += 1;
        let pin = self.now + 1;
        for &idx in &self.own {
            self.stamps[idx as usize] = pin;
        }
        self.bump();
    }

    /// Shift every stamp down so the clock returns to [`BASE_NOW`],
    /// preserving every clamped age: one pass over the cells, the eager
    /// representation's per-tick cost.
    fn rebase(&mut self) {
        let ahead = self.now - BASE_NOW;
        for s in self.stamps.iter_mut() {
            *s = max_at_base(*s, ahead, 0, 0);
        }
        self.now = BASE_NOW;
        #[cfg(test)]
        tests::STANDALONE_REBASES.with(|n| n.set(n.get() + 1));
    }

    /// Replace every counter from a flat bin-major cell slice (the inverse
    /// of [`dump_ages`](AgeMatrix::dump_ages)). Clears ownership: the
    /// cells are a peer's *view*, not sourcing duties. The clock restarts
    /// at base, exactly like a decoded wire frame. A byte above
    /// [`MAX_FINITE_AGE`] loads as [`INF_AGE`].
    ///
    /// # Panics
    /// Panics if `cells` does not match the matrix geometry.
    pub fn load_ages(&mut self, cells: &[u8]) {
        assert_eq!(cells.len(), self.stamps.len(), "cell count must match geometry");
        self.now = BASE_NOW;
        let m = self.m as usize;
        let row = self.row_len();
        for (bin, ages) in cells.chunks_exact(row).enumerate() {
            for (k, &a) in ages.iter().enumerate() {
                self.stamps[k * m + bin] = if a > MAX_FINITE_AGE { 0 } else { wire_stamp(a) };
            }
        }
        self.own.clear();
        self.bump();
    }

    /// Element-wise min-merge of a peer's matrix (Fig. 5 step 5), computed
    /// as a branchless **max of birth stamps** (the compiler lowers the
    /// loop to packed `u8` lanes). Own cells stay pinned at 0
    /// automatically: their stamp `now + 1` is the lattice top.
    ///
    /// Both operands are translated to the base clock on the way — an
    /// exact operation on each cell's clamped age, so merge results are
    /// identical to the eager element-wise min — and the merged matrix is
    /// left there, which is what keeps the next [`tick`](AgeMatrix::tick)
    /// O(own).
    ///
    /// # Panics
    /// Panics on geometry mismatch.
    pub fn merge_min(&mut self, other: &AgeMatrix) {
        assert_eq!(self.m, other.m, "bin-count mismatch");
        assert_eq!(self.l, other.l, "width mismatch");
        let (mine, theirs) = (self.now - BASE_NOW, other.now - BASE_NOW);
        for (s, &o) in self.stamps.iter_mut().zip(other.stamps.iter()) {
            *s = max_at_base(*s, mine, o, theirs);
        }
        self.now = BASE_NOW;
        self.bump();
    }

    /// The matrix [`merge_min`](AgeMatrix::merge_min) would leave behind,
    /// built out of place: exactly `{ let mut c = self.clone(); c.merge_min(other); c }`
    /// (same ages, ownership, and version), but writing each merged stamp
    /// once into a fresh allocation instead of copying `self` and then
    /// rewriting it. Copy-on-write holders use this when a snapshot still
    /// pins the current allocation.
    ///
    /// # Panics
    /// Panics on geometry mismatch.
    pub fn merged_with(&self, other: &AgeMatrix) -> AgeMatrix {
        assert_eq!(self.m, other.m, "bin-count mismatch");
        assert_eq!(self.l, other.l, "width mismatch");
        let (mine, theirs) = (self.now - BASE_NOW, other.now - BASE_NOW);
        let pairs = self.stamps.iter().zip(other.stamps.iter());
        AgeMatrix {
            m: self.m,
            l: self.l,
            now: BASE_NOW,
            stamps: pairs.map(|(&s, &o)| max_at_base(s, mine, o, theirs)).collect(),
            own: self.own.clone(),
            version: self.version.wrapping_add(1),
            cache: Mutex::new(EncodeSlot::default()),
        }
    }

    /// Per-register admission floors under this matrix's clock: the
    /// per-thread base-clock table, each floor carried to `now` by
    /// [`floor_at`] — a packed select and add over the row, no float work
    /// per call.
    #[inline]
    fn stamp_floors(&self, cutoff: &Cutoff) -> [u8; MAX_ROW] {
        let ahead = self.now - BASE_NOW;
        estimate::stamp_floors(cutoff).map(|base| floor_at(base, ahead))
    }

    /// Derive the live-bit view under `cutoff` (Fig. 5 step 6): bit `(n, k)`
    /// is set iff its age is finite and `≤ f(k)`. Allocates a fresh
    /// [`Pcsa`]; per-round readouts should reuse a buffer via
    /// [`bit_view_into`](AgeMatrix::bit_view_into).
    pub fn bit_view(&self, cutoff: &Cutoff) -> Pcsa {
        let mut p = Pcsa::new(self.m, self.l);
        self.bit_view_into(cutoff, &mut p);
        p
    }

    /// [`bit_view`](AgeMatrix::bit_view) into a caller-owned buffer:
    /// clears `out` and sets the live bits, allocating nothing.
    ///
    /// # Panics
    /// Panics if `out`'s geometry does not match the matrix.
    pub fn bit_view_into(&self, cutoff: &Cutoff, out: &mut Pcsa) {
        assert_eq!(out.num_bins(), self.m, "bin-count mismatch");
        assert_eq!(out.width(), self.l, "width mismatch");
        out.clear();
        let m = self.m as usize;
        let floors = self.stamp_floors(cutoff);
        for (k, (col, &f)) in self.stamps.chunks_exact(m).zip(&floors).enumerate() {
            for (bin, &s) in col.iter().enumerate() {
                if s > f {
                    out.set_cell(bin as u32, k as u8);
                }
            }
        }
    }

    /// Cardinality estimate under `cutoff`: `(m/φ)·2^{avg R}` over the
    /// live-bit view (Fig. 5 step 7). Computed directly from the stamps —
    /// no intermediate [`Pcsa`] is materialized; the engine reads every
    /// host's estimate every round, so this path must not allocate.
    pub fn estimate(&self, cutoff: &Cutoff) -> f64 {
        // No any-live pre-scan: `estimate_from_mean_r(m, 0.0)` is exactly
        // `(m/φ)·(2⁰ − 2⁻⁰) = 0.0`, so a dead matrix falls out of the
        // formula identically. The run sum is an integer, so the exp2
        // evaluation comes from a per-geometry memo table.
        estimate::estimate_from_run_sum(self.m, self.l, self.live_run_sum(cutoff))
    }

    /// Mean live-bit run length under `cutoff` — exposed separately for
    /// experiments that plot `R` directly.
    pub fn mean_r(&self, cutoff: &Cutoff) -> f64 {
        f64::from(self.live_run_sum(cutoff)) / f64::from(self.m)
    }

    /// `Σ_bins min(R, L)` under `cutoff`: the integer the estimate is a
    /// function of, from [`live_run_sum`] over this matrix's stamps and
    /// floors.
    fn live_run_sum(&self, cutoff: &Cutoff) -> u32 {
        let floors = self.stamp_floors(cutoff);
        live_run_sum(&self.stamps, self.m as usize, &floors[..usize::from(self.l)])
    }

    /// Wire size in bytes: one byte per counter. This is what the gossip
    /// message carries; the bandwidth gap vs. [`Pcsa::wire_bytes`] (8× for
    /// byte counters vs. bits) is part of the Invert-Average cost argument.
    pub fn wire_bytes(&self) -> usize {
        self.stamps.len()
    }

    /// Expected maximum live bit index for `n` sources — a helper for
    /// sizing experiments (bits above `log2(n)` are set with probability
    /// `< 1/2` network-wide).
    pub fn expected_top_bit(n: u64) -> u8 {
        (64 - n.leading_zeros()) as u8
    }
}

/// Shared estimator re-export so protocol code needs only this module.
pub use estimate::expected_error;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::SplitMix64;
    use std::cell::Cell;

    thread_local! {
        /// Eager passes [`AgeMatrix::rebase`] has run on this thread —
        /// each test runs on its own.
        pub(super) static STANDALONE_REBASES: Cell<u32> = const { Cell::new(0) };
    }

    #[test]
    fn new_matrix_is_all_infinite() {
        let m = AgeMatrix::new(8, 16);
        assert_eq!(m.finite_cells().count(), 0);
        assert_eq!(m.estimate(&Cutoff::paper_uniform()), 0.0);
    }

    #[test]
    fn claim_pins_to_zero_across_ticks() {
        let mut m = AgeMatrix::new(8, 16);
        m.claim_cell(3, 2);
        for _ in 0..10 {
            m.tick();
        }
        assert_eq!(m.age(3, 2), 0, "owned cell must stay pinned");
    }

    #[test]
    fn unowned_cells_age_by_one_per_tick() {
        let mut a = AgeMatrix::new(8, 16);
        let mut b = AgeMatrix::new(8, 16);
        a.claim_cell(1, 1);
        b.merge_min(&a); // b learns the cell at age 0
        for expected in 1..=5u8 {
            b.tick();
            assert_eq!(b.age(1, 1), expected);
        }
    }

    #[test]
    fn release_resumes_aging() {
        let mut m = AgeMatrix::new(8, 16);
        m.claim_cell(0, 0);
        m.tick();
        assert_eq!(m.age(0, 0), 0);
        m.release_all();
        m.tick();
        m.tick();
        assert_eq!(m.age(0, 0), 2);
    }

    #[test]
    fn merge_takes_elementwise_min() {
        let mut a = AgeMatrix::new(4, 8);
        let mut b = AgeMatrix::new(4, 8);
        a.claim_cell(0, 0);
        a.release_all();
        for _ in 0..5 {
            a.tick(); // a sees the cell at age 5
        }
        b.claim_cell(0, 0);
        b.release_all();
        b.tick(); // b sees it at age 1
        a.merge_min(&b);
        assert_eq!(a.age(0, 0), 1);
        // merging back the older view must not regress
        b.merge_min(&a);
        assert_eq!(b.age(0, 0), 1);
    }

    #[test]
    fn misaligned_clocks_merge_exactly() {
        // a and b tick different amounts before merging, so the stamp
        // translation path runs in both directions.
        let mut a = AgeMatrix::new(4, 8);
        let mut b = AgeMatrix::new(4, 8);
        a.claim_cell(0, 0);
        a.claim_cell(1, 3);
        a.release_all();
        for _ in 0..9 {
            a.tick();
        }
        b.claim_cell(1, 3);
        b.claim_cell(2, 2);
        b.release_all();
        for _ in 0..3 {
            b.tick();
        }
        let mut ab = a.clone();
        ab.merge_min(&b); // self clock ahead
        assert_eq!(ab.age(0, 0), 9);
        assert_eq!(ab.age(1, 3), 3);
        assert_eq!(ab.age(2, 2), 3);
        b.merge_min(&a); // self clock behind
        assert_eq!(b.age(0, 0), 9);
        assert_eq!(b.age(1, 3), 3);
        assert_eq!(b.age(2, 2), 3);
    }

    #[test]
    fn tick_saturates_instead_of_wrapping() {
        let mut m = AgeMatrix::new(4, 8);
        m.claim_cell(2, 3);
        m.release_all();
        for _ in 0..1000 {
            m.tick();
        }
        assert_eq!(m.age(2, 3), MAX_FINITE_AGE);
        assert_ne!(m.age(2, 3), INF_AGE, "saturated finite age must differ from infinity");
    }

    #[test]
    fn clock_rebase_preserves_ages() {
        // Drive the clock across several rebase boundaries with live
        // sources at every age class: pinned, finite, saturated, ∞.
        let mut m = AgeMatrix::new(4, 8);
        m.claim_cell(0, 0); // stays pinned forever
        m.claim_cell(1, 1);
        for _ in 0..200_000u32 {
            m.tick();
        }
        m.release_all();
        m.claim_cell(2, 2); // fresh claim long after the first rebase
        for _ in 0..7 {
            m.tick();
        }
        assert_eq!(m.age(0, 0), 7, "released cell ages from release");
        assert_eq!(m.age(1, 1), 7);
        assert_eq!(m.age(2, 2), 0, "still owned");
        assert_eq!(m.age(3, 3), INF_AGE);
    }

    #[test]
    fn merges_land_on_the_base_clock_and_spare_the_next_tick_its_pass() {
        let h = SplitMix64::new(9);
        let rounds = 40u32;
        let mut hosts: Vec<AgeMatrix> = (0..4u64)
            .map(|id| {
                let mut m = AgeMatrix::new(16, 12);
                m.claim_id(&h, id);
                m
            })
            .collect();
        // Gossip rhythm: every host ticks, then merges a peer that has or
        // has not merged yet this round — in place or out of place — and
        // is merged back into that peer's snapshot, so all four (self,
        // peer) clock combinations occur.
        for round in 0..rounds as usize {
            hosts.iter_mut().for_each(AgeMatrix::tick);
            for i in 0..hosts.len() {
                let peer = hosts[(i + 1 + round % 3) % hosts.len()].clone();
                if round % 2 == 0 {
                    hosts[i].merge_min(&peer);
                } else {
                    hosts[i] = hosts[i].merged_with(&peer);
                }
                assert_eq!(hosts[i].now, BASE_NOW, "a merged matrix is at the base clock");
                assert_eq!(peer.merged_with(&hosts[i]).now, BASE_NOW);
            }
        }
        assert_eq!(STANDALONE_REBASES.get(), 0, "a merge between ticks folds the rebase in");
        // Back-to-back ticks: every tick but the first pays the pass.
        let mut lone = hosts.swap_remove(0);
        for _ in 0..rounds {
            lone.tick();
        }
        assert_eq!(STANDALONE_REBASES.get(), rounds - 1);
    }

    #[test]
    fn bit_view_applies_cutoff_per_index() {
        let cutoff = Cutoff::paper_uniform(); // f(0)=7, f(8)=9
        let mut m = AgeMatrix::new(4, 16);
        m.claim_cell(0, 0);
        m.claim_cell(0, 8);
        m.release_all();
        for _ in 0..8 {
            m.tick(); // both cells now at age 8
        }
        let bits = m.bit_view(&cutoff);
        assert!(!bits.bins()[0].bit(0), "age 8 > f(0)=7: expired");
        assert!(bits.bins()[0].bit(8), "age 8 <= f(8)=9: live");
    }

    #[test]
    fn bit_view_into_reuses_buffer() {
        let h = SplitMix64::new(3);
        let mut m = AgeMatrix::new(8, 16);
        for id in 0..50u64 {
            m.claim_id(&h, id);
        }
        let mut buf = Pcsa::new(8, 16);
        buf.set_cell(7, 16); // stale content must be cleared
        m.bit_view_into(&Cutoff::paper_uniform(), &mut buf);
        assert_eq!(buf, m.bit_view(&Cutoff::paper_uniform()));
    }

    #[test]
    fn infinite_cutoff_equals_static_sketch() {
        let h = SplitMix64::new(77);
        let mut m = AgeMatrix::new(16, 24);
        let mut p = Pcsa::new(16, 24);
        for id in 0..1_000u64 {
            m.claim_id(&h, id);
            p.insert(&h, id);
        }
        m.release_all();
        for _ in 0..200 {
            m.tick();
        }
        assert_eq!(m.bit_view(&Cutoff::Infinite), p);
    }

    #[test]
    fn claim_value_matches_multi_insert_sum_cells() {
        let h = SplitMix64::new(5);
        let mut m = AgeMatrix::new(16, 24);
        m.claim_value(&h, 42, 100);
        // 100 insertions cannot occupy more than 100 distinct cells, and
        // with 16 bins they should collide some but cover at least ~30.
        let owned = m.owned_cells();
        assert!((20..=100).contains(&owned), "owned = {owned}");
    }

    #[test]
    fn estimate_counts_sources() {
        let h = SplitMix64::new(123);
        // Simulate a converged network of n hosts by claiming all ids into
        // one matrix (gossip would min-merge everyone's view to this).
        let n = 20_000u64;
        let mut m = AgeMatrix::new(64, 24);
        for id in 0..n {
            m.claim_id(&h, id);
        }
        let est = m.estimate(&Cutoff::paper_uniform());
        let rel = (est - n as f64).abs() / n as f64;
        assert!(rel < 0.3, "est={est:.0} rel={rel:.3}");
    }

    #[test]
    fn mutators_bump_the_version() {
        let mut m = AgeMatrix::new(8, 16);
        let mut last = m.version();
        let mut expect_bump = |m: &AgeMatrix, what: &str| {
            assert_ne!(m.version(), last, "{what} must assign a fresh version");
            last = m.version();
        };
        m.claim_cell(1, 2);
        expect_bump(&m, "claim_cell");
        m.tick();
        expect_bump(&m, "tick");
        m.release_all();
        expect_bump(&m, "release_all");
        let mut other = AgeMatrix::new(8, 16);
        other.claim_cell(0, 0);
        m.merge_min(&other);
        expect_bump(&m, "merge_min");
        let mut cells = Vec::new();
        m.dump_ages(&mut cells);
        m.load_ages(&cells);
        expect_bump(&m, "load_ages");
    }

    #[test]
    fn clone_preserves_state_but_not_the_memo() {
        let h = SplitMix64::new(7);
        let mut m = AgeMatrix::new(16, 24);
        for id in 0..40u64 {
            m.claim_id(&h, id);
        }
        m.tick();
        let c = m.clone();
        assert_eq!(c, m);
        assert_eq!(c.version(), m.version());
        assert_eq!(c.encode_cache().lock().unwrap().version, 0, "clone starts cold");
    }

    #[test]
    fn expected_top_bit_is_log2ish() {
        assert_eq!(AgeMatrix::expected_top_bit(1), 1);
        assert_eq!(AgeMatrix::expected_top_bit(1024), 11);
    }
}
