//! Differential property tests: lazy [`AgeMatrix`] ≡ eager [`RefAgeMatrix`].
//!
//! Every golden digest in the repo pins behavior of the eager `u8`
//! age-counter matrix; the lazy birth-stamp representation replacing it
//! is only correct if no public observation can tell the two apart. In
//! the style of the wheel-vs-heap queue suite (`node/tests/
//! queue_properties.rs`), these tests drive both implementations through
//! arbitrary interleaved programs — claims, ticks (including past the
//! saturation boundary), releases, min-merges between pairs with
//! *different* tick counts (exercising the clock-translation paths),
//! wire load/dump round-trips — and assert cell-exact ages, bit-exact
//! estimates, identical cutoff admits, and byte-identical codec output
//! at every checkpoint.
//!
//! The programs above run at `M = 8`, one short chunk of the estimate's
//! 64-lane run-length kernel, so the last two tests repeat the comparison
//! over every geometry that kernel distinguishes — bin counts below, at
//! and above a chunk, widths from one column to the 63 a lane can count.

use dynagg_sketch::age::{AgeMatrix, INF_AGE, MAX_FINITE_AGE};
use dynagg_sketch::codec;
use dynagg_sketch::cutoff::Cutoff;
use dynagg_sketch::hash::{Hash64, SplitMix64};
use dynagg_sketch::reference::RefAgeMatrix;
use proptest::prelude::*;
use proptest::strategy::Just;

const M: u32 = 8;
const L: u8 = 12;

/// One lazy/eager pair driven through identical mutations.
struct Pair {
    lazy: AgeMatrix,
    eager: RefAgeMatrix,
}

impl Pair {
    fn new() -> Self {
        Self::with(M, L)
    }

    fn with(m: u32, l: u8) -> Self {
        Self { lazy: AgeMatrix::new(m, l), eager: RefAgeMatrix::new(m, l) }
    }

    /// Load the same bin-major age bytes into both representations.
    fn load(&mut self, cells: &[u8]) {
        self.lazy.load_ages(cells);
        self.eager.load_ages(cells);
    }

    fn tick(&mut self) {
        self.lazy.tick();
        self.eager.tick();
    }

    /// Assert every public observation agrees, under several cutoffs
    /// including degenerate ones.
    fn check(&self) {
        let (m, l) = (self.lazy.num_bins(), self.lazy.width());
        for bin in 0..m {
            for k in 0..=l {
                assert_eq!(
                    self.lazy.age(bin, k),
                    self.eager.age(bin, k),
                    "age diverged at ({bin}, {k})"
                );
            }
        }
        assert_eq!(self.lazy.owned_cells(), self.eager.owned_cells());
        let cutoffs = [
            Cutoff::paper_uniform(),
            Cutoff::slow(),
            Cutoff::paper_uniform().scaled(0.25),
            Cutoff::Infinite,
            // Degenerate thresholds: admit-nothing and admit-everything.
            Cutoff::Linear { base: -3.0, slope: 0.0 },
            Cutoff::Linear { base: 1000.0, slope: 5.0 },
            // Thresholds straddling the saturation clamp.
            Cutoff::Linear { base: f64::from(MAX_FINITE_AGE), slope: 0.0 },
            Cutoff::Linear { base: f64::from(MAX_FINITE_AGE) - 0.5, slope: 0.0 },
        ];
        for cutoff in &cutoffs {
            // f64 bit-exactness: both paths must feed the estimator the
            // identical mean R (an integer sum over m).
            assert_eq!(
                self.lazy.mean_r(cutoff).to_bits(),
                self.eager.mean_r(cutoff).to_bits(),
                "mean_r diverged under {cutoff:?}"
            );
            assert_eq!(
                self.lazy.estimate(cutoff).to_bits(),
                self.eager.estimate(cutoff).to_bits(),
                "estimate diverged under {cutoff:?}"
            );
            assert_eq!(
                self.lazy.bit_view(cutoff),
                self.eager.bit_view(cutoff),
                "bit view diverged under {cutoff:?}"
            );
        }
        // Wire bytes: the memoizing codec on the lazy matrix must produce
        // exactly what the reference's independent encoder produces.
        let lazy_bytes = codec::encode_ages(&self.lazy);
        assert_eq!(lazy_bytes, self.eager.encode(), "encoded payloads diverged");
        assert_eq!(codec::encoded_len_ages(&self.lazy), lazy_bytes.len());
        // And decoding the lazy payload must reproduce the eager cells.
        let decoded = codec::decode_ages(&lazy_bytes).expect("self-encoded payload decodes");
        for bin in 0..m {
            for k in 0..=l {
                assert_eq!(decoded.age(bin, k), self.eager.age(bin, k));
            }
        }
    }
}

/// Apply one generated op to both representations of a pair — or merge
/// between the two pairs, in both clock directions.
fn apply(a: &mut Pair, b: &mut Pair, op: &Op) {
    let (m, l) = (a.lazy.num_bins(), a.lazy.width());
    match *op {
        Op::Claim { bin, k } => {
            a.lazy.claim_cell(bin % m, k % (l + 1));
            a.eager.claim_cell(bin % m, k % (l + 1));
        }
        Op::ClaimId { id } => {
            let h = SplitMix64::new(17);
            a.lazy.claim_id(&h, id);
            a.eager.claim_id(&h, id);
        }
        Op::ClaimValue { id, value } => {
            let h = SplitMix64::new(17);
            a.lazy.claim_value(&h, id, u64::from(value));
            a.eager.claim_value(&h, id, u64::from(value));
        }
        Op::Release => {
            a.lazy.release_all();
            a.eager.release_all();
        }
        Op::Tick { times } => {
            // Up to ~600 ticks: crosses the MAX_FINITE_AGE saturation
            // boundary mid-program, with owned cells still pinned.
            for _ in 0..times {
                a.tick();
            }
        }
        Op::MergeFromOther => {
            a.lazy.merge_min(&b.lazy);
            a.eager.merge_min(&b.eager);
        }
        Op::MergeIntoOther => {
            b.lazy.merge_min(&a.lazy);
            b.eager.merge_min(&a.eager);
        }
        Op::MergeDecoded => {
            // Merge through the wire: exercises load_ages' clock reset
            // and the decoded-view clock-translation merge path.
            let decoded = codec::decode_ages(&codec::encode_ages(&b.lazy)).unwrap();
            a.lazy.merge_min(&decoded);
            let mut cells = Vec::new();
            b.lazy.dump_ages(&mut cells);
            let mut eager_decoded = RefAgeMatrix::new(m, l);
            eager_decoded.load_ages(&cells);
            a.eager.merge_min(&eager_decoded);
        }
        Op::LoadRoundtrip => {
            // Dump a's cells and load them back into itself: ownership
            // clears and the clock rebases to base.
            let mut cells = Vec::new();
            a.lazy.dump_ages(&mut cells);
            a.lazy.load_ages(&cells);
            a.eager.load_ages(&cells);
        }
        Op::Swap => {}
    }
}

#[derive(Debug, Clone)]
enum Op {
    Claim { bin: u32, k: u8 },
    ClaimId { id: u64 },
    ClaimValue { id: u64, value: u8 },
    Release,
    Tick { times: u16 },
    MergeFromOther,
    MergeIntoOther,
    MergeDecoded,
    LoadRoundtrip,
    Swap,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u32>(), any::<u8>()).prop_map(|(bin, k)| Op::Claim { bin, k }),
        any::<u64>().prop_map(|id| Op::ClaimId { id }),
        (any::<u64>(), 0u8..40).prop_map(|(id, value)| Op::ClaimValue { id, value }),
        Just(Op::Release),
        // Mostly short ticks, with occasional saturation-scale bursts so
        // programs cross the 254 boundary (the shim's oneof is uniform,
        // so the short arm is repeated to weight it).
        (0u16..12).prop_map(|times| Op::Tick { times }),
        (0u16..12).prop_map(|times| Op::Tick { times }),
        (0u16..12).prop_map(|times| Op::Tick { times }),
        (200u16..600).prop_map(|times| Op::Tick { times }),
        Just(Op::MergeFromOther),
        Just(Op::MergeIntoOther),
        Just(Op::MergeDecoded),
        Just(Op::LoadRoundtrip),
        Just(Op::Swap),
    ]
}

proptest! {
    /// Arbitrary interleaved programs over two lazy/eager pairs: after
    /// every op, all public observations must agree. `Swap` ops alternate
    /// which pair receives subsequent mutations, so both accumulate
    /// different tick counts and merges run misaligned in both directions.
    #[test]
    fn lazy_matches_eager_on_arbitrary_programs(
        ops in proptest::collection::vec(op_strategy(), 0..60),
    ) {
        let mut a = Pair::new();
        let mut b = Pair::new();
        let mut flipped = false;
        for op in &ops {
            if matches!(op, Op::Swap) {
                flipped = !flipped;
                continue;
            }
            if flipped {
                apply(&mut b, &mut a, op);
            } else {
                apply(&mut a, &mut b, op);
            }
        }
        a.check();
        b.check();
    }

    /// Merge-heavy programs with per-step checking: divergence is caught
    /// at the op that introduced it, not at program end.
    #[test]
    fn lazy_matches_eager_stepwise_under_merges(
        ops in proptest::collection::vec(
            prop_oneof![
                (any::<u32>(), any::<u8>()).prop_map(|(bin, k)| Op::Claim { bin, k }),
                Just(Op::Release),
                (0u16..30).prop_map(|times| Op::Tick { times }),
                Just(Op::MergeFromOther),
                Just(Op::MergeDecoded),
            ],
            0..25,
        ),
        seed_b in proptest::collection::vec(any::<u64>(), 0..20),
        ticks_b in 0u16..300,
    ) {
        let mut a = Pair::new();
        let mut b = Pair::new();
        let h = SplitMix64::new(17);
        for id in seed_b {
            b.lazy.claim_id(&h, id);
            b.eager.claim_id(&h, id);
        }
        for _ in 0..ticks_b {
            b.lazy.tick();
            b.eager.tick();
        }
        for op in &ops {
            apply(&mut a, &mut b, op);
            a.check();
        }
        b.check();
    }
}

/// The clock-rebase boundary cannot be reached by short proptest
/// programs, so cross it deliberately: ~70 000 ticks force a rebase (the
/// lazy clock rebases every ~65 000), with an owned pinned cell, a
/// released finite cell that saturates, and ∞ cells. The eager reference
/// pays the full O(cells) pass per tick; the matrices stay tiny so this
/// runs in milliseconds.
#[test]
fn rebase_crossing_matches_eager_reference() {
    let mut p = Pair::new();
    p.lazy.claim_cell(0, 0);
    p.eager.claim_cell(0, 0);
    p.lazy.claim_cell(1, 1);
    p.eager.claim_cell(1, 1);
    for i in 0..70_000u32 {
        if i == 10 {
            // Release (1,1) early so it saturates long before the rebase.
            let mut cells = Vec::new();
            p.lazy.dump_ages(&mut cells);
            // Re-own only (0,0): release everything, then re-claim.
            p.lazy.release_all();
            p.eager.release_all();
            p.lazy.claim_cell(0, 0);
            p.eager.claim_cell(0, 0);
        }
        p.lazy.tick();
        p.eager.tick();
        if i % 9_999 == 0 {
            p.check();
        }
    }
    p.check();
    // A late merge partner still merges exactly across the rebase gap.
    let mut q = Pair::new();
    q.lazy.claim_cell(1, 1);
    q.eager.claim_cell(1, 1);
    q.lazy.tick();
    q.eager.tick();
    p.lazy.merge_min(&q.lazy);
    p.eager.merge_min(&q.eager);
    p.check();
    assert_eq!(p.lazy.age(1, 1), 0, "merge must revive the saturated cell from q's fresh claim");
    assert_eq!(p.lazy.age(2, 2), INF_AGE);
}

/// Bin counts below, at and above the estimate kernel's 64-lane chunk.
const BINS: [u32; 7] = [1, 2, 8, 32, 64, 128, 1024];
/// Widths from a single counted column to [`dynagg_sketch::fm::MAX_WIDTH`],
/// the most a run-length lane is asked to hold.
const WIDTHS: [u8; 4] = [1, 12, 31, 63];

/// Bin-major age bytes of a matrix whose bin `b` holds a run of young
/// cells `depth(b)` registers long, then one dead register — never
/// sourced in even bins, finite but 200 rounds old in odd ones, so where
/// the run ends depends on the cutoff — and young cells again above it,
/// which must not revive the run. A depth past `l` is a bin with no dead
/// register at all.
fn cells_with_runs(
    m: u32,
    l: u8,
    depth: impl Fn(u32) -> u8,
    young: impl Fn(u32, u8) -> u8,
) -> Vec<u8> {
    let mut cells = Vec::with_capacity(m as usize * (usize::from(l) + 1));
    for bin in 0..m {
        let dead = if bin % 2 == 0 { INF_AGE } else { 200 };
        cells.extend((0..=l).map(|k| if k == depth(bin) { dead } else { young(bin, k) }));
    }
    cells
}

/// A pair loaded with runs of hashed depths and ages `0..6`.
fn hashed_pair(m: u32, l: u8, seed: u64) -> Pair {
    let h = SplitMix64::new(seed);
    let mut p = Pair::with(m, l);
    p.load(&cells_with_runs(
        m,
        l,
        |bin| (h.hash_pair(u64::from(bin), 0) % (u64::from(l) + 2)) as u8,
        |bin, k| (h.hash_pair(u64::from(bin), u64::from(k) + 1) % 6) as u8,
    ));
    p
}

proptest! {
    /// Claim / tick / merge programs over two pairs that start from
    /// converged-looking matrices, at every bin count of one generated
    /// width: every lane position of a chunk, every chunk of a matrix and
    /// both clock values reach the kernel with runs of every length.
    #[test]
    fn lane_kernel_matches_eager_at_every_geometry(
        width in 0usize..WIDTHS.len(),
        seeds in (any::<u64>(), any::<u64>()),
        ops in proptest::collection::vec(
            prop_oneof![
                (any::<u32>(), any::<u8>()).prop_map(|(bin, k)| Op::Claim { bin, k }),
                any::<u64>().prop_map(|id| Op::ClaimId { id }),
                Just(Op::Release),
                (0u16..12).prop_map(|times| Op::Tick { times }),
                (0u16..12).prop_map(|times| Op::Tick { times }),
                Just(Op::MergeFromOther),
                Just(Op::MergeIntoOther),
                Just(Op::Swap),
            ],
            0..16,
        ),
    ) {
        let l = WIDTHS[width];
        for m in BINS {
            let mut a = hashed_pair(m, l, seeds.0);
            let mut b = hashed_pair(m, l, seeds.1);
            for op in &ops {
                match op {
                    Op::Swap => std::mem::swap(&mut a, &mut b),
                    op => apply(&mut a, &mut b, op),
                }
            }
            a.check();
            b.check();
        }
    }
}

/// The two shapes a generated program is unlikely to build, at every
/// geometry and at both clock values. Every run surviving all `l` columns
/// puts `l` — 63 at the widest — in every lane: a lane sum kept in a byte
/// wraps here, and a sweep one column short reads `l − 1`. And chunks
/// whose deepest run is a single lane, at a different depth and lane
/// position in each chunk: a chunk left before its last run has ended, or
/// a leave that carries into the next chunk, loses those columns.
#[test]
fn full_runs_and_chunks_of_unequal_depth_match_eager() {
    for m in BINS {
        for l in WIDTHS {
            let lanes = m.min(64);
            let unequal = |bin: u32| {
                let (chunk, lane) = (bin / 64, bin % 64);
                let deepest = (5 + 11 * chunk) % (u32::from(l) + 1);
                if lane == (37 * chunk) % lanes || deepest == 0 {
                    deepest as u8
                } else {
                    ((7 * lane + chunk) % deepest) as u8
                }
            };
            let full = cells_with_runs(m, l, |_| l + 1, |_, _| 0);
            let ragged = cells_with_runs(m, l, unequal, |bin, k| ((bin + u32::from(k)) % 5) as u8);
            for cells in [&full, &ragged] {
                let mut p = Pair::with(m, l);
                p.load(cells);
                p.check();
                p.tick();
                p.check();
                p.tick();
                p.tick();
                p.check();
            }
            let mut p = Pair::with(m, l);
            p.load(&full);
            assert_eq!(p.lazy.mean_r(&Cutoff::paper_uniform()), f64::from(l), "{m} × {l}");
        }
    }
}
