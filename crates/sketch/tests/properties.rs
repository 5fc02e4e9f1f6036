//! Property-based tests for the sketch substrate.
//!
//! These pin down the algebraic laws the gossip protocols rely on:
//! OR-merge and min-merge must both be commutative, associative, and
//! idempotent semilattice joins, and estimates must be monotone under
//! union. A violation of any law would silently corrupt a gossip run
//! (merges happen in arbitrary orders along arbitrary paths).
//!
//! They also pin the age-matrix wire decoder as a total function over
//! untrusted bytes: no panic, no allocation the payload does not back,
//! and nothing accepted but the one canonical encoding of a matrix.
//!
//! And they pin the one-byte stamp window of [`AgeMatrix`] from outside:
//! in-place and out-of-place merges agree with the eager reference across
//! every (self, peer) clock combination, the admission floors agree with
//! [`Cutoff::admits`] at the saturation clamp, a matrix costs one byte per
//! cell, and reading its estimate costs no heap at any bin count.
//!
//! And the codec's word-at-a-time plane kernels where they branch — full
//! and partial 64-bin runs, columns narrower than a word and wider than
//! one — against the eager reference's independent encoder, plus what an
//! encode may ask of the allocator: nothing, for a frame that is sent
//! once.

use dynagg_sketch::age::{AgeMatrix, INF_AGE, MAX_FINITE_AGE};
use dynagg_sketch::codec::{self, CodecError, MAX_EMPTY_CELLS};
use dynagg_sketch::cutoff::Cutoff;
use dynagg_sketch::estimate::width_for;
use dynagg_sketch::hash::{Hash64, SplitMix64, XxLike64};
use dynagg_sketch::pcsa::Pcsa;
use dynagg_sketch::reference::RefAgeMatrix;
use dynagg_sketch::rho::{bin_and_rho, rho};
use proptest::prelude::*;
use proptest::strategy::Just;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

const M: u32 = 16;
const L: u8 = 24;

thread_local! {
    /// Largest single request this thread has made of the allocator since
    /// the last reset. Const-initialised and without a destructor, so
    /// reading it never allocates.
    static LARGEST_REQUEST: Cell<usize> = const { Cell::new(0) };
}

/// `System`, noting each thread's largest request — how the decoder's
/// pre-allocation guard is observed from outside.
struct NotingAlloc;

fn note(size: usize) {
    // `try_with`: a thread being torn down still frees and allocates.
    let _ = LARGEST_REQUEST.try_with(|c| c.set(c.get().max(size)));
}

// SAFETY: every method hands its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; `note` touches only the thread-local
// above and cannot re-enter the allocator.
unsafe impl GlobalAlloc for NotingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's obligations are exactly `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through one of the methods here.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: as for `dealloc`, and `new_size` is the caller's to vouch for.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: NotingAlloc = NotingAlloc;

/// Run `f` and report the largest single request it made of the allocator.
fn largest_request_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST_REQUEST.with(|c| c.set(0));
    let out = f();
    (out, LARGEST_REQUEST.with(Cell::get))
}

/// Decode `bytes` and check the three things that must hold of *any*
/// input: the call returns; its largest allocation is one the guard
/// allows — the one-byte stamps of [`MAX_EMPTY_CELLS`] cells, or of the
/// at most `8 · len` bins × 64 registers a frame with a present column
/// can back with its bitmap; and an accepted input is the canonical
/// encoding of what it decoded to.
fn decode_checked(bytes: &[u8]) -> Result<AgeMatrix, CodecError> {
    let (decoded, largest) = largest_request_during(|| codec::decode_ages(bytes));
    let allowed = (MAX_EMPTY_CELLS as usize).max(8 * 64 * bytes.len());
    assert!(largest <= allowed, "{largest} B requested for a {} B frame", bytes.len());
    if let Ok(m) = &decoded {
        assert_eq!(codec::encode_ages(m), bytes, "accepted a non-canonical encoding");
    }
    decoded
}

fn pcsa_from_ids(ids: &[u64]) -> Pcsa {
    let h = SplitMix64::new(99);
    let mut p = Pcsa::new(M, L);
    for &id in ids {
        p.insert(&h, id);
    }
    p
}

fn age_from_ids(ids: &[u64], ticks: u8) -> AgeMatrix {
    let h = SplitMix64::new(99);
    let mut m = AgeMatrix::new(M, L);
    for &id in ids {
        m.claim_id(&h, id);
    }
    m.release_all();
    for _ in 0..ticks {
        m.tick();
    }
    m
}

/// Which cells `(bin, k)` of a matrix are finite.
type Fill<'a> = &'a dyn Fn(u32, u8) -> bool;

/// A `bins × (l + 1)` matrix whose finite cells are those `finite` names,
/// at hash-spread ages, then ticked `aged` times with cell `(bins − 1, l)`
/// pinned throughout (so a ticked matrix holds the top stamp of the
/// byte) — left one tick past the base clock, or back on it (`at_base`:
/// a merge of nothing re-bases without changing an age).
fn filled(bins: u32, l: u8, finite: Fill, aged: u16, at_base: bool) -> AgeMatrix {
    let h = SplitMix64::new(0xA6E5);
    let cells: Vec<u8> = (0..bins)
        .flat_map(|bin| (0..=l).map(move |k| (bin, k)))
        .map(|(bin, k)| match finite(bin, k) {
            true => (h.hash_pair(u64::from(bin), u64::from(k)) % 250) as u8,
            false => INF_AGE,
        })
        .collect();
    let mut m = AgeMatrix::new(bins, l);
    m.load_ages(&cells);
    if finite(bins - 1, l) {
        m.claim_cell(bins - 1, l);
    }
    for _ in 0..aged {
        m.tick();
    }
    if at_base {
        m.merge_min(&AgeMatrix::new(bins, l));
    }
    m
}

/// The eager reference holding `m`'s cells, built through `dump_ages`.
fn eager_copy(m: &AgeMatrix) -> RefAgeMatrix {
    let mut cells = Vec::new();
    m.dump_ages(&mut cells);
    let mut eager = RefAgeMatrix::new(m.num_bins(), m.width());
    eager.load_ages(&cells);
    eager
}

/// The codec against the eager reference on one matrix: the frame is the
/// independent encoder's byte for byte, decodes back to the same cells
/// (and re-encodes to itself — `decode_checked`), and the length-only
/// probe of a cold memo counts the same bytes.
fn check_codec_against_reference(m: &AgeMatrix, what: &str) {
    let eager = eager_copy(m);
    let frame = codec::encode_ages(m);
    assert_eq!(frame, eager.encode(), "{what}: not the reference encoder's frame");
    let decoded = decode_checked(&frame).unwrap_or_else(|e| panic!("{what}: {e}"));
    let mut decoded_cells = Vec::new();
    decoded.dump_ages(&mut decoded_cells);
    assert_eq!(decoded_cells, eager.cells(), "{what}: decode changed a cell");
    assert_eq!(codec::encoded_len_ages(&m.clone()), frame.len(), "{what}: length probe");
}

/// One gossip host three ways: merged in place, merged out of place
/// (the copy-on-write path), and the eager reference.
struct Host {
    in_place: AgeMatrix,
    out_of_place: AgeMatrix,
    eager: RefAgeMatrix,
}

impl Host {
    fn new() -> Self {
        Host {
            in_place: AgeMatrix::new(M, L),
            out_of_place: AgeMatrix::new(M, L),
            eager: RefAgeMatrix::new(M, L),
        }
    }

    fn check(&self) {
        let mut cells = Vec::new();
        self.in_place.dump_ages(&mut cells);
        assert_eq!(cells, self.eager.cells(), "merge_min diverged from the eager reference");
        assert_eq!(self.out_of_place, self.in_place, "merged_with diverged from merge_min");
        assert_eq!(self.out_of_place.version(), self.in_place.version());
        assert_eq!(codec::encode_ages(&self.out_of_place), self.eager.encode());
    }
}

/// A step of a gossip program over a small population; host and cell
/// indices are reduced modulo the population and the geometry.
#[derive(Debug, Clone)]
enum Step {
    Tick { host: usize, times: u16 },
    Merge { into: usize, from: usize },
    Claim { host: usize, bin: u32, k: u8 },
    Release { host: usize },
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        // A tick leaves a host one past the base clock and a merge puts
        // it back, so single ticks between merges are what mixes the
        // clocks; the bursts cross the saturation clamp.
        (0usize..3).prop_map(|host| Step::Tick { host, times: 1 }),
        (0usize..3, 0u16..4).prop_map(|(host, times)| Step::Tick { host, times }),
        (0usize..3, 240u16..270).prop_map(|(host, times)| Step::Tick { host, times }),
        (0usize..3, 0usize..3).prop_map(|(into, from)| Step::Merge { into, from }),
        (0usize..3, 0usize..3).prop_map(|(into, from)| Step::Merge { into, from }),
        (0usize..3, any::<u32>(), any::<u8>()).prop_map(|(host, bin, k)| Step::Claim {
            host,
            bin,
            k
        }),
        (0usize..3).prop_map(|host| Step::Release { host }),
    ]
}

proptest! {
    /// `merge_min` ≡ `merged_with` ≡ the eager min over arbitrary
    /// tick / merge / claim / release interleavings. The fixed opening
    /// walks the four (self, peer) clock combinations in order — both
    /// ticked, self merged, both merged, peer merged — before the
    /// generated steps mix them freely.
    #[test]
    fn merges_agree_with_the_reference_across_clock_combinations(
        steps in proptest::collection::vec(step_strategy(), 0..50),
    ) {
        let opening = [
            Step::Claim { host: 0, bin: 1, k: 2 },
            Step::Claim { host: 1, bin: 3, k: 0 },
            Step::Tick { host: 0, times: 1 },
            Step::Tick { host: 1, times: 1 },
            Step::Merge { into: 0, from: 1 },
            Step::Merge { into: 0, from: 1 },
            Step::Merge { into: 2, from: 0 },
            Step::Merge { into: 1, from: 0 },
        ];
        let mut hosts = [Host::new(), Host::new(), Host::new()];
        for step in opening.iter().chain(&steps) {
            match *step {
                Step::Tick { host, times } => {
                    for _ in 0..times {
                        hosts[host].in_place.tick();
                        hosts[host].out_of_place.tick();
                        hosts[host].eager.tick();
                    }
                }
                Step::Merge { into, from } => {
                    let peer = hosts[from].in_place.clone();
                    let eager_peer = hosts[from].eager.clone();
                    let host = &mut hosts[into];
                    host.in_place.merge_min(&peer);
                    host.out_of_place = host.out_of_place.merged_with(&peer);
                    host.eager.merge_min(&eager_peer);
                }
                Step::Claim { host, bin, k } => {
                    hosts[host].in_place.claim_cell(bin % M, k % (L + 1));
                    hosts[host].out_of_place.claim_cell(bin % M, k % (L + 1));
                    hosts[host].eager.claim_cell(bin % M, k % (L + 1));
                }
                Step::Release { host } => {
                    hosts[host].in_place.release_all();
                    hosts[host].out_of_place.release_all();
                    hosts[host].eager.release_all();
                }
            }
            hosts.iter().for_each(Host::check);
        }
    }

    #[test]
    fn rho_never_exceeds_cap(hash: u64, l in 1u8..=64) {
        prop_assert!(rho(hash, l) <= l);
    }

    #[test]
    fn bin_and_rho_in_range(hash: u64) {
        let (bin, k) = bin_and_rho(hash, M, L);
        prop_assert!(bin < M);
        prop_assert!(k <= L);
    }

    #[test]
    fn hashers_are_pure(seed: u64, x: u64) {
        prop_assert_eq!(SplitMix64::new(seed).hash_u64(x), SplitMix64::new(seed).hash_u64(x));
        prop_assert_eq!(XxLike64::new(seed).hash_u64(x), XxLike64::new(seed).hash_u64(x));
    }

    #[test]
    fn or_merge_commutes(a in proptest::collection::vec(any::<u64>(), 0..50),
                         b in proptest::collection::vec(any::<u64>(), 0..50)) {
        let (pa, pb) = (pcsa_from_ids(&a), pcsa_from_ids(&b));
        let mut ab = pa.clone();
        ab.merge(&pb);
        let mut ba = pb.clone();
        ba.merge(&pa);
        prop_assert_eq!(ab, ba);
    }

    #[test]
    fn or_merge_associates(a in proptest::collection::vec(any::<u64>(), 0..30),
                           b in proptest::collection::vec(any::<u64>(), 0..30),
                           c in proptest::collection::vec(any::<u64>(), 0..30)) {
        let (pa, pb, pc) = (pcsa_from_ids(&a), pcsa_from_ids(&b), pcsa_from_ids(&c));
        let mut left = pa.clone();
        left.merge(&pb);
        left.merge(&pc);
        let mut bc = pb.clone();
        bc.merge(&pc);
        let mut right = pa.clone();
        right.merge(&bc);
        prop_assert_eq!(left, right);
    }

    #[test]
    fn or_merge_idempotent(a in proptest::collection::vec(any::<u64>(), 0..50)) {
        let pa = pcsa_from_ids(&a);
        let mut twice = pa.clone();
        twice.merge(&pa);
        prop_assert_eq!(twice, pa);
    }

    #[test]
    fn merge_equals_union_of_id_sets(a in proptest::collection::vec(any::<u64>(), 0..40),
                                     b in proptest::collection::vec(any::<u64>(), 0..40)) {
        let mut merged = pcsa_from_ids(&a);
        merged.merge(&pcsa_from_ids(&b));
        let union: Vec<u64> = a.iter().chain(b.iter()).copied().collect();
        prop_assert_eq!(merged, pcsa_from_ids(&union));
    }

    #[test]
    fn estimate_monotone_under_union(a in proptest::collection::vec(any::<u64>(), 1..40),
                                     b in proptest::collection::vec(any::<u64>(), 1..40)) {
        let pa = pcsa_from_ids(&a);
        let mut merged = pa.clone();
        merged.merge(&pcsa_from_ids(&b));
        prop_assert!(merged.estimate() >= pa.estimate() - 1e-9);
    }

    #[test]
    fn min_merge_commutes(a in proptest::collection::vec(any::<u64>(), 0..30),
                          b in proptest::collection::vec(any::<u64>(), 0..30),
                          ta in 0u8..20, tb in 0u8..20) {
        let (ma, mb) = (age_from_ids(&a, ta), age_from_ids(&b, tb));
        let mut ab = ma.clone();
        ab.merge_min(&mb);
        let mut ba = mb.clone();
        ba.merge_min(&ma);
        // Own-cell lists differ (both released, so both empty) — compare ages.
        for bin in 0..M {
            for k in 0..=L {
                prop_assert_eq!(ab.age(bin, k), ba.age(bin, k));
            }
        }
    }

    #[test]
    fn min_merge_associates(a in proptest::collection::vec(any::<u64>(), 0..20),
                            b in proptest::collection::vec(any::<u64>(), 0..20),
                            c in proptest::collection::vec(any::<u64>(), 0..20)) {
        let (ma, mb, mc) = (age_from_ids(&a, 3), age_from_ids(&b, 7), age_from_ids(&c, 11));
        let mut left = ma.clone();
        left.merge_min(&mb);
        left.merge_min(&mc);
        let mut bc = mb.clone();
        bc.merge_min(&mc);
        let mut right = ma.clone();
        right.merge_min(&bc);
        for bin in 0..M {
            for k in 0..=L {
                prop_assert_eq!(left.age(bin, k), right.age(bin, k));
            }
        }
    }

    #[test]
    fn min_merge_idempotent(a in proptest::collection::vec(any::<u64>(), 0..30), t in 0u8..20) {
        let ma = age_from_ids(&a, t);
        let mut twice = ma.clone();
        twice.merge_min(&ma);
        for bin in 0..M {
            for k in 0..=L {
                prop_assert_eq!(twice.age(bin, k), ma.age(bin, k));
            }
        }
    }

    #[test]
    fn merge_never_increases_any_age(a in proptest::collection::vec(any::<u64>(), 0..30),
                                     b in proptest::collection::vec(any::<u64>(), 0..30)) {
        let (ma, mb) = (age_from_ids(&a, 5), age_from_ids(&b, 2));
        let mut merged = ma.clone();
        merged.merge_min(&mb);
        for bin in 0..M {
            for k in 0..=L {
                prop_assert!(merged.age(bin, k) <= ma.age(bin, k));
                prop_assert!(merged.age(bin, k) <= mb.age(bin, k));
            }
        }
    }

    #[test]
    fn bit_view_live_set_shrinks_with_age(a in proptest::collection::vec(any::<u64>(), 1..30)) {
        // As a matrix with released sources ages, the set of live bits under
        // a finite cutoff can only shrink (bits expire, never revive).
        let cutoff = Cutoff::paper_uniform();
        let mut m = age_from_ids(&a, 0);
        let mut prev_live: u32 = m
            .bit_view(&cutoff)
            .bins()
            .iter()
            .map(|b| b.bits().count_ones())
            .sum();
        for _ in 0..30 {
            m.tick();
            let live: u32 = m
                .bit_view(&cutoff)
                .bins()
                .iter()
                .map(|b| b.bits().count_ones())
                .sum();
            prop_assert!(live <= prev_live);
            prev_live = live;
        }
        prop_assert_eq!(prev_live, 0, "all bits must eventually expire once sources left");
    }

    #[test]
    fn infinite_cutoff_view_is_monotone(a in proptest::collection::vec(any::<u64>(), 1..30),
                                        t in 0u8..40) {
        // With Cutoff::Infinite, the bit view matches the static sketch and
        // never loses bits regardless of age.
        let m = age_from_ids(&a, t);
        let bits = m.bit_view(&Cutoff::Infinite);
        prop_assert_eq!(bits, pcsa_from_ids(&a));
    }

    #[test]
    fn ages_are_finite_or_inf_sentinel(a in proptest::collection::vec(any::<u64>(), 0..30),
                                       t in 0u8..100) {
        let m = age_from_ids(&a, t);
        for bin in 0..M {
            for k in 0..=L {
                let age = m.age(bin, k);
                // Either the sentinel, or a real age that never exceeds the
                // number of elapsed ticks.
                prop_assert!(age == INF_AGE || age <= t);
            }
        }
    }

    /// Wire codec: age matrices round-trip exactly for any content.
    #[test]
    fn codec_ages_roundtrip(a in proptest::collection::vec(any::<u64>(), 0..50),
                            t in 0u8..60) {
        let m = age_from_ids(&a, t);
        let decoded = codec::decode_ages(&codec::encode_ages(&m)).unwrap();
        for bin in 0..M {
            for k in 0..=L {
                prop_assert_eq!(decoded.age(bin, k), m.age(bin, k));
            }
        }
    }

    /// Wire codec: PCSA sketches round-trip exactly for any content.
    #[test]
    fn codec_pcsa_roundtrip(a in proptest::collection::vec(any::<u64>(), 0..80)) {
        let p = pcsa_from_ids(&a);
        prop_assert_eq!(codec::decode_pcsa(&codec::encode_pcsa(&p)).unwrap(), p);
    }

    /// Min-merging a decoded wire view equals merging the original — the
    /// codec cannot perturb gossip semantics.
    #[test]
    fn codec_merge_transparency(a in proptest::collection::vec(any::<u64>(), 0..30),
                                b in proptest::collection::vec(any::<u64>(), 0..30)) {
        let ma = age_from_ids(&a, 4);
        let mb = age_from_ids(&b, 9);
        let mut direct = ma.clone();
        direct.merge_min(&mb);
        let mut via_wire = ma.clone();
        via_wire.merge_min(&codec::decode_ages(&codec::encode_ages(&mb)).unwrap());
        for bin in 0..M {
            for k in 0..=L {
                prop_assert_eq!(direct.age(bin, k), via_wire.age(bin, k));
            }
        }
    }

    /// The age decoder is total, guarded and canonical on byte soup —
    /// raw, and behind a well-formed geometry header so the mask and
    /// plane checks are reached.
    #[test]
    fn age_decoder_is_total_on_arbitrary_bytes(
        raw in proptest::collection::vec(any::<u8>(), 0..96),
        bins_log2 in prop_oneof![0u32..5, 0u32..32],
        l in 0u8..=70,
        body in proptest::collection::vec(any::<u8>(), 0..64),
        sparse in proptest::collection::vec(0u8..4, 0..24),
    ) {
        let _ = decode_checked(&raw);
        for body in [body, sparse] {
            let mut framed = (1u32 << bins_log2).to_le_bytes().to_vec();
            framed.push(l);
            framed.extend_from_slice(&body);
            let _ = decode_checked(&framed);
        }
    }

    /// The plane kernels against the independent encoder at every bin
    /// count from a bitmap narrower than a byte to a four-word column,
    /// over fills from empty to every cell finite and the fills that sit
    /// on the kernels' branches: a full run beside an empty one, a full
    /// 8-group beside an empty one, the last bin alone, and the two bins
    /// either side of the word seam.
    #[test]
    fn plane_kernels_agree_with_the_reference_encoder(
        l in 1u8..=24,
        seed: u64,
        per_mille in prop_oneof![Just(0u64), Just(1000), 0u64..=1000, 0u64..50, 950u64..1000],
        aged in prop_oneof![0u16..8, 250u16..258],
        at_base: bool,
    ) {
        let h = SplitMix64::new(seed);
        for bins in (0..9).map(|log2| 1u32 << log2) {
            let fills: [(&str, Fill); 5] = [
                ("random fill", &|bin, k| {
                    h.hash_pair(u64::from(bin), u64::from(k)) % 1000 < per_mille
                }),
                ("full column beside an empty one", &|_, k| k % 2 == 0),
                ("full 8-group beside an empty one", &|bin, _| bin / 8 % 2 == 0),
                ("last bin alone", &|bin, _| bin == bins - 1),
                ("either side of the word seam", &|bin, _| bin == 63 % bins || bin == 64 % bins),
            ];
            for (fill, finite) in fills {
                let m = filled(bins, l, finite, aged, at_base);
                let what = format!(
                    "{bins} × {l}, {fill} ({per_mille}‰), aged {aged}, at base: {at_base}"
                );
                check_codec_against_reference(&m, &what);
            }
        }
    }

    /// Every truncation and every single-bit flip of a valid frame — of
    /// any geometry from a bitmap narrower than a byte (and a mask with
    /// spare bits) to a two-word column — is either rejected or is itself the
    /// canonical encoding of the matrix it decodes to (a flipped age bit
    /// is just another matrix — unless it makes a byte past the clamp, 254
    /// or the ∞ sentinel, which the long agings reach from 253, 252, 127
    /// and 126; the third arm parks the oldest cell on that edge).
    #[test]
    fn age_decoder_survives_truncations_and_bit_flips(
        bins_log2 in 0u32..8,
        l in 1u8..=24,
        cells in proptest::collection::vec((any::<u32>(), any::<u8>()), 0..40),
        aged in prop_oneof![0u16..8, 100u16..300, 250u16..258],
    ) {
        let mut m = AgeMatrix::new(1 << bins_log2, l);
        for &(bin, k) in &cells {
            m.claim_cell(bin % m.num_bins(), k % (l + 1));
            m.release_all();
            m.tick();
        }
        for _ in 0..aged {
            m.tick();
        }
        let frame = codec::encode_ages(&m);
        prop_assert!(decode_checked(&frame).is_ok());
        for cut in 0..frame.len() {
            prop_assert!(decode_checked(&frame[..cut]).is_err(), "prefix {} decoded", cut);
        }
        let mut flipped = frame.clone();
        for bit in 0..frame.len() * 8 {
            flipped[bit / 8] ^= 1 << (bit % 8);
            let _ = decode_checked(&flipped);
            flipped[bit / 8] ^= 1 << (bit % 8);
        }
    }
}

/// A header may claim 2³¹ bins × 64 registers — 256 GiB of stamps — in
/// five bytes. Whatever follows in a datagram-sized tail, the decoder
/// answers `Err` without reserving for it.
#[test]
fn age_decoder_never_reserves_for_unbacked_geometry() {
    for tail_len in 0..=16 {
        for fill in [0x00, 0x01, 0x80, 0xFF] {
            let mut frame = (1u32 << 31).to_le_bytes().to_vec();
            frame.push(63);
            frame.resize(5 + tail_len, fill);
            assert!(decode_checked(&frame).is_err(), "tail of {tail_len} × {fill:#04x} accepted");
        }
    }
    // The cap sits on the all-∞ matrix only, and exactly at the constant.
    let empty = |m: u32, l: u8| {
        let mut frame = m.to_le_bytes().to_vec();
        frame.push(l);
        frame.resize(5 + (usize::from(l) + 1).div_ceil(8), 0);
        decode_checked(&frame)
    };
    assert!(empty(1024, 63).is_ok(), "1 024 × 64 cells is the cap");
    assert!(matches!(empty(2048, 63), Err(CodecError::Malformed(_))));
}

/// The size contract on the traffic the engines ship: a converged
/// paper-geometry matrix (every id claimed and released, ten ticks — the
/// benchmark's `network_bits`) encodes strictly below its raw byte grid
/// at every population, and to exactly header + mask + one bitmap per
/// live register + one byte per finite cell. (The run-length code this
/// format replaced inflated the 1 000- and 100 000-host rows.)
#[test]
fn converged_matrices_encode_below_their_raw_size() {
    for seed in [7u64, 11 ^ 0x5E7C] {
        let h = SplitMix64::new(seed);
        for n in [100u64, 1_000, 6_000, 100_000] {
            let mut m = AgeMatrix::new(64, width_for(n, 64));
            for id in 0..n {
                m.claim_id(&h, id);
            }
            m.release_all();
            for _ in 0..10 {
                m.tick();
            }
            let encoded = codec::encoded_len_ages(&m);
            assert!(encoded < m.wire_bytes(), "n = {n}: {encoded} B vs {} B raw", m.wire_bytes());
            let finite = m.finite_cells().count();
            let live = (0..=m.width())
                .filter(|&k| m.finite_cells().any(|(_, register, _)| register == k))
                .count();
            let mask = (usize::from(m.width()) + 1).div_ceil(8);
            assert_eq!(encoded, 5 + mask + live * 8 + finite, "n = {n}");
            assert_eq!(codec::encode_ages(&m).len(), encoded);
        }
    }
    // The frames of a host that has heard nothing yet stay tiny.
    let mut young = AgeMatrix::new(64, 24);
    assert!(codec::encoded_len_ages(&young) <= 32);
    young.claim_id(&SplitMix64::new(7), 42);
    assert!(codec::encoded_len_ages(&young) <= 32);
}

/// The admission floors against `Cutoff::admits` at every representable
/// age, for the thresholds around the saturation clamp — where ages stop
/// at `MAX_FINITE_AGE` while thresholds keep going — and for
/// `async_spatial`'s `scale = 24` cutoff, whose top registers reach 252.
/// Checked at the base clock and one tick past it (one owned cell, so the
/// pinned stamp sits at the top of the byte).
#[test]
fn admission_agrees_with_the_cutoff_at_the_saturation_clamp() {
    const BINS: u32 = 256;
    const WIDTH: u8 = 16;
    // Bin `a` holds age `a` in every register; the bins past the clamp
    // stay ∞.
    let cells: Vec<u8> = (0..BINS)
        .flat_map(|bin| {
            let age = u8::try_from(bin).ok().filter(|&a| a <= MAX_FINITE_AGE).unwrap_or(INF_AGE);
            std::iter::repeat_n(age, usize::from(WIDTH) + 1)
        })
        .collect();
    let mut lazy = AgeMatrix::new(BINS, WIDTH);
    let mut eager = RefAgeMatrix::new(BINS, WIDTH);
    lazy.load_ages(&cells);
    eager.load_ages(&cells);
    lazy.claim_cell(BINS - 1, 0);
    eager.claim_cell(BINS - 1, 0);

    let cutoffs: Vec<Cutoff> = (0..=6)
        .map(|half| Cutoff::Linear { base: 251.5 + 0.5 * f64::from(half), slope: 0.0 })
        .chain([Cutoff::paper_uniform().scaled(24.0)])
        .collect();
    for ticks in 0..2 {
        for cutoff in &cutoffs {
            let view = lazy.bit_view(cutoff);
            for bin in 0..BINS {
                for k in 0..=WIDTH {
                    let age = lazy.age(bin, k);
                    assert_eq!(age, eager.age(bin, k));
                    assert_eq!(
                        view.bins()[bin as usize].bit(k),
                        age != INF_AGE && cutoff.admits(k, u32::from(age)),
                        "cell ({bin}, {k}) of age {age} under {cutoff:?}, {ticks} ticks past base"
                    );
                }
            }
            assert_eq!(lazy.mean_r(cutoff).to_bits(), eager.mean_r(cutoff).to_bits());
        }
        lazy.tick();
        eager.tick();
    }
    assert_eq!(lazy.age(u32::from(MAX_FINITE_AGE), 3), MAX_FINITE_AGE, "the clamp holds");
    assert_eq!(lazy.age(u32::from(MAX_FINITE_AGE) - 1, 3), MAX_FINITE_AGE);
}

/// A stamp is one byte: building a matrix, decoding one and merging one
/// out of place each request one byte per cell from the allocator, plus
/// nothing that grows with the geometry.
#[test]
fn a_matrix_costs_one_byte_per_cell() {
    const SLACK: usize = 64;
    for (bins, width) in [(64u32, 16u8), (64, 24), (1024, 63)] {
        let cells = bins as usize * (usize::from(width) + 1);
        let (mut m, built) = largest_request_during(|| AgeMatrix::new(bins, width));
        assert!(built <= cells + SLACK, "new({bins}, {width}) requested {built} B");

        for k in 0..=width {
            m.claim_cell(u32::from(k) % bins, k);
        }
        m.release_all();
        let frame = codec::encode_ages(&m);
        let (decoded, largest) = largest_request_during(|| codec::decode_ages(&frame));
        assert_eq!(decoded.as_ref(), Ok(&m));
        assert!(largest <= cells + SLACK, "decoding {bins} × {width} requested {largest} B");

        let (_, largest) = largest_request_during(|| m.merged_with(&decoded.unwrap()));
        assert!(largest <= cells + SLACK, "merged_with requested {largest} B");
    }
}

/// The engine reads every host's estimate every round, so the readout
/// asks nothing of the allocator at any bin count — the run-length lanes
/// are 128 bytes of stack however wide the matrix — once a first call has
/// filled the per-thread floor and estimate tables for its cutoff and
/// geometry.
#[test]
fn an_estimate_requests_no_heap_at_any_bin_count() {
    let h = SplitMix64::new(7);
    let cutoff = Cutoff::paper_uniform();
    for bins in [64u32, 1024] {
        let mut m = AgeMatrix::new(bins, 24);
        for id in 0..100 * u64::from(bins) {
            m.claim_id(&h, id);
        }
        for ticked in [false, true] {
            let warm = (m.estimate(&cutoff), m.mean_r(&cutoff));
            assert!(warm.0 > 0.0, "a live matrix: the sweep runs");
            let (hot, largest) =
                largest_request_during(|| (m.estimate(&cutoff), m.mean_r(&cutoff)));
            assert_eq!(hot, warm);
            assert_eq!(largest, 0, "{bins} bins, ticked {ticked}: {largest} B requested");
            m.tick();
        }
    }
}

/// What an encode asks of the allocator. A frame that is sent once — the
/// first encode of a version, every protocol's one snapshot to one peer —
/// is written into the caller's buffer and copied nowhere; the payload is
/// kept when the same version is asked for again (the reply that follows
/// a poll with no merge between), and from then on an encode is a copy
/// out of the memo.
#[test]
fn a_frame_encoded_once_is_copied_nowhere() {
    let h = SplitMix64::new(7);
    let mut m = AgeMatrix::new(64, 16);
    let mut peer = m.clone();
    for id in 0..6_000 {
        m.claim_id(&h, id);
        peer.claim_id(&h, id + 6_000);
    }
    m.tick();
    // Room for the header, the mask and every column at its worst case.
    let mut buf = Vec::with_capacity(8 + 17 * (8 + 64));
    codec::encode_ages_into(&m, &mut buf);
    m.merge_min(&peer);
    let mut encode = |m: &AgeMatrix| {
        buf.clear();
        let ((), largest) = largest_request_during(|| codec::encode_ages_into(m, &mut buf));
        assert_eq!(buf, eager_copy(m).encode());
        largest
    };
    assert_eq!(encode(&m), 0, "the first encode of a version requested heap memory");
    let frame_len = codec::encoded_len_ages(&m);
    let kept = encode(&m);
    assert!(0 < kept && kept <= frame_len, "the second keeps the payload: {kept} B requested");
    assert_eq!(encode(&m), 0, "the third encode of a version is a copy out of the memo");
}
