//! Randomized property tests for the layout machinery (seeded in-tree
//! PRNG; offline sandbox has no proptest).

use lq_layout::bank::{analyze_access, NUM_BANKS};
use lq_layout::dual_mma::{dual_mma_load_cost, lds32_load_cost, DualMmaWeights};
use lq_layout::pack::{pack_row_words, unpack_row_words};
use lq_rng::Rng;

const CASES: usize = 64;

/// The interleaved packing is lossless for arbitrary nibble streams.
#[test]
fn packings_roundtrip() {
    let mut rng = Rng::new(0x1A70_0001);
    for _ in 0..CASES {
        let len = rng.range_usize(1, 32) * 8;
        let vals: Vec<u8> = (0..len).map(|_| rng.below(16) as u8).collect();
        assert_eq!(&unpack_row_words(&pack_row_words(&vals)), &vals);
    }
}

/// Dual-MMA packing of an N×K matrix is lossless and the packed size is
/// exactly N·K/2 bytes.
#[test]
fn dual_mma_roundtrip() {
    let mut rng = Rng::new(0x1A70_0002);
    for _ in 0..CASES {
        let n = rng.range_usize(1, 8);
        let k = rng.range_usize(1, 8) * 8;
        let vals: Vec<u8> = (0..n * k).map(|_| rng.below(16) as u8).collect();
        let w = DualMmaWeights::pack(&vals, n, k);
        assert_eq!(w.unpack_all(), vals);
        assert_eq!(w.packed_bytes(), n * k / 2);
    }
}

/// Row slices compose: concatenating row_kslice over group windows
/// equals row_words.
#[test]
fn kslices_tile_the_row() {
    let mut rng = Rng::new(0x1A70_0003);
    for _ in 0..CASES {
        let n = rng.range_usize(1, 5);
        let groups = rng.range_usize(1, 6);
        let group = 16; // two words
        let k = groups * group;
        let vals: Vec<u8> = (0..n * k).map(|_| rng.below(16) as u8).collect();
        let w = DualMmaWeights::pack(&vals, n, k);
        for r in 0..n {
            let mut joined = Vec::new();
            for g in 0..groups {
                joined.extend_from_slice(w.row_kslice(r, g * group, (g + 1) * group));
            }
            assert_eq!(joined.as_slice(), w.row_words(r));
        }
    }
}

/// Load-cost accounting: the packed layout never moves more bytes than
/// the LDS.32 fallback and always needs fewer address calcs.
#[test]
fn packed_load_dominates_fallback() {
    let mut rng = Rng::new(0x1A70_0005);
    for _ in 0..CASES {
        let elems = rng.range_usize(1, 32) * 32;
        let a = dual_mma_load_cost(elems);
        let b = lds32_load_cost(elems);
        assert!(a.bytes_moved <= b.bytes_moved);
        assert!(a.addr_calcs < b.addr_calcs);
        assert_eq!(a.bytes_useful, b.bytes_useful);
        assert!(a.efficiency() >= b.efficiency());
    }
}

/// Bank-conflict analysis: degree is always within [1, threads] and
/// broadcast patterns are always conflict-free.
#[test]
fn conflict_degree_bounds() {
    let mut rng = Rng::new(0x1A70_0006);
    for _ in 0..CASES {
        let len = rng.range_usize(1, 32);
        let aligned: Vec<usize> = (0..len).map(|_| rng.range_usize(0, 4096) & !3).collect();
        let r = analyze_access(&aligned, 4);
        assert!(r.degree >= 1);
        assert!(r.degree <= aligned.len().min(NUM_BANKS * 4));
        // Same address for everyone → broadcast.
        let bcast = vec![aligned[0]; aligned.len()];
        assert_eq!(analyze_access(&bcast, 4).degree, 1);
    }
}
