//! The dual-MMA packed layout (paper, Section 5.2 / Figure 7b).
//!
//! One `WGMMA` needs 16 UINT4 elements per thread, but the widest
//! shared-memory load (`LDS.128`) moves 32 UINT4 elements. The dual-MMA
//! packed layout closes that gap by packing the elements a thread needs
//! for **two consecutive MMAs** contiguously, so a single `LDS.128`
//! fills the thread's registers for both. The weights are reordered
//! *offline* into a 1-D stream: no swizzling, no bank conflicts, no
//! online address arithmetic beyond one pointer increment.
//!
//! On the CPU reproduction the same principle applies with cache lines
//! in place of SMEM transactions: the packed stream is consumed strictly
//! sequentially by the dequant microkernel, which is what makes the
//! measured kernels bandwidth-friendly.

use crate::pack::{pack_row_words, unpack_row_words};

/// Elements per `LDS.128` transaction (32 × UINT4 = 16 bytes).
pub const ELEMS_PER_LDS128: usize = 32;
/// Elements a thread consumes per MMA (16 × UINT4 = 8 bytes).
pub const ELEMS_PER_MMA_THREAD: usize = 16;

/// UINT4 weights arranged in the dual-MMA packed layout.
///
/// Logical shape `N×K`; physically each row is a stream of `u32` words
/// in interleaved nibble order (see [`crate::pack::INTERLEAVE`]), so the
/// kernel's register-level unpack emits elements in consumption order.
/// ```
/// use lq_layout::dual_mma::DualMmaWeights;
/// let vals: Vec<u8> = (0..2 * 16).map(|i| (i % 16) as u8).collect();
/// let packed = DualMmaWeights::pack(&vals, 2, 16);
/// assert_eq!(packed.packed_bytes(), 16); // 4 bits per element
/// assert_eq!(packed.unpack_all(), vals); // lossless
/// ```
#[derive(Debug, Clone)]
pub struct DualMmaWeights {
    n: usize,
    k: usize,
    words_per_row: usize,
    words: Vec<u32>,
}

impl DualMmaWeights {
    /// Pack row-major UINT4 values (one per byte, `< 16`) of an `N×K`
    /// matrix. `K` must be a multiple of 8 (one packed word).
    #[must_use]
    pub fn pack(values: &[u8], n: usize, k: usize) -> Self {
        assert_eq!(values.len(), n * k, "values length != N*K");
        assert_eq!(k % 8, 0, "K must be a multiple of 8");
        let words_per_row = k / 8;
        let mut words = Vec::with_capacity(n * words_per_row);
        for row in values.chunks_exact(k) {
            words.extend_from_slice(&pack_row_words(row));
        }
        Self {
            n,
            k,
            words_per_row,
            words,
        }
    }

    /// Output channels (N).
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Reduction dim (K).
    #[must_use]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Packed words of one row (the kernel's streaming view).
    #[must_use]
    pub fn row_words(&self, row: usize) -> &[u32] {
        assert!(row < self.n, "row {row} out of bounds");
        &self.words[row * self.words_per_row..(row + 1) * self.words_per_row]
    }

    /// Words covering `[k0, k1)` of one row (`k0`, `k1` multiples of 8).
    #[must_use]
    pub fn row_kslice(&self, row: usize, k0: usize, k1: usize) -> &[u32] {
        assert!(k0.is_multiple_of(8) && k1.is_multiple_of(8) && k0 <= k1 && k1 <= self.k);
        let base = row * self.words_per_row;
        &self.words[base + k0 / 8..base + k1 / 8]
    }

    /// Unpack everything back to row-major UINT4 values (verification).
    #[must_use]
    pub fn unpack_all(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.n * self.k);
        for r in 0..self.n {
            out.extend(unpack_row_words(self.row_words(r)));
        }
        out
    }

    /// Total packed bytes (the GMEM traffic the Load WG generates).
    #[must_use]
    pub fn packed_bytes(&self) -> usize {
        self.words.len() * 4
    }
}

/// Shared-memory load cost of one weight fragment under each access
/// discipline (per warp of 32 threads, counts per main-loop iteration).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadCost {
    /// 128-bit load transactions.
    pub lds128: usize,
    /// 32-bit load transactions.
    pub lds32: usize,
    /// Address computations on CUDA cores.
    pub addr_calcs: usize,
    /// Bytes actually moved from SMEM.
    pub bytes_moved: usize,
    /// Bytes of that traffic the MMA consumes.
    pub bytes_useful: usize,
}

impl LoadCost {
    /// Fraction of moved bytes that are useful.
    #[must_use]
    pub fn efficiency(&self) -> f64 {
        if self.bytes_moved == 0 {
            1.0
        } else {
            self.bytes_useful as f64 / self.bytes_moved as f64
        }
    }
}

/// Cost of loading `elems` UINT4 weights per thread with the dual-MMA
/// packed layout: one `LDS.128` per 32 elements, one address increment
/// per load, zero waste.
#[must_use]
pub fn dual_mma_load_cost(elems: usize) -> LoadCost {
    assert_eq!(
        elems % ELEMS_PER_LDS128,
        0,
        "elems must be a multiple of 32"
    );
    let loads = elems / ELEMS_PER_LDS128;
    LoadCost {
        lds128: loads,
        lds32: 0,
        addr_calcs: loads,
        bytes_moved: loads * 16,
        bytes_useful: elems / 2,
    }
}

/// Cost of the `LDS.32` fallback the paper rejects: each 32-bit load
/// carries 8 UINT4 elements but the thread needs only 4 of them
/// (the other 4 belong to a different thread's fragment lanes), so half
/// the bandwidth is wasted and every load needs its own strided address
/// computation.
#[must_use]
pub fn lds32_load_cost(elems: usize) -> LoadCost {
    assert_eq!(elems % 4, 0, "elems must be a multiple of 4");
    let loads = elems / 4; // 4 useful elements per 32-bit load
    LoadCost {
        lds128: 0,
        lds32: loads,
        addr_calcs: loads,
        bytes_moved: loads * 4,
        bytes_useful: elems / 2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp_values(n: usize, k: usize) -> Vec<u8> {
        (0..n * k).map(|i| (i % 16) as u8).collect()
    }

    #[test]
    fn pack_unpack_roundtrip() {
        let (n, k) = (4, 64);
        let vals = ramp_values(n, k);
        let w = DualMmaWeights::pack(&vals, n, k);
        assert_eq!(w.unpack_all(), vals);
        assert_eq!(w.packed_bytes(), n * k / 2);
    }

    #[test]
    fn row_and_kslice_views_are_consistent() {
        let (n, k) = (3, 32);
        let vals = ramp_values(n, k);
        let w = DualMmaWeights::pack(&vals, n, k);
        assert_eq!(w.row_words(1).len(), 4);
        assert_eq!(w.row_kslice(1, 8, 24).len(), 2);
        assert_eq!(w.row_kslice(1, 0, 32), w.row_words(1));
        // kslice aligns with full-row packing.
        assert_eq!(&w.row_words(2)[1..3], w.row_kslice(2, 8, 24));
    }

    #[test]
    fn dual_mma_loads_are_halved_vs_lds32() {
        // Two MMAs worth of weights per thread: 32 elements.
        let elems = 2 * ELEMS_PER_MMA_THREAD;
        let packed = dual_mma_load_cost(elems);
        let fallback = lds32_load_cost(elems);
        assert_eq!(packed.lds128, 1);
        assert_eq!(fallback.lds32, 8);
        // Full efficiency vs half.
        assert_eq!(packed.efficiency(), 1.0);
        assert_eq!(fallback.efficiency(), 0.5);
        // 8x fewer address computations.
        assert_eq!(fallback.addr_calcs / packed.addr_calcs, 8);
    }

    #[test]
    fn load_cost_scales_linearly() {
        let a = dual_mma_load_cost(32);
        let b = dual_mma_load_cost(320);
        assert_eq!(b.lds128, 10 * a.lds128);
        assert_eq!(b.bytes_moved, 10 * a.bytes_moved);
    }

    #[test]
    #[should_panic(expected = "values length != N*K")]
    fn pack_shape_mismatch_panics() {
        let _ = DualMmaWeights::pack(&[0u8; 10], 2, 8);
    }

    #[test]
    #[should_panic(expected = "multiple of 8")]
    fn pack_bad_k_panics() {
        let _ = DualMmaWeights::pack(&[0u8; 12], 2, 6);
    }
}
