//! LUT-GEMM-style dequantization backend (Park et al., "LUT-GEMM"):
//! instead of arithmetic reconstruction, each quantization group
//! carries a 16-entry INT8 lookup table built offline from its
//! scale/offset, and the kernel dequantizes by indexing the table with
//! the 4-bit codes.
//!
//! The codes and group parameters are exactly LiquidQuant's
//! ([`crate::lqq`]): the table entry for code `c` is the same
//! `(c·s + a) ⊕ 0x80` value the SWAR path computes, evaluated once per
//! group at pack time instead of once per element at kernel time. On
//! codes that arise from quantization the sweet path equals the scalar
//! reference, so this backend is **bit-exact** against the LQQ SWAR
//! kernels — asserted across the whole differential harness. The
//! trade: ~0.25 extra bytes/element of table metadata (group 64) and
//! scalar gathers in place of SWAR arithmetic, in exchange for a
//! dequant that needs no ALU multiply at all — the reason LUT-GEMM
//! targets weight-only quantization on memory-bound decode.

use std::sync::Arc;

use lq_layout::dual_mma::DualMmaWeights;

use crate::backend::{BackendCost, BackendId, KernelBackend, PackedWeights, MAX_GROUP};
use crate::lqq::{LqqGroup, LqqTensor};
use crate::mat::Mat;
use crate::weights::{Level2, QuantScheme, QuantizedLinear};

/// Build the 16-entry INT8 table for one LQQ group: entry `c` is the
/// sweet-path reconstruction `((c·s + a) mod 256) ⊕ 0x80`. For every
/// code the quantizer can emit this equals
/// [`LqqGroup::dequant_scalar`]; codes outside the group's occupied
/// range get the same wrapped value the SWAR registers would hold,
/// keeping table and SWAR output identical byte-for-byte.
#[must_use]
pub fn group_lut(p: LqqGroup) -> [i8; 16] {
    let s = u16::from(p.s_u8);
    let a = u16::from(p.offset_a());
    std::array::from_fn(|c| (((c as u16 * s + a) as u8) ^ 0x80) as i8)
}

/// Dequantize interleave-packed words through a group's table: lane
/// `b` of the `lo` nibbles is element `b`, of the `hi` nibbles element
/// `4+b` (same consumption order as the SWAR path).
#[inline]
fn dequant_group_lut(words: &[u32], table: &[i8; 16], out: &mut [i8]) {
    debug_assert_eq!(words.len() * 8, out.len());
    for (w, chunk) in words.iter().zip(out.chunks_exact_mut(8)) {
        for b in 0..4 {
            chunk[b] = table[((w >> (8 * b)) & 0xF) as usize];
            chunk[4 + b] = table[((w >> (8 * b + 4)) & 0xF) as usize];
        }
    }
}

/// W4A8 weights for the LUT backend: LQQ codes in the dual-MMA packed
/// layout plus one 16-entry table per group (tables replace the group
/// parameters at kernel time; the parameters themselves are not
/// stored).
#[derive(Debug, Clone)]
pub struct PackedLutLinear {
    /// Output channels.
    pub n: usize,
    /// Reduction dim.
    pub k: usize,
    /// Group size along K (multiple of 8).
    pub group: usize,
    /// Interleave-packed UINT4 words, dual-MMA layout.
    pub words: DualMmaWeights,
    /// One dequant table per group, `n × k/group` row-major.
    pub tables: Vec<[i8; 16]>,
    /// Level-1 per-channel scales (length `n`).
    pub channel_scales: Vec<f32>,
}

impl PackedLutLinear {
    /// Build from an LQQ-quantized linear (same quantizer as the SWAR
    /// backend; only the kernel-time representation differs).
    #[must_use]
    pub fn from_quantized(q: &QuantizedLinear) -> Self {
        let Level2::Lqq(t) = &q.level2 else {
            panic!("expected an LQQ-quantized linear");
        };
        Self::from_tensor(t, q.channel_scales.iter().map(|s| s.scale).collect())
    }

    /// Build from an [`LqqTensor`] plus channel scales.
    #[must_use]
    pub fn from_tensor(t: &LqqTensor, channel_scales: Vec<f32>) -> Self {
        assert_eq!(channel_scales.len(), t.rows());
        assert_eq!(t.group() % 8, 0, "group size must be a multiple of 8");
        assert!(t.group() <= MAX_GROUP, "group exceeds MAX_GROUP");
        let words = DualMmaWeights::pack(&t.values, t.rows(), t.cols());
        Self {
            n: t.rows(),
            k: t.cols(),
            group: t.group(),
            words,
            tables: t.groups.iter().map(|&p| group_lut(p)).collect(),
            channel_scales,
        }
    }

    /// Quantize FP weights end-to-end (LQQ quantizer + table build).
    #[must_use]
    pub fn quantize(w: &Mat<f32>, group: usize) -> Self {
        let q = QuantizedLinear::quantize(w, group, QuantScheme::Lqq, None);
        Self::from_quantized(&q)
    }

    /// Groups per row.
    #[must_use]
    pub fn groups_per_row(&self) -> usize {
        self.k / self.group
    }

    /// The dequant table of `(row, group_index)`.
    #[inline]
    #[must_use]
    pub fn table(&self, row: usize, g: usize) -> &[i8; 16] {
        &self.tables[row * self.groups_per_row() + g]
    }
}

impl PackedWeights for PackedLutLinear {
    fn backend(&self) -> BackendId {
        BackendId::Lut
    }

    fn n(&self) -> usize {
        self.n
    }

    fn k(&self) -> usize {
        self.k
    }

    fn group(&self) -> usize {
        self.group
    }

    fn channel_scales(&self) -> &[f32] {
        &self.channel_scales
    }

    fn group_words(&self, row: usize, g: usize) -> &[u32] {
        self.words
            .row_kslice(row, g * self.group, (g + 1) * self.group)
    }

    fn dequant_row_group(&self, row: usize, g: usize, out: &mut [i8]) {
        dequant_group_lut(self.group_words(row, g), self.table(row, g), out);
    }

    fn weight_bytes(&self) -> usize {
        self.words.packed_bytes() + self.tables.len() * 16 + self.channel_scales.len() * 4
    }
}

/// The LUT-GEMM-style backend registry entry.
pub struct LutDequantBackend;

impl KernelBackend for LutDequantBackend {
    fn id(&self) -> BackendId {
        BackendId::Lut
    }

    fn name(&self) -> &'static str {
        "LUT dequant (per-group 16-entry tables)"
    }

    fn cost(&self) -> BackendCost {
        BackendCost {
            // Two extracts + one gather per element, no multiply.
            alpha: 2.0,
            weight_bytes_per_elem: 0.5 + 16.0 / 64.0,
            overlap_dq: true,
            bit_exact: true,
        }
    }

    fn pack(&self, w: &Mat<f32>, group: usize) -> Arc<dyn PackedWeights> {
        Arc::new(PackedLutLinear::quantize(w, group))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dequant::dequant_group_lqq;

    #[test]
    fn table_matches_scalar_on_quantizer_codes() {
        // Quantize real groups and check the table agrees with the
        // scalar reference on every emitted code.
        for seed in 0..32 {
            let group: Vec<i8> = (0..64)
                .map(|i| (((i * 37 + seed * 101) % 239) - 119) as i8)
                .collect();
            let (p, codes) = LqqGroup::quantize(&group);
            let lut = group_lut(p);
            for &c in &codes {
                assert_eq!(lut[c as usize], p.dequant_scalar(c), "seed {seed} code {c}");
            }
        }
    }

    #[test]
    fn lut_dequant_is_bit_exact_vs_swar() {
        let w = Mat::from_fn(16, 256, |r, c| ((r * 256 + c) as f32 * 0.07).sin() * 3.0);
        let q = QuantizedLinear::quantize(&w, 64, QuantScheme::Lqq, None);
        let lut = PackedLutLinear::from_quantized(&q);
        let swar = crate::packed::PackedLqqLinear::from_quantized(&q);
        let mut via_lut = vec![0i8; 64];
        let mut via_swar = vec![0i8; 64];
        for row in 0..16 {
            for g in 0..4 {
                lut.dequant_row_group(row, g, &mut via_lut);
                dequant_group_lqq(
                    swar.group_words(row, g),
                    swar.group_params(row, g),
                    &mut via_swar,
                );
                assert_eq!(via_lut, via_swar, "row {row} group {g}");
            }
        }
    }

    #[test]
    fn lut_weight_bytes_exceed_lqq_by_table_overhead() {
        let w = Mat::from_fn(8, 128, |r, c| ((r + c) as f32 * 0.3).cos());
        let lut = PackedLutLinear::quantize(&w, 64);
        let lqq = crate::packed::PackedLqqLinear::quantize(&w, 64);
        // 16 bytes/group of table vs 2 bytes/group of params.
        assert_eq!(
            PackedWeights::weight_bytes(&lut) - lqq.weight_bytes(),
            8 * 2 * (16 - 2)
        );
    }
}
