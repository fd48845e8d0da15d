//! Kernel-ready weight containers for the two SWAR dequant schemes,
//! packed in the dual-MMA layout (paper, Section 5.2), and for the
//! W8A8 baseline, whose plain INT8 rows need no dequant at all.
//!
//! Each container stores the weights in the exact memory format its
//! kernel streams, plus the scale metadata its epilogue needs, and
//! reports its weight-memory footprint for the serving simulator's
//! memory accounting. They moved here from `lq-core` together with the
//! backend trait layer ([`crate::backend`]) so that a quant scheme, its
//! packed container, and its [`crate::backend::KernelBackend`] entry
//! live in one crate; `lq-core` re-exports them unchanged.

use crate::level1::quantize_per_channel_i8;
use crate::lqq::{LqqGroup, LqqTensor};
use crate::mat::Mat;
use crate::qoq::{QoqGroup, QoqTensor};
use crate::weights::{Level2, QuantScheme, QuantizedLinear};
use lq_layout::dual_mma::DualMmaWeights;

/// W4A8 weights with LiquidQuant parameters, packed in the dual-MMA
/// layout — what the LiquidGEMM kernels consume.
#[derive(Debug, Clone)]
pub struct PackedLqqLinear {
    /// Output channels.
    pub n: usize,
    /// Reduction dim.
    pub k: usize,
    /// Group size along K (multiple of 8).
    pub group: usize,
    /// Interleave-packed UINT4 words, dual-MMA layout.
    pub words: DualMmaWeights,
    /// Per-group LQQ parameters, `n × k/group` row-major.
    pub groups: Vec<LqqGroup>,
    /// Level-1 per-channel scales (length `n`).
    pub channel_scales: Vec<f32>,
}

impl PackedLqqLinear {
    /// Pack from the offline quantization result. Panics if the linear
    /// was quantized with a different scheme.
    #[must_use]
    pub fn from_quantized(q: &QuantizedLinear) -> Self {
        let Level2::Lqq(t) = &q.level2 else {
            panic!("expected an LQQ-quantized linear");
        };
        Self::from_tensor(t, q.channel_scales.iter().map(|s| s.scale).collect())
    }

    /// Pack directly from an [`LqqTensor`] plus channel scales.
    #[must_use]
    pub fn from_tensor(t: &LqqTensor, channel_scales: Vec<f32>) -> Self {
        assert_eq!(channel_scales.len(), t.rows());
        assert_eq!(t.group() % 8, 0, "group size must be a multiple of 8");
        let words = DualMmaWeights::pack(&t.values, t.rows(), t.cols());
        Self {
            n: t.rows(),
            k: t.cols(),
            group: t.group(),
            words,
            groups: t.groups.clone(),
            channel_scales,
        }
    }

    /// Quantize FP weights end-to-end (level-1 + LQQ level-2 + pack).
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

    /// Weight bytes (4-bit payload + group params + channel scales) —
    /// the serving simulator's memory model.
    #[must_use]
    pub fn weight_bytes(&self) -> usize {
        self.words.packed_bytes() + self.groups.len() * 2 + self.channel_scales.len() * 4
    }
}

/// W4A8 weights with QoQ parameters (the QServe baseline kernel's
/// format). Same packing; different per-group metadata and dequant path.
#[derive(Debug, Clone)]
pub struct PackedQoqLinear {
    /// Output channels.
    pub n: usize,
    /// Reduction dim.
    pub k: usize,
    /// Group size along K (multiple of 8).
    pub group: usize,
    /// Interleave-packed UINT4 words.
    pub words: DualMmaWeights,
    /// Per-group QoQ parameters.
    pub groups: Vec<QoqGroup>,
    /// Level-1 per-channel scales.
    pub channel_scales: Vec<f32>,
}

impl PackedQoqLinear {
    /// Pack from the offline quantization result (QoQ scheme).
    #[must_use]
    pub fn from_quantized(q: &QuantizedLinear) -> Self {
        let Level2::Qoq(t) = &q.level2 else {
            panic!("expected a QoQ-quantized linear");
        };
        Self::from_tensor(t, q.channel_scales.iter().map(|s| s.scale).collect())
    }

    /// Pack directly from a [`QoqTensor`] plus channel scales.
    #[must_use]
    pub fn from_tensor(t: &QoqTensor, channel_scales: Vec<f32>) -> Self {
        assert_eq!(t.group() % 8, 0, "group size must be a multiple of 8");
        let words = DualMmaWeights::pack(&t.values, t.rows(), t.cols());
        Self {
            n: t.rows(),
            k: t.cols(),
            group: t.group(),
            words,
            groups: t.groups.clone(),
            channel_scales,
        }
    }

    /// Quantize FP weights end-to-end with the QoQ scheme.
    #[must_use]
    pub fn quantize(w: &Mat<f32>, group: usize) -> Self {
        let q = QuantizedLinear::quantize(w, group, QuantScheme::Qoq, None);
        Self::from_quantized(&q)
    }

    /// Groups per row.
    #[must_use]
    pub fn groups_per_row(&self) -> usize {
        self.k / self.group
    }

    /// Weight bytes.
    #[must_use]
    pub fn weight_bytes(&self) -> usize {
        self.words.packed_bytes() + self.groups.len() * 2 + self.channel_scales.len() * 4
    }
}

/// W8A8 weights: the level-1 INT8 rows as they are, per-channel
/// scales, no second level — the symmetric-GEMM baseline the paper
/// states its W4A8 speedups against (Figure 3 right).
#[derive(Debug, Clone)]
pub struct W8A8Linear {
    /// INT8 weights, `N×K`.
    pub q: Mat<i8>,
    /// Per-channel scales (length `N`).
    pub channel_scales: Vec<f32>,
    /// K-block and K-shard granularity of the kernels; the values do
    /// not depend on it.
    pub group: usize,
}

impl W8A8Linear {
    /// Quantize FP weights per channel to INT8. The protective-range
    /// level-1 grid is the one the W4A8 backends start from, so a
    /// W8A8-vs-W4A8 comparison differs only by the 4-bit second level.
    #[must_use]
    pub fn quantize(w: &Mat<f32>, group: usize) -> Self {
        let l1 = quantize_per_channel_i8(w);
        Self {
            q: l1.q,
            channel_scales: l1.scales.iter().map(|s| s.scale).collect(),
            group,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn weights(n: usize, k: usize) -> Mat<f32> {
        Mat::from_fn(n, k, |r, c| ((r * k + c) as f32 * 0.17).sin() * 2.0)
    }

    #[test]
    fn lqq_pack_preserves_values() {
        let w = weights(8, 128);
        let q = QuantizedLinear::quantize(&w, 64, QuantScheme::Lqq, None);
        let p = PackedLqqLinear::from_quantized(&q);
        assert_eq!((p.n, p.k, p.group), (8, 128, 64));
        // Unpacked words must equal the tensor's values.
        let Level2::Lqq(t) = &q.level2 else {
            unreachable!()
        };
        assert_eq!(p.words.unpack_all(), t.values);
        assert_eq!(p.groups_per_row(), 2);
    }

    #[test]
    #[should_panic(expected = "expected an LQQ-quantized linear")]
    fn wrong_scheme_panics() {
        let w = weights(2, 64);
        let q = QuantizedLinear::quantize(&w, 64, QuantScheme::Qoq, None);
        let _ = PackedLqqLinear::from_quantized(&q);
    }
}
