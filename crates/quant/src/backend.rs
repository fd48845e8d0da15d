//! The pluggable kernel-backend layer: every W4A8 dequant scheme is a
//! [`KernelBackend`] behind a [`BackendId`]-keyed registry, and its
//! packed weights answer a shared object-safe [`PackedWeights`]
//! contract the kernels dispatch through.
//!
//! Before this layer the dequant algorithm was a closed enum
//! (`PackedW4A8 { Lqq, Qoq }`) baked into every pipeline driver, so a
//! new quant scheme meant touching the enum, the serial kernel, all
//! three pool drivers, and the benches. Now a scheme ships two things,
//! both in this crate:
//!
//! 1. a packed-weight container implementing [`PackedWeights`]
//!    (per-row-group word access + per-row-group dequant), and
//! 2. a unit-struct [`KernelBackend`] registered in [`registry`]
//!    (offline pack entry point + [`BackendCost`] descriptor for the
//!    `lq-sim` cost model).
//!
//! The kernels themselves are backend-agnostic: any implementation
//! that fills the same INT8 tile bytes is bit-identical to the serial
//! reference, because accumulation is exact i32 and the epilogue order
//! is fixed. Packed weights are shared, never copied: the serial
//! kernel borrows them and a pool tile job holds the same
//! `Arc<dyn PackedWeights>` plus a row range, so
//! [`PackedWeights::dequant_row_group`] is the one place a backend's
//! words become INT8. Word-stream geometry stays backend-private
//! (e.g. the codebook's four-index words) — kernels address weights
//! only by `(row, group)`.
//!
//! Object safety: both traits avoid generics and `Self`-returning
//! methods.

use std::fmt;
use std::sync::Arc;

use crate::codebook::CodebookGemmBackend;
use crate::dequant::{dequant_group_lqq, dequant_group_qoq};
use crate::lut::LutDequantBackend;
use crate::mat::Mat;
use crate::packed::{PackedLqqLinear, PackedQoqLinear};

/// Largest supported quantization group (elements along K). Kernels
/// size stack buffers with this, so packers must reject bigger groups.
pub const MAX_GROUP: usize = 256;

/// Identifies a registered kernel backend — the runtime selection key
/// for `LiquidGemm::builder().backend(...)` and the telemetry label on
/// per-backend counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendId {
    /// LiquidQuant SWAR fast path (IMAD + XOR, the paper's kernel).
    Lqq,
    /// QServe/QoQ baseline (multiply + emulated `vsub4`).
    Qoq,
    /// LUT-GEMM-style per-group 16-entry lookup tables (Park et al.).
    Lut,
    /// CodeGEMM-style shared codebook of i8 sub-vectors.
    Codebook,
}

impl BackendId {
    /// Stable lowercase label — the `backend` telemetry label value and
    /// the bench table key.
    #[must_use]
    pub const fn label(self) -> &'static str {
        match self {
            BackendId::Lqq => "lqq",
            BackendId::Qoq => "qoq",
            BackendId::Lut => "lut",
            BackendId::Codebook => "codebook",
        }
    }

    /// Every registered id, in registry order.
    #[must_use]
    pub const fn all() -> [BackendId; 4] {
        [
            BackendId::Lqq,
            BackendId::Qoq,
            BackendId::Lut,
            BackendId::Codebook,
        ]
    }

    /// Inverse of [`BackendId::label`] (CLI/bench argument parsing).
    #[must_use]
    pub fn parse(s: &str) -> Option<BackendId> {
        BackendId::all().into_iter().find(|id| id.label() == s)
    }
}

impl fmt::Display for BackendId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Cost-model descriptor a backend hands to `lq-sim`: enough to build
/// the simulator's per-precision configuration (`PrecisionCfg`) so one
/// sweep prices all registered backends on the same shapes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BackendCost {
    /// Dequant ALU instructions per weight element (the paper's α).
    pub alpha: f64,
    /// Weight-memory bytes per element, metadata amortised in (nominal
    /// at group 64).
    pub weight_bytes_per_elem: f64,
    /// Whether dequant issues on different units than the MMA and can
    /// hide behind it (the ImFP overlap assumption).
    pub overlap_dq: bool,
    /// Whether the backend reproduces the serial SWAR reference
    /// bit-exactly (codebook backends are SQNR-bounded instead).
    pub bit_exact: bool,
}

/// The shared contract of packed W4A8 weights: shape and scale
/// metadata, and `(row, group)`-addressed access to the packed words —
/// raw (for prefetch hints) and dequantized. `Send + Sync` so one
/// `Arc` serves the serial kernel and every pool tile job alike.
pub trait PackedWeights: Send + Sync {
    /// Which backend packed these weights.
    fn backend(&self) -> BackendId;

    /// Output channels.
    fn n(&self) -> usize;

    /// Reduction dim.
    fn k(&self) -> usize;

    /// Quantization group size along K.
    fn group(&self) -> usize;

    /// Level-1 per-channel scales (length `n`).
    fn channel_scales(&self) -> &[f32];

    /// Packed words of group `g` of `row` — exactly the words
    /// [`PackedWeights::dequant_row_group`] reads for the same
    /// `(row, g)`. The word count is backend-defined; kernels only use
    /// the slice as the address to software-prefetch.
    fn group_words(&self, row: usize, g: usize) -> &[u32];

    /// Dequantize group `g` of `row` into `out` (length = group size)
    /// — the single dequant entry point: the serial kernel, the pool's
    /// fused Compute jobs and ExCP's materialise step all stream
    /// through it.
    fn dequant_row_group(&self, row: usize, g: usize, out: &mut [i8]);

    /// Weight bytes (payload + metadata) — the serving simulator's
    /// memory model.
    fn weight_bytes(&self) -> usize;
}

/// A registered quantization + dequantization scheme: the offline pack
/// entry point plus the descriptors runtime and simulator need.
/// Object-safe; implementations are stateless unit structs living in
/// [`registry`] for the life of the program.
pub trait KernelBackend: Send + Sync {
    /// Registry key.
    fn id(&self) -> BackendId;

    /// Human-readable name for tables and docs.
    fn name(&self) -> &'static str;

    /// Cost-model descriptor for `lq-sim`.
    fn cost(&self) -> BackendCost;

    /// Quantize + pack FP32 weights (`N×K`, group size along K) into
    /// this backend's kernel-ready container.
    fn pack(&self, w: &Mat<f32>, group: usize) -> Arc<dyn PackedWeights>;
}

/// The LiquidQuant backend (the paper's kernel).
pub struct LqqBackend;

impl KernelBackend for LqqBackend {
    fn id(&self) -> BackendId {
        BackendId::Lqq
    }

    fn name(&self) -> &'static str {
        "LiquidQuant SWAR (IMAD+XOR)"
    }

    fn cost(&self) -> BackendCost {
        BackendCost {
            // 7 ALU instructions per 8 elements + per-group overhead.
            alpha: 7.0 / 8.0 + 0.25,
            weight_bytes_per_elem: 0.5 + 2.0 / 64.0,
            overlap_dq: true,
            bit_exact: true,
        }
    }

    fn pack(&self, w: &Mat<f32>, group: usize) -> Arc<dyn PackedWeights> {
        Arc::new(PackedLqqLinear::quantize(w, group))
    }
}

/// The QServe/QoQ baseline backend.
pub struct QoqBackend;

impl KernelBackend for QoqBackend {
    fn id(&self) -> BackendId {
        BackendId::Qoq
    }

    fn name(&self) -> &'static str {
        "QoQ baseline (mul + emulated vsub4)"
    }

    fn cost(&self) -> BackendCost {
        BackendCost {
            // 19 instructions per 8 elements + zero-point handling.
            alpha: 19.0 / 8.0 + 1.5,
            weight_bytes_per_elem: 0.5 + 2.0 / 64.0,
            overlap_dq: false,
            bit_exact: true,
        }
    }

    fn pack(&self, w: &Mat<f32>, group: usize) -> Arc<dyn PackedWeights> {
        Arc::new(PackedQoqLinear::quantize(w, group))
    }
}

/// The global backend registry, in [`BackendId::all`] order. Entries
/// are `'static` unit structs, so a `&'static dyn KernelBackend` can be
/// stored anywhere without lifetime plumbing.
static REGISTRY: [&dyn KernelBackend; 4] = [
    &LqqBackend,
    &QoqBackend,
    &LutDequantBackend,
    &CodebookGemmBackend,
];

/// Every registered backend.
#[must_use]
pub fn registry() -> &'static [&'static dyn KernelBackend] {
    &REGISTRY
}

/// Look up a backend by id (total: every [`BackendId`] is registered).
#[must_use]
pub fn resolve(id: BackendId) -> &'static dyn KernelBackend {
    REGISTRY
        .iter()
        .copied()
        .find(|b| b.id() == id)
        .expect("every BackendId has a registry entry")
}

impl PackedWeights for PackedLqqLinear {
    fn backend(&self) -> BackendId {
        BackendId::Lqq
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
        PackedLqqLinear::group_words(self, row, g)
    }

    fn dequant_row_group(&self, row: usize, g: usize, out: &mut [i8]) {
        dequant_group_lqq(self.group_words(row, g), self.group_params(row, g), out);
    }

    fn weight_bytes(&self) -> usize {
        PackedLqqLinear::weight_bytes(self)
    }
}

impl PackedWeights for PackedQoqLinear {
    fn backend(&self) -> BackendId {
        BackendId::Qoq
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
        PackedQoqLinear::group_words(self, row, g)
    }

    fn dequant_row_group(&self, row: usize, g: usize, out: &mut [i8]) {
        dequant_group_qoq(self.group_words(row, g), self.group_params(row, g), out);
    }

    fn weight_bytes(&self) -> usize {
        PackedQoqLinear::weight_bytes(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_every_id_in_order() {
        let ids: Vec<BackendId> = registry().iter().map(|b| b.id()).collect();
        assert_eq!(ids, BackendId::all());
        for id in BackendId::all() {
            assert_eq!(resolve(id).id(), id);
        }
    }

    #[test]
    fn labels_are_stable_and_parse_back() {
        for id in BackendId::all() {
            assert_eq!(BackendId::parse(id.label()), Some(id));
            assert_eq!(id.to_string(), id.label());
        }
        assert_eq!(BackendId::parse("nope"), None);
    }

    #[test]
    fn costs_rank_lqq_cheapest_swar() {
        let lqq = resolve(BackendId::Lqq).cost();
        let qoq = resolve(BackendId::Qoq).cost();
        assert!(lqq.alpha < qoq.alpha);
        assert!(lqq.bit_exact && qoq.bit_exact);
    }
}
