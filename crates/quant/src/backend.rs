//! The pluggable kernel-backend layer: every weight format — the W4A8
//! dequant schemes and the W8A8 baseline — is a [`KernelBackend`]
//! behind a [`BackendId`]-keyed registry, and its packed weights answer
//! a shared object-safe [`PackedWeights`] contract the kernels dispatch
//! through.
//!
//! Before this layer the dequant algorithm was a closed enum
//! (`PackedW4A8 { Lqq, Qoq }`) baked into every pipeline driver, so a
//! new quant scheme meant touching the enum, the serial kernel, all
//! three pool drivers, and the benches. Now a scheme ships two things,
//! both in this crate:
//!
//! 1. a packed-weight container implementing [`PackedWeights`]
//!    (shape, scales and block dequant), and
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
//! [`PackedWeights::dequant_block`] is the one place a backend's words
//! become INT8. Word-stream geometry stays backend-private (e.g. the
//! codebook's four-index words) — kernels address weights only by
//! `(rows, groups)`.
//!
//! Object safety: both traits avoid generics and `Self`-returning
//! methods.

use std::fmt;
use std::sync::Arc;

use crate::codebook::CodebookGemmBackend;
use crate::dequant::{block_shape, dequant8_lqq_raw, dequant8_qoq_raw, dequant_block_nibbles};
use crate::lqq::LqqGroup;
use crate::lut::LutDequantBackend;
use crate::mat::Mat;
use crate::packed::{PackedLqqLinear, PackedQoqLinear, W8A8Linear};
use crate::qoq::QoqGroup;

/// Largest supported quantization group (elements along K). The strip
/// kernel dequantizes at least one whole group per K block, so the
/// group bounds the strip it stages per block; capping it keeps that
/// strip L1-resident. [`check_group`] rejects bigger groups at pack
/// time, and the kernels re-check weights that bypassed `pack`.
pub const MAX_GROUP: usize = 256;

/// The one group-size check every [`KernelBackend::pack`] makes before
/// it quantizes: `group` is in `1..=MAX_GROUP` and divides `k`.
/// Backend-specific constraints (multiples of 8 for the nibble
/// packers, of 16 for the codebook) stay in their own packers.
///
/// # Panics
/// If `group` is out of range or does not divide `k`.
pub fn check_group(k: usize, group: usize) {
    assert!(
        (1..=MAX_GROUP).contains(&group) && k.is_multiple_of(group),
        "invalid quantization group {group} for K = {k}: \
         need 1..={MAX_GROUP}, dividing K"
    );
}

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
    /// The W8A8 baseline: plain INT8 rows, no dequant.
    W8a8,
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
            BackendId::W8a8 => "w8a8",
        }
    }

    /// Every registered id, in registry order.
    #[must_use]
    pub const fn all() -> [BackendId; 5] {
        [
            BackendId::Lqq,
            BackendId::Qoq,
            BackendId::Lut,
            BackendId::Codebook,
            BackendId::W8a8,
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

/// The shared contract of packed weights: shape and scale
/// metadata, and block dequantization. `Send + Sync` so one `Arc`
/// serves the serial kernel and every pool tile job alike.
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

    /// Dequantize groups `[g0, g0 + kc/group)` of rows `[j, j + rows)`
    /// into `dst`, row-major with stride `kc = dst.len() / rows` (a
    /// whole number of groups) — the single dequant entry point. The
    /// strip kernel makes one call per strip K block and ExCP's
    /// materialise step one per tile, so the `dyn` dispatch is paid per
    /// block, not per group; a single group is
    /// `dequant_block(row, 1, g, out)`.
    fn dequant_block(&self, j: usize, rows: usize, g0: usize, dst: &mut [i8]);

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
        check_group(w.cols(), group);
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
        check_group(w.cols(), group);
        Arc::new(PackedQoqLinear::quantize(w, group))
    }
}

/// The W8A8 baseline backend: the level-1 INT8 rows are the MMA
/// operand, so its "dequant" is a copy and the strip kernel runs it
/// like any other format.
pub struct W8a8Backend;

impl KernelBackend for W8a8Backend {
    fn id(&self) -> BackendId {
        BackendId::W8a8
    }

    fn name(&self) -> &'static str {
        "W8A8 baseline (INT8 rows, no dequant)"
    }

    fn cost(&self) -> BackendCost {
        BackendCost {
            alpha: 0.0,
            weight_bytes_per_elem: 1.0,
            overlap_dq: true,
            bit_exact: true,
        }
    }

    fn pack(&self, w: &Mat<f32>, group: usize) -> Arc<dyn PackedWeights> {
        check_group(w.cols(), group);
        Arc::new(W8A8Linear::quantize(w, group))
    }
}

/// The global backend registry, in [`BackendId::all`] order. Entries
/// are `'static` unit structs, so a `&'static dyn KernelBackend` can be
/// stored anywhere without lifetime plumbing.
static REGISTRY: [&dyn KernelBackend; 5] = [
    &LqqBackend,
    &QoqBackend,
    &LutDequantBackend,
    &CodebookGemmBackend,
    &W8a8Backend,
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

    fn dequant_block(&self, j: usize, rows: usize, g0: usize, dst: &mut [i8]) {
        let w = (&self.words, self.groups.as_slice(), self.group);
        let prep = |p: LqqGroup| (u32::from(p.s_u8), u32::from(p.offset_a()) * 0x0101_0101);
        dequant_block_nibbles(w, (j, rows, g0), dst, prep, |x, (s, a)| {
            dequant8_lqq_raw(x, s, a)
        });
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

    fn dequant_block(&self, j: usize, rows: usize, g0: usize, dst: &mut [i8]) {
        let w = (&self.words, self.groups.as_slice(), self.group);
        let prep = |p: QoqGroup| (u32::from(p.s_u8), u32::from(p.zs()) * 0x0101_0101);
        dequant_block_nibbles(w, (j, rows, g0), dst, prep, |x, (s, z)| {
            dequant8_qoq_raw(x, s, z)
        });
    }

    fn weight_bytes(&self) -> usize {
        PackedQoqLinear::weight_bytes(self)
    }
}

impl PackedWeights for W8A8Linear {
    fn backend(&self) -> BackendId {
        BackendId::W8a8
    }

    fn n(&self) -> usize {
        self.q.rows()
    }

    fn k(&self) -> usize {
        self.q.cols()
    }

    fn group(&self) -> usize {
        self.group
    }

    fn channel_scales(&self) -> &[f32] {
        &self.channel_scales
    }

    fn dequant_block(&self, j: usize, rows: usize, g0: usize, dst: &mut [i8]) {
        let (kc, _) = block_shape(dst.len(), rows, self.group);
        let c0 = g0 * self.group;
        for (row, drow) in (j..).zip(dst.chunks_exact_mut(kc)) {
            drow.copy_from_slice(&self.q.row(row)[c0..c0 + kc]);
        }
    }

    fn weight_bytes(&self) -> usize {
        self.q.len() + self.channel_scales.len() * 4
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
