//! Shared argument types of the kernel API.
//!
//! The front door is the handle-based [`crate::LiquidGemm`] API
//! (`LiquidGemm::builder().workers(n).backend(id).build()?` →
//! `lg.gemm(&x, &scales, &weights, kind)`), which owns a persistent
//! worker pool. This module holds the types every call site shares:
//! the [`KernelKind`] pipeline selector, the [`W4A8Weights`]
//! backend-agnostic weight handle, and the [`GemmOutput`] result.

use std::fmt;
use std::sync::Arc;

use lq_quant::backend::{resolve, BackendId, PackedWeights};
use lq_quant::mat::Mat;

pub use crate::pipeline::ParallelConfig;

/// Pipeline strategy for the W4A8 kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelKind {
    /// Single-threaded, no pipeline (ablation baseline).
    Serial,
    /// Data-parallel workers, one fused dequant+MMA job per tile. On
    /// this CPU that is exactly what [`KernelKind::ImFp`] runs — tile
    /// jobs read the shared weights in place, so there is no Load stage
    /// left for the two to differ in — and the name stays only because
    /// callers select it: the row-parallel shard path (its `flat_raw`
    /// telemetry series) and the ledger's `core.flat_layer_ms_*` probes.
    FlatParallel,
    /// Explicit coarse-grained pipeline: each tile materialises its
    /// whole INT8 intermediate (Dequant role), then re-reads it (MMA
    /// role).
    ExCp,
    /// Implicit fine-grained pipeline: one producer publishing the
    /// call + fused dequant-MMA consumers pulling its tiles (the
    /// paper's LiquidGEMM configuration).
    ImFp,
}

/// W4A8 weights packed by any registered [`lq_quant::KernelBackend`].
///
/// A cheap-to-clone handle (`Arc` inside) over the backend-specific
/// packed representation. Construct with [`W4A8Weights::quantize`] (or
/// through [`crate::LiquidGemm::pack_weights`], which uses the
/// handle's configured backend), or wrap an already-packed linear with
/// [`W4A8Weights::from_arc`].
#[derive(Clone)]
pub struct W4A8Weights {
    packed: Arc<dyn PackedWeights>,
}

impl W4A8Weights {
    /// Quantize and pack FP32 weights with the backend registered for
    /// `id` (group size `group` along K).
    #[must_use]
    pub fn quantize(w: &Mat<f32>, group: usize, id: BackendId) -> Self {
        Self {
            packed: resolve(id).pack(w, group),
        }
    }

    /// Wrap any packed representation (e.g. straight from
    /// [`lq_quant::KernelBackend::pack`]).
    #[must_use]
    pub fn from_arc(packed: Arc<dyn PackedWeights>) -> Self {
        Self { packed }
    }

    /// Which backend packed these weights.
    #[must_use]
    pub fn backend(&self) -> BackendId {
        self.packed.backend()
    }

    /// Output channels.
    #[must_use]
    pub fn n(&self) -> usize {
        self.packed.n()
    }

    /// Reduction dim.
    #[must_use]
    pub fn k(&self) -> usize {
        self.packed.k()
    }

    /// Quantization group size along K.
    #[must_use]
    pub fn group(&self) -> usize {
        self.packed.group()
    }

    /// Packed-weight memory footprint in bytes.
    #[must_use]
    pub fn weight_bytes(&self) -> usize {
        self.packed.weight_bytes()
    }

    /// The trait-object view the kernels consume.
    #[must_use]
    pub fn as_dyn(&self) -> &dyn PackedWeights {
        self.packed.as_ref()
    }

    /// A shared handle on the packed representation (what
    /// [`crate::shard::ShardedWeights`] wraps in per-shard views —
    /// one pack, many windows).
    #[must_use]
    pub fn packed(&self) -> Arc<dyn PackedWeights> {
        Arc::clone(&self.packed)
    }
}

impl fmt::Debug for W4A8Weights {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("W4A8Weights")
            .field("backend", &self.packed.backend())
            .field("n", &self.packed.n())
            .field("k", &self.packed.k())
            .field("group", &self.packed.group())
            .finish()
    }
}

/// Result of a GEMM call.
#[derive(Debug, Clone)]
pub struct GemmOutput {
    /// `M×N` FP32 output.
    pub y: Mat<f32>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::max_abs_diff;
    use crate::runtime::LiquidGemm;
    use lq_quant::act::QuantizedActivations;

    #[test]
    fn all_variants_agree() {
        let (m, n, k) = (5, 24, 128);
        let xf = Mat::from_fn(m, k, |r, c| ((r * k + c) as f32 * 0.19).sin());
        let wf = Mat::from_fn(n, k, |r, c| ((r * k + c) as f32 * 0.03).cos());
        let qa = QuantizedActivations::quantize(&xf, None);
        let w = W4A8Weights::quantize(&wf, 64, BackendId::Lqq);
        assert_eq!(w.n(), n);
        assert_eq!(w.k(), k);
        assert_eq!(w.backend(), BackendId::Lqq);
        let lg = LiquidGemm::builder()
            .workers(3)
            .task_rows(5)
            .build()
            .unwrap();
        let base = lg.gemm(&qa.q, &qa.scales, &w, KernelKind::Serial).y;
        for kind in [KernelKind::FlatParallel, KernelKind::ExCp, KernelKind::ImFp] {
            let y = lg.gemm(&qa.q, &qa.scales, &w, kind).y;
            assert_eq!(max_abs_diff(&y, &base), 0.0, "{kind:?}");
        }
    }

    #[test]
    fn quantize_routes_through_the_registry() {
        let wf = Mat::from_fn(8, 128, |r, c| ((r * 128 + c) as f32 * 0.03).cos());
        for id in BackendId::all() {
            let w = W4A8Weights::quantize(&wf, 64, id);
            assert_eq!(w.backend(), id);
            assert_eq!((w.n(), w.k(), w.group()), (8, 128, 64));
            assert!(w.weight_bytes() > 0);
            // Clones share the packed representation.
            let c = w.clone();
            assert_eq!(c.backend(), id);
            assert!(format!("{w:?}").contains("W4A8Weights"));
        }
    }
}
