//! GEMM epilogue: the strip loop's output sinks (level-1 scale
//! application, or exact integer sums) and the `(W·Xᵀ)ᵀ` output
//! transposition.
//!
//! The paper fuses the first-level dequantization (per-channel weight
//! scale × per-token activation scale) into the epilogue, where its cost
//! amortises over the whole K reduction (Section 5.3). Section 5.4's
//! shape trick — computing `Y = (W·Xᵀ)ᵀ` instead of `X·Wᵀ` — lets the
//! kernel put the *large* dimension (N) on the MMA's flexible axis when
//! the batch M is small; here every kernel fills the flat `N×M` `Yᵀ`
//! (a block of output channels is contiguous, so a tile job owns one
//! slice) and `assemble_output` is the trailing `ᵀ`.

use lq_quant::mat::Mat;

/// Where the strip kernel's exact integer dot products go. The kernel
/// hands every `(token, channel)` sum to the call's sink exactly once;
/// the sink type is a generic parameter of the call, so the choice is
/// resolved at compile time — no branch or virtual call per element.
pub(crate) trait Sink: Send + Sync {
    /// Element type of the tiles this sink produces.
    type Out: Copy + Default + Send + 'static;

    /// Per-token activation scales, when the sink applies them (the
    /// shape check wants one per token).
    fn act_scales(&self) -> Option<&[f32]>;

    /// Turn one exact dot product into an output element. `ch` is the
    /// output channel's level-1 scale.
    fn emit(&self, tok: usize, ch: f32, sum: i64) -> Self::Out;
}

/// The fused level-1 epilogue `(sum · act[tok]) · ch`, in the operation
/// order of `reference::epilogue_ref`. Holds the per-token activation
/// scales.
pub(crate) struct ScaleEpilogue(pub Vec<f32>);

impl Sink for ScaleEpilogue {
    type Out = f32;

    fn act_scales(&self) -> Option<&[f32]> {
        Some(&self.0)
    }

    #[inline]
    fn emit(&self, tok: usize, ch: f32, sum: i64) -> f32 {
        sum as f32 * self.0[tok] * ch
    }
}

/// No epilogue: keep the exact sum. Row-parallel shards reduce these
/// across K slices in integer arithmetic and scale once at the end
/// (f32 partials would lose exactness above 2^24).
pub(crate) struct ExactSum;

impl Sink for ExactSum {
    type Out = i64;

    fn act_scales(&self) -> Option<&[f32]> {
        None
    }

    #[inline]
    fn emit(&self, _tok: usize, _ch: f32, sum: i64) -> i64 {
        sum
    }
}

/// Transpose the flat `N×M` buffer the kernels fill into the `M×N`
/// output.
pub(crate) fn assemble_output(y_t: Vec<f32>, m: usize, n: usize) -> Mat<f32> {
    let mut y = Mat::zeros(m, n);
    for j in 0..n {
        for i in 0..m {
            y.set(i, j, y_t[j * m + i]);
        }
    }
    y
}
