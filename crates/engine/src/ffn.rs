//! SwiGLU feed-forward network on W4A8 GEMMs.
//!
//! `FFN(x) = W_down · (silu(W_gate·x) ⊙ (W_up·x))`, with the gate and up
//! projections fused into one GEMM (as every serving stack does, and as
//! the paper's layer shapes assume). All three projections run through
//! the LiquidGEMM W4A8 kernel with per-token activation quantization in
//! front of each.

use lq_core::api::W4A8Weights;
use lq_core::{KernelKind, LiquidGemm};
use lq_quant::act::QuantizedActivations;
use lq_quant::mat::Mat;

/// SiLU (swish) activation.
#[inline]
#[must_use]
pub fn silu(x: f32) -> f32 {
    x / (1.0 + (-x).exp())
}

/// FFN weights: fused gate+up (`2·inter × hidden`) and down
/// (`hidden × inter`).
#[derive(Debug, Clone)]
pub struct FfnWeights {
    /// Fused gate (rows `0..inter`) and up (rows `inter..2·inter`).
    pub gate_up: W4A8Weights,
    /// Down projection.
    pub down: W4A8Weights,
    /// Intermediate width.
    pub inter: usize,
}

/// Run the FFN for a batch of hidden states (`M × hidden` → same shape).
/// All three projections go through `lg`'s persistent worker pool.
#[must_use]
pub fn ffn_forward(w: &FfnWeights, h: &Mat<f32>, lg: &LiquidGemm, kind: KernelKind) -> Mat<f32> {
    assert_eq!(w.gate_up.k(), h.cols(), "hidden size mismatch");
    assert_eq!(
        w.gate_up.n(),
        2 * w.inter,
        "fused gate_up must be 2*inter rows"
    );
    let qa = QuantizedActivations::quantize(h, None);
    let gu = lg.gemm(&qa.q, &qa.scales, &w.gate_up, kind).y;
    // act = silu(gate) ⊙ up
    let m = h.rows();
    let mut act = Mat::zeros(m, w.inter);
    for i in 0..m {
        let row = gu.row(i);
        let dst = act.row_mut(i);
        for j in 0..w.inter {
            dst[j] = silu(row[j]) * row[w.inter + j];
        }
    }
    let qa2 = QuantizedActivations::quantize(&act, None);
    lg.gemm(&qa2.q, &qa2.scales, &w.down, kind).y
}

/// FP32 reference FFN (oracle for tests).
#[must_use]
pub fn ffn_reference(gate_up: &Mat<f32>, down: &Mat<f32>, inter: usize, h: &Mat<f32>) -> Mat<f32> {
    let gu = lq_core::reference::gemm_f32_ref(h, gate_up);
    let m = h.rows();
    let mut act = Mat::zeros(m, inter);
    for i in 0..m {
        let row = gu.row(i);
        let dst = act.row_mut(i);
        for j in 0..inter {
            dst[j] = silu(row[j]) * row[inter + j];
        }
    }
    lq_core::reference::gemm_f32_ref(&act, down)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lq_core::BackendId;
    use lq_quant::metrics::error_stats;

    #[test]
    fn silu_known_values() {
        assert_eq!(silu(0.0), 0.0);
        assert!((silu(1.0) - 0.731_058_6).abs() < 1e-5);
        assert!(silu(-10.0).abs() < 1e-3);
        assert!((silu(10.0) - 10.0).abs() < 1e-3);
    }

    #[test]
    fn quantized_ffn_tracks_reference() {
        let (hidden, inter, m) = (64, 160, 6);
        let gate_up = Mat::from_fn(2 * inter, hidden, |r, c| {
            ((r * hidden + c) as f32 * 0.017).sin() * 0.3
        });
        let down = Mat::from_fn(hidden, inter, |r, c| {
            ((r * inter + c) as f32 * 0.013).cos() * 0.3
        });
        let h = Mat::from_fn(m, hidden, |r, c| ((r * hidden + c) as f32 * 0.029).sin());
        let w = FfnWeights {
            gate_up: W4A8Weights::quantize(&gate_up, 32, BackendId::Lqq),
            down: W4A8Weights::quantize(&down, 32, BackendId::Lqq),
            inter,
        };
        let lg = LiquidGemm::builder().build().unwrap();
        let got = ffn_forward(&w, &h, &lg, KernelKind::Serial);
        let want = ffn_reference(&gate_up, &down, inter, &h);
        let e = error_stats(&want, &got);
        assert!(e.cosine > 0.99, "cosine {}", e.cosine);
        assert!(e.sqnr_db > 18.0, "sqnr {}", e.sqnr_db);
    }

    #[test]
    fn pipeline_variants_match_serial_through_ffn() {
        let (hidden, inter, m) = (64, 96, 4);
        let gate_up = Mat::from_fn(2 * inter, hidden, |r, c| {
            ((r + c) as f32 * 0.05).sin() * 0.4
        });
        let down = Mat::from_fn(hidden, inter, |r, c| ((r + c) as f32 * 0.03).cos() * 0.4);
        let h = Mat::from_fn(m, hidden, |r, c| ((r * c) as f32 * 0.01).sin());
        let w = FfnWeights {
            gate_up: W4A8Weights::quantize(&gate_up, 32, BackendId::Lqq),
            down: W4A8Weights::quantize(&down, 32, BackendId::Lqq),
            inter,
        };
        let lg = LiquidGemm::builder()
            .workers(2)
            .task_rows(8)
            .build()
            .unwrap();
        let a = ffn_forward(&w, &h, &lg, KernelKind::Serial);
        let b = ffn_forward(&w, &h, &lg, KernelKind::ImFp);
        assert_eq!(lq_core::reference::max_abs_diff(&a, &b), 0.0);
    }

    #[test]
    #[should_panic(expected = "hidden size mismatch")]
    fn shape_mismatch_panics() {
        let gate_up = Mat::from_fn(64, 32, |_, _| 0.1);
        let down = Mat::from_fn(32, 32, |_, _| 0.1);
        let w = FfnWeights {
            gate_up: W4A8Weights::quantize(&gate_up, 32, BackendId::Lqq),
            down: W4A8Weights::quantize(&down, 32, BackendId::Lqq),
            inter: 32,
        };
        let h = Mat::zeros(2, 64);
        let lg = LiquidGemm::builder().build().unwrap();
        let _ = ffn_forward(&w, &h, &lg, KernelKind::Serial);
    }
}
