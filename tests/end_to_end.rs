//! Cross-crate integration tests: the full offline-quantize → pack →
//! kernel → epilogue path against FP32 references, and serving-layer
//! consistency.

use liquidgemm::core::api::W4A8Weights;
use liquidgemm::core::packed::W8A8Linear;
use liquidgemm::core::reference::{gemm_f32_ref, max_abs_diff};
use liquidgemm::core::serial::w8a8_serial;
use liquidgemm::core::{BackendId, KernelKind, LiquidGemm, ParallelConfig};
use liquidgemm::quant::act::QuantizedActivations;
use liquidgemm::quant::mat::Mat;
use liquidgemm::quant::metrics::error_stats;
use liquidgemm::quant::smooth::calibrate;

fn fixture(m: usize, n: usize, k: usize, outliers: bool) -> (Mat<f32>, Mat<f32>) {
    let x = Mat::from_fn(m, k, |r, c| {
        let v = ((r * k + c) as f32 * 0.013).sin() * 1.5;
        if outliers && c % 61 == 7 {
            v * 30.0
        } else {
            v
        }
    });
    let w = Mat::from_fn(n, k, |r, c| ((r * k + c) as f32 * 0.007).cos() * 0.6);
    (x, w)
}

fn handle() -> LiquidGemm {
    LiquidGemm::builder().build().expect("valid default config")
}

#[test]
fn w4a8_end_to_end_accuracy_vs_fp32() {
    let (x, w) = fixture(16, 96, 512, false);
    let oracle = gemm_f32_ref(&x, &w);
    let qa = QuantizedActivations::quantize(&x, None);
    let lg = handle();
    for (name, weights) in [
        ("lqq", W4A8Weights::quantize(&w, 64, BackendId::Lqq)),
        ("qoq", W4A8Weights::quantize(&w, 64, BackendId::Qoq)),
    ] {
        let y = lg.gemm(&qa.q, &qa.scales, &weights, KernelKind::Serial).y;
        let e = error_stats(&oracle, &y);
        assert!(e.sqnr_db > 25.0, "{name}: sqnr {}", e.sqnr_db);
        assert!(e.cosine > 0.998, "{name}: cosine {}", e.cosine);
    }
}

#[test]
fn all_pipeline_variants_bit_identical_on_large_shape() {
    let (x, w) = fixture(24, 256, 768, false);
    let qa = QuantizedActivations::quantize(&x, None);
    let weights = W4A8Weights::quantize(&w, 64, BackendId::Lqq);
    let lg = LiquidGemm::builder().workers(4).build().unwrap();
    let cfg = ParallelConfig::builder().task_rows(7).build().unwrap();
    let base = lg
        .gemm_with(&qa.q, &qa.scales, &weights, KernelKind::Serial, cfg)
        .y;
    for kind in [KernelKind::FlatParallel, KernelKind::ExCp, KernelKind::ImFp] {
        let y = lg.gemm_with(&qa.q, &qa.scales, &weights, kind, cfg).y;
        assert_eq!(max_abs_diff(&y, &base), 0.0, "{kind:?} diverged");
    }
}

#[test]
fn smoothquant_calibration_helps_the_full_w4a8_path() {
    let (x, w) = fixture(16, 64, 488 / 8 * 8, true);
    let oracle = gemm_f32_ref(&x, &w);

    // Without smoothing.
    let lg = handle();
    let qa = QuantizedActivations::quantize(&x, None);
    let weights = W4A8Weights::quantize(&w, 8, BackendId::Lqq);
    let y_plain = lg.gemm(&qa.q, &qa.scales, &weights, KernelKind::Serial).y;
    let e_plain = error_stats(&oracle, &y_plain);

    // With calibrated smoothing applied to both operands.
    let cal = calibrate(&x, &w, 9);
    let w_s = liquidgemm::quant::smooth::smooth_weights(&w, &cal.scales);
    let qa_s = QuantizedActivations::quantize(&x, Some(&cal.scales));
    let weights_s = W4A8Weights::quantize(&w_s, 8, BackendId::Lqq);
    let y_s = lg
        .gemm(&qa_s.q, &qa_s.scales, &weights_s, KernelKind::Serial)
        .y;
    let e_s = error_stats(&oracle, &y_s);

    assert!(
        e_s.mse < e_plain.mse,
        "smoothing must reduce error with outliers: {} vs {}",
        e_s.mse,
        e_plain.mse
    );
}

#[test]
fn w4a8_tracks_w8a8_within_second_level_error() {
    // The W4A8 result must stay close to the W8A8 result on the same
    // level-1 grid: the only extra error is the 4-bit second level.
    let (x, w) = fixture(8, 48, 256, false);
    let qa = QuantizedActivations::quantize(&x, None);
    let w8 = W8A8Linear::quantize(&w);
    let y8 = w8a8_serial(&qa.q, &qa.scales, &w8);
    let weights = W4A8Weights::quantize(&w, 64, BackendId::Lqq);
    let y4 = handle()
        .gemm(&qa.q, &qa.scales, &weights, KernelKind::Serial)
        .y;
    let e = error_stats(&y8, &y4);
    assert!(e.cosine > 0.999, "cosine {}", e.cosine);
}

#[test]
fn group_size_sweep_is_monotone_in_fidelity() {
    // Smaller groups → finer scales → at least as good accuracy.
    let (x, w) = fixture(8, 32, 512, false);
    let oracle = gemm_f32_ref(&x, &w);
    let qa = QuantizedActivations::quantize(&x, None);
    let lg = handle();
    let mut last_sqnr = f64::NEG_INFINITY;
    for group in [256, 128, 32, 8] {
        let weights = W4A8Weights::quantize(&w, group, BackendId::Lqq);
        let y = lg.gemm(&qa.q, &qa.scales, &weights, KernelKind::Serial).y;
        let e = error_stats(&oracle, &y);
        assert!(
            e.sqnr_db >= last_sqnr - 1.0,
            "group {group}: sqnr {} after {}",
            e.sqnr_db,
            last_sqnr
        );
        last_sqnr = e.sqnr_db.max(last_sqnr);
    }
}
