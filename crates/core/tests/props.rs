//! Randomized property tests for the GEMM kernels: every optimized
//! variant must be bit-identical to the naive integer reference on
//! arbitrary shapes and data (seeded in-tree PRNG; offline sandbox has
//! no proptest).

use std::sync::Arc;

use lq_core::api::W4A8Weights;
use lq_core::packed::{PackedLqqLinear, PackedQoqLinear, W8A8Linear};
use lq_core::pipeline::ParallelConfig;
use lq_core::reference::{epilogue_ref, gemm_i8_ref, max_abs_diff};
use lq_core::serial::{w4a8_serial, w8a8_serial};
use lq_core::{KernelKind, LiquidGemm};
use lq_quant::level1::PROTECTIVE_MAX;
use lq_quant::lqq::LqqTensor;
use lq_quant::mat::Mat;
use lq_quant::qoq::QoqTensor;
use lq_rng::Rng;

const CASES: usize = 48;

/// Random problem: M×K i8 activations (full range), N×K i8 level-1
/// weights (protective range), per-token scales. Group size 32.
fn problem(rng: &mut Rng) -> (Mat<i8>, Vec<f32>, Mat<i8>) {
    let m = rng.range_usize(1, 6);
    let n = rng.range_usize(1, 12);
    let k = rng.range_usize(1, 4) * 32;
    let xv: Vec<i8> = (0..m * k).map(|_| rng.any_i8()).collect();
    let scales = rng.vec_f32(m, 0.001, 1.0);
    let wv = rng.vec_i8(n * k, -PROTECTIVE_MAX, PROTECTIVE_MAX);
    (Mat::from_vec(m, k, xv), scales, Mat::from_vec(n, k, wv))
}

fn oracle(x: &Mat<i8>, scales: &[f32], w_i8: &Mat<i8>, ch: &[f32]) -> Mat<f32> {
    epilogue_ref(&gemm_i8_ref(x, w_i8), scales, ch)
}

/// LQQ serial kernel == dequantize-then-integer-GEMM oracle, bitwise.
#[test]
fn lqq_serial_equals_oracle() {
    let mut rng = Rng::new(0xC0DE_0001);
    for case in 0..CASES {
        let (x, scales, w_l1) = problem(&mut rng);
        let t = LqqTensor::quantize(&w_l1, 32);
        let ch: Vec<f32> = (0..w_l1.rows()).map(|r| 0.01 + r as f32 * 0.001).collect();
        let packed = PackedLqqLinear::from_tensor(&t, ch.clone());
        let got = w4a8_serial(&x, &scales, &packed);
        let want = oracle(&x, &scales, &t.dequantize(), &ch);
        assert_eq!(max_abs_diff(&got, &want), 0.0, "case {case}");
    }
}

/// QoQ serial kernel == its oracle, bitwise.
#[test]
fn qoq_serial_equals_oracle() {
    let mut rng = Rng::new(0xC0DE_0002);
    for case in 0..CASES {
        let (x, scales, w_l1) = problem(&mut rng);
        let t = QoqTensor::quantize(&w_l1, 32);
        let ch: Vec<f32> = (0..w_l1.rows()).map(|r| 0.02 + r as f32 * 0.002).collect();
        let packed = PackedQoqLinear::from_tensor(&t, ch.clone());
        let got = w4a8_serial(&x, &scales, &packed);
        let want = oracle(&x, &scales, &t.dequantize(), &ch);
        assert_eq!(max_abs_diff(&got, &want), 0.0, "case {case}");
    }
}

/// W8A8 kernel == its oracle, bitwise.
#[test]
fn w8a8_equals_oracle() {
    let mut rng = Rng::new(0xC0DE_0003);
    for case in 0..CASES {
        let (x, scales, w_l1) = problem(&mut rng);
        let ch: Vec<f32> = (0..w_l1.rows()).map(|_| 0.5).collect();
        let w = W8A8Linear {
            q: w_l1.clone(),
            channel_scales: ch.clone(),
        };
        let got = w8a8_serial(&x, &scales, &w);
        let want = oracle(&x, &scales, &w_l1, &ch);
        assert_eq!(max_abs_diff(&got, &want), 0.0, "case {case}");
    }
}

/// Every pipeline variant equals the serial kernel on arbitrary shapes
/// and task/stage configurations, across pools of different sizes.
#[test]
fn pipelines_equal_serial() {
    let mut rng = Rng::new(0xC0DE_0004);
    // Worker count is a pool property now, not a per-call knob: build
    // one small and one wide persistent pool and alternate.
    let pools = [
        LiquidGemm::builder().workers(1).build().unwrap(),
        LiquidGemm::builder().workers(4).build().unwrap(),
    ];
    for case in 0..CASES {
        let (x, scales, w_l1) = problem(&mut rng);
        let lg = &pools[rng.range_usize(0, 2)];
        let cfg = ParallelConfig::builder()
            .task_rows(rng.range_usize(1, 9))
            .build()
            .expect("randomized config in valid range");
        let t = LqqTensor::quantize(&w_l1, 32);
        let ch: Vec<f32> = (0..w_l1.rows()).map(|_| 0.1).collect();
        let packed = W4A8Weights::from_arc(Arc::new(PackedLqqLinear::from_tensor(&t, ch)));
        let base = lg
            .gemm_with(&x, &scales, &packed, KernelKind::Serial, cfg)
            .y;
        for kind in [KernelKind::FlatParallel, KernelKind::ExCp, KernelKind::ImFp] {
            let y = lg.gemm_with(&x, &scales, &packed, kind, cfg).y;
            assert_eq!(max_abs_diff(&y, &base), 0.0, "case {case} {kind:?} {cfg:?}");
        }
    }
}
