//! Microbenchmark: the pipeline ablation on real threads (serial vs
//! flat vs ExCP vs ImFP with identical LQQ dequantization) — Figure
//! 13's CPU-measured counterpart.
//!
//! Plain main (no criterion: the sandbox is offline); `--json` enables
//! telemetry (so the pipelines' stall counters and span histograms are
//! live) and dumps the registry to `BENCH_pipelines.json`.

use std::hint::black_box;

use lq_bench::bench_case;
use lq_core::api::W4A8Weights;
use lq_core::serial::w4a8_serial;
use lq_core::{BackendId, KernelKind, LiquidGemm};
use lq_quant::act::QuantizedActivations;
use lq_quant::mat::Mat;

const N: usize = 1024;
const K: usize = 2048;
const M: usize = 64;

fn main() {
    let _json = lq_bench::json_dump("pipelines");
    let w = Mat::from_fn(N, K, |r, cc| ((r * K + cc) as f32 * 0.05).sin());
    let x = Mat::from_fn(M, K, |r, cc| ((r + cc) as f32 * 0.09).cos());
    let qa = QuantizedActivations::quantize(&x, None);
    let weights = W4A8Weights::quantize(&w, 64, BackendId::Lqq);
    let workers = std::thread::available_parallelism().map_or(4, |p| p.get().min(8));
    // One persistent pool for all variants — the paper's persistent
    // kernel: workers outlive every call below.
    let lg = LiquidGemm::builder()
        .workers(workers)
        .task_rows(16)
        .build()
        .expect("valid config");

    println!("pipeline_m64 (N={N} K={K} workers={workers})");
    bench_case("serial", 10, || {
        black_box(w4a8_serial(&qa.q, &qa.scales, weights.as_dyn()));
    });
    bench_case("flat_parallel", 10, || {
        black_box(lg.gemm(&qa.q, &qa.scales, &weights, KernelKind::FlatParallel));
    });
    bench_case("excp", 10, || {
        black_box(lg.gemm(&qa.q, &qa.scales, &weights, KernelKind::ExCp));
    });
    bench_case("imfp", 10, || {
        black_box(lg.gemm(&qa.q, &qa.scales, &weights, KernelKind::ImFp));
    });
}
