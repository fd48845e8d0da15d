//! Run one full (scaled-down) LLaMA-style decoder layer's GEMMs through
//! LiquidGEMM end-to-end on CPU: fused QKV projection, attention output
//! projection, gate+up FFN, and down FFN, all W4A8 with per-token
//! activation quantization, validated against the FP32 reference.
//!
//! The layer uses LLaMA2-7B's aspect ratios at 1/4 width so the example
//! finishes quickly in debug builds; pass `--full` for the real 4096 /
//! 11008 shapes (use `--release`).
//!
//! Run: `cargo run --release --example llama_layer [-- --full]`

use liquidgemm::core::reference::gemm_f32_ref;
use liquidgemm::prelude::*;
use liquidgemm::quant::act::QuantizedActivations;
use liquidgemm::quant::mat::Mat;
use liquidgemm::quant::metrics::error_stats;
use std::time::Instant;

struct Linear {
    name: &'static str,
    packed: W4A8Weights,
    fp: Mat<f32>,
}

fn make_linear(name: &'static str, n: usize, k: usize, seed: usize) -> Linear {
    let fp = Mat::from_fn(n, k, |r, c| {
        let i = seed.wrapping_mul(7919).wrapping_add(r * k + c);
        ((i as f32) * 0.000_37).sin() * 0.4
    });
    Linear {
        name,
        packed: W4A8Weights::quantize(&fp, 64, BackendId::Lqq),
        fp,
    }
}

fn main() {
    let full = std::env::args().any(|a| a == "--full");
    let (hidden, inter) = if full { (4096, 11008) } else { (1024, 2752) };
    let batch = 16;
    println!("decoder layer (hidden {hidden}, intermediate {inter}), batch {batch}, W4A8 ImFP\n");

    let layers = [
        make_linear("qkv_proj", 3 * hidden, hidden, 1),
        make_linear("o_proj", hidden, hidden, 2),
        make_linear("gate_up", 2 * inter, hidden, 3),
        make_linear("down", hidden, inter, 4),
    ];

    // One pool for the whole layer; workers default to the machine's
    // available parallelism.
    let lg = LiquidGemm::builder()
        .task_rows(16)
        .build()
        .expect("valid config");

    // Hidden states entering the layer.
    let mut h = Mat::from_fn(batch, hidden, |r, c| {
        ((r * hidden + c) as f32 * 0.011).cos()
    });
    let mut h_ref = h.clone();
    let mut total = 0.0f64;

    for lin in &layers {
        // Per-token dynamic INT8 quantization of the activations.
        let qa = QuantizedActivations::quantize(&h, None);
        let t0 = Instant::now();
        let y = lg.gemm(&qa.q, &qa.scales, &lin.packed, KernelKind::ImFp).y;
        let dt = t0.elapsed().as_secs_f64();
        total += dt;

        // FP32 reference for the same step (propagating the FP path).
        let y_ref = gemm_f32_ref(&h_ref, &lin.fp);
        let e = error_stats(&y_ref, &y);
        println!(
            "  {:9} [{:5}x{:5}]  {:8.2} ms   SQNR {:5.1} dB  cosine {:.5}",
            lin.name,
            lin.fp.rows(),
            lin.fp.cols(),
            dt * 1e3,
            e.sqnr_db,
            e.cosine
        );
        assert!(e.cosine > 0.98, "quantized output diverged");

        // Feed forward whichever output matches the next GEMM's K; for
        // shape changes, re-project by truncation (this is a kernel
        // demo, not a numerics-faithful transformer).
        let next_k = hidden;
        h = Mat::from_fn(batch, next_k, |r, c| *y.get(r, c % y.cols()));
        h_ref = Mat::from_fn(batch, next_k, |r, c| *y_ref.get(r, c % y_ref.cols()));
    }

    println!("\nlayer GEMM total: {:.2} ms", total * 1e3);
    println!("all four projections within quantization tolerance of FP32.");
}
