//! The Figure-13 ablation, twice: once measured on real CPU threads
//! (LQQ vs QoQ dequantization × pipeline variants, then every
//! registered backend against the W8A8 baseline) and once on the
//! warp-group pipeline simulator with H800 throughput numbers.
//!
//! Run: `cargo run --release --example ablation`

use liquidgemm::core::serial::w4a8_serial;
use liquidgemm::prelude::*;
use liquidgemm::quant::act::QuantizedActivations;
use liquidgemm::quant::mat::Mat;
use liquidgemm::sim::pipeline_sim::ablation;
use liquidgemm::sim::specs::H800;
use std::time::Instant;

fn median(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let mut v: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    v[v.len() / 2]
}

fn main() {
    println!("== CPU-measured ablation (real kernels, this machine) ==\n");
    let (m, n, k) = (64, 2048, 2048);
    let w = Mat::from_fn(n, k, |r, c| ((r * k + c) as f32 * 0.021).sin());
    let x = Mat::from_fn(m, k, |r, c| ((r + c) as f32 * 0.017).cos());
    let qa = QuantizedActivations::quantize(&x, None);
    let weights = W4A8Weights::quantize(&w, 64, BackendId::Lqq);
    let qoq = W4A8Weights::quantize(&w, 64, BackendId::Qoq);
    let workers = std::thread::available_parallelism().map_or(4, |p| p.get().min(8));
    let lg = LiquidGemm::builder()
        .workers(workers)
        .task_rows(16)
        .build()
        .expect("valid config");

    let t_base = median(3, || {
        std::hint::black_box(w4a8_serial(&qa.q, &qa.scales, qoq.as_dyn()));
    });
    let t_lqq = median(3, || {
        std::hint::black_box(w4a8_serial(&qa.q, &qa.scales, weights.as_dyn()));
    });
    let t_excp = median(3, || {
        std::hint::black_box(lg.gemm(&qa.q, &qa.scales, &weights, KernelKind::ExCp));
    });
    let t_imfp = median(3, || {
        std::hint::black_box(lg.gemm(&qa.q, &qa.scales, &weights, KernelKind::ImFp));
    });
    println!("  baseline (QoQ dequant, serial) : {:8.2} ms", t_base * 1e3);
    println!(
        "  +LQQ            (serial)       : {:8.2} ms  ({:.2}x)",
        t_lqq * 1e3,
        t_base / t_lqq
    );
    println!(
        "  +LQQ +ExCP ({workers} workers)        : {:8.2} ms  ({:.2}x)",
        t_excp * 1e3,
        t_base / t_excp
    );
    println!(
        "  +LQQ +ImFP ({workers} workers)        : {:8.2} ms  ({:.2}x)",
        t_imfp * 1e3,
        t_base / t_imfp
    );
    println!("  ImFP over ExCP: {:.2}x", t_excp / t_imfp);

    // Every registered backend on the one strip kernel, W8A8 included:
    // `vs w8a8` is each row's time over the W8A8 row's (the paper's
    // baseline), at decode (M = 1) and at the pipeline rows' M.
    let packs: Vec<_> = registry()
        .iter()
        .map(|b| (*b, W4A8Weights::quantize(&w, 64, b.id())))
        .collect();
    for bm in [1, m] {
        let qb = QuantizedActivations::quantize(&Mat::from_fn(bm, k, |r, c| *x.get(r, c)), None);
        println!("\n== Backend sweep (ImFP, {workers} workers, M = {bm}, N = K = {n}) ==\n");
        let times: Vec<f64> = packs
            .iter()
            .map(|(_, bw)| {
                median(5, || {
                    std::hint::black_box(lg.gemm(&qb.q, &qb.scales, bw, KernelKind::ImFp));
                })
            })
            .collect();
        let w8 = packs.iter().position(|(b, _)| b.id() == BackendId::W8a8);
        let t_w8 = times[w8.expect("w8a8 is registered")];
        for ((backend, _), t) in packs.iter().zip(&times) {
            let c = backend.cost();
            println!(
                "  {:8} : {:8.3} ms  {:5.2}x vs w8a8  (model alpha {:4.2}, {:.3} B/elem, overlap {})",
                backend.id().to_string(),
                t * 1e3,
                t / t_w8,
                c.alpha,
                c.weight_bytes_per_elem,
                c.overlap_dq
            );
        }
    }

    println!("\n== Simulated ablation (H800 warp-group pipeline model) ==\n");
    println!("  batch   Baseline      +LQQ     +ExCP     +ImFP   LQQ-gain  ImFP-gain");
    for m in [4usize, 16, 64, 256] {
        let r = ablation(&H800, m, 512);
        println!(
            "  {m:>5}   {:8.1}  {:8.1}  {:8.1}  {:8.1}    {:5.2}x     {:5.2}x",
            r.baseline * 1e6,
            r.lqq * 1e6,
            r.lqq_excp * 1e6,
            r.lqq_imfp * 1e6,
            r.baseline / r.lqq,
            r.lqq / r.lqq_imfp
        );
    }
    println!("  (times in us for a 512-iteration tile stream)");
}
