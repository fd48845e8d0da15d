//! CPU-measured kernel cross-check: wall-clock the *real* Rust kernels
//! (serial LQQ vs serial QoQ vs W8A8; flat vs ExCP vs ImFP) on
//! LLaMA2-7B FFN shapes. This is the executable-layer evidence behind
//! the simulator's Figure 13 ablation: the LQQ-vs-QoQ gap and the
//! ImFP-vs-ExCP gap are real on any hardware, not artifacts of the
//! GPU model.
//!
//! Run: `cargo run --release -p lq-bench --bin cpu_kernel_bench [--quick] [--json]`
//!
//! `--json` enables telemetry for the run (pipeline stall counters and
//! span histograms go live) and writes `BENCH_cpu_kernel_bench.json` on
//! exit. Without it telemetry stays disabled, so the hot loops pay only
//! the one-relaxed-load noop path.

use lq_bench::{fmt_time, measure_median, print_header, print_row};
use lq_core::api::W4A8Weights;
use lq_core::packed::W8A8Linear;
use lq_core::serial::{w4a8_serial, w8a8_serial};
use lq_core::{BackendId, KernelKind, LiquidGemm};
use lq_quant::act::QuantizedActivations;
use lq_quant::mat::Mat;
use lq_rng::Rng;

fn main() {
    let _json = lq_bench::json_dump("cpu_kernel_bench");
    let quick = std::env::args().any(|a| a == "--quick");
    let (n, k) = if quick { (1024, 1024) } else { (4096, 4096) };
    let batches: &[usize] = if quick { &[8, 64] } else { &[8, 32, 128, 256] };
    let reps = if quick { 2 } else { 3 };

    let mut rng = Rng::new(7);
    let w = Mat::from_fn(n, k, |_, _| rng.range_f32(-1.0, 1.0));
    let lqq = W4A8Weights::quantize(&w, 64, BackendId::Lqq);
    let qoq = W4A8Weights::quantize(&w, 64, BackendId::Qoq);
    let w8 = W8A8Linear::quantize(&w);
    let workers = std::thread::available_parallelism().map_or(4, |p| p.get().min(8));
    let lg = LiquidGemm::builder()
        .workers(workers)
        .task_rows(16)
        .build()
        .expect("valid config");

    println!("== CPU kernel wall-clock, {n}x{k} weights, {workers} workers ==\n");
    print_header(&[
        ("batch", 6),
        ("LQQ serial", 11),
        ("QoQ serial", 11),
        ("W8A8 serial", 11),
        ("flat", 11),
        ("ExCP", 11),
        ("ImFP", 11),
        ("QoQ/LQQ", 8),
        ("ExCP/ImFP", 9),
    ]);
    for &m in batches {
        let x = Mat::from_fn(m, k, |_, _| rng.range_f32(-2.0, 2.0));
        let qa = QuantizedActivations::quantize(&x, None);
        let t_lqq = measure_median(reps, || {
            std::hint::black_box(w4a8_serial(&qa.q, &qa.scales, lqq.as_dyn()));
        });
        let t_qoq = measure_median(reps, || {
            std::hint::black_box(w4a8_serial(&qa.q, &qa.scales, qoq.as_dyn()));
        });
        let t_w8 = measure_median(reps, || {
            std::hint::black_box(w8a8_serial(&qa.q, &qa.scales, &w8));
        });
        let t_flat = measure_median(reps, || {
            std::hint::black_box(lg.gemm(&qa.q, &qa.scales, &lqq, KernelKind::FlatParallel));
        });
        let t_excp = measure_median(reps, || {
            std::hint::black_box(lg.gemm(&qa.q, &qa.scales, &lqq, KernelKind::ExCp));
        });
        let t_imfp = measure_median(reps, || {
            std::hint::black_box(lg.gemm(&qa.q, &qa.scales, &lqq, KernelKind::ImFp));
        });
        print_row(&[
            (m.to_string(), 6),
            (fmt_time(t_lqq), 11),
            (fmt_time(t_qoq), 11),
            (fmt_time(t_w8), 11),
            (fmt_time(t_flat), 11),
            (fmt_time(t_excp), 11),
            (fmt_time(t_imfp), 11),
            (format!("{:.2}x", t_qoq / t_lqq), 8),
            (format!("{:.2}x", t_excp / t_imfp), 9),
        ]);
    }
    println!(
        "\nexpected shape: QoQ/LQQ > 1 (the emulated vsub4 costs real ALU work);\n\
         ExCP/ImFP > 1 (the materialised INT8 tile round trip costs real traffic);\n\
         W8A8 serial ~ LQQ serial (dequant is cheap enough to ride along)."
    );
}
