//! Observability tour: enable the zero-dependency telemetry layer, run
//! one instrumented workload per subsystem, and dump the full registry
//! in both Prometheus text format and JSON.
//!
//! Run: `cargo run --release --example telemetry`
//!
//! The output demonstrates the three instrumented layers:
//! * `lq-core` — per-variant call-latency histograms (`lq_gemm_ns`),
//!   per-role task-span timings and task counters from the pipeline
//!   driver, plus the persistent worker pool's own families:
//!   per-worker `lq_pool_jobs_total`, `lq_pool_busy_ns_total`, and
//!   `lq_pool_job_ns`.
//! * `lq-serving` — decode-step latency histogram (p50/p95/p99),
//!   per-step batch-size histogram, KV-page occupancy gauges, admission
//!   and OOM counters, end-of-run tokens/s.
//! * `lq-sim::pipeline_sim` — modelled per-resource busy time (TMA /
//!   CUDA cores / Tensor cores) for each pipelining discipline.

use liquidgemm::models::configs::LLAMA2_7B;
use liquidgemm::prelude::*;
use liquidgemm::quant::act::QuantizedActivations;
use liquidgemm::quant::mat::Mat;
use liquidgemm::sim::pipeline_sim::ablation;
use liquidgemm::sim::specs::H800;
use liquidgemm::telemetry;
use lq_rng::Rng;

fn main() {
    // Telemetry is off by default (the kernels pay one relaxed atomic
    // load per call); flip it on for this tour.
    telemetry::enable();

    // ── 1. Instrumented CPU pipelines: ImFP and ExCP ────────────────
    let mut rng = Rng::new(42);
    let (m, n, k) = (8, 256, 512);
    let w = Mat::from_fn(n, k, |_, _| rng.range_f32(-1.0, 1.0));
    let x = Mat::from_fn(m, k, |_, _| rng.range_f32(-2.0, 2.0));
    let qa = QuantizedActivations::quantize(&x, None);
    let weights = W4A8Weights::quantize(&w, 64, BackendId::Lqq);
    // One persistent pool serves every call — its per-worker counters
    // (lq_pool_jobs_total, lq_pool_busy_ns_total) accumulate below.
    let lg = LiquidGemm::builder()
        .workers(4)
        .task_rows(8)
        .build()
        .expect("valid config");
    for _ in 0..4 {
        let _ = lg.gemm(&qa.q, &qa.scales, &weights, KernelKind::ImFp);
        let _ = lg.gemm(&qa.q, &qa.scales, &weights, KernelKind::ExCp);
    }
    println!(
        "ran 4x ImFP + 4x ExCP GEMMs ({m}x{n}x{k}) on a {}-worker pool",
        lg.workers()
    );

    // ── 2. Instrumented serving loop: continuous-batching decode ────
    let sys = ServingSystem::of(SystemId::LiquidServe);
    let requests: Vec<Request> = (0..96)
        .map(|i| {
            Request::new(
                i,
                128 + (i as usize % 5) * 64,
                64 + (i as usize % 3) * 32,
                i as f64 * 0.002,
            )
        })
        .collect();
    let stats = run_schedule(
        &sys,
        &H800,
        &LLAMA2_7B,
        SchedulerConfig::default(),
        &requests,
    );
    println!(
        "scheduled {} requests: {} decode steps, {:.0} tokens/s",
        requests.len(),
        stats.decode_steps,
        stats.throughput()
    );

    // ── 3. Instrumented simulator: Figure-13 pipeline ablation ──────
    let ab = ablation(&H800, 64, 256);
    println!(
        "sim ablation (m=64): baseline {:.3} ms -> ImFP {:.3} ms\n",
        ab.baseline * 1e3,
        ab.lqq_imfp * 1e3
    );

    // ── Export ──────────────────────────────────────────────────────
    println!("================ Prometheus text format ================");
    print!("{}", telemetry::registry().to_prometheus());
    println!("==================== JSON snapshot =====================");
    println!("{}", telemetry::registry().to_json());
}
