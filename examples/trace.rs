//! Tracing tour: record a fully-instrumented batch-8 serving run,
//! export it as a Perfetto-loadable Chrome trace, and reconstruct
//! where every request's latency went from the events alone.
//!
//! Run: `cargo run --release --example trace [-- <out.json>]`
//!
//! The flow demonstrates the whole `lq-trace` pipeline:
//! 1. enable tracing + telemetry (both off by default — one relaxed
//!    atomic load per record site when disabled);
//! 2. serve 16 requests through `ServingRuntime` (max_batch = 8) on a
//!    real `TinyLlm` over a shared 4-worker persistent GEMM pool —
//!    request lifecycle events carry the serving loop's virtual clock,
//!    pool events carry wall time, and GEMM jobs inherit the request /
//!    batch-step correlation IDs;
//! 3. export Chrome trace-event JSON (`target/trace_example.json` by
//!    default; open it at <https://ui.perfetto.dev> — one track per
//!    worker, one per request);
//! 4. run the analyzer: per-request critical paths (queue / prefill /
//!    decode / other) and pool attribution (queueing vs compute,
//!    worker-overlap ratio);
//! 5. cross-check: the analyzer's summed per-request totals must agree
//!    with the independently recorded `lq_serving_request_latency_ns`
//!    histogram to within 5% — the trace is evidence, not decoration.

use liquidgemm::prelude::*;
use liquidgemm::telemetry;
use liquidgemm::trace;
use std::sync::Arc;

const REQUESTS: u64 = 16;
const PROMPT_LEN: usize = 12;
const OUTPUT_LEN: usize = 24;

fn main() {
    // Default under the workspace's target/ — anchored to the manifest
    // dir, not the CWD, so `cargo run --example trace` lands in the
    // same place from any invocation directory and never dirties the
    // repo root.
    let out = std::env::args().nth(1).unwrap_or_else(|| {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("target");
        let _ = std::fs::create_dir_all(&dir);
        dir.join("trace_example.json").display().to_string()
    });
    telemetry::enable();
    trace::enable();

    // ── Serve a batch-8 workload on a shared persistent pool ────────
    let spec = ModelSpec::tiny();
    let pool = Arc::new(
        LiquidGemm::builder()
            .workers(4)
            .build()
            .expect("valid pool config"),
    );
    let mut model = TinyLlm::synthetic_with_engine(spec, 2048, KernelKind::ImFp, Arc::clone(&pool));
    let requests: Vec<PromptRequest> = (0..REQUESTS)
        .map(|id| {
            let prompt: Vec<usize> = (0..PROMPT_LEN)
                .map(|t| (id as usize * 31 + t * 7 + 1) % spec.vocab)
                .collect();
            PromptRequest::new(
                Request::new(id, PROMPT_LEN, OUTPUT_LEN, id as f64 * 0.0004),
                prompt,
            )
        })
        .collect();
    let cfg = SchedulerConfig::builder()
        .max_batch(8)
        .page_tokens(16)
        .build()
        .expect("valid config");
    let stats = ServingRuntime::new(cfg, 2048 * 16).run(&mut model, requests);
    println!(
        "served {REQUESTS} requests x {OUTPUT_LEN} tokens: {} decode steps, {:.0} tok/s",
        stats.decode_steps,
        stats.throughput()
    );
    // Join the pool's workers before draining their rings.
    drop(model);
    drop(pool);

    // ── Export for Perfetto ─────────────────────────────────────────
    let events = trace::take_events();
    let json = trace::chrome::export(&events);
    trace::json::validate(&json).expect("export must be valid Chrome trace JSON");
    std::fs::write(&out, &json).expect("write trace file");
    println!(
        "\n{} events ({} dropped) -> {out} — open at https://ui.perfetto.dev",
        events.len(),
        trace::dropped_total()
    );

    // ── Analyzer: per-request critical paths ────────────────────────
    let paths = trace::analyze::request_paths(&events);
    println!("\nper-request critical path (virtual-clock ms):");
    println!(
        "{:>4}  {:>8}  {:>8}  {:>8}  {:>8}  {:>8}",
        "req", "queue", "prefill", "decode", "other", "total"
    );
    let ms = |ns: u64| format!("{:.3}", ns as f64 * 1e-6);
    for p in &paths {
        println!(
            "{:>4}  {:>8}  {:>8}  {:>8}  {:>8}  {:>8}",
            p.id,
            ms(p.queue_ns),
            ms(p.prefill_ns),
            ms(p.decode_ns),
            ms(p.other_ns),
            ms(p.total_ns)
        );
    }

    // ── Analyzer: pool attribution ──────────────────────────────────
    let pa = trace::analyze::pool_attribution(&events);
    println!(
        "\npool: {} jobs on {} workers — queue {} ms, compute {} ms, wall {} ms, \
         overlap {:.2}",
        pa.jobs,
        pa.workers,
        ms(pa.queue_ns),
        ms(pa.compute_ns),
        ms(pa.wall_ns),
        pa.overlap_ratio
    );

    // ── Cross-check against the independent histogram ───────────────
    let hist_sum = telemetry::registry()
        .histogram("lq_serving_request_latency_ns")
        .snapshot()
        .sum;
    let path_sum: u64 = paths
        .iter()
        .filter(|p| p.status == 0)
        .map(|p| p.total_ns)
        .sum();
    assert!(hist_sum > 0, "telemetry recorded no request latencies");
    let rel = (path_sum as f64 - hist_sum as f64).abs() / hist_sum as f64;
    println!(
        "\nattribution check: analyzer sum {} ms vs latency histogram sum {} ms ({:.3}% apart)",
        ms(path_sum),
        ms(hist_sum),
        rel * 100.0
    );
    assert!(
        rel < 0.05,
        "trace-derived latency diverges from telemetry by {:.1}% (>5%)",
        rel * 100.0
    );
}
