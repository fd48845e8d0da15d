//! Telemetry integration tests for the pool-backed pipelines: counters
//! are monotone, tasks are accounted exactly, and enabling telemetry
//! leaves results bit-identical.

use lq_core::api::W4A8Weights;
use lq_core::pipeline::ParallelConfig;
use lq_core::reference::max_abs_diff;
use lq_core::serial::w4a8_serial;
use lq_core::{KernelKind, LiquidGemm, PackedLqqLinear};
use lq_quant::act::QuantizedActivations;
use lq_quant::mat::Mat;
use lq_rng::Rng;
use std::sync::Arc;

/// All tests record into the same process-global registry; serialize
/// them so exact-delta assertions aren't perturbed by the other tests'
/// pipeline runs.
static EXCLUSIVE: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn fixture(rng: &mut Rng, m: usize, n: usize, k: usize) -> (Mat<i8>, Vec<f32>, PackedLqqLinear) {
    let xf = Mat::from_fn(m, k, |_, _| rng.range_f32(-2.0, 2.0));
    let wf = Mat::from_fn(n, k, |_, _| rng.range_f32(-1.0, 1.0));
    let qa = QuantizedActivations::quantize(&xf, None);
    (qa.q, qa.scales, PackedLqqLinear::quantize(&wf, 64))
}

/// Property: across repeated ImFP runs with randomized shapes, the
/// tasks counter advances by exactly ⌈N / task_rows⌉ per run.
#[test]
fn imfp_tasks_counter_advances_by_task_count() {
    let _guard = EXCLUSIVE.lock().unwrap();
    lq_telemetry::enable();
    let reg = lq_telemetry::registry();
    let tasks = reg.counter_with(
        "lq_pipeline_tasks_total",
        &[("variant", "imfp"), ("backend", "lqq")],
    );

    let lg = LiquidGemm::builder().workers(3).build().unwrap();
    let mut rng = Rng::new(0x5ECD);
    for round in 0..8 {
        let m = rng.range_usize(1, 6);
        let n = rng.range_usize(4, 40);
        let k = 64 * rng.range_usize(1, 4);
        let (x, s, w) = fixture(&mut rng, m, n, k);
        let task_rows = rng.range_usize(1, 9);
        let cfg = ParallelConfig::builder()
            .task_rows(task_rows)
            .build()
            .unwrap();

        let tasks_before = tasks.get();
        let want = w4a8_serial(&x, &s, &w);
        let weights = W4A8Weights::from_arc(Arc::new(w));
        let got = lg.gemm_with(&x, &s, &weights, KernelKind::ImFp, cfg).y;
        assert_eq!(max_abs_diff(&got, &want), 0.0, "round {round}");

        let expected_tasks = n.div_ceil(task_rows) as u64;
        assert_eq!(
            tasks.get() - tasks_before,
            expected_tasks,
            "round {round}: tasks counter must advance by the task count"
        );
    }
}

/// Telemetry on vs off must not change numeric results, and the GEMM
/// call histogram must record one sample per instrumented call — the
/// `Serial` kind included, which never reaches the pool.
#[test]
fn gemm_call_histogram_counts_calls() {
    let _guard = EXCLUSIVE.lock().unwrap();
    lq_telemetry::enable();
    let mut rng = Rng::new(7);
    let (x, s, w) = fixture(&mut rng, 3, 12, 128);
    let weights = W4A8Weights::from_arc(Arc::new(w));
    let lg = LiquidGemm::builder()
        .workers(2)
        .task_rows(4)
        .build()
        .unwrap();
    let hist = lq_telemetry::registry()
        .histogram_with("lq_gemm_ns", &[("variant", "imfp"), ("backend", "lqq")]);
    let before = hist.count();
    let a = lg.gemm(&x, &s, &weights, KernelKind::ImFp).y;
    let b = lg.gemm(&x, &s, &weights, KernelKind::ImFp).y;
    assert!(hist.count() >= before + 2, "each call records a span");
    assert_eq!(max_abs_diff(&a, &b), 0.0, "runs are deterministic");
    let serial = lq_telemetry::registry()
        .histogram_with("lq_gemm_ns", &[("variant", "serial"), ("backend", "lqq")]);
    let before = serial.count();
    let c = lg.gemm(&x, &s, &weights, KernelKind::Serial).y;
    assert_eq!(serial.count(), before + 1, "a serial call records a span");
    assert_eq!(max_abs_diff(&a, &c), 0.0);
}

/// The pool's own families appear once telemetry is on: per-worker job
/// counters advance and the queue-depth gauge exists.
#[test]
fn pool_metrics_are_exported() {
    let _guard = EXCLUSIVE.lock().unwrap();
    lq_telemetry::enable();
    let reg = lq_telemetry::registry();
    let mut rng = Rng::new(11);
    let (x, s, w) = fixture(&mut rng, 2, 16, 64);
    let weights = W4A8Weights::from_arc(Arc::new(w));
    // Fresh single-worker pool: all jobs land on worker 0.
    let lg = LiquidGemm::builder()
        .workers(1)
        .task_rows(4)
        .build()
        .unwrap();
    let jobs = reg.counter_with("lq_pool_jobs_total", &[("worker", "0")]);
    let before = jobs.get();
    let _ = lg.gemm(&x, &s, &weights, KernelKind::ImFp);
    let _ = lg.gemm(&x, &s, &weights, KernelKind::ExCp);
    // 4 tiles per call, whatever the kind.
    assert!(
        jobs.get() >= before + 8,
        "worker 0 executed the submitted jobs ({} -> {})",
        before,
        jobs.get()
    );
    let prom = reg.to_prometheus();
    assert!(prom.contains("lq_pool_busy_ns_total"), "{prom}");
}
