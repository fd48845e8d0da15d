//! Multi-threaded stress tests for the persistent worker-pool runtime:
//! one shared `LiquidGemm` handle, several caller threads, mixed
//! Lqq/Qoq schemes, mixed shapes, every pool-backed variant — all
//! results bit-exact against the serial kernels; plus lifecycle tests
//! proving workers join on drop and survive panics in jobs, an exact
//! tile-count audit per backend, and the ISA dispatch check.
//!
//! CI also runs this binary under `LQ_FORCE_SCALAR=1`, so the audit and
//! dispatch tests cover the scalar family too.

use std::sync::atomic::Ordering;
use std::sync::{Arc, Barrier};

use lq_core::api::W4A8Weights;
use lq_core::microkernel::dispatch_counts;
use lq_core::reference::max_abs_diff;
use lq_core::serial::w4a8_serial;
use lq_core::{
    registry, FaultInjector, FaultPlan, KernelKind, LiquidGemm, MicrokernelSet, PackedLqqLinear,
    PackedQoqLinear, SimdVariant,
};
use lq_quant::act::QuantizedActivations;
use lq_quant::mat::Mat;
use lq_rng::Rng;

/// One precomputed problem: quantized activations, both weight schemes,
/// and the serial oracles for each.
struct Case {
    x: Mat<i8>,
    scales: Vec<f32>,
    lqq: W4A8Weights,
    qoq: W4A8Weights,
    want_lqq: Mat<f32>,
    want_qoq: Mat<f32>,
}

fn build_cases() -> Vec<Case> {
    // Decode shapes (M=1..4) through small prefill shapes, N not always
    // divisible by task_rows, K across one to three groups.
    let shapes = [
        (1, 16, 64),
        (2, 23, 128),
        (4, 40, 192),
        (3, 7, 64),
        (8, 31, 128),
    ];
    shapes
        .iter()
        .enumerate()
        .map(|(i, &(m, n, k))| {
            let xf = Mat::from_fn(m, k, |r, c| ((r * k + c + i) as f32 * 0.017).sin() * 1.7);
            let wf = Mat::from_fn(n, k, |r, c| ((r * k + c + 3 * i) as f32 * 0.009).cos());
            let qa = QuantizedActivations::quantize(&xf, None);
            let lqq = PackedLqqLinear::quantize(&wf, 64);
            let qoq = PackedQoqLinear::quantize(&wf, 64);
            let want_lqq = w4a8_serial(&qa.q, &qa.scales, &lqq);
            let want_qoq = w4a8_serial(&qa.q, &qa.scales, &qoq);
            Case {
                x: qa.q,
                scales: qa.scales,
                lqq: W4A8Weights::from_arc(Arc::new(lqq)),
                qoq: W4A8Weights::from_arc(Arc::new(qoq)),
                want_lqq,
                want_qoq,
            }
        })
        .collect()
}

const PARALLEL_KINDS: [KernelKind; 3] =
    [KernelKind::FlatParallel, KernelKind::ExCp, KernelKind::ImFp];

/// `callers` threads, released together, hammer one shared handle with
/// mixed schemes, shapes, and variants; every single result must be
/// bit-exact (`max_abs_diff == 0.0`) vs serial.
fn hammer(lg: &Arc<LiquidGemm>, callers: usize, iters: usize) {
    let cases = Arc::new(build_cases());
    let start = Arc::new(Barrier::new(callers));
    let mut handles = Vec::new();
    for caller in 0..callers {
        let cases = Arc::clone(&cases);
        let lg = Arc::clone(lg);
        let start = Arc::clone(&start);
        handles.push(std::thread::spawn(move || {
            let mut rng = Rng::new(0xBEEF + caller as u64);
            start.wait();
            for iter in 0..iters {
                let case = &cases[rng.range_usize(0, cases.len())];
                let kind = PARALLEL_KINDS[rng.range_usize(0, PARALLEL_KINDS.len())];
                let (weights, want) = if rng.range_usize(0, 2) == 0 {
                    (&case.lqq, &case.want_lqq)
                } else {
                    (&case.qoq, &case.want_qoq)
                };
                let y = lg.gemm(&case.x, &case.scales, weights, kind).y;
                assert_eq!(
                    max_abs_diff(&y, want),
                    0.0,
                    "caller {caller} iter {iter} {kind:?} diverged from serial"
                );
            }
        }));
    }
    for h in handles {
        h.join().expect("stress caller panicked");
    }
}

/// The acceptance property: several caller threads share one handle
/// concurrently and every result is bit-exact.
#[test]
fn concurrent_mixed_gemms_bit_exact() {
    let lg = LiquidGemm::builder()
        .workers(4)
        .task_rows(5)
        .build()
        .unwrap();
    hammer(&Arc::new(lg), 4, 30);
}

/// The same with more callers than workers and worker panics scheduled
/// across the run: several calls sit on the board while a tile is on a
/// retry list and a slot is respawning. Every scheduled panic fires,
/// every one is healed by exactly one retry, and nothing leaks.
#[test]
fn concurrent_callers_outnumbering_workers_heal_bit_exact() {
    const WORKERS: usize = 2;
    let inj = Arc::new(FaultInjector::new(
        FaultPlan::quiet().worker_panics_at(&[0, 5, 11, 23, 47, 95, 96, 150]),
    ));
    let lg = Arc::new(
        LiquidGemm::builder()
            .workers(WORKERS)
            .task_rows(5)
            .fault_injector(Arc::clone(&inj))
            .build()
            .unwrap(),
    );
    // 6 callers × 30 calls of at least one tile each: every scheduled
    // index is reached.
    hammer(&lg, 6, 30);
    let fired = inj.stats().worker_panics;
    assert_eq!(fired, 8, "not every scheduled panic fired");
    let stats = lg.pool().worker_stats();
    assert_eq!(stats.iter().map(|w| w.restarts).sum::<u64>(), fired);
    assert_eq!(stats.iter().map(|w| w.retries).sum::<u64>(), fired);
    // Replacements bring the pool back to full strength (thread
    // start-up is asynchronous to the call that healed).
    for _ in 0..200 {
        if lg.pool().live_workers() == WORKERS {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    assert_eq!(lg.pool().live_workers(), WORKERS);
    let probe = lg.pool().live_probe();
    drop(lg);
    assert_eq!(
        probe.load(Ordering::SeqCst),
        0,
        "a healed pool leaked a thread"
    );
}

/// Dropping the handle joins every worker thread — no leak. The probe
/// outlives the pool and must read zero afterwards.
#[test]
fn drop_joins_workers_no_leak() {
    let lg = LiquidGemm::builder().workers(3).build().unwrap();
    let probe = lg.pool().live_probe();
    let cases = build_cases();
    let c = &cases[0];
    let _ = lg.gemm(&c.x, &c.scales, &c.lqq, KernelKind::ImFp);
    drop(lg);
    assert_eq!(
        probe.load(Ordering::SeqCst),
        0,
        "all workers must have exited and been joined"
    );
}

/// A panic inside a job must not deadlock drop: the pool contains it,
/// respawns the slot, and keeps serving.
#[test]
fn panic_in_job_then_clean_drop() {
    let lg = LiquidGemm::builder().workers(2).build().unwrap();
    let probe = lg.pool().live_probe();
    lg.inject_worker_panic();
    lg.inject_worker_panic();
    // Still functional after two contained panics.
    let cases = build_cases();
    let c = &cases[1];
    let y = lg.gemm(&c.x, &c.scales, &c.qoq, KernelKind::ExCp).y;
    assert_eq!(max_abs_diff(&y, &c.want_qoq), 0.0);
    drop(lg);
    assert_eq!(probe.load(Ordering::SeqCst), 0, "no deadlock on drop");
}

/// Pool audit, once per registered backend on a fresh 4-worker pool:
/// the workers' tile counts sum to exactly calls × ⌈N / `task_rows`⌉
/// the moment the last `gemm` returns (every tile ran once), and a
/// fault-free run records no retry (a retry here means a worker
/// panicked spontaneously).
#[test]
fn pool_audit_counts_every_tile_once_and_never_retries() {
    const CALLS: usize = 64;
    let (m, n, k, task_rows) = (8, 128, 256, 2);
    let wf = Mat::from_fn(n, k, |r, c| ((r * k + c) as f32 * 0.11).sin());
    let xf = Mat::from_fn(m, k, |r, c| ((r * k + c) as f32 * 0.05).sin());
    let qa = QuantizedActivations::quantize(&xf, None);
    for backend in registry() {
        let id = backend.id();
        let weights = W4A8Weights::quantize(&wf, 64, id);
        let lg = LiquidGemm::builder()
            .workers(4)
            .task_rows(task_rows)
            .build()
            .unwrap();
        for _ in 0..CALLS {
            let _ = lg.gemm(&qa.q, &qa.scales, &weights, KernelKind::ImFp);
        }
        let stats = lg.pool().worker_stats();
        let jobs: u64 = stats.iter().map(|s| s.jobs).sum();
        let retries: u64 = stats.iter().map(|s| s.retries).sum();
        assert_eq!(jobs, (CALLS * n.div_ceil(task_rows)) as u64, "{id}: tiles");
        assert_eq!(retries, 0, "{id}: retries on a fault-free run");
    }
}

/// ISA dispatch: the process-wide microkernel set is the best variant
/// this CPU detects (a silent scalar fallback on a SIMD host costs
/// 3–8×), or scalar when `LQ_FORCE_SCALAR` is set; and a pool GEMM
/// actually dispatches to it.
#[test]
fn global_microkernels_are_the_best_detected_and_dispatch() {
    let forced = std::env::var_os("LQ_FORCE_SCALAR").is_some_and(|v| !v.is_empty() && v != "0");
    let want = if forced {
        SimdVariant::Scalar
    } else {
        SimdVariant::best_available()
    };
    let variant = MicrokernelSet::global().variant();
    assert_eq!(variant, want, "LQ_FORCE_SCALAR set: {forced}");
    let lg = LiquidGemm::builder().workers(2).build().unwrap();
    assert_eq!(lg.pool().microkernels().variant(), variant);
    let cases = build_cases();
    let c = &cases[4];
    let y = lg.gemm(&c.x, &c.scales, &c.lqq, KernelKind::ImFp).y;
    assert_eq!(max_abs_diff(&y, &c.want_lqq), 0.0);
    assert!(
        dispatch_counts()
            .iter()
            .any(|&(v, _, count)| v == variant.label() && count > 0),
        "no dispatch recorded for {}: {:?}",
        variant.label(),
        dispatch_counts()
    );
}
