//! Microbenchmark: serial GEMM kernels across precisions (the CPU-real
//! counterpart of Figure 12's per-kernel comparison), plus the
//! pool-amortisation sweep: per-call worker spawn vs one persistent
//! pool across decode-to-prefill batch sizes — the CPU-measured
//! counterpart of the paper's persistent-kernel argument (§5.4) — and a
//! pool audit (per-worker tiles/busy-ns and the exact tile count).
//!
//! Plain main (no criterion: the sandbox is offline); `--json` dumps
//! the telemetry registry to `BENCH_gemm_kernels.json`. `--smoke` runs
//! the pool audit on tiny shapes once per registered dequant backend
//! (each on a fresh 4-worker pool) and exits non-zero unless the
//! workers' tile counts sum to exactly calls × ⌈N / `task_rows`⌉ (every
//! tile ran once — tiles go to whichever worker is free, so per-worker
//! shares are not a property to gate on), or if a fault-free run
//! records any job retry (retries may only come from the self-healing
//! path, so a nonzero count here means a worker panicked
//! spontaneously). With `--trace <path>` the smoke run also records
//! scheduler events, writes a validated Chrome trace, and fails unless
//! `job_start` and `job_finish` events pair up to that same count.

use std::hint::black_box;

use lq_bench::{bench_case, fmt_time, measure_median, print_header, print_row};
use lq_core::api::W4A8Weights;
use lq_core::microkernel::dispatch_counts;
use lq_core::packed::{Fp16Linear, Fp8Linear, W4A16Linear, W8A8Linear};
use lq_core::reference::max_abs_diff;
use lq_core::serial::{
    fp16_serial, fp8_serial, w4a16_serial, w4a8_serial, w4a8_serial_with, w8a8_serial,
};
use lq_core::shard::{ShardedGemm, ShardedWeights};
use lq_core::{registry, BackendId, KernelKind, LiquidGemm, MicrokernelSet, SimdVariant};
use lq_models::configs::LLAMA2_70B;
use lq_models::shapes::decode_layer_shapes;
use lq_quant::act::QuantizedActivations;
use lq_quant::mat::Mat;

const N: usize = 512;
const K: usize = 2048;

/// Busy-ns max/min ratio between *shard pools* above which `--smoke`
/// fails the run: the static column plan hands each shard the same
/// work, so the pools' totals should stay within 2× of each other.
const BALANCE_GATE: f64 = 2.0;

/// `--smoke` decode-latency gate: the freshly measured persistent-pool
/// decode (M=1) median may regress at most 10% against the
/// `lq_bench_decode_m1_ns` gauge in the committed
/// `BENCH_gemm_kernels.json` snapshot at the workspace root. A missing
/// file or gauge (a bootstrap run that predates the gauge) skips the
/// gate with a note instead of failing.
const DECODE_M1_GATE: f64 = 1.10;

/// The committed decode-M1 baseline, read from the repo-root snapshot
/// *before* the `--json` dump-on-drop overwrites it. Hand-rolled scan
/// (the sandbox has no serde): finds the gauge key and parses the
/// number after the colon.
fn committed_decode_m1_baseline() -> Option<f64> {
    let s =
        std::fs::read_to_string(lq_bench::workspace_root().join("BENCH_gemm_kernels.json")).ok()?;
    let key = "\"lq_bench_decode_m1_ns\":";
    let i = s.find(key)? + key.len();
    let rest = s[i..].trim_start_matches(' ');
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | 'e' | 'E' | '-' | '+')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Median per-call persistent-pool ImFP decode (M=1) latency in
/// nanoseconds, recorded into the `lq_bench_decode_m1_ns` gauge so the
/// committed snapshot carries the baseline the smoke gate compares
/// against.
fn bench_decode_m1(lg: &LiquidGemm, weights: &W4A8Weights) -> f64 {
    const CALLS: usize = 8;
    let x = Mat::from_fn(1, K, |_, c| (c as f32 * 0.07).cos());
    let qa = QuantizedActivations::quantize(&x, None);
    let t = measure_median(12, || {
        for _ in 0..CALLS {
            black_box(lg.gemm(&qa.q, &qa.scales, weights, KernelKind::ImFp));
        }
    }) / CALLS as f64;
    let ns = t * 1e9;
    lq_telemetry::registry()
        .gauge_with(
            "lq_bench_decode_m1_ns",
            &[("variant", lg.pool().microkernels().variant().label())],
        )
        .set(ns);
    // Unlabelled mirror: one stable key for the smoke gate to scan.
    lq_telemetry::registry()
        .gauge("lq_bench_decode_m1_ns")
        .set(ns);
    ns
}

/// Per-call-spawn vs persistent-pool ImFP latency across batch sizes.
/// At decode shapes (M ≤ 8) thread spawn+join dominates the tiny GEMM,
/// so the persistent pool must win by a wide margin; by M = 64 the
/// compute amortises the overhead and the gap narrows.
fn pool_amortisation(weights: &W4A8Weights) {
    let workers = std::thread::available_parallelism().map_or(4, |p| p.get().min(8));
    // The legacy per-call path spawned `ParallelConfig::default().workers`
    // scoped threads on every GEMM, independent of machine size; the
    // spawn/call baseline reproduces exactly that bill.
    let legacy_workers = lq_core::ParallelConfig::default().workers;
    let lg = LiquidGemm::builder()
        .workers(workers)
        .task_rows(16)
        .build()
        .expect("valid config");
    // Each timed iteration runs CALLS GEMMs so per-call times are
    // median-of-medians stable even at the sub-ms decode shapes.
    const CALLS: usize = 4;
    println!(
        "\npool_amortisation (N={N} K={K}, ImFP, per-call times; \
         spawn/call={legacy_workers} threads per call, persistent={workers}-worker pool)"
    );
    print_header(&[
        ("M", 4),
        ("spawn/call", 11),
        ("persistent", 11),
        ("speedup", 8),
    ]);
    for m in [1usize, 4, 16, 64] {
        let x = Mat::from_fn(m, K, |r, c| ((r * K + c) as f32 * 0.07).cos());
        let qa = QuantizedActivations::quantize(&x, None);
        let t_spawn = measure_median(12, || {
            // The pre-handle world: every call pays pool construction
            // (thread spawn) and teardown (join).
            for _ in 0..CALLS {
                let fresh = LiquidGemm::builder()
                    .workers(legacy_workers)
                    .task_rows(16)
                    .build()
                    .expect("valid config");
                black_box(fresh.gemm(&qa.q, &qa.scales, weights, KernelKind::ImFp));
            }
        }) / CALLS as f64;
        let t_pool = measure_median(12, || {
            for _ in 0..CALLS {
                black_box(lg.gemm(&qa.q, &qa.scales, weights, KernelKind::ImFp));
            }
        }) / CALLS as f64;
        print_row(&[
            (m.to_string(), 4),
            (fmt_time(t_spawn), 11),
            (fmt_time(t_pool), 11),
            (format!("{:.2}x", t_spawn / t_pool), 8),
        ]);
    }
}

/// Drive `calls` ImFP GEMMs on a fresh 4-worker pool and print the
/// per-worker tiles/busy-ns from [`WorkerPool::worker_stats`]. Returns
/// the total tile count — exactly calls × ⌈N / `task_rows`⌉ the moment
/// the last `gemm` returns — and the total job-retry count, which on a
/// fault-free run must be 0 (both `--smoke` gates).
///
/// [`WorkerPool::worker_stats`]: lq_core::runtime::WorkerPool::worker_stats
fn pool_audit(
    weights: &W4A8Weights,
    k: usize,
    m: usize,
    task_rows: usize,
    calls: usize,
) -> (u64, u64) {
    let backend = weights.backend().label();
    let lg = LiquidGemm::builder()
        .workers(4)
        .task_rows(task_rows)
        .build()
        .expect("valid config");
    let x = Mat::from_fn(m, k, |r, c| ((r * k + c) as f32 * 0.05).sin());
    let qa = QuantizedActivations::quantize(&x, None);
    for _ in 0..calls {
        black_box(lg.gemm(&qa.q, &qa.scales, weights, KernelKind::ImFp));
    }
    let stats = lg.pool().worker_stats();
    println!(
        "\npool_audit (backend={backend}, M={m} K={k}, task_rows={task_rows}, \
         {calls} ImFP calls, 4 workers)"
    );
    print_header(&[
        ("worker", 6),
        ("jobs", 8),
        ("busy", 10),
        ("restarts", 9),
        ("retries", 8),
        ("pinned", 7),
    ]);
    for (id, s) in stats.iter().enumerate() {
        print_row(&[
            (id.to_string(), 6),
            (s.jobs.to_string(), 8),
            (fmt_time(s.busy_ns as f64 * 1e-9), 10),
            (s.restarts.to_string(), 9),
            (s.retries.to_string(), 8),
            (s.pinned_cpu.map_or("-".into(), |c| format!("cpu{c}")), 7),
        ]);
    }
    let jobs: u64 = stats.iter().map(|s| s.jobs).sum();
    let retries: u64 = stats.iter().map(|s| s.retries).sum();
    let active = stats.iter().filter(|s| s.jobs > 0).count();
    println!("tiles: {jobs} on {active} active workers, retries: {retries}");
    (jobs, retries)
}

/// `--smoke` sharded gate (DESIGN.md §14): on a tiny shape, a 2-shard
/// column-parallel and row-parallel run must be **bit-exact** against
/// the 1-shard run over the same pack, and the two shard pools'
/// aggregate busy-ns must stay within [`BALANCE_GATE`] of each other —
/// the balanced column plan hands each shard the same work, so a skewed
/// shard means a scheduler or placement regression. Runs under
/// `LQ_FORCE_SCALAR` too (the exactness argument is
/// variant-independent).
fn sharded_smoke_gate() {
    let w = Mat::from_fn(129, 256, |r, c| ((r * 256 + c) as f32 * 0.11).sin());
    let x = Mat::from_fn(8, 256, |r, c| ((r + c) as f32 * 0.07).cos());
    let qa = QuantizedActivations::quantize(&x, None);
    let build = |shards: usize| {
        ShardedGemm::builder()
            .shards(shards)
            .workers_per_shard(2)
            .task_rows(2)
            .build()
            .expect("valid shard config")
    };
    let tp1 = build(1);
    let tp2 = build(2);
    let sw1 = tp1.pack_weights(&w, 64);
    let sw2 = tp2.pack_weights(&w, 64);
    let want = tp1
        .gemm(&qa.q, &qa.scales, &sw1, KernelKind::ImFp)
        .expect("healthy shard")
        .y;
    for call in 0..32 {
        let col = tp2
            .gemm(&qa.q, &qa.scales, &sw2, KernelKind::ImFp)
            .expect("healthy shards")
            .y;
        if max_abs_diff(&col, &want) != 0.0 {
            eprintln!("FAIL: 2-shard column output differs from 1-shard (call {call})");
            std::process::exit(1);
        }
        let row = tp2
            .gemm_row(&qa.q, &qa.scales, &sw2)
            .expect("healthy shards")
            .y;
        if max_abs_diff(&row, &want) != 0.0 {
            eprintln!("FAIL: 2-shard row output differs from 1-shard (call {call})");
            std::process::exit(1);
        }
    }
    // Shard busy-balance: total busy-ns per shard pool.
    let busy: Vec<u64> = (0..tp2.shards())
        .map(|s| {
            tp2.shard_pool(s)
                .pool()
                .worker_stats()
                .iter()
                .map(|w| w.busy_ns)
                .sum()
        })
        .collect();
    let max = busy.iter().copied().max().unwrap_or(0);
    let min = busy.iter().copied().min().unwrap_or(0).max(1);
    let ratio = max as f64 / min as f64;
    println!("sharded busy-balance ratio: {ratio:.2} (gate: {BALANCE_GATE:.1})");
    lq_telemetry::registry()
        .gauge("lq_bench_shard_busy_balance_ratio")
        .set(ratio);
    if ratio > BALANCE_GATE {
        eprintln!("FAIL: shard busy-ns max/min ratio {ratio:.2} exceeds gate {BALANCE_GATE:.1}");
        std::process::exit(1);
    }
    println!("sharded smoke OK: 2-shard bit-exact vs 1-shard (column + row), balance {ratio:.2}");
}

/// Tensor-parallel throughput sweep on a 70B-scale layer: the Llama-2
/// 70B attention output projection (`decode_layer_shapes`, N = K =
/// 8192) at a decode batch of M = 8, one pack shared across shard
/// counts 1/2/4. Records `lq_bench_sharded_ns{shards=...}` gauges for
/// the committed snapshot — the EXPERIMENTS.md per-shard-count table.
fn sharded_sweep() {
    let shape = decode_layer_shapes(&LLAMA2_70B, 8).dense[1]; // O-proj
    let (m, n, k) = (shape.m, shape.n, shape.k);
    let workers = std::thread::available_parallelism().map_or(4, |p| p.get().min(8));
    println!("\nsharded_sweep (70B O-proj: M={m} N={n} K={k}, ImFP column-parallel)");
    let w = Mat::from_fn(n, k, |r, c| (((r * 31 + c * 7) % 97) as f32 * 0.021).sin());
    let x = Mat::from_fn(m, k, |r, c| ((r * k + c) as f32 * 0.07).cos());
    let qa = QuantizedActivations::quantize(&x, None);
    // One pack, re-planned per shard count — the sweep measures the
    // sharding, not repeated quantization.
    let packed = W4A8Weights::quantize(&w, 64, lq_core::BackendId::Lqq);
    print_header(&[("shards", 6), ("latency", 11), ("GOP/s", 8), ("speedup", 8)]);
    let mut base = None;
    for shards in [1usize, 2, 4] {
        let tp = ShardedGemm::builder()
            .shards(shards)
            .workers_per_shard((workers / shards).max(1))
            .task_rows(16)
            .build()
            .expect("valid shard config");
        let sw = ShardedWeights::from_weights(&packed, shards);
        let t = measure_median(5, || {
            black_box(
                tp.gemm(&qa.q, &qa.scales, &sw, KernelKind::ImFp)
                    .expect("healthy shards"),
            );
        });
        let gops = (2.0 * m as f64 * n as f64 * k as f64) / t / 1e9;
        let base_t = *base.get_or_insert(t);
        print_row(&[
            (shards.to_string(), 6),
            (fmt_time(t), 11),
            (format!("{gops:.1}"), 8),
            (format!("{:.2}x", base_t / t), 8),
        ]);
        let label = shards.to_string();
        lq_telemetry::registry()
            .gauge_with("lq_bench_sharded_ns", &[("shards", label.as_str())])
            .set(t * 1e9);
    }
}

/// The `--smoke` decode-latency regression gate: measure persistent
/// decode (M=1) on the full N×K shape with the auto-selected variant,
/// compare against the committed-snapshot baseline, exit non-zero past
/// [`DECODE_M1_GATE`].
fn run_decode_gate(decode_baseline: Option<f64>) {
    let workers = std::thread::available_parallelism().map_or(4, |p| p.get().min(8));
    let lg = LiquidGemm::builder()
        .workers(workers)
        .task_rows(16)
        .build()
        .expect("valid config");
    let big = Mat::from_fn(N, K, |r, c| ((r * K + c) as f32 * 0.11).sin());
    let weights = W4A8Weights::quantize(&big, 64, BackendId::Lqq);
    let got_ns = bench_decode_m1(&lg, &weights);
    match decode_baseline {
        Some(base_ns) => {
            let ratio = got_ns / base_ns;
            println!(
                "decode_m1: {} vs committed {} ({ratio:.2}x, gate {DECODE_M1_GATE:.2}x)",
                fmt_time(got_ns * 1e-9),
                fmt_time(base_ns * 1e-9)
            );
            if ratio > DECODE_M1_GATE {
                eprintln!(
                    "FAIL: decode M=1 regressed {ratio:.2}x vs committed baseline \
                     (gate {DECODE_M1_GATE:.2}x)"
                );
                std::process::exit(1);
            }
        }
        None => println!(
            "decode_m1: {} (no committed lq_bench_decode_m1_ns baseline — gate skipped)",
            fmt_time(got_ns * 1e-9)
        ),
    }
}

fn main() {
    let _json = lq_bench::json_dump("gemm_kernels");
    let mut trace = lq_bench::trace_dump();
    // Read the committed decode baseline before any `--json` dump can
    // overwrite the snapshot at exit.
    let decode_baseline = committed_decode_m1_baseline();
    let mk = MicrokernelSet::global();
    println!(
        "microkernel variant: {} (detected best: {})",
        mk.variant().label(),
        SimdVariant::best_available().label()
    );
    if std::env::args().any(|a| a == "--smoke") {
        // ISA-dispatch smoke gate: unless LQ_FORCE_SCALAR overrides it,
        // the process-wide microkernel set must be the best variant this
        // CPU detects — a scalar fallback on a SIMD host is a silent
        // 3-8x perf regression the timing gates might miss on a quiet
        // runner.
        let forced_scalar =
            std::env::var_os("LQ_FORCE_SCALAR").is_some_and(|v| !v.is_empty() && v != "0");
        if !forced_scalar && mk.variant() != SimdVariant::best_available() {
            eprintln!(
                "FAIL: global microkernel variant {} != detected best {}",
                mk.variant().label(),
                SimdVariant::best_available().label()
            );
            std::process::exit(1);
        }
        if forced_scalar && mk.variant() != SimdVariant::Scalar {
            eprintln!(
                "FAIL: LQ_FORCE_SCALAR set but global variant is {}",
                mk.variant().label()
            );
            std::process::exit(1);
        }
        // CI smoke gate: tiny shapes so the whole run is sub-second in
        // release mode — once per registered dequant backend, each on a
        // fresh pool.
        let (smoke_n, smoke_rows, smoke_calls) = (128usize, 2, 64);
        let want_tiles = (smoke_calls * smoke_n.div_ceil(smoke_rows)) as u64;
        let w = Mat::from_fn(smoke_n, 256, |r, c| ((r * 256 + c) as f32 * 0.11).sin());
        for backend in registry() {
            let id = backend.id();
            let weights = W4A8Weights::quantize(&w, 64, id);
            let (tiles, retries) = pool_audit(&weights, 256, 8, smoke_rows, smoke_calls);
            if tiles != want_tiles {
                eprintln!("FAIL[{id}]: workers ran {tiles} tiles, the calls had {want_tiles}");
                std::process::exit(1);
            }
            if retries != 0 {
                eprintln!(
                    "FAIL[{id}]: {retries} job retries on a fault-free run \
                     (spontaneous worker panic)"
                );
                std::process::exit(1);
            }
        }
        if trace.active() {
            // Trace-smoke gate: the exported Chrome JSON must validate
            // (flush panics otherwise) and every tile of the audit runs
            // above must have left one job_start and one job_finish.
            // Flushed here so the count covers exactly those runs.
            let events = trace.flush();
            let count = |kind| events.iter().filter(|e| e.kind == kind).count() as u64;
            let starts = count(lq_trace::EventKind::JobStart);
            let finishes = count(lq_trace::EventKind::JobFinish);
            let want = registry().len() as u64 * want_tiles;
            if starts != finishes || (lq_trace::dropped_total() == 0 && starts != want) {
                eprintln!(
                    "FAIL: traced {starts} job_start / {finishes} job_finish for {want} tiles"
                );
                std::process::exit(1);
            }
            println!(
                "trace smoke OK: {} events, {starts} job starts paired with finishes",
                events.len()
            );
        }
        // The audit runs above dispatched real GEMMs; the dispatch
        // counters must show the selected variant actually executed.
        if !dispatch_counts()
            .iter()
            .any(|&(v, _, n)| v == mk.variant().label() && n > 0)
        {
            eprintln!(
                "FAIL: no dispatches recorded for selected variant {} \
                 (counters: {:?})",
                mk.variant().label(),
                dispatch_counts()
            );
            std::process::exit(1);
        }
        // Tensor-parallel smoke gate: 2-shard bit-exactness + shard
        // busy-balance (variant-independent, so it runs under
        // LQ_FORCE_SCALAR too).
        sharded_smoke_gate();
        // Decode-latency regression gate against the committed
        // snapshot (skipped on bootstrap runs that predate the gauge,
        // and under LQ_FORCE_SCALAR — the committed baseline is the
        // auto-selected SIMD variant's, which scalar legitimately
        // cannot meet).
        if forced_scalar {
            println!("decode_m1 gate skipped (LQ_FORCE_SCALAR)");
        } else {
            run_decode_gate(decode_baseline);
        }
        println!("smoke OK");
        return;
    }
    let w = Mat::from_fn(N, K, |r, c| ((r * K + c) as f32 * 0.11).sin());
    let x = Mat::from_fn(32, K, |r, c| ((r + c) as f32 * 0.07).cos());
    let qa = QuantizedActivations::quantize(&x, None);
    let weights = W4A8Weights::quantize(&w, 64, BackendId::Lqq);
    let qoq = W4A8Weights::quantize(&w, 64, BackendId::Qoq);
    let w8 = W8A8Linear::quantize(&w);
    let w4a16 = W4A16Linear::quantize(&w, 64);
    let f16 = Fp16Linear::encode(&w);
    let f8 = Fp8Linear::encode(&w);

    println!("gemm_serial_m32 (N={N} K={K})");
    bench_case("w4a8_lqq", 10, || {
        black_box(w4a8_serial(&qa.q, &qa.scales, weights.as_dyn()));
    });
    bench_case("w4a8_qoq", 10, || {
        black_box(w4a8_serial(&qa.q, &qa.scales, qoq.as_dyn()));
    });
    bench_case("w8a8", 10, || {
        black_box(w8a8_serial(&qa.q, &qa.scales, &w8));
    });
    bench_case("w4a16", 10, || {
        black_box(w4a16_serial(&x, &w4a16));
    });
    bench_case("fp16", 10, || {
        black_box(fp16_serial(&x, &f16));
    });
    bench_case("fp8", 10, || {
        black_box(fp8_serial(&x, &f8));
    });

    // The four registered W4A8 dequant backends on identical shapes:
    // serial (pure dequant cost) and pooled ImFP (overlap) side by
    // side — the CPU-real counterpart of the cost-model sweep.
    let workers = std::thread::available_parallelism().map_or(4, |p| p.get().min(8));
    let lg = LiquidGemm::builder()
        .workers(workers)
        .task_rows(16)
        .build()
        .expect("valid config");
    println!("\nbackend_sweep (N={N} K={K} M=32, serial + ImFP x {workers} workers)");
    for backend in registry() {
        let weights = W4A8Weights::quantize(&w, 64, backend.id());
        bench_case(&format!("w4a8[{}]_serial", backend.id()), 10, || {
            black_box(w4a8_serial(&qa.q, &qa.scales, weights.as_dyn()));
        });
        bench_case(&format!("w4a8[{}]_imfp", backend.id()), 10, || {
            black_box(lg.gemm(&qa.q, &qa.scales, &weights, KernelKind::ImFp));
        });
    }

    // Per-ISA-variant sweep (scalar baseline + every detected SIMD
    // family, forced via the builder): serial prefill M=32 and
    // persistent-pool decode M=1 — the EXPERIMENTS.md before/after
    // table. The auto-selected variant additionally records the
    // `lq_bench_decode_m1_ns` gauge the smoke gate compares against.
    println!("\nvariant_sweep (N={N} K={K}; serial M=32, persistent ImFP decode M=1)");
    print_header(&[("variant", 8), ("serial_m32", 11), ("decode_m1", 11)]);
    for v in [SimdVariant::Scalar, SimdVariant::Avx2, SimdVariant::Vnni] {
        let Some(vmk) = MicrokernelSet::for_variant(v) else {
            println!("{:>8}  (not detected on this CPU)", v.label());
            continue;
        };
        let t_serial = measure_median(10, || {
            black_box(w4a8_serial_with(vmk, &qa.q, &qa.scales, weights.as_dyn()));
        });
        let lgv = LiquidGemm::builder()
            .workers(workers)
            .task_rows(16)
            .force_microkernel(v)
            .build()
            .expect("detected variant builds");
        let x1 = Mat::from_fn(1, K, |_, c| (c as f32 * 0.07).cos());
        let qa1 = QuantizedActivations::quantize(&x1, None);
        const CALLS: usize = 8;
        let t_decode = measure_median(12, || {
            for _ in 0..CALLS {
                black_box(lgv.gemm(&qa1.q, &qa1.scales, &weights, KernelKind::ImFp));
            }
        }) / CALLS as f64;
        print_row(&[
            (v.label().to_string(), 8),
            (fmt_time(t_serial), 11),
            (fmt_time(t_decode), 11),
        ]);
    }
    let auto = LiquidGemm::builder()
        .workers(workers)
        .task_rows(16)
        .build()
        .expect("valid config");
    let t_decode_auto = bench_decode_m1(&auto, &weights);
    println!(
        "decode_m1 (auto-selected {}): {}",
        auto.pool().microkernels().variant().label(),
        fmt_time(t_decode_auto * 1e-9)
    );
    drop(auto);

    sharded_sweep();

    pool_amortisation(&weights);
    let _ = pool_audit(&weights, K, 64, 16, 24);
}
