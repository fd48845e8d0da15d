//! Kernel-layer telemetry: the metric families the pipelines record.
//!
//! All handles are resolved from the global [`lq_telemetry`] registry
//! once per GEMM call — and only when recording is enabled, so the
//! disabled path costs one relaxed load per call (the "noop recorder").
//!
//! Exported families, labeled `variant="serial"|"flat"|"excp"|"imfp"`
//! (a `serial` call runs no pool tasks and records `lq_gemm_ns` only)
//! and `backend="lqq"|"qoq"|"lut"|"codebook"` — the
//! [`lq_quant::BackendId`] the call dispatched to, so per-backend
//! counters and histograms never alias:
//!
//! | metric | kind | meaning |
//! |--------|------|---------|
//! | `lq_gemm_ns` | histogram | whole-call wall-clock latency |
//! | `lq_pipeline_task_ns{role}` | histogram | per-task span in each role |
//! | `lq_pipeline_tasks_total` | counter | tasks executed |
//!
//! plus the pool-level families (labeled per `worker`):
//!
//! | metric | kind | meaning |
//! |--------|------|---------|
//! | `lq_pool_jobs_total{worker}` | counter | jobs executed by each worker |
//! | `lq_pool_busy_ns_total{worker}` | counter | time each worker spent executing (vs parked) |
//! | `lq_pool_job_ns{worker}` | histogram | per-job latency |
//! | `lq_pool_worker_restarts_total` | counter | worker threads quarantined and respawned after a job panic |
//! | `lq_pool_job_retries_total` | counter | panicked tiles handed back for another attempt (0 in any fault-free run — `tests/runtime_stress.rs` asserts it) |
//!
//! Roles mirror the paper's compute warp groups: `compute` is the
//! fused dequant+MMA tile (Flat/ImFP), `dequant`/`mma` the two stages
//! of an ExCP tile. (The Load role has no span: the producer only
//! publishes the call, and weight streaming is the cache hierarchy's.) The
//! `dequant` and `mma` series are registered *only* for the `excp`
//! variant — the only one whose pipeline has those roles — so exports
//! never carry dead always-zero series for `flat`/`imfp`.

use std::sync::Arc;

use lq_telemetry::{registry, Counter, Histogram, OwnedSpan};

/// Handles for one pipeline variant's metric families.
pub(crate) struct PipeMetrics {
    pub tasks: Arc<Counter>,
    pub task_ns_compute: Arc<Histogram>,
    /// ExCP only — `flat`/`imfp` have no dequant role, and registering
    /// the series there would export misleading always-zero histograms.
    pub task_ns_dequant: Option<Arc<Histogram>>,
    /// ExCP only (see `task_ns_dequant`).
    pub task_ns_mma: Option<Arc<Histogram>>,
}

impl PipeMetrics {
    /// Resolve handles for `variant` under dequant backend `backend`
    /// (a [`lq_quant::BackendId`] label, e.g. `"lqq"`), or `None` when
    /// telemetry is off (instrumentation then compiles down to
    /// `if let Some` misses). Per-backend series let one export compare
    /// the same pipeline across dequant algorithms.
    pub(crate) fn resolve(variant: &str, backend: &str) -> Option<Self> {
        if !lq_telemetry::enabled() {
            return None;
        }
        let reg = registry();
        let v = [("variant", variant), ("backend", backend)];
        fn role<'a>(variant: &'a str, backend: &'a str, r: &'a str) -> [(&'a str, &'a str); 3] {
            [("variant", variant), ("backend", backend), ("role", r)]
        }
        let split = variant == "excp";
        Some(Self {
            tasks: reg.counter_with("lq_pipeline_tasks_total", &v),
            task_ns_compute: reg
                .histogram_with("lq_pipeline_task_ns", &role(variant, backend, "compute")),
            task_ns_dequant: split.then(|| {
                reg.histogram_with("lq_pipeline_task_ns", &role(variant, backend, "dequant"))
            }),
            task_ns_mma: split
                .then(|| reg.histogram_with("lq_pipeline_task_ns", &role(variant, backend, "mma"))),
        })
    }
}

/// Per-worker pool metric handles, resolved lazily inside the worker
/// loop the first time telemetry is observed enabled.
pub(crate) struct WorkerMetrics {
    pub jobs: Arc<Counter>,
    pub busy_ns: Arc<Counter>,
    pub job_ns: Arc<Histogram>,
}

impl WorkerMetrics {
    /// Resolve handles for worker `worker`, or `None` when telemetry is
    /// off.
    pub(crate) fn resolve(worker: usize) -> Option<Self> {
        if !lq_telemetry::enabled() {
            return None;
        }
        let reg = registry();
        let id = worker.to_string();
        let l = [("worker", id.as_str())];
        Some(Self {
            jobs: reg.counter_with("lq_pool_jobs_total", &l),
            busy_ns: reg.counter_with("lq_pool_busy_ns_total", &l),
            job_ns: reg.histogram_with("lq_pool_job_ns", &l),
        })
    }
}

/// Pool self-healing counters (unlabeled — restarts are rare enough
/// that per-worker series would be noise).
pub(crate) struct PoolFaultMetrics {
    pub restarts: Arc<Counter>,
    pub retries: Arc<Counter>,
}

/// Resolve the self-healing counters, or `None` when telemetry is off.
/// Resolved at each restart (not cached): the path only runs after a
/// panic, where a registry lookup is noise.
pub(crate) fn pool_fault_metrics() -> Option<PoolFaultMetrics> {
    if !lq_telemetry::enabled() {
        return None;
    }
    let reg = registry();
    Some(PoolFaultMetrics {
        restarts: reg.counter("lq_pool_worker_restarts_total"),
        retries: reg.counter("lq_pool_job_retries_total"),
    })
}

/// Whole-call span for `lq_gemm_ns{variant=...,backend=...}` (None
/// when disabled).
pub(crate) fn call_span(variant: &str, backend: &str) -> Option<OwnedSpan> {
    lq_telemetry::enabled().then(|| {
        registry()
            .histogram_with("lq_gemm_ns", &[("variant", variant), ("backend", backend)])
            .span_owned()
    })
}
