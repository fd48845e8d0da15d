//! # lq-serving — LLM serving-system substrate
//!
//! Everything around the GEMM kernel that the paper's system-level
//! evaluation (Table 1, Figures 4, 10, 11) depends on:
//!
//! * [`kvcache`] — a PagedAttention-style paged KV cache allocator
//!   (page tables, free-list, OOM handling) with conservation
//!   invariants.
//! * [`attention`] — decode/prefill attention cost model
//!   (FlashAttention-2-shaped: decode is a KV-bandwidth problem), with
//!   per-system KV precision and the FP8-attention advantage TRT-FP8
//!   enjoys on Hopper.
//! * [`system`] — the seven serving configurations of Table 1
//!   (LiquidServe, LiquidServe/wo, QServe, TRT-FP16/W4A16/W8A8/FP8):
//!   kernel model + KV precision + runtime overheads.
//! * [`decode`] — per-decode-step latency with the paper's three-way
//!   breakdown (GEMM / Attention / Others).
//! * [`request`] — the serving API surface: [`Request`] workloads with
//!   [`Priority`] tiers, [`Completion`] records with a status enum
//!   (`Finished` / `TimedOut` / `Rejected` / `Failed`), [`RunStats`],
//!   the validating [`SchedulerConfig::builder`] with
//!   [`AdmissionPolicy`] (SLO-tiered queue shedding) and
//!   [`PreemptionPolicy`] (priority-KV preemption) knobs.
//! * [`runtime`] — the one serving loop: [`runtime::ServingRuntime`]
//!   (Orca-style iteration-level scheduling, admission against the
//!   paged allocator, batched prefill, iteration-level batched decode,
//!   deadlines, preemption, failure containment) over any
//!   [`runtime::ServingEngine`] — e.g. `lq_engine::TinyLlm` on the
//!   persistent `LiquidGemm` pool, in measured wall-clock time.
//! * [`scheduler`] — the same loop in modelled time:
//!   [`scheduler::ModelledEngine`] prices each prefill and decode call
//!   with [`decode`]'s H800 cost model, and [`run_schedule`] sizes a
//!   runtime to a GPU's KV budget and runs it — request latencies and
//!   sustained throughput for any arrival pattern.
//! * [`throughput`] — the 80 GB memory budget, feasible-batch search,
//!   and peak-throughput scan that regenerates Table 1.
//!
//! With [`lq_telemetry::enable`] on, the scheduler and allocator export
//! decode-step latency/batch-size histograms, admission/OOM counters,
//! and page-occupancy gauges (see the `telemetry` module).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attention;
pub mod decode;
pub mod kvcache;
pub mod request;
pub mod runtime;
pub mod scheduler;
pub mod system;
mod telemetry;
pub mod throughput;

pub use decode::{decode_step, StepBreakdown};
pub use kvcache::{KvCacheError, PagedKvCache};
pub use request::{
    AdmissionPolicy, Completion, CompletionStatus, PreemptionPolicy, Priority, Request, RunStats,
    SchedulerConfig, SchedulerConfigError,
};
pub use runtime::{
    DrainedRun, PromptRequest, ServingConfigError, ServingEngine, ServingRuntime,
    ServingRuntimeBuilder,
};
pub use scheduler::{run_schedule, ModelledEngine};
pub use system::{ServingSystem, SystemId};
pub use throughput::{max_feasible_batch, peak_throughput, PeakResult};
