//! # liquidgemm — hardware-efficient W4A8 GEMM (SC'25 reproduction)
//!
//! Rust reproduction of *"LiquidGEMM: Hardware-Efficient W4A8 GEMM
//! Kernel for High-Performance LLM Serving"* (SC 2025). The crate
//! re-exports the full workspace:
//!
//! * [`swar`] — bit-exact emulation of the GPU register ops the
//!   dequantization paths use (IMAD, XOR, PRMT, emulated `vadd4`).
//! * [`quant`] — LiquidQuant: two-level W4 quantization with the
//!   overflow-free IMAD+XOR dequantization, the QoQ baseline,
//!   SmoothQuant calibration, and the kernel-backend registry.
//! * [`layout`] — dual-MMA packed weight layout, the `ldmatrix`
//!   mis-scatter model, bank-conflict accounting.
//! * [`core`] — the kernels: serial and pipelined (flat / ExCP / ImFP)
//!   GEMM over every registered backend — the W4A8 formats and the
//!   W8A8 baseline — all on one strip kernel, driven by a persistent
//!   worker-pool runtime behind the [`core::LiquidGemm`] handle (the
//!   paper's persistent-kernel scheduling, § 5.4).
//! * [`sim`] — A100/H100/H800 hardware model, the paper's cost model
//!   (Eqs. 3–6), per-system kernel latency models, and the warp-group
//!   pipeline simulator.
//! * [`models`] — the eight evaluated model architectures (shapes).
//! * [`serving`] — paged KV cache, attention cost model, the seven
//!   serving-system configurations, decode and throughput simulation,
//!   and the executable continuous-batching runtime with priority
//!   tiers, SLO-aware admission, and KV-pressure preemption.
//! * [`router`] — sharded multi-replica serving: routing policies,
//!   prefill/decode disaggregation, open-loop arrival traces, and
//!   chaos-driven whole-replica failover (see DESIGN.md § 12).
//! * [`engine`] — an executable mini inference engine: RMSNorm, RoPE,
//!   paged INT8-KV streaming attention, SwiGLU, full decoder layers and
//!   greedy decoding, all on the W4A8 kernels.
//! * [`telemetry`] — zero-dependency metrics: relaxed-atomic counters,
//!   gauges, log₂ histograms, RAII spans, and a global registry with
//!   Prometheus-text and JSON exporters (see README § Observability).
//! * [`chaos`] — deterministic, seed-driven fault injection: one
//!   [`chaos::FaultPlan`] schedules worker panics, stalls, denied KV
//!   allocations, and engine panics by event index, so any failing run
//!   replays bit-identically from its seed (see DESIGN.md § 9).
//! * [`trace`] — causal event tracing: runtime-gated per-thread ring
//!   buffers of pool/pipeline/serving/fault events correlated by
//!   request and job IDs, a Chrome trace-event (Perfetto) exporter,
//!   and a critical-path analyzer (see DESIGN.md § 10).
//!
//! ## Quickstart
//!
//! The [`prelude`] re-exports the handle-based API — one import path
//! for the GEMM runtime, the weight types, and the serving runtime:
//!
//! ```
//! use liquidgemm::prelude::*;
//! use liquidgemm::quant::act::QuantizedActivations;
//! use liquidgemm::quant::mat::Mat;
//!
//! // FP32 weights (N=32 output features, K=64 inputs) and activations.
//! let w = Mat::from_fn(32, 64, |r, c| ((r * 64 + c) as f32 * 0.1).sin());
//! let x = Mat::from_fn(4, 64, |r, c| ((r + c) as f32 * 0.2).cos());
//!
//! // Build the persistent GEMM runtime once (it owns a worker pool,
//! // the paper's persistent-kernel scheduling) and pick the dequant
//! // backend — LiquidQuant here; any `BackendId` works on any pipeline.
//! let lg = LiquidGemm::builder().backend(BackendId::Lqq).build().unwrap();
//! // Offline: quantize + pack through the configured backend.
//! let weights = lg.pack_weights(&w, 64);
//! // Online: per-token INT8 activation quantization, then the implicit
//! // fine-grained pipeline.
//! let qa = QuantizedActivations::quantize(&x, None);
//! let out = lg.gemm(&qa.q, &qa.scales, &weights, KernelKind::ImFp);
//! assert_eq!((out.y.rows(), out.y.cols()), (4, 32));
//! ```

#![forbid(unsafe_code)]

pub use lq_chaos as chaos;
pub use lq_core as core;
pub use lq_engine as engine;
pub use lq_layout as layout;
pub use lq_models as models;
pub use lq_quant as quant;
pub use lq_router as router;
pub use lq_serving as serving;
pub use lq_sim as sim;
pub use lq_swar as swar;
pub use lq_telemetry as telemetry;
pub use lq_trace as trace;

pub mod prelude {
    //! The handle-based API in one import: `use liquidgemm::prelude::*;`.
    //!
    //! Covers the four things nearly every program touches — the
    //! persistent GEMM runtime ([`LiquidGemm`] + [`KernelKind`] +
    //! [`W4A8Weights`]), the pluggable backend registry
    //! ([`BackendId`] / [`KernelBackend`] / [`registry`] / [`resolve`]),
    //! the executable model ([`TinyLlm`]), the serving loop and its API
    //! ([`Request`] / [`Completion`] / [`RunStats`] / [`SchedulerConfig`],
    //! [`ServingRuntime`] and its builder, and [`run_schedule`], the same
    //! loop over the cost-model [`ModelledEngine`]), and the
    //! multi-replica router ([`ServingRouter`], [`TraceConfig`]).

    pub use lq_chaos::{FaultAction, FaultInjector, FaultPlan, FaultStats};
    pub use lq_core::{
        GemmOutput, KernelKind, LiquidGemm, LiquidGemmBuilder, ShardConfigError, ShardError,
        ShardedGemm, ShardedGemmBuilder, ShardedWeights, W4A8Weights,
    };
    pub use lq_engine::{ModelSpec, TensorParallelEngine, TinyLlm};
    pub use lq_quant::backend::{
        registry, resolve, BackendCost, BackendId, KernelBackend, PackedWeights,
    };
    pub use lq_router::{
        ArrivalPattern, Disaggregation, ReplicaReport, RouterConfigError, RouterStats,
        RoutingPolicy, ServingRouter, ServingRouterBuilder, TierMix, TraceConfig, TraceConfigError,
    };
    pub use lq_serving::kvcache::SeqId;
    pub use lq_serving::runtime::{
        DrainedRun, EngineError, PromptRequest, ServingConfigError, ServingEngine, ServingRuntime,
        ServingRuntimeBuilder,
    };
    pub use lq_serving::{
        run_schedule, AdmissionPolicy, Completion, CompletionStatus, ModelledEngine, PagedKvCache,
        PreemptionPolicy, Priority, Request, RunStats, SchedulerConfig, SchedulerConfigError,
        ServingSystem, SystemId,
    };
}
