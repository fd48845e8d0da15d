//! # lq-core — the LiquidGEMM W4A8 kernel library
//!
//! The paper's primary contribution: a W4A8 GEMM whose dequantization is
//! cheap enough (LiquidQuant, 2 register ops / 4 elements) to overlap
//! with weight streaming and MMA, organised as an implicit fine-grained
//! pipeline (ImFP) of one Load warp group feeding multiple Compute warp
//! groups.
//!
//! On this CPU reproduction, warp groups become threads, the Load WG
//! becomes the calling thread publishing the call, SMEM stages have no
//! counterpart (a published call is O(1) state), TMA becomes the cache
//! hierarchy plus a software prefetch one K block ahead (weights are
//! read in place from one shared `Arc`, never staged), and the
//! tensor-core MMA becomes a blocked `i8×i8→i32` microkernel. The
//! *structure* — who dequantizes, where the INT8 intermediate lands,
//! what synchronises with what — matches the paper's Figure 6, which is
//! what the ExCP-vs-ImFP ablation measures.
//!
//! Module map:
//! * [`packed`] — re-exports of the five registered backends' weight
//!   containers (W4A8 LQQ, QoQ, LUT and codebook, and the W8A8
//!   baseline — see [`lq_quant::backend`]). Every kernel entry point
//!   takes `&dyn` [`PackedWeights`], so any registry backend runs on
//!   any pipeline, view and ISA tier.
//! * [`microkernel`] — the raw (uncounted) SWAR dequant paths, the
//!   register-tiled INT8 microkernels behind [`MicrokernelSet`], and
//!   the one lane reduction that hands out exact dot products.
//! * [`simd`] — the explicit AVX2 / AVX-512-VNNI microkernel leaves.
//! * [`reference`](mod@reference) — naive GEMM oracles used by every test.
//! * [`serial`] — the one fused dequant→MMA strip loop every backend
//!   runs, and the serial kernel built on it.
//! * [`epilogue`] — the strip loop's output sinks (fused f32 scale
//!   application, or exact integer sums) and the `(W·Xᵀ)ᵀ` helpers.
//! * [`runtime`] — the persistent worker pool (the paper's §5.4
//!   persistent kernel): a board of published calls whose tiles the
//!   workers claim off a cursor, behind the [`LiquidGemm`] handle:
//!   build once, issue every GEMM through it.
//! * [`pipeline`] — the one tile driver over the pool: a tile is a row
//!   range of the call's shared weights; Flat and ImFP run the fused
//!   strip loop over it, ExCP materialises the INT8 tile first.
//! * [`shard`] — tensor-parallel column/row sharding of one GEMM across
//!   several pools, on the same driver.
//! * [`affinity`] — worker-to-CPU placement.
//! * [`api`] — the shared argument types every call site uses
//!   ([`KernelKind`], [`W4A8Weights`], [`GemmOutput`]).
//!
//! When [`lq_telemetry::enable`] is on, the pipelines export task
//! counters and per-role span histograms (see
//! `telemetry` module docs); disabled, instrumentation is one relaxed
//! load per GEMM call.

// `unsafe` is denied crate-wide and re-allowed in exactly two leaf
// modules: `simd` (explicit `core::arch` microkernels behind runtime
// feature detection) and `affinity` (raw sched_setaffinity syscalls).
// Everything else still cannot use it.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod affinity;
pub mod api;
pub mod epilogue;
pub mod microkernel;
pub mod packed;
pub mod pipeline;
pub mod reference;
pub mod runtime;
pub mod serial;
pub mod shard;
pub mod simd;
mod telemetry;

pub use affinity::PlacementPolicy;
pub use api::{GemmOutput, KernelKind, ParallelConfig, W4A8Weights};
pub use lq_chaos::{FaultAction, FaultInjector, FaultPlan, FaultStats};
pub use lq_quant::backend::{
    registry, resolve, BackendCost, BackendId, KernelBackend, PackedWeights,
};
pub use microkernel::MicrokernelSet;
pub use packed::{
    PackedCodebookLinear, PackedLqqLinear, PackedLutLinear, PackedQoqLinear, W8A8Linear,
};
pub use pipeline::{ConfigError, ParallelConfigBuilder};
pub use runtime::{LiquidGemm, LiquidGemmBuilder, WorkerPool, WorkerStats};
pub use shard::{ShardConfigError, ShardError, ShardedGemm, ShardedGemmBuilder, ShardedWeights};
pub use simd::SimdVariant;
