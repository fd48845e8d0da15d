//! # lq-sim — GPU performance model and pipeline simulator
//!
//! The paper's absolute numbers come from an H800; this crate carries
//! everything needed to regenerate their *shape* without one:
//!
//! * [`specs`] — published hardware metrics for A100/H100/H800
//!   (Figure 1's table), calibrated so the paper's derived quantities
//!   (transition batch sizes 150/300/156, α thresholds 5.07/5.05)
//!   reproduce exactly.
//! * [`roofline`] — arithmetic-intensity / attainable-throughput
//!   analysis per precision configuration (Figure 1's roofline).
//! * [`cost_model`] — the paper's Equations 3–6: per-iteration load,
//!   dequant, and MMA times; single-tile and GPU-level execution; the
//!   memory→compute transition points.
//! * [`kernel_model`] — per-system GEMM latency models (LiquidGEMM,
//!   QServe, TRT-W4A16/W8A8/FP8/FP16) with each kernel's dequant α,
//!   address-arithmetic overhead, pipeline overlap, and small-batch
//!   GEMV specialisation; drives Figures 5 and 12.
//! * [`trends`] — hardware-trend projection (Section 3.3's "implication
//!   on LLM serving"): transitions and dequant budgets on scaled GPUs.
//! * [`pipeline_sim`] — a discrete-event simulator of warp-group
//!   pipelines inside one thread block (TMA / CUDA-core / tensor-core
//!   units, stage buffers, synchronisation costs), reproducing the
//!   ExCP-bubbles-vs-ImFP-overlap ablation (Figure 13).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cost_model;
pub mod kernel_model;
pub mod pipeline_sim;
pub mod roofline;
pub mod specs;
pub mod trends;

pub use cost_model::{CostBreakdown, GemmShape, PrecisionCfg};
pub use kernel_model::{KernelModel, SystemKind};
pub use specs::{GpuSpec, A100, H100, H800};
