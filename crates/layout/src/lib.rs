//! # lq-layout — weight memory layouts for LiquidGEMM
//!
//! The paper's Section 5.2 argues that for 4-bit weights the *memory
//! layout* decides whether the hardware's wide loads are usable at all:
//!
//! * `ldmatrix` assumes 1-byte elements and **mis-scatters** 4-bit data
//!   across threads;
//! * per-thread `LDS.32` loads waste half their bandwidth and burn CUDA
//!   cores on address arithmetic;
//! * the **dual-MMA packed layout** stores the 32 UINT4 elements a thread
//!   needs for two consecutive MMAs contiguously, so one `LDS.128` per
//!   thread moves everything, with zero bank conflicts and no swizzle.
//!
//! This crate implements all three access disciplines (the broken ones as
//! analysable models, the good one as the real packing used by the CPU
//! kernels), plus a shared-memory bank-conflict model that quantifies the
//! 1-D-vs-2-D layout claim. The `fig07_layout` binary in `lq-bench`
//! prints the three comparisons from these models.
//!
//! * [`pack`] — bit-packing UINT4 values into `u32` words, including the
//!   offline interleave permutation that makes the register-level unpack
//!   produce elements in consumption order.
//! * [`dual_mma`] — the dual-MMA packed layout: per-thread 32-element
//!   segments, fragment ordering, and load-cost accounting versus the
//!   conventional alternatives.
//! * [`ldmatrix`] — a model of `ldmatrix`'s byte-granularity scatter,
//!   demonstrating the mis-delivery the paper describes (Figure 7a).
//! * [`bank`] — shared-memory bank-conflict accounting.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bank;
pub mod dual_mma;
pub mod ldmatrix;
pub mod pack;

pub use dual_mma::{DualMmaWeights, LoadCost};
pub use pack::{pack_interleaved8, pack_row_words, unpack_row_words, INTERLEAVE};
