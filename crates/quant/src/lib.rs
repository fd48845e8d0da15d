//! # lq-quant — LiquidQuant: the W4A8 quantization algorithm
//!
//! Implements the full quantization stack of the LiquidGEMM paper
//! (Section 4 and Section 6):
//!
//! * [`mat`] — minimal row-major matrix container shared by the kernels.
//! * [`level1`] — first-level **per-channel symmetric INT8** quantization
//!   with the *protective quantization range* `[-119, 119]` inherited
//!   from QServe, which is what makes the second-level scale satisfy
//!   `s_u8 ≤ 16`.
//! * [`lqq`] — second-level **LiquidQuant** (LQQ): shift `Q_i8` into the
//!   unsigned domain, per-group quantize to UINT4 (Eq. 7), and the
//!   overflow-free *sweet dequantization* `(Q_u4·s + a) ⊕ 0x80` (Eq. 12)
//!   executed as one `IMAD` + one `XOR` per four elements.
//! * [`qoq`] — the QServe/QoQ baseline second level (zero-point grid,
//!   subtraction-after-multiplication) whose byte-wise subtract must be
//!   emulated (`vsub4` lowering), reproducing the paper's cost gap.
//! * [`smooth`] — SmoothQuant activation-outlier migration with the
//!   OutlierSuppression+-style grid search used for offline calibration.
//! * [`act`] — per-token dynamic INT8 activation quantization.
//! * [`fp8`] / [`fp16`] — E4M3 and IEEE binary16 codecs for the FP8 and
//!   W4A16/FP16 baseline kernels.
//! * [`weights`] — the end-to-end two-level pipeline producing a
//!   [`weights::QuantizedLinear`] ready for the GEMM kernels.
//! * [`metrics`] — quantization-error metrics (MSE, SQNR, max-abs,
//!   cosine) used by the accuracy harness.
//! * [`backend`] — the pluggable kernel-backend layer: the
//!   [`backend::KernelBackend`] / [`backend::PackedWeights`] traits and
//!   the [`backend::BackendId`]-keyed registry every kernel dispatches
//!   through.
//! * [`dequant`] — the uncounted hot-loop SWAR group dequantization the
//!   LQQ/QoQ backends and kernels share.
//! * [`packed`] — dual-MMA-packed weight containers for the LQQ and QoQ
//!   backends.
//! * [`lut`] — the LUT-GEMM-style backend: per-group 16-entry INT8
//!   dequant tables indexed by the 4-bit codes (bit-exact vs LQQ).
//! * [`codebook`] — the CodeGEMM-style backend: a shared codebook of
//!   INT8 sub-vectors indexed by 8-bit codes (SQNR-bounded).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod act;
pub mod backend;
pub mod codebook;
pub mod dequant;
pub mod fp16;
pub mod fp8;
pub mod level1;
pub mod lqq;
pub mod lut;
pub mod mat;
pub mod metrics;
pub mod packed;
pub mod qoq;
pub mod smooth;
pub mod weights;

pub use act::{quantize_token, QuantizedActivations};
pub use backend::{registry, resolve, BackendCost, BackendId, KernelBackend, PackedWeights};
pub use codebook::PackedCodebookLinear;
pub use level1::{quantize_per_channel_i8, ChannelScale, PROTECTIVE_MAX};
pub use lqq::{LqqGroup, LqqTensor};
pub use lut::PackedLutLinear;
pub use mat::Mat;
pub use packed::{PackedLqqLinear, PackedQoqLinear};
pub use qoq::QoqGroup;
pub use weights::{QuantScheme, QuantizedLinear};
