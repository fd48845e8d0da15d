//! Kernel-ready weight containers, re-exported from `lq-quant`.
//!
//! Every container — the four W4A8 backends' ([`PackedLqqLinear`],
//! [`PackedQoqLinear`], [`PackedLutLinear`], [`PackedCodebookLinear`])
//! and the W8A8 baseline's ([`W8A8Linear`]) — lives in `lq-quant` next
//! to its [`lq_quant::backend`] registry entry. Each stores the weights
//! in the exact memory format its kernel streams, plus the scale
//! metadata its epilogue needs, and reports its weight-memory footprint
//! for the serving simulator's memory accounting.

pub use lq_quant::codebook::PackedCodebookLinear;
pub use lq_quant::lut::PackedLutLinear;
pub use lq_quant::packed::{PackedLqqLinear, PackedQoqLinear, W8A8Linear};
