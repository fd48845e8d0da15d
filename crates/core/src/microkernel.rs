//! Hot-loop primitives: raw SWAR dequantization, the register-tiled
//! INT8 microkernel family, and the [`MicrokernelSet`] ISA dispatch
//! layer.
//!
//! The dequant halves are the *uncounted* twins of the audited paths in
//! `lq-quant` — same arithmetic, zero bookkeeping, `#[inline(always)]`.
//! The MMA half is a BLIS-style MR×NR register-tile microkernel family:
//! the activation block is staged into [`APanels`] (row-major `MR`-row
//! panels plus the `m % MR` tail) and the per-panel kernels run each of
//! the tile's accumulator chains as a full-`kc` reduction over
//! *contiguous* operand streams.
//!
//! Two kernel generations coexist behind [`MicrokernelSet`]
//! (DESIGN.md §13):
//!
//! * **Scalar** — [`mk_i8_4x4`] / [`mk_i8_1x4`], plain indexed loops in
//!   the one shape LLVM's loop vectoriser turns into widening-multiply
//!   SIMD reductions without intrinsics. These stay as the portable
//!   fallback *and* the bit-exactness oracle for the SIMD variants. A
//!   K-major interleaved A-panel packing with fixed 16-wide chunked
//!   unrolling measured 2–5× slower than this contiguous form: the
//!   strided lane access defeats the vectoriser's reduction pattern and
//!   the per-chunk horizontal sums dominate.
//! * **Explicit SIMD** — [`crate::simd`]'s AVX2 and AVX-512-VNNI
//!   kernels, runtime feature-detected once ([`MicrokernelSet::global`])
//!   and selected per-job with wider, M-adaptive register shapes
//!   (1×16 decode, 4×16/6×16 prefill). Their accumulator chains carry
//!   8/16 i32 partial lanes that are only reduced at scatter time.
//!
//! Bit-exact equivalence with the audited implementations and with
//! `reference.rs` is asserted by tests here and property tests in
//! `tests/` (every detected variant differentially against scalar).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use lq_quant::mat::Mat;

use crate::simd::{self, SimdVariant};

// The SWAR dequant primitives moved to `lq_quant::dequant` with the
// kernel-backend redesign (the algorithm is a property of the packed
// weights now); re-exported here so kernel code and downstream crates
// keep their import paths.
pub use lq_quant::dequant::{dequant8_lqq_raw, dequant8_qoq_raw};

/// INT8 dot product with i32 accumulation — the CPU stand-in for the
/// tensor-core INT8 MMA. Written as a plain indexed loop so LLVM emits
/// widening-multiply SIMD.
#[inline]
#[must_use]
pub fn dot_i8(a: &[i8], b: &[i8]) -> i32 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = 0i32;
    for (&x, &y) in a.iter().zip(b.iter()) {
        acc += i32::from(x) * i32::from(y);
    }
    acc
}

/// Token rows per register-tile panel (the microkernel's M dimension).
pub const MR: usize = 4;
/// Output channels per register tile (the microkernel's N dimension).
pub const NR: usize = 4;
/// Activation block staged for the register-tiled microkernel: an owned
/// row-major copy viewed as `m / MR` panels of `MR` consecutive token
/// rows plus `m % MR` tail rows for the 1×NR edge kernel. Rows stay
/// contiguous — the microkernel's accumulator chains each reduce over a
/// contiguous stream, the shape LLVM vectorises (see the module doc for
/// the measured K-major counterexample). Staging cost is one pass over
/// the block — the same copy the pre-tiling kernels paid to clone the
/// activation matrix into the worker-pool call context.
#[derive(Debug, Clone)]
pub struct APanels {
    m: usize,
    k: usize,
    rows: Vec<i8>,
    /// The same rows biased to u8 (`x ⊕ 0x80`, i.e. `x + 128`): the
    /// operand form `vpdpbusd` consumes (see [`crate::simd`]'s bias
    /// trick). Built unconditionally in [`APanels::pack`] — one extra
    /// linear pass, fused with the staging copy's cache walk.
    biased: Vec<u8>,
}

impl APanels {
    /// Stage a row-major `m×k` INT8 activation matrix, plus the biased
    /// (`⊕ 0x80`) copy the VNNI kernels consume. The staging walk
    /// software-prefetches ahead of the copy cursor.
    #[must_use]
    pub fn pack(x: &Mat<i8>) -> Self {
        let src = x.as_slice();
        let mut biased = Vec::with_capacity(src.len());
        for (ci, chunk) in src.chunks(64).enumerate() {
            simd::prefetch_read(src, ci * 64 + 512);
            biased.extend(chunk.iter().map(|&v| (v as u8) ^ 0x80));
        }
        APanels {
            m: x.rows(),
            k: x.cols(),
            rows: src.to_vec(),
            biased,
        }
    }

    /// Token count.
    #[must_use]
    pub fn m(&self) -> usize {
        self.m
    }

    /// Reduction length.
    #[must_use]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of complete MR-row panels.
    #[must_use]
    pub fn panel_count(&self) -> usize {
        self.m / MR
    }

    /// Number of tail tokens not covered by a full panel.
    #[must_use]
    pub fn tail_count(&self) -> usize {
        self.m % MR
    }

    /// K-range `[k0, k1)` of token row `i` (contiguous, row-major).
    #[must_use]
    pub fn row_kslice(&self, i: usize, k0: usize, k1: usize) -> &[i8] {
        &self.rows[i * self.k + k0..i * self.k + k1]
    }

    /// K-range `[k0, k1)` of the *biased* (`⊕ 0x80`) copy of row `i` —
    /// the u8 operand stream for the VNNI kernels.
    #[must_use]
    pub fn row_kslice_biased(&self, i: usize, k0: usize, k1: usize) -> &[u8] {
        &self.biased[i * self.k + k0..i * self.k + k1]
    }

    /// Accumulator length for one NR-channel strip over every token:
    /// an `MR×NR` block per panel plus an `NR` block per tail token.
    #[must_use]
    pub fn acc_len(&self) -> usize {
        self.panel_count() * MR * NR + self.tail_count() * NR
    }
}

/// The MR×NR register-tile microkernel: `MR` contiguous activation row
/// slices against `NR` row-major weight rows (`w_block`, stride `kc`),
/// accumulating into `acc[nr * MR + mr]`. This is the CPU stand-in for
/// the tensor-core INT8 MMA tile: 16 live i32 accumulator chains, each
/// weight byte load shared across MR token chains and each activation
/// load shared across NR channel chains. Every chain reduces over two
/// contiguous streams for the whole `kc`, so LLVM vectorises each
/// channel's four chains as widening-multiply SIMD reductions with a
/// single horizontal sum at the end (no fixed-width chunking — see the
/// module doc for why the chunked K-major form loses).
#[inline]
pub fn mk_i8_4x4(a: [&[i8]; MR], w_block: &[i8], kc: usize, acc: &mut [i32; MR * NR]) {
    debug_assert!(a.iter().all(|r| r.len() == kc));
    debug_assert_eq!(w_block.len(), kc * NR);
    let (a0, a1, a2, a3) = (a[0], a[1], a[2], a[3]);
    for nr in 0..NR {
        let wv = &w_block[nr * kc..(nr + 1) * kc];
        let (mut s0, mut s1, mut s2, mut s3) = (0i32, 0i32, 0i32, 0i32);
        for t in 0..kc {
            let w = i32::from(wv[t]);
            s0 += w * i32::from(a0[t]);
            s1 += w * i32::from(a1[t]);
            s2 += w * i32::from(a2[t]);
            s3 += w * i32::from(a3[t]);
        }
        acc[nr * MR] += s0;
        acc[nr * MR + 1] += s1;
        acc[nr * MR + 2] += s2;
        acc[nr * MR + 3] += s3;
    }
}

/// 1×NR edge kernel for tail tokens and M=1 decode: one contiguous
/// activation row against `NR` weight rows, each activation load shared
/// across NR accumulator chains (`acc[nr]`), each chain a full-`kc`
/// contiguous reduction.
#[inline]
pub fn mk_i8_1x4(a_row: &[i8], w_block: &[i8], kc: usize, acc: &mut [i32; NR]) {
    debug_assert_eq!(a_row.len(), kc);
    debug_assert_eq!(w_block.len(), kc * NR);
    let (w0, w1, w2) = (
        &w_block[..kc],
        &w_block[kc..2 * kc],
        &w_block[2 * kc..3 * kc],
    );
    let w3 = &w_block[3 * kc..4 * kc];
    let (mut s0, mut s1, mut s2, mut s3) = (0i32, 0i32, 0i32, 0i32);
    for t in 0..kc {
        let a = i32::from(a_row[t]);
        s0 += a * i32::from(w0[t]);
        s1 += a * i32::from(w1[t]);
        s2 += a * i32::from(w2[t]);
        s3 += a * i32::from(w3[t]);
    }
    acc[0] += s0;
    acc[1] += s1;
    acc[2] += s2;
    acc[3] += s3;
}

/// Accumulate one dequantized weight strip (`NR` rows × `kc` columns,
/// row-major, covering K range `[k0, k0+kc)`) against *every* token of
/// `a`. `acc` is laid out panel-first — panel `p` owns
/// `acc[p*MR*NR + nr*MR + mr]`, then tail token `t` owns
/// `acc[panel_count*MR*NR + t*NR + nr]` — total [`APanels::acc_len`].
#[inline]
pub fn accumulate_strip(a: &APanels, k0: usize, kc: usize, w_block: &[i8], acc: &mut [i32]) {
    debug_assert_eq!(w_block.len(), NR * kc);
    debug_assert_eq!(acc.len(), a.acc_len());
    for p in 0..a.panel_count() {
        let rows = [
            a.row_kslice(p * MR, k0, k0 + kc),
            a.row_kslice(p * MR + 1, k0, k0 + kc),
            a.row_kslice(p * MR + 2, k0, k0 + kc),
            a.row_kslice(p * MR + 3, k0, k0 + kc),
        ];
        let tile: &mut [i32; MR * NR] = (&mut acc[p * MR * NR..(p + 1) * MR * NR])
            .try_into()
            .expect("panel acc tile");
        mk_i8_4x4(rows, w_block, kc, tile);
    }
    let base = a.panel_count() * MR * NR;
    for t in 0..a.tail_count() {
        let ar = a.row_kslice(a.panel_count() * MR + t, k0, k0 + kc);
        let tile: &mut [i32; NR] = (&mut acc[base + t * NR..base + (t + 1) * NR])
            .try_into()
            .expect("tail acc tile");
        mk_i8_1x4(ar, w_block, kc, tile);
    }
}

/// Scatter channel lane `nr` of a scalar-family strip accumulator (laid
/// out as in [`accumulate_strip`]) into a length-`m` output row:
/// [`MicrokernelSet::scatter`] for [`MicrokernelSet::scalar`].
#[inline]
pub fn scatter_channel(a: &APanels, acc: &[i32], nr: usize, act: &[f32], ch: f32, out: &mut [f32]) {
    MicrokernelSet::scalar().scatter(a, acc, nr, act, ch, out);
}

// ===========================================================================
// MicrokernelSet — the ISA dispatch layer (DESIGN.md §13).
// ===========================================================================

/// Width of a SIMD weight strip (output channels staged and reduced
/// together by the AVX2/VNNI kernels). The scalar kernels keep
/// [`NR`]` = 4`.
pub const SIMD_STRIP: usize = 16;

/// Register-tile shape [`MicrokernelSet::shape`] selects for a given
/// token count `m`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StripShape {
    /// Activation rows per full panel (tail rows run the 1-row kernel).
    pub mr: usize,
    /// Weight rows (output channels) per strip.
    pub strip: usize,
    /// i32 partial-sum lanes each accumulator chain carries (1 for the
    /// scalar kernels).
    pub lanes: usize,
    /// Stable `MRxNR` label for telemetry and bench JSON.
    pub label: &'static str,
}

/// One resolved microkernel family: a [`SimdVariant`] plus the strip
/// geometry, accumulator layout, and kernels that go with it. `Copy`
/// and two words wide — call sites thread it by value.
///
/// The process-wide selection happens once in [`MicrokernelSet::global`]
/// (honouring `LQ_FORCE_SCALAR`); per-pool overrides go through
/// `LiquidGemm::builder().force_microkernel(..)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MicrokernelSet {
    variant: SimdVariant,
}

impl Default for MicrokernelSet {
    fn default() -> Self {
        MicrokernelSet::global()
    }
}

impl MicrokernelSet {
    /// The always-available scalar family — fallback and oracle.
    #[must_use]
    pub const fn scalar() -> Self {
        MicrokernelSet {
            variant: SimdVariant::Scalar,
        }
    }

    /// The process-wide selection: the best runtime-detected variant,
    /// resolved once, unless `LQ_FORCE_SCALAR` is set (non-empty,
    /// not `"0"`), which forces the scalar family.
    #[must_use]
    pub fn global() -> Self {
        static GLOBAL: OnceLock<MicrokernelSet> = OnceLock::new();
        *GLOBAL.get_or_init(|| {
            let forced =
                std::env::var_os("LQ_FORCE_SCALAR").is_some_and(|v| !v.is_empty() && v != "0");
            if forced {
                MicrokernelSet::scalar()
            } else {
                MicrokernelSet {
                    variant: SimdVariant::best_available(),
                }
            }
        })
    }

    /// The family for a specific variant, if the running CPU supports
    /// it (differential suites iterate [`SimdVariant::detected`]).
    #[must_use]
    pub fn for_variant(variant: SimdVariant) -> Option<Self> {
        variant.available().then_some(MicrokernelSet { variant })
    }

    /// Which ISA family this set dispatches to.
    #[must_use]
    pub fn variant(self) -> SimdVariant {
        self.variant
    }

    /// Output channels per weight strip ([`NR`] scalar, [`SIMD_STRIP`]
    /// otherwise). Drivers step `n` by this and size `wbuf` with it.
    #[must_use]
    pub fn strip_width(self) -> usize {
        match self.variant {
            SimdVariant::Scalar => NR,
            _ => SIMD_STRIP,
        }
    }

    /// K-block the drivers dequantize per [`MicrokernelSet::accumulate`]
    /// call: the scalar family keeps one quant group (status quo); the
    /// SIMD families stage ~512 bytes per weight row (rounded up to a
    /// whole number of groups, capped at `k`) so the staged strip stays
    /// L1-resident while the per-chain lane-partial update traffic is
    /// amortized over many dot-product instructions.
    #[must_use]
    pub fn kc_block(self, group: usize, k: usize) -> usize {
        match self.variant {
            SimdVariant::Scalar => group,
            _ => (512usize.div_ceil(group) * group).min(k),
        }
    }

    /// The M-adaptive register-tile shape for a job with `m` token
    /// rows: decode (`m == 1`) runs 1×16, small prefill 4×16, large
    /// prefill 6×16; the scalar family keeps its fixed 4×4/1×4 pair.
    #[must_use]
    pub fn shape(self, m: usize) -> StripShape {
        let lanes = self.variant.lanes();
        match self.variant {
            SimdVariant::Scalar => StripShape {
                mr: MR,
                strip: NR,
                lanes,
                label: if m >= MR { "4x4" } else { "1x4" },
            },
            _ if m == 1 => StripShape {
                mr: 1,
                strip: SIMD_STRIP,
                lanes,
                label: "1x16",
            },
            _ if m <= 5 => StripShape {
                mr: 4,
                strip: SIMD_STRIP,
                lanes,
                label: "4x16",
            },
            _ => StripShape {
                mr: 6,
                strip: SIMD_STRIP,
                lanes,
                label: "6x16",
            },
        }
    }

    /// Accumulator length (in i32) for one strip over every token of
    /// `a`: per-token chains of [`StripShape::lanes`] partials, plus —
    /// VNNI only — a per-channel `Σw` compensation region at the end.
    #[must_use]
    pub fn acc_len(self, a: &APanels) -> usize {
        match self.variant {
            SimdVariant::Scalar => a.acc_len(),
            _ => {
                let sh = self.shape(a.m());
                let chains = a.m() * sh.strip;
                let wsum = if self.variant == SimdVariant::Vnni {
                    sh.strip * sh.lanes
                } else {
                    0
                };
                chains * sh.lanes + wsum
            }
        }
    }

    /// Accumulate one dequantized weight strip (`strip_width()` rows ×
    /// `kc` columns, row-major, covering K range `[k0, k0+kc)`) against
    /// every token of `a`, into an accumulator laid out per
    /// [`MicrokernelSet::acc_len`]. Callable any number of times with
    /// disjoint K ranges; reduce with [`MicrokernelSet::scatter`].
    pub fn accumulate(self, a: &APanels, k0: usize, kc: usize, w_block: &[i8], acc: &mut [i32]) {
        if self.variant == SimdVariant::Scalar {
            accumulate_strip(a, k0, kc, w_block, acc);
            return;
        }
        let sh = self.shape(a.m());
        let (mr, strip, lanes) = (sh.mr, sh.strip, sh.lanes);
        debug_assert_eq!(w_block.len(), strip * kc);
        debug_assert_eq!(acc.len(), self.acc_len(a));
        let panels = a.m() / mr;
        let tail = a.m() % mr;
        let chains = a.m() * strip;
        match self.variant {
            SimdVariant::Scalar => unreachable!(),
            SimdVariant::Vnni => {
                let (body, wsum) = acc.split_at_mut(chains * lanes);
                simd::vnni_wsum(w_block, kc, strip, wsum);
                for p in 0..panels {
                    let base = p * strip * mr * lanes;
                    let r = |j: usize| a.row_kslice_biased(p * mr + j, k0, k0 + kc);
                    match mr {
                        1 => simd::vnni_panel(&[r(0)], w_block, kc, strip, &mut body[base..]),
                        4 => simd::vnni_panel(
                            &[r(0), r(1), r(2), r(3)],
                            w_block,
                            kc,
                            strip,
                            &mut body[base..],
                        ),
                        6 => simd::vnni_panel(
                            &[r(0), r(1), r(2), r(3), r(4), r(5)],
                            w_block,
                            kc,
                            strip,
                            &mut body[base..],
                        ),
                        _ => unreachable!("unsupported MR {mr}"),
                    }
                }
                for t in 0..tail {
                    let base = (panels * strip * mr + t * strip) * lanes;
                    let row = a.row_kslice_biased(panels * mr + t, k0, k0 + kc);
                    simd::vnni_panel(&[row], w_block, kc, strip, &mut body[base..]);
                }
            }
            SimdVariant::Avx2 => {
                for p in 0..panels {
                    let base = p * strip * mr * lanes;
                    let r = |j: usize| a.row_kslice(p * mr + j, k0, k0 + kc);
                    match mr {
                        1 => simd::avx2_panel(&[r(0)], w_block, kc, strip, &mut acc[base..]),
                        4 => simd::avx2_panel(
                            &[r(0), r(1), r(2), r(3)],
                            w_block,
                            kc,
                            strip,
                            &mut acc[base..],
                        ),
                        6 => simd::avx2_panel(
                            &[r(0), r(1), r(2), r(3), r(4), r(5)],
                            w_block,
                            kc,
                            strip,
                            &mut acc[base..],
                        ),
                        _ => unreachable!("unsupported MR {mr}"),
                    }
                }
                for t in 0..tail {
                    let base = (panels * strip * mr + t * strip) * lanes;
                    let row = a.row_kslice(panels * mr + t, k0, k0 + kc);
                    simd::avx2_panel(&[row], w_block, kc, strip, &mut acc[base..]);
                }
            }
        }
    }

    /// Reduce channel lane `nr` of a strip accumulator to one exact
    /// integer dot product per token and hand each `(token, sum)` to
    /// `emit` — the only place the per-chain lane partials are
    /// horizontally summed and the VNNI `128·Σw` bias compensation is
    /// applied. What `emit` does with the sum is the caller's output
    /// sink: the f32 epilogue ([`MicrokernelSet::scatter`]) or an exact
    /// store (row-parallel sharding's all-reduce operand).
    ///
    /// The reduction runs in i64, so the VNNI biased intermediates can
    /// never wrap before the compensation is applied. The true sums fit
    /// i32 for `K ≤ 2^17` (the same bound the scalar kernels document),
    /// making the i64→f32 conversion bit-identical to a scalar
    /// i32→f32. The scalar family is the `lanes == 1` case of the same
    /// chain layout (see [`accumulate_strip`]).
    #[inline]
    pub fn reduce(self, a: &APanels, acc: &[i32], nr: usize, mut emit: impl FnMut(usize, i64)) {
        let sh = self.shape(a.m());
        let (mr, strip, lanes) = (sh.mr, sh.strip, sh.lanes);
        debug_assert_eq!(acc.len(), self.acc_len(a));
        let panels = a.m() / mr;
        let chains = a.m() * strip;
        let lane_sum = |chain: usize| -> i64 {
            acc[chain * lanes..(chain + 1) * lanes]
                .iter()
                .map(|&v| i64::from(v))
                .sum()
        };
        let wsum = if self.variant == SimdVariant::Vnni {
            lane_sum(chains + nr)
        } else {
            0
        };
        for tok in 0..a.m() {
            let chain = if tok < panels * mr {
                (tok / mr) * strip * mr + nr * mr + tok % mr
            } else {
                panels * strip * mr + (tok - panels * mr) * strip + nr
            };
            let s = lane_sum(chain) - 128 * wsum;
            debug_assert!(
                i32::try_from(s).is_ok(),
                "i8 GEMM accumulator exceeded i32 (K > 2^17?)"
            );
            emit(tok, s);
        }
    }

    /// Scatter channel lane `nr` of a strip accumulator into a
    /// length-`m` output row, applying per-token activation scales and
    /// the channel scale in the `(acc · act) · ch` order of
    /// `reference::epilogue_ref` — [`MicrokernelSet::reduce`] with the
    /// f32 epilogue as its sink.
    pub fn scatter(
        self,
        a: &APanels,
        acc: &[i32],
        nr: usize,
        act: &[f32],
        ch: f32,
        out: &mut [f32],
    ) {
        debug_assert_eq!(act.len(), a.m());
        debug_assert_eq!(out.len(), a.m());
        self.reduce(a, acc, nr, |tok, s| out[tok] = s as f32 * act[tok] * ch);
    }

    /// Bump the per-variant/per-shape dispatch counter (one count per
    /// kernel invocation at the driver level: one serial call or one
    /// pool job), mirrored into the
    /// `lq_core_mk_dispatch_total{variant,shape}` telemetry counter
    /// when recording is enabled.
    pub fn record_dispatch(self, m: usize) {
        let sh = self.shape(m);
        let vi = variant_index(self.variant);
        let si = SHAPE_LABELS
            .iter()
            .position(|&s| s == sh.label)
            .expect("known shape label");
        DISPATCH[vi][si].fetch_add(1, Ordering::Relaxed);
        if lq_telemetry::enabled() {
            lq_telemetry::registry()
                .counter_with(
                    "lq_core_mk_dispatch_total",
                    &[("variant", self.variant.label()), ("shape", sh.label)],
                )
                .inc();
        }
    }
}

/// Every register-tile shape label the dispatcher can select.
const SHAPE_LABELS: [&str; 5] = ["1x4", "4x4", "1x16", "4x16", "6x16"];

/// Process-lifetime dispatch counters, always on (relaxed atomics) so
/// tests and the ledger can audit which kernels actually ran even
/// with telemetry disabled. Indexed `[variant][shape]`.
static DISPATCH: [[AtomicU64; 5]; 3] = [const { [const { AtomicU64::new(0) }; 5] }; 3];

fn variant_index(v: SimdVariant) -> usize {
    match v {
        SimdVariant::Scalar => 0,
        SimdVariant::Avx2 => 1,
        SimdVariant::Vnni => 2,
    }
}

/// Snapshot of the non-zero `(variant, shape, count)` dispatch counters
/// since process start — the ISA dispatch test in
/// `tests/runtime_stress.rs` reads this.
#[must_use]
pub fn dispatch_counts() -> Vec<(&'static str, &'static str, u64)> {
    let variants = [SimdVariant::Scalar, SimdVariant::Avx2, SimdVariant::Vnni];
    let mut out = Vec::new();
    for v in variants {
        for (si, &label) in SHAPE_LABELS.iter().enumerate() {
            let n = DISPATCH[variant_index(v)][si].load(Ordering::Relaxed);
            if n > 0 {
                out.push((v.label(), label, n));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_products_match_naive() {
        let a: Vec<i8> = (0..127).map(|i| (i % 23 - 11) as i8).collect();
        let b: Vec<i8> = (0..127).map(|i| (i % 17 - 8) as i8).collect();
        let want: i32 = a
            .iter()
            .zip(b.iter())
            .map(|(&x, &y)| i32::from(x) * i32::from(y))
            .sum();
        assert_eq!(dot_i8(&a, &b), want);
    }

    fn naive_tile(x: &Mat<i8>, w: &[Vec<i8>]) -> Vec<i32> {
        let mut out = vec![0i32; x.rows() * w.len()];
        for i in 0..x.rows() {
            for (j, wj) in w.iter().enumerate() {
                out[i * w.len() + j] = dot_i8(x.row(i), wj);
            }
        }
        out
    }

    #[test]
    fn accumulate_strip_matches_naive_across_shapes() {
        let mut rng = lq_rng::Rng::new(0xA11E5);
        for &(m, kc) in &[
            (1usize, 7usize),
            (3, 16),
            (4, 16),
            (5, 31),
            (8, 48),
            (9, 1),
            (13, 130),
        ] {
            let x = Mat::from_vec(m, kc, rng.vec_i8(m * kc, -128, 127));
            let a = APanels::pack(&x);
            let w: Vec<Vec<i8>> = (0..NR).map(|_| rng.vec_i8(kc, -128, 127)).collect();
            let w_block: Vec<i8> = w.iter().flatten().copied().collect();
            let mut acc = vec![0i32; a.acc_len()];
            accumulate_strip(&a, 0, kc, &w_block, &mut acc);
            let want = naive_tile(&x, &w);
            for p in 0..a.panel_count() {
                for mr in 0..MR {
                    for nr in 0..NR {
                        assert_eq!(
                            acc[p * MR * NR + nr * MR + mr],
                            want[(p * MR + mr) * NR + nr],
                            "m={m} kc={kc} p={p} mr={mr} nr={nr}"
                        );
                    }
                }
            }
            let base = a.panel_count() * MR * NR;
            for t in 0..a.tail_count() {
                for nr in 0..NR {
                    assert_eq!(
                        acc[base + t * NR + nr],
                        want[(a.panel_count() * MR + t) * NR + nr],
                        "m={m} kc={kc} tail t={t} nr={nr}"
                    );
                }
            }
        }
    }

    #[test]
    fn accumulate_strip_splits_k_exactly() {
        let mut rng = lq_rng::Rng::new(0x5EED);
        let (m, k) = (6, 100);
        let x = Mat::from_vec(m, k, rng.vec_i8(m * k, -128, 127));
        let a = APanels::pack(&x);
        let w: Vec<Vec<i8>> = (0..NR).map(|_| rng.vec_i8(k, -128, 127)).collect();
        let mut whole = vec![0i32; a.acc_len()];
        let w_block: Vec<i8> = w.iter().flatten().copied().collect();
        accumulate_strip(&a, 0, k, &w_block, &mut whole);
        // Same reduction split at an unaligned K boundary.
        let mut split = vec![0i32; a.acc_len()];
        let cut = 37;
        let head: Vec<i8> = w.iter().flat_map(|r| r[..cut].iter().copied()).collect();
        let tail: Vec<i8> = w.iter().flat_map(|r| r[cut..].iter().copied()).collect();
        accumulate_strip(&a, 0, cut, &head, &mut split);
        accumulate_strip(&a, cut, k - cut, &tail, &mut split);
        assert_eq!(whole, split);
    }

    #[test]
    fn microkernel_survives_extreme_inputs() {
        // K=8192 of (-128 × -128) stays within i32 per accumulator lane.
        let k = 8192;
        let x = Mat::from_vec(MR + 1, k, vec![-128i8; (MR + 1) * k]);
        let a = APanels::pack(&x);
        let w_block = vec![-128i8; NR * k];
        let mut acc = vec![0i32; a.acc_len()];
        accumulate_strip(&a, 0, k, &w_block, &mut acc);
        for &v in &acc {
            assert_eq!(v, (k as i32) * 16384);
        }
    }

    #[test]
    fn scatter_channel_applies_scales_per_token() {
        let mut rng = lq_rng::Rng::new(0xCAFE);
        let (m, k) = (7, 24);
        let x = Mat::from_vec(m, k, rng.vec_i8(m * k, -128, 127));
        let a = APanels::pack(&x);
        let w: Vec<Vec<i8>> = (0..NR).map(|_| rng.vec_i8(k, -128, 127)).collect();
        let w_block: Vec<i8> = w.iter().flatten().copied().collect();
        let mut acc = vec![0i32; a.acc_len()];
        accumulate_strip(&a, 0, k, &w_block, &mut acc);
        let act: Vec<f32> = (0..m).map(|i| 0.5 + i as f32 * 0.25).collect();
        for (nr, wj) in w.iter().enumerate() {
            let ch = 0.125 * (nr as f32 + 1.0);
            let mut out = vec![0.0f32; m];
            scatter_channel(&a, &acc, nr, &act, ch, &mut out);
            for i in 0..m {
                assert_eq!(out[i], dot_i8(x.row(i), wj) as f32 * act[i] * ch);
            }
        }
    }

    #[test]
    fn dot_i8_handles_extremes_without_overflow() {
        // 8192 × (-128 × -128) = 2^27 < i32::MAX: safe for K ≤ 2^17.
        let a = vec![-128i8; 8192];
        let b = vec![-128i8; 8192];
        assert_eq!(dot_i8(&a, &b), 8192 * 16384);
    }

    /// Every detected variant, end-to-end through
    /// accumulate → scatter, bit-exact vs the naive i32 oracle — over
    /// ragged M (exercising every MR and the tails), ragged K
    /// (exercising masked/copied SIMD tails), and a split-K
    /// accumulation at an unaligned cut.
    #[test]
    fn microkernel_set_variants_are_bit_exact_vs_oracle() {
        let mut rng = lq_rng::Rng::new(0xD15BA7C4);
        for v in SimdVariant::detected() {
            let mk = MicrokernelSet::for_variant(v).expect("detected implies available");
            for &(m, k) in &[
                (1usize, 64usize),
                (2, 96),
                (4, 130),
                (5, 7),
                (6, 192),
                (7, 33),
                (13, 257),
            ] {
                let strip = mk.strip_width();
                let x = Mat::from_vec(m, k, rng.vec_i8(m * k, -128, 127));
                let a = APanels::pack(&x);
                let w_rows: Vec<Vec<i8>> = (0..strip).map(|_| rng.vec_i8(k, -128, 127)).collect();
                let mut acc = vec![0i32; mk.acc_len(&a)];
                // Split the reduction at an arbitrary unaligned cut.
                let cut = (k / 3).max(1).min(k - 1);
                let cut = if k > 1 { cut } else { 0 };
                let head: Vec<i8> = w_rows
                    .iter()
                    .flat_map(|r| r[..cut].iter().copied())
                    .collect();
                let tail: Vec<i8> = w_rows
                    .iter()
                    .flat_map(|r| r[cut..].iter().copied())
                    .collect();
                if cut > 0 {
                    mk.accumulate(&a, 0, cut, &head, &mut acc);
                }
                mk.accumulate(&a, cut, k - cut, &tail, &mut acc);
                let act: Vec<f32> = (0..m).map(|i| 0.25 + i as f32 * 0.5).collect();
                for (nr, wj) in w_rows.iter().enumerate() {
                    let ch = 0.0625 * (nr as f32 + 1.0);
                    let mut out = vec![0.0f32; m];
                    mk.scatter(&a, &acc, nr, &act, ch, &mut out);
                    for i in 0..m {
                        let want = dot_i8(x.row(i), wj) as f32 * act[i] * ch;
                        assert_eq!(
                            out[i].to_bits(),
                            want.to_bits(),
                            "{} m={m} k={k} nr={nr} tok={i}",
                            v.label()
                        );
                    }
                }
            }
        }
    }

    /// `reduce` must hand out exactly the integer sum `scatter` applies
    /// its epilogue to: for every detected variant,
    /// `sum as f32 * act * ch` reproduces `scatter`'s output
    /// bit-for-bit, and `sum` equals the naive i64 dot product.
    #[test]
    fn reduce_hands_out_the_exact_pre_epilogue_sum() {
        let mut rng = lq_rng::Rng::new(0x5A44_0A11);
        for v in SimdVariant::detected() {
            let mk = MicrokernelSet::for_variant(v).expect("detected implies available");
            for &(m, k) in &[(1usize, 64usize), (5, 7), (7, 130), (13, 257)] {
                let strip = mk.strip_width();
                let x = Mat::from_vec(m, k, rng.vec_i8(m * k, -128, 127));
                let a = APanels::pack(&x);
                let w_rows: Vec<Vec<i8>> = (0..strip).map(|_| rng.vec_i8(k, -128, 127)).collect();
                let w_block: Vec<i8> = w_rows.iter().flatten().copied().collect();
                let mut acc = vec![0i32; mk.acc_len(&a)];
                mk.accumulate(&a, 0, k, &w_block, &mut acc);
                let act: Vec<f32> = (0..m).map(|i| 0.25 + i as f32 * 0.5).collect();
                for (nr, wj) in w_rows.iter().enumerate() {
                    let ch = 0.0625 * (nr as f32 + 1.0);
                    let mut out = vec![0.0f32; m];
                    mk.scatter(&a, &acc, nr, &act, ch, &mut out);
                    let mut raw = vec![0i64; m];
                    mk.reduce(&a, &acc, nr, |tok, s| raw[tok] = s);
                    for i in 0..m {
                        assert_eq!(
                            raw[i],
                            i64::from(dot_i8(x.row(i), wj)),
                            "{} m={m} k={k} nr={nr} tok={i}: raw sum",
                            v.label()
                        );
                        assert_eq!(
                            out[i].to_bits(),
                            (raw[i] as f32 * act[i] * ch).to_bits(),
                            "{} m={m} k={k} nr={nr} tok={i}: epilogue replay",
                            v.label()
                        );
                    }
                }
            }
        }
    }

    /// The extreme-input case (`all -128`, the saturation trap for
    /// maddubs-style kernels) through every detected variant.
    #[test]
    fn microkernel_set_survives_extreme_inputs() {
        for v in SimdVariant::detected() {
            let mk = MicrokernelSet::for_variant(v).unwrap();
            let k = 8192;
            let m = 7;
            let strip = mk.strip_width();
            let x = Mat::from_vec(m, k, vec![-128i8; m * k]);
            let a = APanels::pack(&x);
            let w_block = vec![-128i8; strip * k];
            let mut acc = vec![0i32; mk.acc_len(&a)];
            mk.accumulate(&a, 0, k, &w_block, &mut acc);
            let act = vec![1.0f32; m];
            let mut out = vec![0.0f32; m];
            for nr in 0..strip {
                mk.scatter(&a, &acc, nr, &act, 1.0, &mut out);
                for &o in &out {
                    assert_eq!(o, (k as f32) * 16384.0, "{}", v.label());
                }
            }
        }
    }

    #[test]
    fn shapes_and_layout_sizes_are_consistent() {
        for v in SimdVariant::detected() {
            let mk = MicrokernelSet::for_variant(v).unwrap();
            for m in 1..20usize {
                let sh = mk.shape(m);
                assert_eq!(sh.strip, mk.strip_width());
                assert!(SHAPE_LABELS.contains(&sh.label));
                let x = Mat::from_vec(m, 8, vec![1i8; m * 8]);
                let a = APanels::pack(&x);
                // Chains cover every token exactly once.
                if v != SimdVariant::Scalar {
                    let wsum = if v == SimdVariant::Vnni {
                        sh.strip * sh.lanes
                    } else {
                        0
                    };
                    assert_eq!(mk.acc_len(&a), m * sh.strip * sh.lanes + wsum);
                }
            }
            // kc_block is a whole number of groups and ≥ one group.
            for &(g, k) in &[(32usize, 2048usize), (64, 2048), (128, 256), (256, 256)] {
                let kcb = mk.kc_block(g, k);
                assert_eq!(kcb % g, 0, "{} g={g}", v.label());
                assert!(kcb >= g && kcb <= k);
            }
        }
    }

    #[test]
    fn dispatch_counters_record_per_shape() {
        let mk = MicrokernelSet::scalar();
        let before: u64 = dispatch_counts()
            .iter()
            .filter(|(v, s, _)| *v == "scalar" && *s == "1x4")
            .map(|&(_, _, n)| n)
            .sum();
        mk.record_dispatch(1);
        mk.record_dispatch(2);
        let after: u64 = dispatch_counts()
            .iter()
            .filter(|(v, s, _)| *v == "scalar" && *s == "1x4")
            .map(|&(_, _, n)| n)
            .sum();
        assert_eq!(after, before + 2);
    }

    #[test]
    fn biased_rows_mirror_signed_rows() {
        let mut rng = lq_rng::Rng::new(0xB1A5);
        let x = Mat::from_vec(3, 70, rng.vec_i8(210, -128, 127));
        let a = APanels::pack(&x);
        for i in 0..3 {
            let s = a.row_kslice(i, 5, 70);
            let b = a.row_kslice_biased(i, 5, 70);
            for (x, y) in s.iter().zip(b) {
                assert_eq!(i32::from(*y), i32::from(*x) + 128);
            }
        }
    }
}
