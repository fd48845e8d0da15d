//! Explicit-SIMD i8 dot-product kernels — the ISA-specific half of the
//! microkernel dispatch layer (see [`crate::microkernel::MicrokernelSet`]
//! and DESIGN.md §13).
//!
//! Two hand-written variants sit behind runtime feature detection, with
//! the scalar (autovectorized) kernels in [`crate::microkernel`] as both
//! the portable fallback and the bit-exactness oracle:
//!
//! * **AVX2** (`avx2`): 16-lane i8 streams are sign-extended to i16
//!   (`vpmovsxbw`) and reduced with `vpmaddwd` into 8 i32 lanes. This is
//!   exact for every i8×i8 product: a pair sum is bounded by
//!   `2·128·128 = 32768 ≤ i32::MAX`, so no intermediate saturates. The
//!   tempting one-instruction alternative — `vpmaddubsw`
//!   (`_mm256_maddubs_epi16`, u8×i8 with i16 *saturating* pair sums) —
//!   is **not** bit-exact at the extremes: `128·128 + 128·127` saturates
//!   at `i16::MAX`, and the usual `vpsignb` operand-order fix-up
//!   overflows for `w = -128`. We only use the u8×i8 trick where the
//!   hardware accumulates at i32 width (the VNNI path below).
//! * **AVX-512-VNNI** (`avx512vnni`): `vpdpbusd`
//!   (`_mm512_dpbusd_epi32`) multiplies *unsigned* bytes by signed bytes
//!   and accumulates quads directly into i32 lanes — no intermediate
//!   narrowing, so no saturation (unlike `vpdpbusds`). Our activations
//!   are signed, so the operand-order trick becomes a bias: feed
//!   `a ⊕ 0x80` (i.e. `a + 128` as u8) and compensate with
//!   `128·Σw`, where `Σw` comes from a second `vpdpbusd` against an
//!   all-ones byte vector. Both the biased sum and the compensation are
//!   carried per i32 lane and only combined — in i64, so the biased
//!   intermediate can never wrap — at scatter time. Exact for
//!   `K ≤ 2^17`, the same bound the scalar kernel documents.
//!
//! Accumulator chains keep their partial sums *vector-shaped* (8 or 16
//! i32 lanes per chain, stored to the caller's accumulator buffer
//! between calls) and are reduced horizontally exactly once, when a
//! channel is scattered: i32 addition is associative, so any lane
//! split/merge order produces bit-identical results to the scalar
//! left-to-right reduction.
//!
//! This module (and [`crate::affinity`]) are the only places in
//! `lq-core` allowed to use `unsafe`: every kernel is an
//! `#[target_feature]` function reached solely through safe wrappers
//! that check slice bounds and are only constructed after
//! `is_x86_feature_detected!` confirmed the ISA.

#![allow(unsafe_code)]

/// Instruction-set variant of the i8 microkernel family. `Scalar` is
/// always available; the SIMD variants exist only where
/// `is_x86_feature_detected!` confirms the hardware at runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SimdVariant {
    /// Portable autovectorized kernels ([`crate::microkernel::mk_i8_4x4`]
    /// and friends) — fallback and bit-exactness oracle.
    Scalar,
    /// AVX2 sign-extend + `vpmaddwd` (8 i32 lanes per chain).
    Avx2,
    /// AVX-512-VNNI `vpdpbusd` with the `a ⊕ 0x80` bias trick
    /// (16 i32 lanes per chain).
    Vnni,
}

impl SimdVariant {
    /// Stable label used in telemetry (`variant="avx2|vnni|scalar"`)
    /// and bench JSON.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            SimdVariant::Scalar => "scalar",
            SimdVariant::Avx2 => "avx2",
            SimdVariant::Vnni => "vnni",
        }
    }

    /// Parse a [`SimdVariant::label`] back (env overrides, CLIs).
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "scalar" => Some(SimdVariant::Scalar),
            "avx2" => Some(SimdVariant::Avx2),
            "vnni" => Some(SimdVariant::Vnni),
            _ => None,
        }
    }

    /// Does the running CPU support this variant?
    #[must_use]
    pub fn available(self) -> bool {
        match self {
            SimdVariant::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            SimdVariant::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            SimdVariant::Vnni => {
                std::arch::is_x86_feature_detected!("avx512f")
                    && std::arch::is_x86_feature_detected!("avx512bw")
                    && std::arch::is_x86_feature_detected!("avx512vnni")
            }
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }

    /// Every variant the running CPU supports (always includes
    /// `Scalar`) — the property suite iterates this.
    #[must_use]
    pub fn detected() -> Vec<SimdVariant> {
        [SimdVariant::Scalar, SimdVariant::Avx2, SimdVariant::Vnni]
            .into_iter()
            .filter(|v| v.available())
            .collect()
    }

    /// The fastest available variant (VNNI > AVX2 > scalar).
    #[must_use]
    pub fn best_available() -> SimdVariant {
        if SimdVariant::Vnni.available() {
            SimdVariant::Vnni
        } else if SimdVariant::Avx2.available() {
            SimdVariant::Avx2
        } else {
            SimdVariant::Scalar
        }
    }

    /// i32 partial-sum lanes each accumulator chain carries (1 for the
    /// scalar kernels' plain i32).
    #[must_use]
    pub(crate) fn lanes(self) -> usize {
        match self {
            SimdVariant::Scalar => 1,
            SimdVariant::Avx2 => 8,
            SimdVariant::Vnni => 16,
        }
    }
}

/// Best-effort read prefetch of `slice[idx..]` into L1 (`prefetcht0`).
/// Out-of-range indices and non-x86 targets are no-ops — this is a pure
/// hint and never affects results.
#[inline(always)]
pub(crate) fn prefetch_read<T>(slice: &[T], idx: usize) {
    #[cfg(target_arch = "x86_64")]
    if idx < slice.len() {
        // SAFETY: the pointer is in bounds; prefetch reads nothing
        // architecturally and writes nothing.
        unsafe {
            core::arch::x86_64::_mm_prefetch::<{ core::arch::x86_64::_MM_HINT_T0 }>(
                slice.as_ptr().add(idx).cast::<i8>(),
            );
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (slice, idx);
    }
}

// ---------------------------------------------------------------------------
// Safe wrappers. Each checks bounds, asserts the MR it was handed is a
// supported monomorphization, and (in debug) that the ISA was detected.
// On non-x86_64 targets they are unreachable: `SimdVariant::available`
// never admits a SIMD variant there, so the dispatch layer cannot call
// them.
// ---------------------------------------------------------------------------

/// One `MR`-row panel of *biased* (`x ⊕ 0x80`) activation rows against
/// `strip` weight rows over `kc`, adding into per-chain 16-lane i32
/// partials: chain `(nr, r)` occupies `acc[(nr*MR + r)*16..][..16]`.
#[cfg(target_arch = "x86_64")]
pub(crate) fn vnni_panel(a: &[&[u8]], w_block: &[i8], kc: usize, strip: usize, acc: &mut [i32]) {
    debug_assert!(SimdVariant::Vnni.available());
    assert!(a.iter().all(|r| r.len() >= kc));
    assert!(w_block.len() >= strip * kc);
    assert!(acc.len() >= strip * a.len() * 16);
    // SAFETY: bounds checked above; the target features were verified by
    // `SimdVariant::available` before this variant could be selected.
    match *a {
        [r0] => unsafe { panel_vnni::<1>([r0], w_block, kc, strip, acc) },
        [r0, r1, r2, r3] => unsafe { panel_vnni::<4>([r0, r1, r2, r3], w_block, kc, strip, acc) },
        [r0, r1, r2, r3, r4, r5] => unsafe {
            panel_vnni::<6>([r0, r1, r2, r3, r4, r5], w_block, kc, strip, acc)
        },
        _ => unreachable!("unsupported VNNI panel height {}", a.len()),
    }
}

/// Per-weight-row byte sums `Σw` over `[0, kc)`, added into 16-lane i32
/// partials at `acc[nr*16..][..16]` — the compensation term for the
/// VNNI bias trick (`true = biased − 128·Σw`).
#[cfg(target_arch = "x86_64")]
pub(crate) fn vnni_wsum(w_block: &[i8], kc: usize, strip: usize, acc: &mut [i32]) {
    debug_assert!(SimdVariant::Vnni.available());
    assert!(w_block.len() >= strip * kc);
    assert!(acc.len() >= strip * 16);
    // SAFETY: bounds checked above; ISA verified at variant selection.
    unsafe { wsum_vnni(w_block, kc, strip, acc) }
}

/// One `MR`-row panel of i8 activation rows against `strip` weight rows
/// over `kc`, adding into per-chain 8-lane i32 partials: chain `(nr, r)`
/// occupies `acc[(nr*MR + r)*8..][..8]`.
#[cfg(target_arch = "x86_64")]
pub(crate) fn avx2_panel(a: &[&[i8]], w_block: &[i8], kc: usize, strip: usize, acc: &mut [i32]) {
    debug_assert!(SimdVariant::Avx2.available());
    assert!(a.iter().all(|r| r.len() >= kc));
    assert!(w_block.len() >= strip * kc);
    assert!(acc.len() >= strip * a.len() * 8);
    // SAFETY: bounds checked above; ISA verified at variant selection.
    match *a {
        [r0] => unsafe { panel_avx2::<1>([r0], w_block, kc, strip, acc) },
        [r0, r1, r2, r3] => unsafe { panel_avx2::<4>([r0, r1, r2, r3], w_block, kc, strip, acc) },
        [r0, r1, r2, r3, r4, r5] => unsafe {
            panel_avx2::<6>([r0, r1, r2, r3, r4, r5], w_block, kc, strip, acc)
        },
        _ => unreachable!("unsupported AVX2 panel height {}", a.len()),
    }
}

// Non-x86_64 stubs: the dispatch layer can only select SIMD variants
// where `available()` said yes, which is never on these targets.
#[cfg(not(target_arch = "x86_64"))]
mod stubs {
    #![allow(dead_code)]
    pub(crate) fn vnni_panel(_: &[&[u8]], _: &[i8], _: usize, _: usize, _: &mut [i32]) {
        unreachable!("VNNI kernel on a non-x86_64 target")
    }
    pub(crate) fn vnni_wsum(_: &[i8], _: usize, _: usize, _: &mut [i32]) {
        unreachable!("VNNI kernel on a non-x86_64 target")
    }
    pub(crate) fn avx2_panel(_: &[&[i8]], _: &[i8], _: usize, _: usize, _: &mut [i32]) {
        unreachable!("AVX2 kernel on a non-x86_64 target")
    }
}
#[cfg(not(target_arch = "x86_64"))]
pub(crate) use stubs::*;

// ---------------------------------------------------------------------------
// The kernels proper.
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
use core::arch::x86_64::{
    __m128i, __m256i, __mmask64, _mm256_add_epi32, _mm256_cvtepi8_epi16, _mm256_loadu_si256,
    _mm256_madd_epi16, _mm256_setzero_si256, _mm256_storeu_si256, _mm512_add_epi32,
    _mm512_dpbusd_epi32, _mm512_loadu_si512, _mm512_maskz_loadu_epi8, _mm512_set1_epi8,
    _mm512_setzero_si512, _mm512_storeu_si512, _mm_loadu_si128,
};

/// How many K bytes ahead of the current position the panel kernels
/// prefetch the next activation/weight data.
#[cfg(target_arch = "x86_64")]
const PREFETCH_AHEAD: usize = 256;

/// # Safety
/// Caller guarantees avx512f/bw/vnni, `a[r].len() >= kc`,
/// `w_block.len() >= strip*kc`, `acc.len() >= strip*MR*16`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw,avx512vnni")]
unsafe fn panel_vnni<const MR: usize>(
    a: [&[u8]; MR],
    w_block: &[i8],
    kc: usize,
    strip: usize,
    acc: &mut [i32],
) {
    for nr in 0..strip {
        let w_row = w_block.as_ptr().add(nr * kc);
        let mut lanes = [_mm512_setzero_si512(); MR];
        let mut t = 0usize;
        while t + 64 <= kc {
            prefetch_read(w_block, nr * kc + t + PREFETCH_AHEAD);
            let wv = _mm512_loadu_si512(w_row.add(t).cast());
            for r in 0..MR {
                let av = _mm512_loadu_si512(a[r].as_ptr().add(t).cast());
                lanes[r] = _mm512_dpbusd_epi32(lanes[r], av, wv);
            }
            t += 64;
        }
        if t < kc {
            // Masked tail load: lanes beyond `kc` read as 0 and
            // contribute 0 to every quad sum — exact.
            let mask: __mmask64 = (1u64 << (kc - t)) - 1;
            let wv = _mm512_maskz_loadu_epi8(mask, w_row.add(t));
            for r in 0..MR {
                let av = _mm512_maskz_loadu_epi8(mask, a[r].as_ptr().add(t).cast());
                lanes[r] = _mm512_dpbusd_epi32(lanes[r], av, wv);
            }
        }
        for (r, lane) in lanes.iter().enumerate() {
            let dst = acc.as_mut_ptr().add((nr * MR + r) * 16);
            let cur = _mm512_loadu_si512(dst.cast_const().cast());
            _mm512_storeu_si512(dst.cast(), _mm512_add_epi32(cur, *lane));
        }
    }
}

/// # Safety
/// Caller guarantees avx512f/bw/vnni, `w_block.len() >= strip*kc`,
/// `acc.len() >= strip*16`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw,avx512vnni")]
unsafe fn wsum_vnni(w_block: &[i8], kc: usize, strip: usize, acc: &mut [i32]) {
    let ones = _mm512_set1_epi8(1);
    for nr in 0..strip {
        let w_row = w_block.as_ptr().add(nr * kc);
        let mut lane = _mm512_setzero_si512();
        let mut t = 0usize;
        while t + 64 <= kc {
            let wv = _mm512_loadu_si512(w_row.add(t).cast());
            lane = _mm512_dpbusd_epi32(lane, ones, wv);
            t += 64;
        }
        if t < kc {
            let mask: __mmask64 = (1u64 << (kc - t)) - 1;
            let wv = _mm512_maskz_loadu_epi8(mask, w_row.add(t));
            lane = _mm512_dpbusd_epi32(lane, ones, wv);
        }
        let dst = acc.as_mut_ptr().add(nr * 16);
        let cur = _mm512_loadu_si512(dst.cast_const().cast());
        _mm512_storeu_si512(dst.cast(), _mm512_add_epi32(cur, lane));
    }
}

/// Load 16 i8 and sign-extend to 16 i16 lanes.
///
/// # Safety
/// Caller guarantees avx2 and 16 readable bytes at `p`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn load_sx16(p: *const i8) -> __m256i {
    _mm256_cvtepi8_epi16(_mm_loadu_si128(p.cast::<__m128i>()))
}

/// # Safety
/// Caller guarantees avx2, `a[r].len() >= kc`,
/// `w_block.len() >= strip*kc`, `acc.len() >= strip*MR*8`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn panel_avx2<const MR: usize>(
    a: [&[i8]; MR],
    w_block: &[i8],
    kc: usize,
    strip: usize,
    acc: &mut [i32],
) {
    for nr in 0..strip {
        let w_row = w_block.as_ptr().add(nr * kc);
        let mut lanes = [_mm256_setzero_si256(); MR];
        let mut t = 0usize;
        while t + 16 <= kc {
            prefetch_read(w_block, nr * kc + t + PREFETCH_AHEAD);
            // Sign-extend to i16 and vpmaddwd: every pair sum is
            // ≤ 2·128·128 and accumulates at i32 width — exact, unlike
            // vpmaddubsw's saturating i16 pair sums (module docs).
            let wv = load_sx16(w_row.add(t));
            for r in 0..MR {
                let av = load_sx16(a[r].as_ptr().add(t));
                lanes[r] = _mm256_add_epi32(lanes[r], _mm256_madd_epi16(av, wv));
            }
            t += 16;
        }
        if t < kc {
            let rem = kc - t;
            let mut wtail = [0i8; 16];
            wtail[..rem].copy_from_slice(&w_block[nr * kc + t..nr * kc + kc]);
            let wv = load_sx16(wtail.as_ptr());
            for r in 0..MR {
                let mut atail = [0i8; 16];
                atail[..rem].copy_from_slice(&a[r][t..kc]);
                let av = load_sx16(atail.as_ptr());
                lanes[r] = _mm256_add_epi32(lanes[r], _mm256_madd_epi16(av, wv));
            }
        }
        for (r, lane) in lanes.iter().enumerate() {
            let dst = acc.as_mut_ptr().add((nr * MR + r) * 8);
            let cur = _mm256_loadu_si256(dst.cast_const().cast());
            _mm256_storeu_si256(dst.cast(), _mm256_add_epi32(cur, *lane));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_roundtrip() {
        for v in [SimdVariant::Scalar, SimdVariant::Avx2, SimdVariant::Vnni] {
            assert_eq!(SimdVariant::parse(v.label()), Some(v));
        }
        assert_eq!(SimdVariant::parse("neon"), None);
    }

    #[test]
    fn detection_always_includes_scalar_and_respects_ordering() {
        let d = SimdVariant::detected();
        assert!(d.contains(&SimdVariant::Scalar));
        assert!(d.contains(&SimdVariant::best_available()));
        assert!(SimdVariant::best_available().available());
    }

    #[test]
    fn prefetch_is_inert() {
        let v = vec![1u8; 64];
        prefetch_read(&v, 0);
        prefetch_read(&v, 63);
        prefetch_read(&v, 64); // out of range: no-op
        prefetch_read::<u8>(&[], 0);
    }

    #[cfg(target_arch = "x86_64")]
    fn naive_dot(a: &[i8], w: &[i8]) -> i32 {
        a.iter()
            .zip(w)
            .map(|(&x, &y)| i32::from(x) * i32::from(y))
            .sum()
    }

    /// Every kernel, against the naive dot, over ragged kc including
    /// the all-`i8::MIN` extreme — the saturation trap the module docs
    /// describe.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn kernels_match_naive_including_extremes() {
        let mut rng = lq_rng::Rng::new(0x51D_CAFE);
        for kc in [1usize, 7, 15, 16, 17, 63, 64, 65, 130, 256] {
            let strip = 16usize;
            let mut cases: Vec<(Vec<i8>, Vec<i8>)> = Vec::new();
            cases.push((
                rng.vec_i8(6 * kc, -128, 127),
                rng.vec_i8(strip * kc, -128, 127),
            ));
            // All-extreme inputs: -128 everywhere.
            cases.push((vec![-128i8; 6 * kc], vec![-128i8; strip * kc]));
            for (a_rows, w_block) in cases {
                let rows: Vec<&[i8]> = a_rows.chunks(kc).collect();
                let biased: Vec<u8> = a_rows.iter().map(|&v| (v as u8) ^ 0x80).collect();
                let brows: Vec<&[u8]> = biased.chunks(kc).collect();
                let want: Vec<i32> = (0..strip)
                    .flat_map(|nr| {
                        rows.iter()
                            .map(move |r| (nr, r))
                            .map(|(nr, r)| naive_dot(r, &w_block[nr * kc..(nr + 1) * kc]))
                    })
                    .collect();
                if SimdVariant::Avx2.available() {
                    let mut acc = vec![0i32; strip * 6 * 8];
                    avx2_panel(&rows, &w_block, kc, strip, &mut acc);
                    for (ci, &w) in want.iter().enumerate() {
                        let got: i64 = acc[ci * 8..(ci + 1) * 8]
                            .iter()
                            .map(|&v| i64::from(v))
                            .sum();
                        assert_eq!(got, i64::from(w), "avx2 kc={kc} chain={ci}");
                    }
                }
                if SimdVariant::Vnni.available() {
                    let mut acc = vec![0i32; strip * 6 * 16];
                    let mut wsum = vec![0i32; strip * 16];
                    vnni_panel(&brows, &w_block, kc, strip, &mut acc);
                    vnni_wsum(&w_block, kc, strip, &mut wsum);
                    for nr in 0..strip {
                        let ws: i64 = wsum[nr * 16..(nr + 1) * 16]
                            .iter()
                            .map(|&v| i64::from(v))
                            .sum();
                        for r in 0..6 {
                            let ci = nr * 6 + r;
                            let biased_sum: i64 = acc[ci * 16..(ci + 1) * 16]
                                .iter()
                                .map(|&v| i64::from(v))
                                .sum();
                            assert_eq!(
                                biased_sum - 128 * ws,
                                i64::from(want[ci]),
                                "vnni kc={kc} chain={ci}"
                            );
                        }
                    }
                }
            }
        }
    }
}
