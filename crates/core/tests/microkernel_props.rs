//! Randomized property tests for the register-tiled microkernel: the
//! panel-packed `accumulate_strip` + `scatter_channel` path must be
//! bit-identical to the naive triple-loop reference on arbitrary ragged
//! shapes and data (seeded in-tree PRNG; offline sandbox has no
//! proptest).
//!
//! Raw i8 weights are fed straight to the microkernel — no quantizer in
//! the loop — so a mismatch here pins the bug to the tiling itself, not
//! to dequantization (which `props.rs` covers end-to-end).

use lq_core::microkernel::{accumulate_strip, scatter_channel, APanels, NR};
use lq_core::reference::{epilogue_ref, gemm_i8_ref, max_abs_diff};
use lq_core::serial::w4a8_serial_with;
use lq_core::{MicrokernelSet, SimdVariant};
use lq_quant::act::QuantizedActivations;
use lq_quant::backend::registry;
use lq_quant::mat::Mat;
use lq_rng::Rng;

const CASES: usize = 64;

/// Full GEMM + epilogue through the microkernel path, driving K in the
/// chunks listed by `kcuts` (exclusive prefix ends; `k` is implicit as
/// the final cut) so callers can exercise arbitrary `k0`/`kc` splits —
/// the pattern the group-at-a-time dequant loop in `serial.rs` feeds.
fn microkernel_gemm(
    x: &Mat<i8>,
    act: &[f32],
    w: &Mat<i8>,
    ch: &[f32],
    kcuts: &[usize],
) -> Mat<f32> {
    let (m, k, n) = (x.rows(), x.cols(), w.rows());
    let a = APanels::pack(x);
    let mut out = Mat::zeros(m, n);
    let mut col = vec![0.0f32; m];
    let mut wchunk = vec![0i8; NR * k];
    for jb in (0..n).step_by(NR) {
        let nr = NR.min(n - jb);
        let mut acc = vec![0i32; a.acc_len()];
        let mut k0 = 0;
        for &cut in kcuts.iter().chain(std::iter::once(&k)) {
            if cut <= k0 {
                continue;
            }
            let kc = cut - k0;
            // Strip rows beyond `nr` stay zero: computed, never read.
            wchunk[..NR * kc].fill(0);
            for r in 0..nr {
                wchunk[r * kc..(r + 1) * kc].copy_from_slice(&w.row(jb + r)[k0..cut]);
            }
            accumulate_strip(&a, k0, kc, &wchunk[..NR * kc], &mut acc);
            k0 = cut;
        }
        for r in 0..nr {
            scatter_channel(&a, &acc, r, act, ch[jb + r], &mut col);
            for (i, &v) in col.iter().enumerate() {
                out.set(i, jb + r, v);
            }
        }
    }
    out
}

fn oracle(x: &Mat<i8>, act: &[f32], w: &Mat<i8>, ch: &[f32]) -> Mat<f32> {
    epilogue_ref(&gemm_i8_ref(x, w), act, ch)
}

/// Ragged M/N/K with full-range i8 operands and random K split points:
/// every panel/tail/edge combination must match the reference bitwise.
#[test]
fn microkernel_equals_reference_ragged_shapes() {
    let mut rng = Rng::new(0xB1A5_0001);
    for case in 0..CASES {
        // M crosses the MR boundary (panels + tail), N crosses NR, and
        // K is rarely a multiple of the vector widths LLVM picks, so
        // the reduction tails are exercised constantly.
        let m = rng.range_usize(1, 13);
        let n = rng.range_usize(1, 11);
        let k = rng.range_usize(1, 53);
        let x = Mat::from_vec(m, k, rng.vec_i8(m * k, -128, 127));
        let w = Mat::from_vec(n, k, rng.vec_i8(n * k, -128, 127));
        let act = rng.vec_f32(m, 0.001, 1.0);
        let ch = rng.vec_f32(n, 0.001, 0.5);
        // 0–2 random K cuts, unsorted duplicates tolerated by the
        // driver (it skips empty chunks).
        let mut kcuts = vec![rng.range_usize(0, k), rng.range_usize(0, k)];
        kcuts.sort_unstable();
        let got = microkernel_gemm(&x, &act, &w, &ch, &kcuts);
        let want = oracle(&x, &act, &w, &ch);
        assert_eq!(
            max_abs_diff(&got, &want),
            0.0,
            "case {case}: m={m} n={n} k={k} kcuts={kcuts:?}"
        );
    }
}

/// Decode shape M=1 (pure tail, no panels) across small ragged K.
#[test]
fn microkernel_equals_reference_decode_m1() {
    let mut rng = Rng::new(0xB1A5_0002);
    for case in 0..CASES {
        let k = rng.range_usize(1, 80);
        let n = rng.range_usize(1, 9);
        let x = Mat::from_vec(1, k, rng.vec_i8(k, -128, 127));
        let w = Mat::from_vec(n, k, rng.vec_i8(n * k, -128, 127));
        let act = rng.vec_f32(1, 0.001, 1.0);
        let ch = rng.vec_f32(n, 0.001, 0.5);
        let got = microkernel_gemm(&x, &act, &w, &ch, &[]);
        let want = oracle(&x, &act, &w, &ch);
        assert_eq!(max_abs_diff(&got, &want), 0.0, "case {case}: n={n} k={k}");
    }
}

/// Every operand at i8::MIN — the magnitude-maximal products — on a K
/// deliberately off any power-of-two grid, with M covering panel+tail.
#[test]
fn microkernel_survives_all_extreme_inputs() {
    let k = 16 * 16 + 7;
    for m in [1usize, 4, 5, 9] {
        let n = 6;
        let x = Mat::from_vec(m, k, vec![i8::MIN; m * k]);
        let w = Mat::from_vec(n, k, vec![i8::MIN; n * k]);
        let act = vec![0.25f32; m];
        let ch = vec![0.5f32; n];
        let got = microkernel_gemm(&x, &act, &w, &ch, &[k / 3]);
        let want = oracle(&x, &act, &w, &ch);
        assert_eq!(max_abs_diff(&got, &want), 0.0, "m={m}");
    }
}

/// Every microkernel family this CPU supports (the ISA-dispatch layer
/// over the scalar path above). `for_variant` returns `None` for
/// undetected ISAs, so the loop adapts to the host without skipping the
/// scalar baseline anywhere.
fn detected_sets() -> Vec<MicrokernelSet> {
    [SimdVariant::Scalar, SimdVariant::Avx2, SimdVariant::Vnni]
        .into_iter()
        .filter_map(MicrokernelSet::for_variant)
        .collect()
}

/// [`microkernel_gemm`], but through the [`MicrokernelSet`] dispatch
/// layer: strip width, accumulator layout, and kernels all come from
/// the variant under test.
fn mk_gemm(
    mk: MicrokernelSet,
    x: &Mat<i8>,
    act: &[f32],
    w: &Mat<i8>,
    ch: &[f32],
    kcuts: &[usize],
) -> Mat<f32> {
    let (m, k, n) = (x.rows(), x.cols(), w.rows());
    let a = APanels::pack(x);
    let strip = mk.strip_width();
    let mut out = Mat::zeros(m, n);
    let mut col = vec![0.0f32; m];
    let mut wchunk = vec![0i8; strip * k];
    for jb in (0..n).step_by(strip) {
        let nr = strip.min(n - jb);
        let mut acc = vec![0i32; mk.acc_len(&a)];
        let mut k0 = 0;
        for &cut in kcuts.iter().chain(std::iter::once(&k)) {
            if cut <= k0 {
                continue;
            }
            let kc = cut - k0;
            wchunk[..strip * kc].fill(0);
            for r in 0..nr {
                wchunk[r * kc..(r + 1) * kc].copy_from_slice(&w.row(jb + r)[k0..cut]);
            }
            mk.accumulate(&a, k0, kc, &wchunk[..strip * kc], &mut acc);
            k0 = cut;
        }
        for r in 0..nr {
            mk.scatter(&a, &acc, r, act, ch[jb + r], &mut col);
            for (i, &v) in col.iter().enumerate() {
                out.set(i, jb + r, v);
            }
        }
    }
    out
}

/// Every detected ISA variant, ragged M/N/K with random K cuts: all
/// must be bitwise-identical to the naive reference (and so to each
/// other). M spans every adaptive shape (1×16, 4×16, 6×16 + tails).
#[test]
fn every_detected_variant_equals_reference_ragged_shapes() {
    for mk in detected_sets() {
        let mut rng = Rng::new(0xB1A5_0003);
        for case in 0..CASES {
            let m = rng.range_usize(1, 14);
            let n = rng.range_usize(1, 35);
            let k = rng.range_usize(1, 180);
            let x = Mat::from_vec(m, k, rng.vec_i8(m * k, -128, 127));
            let w = Mat::from_vec(n, k, rng.vec_i8(n * k, -128, 127));
            let act = rng.vec_f32(m, 0.001, 1.0);
            let ch = rng.vec_f32(n, 0.001, 0.5);
            let mut kcuts = vec![rng.range_usize(0, k), rng.range_usize(0, k)];
            kcuts.sort_unstable();
            let got = mk_gemm(mk, &x, &act, &w, &ch, &kcuts);
            let want = oracle(&x, &act, &w, &ch);
            assert_eq!(
                max_abs_diff(&got, &want),
                0.0,
                "{} case {case}: m={m} n={n} k={k} kcuts={kcuts:?}",
                mk.variant().label()
            );
        }
    }
}

/// Every detected variant on all-i8::MIN operands — the inputs that
/// overflow any i16-pair (maddubs-style) accumulation scheme. The VNNI
/// bias trick and the AVX2 sign-extension path must both survive.
#[test]
fn every_detected_variant_survives_extreme_inputs() {
    let k = 16 * 64 + 7;
    for mk in detected_sets() {
        for m in [1usize, 4, 5, 6, 7, 13] {
            let n = 19;
            let x = Mat::from_vec(m, k, vec![i8::MIN; m * k]);
            let w = Mat::from_vec(n, k, vec![i8::MIN; n * k]);
            let act = vec![0.25f32; m];
            let ch = vec![0.5f32; n];
            let got = mk_gemm(mk, &x, &act, &w, &ch, &[k / 3, k / 2]);
            let want = oracle(&x, &act, &w, &ch);
            assert_eq!(
                max_abs_diff(&got, &want),
                0.0,
                "{} m={m}",
                mk.variant().label()
            );
        }
    }
}

/// End-to-end differential over the real dequant path: the serial
/// driver under every detected variant, against the scalar variant,
/// for every registered backend (LQQ, QoQ, LUT, codebook, W8A8).
#[test]
fn every_variant_matches_scalar_through_serial_for_all_backends() {
    let (m, n, k) = (5, 23, 256);
    let xf = Mat::from_fn(m, k, |r, c| ((r * k + c) as f32 * 0.013).sin() * 1.4);
    let wf = Mat::from_fn(n, k, |r, c| ((r * k + c) as f32 * 0.007).cos());
    let qa = QuantizedActivations::quantize(&xf, None);
    let scalar = MicrokernelSet::scalar();
    for backend in registry() {
        let packed = backend.pack(&wf, 64);
        let want = w4a8_serial_with(scalar, &qa.q, &qa.scales, packed.as_ref());
        for mk in detected_sets() {
            let got = w4a8_serial_with(mk, &qa.q, &qa.scales, packed.as_ref());
            assert_eq!(
                max_abs_diff(&got, &want),
                0.0,
                "backend {} variant {}",
                backend.id(),
                mk.variant().label()
            );
        }
    }
}
