//! The one fused dequant→MMA strip loop every weight format runs, and
//! the serial kernel built on it.
//!
//! The serial kernel is the ablation's "no pipeline" variant and the
//! correctness anchor for the parallel kernels. `strip_kernel` is the
//! paper's §5.3 main loop — per strip of output channels, per K block:
//! dequantize, then the register-tile MMA against all tokens — and it
//! exists once: [`w4a8_serial`] runs it over the whole matrix on the
//! calling thread, a fused pool tile ([`crate::runtime`]) runs it over
//! its row range of the same shared weights. The *only* difference
//! between two backends is the dequantization they plug in (W8A8's is
//! a copy), making the LQQ-vs-QoQ benchmark a pure algorithm
//! comparison, exactly like the paper's Figure 13 "+LQQ" ablation, and
//! W4A8-vs-W8A8 a pure weight-format one; the only difference between
//! the f32 and the exact-integer result is the `Sink` the sums are
//! handed to.
//!
//! Every kernel is bit-exact against `reference::gemm_i8_ref` on the
//! backend's dequantized weights.

use lq_quant::backend::{PackedWeights, MAX_GROUP};
use lq_quant::mat::Mat;

use crate::epilogue::{assemble_output, ScaleEpilogue, Sink};
use crate::microkernel::{APanels, MicrokernelSet};

/// The shape contract of every GEMM entry point — serial, pool and
/// row-parallel alike. `act_scales` is `None` for calls whose sink
/// applies no activation scale.
pub(crate) fn check_shapes(x: &Mat<i8>, act_scales: Option<&[f32]>, w: &dyn PackedWeights) {
    assert_eq!(x.cols(), w.k(), "K mismatch");
    if let Some(s) = act_scales {
        assert_eq!(s.len(), x.rows(), "one scale per token");
    }
    assert!(w.group() <= MAX_GROUP, "group size exceeds MAX_GROUP");
}

/// The fused dequant→MMA strip loop — the body of the serial kernel
/// and of every fused pool tile (Flat and ImFP). Channels
/// `[j0, j0 + rows)` of `w` are walked a `strip_width()`-row strip at a
/// time; each K block ([`MicrokernelSet::kc_block`] — one group for the
/// scalar family, an L1-sized run of groups for the SIMD ones) is
/// dequantized for the whole strip by **one**
/// [`PackedWeights::dequant_block`] call into a staging buffer that the
/// register-tile microkernel consumes at once, and every finished
/// `(row - j0, token)` dot product goes to `emit` as an exact integer.
/// The packed rows stream sequentially, so the hardware prefetcher
/// needs no hint.
pub(crate) fn strip_kernel(
    mk: MicrokernelSet,
    a: &APanels,
    w: &dyn PackedWeights,
    (j0, rows): (usize, usize),
    mut emit: impl FnMut(usize, usize, i64),
) {
    mk.record_dispatch(a.m());
    let (k, group) = (w.k(), w.group());
    let strip = mk.strip_width();
    let kcb = mk.kc_block(group, k);
    let mut wbuf = vec![0i8; strip * kcb];
    let mut acc = vec![0i32; mk.acc_len(a)];
    for jb in (0..rows).step_by(strip) {
        let nr = strip.min(rows - jb);
        acc.fill(0);
        let mut k0 = 0usize;
        while k0 < k {
            let kc = kcb.min(k - k0);
            if nr < strip {
                // Unused strip rows stay zero at the current row
                // stride: their chains are never read back.
                wbuf.fill(0);
            }
            w.dequant_block(j0 + jb, nr, k0 / group, &mut wbuf[..nr * kc]);
            mk.accumulate(a, k0, kc, &wbuf[..strip * kc], &mut acc);
            k0 += kc;
        }
        for r in 0..nr {
            mk.reduce(a, &acc, r, |tok, s| emit(jb + r, tok, s));
        }
    }
}

/// ExCP's Dequant stage: materialise channels `[j0, j0 + rows)` of `w`
/// as one row-major `rows×k` INT8 tile — the "write the tile back to
/// SMEM" round trip the paper measures ExCP by — for [`dense_kernel`]
/// to consume in the Mma stage. One dequant call for the whole tile.
pub(crate) fn materialize_tile(w: &dyn PackedWeights, j0: usize, rows: usize) -> Vec<i8> {
    let mut tile = vec![0i8; rows * w.k()];
    w.dequant_block(j0, rows, 0, &mut tile);
    tile
}

/// The strip loop over a materialised row-major `rows×k` INT8 tile —
/// the ExCP Mma stage, its only caller. Full strips feed the
/// microkernel in place.
pub(crate) fn dense_kernel(
    mk: MicrokernelSet,
    a: &APanels,
    tile: &[i8],
    (rows, k): (usize, usize),
    mut emit: impl FnMut(usize, usize, i64),
) {
    mk.record_dispatch(a.m());
    let strip = mk.strip_width();
    let mut acc = vec![0i32; mk.acc_len(a)];
    let mut pad = vec![0i8; strip * k];
    for jb in (0..rows).step_by(strip) {
        let nr = strip.min(rows - jb);
        acc.fill(0);
        if nr == strip {
            mk.accumulate(a, 0, k, &tile[jb * k..(jb + strip) * k], &mut acc);
        } else {
            pad[..nr * k].copy_from_slice(&tile[jb * k..(jb + nr) * k]);
            pad[nr * k..].fill(0);
            mk.accumulate(a, 0, k, &pad, &mut acc);
        }
        for r in 0..nr {
            mk.reduce(a, &acc, r, |tok, s| emit(jb + r, tok, s));
        }
    }
}

/// The serial kernel for any output sink: the whole weight matrix as
/// one strip-loop run on the calling thread (a fused pool tile whose
/// row range is everything). Returns the flat `N×M` tile, as the pool
/// driver does.
pub(crate) fn serial_tiles<S: Sink>(
    mk: MicrokernelSet,
    x: &Mat<i8>,
    w: &dyn PackedWeights,
    sink: &S,
) -> Vec<S::Out> {
    check_shapes(x, sink.act_scales(), w);
    let (m, n) = (x.rows(), w.n());
    let a = APanels::pack(x);
    let ch = w.channel_scales();
    let mut out = vec![S::Out::default(); n * m];
    strip_kernel(mk, &a, w, (0, n), |j, i, s| {
        out[j * m + i] = sink.emit(i, ch[j], s);
    });
    out
}

/// Serial kernel over any registered backend, W8A8 included, with the
/// process-wide microkernel family ([`MicrokernelSet::global`]).
///
/// The loop structure, accumulation order, and epilogue are identical
/// for every backend, so two backends that dequantize to the same INT8
/// tile bytes produce bit-identical outputs.
#[must_use]
pub fn w4a8_serial(x: &Mat<i8>, act_scales: &[f32], w: &dyn PackedWeights) -> Mat<f32> {
    w4a8_serial_with(MicrokernelSet::global(), x, act_scales, w)
}

/// Serial kernel over any registered backend, W8A8 included, and an
/// explicit microkernel family (the strip loop with the f32 epilogue as
/// its sink).
#[must_use]
pub fn w4a8_serial_with(
    mk: MicrokernelSet,
    x: &Mat<i8>,
    act_scales: &[f32],
    w: &dyn PackedWeights,
) -> Mat<f32> {
    let y_t = serial_tiles(mk, x, w, &ScaleEpilogue(act_scales.to_vec()));
    assemble_output(y_t, x.rows(), w.n())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packed::{PackedLqqLinear, PackedQoqLinear};
    use crate::reference::{epilogue_ref, gemm_f32_ref, gemm_i8_ref, max_abs_diff};
    use lq_quant::act::QuantizedActivations;
    use lq_quant::weights::{QuantScheme, QuantizedLinear};

    fn fixture(m: usize, n: usize, k: usize) -> (Mat<f32>, Mat<f32>) {
        let x = Mat::from_fn(m, k, |r, c| ((r * k + c) as f32 * 0.13).sin() * 1.5);
        let w = Mat::from_fn(n, k, |r, c| ((r * k + c) as f32 * 0.07).cos() * 0.8);
        (x, w)
    }

    fn quantized_inputs(m: usize, k: usize) -> (Mat<i8>, Vec<f32>) {
        let (x, _) = fixture(m, 8, k);
        let qa = QuantizedActivations::quantize(&x, None);
        (qa.q, qa.scales)
    }

    #[test]
    fn lqq_serial_is_bit_exact_vs_reference() {
        let (m, n, k) = (5, 7, 128);
        let (_, wf) = fixture(m, n, k);
        let (xq, xs) = quantized_inputs(m, k);
        let q = QuantizedLinear::quantize(&wf, 64, QuantScheme::Lqq, None);
        let p = PackedLqqLinear::from_quantized(&q);
        let got = w4a8_serial(&xq, &xs, &p);
        // Oracle: dequantize to i8, integer GEMM, epilogue.
        let w_i8 = q.dequant_to_i8();
        let acc = gemm_i8_ref(&xq, &w_i8);
        let ch: Vec<f32> = q.channel_scales.iter().map(|s| s.scale).collect();
        let want = epilogue_ref(&acc, &xs, &ch);
        assert_eq!(max_abs_diff(&got, &want), 0.0, "must be bit-exact");
    }

    #[test]
    fn qoq_serial_is_bit_exact_vs_reference() {
        let (m, n, k) = (6, 4, 192);
        let (_, wf) = fixture(m, n, k);
        let (xq, xs) = quantized_inputs(m, k);
        let q = QuantizedLinear::quantize(&wf, 64, QuantScheme::Qoq, None);
        let p = PackedQoqLinear::from_quantized(&q);
        let got = w4a8_serial(&xq, &xs, &p);
        let w_i8 = q.dequant_to_i8();
        let acc = gemm_i8_ref(&xq, &w_i8);
        let ch: Vec<f32> = q.channel_scales.iter().map(|s| s.scale).collect();
        let want = epilogue_ref(&acc, &xs, &ch);
        assert_eq!(max_abs_diff(&got, &want), 0.0, "must be bit-exact");
    }

    #[test]
    fn lqq_and_qoq_kernels_land_close_to_fp_output() {
        // The two second-level grids have the same step but different
        // anchors, so outputs differ slightly; both must stay within
        // quantization distance of the FP oracle and of each other.
        let (m, n, k) = (3, 4, 64);
        let (x, wf) = fixture(m, n, k);
        let (xq, xs) = quantized_inputs(m, k);
        let lqq = PackedLqqLinear::quantize(&wf, 64);
        let qoq = PackedQoqLinear::quantize(&wf, 64);
        let a = w4a8_serial(&xq, &xs, &lqq);
        let b = w4a8_serial(&xq, &xs, &qoq);
        let ideal = gemm_f32_ref(&x, &wf);
        let scale_of_outputs = ideal
            .as_slice()
            .iter()
            .fold(0.0f32, |mx, v| mx.max(v.abs()));
        let tol = scale_of_outputs * 0.25;
        assert!(
            max_abs_diff(&a, &ideal) < tol,
            "lqq {}",
            max_abs_diff(&a, &ideal)
        );
        assert!(
            max_abs_diff(&b, &ideal) < tol,
            "qoq {}",
            max_abs_diff(&b, &ideal)
        );
        assert!(max_abs_diff(&a, &b) < tol);
    }

    #[test]
    fn lut_serial_is_bit_exact_vs_lqq_serial() {
        // LUT tables reproduce the SWAR register bytes exactly, so the
        // generic kernel over a LUT-packed linear must match the LQQ
        // path bit-for-bit.
        let (m, n, k) = (5, 7, 128);
        let (_, wf) = fixture(m, n, k);
        let (xq, xs) = quantized_inputs(m, k);
        let lqq = PackedLqqLinear::quantize(&wf, 64);
        let lut = crate::packed::PackedLutLinear::quantize(&wf, 64);
        let a = w4a8_serial(&xq, &xs, &lqq);
        let b = w4a8_serial(&xq, &xs, &lut);
        assert_eq!(max_abs_diff(&a, &b), 0.0, "LUT must match LQQ bit-exactly");
    }

    #[test]
    fn codebook_serial_matches_its_own_dequantized_reference() {
        // Codebook is lossy vs fp32, but the kernel must be bit-exact
        // against an integer GEMM over its own reconstruction.
        let (m, n, k) = (4, 6, 128);
        let (_, wf) = fixture(m, n, k);
        let (xq, xs) = quantized_inputs(m, k);
        let cb = crate::packed::PackedCodebookLinear::quantize(&wf, 64);
        let got = w4a8_serial(&xq, &xs, &cb);
        let mut w_i8 = Mat::zeros(n, k);
        cb.dequant_block(0, n, 0, w_i8.as_mut_slice());
        let acc = gemm_i8_ref(&xq, &w_i8);
        let want = epilogue_ref(&acc, &xs, cb.channel_scales());
        assert_eq!(max_abs_diff(&got, &want), 0.0);
    }

    #[test]
    fn single_token_edge_case() {
        let (m, n, k) = (1, 3, 64);
        let (_, wf) = fixture(m, n, k);
        let (xq, xs) = quantized_inputs(m, k);
        let p = PackedLqqLinear::quantize(&wf, 64);
        let y = w4a8_serial(&xq, &xs, &p);
        assert_eq!((y.rows(), y.cols()), (1, 3));
    }

    /// Every W4A8 entry point — serial, each pool pipeline, and the
    /// row-parallel sharded path — enforces the same shape contract
    /// (`check_shapes`) on the calling thread, before any work is
    /// queued.
    #[test]
    fn shape_mismatch_panics() {
        use crate::api::{KernelKind, W4A8Weights};
        use crate::runtime::LiquidGemm;
        use crate::shard::{ShardedGemm, ShardedWeights};
        use lq_quant::backend::BackendId;
        use std::panic::{catch_unwind, AssertUnwindSafe};

        fn message(run: impl FnOnce()) -> String {
            let err = catch_unwind(AssertUnwindSafe(run)).expect_err("must panic");
            err.downcast_ref::<String>()
                .cloned()
                .or_else(|| err.downcast_ref::<&str>().map(|s| (*s).to_string()))
                .unwrap_or_default()
        }

        let wf = Mat::from_fn(4, 128, |r, c| ((r * 128 + c) as f32 * 0.07).cos());
        let w = W4A8Weights::quantize(&wf, 64, BackendId::Lqq);
        let lg = LiquidGemm::builder().workers(2).build().unwrap();
        let tp = ShardedGemm::builder().shards(2).build().unwrap();
        let sw = ShardedWeights::from_weights(&w, 2);
        let short_k: Mat<i8> = Mat::zeros(2, 64);
        let right_k: Mat<i8> = Mat::zeros(2, 128);
        let two = [1.0f32, 1.0];
        let three = [1.0f32; 3];

        let msg = message(|| drop(w4a8_serial(&short_k, &two, w.as_dyn())));
        assert!(msg.contains("K mismatch"), "w4a8_serial: {msg}");
        let msg = message(|| drop(w4a8_serial(&right_k, &three, w.as_dyn())));
        assert!(msg.contains("one scale per token"), "w4a8_serial: {msg}");
        for kind in [
            KernelKind::Serial,
            KernelKind::FlatParallel,
            KernelKind::ExCp,
            KernelKind::ImFp,
        ] {
            let msg = message(|| drop(lg.gemm(&short_k, &two, &w, kind)));
            assert!(msg.contains("K mismatch"), "{kind:?}: {msg}");
            let msg = message(|| drop(lg.gemm(&right_k, &three, &w, kind)));
            assert!(msg.contains("one scale per token"), "{kind:?}: {msg}");
        }
        let msg = message(|| drop(tp.gemm_row(&short_k, &two, &sw)));
        assert!(msg.contains("K mismatch"), "gemm_row: {msg}");
        let msg = message(|| drop(tp.gemm_row(&right_k, &three, &sw)));
        assert!(msg.contains("one scale per token"), "gemm_row: {msg}");
        // The pools queued nothing for the rejected calls and still work.
        let y = lg.gemm(&right_k, &two, &w, KernelKind::ImFp).y;
        assert_eq!((y.rows(), y.cols()), (2, 4));
    }
}
