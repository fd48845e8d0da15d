//! Backend-conformance harness: every entry in the kernel-backend
//! registry must satisfy the shared [`PackedWeights`] contract, and
//! the differential guarantees the backends advertise (`bit_exact` vs
//! the SWAR reference, SQNR-bounded otherwise) must hold on seeded
//! ragged shapes and adversarial inputs.

use lq_quant::backend::{registry, resolve, BackendId, PackedWeights};
use lq_quant::dequant::dequant8_lqq_raw;
use lq_quant::level1::quantize_per_channel_i8;
use lq_quant::lqq::LqqGroup;
use lq_quant::lut::group_lut;
use lq_quant::mat::Mat;
use lq_quant::metrics::error_stats;
use lq_quant::packed::PackedLqqLinear;
use lq_quant::weights::{QuantScheme, QuantizedLinear};
use lq_quant::{PackedCodebookLinear, PackedLutLinear};
use lq_rng::Rng;

fn random_weights(rng: &mut Rng, n: usize, k: usize) -> Mat<f32> {
    Mat::from_fn(n, k, |_, _| rng.range_f32(-1.5, 1.5))
}

/// Reconstruct the FP32 matrix a packed representation encodes
/// (whole-matrix block dequant × level-1 channel scale).
fn reconstruct(w: &dyn PackedWeights) -> Mat<f32> {
    let (n, k) = (w.n(), w.k());
    let mut q = vec![0i8; n * k];
    w.dequant_block(0, n, 0, &mut q);
    Mat::from_fn(n, k, |r, c| f32::from(q[r * k + c]) * w.channel_scales()[r])
}

/// The registry is total and self-consistent: one entry per
/// [`BackendId`], labels round-trip through `parse`, and the cost
/// descriptors make physical sense.
#[test]
fn registry_is_total_and_consistent() {
    assert_eq!(registry().len(), BackendId::all().len());
    for (backend, id) in registry().iter().zip(BackendId::all()) {
        assert_eq!(backend.id(), id);
        assert_eq!(resolve(id).id(), id);
        assert_eq!(BackendId::parse(id.label()), Some(id));
        assert_eq!(id.to_string(), id.label());
        assert!(!backend.name().is_empty());
        let c = backend.cost();
        assert!(c.alpha >= 0.0, "{id}: negative dequant cost");
        assert!(c.weight_bytes_per_elem > 0.0, "{id}: free weights");
    }
    assert_eq!(BackendId::parse("nope"), None);
    // The paper's ordering: LQQ dequant is cheaper than the QoQ
    // baseline, and only the codebook backend gives up bit-exactness.
    assert!(resolve(BackendId::Lqq).cost().alpha < resolve(BackendId::Qoq).cost().alpha);
    for id in BackendId::all() {
        assert_eq!(
            resolve(id).cost().bit_exact,
            id != BackendId::Codebook,
            "{id}"
        );
    }
}

/// Every backend's pack answers the shared shape/metadata contract on
/// seeded ragged shapes.
#[test]
fn every_backend_packs_ragged_shapes() {
    let mut rng = Rng::new(0xC0_4F01);
    for round in 0..8 {
        // K constraints are backend-defined; a multiple of 32 with
        // group 32 satisfies all four (codebook needs k % 16 == 0).
        let n = rng.range_usize(1, 33);
        let k = 32 * rng.range_usize(1, 9);
        let wf = random_weights(&mut rng, n, k);
        for backend in registry() {
            let p = backend.pack(&wf, 32);
            let id = backend.id();
            assert_eq!(p.backend(), id, "round {round}");
            assert_eq!((p.n(), p.k(), p.group()), (n, k, 32), "{id} round {round}");
            assert_eq!(p.channel_scales().len(), n, "{id} round {round}");
            assert!(p.weight_bytes() > 0, "{id} round {round}");
            assert!(
                p.channel_scales()
                    .iter()
                    .all(|s| s.is_finite() && *s >= 0.0),
                "{id} round {round}: bad channel scale"
            );
        }
    }
}

/// Every backend rejects a bad group at `pack`, with the one message
/// of `check_group`: a zero group, a group past `MAX_GROUP` that does
/// divide K, and a group that does not divide K.
#[test]
fn every_backend_rejects_a_bad_group_at_pack_with_one_message() {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    for (k, group) in [(64usize, 0usize), (1024, 512), (96, 64)] {
        let wf = Mat::from_fn(2, k, |r, c| ((r * k + c) as f32 * 0.07).cos());
        for backend in registry() {
            let id = backend.id();
            let err = catch_unwind(AssertUnwindSafe(|| drop(backend.pack(&wf, group))))
                .expect_err(&format!("{id}: K = {k}, group {group} must not pack"));
            let msg = err
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| err.downcast_ref::<&str>().map(|s| (*s).to_string()))
                .unwrap_or_default();
            assert!(
                msg.starts_with(&format!("invalid quantization group {group} for K = {k}")),
                "{id}: K = {k}, group {group}: {msg}"
            );
        }
    }
}

/// `dequant_block`'s one-group case — the one dequant entry point,
/// which the serial kernel and every pool job stream through —
/// reproduces the offline quantizer's INT8 reconstruction
/// byte-for-byte on seeded shapes, for every backend that has such an
/// oracle (the codebook backend's reference is its own whole-row
/// `dequantize`, checked below).
#[test]
fn row_dequant_matches_quantizer_oracle_for_every_backend() {
    let mut rng = Rng::new(0xC0_4F02);
    for _ in 0..4 {
        let n = rng.range_usize(3, 24);
        let k = 64 * rng.range_usize(1, 5);
        let wf = random_weights(&mut rng, n, k);
        for backend in registry() {
            let id = backend.id();
            let p = backend.pack(&wf, 64);
            let oracle = match id {
                BackendId::Lqq | BackendId::Lut => {
                    Some(QuantizedLinear::quantize(&wf, 64, QuantScheme::Lqq, None).dequant_to_i8())
                }
                BackendId::Qoq => {
                    Some(QuantizedLinear::quantize(&wf, 64, QuantScheme::Qoq, None).dequant_to_i8())
                }
                BackendId::W8a8 => Some(quantize_per_channel_i8(&wf).q),
                BackendId::Codebook => None,
            };
            let mut got = vec![0i8; 64];
            for j in 0..n {
                for g in 0..k / 64 {
                    p.dequant_block(j, 1, g, &mut got);
                    if let Some(want) = &oracle {
                        let want = &want.row(j)[g * 64..(g + 1) * 64];
                        assert_eq!(got, want, "{id} row {j} group {g}");
                    }
                }
            }
        }
        let cb = PackedCodebookLinear::quantize(&wf, 64);
        assert_eq!(reconstruct(&cb).as_slice(), cb.dequantize().as_slice());
    }
}

/// The block form against the same oracle: for every backend, rows
/// `1..=16` (each count at its own start row), `g0` at the first,
/// second and last group, and every block length from one group to all
/// that remain — at groups of 8 and 32 elements (shorter than the
/// eight-word step), 64 and 128 (one and two steps). The codebook's
/// oracle is its own one-group dequant, itself pinned to `dequantize`
/// above; it packs only groups that are multiples of 16.
#[test]
fn block_dequant_matches_quantizer_oracle_for_every_backend() {
    let mut rng = Rng::new(0xC0_4F06);
    for group in [8usize, 32, 64, 128] {
        let (n, groups) = (19, 5);
        let k = group * groups;
        let wf = random_weights(&mut rng, n, k);
        for backend in registry() {
            let id = backend.id();
            if id == BackendId::Codebook && group % 16 != 0 {
                continue;
            }
            let p = backend.pack(&wf, group);
            let oracle = match id {
                BackendId::Lqq | BackendId::Lut => {
                    QuantizedLinear::quantize(&wf, group, QuantScheme::Lqq, None).dequant_to_i8()
                }
                BackendId::Qoq => {
                    QuantizedLinear::quantize(&wf, group, QuantScheme::Qoq, None).dequant_to_i8()
                }
                BackendId::W8a8 => quantize_per_channel_i8(&wf).q,
                BackendId::Codebook => Mat::from_fn(n, k, |r, c| {
                    let mut one = vec![0i8; group];
                    p.dequant_block(r, 1, c / group, &mut one);
                    one[c % group]
                }),
            };
            for rows in 1..=16 {
                let j = (rows * 7) % (n - rows + 1);
                for g0 in [0, 1, groups - 1] {
                    for ng in 1..=groups - g0 {
                        let kc = ng * group;
                        let mut got = vec![0i8; rows * kc];
                        p.dequant_block(j, rows, g0, &mut got);
                        for (r, row) in got.chunks_exact(kc).enumerate() {
                            let want = &oracle.row(j + r)[g0 * group..g0 * group + kc];
                            assert_eq!(
                                row, want,
                                "{id} group {group} rows {j}+{r} g0 {g0} ng {ng}"
                            );
                        }
                    }
                }
            }
        }
    }
}

/// Differential: the LUT backend is bit-exact against the LQQ SWAR
/// reference on seeded ragged N/K and every group size the packers
/// accept.
#[test]
fn lut_is_bit_exact_vs_swar_on_ragged_shapes() {
    let mut rng = Rng::new(0xC0_4F03);
    for group in [8usize, 16, 32, 64, 128, 256] {
        let n = rng.range_usize(1, 20);
        let k = group * rng.range_usize(1, 5);
        let wf = random_weights(&mut rng, n, k);
        let lut = PackedLutLinear::quantize(&wf, group);
        let lqq = PackedLqqLinear::quantize(&wf, group);
        assert_eq!(
            PackedWeights::channel_scales(&lut),
            PackedWeights::channel_scales(&lqq),
            "group {group}: same level-1 quantizer"
        );
        let mut via_lut = vec![0i8; group];
        let mut via_lqq = vec![0i8; group];
        for r in 0..n {
            for g in 0..k / group {
                PackedWeights::dequant_block(&lut, r, 1, g, &mut via_lut);
                PackedWeights::dequant_block(&lqq, r, 1, g, &mut via_lqq);
                assert_eq!(via_lut, via_lqq, "group {group} row {r} g {g}");
            }
        }
    }
}

/// Adversarial group-boundary patterns: constant rows, full-range
/// steps at group boundaries, and alternating-sign extremes all
/// quantize to the same bytes through the LUT and SWAR paths.
#[test]
fn lut_matches_swar_on_group_boundary_patterns() {
    let (n, k, group) = (6, 128, 32);
    let patterns: [fn(usize, usize) -> f32; 4] = [
        |_, _| 1.0,
        |_, c| if c % 32 == 0 { 1.0 } else { -1.0 },
        |_, c| if c % 32 < 16 { 2.0 } else { -2.0 },
        |r, c| if (r + c) % 2 == 0 { 3.0 } else { -3.0 },
    ];
    for (i, f) in patterns.iter().enumerate() {
        let wf = Mat::from_fn(n, k, f);
        let lut = PackedLutLinear::quantize(&wf, group);
        let lqq = PackedLqqLinear::quantize(&wf, group);
        let mut a = vec![0i8; group];
        let mut b = vec![0i8; group];
        for r in 0..n {
            for g in 0..k / group {
                PackedWeights::dequant_block(&lut, r, 1, g, &mut a);
                PackedWeights::dequant_block(&lqq, r, 1, g, &mut b);
                assert_eq!(a, b, "pattern {i} row {r} group {g}");
            }
        }
    }
}

/// The table agrees with the SWAR registers on every code whose
/// reconstruction stays in u8 (`c·s + a ≤ 255`) — a superset of the
/// codes the quantizer can emit, which are asserted overflow-free (the
/// paper's claim; past that bound the byte-lane `IMAD` would carry
/// into the neighbouring lane, so those codes are never packed). Also
/// pins the edges: code 0 reconstructs the group minimum exactly, and
/// the wrapped byte `i8::MIN` never appears among reachable codes.
#[test]
fn lut_matches_swar_on_every_reachable_code() {
    let mut rng = Rng::new(0xC0_4F04);
    for case in 0..512 {
        // Random groups plus the adversarial extremes: constant at the
        // protective floor/ceiling, and the full-range ±119 step.
        let group: Vec<i8> = match case {
            0 => vec![-119; 32],
            1 => vec![119; 32],
            2 => (0..32)
                .map(|i| if i % 2 == 0 { -119 } else { 119 })
                .collect(),
            _ => (0..32).map(|_| rng.range_i8(-119, 119)).collect(),
        };
        let (p, codes) = LqqGroup::quantize(&group);
        let (s, a) = (u16::from(p.s_u8), u16::from(p.offset_a()));
        for &c in &codes {
            assert!(
                u16::from(c) * s + a <= 255,
                "case {case}: emitted code {c} overflows (s={s}, a={a})"
            );
        }
        let table = group_lut(p);
        assert_eq!(table[0], p.min_i8, "case {case}: code 0 is the min");
        // Two interleave-packed words carrying codes 0..16 in element
        // order: byte b of a word holds element b (low nibble) and
        // element 4+b (high nibble).
        let words = [0x7362_5140u32, 0xFBEA_D9C8u32];
        let (s32, a32) = (u32::from(p.s_u8), u32::from(p.offset_a()) * 0x0101_0101);
        let out: Vec<i8> = words
            .iter()
            .flat_map(|&w| {
                let (lo, hi) = dequant8_lqq_raw(w, s32, a32);
                [lo, hi].map(u32::to_le_bytes)
            })
            .flatten()
            .map(|b| b as i8)
            .collect();
        for (c, &got) in out.iter().enumerate() {
            if c as u16 * s + a <= 255 {
                assert_eq!(got, table[c], "case {case} code {c} (s={s}, a={a})");
                assert_ne!(got, i8::MIN, "case {case}: reachable wrapped byte");
            }
        }
    }
}

/// The codebook backend's contract is SQNR-bounded, not bit-exact:
/// its reconstruction must track the FP32 source within vector-
/// quantization error, and stay strictly lossier than the LQQ grid it
/// starts from.
#[test]
fn codebook_reconstruction_is_sqnr_bounded() {
    let mut rng = Rng::new(0xC0_4F05);
    let (n, k) = (24, 256);
    let wf = random_weights(&mut rng, n, k);
    let cb = resolve(BackendId::Codebook).pack(&wf, 64);
    let lqq = resolve(BackendId::Lqq).pack(&wf, 64);
    let e_cb = error_stats(&wf, &reconstruct(cb.as_ref()));
    let e_lqq = error_stats(&wf, &reconstruct(lqq.as_ref()));
    assert!(e_cb.sqnr_db > 8.0, "codebook SQNR {:.1} dB", e_cb.sqnr_db);
    assert!(e_cb.cosine > 0.9, "codebook cosine {:.4}", e_cb.cosine);
    assert!(
        e_lqq.sqnr_db > e_cb.sqnr_db,
        "vector quantization cannot beat the scalar grid it samples \
         ({:.1} dB vs {:.1} dB)",
        e_lqq.sqnr_db,
        e_cb.sqnr_db
    );
    // And the advertised memory trade is real: 2-bit-effective indices
    // pack smaller than any nibble backend.
    assert!(cb.weight_bytes() < lqq.weight_bytes());
}
