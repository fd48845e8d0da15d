//! Backend-conformance harness: every entry in the kernel-backend
//! registry must satisfy the shared [`PackedWeights`] contract, and
//! the differential guarantees the backends advertise (`bit_exact` vs
//! the SWAR reference, SQNR-bounded otherwise) must hold on seeded
//! ragged shapes and adversarial inputs.

use lq_quant::backend::{registry, resolve, BackendId, PackedWeights};
use lq_quant::dequant::dequant_group_lqq;
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
/// (per-group dequant × level-1 channel scale).
fn reconstruct(w: &dyn PackedWeights) -> Mat<f32> {
    let (n, k, group) = (w.n(), w.k(), w.group());
    let mut out = Mat::from_fn(n, k, |_, _| 0.0f32);
    let mut buf = vec![0i8; group];
    for r in 0..n {
        let s = w.channel_scales()[r];
        for g in 0..k / group {
            w.dequant_row_group(r, g, &mut buf);
            for (i, &q) in buf.iter().enumerate() {
                out.set(r, g * group + i, f32::from(q) * s);
            }
        }
    }
    out
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

/// `dequant_row_group` — the one dequant entry point, which the serial
/// kernel and every pool job stream through — reproduces the offline
/// quantizer's INT8 reconstruction byte-for-byte on seeded shapes, for
/// every backend that has such an oracle (the codebook backend's
/// reference is its own whole-row `dequantize`, checked below), and
/// `group_words` hands out the words of exactly one group.
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
                BackendId::Lqq | BackendId::Lut => Some(QuantScheme::Lqq),
                BackendId::Qoq => Some(QuantScheme::Qoq),
                BackendId::Codebook => None,
            }
            .map(|scheme| QuantizedLinear::quantize(&wf, 64, scheme, None).dequant_to_i8());
            let words_per_group = p.group_words(0, 0).len();
            let mut got = vec![0i8; 64];
            for j in 0..n {
                for g in 0..k / 64 {
                    assert_eq!(p.group_words(j, g).len(), words_per_group, "{id}");
                    p.dequant_row_group(j, g, &mut got);
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
                PackedWeights::dequant_row_group(&lut, r, g, &mut via_lut);
                PackedWeights::dequant_row_group(&lqq, r, g, &mut via_lqq);
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
                PackedWeights::dequant_row_group(&lut, r, g, &mut a);
                PackedWeights::dequant_row_group(&lqq, r, g, &mut b);
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
        let mut out = [0i8; 16];
        dequant_group_lqq(&words, p, &mut out);
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
