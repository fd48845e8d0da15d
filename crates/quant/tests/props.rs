//! Randomized property tests for the quantization stack (seeded
//! in-tree PRNG; offline sandbox has no proptest).

use lq_quant::act::quantize_token;
use lq_quant::level1::{quantize_channel, PROTECTIVE_MAX};
use lq_quant::lqq::{LqqGroup, LqqTensor};
use lq_quant::mat::Mat;
use lq_quant::qoq::QoqGroup;
use lq_rng::Rng;
use lq_swar::audit::CountingAlu;
use lq_swar::unpack::pack8_u4;

const CASES: usize = 256;

fn protective_group(rng: &mut Rng, max_len: usize) -> Vec<i8> {
    let len = rng.range_usize(1, max_len);
    (0..len)
        .map(|_| rng.range_i8(-PROTECTIVE_MAX, PROTECTIVE_MAX))
        .collect()
}

fn protective_group8(rng: &mut Rng) -> [i8; 8] {
    std::array::from_fn(|_| rng.range_i8(-PROTECTIVE_MAX, PROTECTIVE_MAX))
}

/// LQQ sweet dequantization equals the scalar reference for every
/// group drawn from the protective range — the paper's Eq. 12.
#[test]
fn lqq_sweet_matches_scalar() {
    let mut rng = Rng::new(0x9A17_0001);
    for _ in 0..CASES {
        let group = protective_group(&mut rng, 64);
        let (p, codes) = LqqGroup::quantize(&group);
        assert!(p.s_u8 >= 1 && p.s_u8 <= 16);
        for &c in &codes {
            assert!(c < 16);
            assert_eq!(p.dequant_sweet(c), p.dequant_scalar(c));
        }
    }
}

/// The packed register path equals the scalar path for all groups of
/// 8, and always costs exactly 7 counted instructions.
#[test]
fn lqq_packed_matches_scalar() {
    let mut rng = Rng::new(0x9A17_0002);
    for _ in 0..CASES {
        let group = protective_group8(&mut rng);
        let (p, codes) = LqqGroup::quantize(&group);
        let packed = pack8_u4([
            codes[0], codes[1], codes[2], codes[3], codes[4], codes[5], codes[6], codes[7],
        ]);
        let mut alu = CountingAlu::new();
        let out = p.dequant8_ordered(&mut alu, packed);
        assert_eq!(alu.count().total(), 7);
        for i in 0..8 {
            assert_eq!(out[i], p.dequant_scalar(codes[i]));
        }
    }
}

/// The overflow-freedom invariant: every intermediate of the sweet
/// path stays within u8 for codes produced by quantization.
#[test]
fn lqq_intermediates_never_overflow() {
    let mut rng = Rng::new(0x9A17_0003);
    for _ in 0..CASES {
        let group = protective_group(&mut rng, 64);
        let (p, codes) = LqqGroup::quantize(&group);
        let a = u16::from(p.offset_a());
        for &c in &codes {
            let prod = u16::from(c) * u16::from(p.s_u8);
            assert!(prod <= 240, "product {prod}");
            assert!(prod + a <= 255, "sum {}", prod + a);
        }
    }
}

/// QoQ packed path equals scalar and costs 19 instructions.
#[test]
fn qoq_packed_matches_scalar() {
    let mut rng = Rng::new(0x9A17_0004);
    for _ in 0..CASES {
        let group = protective_group8(&mut rng);
        let (p, codes) = QoqGroup::quantize(&group);
        let packed = pack8_u4([
            codes[0], codes[1], codes[2], codes[3], codes[4], codes[5], codes[6], codes[7],
        ]);
        let mut alu = CountingAlu::new();
        let out = p.dequant8_ordered(&mut alu, packed);
        assert_eq!(alu.count().total(), 19);
        for i in 0..8 {
            assert_eq!(out[i], p.dequant_scalar(codes[i]));
        }
    }
}

/// LQQ round-trip error is bounded by half the group step (+1 for
/// the clamped top code).
#[test]
fn lqq_roundtrip_error_bound() {
    let mut rng = Rng::new(0x9A17_0005);
    for _ in 0..CASES {
        let group = protective_group(&mut rng, 128);
        let (p, codes) = LqqGroup::quantize(&group);
        for (&orig, &c) in group.iter().zip(codes.iter()) {
            let back = p.dequant_scalar(c);
            let err = (i16::from(back) - i16::from(orig)).abs();
            // Half-step rounding error, except the clamped top code,
            // whose error is bounded by range - 15*s <= 8 (s = round(range/15)).
            let bound = i16::from(p.s_u8 / 2 + 1).max(8);
            assert!(err <= bound, "err {err} step {}", p.s_u8);
        }
    }
}

/// Level-1 quantization keeps all outputs in the protective range
/// and bounds the relative error by half a step.
#[test]
fn level1_protective_and_bounded() {
    let mut rng = Rng::new(0x9A17_0006);
    for _ in 0..CASES {
        let len = rng.range_usize(1, 64);
        let row = rng.vec_f32(len, -1e3, 1e3);
        let mut out = vec![0i8; row.len()];
        let s = quantize_channel(&row, &mut out);
        for (&q, &v) in out.iter().zip(row.iter()) {
            assert!((-PROTECTIVE_MAX..=PROTECTIVE_MAX).contains(&q));
            if s.scale > 0.0 {
                assert!((f32::from(q) * s.scale - v).abs() <= s.scale / 2.0 + 1e-4);
            }
        }
    }
}

/// Activation quantization bounds error by half a step.
#[test]
fn act_quant_bounded() {
    let mut rng = Rng::new(0x9A17_0007);
    for _ in 0..CASES {
        let len = rng.range_usize(1, 64);
        let row = rng.vec_f32(len, -1e2, 1e2);
        let mut out = vec![0i8; row.len()];
        let s = quantize_token(&row, &mut out);
        for (&q, &v) in out.iter().zip(row.iter()) {
            if s > 0.0 {
                assert!((f32::from(q) * s - v).abs() <= s / 2.0 + 1e-4);
            }
        }
    }
}

/// Tensor-level LQQ quantization: dequantized tensor always within
/// group-step error of the level-1 source.
#[test]
fn lqq_tensor_roundtrip() {
    let mut rng = Rng::new(0x9A17_000A);
    for _ in 0..CASES {
        let seed = rng.below(1000);
        let m = Mat::from_fn(4, 64, |r, c| {
            let h = seed
                .wrapping_mul(0x9E3779B97F4A7C15)
                .wrapping_add((r * 64 + c) as u64)
                .wrapping_mul(0xBF58476D1CE4E5B9);
            (((h >> 32) % 239) as i16 - 119) as i8
        });
        let t = LqqTensor::quantize(&m, 64);
        let back = t.dequantize();
        for r in 0..4 {
            for k in 0..64 {
                let err = (i16::from(*back.get(r, k)) - i16::from(*m.get(r, k))).abs();
                assert!(err <= i16::from(t.group_at(r, k).s_u8 / 2 + 1).max(8));
            }
        }
    }
}
