//! Hot-loop block dequantization — the *uncounted* twins of the
//! audited paths in [`crate::lqq`] / [`crate::qoq`]: same arithmetic,
//! zero bookkeeping, `#[inline(always)]`.
//!
//! A backend's [`crate::backend::PackedWeights::dequant_block`] turns a
//! strip's rows × a run of whole groups into INT8 in one call, and the
//! three nibble backends (LQQ, QoQ, LUT) share one loop for it,
//! `dequant_block_nibbles`: each row's words and parameters are
//! sliced once, each group's parameter is prepared (broadcast) once,
//! and each word's `(lo, hi)` pair is one 8-byte store. That inner loop
//! is the shape LLVM vectorises without intrinsics (`vpmulld` and a
//! `vpermt2d` interleave under AVX-512), so this crate stays
//! `forbid(unsafe_code)`; fixed `lo[8]`/`hi[8]` arrays with a 64-byte
//! store compile to scatters instead.
//!
//! Words are interleave-packed ([`lq_layout::pack::pack_interleaved8`]):
//! the `lo` half of a word carries logical elements `0..4` and the `hi`
//! half elements `4..8`, so outputs land in consumption order with no
//! online shuffle.

use lq_layout::dual_mma::DualMmaWeights;

/// Lane mask selecting the low nibble of every byte.
const NIB: u32 = 0x0F0F_0F0F;
/// MSB-of-every-byte mask (the LQQ XOR constant).
const MSB: u32 = 0x8080_8080;
/// Low-7-bits-of-every-byte mask (carryless subtract).
const LO7: u32 = 0x7F7F_7F7F;

/// LQQ fast dequantization of one packed word (8 elements):
/// unpack + `IMAD` + `XOR`. Returns `(lo, hi)` registers whose bytes are
/// the INT8 bit patterns of elements `0..4` and `4..8` in consumption
/// order (the pack step pre-interleaved them).
#[inline(always)]
#[must_use]
pub fn dequant8_lqq_raw(word: u32, s: u32, a_packed: u32) -> (u32, u32) {
    let lo = ((word & NIB).wrapping_mul(s).wrapping_add(a_packed)) ^ MSB;
    let hi = (((word >> 4) & NIB).wrapping_mul(s).wrapping_add(a_packed)) ^ MSB;
    (lo, hi)
}

/// Carryless byte-wise subtract — the sequence Hopper must emit for the
/// missing `vsub4` (7 ALU ops; see `lq_swar::vadd::vsub4_lowered`).
#[inline(always)]
#[must_use]
fn vsub4_raw(a: u32, b: u32) -> u32 {
    let t = (a | MSB).wrapping_sub(b & LO7);
    t ^ ((a ^ !b) & MSB)
}

/// QoQ baseline dequantization of one packed word: unpack + multiply +
/// emulated byte-wise subtract. Same output convention as
/// [`dequant8_lqq_raw`]; ~2.7× the instruction count.
#[inline(always)]
#[must_use]
pub fn dequant8_qoq_raw(word: u32, s: u32, zs_packed: u32) -> (u32, u32) {
    let lo = vsub4_raw((word & NIB).wrapping_mul(s), zs_packed);
    let hi = vsub4_raw(((word >> 4) & NIB).wrapping_mul(s), zs_packed);
    (lo, hi)
}

/// The block geometry every `dequant_block` shares: `dst` is `rows`
/// rows of `kc = dst_len / rows` elements, a whole number of groups.
/// Returns `(kc, groups)`.
#[inline]
#[must_use]
pub(crate) fn block_shape(dst_len: usize, rows: usize, group: usize) -> (usize, usize) {
    assert!(rows > 0 && dst_len.is_multiple_of(rows), "dst is rows × kc");
    let kc = dst_len / rows;
    assert!(kc.is_multiple_of(group), "kc is whole groups");
    (kc, kc / group)
}

/// Dequantize groups `[g0, g0 + kc/group)` of rows `[j, j + rows)` of
/// `words` into `dst`, row-major with stride `kc = dst.len() / rows`.
/// `params` is the `n × k/group` per-group table; `prep` turns a
/// group's entry into what `word8` needs, once per group, and `word8`
/// turns one word into its `(lo, hi)` registers.
#[inline(always)]
pub(crate) fn dequant_block_nibbles<P: Copy, Q: Copy>(
    (words, params, group): (&DualMmaWeights, &[P], usize),
    (j, rows, g0): (usize, usize, usize),
    dst: &mut [i8],
    prep: impl Fn(P) -> Q,
    word8: impl Fn(u32, Q) -> (u32, u32),
) {
    let (kc, groups) = block_shape(dst.len(), rows, group);
    let gpr = words.k() / group;
    for (row, drow) in (j..).zip(dst.chunks_exact_mut(kc)) {
        let wrow = words.row_kslice(row, g0 * group, g0 * group + kc);
        let prow = &params[row * gpr + g0..row * gpr + g0 + groups];
        for ((gw, &p), gd) in wrow
            .chunks_exact(group / 8)
            .zip(prow)
            .zip(drow.chunks_exact_mut(group))
        {
            let q = prep(p);
            for (&w, d) in gw.iter().zip(gd.as_chunks_mut::<8>().0) {
                let (lo, hi) = word8(w, q);
                *d = (u64::from(lo) | (u64::from(hi) << 32))
                    .to_le_bytes()
                    .map(|b| b as i8);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lqq::LqqGroup;
    use crate::qoq::QoqGroup;
    use lq_layout::pack::pack_interleaved8;

    #[test]
    fn raw_lqq_matches_audited_path() {
        for seed in 0..64u32 {
            let vals: Vec<u8> = (0..8)
                .map(|i| ((seed.wrapping_mul(31) + i * 7) % 16) as u8)
                .collect();
            let p = LqqGroup {
                s_u8: 1 + (seed % 16) as u8,
                min_i8: -119 + (seed % 200) as i8,
            };
            // Skip parameter combos that violate the LQQ invariant
            // (only reachable with adversarial params, not real quantization).
            if vals
                .iter()
                .any(|&v| u16::from(v) * u16::from(p.s_u8) + u16::from(p.offset_a()) > 255)
            {
                continue;
            }
            let word = pack_interleaved8(&vals);
            let s = u32::from(p.s_u8);
            let a = u32::from(p.offset_a()) * 0x0101_0101;
            let (lo, hi) = dequant8_lqq_raw(word, s, a);
            for i in 0..4 {
                assert_eq!(lo.to_le_bytes()[i] as i8, p.dequant_scalar(vals[i]));
                assert_eq!(hi.to_le_bytes()[i] as i8, p.dequant_scalar(vals[4 + i]));
            }
        }
    }

    #[test]
    fn raw_qoq_matches_audited_path() {
        for seed in 0..64u32 {
            let vals: Vec<u8> = (0..8)
                .map(|i| ((seed.wrapping_mul(17) + i * 5) % 16) as u8)
                .collect();
            let p = QoqGroup {
                s_u8: 1 + (seed % 16) as u8,
                z: (seed % 16) as u8,
            };
            let word = pack_interleaved8(&vals);
            let s = u32::from(p.s_u8);
            let zs = u32::from(p.zs()) * 0x0101_0101;
            let (lo, hi) = dequant8_qoq_raw(word, s, zs);
            for i in 0..4 {
                assert_eq!(lo.to_le_bytes()[i] as i8, p.dequant_scalar(vals[i]));
                assert_eq!(hi.to_le_bytes()[i] as i8, p.dequant_scalar(vals[4 + i]));
            }
        }
    }
}
