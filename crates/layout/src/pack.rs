//! Bit-packing UINT4 weights into 32-bit words.
//!
//! A `u32` word holds eight 4-bit elements. The register-level unpack
//! ([`lq_swar::unpack::unpack8_u4_to_2xu8x4`]) splits even nibbles into
//! one register and odd nibbles into another, so a *naively* packed word
//! would come out of the ALU in the order `(0,2,4,6),(1,3,5,7)`. The
//! paper's layouts fix this **offline**: weights are pre-permuted at pack
//! time so the post-unpack order is exactly the order the MMA consumes.
//! [`INTERLEAVE`] is that permutation.

use lq_swar::unpack::pack8_u4;

/// Offline interleave: element `i` of the logical order is stored in
/// nibble `INTERLEAVE[i]`, so that after the even/odd unpack the two
/// result registers hold logical elements `0..4` and `4..8` in order.
pub const INTERLEAVE: [usize; 8] = [0, 2, 4, 6, 1, 3, 5, 7];

/// Pack 8 logical elements into one word with the interleave applied.
///
/// After `unpack8_u4_to_2xu8x4`, `lo` holds `vals[0..4]` and `hi` holds
/// `vals[4..8]` — consumption order, no online shuffling.
#[must_use]
pub fn pack_interleaved8(vals: &[u8]) -> u32 {
    assert_eq!(vals.len(), 8, "pack_interleaved8 needs exactly 8 values");
    let mut nibbles = [0u8; 8];
    for (i, &v) in vals.iter().enumerate() {
        debug_assert!(v < 16, "u4 value out of range: {v}");
        nibbles[INTERLEAVE[i]] = v;
    }
    pack8_u4(nibbles)
}

/// Pack a row of UINT4 values (length divisible by 8) into words,
/// interleaved for the register path.
#[must_use]
pub fn pack_row_words(vals: &[u8]) -> Vec<u32> {
    assert_eq!(vals.len() % 8, 0, "row length must be a multiple of 8");
    vals.chunks_exact(8).map(pack_interleaved8).collect()
}

/// Inverse of [`pack_row_words`] (offline verification only).
#[must_use]
pub fn unpack_row_words(words: &[u32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(words.len() * 8);
    for &w in words {
        for &lane in &INTERLEAVE {
            let nib = lane as u32;
            out.push(((w >> (4 * nib)) & 0xF) as u8);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use lq_swar::audit::CountingAlu;
    use lq_swar::unpack::unpack8_u4_to_2xu8x4;

    #[test]
    fn interleave_is_a_permutation() {
        let mut seen = [false; 8];
        for &i in &INTERLEAVE {
            assert!(!seen[i]);
            seen[i] = true;
        }
    }

    #[test]
    fn interleaved_pack_unpacks_in_consumption_order() {
        let vals = [3u8, 1, 4, 1, 5, 9, 2, 6];
        let w = pack_interleaved8(&vals);
        let mut alu = CountingAlu::new();
        let u = unpack8_u4_to_2xu8x4(&mut alu, w);
        assert_eq!(u.lo.to_le_bytes(), [3, 1, 4, 1]);
        assert_eq!(u.hi.to_le_bytes(), [5, 9, 2, 6]);
    }

    #[test]
    fn row_words_roundtrip() {
        let vals: Vec<u8> = (0..64).map(|i| (i * 7 % 16) as u8).collect();
        let words = pack_row_words(&vals);
        assert_eq!(words.len(), 8);
        assert_eq!(unpack_row_words(&words), vals);
    }

    #[test]
    #[should_panic(expected = "multiple of 8")]
    fn odd_length_panics() {
        let _ = pack_row_words(&[1, 2, 3]);
    }
}
