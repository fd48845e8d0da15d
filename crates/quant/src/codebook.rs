//! CodeGEMM-style codebook-centric W4A8 backend: weights are sliced
//! into length-[`CB_DIM`] sub-vectors, each replaced by an 8-bit index
//! into a shared 256-entry codebook of INT8 sub-vectors trained at
//! quantization time (deterministic k-means over the level-1 INT8
//! weights).
//!
//! The kernel-time representation is radically different from the
//! nibble backends: one `u32` word carries **four indices = 16
//! elements** (vs 8 elements for the UINT4 packings), so the effective
//! weight rate is 2 bits/element plus a 1 KiB codebook shared by the
//! whole matrix. Dequantization is a pure gather — each index expands
//! to four INT8 values by one codebook row copy, no arithmetic at all.
//!
//! Unlike the other backends this one is **not bit-exact** against the
//! SWAR reference: vector quantization is lossy beyond the level-1
//! grid, so its contract is SQNR-bounded output (see the quant-error
//! smoke tests and the `bit_exact: false` flag in its
//! [`BackendCost`]). Everything downstream — pipelines, pool,
//! serving — still works unchanged because accumulation stays exact
//! INT8×INT8→i32 over the *reconstructed* weights; only the
//! reconstruction itself approximates.

use std::sync::Arc;

use crate::backend::{BackendCost, BackendId, KernelBackend, PackedWeights};
use crate::level1::{quantize_per_channel_i8, PROTECTIVE_MAX};
use crate::mat::Mat;

/// Sub-vector length: each codebook entry covers 4 consecutive
/// K-elements of one row.
pub const CB_DIM: usize = 4;
/// Codebook entries (one u8 index each).
pub const CB_SIZE: usize = 256;
/// Elements one packed `u32` word reconstructs (4 indices × [`CB_DIM`]).
pub const CB_ELEMS_PER_WORD: usize = 16;

/// K-means training caps: sample at most this many sub-vectors
/// (strided, deterministic) and run a fixed iteration count, so pack
/// time stays bounded and bit-reproducible on any matrix size.
const KMEANS_SAMPLES: usize = 2048;
const KMEANS_ITERS: usize = 8;

/// Squared L2 distance between a sub-vector and a codebook entry.
#[inline]
fn dist2(v: &[i8], c: &[i8]) -> i32 {
    let mut d = 0i32;
    for i in 0..CB_DIM {
        let e = i32::from(v[i]) - i32::from(c[i]);
        d += e * e;
    }
    d
}

/// Index of the nearest codebook entry (ties break to the lowest
/// index — assignment is fully deterministic).
#[inline]
fn nearest(v: &[i8], codebook: &[i8]) -> u8 {
    let mut best = 0usize;
    let mut best_d = i32::MAX;
    for c in 0..CB_SIZE {
        let d = dist2(v, &codebook[c * CB_DIM..(c + 1) * CB_DIM]);
        if d < best_d {
            best_d = d;
            best = c;
        }
    }
    best as u8
}

/// Deterministic k-means over INT8 sub-vectors: strided sample cap,
/// strided initial centroids, fixed iterations, centroids rounded back
/// to the protective INT8 range. Returns the flattened
/// `CB_SIZE × CB_DIM` codebook.
fn train_codebook(subvectors: &[i8]) -> Vec<i8> {
    let total = subvectors.len() / CB_DIM;
    assert!(total > 0, "cannot train a codebook on an empty matrix");
    let stride = (total / KMEANS_SAMPLES).max(1);
    let samples: Vec<usize> = (0..total).step_by(stride).collect();
    // Strided init across the sample set (wraps if samples < CB_SIZE).
    let mut codebook = vec![0i8; CB_SIZE * CB_DIM];
    for c in 0..CB_SIZE {
        let s = samples[(c * samples.len()) / CB_SIZE];
        codebook[c * CB_DIM..(c + 1) * CB_DIM]
            .copy_from_slice(&subvectors[s * CB_DIM..(s + 1) * CB_DIM]);
    }
    let mut sums = vec![0i64; CB_SIZE * CB_DIM];
    let mut counts = vec![0u32; CB_SIZE];
    for _ in 0..KMEANS_ITERS {
        sums.fill(0);
        counts.fill(0);
        for &s in &samples {
            let v = &subvectors[s * CB_DIM..(s + 1) * CB_DIM];
            let c = nearest(v, &codebook) as usize;
            counts[c] += 1;
            for i in 0..CB_DIM {
                sums[c * CB_DIM + i] += i64::from(v[i]);
            }
        }
        for c in 0..CB_SIZE {
            if counts[c] == 0 {
                continue; // empty cluster keeps its old centroid
            }
            for i in 0..CB_DIM {
                let mean = sums[c * CB_DIM + i] as f64 / f64::from(counts[c]);
                codebook[c * CB_DIM + i] = (mean.round() as i32)
                    .clamp(i32::from(-PROTECTIVE_MAX), i32::from(PROTECTIVE_MAX))
                    as i8;
            }
        }
    }
    codebook
}

/// Expand packed index words through the codebook: byte `b` of a word
/// (little-endian) indexes the entry reconstructing elements
/// `b·CB_DIM .. (b+1)·CB_DIM` of that word's 16-element span.
#[inline]
fn dequant_words_codebook(words: &[u32], codebook: &[i8], out: &mut [i8]) {
    debug_assert_eq!(words.len() * CB_ELEMS_PER_WORD, out.len());
    for (w, chunk) in words.iter().zip(out.chunks_exact_mut(CB_ELEMS_PER_WORD)) {
        for b in 0..4 {
            let idx = ((w >> (8 * b)) & 0xFF) as usize;
            chunk[b * CB_DIM..(b + 1) * CB_DIM]
                .copy_from_slice(&codebook[idx * CB_DIM..(idx + 1) * CB_DIM]);
        }
    }
}

/// Codebook-quantized W4A8 weights: per-channel level-1 scales, a
/// matrix-global codebook, and one index word per 16 elements.
#[derive(Debug, Clone)]
pub struct PackedCodebookLinear {
    /// Output channels.
    pub n: usize,
    /// Reduction dim (multiple of 16).
    pub k: usize,
    /// Group size along K (multiple of 16; scale-free here, kept so
    /// kernels tile identically across backends).
    pub group: usize,
    /// Index words, `n × k/16` row-major, four u8 indices per word.
    words: Vec<u32>,
    /// Matrix-global `CB_SIZE × CB_DIM` codebook.
    codebook: Vec<i8>,
    /// Level-1 per-channel scales (length `n`).
    pub channel_scales: Vec<f32>,
}

impl PackedCodebookLinear {
    /// Words per row of the index stream.
    #[must_use]
    pub fn words_per_row(&self) -> usize {
        self.k / CB_ELEMS_PER_WORD
    }

    /// The shared codebook (flattened `CB_SIZE × CB_DIM`).
    #[must_use]
    pub fn codebook(&self) -> &[i8] {
        &self.codebook
    }

    /// Quantize FP weights: level-1 per-channel INT8, then vector
    /// quantization of every length-[`CB_DIM`] sub-vector against a
    /// freshly trained codebook.
    #[must_use]
    pub fn quantize(w: &Mat<f32>, group: usize) -> Self {
        let (n, k) = (w.rows(), w.cols());
        assert!(k > 0 && n > 0, "empty weight matrix");
        assert_eq!(
            k % CB_ELEMS_PER_WORD,
            0,
            "K must be a multiple of {CB_ELEMS_PER_WORD}"
        );
        assert_eq!(
            group % CB_ELEMS_PER_WORD,
            0,
            "group must be a multiple of {CB_ELEMS_PER_WORD}"
        );
        assert_eq!(k % group, 0, "group must divide K");
        let l1 = quantize_per_channel_i8(w);
        let flat = l1.q.as_slice();
        let codebook = train_codebook(flat);
        let mut words = Vec::with_capacity(n * k / CB_ELEMS_PER_WORD);
        for row in flat.chunks_exact(k) {
            for span in row.chunks_exact(CB_ELEMS_PER_WORD) {
                let mut bytes = [0u8; 4];
                for (b, sub) in span.chunks_exact(CB_DIM).enumerate() {
                    bytes[b] = nearest(sub, &codebook);
                }
                words.push(u32::from_le_bytes(bytes));
            }
        }
        Self {
            n,
            k,
            group,
            words,
            codebook,
            channel_scales: l1.scales.iter().map(|s| s.scale).collect(),
        }
    }

    /// Reconstruct the full FP32 weight matrix (error-measurement
    /// reference, not a kernel path).
    #[must_use]
    pub fn dequantize(&self) -> Mat<f32> {
        let mut row_buf = vec![0i8; self.k];
        let mut out = Mat::zeros(self.n, self.k);
        for r in 0..self.n {
            let wpr = self.words_per_row();
            dequant_words_codebook(
                &self.words[r * wpr..(r + 1) * wpr],
                &self.codebook,
                &mut row_buf,
            );
            let s = self.channel_scales[r];
            for (c, &q) in row_buf.iter().enumerate() {
                out.set(r, c, f32::from(q) * s);
            }
        }
        out
    }
}

impl PackedWeights for PackedCodebookLinear {
    fn backend(&self) -> BackendId {
        BackendId::Codebook
    }

    fn n(&self) -> usize {
        self.n
    }

    fn k(&self) -> usize {
        self.k
    }

    fn group(&self) -> usize {
        self.group
    }

    fn channel_scales(&self) -> &[f32] {
        &self.channel_scales
    }

    fn group_words(&self, row: usize, g: usize) -> &[u32] {
        let wpg = self.group / CB_ELEMS_PER_WORD;
        let off = row * self.words_per_row() + g * wpg;
        &self.words[off..off + wpg]
    }

    fn dequant_row_group(&self, row: usize, g: usize, out: &mut [i8]) {
        dequant_words_codebook(self.group_words(row, g), &self.codebook, out);
    }

    fn weight_bytes(&self) -> usize {
        self.words.len() * 4 + self.codebook.len() + self.channel_scales.len() * 4
    }
}

/// The CodeGEMM-style backend registry entry.
pub struct CodebookGemmBackend;

impl KernelBackend for CodebookGemmBackend {
    fn id(&self) -> BackendId {
        BackendId::Codebook
    }

    fn name(&self) -> &'static str {
        "Codebook GEMM (shared i8 sub-vector codebook)"
    }

    fn cost(&self) -> BackendCost {
        BackendCost {
            // One extract + one 4-byte gather per sub-vector: ~0.5
            // instructions per element, no arithmetic.
            alpha: 0.5,
            weight_bytes_per_elem: 0.25,
            overlap_dq: true,
            bit_exact: false,
        }
    }

    fn pack(&self, w: &Mat<f32>, group: usize) -> Arc<dyn PackedWeights> {
        Arc::new(PackedCodebookLinear::quantize(w, group))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::error_stats;

    fn weights(n: usize, k: usize) -> Mat<f32> {
        Mat::from_fn(n, k, |r, c| ((r * k + c) as f32 * 0.11).sin() * 2.0)
    }

    #[test]
    fn quantize_is_deterministic() {
        let w = weights(8, 128);
        let a = PackedCodebookLinear::quantize(&w, 64);
        let b = PackedCodebookLinear::quantize(&w, 64);
        assert_eq!(a.words, b.words);
        assert_eq!(a.codebook(), b.codebook());
    }

    #[test]
    fn reconstruction_is_sqnr_bounded() {
        // Smooth weights: vector quantization must stay well above the
        // conservative floor (exact SQNR depends on the data).
        let w = weights(32, 256);
        let p = PackedCodebookLinear::quantize(&w, 64);
        let stats = error_stats(&w, &p.dequantize());
        assert!(stats.sqnr_db > 5.0, "SQNR {:.2} dB too low", stats.sqnr_db);
        assert!(stats.cosine > 0.8, "cosine {:.3} too low", stats.cosine);
    }

    #[test]
    fn weight_rate_is_quarter_byte_per_element() {
        let w = weights(64, 512);
        let p = PackedCodebookLinear::quantize(&w, 64);
        let payload = 64 * 512 / 4; // one byte per 4-element sub-vector
        assert_eq!(
            PackedWeights::weight_bytes(&p),
            payload + CB_SIZE * CB_DIM + 64 * 4
        );
    }

    #[test]
    #[should_panic(expected = "multiple of 16")]
    fn rejects_k_not_multiple_of_16() {
        let w = weights(4, 24);
        let _ = PackedCodebookLinear::quantize(&w, 8);
    }
}
