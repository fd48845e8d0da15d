//! The GEMM workloads: one decoder layer's four W4A8 GEMMs, called the
//! way an engine calls them (quantize the activations, then
//! `LiquidGemm::gemm`), checked bit-for-bit against `w4a8_serial`.

use crate::spec::{Plan, GROUP, WORKERS};
use crate::stats::Digest;
use lq_core::serial::w4a8_serial;
use lq_core::{BackendId, KernelKind, LiquidGemm, PlacementPolicy, W4A8Weights};
use lq_quant::{Mat, QuantizedActivations};
use lq_rng::Rng;
use std::sync::Arc;
use std::time::Instant;

/// The pool every workload uses, at `workers` threads.
pub fn pool(workers: usize) -> Arc<LiquidGemm> {
    Arc::new(
        LiquidGemm::builder()
            .workers(workers)
            .backend(BackendId::Lqq)
            .placement(PlacementPolicy::Unpinned)
            .build()
            .expect("the benchmark's pool configuration is valid"),
    )
}

/// One decoder layer's packed weights (qkv, o, gate_up, down).
pub struct Layer {
    /// Packed matrices in call order.
    pub weights: Vec<W4A8Weights>,
    /// Seconds spent in `W4A8Weights::quantize` building them.
    pub pack_s: f64,
}

impl Layer {
    /// Draw FP32 weights from `seed` and quantize them.
    pub fn build(plan: &Plan, seed: u64) -> Layer {
        let mut rng = Rng::new(seed ^ 0x5eed_0001);
        let mut pack_s = 0.0;
        let weights = plan
            .layer
            .iter()
            .map(|&(n, k)| {
                let w = Mat::from_vec(n, k, rng.vec_f32(n * k, -0.2, 0.2));
                let t0 = Instant::now();
                let packed = W4A8Weights::quantize(&w, GROUP, BackendId::Lqq);
                pack_s += t0.elapsed().as_secs_f64();
                packed
            })
            .collect();
        Layer { weights, pack_s }
    }

    /// Weights in the layer.
    pub fn weight_count(&self) -> usize {
        self.weights.iter().map(|w| w.n() * w.k()).sum()
    }

    /// Packed bytes of the layer.
    pub fn weight_bytes(&self) -> usize {
        self.weights.iter().map(W4A8Weights::weight_bytes).sum()
    }

    /// FP32 activations for one pass at `m` rows: one matrix per GEMM,
    /// drawn from `seed`.
    pub fn activations(&self, seed: u64, m: usize) -> Vec<Mat<f32>> {
        let mut rng = Rng::new(seed ^ 0x5eed_0002 ^ ((m as u64) << 32));
        self.weights
            .iter()
            .map(|w| Mat::from_vec(m, w.k(), rng.vec_f32(m * w.k(), -1.0, 1.0)))
            .collect()
    }
}

/// How a pass runs its GEMMs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Path {
    /// `w4a8_serial` on the calling thread, no pool.
    Serial,
    /// `LiquidGemm::gemm` with this pipeline.
    Pool(KernelKind),
}

/// Wall time of one layer pass, split by call.
#[derive(Debug, Clone, Copy, Default)]
pub struct PassTime {
    /// The whole pass.
    pub total_ns: u64,
    /// `QuantizedActivations::quantize` per matrix.
    pub quant_ns: [u64; 4],
    /// The GEMM call per matrix.
    pub gemm_ns: [u64; 4],
    /// When the pass began, ns since `epoch`.
    pub start_ns: u64,
}

/// One layer pass: for each matrix, quantize its activations, then
/// multiply. Returns the four outputs.
pub fn layer_pass(
    lg: &LiquidGemm,
    layer: &Layer,
    acts: &[Mat<f32>],
    path: Path,
    epoch: Instant,
) -> (Vec<Mat<f32>>, PassTime) {
    let mut time = PassTime::default();
    let t_pass = Instant::now();
    time.start_ns = t_pass.duration_since(epoch).as_nanos() as u64;
    let mut outs = Vec::with_capacity(layer.weights.len());
    for (i, (x, w)) in acts.iter().zip(&layer.weights).enumerate() {
        let t0 = Instant::now();
        let qa = QuantizedActivations::quantize(x, None);
        let t1 = Instant::now();
        let y = match path {
            Path::Serial => w4a8_serial(&qa.q, &qa.scales, w.as_dyn()),
            Path::Pool(kind) => lg.gemm(&qa.q, &qa.scales, w, kind).y,
        };
        time.quant_ns[i] = (t1 - t0).as_nanos() as u64;
        time.gemm_ns[i] = t1.elapsed().as_nanos() as u64;
        outs.push(y);
    }
    time.total_ns = t_pass.elapsed().as_nanos() as u64;
    (outs, time)
}

/// Whether a pass's outputs equal the reference bit for bit.
pub fn bit_equal(got: &[Mat<f32>], want: &[Mat<f32>]) -> bool {
    got.len() == want.len()
        && got.iter().zip(want).all(|(g, w)| {
            g.rows() == w.rows()
                && g.cols() == w.cols()
                && g.as_slice()
                    .iter()
                    .zip(w.as_slice())
                    .all(|(a, b)| a.to_bits() == b.to_bits())
        })
}

/// Everything a GEMM workload needs, built by one set-up.
pub struct GemmSetup {
    /// The 2-worker pool.
    pub lg: Arc<LiquidGemm>,
    /// The layer.
    pub layer: Layer,
    /// Activations per batch size of the operation.
    pub acts: Vec<(usize, Vec<Mat<f32>>)>,
}

impl GemmSetup {
    /// Build pool, layer and the activations of batch sizes `ms`.
    pub fn build(plan: &Plan, seed: u64, ms: &[usize]) -> GemmSetup {
        let lg = pool(WORKERS);
        let layer = Layer::build(plan, seed);
        let acts = ms
            .iter()
            .map(|&m| (m, layer.activations(seed, m)))
            .collect();
        GemmSetup { lg, layer, acts }
    }
}

/// What the timed region of a GEMM workload produced.
pub struct GemmRun {
    /// Latency of each operation, ns.
    pub op_ns: Vec<u64>,
    /// Every pass (`ms.len()` per operation), for the span tree.
    pub passes: Vec<PassTime>,
    /// Per operation: every pass bit-equal to `w4a8_serial`.
    pub ok: Vec<bool>,
    /// Activation rows one operation multiplies.
    pub rows_per_op: usize,
    /// Digest of the reference outputs.
    pub digest: Digest,
}

/// Run `ops` operations, each one pass per batch size in `setup.acts`
/// through `ImFp`, checking every pass against a `w4a8_serial`
/// reference computed once (outside the timed operations).
pub fn run(setup: &GemmSetup, ops: usize, epoch: Instant) -> GemmRun {
    let mut digest = Digest::default();
    let reference: Vec<Vec<Mat<f32>>> = setup
        .acts
        .iter()
        .map(|(_, acts)| {
            let (outs, _) = layer_pass(&setup.lg, &setup.layer, acts, Path::Serial, epoch);
            for y in &outs {
                digest.push_f32s(y.as_slice());
            }
            outs
        })
        .collect();
    let mut run = GemmRun {
        op_ns: Vec::with_capacity(ops),
        passes: Vec::with_capacity(ops * setup.acts.len()),
        ok: Vec::with_capacity(ops),
        rows_per_op: setup.acts.iter().map(|(m, _)| m).sum(),
        digest,
    };
    for _ in 0..ops {
        let t0 = Instant::now();
        let mut outs = Vec::with_capacity(setup.acts.len());
        for (_, acts) in &setup.acts {
            let (y, time) = layer_pass(
                &setup.lg,
                &setup.layer,
                acts,
                Path::Pool(KernelKind::ImFp),
                epoch,
            );
            run.passes.push(time);
            outs.push(y);
        }
        run.op_ns.push(t0.elapsed().as_nanos() as u64);
        // Checked after the clock stops; the operation is not charged
        // for the comparison.
        run.ok
            .push(outs.iter().zip(&reference).all(|(g, w)| bit_equal(g, w)));
    }
    run
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_corrupted_output_is_caught() {
        let plan = Plan::toy();
        let setup = GemmSetup::build(&plan, 7, &[1, 4]);
        let epoch = Instant::now();
        let run = run(&setup, 2, epoch);
        assert_eq!(run.ok, vec![true, true]);
        assert_eq!((run.op_ns.len(), run.passes.len()), (2, 4));
        assert_eq!(run.rows_per_op, 5);

        let acts = &setup.acts[0].1;
        let (want, _) = layer_pass(&setup.lg, &setup.layer, acts, Path::Serial, epoch);
        let (mut got, _) = layer_pass(
            &setup.lg,
            &setup.layer,
            acts,
            Path::Pool(KernelKind::ImFp),
            epoch,
        );
        assert!(bit_equal(&got, &want));
        let v = got[2].as_slice()[5];
        got[2].as_mut_slice()[5] = f32::from_bits(v.to_bits() ^ 1);
        assert!(!bit_equal(&got, &want), "a one-ulp flip must fail the pass");
    }

    #[test]
    fn seeds_change_the_data_not_the_shape() {
        let plan = Plan::toy();
        let (a, b) = (Layer::build(&plan, 1), Layer::build(&plan, 2));
        assert_eq!(a.weight_count(), b.weight_count());
        assert_eq!(a.weight_bytes(), b.weight_bytes());
        let (xa, xb) = (a.activations(1, 4), b.activations(2, 4));
        assert_ne!(xa[0].as_slice(), xb[0].as_slice());
        assert_eq!(a.activations(1, 4)[0].as_slice(), xa[0].as_slice());
    }
}
