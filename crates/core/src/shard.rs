//! Tensor-parallel GEMM sharding across persistent pools
//! (DESIGN.md §14).
//!
//! The PR 8 router shards *requests* across replicas; this module
//! shards one *GEMM* across K independent [`LiquidGemm`] pools — the
//! CPU counterpart of multi-GPU tensor parallelism, mapped onto the
//! paper's §5.4 persistent-kernel design (N persistent pools
//! cooperating on one layer):
//!
//! * **Column parallel** ([`ShardedGemm::gemm`]): the N dimension
//!   (output channels) is split into contiguous windows, one per
//!   shard. Every shard runs the ordinary scaled kernel over a
//!   row-offset *view* of one shared pack (`ShardView`) and the
//!   outputs are concatenated column-wise — a deterministic
//!   all-gather. Per-channel accumulator chains are independent, so
//!   each output column is computed by exactly the same instruction
//!   sequence as the unsharded call: bit-exact by construction.
//! * **Row parallel** ([`ShardedGemm::gemm_row`]): the K dimension
//!   (reduction) is split at quant-group boundaries. Each shard
//!   computes exact i64 partial dot products over its K slice (the
//!   ordinary [`crate::pipeline`] driver with the exact-sum sink
//!   instead of the epilogue), the partials are
//!   summed in exact integer arithmetic (the all-reduce), and the
//!   single activation/channel-scale epilogue runs once on the full
//!   sum. Every per-slice partial fits i32 (`kc·128·128 < 2^31` for
//!   `K ≤ 2^17`), the i64 sum is exact, and converting to f32 once at
//!   the end is the same conversion the unsharded scatter performs —
//!   bit-exact again. An f32 all-reduce would *not* be: f32 loses
//!   integer exactness above 2^24, and float addition is not
//!   associative.
//!
//! Both collectives record `AllGather`/`AllReduce` spans (one per
//! shard, `a` = shard index, `b` = shard count) carrying the ambient
//! correlation ID, so `lq_trace::analyze::shard_collectives` can
//! attribute shard-skew wait time — the slowest-minus-fastest gap the
//! barrier pays.
//!
//! Failure semantics: an `lq-chaos` [`FaultInjector`] with a scheduled
//! shard kill ([`lq_chaos::FaultPlan::shard_kill_at`]) makes the
//! victim's pool die at its scheduled call. The sharded layer then
//! returns the typed [`ShardError::ShardFailed`] — never a partial or
//! silently wrong output — and the shard stays dead (degraded mode)
//! until the handle is rebuilt.

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use lq_chaos::FaultInjector;
use lq_quant::backend::{BackendId, PackedWeights};
use lq_quant::mat::Mat;

use crate::api::{GemmOutput, KernelKind, W4A8Weights};
use crate::epilogue::{ExactSum, ScaleEpilogue, Sink};
use crate::pipeline::{drive, ConfigError, ParallelConfig};
use crate::runtime::{LiquidGemm, LiquidGemmBuilder};
use crate::serial::check_shapes;
use crate::simd::SimdVariant;

// ===========================================================================
// Packed-weight views: one full pack, per-shard windows.
// ===========================================================================

/// Column-parallel (N-offset) view over a shared pack: rows
/// `[n0, n1)` of the inner weights, presented as a standalone
/// [`PackedWeights`]. A view instead of a re-pack is what keeps every
/// backend bit-exact — the codebook backend's k-means codebook is
/// matrix-global, so packing a shard's rows alone would quantize them
/// differently.
pub(crate) struct ShardView {
    pub(crate) inner: Arc<dyn PackedWeights>,
    pub(crate) n0: usize,
    pub(crate) n1: usize,
}

impl PackedWeights for ShardView {
    fn backend(&self) -> BackendId {
        self.inner.backend()
    }

    fn n(&self) -> usize {
        self.n1 - self.n0
    }

    fn k(&self) -> usize {
        self.inner.k()
    }

    fn group(&self) -> usize {
        self.inner.group()
    }

    fn channel_scales(&self) -> &[f32] {
        &self.inner.channel_scales()[self.n0..self.n1]
    }

    fn dequant_block(&self, j: usize, rows: usize, g0: usize, dst: &mut [i8]) {
        self.inner.dequant_block(self.n0 + j, rows, g0, dst);
    }

    fn weight_bytes(&self) -> usize {
        // Proportional share of the shared pack.
        let n = self.inner.n().max(1);
        self.inner.weight_bytes() * (self.n1 - self.n0) / n
    }
}

/// Row-parallel (K-slice) view over a shared pack: quant groups
/// `[g0, g0 + groups)` of every row — every `(row, group)` access is
/// the inner one with the group index offset by `g0`.
pub(crate) struct KShardView {
    pub(crate) inner: Arc<dyn PackedWeights>,
    pub(crate) g0: usize,
    pub(crate) groups: usize,
}

impl PackedWeights for KShardView {
    fn backend(&self) -> BackendId {
        self.inner.backend()
    }

    fn n(&self) -> usize {
        self.inner.n()
    }

    fn k(&self) -> usize {
        self.groups * self.inner.group()
    }

    fn group(&self) -> usize {
        self.inner.group()
    }

    fn channel_scales(&self) -> &[f32] {
        self.inner.channel_scales()
    }

    fn dequant_block(&self, j: usize, rows: usize, g0: usize, dst: &mut [i8]) {
        self.inner.dequant_block(j, rows, self.g0 + g0, dst);
    }

    fn weight_bytes(&self) -> usize {
        let k = self.inner.k().max(1);
        self.inner.weight_bytes() * self.k() / k
    }
}

// ===========================================================================
// ShardedWeights — one pack plus the column/row split plans.
// ===========================================================================

/// Weights packed once (full matrix, by the configured backend) plus
/// the deterministic column and row split plans for a fixed shard
/// count. Cheap to clone (`Arc` inside).
#[derive(Clone)]
pub struct ShardedWeights {
    packed: Arc<dyn PackedWeights>,
    /// Column plan: shard `s` owns output channels `[col[s].0, col[s].1)`.
    col: Vec<(usize, usize)>,
    /// Row plan: shard `s` owns quant groups `[row[s].0, row[s].0 + row[s].1)`.
    row: Vec<(usize, usize)>,
}

/// Split `total` items into `parts` contiguous balanced windows: the
/// first `total % parts` windows get one extra item. Deterministic —
/// the concat/all-gather order is the plan order.
fn balanced_plan(total: usize, parts: usize) -> Vec<(usize, usize)> {
    let base = total / parts;
    let extra = total % parts;
    let mut plan = Vec::with_capacity(parts);
    let mut at = 0;
    for s in 0..parts {
        let len = base + usize::from(s < extra);
        plan.push((at, at + len));
        at += len;
    }
    plan
}

impl ShardedWeights {
    /// Wrap an already-packed weight handle with split plans for
    /// `shards` shards. Columns split anywhere; rows split at quant
    /// group boundaries (`k` must be a multiple of `group`, which
    /// every registered backend already requires).
    #[must_use]
    pub fn from_weights(w: &W4A8Weights, shards: usize) -> Self {
        assert!(shards >= 1, "need at least one shard");
        let packed = w.packed();
        let col = balanced_plan(packed.n(), shards);
        let groups = packed.k() / packed.group();
        let row = balanced_plan(groups, shards)
            .into_iter()
            .map(|(g0, g1)| (g0, g1 - g0))
            .collect();
        Self { packed, col, row }
    }

    /// Output channels (full, unsharded N).
    #[must_use]
    pub fn n(&self) -> usize {
        self.packed.n()
    }

    /// Reduction dim (full, unsharded K).
    #[must_use]
    pub fn k(&self) -> usize {
        self.packed.k()
    }

    /// Quantization group size along K.
    #[must_use]
    pub fn group(&self) -> usize {
        self.packed.group()
    }

    /// Which backend packed the shared representation.
    #[must_use]
    pub fn backend(&self) -> BackendId {
        self.packed.backend()
    }

    /// Shard count the plans were computed for.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.col.len()
    }

    /// Column window `[n0, n1)` of shard `s` (may be empty when
    /// `N < shards`).
    #[must_use]
    pub fn col_range(&self, s: usize) -> (usize, usize) {
        self.col[s]
    }
}

impl fmt::Debug for ShardedWeights {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardedWeights")
            .field("backend", &self.packed.backend())
            .field("n", &self.packed.n())
            .field("k", &self.packed.k())
            .field("shards", &self.col.len())
            .finish()
    }
}

// ===========================================================================
// ShardedGemm — K pools, one layer.
// ===========================================================================

/// A tensor-parallel GEMM call failed because a shard pool is dead.
///
/// The output is never partially populated: either every shard
/// contributed, or the caller gets this error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardError {
    /// Shard `shard`'s pool was killed (chaos) or panicked; the layer
    /// runs degraded until rebuilt.
    ShardFailed {
        /// Index of the dead shard.
        shard: usize,
    },
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardError::ShardFailed { shard } => {
                write!(f, "tensor-parallel shard {shard} failed (pool dead)")
            }
        }
    }
}

impl std::error::Error for ShardError {}

struct ShardSlot {
    gemm: LiquidGemm,
    /// Flips false on the first failure and stays false: a dead shard
    /// never silently rejoins with stale state.
    alive: AtomicBool,
}

/// Column/row-parallel GEMM layer over `shards` independent
/// [`LiquidGemm`] pools.
///
/// ```
/// use lq_core::shard::ShardedGemm;
/// use lq_core::KernelKind;
/// use lq_quant::act::QuantizedActivations;
/// use lq_quant::mat::Mat;
///
/// let w = Mat::from_fn(24, 128, |r, c| ((r * 128 + c) as f32 * 0.05).cos());
/// let x = Mat::from_fn(3, 128, |r, c| ((r * 128 + c) as f32 * 0.1).sin());
/// let qa = QuantizedActivations::quantize(&x, None);
/// let tp = ShardedGemm::builder()
///     .shards(2)
///     .workers_per_shard(2)
///     .build()
///     .unwrap();
/// let sw = tp.pack_weights(&w, 64);
/// let y = tp.gemm(&qa.q, &qa.scales, &sw, KernelKind::ImFp).unwrap().y;
/// assert_eq!((y.rows(), y.cols()), (3, 24));
/// ```
pub struct ShardedGemm {
    shards: Vec<ShardSlot>,
    fault: Option<Arc<FaultInjector>>,
}

impl ShardedGemm {
    /// Start configuring a sharded layer.
    #[must_use]
    pub fn builder() -> ShardedGemmBuilder {
        ShardedGemmBuilder::default()
    }

    /// Shard count.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Shard `s`'s pool handle (bench/telemetry access — per-shard
    /// worker stats, busy-balance audits).
    #[must_use]
    pub fn shard_pool(&self, s: usize) -> &LiquidGemm {
        &self.shards[s].gemm
    }

    /// How many shards are still alive (== [`ShardedGemm::shards`]
    /// unless chaos killed one).
    #[must_use]
    pub fn live_shards(&self) -> usize {
        self.shards
            .iter()
            .filter(|s| s.alive.load(Ordering::Acquire))
            .count()
    }

    /// Pack FP32 weights once with shard 0's configured backend and
    /// compute the split plans for this layer's shard count.
    #[must_use]
    pub fn pack_weights(&self, w: &Mat<f32>, group: usize) -> ShardedWeights {
        let packed = W4A8Weights::quantize(w, group, self.shards[0].gemm.backend());
        ShardedWeights::from_weights(&packed, self.shards())
    }

    /// Consult liveness + the chaos shard-kill site for shard `s` at
    /// one sharded call. Returns false when the shard must not run.
    fn shard_ok(&self, s: usize) -> bool {
        let slot = &self.shards[s];
        if !slot.alive.load(Ordering::Acquire) {
            return false;
        }
        if let Some(f) = &self.fault {
            if f.on_shard_call(s as u64) {
                slot.alive.store(false, Ordering::Release);
                return false;
            }
        }
        true
    }

    /// Column-parallel `Y = X·Wᵀ`: each shard computes its window of
    /// output channels on its own pool (concurrently), and the windows
    /// concatenate into the full `M×N` output — the all-gather.
    /// Bit-exact vs the unsharded [`LiquidGemm::gemm`] for every
    /// backend, microkernel variant, and pipeline kind.
    ///
    /// # Errors
    /// [`ShardError::ShardFailed`] if any shard is dead or dies during
    /// the call; the output is never partially populated.
    pub fn gemm(
        &self,
        x: &Mat<i8>,
        act_scales: &[f32],
        w: &ShardedWeights,
        kind: KernelKind,
    ) -> Result<GemmOutput, ShardError> {
        check_shapes(x, Some(act_scales), w.packed.as_ref());
        assert_eq!(w.shards(), self.shards(), "plan/layer shard count");
        let m = x.rows();
        let n = w.n();
        let count = self.shards() as u64;
        let corr = lq_trace::current_corr();
        let parts: Vec<Result<Mat<f32>, ShardError>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..self.shards())
                .map(|s| {
                    let (n0, n1) = w.col_range(s);
                    let packed = Arc::clone(&w.packed);
                    scope.spawn(move || {
                        if !self.shard_ok(s) {
                            return Err(ShardError::ShardFailed { shard: s });
                        }
                        let t0 = std::time::Instant::now();
                        let view = W4A8Weights::from_arc(Arc::new(ShardView {
                            inner: packed,
                            n0,
                            n1,
                        }));
                        let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            self.shards[s].gemm.gemm(x, act_scales, &view, kind).y
                        }));
                        lq_trace::span_full(
                            lq_trace::EventKind::AllGather,
                            lq_trace::Track::Control,
                            corr,
                            s as u64,
                            count,
                            t0,
                            0,
                        );
                        out.map_err(|_| {
                            self.shards[s].alive.store(false, Ordering::Release);
                            ShardError::ShardFailed { shard: s }
                        })
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("shard driver thread never panics"))
                .collect()
        });
        // All-gather: deterministic column concat in plan order. Fail
        // the whole call before touching the output if any shard died.
        let mut y = Mat::zeros(m, n);
        for (s, part) in parts.iter().enumerate() {
            if part.is_err() {
                return Err(ShardError::ShardFailed { shard: s });
            }
        }
        for (s, part) in parts.into_iter().enumerate() {
            let part = part.expect("checked above");
            let (n0, _) = w.col_range(s);
            for i in 0..m {
                let src = part.row(i);
                y.row_mut(i)[n0..n0 + src.len()].copy_from_slice(src);
            }
        }
        Ok(GemmOutput { y })
    }

    /// Row-parallel `Y = X·Wᵀ` (the FFN down-projection split): each
    /// shard computes exact i64 partial dot products over its K slice
    /// (quant-group aligned) on its own pool, the partials all-reduce
    /// by exact integer summation, and the activation/channel epilogue
    /// runs once on the full sums — bit-exact vs the unsharded kernel.
    ///
    /// Runs the ordinary fused-job driver with the exact-sum sink on
    /// every shard pool (pipeline choice does not apply: there is no
    /// per-shard epilogue to overlap).
    ///
    /// # Errors
    /// [`ShardError::ShardFailed`] if any shard is dead or dies during
    /// the call; the output is never partially populated.
    pub fn gemm_row(
        &self,
        x: &Mat<i8>,
        act_scales: &[f32],
        w: &ShardedWeights,
    ) -> Result<GemmOutput, ShardError> {
        check_shapes(x, Some(act_scales), w.packed.as_ref());
        assert_eq!(w.shards(), self.shards(), "plan/layer shard count");
        let (m, n) = (x.rows(), w.n());
        let group = w.group();
        let count = self.shards() as u64;
        let corr = lq_trace::current_corr();
        let parts: Vec<Result<Option<Vec<i64>>, ShardError>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..self.shards())
                .map(|s| {
                    let (g0, groups) = w.row[s];
                    let packed = Arc::clone(&w.packed);
                    scope.spawn(move || {
                        if !self.shard_ok(s) {
                            return Err(ShardError::ShardFailed { shard: s });
                        }
                        if groups == 0 {
                            // More shards than quant groups: an empty
                            // slice contributes an exact zero — but it
                            // still joins the barrier, so it records a
                            // zero-work span to keep the collective's
                            // span group complete.
                            lq_trace::span_full(
                                lq_trace::EventKind::AllReduce,
                                lq_trace::Track::Control,
                                corr,
                                s as u64,
                                count,
                                std::time::Instant::now(),
                                0,
                            );
                            return Ok(None);
                        }
                        let t0 = std::time::Instant::now();
                        let k0 = g0 * group;
                        let ks = groups * group;
                        // Slice the activations' K columns for this
                        // shard; per-token scales stay K-global and are
                        // applied once after the reduce.
                        let xs = Mat::from_fn(m, ks, |r, c| x.row(r)[k0 + c]);
                        let view = Arc::new(KShardView {
                            inner: packed,
                            g0,
                            groups,
                        });
                        let lg = &self.shards[s].gemm;
                        let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            drive(
                                lg.pool(),
                                &xs,
                                view,
                                lg.config(),
                                KernelKind::FlatParallel,
                                "flat_raw",
                                ExactSum,
                            )
                        }));
                        lq_trace::span_full(
                            lq_trace::EventKind::AllReduce,
                            lq_trace::Track::Control,
                            corr,
                            s as u64,
                            count,
                            t0,
                            0,
                        );
                        match out {
                            Ok(v) => Ok(Some(v)),
                            Err(_) => {
                                self.shards[s].alive.store(false, Ordering::Release);
                                Err(ShardError::ShardFailed { shard: s })
                            }
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("shard driver thread never panics"))
                .collect()
        });
        // Exact all-reduce: i64 sums, order-independent, then one
        // epilogue — the same `(Σ as f32) · act · ch` the unsharded
        // scatter performs.
        let mut acc = vec![0i64; n * m];
        for (s, part) in parts.iter().enumerate() {
            if part.is_err() {
                return Err(ShardError::ShardFailed { shard: s });
            }
        }
        for part in parts.into_iter().flatten().flatten() {
            for (a, p) in acc.iter_mut().zip(part) {
                *a += p;
            }
        }
        let ch = w.packed.channel_scales();
        let epilogue = ScaleEpilogue(act_scales.to_vec());
        let mut y = Mat::zeros(m, n);
        for j in 0..n {
            for i in 0..m {
                let s = acc[j * m + i];
                debug_assert!(
                    i32::try_from(s).is_ok(),
                    "i8 GEMM accumulator exceeded i32 (K > 2^17?)"
                );
                y.set(i, j, epilogue.emit(i, ch[j], s));
            }
        }
        Ok(GemmOutput { y })
    }
}

// ===========================================================================
// Builder.
// ===========================================================================

/// Invalid [`ShardedGemm::builder`] parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardConfigError {
    /// `shards == 0`.
    ZeroShards,
    /// A per-shard pool rejected its configuration.
    Pool(ConfigError),
}

impl fmt::Display for ShardConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardConfigError::ZeroShards => write!(f, "shards must be >= 1"),
            ShardConfigError::Pool(e) => write!(f, "shard pool: {e}"),
        }
    }
}

impl std::error::Error for ShardConfigError {}

impl From<ConfigError> for ShardConfigError {
    fn from(e: ConfigError) -> Self {
        ShardConfigError::Pool(e)
    }
}

/// Builder for [`ShardedGemm`] — mirrors [`LiquidGemm::builder`] with
/// per-shard pool parameters.
pub struct ShardedGemmBuilder {
    shards: usize,
    workers_per_shard: usize,
    task_rows: usize,
    backend: BackendId,
    force_microkernel: Option<SimdVariant>,
    fault: Option<Arc<FaultInjector>>,
}

impl Default for ShardedGemmBuilder {
    fn default() -> Self {
        Self {
            shards: 2,
            workers_per_shard: 2,
            task_rows: ParallelConfig::default().task_rows,
            backend: BackendId::Lqq,
            force_microkernel: None,
            fault: None,
        }
    }
}

impl ShardedGemmBuilder {
    /// Number of independent shard pools (default 2).
    #[must_use]
    pub fn shards(mut self, s: usize) -> Self {
        self.shards = s;
        self
    }

    /// Worker threads per shard pool (default 2).
    #[must_use]
    pub fn workers_per_shard(mut self, w: usize) -> Self {
        self.workers_per_shard = w;
        self
    }

    /// Output-channel rows per tile within each shard (default as
    /// [`LiquidGemm::builder`]: whole SIMD strips).
    #[must_use]
    pub fn task_rows(mut self, r: usize) -> Self {
        self.task_rows = r;
        self
    }

    /// Dequant backend [`ShardedGemm::pack_weights`] uses (default
    /// LQQ).
    #[must_use]
    pub fn backend(mut self, id: BackendId) -> Self {
        self.backend = id;
        self
    }

    /// Force a microkernel variant on every shard pool (tests).
    #[must_use]
    pub fn force_microkernel(mut self, v: SimdVariant) -> Self {
        self.force_microkernel = Some(v);
        self
    }

    /// Attach a chaos injector: its shard-kill site governs shard
    /// death ([`lq_chaos::FaultInjector::on_shard_call`]).
    #[must_use]
    pub fn fault_injector(mut self, f: Arc<FaultInjector>) -> Self {
        self.fault = Some(f);
        self
    }

    /// Build the shard pools.
    ///
    /// # Errors
    /// [`ShardConfigError`] on zero shards or invalid per-pool
    /// parameters.
    pub fn build(self) -> Result<ShardedGemm, ShardConfigError> {
        if self.shards == 0 {
            return Err(ShardConfigError::ZeroShards);
        }
        let mut shards = Vec::with_capacity(self.shards);
        for _ in 0..self.shards {
            let mut b: LiquidGemmBuilder = LiquidGemm::builder()
                .workers(self.workers_per_shard)
                .task_rows(self.task_rows)
                .backend(self.backend);
            if let Some(v) = self.force_microkernel {
                b = b.force_microkernel(v);
            }
            shards.push(ShardSlot {
                gemm: b.build()?,
                alive: AtomicBool::new(true),
            });
        }
        Ok(ShardedGemm {
            shards,
            fault: self.fault,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::max_abs_diff;
    use lq_chaos::FaultPlan;
    use lq_quant::act::QuantizedActivations;

    fn fixture(m: usize, n: usize, k: usize) -> (Mat<i8>, Vec<f32>, Mat<f32>) {
        let xf = Mat::from_fn(m, k, |r, c| ((r * k + c) as f32 * 0.13).sin() * 1.5);
        let wf = Mat::from_fn(n, k, |r, c| ((r * k + c) as f32 * 0.04).cos());
        let qa = QuantizedActivations::quantize(&xf, None);
        (qa.q, qa.scales, wf)
    }

    /// A block dequant through either view is the inner pack's block at
    /// the view's offset: `ShardView` shifts rows by `n0`, `KShardView`
    /// shifts groups by `g0` — for every backend, every row window and
    /// every block of whole groups inside the view.
    #[test]
    fn views_forward_block_dequant_at_their_offsets() {
        let (n, k, group) = (21, 320, 32);
        let (_, _, wf) = fixture(1, n, k);
        let (n0, n1, g0, groups) = (5, 19, 3, 6);
        for backend in lq_quant::backend::registry() {
            let inner = backend.pack(&wf, group);
            let id = backend.id();
            let col = ShardView {
                inner: Arc::clone(&inner),
                n0,
                n1,
            };
            let kslice = KShardView {
                inner: Arc::clone(&inner),
                g0,
                groups,
            };
            let block = |w: &dyn PackedWeights, j: usize, rows: usize, g: usize, ng: usize| {
                let mut dst = vec![0i8; rows * ng * group];
                w.dequant_block(j, rows, g, &mut dst);
                dst
            };
            for rows in 1..=n1 - n0 {
                for ng in 1..=groups {
                    for (j, g) in [(0, 0), (n1 - n0 - rows, groups - ng)] {
                        assert_eq!(
                            block(&col, j, rows, g, ng),
                            block(inner.as_ref(), n0 + j, rows, g, ng),
                            "{id} column view"
                        );
                        assert_eq!(
                            block(&kslice, j, rows, g, ng),
                            block(inner.as_ref(), j, rows, g0 + g, ng),
                            "{id} K-slice view"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn column_parallel_is_bit_exact_vs_unsharded() {
        let (x, s, wf) = fixture(5, 37, 128);
        let lg = LiquidGemm::builder().workers(2).build().unwrap();
        let w1 = lg.pack_weights(&wf, 64);
        let want = lg.gemm(&x, &s, &w1, KernelKind::ImFp).y;
        for shards in [1usize, 2, 3, 4] {
            let tp = ShardedGemm::builder()
                .shards(shards)
                .workers_per_shard(2)
                .build()
                .unwrap();
            let sw = tp.pack_weights(&wf, 64);
            let y = tp.gemm(&x, &s, &sw, KernelKind::ImFp).unwrap().y;
            assert_eq!(max_abs_diff(&y, &want), 0.0, "shards={shards}");
        }
    }

    #[test]
    fn row_parallel_is_bit_exact_vs_unsharded() {
        let (x, s, wf) = fixture(4, 19, 256);
        let lg = LiquidGemm::builder().workers(2).build().unwrap();
        let w1 = lg.pack_weights(&wf, 64);
        let want = lg.gemm(&x, &s, &w1, KernelKind::ImFp).y;
        for shards in [1usize, 2, 3, 4] {
            let tp = ShardedGemm::builder()
                .shards(shards)
                .workers_per_shard(2)
                .build()
                .unwrap();
            let sw = tp.pack_weights(&wf, 64);
            let y = tp.gemm_row(&x, &s, &sw).unwrap().y;
            assert_eq!(max_abs_diff(&y, &want), 0.0, "shards={shards}");
        }
    }

    #[test]
    fn more_shards_than_groups_still_exact() {
        // K=128, group=64 → 2 groups across 4 shards: two empty slices.
        let (x, s, wf) = fixture(3, 9, 128);
        let lg = LiquidGemm::builder().workers(1).build().unwrap();
        let want = lg
            .gemm(&x, &s, &lg.pack_weights(&wf, 64), KernelKind::ImFp)
            .y;
        let tp = ShardedGemm::builder()
            .shards(4)
            .workers_per_shard(1)
            .build()
            .unwrap();
        let sw = tp.pack_weights(&wf, 64);
        assert_eq!(
            max_abs_diff(&tp.gemm_row(&x, &s, &sw).unwrap().y, &want),
            0.0
        );
    }

    #[test]
    fn killed_shard_surfaces_typed_error_and_stays_dead() {
        let (x, s, wf) = fixture(2, 16, 128);
        let inj = Arc::new(FaultInjector::new(FaultPlan::quiet().shard_kill_at(1, 1)));
        let tp = ShardedGemm::builder()
            .shards(2)
            .workers_per_shard(1)
            .fault_injector(Arc::clone(&inj))
            .build()
            .unwrap();
        let sw = tp.pack_weights(&wf, 64);
        // Call 0 succeeds; call 1 kills shard 1; later calls stay dead.
        assert!(tp.gemm(&x, &s, &sw, KernelKind::ImFp).is_ok());
        assert_eq!(
            tp.gemm(&x, &s, &sw, KernelKind::ImFp).err(),
            Some(ShardError::ShardFailed { shard: 1 })
        );
        assert_eq!(inj.stats().shard_kills, 1);
        assert_eq!(tp.live_shards(), 1);
        assert_eq!(
            tp.gemm_row(&x, &s, &sw).err(),
            Some(ShardError::ShardFailed { shard: 1 })
        );
    }

    #[test]
    fn zero_shards_is_a_config_error() {
        assert_eq!(
            ShardedGemm::builder().shards(0).build().err(),
            Some(ShardConfigError::ZeroShards)
        );
    }
}
