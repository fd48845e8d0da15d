//! The parallel W4A8 kernel: one tile driver (`drive`) over the
//! persistent [`WorkerPool`] (see [`crate::runtime`]). Flat
//! data-parallel, the explicit coarse-grained pipeline (ExCP) and the
//! implicit fine-grained pipeline (ImFP) are the same driver, the same
//! strip kernel ([`crate::serial`]) and the same published call — a
//! [`KernelKind`] only decides whether a tile's body is the fused strip
//! loop or materialise-then-MMA.
//!
//! Mapping of the paper's Hopper structures (Figure 6) onto the pool:
//!
//! | paper                         | here                                   |
//! |-------------------------------|----------------------------------------|
//! | persistent kernel (§5.4)      | the long-lived worker threads owned by |
//! |                               | a [`crate::LiquidGemm`] handle         |
//! | Load WG (the single producer) | the calling thread inside `drive`,     |
//! |                               | publishing the call (weights,          |
//! |                               | activation panels, tile count) once    |
//! | TMA (GMEM → SMEM)             | the cache hierarchy plus the software  |
//! |                               | prefetch the strip kernel issues one K |
//! |                               | block ahead; weights are read in place |
//! |                               | from the shared `Arc`, never copied    |
//! | SMEM stages                   | none: a published call is O(1) state   |
//! |                               | however many tiles it has, so nothing  |
//! |                               | is staged and nothing needs a bound    |
//! | Compute WG (dequant + MMA)    | a fused tile: the strip kernel over    |
//! |                               | one tile's rows — dequant a K block    |
//! |                               | into an L1-sized buffer, MMA it at     |
//! |                               | once (no round trip)                   |
//! | Dequant WG → SMEM → MMA WG    | ExCP only: the tile body materialises  |
//! |                               | the whole INT8 tile, then runs the MMA |
//! |                               | over it                                |
//! | mbarrier sync between WGs     | ExCP's re-read of the materialised     |
//! |                               | tile                                   |
//! | hardware task scheduling      | one `fetch_add` on the call's cursor   |
//! |                               | per tile — what a persistent kernel's  |
//! |                               | tile scheduler is                      |
//! | epilogue / output fragment    | the call's `Sink`: f32 scale           |
//! |                               | application, or exact i64 sums for the |
//! |                               | row-parallel all-reduce                |
//!
//! Every kind computes `Yᵀ = W·Xᵀ` — the paper's Section 5.4 rewrite —
//! so each tile (a block of output channels) owns a *contiguous* slice
//! of the transposed output; workers copy finished tiles into the
//! call's flat buffer, and the final transpose is the trailing `ᵀ`.
//! Integer accumulation is exact, so every kind stays bit-identical to
//! the serial kernel regardless of worker interleaving (tests at the
//! bottom, in `tests/props.rs`, and under concurrency in
//! `tests/runtime_stress.rs`).
//!
//! ## Telemetry
//!
//! When [`lq_telemetry::enable`] has been called, a call records
//! whole-call latency (`lq_gemm_ns`), per-role task spans
//! (`lq_pipeline_task_ns`) and task counts, all labelled with the
//! call's `variant` (`serial`/`flat`/`imfp`/`excp`, and `flat_raw` for
//! the row-parallel shards' exact-sum calls); the pool itself exports
//! per-worker job/busy counters (see [`crate::runtime`]). Disabled
//! (the default), instrumentation is a single relaxed load per call.

use std::fmt;
use std::sync::{Arc, Mutex};

use lq_quant::backend::PackedWeights;
use lq_quant::mat::Mat;

use crate::affinity::PlacementPolicy;
use crate::api::KernelKind;
use crate::epilogue::Sink;
use crate::microkernel::{APanels, SIMD_STRIP};
use crate::runtime::{CallCtx, WorkerPool};
use crate::serial::{check_shapes, serial_tiles};
use crate::simd::SimdVariant;
use crate::telemetry::{call_span, PipeMetrics};

/// Parallel execution parameters.
///
/// Construct via [`ParallelConfig::builder`] (validating) or
/// [`ParallelConfig::default`]. The fields stay public for
/// introspection and for tests that deliberately build degenerate
/// configs; production call sites should go through the builder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelConfig {
    /// Worker threads. Used when sizing a pool
    /// ([`crate::LiquidGemm::builder`]); ignored by per-call overrides —
    /// a persistent pool's thread count is fixed at build time.
    pub workers: usize,
    /// Output channels per task (the fine-grained task size).
    pub task_rows: usize,
    /// Worker-to-CPU placement policy. Like `workers`, this is a
    /// pool-sizing parameter: it takes effect when the pool is built
    /// ([`crate::LiquidGemm::builder`]) and is ignored by per-call
    /// overrides. Defaults to [`PlacementPolicy::Unpinned`].
    pub placement: PlacementPolicy,
}

impl Default for ParallelConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            task_rows: SIMD_STRIP,
            placement: PlacementPolicy::Unpinned,
        }
    }
}

impl ParallelConfig {
    /// Start building a validated config (defaults as [`Default`]).
    #[must_use]
    pub fn builder() -> ParallelConfigBuilder {
        ParallelConfigBuilder::default()
    }
}

/// Why a [`ParallelConfig`] (or [`crate::LiquidGemmBuilder`]) was
/// rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// `workers == 0`: the pool would never execute anything.
    ZeroWorkers,
    /// `task_rows == 0`: tasks would cover no output channels.
    ZeroTaskRows,
    /// A microkernel variant was forced
    /// ([`crate::LiquidGemmBuilder::force_microkernel`]) that the
    /// running CPU does not support.
    UnsupportedMicrokernel(SimdVariant),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroWorkers => write!(f, "workers must be >= 1"),
            ConfigError::ZeroTaskRows => write!(f, "task_rows must be >= 1"),
            ConfigError::UnsupportedMicrokernel(v) => {
                write!(f, "microkernel variant {:?} not supported by this CPU", v)
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Validating builder for [`ParallelConfig`].
#[derive(Debug, Clone)]
pub struct ParallelConfigBuilder {
    workers: usize,
    task_rows: usize,
    placement: PlacementPolicy,
}

impl Default for ParallelConfigBuilder {
    fn default() -> Self {
        let d = ParallelConfig::default();
        Self {
            workers: d.workers,
            task_rows: d.task_rows,
            placement: d.placement,
        }
    }
}

impl ParallelConfigBuilder {
    /// Worker threads (validated ≥ 1).
    #[must_use]
    pub fn workers(mut self, n: usize) -> Self {
        self.workers = n;
        self
    }

    /// Output channels per task (validated ≥ 1).
    #[must_use]
    pub fn task_rows(mut self, r: usize) -> Self {
        self.task_rows = r;
        self
    }

    /// Worker-to-CPU placement policy (applies at pool build time, like
    /// `workers`; any value is valid — pinning degrades to a no-op
    /// where the OS refuses it).
    #[must_use]
    pub fn placement(mut self, p: PlacementPolicy) -> Self {
        self.placement = p;
        self
    }

    /// Validate and produce the config.
    pub fn build(self) -> Result<ParallelConfig, ConfigError> {
        if self.workers == 0 {
            return Err(ConfigError::ZeroWorkers);
        }
        if self.task_rows == 0 {
            return Err(ConfigError::ZeroTaskRows);
        }
        Ok(ParallelConfig {
            workers: self.workers,
            task_rows: self.task_rows,
            placement: self.placement,
        })
    }
}

/// The one W4A8 driver: run `Yᵀ = W·Xᵀ` as tiles on the persistent
/// pool and return the flat `N×M` buffer of whatever `sink` makes of
/// each exact dot product (f32 epilogue for [`crate::LiquidGemm::gemm`],
/// exact i64 for row-parallel sharding). The calling thread is the one
/// producer: it publishes the call once — tile `t` is output channels
/// `[t·task_rows, …)` of `w`, read in place — and blocks until the
/// workers have claimed and finished every tile. `kind` decides what a
/// tile's body is:
///
/// * `Serial` — no pool: the strip loop over the whole matrix on the
///   calling thread.
/// * `ImFp`, `FlatParallel` — the fused strip loop: dequant of one tile
///   overlaps MMA of another across workers with no cross-stage data
///   movement (the same arm; see [`KernelKind::FlatParallel`]).
/// * `ExCp` — the tile materialises its whole INT8 intermediate, then
///   runs the MMA over it: the INT8 tile makes the RF↔SMEM round trip —
///   the overhead the paper measures against ImFP. Kept purely as the
///   ablation.
///
/// `variant` labels the call's telemetry series. Re-panics if a tile
/// panicked in a worker *and* exhausted the pool's retry budget
/// (transient faults are retried and never reach here; see the
/// self-healing notes in [`crate::runtime`]).
pub(crate) fn drive<S: Sink + 'static>(
    pool: &WorkerPool,
    x: &Mat<i8>,
    w: Arc<dyn PackedWeights>,
    cfg: ParallelConfig,
    kind: KernelKind,
    variant: &str,
    sink: S,
) -> Vec<S::Out> {
    let backend = w.backend().label();
    let _call = call_span(variant, backend);
    if kind == KernelKind::Serial {
        return serial_tiles(pool.microkernels(), x, w.as_ref(), &sink);
    }
    check_shapes(x, sink.act_scales(), w.as_ref());
    let (m, n) = (x.rows(), w.n());
    let task_rows = cfg.task_rows.max(1);
    let ctx = Arc::new(CallCtx {
        w,
        // One pass over the block — the same cost the pre-tiling runtime
        // paid to clone `x` into the call context.
        a: APanels::pack(x),
        sink,
        task_rows,
        split: kind == KernelKind::ExCp,
        out: Mutex::new(vec![S::Out::default(); n * m]),
        mk: pool.microkernels(),
        metrics: PipeMetrics::resolve(variant, backend).map(Arc::new),
    });
    if pool.run(ctx.clone(), n.div_ceil(task_rows)).is_err() {
        panic!("LiquidGemm tile job panicked on every retry (deterministic bug)")
    }
    let mut y_t = ctx.out.lock().expect("call output poisoned");
    std::mem::take(&mut *y_t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::epilogue::{assemble_output, ExactSum, ScaleEpilogue};
    use crate::microkernel::MicrokernelSet;
    use crate::packed::{PackedLqqLinear, PackedQoqLinear};
    use crate::reference::{gemm_i8_ref, max_abs_diff};
    use crate::serial::{w4a8_serial, w4a8_serial_with};
    use crate::shard::{KShardView, ShardView};
    use lq_quant::act::QuantizedActivations;
    use std::ops::Range;

    type Weights = Arc<dyn PackedWeights>;

    /// One weight input of the sweep: `w` presents rows `rows` and K
    /// columns `cols` of the backend's full pack.
    struct Window {
        label: &'static str,
        w: Weights,
        rows: Range<usize>,
        cols: Range<usize>,
    }

    fn fixture(m: usize, n: usize, k: usize) -> (Mat<i8>, Vec<f32>, Weights, Weights) {
        let xf = Mat::from_fn(m, k, |r, c| ((r * k + c) as f32 * 0.11).sin() * 2.0);
        let wf = Mat::from_fn(n, k, |r, c| ((r * k + c) as f32 * 0.05).cos());
        let qa = QuantizedActivations::quantize(&xf, None);
        let lqq = Arc::new(PackedLqqLinear::quantize(&wf, 64));
        let qoq = Arc::new(PackedQoqLinear::quantize(&wf, 64));
        (qa.q, qa.scales, lqq, qoq)
    }

    fn cfg(task_rows: usize) -> ParallelConfig {
        ParallelConfig::builder()
            .task_rows(task_rows)
            .build()
            .expect("valid test config")
    }

    /// The f32-sink driver call, assembled as `LiquidGemm::gemm` does.
    fn run(
        pool: &WorkerPool,
        x: &Mat<i8>,
        s: &[f32],
        w: &Weights,
        cfg: ParallelConfig,
        kind: KernelKind,
    ) -> Mat<f32> {
        let sink = ScaleEpilogue(s.to_vec());
        let y_t = drive(pool, x, Arc::clone(w), cfg, kind, "test", sink);
        assemble_output(y_t, x.rows(), w.n())
    }

    #[test]
    fn imfp_matches_serial_bit_exact() {
        let (x, s, lqq, _) = fixture(7, 33, 128);
        let want = w4a8_serial(&x, &s, lqq.as_ref());
        for workers in [1, 2, 4] {
            let pool = WorkerPool::new(workers);
            let got = run(&pool, &x, &s, &lqq, cfg(5), KernelKind::ImFp);
            assert_eq!(max_abs_diff(&got, &want), 0.0, "workers={workers}");
        }
    }

    #[test]
    fn excp_matches_serial_bit_exact() {
        let (x, s, lqq, _) = fixture(6, 20, 192);
        let want = w4a8_serial(&x, &s, lqq.as_ref());
        let pool = WorkerPool::new(4);
        let got = run(&pool, &x, &s, &lqq, cfg(3), KernelKind::ExCp);
        assert_eq!(max_abs_diff(&got, &want), 0.0);
    }

    #[test]
    fn flat_matches_serial_bit_exact() {
        let (x, s, lqq, _) = fixture(5, 17, 64);
        let want = w4a8_serial(&x, &s, lqq.as_ref());
        let pool = WorkerPool::new(3);
        let got = run(&pool, &x, &s, &lqq, cfg(4), KernelKind::FlatParallel);
        assert_eq!(max_abs_diff(&got, &want), 0.0);
    }

    #[test]
    fn qoq_variants_match_their_serial() {
        let (x, s, _, qoq) = fixture(4, 12, 128);
        let want = w4a8_serial(&x, &s, qoq.as_ref());
        let pool = WorkerPool::new(2);
        for kind in [KernelKind::ImFp, KernelKind::ExCp, KernelKind::FlatParallel] {
            let got = run(&pool, &x, &s, &qoq, cfg(4), kind);
            assert_eq!(max_abs_diff(&got, &want), 0.0, "{kind:?}");
        }
    }

    /// Every backend × weight window × pipeline kind × detected
    /// microkernel variant, through both sinks of the one driver. The
    /// windows are the full pack, a column view (rows `[n0, n1)`) and a
    /// K-slice view (groups `[g0, g0 + groups)`) over that same pack —
    /// every kind reads them through the one `(row, group)` dequant
    /// path, so this sweep is the oracle for the views' offsets. Per
    /// cell: the exact-sink tile is the integer reference GEMM on the
    /// window of the backend's own dequantized weights, replaying the
    /// epilogue on it reproduces the f32-sink output bit for bit, and
    /// that output equals the variant's serial kernel.
    #[test]
    fn every_backend_runs_every_pipeline_bit_exact_vs_its_serial() {
        use lq_quant::backend::registry;
        let (m, n, k, group) = (5, 22, 192, 64);
        let (x, s, _, _) = fixture(m, n, k);
        let wf = Mat::from_fn(n, k, |r, c| ((r * k + c) as f32 * 0.05).cos());
        let c = cfg(5);
        let (n0, n1, g0, groups) = (3, 17, 1, 2);
        for v in SimdVariant::detected() {
            let mk = MicrokernelSet::for_variant(v).expect("detected implies available");
            let pool = WorkerPool::with_faults(3, PlacementPolicy::Unpinned, mk, None);
            for backend in registry() {
                let full = backend.pack(&wf, group);
                let mut full_i8 = Mat::zeros(n, k);
                for j in 0..n {
                    for (g, dst) in full_i8.row_mut(j).chunks_mut(group).enumerate() {
                        full.dequant_block(j, 1, g, dst);
                    }
                }
                let windows = [
                    Window {
                        label: "full",
                        w: Arc::clone(&full),
                        rows: 0..n,
                        cols: 0..k,
                    },
                    Window {
                        label: "column view",
                        w: Arc::new(ShardView {
                            inner: Arc::clone(&full),
                            n0,
                            n1,
                        }),
                        rows: n0..n1,
                        cols: 0..k,
                    },
                    Window {
                        label: "K-slice view",
                        w: Arc::new(KShardView {
                            inner: Arc::clone(&full),
                            g0,
                            groups,
                        }),
                        rows: 0..n,
                        cols: g0 * group..(g0 + groups) * group,
                    },
                ];
                for win in windows {
                    let (w, window) = (win.w, win.label);
                    let (wn, wk, r0, k0) = (
                        win.rows.len(),
                        win.cols.len(),
                        win.rows.start,
                        win.cols.start,
                    );
                    assert_eq!((w.n(), w.k()), (wn, wk), "{window}");
                    assert_eq!(
                        w.channel_scales(),
                        &full.channel_scales()[win.rows],
                        "{window}"
                    );
                    let xw = Mat::from_fn(m, wk, |r, c| x.row(r)[k0 + c]);
                    let w_i8 = Mat::from_fn(wn, wk, |r, c| full_i8.row(r0 + r)[k0 + c]);
                    let want = w4a8_serial_with(mk, &xw, &s, w.as_ref());
                    let sums = gemm_i8_ref(&xw, &w_i8);
                    let ch = w.channel_scales();
                    for kind in [
                        KernelKind::Serial,
                        KernelKind::ImFp,
                        KernelKind::ExCp,
                        KernelKind::FlatParallel,
                    ] {
                        let at =
                            format!("backend {} {window} {kind:?} {}", backend.id(), v.label());
                        let exact = drive(&pool, &xw, Arc::clone(&w), c, kind, "test", ExactSum);
                        let got = run(&pool, &xw, &s, &w, c, kind);
                        assert_eq!(max_abs_diff(&got, &want), 0.0, "{at}");
                        for i in 0..m {
                            for j in 0..wn {
                                let sum = exact[j * m + i];
                                assert_eq!(sum, i64::from(*sums.get(i, j)), "{at} sum[{i}][{j}]");
                                assert_eq!(
                                    (sum as f32 * s[i] * ch[j]).to_bits(),
                                    got.get(i, j).to_bits(),
                                    "{at} epilogue replay [{i}][{j}]"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn task_rows_not_dividing_n_is_handled() {
        let (x, s, lqq, _) = fixture(3, 10, 64);
        let want = w4a8_serial(&x, &s, lqq.as_ref());
        let pool = WorkerPool::new(2);
        let got = run(&pool, &x, &s, &lqq, cfg(7), KernelKind::ImFp);
        assert_eq!(max_abs_diff(&got, &want), 0.0);
    }

    #[test]
    fn more_workers_than_tasks_is_safe() {
        let (x, s, lqq, _) = fixture(2, 4, 64);
        let want = w4a8_serial(&x, &s, lqq.as_ref());
        let pool = WorkerPool::new(16);
        let got = run(&pool, &x, &s, &lqq, cfg(4), KernelKind::ImFp);
        assert_eq!(max_abs_diff(&got, &want), 0.0);
    }

    #[test]
    fn one_pool_serves_interleaved_variants() {
        let (x, s, lqq, qoq) = fixture(3, 19, 128);
        let want_l = w4a8_serial(&x, &s, lqq.as_ref());
        let want_q = w4a8_serial(&x, &s, qoq.as_ref());
        let pool = WorkerPool::new(3);
        let c = cfg(4);
        for _ in 0..8 {
            let got = run(&pool, &x, &s, &lqq, c, KernelKind::ImFp);
            assert_eq!(max_abs_diff(&got, &want_l), 0.0);
            let got = run(&pool, &x, &s, &qoq, c, KernelKind::ExCp);
            assert_eq!(max_abs_diff(&got, &want_q), 0.0);
            let got = run(&pool, &x, &s, &lqq, c, KernelKind::FlatParallel);
            assert_eq!(max_abs_diff(&got, &want_l), 0.0);
        }
    }

    #[test]
    fn config_builder_validates() {
        assert!(ParallelConfig::builder().build().is_ok());
        // A default tile is whole SIMD strips: no worker multiplies the
        // zero rows of a half-empty strip.
        assert_eq!(ParallelConfig::default().task_rows % SIMD_STRIP, 0);
        assert_eq!(
            ParallelConfig::builder().workers(0).build(),
            Err(ConfigError::ZeroWorkers)
        );
        assert_eq!(
            ParallelConfig::builder().task_rows(0).build(),
            Err(ConfigError::ZeroTaskRows)
        );
        // Errors render human-readable messages.
        assert!(ConfigError::ZeroTaskRows.to_string().contains("task_rows"));
    }
}
