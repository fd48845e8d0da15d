//! The parallel W4A8 kernel: one tile-job driver (`drive`) over the
//! persistent [`WorkerPool`] (see [`crate::runtime`]). Flat
//! data-parallel, the explicit coarse-grained pipeline (ExCP) and the
//! implicit fine-grained pipeline (ImFP) are the same driver, the same
//! strip kernel ([`crate::serial`]) and the same reply path — a
//! [`KernelKind`] only decides how tiles are staged.
//!
//! Mapping of the paper's Hopper structures (Figure 6) onto the pool:
//!
//! | paper                         | here                                   |
//! |-------------------------------|----------------------------------------|
//! | persistent kernel (§5.4)      | the long-lived worker threads owned by |
//! |                               | a [`crate::LiquidGemm`] handle         |
//! | Load WG issuing TMA           | the calling thread inside `drive`,     |
//! |                               | copying packed weight tiles into stage |
//! |                               | buffers                                |
//! | SMEM stages                   | ImFP/ExCP: the ring of `cfg.stages`    |
//! |                               | owned `Vec<u32>` buffers circulating   |
//! |                               | caller → worker → free; Flat: a fresh  |
//! |                               | buffer per tile, no bound              |
//! | Compute WG (dequant + MMA)    | a Compute job: the strip kernel over   |
//! |                               | one staged tile — dequant a K block    |
//! |                               | into an L1-sized buffer, MMA it at     |
//! |                               | once (no round trip)                   |
//! | Dequant WG → SMEM → MMA WG    | ExCP only: a Dequant job materialises  |
//! |                               | the whole INT8 tile, then forwards an  |
//! |                               | Mma job that re-reads it               |
//! | mbarrier sync between WGs     | the extra queue hop in ExCP            |
//! | hardware task scheduling      | one deque pop (or steal) per job       |
//! | epilogue / output fragment    | the call's `Sink`: f32 scale           |
//! |                               | application, or exact i64 sums for the |
//! |                               | row-parallel all-reduce                |
//!
//! Every kind computes `Yᵀ = W·Xᵀ` — the paper's Section 5.4 rewrite —
//! so each task (a block of output channels) owns a *contiguous* slice
//! of the transposed output; workers return owned tiles the caller
//! stitches together, and the final transpose is the trailing `ᵀ`.
//! Integer accumulation is exact, so every kind stays bit-identical to
//! the serial kernel regardless of worker interleaving (tests at the
//! bottom, in `tests/props.rs`, and under concurrency in
//! `tests/runtime_stress.rs`).
//!
//! ## Telemetry
//!
//! When [`lq_telemetry::enable`] has been called, a call records
//! whole-call latency (`lq_gemm_ns`), per-role task spans
//! (`lq_pipeline_task_ns`), would-block stalls on the stage ring
//! (`lq_pipeline_stall_total{role="load"}` — the CPU analog of the
//! warp-group stalls behind the paper's Fig. 10/13), task counts, and
//! queue-occupancy gauges, all labelled with the call's `variant`
//! (`flat`/`imfp`/`excp`, and `flat_raw` for the row-parallel shards'
//! exact-sum calls); the pool itself exports queue depth and
//! per-worker busy/steal counters (see [`crate::runtime`]). Disabled
//! (the default), instrumentation is a single relaxed load per call.

use std::fmt;
use std::sync::Arc;

use lq_quant::backend::PackedWeights;
use lq_quant::mat::Mat;

use crate::affinity::PlacementPolicy;
use crate::api::KernelKind;
use crate::epilogue::Sink;
use crate::microkernel::APanels;
use crate::runtime::{CallCtx, Job, Reply, Staged, TileCall, WorkerPool};
use crate::serial::{check_shapes, serial_tiles};
use crate::simd::SimdVariant;
use crate::sync::{bounded, Receiver};
use crate::telemetry::{call_span, recv_counting, PipeMetrics};

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
    /// Staging buffers in flight (the "SMEM stage" count).
    pub stages: usize,
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
            task_rows: 8,
            stages: 8,
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
    /// `stages < 2` (value attached): a stage ring needs at least
    /// double buffering for load to overlap compute.
    TooFewStages(usize),
    /// `task_rows == 0`: tasks would cover no output channels.
    ZeroTaskRows,
    /// `queue_depth == 0`: the injector queue could hold no jobs.
    ZeroQueueDepth,
    /// A microkernel variant was forced
    /// ([`crate::LiquidGemmBuilder::force_microkernel`]) that the
    /// running CPU does not support.
    UnsupportedMicrokernel(SimdVariant),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroWorkers => write!(f, "workers must be >= 1"),
            ConfigError::TooFewStages(s) => {
                write!(f, "stages must be >= 2 for double buffering (got {s})")
            }
            ConfigError::ZeroTaskRows => write!(f, "task_rows must be >= 1"),
            ConfigError::ZeroQueueDepth => write!(f, "queue_depth must be >= 1"),
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
    stages: usize,
    placement: PlacementPolicy,
}

impl Default for ParallelConfigBuilder {
    fn default() -> Self {
        let d = ParallelConfig::default();
        Self {
            workers: d.workers,
            task_rows: d.task_rows,
            stages: d.stages,
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

    /// Staging buffers in flight (validated ≥ 2).
    #[must_use]
    pub fn stages(mut self, s: usize) -> Self {
        self.stages = s;
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
        if self.stages < 2 {
            return Err(ConfigError::TooFewStages(self.stages));
        }
        if self.task_rows == 0 {
            return Err(ConfigError::ZeroTaskRows);
        }
        Ok(ParallelConfig {
            workers: self.workers,
            task_rows: self.task_rows,
            stages: self.stages,
            placement: self.placement,
        })
    }
}

/// Collect exactly `tasks` tile replies into the flat `N×M` buffer
/// (`Yᵀ`; tile `j0` lands at `j0·m`). Re-panics if any job panicked in
/// a worker *and* exhausted the pool's retry budget (transient faults
/// are retried and never reach here; see the self-healing notes in
/// [`crate::runtime`]).
fn collect_tiles<T: Copy + Default>(
    rx: &Receiver<Reply<T>>,
    tasks: usize,
    m: usize,
    n: usize,
    epoch: u64,
) -> Vec<T> {
    let mut y_t = vec![T::default(); n * m];
    for _ in 0..tasks {
        match rx.recv() {
            Ok(Reply::Done { j0, out, epoch: e }) => {
                debug_assert_eq!(e, epoch, "cross-call reply mix-up");
                let dst = j0 * m;
                y_t[dst..dst + out.len()].copy_from_slice(&out);
            }
            Ok(Reply::Panicked) => {
                panic!("LiquidGemm tile job panicked on every retry (deterministic bug)")
            }
            Err(_) => unreachable!("reply channel closed before all tiles arrived"),
        }
    }
    y_t
}

/// The one W4A8 driver: run `Yᵀ = W·Xᵀ` as tile jobs on the persistent
/// pool and return the flat `N×M` buffer of whatever `sink` makes of
/// each exact dot product (f32 epilogue for [`crate::LiquidGemm::gemm`],
/// exact i64 for row-parallel sharding). `kind` decides only how tiles
/// are staged:
///
/// * `Serial` — no pool: the strip loop over the whole matrix on the
///   calling thread.
/// * `FlatParallel` — the caller eagerly stages every tile into a
///   fresh buffer, blocking only on the pool's queue capacity. The
///   "pipeline off" arm of the Figure 13 ablation.
/// * `ImFp` — the calling thread is the Load stage, streaming packed
///   tiles into `cfg.stages` recycled buffers (the SMEM ring); workers
///   run fused dequant+MMA jobs, so dequantization of one tile
///   overlaps MMA of another with no cross-stage data movement. When
///   every stage buffer is in flight the caller blocks on the free
///   ring (backpressure; counted as a `load` stall).
/// * `ExCp` — the same ring, but each tile is submitted as a Dequant
///   job that materialises the whole INT8 tile and forwards an Mma job
///   onto the executing worker's own deque (LIFO, so the tile is still
///   hot; idle workers may steal it). Each tile crosses the queue
///   twice and the INT8 intermediate makes the RF↔SMEM round trip —
///   the overhead the paper measures against ImFP. Kept purely as the
///   ablation.
///
/// `variant` labels the call's telemetry series.
pub(crate) fn drive<S: Sink + 'static>(
    pool: &WorkerPool,
    x: &Mat<i8>,
    w: &dyn PackedWeights,
    cfg: ParallelConfig,
    kind: KernelKind,
    variant: &str,
    sink: S,
) -> Vec<S::Out> {
    if kind == KernelKind::Serial {
        return serial_tiles(pool.microkernels(), x, w, &sink);
    }
    check_shapes(x, sink.act_scales(), w);
    let backend = w.backend().label();
    let _call = call_span(variant, backend);
    let metrics = PipeMetrics::resolve(variant, backend).map(Arc::new);
    let (m, n) = (x.rows(), w.n());
    let task_rows = cfg.task_rows.max(1);
    let tasks = n.div_ceil(task_rows);
    // The free ring (ImFP/ExCP): capacity covers every buffer that can
    // exist at once, so recycling sends never block inside workers.
    let (free_tx, free_rx) = (kind != KernelKind::FlatParallel)
        .then(|| {
            let stages = cfg.stages.max(1);
            let (free_tx, free_rx) = bounded::<Vec<u32>>(stages + pool.workers() + 1);
            for _ in 0..stages {
                free_tx.send(Vec::new()).expect("prefill free ring");
            }
            (free_tx, free_rx)
        })
        .unzip();
    let (reply_tx, reply_rx) = bounded(tasks.max(1));
    let epoch = pool.next_epoch();
    let ctx: Arc<dyn TileCall> = Arc::new(CallCtx {
        // One pass over the block — the same cost the pre-tiling runtime
        // paid to clone `x` into the call context.
        a: APanels::pack(x),
        sink,
        reply: reply_tx,
        recycle: free_tx.clone(),
        epoch,
        mk: pool.microkernels(),
        metrics: metrics.clone(),
    });
    for t in 0..tasks {
        let j0 = t * task_rows;
        let j1 = (j0 + task_rows).min(n);
        let mut words = match &free_rx {
            Some(free_rx) => {
                let stall = metrics.as_ref().map(|mx| &mx.stall_load);
                recv_counting(free_rx, stall).expect("free ring closed")
            }
            None => Vec::new(),
        };
        let load_t0 = lq_trace::enabled().then(std::time::Instant::now);
        {
            let _span = metrics.as_ref().map(|mx| mx.task_ns_load.span_owned());
            words.clear();
            words.extend_from_slice(w.rows_words(j0, j1));
        }
        if let Some(t0) = load_t0 {
            lq_trace::span(
                lq_trace::EventKind::StageLoad,
                lq_trace::Track::Control,
                j0 as u64,
                0,
                t0,
            );
        }
        let tile = Staged {
            j0,
            rows: j1 - j0,
            words,
            quant: w.tile_dequant(j0, j1),
        };
        let ctx = Arc::clone(&ctx);
        pool.submit(if kind == KernelKind::ExCp {
            Job::Dequant { ctx, tile }
        } else {
            Job::Compute { ctx, tile }
        });
        if let Some(mx) = &metrics {
            mx.depth_task.set(pool.queue_len() as f64);
        }
    }
    drop(ctx);
    drop(free_tx);
    collect_tiles(&reply_rx, tasks, m, n, epoch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::epilogue::{assemble_output, ExactSum, ScaleEpilogue};
    use crate::microkernel::MicrokernelSet;
    use crate::packed::{PackedLqqLinear, PackedQoqLinear};
    use crate::reference::{gemm_i8_ref, max_abs_diff};
    use crate::serial::{w4a8_serial, w4a8_serial_with};
    use lq_quant::act::QuantizedActivations;

    fn fixture(
        m: usize,
        n: usize,
        k: usize,
    ) -> (Mat<i8>, Vec<f32>, PackedLqqLinear, PackedQoqLinear) {
        let xf = Mat::from_fn(m, k, |r, c| ((r * k + c) as f32 * 0.11).sin() * 2.0);
        let wf = Mat::from_fn(n, k, |r, c| ((r * k + c) as f32 * 0.05).cos());
        let qa = QuantizedActivations::quantize(&xf, None);
        let lqq = PackedLqqLinear::quantize(&wf, 64);
        let qoq = PackedQoqLinear::quantize(&wf, 64);
        (qa.q, qa.scales, lqq, qoq)
    }

    fn cfg(task_rows: usize, stages: usize) -> ParallelConfig {
        ParallelConfig::builder()
            .task_rows(task_rows)
            .stages(stages)
            .build()
            .expect("valid test config")
    }

    /// The f32-sink driver call, assembled as `LiquidGemm::gemm` does.
    fn run(
        pool: &WorkerPool,
        x: &Mat<i8>,
        s: &[f32],
        w: &dyn PackedWeights,
        cfg: ParallelConfig,
        kind: KernelKind,
    ) -> Mat<f32> {
        let y_t = drive(pool, x, w, cfg, kind, "test", ScaleEpilogue(s.to_vec()));
        assemble_output(y_t, x.rows(), w.n())
    }

    #[test]
    fn imfp_matches_serial_bit_exact() {
        let (x, s, lqq, _) = fixture(7, 33, 128);
        let want = w4a8_serial(&x, &s, &lqq);
        for workers in [1, 2, 4] {
            let pool = WorkerPool::new(workers, 16);
            let got = run(&pool, &x, &s, &lqq, cfg(5, 3), KernelKind::ImFp);
            assert_eq!(max_abs_diff(&got, &want), 0.0, "workers={workers}");
        }
    }

    #[test]
    fn excp_matches_serial_bit_exact() {
        let (x, s, lqq, _) = fixture(6, 20, 192);
        let want = w4a8_serial(&x, &s, &lqq);
        let pool = WorkerPool::new(4, 16);
        let got = run(&pool, &x, &s, &lqq, cfg(3, 2), KernelKind::ExCp);
        assert_eq!(max_abs_diff(&got, &want), 0.0);
    }

    #[test]
    fn flat_matches_serial_bit_exact() {
        let (x, s, lqq, _) = fixture(5, 17, 64);
        let want = w4a8_serial(&x, &s, &lqq);
        let pool = WorkerPool::new(3, 16);
        let got = run(&pool, &x, &s, &lqq, cfg(4, 2), KernelKind::FlatParallel);
        assert_eq!(max_abs_diff(&got, &want), 0.0);
    }

    #[test]
    fn qoq_variants_match_their_serial() {
        let (x, s, _, qoq) = fixture(4, 12, 128);
        let want = w4a8_serial(&x, &s, &qoq);
        let pool = WorkerPool::new(2, 16);
        for kind in [KernelKind::ImFp, KernelKind::ExCp, KernelKind::FlatParallel] {
            let got = run(&pool, &x, &s, &qoq, cfg(4, 2), kind);
            assert_eq!(max_abs_diff(&got, &want), 0.0, "{kind:?}");
        }
    }

    /// Every backend × pipeline kind × detected microkernel variant,
    /// through both sinks of the one driver: the exact-sink tile is the
    /// integer reference GEMM on the backend's own dequantized weights,
    /// replaying the epilogue on it reproduces the f32-sink output bit
    /// for bit, and that output equals the variant's serial kernel.
    #[test]
    fn every_backend_runs_every_pipeline_bit_exact_vs_its_serial() {
        use lq_quant::backend::registry;
        let (m, n, k, group) = (5, 22, 128, 64);
        let (x, s, _, _) = fixture(m, n, k);
        let wf = Mat::from_fn(n, k, |r, c| ((r * k + c) as f32 * 0.05).cos());
        let c = cfg(5, 2);
        for v in SimdVariant::detected() {
            let mk = MicrokernelSet::for_variant(v).expect("detected implies available");
            let pool = WorkerPool::with_faults(3, 16, PlacementPolicy::Unpinned, mk, None);
            for backend in registry() {
                let packed = backend.pack(&wf, group);
                let w = packed.as_ref();
                let want = w4a8_serial_with(mk, &x, &s, w);
                let mut w_i8 = Mat::zeros(n, k);
                for j in 0..n {
                    for g in 0..k / group {
                        w.dequant_row_group(j, g, &mut w_i8.row_mut(j)[g * group..(g + 1) * group]);
                    }
                }
                let sums = gemm_i8_ref(&x, &w_i8);
                let ch = w.channel_scales();
                for kind in [
                    KernelKind::Serial,
                    KernelKind::ImFp,
                    KernelKind::ExCp,
                    KernelKind::FlatParallel,
                ] {
                    let at = format!("backend {} {kind:?} {}", backend.id(), v.label());
                    let exact = drive(&pool, &x, w, c, kind, "test", ExactSum);
                    let got = run(&pool, &x, &s, w, c, kind);
                    assert_eq!(max_abs_diff(&got, &want), 0.0, "{at}");
                    for i in 0..m {
                        for j in 0..n {
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

    #[test]
    fn task_rows_not_dividing_n_is_handled() {
        let (x, s, lqq, _) = fixture(3, 10, 64);
        let want = w4a8_serial(&x, &s, &lqq);
        let pool = WorkerPool::new(2, 16);
        let got = run(&pool, &x, &s, &lqq, cfg(7, 2), KernelKind::ImFp);
        assert_eq!(max_abs_diff(&got, &want), 0.0);
    }

    #[test]
    fn more_workers_than_tasks_is_safe() {
        let (x, s, lqq, _) = fixture(2, 4, 64);
        let want = w4a8_serial(&x, &s, &lqq);
        let pool = WorkerPool::new(16, 32);
        let got = run(&pool, &x, &s, &lqq, cfg(4, 8), KernelKind::ImFp);
        assert_eq!(max_abs_diff(&got, &want), 0.0);
    }

    #[test]
    fn one_pool_serves_interleaved_variants() {
        let (x, s, lqq, qoq) = fixture(3, 19, 128);
        let want_l = w4a8_serial(&x, &s, &lqq);
        let want_q = w4a8_serial(&x, &s, &qoq);
        let pool = WorkerPool::new(3, 8);
        let c = cfg(4, 2);
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
        assert_eq!(
            ParallelConfig::builder().workers(0).build(),
            Err(ConfigError::ZeroWorkers)
        );
        assert_eq!(
            ParallelConfig::builder().stages(1).build(),
            Err(ConfigError::TooFewStages(1))
        );
        assert_eq!(
            ParallelConfig::builder().task_rows(0).build(),
            Err(ConfigError::ZeroTaskRows)
        );
        // Errors render human-readable messages.
        assert!(ConfigError::TooFewStages(1).to_string().contains("got 1"));
    }
}
