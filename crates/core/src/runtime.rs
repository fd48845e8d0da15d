//! Persistent worker-pool GEMM runtime — the paper's Section 5.4
//! persistent kernel, owned by a handle instead of re-created per call.
//!
//! The paper keeps one kernel resident on the GPU and lets long-lived
//! warp groups *pull* tile work, so no launch pays setup cost twice.
//! The CPU analog: [`LiquidGemm`] owns a [`WorkerPool`] of persistent
//! threads created once at `build()`; every `gemm` call places tile
//! jobs onto the pool and collects per-tile results off a per-call
//! reply channel. `lq_sim::persistent::{makespan_wave,
//! makespan_persistent}` is the analytical model of exactly this
//! wave-launch vs persistent-pool trade-off.
//!
//! ## Work-stealing tile scheduler
//!
//! Jobs no longer funnel through a single shared MPMC queue (which let
//! whichever worker won the condvar race drain everything — the ~5×
//! busy-ns imbalance in the pre-PR-4 bench snapshot). Instead each
//! worker owns a deque and work flows three ways:
//!
//! * **Placement**: external submissions are dealt round-robin onto the
//!   workers' deques (`push_front`), so every worker has a designated
//!   share and is woken directly (its deque's condvar) — the CPU image
//!   of QServe-style static warp assignment.
//! * **LIFO local / FIFO steal**: an owner pops its own deque from the
//!   back — so a job it *forwarded to itself* (the ExCP Dequant→MMA
//!   hop) runs next while the tile is cache-hot — while thieves steal
//!   from the front, taking the work the owner would reach last.
//! * **Stealing**: a worker that finds its own deque and the global
//!   injector empty sweeps the other deques before parking with a
//!   short timeout (work conservation even when a wakeup is missed).
//!   Steals are counted per worker ([`WorkerPool::worker_stats`] and
//!   `lq_pool_steal_total{worker=…}`).
//!
//! Total queued jobs are bounded by `queue_depth`: external submitters
//! block on the capacity gate, restoring the old bounded-injector
//! backpressure. Worker self-forwards are exempt (a worker blocking on
//! its own pool's capacity would deadlock) — the transient excess is at
//! most one job per worker.
//!
//! A tile job is a row range, not a copy: `lq-core` denies `unsafe`
//! outside the two leaf modules ([`crate::simd`], [`crate::affinity`]),
//! so the rayon-style lifetime-erased scoped pool is off the table and
//! a job must be `'static` — but packed weights already live behind an
//! `Arc<dyn PackedWeights>`, which is exactly that. A job is therefore
//! `{ctx, j0, rows}`: an `Arc` of the per-call context (the shared
//! weights, packed activation panels, the sink with its scales, the
//! reply sender) and the output channels it covers; it dequantizes
//! straight from the shared weights through the same
//! [`PackedWeights::dequant_row_group`] the serial kernel calls.
//! Workers compute into owned output chunks and send them back; the
//! caller assembles and transposes. Integer accumulation is exact, so
//! results stay bit-identical to the serial kernels no matter which
//! worker runs which tile in which order.
//!
//! Epoch stamps: every call takes a fresh epoch from the pool's
//! `AtomicU64`; replies carry it so a debug build catches any cross-call
//! mix-up (each call has a private reply channel, so in release this is
//! belt and braces).
//!
//! Shutdown: dropping the pool flips the shared `shutdown` flag and
//! wakes everyone; a worker exits only when the flag is set *and* no
//! jobs remain queued anywhere (drain-and-exit — a LIFO deque would
//! pop a poison pill before older queued work, so pills are gone).
//!
//! ## Self-healing (quarantine, retry, respawn)
//!
//! A panic inside a job is caught with `catch_unwind`, but instead of
//! propagating to the caller the pool heals itself:
//!
//! 1. The job — `{ctx, j0, rows}` — survives the unwind (the caught
//!    closure only *borrows* it), so the worker requeues it on the
//!    global injector for another worker — non-blocking, with a small
//!    attempts-proportional backoff, up to [`MAX_JOB_RETRIES`] times.
//!    Integer accumulation keeps the retried result bit-exact with the
//!    serial kernels.
//! 2. The panicked worker is quarantined: it records the restart
//!    (`worker_stats().restarts`, `lq_pool_worker_restarts_total`),
//!    spawns its own replacement thread under the lifecycle lock
//!    (skipped when shutdown has begun), and exits. Replacement
//!    handles register in the same lifecycle state drop joins, so no
//!    thread is ever leaked.
//! 3. Only when a job exhausts its retry budget does the caller see a
//!    `Panicked` reply (which re-panics there — a deterministic bug,
//!    not a transient fault).
//!
//! Fault injection for tests threads a shared
//! [`lq_chaos::FaultInjector`] through [`LiquidGemmBuilder::fault_injector`]:
//! workers consult it before each *fresh* job (retries are exempt, so
//! injected panics model transient faults and recovery stays
//! deterministic) and submitters consult it for stall bursts. Without
//! an injector every hook is one `Option` check — the PR 4 hot path is
//! unchanged.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

use lq_chaos::{FaultAction, FaultInjector};
use lq_quant::backend::{BackendId, PackedWeights};
use lq_quant::mat::Mat;
use lq_telemetry::Gauge;

use crate::affinity::{self, PlacementPolicy};
use crate::api::{GemmOutput, KernelKind, W4A8Weights};
use crate::epilogue::{assemble_output, ScaleEpilogue, Sink};
use crate::microkernel::{APanels, MicrokernelSet};
use crate::pipeline::{drive, ConfigError, ParallelConfig};
use crate::serial::{dense_kernel, materialize_tile, strip_kernel};
use crate::simd::SimdVariant;
use crate::sync::{bounded, Sender};
use crate::telemetry::{pool_fault_metrics, PipeMetrics, WorkerMetrics};

/// Per-call shared state of a GEMM call's tile jobs: the weights, the
/// packed activations, the output sink and the reply channel. Generic
/// over the call's [`Sink`]; jobs hold it as an
/// `Arc<dyn `[`TileCall`]`>`.
pub(crate) struct CallCtx<S: Sink> {
    /// The call's packed weights (or a shard's view of them), shared
    /// with the caller — jobs read their row range in place.
    pub(crate) w: Arc<dyn PackedWeights>,
    /// INT8 activations packed into register-tile panels — built once
    /// per call so jobs are `'static` (the same single pass over the
    /// block that cloning the matrix used to cost).
    pub(crate) a: APanels,
    /// What becomes of each exact dot product (f32 epilogue with the
    /// call's activation scales, or exact i64).
    pub(crate) sink: S,
    /// Where finished tiles go.
    pub(crate) reply: Sender<Reply<S::Out>>,
    /// Epoch stamped on every reply of this call.
    pub(crate) epoch: u64,
    /// Microkernel family every tile job of this call computes with
    /// (captured from the pool at call setup — one resolved dispatch
    /// per call, not per tile).
    pub(crate) mk: MicrokernelSet,
    /// Per-variant pipeline metrics (None when telemetry is off).
    pub(crate) metrics: Option<Arc<PipeMetrics>>,
}

/// A finished (or failed) tile travelling back to the calling thread.
pub(crate) enum Reply<T> {
    /// Rows `[j0, j0 + out.len()/m)` of `Yᵀ`, flat `rows×m`, in the
    /// call's sink output type.
    Done { j0: usize, out: Vec<T>, epoch: u64 },
    /// The job panicked; the caller re-panics.
    Panicked,
}

/// The trace identity of one job attempt's stage span: stage spans
/// carry the submitting request's correlation ID, not the worker's.
pub(crate) struct StageSpan {
    t0: Option<std::time::Instant>,
    worker: u32,
    corr: u64,
}

impl StageSpan {
    fn record(&self, kind: lq_trace::EventKind, j0: usize, rows: usize) {
        if let Some(t0) = self.t0 {
            lq_trace::span_full(
                kind,
                lq_trace::Track::Worker(self.worker),
                self.corr,
                j0 as u64,
                rows as u64,
                t0,
                0,
            );
        }
    }
}

/// A call as its tile jobs see it, with the sink's output type erased:
/// one virtual call per job stage, none per element. Tiles are output
/// channels `[j0, j0 + rows)` of the call's weights.
pub(crate) trait TileCall: Send + Sync {
    /// Fused dequant+MMA over a tile (Flat and ImFP): compute, reply.
    fn compute(&self, j0: usize, rows: usize, span: &StageSpan);
    /// ExCP stage 2: materialise the tile as row-major `rows×k` INT8.
    fn dequant(&self, j0: usize, rows: usize, span: &StageSpan) -> Vec<i8>;
    /// ExCP stage 3: dot products from a materialised INT8 tile; reply.
    fn mma(&self, j0: usize, tile: &[i8], span: &StageSpan);
    /// Report a job that exhausted its retry budget, so the caller
    /// un-blocks (and re-panics — see `collect_tiles`).
    fn abandon(&self);
}

impl<S: Sink> CallCtx<S> {
    /// Common tail of successful Compute/Mma jobs: count the task and
    /// reply. Send failures mean the caller is gone (it panicked or
    /// was dropped) and are deliberately ignored.
    fn finish(&self, j0: usize, out: Vec<S::Out>) {
        if let Some(mx) = &self.metrics {
            mx.tasks.inc();
        }
        let _ = self.reply.send(Reply::Done {
            j0,
            out,
            epoch: self.epoch,
        });
    }
}

impl<S: Sink> TileCall for CallCtx<S> {
    fn compute(&self, j0: usize, rows: usize, span: &StageSpan) {
        let m = self.a.m();
        let mut out = vec![S::Out::default(); rows * m];
        {
            let _span = self
                .metrics
                .as_ref()
                .map(|mx| mx.task_ns_compute.span_owned());
            let ch = &self.w.channel_scales()[j0..j0 + rows];
            strip_kernel(self.mk, &self.a, self.w.as_ref(), (j0, rows), |j, i, s| {
                out[j * m + i] = self.sink.emit(i, ch[j], s);
            });
        }
        span.record(lq_trace::EventKind::StageCompute, j0, rows);
        self.finish(j0, out);
    }

    fn dequant(&self, j0: usize, rows: usize, span: &StageSpan) -> Vec<i8> {
        let tile = {
            let _span = self
                .metrics
                .as_ref()
                .and_then(|mx| mx.task_ns_dequant.as_ref().map(|h| h.span_owned()));
            materialize_tile(self.w.as_ref(), j0, rows)
        };
        span.record(lq_trace::EventKind::StageDequant, j0, rows);
        tile
    }

    fn mma(&self, j0: usize, tile: &[i8], span: &StageSpan) {
        let (m, k) = (self.a.m(), self.w.k());
        let rows = tile.len() / k;
        let mut out = vec![S::Out::default(); rows * m];
        {
            let _span = self
                .metrics
                .as_ref()
                .and_then(|mx| mx.task_ns_mma.as_ref().map(|h| h.span_owned()));
            let ch = &self.w.channel_scales()[j0..j0 + rows];
            dense_kernel(self.mk, &self.a, tile, (rows, k), |j, i, s| {
                out[j * m + i] = self.sink.emit(i, ch[j], s);
            });
        }
        span.record(lq_trace::EventKind::StageMma, j0, rows);
        self.finish(j0, out);
    }

    fn abandon(&self) {
        let _ = self.reply.send(Reply::Panicked);
    }
}

/// One unit of work on a worker deque. A tile job names output
/// channels `[j0, j0 + rows)` of its call's shared weights; nothing but
/// ExCP's materialised intermediate is ever copied into a job.
pub(crate) enum Job {
    /// Fused dequant+MMA over a tile (Flat and ImFP variants).
    Compute {
        ctx: Arc<dyn TileCall>,
        j0: usize,
        rows: usize,
    },
    /// ExCP stage 2: materialise the INT8 tile, then forward an [`Job::Mma`].
    Dequant {
        ctx: Arc<dyn TileCall>,
        j0: usize,
        rows: usize,
    },
    /// ExCP stage 3: dot products from a materialised INT8 tile.
    Mma {
        ctx: Arc<dyn TileCall>,
        j0: usize,
        tile: Vec<i8>,
    },
    /// Test-only: panic inside the worker (exercises containment).
    Panic { reply: Sender<Reply<f32>> },
}

impl Job {
    /// Run one attempt, borrowing the job so it survives an unwind.
    /// Returns the job this one forwards onto the executing worker's
    /// deque (the ExCP Dequant→MMA hop), if any.
    fn run(&self, span: &StageSpan) -> Option<Job> {
        match self {
            Job::Compute { ctx, j0, rows } => {
                ctx.compute(*j0, *rows, span);
                None
            }
            Job::Dequant { ctx, j0, rows } => Some(Job::Mma {
                ctx: Arc::clone(ctx),
                j0: *j0,
                tile: ctx.dequant(*j0, *rows, span),
            }),
            Job::Mma { ctx, j0, tile } => {
                ctx.mma(*j0, tile, span);
                None
            }
            Job::Panic { .. } => panic!("injected worker panic"),
        }
    }

    /// Last resort when the retry budget is exhausted: report the
    /// failure on the job's reply channel.
    fn abandon(self) {
        match self {
            Job::Compute { ctx, .. } | Job::Dequant { ctx, .. } | Job::Mma { ctx, .. } => {
                ctx.abandon();
            }
            Job::Panic { reply } => {
                let _ = reply.send(Reply::Panicked);
            }
        }
    }
}

/// How many times a panicked job is retried on another worker before
/// its caller sees the failure. Injected (transient) faults never
/// recur on retry; a *deterministic* bug exhausts the budget fast
/// instead of looping forever.
const MAX_JOB_RETRIES: u8 = 3;

/// A queued job plus its retry count and trace identity. Fresh
/// submissions and worker self-forwards start at 0 attempts; each
/// panic-requeue increments it. `id`/`corr` are 0 unless tracing was
/// enabled at enqueue time; both survive retries, so a retried job's
/// whole history shares one timeline in the trace.
pub(crate) struct Tracked {
    job: Job,
    attempts: u8,
    /// Process-unique trace job ID (0 = untraced).
    id: u64,
    /// Causal correlation ID captured from the submitting thread's
    /// [`lq_trace::corr_scope`] (0 = none).
    corr: u64,
}

impl Tracked {
    fn fresh(job: Job) -> Self {
        let (id, corr) = if lq_trace::enabled() {
            (lq_trace::fresh_job_id(), lq_trace::current_corr())
        } else {
            (0, 0)
        };
        Self {
            job,
            attempts: 0,
            id,
            corr,
        }
    }

    /// A worker self-forward (the ExCP Dequant→MMA hop): new job, but
    /// the *submitting request's* correlation — the worker thread's own
    /// scope is not the causal parent.
    fn forward(job: Job, corr: u64) -> Self {
        let id = if lq_trace::enabled() {
            lq_trace::fresh_job_id()
        } else {
            0
        };
        Self {
            job,
            attempts: 0,
            id,
            corr,
        }
    }
}

/// One worker's deque plus the condvar its owner parks on. The deque
/// mutex doubles as the park lock, so a push under the lock followed by
/// `notify_one` can never lose a wakeup.
struct WorkerDeque {
    q: Mutex<VecDeque<Tracked>>,
    cv: Condvar,
}

impl WorkerDeque {
    fn new() -> Self {
        Self {
            q: Mutex::new(VecDeque::new()),
            cv: Condvar::new(),
        }
    }
}

/// Global pool accounting behind one small mutex: the total queued-job
/// count (for the capacity gate and `queue_len`) and the shutdown flag.
struct Ctrl {
    queued: usize,
    shutdown: bool,
}

/// Lifetime counters of one worker, always on (plain relaxed atomics —
/// no dependency on `lq-telemetry` being enabled) so benches and the CI
/// smoke gate can audit load balance on any build.
struct WorkerCounters {
    jobs: AtomicU64,
    busy_ns: AtomicU64,
    steals: AtomicU64,
    restarts: AtomicU64,
    retries: AtomicU64,
    /// CPU this worker slot last pinned itself to; `u64::MAX` means
    /// unpinned (no placement policy, or the OS refused the mask).
    pinned: AtomicU64,
}

impl Default for WorkerCounters {
    fn default() -> Self {
        Self {
            jobs: AtomicU64::new(0),
            busy_ns: AtomicU64::new(0),
            steals: AtomicU64::new(0),
            restarts: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            pinned: AtomicU64::new(u64::MAX),
        }
    }
}

/// Snapshot of one worker's lifetime counters
/// (see [`WorkerPool::worker_stats`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct WorkerStats {
    /// Jobs this worker executed.
    pub jobs: u64,
    /// Nanoseconds spent executing jobs.
    pub busy_ns: u64,
    /// Jobs this worker stole from another worker's deque.
    pub steals: u64,
    /// Times a worker slot was respawned after a panic quarantined its
    /// thread (counters are per *slot*, so they survive the respawn).
    pub restarts: u64,
    /// Panicked jobs this worker slot requeued for another attempt.
    pub retries: u64,
    /// CPU this worker slot is pinned to, or `None` when unpinned
    /// (the default [`PlacementPolicy::Unpinned`], a non-Linux host,
    /// or an OS that refused the affinity mask). A respawned slot
    /// re-pins to the same CPU, so the value is stable across heals.
    pub pinned_cpu: Option<u32>,
}

/// Thread handles plus the shutdown latch they are joined through.
/// Workers respawn their own replacements, so handles live in shared
/// state (not on [`WorkerPool`]): a respawner registers its
/// replacement under this lock, and drop flips `shutting_down` and
/// takes every handle under the same lock — either the replacement is
/// registered before the take (and gets joined) or the respawner sees
/// the flag and spawns nothing. No handle escapes.
#[derive(Default)]
struct Lifecycle {
    shutting_down: bool,
    handles: Vec<JoinHandle<()>>,
}

/// State shared by submitters and every worker thread.
struct Shared {
    locals: Vec<WorkerDeque>,
    /// Global FIFO for jobs with no designated worker (the
    /// panic-injection probe and panic-requeued retries); checked
    /// after the own deque.
    injector: WorkerDeque,
    ctrl: Mutex<Ctrl>,
    /// Submitters park here when `queued == cap`.
    space: Condvar,
    cap: usize,
    rr: AtomicUsize,
    stats: Vec<WorkerCounters>,
    lifecycle: Mutex<Lifecycle>,
    /// Worker-to-CPU placement policy; each worker (and each respawned
    /// replacement) pins itself on entry to its loop.
    placement: PlacementPolicy,
    /// Fault-injection hook; `None` (one branch per site) in
    /// production builds.
    fault: Option<Arc<FaultInjector>>,
}

impl Shared {
    /// Account one queued job, blocking while the pool is at capacity.
    fn gate_and_count(&self) {
        let mut c = self.ctrl.lock().expect("pool ctrl poisoned");
        while c.queued >= self.cap {
            c = self.space.wait(c).expect("pool ctrl poisoned");
        }
        c.queued += 1;
    }

    /// Account one queued job without the capacity gate (worker
    /// self-forwards — blocking inside a worker would deadlock).
    fn count_unchecked(&self) {
        self.ctrl.lock().expect("pool ctrl poisoned").queued += 1;
    }

    /// Account one dequeued job and release a blocked submitter.
    fn note_pop(&self) {
        let mut c = self.ctrl.lock().expect("pool ctrl poisoned");
        c.queued -= 1;
        drop(c);
        self.space.notify_one();
    }

    /// Push a job onto worker `w`'s deque from *outside* (placement):
    /// `push_front`, so the owner — which pops from the back — runs
    /// external jobs in arrival order while its own forwards (pushed to
    /// the back) stay LIFO.
    fn place(&self, w: usize, t: Tracked) {
        let d = &self.locals[w];
        d.q.lock().expect("worker deque poisoned").push_front(t);
        d.cv.notify_one();
    }

    /// Push a job onto the executing worker's own deque (`push_back` —
    /// it will be popped next, cache-hot, unless a thief takes it).
    /// `corr` is the forwarding job's correlation ID (the worker
    /// thread's own trace scope is not the causal parent).
    fn push_local(&self, w: usize, job: Job, corr: u64) {
        self.count_unchecked();
        let t = Tracked::forward(job, corr);
        if t.id != 0 {
            lq_trace::record_corr(
                lq_trace::EventKind::JobSubmit,
                lq_trace::Track::Worker(w as u32),
                corr,
                t.id,
                w as u64,
            );
        }
        let d = &self.locals[w];
        d.q.lock().expect("worker deque poisoned").push_back(t);
        // The owner is busy executing; this wakes nobody today, but
        // keeps the invariant that every push signals its deque.
        d.cv.notify_one();
    }

    /// Requeue a panicked job on the global injector for any worker to
    /// pick up. Never takes the capacity gate (a quarantined worker
    /// blocking on its own pool would deadlock); the transient excess
    /// is at most one job per restart.
    fn requeue(&self, t: Tracked) {
        self.count_unchecked();
        self.injector
            .q
            .lock()
            .expect("pool injector poisoned")
            .push_back(t);
        for w in &self.locals {
            w.cv.notify_one();
        }
    }
}

/// Persistent worker threads plus the per-worker deques they pull tile
/// jobs from (work-stealing; see the module docs). Created once by
/// [`LiquidGemm::builder`]; drop drains all queues and joins every
/// thread.
pub struct WorkerPool {
    shared: Arc<Shared>,
    workers: usize,
    live: Arc<AtomicUsize>,
    epoch: AtomicU64,
    depth_gauge: OnceLock<Arc<Gauge>>,
    mk: MicrokernelSet,
}

impl WorkerPool {
    /// A pool with no fault injector (tests and internal callers).
    #[cfg(test)]
    pub(crate) fn new(workers: usize, queue_depth: usize) -> Self {
        Self::with_faults(
            workers,
            queue_depth,
            PlacementPolicy::Unpinned,
            MicrokernelSet::global(),
            None,
        )
    }

    pub(crate) fn with_faults(
        workers: usize,
        queue_depth: usize,
        placement: PlacementPolicy,
        mk: MicrokernelSet,
        fault: Option<Arc<FaultInjector>>,
    ) -> Self {
        let shared = Arc::new(Shared {
            locals: (0..workers).map(|_| WorkerDeque::new()).collect(),
            injector: WorkerDeque::new(),
            ctrl: Mutex::new(Ctrl {
                queued: 0,
                shutdown: false,
            }),
            space: Condvar::new(),
            cap: queue_depth,
            rr: AtomicUsize::new(0),
            stats: (0..workers).map(|_| WorkerCounters::default()).collect(),
            lifecycle: Mutex::new(Lifecycle::default()),
            placement,
            fault,
        });
        let live = Arc::new(AtomicUsize::new(0));
        for id in 0..workers {
            spawn_worker(&shared, &live, id);
        }
        Self {
            shared,
            workers,
            live,
            epoch: AtomicU64::new(0),
            depth_gauge: OnceLock::new(),
            mk,
        }
    }

    /// Place a job, blocking when the pool is at capacity (the natural
    /// backpressure bounding in-flight tile jobs). Placement is
    /// round-robin across worker deques, so load is spread at enqueue
    /// time and stealing only handles the stragglers.
    pub(crate) fn submit(&self, job: Job) {
        if let Some(f) = &self.shared.fault {
            if let Some(d) = f.on_submit() {
                // Injected submitter stall: models an injector-full
                // burst upstream of the capacity gate.
                std::thread::sleep(d);
            }
        }
        self.shared.gate_and_count();
        let t = Tracked::fresh(job);
        match t {
            // Jobs with no tile affinity go to the global injector.
            t @ Tracked {
                job: Job::Panic { .. },
                ..
            } => {
                let d = &self.shared.injector;
                d.q.lock().expect("pool injector poisoned").push_back(t);
                for w in &self.shared.locals {
                    w.cv.notify_one();
                }
            }
            t => {
                let w = self.shared.rr.fetch_add(1, Ordering::Relaxed) % self.workers;
                if t.id != 0 {
                    lq_trace::record_corr(
                        lq_trace::EventKind::JobSubmit,
                        lq_trace::Track::Control,
                        t.corr,
                        t.id,
                        w as u64,
                    );
                }
                self.shared.place(w, t);
            }
        }
        if lq_telemetry::enabled() {
            let g = self
                .depth_gauge
                .get_or_init(|| lq_telemetry::registry().gauge("lq_pool_queue_depth"));
            g.set(self.queue_len() as f64);
        }
    }

    /// Fresh epoch for one GEMM call.
    pub(crate) fn next_epoch(&self) -> u64 {
        self.epoch.fetch_add(1, Ordering::Relaxed)
    }

    /// Number of worker threads the pool was built with.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The microkernel family every GEMM issued through this pool
    /// computes with (fixed at build time; see
    /// [`LiquidGemmBuilder::force_microkernel`]).
    #[must_use]
    pub fn microkernels(&self) -> MicrokernelSet {
        self.mk
    }

    /// The worker-to-CPU placement policy the pool was built with.
    #[must_use]
    pub fn placement(&self) -> PlacementPolicy {
        self.shared.placement
    }

    /// Worker threads currently alive (0 after drop has joined them).
    #[must_use]
    pub fn live_workers(&self) -> usize {
        self.live.load(Ordering::SeqCst)
    }

    /// Jobs currently queued across all deques (racy; for occupancy
    /// gauges).
    #[must_use]
    pub fn queue_len(&self) -> usize {
        self.shared.ctrl.lock().expect("pool ctrl poisoned").queued
    }

    /// Per-worker lifetime counters (jobs, busy-ns, steals) — the raw
    /// material for load-balance audits independent of telemetry.
    #[must_use]
    pub fn worker_stats(&self) -> Vec<WorkerStats> {
        self.shared
            .stats
            .iter()
            .map(|s| WorkerStats {
                jobs: s.jobs.load(Ordering::Relaxed),
                busy_ns: s.busy_ns.load(Ordering::Relaxed),
                steals: s.steals.load(Ordering::Relaxed),
                restarts: s.restarts.load(Ordering::Relaxed),
                retries: s.retries.load(Ordering::Relaxed),
                pinned_cpu: match s.pinned.load(Ordering::Relaxed) {
                    u64::MAX => None,
                    cpu => Some(cpu as u32),
                },
            })
            .collect()
    }

    /// Test probe: the shared live-worker counter, observable after the
    /// pool itself is gone (proves threads joined, not leaked).
    #[doc(hidden)]
    #[must_use]
    pub fn live_probe(&self) -> Arc<AtomicUsize> {
        Arc::clone(&self.live)
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shared
            .ctrl
            .lock()
            .expect("pool ctrl poisoned")
            .shutdown = true;
        // Latch out further respawns, then take every handle spawned
        // so far — construction-time workers and panic replacements
        // alike (see [`Lifecycle`] for why this cannot race a
        // respawn).
        let handles = {
            let mut lc = self
                .shared
                .lifecycle
                .lock()
                .expect("pool lifecycle poisoned");
            lc.shutting_down = true;
            std::mem::take(&mut lc.handles)
        };
        for d in &self.shared.locals {
            d.cv.notify_all();
        }
        for h in handles {
            let _ = h.join();
        }
    }
}

/// Decrements the live-worker count however the worker exits.
struct LiveGuard(Arc<AtomicUsize>);

impl Drop for LiveGuard {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// How long an idle worker sleeps before re-sweeping the other deques.
/// Placement notifies the designated worker directly, so this timeout
/// only bounds how stale a *steal* opportunity can go unnoticed.
const PARK_TIMEOUT: Duration = Duration::from_millis(1);

/// Spawn (or respawn) the worker thread for slot `id`, registering its
/// handle in the shared lifecycle state so drop can join it. A respawn
/// that loses the race with shutdown spawns nothing — the remaining
/// workers (or nobody, if the caller is gone) drain the queues.
fn spawn_worker(shared: &Arc<Shared>, live: &Arc<AtomicUsize>, id: usize) {
    let mut lc = shared.lifecycle.lock().expect("pool lifecycle poisoned");
    if lc.shutting_down {
        return;
    }
    let sh = Arc::clone(shared);
    let lv = Arc::clone(live);
    let h = std::thread::Builder::new()
        .name(format!("lq-pool-{id}"))
        .spawn(move || worker_loop(id, &sh, &lv))
        .expect("spawn pool worker");
    lc.handles.push(h);
}

/// Find the next job: own deque (LIFO) → global injector → steal sweep
/// (FIFO from the victim's front) → park. Returns `None` when the pool
/// is shutting down and every queue has drained.
fn take_job(shared: &Shared, id: usize) -> Option<(Tracked, bool)> {
    loop {
        if let Some(j) = shared.locals[id]
            .q
            .lock()
            .expect("worker deque poisoned")
            .pop_back()
        {
            return Some((j, false));
        }
        if let Some(j) = shared
            .injector
            .q
            .lock()
            .expect("pool injector poisoned")
            .pop_front()
        {
            return Some((j, false));
        }
        for off in 1..shared.locals.len() {
            let victim = (id + off) % shared.locals.len();
            if let Some(j) = shared.locals[victim]
                .q
                .lock()
                .expect("worker deque poisoned")
                .pop_front()
            {
                return Some((j, true));
            }
        }
        {
            let c = shared.ctrl.lock().expect("pool ctrl poisoned");
            if c.shutdown && c.queued == 0 {
                return None;
            }
        }
        // Park on the own deque's condvar; the guard re-check under the
        // same lock closes the push-vs-park race. The timeout covers
        // jobs that appeared on *other* deques after the sweep.
        let q = shared.locals[id].q.lock().expect("worker deque poisoned");
        if q.is_empty() {
            let _ = shared.locals[id]
                .cv
                .wait_timeout(q, PARK_TIMEOUT)
                .expect("worker deque poisoned");
        }
    }
}

fn worker_loop(id: usize, shared: &Arc<Shared>, live: &Arc<AtomicUsize>) {
    live.fetch_add(1, Ordering::SeqCst);
    let _guard = LiveGuard(Arc::clone(live));
    // Pin per the pool's placement policy. Running here (not in the
    // spawner) means a panic-respawned replacement re-pins itself to
    // the same CPU automatically. A refused mask leaves the slot
    // unpinned and is visible as `pinned_cpu: None` in worker_stats.
    if let Some(cpu) = shared.placement.cpu_for(id, shared.locals.len()) {
        if affinity::pin_thread(cpu) {
            shared.stats[id].pinned.store(cpu as u64, Ordering::Relaxed);
        }
    }
    // Per-worker metric handles, resolved once the first time telemetry
    // is observed enabled (label: worker id).
    let mut wm: Option<WorkerMetrics> = None;
    while let Some((tracked, stolen)) = take_job(shared, id) {
        shared.note_pop();
        if wm.is_none() && lq_telemetry::enabled() {
            wm = WorkerMetrics::resolve(id);
        }
        if stolen {
            shared.stats[id].steals.fetch_add(1, Ordering::Relaxed);
            if let Some(w) = &wm {
                w.steals.inc();
            }
        }
        let Tracked {
            job,
            attempts,
            id: job_id,
            corr,
        } = tracked;
        if job_id != 0 {
            lq_trace::record_corr(
                lq_trace::EventKind::JobStart,
                lq_trace::Track::Worker(id as u32),
                corr,
                job_id,
                u64::from(stolen),
            );
        }
        // Retries are exempt from injection: a scheduled fault is
        // transient by definition, so the retried job runs clean and
        // recovery is as deterministic as the fault itself.
        let force_panic = match &shared.fault {
            Some(f) => match f.on_worker_job(attempts > 0) {
                FaultAction::Panic => true,
                FaultAction::Stall(d) => {
                    std::thread::sleep(d);
                    false
                }
                FaultAction::None => false,
            },
            None => false,
        };
        let t0 = std::time::Instant::now();
        match execute(job, shared, id, corr, force_panic) {
            JobOutcome::Done => {
                let ns = t0.elapsed().as_nanos() as u64;
                shared.stats[id].jobs.fetch_add(1, Ordering::Relaxed);
                shared.stats[id].busy_ns.fetch_add(ns, Ordering::Relaxed);
                if job_id != 0 {
                    lq_trace::span_full(
                        lq_trace::EventKind::JobFinish,
                        lq_trace::Track::Worker(id as u32),
                        corr,
                        job_id,
                        0,
                        t0,
                        0,
                    );
                }
                if let Some(w) = &wm {
                    w.busy_ns.add(ns);
                    w.job_ns.record(ns);
                    w.jobs.inc();
                }
            }
            JobOutcome::Panicked(retry) => {
                heal(shared, live, id, retry, attempts, job_id, corr);
                return;
            }
        }
    }
}

/// The quarantine-and-respawn path a worker takes after a job panicked
/// under it: requeue the surviving job (bounded retries with a small
/// attempts-proportional backoff) or abandon it to its caller, record
/// the restart, spawn this slot's replacement, and let the quarantined
/// thread exit (its caller `return`s out of [`worker_loop`]).
fn heal(
    shared: &Arc<Shared>,
    live: &Arc<AtomicUsize>,
    id: usize,
    retry: Option<Job>,
    attempts: u8,
    job_id: u64,
    corr: u64,
) {
    shared.stats[id].restarts.fetch_add(1, Ordering::Relaxed);
    lq_trace::record_corr(
        lq_trace::EventKind::WorkerQuarantine,
        lq_trace::Track::Worker(id as u32),
        corr,
        job_id,
        0,
    );
    let fm = pool_fault_metrics();
    if let Some(m) = &fm {
        m.restarts.inc();
    }
    if let Some(job) = retry {
        if attempts < MAX_JOB_RETRIES {
            shared.stats[id].retries.fetch_add(1, Ordering::Relaxed);
            if let Some(m) = &fm {
                m.retries.inc();
            }
            if job_id != 0 {
                lq_trace::record_corr(
                    lq_trace::EventKind::JobRetry,
                    lq_trace::Track::Worker(id as u32),
                    corr,
                    job_id,
                    u64::from(attempts) + 1,
                );
            }
            // Backoff before handing the job to a peer: transient
            // faults (the only kind the injector models) clear on
            // their own; deterministic bugs exhaust the budget fast.
            std::thread::sleep(Duration::from_micros(50u64 << attempts));
            shared.requeue(Tracked {
                job,
                attempts: attempts + 1,
                id: job_id,
                corr,
            });
        } else {
            job.abandon();
        }
    }
    spawn_worker(shared, live, id);
    lq_trace::record_corr(
        lq_trace::EventKind::WorkerRespawn,
        lq_trace::Track::Worker(id as u32),
        corr,
        0,
        0,
    );
}

/// What became of one job attempt. On `Panicked` the job survived the
/// unwind (the caught closure only borrowed it), so it can be retried
/// on another worker; `Panicked(None)` means there is nothing to retry
/// (the test-injected [`Job::Panic`] probe, which already replied).
enum JobOutcome {
    Done,
    Panicked(Option<Job>),
}

/// Run one job attempt, containing panics. `force_panic` is the fault
/// injector's verdict for this attempt — raised *inside* the caught
/// closure so the injected fault takes the exact path a real mid-job
/// panic would. `corr` is the job's causal correlation ID.
fn execute(job: Job, shared: &Shared, id: usize, corr: u64, force_panic: bool) -> JobOutcome {
    let span = StageSpan {
        t0: lq_trace::enabled().then(std::time::Instant::now),
        worker: id as u32,
        corr,
    };
    let res = catch_unwind(AssertUnwindSafe(|| {
        if force_panic {
            panic!("injected fault: worker panic mid-job");
        }
        job.run(&span)
    }));
    match (res, job) {
        (Ok(forward), _) => {
            if let Some(next) = forward {
                // Onto our own deque: popped next (LIFO) while the
                // materialised tile is still cache-hot, or stolen by
                // an idle worker.
                shared.push_local(id, next, corr);
            }
            JobOutcome::Done
        }
        // The probe quarantines its worker like any real panic, so
        // tests exercising it also exercise respawn — but there is no
        // job to retry.
        (Err(_), probe @ Job::Panic { .. }) => {
            probe.abandon();
            JobOutcome::Panicked(None)
        }
        (Err(_), job) => JobOutcome::Panicked(Some(job)),
    }
}

/// Long-lived handle over the persistent worker pool — the redesigned
/// front door of the kernel library.
///
/// Build one per process (or per serving engine), keep it, and issue
/// every GEMM through it:
///
/// ```
/// use lq_core::{KernelKind, LiquidGemm};
/// use lq_quant::act::QuantizedActivations;
/// use lq_quant::mat::Mat;
/// use lq_quant::BackendId;
///
/// let x = Mat::from_fn(2, 64, |r, c| ((r * 64 + c) as f32 * 0.1).sin());
/// let w = Mat::from_fn(8, 64, |r, c| ((r * 64 + c) as f32 * 0.05).cos());
/// let lg = LiquidGemm::builder()
///     .workers(2)
///     .backend(BackendId::Lqq) // or Qoq, Lut, Codebook
///     .build()
///     .unwrap();
/// let weights = lg.pack_weights(&w, 64);
/// let qa = QuantizedActivations::quantize(&x, None);
/// let y = lg.gemm(&qa.q, &qa.scales, &weights, KernelKind::ImFp);
/// assert_eq!(y.y.rows(), 2);
/// ```
pub struct LiquidGemm {
    pool: WorkerPool,
    defaults: ParallelConfig,
    backend: BackendId,
}

impl LiquidGemm {
    /// Start configuring a handle. Defaults: `workers` =
    /// `available_parallelism` capped at 8, `task_rows` 8,
    /// `queue_depth` 64.
    #[must_use]
    pub fn builder() -> LiquidGemmBuilder {
        LiquidGemmBuilder::default()
    }

    /// The pool this handle owns.
    #[must_use]
    pub fn pool(&self) -> &WorkerPool {
        &self.pool
    }

    /// The per-call defaults (`workers` documents the pool size; the
    /// pool itself is fixed at build time).
    #[must_use]
    pub fn config(&self) -> ParallelConfig {
        self.defaults
    }

    /// Number of persistent worker threads.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.pool.workers()
    }

    /// The kernel backend this handle packs weights with (set via
    /// [`LiquidGemmBuilder::backend`]; default [`BackendId::Lqq`]).
    #[must_use]
    pub fn backend(&self) -> BackendId {
        self.backend
    }

    /// Quantize and pack FP32 weights with this handle's configured
    /// backend — the builder-driven path that replaced per-scheme
    /// constructor calls at every quantize site.
    #[must_use]
    pub fn pack_weights(&self, w: &Mat<f32>, group: usize) -> W4A8Weights {
        W4A8Weights::quantize(w, group, self.backend)
    }

    /// Run `Y = X·Wᵀ` with this handle's default tiling.
    #[must_use]
    pub fn gemm(
        &self,
        x: &Mat<i8>,
        act_scales: &[f32],
        weights: &W4A8Weights,
        kind: KernelKind,
    ) -> GemmOutput {
        self.gemm_with(x, act_scales, weights, kind, self.defaults)
    }

    /// Run `Y = X·Wᵀ` with explicit tiling parameters. `cfg.task_rows`
    /// applies per call; `cfg.workers` is ignored — the pool's thread
    /// count was fixed at [`LiquidGemm::builder`] time.
    #[must_use]
    pub fn gemm_with(
        &self,
        x: &Mat<i8>,
        act_scales: &[f32],
        weights: &W4A8Weights,
        kind: KernelKind,
        cfg: ParallelConfig,
    ) -> GemmOutput {
        let variant = match kind {
            KernelKind::Serial => "serial",
            KernelKind::FlatParallel => "flat",
            KernelKind::ExCp => "excp",
            KernelKind::ImFp => "imfp",
        };
        let sink = ScaleEpilogue(act_scales.to_vec());
        let y_t = drive(&self.pool, x, weights.packed(), cfg, kind, variant, sink);
        GemmOutput {
            y: assemble_output(y_t, x.rows(), weights.n()),
        }
    }

    /// Test probe: make one worker panic inside a job and wait for the
    /// contained report. The pool must keep working afterwards.
    #[doc(hidden)]
    pub fn inject_worker_panic(&self) {
        let (tx, rx) = bounded(1);
        self.pool.submit(Job::Panic { reply: tx });
        match rx.recv() {
            Ok(Reply::Panicked) => {}
            _ => panic!("expected a contained panic reply"),
        }
    }
}

/// Builder for [`LiquidGemm`]; validates like
/// [`ParallelConfig::builder`] and additionally requires
/// `queue_depth >= 1`.
#[derive(Debug, Clone)]
pub struct LiquidGemmBuilder {
    workers: usize,
    task_rows: usize,
    queue_depth: usize,
    backend: BackendId,
    placement: PlacementPolicy,
    microkernel: Option<SimdVariant>,
    fault: Option<Arc<FaultInjector>>,
}

impl Default for LiquidGemmBuilder {
    fn default() -> Self {
        let workers = std::thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get);
        Self {
            workers: workers.clamp(1, 8),
            task_rows: 8,
            queue_depth: 64,
            backend: BackendId::Lqq,
            placement: PlacementPolicy::Unpinned,
            microkernel: None,
            fault: None,
        }
    }
}

impl LiquidGemmBuilder {
    /// Persistent worker threads (validated ≥ 1).
    #[must_use]
    pub fn workers(mut self, n: usize) -> Self {
        self.workers = n;
        self
    }

    /// Default output channels per tile job (validated ≥ 1).
    #[must_use]
    pub fn task_rows(mut self, r: usize) -> Self {
        self.task_rows = r;
        self
    }

    /// Injector queue capacity (validated ≥ 1). Bounds how many tile
    /// jobs can wait unexecuted; submitters block beyond it.
    #[must_use]
    pub fn queue_depth(mut self, q: usize) -> Self {
        self.queue_depth = q;
        self
    }

    /// Kernel backend used by [`LiquidGemm::pack_weights`] (per-layer
    /// runtime selection: any [`lq_quant::registry`] entry). Default
    /// [`BackendId::Lqq`]. Weights packed elsewhere carry their own
    /// backend and run on any handle.
    #[must_use]
    pub fn backend(mut self, id: BackendId) -> Self {
        self.backend = id;
        self
    }

    /// Worker-to-CPU placement policy (default
    /// [`PlacementPolicy::Unpinned`]). `Compact` packs workers onto the
    /// lowest allowed CPUs (shared-cache locality); `Scatter` spreads
    /// them across the allowed set (cache-capacity isolation). Pinning
    /// degrades to a no-op on non-Linux hosts or when the OS refuses
    /// the mask — check `worker_stats()[i].pinned_cpu`.
    #[must_use]
    pub fn placement(mut self, p: PlacementPolicy) -> Self {
        self.placement = p;
        self
    }

    /// Force a specific microkernel ISA variant instead of the runtime
    /// auto-detected best (bench sweeps and A/B debugging). `build()`
    /// fails with [`ConfigError::UnsupportedMicrokernel`] when this CPU
    /// lacks the variant's features.
    #[must_use]
    pub fn force_microkernel(mut self, v: SimdVariant) -> Self {
        self.microkernel = Some(v);
        self
    }

    /// Install a [`FaultInjector`] (chaos testing): workers consult it
    /// before each fresh job and submitters before each submission.
    /// Without one — the default — every hook is a single `Option`
    /// check on the hot path.
    #[must_use]
    pub fn fault_injector(mut self, inj: Arc<FaultInjector>) -> Self {
        self.fault = Some(inj);
        self
    }

    /// Validate and spawn the pool.
    pub fn build(self) -> Result<LiquidGemm, ConfigError> {
        let defaults = ParallelConfig::builder()
            .workers(self.workers)
            .task_rows(self.task_rows)
            .placement(self.placement)
            .build()?;
        if self.queue_depth == 0 {
            return Err(ConfigError::ZeroQueueDepth);
        }
        let mk = match self.microkernel {
            Some(v) => {
                MicrokernelSet::for_variant(v).ok_or(ConfigError::UnsupportedMicrokernel(v))?
            }
            None => MicrokernelSet::global(),
        };
        Ok(LiquidGemm {
            pool: WorkerPool::with_faults(
                defaults.workers,
                self.queue_depth,
                defaults.placement,
                mk,
                self.fault,
            ),
            defaults,
            backend: self.backend,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::max_abs_diff;
    use lq_quant::act::QuantizedActivations;

    fn fixture(m: usize, n: usize, k: usize) -> (Mat<i8>, Vec<f32>, W4A8Weights) {
        let xf = Mat::from_fn(m, k, |r, c| ((r * k + c) as f32 * 0.13).sin() * 1.5);
        let wf = Mat::from_fn(n, k, |r, c| ((r * k + c) as f32 * 0.04).cos());
        let qa = QuantizedActivations::quantize(&xf, None);
        (
            qa.q,
            qa.scales,
            W4A8Weights::quantize(&wf, 64, BackendId::Lqq),
        )
    }

    #[test]
    fn builder_backend_selection_packs_and_runs_every_backend() {
        let (m, n, k) = (4, 16, 128);
        let xf = Mat::from_fn(m, k, |r, c| ((r * k + c) as f32 * 0.13).sin() * 1.5);
        let wf = Mat::from_fn(n, k, |r, c| ((r * k + c) as f32 * 0.04).cos());
        let qa = QuantizedActivations::quantize(&xf, None);
        for id in BackendId::all() {
            let lg = LiquidGemm::builder()
                .workers(2)
                .backend(id)
                .build()
                .unwrap();
            assert_eq!(lg.backend(), id);
            let w = lg.pack_weights(&wf, 64);
            assert_eq!(w.backend(), id);
            let want = lg.gemm(&qa.q, &qa.scales, &w, KernelKind::Serial).y;
            for kind in [KernelKind::FlatParallel, KernelKind::ExCp, KernelKind::ImFp] {
                let got = lg.gemm(&qa.q, &qa.scales, &w, kind).y;
                assert_eq!(max_abs_diff(&got, &want), 0.0, "{id} {kind:?}");
            }
        }
    }

    #[test]
    fn handle_matches_serial_for_all_kinds() {
        let (x, s, w) = fixture(5, 23, 128);
        let lg = LiquidGemm::builder().workers(3).build().unwrap();
        let want = lg.gemm(&x, &s, &w, KernelKind::Serial).y;
        for kind in [KernelKind::FlatParallel, KernelKind::ExCp, KernelKind::ImFp] {
            let got = lg.gemm(&x, &s, &w, kind).y;
            assert_eq!(max_abs_diff(&got, &want), 0.0, "{kind:?}");
        }
    }

    #[test]
    fn handle_survives_many_calls() {
        let (x, s, w) = fixture(2, 9, 64);
        let lg = LiquidGemm::builder()
            .workers(2)
            .task_rows(4)
            .build()
            .unwrap();
        let want = lg.gemm(&x, &s, &w, KernelKind::Serial).y;
        for i in 0..50 {
            let kind = [KernelKind::FlatParallel, KernelKind::ExCp, KernelKind::ImFp][i % 3];
            assert_eq!(max_abs_diff(&lg.gemm(&x, &s, &w, kind).y, &want), 0.0);
        }
    }

    #[test]
    fn placement_policies_pin_workers_and_stay_bit_exact() {
        let (x, s, w) = fixture(4, 17, 128);
        for policy in [PlacementPolicy::Compact, PlacementPolicy::Scatter] {
            let lg = LiquidGemm::builder()
                .workers(3)
                .placement(policy)
                .build()
                .unwrap();
            assert_eq!(lg.pool().placement(), policy);
            let want = lg.gemm(&x, &s, &w, KernelKind::Serial).y;
            let got = lg.gemm(&x, &s, &w, KernelKind::ImFp).y;
            assert_eq!(max_abs_diff(&got, &want), 0.0, "{policy:?}");
            // On Linux every worker must report its pinned CPU from
            // the allowed set; the portable fallback reports None.
            let allowed = crate::affinity::allowed_cpus();
            // Workers pin themselves on entry to their loop, which is
            // asynchronous to `build()`: a worker that got no tile of
            // the call above may not have started yet.
            for _ in 0..200 {
                if lg
                    .pool()
                    .worker_stats()
                    .iter()
                    .all(|st| st.pinned_cpu.is_some())
                {
                    break;
                }
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            for (id, st) in lg.pool().worker_stats().iter().enumerate() {
                if cfg!(all(target_os = "linux", target_arch = "x86_64")) {
                    let cpu = st
                        .pinned_cpu
                        .unwrap_or_else(|| panic!("{policy:?} worker {id} not pinned"));
                    assert!(
                        allowed.contains(&(cpu as usize)),
                        "{policy:?} worker {id} pinned to cpu{cpu} outside allowed set"
                    );
                } else {
                    assert_eq!(st.pinned_cpu, None);
                }
            }
        }
        // Unpinned pools never report a CPU.
        let lg = LiquidGemm::builder().workers(2).build().unwrap();
        for st in lg.pool().worker_stats() {
            assert_eq!(st.pinned_cpu, None);
        }
    }

    #[test]
    fn forced_microkernel_is_validated_and_used() {
        // Scalar is always available and must round-trip.
        let lg = LiquidGemm::builder()
            .workers(2)
            .force_microkernel(SimdVariant::Scalar)
            .build()
            .unwrap();
        assert_eq!(lg.pool().microkernels().variant(), SimdVariant::Scalar);
        let (x, s, w) = fixture(3, 9, 64);
        let want = lg.gemm(&x, &s, &w, KernelKind::Serial).y;
        // Every detected variant builds and matches; undetected ones
        // must be rejected with the typed error.
        for v in [SimdVariant::Avx2, SimdVariant::Vnni] {
            match LiquidGemm::builder()
                .workers(2)
                .force_microkernel(v)
                .build()
            {
                Ok(lgv) => {
                    assert!(v.available());
                    assert_eq!(lgv.pool().microkernels().variant(), v);
                    let got = lgv.gemm(&x, &s, &w, KernelKind::ImFp).y;
                    assert_eq!(max_abs_diff(&got, &want), 0.0, "{v:?}");
                }
                Err(e) => {
                    assert!(!v.available());
                    assert!(matches!(e, ConfigError::UnsupportedMicrokernel(bad) if bad == v));
                }
            }
        }
    }

    #[test]
    fn builder_rejects_bad_configs() {
        assert!(matches!(
            LiquidGemm::builder().workers(0).build(),
            Err(ConfigError::ZeroWorkers)
        ));
        assert!(matches!(
            LiquidGemm::builder().task_rows(0).build(),
            Err(ConfigError::ZeroTaskRows)
        ));
        assert!(matches!(
            LiquidGemm::builder().queue_depth(0).build(),
            Err(ConfigError::ZeroQueueDepth)
        ));
    }

    #[test]
    fn drop_joins_all_workers() {
        let lg = LiquidGemm::builder().workers(3).build().unwrap();
        let probe = lg.pool().live_probe();
        let (x, s, w) = fixture(1, 4, 64);
        let _ = lg.gemm(&x, &s, &w, KernelKind::ImFp);
        // Thread start-up is asynchronous; give stragglers a moment.
        for _ in 0..200 {
            if lg.pool().live_workers() == 3 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert_eq!(lg.pool().live_workers(), 3);
        drop(lg);
        assert_eq!(probe.load(std::sync::atomic::Ordering::SeqCst), 0);
    }

    #[test]
    fn panic_in_job_is_contained() {
        let lg = LiquidGemm::builder().workers(2).build().unwrap();
        lg.inject_worker_panic();
        // Pool still serves correct results afterwards.
        let (x, s, w) = fixture(3, 8, 64);
        let want = lg.gemm(&x, &s, &w, KernelKind::Serial).y;
        let got = lg.gemm(&x, &s, &w, KernelKind::ImFp).y;
        assert_eq!(max_abs_diff(&got, &want), 0.0);
        drop(lg); // and still joins cleanly
    }

    fn stats_sum(lg: &LiquidGemm) -> (u64, u64) {
        let s = lg.pool().worker_stats();
        (
            s.iter().map(|w| w.restarts).sum(),
            s.iter().map(|w| w.retries).sum(),
        )
    }

    #[test]
    fn injected_panic_during_queued_job_is_retried_bit_exact() {
        // The very first fresh job panics mid-execution: the dying
        // worker must requeue it, respawn, and the caller must see a
        // bit-exact result — never the panic.
        let inj = Arc::new(FaultInjector::new(
            lq_chaos::FaultPlan::quiet().worker_panics_at(&[0]),
        ));
        let lg = LiquidGemm::builder()
            .workers(2)
            .fault_injector(Arc::clone(&inj))
            .build()
            .unwrap();
        let (x, s, w) = fixture(5, 23, 128);
        let want = lg.gemm(&x, &s, &w, KernelKind::Serial).y;
        let got = lg.gemm(&x, &s, &w, KernelKind::ImFp).y;
        assert_eq!(max_abs_diff(&got, &want), 0.0);
        assert_eq!(inj.stats().worker_panics, 1, "fault did not fire");
        let (restarts, retries) = stats_sum(&lg);
        assert_eq!(restarts, 1, "restart not counted in worker_stats");
        assert_eq!(retries, 1, "retry not counted in worker_stats");
    }

    #[test]
    fn panic_storm_all_workers_die_once_pool_still_drains() {
        // One scheduled panic per worker slot, spread across the job
        // stream: every worker dies (at least) once, every job still
        // completes, every variant stays bit-exact.
        const WORKERS: usize = 3;
        let inj = Arc::new(FaultInjector::new(
            lq_chaos::FaultPlan::quiet().worker_panics_at(&[0, 2, 4]),
        ));
        let lg = LiquidGemm::builder()
            .workers(WORKERS)
            .fault_injector(Arc::clone(&inj))
            .build()
            .unwrap();
        let (x, s, w) = fixture(7, 31, 128);
        let want = lg.gemm(&x, &s, &w, KernelKind::Serial).y;
        for kind in [KernelKind::FlatParallel, KernelKind::ExCp, KernelKind::ImFp] {
            assert_eq!(
                max_abs_diff(&lg.gemm(&x, &s, &w, kind).y, &want),
                0.0,
                "{kind:?}"
            );
        }
        assert_eq!(inj.stats().worker_panics, 3);
        let (restarts, retries) = stats_sum(&lg);
        assert_eq!(restarts, 3);
        assert_eq!(retries, 3);
        // Replacements bring the pool back to full strength.
        for _ in 0..200 {
            if lg.pool().live_workers() == WORKERS {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert_eq!(lg.pool().live_workers(), WORKERS);
        // And the healed pool still drops cleanly (joins replacements).
        let probe = lg.pool().live_probe();
        drop(lg);
        assert_eq!(probe.load(std::sync::atomic::Ordering::SeqCst), 0);
    }

    #[test]
    fn panic_racing_shutdown_leaks_no_thread() {
        // A worker panic (probe) races pool drop from another thread:
        // whether the respawn wins or loses the race with the shutdown
        // latch, every thread must be joined.
        for _ in 0..20 {
            let lg = Arc::new(LiquidGemm::builder().workers(2).build().unwrap());
            let probe = lg.pool().live_probe();
            let h = {
                let lg = Arc::clone(&lg);
                std::thread::spawn(move || lg.inject_worker_panic())
            };
            drop(lg); // the last Arc may drop here or in the thread
            h.join().unwrap();
            assert_eq!(probe.load(std::sync::atomic::Ordering::SeqCst), 0);
        }
    }

    #[test]
    fn worker_stalls_and_submit_stalls_only_delay() {
        let inj = Arc::new(FaultInjector::new(
            lq_chaos::FaultPlan::quiet()
                .worker_stall_at(1, 100)
                .submit_stall_at(0, 100),
        ));
        let lg = LiquidGemm::builder()
            .workers(2)
            .fault_injector(Arc::clone(&inj))
            .build()
            .unwrap();
        let (x, s, w) = fixture(4, 16, 64);
        let want = lg.gemm(&x, &s, &w, KernelKind::Serial).y;
        assert_eq!(
            max_abs_diff(&lg.gemm(&x, &s, &w, KernelKind::ImFp).y, &want),
            0.0
        );
        let st = inj.stats();
        assert_eq!((st.worker_stalls, st.submit_stalls), (1, 1));
        assert_eq!(stats_sum(&lg), (0, 0), "stalls must not restart workers");
    }
}
