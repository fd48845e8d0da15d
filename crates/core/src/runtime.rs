//! Persistent worker-pool GEMM runtime — the paper's Section 5.4
//! persistent kernel, owned by a handle instead of re-created per call.
//!
//! The paper keeps one kernel resident on the GPU and lets long-lived
//! warp groups *pull* tile work, so no launch pays setup cost twice.
//! The CPU analog: [`LiquidGemm`] owns a [`WorkerPool`] of persistent
//! threads created once at `build()`; every `gemm` call publishes
//! itself once and its tiles are pulled off it by whichever worker is
//! free. `lq_sim::cost_model::wave_quantization_factor` is the
//! GPU-side cost a wave launch pays and a persistent kernel avoids.
//!
//! ## Board, cursor, retry list, latch
//!
//! A GEMM call is one published object, not a queued object per tile:
//!
//! * **Board**: the pool's only shared queue is a mutex-guarded list of
//!   the calls currently in flight (at most one per concurrent caller).
//!   `WorkerPool::run` pushes its call, issues one `notify_all`, and
//!   blocks once; it takes the board lock a second time to take the
//!   finished call off again. A call is O(1) state however many tiles
//!   it has, so there is nothing to bound and no backpressure knob.
//! * **Cursor**: a tile is an index. A worker takes the oldest call
//!   with a claimable tile under the board lock, then keeps claiming
//!   from that call with one `fetch_add` on its cursor — the tile
//!   scheduler of a persistent kernel — and does not touch the board
//!   again until the call has nothing left to claim.
//! * **Retry list**: tiles a panicked worker handed back (see below);
//!   looked at only once the cursor is exhausted.
//! * **Latch**: every finished tile decrements the call's `left` count
//!   and the worker that takes it to zero wakes the caller.
//!
//! A tile is a row range, not a copy: `lq-core` denies `unsafe`
//! outside the two leaf modules ([`crate::simd`], [`crate::affinity`]),
//! so the rayon-style lifetime-erased scoped pool is off the table and
//! a call must be `'static` — but packed weights already live behind an
//! `Arc<dyn PackedWeights>`, which is exactly that. The call's context
//! holds the shared weights, the packed activation panels, the sink
//! with its scales and the flat `N×M` output; tile `t` covers output
//! channels `[t·task_rows, …)` and dequantizes straight from the shared
//! weights through the same [`PackedWeights::dequant_block`] the
//! serial kernel calls, once per strip K block. Workers compute a tile
//! into an owned chunk and copy it into the call's output under its
//! mutex; the caller transposes. Integer accumulation is exact, so
//! results stay bit-identical to the serial kernels no matter which
//! worker runs which tile in which order.
//!
//! Shutdown: dropping the pool sets the board's `shutdown` flag and
//! wakes everyone; a worker exits only when the flag is set *and* no
//! call on the board has a claimable tile (drain-and-exit).
//!
//! ## Self-healing (quarantine, retry, respawn)
//!
//! A panic inside a tile is caught with `catch_unwind`, but instead of
//! propagating to the caller the pool heals itself:
//!
//! 1. The tile is only an index, so it survives the unwind: the worker
//!    puts it on its call's retry list for another worker — with a
//!    small attempts-proportional backoff, up to [`MAX_JOB_RETRIES`]
//!    times. Integer accumulation keeps the retried result bit-exact
//!    with the serial kernels.
//! 2. The panicked worker is quarantined: it records the restart
//!    (`worker_stats().restarts`, `lq_pool_worker_restarts_total`),
//!    spawns its own replacement thread under the lifecycle lock
//!    (skipped when shutdown has begun), and exits. Replacement
//!    handles register in the same lifecycle state drop joins, so no
//!    thread is ever leaked.
//! 3. Only when a tile exhausts its retry budget does the call fail
//!    (and its caller re-panic — a deterministic bug, not a transient
//!    fault).
//!
//! Fault injection for tests threads a shared
//! [`lq_chaos::FaultInjector`] through [`LiquidGemmBuilder::fault_injector`]:
//! workers consult it before each *fresh* tile (retries are exempt, so
//! injected panics model transient faults and recovery stays
//! deterministic) and callers consult it once per published call for
//! stall bursts. Without an injector every hook is one `Option` check.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use lq_chaos::{FaultAction, FaultInjector};
use lq_quant::backend::{BackendId, PackedWeights};
use lq_quant::mat::Mat;

use crate::affinity::{self, PlacementPolicy};
use crate::api::{GemmOutput, KernelKind, W4A8Weights};
use crate::epilogue::{assemble_output, ScaleEpilogue, Sink};
use crate::microkernel::{APanels, MicrokernelSet};
use crate::pipeline::{drive, ConfigError, ParallelConfig};
use crate::serial::{dense_kernel, materialize_tile, strip_kernel};
use crate::simd::SimdVariant;
use crate::telemetry::{pool_fault_metrics, PipeMetrics, WorkerMetrics};

/// Per-call shared state of a GEMM call's tiles: the weights, the
/// packed activations, the output sink and the output itself. Generic
/// over the call's [`Sink`]; the pool holds it as an
/// `Arc<dyn `[`TileCall`]`>`.
pub(crate) struct CallCtx<S: Sink> {
    /// The call's packed weights (or a shard's view of them), shared
    /// with the caller — tiles read their row range in place.
    pub(crate) w: Arc<dyn PackedWeights>,
    /// INT8 activations packed into register-tile panels — built once
    /// per call so the call is `'static` (the same single pass over the
    /// block that cloning the matrix used to cost).
    pub(crate) a: APanels,
    /// What becomes of each exact dot product (f32 epilogue with the
    /// call's activation scales, or exact i64).
    pub(crate) sink: S,
    /// Output channels per tile: tile `t` covers
    /// `[t·task_rows, min((t+1)·task_rows, n))`.
    pub(crate) task_rows: usize,
    /// ExCP: a tile materialises its whole INT8 intermediate and
    /// re-reads it, instead of the fused strip loop.
    pub(crate) split: bool,
    /// The flat `N×M` `Yᵀ`; tile `t` lands at `t·task_rows·m`.
    pub(crate) out: Mutex<Vec<S::Out>>,
    /// Microkernel family every tile of this call computes with
    /// (captured from the pool at call setup — one resolved dispatch
    /// per call, not per tile).
    pub(crate) mk: MicrokernelSet,
    /// Per-variant pipeline metrics (None when telemetry is off).
    pub(crate) metrics: Option<Arc<PipeMetrics>>,
}

/// The trace identity of one tile attempt's stage spans: stage spans
/// carry the submitting request's correlation ID, not the worker's.
pub(crate) struct StageSpan {
    traced: bool,
    worker: u32,
    corr: u64,
}

impl StageSpan {
    fn start(&self) -> Option<Instant> {
        self.traced.then(Instant::now)
    }

    fn record(&self, kind: lq_trace::EventKind, j0: usize, rows: usize, t0: Option<Instant>) {
        if let Some(t0) = t0 {
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

/// A call as the pool sees it, with the sink's output type erased: one
/// virtual call per tile, none per element.
pub(crate) trait TileCall: Send + Sync {
    /// Compute tile `t` and write its rows into the call's output.
    fn run_tile(&self, t: usize, span: &StageSpan);
}

impl<S: Sink> TileCall for CallCtx<S> {
    fn run_tile(&self, t: usize, span: &StageSpan) {
        let (m, k) = (self.a.m(), self.w.k());
        let j0 = t * self.task_rows;
        let rows = self.task_rows.min(self.w.n() - j0);
        let ch = &self.w.channel_scales()[j0..j0 + rows];
        let mx = self.metrics.as_deref();
        let mut out = vec![S::Out::default(); rows * m];
        let emit = |j: usize, i: usize, s: i64| out[j * m + i] = self.sink.emit(i, ch[j], s);
        if self.split {
            // ExCP: the whole INT8 tile makes the round trip through
            // memory between its two stages.
            let t0 = span.start();
            let tile = {
                let _span = mx.and_then(|mx| mx.task_ns_dequant.as_ref().map(|h| h.span_owned()));
                materialize_tile(self.w.as_ref(), j0, rows)
            };
            span.record(lq_trace::EventKind::StageDequant, j0, rows, t0);
            let t0 = span.start();
            {
                let _span = mx.and_then(|mx| mx.task_ns_mma.as_ref().map(|h| h.span_owned()));
                dense_kernel(self.mk, &self.a, &tile, (rows, k), emit);
            }
            span.record(lq_trace::EventKind::StageMma, j0, rows, t0);
        } else {
            let t0 = span.start();
            {
                let _span = mx.map(|mx| mx.task_ns_compute.span_owned());
                strip_kernel(self.mk, &self.a, self.w.as_ref(), (j0, rows), emit);
            }
            span.record(lq_trace::EventKind::StageCompute, j0, rows, t0);
        }
        if let Some(mx) = mx {
            mx.tasks.inc();
        }
        let dst = j0 * m;
        self.out.lock().expect("call output poisoned")[dst..dst + out.len()].copy_from_slice(&out);
    }
}

/// How many times a panicked tile is retried on another worker before
/// its call fails. Injected (transient) faults never recur on retry; a
/// *deterministic* bug exhausts the budget fast instead of looping
/// forever.
const MAX_JOB_RETRIES: u8 = 3;

/// A worker's hold on one tile of a call. Fresh claims come off the
/// cursor at 0 attempts; each panic hands the tile back with one more.
struct Claim {
    t: usize,
    attempts: u8,
}

/// A tile exhausted [`MAX_JOB_RETRIES`]: the call produced no output.
pub(crate) struct RetriesExhausted;

/// One published GEMM call (see the module docs).
struct Call {
    body: Arc<dyn TileCall>,
    tiles: usize,
    /// Cursor: the next tile nobody has claimed yet.
    next: AtomicUsize,
    /// Tiles handed back by a panicked worker.
    retry: Mutex<Vec<Claim>>,
    /// Tiles not yet finished.
    left: AtomicUsize,
    /// A tile exhausted its retry budget; nothing more is claimable.
    failed: AtomicBool,
    /// Latch the caller blocks on: set by the last tile, or by failure.
    done: Mutex<bool>,
    done_cv: Condvar,
    /// Trace job ID of tile 0 (tile `t` is `id0 + t`); 0 when tracing
    /// was off at publish. Survives retries, so a retried tile's whole
    /// history shares one timeline in the trace.
    id0: u64,
    /// Causal correlation ID captured from the publishing thread's
    /// [`lq_trace::corr_scope`] (0 = none).
    corr: u64,
}

impl Call {
    fn job_id(&self, t: usize) -> u64 {
        if self.id0 == 0 {
            0
        } else {
            self.id0 + t as u64
        }
    }

    fn claimable(&self) -> bool {
        !self.failed.load(Ordering::SeqCst)
            && (self.next.load(Ordering::Relaxed) < self.tiles
                || !self.retry.lock().expect("retry list poisoned").is_empty())
    }

    /// The next tile of this call: off the cursor while it lasts (the
    /// index publishes no data, hence `Relaxed`), then off the retry
    /// list.
    fn claim(&self) -> Option<Claim> {
        if self.failed.load(Ordering::SeqCst) {
            return None;
        }
        if self.next.load(Ordering::Relaxed) < self.tiles {
            let t = self.next.fetch_add(1, Ordering::Relaxed);
            if t < self.tiles {
                return Some(Claim { t, attempts: 0 });
            }
        }
        self.retry.lock().expect("retry list poisoned").pop()
    }

    fn trip_latch(&self) {
        *self.done.lock().expect("call latch poisoned") = true;
        self.done_cv.notify_one();
    }

    fn finish_tile(&self) {
        if self.left.fetch_sub(1, Ordering::SeqCst) == 1 {
            self.trip_latch();
        }
    }

    fn fail(&self) {
        self.failed.store(true, Ordering::SeqCst);
        self.trip_latch();
    }
}

/// Lifetime counters of one worker, always on (plain relaxed atomics —
/// no dependency on `lq-telemetry` being enabled) so benches and the CI
/// smoke gate can audit the pool on any build.
struct WorkerCounters {
    jobs: AtomicU64,
    busy_ns: AtomicU64,
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
    /// Tiles this worker executed. Counted before the call's caller is
    /// released, so the sum over workers is exact when `gemm` returns.
    pub jobs: u64,
    /// Nanoseconds spent executing tiles.
    pub busy_ns: u64,
    /// Always 0: tiles are claimed off a shared cursor, so nothing can
    /// be stolen. The field stays because the `ledger` benchmark reads
    /// it for `core.pool_steal_share`; it goes with the next benchmark
    /// change.
    pub steals: u64,
    /// Times a worker slot was respawned after a panic quarantined its
    /// thread (counters are per *slot*, so they survive the respawn).
    pub restarts: u64,
    /// Panicked tiles this worker slot handed back for another attempt.
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

/// The calls in flight, oldest first, and the shutdown flag.
#[derive(Default)]
struct Board {
    calls: VecDeque<Arc<Call>>,
    shutdown: bool,
}

/// State shared by callers and every worker thread.
struct Shared {
    board: Mutex<Board>,
    /// Idle workers park here (under the board lock, so a publish or a
    /// hand-back made under it cannot be missed).
    work: Condvar,
    stats: Vec<WorkerCounters>,
    lifecycle: Mutex<Lifecycle>,
    /// Worker-to-CPU placement policy; each worker (and each respawned
    /// replacement) pins itself on entry to its loop.
    placement: PlacementPolicy,
    /// Fault-injection hook; `None` (one branch per site) in
    /// production builds.
    fault: Option<Arc<FaultInjector>>,
}

/// Persistent worker threads plus the board of published calls they
/// pull tiles from (see the module docs). Created once by
/// [`LiquidGemm::builder`]; drop drains the board and joins every
/// thread.
pub struct WorkerPool {
    shared: Arc<Shared>,
    live: Arc<AtomicUsize>,
    mk: MicrokernelSet,
}

impl WorkerPool {
    /// A pool with no fault injector (tests and internal callers).
    #[cfg(test)]
    pub(crate) fn new(workers: usize) -> Self {
        Self::with_faults(
            workers,
            PlacementPolicy::Unpinned,
            MicrokernelSet::global(),
            None,
        )
    }

    pub(crate) fn with_faults(
        workers: usize,
        placement: PlacementPolicy,
        mk: MicrokernelSet,
        fault: Option<Arc<FaultInjector>>,
    ) -> Self {
        let shared = Arc::new(Shared {
            board: Mutex::new(Board::default()),
            work: Condvar::new(),
            stats: (0..workers).map(|_| WorkerCounters::default()).collect(),
            lifecycle: Mutex::new(Lifecycle::default()),
            placement,
            fault,
        });
        let live = Arc::new(AtomicUsize::new(0));
        for id in 0..workers {
            spawn_worker(&shared, &live, id);
        }
        Self { shared, live, mk }
    }

    /// Run tiles `0..tiles` of `body` on the workers and block until
    /// every one has finished: one publish, one `notify_all`, one wait.
    /// `Err` means a tile panicked on every retry.
    pub(crate) fn run(
        &self,
        body: Arc<dyn TileCall>,
        tiles: usize,
    ) -> Result<(), RetriesExhausted> {
        if tiles == 0 {
            return Ok(());
        }
        if let Some(d) = self.shared.fault.as_ref().and_then(|f| f.on_submit()) {
            // Injected caller stall: models a burst upstream of the pool.
            std::thread::sleep(d);
        }
        let (id0, corr) = if lq_trace::enabled() {
            (
                lq_trace::fresh_job_ids(tiles as u64),
                lq_trace::current_corr(),
            )
        } else {
            (0, 0)
        };
        let call = Arc::new(Call {
            body,
            tiles,
            next: AtomicUsize::new(0),
            retry: Mutex::new(Vec::new()),
            left: AtomicUsize::new(tiles),
            failed: AtomicBool::new(false),
            done: Mutex::new(false),
            done_cv: Condvar::new(),
            id0,
            corr,
        });
        if id0 != 0 {
            for t in 0..tiles {
                lq_trace::record_corr(
                    lq_trace::EventKind::JobSubmit,
                    lq_trace::Track::Control,
                    corr,
                    call.job_id(t),
                    t as u64,
                );
            }
        }
        self.board().calls.push_back(Arc::clone(&call));
        self.shared.work.notify_all();
        let mut done = call.done.lock().expect("call latch poisoned");
        while !*done {
            done = call.done_cv.wait(done).expect("call latch poisoned");
        }
        drop(done);
        self.board().calls.retain(|c| !Arc::ptr_eq(c, &call));
        if call.failed.load(Ordering::SeqCst) {
            Err(RetriesExhausted)
        } else {
            Ok(())
        }
    }

    fn board(&self) -> std::sync::MutexGuard<'_, Board> {
        self.shared.board.lock().expect("pool board poisoned")
    }

    /// Number of worker threads the pool was built with.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.shared.stats.len()
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

    /// Per-worker lifetime counters (tiles, busy-ns, restarts) — the
    /// raw material for pool audits independent of telemetry.
    #[must_use]
    pub fn worker_stats(&self) -> Vec<WorkerStats> {
        self.shared
            .stats
            .iter()
            .map(|s| WorkerStats {
                jobs: s.jobs.load(Ordering::Relaxed),
                busy_ns: s.busy_ns.load(Ordering::Relaxed),
                steals: 0,
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
        self.board().shutdown = true;
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
        self.shared.work.notify_all();
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

/// Spawn (or respawn) the worker thread for slot `id`, registering its
/// handle in the shared lifecycle state so drop can join it. A respawn
/// that loses the race with shutdown spawns nothing — the remaining
/// workers (or nobody, if the caller is gone) drain the board.
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

/// The oldest call with a claimable tile, parking while there is none.
/// Returns `None` when the pool is shutting down and nothing on the
/// board is claimable.
fn next_call(shared: &Shared) -> Option<Arc<Call>> {
    let mut b = shared.board.lock().expect("pool board poisoned");
    loop {
        if let Some(c) = b.calls.iter().find(|c| c.claimable()) {
            return Some(Arc::clone(c));
        }
        if b.shutdown {
            return None;
        }
        b = shared.work.wait(b).expect("pool board poisoned");
    }
}

fn worker_loop(id: usize, shared: &Arc<Shared>, live: &Arc<AtomicUsize>) {
    live.fetch_add(1, Ordering::SeqCst);
    let _guard = LiveGuard(Arc::clone(live));
    // Pin per the pool's placement policy. Running here (not in the
    // spawner) means a panic-respawned replacement re-pins itself to
    // the same CPU automatically. A refused mask leaves the slot
    // unpinned and is visible as `pinned_cpu: None` in worker_stats.
    if let Some(cpu) = shared.placement.cpu_for(id, shared.stats.len()) {
        if affinity::pin_thread(cpu) {
            shared.stats[id].pinned.store(cpu as u64, Ordering::Relaxed);
        }
    }
    // Per-worker metric handles, resolved once the first time telemetry
    // is observed enabled (label: worker id).
    let mut wm: Option<WorkerMetrics> = None;
    while let Some(call) = next_call(shared) {
        while let Some(claim) = call.claim() {
            if wm.is_none() && lq_telemetry::enabled() {
                wm = WorkerMetrics::resolve(id);
            }
            if !run_claim(shared, id, &call, &claim, wm.as_ref()) {
                heal(shared, live, id, &call, claim);
                return;
            }
        }
    }
}

/// Run one tile attempt on worker `id`, containing panics; `false`
/// means it panicked. The fault injector's verdict is raised *inside*
/// the caught closure so an injected fault takes the exact path a real
/// mid-tile panic would. The worker's counters and the `JobFinish`
/// event are written before the `left` decrement that can release the
/// caller.
fn run_claim(
    shared: &Shared,
    id: usize,
    call: &Call,
    claim: &Claim,
    wm: Option<&WorkerMetrics>,
) -> bool {
    let job_id = call.job_id(claim.t);
    let track = lq_trace::Track::Worker(id as u32);
    if job_id != 0 {
        lq_trace::record_corr(lq_trace::EventKind::JobStart, track, call.corr, job_id, 0);
    }
    // Retries are exempt from injection: a scheduled fault is
    // transient by definition, so the retried tile runs clean and
    // recovery is as deterministic as the fault itself.
    let force_panic = match &shared.fault {
        Some(f) => match f.on_worker_job(claim.attempts > 0) {
            FaultAction::Panic => true,
            FaultAction::Stall(d) => {
                std::thread::sleep(d);
                false
            }
            FaultAction::None => false,
        },
        None => false,
    };
    let span = StageSpan {
        traced: job_id != 0,
        worker: id as u32,
        corr: call.corr,
    };
    let t0 = Instant::now();
    let res = catch_unwind(AssertUnwindSafe(|| {
        if force_panic {
            panic!("injected fault: worker panic mid-job");
        }
        call.body.run_tile(claim.t, &span);
    }));
    if res.is_err() {
        return false;
    }
    let ns = t0.elapsed().as_nanos() as u64;
    shared.stats[id].jobs.fetch_add(1, Ordering::Relaxed);
    shared.stats[id].busy_ns.fetch_add(ns, Ordering::Relaxed);
    if job_id != 0 {
        lq_trace::span_full(
            lq_trace::EventKind::JobFinish,
            track,
            call.corr,
            job_id,
            0,
            t0,
            0,
        );
    }
    if let Some(w) = wm {
        w.busy_ns.add(ns);
        w.job_ns.record(ns);
        w.jobs.inc();
    }
    call.finish_tile();
    true
}

/// The quarantine-and-respawn path a worker takes after a tile
/// panicked under it: hand the tile back to its call (bounded retries
/// with a small attempts-proportional backoff) or fail the call, record
/// the restart, spawn this slot's replacement, and let the quarantined
/// thread exit (its caller `return`s out of [`worker_loop`]).
fn heal(shared: &Arc<Shared>, live: &Arc<AtomicUsize>, id: usize, call: &Call, claim: Claim) {
    let Claim { t, attempts } = claim;
    let job_id = call.job_id(t);
    let track = lq_trace::Track::Worker(id as u32);
    shared.stats[id].restarts.fetch_add(1, Ordering::Relaxed);
    lq_trace::record_corr(
        lq_trace::EventKind::WorkerQuarantine,
        track,
        call.corr,
        job_id,
        0,
    );
    let fm = pool_fault_metrics();
    if let Some(m) = &fm {
        m.restarts.inc();
    }
    if attempts < MAX_JOB_RETRIES {
        shared.stats[id].retries.fetch_add(1, Ordering::Relaxed);
        if let Some(m) = &fm {
            m.retries.inc();
        }
        if job_id != 0 {
            lq_trace::record_corr(
                lq_trace::EventKind::JobRetry,
                track,
                call.corr,
                job_id,
                u64::from(attempts) + 1,
            );
        }
        // Backoff before handing the tile to a peer: transient
        // faults (the only kind the injector models) clear on
        // their own; deterministic bugs exhaust the budget fast.
        std::thread::sleep(Duration::from_micros(50u64 << attempts));
        // Under the board lock, so a worker between its claimable
        // check and its park cannot miss the hand-back.
        let board = shared.board.lock().expect("pool board poisoned");
        call.retry.lock().expect("retry list poisoned").push(Claim {
            t,
            attempts: attempts + 1,
        });
        drop(board);
        shared.work.notify_all();
    } else {
        call.fail();
    }
    spawn_worker(shared, live, id);
    lq_trace::record_corr(lq_trace::EventKind::WorkerRespawn, track, call.corr, 0, 0);
}

/// [`LiquidGemm::inject_worker_panic`]'s one-tile call: panics on every
/// attempt, so it runs through the whole retry budget.
struct PanicProbe;

impl TileCall for PanicProbe {
    fn run_tile(&self, _t: usize, _span: &StageSpan) {
        panic!("injected worker panic");
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
    /// `available_parallelism` capped at 8, `task_rows`
    /// [`SIMD_STRIP`](crate::microkernel::SIMD_STRIP) (whole strips).
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

    /// Test probe: run a one-tile call that panics on every attempt
    /// and wait for the pool to give up on it. The pool must keep
    /// working afterwards.
    #[doc(hidden)]
    pub fn inject_worker_panic(&self) {
        assert!(
            self.pool.run(Arc::new(PanicProbe), 1).is_err(),
            "expected the probe to exhaust its retries"
        );
    }
}

/// Builder for [`LiquidGemm`]; validates like
/// [`ParallelConfig::builder`].
#[derive(Debug, Clone)]
pub struct LiquidGemmBuilder {
    workers: usize,
    task_rows: usize,
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
            task_rows: ParallelConfig::default().task_rows,
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
        let mk = match self.microkernel {
            Some(v) => {
                MicrokernelSet::for_variant(v).ok_or(ConfigError::UnsupportedMicrokernel(v))?
            }
            None => MicrokernelSet::global(),
        };
        Ok(LiquidGemm {
            pool: WorkerPool::with_faults(defaults.workers, defaults.placement, mk, self.fault),
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
        // Two tiles, so there is a second fresh tile to stall.
        let lg = LiquidGemm::builder()
            .workers(2)
            .task_rows(8)
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
