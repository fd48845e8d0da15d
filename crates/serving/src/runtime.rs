//! The continuous-batching serving loop — the one implementation of
//! ingest → admit → prefill → decode → retire in the workspace, behind
//! the request API in [`crate::request`].
//!
//! [`ServingRuntime`] schedules over a [`ServingEngine`]: admission
//! control against [`PagedKvCache`] reservations, batched prefill on
//! admission, and iteration-level decode in which every running
//! sequence contributes one row to a single M=batch forward pass per
//! iteration — on `lq_engine::TinyLlm` that stacks all live sequences
//! into one activation matrix per layer and submits it as one GEMM to
//! the shared `Arc<LiquidGemm>` pool (the CPU analogue of the paper's
//! batched decode GEMMs, Figure 10 / Table 1).
//!
//! The runtime is generic over [`ServingEngine`] so `lq-serving` does
//! not depend on `lq-engine` (which depends back on this crate for the
//! KV page tables); `TinyLlm` implements the trait in `lq-engine`, and
//! [`crate::scheduler::ModelledEngine`] implements it here to run the
//! same loop against the H800 cost model.
//!
//! Time is a virtual clock in seconds: after each prefill cohort and
//! each decode step it advances by [`ServingEngine::clock_advance`] —
//! the *measured* wall-clock duration of the call(s) for a real engine,
//! their *modelled* cost for `ModelledEngine` — and it jumps forward
//! over idle gaps to the next arrival. Request latencies therefore
//! reflect compute while arrival schedules stay reproducible —
//! makespan is (compute time) + (idle gaps), never inflated by host
//! scheduling between runs.
//!
//! Per-request deadlines evict with clean KV-page release
//! ([`CompletionStatus::TimedOut`]), a bounded queue rejects arrivals
//! when full ([`CompletionStatus::Rejected`]), and per-request
//! latency / queue-delay histograms are recorded in telemetry.
//!
//! ## Failure containment
//!
//! The serving loop is the unit that must stay up, so engine calls go
//! through the [`ServingEngine`] `try_*` wrappers, which catch unwinds
//! at the call boundary and surface them as [`EngineError`]s. A failed
//! prefill kills only that request; a failed decode step kills the
//! running batch (the engine's state for those sequences is unknown) —
//! in both cases every KV page is released and the request completes
//! as [`CompletionStatus::Failed`] instead of unwinding through the
//! loop. Denied KV allocations (e.g. an injected fault from
//! [`ServingRuntimeBuilder::fault_injector`]) take the same path.
//! Malformed requests — non-finite arrival or deadline, empty prompt,
//! zero output — are rejected at ingest.

use crate::kvcache::{PagedKvCache, SeqId};
use crate::request::{
    Completion, CompletionStatus, PreemptionPolicy, Priority, Request, RunStats, SchedulerConfig,
    SchedulerConfigError,
};
use crate::telemetry::SchedMetrics;
use lq_chaos::FaultInjector;
use std::collections::VecDeque;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

/// An engine call that panicked; caught at the runtime boundary by the
/// [`ServingEngine`] `try_*` wrappers and mapped to
/// [`CompletionStatus::Failed`].
#[derive(Debug, Clone)]
pub struct EngineError {
    message: String,
}

impl EngineError {
    fn from_panic(payload: &(dyn std::any::Any + Send)) -> Self {
        let message = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "engine panicked".to_string());
        Self { message }
    }
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "engine call panicked: {}", self.message)
    }
}

impl std::error::Error for EngineError {}

/// The model-side contract the runtime schedules over.
///
/// Implementations own their KV state per sequence; the runtime owns
/// admission (so an engine sized for at least the runtime's KV token
/// budget never sees OOM).
pub trait ServingEngine {
    /// Register `id`, run prefill over `prompt` (one M=prompt-length
    /// pass), and return the first generated token.
    fn prefill(&mut self, id: SeqId, prompt: &[usize]) -> usize;

    /// One batched decode iteration: for each `(id, last_token)` slot,
    /// feed `last_token` to sequence `id` and return its next token.
    /// All slots advance in a single M=batch forward pass.
    fn decode_batch(&mut self, slots: &[(SeqId, usize)]) -> Vec<usize>;

    /// Drop sequence `id` and release its engine-side KV pages. Called
    /// on finish and on deadline eviction.
    fn release(&mut self, id: SeqId);

    /// [`Self::prefill`] with unwind containment: a panicking engine
    /// becomes an [`EngineError`] instead of tearing down the loop.
    fn try_prefill(&mut self, id: SeqId, prompt: &[usize]) -> Result<usize, EngineError> {
        catch_unwind(AssertUnwindSafe(|| self.prefill(id, prompt)))
            .map_err(|p| EngineError::from_panic(p.as_ref()))
    }

    /// [`Self::decode_batch`] with unwind containment.
    fn try_decode_batch(&mut self, slots: &[(SeqId, usize)]) -> Result<Vec<usize>, EngineError> {
        catch_unwind(AssertUnwindSafe(|| self.decode_batch(slots)))
            .map_err(|p| EngineError::from_panic(p.as_ref()))
    }

    /// [`Self::release`] with unwind containment. Used on the failure
    /// path, where the engine may hold no state for `id` (a prefill
    /// that panicked half-registered) and its own release assertions
    /// must not escalate the cleanup into another unwind.
    fn try_release(&mut self, id: SeqId) {
        let _ = catch_unwind(AssertUnwindSafe(|| self.release(id)));
    }

    /// Seconds the serving clock advances for the engine call(s) made
    /// since `started`; the runtime reads it once after each prefill
    /// cohort and once after each decode step. The default is the
    /// measured wall time. An engine that models its latency instead of
    /// spending it ([`crate::scheduler::ModelledEngine`]) overrides
    /// this with the modelled cost of those calls.
    fn clock_advance(&mut self, started: Instant) -> f64 {
        started.elapsed().as_secs_f64()
    }
}

/// A [`Request`] paired with its actual prompt tokens.
#[derive(Debug, Clone)]
pub struct PromptRequest {
    /// Scheduling metadata.
    pub meta: Request,
    /// Prompt token ids (length must equal `meta.prompt_len`).
    pub prompt: Vec<usize>,
}

impl PromptRequest {
    /// Pair a request with its prompt tokens.
    #[must_use]
    pub fn new(meta: Request, prompt: Vec<usize>) -> Self {
        assert_eq!(
            meta.prompt_len,
            prompt.len(),
            "prompt_len must match the prompt"
        );
        Self { meta, prompt }
    }
}

/// The serving runtime's virtual clock (seconds) as trace-event
/// virtual-timestamp nanoseconds.
fn vns(t: f64) -> u64 {
    (t * 1e9) as u64
}

/// A sequence currently decoding. The full [`PromptRequest`] rides
/// along so a preempted or evacuated sequence can re-queue and restart
/// from prefill with its original metadata.
struct Running {
    req: PromptRequest,
    admitted_at: f64,
    produced: usize,
    last_token: usize,
}

impl Running {
    fn id(&self) -> u64 {
        self.req.meta.id
    }
}

/// `swap_remove` every element `leaves` selects, scanning in index
/// order, and hand them back in removal order.
fn take_where<T>(v: &mut Vec<T>, leaves: impl Fn(&T) -> bool) -> Vec<T> {
    let mut taken = Vec::new();
    let mut i = 0;
    while i < v.len() {
        if leaves(&v[i]) {
            taken.push(v.swap_remove(i));
        } else {
            i += 1;
        }
    }
    taken
}

/// One run's accumulator: the stats being built and the telemetry
/// families they mirror into.
struct Tally {
    stats: RunStats,
    metrics: Option<SchedMetrics>,
}

impl Tally {
    /// Record that `req` left the system, mirroring the completion into
    /// telemetry and onto the request's trace track. Requests that
    /// never ran pass the same instant as `admitted_at` and
    /// `finished_at`.
    fn complete(
        &mut self,
        req: &Request,
        status: CompletionStatus,
        admitted_at: f64,
        finished_at: f64,
        generated: u64,
    ) {
        let c = Completion {
            id: req.id,
            admitted_at,
            finished_at,
            arrival: req.arrival,
            status,
            generated,
            priority: req.priority,
        };
        lq_trace::record_virtual(
            lq_trace::EventKind::ReqComplete,
            lq_trace::Track::Request(c.id),
            vns(c.finished_at),
            match c.status {
                CompletionStatus::Finished => 0,
                CompletionStatus::TimedOut => 1,
                CompletionStatus::Rejected => 2,
                CompletionStatus::Failed => 3,
            },
            c.generated,
        );
        if let Some(m) = &self.metrics {
            match c.status {
                CompletionStatus::Finished => {
                    m.completed.inc();
                    m.request_latency_ns.record_secs(c.latency());
                    m.queue_delay_ns.record_secs(c.queue_delay());
                }
                CompletionStatus::TimedOut => m.timed_out.inc(),
                CompletionStatus::Rejected => m.rejected.inc(),
                CompletionStatus::Failed => m.failed.inc(),
            }
        }
        self.stats.completions.push(c);
    }

    /// Move a preempted or evacuated sequence's tokens out of the
    /// goodput ledger: it restarts from prefill, so they are discarded
    /// work.
    fn discard(&mut self, produced: usize) {
        self.stats.preempted_tokens += produced as u64;
        self.stats.generated_tokens -= produced as u64;
    }
}

/// Result of [`ServingRuntime::run_with_halt`]: the completions of the
/// run plus whatever was still in flight when the halt tripped.
#[derive(Debug)]
pub struct DrainedRun {
    /// Completions of everything that left the system before the halt.
    pub stats: RunStats,
    /// Requests evacuated mid-flight (running sequences — KV fully
    /// released — plus queued and not-yet-arrived ones), ready to
    /// resubmit to another runtime. Empty when `halted` is false.
    pub evacuated: Vec<PromptRequest>,
    /// Whether the halt predicate stopped the loop (false: normal
    /// drain).
    pub halted: bool,
}

/// Continuous-batching runtime over a [`ServingEngine`] — the one
/// serving loop in the workspace.
///
/// Owns the admission-control page table: a request is admitted only
/// when its full `prompt + output` reservation fits — conservatively
/// under [`PreemptionPolicy::Never`], or by evicting strictly
/// lower-priority running sequences under
/// [`PreemptionPolicy::PriorityKv`]. Construct via
/// [`ServingRuntime::builder`] (validated) or [`ServingRuntime::new`].
pub struct ServingRuntime {
    cfg: SchedulerConfig,
    kv: PagedKvCache,
    replica: Option<u32>,
}

impl ServingRuntime {
    /// Build a runtime whose admission table holds `kv_budget_tokens`
    /// tokens in pages of `cfg.page_tokens`. The engine's own KV stores
    /// must hold at least as many tokens per layer.
    #[must_use]
    pub fn new(cfg: SchedulerConfig, kv_budget_tokens: usize) -> Self {
        let kv = PagedKvCache::new(kv_budget_tokens as u64, cfg.page_tokens, 1);
        Self {
            cfg,
            kv,
            replica: None,
        }
    }

    /// Start building a validated runtime (mirrors
    /// `LiquidGemm::builder()`): scheduler knobs, KV budget, replica
    /// label, and fault injector in one fluent chain.
    #[must_use]
    pub fn builder() -> ServingRuntimeBuilder {
        ServingRuntimeBuilder::default()
    }

    /// The admission page table (tests assert leak-freedom on it).
    #[must_use]
    pub fn kv(&self) -> &PagedKvCache {
        &self.kv
    }

    /// The replica label this runtime reports telemetry under (set by
    /// [`ServingRuntimeBuilder::replica`]; `None` = unlabelled).
    #[must_use]
    pub fn replica(&self) -> Option<u32> {
        self.replica
    }

    /// Give back everything sequence `id` holds — engine state and
    /// admission pages — and mark it on the request's trace track.
    /// `suspect` says the engine's state for `id` is unknown (a call on
    /// it panicked, or the replica is dead), so the engine side goes
    /// through the unwind-contained wrapper.
    fn release<E: ServingEngine>(&mut self, engine: &mut E, id: SeqId, now: f64, suspect: bool) {
        if suspect {
            engine.try_release(id);
        } else {
            engine.release(id);
        }
        self.kv.free_sequence(id).expect("was admitted");
        lq_trace::record_virtual(
            lq_trace::EventKind::KvRelease,
            lq_trace::Track::Request(id),
            vns(now),
            0,
            0,
        );
    }

    /// Take `r` off the device for good: release it and complete it as
    /// `status` with the tokens it produced so far.
    fn retire<E: ServingEngine>(
        &mut self,
        engine: &mut E,
        tally: &mut Tally,
        r: Running,
        status: CompletionStatus,
        now: f64,
    ) {
        self.release(engine, r.id(), now, status == CompletionStatus::Failed);
        tally.complete(&r.req.meta, status, r.admitted_at, now, r.produced as u64);
    }

    /// Run the serving loop to completion over `requests` (any arrival
    /// order), driving `engine` with batched forward passes.
    ///
    /// Every request completes exactly once — as `Finished`, `TimedOut`
    /// (deadline expired; pages released on eviction), `Rejected`
    /// (queue occupancy over the request's tier cap at arrival, a
    /// reservation that could never fit the KV budget, or a malformed
    /// request: non-finite timing, empty prompt, zero output), or
    /// `Failed` (engine panic or denied KV allocation mid-flight; pages
    /// fully released). After the run all pages are back on the free
    /// list.
    ///
    /// Admission scans tiers strictly High→Low (FCFS within a tier);
    /// under [`PreemptionPolicy::PriorityKv`] a blocked reservation may
    /// evict strictly lower-priority running sequences (full KV
    /// release, victim re-queued to the front of its tier to restart
    /// from prefill), counted in `lq_serving_preemptions_total` and
    /// [`RunStats::preemptions`].
    pub fn run<E: ServingEngine>(
        &mut self,
        engine: &mut E,
        requests: Vec<PromptRequest>,
    ) -> RunStats {
        self.run_with_halt(engine, requests, &mut |_| false).stats
    }

    /// [`Self::run`] with a halt predicate, consulted once per
    /// scheduler pass with the decode-step count so far. When it
    /// returns `true` the replica stops dead: every running sequence is
    /// released (KV fully freed; its produced tokens are discarded into
    /// [`RunStats::preempted_tokens`]) and handed back in
    /// [`DrainedRun::evacuated`] together with everything still queued
    /// or yet to arrive — the router's whole-replica-failure evacuation
    /// path. With a never-true predicate this is exactly [`Self::run`].
    pub fn run_with_halt<E: ServingEngine>(
        &mut self,
        engine: &mut E,
        requests: Vec<PromptRequest>,
        halt: &mut dyn FnMut(u64) -> bool,
    ) -> DrainedRun {
        let mut tally = Tally {
            stats: RunStats::empty(),
            metrics: SchedMetrics::resolve_for(self.replica),
        };

        // Validate at ingest what `Request`'s public fields let a
        // caller bypass the constructors on: a NaN arrival must not
        // reach the sort below, a NaN deadline would silently never
        // expire, and an empty prompt or a zero-token output has no
        // prefill to run (the first token comes from prefill, so a
        // zero-output request would finish having generated one).
        let mut arrivals: Vec<PromptRequest> = Vec::with_capacity(requests.len());
        for req in requests {
            let m = &req.meta;
            let bad_timing = !m.arrival.is_finite() || m.deadline.is_some_and(|d| !d.is_finite());
            if bad_timing || m.prompt_len == 0 || m.output_len == 0 {
                lq_trace::record_virtual(
                    lq_trace::EventKind::ReqIngest,
                    lq_trace::Track::Request(m.id),
                    0,
                    m.prompt_len as u64,
                    m.output_len as u64,
                );
                // Timestamps are zeroed so NaN cannot leak into
                // latency statistics either.
                let zeroed = Request { arrival: 0.0, ..*m };
                tally.complete(&zeroed, CompletionStatus::Rejected, 0.0, 0.0, 0);
            } else {
                arrivals.push(req);
            }
        }
        arrivals.sort_by(|a, b| a.meta.arrival.total_cmp(&b.meta.arrival));
        arrivals.reverse(); // pop() takes the earliest

        let mut now = 0.0f64;
        // One FCFS queue per tier (indexed by `Priority::index`);
        // admission scans them High→Low.
        let mut pending: [VecDeque<PromptRequest>; 3] = Default::default();
        let pending_total =
            |p: &[VecDeque<PromptRequest>; 3]| p.iter().map(VecDeque::len).sum::<usize>();
        let mut running: Vec<Running> = Vec::new();
        let mut halted = false;

        loop {
            // Halt gate (whole-replica failure under the router): the
            // predicate sees the decode-step count so chaos plans can
            // kill a replica at an exact step.
            if halt(tally.stats.decode_steps) {
                halted = true;
                break;
            }

            // 0. Ingest arrivals up to the current clock; reject on an
            //    impossible reservation or when queue occupancy is at
            //    the arriving tier's cap (SLO-tiered admission sheds
            //    low-priority work first; FCFS uses one shared cap).
            while arrivals.last().is_some_and(|r| r.meta.arrival <= now) {
                let req = arrivals.pop().expect("checked non-empty");
                lq_trace::record_virtual(
                    lq_trace::EventKind::ReqIngest,
                    lq_trace::Track::Request(req.meta.id),
                    vns(req.meta.arrival),
                    req.meta.prompt_len as u64,
                    req.meta.output_len as u64,
                );
                let need = req.meta.prompt_len + req.meta.output_len;
                let impossible = self.kv.pages_for(need) > self.kv.total_pages();
                let tier = req.meta.priority;
                if impossible || pending_total(&pending) >= self.cfg.queue_cap(tier) {
                    let at = req.meta.arrival;
                    tally.complete(&req.meta, CompletionStatus::Rejected, at, at, 0);
                } else {
                    pending[tier.index()].push_back(req);
                }
            }

            // 0b. Expire queued requests whose deadline already passed.
            for q in pending.iter_mut() {
                q.retain(|req| {
                    let expired = req.meta.expiry().is_some_and(|e| now > e);
                    if expired {
                        tally.complete(&req.meta, CompletionStatus::TimedOut, now, now, 0);
                    }
                    !expired
                });
            }

            // 1. Admit while the reservation fits — strict priority
            //    (High→Low, FCFS within a tier, no bypass below a
            //    blocked tier), bounded by the per-pass prefill-token
            //    budget — then prefill the admitted cohort back-to-back
            //    (each prefill is one M=prompt-length batch through the
            //    engine).
            let mut admitted: Vec<PromptRequest> = Vec::new();
            let mut prefill_budget = self.cfg.max_prefill_tokens;
            'admission: for tier in Priority::DESCENDING {
                loop {
                    if running.len() + admitted.len() >= self.cfg.max_batch {
                        break 'admission;
                    }
                    let (head_id, prompt_len, need) = match pending[tier.index()].front() {
                        Some(h) => (
                            h.meta.id,
                            h.meta.prompt_len,
                            h.meta.prompt_len + h.meta.output_len,
                        ),
                        None => break, // tier drained: scan the next
                    };
                    if !admitted.is_empty() && prompt_len > prefill_budget {
                        // Prefill/decode disaggregation: the pass's
                        // prompt budget is spent — let the running
                        // batch decode before taking more prefill work.
                        // (The first admission always proceeds, so a
                        // long prompt cannot livelock.)
                        break 'admission;
                    }
                    if !self.kv.can_reserve(need) {
                        // Under PriorityKv, evict strictly lower-
                        // priority running sequences — lowest tier
                        // first, newest admission first — but only when
                        // eviction can actually free enough pages.
                        let mut preempted = false;
                        if self.cfg.preemption == PreemptionPolicy::PriorityKv {
                            let mut victims: Vec<u64> = Vec::new();
                            {
                                let mut cand: Vec<&Running> = running
                                    .iter()
                                    .filter(|r| r.req.meta.priority < tier)
                                    .collect();
                                cand.sort_by(|a, b| {
                                    a.req
                                        .meta
                                        .priority
                                        .cmp(&b.req.meta.priority)
                                        .then(b.admitted_at.total_cmp(&a.admitted_at))
                                });
                                let need_pages = self.kv.pages_for(need);
                                let mut reclaim = self.kv.free_pages();
                                for r in cand {
                                    if reclaim >= need_pages {
                                        break;
                                    }
                                    reclaim +=
                                        self.kv.page_table(r.id()).expect("victim is live").len();
                                    victims.push(r.id());
                                }
                                if reclaim < need_pages {
                                    // Even evicting every lower-priority
                                    // sequence would not fit: thrashing
                                    // them buys nothing.
                                    victims.clear();
                                }
                            }
                            for vid in victims {
                                let pos = running
                                    .iter()
                                    .position(|r| r.id() == vid)
                                    .expect("victim is running");
                                let v = running.swap_remove(pos);
                                lq_trace::record_virtual(
                                    lq_trace::EventKind::ReqPreempt,
                                    lq_trace::Track::Request(vid),
                                    vns(now),
                                    v.produced as u64,
                                    head_id,
                                );
                                self.release(engine, vid, now, false);
                                if let Some(m) = &tally.metrics {
                                    m.preemptions.inc();
                                }
                                tally.stats.preemptions += 1;
                                tally.discard(v.produced);
                                // Front of its own tier's queue: the
                                // victim re-admits ahead of its peers,
                                // original arrival preserved.
                                pending[v.req.meta.priority.index()].push_front(v.req);
                                preempted = true;
                            }
                        }
                        if !(preempted && self.kv.can_reserve(need)) {
                            if let Some(m) = &tally.metrics {
                                m.blocked.inc();
                            }
                            break 'admission; // strict priority: no bypass
                        }
                    }
                    let req = pending[tier.index()].pop_front().expect("front exists");
                    if self.kv.add_sequence(head_id, need).is_err() {
                        // `can_reserve` just passed, so this is a denied
                        // allocation (fault injection): fail the request
                        // cleanly and keep admitting the rest.
                        tally.complete(&req.meta, CompletionStatus::Failed, now, now, 0);
                        continue;
                    }
                    if lq_trace::enabled() {
                        let t = lq_trace::Track::Request(req.meta.id);
                        lq_trace::record_virtual(
                            lq_trace::EventKind::ReqAdmit,
                            t,
                            vns(now),
                            need as u64,
                            0,
                        );
                        lq_trace::record_virtual(
                            lq_trace::EventKind::KvReserve,
                            t,
                            vns(now),
                            self.kv.pages_for(need) as u64,
                            0,
                        );
                    }
                    prefill_budget = prefill_budget.saturating_sub(prompt_len);
                    admitted.push(req);
                }
            }
            if !admitted.is_empty() {
                let admit_time = now;
                let n_admitted = admitted.len();
                let t0 = Instant::now();
                // Prefill the cohort one request at a time so a panic
                // inside the engine fails only the request that caused
                // it: its reservation and any half-registered engine
                // state are released, the rest of the cohort proceeds.
                let mut prefilled: Vec<(PromptRequest, usize)> = Vec::with_capacity(n_admitted);
                let mut failed: Vec<PromptRequest> = Vec::new();
                for req in admitted {
                    // Scope the request ID over the engine call so every
                    // pool job its GEMMs submit carries it; the prefill
                    // span itself is timed per request (telemetry keeps
                    // the cohort-level histogram below).
                    let _corr = lq_trace::enabled().then(|| lq_trace::corr_scope(req.meta.id));
                    let pt0 = lq_trace::enabled().then(Instant::now);
                    let res = engine.try_prefill(req.meta.id, &req.prompt);
                    if let Some(pt0) = pt0 {
                        lq_trace::span_full(
                            lq_trace::EventKind::ReqPrefill,
                            lq_trace::Track::Request(req.meta.id),
                            req.meta.id,
                            0,
                            0,
                            pt0,
                            vns(admit_time),
                        );
                    }
                    match res {
                        Ok(tok) => prefilled.push((req, tok)),
                        Err(_) => {
                            self.release(engine, req.meta.id, now, true);
                            failed.push(req);
                        }
                    }
                }
                let dt = engine.clock_advance(t0);
                now += dt;
                if let Some(m) = &tally.metrics {
                    m.admitted.add(n_admitted as u64);
                    m.prefill_ns.record_secs(dt);
                    m.queue_len.set(pending_total(&pending) as f64);
                }
                for req in failed {
                    tally.complete(&req.meta, CompletionStatus::Failed, admit_time, now, 0);
                }
                tally.stats.generated_tokens += prefilled.len() as u64;
                for (req, tok) in prefilled {
                    running.push(Running {
                        req,
                        admitted_at: admit_time,
                        produced: 1, // prefill emitted the first token
                        last_token: tok,
                    });
                }
            }
            tally.stats.peak_batch = tally.stats.peak_batch.max(running.len());

            // 2. Evict running sequences past their deadline, releasing
            //    engine and admission pages before the next iteration.
            for r in take_where(&mut running, |r| {
                r.req.meta.expiry().is_some_and(|e| now > e)
            }) {
                self.retire(engine, &mut tally, r, CompletionStatus::TimedOut, now);
            }

            // 2b. Retire sequences that finished at prefill
            //     (output_len == 1) or in the previous iteration.
            for r in take_where(&mut running, |r| r.produced >= r.req.meta.output_len) {
                self.retire(engine, &mut tally, r, CompletionStatus::Finished, now);
            }

            if running.is_empty() {
                if pending_total(&pending) > 0 {
                    // Impossible-fit requests were rejected at ingest,
                    // so a waiting request with an empty device always
                    // admits on the next pass.
                    continue;
                }
                match arrivals.last() {
                    Some(req) => {
                        now = now.max(req.meta.arrival);
                        continue;
                    }
                    None => break,
                }
            }

            // 3. One decode iteration: all running sequences in a
            //    single M=batch forward pass.
            let slots: Vec<(SeqId, usize)> =
                running.iter().map(|r| (r.id(), r.last_token)).collect();
            // One synthetic correlation ID per batched step: the GEMM
            // jobs of this forward pass belong to every request in the
            // batch, so they carry the step ID and each request's
            // `ReqDecodeIter` span repeats it as the join key.
            let step_corr = if lq_trace::enabled() {
                lq_trace::fresh_batch_corr()
            } else {
                0
            };
            let _corr = (step_corr != 0).then(|| lq_trace::corr_scope(step_corr));
            let t0 = Instant::now();
            let res = engine.try_decode_batch(&slots);
            let dt = engine.clock_advance(t0);
            // The span duration must be the *virtual-clock* advance of
            // this step, not a fresh `Instant` measurement: the
            // per-request critical-path decomposition
            // (`lq_trace::analyze::request_paths`) sums these spans
            // against virtual completion times, and an `Instant` read
            // taken after `now += dt` would overshoot the advance by
            // the recording overhead, breaking the exact-sum invariant.
            let step_v0 = vns(now);
            now += dt;
            if step_corr != 0 {
                let step_dur = vns(now).saturating_sub(step_v0);
                for &(id, _) in &slots {
                    lq_trace::span_exact(
                        lq_trace::EventKind::ReqDecodeIter,
                        lq_trace::Track::Request(id),
                        step_corr,
                        step_corr,
                        slots.len() as u64,
                        t0,
                        step_dur,
                        vns(now),
                    );
                }
            }
            match res {
                Ok(next) => {
                    assert_eq!(next.len(), slots.len(), "engine returned wrong batch");
                    if let Some(m) = &tally.metrics {
                        m.batch_size.record(running.len() as u64);
                        m.decode_step_ns.record_secs(dt);
                    }
                    tally.stats.decode_steps += 1;
                    tally.stats.generated_tokens += running.len() as u64;
                    for (r, tok) in running.iter_mut().zip(next) {
                        r.last_token = tok;
                        r.produced += 1;
                    }
                }
                Err(_) => {
                    // A panic mid-batch leaves the engine's state for
                    // every running sequence unknown: fail the whole
                    // batch with full release and keep serving what is
                    // still queued.
                    for r in running.drain(..) {
                        self.retire(engine, &mut tally, r, CompletionStatus::Failed, now);
                    }
                }
            }
        }

        let mut evacuated: Vec<PromptRequest> = Vec::new();
        if halted {
            // Whole-replica failure: release every running sequence
            // (tokens produced so far are discarded — the router
            // restarts the request elsewhere from prefill; the replica
            // is "dead", so its engine state is suspect) and hand back
            // everything queued or yet to arrive.
            for r in running.drain(..) {
                self.release(engine, r.id(), now, true);
                tally.discard(r.produced);
                evacuated.push(r.req);
            }
            for q in pending.iter_mut() {
                evacuated.extend(q.drain(..));
            }
            arrivals.reverse(); // back to earliest-first
            evacuated.extend(arrivals);
        }

        let Tally { mut stats, metrics } = tally;
        stats.makespan = now;
        if let Some(m) = &metrics {
            m.tokens_per_s.set(stats.throughput());
            m.queue_len.set(0.0);
        }
        assert!(self.kv.check_invariants(), "page conservation violated");
        assert_eq!(
            self.kv.free_pages(),
            self.kv.total_pages(),
            "KV pages leaked after drain"
        );
        DrainedRun {
            stats,
            evacuated,
            halted,
        }
    }
}

/// Invalid [`ServingRuntime::builder`] parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServingConfigError {
    /// A scheduler knob failed validation.
    Scheduler(SchedulerConfigError),
    /// `kv_budget_tokens == 0`: nothing could ever be admitted.
    ZeroKvBudget,
}

impl fmt::Display for ServingConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServingConfigError::Scheduler(e) => write!(f, "scheduler config: {e}"),
            ServingConfigError::ZeroKvBudget => write!(f, "kv_budget_tokens must be >= 1"),
        }
    }
}

impl std::error::Error for ServingConfigError {}

impl From<SchedulerConfigError> for ServingConfigError {
    fn from(e: SchedulerConfigError) -> Self {
        ServingConfigError::Scheduler(e)
    }
}

/// Validating builder for [`ServingRuntime`] — the serving-side mirror
/// of `LiquidGemm::builder()`. Scheduler knobs pass through to
/// [`SchedulerConfig::builder`] (same validation), plus the runtime's
/// own KV budget, replica telemetry label, and fault injector.
#[derive(Clone)]
pub struct ServingRuntimeBuilder {
    cfg: SchedulerConfig,
    kv_budget_tokens: usize,
    fault_injector: Option<Arc<FaultInjector>>,
    replica: Option<u32>,
}

impl Default for ServingRuntimeBuilder {
    fn default() -> Self {
        Self {
            cfg: SchedulerConfig::default(),
            kv_budget_tokens: 4096,
            fault_injector: None,
            replica: None,
        }
    }
}

impl ServingRuntimeBuilder {
    /// Replace all scheduler knobs with an already-built configuration.
    #[must_use]
    pub fn scheduler(mut self, cfg: SchedulerConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Concurrent-sequence cap (validated ≥ 1).
    #[must_use]
    pub fn max_batch(mut self, n: usize) -> Self {
        self.cfg.max_batch = n;
        self
    }

    /// Tokens per KV page (validated ≥ 1).
    #[must_use]
    pub fn page_tokens(mut self, n: usize) -> Self {
        self.cfg.page_tokens = n;
        self
    }

    /// Waiting-queue capacity (validated ≥ 1).
    #[must_use]
    pub fn max_queue(mut self, n: usize) -> Self {
        self.cfg.max_queue = n;
        self
    }

    /// Queue-admission policy (validated, e.g. `SloTiered` requires a
    /// bounded queue).
    #[must_use]
    pub fn admission(mut self, p: crate::request::AdmissionPolicy) -> Self {
        self.cfg.admission = p;
        self
    }

    /// KV-pressure preemption policy.
    #[must_use]
    pub fn preemption(mut self, p: PreemptionPolicy) -> Self {
        self.cfg.preemption = p;
        self
    }

    /// Prompt-token budget per admission pass (validated ≥ 1).
    #[must_use]
    pub fn max_prefill_tokens(mut self, n: usize) -> Self {
        self.cfg.max_prefill_tokens = n;
        self
    }

    /// Admission-table size in tokens (validated ≥ 1; default 4096).
    #[must_use]
    pub fn kv_budget_tokens(mut self, n: usize) -> Self {
        self.kv_budget_tokens = n;
        self
    }

    /// Wire a [`FaultInjector`] into the admission page table.
    #[must_use]
    pub fn fault_injector(mut self, inj: Arc<FaultInjector>) -> Self {
        self.fault_injector = Some(inj);
        self
    }

    /// Label this runtime's telemetry `{replica="<n>"}` (router
    /// shards).
    #[must_use]
    pub fn replica(mut self, n: u32) -> Self {
        self.replica = Some(n);
        self
    }

    /// Validate every knob and build the runtime.
    pub fn build(self) -> Result<ServingRuntime, ServingConfigError> {
        // Round-trip through the scheduler builder so its validation
        // stays the single source of truth.
        let cfg = SchedulerConfig::builder()
            .max_batch(self.cfg.max_batch)
            .page_tokens(self.cfg.page_tokens)
            .max_queue(self.cfg.max_queue)
            .admission(self.cfg.admission)
            .preemption(self.cfg.preemption)
            .max_prefill_tokens(self.cfg.max_prefill_tokens)
            .build()?;
        if self.kv_budget_tokens == 0 {
            return Err(ServingConfigError::ZeroKvBudget);
        }
        let mut rt = ServingRuntime::new(cfg, self.kv_budget_tokens);
        if let Some(inj) = self.fault_injector {
            rt.kv.set_fault_injector(inj);
        }
        rt.replica = self.replica;
        Ok(rt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// Deterministic engine stub: tracks live sequences and batch
    /// shapes so tests can assert the runtime's scheduling behaviour
    /// without pulling in `lq-engine` (which depends on this crate).
    struct MockEngine {
        vocab: usize,
        live: HashSet<SeqId>,
        peak_batch: usize,
        prefills: usize,
        decode_calls: usize,
    }

    impl MockEngine {
        fn new() -> Self {
            Self {
                vocab: 64,
                live: HashSet::new(),
                peak_batch: 0,
                prefills: 0,
                decode_calls: 0,
            }
        }
    }

    impl ServingEngine for MockEngine {
        fn prefill(&mut self, id: SeqId, prompt: &[usize]) -> usize {
            assert!(self.live.insert(id), "sequence {id} already live");
            self.prefills += 1;
            prompt.iter().sum::<usize>() % self.vocab
        }

        fn decode_batch(&mut self, slots: &[(SeqId, usize)]) -> Vec<usize> {
            self.decode_calls += 1;
            self.peak_batch = self.peak_batch.max(slots.len());
            slots
                .iter()
                .map(|&(id, t)| {
                    assert!(self.live.contains(&id), "decode of dead sequence {id}");
                    (t + 1) % self.vocab
                })
                .collect()
        }

        fn release(&mut self, id: SeqId) {
            assert!(self.live.remove(&id), "double release of {id}");
        }
    }

    fn reqs(n: usize, prompt_len: usize, output_len: usize) -> Vec<PromptRequest> {
        (0..n as u64)
            .map(|id| {
                PromptRequest::new(
                    Request::new(id, prompt_len, output_len, 0.0),
                    (0..prompt_len).collect(),
                )
            })
            .collect()
    }

    #[test]
    fn drains_all_requests_and_releases_everything() {
        let mut engine = MockEngine::new();
        let mut rt = ServingRuntime::new(SchedulerConfig::default(), 4096);
        let stats = rt.run(&mut engine, reqs(10, 8, 4));
        assert_eq!(stats.finished(), 10);
        assert_eq!(stats.generated_tokens, 10 * 4);
        assert!(engine.live.is_empty(), "engine leaked sequences");
        assert_eq!(rt.kv().free_pages(), rt.kv().total_pages());
        // All 10 fit at once: 1 prefill cohort, then 3 decode rounds
        // (prefill produced token 1 of 4).
        assert_eq!(engine.prefills, 10);
        assert_eq!(stats.peak_batch, 10);
        assert_eq!(stats.decode_steps, 3);
    }

    #[test]
    fn batch_cap_limits_concurrency() {
        let mut engine = MockEngine::new();
        let cfg = SchedulerConfig::builder().max_batch(3).build().unwrap();
        let mut rt = ServingRuntime::new(cfg, 4096);
        let stats = rt.run(&mut engine, reqs(10, 8, 4));
        assert_eq!(stats.finished(), 10);
        assert!(stats.peak_batch <= 3);
        assert!(engine.peak_batch <= 3);
    }

    #[test]
    fn kv_pressure_serialises_admission() {
        // Budget fits exactly one request's reservation (8+4=12 tokens
        // → 2 pages of 8): requests run one at a time.
        let cfg = SchedulerConfig::builder().page_tokens(8).build().unwrap();
        let mut engine = MockEngine::new();
        let mut rt = ServingRuntime::new(cfg, 16);
        let stats = rt.run(&mut engine, reqs(5, 8, 4));
        assert_eq!(stats.finished(), 5);
        assert_eq!(stats.peak_batch, 1);
        assert_eq!(rt.kv().free_pages(), rt.kv().total_pages());
    }

    #[test]
    fn bounded_queue_rejects_deterministically() {
        // max_batch 1 and max_queue 1 with 4 simultaneous arrivals:
        // the ingest pass queues the first and rejects the other three
        // before anything is admitted.
        let cfg = SchedulerConfig::builder()
            .max_batch(1)
            .max_queue(1)
            .build()
            .unwrap();
        let mut engine = MockEngine::new();
        let mut rt = ServingRuntime::new(cfg, 4096);
        let stats = rt.run(&mut engine, reqs(4, 8, 2));
        assert_eq!(stats.finished(), 1);
        assert_eq!(stats.rejected(), 3);
        for c in &stats.completions {
            if c.status == CompletionStatus::Rejected {
                assert_eq!(c.generated, 0);
                assert_eq!(c.latency(), 0.0);
            }
        }
        assert!(engine.live.is_empty());
    }

    #[test]
    fn zero_deadline_times_out_after_prefill() {
        // deadline 0.0: still admitted at t=0, but measured prefill
        // time pushes the clock past expiry before the first decode —
        // the request is evicted having produced exactly one token.
        let mut engine = MockEngine::new();
        let mut rt = ServingRuntime::new(SchedulerConfig::default(), 4096);
        let reqs = vec![PromptRequest::new(
            Request::new(0, 4, 8, 0.0).with_deadline(0.0),
            vec![1, 2, 3, 4],
        )];
        let stats = rt.run(&mut engine, reqs);
        assert_eq!(stats.timed_out(), 1);
        assert_eq!(stats.completions[0].generated, 1);
        assert_eq!(stats.decode_steps, 0);
        assert!(engine.live.is_empty(), "timed-out sequence not released");
        assert_eq!(rt.kv().free_pages(), rt.kv().total_pages());
    }

    #[test]
    fn impossible_reservation_is_rejected() {
        let mut engine = MockEngine::new();
        let mut rt = ServingRuntime::new(SchedulerConfig::default(), 64);
        let mut rs = reqs(1, 8, 4);
        rs.push(PromptRequest::new(
            Request::new(9, 100, 100, 0.0),
            (0..100).collect(),
        ));
        let stats = rt.run(&mut engine, rs);
        assert_eq!(stats.finished(), 1);
        assert_eq!(stats.rejected(), 1);
        assert_eq!(engine.prefills, 1, "rejected request must never prefill");
    }

    #[test]
    fn single_token_outputs_finish_at_prefill() {
        let mut engine = MockEngine::new();
        let mut rt = ServingRuntime::new(SchedulerConfig::default(), 4096);
        let stats = rt.run(&mut engine, reqs(3, 8, 1));
        assert_eq!(stats.finished(), 3);
        assert_eq!(stats.decode_steps, 0);
        assert_eq!(stats.generated_tokens, 3);
    }

    #[test]
    fn staggered_arrivals_join_the_running_batch() {
        // Second wave arrives while the first is still decoding (clock
        // jumps to their arrival once the device idles or passes it):
        // everything finishes, ids complete exactly once.
        let mut engine = MockEngine::new();
        let mut rt = ServingRuntime::new(SchedulerConfig::default(), 4096);
        let mut rs = reqs(4, 8, 64);
        for (i, extra) in reqs(4, 8, 64).into_iter().enumerate() {
            let id = 100 + i as u64;
            rs.push(PromptRequest::new(
                Request::new(id, 8, 64, 1e-7),
                extra.prompt,
            ));
        }
        let stats = rt.run(&mut engine, rs);
        assert_eq!(stats.finished(), 8);
        let mut ids: Vec<u64> = stats.completions.iter().map(|c| c.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 8, "each request completes exactly once");
    }

    /// [`MockEngine`] wrapper that panics on schedule: at prefill of
    /// chosen ids, or at the n-th decode call — before touching the
    /// inner engine, so prefill panics leave no half-registered state
    /// while decode panics leave the batch live (the runtime must
    /// release it through `try_release`).
    struct FaultyEngine {
        inner: MockEngine,
        panic_prefill_ids: HashSet<SeqId>,
        panic_decode_call: Option<usize>,
        decode_calls: usize,
    }

    impl FaultyEngine {
        fn new(panic_prefill_ids: &[SeqId], panic_decode_call: Option<usize>) -> Self {
            Self {
                inner: MockEngine::new(),
                panic_prefill_ids: panic_prefill_ids.iter().copied().collect(),
                panic_decode_call,
                decode_calls: 0,
            }
        }
    }

    impl ServingEngine for FaultyEngine {
        fn prefill(&mut self, id: SeqId, prompt: &[usize]) -> usize {
            assert!(
                !self.panic_prefill_ids.contains(&id),
                "injected fault: prefill panic for sequence {id}"
            );
            self.inner.prefill(id, prompt)
        }

        fn decode_batch(&mut self, slots: &[(SeqId, usize)]) -> Vec<usize> {
            let call = self.decode_calls;
            self.decode_calls += 1; // counts panicked calls too
            if self.panic_decode_call == Some(call) {
                panic!("injected fault: decode panic at call {call}");
            }
            self.inner.decode_batch(slots)
        }

        fn release(&mut self, id: SeqId) {
            self.inner.release(id);
        }
    }

    #[test]
    fn nan_arrival_or_deadline_is_rejected_not_panicking() {
        // Regression: a NaN arrival used to blow up the ingest sort via
        // `partial_cmp(...).expect("finite")`.
        let mut engine = MockEngine::new();
        let mut rt = ServingRuntime::new(SchedulerConfig::default(), 4096);
        let mut rs = reqs(2, 8, 4);
        rs[0].meta.arrival = f64::NAN;
        // `with_deadline` validates, so poke the field directly —
        // modelling a caller that bypasses the constructors.
        let mut bad_deadline = PromptRequest::new(Request::new(7, 8, 4, 0.0), (0..8).collect());
        bad_deadline.meta.deadline = Some(f64::NAN);
        rs.push(bad_deadline);
        let mut inf_arrival = PromptRequest::new(Request::new(8, 8, 4, 0.0), (0..8).collect());
        inf_arrival.meta.arrival = f64::INFINITY;
        rs.push(inf_arrival);
        // Zero lengths bypass `Request::new`'s asserts the same way; a
        // zero-output request must not reach prefill, which would count
        // a token for it.
        let mut no_output = PromptRequest::new(Request::new(9, 8, 4, 0.0), (0..8).collect());
        no_output.meta.output_len = 0;
        rs.push(no_output);
        let mut no_prompt = PromptRequest::new(Request::new(10, 8, 4, 0.0), (0..8).collect());
        no_prompt.meta.prompt_len = 0;
        no_prompt.prompt.clear();
        rs.push(no_prompt);
        let stats = rt.run(&mut engine, rs);
        assert_eq!(
            stats.rejected(),
            5,
            "NaN arrival, NaN deadline, inf arrival, zero output, empty prompt"
        );
        assert_eq!(stats.finished(), 1);
        assert_eq!(stats.generated_tokens, 4, "token ledger counts only id 1");
        assert_eq!(engine.prefills, 1, "malformed requests never prefill");
        for c in &stats.completions {
            assert!(c.latency().is_finite(), "NaN leaked into latency");
        }
        assert!(engine.live.is_empty());
        assert_eq!(rt.kv().free_pages(), rt.kv().total_pages());
    }

    #[test]
    fn prefill_panic_fails_only_that_request() {
        let mut engine = FaultyEngine::new(&[2], None);
        let mut rt = ServingRuntime::new(SchedulerConfig::default(), 4096);
        let stats = rt.run(&mut engine, reqs(5, 8, 4));
        assert_eq!(stats.failed(), 1);
        assert_eq!(stats.finished(), 4);
        let failed: Vec<u64> = stats
            .completions
            .iter()
            .filter(|c| c.status == CompletionStatus::Failed)
            .map(|c| c.id)
            .collect();
        assert_eq!(failed, [2]);
        assert!(engine.inner.live.is_empty(), "engine leaked sequences");
        assert_eq!(rt.kv().free_pages(), rt.kv().total_pages(), "pages leaked");
    }

    #[test]
    fn decode_panic_fails_batch_but_later_arrivals_still_serve() {
        // First wave of 3 dies on its first decode call; a later wave
        // must still be admitted and finish — the loop survives.
        let mut engine = FaultyEngine::new(&[], Some(0));
        let mut rt = ServingRuntime::new(SchedulerConfig::default(), 4096);
        let mut rs = reqs(3, 8, 4);
        for i in 0..3u64 {
            rs.push(PromptRequest::new(
                Request::new(100 + i, 8, 4, 1e9),
                (0..8).collect(),
            ));
        }
        let stats = rt.run(&mut engine, rs);
        assert_eq!(stats.failed(), 3, "whole first batch failed");
        assert_eq!(stats.finished(), 3, "second wave unaffected");
        for c in &stats.completions {
            if c.status == CompletionStatus::Failed {
                assert_eq!(c.generated, 1, "prefill token counted before the fault");
            }
        }
        assert!(engine.inner.live.is_empty(), "engine leaked sequences");
        assert_eq!(rt.kv().free_pages(), rt.kv().total_pages(), "pages leaked");
    }

    #[test]
    fn injected_kv_denial_fails_request_and_releases_everything() {
        use lq_chaos::{FaultInjector, FaultPlan};
        use std::sync::Arc;

        let inj = Arc::new(FaultInjector::new(FaultPlan::quiet().kv_denials_at(&[0])));
        let mut engine = MockEngine::new();
        let mut rt = ServingRuntime::builder()
            .kv_budget_tokens(4096)
            .fault_injector(Arc::clone(&inj))
            .build()
            .unwrap();
        let stats = rt.run(&mut engine, reqs(4, 8, 4));
        assert_eq!(stats.failed(), 1, "first admission denied");
        assert_eq!(stats.finished(), 3);
        assert_eq!(inj.stats().kv_denials, 1);
        assert!(engine.live.is_empty());
        assert_eq!(rt.kv().free_pages(), rt.kv().total_pages());
    }

    #[test]
    fn builder_validates_and_labels() {
        assert_eq!(
            ServingRuntime::builder().max_batch(0).build().err(),
            Some(ServingConfigError::Scheduler(
                SchedulerConfigError::ZeroMaxBatch
            ))
        );
        assert_eq!(
            ServingRuntime::builder().kv_budget_tokens(0).build().err(),
            Some(ServingConfigError::ZeroKvBudget)
        );
        // SloTiered validation flows through from the scheduler builder.
        assert_eq!(
            ServingRuntime::builder()
                .admission(crate::request::AdmissionPolicy::SloTiered {
                    low_share_pct: 30,
                    normal_share_pct: 70,
                })
                .build()
                .err(),
            Some(ServingConfigError::Scheduler(
                SchedulerConfigError::TieredNeedsBoundedQueue
            ))
        );
        let rt = ServingRuntime::builder()
            .max_batch(4)
            .page_tokens(8)
            .kv_budget_tokens(64)
            .replica(3)
            .build()
            .unwrap();
        assert_eq!(rt.replica(), Some(3));
        assert_eq!(rt.kv().total_pages(), 8);
        // Builder-made runtimes behave identically to `new`.
        let mut rt = rt;
        let mut engine = MockEngine::new();
        let stats = rt.run(&mut engine, reqs(2, 4, 2));
        assert_eq!(stats.finished(), 2);
    }

    /// A Low request sized to fill the whole KV budget is admitted
    /// first; a High request arriving just after must preempt it under
    /// `PriorityKv`: the victim's pages are released, it re-queues, and
    /// both eventually finish with a leak-free table.
    fn preemption_workload() -> Vec<PromptRequest> {
        vec![
            PromptRequest::new(
                Request::new(0, 8, 24, 0.0).with_priority(Priority::Low),
                (0..8).collect(),
            ),
            // Arrives after the Low prefill (any measured prefill takes
            // longer than 1e-12 s of virtual time).
            PromptRequest::new(
                Request::new(1, 8, 8, 1e-12).with_priority(Priority::High),
                (0..8).collect(),
            ),
        ]
    }

    #[test]
    fn priority_kv_preempts_low_for_high() {
        let cfg = SchedulerConfig::builder()
            .page_tokens(8)
            .preemption(crate::request::PreemptionPolicy::PriorityKv)
            .build()
            .unwrap();
        let mut engine = MockEngine::new();
        // 32-token budget: Low's 8+24 reservation takes every page.
        let mut rt = ServingRuntime::new(cfg, 32);
        let stats = rt.run(&mut engine, preemption_workload());
        assert!(stats.preemptions >= 1, "High must preempt Low");
        assert!(stats.preempted_tokens >= 1, "victim had produced tokens");
        assert_eq!(stats.finished(), 2, "victim re-queues and still finishes");
        // The ledger stays exact: every completion's tokens are counted
        // once, preempted work is excluded.
        let sum: u64 = stats.completions.iter().map(|c| c.generated).sum();
        assert_eq!(sum, stats.generated_tokens);
        assert_eq!(sum, 24 + 8);
        // High finished before Low (Low restarted from prefill).
        let pos = |id: u64| stats.completions.iter().position(|c| c.id == id).unwrap();
        assert!(pos(1) < pos(0), "preemptor finishes first");
        assert!(engine.live.is_empty(), "engine leaked sequences");
        assert_eq!(rt.kv().free_pages(), rt.kv().total_pages(), "KV leaked");
    }

    #[test]
    fn never_policy_blocks_instead_of_preempting() {
        let cfg = SchedulerConfig::builder().page_tokens(8).build().unwrap();
        let mut engine = MockEngine::new();
        let mut rt = ServingRuntime::new(cfg, 32);
        let stats = rt.run(&mut engine, preemption_workload());
        assert_eq!(stats.preemptions, 0, "Never must not preempt");
        assert_eq!(stats.preempted_tokens, 0);
        assert_eq!(stats.finished(), 2);
        // High waited for Low instead of evicting it.
        let pos = |id: u64| stats.completions.iter().position(|c| c.id == id).unwrap();
        assert!(pos(0) < pos(1), "Low finishes first under Never");
    }

    #[test]
    fn infeasible_preemption_does_not_thrash_victims() {
        // 5-page table. Running: high0 (2 pages) + low (2 pages), one
        // page free. high1 needs 4 pages; the only evictable victim is
        // low (high0 is not lower-priority), and 1 free + 2 reclaimed
        // = 3 < 4 — so evicting low buys nothing and must not happen.
        // high1 waits for natural drain instead.
        let cfg = SchedulerConfig::builder()
            .page_tokens(8)
            .preemption(crate::request::PreemptionPolicy::PriorityKv)
            .build()
            .unwrap();
        let mut engine = MockEngine::new();
        let mut rt = ServingRuntime::new(cfg, 40);
        let reqs = vec![
            PromptRequest::new(
                Request::new(0, 8, 8, 0.0).with_priority(Priority::Low),
                (0..8).collect(),
            ),
            PromptRequest::new(
                Request::new(1, 8, 8, 0.0).with_priority(Priority::High),
                (0..8).collect(),
            ),
            PromptRequest::new(
                Request::new(2, 8, 24, 1e-12).with_priority(Priority::High),
                (0..8).collect(),
            ),
        ];
        let stats = rt.run(&mut engine, reqs);
        assert_eq!(stats.preemptions, 0, "pointless eviction must not fire");
        assert_eq!(stats.finished(), 3, "high1 admits after natural drain");
        assert!(engine.live.is_empty());
        assert_eq!(rt.kv().free_pages(), rt.kv().total_pages());
    }

    #[test]
    fn prefill_token_budget_staggers_admission() {
        // Four 8-token prompts with an 8-token per-pass budget: each
        // admission pass prefills exactly one request, so the batch
        // never reaches the unconstrained peak of 4.
        let cfg = SchedulerConfig::builder()
            .max_prefill_tokens(8)
            .build()
            .unwrap();
        let mut engine = MockEngine::new();
        let mut rt = ServingRuntime::new(cfg, 4096);
        let stats = rt.run(&mut engine, reqs(4, 8, 2));
        assert_eq!(stats.finished(), 4);
        assert!(
            stats.peak_batch <= 2,
            "prefill budget must stagger admission (peak {})",
            stats.peak_batch
        );
        // Control: without the cap all four prefill in one pass.
        let mut engine = MockEngine::new();
        let mut rt = ServingRuntime::new(SchedulerConfig::default(), 4096);
        let stats = rt.run(&mut engine, reqs(4, 8, 2));
        assert_eq!(stats.peak_batch, 4);
    }

    #[test]
    fn tiered_admission_sheds_low_first() {
        let cfg = SchedulerConfig::builder()
            .max_queue(4)
            .admission(crate::request::AdmissionPolicy::SloTiered {
                low_share_pct: 25,
                normal_share_pct: 50,
            })
            .build()
            .unwrap();
        // Caps: Low 1, Normal 2, High 4. Ingest order (stable sort on
        // equal arrivals) is vector order.
        let mk = |id, p| {
            PromptRequest::new(
                Request::new(id, 4, 2, 0.0).with_priority(p),
                (0..4).collect(),
            )
        };
        let reqs = vec![
            mk(0, Priority::Low),    // occ 0 < 1: queued
            mk(1, Priority::Low),    // occ 1 >= 1: rejected
            mk(2, Priority::Normal), // occ 1 < 2: queued
            mk(3, Priority::Normal), // occ 2 >= 2: rejected
            mk(4, Priority::High),   // occ 2 < 4: queued
            mk(5, Priority::High),   // occ 3 < 4: queued
            mk(6, Priority::High),   // occ 4 >= 4: rejected
        ];
        let mut engine = MockEngine::new();
        let mut rt = ServingRuntime::new(cfg, 4096);
        let stats = rt.run(&mut engine, reqs);
        assert_eq!(stats.finished(), 4);
        assert_eq!(
            stats.tier_count(Priority::Low, CompletionStatus::Rejected),
            1
        );
        assert_eq!(
            stats.tier_count(Priority::Normal, CompletionStatus::Rejected),
            1
        );
        assert_eq!(
            stats.tier_count(Priority::High, CompletionStatus::Rejected),
            1
        );
        assert!(engine.live.is_empty());
    }

    #[test]
    fn halt_evacuates_running_and_queued_cleanly() {
        let mut engine = MockEngine::new();
        let mut rt = ServingRuntime::new(SchedulerConfig::default(), 4096);
        // 4 immediate requests plus one far-future arrival that the
        // halted replica never reaches.
        let mut rs = reqs(4, 8, 16);
        rs.push(PromptRequest::new(
            Request::new(99, 8, 16, 1e9),
            (0..8).collect(),
        ));
        let out = rt.run_with_halt(&mut engine, rs, &mut |steps| steps >= 2);
        assert!(out.halted);
        // Running batch (4) + future arrival all evacuate; nothing
        // completed and nothing was lost.
        assert_eq!(out.evacuated.len(), 5);
        assert_eq!(out.stats.completions.len(), 0);
        assert_eq!(out.stats.decode_steps, 2);
        // Discarded work is accounted, the ledger stays consistent.
        assert_eq!(out.stats.generated_tokens, 0);
        assert_eq!(out.stats.preempted_tokens, 4 * 3);
        assert!(engine.live.is_empty(), "evacuation must release engine KV");
        assert_eq!(rt.kv().free_pages(), rt.kv().total_pages(), "KV leaked");
        // The evacuated requests run to completion on a fresh runtime.
        let mut engine2 = MockEngine::new();
        let mut rt2 = ServingRuntime::new(SchedulerConfig::default(), 4096);
        let stats = rt2.run(&mut engine2, out.evacuated);
        assert_eq!(stats.finished(), 5);
    }

    #[test]
    fn never_true_halt_is_exactly_run() {
        let mut engine = MockEngine::new();
        let mut rt = ServingRuntime::new(SchedulerConfig::default(), 4096);
        let out = rt.run_with_halt(&mut engine, reqs(3, 8, 4), &mut |_| false);
        assert!(!out.halted);
        assert!(out.evacuated.is_empty());
        assert_eq!(out.stats.finished(), 3);
    }
}
