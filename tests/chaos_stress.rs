//! Chaos stress suite: seeded random [`FaultPlan`]s against the
//! serving runtime and the persistent GEMM pool.
//!
//! Every sub-test derives its whole fault schedule from one seed and
//! prints that seed on failure, so any red run replays exactly with
//! `FaultPlan::from_seed(seed)`.
//!
//! Invariants:
//! * 100+ random schedules: every request completes exactly once with
//!   a valid status split, and zero KV pages leak after the drain;
//! * differential: completions that *succeed* under faults are
//!   bit-exact with the fault-free baseline (identical token chains);
//! * pool differential: a GEMM surviving injected worker panics is
//!   bit-exact (`max_abs_diff == 0.0`) with the serial kernel, and the
//!   pool's restart/retry ledger matches the faults actually fired;
//! * full stack: a real `TinyLlm` on a fault-injected pool drains a
//!   mixed workload without leaking engine-layer KV pages.

use liquidgemm::core::reference::max_abs_diff;
use liquidgemm::core::ParallelConfig;
use liquidgemm::prelude::*;
use liquidgemm::quant::act::QuantizedActivations;
use liquidgemm::quant::mat::Mat;
use lq_rng::Rng;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Deterministic, compute-free serving engine for chaos sweeps.
///
/// Token emission is a pure function of `(sequence id, previous
/// token)`, so a sequence's token chain never depends on batch
/// composition, scheduling order, or which other sequences failed —
/// the property the differential test leans on. Each prefill/decode
/// entry consults the injector's engine-call site and panics when
/// scheduled; `release` is tolerant because the runtime's failure path
/// may release a sequence the engine never fully registered.
struct ChaosEngine {
    inj: Option<Arc<FaultInjector>>,
    vocab: usize,
    live: HashMap<SeqId, ()>,
    /// Every token emitted per sequence, kept across the whole run
    /// (survives release) for post-hoc differential comparison.
    history: HashMap<SeqId, Vec<usize>>,
}

impl ChaosEngine {
    fn new(inj: Option<Arc<FaultInjector>>) -> Self {
        Self {
            inj,
            vocab: 97,
            live: HashMap::new(),
            history: HashMap::new(),
        }
    }

    fn maybe_panic(&self, site: &str) {
        if self.inj.as_ref().is_some_and(|i| i.on_engine_call()) {
            panic!("injected fault: engine panic at {site}");
        }
    }

    fn chain(&self, id: SeqId, prev: usize) -> usize {
        (id as usize * 131 + prev * 31 + 7) % self.vocab
    }
}

impl ServingEngine for ChaosEngine {
    fn prefill(&mut self, id: SeqId, prompt: &[usize]) -> usize {
        self.maybe_panic("prefill");
        self.live.insert(id, ());
        let tok = self.chain(id, prompt.iter().sum::<usize>() % self.vocab);
        self.history.entry(id).or_default().push(tok);
        tok
    }

    fn decode_batch(&mut self, slots: &[(SeqId, usize)]) -> Vec<usize> {
        self.maybe_panic("decode");
        slots
            .iter()
            .map(|&(id, last)| {
                assert!(self.live.contains_key(&id), "decode of dead sequence {id}");
                let tok = self.chain(id, last);
                self.history.entry(id).or_default().push(tok);
                tok
            })
            .collect()
    }

    fn release(&mut self, id: SeqId) {
        self.live.remove(&id);
    }
}

const MAX_QUEUE: usize = 8;

/// The suite's runtime: 1024 KV tokens, batch 4, `inj` wired into the
/// admission page table.
fn chaos_runtime(max_queue: usize, inj: &Arc<FaultInjector>) -> ServingRuntime {
    ServingRuntime::builder()
        .max_batch(4)
        .page_tokens(16)
        .max_queue(max_queue)
        .kv_budget_tokens(1024)
        .fault_injector(Arc::clone(inj))
        .build()
        .unwrap()
}

/// Seeded workload: staggered arrivals, mixed lengths, optional
/// deadlines, and (with `burst`) a simultaneous tail that guarantees
/// queue-full rejections.
fn workload(seed: u64, n: u64, vocab: usize, deadlines: bool, burst: bool) -> Vec<PromptRequest> {
    let mut rng = Rng::new(seed.wrapping_mul(0x9E37_79B9).wrapping_add(1));
    let mut reqs = Vec::new();
    let prompt = |rng: &mut Rng, len: usize| -> Vec<usize> {
        (0..len)
            .map(|_| (rng.next_u64() as usize) % vocab)
            .collect()
    };
    let mut t = 0.0f64;
    for id in 0..n {
        t += rng.f64() * 0.002;
        let prompt_len = 3 + (rng.next_u64() % 10) as usize;
        let output_len = 1 + (rng.next_u64() % 12) as usize;
        let mut meta = Request::new(id, prompt_len, output_len, t);
        if deadlines && rng.next_u64().is_multiple_of(4) {
            meta = meta.with_deadline(rng.f64() * 0.02);
        }
        reqs.push(PromptRequest::new(meta, prompt(&mut rng, prompt_len)));
    }
    if burst {
        let burst_at = t + 0.003;
        for i in 0..(MAX_QUEUE as u64 + 12) {
            let prompt_len = 3 + (rng.next_u64() % 6) as usize;
            reqs.push(PromptRequest::new(
                Request::new(n + i, prompt_len, 6, burst_at),
                prompt(&mut rng, prompt_len),
            ));
        }
    }
    reqs
}

/// One seeded chaos run against the serving runtime; panics (with
/// context) on any invariant violation. Returns the engine (token
/// histories) and the run stats for differential checks.
fn chaos_run(seed: u64, plan: FaultPlan) -> (ChaosEngine, RunStats) {
    let inj = Arc::new(FaultInjector::new(plan));
    let mut rt = chaos_runtime(MAX_QUEUE, &inj);
    let mut engine = ChaosEngine::new(Some(Arc::clone(&inj)));
    let requests = workload(seed, 24, 97, true, true);
    let n = requests.len();

    let stats = rt.run(&mut engine, requests);

    assert_eq!(stats.completions.len(), n, "requests lost or duplicated");
    let mut ids: Vec<u64> = stats.completions.iter().map(|c| c.id).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), n, "a request completed twice");
    assert_eq!(
        stats.finished() + stats.timed_out() + stats.rejected() + stats.failed(),
        n,
        "statuses must partition the workload"
    );
    for c in &stats.completions {
        assert!(
            c.latency().is_finite(),
            "non-finite latency for id {}",
            c.id
        );
    }

    // Zero leaked KV pages, faults or not.
    assert_eq!(
        rt.kv().free_pages(),
        rt.kv().total_pages(),
        "KV pages leaked"
    );
    assert!(rt.kv().check_invariants(), "page conservation violated");
    (engine, stats)
}

#[test]
fn hundred_seeded_schedules_drain_without_leaks() {
    let mut fired_any = 0u64;
    for seed in 0..100u64 {
        let plan = FaultPlan::from_seed(seed);
        let inj_probe = FaultInjector::new(plan.clone());
        let result = catch_unwind(AssertUnwindSafe(|| chaos_run(seed, plan)));
        match result {
            Ok((_, stats)) => {
                assert!(
                    stats.finished() > 0,
                    "seed {seed}: chaos run finished nothing"
                );
            }
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
                    .unwrap_or_else(|| "non-string panic".to_string());
                panic!(
                    "chaos seed {seed} failed (replay with FaultPlan::from_seed({seed})): {msg}"
                );
            }
        }
        drop(inj_probe);
        fired_any += u64::from(!FaultPlan::from_seed(seed).is_empty());
    }
    // The sweep must actually inject faults, or it proves nothing.
    assert!(
        fired_any > 50,
        "only {fired_any}/100 seeds scheduled any fault"
    );
}

#[test]
fn survivors_are_bit_exact_with_fault_free_baseline() {
    // No deadlines, no burst, and a queue that holds the whole workload:
    // the only statuses are Finished and Failed, so every id Finished
    // under chaos also finishes in the quiet baseline and their token
    // chains must match exactly. (The runtime's virtual clock advances
    // by measured step durations, so with a queue shorter than the
    // workload a descheduled step — or a panic backtrace being printed —
    // lets the ≤2 ms-spaced arrivals pile up and come back Rejected.)
    const N: usize = 20;
    for seed in 0..40u64 {
        let run = |plan: FaultPlan| -> (ChaosEngine, RunStats) {
            let inj = Arc::new(FaultInjector::new(plan));
            let mut rt = chaos_runtime(N, &inj);
            let mut engine = ChaosEngine::new(Some(inj));
            let stats = rt.run(&mut engine, workload(seed, N as u64, 97, false, false));
            assert_eq!(
                rt.kv().free_pages(),
                rt.kv().total_pages(),
                "seed {seed}: KV pages leaked"
            );
            (engine, stats)
        };
        let (base_engine, base_stats) = run(FaultPlan::quiet());
        assert_eq!(
            base_stats.finished(),
            N,
            "seed {seed}: quiet run lost work (failed {}, rejected {}, timed out {})",
            base_stats.failed(),
            base_stats.rejected(),
            base_stats.timed_out()
        );

        let (chaos_engine, chaos_stats) = run(FaultPlan::from_seed(seed));
        assert_eq!(
            chaos_stats.finished() + chaos_stats.failed(),
            N,
            "seed {seed}: unexpected status in deadline-free run (rejected {}, timed out {})",
            chaos_stats.rejected(),
            chaos_stats.timed_out()
        );
        for c in &chaos_stats.completions {
            if c.status != CompletionStatus::Finished {
                continue;
            }
            let chaos_tokens = &chaos_engine.history[&c.id];
            let base_tokens = &base_engine.history[&c.id];
            assert_eq!(
                chaos_tokens, base_tokens,
                "seed {seed}: surviving id {} diverged from baseline",
                c.id
            );
            assert_eq!(
                c.generated,
                base_tokens.len() as u64,
                "seed {seed}: id {} token count diverged",
                c.id
            );
        }
    }
}

#[test]
fn pool_gemm_under_injected_panics_is_bit_exact_with_serial() {
    let x = Mat::from_fn(24, 384, |r, c| ((r * 384 + c) as f32 * 0.011).sin());
    let w = Mat::from_fn(96, 384, |r, c| ((r * 384 + c) as f32 * 0.007).cos() * 0.5);
    let weights = W4A8Weights::quantize(&w, 64, BackendId::Lqq);
    let qa = QuantizedActivations::quantize(&x, None);
    let cfg = ParallelConfig::builder().task_rows(4).build().unwrap();

    for seed in 0..12u64 {
        let inj = Arc::new(FaultInjector::new(FaultPlan::from_seed(seed)));
        let lg = LiquidGemm::builder()
            .workers(3)
            .fault_injector(Arc::clone(&inj))
            .build()
            .unwrap();
        let serial = lg
            .gemm_with(&qa.q, &qa.scales, &weights, KernelKind::Serial, cfg)
            .y;
        for kind in [KernelKind::FlatParallel, KernelKind::ExCp, KernelKind::ImFp] {
            let y = lg.gemm_with(&qa.q, &qa.scales, &weights, kind, cfg).y;
            assert_eq!(
                max_abs_diff(&y, &serial),
                0.0,
                "seed {seed}: {kind:?} diverged under faults"
            );
        }
        // The healing ledger reconciles with what actually fired: each
        // injected panic produced exactly one restart and one retry.
        let fired = inj.stats().worker_panics;
        let stats = lg.pool().worker_stats();
        let restarts: u64 = stats.iter().map(|s| s.restarts).sum();
        let retries: u64 = stats.iter().map(|s| s.retries).sum();
        assert_eq!(restarts, fired, "seed {seed}: restart ledger mismatch");
        assert_eq!(retries, fired, "seed {seed}: retry ledger mismatch");
    }
}

#[test]
fn full_stack_tinyllm_on_faulted_pool_drains_clean() {
    // Real model, real GEMMs: worker panics inside the shared pool must
    // stay invisible to the serving layer (healed + retried), and the
    // run must drain with no engine-layer KV leaks.
    for seed in [3u64, 17] {
        let inj = Arc::new(FaultInjector::new(FaultPlan::from_seed(seed)));
        let spec = ModelSpec::tiny();
        let pool = Arc::new(
            LiquidGemm::builder()
                .workers(2)
                .fault_injector(Arc::clone(&inj))
                .build()
                .unwrap(),
        );
        let mut model = TinyLlm::synthetic_with_engine(spec, 1024, KernelKind::ImFp, pool);
        let free0: Vec<usize> = model.kv.iter().map(|s| s.table.free_pages()).collect();

        let mut rt = chaos_runtime(MAX_QUEUE, &inj);
        let requests = workload(seed, 16, spec.vocab, false, false);
        let n = requests.len();
        let stats = rt.run(&mut model, requests);

        assert_eq!(stats.completions.len(), n, "seed {seed}");
        // Real measured compute: arrivals can outpace the bounded
        // queue, so Rejected joins the split (never TimedOut — the
        // workload sets no deadlines).
        assert_eq!(
            stats.finished() + stats.failed() + stats.rejected(),
            n,
            "seed {seed}: unexpected status split"
        );
        assert!(stats.finished() > 0, "seed {seed}: nothing finished");
        assert_eq!(
            rt.kv().free_pages(),
            rt.kv().total_pages(),
            "seed {seed}: admission table leaked"
        );
        for (layer, (store, &f0)) in model.kv.iter().zip(free0.iter()).enumerate() {
            assert_eq!(
                store.table.free_pages(),
                f0,
                "seed {seed}: layer {layer} leaked KV pages"
            );
        }
        // Worker panics that fired were healed, not surfaced: TinyLlm
        // never consults the engine site, so any Failed completions
        // here could only come from KV denials.
        let failed = stats.failed() as u64;
        assert!(
            failed <= inj.stats().kv_denials,
            "seed {seed}: more failures ({failed}) than injected denials"
        );
    }
}
