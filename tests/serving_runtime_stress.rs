//! Stress test for the executable serving runtime: a seeded random
//! workload of staggered arrivals, tight deadlines, and a bounded
//! queue, served by a real `TinyLlm` on a shared persistent pool.
//!
//! Invariants checked after the drain:
//! * every request completes exactly once, with a valid status split;
//! * no KV pages leak — the runtime's admission table AND every
//!   engine-layer paged store are back to fully free;
//! * finished requests produced exactly `output_len` tokens, timed-out
//!   ones strictly fewer, rejected ones none;
//! * the run is deterministic enough to re-check (same seed → same
//!   completion-status multiset on the virtual-clock-independent
//!   outcomes: rejections are decided by arrival order alone).

use liquidgemm::prelude::*;
use lq_rng::Rng;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Queue capacity used by every stress run (referenced by the
/// guaranteed-overflow tail burst below).
const MAX_QUEUE: usize = 10;

/// Seeded workload with all three exit paths *guaranteed*, independent
/// of how fast the host decodes:
/// * request 0 arrives first with `deadline = 0.0` — it is queued into
///   an empty system, admitted, and expires as soon as measured prefill
///   time advances the clock: a certain timeout;
/// * a random middle section (arrivals, lengths, loose deadlines);
/// * a tail burst of `MAX_QUEUE + 30` simultaneous arrivals — the
///   ingest pass queues at most `MAX_QUEUE` of them before any
///   admission can run, so at least 30 are certain rejections.
fn workload(rng: &mut Rng, spec: &ModelSpec, n: u64) -> Vec<PromptRequest> {
    let mut reqs = Vec::new();
    let prompt = |rng: &mut Rng, len: usize| -> Vec<usize> {
        (0..len)
            .map(|_| (rng.next_u64() as usize) % spec.vocab)
            .collect()
    };

    reqs.push(PromptRequest::new(
        Request::new(0, 6, 8, 0.0).with_deadline(0.0),
        prompt(rng, 6),
    ));

    let mut t = 0.001f64;
    for id in 1..n {
        t += rng.f64() * 0.004; // staggered arrivals, ~2 ms apart
        let prompt_len = 4 + (rng.next_u64() % 13) as usize;
        let output_len = 1 + (rng.next_u64() % 24) as usize;
        let mut meta = Request::new(id, prompt_len, output_len, t);
        if rng.next_u64().is_multiple_of(3) {
            meta = meta.with_deadline(rng.f64() * 0.05);
        }
        reqs.push(PromptRequest::new(meta, prompt(rng, prompt_len)));
    }

    let burst_at = t + 0.005;
    for i in 0..(MAX_QUEUE as u64 + 30) {
        let prompt_len = 4 + (rng.next_u64() % 9) as usize;
        reqs.push(PromptRequest::new(
            Request::new(n + i, prompt_len, 8, burst_at),
            prompt(rng, prompt_len),
        ));
    }
    reqs
}

#[test]
fn stress_no_kv_leaks_after_drain() {
    let spec = ModelSpec::tiny();
    let pool = Arc::new(LiquidGemm::builder().workers(2).build().unwrap());
    let mut model = TinyLlm::synthetic_with_engine(spec, 1024, KernelKind::ImFp, pool);
    let engine_free_start: Vec<usize> = model.kv.iter().map(|s| s.table.free_pages()).collect();

    let mut rng = Rng::new(0xC0FFEE);
    let requests = workload(&mut rng, &spec, 120);
    let n = requests.len();

    let cfg = SchedulerConfig::builder()
        .max_batch(6)
        .page_tokens(16)
        .max_queue(MAX_QUEUE)
        .build()
        .unwrap();
    let mut runtime = ServingRuntime::new(cfg, 1024);
    let stats = runtime.run(&mut model, requests);

    // Every request completes exactly once.
    assert_eq!(stats.completions.len(), n);
    let mut ids: Vec<u64> = stats.completions.iter().map(|c| c.id).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), n, "a request completed twice or not at all");
    assert_eq!(
        stats.finished() + stats.timed_out() + stats.rejected(),
        n,
        "statuses must partition the workload"
    );
    assert!(stats.finished() > 0, "nothing finished");

    // Token accounting per status.
    for c in &stats.completions {
        match c.status {
            CompletionStatus::Rejected => {
                assert_eq!(c.generated, 0);
                assert_eq!(c.latency(), 0.0);
            }
            CompletionStatus::TimedOut => {
                assert!(c.latency() >= 0.0);
            }
            CompletionStatus::Finished => {
                assert!(c.generated >= 1);
                assert!(c.latency() > 0.0);
                assert!(c.queue_delay() >= 0.0);
            }
            CompletionStatus::Failed => unreachable!("no faults injected"),
        }
    }
    let counted: u64 = stats.completions.iter().map(|c| c.generated).sum();
    assert_eq!(counted, stats.generated_tokens, "token ledger must balance");

    // No KV pages leaked: runtime admission table fully free ...
    assert_eq!(runtime.kv().free_pages(), runtime.kv().total_pages());
    assert!(runtime.kv().check_invariants());
    // ... and every engine layer's paged store back to its start state.
    for (layer, (store, &free0)) in model.kv.iter().zip(engine_free_start.iter()).enumerate() {
        assert_eq!(
            store.table.free_pages(),
            free0,
            "layer {layer} leaked KV pages"
        );
        assert!(store.table.check_invariants(), "layer {layer} invariants");
    }
}

#[test]
fn priority_preemption_fires_and_leaks_nothing() {
    // `lq_serving_preemptions_total` used to be a standing always-0
    // invariant; under `PreemptionPolicy::PriorityKv` it is a real
    // event count. Drive a guaranteed preemption against the real
    // engine with telemetry ON: a Low request sized to fill the whole
    // admission table is running when a High request arrives, so High
    // can only admit by evicting Low — then audit that the counter
    // moved and that eviction + re-queue released every KV page at
    // both the runtime and engine layers.
    liquidgemm::telemetry::enable();
    let spec = ModelSpec::tiny();
    let pool = Arc::new(LiquidGemm::builder().workers(2).build().unwrap());
    let mut model = TinyLlm::synthetic_with_engine(spec, 1024, KernelKind::ImFp, pool);
    let engine_free_start: Vec<usize> = model.kv.iter().map(|s| s.table.free_pages()).collect();
    let before = liquidgemm::telemetry::registry()
        .counter("lq_serving_preemptions_total")
        .get();

    let mut rng = Rng::new(0xBEEF);
    let prompt = |rng: &mut Rng, len: usize| -> Vec<usize> {
        (0..len)
            .map(|_| (rng.next_u64() as usize) % spec.vocab)
            .collect()
    };
    let requests = vec![
        // Fills the 32-token admission table (8 + 24 = 2 pages of 16).
        PromptRequest::new(
            Request::new(0, 8, 24, 0.0).with_priority(Priority::Low),
            prompt(&mut rng, 8),
        ),
        // Arrives mid-prefill of Low (any measured prefill outlasts
        // 1e-12 s of virtual time): must preempt to fit.
        PromptRequest::new(
            Request::new(1, 8, 8, 1e-12).with_priority(Priority::High),
            prompt(&mut rng, 8),
        ),
    ];
    let mut runtime = ServingRuntime::builder()
        .page_tokens(16)
        .kv_budget_tokens(32)
        .preemption(PreemptionPolicy::PriorityKv)
        .build()
        .unwrap();
    let stats = runtime.run(&mut model, requests);

    assert!(stats.preemptions >= 1, "High must preempt Low");
    assert!(stats.preempted_tokens >= 1, "victim had produced tokens");
    assert_eq!(stats.finished(), 2, "victim re-queues and still finishes");
    let counted: u64 = stats.completions.iter().map(|c| c.generated).sum();
    assert_eq!(counted, stats.generated_tokens, "token ledger must balance");
    let after = liquidgemm::telemetry::registry()
        .counter("lq_serving_preemptions_total")
        .get();
    assert!(
        after - before >= stats.preemptions,
        "preemption counter must move with RunStats"
    );

    // Zero-KV-leak audit across both allocation layers.
    assert_eq!(runtime.kv().free_pages(), runtime.kv().total_pages());
    assert!(runtime.kv().check_invariants());
    for (layer, (store, &free0)) in model.kv.iter().zip(engine_free_start.iter()).enumerate() {
        assert_eq!(
            store.table.free_pages(),
            free0,
            "layer {layer} leaked KV pages across preemption"
        );
        assert!(store.table.check_invariants(), "layer {layer} invariants");
    }
}

#[test]
fn stress_timeouts_and_rejections_actually_occur() {
    // The workload must genuinely exercise all three exit paths, or
    // the leak assertions above prove nothing about eviction/rejection.
    let spec = ModelSpec::tiny();
    let pool = Arc::new(LiquidGemm::builder().workers(2).build().unwrap());
    let mut model = TinyLlm::synthetic_with_engine(spec, 1024, KernelKind::ImFp, pool);
    let mut rng = Rng::new(0xC0FFEE);
    let requests = workload(&mut rng, &spec, 120);
    let cfg = SchedulerConfig::builder()
        .max_batch(6)
        .page_tokens(16)
        .max_queue(MAX_QUEUE)
        .build()
        .unwrap();
    let stats = ServingRuntime::new(cfg, 1024).run(&mut model, requests);
    assert!(stats.timed_out() > 0, "workload produced no timeouts");
    assert!(stats.rejected() > 0, "workload produced no rejections");
}

#[test]
fn simulation_and_runtime_share_one_request_api() {
    // One loop, two engines: the same deadline-free workload under the
    // same `SchedulerConfig` must finish the same requests with the
    // same token counts whether the clock is modelled (H800 cost model
    // behind `run_schedule`) or measured (`TinyLlm`).
    let mut rng = Rng::new(7);
    let spec = ModelSpec::tiny();
    let requests: Vec<PromptRequest> = workload(&mut rng, &spec, 60)
        .into_iter()
        .map(|mut p| {
            p.meta.deadline = None;
            p
        })
        .collect();
    let metas: Vec<Request> = requests.iter().map(|p| p.meta).collect();
    let n = metas.len();
    let cfg = SchedulerConfig::builder()
        .max_batch(6)
        .page_tokens(16)
        .build()
        .unwrap();

    let modelled = run_schedule(
        &ServingSystem::of(SystemId::LiquidServe),
        &liquidgemm::sim::specs::H800,
        &liquidgemm::models::configs::LLAMA2_7B,
        cfg,
        &metas,
    );
    let pool = Arc::new(LiquidGemm::builder().workers(2).build().unwrap());
    let mut model = TinyLlm::synthetic_with_engine(spec, 1024, KernelKind::ImFp, pool);
    let measured = ServingRuntime::new(cfg, 1024).run(&mut model, requests);

    let generated = |stats: &RunStats| -> BTreeMap<u64, u64> {
        stats
            .completions
            .iter()
            .filter(|c| c.status == CompletionStatus::Finished)
            .map(|c| (c.id, c.generated))
            .collect()
    };
    assert_eq!(modelled.finished(), n, "nothing to shed without deadlines");
    assert_eq!(generated(&modelled), generated(&measured));
    assert_eq!(modelled.generated_tokens, measured.generated_tokens);
}
