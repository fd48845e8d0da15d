//! The simulated serving run: the serving loop of
//! [`crate::runtime::ServingRuntime`] driven by a [`ModelledEngine`]
//! that prices each call with the H800 cost model instead of executing
//! it.
//!
//! The closed-form search in [`crate::throughput`] answers "what is the
//! best steady-state batch"; [`run_schedule`] *runs* the loop — a
//! request queue with arrival times, admission against the paged
//! allocator, batched prefill, per-iteration decode, deadline eviction,
//! priority tiers and preemption — and so produces request latencies
//! and sustained throughput for any arrival pattern, not just the
//! saturated regime of Table 1. It is the same loop the live benches
//! run over `lq_engine::TinyLlm`; the only difference is the engine,
//! and with it whether the clock advances by modelled or measured time
//! ([`ServingEngine::clock_advance`]).

use crate::decode::{decode_step, prefill_time};
use crate::kvcache::SeqId;
use crate::runtime::{PromptRequest, ServingEngine, ServingRuntime};
use crate::system::ServingSystem;
use crate::throughput::RESERVE_BYTES;
use lq_models::ModelConfig;
use lq_sim::specs::GpuSpec;
use std::collections::HashMap;
use std::time::Instant;

pub use crate::request::{
    Completion, CompletionStatus, Request, RunStats, SchedulerConfig, SchedulerConfigBuilder,
    SchedulerConfigError,
};

/// A [`ServingEngine`] that computes nothing: it tracks each sequence's
/// context length and charges the serving clock the modelled cost of
/// every call ([`crate::decode`]) — a prefill cohort of `n` prompts as
/// `prefill_time(n, longest prompt)`, a decode step as
/// `decode_step(batch, mean context)`. Every token it returns is 0.
pub struct ModelledEngine<'a> {
    sys: &'a ServingSystem,
    spec: &'a GpuSpec,
    cfg: &'a ModelConfig,
    /// Context length of every live sequence.
    ctx: HashMap<SeqId, usize>,
    /// Prompts prefilled since the last clock read: count and longest.
    cohort: (usize, usize),
    /// Modelled decode seconds since the last clock read.
    decode_s: f64,
}

impl<'a> ModelledEngine<'a> {
    /// An engine with no live sequences that models `cfg` served by
    /// `sys` on `spec`.
    #[must_use]
    pub fn new(sys: &'a ServingSystem, spec: &'a GpuSpec, cfg: &'a ModelConfig) -> Self {
        Self {
            sys,
            spec,
            cfg,
            ctx: HashMap::new(),
            cohort: (0, 0),
            decode_s: 0.0,
        }
    }
}

impl ServingEngine for ModelledEngine<'_> {
    fn prefill(&mut self, id: SeqId, prompt: &[usize]) -> usize {
        let fresh = self.ctx.insert(id, prompt.len()).is_none();
        assert!(fresh, "sequence {id} already live");
        self.cohort = (self.cohort.0 + 1, self.cohort.1.max(prompt.len()));
        0
    }

    fn decode_batch(&mut self, slots: &[(SeqId, usize)]) -> Vec<usize> {
        let mut total_ctx = 0;
        for (id, _) in slots {
            let ctx = self.ctx.get_mut(id).expect("decode of a live sequence");
            total_ctx += *ctx;
            *ctx += 1;
        }
        let mean_ctx = (total_ctx / slots.len()).max(1);
        self.decode_s += decode_step(self.sys, self.spec, self.cfg, slots.len(), mean_ctx).total();
        vec![0; slots.len()]
    }

    fn release(&mut self, id: SeqId) {
        let live = self.ctx.remove(&id).is_some();
        assert!(live, "release of unknown sequence {id}");
    }

    fn clock_advance(&mut self, _started: Instant) -> f64 {
        let (n, longest) = std::mem::take(&mut self.cohort);
        let prefill_s = if n == 0 {
            0.0
        } else {
            prefill_time(self.sys, self.spec, self.cfg, n, longest)
        };
        prefill_s + std::mem::take(&mut self.decode_s)
    }
}

/// Run the serving loop to completion over `requests` (any arrival
/// order) in modelled time: [`ServingRuntime::run`] over a
/// [`ModelledEngine`], with the admission table sized to the KV budget
/// `spec`'s memory leaves after `sys`'s weights and the runtime
/// reserve. Every policy in `sched` and every completion status
/// therefore means exactly what it means on the live path.
#[must_use]
pub fn run_schedule(
    sys: &ServingSystem,
    spec: &GpuSpec,
    cfg: &ModelConfig,
    sched: SchedulerConfig,
    requests: &[Request],
) -> RunStats {
    let kv_budget = (spec.mem_capacity as f64 - sys.weight_bytes(cfg) - RESERVE_BYTES).max(0.0);
    let bytes_per_token = cfg.kv_bytes_per_token(sys.attention.kv.bytes()).max(1.0) as usize;
    let pages = kv_budget as usize / (sched.page_tokens * bytes_per_token);
    let prompts = requests
        .iter()
        .map(|r| PromptRequest::new(*r, vec![0; r.prompt_len]))
        .collect();
    ServingRuntime::new(sched, pages * sched.page_tokens)
        .run(&mut ModelledEngine::new(sys, spec, cfg), prompts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{PreemptionPolicy, Priority};
    use crate::system::{ServingSystem, SystemId};
    use crate::throughput::{peak_throughput, INPUT_LEN, OUTPUT_LEN};
    use lq_models::configs::LLAMA2_7B;
    use lq_sim::specs::H800;

    fn sys() -> ServingSystem {
        ServingSystem::of(SystemId::LiquidServe)
    }

    fn batch_arrivals(n: usize) -> Vec<Request> {
        (0..n as u64)
            .map(|id| Request::new(id, INPUT_LEN, OUTPUT_LEN, 0.0))
            .collect()
    }

    #[test]
    fn all_requests_complete_exactly_once() {
        let reqs = batch_arrivals(40);
        let stats = run_schedule(&sys(), &H800, &LLAMA2_7B, SchedulerConfig::default(), &reqs);
        assert_eq!(stats.completions.len(), 40);
        assert_eq!(stats.finished(), 40);
        let mut ids: Vec<u64> = stats.completions.iter().map(|c| c.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..40).collect::<Vec<_>>());
        assert_eq!(stats.generated_tokens, 40 * OUTPUT_LEN as u64);
    }

    #[test]
    fn saturated_run_approaches_closed_form_peak() {
        // Enough simultaneous requests to keep the device at its best
        // batch: sustained throughput should be within ~35% of the
        // closed-form peak (the loop pays prefill serialisation and
        // end-of-run drain the closed form ignores).
        let peak = peak_throughput(&sys(), &H800, &LLAMA2_7B).expect("fits");
        let reqs = batch_arrivals(3 * peak.batch);
        let stats = run_schedule(&sys(), &H800, &LLAMA2_7B, SchedulerConfig::default(), &reqs);
        let ratio = stats.throughput() / peak.tokens_per_s;
        assert!((0.6..=1.25).contains(&ratio), "ratio {ratio}");
        assert!(stats.peak_batch >= peak.batch / 2);
    }

    #[test]
    fn light_load_has_low_queueing() {
        // Widely spaced arrivals: requests should never queue.
        let reqs: Vec<Request> = (0..5u64)
            .map(|id| Request::new(id, 128, 64, id as f64 * 100.0))
            .collect();
        let stats = run_schedule(&sys(), &H800, &LLAMA2_7B, SchedulerConfig::default(), &reqs);
        assert_eq!(stats.finished(), 5);
        for c in &stats.completions {
            assert!(c.queue_delay() < 1e-6, "queue delay {}", c.queue_delay());
        }
        assert_eq!(stats.peak_batch, 1);
    }

    #[test]
    fn overload_queues_but_conserves() {
        // More simultaneous work than KV capacity: requests must wait,
        // none may be lost.
        let reqs = batch_arrivals(500);
        let stats = run_schedule(&sys(), &H800, &LLAMA2_7B, SchedulerConfig::default(), &reqs);
        assert_eq!(stats.finished(), 500);
        // Later completions must show real queueing.
        let max_delay = stats
            .completions
            .iter()
            .map(Completion::queue_delay)
            .fold(0.0f64, f64::max);
        assert!(max_delay > 1.0, "max queue delay {max_delay}");
    }

    #[test]
    fn tighter_batch_cap_reduces_peak_batch() {
        let reqs = batch_arrivals(100);
        let cfg = SchedulerConfig::builder()
            .max_batch(8)
            .page_tokens(16)
            .build()
            .unwrap();
        let stats = run_schedule(&sys(), &H800, &LLAMA2_7B, cfg, &reqs);
        assert!(stats.peak_batch <= 8);
        assert_eq!(stats.finished(), 100);
    }

    #[test]
    fn higher_load_increases_tail_latency() {
        let light = run_schedule(
            &sys(),
            &H800,
            &LLAMA2_7B,
            SchedulerConfig::default(),
            &batch_arrivals(8),
        );
        let heavy = run_schedule(
            &sys(),
            &H800,
            &LLAMA2_7B,
            SchedulerConfig::default(),
            &batch_arrivals(400),
        );
        assert!(heavy.latency_percentile(95.0) > light.latency_percentile(95.0));
        assert!(heavy.mean_latency() > light.mean_latency());
    }

    #[test]
    fn finish_times_are_monotone_nondecreasing() {
        let reqs = batch_arrivals(60);
        let stats = run_schedule(&sys(), &H800, &LLAMA2_7B, SchedulerConfig::default(), &reqs);
        for w in stats.completions.windows(2) {
            assert!(w[1].finished_at >= w[0].finished_at);
        }
    }

    #[test]
    fn liquidserve_sustains_more_than_qserve() {
        // System-level: the scheduler run reproduces the Table-1
        // ordering, not just the closed form.
        let reqs = batch_arrivals(300);
        let l = run_schedule(&sys(), &H800, &LLAMA2_7B, SchedulerConfig::default(), &reqs);
        let q = run_schedule(
            &ServingSystem::of(SystemId::QServe),
            &H800,
            &LLAMA2_7B,
            SchedulerConfig::default(),
            &reqs,
        );
        assert!(
            l.throughput() > q.throughput(),
            "liquid {} vs qserve {}",
            l.throughput(),
            q.throughput()
        );
    }

    #[test]
    fn bounded_queue_rejects_overflow_and_conserves() {
        // 300 simultaneous arrivals into a queue of 16: whatever cannot
        // be admitted immediately or queued is rejected, everything else
        // runs to completion, and the totals reconcile.
        let reqs = batch_arrivals(300);
        let cfg = SchedulerConfig::builder().max_queue(16).build().unwrap();
        let stats = run_schedule(&sys(), &H800, &LLAMA2_7B, cfg, &reqs);
        assert_eq!(stats.completions.len(), 300);
        assert!(stats.rejected() > 0, "expected rejections");
        assert_eq!(stats.finished() + stats.rejected(), 300);
        for c in &stats.completions {
            if c.status == CompletionStatus::Rejected {
                assert_eq!(c.generated, 0);
                assert_eq!(c.latency(), 0.0);
            }
        }
    }

    #[test]
    fn deadlines_evict_and_release_pages() {
        // Saturate the device, then give late arrivals a deadline much
        // shorter than the queueing delay they will see: they must time
        // out, and the early no-deadline cohort must still finish.
        let mut reqs = batch_arrivals(200);
        for r in reqs.iter_mut().skip(100) {
            *r = Request::new(r.id, INPUT_LEN, OUTPUT_LEN, 0.0).with_deadline(1.0);
        }
        let stats = run_schedule(&sys(), &H800, &LLAMA2_7B, SchedulerConfig::default(), &reqs);
        assert_eq!(stats.completions.len(), 200);
        assert!(stats.timed_out() > 0, "expected timeouts");
        assert_eq!(stats.finished() + stats.timed_out(), 200);
        // Page conservation is asserted inside the runtime; here check
        // timed-out requests produced at most partial output.
        for c in &stats.completions {
            if c.status == CompletionStatus::TimedOut {
                assert!(c.generated < OUTPUT_LEN as u64);
            }
        }
    }

    #[test]
    fn nan_arrival_or_deadline_is_rejected_not_panicking() {
        // Regression: a NaN arrival used to blow up the ingest sort via
        // `partial_cmp(...).expect("finite")`.
        let mut reqs = batch_arrivals(5);
        reqs[0].arrival = f64::NAN;
        reqs[1].deadline = Some(f64::NAN);
        // Zero lengths bypass `Request::new` through the public fields
        // the same way.
        reqs[2].output_len = 0;
        reqs[3].prompt_len = 0;
        let stats = run_schedule(&sys(), &H800, &LLAMA2_7B, SchedulerConfig::default(), &reqs);
        assert_eq!(stats.rejected(), 4);
        assert_eq!(stats.finished(), 1);
        assert_eq!(stats.generated_tokens, OUTPUT_LEN as u64);
        for c in &stats.completions {
            assert!(c.latency().is_finite(), "NaN leaked into latency");
        }
    }

    #[test]
    fn priority_kv_preempts_in_modelled_time() {
        // A Low cohort big enough to fill the H800's KV budget at t=0,
        // then High arrivals while it decodes. The modelled run goes
        // through the same loop as the live one, so `PriorityKv` must
        // evict Low sequences for them and High must see the shorter
        // tail.
        let peak = peak_throughput(&sys(), &H800, &LLAMA2_7B).expect("fits");
        let mut reqs: Vec<Request> = batch_arrivals(2 * peak.batch)
            .into_iter()
            .map(|r| r.with_priority(Priority::Low))
            .collect();
        for i in 0..16u64 {
            let late = Request::new(10_000 + i, INPUT_LEN, OUTPUT_LEN, 5.0 + i as f64);
            reqs.push(late.with_priority(Priority::High));
        }
        let cfg = SchedulerConfig::builder()
            .preemption(PreemptionPolicy::PriorityKv)
            .build()
            .unwrap();
        let stats = run_schedule(&sys(), &H800, &LLAMA2_7B, cfg, &reqs);
        assert_eq!(stats.finished(), reqs.len(), "victims re-queue and finish");
        assert!(stats.preemptions > 0, "High must preempt the Low cohort");
        let (high, low) = (
            stats.tier_latency_percentile(Priority::High, 99.0),
            stats.tier_latency_percentile(Priority::Low, 99.0),
        );
        assert!(high < low, "High p99 {high} vs Low p99 {low}");
        let sum: u64 = stats.completions.iter().map(|c| c.generated).sum();
        assert_eq!(
            sum, stats.generated_tokens,
            "preempted work leaves the ledger"
        );
    }

    #[test]
    fn impossible_reservation_is_rejected_not_wedged() {
        // A request larger than the whole KV budget can never be
        // admitted; it must come back Rejected instead of blocking the
        // queue forever.
        let reqs = vec![
            Request::new(0, 4_000_000, 1_000_000, 0.0),
            Request::new(1, INPUT_LEN, OUTPUT_LEN, 0.0),
        ];
        let stats = run_schedule(&sys(), &H800, &LLAMA2_7B, SchedulerConfig::default(), &reqs);
        assert_eq!(stats.rejected(), 1);
        assert_eq!(stats.finished(), 1);
    }
}
