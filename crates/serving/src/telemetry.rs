//! Serving-loop telemetry: the metric families recorded by the
//! serving loop ([`crate::runtime::ServingRuntime`], whichever engine
//! drives it) and the paged KV allocator.
//!
//! Handles resolve from the global [`lq_telemetry`] registry only when
//! recording is enabled; disabled, every instrumentation site is a
//! relaxed load (serving loop) or a `None` branch (allocator). Times
//! are serving-clock seconds — measured under a real engine, modelled
//! under [`crate::scheduler::ModelledEngine`].
//!
//! Exported families:
//!
//! | metric | kind | meaning |
//! |--------|------|---------|
//! | `lq_serving_batch_size` | histogram | running batch at each decode iteration |
//! | `lq_serving_decode_step_ns` | histogram | decode-iteration latency |
//! | `lq_serving_prefill_ns` | histogram | prefill-cohort latency |
//! | `lq_serving_admitted_total` | counter | requests admitted |
//! | `lq_serving_admission_blocked_total` | counter | admission attempts rejected (KV reservation did not fit) |
//! | `lq_serving_preemptions_total` | counter | running sequences preempted under [`crate::PreemptionPolicy::PriorityKv`] (KV fully released, victim re-queued); stays 0 under `Never` — conservative admission reserves prompt+output up front |
//! | `lq_serving_completed_total` | counter | requests finished normally |
//! | `lq_serving_timed_out_total` | counter | requests evicted past their deadline (pages released) |
//! | `lq_serving_rejected_total` | counter | requests rejected at arrival (queue full, reservation can never fit, or malformed: non-finite timing, empty prompt, zero output) |
//! | `lq_serving_failed_total` | counter | requests killed by an unrecoverable engine/allocation error (KV pages fully released) |
//! | `lq_serving_request_latency_ns` | histogram | per-request arrival→finish latency (finished requests) |
//! | `lq_serving_queue_delay_ns` | histogram | per-request arrival→admission delay (finished requests) |
//! | `lq_serving_tokens_per_s` | gauge | sustained throughput of the last run |
//! | `lq_serving_queue_len` | gauge | waiting requests after each admission pass |
//! | `lq_kv_page_alloc_total` | counter | KV pages allocated |
//! | `lq_kv_page_free_total` | counter | KV pages returned |
//! | `lq_kv_oom_total` | counter | allocation attempts failed on OOM |
//! | `lq_kv_used_pages` | gauge | pages currently pinned |
//! | `lq_kv_live_sequences` | gauge | sequences currently registered |
//!
//! Under the router (`lq-router`), each replica's runtime resolves the
//! `lq_serving_*` families with a `{replica="<n>"}` label instead of
//! the unlabelled process-wide series, so per-shard dashboards come for
//! free from the same family names.

use std::sync::{Arc, OnceLock};

use lq_telemetry::{registry, Counter, Gauge, Histogram};

/// Handles for one serving run (resolved at `run_with_halt` entry).
pub(crate) struct SchedMetrics {
    pub batch_size: Arc<Histogram>,
    pub decode_step_ns: Arc<Histogram>,
    pub prefill_ns: Arc<Histogram>,
    pub admitted: Arc<Counter>,
    pub blocked: Arc<Counter>,
    /// Running sequences preempted for a higher-priority reservation
    /// ([`crate::PreemptionPolicy::PriorityKv`]): the victim's KV pages
    /// are fully released and it re-queues to restart from prefill.
    /// Under [`crate::PreemptionPolicy::Never`] this stays 0 —
    /// conservative admission reserves prompt+output up front — and
    /// dashboards can still alert on it.
    pub preemptions: Arc<Counter>,
    pub completed: Arc<Counter>,
    pub timed_out: Arc<Counter>,
    pub rejected: Arc<Counter>,
    pub failed: Arc<Counter>,
    pub request_latency_ns: Arc<Histogram>,
    pub queue_delay_ns: Arc<Histogram>,
    pub tokens_per_s: Arc<Gauge>,
    pub queue_len: Arc<Gauge>,
}

impl SchedMetrics {
    /// Resolve handles labelled `{replica="<n>"}` (router shards), or
    /// the unlabelled process-wide families when `replica` is `None`;
    /// `None` when telemetry is off.
    pub(crate) fn resolve_for(replica: Option<u32>) -> Option<Self> {
        if !lq_telemetry::enabled() {
            return None;
        }
        let reg = registry();
        let id = replica.map(|r| r.to_string());
        let labels: Vec<(&str, &str)> = match &id {
            Some(v) => vec![("replica", v.as_str())],
            None => vec![],
        };
        let c = |name| reg.counter_with(name, &labels);
        let g = |name| reg.gauge_with(name, &labels);
        let h = |name| reg.histogram_with(name, &labels);
        Some(Self {
            batch_size: h("lq_serving_batch_size"),
            decode_step_ns: h("lq_serving_decode_step_ns"),
            prefill_ns: h("lq_serving_prefill_ns"),
            admitted: c("lq_serving_admitted_total"),
            blocked: c("lq_serving_admission_blocked_total"),
            preemptions: c("lq_serving_preemptions_total"),
            completed: c("lq_serving_completed_total"),
            timed_out: c("lq_serving_timed_out_total"),
            rejected: c("lq_serving_rejected_total"),
            failed: c("lq_serving_failed_total"),
            request_latency_ns: h("lq_serving_request_latency_ns"),
            queue_delay_ns: h("lq_serving_queue_delay_ns"),
            tokens_per_s: g("lq_serving_tokens_per_s"),
            queue_len: g("lq_serving_queue_len"),
        })
    }
}

/// Handles for the paged allocator (process-wide; the allocator has no
/// per-instance identity worth labelling).
pub(crate) struct KvMetrics {
    pub alloc: Arc<Counter>,
    pub freed: Arc<Counter>,
    pub oom: Arc<Counter>,
    pub used_pages: Arc<Gauge>,
    pub live_sequences: Arc<Gauge>,
}

static KV: OnceLock<KvMetrics> = OnceLock::new();

/// The allocator's handles, or `None` when telemetry is off. Cached in
/// a `OnceLock` so the per-operation cost is one relaxed load plus a
/// pointer read.
pub(crate) fn kv() -> Option<&'static KvMetrics> {
    if !lq_telemetry::enabled() {
        return None;
    }
    Some(KV.get_or_init(|| {
        let reg = registry();
        KvMetrics {
            alloc: reg.counter("lq_kv_page_alloc_total"),
            freed: reg.counter("lq_kv_page_free_total"),
            oom: reg.counter("lq_kv_oom_total"),
            used_pages: reg.gauge("lq_kv_used_pages"),
            live_sequences: reg.gauge("lq_kv_live_sequences"),
        }
    }))
}
