//! Request/completion types and the scheduler configuration — the API
//! surface of the serving loop.
//!
//! One loop ([`crate::runtime::ServingRuntime`]) consumes [`Request`]
//! workloads under a [`SchedulerConfig`] and produces [`RunStats`] of
//! [`Completion`] records, whichever engine drives it: a real one
//! (batched GEMMs on the persistent pool, measured time) or
//! [`crate::scheduler::ModelledEngine`] behind
//! [`crate::scheduler::run_schedule`] (H800 cost model, modelled time).
//! An experiment written against one runs unchanged — same policies,
//! same statuses — against the other.

use std::fmt;

/// Priority tier of a request. Tiers order `Low < Normal < High`;
/// admission is strictly by tier (High first) and,
/// under [`PreemptionPolicy::PriorityKv`], a higher-tier request may
/// preempt lower-tier running sequences when its KV reservation does
/// not fit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Best-effort background work: first shed under load.
    Low,
    /// The default tier.
    #[default]
    Normal,
    /// Latency-sensitive (SLO-bearing) traffic: admitted first, never
    /// preempted by the other tiers.
    High,
}

impl Priority {
    /// All tiers, highest first (admission scan order).
    pub const DESCENDING: [Priority; 3] = [Priority::High, Priority::Normal, Priority::Low];

    /// Dense index (`Low = 0, Normal = 1, High = 2`) for per-tier
    /// tables.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            Priority::Low => 0,
            Priority::Normal => 1,
            Priority::High => 2,
        }
    }

    /// Stable label (telemetry / bench tables).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Priority::Low => "low",
            Priority::Normal => "normal",
            Priority::High => "high",
        }
    }
}

impl fmt::Display for Priority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One inference request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Request {
    /// Caller-chosen id (unique).
    pub id: u64,
    /// Prompt length (tokens).
    pub prompt_len: usize,
    /// Tokens to generate (≥ 1).
    pub output_len: usize,
    /// Arrival time (seconds).
    pub arrival: f64,
    /// Optional deadline, in seconds *after arrival*. A request that
    /// has not produced its last token within the deadline is evicted
    /// (its KV pages released) and completes as
    /// [`CompletionStatus::TimedOut`]. `None` means no deadline.
    pub deadline: Option<f64>,
    /// Priority tier ([`Priority::Normal`] by default).
    pub priority: Priority,
}

impl Request {
    /// A request with no deadline, at [`Priority::Normal`].
    #[must_use]
    pub fn new(id: u64, prompt_len: usize, output_len: usize, arrival: f64) -> Self {
        assert!(prompt_len >= 1, "empty prompt");
        assert!(output_len >= 1, "must generate at least one token");
        assert!(arrival.is_finite() && arrival >= 0.0, "bad arrival");
        Self {
            id,
            prompt_len,
            output_len,
            arrival,
            deadline: None,
            priority: Priority::Normal,
        }
    }

    /// Attach a deadline (seconds after arrival, finite and positive).
    #[must_use]
    pub fn with_deadline(mut self, deadline: f64) -> Self {
        assert!(deadline.is_finite() && deadline >= 0.0, "bad deadline");
        self.deadline = Some(deadline);
        self
    }

    /// Set the priority tier.
    #[must_use]
    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Absolute expiry instant, if a deadline is set.
    #[must_use]
    pub fn expiry(&self) -> Option<f64> {
        self.deadline.map(|d| self.arrival + d)
    }
}

/// How a request left the system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompletionStatus {
    /// All `output_len` tokens were produced.
    Finished,
    /// The deadline expired first; any KV pages were released.
    TimedOut,
    /// The bounded queue was full at arrival (or the reservation can
    /// never fit); the request was never admitted. Also the ingest
    /// verdict for malformed requests (non-finite arrival/deadline,
    /// empty prompt, zero output).
    Rejected,
    /// An unrecoverable engine or allocation error mid-flight: the
    /// request's KV pages were fully released and the loop kept
    /// serving.
    Failed,
}

/// Completion record for one request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Completion {
    /// Request id.
    pub id: u64,
    /// When the request was admitted (prefill started). For requests
    /// that never ran (`Rejected`, or `TimedOut` while still queued)
    /// this equals `finished_at`.
    pub admitted_at: f64,
    /// When the request left the system (last token, eviction, or
    /// rejection).
    pub finished_at: f64,
    /// Arrival time (copied from the request).
    pub arrival: f64,
    /// Outcome.
    pub status: CompletionStatus,
    /// Tokens actually generated (equals `output_len` iff `Finished`).
    pub generated: u64,
    /// Priority tier (copied from the request).
    pub priority: Priority,
}

impl Completion {
    /// Queueing + service latency (time in system).
    #[must_use]
    pub fn latency(&self) -> f64 {
        self.finished_at - self.arrival
    }

    /// Time spent waiting for admission.
    #[must_use]
    pub fn queue_delay(&self) -> f64 {
        self.admitted_at - self.arrival
    }
}

/// Aggregate results of a serving run.
#[derive(Debug, Clone)]
pub struct RunStats {
    /// Per-request completions, in the order they left the system.
    pub completions: Vec<Completion>,
    /// Total generated tokens.
    pub generated_tokens: u64,
    /// Serving-clock makespan (seconds — measured or modelled, per
    /// engine).
    pub makespan: f64,
    /// Largest concurrent batch observed.
    pub peak_batch: usize,
    /// Decode iterations executed.
    pub decode_steps: u64,
    /// Running sequences preempted (KV released, re-queued); non-zero
    /// only under [`PreemptionPolicy::PriorityKv`].
    pub preemptions: u64,
    /// Tokens discarded by preemption or replica evacuation (work that
    /// was generated, then thrown away; excluded from
    /// `generated_tokens`).
    pub preempted_tokens: u64,
}

impl RunStats {
    /// Empty stats (the accumulator a run starts from).
    #[must_use]
    pub fn empty() -> Self {
        Self {
            completions: Vec::new(),
            generated_tokens: 0,
            makespan: 0.0,
            peak_batch: 0,
            decode_steps: 0,
            preemptions: 0,
            preempted_tokens: 0,
        }
    }

    /// Sustained generation throughput (tokens/s).
    #[must_use]
    pub fn throughput(&self) -> f64 {
        if self.makespan == 0.0 {
            0.0
        } else {
            self.generated_tokens as f64 / self.makespan
        }
    }

    /// Completions with a given status.
    #[must_use]
    pub fn count(&self, status: CompletionStatus) -> usize {
        self.completions
            .iter()
            .filter(|c| c.status == status)
            .count()
    }

    /// Requests that produced all their tokens.
    #[must_use]
    pub fn finished(&self) -> usize {
        self.count(CompletionStatus::Finished)
    }

    /// Requests evicted on deadline expiry.
    #[must_use]
    pub fn timed_out(&self) -> usize {
        self.count(CompletionStatus::TimedOut)
    }

    /// Requests refused at the queue.
    #[must_use]
    pub fn rejected(&self) -> usize {
        self.count(CompletionStatus::Rejected)
    }

    /// Requests that died on an engine/allocation error (pages
    /// released, batch kept running).
    #[must_use]
    pub fn failed(&self) -> usize {
        self.count(CompletionStatus::Failed)
    }

    /// Tokens that reached their caller per second of makespan —
    /// `generated_tokens` already excludes preempted/evacuated work,
    /// so this is the overload-bench goodput metric.
    #[must_use]
    pub fn goodput(&self) -> f64 {
        self.throughput()
    }

    fn finished_latencies(&self) -> Vec<f64> {
        self.completions
            .iter()
            .filter(|c| c.status == CompletionStatus::Finished)
            .map(Completion::latency)
            .collect()
    }

    /// p-th percentile latency over *finished* requests of one tier
    /// (0.0 when the tier finished nothing).
    #[must_use]
    pub fn tier_latency_percentile(&self, tier: Priority, p: f64) -> f64 {
        assert!((0.0..=100.0).contains(&p));
        let mut ls: Vec<f64> = self
            .completions
            .iter()
            .filter(|c| c.status == CompletionStatus::Finished && c.priority == tier)
            .map(Completion::latency)
            .collect();
        if ls.is_empty() {
            return 0.0;
        }
        ls.sort_by(f64::total_cmp);
        let idx = ((p / 100.0) * (ls.len() - 1) as f64).round() as usize;
        ls[idx]
    }

    /// Completions of one tier with a given status.
    #[must_use]
    pub fn tier_count(&self, tier: Priority, status: CompletionStatus) -> usize {
        self.completions
            .iter()
            .filter(|c| c.priority == tier && c.status == status)
            .count()
    }

    /// Mean end-to-end latency over *finished* requests.
    #[must_use]
    pub fn mean_latency(&self) -> f64 {
        let ls = self.finished_latencies();
        if ls.is_empty() {
            return 0.0;
        }
        ls.iter().sum::<f64>() / ls.len() as f64
    }

    /// p-th percentile latency (p in `[0, 100]`) over *finished* requests.
    #[must_use]
    pub fn latency_percentile(&self, p: f64) -> f64 {
        assert!((0.0..=100.0).contains(&p));
        let mut ls = self.finished_latencies();
        if ls.is_empty() {
            return 0.0;
        }
        // total_cmp: latencies derive from user-supplied arrival times,
        // and a NaN here must not panic the stats path.
        ls.sort_by(f64::total_cmp);
        let idx = ((p / 100.0) * (ls.len() - 1) as f64).round() as usize;
        ls[idx]
    }
}

/// How arriving requests are admitted to the bounded queue.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum AdmissionPolicy {
    /// One queue-occupancy cap (`max_queue`) shared by every tier —
    /// the pre-router behaviour.
    #[default]
    Fcfs,
    /// SLO-aware tiered admission: each tier may occupy at most a
    /// share of `max_queue` (percent, cumulative from the bottom).
    /// Low-priority arrivals are refused once total queue occupancy
    /// reaches `low_share_pct`% of `max_queue`, normal at
    /// `normal_share_pct`%, high only at 100% — so under overload the
    /// queue sheds background work first and always keeps headroom for
    /// SLO-bearing traffic. Requires a bounded `max_queue`.
    SloTiered {
        /// Occupancy ceiling (percent of `max_queue`, 1..=100) above
        /// which `Low` arrivals are rejected.
        low_share_pct: u8,
        /// Occupancy ceiling for `Normal` arrivals; must be
        /// ≥ `low_share_pct`.
        normal_share_pct: u8,
    },
}

/// Whether a higher-priority request may evict running lower-priority
/// sequences when its KV reservation does not fit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum PreemptionPolicy {
    /// Conservative admission only (the pre-router behaviour): a
    /// request waits until its full reservation fits.
    #[default]
    Never,
    /// A pending request may preempt strictly-lower-priority running
    /// sequences: victims' KV pages are fully released and the victims
    /// re-queue (front of their tier's queue, original arrival kept)
    /// to restart from prefill later.
    PriorityKv,
}

/// Scheduler configuration. Construct via
/// [`SchedulerConfig::builder`] (validated) or [`Default`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedulerConfig {
    /// Hard cap on concurrent sequences.
    pub max_batch: usize,
    /// Tokens per KV page.
    pub page_tokens: usize,
    /// Bounded-queue capacity: a request arriving while this many are
    /// already waiting completes immediately as
    /// [`CompletionStatus::Rejected`]. `usize::MAX` (the default)
    /// disables backpressure.
    pub max_queue: usize,
    /// Queue-admission policy (see [`AdmissionPolicy`]).
    pub admission: AdmissionPolicy,
    /// KV-pressure preemption policy (see [`PreemptionPolicy`]).
    pub preemption: PreemptionPolicy,
    /// Prefill/decode disaggregation knob: cap on prompt tokens
    /// prefilled per admission pass, so one wave of long prefills
    /// cannot stall running decodes for many steps. At least one
    /// admission always proceeds per pass (no livelock). The default
    /// `usize::MAX` disables the cap.
    pub max_prefill_tokens: usize,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        Self {
            max_batch: 256,
            page_tokens: 16,
            max_queue: usize::MAX,
            admission: AdmissionPolicy::Fcfs,
            preemption: PreemptionPolicy::Never,
            max_prefill_tokens: usize::MAX,
        }
    }
}

impl SchedulerConfig {
    /// Start building a validated configuration.
    #[must_use]
    pub fn builder() -> SchedulerConfigBuilder {
        SchedulerConfigBuilder::default()
    }

    /// Queue-occupancy cap for arrivals of `tier` under the configured
    /// admission policy (floored at 1 so some traffic always fits).
    #[must_use]
    pub fn queue_cap(&self, tier: Priority) -> usize {
        match self.admission {
            AdmissionPolicy::Fcfs => self.max_queue,
            AdmissionPolicy::SloTiered {
                low_share_pct,
                normal_share_pct,
            } => {
                let pct = match tier {
                    Priority::Low => low_share_pct as usize,
                    Priority::Normal => normal_share_pct as usize,
                    Priority::High => 100,
                };
                (self.max_queue * pct / 100).max(1)
            }
        }
    }
}

/// Invalid [`SchedulerConfig`] parameters (mirrors the
/// `ParallelConfig::builder()` / `ConfigError` pattern in `lq-core`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerConfigError {
    /// `max_batch == 0`: no sequence could ever run.
    ZeroMaxBatch,
    /// `page_tokens == 0`: KV pages would hold no tokens.
    ZeroPageTokens,
    /// `max_queue == 0`: every request would be rejected on arrival.
    ZeroQueueCap,
    /// A `SloTiered` share is outside 1..=100, or
    /// `low_share_pct > normal_share_pct`.
    BadTierShares,
    /// `SloTiered` admission with an unbounded queue: percentage caps
    /// of `usize::MAX` are meaningless; set `max_queue` first.
    TieredNeedsBoundedQueue,
    /// `max_prefill_tokens == 0`: no prompt could ever prefill.
    ZeroPrefillBudget,
}

impl fmt::Display for SchedulerConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedulerConfigError::ZeroMaxBatch => write!(f, "max_batch must be >= 1"),
            SchedulerConfigError::ZeroPageTokens => write!(f, "page_tokens must be >= 1"),
            SchedulerConfigError::ZeroQueueCap => write!(f, "max_queue must be >= 1"),
            SchedulerConfigError::BadTierShares => write!(
                f,
                "SloTiered shares must satisfy 1 <= low_share_pct <= normal_share_pct <= 100"
            ),
            SchedulerConfigError::TieredNeedsBoundedQueue => write!(
                f,
                "SloTiered admission requires a bounded max_queue (set max_queue first)"
            ),
            SchedulerConfigError::ZeroPrefillBudget => {
                write!(f, "max_prefill_tokens must be >= 1")
            }
        }
    }
}

impl std::error::Error for SchedulerConfigError {}

/// Builder for [`SchedulerConfig`].
#[derive(Debug, Clone, Copy)]
pub struct SchedulerConfigBuilder {
    max_batch: usize,
    page_tokens: usize,
    max_queue: usize,
    admission: AdmissionPolicy,
    preemption: PreemptionPolicy,
    max_prefill_tokens: usize,
}

impl Default for SchedulerConfigBuilder {
    fn default() -> Self {
        let d = SchedulerConfig::default();
        Self {
            max_batch: d.max_batch,
            page_tokens: d.page_tokens,
            max_queue: d.max_queue,
            admission: d.admission,
            preemption: d.preemption,
            max_prefill_tokens: d.max_prefill_tokens,
        }
    }
}

impl SchedulerConfigBuilder {
    /// Concurrent-sequence cap (validated ≥ 1).
    #[must_use]
    pub fn max_batch(mut self, n: usize) -> Self {
        self.max_batch = n;
        self
    }

    /// Tokens per KV page (validated ≥ 1).
    #[must_use]
    pub fn page_tokens(mut self, n: usize) -> Self {
        self.page_tokens = n;
        self
    }

    /// Waiting-queue capacity (validated ≥ 1).
    #[must_use]
    pub fn max_queue(mut self, n: usize) -> Self {
        self.max_queue = n;
        self
    }

    /// Queue-admission policy.
    #[must_use]
    pub fn admission(mut self, p: AdmissionPolicy) -> Self {
        self.admission = p;
        self
    }

    /// KV-pressure preemption policy.
    #[must_use]
    pub fn preemption(mut self, p: PreemptionPolicy) -> Self {
        self.preemption = p;
        self
    }

    /// Prompt-token budget per admission pass (validated ≥ 1).
    #[must_use]
    pub fn max_prefill_tokens(mut self, n: usize) -> Self {
        self.max_prefill_tokens = n;
        self
    }

    /// Validate and produce the configuration.
    pub fn build(self) -> Result<SchedulerConfig, SchedulerConfigError> {
        if self.max_batch == 0 {
            return Err(SchedulerConfigError::ZeroMaxBatch);
        }
        if self.page_tokens == 0 {
            return Err(SchedulerConfigError::ZeroPageTokens);
        }
        if self.max_queue == 0 {
            return Err(SchedulerConfigError::ZeroQueueCap);
        }
        if self.max_prefill_tokens == 0 {
            return Err(SchedulerConfigError::ZeroPrefillBudget);
        }
        if let AdmissionPolicy::SloTiered {
            low_share_pct,
            normal_share_pct,
        } = self.admission
        {
            if low_share_pct == 0 || normal_share_pct > 100 || low_share_pct > normal_share_pct {
                return Err(SchedulerConfigError::BadTierShares);
            }
            if self.max_queue == usize::MAX {
                return Err(SchedulerConfigError::TieredNeedsBoundedQueue);
            }
        }
        Ok(SchedulerConfig {
            max_batch: self.max_batch,
            page_tokens: self.page_tokens,
            max_queue: self.max_queue,
            admission: self.admission,
            preemption: self.preemption,
            max_prefill_tokens: self.max_prefill_tokens,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_validates_each_field() {
        assert_eq!(
            SchedulerConfig::builder().max_batch(0).build(),
            Err(SchedulerConfigError::ZeroMaxBatch)
        );
        assert_eq!(
            SchedulerConfig::builder().page_tokens(0).build(),
            Err(SchedulerConfigError::ZeroPageTokens)
        );
        assert_eq!(
            SchedulerConfig::builder().max_queue(0).build(),
            Err(SchedulerConfigError::ZeroQueueCap)
        );
        let ok = SchedulerConfig::builder()
            .max_batch(8)
            .page_tokens(32)
            .max_queue(4)
            .build()
            .unwrap();
        assert_eq!((ok.max_batch, ok.page_tokens, ok.max_queue), (8, 32, 4));
    }

    #[test]
    fn builder_errors_display() {
        assert!(SchedulerConfigError::ZeroMaxBatch
            .to_string()
            .contains("max_batch"));
        assert!(SchedulerConfigError::ZeroQueueCap
            .to_string()
            .contains("max_queue"));
    }

    #[test]
    fn request_deadline_and_expiry() {
        let r = Request::new(1, 16, 8, 2.0);
        assert_eq!(r.expiry(), None);
        let r = r.with_deadline(3.0);
        assert_eq!(r.expiry(), Some(5.0));
    }

    #[test]
    #[should_panic(expected = "at least one token")]
    fn zero_output_rejected() {
        let _ = Request::new(1, 16, 0, 0.0);
    }

    #[test]
    fn stats_count_by_status() {
        let mk = |status, latency: f64, priority| Completion {
            id: 0,
            admitted_at: 0.0,
            finished_at: latency,
            arrival: 0.0,
            status,
            generated: 0,
            priority,
        };
        let stats = RunStats {
            completions: vec![
                mk(CompletionStatus::Finished, 1.0, Priority::High),
                mk(CompletionStatus::Finished, 3.0, Priority::Low),
                mk(CompletionStatus::TimedOut, 9.0, Priority::Normal),
                mk(CompletionStatus::Rejected, 0.0, Priority::Low),
            ],
            generated_tokens: 10,
            makespan: 5.0,
            peak_batch: 2,
            decode_steps: 4,
            preemptions: 0,
            preempted_tokens: 0,
        };
        assert_eq!(stats.finished(), 2);
        assert_eq!(stats.timed_out(), 1);
        assert_eq!(stats.rejected(), 1);
        // Latency stats consider finished requests only.
        assert!((stats.mean_latency() - 2.0).abs() < 1e-12);
        assert_eq!(stats.latency_percentile(100.0), 3.0);
        assert_eq!(stats.throughput(), 2.0);
        assert_eq!(stats.goodput(), 2.0);
        // Per-tier views.
        assert_eq!(stats.tier_latency_percentile(Priority::High, 99.0), 1.0);
        assert_eq!(stats.tier_latency_percentile(Priority::Low, 99.0), 3.0);
        assert_eq!(stats.tier_latency_percentile(Priority::Normal, 99.0), 0.0);
        assert_eq!(
            stats.tier_count(Priority::Low, CompletionStatus::Rejected),
            1
        );
    }

    #[test]
    fn priority_ordering_and_labels() {
        assert!(Priority::Low < Priority::Normal);
        assert!(Priority::Normal < Priority::High);
        assert_eq!(Priority::default(), Priority::Normal);
        assert_eq!(Priority::DESCENDING[0], Priority::High);
        assert_eq!(Priority::High.label(), "high");
        assert_eq!(Priority::Low.index(), 0);
        assert_eq!(Priority::High.to_string(), "high");
        let r = Request::new(7, 4, 4, 0.0).with_priority(Priority::High);
        assert_eq!(r.priority, Priority::High);
        assert_eq!(Request::new(8, 4, 4, 0.0).priority, Priority::Normal);
    }

    #[test]
    fn tiered_admission_validation() {
        // Shares must be ordered and in range.
        let bad = SchedulerConfig::builder()
            .max_queue(10)
            .admission(AdmissionPolicy::SloTiered {
                low_share_pct: 80,
                normal_share_pct: 40,
            })
            .build();
        assert_eq!(bad, Err(SchedulerConfigError::BadTierShares));
        let bad = SchedulerConfig::builder()
            .max_queue(10)
            .admission(AdmissionPolicy::SloTiered {
                low_share_pct: 0,
                normal_share_pct: 40,
            })
            .build();
        assert_eq!(bad, Err(SchedulerConfigError::BadTierShares));
        // Unbounded queue is rejected under tiered admission.
        let bad = SchedulerConfig::builder()
            .admission(AdmissionPolicy::SloTiered {
                low_share_pct: 30,
                normal_share_pct: 70,
            })
            .build();
        assert_eq!(bad, Err(SchedulerConfigError::TieredNeedsBoundedQueue));
        assert_eq!(
            SchedulerConfig::builder().max_prefill_tokens(0).build(),
            Err(SchedulerConfigError::ZeroPrefillBudget)
        );
        // Valid tiered config: per-tier caps are monotone in priority.
        let cfg = SchedulerConfig::builder()
            .max_queue(10)
            .admission(AdmissionPolicy::SloTiered {
                low_share_pct: 30,
                normal_share_pct: 70,
            })
            .preemption(PreemptionPolicy::PriorityKv)
            .build()
            .unwrap();
        assert_eq!(cfg.queue_cap(Priority::Low), 3);
        assert_eq!(cfg.queue_cap(Priority::Normal), 7);
        assert_eq!(cfg.queue_cap(Priority::High), 10);
        // Tiny queues floor the cap at 1 (some low traffic always fits).
        let tiny = SchedulerConfig::builder()
            .max_queue(2)
            .admission(AdmissionPolicy::SloTiered {
                low_share_pct: 10,
                normal_share_pct: 50,
            })
            .build()
            .unwrap();
        assert_eq!(tiny.queue_cap(Priority::Low), 1);
        // FCFS keeps the single shared cap.
        let fcfs = SchedulerConfig::default();
        assert_eq!(fcfs.queue_cap(Priority::Low), usize::MAX);
    }
}
