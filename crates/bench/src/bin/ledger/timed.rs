//! `TimedEngine`: a [`ServingEngine`] decorator that times every call
//! the runtime makes into the engine, from outside, and the
//! reconstruction of per-request TTFT and inter-token gaps from that
//! call log.
//!
//! The runtime's clock is virtual: it advances by the measured time of
//! each prefill cohort and decode step and jumps over idle gaps. The
//! log rebuilds that clock from the calls alone (the *busy clock*: the
//! running sum of prefill and decode durations), so token times need
//! nothing from inside the runtime.

use lq_serving::kvcache::SeqId;
use lq_serving::runtime::ServingEngine;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Which engine entry point a [`Call`] went through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallKind {
    /// `prefill` of one request.
    Prefill,
    /// One `decode_batch` step.
    Decode,
    /// `release` of one request.
    Release,
}

/// One timed engine call.
#[derive(Debug, Clone)]
pub struct Call {
    /// Entry point.
    pub kind: CallKind,
    /// Start, ns since the log's epoch.
    pub start_ns: u64,
    /// Wall time inside the engine, ns.
    pub dur_ns: u64,
    /// The request (prefill, release) or the batch's requests (decode).
    pub ids: Vec<SeqId>,
    /// Tokens the call returned, aligned with `ids` (empty on release).
    pub tokens: Vec<usize>,
    /// Prompt tokens a prefill consumed (0 otherwise).
    pub prompt_tokens: usize,
}

/// The calls of one engine, in order.
#[derive(Debug)]
pub struct CallLog {
    epoch: Instant,
    /// Calls in the order the runtime made them.
    pub calls: Vec<Call>,
}

/// A log shared between the engine (moved into the runtime or router)
/// and the harness that reads it afterwards.
pub type SharedLog = Arc<Mutex<CallLog>>;

impl CallLog {
    /// An empty log whose clock starts at `epoch`.
    pub fn shared(epoch: Instant) -> SharedLog {
        Arc::new(Mutex::new(CallLog {
            epoch,
            calls: Vec::new(),
        }))
    }
}

/// Times every call into `inner` and forwards it unchanged.
pub struct TimedEngine<E> {
    inner: E,
    log: SharedLog,
}

impl<E: ServingEngine> TimedEngine<E> {
    /// Wrap `inner`, appending to `log`.
    pub fn new(inner: E, log: SharedLog) -> Self {
        Self { inner, log }
    }

    fn record(
        &self,
        kind: CallKind,
        t0: Instant,
        ids: Vec<SeqId>,
        tokens: Vec<usize>,
        prompt_tokens: usize,
    ) {
        let dur_ns = t0.elapsed().as_nanos() as u64;
        let mut log = self
            .log
            .lock()
            .expect("no call-log holder panics while holding it");
        let start_ns = t0.duration_since(log.epoch).as_nanos() as u64;
        log.calls.push(Call {
            kind,
            start_ns,
            dur_ns,
            ids,
            tokens,
            prompt_tokens,
        });
    }
}

impl<E: ServingEngine> ServingEngine for TimedEngine<E> {
    fn prefill(&mut self, id: SeqId, prompt: &[usize]) -> usize {
        let t0 = Instant::now();
        let tok = self.inner.prefill(id, prompt);
        self.record(CallKind::Prefill, t0, vec![id], vec![tok], prompt.len());
        tok
    }

    fn decode_batch(&mut self, slots: &[(SeqId, usize)]) -> Vec<usize> {
        let t0 = Instant::now();
        let next = self.inner.decode_batch(slots);
        let ids = slots.iter().map(|&(id, _)| id).collect();
        self.record(CallKind::Decode, t0, ids, next.clone(), 0);
        next
    }

    fn release(&mut self, id: SeqId) {
        let t0 = Instant::now();
        self.inner.release(id);
        self.record(CallKind::Release, t0, vec![id], Vec::new(), 0);
    }
}

/// What the log says about one request.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RequestTimeline {
    /// Wall time of the request's own prefill cohort (the consecutive
    /// prefill calls it was admitted with), ns: the part of TTFT after
    /// admission.
    pub cohort_ns: u64,
    /// Gap before each generated token after the first, ns: the decode
    /// step that produced it plus every prefill the runtime ran since
    /// this request's previous token.
    pub itl_ns: Vec<u64>,
    /// Every token the engine returned for it, in order.
    pub tokens: Vec<usize>,
}

/// Totals over one engine's log.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LogTotals {
    /// Σ prefill + decode time, ns (what the virtual clock advanced by).
    pub busy_ns: u64,
    /// Σ release time, ns (real, but off the virtual clock).
    pub release_ns: u64,
    /// First call's start to last call's end, ns.
    pub span_ns: u64,
    /// Prompt tokens prefilled.
    pub prompt_tokens: u64,
    /// Σ prefill time, ns.
    pub prefill_ns: u64,
    /// Number of prefill, decode and release calls.
    pub calls: [u64; 3],
    /// Duration of every decode step, ns.
    pub decode_ns: Vec<u64>,
    /// Σ batch size over decode steps.
    pub decode_slots: u64,
}

/// The cohort's last prefill has returned at busy-clock `clock`: every
/// member's first token exists now, `cohort_ns` after admission.
fn close_cohort(
    cohort: &mut Vec<SeqId>,
    cohort_ns: u64,
    clock: u64,
    out: &mut BTreeMap<SeqId, RequestTimeline>,
    last_token_at: &mut BTreeMap<SeqId, u64>,
) {
    for id in cohort.drain(..) {
        out.entry(id).or_default().cohort_ns = cohort_ns;
        last_token_at.insert(id, clock);
    }
}

/// Rebuild per-request timelines and the log's totals.
///
/// Holds for a request that is prefilled once (no preemption, no
/// failover — both are off on every workload): its first token exists
/// when its cohort's last prefill returns, each later one when the
/// decode step carrying it returns.
pub fn reconstruct(calls: &[Call]) -> (BTreeMap<SeqId, RequestTimeline>, LogTotals) {
    let mut out: BTreeMap<SeqId, RequestTimeline> = BTreeMap::new();
    let mut totals = LogTotals::default();
    // Busy clock at each request's latest token.
    let mut last_token_at: BTreeMap<SeqId, u64> = BTreeMap::new();
    let mut clock = 0u64;
    let mut cohort: Vec<SeqId> = Vec::new();
    let mut cohort_start = 0u64;
    for c in calls {
        if c.kind != CallKind::Prefill {
            close_cohort(
                &mut cohort,
                clock - cohort_start,
                clock,
                &mut out,
                &mut last_token_at,
            );
        }
        match c.kind {
            CallKind::Prefill => {
                if cohort.is_empty() {
                    cohort_start = clock;
                }
                clock += c.dur_ns;
                cohort.push(c.ids[0]);
                out.entry(c.ids[0]).or_default().tokens.push(c.tokens[0]);
                totals.prefill_ns += c.dur_ns;
                totals.prompt_tokens += c.prompt_tokens as u64;
                totals.calls[0] += 1;
            }
            CallKind::Decode => {
                clock += c.dur_ns;
                for (&id, &tok) in c.ids.iter().zip(&c.tokens) {
                    let r = out.entry(id).or_default();
                    r.tokens.push(tok);
                    if let Some(prev) = last_token_at.insert(id, clock) {
                        r.itl_ns.push(clock - prev);
                    }
                }
                totals.decode_ns.push(c.dur_ns);
                totals.decode_slots += c.ids.len() as u64;
                totals.calls[1] += 1;
            }
            CallKind::Release => {
                totals.release_ns += c.dur_ns;
                totals.calls[2] += 1;
            }
        }
    }
    close_cohort(
        &mut cohort,
        clock - cohort_start,
        clock,
        &mut out,
        &mut last_token_at,
    );
    totals.busy_ns = clock;
    if let (Some(first), Some(last)) = (calls.first(), calls.last()) {
        totals.span_ns = last.start_ns + last.dur_ns - first.start_ns;
    }
    (out, totals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lq_core::KernelKind;
    use lq_engine::{ModelSpec, TinyLlm};
    use lq_serving::runtime::{PromptRequest, ServingRuntime};
    use lq_serving::Request;

    fn requests(spec: &ModelSpec) -> Vec<PromptRequest> {
        (0..5u64)
            .map(|id| {
                let len = 3 + id as usize;
                let prompt = (0..len)
                    .map(|t| (id as usize * 13 + t * 7) % spec.vocab)
                    .collect();
                PromptRequest::new(Request::new(id, len, 4 + id as usize, 0.0), prompt)
            })
            .collect()
    }

    fn runtime() -> ServingRuntime {
        ServingRuntime::builder()
            .max_batch(2)
            .kv_budget_tokens(1024)
            .build()
            .unwrap()
    }

    #[test]
    fn decorator_changes_no_token_and_logs_no_more_than_the_makespan() {
        let spec = ModelSpec::tiny();
        let mut plain = TinyLlm::synthetic(spec, 64, KernelKind::Serial);
        let bare = runtime().run(&mut plain, requests(&spec));
        assert_eq!(bare.finished(), 5);

        let log = CallLog::shared(Instant::now());
        let mut timed = TimedEngine::new(
            TinyLlm::synthetic(spec, 64, KernelKind::Serial),
            Arc::clone(&log),
        );
        let stats = runtime().run(&mut timed, requests(&spec));
        assert_eq!(stats.finished(), 5);
        assert_eq!(stats.decode_steps, bare.decode_steps);

        let log = log.lock().unwrap();
        let (timelines, totals) = reconstruct(&log.calls);
        // Same histories as an undecorated greedy replay of each prompt.
        for pr in requests(&spec) {
            let mut solo = TinyLlm::synthetic(spec, 64, KernelKind::Serial);
            let want = solo.generate_greedy(0, &pr.prompt, pr.meta.output_len);
            assert_eq!(
                timelines[&pr.meta.id].tokens, want,
                "request {}",
                pr.meta.id
            );
            assert_eq!(timelines[&pr.meta.id].itl_ns.len(), pr.meta.output_len - 1);
        }
        // The runtime times each call from outside the decorator, so
        // the logged time can only be smaller than its clock's advance.
        assert!(totals.busy_ns as f64 <= stats.makespan * 1e9);
        assert!(totals.busy_ns <= totals.span_ns);
        assert_eq!(totals.calls, [5, stats.decode_steps, 5]);
        assert_eq!(totals.decode_slots + 5, stats.generated_tokens);
    }

    fn call(kind: CallKind, start_ns: u64, dur_ns: u64, ids: &[SeqId]) -> Call {
        Call {
            kind,
            start_ns,
            dur_ns,
            ids: ids.to_vec(),
            tokens: if kind == CallKind::Release {
                Vec::new()
            } else {
                ids.iter().map(|&i| i as usize + 100).collect()
            },
            prompt_tokens: if kind == CallKind::Prefill { 10 } else { 0 },
        }
    }

    #[test]
    fn reconstruction_matches_a_hand_built_three_request_schedule() {
        use CallKind::{Decode, Prefill, Release};
        // max_batch 2. A and B admitted together; C takes A's slot.
        //   P(A)=10  P(B)=20 | D(A,B)=5 | D(A,B)=6 | R(A) | P(C)=30 |
        //   D(B,C)=7 | R(B) | D(C)=4 | R(C)
        let (a, b, c) = (1, 2, 3);
        let calls = vec![
            call(Prefill, 0, 10, &[a]),
            call(Prefill, 10, 20, &[b]),
            call(Decode, 31, 5, &[a, b]),
            call(Decode, 37, 6, &[a, b]),
            call(Release, 44, 1, &[a]),
            call(Prefill, 46, 30, &[c]),
            call(Decode, 77, 7, &[b, c]),
            call(Release, 85, 2, &[b]),
            call(Decode, 88, 4, &[c]),
            call(Release, 93, 1, &[c]),
        ];
        let (t, totals) = reconstruct(&calls);
        // A and B share a 30 ns cohort; C's cohort is its own prefill.
        assert_eq!(t[&a].cohort_ns, 30);
        assert_eq!(t[&b].cohort_ns, 30);
        assert_eq!(t[&c].cohort_ns, 30);
        assert_eq!(t[&a].itl_ns, vec![5, 6]);
        // B's third token waits for C's prefill as well as its own step.
        assert_eq!(t[&b].itl_ns, vec![5, 6, 37]);
        assert_eq!(t[&c].itl_ns, vec![7, 4]);
        assert_eq!(t[&c].tokens, vec![103, 103, 103]);
        assert_eq!(totals.busy_ns, 10 + 20 + 5 + 6 + 30 + 7 + 4);
        assert_eq!(totals.release_ns, 4);
        assert_eq!(totals.span_ns, 94);
        assert_eq!(totals.calls, [3, 4, 3]);
        assert_eq!(totals.prompt_tokens, 30);
        assert_eq!(totals.decode_slots, 7);
        assert_eq!(totals.decode_ns, vec![5, 6, 7, 4]);
    }
}
