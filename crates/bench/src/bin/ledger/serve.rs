//! The serving workloads: `serve_offline` (one `ServingRuntime`, eight
//! slots always full) and `serve_poisson` (open-loop arrivals through
//! the `ServingRouter` onto two replicas), both over `TinyLlm` behind a
//! [`TimedEngine`].

use crate::gemm::pool;
use crate::spec::{Plan, MAX_BATCH, PAGE_TOKENS, POISSON_RATE, REPLICAS, TRACE_SEED, WORKERS};
use crate::stats::Digest;
use crate::timed::{reconstruct, Call, CallLog, LogTotals, RequestTimeline, TimedEngine};
use lq_core::{KernelKind, LiquidGemm, WorkerStats};
use lq_engine::TinyLlm;
use lq_rng::Rng;
use lq_router::{
    ArrivalPattern, Disaggregation, RoutingPolicy, ServingRouter, TierMix, TraceConfig,
};
use lq_serving::kvcache::SeqId;
use lq_serving::runtime::{PromptRequest, ServingRuntime, ServingRuntimeBuilder};
use lq_serving::{Completion, CompletionStatus, Request, RunStats};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Which serving workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// Closed loop: every request present at t=0, one runtime.
    Offline,
    /// Open loop: Poisson arrivals through the router.
    Poisson,
}

/// KV pages that hold [`MAX_BATCH`] requests of the longest shape the
/// plan can draw, with a page of slack each: admission never waits on
/// memory, only on a free slot.
fn kv_pages(longest: usize) -> usize {
    MAX_BATCH * (longest.div_ceil(PAGE_TOKENS) + 1)
}

fn runtime_template(pages: usize) -> ServingRuntimeBuilder {
    ServingRuntime::builder()
        .max_batch(MAX_BATCH)
        .page_tokens(PAGE_TOKENS)
        .kv_budget_tokens(pages * PAGE_TOKENS)
}

/// Pools, models and requests of one serving run.
pub struct ServeSetup {
    shape: Shape,
    pages: usize,
    /// One pool per model (kept so worker counters outlive the models).
    pub pools: Vec<Arc<LiquidGemm>>,
    models: Vec<TinyLlm>,
    /// The requests, in arrival order, ids dense from 0.
    pub requests: Vec<PromptRequest>,
}

/// The requests of one serving run, in arrival order, ids dense from
/// 0. `seed` fills the prompts; lengths, tiers and arrival times are
/// constants of the plan.
pub fn requests(plan: &Plan, shape: Shape, seed: u64) -> Vec<PromptRequest> {
    let metas: Vec<Request> = match shape {
        Shape::Offline => {
            let (p, o) = plan.offline_lens;
            (0..plan.offline_requests as u64)
                .map(|id| Request::new(id, p, o, 0.0))
                .collect()
        }
        Shape::Poisson => TraceConfig {
            pattern: ArrivalPattern::Poisson { rate: POISSON_RATE },
            duration: plan.poisson_duration,
            mix: TierMix {
                low_pct: 20,
                normal_pct: 60,
                high_pct: 20,
            },
            prompt_len: plan.poisson_prompt,
            output_len: plan.poisson_output,
            high_deadline: None,
        }
        .generate(TRACE_SEED)
        .expect("the benchmark's trace configuration is valid"),
    };
    let vocab = plan.model.vocab as u64;
    let mut rng = Rng::new(seed ^ 0x5eed_0003);
    metas
        .into_iter()
        .map(|meta| {
            let prompt = (0..meta.prompt_len)
                .map(|_| rng.below(vocab) as usize)
                .collect();
            PromptRequest::new(meta, prompt)
        })
        .collect()
}

impl ServeSetup {
    /// Generate the requests and build one pool and model per replica:
    /// a 2-worker pool offline, two 1-worker pools behind the router.
    pub fn build(plan: &Plan, shape: Shape, seed: u64) -> ServeSetup {
        let requests = requests(plan, shape, seed);
        let (replicas, workers) = match shape {
            Shape::Offline => (1, WORKERS),
            Shape::Poisson => (REPLICAS, WORKERS / REPLICAS),
        };
        let longest = requests
            .iter()
            .map(|r| r.meta.prompt_len + r.meta.output_len)
            .max()
            .unwrap_or(1);
        let pages = kv_pages(longest);
        let pools: Vec<_> = (0..replicas).map(|_| pool(workers)).collect();
        let models = pools
            .iter()
            .map(|lg| {
                TinyLlm::synthetic_with_engine(plan.model, pages, KernelKind::ImFp, Arc::clone(lg))
            })
            .collect();
        ServeSetup {
            shape,
            pages,
            pools,
            models,
            requests,
        }
    }

    /// The router `serve_poisson` runs through (also what the
    /// `route_preview` probe times).
    pub fn router(pages: usize) -> ServingRouter {
        ServingRouter::builder()
            .replicas(REPLICAS)
            .policy(RoutingPolicy::LeastLoaded)
            .disaggregation(Disaggregation::Unified)
            .runtime(runtime_template(pages))
            .build()
            .expect("the benchmark's router configuration is valid")
    }

    /// KV pages each engine store and admission table holds.
    pub fn pages(&self) -> usize {
        self.pages
    }
}

/// One replica's share of a run.
pub struct ReplicaRun {
    /// Engine calls in order.
    pub calls: Vec<Call>,
    /// Totals over `calls`.
    pub totals: LogTotals,
    /// The runtime's own statistics.
    pub stats: RunStats,
    /// Requests the router sent here.
    pub routed: u64,
}

/// Router-level counters of a `serve_poisson` run (zero when the
/// router is bypassed).
#[derive(Debug, Clone, Copy, Default)]
pub struct RouterCounts {
    /// Scheduling waves (1 = no failover).
    pub waves: u32,
    /// Replica failures absorbed.
    pub failovers: u64,
    /// Requests re-routed after a failover.
    pub rerouted: u64,
    /// Requests never served.
    pub unserved: usize,
}

/// What one serving run produced.
pub struct ServeRun {
    /// Wall time of `run`, ns.
    pub wall_ns: u64,
    /// When `run` was entered, ns since the epoch.
    pub start_ns: u64,
    /// Per replica.
    pub replicas: Vec<ReplicaRun>,
    /// Router counters.
    pub router: RouterCounts,
    /// Every request's timeline, by id.
    pub timelines: BTreeMap<SeqId, RequestTimeline>,
    /// Worker counters of every pool before the run.
    pub pool_before: Vec<WorkerStats>,
    /// And after.
    pub pool_after: Vec<WorkerStats>,
}

fn worker_stats(pools: &[Arc<LiquidGemm>]) -> Vec<WorkerStats> {
    pools
        .iter()
        .flat_map(|lg| lg.pool().worker_stats())
        .collect()
}

/// Serve every request of `setup` and collect logs and statistics.
pub fn run(setup: ServeSetup, epoch: Instant) -> ServeRun {
    let ServeSetup {
        shape,
        pages,
        pools,
        models,
        requests,
    } = setup;
    let logs: Vec<_> = models.iter().map(|_| CallLog::shared(epoch)).collect();
    let mut engines: Vec<Option<TimedEngine<TinyLlm>>> = models
        .into_iter()
        .zip(&logs)
        .map(|(m, log)| Some(TimedEngine::new(m, Arc::clone(log))))
        .collect();
    let pool_before = worker_stats(&pools);
    let t0 = Instant::now();
    let (per_replica, router): (Vec<(RunStats, u64)>, RouterCounts) = match shape {
        Shape::Offline => {
            let mut rt = runtime_template(pages)
                .build()
                .expect("the benchmark's runtime configuration is valid");
            let mut engine = engines[0].take().expect("one engine per replica");
            let routed = requests.len() as u64;
            let stats = rt.run(&mut engine, requests);
            (vec![(stats, routed)], RouterCounts::default())
        }
        Shape::Poisson => {
            let stats = ServeSetup::router(pages).run(
                |i| engines[i].take().expect("one engine per replica"),
                requests,
            );
            let counts = RouterCounts {
                waves: stats.waves,
                failovers: stats.failovers,
                rerouted: stats.rerouted,
                unserved: stats.unserved.len(),
            };
            let per = stats
                .replicas
                .into_iter()
                .map(|r| (r.stats, r.routed))
                .collect();
            (per, counts)
        }
    };
    let wall_ns = t0.elapsed().as_nanos() as u64;
    let pool_after = worker_stats(&pools);
    let mut timelines = BTreeMap::new();
    let replicas = per_replica
        .into_iter()
        .zip(&logs)
        .map(|((stats, routed), log)| {
            let calls = std::mem::take(
                &mut log
                    .lock()
                    .expect("no call-log holder panics while holding it")
                    .calls,
            );
            let (t, totals) = reconstruct(&calls);
            timelines.extend(t);
            ReplicaRun {
                calls,
                totals,
                stats,
                routed,
            }
        })
        .collect();
    ServeRun {
        wall_ns,
        start_ns: t0.duration_since(epoch).as_nanos() as u64,
        replicas,
        router,
        timelines,
        pool_before,
        pool_after,
    }
}

/// One request as its user saw it.
#[derive(Debug, Clone, Copy)]
pub struct Served {
    /// Request id.
    pub id: SeqId,
    /// Whether it finished.
    pub finished: bool,
    /// Latency, ms: completion minus admission (closed loop) or minus
    /// scheduled arrival (open loop).
    pub lat_ms: f64,
    /// Time to first token, ms: queue delay (open loop only) plus the
    /// wall time of the request's prefill cohort.
    pub ttft_ms: f64,
    /// Mean gap between its tokens, ms.
    pub mean_itl_ms: f64,
}

impl ServeRun {
    /// Every completion of every replica.
    pub fn completions(&self) -> impl Iterator<Item = &Completion> {
        self.replicas
            .iter()
            .flat_map(|r| r.stats.completions.iter())
    }

    /// The user's view of each request. In the closed loop a client
    /// sends its next request when a slot frees, so its clock starts
    /// at admission; in the open loop it starts at the scheduled
    /// arrival, which charges queueing to the request.
    pub fn served(&self, shape: Shape) -> Vec<Served> {
        self.completions()
            .map(|c| {
                let t = self.timelines.get(&c.id);
                let from = match shape {
                    Shape::Offline => c.admitted_at,
                    Shape::Poisson => c.arrival,
                };
                let itl = t.map_or(&[][..], |t| &t.itl_ns[..]);
                Served {
                    id: c.id,
                    finished: c.status == CompletionStatus::Finished,
                    lat_ms: (c.finished_at - from) * 1e3,
                    ttft_ms: (c.admitted_at - from) * 1e3
                        + t.map_or(0.0, |t| t.cohort_ns as f64 / 1e6),
                    mean_itl_ms: if itl.is_empty() {
                        0.0
                    } else {
                        itl.iter().sum::<u64>() as f64 / itl.len() as f64 / 1e6
                    },
                }
            })
            .collect()
    }

    /// Generated tokens of finished and unfinished requests alike.
    pub fn generated_tokens(&self) -> u64 {
        self.replicas.iter().map(|r| r.stats.generated_tokens).sum()
    }

    /// The virtual makespan: replicas run side by side, so the longest.
    pub fn makespan_s(&self) -> f64 {
        self.replicas
            .iter()
            .map(|r| r.stats.makespan)
            .fold(0.0, f64::max)
    }

    /// Digest of every request's token history, in id order.
    pub fn digest(&self) -> Digest {
        let mut d = Digest::default();
        for (id, t) in &self.timelines {
            d.push(*id);
            for &tok in &t.tokens {
                d.push(tok as u64);
            }
        }
        d
    }
}

/// Replay `samples` evenly spaced requests on a fresh `Serial`-kind
/// model and return the ids whose served token history differs (or
/// that were never served). Batched decode is bit-exact per row, so a
/// request's history may not depend on what it shared a batch with.
pub fn replay_mismatches(
    plan: &Plan,
    requests: &[PromptRequest],
    histories: &BTreeMap<SeqId, Vec<usize>>,
    samples: usize,
) -> Vec<SeqId> {
    if requests.is_empty() || samples == 0 {
        return Vec::new();
    }
    let stride = (requests.len() / samples).max(1);
    let longest = requests
        .iter()
        .map(|r| r.meta.prompt_len + r.meta.output_len)
        .max()
        .unwrap_or(1);
    let mut model =
        TinyLlm::synthetic_with_engine(plan.model, kv_pages(longest), KernelKind::Serial, pool(1));
    let mut bad = Vec::new();
    for pr in requests.iter().step_by(stride).take(samples) {
        let want = model.generate_greedy(pr.meta.id, &pr.prompt, pr.meta.output_len);
        lq_serving::ServingEngine::release(&mut model, pr.meta.id);
        if histories.get(&pr.meta.id) != Some(&want) {
            bad.push(pr.meta.id);
        }
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;

    fn histories(run: &ServeRun) -> BTreeMap<SeqId, Vec<usize>> {
        run.timelines
            .iter()
            .map(|(id, t)| (*id, t.tokens.clone()))
            .collect()
    }

    #[test]
    fn offline_fills_every_slot_and_replays_clean() {
        let plan = Plan::toy();
        let setup = ServeSetup::build(&plan, Shape::Offline, 3);
        let requests = setup.requests.clone();
        let run = run(setup, Instant::now());
        let served = run.served(Shape::Offline);
        assert_eq!(served.len(), plan.offline_requests);
        assert!(served
            .iter()
            .all(|s| s.finished && s.lat_ms > 0.0 && s.ttft_ms > 0.0));
        assert_eq!(run.replicas[0].stats.peak_batch, MAX_BATCH);
        assert_eq!(run.router.waves, 0);
        let mut h = histories(&run);
        assert!(replay_mismatches(&plan, &requests, &h, 3).is_empty());
        // A corrupted history must be caught by the replay.
        let first = requests[0].meta.id;
        h.get_mut(&first).unwrap()[1] ^= 1;
        assert_eq!(replay_mismatches(&plan, &requests, &h, 3), vec![first]);
        // And so must a request that was never served.
        h.remove(&first);
        assert_eq!(replay_mismatches(&plan, &requests, &h, 3), vec![first]);
    }

    #[test]
    fn poisson_uses_both_replicas_and_one_schedule_for_every_seed() {
        let plan = Plan::toy();
        let (a, b) = (
            ServeSetup::build(&plan, Shape::Poisson, 1),
            ServeSetup::build(&plan, Shape::Poisson, 2),
        );
        assert_eq!(a.requests.len(), b.requests.len());
        assert!(
            a.requests.len() >= 4,
            "toy trace too short to mean anything"
        );
        for (x, y) in a.requests.iter().zip(&b.requests) {
            assert_eq!(x.meta, y.meta, "the seed must not move arrivals or lengths");
        }
        assert!(a
            .requests
            .iter()
            .zip(&b.requests)
            .any(|(x, y)| x.prompt != y.prompt));
        let n = a.requests.len();
        let run = run(a, Instant::now());
        assert_eq!(run.replicas.len(), REPLICAS);
        assert!(run.replicas.iter().all(|r| r.routed > 0));
        assert_eq!(run.router.waves, 1);
        let served = run.served(Shape::Poisson);
        assert_eq!(served.len(), n);
        assert!(served.iter().all(|s| s.finished && s.lat_ms >= s.ttft_ms));
        assert_eq!(run.digest().hex(), run.digest().hex());
    }
}
