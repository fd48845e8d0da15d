//! One workload, one process: set up, run the timed region, check the
//! outputs, and turn samples into the declared metrics.
//!
//! An untraced run reports the end-to-end metrics. A traced run holds
//! the same workload twice at half length — first as in the untraced
//! run, then with `lq_trace` and `lq_telemetry` switched on inside the
//! program — and reports the per-layer metrics: those read from the
//! second half's spans and counters, the probes of [`crate::probes`],
//! and the throughput the switch cost.

use crate::gemm::{self, GemmSetup, Layer};
use crate::host;
use crate::json::Json;
use crate::probes::{self, Metrics};
use crate::serve::{self, ServeRun, ServeSetup, Shape};
use crate::spans::SpanLog;
use crate::spec::{
    Plan, Workload, DECODE_MS, END_TO_END, PAGE_TOKENS, PER_LAYER, PREFILL_M, REPLAY_SAMPLES,
    SETUP_REPEATS,
};
use crate::stats::{self, Digest};
use crate::timed::CallKind;
use lq_core::WorkerStats;
use lq_serving::CompletionStatus;
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::time::Instant;

/// What to run.
pub struct Args {
    /// Which workload.
    pub workload: Workload,
    /// Seed of weights, activations and prompts.
    pub seed: u64,
    /// Sizes.
    pub plan: Plan,
    /// The plan of each half of a traced run.
    pub half_plan: Plan,
    /// Traced (per-layer) or untraced (end-to-end) run.
    pub trace: bool,
    /// Where a traced run writes `<workload>.trace.json`; nothing is
    /// written without it.
    pub out: Option<PathBuf>,
    /// When the process started (set-up time counts from here).
    pub process_start: Instant,
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Declared name.
    pub name: &'static str,
    /// Declared unit.
    pub unit: &'static str,
    /// As measured.
    pub value: f64,
    /// Sample count and `thin` mark for percentiles, else empty.
    pub note: String,
}

/// The outcome of one run.
#[derive(Debug, Clone)]
pub struct Report {
    /// Workload name.
    pub workload: &'static str,
    /// Whether this was the traced run.
    pub trace: bool,
    /// Operations attempted (sweeps, passes or requests).
    pub attempted: usize,
    /// Operations whose output was wrong or that did not finish.
    pub failed: usize,
    /// No failure and every metric a finite number.
    pub correct: bool,
    /// Digest of the outputs (equal across runs of one seed).
    pub digest: String,
    /// The declared metrics of this kind of run, in declared order.
    pub metrics: Vec<Metric>,
}

impl Report {
    /// The one-line result the acceptance driver reads.
    pub fn contract_json(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|m| {
                            (
                                m.name.to_string(),
                                Json::obj([
                                    ("value", Json::Num(m.value)),
                                    ("unit", Json::Str(m.unit.into())),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// What the contract line has no room for.
    pub fn detail_json(&self) -> Json {
        Json::obj([
            ("workload", Json::Str(self.workload.into())),
            ("trace", Json::Bool(self.trace)),
            ("digest", Json::Str(self.digest.clone())),
            (
                "notes",
                Json::Obj(
                    self.metrics
                        .iter()
                        .filter(|m| !m.note.is_empty())
                        .map(|m| (m.name.to_string(), Json::Str(m.note.clone())))
                        .collect(),
                ),
            ),
        ])
    }
}

/// Samples and counters of one pass over a workload.
struct Measured {
    attempted: usize,
    failed: usize,
    digest: Digest,
    /// Latency of each operation that completed, ms.
    lat_ms: Vec<f64>,
    /// Time to first token (first result) of each, ms.
    ttft_ms: Vec<f64>,
    /// Every gap between tokens, ms.
    itl_ms: Vec<f64>,
    /// The upper ITL percentile the sample count was sized for.
    itl_hi: f64,
    /// Per operation sent: TTFT, mean ITL, and whether it completed
    /// with correct output.
    sent: Vec<(f64, f64, bool)>,
    /// Tokens (activation rows) produced.
    tokens: f64,
    /// Seconds `tok_per_s` divides by.
    work_s: f64,
    /// Seconds the program was busy producing them (differs from
    /// `work_s` only in the open loop, whose makespan is set by the
    /// arrival schedule).
    busy_s: f64,
    /// `VmHWM` when the timed region ended.
    rss_mb: f64,
    /// Per-layer metrics read from this run.
    layer_run: Metrics,
    spans: SpanLog,
    /// The GEMM layer, for the probes to reuse.
    layer: Option<Layer>,
    /// Duration of each set-up repetition, s.
    setup_s: Vec<f64>,
}

/// The `run`-sourced metrics of `layer`, all zero: what a workload
/// that never enters the layer reports for it (no work, no time).
fn bypassed(layer: &str) -> Metrics {
    PER_LAYER
        .iter()
        .filter(|m| m.source.starts_with("run") && m.name.split('.').next() == Some(layer))
        .map(|m| (m.name.to_string(), 0.0))
        .collect()
}

/// `core.pool_*`: what the pools' workers did between two snapshots
/// that lie `wall_ns` apart.
fn pool_metrics(before: &[WorkerStats], after: &[WorkerStats], wall_ns: u64) -> Metrics {
    let delta = |f: fn(&WorkerStats) -> u64| -> Vec<u64> {
        before.iter().zip(after).map(|(b, a)| f(a) - f(b)).collect()
    };
    let jobs: u64 = delta(|w| w.jobs).iter().sum();
    let steals: u64 = delta(|w| w.steals).iter().sum();
    let retries: u64 = delta(|w| w.retries).iter().sum();
    let busy = delta(|w| w.busy_ns);
    let (lo, hi) = (
        busy.iter().copied().min().unwrap_or(0),
        busy.iter().copied().max().unwrap_or(0),
    );
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    vec![
        ("core.pool_jobs".into(), jobs as f64),
        (
            "core.pool_steal_share".into(),
            ratio(steals as f64, jobs as f64),
        ),
        (
            "core.pool_busy_share".into(),
            ratio(
                busy.iter().sum::<u64>() as f64,
                busy.len() as f64 * wall_ns as f64,
            ),
        ),
        ("core.pool_balance".into(), ratio(hi as f64, lo as f64)),
        ("core.pool_retries".into(), retries as f64),
    ]
}

/// Repeat `build` [`SETUP_REPEATS`] (or once), timing each; keeps the
/// last product.
fn timed_setup<T>(repeats: usize, mut build: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut times = Vec::with_capacity(repeats);
    let mut last = None;
    for _ in 0..repeats.max(1) {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(build());
        times.push(t0.elapsed().as_secs_f64());
    }
    (last.expect("at least one repetition"), times)
}

fn measure_gemm(
    workload: Workload,
    plan: &Plan,
    seed: u64,
    repeats: usize,
    epoch: Instant,
) -> Measured {
    let (ms, ops): (&[usize], usize) = if workload == Workload::GemmDecode {
        (&DECODE_MS, plan.sweeps)
    } else {
        (&[PREFILL_M], plan.passes)
    };
    let (setup, setup_s) = timed_setup(repeats, || GemmSetup::build(plan, seed, ms));
    let before = setup.lg.pool().worker_stats();
    let t_run = Instant::now();
    let run = gemm::run(&setup, ops, epoch);
    let run_ns = t_run.elapsed().as_nanos() as u64;
    let after = setup.lg.pool().worker_stats();
    let rss_mb = host::rss_peak_mb().unwrap_or(f64::NAN);

    let op_total_ns: u64 = run.op_ns.iter().sum();
    let rows = run.rows_per_op as f64;
    let lat_ms: Vec<f64> = run.op_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
    // A GEMM operation hands back all its rows when it returns: the
    // first token arrives with the operation, and the gap between
    // tokens is the operation's time over its rows.
    let itl_ms: Vec<f64> = lat_ms.iter().map(|l| l / rows).collect();
    // Every operation is sent; one with a wrong pass misses its limit.
    let sent = lat_ms
        .iter()
        .zip(&itl_ms)
        .zip(&run.ok)
        .map(|((&l, &g), &ok)| (l, g, ok))
        .collect();

    let mut spans = SpanLog::default();
    let start_ns = t_run.duration_since(epoch).as_nanos() as u64;
    let root = spans.push("workload", 0, start_ns, run_ns, None);
    for p in &run.passes {
        let pass = spans.push("layer_pass", 0, p.start_ns, p.total_ns, Some(root));
        let mut at = p.start_ns;
        for i in 0..p.gemm_ns.len() {
            spans.push("quant.act_quantize", 0, at, p.quant_ns[i], Some(pass));
            at += p.quant_ns[i];
            spans.push("core.gemm", 0, at, p.gemm_ns[i], Some(pass));
            at += p.gemm_ns[i];
        }
    }

    let mut layer_run = pool_metrics(&before, &after, op_total_ns);
    for layer in ["engine", "serving", "router"] {
        layer_run.extend(bypassed(layer));
    }
    let work_s = op_total_ns as f64 / 1e9;
    Measured {
        attempted: ops,
        failed: run.ok.iter().filter(|&&ok| !ok).count(),
        digest: run.digest,
        ttft_ms: lat_ms.clone(),
        lat_ms,
        itl_ms,
        // ~10² operations support p90, not p99 (see the README).
        itl_hi: 0.9,
        sent,
        tokens: rows * ops as f64,
        work_s,
        busy_s: work_s,
        rss_mb,
        layer_run,
        spans,
        layer: Some(setup.layer),
        setup_s,
    }
}

/// Peak over time of reserved KV pages ÷ the table's pages, from the
/// admitted set: each request holds `ceil((prompt+output)/page)` pages
/// from admission to completion.
fn kv_reserved_peak_share(
    run: &ServeRun,
    lens: &BTreeMap<u64, (usize, usize)>,
    total_pages: usize,
) -> f64 {
    let mut peak = 0i64;
    for r in &run.replicas {
        // (time, release-before-admit at equal times, page delta)
        let mut events: Vec<(f64, u8, i64)> = Vec::new();
        for c in &r.stats.completions {
            let (p, o) = lens[&c.id];
            let pages = (p + o).div_ceil(PAGE_TOKENS) as i64;
            if c.status != CompletionStatus::Rejected {
                events.push((c.admitted_at, 1, pages));
                events.push((c.finished_at, 0, -pages));
            }
        }
        events.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut held = 0i64;
        for (_, _, d) in events {
            held += d;
            peak = peak.max(held);
        }
    }
    peak as f64 / total_pages.max(1) as f64
}

/// Mean over decode steps of KV tokens in use ÷ KV tokens reserved by
/// the sequences in the step.
fn kv_used_over_reserved(run: &ServeRun, lens: &BTreeMap<u64, (usize, usize)>) -> f64 {
    let (mut sum, mut steps) = (0.0f64, 0u64);
    for r in &run.replicas {
        let mut produced: BTreeMap<u64, usize> = BTreeMap::new();
        for c in &r.calls {
            match c.kind {
                CallKind::Prefill => {
                    produced.insert(c.ids[0], 1);
                }
                CallKind::Decode => {
                    let (mut used, mut reserved) = (0usize, 0usize);
                    for id in &c.ids {
                        let (p, o) = lens[id];
                        let n = produced.entry(*id).or_insert(1);
                        *n += 1;
                        used += p + *n;
                        reserved += p + o;
                    }
                    sum += used as f64 / reserved.max(1) as f64;
                    steps += 1;
                }
                CallKind::Release => {}
            }
        }
    }
    if steps == 0 {
        0.0
    } else {
        sum / steps as f64
    }
}

/// `(max − min) ÷ mean` of a per-replica quantity; 0 for one replica.
fn imbalance(xs: &[f64]) -> f64 {
    let mean = xs.iter().sum::<f64>() / xs.len().max(1) as f64;
    if xs.len() < 2 || mean == 0.0 {
        return 0.0;
    }
    let (lo, hi) = xs
        .iter()
        .fold((f64::MAX, f64::MIN), |(lo, hi), &x| (lo.min(x), hi.max(x)));
    (hi - lo) / mean
}

fn measure_serve(shape: Shape, plan: &Plan, seed: u64, repeats: usize, epoch: Instant) -> Measured {
    let (setup, setup_s) = timed_setup(repeats, || ServeSetup::build(plan, shape, seed));
    let requests = setup.requests.clone();
    let pages = setup.pages();
    let run = serve::run(setup, epoch);
    let rss_mb = host::rss_peak_mb().unwrap_or(f64::NAN);

    let histories: BTreeMap<u64, Vec<usize>> = run
        .timelines
        .iter()
        .map(|(id, t)| (*id, t.tokens.clone()))
        .collect();
    let served: BTreeMap<u64, serve::Served> =
        run.served(shape).into_iter().map(|s| (s.id, s)).collect();
    // Failed: served but not finished, never served, or (below) a
    // sampled history that differs from its replay.
    let mut bad: BTreeSet<u64> = requests
        .iter()
        .map(|r| r.meta.id)
        .filter(|id| !served.get(id).is_some_and(|s| s.finished))
        .collect();
    bad.extend(serve::replay_mismatches(
        plan,
        &requests,
        &histories,
        REPLAY_SAMPLES,
    ));

    let ok: Vec<_> = served.values().filter(|s| s.finished).collect();
    let lens: BTreeMap<u64, (usize, usize)> = requests
        .iter()
        .map(|r| (r.meta.id, (r.meta.prompt_len, r.meta.output_len)))
        .collect();

    // Span tree: the run, one serving.run per replica over its calls,
    // and the calls.
    let mut spans = SpanLog::default();
    let root = spans.push("workload", 0, run.start_ns, run.wall_ns, None);
    let parent = match shape {
        Shape::Offline => root,
        Shape::Poisson => spans.push("router.run", 0, run.start_ns, run.wall_ns, Some(root)),
    };
    for (lane, r) in run.replicas.iter().enumerate() {
        let Some(first) = r.calls.first() else {
            continue;
        };
        let lane = lane as u32 + 1;
        let rt = spans.push(
            "serving.run",
            lane,
            first.start_ns,
            r.totals.span_ns,
            Some(parent),
        );
        for c in &r.calls {
            let name = match c.kind {
                CallKind::Prefill => "engine.prefill",
                CallKind::Decode => "engine.decode_batch",
                CallKind::Release => "engine.release",
            };
            spans.push(name, lane, c.start_ns, c.dur_ns, Some(rt));
        }
    }

    let sum = |f: &dyn Fn(&serve::ReplicaRun) -> f64| run.replicas.iter().map(f).sum::<f64>();
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let decode_ms = stats::sorted(
        run.replicas
            .iter()
            .flat_map(|r| r.totals.decode_ns.iter().map(|&ns| ns as f64 / 1e6))
            .collect(),
    );
    let wait_ms = stats::sorted(
        run.completions()
            .map(|c| (c.admitted_at - c.arrival) * 1e3)
            .collect(),
    );
    let pick = |s: &[f64], p: f64| {
        if s.is_empty() {
            0.0
        } else {
            stats::nearest_rank(s, p)
        }
    };
    let count = |st: CompletionStatus| run.completions().filter(|c| c.status == st).count() as f64;
    let busy_ns = sum(&|r| r.totals.busy_ns as f64);
    let mut layer_run = pool_metrics(&run.pool_before, &run.pool_after, run.wall_ns);
    layer_run.extend([
        (
            "engine.prefill_ms_per_tok".to_string(),
            ratio(
                sum(&|r| r.totals.prefill_ns as f64) / 1e6,
                sum(&|r| r.totals.prompt_tokens as f64),
            ),
        ),
        ("engine.decode_step_ms_p50".into(), pick(&decode_ms, 0.5)),
        ("engine.decode_step_ms_p99".into(), pick(&decode_ms, 0.99)),
        (
            "engine.release_us".into(),
            ratio(
                sum(&|r| r.totals.release_ns as f64) / 1e3,
                sum(&|r| r.totals.calls[2] as f64),
            ),
        ),
        (
            "engine.prefill_calls".into(),
            sum(&|r| r.totals.calls[0] as f64),
        ),
        (
            "engine.decode_calls".into(),
            sum(&|r| r.totals.calls[1] as f64),
        ),
        // Utilisation: engine time over the virtual makespan, which
        // (unlike the wall span) holds the idle gaps between arrivals.
        (
            "engine.busy_share".into(),
            ratio(busy_ns / 1e9, sum(&|r| r.stats.makespan)),
        ),
        ("serving.queue_wait_ms_p50".into(), pick(&wait_ms, 0.5)),
        ("serving.queue_wait_ms_p90".into(), pick(&wait_ms, 0.9)),
        (
            "serving.batch_mean".into(),
            ratio(
                sum(&|r| r.totals.decode_slots as f64),
                sum(&|r| r.totals.calls[1] as f64),
            ),
        ),
        (
            "serving.peak_batch".into(),
            run.replicas
                .iter()
                .map(|r| r.stats.peak_batch)
                .max()
                .unwrap_or(0) as f64,
        ),
        (
            "serving.decode_steps".into(),
            sum(&|r| r.stats.decode_steps as f64),
        ),
        // Self time of serving.run: the loop's own wall time between
        // engine calls (the span has no idle in it: idle gaps are
        // jumped on the virtual clock, not waited out).
        (
            "serving.sched_overhead_share".into(),
            spans.self_share("serving.run"),
        ),
        ("serving.finished".into(), count(CompletionStatus::Finished)),
        ("serving.rejected".into(), count(CompletionStatus::Rejected)),
        (
            "serving.timed_out".into(),
            count(CompletionStatus::TimedOut),
        ),
        ("serving.failed".into(), count(CompletionStatus::Failed)),
        (
            "serving.preemptions".into(),
            sum(&|r| r.stats.preemptions as f64),
        ),
        (
            "serving.kv_reserved_peak_share".into(),
            kv_reserved_peak_share(&run, &lens, pages),
        ),
        (
            "serving.kv_used_over_reserved".into(),
            kv_used_over_reserved(&run, &lens),
        ),
    ]);
    match shape {
        Shape::Offline => layer_run.extend(bypassed("router")),
        Shape::Poisson => {
            let routed: Vec<f64> = run.replicas.iter().map(|r| r.routed as f64).collect();
            let busy: Vec<f64> = run
                .replicas
                .iter()
                .map(|r| r.totals.busy_ns as f64)
                .collect();
            layer_run.extend([
                ("router.routed_imbalance".to_string(), imbalance(&routed)),
                ("router.replica_busy_skew".into(), imbalance(&busy)),
                ("router.waves".into(), f64::from(run.router.waves)),
                ("router.failovers".into(), run.router.failovers as f64),
                ("router.rerouted".into(), run.router.rerouted as f64),
                ("router.unserved".into(), run.router.unserved as f64),
            ]);
        }
    }

    for (i, r) in run.replicas.iter().enumerate() {
        eprintln!(
            "# replica {i}: {} requests, engine busy {:.3} s of {:.3} s virtual ({:.3})",
            r.routed,
            r.totals.busy_ns as f64 / 1e9,
            r.stats.makespan,
            ratio(r.totals.busy_ns as f64 / 1e9, r.stats.makespan)
        );
    }
    let tokens = run.generated_tokens() as f64;
    Measured {
        attempted: requests.len(),
        failed: bad.len(),
        digest: run.digest(),
        lat_ms: ok.iter().map(|s| s.lat_ms).collect(),
        ttft_ms: ok.iter().map(|s| s.ttft_ms).collect(),
        itl_ms: run
            .timelines
            .values()
            .flat_map(|t| t.itl_ns.iter().map(|&ns| ns as f64 / 1e6))
            .collect(),
        itl_hi: 0.99,
        sent: requests
            .iter()
            .map(|r| match served.get(&r.meta.id) {
                Some(s) => (s.ttft_ms, s.mean_itl_ms, !bad.contains(&s.id)),
                None => (f64::INFINITY, f64::INFINITY, false),
            })
            .collect(),
        tokens,
        work_s: match shape {
            Shape::Offline => run.wall_ns as f64 / 1e9,
            Shape::Poisson => run.makespan_s(),
        },
        busy_s: busy_ns / 1e9,
        rss_mb,
        layer_run,
        spans,
        layer: None,
        setup_s,
    }
}

fn measure(workload: Workload, plan: &Plan, seed: u64, repeats: usize, epoch: Instant) -> Measured {
    match workload {
        Workload::GemmDecode | Workload::GemmPrefill => {
            measure_gemm(workload, plan, seed, repeats, epoch)
        }
        Workload::ServeOffline => measure_serve(Shape::Offline, plan, seed, repeats, epoch),
        Workload::ServePoisson => measure_serve(Shape::Poisson, plan, seed, repeats, epoch),
    }
}

/// The end-to-end metrics of one measured pass.
fn end_to_end(workload: Workload, m: &Measured, startup_s: f64) -> Vec<Metric> {
    let lat = stats::sorted(m.lat_ms.clone());
    let ttft = stats::sorted(m.ttft_ms.clone());
    let itl = stats::sorted(m.itl_ms.clone());
    let slo = workload.slo();
    let within = m
        .sent
        .iter()
        .filter(|&&(t, g, ok)| ok && t <= slo.ttft_limit_ms && g <= slo.itl_limit_ms)
        .count();
    let worst = |f: fn(&(f64, f64, bool)) -> f64| m.sent.iter().map(f).fold(0.0, f64::max);
    eprintln!(
        "# slo: {within} of {} sent within ttft {} ms and mean itl {} ms (worst {:.1} ms, {:.2} ms)",
        m.sent.len(),
        slo.ttft_limit_ms,
        slo.itl_limit_ms,
        worst(|s| s.0),
        worst(|s| s.1)
    );
    let pct = |s: &[f64], p: f64| match stats::report(s, p) {
        Some(r) => (
            r.value,
            format!("n={}{}", r.n, if r.thin { " thin" } else { "" }),
        ),
        // Nothing completed: no latency exists, and the run is marked
        // incorrect by the NaN.
        None => (f64::NAN, "n=0".to_string()),
    };
    let plain = |v: f64| (v, String::new());
    END_TO_END
        .iter()
        .map(|&(name, unit)| {
            let (value, note) = match name {
                "lat_p50_ms" => pct(&lat, 0.5),
                "lat_p90_ms" => pct(&lat, 0.9),
                "tok_per_s" => plain(m.tokens / m.work_s),
                "ttft_p50_ms" => pct(&ttft, 0.5),
                "ttft_p90_ms" => pct(&ttft, 0.9),
                "itl_p50_ms" => pct(&itl, 0.5),
                "itl_p99_ms" => pct(&itl, m.itl_hi),
                "slo_ok_share" => plain(within as f64 / m.sent.len().max(1) as f64),
                "rss_peak_mb" => plain(m.rss_mb),
                "setup_s" => (
                    startup_s + stats::median(&m.setup_s),
                    format!("median of {}", m.setup_s.len()),
                ),
                other => unreachable!("undeclared end-to-end metric {other}"),
            };
            Metric {
                name,
                unit,
                value,
                note,
            }
        })
        .collect()
}

/// Order `found` as declared in [`PER_LAYER`]; a declared metric that
/// was not produced is a bug in the benchmark, not a zero.
fn per_layer(found: Metrics) -> Vec<Metric> {
    let map: BTreeMap<String, f64> = found.into_iter().collect();
    assert_eq!(
        map.len(),
        PER_LAYER.len(),
        "a per-layer metric was produced twice or not declared"
    );
    PER_LAYER
        .iter()
        .map(|d| Metric {
            name: d.name,
            unit: d.unit,
            value: *map
                .get(d.name)
                .unwrap_or_else(|| panic!("per-layer metric {} was not produced", d.name)),
            note: String::new(),
        })
        .collect()
}

/// Run one workload and report.
pub fn run(args: &Args) -> Report {
    let epoch = args.process_start;
    let name = args.workload.name();
    let startup_s = epoch.elapsed().as_secs_f64();
    let (attempted, failed, digest, metrics) = if args.trace {
        let plain = measure(args.workload, &args.half_plan, args.seed, 1, epoch);
        lq_trace::enable();
        lq_telemetry::enable();
        let traced = measure(args.workload, &args.half_plan, args.seed, 1, epoch);
        let events = lq_trace::take_events().len();
        let dropped = lq_trace::dropped_total();
        lq_trace::disable();
        lq_telemetry::disable();
        if let Some(dir) = &args.out {
            let path = dir.join(format!("{name}.trace.json"));
            if let Err(e) = std::fs::write(&path, traced.spans.to_chrome().dump()) {
                eprintln!("ledger: cannot write {}: {e}", path.display());
            }
        }
        let mut found = traced.layer_run;
        found.extend(probes::all(&args.plan, args.seed, traced.layer.as_ref()));
        found.extend([
            (
                // Share of busy-time throughput lost to the switch.
                "obs.overhead_share".to_string(),
                1.0 - (traced.tokens / traced.busy_s) / (plain.tokens / plain.busy_s),
            ),
            ("obs.trace_events".into(), events as f64),
            ("obs.trace_dropped".into(), dropped as f64),
        ]);
        let mut digest = plain.digest;
        digest.push(traced.digest.value());
        (
            plain.attempted + traced.attempted,
            plain.failed + traced.failed,
            digest,
            per_layer(found),
        )
    } else {
        let m = measure(args.workload, &args.plan, args.seed, SETUP_REPEATS, epoch);
        let metrics = end_to_end(args.workload, &m, startup_s);
        (m.attempted, m.failed, m.digest, metrics)
    };
    let finite = metrics.iter().all(|m| m.value.is_finite());
    Report {
        workload: name,
        trace: args.trace,
        attempted,
        failed,
        correct: failed == 0 && finite,
        digest: digest.hex(),
        metrics,
    }
}
