//! Trace correctness: the invariants the lq-trace event streams must
//! uphold so the Perfetto export and the analyzer can be trusted.
//!
//! * every pool `job_start` has a matching `job_finish` (same job ID);
//! * every serving request's events are totally ordered by the virtual
//!   clock and bracketed by exactly one ingest and one completion;
//! * ring overflow drops the *oldest* events, never blocks, and counts
//!   drops in `lq_trace_dropped_total`.
//!
//! The recording tests share the process-global tracer, so they
//! serialize on one mutex and drain the buffers at entry — parallel
//! test threads must not interleave their event streams.

use liquidgemm::prelude::*;
use liquidgemm::quant::act::QuantizedActivations;
use liquidgemm::quant::mat::Mat;
use liquidgemm::trace as tr;
use lq_rng::Rng;
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// Serialize tests that record into (and drain) the global tracer.
fn trace_lock() -> MutexGuard<'static, ()> {
    static M: OnceLock<Mutex<()>> = OnceLock::new();
    M.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

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
fn pool_trace_every_start_has_a_matching_finish() {
    let _g = trace_lock();
    tr::enable();
    let _ = tr::take_events(); // drop another test's leftovers

    let lg = LiquidGemm::builder().workers(3).build().unwrap();
    let (x, s, w) = fixture(5, 64, 128);
    let want = lg.gemm(&x, &s, &w, KernelKind::Serial).y;
    for kind in [KernelKind::FlatParallel, KernelKind::ExCp, KernelKind::ImFp] {
        let got = lg.gemm(&x, &s, &w, kind).y;
        assert_eq!(got.as_slice(), want.as_slice(), "{kind:?} result changed");
    }
    // `job_finish` is recorded by the worker *after* the reply that
    // unblocks the caller; joining the pool flushes every in-flight
    // record before the drain.
    drop(lg);

    let evs = tr::take_events();
    let mut started: HashMap<u64, u64> = HashMap::new();
    let mut finished: HashSet<u64> = HashSet::new();
    let mut submitted: HashSet<u64> = HashSet::new();
    for ev in &evs {
        match ev.kind {
            tr::EventKind::JobSubmit => {
                submitted.insert(ev.a);
            }
            tr::EventKind::JobStart => {
                *started.entry(ev.a).or_insert(0) += 1;
            }
            tr::EventKind::JobFinish => {
                assert!(ev.dur_ns > 0, "finish span without duration");
                finished.insert(ev.a);
            }
            _ => {}
        }
    }
    assert!(!started.is_empty(), "no jobs traced");
    for (id, n) in &started {
        assert_eq!(*n, 1, "job {id} started {n} times without a fault");
        assert!(finished.contains(id), "job {id} started but never finished");
        assert!(
            submitted.contains(id),
            "job {id} started but never submitted"
        );
    }
    // ExCP forwards one MMA job per Dequant job, so more jobs finish
    // than were placed externally — and each still matched above.
    assert_eq!(started.len(), finished.len());

    // Stage spans exist for all three roles (flat/imfp → compute,
    // excp → dequant + mma).
    for kind in [
        tr::EventKind::StageCompute,
        tr::EventKind::StageDequant,
        tr::EventKind::StageMma,
    ] {
        assert!(
            evs.iter().any(|e| e.kind == kind),
            "no {} span traced",
            kind.name()
        );
    }
}

#[test]
fn serving_trace_is_virtually_ordered_per_request() {
    let _g = trace_lock();
    tr::enable();
    let _ = tr::take_events();

    let spec = ModelSpec::tiny();
    let pool = Arc::new(LiquidGemm::builder().workers(2).build().unwrap());
    let mut model = TinyLlm::synthetic_with_engine(spec, 1024, KernelKind::ImFp, pool);
    let mut rng = Rng::new(0x7ACE);
    let requests: Vec<PromptRequest> = (0..8u64)
        .map(|id| {
            let prompt_len = 4 + (rng.next_u64() % 8) as usize;
            let prompt = (0..prompt_len)
                .map(|_| (rng.next_u64() as usize) % spec.vocab)
                .collect();
            PromptRequest::new(Request::new(id, prompt_len, 4, id as f64 * 0.0005), prompt)
        })
        .collect();
    let cfg = SchedulerConfig::builder().max_batch(4).build().unwrap();
    let stats = ServingRuntime::new(cfg, 1024).run(&mut model, requests);
    assert_eq!(stats.completions.len(), 8);
    drop(model);

    let evs = tr::take_events();
    let mut per_req: HashMap<u64, Vec<&tr::Event>> = HashMap::new();
    for ev in &evs {
        if let tr::Track::Request(id) = ev.track {
            per_req.entry(id).or_default().push(ev);
        }
    }
    assert_eq!(per_req.len(), 8, "every request must leave a track");
    for (id, evs) in &per_req {
        // Exactly one ingest, one admission, one completion.
        let count = |k: tr::EventKind| evs.iter().filter(|e| e.kind == k).count();
        assert_eq!(count(tr::EventKind::ReqIngest), 1, "request {id}");
        assert_eq!(count(tr::EventKind::ReqAdmit), 1, "request {id}");
        assert_eq!(count(tr::EventKind::ReqComplete), 1, "request {id}");
        assert_eq!(count(tr::EventKind::KvReserve), 1, "request {id}");
        assert_eq!(count(tr::EventKind::KvRelease), 1, "request {id}");
        // Total order on the virtual clock, in recorded (wall) order.
        for pair in evs.windows(2) {
            assert!(
                pair[0].vts_ns <= pair[1].vts_ns,
                "request {id}: {} (vts {}) recorded before {} (vts {})",
                pair[0].kind.name(),
                pair[0].vts_ns,
                pair[1].kind.name(),
                pair[1].vts_ns
            );
        }
        let first = evs.first().expect("nonempty");
        let last = evs.last().expect("nonempty");
        assert_eq!(first.kind, tr::EventKind::ReqIngest, "request {id}");
        assert_eq!(last.kind, tr::EventKind::ReqComplete, "request {id}");
    }

    // The analyzer reconstructs all 8 paths, each decomposition summing
    // exactly to its total.
    let paths = tr::analyze::request_paths(&evs);
    assert_eq!(paths.len(), 8);
    for p in &paths {
        assert_eq!(
            p.queue_ns + p.prefill_ns + p.decode_ns + p.other_ns,
            p.total_ns,
            "request {} decomposition does not sum",
            p.id
        );
        assert_eq!(p.status, 0, "all requests finished");
    }

    // Correlation: some pool job must carry a request or batch-step ID.
    assert!(
        evs.iter()
            .any(|e| e.kind == tr::EventKind::JobStart && e.corr != 0),
        "no pool job inherited a serving correlation ID"
    );
}

#[test]
fn sharded_collective_spans_pair_per_call() {
    let _g = trace_lock();
    tr::enable();
    let _ = tr::take_events();

    const SHARDS: usize = 3;
    let tp = ShardedGemm::builder()
        .shards(SHARDS)
        .workers_per_shard(1)
        .build()
        .unwrap();
    let (x, s, _) = fixture(4, 31, 128);
    let wf = Mat::from_fn(31, 128, |r, c| ((r * 128 + c) as f32 * 0.04).cos());
    let sw = tp.pack_weights(&wf, 64);
    for _ in 0..2 {
        tp.gemm(&x, &s, &sw, KernelKind::ImFp).unwrap();
        tp.gemm_row(&x, &s, &sw).unwrap();
    }
    drop(tp);

    let evs = tr::take_events();
    for kind in [tr::EventKind::AllGather, tr::EventKind::AllReduce] {
        let mut spans: Vec<&tr::Event> = evs.iter().filter(|e| e.kind == kind).collect();
        assert_eq!(
            spans.len(),
            2 * SHARDS,
            "{}: one span per shard per call",
            kind.name()
        );
        // Chunked in start order, every call's group carries the full
        // shard set exactly once and the correct shard count.
        spans.sort_by_key(|e| e.ts_ns);
        for (call, chunk) in spans.chunks(SHARDS).enumerate() {
            let mut shards: Vec<u64> = chunk.iter().map(|e| e.a).collect();
            shards.sort_unstable();
            assert_eq!(
                shards,
                (0..SHARDS as u64).collect::<Vec<_>>(),
                "{} call {call}: shard set",
                kind.name()
            );
            assert!(
                chunk.iter().all(|e| e.b == SHARDS as u64),
                "{} call {call}: shard count on every span",
                kind.name()
            );
        }
    }

    // The analyzer groups them into 2 + 2 collectives with sane skew.
    let colls = tr::analyze::shard_collectives(&evs);
    assert_eq!(colls.len(), 4);
    for c in &colls {
        assert_eq!(c.shards, SHARDS as u64);
        assert_eq!(c.skew_ns, c.slowest_ns - c.fastest_ns);
        assert!(c.slowest_ns >= c.fastest_ns);
    }
}

#[test]
fn critical_paths_still_sum_exactly_when_gemms_span_pools() {
    let _g = trace_lock();
    tr::enable();
    let _ = tr::take_events();

    // A serving run whose every GEMM is tensor-parallel across 2 pools.
    let mut engine = TensorParallelEngine::new(2, 1, BackendId::Lqq).unwrap();
    let vocab = engine.vocab();
    let mut rng = Rng::new(0x7ACE_5A4D);
    let requests: Vec<PromptRequest> = (0..6u64)
        .map(|id| {
            let prompt_len = 3 + (rng.next_u64() % 5) as usize;
            let prompt = (0..prompt_len)
                .map(|_| (rng.next_u64() as usize) % vocab)
                .collect();
            PromptRequest::new(Request::new(id, prompt_len, 4, id as f64 * 0.0004), prompt)
        })
        .collect();
    let cfg = SchedulerConfig::builder().max_batch(3).build().unwrap();
    let stats = ServingRuntime::new(cfg, 1024).run(&mut engine, requests);
    assert_eq!(stats.completions.len(), 6);
    drop(engine);

    let evs = tr::take_events();
    // Intra-GEMM collectives happened inside the serving run and
    // inherited its correlation IDs.
    let gathers: Vec<&tr::Event> = evs
        .iter()
        .filter(|e| e.kind == tr::EventKind::AllGather)
        .collect();
    let reduces: Vec<&tr::Event> = evs
        .iter()
        .filter(|e| e.kind == tr::EventKind::AllReduce)
        .collect();
    assert!(!gathers.is_empty() && !reduces.is_empty());
    assert!(
        gathers.iter().chain(&reduces).any(|e| e.corr != 0),
        "collective spans must inherit the serving correlation"
    );

    // The per-request decomposition invariant survives intra-GEMM
    // sharding: segments still sum exactly to the measured latency.
    let paths = tr::analyze::request_paths(&evs);
    assert_eq!(paths.len(), 6);
    for p in &paths {
        assert_eq!(
            p.queue_ns + p.prefill_ns + p.decode_ns + p.other_ns,
            p.total_ns,
            "request {} decomposition does not sum under sharding",
            p.id
        );
    }
}

#[test]
fn ring_overflow_drops_oldest_and_counts_in_telemetry() {
    liquidgemm::telemetry::enable();
    tr::enable();
    let before = liquidgemm::telemetry::registry()
        .counter("lq_trace_dropped_total")
        .get();
    let t = tr::Tracer::new(8);
    for i in 0..20u64 {
        t.push(
            3,
            tr::Event {
                ts_ns: i,
                dur_ns: 0,
                vts_ns: 0,
                kind: tr::EventKind::JobStart,
                track: tr::Track::Worker(0),
                corr: 0,
                a: i,
                b: 0,
            },
        );
    }
    assert_eq!(t.dropped(), 12, "oldest 12 of 20 dropped at capacity 8");
    let kept: Vec<u64> = t.drain().iter().map(|e| e.ts_ns).collect();
    assert_eq!(
        kept,
        (12..20).collect::<Vec<u64>>(),
        "newest survive in order"
    );
    let after = liquidgemm::telemetry::registry()
        .counter("lq_trace_dropped_total")
        .get();
    assert!(
        after >= before + 12,
        "lq_trace_dropped_total must count ring drops ({before} -> {after})"
    );
}
