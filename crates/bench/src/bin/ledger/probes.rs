//! Per-layer probes: representative calls replayed directly against
//! each layer, the same on every workload, so a layer's cost can be
//! read without the layers above it. Every number is a median of
//! `Plan::probe_reps` timed repetitions after one unrecorded warm-up.

use crate::gemm::{layer_pass, pool, Layer, Path};
use crate::host;
use crate::serve::{self, ServeSetup, Shape};
use crate::spec::{Plan, MATRICES, MAX_BATCH, PAGE_TOKENS, PREFILL_M, WORKERS};
use crate::stats;
use lq_core::microkernel::APanels;
use lq_core::{BackendId, KernelKind, LiquidGemm, ShardedGemm, ShardedWeights};
use lq_engine::attention::decode_attention;
use lq_engine::{KvQuantizer, PagedKvStore, TinyLlm};
use lq_quant::{Mat, QuantizedActivations};
use lq_rng::Rng;
use lq_serving::{PagedKvCache, ServingEngine};
use std::hint::black_box;
use std::time::Instant;

/// Named results, in no particular order.
pub type Metrics = Vec<(String, f64)>;

/// Median wall time of `f` in ns over `reps` runs after one warm-up.
fn median_ns(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_nanos() as f64
        })
        .collect();
    stats::median(&samples)
}

/// Context length of the attention and KV-append probes.
const ATTN_CTX: usize = 128;

/// `core.*` (but the pool counters, which come from the run) and
/// `quant.*`: the layer's passes through each path and batch size.
pub fn core_and_quant(plan: &Plan, layer: &Layer, seed: u64, mk_peak_gops: f64) -> Metrics {
    let mut out = Metrics::new();
    let lg = pool(WORKERS);
    let epoch = Instant::now();
    let reps = plan.probe_reps.max(1);
    let ops_per_row: f64 = 2.0 * layer.weight_count() as f64;
    let mut layer_ms = std::collections::BTreeMap::new();
    for m in [1usize, 4, 8, 16, PREFILL_M] {
        let acts = layer.activations(seed, m);
        let paths: &[(&str, Path)] = if matches!(m, 4 | 16) {
            &[("layer", Path::Pool(KernelKind::ImFp))]
        } else {
            &[
                ("layer", Path::Pool(KernelKind::ImFp)),
                ("serial_layer", Path::Serial),
                ("flat_layer", Path::Pool(KernelKind::FlatParallel)),
            ]
        };
        for &(label, path) in paths {
            let _ = layer_pass(&lg, layer, &acts, path, epoch);
            let times: Vec<_> = (0..reps)
                .map(|_| layer_pass(&lg, layer, &acts, path, epoch).1)
                .collect();
            let med = |f: &dyn Fn(&crate::gemm::PassTime) -> u64| {
                stats::median(&times.iter().map(|t| f(t) as f64).collect::<Vec<_>>())
            };
            let total_ms = med(&|t| t.total_ns) / 1e6;
            out.push((format!("core.{label}_ms_m{m}"), total_ms));
            layer_ms.insert((label, m), total_ms);
            if label == "layer" && matches!(m, 1 | PREFILL_M) {
                for (i, name) in MATRICES.iter().enumerate() {
                    out.push((format!("core.{name}_ms_m{m}"), med(&|t| t.gemm_ns[i]) / 1e6));
                }
                // The hidden-width activation (qkv's input).
                out.push((
                    format!("quant.act_quantize_us_m{m}"),
                    med(&|t| t.quant_ns[0]) / 1e3,
                ));
                let qa = QuantizedActivations::quantize(&acts[0], None);
                let pack = median_ns(reps * 3, || {
                    black_box(APanels::pack(black_box(&qa.q)));
                });
                out.push((format!("core.apanel_pack_us_m{m}"), pack / 1e3));
            }
        }
        if matches!(m, 1 | 8 | PREFILL_M) {
            let (imfp, serial) = (layer_ms[&("layer", m)], layer_ms[&("serial_layer", m)]);
            out.push((
                format!("core.parallel_eff_m{m}"),
                serial / (WORKERS as f64 * imfp),
            ));
            out.push((
                format!("core.gops_m{m}"),
                ops_per_row * m as f64 / (imfp * 1e-3) / 1e9,
            ));
            if m != PREFILL_M {
                out.push((
                    format!("core.pool_overhead_us_m{m}"),
                    (imfp - serial) * 1e3 / MATRICES.len() as f64,
                ));
            }
        }
    }
    let gops_prefill =
        ops_per_row * PREFILL_M as f64 / (layer_ms[&("layer", PREFILL_M)] * 1e-3) / 1e9;
    out.push((
        "core.pct_mk_peak_m128".into(),
        100.0 * gops_prefill / (WORKERS as f64 * mk_peak_gops),
    ));
    // Bytes of packed weights one M=1 pass must read, over its time:
    // computed from sizes, not counted by hardware.
    out.push((
        "core.weight_gbps_m1".into(),
        layer.weight_bytes() as f64 / (layer_ms[&("layer", 1)] * 1e-3) / 1e9,
    ));

    // The O projection at M=8: two 1-worker shards against one
    // 2-worker shard, column- and row-parallel.
    let acts = layer.activations(seed, 8);
    let qa = QuantizedActivations::quantize(&acts[1], None);
    let sharded = |shards: usize| {
        let sg = ShardedGemm::builder()
            .shards(shards)
            .workers_per_shard(WORKERS / shards)
            .backend(BackendId::Lqq)
            .build()
            .expect("the benchmark's shard configuration is valid");
        let sw = ShardedWeights::from_weights(&layer.weights[1], shards);
        let col = median_ns(reps * 3, || {
            black_box(
                sg.gemm(&qa.q, &qa.scales, &sw, KernelKind::ImFp)
                    .expect("no shard fails with faults off"),
            );
        });
        let row = median_ns(reps * 3, || {
            black_box(
                sg.gemm_row(&qa.q, &qa.scales, &sw)
                    .expect("no shard fails with faults off"),
            );
        });
        (col, row)
    };
    let ((col1, row1), (col2, row2)) = (sharded(1), sharded(WORKERS));
    out.push(("core.shard2_col_speedup_m8".into(), col1 / col2));
    out.push(("core.shard2_row_speedup_m8".into(), row1 / row2));

    out.push(("quant.weight_pack_s".into(), layer.pack_s));
    out.push((
        "quant.pack_mweights_per_s".into(),
        layer.weight_count() as f64 / layer.pack_s / 1e6,
    ));
    out.push(("quant.weight_mb".into(), layer.weight_bytes() as f64 / 1e6));
    out
}

/// One decode step's GEMMs replayed directly: per layer qkv, o,
/// gate_up, down, then the LM head, each with its activation quantize.
fn replay_step_gemms(model: &TinyLlm, lg: &LiquidGemm, acts: &[Mat<f32>]) {
    let mut act = acts.iter();
    let mut call = |w| {
        let x = act.next().expect("one activation per GEMM");
        let qa = QuantizedActivations::quantize(x, None);
        black_box(lg.gemm(&qa.q, &qa.scales, w, KernelKind::ImFp));
    };
    for layer in &model.layers {
        let w = &layer.weights;
        call(&w.qkv);
        call(&w.o);
        call(&w.ffn.gate_up);
        call(&w.ffn.down);
    }
    call(&model.lm_head);
}

/// The engine probes: decode steps at batch 1 and 8, the step's GEMMs
/// alone, attention and KV append.
pub fn engine(plan: &Plan, seed: u64) -> Metrics {
    let mut out = Metrics::new();
    let spec = plan.model;
    let lg = pool(WORKERS);
    let pages = MAX_BATCH * (ATTN_CTX / PAGE_TOKENS + 2);
    let mut model =
        TinyLlm::synthetic_with_engine(spec, pages, KernelKind::ImFp, std::sync::Arc::clone(&lg));
    let mut rng = Rng::new(seed ^ 0x5eed_0004);
    let reps = plan.probe_reps.max(1);
    let steps = reps + 5;
    let mut step_ms = |batch: usize| {
        let mut slots: Vec<(u64, usize)> = (0..batch as u64)
            .map(|id| {
                let prompt: Vec<usize> = (0..plan.offline_lens.0)
                    .map(|_| rng.below(spec.vocab as u64) as usize)
                    .collect();
                (id, ServingEngine::prefill(&mut model, id, &prompt))
            })
            .collect();
        let ns = median_ns(steps, || {
            let next = ServingEngine::decode_batch(&mut model, &slots);
            for (slot, tok) in slots.iter_mut().zip(next) {
                slot.1 = tok;
            }
        });
        for &(id, _) in &slots {
            ServingEngine::release(&mut model, id);
        }
        ns / 1e6
    };
    let (b1, b8) = (step_ms(1), step_ms(MAX_BATCH));
    out.push(("engine.decode_step_ms_b1".into(), b1));
    out.push(("engine.decode_step_ms_b8".into(), b8));

    let a = spec.attn;
    let widths = [spec.hidden, a.q_dim(), spec.hidden, spec.inter];
    let acts: Vec<Mat<f32>> = (0..spec.layers)
        .flat_map(|_| widths)
        .chain([spec.hidden])
        .map(|k| Mat::from_vec(MAX_BATCH, k, rng.vec_f32(MAX_BATCH * k, -1.0, 1.0)))
        .collect();
    let replay = median_ns(steps, || replay_step_gemms(&model, &lg, &acts)) / 1e6;
    out.push(("engine.gemm_replay_ms_b8".into(), replay));
    // By subtraction: whatever of a batch-8 step is not its GEMM calls.
    out.push(("engine.nongemm_share_b8".into(), 1.0 - replay / b8));

    let mut store = PagedKvStore::new(
        ATTN_CTX / PAGE_TOKENS + 1,
        PAGE_TOKENS,
        KvQuantizer::uniform(a.kv_dim(), 4.0),
    );
    store.add_sequence(0).expect("an empty store has room");
    let k = rng.vec_f32(a.kv_dim(), -1.0, 1.0);
    let v = rng.vec_f32(a.kv_dim(), -1.0, 1.0);
    let t0 = Instant::now();
    for _ in 0..ATTN_CTX {
        store.append(0, &k, &v).expect("sized for the context");
    }
    out.push((
        "engine.kv_append_us".into(),
        t0.elapsed().as_nanos() as f64 / ATTN_CTX as f64 / 1e3,
    ));
    let q = rng.vec_f32(a.q_dim(), -1.0, 1.0);
    let attn = median_ns(reps * 3, || {
        black_box(decode_attention(a, black_box(&q), &store, 0));
    });
    out.push(("engine.attn_us_ctx128".into(), attn / 1e3));
    out
}

/// `serving.kv_op_ns` and `router.assign_us_per_req`.
pub fn serving_and_router(plan: &Plan, seed: u64) -> Metrics {
    let mut out = Metrics::new();
    let reps = plan.probe_reps.max(1);
    let (prompt, output) = plan.offline_lens;
    let mut kv = PagedKvCache::new(
        (MAX_BATCH * (prompt + output + PAGE_TOKENS)) as u64,
        PAGE_TOKENS,
        1,
    );
    let cycles = 200;
    let ns = median_ns(reps, || {
        for c in 0..cycles {
            let id = (c % MAX_BATCH) as u64;
            kv.add_sequence(id, prompt).expect("sized for a full batch");
            for _ in 0..output {
                kv.append_token(id).expect("sized for a full batch");
            }
            kv.free_sequence(id).expect("just added");
        }
    });
    out.push((
        "serving.kv_op_ns".into(),
        ns / (cycles * (output + 2)) as f64,
    ));

    let setup_requests = serve::requests(plan, Shape::Poisson, seed);
    let router = ServeSetup::router(1);
    let ns = median_ns(reps, || {
        black_box(router.route_preview(black_box(&setup_requests)));
    });
    out.push((
        "router.assign_us_per_req".into(),
        ns / setup_requests.len().max(1) as f64 / 1e3,
    ));
    out
}

/// `host.*`; returns the microkernel peak as well, for
/// `core.pct_mk_peak_m128`.
pub fn host(plan: &Plan) -> (Metrics, f64) {
    let llc = host::llc_bytes();
    let bytes = (plan.stream_llc_multiple * llc).max(1 << 20);
    let peak = host::mk_peak_gops();
    let out = vec![
        ("host.nproc".into(), host::nproc() as f64),
        ("host.stream_gbps".into(), host::stream_gbps(bytes)),
        ("host.mk_peak_gops".into(), peak),
    ];
    eprintln!(
        "# host.stream_gbps read {} MiB against a reported LLC of {} MiB",
        bytes >> 20,
        llc >> 20
    );
    (out, peak)
}

/// Every probe metric. `layer` is reused when the workload built one.
pub fn all(plan: &Plan, seed: u64, layer: Option<&Layer>) -> Metrics {
    let built;
    let layer = match layer {
        Some(l) => l,
        None => {
            built = Layer::build(plan, seed);
            &built
        }
    };
    let (mut out, peak) = host(plan);
    out.extend(core_and_quant(plan, layer, seed, peak));
    out.extend(engine(plan, seed));
    out.extend(serving_and_router(plan, seed));
    out
}
