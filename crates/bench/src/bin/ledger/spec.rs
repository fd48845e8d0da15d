//! What the benchmark declares: workload and metric names, the sizes a
//! run works through, and the constants fixed once on the host named
//! in the README (arrival rate, latency limits). `BENCHMARK.json`
//! repeats the names with their bounds; `ledger --check` holds the two
//! lists equal.

use lq_engine::attention::AttnConfig;
use lq_engine::ModelSpec;

/// The committed declaration, embedded so the binary and the file it
/// was built beside cannot drift apart.
pub const BENCHMARK_JSON: &str = include_str!("../../../../../BENCHMARK.json");

/// `(name, why)` of each workload, in run order.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "gemm_decode",
        "closed loop, M=1..16 layer sweeps: per-call dispatch, pool and dequant decide; engine, serving and router are bypassed",
    ),
    (
        "gemm_prefill",
        "same layer and calls at M=128: compute-bound, the microkernel decides; a dispatch fix must not move it",
    ),
    (
        "serve_offline",
        "closed loop, 8 slots always full through one ServingRuntime: batch-8 decode on mid-size GEMMs; router bypassed",
    ),
    (
        "serve_poisson",
        "open loop at a fixed rate through router, 2 replicas, runtime and engine: prefill, queueing and routing set TTFT",
    ),
];

/// A workload, in run order (its discriminant indexes [`WORKLOADS`]
/// and [`SLO`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `gemm_decode`
    GemmDecode,
    /// `gemm_prefill`
    GemmPrefill,
    /// `serve_offline`
    ServeOffline,
    /// `serve_poisson`
    ServePoisson,
}

impl Workload {
    /// Every workload, in run order.
    pub const ALL: [Workload; 4] = [
        Workload::GemmDecode,
        Workload::GemmPrefill,
        Workload::ServeOffline,
        Workload::ServePoisson,
    ];

    /// Its declared name.
    pub fn name(self) -> &'static str {
        WORKLOADS[self as usize].0
    }

    /// The workload called `name`.
    pub fn named(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Its latency limits.
    pub fn slo(self) -> Slo {
        SLO[self as usize]
    }
}

/// `(name, unit)` of each end-to-end metric, in print order.
pub const END_TO_END: [(&str, &str); 10] = [
    ("lat_p50_ms", "ms"),
    ("lat_p90_ms", "ms"),
    ("tok_per_s", "1/s"),
    ("ttft_p50_ms", "ms"),
    ("ttft_p90_ms", "ms"),
    ("itl_p50_ms", "ms"),
    ("itl_p99_ms", "ms"),
    ("slo_ok_share", "ratio"),
    ("rss_peak_mb", "MB"),
    ("setup_s", "s"),
];

/// One per-layer metric: its layer is the name's prefix.
pub struct LayerMetric {
    /// `layer.metric` name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Whether it is `probe`d directly against the layer (the same
    /// calls on every workload) or read from the workload's own `run`.
    pub source: &'static str,
    /// The end-to-end metric and workload it is expected to move
    /// (written before measuring; see the README's interaction table).
    pub moves: &'static str,
}

const fn lm(
    name: &'static str,
    unit: &'static str,
    source: &'static str,
    moves: &'static str,
) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        source,
        moves,
    }
}

/// Every per-layer metric, in print order.
pub const PER_LAYER: [LayerMetric; 83] = [
    lm("core.layer_ms_m1", "ms", "probe", "lat_p50_ms@gemm_decode"),
    lm("core.layer_ms_m4", "ms", "probe", "lat_p50_ms@gemm_decode"),
    lm(
        "core.layer_ms_m8",
        "ms",
        "probe",
        "lat_p50_ms@gemm_decode, itl_p50_ms@serve_offline",
    ),
    lm("core.layer_ms_m16", "ms", "probe", "lat_p50_ms@gemm_decode"),
    lm(
        "core.layer_ms_m128",
        "ms",
        "probe",
        "tok_per_s@gemm_prefill, ttft_p50_ms@serve_poisson",
    ),
    lm(
        "core.serial_layer_ms_m1",
        "ms",
        "probe",
        "lat_p50_ms@gemm_decode only (dequant-bound)",
    ),
    lm(
        "core.serial_layer_ms_m8",
        "ms",
        "probe",
        "itl_p50_ms@serve_offline",
    ),
    lm(
        "core.serial_layer_ms_m128",
        "ms",
        "probe",
        "tok_per_s@gemm_prefill, ttft_p50_ms@serve_poisson",
    ),
    lm(
        "core.flat_layer_ms_m1",
        "ms",
        "probe",
        "none (ImFp is the measured path; the staging-ring cost is the gap)",
    ),
    lm("core.flat_layer_ms_m8", "ms", "probe", "none"),
    lm("core.flat_layer_ms_m128", "ms", "probe", "none"),
    lm(
        "core.parallel_eff_m1",
        "ratio",
        "probe",
        "lat_p50_ms, tok_per_s@gemm_decode",
    ),
    lm(
        "core.parallel_eff_m8",
        "ratio",
        "probe",
        "itl_p50_ms, tok_per_s@serve_offline",
    ),
    lm(
        "core.parallel_eff_m128",
        "ratio",
        "probe",
        "tok_per_s@gemm_prefill",
    ),
    lm(
        "core.pool_overhead_us_m1",
        "us",
        "probe",
        "lat_p50_ms@gemm_decode, itl_p50_ms@serve_offline",
    ),
    lm(
        "core.pool_overhead_us_m8",
        "us",
        "probe",
        "itl_p50_ms, tok_per_s@serve_offline",
    ),
    lm(
        "core.apanel_pack_us_m1",
        "us",
        "probe",
        "small share of lat_p50_ms@gemm_decode",
    ),
    lm(
        "core.apanel_pack_us_m128",
        "us",
        "probe",
        "small share of lat_p50_ms@gemm_prefill",
    ),
    lm("core.gops_m1", "Gop/s", "probe", "tok_per_s@gemm_decode"),
    lm("core.gops_m8", "Gop/s", "probe", "tok_per_s@gemm_decode"),
    lm("core.gops_m128", "Gop/s", "probe", "tok_per_s@gemm_prefill"),
    lm("core.qkv_ms_m1", "ms", "probe", "lat_p50_ms@gemm_decode"),
    lm("core.qkv_ms_m128", "ms", "probe", "lat_p50_ms@gemm_prefill"),
    lm("core.o_ms_m1", "ms", "probe", "lat_p50_ms@gemm_decode"),
    lm("core.o_ms_m128", "ms", "probe", "lat_p50_ms@gemm_prefill"),
    lm(
        "core.gate_up_ms_m1",
        "ms",
        "probe",
        "lat_p50_ms@gemm_decode",
    ),
    lm(
        "core.gate_up_ms_m128",
        "ms",
        "probe",
        "lat_p50_ms@gemm_prefill",
    ),
    lm("core.down_ms_m1", "ms", "probe", "lat_p50_ms@gemm_decode"),
    lm(
        "core.down_ms_m128",
        "ms",
        "probe",
        "lat_p50_ms@gemm_prefill",
    ),
    lm(
        "core.pct_mk_peak_m128",
        "%",
        "probe",
        "tok_per_s@gemm_prefill",
    ),
    lm(
        "core.weight_gbps_m1",
        "GB/s",
        "probe, computed from weight_bytes()",
        "lat_p50_ms@gemm_decode",
    ),
    lm("core.pool_jobs", "count", "run", "none (work count)"),
    lm(
        "core.pool_steal_share",
        "ratio",
        "run",
        "lat_p90_ms@gemm_decode",
    ),
    lm(
        "core.pool_busy_share",
        "ratio",
        "run",
        "tok_per_s on every workload",
    ),
    lm(
        "core.pool_balance",
        "ratio",
        "run",
        "lat_p90_ms@gemm_prefill",
    ),
    lm(
        "core.pool_retries",
        "count",
        "run",
        "none (must stay 0 with faults off)",
    ),
    lm(
        "core.shard2_col_speedup_m8",
        "ratio",
        "probe",
        "none yet (no workload shards a GEMM)",
    ),
    lm("core.shard2_row_speedup_m8", "ratio", "probe", "none yet"),
    lm(
        "quant.act_quantize_us_m1",
        "us",
        "probe",
        "small share of lat_p50_ms@gemm_decode",
    ),
    lm(
        "quant.act_quantize_us_m128",
        "us",
        "probe",
        "small share of lat_p50_ms@gemm_prefill",
    ),
    lm(
        "quant.weight_pack_s",
        "s",
        "probe",
        "setup_s on every workload",
    ),
    lm(
        "quant.pack_mweights_per_s",
        "Mw/s",
        "probe",
        "setup_s on every workload",
    ),
    lm("quant.weight_mb", "MB", "probe", "rss_peak_mb@gemm_*"),
    lm(
        "engine.prefill_ms_per_tok",
        "ms",
        "run",
        "ttft_*_ms, itl_p99_ms@serve_poisson",
    ),
    lm(
        "engine.decode_step_ms_p50",
        "ms",
        "run",
        "itl_p50_ms@serve_*",
    ),
    lm(
        "engine.decode_step_ms_p99",
        "ms",
        "run",
        "itl_p99_ms@serve_offline",
    ),
    lm(
        "engine.decode_step_ms_b1",
        "ms",
        "probe",
        "itl_p50_ms@serve_poisson",
    ),
    lm(
        "engine.decode_step_ms_b8",
        "ms",
        "probe",
        "itl_p50_ms, tok_per_s@serve_offline",
    ),
    lm(
        "engine.gemm_replay_ms_b8",
        "ms",
        "probe",
        "itl_p50_ms@serve_offline",
    ),
    lm(
        "engine.nongemm_share_b8",
        "ratio",
        "probe, by subtraction",
        "itl_p50_ms@serve_offline",
    ),
    lm(
        "engine.attn_us_ctx128",
        "us",
        "probe",
        "itl_p50_ms@serve_offline",
    ),
    lm(
        "engine.kv_append_us",
        "us",
        "probe",
        "itl_p50_ms@serve_offline",
    ),
    lm(
        "engine.release_us",
        "us",
        "run",
        "none (off the virtual clock)",
    ),
    lm("engine.prefill_calls", "count", "run", "none (work count)"),
    lm("engine.decode_calls", "count", "run", "none (work count)"),
    lm(
        "engine.busy_share",
        "ratio",
        "run",
        "tok_per_s@serve_offline",
    ),
    lm(
        "serving.queue_wait_ms_p50",
        "ms",
        "run",
        "ttft_p50_ms@serve_poisson",
    ),
    lm(
        "serving.queue_wait_ms_p90",
        "ms",
        "run",
        "ttft_p90_ms@serve_poisson",
    ),
    lm(
        "serving.batch_mean",
        "count",
        "run",
        "tok_per_s up and itl_p50_ms up @serve_offline",
    ),
    lm(
        "serving.peak_batch",
        "count",
        "run",
        "itl_p99_ms@serve_poisson",
    ),
    lm(
        "serving.decode_steps",
        "count",
        "run",
        "tok_per_s@serve_offline",
    ),
    lm(
        "serving.sched_overhead_share",
        "ratio",
        "run",
        "tok_per_s@serve_offline (should stay < 0.01)",
    ),
    lm("serving.finished", "count", "run", "slo_ok_share"),
    lm("serving.rejected", "count", "run", "slo_ok_share"),
    lm("serving.timed_out", "count", "run", "slo_ok_share"),
    lm("serving.failed", "count", "run", "slo_ok_share"),
    lm(
        "serving.preemptions",
        "count",
        "run",
        "none (preemption is off)",
    ),
    lm(
        "serving.kv_reserved_peak_share",
        "ratio",
        "run, computed from the admitted set",
        "serving.batch_mean",
    ),
    lm(
        "serving.kv_used_over_reserved",
        "ratio",
        "run, computed from the admitted set",
        "serving.batch_mean",
    ),
    lm(
        "serving.kv_op_ns",
        "ns",
        "probe",
        "serving.sched_overhead_share",
    ),
    lm(
        "router.assign_us_per_req",
        "us",
        "probe",
        "setup of serve_poisson (routing precedes the run)",
    ),
    lm(
        "router.routed_imbalance",
        "ratio",
        "run",
        "ttft_p90_ms, slo_ok_share@serve_poisson",
    ),
    lm(
        "router.replica_busy_skew",
        "ratio",
        "run",
        "ttft_p90_ms, slo_ok_share@serve_poisson",
    ),
    lm("router.waves", "count", "run", "none (1 with faults off)"),
    lm(
        "router.failovers",
        "count",
        "run",
        "none (0 with faults off)",
    ),
    lm(
        "router.rerouted",
        "count",
        "run",
        "none (0 with faults off)",
    ),
    lm(
        "router.unserved",
        "count",
        "run",
        "slo_ok_share@serve_poisson",
    ),
    lm(
        "obs.overhead_share",
        "ratio",
        "run",
        "tok_per_s on every workload when tracing is on",
    ),
    lm("obs.trace_events", "count", "run", "obs.overhead_share"),
    lm(
        "obs.trace_dropped",
        "count",
        "run",
        "none (lost evidence, not time)",
    ),
    lm("host.nproc", "count", "probe", "everything"),
    lm(
        "host.stream_gbps",
        "GB/s",
        "probe",
        "ceiling for core.weight_gbps_m1",
    ),
    lm(
        "host.mk_peak_gops",
        "Gop/s",
        "probe",
        "ceiling for core.gops_m128",
    ),
];

/// Names of the four matrices of one decoder layer, in call order.
pub const MATRICES: [&str; 4] = ["qkv", "o", "gate_up", "down"];

/// Batch sizes of one `gemm_decode` sweep.
pub const DECODE_MS: [usize; 4] = [1, 4, 8, 16];
/// Batch size of one `gemm_prefill` pass.
pub const PREFILL_M: usize = 128;
/// Quantization group along K, everywhere.
pub const GROUP: usize = 64;
/// Pool workers in total on every workload.
pub const WORKERS: usize = 2;
/// Replicas of `serve_poisson` (one 1-worker pool each).
pub const REPLICAS: usize = 2;
/// Concurrent sequences per runtime.
pub const MAX_BATCH: usize = 8;
/// Tokens per KV page (the engine's stores are built with 16).
pub const PAGE_TOKENS: usize = 16;
/// Times the set-up is repeated; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 3;
/// Requests whose token history is replayed on a `Serial` model.
pub const REPLAY_SAMPLES: usize = 3;

/// Seed of the arrival schedule, request lengths and tiers of
/// `serve_poisson`. It is a constant of the benchmark, like the rate:
/// `--seed` fills the prompts (and the weights and activations of the
/// GEMM workloads) but never changes how much work a run holds, so
/// runs with different seeds measure the same thing.
pub const TRACE_SEED: u64 = 0x1ed6e7;
/// Offered rate of `serve_poisson` in requests per virtual second,
/// fixed once so the busier replica's engine is 50–60% utilised at the
/// commit that added the benchmark. Never calibrated at run time.
pub const POISSON_RATE: f64 = 2.2;

/// Latency limits of `slo_ok_share`, fixed at about three times the
/// medians of the commit that added the benchmark.
#[derive(Debug, Clone, Copy)]
pub struct Slo {
    /// Limit on time to first token (first result), ms.
    pub ttft_limit_ms: f64,
    /// Limit on an operation's mean gap between tokens, ms.
    pub itl_limit_ms: f64,
}

/// The limits per workload, in [`Workload::ALL`] order.
const SLO: [Slo; 4] = [
    // gemm_decode: sweep median 130 ms over 29 rows.
    Slo {
        ttft_limit_ms: 390.0,
        itl_limit_ms: 13.5,
    },
    // gemm_prefill: pass median 133 ms over 128 rows.
    Slo {
        ttft_limit_ms: 400.0,
        itl_limit_ms: 3.1,
    },
    // serve_offline: cohort-of-8 prefill 330 ms, decode step 30 ms.
    Slo {
        ttft_limit_ms: 1000.0,
        itl_limit_ms: 90.0,
    },
    // serve_poisson: TTFT median 100 ms, a request's mean gap 30 ms.
    Slo {
        ttft_limit_ms: 300.0,
        itl_limit_ms: 90.0,
    },
];

/// How much work a run holds.
#[derive(Debug, Clone)]
pub struct Plan {
    /// `(N, K)` of qkv, o, gate_up, down.
    pub layer: [(usize, usize); 4],
    /// Sweeps of `gemm_decode`.
    pub sweeps: usize,
    /// Passes of `gemm_prefill`.
    pub passes: usize,
    /// Model of the serving workloads.
    pub model: ModelSpec,
    /// Requests of `serve_offline` (a multiple of [`MAX_BATCH`]).
    pub offline_requests: usize,
    /// Prompt and output length of every `serve_offline` request.
    pub offline_lens: (usize, usize),
    /// Virtual seconds of the `serve_poisson` arrival trace.
    pub poisson_duration: f64,
    /// Prompt-length range of `serve_poisson`.
    pub poisson_prompt: (usize, usize),
    /// Output-length range of `serve_poisson`.
    pub poisson_output: (usize, usize),
    /// Repetitions of each layer probe (the median is reported).
    pub probe_reps: usize,
    /// Bytes the stream probe reads, as a multiple of the reported LLC.
    pub stream_llc_multiple: usize,
}

impl Plan {
    /// The plan of a run asked to measure for `seconds`. Work is fixed
    /// by `seconds`, not by the clock: the per-second constants were
    /// chosen so a run lasts about `seconds` at the commit that added
    /// the benchmark, and a faster program simply finishes sooner.
    ///
    /// The layer is a Llama-3.1-8B decoder layer (SNIPPETS.md
    /// `WEIGHT_SHAPES`) at half width: the full layer's M=128 pass
    /// takes 0.47 s here, so 100 operations would not fit the run
    /// budget (see the README).
    pub fn timed(seconds: f64) -> Plan {
        let scale =
            |per_second: f64, floor: usize| ((seconds * per_second).ceil() as usize).max(floor);
        Plan {
            layer: [(3072, 2048), (2048, 2048), (14336, 2048), (2048, 7168)],
            sweeps: scale(7.0, 2),
            passes: scale(7.0, 2),
            model: ModelSpec {
                vocab: 4096,
                hidden: 1024,
                inter: 2816,
                layers: 2,
                attn: AttnConfig {
                    heads: 16,
                    kv_heads: 4,
                    head_dim: 64,
                },
                group: GROUP,
            },
            offline_requests: MAX_BATCH * scale(0.45, 1),
            offline_lens: (32, 64),
            poisson_duration: seconds * 1.7,
            poisson_prompt: (16, 128),
            poisson_output: (8, 32),
            probe_reps: 7,
            stream_llc_multiple: 4,
        }
    }

    /// Toy sizes for `ledger --check`: every code path, milliseconds
    /// of work.
    pub fn toy() -> Plan {
        Plan {
            layer: [(48, 128), (32, 128), (96, 128), (32, 192)],
            sweeps: 3,
            passes: 3,
            model: ModelSpec {
                group: GROUP,
                hidden: 64,
                inter: 128,
                ..ModelSpec::tiny()
            },
            offline_requests: MAX_BATCH * 2,
            offline_lens: (4, 4),
            poisson_duration: 3.0,
            poisson_prompt: (2, 6),
            poisson_output: (2, 4),
            probe_reps: 1,
            stream_llc_multiple: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_layer_names_carry_a_known_layer_prefix() {
        for m in &PER_LAYER {
            let layer = m.name.split('.').next().unwrap();
            assert!(
                ["core", "quant", "engine", "serving", "router", "obs", "host"].contains(&layer),
                "{}",
                m.name
            );
            assert!(!m.moves.is_empty() && !m.source.is_empty());
        }
    }

    #[test]
    fn plan_scales_with_seconds_and_keeps_full_batches() {
        let (a, b) = (Plan::timed(10.0), Plan::timed(20.0));
        assert!(b.sweeps > a.sweeps && b.passes > a.passes);
        assert!(b.offline_requests > a.offline_requests);
        assert_eq!(b.offline_requests % MAX_BATCH, 0);
        assert_eq!(Plan::timed(0.01).sweeps, 2);
        let toy = Plan::toy();
        assert!(toy.layer.iter().all(|&(_, k)| k % GROUP == 0));
        assert_eq!(toy.model.hidden % toy.model.group, 0);
    }
}
