//! Supplementary: the continuous-batching scheduler under load —
//! sustained throughput and latency percentiles for LiquidServe vs the
//! baselines on LLaMA2-7B, with Poisson-ish staggered arrivals.
//!
//! (Not a paper table; it demonstrates the serving loop the Table-1
//! closed form abstracts, with the same paged-KV admission policy.)
//!
//! Run: `cargo run -p lq-bench --bin tab_scheduler`

use lq_bench::{fmt_time, print_header, print_row};
use lq_models::configs::LLAMA2_7B;
use lq_serving::scheduler::{run_schedule, Request, SchedulerConfig};
use lq_serving::system::{ServingSystem, SystemId};
use lq_sim::specs::H800;

/// Deterministic staggered arrivals at a given mean rate (requests/s).
fn arrivals(n: usize, rate: f64) -> Vec<Request> {
    let mut t = 0.0f64;
    let mut state = 0x9E37_79B9u64;
    (0..n as u64)
        .map(|id| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            // Exponential-ish inter-arrival via inverse CDF of a
            // uniform sample.
            let u = (state % 10_000) as f64 / 10_000.0;
            t += -(1.0 - u.min(0.9999)).ln() / rate;
            Request::new(id, 1024, 512, t)
        })
        .collect()
}

fn main() {
    println!("== Continuous batching under load: LLaMA2-7B, 200 requests ==\n");
    print_header(&[
        ("system", 14),
        ("rate r/s", 9),
        ("tok/s", 8),
        ("peak batch", 11),
        ("mean lat", 10),
        ("p95 lat", 10),
    ]);
    for id in [
        SystemId::LiquidServe,
        SystemId::LiquidServeWo,
        SystemId::QServe,
        SystemId::TrtW8A8,
    ] {
        let sys = ServingSystem::of(id);
        for rate in [2.0f64, 8.0, 32.0] {
            let reqs = arrivals(200, rate);
            let stats = run_schedule(&sys, &H800, &LLAMA2_7B, SchedulerConfig::default(), &reqs);
            print_row(&[
                (sys.name.to_string(), 14),
                (format!("{rate:.0}"), 9),
                (format!("{:.0}", stats.throughput()), 8),
                (stats.peak_batch.to_string(), 11),
                (fmt_time(stats.mean_latency()), 10),
                (fmt_time(stats.latency_percentile(95.0)), 10),
            ]);
        }
    }
    println!(
        "\nreading: at low arrival rates all systems are latency-bound and similar;\n\
         as load rises, the faster GEMM lets LiquidServe clear batches sooner,\n\
         holding lower tail latency at the same offered load."
    );
}
