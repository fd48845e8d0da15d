//! Figure 13: ablation — baseline → +LQQ → +ExCP / +ImFP — on the
//! warp-group pipeline simulator (GPU-shaped). The CPU kernels' ExCP
//! and ImFP rows run for real in `examples/ablation`.
//!
//! Run: `cargo run -p lq-bench --bin fig13_ablation`

use lq_bench::{fmt_time, print_header, print_row, BATCH_SWEEP};
use lq_sim::pipeline_sim::ablation;
use lq_sim::specs::H800;

fn main() {
    println!("== Figure 13: pipeline ablation on the H800 model (FFN-tile stream) ==\n");
    print_header(&[
        ("batch", 6),
        ("Baseline", 10),
        ("+LQQ", 10),
        ("+LQQ+ExCP", 10),
        ("+LQQ+ImFP", 10),
        ("LQQ gain", 9),
        ("ImFP gain", 9),
    ]);
    let iters = 512;
    for &m in &BATCH_SWEEP {
        let r = ablation(&H800, m, iters);
        print_row(&[
            (m.to_string(), 6),
            (fmt_time(r.baseline), 10),
            (fmt_time(r.lqq), 10),
            (fmt_time(r.lqq_excp), 10),
            (fmt_time(r.lqq_imfp), 10),
            (format!("{:.2}x", r.baseline / r.lqq), 9),
            (format!("{:.2}x", r.lqq / r.lqq_imfp), 9),
        ]);
    }
    println!(
        "\npaper shape: LQQ helps little when memory-bound, up to ~1.29x when\n\
         compute-bound; ExCP *hurts* at small batch (round-trip + sync) and only\n\
         helps at large batch; ImFP improves or matches at every batch size."
    );
}
