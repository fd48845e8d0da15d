//! Microbenchmark: the dequantization microkernels.
//!
//! Measures the real CPU cost of LQQ's IMAD+XOR path against QoQ's
//! emulated-vsub4 path through the block dequant the strip kernel calls
//! — the per-register instruction-count gap (7 vs 19) should show up
//! as wall-clock.
//!
//! Plain main (no criterion: the sandbox is offline); `--json` dumps
//! the telemetry registry to `BENCH_dequant.json`.

use std::hint::black_box;

use lq_bench::bench_case;
use lq_quant::backend::PackedWeights;
use lq_quant::mat::Mat;
use lq_quant::{PackedLqqLinear, PackedQoqLinear};

fn main() {
    let _json = lq_bench::json_dump("dequant");
    // One 16-row strip × 1024 groups of 64: the strip kernel's
    // one-call-per-K-block shape, over the same weights for both schemes.
    const ROWS: usize = 16;
    const GROUP: usize = 64;
    const K: usize = 4096;
    let w = Mat::from_fn(ROWS, K, |r, c| ((r * K + c) as f32 * 0.07).sin());
    let lqq = PackedLqqLinear::quantize(&w, GROUP);
    let qoq = PackedQoqLinear::quantize(&w, GROUP);

    println!("dequant ({} elements per pass)", ROWS * K);
    let mut out = vec![0i8; ROWS * 512];
    for (label, p) in [
        ("lqq_imad_xor", &lqq as &dyn PackedWeights),
        ("qoq_emulated_vsub4", &qoq),
    ] {
        bench_case(label, 20, || {
            for g0 in (0..K / GROUP).step_by(512 / GROUP) {
                black_box(p).dequant_block(0, ROWS, g0, &mut out);
            }
            black_box(out[0]);
        });
    }
}
