//! # lq-bench — one binary per table and figure, plus the benchmark
//!
//! One binary per experiment (see `src/bin/`), each printing the rows or
//! series of the corresponding table/figure in the paper:
//!
//! | binary | reproduces |
//! |--------|------------|
//! | `fig01_roofline` | Figure 1: hardware metrics + roofline |
//! | `tab_transition_points` | §3.3 transition batches and α budgets |
//! | `tab_dequant_cost` | §3.2/§5.3 dequant instruction audit |
//! | `fig04_gemm_share` | Figure 4: GEMM share of inference time |
//! | `fig05_gemm_latency` | Figure 5: per-layer GEMM latency vs batch |
//! | `fig07_layout` | Figure 7 / §5.2: `ldmatrix` mis-scatter, `LDS.128` vs `LDS.32`, bank conflicts |
//! | `tab01_peak_throughput` | Table 1: peak serving throughput |
//! | `fig10_time_breakdown` | Figure 10: per-layer time breakdown |
//! | `fig11_fixed_batch` | Figure 11: throughput at fixed batch |
//! | `fig12_kernel_latency` | Figure 12: kernel latency vs batch |
//! | `fig13_ablation` | Figure 13: LQQ / ExCP / ImFP ablation |
//! | `tab_accuracy` | §7.1 accuracy note: LQQ vs QoQ error |
//! | `tab_hw_trends` | §3.3 hardware-trend projection |
//! | `tab_scheduler` | continuous-batching scheduler under load (simulated) |
//!
//! Wall-clock measurement of the executable stack is the `ledger`
//! binary's job (`src/bin/ledger/`, declared by the root
//! `BENCHMARK.json`); this library only formats the figure tables.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Format seconds with an adaptive unit.
#[must_use]
pub fn fmt_time(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.2} s")
    } else if s >= 1e-3 {
        format!("{:.2} ms", s * 1e3)
    } else if s >= 1e-6 {
        format!("{:.2} us", s * 1e6)
    } else {
        format!("{:.0} ns", s * 1e9)
    }
}

/// Print a header row followed by a rule.
pub fn print_header(cols: &[(&str, usize)]) {
    let mut line = String::new();
    for (name, w) in cols {
        line.push_str(&format!("{name:>w$}  ", w = *w));
    }
    println!("{line}");
    println!("{}", "-".repeat(line.len()));
}

/// Print one row of right-aligned cells.
pub fn print_row(cells: &[(String, usize)]) {
    let mut line = String::new();
    for (cell, w) in cells {
        line.push_str(&format!("{cell:>w$}  ", w = *w));
    }
    println!("{line}");
}

/// The batch sweep the paper's latency figures use.
pub const BATCH_SWEEP: [usize; 7] = [4, 8, 16, 32, 64, 128, 256];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_time_units() {
        assert_eq!(fmt_time(2.5), "2.50 s");
        assert_eq!(fmt_time(2.5e-3), "2.50 ms");
        assert_eq!(fmt_time(2.5e-6), "2.50 us");
        assert_eq!(fmt_time(250e-9), "250 ns");
    }
}
