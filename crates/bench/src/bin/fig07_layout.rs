//! Figure 7 / Section 5.2: why the layout decides whether 4-bit weights
//! can use the widest shared-memory load — `ldmatrix` mis-scatter,
//! `LDS.128` vs `LDS.32` load cost, and bank conflicts, from the
//! `lq-layout` models.
//!
//! Run: `cargo run -p lq-bench --bin fig07_layout`

use lq_layout::bank::{analyze_access, dual_mma_addresses, strided_2d_addresses};
use lq_layout::dual_mma::{dual_mma_load_cost, lds32_load_cost};
use lq_layout::ldmatrix::{misdelivered_threads, scatter_ownership};

fn main() {
    println!("== Figure 7a: ldmatrix scatter, one fragment row over 8 threads ==\n");
    println!(" element  misdelivered  T1 receives from");
    for bits in [8, 4] {
        let (own, name) = (scatter_ownership(bits), format!("{bits}-bit"));
        let bad = format!("{}/8", misdelivered_threads(&own));
        println!("{name:>8}  {bad:>12}  {:>16}", format!("{:?}", own[1]));
    }

    println!("\n== Section 5.2: loading 32 UINT4 per thread (two MMAs) ==\n");
    println!("  layout   loads  addr calcs  bytes  useful");
    for (name, loads, c) in [
        ("dual-MMA", "1x128", dual_mma_load_cost(32)),
        ("LDS.32", "8x32", lds32_load_cost(32)),
    ] {
        let useful = format!("{:.0}%", 100.0 * c.efficiency());
        println!(
            "{name:>8}  {loads:>6}  {:>10}  {:>5}  {useful:>6}",
            c.addr_calcs, c.bytes_moved
        );
    }

    println!("\n== Section 5.2: bank conflicts of one warp access (32 banks x 4 B) ==\n");
    println!("                       access  degree  transactions");
    let rows = [
        ("dual-MMA 1-D, LDS.128", dual_mma_addresses(32), 16),
        ("dual-MMA, one quarter-warp", dual_mma_addresses(8), 16),
        (
            "2-D, 128 B rows, LDS.32",
            strided_2d_addresses(32, 128, 0),
            4,
        ),
    ];
    for (name, addrs, width) in rows {
        let r = analyze_access(&addrs, width);
        println!("{name:>29}  {:>6}  {:>12}", r.degree, r.transactions);
    }
    println!(
        "\nLDS.128 issues as four conflict-free quarter-warp phases; an unswizzled\n\
         2-D column read serialises all 32 threads on one bank."
    );
}
