//! Differential property suite for tensor-parallel sharding
//! (DESIGN.md §14): column-parallel and row-parallel sharded GEMMs
//! must be **bit-identical** (`max_abs_diff == 0`) to the unsharded
//! kernel on ragged shapes, for every registered backend, every
//! microkernel variant detected on this host, and shard counts 1–4 —
//! and each column-parallel call runs exactly its column window's tiles
//! on each shard pool.
//!
//! Raggedness is the point: N not divisible by the shard count
//! (uneven column windows), M = 1 (the decode hot path), and K cuts
//! that leave shards with unequal group counts — plus more shards than
//! quant groups, which must yield exact-zero empty partials.

use lq_core::reference::max_abs_diff;
use lq_core::shard::ShardedGemm;
use lq_core::{BackendId, KernelKind, LiquidGemm, SimdVariant, W4A8Weights};
use lq_quant::mat::Mat;
use lq_rng::Rng;

/// Random ragged problem. Every third case pins M = 1 (decode); K is
/// always a multiple of the group size; N is drawn odd-heavy so it is
/// usually not divisible by 2, 3, or 4.
fn problem(rng: &mut Rng, case: usize) -> (Mat<i8>, Vec<f32>, Mat<f32>, usize) {
    let m = if case.is_multiple_of(3) {
        1
    } else {
        rng.range_usize(2, 7)
    };
    let group = if rng.below(2) == 0 { 32 } else { 64 };
    let k = rng.range_usize(1, 6) * group;
    let n = 2 * rng.range_usize(1, 20) + 1; // odd: ragged under 2 and 4
    let x = Mat::from_vec(m, k, (0..m * k).map(|_| rng.any_i8()).collect());
    let scales = rng.vec_f32(m, 0.001, 1.0);
    let w = Mat::from_fn(n, k, |r, c| {
        (((r * k + c) as f32 + case as f32) * 0.017).sin()
    });
    (x, scales, w, group)
}

/// Tiles shard `s`'s pool has run since it was built.
fn shard_jobs(tp: &ShardedGemm, s: usize) -> u64 {
    let stats = tp.shard_pool(s).pool().worker_stats();
    stats.iter().map(|w| w.jobs).sum()
}

fn sweep_variant(variant: SimdVariant) {
    let mut rng = Rng::new(0x5AA2_D001 ^ variant as u64);
    for backend in BackendId::all() {
        // Unsharded reference: same backend, same forced variant.
        let reference = LiquidGemm::builder()
            .workers(1)
            .backend(backend)
            .force_microkernel(variant)
            .build()
            .unwrap();
        for shards in [1usize, 2, 3, 4] {
            let tp = ShardedGemm::builder()
                .shards(shards)
                .workers_per_shard(1)
                .backend(backend)
                .force_microkernel(variant)
                .build()
                .unwrap();
            for case in 0..4 {
                let (x, scales, wf, group) = problem(&mut rng, case);
                let w1 = W4A8Weights::quantize(&wf, group, backend);
                let want = reference.gemm(&x, &scales, &w1, KernelKind::Serial).y;
                let sw = tp.pack_weights(&wf, group);
                let before: Vec<u64> = (0..shards).map(|s| shard_jobs(&tp, s)).collect();
                let col = tp.gemm(&x, &scales, &sw, KernelKind::ImFp).unwrap().y;
                assert_eq!(
                    max_abs_diff(&col, &want),
                    0.0,
                    "column {backend:?}/{variant:?} shards={shards} case={case} \
                     m={} n={} k={}",
                    x.rows(),
                    wf.rows(),
                    x.cols(),
                );
                // Exact tile count: each shard pool ran its column
                // window's tiles once, and nothing else.
                for (s, jobs) in before.iter().enumerate() {
                    let (n0, n1) = sw.col_range(s);
                    let task_rows = tp.shard_pool(s).config().task_rows;
                    assert_eq!(
                        shard_jobs(&tp, s) - jobs,
                        (n1 - n0).div_ceil(task_rows) as u64,
                        "shard {s} tiles, {backend:?}/{variant:?} shards={shards} case={case}"
                    );
                }
                let row = tp.gemm_row(&x, &scales, &sw).unwrap().y;
                assert_eq!(
                    max_abs_diff(&row, &want),
                    0.0,
                    "row {backend:?}/{variant:?} shards={shards} case={case} \
                     m={} n={} k={}",
                    x.rows(),
                    wf.rows(),
                    x.cols(),
                );
            }
        }
    }
}

/// The full differential matrix: backends × detected variants × shard
/// counts × ragged shapes, column and row parallel, bitwise.
#[test]
fn sharded_matches_unsharded_across_backends_variants_and_shard_counts() {
    for variant in SimdVariant::detected() {
        sweep_variant(variant);
    }
}

/// More shards than K quant groups: the surplus shards own empty
/// slices and the row-parallel all-reduce must still be exact.
#[test]
fn row_parallel_with_empty_shards_is_exact() {
    let mut rng = Rng::new(0x5AA2_D002);
    for backend in BackendId::all() {
        let reference = LiquidGemm::builder()
            .workers(1)
            .backend(backend)
            .build()
            .unwrap();
        // K = 64, group 64 → a single quant group across 4 shards.
        let m = 3;
        let (k, group) = (64, 64);
        let x = Mat::from_vec(m, k, (0..m * k).map(|_| rng.any_i8()).collect());
        let scales = rng.vec_f32(m, 0.01, 1.0);
        let wf = Mat::from_fn(11, k, |r, c| ((r * k + c) as f32 * 0.03).cos());
        let want = reference
            .gemm(
                &x,
                &scales,
                &W4A8Weights::quantize(&wf, group, backend),
                KernelKind::Serial,
            )
            .y;
        let tp = ShardedGemm::builder()
            .shards(4)
            .workers_per_shard(1)
            .backend(backend)
            .build()
            .unwrap();
        let sw = tp.pack_weights(&wf, group);
        let got = tp.gemm_row(&x, &scales, &sw).unwrap().y;
        assert_eq!(max_abs_diff(&got, &want), 0.0, "{backend:?}");
    }
}

/// Shard-count-1 sharding is the identity: same pack, same plan, same
/// bits through both collectives, for every pipeline kind.
#[test]
fn single_shard_is_identity_for_every_kind() {
    let mut rng = Rng::new(0x5AA2_D003);
    let m = 4;
    let (k, group) = (128, 32);
    let x = Mat::from_vec(m, k, (0..m * k).map(|_| rng.any_i8()).collect());
    let scales = rng.vec_f32(m, 0.01, 1.0);
    let wf = Mat::from_fn(23, k, |r, c| ((r * k + c) as f32 * 0.019).sin());
    let lg = LiquidGemm::builder().workers(2).build().unwrap();
    let want = lg
        .gemm(
            &x,
            &scales,
            &lg.pack_weights(&wf, group),
            KernelKind::Serial,
        )
        .y;
    let tp = ShardedGemm::builder()
        .shards(1)
        .workers_per_shard(2)
        .build()
        .unwrap();
    let sw = tp.pack_weights(&wf, group);
    for kind in [
        KernelKind::Serial,
        KernelKind::FlatParallel,
        KernelKind::ExCp,
        KernelKind::ImFp,
    ] {
        let got = tp.gemm(&x, &scales, &sw, kind).unwrap().y;
        assert_eq!(max_abs_diff(&got, &want), 0.0, "{kind:?}");
    }
    let got = tp.gemm_row(&x, &scales, &sw).unwrap().y;
    assert_eq!(max_abs_diff(&got, &want), 0.0, "row");
}
