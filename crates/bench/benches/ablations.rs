//! Ablation benchmarks for design choices DESIGN.md calls out:
//!
//! * **aug_filter vs plain filter** — the O(k log(n/k+1)) vs O(n) claim;
//! * **aug_project vs materializing ranges** — range-tree queries with
//!   and without the projection fast path;
//! * **refcount-1 reuse** — covered by building with
//!   `--features pam/no-reuse` and re-running `ops` (documented in
//!   EXPERIMENTS.md) since features are compile-time.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use pam::{AugMap, MaxAug};
use std::hint::black_box;

const N: usize = 100_000;

fn bench_augfilter_vs_filter(c: &mut Criterion) {
    let pairs = workloads::uniform_pairs(N, 3, N as u64 * 4);
    let m: AugMap<MaxAug<u64, u64>> = AugMap::build(pairs.clone());
    let mut vals: Vec<u64> = pairs.iter().map(|&(_, v)| v).collect();
    vals.sort_unstable();
    let theta = vals[vals.len() - 100]; // ~100 survivors
    c.bench_function("aug_filter_k100_of_100k", |bch| {
        bch.iter(|| black_box(m.aug_filter(|&a| a > theta)));
    });
    c.bench_function("plain_filter_k100_of_100k", |bch| {
        bch.iter_batched(
            || m.clone(),
            |mm| black_box(mm.filter(|_, &v| v > theta)),
            BatchSize::LargeInput,
        );
    });
}

fn bench_project_vs_materialize(c: &mut Criterion) {
    let pts = workloads::random_points(50_000, 4, 1 << 20);
    let rt = pam_rangetree::RangeTree::build(pts);
    let wins = workloads::points::query_windows(200, 5, 1 << 20, 0.05);
    c.bench_function("rangetree_aug_project_200q", |bch| {
        bch.iter(|| {
            black_box(
                wins.iter()
                    .map(|&(xl, xr, yl, yr)| rt.query_sum(xl, xr, yl, yr))
                    .fold(0u64, u64::wrapping_add),
            )
        });
    });
    c.bench_function("rangetree_materialize_200q", |bch| {
        // the slow path: list the points and add the weights
        bch.iter(|| {
            black_box(
                wins.iter()
                    .map(|&(xl, xr, yl, yr)| {
                        rt.query_points(xl, xr, yl, yr)
                            .iter()
                            .map(|&(_, _, w)| w)
                            .fold(0u64, u64::wrapping_add)
                    })
                    .fold(0u64, u64::wrapping_add),
            )
        });
    });
}

fn bench_all(c: &mut Criterion) {
    bench_augfilter_vs_filter(c);
    bench_project_vs_materialize(c);
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_all
}
criterion_main!(benches);
