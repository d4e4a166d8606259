//! What a fork costs: every operation that may fork, under the default
//! pool and under `parlay::with_threads(1)` (which runs every fork
//! inline), with the number of forks it offered to the pool.
//!
//! The rows are the benchmark's `apps` query sets (same sizes and
//! generators as `benchmark/src/phases/apps.rs`, uniform picks) and its
//! tree-bulk operations plus the small-into-large ones. A query that
//! forks once on a subtree it then prunes shows the bare fork cost as
//! `pool/t1`; a 10⁶-key build shows what the forks buy. EXPERIMENTS §13
//! runs it on two commits; it uses only API both have.
//!
//! Run with: `cargo run --release --example fork_cost`

use pam::{AugMap, SumAug};
use pam_index::{top_k, InvertedIndex};
use pam_interval::IntervalMap;
use pam_rangetree::RangeTree;
use std::hint::black_box;
use std::time::Instant;
use workloads::{hash64, Corpus, CorpusConfig};

type SumMap = AugMap<SumAug<u64, u64>>;

const SEED: u64 = 7;

const UNIVERSE: u64 = 1_000_000_000;
const SIDE: u32 = 1 << 20;
const BULK_N: usize = 1_000_000;

/// `m` uniform picks from `[0, range)`, as the benchmark's `uniform`
/// workload draws them.
fn picks(tag: u64, m: usize, range: u64) -> Vec<u64> {
    let stream = hash64(hash64(SEED) ^ tag);
    (0..m as u64).map(|i| hash64(stream ^ i) % range).collect()
}

fn windows(tag: u64, m: usize, frac: f64) -> Vec<(u32, u32, u32, u32)> {
    let span = (SIDE as f64 * frac) as u32;
    picks(tag, m, SIDE as u64)
        .into_iter()
        .zip(picks(tag + 1, m, SIDE as u64))
        .map(|(x, y)| {
            let (x, y) = (x as u32, y as u32);
            (x, (x + span).min(SIDE - 1), y, (y + span).min(SIDE - 1))
        })
        .collect()
}

/// One timed run of `op` on a fresh input (made, like the result's drop,
/// outside the timing): seconds, and forks offered to the pool.
fn timed<I, O>(input: &mut impl FnMut() -> I, op: impl FnOnce(I) -> O) -> (f64, usize) {
    let arg = input();
    let before = rayon::forks_spawned();
    let t0 = Instant::now();
    let out = black_box(op(arg));
    let took = t0.elapsed().as_secs_f64();
    let forks = rayon::forks_spawned() - before;
    drop(out);
    (took, forks)
}

/// One table row: `reps` runs of `op` over `input()` under each pool,
/// alternating so that drift of the box lands on both; `per` operations
/// per run, times printed in `unit`s of `scale` seconds.
fn row<I: Send, O: Send>(
    name: &str,
    (unit, scale, reps): (&str, f64, usize),
    per: usize,
    mut input: impl FnMut() -> I,
    mut op: impl FnMut(I) -> O + Send,
) {
    let (mut pool, mut t1, mut forks) = (Vec::new(), Vec::new(), 0);
    for _ in 0..reps {
        let (took, forked) = timed(&mut input, &mut op);
        pool.push(took);
        forks += forked;
        let (took, _) = timed(&mut input, |arg| parlay::with_threads(1, || op(arg)));
        t1.push(took);
    }
    pool.sort_by(f64::total_cmp);
    t1.sort_by(f64::total_cmp);
    let each = |t: f64| t / per as f64 / scale;
    println!(
        "{name:28} {unit:>6} {:10.2} {:10.2} {:10.2} {:10.2} {:8.2} {:10.1}",
        each(pool[reps / 4]),
        each(pool[reps / 2]),
        each(t1[reps / 4]),
        each(t1[reps / 2]),
        pool[reps / 2] / t1[reps / 2],
        forks as f64 / reps as f64,
    );
}

/// A query set, or one small batch into 10⁶ keys: microseconds per
/// operation, 25 runs.
const US: (&str, f64, usize) = ("us/op", 1e-6, 25);
/// A bulk operation on 10⁶ keys: nanoseconds per key, 9 runs.
const NS: (&str, f64, usize) = ("ns/key", 1e-9, 9);

fn main() {
    println!(
        "# {} cores, seed {SEED}; pool = default, t1 = parlay::with_threads(1); q1 = lower quartile, med = median",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    println!(
        "{:28} {:>6} {:>10} {:>10} {:>10} {:>10} {:>8} {:>10}",
        "op", "unit", "pool_q1", "pool_med", "t1_q1", "t1_med", "pool/t1", "forks/run"
    );

    let imap = IntervalMap::from_intervals(workloads::random_intervals(
        1_000_000, SEED, UNIVERSE, 2_000,
    ));
    let stabs = picks(0x33, 30_000, UNIVERSE);
    let reports = picks(0x34, 1_000, UNIVERSE);
    row(
        "interval stab",
        US,
        stabs.len(),
        || (),
        |()| stabs.iter().filter(|&&p| imap.stab(p)).count(),
    );
    row(
        "interval report_all",
        US,
        reports.len(),
        || (),
        |()| {
            reports
                .iter()
                .map(|&p| imap.report_all(p).len())
                .sum::<usize>()
        },
    );
    drop(imap);

    let rtree = RangeTree::build(workloads::random_points(200_000, SEED, SIDE));
    let sum_windows = windows(0x35, 2_250, 0.1);
    let point_windows = windows(0x37, 2_250, 0.02);
    row(
        "rangetree query_sum",
        US,
        sum_windows.len(),
        || (),
        |()| {
            sum_windows.iter().fold(0u64, |a, &(xl, xr, yl, yr)| {
                a.wrapping_add(rtree.query_sum(xl, xr, yl, yr))
            })
        },
    );
    row(
        "rangetree query_points",
        US,
        point_windows.len(),
        || (),
        |()| {
            point_windows
                .iter()
                .map(|&(xl, xr, yl, yr)| rtree.query_points(xl, xr, yl, yr).len())
                .sum::<usize>()
        },
    );
    drop(rtree);

    let corpus = Corpus::generate(CorpusConfig {
        docs: 10_000,
        vocab: 50_000,
        doc_len: 200,
        zipf_s: 1.0,
        seed: SEED,
    });
    let index = InvertedIndex::build(corpus.triples);
    // word ids are frequency ranks: posting lists of a few hundred to a
    // few thousand documents
    let term = |j: u64| 64 + (hash64(j) % 256) as u32;
    let terms: Vec<(u32, u32)> = picks(0x3a, 180, 4_096)
        .into_iter()
        .map(|j| (term(2 * j), term(2 * j + 1)))
        .collect();
    row(
        "index and_query",
        US,
        terms.len(),
        || (),
        |()| {
            terms
                .iter()
                .map(|&(a, b)| index.and_query(a, b).len())
                .sum::<usize>()
        },
    );
    row(
        "index or_query",
        US,
        terms.len(),
        || (),
        |()| {
            terms
                .iter()
                .map(|&(a, b)| index.or_query(a, b).len())
                .sum::<usize>()
        },
    );
    row(
        "index or_query + top_k",
        US,
        terms.len(),
        || (),
        |()| {
            terms
                .iter()
                .map(|&(a, b)| top_k(&index.or_query(a, b), 10).len())
                .sum::<usize>()
        },
    );
    drop(index);

    let pairs = |tag: u64, n: usize| -> Vec<(u64, u64)> {
        picks(tag, n, 4 * BULK_N as u64)
            .into_iter()
            .map(|k| (k, hash64(k ^ tag)))
            .collect()
    };
    let (pairs_a, pairs_b, pairs_small) = (
        pairs(0x10, BULK_N),
        pairs(0x11, BULK_N),
        pairs(0x12, BULK_N / 1000),
    );
    let (a, b) = (
        SumMap::build(pairs_a.clone()),
        SumMap::build(pairs_b.clone()),
    );
    let small = SumMap::build(pairs_small.clone());
    row("build 1e6", NS, BULK_N, || pairs_a.clone(), SumMap::build);
    row(
        "union 1e6 u 1e6",
        NS,
        BULK_N,
        || (a.clone(), b.clone()),
        |(x, y)| x.union(y),
    );
    row(
        "multi_insert 1e6 into 1e6",
        NS,
        BULK_N,
        || (a.clone(), pairs_b.clone()),
        |(mut m, batch)| {
            m.multi_insert(batch);
            m
        },
    );
    row(
        "union 1e6 u 1e3",
        US,
        1,
        || (a.clone(), small.clone()),
        |(x, y)| x.union(y),
    );
    row(
        "multi_insert 1e3 into 1e6",
        US,
        1,
        || (a.clone(), pairs_small.clone()),
        |(mut m, batch)| {
            m.multi_insert(batch);
            m
        },
    );
    row(
        "par_sort_by 1e6",
        NS,
        BULK_N,
        || pairs_a.clone(),
        |mut v| {
            parlay::par_sort_by(&mut v, |x, y| x.0.cmp(&y.0));
            v
        },
    );
}
