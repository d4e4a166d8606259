//! Table 1 reproduction: the headline construct/query times and speedups
//! of the four applications (range sum, interval tree, 2D range tree,
//! inverted index).
//!
//! Paper sizes: 10^8–10^10 elements on 72 cores. Defaults here are
//! laptop-scale (see each row's n/q columns); the *shape* to check is
//! construct work ~ n log n, query times in the µs range, and parallel
//! speedup > 1 on every row.

use pam::{AugMap, SumAug};
use pam_bench::*;
use pam_index::{top_k, InvertedIndex};
use pam_interval::IntervalMap;
use pam_rangetree::RangeTree;

fn main() {
    banner(
        "Table 1: application construct/query times",
        "Table 1 of the paper",
    );
    let p = max_threads();
    let mut t = Table::new(&[
        "Application",
        "n",
        "q",
        "Con.T1",
        "Con.Tp",
        "Con.Spd",
        "Qry.T1",
        "Qry.Tp",
        "Qry.Spd",
    ]);

    // ---- Range sum (Equation 1) ----
    {
        let n = scaled(2_000_000);
        let q = scaled(1_000_000);
        let pairs = workloads::uniform_pairs(n, 1, n as u64 * 4);
        let build = |()| AugMap::<SumAug<u64, u64>>::build(pairs.clone());
        let _warm = with_threads(p, || time_best_of(1, || (), build));
        let c1 = with_threads(1, || time_best_of(2, || (), build));
        let cp = with_threads(p, || time_best_of(2, || (), build));
        let m = AugMap::<SumAug<u64, u64>>::build(pairs.clone());
        let windows: Vec<(u64, u64)> = (0..q as u64)
            .map(|i| {
                let lo = workloads::hash64(i) % (n as u64 * 4);
                (lo, lo + 1000)
            })
            .collect();
        let run_q =
            |m: &AugMap<SumAug<u64, u64>>| par_sum(&windows, |&(lo, hi)| m.aug_range(&lo, &hi));
        let _warm = with_threads(p, || time(|| run_q(&m)).1);
        let q1 = with_threads(1, || time(|| run_q(&m)).1.min(time(|| run_q(&m)).1));
        let qp = with_threads(p, || time(|| run_q(&m)).1.min(time(|| run_q(&m)).1));
        t.row(vec![
            "Range Sum".into(),
            n.to_string(),
            q.to_string(),
            fmt_secs(c1),
            fmt_secs(cp),
            fmt_spd(c1, cp),
            fmt_secs(q1),
            fmt_secs(qp),
            fmt_spd(q1, qp),
        ]);
    }

    // ---- Interval tree ----
    {
        let n = scaled(1_000_000);
        let q = scaled(1_000_000);
        let universe = n as u64 * 10;
        let ivals = workloads::random_intervals(n, 2, universe, 200);
        let build = |()| IntervalMap::from_intervals(ivals.clone());
        let _warm = with_threads(p, || time_best_of(1, || (), build));
        let c1 = with_threads(1, || time_best_of(2, || (), build));
        let cp = with_threads(p, || time_best_of(2, || (), build));
        let m = IntervalMap::from_intervals(ivals.clone());
        let stabs = workloads::intervals::stab_points(q, 3, universe);
        let run_q = |m: &IntervalMap| par_sum(&stabs, |&x| u64::from(m.stab(x)));
        let _warm = with_threads(p, || time(|| run_q(&m)).1);
        let q1 = with_threads(1, || time(|| run_q(&m)).1.min(time(|| run_q(&m)).1));
        let qp = with_threads(p, || time(|| run_q(&m)).1.min(time(|| run_q(&m)).1));
        t.row(vec![
            "Interval Tree".into(),
            n.to_string(),
            q.to_string(),
            fmt_secs(c1),
            fmt_secs(cp),
            fmt_spd(c1, cp),
            fmt_secs(q1),
            fmt_secs(qp),
            fmt_spd(q1, qp),
        ]);
    }

    // ---- 2D range tree ----
    {
        let n = scaled(200_000);
        let q = scaled(20_000);
        let universe = 1u32 << 20;
        let pts = workloads::random_points(n, 4, universe);
        let build = |()| RangeTree::build(pts.clone());
        let _warm = with_threads(p, || time_best_of(1, || (), build));
        let c1 = with_threads(1, || time_best_of(2, || (), build));
        let cp = with_threads(p, || time_best_of(2, || (), build));
        let rt = RangeTree::build(pts.clone());
        let windows = workloads::points::query_windows(q, 5, universe, 0.1);
        let run_q =
            |rt: &RangeTree| par_sum(&windows, |&(xl, xr, yl, yr)| rt.query_sum(xl, xr, yl, yr));
        let _warm = with_threads(p, || time(|| run_q(&rt)).1);
        let q1 = with_threads(1, || time(|| run_q(&rt)).1.min(time(|| run_q(&rt)).1));
        let qp = with_threads(p, || time(|| run_q(&rt)).1.min(time(|| run_q(&rt)).1));
        t.row(vec![
            "2d Range Tree".into(),
            n.to_string(),
            q.to_string(),
            fmt_secs(c1),
            fmt_secs(cp),
            fmt_spd(c1, cp),
            fmt_secs(q1),
            fmt_secs(qp),
            fmt_spd(q1, qp),
        ]);
    }

    // ---- Inverted index ----
    {
        let docs = scaled(20_000);
        let q = scaled(10_000);
        let corpus = workloads::Corpus::generate(workloads::CorpusConfig {
            docs,
            vocab: 50_000.min(docs * 5),
            doc_len: 100,
            zipf_s: 1.0,
            seed: 6,
        });
        let n = corpus.tokens();
        let build = |()| InvertedIndex::build(corpus.triples.clone());
        let _warm = with_threads(p, || time_best_of(1, || (), build));
        let c1 = with_threads(1, || time_best_of(2, || (), build));
        let cp = with_threads(p, || time_best_of(2, || (), build));
        let idx = InvertedIndex::build(corpus.triples.clone());
        let queries = corpus.query_pairs(q, 7);
        let run_q = |idx: &InvertedIndex| {
            par_sum(&queries, |&(a, b)| {
                top_k(&idx.and_query(a, b), 10).len() as u64
            })
        };
        let _warm = with_threads(p, || time(|| run_q(&idx)).1);
        let q1 = with_threads(1, || time(|| run_q(&idx)).1.min(time(|| run_q(&idx)).1));
        let qp = with_threads(p, || time(|| run_q(&idx)).1.min(time(|| run_q(&idx)).1));
        t.row(vec![
            "Inverted Index".into(),
            n.to_string(),
            q.to_string(),
            fmt_secs(c1),
            fmt_secs(cp),
            fmt_spd(c1, cp),
            fmt_secs(q1),
            fmt_secs(qp),
            fmt_spd(q1, qp),
        ]);
    }

    t.print();
}
