//! Table 5 reproduction: interval tree and 2D range tree timings, PAM vs
//! the sequential specialized baselines (CGAL-equivalent static range
//! tree; Python-intervaltree-equivalent brute list).
//!
//! Shape to check: PAM builds beat the static baseline sequentially and
//! scale with cores; Q-Sum ≪ Q-All; the brute-force interval baseline is
//! orders of magnitude slower per query.

use pam_bench::*;
use pam_interval::IntervalMap;
use pam_rangetree::RangeTree;

fn main() {
    banner(
        "Table 5: interval & range tree vs specialized baselines",
        "Table 5 of the paper",
    );
    let p = max_threads();
    let mut t = Table::new(&["Lib", "Func", "n", "m", "T1", &format!("T{p}"), "Spd."]);

    // ---------------- interval tree ----------------
    let n = scaled(1_000_000);
    let m = scaled(1_000_000);
    let universe = n as u64 * 10;
    let ivals = workloads::random_intervals(n, 1, universe, 200);
    let stabs = workloads::intervals::stab_points(m, 2, universe);

    let b1 = with_threads(1, || time(|| IntervalMap::from_intervals(ivals.clone())).1);
    let bp = with_threads(p, || time(|| IntervalMap::from_intervals(ivals.clone())).1);
    t.row(vec![
        "PAM (interval)".into(),
        "Build".into(),
        n.to_string(),
        "-".into(),
        fmt_secs(b1),
        fmt_secs(bp),
        fmt_spd(b1, bp),
    ]);
    let im = IntervalMap::from_intervals(ivals.clone());
    let run_q = |im: &IntervalMap| par_sum(&stabs, |&x| u64::from(im.stab(x)));
    let q1 = with_threads(1, || time(|| run_q(&im)).1);
    let qp = with_threads(p, || time(|| run_q(&im)).1);
    t.row(vec![
        "PAM (interval)".into(),
        "Query".into(),
        n.to_string(),
        m.to_string(),
        fmt_secs(q1),
        fmt_secs(qp),
        fmt_spd(q1, qp),
    ]);

    // brute-force baseline (Python intervaltree stand-in): tiny m only
    let small_m = scaled(100).max(1);
    let blist = baselines::IntervalList::from_intervals(ivals.clone());
    let (_, tb) = time(|| {
        stabs[..small_m.min(stabs.len())]
            .iter()
            .filter(|&&x| blist.stab(x))
            .count()
    });
    t.row(vec![
        "Brute list".into(),
        "Query".into(),
        n.to_string(),
        small_m.to_string(),
        fmt_secs(tb),
        "-".into(),
        "-".into(),
    ]);
    let per_pam = q1 / m as f64;
    let per_brute = tb / small_m as f64;
    println!(
        "(per-query: PAM {:.2}us vs brute {:.2}us -> {:.0}x)",
        per_pam * 1e6,
        per_brute * 1e6,
        per_brute / per_pam
    );

    // ---------------- 2D range tree ----------------
    let n = scaled(200_000);
    let m_sum = scaled(100_000);
    let m_all = scaled(1_000);
    let universe = 1u32 << 20;
    let pts = workloads::random_points(n, 3, universe);

    let b1 = with_threads(1, || time(|| RangeTree::build(pts.clone())).1);
    let bp = with_threads(p, || time(|| RangeTree::build(pts.clone())).1);
    t.row(vec![
        "PAM (range)".into(),
        "Build".into(),
        n.to_string(),
        "-".into(),
        fmt_secs(b1),
        fmt_secs(bp),
        fmt_spd(b1, bp),
    ]);
    let rt = RangeTree::build(pts.clone());
    let wins_sum = workloads::points::query_windows(m_sum, 4, universe, 0.05);
    let run_sum =
        |rt: &RangeTree| par_sum(&wins_sum, |&(xl, xr, yl, yr)| rt.query_sum(xl, xr, yl, yr));
    let q1 = with_threads(1, || time(|| run_sum(&rt)).1);
    let qp = with_threads(p, || time(|| run_sum(&rt)).1);
    t.row(vec![
        "PAM (range)".into(),
        "Q-Sum".into(),
        n.to_string(),
        m_sum.to_string(),
        fmt_secs(q1),
        fmt_secs(qp),
        fmt_spd(q1, qp),
    ]);
    // Q-All with ~10% windows (output ~ n/100 per query)
    let wins_all = workloads::points::query_windows(m_all, 5, universe, 0.1);
    let run_all = |rt: &RangeTree| {
        par_sum(&wins_all, |&(xl, xr, yl, yr)| {
            rt.query_points(xl, xr, yl, yr).len() as u64
        })
    };
    let qa1 = with_threads(1, || time(|| run_all(&rt)).1);
    let qap = with_threads(p, || time(|| run_all(&rt)).1);
    t.row(vec![
        "PAM (range)".into(),
        "Q-All".into(),
        n.to_string(),
        m_all.to_string(),
        fmt_secs(qa1),
        fmt_secs(qap),
        fmt_spd(qa1, qap),
    ]);

    // CGAL-equivalent static range tree (sequential only, like CGAL)
    let (_, cb) = time(|| baselines::StaticRangeTree::build(pts.clone()));
    t.row(vec![
        "CGAL-eq (static)".into(),
        "Build".into(),
        n.to_string(),
        "-".into(),
        fmt_secs(cb),
        "-".into(),
        "-".into(),
    ]);
    let srt = baselines::StaticRangeTree::build(pts.clone());
    let (_, cs) = time(|| {
        wins_sum
            .iter()
            .map(|&(xl, xr, yl, yr)| srt.query_sum(xl, xr, yl, yr))
            .fold(0u64, u64::wrapping_add)
    });
    t.row(vec![
        "CGAL-eq (static)".into(),
        "Q-Sum".into(),
        n.to_string(),
        m_sum.to_string(),
        fmt_secs(cs),
        "-".into(),
        "-".into(),
    ]);
    let (_, ca) = time(|| {
        wins_all
            .iter()
            .map(|&(xl, xr, yl, yr)| srt.query_points(xl, xr, yl, yr).len())
            .sum::<usize>()
    });
    t.row(vec![
        "CGAL-eq (static)".into(),
        "Q-All".into(),
        n.to_string(),
        m_all.to_string(),
        fmt_secs(ca),
        "-".into(),
        "-".into(),
    ]);

    t.print();
}
