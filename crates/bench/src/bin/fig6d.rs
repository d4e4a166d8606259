//! Figure 6(d) reproduction: interval tree construction and query
//! speedup vs thread count.
//!
//! Paper: n = 10^8 intervals, speedup up to 63x (build) / 92x (query) on
//! 144 hyperthreads. Shape to check: both curves rise monotonically with
//! the thread count (here capped by the hardware).

use pam_bench::*;
use pam_interval::IntervalMap;

fn main() {
    banner(
        "Figure 6(d): interval tree speedup vs threads",
        "Figure 6(d)",
    );
    let n = scaled(1_000_000);
    let q = scaled(1_000_000);
    let universe = n as u64 * 10;
    let ivals = workloads::random_intervals(n, 1, universe, 200);
    let stabs = workloads::intervals::stab_points(q, 2, universe);
    let im = IntervalMap::from_intervals(ivals.clone());

    let _warm = with_threads(1, || time(|| IntervalMap::from_intervals(ivals.clone())).1);
    let build_t1 = with_threads(1, || {
        time(|| IntervalMap::from_intervals(ivals.clone()))
            .1
            .min(time(|| IntervalMap::from_intervals(ivals.clone())).1)
    });
    let query_t1 = with_threads(1, || time(|| par_sum(&stabs, |&x| u64::from(im.stab(x)))).1);

    let mut t = Table::new(&["threads", "Build spd", "Query spd"]);
    for p in thread_counts() {
        let bt = with_threads(p, || time(|| IntervalMap::from_intervals(ivals.clone())).1);
        let qt = with_threads(p, || time(|| par_sum(&stabs, |&x| u64::from(im.stab(x)))).1);
        t.row(vec![
            p.to_string(),
            fmt_spd(build_t1, bt),
            fmt_spd(query_t1, qt),
        ]);
    }
    t.print();
}
