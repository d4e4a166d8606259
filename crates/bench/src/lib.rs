//! Shared harness utilities for the table/figure reproduction binaries.
//!
//! Conventions, mirroring the paper's §6:
//!
//! * **T1** — wall time with a single worker thread;
//! * **Tp** — wall time with all hardware threads;
//! * **Spd.** — T1 / Tp;
//! * sizes are the paper's, scaled down by default to laptop scale and
//!   multipliable via the `PAM_SCALE` environment variable (e.g.
//!   `PAM_SCALE=0.1` for a quick smoke run, `PAM_SCALE=10` for the full
//!   sizes on a big machine).
//!
//! Every binary prints the rows of the corresponding paper table/figure
//! with the same row/series structure, so paper-vs-measured comparisons
//! (EXPERIMENTS.md) are one-to-one.

use std::time::Instant;

/// The global size multiplier (`PAM_SCALE`, default 1.0).
pub fn scale() -> f64 {
    std::env::var("PAM_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1.0)
}

/// Scale a default input size by `PAM_SCALE` (at least 1).
pub fn scaled(n: usize) -> usize {
    ((n as f64) * scale()).max(1.0) as usize
}

/// Wall-time a closure, returning (result, seconds).
pub fn time<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed().as_secs_f64())
}

/// Best (minimum) of `k` timed runs of `f` (each run gets fresh input
/// from `mk`).
pub fn time_best_of<I, R>(k: usize, mut mk: impl FnMut() -> I, mut f: impl FnMut(I) -> R) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..k.max(1) {
        let input = mk();
        let start = Instant::now();
        let r = f(input);
        best = best.min(start.elapsed().as_secs_f64());
        drop(r);
    }
    best
}

/// Run `f` on a pool with `p` threads (1 = the paper's "T1" column).
pub fn with_threads<R: Send>(p: usize, f: impl FnOnce() -> R + Send) -> R {
    parlay::with_threads(p, f)
}

/// Wrapping sum of `f` over `items`, evaluated in parallel: the query
/// loop of every table (a count is the sum of `u64::from(hit)`).
pub fn par_sum<T: Sync>(items: &[T], f: impl Fn(&T) -> u64 + Sync) -> u64 {
    parlay::reduce(items.len(), |i| f(&items[i]), u64::wrapping_add, 0)
}

/// All hardware threads.
pub fn max_threads() -> usize {
    std::thread::available_parallelism().map_or(2, |n| n.get())
}

/// The thread counts swept in the figure reproductions (paper: 1..144;
/// here: 1..#cores).
pub fn thread_counts() -> Vec<usize> {
    let mut v = vec![1usize];
    let mut p = 2;
    while p < max_threads() {
        v.push(p);
        p *= 2;
    }
    if *v.last().unwrap() != max_threads() {
        v.push(max_threads());
    }
    v
}

/// Simple fixed-width table printer.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (stringified cells).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len());
        self.rows.push(cells);
    }

    /// Render to stdout.
    pub fn print(&self) {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let line = |cells: &[String]| {
            let mut s = String::new();
            for (i, c) in cells.iter().enumerate() {
                s.push_str(&format!("{:<width$}  ", c, width = widths[i]));
            }
            println!("{}", s.trim_end());
        };
        line(&self.headers);
        println!(
            "{}",
            widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<_>>()
                .join("  ")
        );
        for row in &self.rows {
            line(row);
        }
    }
}

/// Format seconds with sensible precision.
pub fn fmt_secs(s: f64) -> String {
    if s < 0.001 {
        format!("{:.1}us", s * 1e6)
    } else if s < 1.0 {
        format!("{:.2}ms", s * 1e3)
    } else {
        format!("{:.3}s", s)
    }
}

/// Format a throughput in million elements per second.
pub fn fmt_meps(n: usize, secs: f64) -> String {
    format!("{:.2}", n as f64 / secs / 1e6)
}

/// Format a speedup column.
pub fn fmt_spd(t1: f64, tp: f64) -> String {
    format!("{:.2}", t1 / tp)
}

/// Print the standard experiment banner.
pub fn banner(what: &str, paper_ref: &str) {
    println!("=== {what} ===");
    println!(
        "(reproduces {paper_ref}; PAM_SCALE={}, {} hardware threads)",
        scale(),
        max_threads()
    );
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_respects_minimum() {
        assert!(scaled(10) >= 1);
    }

    #[test]
    fn table_prints() {
        let mut t = Table::new(&["a", "bb"]);
        t.row(vec!["1".into(), "2".into()]);
        t.print();
    }

    #[test]
    fn thread_counts_start_at_one() {
        let tc = thread_counts();
        assert_eq!(tc[0], 1);
        assert_eq!(*tc.last().unwrap(), max_threads());
    }

    #[test]
    fn fmt_helpers() {
        assert!(fmt_secs(0.0000005).ends_with("us"));
        assert!(fmt_secs(0.5).ends_with("ms"));
        assert!(fmt_secs(2.0).ends_with('s'));
        assert_eq!(fmt_meps(2_000_000, 1.0), "2.00");
    }
}
