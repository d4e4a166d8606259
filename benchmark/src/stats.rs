//! Order statistics: medians over repetitions, latency percentiles, and
//! the quartile spread the regression gate is judged by.

/// Median of `values` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice: every timed quantity has a fixed, nonzero
/// repetition count, so an empty sample is a bug in the caller.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile of an ascending slice; `q` in `[0, 1]`.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// A latency sample reduced the way every report here states a timing:
/// the median, and the highest percentile that still has at least ten
/// samples beyond it, with the sample count.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Latency {
    /// Samples summarized.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// 99th percentile (reported by name in the per-layer metrics).
    pub p99: f64,
    /// The highest of p90 / p99 / p99.9 / p99.99 with >= 10 samples
    /// beyond it (`0.5` when the sample is too small for any of them).
    pub tail_q: f64,
    /// Value at `tail_q`.
    pub tail: f64,
}

/// Candidate tail percentiles as `1 - 1/den`.
const TAIL_DENS: [usize; 4] = [10, 100, 1_000, 10_000];

impl Latency {
    /// Summarize `samples` (any order; sorted in place).
    pub fn of(samples: &mut [f64]) -> Latency {
        samples.sort_by(f64::total_cmp);
        let n = samples.len();
        // n / den samples lie beyond the percentile 1 - 1/den
        let tail_q = TAIL_DENS
            .iter()
            .filter(|&&den| n / den >= 10)
            .map(|&den| 1.0 - 1.0 / den as f64)
            .fold(0.5, f64::max);
        Latency {
            n,
            p50: percentile(samples, 0.5),
            p99: percentile(samples, 0.99),
            tail_q,
            tail: percentile(samples, tail_q),
        }
    }
}

impl std::fmt::Display for Latency {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "p50 {:.1} / p{} {:.1} over {} samples",
            self.p50,
            self.tail_q * 100.0,
            self.tail,
            self.n
        )
    }
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` computes
/// them (the default "exclusive" method), so `compare` judges spread
/// with the same arithmetic the acceptance driver uses.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Interquartile distance as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(values);
    (q3 - q1) / median(values).abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        // 1..=1000: ten samples lie beyond p99 (991..=1000), one beyond p99.9
        let mut s: Vec<f64> = (1..=1000).map(f64::from).collect();
        let l = Latency::of(&mut s);
        assert_eq!(l.n, 1000);
        assert_eq!(l.p50, 500.0);
        assert_eq!(l.tail_q, 0.99);
        assert_eq!(l.tail, 990.0);
        assert_eq!(l.p99, 990.0);

        // 100 samples support p90 only
        let mut s: Vec<f64> = (1..=100).map(f64::from).collect();
        let l = Latency::of(&mut s);
        assert_eq!(l.tail_q, 0.9);
        assert_eq!(l.tail, 90.0);

        // 15 samples support no tail percentile: fall back to the median
        let mut s: Vec<f64> = (1..=15).map(f64::from).collect();
        let l = Latency::of(&mut s);
        assert_eq!(l.tail_q, 0.5);
        assert_eq!(l.tail, l.p50);

        // 100 000 samples reach p99.99
        let mut s: Vec<f64> = (1..=100_000).map(f64::from).collect();
        assert_eq!(Latency::of(&mut s).tail_q, 0.9999);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) -> [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([10, 20, 40], n=4) -> [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), [10.0, 20.0, 40.0]);
        // spread = (8.25 - 2.75) / 5.5
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }
}
