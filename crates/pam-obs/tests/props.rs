//! Property tests for the histogram: percentile estimates against an
//! exact-sort oracle, merge algebra, and concurrent-recorder
//! consistency.

use pam_obs::{Histogram, HistogramSnapshot};
use proptest::prelude::*;

/// Record a slice into a fresh histogram.
fn hist_of(values: &[u64]) -> Histogram {
    let h = Histogram::new();
    for &v in values {
        h.record(v);
    }
    h
}

/// The exact order statistic the histogram's `quantile(q)` estimates:
/// rank `ceil(q * n)` (1-based) of the sorted values.
fn oracle(sorted: &[u64], q: f64) -> u64 {
    let n = sorted.len() as u64;
    let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
    sorted[(rank - 1) as usize]
}

/// Mixed-magnitude value strategy: exercises the exact sub-16 buckets,
/// mid-range octaves, and the top of the u64 range.
fn values() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(
        prop_oneof![
            0u64..16,
            16u64..4096,
            4096u64..10_000_000,
            (1u64 << 40)..u64::MAX,
            Just(u64::MAX),
        ],
        1..300,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn quantiles_match_exact_sort_oracle(vals in values()) {
        let snap = hist_of(&vals).snapshot();
        let mut sorted = vals.clone();
        sorted.sort_unstable();
        for q in [0.0, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let exact = oracle(&sorted, q);
            let est = snap.quantile(q);
            // within one bucket's width of the true order statistic:
            // buckets are exact below 16 and <= 1/16 relative above
            let tol = exact / 16 + 1;
            prop_assert!(
                est.abs_diff(exact) <= tol,
                "q={q}: est {est} vs exact {exact} (tol {tol})"
            );
        }
        prop_assert_eq!(snap.max(), *sorted.last().unwrap());
        prop_assert_eq!(snap.count(), vals.len() as u64);
    }

    #[test]
    fn merge_is_associative_and_order_free(
        a in values(),
        b in values(),
        c in values(),
    ) {
        let (sa, sb, sc) = (
            hist_of(&a).snapshot(),
            hist_of(&b).snapshot(),
            hist_of(&c).snapshot(),
        );
        // (a ⊕ b) ⊕ c
        let mut left = sa.clone();
        left.merge(&sb);
        left.merge(&sc);
        // a ⊕ (b ⊕ c)
        let mut right_tail = sb.clone();
        right_tail.merge(&sc);
        let mut right = sa.clone();
        right.merge(&right_tail);
        prop_assert_eq!(&left, &right);
        // and both equal recording everything into one histogram
        let all: Vec<u64> = a.iter().chain(&b).chain(&c).copied().collect();
        prop_assert_eq!(&left, &hist_of(&all).snapshot());
        // merging an empty snapshot is the identity
        let mut id = left.clone();
        id.merge(&HistogramSnapshot::default());
        prop_assert_eq!(&id, &left);
    }

    #[test]
    fn snapshot_roundtrips_through_buckets(vals in values()) {
        // count/sum/max are exact regardless of bucketing
        let snap = hist_of(&vals).snapshot();
        prop_assert_eq!(snap.count(), vals.len() as u64);
        prop_assert_eq!(snap.sum(), vals.iter().fold(0u64, |s, &v| s.wrapping_add(v)));
        prop_assert_eq!(snap.max(), *vals.iter().max().unwrap());
    }
}

#[test]
fn concurrent_recorders_lose_nothing() {
    // Hammer one histogram from eight threads: every recorded
    // value must land (count and sum exact), matching a sequential
    // reference run.
    const THREADS: usize = 8;
    const PER_THREAD: u64 = 10_000;
    let shared = Histogram::new();
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let shared = &shared;
            s.spawn(move || {
                for i in 0..PER_THREAD {
                    shared.record((t as u64 + 1) * 37 + i * i % 100_003);
                }
            });
        }
    });
    let reference = Histogram::new();
    for t in 0..THREADS {
        for i in 0..PER_THREAD {
            reference.record((t as u64 + 1) * 37 + i * i % 100_003);
        }
    }
    assert_eq!(shared.snapshot(), reference.snapshot());
    assert_eq!(shared.count(), THREADS as u64 * PER_THREAD);
}
