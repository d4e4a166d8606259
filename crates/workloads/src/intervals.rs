//! Interval workloads for the §5.1 / §6.2 experiments.

use crate::rng::hash64;

/// `n` random intervals `(left, right)` with `left` uniform in
/// `[0, universe)` and length `1..=max_len`; `left < right` always holds.
///
/// Mirrors the paper's interval-tree input: e.g. login sessions with a
/// bounded duration scattered over a long timeline.
pub fn random_intervals(n: usize, seed: u64, universe: u64, max_len: u64) -> Vec<(u64, u64)> {
    assert!(universe > 0 && max_len > 0);
    parlay::tabulate(n, |i| {
        let i = i as u64;
        let left = hash64(seed ^ (i * 2)) % universe;
        let len = 1 + hash64(seed ^ (i * 2 + 1)) % max_len;
        (left, left + len)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intervals_are_well_formed() {
        for (l, r) in random_intervals(10_000, 11, 1 << 30, 1000) {
            assert!(l < r);
            assert!(r <= (1 << 30) + 1000);
        }
    }

    #[test]
    fn deterministic() {
        assert_eq!(
            random_intervals(100, 5, 1000, 10),
            random_intervals(100, 5, 1000, 10)
        );
    }
}
