//! Integer key/value workloads (Table 3, Figure 6 experiments).

use crate::rng::hash64;

/// `n` pseudo-random `(key, value)` pairs with keys uniform in
/// `[0, key_range)`. Duplicate keys appear with the natural birthday
/// rate, exactly like the paper's random-integer workloads. Generated in
/// parallel.
pub fn uniform_pairs(n: usize, seed: u64, key_range: u64) -> Vec<(u64, u64)> {
    assert!(key_range > 0);
    parlay::tabulate(n, |i| {
        let i = i as u64;
        (
            hash64(seed ^ (i.wrapping_mul(2))) % key_range,
            hash64(seed ^ (i.wrapping_mul(2) + 1)),
        )
    })
}

/// `n` *distinct* keys in pseudo-random order: a random permutation of
/// `{0·s, 1·s, ..., (n-1)·s}` (stride `s` spreads keys over the space).
pub fn distinct_shuffled_keys(n: usize, seed: u64, stride: u64) -> Vec<u64> {
    let mut keys: Vec<u64> = (0..n as u64).map(|i| i * stride).collect();
    // Fisher-Yates with the stateless hash
    for i in (1..n).rev() {
        let j = (hash64(seed ^ i as u64) % (i as u64 + 1)) as usize;
        keys.swap(i, j);
    }
    keys
}

/// `m` read probes for a YCSB-C-style (read-only) workload: uniform
/// indices into an existing key population.
pub fn read_probes(m: usize, seed: u64, population: &[u64]) -> Vec<u64> {
    assert!(!population.is_empty());
    parlay::tabulate(m, |i| {
        population[(hash64(seed ^ i as u64) % population.len() as u64) as usize]
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_pairs_in_range_and_deterministic() {
        let a = uniform_pairs(1000, 1, 500);
        let b = uniform_pairs(1000, 1, 500);
        assert_eq!(a, b);
        assert!(a.iter().all(|&(k, _)| k < 500));
        assert_eq!(a.len(), 1000);
    }

    #[test]
    fn distinct_keys_are_distinct() {
        let ks = distinct_shuffled_keys(10_000, 3, 7);
        let mut sorted = ks.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 10_000);
    }

    #[test]
    fn probes_come_from_population() {
        let pop: Vec<u64> = (0..100).map(|i| i * 13).collect();
        let probes = read_probes(1000, 5, &pop);
        let set: std::collections::HashSet<u64> = pop.iter().copied().collect();
        assert!(probes.iter().all(|p| set.contains(p)));
    }
}
