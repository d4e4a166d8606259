//! Combining duplicate keys in a sorted sequence.
//!
//! PAM's `build(S, combine)` sorts the input and then merges entries with
//! equal keys using a user combine function (the paper's "remove the
//! duplicates, which are contiguous in sorted order"). This module performs
//! that group-combine step in parallel: mark group boundaries, pack the
//! boundary indices, and reduce each group independently.

use crate::par::{granularity, tabulate};
use crate::scan::pack_index;

/// Collapse runs of "same" elements in (sorted) `v`, combining each run
/// left-to-right with `combine` (so `combine(combine(x0, x1), x2)` for a
/// run of three). Order of surviving elements is preserved.
pub fn combine_duplicates_by<T, S, C>(v: Vec<T>, same: S, combine: C) -> Vec<T>
where
    T: Clone + Send + Sync,
    S: Fn(&T, &T) -> bool + Sync,
    C: Fn(&T, &T) -> T + Sync,
{
    let n = v.len();
    if n <= 1 {
        return v;
    }
    if n <= granularity() {
        // sequential: move the survivors, clone nothing
        let mut out: Vec<T> = Vec::with_capacity(n);
        for x in v {
            match out.last_mut() {
                Some(last) if same(last, &x) => *last = combine(last, &x),
                _ => out.push(x),
            }
        }
        return out;
    }
    // flags[i] = "i starts a new group"
    let flags = tabulate(n, |i| i == 0 || !same(&v[i - 1], &v[i]));
    let mut starts = pack_index(&flags);
    starts.push(n);
    tabulate(starts.len() - 1, |g| {
        let group = &v[starts[g]..starts[g + 1]];
        let mut acc = group[0].clone();
        for x in &group[1..] {
            acc = combine(&acc, x);
        }
        acc
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Combine the *values* of equal keys.
    fn combine_duplicates<K, V>(v: Vec<(K, V)>, combine: impl Fn(&V, &V) -> V + Sync) -> Vec<(K, V)>
    where
        K: PartialEq + Clone + Send + Sync,
        V: Clone + Send + Sync,
    {
        combine_duplicates_by(
            v,
            |a, b| a.0 == b.0,
            |a, b| (a.0.clone(), combine(&a.1, &b.1)),
        )
    }

    #[test]
    fn no_duplicates_is_identity() {
        let v: Vec<(u64, u64)> = (0..100).map(|i| (i, i * 2)).collect();
        let got = combine_duplicates(v.clone(), |a, b| a + b);
        assert_eq!(got, v);
    }

    #[test]
    fn sums_within_groups() {
        let v = vec![(1u64, 1u64), (1, 2), (2, 5), (3, 1), (3, 1), (3, 1)];
        let got = combine_duplicates(v, |a, b| a + b);
        assert_eq!(got, vec![(1, 3), (2, 5), (3, 3)]);
    }

    #[test]
    fn combine_is_left_to_right() {
        // Use a non-commutative combine (string concat) to pin the order.
        let v = vec![
            (1u8, "a".to_string()),
            (1, "b".to_string()),
            (1, "c".to_string()),
        ];
        let got = combine_duplicates(v, |a, b| format!("{a}{b}"));
        assert_eq!(got, vec![(1, "abc".to_string())]);
    }

    #[test]
    fn large_parallel_matches_sequential() {
        let v: Vec<(u64, u64)> = (0..200_000u64).map(|i| (i / 3, 1)).collect();
        let got = combine_duplicates(v.clone(), |a, b| a + b);
        // every key 0..66666 appears 3 times except possibly the tail
        assert_eq!(got.len(), 200_000_usize.div_ceil(3));
        assert!(got[..got.len() - 1].iter().all(|&(_, c)| c == 3));
        let total: u64 = got.iter().map(|&(_, c)| c).sum();
        assert_eq!(total, 200_000);
    }

    #[test]
    fn empty_and_single() {
        let e: Vec<(u8, u8)> = vec![];
        assert!(combine_duplicates(e, |a, _| *a).is_empty());
        let s = vec![(1u8, 9u8)];
        assert_eq!(combine_duplicates(s.clone(), |a, _| *a), s);
    }
}
