//! Parallel sorted-array union — the MCSTL bulk-insertion stand-in
//! (Table 3's "MCSTL Multi-Insert" rows).
//!
//! Bulk insertion into a sorted array: parallel-merge the (sorted) batch
//! with the existing data, combining values on key collisions. O(n + m)
//! work like the sequential array union, but with parallel merge span.

use std::mem::MaybeUninit;

/// Parallel union of two sorted-by-distinct-key slices; on key collisions
/// the result is `combine(a_val, b_val)`.
pub fn par_union(
    a: &[(u64, u64)],
    b: &[(u64, u64)],
    combine: impl Fn(u64, u64) -> u64 + Sync,
) -> Vec<(u64, u64)> {
    // merge keeping both duplicates adjacent (stable: a's copy first) ...
    // SAFETY: `par_merge_into` writes every slot of an `out` as long as
    // its two inputs together
    let merged = unsafe {
        parlay::par_fill(
            a.len() + b.len(),
            |out: &mut [MaybeUninit<(u64, u64)>]| {
                parlay::par_merge_into(a, b, out, &|x: &(u64, u64), y: &(u64, u64)| x.0.cmp(&y.0));
            },
        )
    };
    // ... then collapse the duplicate pairs in parallel.
    parlay::combine_duplicates_by(merged, |x, y| x.0 == y.0, |x, y| (x.0, combine(x.1, y.1)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_sequential_union() {
        let a: Vec<(u64, u64)> = (0..10_000).map(|i| (i * 2, i)).collect();
        let b: Vec<(u64, u64)> = (0..10_000).map(|i| (i * 3, i)).collect();
        let got = par_union(&a, &b, |x, y| x + y);
        let sa = crate::sorted_seq::SortedVecMap::from_sorted(a);
        let sb = crate::sorted_seq::SortedVecMap::from_sorted(b);
        let want = sa.union(&sb, |x, y| x + y);
        assert_eq!(got, want.as_slice());
    }

    #[test]
    fn empty_sides() {
        let a: Vec<(u64, u64)> = vec![(1, 1)];
        assert_eq!(par_union(&a, &[], |x, _| x), a);
        assert_eq!(par_union(&[], &a, |x, _| x), a);
    }
}
