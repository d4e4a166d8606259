//! Parallel merge of sorted sequences.
//!
//! The classic divide-and-conquer merge: split the larger input at its
//! midpoint, binary-search the split key in the smaller input, and merge
//! the two halves in parallel. Work O(n + m), span O(log n · log m).

use crate::par::{granularity, par2_if};
use std::cmp::Ordering;
use std::mem::MaybeUninit;

/// Index of the first element of `s` that is `>= key` (lower bound).
fn lower_bound<T, F: Fn(&T, &T) -> Ordering>(s: &[T], key: &T, cmp: &F) -> usize {
    let mut lo = 0;
    let mut hi = s.len();
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if cmp(&s[mid], key) == Ordering::Less {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Merge sorted `a` and `b` into the uninitialized destination `out`
/// (which must have length `a.len() + b.len()`), in parallel.
///
/// Stable with respect to `a` before `b` on ties. Every slot of `out` is
/// initialized on return.
pub fn par_merge_into<T, F>(a: &[T], b: &[T], out: &mut [MaybeUninit<T>], cmp: &F)
where
    T: Clone + Send + Sync,
    F: Fn(&T, &T) -> Ordering + Sync,
{
    debug_assert_eq!(a.len() + b.len(), out.len());
    if out.len() <= granularity() {
        let (mut i, mut j, mut k) = (0, 0, 0);
        while i < a.len() && j < b.len() {
            if cmp(&b[j], &a[i]) == Ordering::Less {
                out[k] = MaybeUninit::new(b[j].clone());
                j += 1;
            } else {
                out[k] = MaybeUninit::new(a[i].clone());
                i += 1;
            }
            k += 1;
        }
        for x in &a[i..] {
            out[k] = MaybeUninit::new(x.clone());
            k += 1;
        }
        for x in &b[j..] {
            out[k] = MaybeUninit::new(x.clone());
            k += 1;
        }
        return;
    }
    // Split the larger side at its midpoint; ties go to `a` so stability holds.
    if a.len() >= b.len() {
        let am = a.len() / 2;
        let bm = lower_bound(b, &a[am], cmp);
        let (out_l, out_r) = out.split_at_mut(am + bm);
        par2_if(
            true,
            || par_merge_into(&a[..am], &b[..bm], out_l, cmp),
            || par_merge_into(&a[am..], &b[bm..], out_r, cmp),
        );
    } else {
        let bm = b.len() / 2;
        // Elements of `a` equal to b[bm] must land *before* it: use the
        // first index of `a` strictly greater than b[bm].
        let am = upper_bound(a, &b[bm], cmp);
        let (out_l, out_r) = out.split_at_mut(am + bm);
        par2_if(
            true,
            || par_merge_into(&a[..am], &b[..bm], out_l, cmp),
            || par_merge_into(&a[am..], &b[bm..], out_r, cmp),
        );
    }
}

/// Index of the first element of `s` that is `> key` (upper bound).
fn upper_bound<T, F: Fn(&T, &T) -> Ordering>(s: &[T], key: &T, cmp: &F) -> usize {
    let mut lo = 0;
    let mut hi = s.len();
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if cmp(&s[mid], key) == Ordering::Greater {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::uninit::par_fill;

    fn par_merge<T, F>(a: &[T], b: &[T], cmp: F) -> Vec<T>
    where
        T: Clone + Send + Sync,
        F: Fn(&T, &T) -> Ordering + Sync,
    {
        // SAFETY: `par_merge_into` writes every slot of an `out` as long
        // as its two inputs together
        unsafe { par_fill(a.len() + b.len(), |out| par_merge_into(a, b, out, &cmp)) }
    }

    fn check_merge(a: Vec<u64>, b: Vec<u64>) {
        let mut expect = [a.clone(), b.clone()].concat();
        expect.sort();
        assert_eq!(par_merge(&a, &b, |x, y| x.cmp(y)), expect);
    }

    #[test]
    fn merges_small() {
        check_merge(vec![1, 3, 5], vec![2, 4, 6]);
        check_merge(vec![], vec![1, 2]);
        check_merge(vec![1, 2], vec![]);
        check_merge(vec![], vec![]);
        check_merge(vec![1, 1, 1], vec![1, 1]);
    }

    #[test]
    fn merges_large_parallel() {
        let a: Vec<u64> = (0..50_000).map(|i| i * 2).collect();
        let b: Vec<u64> = (0..30_000).map(|i| i * 3 + 1).collect();
        check_merge(a, b);
    }

    #[test]
    fn merge_is_stable() {
        // pairs (key, origin); all keys equal -- `a` elements must come first.
        // (long enough to take the forking path, too)
        for n in [10, 3 * granularity()] {
            let a: Vec<(u64, u8)> = (0..n).map(|_| (7, 0)).collect();
            let b: Vec<(u64, u8)> = (0..n).map(|_| (7, 1)).collect();
            let got = par_merge(&a, &b, |x, y| x.0.cmp(&y.0));
            assert!(got[..n].iter().all(|e| e.1 == 0));
            assert!(got[n..].iter().all(|e| e.1 == 1));
        }
    }
}
