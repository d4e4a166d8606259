//! Parallel merge of sorted runs, by moving their elements.
//!
//! The classic divide-and-conquer merge: split the larger input at its
//! midpoint, binary-search the split key in the smaller input, and merge
//! the two halves in parallel. Work O(n + m), span O(log n · log m).
//!
//! The runs and the output are slots of raw buffers (`MaybeUninit<T>`):
//! an element is moved bitwise from its run to its output slot, never
//! cloned, and the run's slot is then a stale copy nobody drops. Only the
//! sort calls it; see `sort.rs` for how the buffers are owned.

use crate::par::{granularity, par2_if};
use std::cmp::Ordering;
use std::mem::MaybeUninit;
use std::ptr;

/// View initialized slots as the elements they hold.
///
/// # Safety
///
/// Every slot of `s` must be initialized.
unsafe fn assume_init<T>(s: &[MaybeUninit<T>]) -> &[T] {
    // SAFETY: the caller promises every slot is initialized, and
    // `MaybeUninit<T>` has the layout of `T`
    unsafe { std::slice::from_raw_parts(s.as_ptr().cast(), s.len()) }
}

/// Move the sorted runs `a` and `b` into `out` (`a.len() + b.len()`
/// slots), merged; in parallel above the grain.
///
/// Stable: on a tie the element of `a` goes first. On return every slot
/// of `out` holds an element, and the slots of `a` and `b` hold stale
/// bitwise copies. If `cmp` panics the panic propagates with the elements
/// split between the runs and `out`; the caller must then drop none.
///
/// # Safety
///
/// Every slot of `a` and `b` must be initialized, and the caller must
/// treat them as uninitialized once this returns or unwinds.
pub(crate) unsafe fn merge_into<T, F>(
    a: &mut [MaybeUninit<T>],
    b: &mut [MaybeUninit<T>],
    out: &mut [MaybeUninit<T>],
    cmp: &F,
) where
    T: Send,
    F: Fn(&T, &T) -> Ordering + Sync,
{
    assert_eq!(a.len() + b.len(), out.len());
    if out.len() <= granularity() {
        // SAFETY: forwarded from this function's contract; `out` has room
        // for both runs
        unsafe { merge_seq(a, b, out, cmp) };
        return;
    }
    // Split the larger run at its midpoint. Elements of `a` equal to the
    // split key must land before `b`'s: a lower bound in `b`, an upper
    // bound in `a`.
    // SAFETY: every slot of `a` and `b` is initialized (the contract)
    let (am, bm) = unsafe {
        let (ia, ib) = (assume_init(a), assume_init(b));
        if ia.len() >= ib.len() {
            let am = ia.len() / 2;
            (
                am,
                ib.partition_point(|x| cmp(x, &ia[am]) == Ordering::Less),
            )
        } else {
            let bm = ib.len() / 2;
            (
                ia.partition_point(|x| cmp(x, &ib[bm]) != Ordering::Greater),
                bm,
            )
        }
    };
    let (a_lo, a_hi) = a.split_at_mut(am);
    let (b_lo, b_hi) = b.split_at_mut(bm);
    let (out_lo, out_hi) = out.split_at_mut(am + bm);
    par2_if(
        true,
        // SAFETY: each half merges initialized slots into its own slots
        // of `out`, which the split sized to fit
        || unsafe { merge_into(a_lo, b_lo, out_lo, cmp) },
        // SAFETY: as for the lower half
        || unsafe { merge_into(a_hi, b_hi, out_hi, cmp) },
    );
}

/// The sequential merge: one compare and one bitwise move per element,
/// the run to take from chosen by a select rather than a branch.
///
/// # Safety
///
/// As [`merge_into`], and `out.len() == a.len() + b.len()`.
unsafe fn merge_seq<T, F>(
    a: &[MaybeUninit<T>],
    b: &[MaybeUninit<T>],
    out: &mut [MaybeUninit<T>],
    cmp: &F,
) where
    F: Fn(&T, &T) -> Ordering,
{
    let (mut i, mut j) = (a.as_ptr().cast::<T>(), b.as_ptr().cast::<T>());
    // SAFETY: one past the end of each run, and every pointer below stays
    // within its run or `out`: `i` and `j` advance one slot only while
    // short of their ends, `o` once per element moved, and `out` holds
    // exactly the two runs' elements
    unsafe {
        let (a_end, b_end) = (i.add(a.len()), j.add(b.len()));
        let mut o = out.as_mut_ptr().cast::<T>();
        while i < a_end && j < b_end {
            let take_b = cmp(&*j, &*i) == Ordering::Less;
            ptr::copy_nonoverlapping(if take_b { j } else { i }, o, 1);
            i = i.add(usize::from(!take_b));
            j = j.add(usize::from(take_b));
            o = o.add(1);
        }
        let rest_a = a_end.offset_from(i) as usize;
        ptr::copy_nonoverlapping(i, o, rest_a);
        ptr::copy_nonoverlapping(j, o.add(rest_a), b_end.offset_from(j) as usize);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::par::with_threads;

    fn uninit<T>(v: Vec<T>) -> Vec<MaybeUninit<T>> {
        v.into_iter().map(MaybeUninit::new).collect()
    }

    /// Merge by moving out of two owned runs, as the sort does.
    fn merge<T: Send>(a: Vec<T>, b: Vec<T>, cmp: impl Fn(&T, &T) -> Ordering + Sync) -> Vec<T> {
        let (mut a, mut b) = (uninit(a), uninit(b));
        let mut out: Vec<MaybeUninit<T>> = (0..a.len() + b.len())
            .map(|_| MaybeUninit::uninit())
            .collect();
        // SAFETY: the runs are initialized and are dropped below as
        // `MaybeUninit`, which drops no element
        unsafe { merge_into(&mut a, &mut b, &mut out, &cmp) };
        out.into_iter()
            // SAFETY: `merge_into` initialized every slot of `out`
            .map(|x| unsafe { x.assume_init() })
            .collect()
    }

    fn check_merge(a: Vec<u64>, b: Vec<u64>) {
        let mut expect = [a.clone(), b.clone()].concat();
        expect.sort();
        assert_eq!(merge(a, b, |x, y| x.cmp(y)), expect);
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
            let got = merge(a, b, |x, y| x.0.cmp(&y.0));
            assert!(got[..n].iter().all(|e| e.1 == 0));
            assert!(got[n..].iter().all(|e| e.1 == 1));
        }
    }

    /// Sorted runs of (key, origin) with few distinct keys, so most
    /// compares tie, and a run above the grain forks.
    #[test]
    fn matches_a_stable_sort_with_ties_empty_sides_and_forks() {
        let mut x = 0x2545_f491_4f6c_dd1d_u64;
        let mut run = |len: usize, origin: u8| -> Vec<(u64, u8, usize)> {
            let mut r: Vec<_> = (0..len)
                .map(|i| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    (x % 9, origin, i)
                })
                .collect();
            r.sort_by_key(|e| e.0);
            r
        };
        let g = granularity();
        let sizes = [
            (0, 0),
            (0, 5),
            (5, 0),
            (0, 3 * g),
            (3 * g, 0),
            (1, 4 * g),
            (4 * g, 1),
            (g, g + 1),
            (5 * g, 3 * g),
        ];
        for threads in [1, 3] {
            for &(na, nb) in &sizes {
                let (a, b) = (run(na, 0), run(nb, 1));
                let mut expect = [a.clone(), b.clone()].concat();
                expect.sort_by_key(|e| e.0);
                let got = with_threads(threads, || merge(a, b, |p, q| p.0.cmp(&q.0)));
                assert_eq!(got, expect, "runs of {na} and {nb} on {threads} threads");
            }
        }
    }
}
