//! Parallel comparison sorting.
//!
//! PAM's `build` starts by sorting the input sequence; the paper assumes a
//! work-efficient parallel sort with O(log n) span (PBBS sample sort). We
//! provide a stable parallel merge sort ([`par_sort_by`]) that moves its
//! elements and never clones one.
//!
//! The input is cut into runs of [`run_len`] elements, each sorted in
//! place with `slice::sort_by` (`std`'s stable, adaptive sort), the runs
//! in parallel. The runs are then merged pairwise, level by level, with
//! the parallel merge of `merge.rs`, ping-ponging between `v`'s own buffer
//! and one scratch buffer of `n` uninitialized slots: every level moves
//! each element once, bitwise. The recursion picks, at each level, the
//! buffer its result must land in, so the sorted whole ends up in `v`'s
//! buffer; where a branch has an odd number of merge levels, its run is
//! copied across once at the base. Work O(n log n); span O(L log L) for
//! the runs of length L plus O(log(n/L) · log² n) for the merges.
//!
//! While the sort runs, the elements belong to the two raw buffers, not
//! to `v`: `v`'s length is 0 and the scratch buffer holds
//! `MaybeUninit<T>`. A comparator that panics therefore leaks the
//! elements (`v` is left empty), never drops one twice, and the panic
//! reaches the caller.

use crate::merge::merge_into;
use crate::par::{granularity, leaf_len, par2_if};
use std::cmp::Ordering;
use std::mem::MaybeUninit;
use std::ptr;

/// Length of the runs the sort hands to `std`'s sort: ⌈n / 4P⌉, the
/// leaf of `tabulate` / `reduce` / `for_each` (four runs per thread, so
/// stealing can balance them), but no shorter than the grain. At P = 1
/// this is the whole input, so one thread runs `std`'s sequential sort
/// and nothing else.
fn run_len(n: usize) -> usize {
    leaf_len(n).max(granularity())
}

/// Sort `v` with a stable parallel merge sort — the sort under PAM's
/// `build`. Elements are moved, never cloned; see the module docs for
/// the algorithm and for what a panicking `cmp` leaves behind (`v`
/// empty, its elements leaked).
pub fn par_sort_by<T, F>(v: &mut Vec<T>, cmp: F)
where
    T: Send,
    F: Fn(&T, &T) -> Ordering + Sync,
{
    let n = v.len();
    let run = run_len(n);
    if n <= run {
        v.sort_by(|a, b| cmp(a, b));
        return;
    }
    let mut scratch: Vec<MaybeUninit<T>> = Vec::with_capacity(n);
    // SAFETY: `n` is the capacity just reserved, and an uninitialized
    // `MaybeUninit<T>` is valid
    unsafe { scratch.set_len(n) };
    // SAFETY: the elements stay in `v`'s buffer, which `v` keeps; until
    // the `set_len(n)` below they are owned by the sort, so an unwind
    // drops none of them
    unsafe { v.set_len(0) };
    let own = &mut v.spare_capacity_mut()[..n];
    // SAFETY: `own` holds `v`'s `n` elements, and `scratch` has `n` slots
    unsafe { sort_into(own, &mut scratch, false, run, &cmp) };
    // SAFETY: `sort_into(.., false, ..)` left the `n` elements, sorted, in
    // `own` — the first `n` slots of `v`'s buffer
    unsafe { v.set_len(n) };
}

/// Sort the elements in `src` into `src` itself (`!to_dst`) or into `dst`
/// (`to_dst`), using the other buffer as scratch.
///
/// # Safety
///
/// Every slot of `src` must be initialized, and `dst` must have as many
/// slots. On return the chosen buffer's slots hold the elements, sorted,
/// and the caller must treat the other buffer's as uninitialized; on an
/// unwind it must drop none of either.
unsafe fn sort_into<T, F>(
    src: &mut [MaybeUninit<T>],
    dst: &mut [MaybeUninit<T>],
    to_dst: bool,
    run: usize,
    cmp: &F,
) where
    T: Send,
    F: Fn(&T, &T) -> Ordering + Sync,
{
    let n = src.len();
    assert_eq!(n, dst.len());
    if n <= run {
        // SAFETY: every slot of `src` is initialized, and `MaybeUninit<T>`
        // has the layout of `T`
        let elems = unsafe { std::slice::from_raw_parts_mut(src.as_mut_ptr().cast::<T>(), n) };
        elems.sort_by(|a, b| cmp(a, b));
        if to_dst {
            // SAFETY: the buffers are distinct and both `n` slots long
            unsafe { ptr::copy_nonoverlapping(src.as_ptr(), dst.as_mut_ptr(), n) };
        }
        return;
    }
    let mid = n / 2;
    {
        // each half lands in the buffer this level merges *from*
        let (src_lo, src_hi) = src.split_at_mut(mid);
        let (dst_lo, dst_hi) = dst.split_at_mut(mid);
        par2_if(
            true,
            // SAFETY: the halves split both buffers at the same index
            || unsafe { sort_into(src_lo, dst_lo, !to_dst, run, cmp) },
            // SAFETY: as for the lower half
            || unsafe { sort_into(src_hi, dst_hi, !to_dst, run, cmp) },
        );
    }
    let (from, to) = if to_dst { (src, dst) } else { (dst, src) };
    let (lo, hi) = from.split_at_mut(mid);
    // SAFETY: the recursion left both sorted halves initialized in `from`,
    // which nobody reads after the merge has moved them out
    unsafe { merge_into(lo, hi, to, cmp) };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::par::with_threads;
    use std::collections::HashSet;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
    use std::sync::Mutex;

    fn xorshift(mut x: u64) -> u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    }

    #[test]
    fn sorts_random() {
        let mut v: Vec<u64> = (0..100_000u64)
            .map(|i| xorshift(i.wrapping_add(0x9e3779b97f4a7c15)))
            .collect();
        let mut expect = v.clone();
        expect.sort();
        par_sort_by(&mut v, |a, b| a.cmp(b));
        assert_eq!(v, expect);
    }

    #[test]
    fn sorts_empty_and_single() {
        let mut v: Vec<u32> = vec![];
        par_sort_by(&mut v, |a, b| a.cmp(b));
        assert!(v.is_empty());
        let mut v = vec![9];
        par_sort_by(&mut v, |a, b| a.cmp(b));
        assert_eq!(v, vec![9]);
    }

    #[test]
    fn stable_on_equal_keys() {
        // (key, original index): after a stable sort by key, indices within
        // each key group must stay increasing.
        let mut v: Vec<(u8, u32)> = (0..50_000u32).map(|i| ((i % 7) as u8, i)).collect();
        par_sort_by(&mut v, |a, b| a.0.cmp(&b.0));
        for w in v.windows(2) {
            if w[0].0 == w[1].0 {
                assert!(w[0].1 < w[1].1, "stability violated");
            }
        }
    }

    /// Counts clones, so a test can tell a moving sort from a copying one.
    struct Counted<'a>(u32, u32, &'a AtomicUsize);

    impl Clone for Counted<'_> {
        fn clone(&self) -> Self {
            self.2.fetch_add(1, Relaxed);
            Counted(self.0, self.1, self.2)
        }
    }

    #[test]
    fn sorts_without_cloning_and_stays_stable_at_every_size() {
        let clones = AtomicUsize::new(0);
        // at the grain, one past it, and far above the run length on
        // 1-3 threads (runs, merge levels and forked merges)
        for (n, threads) in [
            (granularity(), 2),
            (granularity() + 1, 2),
            (200_000, 1),
            (200_000, 2),
            (200_000, 3),
        ] {
            // (key, original index): few keys, so almost every compare ties
            let mut v: Vec<Counted> = (0..n as u32)
                .map(|i| Counted(xorshift(u64::from(i) + 1) as u32 % 5, i, &clones))
                .collect();
            with_threads(threads, || par_sort_by(&mut v, |a, b| a.0.cmp(&b.0)));
            assert_eq!(
                clones.load(Relaxed),
                0,
                "n = {n}: the sort must move, not clone"
            );
            assert_eq!(v.len(), n);
            for w in v.windows(2) {
                assert!(
                    w[0].0 < w[1].0 || (w[0].0 == w[1].0 && w[0].1 < w[1].1),
                    "n = {n}: not a stable sort"
                );
            }
        }
    }

    /// (key, ID): records the ID of every element dropped, and fails on
    /// a second drop.
    struct Tracked<'a>(u64, u32, &'a Mutex<HashSet<u32>>);

    impl Drop for Tracked<'_> {
        fn drop(&mut self) {
            assert!(
                self.2.lock().unwrap().insert(self.1),
                "element {} dropped twice",
                self.1
            );
        }
    }

    #[test]
    fn a_panicking_comparator_propagates_and_drops_nothing_twice() {
        let n = 100_000u32;
        // early in the runs, in the merges, and on the one-thread path
        for (threads, k) in [(2, 1), (2, 1_200_000), (3, 1_000_000), (1, 40_000)] {
            let dropped = Mutex::new(HashSet::new());
            let calls = AtomicUsize::new(0);
            let mut v: Vec<Tracked> = (0..n)
                .map(|i| Tracked(xorshift(u64::from(i) + 7) % 1000, i, &dropped))
                .collect();
            let caught = catch_unwind(AssertUnwindSafe(|| {
                with_threads(threads, || {
                    par_sort_by(&mut v, |a, b| {
                        if calls.fetch_add(1, Relaxed) == k {
                            panic!("compare {k}");
                        }
                        a.0.cmp(&b.0)
                    })
                })
            }));
            let panic = caught.expect_err("the panic must reach the caller");
            assert_eq!(
                panic.downcast_ref::<String>(),
                Some(&format!("compare {k}"))
            );
            // a second drop would have failed inside `Tracked::drop`. The
            // parallel path leaks every element and leaves `v` empty; one
            // thread is `std`'s sort, which leaves `v` a permutation
            let left = v.len();
            drop(v);
            assert_eq!(dropped.lock().unwrap().len(), left);
            assert_eq!(left, if threads == 1 { n as usize } else { 0 });
        }
    }
}
