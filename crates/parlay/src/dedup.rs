//! Combining duplicate keys in a sorted sequence.
//!
//! PAM's `build(S, combine)` sorts the input and then merges entries with
//! equal keys using a user combine function (the paper's "remove the
//! duplicates, which are contiguous in sorted order"). This module performs
//! that group-combine step in parallel, moving every element exactly once.
//!
//! The input is cut into blocks of ⌈n / 4P⌉ elements, no fewer than the
//! grain; one block (always the case at P = 1) is folded in place, group
//! `g` landing in slot `g` of the input's own buffer. Otherwise a group
//! belongs to the block where it starts, and the block folds every group
//! it owns, reading past its own end when its last group runs on. A first
//! pass counts each block's groups, an exclusive prefix sum of the counts
//! gives each block's offset in one output buffer, and a second pass
//! finds each group by comparing neighbours, as the first did, then moves
//! its elements out of the input once, by value, into `combine` — the
//! first as the accumulator — and the result into its slot. A singleton
//! group, and whatever `combine` passes through (last-write-wins returns
//! its second argument), is moved, not cloned. Work O(n), span O(n/B + B)
//! for B blocks.
//!
//! During the second pass the elements belong to the pass, not to the
//! input `Vec` (its length is 0), and the output buffer holds
//! `MaybeUninit<T>`. A `same` or `combine` that panics there leaks
//! elements, never drops one twice, and the panic reaches the caller; so
//! does a block that finds a different number of groups on its second look
//! (a `same` that is not a function of its arguments).

use crate::par::{for_each, granularity, leaf_len, tabulate};
use crate::uninit::par_fill;
use std::mem::MaybeUninit;
use std::ops::Range;

/// Collapse runs of "same" elements in (sorted) `v`, combining each run
/// left-to-right with `combine` (so `combine(combine(x0, x1), x2)` for a
/// run of three), each element passed by value. Order of surviving
/// elements is preserved. No element is cloned; see the module docs for
/// the algorithm and for what a panic leaves behind.
pub fn combine_duplicates_by<T, S, C>(mut v: Vec<T>, same: S, combine: C) -> Vec<T>
where
    T: Send + Sync,
    S: Fn(&T, &T) -> bool + Sync,
    C: Fn(T, T) -> T + Sync,
{
    let n = v.len();
    let block = leaf_len(n).max(granularity());
    if n <= block {
        // SAFETY: from here the elements belong to the fold, which reads
        // each once; an unwind drops none left in `v`'s buffer
        unsafe { v.set_len(0) };
        let base = v.as_mut_ptr();
        // SAFETY: the `n` slots hold initialized elements no one else
        // touches, and the fold writes group `g` to slot `g`, which it
        // has read by then (a group starts at or after its own number)
        let groups = unsafe { fold_groups(base, 0..n, base, n, &same, &combine) };
        // SAFETY: the fold wrote the first `groups` slots
        unsafe { v.set_len(groups) };
        return v;
    }
    let blocks = n.div_ceil(block);
    // pass 1: where each block's first group starts, and how many start in it
    let found: Vec<(usize, usize)> = tabulate(blocks, |b| {
        let mut starts =
            (b * block..((b + 1) * block).min(n)).filter(|&i| i == 0 || !same(&v[i - 1], &v[i]));
        starts
            .next()
            .map_or((0, 0), |first| (first, 1 + starts.count()))
    });
    // block b owns its first start up to the next block's first start
    let mut owned = vec![0..0; blocks];
    let mut end = n;
    for (b, &(first, count)) in found.iter().enumerate().rev() {
        if count > 0 {
            owned[b] = first..end;
            end = first;
        }
    }
    let mut offsets = Vec::with_capacity(blocks);
    let total = found.iter().fold(0, |at, &(_, count)| {
        offsets.push(at);
        at + count
    });
    // SAFETY: from here the elements belong to pass 2, which reads each
    // exactly once (the owned ranges are disjoint); an unwind drops none
    // left in `v`'s buffer, which `v` frees
    unsafe { v.set_len(0) };
    let src = Base(v.as_mut_ptr());
    let fill = |out: &mut [MaybeUninit<T>]| {
        let dst = Base(out.as_mut_ptr().cast::<T>());
        for_each(blocks, |b| {
            let count = found[b].1;
            // SAFETY: `owned[b]` holds initialized elements no other block
            // touches, and none is read again after this; the block writes
            // only its own output range, `count` slots from `offsets[b]`,
            // disjoint from every other block's and within `out`
            let written = unsafe {
                fold_groups(
                    src.get(),
                    owned[b].clone(),
                    dst.get().add(offsets[b]),
                    count,
                    &same,
                    &combine,
                )
            };
            assert_eq!(
                written, count,
                "`same` answered differently on a second look"
            );
        })
    };
    // SAFETY: the blocks' output ranges `offsets[b]..offsets[b] + count`
    // partition `0..total`, and a block that returns wrote every slot of
    // its range (it asserts so)
    unsafe { par_fill(total, fill) }
}

/// A buffer's base pointer, shared by the blocks of the second pass; each
/// touches only its own range through it.
struct Base<T>(*mut T);

// SAFETY: the blocks reach disjoint slots through it, and only move the
// elements (`T: Send`) from one thread to another
unsafe impl<T: Send> Sync for Base<T> {}

impl<T> Base<T> {
    fn get(&self) -> *mut T {
        self.0
    }
}

/// Fold the groups in `src[range]` — the first starts at `range.start` —
/// into consecutive slots from `dst`, moving each element out of `src`
/// once, and return how many groups there were. Panics before writing
/// past `slots` slots.
///
/// # Safety
///
/// The elements of `src[range]` must be initialized and touched by no one
/// else, and the caller must treat them as moved out once this returns or
/// unwinds. The `slots` slots from `dst` must be writable and touched by
/// no one else, except that `dst` may be `src.add(range.start)` itself:
/// group `g` is written only after the elements up to its end are read.
unsafe fn fold_groups<T, S, C>(
    src: *mut T,
    range: Range<usize>,
    dst: *mut T,
    slots: usize,
    same: &S,
    combine: &C,
) -> usize
where
    S: Fn(&T, &T) -> bool,
    C: Fn(T, T) -> T,
{
    let mut groups = 0;
    let mut i = range.start;
    while i < range.end {
        // the group is `i..end`: neighbours compared, as the first pass
        // did, before any of them moves
        let mut end = i + 1;
        // SAFETY: `end - 1` and `end` are in `range` and not read yet
        while end < range.end && same(unsafe { &*src.add(end - 1) }, unsafe { &*src.add(end) }) {
            end += 1;
        }
        // SAFETY: `i` is in `range` and read only here
        let mut acc = unsafe { src.add(i).read() };
        for j in i + 1..end {
            // SAFETY: `j` is in `range` and read only here
            acc = combine(acc, unsafe { src.add(j).read() });
        }
        assert!(
            groups < slots,
            "`same` answered differently on a second look"
        );
        // SAFETY: `groups < slots`, and the slot holds nothing to drop:
        // it is uninitialized, or (in place) an element already read
        unsafe { dst.add(groups).write(acc) };
        groups += 1;
        i = end;
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::par::with_threads;
    use std::collections::HashSet;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
    use std::sync::Mutex;

    /// Combine the *values* of equal keys.
    fn combine_duplicates<K, V>(v: Vec<(K, V)>, combine: impl Fn(&V, &V) -> V + Sync) -> Vec<(K, V)>
    where
        K: PartialEq + Send + Sync,
        V: Send + Sync,
    {
        combine_duplicates_by(v, |a, b| a.0 == b.0, |a, b| (a.0, combine(&a.1, &b.1)))
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
    fn groups_spanning_blocks_fold_left_to_right_on_any_pool() {
        // group lengths 1..=40_000: some span several blocks, some start
        // a block, and a non-commutative fold pins the order
        let mut v: Vec<(u32, u64)> = Vec::new();
        let (mut key, mut len) = (0u32, 1usize);
        while v.len() < 300_000 {
            v.extend((0..len).map(|j| (key, j as u64 % 10)));
            key += 1;
            len = (len * 7 + 3) % 40_001;
        }
        let fold = |a: &u64, b: &u64| (a * 10 + b) % 1_000_000_007;
        let mut expect: Vec<(u32, u64)> = Vec::new();
        for &(k, x) in &v {
            match expect.last_mut() {
                Some(last) if last.0 == k => last.1 = fold(&last.1, &x),
                _ => expect.push((k, x)),
            }
        }
        for threads in [1, 2, 3] {
            let got = with_threads(threads, || combine_duplicates(v.clone(), fold));
            assert_eq!(got, expect, "{threads} threads");
        }
    }

    #[test]
    fn empty_and_single() {
        let e: Vec<(u8, u8)> = vec![];
        assert!(combine_duplicates(e, |a, _| *a).is_empty());
        let s = vec![(1u8, 9u8)];
        assert_eq!(combine_duplicates(s.clone(), |a, _| *a), s);
    }

    /// (key, ID): counts clones, and records the ID of every element
    /// dropped, failing on a second drop.
    struct Tracked<'a>(u32, u32, &'a AtomicUsize, &'a Mutex<HashSet<u32>>);

    impl Clone for Tracked<'_> {
        fn clone(&self) -> Self {
            self.2.fetch_add(1, Relaxed);
            Tracked(self.0, self.1 + 1_000_000, self.2, self.3)
        }
    }

    impl Drop for Tracked<'_> {
        fn drop(&mut self) {
            assert!(
                self.3.lock().unwrap().insert(self.1),
                "element {} dropped twice",
                self.1
            );
        }
    }

    /// Sorted keys, every third one repeated.
    fn tracked<'a>(
        n: u32,
        clones: &'a AtomicUsize,
        dropped: &'a Mutex<HashSet<u32>>,
    ) -> Vec<Tracked<'a>> {
        (0..n)
            .map(|i| Tracked(i - i % 3 / 2, i, clones, dropped))
            .collect()
    }

    #[test]
    fn singletons_are_moved_and_every_element_is_dropped_once() {
        let n = 200_000u32;
        for threads in [1, 2, 3] {
            let (clones, dropped) = (AtomicUsize::new(0), Mutex::new(HashSet::new()));
            let survivors = with_threads(threads, || {
                combine_duplicates_by(
                    tracked(n, &clones, &dropped),
                    |a, b| a.0 == b.0,
                    // last-write-wins: the later element passes through
                    |_, later| later,
                )
            });
            // the fold takes its elements by value: nothing is cloned
            assert_eq!(clones.load(Relaxed), 0, "{threads} threads");
            assert_eq!(survivors.len(), n as usize - n as usize / 3);
            // each pair's earlier element was dropped in the fold, and
            // the survivor is the later one
            assert_eq!(dropped.lock().unwrap().len(), n as usize / 3);
            let later = |t: &Tracked| match t.0 % 3 {
                1 if t.0 + 1 < n => t.0 + 1,
                _ => t.0,
            };
            assert!(survivors.iter().all(|t| t.1 == later(t)));
            drop(survivors);
            // every original, each dropped once
            assert_eq!(dropped.lock().unwrap().len(), n as usize);
        }
    }

    #[test]
    fn a_panic_in_same_or_combine_propagates_and_drops_nothing_twice() {
        let n = 200_000u32;
        for threads in [1, 2, 3] {
            // `same` runs ~n times per pass (one pass on one thread),
            // `combine` once per pair
            let mut at = vec![(true, 5), (true, 150_000), (false, 3), (false, 60_000)];
            if threads > 1 {
                at.push((true, 350_000));
            }
            for (in_same, k) in at {
                let (clones, dropped) = (AtomicUsize::new(0), Mutex::new(HashSet::new()));
                let calls = AtomicUsize::new(0);
                let boom = |on: bool| {
                    if on == in_same && calls.fetch_add(1, Relaxed) == k {
                        panic!("call {k}");
                    }
                };
                let caught = catch_unwind(AssertUnwindSafe(|| {
                    with_threads(threads, || {
                        combine_duplicates_by(
                            tracked(n, &clones, &dropped),
                            |a, b| {
                                boom(true);
                                a.0 == b.0
                            },
                            |a, _| {
                                boom(false);
                                a
                            },
                        )
                    })
                }));
                let Err(panic) = caught else {
                    panic!("the panic must reach the caller")
                };
                assert_eq!(panic.downcast_ref::<String>(), Some(&format!("call {k}")));
                // a second drop would have failed inside `Tracked::drop`
                assert_eq!(clones.load(Relaxed), 0);
                assert!(dropped.lock().unwrap().len() <= n as usize);
            }
        }
    }
}
