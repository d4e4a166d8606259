//! Parallel comparison sorting.
//!
//! PAM's `build` starts by sorting the input sequence; the paper assumes a
//! work-efficient parallel sort with O(log n) span (PBBS sample sort). We
//! provide one: a from-scratch stable parallel merge sort
//! ([`par_sort_by`]) built on [`crate::par_merge_into`].

use crate::merge::par_merge_into;
use crate::par::{granularity, par2_if};
use crate::uninit::par_fill;
use std::cmp::Ordering;

/// Inputs at or below this length are sorted sequentially.
fn sequential_len() -> usize {
    granularity().max(64)
}

/// Sort `v` with a from-scratch parallel merge sort (stable) — the sort
/// under PAM's `build`.
///
/// Work O(n log n), span O(log^2 n · log gran) — the divide-and-conquer
/// recursion forks both halves and merges them with the parallel merge.
/// An input at or below the grain is sorted in place: no element is
/// cloned (a group-commit epoch of a few `Vec<u8>` pairs comes through
/// here on every commit).
pub fn par_sort_by<T, F>(v: &mut Vec<T>, cmp: F)
where
    T: Clone + Send + Sync,
    F: Fn(&T, &T) -> Ordering + Sync,
{
    if v.len() <= sequential_len() {
        v.sort_by(|a, b| cmp(a, b));
        return;
    }
    *v = sort_rec(v.as_slice(), &cmp);
}

fn sort_rec<T, F>(s: &[T], cmp: &F) -> Vec<T>
where
    T: Clone + Send + Sync,
    F: Fn(&T, &T) -> Ordering + Sync,
{
    if s.len() <= sequential_len() {
        let mut v = s.to_vec();
        v.sort_by(|a, b| cmp(a, b));
        return v;
    }
    let (left, right) = s.split_at(s.len() / 2);
    let (a, b) = par2_if(true, || sort_rec(left, cmp), || sort_rec(right, cmp));
    // SAFETY: `a` and `b` hold `s.len()` elements between them, and
    // `par_merge_into` writes every slot of an `out` of that length
    unsafe { par_fill(s.len(), |out| par_merge_into(&a, &b, out, cmp)) }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    /// Counts clones, so a test can tell an in-place sort from a copy.
    struct Counted<'a>(u32, u32, &'a std::sync::atomic::AtomicUsize);

    impl Clone for Counted<'_> {
        fn clone(&self) -> Self {
            self.2.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            Counted(self.0, self.1, self.2)
        }
    }

    #[test]
    fn small_input_sorts_in_place_and_stays_stable() {
        let clones = std::sync::atomic::AtomicUsize::new(0);
        // (key, original index): few keys, so almost every compare ties
        let mut v: Vec<Counted> = (0..sequential_len() as u32)
            .map(|i| Counted(xorshift(u64::from(i) + 1) as u32 % 5, i, &clones))
            .collect();
        par_sort_by(&mut v, |a, b| a.0.cmp(&b.0));
        assert_eq!(
            clones.load(std::sync::atomic::Ordering::Relaxed),
            0,
            "an input at the grain must be sorted without cloning"
        );
        for w in v.windows(2) {
            assert!(
                w[0].0 < w[1].0 || (w[0].0 == w[1].0 && w[0].1 < w[1].1),
                "not a stable sort"
            );
        }
        // one past the grain takes the merge path and still agrees
        let mut big: Vec<(u8, u32)> = (0..sequential_len() as u32 + 1)
            .map(|i| ((xorshift(u64::from(i) + 1) % 5) as u8, i))
            .collect();
        let mut expect = big.clone();
        expect.sort_by_key(|x| x.0);
        par_sort_by(&mut big, |a, b| a.0.cmp(&b.0));
        assert_eq!(big, expect);
    }
}
