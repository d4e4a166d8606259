//! Bulk construction and bulk updates.
//!
//! `build` is the paper's BUILD (Figure 2): parallel sort, combine
//! duplicates (contiguous after sorting), then a balanced
//! divide-and-conquer of `join`s. Work O(n log n), span O(log n) given the
//! sort. `multi_insert`/`multi_delete` recursively partition the sorted
//! batch around the tree root, descending both sides in parallel — PAM's
//! mechanism for applying accumulated concurrent updates in bulk (§4,
//! Concurrency). Both bottom out at leaf blocks with a linear sorted
//! merge of the batch slice into the block.

use crate::balance::{from_sorted_entries, join_tree, Balance};
use crate::node::{expose, take_leaf_entries, EntryOwned, Node, Tree};
use crate::ops::split::join2;
use crate::spec::AugSpec;
use parlay::{granularity, par2_if};
use std::cmp::Ordering;

/// Construct a map from an unsorted sequence of key-value pairs. Values of
/// duplicate keys are merged left-to-right with `combine` (in input
/// order, because the sort is stable).
pub fn build<S, B, F>(mut items: Vec<(S::K, S::V)>, combine: &F) -> Tree<S, B>
where
    S: AugSpec,
    B: Balance,
    F: Fn(&S::V, &S::V) -> S::V + Sync,
{
    parlay::par_sort_by(&mut items, |a, b| S::compare(&a.0, &b.0));
    let items = parlay::combine_duplicates_by(
        items,
        |a, b| S::compare(&a.0, &b.0) == Ordering::Equal,
        |a, b| (a.0.clone(), combine(&a.1, &b.1)),
    );
    from_sorted_distinct::<S, B>(&items)
}

/// Construct a map from a slice already sorted by key with distinct keys.
/// Work O(n) joins (each O(1) amortized on balanced halves), span O(log n).
pub fn from_sorted_distinct<S, B>(items: &[(S::K, S::V)]) -> Tree<S, B>
where
    S: AugSpec,
    B: Balance,
{
    if items.is_empty() {
        return None;
    }
    debug_assert!(strictly_increasing(items, |a, b| S::compare(&a.0, &b.0)));
    build_rec::<S, B>(items)
}

fn owned_entry<S: AugSpec>(item: &(S::K, S::V)) -> EntryOwned<S> {
    EntryOwned {
        key: item.0.clone(),
        val: item.1.clone(),
    }
}

fn build_rec<S: AugSpec, B: Balance>(items: &[(S::K, S::V)]) -> Tree<S, B> {
    if items.is_empty() {
        return None;
    }
    if items.len() <= B::LEAF_CAP.max(1) {
        // bottom out with one full block (median recursion keeps every
        // non-root block at least half full)
        return Some(Node::make_leaf(items.iter().map(owned_entry).collect()));
    }
    let mid = items.len() / 2;
    let (l, r) = par2_if(
        items.len() > granularity(),
        || build_rec::<S, B>(&items[..mid]),
        || build_rec::<S, B>(&items[mid + 1..]),
    );
    join_tree(l, owned_entry(&items[mid]), r)
}

/// Fewest batch keys either side of a partition must carry before a
/// bulk update forks the two recursions. A side with a handful of keys
/// path-copies a handful of root-to-leaf paths — microseconds — while a
/// fork can cost a thread hand-off, so a 3-key epoch into a large shard
/// must stay on the calling thread. Balanced bulk batches (n ≈ m) clear
/// this at every level above the grain and keep all their forks.
const MIN_FORK_BATCH: usize = 64;

/// Fork a bulk update's two recursions only when the subproblem is above
/// the grain *and* both halves of the partitioned batch are worth a
/// thread: the work is O(m log(n/m + 1)), governed by the batch, so the
/// tree's size alone never justifies a fork.
#[inline]
fn worth_forking(work: usize, left: usize, right: usize) -> bool {
    work > granularity() && left.min(right) >= MIN_FORK_BATCH
}

/// One O(m) pass: is `items` sorted with no two equal neighbours?
fn strictly_increasing<T>(items: &[T], cmp: impl Fn(&T, &T) -> Ordering) -> bool {
    items
        .windows(2)
        .all(|w| cmp(&w[0], &w[1]) == Ordering::Less)
}

/// Insert a whole batch. Existing values are merged with
/// `combine(old, new)`; duplicate keys within the batch are merged
/// left-to-right first.
pub fn multi_insert<S, B, F>(t: Tree<S, B>, mut batch: Vec<(S::K, S::V)>, combine: &F) -> Tree<S, B>
where
    S: AugSpec,
    B: Balance,
    F: Fn(&S::V, &S::V) -> S::V + Sync,
{
    // A batch already sorted and distinct (every normalized commit epoch
    // and replayed WAL record is) needs neither the sort nor the dedup.
    if !strictly_increasing(&batch, |a, b| S::compare(&a.0, &b.0)) {
        parlay::par_sort_by(&mut batch, |a, b| S::compare(&a.0, &b.0));
        batch = parlay::combine_duplicates_by(
            batch,
            |a, b| S::compare(&a.0, &b.0) == Ordering::Equal,
            |a, b| (a.0.clone(), combine(&a.1, &b.1)),
        );
    }
    multi_insert_sorted::<S, B, F>(t, &batch, combine)
}

fn multi_insert_sorted<S, B, F>(t: Tree<S, B>, batch: &[(S::K, S::V)], combine: &F) -> Tree<S, B>
where
    S: AugSpec,
    B: Balance,
    F: Fn(&S::V, &S::V) -> S::V + Sync,
{
    if batch.is_empty() {
        return t;
    }
    match t {
        None => from_sorted_distinct::<S, B>(batch),
        Some(n) if n.is_leaf() => {
            // sorted merge of the batch into the block, then re-pack
            let entries = take_leaf_entries(n);
            let mut out = Vec::with_capacity(entries.len() + batch.len());
            let mut bi = 0;
            for e in entries {
                while bi < batch.len() && S::compare(&batch[bi].0, &e.key) == Ordering::Less {
                    out.push(owned_entry(&batch[bi]));
                    bi += 1;
                }
                if bi < batch.len() && S::compare(&batch[bi].0, &e.key) == Ordering::Equal {
                    out.push(EntryOwned {
                        val: combine(&e.val, &batch[bi].1),
                        key: e.key,
                    });
                    bi += 1;
                } else {
                    out.push(e);
                }
            }
            out.extend(batch[bi..].iter().map(owned_entry));
            from_sorted_entries::<S, B>(out)
        }
        Some(n) => {
            let work = n.size_of() + batch.len();
            let (l, e, r) = expose(n);
            let lo = batch.partition_point(|x| S::compare(&x.0, &e.key) == Ordering::Less);
            let found = lo < batch.len() && S::compare(&batch[lo].0, &e.key) == Ordering::Equal;
            let hi = lo + usize::from(found);
            let (bl, br) = (&batch[..lo], &batch[hi..]);
            let (l2, r2) = par2_if(
                worth_forking(work, bl.len(), br.len()),
                move || multi_insert_sorted::<S, B, F>(l, bl, combine),
                move || multi_insert_sorted::<S, B, F>(r, br, combine),
            );
            let val = if found {
                combine(&e.val, &batch[lo].1)
            } else {
                e.val
            };
            join_tree(l2, EntryOwned { key: e.key, val }, r2)
        }
    }
}

/// Delete a whole batch of keys (absent keys are ignored).
pub fn multi_delete<S, B>(t: Tree<S, B>, mut keys: Vec<S::K>) -> Tree<S, B>
where
    S: AugSpec,
    B: Balance,
{
    if !strictly_increasing(&keys, |a, b| S::compare(a, b)) {
        parlay::par_sort_by(&mut keys, |a, b| S::compare(a, b));
        keys.dedup_by(|a, b| S::compare(a, b) == Ordering::Equal);
    }
    multi_delete_sorted::<S, B>(t, &keys)
}

fn multi_delete_sorted<S, B>(t: Tree<S, B>, keys: &[S::K]) -> Tree<S, B>
where
    S: AugSpec,
    B: Balance,
{
    if keys.is_empty() {
        return t;
    }
    match t {
        None => None,
        Some(n) if n.is_leaf() => {
            let entries = take_leaf_entries(n);
            let mut ki = 0;
            let out: Vec<_> = entries
                .into_iter()
                .filter(|e| {
                    while ki < keys.len() && S::compare(&keys[ki], &e.key) == Ordering::Less {
                        ki += 1;
                    }
                    !(ki < keys.len() && S::compare(&keys[ki], &e.key) == Ordering::Equal)
                })
                .collect();
            from_sorted_entries::<S, B>(out)
        }
        Some(n) => {
            let work = n.size_of() + keys.len();
            let (l, e, r) = expose(n);
            let lo = keys.partition_point(|x| S::compare(x, &e.key) == Ordering::Less);
            let found = lo < keys.len() && S::compare(&keys[lo], &e.key) == Ordering::Equal;
            let hi = lo + usize::from(found);
            let (kl, kr) = (&keys[..lo], &keys[hi..]);
            let (l2, r2) = par2_if(
                worth_forking(work, kl.len(), kr.len()),
                move || multi_delete_sorted::<S, B>(l, kl),
                move || multi_delete_sorted::<S, B>(r, kr),
            );
            if found {
                join2(l2, r2)
            } else {
                join_tree(l2, e, r2)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::spec::SumAug;
    use crate::AugMap;

    type M = AugMap<SumAug<u64, u64>>;

    #[test]
    fn build_with_combines_in_input_order() {
        // non-commutative combine proves left-to-right merging
        let m: AugMap<crate::spec::SumAug<u64, u64>> =
            AugMap::build_with(vec![(1, 3), (1, 4), (1, 5)], |a, b| a * 10 + b);
        assert_eq!(m.get(&1), Some(&345));
    }

    #[test]
    fn from_sorted_distinct_matches_build() {
        let sorted: Vec<(u64, u64)> = (0..1000u64).map(|i| (i * 2, i)).collect();
        let a = M::from_sorted_distinct(&sorted);
        let b = M::build(sorted.clone());
        assert_eq!(a.to_vec(), b.to_vec());
        a.check_invariants().unwrap();
    }

    #[test]
    fn multi_insert_on_empty_builds() {
        let mut m = M::new();
        m.multi_insert(vec![(3, 30), (1, 10), (2, 20)]);
        assert_eq!(m.to_vec(), vec![(1, 10), (2, 20), (3, 30)]);
    }

    #[test]
    fn multi_insert_batch_duplicates_merge_first() {
        let mut m = M::singleton(5, 100);
        // batch has duplicate key 5 twice: merged left-to-right, then
        // combined with the existing value
        m.multi_insert_with(vec![(5, 1), (5, 2)], |old, new| old + new);
        assert_eq!(m.get(&5), Some(&103));
    }

    #[test]
    fn sorted_batch_with_an_equal_pair_still_merges_in_order() {
        // non-decreasing but not strictly increasing: must not take the
        // sorted fast path; non-commutative combine pins the merge order
        let mut m = M::build(vec![(2, 100)]);
        m.multi_insert_with(vec![(1, 1), (2, 2), (2, 3), (3, 4)], |old, new| {
            old * 10 + new
        });
        assert_eq!(m.to_vec(), vec![(1, 1), (2, 1023), (3, 4)]);
    }

    thread_local! {
        static COMPARES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    }

    /// `SumAug<u64, u64>` whose key order counts its calls per thread.
    struct CountingOrder;

    impl crate::AugSpec for CountingOrder {
        type K = u64;
        type V = u64;
        type A = u64;
        fn compare(a: &u64, b: &u64) -> std::cmp::Ordering {
            COMPARES.with(|c| c.set(c.get() + 1));
            a.cmp(b)
        }
        fn identity() -> u64 {
            0
        }
        fn base(_: &u64, v: &u64) -> u64 {
            *v
        }
        fn combine(a: &u64, b: &u64) -> u64 {
            a.wrapping_add(*b)
        }
    }

    fn compares_of(f: impl FnOnce()) -> usize {
        let before = COMPARES.with(|c| c.get());
        f();
        COMPARES.with(|c| c.get()) - before
    }

    #[test]
    fn strictly_increasing_batches_skip_sort_and_dedup() {
        // below the grain, so every comparison runs on this thread
        const N: u64 = 1000;
        let sorted: Vec<(u64, u64)> = (0..N).map(|i| (i, i)).collect();
        let mut shuffled = sorted.clone();
        let mut x = 0x9e37_79b9_7f4a_7c15_u64;
        for i in (1..shuffled.len()).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            shuffled.swap(i, x as usize % (i + 1));
        }
        let keys = |v: &[(u64, u64)]| v.iter().map(|p| p.0).collect::<Vec<_>>();
        // into an empty map neither op compares below the batch prelude
        // (one pass here, one more in a debug_assert)
        let one_pass = 2 * (N as usize - 1);

        let mut a = AugMap::<CountingOrder>::new();
        assert!(compares_of(|| a.multi_insert(sorted.clone())) <= one_pass);
        let mut b = AugMap::<CountingOrder>::new();
        assert!(compares_of(|| b.multi_insert(shuffled.clone())) > 2 * one_pass);
        assert_eq!(a.to_vec(), sorted);
        assert_eq!(b.to_vec(), sorted);

        let mut e = AugMap::<CountingOrder>::new();
        assert!(compares_of(|| e.multi_delete(keys(&sorted))) <= one_pass);
        assert!(compares_of(|| e.multi_delete(keys(&shuffled))) > 2 * one_pass);

        // and on a populated map both orders delete the same keys
        a.multi_delete(keys(&sorted[..500]));
        b.multi_delete(keys(&shuffled).into_iter().filter(|k| *k < 500).collect());
        assert_eq!(a.to_vec(), &sorted[500..]);
        assert_eq!(b.to_vec(), &sorted[500..]);
        a.check_invariants().unwrap();
    }

    #[test]
    fn multi_delete_ignores_missing() {
        let mut m = M::build((0..100u64).map(|i| (i, i)).collect());
        m.multi_delete(vec![5, 5, 50, 500, 5000]);
        assert_eq!(m.len(), 98);
        assert!(!m.contains_key(&5));
        assert!(!m.contains_key(&50));
        m.check_invariants().unwrap();
    }

    #[test]
    fn empty_batches_are_noops() {
        let mut m = M::build(vec![(1, 1)]);
        m.multi_insert(vec![]);
        m.multi_delete(vec![]);
        assert_eq!(m.len(), 1);
        let e = M::build(vec![]);
        assert!(e.is_empty());
    }

    #[test]
    fn batch_updates_interleaving_blocks_stay_valid() {
        let mut m = M::build((0..1000u64).map(|i| (i * 3, i)).collect());
        // batch interleaves between, before, and after existing blocks
        m.multi_insert((0..1000u64).map(|i| (i * 3 + 1, i)).collect());
        m.check_invariants().unwrap();
        assert_eq!(m.len(), 2000);
        m.multi_delete((0..2000u64).map(|i| i * 3).collect());
        m.check_invariants().unwrap();
        assert_eq!(m.len(), 1000);
    }
}
