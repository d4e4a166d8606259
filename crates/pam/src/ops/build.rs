//! Bulk construction and the one update recursion.
//!
//! `build` is the paper's BUILD (Figure 2): parallel sort, combine
//! duplicates (contiguous after sorting) — both skipped for input already
//! sorted and distinct — then a balanced divide-and-conquer of `join`s.
//! Work O(n log n), span O(log n) given the sort.
//!
//! `update_sorted` is every update: it partitions a sorted batch around
//! the tree root and descends both sides in parallel — PAM's mechanism
//! for applying accumulated concurrent updates in bulk (§4, Concurrency)
//! — and bottoms out at leaf blocks with a linear sorted merge of the
//! batch slice into the block. What a key keeps is its caller's
//! `resolve`: `multi_insert`, `multi_delete` and `multi_update` here,
//! and the point updates of [`mod@crate::ops::insert`] with a one-element
//! batch. On an empty tree it is no recursion: the batch streams through
//! `resolve` into [`crate::Appender`], the one sorted build, which
//! `from_sorted_distinct` reaches too.
//!
//! The recursion owns its batch (a [`parlay::OwnedSlice`] over the
//! caller's sorted `Vec`), so the paper's reuse rule holds for the batch
//! as it does for the tree: each batch key and value is moved once —
//! into a leaf entry or a pivot, or into `resolve` — or dropped, and
//! none is cloned. The sort and the dedup in front of it move too, and
//! the internal `combine`s and `resolve`s take their values by value.

use crate::balance::{build_sorted, from_sorted_entries, join_tree};
use crate::node::{expose, take_leaf_entries, EntryOwned, Tree};
use crate::ops::split::join2;
use crate::spec::AugSpec;
use parlay::{granularity, par2_if, OwnedSlice};
use std::borrow::Cow;
use std::cmp::Ordering;

/// Construct a map from an unsorted sequence of key-value pairs. Values of
/// duplicate keys are merged left-to-right with `combine` (in input
/// order, because the sort is stable).
pub fn build<S, F>(items: Vec<(S::K, S::V)>, combine: &F) -> Tree<S>
where
    S: AugSpec,
    F: Fn(S::V, S::V) -> S::V + Sync,
{
    from_sorted_distinct::<S>(sorted_distinct::<S, _>(items, |a, b| {
        (a.0, combine(a.1, b.1))
    }))
}

/// Sort `items` by key and fold each run of equal keys left-to-right with
/// `combine` — the prelude of BUILD and of every batch update. Input
/// already sorted and distinct (a presorted bulk load, every normalized
/// commit epoch and replayed WAL record) comes back as it is: the check
/// stops at the first pair out of order, so on unsorted input it costs
/// O(1).
fn sorted_distinct<S, X>(
    mut items: Vec<(S::K, X)>,
    combine: impl Fn((S::K, X), (S::K, X)) -> (S::K, X) + Sync,
) -> Vec<(S::K, X)>
where
    S: AugSpec,
    X: Send + Sync,
{
    if strictly_increasing(&items, |a, b| S::compare(&a.0, &b.0)) {
        return items;
    }
    parlay::par_sort_by(&mut items, |a, b| S::compare(&a.0, &b.0));
    parlay::combine_duplicates_by(items, |a, b| S::compare(&a.0, &b.0).is_eq(), combine)
}

/// Construct a map from pairs already sorted by key with distinct keys.
/// An owned `Vec` is moved into the tree's leaves; a borrowed slice is
/// cloned straight into them. O(n) work: every leaf but the last two is
/// full.
pub fn from_sorted_distinct<'a, S>(items: impl Into<Cow<'a, [(S::K, S::V)]>>) -> Tree<S>
where
    S: AugSpec,
{
    let items = items.into();
    debug_assert!(strictly_increasing(&items, |a, b| S::compare(&a.0, &b.0)));
    match items {
        Cow::Owned(mut items) => build_sorted(OwnedSlice::new(&mut items), &|(key, val)| {
            Some(EntryOwned { key, val })
        }),
        Cow::Borrowed(items) => build_sorted(items, &|(key, val): &(S::K, S::V)| {
            Some(EntryOwned {
                key: key.clone(),
                val: val.clone(),
            })
        }),
    }
}

/// Fewest batch keys either side of a partition must carry before a
/// bulk update forks the two recursions. A side with a handful of keys
/// path-copies a handful of root-to-leaf paths — microseconds — while a
/// fork can cost a thread hand-off, so a 3-key epoch into a large map
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

/// `combine(old, new)` where a key holds a value, `new` where it holds
/// none: the `resolve` of every insert.
#[inline]
pub(crate) fn upsert<V>(old: Option<V>, new: V, combine: impl Fn(V, V) -> V) -> Option<V> {
    Some(match old {
        Some(old) => combine(old, new),
        None => new,
    })
}

/// Insert a whole batch. Existing values are merged with
/// `combine(old, new)`; duplicate keys within the batch are merged
/// left-to-right first.
pub fn multi_insert<S, F>(t: Tree<S>, batch: Vec<(S::K, S::V)>, combine: &F) -> Tree<S>
where
    S: AugSpec,
    F: Fn(S::V, S::V) -> S::V + Sync,
{
    let mut batch = sorted_distinct::<S, _>(batch, |a, b| (a.0, combine(a.1, b.1)));
    update_sorted(t, OwnedSlice::new(&mut batch), &|old, new| {
        upsert(old, new, combine)
    })
}

/// Delete a whole batch of keys (absent keys are ignored).
pub fn multi_delete<S>(t: Tree<S>, keys: Vec<S::K>) -> Tree<S>
where
    S: AugSpec,
{
    let keys: Vec<(S::K, ())> = keys.into_iter().map(|k| (k, ())).collect();
    let mut keys = sorted_distinct::<S, _>(keys, |a, _| a);
    update_sorted(t, OwnedSlice::new(&mut keys), &|_, ()| None)
}

/// Apply a batch of puts (`Some`) and deletes (`None`) in one walk. A key
/// repeated in the batch keeps its last element.
pub fn multi_update<S>(t: Tree<S>, batch: Vec<(S::K, Option<S::V>)>) -> Tree<S>
where
    S: AugSpec,
{
    let mut batch = sorted_distinct::<S, _>(batch, |_, later| later);
    update_sorted(t, OwnedSlice::new(&mut batch), &|_, x| x)
}

/// Apply `batch` — sorted by key, distinct — to `t`. Each batch key's
/// new value is `resolve(old, x)`, where `old` is its value in `t` if
/// any and `x` the batch item's payload, both by value; `None` leaves
/// the key out of the result. Keys of `t` outside the batch are kept as
/// they are. A batch key is moved into the entry it creates, or dropped
/// where the tree's key stays.
pub(crate) fn update_sorted<S, X, R>(
    t: Tree<S>,
    batch: OwnedSlice<'_, (S::K, X)>,
    resolve: &R,
) -> Tree<S>
where
    S: AugSpec,
    X: Send,
    R: Fn(Option<S::V>, X) -> Option<S::V> + Sync,
{
    if batch.is_empty() {
        return t;
    }
    let n = match t {
        // an empty tree: the batch streams into an appender
        None => return build_sorted(batch, &|x| resolved(None, x, resolve)),
        Some(n) if n.is_leaf() => return merge_block(take_leaf_entries(n), batch, resolve),
        Some(n) => n,
    };
    let work = n.size_of() + batch.len();
    let (l, e, r) = expose(n);
    let items = batch.as_slice();
    let lo = items.partition_point(|x| S::compare(&x.0, &e.key).is_lt());
    let found = lo < items.len() && S::compare(&items[lo].0, &e.key).is_eq();
    let (bl, mut br) = batch.split_at(lo);
    let x = if found { br.next() } else { None };
    let (l2, r2) = par2_if(
        worth_forking(work, bl.len(), br.len()),
        move || update_sorted::<S, X, R>(l, bl, resolve),
        move || update_sorted::<S, X, R>(r, br, resolve),
    );
    let mid = match x {
        Some(x) => resolved(Some(e), x, resolve),
        None => Some(e),
    };
    match mid {
        Some(e) => join_tree(l2, e, r2),
        None => join2(l2, r2),
    }
}

/// The entry `resolve` leaves at `x`'s key, given the entry there, if
/// any: the tree's key stays, or `x`'s key moves in.
fn resolved<S, X, R>(old: Option<EntryOwned<S>>, x: (S::K, X), resolve: &R) -> Option<EntryOwned<S>>
where
    S: AugSpec,
    R: Fn(Option<S::V>, X) -> Option<S::V>,
{
    let (key, x) = x;
    match old {
        Some(e) => resolve(Some(e.val), x).map(|val| EntryOwned { key: e.key, val }),
        None => resolve(None, x).map(|val| EntryOwned { key, val }),
    }
}

/// [`update_sorted`]'s bottom: a sorted merge of the batch into one
/// block's entries, then a re-pack.
fn merge_block<S, X, R>(
    entries: Vec<EntryOwned<S>>,
    batch: OwnedSlice<'_, (S::K, X)>,
    resolve: &R,
) -> Tree<S>
where
    S: AugSpec,
    R: Fn(Option<S::V>, X) -> Option<S::V>,
{
    let mut out = Vec::with_capacity(entries.len() + batch.len());
    let mut items = batch.peekable();
    for e in entries {
        while let Some(x) = items.next_if(|x| S::compare(&x.0, &e.key).is_lt()) {
            out.extend(resolved(None, x, resolve));
        }
        match items.next_if(|x| S::compare(&x.0, &e.key).is_eq()) {
            Some(x) => out.extend(resolved(Some(e), x, resolve)),
            None => out.push(e),
        }
    }
    out.extend(items.filter_map(|x| resolved(None, x, resolve)));
    from_sorted_entries::<S>(out)
}

#[cfg(test)]
mod tests {
    use crate::ops::counting::{compares_of, CountingOrder};
    use crate::spec::SumAug;
    use crate::AugMap;
    use std::collections::BTreeMap;

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
        // (one pass here; the bound leaves room for a debug_assert's)
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
    fn build_takes_sorted_distinct_input_as_it_is_and_still_combines_sorted_duplicates() {
        // below the grain, so a sort would compare on this thread
        const N: usize = 1000;
        let sorted: Vec<(u64, u64)> = (0..N as u64).map(|i| (i * 2, i)).collect();
        let mut m = AugMap::<CountingOrder>::new();
        // one pass here, one more in a debug_assert
        assert!(compares_of(|| m = AugMap::build(sorted.clone())) <= 2 * (N - 1));
        assert_eq!(m.to_vec(), sorted);
        // above the grain, too
        let big: Vec<(u64, u64)> = (0..20_000u64).map(|i| (i * 2, i)).collect();
        let built = M::build(big.clone());
        assert_eq!(built.to_vec(), M::from_sorted_distinct(&big).to_vec());
        built.check_invariants().unwrap();
        // sorted with equal neighbours: the sort and the dedup still run
        let m = M::build_with(vec![(1, 1), (2, 2), (2, 3), (2, 4), (3, 5)], |a, b| {
            a * 10 + b
        });
        assert_eq!(m.to_vec(), vec![(1, 1), (2, 234), (3, 5)]);
    }

    #[test]
    fn build_with_folds_duplicates_in_input_order_across_runs_and_merges() {
        // 100k pairs over 1000 scattered keys: many sort runs and merge
        // levels on a pool of two or three, and groups the dedup's
        // blocks split; the value is the input position
        let items: Vec<(u64, u64)> = (0..100_000u64)
            .map(|i| ((i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40) % 1000, i))
            .collect();
        // not commutative, so the fold order shows
        let fold = |a: &u64, b: &u64| (a * 31 + b) % 1_000_000_007;
        let mut expect = std::collections::BTreeMap::new();
        for &(k, v) in &items {
            expect
                .entry(k)
                .and_modify(|acc| *acc = fold(acc, &v))
                .or_insert(v);
        }
        let expect: Vec<(u64, u64)> = expect.into_iter().collect();
        for threads in [1, 2, 3] {
            let m = parlay::with_threads(threads, || M::build_with(items.clone(), fold));
            assert_eq!(m.to_vec(), expect, "{threads} threads");
        }
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

    /// Each leaf's length and depth (a root leaf's is 1), in key order.
    fn leaves<S: crate::AugSpec>(
        t: &crate::node::Tree<S>,
        depth: u32,
        out: &mut Vec<(usize, u32)>,
    ) {
        let Some(n) = t.as_deref() else { return };
        match n.children() {
            None => out.push((n.size_of(), depth + 1)),
            Some((l, r)) => {
                leaves(l, depth + 1, out);
                leaves(r, depth + 1, out);
            }
        }
    }

    /// A valid tree holding `want`, with every leaf but the last two
    /// full, and no taller than its number of leaves requires.
    fn check_sorted_build<S>(m: &AugMap<S>, want: &[(u64, u64)], what: &str)
    where
        S: crate::AugSpec<K = u64, V = u64, A = u64>,
    {
        m.check_invariants()
            .unwrap_or_else(|e| panic!("{what}: {e}"));
        assert_eq!(m.to_vec(), want, "{what}");
        let mut ls = Vec::new();
        leaves(m.root(), 0, &mut ls);
        let cap = crate::balance::leaf_cap::<S>();
        let full = ls.len().saturating_sub(2);
        assert!(ls[..full].iter().all(|l| l.0 == cap), "{what}: {ls:?}");
        let height = ls.iter().map(|l| l.1).max().unwrap_or(0);
        // with one entry a leaf, an internal node may have one child
        let least = match cap {
            1 => (want.len() + 1).next_power_of_two().trailing_zeros(),
            _ => ls.len().next_power_of_two().trailing_zeros() + 1,
        };
        assert!(ls.is_empty() || height == least, "{what}: height {height}");
    }

    /// Every size from empty to five blocks and a few entries, through
    /// every entry point that builds from sorted input, against a
    /// `BTreeMap`.
    fn sorted_builds_at_cap<const CAP: usize>() {
        type C<const CAP: usize> = AugMap<crate::spec::Capped<SumAug<u64, u64>, CAP>>;
        for n in 0..=5 * CAP as u64 + 3 {
            let what = |op: &str| format!("{op}, cap {CAP}, {n} entries");
            let sorted: Vec<(u64, u64)> = (0..n).map(|i| (2 * i, i)).collect();
            let m = C::<CAP>::from_sorted_distinct(sorted.clone());
            check_sorted_build(&m, &sorted, &what("from_sorted_distinct(Vec)"));
            let m = C::<CAP>::from_sorted_distinct(&sorted);
            check_sorted_build(&m, &sorted, &what("from_sorted_distinct(&slice)"));
            // pushed one by one with no length given, as recovery does
            let mut a = crate::Appender::new();
            for &(k, v) in &sorted {
                a.push(k, v);
            }
            let m = C::<CAP>::from_root(a.finish());
            check_sorted_build(&m, &sorted, &what("Appender"));
            let mut m = C::<CAP>::new();
            m.multi_insert(sorted.clone());
            check_sorted_build(&m, &sorted, &what("multi_insert"));
            // every third key a delete, which `resolve` drops on an empty
            // map; then deletes only
            let batch: Vec<(u64, Option<u64>)> = sorted
                .iter()
                .map(|&(k, v)| (k, (v % 3 != 1).then_some(v)))
                .collect();
            let oracle: BTreeMap<u64, u64> =
                batch.iter().filter_map(|&(k, v)| Some((k, v?))).collect();
            let mut m = C::<CAP>::new();
            m.multi_update(batch.clone());
            let kept: Vec<(u64, u64)> = oracle.into_iter().collect();
            check_sorted_build(&m, &kept, &what("multi_update with deletes"));
            let mut m = C::<CAP>::new();
            m.multi_update(batch.into_iter().map(|(k, _)| (k, None)).collect());
            assert!(m.is_empty(), "{}", what("multi_update of deletes only"));
        }
    }

    #[test]
    fn sorted_builds_of_every_small_size_fill_all_leaves_but_the_last_two() {
        sorted_builds_at_cap::<1>();
        sorted_builds_at_cap::<2>();
        sorted_builds_at_cap::<8>();
        sorted_builds_at_cap::<32>();
        sorted_builds_at_cap::<128>();
    }

    #[test]
    fn sorted_builds_above_the_grain_agree_at_every_thread_count() {
        // 16 full leaves of 128 and their pivots, just above the grain
        // (a cut that is not at half the leaves leaves the tree a level
        // too tall), and a larger input cut several times
        for n in [16 * 129 - 1, 20_000u64] {
            let sorted: Vec<(u64, u64)> = (0..n).map(|i| (2 * i, i)).collect();
            let batch: Vec<(u64, Option<u64>)> = sorted
                .iter()
                .map(|&(k, v)| (k, (v % 3 != 1).then_some(v)))
                .collect();
            let kept: Vec<(u64, u64)> = batch.iter().filter_map(|&(k, v)| Some((k, v?))).collect();
            for threads in [1, 2, 3] {
                parlay::with_threads(threads, || {
                    let what = |op: &str| format!("{op}, {n} entries, {threads} threads");
                    let m = M::from_sorted_distinct(sorted.clone());
                    check_sorted_build(&m, &sorted, &what("from_sorted_distinct(Vec)"));
                    let m = M::from_sorted_distinct(&sorted);
                    check_sorted_build(&m, &sorted, &what("from_sorted_distinct(&slice)"));
                    let mut m = M::new();
                    m.multi_insert(sorted.clone());
                    check_sorted_build(&m, &sorted, &what("multi_insert"));
                    // the cut's parts each drop entries: valid, not full
                    let mut m = M::new();
                    m.multi_update(batch.clone());
                    m.check_invariants().unwrap();
                    assert_eq!(m.to_vec(), kept, "{}", what("multi_update with deletes"));
                });
            }
        }
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
