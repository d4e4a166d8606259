//! [`AugMap`] — the ergonomic, persistent augmented map.
//!
//! A thin wrapper over a [`Tree`] root. `Clone` is O(1) and yields an
//! independent snapshot (persistence); all bulk operations run in
//! parallel internally. See the crate docs for the full tour.

use crate::iter::Iter;
use crate::node::{self, Tree};
use crate::ops;
use crate::spec::AugSpec;
use std::borrow::Cow;

/// A parallel, persistent, augmented ordered map with specification `S`
/// (leaf blocks of 128 plain or 32 owning entries unless the spec pins a
/// capacity; see [`leaf_cap`](crate::balance::leaf_cap)).
pub struct AugMap<S: AugSpec> {
    root: Tree<S>,
}

impl<S: AugSpec> Clone for AugMap<S> {
    /// O(1): snapshots share all nodes until either side is modified.
    fn clone(&self) -> Self {
        AugMap {
            root: self.root.clone(),
        }
    }
}

impl<S: AugSpec> Default for AugMap<S> {
    fn default() -> Self {
        Self::new()
    }
}

impl<S: AugSpec> std::fmt::Debug for AugMap<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "AugMap{{ len: {} }}", self.len())
    }
}

impl<S: AugSpec> AugMap<S> {
    // -- constructors -----------------------------------------------------

    /// The empty map.
    pub fn new() -> Self {
        AugMap { root: None }
    }

    /// A map with a single entry.
    pub fn singleton(key: S::K, val: S::V) -> Self {
        AugMap {
            root: crate::balance::singleton::<S>(key, val),
        }
    }

    /// Build from unsorted pairs; on duplicate keys the **last** value
    /// wins (like repeated insertion): the sort under it is stable, so
    /// "last" means last in `items`.
    pub fn build(items: Vec<(S::K, S::V)>) -> Self {
        AugMap {
            root: ops::build::<S, _>(items, &|_old, new| new),
        }
    }

    /// Build from unsorted pairs, merging duplicate-key values
    /// left-to-right with `combine` — the paper's `build(S, h)`.
    ///
    /// The sort under it is stable, so equal keys reach `combine` in
    /// input order: three pairs `(k, a)`, `(k, b)`, `(k, c)` give
    /// `combine(&combine(&a, &b), &c)` and `combine` need not commute.
    /// Input already sorted by key and distinct is built without the
    /// sort or the dedup.
    ///
    /// ```
    /// use pam::{AugMap, SumAug};
    /// let m: AugMap<SumAug<u32, u64>> =
    ///     AugMap::build_with(vec![(1, 5), (2, 1), (1, 7)], |a, b| a + b);
    /// assert_eq!(m.get(&1), Some(&12)); // duplicates combined
    /// assert_eq!(m.aug_val(), 13);
    /// ```
    pub fn build_with(
        items: Vec<(S::K, S::V)>,
        combine: impl Fn(&S::V, &S::V) -> S::V + Sync,
    ) -> Self {
        AugMap {
            root: ops::build::<S, _>(items, &|a, b| combine(&a, &b)),
        }
    }

    /// Build from pairs already sorted by key with distinct keys, in O(n)
    /// work through [`crate::Appender`]: every leaf but the last two is
    /// full. An owned `Vec` is moved into the leaves, each entry once; a
    /// borrowed slice (`&v`) is cloned straight into them.
    pub fn from_sorted_distinct<'a>(items: impl Into<Cow<'a, [(S::K, S::V)]>>) -> Self {
        AugMap {
            root: ops::from_sorted_distinct::<S>(items),
        }
    }

    /// Wrap a raw tree, such as [`crate::Appender::finish`]'s (advanced;
    /// also used by the stats helpers and tests).
    pub fn from_root(root: Tree<S>) -> Self {
        AugMap { root }
    }

    // -- size & point queries ---------------------------------------------

    /// Number of entries.
    pub fn len(&self) -> usize {
        node::size(&self.root)
    }

    /// Is the map empty?
    pub fn is_empty(&self) -> bool {
        self.root.is_none()
    }

    /// The value at `key`, if present. O(log n).
    pub fn get(&self, key: &S::K) -> Option<&S::V> {
        ops::find(&self.root, key)
    }

    /// Is `key` present? O(log n).
    pub fn contains_key(&self, key: &S::K) -> bool {
        ops::contains(&self.root, key)
    }

    /// The smallest entry.
    pub fn first(&self) -> Option<(&S::K, &S::V)> {
        ops::first(&self.root)
    }

    /// The largest entry.
    pub fn last(&self) -> Option<(&S::K, &S::V)> {
        ops::last(&self.root)
    }

    /// Largest entry with key strictly less than `key`.
    pub fn previous(&self, key: &S::K) -> Option<(&S::K, &S::V)> {
        ops::previous(&self.root, key)
    }

    /// Smallest entry with key strictly greater than `key`.
    pub fn next(&self, key: &S::K) -> Option<(&S::K, &S::V)> {
        ops::next(&self.root, key)
    }

    /// Number of entries with keys strictly less than `key`.
    pub fn rank(&self, key: &S::K) -> usize {
        ops::rank(&self.root, key)
    }

    /// The `i`-th smallest entry (0-based).
    pub fn select(&self, i: usize) -> Option<(&S::K, &S::V)> {
        ops::select(&self.root, i)
    }

    // -- point updates ----------------------------------------------------

    /// Insert, replacing any existing value. O(log n).
    pub fn insert(&mut self, key: S::K, val: S::V) {
        let root = self.root.take();
        self.root = ops::insert::<S, _>(root, key, val, &|_old, new| new);
    }

    /// Insert; when the key exists the stored value becomes
    /// `combine(old, new)`. O(log n).
    pub fn insert_with(
        &mut self,
        key: S::K,
        val: S::V,
        combine: impl Fn(&S::V, &S::V) -> S::V + Sync,
    ) {
        let root = self.root.take();
        self.root = ops::insert::<S, _>(root, key, val, &|old, new| combine(&old, &new));
    }

    /// Remove the entry at `key` (no-op if absent). O(log n).
    pub fn remove(&mut self, key: &S::K) {
        let root = self.root.take();
        self.root = ops::delete(root, key);
    }

    /// Update the value at `key`: `f(&old)` returning `None` removes the
    /// entry, `Some(v)` replaces it. No-op if absent. O(log n).
    pub fn update(&mut self, key: &S::K, f: impl Fn(&S::V) -> Option<S::V> + Sync) {
        let root = self.root.take();
        self.root = ops::update::<S, _>(root, key, &f);
    }

    // -- bulk operations ---------------------------------------------------

    /// Union; on overlapping keys the value from `other` wins.
    pub fn union(self, other: Self) -> Self {
        self.union_with(other, |_a, b| b.clone())
    }

    /// Union; on overlapping keys the result is `combine(self_v, other_v)`.
    /// O(m log(n/m + 1)) work, polylog span.
    ///
    /// ```
    /// use pam::{AugMap, SumAug};
    /// let a: AugMap<SumAug<u32, u64>> = AugMap::build(vec![(1, 10), (2, 20)]);
    /// let b: AugMap<SumAug<u32, u64>> = AugMap::build(vec![(2, 1), (3, 30)]);
    /// let u = a.union_with(b, |x, y| x + y);
    /// assert_eq!(u.to_vec(), vec![(1, 10), (2, 21), (3, 30)]);
    /// ```
    pub fn union_with(self, other: Self, combine: impl Fn(&S::V, &S::V) -> S::V + Sync) -> Self {
        AugMap {
            root: ops::union::<S, _>(self.root, other.root, &combine),
        }
    }

    /// Intersection; values combined with `combine(self_v, other_v)`.
    pub fn intersect_with(
        self,
        other: Self,
        combine: impl Fn(&S::V, &S::V) -> S::V + Sync,
    ) -> Self {
        AugMap {
            root: ops::intersect::<S, _>(self.root, other.root, &combine),
        }
    }

    /// The entries of `self` whose keys do not occur in `other`.
    pub fn difference(self, other: Self) -> Self {
        AugMap {
            root: ops::difference(self.root, other.root),
        }
    }

    /// Keep the entries satisfying `pred` (parallel; linear work).
    pub fn filter(self, pred: impl Fn(&S::K, &S::V) -> bool + Sync) -> Self {
        AugMap {
            root: ops::filter::<S, _>(self.root, &pred),
        }
    }

    /// Bulk-insert, replacing existing values.
    pub fn multi_insert(&mut self, batch: Vec<(S::K, S::V)>) {
        let root = self.root.take();
        self.root = ops::multi_insert::<S, _>(root, batch, &|_old, new| new);
    }

    /// Bulk-insert with `combine(old, new)` on existing keys.
    pub fn multi_insert_with(
        &mut self,
        batch: Vec<(S::K, S::V)>,
        combine: impl Fn(&S::V, &S::V) -> S::V + Sync,
    ) {
        let root = self.root.take();
        self.root = ops::multi_insert::<S, _>(root, batch, &|old, new| combine(&old, &new));
    }

    /// Bulk-delete a set of keys.
    pub fn multi_delete(&mut self, keys: Vec<S::K>) {
        let root = self.root.take();
        self.root = ops::multi_delete::<S>(root, keys);
    }

    /// Bulk-apply puts (`Some`) and deletes (`None`) in one walk of the
    /// tree. A key repeated in `batch` keeps its last element.
    ///
    /// ```
    /// use pam::{AugMap, SumAug};
    /// let mut m: AugMap<SumAug<u32, u64>> = AugMap::build(vec![(1, 10), (2, 20)]);
    /// m.multi_update(vec![(3, Some(30)), (1, None), (3, Some(31))]);
    /// assert_eq!(m.to_vec(), vec![(2, 20), (3, 31)]);
    /// ```
    pub fn multi_update(&mut self, batch: Vec<(S::K, Option<S::V>)>) {
        let root = self.root.take();
        self.root = ops::multi_update::<S>(root, batch);
    }

    // -- range extraction ---------------------------------------------------

    /// The sub-map of keys `<= key` (persistent: shares nodes with `self`).
    pub fn up_to(&self, key: &S::K) -> Self {
        AugMap {
            root: ops::up_to(self.root.clone(), key),
        }
    }

    /// The sub-map of keys `>= key`.
    pub fn down_to(&self, key: &S::K) -> Self {
        AugMap {
            root: ops::down_to(self.root.clone(), key),
        }
    }

    /// The sub-map of keys in `[lo, hi]` (inclusive).
    pub fn range(&self, lo: &S::K, hi: &S::K) -> Self {
        AugMap {
            root: ops::range(self.root.clone(), lo, hi),
        }
    }

    /// Split at rank: the first `i` entries and the remaining ones, as
    /// two persistent maps. O(log n).
    pub fn split_rank(&self, i: usize) -> (Self, Self) {
        let (l, r) = ops::split_rank(self.root.clone(), i);
        (AugMap { root: l }, AugMap { root: r })
    }

    /// Split around `key`: entries below, the value at `key` (if any),
    /// and entries above. O(log n).
    pub fn split(&self, key: &S::K) -> (Self, Option<S::V>, Self) {
        let (l, v, r) = ops::split(self.root.clone(), key);
        (AugMap { root: l }, v, AugMap { root: r })
    }

    // -- augmented queries ---------------------------------------------------

    /// The augmented value of the whole map: `f(g(k1,v1), ..., g(kn,vn))`.
    /// O(1) — this is the paper's `augVal`.
    pub fn aug_val(&self) -> S::A {
        node::aug_val(&self.root)
    }

    /// Augmented value over keys `<= key`. O(log n).
    pub fn aug_left(&self, key: &S::K) -> S::A {
        ops::aug_left(&self.root, key)
    }

    /// Augmented value over keys `>= key`. O(log n).
    pub fn aug_right(&self, key: &S::K) -> S::A {
        ops::aug_right(&self.root, key)
    }

    /// Augmented value over keys in `[lo, hi]`. O(log n).
    ///
    /// ```
    /// use pam::{AugMap, MaxAug};
    /// let m: AugMap<MaxAug<u32, i64>> =
    ///     AugMap::build(vec![(1, 5), (2, 99), (3, 7), (4, 1)]);
    /// assert_eq!(m.aug_range(&3, &4), 7);   // max value among keys 3..=4
    /// assert_eq!(m.aug_range(&9, &10), i64::MIN); // empty range -> identity
    /// ```
    pub fn aug_range(&self, lo: &S::K, hi: &S::K) -> S::A {
        ops::aug_range(&self.root, lo, hi)
    }

    /// Project-and-reduce the augmented values of the canonical subtrees
    /// covering `[lo, hi]`: the paper's `augProject(g', f', m, k1, k2)`.
    /// Requires `f'(g'(a), g'(b)) = g'(f(a, b))`.
    pub fn aug_project<T>(
        &self,
        lo: &S::K,
        hi: &S::K,
        project: impl Fn(&S::A) -> T,
        reduce: impl Fn(T, T) -> T,
        id: T,
    ) -> T {
        ops::aug_project(&self.root, lo, hi, &project, &reduce, id)
    }

    /// Filter using a predicate on *augmented values*; requires
    /// `h(a) ∨ h(b) ⇔ h(f(a, b))`. O(k log(n/k + 1)) work for k results.
    ///
    /// ```
    /// use pam::{AugMap, MaxAug};
    /// let m: AugMap<MaxAug<u32, u64>> =
    ///     AugMap::build((0..1000u32).map(|i| (i, (i as u64 * 37) % 1000)).collect());
    /// let best = m.aug_filter(|&a| a >= 990); // prunes low-max subtrees
    /// assert!(best.iter().all(|(_, &v)| v >= 990));
    /// assert_eq!(best.len(), 10);
    /// ```
    pub fn aug_filter(&self, h: impl Fn(&S::A) -> bool + Sync) -> Self {
        AugMap {
            root: ops::aug_filter::<S, _>(self.root.clone(), &h),
        }
    }

    /// [`AugMap::aug_filter`] plus the paper's footnote-3 optimization:
    /// subtrees whose augmented value satisfies `h_all` (meaning *every*
    /// entry matches) are kept whole, with zero copying.
    pub fn aug_filter_with_all(
        &self,
        h_any: impl Fn(&S::A) -> bool + Sync,
        h_all: impl Fn(&S::A) -> bool + Sync,
    ) -> Self {
        AugMap {
            root: ops::aug_filter_with_all::<S, _, _>(self.root.clone(), &h_any, &h_all),
        }
    }

    /// The `k` highest-scoring entries, best-first, guided by the
    /// augmentation. `bound(aug)` must upper-bound `score(k, v)` over the
    /// subtree (automatic for max augmentations). O((k + log n) log k).
    pub fn top_k_by<W: Ord>(
        &self,
        k: usize,
        bound: impl Fn(&S::A) -> W,
        score: impl Fn(&S::K, &S::V) -> W,
    ) -> Vec<(&S::K, &S::V)> {
        ops::top_k_by(&self.root, k, bound, score)
    }

    /// Filter-and-transform into a new spec in one pass: entries mapped
    /// to `None` are dropped.
    pub fn filter_map_values<S2: AugSpec<K = S::K>>(
        &self,
        f: impl Fn(&S::K, &S::V) -> Option<S2::V> + Sync,
    ) -> AugMap<S2> {
        AugMap {
            root: ops::filter_map_values::<S, S2, _>(&self.root, &f),
        }
    }

    // -- traversal -----------------------------------------------------------

    /// Borrowing in-order iterator.
    pub fn iter(&self) -> Iter<'_, S> {
        Iter::new(&self.root)
    }

    /// Borrowing iterator over the entries with keys in `[lo, hi]`,
    /// without materializing a sub-map.
    ///
    /// ```
    /// use pam::{AugMap, SumAug};
    /// let m: AugMap<SumAug<u32, u32>> =
    ///     AugMap::build((0..100).map(|i| (i, i)).collect());
    /// let keys: Vec<u32> = m.iter_range(&10, &13).map(|(&k, _)| k).collect();
    /// assert_eq!(keys, vec![10, 11, 12, 13]);
    /// ```
    pub fn iter_range<'a>(&'a self, lo: &'a S::K, hi: &'a S::K) -> crate::iter::RangeIter<'a, S> {
        crate::iter::RangeIter::new(&self.root, lo, hi)
    }

    /// A [`Cursor`](crate::cursor::Cursor) positioned at the smallest
    /// key. Advancing streams block-to-block (one slice step inside a
    /// leaf) instead of re-descending from the root; because maps are
    /// persistent the cursor pins this snapshot even if clones mutate.
    pub fn cursor(&self) -> crate::cursor::Cursor<'_, S> {
        crate::cursor::Cursor::first(&self.root)
    }

    /// A [`Cursor`](crate::cursor::Cursor) positioned at the smallest
    /// key `>= lo` — one O(log n) descent, then streaming advances.
    pub fn cursor_at(&self, lo: &S::K) -> crate::cursor::Cursor<'_, S> {
        crate::cursor::Cursor::seek(&self.root, lo)
    }

    /// Visit every entry in key order, sequentially — the streaming
    /// export path (checkpoint writers, serializers): no intermediate
    /// allocation, unlike [`AugMap::to_vec`], and no per-step iterator
    /// bookkeeping, unlike [`AugMap::iter`].
    ///
    /// ```
    /// use pam::{AugMap, SumAug};
    /// let m: AugMap<SumAug<u32, u32>> = AugMap::build(vec![(2, 20), (1, 10)]);
    /// let mut flat = Vec::new();
    /// m.for_each(|&k, &v| flat.push((k, v)));
    /// assert_eq!(flat, vec![(1, 10), (2, 20)]);
    /// ```
    pub fn for_each(&self, mut f: impl FnMut(&S::K, &S::V)) {
        ops::for_each(&self.root, &mut f);
    }

    /// Apply `map` to every entry and reduce with the associative
    /// `reduce` (identity `id`), in parallel.
    pub fn map_reduce<T: Send>(
        &self,
        map: impl Fn(&S::K, &S::V) -> T + Sync,
        reduce: impl Fn(T, T) -> T + Sync,
        id: T,
    ) -> T {
        ops::map_reduce(&self.root, &map, &reduce, id)
    }

    /// Rebuild with values transformed by `f` under a new spec `S2`
    /// (same key type and order); shape-preserving and parallel.
    pub fn map_values<S2: AugSpec<K = S::K>>(
        &self,
        f: impl Fn(&S::K, &S::V) -> S2::V + Sync,
    ) -> AugMap<S2> {
        AugMap {
            root: ops::map_values::<S, S2, _>(&self.root, &f),
        }
    }

    /// All entries as a sorted vector (parallel flatten).
    pub fn to_vec(&self) -> Vec<(S::K, S::V)> {
        ops::to_vec(&self.root)
    }

    /// All keys, sorted (parallel).
    pub fn keys(&self) -> Vec<S::K> {
        ops::keys(&self.root)
    }

    /// All values, in key order (parallel).
    pub fn values(&self) -> Vec<S::V> {
        ops::values(&self.root)
    }

    // -- plumbing --------------------------------------------------------------

    /// Borrow the raw root (stats helpers, advanced composition).
    pub fn root(&self) -> &Tree<S> {
        &self.root
    }

    /// Unwrap into the raw root.
    pub fn into_root(self) -> Tree<S> {
        self.root
    }

    /// Do the two maps share their root node? (O(1); true implies equal.)
    pub fn ptr_eq(&self, other: &Self) -> bool {
        match (&self.root, &other.root) {
            (None, None) => true,
            (Some(a), Some(b)) => std::sync::Arc::ptr_eq(a, b),
            _ => false,
        }
    }

    /// Drop the map, releasing large unique subtrees in parallel.
    pub fn par_drop(self) {
        node::par_drop(self.root);
    }

    /// Verify order, size, augmentation, and balance invariants
    /// (test/debug helper).
    pub fn check_invariants(&self) -> Result<(), String>
    where
        S::A: PartialEq + std::fmt::Debug,
    {
        crate::validate::check_tree(&self.root)
    }
}

impl<S: AugSpec> FromIterator<(S::K, S::V)> for AugMap<S> {
    fn from_iter<I: IntoIterator<Item = (S::K, S::V)>>(iter: I) -> Self {
        Self::build(iter.into_iter().collect())
    }
}

impl<'a, S: AugSpec> IntoIterator for &'a AugMap<S> {
    type Item = (&'a S::K, &'a S::V);
    type IntoIter = Iter<'a, S>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<S> PartialEq for AugMap<S>
where
    S: AugSpec,
    S::K: PartialEq,
    S::V: PartialEq,
{
    /// Entry-wise equality (keys and values, in order).
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}
