//! Point queries — `find`, order statistics, neighbors — and the one
//! borrowed walk to a position that they and
//! [`Cursor::seek`](crate::cursor::Cursor::seek) share.
//!
//! A position is a `Gap`: the place between two adjacent entries, named
//! by a key or by a rank. `descend` walks from the root to a gap and
//! reports the rank there and the entries on either side; each query
//! reads what it needs of that. The owned walk to the same gaps is
//! `cut`, in [`split`](mod@super::split). Both are O(log n), never
//! restructure on the way down, and end in a blocked leaf with one
//! binary search inside the block.

use crate::node::{size, EntryOwned, InternalNode, Node, Tree};
use crate::spec::AugSpec;
use std::cmp::Ordering;

/// The place between two adjacent entries of a map, or before the first
/// or after the last.
pub(crate) enum Gap<'k, K> {
    /// Between the keys less than `k` and the others. Its own entry is
    /// the one with key `k`.
    Below(&'k K),
    /// Between the keys up to `k` and the greater ones. It owns no entry.
    Above(&'k K),
    /// After the first `i` entries. Its own entry is the one of rank `i`.
    Rank(usize),
}

impl<K> Clone for Gap<'_, K> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<K> Copy for Gap<'_, K> {}

impl<K> Gap<'_, K> {
    /// The gap against a pivot with key `key` and `left` entries to its
    /// left: `Less` before it, `Greater` after it, and `Equal` just
    /// before it when the pivot is the gap's own entry. One key compare
    /// for a key gap.
    #[inline]
    pub(crate) fn cmp_pivot<S: AugSpec<K = K>>(self, key: &K, left: usize) -> Ordering {
        match self {
            Gap::Below(k) => S::compare(k, key),
            Gap::Above(k) => S::compare(k, key).then(Ordering::Greater),
            Gap::Rank(i) => i.cmp(&left),
        }
    }

    /// The same gap, seen past the first `n` entries.
    #[inline]
    pub(crate) fn skip(self, n: usize) -> Self {
        match self {
            Gap::Rank(i) => Gap::Rank(i - n),
            key => key,
        }
    }

    /// The gap's index in the sorted block `es`, and whether the entry
    /// there is the gap's own.
    #[inline]
    pub(crate) fn index<S: AugSpec<K = K>>(self, es: &[EntryOwned<S>]) -> (usize, bool) {
        match self {
            Gap::Below(k) => match es.binary_search_by(|e| S::compare(&e.key, k)) {
                Ok(i) => (i, true),
                Err(i) => (i, false),
            },
            Gap::Above(k) => (es.partition_point(|e| S::compare(&e.key, k).is_le()), false),
            Gap::Rank(i) => (i.min(es.len()), i < es.len()),
        }
    }
}

/// A borrowed entry.
type Entry<'a, S> = (&'a <S as AugSpec>::K, &'a <S as AugSpec>::V);

/// What [`descend`] finds at a gap.
pub(crate) struct Spot<'a, S: AugSpec> {
    /// The number of entries before the gap.
    pub(crate) rank: usize,
    /// The entry just before the gap.
    pub(crate) before: Option<Entry<'a, S>>,
    /// The entry just after the gap.
    pub(crate) after: Option<Entry<'a, S>>,
    /// `after` is the gap's own entry.
    pub(crate) own: bool,
    /// The block the walk ended in, from the gap on; empty when it ended
    /// at a pivot.
    pub(crate) rest: &'a [EntryOwned<S>],
}

/// Walk from the root of `t` to `gap`. With `stop`, the walk ends at a
/// pivot that is the gap's own entry, as `before` is then not needed;
/// without it, the walk goes on through that pivot's left subtree.
/// `on_left` sees each pivot the walk leaves on its right, root first.
///
/// Inlined, so a caller that reads one field of the [`Spot`] compiles
/// the tracking of the others away.
#[inline(always)]
pub(crate) fn descend<'a, S: AugSpec>(
    t: &'a Tree<S>,
    mut gap: Gap<'_, S::K>,
    stop: bool,
    mut on_left: impl FnMut(&'a InternalNode<S>),
) -> Spot<'a, S> {
    let mut spot = Spot {
        rank: 0,
        before: None,
        after: None,
        own: false,
        rest: &[],
    };
    let mut cur = t;
    while let Some(n) = cur.as_deref() {
        let x = match n {
            Node::Leaf(l) => {
                let es = l.entries();
                let (i, own) = gap.index::<S>(es);
                spot.rank += i;
                spot.own |= own;
                // `get`, not indexing: a bounds check that can panic
                // would survive in a caller that reads none of these
                if let Some(e) = i.checked_sub(1).and_then(|b| es.get(b)) {
                    spot.before = Some((&e.key, &e.val));
                }
                if let Some(e) = es.get(i) {
                    spot.after = Some((&e.key, &e.val));
                }
                spot.rest = es.get(i..).unwrap_or_default();
                return spot;
            }
            Node::Internal(x) => x,
        };
        let ls = size(&x.left);
        match gap.cmp_pivot::<S>(&x.key, ls) {
            Ordering::Greater => {
                spot.before = Some((&x.key, &x.val));
                spot.rank += ls + 1;
                gap = gap.skip(ls + 1);
                cur = &x.right;
            }
            ord => {
                spot.after = Some((&x.key, &x.val));
                on_left(x);
                if ord.is_eq() {
                    spot.own = true;
                    if stop {
                        spot.rank += ls;
                        return spot;
                    }
                }
                cur = &x.left;
            }
        }
    }
    spot
}

/// Look up the value stored at `k`.
pub fn find<'a, S: AugSpec>(t: &'a Tree<S>, k: &S::K) -> Option<&'a S::V> {
    let spot = descend(t, Gap::Below(k), true, |_| {});
    spot.after.filter(|_| spot.own).map(|(_, v)| v)
}

/// Is `k` present?
pub fn contains<S: AugSpec>(t: &Tree<S>, k: &S::K) -> bool {
    find(t, k).is_some()
}

/// The minimum entry.
pub fn first<S: AugSpec>(t: &Tree<S>) -> Option<(&S::K, &S::V)> {
    descend(t, Gap::Rank(0), true, |_| {}).after
}

/// The maximum entry.
pub fn last<S: AugSpec>(t: &Tree<S>) -> Option<(&S::K, &S::V)> {
    descend(t, Gap::Rank(size(t)), true, |_| {}).before
}

/// The entry with the largest key strictly less than `k`.
pub fn previous<'a, S: AugSpec>(t: &'a Tree<S>, k: &S::K) -> Option<(&'a S::K, &'a S::V)> {
    descend(t, Gap::Below(k), false, |_| {}).before
}

/// The entry with the smallest key strictly greater than `k`.
pub fn next<'a, S: AugSpec>(t: &'a Tree<S>, k: &S::K) -> Option<(&'a S::K, &'a S::V)> {
    descend(t, Gap::Above(k), true, |_| {}).after
}

/// Number of entries with keys strictly less than `k`.
pub fn rank<S: AugSpec>(t: &Tree<S>, k: &S::K) -> usize {
    descend(t, Gap::Below(k), true, |_| {}).rank
}

/// The `i`-th smallest entry (0-based), if `i < size`.
pub fn select<S: AugSpec>(t: &Tree<S>, i: usize) -> Option<(&S::K, &S::V)> {
    descend(t, Gap::Rank(i), true, |_| {}).after
}

#[cfg(test)]
mod tests {
    use crate::spec::SumAug;
    use crate::AugMap;

    type M = AugMap<SumAug<u64, u64>>;

    fn m() -> M {
        M::build(vec![(10, 1), (20, 2), (30, 3), (40, 4)])
    }

    #[test]
    fn find_on_empty_and_miss() {
        let e = M::new();
        assert_eq!(e.get(&5), None);
        assert!(!e.contains_key(&5));
        assert_eq!(m().get(&15), None);
        assert_eq!(m().get(&20), Some(&2));
    }

    #[test]
    fn first_last_on_all_sizes() {
        assert_eq!(M::new().first(), None);
        assert_eq!(M::new().last(), None);
        let s = M::singleton(7, 70);
        assert_eq!(s.first(), Some((&7, &70)));
        assert_eq!(s.last(), Some((&7, &70)));
        assert_eq!(m().first(), Some((&10, &1)));
        assert_eq!(m().last(), Some((&40, &4)));
    }

    #[test]
    fn previous_next_strictness() {
        let m = m();
        // strictly-less / strictly-greater semantics
        assert_eq!(m.previous(&10), None);
        assert_eq!(m.previous(&11).map(|(k, _)| *k), Some(10));
        assert_eq!(m.previous(&40).map(|(k, _)| *k), Some(30));
        assert_eq!(m.next(&40), None);
        assert_eq!(m.next(&39).map(|(k, _)| *k), Some(40));
        assert_eq!(m.next(&0).map(|(k, _)| *k), Some(10));
    }

    #[test]
    fn rank_counts_strictly_smaller() {
        let m = m();
        assert_eq!(m.rank(&5), 0);
        assert_eq!(m.rank(&10), 0); // key itself not counted
        assert_eq!(m.rank(&11), 1);
        assert_eq!(m.rank(&40), 3);
        assert_eq!(m.rank(&100), 4);
    }

    #[test]
    fn select_is_inverse_of_rank() {
        let m = m();
        for i in 0..m.len() {
            let (k, _) = m.select(i).unwrap();
            assert_eq!(m.rank(k), i);
        }
        assert_eq!(m.select(4), None);
        assert_eq!(M::new().select(0), None);
    }

    #[test]
    fn queries_deep_in_big_blocks() {
        // spans multiple full blocks at every default capacity
        let m = M::build((0..500u64).map(|i| (i * 2, i)).collect());
        for i in 0..500u64 {
            assert_eq!(m.get(&(i * 2)), Some(&i));
            assert_eq!(m.get(&(i * 2 + 1)), None);
            assert_eq!(m.rank(&(i * 2)), i as usize);
            assert_eq!(m.select(i as usize).map(|(k, _)| *k), Some(i * 2));
        }
        assert_eq!(m.previous(&999).map(|(k, _)| *k), Some(998));
        assert_eq!(m.next(&0).map(|(k, _)| *k), Some(2));
    }
}
