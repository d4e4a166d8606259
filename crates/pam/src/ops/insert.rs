//! Point updates (`insert`, `delete`), defined "purely based on JOIN, and
//! hence independent of the balancing scheme" (§4, Figure 2).
//!
//! With blocked leaves the descent bottoms out at a block: the update is a
//! binary search plus an O(LEAF_CAP) vector edit, and the re-pack
//! machinery in [`crate::balance`] restores the fill invariants (an
//! overflowing block splits at its median; an underfull one merges into a
//! neighbor through the parent's re-joining).

use crate::balance::{from_sorted_entries, join_tree, singleton, Balance};
use crate::node::{expose, take_leaf_entries, EntryOwned, Tree};
use crate::ops::split::join2;
use crate::spec::AugSpec;
use std::cmp::Ordering;

/// Insert `(k, v)`. If `k` is already present its value becomes
/// `combine(old, new)` — the paper's extra argument `h` to INSERT.
/// O(log n).
pub fn insert<S, B, F>(t: Tree<S, B>, k: S::K, v: S::V, combine: &F) -> Tree<S, B>
where
    S: AugSpec,
    B: Balance,
    F: Fn(&S::V, &S::V) -> S::V,
{
    match t {
        None => singleton::<S, B>(k, v),
        Some(n) if n.is_leaf() => {
            let mut entries = take_leaf_entries(n);
            match entries.binary_search_by(|x| S::compare(&x.key, &k)) {
                Ok(i) => {
                    entries[i].val = combine(&entries[i].val, &v);
                }
                Err(i) => entries.insert(i, EntryOwned { key: k, val: v }),
            }
            // up to LEAF_CAP + 1 entries: re-packs into one leaf or splits
            // at the median into two half-full ones
            from_sorted_entries::<S, B>(entries)
        }
        Some(n) => {
            let (l, e, r) = expose(n);
            match S::compare(&k, &e.key) {
                Ordering::Less => join_tree(insert::<S, B, F>(l, k, v, combine), e, r),
                Ordering::Greater => join_tree(l, e, insert::<S, B, F>(r, k, v, combine)),
                Ordering::Equal => {
                    let val = combine(&e.val, &v);
                    join_tree(l, EntryOwned { key: e.key, val }, r)
                }
            }
        }
    }
}

/// Update the value at `k` in place (structurally: via path copy):
/// `f(&old)` returning `None` deletes the entry, `Some(v)` replaces it.
/// No-op if `k` is absent. O(log n).
pub fn update<S, B, F>(t: Tree<S, B>, k: &S::K, f: &F) -> Tree<S, B>
where
    S: AugSpec,
    B: Balance,
    F: Fn(&S::V) -> Option<S::V>,
{
    match t {
        None => None,
        Some(n) if n.is_leaf() => {
            let mut entries = take_leaf_entries(n);
            if let Ok(i) = entries.binary_search_by(|x| S::compare(&x.key, k)) {
                match f(&entries[i].val) {
                    Some(val) => entries[i].val = val,
                    None => {
                        entries.remove(i);
                    }
                }
            }
            from_sorted_entries::<S, B>(entries)
        }
        Some(n) => {
            let (l, e, r) = expose(n);
            match S::compare(k, &e.key) {
                Ordering::Less => join_tree(update(l, k, f), e, r),
                Ordering::Greater => join_tree(l, e, update(r, k, f)),
                Ordering::Equal => match f(&e.val) {
                    Some(val) => join_tree(l, EntryOwned { key: e.key, val }, r),
                    None => join2(l, r),
                },
            }
        }
    }
}

/// Remove the entry at `k` (no-op if absent). O(log n).
pub fn delete<S: AugSpec, B: Balance>(t: Tree<S, B>, k: &S::K) -> Tree<S, B> {
    match t {
        None => None,
        Some(n) if n.is_leaf() => {
            let mut entries = take_leaf_entries(n);
            if let Ok(i) = entries.binary_search_by(|x| S::compare(&x.key, k)) {
                entries.remove(i);
            }
            // a now-underfull block is re-merged by the parent's join
            from_sorted_entries::<S, B>(entries)
        }
        Some(n) => {
            let (l, e, r) = expose(n);
            match S::compare(k, &e.key) {
                Ordering::Less => join_tree(delete(l, k), e, r),
                Ordering::Greater => join_tree(l, e, delete(r, k)),
                Ordering::Equal => join2(l, r),
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
    fn insert_into_empty_then_delete_back() {
        let mut m = M::new();
        m.insert(5, 50);
        assert_eq!(m.len(), 1);
        m.remove(&5);
        assert!(m.is_empty());
        m.remove(&5); // no-op on empty
        assert!(m.is_empty());
    }

    #[test]
    fn insert_with_combine_receives_old_then_new() {
        let mut m = M::singleton(1, 7);
        m.insert_with(1, 2, |old, new| old * 100 + new);
        assert_eq!(m.get(&1), Some(&702));
    }

    #[test]
    fn ascending_descending_insertions_stay_balanced() {
        let mut m = M::new();
        for i in 0..2000u64 {
            m.insert(i, i);
        }
        for i in (2000..4000u64).rev() {
            m.insert(i, i);
        }
        m.check_invariants().unwrap();
        assert_eq!(m.len(), 4000);
    }

    #[test]
    fn interleaved_insert_delete_keeps_fill_invariants() {
        let mut m = M::new();
        for i in 0..1000u64 {
            m.insert((i * 7919) % 1000, i);
        }
        m.check_invariants().unwrap();
        for i in 0..500u64 {
            m.remove(&((i * 13) % 1000));
        }
        m.check_invariants().unwrap();
        for i in 0..1000u64 {
            m.update(&i, |v| if v % 2 == 0 { Some(v + 1) } else { None });
        }
        m.check_invariants().unwrap();
    }
}
