//! `split`, `join2` and their helpers — the glue between `join` and the
//! bulk algorithms (§4, "Join, Split, Join2 and Union"). All four splits
//! are one owned walk, `cut`, to a [`basic`](super::basic) gap: below a
//! key or after a rank. Cutting a leaf block slices it in O(leaf_cap);
//! the halves stay legal because a *root* leaf may hold any number of
//! entries, and every non-root position is re-joined through the
//! repairing `join_tree`.

use crate::balance::join_tree;
use crate::node::{expose, size, take_leaf_entries, EntryOwned, Node, Tree};
use crate::ops::basic::Gap;
use crate::spec::AugSpec;
use std::cmp::Ordering;
use std::sync::Arc;

/// Cut `t` at `gap`: the entries before it, the gap's own entry if
/// `take` and `t` holds it, and the entries after it. A walk that meets
/// the entry it takes as a pivot stops there, and a subtree or block
/// that the cut leaves whole is kept as it is. O(log n).
#[allow(clippy::type_complexity)]
pub(crate) fn cut<S: AugSpec>(
    t: Tree<S>,
    gap: Gap<'_, S::K>,
    take: bool,
) -> (Tree<S>, Option<EntryOwned<S>>, Tree<S>) {
    let Some(n) = t else {
        return (None, None, None);
    };
    if let Gap::Rank(i) = gap {
        if i == 0 && !take {
            return (None, None, Some(n));
        }
        if i >= n.size_of() {
            return (Some(n), None, None);
        }
    }
    let (ls, ord) = match &*n {
        Node::Leaf(l) => {
            let (i, own) = gap.index::<S>(l.entries());
            let j = i + usize::from(take && own);
            if j == 0 {
                return (None, None, Some(n));
            }
            if i == l.entries().len() {
                return (Some(n), None, None);
            }
            let mut es = take_leaf_entries(n);
            let after = es.split_off(j);
            let mid = if j > i { es.pop() } else { None };
            let leaf = |es: Vec<_>| (!es.is_empty()).then(|| Node::make_leaf(es));
            return (leaf(es), mid, leaf(after));
        }
        Node::Internal(x) => {
            let ls = size(&x.left);
            (ls, gap.cmp_pivot::<S>(&x.key, ls))
        }
    };
    let (l, e, r) = expose(n);
    match ord {
        Ordering::Greater => {
            let (rl, mid, rr) = cut(r, gap.skip(ls + 1), take);
            (join_tree(l, e, rl), mid, rr)
        }
        Ordering::Equal if take => (l, Some(e), r),
        _ => {
            let (ll, mid, lr) = cut(l, gap, take);
            (ll, mid, join_tree(lr, e, r))
        }
    }
}

/// `⟨L, v, R⟩ = split(T, k)`: entries less than `k`, the value at `k` (if
/// present), and entries greater than `k`. O(log n).
#[allow(clippy::type_complexity)]
pub fn split<S: AugSpec>(t: Tree<S>, k: &S::K) -> (Tree<S>, Option<S::V>, Tree<S>) {
    let (l, e, r) = cut(t, Gap::Below(k), true);
    (l, e.map(|e| e.val), r)
}

/// Remove and return the maximum entry. O(log n).
pub fn split_last<S: AugSpec>(n: Arc<Node<S>>) -> (Tree<S>, EntryOwned<S>) {
    let i = n.size_of() - 1;
    let (l, e, _) = cut(Some(n), Gap::Rank(i), true);
    (l, e.expect("a tree holds its last entry"))
}

/// Remove and return the minimum entry. O(log n).
pub fn split_first<S: AugSpec>(n: Arc<Node<S>>) -> (EntryOwned<S>, Tree<S>) {
    let (_, e, r) = cut(Some(n), Gap::Rank(0), true);
    (e.expect("a tree holds its first entry"), r)
}

/// Join without a middle entry: all keys of `l` must be less than all keys
/// of `r`. O(log n).
pub fn join2<S: AugSpec>(l: Tree<S>, r: Tree<S>) -> Tree<S> {
    match l {
        None => r,
        Some(ln) => {
            let (lrest, last) = split_last(ln);
            join_tree(lrest, last, r)
        }
    }
}

/// Split by *rank*: the first `i` entries (by key order) and the rest.
/// O(log n) — the ordinal counterpart of [`split`], built on the stored
/// subtree sizes.
pub fn split_rank<S: AugSpec>(t: Tree<S>, i: usize) -> (Tree<S>, Tree<S>) {
    let (l, _, r) = cut(t, Gap::Rank(i), false);
    (l, r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SumAug;
    use crate::AugMap;

    type S = SumAug<u64, u64>;
    type M = AugMap<S>;

    #[test]
    fn split_on_empty_and_boundaries() {
        let (l, v, r) = split::<S>(None, &5);
        assert!(l.is_none() && v.is_none() && r.is_none());

        let m = M::build(vec![(10, 1), (20, 2), (30, 3)]);
        let (l, v, r) = split(m.root().clone(), &10);
        assert_eq!(crate::node::size(&l), 0);
        assert_eq!(v, Some(1));
        assert_eq!(crate::node::size(&r), 2);
        let (l, v, r) = split(m.root().clone(), &35);
        assert_eq!(crate::node::size(&l), 3);
        assert_eq!(v, None);
        assert!(r.is_none());
    }

    #[test]
    fn split_first_last_extract_extremes() {
        let m = M::build((1..=100u64).map(|i| (i, i)).collect());
        let (rest, last) = split_last(m.root().clone().unwrap());
        assert_eq!(last.key, 100);
        assert_eq!(crate::node::size(&rest), 99);
        let (first, rest) = split_first(m.root().clone().unwrap());
        assert_eq!(first.key, 1);
        assert_eq!(crate::node::size(&rest), 99);
    }

    #[test]
    fn join2_concatenates() {
        let a = M::build((0..50u64).map(|i| (i, i)).collect());
        let b = M::build((100..150u64).map(|i| (i, i)).collect());
        let j = join2(a.root().clone(), b.root().clone());
        assert_eq!(crate::node::size(&j), 100);
        let j = M::from_root(j);
        j.check_invariants().unwrap();
        assert_eq!(j.first().map(|(k, _)| *k), Some(0));
        assert_eq!(j.last().map(|(k, _)| *k), Some(149));
        // empty sides
        assert!(join2::<S>(None, None).is_none());
    }

    #[test]
    fn split_rank_boundaries() {
        let m = M::build((0..10u64).map(|i| (i, i)).collect());
        let (l, r) = split_rank(m.root().clone(), 0);
        assert!(l.is_none());
        assert_eq!(crate::node::size(&r), 10);
        let (l, r) = split_rank(m.root().clone(), 10);
        assert_eq!(crate::node::size(&l), 10);
        assert!(r.is_none());
        let (l, r) = split_rank::<S>(None, 3);
        assert!(l.is_none() && r.is_none());
    }

    #[test]
    fn split_inside_blocks_keeps_both_halves_valid() {
        let m = M::build((0..300u64).map(|i| (i * 2, i)).collect());
        for k in [0u64, 1, 7, 100, 299, 300, 598, 600] {
            let (l, _, r) = split(m.root().clone(), &k);
            M::from_root(l).check_invariants().unwrap();
            M::from_root(r).check_invariants().unwrap();
        }
        for i in [0usize, 1, 17, 150, 299, 300] {
            let (l, r) = split_rank(m.root().clone(), i);
            assert_eq!(crate::node::size(&l), i);
            M::from_root(l).check_invariants().unwrap();
            M::from_root(r).check_invariants().unwrap();
        }
    }
}
