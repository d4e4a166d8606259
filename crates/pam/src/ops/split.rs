//! `split`, `join2` and their helpers — the glue between `join` and the
//! bulk algorithms (§4, "Join, Split, Join2 and Union"). Splitting a leaf
//! block slices it in O(LEAF_CAP); the halves stay legal because a
//! *root* leaf may hold any number of entries, and every non-root
//! position is re-joined through the repairing `join_tree`.

use crate::balance::{join_tree, Balance};
use crate::node::{expose, take_leaf_entries, EntryOwned, Node, Tree};
use crate::spec::AugSpec;
use std::cmp::Ordering;
use std::sync::Arc;

/// Wrap entries as a leaf, or `None` when empty.
fn leaf_or_empty<S: AugSpec, B: Balance>(entries: Vec<EntryOwned<S>>) -> Tree<S, B> {
    if entries.is_empty() {
        None
    } else {
        Some(Node::make_leaf(entries))
    }
}

/// `⟨L, v, R⟩ = split(T, k)`: entries less than `k`, the value at `k` (if
/// present), and entries greater than `k`. O(log n).
#[allow(clippy::type_complexity)]
pub fn split<S: AugSpec, B: Balance>(
    t: Tree<S, B>,
    k: &S::K,
) -> (Tree<S, B>, Option<S::V>, Tree<S, B>) {
    match t {
        None => (None, None, None),
        Some(n) if n.is_leaf() => {
            let mut entries = take_leaf_entries(n);
            let (v, right) = match entries.binary_search_by(|x| S::compare(&x.key, k)) {
                Ok(i) => {
                    let mut right = entries.split_off(i);
                    let at = right.remove(0);
                    (Some(at.val), right)
                }
                Err(i) => (None, entries.split_off(i)),
            };
            (leaf_or_empty(entries), v, leaf_or_empty(right))
        }
        Some(n) => {
            let (l, e, r) = expose(n);
            match S::compare(k, &e.key) {
                Ordering::Equal => (l, Some(e.val), r),
                Ordering::Less => {
                    let (ll, b, lr) = split(l, k);
                    (ll, b, join_tree(lr, e, r))
                }
                Ordering::Greater => {
                    let (rl, b, rr) = split(r, k);
                    (join_tree(l, e, rl), b, rr)
                }
            }
        }
    }
}

/// Remove and return the maximum entry. O(log n).
pub fn split_last<S: AugSpec, B: Balance>(n: Arc<Node<S, B>>) -> (Tree<S, B>, EntryOwned<S>) {
    if n.is_leaf() {
        let mut entries = take_leaf_entries(n);
        let last = entries.pop().expect("leaf blocks are never empty");
        return (leaf_or_empty(entries), last);
    }
    let (l, e, r) = expose(n);
    match r {
        None => (l, e),
        Some(rn) => {
            let (rrest, last) = split_last(rn);
            (join_tree(l, e, rrest), last)
        }
    }
}

/// Remove and return the minimum entry. O(log n).
pub fn split_first<S: AugSpec, B: Balance>(n: Arc<Node<S, B>>) -> (EntryOwned<S>, Tree<S, B>) {
    if n.is_leaf() {
        let mut entries = take_leaf_entries(n);
        let first = entries.remove(0);
        return (first, leaf_or_empty(entries));
    }
    let (l, e, r) = expose(n);
    match l {
        None => (e, r),
        Some(ln) => {
            let (first, lrest) = split_first(ln);
            (first, join_tree(lrest, e, r))
        }
    }
}

/// Join without a middle entry: all keys of `l` must be less than all keys
/// of `r`. O(log n).
pub fn join2<S: AugSpec, B: Balance>(l: Tree<S, B>, r: Tree<S, B>) -> Tree<S, B> {
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
pub fn split_rank<S: AugSpec, B: Balance>(t: Tree<S, B>, i: usize) -> (Tree<S, B>, Tree<S, B>) {
    match t {
        None => (None, None),
        Some(n) => {
            if i == 0 {
                return (None, Some(n));
            }
            if i >= n.size_of() {
                return (Some(n), None);
            }
            if n.is_leaf() {
                let mut entries = take_leaf_entries(n);
                let right = entries.split_off(i);
                return (leaf_or_empty(entries), leaf_or_empty(right));
            }
            let (l, e, r) = expose(n);
            let ls = crate::node::size(&l);
            match i.cmp(&(ls + 1)) {
                Ordering::Less => {
                    // split falls inside the left subtree
                    let (ll, lr) = split_rank(l, i);
                    (ll, join_tree(lr, e, r))
                }
                Ordering::Equal => (join_tree(l, e, None), r),
                Ordering::Greater => {
                    let (rl, rr) = split_rank(r, i - ls - 1);
                    (join_tree(l, e, rl), rr)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SumAug;
    use crate::{AugMap, WeightBalanced};

    type S = SumAug<u64, u64>;
    type M = AugMap<S>;

    #[test]
    fn split_on_empty_and_boundaries() {
        let (l, v, r) = split::<S, WeightBalanced>(None, &5);
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
        assert!(join2::<S, WeightBalanced>(None, None).is_none());
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
        let (l, r) = split_rank::<S, WeightBalanced>(None, 3);
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
