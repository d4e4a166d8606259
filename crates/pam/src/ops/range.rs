//! Range extraction: `up_to`, `down_to`, `range` — O(log n) each, returning
//! persistent sub-maps that share structure with the input. A leaf block is
//! truncated with one binary search and a slice copy.

use crate::balance::{join_tree, Balance};
use crate::node::{expose, take_leaf_entries, Node, Tree};
use crate::spec::AugSpec;
use std::cmp::Ordering;

/// Entries with keys `<= k`.
pub fn up_to<S: AugSpec, B: Balance>(t: Tree<S, B>, k: &S::K) -> Tree<S, B> {
    match t {
        None => None,
        Some(n) if n.is_leaf() => {
            let mut entries = take_leaf_entries(n);
            entries
                .truncate(entries.partition_point(|e| S::compare(&e.key, k) != Ordering::Greater));
            if entries.is_empty() {
                None
            } else {
                Some(Node::make_leaf(entries))
            }
        }
        Some(n) => {
            let (l, e, r) = expose(n);
            if S::compare(&e.key, k) == Ordering::Greater {
                up_to(l, k)
            } else {
                join_tree(l, e, up_to(r, k))
            }
        }
    }
}

/// Entries with keys `>= k`.
pub fn down_to<S: AugSpec, B: Balance>(t: Tree<S, B>, k: &S::K) -> Tree<S, B> {
    match t {
        None => None,
        Some(n) if n.is_leaf() => {
            let mut entries = take_leaf_entries(n);
            let cut = entries.partition_point(|e| S::compare(&e.key, k) == Ordering::Less);
            entries.drain(..cut);
            if entries.is_empty() {
                None
            } else {
                Some(Node::make_leaf(entries))
            }
        }
        Some(n) => {
            let (l, e, r) = expose(n);
            if S::compare(&e.key, k) == Ordering::Less {
                down_to(r, k)
            } else {
                join_tree(down_to(l, k), e, r)
            }
        }
    }
}

/// Entries with keys in the inclusive range `[lo, hi]` (the paper's
/// `range(m, k1, k2)`).
pub fn range<S: AugSpec, B: Balance>(t: Tree<S, B>, lo: &S::K, hi: &S::K) -> Tree<S, B> {
    match t {
        None => None,
        Some(n) => match &*n {
            Node::Leaf(_) => up_to(down_to(Some(n), lo), hi),
            Node::Internal(x) => {
                if S::compare(&x.key, lo) == Ordering::Less {
                    let (_l, _e, r) = expose(n);
                    range(r, lo, hi)
                } else if S::compare(&x.key, hi) == Ordering::Greater {
                    let (l, _e, _r) = expose(n);
                    range(l, lo, hi)
                } else {
                    // lo <= key <= hi: keep root, trim both sides.
                    let (l, e, r) = expose(n);
                    join_tree(down_to(l, lo), e, up_to(r, hi))
                }
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use crate::spec::SumAug;
    use crate::AugMap;

    type M = AugMap<SumAug<u64, u64>>;

    fn m() -> M {
        M::build((0..100u64).map(|i| (i * 10, i)).collect())
    }

    #[test]
    fn up_to_down_to_inclusive() {
        let m = m();
        assert_eq!(m.up_to(&500).len(), 51); // keys 0..=500
        assert_eq!(m.up_to(&505).len(), 51);
        assert_eq!(m.up_to(&0).len(), 1);
        assert_eq!(m.down_to(&500).len(), 50); // keys 500..=990
        assert_eq!(m.down_to(&991).len(), 0);
        assert_eq!(m.down_to(&0).len(), 100);
    }

    #[test]
    fn range_boundaries_and_empty() {
        let m = m();
        assert_eq!(m.range(&0, &990).len(), 100);
        assert_eq!(m.range(&500, &500).len(), 1);
        assert_eq!(m.range(&501, &509).len(), 0);
        assert_eq!(m.range(&990, &0).len(), 0); // inverted
        assert_eq!(M::new().range(&1, &5).len(), 0);
    }

    #[test]
    fn extracted_ranges_are_valid_and_share() {
        // large enough that interior blocks dominate the O(log n + B)
        // rebuilt boundary region
        let m = M::build((0..5000u64).map(|i| (i * 10, i)).collect());
        let r = m.range(&2000, &45000);
        r.check_invariants().unwrap();
        // structure sharing: interior blocks and subtrees come from the
        // source; only the boundary region is rebuilt
        let (total, shared) = crate::stats::shared_with(r.root(), &[m.root()]);
        assert!(shared * 3 > total, "{shared}/{total}");
    }
}
