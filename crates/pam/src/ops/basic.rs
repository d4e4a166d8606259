//! Point queries: `find`, order statistics, neighbors. All O(log n),
//! borrowing (they never restructure the tree). Blocked leaves end the
//! descent with one binary search inside the block.

use crate::node::{EntryOwned, Node, Tree};
use crate::spec::AugSpec;
use std::cmp::Ordering;

/// Binary-search a sorted block for `k`.
#[inline]
fn block_search<S: AugSpec>(entries: &[EntryOwned<S>], k: &S::K) -> Result<usize, usize> {
    entries.binary_search_by(|e| S::compare(&e.key, k))
}

/// Look up the value stored at `k`.
pub fn find<'a, S: AugSpec>(t: &'a Tree<S>, k: &S::K) -> Option<&'a S::V> {
    let mut cur = t;
    while let Some(n) = cur.as_deref() {
        match n {
            Node::Leaf(l) => {
                return block_search(l.entries(), k)
                    .ok()
                    .map(|i| &l.entries()[i].val)
            }
            Node::Internal(x) => match S::compare(k, &x.key) {
                Ordering::Equal => return Some(&x.val),
                Ordering::Less => cur = &x.left,
                Ordering::Greater => cur = &x.right,
            },
        }
    }
    None
}

/// Is `k` present?
pub fn contains<S: AugSpec>(t: &Tree<S>, k: &S::K) -> bool {
    find(t, k).is_some()
}

/// The minimum entry.
pub fn first<S: AugSpec>(t: &Tree<S>) -> Option<(&S::K, &S::V)> {
    let mut n: &Node<S> = t.as_deref()?;
    loop {
        match n {
            Node::Leaf(l) => {
                let e = &l.entries()[0];
                return Some((&e.key, &e.val));
            }
            Node::Internal(x) => match x.left.as_deref() {
                Some(l) => n = l,
                None => return Some((&x.key, &x.val)),
            },
        }
    }
}

/// The maximum entry.
pub fn last<S: AugSpec>(t: &Tree<S>) -> Option<(&S::K, &S::V)> {
    let mut n: &Node<S> = t.as_deref()?;
    loop {
        match n {
            Node::Leaf(l) => {
                let e = l.entries().last().expect("leaf blocks are never empty");
                return Some((&e.key, &e.val));
            }
            Node::Internal(x) => match x.right.as_deref() {
                Some(r) => n = r,
                None => return Some((&x.key, &x.val)),
            },
        }
    }
}

/// The entry with the largest key strictly less than `k`.
pub fn previous<'a, S: AugSpec>(t: &'a Tree<S>, k: &S::K) -> Option<(&'a S::K, &'a S::V)> {
    let mut best: Option<(&S::K, &S::V)> = None;
    let mut cur = t;
    while let Some(n) = cur.as_deref() {
        match n {
            Node::Leaf(l) => {
                // index of the first key >= k: its predecessor (if any)
                // is the best in-block candidate
                let i = l
                    .entries()
                    .partition_point(|e| S::compare(&e.key, k) == Ordering::Less);
                if i > 0 {
                    let e = &l.entries()[i - 1];
                    best = Some((&e.key, &e.val));
                }
                return best;
            }
            Node::Internal(x) => {
                if S::compare(&x.key, k) == Ordering::Less {
                    best = Some((&x.key, &x.val));
                    cur = &x.right;
                } else {
                    cur = &x.left;
                }
            }
        }
    }
    best
}

/// The entry with the smallest key strictly greater than `k`.
pub fn next<'a, S: AugSpec>(t: &'a Tree<S>, k: &S::K) -> Option<(&'a S::K, &'a S::V)> {
    let mut best: Option<(&S::K, &S::V)> = None;
    let mut cur = t;
    while let Some(n) = cur.as_deref() {
        match n {
            Node::Leaf(l) => {
                let i = l
                    .entries()
                    .partition_point(|e| S::compare(&e.key, k) != Ordering::Greater);
                if i < l.entries().len() {
                    let e = &l.entries()[i];
                    best = Some((&e.key, &e.val));
                }
                return best;
            }
            Node::Internal(x) => {
                if S::compare(&x.key, k) == Ordering::Greater {
                    best = Some((&x.key, &x.val));
                    cur = &x.left;
                } else {
                    cur = &x.right;
                }
            }
        }
    }
    best
}

/// Number of entries with keys strictly less than `k`.
pub fn rank<S: AugSpec>(t: &Tree<S>, k: &S::K) -> usize {
    let mut acc = 0;
    let mut cur = t;
    while let Some(n) = cur.as_deref() {
        match n {
            Node::Leaf(l) => {
                return acc
                    + l.entries()
                        .partition_point(|e| S::compare(&e.key, k) == Ordering::Less)
            }
            Node::Internal(x) => match S::compare(k, &x.key) {
                Ordering::Equal => return acc + crate::node::size(&x.left),
                Ordering::Less => cur = &x.left,
                Ordering::Greater => {
                    acc += crate::node::size(&x.left) + 1;
                    cur = &x.right;
                }
            },
        }
    }
    acc
}

/// The `i`-th smallest entry (0-based), if `i < size`.
pub fn select<S: AugSpec>(t: &Tree<S>, mut i: usize) -> Option<(&S::K, &S::V)> {
    let mut cur = t;
    while let Some(n) = cur.as_deref() {
        match n {
            Node::Leaf(l) => {
                return l.entries().get(i).map(|e| (&e.key, &e.val));
            }
            Node::Internal(x) => {
                let ls = crate::node::size(&x.left);
                match i.cmp(&ls) {
                    Ordering::Less => cur = &x.left,
                    Ordering::Equal => return Some((&x.key, &x.val)),
                    Ordering::Greater => {
                        i -= ls + 1;
                        cur = &x.right;
                    }
                }
            }
        }
    }
    None
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
