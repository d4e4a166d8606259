//! Range extraction: `up_to`, `down_to`, `range` — one recursion,
//! `extract`, over a pair of `Bound`s. Each is O(log n) and returns a
//! persistent sub-map that shares structure with the input. A boundary
//! block's run is found by `run`, which `ops::aug`'s bounded fold uses
//! too; a shared block clones only that run, and a node the walk passes
//! by gives up its child without a clone of its pivot.
//!
//! A `Bound` is a key or `Open`, so each query shape compiles to its
//! own copy of the recursion and the tests of an absent end fold away.

use crate::balance::join_tree;
use crate::node::{expose, take_child, take_leaf_run, EntryOwned, Node, Tree};
use crate::spec::AugSpec;
use std::cmp::Ordering;
use std::ops::Range;

/// One end of an inclusive key range: a key, or `Open` for no end.
pub(crate) trait Bound<S: AugSpec>: Copy {
    /// This end cuts nothing off.
    const OPEN: bool;
    /// As the low end, `k` is inside: `lo <= k`.
    fn admits_from(self, k: &S::K) -> bool;
    /// As the high end, `k` is inside: `k <= hi`.
    fn admits_to(self, k: &S::K) -> bool;
}

/// The entries of the sorted block `es` with keys in `[lo, hi]`. With one
/// end open, a pass from the open side finds the other: it reads only
/// lines the caller is about to read (fold or copy) anyway, and streams
/// them, where a binary search on a block not yet in cache makes
/// dependent misses. With both ends bounded in one block, two binary
/// searches.
pub(crate) fn run<S: AugSpec, L: Bound<S>, H: Bound<S>>(
    es: &[EntryOwned<S>],
    lo: L,
    hi: H,
) -> Range<usize> {
    let below = |e: &EntryOwned<S>| !lo.admits_from(&e.key);
    let above = |e: &EntryOwned<S>| !hi.admits_to(&e.key);
    if !L::OPEN && !H::OPEN {
        let to = es.partition_point(|e| !above(e));
        return es[..to].partition_point(below)..to;
    }
    let to = if H::OPEN {
        es.len()
    } else {
        es.iter().position(above).unwrap_or(es.len())
    };
    let from = if L::OPEN {
        0
    } else {
        es[..to].iter().rposition(below).map_or(0, |i| i + 1)
    };
    from..to
}

/// The absent end of a one-sided range.
#[derive(Copy, Clone)]
pub(crate) struct Open;

impl<S: AugSpec> Bound<S> for Open {
    const OPEN: bool = true;
    fn admits_from(self, _: &S::K) -> bool {
        true
    }
    fn admits_to(self, _: &S::K) -> bool {
        true
    }
}

impl<S: AugSpec> Bound<S> for &S::K {
    const OPEN: bool = false;
    fn admits_from(self, k: &S::K) -> bool {
        S::compare(k, self) != Ordering::Less
    }
    fn admits_to(self, k: &S::K) -> bool {
        S::compare(k, self) != Ordering::Greater
    }
}

/// The entries of `t` with keys in `[lo, hi]`; empty when `lo > hi`.
/// A subtree wholly inside is kept as it is, and nothing outside is
/// cloned.
pub(crate) fn extract<S, L, H>(t: Tree<S>, lo: L, hi: H) -> Tree<S>
where
    S: AugSpec,
    L: Bound<S>,
    H: Bound<S>,
{
    if L::OPEN && H::OPEN {
        return t;
    }
    let n = t?;
    let x = match &*n {
        Node::Leaf(l) => {
            let r = run(l.entries(), lo, hi);
            return match r.len() {
                0 => None,
                k if k == l.entries().len() => Some(n),
                _ => Some(Node::make_leaf(take_leaf_run(n, r))),
            };
        }
        Node::Internal(x) => x,
    };
    if !lo.admits_from(&x.key) {
        return extract(take_child(n, true), lo, hi);
    }
    if !hi.admits_to(&x.key) {
        return extract(take_child(n, false), lo, hi);
    }
    let (l, e, r) = expose(n);
    join_tree(extract(l, lo, Open), e, extract(r, Open, hi))
}

/// Entries with keys `<= k`.
pub fn up_to<S: AugSpec>(t: Tree<S>, k: &S::K) -> Tree<S> {
    extract(t, Open, k)
}

/// Entries with keys `>= k`.
pub fn down_to<S: AugSpec>(t: Tree<S>, k: &S::K) -> Tree<S> {
    extract(t, k, Open)
}

/// Entries with keys in the inclusive range `[lo, hi]` (the paper's
/// `range(m, k1, k2)`).
pub fn range<S: AugSpec>(t: Tree<S>, lo: &S::K, hi: &S::K) -> Tree<S> {
    extract(t, lo, hi)
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
