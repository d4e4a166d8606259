//! Parallel `filter` (Figure 2 of the paper): linear work, O(log² n) span.
//! Leaf blocks are filtered with one linear pass.

use crate::balance::{from_sorted_entries, join_tree, Balance};
use crate::node::{expose, take_leaf_entries, Tree};
use crate::ops::split::join2;
use crate::spec::AugSpec;
use parlay::{granularity, par2_if};

/// Keep the entries satisfying `pred`. Both subtrees are filtered in
/// parallel and rejoined with `join` (root kept) or `join2` (root dropped).
pub fn filter<S, B, P>(t: Tree<S, B>, pred: &P) -> Tree<S, B>
where
    S: AugSpec,
    B: Balance,
    P: Fn(&S::K, &S::V) -> bool + Sync,
{
    match t {
        None => None,
        Some(n) if n.is_leaf() => {
            let mut entries = take_leaf_entries(n);
            entries.retain(|e| pred(&e.key, &e.val));
            from_sorted_entries::<S, B>(entries)
        }
        Some(n) => {
            let work = n.size_of();
            let (l, e, r) = expose(n);
            let keep = pred(&e.key, &e.val);
            let (l2, r2) = par2_if(
                work > granularity(),
                move || filter(l, pred),
                move || filter(r, pred),
            );
            if keep {
                join_tree(l2, e, r2)
            } else {
                join2(l2, r2)
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
    fn filter_everything_and_nothing() {
        let m = M::build((0..500u64).map(|i| (i, i)).collect());
        assert_eq!(m.clone().filter(|_, _| true).len(), 500);
        assert!(m.clone().filter(|_, _| false).is_empty());
        assert!(M::new().filter(|_, _| true).is_empty());
    }

    #[test]
    fn filter_maintains_aug_and_invariants() {
        let m = M::build((0..2000u64).map(|i| (i, i)).collect());
        let f = m.filter(|&k, _| k % 7 == 0);
        f.check_invariants().unwrap();
        let want: u64 = (0..2000u64).filter(|k| k % 7 == 0).sum();
        assert_eq!(f.aug_val(), want);
    }
}
