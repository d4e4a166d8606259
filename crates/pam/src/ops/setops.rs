//! Parallel bulk set operations: `union`, `intersect`, `difference`.
//!
//! All three are one split/join divide-and-conquer, `set_op` — the
//! SPAA'16 paper's algorithm (UNION shown as Figure 2 of the PAM paper),
//! extended with a value function `resolve` applied when a key occurs in
//! both inputs. They differ only in what survives: which one-sided keys
//! (`MergeKeep`) and what `resolve` makes of a key found on both
//! sides. Work-optimal — O(m·log(n/m + 1)) for inputs of size m ≤ n —
//! with O(log n · log m) span, the two recursive calls forked in
//! parallel.
//!
//! With blocked leaves, the recursion bottoms out when the two sides
//! together fit in three blocks: one sequential sorted merge, re-packed
//! once, replaces further splitting. Above that, a leaf is never exposed:
//! when `t2` is a leaf, the recursion exposes `t1` (internal, since it
//! holds more than two blocks' worth) and splits the leaf by key.

use crate::balance::{from_sorted_entries, join_tree, leaf_cap};
use crate::node::{expose, flatten_into, size, EntryOwned, Tree};
use crate::ops::split::{join2, split};
use crate::spec::AugSpec;
use parlay::{granularity, par2_if};
use std::iter::Peekable;
use std::vec;

/// Merge two small trees in one pass, resolving duplicate keys with
/// `resolve` (`None` drops the key), and re-pack the result once:
/// [`from_sorted_entries`] packs up to two blocks' worth in place and
/// streams more through the appender. `t1` is flattened into a buffer;
/// `t2`'s entries go straight into the merge.
fn merge_blocks<S, F>(t1: Tree<S>, t2: Tree<S>, keep: MergeKeep, resolve: &F) -> Tree<S>
where
    S: AugSpec,
    F: Fn(&S::V, &S::V) -> Option<S::V>,
{
    let mut left = Vec::with_capacity(size(&t1));
    let out = Vec::with_capacity(left.capacity() + size(&t2));
    flatten_into(t1, &mut left);
    let mut merge = Merge {
        left: left.into_iter().peekable(),
        out,
        keep,
        resolve,
    };
    flatten_into(t2, &mut merge);
    let Merge { left, mut out, .. } = merge;
    if keep.left {
        out.extend(left);
    }
    from_sorted_entries::<S>(out)
}

/// What [`merge_blocks`] flattens `t2` into: each entry of `t2`, in key
/// order, first passes the entries of `t1` below it to the output.
struct Merge<'a, S: AugSpec, F> {
    left: Peekable<vec::IntoIter<EntryOwned<S>>>,
    out: Vec<EntryOwned<S>>,
    keep: MergeKeep,
    resolve: &'a F,
}

impl<S, F> Extend<EntryOwned<S>> for Merge<'_, S, F>
where
    S: AugSpec,
    F: Fn(&S::V, &S::V) -> Option<S::V>,
{
    fn extend<I: IntoIterator<Item = EntryOwned<S>>>(&mut self, right: I) {
        for e2 in right {
            let below = |e1: &EntryOwned<S>| S::compare(&e1.key, &e2.key).is_lt();
            while let Some(e1) = self.left.next_if(below) {
                if self.keep.left {
                    self.out.push(e1);
                }
            }
            match self.left.next_if(|e1| S::compare(&e1.key, &e2.key).is_eq()) {
                Some(e1) => {
                    if let Some(val) = (self.resolve)(&e1.val, &e2.val) {
                        self.out.push(EntryOwned { key: e1.key, val });
                    }
                }
                None if self.keep.right => self.out.push(e2),
                None => {}
            }
        }
    }
}

/// The most entries two subtrees may hold together for [`set_op`] to
/// merge them in one pass: three blocks' worth. A leaf then only ever
/// faces a side of more than two blocks' worth, which is internal, so the
/// recursion exposes that side and never has to split a block at its
/// median; and the piece of one operand that lines up with a full leaf of
/// the other, often just over a block, merges with it at once. The merge
/// is O(cap) work, so the work bound is unchanged.
const fn merge_limit<S: AugSpec>() -> usize {
    3 * leaf_cap::<S>()
}

/// Which one-sided keys survive a [`set_op`].
#[derive(Copy, Clone)]
struct MergeKeep {
    left: bool,
    right: bool,
}

/// Merge `t1` and `t2`: a key found in one only survives if `keep` says
/// so for its side; a key found in both becomes `resolve(v1, v2)`, with
/// `v1` from `t1`, or leaves the result on `None`.
fn set_op<S, F>(t1: Tree<S>, t2: Tree<S>, keep: MergeKeep, resolve: &F) -> Tree<S>
where
    S: AugSpec,
    F: Fn(&S::V, &S::V) -> Option<S::V> + Sync,
{
    match (t1, t2) {
        (None, t2) => t2.filter(|_| keep.right),
        (t1, None) => t1.filter(|_| keep.left),
        (Some(n1), Some(n2)) => {
            let work = n1.size_of() + n2.size_of();
            if work <= merge_limit::<S>() {
                return merge_blocks(Some(n1), Some(n2), keep, resolve);
            }
            // Expose an internal node, never a leaf: with `t2` a leaf,
            // `t1` holds over two blocks' worth, so it is internal.
            let ((l1, r1), (l2, r2), key, val) = if n2.is_leaf() {
                let (l1, e1, r1) = expose(n1);
                let (l2, v2, r2) = split(Some(n2), &e1.key);
                let val = match v2 {
                    Some(v2) => resolve(&e1.val, &v2),
                    None => Some(e1.val).filter(|_| keep.left),
                };
                ((l1, r1), (l2, r2), e1.key, val)
            } else {
                let (l2, e2, r2) = expose(n2);
                let (l1, v1, r1) = split(Some(n1), &e2.key);
                let val = match v1 {
                    Some(v1) => resolve(&v1, &e2.val),
                    None => Some(e2.val).filter(|_| keep.right),
                };
                ((l1, r1), (l2, r2), e2.key, val)
            };
            let (l, r) = par2_if(
                work > granularity(),
                move || set_op(l1, l2, keep, resolve),
                move || set_op(r1, r2, keep, resolve),
            );
            match val {
                Some(val) => join_tree(l, EntryOwned { key, val }, r),
                None => join2(l, r),
            }
        }
    }
}

/// Union of two maps. When a key appears in both, the result value is
/// `combine(v1, v2)` with `v1` from `t1` and `v2` from `t2`.
pub fn union<S, F>(t1: Tree<S>, t2: Tree<S>, combine: &F) -> Tree<S>
where
    S: AugSpec,
    F: Fn(&S::V, &S::V) -> S::V + Sync,
{
    let keep = MergeKeep {
        left: true,
        right: true,
    };
    set_op(t1, t2, keep, &|v1, v2| Some(combine(v1, v2)))
}

/// Intersection of two maps: keys present in both, values combined with
/// `combine(v1, v2)`.
pub fn intersect<S, F>(t1: Tree<S>, t2: Tree<S>, combine: &F) -> Tree<S>
where
    S: AugSpec,
    F: Fn(&S::V, &S::V) -> S::V + Sync,
{
    let keep = MergeKeep {
        left: false,
        right: false,
    };
    set_op(t1, t2, keep, &|v1, v2| Some(combine(v1, v2)))
}

/// Difference `t1 \ t2`: the entries of `t1` whose keys are absent from `t2`.
pub fn difference<S>(t1: Tree<S>, t2: Tree<S>) -> Tree<S>
where
    S: AugSpec,
{
    let keep = MergeKeep {
        left: true,
        right: false,
    };
    set_op(t1, t2, keep, &|_, _| None)
}

#[cfg(test)]
mod tests {
    use crate::spec::{Capped, SumAug};
    use crate::AugMap;
    use std::collections::BTreeMap;

    type M = AugMap<SumAug<u64, u64>>;
    type Mc<const CAP: usize> = AugMap<Capped<SumAug<u64, u64>, CAP>>;

    /// A fresh build of `n` keys from `from` in steps of `step`, each
    /// valued `key + salt`, so the two operands' values differ.
    fn stepped<const CAP: usize>(n: usize, from: u64, step: u64, salt: u64) -> Mc<CAP> {
        let keys = (0..n as u64).map(|i| from + i * step);
        Mc::<CAP>::from_sorted_distinct(keys.map(|k| (k, k + salt)).collect::<Vec<_>>())
    }

    /// Not commutative: a result built with `v1` and `v2` swapped differs.
    fn combine(v1: &u64, v2: &u64) -> u64 {
        3 * v1 + v2
    }

    /// `union_with`, `intersect_with` and `difference` of `a` and `b`,
    /// with the operands shared (as a snapshot leaves them) and unshared,
    /// each checked for invariants and against a `BTreeMap`.
    fn agree<const CAP: usize>(a: &Mc<CAP>, b: &Mc<CAP>, at: &str) {
        let oa: BTreeMap<u64, u64> = a.to_vec().into_iter().collect();
        let ob: BTreeMap<u64, u64> = b.to_vec().into_iter().collect();
        let mut union = oa.clone();
        for (k, v2) in &ob {
            union
                .entry(*k)
                .and_modify(|v1| *v1 = combine(v1, v2))
                .or_insert(*v2);
        }
        let union: Vec<_> = union.into_iter().collect();
        let meet: Vec<_> = oa
            .iter()
            .filter_map(|(k, v1)| ob.get(k).map(|v2| (*k, combine(v1, v2))))
            .collect();
        let rest: Vec<_> = oa
            .iter()
            .filter(|(k, _)| !ob.contains_key(k))
            .map(|(k, v)| (*k, *v))
            .collect();
        for shared in [true, false] {
            let operands = || match shared {
                true => (a.clone(), b.clone()),
                false => (
                    Mc::<CAP>::from_sorted_distinct(a.to_vec()),
                    Mc::<CAP>::from_sorted_distinct(b.to_vec()),
                ),
            };
            let at = format!("cap {CAP}, {at}, shared {shared}");
            let (x, y) = operands();
            let u = x.union_with(y, combine);
            let (x, y) = operands();
            let i = x.intersect_with(y, combine);
            let (x, y) = operands();
            let d = x.difference(y);
            for (what, got, want) in [
                ("union", u, &union),
                ("intersect", i, &meet),
                ("difference", d, &rest),
            ] {
                got.check_invariants()
                    .unwrap_or_else(|e| panic!("{what}, {at}: {e}"));
                assert_eq!(&got.to_vec(), want, "{what}, {at}");
            }
        }
    }

    /// Operands around the merge limit of three blocks' worth together,
    /// and a single leaf against a side of over two blocks' worth, in
    /// both argument orders.
    fn set_ops_agree_at_the_merge_boundary<const CAP: usize>() {
        let cap = crate::balance::leaf_cap::<Capped<SumAug<u64, u64>, CAP>>();
        for n in (3 * cap).saturating_sub(2)..=3 * cap + 2 {
            let mut sizes = vec![0, 1, cap, n / 2, n.saturating_sub(cap), n - 1, n];
            sizes.retain(|&m| m <= n);
            sizes.sort_unstable();
            sizes.dedup();
            for m in sizes {
                let k = (n - m) as u64;
                // keys in steps of 2 and 3 (shared at multiples of 6), a
                // side wholly above the other, and odd keys from the
                // middle of the even ones
                let layouts = [(0, 3), (10_000, 1), (m as u64 | 1, 2)];
                for (from, step) in layouts {
                    let a = stepped::<CAP>(m, 0, 2, 1);
                    let b = stepped::<CAP>(n - m, from, step, 1_000);
                    let at = format!("{m} + {k} from {from} step {step}");
                    agree(&a, &b, &at);
                    agree(&b, &a, &format!("{at}, swapped"));
                }
            }
        }
        for leaf in [1, cap.div_ceil(2), cap] {
            for big in [2 * cap + 1, 3 * cap, 3 * cap + 1, 4 * cap + 3, 8 * cap] {
                let span = 2 * big as u64;
                for from in [0, big as u64, span - 1] {
                    let l = stepped::<CAP>(leaf, from, 3, 1_000);
                    let t = stepped::<CAP>(big, 0, 2, 1);
                    assert!(l.root().as_deref().is_some_and(|n| n.is_leaf()));
                    assert!(t.root().as_deref().is_some_and(|n| !n.is_leaf()));
                    let at = format!("leaf of {leaf} from {from} and {big} entries");
                    agree(&t, &l, &at);
                    agree(&l, &t, &format!("{at}, swapped"));
                }
            }
        }
    }

    #[test]
    fn set_ops_agree_with_an_oracle_at_the_merge_boundary() {
        set_ops_agree_at_the_merge_boundary::<1>();
        set_ops_agree_at_the_merge_boundary::<2>();
        set_ops_agree_at_the_merge_boundary::<8>();
        set_ops_agree_at_the_merge_boundary::<32>();
        set_ops_agree_at_the_merge_boundary::<128>();
    }

    #[test]
    fn union_with_empty_is_identity() {
        let m = M::build((0..100u64).map(|i| (i, i)).collect());
        let u = m.clone().union_with(M::new(), |_, _| unreachable!());
        assert_eq!(u.to_vec(), m.to_vec());
        let u = M::new().union_with(m.clone(), |_, _| unreachable!());
        assert_eq!(u.to_vec(), m.to_vec());
    }

    #[test]
    fn union_combine_argument_order() {
        // combine(v1, v2): v1 from the receiver, v2 from the argument
        let a = M::singleton(5, 100);
        let b = M::singleton(5, 1);
        let u = a.union_with(b, |x, y| x * 2 + y); // 100*2 + 1
        assert_eq!(u.get(&5), Some(&201));
    }

    #[test]
    fn intersect_empty_and_disjoint() {
        let a = M::build((0..100u64).map(|i| (i * 2, i)).collect());
        let b = M::build((0..100u64).map(|i| (i * 2 + 1, i)).collect());
        assert!(a.clone().intersect_with(M::new(), |x, _| *x).is_empty());
        assert!(a.intersect_with(b, |x, _| *x).is_empty());
    }

    #[test]
    fn difference_disjoint_and_total() {
        let a = M::build((0..100u64).map(|i| (i, i)).collect());
        let b = M::build((50..150u64).map(|i| (i, i)).collect());
        let d = a.clone().difference(b);
        assert_eq!(d.len(), 50);
        assert_eq!(d.last().map(|(k, _)| *k), Some(49));
        // self-difference is empty
        assert!(a.clone().difference(a).is_empty());
    }

    #[test]
    fn set_algebra_sizes() {
        // |A ∪ B| = |A| + |B| - |A ∩ B|
        let a = M::build((0..200u64).map(|i| (i * 3, 1)).collect());
        let b = M::build((0..200u64).map(|i| (i * 5, 1)).collect());
        let u = a.clone().union_with(b.clone(), |x, y| x + y).len();
        let i = a.clone().intersect_with(b.clone(), |x, y| x + y).len();
        assert_eq!(u, a.len() + b.len() - i);
        // |A \ B| = |A| - |A ∩ B|
        assert_eq!(a.clone().difference(b).len(), a.len() - i);
    }

    #[test]
    fn interleaved_unions_stay_valid() {
        // forces the block-merge bottom at many boundaries
        let a = M::build((0..500u64).map(|i| (i * 2, 1)).collect());
        let b = M::build((0..500u64).map(|i| (i * 2 + 1, 2)).collect());
        let u = a.clone().union_with(b.clone(), |x, y| x + y);
        u.check_invariants().unwrap();
        assert_eq!(u.len(), 1000);
        let i = u.clone().intersect_with(a.clone(), |x, _| *x);
        i.check_invariants().unwrap();
        assert_eq!(i.len(), 500);
        let d = u.difference(b);
        d.check_invariants().unwrap();
        assert_eq!(d.to_vec(), a.to_vec());
    }
}
