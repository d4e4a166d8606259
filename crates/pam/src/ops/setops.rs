//! Parallel bulk set operations: `union`, `intersect`, `difference`.
//!
//! These are the split/join divide-and-conquer algorithms of the SPAA'16
//! paper (UNION shown as Figure 2 of the PAM paper), extended with a value
//! combine function `h` applied when a key occurs in both inputs. They are
//! work-optimal — O(m·log(n/m + 1)) for inputs of size m ≤ n — and have
//! O(log n · log m) span with the two recursive calls forked in parallel.
//!
//! With blocked leaves, the recursion bottoms out when both sides fit in
//! a block: a sequential sorted merge of the two blocks replaces further
//! splitting.

use crate::balance::{from_sorted_entries, join_tree, Balance};
use crate::node::{expose, flatten_into, size, EntryOwned, Tree};
use crate::ops::split::{join2, split};
use crate::spec::AugSpec;
use parlay::{granularity, par2_if};
use std::cmp::Ordering;

/// Flatten two key-disjoint-or-overlapping small trees and merge them,
/// resolving duplicate keys with `resolve` (`None` drops the key).
fn merge_blocks<S, B, F>(t1: Tree<S, B>, t2: Tree<S, B>, each: MergeKeep, resolve: &F) -> Tree<S, B>
where
    S: AugSpec,
    B: Balance,
    F: Fn(&S::V, &S::V) -> Option<S::V>,
{
    let mut a = Vec::with_capacity(size(&t1));
    flatten_into(t1, &mut a);
    let mut b = Vec::with_capacity(size(&t2));
    flatten_into(t2, &mut b);
    let mut out = Vec::with_capacity(a.len() + b.len());
    let mut bi = b.into_iter().peekable();
    for e1 in a {
        loop {
            match bi.peek() {
                Some(e2) => match S::compare(&e2.key, &e1.key) {
                    Ordering::Less => {
                        let e2 = bi.next().expect("peeked");
                        if each.right {
                            out.push(e2);
                        }
                    }
                    Ordering::Equal => {
                        let e2 = bi.next().expect("peeked");
                        if let Some(val) = resolve(&e1.val, &e2.val) {
                            out.push(EntryOwned { key: e1.key, val });
                        }
                        break;
                    }
                    Ordering::Greater => {
                        if each.left {
                            out.push(e1);
                        }
                        break;
                    }
                },
                None => {
                    if each.left {
                        out.push(e1);
                    }
                    break;
                }
            }
        }
    }
    if each.right {
        out.extend(bi);
    }
    from_sorted_entries::<S, B>(out)
}

/// Which one-sided keys survive a [`merge_blocks`].
#[derive(Copy, Clone)]
struct MergeKeep {
    left: bool,
    right: bool,
}

/// Union of two maps. When a key appears in both, the result value is
/// `combine(v1, v2)` with `v1` from `t1` and `v2` from `t2`.
pub fn union<S, B, F>(t1: Tree<S, B>, t2: Tree<S, B>, combine: &F) -> Tree<S, B>
where
    S: AugSpec,
    B: Balance,
    F: Fn(&S::V, &S::V) -> S::V + Sync,
{
    match (t1, t2) {
        (None, t2) => t2,
        (t1, None) => t1,
        (Some(n1), Some(n2)) => {
            let cap = B::LEAF_CAP;
            if n1.size_of() <= cap && n2.size_of() <= cap {
                return merge_blocks(
                    Some(n1),
                    Some(n2),
                    MergeKeep {
                        left: true,
                        right: true,
                    },
                    &|v1, v2| Some(combine(v1, v2)),
                );
            }
            let work = n1.size_of() + n2.size_of();
            let (l2, e2, r2) = expose(n2);
            let (l1, v1, r1) = split(Some(n1), &e2.key);
            let (l, r) = par2_if(
                work > granularity(),
                move || union(l1, l2, combine),
                move || union(r1, r2, combine),
            );
            let val = match v1 {
                Some(v1) => combine(&v1, &e2.val),
                None => e2.val,
            };
            join_tree(l, EntryOwned { key: e2.key, val }, r)
        }
    }
}

/// Intersection of two maps: keys present in both, values combined with
/// `combine(v1, v2)`.
pub fn intersect<S, B, F>(t1: Tree<S, B>, t2: Tree<S, B>, combine: &F) -> Tree<S, B>
where
    S: AugSpec,
    B: Balance,
    F: Fn(&S::V, &S::V) -> S::V + Sync,
{
    match (t1, t2) {
        (None, _) | (_, None) => None,
        (Some(n1), Some(n2)) => {
            let cap = B::LEAF_CAP;
            if n1.size_of() <= cap && n2.size_of() <= cap {
                return merge_blocks(
                    Some(n1),
                    Some(n2),
                    MergeKeep {
                        left: false,
                        right: false,
                    },
                    &|v1, v2| Some(combine(v1, v2)),
                );
            }
            let work = n1.size_of() + n2.size_of();
            let (l2, e2, r2) = expose(n2);
            let (l1, v1, r1) = split(Some(n1), &e2.key);
            let (l, r) = par2_if(
                work > granularity(),
                move || intersect(l1, l2, combine),
                move || intersect(r1, r2, combine),
            );
            match v1 {
                Some(v1) => {
                    let val = combine(&v1, &e2.val);
                    join_tree(l, EntryOwned { key: e2.key, val }, r)
                }
                None => join2(l, r),
            }
        }
    }
}

/// Difference `t1 \ t2`: the entries of `t1` whose keys are absent from `t2`.
pub fn difference<S, B>(t1: Tree<S, B>, t2: Tree<S, B>) -> Tree<S, B>
where
    S: AugSpec,
    B: Balance,
{
    match (t1, t2) {
        (None, _) => None,
        (t1, None) => t1,
        (Some(n1), Some(n2)) => {
            let cap = B::LEAF_CAP;
            if n1.size_of() <= cap && n2.size_of() <= cap {
                return merge_blocks(
                    Some(n1),
                    Some(n2),
                    MergeKeep {
                        left: true,
                        right: false,
                    },
                    &|_, _| None,
                );
            }
            let work = n1.size_of() + n2.size_of();
            let (l2, e2, r2) = expose(n2);
            let (l1, _v1, r1) = split(Some(n1), &e2.key);
            drop(e2);
            let (l, r) = par2_if(
                work > granularity(),
                move || difference(l1, l2),
                move || difference(r1, r2),
            );
            join2(l, r)
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::spec::SumAug;
    use crate::AugMap;

    type M = AugMap<SumAug<u64, u64>>;

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
