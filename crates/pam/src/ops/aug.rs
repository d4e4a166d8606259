//! The augmented operations — the functions below the dashed line in
//! Figure 1 of the paper. These are what the maintained partial sums buy:
//! range sums in O(log n), filtered extraction in O(k log(n/k + 1)), and
//! monoid projections of augmented values.
//!
//! With blocked leaves each query bottoms out with one binary search in a
//! block and a fold of `g` over the in-range prefix/suffix — O(log n + B)
//! per query.

use crate::balance::{from_sorted_entries, join_tree, Balance};
use crate::node::{expose, take_leaf_entries, EntryOwned, Node, Tree};
use crate::ops::split::join2;
use crate::spec::AugSpec;
use parlay::{granularity, par2_if};
use std::cmp::Ordering;

/// Fold `g` over a slice of leaf entries; `None` when empty.
fn fold_slice<S: AugSpec>(entries: &[EntryOwned<S>]) -> Option<S::A> {
    if entries.is_empty() {
        None
    } else {
        Some(S::fold_block(entries.iter().map(|e| (&e.key, &e.val))))
    }
}

/// Augmented value of all entries with keys `<= k` (the paper's
/// `augLeft`, Figure 2). O(log n).
pub fn aug_left<S: AugSpec, B: Balance>(t: &Tree<S, B>, k: &S::K) -> S::A {
    left_rec(t, k).unwrap_or_else(S::identity)
}

fn left_rec<S: AugSpec, B: Balance>(t: &Tree<S, B>, k: &S::K) -> Option<S::A> {
    let n = t.as_deref()?;
    match n {
        Node::Leaf(l) => {
            let idx = l
                .entries()
                .partition_point(|e| S::compare(&e.key, k) != Ordering::Greater);
            fold_slice(&l.entries()[..idx])
        }
        Node::Internal(x) => {
            if S::compare(k, &x.key) == Ordering::Less {
                left_rec(&x.left, k)
            } else {
                // whole left subtree + root count; recurse right
                let mid = S::base(&x.key, &x.val);
                let lm = match x.left.as_deref() {
                    Some(l) => S::combine(l.aug(), &mid),
                    None => mid,
                };
                Some(match left_rec(&x.right, k) {
                    Some(r) => S::combine(&lm, &r),
                    None => lm,
                })
            }
        }
    }
}

/// Augmented value of all entries with keys `>= k` (the mirror of
/// [`aug_left`]; the paper calls the pair `augLeft`/`downTo` sums). O(log n).
pub fn aug_right<S: AugSpec, B: Balance>(t: &Tree<S, B>, k: &S::K) -> S::A {
    right_rec(t, k).unwrap_or_else(S::identity)
}

fn right_rec<S: AugSpec, B: Balance>(t: &Tree<S, B>, k: &S::K) -> Option<S::A> {
    let n = t.as_deref()?;
    match n {
        Node::Leaf(l) => {
            let idx = l
                .entries()
                .partition_point(|e| S::compare(&e.key, k) == Ordering::Less);
            fold_slice(&l.entries()[idx..])
        }
        Node::Internal(x) => {
            if S::compare(k, &x.key) == Ordering::Greater {
                right_rec(&x.right, k)
            } else {
                let mid = S::base(&x.key, &x.val);
                let mr = match x.right.as_deref() {
                    Some(r) => S::combine(&mid, r.aug()),
                    None => mid,
                };
                Some(match right_rec(&x.left, k) {
                    Some(l) => S::combine(&l, &mr),
                    None => mr,
                })
            }
        }
    }
}

/// Augmented value of all entries with keys in `[lo, hi]` — equivalent to
/// `augVal(range(m, lo, hi))` but O(log n) with no allocation.
pub fn aug_range<S: AugSpec, B: Balance>(t: &Tree<S, B>, lo: &S::K, hi: &S::K) -> S::A {
    range_rec(t, lo, hi).unwrap_or_else(S::identity)
}

fn range_rec<S: AugSpec, B: Balance>(t: &Tree<S, B>, lo: &S::K, hi: &S::K) -> Option<S::A> {
    let n = t.as_deref()?;
    match n {
        Node::Leaf(l) => {
            let from = l
                .entries()
                .partition_point(|e| S::compare(&e.key, lo) == Ordering::Less);
            let to = l
                .entries()
                .partition_point(|e| S::compare(&e.key, hi) != Ordering::Greater);
            fold_slice(&l.entries()[from..to.max(from)])
        }
        Node::Internal(x) => {
            if S::compare(&x.key, lo) == Ordering::Less {
                return range_rec(&x.right, lo, hi);
            }
            if S::compare(&x.key, hi) == Ordering::Greater {
                return range_rec(&x.left, lo, hi);
            }
            // lo <= key <= hi: sum = (left >= lo) + g(k,v) + (right <= hi)
            let mid = S::base(&x.key, &x.val);
            let lm = match right_rec(&x.left, lo) {
                Some(l) => S::combine(&l, &mid),
                None => mid,
            };
            Some(match left_rec(&x.right, hi) {
                Some(r) => S::combine(&lm, &r),
                None => lm,
            })
        }
    }
}

/// The paper's `augProject(g', f', m, k1, k2)`: equivalent to
/// `g'(augRange(m, k1, k2))` when `f'(g'(a), g'(b)) = g'(f(a, b))`, but it
/// projects each of the O(log n) canonical subtrees of the range through
/// `g'` *before* combining with `f'`. When `A` is a large structure (the
/// range tree's inner maps) this avoids materializing any combined `A`.
pub fn aug_project<S, B, T, G, F2>(
    t: &Tree<S, B>,
    lo: &S::K,
    hi: &S::K,
    project: &G,
    reduce: &F2,
    id: T,
) -> T
where
    S: AugSpec,
    B: Balance,
    G: Fn(&S::A) -> T,
    F2: Fn(T, T) -> T,
{
    match project_range(t, lo, hi, project, reduce) {
        Some(v) => v,
        None => id,
    }
}

/// Project each in-range entry of a leaf slice through `g ∘ base` and
/// fold with `f2`; `None` when the slice is empty.
fn project_slice<S, T, G, F2>(entries: &[EntryOwned<S>], g2: &G, f2: &F2) -> Option<T>
where
    S: AugSpec,
    G: Fn(&S::A) -> T,
    F2: Fn(T, T) -> T,
{
    let mut it = entries.iter();
    let first = it.next()?;
    let mut acc = g2(&S::base(&first.key, &first.val));
    for e in it {
        acc = f2(acc, g2(&S::base(&e.key, &e.val)));
    }
    Some(acc)
}

fn project_range<S, B, T, G, F2>(t: &Tree<S, B>, lo: &S::K, hi: &S::K, g2: &G, f2: &F2) -> Option<T>
where
    S: AugSpec,
    B: Balance,
    G: Fn(&S::A) -> T,
    F2: Fn(T, T) -> T,
{
    let n = t.as_deref()?;
    match n {
        Node::Leaf(l) => {
            let from = l
                .entries()
                .partition_point(|e| S::compare(&e.key, lo) == Ordering::Less);
            let to = l
                .entries()
                .partition_point(|e| S::compare(&e.key, hi) != Ordering::Greater);
            project_slice(&l.entries()[from..to.max(from)], g2, f2)
        }
        Node::Internal(x) => {
            if S::compare(&x.key, lo) == Ordering::Less {
                return project_range(&x.right, lo, hi, g2, f2);
            }
            if S::compare(&x.key, hi) == Ordering::Greater {
                return project_range(&x.left, lo, hi, g2, f2);
            }
            let mid = g2(&S::base(&x.key, &x.val));
            let lm = match project_ge(&x.left, lo, g2, f2) {
                Some(l) => f2(l, mid),
                None => mid,
            };
            Some(match project_le(&x.right, hi, g2, f2) {
                Some(r) => f2(lm, r),
                None => lm,
            })
        }
    }
}

fn project_ge<S, B, T, G, F2>(t: &Tree<S, B>, lo: &S::K, g2: &G, f2: &F2) -> Option<T>
where
    S: AugSpec,
    B: Balance,
    G: Fn(&S::A) -> T,
    F2: Fn(T, T) -> T,
{
    let n = t.as_deref()?;
    match n {
        Node::Leaf(l) => {
            let idx = l
                .entries()
                .partition_point(|e| S::compare(&e.key, lo) == Ordering::Less);
            project_slice(&l.entries()[idx..], g2, f2)
        }
        Node::Internal(x) => {
            if S::compare(&x.key, lo) == Ordering::Less {
                return project_ge(&x.right, lo, g2, f2);
            }
            let mid = g2(&S::base(&x.key, &x.val));
            let mr = match x.right.as_deref() {
                Some(r) => f2(mid, g2(r.aug())),
                None => mid,
            };
            Some(match project_ge(&x.left, lo, g2, f2) {
                Some(l) => f2(l, mr),
                None => mr,
            })
        }
    }
}

fn project_le<S, B, T, G, F2>(t: &Tree<S, B>, hi: &S::K, g2: &G, f2: &F2) -> Option<T>
where
    S: AugSpec,
    B: Balance,
    G: Fn(&S::A) -> T,
    F2: Fn(T, T) -> T,
{
    let n = t.as_deref()?;
    match n {
        Node::Leaf(l) => {
            let to = l
                .entries()
                .partition_point(|e| S::compare(&e.key, hi) != Ordering::Greater);
            project_slice(&l.entries()[..to], g2, f2)
        }
        Node::Internal(x) => {
            if S::compare(&x.key, hi) == Ordering::Greater {
                return project_le(&x.left, hi, g2, f2);
            }
            let mid = g2(&S::base(&x.key, &x.val));
            let lm = match x.left.as_deref() {
                Some(l) => f2(g2(l.aug()), mid),
                None => mid,
            };
            Some(match project_le(&x.right, hi, g2, f2) {
                Some(r) => f2(lm, r),
                None => lm,
            })
        }
    }
}

/// [`aug_filter`] extended with the paper's footnote 3 optimization:
/// *"Similar methodology can be applied if there exists a function h''
/// to decide if all entries in a subtree will be selected just by
/// reading the augmented value."*
///
/// `h_all(aug) == true` must imply every entry of that subtree satisfies
/// the filter; such subtrees are returned **whole** (zero copying, full
/// sharing), in addition to pruning subtrees failing `h_any`. For
/// min/max augmentations both directions come for free (e.g. keep
/// values > θ: `h_any = max > θ`, `h_all = min > θ` with a (min,max)
/// pair augmentation).
pub fn aug_filter_with_all<S, B, HAny, HAll>(
    t: Tree<S, B>,
    h_any: &HAny,
    h_all: &HAll,
) -> Tree<S, B>
where
    S: AugSpec,
    B: Balance,
    HAny: Fn(&S::A) -> bool + Sync,
    HAll: Fn(&S::A) -> bool + Sync,
{
    let n = t?;
    if !h_any(n.aug()) {
        return None; // prune: nothing below can match
    }
    if h_all(n.aug()) {
        return Some(n); // everything below matches: share as-is
    }
    if n.is_leaf() {
        let mut entries = take_leaf_entries(n);
        entries.retain(|e| h_any(&S::base(&e.key, &e.val)));
        return from_sorted_entries::<S, B>(entries);
    }
    let big = n.size_of() > granularity();
    let (l, e, r) = expose(n);
    let keep = h_any(&S::base(&e.key, &e.val));
    // Fork on work that survives, not on size: a child about to be pruned
    // is an O(1) call, so offering it to the pool buys nothing.
    let survives = |c: &Tree<S, B>| c.as_deref().is_some_and(|c| h_any(c.aug()));
    let (l2, r2) = par2_if(
        big && survives(&l) && survives(&r),
        move || aug_filter_with_all(l, h_any, h_all),
        move || aug_filter_with_all(r, h_any, h_all),
    );
    if keep {
        join_tree(l2, e, r2)
    } else {
        join2(l2, r2)
    }
}

/// The paper's `augFilter(h, m)` (Figure 2): equivalent to filtering with
/// `h'(k,v) ⇔ h(g(k,v))`, valid only when `h(a) ∨ h(b) ⇔ h(f(a,b))` —
/// then a subtree whose augmented value fails `h` contains no matching
/// entry and is pruned wholesale. O(k log(n/k + 1)) work for k results.
pub fn aug_filter<S, B, H>(t: Tree<S, B>, h: &H) -> Tree<S, B>
where
    S: AugSpec,
    B: Balance,
    H: Fn(&S::A) -> bool + Sync,
{
    aug_filter_with_all(t, h, &|_| false)
}

#[cfg(test)]
mod tests {
    use crate::spec::{MaxAug, SumAug};
    use crate::AugMap;

    type Sum = AugMap<SumAug<u64, u64>>;
    type Max = AugMap<MaxAug<u64, i64>>;

    #[test]
    fn aug_left_right_on_empty_yield_identity() {
        let e = Sum::new();
        assert_eq!(e.aug_left(&5), 0);
        assert_eq!(e.aug_right(&5), 0);
        assert_eq!(e.aug_range(&1, &9), 0);
        let em = Max::new();
        assert_eq!(em.aug_left(&5), i64::MIN);
    }

    #[test]
    fn aug_left_is_inclusive() {
        let m = Sum::build(vec![(10, 1), (20, 2), (30, 4)]);
        assert_eq!(m.aug_left(&9), 0);
        assert_eq!(m.aug_left(&10), 1); // key 10 included
        assert_eq!(m.aug_left(&29), 3);
        assert_eq!(m.aug_left(&30), 7);
        assert_eq!(m.aug_right(&20), 6); // keys >= 20
    }

    #[test]
    fn aug_range_single_key_and_miss() {
        let m = Sum::build(vec![(10, 1), (20, 2), (30, 4)]);
        assert_eq!(m.aug_range(&20, &20), 2);
        assert_eq!(m.aug_range(&11, &19), 0);
        assert_eq!(m.aug_range(&0, &100), 7);
    }

    #[test]
    fn aug_queries_inside_blocks_match_brute_force() {
        // keys 0,2,4,..., sums checked against a direct fold at offsets
        // that land strictly inside leaf blocks
        let m = Sum::build((0..500u64).map(|i| (i * 2, i)).collect());
        let brute = |lo: u64, hi: u64| -> u64 {
            (0..500u64)
                .filter(|i| i * 2 >= lo && i * 2 <= hi)
                .sum::<u64>()
        };
        for (lo, hi) in [(0u64, 998u64), (1, 13), (37, 41), (500, 501), (998, 998)] {
            assert_eq!(m.aug_range(&lo, &hi), brute(lo, hi), "[{lo},{hi}]");
        }
        for k in [0u64, 1, 63, 64, 997, 998, 1000] {
            assert_eq!(m.aug_left(&k), brute(0, k), "<= {k}");
            assert_eq!(m.aug_right(&k), brute(k, 1000), ">= {k}");
        }
    }

    #[test]
    fn aug_project_respects_homomorphism() {
        // project sums to their parity: g'(a) = a % 2 is a monoid
        // homomorphism from (+) to (+ mod 2)
        let m = Sum::build((0..100u64).map(|i| (i, i)).collect());
        for (lo, hi) in [(0u64, 99u64), (10, 11), (5, 60)] {
            let direct = m.aug_range(&lo, &hi) % 2;
            let proj = m.aug_project(&lo, &hi, |a| a % 2, |x, y| (x + y) % 2, 0);
            assert_eq!(proj, direct);
        }
    }

    #[test]
    fn aug_filter_on_max_keeps_exactly_matching() {
        let m = Max::build(
            (0..1000u64)
                .map(|i| (i, (i as i64 * 7919) % 1000))
                .collect(),
        );
        let kept = m.aug_filter(|&a| a >= 995);
        assert!(kept.iter().all(|(_, &v)| v >= 995));
        let brute = m
            .iter()
            .filter(|(_, &v)| v >= 995)
            .map(|(&k, &v)| (k, v))
            .collect::<Vec<_>>();
        assert_eq!(kept.to_vec(), brute);
        // filter that rejects the root aug prunes everything instantly
        assert!(m.aug_filter(|&a| a > 10_000).is_empty());
    }
}
