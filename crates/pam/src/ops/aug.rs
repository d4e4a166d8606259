//! The augmented operations — the functions below the dashed line in
//! Figure 1 of the paper. These are what the maintained partial sums buy:
//! range sums in O(log n), filtered extraction in O(k log(n/k + 1)), and
//! monoid projections of augmented values.
//!
//! Two recursions carry them all:
//!
//! * `fold_range`, the bounded fold behind `aug_left`, `aug_right`,
//!   `aug_range` and `aug_project`. Its ends are `Bound`s (a key or
//!   `Open`), and what it sums is a `Fold`: the spec's own monoid, or
//!   a projection `g'` of it reduced with `f'`. A subtree wholly inside
//!   the range gives its cached augmented value. With blocked leaves a
//!   query bottoms out with one binary search per bounded end in a block
//!   and a fold over the in-range run — O(log n + B) per query.
//! * `filter_by`, the filter behind `filter`, `aug_filter` and
//!   `aug_filter_with_all`: linear work and O(log² n) span for `filter`,
//!   O(k log(n/k + 1)) work for k results when an augmented value can
//!   prune a subtree.

use crate::balance::{from_sorted_entries, join_tree, Balance};
use crate::node::{expose, take_leaf_entries, EntryOwned, Node, Tree};
use crate::ops::range::{Bound, Open};
use crate::ops::split::join2;
use crate::spec::AugSpec;
use parlay::{granularity, par2_if};

/// What `fold_range` sums over the entries in range.
trait Fold<S: AugSpec> {
    type T;
    /// A whole subtree, from its cached augmented value.
    fn whole(&self, a: &S::A) -> Self::T;
    /// One entry.
    fn entry(&self, k: &S::K, v: &S::V) -> Self::T;
    /// `a` then `b`, in key order.
    fn combine(&self, a: Self::T, b: Self::T) -> Self::T;
    /// A non-empty run of leaf entries.
    fn block(&self, es: &[EntryOwned<S>]) -> Self::T {
        let (first, rest) = es.split_first().expect("a non-empty run");
        rest.iter()
            .fold(self.entry(&first.key, &first.val), |acc, e| {
                self.combine(acc, self.entry(&e.key, &e.val))
            })
    }
}

/// The spec's own monoid: `g`, `f`, and `fold_block` over a leaf run.
struct Monoid;

impl<S: AugSpec> Fold<S> for Monoid {
    type T = S::A;
    fn whole(&self, a: &S::A) -> S::A {
        a.clone()
    }
    fn entry(&self, k: &S::K, v: &S::V) -> S::A {
        S::base(k, v)
    }
    fn combine(&self, a: S::A, b: S::A) -> S::A {
        S::combine(&a, &b)
    }
    fn block(&self, es: &[EntryOwned<S>]) -> S::A {
        S::fold_block(es.iter().map(|e| (&e.key, &e.val)))
    }
}

/// A projection of the monoid: `g'` applied to each canonical subtree's
/// value (and to each entry's `g(k, v)`), reduced with `f'`.
struct Project<'a, G, F2> {
    g: &'a G,
    f: &'a F2,
}

impl<S, T, G, F2> Fold<S> for Project<'_, G, F2>
where
    S: AugSpec,
    G: Fn(&S::A) -> T,
    F2: Fn(T, T) -> T,
{
    type T = T;
    fn whole(&self, a: &S::A) -> T {
        (self.g)(a)
    }
    fn entry(&self, k: &S::K, v: &S::V) -> T {
        (self.g)(&S::base(k, v))
    }
    fn combine(&self, a: T, b: T) -> T {
        (self.f)(a, b)
    }
}

/// `f` over the entries of `t` with keys in `[lo, hi]`; `None` when there
/// are none (and so when `lo > hi`). A subtree wholly inside is read from
/// its cached value. When one end of a node's range is open, that side's
/// value is read before the bounded side is descended (EXPERIMENTS §27).
fn fold_range<S, B, L, H, F>(t: &Tree<S, B>, lo: L, hi: H, f: &F) -> Option<F::T>
where
    S: AugSpec,
    B: Balance,
    L: Bound<S>,
    H: Bound<S>,
    F: Fold<S>,
{
    let n = t.as_deref()?;
    if L::OPEN && H::OPEN {
        return Some(f.whole(n.aug()));
    }
    let x = match n {
        Node::Leaf(l) => {
            let es = l.entries();
            let to = hi.end(es);
            let from = lo.start(&es[..to]);
            return (from < to).then(|| f.block(&es[from..to]));
        }
        Node::Internal(x) => x,
    };
    if !lo.admits_from(&x.key) {
        return fold_range(&x.right, lo, hi, f);
    }
    if !hi.admits_to(&x.key) {
        return fold_range(&x.left, lo, hi, f);
    }
    let cat = |a: Option<F::T>, b: Option<F::T>| match (a, b) {
        (Some(a), Some(b)) => Some(f.combine(a, b)),
        (a, b) => a.or(b),
    };
    let mid = Some(f.entry(&x.key, &x.val));
    if H::OPEN {
        let mr = cat(mid, fold_range(&x.right, Open, Open, f));
        cat(fold_range(&x.left, lo, Open, f), mr)
    } else {
        let lm = cat(fold_range(&x.left, lo, Open, f), mid);
        cat(lm, fold_range(&x.right, Open, hi, f))
    }
}

/// Augmented value of all entries with keys `<= k` (the paper's
/// `augLeft`, Figure 2). O(log n).
pub fn aug_left<S: AugSpec, B: Balance>(t: &Tree<S, B>, k: &S::K) -> S::A {
    fold_range(t, Open, k, &Monoid).unwrap_or_else(S::identity)
}

/// Augmented value of all entries with keys `>= k` (the mirror of
/// [`aug_left`]). O(log n).
pub fn aug_right<S: AugSpec, B: Balance>(t: &Tree<S, B>, k: &S::K) -> S::A {
    fold_range(t, k, Open, &Monoid).unwrap_or_else(S::identity)
}

/// Augmented value of all entries with keys in `[lo, hi]` — equivalent to
/// `augVal(range(m, lo, hi))` but O(log n) with no allocation.
pub fn aug_range<S: AugSpec, B: Balance>(t: &Tree<S, B>, lo: &S::K, hi: &S::K) -> S::A {
    fold_range(t, lo, hi, &Monoid).unwrap_or_else(S::identity)
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
    let f = Project {
        g: project,
        f: reduce,
    };
    fold_range(t, lo, hi, &f).unwrap_or(id)
}

/// Keep the entries `keep` admits. `any(a)` false prunes a subtree
/// wholesale, `all(a)` true keeps it whole (zero copying, full sharing);
/// both read only its augmented value. Both children are filtered in
/// parallel when the node is big and both survive `any` — a child about
/// to be pruned is an O(1) call, so offering it to the pool buys nothing —
/// and rejoined with `join` (root kept) or `join2` (root dropped).
fn filter_by<S, B, P, HAny, HAll>(t: Tree<S, B>, keep: &P, any: &HAny, all: &HAll) -> Tree<S, B>
where
    S: AugSpec,
    B: Balance,
    P: Fn(&S::K, &S::V) -> bool + Sync,
    HAny: Fn(&S::A) -> bool + Sync,
    HAll: Fn(&S::A) -> bool + Sync,
{
    let n = t?;
    if !any(n.aug()) {
        return None;
    }
    if all(n.aug()) {
        return Some(n);
    }
    if n.is_leaf() {
        let mut entries = take_leaf_entries(n);
        entries.retain(|e| keep(&e.key, &e.val));
        return from_sorted_entries::<S, B>(entries);
    }
    let big = n.size_of() > granularity();
    let (l, e, r) = expose(n);
    let survives = |c: &Tree<S, B>| c.as_deref().is_some_and(|c| any(c.aug()));
    let (l2, r2) = par2_if(
        big && survives(&l) && survives(&r),
        move || filter_by(l, keep, any, all),
        move || filter_by(r, keep, any, all),
    );
    if keep(&e.key, &e.val) {
        join_tree(l2, e, r2)
    } else {
        join2(l2, r2)
    }
}

/// Keep the entries satisfying `pred` (the paper's `filter`, Figure 2):
/// linear work, O(log² n) span. Leaf blocks are filtered in one pass.
pub fn filter<S, B, P>(t: Tree<S, B>, pred: &P) -> Tree<S, B>
where
    S: AugSpec,
    B: Balance,
    P: Fn(&S::K, &S::V) -> bool + Sync,
{
    filter_by(t, pred, &|_: &S::A| true, &|_: &S::A| false)
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
    filter_by(t, &|k: &S::K, v: &S::V| h_any(&S::base(k, v)), h_any, h_all)
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

    #[test]
    fn filter_everything_and_nothing() {
        let m = Sum::build((0..500u64).map(|i| (i, i)).collect());
        assert_eq!(m.clone().filter(|_, _| true).len(), 500);
        assert!(m.clone().filter(|_, _| false).is_empty());
        assert!(Sum::new().filter(|_, _| true).is_empty());
    }

    #[test]
    fn filter_maintains_aug_and_invariants() {
        let m = Sum::build((0..2000u64).map(|i| (i, i)).collect());
        let f = m.filter(|&k, _| k % 7 == 0);
        f.check_invariants().unwrap();
        let want: u64 = (0..2000u64).filter(|k| k % 7 == 0).sum();
        assert_eq!(f.aug_val(), want);
    }
}
