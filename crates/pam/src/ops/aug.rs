//! The augmented operations — the functions below the dashed line in
//! Figure 1 of the paper. These are what the maintained partial sums buy:
//! range sums in O(log n), filtered extraction in O(k log(n/k + 1)), and
//! monoid projections of augmented values.
//!
//! Two bodies carry them all:
//!
//! * `fold_range`, the bounded fold behind `aug_left`, `aug_right`,
//!   `aug_range` and `aug_project`. Its ends are `Bound`s (a key or
//!   `Open`), and what it sums is a `Fold`: the spec's own monoid, or
//!   a projection `g'` of it reduced with `f'`. It is one loop, not a
//!   recursion: it descends to the split node, the first pivot inside
//!   the range, and then advances a low-side and a high-side cursor one
//!   level per turn of the same loop, so the two boundary paths' cache
//!   misses overlap. A subtree wholly inside the range gives its cached
//!   augmented value. A boundary block with one end inside finds that end
//!   by a linear pass over the lines its fold then reads (backward from
//!   the block's end on the low side, forward from its start on the high
//!   side); a block that holds both ends binary-searches them. O(log n + B)
//!   per query.
//! * `filter_by`, the filter behind `filter`, `aug_filter` and
//!   `aug_filter_with_all`: linear work and O(log² n) span for `filter`,
//!   O(k log(n/k + 1)) work for k results when an augmented value can
//!   prune a subtree.

use crate::balance::{from_sorted_entries, join_tree};
use crate::node::{expose, take_children, take_leaf_where, EntryOwned, InternalNode, Node, Tree};
use crate::ops::range::{run, Bound, Open};
use crate::ops::split::join2;
use crate::spec::AugSpec;
use parlay::{granularity, par2_if};
use std::ops::Range;

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
    /// `a` then `b`, either of them possibly empty.
    fn cat(&self, a: Option<Self::T>, b: Option<Self::T>) -> Option<Self::T> {
        match (a, b) {
            (Some(a), Some(b)) => Some(self.combine(a, b)),
            (a, b) => a.or(b),
        }
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
/// value (and to each entry's `g(k, v)`), reduced with `f'`. A boundary
/// run of a leaf is one canonical piece, `g'(fold_block(run))`: the
/// contract `f'(g'(a), g'(b)) = g'(f(a, b))` makes it the `f'`-fold of
/// its entries, and a spec whose `g` is costly (a range tree's inner
/// map) builds the run's value in one call.
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
    fn block(&self, es: &[EntryOwned<S>]) -> T {
        (self.g)(&S::fold_block(es.iter().map(|e| (&e.key, &e.val))))
    }
}

/// Internal nodes on any root-to-leaf path bound this: a child weighs at
/// most 71 % of its parent (`balance::like`), a leaf at least 2 and a
/// tree at most 2^64, so a path holds at most 127.
const MAX_PATH: usize = 128;

/// `f` over the entries of `t` with keys in `[lo, hi]`; `None` when there
/// are none (and so when `lo > hi`). A subtree wholly inside is read from
/// its cached value; an open end's side is read whole at the split node
/// (EXPERIMENTS §27).
///
/// Below the split node the high side's pieces arrive in key order and
/// are summed as they come. The low side's arrive last piece first, so
/// its pivots wait in `taken` and are summed bottom-up at the end. Each
/// piece is then combined once, onto the right of the sum so far, and a
/// reduce like `Vec::append` moves each element at most twice, not once
/// a level.
fn fold_range<S, L, H, F>(t: &Tree<S>, lo: L, hi: H, f: &F) -> Option<F::T>
where
    S: AugSpec,
    L: Bound<S>,
    H: Bound<S>,
    F: Fold<S>,
{
    let mut n = t.as_deref()?;
    if L::OPEN && H::OPEN {
        return Some(f.whole(n.aug()));
    }
    let part = |es: &[EntryOwned<S>], r: Range<usize>| (!r.is_empty()).then(|| f.block(&es[r]));
    let split = loop {
        let x = match n {
            Node::Leaf(l) => return part(l.entries(), run(l.entries(), lo, hi)),
            Node::Internal(x) => x,
        };
        n = if !lo.admits_from(&x.key) {
            x.right.as_deref()?
        } else if !hi.admits_to(&x.key) {
            x.left.as_deref()?
        } else {
            break x;
        };
    };
    let whole = |c: &Tree<S>| c.as_deref().map(|c| f.whole(c.aug()));
    let entry = |x: &InternalNode<S>| Some(f.entry(&x.key, &x.val));
    let (mut low, mut low_at) = if L::OPEN {
        (whole(&split.left), None)
    } else {
        (None, split.left.as_deref())
    };
    let (mut high, mut high_at) = if H::OPEN {
        (whole(&split.right), None)
    } else {
        (None, split.right.as_deref())
    };
    let mut taken = [split; MAX_PATH];
    let mut depth = 0;
    while low_at.is_some() || high_at.is_some() {
        if let Some(n) = low_at {
            low_at = match n {
                Node::Leaf(l) => {
                    low = part(l.entries(), run(l.entries(), lo, Open));
                    None
                }
                Node::Internal(x) if lo.admits_from(&x.key) => {
                    taken[depth] = x;
                    depth += 1;
                    x.left.as_deref()
                }
                Node::Internal(x) => x.right.as_deref(),
            };
        }
        if let Some(n) = high_at {
            high_at = match n {
                Node::Leaf(l) => {
                    high = f.cat(high, part(l.entries(), run(l.entries(), Open, hi)));
                    None
                }
                Node::Internal(x) if hi.admits_to(&x.key) => {
                    high = f.cat(f.cat(high, whole(&x.left)), entry(x));
                    x.right.as_deref()
                }
                Node::Internal(x) => x.left.as_deref(),
            };
        }
    }
    for x in taken[..depth].iter().rev() {
        low = f.cat(f.cat(low, entry(x)), whole(&x.right));
    }
    f.cat(f.cat(low, entry(split)), high)
}

/// Augmented value of all entries with keys `<= k` (the paper's
/// `augLeft`, Figure 2). O(log n).
pub fn aug_left<S: AugSpec>(t: &Tree<S>, k: &S::K) -> S::A {
    fold_range(t, Open, k, &Monoid).unwrap_or_else(S::identity)
}

/// Augmented value of all entries with keys `>= k` (the mirror of
/// [`aug_left`]). O(log n).
pub fn aug_right<S: AugSpec>(t: &Tree<S>, k: &S::K) -> S::A {
    fold_range(t, k, Open, &Monoid).unwrap_or_else(S::identity)
}

/// Augmented value of all entries with keys in `[lo, hi]` — equivalent to
/// `augVal(range(m, lo, hi))` but O(log n) with no allocation.
pub fn aug_range<S: AugSpec>(t: &Tree<S>, lo: &S::K, hi: &S::K) -> S::A {
    fold_range(t, lo, hi, &Monoid).unwrap_or_else(S::identity)
}

/// The paper's `augProject(g', f', m, k1, k2)`: equivalent to
/// `g'(augRange(m, k1, k2))` when `f'(g'(a), g'(b)) = g'(f(a, b))`, but it
/// projects each of the O(log n) canonical subtrees of the range through
/// `g'` *before* combining with `f'`. When `A` is a large structure (the
/// range tree's inner maps) this avoids materializing any combined `A`.
pub fn aug_project<S, T, G, F2>(
    t: &Tree<S>,
    lo: &S::K,
    hi: &S::K,
    project: &G,
    reduce: &F2,
    id: T,
) -> T
where
    S: AugSpec,
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
/// and rejoined with `join` (root kept) or `join2` (root dropped). On a
/// shared tree only what survives is cloned: a block is filtered where it
/// lies and a pivot is tested before it is taken.
fn filter_by<S, P, HAny, HAll>(t: Tree<S>, keep: &P, any: &HAny, all: &HAll) -> Tree<S>
where
    S: AugSpec,
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
    let kept = match &*n {
        Node::Leaf(_) => {
            let entries = take_leaf_where(n, |e| keep(&e.key, &e.val));
            return from_sorted_entries::<S>(entries);
        }
        Node::Internal(x) => keep(&x.key, &x.val),
    };
    let big = n.size_of() > granularity();
    let (l, e, r) = if kept {
        let (l, e, r) = expose(n);
        (l, Some(e), r)
    } else {
        let (l, r) = take_children(n);
        (l, None, r)
    };
    let survives = |c: &Tree<S>| c.as_deref().is_some_and(|c| any(c.aug()));
    let (l2, r2) = par2_if(
        big && survives(&l) && survives(&r),
        move || filter_by(l, keep, any, all),
        move || filter_by(r, keep, any, all),
    );
    match e {
        Some(e) => join_tree(l2, e, r2),
        None => join2(l2, r2),
    }
}

/// Keep the entries satisfying `pred` (the paper's `filter`, Figure 2):
/// linear work, O(log² n) span. Leaf blocks are filtered in one pass.
pub fn filter<S, P>(t: Tree<S>, pred: &P) -> Tree<S>
where
    S: AugSpec,
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
pub fn aug_filter_with_all<S, HAny, HAll>(t: Tree<S>, h_any: &HAny, h_all: &HAll) -> Tree<S>
where
    S: AugSpec,
    HAny: Fn(&S::A) -> bool + Sync,
    HAll: Fn(&S::A) -> bool + Sync,
{
    filter_by(t, &|k: &S::K, v: &S::V| h_any(&S::base(k, v)), h_any, h_all)
}

/// The paper's `augFilter(h, m)` (Figure 2): equivalent to filtering with
/// `h'(k,v) ⇔ h(g(k,v))`, valid only when `h(a) ∨ h(b) ⇔ h(f(a,b))` —
/// then a subtree whose augmented value fails `h` contains no matching
/// entry and is pruned wholesale. O(k log(n/k + 1)) work for k results.
pub fn aug_filter<S, H>(t: Tree<S>, h: &H) -> Tree<S>
where
    S: AugSpec,
    H: Fn(&S::A) -> bool + Sync,
{
    aug_filter_with_all(t, h, &|_| false)
}

#[cfg(test)]
mod tests {
    use crate::balance::leaf_cap;
    use crate::node::{Node, Tree};
    use crate::ops::counting::{calls_of, CountingOrder};
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

    type Counting = Tree<CountingOrder>;

    /// Nodes on the longest root-to-leaf path.
    fn height(t: &Counting) -> usize {
        t.as_deref().map_or(0, |n| match n {
            Node::Leaf(_) => 1,
            Node::Internal(x) => 1 + height(&x.left).max(height(&x.right)),
        })
    }

    /// Each block's first key, last key and length, in key order.
    fn blocks(t: &Counting, out: &mut Vec<(u64, u64, usize)>) {
        match t.as_deref() {
            None => {}
            Some(Node::Leaf(l)) => {
                let es = l.entries();
                out.push((es[0].key, es[es.len() - 1].key, es.len()));
            }
            Some(Node::Internal(x)) => {
                blocks(&x.left, out);
                blocks(&x.right, out);
            }
        }
    }

    #[test]
    fn bounded_folds_read_each_boundary_block_once_and_the_rest_from_cached_sums() {
        // keys 0, 2, 4, ...; the value of key k is k / 2
        const N: u64 = 100_000;
        let m = AugMap::<CountingOrder>::build((0..N).map(|i| (2 * i, i)).collect());
        let cap = leaf_cap::<CountingOrder>();
        let h = height(m.root());
        // at most two compares a level down to the split node and one a
        // level on each side below it, then one pass over each boundary
        // block; the entries folded one by one are the boundary runs and
        // the pivots on the paths
        let compares = |ends: usize| 2 * h + ends * (cap + 1);
        let bases = |ends: usize| 2 * h + ends * cap;
        let sum = |lo: u64, hi: u64| (lo.div_ceil(2)..=hi / 2).sum::<u64>();
        let check = |what: String, ends: usize, want: u64, q: &dyn Fn() -> u64| {
            let mut got = 0;
            let (c, g) = calls_of(|| got = q());
            assert_eq!(got, want, "{what}");
            assert!(
                c <= compares(ends),
                "{what}: {c} compares > {}",
                compares(ends)
            );
            assert!(g <= bases(ends), "{what}: {g} bases > {}", bases(ends));
        };
        // windows from the first key of one block to the last of another,
        // so each boundary pass reads a whole block; a fresh build's
        // blocks are full but for the last two, so the windows end in
        // full blocks, and reading one twice breaks the bound
        let mut bs = Vec::new();
        blocks(m.root(), &mut bs);
        bs.truncate(bs.len() - 2);
        assert!(bs.iter().all(|b| b.2 == cap));
        for (i, a) in bs.iter().enumerate().step_by(7) {
            for b in bs[i + 1..].iter().step_by(13) {
                let (lo, hi) = (a.0, b.1);
                check(format!("aug_range({lo}, {hi})"), 2, sum(lo, hi), &|| {
                    m.aug_range(&lo, &hi)
                });
            }
            check(format!("aug_left({})", a.1), 1, sum(0, a.1), &|| {
                m.aug_left(&a.1)
            });
            let all = sum(a.0, 2 * (N - 1));
            check(format!("aug_right({})", a.0), 1, all, &|| m.aug_right(&a.0));
        }
    }
}
