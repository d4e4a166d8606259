//! The augmented-map *specification*: the paper's
//! `AM(K, <, V, A, g, f, I)` tuple as a Rust trait.
//!
//! An [`AugSpec`] fixes, at the type level:
//!
//! * the key type `K` and its total order ([`AugSpec::compare`], the paper's `<`),
//! * the value type `V`,
//! * the augmented-value type `A`,
//! * the base function `g : K × V → A` ([`AugSpec::base`]),
//! * the combine function `f : A × A → A` ([`AugSpec::combine`]), and
//! * the identity `I` of `f` ([`AugSpec::identity`]),
//!
//! where `(A, f, I)` must be a monoid. The augmented value of a map
//! `{(k1,v1), ..., (kn,vn)}` is `f(g(k1,v1), ..., g(kn,vn))`.
//!
//! This mirrors the C++ `entry` structs of the PAM library (Figure 3 of the
//! paper) one-for-one: `key_t → K`, `val_t → V`, `aug_t → A`, `comp →
//! compare`, `base → base`, `combine → combine`, `identity → identity`.
//!
//! Ready-made specs are provided for the common cases: [`NoAug`] (a plain
//! ordered map), [`SumAug`] (Equation 1 of the paper), [`MaxAug`] and
//! [`MinAug`].
//!
//! The spec is the tree's only type parameter. Besides the monoid it may
//! pin the leaf-block capacity ([`AugSpec::PINNED_CAP`]); none of the
//! ready-made specs does, so their blocks are sized by the entry type
//! ([`crate::balance::leaf_cap`]). [`Capped<S, CAP>`](Capped) is `S` with
//! blocks of `CAP` entries: the oracle suites run one spec's fold at
//! several capacities side by side.

use std::cmp::Ordering;
use std::marker::PhantomData;

/// Specification of an augmented map type (the paper's `AM(K,V,A,<,g,f,I)`).
///
/// Implementations are zero-sized "tag" types; all methods are associated
/// functions so they compile to direct calls with no virtual dispatch —
/// matching PAM's use of static member functions in C++ templates ("these
/// functions actually do not take any real space", Fig. 5).
pub trait AugSpec: 'static {
    /// Key type.
    type K: Clone + Send + Sync + 'static;
    /// Value type.
    type V: Clone + Send + Sync + 'static;
    /// Augmented-value type.
    type A: Clone + Send + Sync + 'static;

    /// A leaf-block capacity pinned by the spec, or `None` (the default)
    /// to size blocks by the entry type. Read only through
    /// [`leaf_cap`](crate::balance::leaf_cap), which refuses at compile
    /// time a pin that is not 1 or an even number `>= 2`.
    const PINNED_CAP: Option<usize> = None;

    /// Total order on keys (the paper's `<`).
    fn compare(a: &Self::K, b: &Self::K) -> Ordering;

    /// Identity `I` of the combine monoid.
    fn identity() -> Self::A;

    /// Base function `g(k, v)`: the augmented value of a single entry.
    fn base(k: &Self::K, v: &Self::V) -> Self::A;

    /// Combine function `f(a, b)`. Must be associative with identity
    /// [`AugSpec::identity`].
    fn combine(a: &Self::A, b: &Self::A) -> Self::A;

    /// `f(l, f(m, r))` — the augmented value of a node from its left
    /// subtree sum `l`, own entry `m = g(k,v)`, and right subtree sum `r`.
    /// "It takes two applications of f since we have to combine three
    /// values" (§4). Overridable for specs with a cheaper 3-way fuse.
    #[inline]
    fn combine3(l: &Self::A, m: Self::A, r: &Self::A) -> Self::A {
        Self::combine(l, &Self::combine(&m, r))
    }

    /// Fold `f(g(k1,v1), ..., g(kn,vn))` over a sorted leaf *block* — the
    /// per-block form of the monoid used by blocked leaves (the identity
    /// for an empty block, though leaf blocks are never empty).
    /// Overridable for specs with a cheaper whole-block fold (e.g. a SIMD
    /// sum); the default right-folds `combine` over the bases.
    #[inline]
    fn fold_block<'a>(items: impl Iterator<Item = (&'a Self::K, &'a Self::V)>) -> Self::A
    where
        Self::K: 'a,
        Self::V: 'a,
    {
        let mut acc: Option<Self::A> = None;
        for (k, v) in items {
            let b = Self::base(k, v);
            acc = Some(match acc {
                None => b,
                Some(a) => Self::combine(&a, &b),
            });
        }
        acc.unwrap_or_else(Self::identity)
    }
}

// ---------------------------------------------------------------------------
// Value-monoid helper traits for the ready-made specs
// ---------------------------------------------------------------------------

/// Types with an additive monoid structure (used by [`SumAug`]).
pub trait Addable: Clone + Send + Sync + 'static {
    /// The additive identity.
    fn zero() -> Self;
    /// Associative addition.
    fn add(&self, other: &Self) -> Self;
}

/// Types with a max semilattice and a bottom element (used by [`MaxAug`]).
pub trait Maxable: Clone + Send + Sync + 'static {
    /// An element `⊥` with `max(⊥, x) = x` for all representable `x`.
    fn bottom() -> Self;
    /// The larger of the two values.
    fn max2(a: &Self, b: &Self) -> Self;
}

/// Types with a min semilattice and a top element (used by [`MinAug`]).
pub trait Minable: Clone + Send + Sync + 'static {
    /// An element `⊤` with `min(⊤, x) = x` for all representable `x`.
    fn top() -> Self;
    /// The smaller of the two values.
    fn min2(a: &Self, b: &Self) -> Self;
}

macro_rules! impl_numeric_monoids {
    ($($t:ty),*) => {$(
        impl Addable for $t {
            #[inline] fn zero() -> Self { 0 as $t }
            // Wrapping: sums of random 64-bit values are expected to wrap
            // (as in the paper's C++), and modular addition is still a
            // monoid.
            #[inline] fn add(&self, other: &Self) -> Self { self.wrapping_add(*other) }
        }
        impl Maxable for $t {
            #[inline] fn bottom() -> Self { <$t>::MIN }
            #[inline] fn max2(a: &Self, b: &Self) -> Self { if a >= b { *a } else { *b } }
        }
        impl Minable for $t {
            #[inline] fn top() -> Self { <$t>::MAX }
            #[inline] fn min2(a: &Self, b: &Self) -> Self { if a <= b { *a } else { *b } }
        }
    )*};
}
impl_numeric_monoids!(u8, u16, u32, u64, u128, usize, i8, i16, i32, i64, i128, isize);

macro_rules! impl_float_monoids {
    ($($t:ty),*) => {$(
        impl Addable for $t {
            #[inline] fn zero() -> Self { 0.0 }
            #[inline] fn add(&self, other: &Self) -> Self { self + other }
        }
        impl Maxable for $t {
            #[inline] fn bottom() -> Self { <$t>::NEG_INFINITY }
            #[inline] fn max2(a: &Self, b: &Self) -> Self { if a >= b { *a } else { *b } }
        }
        impl Minable for $t {
            #[inline] fn top() -> Self { <$t>::INFINITY }
            #[inline] fn min2(a: &Self, b: &Self) -> Self { if a <= b { *a } else { *b } }
        }
    )*};
}
impl_float_monoids!(f32, f64);

// ---------------------------------------------------------------------------
// Ready-made specs
// ---------------------------------------------------------------------------

/// Plain (un-augmented) ordered map: `A = ()`, `f` and `g` trivial.
///
/// This is the spec used for the paper's "non-augmented PAM" rows in
/// Table 3 — the tree stores a zero-sized augmented value, so nodes are
/// strictly smaller (see `stats::node_size`).
pub struct NoAug<K, V>(PhantomData<fn(K, V)>);

impl<K, V> AugSpec for NoAug<K, V>
where
    K: Ord + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    type K = K;
    type V = V;
    type A = ();
    #[inline]
    fn compare(a: &K, b: &K) -> Ordering {
        a.cmp(b)
    }
    #[inline]
    fn identity() {}
    #[inline]
    fn base(_: &K, _: &V) {}
    #[inline]
    fn combine(_: &(), _: &()) {}
}

/// Sum augmentation: `A = V`, `g(k,v) = v`, `f = +` — Equation 1 of the
/// paper (`AM(Z, <, Z, Z, (k,v)→v, +, 0)`).
pub struct SumAug<K, V>(PhantomData<fn(K, V)>);

impl<K, V> AugSpec for SumAug<K, V>
where
    K: Ord + Clone + Send + Sync + 'static,
    V: Addable,
{
    type K = K;
    type V = V;
    type A = V;
    #[inline]
    fn compare(a: &K, b: &K) -> Ordering {
        a.cmp(b)
    }
    #[inline]
    fn identity() -> V {
        V::zero()
    }
    #[inline]
    fn base(_: &K, v: &V) -> V {
        v.clone()
    }
    #[inline]
    fn combine(a: &V, b: &V) -> V {
        a.add(b)
    }
}

/// Max augmentation: `A = V`, `g(k,v) = v`, `f = max` — the spec used by
/// interval trees (§5.1) and the inner maps of the inverted index (§5.3).
pub struct MaxAug<K, V>(PhantomData<fn(K, V)>);

impl<K, V> AugSpec for MaxAug<K, V>
where
    K: Ord + Clone + Send + Sync + 'static,
    V: Maxable + PartialOrd,
{
    type K = K;
    type V = V;
    type A = V;
    #[inline]
    fn compare(a: &K, b: &K) -> Ordering {
        a.cmp(b)
    }
    #[inline]
    fn identity() -> V {
        V::bottom()
    }
    #[inline]
    fn base(_: &K, v: &V) -> V {
        v.clone()
    }
    #[inline]
    fn combine(a: &V, b: &V) -> V {
        V::max2(a, b)
    }
}

/// Min augmentation: `A = V`, `g(k,v) = v`, `f = min`.
pub struct MinAug<K, V>(PhantomData<fn(K, V)>);

impl<K, V> AugSpec for MinAug<K, V>
where
    K: Ord + Clone + Send + Sync + 'static,
    V: Minable + PartialOrd,
{
    type K = K;
    type V = V;
    type A = V;
    #[inline]
    fn compare(a: &K, b: &K) -> Ordering {
        a.cmp(b)
    }
    #[inline]
    fn identity() -> V {
        V::top()
    }
    #[inline]
    fn base(_: &K, v: &V) -> V {
        v.clone()
    }
    #[inline]
    fn combine(a: &V, b: &V) -> V {
        V::min2(a, b)
    }
}

/// `S` with leaf blocks of `CAP` entries: every other item of the spec,
/// `combine3` and `fold_block` included, is `S`'s own. `Capped<S, 1>` is
/// the paper's one-entry-per-node tree.
///
/// `CAP` must be 1 or an even number `>= 2`; any other value does not
/// compile:
///
/// ```compile_fail,E0080
/// use pam::spec::Capped;
/// use pam::{AugMap, SumAug};
///
/// let m: AugMap<Capped<SumAug<u64, u64>, 3>> = AugMap::build(vec![(1, 1)]);
/// ```
pub struct Capped<S, const CAP: usize>(PhantomData<fn() -> S>);

impl<S: AugSpec, const CAP: usize> AugSpec for Capped<S, CAP> {
    type K = S::K;
    type V = S::V;
    type A = S::A;
    const PINNED_CAP: Option<usize> = Some(CAP);
    #[inline]
    fn compare(a: &S::K, b: &S::K) -> Ordering {
        S::compare(a, b)
    }
    #[inline]
    fn identity() -> S::A {
        S::identity()
    }
    #[inline]
    fn base(k: &S::K, v: &S::V) -> S::A {
        S::base(k, v)
    }
    #[inline]
    fn combine(a: &S::A, b: &S::A) -> S::A {
        S::combine(a, b)
    }
    #[inline]
    fn combine3(l: &S::A, m: S::A, r: &S::A) -> S::A {
        S::combine3(l, m, r)
    }
    #[inline]
    fn fold_block<'a>(items: impl Iterator<Item = (&'a S::K, &'a S::V)>) -> S::A
    where
        S::K: 'a,
        S::V: 'a,
    {
        S::fold_block(items)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sum_spec_monoid_laws() {
        type S = SumAug<u64, u64>;
        let (a, b, c) = (3u64, 5u64, 7u64);
        // associativity
        assert_eq!(
            S::combine(&S::combine(&a, &b), &c),
            S::combine(&a, &S::combine(&b, &c))
        );
        // identity
        assert_eq!(S::combine(&S::identity(), &a), a);
        assert_eq!(S::combine(&a, &S::identity()), a);
    }

    #[test]
    fn max_spec_monoid_laws() {
        type S = MaxAug<u64, i64>;
        let (a, b) = (-4i64, 9i64);
        assert_eq!(S::combine(&a, &b), 9);
        assert_eq!(S::combine(&S::identity(), &a), a);
    }

    #[test]
    fn min_spec_identity() {
        type S = MinAug<u32, u32>;
        assert_eq!(S::combine(&S::identity(), &17), 17);
        assert_eq!(S::combine(&4, &17), 4);
    }

    #[test]
    fn combine3_matches_two_applications() {
        type S = SumAug<u64, u64>;
        assert_eq!(S::combine3(&1, 2, &3), 6);
    }

    #[test]
    fn fold_block_matches_pairwise_combine() {
        type S = SumAug<u64, u64>;
        let block: Vec<(u64, u64)> = vec![(1, 10), (2, 20), (3, 30)];
        let folded = S::fold_block(block.iter().map(|(k, v)| (k, v)));
        assert_eq!(folded, 60);
        let empty = S::fold_block(std::iter::empty::<(&u64, &u64)>());
        assert_eq!(empty, S::identity());
    }

    #[test]
    fn float_monoids() {
        assert_eq!(f64::max2(&f64::bottom(), &-1e300), -1e300);
        assert_eq!(f64::min2(&f64::top(), &1e300), 1e300);
        assert_eq!(f64::zero().add(&2.5), 2.5);
    }

    #[test]
    fn noaug_is_zero_sized() {
        assert_eq!(std::mem::size_of::<<NoAug<u64, u64> as AugSpec>::A>(), 0);
    }
}
