//! Chunked parallel iterator drivers over index-splittable producers.
//!
//! A [`ParIter`] wraps a [`Producer`]: a length-aware source that can be
//! split at an index into two independent halves (slices, owned vectors,
//! integer ranges, chunk/window views, and the adapter stack built on
//! them). Driver methods (`for_each`, `collect`, `sum`, `fold`, ...)
//! split the producer in half recursively down to a sequential chunk
//! threshold of roughly `len / (4 · current_num_threads())`, fork the
//! halves through [`crate::join`], run each leaf chunk
//! with ordinary sequential iteration, and merge per-chunk results **in
//! order** — so order-sensitive drivers (`collect`, `fold` + `reduce`)
//! observe exactly the sequential result while the work actually runs on
//! multiple cores. Under `ThreadPool::install(1)` (or on a single
//! hardware thread) every driver degenerates to the plain sequential
//! loop, with no chunking at all.

use std::sync::Arc;

/// A splittable, length-aware source of items — the parallel analogue of
/// [`IntoIterator`].
pub trait Producer: Sized + Send {
    /// Element type.
    type Item: Send;
    /// Sequential iterator driving one leaf chunk.
    type IntoIter: Iterator<Item = Self::Item>;
    /// Number of splittable positions (an upper bound on items for
    /// filtering adapters).
    fn len(&self) -> usize;
    /// No splittable positions left?
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Split into `[0, index)` and `[index, len)`.
    fn split_at(self, index: usize) -> (Self, Self);
    /// Sequentially iterate this chunk.
    fn into_iter(self) -> Self::IntoIter;
}

/// Marker for producers whose `len` is the *exact* item count and whose
/// split positions correspond one-to-one with items — rayon's
/// `IndexedParallelIterator`. Filtering adapters (`filter`,
/// `filter_map`, `flat_map_iter`) are *not* indexed: their split index
/// counts pre-filter positions, so index-sensitive adapters
/// (`enumerate`, `zip`) built on them would number or pair items
/// differently across splits than sequentially. Gating those adapters
/// on this trait turns that silent divergence into a compile error,
/// exactly like real rayon.
pub trait IndexedProducer: Producer {}

impl<'a, T: Sync> IndexedProducer for SliceProducer<'a, T> {}
impl<T: Send> IndexedProducer for VecProducer<T> {}
impl<T: RangeIndex> IndexedProducer for RangeProducer<T> where std::ops::Range<T>: Iterator<Item = T>
{}
impl<P, U, F> IndexedProducer for Map<P, F>
where
    P: IndexedProducer,
    U: Send,
    F: Fn(P::Item) -> U + Send + Sync,
{
}
impl<P: IndexedProducer> IndexedProducer for Enumerate<P> {}
impl<A: IndexedProducer, B: IndexedProducer> IndexedProducer for Zip<A, B> {}

/// A parallel iterator: a [`Producer`] plus the driver methods.
pub struct ParIter<P>(pub(crate) P);

// ---------------------------------------------------------------------------
// The drive loop
// ---------------------------------------------------------------------------

/// Split `p` down to `chunk`-sized leaves, consume each leaf
/// sequentially, and merge sibling results in order via `join`.
fn drive_rec<P, R, C, M>(p: P, chunk: usize, consume: &C, merge: &M) -> R
where
    P: Producer,
    R: Send,
    C: Fn(P) -> R + Sync,
    M: Fn(R, R) -> R + Sync,
{
    let len = p.len();
    if len <= chunk {
        return consume(p);
    }
    let (a, b) = p.split_at(len / 2);
    let (ra, rb) = crate::pool::join(
        || drive_rec(a, chunk, consume, merge),
        || drive_rec(b, chunk, consume, merge),
    );
    merge(ra, rb)
}

/// Entry point: pick the chunk threshold from the current pool size (one
/// thread ⇒ no splitting, the sequential schedule).
fn drive<P, R, C, M>(p: P, consume: C, merge: M) -> R
where
    P: Producer,
    R: Send,
    C: Fn(P) -> R + Sync,
    M: Fn(R, R) -> R + Sync,
{
    let len = p.len();
    let threads = crate::pool::current_num_threads();
    if threads <= 1 || len <= 1 {
        return consume(p);
    }
    let chunk = len.div_ceil(4 * threads).max(1);
    drive_rec(p, chunk, &consume, &merge)
}

// ---------------------------------------------------------------------------
// Base producers
// ---------------------------------------------------------------------------

/// Producer over a shared slice (`par_iter`).
pub struct SliceProducer<'a, T>(pub(crate) &'a [T]);

impl<'a, T: Sync> Producer for SliceProducer<'a, T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;
    fn len(&self) -> usize {
        self.0.len()
    }
    fn split_at(self, index: usize) -> (Self, Self) {
        let (a, b) = self.0.split_at(index);
        (SliceProducer(a), SliceProducer(b))
    }
    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

/// Producer over an owned vector (`into_par_iter`).
pub struct VecProducer<T>(pub(crate) Vec<T>);

impl<T: Send> Producer for VecProducer<T> {
    type Item = T;
    type IntoIter = std::vec::IntoIter<T>;
    fn len(&self) -> usize {
        self.0.len()
    }
    fn split_at(mut self, index: usize) -> (Self, Self) {
        let tail = self.0.split_off(index);
        (self, VecProducer(tail))
    }
    fn into_iter(self) -> Self::IntoIter {
        self.0.into_iter()
    }
}

/// Integer types usable as splittable range endpoints.
pub trait RangeIndex: Copy + Send {
    /// `max(0, b - a)` as a count.
    fn steps_between(a: Self, b: Self) -> usize;
    /// `a + n`.
    fn advance(a: Self, n: usize) -> Self;
}

macro_rules! impl_range_index {
    ($($t:ty),*) => {$(
        impl RangeIndex for $t {
            fn steps_between(a: Self, b: Self) -> usize {
                ((b as i128) - (a as i128)).max(0) as usize
            }
            fn advance(a: Self, n: usize) -> Self {
                ((a as i128) + (n as i128)) as $t
            }
        }
    )*};
}
impl_range_index!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Producer over an integer range (`(0..n).into_par_iter()`).
pub struct RangeProducer<T> {
    start: T,
    end: T,
}

impl<T: RangeIndex> Producer for RangeProducer<T>
where
    std::ops::Range<T>: Iterator<Item = T>,
{
    type Item = T;
    type IntoIter = std::ops::Range<T>;
    fn len(&self) -> usize {
        T::steps_between(self.start, self.end)
    }
    fn split_at(self, index: usize) -> (Self, Self) {
        let mid = T::advance(self.start, index);
        (
            RangeProducer {
                start: self.start,
                end: mid,
            },
            RangeProducer {
                start: mid,
                end: self.end,
            },
        )
    }
    fn into_iter(self) -> Self::IntoIter {
        self.start..self.end
    }
}

// ---------------------------------------------------------------------------
// Conversions
// ---------------------------------------------------------------------------

/// Conversion into a [`ParIter`] by value (`into_par_iter`).
pub trait IntoParallelIterator {
    /// Element type.
    type Item: Send;
    /// Underlying producer.
    type Producer: Producer<Item = Self::Item>;
    /// Convert.
    fn into_par_iter(self) -> ParIter<Self::Producer>;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    type Producer = VecProducer<T>;
    fn into_par_iter(self) -> ParIter<Self::Producer> {
        ParIter(VecProducer(self))
    }
}

impl<T: RangeIndex> IntoParallelIterator for std::ops::Range<T>
where
    std::ops::Range<T>: Iterator<Item = T>,
{
    type Item = T;
    type Producer = RangeProducer<T>;
    fn into_par_iter(self) -> ParIter<Self::Producer> {
        ParIter(RangeProducer {
            start: self.start,
            end: self.end,
        })
    }
}

/// Conversion into a borrowing [`ParIter`] (`par_iter`).
pub trait IntoParallelRefIterator<'a> {
    /// Borrowed element type.
    type Item: Send + 'a;
    /// Underlying producer.
    type Producer: Producer<Item = Self::Item>;
    /// Convert.
    fn par_iter(&'a self) -> ParIter<Self::Producer>;
}

impl<'a, T: 'a + Sync> IntoParallelRefIterator<'a> for [T] {
    type Item = &'a T;
    type Producer = SliceProducer<'a, T>;
    fn par_iter(&'a self) -> ParIter<Self::Producer> {
        ParIter(SliceProducer(self))
    }
}

impl<'a, T: 'a + Sync> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = &'a T;
    type Producer = SliceProducer<'a, T>;
    fn par_iter(&'a self) -> ParIter<Self::Producer> {
        ParIter(SliceProducer(self))
    }
}

// ---------------------------------------------------------------------------
// Adapter producers
// ---------------------------------------------------------------------------

/// `map` adapter. The closure is shared across splits via `Arc`.
pub struct Map<P, F> {
    base: P,
    f: Arc<F>,
}

/// Sequential iterator for one [`Map`] chunk.
pub struct MapIter<I, F> {
    inner: I,
    f: Arc<F>,
}

impl<U, I: Iterator, F: Fn(I::Item) -> U> Iterator for MapIter<I, F> {
    type Item = U;
    fn next(&mut self) -> Option<U> {
        self.inner.next().map(|x| (self.f)(x))
    }
}

impl<P, U, F> Producer for Map<P, F>
where
    P: Producer,
    U: Send,
    F: Fn(P::Item) -> U + Send + Sync,
{
    type Item = U;
    type IntoIter = MapIter<P::IntoIter, F>;
    fn len(&self) -> usize {
        self.base.len()
    }
    fn split_at(self, index: usize) -> (Self, Self) {
        let (a, b) = self.base.split_at(index);
        (
            Map {
                base: a,
                f: self.f.clone(),
            },
            Map { base: b, f: self.f },
        )
    }
    fn into_iter(self) -> Self::IntoIter {
        MapIter {
            inner: self.base.into_iter(),
            f: self.f,
        }
    }
}

/// `filter` adapter (its `len` is the pre-filter upper bound — only used
/// for splitting, never as an item count).
pub struct Filter<P, F> {
    base: P,
    f: Arc<F>,
}

/// Sequential iterator for one [`Filter`] chunk.
pub struct FilterIter<I, F> {
    inner: I,
    f: Arc<F>,
}

impl<I: Iterator, F: Fn(&I::Item) -> bool> Iterator for FilterIter<I, F> {
    type Item = I::Item;
    fn next(&mut self) -> Option<I::Item> {
        self.inner.by_ref().find(|x| (self.f)(x))
    }
}

impl<P, F> Producer for Filter<P, F>
where
    P: Producer,
    F: Fn(&P::Item) -> bool + Send + Sync,
{
    type Item = P::Item;
    type IntoIter = FilterIter<P::IntoIter, F>;
    fn len(&self) -> usize {
        self.base.len()
    }
    fn split_at(self, index: usize) -> (Self, Self) {
        let (a, b) = self.base.split_at(index);
        (
            Filter {
                base: a,
                f: self.f.clone(),
            },
            Filter { base: b, f: self.f },
        )
    }
    fn into_iter(self) -> Self::IntoIter {
        FilterIter {
            inner: self.base.into_iter(),
            f: self.f,
        }
    }
}

/// `filter_map` adapter.
pub struct FilterMap<P, F> {
    base: P,
    f: Arc<F>,
}

/// Sequential iterator for one [`FilterMap`] chunk.
pub struct FilterMapIter<I, F> {
    inner: I,
    f: Arc<F>,
}

impl<U, I: Iterator, F: Fn(I::Item) -> Option<U>> Iterator for FilterMapIter<I, F> {
    type Item = U;
    fn next(&mut self) -> Option<U> {
        for x in self.inner.by_ref() {
            if let Some(y) = (self.f)(x) {
                return Some(y);
            }
        }
        None
    }
}

impl<P, U, F> Producer for FilterMap<P, F>
where
    P: Producer,
    U: Send,
    F: Fn(P::Item) -> Option<U> + Send + Sync,
{
    type Item = U;
    type IntoIter = FilterMapIter<P::IntoIter, F>;
    fn len(&self) -> usize {
        self.base.len()
    }
    fn split_at(self, index: usize) -> (Self, Self) {
        let (a, b) = self.base.split_at(index);
        (
            FilterMap {
                base: a,
                f: self.f.clone(),
            },
            FilterMap { base: b, f: self.f },
        )
    }
    fn into_iter(self) -> Self::IntoIter {
        FilterMapIter {
            inner: self.base.into_iter(),
            f: self.f,
        }
    }
}

/// `flat_map_iter` adapter: splits on the *outer* items; each item's
/// sub-iterator runs sequentially inside its chunk.
pub struct FlatMapIter<P, F> {
    base: P,
    f: Arc<F>,
}

/// Sequential iterator for one [`FlatMapIter`] chunk.
pub struct FlatMapIterIter<I: Iterator, U: IntoIterator, F> {
    inner: I,
    cur: Option<U::IntoIter>,
    f: Arc<F>,
}

impl<I, U, F> Iterator for FlatMapIterIter<I, U, F>
where
    I: Iterator,
    U: IntoIterator,
    F: Fn(I::Item) -> U,
{
    type Item = U::Item;
    fn next(&mut self) -> Option<U::Item> {
        loop {
            if let Some(cur) = &mut self.cur {
                if let Some(x) = cur.next() {
                    return Some(x);
                }
            }
            self.cur = Some((self.f)(self.inner.next()?).into_iter());
        }
    }
}

impl<P, U, F> Producer for FlatMapIter<P, F>
where
    P: Producer,
    U: IntoIterator,
    U::Item: Send,
    F: Fn(P::Item) -> U + Send + Sync,
{
    type Item = U::Item;
    type IntoIter = FlatMapIterIter<P::IntoIter, U, F>;
    fn len(&self) -> usize {
        self.base.len()
    }
    fn split_at(self, index: usize) -> (Self, Self) {
        let (a, b) = self.base.split_at(index);
        (
            FlatMapIter {
                base: a,
                f: self.f.clone(),
            },
            FlatMapIter { base: b, f: self.f },
        )
    }
    fn into_iter(self) -> Self::IntoIter {
        FlatMapIterIter {
            inner: self.base.into_iter(),
            cur: None,
            f: self.f,
        }
    }
}

/// `enumerate` adapter: carries the split-point offset so indices stay
/// global.
pub struct Enumerate<P> {
    base: P,
    offset: usize,
}

/// Sequential iterator for one [`Enumerate`] chunk.
pub struct EnumerateIter<I> {
    inner: I,
    next_index: usize,
}

impl<I: Iterator> Iterator for EnumerateIter<I> {
    type Item = (usize, I::Item);
    fn next(&mut self) -> Option<Self::Item> {
        let x = self.inner.next()?;
        let i = self.next_index;
        self.next_index += 1;
        Some((i, x))
    }
}

impl<P: Producer> Producer for Enumerate<P> {
    type Item = (usize, P::Item);
    type IntoIter = EnumerateIter<P::IntoIter>;
    fn len(&self) -> usize {
        self.base.len()
    }
    fn split_at(self, index: usize) -> (Self, Self) {
        let (a, b) = self.base.split_at(index);
        (
            Enumerate {
                base: a,
                offset: self.offset,
            },
            Enumerate {
                base: b,
                offset: self.offset + index,
            },
        )
    }
    fn into_iter(self) -> Self::IntoIter {
        EnumerateIter {
            inner: self.base.into_iter(),
            next_index: self.offset,
        }
    }
}

/// `zip` adapter: both sides split at the same index, so pairs stay
/// aligned across chunks.
pub struct Zip<A, B> {
    a: A,
    b: B,
}

impl<A: Producer, B: Producer> Producer for Zip<A, B> {
    type Item = (A::Item, B::Item);
    type IntoIter = std::iter::Zip<A::IntoIter, B::IntoIter>;
    fn len(&self) -> usize {
        self.a.len().min(self.b.len())
    }
    fn split_at(self, index: usize) -> (Self, Self) {
        let (al, ar) = self.a.split_at(index);
        let (bl, br) = self.b.split_at(index);
        (Zip { a: al, b: bl }, Zip { a: ar, b: br })
    }
    fn into_iter(self) -> Self::IntoIter {
        self.a.into_iter().zip(self.b.into_iter())
    }
}

// ---------------------------------------------------------------------------
// Adapters + drivers
// ---------------------------------------------------------------------------

impl<P: Producer> ParIter<P> {
    /// Transform every element.
    pub fn map<U, F>(self, f: F) -> ParIter<Map<P, F>>
    where
        U: Send,
        F: Fn(P::Item) -> U + Send + Sync,
    {
        ParIter(Map {
            base: self.0,
            f: Arc::new(f),
        })
    }

    /// Keep elements satisfying the predicate.
    pub fn filter<F>(self, f: F) -> ParIter<Filter<P, F>>
    where
        F: Fn(&P::Item) -> bool + Send + Sync,
    {
        ParIter(Filter {
            base: self.0,
            f: Arc::new(f),
        })
    }

    /// Map-and-filter in one pass.
    pub fn filter_map<U, F>(self, f: F) -> ParIter<FilterMap<P, F>>
    where
        U: Send,
        F: Fn(P::Item) -> Option<U> + Send + Sync,
    {
        ParIter(FilterMap {
            base: self.0,
            f: Arc::new(f),
        })
    }

    /// Map each element to a *sequential* iterator and flatten.
    pub fn flat_map_iter<U, F>(self, f: F) -> ParIter<FlatMapIter<P, F>>
    where
        U: IntoIterator,
        U::Item: Send,
        F: Fn(P::Item) -> U + Send + Sync,
    {
        ParIter(FlatMapIter {
            base: self.0,
            f: Arc::new(f),
        })
    }

    /// Pair every element with its index (indexed producers only —
    /// filtered iterators cannot be enumerated, as in real rayon).
    pub fn enumerate(self) -> ParIter<Enumerate<P>>
    where
        P: IndexedProducer,
    {
        ParIter(Enumerate {
            base: self.0,
            offset: 0,
        })
    }

    /// Zip with another parallel iterator (length = the shorter side;
    /// both sides must be indexed so pairs stay aligned across splits).
    pub fn zip<Q: IndexedProducer>(self, other: ParIter<Q>) -> ParIter<Zip<P, Q>>
    where
        P: IndexedProducer,
    {
        ParIter(Zip {
            a: self.0,
            b: other.0,
        })
    }

    /// Run `f` on every element (chunks in parallel, each chunk in
    /// order).
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(P::Item) + Send + Sync,
    {
        drive(
            self.0,
            |p| {
                for x in p.into_iter() {
                    f(x);
                }
            },
            |(), ()| (),
        );
    }

    /// Collect into any `FromIterator` collection, preserving order.
    pub fn collect<C: FromIterator<P::Item>>(self) -> C {
        let parts = drive(
            self.0,
            |p| p.into_iter().collect::<Vec<_>>(),
            |mut a, mut b| {
                a.append(&mut b);
                a
            },
        );
        parts.into_iter().collect()
    }

    /// Sum the elements (per-chunk sums, then a sum of sums — the same
    /// two-level bound rayon documents).
    pub fn sum<S>(self) -> S
    where
        S: std::iter::Sum<P::Item> + std::iter::Sum<S> + Send,
    {
        drive(
            self.0,
            |p| p.into_iter().sum::<S>(),
            |a, b| std::iter::once(a).chain(std::iter::once(b)).sum(),
        )
    }

    /// Count the elements.
    pub fn count(self) -> usize {
        drive(self.0, |p| p.into_iter().count(), |a, b| a + b)
    }

    /// Parallel fold: one partial accumulator per leaf chunk, exposed as
    /// a new parallel iterator to be combined with [`ParIter::reduce`].
    pub fn fold<T, ID, F>(self, identity: ID, fold_op: F) -> ParIter<VecProducer<T>>
    where
        T: Send,
        ID: Fn() -> T + Send + Sync,
        F: Fn(T, P::Item) -> T + Send + Sync,
    {
        let parts = drive(
            self.0,
            |p| vec![p.into_iter().fold(identity(), &fold_op)],
            |mut a, mut b| {
                a.append(&mut b);
                a
            },
        );
        ParIter(VecProducer(parts))
    }

    /// Fold with `identity` / `op`, rayon-style (`op` must be
    /// associative, `identity()` its neutral element).
    pub fn reduce<ID, F>(self, identity: ID, op: F) -> P::Item
    where
        ID: Fn() -> P::Item + Send + Sync,
        F: Fn(P::Item, P::Item) -> P::Item + Send + Sync,
    {
        drive(self.0, |p| p.into_iter().fold(identity(), &op), &op)
    }

    /// Smallest element.
    pub fn min(self) -> Option<P::Item>
    where
        P::Item: Ord,
    {
        drive(
            self.0,
            |p| p.into_iter().min(),
            |a, b| match (a, b) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (x, None) => x,
                (None, y) => y,
            },
        )
    }

    /// Largest element.
    pub fn max(self) -> Option<P::Item>
    where
        P::Item: Ord,
    {
        drive(
            self.0,
            |p| p.into_iter().max(),
            |a, b| match (a, b) {
                (Some(a), Some(b)) => Some(a.max(b)),
                (x, None) => x,
                (None, y) => y,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_collect_roundtrip() {
        let v: Vec<u64> = (0..10u64).into_par_iter().map(|x| x * 2).collect();
        assert_eq!(v, (0..10u64).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn zip_and_sum() {
        let a = vec![1u64, 2, 3];
        let b = vec![10u64, 20, 30];
        let s: u64 = a.par_iter().zip(b.par_iter()).map(|(x, y)| x * y).sum();
        assert_eq!(s, 10 + 40 + 90);
    }

    #[test]
    fn filter_count() {
        assert_eq!(
            (0..100u32).into_par_iter().filter(|x| x % 3 == 0).count(),
            34
        );
    }

    #[test]
    fn collect_preserves_order_at_scale() {
        let v: Vec<usize> = (0..100_000usize).into_par_iter().map(|x| x + 1).collect();
        assert!(v.iter().enumerate().all(|(i, &x)| x == i + 1));
    }

    #[test]
    fn enumerate_indices_are_global() {
        let data: Vec<u32> = (0..50_000).map(|i| i * 2).collect();
        let pairs: Vec<(usize, u32)> = data.par_iter().enumerate().map(|(i, &x)| (i, x)).collect();
        assert!(pairs.iter().all(|&(i, x)| x == 2 * i as u32));
    }

    #[test]
    fn fold_reduce_matches_sequential() {
        let got: u64 = (0..100_000u64)
            .into_par_iter()
            .fold(|| 0u64, |s, x| s.wrapping_add(x))
            .reduce(|| 0u64, u64::wrapping_add);
        assert_eq!(got, (0..100_000u64).sum::<u64>());
    }

    #[test]
    fn min_max_and_empty() {
        assert_eq!((0..10_000u32).into_par_iter().min(), Some(0));
        assert_eq!((0..10_000u32).into_par_iter().max(), Some(9999));
        assert_eq!((0..0u32).into_par_iter().min(), None);
        let empty: Vec<u32> = (0..0u32).into_par_iter().collect();
        assert!(empty.is_empty());
    }

    #[test]
    fn flat_map_iter_flattens_in_order() {
        let got: Vec<u32> = (0..1000u32)
            .into_par_iter()
            .flat_map_iter(|x| (0..3).map(move |j| x * 3 + j))
            .collect();
        let expect: Vec<u32> = (0..3000).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn vec_into_par_iter_owns_elements() {
        let v: Vec<String> = (0..5000).map(|i| i.to_string()).collect();
        let lens: Vec<usize> = v.into_par_iter().map(|s| s.len()).collect();
        assert_eq!(lens.len(), 5000);
        assert_eq!(lens[0], 1);
        assert_eq!(lens[4999], 4);
    }
}
