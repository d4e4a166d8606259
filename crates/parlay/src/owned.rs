//! An owned, splittable view of a buffer's elements.
//!
//! A bulk operation that partitions its input and recurses on the parts
//! — PAM's batch update, the median-split build — wants each part to
//! *own* its elements, so the recursion can move every element to where
//! it ends up exactly once instead of cloning it out of a borrowed
//! slice. [`OwnedSlice`] is that part: it takes the elements of a `Vec`
//! (leaving the `Vec` empty, holding only the allocation), splits into
//! disjoint owned halves that can be sent to other threads, hands its
//! elements out by value (one at a time as an iterator, or all at once
//! into a `Vec` of their own), and drops only the elements not yet
//! taken. The `Vec` stays borrowed while any view lives and frees the
//! buffer afterwards.
//!
//! The contract on a panic is `par_sort_by`'s: a view that unwinds drops
//! its remaining elements once, and a view that is leaked leaks them;
//! no element is ever dropped twice.

use std::marker::PhantomData;
use std::mem::{ManuallyDrop, MaybeUninit};
use std::ptr::{self, NonNull};

/// The elements `ptr[0..len]`, owned by this view: see the module docs.
pub struct OwnedSlice<'a, T> {
    /// The first element not yet taken; each of `len` slots from here is
    /// initialized, and no other view or owner reaches it.
    ptr: NonNull<T>,
    len: usize,
    /// Owns `T`s, in a buffer borrowed mutably for `'a`.
    _own: PhantomData<(T, &'a mut [T])>,
}

// SAFETY: a view owns its elements outright (no other view or owner
// reaches its slots), so sending it sends `T`s
unsafe impl<T: Send> Send for OwnedSlice<'_, T> {}
// SAFETY: `&OwnedSlice` only gives `&T`s (`as_slice`)
unsafe impl<T: Sync> Sync for OwnedSlice<'_, T> {}

impl<'a, T> OwnedSlice<'a, T> {
    /// Take every element of `v`, leaving it empty with its allocation;
    /// `v` frees the buffer once the view (and every part split from it)
    /// is gone. Leaking the view leaks the elements it still holds.
    pub fn new(v: &'a mut Vec<T>) -> Self {
        let len = v.len();
        // SAFETY: from here the `len` elements belong to the view; `v`
        // (borrowed for `'a`) neither reads nor drops them
        unsafe { v.set_len(0) };
        OwnedSlice {
            ptr: NonNull::new(v.as_mut_ptr()).expect("a Vec's pointer is never null"),
            len,
            _own: PhantomData,
        }
    }

    /// A view of the one element `item`, kept in `slot` — a batch of one
    /// that needs no allocation. `slot` counts as uninitialized again
    /// once the view is gone.
    pub fn one(slot: &'a mut MaybeUninit<T>, item: T) -> Self {
        OwnedSlice {
            ptr: NonNull::from(slot.write(item)),
            len: 1,
            _own: PhantomData,
        }
    }

    /// The elements not yet taken.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        // SAFETY: the view's `len` slots are initialized and its own
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }

    /// Number of elements not yet taken.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Has every element been taken?
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Split into the first `mid` elements and the rest, each owning its
    /// part. Panics if `mid > len`.
    pub fn split_at(self, mid: usize) -> (Self, Self) {
        assert!(mid <= self.len, "split_at {mid} of {}", self.len);
        // the two parts take over the elements: this view must not drop them
        let whole = ManuallyDrop::new(self);
        let part = |ptr, len| OwnedSlice {
            ptr,
            len,
            _own: PhantomData,
        };
        // SAFETY: `mid <= len`, so the pointer stays within (or one past
        // the end of) the view's slots
        let rest = unsafe { whole.ptr.add(mid) };
        (part(whole.ptr, mid), part(rest, whole.len - mid))
    }

    /// Move the elements not yet taken into a `Vec` of exactly their
    /// number, in one copy.
    pub fn into_vec(self) -> Vec<T> {
        // the Vec takes over the elements: this view must not drop them
        let view = ManuallyDrop::new(self);
        let mut v = Vec::with_capacity(view.len);
        // SAFETY: the view's `len` slots are initialized and its own, and
        // `v` has room for `len` elements in a separate allocation; the
        // view is forgotten, so each element now lives in `v` alone
        unsafe {
            ptr::copy_nonoverlapping(view.ptr.as_ptr(), v.as_mut_ptr(), view.len);
            v.set_len(view.len);
        }
        v
    }
}

impl<T> Iterator for OwnedSlice<'_, T> {
    type Item = T;

    /// Take the first element by value.
    #[inline]
    fn next(&mut self) -> Option<T> {
        if self.len == 0 {
            return None;
        }
        // SAFETY: the first slot is initialized and the view's own; the
        // view shrinks past it at once, so it is read exactly once
        let item = unsafe { self.ptr.read() };
        // SAFETY: `len >= 1`, so one past the first slot is in bounds
        self.ptr = unsafe { self.ptr.add(1) };
        self.len -= 1;
        Some(item)
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.len, Some(self.len))
    }
}

impl<T> ExactSizeIterator for OwnedSlice<'_, T> {}

impl<T> Drop for OwnedSlice<'_, T> {
    fn drop(&mut self) {
        // SAFETY: the `len` slots from `ptr` are initialized, the view's
        // own, and never read again
        unsafe { ptr::drop_in_place(ptr::slice_from_raw_parts_mut(self.ptr.as_ptr(), self.len)) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::par::{par2_if, with_threads};
    use std::collections::HashSet;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Mutex;

    /// An element that records its ID when dropped, failing on a second
    /// drop of the same ID.
    struct Tracked<'a>(u32, &'a Mutex<HashSet<u32>>);

    impl Drop for Tracked<'_> {
        fn drop(&mut self) {
            assert!(
                self.1.lock().unwrap().insert(self.0),
                "element {} dropped twice",
                self.0
            );
        }
    }

    fn tracked(n: u32, dropped: &Mutex<HashSet<u32>>) -> Vec<Tracked<'_>> {
        (0..n).map(|i| Tracked(i, dropped)).collect()
    }

    #[test]
    fn takes_splits_and_drops_the_rest_once() {
        let dropped = Mutex::new(HashSet::new());
        let mut v = tracked(10, &dropped);
        let cap = v.capacity();
        {
            let view = OwnedSlice::new(&mut v);
            assert_eq!(view.len(), 10);
            let (mut a, b) = view.split_at(4);
            assert_eq!(
                a.as_slice().iter().map(|t| t.0).collect::<Vec<_>>(),
                [0, 1, 2, 3]
            );
            assert_eq!(b.as_slice()[0].0, 4);
            let first = a.next().expect("four elements");
            assert_eq!((first.0, a.len()), (0, 3));
            // taken by value: its drop is its new owner's
            drop(first);
            assert!(dropped.lock().unwrap().contains(&0));
            let (empty, b) = b.split_at(0);
            assert!(empty.is_empty());
            let (b, c) = b.split_at(3);
            assert_eq!(b.map(|t| t.0).collect::<Vec<_>>(), [4, 5, 6]);
            // moved into a Vec of their own, still undropped
            let rest = c.into_vec();
            assert_eq!(rest.iter().map(|t| t.0).collect::<Vec<_>>(), [7, 8, 9]);
            assert_eq!(rest.capacity(), 3);
            assert_eq!(dropped.lock().unwrap().len(), 4);
            // `a` still holds 1, 2, 3 and drops them here, as `rest` does 7, 8, 9
        }
        assert_eq!(dropped.lock().unwrap().len(), 10);
        // the Vec kept its buffer and no element
        assert!(v.is_empty());
        assert_eq!(v.capacity(), cap);
    }

    #[test]
    fn one_holds_a_single_element_without_a_vec() {
        let dropped = Mutex::new(HashSet::new());
        let mut slot = MaybeUninit::uninit();
        let mut view = OwnedSlice::one(&mut slot, Tracked(7, &dropped));
        assert_eq!(view.as_slice()[0].0, 7);
        assert_eq!(view.next().map(|t| t.0), Some(7));
        assert!(view.next().is_none());
        drop(view);
        assert_eq!(*dropped.lock().unwrap(), HashSet::from([7]));
        // untaken, the view drops it
        let mut slot = MaybeUninit::uninit();
        drop(OwnedSlice::one(&mut slot, Tracked(8, &dropped)));
        assert!(dropped.lock().unwrap().contains(&8));
    }

    #[test]
    #[should_panic(expected = "split_at 3 of 2")]
    fn split_past_the_end_panics() {
        let mut v = vec![1, 2];
        let _ = OwnedSlice::new(&mut v).split_at(3);
    }

    /// Split in halves down to single elements, forking above a few, and
    /// panic on the element numbered `boom`.
    fn consume(view: OwnedSlice<'_, Tracked<'_>>, boom: u32) {
        if view.len() <= 1 {
            for t in view {
                assert_ne!(t.0, boom, "boom");
            }
            return;
        }
        let n = view.len();
        let (a, b) = view.split_at(n / 2);
        par2_if(n > 8, || consume(a, boom), || consume(b, boom));
    }

    #[test]
    fn a_panic_while_parts_are_on_other_threads_drops_every_element_at_most_once() {
        for threads in [1, 2, 3] {
            for boom in [0, 1, 500, 999, u32::MAX] {
                let dropped = Mutex::new(HashSet::new());
                let mut v = tracked(1000, &dropped);
                let caught = catch_unwind(AssertUnwindSafe(|| {
                    with_threads(threads, || consume(OwnedSlice::new(&mut v), boom))
                }));
                assert_eq!(caught.is_err(), boom != u32::MAX, "{threads} threads");
                // a second drop would have failed inside `Tracked::drop`;
                // the panicking element is dropped while unwinding, and
                // the parts never reached are dropped by their views
                assert_eq!(dropped.lock().unwrap().len(), 1000, "{threads} threads");
                assert!(v.is_empty());
            }
        }
    }
}
