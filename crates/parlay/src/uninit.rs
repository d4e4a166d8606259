//! Helper for building a `Vec<T>` by filling an uninitialized buffer in
//! parallel.
//!
//! Parallel algorithms that know the exact size of their output (merges,
//! tree flattening) want to write disjoint sub-slices from different
//! threads. Safe Rust cannot hand out `&mut [T]` over uninitialized memory,
//! so this module provides the one small, well-contained `unsafe` escape
//! hatch used throughout the workspace.

use std::mem::MaybeUninit;

/// Allocate a buffer of `len` uninitialized slots, let `fill` initialize
/// *every* slot, and return the finished `Vec<T>`. If `fill` unwinds, the
/// buffer is freed without dropping any element (the ones already
/// written leak). [`crate::tabulate`] is the safe front door.
///
/// # Safety
///
/// `fill` must have initialized every element of the slice it is given
/// by the time it returns: the slots are then read as `T`.
pub unsafe fn par_fill<T: Send>(len: usize, fill: impl FnOnce(&mut [MaybeUninit<T>])) -> Vec<T> {
    let mut buf: Vec<MaybeUninit<T>> = Vec::with_capacity(len);
    // SAFETY: `len` is the capacity just reserved, and a `MaybeUninit<T>`
    // is valid uninitialized
    unsafe { buf.set_len(len) };
    fill(&mut buf);
    // SAFETY: the caller's contract is that `fill` initialized every slot;
    // Vec<MaybeUninit<T>> and Vec<T> have identical layout.
    unsafe {
        let mut buf = std::mem::ManuallyDrop::new(buf);
        Vec::from_raw_parts(buf.as_mut_ptr() as *mut T, buf.len(), buf.capacity())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fills_sequentially() {
        // SAFETY: the loop writes every slot
        let v = unsafe {
            par_fill(5, |s| {
                for (i, slot) in s.iter_mut().enumerate() {
                    *slot = MaybeUninit::new(i * 10);
                }
            })
        };
        assert_eq!(v, vec![0, 10, 20, 30, 40]);
    }

    #[test]
    fn fills_in_parallel_halves() {
        let n = 100_000;
        // SAFETY: the two halves cover the slice and each loop writes
        // every slot of its half
        let v = unsafe {
            par_fill(n, |s| {
                let (a, b) = s.split_at_mut(n / 2);
                rayon::join(
                    || {
                        for (i, slot) in a.iter_mut().enumerate() {
                            *slot = MaybeUninit::new(i as u64);
                        }
                    },
                    || {
                        for (i, slot) in b.iter_mut().enumerate() {
                            *slot = MaybeUninit::new((n / 2 + i) as u64);
                        }
                    },
                );
            })
        };
        assert!(v.iter().enumerate().all(|(i, &x)| x == i as u64));
    }

    #[test]
    fn empty_fill() {
        // SAFETY: there is no slot to write
        let v: Vec<u32> = unsafe { par_fill(0, |_| {}) };
        assert!(v.is_empty());
    }

    #[test]
    fn drops_elements_exactly_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct D;
        impl Drop for D {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        // SAFETY: the loop writes every slot
        let v = unsafe {
            par_fill(10, |s| {
                for slot in s.iter_mut() {
                    *slot = MaybeUninit::new(D);
                }
            })
        };
        drop(v);
        assert_eq!(DROPS.load(Ordering::SeqCst), 10);
    }
}
