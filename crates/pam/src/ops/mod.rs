//! Tree-level algorithms, written once against the `join` of [`crate::balance`].
//!
//! Everything here follows the paper's Figure 2 pseudocode. Functions that
//! *produce* trees take their inputs **by value** (an `Arc` clone of a root
//! is O(1), and passing ownership is what enables the refcount-1 reuse
//! optimization); pure queries borrow. A tree is a [`Tree<S>`](crate::node::Tree):
//! every function is generic over the spec and its own closures alone.
//!
//! Each operation shape has one body, whatever its callers differ in:
//! [`mod@build`]'s `update_sorted` (every point and batch update),
//! [`setops`]'s `set_op` (`union` / `intersect` / `difference`),
//! [`aug`]'s `fold_range` (`aug_left` / `aug_right` / `aug_range` /
//! `aug_project`; a loop that walks both boundary paths at once) and
//! `filter_by` (`filter` / `aug_filter` / `aug_filter_with_all`),
//! [`mod@range`]'s `extract` (`up_to` / `down_to` / `range`), and the
//! two walks to a position, a `Gap` below or above a key or after a
//! rank: [`basic`]'s `descend`, which borrows (`find` / `contains` /
//! `first` / `last` / `previous` / `next` / `rank` / `select` /
//! [`Cursor::seek`](crate::cursor::Cursor::seek)), and [`mod@split`]'s
//! `cut`, which owns (`split` / `split_rank` / `split_first` /
//! `split_last`, and so `join2`). A range end is a type, a key or
//! `Open`, so a one-sided query compiles to its own copy of the body;
//! `descend` is inlined, so each point query keeps only the state it
//! reads.
//!
//! These free functions are the low-level interface; most users want the
//! [`crate::AugMap`] wrapper.

pub mod aug;
pub mod basic;
pub mod build;
pub mod insert;
pub mod mapreduce;
pub mod range;
pub mod setops;
pub mod split;
pub mod topk;

pub use aug::{
    aug_filter, aug_filter_with_all, aug_left, aug_project, aug_range, aug_right, filter,
};
pub use basic::{contains, find, first, last, next, previous, rank, select};
pub use build::{build, from_sorted_distinct, multi_delete, multi_insert, multi_update};
pub use insert::{delete, insert, update};
pub use mapreduce::{filter_map_values, for_each, keys, map_reduce, map_values, to_vec, values};
pub use range::{down_to, range, up_to};
pub use setops::{difference, intersect, union};
pub use split::{join2, split, split_first, split_last, split_rank};
pub use topk::top_k_by;

/// A spec whose key order and base function count their calls, for the
/// tests that bound an operation's work.
#[cfg(test)]
pub(crate) mod counting {
    use std::cell::Cell;

    thread_local! {
        static COMPARES: Cell<usize> = const { Cell::new(0) };
        static BASES: Cell<usize> = const { Cell::new(0) };
    }

    /// `SumAug<u64, u64>` whose `compare` and `base` count their calls
    /// per thread.
    pub(crate) struct CountingOrder;

    impl crate::AugSpec for CountingOrder {
        type K = u64;
        type V = u64;
        type A = u64;
        fn compare(a: &u64, b: &u64) -> std::cmp::Ordering {
            COMPARES.with(|c| c.set(c.get() + 1));
            a.cmp(b)
        }
        fn identity() -> u64 {
            0
        }
        fn base(_: &u64, v: &u64) -> u64 {
            BASES.with(|c| c.set(c.get() + 1));
            *v
        }
        fn combine(a: &u64, b: &u64) -> u64 {
            a.wrapping_add(*b)
        }
    }

    /// The `compare` and `base` calls `f` makes on this thread.
    pub(crate) fn calls_of(f: impl FnOnce()) -> (usize, usize) {
        let now = || (COMPARES.with(Cell::get), BASES.with(Cell::get));
        let before = now();
        f();
        let after = now();
        (after.0 - before.0, after.1 - before.1)
    }

    /// The `compare` calls `f` makes on this thread.
    pub(crate) fn compares_of(f: impl FnOnce()) -> usize {
        calls_of(f).0
    }
}
