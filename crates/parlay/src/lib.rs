//! # parlay — parallel primitives substrate
//!
//! This crate is the stand-in for the runtime substrate that the PAM paper
//! takes as given: the Cilk Plus fork-join runtime plus the PBBS-style
//! utility library (ParlayLib in the later PaC-tree work).
//!
//! The fork-join *scheduler* itself is provided by [`rayon`] — of which
//! this workspace uses `join` and nothing else, the paper's `s1 || s2`.
//! Everything *algorithmic* is implemented here from scratch on top of
//! that one fork: the index-range drivers [`tabulate`], [`reduce`] and
//! [`for_each`] (every data-parallel loop in the workspace is one of
//! them), the parallel merge sort, index packing, and combining
//! duplicates in sorted runs — exactly the pieces PAM's `build` and
//! `multi_insert` rely on.
//!
//! [`par_sort_by`] is a stable merge sort: runs of ⌈n / 4P⌉ elements
//! sorted by `std`'s `slice::sort_by` in parallel, then merged level by
//! level with a parallel merge, ping-ponging between the input's own
//! buffer and one scratch buffer. Work O(n log n), span O(L log L +
//! log(n/L) · log² n) for runs of length L; at P = 1 it is `std`'s sort
//! alone. [`combine_duplicates_by`] folds each group of equal neighbours
//! in two O(n)-work passes over blocks. Both **move** elements and never
//! clone one (neither needs `T: Clone`): a sort moves each element once
//! per merge level, bitwise, and the dedup moves each input element once.
//! While they run the elements belong to raw buffers, so a comparator or
//! combine that panics leaks elements, never drops one twice, and the
//! panic reaches the caller.
//!
//! The recursive algorithms run sequentially below a fixed granularity
//! (see [`granularity`]), mirroring PAM's "granularity set so parallelism
//! is not used on very small trees"; the drivers split an index range into
//! four leaves per thread and run it as a plain loop on one thread.

mod dedup;
mod merge;
mod par;
mod scan;
mod sort;
mod uninit;

pub use dedup::combine_duplicates_by;
pub use par::{for_each, granularity, par2_if, reduce, tabulate, with_threads};
pub use scan::pack_index;
pub use sort::par_sort_by;
pub use uninit::par_fill;
