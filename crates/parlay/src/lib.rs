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
//! them), the parallel merge sort and merge, index packing, and combining
//! duplicates in sorted runs — exactly the pieces PAM's `build` and
//! `multi_insert` rely on.
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
pub use merge::par_merge_into;
pub use par::{for_each, granularity, par2_if, reduce, tabulate, with_threads};
pub use scan::pack_index;
pub use sort::par_sort_by;
pub use uninit::par_fill;
