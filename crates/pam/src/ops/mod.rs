//! Tree-level algorithms, written once against the `join` of [`crate::balance`].
//!
//! Everything here follows the paper's Figure 2 pseudocode. Functions that
//! *produce* trees take their inputs **by value** (an `Arc` clone of a root
//! is O(1), and passing ownership is what enables the refcount-1 reuse
//! optimization); pure queries borrow.
//!
//! Each operation shape is one recursion, whatever its callers differ
//! in: [`mod@build`]'s `update_sorted` (every point and batch update),
//! [`setops`]'s `set_op` (`union` / `intersect` / `difference`),
//! [`aug`]'s `fold_range` (`aug_left` / `aug_right` / `aug_range` /
//! `aug_project`) and `filter_by` (`filter` / `aug_filter` /
//! `aug_filter_with_all`), and [`mod@range`]'s `extract` (`up_to` /
//! `down_to` / `range`). A range end is a type, a key or `Open`, so a
//! one-sided query compiles to its own copy of the recursion.
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
