//! Tree-level algorithms, written once against the `join` of [`crate::balance`].
//!
//! Everything here follows the paper's Figure 2 pseudocode. Functions that
//! *produce* trees take their inputs **by value** (an `Arc` clone of a root
//! is O(1), and passing ownership is what enables the refcount-1 reuse
//! optimization); pure queries borrow.
//!
//! These free functions are the low-level interface; most users want the
//! [`crate::AugMap`] wrapper.

pub mod aug;
pub mod basic;
pub mod build;
pub mod filter;
pub mod insert;
pub mod mapreduce;
pub mod range;
pub mod setops;
pub mod split;
pub mod topk;

pub use aug::{aug_filter, aug_filter_with_all, aug_left, aug_project, aug_range, aug_right};
pub use basic::{contains, find, first, last, next, previous, rank, select};
pub use build::{build, from_sorted_distinct, multi_delete, multi_insert, multi_update};
pub use filter::filter;
pub use insert::{delete, insert, update};
pub use mapreduce::{filter_map_values, for_each, keys, map_reduce, map_values, to_vec, values};
pub use range::{down_to, range, up_to};
pub use setops::{difference, intersect, union};
pub use split::{join2, split, split_first, split_last, split_rank};
pub use topk::top_k_by;
