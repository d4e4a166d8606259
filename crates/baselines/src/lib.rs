//! # Comparison baseline for the PAM reproduction
//!
//! [`bplustree::BPlusTree`] stands in for the paper's B+-tree / OpenBw
//! comparator \[63,65\]. It is the one structure besides
//! `std::collections::BTreeMap` that `benchmark/` times `pam` against
//! (`baselines.bplustree_find_ratio`); the comparators nothing gates on
//! are not kept.
//!
//! `u64` keys and values only (the benchmark currency of the paper's
//! §6.1): it exists to be measured, not adopted.

#![warn(missing_docs)]

pub mod bplustree;

pub use bplustree::BPlusTree;
