//! # PAM: Parallel Augmented Maps (in Rust)
//!
//! A faithful reproduction of the library from **"PAM: Parallel Augmented
//! Maps"** (Sun, Ferizovic, Blelloch; PPoPP 2018): parallel, persistent,
//! ordered key-value maps *augmented* with a monoid "sum" over their
//! entries, supporting range sums, filtered extraction, projections and
//! work-optimal bulk set operations.
//!
//! ## The model
//!
//! An augmented map type is parameterized by `(K, <, V, A, g, f, I)`: keys
//! with a total order, values, an augmented-value type, a base function
//! `g : K × V → A`, and an associative combine `f : A × A → A` with
//! identity `I`. The augmented value of a map is
//! `f(g(k1,v1), ..., g(kn,vn))`. In this crate the tuple is an
//! [`AugSpec`] implementation; ready-made specs cover the common cases
//! ([`SumAug`], [`MaxAug`], [`MinAug`], and un-augmented [`NoAug`]).
//!
//! ## The data structure
//!
//! Balanced binary trees where every node caches the augmented value of
//! its subtree, so `aug_range`/`aug_left` run in O(log n) and `aug_val` in
//! O(1). All algorithms are built on a single balance-aware `join`
//! (Blelloch, Ferizovic, Sun; SPAA 2016) over weight-balanced trees —
//! the scheme of the paper's experiments, and the only one here (see
//! [`balance`]). Leaves are sorted blocks of up to [`DEFAULT_LEAF_B`]
//! entries; [`WeightBalancedCap`] names another capacity. Bulk operations (`union`, `intersect`, `difference`, `filter`,
//! `build`, `multi_insert`, `map_reduce`, ...) fork their recursive calls
//! with rayon and are work-optimal.
//!
//! Maps are **functional/persistent**: updates path-copy, snapshots are
//! O(1) clones, and unique nodes are reused in place (the refcount-1
//! optimization).
//!
//! ## Quick example (the paper's Equation 1: integer map with sums)
//!
//! ```
//! use pam::{AugMap, SumAug};
//!
//! let mut m: AugMap<SumAug<u64, u64>> = AugMap::build(
//!     (0..1000).map(|i| (i, i)).collect());
//!
//! assert_eq!(m.aug_val(), 499_500);          // O(1) total
//! assert_eq!(m.aug_range(&10, &19), 145);    // O(log n) range sum
//! m.insert(2000, 7);
//! let snapshot = m.clone();                   // O(1), fully persistent
//! m.remove(&2000);
//! assert_eq!(snapshot.aug_val(), 499_507);   // snapshot unaffected
//! ```

#![warn(missing_docs)]

pub mod balance;
pub mod cursor;
mod iter;
mod map;
pub mod node;
pub mod ops;
pub mod spec;
pub mod stats;
pub mod validate;

pub use balance::{Balance, WeightBalanced, WeightBalancedCap};
pub use cursor::Cursor;
pub use iter::{Iter, RangeIter};
pub use map::AugMap;
pub use node::{par_drop, EntryOwned, Node, Tree, DEFAULT_LEAF_B};
pub use spec::{Addable, AugSpec, MaxAug, Maxable, MinAug, Minable, NoAug, SumAug};

/// A plain (un-augmented) ordered map.
pub type OrdMap<K, V, B = WeightBalanced> = AugMap<NoAug<K, V>, B>;

/// Everything most users need.
pub mod prelude {
    pub use crate::{
        Addable, AugMap, AugSpec, Balance, MaxAug, Maxable, MinAug, Minable, NoAug, OrdMap, SumAug,
        WeightBalanced,
    };
}
