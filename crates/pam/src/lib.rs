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
//! [`balance`]). Leaves are sorted blocks whose capacity
//! [`balance::leaf_cap`] decides from the entry type: [`DEFAULT_LEAF_B`]
//! (128) entries when copying one is a memcpy, 32 when an entry owns
//! something a path copy must count or clone; a spec may pin another
//! capacity ([`spec::Capped`]). The spec is the only type parameter of
//! every type and function here. Bulk operations (`union`, `intersect`,
//! `difference`, `filter`, `build`, `multi_insert`, `map_reduce`, ...)
//! fork their recursive calls with rayon and are work-optimal.
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

pub use balance::{Appender, DEFAULT_LEAF_B};
pub use cursor::Cursor;
pub use iter::{Iter, RangeIter};
pub use map::AugMap;
pub use node::{par_drop, EntryOwned, Node};
pub use spec::{Addable, AugSpec, MaxAug, Maxable, MinAug, Minable, NoAug, SumAug};

/// A plain (un-augmented) ordered map.
pub type OrdMap<K, V> = AugMap<NoAug<K, V>>;

/// [`node::Tree<S>`] under a compatibility name that also accepts a
/// second argument, [`WeightBalanced`], the only one it resolves. The
/// frozen benchmark package spells `Tree<Spec, WeightBalanced>` and is the
/// alias's only user; ROADMAP item 1(e) deletes the second parameter and
/// `WeightBalanced` with it.
pub type Tree<S, B = WeightBalanced> = <B as TreeOf<S>>::Tree;

/// The weight-balanced scheme, the only one here: kept as a name only for
/// the [`Tree`] alias's second argument (ROADMAP item 1(e)).
pub struct WeightBalanced;

#[doc(hidden)]
pub trait TreeOf<S> {
    type Tree;
}

impl<S: AugSpec> TreeOf<S> for WeightBalanced {
    type Tree = node::Tree<S>;
}

/// Everything most users need.
pub mod prelude {
    pub use crate::{
        Addable, AugMap, AugSpec, MaxAug, Maxable, MinAug, Minable, NoAug, OrdMap, SumAug,
    };
}
