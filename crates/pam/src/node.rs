//! Tree nodes, persistence, and the expose/rebuild machinery.
//!
//! A map is a [`Tree`]: `Option<Arc<Node>>`. `Arc` is the Rust counterpart
//! of PAM's reference-counting garbage collector — atomically counted,
//! freed on last release, safe under concurrency. Snapshots are O(1)
//! (`Tree::clone` bumps one count) and updates path-copy, so maps are fully
//! persistent exactly as in the paper.
//!
//! # Blocked leaves (PaC-tree style)
//!
//! Following the PaC-trees paper (Dhulipala & Blelloch), a [`Node`] is an
//! enum: an [`Internal`](Node::Internal) node carries one pivot entry and
//! its subtree's size (all the weight-balanced invariant reads) exactly as
//! in PAM, while a [`Leaf`](Node::Leaf) holds a *sorted block* of up to
//! `B::LEAF_CAP` entries ([`DEFAULT_LEAF_B`] unless a
//! [`WeightBalancedCap`](crate::balance::WeightBalancedCap) says
//! otherwise). Blocking amortizes the per-entry `Arc` + pointer overhead
//! over a whole block, which is the dominant constant-factor cost in
//! memory and scan speed.
//! Fill invariants (every non-root leaf holds `LEAF_CAP/2 ..= LEAF_CAP`
//! entries when `LEAF_CAP >= 2`) are maintained by
//! `join_tree` and checked by [`crate::validate`].
//!
//! PAM's "reuse optimization" — *"when the reference count is one we reuse
//! the current node instead of collecting it and allocating a new one"*
//! (§4, Persistence) — is reproduced by [`expose`]: algorithms take trees
//! **by value**, and destructuring a uniquely-owned node moves its fields
//! out (`Arc::try_unwrap`) instead of cloning them. Exposing a multi-entry
//! leaf splits its block at the median, so every join-based algorithm
//! remains correct unmodified; hot paths add per-block fast arms instead.
//!
//! Every node caches the augmented value of its subtree. For internal
//! nodes it is computed in `Node::make` as `f(A(L), f(g(k,v), A(R)))`; for
//! leaves it is the fold of `g` over the block
//! ([`AugSpec::fold_block`]) — which
//! "localizes application of the augmentation functions f and g to when a
//! node is created" (§4).

use crate::balance::Balance;
use crate::spec::AugSpec;
use std::marker::PhantomData;
use std::sync::Arc;

/// A persistent augmented tree: `None` is the empty map.
pub type Tree<S, B> = Option<Arc<Node<S, B>>>;

/// Leaf block capacity of [`WeightBalanced`](crate::balance::WeightBalanced).
/// Other capacities (1 restores the paper's one-entry-per-node layout)
/// are instantiated as `WeightBalancedCap<CAP>`.
pub const DEFAULT_LEAF_B: usize = 32;

/// One tree node: a blocked leaf or a pivot-carrying internal node.
pub enum Node<S: AugSpec, B: Balance> {
    /// A sorted block of `1..=B::LEAF_CAP` entries plus the cached fold of
    /// the augmentation over the block.
    Leaf(LeafNode<S, B>),
    /// A pivot entry between two subtrees, as in the paper.
    Internal(InternalNode<S, B>),
}

/// Payload of [`Node::Leaf`]: the sorted entry block and its cached
/// augmented value.
pub struct LeafNode<S: AugSpec, B: Balance> {
    pub(crate) entries: Box<[EntryOwned<S>]>,
    pub(crate) aug: S::A,
    /// No field type names `B`; it says the block is `B::LEAF_CAP` wide.
    cap: PhantomData<B>,
}

/// Payload of [`Node::Internal`].
pub struct InternalNode<S: AugSpec, B: Balance> {
    pub(crate) size: usize,
    pub(crate) key: S::K,
    pub(crate) val: S::V,
    pub(crate) aug: S::A,
    pub(crate) left: Tree<S, B>,
    pub(crate) right: Tree<S, B>,
}

/// An entry (key, value) detached from a node — what the paper's `expose`
/// yields between the two subtrees, what `join` takes as its middle
/// argument, and what leaf blocks store contiguously.
pub struct EntryOwned<S: AugSpec> {
    /// The entry's key.
    pub key: S::K,
    /// The entry's value.
    pub val: S::V,
}

impl<S: AugSpec> Clone for EntryOwned<S> {
    fn clone(&self) -> Self {
        EntryOwned {
            key: self.key.clone(),
            val: self.val.clone(),
        }
    }
}

/// Number of entries in `t`.
#[inline]
pub fn size<S: AugSpec, B: Balance>(t: &Tree<S, B>) -> usize {
    t.as_ref().map_or(0, |n| n.size_of())
}

/// The augmented value of `t`, or the identity for the empty tree.
/// This is the paper's `augVal` — O(1) because sums are maintained.
#[inline]
pub fn aug_val<S: AugSpec, B: Balance>(t: &Tree<S, B>) -> S::A {
    t.as_ref().map_or_else(S::identity, |n| n.aug().clone())
}

impl<S: AugSpec, B: Balance> LeafNode<S, B> {
    /// Build a leaf from sorted, strictly-increasing entries, computing the
    /// block's augmented value. `entries` must hold `1..=B::LEAF_CAP` items.
    pub(crate) fn from_entries(entries: Vec<EntryOwned<S>>) -> Self {
        debug_assert!(!entries.is_empty(), "leaf blocks are never empty");
        debug_assert!(entries.len() <= B::LEAF_CAP.max(1), "leaf block overflow");
        let aug = S::fold_block(entries.iter().map(|e| (&e.key, &e.val)));
        LeafNode {
            entries: entries.into_boxed_slice(),
            aug,
            cap: PhantomData,
        }
    }

    /// The sorted entry block.
    #[inline]
    pub fn entries(&self) -> &[EntryOwned<S>] {
        &self.entries
    }

    /// The cached fold of the augmentation over the block.
    #[inline]
    pub fn aug(&self) -> &S::A {
        &self.aug
    }
}

impl<S: AugSpec, B: Balance> Node<S, B> {
    /// Create an internal node, computing `size` and the augmented value
    /// from the children.
    pub(crate) fn make(left: Tree<S, B>, entry: EntryOwned<S>, right: Tree<S, B>) -> Arc<Self> {
        let size = size(&left) + size(&right) + 1;
        let mid = S::base(&entry.key, &entry.val);
        // f(A(L), f(g(k,v), A(R))); absent children contribute nothing
        // (skipping the identity keeps combine cheap when A is itself a
        // large structure such as the range tree's inner map).
        let aug = match (&left, &right) {
            (None, None) => mid,
            (Some(l), None) => S::combine(l.aug(), &mid),
            (None, Some(r)) => S::combine(&mid, r.aug()),
            (Some(l), Some(r)) => S::combine3(l.aug(), mid, r.aug()),
        };
        Arc::new(Node::Internal(InternalNode {
            size,
            key: entry.key,
            val: entry.val,
            aug,
            left,
            right,
        }))
    }

    /// Create a leaf node from sorted entries (`1..=B::LEAF_CAP` of them).
    #[inline]
    pub(crate) fn make_leaf(entries: Vec<EntryOwned<S>>) -> Arc<Self> {
        Arc::new(Node::Leaf(LeafNode::from_entries(entries)))
    }

    /// The cached augmented value of the subtree rooted here.
    #[inline]
    pub fn aug(&self) -> &S::A {
        match self {
            Node::Leaf(l) => &l.aug,
            Node::Internal(x) => &x.aug,
        }
    }

    /// Number of entries in the subtree rooted here.
    #[inline]
    pub fn size_of(&self) -> usize {
        match self {
            Node::Leaf(l) => l.entries.len(),
            Node::Internal(x) => x.size,
        }
    }

    /// Is this a (blocked) leaf?
    #[inline]
    pub fn is_leaf(&self) -> bool {
        matches!(self, Node::Leaf(_))
    }

    /// The two subtrees of an internal node, or `None` for a leaf.
    /// (Generic tree walkers in downstream crates pair this with
    /// [`Self::aug`]; leaf blocks have no children.)
    #[inline]
    #[allow(clippy::type_complexity)]
    pub fn children(&self) -> Option<(&Tree<S, B>, &Tree<S, B>)> {
        match self {
            Node::Leaf(_) => None,
            Node::Internal(x) => Some((&x.left, &x.right)),
        }
    }

    /// The leaf payload, if this is a leaf.
    #[inline]
    pub fn as_leaf(&self) -> Option<&LeafNode<S, B>> {
        match self {
            Node::Leaf(l) => Some(l),
            Node::Internal(_) => None,
        }
    }
}

/// Split leaf entries at the median: `(left, pivot, right)` where both
/// sides stay sorted. For a single entry both sides are empty.
#[allow(clippy::type_complexity)]
fn split_block<S: AugSpec, B: Balance>(
    mut entries: Vec<EntryOwned<S>>,
) -> (Tree<S, B>, EntryOwned<S>, Tree<S, B>) {
    debug_assert!(!entries.is_empty());
    let mid = entries.len() / 2;
    let mut right = entries.split_off(mid);
    let pivot = right.remove(0);
    let l = if entries.is_empty() {
        None
    } else {
        Some(Node::make_leaf(entries))
    };
    let r = if right.is_empty() {
        None
    } else {
        Some(Node::make_leaf(right))
    };
    (l, pivot, r)
}

/// Destructure a node into `(left, entry, right)` — the paper's `expose`,
/// plus the persistence machinery.
///
/// If the `Arc` is uniquely owned the fields are **moved** out (PAM's
/// refcount-1 reuse: no clones, the node's allocation is released); if it
/// is shared, the fields are cloned (path copying), leaving every other
/// snapshot untouched.
///
/// Exposing a multi-entry **leaf** splits its block at the median into two
/// smaller leaves around the median entry. This keeps every join-based algorithm correct on blocked trees; the rebuilding
/// `join_tree` re-packs underfull blocks on the way up.
#[inline]
#[allow(clippy::type_complexity)]
pub fn expose<S: AugSpec, B: Balance>(
    n: Arc<Node<S, B>>,
) -> (Tree<S, B>, EntryOwned<S>, Tree<S, B>) {
    match Arc::try_unwrap(n) {
        Ok(Node::Internal(x)) => (
            x.left,
            EntryOwned {
                key: x.key,
                val: x.val,
            },
            x.right,
        ),
        Ok(Node::Leaf(l)) => split_block(l.entries.into_vec()),
        Err(shared) => clone_out(&shared),
    }
}

#[allow(clippy::type_complexity)]
fn clone_out<S: AugSpec, B: Balance>(
    n: &Arc<Node<S, B>>,
) -> (Tree<S, B>, EntryOwned<S>, Tree<S, B>) {
    match &**n {
        Node::Internal(x) => (
            x.left.clone(),
            EntryOwned {
                key: x.key.clone(),
                val: x.val.clone(),
            },
            x.right.clone(),
        ),
        Node::Leaf(l) => split_block(l.entries.to_vec()),
    }
}

/// Take ownership of a **leaf** node's entry block: moves the entries out
/// when the `Arc` is unique, clones them when shared (same policy as
/// [`expose`]). Panics on an internal node — callers check `is_leaf`
/// first. This is the entry point of the per-block fast paths in `ops`.
pub(crate) fn take_leaf_entries<S: AugSpec, B: Balance>(n: Arc<Node<S, B>>) -> Vec<EntryOwned<S>> {
    let n = match Arc::try_unwrap(n) {
        Ok(Node::Leaf(l)) => return l.entries.into_vec(),
        Ok(Node::Internal(_)) => unreachable!("take_leaf_entries on internal node"),
        Err(shared) => shared,
    };
    match &*n {
        Node::Leaf(l) => l.entries.to_vec(),
        Node::Internal(_) => unreachable!("take_leaf_entries on internal node"),
    }
}

/// Append every entry of `t` to `out` in key order, reusing uniquely-owned
/// allocations. Used by the blocked join to flatten small trees before
/// re-packing them into full blocks.
pub(crate) fn flatten_into<S: AugSpec, B: Balance>(t: Tree<S, B>, out: &mut Vec<EntryOwned<S>>) {
    let Some(n) = t else { return };
    match Arc::try_unwrap(n) {
        Ok(Node::Leaf(l)) => out.extend(l.entries.into_vec()),
        Ok(Node::Internal(x)) => {
            flatten_into(x.left, out);
            out.push(EntryOwned {
                key: x.key,
                val: x.val,
            });
            flatten_into(x.right, out);
        }
        Err(shared) => flatten_ref(&shared, out),
    }
}

fn flatten_ref<S: AugSpec, B: Balance>(n: &Node<S, B>, out: &mut Vec<EntryOwned<S>>) {
    match n {
        Node::Leaf(l) => out.extend(l.entries.iter().cloned()),
        Node::Internal(x) => {
            if let Some(l) = x.left.as_deref() {
                flatten_ref(l, out);
            }
            out.push(EntryOwned {
                key: x.key.clone(),
                val: x.val.clone(),
            });
            if let Some(r) = x.right.as_deref() {
                flatten_ref(r, out);
            }
        }
    }
}

/// Drop a (potentially huge) tree with parallel recursion.
///
/// `Arc`'s drop reclaims a tree sequentially; PAM's timings "include the
/// cost of any necessary garbage collection", and its collector frees
/// subtrees in parallel. This helper descends while the nodes are uniquely
/// owned, releasing the two subtrees as parallel tasks.
pub fn par_drop<S: AugSpec, B: Balance>(t: Tree<S, B>) {
    const DROP_GRAN: usize = 1 << 12;
    if let Some(n) = t {
        if n.size_of() <= DROP_GRAN {
            drop(n);
            return;
        }
        match Arc::try_unwrap(n) {
            Ok(Node::Internal(x)) => {
                let InternalNode { left, right, .. } = x;
                rayon::join(|| par_drop(left), || par_drop(right));
            }
            Ok(leaf) => drop(leaf),
            Err(shared) => drop(shared), // shared elsewhere: just decrement
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::balance::{WeightBalanced, WeightBalancedCap};
    use crate::spec::SumAug;

    type S = SumAug<u64, u64>;
    type B = WeightBalanced;

    fn entry(k: u64, v: u64) -> EntryOwned<S> {
        EntryOwned { key: k, val: v }
    }

    fn leaf(k: u64, v: u64) -> Arc<Node<S, B>> {
        Node::make_leaf(vec![entry(k, v)])
    }

    #[test]
    fn make_computes_size_and_aug() {
        let l = leaf(1, 10);
        let r = leaf(3, 30);
        let n = Node::make(Some(l), entry(2, 20), Some(r));
        assert_eq!(n.size_of(), 3);
        assert_eq!(*n.aug(), 60);
    }

    #[test]
    fn leaf_block_caches_fold() {
        let n: Arc<Node<S, B>> = Node::make_leaf(vec![entry(1, 10), entry(2, 20), entry(3, 30)]);
        assert_eq!(n.size_of(), 3);
        assert_eq!(*n.aug(), 60);
        assert!(n.is_leaf());
        assert!(n.children().is_none());
    }

    #[test]
    fn expose_moves_when_unique() {
        let n = leaf(7, 70);
        let (l, e, r) = expose(n);
        assert!(l.is_none() && r.is_none());
        assert_eq!(e.key, 7);
        assert_eq!(e.val, 70);
    }

    #[test]
    fn expose_splits_leaf_block_at_median() {
        let n: Arc<Node<S, B>> =
            Node::make_leaf(vec![entry(1, 1), entry(2, 2), entry(3, 3), entry(4, 4)]);
        let (l, e, r) = expose(n);
        assert_eq!(e.key, 3);
        assert_eq!(size(&l), 2);
        assert_eq!(size(&r), 1);
        assert_eq!(aug_val(&l), 3);
        assert_eq!(aug_val(&r), 4);
    }

    #[test]
    fn expose_clones_when_shared() {
        let n = leaf(7, 70);
        let n2 = n.clone();
        let (_, e, _) = expose(n);
        assert_eq!(e.key, 7);
        // the shared copy is untouched
        assert_eq!(n2.size_of(), 1);
        assert_eq!(*n2.aug(), 70);
    }

    #[test]
    fn flatten_preserves_order() {
        let l = Node::make_leaf(vec![entry(1, 1), entry(2, 2)]);
        let r = leaf(4, 4);
        let n = Node::make(Some(l), entry(3, 3), Some(r));
        let mut out = Vec::new();
        flatten_into(Some(n), &mut out);
        let keys: Vec<u64> = out.iter().map(|e| e.key).collect();
        assert_eq!(keys, vec![1, 2, 3, 4]);
    }

    #[test]
    fn size_and_aug_val_of_empty() {
        let t: Tree<S, B> = None;
        assert_eq!(size(&t), 0);
        assert_eq!(aug_val(&t), 0);
    }

    #[test]
    fn cap_is_wired_through_schemes() {
        use crate::balance::Balance as _;
        assert_eq!(WeightBalancedCap::<8>::LEAF_CAP, 8);
        assert_eq!(B::LEAF_CAP, DEFAULT_LEAF_B);
    }

    #[test]
    fn par_drop_handles_shared_and_unique() {
        let l = leaf(1, 1);
        let shared = Some(l.clone());
        par_drop(shared);
        assert_eq!(l.size_of(), 1); // still alive through `l`
        par_drop(Some(l));
    }
}
