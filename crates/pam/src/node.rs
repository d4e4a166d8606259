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
//! `cap` = [`leaf_cap::<S>()`](crate::balance::leaf_cap) entries: 128
//! when an entry has no drop glue and 32 when it owns something, unless
//! the spec pins another capacity
//! ([`AugSpec::PINNED_CAP`], set by [`Capped`](crate::spec::Capped)).
//! The spec is the node's only type parameter. Blocking amortizes the per-entry `Arc` + pointer overhead
//! over a whole block, which is the dominant constant-factor cost in
//! memory and scan speed.
//! Fill invariants (every non-root leaf holds `cap/2 ..= cap`
//! entries when `cap >= 2`) are maintained by
//! `join_tree` and checked by [`crate::validate`].
//!
//! PAM's "reuse optimization" — *"when the reference count is one we reuse
//! the current node instead of collecting it and allocating a new one"*
//! (§4, Persistence) — is reproduced by [`expose`]: algorithms take trees
//! **by value**, and destructuring a uniquely-owned node moves its fields
//! out (`Arc::try_unwrap`) instead of cloning them. A multi-entry leaf is
//! never exposed: every algorithm that can reach one handles the whole
//! block in a per-block arm (a split by key, a merge, a filter).
//!
//! Every node caches the augmented value of its subtree. For internal
//! nodes it is computed in `Node::make` as `f(A(L), f(g(k,v), A(R)))`; for
//! leaves it is the fold of `g` over the block
//! ([`AugSpec::fold_block`]) — which
//! "localizes application of the augmentation functions f and g to when a
//! node is created" (§4).

use crate::balance::leaf_cap;
use crate::spec::AugSpec;
use std::ops::Range;
use std::sync::Arc;

/// A persistent augmented tree: `None` is the empty map.
pub type Tree<S> = Option<Arc<Node<S>>>;

/// One tree node: a blocked leaf or a pivot-carrying internal node.
pub enum Node<S: AugSpec> {
    /// A sorted block of `1..=leaf_cap::<S>()` entries plus the cached
    /// fold of the augmentation over the block.
    Leaf(LeafNode<S>),
    /// A pivot entry between two subtrees, as in the paper.
    Internal(InternalNode<S>),
}

/// Payload of [`Node::Leaf`]: the sorted entry block and its cached
/// augmented value.
pub struct LeafNode<S: AugSpec> {
    pub(crate) entries: Box<[EntryOwned<S>]>,
    pub(crate) aug: S::A,
}

/// Payload of [`Node::Internal`].
pub struct InternalNode<S: AugSpec> {
    pub(crate) size: usize,
    pub(crate) key: S::K,
    pub(crate) val: S::V,
    pub(crate) aug: S::A,
    pub(crate) left: Tree<S>,
    pub(crate) right: Tree<S>,
}

impl<S: AugSpec> InternalNode<S> {
    /// Recompute `size` and `aug` after a child was replaced in place.
    pub(crate) fn refresh(&mut self) {
        (self.size, self.aug) = summary(&self.left, &self.key, &self.val, &self.right);
    }
}

/// The size and augmented value of an internal node over `left`,
/// `(key, val)` and `right`.
#[inline]
fn summary<S: AugSpec>(left: &Tree<S>, key: &S::K, val: &S::V, right: &Tree<S>) -> (usize, S::A) {
    let mid = S::base(key, val);
    // f(A(L), f(g(k,v), A(R))); absent children contribute nothing
    // (skipping the identity keeps combine cheap when A is itself a
    // large structure such as the range tree's inner map).
    let aug = match (left, right) {
        (None, None) => mid,
        (Some(l), None) => S::combine(l.aug(), &mid),
        (None, Some(r)) => S::combine(&mid, r.aug()),
        (Some(l), Some(r)) => S::combine3(l.aug(), mid, r.aug()),
    };
    (size(left) + size(right) + 1, aug)
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
pub fn size<S: AugSpec>(t: &Tree<S>) -> usize {
    t.as_ref().map_or(0, |n| n.size_of())
}

/// The augmented value of `t`, or the identity for the empty tree.
/// This is the paper's `augVal` — O(1) because sums are maintained.
#[inline]
pub fn aug_val<S: AugSpec>(t: &Tree<S>) -> S::A {
    t.as_ref().map_or_else(S::identity, |n| n.aug().clone())
}

impl<S: AugSpec> LeafNode<S> {
    /// Build a leaf from sorted, strictly-increasing entries, computing the
    /// block's augmented value. `entries` must hold `1..=leaf_cap::<S>()`
    /// items.
    pub(crate) fn from_entries(entries: Vec<EntryOwned<S>>) -> Self {
        debug_assert!(!entries.is_empty(), "leaf blocks are never empty");
        debug_assert!(
            entries.len() <= leaf_cap::<S>().max(1),
            "leaf block overflow"
        );
        let aug = S::fold_block(entries.iter().map(|e| (&e.key, &e.val)));
        LeafNode {
            entries: entries.into_boxed_slice(),
            aug,
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

impl<S: AugSpec> Node<S> {
    /// Create an internal node, computing `size` and the augmented value
    /// from the children.
    pub(crate) fn make(left: Tree<S>, entry: EntryOwned<S>, right: Tree<S>) -> Arc<Self> {
        let (size, aug) = summary(&left, &entry.key, &entry.val, &right);
        Arc::new(Node::Internal(InternalNode {
            size,
            key: entry.key,
            val: entry.val,
            aug,
            left,
            right,
        }))
    }

    /// Create a leaf node from sorted entries (`1..=leaf_cap::<S>()` of
    /// them).
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
    pub fn children(&self) -> Option<(&Tree<S>, &Tree<S>)> {
        match self {
            Node::Leaf(_) => None,
            Node::Internal(x) => Some((&x.left, &x.right)),
        }
    }

    /// The leaf payload, if this is a leaf.
    #[inline]
    pub fn as_leaf(&self) -> Option<&LeafNode<S>> {
        match self {
            Node::Leaf(l) => Some(l),
            Node::Internal(_) => None,
        }
    }
}

/// Destructure a node into `(left, entry, right)` — the paper's `expose`,
/// plus the persistence machinery.
///
/// If the `Arc` is uniquely owned the fields are **moved** out (PAM's
/// refcount-1 reuse: no clones, the node's allocation is released); if it
/// is shared, the fields are cloned (path copying), leaving every other
/// snapshot untouched.
///
/// Only internal nodes and the one-entry leaves of a capacity-1 tree
/// (`Capped<_, 1>`) are exposed; a leaf of such a tree yields its entry
/// between two empty trees. Every caller reaches a multi-entry leaf
/// through a per-block arm instead: `split` slices the block by key, and
/// `set_op` merges whole blocks or exposes the internal side.
#[inline]
#[allow(clippy::type_complexity)]
pub fn expose<S: AugSpec>(n: Arc<Node<S>>) -> (Tree<S>, EntryOwned<S>, Tree<S>) {
    match Arc::try_unwrap(n) {
        Ok(Node::Internal(x)) => (
            x.left,
            EntryOwned {
                key: x.key,
                val: x.val,
            },
            x.right,
        ),
        Ok(Node::Leaf(l)) => {
            debug_assert_eq!(l.entries.len(), 1, "exposed a multi-entry leaf");
            (None, l.entries.into_vec().swap_remove(0), None)
        }
        Err(shared) => clone_out(&shared),
    }
}

#[allow(clippy::type_complexity)]
fn clone_out<S: AugSpec>(n: &Arc<Node<S>>) -> (Tree<S>, EntryOwned<S>, Tree<S>) {
    match &**n {
        Node::Internal(x) => (
            x.left.clone(),
            EntryOwned {
                key: x.key.clone(),
                val: x.val.clone(),
            },
            x.right.clone(),
        ),
        Node::Leaf(l) => {
            debug_assert_eq!(l.entries.len(), 1, "exposed a multi-entry leaf");
            (None, l.entries[0].clone(), None)
        }
    }
}

/// Take ownership of a **leaf** node's entry block: moves the entries out
/// when the `Arc` is unique, clones them when shared (same policy as
/// [`expose`]). Panics on an internal node — callers check `is_leaf`
/// first. This is the entry point of the per-block fast paths in `ops`.
pub(crate) fn take_leaf_entries<S: AugSpec>(n: Arc<Node<S>>) -> Vec<EntryOwned<S>> {
    let len = n.size_of();
    take_leaf_run(n, 0..len)
}

/// The run `run` of a **leaf** node's entry block: moved out when the
/// `Arc` is unique, and only the run cloned when it is shared.
pub(crate) fn take_leaf_run<S: AugSpec>(n: Arc<Node<S>>, run: Range<usize>) -> Vec<EntryOwned<S>> {
    match Arc::try_unwrap(n) {
        Ok(Node::Leaf(l)) => {
            let mut es = l.entries.into_vec();
            es.truncate(run.end);
            es.drain(..run.start);
            es
        }
        Ok(Node::Internal(_)) => unreachable!("take_leaf_run on internal node"),
        Err(shared) => shared.as_leaf().expect("a leaf").entries[run].to_vec(),
    }
}

/// The entries of a **leaf** node's block that `keep` admits: moved out
/// when the `Arc` is unique, and only those cloned when it is shared.
pub(crate) fn take_leaf_where<S: AugSpec>(
    n: Arc<Node<S>>,
    keep: impl Fn(&EntryOwned<S>) -> bool,
) -> Vec<EntryOwned<S>> {
    match Arc::try_unwrap(n) {
        Ok(Node::Leaf(l)) => {
            let mut es = l.entries.into_vec();
            es.retain(keep);
            es
        }
        Ok(Node::Internal(_)) => unreachable!("take_leaf_where on internal node"),
        Err(shared) => {
            let es = shared.as_leaf().expect("a leaf").entries.iter();
            es.filter(|e| keep(e)).cloned().collect()
        }
    }
}

/// Both children of an **internal** node, its pivot dropped: moved out
/// when the `Arc` is unique, two `Arc` bumps when it is shared.
pub(crate) fn take_children<S: AugSpec>(n: Arc<Node<S>>) -> (Tree<S>, Tree<S>) {
    match Arc::try_unwrap(n) {
        Ok(Node::Internal(x)) => (x.left, x.right),
        Ok(Node::Leaf(_)) => unreachable!("take_children on a leaf"),
        Err(shared) => {
            let (l, r) = shared.children().expect("an internal node");
            (l.clone(), r.clone())
        }
    }
}

/// One child of an **internal** node, the right one if `right`, the rest
/// of the node dropped: moved out when the `Arc` is unique, an `Arc` bump
/// when it is shared. A walk that passes a node by clones none of it.
pub(crate) fn take_child<S: AugSpec>(n: Arc<Node<S>>, right: bool) -> Tree<S> {
    match Arc::try_unwrap(n) {
        Ok(Node::Internal(x)) if right => x.right,
        Ok(Node::Internal(x)) => x.left,
        Ok(Node::Leaf(_)) => unreachable!("take_child on a leaf"),
        Err(shared) => {
            let (l, r) = shared.children().expect("an internal node");
            if right { r } else { l }.clone()
        }
    }
}

/// Append every entry of `t` to `out` in key order, reusing uniquely-owned
/// allocations. Used by the blocked join to flatten small trees before
/// re-packing them into full blocks, and by the set operations' merge.
pub(crate) fn flatten_into<S: AugSpec>(t: Tree<S>, out: &mut impl Extend<EntryOwned<S>>) {
    let Some(n) = t else { return };
    match Arc::try_unwrap(n) {
        Ok(Node::Leaf(l)) => out.extend(l.entries.into_vec()),
        Ok(Node::Internal(x)) => {
            flatten_into(x.left, out);
            out.extend([EntryOwned {
                key: x.key,
                val: x.val,
            }]);
            flatten_into(x.right, out);
        }
        Err(shared) => flatten_ref(&shared, out),
    }
}

fn flatten_ref<S: AugSpec>(n: &Node<S>, out: &mut impl Extend<EntryOwned<S>>) {
    match n {
        Node::Leaf(l) => out.extend(l.entries.iter().cloned()),
        Node::Internal(x) => {
            if let Some(l) = x.left.as_deref() {
                flatten_ref(l, out);
            }
            out.extend([EntryOwned {
                key: x.key.clone(),
                val: x.val.clone(),
            }]);
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
pub fn par_drop<S: AugSpec>(t: Tree<S>) {
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
    use crate::spec::{Capped, SumAug};

    type S = SumAug<u64, u64>;

    fn entry(k: u64, v: u64) -> EntryOwned<S> {
        EntryOwned { key: k, val: v }
    }

    fn leaf(k: u64, v: u64) -> Arc<Node<S>> {
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
        let n: Arc<Node<S>> = Node::make_leaf(vec![entry(1, 10), entry(2, 20), entry(3, 30)]);
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
    fn expose_takes_the_entry_of_a_one_entry_leaf_or_an_internal_node() {
        // a one-entry leaf, unique and shared: its entry between two
        // empty trees
        let n = leaf(5, 50);
        let (l, e, r) = expose(n.clone());
        assert!(l.is_none() && r.is_none());
        assert_eq!((e.key, e.val), (5, 50));
        let (l, e, r) = expose(n);
        assert!(l.is_none() && r.is_none());
        assert_eq!((e.key, e.val), (5, 50));
        // an internal node over two blocks: its pivot, and the blocks
        // whole, not re-split
        let l = Node::make_leaf(vec![entry(1, 1), entry(2, 2)]);
        let r = Node::make_leaf(vec![entry(4, 4), entry(5, 5), entry(6, 6)]);
        let n = Node::make(Some(l), entry(3, 3), Some(r));
        let (l, e, r) = expose(n);
        assert_eq!((e.key, e.val), (3, 3));
        assert!(l.as_deref().is_some_and(Node::is_leaf) && size(&l) == 2);
        assert!(r.as_deref().is_some_and(Node::is_leaf) && size(&r) == 3);
        assert_eq!((aug_val(&l), aug_val(&r)), (3, 15));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "exposed a multi-entry leaf")]
    fn expose_refuses_a_multi_entry_leaf() {
        let n: Arc<Node<S>> = Node::make_leaf(vec![entry(1, 1), entry(2, 2)]);
        let _ = expose(n);
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
        let t: Tree<S> = None;
        assert_eq!(size(&t), 0);
        assert_eq!(aug_val(&t), 0);
    }

    #[test]
    fn cap_is_wired_through_schemes() {
        assert_eq!(leaf_cap::<Capped<S, 8>>(), 8);
        assert_eq!(leaf_cap::<S>(), crate::balance::DEFAULT_LEAF_B);
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
