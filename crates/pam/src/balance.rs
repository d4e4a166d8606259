//! The one `join`: weight-balanced (BB\[α\]) trees over blocked leaves.
//!
//! Following the paper (§4) and "Just Join for Parallel Ordered Sets"
//! [Blelloch, Ferizovic, Sun; SPAA 2016], *every* algorithm in this crate
//! is written against one balance-aware primitive:
//!
//! ```text
//! join(L, (k, v), R)   where max(L) < k < min(R)
//! ```
//!
//! which concatenates two balanced trees around a middle entry and
//! rebalances. This module owns the whole balancing decision — the ratio
//! predicates, the rotations, the block re-packing — and nothing else in
//! the crate creates or restructures interior nodes. The scheme is the
//! paper's default and the only one here: weight-balanced trees need "no
//! extra balancing criteria in each node — the node size is already
//! stored", and a blocked leaf needs exactly that size-based invariant
//! (PaC-trees ship weight-balanced only for the same reason). The
//! four-scheme comparison belongs to the *Just Join* paper.
//!
//! # The invariant
//!
//! A node is balanced when each subtree holds between `α` and `1 − α` of
//! the node's weight (weight = size + 1). PAM uses `α = 0.29`, inside the
//! provably safe range for join-based rebalancing (α ≤ 1 − 1/√2 ≈ 0.2929).
//! The ratio tests run in exact integer arithmetic (`α = 29/100`), so no
//! floating point enters the balance decisions. Weights count *entries*,
//! so a leaf block of `k` entries weighs `k + 1` and balance reasoning is
//! oblivious to blocking.
//!
//! # Blocked leaves
//!
//! With PaC-tree-style leaf blocks (see [`crate::node`]), the crate-facing
//! join is `join_tree`, which wraps the raw rotation join with block
//! maintenance when [`Balance::LEAF_CAP`] `>= 2`:
//!
//! * if both sides fit in a block, the result is flattened and re-packed
//!   into one full leaf (or one internal node over two half-full leaves);
//! * if one side is an *underfull* block (fewer than `LEAF_CAP / 2`
//!   entries, e.g. a fragment produced by exposing a leaf), the join
//!   descends the other side's spine so the fragment merges into its
//!   boundary blocks;
//! * otherwise both sides satisfy the fill invariant and the raw join
//!   applies unchanged.
//!
//! This preserves, inductively, the invariants `validate` checks: any
//! tree of `<= LEAF_CAP` entries is a single leaf, internal nodes root
//! more than `LEAF_CAP` entries, and every non-root leaf holds
//! `LEAF_CAP/2 ..= LEAF_CAP` entries. With `LEAF_CAP == 1`
//! (`WeightBalancedCap<1>`) `join_tree` degenerates to the raw join and
//! the tree is exactly the paper's one-entry-per-node structure — the
//! reference the differential oracle compares every other capacity to.

use crate::node::{expose, flatten_into, size, EntryOwned, Node, Tree, DEFAULT_LEAF_B};
use crate::spec::AugSpec;
use std::sync::Arc;

/// The tree's one remaining compile-time parameter: how many entries a
/// leaf block may hold. (It was a balancing-scheme trait while the crate
/// carried four schemes; the name and the second type argument of
/// [`Tree`] outlive them until the frozen benchmark's
/// `Tree<Spec, WeightBalanced>` can be edited — ROADMAP item 1(e).)
pub trait Balance: Sized + Send + Sync + 'static {
    /// Maximum number of entries a leaf block may hold. Must be 1 or an
    /// even number `>= 2` (even capacities make the half-full invariant
    /// achievable when splitting an overflowing block at the median).
    const LEAF_CAP: usize;
}

/// Weight-balanced tree with an explicit leaf-block capacity (1 restores
/// the paper's one-entry-per-node tree). The differential oracle suite
/// instantiates `WeightBalancedCap<1>` / `<2>` / `<8>` / `<32>` side by
/// side in one binary.
pub struct WeightBalancedCap<const CAP: usize>;

/// The crate default: leaf blocks of [`DEFAULT_LEAF_B`] entries.
pub type WeightBalanced = WeightBalancedCap<DEFAULT_LEAF_B>;

impl<const CAP: usize> Balance for WeightBalancedCap<CAP> {
    const LEAF_CAP: usize = CAP;
}

const ALPHA_NUM: u64 = 29;
const ALPHA_DEN: u64 = 100;

#[inline]
pub(crate) fn weight<S: AugSpec, B: Balance>(t: &Tree<S, B>) -> u64 {
    size(t) as u64 + 1
}

/// Is a subtree of weight `wa` too heavy next to a sibling of weight `wb`?
/// (its share of the total exceeds `1 − α`)
#[inline]
fn heavy(wa: u64, wb: u64) -> bool {
    wa * ALPHA_DEN > (ALPHA_DEN - ALPHA_NUM) * (wa + wb)
}

/// May subtrees of weights `wa` and `wb` be siblings? (neither is heavy)
/// This is the balance invariant `validate::check_tree` checks at every
/// internal node.
#[inline]
pub(crate) fn like(wa: u64, wb: u64) -> bool {
    !heavy(wa, wb) && !heavy(wb, wa)
}

/// The raw weight-balanced join (Figure 7 of "Just Join"). It treats leaf
/// blocks as opaque nodes and never re-packs them; [`join_blocked`]
/// layers the fill-invariant maintenance on top, and its preconditions
/// guarantee a descent here never exposes a block (a heavy side always
/// outweighs `LEAF_CAP + 1`, hence is internal).
fn join<S: AugSpec, B: Balance>(l: Tree<S, B>, e: EntryOwned<S>, r: Tree<S, B>) -> Arc<Node<S, B>> {
    let wl = weight(&l);
    let wr = weight(&r);
    if heavy(wl, wr) {
        join_heavy::<S, B, false>(l, e, r)
    } else if heavy(wr, wl) {
        join_heavy::<S, B, true>(r, e, l)
    } else {
        Node::make(l, e, r)
    }
}

/// `Node(near, e, far)` as written for a heavy *left* side; `FLIP` builds
/// the mirror image, so one body serves both spines.
#[inline]
fn node<S: AugSpec, B: Balance, const FLIP: bool>(
    near: Tree<S, B>,
    e: EntryOwned<S>,
    far: Tree<S, B>,
) -> Arc<Node<S, B>> {
    if FLIP {
        Node::make(far, e, near)
    } else {
        Node::make(near, e, far)
    }
}

/// [`expose`] as `(near, entry, far)` in [`node`]'s orientation.
#[inline]
fn expose_dir<S: AugSpec, B: Balance, const FLIP: bool>(
    n: Arc<Node<S, B>>,
) -> (Tree<S, B>, EntryOwned<S>, Tree<S, B>) {
    let (l, e, r) = expose(n);
    if FLIP {
        (r, e, l)
    } else {
        (l, e, r)
    }
}

/// `th` outweighs `tl`: descend `th`'s spine on the side facing `tl`
/// until the remainder is "like" it, attach there, and repair
/// with single or double rotations on the way back up. Comments read for
/// a heavy left side (`FLIP = false`); `FLIP = true` is the mirror image.
/// The only place in the crate that constructs rotations.
fn join_heavy<S: AugSpec, B: Balance, const FLIP: bool>(
    th: Tree<S, B>,
    e: EntryOwned<S>,
    tl: Tree<S, B>,
) -> Arc<Node<S, B>> {
    if like(weight(&th), weight(&tl)) {
        return node::<S, B, FLIP>(th, e, tl);
    }
    let (l, le, c) = expose_dir::<S, B, FLIP>(th.expect("heavy side cannot be empty"));
    let wl = weight(&l);
    let tp = join_heavy::<S, B, FLIP>(c, e, tl); // T' in the paper's pseudocode
    let wtp = tp.size_of() as u64 + 1;
    if like(wl, wtp) {
        return node::<S, B, FLIP>(l, le, Some(tp));
    }
    let (l1, e1, r1) = expose_dir::<S, B, FLIP>(tp);
    let wl1 = weight(&l1);
    let wr1 = weight(&r1);
    if like(wl, wl1) && like(wl + wl1, wr1) {
        // single rotation: rotateLeft(Node(l, le, T'))
        let nl = node::<S, B, FLIP>(l, le, l1);
        node::<S, B, FLIP>(Some(nl), e1, r1)
    } else if l1.as_deref().is_some_and(|n| n.is_leaf()) {
        // double rotation would split the inner leaf block, stranding
        // underfull fragments mid-tree; the whole region is O(LEAF_CAP)
        // here, so re-pack it instead.
        let rest = Some(node::<S, B, FLIP>(l1, e1, r1));
        if FLIP {
            repack_region(rest, le, l)
        } else {
            repack_region(l, le, rest)
        }
    } else {
        // double rotation: rotateLeft(Node(l, le, rotateRight(T')))
        let (l2, e2, r2) =
            expose_dir::<S, B, FLIP>(l1.expect("double rotation requires inner child"));
        let nl = node::<S, B, FLIP>(l, le, l2);
        let nr = node::<S, B, FLIP>(r2, e1, r1);
        node::<S, B, FLIP>(Some(nl), e2, Some(nr))
    }
}

/// The crate-facing join: the weight-balanced join plus leaf-block
/// maintenance.
///
/// Preconditions: `max(L) < e.key < min(R)`, and both sides are either
/// valid trees or block fragments (leaves of any fill produced by
/// `expose`). The result restores all fill invariants. `join` is the
/// **only** operation that creates or restructures interior nodes, so it
/// is also where augmented values get recomputed (inside `Node::make`)
/// and where persistence-driven path copying happens (via
/// [`crate::node::expose`]). O(|rank(l) - rank(r)|) work.
pub(crate) fn join_tree<S: AugSpec, B: Balance>(
    l: Tree<S, B>,
    e: EntryOwned<S>,
    r: Tree<S, B>,
) -> Tree<S, B> {
    Some(join_blocked(l, e, r))
}

fn join_blocked<S: AugSpec, B: Balance>(
    l: Tree<S, B>,
    e: EntryOwned<S>,
    r: Tree<S, B>,
) -> Arc<Node<S, B>> {
    let cap = B::LEAF_CAP;
    if cap <= 1 {
        // Degenerate blocks: the raw join is already the whole story.
        return join(l, e, r);
    }
    let nl = size(&l);
    let nr = size(&r);
    if nl <= cap && nr <= cap {
        // Both sides are blocks (by the size<=cap => leaf invariant, or
        // fragments from exposing a leaf): flatten the <= 2*cap+1 entries
        // and re-pack into one leaf or two half-full leaves.
        let mut entries = Vec::with_capacity(nl + nr + 1);
        flatten_into(l, &mut entries);
        entries.push(e);
        flatten_into(r, &mut entries);
        return pack_block::<S, B>(entries);
    }
    let min_fill = cap / 2;
    if nr < min_fill {
        // Right side is an underfull fragment and the left is internal
        // (nl > cap): peel the left root and push the fragment down the
        // right spine until it merges with a boundary block.
        let (a, p, b) = expose(l.expect("nl > cap implies nonempty"));
        let t = join_blocked(b, e, r);
        return join(a, p, Some(t));
    }
    if nl < min_fill {
        let (a, p, b) = expose(r.expect("nr > cap implies nonempty"));
        let t = join_blocked(l, e, a);
        return join(Some(t), p, b);
    }
    // Both sides satisfy the fill invariant: the raw join attaches whole
    // blocks without ever looking inside them.
    join(l, e, r)
}

/// Pack `1..=2*LEAF_CAP+1` sorted entries into a single leaf, or an
/// internal node over two at-least-half-full leaves.
fn pack_block<S: AugSpec, B: Balance>(mut entries: Vec<EntryOwned<S>>) -> Arc<Node<S, B>> {
    let cap = B::LEAF_CAP;
    if entries.len() <= cap {
        return Node::make_leaf(entries);
    }
    // len in cap+1 ..= 2*cap+1: split at the median. With even cap both
    // halves land in cap/2 ..= cap.
    let mid = entries.len() / 2;
    let mut right = entries.split_off(mid);
    let pivot = right.remove(0);
    join(
        Some(Node::make_leaf(entries)),
        pivot,
        Some(Node::make_leaf(right)),
    )
}

/// Build a tree from sorted, strictly-increasing entries by packing full
/// blocks bottom-up (median recursion, so every leaf lands in
/// `LEAF_CAP/2 ..= LEAF_CAP`). The bulk-load primitive behind
/// `from_sorted_distinct` and the leaf fast paths of `multi_insert`.
pub(crate) fn from_sorted_entries<S: AugSpec, B: Balance>(
    mut entries: Vec<EntryOwned<S>>,
) -> Tree<S, B> {
    if entries.is_empty() {
        return None;
    }
    if entries.len() <= B::LEAF_CAP.max(1) {
        return Some(Node::make_leaf(entries));
    }
    let mid = entries.len() / 2;
    let mut right = entries.split_off(mid);
    let pivot = right.remove(0);
    let l = from_sorted_entries::<S, B>(entries);
    let r = from_sorted_entries::<S, B>(right);
    Some(join_blocked(l, pivot, r))
}

/// Flatten `(l, e, r)` into sorted entries and re-pack into a perfectly
/// balanced blocked tree — the double rotation's fallback in
/// [`join_heavy`]. Callers only reach this with O(LEAF_CAP)-sized
/// regions, and the re-pack's internal joins are all trivially balanced
/// (equal-weight halves), so this never re-enters a rotation.
fn repack_region<S: AugSpec, B: Balance>(
    l: Tree<S, B>,
    e: EntryOwned<S>,
    r: Tree<S, B>,
) -> Arc<Node<S, B>> {
    let mut entries = Vec::with_capacity(size(&l) + size(&r) + 1);
    flatten_into(l, &mut entries);
    entries.push(e);
    flatten_into(r, &mut entries);
    from_sorted_entries::<S, B>(entries).expect("region is nonempty")
}

/// Build a singleton map (a one-entry leaf block).
#[inline]
pub(crate) fn singleton<S: AugSpec, B: Balance>(key: S::K, val: S::V) -> Tree<S, B> {
    Some(Node::make_leaf(vec![EntryOwned { key, val }]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_predicates() {
        // equal weights are always like
        assert!(like(1, 1));
        assert!(like(10, 10));
        // 3-vs-1: 75% share > 71% -> heavy
        assert!(heavy(3, 1));
        assert!(!like(3, 1));
        // 2-vs-1: 66.7% share <= 71% -> fine
        assert!(like(2, 1));
        // extreme skew
        assert!(heavy(1000, 1));
        assert!(!heavy(1, 1000));
    }
}
