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
//! maintenance when the capacity `cap` = [`leaf_cap`] is `>= 2`:
//!
//! * if neither side is a *fragment* (a block of fewer than `cap / 2`
//!   entries, e.g. a piece produced by splitting a leaf), both satisfy
//!   the fill invariant and the raw join applies unchanged: it attaches
//!   blocks whole, so two legal blocks become siblings as they are;
//! * if a fragment meets a block, the two are flattened and re-packed
//!   into one full leaf (or one internal node over two half-full leaves);
//! * if a fragment meets a larger tree, the join descends that tree's
//!   spine so the fragment merges into its boundary block.
//!
//! Besides the O(cap) region of a double rotation that would cut a
//! block (`join_heavy`), only a fragment and the one block it lands
//! next to are re-packed, so on a shared tree a join copies no other
//! block.
//!
//! This preserves, inductively, the invariants `validate` checks: any
//! tree of `<= cap` entries is a single leaf, internal nodes root
//! more than `cap` entries, and every non-root leaf holds
//! `cap/2 ..= cap` entries. With `cap == 1`
//! (`Capped<S, 1>`) `join_tree` degenerates to the raw join and the tree
//! is exactly the paper's one-entry-per-node structure — the reference
//! the differential oracle compares every other capacity to.
//!
//! # The capacity
//!
//! [`leaf_cap`] is the only place a capacity is decided; nothing else in
//! the crate reads one. Like PaC-trees, which make block size a property
//! of the entry type, the tree takes no parameter besides its spec:
//! blocks are sized by what copying an entry costs, decided at compile
//! time from the entry type. A path copy clones a block, and the old
//! version later drops it:
//!
//! * an entry with no drop glue (`u64` pairs, intervals, points, posting
//!   entries) is copied with a memcpy and freed with the block, so wide
//!   blocks are cheap to copy and shorten every walk: [`DEFAULT_LEAF_B`]
//!   (128) entries;
//! * an entry that owns something (`Bytes`, `Vec<u8>`, `String`, an
//!   `AugMap` value) pays a refcount increment or a deep clone per entry
//!   on the copy and a decrement on the drop, so a write's cost grows with
//!   the block: 32 entries.
//!
//! A spec's [`AugSpec::PINNED_CAP`] overrides that choice;
//! [`Capped<S, CAP>`](crate::spec::Capped) sets it on any spec (the
//! oracle suites instantiate several capacities side by side).

use crate::node::{expose, flatten_into, size, EntryOwned, Node, Tree};
use crate::ops::split::join2;
use crate::spec::AugSpec;
use parlay::{granularity, par2_if, OwnedSlice};
use std::sync::Arc;

/// Leaf block capacity for entries with no drop glue: copying such a
/// block is a memcpy and dropping it one `free`.
pub const DEFAULT_LEAF_B: usize = 128;

/// Leaf block capacity for entries with drop glue: every entry a path
/// copy clones costs a refcount increment (or a deep clone) now and a
/// decrement when the old version dies.
const OWNING_LEAF_B: usize = 32;

/// The maximum number of entries in a leaf block of a `Tree<S>`: the one
/// place the crate decides it. The spec's [`AugSpec::PINNED_CAP`] if it
/// has one (which must be 1 or an even number `>= 2`: even capacities
/// make the half-full invariant achievable when an overflowing block
/// splits at the median; any other pin fails to compile); otherwise
/// [`DEFAULT_LEAF_B`] (128) when `EntryOwned<S>` has no drop glue and 32
/// when it does.
#[inline]
pub const fn leaf_cap<S: AugSpec>() -> usize {
    const {
        match S::PINNED_CAP {
            Some(cap) => {
                assert!(
                    cap == 1 || (cap >= 2 && cap % 2 == 0),
                    "a pinned leaf capacity is 1 or an even number >= 2"
                );
                cap
            }
            None if std::mem::needs_drop::<EntryOwned<S>>() => OWNING_LEAF_B,
            None => DEFAULT_LEAF_B,
        }
    }
}

const ALPHA_NUM: u64 = 29;
const ALPHA_DEN: u64 = 100;

#[inline]
pub(crate) fn weight<S: AugSpec>(t: &Tree<S>) -> u64 {
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
/// outweighs `cap + 1`, hence is internal).
fn join<S: AugSpec>(l: Tree<S>, e: EntryOwned<S>, r: Tree<S>) -> Arc<Node<S>> {
    let wl = weight(&l);
    let wr = weight(&r);
    if heavy(wl, wr) {
        join_heavy::<S, false>(l, e, r)
    } else if heavy(wr, wl) {
        join_heavy::<S, true>(r, e, l)
    } else {
        Node::make(l, e, r)
    }
}

/// `Node(near, e, far)` as written for a heavy *left* side; `FLIP` builds
/// the mirror image, so one body serves both spines.
#[inline]
fn node<S: AugSpec, const FLIP: bool>(
    near: Tree<S>,
    e: EntryOwned<S>,
    far: Tree<S>,
) -> Arc<Node<S>> {
    if FLIP {
        Node::make(far, e, near)
    } else {
        Node::make(near, e, far)
    }
}

/// [`expose`] as `(near, entry, far)` in [`node`]'s orientation.
#[inline]
fn expose_dir<S: AugSpec, const FLIP: bool>(n: Arc<Node<S>>) -> (Tree<S>, EntryOwned<S>, Tree<S>) {
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
fn join_heavy<S: AugSpec, const FLIP: bool>(
    th: Tree<S>,
    e: EntryOwned<S>,
    tl: Tree<S>,
) -> Arc<Node<S>> {
    if like(weight(&th), weight(&tl)) {
        return node::<S, FLIP>(th, e, tl);
    }
    let (l, le, c) = expose_dir::<S, FLIP>(th.expect("heavy side cannot be empty"));
    let wl = weight(&l);
    let tp = join_heavy::<S, FLIP>(c, e, tl); // T' in the paper's pseudocode
    let wtp = tp.size_of() as u64 + 1;
    if like(wl, wtp) {
        return node::<S, FLIP>(l, le, Some(tp));
    }
    let (l1, e1, r1) = expose_dir::<S, FLIP>(tp);
    let wl1 = weight(&l1);
    let wr1 = weight(&r1);
    if like(wl, wl1) && like(wl + wl1, wr1) {
        // single rotation: rotateLeft(Node(l, le, T'))
        let nl = node::<S, FLIP>(l, le, l1);
        node::<S, FLIP>(Some(nl), e1, r1)
    } else if l1.as_deref().is_some_and(|n| n.is_leaf()) {
        // double rotation would split the inner leaf block, stranding
        // underfull fragments mid-tree; the whole region is O(cap)
        // here, so re-pack it instead.
        let rest = Some(node::<S, FLIP>(l1, e1, r1));
        if FLIP {
            repack_region(rest, le, l)
        } else {
            repack_region(l, le, rest)
        }
    } else {
        // double rotation: rotateLeft(Node(l, le, rotateRight(T')))
        let (l2, e2, r2) = expose_dir::<S, FLIP>(l1.expect("double rotation requires inner child"));
        let nl = node::<S, FLIP>(l, le, l2);
        let nr = node::<S, FLIP>(r2, e1, r1);
        node::<S, FLIP>(Some(nl), e2, Some(nr))
    }
}

/// The crate-facing join: the weight-balanced join plus leaf-block
/// maintenance.
///
/// Preconditions: `max(L) < e.key < min(R)`, and both sides are either
/// valid trees or block fragments (leaves of any fill produced by
/// splitting a leaf). The result restores all fill invariants. `join` is the
/// **only** operation that creates or restructures interior nodes, so it
/// is also where augmented values get recomputed (inside `Node::make`)
/// and where persistence-driven path copying happens (via
/// [`crate::node::expose`]). O(|rank(l) - rank(r)|) work.
pub(crate) fn join_tree<S: AugSpec>(l: Tree<S>, e: EntryOwned<S>, r: Tree<S>) -> Tree<S> {
    Some(join_blocked(l, e, r))
}

fn join_blocked<S: AugSpec>(l: Tree<S>, e: EntryOwned<S>, r: Tree<S>) -> Arc<Node<S>> {
    let cap = leaf_cap::<S>();
    let min_fill = cap / 2;
    let nl = size(&l);
    let nr = size(&r);
    if nl >= min_fill && nr >= min_fill {
        // Neither side is a fragment (with `cap <= 1` none ever is): the
        // raw join attaches whole blocks without looking inside them. Two
        // legal blocks hold more than `cap` entries together and weigh
        // within 2x of each other, so they become siblings as they are.
        return join(l, e, r);
    }
    if nl <= cap && nr <= cap {
        // A fragment and a block (by the size<=cap => leaf invariant):
        // re-pack the <= 2*cap+1 entries into one leaf or two half-full
        // leaves.
        return repack_region(l, e, r);
    }
    if nr < min_fill {
        // Right side is an underfull fragment and the left is internal
        // (nl > cap): peel the left root and push the fragment down the
        // right spine until it merges with a boundary block.
        let (a, p, b) = expose(l.expect("nl > cap implies nonempty"));
        let t = join_blocked(b, e, r);
        return join(a, p, Some(t));
    }
    let (a, p, b) = expose(r.expect("nr > cap implies nonempty"));
    let t = join_blocked(l, e, a);
    join(Some(t), p, b)
}

/// Pack `1..=2*cap+1` sorted entries into a single leaf, or an
/// internal node over two at-least-half-full leaves.
fn pack_block<S: AugSpec>(mut entries: Vec<EntryOwned<S>>) -> Arc<Node<S>> {
    let cap = leaf_cap::<S>();
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

/// Build a tree from sorted, strictly-increasing entries. Up to two
/// blocks' worth (`2·cap + 1`) is a re-pack of a merged or filtered
/// block — the leaf merges under `update_sorted`, the set operations, the
/// filters' leaf paths, the double rotation's fallback — and
/// [`pack_block`] splits the `Vec` in place; anything longer streams
/// through [`build_sorted`] into full leaves.
pub(crate) fn from_sorted_entries<S: AugSpec>(mut entries: Vec<EntryOwned<S>>) -> Tree<S> {
    let cap = leaf_cap::<S>();
    match entries.len() {
        0 => None,
        n if n <= cap.max(1) || (cap >= 2 && n <= 2 * cap + 1) => Some(pack_block::<S>(entries)),
        _ => build_sorted(OwnedSlice::new(&mut entries), &Some),
    }
}

/// Slots of an [`Appender`]'s spine: slot `k` holds `2^k` leaves, and no
/// input has `2^64` of them.
const SPINE: usize = usize::BITS as usize;

/// Closed leaves an [`Appender`] holds before it allocates their nodes,
/// all together: a walk then finds a group's leaf and internal nodes in
/// a few adjacent cache lines, where nodes allocated one by one between
/// the blocks cost it a cache miss each (a 4·10⁶-entry scan: +20 %).
const GROUP: usize = 16;

/// The one bulk loader: a tree built from entries pushed in strictly
/// ascending key order, in O(n) work, each entry moved once.
///
/// An entry goes into the open leaf, a buffer allocated at exactly the
/// leaf capacity, so the leaf takes it over without a copy. The entry
/// after a full leaf is the pivot after it; closed leaves, a group at a
/// time, pair up into perfect subtrees on a right spine, as a binary
/// counter carries (slot `k` holds `2^k` leaves).
/// [`finish`](Self::finish) re-splits the last two leaves so each holds
/// `cap/2 ..= cap` entries and joins the spine from its smallest subtree
/// up, O(log n) joins. Every leaf but the last two is full.
///
/// Every sorted build reaches it: `from_sorted_distinct`, `build` of
/// sorted input, a batch update of an empty map, the re-pack of more than
/// two blocks, and a store's recovery, which feeds one appender per
/// checkpoint file as the file decodes.
///
/// ```
/// use pam::{Appender, AugMap, SumAug};
///
/// let mut a = Appender::<SumAug<u64, u64>>::new();
/// for k in 0..1000 {
///     a.push(k, 1);
/// }
/// assert_eq!(a.last_key(), Some(&999));
/// let m = AugMap::from_root(a.finish());
/// assert_eq!((m.len(), m.aug_val()), (1000, 1000));
/// m.check_invariants().unwrap();
/// ```
pub struct Appender<S: AugSpec> {
    /// Slot `k`: a perfect subtree of `2^k` full leaves and the entry
    /// after it.
    #[allow(clippy::type_complexity)]
    spine: [Option<(Arc<Node<S>>, EntryOwned<S>)>; SPINE],
    /// Closed leaves not yet on the spine, each with the entry after it:
    /// `closed[..group]`. The last stays until another closes, so
    /// `finish` can re-split it with the open leaf.
    #[allow(clippy::type_complexity)]
    closed: [Option<(Vec<EntryOwned<S>>, EntryOwned<S>)>; GROUP],
    group: usize,
    /// The open leaf; it closes at `want` entries (0: none is open).
    open: Vec<EntryOwned<S>>,
    want: usize,
    /// At least the number of entries still to come (`usize::MAX` when
    /// nobody said), so the last two leaves can be sized as they open.
    rest: usize,
}

impl<S: AugSpec> Default for Appender<S> {
    fn default() -> Self {
        Self::with_len(usize::MAX)
    }
}

impl<S: AugSpec> Appender<S> {
    /// An empty appender.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty appender that will be given at most `n` entries: the
    /// last two leaves are then allocated at the sizes `finish` gives them.
    fn with_len(n: usize) -> Self {
        Appender {
            spine: std::array::from_fn(|_| None),
            closed: std::array::from_fn(|_| None),
            group: 0,
            open: Vec::new(),
            want: 0,
            rest: n,
        }
    }

    /// Append `(key, val)`. `key` must be greater than every key appended
    /// before it ([`last_key`](Self::last_key)); the appender does not
    /// check.
    pub fn push(&mut self, key: S::K, val: S::V) {
        self.push_entry(EntryOwned { key, val });
    }

    /// The key appended last.
    pub fn last_key(&self) -> Option<&S::K> {
        let closed = self
            .group
            .checked_sub(1)
            .and_then(|i| self.closed[i].as_ref());
        match (self.open.last(), closed) {
            (Some(e), _) | (None, Some((_, e))) => Some(&e.key),
            (None, None) => None,
        }
    }

    fn push_entry(&mut self, e: EntryOwned<S>) {
        debug_assert!(self.rest > 0, "more entries than promised");
        if self.open.len() < self.want {
            self.open.push(e);
        } else if self.want > 0 {
            // the open leaf is full: `e` is the pivot after it
            if self.group == GROUP {
                self.flush(GROUP);
                self.group = 0;
            }
            self.closed[self.group] = Some((std::mem::take(&mut self.open), e));
            self.group += 1;
            self.want = 0;
        } else {
            self.want = self.leaf_size();
            self.open = Vec::with_capacity(self.want);
            self.open.push(e);
        }
        self.rest = self.rest.saturating_sub(1);
    }

    /// The size of the leaf opening now: full, except that the last two
    /// leaves share what is left when a full one would leave the last
    /// under half full.
    fn leaf_size(&self) -> usize {
        let cap = leaf_cap::<S>().max(1);
        match self.rest {
            rest if rest <= cap => rest.max(1),
            rest if rest <= 2 * cap + 1 && rest - cap - 1 < cap / 2 => rest / 2,
            _ => cap,
        }
    }

    /// Allocate the nodes of the first `k` closed leaves, one after
    /// another, and put them on the spine.
    fn flush(&mut self, k: usize) {
        for i in 0..k {
            let (leaf, after) = self.closed[i].take().expect("a closed leaf");
            self.carry(Node::make_leaf(leaf), after);
        }
    }

    /// Put a closed leaf (or a perfect subtree) and the entry after it on
    /// the spine, pairing it with its equal as a binary counter carries.
    fn carry(&mut self, mut t: Arc<Node<S>>, after: EntryOwned<S>) {
        for slot in &mut self.spine {
            match slot.take() {
                None => {
                    *slot = Some((t, after));
                    return;
                }
                Some((l, pivot)) => t = Node::make(Some(l), pivot, Some(t)),
            }
        }
        unreachable!("{SPINE} spine slots hold every input");
    }

    /// The tree of every entry appended.
    pub fn finish(mut self) -> Tree<S> {
        let open = std::mem::take(&mut self.open);
        let tail = match self.group.checked_sub(1) {
            None => (!open.is_empty()).then(|| Node::make_leaf(open)),
            Some(last) => {
                self.flush(last);
                let (prev, after) = self.closed[last].take().expect("a closed leaf");
                Some(close_tail::<S>(prev, after, open))
            }
        };
        let spine = self.spine.into_iter().flatten();
        spine.fold(tail, |t, (l, pivot)| Some(attach(l, pivot, t)))
    }
}

/// `join(t, pivot, r)` for a fresh perfect subtree `t` of full leaves and
/// an `r` no heavier than about `t` (the rest of an appender's input):
/// `r` hangs on `t`'s right spine where it is like the subtree it pairs
/// with, and as `t` is unshared the nodes above it are updated in place.
/// No rotation is needed, and the one node allocated is `pivot`'s.
fn attach<S: AugSpec>(mut t: Arc<Node<S>>, pivot: EntryOwned<S>, r: Tree<S>) -> Arc<Node<S>> {
    if !heavy(t.size_of() as u64 + 1, weight(&r)) {
        return join(Some(t), pivot, r);
    }
    match Arc::get_mut(&mut t) {
        Some(Node::Internal(x)) => {
            let near = x.right.take().expect("a perfect subtree has both children");
            x.right = Some(attach(near, pivot, r));
            x.refresh();
            t
        }
        _ => join(Some(t), pivot, r),
    }
}

/// An appender's last two leaves: `prev`, the entry `after` it, and
/// `last`. As they are when `last` is at least half full; otherwise, as
/// only an input shorter than promised leaves them, re-packed by
/// [`pack_block`].
fn close_tail<S: AugSpec>(
    mut prev: Vec<EntryOwned<S>>,
    after: EntryOwned<S>,
    last: Vec<EntryOwned<S>>,
) -> Arc<Node<S>> {
    if last.len() >= leaf_cap::<S>() / 2 {
        let last = (!last.is_empty()).then(|| Node::make_leaf(last));
        return Node::make(Some(Node::make_leaf(prev)), after, last);
    }
    prev.push(after);
    prev.extend(last);
    pack_block::<S>(prev)
}

/// A sorted input [`build_sorted`] can cut by index and then stream: an
/// owned view of a batch, or a borrowed slice.
pub(crate) trait SortedInput: IntoIterator + Send + Sized {
    fn len(&self) -> usize;
    fn split_at(self, mid: usize) -> (Self, Self);
}

impl<T: Send> SortedInput for OwnedSlice<'_, T> {
    fn len(&self) -> usize {
        OwnedSlice::len(self)
    }
    fn split_at(self, mid: usize) -> (Self, Self) {
        OwnedSlice::split_at(self, mid)
    }
}

impl<T: Sync> SortedInput for &[T] {
    fn len(&self) -> usize {
        <[T]>::len(self)
    }
    fn split_at(self, mid: usize) -> (Self, Self) {
        <[T]>::split_at(self, mid)
    }
}

/// Build a tree from `items`, sorted by key with no two equal, each
/// mapped through `entry` (`None` leaves it out) and streamed into an
/// [`Appender`]. Above the grain the input is cut by index after a whole
/// number of full leaves and the pivots between them, and the two parts
/// build in parallel around the entry at the cut, so every leaf but the
/// input's last two is full unless `entry` leaves entries out. O(n) work.
pub(crate) fn build_sorted<S, I, F>(items: I, entry: &F) -> Tree<S>
where
    S: AugSpec,
    I: SortedInput,
    F: Fn(I::Item) -> Option<EntryOwned<S>> + Sync,
{
    let n = items.len();
    // a full leaf and the pivot after it; `n` entries make `leaves`
    // leaves and the pivots between them
    let stride = leaf_cap::<S>().max(1) + 1;
    let leaves = (n + 1).div_ceil(stride);
    if n > granularity() && leaves >= 2 {
        // half the leaves, whole, on the left
        let (left, right) = items.split_at(leaves / 2 * stride - 1);
        let (seam, right) = right.split_at(1);
        let (l, r) = par2_if(
            true,
            move || build_sorted(left, entry),
            move || build_sorted(right, entry),
        );
        return match seam.into_iter().next().and_then(entry) {
            Some(e) => join_tree(l, e, r),
            None => join2(l, r),
        };
    }
    let mut appender = Appender::with_len(n);
    for e in items.into_iter().filter_map(entry) {
        appender.push_entry(e);
    }
    appender.finish()
}

/// Flatten `(l, e, r)` into sorted entries and re-pack them: the
/// repairing join's re-pack of a fragment with its neighbouring block,
/// and the double rotation's fallback in [`join_heavy`]. Callers only
/// reach this with O(cap)-sized regions, and the re-pack's internal
/// joins are all trivially balanced (equal-weight halves), so this never
/// re-enters a rotation.
fn repack_region<S: AugSpec>(l: Tree<S>, e: EntryOwned<S>, r: Tree<S>) -> Arc<Node<S>> {
    let mut entries = Vec::with_capacity(size(&l) + size(&r) + 1);
    flatten_into(l, &mut entries);
    entries.push(e);
    flatten_into(r, &mut entries);
    from_sorted_entries::<S>(entries).expect("region is nonempty")
}

/// Build a singleton map (a one-entry leaf block).
#[inline]
pub(crate) fn singleton<S: AugSpec>(key: S::K, val: S::V) -> Tree<S> {
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

    /// The default capacity follows the entry type: a block of plain
    /// entries is 128 wide, one of owning entries 32. Each spec stands
    /// for maps the workspace builds.
    #[test]
    fn default_cap_follows_drop_glue() {
        use crate::map::AugMap;
        use crate::spec::{Capped, MaxAug, NoAug, SumAug};
        // tree-bulk / tree-read's u64 map, and the range tree's points
        assert_eq!(leaf_cap::<SumAug<u64, u64>>(), 128);
        assert_eq!(leaf_cap::<SumAug<(u64, u64), u64>>(), 128);
        // a store spec with owned byte strings, and an index term map
        // whose values are maps
        assert_eq!(leaf_cap::<NoAug<Vec<u8>, Vec<u8>>>(), 32);
        type Postings = AugMap<MaxAug<u32, f32>>;
        assert_eq!(leaf_cap::<NoAug<u32, Postings>>(), 32);
        // a pinned capacity ignores the entry type
        assert_eq!(leaf_cap::<Capped<NoAug<Vec<u8>, Vec<u8>>, 8>>(), 8);
        assert_eq!(leaf_cap::<Capped<SumAug<u64, u64>, 2>>(), 2);
    }
}
