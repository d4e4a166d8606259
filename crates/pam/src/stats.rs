//! Space accounting (for the Table 4 reproduction).
//!
//! Persistence via path copying means trees *share* nodes: the union of a
//! large and a small map reuses most of the large map's nodes. These
//! helpers measure that sharing exactly, by walking reachable nodes and
//! deduplicating on their addresses — no global allocation counters, so
//! the hot paths stay untouched.
//!
//! With blocked leaves a "node" is either an internal node or a whole
//! leaf block; [`reachable_bytes`] adds the out-of-line entry array of
//! each distinct leaf, so it reflects the real footprint win of packing
//! `LEAF_CAP` entries per allocation.

use crate::balance::Balance;
use crate::node::{Node, Tree};
use crate::spec::AugSpec;
use std::collections::HashSet;

/// Size in bytes of one tree node for this spec (excluding the two
/// `Arc` refcount words, which add 16 bytes per heap allocation, and
/// excluding leaf entry arrays).
pub fn node_size<S: AugSpec, B: Balance>() -> usize {
    std::mem::size_of::<Node<S, B>>()
}

fn collect<'a, S: AugSpec, B: Balance>(
    t: &'a Tree<S, B>,
    seen: &mut HashSet<*const Node<S, B>>,
    nodes: &mut Vec<&'a Node<S, B>>,
) {
    let mut stack: Vec<&Node<S, B>> = Vec::new();
    if let Some(n) = t.as_deref() {
        stack.push(n);
    }
    while let Some(n) = stack.pop() {
        if !seen.insert(n as *const _) {
            continue; // subtree already counted (shared)
        }
        nodes.push(n);
        if let Some((l, r)) = n.children() {
            if let Some(l) = l.as_deref() {
                stack.push(l);
            }
            if let Some(r) = r.as_deref() {
                stack.push(r);
            }
        }
    }
}

/// Number of *distinct* nodes reachable from any of `roots` (shared nodes
/// counted once). A leaf block counts as one node regardless of how many
/// entries it packs.
pub fn unique_nodes<S: AugSpec, B: Balance>(roots: &[&Tree<S, B>]) -> usize {
    let mut seen = HashSet::new();
    let mut nodes = Vec::new();
    for t in roots {
        collect(t, &mut seen, &mut nodes);
    }
    seen.len()
}

/// Approximate heap footprint, in bytes, of everything reachable from
/// `roots`: for each distinct node, the node itself + the two `Arc`
/// refcount words + (for leaves) the boxed entry array. Shared nodes are
/// counted once, which is exactly what makes multi-version stores cheap —
/// N snapshots of similar maps cost barely more than one.
/// (Used by `pam-store`'s stats surface.)
pub fn reachable_bytes<S: AugSpec, B: Balance>(roots: &[&Tree<S, B>]) -> usize {
    let mut seen = HashSet::new();
    let mut nodes = Vec::new();
    for t in roots {
        collect(t, &mut seen, &mut nodes);
    }
    nodes
        .iter()
        .map(|n| {
            let base = node_size::<S, B>() + 2 * std::mem::size_of::<usize>();
            match n.as_leaf() {
                Some(l) => base + std::mem::size_of_val(l.entries()),
                None => base,
            }
        })
        .sum()
}

/// How many of `result`'s nodes are shared with (reachable from) `inputs`?
///
/// `unique - shared` is the number of freshly allocated nodes the
/// operation producing `result` had to create.
pub fn shared_with<S: AugSpec, B: Balance>(
    result: &Tree<S, B>,
    inputs: &[&Tree<S, B>],
) -> (usize, usize) {
    let mut input_nodes = HashSet::new();
    let mut scratch = Vec::new();
    for t in inputs {
        collect(t, &mut input_nodes, &mut scratch);
    }
    let mut result_nodes = HashSet::new();
    let mut scratch2 = Vec::new();
    collect(result, &mut result_nodes, &mut scratch2);
    let shared = result_nodes
        .iter()
        .filter(|p| input_nodes.contains(*p))
        .count();
    (result_nodes.len(), shared)
}
