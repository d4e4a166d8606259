//! Best-first top-k selection guided by the augmented values.
//!
//! When the combine function is a *maximum* over some ordered score (or
//! any `f` with `f(a,b) ∈ {a,b}` and `f(a,b) >= a, b`), every node's
//! augmented value upper-bounds the scores below it. A best-first search
//! over subtree bounds then yields the k highest-scoring entries in
//! O((k + log n) log k) heap operations — independent of the map size
//! for small `k`.
//!
//! This is the generic engine behind the inverted index's "top 10
//! documents by weight" query (§5.3): the paper stores the max weight as
//! the augmentation precisely to make this search possible. Expanding a
//! leaf block scores its (at most `leaf_cap`) entries individually.

use crate::node::{Node, Tree};
use crate::spec::AugSpec;
use std::collections::BinaryHeap;

enum Item<'a, S: AugSpec> {
    Sub(&'a Node<S>),
    Entry(&'a S::K, &'a S::V),
}

struct Ranked<'a, S: AugSpec, W: Ord> {
    score: W,
    item: Item<'a, S>,
}

impl<S: AugSpec, W: Ord> PartialEq for Ranked<'_, S, W> {
    fn eq(&self, other: &Self) -> bool {
        self.score == other.score
    }
}
impl<S: AugSpec, W: Ord> Eq for Ranked<'_, S, W> {}
impl<S: AugSpec, W: Ord> PartialOrd for Ranked<'_, S, W> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<S: AugSpec, W: Ord> Ord for Ranked<'_, S, W> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.score.cmp(&other.score)
    }
}

/// The `k` entries with the highest scores, best first.
///
/// `bound(aug)` must upper-bound `score(k, v)` over every entry of the
/// subtree whose augmented value is `aug` — which holds by construction
/// when the augmentation is the max of the scores (e.g. [`crate::MaxAug`]
/// with `bound = identity`, `score = value`).
pub fn top_k_by<'a, S, W>(
    t: &'a Tree<S>,
    k: usize,
    bound: impl Fn(&S::A) -> W,
    score: impl Fn(&S::K, &S::V) -> W,
) -> Vec<(&'a S::K, &'a S::V)>
where
    S: AugSpec,
    W: Ord,
{
    let mut out = Vec::with_capacity(k.min(crate::node::size(t)));
    let mut heap: BinaryHeap<Ranked<'a, S, W>> = BinaryHeap::new();
    if let Some(root) = t.as_deref() {
        heap.push(Ranked {
            score: bound(root.aug()),
            item: Item::Sub(root),
        });
    }
    while out.len() < k {
        match heap.pop() {
            None => break,
            Some(Ranked {
                item: Item::Entry(key, val),
                ..
            }) => out.push((key, val)),
            Some(Ranked {
                item: Item::Sub(n), ..
            }) => match n {
                Node::Leaf(l) => {
                    for e in l.entries() {
                        heap.push(Ranked {
                            score: score(&e.key, &e.val),
                            item: Item::Entry(&e.key, &e.val),
                        });
                    }
                }
                Node::Internal(x) => {
                    heap.push(Ranked {
                        score: score(&x.key, &x.val),
                        item: Item::Entry(&x.key, &x.val),
                    });
                    if let Some(l) = x.left.as_deref() {
                        heap.push(Ranked {
                            score: bound(l.aug()),
                            item: Item::Sub(l),
                        });
                    }
                    if let Some(r) = x.right.as_deref() {
                        heap.push(Ranked {
                            score: bound(r.aug()),
                            item: Item::Sub(r),
                        });
                    }
                }
            },
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::MaxAug;
    use crate::AugMap;

    #[test]
    fn top_k_matches_sorting() {
        let pairs: Vec<(u64, u64)> = (0..5000u64)
            .map(|i| (i, (i.wrapping_mul(0x9e3779b97f4a7c15)) >> 40))
            .collect();
        let m: AugMap<MaxAug<u64, u64>> = AugMap::build(pairs.clone());
        let got = top_k_by(m.root(), 50, |&a| a, |_, &v| v);
        let mut sorted = pairs.clone();
        sorted.sort_by_key(|&(_, v)| std::cmp::Reverse(v));
        let got_scores: Vec<u64> = got.iter().map(|&(_, &v)| v).collect();
        let want_scores: Vec<u64> = sorted[..50].iter().map(|&(_, v)| v).collect();
        assert_eq!(got_scores, want_scores);
    }

    #[test]
    fn k_larger_than_map() {
        let m: AugMap<MaxAug<u64, u64>> = AugMap::build(vec![(1, 10), (2, 30), (3, 20)]);
        let got = top_k_by(m.root(), 10, |&a| a, |_, &v| v);
        let scores: Vec<u64> = got.iter().map(|&(_, &v)| v).collect();
        assert_eq!(scores, vec![30, 20, 10]);
    }

    #[test]
    fn empty_map() {
        let m: AugMap<MaxAug<u64, u64>> = AugMap::new();
        assert!(top_k_by(m.root(), 5, |&a| a, |_, &v| v).is_empty());
    }
}
