//! # 2D range trees as nested augmented maps (paper §5.2)
//!
//! A range tree answers 2D *range-sum* queries ("total weight of points
//! inside an axis-aligned rectangle") in O(log² n) and reporting queries
//! in O(k + log² n), after O(n log n) construction.
//!
//! The paper's formulation, reproduced exactly:
//!
//! * the **outer map** `R_O` keys points by `(x, y)` and its *augmented
//!   value is itself an inner augmented map*;
//! * the **inner map** `R_I` keys the same points by `(y, x)` and is
//!   augmented with the sum of weights;
//! * the outer **base** function is `singleton`, the outer **combine** is
//!   `union` — so every outer subtree's augmented value is an inner map
//!   of all points below it, sorted by `y`.
//!
//! Because PAM maps are persistent, the `union` used as a combine
//! function shares structure with the child maps instead of mutating them
//! — the paper calls this out as "important in guaranteeing the
//! correctness of the algorithm". A window query is `aug_project` on the
//! outer tree, projecting each of the O(log n) canonical inner maps to a
//! y-range weight sum (`aug_range`) and adding them up.

#![warn(missing_docs)]

use pam::{AugMap, AugSpec, SumAug};
use std::cmp::Ordering;

/// Coordinate type (fixed to `u32` as in our workloads; the weight is `u64`).
pub type Coord = u32;
/// Weight type.
pub type Weight = u64;

/// Inner map: points keyed `(y, x)`, augmented with the weight sum.
pub type InnerSpec = SumAug<(Coord, Coord), Weight>;
/// The inner augmented map type (one per outer subtree).
pub type InnerMap = AugMap<InnerSpec>;

/// Outer map specification: keys `(x, y)`, values are weights, augmented
/// value is the inner map of the whole subtree.
pub struct OuterSpec;

impl AugSpec for OuterSpec {
    type K = (Coord, Coord);
    type V = Weight;
    type A = InnerMap;
    #[inline]
    fn compare(a: &(Coord, Coord), b: &(Coord, Coord)) -> Ordering {
        a.cmp(b)
    }
    fn identity() -> InnerMap {
        AugMap::new()
    }
    fn base(k: &(Coord, Coord), v: &Weight) -> InnerMap {
        // store the point keyed by (y, x) with its weight
        AugMap::singleton((k.1, k.0), *v)
    }
    fn combine(a: &InnerMap, b: &InnerMap) -> InnerMap {
        // persistent union: neither input is modified (O(1) root clones)
        a.clone().union_with(b.clone(), |x, y| x + y)
    }
    fn fold_block<'a>(items: impl Iterator<Item = (&'a (Coord, Coord), &'a Weight)>) -> InnerMap {
        // a leaf's inner map in one bulk build (a block holds distinct
        // points, so re-keyed by (y, x) they stay distinct), not one
        // union per entry
        AugMap::build(items.map(|(&(x, y), &w)| ((y, x), w)).collect())
    }
}

/// A static-build, persistent 2D range tree.
///
/// Build once (in parallel), query many times (possibly from many
/// threads: `clone()` is an O(1) snapshot). Point insertions are
/// intentionally not offered: maintaining the nested augmentation on a
/// single insertion costs Θ(n) (the paper likewise evaluates construction
/// and queries).
pub struct RangeTree {
    outer: AugMap<OuterSpec>,
}

impl Clone for RangeTree {
    /// O(1) snapshot.
    fn clone(&self) -> Self {
        RangeTree {
            outer: self.outer.clone(),
        }
    }
}

impl RangeTree {
    /// Build from weighted points `(x, y, w)`; duplicate `(x, y)` points
    /// have their weights summed. O(n log n) work.
    pub fn build(points: Vec<(Coord, Coord, Weight)>) -> Self {
        let items: Vec<((Coord, Coord), Weight)> =
            points.into_iter().map(|(x, y, w)| ((x, y), w)).collect();
        RangeTree {
            outer: AugMap::build_with(items, |a, b| a + b),
        }
    }

    /// Number of distinct points.
    pub fn len(&self) -> usize {
        self.outer.len()
    }

    /// Is the tree empty?
    pub fn is_empty(&self) -> bool {
        self.outer.is_empty()
    }

    /// Sum of weights of points with `xl <= x <= xr` and `yl <= y <= yr`
    /// — the paper's QUERY: `augProject(g', +, r_O, x_l, x_r)` with
    /// `g'(r_I) = augRange(r_I, y_l, y_r)`. O(log² n).
    pub fn query_sum(&self, xl: Coord, xr: Coord, yl: Coord, yr: Coord) -> Weight {
        if xl > xr || yl > yr {
            return 0;
        }
        self.outer.aug_project(
            &(xl, Coord::MIN),
            &(xr, Coord::MAX),
            |inner| inner.aug_range(&(yl, Coord::MIN), &(yr, Coord::MAX)),
            |a, b| a + b,
            0,
        )
    }

    /// Number of points inside the window (weights ignored). O(log² n).
    pub fn query_count(&self, xl: Coord, xr: Coord, yl: Coord, yr: Coord) -> usize {
        if xl > xr || yl > yr {
            return 0;
        }
        self.outer.aug_project(
            &(xl, Coord::MIN),
            &(xr, Coord::MAX),
            |inner| inner.range(&(yl, Coord::MIN), &(yr, Coord::MAX)).len(),
            |a, b| a + b,
            0,
        )
    }

    /// All points inside the window, as `(x, y, w)` — the paper's "Q-All"
    /// (O(k + log² n)): extract the y-range of each canonical inner map.
    pub fn query_points(
        &self,
        xl: Coord,
        xr: Coord,
        yl: Coord,
        yr: Coord,
    ) -> Vec<(Coord, Coord, Weight)> {
        if xl > xr || yl > yr {
            return Vec::new();
        }
        let mut pts: Vec<(Coord, Coord, Weight)> = self.outer.aug_project(
            &(xl, Coord::MIN),
            &(xr, Coord::MAX),
            |inner| {
                inner
                    .range(&(yl, Coord::MIN), &(yr, Coord::MAX))
                    .to_vec()
                    .into_iter()
                    .map(|((y, x), w)| (x, y, w))
                    .collect::<Vec<_>>()
            },
            |mut a, mut b| {
                a.append(&mut b);
                a
            },
            Vec::new(),
        );
        pts.sort_unstable();
        pts
    }

    /// Borrow the outer augmented map (stats/tests).
    pub fn outer(&self) -> &AugMap<OuterSpec> {
        &self.outer
    }

    /// Validate invariants of the outer tree *and* every inner map
    /// (expensive; testing helper).
    pub fn check_invariants(&self) -> Result<(), String> {
        check_outer(self.outer.root())
    }
}

fn check_outer(t: &pam::Tree<OuterSpec, pam::WeightBalanced>) -> Result<(), String> {
    // The generic checker recomputes outer augmented values (inner maps)
    // and compares them entry-wise via PartialEq on AugMap.
    pam::validate::check_tree(t)?;
    // Additionally validate each inner map's own invariants.
    fn rec(t: &pam::Tree<OuterSpec, pam::WeightBalanced>) -> Result<(), String> {
        if let Some(n) = t.as_deref() {
            n.aug().check_invariants()?;
            if let Some((l, r)) = n.children() {
                rec(l)?;
                rec(r)?;
            }
        }
        Ok(())
    }
    rec(t)
}

impl std::fmt::Debug for RangeTree {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "RangeTree {{ points: {} }}", self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn brute_sum(
        pts: &[(Coord, Coord, Weight)],
        xl: Coord,
        xr: Coord,
        yl: Coord,
        yr: Coord,
    ) -> Weight {
        pts.iter()
            .filter(|&&(x, y, _)| xl <= x && x <= xr && yl <= y && y <= yr)
            .map(|&(_, _, w)| w)
            .sum()
    }

    #[test]
    fn tiny_example() {
        let t = RangeTree::build(vec![(1, 1, 10), (2, 5, 20), (5, 2, 30), (7, 7, 40)]);
        assert_eq!(t.query_sum(0, 10, 0, 10), 100);
        assert_eq!(t.query_sum(1, 2, 1, 5), 30);
        assert_eq!(t.query_sum(3, 8, 0, 3), 30);
        assert_eq!(t.query_count(1, 2, 1, 5), 2);
        assert_eq!(t.query_points(1, 2, 1, 5), vec![(1, 1, 10), (2, 5, 20)]);
        assert_eq!(t.query_sum(4, 3, 0, 10), 0); // inverted window
    }

    #[test]
    fn duplicate_points_sum_weights() {
        let t = RangeTree::build(vec![(3, 3, 5), (3, 3, 7)]);
        assert_eq!(t.len(), 1);
        assert_eq!(t.query_sum(3, 3, 3, 3), 12);
    }

    #[test]
    fn matches_bruteforce() {
        let pts = workloads::random_points(3000, 13, 1 << 10);
        // dedup points the same way build does (sum weights)
        let mut dedup = std::collections::BTreeMap::new();
        for &(x, y, w) in &pts {
            *dedup.entry((x, y)).or_insert(0u64) += w;
        }
        let flat: Vec<(Coord, Coord, Weight)> =
            dedup.iter().map(|(&(x, y), &w)| (x, y, w)).collect();
        let t = RangeTree::build(pts.clone());
        t.check_invariants().unwrap();
        assert_eq!(t.len(), flat.len());
        for (i, &(xl, xr, yl, yr)) in workloads::points::query_windows(40, 5, 1 << 10, 0.2)
            .iter()
            .enumerate()
        {
            assert_eq!(
                t.query_sum(xl, xr, yl, yr),
                brute_sum(&flat, xl, xr, yl, yr),
                "window {i}"
            );
            let want: Vec<(Coord, Coord, Weight)> = flat
                .iter()
                .copied()
                .filter(|&(x, y, _)| xl <= x && x <= xr && yl <= y && y <= yr)
                .collect();
            assert_eq!(t.query_count(xl, xr, yl, yr), want.len());
            assert_eq!(t.query_points(xl, xr, yl, yr), want);
        }
    }

    #[test]
    fn fold_block_equals_the_pairwise_fold_of_base() {
        // a leaf-sized run in (x, y) order, whose (y, x) order differs
        let run: Vec<((Coord, Coord), Weight)> = (0..127u32)
            .map(|i| ((i / 3, (i * 37) % 101), u64::from(i) + 1))
            .collect();
        for len in [1, 2, 64, run.len()] {
            let items = run[..len].iter().map(|(k, w)| (k, w));
            let bulk = OuterSpec::fold_block(items);
            // the trait's default: `combine` folded over the bases
            let want = run[..len]
                .iter()
                .map(|(k, w)| OuterSpec::base(k, w))
                .reduce(|a, b| OuterSpec::combine(&a, &b))
                .expect("a non-empty run");
            assert_eq!(bulk.to_vec(), want.to_vec(), "{len} entries");
            bulk.check_invariants().unwrap();
        }
        assert!(OuterSpec::fold_block(std::iter::empty()).is_empty());
    }

    #[test]
    fn snapshots_are_independent() {
        let t = RangeTree::build(vec![(1, 1, 1), (2, 2, 2)]);
        let snap = t.clone();
        drop(t);
        assert_eq!(snap.query_sum(0, 5, 0, 5), 3);
    }

    #[test]
    fn empty_tree_queries() {
        let t = RangeTree::build(vec![]);
        assert!(t.is_empty());
        assert_eq!(t.query_sum(0, 100, 0, 100), 0);
        assert_eq!(t.query_points(0, 100, 0, 100), vec![]);
    }
}
