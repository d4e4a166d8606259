//! Invariant checking for tests and property tests.
//!
//! [`check_tree`] verifies, for every node:
//!
//! 1. **order** — in-order keys strictly increase under `S::compare`;
//! 2. **size** — the cached subtree size is correct;
//! 3. **augmentation** — the stored augmented value equals
//!    `f(g(k1,v1), ..., g(kn,vn))` recomputed from scratch;
//! 4. **balance** — the children of every internal node are "like"
//!    (neither outweighs the other beyond `1 − α`; see [`crate::balance`]);
//! 5. **leaf fill** — blocks are non-empty, at most `LEAF_CAP` long, and
//!    non-root blocks are at least half full; for `LEAF_CAP >= 2` a
//!    subtree of size `<= LEAF_CAP` must *be* a single block (internal
//!    nodes only exist above block capacity).

use crate::balance::{like, weight, Balance};
use crate::node::{Node, Tree};
use crate::spec::AugSpec;
use std::cmp::Ordering;

/// Check all structural invariants of `t`; returns a description of the
/// first violation found.
pub fn check_tree<S, B>(t: &Tree<S, B>) -> Result<(), String>
where
    S: AugSpec,
    S::A: PartialEq + std::fmt::Debug,
    B: Balance,
{
    // order
    let mut prev: Option<&S::K> = None;
    for (k, _) in crate::iter::Iter::new(t) {
        if let Some(p) = prev {
            if S::compare(p, k) != Ordering::Less {
                return Err("keys not strictly increasing".into());
            }
        }
        prev = Some(k);
    }
    // size / aug / balance / fill
    rec(t, true).map(|_| ())
}

fn rec<S, B>(t: &Tree<S, B>, is_root: bool) -> Result<(usize, Option<S::A>), String>
where
    S: AugSpec,
    S::A: PartialEq + std::fmt::Debug,
    B: Balance,
{
    let n: &Node<S, B> = match t.as_deref() {
        None => return Ok((0, None)),
        Some(n) => n,
    };
    let cap = B::LEAF_CAP;
    match n {
        Node::Leaf(l) => {
            let len = l.entries().len();
            if len == 0 {
                return Err("empty leaf block".into());
            }
            if cap <= 1 && len != 1 {
                return Err(format!("leaf block of {len} entries with LEAF_CAP 1"));
            }
            if cap >= 2 {
                if len > cap {
                    return Err(format!("leaf block overfull: {len} > cap {cap}"));
                }
                if !is_root && len < cap / 2 {
                    return Err(format!(
                        "non-root leaf block underfull: {len} < cap/2 = {}",
                        cap / 2
                    ));
                }
            }
            let expect = S::fold_block(l.entries().iter().map(|e| (&e.key, &e.val)));
            if *l.aug() != expect {
                return Err(format!(
                    "leaf augmented value mismatch: stored {:?} != recomputed {:?}",
                    l.aug(),
                    expect
                ));
            }
            Ok((len, Some(l.aug().clone())))
        }
        Node::Internal(x) => {
            if cap >= 2 && x.size <= cap {
                return Err(format!(
                    "internal node of size {} (<= cap {cap}) should be a leaf block",
                    x.size
                ));
            }
            let (ls, laug) = rec(&x.left, false)?;
            let (rs, raug) = rec(&x.right, false)?;
            if x.size != ls + rs + 1 {
                return Err(format!(
                    "size mismatch: stored {} != {}",
                    x.size,
                    ls + rs + 1
                ));
            }
            let mid = S::base(&x.key, &x.val);
            let expect = match (laug, raug) {
                (None, None) => mid,
                (Some(l), None) => S::combine(&l, &mid),
                (None, Some(r)) => S::combine(&mid, &r),
                (Some(l), Some(r)) => S::combine(&l, &S::combine(&mid, &r)),
            };
            if x.aug != expect {
                return Err(format!(
                    "augmented value mismatch: stored {:?} != recomputed {:?}",
                    x.aug, expect
                ));
            }
            if !like(weight(&x.left), weight(&x.right)) {
                return Err(format!(
                    "balance invariant violated: child sizes {ls} and {rs} are not like"
                ));
            }
            Ok((x.size, Some(x.aug.clone())))
        }
    }
}

#[cfg(test)]
mod tests {
    //! `check_tree` is the reference every oracle trusts, so each arm is
    //! shown to fire on a hand-built tree that breaks exactly one rule.
    use super::*;
    use crate::balance::{from_sorted_entries, WeightBalancedCap};
    use crate::node::EntryOwned;
    use crate::spec::SumAug;
    use std::sync::Arc;

    type S = SumAug<u64, u64>;
    type N<const CAP: usize> = Arc<Node<S, WeightBalancedCap<CAP>>>;

    fn pivot(k: u64) -> EntryOwned<S> {
        EntryOwned { key: k, val: k }
    }

    fn entries(keys: std::ops::Range<u64>) -> Vec<EntryOwned<S>> {
        keys.map(pivot).collect()
    }

    fn leaf<const CAP: usize>(keys: std::ops::Range<u64>) -> N<CAP> {
        Node::make_leaf(entries(keys))
    }

    fn err<const CAP: usize>(n: N<CAP>) -> String {
        check_tree(&Some(n)).expect_err("tree breaks an invariant")
    }

    #[test]
    fn accepts_what_join_builds() {
        for n in [0, 1, 2, 3, 9, 100] {
            let t = from_sorted_entries::<S, WeightBalancedCap<2>>(entries(0..n));
            assert_eq!(check_tree(&t), Ok(()), "n = {n}");
        }
    }

    #[test]
    fn rejects_unlike_children() {
        // weights 2 and 8: the right side holds 80 % > 1 - α
        let heavy = from_sorted_entries::<S, WeightBalancedCap<2>>(entries(2..9));
        let n = Node::make(Some(leaf(0..1)), pivot(1), heavy);
        assert!(err(n).starts_with("balance invariant violated"));
    }

    #[test]
    fn rejects_underfull_non_root_leaf() {
        let n: N<4> = Node::make(Some(leaf(0..4)), pivot(4), Some(leaf(5..6)));
        assert!(err(n).starts_with("non-root leaf block underfull: 1 < cap/2 = 2"));
        // the same block is fine as a root
        assert_eq!(check_tree(&Some(leaf::<4>(5..6))), Ok(()));
    }

    #[test]
    fn rejects_internal_node_that_fits_in_a_block() {
        let n: N<4> = Node::make(Some(leaf(0..2)), pivot(2), Some(leaf(3..4)));
        assert!(err(n).starts_with("internal node of size 4 (<= cap 4)"));
    }

    #[test]
    fn rejects_stale_aug_on_leaf_and_internal() {
        let mut n: N<4> = leaf(0..3);
        let Some(Node::Leaf(l)) = Arc::get_mut(&mut n) else {
            unreachable!()
        };
        l.aug += 1;
        assert!(err(n).starts_with("leaf augmented value mismatch: stored 4 != recomputed 3"));

        let mut n: N<2> = Node::make(Some(leaf(0..2)), pivot(2), Some(leaf(3..5)));
        assert_eq!(check_tree(&Some(n.clone())), Ok(()));
        let Some(Node::Internal(x)) = Arc::get_mut(&mut n) else {
            unreachable!()
        };
        x.aug += 1;
        assert!(err(n).starts_with("augmented value mismatch: stored 11 != recomputed 10"));
    }

    #[test]
    fn rejects_stale_size() {
        let mut n: N<2> = Node::make(Some(leaf(0..2)), pivot(2), Some(leaf(3..5)));
        let Some(Node::Internal(x)) = Arc::get_mut(&mut n) else {
            unreachable!()
        };
        x.size = 6;
        assert!(err(n).starts_with("size mismatch: stored 6 != 5"));
    }

    #[test]
    fn rejects_out_of_order_keys() {
        // inside a block, and between a pivot and its right subtree
        let block: N<4> = Node::make_leaf(vec![pivot(2), pivot(1)]);
        assert_eq!(err(block), "keys not strictly increasing");
        let n: N<2> = Node::make(Some(leaf(0..2)), pivot(3), Some(leaf(3..5)));
        assert_eq!(err(n), "keys not strictly increasing");
    }
}
