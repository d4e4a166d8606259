//! Point updates (`insert`, `update`, `delete`), defined "purely based
//! on JOIN, and hence independent of the balancing scheme" (§4,
//! Figure 2).
//!
//! Each is the batch recursion `update_sorted` on a one-element batch
//! held on the stack ([`parlay::OwnedSlice::one`], no allocation): the
//! descent follows the key to one block, merges it there (an
//! O(leaf_cap) edit), and re-joins the path, where the re-pack machinery
//! in [`crate::balance`] restores the fill invariants (an overflowing
//! block splits at its median; an underfull one merges into a neighbor).
//! A batch of one never forks.

use crate::balance::Balance;
use crate::node::Tree;
use crate::ops::build::{update_sorted, upsert};
use crate::spec::AugSpec;
use parlay::OwnedSlice;
use std::mem::MaybeUninit;

/// Insert `(k, v)`. If `k` is already present its value becomes
/// `combine(old, new)` — the paper's extra argument `h` to INSERT. Both
/// values are passed by value. O(log n).
pub fn insert<S, B, F>(t: Tree<S, B>, k: S::K, v: S::V, combine: &F) -> Tree<S, B>
where
    S: AugSpec,
    B: Balance,
    F: Fn(S::V, S::V) -> S::V + Sync,
{
    let mut slot = MaybeUninit::uninit();
    update_sorted(t, OwnedSlice::one(&mut slot, (k, v)), &|old, new| {
        upsert(old, new, combine)
    })
}

/// Update the value at `k` in place (structurally: via path copy):
/// `f(&old)` returning `None` deletes the entry, `Some(v)` replaces it.
/// No-op if `k` is absent. O(log n).
pub fn update<S, B, F>(t: Tree<S, B>, k: &S::K, f: &F) -> Tree<S, B>
where
    S: AugSpec,
    B: Balance,
    F: Fn(&S::V) -> Option<S::V> + Sync,
{
    let mut slot = MaybeUninit::uninit();
    update_sorted(
        t,
        OwnedSlice::one(&mut slot, (k.clone(), ())),
        &|old, ()| old.and_then(|v| f(&v)),
    )
}

/// Remove the entry at `k` (no-op if absent). O(log n).
pub fn delete<S: AugSpec, B: Balance>(t: Tree<S, B>, k: &S::K) -> Tree<S, B> {
    let mut slot = MaybeUninit::uninit();
    update_sorted(t, OwnedSlice::one(&mut slot, (k.clone(), ())), &|_, ()| {
        None
    })
}

#[cfg(test)]
mod tests {
    use crate::spec::SumAug;
    use crate::AugMap;

    type M = AugMap<SumAug<u64, u64>>;

    #[test]
    fn insert_into_empty_then_delete_back() {
        let mut m = M::new();
        m.insert(5, 50);
        assert_eq!(m.len(), 1);
        m.remove(&5);
        assert!(m.is_empty());
        m.remove(&5); // no-op on empty
        assert!(m.is_empty());
    }

    #[test]
    fn insert_with_combine_receives_old_then_new() {
        let mut m = M::singleton(1, 7);
        m.insert_with(1, 2, |old, new| old * 100 + new);
        assert_eq!(m.get(&1), Some(&702));
    }

    #[test]
    fn ascending_descending_insertions_stay_balanced() {
        let mut m = M::new();
        for i in 0..2000u64 {
            m.insert(i, i);
        }
        for i in (2000..4000u64).rev() {
            m.insert(i, i);
        }
        m.check_invariants().unwrap();
        assert_eq!(m.len(), 4000);
    }

    #[test]
    fn interleaved_insert_delete_keeps_fill_invariants() {
        let mut m = M::new();
        for i in 0..1000u64 {
            m.insert((i * 7919) % 1000, i);
        }
        m.check_invariants().unwrap();
        for i in 0..500u64 {
            m.remove(&((i * 13) % 1000));
        }
        m.check_invariants().unwrap();
        for i in 0..1000u64 {
            m.update(&i, |v| if v % 2 == 0 { Some(v + 1) } else { None });
        }
        m.check_invariants().unwrap();
    }
}
