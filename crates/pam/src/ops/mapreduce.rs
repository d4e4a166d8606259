//! `mapReduce`, structure-preserving `map_values`, and parallel flattening.

use crate::balance::join_tree;
use crate::node::{size, EntryOwned, Node, Tree};
use crate::spec::AugSpec;
use parlay::{granularity, par2_if, par_fill};
use std::mem::MaybeUninit;

/// The paper's `mapReduce(g', f', I', m)`: apply `map` to every entry and
/// fold the results with the associative `reduce` (identity `id`).
/// Linear work, O(log n) span.
pub fn map_reduce<S, T, M, R>(t: &Tree<S>, map: &M, reduce: &R, id: T) -> T
where
    S: AugSpec,
    T: Send,
    M: Fn(&S::K, &S::V) -> T + Sync,
    R: Fn(T, T) -> T + Sync,
{
    match rec(t, map, reduce) {
        Some(v) => v,
        None => id,
    }
}

fn rec<S, T, M, R>(t: &Tree<S>, map: &M, reduce: &R) -> Option<T>
where
    S: AugSpec,
    T: Send,
    M: Fn(&S::K, &S::V) -> T + Sync,
    R: Fn(T, T) -> T + Sync,
{
    let n = t.as_deref()?;
    match n {
        Node::Leaf(l) => {
            // sequential in-order fold over the block
            let mut it = l.entries().iter();
            let first = it.next().expect("leaf blocks are never empty");
            let mut acc = map(&first.key, &first.val);
            for e in it {
                acc = reduce(acc, map(&e.key, &e.val));
            }
            Some(acc)
        }
        Node::Internal(x) => {
            let mid = map(&x.key, &x.val);
            let (l, r) = par2_if(
                x.size > granularity(),
                || rec(&x.left, map, reduce),
                || rec(&x.right, map, reduce),
            );
            let lm = match l {
                Some(l) => reduce(l, mid),
                None => mid,
            };
            Some(match r {
                Some(r) => reduce(lm, r),
                None => lm,
            })
        }
    }
}

/// Visit every entry in key order, sequentially. This is the streaming
/// export primitive (checkpoint writers, serializers): no intermediate
/// vector, no iterator stack churn — one in-order recursion whose depth
/// is the tree height, emitting whole leaf blocks with a tight loop.
pub fn for_each<'a, S, F>(t: &'a Tree<S>, f: &mut F)
where
    S: AugSpec,
    F: FnMut(&'a S::K, &'a S::V),
{
    if let Some(n) = t.as_deref() {
        match n {
            Node::Leaf(l) => {
                for e in l.entries() {
                    f(&e.key, &e.val);
                }
            }
            Node::Internal(x) => {
                for_each(&x.left, f);
                f(&x.key, &x.val);
                for_each(&x.right, f);
            }
        }
    }
}

/// Rebuild the map with values transformed by `f`, preserving the tree
/// *shape* (sizes are all the balance invariant reads) while recomputing
/// the augmented values under the target spec `S2`. The key type and order
/// must be unchanged. Linear work, O(log n) span.
pub fn map_values<S, S2, F>(t: &Tree<S>, f: &F) -> Tree<S2>
where
    S: AugSpec,
    S2: AugSpec<K = S::K>,
    F: Fn(&S::K, &S::V) -> S2::V + Sync,
{
    let n: &Node<S> = t.as_deref()?;
    match n {
        Node::Leaf(l) => {
            let entries = l
                .entries()
                .iter()
                .map(|e| EntryOwned {
                    key: e.key.clone(),
                    val: f(&e.key, &e.val),
                })
                .collect();
            Some(Node::make_leaf(entries))
        }
        Node::Internal(x) => {
            let (l, r) = par2_if(
                x.size > granularity(),
                || map_values::<S, S2, F>(&x.left, f),
                || map_values::<S, S2, F>(&x.right, f),
            );
            Some(Node::make(
                l,
                EntryOwned {
                    key: x.key.clone(),
                    val: f(&x.key, &x.val),
                },
                r,
            ))
        }
    }
}

/// Filter-and-map in one pass: rebuild the map keeping only entries for
/// which `f` returns `Some`, with transformed values under spec `S2`.
/// Linear work, O(log² n) span (join-based, like `filter`).
pub fn filter_map_values<S, S2, F>(t: &Tree<S>, f: &F) -> Tree<S2>
where
    S: AugSpec,
    S2: AugSpec<K = S::K>,
    F: Fn(&S::K, &S::V) -> Option<S2::V> + Sync,
{
    let n: &Node<S> = t.as_deref()?;
    match n {
        Node::Leaf(l) => {
            let entries: Vec<EntryOwned<S2>> = l
                .entries()
                .iter()
                .filter_map(|e| {
                    f(&e.key, &e.val).map(|val| EntryOwned {
                        key: e.key.clone(),
                        val,
                    })
                })
                .collect();
            crate::balance::from_sorted_entries::<S2>(entries)
        }
        Node::Internal(x) => {
            let kept = f(&x.key, &x.val);
            let (l, r) = par2_if(
                x.size > granularity(),
                || filter_map_values::<S, S2, F>(&x.left, f),
                || filter_map_values::<S, S2, F>(&x.right, f),
            );
            match kept {
                Some(val) => join_tree(
                    l,
                    EntryOwned {
                        key: x.key.clone(),
                        val,
                    },
                    r,
                ),
                None => crate::ops::split::join2(l, r),
            }
        }
    }
}

/// Flatten to a sorted `Vec<(K, V)>` in parallel.
pub fn to_vec<S: AugSpec>(t: &Tree<S>) -> Vec<(S::K, S::V)> {
    flatten(t, &|k, v| (k.clone(), v.clone()))
}

/// The keys, in order, in parallel.
pub fn keys<S: AugSpec>(t: &Tree<S>) -> Vec<S::K> {
    flatten(t, &|k, _| k.clone())
}

/// The values, in key order, in parallel.
pub fn values<S: AugSpec>(t: &Tree<S>) -> Vec<S::V> {
    flatten(t, &|_, v| v.clone())
}

fn flatten<S, T, P>(t: &Tree<S>, project: &P) -> Vec<T>
where
    S: AugSpec,
    T: Send,
    P: Fn(&S::K, &S::V) -> T + Sync,
{
    // SAFETY: `out` has `size(t)` slots and `fill_with` writes one per
    // entry of `t`, each at the entry's rank
    unsafe { par_fill(size(t), |out| fill_with(t, out, project)) }
}

/// Write `project` of every entry of `t` into `out` (one slot per entry,
/// in key order), forking over large subtrees.
fn fill_with<S, T, P>(t: &Tree<S>, out: &mut [MaybeUninit<T>], project: &P)
where
    S: AugSpec,
    T: Send,
    P: Fn(&S::K, &S::V) -> T + Sync,
{
    if let Some(n) = t.as_deref() {
        match n {
            Node::Leaf(l) => {
                for (slot, e) in out.iter_mut().zip(l.entries()) {
                    *slot = MaybeUninit::new(project(&e.key, &e.val));
                }
            }
            Node::Internal(x) => {
                let ls = size(&x.left);
                let (lo, rest) = out.split_at_mut(ls);
                let (mid, ro) = rest.split_at_mut(1);
                mid[0] = MaybeUninit::new(project(&x.key, &x.val));
                par2_if(
                    x.size > granularity(),
                    || fill_with(&x.left, lo, project),
                    || fill_with(&x.right, ro, project),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::spec::{NoAug, SumAug};
    use crate::AugMap;

    type M = AugMap<SumAug<u64, u64>>;

    #[test]
    fn map_reduce_identity_on_empty() {
        assert_eq!(M::new().map_reduce(|_, &v| v, |a, b| a + b, 42), 42);
    }

    #[test]
    fn map_reduce_non_commutative_reduce_sees_in_order() {
        // concatenate keys: requires in-order association
        let m: AugMap<NoAug<u8, u8>> = AugMap::build(vec![(3, 0), (1, 0), (2, 0)]);
        let s = m.map_reduce(
            |k, _| k.to_string(),
            |a, b| format!("{a}{b}"),
            String::new(),
        );
        assert_eq!(s, "123");
    }

    #[test]
    fn map_reduce_in_order_across_blocks() {
        // long enough to span many leaf blocks
        let m: AugMap<NoAug<u32, u32>> = AugMap::build((0..200u32).map(|i| (i, 0)).collect());
        let s = m.map_reduce(|k, _| format!("{k},"), |a, b| a + &b, String::new());
        let want: String = (0..200u32).map(|k| format!("{k},")).collect();
        assert_eq!(s, want);
    }

    #[test]
    fn map_values_preserves_shape_and_recomputes_aug() {
        let m = M::build((0..300u64).map(|i| (i, 1)).collect());
        let doubled: M = m.map_values(|_, &v| v * 2);
        doubled.check_invariants().unwrap();
        assert_eq!(doubled.aug_val(), 600);
        assert_eq!(doubled.len(), 300);
    }

    #[test]
    fn filter_map_values_keeps_invariants() {
        let m = M::build((0..500u64).map(|i| (i, i)).collect());
        let odd: M = m.filter_map_values(|_, &v| (v % 2 == 1).then_some(v * 10));
        odd.check_invariants().unwrap();
        assert_eq!(odd.len(), 250);
        assert_eq!(odd.get(&3), Some(&30));
        assert_eq!(odd.get(&4), None);
    }

    #[test]
    fn to_vec_keys_values_agree() {
        let m = M::build(vec![(5, 50), (1, 10), (9, 90)]);
        assert_eq!(m.to_vec(), vec![(1, 10), (5, 50), (9, 90)]);
        assert_eq!(m.keys(), vec![1, 5, 9]);
        assert_eq!(m.values(), vec![10, 50, 90]);
        assert!(M::new().to_vec().is_empty());
    }
}
