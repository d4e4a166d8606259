//! Persistence and node-sharing tests: the behaviour Table 4 of the paper
//! quantifies.

use pam::balance::leaf_cap;
use pam::spec::Capped;
use pam::stats::{node_size, shared_with, unique_nodes};
use pam::{AugMap, AugSpec, EntryOwned, NoAug, SumAug};

type Spec = SumAug<u64, u64>;
type M = AugMap<Spec>;

#[test]
fn snapshots_survive_heavy_mutation() {
    let mut m = M::build((0..10_000u64).map(|i| (i, i)).collect());
    let snap = m.clone();
    let snap_vec = snap.to_vec();
    for i in 0..5_000u64 {
        m.remove(&(i * 2));
        m.insert(1_000_000 + i, 1);
    }
    assert_eq!(snap.to_vec(), snap_vec);
    snap.check_invariants().unwrap();
    m.check_invariants().unwrap();
}

/// Union a map of `n` entries with one of `m`, and check the nodes the
/// output does not share with the larger input against the paper's cost
/// bound, O(m·log(n/m + 1)) (Table 3), taken over the tree's `n / cap`
/// blocks: `fresh ≤ 3·m·(log2(n/(m·cap) + 1) + 1)`. Over blocks, because
/// at 128 entries per block the whole larger tree is fewer nodes than
/// the bound over entries, which a union that copied everything would
/// then meet. (The paper's one-entry-per-node layout,
/// `Capped<Spec, 1>`, uses 0.53–0.55 of the bound on these inputs.)
fn check_union_fresh_nodes<S: AugSpec<K = u64, V = u64>>(n: u64, m: u64) {
    let big: AugMap<S> = AugMap::build((0..n).map(|i| (i * 2, 1)).collect());
    let step = 2 * n / m + 1;
    let small: AugMap<S> = AugMap::build((0..m).map(|i| (i * step, 1)).collect());
    let out = big.clone().union_with(small, |a, b| a + b);
    let (total, shared) = shared_with(out.root(), &[big.root()]);
    // with blocked leaves a node covers up to a block of entries, so the
    // node count is far below the entry count
    assert!(
        total <= out.len(),
        "{total} nodes for {} entries",
        out.len()
    );
    let cap = leaf_cap::<S>();
    let blocks_per_key = n as f64 / (m as f64 * cap as f64);
    let bound = 3.0 * m as f64 * ((blocks_per_key + 1.0).log2() + 1.0);
    let fresh = total - shared;
    assert!(
        fresh as f64 <= bound,
        "{fresh} of {total} nodes fresh, over 3·m·(log2(n/(m·cap) + 1) + 1) = {bound:.0} \
         (n = {n}, m = {m}, cap {cap})"
    );
}

#[test]
fn union_shares_nodes_with_larger_input() {
    // Table 4's headline: union of 10^8 with 10^5 re-uses ~half the
    // larger tree's nodes. Shape check at 10^5 vs 10 and 10^2 spread
    // over the whole key range, at the default's capacity for these
    // entries (128) and at the owning entries' 32.
    for m in [10, 100] {
        check_union_fresh_nodes::<Spec>(100_000, m);
        check_union_fresh_nodes::<Capped<Spec, 32>>(100_000, m);
    }
}

#[test]
fn equal_size_union_shares_little() {
    // When the inputs interleave fully, nearly every node is rebuilt.
    let a = M::build((0..20_000u64).map(|i| (i * 2, 1)).collect());
    let b = M::build((0..20_000u64).map(|i| (i * 2 + 1, 1)).collect());
    let (total, shared) = shared_with(
        a.clone().union_with(b.clone(), |x, y| x + y).root(),
        &[a.root(), b.root()],
    );
    // interleaving forces most of the output to be fresh
    assert!(
        shared * 2 < total,
        "expected <50% sharing, got {shared}/{total}"
    );
}

#[test]
fn range_extraction_shares_with_source() {
    let m = M::build((0..50_000u64).map(|i| (i, i)).collect());
    let r = m.range(&10_000, &40_000);
    let (total, shared) = shared_with(r.root(), &[m.root()]);
    assert!(total <= r.len(), "{total} nodes for {} entries", r.len());
    // a contiguous range reuses all interior subtrees except the two
    // boundary spines
    assert!(shared * 10 > total * 9, "got {shared}/{total}");
}

#[test]
fn augmentation_space_overhead_matches_paper_shape() {
    // Paper: 48B vs 40B per node (+20%) for u64 keys/values.
    let with_aug = node_size::<SumAug<u64, u64>>();
    let without = node_size::<NoAug<u64, u64>>();
    assert_eq!(with_aug - without, 8, "aug adds exactly one u64");
    assert!(
        with_aug <= 64,
        "node should stay within a cache line: {with_aug}"
    );
}

#[test]
fn node_and_entry_layout_are_pinned() {
    // Measured at the commit before the balance metadata was deleted (its
    // `()` fields were zero-sized). The gate's `mem_bytes_per_entry` is a
    // function of these two numbers, so a layout change fails here first.
    assert_eq!(node_size::<SumAug<u64, u64>>(), 56);
    assert_eq!(std::mem::size_of::<EntryOwned<SumAug<u64, u64>>>(), 16);
}

#[test]
fn ptr_eq_detects_sharing() {
    let m = M::build((0..100u64).map(|i| (i, i)).collect());
    let snap = m.clone();
    assert!(m.ptr_eq(&snap));
    let changed = {
        let mut c = m.clone();
        c.insert(1000, 1);
        c
    };
    assert!(!m.ptr_eq(&changed));
}

#[test]
fn par_drop_releases_unique_tree() {
    let m = M::build((0..200_000u64).map(|i| (i, i)).collect());
    m.par_drop(); // must not deadlock/crash; Miri-style checks in CI
}

#[test]
fn unique_trees_mutate_without_copying_everything() {
    // With the reuse optimization, inserting into a uniquely-owned tree
    // allocates only the path; the reachable node count stays between
    // n / cap (all entries packed into full blocks) and n.
    let mut m = M::build((0..10_000u64).map(|i| (i, i)).collect());
    for i in 0..1000u64 {
        m.insert(20_000 + i, 1);
    }
    let nodes = unique_nodes(&[m.root()]);
    assert!(nodes <= m.len(), "{nodes} nodes for {} entries", m.len());
    assert!(
        nodes * leaf_cap::<Spec>() >= m.len(),
        "{nodes} nodes cannot cover {} entries",
        m.len()
    );
}
