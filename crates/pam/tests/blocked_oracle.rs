//! Differential harness pinning the blocked-leaf refactor: random
//! operation sequences are replayed against a `BTreeMap` model, with
//! augmented values recomputed by a naive fold, at block capacities
//! 1 (degenerate: the pre-refactor one-entry-per-leaf shape), 2 (the
//! smallest real block, maximal boundary churn), 8 (blocks the 120-entry
//! inputs fill several levels deep), 32 and 128 — the two capacities
//! `leaf_cap` picks by default, for owning and for plain entries; the
//! default itself runs with an owning spec. Each pinned capacity wraps
//! the spec in `Capped`, which keeps the spec's own fold. The 128-entry and owning runs
//! draw their inputs from a wider key range so a map spans several
//! blocks. Every intermediate tree is invariant-checked, so any
//! fill/aug/balance violation is caught at the op that introduced it.
//! The range sums are probed once more with an order-sensitive monoid,
//! so a combine with its operands swapped cannot pass.

use pam::balance::leaf_cap;
use pam::node::Tree;
use pam::ops::split::{join2, split, split_first, split_last, split_rank};
use pam::spec::Capped;
use pam::{AugMap, AugSpec, SumAug};
use proptest::prelude::*;
use std::cmp::Ordering;
use std::collections::BTreeMap;

type Spec = SumAug<u32, u64>;

/// `Spec` with each value held as its 8 little-endian bytes in a
/// `Vec<u8>`: an entry with drop glue, so by default it gets 32-entry
/// blocks where `Spec` gets 128.
struct OwnedSpec;

impl AugSpec for OwnedSpec {
    type K = u32;
    type V = Vec<u8>;
    type A = u64;
    fn compare(a: &u32, b: &u32) -> Ordering {
        a.cmp(b)
    }
    fn identity() -> u64 {
        0
    }
    fn base(_: &u32, v: &Vec<u8>) -> u64 {
        OwnedSpec::get(v)
    }
    fn combine(a: &u64, b: &u64) -> u64 {
        a.wrapping_add(*b)
    }
}

/// A spec the model can mirror: `u32` keys, values that stand for a
/// `u64`, and the wrapping sum of those as the augmentation.
trait Oracle: AugSpec<K = u32, A = u64> {
    fn val(v: u64) -> Self::V;
    fn get(v: &Self::V) -> u64;
}

/// A capped spec mirrors as the spec it wraps.
impl<S: Oracle, const CAP: usize> Oracle for Capped<S, CAP> {
    fn val(v: u64) -> S::V {
        S::val(v)
    }
    fn get(v: &S::V) -> u64 {
        S::get(v)
    }
}

impl Oracle for Spec {
    fn val(v: u64) -> u64 {
        v
    }
    fn get(v: &u64) -> u64 {
        *v
    }
}

impl Oracle for OwnedSpec {
    fn val(v: u64) -> Vec<u8> {
        v.to_le_bytes().to_vec()
    }
    fn get(v: &Vec<u8>) -> u64 {
        u64::from_le_bytes(v[..].try_into().expect("8 bytes"))
    }
}

#[derive(Debug, Clone)]
enum Op {
    Insert(u32, u64),
    Remove(u32),
    MultiInsert(Vec<(u32, u64)>),
    MultiDelete(Vec<u32>),
    // puts and deletes in one walk; a repeated key keeps its last element
    MultiUpdate(Vec<(u32, Option<u64>)>),
    // split at k, drop the pivot, join the halves back: exercises the
    // block slicing + underfull-repair join paths while preserving a
    // model that is easy to mirror
    SplitJoinAround(u32),
    SplitKeepLeft(u32),
    SplitKeepRight(u32),
    Range(u32, u32),
    Filter(u32),
}

/// Operations over keys `0..keys` whose batches hold up to `batch`
/// elements.
fn op_strategy(keys: u32, batch: usize) -> impl Strategy<Value = Op> {
    let key = 0u32..keys;
    let val = 0u64..1000;
    let pairs = proptest::collection::vec((0u32..keys, 0u64..1000), 0..batch);
    let keyvec = proptest::collection::vec(0u32..keys, 0..batch);
    // every fifth key only, so keys repeat within one batch; a value
    // drawn past 1000 (a third of them) is a delete
    let updates = proptest::collection::vec(
        (0u32..keys / 5, 0u64..1500).prop_map(|(k, v)| (k * 5, (v < 1000).then_some(v))),
        0..batch,
    );
    prop_oneof![
        (key.clone(), val.clone()).prop_map(|(k, v)| Op::Insert(k, v)),
        key.clone().prop_map(Op::Remove),
        pairs.prop_map(Op::MultiInsert),
        keyvec.prop_map(Op::MultiDelete),
        updates.prop_map(Op::MultiUpdate),
        key.clone().prop_map(Op::SplitJoinAround),
        key.clone().prop_map(Op::SplitKeepLeft),
        key.clone().prop_map(Op::SplitKeepRight),
        (key.clone(), key.clone()).prop_map(|(a, b)| Op::Range(a, b)),
        (1u32..7).prop_map(Op::Filter),
    ]
}

fn apply_model(model: &mut BTreeMap<u32, u64>, op: &Op) {
    match op {
        Op::Insert(k, v) => {
            model.insert(*k, *v);
        }
        Op::Remove(k) => {
            model.remove(k);
        }
        Op::MultiInsert(ps) => {
            for (k, v) in ps {
                model.insert(*k, *v);
            }
        }
        Op::MultiDelete(ks) => {
            for k in ks {
                model.remove(k);
            }
        }
        Op::MultiUpdate(us) => {
            for (k, v) in us {
                match v {
                    Some(v) => model.insert(*k, *v),
                    None => model.remove(k),
                };
            }
        }
        Op::SplitJoinAround(k) => {
            model.remove(k);
        }
        Op::SplitKeepLeft(k) => {
            *model = model.range(..*k).map(|(&k, &v)| (k, v)).collect();
        }
        Op::SplitKeepRight(k) => {
            let mut right: BTreeMap<u32, u64> = model.range(*k..).map(|(&k, &v)| (k, v)).collect();
            right.remove(k);
            *model = right;
        }
        Op::Range(a, b) => {
            let (lo, hi) = (*a.min(b), *a.max(b));
            *model = model.range(lo..=hi).map(|(&k, &v)| (k, v)).collect();
        }
        Op::Filter(d) => {
            model.retain(|k, _| k % d == 0);
        }
    }
}

fn apply_map<S: Oracle>(m: AugMap<S>, op: &Op) -> AugMap<S> {
    let mut m = m;
    match op {
        Op::Insert(k, v) => {
            m.insert(*k, S::val(*v));
            m
        }
        Op::Remove(k) => {
            m.remove(k);
            m
        }
        Op::MultiInsert(ps) => {
            m.multi_insert(ps.iter().map(|&(k, v)| (k, S::val(v))).collect());
            m
        }
        Op::MultiDelete(ks) => {
            m.multi_delete(ks.clone());
            m
        }
        Op::MultiUpdate(us) => {
            m.multi_update(us.iter().map(|&(k, v)| (k, v.map(S::val))).collect());
            m
        }
        Op::SplitJoinAround(k) => {
            let (l, _v, r) = split(m.root().clone(), k);
            // both halves must independently be valid trees
            AugMap::from_root(l.clone()).check_invariants().unwrap();
            AugMap::from_root(r.clone()).check_invariants().unwrap();
            AugMap::from_root(join2(l, r))
        }
        Op::SplitKeepLeft(k) => {
            let (l, _v, _r) = split(m.root().clone(), k);
            AugMap::from_root(l)
        }
        Op::SplitKeepRight(k) => {
            let (_l, _v, r) = split(m.root().clone(), k);
            AugMap::from_root(r)
        }
        Op::Range(a, b) => m.range(a.min(b), a.max(b)),
        Op::Filter(d) => {
            let d = *d;
            m.filter(move |k, _| k % d == 0)
        }
    }
}

/// The naive fold the augmentation must equal: sum of values in key order.
fn naive_aug(model: &BTreeMap<u32, u64>) -> u64 {
    model.values().fold(0u64, |s, &v| s.wrapping_add(v))
}

/// An intermediate map version paired with its expected contents.
type Versions<S> = Vec<(AugMap<S>, Vec<(u32, u64)>)>;

/// `m`'s entries with each value read back as the `u64` it stands for.
fn contents<S: Oracle>(m: &AugMap<S>) -> Vec<(u32, u64)> {
    m.iter().map(|(&k, v)| (k, S::get(v))).collect()
}

fn run_oracle<S: Oracle>(init: Vec<(u32, u64)>, ops: Vec<Op>, probes: Vec<(u32, u32)>) {
    let cap = leaf_cap::<S>();
    let mut model: BTreeMap<u32, u64> = init.iter().copied().collect();
    let mut map: AugMap<S> = AugMap::build(init.into_iter().map(|(k, v)| (k, S::val(v))).collect());
    let mut versions: Versions<S> = Vec::new();
    for op in &ops {
        versions.push((map.clone(), model.iter().map(|(&k, &v)| (k, v)).collect()));
        map = apply_map(map, op);
        apply_model(&mut model, op);
        map.check_invariants()
            .unwrap_or_else(|e| panic!("invariants after {op:?} (B={cap}): {e}"));
        let want: Vec<(u32, u64)> = model.iter().map(|(&k, &v)| (k, v)).collect();
        assert_eq!(contents(&map), want, "contents after {op:?} (B={cap})");
        // augmentation vs naive fold, whole-map and ranged
        assert_eq!(map.aug_val(), naive_aug(&model), "aug after {op:?}");
        for &(a, b) in &probes {
            let (lo, hi) = (a.min(b), a.max(b));
            let want: u64 = model
                .range(lo..=hi)
                .fold(0u64, |s, (_, &v)| s.wrapping_add(v));
            assert_eq!(map.aug_range(&lo, &hi), want, "aug_range after {op:?}");
            // g'(a) = truncate(a·C) is a homomorphism from wrapping u64
            // addition to wrapping u32 addition; C makes the truncation bite
            let project = |a: &u64| a.wrapping_mul(0x9E37_79B9_7F4A_7C15) as u32;
            assert_eq!(
                map.aug_project(&lo, &hi, project, u32::wrapping_add, 0),
                project(&want),
                "aug_project after {op:?}"
            );
            if lo < hi {
                // reversed bounds hold no key
                assert_eq!(map.aug_range(&hi, &lo), 0, "aug_range({hi}, {lo})");
                let none = map.aug_project(&hi, &lo, project, u32::wrapping_add, 7);
                assert_eq!(none, 7, "aug_project({hi}, {lo})");
                assert!(map.range(&hi, &lo).is_empty(), "range({hi}, {lo})");
            }
            let want_left: u64 = model
                .range(..=lo)
                .fold(0u64, |s, (_, &v)| s.wrapping_add(v));
            assert_eq!(map.aug_left(&lo), want_left, "aug_left after {op:?}");
            let want_right: u64 = model.range(hi..).fold(0u64, |s, (_, &v)| s.wrapping_add(v));
            assert_eq!(map.aug_right(&hi), want_right, "aug_right after {op:?}");
        }
    }
    // persistence: every intermediate version is intact
    for (v, expect) in versions {
        assert_eq!(contents(&v), expect, "old version mutated (B={cap})");
        v.check_invariants().expect("old version invariants");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn oracle_block_size_1(
        init in proptest::collection::vec((0u32..300, 0u64..1000), 0..120),
        ops in proptest::collection::vec(op_strategy(300, 40), 1..20),
        probes in proptest::collection::vec((0u32..320, 0u32..320), 1..4),
    ) {
        run_oracle::<Capped<Spec, 1>>(init, ops, probes);
    }

    #[test]
    fn oracle_block_size_2(
        init in proptest::collection::vec((0u32..300, 0u64..1000), 0..120),
        ops in proptest::collection::vec(op_strategy(300, 40), 1..20),
        probes in proptest::collection::vec((0u32..320, 0u32..320), 1..4),
    ) {
        run_oracle::<Capped<Spec, 2>>(init, ops, probes);
    }

    #[test]
    fn oracle_block_size_8(
        init in proptest::collection::vec((0u32..300, 0u64..1000), 0..120),
        ops in proptest::collection::vec(op_strategy(300, 40), 1..20),
        probes in proptest::collection::vec((0u32..320, 0u32..320), 1..4),
    ) {
        run_oracle::<Capped<Spec, 8>>(init, ops, probes);
    }

    #[test]
    fn oracle_block_size_32(
        init in proptest::collection::vec((0u32..300, 0u64..1000), 0..120),
        ops in proptest::collection::vec(op_strategy(300, 40), 1..20),
        probes in proptest::collection::vec((0u32..320, 0u32..320), 1..4),
    ) {
        run_oracle::<Capped<Spec, 32>>(init, ops, probes);
    }

    #[test]
    fn oracle_block_size_128(
        init in proptest::collection::vec((0u32..5000, 0u64..1000), 0..1500),
        ops in proptest::collection::vec(op_strategy(5000, 600), 1..20),
        probes in proptest::collection::vec((0u32..5200, 0u32..5200), 1..4),
    ) {
        run_oracle::<Capped<Spec, 128>>(init, ops, probes);
    }

    #[test]
    fn oracle_default_owning_entries(
        init in proptest::collection::vec((0u32..1200, 0u64..1000), 0..400),
        ops in proptest::collection::vec(op_strategy(1200, 160), 1..20),
        probes in proptest::collection::vec((0u32..1250, 0u32..1250), 1..4),
    ) {
        assert_eq!(leaf_cap::<OwnedSpec>(), 32);
        run_oracle::<OwnedSpec>(init, ops, probes);
    }

    #[test]
    fn cursor_full_scan_equals_iter(
        init in proptest::collection::vec((0u32..500, 0u64..1000), 0..200),
    ) {
        let m: AugMap<Capped<Spec, 2>> = AugMap::build(init.clone());
        let mut c = m.cursor();
        let mut scanned = Vec::new();
        while let Some((k, v)) = c.advance() {
            scanned.push((*k, *v));
        }
        let via_iter: Vec<(u32, u64)> = m.iter().map(|(&k, &v)| (k, v)).collect();
        prop_assert_eq!(scanned, via_iter);
        prop_assert!(c.is_exhausted());

        let m32: AugMap<Capped<Spec, 32>> = AugMap::build(init);
        let mut c = m32.cursor();
        let mut scanned = Vec::new();
        while let Some((k, v)) = c.advance() {
            scanned.push((*k, *v));
        }
        prop_assert_eq!(scanned, m32.to_vec());
    }

    #[test]
    fn cursor_seek_then_advance_equals_range(
        init in proptest::collection::vec((0u32..500, 0u64..1000), 0..200),
        a in 0u32..520,
        b in 0u32..520,
    ) {
        let (lo, hi) = (a.min(b), a.max(b));
        let m: AugMap<Capped<Spec, 32>> = AugMap::build(init);
        let mut c = m.cursor_at(&lo);
        let mut got = Vec::new();
        while let Some((&k, &v)) = c.peek() {
            if k > hi {
                break;
            }
            c.advance();
            got.push((k, v));
        }
        let want: Vec<(u32, u64)> = m.iter_range(&lo, &hi).map(|(&k, &v)| (k, v)).collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn cursor_stable_across_snapshot_while_live_map_mutates(
        init in proptest::collection::vec((0u32..300, 0u64..1000), 1..150),
        edits in proptest::collection::vec((0u32..300, 0u64..1000), 1..60),
    ) {
        let mut live: AugMap<Capped<Spec, 32>> = AugMap::build(init);
        let snapshot = live.clone();
        let expect = snapshot.to_vec();
        let mut c = snapshot.cursor();
        let mut got = Vec::new();
        // interleave cursor advances with mutations of the live map:
        // path copying must never disturb the snapshot's blocks
        let mut ei = 0;
        while let Some((k, v)) = c.advance() {
            got.push((*k, *v));
            if ei < edits.len() {
                let (ek, ev) = edits[ei];
                if ev % 3 == 0 {
                    live.remove(&ek);
                } else {
                    live.insert(ek, ev);
                }
                ei += 1;
            }
        }
        prop_assert_eq!(got, expect);
        live.check_invariants().unwrap();
    }
}

/// An order-sensitive monoid: the polynomial hash of a map's entries in
/// key order. `A = (h, p)` with `p = P^len`, combined as
/// `(h1 · p2 + h2, p1 · p2)` in wrapping arithmetic, which is
/// associative, and which changes when two operands swap.
struct HashSpec;

const P: u64 = 0x0000_0100_0000_01b3;

impl AugSpec for HashSpec {
    type K = u32;
    type V = u64;
    type A = (u64, u64);
    fn compare(a: &u32, b: &u32) -> Ordering {
        a.cmp(b)
    }
    fn identity() -> (u64, u64) {
        (0, 1)
    }
    fn base(k: &u32, v: &u64) -> (u64, u64) {
        ((u64::from(*k) << 20) ^ v ^ 1, P)
    }
    fn combine(a: &(u64, u64), b: &(u64, u64)) -> (u64, u64) {
        (
            a.0.wrapping_mul(b.1).wrapping_add(b.0),
            a.1.wrapping_mul(b.1),
        )
    }
}

/// The same monoid taken mod 2^32: truncation is a ring homomorphism, so
/// it is a valid `aug_project` target and just as order-sensitive.
fn project32(a: &(u64, u64)) -> (u32, u32) {
    (a.0 as u32, a.1 as u32)
}

fn reduce32(a: (u32, u32), b: (u32, u32)) -> (u32, u32) {
    (
        a.0.wrapping_mul(b.1).wrapping_add(b.0),
        a.1.wrapping_mul(b.1),
    )
}

/// Every bounded fold against a left-to-right fold of the model. The map
/// holds even keys only; its ends are every key in it (pivots and keys
/// inside blocks alike) and the odd key after each (outside the key set),
/// each paired with itself, with nearby ends and with ends some blocks
/// away, in both orders.
fn hash_oracle<const CAP: usize>(init: Vec<(u32, u64)>) {
    let cap = leaf_cap::<Capped<HashSpec, CAP>>();
    let model: BTreeMap<u32, u64> = init.into_iter().map(|(k, v)| (2 * k, v)).collect();
    // every other entry bulk-built, the rest inserted one by one, for
    // uneven blocks
    let mut m: AugMap<Capped<HashSpec, CAP>> =
        AugMap::build(model.iter().step_by(2).map(|(&k, &v)| (k, v)).collect());
    for (&k, &v) in model.iter().skip(1).step_by(2) {
        m.insert(k, v);
    }
    m.check_invariants().unwrap();
    let brute = |r: std::collections::btree_map::Range<'_, u32, u64>| {
        r.fold(HashSpec::identity(), |a, (k, v)| {
            HashSpec::combine(&a, &HashSpec::base(k, v))
        })
    };
    let mut ends: Vec<u32> = model.keys().flat_map(|&k| [k, k + 1]).collect();
    ends.insert(0, 0);
    for (i, &lo) in ends.iter().enumerate() {
        let what = |op: &str, hi: u32| format!("{op}({lo}, {hi}), B={cap}");
        assert_eq!(
            m.aug_left(&lo),
            brute(model.range(..=lo)),
            "{}",
            what("aug_left", lo)
        );
        assert_eq!(
            m.aug_right(&lo),
            brute(model.range(lo..)),
            "{}",
            what("aug_right", lo)
        );
        for j in [i, i + 1, i + 2, i + cap, i + 2 * cap + 3, i + 6 * cap] {
            let Some(&hi) = ends.get(j) else { continue };
            let want = brute(model.range(lo..=hi));
            assert_eq!(m.aug_range(&lo, &hi), want, "{}", what("aug_range", hi));
            let got = m.aug_project(&lo, &hi, project32, reduce32, (0, 1));
            assert_eq!(got, project32(&want), "{}", what("aug_project", hi));
            if lo < hi {
                let id = HashSpec::identity();
                assert_eq!(
                    m.aug_range(&hi, &lo),
                    id,
                    "{}",
                    what("reversed aug_range", hi)
                );
                let none = m.aug_project(&hi, &lo, project32, reduce32, (7, 7));
                assert_eq!(none, (7, 7), "{}", what("reversed aug_project", hi));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn hash_oracle_block_size_1(init in proptest::collection::vec((0u32..300, 0u64..1000), 0..120)) {
        hash_oracle::<1>(init);
    }

    #[test]
    fn hash_oracle_block_size_2(init in proptest::collection::vec((0u32..300, 0u64..1000), 0..120)) {
        hash_oracle::<2>(init);
    }

    #[test]
    fn hash_oracle_block_size_8(init in proptest::collection::vec((0u32..300, 0u64..1000), 0..120)) {
        hash_oracle::<8>(init);
    }

    #[test]
    fn hash_oracle_block_size_32(init in proptest::collection::vec((0u32..600, 0u64..1000), 0..400)) {
        hash_oracle::<32>(init);
    }

    #[test]
    fn hash_oracle_block_size_128(init in proptest::collection::vec((0u32..2000, 0u64..1000), 0..1200)) {
        hash_oracle::<128>(init);
    }
}

/// `CAP`-entry blocks of the order-sensitive hash: a map's augmented
/// value names its entries and their order.
type Hashed<const CAP: usize> = Capped<HashSpec, CAP>;

/// The hash of `parts`' entries in order, as `Hashed` folds them.
fn hash_of(parts: &[&[(u32, u64)]]) -> (u64, u64) {
    let es = parts.iter().flat_map(|p| p.iter());
    es.fold(HashSpec::identity(), |a, (k, v)| {
        HashSpec::combine(&a, &HashSpec::base(k, v))
    })
}

/// `t` is a legal tree holding exactly the entries of `parts`, in order;
/// handed back for reuse. The invariant check recomputes every stored
/// hash, so the root's names the entries.
fn holds<const CAP: usize>(
    t: Tree<Hashed<CAP>>,
    parts: &[&[(u32, u64)]],
    what: &dyn Fn() -> String,
) -> Tree<Hashed<CAP>> {
    let m = AugMap::from_root(t);
    if let Err(e) = m.check_invariants() {
        panic!("{}: {e}", what());
    }
    let len: usize = parts.iter().map(|p| p.len()).sum();
    assert_eq!((m.len(), m.aug_val()), (len, hash_of(parts)), "{}", what());
    m.into_root()
}

/// Every position of every map of up to three blocks and two entries,
/// against a `BTreeMap`: each rank from 0 to n and each probe key (every
/// key held, one in each gap between them, and keys below the minimum
/// and above the maximum) through the twelve functions that walk to a
/// position (`find`, `contains`, `first`, `last`, `previous`, `next`,
/// `rank`, `select`, `split`, `split_rank`, `split_first`, `split_last`),
/// plus `join2` and the first entry of `iter_range` and of `cursor_at`.
/// Each split runs on a shared tree (the map stays alive beside it) and
/// on an unshared one, which the previous probe's pieces were joined back
/// into by `join2`; every tree a split or a join returns is
/// invariant-checked. The sizes run from `first` to `3·CAP + 2` in steps
/// of `step`.
fn every_position<const CAP: usize>(first: usize, step: usize) {
    for n in (first..=3 * CAP + 2).step_by(step) {
        let model: BTreeMap<u32, u64> = (1..=n as u32)
            .map(|i| (2 * i, u64::from(i) * 7 + 1))
            .collect();
        let want: Vec<(u32, u64)> = model.iter().map(|(&k, &v)| (k, v)).collect();
        // keys 2, 4, .., 2n: every other one bulk-built and the rest
        // inserted, for uneven blocks
        let build = || {
            let mut m: AugMap<Hashed<CAP>> =
                AugMap::build(want.iter().copied().step_by(2).collect());
            for &(k, v) in want.iter().skip(1).step_by(2) {
                m.insert(k, v);
            }
            m
        };
        let m = build();
        let mut unshared = build().into_root();
        let at = |what: String| move || format!("B={CAP}, n={n}: {what}");
        let one = |(k, v): (u32, u64)| AugMap::<Hashed<CAP>>::singleton(k, v).into_root();
        assert_eq!(m.first(), model.iter().next(), "B={CAP}, n={n}: first");
        assert_eq!(m.last(), model.iter().next_back(), "B={CAP}, n={n}: last");
        if n > 0 {
            for (how, t) in [("shared", m.root().clone()), ("unshared", unshared.take())] {
                let what = at(format!("split_first / split_last, {how}"));
                let (e, rest) = split_first(t.unwrap());
                assert_eq!((e.key, e.val), want[0], "{}", what());
                let rest = holds(rest, &[&want[1..]], &what);
                let (rest, e) = split_last(join2(one(want[0]), rest).unwrap());
                assert_eq!((e.key, e.val), want[n - 1], "{}", what());
                let rest = holds(rest, &[&want[..n - 1]], &what);
                let whole = holds(join2(rest, one(want[n - 1])), &[&want], &what);
                if how == "unshared" {
                    unshared = whole;
                }
            }
        }
        for i in 0..=n {
            let what = at(format!("rank {i}"));
            assert_eq!(m.select(i), model.iter().nth(i), "select: {}", what());
            let (l, r) = split_rank(m.root().clone(), i);
            holds(l, &[&want[..i]], &what);
            holds(r, &[&want[i..]], &what);
            let (l, r) = split_rank(unshared.take(), i);
            let (l, r) = (
                holds(l, &[&want[..i]], &what),
                holds(r, &[&want[i..]], &what),
            );
            unshared = holds(join2(l, r), &[&want], &what);
        }
        for k in 0..=2 * n as u32 + 2 {
            let what = at(format!("key {k}"));
            let own = model.get(&k).copied();
            assert_eq!(m.get(&k).copied(), own, "get: {}", what());
            assert_eq!(m.contains_key(&k), own.is_some(), "contains: {}", what());
            let below = model.range(..k).count();
            assert_eq!(m.rank(&k), below, "rank: {}", what());
            let previous = model.range(..k).next_back();
            assert_eq!(m.previous(&k), previous, "previous: {}", what());
            let next = model.range(k + 1..).next();
            assert_eq!(m.next(&k), next, "next: {}", what());
            let from = model.range(k..).next();
            assert_eq!(
                m.iter_range(&k, &u32::MAX).next(),
                from,
                "iter_range: {}",
                what()
            );
            assert_eq!(m.cursor_at(&k).peek(), from, "cursor_at: {}", what());
            let above = below + usize::from(own.is_some());
            let (lo, hi) = (&want[..below], &want[above..]);
            for (how, t) in [("shared", m.root().clone()), ("unshared", unshared.take())] {
                let what = at(format!("split({k}), {how}"));
                let (l, v, r) = split(t, &k);
                assert_eq!(v, own, "{}", what());
                let l = holds(l, &[lo], &what);
                let r = holds(r, &[hi], &what);
                if how == "unshared" {
                    let mut joined = AugMap::from_root(holds(join2(l, r), &[lo, hi], &what));
                    if let Some(v) = v {
                        joined.insert(k, v);
                    }
                    unshared = joined.into_root();
                }
            }
        }
    }
}

#[test]
fn every_position_block_size_1() {
    every_position::<1>(0, 1);
}

#[test]
fn every_position_block_size_2() {
    every_position::<2>(0, 1);
}

#[test]
fn every_position_block_size_8() {
    every_position::<8>(0, 1);
}

#[test]
fn every_position_block_size_32() {
    every_position::<32>(0, 1);
}

// the largest block's sizes in two halves, so they run side by side
#[test]
fn every_position_block_size_128_even_sizes() {
    every_position::<128>(0, 2);
}

#[test]
fn every_position_block_size_128_odd_sizes() {
    every_position::<128>(1, 2);
}
