//! Property-based tests over random operation sequences, at leaf-block
//! capacities 1, 2 and the default (128 for these plain entries). The
//! default's inputs span `0..5_000` with up to 1 500 entries, so its maps
//! hold several blocks and join, split, rotate and re-pack them.

use pam::spec::Capped;
use pam::{AugMap, AugSpec, SumAug};
use proptest::prelude::*;
use std::collections::BTreeMap;

type Spec = SumAug<u32, u64>;

#[derive(Debug, Clone)]
enum Op {
    Insert(u32, u64),
    Remove(u32),
    MultiInsert(Vec<(u32, u64)>),
    MultiDelete(Vec<u32>),
    UnionWith(Vec<(u32, u64)>),
    IntersectWith(Vec<(u32, u64)>),
    DifferenceWith(Vec<(u32, u64)>),
    Filter(u32),
    Range(u32, u32),
    UpTo(u32),
    DownTo(u32),
}

/// Operations over keys `0..keys` whose batches hold up to `batch`
/// elements.
fn op_strategy(keys: u32, batch: usize) -> impl Strategy<Value = Op> {
    let key = 0u32..keys;
    let val = 0u64..1000;
    let pairs = proptest::collection::vec((0u32..keys, 0u64..1000), 0..batch);
    let keyvec = proptest::collection::vec(0u32..keys, 0..batch);
    prop_oneof![
        (key.clone(), val.clone()).prop_map(|(k, v)| Op::Insert(k, v)),
        key.clone().prop_map(Op::Remove),
        pairs.clone().prop_map(Op::MultiInsert),
        keyvec.prop_map(Op::MultiDelete),
        pairs.clone().prop_map(Op::UnionWith),
        pairs.clone().prop_map(Op::IntersectWith),
        pairs.prop_map(Op::DifferenceWith),
        (1u32..7).prop_map(Op::Filter),
        (key.clone(), key.clone()).prop_map(|(a, b)| Op::Range(a, b)),
        key.clone().prop_map(Op::UpTo),
        key.prop_map(Op::DownTo),
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
        Op::UnionWith(ps) => {
            let other: BTreeMap<u32, u64> = ps.iter().copied().collect();
            for (k, v) in other {
                model
                    .entry(k)
                    .and_modify(|x| *x = x.wrapping_add(v))
                    .or_insert(v);
            }
        }
        Op::IntersectWith(ps) => {
            let other: BTreeMap<u32, u64> = ps.iter().copied().collect();
            *model = model
                .iter()
                .filter_map(|(k, v)| other.get(k).map(|w| (*k, v.wrapping_add(*w))))
                .collect();
        }
        Op::DifferenceWith(ps) => {
            let other: BTreeMap<u32, u64> = ps.iter().copied().collect();
            model.retain(|k, _| !other.contains_key(k));
        }
        Op::Filter(d) => {
            model.retain(|k, _| k % d == 0);
        }
        Op::Range(a, b) => {
            let (lo, hi) = (*a.min(b), *a.max(b));
            *model = model.range(lo..=hi).map(|(&k, &v)| (k, v)).collect();
        }
        Op::UpTo(k) => {
            *model = model.range(..=*k).map(|(&k, &v)| (k, v)).collect();
        }
        Op::DownTo(k) => {
            *model = model.range(*k..).map(|(&k, &v)| (k, v)).collect();
        }
    }
}

fn apply_map<S: AugSpec<K = u32, V = u64, A = u64>>(m: AugMap<S>, op: &Op) -> AugMap<S> {
    let mut m = m;
    match op {
        Op::Insert(k, v) => {
            m.insert(*k, *v);
            m
        }
        Op::Remove(k) => {
            m.remove(k);
            m
        }
        Op::MultiInsert(ps) => {
            m.multi_insert(ps.clone());
            m
        }
        Op::MultiDelete(ks) => {
            m.multi_delete(ks.clone());
            m
        }
        Op::UnionWith(ps) => {
            // build (last value wins) then union with wrapping-add combine
            let other: AugMap<S> = AugMap::build(ps.clone());
            m.union_with(other, |a, b| a.wrapping_add(*b))
        }
        Op::IntersectWith(ps) => {
            let other: AugMap<S> = AugMap::build(ps.clone());
            m.intersect_with(other, |a, b| a.wrapping_add(*b))
        }
        Op::DifferenceWith(ps) => {
            let other: AugMap<S> = AugMap::build(ps.clone());
            m.difference(other)
        }
        Op::Filter(d) => {
            let d = *d;
            m.filter(move |k, _| k % d == 0)
        }
        Op::Range(a, b) => {
            let (lo, hi) = (a.min(b), a.max(b));
            // reversed bounds hold no key
            if lo < hi {
                assert!(m.range(hi, lo).is_empty(), "range({hi}, {lo})");
            }
            m.range(lo, hi)
        }
        Op::UpTo(k) => m.up_to(k),
        Op::DownTo(k) => m.down_to(k),
    }
}

fn run_sequence<S: AugSpec<K = u32, V = u64, A = u64>>(init: Vec<(u32, u64)>, ops: Vec<Op>) {
    let mut model: BTreeMap<u32, u64> = init.iter().copied().collect();
    let mut map: AugMap<S> = AugMap::build(init);
    // keep every intermediate version: persistence must keep them intact
    type Version<S> = (AugMap<S>, Vec<(u32, u64)>);
    let mut versions: Vec<Version<S>> = Vec::new();
    for op in &ops {
        versions.push((map.clone(), model.iter().map(|(&k, &v)| (k, v)).collect()));
        map = apply_map(map, op);
        apply_model(&mut model, op);
        map.check_invariants().expect("invariants after op");
        let got = map.to_vec();
        let want: Vec<(u32, u64)> = model.iter().map(|(&k, &v)| (k, v)).collect();
        assert_eq!(got, want, "mismatch after {op:?}");
    }
    // all old versions unchanged (full persistence)
    for (v, expect) in versions {
        assert_eq!(v.to_vec(), expect, "old version mutated");
        v.check_invariants().expect("old version invariants");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_ops_weight_balanced(
        init in proptest::collection::vec((0u32..5000, 0u64..1000), 0..1500),
        ops in proptest::collection::vec(op_strategy(5000, 600), 1..25),
    ) {
        run_sequence::<Spec>(init, ops);
    }

    #[test]
    fn random_ops_block_size_1(
        init in proptest::collection::vec((0u32..300, 0u64..1000), 0..120),
        ops in proptest::collection::vec(op_strategy(300, 40), 1..25),
    ) {
        run_sequence::<Capped<Spec, 1>>(init, ops);
    }

    #[test]
    fn random_ops_block_size_2(
        init in proptest::collection::vec((0u32..300, 0u64..1000), 0..120),
        ops in proptest::collection::vec(op_strategy(300, 40), 1..25),
    ) {
        run_sequence::<Capped<Spec, 2>>(init, ops);
    }

    #[test]
    fn aug_queries_match_bruteforce(
        init in proptest::collection::vec((0u32..5000, 0u64..1000), 0..1500),
        probes in proptest::collection::vec((0u32..5200, 0u32..5200), 1..20),
    ) {
        let model: BTreeMap<u32, u64> = init.iter().copied().collect();
        let map: AugMap<Spec> = AugMap::build(init);
        for (a, b) in probes {
            let (lo, hi) = (a.min(b), a.max(b));
            let want: u64 = model.range(lo..=hi).fold(0u64, |s, (_, &v)| s.wrapping_add(v));
            prop_assert_eq!(map.aug_range(&lo, &hi), want);
            let want_left: u64 = model.range(..=a).fold(0u64, |s, (_, &v)| s.wrapping_add(v));
            prop_assert_eq!(map.aug_left(&a), want_left);
            let want_right: u64 = model.range(a..).fold(0u64, |s, (_, &v)| s.wrapping_add(v));
            prop_assert_eq!(map.aug_right(&a), want_right);
        }
    }

    #[test]
    fn union_is_symmetric_on_keys(
        p1 in proptest::collection::vec((0u32..5000, 0u64..100), 0..1500),
        p2 in proptest::collection::vec((0u32..5000, 0u64..100), 0..1500),
    ) {
        let m1: AugMap<Spec> = AugMap::build(p1);
        let m2: AugMap<Spec> = AugMap::build(p2);
        // with a commutative combine, union is fully symmetric
        let u12 = m1.clone().union_with(m2.clone(), |a, b| a.wrapping_add(*b));
        let u21 = m2.union_with(m1, |a, b| a.wrapping_add(*b));
        prop_assert_eq!(u12.to_vec(), u21.to_vec());
    }

    #[test]
    fn split_union_roundtrip(
        init in proptest::collection::vec((0u32..5000, 0u64..100), 1..1500),
        pivot in 0u32..5200,
    ) {
        let m: AugMap<Spec> = AugMap::build(init);
        let lo = m.up_to(&pivot);
        let hi = m.down_to(&(pivot + 1));
        let back = lo.union_with(hi, |_, _| unreachable!("disjoint"));
        prop_assert_eq!(back.to_vec(), m.to_vec());
        back.check_invariants().unwrap();
    }
}
