//! Differential harness pinning the blocked-leaf refactor: random
//! operation sequences are replayed against a `BTreeMap` model, with
//! augmented values recomputed by a naive fold, at four block sizes —
//! `LEAF_CAP` = 1 (degenerate: the pre-refactor one-entry-per-leaf
//! shape), 2 (the smallest real block, maximal boundary churn), 8 (blocks
//! the 120-entry inputs fill several levels deep) and 32 (the default). Every intermediate tree is invariant-checked, so any
//! fill/aug/balance violation is caught at the op that introduced it.

use pam::balance::WeightBalancedCap;
use pam::ops::split::{join2, split};
use pam::{AugMap, Balance, SumAug};
use proptest::prelude::*;
use std::collections::BTreeMap;

type Spec = SumAug<u32, u64>;

#[derive(Debug, Clone)]
enum Op {
    Insert(u32, u64),
    Remove(u32),
    MultiInsert(Vec<(u32, u64)>),
    MultiDelete(Vec<u32>),
    // split at k, drop the pivot, join the halves back: exercises the
    // block slicing + underfull-repair join paths while preserving a
    // model that is easy to mirror
    SplitJoinAround(u32),
    SplitKeepLeft(u32),
    SplitKeepRight(u32),
    Range(u32, u32),
    Filter(u32),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let key = 0u32..300;
    let val = 0u64..1000;
    let pairs = proptest::collection::vec((0u32..300, 0u64..1000), 0..40);
    let keyvec = proptest::collection::vec(0u32..300, 0..40);
    prop_oneof![
        (key.clone(), val.clone()).prop_map(|(k, v)| Op::Insert(k, v)),
        key.clone().prop_map(Op::Remove),
        pairs.prop_map(Op::MultiInsert),
        keyvec.prop_map(Op::MultiDelete),
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

fn apply_map<B: Balance>(m: AugMap<Spec, B>, op: &Op) -> AugMap<Spec, B> {
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
type Versions<B> = Vec<(AugMap<Spec, B>, Vec<(u32, u64)>)>;

fn run_oracle<B: Balance>(init: Vec<(u32, u64)>, ops: Vec<Op>, probes: Vec<(u32, u32)>) {
    let mut model: BTreeMap<u32, u64> = init.iter().copied().collect();
    let mut map: AugMap<Spec, B> = AugMap::build(init);
    let mut versions: Versions<B> = Vec::new();
    for op in &ops {
        versions.push((map.clone(), model.iter().map(|(&k, &v)| (k, v)).collect()));
        map = apply_map(map, op);
        apply_model(&mut model, op);
        map.check_invariants()
            .unwrap_or_else(|e| panic!("invariants after {op:?} (B={}): {e}", B::LEAF_CAP));
        let got = map.to_vec();
        let want: Vec<(u32, u64)> = model.iter().map(|(&k, &v)| (k, v)).collect();
        assert_eq!(got, want, "contents after {op:?} (B={})", B::LEAF_CAP);
        // augmentation vs naive fold, whole-map and ranged
        assert_eq!(map.aug_val(), naive_aug(&model), "aug after {op:?}");
        for &(a, b) in &probes {
            let (lo, hi) = (a.min(b), a.max(b));
            let want: u64 = model
                .range(lo..=hi)
                .fold(0u64, |s, (_, &v)| s.wrapping_add(v));
            assert_eq!(map.aug_range(&lo, &hi), want, "aug_range after {op:?}");
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
        assert_eq!(
            v.to_vec(),
            expect,
            "old version mutated (B={})",
            B::LEAF_CAP
        );
        v.check_invariants().expect("old version invariants");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn oracle_block_size_1(
        init in proptest::collection::vec((0u32..300, 0u64..1000), 0..120),
        ops in proptest::collection::vec(op_strategy(), 1..20),
        probes in proptest::collection::vec((0u32..320, 0u32..320), 1..4),
    ) {
        run_oracle::<WeightBalancedCap<1>>(init, ops, probes);
    }

    #[test]
    fn oracle_block_size_2(
        init in proptest::collection::vec((0u32..300, 0u64..1000), 0..120),
        ops in proptest::collection::vec(op_strategy(), 1..20),
        probes in proptest::collection::vec((0u32..320, 0u32..320), 1..4),
    ) {
        run_oracle::<WeightBalancedCap<2>>(init, ops, probes);
    }

    #[test]
    fn oracle_block_size_8(
        init in proptest::collection::vec((0u32..300, 0u64..1000), 0..120),
        ops in proptest::collection::vec(op_strategy(), 1..20),
        probes in proptest::collection::vec((0u32..320, 0u32..320), 1..4),
    ) {
        run_oracle::<WeightBalancedCap<8>>(init, ops, probes);
    }

    #[test]
    fn oracle_block_size_32(
        init in proptest::collection::vec((0u32..300, 0u64..1000), 0..120),
        ops in proptest::collection::vec(op_strategy(), 1..20),
        probes in proptest::collection::vec((0u32..320, 0u32..320), 1..4),
    ) {
        run_oracle::<WeightBalancedCap<32>>(init, ops, probes);
    }

    #[test]
    fn cursor_full_scan_equals_iter(
        init in proptest::collection::vec((0u32..500, 0u64..1000), 0..200),
    ) {
        let m: AugMap<Spec, WeightBalancedCap<2>> = AugMap::build(init.clone());
        let mut c = m.cursor();
        let mut scanned = Vec::new();
        while let Some((k, v)) = c.advance() {
            scanned.push((*k, *v));
        }
        let via_iter: Vec<(u32, u64)> = m.iter().map(|(&k, &v)| (k, v)).collect();
        prop_assert_eq!(scanned, via_iter);
        prop_assert!(c.is_exhausted());

        let m32: AugMap<Spec, WeightBalancedCap<32>> = AugMap::build(init);
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
        let m: AugMap<Spec, WeightBalancedCap<32>> = AugMap::build(init);
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
        let mut live: AugMap<Spec, WeightBalancedCap<32>> = AugMap::build(init);
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
