//! Model-based tests: every operation checked against `BTreeMap` (the
//! oracle), instantiated at leaf-block capacities 1 (the paper's
//! one-entry-per-node layout), 2 and the default 32. After every operation the full invariant set (order, size, augmentation, balance)
//! is re-verified.

use pam::{AugMap, Balance, SumAug, WeightBalanced, WeightBalancedCap};
use std::collections::BTreeMap;

type Spec = SumAug<u64, u64>;

fn hash64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

fn pairs(n: u64, seed: u64, key_range: u64) -> Vec<(u64, u64)> {
    (0..n)
        .map(|i| (hash64(i + seed) % key_range, hash64(i * 31 + seed) % 1000))
        .collect()
}

fn oracle_of(pairs: &[(u64, u64)]) -> BTreeMap<u64, u64> {
    pairs.iter().copied().collect() // last value wins
}

fn check<B: Balance>(m: &AugMap<Spec, B>, oracle: &BTreeMap<u64, u64>) {
    m.check_invariants().expect("invariants");
    assert_eq!(m.len(), oracle.len());
    let got: Vec<(u64, u64)> = m.to_vec();
    let want: Vec<(u64, u64)> = oracle.iter().map(|(&k, &v)| (k, v)).collect();
    assert_eq!(got, want);
    let sum: u64 = oracle.values().fold(0u64, |a, &b| a.wrapping_add(b));
    assert_eq!(m.aug_val(), sum);
}

fn run_all<B: Balance>() {
    build_matches_model::<B>();
    insert_delete_match_model::<B>();
    union_intersect_difference_match_model::<B>();
    ranges_match_model::<B>();
    multi_ops_match_model::<B>();
    order_statistics_match_model::<B>();
    filter_and_mapreduce_match_model::<B>();
    aug_queries_match_model::<B>();
}

fn build_matches_model<B: Balance>() {
    for n in [0u64, 1, 2, 7, 100, 2000, 20_000] {
        let ps = pairs(n, 42, (n * 2).max(1));
        let m: AugMap<Spec, B> = AugMap::build(ps.clone());
        check(&m, &oracle_of(&ps));
    }
}

fn insert_delete_match_model<B: Balance>() {
    let mut m: AugMap<Spec, B> = AugMap::new();
    let mut oracle = BTreeMap::new();
    for i in 0..3000u64 {
        let k = hash64(i) % 500;
        let v = hash64(i + 7);
        if i % 3 == 2 {
            m.remove(&k);
            oracle.remove(&k);
        } else {
            m.insert(k, v);
            oracle.insert(k, v);
        }
        if i % 500 == 0 {
            check(&m, &oracle);
        }
    }
    check(&m, &oracle);
    // insert_with combines old and new
    let mut m2: AugMap<Spec, B> = AugMap::new();
    m2.insert_with(5, 10, |a, b| a + b);
    m2.insert_with(5, 32, |a, b| a + b);
    assert_eq!(m2.get(&5), Some(&42));
    m2.check_invariants().unwrap();
}

fn union_intersect_difference_match_model<B: Balance>() {
    for (n1, n2) in [
        (1000u64, 1000u64),
        (5000, 50),
        (50, 5000),
        (0, 100),
        (100, 0),
    ] {
        let p1 = pairs(n1, 1, 3000);
        let p2 = pairs(n2, 2, 3000);
        let m1: AugMap<Spec, B> = AugMap::build(p1.clone());
        let m2: AugMap<Spec, B> = AugMap::build(p2.clone());
        let (o1, o2) = (oracle_of(&p1), oracle_of(&p2));

        // union with value combine v1 + v2
        let u = m1.clone().union_with(m2.clone(), |a, b| a + b);
        let mut ou = o1.clone();
        for (&k, &v) in &o2 {
            ou.entry(k).and_modify(|x| *x += v).or_insert(v);
        }
        check(&u, &ou);

        // intersection, keeping v1 * v2 % 1000 to exercise the combine
        let i = m1.clone().intersect_with(m2.clone(), |a, b| (a * b) % 1000);
        let oi: BTreeMap<u64, u64> = o1
            .iter()
            .filter_map(|(&k, &v1)| o2.get(&k).map(|&v2| (k, (v1 * v2) % 1000)))
            .collect();
        check(&i, &oi);

        // difference
        let d = m1.clone().difference(m2.clone());
        let od: BTreeMap<u64, u64> = o1
            .iter()
            .filter(|(k, _)| !o2.contains_key(k))
            .map(|(&k, &v)| (k, v))
            .collect();
        check(&d, &od);
    }
}

fn ranges_match_model<B: Balance>() {
    let ps = pairs(5000, 9, 10_000);
    let m: AugMap<Spec, B> = AugMap::build(ps.clone());
    let o = oracle_of(&ps);
    for (lo, hi) in [
        (0u64, 10_000u64),
        (500, 600),
        (9_999, 10_000),
        (600, 500),
        (3, 3),
    ] {
        let r = m.range(&lo, &hi);
        let or: BTreeMap<u64, u64> = if lo <= hi {
            o.range(lo..=hi).map(|(&k, &v)| (k, v)).collect()
        } else {
            BTreeMap::new()
        };
        check(&r, &or);
    }
    let up = m.up_to(&5000);
    let oup: BTreeMap<u64, u64> = o.range(..=5000).map(|(&k, &v)| (k, v)).collect();
    check(&up, &oup);
    let down = m.down_to(&5000);
    let odn: BTreeMap<u64, u64> = o.range(5000..).map(|(&k, &v)| (k, v)).collect();
    check(&down, &odn);
}

fn multi_ops_match_model<B: Balance>() {
    let base = pairs(4000, 3, 6000);
    let batch = pairs(1500, 4, 6000);
    let mut m: AugMap<Spec, B> = AugMap::build(base.clone());
    let mut o = oracle_of(&base);

    // multi_insert with combine(old, new) = old + new; batch-internal
    // duplicates merge left-to-right first.
    let mut merged_batch: BTreeMap<u64, u64> = BTreeMap::new();
    for &(k, v) in &batch {
        merged_batch.entry(k).and_modify(|x| *x += v).or_insert(v);
    }
    m.multi_insert_with(batch.clone(), |a, b| a + b);
    for (&k, &v) in &merged_batch {
        o.entry(k).and_modify(|x| *x += v).or_insert(v);
    }
    check(&m, &o);

    // multi_delete (half the batch keys, plus some misses)
    let keys: Vec<u64> = batch
        .iter()
        .map(|&(k, _)| k)
        .chain(7_000_000..7_000_100)
        .collect();
    m.multi_delete(keys.clone());
    for k in keys {
        o.remove(&k);
    }
    check(&m, &o);
}

fn order_statistics_match_model<B: Balance>() {
    let ps = pairs(2000, 5, 4000);
    let m: AugMap<Spec, B> = AugMap::build(ps.clone());
    let o = oracle_of(&ps);
    let sorted: Vec<(u64, u64)> = o.iter().map(|(&k, &v)| (k, v)).collect();

    assert_eq!(m.first().map(|(k, v)| (*k, *v)), sorted.first().copied());
    assert_eq!(m.last().map(|(k, v)| (*k, *v)), sorted.last().copied());
    for probe in [0u64, 1, 57, 1999, 3999, 4001] {
        assert_eq!(
            m.rank(&probe),
            sorted.iter().filter(|&&(k, _)| k < probe).count()
        );
        assert_eq!(
            m.previous(&probe).map(|(k, _)| *k),
            sorted
                .iter()
                .rev()
                .find(|&&(k, _)| k < probe)
                .map(|&(k, _)| k)
        );
        assert_eq!(
            m.next(&probe).map(|(k, _)| *k),
            sorted.iter().find(|&&(k, _)| k > probe).map(|&(k, _)| k)
        );
        assert_eq!(m.get(&probe).copied(), o.get(&probe).copied());
    }
    for i in [0usize, 1, 500, sorted.len() - 1] {
        assert_eq!(m.select(i).map(|(k, v)| (*k, *v)), Some(sorted[i]));
    }
    assert_eq!(m.select(sorted.len()), None);
}

fn filter_and_mapreduce_match_model<B: Balance>() {
    let ps = pairs(4000, 6, 9000);
    let m: AugMap<Spec, B> = AugMap::build(ps.clone());
    let o = oracle_of(&ps);

    let f = m.clone().filter(|k, v| k % 3 == 0 && v % 2 == 0);
    let of: BTreeMap<u64, u64> = o
        .iter()
        .filter(|(&k, &v)| k % 3 == 0 && v % 2 == 0)
        .map(|(&k, &v)| (k, v))
        .collect();
    check(&f, &of);

    let mr = m.map_reduce(|k, v| k + v, |a, b| a + b, 0u64);
    let want: u64 = o.iter().map(|(&k, &v)| k + v).sum();
    assert_eq!(mr, want);

    // map_values into a Max-augmented map
    let mv: AugMap<pam::MaxAug<u64, u64>, B> = m.map_values(|_k, v| v * 2);
    mv.check_invariants().unwrap();
    assert_eq!(mv.len(), m.len());
    assert_eq!(mv.aug_val(), o.values().map(|v| v * 2).max().unwrap());
}

fn aug_queries_match_model<B: Balance>() {
    let ps = pairs(3000, 8, 5000);
    let m: AugMap<Spec, B> = AugMap::build(ps.clone());
    let o = oracle_of(&ps);
    for probe in [0u64, 100, 2500, 4999, 6000] {
        let left: u64 = o.range(..=probe).map(|(_, &v)| v).sum();
        assert_eq!(m.aug_left(&probe), left, "aug_left({probe})");
        let right: u64 = o.range(probe..).map(|(_, &v)| v).sum();
        assert_eq!(m.aug_right(&probe), right, "aug_right({probe})");
    }
    for (lo, hi) in [(0u64, 5000u64), (100, 200), (2500, 2500), (4000, 100)] {
        let want: u64 = if lo <= hi {
            o.range(lo..=hi).map(|(_, &v)| v).sum()
        } else {
            0
        };
        assert_eq!(m.aug_range(&lo, &hi), want, "aug_range({lo},{hi})");
        // aug_project with the identity projection must agree
        let proj = m.aug_project(&lo, &hi, |a| *a, |x, y| x + y, 0u64);
        assert_eq!(proj, want, "aug_project({lo},{hi})");
    }
    // aug_filter: keep entries with value above a threshold, using MaxAug
    let mm: AugMap<pam::MaxAug<u64, u64>, B> = AugMap::build(ps.clone());
    let theta = 800u64;
    let kept = mm.aug_filter(|&a| a > theta);
    kept.check_invariants().unwrap();
    let want: Vec<(u64, u64)> = o
        .iter()
        .filter(|(_, &v)| v > theta)
        .map(|(&k, &v)| (k, v))
        .collect();
    assert_eq!(kept.to_vec(), want);
}

#[test]
fn iterator_is_exact_size_and_sorted() {
    let m: AugMap<SumAug<u32, u64>> =
        AugMap::build((0..1000u32).map(|i| ((i * 7) % 1001, i as u64)).collect());
    let it = m.iter();
    assert_eq!(it.len(), m.len());
    let keys: Vec<u32> = m.iter().map(|(&k, _)| k).collect();
    assert!(keys.windows(2).all(|w| w[0] < w[1]));
    // size_hint stays consistent while consuming
    let mut it = m.iter();
    for consumed in 0..m.len() {
        assert_eq!(
            it.size_hint(),
            (m.len() - consumed, Some(m.len() - consumed))
        );
        it.next();
    }
    assert_eq!(it.next(), None);
}

#[test]
fn weight_balanced_all() {
    run_all::<WeightBalanced>();
}

#[test]
fn block_size_1_all() {
    run_all::<WeightBalancedCap<1>>();
}

#[test]
fn block_size_2_all() {
    run_all::<WeightBalancedCap<2>>();
}
