//! Cross-crate integration tests: the applications, the core library and
//! the workload generators working together, each checked against a
//! brute-force loop or a `BTreeMap`.

use pam::{AugMap, MaxAug, SumAug};
use pam_index::{top_k, InvertedIndex};
use pam_interval::IntervalMap;
use pam_rangetree::RangeTree;

#[test]
fn equation1_range_sum_pipeline() {
    // build -> aug queries -> bulk update -> persistence, end to end
    let pairs = workloads::uniform_pairs(50_000, 1, 200_000);
    let m: AugMap<SumAug<u64, u64>> =
        AugMap::build_with(pairs.clone(), |a: &u64, b: &u64| a.wrapping_add(*b));
    let brute: u64 = pairs.iter().map(|&(_, v)| v).fold(0, u64::wrapping_add);
    assert_eq!(m.aug_val(), brute);

    let lo = 50_000u64;
    let hi = 150_000u64;
    let mut oracle = std::collections::BTreeMap::new();
    for &(k, v) in &pairs {
        oracle
            .entry(k)
            .and_modify(|x: &mut u64| *x = x.wrapping_add(v))
            .or_insert(v);
    }
    let want: u64 = oracle
        .range(lo..=hi)
        .fold(0u64, |s, (_, &v)| s.wrapping_add(v));
    assert_eq!(m.aug_range(&lo, &hi), want);
}

#[test]
fn interval_tree_on_generated_sessions() {
    let sessions = workloads::random_intervals(20_000, 2, 100_000, 500);
    let tree = IntervalMap::from_intervals(sessions.clone());
    for p in (0..100_000).step_by(997) {
        let mut covering: Vec<(u64, u64)> = sessions
            .iter()
            .copied()
            .filter(|&(l, r)| l <= p && p < r)
            .collect();
        covering.sort_unstable();
        assert_eq!(tree.stab(p), !covering.is_empty());
        assert_eq!(tree.report_all(p), covering);
    }
}

#[test]
fn range_tree_matches_brute_force() {
    let pts = workloads::random_points(20_000, 3, 1 << 12);
    // the PAM tree sums the weights of duplicate (x,y) points
    let mut dedup = std::collections::BTreeMap::new();
    for &(x, y, w) in &pts {
        *dedup.entry((x, y)).or_insert(0u64) += w;
    }
    let flat: Vec<(u32, u32, u64)> = dedup.iter().map(|(&(x, y), &w)| (x, y, w)).collect();

    let pam_tree = RangeTree::build(flat.clone());
    for &(xl, xr, yl, yr) in &workloads::points::query_windows(100, 4, 1 << 12, 0.1) {
        // `flat` comes out of the BTreeMap sorted by (x, y), the order
        // `query_points` reports in
        let inside: Vec<(u32, u32, u64)> = flat
            .iter()
            .copied()
            .filter(|&(x, y, _)| xl <= x && x <= xr && yl <= y && y <= yr)
            .collect();
        let sum = inside.iter().fold(0u64, |s, &(_, _, w)| s.wrapping_add(w));
        assert_eq!(pam_tree.query_sum(xl, xr, yl, yr), sum);
        assert_eq!(pam_tree.query_points(xl, xr, yl, yr), inside);
    }
}

#[test]
fn inverted_index_over_corpus_with_concurrent_updates() {
    let corpus = workloads::Corpus::generate(workloads::CorpusConfig {
        docs: 500,
        vocab: 2_000,
        doc_len: 80,
        zipf_s: 1.0,
        seed: 4,
    });
    let idx = std::sync::Arc::new(InvertedIndex::build(corpus.triples.clone()));
    let queries = corpus.query_pairs(100, 5);

    // concurrent snapshot queries while the "main" copy merges updates
    let reader = {
        let idx = idx.clone();
        let queries = queries.clone();
        std::thread::spawn(move || {
            queries
                .iter()
                .map(|&(a, b)| top_k(&idx.and_query(a, b), 10).len())
                .sum::<usize>()
        })
    };
    let mut live = idx.as_ref().clone();
    live.merge(vec![(0, 9_999_999, 1)]);
    let before = reader.join().unwrap();
    // re-running the same queries on the snapshot yields the same totals
    let after: usize = queries
        .iter()
        .map(|&(a, b)| top_k(&idx.and_query(a, b), 10).len())
        .sum();
    assert_eq!(before, after);
    assert!(live.posting(0).contains_key(&9_999_999));
}

#[test]
fn union_agrees_with_btreemap_merge() {
    let pa = workloads::uniform_pairs(5_000, 6, 20_000);
    let pb = workloads::uniform_pairs(5_000, 7, 20_000);
    let ma: AugMap<SumAug<u64, u64>> = AugMap::build(pa.clone());
    let mb: AugMap<SumAug<u64, u64>> = AugMap::build(pb.clone());
    let pam_union = ma.union_with(mb, |x, y| x.wrapping_add(*y)).to_vec();

    // `build` keeps the last value of a repeated key, as `collect` does
    let mut merged: std::collections::BTreeMap<u64, u64> = pa.into_iter().collect();
    let sb: std::collections::BTreeMap<u64, u64> = pb.into_iter().collect();
    for (k, v) in sb {
        merged
            .entry(k)
            .and_modify(|x| *x = x.wrapping_add(v))
            .or_insert(v);
    }
    assert_eq!(pam_union, merged.into_iter().collect::<Vec<_>>());
}

#[test]
fn bplustree_agrees_with_btreemap_on_shuffled_loads() {
    let keys = workloads::distinct_shuffled_keys(20_000, 8, 5);
    let bp = baselines::BPlusTree::new();
    let mut oracle = std::collections::BTreeMap::new();
    for &k in &keys {
        bp.insert(k, k + 1);
        oracle.insert(k, k + 1);
    }
    for &k in workloads::read_probes(2_000, 9, &keys).iter() {
        assert_eq!(bp.get(k), oracle.get(&k).copied());
    }
    assert_eq!(bp.len(), oracle.len());
}

#[test]
fn word_count_with_plain_ordered_map() {
    // OrdMap (NoAug) as a general-purpose ordered map
    let words = ["the", "quick", "the", "fox", "the", "quick"];
    let mut m: pam::OrdMap<String, u64> = pam::OrdMap::new();
    for w in words {
        m.insert_with(w.to_string(), 1, |a, b| a + b);
    }
    assert_eq!(m.get(&"the".to_string()), Some(&3));
    assert_eq!(m.get(&"quick".to_string()), Some(&2));
    assert_eq!(m.len(), 3);
}

#[test]
fn max_aug_top_k_against_sort() {
    let pairs = workloads::uniform_pairs(10_000, 11, 1 << 30);
    let posting: AugMap<MaxAug<u32, u64>> = AugMap::build(
        pairs
            .iter()
            .map(|&(k, v)| ((k % 100_000) as u32, v))
            .collect(),
    );
    let got = top_k(&posting, 25);
    let mut sorted = posting.to_vec();
    sorted.sort_by_key(|&(_, w)| std::cmp::Reverse(w));
    let want_weights: Vec<u64> = sorted.iter().take(25).map(|&(_, w)| w).collect();
    let got_weights: Vec<u64> = got.iter().map(|&(_, w)| w).collect();
    assert_eq!(got_weights, want_weights);
}
