//! Property tests for the parallel primitives: every parallel routine
//! agrees with its obvious sequential counterpart on arbitrary inputs.

use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn par_sort_matches_std_stable_sort(mut v in proptest::collection::vec((0u8..16, 0u32..1000), 0..3000)) {
        let mut expect = v.clone();
        expect.sort_by_key(|a| a.0); // stable
        parlay::par_sort_by(&mut v, |a, b| a.0.cmp(&b.0));
        prop_assert_eq!(v, expect);
    }

    #[test]
    fn merge_matches_concat_sort(a in proptest::collection::vec(0u64..500, 0..3000),
                                 b in proptest::collection::vec(0u64..500, 0..3000)) {
        let mut sa = a.clone();
        sa.sort();
        let mut sb = b.clone();
        sb.sort();
        // SAFETY: `par_merge_into` writes every slot of an `out` as long as
        // its two inputs together
        let got = unsafe {
            parlay::par_fill(sa.len() + sb.len(), |out| {
                parlay::par_merge_into(&sa, &sb, out, &|x: &u64, y: &u64| x.cmp(y))
            })
        };
        let mut expect = [sa, sb].concat();
        expect.sort();
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn pack_matches_filter(v in proptest::collection::vec(0u32..100, 0..10_000),
                           seed in 0u32..100) {
        let flags: Vec<bool> = v.iter().map(|&x| (x + seed) % 3 == 0).collect();
        let got = parlay::pack_index(&flags);
        let expect: Vec<usize> = (0..v.len()).filter(|&i| flags[i]).collect();
        prop_assert_eq!(got, expect);
    }

    // The three index-range drivers against their `std::iter` forms, on
    // the default pool and on one wide enough to split short ranges too.

    #[test]
    fn tabulate_matches_sequential_map(v in proptest::collection::vec(0u64..1000, 0..10_000),
                                       threads in 1usize..9) {
        let expect: Vec<(usize, String)> = v.iter().map(|x| x.to_string()).enumerate().collect();
        let f = |i: usize| (i, v[i].to_string());
        prop_assert_eq!(&parlay::tabulate(v.len(), f), &expect);
        prop_assert_eq!(&parlay::with_threads(threads, || parlay::tabulate(v.len(), f)), &expect);
    }

    #[test]
    fn sum_matches(v in proptest::collection::vec(0u64..1_000_000, 0..10_000)) {
        let got = parlay::reduce(v.len(), |i| v[i], |a, b| a + b, 0);
        prop_assert_eq!(got, v.iter().sum::<u64>());
    }

    #[test]
    fn reduce_matches_sequential_fold(v in proptest::collection::vec(0u64..1000, 0..10_000),
                                      threads in 1usize..9) {
        // concatenation is associative and does not commute
        let expect: String = v.iter().map(|x| format!("{x},")).collect();
        let concat = || parlay::reduce(v.len(), |i| format!("{},", v[i]), |a, b| a + &b, String::new());
        prop_assert_eq!(&concat(), &expect);
        prop_assert_eq!(&parlay::with_threads(threads, concat), &expect);
    }

    #[test]
    fn for_each_visits_every_index_once(n in 0usize..10_000, threads in 1usize..9) {
        use std::sync::atomic::{AtomicU8, Ordering};
        let seen: Vec<AtomicU8> = (0..n).map(|_| AtomicU8::new(0)).collect();
        let visit = |i: usize| {
            seen[i].fetch_add(1, Ordering::SeqCst);
        };
        parlay::for_each(n, visit);
        parlay::with_threads(threads, || parlay::for_each(n, visit));
        prop_assert!(seen.iter().all(|s| s.load(Ordering::SeqCst) == 2));
    }

    #[test]
    fn combine_duplicates_matches_fold(mut v in proptest::collection::vec((0u16..50, 1u64..10), 0..10_000)) {
        v.sort_by_key(|&(k, _)| k);
        let got = parlay::combine_duplicates_by(v.clone(), |a, b| a.0 == b.0, |a, b| (a.0, a.1 + b.1));
        let mut expect: Vec<(u16, u64)> = Vec::new();
        for (k, x) in v {
            match expect.last_mut() {
                Some(last) if last.0 == k => last.1 += x,
                _ => expect.push((k, x)),
            }
        }
        prop_assert_eq!(got, expect);
    }

}
