//! Black-box tests for the chunked parallel iterator drivers.
//!
//! Three families:
//!
//! 1. **Parity** — property tests asserting every driver produces exactly
//!    the result of its sequential `std::iter` equivalent across input
//!    lengths 0..~10k (chunked fork/merge must be invisible in results).
//! 2. **Forking** — on a multi-core host the drivers must actually run on
//!    more than one thread; on a single hardware thread they must fall
//!    back to pure inline execution.
//! 3. **Determinism** — under `ThreadPool::install(1)` every driver runs
//!    on the calling thread only.

use proptest::prelude::*;
use rayon::prelude::*;
use std::collections::HashSet;
use std::sync::Mutex;
use std::thread::ThreadId;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn collect_matches_sequential(v in proptest::collection::vec(0u64..1_000_000, 0..10_000)) {
        let par: Vec<u64> = v.par_iter().map(|&x| x.wrapping_mul(31).wrapping_add(7)).collect();
        let seq: Vec<u64> = v.iter().map(|&x| x.wrapping_mul(31).wrapping_add(7)).collect();
        prop_assert_eq!(par, seq);
    }

    #[test]
    fn sum_matches_sequential(v in proptest::collection::vec(0u64..1_000_000, 0..10_000)) {
        let par: u64 = v.par_iter().map(|&x| x).sum();
        let seq: u64 = v.iter().sum();
        prop_assert_eq!(par, seq);
    }

    #[test]
    fn count_and_filter_match_sequential(v in proptest::collection::vec(0u32..100, 0..10_000)) {
        let par = v.par_iter().filter(|&&x| x % 3 == 0).count();
        let seq = v.iter().filter(|&&x| x % 3 == 0).count();
        prop_assert_eq!(par, seq);
    }

    #[test]
    fn fold_reduce_matches_sequential(v in proptest::collection::vec(0u64..1_000_000, 0..10_000)) {
        let par: u64 = v
            .par_iter()
            .map(|&x| x)
            .fold(|| 0u64, |s, x| s.wrapping_add(x))
            .reduce(|| 0u64, u64::wrapping_add);
        let seq: u64 = v.iter().fold(0u64, |s, &x| s.wrapping_add(x));
        prop_assert_eq!(par, seq);
    }

    #[test]
    fn reduce_matches_sequential(v in proptest::collection::vec(1u64..1_000, 0..10_000)) {
        let par: u64 = v.par_iter().map(|&x| x).reduce(|| 0u64, u64::wrapping_add);
        let seq: u64 = v.iter().sum();
        prop_assert_eq!(par, seq);
    }

    #[test]
    fn min_max_match_sequential(v in proptest::collection::vec(0i64..1_000_000, 0..10_000)) {
        prop_assert_eq!(v.par_iter().map(|&x| x).min(), v.iter().copied().min());
        prop_assert_eq!(v.par_iter().map(|&x| x).max(), v.iter().copied().max());
    }

    #[test]
    fn par_sort_unstable_matches_std(mut v in proptest::collection::vec(0u64..50_000, 0..10_000)) {
        let mut expect = v.clone();
        expect.sort_unstable();
        v.par_sort_unstable();
        prop_assert_eq!(v, expect);
    }

    #[test]
    fn par_sort_unstable_by_sorts_and_permutes(v in proptest::collection::vec((0u8..8, 0u32..100_000), 0..10_000)) {
        // unstable sorts may order equal keys differently, so assert the
        // two things an unstable sort owes us: sorted by the comparator,
        // and a permutation of the input.
        let mut got = v.clone();
        got.par_sort_unstable_by(|a, b| a.0.cmp(&b.0));
        prop_assert!(got.windows(2).all(|w| w[0].0 <= w[1].0));
        let mut got_full = got.clone();
        let mut expect_full = v.clone();
        got_full.sort_unstable();
        expect_full.sort_unstable();
        prop_assert_eq!(got_full, expect_full);
    }

    #[test]
    fn enumerate_zip_flat_map_match_sequential(v in proptest::collection::vec(0u32..1_000, 0..5_000)) {
        let par: Vec<(usize, u32)> = v.par_iter().enumerate().map(|(i, &x)| (i, x)).collect();
        let seq: Vec<(usize, u32)> = v.iter().enumerate().map(|(i, &x)| (i, x)).collect();
        prop_assert_eq!(par, seq);

        let par: Vec<u32> = v.par_iter().zip(v.par_iter()).map(|(&a, &b)| a + b).collect();
        let seq: Vec<u32> = v.iter().zip(v.iter()).map(|(&a, &b)| a + b).collect();
        prop_assert_eq!(par, seq);

        let par: Vec<u32> = v.par_iter().flat_map_iter(|&x| 0..(x % 4)).collect();
        let seq: Vec<u32> = v.iter().flat_map(|&x| 0..(x % 4)).collect();
        prop_assert_eq!(par, seq);
    }
}

fn hardware_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Run `body` (which records the threads it executes on into the set)
/// until it is observed on >1 thread, retrying a few times because the
/// pool is process-global and its workers may be busy with concurrently
/// running tests. On a single hardware thread, assert the
/// inline fallback instead: exactly the calling thread.
fn assert_forks(name: &str, body: impl Fn(&Mutex<HashSet<ThreadId>>)) {
    if hardware_threads() <= 1 {
        let ids = Mutex::new(HashSet::new());
        body(&ids);
        let ids = ids.into_inner().unwrap();
        assert_eq!(
            ids.into_iter().collect::<Vec<_>>(),
            vec![std::thread::current().id()],
            "{name}: on 1 hardware thread everything must run inline"
        );
        return;
    }
    for _ in 0..25 {
        let ids = Mutex::new(HashSet::new());
        body(&ids);
        if ids.into_inner().unwrap().len() > 1 {
            return;
        }
    }
    panic!(
        "{name} never ran on more than one thread on a {}-core host",
        hardware_threads()
    );
}

fn record(ids: &Mutex<HashSet<ThreadId>>) {
    ids.lock().unwrap().insert(std::thread::current().id());
}

#[test]
fn for_each_forks_on_multicore() {
    assert_forks("for_each", |ids| {
        (0..1_000_000u64).into_par_iter().for_each(|i| {
            std::hint::black_box(i.wrapping_mul(0x9e3779b97f4a7c15));
            if i % 4096 == 0 {
                record(ids);
            }
        });
    });
}

#[test]
fn collect_forks_on_multicore() {
    assert_forks("collect", |ids| {
        let v: Vec<u64> = (0..1_000_000u64)
            .into_par_iter()
            .map(|i| {
                if i % 4096 == 0 {
                    record(ids);
                }
                i.wrapping_mul(3)
            })
            .collect();
        assert_eq!(v.len(), 1_000_000);
        assert_eq!(v[999_999], 999_999 * 3);
    });
}

#[test]
fn sum_forks_on_multicore() {
    assert_forks("sum", |ids| {
        let s: u64 = (0..1_000_000u64)
            .into_par_iter()
            .map(|i| {
                if i % 4096 == 0 {
                    record(ids);
                }
                i
            })
            .sum();
        assert_eq!(s, 999_999 * 1_000_000 / 2);
    });
}

#[test]
fn par_sort_forks_on_multicore() {
    let base: Vec<u64> = (0..300_000u64)
        .map(|i| i.wrapping_mul(0x9e3779b97f4a7c15) >> 3)
        .collect();
    let mut expect = base.clone();
    expect.sort_unstable();
    assert_forks("par_sort_unstable_by", |ids| {
        let mut v = base.clone();
        v.par_sort_unstable_by(|a, b| {
            // sample sparsely: the comparator runs millions of times
            if (a.wrapping_add(*b)) % 8192 == 0 {
                record(ids);
            }
            a.cmp(b)
        });
        assert_eq!(v, expect);
    });
}

#[test]
fn install_one_runs_inline_and_deterministic() {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap();
    let me = std::thread::current().id();
    let (a, b) = pool.install(|| {
        let ids = Mutex::new(HashSet::new());
        let v: Vec<u64> = (0..200_000u64)
            .into_par_iter()
            .map(|x| {
                if x % 1024 == 0 {
                    record(&ids);
                }
                x.wrapping_mul(7)
            })
            .collect();
        let s: u64 = v.par_iter().map(|&x| x).sum();
        let mut sorted: Vec<u64> = v.iter().rev().copied().collect();
        sorted.par_sort_unstable_by(|a, b| {
            if a.wrapping_add(*b) % 512 == 0 {
                record(&ids);
            }
            a.cmp(b)
        });
        assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
        let ids = ids.into_inner().unwrap();
        assert_eq!(
            ids.into_iter().collect::<Vec<_>>(),
            vec![me],
            "install(1) must keep every driver on the calling thread"
        );
        (v[123_456], s)
    });
    // byte-for-byte the sequential result
    assert_eq!(a, 123_456 * 7);
    assert_eq!(b, (0..200_000u64).map(|x| x.wrapping_mul(7)).sum::<u64>());
}

#[test]
fn chunked_path_matches_sequential_even_without_spare_cores() {
    // install(8) forces the drivers to *split* regardless of the real
    // core count (forks nobody steals just run inline), so this
    // exercises the chunk/merge machinery even on a 1-core host.
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(8)
        .build()
        .unwrap();
    pool.install(|| {
        for n in [0usize, 1, 2, 3, 7, 31, 100, 1_023, 4_096, 9_999] {
            let v: Vec<u64> = (0..n as u64).map(|i| i.wrapping_mul(0x9e37) >> 2).collect();

            let par: Vec<u64> = v.par_iter().map(|&x| x ^ 1).collect();
            let seq: Vec<u64> = v.iter().map(|&x| x ^ 1).collect();
            assert_eq!(par, seq, "collect, n={n}");

            assert_eq!(
                v.par_iter().map(|&x| x).sum::<u64>(),
                v.iter().sum::<u64>(),
                "sum, n={n}"
            );
            assert_eq!(
                v.par_iter().filter(|&&x| x % 5 == 0).count(),
                v.iter().filter(|&&x| x % 5 == 0).count(),
                "count, n={n}"
            );
            assert_eq!(
                v.par_iter().map(|&x| x).min(),
                v.iter().copied().min(),
                "min, n={n}"
            );
            assert_eq!(
                v.par_iter()
                    .map(|&x| x)
                    .fold(|| 0u64, |s, x| s.wrapping_add(x))
                    .reduce(|| 0u64, u64::wrapping_add),
                v.iter().fold(0u64, |s, &x| s.wrapping_add(x)),
                "fold+reduce, n={n}"
            );

            let par: Vec<(usize, u64)> = v.par_iter().enumerate().map(|(i, &x)| (i, x)).collect();
            let seq: Vec<(usize, u64)> = v.iter().enumerate().map(|(i, &x)| (i, x)).collect();
            assert_eq!(par, seq, "enumerate, n={n}");

            let par: Vec<u64> = v.par_iter().flat_map_iter(|&x| 0..(x % 3)).collect();
            let seq: Vec<u64> = v.iter().flat_map(|&x| 0..(x % 3)).collect();
            assert_eq!(par, seq, "flat_map_iter, n={n}");

            if n > 0 {
                let par: Vec<u64> = v.par_windows(3).map(|w| w.iter().sum()).collect();
                let seq: Vec<u64> = v.windows(3).map(|w| w.iter().sum()).collect();
                assert_eq!(par, seq, "windows, n={n}");

                let par: Vec<usize> = v.par_chunks(7).map(|c| c.len()).collect();
                let seq: Vec<usize> = v.chunks(7).map(|c| c.len()).collect();
                assert_eq!(par, seq, "chunks, n={n}");
            }

            let mut got = v.clone();
            got.par_sort_unstable();
            let mut expect = v.clone();
            expect.sort_unstable();
            assert_eq!(got, expect, "sort, n={n}");
        }
        // sort sizes big enough to cross MIN_PAR_SORT and split runs
        for n in [5_000usize, 50_000, 123_457] {
            let mut got: Vec<u64> = (0..n as u64)
                .map(|i| i.wrapping_mul(0x9e3779b97f4a7c15) >> 7)
                .collect();
            let mut expect = got.clone();
            expect.sort_unstable();
            got.par_sort_unstable();
            assert_eq!(got, expect, "large sort, n={n}");
        }
    });
}

#[test]
fn chunked_zip_scan_shape_is_consistent() {
    // the scan-style composition parlay uses: chunks_mut zip chunks zip
    // per-chunk offsets, driven in parallel
    let n = 100_000;
    let cl = 1 + n / 64;
    let v: Vec<u64> = (0..n as u64).collect();
    let offsets: Vec<u64> = v
        .chunks(cl)
        .scan(0u64, |acc, c| {
            let out = *acc;
            *acc += c.iter().sum::<u64>();
            Some(out)
        })
        .collect();
    let mut out = vec![0u64; n];
    out.par_chunks_mut(cl)
        .zip(v.par_chunks(cl))
        .zip(offsets.par_iter())
        .for_each(|((oc, vc), &off)| {
            let mut acc = off;
            for (slot, &x) in oc.iter_mut().zip(vc) {
                acc += x;
                *slot = acc;
            }
        });
    let mut acc = 0u64;
    for (i, &x) in v.iter().enumerate() {
        acc += x;
        assert_eq!(out[i], acc);
    }
}
