//! A batch reaches the tree by move: no bulk load, batch update or point
//! insert clones a key or value of its input on an unshared map, and a
//! `combine` or `resolve` that panics part-way drops no element twice.
//!
//! Each test owns its element type and the global counter behind it, so
//! tests running side by side do not see each other's elements.

use pam::{AugMap, NoAug};
use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering::Relaxed};
use std::sync::Mutex;

static CLONES: AtomicUsize = AtomicUsize::new(0);

/// A key or value that owns a buffer, as the store's byte strings do,
/// and counts its clones.
#[derive(PartialEq, Eq, PartialOrd, Ord, Debug)]
struct Counted(Box<u64>);

impl Clone for Counted {
    fn clone(&self) -> Self {
        CLONES.fetch_add(1, Relaxed);
        Counted(self.0.clone())
    }
}

fn c(n: u64) -> Counted {
    Counted(Box::new(n))
}

type CountedMap = AugMap<NoAug<Counted, Counted>>;

/// `n` pairs over `n / 2` scattered keys (so every key repeats), the
/// value the position.
fn scattered(n: u64) -> Vec<(Counted, Counted)> {
    (0..n)
        .map(|i| (c(i.wrapping_mul(0x9e37_79b9_7f4a_7c15) % (n / 2)), c(i)))
        .collect()
}

/// The clones `f` makes.
fn clones_of<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let before = CLONES.load(Relaxed);
    let out = f();
    (CLONES.load(Relaxed) - before, out)
}

fn pairs(m: &CountedMap) -> Vec<(u64, u64)> {
    let mut out = Vec::with_capacity(m.len());
    m.for_each(|k, v| out.push((*k.0, *v.0)));
    out
}

#[test]
fn no_batch_key_or_value_is_cloned_on_an_unshared_map() {
    // above the grain, so the sort, the dedup and the batch recursion
    // fork on a pool of two or three
    const N: u64 = 40_000;
    for threads in [1, 2, 3] {
        parlay::with_threads(threads, || {
            let at = |what: &str| format!("{what}, {threads} threads");
            // build, last value wins, and build_with over duplicates
            let (n, built) = clones_of(|| CountedMap::build(scattered(N)));
            assert_eq!(n, 0, "{}", at("build"));
            let (n, summed) =
                clones_of(|| CountedMap::build_with(scattered(N), |a, b| c(*a.0 + *b.0)));
            assert_eq!(n, 0, "{}", at("build_with"));
            assert_eq!(built.len(), summed.len());
            drop(summed);

            // an owned sorted Vec is moved in; a borrowed one is cloned once
            let sorted = || (0..N).map(|i| (c(2 * i), c(i))).collect::<Vec<_>>();
            let (n, mut m) = clones_of(|| CountedMap::from_sorted_distinct(sorted()));
            assert_eq!(n, 0, "{}", at("from_sorted_distinct(Vec)"));
            let borrowed = sorted();
            let (n, _) = clones_of(|| CountedMap::from_sorted_distinct(&borrowed));
            assert_eq!(n, 2 * N as usize, "{}", at("from_sorted_distinct(&Vec)"));

            // batch updates into the map: half the keys new, half present,
            // with repeats inside the batch
            let (n, ()) = clones_of(|| m.multi_insert(scattered(N)));
            assert_eq!(n, 0, "{}", at("multi_insert"));
            let batch: Vec<(Counted, Option<Counted>)> = (0..N)
                .map(|i| (c(i * 3 % N), (i % 4 != 0).then(|| c(i))))
                .collect();
            let (n, ()) = clones_of(|| m.multi_update(batch));
            assert_eq!(n, 0, "{}", at("multi_update"));

            // point inserts: a new key, then over a present one
            let (n, ()) = clones_of(|| m.insert(c(2 * N + 1), c(7)));
            assert_eq!(n, 0, "{}", at("insert (new key)"));
            let (n, ()) = clones_of(|| m.insert(c(2 * N + 1), c(8)));
            assert_eq!(n, 0, "{}", at("insert (present key)"));

            // and the result is what the operations say
            let want = {
                let mut o = std::collections::BTreeMap::new();
                o.extend((0..N).map(|i| (2 * i, i)));
                for i in 0..N {
                    o.insert(i.wrapping_mul(0x9e37_79b9_7f4a_7c15) % (N / 2), i);
                }
                for i in 0..N {
                    match (i % 4 != 0).then_some(i) {
                        Some(v) => o.insert(i * 3 % N, v),
                        None => o.remove(&(i * 3 % N)),
                    };
                }
                o.insert(2 * N + 1, 8);
                o.into_iter().collect::<Vec<_>>()
            };
            assert_eq!(pairs(&m), want, "{}", at("contents"));
            m.check_invariants().unwrap();
        });
    }
}

/// Every element's ID goes in here when it is dropped, and a drop of an
/// ID already in it counts in `TWICE`.
static DROPPED: Mutex<Option<HashSet<u32>>> = Mutex::new(None);
static TWICE: AtomicUsize = AtomicUsize::new(0);
static NEXT_ID: AtomicU32 = AtomicU32::new(0);

/// (key, ID): ordered by key; a clone or a new element gets a fresh ID.
#[derive(Debug)]
struct Tracked(u64, u32);

fn t(key: u64) -> Tracked {
    Tracked(key, NEXT_ID.fetch_add(1, Relaxed))
}

impl Clone for Tracked {
    fn clone(&self) -> Self {
        t(self.0)
    }
}

impl Drop for Tracked {
    fn drop(&mut self) {
        let mut set = DROPPED.lock().unwrap_or_else(|e| e.into_inner());
        if !set.get_or_insert_with(HashSet::new).insert(self.1) {
            TWICE.fetch_add(1, Relaxed);
        }
    }
}

impl PartialEq for Tracked {
    fn eq(&self, other: &Self) -> bool {
        self.0 == other.0
    }
}

impl Eq for Tracked {}

impl PartialOrd for Tracked {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Tracked {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.cmp(&other.0)
    }
}

type TrackedMap = AugMap<NoAug<Tracked, Tracked>>;

/// A closure body that panics on its `k`-th call.
fn boom_at(k: usize) -> impl Fn() + Sync {
    let calls = AtomicUsize::new(0);
    move || {
        if calls.fetch_add(1, Relaxed) == k {
            panic!("call {k}");
        }
    }
}

/// Make the input with `setup`, then run `f` on it, which must panic.
/// Every element created since `setup` began is dropped at most once
/// (elements may leak, as the sort's and the dedup's contract allows).
fn panics_without_double_drop<T>(what: &str, setup: impl FnOnce() -> T, f: impl FnOnce(T)) {
    *DROPPED.lock().unwrap() = Some(HashSet::new());
    TWICE.store(0, Relaxed);
    let first = NEXT_ID.load(Relaxed);
    let input = setup();
    let caught = catch_unwind(AssertUnwindSafe(|| f(input)));
    let panic = caught.expect_err("the panic must reach the caller");
    assert!(
        panic
            .downcast_ref::<String>()
            .is_some_and(|m| m.starts_with("call ")),
        "{what}"
    );
    assert_eq!(TWICE.load(Relaxed), 0, "{what}: elements dropped twice");
    let created = (NEXT_ID.load(Relaxed) - first) as usize;
    let dropped = DROPPED.lock().unwrap().as_ref().map_or(0, HashSet::len);
    assert!(
        dropped <= created,
        "{what}: {dropped} drops of {created} elements"
    );
}

#[test]
fn a_panicking_combine_or_resolve_drops_no_element_twice() {
    const N: u64 = 20_000;
    // every key of 0..N once, scattered
    let batch = || (0..N).map(|i| (t(i * 7 % N), t(i))).collect::<Vec<_>>();
    let base =
        || TrackedMap::from_sorted_distinct((0..N).map(|i| (t(2 * i), t(i))).collect::<Vec<_>>());
    for threads in [1, 2, 3] {
        // the dedup folds N pairs, the batch meets N / 2 present keys
        for k in [0, 1, 500, 9_999] {
            let at = |what: &str| format!("{what}: call {k}, {threads} threads");
            parlay::with_threads(threads, || {
                // `combine` in the dedup: every key twice
                let boom = boom_at(k);
                panics_without_double_drop(
                    &at("build_with"),
                    || batch().into_iter().chain(batch()).collect::<Vec<_>>(),
                    |items| {
                        TrackedMap::build_with(items, |a, _| {
                            boom();
                            a.clone()
                        });
                    },
                );
                // `combine` in the batch recursion's `resolve`
                let boom = boom_at(k);
                panics_without_double_drop(
                    &at("multi_insert_with"),
                    || (base(), batch()),
                    |(mut m, batch)| {
                        m.multi_insert_with(batch, |old, _| {
                            boom();
                            old.clone()
                        })
                    },
                );
                // a point update's `resolve`
                let boom = boom_at(0);
                panics_without_double_drop(
                    &at("update"),
                    || (base(), t(2 * (k as u64))),
                    |(mut m, key)| {
                        m.update(&key, |v| {
                            boom();
                            Some(v.clone())
                        })
                    },
                );
            });
        }
    }
}
