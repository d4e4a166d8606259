//! A batch reaches the tree by move: no bulk load, batch update or point
//! insert clones a key or value of its input on an unshared map, and a
//! `combine` or `resolve` that panics part-way drops no element twice.
//! A range extracted from or a filter of a shared map clones only the
//! entries it keeps, and an update of a shared map one block and one
//! path per key. A union, intersection or difference clones nothing of
//! unshared maps and at most one copy of each entry of shared ones. A
//! split by key or rank, and a `join2`, clone nothing of an unshared map
//! and at most two blocks and two paths of a shared one.
//!
//! Each test owns its element type and the global counter behind it, so
//! tests running side by side do not see each other's elements.

use pam::balance::leaf_cap;
use pam::node::{size, Tree};
use pam::ops::split::{join2, split, split_rank};
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

/// The clones `f` makes, as `counter` counts them.
fn clones_of<T>(counter: &AtomicUsize, f: impl FnOnce() -> T) -> (usize, T) {
    let before = counter.load(Relaxed);
    let out = f();
    (counter.load(Relaxed) - before, out)
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
            let (n, built) = clones_of(&CLONES, || CountedMap::build(scattered(N)));
            assert_eq!(n, 0, "{}", at("build"));
            let (n, summed) = clones_of(&CLONES, || {
                CountedMap::build_with(scattered(N), |a, b| c(*a.0 + *b.0))
            });
            assert_eq!(n, 0, "{}", at("build_with"));
            assert_eq!(built.len(), summed.len());
            drop(summed);

            // an owned sorted Vec is moved in; a borrowed one is cloned once
            let sorted = || (0..N).map(|i| (c(2 * i), c(i))).collect::<Vec<_>>();
            let (n, mut m) = clones_of(&CLONES, || CountedMap::from_sorted_distinct(sorted()));
            assert_eq!(n, 0, "{}", at("from_sorted_distinct(Vec)"));
            let borrowed = sorted();
            let (n, _) = clones_of(&CLONES, || CountedMap::from_sorted_distinct(&borrowed));
            assert_eq!(n, 2 * N as usize, "{}", at("from_sorted_distinct(&Vec)"));

            // batch updates into the map: half the keys new, half present,
            // with repeats inside the batch
            let (n, ()) = clones_of(&CLONES, || m.multi_insert(scattered(N)));
            assert_eq!(n, 0, "{}", at("multi_insert"));
            let batch: Vec<(Counted, Option<Counted>)> = (0..N)
                .map(|i| (c(i * 3 % N), (i % 4 != 0).then(|| c(i))))
                .collect();
            let (n, ()) = clones_of(&CLONES, || m.multi_update(batch));
            assert_eq!(n, 0, "{}", at("multi_update"));

            // point inserts: a new key, then over a present one
            let (n, ()) = clones_of(&CLONES, || m.insert(c(2 * N + 1), c(7)));
            assert_eq!(n, 0, "{}", at("insert (new key)"));
            let (n, ()) = clones_of(&CLONES, || m.insert(c(2 * N + 1), c(8)));
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

static KEY_CLONES: AtomicUsize = AtomicUsize::new(0);

/// A key that owns a buffer and counts its clones.
#[derive(PartialEq, Eq, PartialOrd, Ord, Debug)]
struct CountedKey(Box<u64>);

impl Clone for CountedKey {
    fn clone(&self) -> Self {
        KEY_CLONES.fetch_add(1, Relaxed);
        CountedKey(self.0.clone())
    }
}

#[test]
fn a_range_inside_one_block_of_a_shared_map_clones_only_its_entries() {
    const N: u64 = 10_000;
    type M = AugMap<NoAug<CountedKey, u64>>;
    let m = M::from_sorted_distinct(
        (0..N)
            .map(|i| (CountedKey(Box::new(2 * i)), i))
            .collect::<Vec<_>>(),
    );
    // each block's keys, by a walk over the tree's public shape
    fn blocks(t: &pam::node::Tree<NoAug<CountedKey, u64>>, out: &mut Vec<Vec<u64>>) {
        let Some(n) = t.as_deref() else { return };
        match (n.as_leaf(), n.children()) {
            (Some(l), _) => out.push(l.entries().iter().map(|e| *e.key.0).collect()),
            (None, Some((l, r))) => {
                blocks(l, out);
                blocks(r, out);
            }
            (None, None) => unreachable!(),
        }
    }
    let mut bs = Vec::new();
    blocks(m.root(), &mut bs);
    assert!(bs.len() > 100, "{} blocks", bs.len());
    for (i, b) in bs.iter().enumerate().step_by(17) {
        // ends on keys (the block's second and second-last), then ends
        // between keys (one below each of those)
        for (lo, hi) in [(b[1], b[b.len() - 2]), (b[1] - 1, b[b.len() - 2] - 1)] {
            let k = (lo..=hi).filter(|k| k % 2 == 0).count();
            let before = KEY_CLONES.load(Relaxed);
            let r = m.range(&CountedKey(Box::new(lo)), &CountedKey(Box::new(hi)));
            let clones = KEY_CLONES.load(Relaxed) - before;
            assert_eq!(clones, k, "block {i}: range({lo}, {hi}) holds {}", r.len());
            let got: Vec<u64> = r.iter().map(|(k, _)| *k.0).collect();
            let want: Vec<u64> = (lo..=hi).filter(|k| k % 2 == 0).collect();
            assert_eq!(got, want, "block {i}: range({lo}, {hi})");
        }
    }
    assert_eq!(m.len(), N as usize);
    m.check_invariants().unwrap();
}

static SURVIVOR_CLONES: AtomicUsize = AtomicUsize::new(0);

/// A key that owns a buffer and counts its clones, for the filter test.
#[derive(PartialEq, Eq, PartialOrd, Ord, Debug)]
struct FilterKey(Box<u64>);

impl Clone for FilterKey {
    fn clone(&self) -> Self {
        SURVIVOR_CLONES.fetch_add(1, Relaxed);
        FilterKey(self.0.clone())
    }
}

#[test]
fn a_filter_of_a_shared_map_clones_only_the_survivors() {
    const N: u64 = 10_000;
    type M = AugMap<NoAug<FilterKey, u64>>;
    let m = M::from_sorted_distinct(
        (0..N)
            .map(|i| (FilterKey(Box::new(i)), i))
            .collect::<Vec<_>>(),
    );
    let keys = |m: &M| m.iter().map(|(k, _)| *k.0).collect::<Vec<_>>();
    // one key in 7 survives, from blocks and pivots alike
    let want: Vec<u64> = (0..N).filter(|k| k % 7 == 0).collect();
    let (clones, f) = clones_of(&SURVIVOR_CLONES, || m.clone().filter(|k, _| *k.0 % 7 == 0));
    assert_eq!(keys(&f), want);
    assert_eq!(clones, want.len(), "{} survivors", want.len());
    f.check_invariants().unwrap();
    // nothing survives: a rejected pivot is not cloned either
    let (clones, none) = clones_of(&SURVIVOR_CLONES, || m.clone().filter(|_, _| false));
    assert!(none.is_empty());
    assert_eq!(clones, 0);
    // the source is intact, and unshared it filters without a clone
    assert_eq!(keys(&m), (0..N).collect::<Vec<_>>());
    let (clones, f) = clones_of(&SURVIVOR_CLONES, || m.filter(|k, _| *k.0 % 7 == 0));
    assert_eq!(keys(&f), want);
    assert_eq!(clones, 0);
}

static SETOP_CLONES: AtomicUsize = AtomicUsize::new(0);

/// A key or value that owns a buffer and counts its clones, for the set
/// operation test.
#[derive(PartialEq, Eq, PartialOrd, Ord, Debug)]
struct SetOpCounted(Box<u64>);

impl Clone for SetOpCounted {
    fn clone(&self) -> Self {
        SETOP_CLONES.fetch_add(1, Relaxed);
        SetOpCounted(self.0.clone())
    }
}

#[test]
fn set_operations_clone_nothing_unshared_and_each_entry_at_most_once_shared() {
    // above the grain, so the recursion forks on a pool of two or three
    const N: u64 = 20_000;
    type M = AugMap<NoAug<SetOpCounted, SetOpCounted>>;
    let s = |n: u64| SetOpCounted(Box::new(n));
    // scattered keys over 3N, so the operands share about a third of
    // theirs and their blocks overlap at every offset
    let keys = |salt: u64| {
        let mut k: Vec<u64> = (0..N)
            .map(|i| (i ^ salt).wrapping_mul(0x9e37_79b9_7f4a_7c15) % (3 * N))
            .collect();
        k.sort_unstable();
        k.dedup();
        k
    };
    let (ka, kb) = (keys(0), keys(0x5555));
    let build = |ks: &[u64], salt: u64| {
        M::from_sorted_distinct(ks.iter().map(|&k| (s(k), s(k + salt))).collect::<Vec<_>>())
    };
    fn sum(a: &SetOpCounted, b: &SetOpCounted) -> SetOpCounted {
        SetOpCounted(Box::new(*a.0 + *b.0))
    }
    let both: HashSet<u64> = ka
        .iter()
        .copied()
        .filter(|k| kb.binary_search(k).is_ok())
        .collect();
    let union: Vec<u64> = {
        let mut u = [ka.as_slice(), kb.as_slice()].concat();
        u.sort_unstable();
        u.dedup();
        u
    };
    let meet: Vec<u64> = ka.iter().copied().filter(|k| both.contains(k)).collect();
    let rest: Vec<u64> = ka.iter().copied().filter(|k| !both.contains(k)).collect();
    let keys_of = |m: &M| m.iter().map(|(k, _)| *k.0).collect::<Vec<_>>();
    for threads in [1, 2, 3] {
        parlay::with_threads(threads, || {
            let (a, b) = (build(&ka, 1), build(&kb, 1_000_000));
            // a copy of one key and one value per operand entry
            let at_most = 2 * (a.len() + b.len());
            type Op = fn(M, M) -> M;
            let ops: [(&str, Op, &[u64]); 3] = [
                ("union", |x, y| x.union_with(y, sum), &union),
                ("intersect", |x, y| x.intersect_with(y, sum), &meet),
                ("difference", |x, y| x.difference(y), &rest),
            ];
            for (what, op, want) in ops {
                let at = format!("{what}, {threads} threads");
                let (n, shared) = clones_of(&SETOP_CLONES, || op(a.clone(), b.clone()));
                assert!(n <= at_most, "{at}, shared: {n} clones for {at_most}");
                assert_eq!(keys_of(&shared), want, "{at}, shared");
                shared.check_invariants().unwrap();
                let (x, y) = (build(&ka, 1), build(&kb, 1_000_000));
                let (n, unshared) = clones_of(&SETOP_CLONES, || op(x, y));
                assert_eq!(n, 0, "{at}, unshared");
                assert_eq!(keys_of(&unshared), want, "{at}, unshared");
            }
            // the shared operands are intact
            assert_eq!((keys_of(&a), keys_of(&b)), (ka.clone(), kb.clone()));
        });
    }
}

static SPLIT_CLONES: AtomicUsize = AtomicUsize::new(0);

/// A key or value that owns a buffer and counts its clones, for the
/// split test.
#[derive(PartialEq, Eq, PartialOrd, Ord, Debug)]
struct SplitCounted(Box<u64>);

impl Clone for SplitCounted {
    fn clone(&self) -> Self {
        SPLIT_CLONES.fetch_add(1, Relaxed);
        SplitCounted(self.0.clone())
    }
}

#[test]
fn splits_and_join2_clone_nothing_unshared_and_a_few_blocks_and_paths_shared() {
    const N: usize = 10_000;
    type S = NoAug<SplitCounted, SplitCounted>;
    type M = AugMap<S>;
    let s = |n: usize| SplitCounted(Box::new(n as u64));
    fn height(t: &Tree<S>) -> usize {
        match t.as_deref().and_then(|n| n.children()) {
            Some((l, r)) => 1 + height(l).max(height(r)),
            None => 0,
        }
    }
    let build = || M::from_sorted_distinct((0..N).map(|i| (s(2 * i), s(i))).collect::<Vec<_>>());
    let m = build();
    // a key and a value per entry of two blocks and per pivot of two
    // root-to-leaf paths: the block the cut falls in and a pivot per
    // level it passes, and what the repairing joins on the way back up
    // copy — the one neighbouring block a fragment re-packs with, and a
    // spine descended to attach it; two legal blocks are attached whole
    let at_most = 2 * (2 * leaf_cap::<S>() + 2 * height(m.root()));
    let mut unshared = build().into_root();
    let sizes = |l: &Tree<S>, r: &Tree<S>| (size(l), size(r));
    // every 37th rank, so the cuts land inside blocks, at their ends and
    // on pivots; the keys alternate between held and absent
    for i in (0..=N).step_by(37) {
        let held = i % 2 == 0 && i < N;
        let k = s(2 * i - i % 2);
        // shared: `m` keeps every node alive
        let (n, (l, v, r)) = clones_of(&SPLIT_CLONES, || split(m.root().clone(), &k));
        assert_eq!(
            (sizes(&l, &r), v.is_some()),
            ((i, N - i - usize::from(held)), held)
        );
        let (j, _) = clones_of(&SPLIT_CLONES, || join2(l, r));
        let (n2, (l, r)) = clones_of(&SPLIT_CLONES, || split_rank(m.root().clone(), i));
        assert_eq!(sizes(&l, &r), (i, N - i));
        let (j2, _) = clones_of(&SPLIT_CLONES, || join2(l, r));
        for (what, c) in [
            ("split", n),
            ("join2", j),
            ("split_rank", n2),
            ("join2", j2),
        ] {
            assert!(c <= at_most, "{what} at {i}: {c} clones for {at_most}");
        }
        // unshared: the pieces of the last cut joined back
        let (n, (l, v, r)) = clones_of(&SPLIT_CLONES, || split(unshared.take(), &k));
        let (j, joined) = clones_of(&SPLIT_CLONES, || join2(l, r));
        let mut joined = M::from_root(joined);
        if let Some(v) = v {
            joined.insert(s(2 * i), v);
        }
        let (n2, (l, r)) = clones_of(&SPLIT_CLONES, || split_rank(joined.into_root(), i));
        let (j2, joined) = clones_of(&SPLIT_CLONES, || join2(l, r));
        assert_eq!([n, j, n2, j2], [0; 4], "unshared at {i}");
        unshared = joined;
    }
    assert_eq!(size(&unshared), N);
}

static UPDATE_CLONES: AtomicUsize = AtomicUsize::new(0);

/// A key or value that owns a buffer and counts its clones, for the
/// shared update test.
#[derive(PartialEq, Eq, PartialOrd, Ord, Debug)]
struct UpdateCounted(Box<u64>);

impl Clone for UpdateCounted {
    fn clone(&self) -> Self {
        UPDATE_CLONES.fetch_add(1, Relaxed);
        UpdateCounted(self.0.clone())
    }
}

#[test]
fn an_update_of_a_shared_map_copies_one_block_and_one_path_per_key() {
    const N: u64 = 16_040;
    type S = NoAug<UpdateCounted, UpdateCounted>;
    type M = AugMap<S>;
    fn u(n: u64) -> UpdateCounted {
        UpdateCounted(Box::new(n))
    }
    fn height(t: &Tree<S>) -> usize {
        match t.as_deref().and_then(|n| n.children()) {
            Some((l, r)) => 1 + height(l).max(height(r)),
            None => 0,
        }
    }
    let pairs = |m: &M| m.iter().map(|(k, v)| (*k.0, *v.0)).collect::<Vec<_>>();
    let m = M::from_sorted_distinct((0..N).map(|i| (u(2 * i), u(i))).collect::<Vec<_>>());
    let before = pairs(&m);
    let per_key = leaf_cap::<S>() + height(m.root());
    // each op as the map does it and as a `BTreeMap` does it: a key
    // written gets the value 7, and `multi_update` puts its even-indexed
    // keys and deletes the others
    let ops = ["insert", "remove", "multi_update", "multi_delete"];
    for keys_per_op in [1, 16] {
        for held in [true, false] {
            // spread over the map; the map's keys are even
            let stride = N / keys_per_op;
            let keys: Vec<u64> = (0..keys_per_op)
                .map(|j| 2 * (j * stride + stride / 2) + u64::from(!held))
                .collect();
            for what in ops {
                let mut x = m.clone();
                let mut want: std::collections::BTreeMap<u64, u64> =
                    before.iter().copied().collect();
                let (n, ()) = clones_of(&UPDATE_CLONES, || match what {
                    "insert" => keys.iter().for_each(|&k| x.insert(u(k), u(7))),
                    "remove" => keys.iter().for_each(|&k| x.remove(&u(k))),
                    "multi_update" => x.multi_update(
                        (keys.iter().enumerate())
                            .map(|(j, &k)| (u(k), (j % 2 == 0).then(|| u(7))))
                            .collect(),
                    ),
                    _ => x.multi_delete(keys.iter().map(|&k| u(k)).collect()),
                });
                for (j, &k) in keys.iter().enumerate() {
                    match what {
                        "insert" => want.insert(k, 7),
                        "multi_update" if j % 2 == 0 => want.insert(k, 7),
                        _ => want.remove(&k),
                    };
                }
                let at = format!("{what} of {keys_per_op} keys, held {held}");
                // and a point `remove` clones its borrowed key once, for
                // the batch of one it runs
                let argument = usize::from(what == "remove");
                let at_most = keys_per_op as usize * (2 * per_key + argument);
                assert!(n <= at_most, "{at}: {n} clones for {at_most}");
                assert_eq!(pairs(&x), want.into_iter().collect::<Vec<_>>(), "{at}");
                x.check_invariants().unwrap();
            }
        }
    }
    // the shared map reads back unchanged
    assert_eq!(pairs(&m), before);
    m.check_invariants().unwrap();
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
