//! A sorted build allocates each node once, at its final size: one
//! allocation per node, plus one per leaf for its entry block, and no
//! `realloc`. Nothing is built only to be flattened and re-packed, and
//! no leaf buffer is shrunk into its block. A union of two fresh builds
//! allocates within a fixed multiple of its result's nodes and blocks.
//!
//! The counting allocator below counts only the thread that sets
//! `COUNTING`, and every build and union runs at one thread, so the
//! numbers are exact.

use pam::node::Tree;
use pam::spec::Capped;
use pam::{AugMap, AugSpec, SumAug};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::Mutex;

struct Counting;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);
static REALLOCS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn counted(n: &AtomicUsize) {
    if COUNTING.with(Cell::get) {
        n.fetch_add(1, Relaxed);
    }
}

// SAFETY: every call is passed straight to `System`
unsafe impl GlobalAlloc for Counting {
    // SAFETY: `System`'s contract is the caller's
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        counted(&ALLOCS);
        // SAFETY: the caller's contract, passed on
        unsafe { System.alloc(layout) }
    }

    // SAFETY: `System`'s contract is the caller's
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        counted(&ALLOCS);
        // SAFETY: the caller's contract, passed on
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: `System`'s contract is the caller's
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        counted(&REALLOCS);
        // SAFETY: the caller's contract, passed on
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    // SAFETY: `System`'s contract is the caller's
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract, passed on
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Held by each test for its whole run: the counts are exact only while
/// no other test runs (two tests side by side read high).
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// The allocations and reallocations `f` makes on this thread.
fn allocs_of<T>(f: impl FnOnce() -> T) -> (usize, usize, T) {
    let (a, r) = (ALLOCS.load(Relaxed), REALLOCS.load(Relaxed));
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    (ALLOCS.load(Relaxed) - a, REALLOCS.load(Relaxed) - r, out)
}

/// `(leaves, internal nodes)` of `t`, by a walk of its public shape.
fn nodes<S: AugSpec>(t: &Tree<S>) -> (usize, usize) {
    let Some(n) = t.as_deref() else {
        return (0, 0);
    };
    match n.children() {
        None => (1, 0),
        Some((l, r)) => {
            let ((ll, li), (rl, ri)) = (nodes(l), nodes(r));
            (ll + rl, li + ri + 1)
        }
    }
}

type M<const CAP: usize> = AugMap<Capped<SumAug<u64, u64>, CAP>>;

/// Run `build` under the count and check its allocations against the
/// nodes of the `n`-entry map it returns.
fn check<const CAP: usize>(what: &str, n: usize, build: impl FnOnce() -> M<CAP>) {
    let (allocs, reallocs, m) = allocs_of(build);
    let at = format!("{what}, cap {CAP}, {n} entries");
    assert_eq!(m.len(), n, "{at}");
    m.check_invariants().unwrap();
    let (leaves, internal) = nodes(m.root());
    // a node's `Arc`, and each leaf's entry block
    assert_eq!(allocs, leaves + internal + leaves, "{at}");
    assert_eq!(reallocs, 0, "{at}");
}

fn builds_allocate_each_node_once<const CAP: usize>() {
    // sizes around one and two blocks, tails that the last two leaves
    // must share, and inputs above the grain, which the build cuts
    let sizes = [
        1,
        CAP / 2,
        CAP,
        CAP + 1,
        CAP + CAP / 2,
        2 * CAP + 1,
        2 * CAP + 2,
        7 * CAP + 3,
        5_000,
        20_000,
        20_000 + CAP / 4 + 1,
    ];
    parlay::with_threads(1, || {
        for n in sizes {
            let sorted: Vec<(u64, u64)> = (0..n as u64).map(|i| (2 * i, i)).collect();
            // each owned input is cloned before the count starts
            let v = sorted.clone();
            check("from_sorted_distinct(Vec)", n, || {
                M::<CAP>::from_sorted_distinct(v)
            });
            check("from_sorted_distinct(&slice)", n, || {
                M::<CAP>::from_sorted_distinct(sorted.as_slice())
            });
            let v = sorted.clone();
            check("build", n, || M::<CAP>::build(v));
            let v = sorted.clone();
            check("multi_insert into an empty map", n, || {
                let mut m = M::<CAP>::new();
                m.multi_insert(v);
                m
            });
        }
    });
}

#[test]
fn a_sorted_build_allocates_each_node_once_at_its_final_size() {
    let _one = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    builds_allocate_each_node_once::<2>();
    builds_allocate_each_node_once::<32>();
    builds_allocate_each_node_once::<128>();
}

/// A union's allocations per node and block of its result: `ALLOCS_NUM /
/// ALLOCS_DEN` = 3.25. Each block of the result is merged once from the
/// operands' entries and packed once; the rest is the operands' split
/// leaves and path copies. A union that also splits a full block at its
/// median to expose it pays a fresh `Vec` and two leaves for each, and
/// reads 3.6 or more on these inputs.
const ALLOCS_NUM: usize = 13;
const ALLOCS_DEN: usize = 4;

/// A one-thread `union` of two interleaved fresh builds whose operands
/// stay shared, as the benchmark's do, within [`ALLOCS_NUM`] /
/// [`ALLOCS_DEN`] allocations per node and block of the result.
fn union_allocates_within_a_bound<const CAP: usize>() {
    // scattered keys, so the two operands' leaves overlap at random
    // offsets, as two uniformly picked key sets do
    let keys = |n: u64, salt: u64| {
        let mut k: Vec<(u64, u64)> = (0..n)
            .map(|i| ((i ^ salt).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 20, i))
            .collect();
        k.sort();
        k.dedup_by_key(|p| p.0);
        k
    };
    for n in [20_000, 50_000] {
        let a = M::<CAP>::from_sorted_distinct(keys(n, 0));
        let b = M::<CAP>::from_sorted_distinct(keys(n, 0x5555_5555));
        let (x, y) = (a.clone(), b.clone());
        let (allocs, _, u) = parlay::with_threads(1, || allocs_of(|| x.union(y)));
        let at = format!("cap {CAP}, operands of {} and {}", a.len(), b.len());
        u.check_invariants().unwrap();
        let (leaves, internal) = nodes(u.root());
        let nodes_and_blocks = leaves + internal + leaves;
        assert!(
            ALLOCS_DEN * allocs <= ALLOCS_NUM * nodes_and_blocks,
            "{at}: {allocs} allocations for {nodes_and_blocks} nodes and blocks"
        );
    }
}

#[test]
fn a_union_of_shared_fresh_builds_allocates_within_a_bound_per_node() {
    let _one = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    union_allocates_within_a_bound::<32>();
    union_allocates_within_a_bound::<128>();
}
