//! Multi-threaded stress tests for `SharedMap` snapshot isolation.
//!
//! Two properties are hammered here:
//!
//! 1. **No partial commits.** Every commit installs a key set satisfying a
//!    whole-batch invariant (each batch inserts a *pair* of keys `k` and
//!    `MIRROR + k` with equal values). A reader snapshot taken at any
//!    moment must satisfy the invariant exactly — seeing one half of a
//!    batch would mean the swap was not atomic.
//! 2. **Old snapshots are frozen.** Snapshots pinned before a wave of
//!    commits must hash identically after the wave, and must still pass
//!    the structural invariant checks.

use pam::{AugMap, SharedMap, SumAug};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

type Spec = SumAug<u64, u64>;
type Shared = SharedMap<Spec>;

const MIRROR: u64 = 1 << 32;

fn fingerprint(m: &AugMap<Spec>) -> u64 {
    m.map_reduce(
        |&k, &v| k.wrapping_mul(0x9e3779b97f4a7c15) ^ v,
        u64::wrapping_add,
        0,
    )
}

/// Readers racing writers never observe half of a commit batch.
#[test]
fn readers_never_observe_partial_commits() {
    let shared = Arc::new(Shared::default());
    let stop = Arc::new(AtomicBool::new(false));
    let writer_threads = 4u64;
    let reader_threads = 4;
    let batches_per_writer = 150u64;

    let readers: Vec<_> = (0..reader_threads)
        .map(|_| {
            let s = shared.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                let mut observed = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    let snap = s.snapshot();
                    // batch atomicity: k present <=> MIRROR + k present,
                    // with the same value. The low and high halves of the
                    // key space are mirror images.
                    let low = snap.range(&0, &(MIRROR - 1));
                    let high = snap.down_to(&MIRROR);
                    assert_eq!(low.len(), high.len(), "half a batch is visible");
                    let lo_fp = low.map_reduce(
                        |&k, &v| k.wrapping_mul(31).wrapping_add(v),
                        u64::wrapping_add,
                        0,
                    );
                    let hi_fp = high.map_reduce(
                        |&k, &v| (k - MIRROR).wrapping_mul(31).wrapping_add(v),
                        u64::wrapping_add,
                        0,
                    );
                    assert_eq!(lo_fp, hi_fp, "mirror halves diverged mid-commit");
                    observed += 1;
                }
                observed
            })
        })
        .collect();

    let writers: Vec<_> = (0..writer_threads)
        .map(|t| {
            let s = shared.clone();
            std::thread::spawn(move || {
                for i in 0..batches_per_writer {
                    let k = t * batches_per_writer + i;
                    let v = k.wrapping_mul(7);
                    s.commit(|mut m| {
                        m.multi_insert(vec![(k, v), (MIRROR + k, v)]);
                        m
                    });
                }
            })
        })
        .collect();

    for w in writers {
        w.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    let total_reads: usize = readers.into_iter().map(|r| r.join().unwrap()).sum();
    assert!(total_reads > 0, "readers must have raced the writers");

    let final_map = shared.snapshot();
    assert_eq!(
        final_map.len() as u64,
        2 * writer_threads * batches_per_writer
    );
    final_map.check_invariants().unwrap();
}

/// Snapshots pinned at arbitrary points stay bit-for-bit stable while
/// hundreds of later commits (inserts *and* deletes) land.
#[test]
fn pinned_snapshots_survive_later_commits() {
    let shared = Arc::new(Shared::default());
    shared.commit(|mut m| {
        m.multi_insert((0..2_000u64).map(|k| (k, k)).collect());
        m
    });

    // pin snapshots concurrently with a writer that keeps churning
    let pinner = {
        let s = shared.clone();
        std::thread::spawn(move || {
            let mut pins: Vec<(AugMap<Spec>, u64)> = Vec::new();
            for _ in 0..200 {
                let snap = s.snapshot();
                let fp = fingerprint(&snap);
                pins.push((snap, fp));
            }
            pins
        })
    };

    let churner = {
        let s = shared.clone();
        std::thread::spawn(move || {
            for round in 0..300u64 {
                s.commit(|mut m| {
                    m.multi_insert((0..20).map(|i| (10_000 + round * 20 + i, round)).collect());
                    m.multi_delete((0..5).map(|i| (round * 5 + i) % 2_000).collect());
                    m
                });
            }
        })
    };

    let pins = pinner.join().unwrap();
    churner.join().unwrap();

    // every pinned snapshot's fingerprint is unchanged by the 300
    // commits that followed
    for (snap, fp) in &pins {
        assert_eq!(fingerprint(snap), *fp, "pinned snapshot mutated");
        snap.check_invariants().unwrap();
    }
    // every churn round landed: 300 × 20 fresh keys on top of what the
    // deletes left of the seed
    let last = shared.snapshot();
    assert_eq!(last.range(&10_000, &u64::MAX).len(), 300 * 20);
    last.check_invariants().unwrap();
}

/// Many writers committing multi-key batches: writers are serialized, so
/// every update survives.
#[test]
fn concurrent_committers_converge() {
    let shared = Arc::new(Shared::default());
    let threads = 8u64;
    let per = 100u64;
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let s = shared.clone();
            std::thread::spawn(move || {
                for i in 0..per {
                    let base = (t * per + i) * 3;
                    s.commit(|mut m| {
                        m.multi_insert((0..3).map(|j| (base + j, t)).collect());
                        m
                    });
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(shared.len() as u64, threads * per * 3);
    shared.snapshot().check_invariants().unwrap();
}
