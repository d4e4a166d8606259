//! Store-level stress tests: many writer threads racing many reader
//! threads through the group-commit pipeline, with version pins taken
//! throughout. These are the acceptance tests for the subsystem:
//!
//! * group-commit epochs apply **atomically** (a reader never sees half
//!   of a `write_batch`);
//! * **no write is lost** across batching, LWW dedup, and publish;
//! * **pinned historical versions** remain readable and bit-identical
//!   while the head advances;
//! * the **single-writer publish** hands out dense, strictly increasing
//!   version ids that readers never see go backwards.

use pam::{AugMap, SumAug};
use pam_store::{ShardedConfig, WriteOp};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

type Spec = SumAug<u64, u64>;
type Store = pam_store::Store<Spec>;

/// A volatile store: a snapshot's map is the whole store.
fn volatile_store(batch_window: Duration) -> Arc<Store> {
    Arc::new(Store::volatile(
        ShardedConfig::builder().batch_window(batch_window).build(),
    ))
}

fn fingerprint(m: &AugMap<Spec>) -> u64 {
    m.map_reduce(
        |&k, &v| k.wrapping_mul(0x9e3779b97f4a7c15) ^ v,
        u64::wrapping_add,
        0,
    )
}

/// Each writer submits two-key batches `{k, MIRROR+k}` with equal values;
/// readers continuously check the mirror invariant on the head and on
/// freshly taken pins. Any torn batch breaks the invariant.
#[test]
fn atomic_batches_under_contention() {
    const MIRROR: u64 = 1 << 32;
    let store = volatile_store(Duration::from_micros(100));
    let stop = Arc::new(AtomicBool::new(false));
    let writers = 4u64;
    let readers = 4u64;
    let per_writer = 300u64;

    let reader_handles: Vec<_> = (0..readers)
        .map(|_| {
            let s = store.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                let mut checks = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    let pin = s.snapshot();
                    let m = pin.map();
                    let low = m.range(&0, &(MIRROR - 1));
                    let high = m.down_to(&MIRROR);
                    assert_eq!(
                        low.len(),
                        high.len(),
                        "torn batch visible at v{}",
                        pin.version()
                    );
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
                    assert_eq!(lo_fp, hi_fp, "mirror halves diverged at v{}", pin.version());
                    checks += 1;
                }
                checks
            })
        })
        .collect();

    let writer_handles: Vec<_> = (0..writers)
        .map(|t| {
            let s = store.clone();
            std::thread::spawn(move || {
                let mut last = None;
                for i in 0..per_writer {
                    let k = t * per_writer + i;
                    let v = k.wrapping_mul(13);
                    last =
                        Some(s.write_batch(vec![WriteOp::Put(k, v), WriteOp::Put(MIRROR + k, v)]));
                }
                last.unwrap().wait()
            })
        })
        .collect();

    for w in writer_handles {
        w.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    let total_checks: usize = reader_handles.into_iter().map(|r| r.join().unwrap()).sum();
    assert!(total_checks > 0, "readers must have raced the writers");

    let head = store.snapshot();
    assert_eq!(head.map().len() as u64, 2 * writers * per_writer);
    head.map().check_invariants().unwrap();

    let stats = store.stats();
    assert_eq!(stats.raw_ops, 2 * writers * per_writer);
    assert_eq!(
        stats.applied_ops, stats.raw_ops,
        "all keys distinct: LWW drops nothing"
    );
    assert!(
        stats.commits < stats.raw_ops,
        "group commit must batch ({} commits for {} ops)",
        stats.commits,
        stats.raw_ops
    );
}

/// Writers churn overlapping keys (so LWW dedup actually fires) while a
/// pinner thread keeps pinning versions; after the storm, every pin must
/// be exactly as it was when taken, and the head must equal a sequential
/// model of "last committed value per key" for the keys each writer owns.
#[test]
fn pinned_versions_immutable_while_head_churns() {
    let store = volatile_store(Duration::from_micros(50));
    store.put_all((0..1_000u64).map(|k| (k, 0))).wait();

    let stop = Arc::new(AtomicBool::new(false));
    let pinner = {
        let s = store.clone();
        let stop = stop.clone();
        std::thread::spawn(move || {
            let mut pins = Vec::new();
            while !stop.load(Ordering::Relaxed) && pins.len() < 400 {
                let pin = s.snapshot();
                let fp = fingerprint(pin.map());
                pins.push((pin, fp));
            }
            pins
        })
    };

    let writers = 4u64;
    let rounds = 200u64;
    let writer_handles: Vec<_> = (0..writers)
        .map(|t| {
            let s = store.clone();
            std::thread::spawn(move || {
                // writer t owns keys  t*250 .. (t+1)*250: no cross-writer
                // conflicts, but heavy same-key churn within a writer
                let base = t * 250;
                for r in 1..=rounds {
                    let ops: Vec<WriteOp<Spec>> = (0..250u64)
                        .map(|i| {
                            let k = base + i;
                            if r % 10 == 0 && i % 50 == 0 {
                                WriteOp::Delete(k)
                            } else {
                                WriteOp::Put(k, r)
                            }
                        })
                        .collect();
                    s.write_batch(ops);
                }
                s.flush()
            })
        })
        .collect();

    for w in writer_handles {
        w.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    let pins = pinner.join().unwrap();

    // every pin is exactly as it was when taken
    assert!(!pins.is_empty());
    for (pin, fp) in &pins {
        assert_eq!(
            fingerprint(pin.map()),
            *fp,
            "pinned v{} mutated",
            pin.version()
        );
        pin.map().check_invariants().unwrap();
    }
    // pins are monotone in version id
    assert!(pins
        .windows(2)
        .all(|w| w[0].0.version() <= w[1].0.version()));

    // the head equals the sequential model: final round deleted nothing
    // (rounds=200, 200 % 10 == 0 deletes k where i % 50 == 0)
    let head = store.snapshot();
    for t in 0..writers {
        let base = t * 250;
        for i in 0..250u64 {
            let k = base + i;
            let expect = if i % 50 == 0 { None } else { Some(rounds) };
            assert_eq!(head.map().get(&k).copied(), expect, "key {k}");
        }
    }

    // stats surface reflects the churn and the dedup
    let stats = store.stats();
    assert!(stats.applied_ops <= stats.raw_ops);
    // a version is alive iff it is the head or a pin holds it
    assert!(stats.live_versions <= 1 + pins.len());
    println!("churn stats: {stats}");
}

/// Mixed read/write workload with waits sprinkled in: tickets resolve,
/// writes become visible in order, and `get` always reflects some
/// committed prefix (monotone reads per key through a single store handle).
#[test]
fn tickets_resolve_and_reads_are_committed_states() {
    let store = volatile_store(Duration::from_micros(100));
    let threads = 6u64;
    let per = 100u64;
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let s = store.clone();
            std::thread::spawn(move || {
                let key = t; // each thread increments its own counter key
                for i in 1..=per {
                    let ticket = s.put(key, i);
                    if i % 25 == 0 {
                        let v = ticket.wait();
                        assert!(v >= 1);
                        // after wait, our write (or a later one) is visible
                        let got = s.get(&key).expect("key exists after wait");
                        assert!(got >= i, "read went backwards: {got} < {i}");
                    }
                }
                s.put(key, u64::MAX).wait();
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    for t in 0..threads {
        assert_eq!(store.get(&t), Some(u64::MAX));
    }
    assert_eq!(store.len() as u64, threads);
    // every op was enqueued; LWW within shared epochs may drop some
    let stats = store.stats();
    assert_eq!(stats.raw_ops, threads * (per + 1));
}

/// The committer is the only writer of the head and the registry is the
/// only place it publishes — so the properties a shared version counter
/// used to supply must hold by construction. One writer commits 10 000
/// one-op epochs, epoch `e` writing the value `e` to a fixed key; since
/// ids are dense, version `e` is exactly the version whose map holds `e`.
/// Racing readers check, on every iteration:
///
/// * **dense, strictly increasing ids**: each ack's version is the
///   previous one plus one, and a pinned version `v` holds the value `v`;
/// * **no going back**: a `get` that observed epoch `e`'s write is never
///   followed by a `pin` older than `e`, and one reader's pins never
///   decrease;
/// * **`flush()` names the last published version**: at least every
///   version pinned before it, at most any pinned after it, and exactly
///   the head once the writer is done.
#[test]
fn single_writer_publish_is_dense_monotone_and_visible_in_order() {
    const EPOCHS: u64 = 10_000;
    const KEY: u64 = 0;
    let store = volatile_store(Duration::ZERO);
    let stop = Arc::new(AtomicBool::new(false));

    let readers: Vec<_> = (0..3)
        .map(|_| {
            let s = store.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                let (mut last_pin, mut rounds) = (0u64, 0u64);
                while !stop.load(Ordering::Relaxed) {
                    let seen = s.get(&KEY).unwrap_or(0);
                    let pin = s.snapshot();
                    assert!(
                        pin.version() >= seen,
                        "get saw epoch {seen}, then snapshot() returned older v{}",
                        pin.version()
                    );
                    assert!(pin.version() >= last_pin, "pins went backwards");
                    last_pin = pin.version();
                    assert_eq!(
                        pin.map().get(&KEY).copied().unwrap_or(0),
                        pin.version(),
                        "version ids are not dense: v{} holds another epoch's write",
                        pin.version()
                    );
                    let flushed = s.flush();
                    assert!(
                        flushed >= pin.version(),
                        "flush() returned an unpublished past"
                    );
                    assert!(
                        s.snapshot().version() >= flushed,
                        "flush() ran ahead of the head"
                    );
                    rounds += 1;
                }
                rounds
            })
        })
        .collect();

    for e in 1..=EPOCHS {
        assert_eq!(store.put(KEY, e).wait(), e, "ack of epoch {e}");
    }
    stop.store(true, Ordering::Relaxed);
    let rounds: u64 = readers.into_iter().map(|r| r.join().unwrap()).sum();
    assert!(rounds > 0, "readers must have raced the writer");

    assert_eq!(store.flush(), EPOCHS, "flush() is the last published id");
    assert_eq!(store.snapshot().version(), EPOCHS);
    assert_eq!(store.get(&KEY), Some(EPOCHS));
    assert_eq!(store.stats().commits, EPOCHS);
    assert_eq!(
        store.stats().live_versions,
        1,
        "with every reader's pin dropped, only the head is alive"
    );
}
