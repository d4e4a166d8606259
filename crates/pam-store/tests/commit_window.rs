//! The group-commit window is an upper bound on the linger, not a fixed
//! delay: a writer with nobody to share an epoch with is never held for
//! it, many writers still share epochs, and no epoch is held open longer
//! than the window.
//!
//! Every test here is about timing, so they take turns (`TURN`) even
//! when the harness runs tests on parallel threads.

use pam::{NoAug, SumAug};
use pam_store::{ShardedConfig, Store};
use std::sync::{Arc, Barrier, Mutex, MutexGuard};
use std::time::{Duration, Instant};

type Engine = Store<SumAug<u64, u64>>;

static TURN: Mutex<()> = Mutex::new(());

fn my_turn() -> MutexGuard<'static, ()> {
    // a failed test must not fail the ones queued behind it
    TURN.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// A volatile store: every epoch is one bulk op on its map.
fn one_shard(batch_window: Duration, max_batch: usize) -> ShardedConfig {
    ShardedConfig {
        shards: 1,
        batch_window,
        max_batch,
    }
}

fn engine(batch_window: Duration) -> Engine {
    Engine::volatile(one_shard(batch_window, ShardedConfig::default().max_batch))
}

#[test]
fn a_lone_writer_never_waits_for_the_window() {
    let _turn = my_turn();
    let store = engine(Duration::from_secs(10));
    let t0 = Instant::now();
    for i in 0..100u64 {
        store.put(i, i).wait();
    }
    assert!(
        t0.elapsed() < Duration::from_secs(2),
        "100 sequential acked puts took {:?} under a 10 s window",
        t0.elapsed()
    );
    assert_eq!(store.len(), 100);
    let s = store.stats();
    assert_eq!(s.commits, 100);
    // each writer found its epoch open, nobody else waiting and nothing
    // worth lingering for: it committed the epoch itself, no hand-off
    assert_eq!(s.commits_by_writer, 100, "every epoch writer-led");
}

#[test]
fn a_writer_returning_after_a_burst_is_not_held_for_long() {
    let _turn = my_turn();
    let store = Arc::new(engine(Duration::from_secs(10)));
    // a dense burst teaches the pipeline a tiny arrival gap ...
    for i in 0..10_000u64 {
        store.put(i, i);
    }
    store.flush();
    // ... which a lone closed-loop writer must unlearn within a few puts,
    // not after a 10 s linger each
    let t0 = Instant::now();
    for i in 0..100u64 {
        store.put(i, i + 1).wait();
    }
    assert!(
        t0.elapsed() < Duration::from_secs(2),
        "a lone writer after a burst took {:?} for 100 acked puts",
        t0.elapsed()
    );
}

// Release only: unoptimised writers take longer to come back after an ack
// than the committer waits for company, so a debug build measures the
// build profile, not the rule (CI's stress leg runs this in release).
#[test]
#[cfg_attr(debug_assertions, ignore = "timing of an optimised build")]
fn many_closed_loop_writers_still_share_epochs() {
    let _turn = my_turn();
    const WRITERS: u64 = 16;
    const PER_WRITER: u64 = 1000;
    // the serving spec over a preloaded shard, so a commit costs what it
    // costs `pam-serve`: writers that arrive during one share the next
    type ByteStore = Store<NoAug<Vec<u8>, Vec<u8>>>;
    let key = |i: u64| format!("user{i:012}").into_bytes();
    let store = Arc::new(ByteStore::volatile(one_shard(
        Duration::from_micros(200),
        ShardedConfig::default().max_batch,
    )));
    store
        .put_all((0..50_000).map(|i| (key(i), vec![0u8; 100])))
        .wait();
    let seeded = store.stats();
    let start = Arc::new(Barrier::new(WRITERS as usize));
    let handles: Vec<_> = (0..WRITERS)
        .map(|w| {
            let (store, start) = (store.clone(), start.clone());
            std::thread::spawn(move || {
                start.wait();
                for i in 0..PER_WRITER {
                    let k = key((i * 7919 % 3000) * WRITERS + w);
                    let v = (i ^ w).to_le_bytes().repeat(13);
                    store.put(k.clone(), v.clone()).wait();
                    assert_eq!(store.get(&k), Some(v), "acked put not readable");
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("writer panicked");
    }
    let s = store.stats();
    let (ops, commits) = (s.raw_ops - seeded.raw_ops, s.commits - seeded.commits);
    assert_eq!(ops, WRITERS * PER_WRITER);
    let per_commit = ops as f64 / commits as f64;
    assert!(
        per_commit >= 10.0,
        "{WRITERS} closed-loop writers averaged {per_commit:.2} ops/commit over {commits} commits"
    );
}

#[test]
fn a_flood_batches_and_no_epoch_outlasts_the_window() {
    let _turn = my_turn();
    const WINDOW: Duration = Duration::from_millis(5);
    // what a descheduled committer, or a commit the next epoch queued
    // behind, may add on a loaded two-core box
    const SLACK: Duration = Duration::from_millis(250);
    // no batch cap: only the window can close an epoch mid-flood
    let store = Arc::new(Engine::volatile(one_shard(WINDOW, usize::MAX)));
    // fire-and-forget for longer than WINDOW + SLACK: every slice of the
    // linger sees new operations, so an epoch that only closes when the
    // stream pauses would be caught. The flooders pause between puts, so
    // the committer keeps pace with them one operation at a time: a rule
    // that took "found the pipeline idle" for "nobody to share an epoch
    // with" would never linger here
    let flooders: Vec<_> = (0..2u64)
        .map(|w| {
            let store = store.clone();
            std::thread::spawn(move || {
                let t0 = Instant::now();
                let mut i = 0u64;
                while t0.elapsed() < Duration::from_millis(600) {
                    store.put(i * 2 + w, i);
                    i += 1;
                    std::thread::sleep(Duration::from_micros(20));
                }
                i
            })
        })
        .collect();
    let sent: u64 = flooders
        .into_iter()
        .map(|h| h.join().expect("flooder panicked"))
        .sum();
    store.flush();
    let s = store.stats();
    assert_eq!(s.raw_ops, sent);
    assert_eq!(store.len() as u64, sent);
    assert_eq!(
        s.commits_by_writer, 0,
        "nobody waited on a ticket: the committer thread took every epoch"
    );
    assert!(
        s.commits * 10 < sent,
        "a flood should share epochs ({} commits for {sent} ops)",
        s.commits
    );
    let longest = Duration::from_nanos(s.commit_window.max());
    assert!(
        longest < WINDOW + SLACK,
        "an epoch sat open for {longest:?} under a {WINDOW:?} window"
    );
}
