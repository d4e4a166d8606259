//! Regression bounds for the blocked-leaf (PaC-tree style) representation
//! as seen through the store: memory reachable from live versions and
//! on-disk checkpoint size must stay within bounds that the per-entry
//! (one node per entry) seed layout could not meet.

use pam::balance::leaf_cap;
use pam::{NoAug, SumAug};
use pam_store::{Bytes, DurabilityConfig, ShardedConfig, Store};
use std::fs;
use std::path::{Path, PathBuf};
use std::time::Duration;

type Spec = SumAug<u64, u64>;

const N: u64 = 100_000;

/// Heap bytes the pre-blocking layout would need: one heap node (+ two
/// `Arc` refcount words) per entry.
fn per_entry_baseline(n: usize) -> usize {
    n * (pam::stats::node_size::<Spec>() + 2 * std::mem::size_of::<usize>())
}

/// A one-shard volatile store holding `(i, i)` for every `i < N`.
fn seeded(batch_window: Duration) -> Store<Spec> {
    let store = Store::volatile(
        ShardedConfig::builder()
            .shards(1)
            .batch_window(batch_window)
            .build(),
    );
    store.put_all((0..N).map(|i| (i, i))).wait();
    store
}

/// The served spec's `Bytes` entries own refcounted buffers: a path copy
/// pays an increment per entry it clones and the replaced version a
/// decrement when it dies, so the default gives them 32-entry blocks.
/// 128-entry blocks, what plain entries such as `Spec`'s get, measured
/// `batch_ack_p50_us` +45–62 % on the served store (EXPERIMENTS §28.2).
#[test]
fn served_bytes_entries_keep_32_entry_blocks() {
    assert_eq!(leaf_cap::<NoAug<Bytes, Bytes>>(), 32);
    assert_eq!(leaf_cap::<Spec>(), 128);
}

#[test]
fn store_memory_is_at_least_2x_below_per_entry_baseline() {
    let store = seeded(ShardedConfig::default().batch_window);
    assert_eq!(store.len(), N as usize);
    let reachable = store.memory_bytes();
    let baseline = per_entry_baseline(N as usize);
    assert!(
        reachable * 2 <= baseline,
        "blocked leaves must at least halve the per-entry footprint: \
         reachable {reachable} vs baseline {baseline}"
    );
    // sanity floor: the entries themselves (two u64 each) are counted
    assert!(
        reachable >= N as usize * 16,
        "implausibly small: {reachable}"
    );
}

#[test]
fn point_updates_keep_memory_within_baseline() {
    // after random single-key churn the tree must stay block-packed
    // enough to hold the 2x bound (non-root blocks >= half full)
    let store = seeded(Duration::ZERO);
    // one acked op per epoch: every update is its own path copy, and
    // `memory_bytes` below is what the head alone reaches
    for i in 0..2_000u64 {
        let k = (i * 7919) % N;
        if i % 3 == 0 {
            store.delete(k).wait();
        } else {
            store.put(k, i).wait();
        }
    }
    let reachable = store.memory_bytes();
    let baseline = per_entry_baseline(store.len());
    assert!(
        reachable * 2 <= baseline,
        "churned store footprint regressed: {reachable} vs baseline {baseline}"
    );
}

fn dir_bytes(dir: &Path) -> u64 {
    let mut total = 0;
    for entry in fs::read_dir(dir).unwrap().flatten() {
        let meta = entry.metadata().unwrap();
        if meta.is_dir() {
            total += dir_bytes(&entry.path());
        } else {
            total += meta.len();
        }
    }
    total
}

fn fresh_dir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("pam-blocked-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&d);
    d
}

#[test]
fn checkpoint_size_stays_within_per_entry_bound() {
    let n = 20_000u64;
    let dir = fresh_dir("ckpt");
    {
        let store: Store<Spec> = Store::open(
            &dir,
            ShardedConfig::builder()
                .shards(1)
                .batch_window(Duration::ZERO)
                .build(),
            DurabilityConfig::default(),
        )
        .expect("open");
        store.put_all((0..n).map(|i| (i, i * 3))).wait();
        store.checkpoint().expect("checkpoint");
        // the WAL was truncated by the checkpoint; what remains on disk
        // is dominated by the checkpoint stream of n (u64, u64) entries.
        // Regression bound: 48 bytes/entry (16 payload + framing) + 64 KiB
        // fixed overhead — the seed layout met this and blocking must not
        // regress it.
        let bytes = dir_bytes(&dir);
        let bound = n * 48 + (64 << 10);
        assert!(
            bytes <= bound,
            "on-disk footprint after checkpoint too large: {bytes} > {bound}"
        );
    }
    // recovery from that checkpoint reproduces the exact contents
    let store: Store<Spec> = Store::open(
        &dir,
        ShardedConfig::builder().shards(1).build(),
        DurabilityConfig::default(),
    )
    .expect("reopen");
    assert!(
        store.recovery()[0].checkpoint_epoch > 0,
        "checkpoint was used"
    );
    assert_eq!(store.len(), n as usize);
    for k in [0u64, 1, n / 2, n - 1] {
        assert_eq!(store.get(&k), Some(k * 3));
    }
    drop(store);
    let _ = fs::remove_dir_all(&dir);
}
