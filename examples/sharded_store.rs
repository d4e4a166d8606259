//! The sharded-store tour: one key space hash-partitioned across N roots.
//!
//! Walks the full lifecycle — writes routed to N shard maps by one
//! group-commit pipeline, merged range scans, a snapshot that is one pin
//! of every shard, and a durable restart: every shard bulk-loads its own
//! checkpoint, then the one log replays.
//!
//! Run with: `cargo run --release --example sharded_store`

use pam::SumAug;
use pam_store::{DurabilityConfig, ShardedConfig, Store};
use std::fs;
use std::time::Duration;

type Ledger = Store<SumAug<u64, u64>>;

fn config(shards: usize) -> ShardedConfig {
    ShardedConfig {
        shards,
        batch_window: Duration::from_micros(100),
        ..ShardedConfig::default()
    }
}

fn main() {
    // --- 1. in-memory: one committer, four shard maps --------------------
    let store = std::sync::Arc::new(Ledger::volatile(config(4)));
    let writers: Vec<_> = (0..4u64)
        .map(|w| {
            let s = store.clone();
            std::thread::spawn(move || {
                for i in 0..5_000u64 {
                    // keys hash across all 4 shards regardless of writer
                    s.put(w * 100_000 + i, 1);
                }
                s.flush()
            })
        })
        .collect();
    for w in writers {
        w.join().unwrap();
    }
    assert_eq!(store.len(), 20_000);
    let stats = store.stats();
    println!("after ingest:  {stats}");
    let snap = store.snapshot();
    for i in 0..store.num_shards() {
        println!("  shard {i}:     {} entries", snap.shard(i).len());
    }
    drop(snap);

    // merged range scan: globally key-ordered despite hash partitioning
    let first: Vec<u64> = {
        let mut keys = Vec::new();
        store.range_for_each(&0, &u64::MAX, |&k, _| {
            if keys.len() < 5 {
                keys.push(k)
            }
        });
        keys
    };
    assert_eq!(first, vec![0, 1, 2, 3, 4]);
    // augmented sum combines across shards (commutative monoid)
    assert_eq!(store.aug_val(), 20_000);

    // --- 2. a snapshot: one pin of every shard ---------------------------
    let snap = store.snapshot();
    let batch = store.put_all((0..100u64).map(|k| (k, 1000)));
    let version = batch.wait(); // one epoch, one version, all four shards
    assert_eq!(snap.get(&0), Some(1), "snapshot frozen at its version");
    assert_eq!(store.get(&0), Some(1000), "live store moved on");
    println!(
        "snapshot:      version {}; the batch after it committed as version {version}",
        snap.version()
    );
    drop(snap);

    // --- 3. the same type on disk: one log, a checkpoint per shard -------
    let dir = std::env::temp_dir().join(format!("pam-sharded-demo-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let ledger = Ledger::open(&dir, config(4), DurabilityConfig::default()).expect("open");
    ledger.put_all((0..2_000u64).map(|k| (k, k % 97))).wait();
    let epoch = ledger.checkpoint().expect("checkpoint every shard");
    println!(
        "durable:       {} shards checkpointed at store epoch {epoch}",
        ledger.num_shards()
    );
    drop(ledger); // clean shutdown: the committer drains and the log flushes

    let ledger = Ledger::open(&dir, config(4), DurabilityConfig::default()).expect("reopen");
    assert_eq!(ledger.len(), 2_000);
    println!(
        "recovered:     {} entries across {} shards ({} checkpoint entries total)",
        ledger.len(),
        ledger.num_shards(),
        ledger
            .recovery()
            .iter()
            .map(|r| r.checkpoint_entries)
            .sum::<u64>(),
    );
    // a 4-shard directory refuses to open as 8 shards: the hash routing
    // is part of the on-disk format
    drop(ledger);
    let err = Ledger::open(&dir, config(8), DurabilityConfig::default())
        .expect_err("shard-count mismatch must be refused");
    println!("mismatch:      refused as expected: {err}");

    let _ = fs::remove_dir_all(&dir);
    println!("ok");
}
