//! The one-tree tour: one map, one root per version, and checkpoints cut
//! into N key-range files.
//!
//! Walks the full lifecycle — concurrent writers funneled into one map
//! by one group-commit pipeline, a range scan that is one walk, an
//! augmented query over any range, a snapshot that is one pin of the
//! root, and a durable restart: a checkpoint writes the map's N key
//! ranges to N files, recovery loads them in parallel and unions them,
//! then the one log replays.
//!
//! Run with: `cargo run --release --example sharded_store`

use pam::SumAug;
use pam_store::{DurabilityConfig, ShardedConfig, Store};
use std::fs;
use std::time::Duration;

type Ledger = Store<SumAug<u64, u64>>;

/// Files per checkpoint.
const FILES: usize = 4;

fn config(files: usize) -> ShardedConfig {
    ShardedConfig {
        shards: files,
        batch_window: Duration::from_micros(100),
        ..ShardedConfig::default()
    }
}

fn main() {
    // --- 1. in memory: four writers, one committer, one map --------------
    let store = std::sync::Arc::new(Ledger::volatile(config(FILES)));
    let writers: Vec<_> = (0..4u64)
        .map(|w| {
            let s = store.clone();
            std::thread::spawn(move || {
                for i in 0..5_000u64 {
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
    println!("after ingest:  {}", store.stats());
    println!(
        "one map:       {} entries, {} bytes reachable from its root",
        store.snapshot().map().len(),
        store.memory_bytes()
    );

    // a range scan is one walk of the tree, in key order
    let mut first = Vec::new();
    store.range_try_for_each(&0, &u64::MAX, |&k, _| {
        first.push(k);
        if first.len() < 5 {
            std::ops::ControlFlow::Continue(())
        } else {
            std::ops::ControlFlow::Break(())
        }
    });
    assert_eq!(first, vec![0, 1, 2, 3, 4]);
    // augmented queries are the tree's own: O(log n) for any range
    assert_eq!(store.aug_val(), 20_000);
    assert_eq!(store.aug_range(&100_000, &199_999), 5_000);

    // --- 2. a snapshot: one pin of the root -------------------------------
    let snap = store.snapshot();
    let version = store.put_all((0..100u64).map(|k| (k, 1000))).wait();
    assert_eq!(snap.get(&0), Some(1), "snapshot frozen at its version");
    assert_eq!(store.get(&0), Some(1000), "live store moved on");
    println!(
        "snapshot:      version {}; the batch after it committed as version {version}",
        snap.version()
    );
    drop(snap);

    // --- 3. on disk: one log, a checkpoint cut into FILES key ranges ------
    let dir = std::env::temp_dir().join(format!("pam-one-tree-demo-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let ledger = Ledger::open(&dir, config(FILES), DurabilityConfig::default()).expect("open");
    ledger.put_all((0..2_000u64).map(|k| (k, k % 97))).wait();
    let epoch = ledger.checkpoint().expect("checkpoint");
    ledger.put_all((2_000..2_100u64).map(|k| (k, 1))).wait(); // a log tail
    println!("durable:       {FILES} files checkpointed at store epoch {epoch}");
    drop(ledger); // clean shutdown: the committer drains and the log flushes

    let ledger = Ledger::open(&dir, config(FILES), DurabilityConfig::default()).expect("reopen");
    assert_eq!(ledger.len(), 2_100);
    for (i, info) in ledger.recovery().iter().enumerate() {
        assert_eq!(info.checkpoint_epoch, epoch);
        println!(
            "  shard-{i}/:     {} entries at epoch {}, loaded in {:?}",
            info.checkpoint_entries, info.checkpoint_epoch, info.timings.bulk_load
        );
    }
    let loaded: u64 = ledger.recovery().iter().map(|r| r.checkpoint_entries).sum();
    assert_eq!(loaded, 2_000, "the files partition the checkpointed map");
    println!(
        "recovered:     {} entries: {loaded} from the files, {} log records replayed",
        ledger.len(),
        ledger.recovery()[0].replayed_epochs
    );
    // the file count is pinned by the manifest
    drop(ledger);
    let err = Ledger::open(&dir, config(2 * FILES), DurabilityConfig::default())
        .expect_err("a different file count must be refused");
    println!("mismatch:      refused as expected: {err}");

    let _ = fs::remove_dir_all(&dir);
    println!("ok");
}
