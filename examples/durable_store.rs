//! The `pam-wal` tour: a key-value service that survives restarts.
//!
//! Walks the full durability lifecycle — logged writes, a non-blocking
//! checkpoint, clean restart, and a simulated crash (torn WAL record) —
//! against a durable `Store` whose checkpoints are one file.
//!
//! Run with: `cargo run --release --example durable_store`

use pam::SumAug;
use pam_store::{DurabilityConfig, ShardedConfig, Store, SyncPolicy};
use std::fs;
use std::io::Write as _;
use std::sync::Arc;
use std::time::Duration;

type Ledger = Store<SumAug<u64, u64>>;

fn open(dir: &std::path::Path) -> Ledger {
    Ledger::open(
        dir,
        ShardedConfig::builder()
            .shards(1)
            .batch_window(Duration::from_micros(100))
            .build(),
        DurabilityConfig {
            sync: SyncPolicy::SyncEachEpoch, // acked == on disk
            segment_bytes: 64 << 10,         // small segments for the demo
            ..DurabilityConfig::default()
        },
    )
    .expect("open durable store")
}

fn main() {
    let dir = std::env::temp_dir().join(format!("pam-durable-demo-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);

    // --- 1. a fresh store: writes are logged before they are acked ------
    let store = Arc::new(open(&dir));
    let accounts = 4u64;
    let writers: Vec<_> = (0..accounts)
        .map(|acct| {
            let s = store.clone(); // every handle feeds the same logged pipeline
            std::thread::spawn(move || {
                for t in 0..2_000u64 {
                    s.put(acct * 10_000 + t, acct + 1);
                }
                s.flush()
            })
        })
        .collect();
    for w in writers {
        w.join().unwrap();
    }
    let stats = store.stats();
    println!("after ingest:  {stats}");
    assert_eq!(store.len() as u64, accounts * 2_000);
    // group commit amortizes the log: far fewer records than writes
    assert!(stats.durability.wal_records < stats.raw_ops);

    // --- 2. checkpoint: stream a pinned snapshot, truncate the log ------
    let ckpt_epoch = store.checkpoint().expect("checkpoint");
    println!(
        "checkpoint at wal epoch {ckpt_epoch}: {}",
        store.stats().durability
    );
    drop(store); // clean shutdown (drains + flushes)

    // --- 3. restart: bulk-load the checkpoint, replay the newer log -----
    let store = open(&dir);
    let rec = store.recovery()[0].clone();
    println!(
        "recovered:     {} entries from checkpoint (epoch {}), {} epochs replayed",
        rec.checkpoint_entries, rec.checkpoint_epoch, rec.replayed_epochs
    );
    assert_eq!(store.len() as u64, accounts * 2_000);
    let balance_acct0 = store.aug_range(&0, &9_999);
    assert_eq!(balance_acct0, 2_000); // account 0 wrote 2000 × value 1

    // --- 4. crash: write, then tear the last WAL record -----------------
    store.put(777_777, 42).wait();
    drop(store);
    let torn_segment = fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| {
            let p = e.unwrap().path();
            p.extension().is_some_and(|x| x == "seg").then_some(p)
        })
        .max()
        .expect("a WAL segment");
    let mut f = fs::OpenOptions::new()
        .append(true)
        .open(&torn_segment)
        .unwrap();
    // a frame header promising 64 bytes, followed by... nothing much
    f.write_all(&[64, 0, 0, 0, 0xde, 0xad, 0xbe, 0xef, 1, 2, 3])
        .unwrap();
    drop(f);

    let store = open(&dir);
    println!(
        "after torn-tail crash: recovered len {} (torn record discarded cleanly)",
        store.len()
    );
    assert_eq!(
        store.get(&777_777),
        Some(42),
        "acked write survived the tear"
    );

    println!("\nfinal stats:   {}", store.stats());
    drop(store);
    let _ = fs::remove_dir_all(&dir);
    println!("ok");
}
