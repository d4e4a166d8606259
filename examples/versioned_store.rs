//! The `pam-store` tour: a sensor-metrics service with live ingest,
//! non-blocking analytics, and a held historical version.
//!
//! Run with: `cargo run --release --example versioned_store`

use pam::SumAug;
use pam_store::{ShardedConfig, Store, WriteOp};
use std::sync::Arc;
use std::time::Duration;

// key = (sensor_id << 32) | timestamp, value = reading; SumAug gives us
// O(log n) range *sums* over any key interval for free.
type Metrics = Store<SumAug<u64, u64>>;

fn key(sensor: u64, t: u64) -> u64 {
    (sensor << 32) | t
}

fn main() {
    let store = Arc::new(Metrics::volatile(
        ShardedConfig::builder()
            .shards(1)
            .batch_window(Duration::from_micros(200)) // group-commit window
            .build(),
    ));

    // --- live ingest: 4 writer threads stream readings --------------------
    let writers: Vec<_> = (0..4u64)
        .map(|sensor| {
            let s = store.clone();
            std::thread::spawn(move || {
                for t in 0..10_000u64 {
                    // all writers' puts coalesce into shared commit batches
                    s.put(key(sensor, t), (sensor + 1) * 10 + t % 7);
                }
                s.flush()
            })
        })
        .collect();

    // --- analytics run concurrently, pinned to a consistent version ------
    let analytics = {
        let s = store.clone();
        std::thread::spawn(move || {
            let mut last = 0;
            for _ in 0..50 {
                let pin = s.shard(0).pin(); // O(1); never blocks ingest
                let sensor0_sum = pin.map().aug_range(&key(0, 0), &key(0, u32::MAX as u64));
                assert!(sensor0_sum >= last, "sums are monotone under ingest");
                last = sensor0_sum;
                std::thread::sleep(Duration::from_micros(300));
            }
            last
        })
    };

    for w in writers {
        w.join().unwrap();
    }
    let final_sum = analytics.join().unwrap();
    println!("ingest done; last pinned sensor-0 sum: {final_sum}");

    // --- history: a snapshot lives exactly as long as it is held ----------
    let nightly = store.snapshot();
    println!(
        "holding version {:?} as \"nightly\"",
        nightly.version_vector()
    );

    // keep writing; the snapshot keeps yesterday's view
    store
        .write_batch((0..1000u64).map(|t| WriteOp::Delete(key(0, t))))
        .wait();
    let sensor0 = (key(0, 0), key(0, u32::MAX as u64));
    println!(
        "sensor-0 readings now: {}, in \"nightly\": {}",
        store.range(&sensor0.0, &sensor0.1).len(),
        nightly.range(&sensor0.0, &sensor0.1).len(),
    );
    assert_eq!(nightly.range(&sensor0.0, &sensor0.1).len(), 10_000);

    // --- observability ----------------------------------------------------
    let stats = store.stats();
    println!("\nstats: {stats}");
    println!(
        "memory: {} KiB in the head; {} live versions (the head and \"nightly\")",
        store.memory_bytes() / 1024,
        stats.live_versions
    );
    assert_eq!(stats.live_versions, 2);
    assert!(stats.mean_batch() > 1.0, "group commit batched writers");
    drop(nightly);
    assert_eq!(store.stats().live_versions, 1);
}
