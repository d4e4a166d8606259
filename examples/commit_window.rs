//! What the group-commit window costs and buys as writers are added:
//! 1 to 32 closed-loop writers (each sends its next `put` only after the
//! previous one is acked) on one volatile shard with the default 200 µs
//! window, over the serving spec (`Vec<u8>` keys and values, as in
//! `pam-serve`) preloaded with 150 000 records.
//!
//! Per writer count it prints operations per commit (the batching the
//! paper's bulk `multi_insert` amortises over), throughput, the put-ack
//! latency and how long epochs sat open. EXPERIMENTS §12 runs it on two
//! commits to compare window policies; it uses only API both have.
//!
//! Run with: `cargo run --release --example commit_window`

use pam::NoAug;
use pam_store::{ShardedConfig, Store};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

type ByteStore = Store<NoAug<Vec<u8>, Vec<u8>>>;

const PRELOAD: u64 = 150_000;
const WINDOW: Duration = Duration::from_micros(200);
const RUN: Duration = Duration::from_millis(1500);

fn key(i: u64) -> Vec<u8> {
    format!("user{i:012}").into_bytes()
}

fn main() {
    println!(
        "# {} cores, window {WINDOW:?}, {PRELOAD} records preloaded, {RUN:?} per row",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    println!("writers  ops/commit   kops/s  ack_p50_us  ack_p99_us  window_p50_us  window_p99_us");
    for writers in [1u64, 2, 4, 8, 16, 32] {
        let store = Arc::new(ByteStore::volatile(
            ShardedConfig::builder()
                .shards(1)
                .batch_window(WINDOW)
                .build(),
        ));
        store
            .put_all((0..PRELOAD).map(|i| (key(i), vec![0u8; 100])))
            .wait();
        let before = store.stats();
        let start = Arc::new(Barrier::new(writers as usize));
        let handles: Vec<_> = (0..writers)
            .map(|w| {
                let (store, start) = (store.clone(), start.clone());
                std::thread::spawn(move || {
                    let mut acks = Vec::new();
                    let mut x = 0x9e37_79b9_7f4a_7c15_u64 ^ (w + 1);
                    start.wait();
                    let t0 = Instant::now();
                    while t0.elapsed() < RUN {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        // each writer owns the keys congruent to it
                        let k = (x % (PRELOAD / writers)) * writers + w;
                        let value = x.to_le_bytes().repeat(13);
                        let sent = Instant::now();
                        store.put(key(k), value.clone()).wait();
                        acks.push(sent.elapsed());
                        assert_eq!(store.get(&key(k)), Some(value), "acked put not readable");
                    }
                    acks
                })
            })
            .collect();
        let mut acks: Vec<Duration> = Vec::new();
        for h in handles {
            acks.extend(h.join().expect("writer panicked"));
        }
        let after = store.stats();
        acks.sort();
        let pct = |q: f64| acks[((acks.len() - 1) as f64 * q) as usize].as_secs_f64() * 1e6;
        let commits = after.commits - before.commits;
        println!(
            "{writers:7}  {:10.2}  {:7.1}  {:10.0}  {:10.0}  {:13.0}  {:13.0}",
            acks.len() as f64 / commits as f64,
            acks.len() as f64 / RUN.as_secs_f64() / 1e3,
            pct(0.5),
            pct(0.99),
            after.commit_window.p50() as f64 / 1e3,
            after.commit_window.p99() as f64 / 1e3,
        );
    }
}
