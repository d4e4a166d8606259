//! A store runs one committer and, when durable, one checkpointer,
//! however many files its checkpoints are cut into. Alone in its test binary, so no other
//! test's store is alive while the threads are counted.
//!
//! A thread names itself once it runs, and nothing the test does waits
//! for either thread to run — a lone writer commits its own epoch — so
//! each count polls under a deadline until it reads what it must.

use pam::SumAug;
use pam_store::{DurabilityConfig, ShardedConfig, Store};
use std::fs;
use std::time::Duration;

/// Live threads of this process whose name starts with `prefix` (the
/// kernel keeps the first 15 bytes of a thread name).
fn threads_named(prefix: &str) -> usize {
    fs::read_dir("/proc/self/task")
        .expect("procfs")
        .filter(|task| {
            let comm = task.as_ref().unwrap().path().join("comm");
            fs::read_to_string(comm).is_ok_and(|name| prefix.starts_with(name.trim()))
        })
        .count()
}

#[test]
fn a_two_shard_durable_store_starts_one_committer_and_one_checkpointer() {
    let dir = std::env::temp_dir().join(format!("pam-threads-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let count = || {
        (
            threads_named("pam-store-committer"),
            threads_named("pam-store-checkpointer"),
        )
    };
    // a thread starting, or a joined one lingering in procfs while it
    // exits, is seen after a moment
    let settled = |want| {
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while count() != want && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        count()
    };
    assert_eq!(count(), (0, 0));
    let store: Store<SumAug<u64, u64>> = Store::open(
        &dir,
        ShardedConfig::builder()
            .shards(2)
            .batch_window(Duration::ZERO)
            .build(),
        DurabilityConfig::default(),
    )
    .unwrap();
    store.put_all((0..64u64).map(|k| (k, k))).wait();
    assert_eq!(settled((1, 1)), (1, 1), "one of each for two shards");
    drop(store);
    assert_eq!(settled((0, 0)), (0, 0), "dropping the store joins both");
    fs::remove_dir_all(&dir).unwrap();
}
