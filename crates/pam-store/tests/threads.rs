//! A store runs one committer and, when durable, one checkpointer,
//! however many files its checkpoints are cut into. Alone in its test binary, so no other
//! test's store is alive while the threads are counted.

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
    assert_eq!(count(), (1, 1), "one of each for two shards");
    drop(store);
    // a joined thread may linger in procfs for a moment while it exits
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while count() != (0, 0) && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(count(), (0, 0), "dropping the store joins both");
    fs::remove_dir_all(&dir).unwrap();
}
