//! Crash-recovery integration tests for a durable `Store` whose
//! checkpoints are one file.
//!
//! The centerpiece is `kill_and_recover`: the test re-executes its own
//! binary as a child process that writes through a durable `Store` and
//! then `abort()`s — no destructors, no WAL flush, exactly like a crash —
//! and the parent recovers the directory and checks the durable prefix
//! against an in-memory oracle. Torn-tail and checkpoint interplay get
//! their own deterministic tests.

use pam::{NoAug, SumAug};
use pam_store::{DurabilityConfig, ShardedConfig, SyncPolicy, WriteOp};
use pam_wal::frame::{self, Frame};
use pam_wal::wal::SEGMENT_MAGIC;
use pam_wal::Reader;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::Duration;

type Store = pam_store::Store<SumAug<u64, u64>>;

fn eager() -> ShardedConfig {
    ShardedConfig::builder()
        .shards(1)
        .batch_window(Duration::ZERO)
        .build()
}

/// The newest segment of the store's log.
fn active_segment(dir: &Path) -> PathBuf {
    fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| {
            let p = e.unwrap().path();
            p.extension().is_some_and(|x| x == "seg").then_some(p)
        })
        .max()
        .expect("a WAL segment exists")
}

fn fresh_dir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("pam-recovery-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&d);
    d
}

fn open(dir: &PathBuf, durability: DurabilityConfig) -> Store {
    Store::open(dir, eager(), durability).expect("open durable store")
}

#[test]
fn reopen_sees_acked_writes() {
    let dir = fresh_dir("reopen");
    {
        let store = open(&dir, DurabilityConfig::default());
        for e in 1..=30u64 {
            store.put(e, e * 2).wait();
        }
        store.delete(7).wait();
        let stats = store.stats();
        assert!(stats.durability.wal_records >= 31);
        assert!(stats.durability.wal_bytes > 0);
        assert!(
            stats.durability.wal_fsyncs >= 31,
            "SyncEachEpoch must fsync per epoch"
        );
        // one record per epoch, and a version is its epoch's number
        assert_eq!(store.flush(), stats.durability.wal_records);
    }
    let store = open(&dir, DurabilityConfig::default());
    let rec = store.recovery()[0].clone();
    assert_eq!(rec.checkpoint_epoch, 0, "no checkpoint was written");
    assert!(rec.replayed_epochs >= 31);
    assert_eq!(store.len(), 29);
    for e in 1..=30u64 {
        assert_eq!(store.get(&e), (e != 7).then_some(e * 2));
    }
    // writes continue with monotone WAL epochs, which are versions
    assert_eq!(store.flush(), rec.last_epoch);
    assert_eq!(store.put(100, 100).wait(), rec.last_epoch + 1);
    drop(store);
    fs::remove_dir_all(&dir).unwrap();
}

/// Dropping a durable store drains what its writers left buffered into
/// the log before the directory is released: 100 puts nobody waited for
/// are all there after a reopen, replayed from the log. A large first
/// batch keeps the committer busy, so the puts are still buffered when
/// the store drops.
#[test]
fn writes_left_buffered_at_drop_reach_the_log() {
    const BULK: u64 = 100_000;
    let dir = fresh_dir("drop-drain");
    {
        let store = open(&dir, DurabilityConfig::default());
        store.put_all((0..BULK).map(|k| (k, k)));
        for e in 0..100u64 {
            store.put(BULK + e, e * 5);
        }
    }
    let store = open(&dir, DurabilityConfig::default());
    for e in 0..100u64 {
        assert_eq!(
            store.get(&(BULK + e)),
            Some(e * 5),
            "unawaited put {e} lost"
        );
    }
    assert_eq!(store.len() as u64, BULK + 100);
    assert!(store.recovery()[0].replayed_epochs >= 1);
    drop(store);
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn torn_tail_recovers_exactly_the_durable_prefix() {
    let dir = fresh_dir("torn");
    let mut oracle: BTreeMap<u64, u64> = BTreeMap::new();
    {
        let store = open(&dir, DurabilityConfig::default());
        for e in 1..=25u64 {
            store.put(e % 10, e).wait();
            oracle.insert(e % 10, e);
        }
    }
    // simulate a crash mid-append: garbage half-record on the active
    // segment (a frame header promising more bytes than exist)
    let seg = active_segment(&dir);
    let mut bytes = fs::read(&seg).unwrap();
    bytes.extend_from_slice(&[0x40, 0, 0, 0, 0xba, 0xad, 0xf0, 0x0d, 9, 9, 9]);
    fs::write(&seg, bytes).unwrap();

    let store = open(&dir, DurabilityConfig::default());
    let recovered: BTreeMap<u64, u64> = store.range(&0, &u64::MAX).into_iter().collect();
    assert_eq!(recovered, oracle, "recovery must equal the durable prefix");
    // the truncated tail must not poison future appends
    store.put(999, 1).wait();
    drop(store);
    let store = open(&dir, DurabilityConfig::default());
    assert_eq!(store.get(&999), Some(1));
    drop(store);
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn checkpoint_truncates_wal_and_bulk_loads() {
    let dir = fresh_dir("ckpt");
    let tiny_segments = DurabilityConfig {
        segment_bytes: 256, // rotate every few epochs
        checkpoint_every_bytes: None,
        ..DurabilityConfig::default()
    };
    let mut oracle: BTreeMap<u64, u64> = BTreeMap::new();
    let ckpt_epoch;
    {
        let store = open(&dir, tiny_segments.clone());
        for e in 1..=60u64 {
            store.put(e, e * 3).wait();
            oracle.insert(e, e * 3);
        }
        let segments_before = store.stats().durability.wal_segments;
        assert!(segments_before > 3, "tiny segments must rotate");
        ckpt_epoch = store.checkpoint().expect("manual checkpoint");
        assert_eq!(ckpt_epoch, store.flush(), "the checkpoint cut the head");
        let stats = store.stats();
        assert_eq!(stats.durability.checkpoints, 1);
        assert_eq!(stats.durability.last_checkpoint_epoch, ckpt_epoch);
        assert!(stats.durability.last_checkpoint_age.is_some());
        assert!(
            stats.durability.wal_segments < segments_before,
            "checkpoint must unlink covered segments"
        );
        // a few post-checkpoint epochs for replay to pick up
        for e in 100..=105u64 {
            store.put(e, e).wait();
            oracle.insert(e, e);
        }
    }
    let store = open(&dir, tiny_segments);
    let rec = store.recovery()[0].clone();
    assert_eq!(rec.checkpoint_epoch, ckpt_epoch);
    assert_eq!(rec.checkpoint_entries, 60);
    assert!(
        (6..=60).contains(&rec.replayed_epochs),
        "should replay the post-checkpoint epochs (and at most a \
         segment's worth of pre-checkpoint ones), got {}",
        rec.replayed_epochs
    );
    let recovered: BTreeMap<u64, u64> = store.range(&0, &u64::MAX).into_iter().collect();
    assert_eq!(recovered, oracle);
    drop(store);
    fs::remove_dir_all(&dir).unwrap();
}

/// A checkpoint whose frames all pass their CRCs but whose keys are out
/// of order — unsorted within a chunk, or a chunk that starts at or
/// below the previous chunk's last key — is corrupt: bulk-loaded as it
/// is, it would be a tree that breaks the search order. Recovery refuses
/// it and falls back as on a CRC failure, or fails with `InvalidData`;
/// it never serves a broken map.
#[test]
fn a_checkpoint_with_keys_out_of_order_is_refused() {
    // 10k entries: three chunks of at most 4096
    const N: u64 = 10_000;
    const CHUNK: usize = 4096;
    type Plant = fn(&mut [(u64, u64)]);
    let plants: [(&str, Plant); 3] = [
        ("unsorted-chunk", |p| p.swap(10, 20)),
        ("repeated-key", |p| p[CHUNK].0 = p[CHUNK - 1].0),
        ("descending-chunks", |p| p.swap(CHUNK - 1, CHUNK)),
    ];
    let manual = DurabilityConfig {
        checkpoint_every_bytes: None,
        ..DurabilityConfig::default()
    };
    for (name, plant) in plants {
        let dir = fresh_dir(name);
        let mut oracle = BTreeMap::new();
        let (first, newest) = {
            let store = open(&dir, manual.clone());
            let mut put = |keys: std::ops::Range<u64>| {
                let pairs: Vec<(u64, u64)> = keys.map(|k| (k * 2, k)).collect();
                oracle.extend(pairs.iter().copied());
                store.put_all(pairs).wait();
            };
            put(0..N / 2);
            let first = store.checkpoint().unwrap();
            put(N / 2..N);
            (first, store.checkpoint().unwrap())
        };
        // rewrite the newest file: same epoch and count, valid frames
        let mut pairs: Vec<(u64, u64)> = oracle.iter().map(|(&k, &v)| (k, v)).collect();
        plant(&mut pairs);
        pam_wal::checkpoint::write(&dir.join("shard-0"), newest, N, |emit| {
            pairs.iter().for_each(|(k, v)| emit(k, v))
        })
        .unwrap();
        match Store::open(&dir, eager(), manual.clone()) {
            Ok(store) => {
                assert_eq!(store.recovery()[0].checkpoint_epoch, first, "{name}");
                let snap = store.snapshot();
                snap.map().check_invariants().unwrap();
                let recovered: BTreeMap<u64, u64> = snap.range(&0, &u64::MAX).into_iter().collect();
                assert_eq!(recovered, oracle, "{name}");
            }
            Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "{name}: {e}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn background_checkpointer_fires_on_bytes_threshold() {
    let dir = fresh_dir("auto-ckpt");
    let auto = DurabilityConfig {
        sync: SyncPolicy::NoSync,
        checkpoint_every_bytes: Some(1024),
        ..DurabilityConfig::default()
    };
    let store = open(&dir, auto);
    for e in 1..=200u64 {
        store.put(e, e).wait();
    }
    // the checkpointer polls every 50ms; give it a few ticks
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while store.stats().durability.checkpoints == 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "background checkpointer never fired"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    drop(store);
    let store = open(&dir, DurabilityConfig::default());
    assert!(store.recovery()[0].checkpoint_epoch > 0);
    assert_eq!(store.len(), 200);
    drop(store);
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn second_open_on_a_live_directory_is_refused() {
    let dir = fresh_dir("double-open");
    let store = open(&dir, DurabilityConfig::default());
    store.put(1, 1).wait();
    let err = Store::open(&dir, eager(), DurabilityConfig::default())
        .expect_err("a second writer on the same dir must be refused");
    assert_eq!(err.kind(), std::io::ErrorKind::WouldBlock);
    drop(store);
    // released on drop: reopening now succeeds
    let store = open(&dir, DurabilityConfig::default());
    assert_eq!(store.get(&1), Some(1));
    drop(store);
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn string_keys_and_blob_values_roundtrip() {
    let dir = fresh_dir("strings");
    type Blob = pam_store::Store<NoAug<String, Vec<u8>>>;
    {
        let store: Blob = Blob::open(&dir, eager(), DurabilityConfig::default()).unwrap();
        store.put("user:alice".into(), b"profile-a".to_vec());
        store.put("user:bob".into(), vec![0u8; 300]);
        store.delete("user:alice".into());
        store.flush();
    }
    let store: Blob = Blob::open(&dir, eager(), DurabilityConfig::default()).unwrap();
    assert_eq!(store.get(&"user:alice".into()), None);
    assert_eq!(store.get(&"user:bob".into()), Some(vec![0u8; 300]));
    drop(store);
    fs::remove_dir_all(&dir).unwrap();
}

/// The crash test proper. When `PAM_CRASH_DIR` is set this test *is* the
/// crashing child: it writes 20 acked epochs, checkpoints, writes 20
/// more, submits one unacked batch, and aborts without unwinding. The
/// parent run spawns that child, waits for the abort, and recovers.
#[test]
fn kill_and_recover() {
    if let Ok(dir) = std::env::var("PAM_CRASH_DIR") {
        let store = open(&PathBuf::from(dir), DurabilityConfig::default());
        for e in 1..=20u64 {
            store.put(e, e * 7).wait();
        }
        store.checkpoint().expect("child checkpoint");
        for e in 21..=40u64 {
            store.put(e, e * 7).wait();
        }
        // enqueued but never awaited: may or may not reach the log
        store.write_batch((0..10u64).map(|i| WriteOp::Put(1000 + i, i)));
        std::process::abort();
    }

    let dir = fresh_dir("kill");
    fs::create_dir_all(&dir).unwrap();
    let status = std::process::Command::new(std::env::current_exe().unwrap())
        .args([
            "kill_and_recover",
            "--exact",
            "--test-threads=1",
            "--nocapture",
        ])
        .env("PAM_CRASH_DIR", &dir)
        // the child's harness leaves a half-printed "test … " line when it
        // aborts; keep it out of this run's report
        .stdout(std::process::Stdio::null())
        .status()
        .expect("spawn crash child");
    assert!(
        !status.success(),
        "child must die by abort, not exit cleanly"
    );

    let store = open(&dir, DurabilityConfig::default());
    // every acked write survives — that is the durability contract
    for e in 1..=40u64 {
        assert_eq!(store.get(&e), Some(e * 7), "acked write {e} lost");
    }
    let rec = &store.recovery()[0];
    assert!(rec.checkpoint_epoch >= 1, "child checkpointed");
    // every recovery phase that did real work reports nonzero wall time;
    // one log needs no pre-scan and no vote
    let t = rec.timings;
    assert!(t.bulk_load > Duration::ZERO, "checkpoint bulk-load untimed");
    assert!(t.segment_scan > Duration::ZERO, "WAL segment scan untimed");
    assert!(t.replay > Duration::ZERO, "post-checkpoint replay untimed");
    assert_eq!((t.prescan, t.vote), (Duration::ZERO, Duration::ZERO));
    assert_eq!(t.total(), t.bulk_load + t.segment_scan + t.replay);
    // the unacked tail batch is atomic: all ten keys or none
    let tail: Vec<u64> = (0..10u64).filter_map(|i| store.get(&(1000 + i))).collect();
    assert!(
        tail.is_empty() || tail == (0..10u64).collect::<Vec<_>>(),
        "unacked epoch must be all-or-nothing, saw {} keys",
        tail.len()
    );
    assert_eq!(
        store.len() as u64,
        40 + if tail.is_empty() { 0 } else { 10 }
    );
    drop(store);
    fs::remove_dir_all(&dir).unwrap();
}

/// Put/Delete over a key space of eight, so a key is put, deleted and
/// put again across the epochs of one history.
fn op_strategy() -> impl Strategy<Value = WriteOp<SumAug<u64, u64>>> {
    prop_oneof![
        (0u64..8, 0u64..1_000).prop_map(|(k, v)| WriteOp::Put(k, v)),
        (0u64..8).prop_map(WriteOp::Delete),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // Recovery replays the whole log tail after the checkpoint as one
    // bulk update. After every epoch of a random history, with a
    // checkpoint somewhere in it and segments small enough that the
    // log keeps epochs the checkpoint covers, the reopened store must
    // equal the epochs applied one by one, in order.
    #[test]
    fn a_reopen_after_every_epoch_equals_the_epochs_applied_in_order(
        epochs in collection::vec(collection::vec(op_strategy(), 1..6), 1..14),
        checkpoint_after in 0usize..14,
        shards in 1usize..4,
    ) {
        let dir = fresh_dir("replay-prop");
        let cfg = ShardedConfig::builder()
            .shards(shards)
            .batch_window(Duration::ZERO)
            .build();
        let durability = DurabilityConfig::builder()
            .sync(SyncPolicy::NoSync)
            .segment_bytes(96)
            .manual_checkpoints_only()
            .build();
        let reopen = || Store::open(&dir, cfg.clone(), durability.clone()).expect("reopen");
        let mut oracle: BTreeMap<u64, u64> = BTreeMap::new();
        let mut store = reopen();
        let mut checkpoint = 0;
        for (i, ops) in epochs.into_iter().enumerate() {
            for op in &ops {
                match *op {
                    WriteOp::Put(k, v) => oracle.insert(k, v),
                    WriteOp::Delete(k) => oracle.remove(&k),
                };
            }
            let epoch = i as u64 + 1;
            prop_assert_eq!(store.write_batch(ops).wait(), epoch);
            if i == checkpoint_after {
                checkpoint = store.checkpoint().expect("checkpoint");
            }
            drop(store);
            store = reopen();
            let rec = store.recovery()[0].clone();
            prop_assert_eq!(rec.checkpoint_epoch, checkpoint);
            prop_assert_eq!(rec.last_epoch, epoch);
            prop_assert_eq!(rec.replayed_epochs, epoch - checkpoint);
            let snap = store.snapshot();
            snap.map().check_invariants().unwrap();
            prop_assert_eq!(
                snap.map().to_vec(),
                oracle.iter().map(|(&k, &v)| (k, v)).collect::<Vec<_>>()
            );
        }
        drop(store);
        fs::remove_dir_all(&dir).unwrap();
    }
}

/// A record whose frame passes its CRC but whose body is no epoch body
/// — written by something speaking another schema — fails the open
/// with `InvalidData` when later records follow it: replay never skips
/// an epoch, nor serves the epochs around it.
#[test]
fn an_undecodable_record_mid_tail_fails_the_open() {
    let dir = fresh_dir("undecodable");
    let manual = DurabilityConfig {
        checkpoint_every_bytes: None,
        ..DurabilityConfig::default()
    };
    {
        let store = open(&dir, manual.clone());
        for e in 1..=6u64 {
            store.put(e, e).wait();
        }
    }
    // rewrite the log with epoch 3's body followed by a stray byte, in
    // a frame whose CRC covers it
    let seg = active_segment(&dir);
    let bytes = fs::read(&seg).unwrap();
    let mut rewritten = SEGMENT_MAGIC.to_vec();
    let mut pos = SEGMENT_MAGIC.len();
    while pos < bytes.len() {
        let Frame::Ok { payload, consumed } = frame::next_frame(&bytes[pos..]) else {
            panic!("the log holds whole frames");
        };
        let epoch = Reader::new(payload).varint().unwrap();
        let mut payload = payload.to_vec();
        if epoch == 3 {
            payload.push(0);
        }
        frame::put_frame(&mut rewritten, &payload);
        pos += consumed;
    }
    fs::write(&seg, rewritten).unwrap();
    match Store::open(&dir, eager(), manual) {
        Ok(_) => panic!("an undecodable record mid-tail must fail the open"),
        Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "{e}"),
    }
    fs::remove_dir_all(&dir).unwrap();
}
