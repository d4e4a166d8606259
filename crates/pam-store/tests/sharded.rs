//! Integration tests for the multi-shard store: routing correctness
//! against a 1-shard oracle, cross-shard snapshot consistency under
//! concurrent writers, and durable recovery — including a subprocess
//! `abort()` crash with a torn WAL tail in one shard.

use pam::SumAug;
use pam_store::{DurabilityConfig, ShardKey, ShardedConfig, Store, StoreConfig, WriteOp};
use proptest::prelude::*;
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

type S = SumAug<u64, u64>;
type Kv = Store<S>;

fn eager_store() -> StoreConfig {
    StoreConfig {
        batch_window: Duration::ZERO,
        ..StoreConfig::default()
    }
}

fn eager_sharded(shards: usize) -> ShardedConfig {
    ShardedConfig {
        shards,
        store: eager_store(),
    }
}

fn fresh_dir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("pam-sharded-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&d);
    d
}

fn op_strategy() -> impl Strategy<Value = WriteOp<S>> {
    prop_oneof![
        (0u64..128, 0u64..1_000_000).prop_map(|(k, v)| WriteOp::Put(k, v)),
        (0u64..128).prop_map(WriteOp::Delete),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // The same op stream through an N-shard store and a 1-shard store
    // must land on identical final contents: hash routing + per-shard
    // group commit is invisible to the map semantics.
    #[test]
    fn sharded_store_matches_single_store_oracle(
        ops in collection::vec(op_strategy(), 0..400),
        shards in 1usize..7,
        cuts in collection::vec(1usize..32, 1..16),
    ) {
        let single = Kv::volatile(eager_sharded(1));
        let sharded = Kv::volatile(eager_sharded(shards));
        let mut rest = ops.as_slice();
        let mut cut_iter = cuts.iter().cycle();
        while !rest.is_empty() {
            let n = (*cut_iter.next().unwrap()).min(rest.len());
            let (chunk, tail) = rest.split_at(n);
            single.write_batch(chunk.to_vec());
            sharded.write_batch(chunk.to_vec());
            rest = tail;
        }
        single.flush();
        sharded.flush();
        let oracle = single.shard(0).pin().map().to_vec();
        prop_assert_eq!(sharded.range(&0, &u64::MAX), oracle.clone());
        prop_assert_eq!(sharded.snapshot().range(&0, &u64::MAX), oracle.clone());
        prop_assert_eq!(sharded.len(), oracle.len());
        prop_assert_eq!(sharded.aug_val(), single.aug_val());
    }
}

/// Two writer threads, each acking write i before submitting write i+1,
/// while snapshots are taken concurrently: every snapshot must contain a
/// *prefix* of each writer's sequence (a hole would mean the barrier cut
/// one shard after a later write but another shard before an earlier
/// one — exactly the anomaly the epoch barrier exists to prevent).
#[test]
fn snapshots_are_consistent_cuts_under_concurrent_writers() {
    const PER_WRITER: u64 = 400;
    let store = Arc::new(Kv::volatile(ShardedConfig {
        shards: 4,
        store: StoreConfig {
            batch_window: Duration::from_micros(50),
            ..StoreConfig::default()
        },
    }));
    let stop = Arc::new(AtomicBool::new(false));

    let writers: Vec<_> = (0..2u64)
        .map(|w| {
            let s = store.clone();
            std::thread::spawn(move || {
                for i in 1..=PER_WRITER {
                    // key encodes (writer, seq); hash spreads across shards
                    s.put(w * 1_000_000 + i, i).wait();
                }
            })
        })
        .collect();

    let snapshotter = {
        let s = store.clone();
        let stop = stop.clone();
        std::thread::spawn(move || {
            let mut taken = 0u32;
            while !stop.load(Ordering::Relaxed) {
                let snap = s.snapshot();
                for w in 0..2u64 {
                    let mut seqs = Vec::new();
                    snap.range_for_each(&(w * 1_000_000), &(w * 1_000_000 + PER_WRITER), |k, _| {
                        seqs.push(k - w * 1_000_000)
                    });
                    let expected: Vec<u64> = (1..=seqs.len() as u64).collect();
                    assert_eq!(
                        seqs, expected,
                        "writer {w}: snapshot must hold a gap-free prefix"
                    );
                }
                taken += 1;
            }
            taken
        })
    };

    for wtr in writers {
        wtr.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    let taken = snapshotter.join().unwrap();
    assert!(taken > 0, "snapshotter raced at least once");
    assert_eq!(store.snapshot().len() as u64, 2 * PER_WRITER);
}

/// The PR-5 note "live sharded range scans pay one snapshot per scan"
/// made measurable: every epoch-fenced cut bumps `snapshots_taken` and
/// records its fence wait, and the
/// aggregated histograms carry exactly the union of the per-shard
/// samples.
#[test]
fn fence_counters_and_wait_histograms_are_recorded() {
    let store = Kv::volatile(eager_sharded(3));
    let t = store.put_all((0..100u64).map(|k| (k, 1)));
    assert!(t.global_epoch().is_some(), "preload must span shards");
    t.wait();
    assert_eq!(store.stats().snapshots_taken, 0, "no snapshot yet");

    for _ in 0..5 {
        let _ = store.snapshot();
    }
    let mut n = 0;
    store.range_for_each(&0, &u64::MAX, |_, _| n += 1); // 1 internal snapshot
    assert_eq!(n, 100);

    let s = store.stats();
    assert_eq!(s.snapshots_taken, 6, "5 explicit + 1 per live range scan");
    // the fence-wait histogram saw every acquisition: 6 write-side
    // (snapshots) + 1 read-side (the cross-shard preload batch)
    assert_eq!(s.fence_wait.count(), 7);
    // aggregate percentiles come from the union of per-shard samples
    assert_eq!(s.commit.count(), s.commits);
    assert_eq!(
        s.commits,
        store
            .stats_per_shard()
            .iter()
            .map(|p| p.commit.count())
            .sum::<u64>()
    );
}

#[test]
fn durable_sharded_reopen_sees_acked_writes() {
    let dir = fresh_dir("reopen");
    {
        let store = Kv::open(&dir, eager_sharded(4), DurabilityConfig::default()).unwrap();
        store.put_all((0..100u64).map(|k| (k, k * 3))).wait();
        store.delete(17).wait();
        let stats = store.stats();
        assert!(stats.durability.wal_records > 0);
        assert!(
            stats.durability.wal_fsyncs > 0,
            "SyncEachEpoch shards fsync"
        );
        assert_eq!(stats.durability.wal_segments as usize, store.num_shards());
    }
    let store = Kv::open(&dir, eager_sharded(4), DurabilityConfig::default()).unwrap();
    assert_eq!(store.recovery().len(), 4);
    assert!(
        store.recovery().iter().all(|r| r.replayed_epochs > 0),
        "every shard replays its own WAL"
    );
    assert_eq!(store.len(), 99);
    for k in 0..100u64 {
        assert_eq!(store.get(&k), (k != 17).then_some(k * 3));
    }
    // writes keep flowing after recovery, on every shard
    store.put_all((1000..1100u64).map(|k| (k, k))).wait();
    assert_eq!(store.len(), 199);
    drop(store);
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn shard_count_mismatch_is_refused() {
    let dir = fresh_dir("mismatch");
    {
        let store = Kv::open(&dir, eager_sharded(4), DurabilityConfig::default()).unwrap();
        store.put(1, 1).wait();
    }
    let err = Kv::open(&dir, eager_sharded(8), DurabilityConfig::default())
        .expect_err("opening a 4-shard directory as 8 shards must fail");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    // the refused open must not have wedged the directory
    let store = Kv::open(&dir, eager_sharded(4), DurabilityConfig::default()).unwrap();
    assert_eq!(store.get(&1), Some(1));
    drop(store);
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn missing_manifest_with_shard_dirs_is_refused() {
    let dir = fresh_dir("no-manifest");
    {
        let store = Kv::open(&dir, eager_sharded(2), DurabilityConfig::default()).unwrap();
        store.put(1, 1).wait();
    }
    fs::remove_file(dir.join("MANIFEST")).unwrap();
    let err = Kv::open(&dir, eager_sharded(2), DurabilityConfig::default())
        .expect_err("shard dirs without a manifest must not be guessed at");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    // a partial restore that lost shard-0 too must still be refused:
    // shard-1's surviving data is a layout we would be guessing at
    fs::remove_dir_all(dir.join("shard-0")).unwrap();
    let err = Kv::open(&dir, eager_sharded(2), DurabilityConfig::default())
        .expect_err("surviving non-zero shard dirs must also be refused");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    fs::remove_dir_all(&dir).unwrap();
}

/// The single-directory layout the retired 1-shard durable flavor wrote
/// — `wal-*.seg` / `ckpt-*.ckpt` at the top level, no `MANIFEST` — is no
/// longer openable. Opening it must fail loudly, not create an empty
/// store on top of acknowledged data.
#[test]
fn the_retired_bare_layout_is_refused() {
    for (case, file) in [
        ("bare-wal", "wal-00000000000000000001.seg"),
        ("bare-ckpt", "ckpt-00000000000000000007.ckpt"),
    ] {
        let dir = fresh_dir(case);
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join(file), pam_wal::wal::SEGMENT_MAGIC).unwrap();
        fs::write(dir.join("LOCK.pid"), "999999999").unwrap(); // stale, as a dead writer leaves it
        for shards in [1, 2] {
            let err = Kv::open(&dir, eager_sharded(shards), DurabilityConfig::default())
                .expect_err("a bare-layout directory must not open");
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{case}: {err}");
            assert!(err.to_string().contains("single-directory layout"), "{err}");
        }
        // refused before anything was created
        assert!(!dir.join("MANIFEST").exists() && !dir.join("shard-0").exists());
        fs::remove_dir_all(&dir).unwrap();
    }
    // an unrelated file is not data: a fresh store may be created next to it
    let dir = fresh_dir("bare-unrelated");
    fs::create_dir_all(&dir).unwrap();
    fs::write(dir.join("README.txt"), "notes").unwrap();
    let store = Kv::open(&dir, eager_sharded(1), DurabilityConfig::default()).unwrap();
    assert!(store.is_empty());
    drop(store);
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn second_open_on_a_live_sharded_directory_is_refused() {
    let dir = fresh_dir("double-open");
    let store = Kv::open(&dir, eager_sharded(2), DurabilityConfig::default()).unwrap();
    store.put(1, 1).wait();
    let err = Kv::open(&dir, eager_sharded(2), DurabilityConfig::default())
        .expect_err("a second writer on the same sharded dir must be refused");
    assert_eq!(err.kind(), std::io::ErrorKind::WouldBlock);
    drop(store);
    let store = Kv::open(&dir, eager_sharded(2), DurabilityConfig::default()).unwrap();
    assert_eq!(store.get(&1), Some(1));
    drop(store);
    fs::remove_dir_all(&dir).unwrap();
}

/// The sharded crash test. When `PAM_SHARD_CRASH_DIR` is set this test
/// *is* the crashing child: it writes 30 acked keys, checkpoints every
/// shard, writes 30 more acked keys, submits one unacked batch, and
/// aborts without unwinding. The parent spawns that child, **tears the
/// WAL tail of one shard** (garbage half-record, as a crash mid-append
/// would leave), and recovers: every acked write must survive, in every
/// shard, with the torn shard truncating cleanly and independently.
#[test]
fn kill_and_recover_with_torn_shard_tail() {
    const SHARDS: usize = 3;
    if let Ok(dir) = std::env::var("PAM_SHARD_CRASH_DIR") {
        let store = Kv::open(
            PathBuf::from(dir),
            eager_sharded(SHARDS),
            DurabilityConfig::default(),
        )
        .unwrap();
        for k in 1..=30u64 {
            store.put(k, k * 7).wait();
        }
        store.checkpoint().expect("child checkpoint");
        for k in 31..=60u64 {
            store.put(k, k * 7).wait();
        }
        // enqueued but never awaited: may or may not reach each shard's log
        store.write_batch((0..12u64).map(|i| WriteOp::Put(1000 + i, i)));
        std::process::abort();
    }

    let dir = fresh_dir("kill");
    fs::create_dir_all(&dir).unwrap();
    let status = std::process::Command::new(std::env::current_exe().unwrap())
        .args([
            "kill_and_recover_with_torn_shard_tail",
            "--exact",
            "--test-threads=1",
            "--nocapture",
        ])
        .env("PAM_SHARD_CRASH_DIR", &dir)
        .status()
        .expect("spawn crash child");
    assert!(
        !status.success(),
        "child must die by abort, not exit cleanly"
    );

    // tear one shard's active segment: a frame header promising more
    // bytes than exist, then garbage
    let shard1 = dir.join("shard-1");
    let seg = fs::read_dir(&shard1)
        .unwrap()
        .filter_map(|e| {
            let p = e.unwrap().path();
            p.extension().is_some_and(|x| x == "seg").then_some(p)
        })
        .max()
        .expect("shard-1 has a WAL segment");
    let mut bytes = fs::read(&seg).unwrap();
    bytes.extend_from_slice(&[0x80, 0, 0, 0, 0xba, 0xad, 0xf0, 0x0d, 7, 7, 7]);
    fs::write(&seg, bytes).unwrap();

    let store = Kv::open(&dir, eager_sharded(SHARDS), DurabilityConfig::default()).unwrap();
    // every acked write survives, including those owned by the torn shard
    for k in 1..=60u64 {
        assert_eq!(store.get(&k), Some(k * 7), "acked write {k} lost");
    }
    assert!(
        store.recovery().iter().all(|r| r.checkpoint_epoch >= 1),
        "child checkpointed every shard: {:?}",
        store.recovery()
    );
    // per-shard phase timings: every shard bulk-loaded its checkpoint,
    // scanned its segments, and replayed its tail; the store-wide
    // pre-scan and vote phases are stamped identically into every entry
    let t0 = store.recovery()[0].timings;
    assert!(t0.prescan > Duration::ZERO, "sharded recovery pre-scans");
    assert!(t0.vote > Duration::ZERO, "sharded recovery votes");
    for r in store.recovery() {
        let t = r.timings;
        assert!(t.bulk_load > Duration::ZERO, "shard bulk-load untimed");
        assert!(
            t.segment_scan > Duration::ZERO,
            "shard segment scan untimed"
        );
        assert!(t.replay > Duration::ZERO, "shard replay untimed");
        assert_eq!((t.prescan, t.vote), (t0.prescan, t0.vote));
    }
    // The unacked batch was stamped with a global epoch and split per
    // shard; since PR 5 recovery votes on it as a unit — it must appear
    // **wholly or not at all across the entire store**, never partially
    // (the pre-PR-5 guarantee was only per-shard atomicity).
    let present = (0..12u64)
        .filter(|i| store.get(&(1000 + i)).is_some())
        .count();
    assert!(
        present == 0 || present == 12,
        "unacked cross-shard batch must be all-or-nothing store-wide \
         ({present}/12 present)"
    );
    drop(store);
    fs::remove_dir_all(&dir).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // The tentpole invariant, raced: a writer commits cross-shard
    // batches that set a fixed key set to one uniform value per batch,
    // while the main thread takes epoch-fenced snapshots. Any snapshot
    // showing two different values — or a mix of present and absent —
    // caught a torn batch.
    #[test]
    fn interleaved_batches_and_snapshots_never_observe_a_partial_batch(
        shards in 2usize..6,
        batches in 4u64..24,
        nkeys in 4usize..20,
    ) {
        let store = Arc::new(Kv::volatile(ShardedConfig {
            shards,
            store: StoreConfig {
                batch_window: Duration::from_micros(20),
                ..StoreConfig::default()
            },
        }));
        // spread keys; whether a given case crosses shards or collapses
        // onto one (fast path) is part of the space being tested
        let keys: Arc<Vec<u64>> = Arc::new((0..nkeys as u64).map(|i| i * 911 + 17).collect());

        // TWO writers racing over the same keys: besides torn batches,
        // this catches cross-batch order divergence (shard 0 committing
        // [B1, B2] while shard 1 commits [B2, B1] would leave a mixed
        // state no serial order produced — the xbatch gate forbids it)
        let writers: Vec<_> = (0..2u64)
            .map(|w| {
                let (s, keys) = (store.clone(), keys.clone());
                std::thread::spawn(move || {
                    for i in 1..batches + 1 {
                        let val = w * 1_000_000 + i;
                        s.write_batch(keys.iter().map(|&k| WriteOp::Put(k, val))).wait();
                    }
                })
            })
            .collect();
        while writers.iter().any(|w| !w.is_finished()) {
            let snap = store.snapshot();
            let vals = snap.get_many(&keys);
            let first = &vals[0];
            prop_assert!(
                vals.iter().all(|v| v == first),
                "snapshot at global epoch {} tore or reordered a batch: {vals:?}",
                snap.global_epoch()
            );
        }
        for w in writers {
            w.join().unwrap();
        }
        // after both writers finish, the state is the last batch in
        // stamp order — uniform across every key and every shard
        let final_vals = store.snapshot().get_many(&keys);
        let winner = final_vals[0];
        prop_assert!(winner.is_some_and(|v| v % 1_000_000 == batches));
        prop_assert!(final_vals.iter().all(|v| *v == winner), "{final_vals:?}");
        // the live fenced range sees the final state too
        let mut seen = 0usize;
        store.range_for_each(&0, &u64::MAX, |_, &v| {
            assert_eq!(Some(v), winner);
            seen += 1;
        });
        prop_assert_eq!(seen, keys.len());
    }
}

/// The PR-5 acceptance test: a subprocess `abort()`s right after acking
/// a cross-shard batch; the parent then **removes one shard's slice
/// record** from its WAL tail (the torn-tail signature of a crash
/// mid-batch). Recovery must vote the batch down *everywhere*: no shard
/// retains its slice, all shards agree on the global watermark, and the
/// decision is stable across further reopens.
#[test]
fn torn_cross_shard_batch_is_discarded_on_every_shard() {
    const SHARDS: usize = 3;
    const BATCH: std::ops::Range<u64> = 2000..2012;
    if let Ok(dir) = std::env::var("PAM_XBATCH_CRASH_DIR") {
        let store = Kv::open(
            PathBuf::from(dir),
            eager_sharded(SHARDS),
            DurabilityConfig::default(),
        )
        .unwrap();
        for k in 1..=40u64 {
            store.put(k, k * 3).wait();
        }
        // the batch must genuinely span all shards for the tear below to
        // be a *slice* tear
        let hit: std::collections::BTreeSet<usize> = BATCH.map(|k| store.shard_of(&k)).collect();
        assert_eq!(hit.len(), SHARDS, "batch keys must cover every shard");
        let t = store.write_batch(BATCH.map(|k| WriteOp::Put(k, 1)));
        assert_eq!(t.global_epoch(), Some(1), "first stamp of this store");
        t.wait(); // acked — every slice is on disk when this returns
        std::process::abort();
    }

    let dir = fresh_dir("xbatch-torn");
    fs::create_dir_all(&dir).unwrap();
    let status = std::process::Command::new(std::env::current_exe().unwrap())
        .args([
            "torn_cross_shard_batch_is_discarded_on_every_shard",
            "--exact",
            "--test-threads=1",
            "--nocapture",
        ])
        .env("PAM_XBATCH_CRASH_DIR", &dir)
        .status()
        .expect("spawn crash child");
    assert!(!status.success(), "child must die by abort");

    // Tear shard-1's slice off: find the last frame of its active
    // segment — the stamped batch slice, the last record every shard
    // wrote — verify the stamp, and cut the file at the frame boundary,
    // exactly what a crash that lost the final append would leave.
    let seg = fs::read_dir(dir.join("shard-1"))
        .unwrap()
        .filter_map(|e| {
            let p = e.unwrap().path();
            p.extension().is_some_and(|x| x == "seg").then_some(p)
        })
        .max()
        .expect("shard-1 has a WAL segment");
    let bytes = fs::read(&seg).unwrap();
    let mut pos = 8; // segment magic
    let mut last_frame_at = None;
    while pos < bytes.len() {
        match pam_wal::frame::next_frame(&bytes[pos..]) {
            pam_wal::frame::Frame::Ok { payload, consumed } => {
                last_frame_at = Some((pos, payload.to_vec()));
                pos += consumed;
            }
            other => panic!("unexpected frame state {other:?} at {pos}"),
        }
    }
    let (cut_at, payload) = last_frame_at.expect("shard-1 logged records");
    let mut r = pam_wal::Reader::new(&payload);
    let _wal_epoch = r.varint().unwrap();
    assert_eq!(
        r.varint().unwrap(),
        1,
        "shard-1's last record must be the global-epoch-1 slice"
    );
    assert_eq!(r.varint().unwrap(), SHARDS as u64, "participant count");
    fs::write(&seg, &bytes[..cut_at]).unwrap();

    let reopen = || Kv::open(&dir, eager_sharded(SHARDS), DurabilityConfig::default());
    let store = reopen().unwrap();
    // every acked single-shard write survives
    for k in 1..=40u64 {
        assert_eq!(store.get(&k), Some(k * 3), "acked write {k} lost");
    }
    // the torn batch is gone from EVERY shard, not just the torn one
    for k in BATCH {
        assert_eq!(store.get(&k), None, "discarded batch key {k} resurfaced");
    }
    // shards 0 and 2 each skipped exactly their slice record
    let skipped: Vec<u64> = store
        .recovery()
        .iter()
        .map(|r| r.discarded_epochs)
        .collect();
    assert_eq!(
        skipped.iter().sum::<u64>(),
        2,
        "two surviving slices voted down: {skipped:?}"
    );
    assert_eq!(skipped[1], 0, "the torn shard has nothing left to discard");
    // all shards recovered to the same global epoch: the watermark covers
    // the (discarded) batch, and the clock resumes past it
    assert_eq!(store.global_watermark(), 1);
    assert_eq!(store.global_epoch(), 1);

    // the decision is durable: a clean reopen re-discards nothing new
    // and never resurrects the batch
    drop(store);
    let store = reopen().unwrap();
    for k in BATCH {
        assert_eq!(store.get(&k), None, "batch key {k} resurfaced on reopen");
    }
    assert_eq!(store.global_watermark(), 1);

    // life goes on: the next cross-shard batch stamps epoch 2, commits,
    // and survives a further clean reopen
    let t = store.put_all(BATCH.map(|k| (k, 9)));
    assert_eq!(t.global_epoch(), Some(2));
    t.wait();
    drop(store);
    let store = reopen().unwrap();
    for k in BATCH {
        assert_eq!(store.get(&k), Some(9));
    }
    assert_eq!(store.global_watermark(), 2);
    drop(store);
    fs::remove_dir_all(&dir).unwrap();
}

/// Cross-shard slices must hit the disk even under a relaxed fsync
/// policy: the 2PC watermark advances when a slice reports "logged",
/// and recovery trusts that decision — an unsynced slice could vanish
/// in a power cut after the vote, tearing the batch. Single-shard
/// epochs keep the relaxed policy.
#[test]
fn cross_shard_slices_are_force_synced_under_relaxed_policies() {
    use pam_store::SyncPolicy;
    let dir = fresh_dir("force-sync");
    let lazy = DurabilityConfig {
        sync: SyncPolicy::SyncEveryN(1_000_000),
        ..DurabilityConfig::default()
    };
    let store = Kv::open(&dir, eager_sharded(3), lazy).unwrap();
    for k in 0..20u64 {
        store.put(k, k).wait();
    }
    let before = store.stats().durability.wal_fsyncs;
    assert_eq!(before, 0, "single-shard epochs honor SyncEveryN");
    let t = store.write_batch((100..120u64).map(|k| WriteOp::Put(k, 1)));
    assert!(t.global_epoch().is_some(), "batch must span shards");
    t.wait();
    let after = store.stats().durability.wal_fsyncs;
    assert!(
        after >= 2,
        "every participating shard force-syncs its slice (got {after} fsyncs)"
    );
    drop(store);
    fs::remove_dir_all(&dir).unwrap();
}

/// Every file under `dir` with its bytes, sorted by path.
fn tree_bytes(dir: &std::path::Path) -> Vec<(PathBuf, Vec<u8>)> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            out.extend(tree_bytes(&path));
        } else {
            let bytes = fs::read(&path).unwrap();
            out.push((path, bytes));
        }
    }
    out.sort();
    out
}

/// A store laid down by pre-clock code — format-1 manifest, v1 WAL
/// segments with no stamp fields — is refused with `InvalidData`, and
/// the refusal modifies nothing: not the manifest, not a segment's tail.
/// A current manifest over the same old segments is refused too.
#[test]
fn a_pre_clock_directory_is_refused() {
    use pam_wal::codec::put_varint;

    const SHARDS: u64 = 2;
    let dir = fresh_dir("v1-format");

    // hand-write the old layout: MANIFEST format 1 + one v1 segment per
    // shard holding that shard's keys
    fs::create_dir_all(&dir).unwrap();
    {
        let mut out = pam_wal::manifest::MANIFEST_MAGIC.to_vec();
        let mut payload = Vec::new();
        put_varint(&mut payload, 1); // format 1: no clock fields
        put_varint(&mut payload, SHARDS);
        let mut framed = Vec::new();
        pam_wal::frame::put_frame(&mut framed, &payload);
        out.extend_from_slice(&framed);
        fs::write(dir.join("MANIFEST"), out).unwrap();
    }
    let mut per_shard: Vec<Vec<(u64, u64)>> = vec![Vec::new(); SHARDS as usize];
    for k in 0..100u64 {
        per_shard[(k.shard_hash() % SHARDS) as usize].push((k, k + 500));
    }
    for (i, pairs) in per_shard.iter().enumerate() {
        let shard_dir = dir.join(format!("shard-{i}"));
        fs::create_dir_all(&shard_dir).unwrap();
        let mut seg = pam_wal::wal::SEGMENT_MAGIC.to_vec();
        seg[7] = b'1'; // the v1 magic
        for (epoch, &(k, v)) in pairs.iter().enumerate() {
            let mut body = Vec::new();
            pam_wal::record::encode_epoch_body(&[(k, v)], &[], &mut body);
            let mut payload = Vec::new();
            put_varint(&mut payload, epoch as u64 + 1);
            payload.extend_from_slice(&body);
            pam_wal::frame::put_frame(&mut seg, &payload);
        }
        fs::write(shard_dir.join("wal-00000000000000000001.seg"), seg).unwrap();
    }

    let open = || {
        Kv::open(
            &dir,
            eager_sharded(SHARDS as usize),
            DurabilityConfig::default(),
        )
    };
    let before = tree_bytes(&dir);
    let err = open().expect_err("a format-1 manifest must not open");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    assert_eq!(
        tree_bytes(&dir),
        before,
        "a refused directory is not modified"
    );

    pam_wal::manifest::write(&dir, SHARDS, 0, &[]).unwrap();
    let before = tree_bytes(&dir);
    let err = open().expect_err("v1 segments must not open");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    assert_eq!(
        tree_bytes(&dir),
        before,
        "a refused directory is not modified"
    );
    fs::remove_dir_all(&dir).unwrap();
}

fn copy_dir(from: &std::path::Path, to: &std::path::Path) {
    fs::create_dir_all(to).unwrap();
    for entry in fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        let dst = to.join(entry.file_name());
        if entry.file_type().unwrap().is_dir() {
            copy_dir(&entry.path(), &dst);
        } else {
            fs::copy(entry.path(), dst).unwrap();
        }
    }
}

/// `tests/fixtures/pr12_two_shards/` was written by the four-flavor
/// code's `DurableShardedStore` (commit 3eb29e7, the parent of the
/// one-`Store` refactor): 2 shards; keys 1..=40 and a cross-shard batch
/// (global epoch 1), then a checkpoint on both shards; then a WAL tail
/// of keys 41..=60, a delete, and a second cross-shard batch (epoch 2);
/// then a third batch (epoch 3) whose shard-1 slice was cut off the log
/// — a torn batch. The expectations below are what that commit's own
/// `open` recovered from a copy of the same bytes: the new `Store::open`
/// must reach the same contents, watermark and discard list.
#[test]
fn a_directory_written_by_the_four_flavor_code_reopens_unchanged() {
    let fixture =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/pr12_two_shards");
    let dir = fresh_dir("pr12-fixture");
    copy_dir(&fixture, &dir);

    let expected: Vec<(u64, u64)> = (1..=60u64)
        .filter(|&k| k != 5)
        .map(|k| (k, k * 3))
        .chain((100..108).map(|k| (k, 7)))
        .chain((200..208).map(|k| (k, 9)))
        .collect();
    let reopen = || Kv::open(&dir, eager_sharded(2), DurabilityConfig::default()).unwrap();
    let store = reopen();
    assert_eq!(store.range(&0, &u64::MAX), expected);
    for k in 300..308u64 {
        assert_eq!(store.get(&k), None, "torn batch key {k} resurfaced");
    }
    assert_eq!(store.global_watermark(), 3);
    assert_eq!(store.global_epoch(), 3);
    let found: Vec<_> = store
        .recovery()
        .iter()
        .map(|r| {
            (
                r.checkpoint_epoch,
                r.checkpoint_entries,
                r.replayed_epochs,
                r.last_epoch,
                r.discarded_epochs,
            )
        })
        .collect();
    assert_eq!(found, vec![(25, 30, 11, 37, 1), (17, 18, 12, 29, 0)]);
    drop(store);
    let manifest = pam_wal::manifest::load(&dir).unwrap().expect("manifest");
    assert_eq!(
        (manifest.shards, manifest.global_epoch, manifest.discarded),
        (2, 3, vec![3])
    );

    // and it is a live store again: the clock resumes past the torn
    // epoch, and a further reopen keeps everything
    let store = reopen();
    let t = store.put_all((300..308u64).map(|k| (k, 13)));
    assert_eq!(t.global_epoch(), Some(4));
    t.wait();
    drop(store);
    let store = reopen();
    assert_eq!(store.len(), expected.len() + 8);
    assert_eq!(store.get(&303), Some(13));
    drop(store);
    fs::remove_dir_all(&dir).unwrap();
}
