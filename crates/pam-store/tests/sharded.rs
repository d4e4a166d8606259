//! Integration tests for the multi-shard store: routing correctness
//! against a 1-shard oracle, snapshot and point-read consistency under
//! concurrent writers, and durable recovery — including subprocess
//! `abort()` crashes whose log is then torn, at its tail and inside a
//! cross-shard batch's record.

use pam::SumAug;
use pam_store::{DurabilityConfig, ShardKey, ShardedConfig, Store, WriteOp};
use proptest::prelude::*;
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

type S = SumAug<u64, u64>;
type Kv = Store<S>;

fn eager_sharded(shards: usize) -> ShardedConfig {
    ShardedConfig {
        shards,
        batch_window: Duration::ZERO,
        ..ShardedConfig::default()
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
    #![proptest_config(ProptestConfig::with_cases(72))]

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
        let oracle = single.snapshot().shard(0).to_vec();
        prop_assert_eq!(sharded.range(&0, &u64::MAX), oracle.clone());
        prop_assert_eq!(sharded.snapshot().range(&0, &u64::MAX), oracle.clone());
        prop_assert_eq!(sharded.len(), oracle.len());
        prop_assert_eq!(sharded.aug_val(), single.aug_val());
    }
}

/// Two writer threads, each acking write i before submitting write i+1,
/// while snapshots are taken concurrently: every snapshot must contain a
/// *prefix* of each writer's sequence (a hole would mean the snapshot saw
/// one shard after a later write but another shard before an earlier
/// one).
#[test]
fn snapshots_are_consistent_cuts_under_concurrent_writers() {
    const PER_WRITER: u64 = 400;
    let store = Arc::new(Kv::volatile(ShardedConfig {
        shards: 4,
        batch_window: Duration::from_micros(50),
        ..ShardedConfig::default()
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

/// A writer commits 16-key batches spanning every shard, each setting all
/// of its keys to the batch number, while a reader loops plain
/// `get_many` — no snapshot — over the same keys: each call reads one
/// pinned version, so it sees every batch wholly or not at all.
#[test]
fn interleaved_point_reads_never_observe_a_partial_batch() {
    const BATCHES: u64 = 2_000;
    let store = Arc::new(Kv::volatile(eager_sharded(4)));
    let keys: Vec<u64> = (0..16u64).map(|i| i * 7919 + 3).collect();
    let shards: std::collections::BTreeSet<usize> =
        keys.iter().map(|k| store.shard_of(k)).collect();
    assert_eq!(shards.len(), 4, "the batch must span every shard");
    store.put_all(keys.iter().map(|&k| (k, 0))).wait();

    let writer = {
        let (store, keys) = (store.clone(), keys.clone());
        std::thread::spawn(move || {
            for b in 1..=BATCHES {
                store.put_all(keys.iter().map(|&k| (k, b))).wait();
            }
        })
    };
    let mut reads = 0u64;
    while !writer.is_finished() {
        let vals = store.get_many(&keys);
        assert!(
            vals.iter().all(|v| *v == vals[0]),
            "get_many saw a partial batch: {vals:?}"
        );
        reads += 1;
    }
    writer.join().unwrap();
    assert!(reads > 0, "the reader raced the writer");
    assert_eq!(store.get_many(&keys), vec![Some(BATCHES); keys.len()]);
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
        assert!(stats.durability.wal_fsyncs > 0, "SyncEachEpoch fsyncs");
        assert_eq!(stats.durability.wal_segments, 1, "one log, four shards");
    }
    let store = Kv::open(&dir, eager_sharded(4), DurabilityConfig::default()).unwrap();
    assert_eq!(store.recovery().len(), 4);
    assert!(
        store.recovery().iter().all(|r| r.replayed_epochs == 2),
        "the one log's two records replay onto every shard: {:?}",
        store.recovery()
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
/// log's tail** (garbage half-record, as a crash mid-append would
/// leave), and recovers: every acked write must survive, in every shard.
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
        // the child's harness leaves a half-printed "test … " line when it
        // aborts; keep it out of this run's report
        .stdout(std::process::Stdio::null())
        .status()
        .expect("spawn crash child");
    assert!(
        !status.success(),
        "child must die by abort, not exit cleanly"
    );

    // tear the log's active segment: a frame header promising more
    // bytes than exist, then garbage
    let seg = active_segment(&dir);
    let mut bytes = fs::read(&seg).unwrap();
    bytes.extend_from_slice(&[0x80, 0, 0, 0, 0xba, 0xad, 0xf0, 0x0d, 7, 7, 7]);
    fs::write(&seg, bytes).unwrap();

    let store = Kv::open(&dir, eager_sharded(SHARDS), DurabilityConfig::default()).unwrap();
    // every acked write survives, on every shard
    for k in 1..=60u64 {
        assert_eq!(store.get(&k), Some(k * 7), "acked write {k} lost");
    }
    assert!(
        store.recovery().iter().all(|r| r.checkpoint_epoch >= 1),
        "child checkpointed every shard: {:?}",
        store.recovery()
    );
    // per-shard phase timings: every shard bulk-loaded its checkpoint;
    // the one log's scan and replay are store-wide, stamped identically
    // into every entry; there is no pre-scan and no vote
    let t0 = store.recovery()[0].timings;
    assert!(t0.segment_scan > Duration::ZERO, "log scan untimed");
    assert!(t0.replay > Duration::ZERO, "log replay untimed");
    for r in store.recovery() {
        let t = r.timings;
        assert!(t.bulk_load > Duration::ZERO, "shard bulk-load untimed");
        assert_eq!((t.segment_scan, t.replay), (t0.segment_scan, t0.replay));
        assert_eq!((t.prescan, t.vote), (Duration::ZERO, Duration::ZERO));
    }
    // The unacked batch spans shards but is one record: it must appear
    // **wholly or not at all across the entire store**.
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

    // Batch atomicity, raced: writers commit cross-shard batches that
    // set a fixed key set to one uniform value per batch, while the main
    // thread takes snapshots. Any snapshot
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
            batch_window: Duration::from_micros(20),
            ..ShardedConfig::default()
        }));
        // spread keys; whether a given case crosses shards or collapses
        // onto one (fast path) is part of the space being tested
        let keys: Arc<Vec<u64>> = Arc::new((0..nkeys as u64).map(|i| i * 911 + 17).collect());

        // TWO writers racing over the same keys: besides torn batches,
        // this catches cross-batch order divergence (shard 0 holding B1's
        // values while shard 1 holds B2's would be a state no serial
        // order produced)
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
                "snapshot at version {} tore or reordered a batch: {vals:?}",
                snap.version()
            );
        }
        for w in writers {
            w.join().unwrap();
        }
        // after both writers finish, the state is the last batch in
        // epoch order — uniform across every key and every shard
        let final_vals = store.snapshot().get_many(&keys);
        let winner = final_vals[0];
        prop_assert!(winner.is_some_and(|v| v % 1_000_000 == batches));
        prop_assert!(final_vals.iter().all(|v| *v == winner), "{final_vals:?}");
        // the live range sees the final state too
        let mut seen = 0usize;
        store.range_for_each(&0, &u64::MAX, |_, &v| {
            assert_eq!(Some(v), winner);
            seen += 1;
        });
        prop_assert_eq!(seen, keys.len());
    }
}

/// The newest segment of the store's one log.
fn active_segment(dir: &std::path::Path) -> PathBuf {
    fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| {
            let p = e.unwrap().path();
            p.extension().is_some_and(|x| x == "seg").then_some(p)
        })
        .max()
        .expect("the store has a WAL segment")
}

/// A subprocess acks two batches that each span every shard, then
/// `abort()`s; the parent **cuts the one log inside the second batch's
/// record**, as a crash mid-append leaves it, at three points within
/// the record. Recovery must keep the
/// first batch whole, drop every key of the torn one on every shard, and
/// hand the next batch the torn batch's epoch number.
#[test]
fn torn_cross_shard_batch_is_discarded_on_every_shard() {
    const SHARDS: usize = 3;
    const KEPT: std::ops::Range<u64> = 2000..2012;
    const TORN: std::ops::Range<u64> = 3000..3012;
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
        for batch in [KEPT, TORN] {
            let hit: std::collections::BTreeSet<usize> =
                batch.clone().map(|k| store.shard_of(&k)).collect();
            assert_eq!(hit.len(), SHARDS, "batch keys must cover every shard");
            store.put_all(batch.map(|k| (k, k / 1000))).wait(); // acked: on disk
        }
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
        .stdout(std::process::Stdio::null()) // see kill_and_recover_with_torn_shard_tail
        .status()
        .expect("spawn crash child");
    assert!(!status.success(), "child must die by abort");

    // Find the last frame of the log — the torn batch's one record, all
    // three shards' keys in it — and cut the file in its middle.
    let seg = active_segment(&dir);
    let bytes = fs::read(&seg).unwrap();
    let mut pos = 8; // segment magic
    let mut last_frame = None;
    while pos < bytes.len() {
        match pam_wal::frame::next_frame(&bytes[pos..]) {
            pam_wal::frame::Frame::Ok { payload, consumed } => {
                last_frame = Some((pos, consumed, payload.to_vec()));
                pos += consumed;
            }
            other => panic!("unexpected frame state {other:?} at {pos}"),
        }
    }
    let (at, len, payload) = last_frame.expect("the child logged records");
    let mut r = pam_wal::Reader::new(&payload);
    let torn_epoch = r.varint().unwrap();
    let body =
        pam_wal::record::decode_epoch_body::<u64, u64>(&payload[payload.len() - r.remaining()..])
            .unwrap();
    assert_eq!(
        body.puts,
        TORN.map(|k| (k, 3)).collect::<Vec<_>>(),
        "the log's last record is the whole torn batch"
    );

    // Cut inside the frame header, mid-record, and one byte short of the
    // record's end, each on its own copy of the crashed directory: every
    // cut must recover the same way.
    for cut in [at + 1, at + len / 2, at + len - 1] {
        let copy = fresh_dir(&format!("xbatch-torn-{cut}"));
        copy_dir(&dir, &copy);
        fs::write(copy.join(seg.file_name().unwrap()), &bytes[..cut]).unwrap();

        let reopen = || Kv::open(&copy, eager_sharded(SHARDS), DurabilityConfig::default());
        let store = reopen().unwrap();
        for k in 1..=40u64 {
            assert_eq!(
                store.get(&k),
                Some(k * 3),
                "cut {cut}: acked write {k} lost"
            );
        }
        for k in KEPT {
            assert_eq!(
                store.get(&k),
                Some(2),
                "cut {cut}: the previous batch is whole"
            );
        }
        for k in TORN {
            assert_eq!(
                store.get(&k),
                None,
                "cut {cut}: torn batch key {k} resurfaced"
            );
        }
        assert_eq!(store.flush(), torn_epoch - 1, "the store resumes before it");

        // the discard is stable: a clean reopen never resurrects the batch
        drop(store);
        let store = reopen().unwrap();
        for k in TORN {
            assert_eq!(
                store.get(&k),
                None,
                "cut {cut}: key {k} resurfaced on reopen"
            );
        }

        // life goes on: the next batch gets the next epoch — the torn
        // one's number — commits, and survives a further reopen
        let t = store.put_all(TORN.map(|k| (k, 9)));
        assert_eq!(t.global_epoch(), Some(torn_epoch));
        t.wait();
        drop(store);
        let store = reopen().unwrap();
        for k in TORN {
            assert_eq!(store.get(&k), Some(9));
        }
        assert_eq!(store.len(), 40 + 2 * KEPT.count());
        drop(store);
        fs::remove_dir_all(&copy).unwrap();
    }
    fs::remove_dir_all(&dir).unwrap();
}

/// A batch spanning shards is one record under the configured policy:
/// under `NoSync` it costs no fsync at all.
#[test]
fn a_cross_shard_batch_costs_no_fsync_under_no_sync() {
    use pam_store::SyncPolicy;
    let dir = fresh_dir("no-sync");
    let lazy = DurabilityConfig {
        sync: SyncPolicy::NoSync,
        ..DurabilityConfig::default()
    };
    let store = Kv::open(&dir, eager_sharded(3), lazy).unwrap();
    for b in 0..100u64 {
        let keys = (0..16u64).map(|i| b * 100 + i);
        let hit: std::collections::BTreeSet<usize> =
            keys.clone().map(|k| store.shard_of(&k)).collect();
        assert_eq!(hit.len(), 3, "batch {b} must span every shard");
        store.put_all(keys.map(|k| (k, b))).wait();
    }
    let d = store.stats().durability;
    assert_eq!(d.wal_fsyncs, 0, "no fsync under NoSync");
    assert_eq!(d.wal_records, 100, "one record per batch");
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
/// A current manifest over a log of old segments is refused too.
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

    pam_wal::manifest::write(&dir, SHARDS).unwrap();
    fs::copy(
        dir.join("shard-0/wal-00000000000000000001.seg"),
        dir.join("wal-00000000000000000001.seg"),
    )
    .unwrap();
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
/// code's `DurableShardedStore` (commit 3eb29e7): a format-2 manifest, a
/// WAL and checkpoints in each of its two shard directories, and a batch
/// torn on one shard's log. That layout — per-shard logs voted on at
/// open — is refused with `InvalidData`, and the refusal leaves every
/// byte of it untouched.
#[test]
fn a_per_shard_log_directory_is_refused_untouched() {
    let fixture =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/pr12_two_shards");
    let dir = fresh_dir("pr12-fixture");
    copy_dir(&fixture, &dir);

    let before = tree_bytes(&dir);
    let err = Kv::open(&dir, eager_sharded(2), DurabilityConfig::default())
        .expect_err("a per-shard-log directory must not open");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    assert!(err.to_string().contains("unsupported format 2"), "{err}");
    assert_eq!(
        tree_bytes(&dir),
        before,
        "a refused directory is not modified"
    );
    fs::remove_dir_all(&dir).unwrap();
}
