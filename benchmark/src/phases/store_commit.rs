//! `store-commit`: `pam-store`'s pipeline and `pam-wal` with no wire —
//! an in-process `DurableShardedStore` under two closed-loop writers,
//! background and manual checkpoints, a fixed WAL tail, then drop,
//! reopen and read back every acked write. Isolates group commit, the
//! epoch clock and fence, WAL append, checkpoint and recovery.

use super::{Ctx, Phase};
use crate::gen::{self, parse_value, record_key, record_value, stream, KeyPicker, Op};
use crate::measure::{reps, secs, setups, Samples};
use crate::profile::{
    BATCH_KEYS, CALLERS, CHECKPOINT_EVERY_BYTES, KEY_BYTES, RECORDS, SETUP_REPS, SHARDS, SIDE_REPS,
    STORE_TAIL_OPS, VALUE_BYTES, WINDOW_US,
};
use crate::report::Checks;
use crate::stats::{median, Latency};
use crate::trace::{Recorder, Tracer};
use pam::NoAug;
use pam_store::op::normalize;
use pam_store::{
    DurabilityConfig, DurableShardedStore, RecoveryInfo, ShardedConfig, StoreStats, SyncPolicy,
    WriteOp,
};
use pam_wal::record::{decode_epoch_body, encode_epoch_body};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use workloads::hash64;

/// The spec `pam-serve` serves: opaque byte keys and values.
pub type Spec = NoAug<Vec<u8>, Vec<u8>>;
/// The store under test.
pub type Store = DurableShardedStore<Spec>;

/// Operations per direct `normalize` / codec call (one full epoch).
const EPOCH_OPS: usize = 1 << 14;

fn sharded() -> ShardedConfig {
    ShardedConfig::builder()
        .shards(SHARDS)
        .batch_window(Duration::from_micros(WINDOW_US))
        .build()
}

/// Open (or create) the store in `dir`. Every gated run uses `NoSync`:
/// on this sandbox's shared disk an fsync'd ack swings by tens of
/// percent between runs, so fsync appears only in the side pass.
fn open(dir: &Path, sync: SyncPolicy, checkpoint_every: Option<u64>) -> Result<Store, String> {
    let dur = DurabilityConfig::builder().sync(sync);
    let dur = match checkpoint_every {
        Some(bytes) => dur.checkpoint_every_bytes(bytes),
        None => dur.manual_checkpoints_only(),
    };
    Store::open(dir, sharded(), dur.build()).map_err(|e| format!("open {}: {e}", dir.display()))
}

/// Fill a fresh store in `dir` with every record at version 0,
/// checkpoint it and close it: the directory `pam-serve` and the
/// store-commit run both start from.
pub fn preload(dir: &Path, records: Vec<(Vec<u8>, Vec<u8>)>) -> Result<(), String> {
    let store = open(dir, SyncPolicy::NoSync, None)?;
    for (k, v) in records {
        store.put(k, v);
    }
    store.flush();
    store
        .checkpoint()
        .map_err(|e| format!("preload checkpoint: {e}"))?;
    Ok(())
}

/// Every record at version 0.
pub fn base_records() -> Vec<(Vec<u8>, Vec<u8>)> {
    (0..RECORDS)
        .map(|i| (record_key(i), record_value(i, 0)))
        .collect()
}

/// What a caller knows about the keys it owns: the last version it
/// wrote and whether the key is live. Exact, because nobody else writes
/// those keys.
pub struct Model {
    version: Vec<u32>,
    deleted: Vec<bool>,
    touched: Vec<usize>,
}

impl Model {
    /// Every record live at version 0.
    pub fn new() -> Model {
        Model {
            version: vec![0; RECORDS],
            deleted: vec![false; RECORDS],
            touched: Vec::new(),
        }
    }

    /// Allocate the next version of `i` and mark it live.
    pub fn bump(&mut self, i: usize) -> u64 {
        if self.version[i] == 0 && !self.deleted[i] {
            self.touched.push(i);
        }
        self.version[i] += 1;
        self.deleted[i] = false;
        u64::from(self.version[i])
    }

    /// Mark `i` deleted.
    pub fn delete(&mut self, i: usize) {
        if self.version[i] == 0 && !self.deleted[i] {
            self.touched.push(i);
        }
        self.deleted[i] = true;
    }

    /// The value a read of `i` must return.
    pub fn expect(&self, i: usize) -> Option<(usize, u64)> {
        (!self.deleted[i]).then(|| (i, u64::from(self.version[i])))
    }

    /// Keys this caller has written or deleted.
    pub fn touched(&self) -> &[usize] {
        &self.touched
    }

    /// Live records among the keys `caller` owns.
    pub fn live(&self, caller: usize) -> usize {
        (caller..RECORDS)
            .step_by(CALLERS)
            .filter(|&i| !self.deleted[i])
            .count()
    }
}

/// Check a value read back for record `i` against the model.
pub fn check_read(model: &Model, i: usize, got: Option<&[u8]>, what: &str, checks: &mut Checks) {
    let got = got.map(parse_value);
    let want = model.expect(i);
    checks.check(got == want.map(Some), || {
        format!("{what}: record {i} read back as {got:?}, the model says {want:?}")
    });
}

/// One writer's tally of a run.
#[derive(Default)]
struct Tally {
    put_us: Vec<f64>,
    batch_us: Vec<f64>,
    ops: usize,
    user_bytes: u64,
    batches: usize,
    stamped: usize,
}

/// Run `ops` against the store, closed loop: each call waits for its
/// group-commit ack before the next is issued.
fn write_loop(
    store: &Store,
    ops: &[Op],
    model: &mut Model,
    tally: &mut Tally,
    tracer: &Tracer,
    caller: usize,
) {
    let mut rec = tracer.recorder(caller as u32 + 1);
    for (n, op) in ops.iter().enumerate() {
        let id = Some((caller * ops.len() + n) as u64);
        match op {
            Op::Put(i) => {
                let (k, v) = (record_key(*i), record_value(*i, model.bump(*i)));
                let open = rec.begin("pam-store", "put", id);
                let start = Instant::now();
                store.put(k, v).wait();
                tally.put_us.push(start.elapsed().as_secs_f64() * 1e6);
                rec.end(open);
                tally.user_bytes += (KEY_BYTES + VALUE_BYTES) as u64;
            }
            Op::Delete(i) => {
                model.delete(*i);
                let open = rec.begin("pam-store", "delete", id);
                store.delete(record_key(*i)).wait();
                rec.end(open);
                tally.user_bytes += KEY_BYTES as u64;
            }
            Op::Batch(keys) => {
                let batch: Vec<WriteOp<Spec>> = keys
                    .iter()
                    .map(|&i| WriteOp::Put(record_key(i), record_value(i, model.bump(i))))
                    .collect();
                let open = rec.begin("pam-store", "write_batch", id);
                let start = Instant::now();
                let ticket = store.write_batch(batch);
                ticket.wait();
                tally.batch_us.push(start.elapsed().as_secs_f64() * 1e6);
                rec.end(open);
                tally.batches += 1;
                tally.stamped += usize::from(ticket.global_epoch().is_some());
                tally.user_bytes += (BATCH_KEYS * (KEY_BYTES + VALUE_BYTES)) as u64;
            }
            other => unreachable!("the store mix generates no {other:?}"),
        }
        tally.ops += 1;
    }
}

/// Run both writers over their slice `range` of the generated ops;
/// returns the wall seconds and the largest `live_versions` sampled.
fn write_phase(
    store: &Store,
    ops: &[Vec<Op>],
    range: std::ops::Range<usize>,
    models: &mut [Model],
    tallies: &mut [Tally],
    tracer: &Tracer,
) -> (f64, usize) {
    let start = Instant::now();
    let mut live_max = 0;
    std::thread::scope(|scope| {
        let writers: Vec<_> = models
            .iter_mut()
            .zip(tallies.iter_mut())
            .enumerate()
            .map(|(caller, (model, tally))| {
                let ops = &ops[caller][range.clone()];
                scope.spawn(move || write_loop(store, ops, model, tally, tracer, caller))
            })
            .collect();
        while !writers.iter().all(|w| w.is_finished()) {
            live_max = live_max.max(store.stats().live_versions);
            std::thread::sleep(Duration::from_millis(20));
        }
        for w in writers {
            w.join().expect("a writer thread panicked");
        }
    });
    (start.elapsed().as_secs_f64(), live_max)
}

/// Read back every key either caller touched, plus a seeded sample of
/// untouched ones, and the store's length.
fn read_back(store: &Store, models: &[Model], what: &str, seed: u64, checks: &mut Checks) {
    for model in models {
        for &i in model.touched() {
            check_read(model, i, store.get(&record_key(i)).as_deref(), what, checks);
        }
    }
    for n in 0..2_000u64 {
        let i = (hash64(seed ^ n) % RECORDS as u64) as usize;
        let model = &models[i % CALLERS];
        check_read(model, i, store.get(&record_key(i)).as_deref(), what, checks);
    }
    let live: usize = models.iter().enumerate().map(|(c, m)| m.live(c)).sum();
    checks.check(store.len() == live, || {
        format!(
            "{what}: store holds {} records, the model {live}",
            store.len()
        )
    });
}

/// Bytes of the newest `ckpt-*.ckpt` in every shard directory.
fn newest_checkpoint_bytes(dir: &Path) -> Result<u64, String> {
    let mut total = 0;
    for shard in 0..SHARDS {
        let shard_dir = dir.join(format!("shard-{shard}"));
        let newest = std::fs::read_dir(&shard_dir)
            .map_err(|e| format!("list {}: {e}", shard_dir.display()))?
            .flatten()
            .filter(|e| e.file_name().to_string_lossy().ends_with(".ckpt"))
            .max_by_key(|e| e.file_name())
            .ok_or_else(|| format!("no checkpoint in {}", shard_dir.display()))?;
        total += newest
            .metadata()
            .map_err(|e| format!("stat checkpoint: {e}"))?
            .len();
    }
    Ok(total)
}

/// Phase timings of one reopen, with shards recovering in parallel:
/// store-wide prescan + vote, and the slowest shard of each later phase.
struct Reopen {
    wall: f64,
    prescan_vote: f64,
    bulk_load: f64,
    segment_scan: f64,
    replay: f64,
    accounted: f64,
}

fn reopen_timings(wall: f64, shards: &[RecoveryInfo]) -> Reopen {
    let max = |f: fn(&RecoveryInfo) -> Duration| {
        shards.iter().map(f).max().unwrap_or_default().as_secs_f64()
    };
    let prescan_vote = max(|r| r.timings.prescan + r.timings.vote);
    let per_shard = max(|r| r.timings.bulk_load + r.timings.segment_scan + r.timings.replay);
    Reopen {
        wall,
        prescan_vote,
        bulk_load: max(|r| r.timings.bulk_load),
        segment_scan: max(|r| r.timings.segment_scan),
        replay: max(|r| r.timings.replay),
        accounted: prescan_vote + per_shard,
    }
}

fn mean_us(h: &pam_obs::HistogramSnapshot) -> f64 {
    if h.count() == 0 {
        0.0
    } else {
        h.sum() as f64 / h.count() as f64 / 1e3
    }
}

/// The prepared phase: the closed directory (checkpoint + fixed WAL
/// tail) every round reopens, and the callers' models of its contents.
pub struct StoreCommit {
    dir: PathBuf,
    models: Vec<Model>,
    reopens: Vec<Reopen>,
    /// What the first reopen recovered; every later one must match.
    found: Option<Vec<(u64, u64, u64)>>,
    disk_bytes: u64,
    entries_at_checkpoint: usize,
}

/// Preload three times (the set-up), then make the directory the rounds
/// reopen: two closed-loop writers, a manual checkpoint, a fixed WAL
/// tail, read back every acked write, close.
///
/// # Errors
///
/// A store that cannot be opened or checkpointed.
pub fn prepare(ctx: &mut Ctx<'_>, rec: &mut Recorder<'_>) -> Result<Box<dyn Phase>, String> {
    let seed = ctx.seed;

    // -- set-up: preload, checkpoint, close, reopen (fresh stats) -------------
    let base = base_records();
    let mut inputs: Vec<_> = (0..SETUP_REPS).map(|_| base.clone()).collect();
    drop(base);
    let scratch = ctx.scratch;
    let (setup, opened) = setups(rec, "store-commit.setup", SETUP_REPS, |i| {
        let dir = scratch.path(&format!("store-{i}"));
        preload(&dir, inputs.pop().expect("one input per set-up"))?;
        open(&dir, SyncPolicy::NoSync, Some(CHECKPOINT_EVERY_BYTES)).map(|s| (dir, s))
    });
    let (dir, store) = opened?;
    ctx.setup_s += setup;
    // the second directory is closed and pristine: pam-serve starts on it
    ctx.preloaded = Some(scratch.path(&format!("store-{}", SETUP_REPS - 2)));
    let _ = std::fs::remove_dir_all(scratch.path("store-0"));
    ctx.report.checks.check(store.len() == RECORDS, || {
        format!("preload left {} records, not {RECORDS}", store.len())
    });

    // -- writers, manual checkpoint, fixed tail ---------------------------------
    let (head, tail) = (ctx.counts.store_ops, STORE_TAIL_OPS);
    let ops: Vec<Vec<Op>> = (0..CALLERS)
        .map(|c| {
            gen::ops(
                ctx.picker,
                stream(seed, 0x40),
                gen::STORE_MIX,
                c,
                head + tail,
                RECORDS,
            )
        })
        .collect();
    let mut models: Vec<Model> = (0..CALLERS).map(|_| Model::new()).collect();
    let mut tallies: Vec<Tally> = (0..CALLERS).map(|_| Tally::default()).collect();

    let (wall_a, live_a) =
        write_phase(&store, &ops, 0..head, &mut models, &mut tallies, ctx.tracer);
    let (ckpt, ckpt_s) = secs(|| rec.span("pam-wal", "checkpoint", || store.checkpoint()));
    ckpt.map_err(|e| format!("manual checkpoint: {e}"))?;
    let entries_at_checkpoint = store.len();
    let disk_bytes = newest_checkpoint_bytes(&dir)?;
    let (wall_b, live_b) = write_phase(
        &store,
        &ops,
        head..head + tail,
        &mut models,
        &mut tallies,
        ctx.tracer,
    );
    store.flush();
    let stats: StoreStats = store.stats();
    read_back(
        &store,
        &models,
        "live read-back",
        seed,
        &mut ctx.report.checks,
    );

    if ctx.traced() {
        side_measurements(ctx, rec, &store, &stats, &tallies, wall_a + wall_b, ckpt_s);
        ctx.report
            .set("pam-store.live_versions_max", live_a.max(live_b) as f64);
    }
    drop(store);
    Ok(Box::new(StoreCommit {
        dir,
        models,
        reopens: Vec::new(),
        found: None,
        disk_bytes,
        entries_at_checkpoint,
    }))
}

impl Phase for StoreCommit {
    /// Reopen the closed directory once. Every reopen must find the same
    /// checkpoint and replay the same epochs — what a byte-identical copy
    /// would guarantee; reopening in place avoids 120 MB of copy traffic
    /// per reopen, whose writeback would compete with the open being
    /// timed.
    fn round(&mut self, ctx: &mut Ctx<'_>, rec: &mut Recorder<'_>) -> Result<(), String> {
        let span = rec.begin("pam-store", "open", None);
        let (reopened, wall) = secs(|| open(&self.dir, SyncPolicy::NoSync, None));
        rec.end(span);
        let reopened = reopened?;
        self.reopens.push(reopen_timings(wall, reopened.recovery()));
        let saw: Vec<_> = reopened
            .recovery()
            .iter()
            .map(|i| (i.checkpoint_epoch, i.checkpoint_entries, i.replayed_epochs))
            .collect();
        match &self.found {
            Some(first) => ctx.report.checks.check(*first == saw, || {
                format!("a reopen recovered {saw:?}, the first one {first:?}")
            }),
            None => {
                // all-or-nothing per batch falls out of per-key exactness:
                // every key of an acked batch must hold the batch's version
                let checks = &mut ctx.report.checks;
                read_back(
                    &reopened,
                    &self.models,
                    "read-back after reopen",
                    ctx.seed,
                    checks,
                );
                self.found = Some(saw);
            }
        }
        Ok(())
    }

    fn reset(&mut self) {
        self.reopens.clear();
    }

    fn finish(self: Box<Self>, ctx: &mut Ctx<'_>, _rec: &mut Recorder<'_>) -> Result<(), String> {
        let _ = std::fs::remove_dir_all(&self.dir);
        let walls: Samples = self.reopens.iter().map(|r| r.wall).collect();
        let recover_s = walls.typical();
        let med = |f: fn(&Reopen) -> f64| median(&self.reopens.iter().map(f).collect::<Vec<_>>());
        let r = &mut *ctx.report;
        if ctx.tracer.enabled() {
            r.note(format!(
                "# pam-wal.recover_unattributed_share terms: open wall {:.4} s, prescan+vote {:.4} s, \
                 slowest shard bulk_load {:.4} s + segment_scan {:.4} s + replay {:.4} s (medians over {} reopens)",
                med(|r| r.wall),
                med(|r| r.prescan_vote),
                med(|r| r.bulk_load),
                med(|r| r.segment_scan),
                med(|r| r.replay),
                self.reopens.len()
            ));
            r.set("pam-wal.recover_prescan_vote_s", med(|r| r.prescan_vote));
            r.set("pam-wal.recover_bulk_load_s", med(|r| r.bulk_load));
            r.set("pam-wal.recover_segment_scan_s", med(|r| r.segment_scan));
            r.set("pam-wal.recover_replay_s", med(|r| r.replay));
            r.set(
                "pam-wal.recover_unattributed_share",
                med(|r| 1.0 - r.accounted / r.wall),
            );
        } else {
            r.set("recover_s", recover_s);
            r.set(
                "disk_bytes_per_entry",
                self.disk_bytes as f64 / self.entries_at_checkpoint as f64,
            );
        }
        Ok(())
    }
}

/// The per-layer metrics of the traced pass: latencies, `StoreStats`
/// deltas since the reopen, and direct calls into each layer.
fn side_measurements(
    ctx: &mut Ctx<'_>,
    rec: &mut Recorder<'_>,
    store: &Store,
    stats: &StoreStats,
    tallies: &[Tally],
    wall: f64,
    ckpt_s: f64,
) {
    let n = SIDE_REPS;
    let seed = ctx.seed;
    let r = &mut *ctx.report;
    let all = |f: fn(&Tally) -> &Vec<f64>| -> Vec<f64> {
        tallies.iter().flat_map(|t| f(t).iter().copied()).collect()
    };
    let put = Latency::of(&mut all(|t| &t.put_us));
    let batch = Latency::of(&mut all(|t| &t.batch_us));
    let ops: usize = tallies.iter().map(|t| t.ops).sum();
    let batches: usize = tallies.iter().map(|t| t.batches).sum();
    let stamped: usize = tallies.iter().map(|t| t.stamped).sum();
    let user_bytes: u64 = tallies.iter().map(|t| t.user_bytes).sum();
    r.note(format!("# pam-store put ack us: {put}"));
    r.note(format!("# pam-store batch ack us: {batch}"));
    r.set("pam-store.req_kops_s", ops as f64 / wall / 1e3);
    r.set("pam-store.put_ack_p50_us", put.p50);
    r.set("pam-store.put_ack_p99_us", put.p99);
    r.set("pam-store.batch_ack_p50_us", batch.p50);
    r.set("pam-store.batch_ack_p99_us", batch.p99);
    r.set(
        "pam-store.xbatch_stamped_share",
        stamped as f64 / batches.max(1) as f64,
    );

    let commits = stats.commits.max(1) as f64;
    r.set(
        "pam-store.commits_per_kop",
        commits / stats.raw_ops.max(1) as f64 * 1e3,
    );
    r.set(
        "pam-store.window_p50_us",
        stats.commit_window.p50() as f64 / 1e3,
    );
    r.set(
        "pam-store.normalize_us_per_commit",
        mean_us(&stats.commit_normalize),
    );
    r.set(
        "pam-store.wal_log_us_per_commit",
        mean_us(&stats.commit_wal_log),
    );
    r.set(
        "pam-store.apply_us_per_commit",
        mean_us(&stats.commit_apply),
    );
    r.set(
        "pam-store.publish_us_per_commit",
        mean_us(&stats.commit_publish),
    );
    r.set("pam-store.commit_p50_us", stats.commit.p50() as f64 / 1e3);
    r.set("pam-store.commit_p99_us", stats.commit.p99() as f64 / 1e3);
    r.set(
        "pam-store.committer_busy_share",
        stats.commit.sum() as f64 / 1e9 / (wall * SHARDS as f64),
    );
    r.set(
        "pam-store.fence_wait_p99_us",
        stats.fence_wait.p99() as f64 / 1e3,
    );

    let d = &stats.durability;
    r.set("pam-wal.append_us_per_record", mean_us(&d.wal_append));
    r.set(
        "pam-wal.bytes_per_op",
        d.wal_bytes as f64 / stats.raw_ops.max(1) as f64,
    );
    r.set(
        "pam-wal.write_amp",
        (d.wal_bytes + d.checkpoint_bytes) as f64 / user_bytes.max(1) as f64,
    );
    r.set("pam-wal.checkpoint_s", ckpt_s);
    r.set(
        "pam-wal.checkpoint_mb_s",
        d.checkpoint_bytes as f64 / 1e6 / (d.checkpoint.sum().max(1) as f64 / 1e9),
    );
    r.set(
        "pam-wal.checkpoint_pin_hold_s",
        mean_us(&d.checkpoint_pin_hold) / 1e6,
    );
    r.set("pam-wal.checkpoints", d.checkpoints as f64);

    // direct calls, store idle
    let picker = ctx.picker;
    let keys: Vec<Vec<u8>> = (0..100_000u64)
        .map(|i| record_key(picker.pick(stream(seed, 0x41), i, RECORDS)))
        .collect();
    let (get_s, found) = reps(
        rec,
        "pam-store",
        "get",
        n,
        || (),
        |()| keys.iter().filter(|k| store.get(k).is_some()).count(),
    );
    r.checks
        .check(found <= keys.len(), || "get loop overcounted".into());
    r.set("pam-store.get_ns", get_s * 1e9 / keys.len() as f64);
    let (snap_s, _) = reps(
        rec,
        "pam-store",
        "snapshot",
        200,
        || (),
        |()| store.snapshot(),
    );
    r.set("pam-store.snapshot_us", snap_s * 1e6);
    r.set(
        "pam-store.mem_bytes_per_entry",
        store.memory_bytes() as f64 / store.len().max(1) as f64,
    );

    let uniform = KeyPicker::new(crate::profile::KeyDist::Uniform);
    let epoch = |tag: u64| -> Vec<(Vec<u8>, Vec<u8>)> {
        (0..EPOCH_OPS as u64)
            .map(|i| {
                let rec_i = uniform.pick(stream(seed, tag), i, RECORDS);
                (record_key(rec_i), record_value(rec_i, i))
            })
            .collect()
    };
    let raw = epoch(0x42);
    let (norm_s, batch) = reps(
        rec,
        "pam-store",
        "normalize",
        n,
        || {
            raw.iter()
                .cloned()
                .enumerate()
                .map(|(seq, (k, v))| (seq as u64, WriteOp::<Spec>::Put(k, v)))
                .collect::<Vec<_>>()
        },
        normalize::<Spec>,
    );
    r.set(
        "pam-store.normalize_ns_per_op",
        norm_s * 1e9 / EPOCH_OPS as f64,
    );

    let (enc_s, body) = reps(
        rec,
        "pam-wal",
        "encode_epoch_body",
        n,
        || (),
        |()| {
            let mut out = Vec::new();
            encode_epoch_body(&batch.puts, &batch.deletes, &mut out);
            out
        },
    );
    r.set(
        "pam-wal.codec_encode_ns_per_op",
        enc_s * 1e9 / batch.puts.len() as f64,
    );
    let (dec_s, decoded) = reps(
        rec,
        "pam-wal",
        "decode_epoch_body",
        n,
        || (),
        |()| decode_epoch_body::<Vec<u8>, Vec<u8>>(&body),
    );
    r.checks
        .check(decoded.is_ok_and(|d| d.puts == batch.puts), || {
            "an encoded epoch body did not decode to itself".into()
        });
    r.set(
        "pam-wal.codec_decode_ns_per_op",
        dec_s * 1e9 / batch.puts.len() as f64,
    );
    let (crc_s, _) = reps(
        rec,
        "pam-wal",
        "crc32",
        n,
        || (),
        |()| pam_wal::frame::crc32(&body),
    );
    r.set("pam-wal.crc32_gb_s", body.len() as f64 / crc_s / 1e9);

    fsync_side_pass(ctx, rec);
}

/// The ungated side pass under `SyncEachEpoch`: what an fsync'd ack
/// costs on this sandbox's disk (not a device's figure).
fn fsync_side_pass(ctx: &mut Ctx<'_>, rec: &mut Recorder<'_>) {
    const PUTS: usize = 400;
    let dir = ctx.scratch.path("fsync");
    let span = rec.begin("driver", "fsync-side-pass", None);
    let outcome = open(&dir, SyncPolicy::SyncEachEpoch, None).map(|store| {
        let mut lat: Vec<Vec<f64>> = vec![Vec::new(); CALLERS];
        std::thread::scope(|scope| {
            for (caller, lat) in lat.iter_mut().enumerate() {
                let store = &store;
                scope.spawn(move || {
                    for n in 0..PUTS {
                        let i = n * CALLERS + caller;
                        let start = Instant::now();
                        store.put(record_key(i), record_value(i, 1)).wait();
                        lat.push(start.elapsed().as_secs_f64() * 1e6);
                    }
                });
            }
        });
        (lat.concat(), store.stats())
    });
    rec.end(span);
    let _ = std::fs::remove_dir_all(&dir);
    let r = &mut *ctx.report;
    match outcome {
        Ok((mut lat, stats)) => {
            let put = Latency::of(&mut lat);
            let d = &stats.durability;
            r.note(format!(
                "# pam-wal fsync'd put ack us (sandbox disk): {put}"
            ));
            r.set(
                "pam-wal.fsyncs_per_kop",
                d.wal_fsyncs as f64 / (PUTS * CALLERS) as f64 * 1e3,
            );
            r.set("pam-wal.fsync_p50_us", d.wal_fsync.p50() as f64 / 1e3);
            r.set("pam-wal.put_ack_fsync_p50_us", put.p50);
        }
        Err(e) => r.checks.check(false, || format!("fsync side pass: {e}")),
    }
}
