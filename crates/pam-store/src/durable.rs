//! The durability part of a [`crate::Store`]: one log, and checkpoints
//! cut into N key-range files.
//!
//! The design exploits the two properties PAM gives us for free:
//!
//! * **One record per epoch.** The group-commit pipeline already merges
//!   all concurrent writers into one normalized batch, so the WAL costs
//!   one append — and under [`pam_wal::SyncPolicy::SyncEachEpoch`] one
//!   *group* fsync — per epoch, not per write. The commit appends the
//!   batch to the log *before* the epoch is applied or any ticket wakes:
//!   an acknowledged write is a durable write. A batch is one record, so
//!   it is whole in the log or absent from it — its frame's checksum is
//!   its atomicity.
//! * **Checkpoints never pause writers.** A checkpoint pins the head
//!   version (O(1), persistent), cuts its map by rank into N contiguous
//!   key ranges (`split_rank`, O(log n) each) and streams each range to
//!   disk in sorted order while commits keep landing — the same snapshot
//!   trick PaC-trees use for on-disk tree blocks.
//!
//! There is one on-disk layout:
//!
//! ```text
//! <dir>/MANIFEST            N, the files per checkpoint (pinned at creation)
//! <dir>/LOCK.pid            one writer per store directory
//! <dir>/wal-*.seg           the one log: one record per epoch
//! <dir>/shard-0/            ckpt-<E>.ckpt — ranks [0, n/N) of the map at store epoch E
//! <dir>/shard-1/            ckpt-<E>.ckpt — ranks [n/N, 2n/N), and so on
//! ```
//!
//! A checkpoint at epoch E is *complete* once all N of its files are in
//! place. Only then is the log truncated through E, and only then are
//! older files pruned, down to the previous complete checkpoint (kept as
//! a fallback). Files of an attempt that failed part-way belong to no
//! complete checkpoint; the next attempt deletes them first.
//!
//! Recovery ([`crate::Store::open`]) loads the newest complete checkpoint
//! whose N files all validate — the files in parallel, each chunk with
//! the O(n)-work `AugMap::from_sorted_distinct`, which moves the decoded
//! entries into the tree, once its keys are checked to ascend (a file
//! whose keys do not is refused like one that fails its CRC) — unions
//! the N disjoint ranges into one map, then replays the log
//! once from E on through the same one-walk `op::apply` the committer
//! uses. It never mixes files of two epochs: ranges are cut by rank, so
//! two epochs' cuts differ, and a key no write touched in between can sit
//! outside both files — where replay would not restore it either. Logged
//! epochs are normalized (sorted, LWW-resolved), so replay is idempotent
//! and may overlap a checkpoint's coverage, and a torn final record — the
//! signature of a crash mid-append — is truncated away by
//! [`pam_wal::Wal::open`].

use crate::config::DurabilityConfig;
use crate::op::{self, NormalizedBatch};
use crate::registry::{Registry, VersionId};
use crate::stats::DurabilityStats;
use pam::{AugMap, AugSpec};
use pam_obs::{event, Health, Histogram, Level};
use pam_wal::wal::WalObs;
use pam_wal::{checkpoint, manifest, record, Codec, DirLock, EpochRecord, Wal, WalConfig};
use parking_lot::{Condvar, Mutex};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What [`crate::Store::open`] found on disk, per checkpoint file.
#[derive(Clone, Debug, Default)]
pub struct RecoveryInfo {
    /// Store epoch of the checkpoint recovery loaded (0: none) — the same
    /// in every file's entry.
    pub checkpoint_epoch: u64,
    /// Entries bulk-loaded from this file.
    pub checkpoint_entries: u64,
    /// Log records replayed on top of the checkpoint (store-wide: the
    /// one log is replayed once, the same count in every file's entry).
    pub replayed_epochs: u64,
    /// Highest store epoch after recovery — the version the store
    /// reopened at.
    pub last_epoch: u64,
    /// Where the recovery wall time went, phase by phase.
    pub timings: RecoveryTimings,
}

/// Per-phase wall-time breakdown of one recovery (all fields zero for
/// phases that did not run).
#[derive(Clone, Copy, Debug, Default)]
pub struct RecoveryTimings {
    /// Always zero: one log needs no pre-scan. Kept only because the
    /// frozen benchmark package reads it; its next revision deletes the
    /// field.
    pub prescan: Duration,
    /// Always zero, like `prescan`: there is no vote.
    pub vote: Duration,
    /// Streaming this file into its map (bulk load; the files load in
    /// parallel).
    pub bulk_load: Duration,
    /// Scanning + frame-decoding the WAL segments ([`Wal::open`]).
    /// Store-wide, the same in every file's entry.
    pub segment_scan: Duration,
    /// Decoding epoch bodies and applying them on top of the
    /// checkpoint. Store-wide, like `segment_scan`.
    pub replay: Duration,
}

impl RecoveryTimings {
    /// Sum of all phases — the recovery's total accounted wall time.
    pub fn total(&self) -> Duration {
        self.prescan + self.vote + self.bulk_load + self.segment_scan + self.replay
    }
}

/// Durability counters shared between the committer and checkpointer
/// (writer side) and `stats()` (reader side).
#[derive(Default)]
struct DurCounters {
    records: AtomicU64,
    bytes: AtomicU64,
    fsyncs: AtomicU64,
    checkpoints: AtomicU64,
    ckpt_bytes: AtomicU64,
    last_ckpt_epoch: AtomicU64,
    bytes_at_last_ckpt: AtomicU64,
    /// Whole-checkpoint duration, nanoseconds.
    ckpt_nanos: Histogram,
    /// Per-checkpoint version-pin hold time, nanoseconds.
    ckpt_pin_nanos: Histogram,
}

/// The durability part of a store: the one WAL every commit appends
/// every epoch to, plus the checkpoint bookkeeping that truncates it.
pub(crate) struct WalPart {
    wal: Mutex<Wal>,
    /// Serializes checkpoints: a manual `checkpoint()` racing the
    /// background checkpointer must not interleave writes into the same
    /// temp file (or race the prune of stale checkpoints).
    ckpt_mutex: Mutex<()>,
    counters: DurCounters,
    /// The WAL's hot-path histograms (append/fsync latency, rotations),
    /// cached here so `stats()` can snapshot them without taking the WAL
    /// mutex away from the committer.
    wal_obs: Arc<WalObs>,
    last_ckpt_at: Mutex<Option<Instant>>,
    /// The background checkpointer's most recent failure (cleared by its
    /// next success): surfaces as `Health::Degraded` on `/health` before
    /// an unbounded WAL becomes an outage.
    last_ckpt_error: Mutex<Option<String>>,
    /// Tells the background checkpointer to exit.
    stop: StopSignal,
    /// The store directory: manifest, log, checkpoint directories.
    pub(crate) dir: PathBuf,
    /// Files per checkpoint, as the manifest pins it.
    shards: usize,
}

impl WalPart {
    /// Fold the pipeline's fail-stop verdict with the background
    /// checkpointer's: poisoned beats degraded beats healthy.
    pub(crate) fn health(&self, pipeline: Health) -> Health {
        let ckpt_error = self.last_ckpt_error.lock().clone();
        match ckpt_error {
            Some(e) => pipeline.worse(Health::Degraded(format!(
                "background checkpoint failing: {e}"
            ))),
            None => pipeline,
        }
    }

    pub(crate) fn durability_stats(&self) -> DurabilityStats {
        let segments = self.wal.lock().segments() as u64;
        DurabilityStats {
            // relaxed: a monitoring snapshot — each counter is
            // independently meaningful and slight skew between them is
            // inherent to sampling live writers (all loads below alike)
            wal_records: self.counters.records.load(Ordering::Relaxed),
            wal_bytes: self.counters.bytes.load(Ordering::Relaxed), // relaxed: see above
            wal_fsyncs: self.counters.fsyncs.load(Ordering::Relaxed), // relaxed: see above
            wal_segments: segments,
            wal_rotations: self.wal_obs.rotations(),
            wal_append: self.wal_obs.append_nanos.snapshot(),
            wal_fsync: self.wal_obs.fsync_nanos.snapshot(),
            checkpoints: self.counters.checkpoints.load(Ordering::Relaxed), // relaxed: see above
            checkpoint_bytes: self.counters.ckpt_bytes.load(Ordering::Relaxed), // relaxed: see above
            checkpoint: self.counters.ckpt_nanos.snapshot(),
            checkpoint_pin_hold: self.counters.ckpt_pin_nanos.snapshot(),
            // relaxed: see above
            last_checkpoint_epoch: self.counters.last_ckpt_epoch.load(Ordering::Relaxed),
            last_checkpoint_age: self.last_ckpt_at.lock().map(|at| at.elapsed()),
        }
    }

    /// Append the normalized `epoch` as one record, synced as the policy
    /// says. A commit calls this before it applies the epoch.
    pub(crate) fn append<S: AugSpec>(
        &self,
        epoch: u64,
        batch: &NormalizedBatch<S>,
    ) -> io::Result<()>
    where
        S::K: Codec,
        S::V: Codec,
    {
        let mut body = Vec::with_capacity(16 * batch.len() + 16);
        record::encode_epoch_body(&batch.puts, &batch.deletes, &mut body);
        let info = self.wal.lock().append(epoch, &body)?;
        // relaxed: monitoring counters; durability is carried by the
        // append (and its sync, per the policy), not by these
        self.counters.records.fetch_add(1, Ordering::Relaxed);
        self.counters.bytes.fetch_add(info.bytes, Ordering::Relaxed); // relaxed: see above
        if info.synced {
            // relaxed: see above
            self.counters.fsyncs.fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
    }

    /// Best-effort fsync of the log's active segment (a no-op when every
    /// append is already synced), as the log's own drop does.
    pub(crate) fn sync(&self) {
        let _ = self.wal.lock().sync();
    }

    /// Checkpoint now: pin the head at store epoch `E`, cut its map into
    /// the manifest's N key ranges and write range `i` to
    /// `shard-<i>/ckpt-<E>.ckpt`; once all N are in place, truncate the
    /// log through `E` and prune older files. Shared by
    /// [`crate::Store::checkpoint`] and the background checkpointer.
    pub(crate) fn checkpoint<S: AugSpec>(&self, registry: &Registry<S>) -> io::Result<u64>
    where
        S::K: Codec,
        S::V: Codec,
    {
        // One checkpoint at a time: a manual call racing the background
        // thread must not interleave into the same temp file.
        let _serialize = self.ckpt_mutex.lock();
        let ckpt_start = Instant::now();
        // Files newer than the last complete checkpoint are what a failed
        // attempt left: recovery never reads them, so they go first.
        let previous = complete_epochs(&self.dir, self.shards)?.first().copied();
        self.retain_each(|e| previous.is_some_and(|p| e <= p))?;
        // The pinned version holds every epoch up to its id and none after:
        // all N files are cut from that one map.
        let pin = registry.pin_head();
        let epoch = pin.entry.id;
        let pin_start = Instant::now();
        let (n, files) = (pin.entry.map.len(), self.shards);
        let mut rest = pin.entry.map.clone();
        let mut ckpt_bytes = 0;
        for i in 0..files {
            // file i holds ranks [i·n/N, (i+1)·n/N)
            let (range, tail) = rest.split_rank((i + 1) * n / files - i * n / files);
            rest = tail;
            ckpt_bytes += checkpoint::write(
                &manifest::shard_dir(&self.dir, i),
                epoch,
                range.len() as u64,
                |emit| range.for_each(|k, v| emit(k, v)),
            )
            .map_err(|e| in_file(i, e))?;
        }
        drop(pin); // the snapshot is on disk; release the version
        self.counters
            .ckpt_pin_nanos
            .record_duration(pin_start.elapsed());
        // All N files at `epoch` are durable: the log may drop what they
        // cover, and the previous complete checkpoint is the one fallback
        // kept.
        self.wal.lock().truncate_through(epoch)?;
        self.retain_each(|e| e >= previous.unwrap_or(0))?;
        // relaxed: checkpoint bookkeeping counters — the checkpointer is the
        // only writer (ckpt_mutex) and readers tolerate sampling skew; the
        // last_ckpt_epoch/bytes_at_last_ckpt pair only throttles the *next*
        // checkpoint, where an off-by-one read is harmless
        self.counters.checkpoints.fetch_add(1, Ordering::Relaxed);
        self.counters
            .ckpt_bytes
            // relaxed: see above
            .fetch_add(ckpt_bytes, Ordering::Relaxed);
        self.counters
            .last_ckpt_epoch
            // relaxed: see above
            .store(epoch, Ordering::Relaxed);
        // relaxed: see above
        self.counters.bytes_at_last_ckpt.store(
            self.counters.bytes.load(Ordering::Relaxed), // relaxed: see above
            Ordering::Relaxed,                           // relaxed: see above
        );
        *self.last_ckpt_at.lock() = Some(Instant::now());
        let took = ckpt_start.elapsed();
        self.counters.ckpt_nanos.record_duration(took);
        event!(
            Level::Info,
            "pam_store::checkpoint",
            "checkpoint at epoch {epoch}: {ckpt_bytes} bytes in {took:?}"
        );
        Ok(epoch)
    }

    /// The background checkpointer's loop: every poll that finds
    /// `every_bytes` of log written since the last checkpoint writes one,
    /// until [`Self::stop_checkpointer`].
    pub(crate) fn run_checkpointer<S: AugSpec>(&self, registry: &Registry<S>, every_bytes: u64)
    where
        S::K: Codec,
        S::V: Codec,
    {
        let poll = Duration::from_millis(50);
        loop {
            {
                let mut stopped = self.stop.stop.lock();
                if !*stopped {
                    let _ = self.stop.cv.wait_timeout(&mut stopped, poll);
                }
                if *stopped {
                    return;
                }
            }
            // relaxed: freshness heuristics — a stale counter read at worst
            // delays or repeats one checkpoint poll (all loads below alike)
            let last = self.counters.last_ckpt_epoch.load(Ordering::Relaxed);
            if registry.pin_head().entry.id == last {
                continue; // nothing new to checkpoint
            }
            // relaxed: see above
            let bytes_due = self.counters.bytes.load(Ordering::Relaxed)
                - self.counters.bytes_at_last_ckpt.load(Ordering::Relaxed) // relaxed: see above
                >= every_bytes;
            if !bytes_due {
                continue;
            }
            match self.checkpoint(registry) {
                Ok(_) => {
                    *self.last_ckpt_error.lock() = None;
                }
                Err(e) => {
                    // a failed checkpoint is not fatal: the WAL still has
                    // everything; surface the problem (stderr, the event
                    // ring, and `/health` as Degraded) and retry next tick
                    eprintln!("pam-store: background checkpoint failed: {e}");
                    event!(
                        Level::Warn,
                        "pam_store::checkpoint",
                        "background checkpoint failed: {e}"
                    );
                    *self.last_ckpt_error.lock() = Some(e.to_string());
                }
            }
        }
    }

    /// Ask the background checkpointer to exit.
    pub(crate) fn stop_checkpointer(&self) {
        *self.stop.stop.lock() = true;
        self.stop.cv.notify_all();
    }

    /// Delete, in every checkpoint directory, the files whose epoch
    /// `keep` rejects.
    fn retain_each(&self, keep: impl Fn(u64) -> bool) -> io::Result<()> {
        for i in 0..self.shards {
            checkpoint::retain(&manifest::shard_dir(&self.dir, i), &keep)
                .map_err(|e| in_file(i, e))?;
        }
        Ok(())
    }
}

/// `e`, naming the checkpoint file (`shard-<i>/`) it happened on.
fn in_file(i: usize, e: io::Error) -> io::Error {
    io::Error::new(e.kind(), format!("shard {i}: {e}"))
}

/// The epochs at which every one of the `shards` checkpoint directories
/// under `dir` holds a file — the complete checkpoints — newest first.
/// By name only: nothing is validated.
fn complete_epochs(dir: &Path, shards: usize) -> io::Result<Vec<u64>> {
    let per_dir = (0..shards)
        .map(|i| checkpoint::epochs(&manifest::shard_dir(dir, i)).map_err(|e| in_file(i, e)))
        .collect::<io::Result<Vec<_>>>()?;
    let Some((first, rest)) = per_dir.split_first() else {
        return Ok(Vec::new());
    };
    Ok(first
        .iter()
        .rev()
        .filter(|e| rest.iter().all(|d| d.binary_search(e).is_ok()))
        .copied()
        .collect())
}

/// Shutdown signal for the background checkpointer.
#[derive(Default)]
struct StopSignal {
    stop: Mutex<bool>,
    cv: Condvar,
}

/// The WAL records must be a contiguous run starting at or before
/// `from + 1`, the loaded checkpoint's epoch plus one.
///
/// Logged epochs increment by exactly 1 (within a run and across
/// restarts), and WAL truncation only ever removes a prefix. Anything else
/// means acked epochs are missing (e.g. a newest checkpoint failed
/// validation *after* its WAL coverage was truncated), and silently
/// serving that state would lose acknowledged writes.
fn check_contiguous(records: &[EpochRecord], from: u64) -> io::Result<()> {
    let gap = |msg: String| Err(io::Error::new(io::ErrorKind::InvalidData, msg));
    if let Some(first) = records.first() {
        if first.epoch > from + 1 {
            return gap(format!(
                "WAL gap: the checkpoints cover epochs <= {from} but the log resumes at {} \
                 — acked epochs are missing (a newer checkpoint may have failed validation)",
                first.epoch
            ));
        }
    }
    for pair in records.windows(2) {
        if pair[1].epoch != pair[0].epoch + 1 {
            return gap(format!(
                "WAL gap: epoch {} follows {} — the log is not contiguous",
                pair[1].epoch, pair[0].epoch
            ));
        }
    }
    Ok(())
}

/// What [`recover`] found: the locked directory's map at the version
/// the log left off, and the log, open for appends.
pub(crate) struct Recovered<S: AugSpec> {
    pub lock: DirLock,
    pub map: AugMap<S>,
    pub version: VersionId,
    /// What recovery found, one entry per checkpoint file.
    pub recovery: Vec<RecoveryInfo>,
    pub wal: WalPart,
}

/// Open (or create) the store directory `dir` for checkpoints of
/// `shards` files: take its lock, verify the manifest, load the newest
/// complete checkpoint and replay the log. See [`crate::Store::open`]
/// for the contract and the errors.
pub(crate) fn recover<S: AugSpec>(
    dir: &Path,
    shards: usize,
    durability: &DurabilityConfig,
) -> io::Result<Recovered<S>>
where
    S::K: Codec,
    S::V: Codec,
{
    std::fs::create_dir_all(dir)?;
    // one writer per directory: a second open (double-started
    // service) must fail fast, not interleave WAL frames
    let lock = DirLock::acquire(dir)?;
    match manifest::load(dir)? {
        Some(m) if m.shards == shards as u64 => {}
        Some(m) => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "shard-count mismatch: {} holds {} shards, open asked for {shards} \
                     (the files per checkpoint are pinned at creation)",
                    dir.display(),
                    m.shards
                ),
            ));
        }
        // any surviving shard-<i> subdir or log segment means there
        // is data we would be guessing the layout of — or silently
        // shadowing with an empty store
        None => {
            if let Some(found) = manifest::unmanifested_data(dir)? {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "{} has {found} — refusing to guess the layout",
                        dir.display()
                    ),
                ));
            }
            manifest::write(dir, shards as u64)?;
        }
    }

    // what a publish cut short by a crash left: `MANIFEST.tmp` here, a
    // checkpoint file's `.tmp` in each shard directory
    pam_wal::clean_temp_files(dir)?;
    for i in 0..shards {
        let shard_dir = manifest::shard_dir(dir, i);
        std::fs::create_dir_all(&shard_dir)?;
        pam_wal::clean_temp_files(&shard_dir)?;
    }

    // 1. the newest complete checkpoint whose N files all validate, the
    //    files in parallel: each streams into its own map chunk by chunk
    //    — a decoded chunk is moved into the O(chunk) `from_sorted_distinct`
    //    (each entry once, none copied) and unions onto the accumulated
    //    map's right edge, once one pass has checked that its keys ascend
    //    past that edge — so peak memory is one chunk per file, never a
    //    whole file
    let mut loaded = None;
    for epoch in complete_epochs(dir, shards)? {
        let files = parlay::tabulate(shards, |i| {
            let start = Instant::now();
            let shard_dir = manifest::shard_dir(dir, i);
            let (entries, map) = checkpoint::load_at::<S::K, S::V, _>(
                &shard_dir,
                epoch,
                AugMap::new(),
                |m: &mut AugMap<S>, chunk| {
                    // a bulk load trusts the order, so check it: keys
                    // ascend strictly within the chunk and past the map
                    let after = |a: &S::K, b: &S::K| S::compare(a, b).is_lt();
                    let sorted = chunk.windows(2).all(|w| after(&w[0].0, &w[1].0));
                    let above = match (m.last(), chunk.first()) {
                        (Some((last, _)), Some((first, _))) => after(last, first),
                        _ => true,
                    };
                    if !(sorted && above) {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!(
                                "keys out of order in checkpoint {epoch} in {}",
                                shard_dir.display()
                            ),
                        ));
                    }
                    let right = AugMap::from_sorted_distinct(chunk);
                    *m = std::mem::take(m).union(right);
                    Ok(())
                },
            )?;
            Ok((entries, map, start.elapsed()))
        });
        match files.into_iter().collect::<io::Result<Vec<_>>>() {
            Ok(files) => {
                loaded = Some((epoch, files));
                break;
            }
            // a corrupt file: fall back to the previous complete checkpoint
            // (plus a longer replay, if the log still reaches back to it)
            Err(e) if e.kind() == io::ErrorKind::InvalidData => event!(
                Level::Warn,
                "pam_store::recovery",
                "checkpoint at epoch {epoch} does not load: {e}"
            ),
            Err(e) => return Err(e),
        }
    }
    let (from, files) = loaded.unwrap_or_default();
    // the N ranges are disjoint and ascending: each union is a join
    let mut map = AugMap::new();
    let mut recovery = vec![RecoveryInfo::default(); shards];
    for ((entries, part, bulk_load), info) in files.into_iter().zip(&mut recovery) {
        map = map.union(part);
        info.checkpoint_epoch = from;
        info.checkpoint_entries = entries;
        info.timings.bulk_load = bulk_load;
    }

    // 2. the one log, replayed once from the checkpoint on
    let wal_config = WalConfig {
        segment_bytes: durability.segment_bytes,
        sync: durability.sync,
    };
    let phase_start = Instant::now();
    let (wal, records) = Wal::open(dir, wal_config)?;
    let segment_scan = phase_start.elapsed();
    check_contiguous(&records, from)?;
    // Decode epoch bodies in parallel (CPU-bound varint parsing),
    // then apply them in epoch order — application must stay
    // sequential because later epochs overwrite earlier ones. Decode
    // in bounded windows so peak memory is the raw records plus one
    // window of decoded bodies, not a second full copy of the log.
    const DECODE_WINDOW: usize = 64;
    let phase_start = Instant::now();
    let to_replay: Vec<&EpochRecord> = records.iter().filter(|r| r.epoch > from).collect();
    for window in to_replay.chunks(DECODE_WINDOW) {
        let bodies = parlay::tabulate(window.len(), |i| {
            record::decode_epoch_body::<S::K, S::V>(&window[i].body)
        });
        for body in bodies {
            let body = body?;
            op::apply(&mut map, body.puts, body.deletes);
        }
    }
    let replay = phase_start.elapsed();
    let last_epoch = from.max(wal.last_epoch());
    for info in &mut recovery {
        info.replayed_epochs = to_replay.len() as u64;
        info.last_epoch = last_epoch;
        info.timings.segment_scan = segment_scan;
        info.timings.replay = replay;
    }
    event!(
        Level::Info,
        "pam_store::recovery",
        "recovered {}: a {shards}-file checkpoint at epoch {from}, wal scan \
         {segment_scan:?}, replayed {} epochs in {replay:?}",
        dir.display(),
        to_replay.len()
    );
    drop(records);

    let wal_obs = wal.obs();
    Ok(Recovered {
        lock,
        map,
        version: last_epoch,
        recovery,
        wal: WalPart {
            wal: Mutex::new(wal),
            ckpt_mutex: Mutex::new(()),
            counters: DurCounters::default(),
            wal_obs,
            last_ckpt_at: Mutex::new(None),
            last_ckpt_error: Mutex::new(None),
            stop: StopSignal::default(),
            dir: dir.to_path_buf(),
            shards,
        },
    })
}
