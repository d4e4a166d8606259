//! The durability part of a [`crate::Store`]: one log and a checkpoint per
//! shard.
//!
//! The design exploits the two properties PAM gives us for free:
//!
//! * **One record per epoch.** The group-commit pipeline already merges
//!   all concurrent writers into one normalized batch, so the WAL costs
//!   one append — and under [`pam_wal::SyncPolicy::SyncEachEpoch`] one
//!   *group* fsync — per epoch, not per write. The committer appends the
//!   batch to the log *before* the epoch is applied or any ticket wakes:
//!   an acknowledged write is a durable write. An epoch is one record
//!   whatever shards its keys route to, so a batch spanning shards is
//!   whole in the log or absent from it — its frame's checksum is its
//!   atomicity.
//! * **Checkpoints never pause writers.** A checkpoint pins the head
//!   version (O(1), persistent) and streams every shard's map to disk in
//!   sorted order while commits keep landing — the same snapshot trick
//!   PaC-trees use for on-disk tree blocks. Afterwards, WAL segments
//!   wholly covered by the checkpoint are unlinked.
//!
//! There is one on-disk layout, whatever the shard count:
//!
//! ```text
//! <dir>/MANIFEST            the shard count (pinned at creation)
//! <dir>/LOCK.pid            one writer per store directory
//! <dir>/wal-*.seg           the one log: one record per epoch
//! <dir>/shard-0/            ckpt-<E>.ckpt — shard 0's map at store epoch E
//! <dir>/shard-1/            ...
//! ```
//!
//! Recovery ([`crate::Store::open`]) bulk-loads every shard's newest
//! valid checkpoint in parallel with the O(n)-work
//! `AugMap::from_sorted_distinct`, then replays the log once, from the
//! oldest of those checkpoints' epochs on, routing each record's
//! operations to their shards through the same `multi_insert` /
//! `multi_delete` path the committer uses. Logged epochs are normalized
//! (sorted, LWW-resolved), so replay is idempotent and may overlap a
//! checkpoint's coverage, and a torn final record — the signature of a
//! crash mid-append — is truncated away by [`pam_wal::Wal::open`].

use crate::config::DurabilityConfig;
use crate::op::NormalizedBatch;
use crate::registry::{Registry, VersionId};
use crate::shard::{apply_routed, ShardKey};
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

/// What [`crate::Store::open`] found on disk, per shard.
#[derive(Clone, Debug, Default)]
pub struct RecoveryInfo {
    /// Store epoch the shard's loaded checkpoint claimed (0: none).
    pub checkpoint_epoch: u64,
    /// Entries bulk-loaded from the checkpoint.
    pub checkpoint_entries: u64,
    /// Log records replayed on top of the checkpoints (store-wide: the
    /// one log is replayed once, the same count in every shard's entry).
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
    /// Always zero: one log needs no cross-shard pre-scan. Kept only
    /// because the frozen benchmark package reads it; its next revision
    /// deletes the field.
    pub prescan: Duration,
    /// Always zero, like `prescan`: there is no vote.
    pub vote: Duration,
    /// Streaming this shard's newest checkpoint into its map (bulk
    /// load; shards load in parallel).
    pub bulk_load: Duration,
    /// Scanning + frame-decoding the WAL segments ([`Wal::open`]).
    /// Store-wide, the same in every shard's entry.
    pub segment_scan: Duration,
    /// Decoding epoch bodies and applying them on top of the
    /// checkpoints. Store-wide, like `segment_scan`.
    pub replay: Duration,
}

impl RecoveryTimings {
    /// Sum of all phases — the recovery's total accounted wall time.
    pub fn total(&self) -> Duration {
        self.prescan + self.vote + self.bulk_load + self.segment_scan + self.replay
    }
}

/// Checkpoint files each shard retains; older ones are pruned. The
/// second is insurance: a corrupt newest checkpoint falls back to the
/// previous one plus a longer WAL replay.
const KEEP_CHECKPOINTS: usize = 2;

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

/// The durability part of a store: the one WAL the committer appends
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
    /// The store directory: manifest, log, shard checkpoint directories.
    pub(crate) dir: PathBuf,
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
    /// says. The committer calls this before it applies the epoch.
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

    /// Checkpoint now: pin the head at store epoch `E`, write every
    /// shard's map to `shard-<i>/ckpt-<E>.ckpt`, then truncate the log
    /// through `E`. Shared by [`crate::Store::checkpoint`] and the
    /// background checkpointer.
    pub(crate) fn checkpoint<S: AugSpec>(&self, registry: &Registry<S>) -> io::Result<u64>
    where
        S::K: Codec,
        S::V: Codec,
    {
        // One checkpoint at a time: a manual call racing the background
        // thread must not interleave into the same temp file.
        let _serialize = self.ckpt_mutex.lock();
        let ckpt_start = Instant::now();
        // The pinned version holds every epoch up to its id and none after:
        // all N files are cut at that one store epoch.
        let pin = registry.pin_head();
        let epoch = pin.entry.id;
        let pin_start = Instant::now();
        let mut ckpt_bytes = 0;
        for (i, map) in pin.entry.maps.iter().enumerate() {
            ckpt_bytes += checkpoint::write(
                &manifest::shard_dir(&self.dir, i),
                epoch,
                map.len() as u64,
                |emit| map.for_each(|k, v| emit(k, v)),
                KEEP_CHECKPOINTS,
            )
            .map_err(|e| io::Error::new(e.kind(), format!("shard {i}: {e}")))?;
        }
        drop(pin); // the snapshot is on disk; release the version
        self.counters
            .ckpt_pin_nanos
            .record_duration(pin_start.elapsed());
        // Every shard's file at `epoch` is durable: the log may drop what it
        // covers.
        self.wal.lock().truncate_through(epoch)?;
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
}

/// Shutdown signal for the background checkpointer.
#[derive(Default)]
struct StopSignal {
    stop: Mutex<bool>,
    cv: Condvar,
}

/// What a directory without a `MANIFEST` holds that only a store could
/// have written, if anything: `shard-<i>` subdirectories or top-level
/// `wal-*.seg` files (a store whose manifest was lost), or top-level
/// `ckpt-*.ckpt` files (the retired single-directory layout). Either way
/// there is acknowledged data here and no manifest saying how it is laid
/// out.
fn unmanifested_data(dir: &Path) -> io::Result<Option<&'static str>> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let is_dir = entry.file_type()?.is_dir();
        if is_dir
            && name
                .strip_prefix("shard-")
                .is_some_and(|d| !d.is_empty() && d.bytes().all(|b| b.is_ascii_digit()))
        {
            return Ok(Some("shard directories but no manifest"));
        }
        if !is_dir && name.starts_with("wal-") && name.ends_with(".seg") {
            return Ok(Some(
                "WAL segments but no manifest (a store whose manifest was lost, or \
                 the retired single-directory layout)",
            ));
        }
        if !is_dir && name.starts_with("ckpt-") && name.ends_with(".ckpt") {
            return Ok(Some(
                "checkpoints at its top level (the retired single-directory layout, \
                 which this version cannot open)",
            ));
        }
    }
    Ok(None)
}

/// The WAL records must be a contiguous run starting at or before
/// `from + 1`, the oldest shard checkpoint's epoch plus one.
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

/// What [`recover`] found: the locked directory's shard maps at the
/// version the log left off, and the log, open for appends.
pub(crate) struct Recovered<S: AugSpec> {
    pub lock: DirLock,
    pub maps: Vec<AugMap<S>>,
    pub version: VersionId,
    /// What recovery found, shard order.
    pub recovery: Vec<RecoveryInfo>,
    pub wal: WalPart,
}

/// Open (or create) the store directory `dir` for `shards` shards: take
/// its lock, verify the manifest, load every shard's checkpoint and
/// replay the log. See [`crate::Store::open`] for the contract and the
/// errors.
pub(crate) fn recover<S: AugSpec>(
    dir: &Path,
    shards: usize,
    durability: &DurabilityConfig,
) -> io::Result<Recovered<S>>
where
    S::K: Codec + ShardKey,
    S::V: Codec,
{
    std::fs::create_dir_all(dir)?;
    // one writer per directory: a second open (double-started
    // service) must fail fast, not interleave WAL frames
    let lock = DirLock::acquire(dir)?;
    manifest::clean_temp_file(dir)?;
    match manifest::load(dir)? {
        Some(m) if m.shards == shards as u64 => {}
        Some(m) => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "shard-count mismatch: {} holds {} shards, open asked for {shards} \
                     (the hash routing is pinned at creation — resharding needs a \
                     rewrite, not a reopen)",
                    dir.display(),
                    m.shards
                ),
            ));
        }
        // any surviving shard-<i> subdir or log segment means there
        // is data we would be guessing the layout of — or silently
        // shadowing with an empty store
        None => {
            if let Some(found) = unmanifested_data(dir)? {
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

    // 1. every shard's newest valid checkpoint, in parallel: stream
    //    it into the map chunk by chunk — each chunk bulk-loads with
    //    the O(chunk) `from_sorted_distinct` and unions onto the
    //    accumulated map's right edge (chunks ascend globally), so
    //    peak memory is one chunk per shard, never a whole checkpoint
    let loaded = parlay::tabulate(shards, |i| {
        let start = Instant::now();
        let shard_dir = manifest::shard_dir(dir, i);
        std::fs::create_dir_all(&shard_dir)?;
        checkpoint::clean_temp_files(&shard_dir)?;
        let ckpt = checkpoint::load_latest_with::<S::K, S::V, AugMap<S>>(
            &shard_dir,
            AugMap::new,
            |m, chunk| {
                let right = AugMap::from_sorted_distinct(&chunk);
                let left = std::mem::replace(m, AugMap::new());
                *m = left.union(right);
            },
        )?;
        Ok((ckpt.unwrap_or((0, 0, AugMap::new())), start.elapsed()))
    })
    .into_iter()
    .collect::<io::Result<Vec<_>>>()?;
    let mut maps = Vec::with_capacity(shards);
    let mut recovery = Vec::with_capacity(shards);
    for ((epoch, entries, map), bulk_load) in loaded {
        maps.push(map);
        recovery.push(RecoveryInfo {
            checkpoint_epoch: epoch,
            checkpoint_entries: entries,
            timings: RecoveryTimings {
                bulk_load,
                ..RecoveryTimings::default()
            },
            ..RecoveryInfo::default()
        });
    }
    let from = recovery
        .iter()
        .map(|r| r.checkpoint_epoch)
        .min()
        .unwrap_or(0);

    // 2. the one log, replayed once from the oldest checkpoint on
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
            apply_routed(&mut maps, body.puts, body.deletes);
        }
    }
    let replay = phase_start.elapsed();
    let last_epoch = recovery
        .iter()
        .map(|r| r.checkpoint_epoch)
        .max()
        .unwrap_or(0)
        .max(wal.last_epoch());
    for info in &mut recovery {
        info.replayed_epochs = to_replay.len() as u64;
        info.last_epoch = last_epoch;
        info.timings.segment_scan = segment_scan;
        info.timings.replay = replay;
    }
    event!(
        Level::Info,
        "pam_store::recovery",
        "recovered {}: {shards} shard checkpoints from epoch {from}, wal scan \
         {segment_scan:?}, replayed {} epochs in {replay:?}",
        dir.display(),
        to_replay.len()
    );
    drop(records);

    let wal_obs = wal.obs();
    Ok(Recovered {
        lock,
        maps,
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
        },
    })
}
