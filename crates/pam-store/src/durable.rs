//! The durability part of a [`crate::Store`]: a disk underneath every shard.
//!
//! The design exploits the two properties PAM gives us for free:
//!
//! * **One record per epoch.** The group-commit pipeline already merges
//!   all concurrent writers into one normalized batch, so the WAL costs
//!   one append — and under [`pam_wal::SyncPolicy::SyncEachEpoch`] one
//!   *group* fsync — per epoch, not per write. The committer's
//!   [`CommitHook`] logs the batch *before* the epoch is applied or any
//!   ticket wakes: an acknowledged write is a durable write.
//! * **Checkpoints never pause writers.** A checkpoint pins the head
//!   version (O(1), persistent) and streams it to disk in sorted order
//!   while commits keep landing — the same snapshot trick PaC-trees use
//!   for on-disk tree blocks. Afterwards, WAL segments wholly covered by
//!   the checkpoint are unlinked.
//!
//! There is one on-disk layout, whatever the shard count:
//!
//! ```text
//! <dir>/MANIFEST            shard count (pinned at creation), the global
//!                           epoch watermark, the discard list
//! <dir>/LOCK.pid            one writer per store directory
//! <dir>/shard-0/            wal-*.seg, ckpt-*.ckpt, LOCK.pid — one
//! <dir>/shard-1/            shard's log and checkpoints
//! ...
//! ```
//!
//! Recovery ([`crate::Store::open`]) is per shard — load the newest valid
//! checkpoint with the bulk `AugMap::from_sorted_distinct` (O(n) work,
//! parallel), then replay newer WAL epochs through the same
//! `multi_insert`/`multi_delete` path the committer uses; because logged
//! epochs are normalized (sorted, LWW-resolved), replay is idempotent and
//! may safely overlap the checkpoint's coverage, and a torn final record
//! — the signature of a crash mid-append — is truncated away by
//! [`pam_wal::Wal::open`] — but **cross-shard batches recover
//! atomically**. Every slice of a multi-shard `write_batch` is logged
//! with its global epoch stamp, and `open` first pre-scans all shards'
//! logs and runs a 2PC-style presence vote: a global epoch logged on
//! *every* participant commits; one logged on some-but-not-all (a crash
//! tore the tail mid-batch) is **discarded on every shard**. The store
//! therefore recovers to the maximum global epoch fully present on all
//! shards — a prefix-consistent cut of the epoch clock — and pins that
//! watermark (plus the discard list) in the `MANIFEST` before serving
//! traffic, so re-opens re-apply the same decisions even after other
//! shards' checkpoints truncate the evidence.

use crate::config::{DurabilityConfig, ShardedConfig, StoreConfig};
use crate::engine::VersionedStore;
use crate::op::NormalizedBatch;
use crate::pipeline::CommitHook;
use crate::shard::ShardKey;
use crate::stats::DurabilityStats;
use pam::{AugMap, AugSpec};
use pam_obs::{event, flight, Health, Histogram, Level};
use pam_wal::wal::WalObs;
use pam_wal::{checkpoint, manifest, record, Codec, DirLock, GlobalStamp, Wal, WalConfig};
use parking_lot::{Condvar, Mutex};
use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What [`crate::Store::open`] found on disk, per shard.
#[derive(Clone, Debug, Default)]
pub struct RecoveryInfo {
    /// WAL epoch the loaded checkpoint claimed (0: no checkpoint).
    pub checkpoint_epoch: u64,
    /// Entries bulk-loaded from the checkpoint.
    pub checkpoint_entries: u64,
    /// WAL epochs replayed on top of the checkpoint.
    pub replayed_epochs: u64,
    /// Highest durable WAL epoch after recovery.
    pub last_epoch: u64,
    /// WAL records skipped because their cross-shard batch was voted
    /// torn (logged on some-but-not-all participants).
    pub discarded_epochs: u64,
    /// Where the recovery wall time went, phase by phase.
    pub timings: RecoveryTimings,
}

/// Per-phase wall-time breakdown of one recovery (all fields zero for
/// phases that did not run).
#[derive(Clone, Copy, Debug, Default)]
pub struct RecoveryTimings {
    /// Read-only pre-scan of every shard's WAL for cross-shard batch
    /// stamps. Store-wide — the same value is stamped into every
    /// shard's entry.
    pub prescan: Duration,
    /// The 2PC presence vote deciding torn batches. Store-wide, like
    /// `prescan`.
    pub vote: Duration,
    /// Streaming the newest checkpoint into the map (bulk load).
    pub bulk_load: Duration,
    /// Scanning + frame-decoding the WAL segments ([`Wal::open`]).
    pub segment_scan: Duration,
    /// Decoding epoch bodies and applying them on top of the checkpoint.
    pub replay: Duration,
}

impl RecoveryTimings {
    /// Sum of all phases — the recovery's total accounted wall time.
    pub fn total(&self) -> Duration {
        self.prescan + self.vote + self.bulk_load + self.segment_scan + self.replay
    }
}

// ---------------------------------------------------------------------------
// The global commit tracker (2PC bookkeeping for the epoch clock)
// ---------------------------------------------------------------------------

/// How long a checkpoint will wait for in-flight cross-shard batches to
/// finish logging on their sibling shards before giving up. Decisions
/// normally land in microseconds (each sibling's committer appends one
/// record); the timeout only fires if a sibling is wedged or poisoned —
/// and a failed checkpoint is non-fatal (the WAL still has everything).
const DECISION_TIMEOUT: Duration = Duration::from_secs(10);

/// Checkpoint files each shard retains; older ones are pruned. The
/// second is insurance: a corrupt newest checkpoint falls back to the
/// previous one plus a longer WAL replay.
const KEEP_CHECKPOINTS: usize = 2;

/// Shared 2PC bookkeeping for a durable [`crate::Store`]'s global epoch clock.
///
/// * **Stamping** — the store mints global epochs through
///   [`GlobalTracker::stamp`], which records the batch as *outstanding*
///   until every participant shard's WAL hook reports its slice logged.
/// * **Watermark** — `watermark()` is the largest `W` such that every
///   global epoch `<= W` is *decided* (fully logged). It advances in
///   stamp order, which is what makes "`g <= W`" a sound persisted
///   predicate.
/// * **Persistence** — `persist()` rewrites the shared `MANIFEST` with
///   the current watermark (and the recovery-time discard list). Every
///   shard's checkpoint calls it **before** truncating WAL records, so a
///   record stamped `g` can only be reclaimed once the manifest pins
///   `g`'s decision — the invariant recovery's presence vote relies on:
///   for any `g` above the manifest watermark, every participant's
///   record is still in some WAL.
pub(crate) struct GlobalTracker {
    /// The store's root directory (where `MANIFEST` lives).
    dir: PathBuf,
    shards: u64,
    state: Mutex<TrackerState>,
    /// Serializes manifest rewrites *without* holding `state`: the
    /// commit path (stamp/logged) must never wait on a sibling shard's
    /// checkpoint fsyncing the manifest.
    persist_mutex: Mutex<()>,
}

struct TrackerState {
    /// Next global epoch to mint (watermark + 1 at open).
    next_stamp: u64,
    /// Stamped-but-not-fully-logged batches: global epoch → number of
    /// participant shards that have not logged their slice yet.
    outstanding: BTreeMap<u64, u32>,
    /// Recovery-time discard decisions (all `<=` the open-time
    /// watermark), persisted with every manifest rewrite.
    discarded: Vec<u64>,
    /// Watermark value last written to the manifest.
    persisted: u64,
}

/// The single definition of the watermark: the largest `W` such that
/// every global epoch `<= W` is decided (fully logged). Both checkpoint
/// gating ([`GlobalTracker::watermark`]) and manifest persistence
/// ([`GlobalTracker::persist`]) must agree on this.
fn watermark_of(s: &TrackerState) -> u64 {
    match s.outstanding.keys().next() {
        Some(&oldest_undecided) => oldest_undecided - 1,
        None => s.next_stamp - 1,
    }
}

impl GlobalTracker {
    fn new(dir: PathBuf, shards: u64, watermark: u64, discarded: Vec<u64>) -> Self {
        GlobalTracker {
            dir,
            shards,
            state: Mutex::new(TrackerState {
                next_stamp: watermark + 1,
                outstanding: BTreeMap::new(),
                discarded,
                persisted: watermark,
            }),
            persist_mutex: Mutex::new(()),
        }
    }

    /// Mint the next global epoch and record it as outstanding. The
    /// stamp and the outstanding entry are created atomically — a
    /// watermark read can never observe the stamp as "decided" before
    /// its slices are logged.
    pub(crate) fn stamp(&self, participants: u32) -> GlobalStamp {
        let mut s = self.state.lock();
        let epoch = s.next_stamp;
        crate::store::check_clock_epoch(epoch);
        s.next_stamp += 1;
        s.outstanding.insert(epoch, participants);
        GlobalStamp {
            epoch,
            participants,
        }
    }

    /// The most recently minted global epoch.
    pub(crate) fn last_stamped(&self) -> u64 {
        self.state.lock().next_stamp - 1
    }

    /// One participant's slice of batch `g` is durable in its WAL.
    fn logged(&self, g: u64) {
        let mut s = self.state.lock();
        if let Some(remaining) = s.outstanding.get_mut(&g) {
            *remaining -= 1;
            if *remaining == 0 {
                s.outstanding.remove(&g);
            }
        }
    }

    /// Largest `W` with every global epoch `<= W` fully logged.
    pub(crate) fn watermark(&self) -> u64 {
        watermark_of(&self.state.lock())
    }

    /// Rewrite the manifest with the current watermark (no-op when it
    /// has not advanced since the last persist). Called by every shard's
    /// checkpoint *before* WAL truncation.
    fn persist(&self) -> io::Result<()> {
        // Serialize writers on a dedicated mutex and read the state
        // under its own (briefly held) lock: the watermark is monotone
        // and each writer reads it *after* acquiring the persist mutex,
        // so the on-disk value stays monotone — while stamp()/logged()
        // on the commit path never wait behind a manifest fsync.
        let _serialize = self.persist_mutex.lock();
        let (w, discarded) = {
            let s = self.state.lock();
            let w = watermark_of(&s);
            if w == s.persisted {
                return Ok(());
            }
            (w, s.discarded.clone())
        };
        manifest::write(&self.dir, self.shards, w, &discarded)?;
        let mut s = self.state.lock();
        s.persisted = s.persisted.max(w);
        Ok(())
    }
}

/// Durability counters shared between the commit hook (writer side) and
/// `stats()` (reader side).
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

/// The [`CommitHook`] that gives a shard's engine its WAL.
pub(crate) struct WalHook {
    wal: Mutex<Wal>,
    /// Serializes checkpoints: a manual `checkpoint()` racing the
    /// background checkpointer must not interleave writes into the same
    /// temp file (or race the prune of stale checkpoints).
    ckpt_mutex: Mutex<()>,
    /// Logged epoch = `base` + pipeline epoch, keeping WAL epochs
    /// monotone across restarts (the pipeline restarts at 1 every open).
    base: u64,
    /// Highest WAL epoch whose version is published — the most a
    /// checkpoint may claim to contain.
    published: AtomicU64,
    /// The store's 2PC bookkeeping, shared by every shard.
    tracker: Arc<GlobalTracker>,
    /// Stamped slices this shard has logged whose batch is (possibly)
    /// still undecided: WAL epoch → global epoch. Pruned against the
    /// tracker watermark at checkpoint time; what remains gates how far
    /// a checkpoint may bake — an undecided batch must never be folded
    /// into a checkpoint, because recovery can only discard it at WAL
    /// record granularity.
    pending: Mutex<BTreeMap<u64, u64>>,
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
}

impl WalHook {
    /// Fold the engine's fail-stop verdict with the background
    /// checkpointer's: poisoned beats degraded beats healthy.
    pub(crate) fn health(&self, engine: Health) -> Health {
        let ckpt_error = self.last_ckpt_error.lock().clone();
        match ckpt_error {
            Some(e) => engine.worse(Health::Degraded(format!(
                "background checkpoint failing: {e}"
            ))),
            None => engine,
        }
    }

    /// Highest WAL epoch that is both durable and published.
    pub(crate) fn published(&self) -> u64 {
        self.published.load(Ordering::Acquire)
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
}

impl<S: AugSpec> CommitHook<S> for WalHook
where
    S::K: Codec,
    S::V: Codec,
{
    fn log_epoch(
        &self,
        epoch: u64,
        global: Option<GlobalStamp>,
        batch: &NormalizedBatch<S>,
    ) -> io::Result<()> {
        let mut body = Vec::with_capacity(16 * batch.len() + 16);
        record::encode_epoch_body(&batch.puts, &batch.deletes, &mut body);
        let wal_epoch = self.base + epoch;
        let synced = {
            let mut wal = self.wal.lock();
            let info = wal.append(wal_epoch, global, &body)?;
            // relaxed: monitoring counters; durability is carried by the
            // append + sync above, not by these
            self.counters.records.fetch_add(1, Ordering::Relaxed);
            self.counters.bytes.fetch_add(info.bytes, Ordering::Relaxed); // relaxed: see above
            let mut synced = info.synced;
            // A cross-shard slice is force-synced regardless of the
            // configured policy: `tracker.logged()` below advances the
            // 2PC watermark, whose meaning is "durable on all
            // participants" — under a relaxed policy (NoSync/SyncEveryN/
            // SyncEveryBytes) an unsynced slice could vanish in a power
            // cut *after* the watermark passed it, and recovery would
            // then trust a decision whose evidence is gone (a sibling
            // may already have baked its slice into a checkpoint).
            // Single-shard epochs keep the relaxed policy untouched.
            if global.is_some() && !synced {
                wal.sync()?;
                synced = true;
            }
            synced
        };
        if synced {
            // relaxed: monitoring counter only
            self.counters.fsyncs.fetch_add(1, Ordering::Relaxed);
        }
        if let Some(stamp) = global {
            // Record the slice as pending *before* reporting it logged:
            // a checkpoint that races us must either see the pending
            // entry or see the batch already decided.
            // lint: allow(lock-order) the wal guard above is scoped to
            // the `synced` block and already dropped here
            self.pending.lock().insert(wal_epoch, stamp.epoch);
            self.tracker.logged(stamp.epoch);
        }
        Ok(())
    }

    fn epoch_published(&self, epoch: u64, _version: u64) {
        self.published.store(self.base + epoch, Ordering::Release);
    }
}

/// Shutdown signal for the background checkpointer.
#[derive(Default)]
struct StopSignal {
    stop: Mutex<bool>,
    cv: Condvar,
}

/// One shard's durable part: the engine wired to its WAL hook, the
/// background checkpointer, and the shard directory's lock.
struct DurableShard<S: AugSpec> {
    engine: Arc<VersionedStore<S>>,
    hook: Arc<WalHook>,
    dir: PathBuf,
    stop: Arc<StopSignal>,
    checkpointer: Option<std::thread::JoinHandle<()>>,
    /// Declared last: released only after the engine above has drained
    /// its final epochs into the WAL.
    _lock: DirLock,
}

impl<S: AugSpec> DurableShard<S>
where
    S::K: Codec,
    S::V: Codec,
{
    /// Recover one shard from `dir` (`<root>/shard-<i>/`): load the
    /// newest valid checkpoint, replay newer WAL epochs — skipping the
    /// records of every batch in `discard`, the global epochs the
    /// cross-shard vote rejected — and start the engine with the WAL
    /// hook (reporting logged slices to `tracker`) and the background
    /// checkpointer. A torn final WAL record (crash mid-append) is
    /// tolerated and truncated.
    fn open(
        dir: PathBuf,
        config: StoreConfig,
        durability: DurabilityConfig,
        tracker: Arc<GlobalTracker>,
        discard: &BTreeSet<u64>,
    ) -> io::Result<(Self, RecoveryInfo)> {
        std::fs::create_dir_all(&dir)?;
        // one writer per directory: a second open (double-started
        // service) must fail fast, not interleave WAL frames
        let lock = DirLock::acquire(&dir)?;
        checkpoint::clean_temp_files(&dir)?;

        // 1. checkpoint: stream the newest valid snapshot into the map
        //    chunk by chunk — each chunk bulk-loads with the O(chunk)
        //    `from_sorted_distinct` and unions onto the accumulated map's
        //    right edge (chunks ascend globally), so peak memory is one
        //    chunk, never the whole checkpoint vector.
        let mut timings = RecoveryTimings::default();
        let phase_start = Instant::now();
        let loaded = checkpoint::load_latest_with::<S::K, S::V, AugMap<S>>(
            &dir,
            AugMap::new,
            |m, chunk| {
                let right = AugMap::from_sorted_distinct(&chunk);
                let left = std::mem::replace(m, AugMap::new());
                *m = left.union(right);
            },
        )?;
        let (ckpt_epoch, checkpoint_entries, mut map) = match loaded {
            Some((epoch, entries, map)) => (epoch, entries, map),
            None => (0, 0, AugMap::new()),
        };
        timings.bulk_load = phase_start.elapsed();

        // 2. WAL: replay epochs past the checkpoint through the same
        //    multi_insert/multi_delete path the committer uses
        let wal_config = WalConfig {
            segment_bytes: durability.segment_bytes,
            sync: durability.sync,
        };
        let phase_start = Instant::now();
        let (wal, records) = Wal::open(&dir, wal_config)?;
        timings.segment_scan = phase_start.elapsed();
        let mut replayed = 0u64;
        let mut last_epoch = ckpt_epoch.max(wal.last_epoch());
        // Gap detection: logged epochs increment by exactly 1 (within a
        // run and across restarts, via `base`), and WAL truncation only
        // ever removes a prefix — so the surviving records must be a
        // contiguous run starting at or before ckpt_epoch + 1. Anything
        // else means acked epochs are missing (e.g. the newest checkpoint
        // failed validation *after* its WAL coverage was truncated), and
        // silently serving that state would lose acknowledged writes.
        let mut prev_epoch: Option<u64> = None;
        for rec in &records {
            let expected_from = match prev_epoch {
                Some(p) => p + 1,
                None => {
                    if rec.epoch > ckpt_epoch + 1 {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!(
                                "WAL gap: checkpoint covers epochs <= {ckpt_epoch} but the \
                                 log resumes at {} — acked epochs are missing (a newer \
                                 checkpoint may have failed validation)",
                                rec.epoch
                            ),
                        ));
                    }
                    rec.epoch
                }
            };
            if rec.epoch != expected_from {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "WAL gap: epoch {} follows {} — the log is not contiguous",
                        rec.epoch,
                        expected_from - 1
                    ),
                ));
            }
            prev_epoch = Some(rec.epoch);
        }
        // Decode epoch bodies in parallel (CPU-bound varint parsing),
        // then apply them in epoch order — application must stay
        // sequential because later epochs overwrite earlier ones. Decode
        // in bounded windows so peak memory is the raw records plus one
        // window of decoded bodies, not a second full copy of the log.
        const DECODE_WINDOW: usize = 64;
        let phase_start = Instant::now();
        let mut discarded = 0u64;
        let to_replay: Vec<&pam_wal::EpochRecord> = records
            .iter()
            .filter(|r| r.epoch > ckpt_epoch) // inside the checkpoint already (idempotent anyway)
            .filter(|r| {
                // A slice of a torn cross-shard batch: the 2PC vote
                // discarded the whole batch, so this record's epoch
                // number survives (contiguity above already checked it)
                // but its operations must not be applied.
                let drop = r.global.is_some_and(|s| discard.contains(&s.epoch));
                discarded += u64::from(drop);
                !drop
            })
            .collect();
        for window in to_replay.chunks(DECODE_WINDOW) {
            let bodies = parlay::tabulate(window.len(), |i| {
                record::decode_epoch_body::<S::K, S::V>(&window[i].body)
            });
            for (rec, body) in window.iter().zip(bodies) {
                let body = body?;
                if !body.puts.is_empty() {
                    map.multi_insert(body.puts);
                }
                if !body.deletes.is_empty() {
                    map.multi_delete(body.deletes);
                }
                replayed += 1;
                last_epoch = last_epoch.max(rec.epoch);
            }
        }
        timings.replay = phase_start.elapsed();
        event!(
            Level::Info,
            "pam_store::recovery",
            "recovered {}: checkpoint epoch {ckpt_epoch} ({checkpoint_entries} entries, \
             {:?}), wal scan {:?}, replayed {replayed} epochs ({discarded} discarded) in {:?}",
            dir.display(),
            timings.bulk_load,
            timings.segment_scan,
            timings.replay
        );

        // 3. hand the recovered map to a fresh engine with the WAL hook
        let wal_obs = wal.obs();
        let hook = Arc::new(WalHook {
            wal: Mutex::new(wal),
            ckpt_mutex: Mutex::new(()),
            base: last_epoch,
            published: AtomicU64::new(last_epoch),
            tracker,
            pending: Mutex::new(BTreeMap::new()),
            counters: DurCounters::default(),
            wal_obs,
            last_ckpt_at: Mutex::new(None),
            last_ckpt_error: Mutex::new(None),
        });
        let engine = Arc::new(VersionedStore::with_commit_hook(
            map,
            config,
            hook.clone() as Arc<dyn CommitHook<S>>,
        ));

        // 4. background checkpointer, if configured
        let stop = Arc::new(StopSignal::default());
        let checkpointer = match durability.checkpoint_every_bytes {
            Some(every) => {
                let (engine2, hook2, stop2, dir2) =
                    (engine.clone(), hook.clone(), stop.clone(), dir.clone());
                Some(
                    std::thread::Builder::new()
                        .name("pam-store-checkpointer".into())
                        .spawn(move || run_checkpointer(&engine2, &hook2, &stop2, &dir2, every))?,
                )
            }
            None => None,
        };

        let recovery = RecoveryInfo {
            checkpoint_epoch: ckpt_epoch,
            checkpoint_entries,
            replayed_epochs: replayed,
            last_epoch,
            discarded_epochs: discarded,
            timings,
        };
        let shard = DurableShard {
            engine,
            hook,
            dir,
            stop,
            checkpointer,
            _lock: lock,
        };
        Ok((shard, recovery))
    }
}

impl<S: AugSpec> Drop for DurableShard<S> {
    fn drop(&mut self) {
        *self.stop.stop.lock() = true;
        self.stop.cv.notify_all();
        if let Some(h) = self.checkpointer.take() {
            let _ = h.join();
        }
        // `self.engine` drops after this, draining (and logging) every
        // buffered write; the WAL's own Drop then flushes the tail.
    }
}

/// Shared by `checkpoint()` and the background thread.
fn do_checkpoint<S: AugSpec>(
    engine: &VersionedStore<S>,
    hook: &WalHook,
    dir: &Path,
) -> io::Result<u64>
where
    S::K: Codec,
    S::V: Codec,
{
    // One checkpoint at a time: a manual call racing the background
    // thread must not interleave into the same temp file.
    let _serialize = hook.ckpt_mutex.lock();
    // Read the published epoch *before* pinning: every epoch <= `epoch`
    // is then guaranteed inside the pin (versions publish in epoch
    // order). The pin may contain later epochs too — harmless, replay is
    // idempotent.
    let ckpt_start = Instant::now();
    let epoch = hook.published();
    let pin = engine.pin();
    let pin_start = Instant::now();
    // Epoch-clock gating. The pin may contain slices of cross-shard
    // batches not yet logged by every sibling shard. Baking such a
    // slice into the checkpoint would make it un-discardable if the
    // batch later loses the recovery vote, so wait (decisions land
    // as fast as the siblings' committers append — microseconds)
    // until the watermark passes every stamp that can be in the pin.
    // Every such stamp is in `pending` right now: slices log before
    // they publish, and pruning only removes already-decided ones.
    let gate = hook.pending.lock().values().copied().max();
    if let Some(newest_stamp) = gate {
        let deadline = Instant::now() + DECISION_TIMEOUT;
        while hook.tracker.watermark() < newest_stamp {
            if Instant::now() > deadline {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "checkpoint blocked: a cross-shard batch is still awaiting \
                     its sibling shards' WAL appends (is a sibling wedged?)",
                ));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let w = hook.tracker.watermark();
        hook.pending.lock().retain(|_, g| *g > w);
    }
    let map = pin.map();
    let ckpt_bytes = checkpoint::write(
        dir,
        epoch,
        map.len() as u64,
        |emit| map.for_each(|k, v| emit(k, v)),
        KEEP_CHECKPOINTS,
    )?;
    drop(pin); // the snapshot is on disk; release the version
    hook.counters
        .ckpt_pin_nanos
        .record_duration(pin_start.elapsed());
    // Pin the clock in the manifest *before* truncation may reclaim
    // stamped records: recovery's presence vote only runs for stamps
    // above the manifest watermark, so a record may vanish from the
    // log only once its batch's decision is persisted.
    hook.tracker.persist()?;
    hook.wal.lock().truncate_through(epoch)?;
    // relaxed: checkpoint bookkeeping counters — the checkpointer is the
    // only writer (ckpt_mutex) and readers tolerate sampling skew; the
    // last_ckpt_epoch/bytes_at_last_ckpt pair only throttles the *next*
    // checkpoint, where an off-by-one read is harmless
    hook.counters.checkpoints.fetch_add(1, Ordering::Relaxed);
    hook.counters
        .ckpt_bytes
        // relaxed: see above
        .fetch_add(ckpt_bytes, Ordering::Relaxed);
    hook.counters
        .last_ckpt_epoch
        // relaxed: see above
        .store(epoch, Ordering::Relaxed);
    // relaxed: see above
    hook.counters.bytes_at_last_ckpt.store(
        hook.counters.bytes.load(Ordering::Relaxed), // relaxed: see above
        Ordering::Relaxed,                           // relaxed: see above
    );
    *hook.last_ckpt_at.lock() = Some(Instant::now());
    let took = ckpt_start.elapsed();
    hook.counters.ckpt_nanos.record_duration(took);
    event!(
        Level::Info,
        "pam_store::checkpoint",
        "checkpoint at epoch {epoch}: {ckpt_bytes} bytes in {took:?}"
    );
    Ok(epoch)
}

fn run_checkpointer<S: AugSpec>(
    engine: &VersionedStore<S>,
    hook: &WalHook,
    stop: &StopSignal,
    dir: &Path,
    every_bytes: u64,
) where
    S::K: Codec,
    S::V: Codec,
{
    let poll = Duration::from_millis(50);
    let mut g = stop.stop.lock();
    loop {
        if *g {
            return;
        }
        let _ = stop.cv.wait_timeout(&mut g, poll);
        if *g {
            return;
        }

        let published = hook.published();
        // relaxed: freshness heuristics — a stale counter read at worst
        // delays or repeats one checkpoint poll (all loads below alike)
        if published == hook.counters.last_ckpt_epoch.load(Ordering::Relaxed) {
            continue; // nothing new to checkpoint
        }
        // relaxed: see above
        let bytes_due = hook.counters.bytes.load(Ordering::Relaxed)
            - hook.counters.bytes_at_last_ckpt.load(Ordering::Relaxed) // relaxed: see above
            >= every_bytes;
        if !bytes_due {
            continue;
        }
        drop(g);
        match do_checkpoint(engine, hook, dir) {
            Ok(_) => {
                *hook.last_ckpt_error.lock() = None;
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
                *hook.last_ckpt_error.lock() = Some(e.to_string());
            }
        }
        // lint: allow(lock-order) re-arming the poll loop: every
        // checkpoint-side guard is dropped, nothing is held here
        g = stop.stop.lock();
    }
}

// ---------------------------------------------------------------------------
// The store-wide part: manifest, vote, tracker
// ---------------------------------------------------------------------------

/// What a directory without a `MANIFEST` holds that only a store could
/// have written, if anything: `shard-<i>` subdirectories (the manifest
/// was lost), or top-level `wal-*.seg` / `ckpt-*.ckpt` files (the retired
/// single-directory layout). Either way there is acknowledged data here
/// and no manifest saying how it is laid out.
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
        let bare_wal = name.starts_with("wal-") && name.ends_with(".seg");
        let bare_ckpt = name.starts_with("ckpt-") && name.ends_with(".ckpt");
        if !is_dir && (bare_wal || bare_ckpt) {
            return Ok(Some(
                "WAL segments or checkpoints at its top level (the retired \
                 single-directory layout, which this version cannot open)",
            ));
        }
    }
    Ok(None)
}

/// The optional durability part of a [`crate::Store`]: every shard's
/// [`DurableShard`], the shared 2PC tracker, and the root directory's
/// manifest and lock.
pub(crate) struct Durability<S: AugSpec> {
    shards: Vec<DurableShard<S>>,
    pub(crate) tracker: Arc<GlobalTracker>,
    /// What recovery found, shard order.
    pub(crate) recovery: Vec<RecoveryInfo>,
    pub(crate) dir: PathBuf,
    /// The root directory receives the flight dump for the whole store
    /// (one black box, not one per shard); stays registered through the
    /// shards' drain.
    _dump_dir: flight::DumpDirGuard,
    /// Declared last: the directory stays locked until every shard has
    /// shut down.
    _lock: DirLock,
}

impl<S: AugSpec> Durability<S>
where
    S::K: Codec + ShardKey,
    S::V: Codec,
{
    /// Open (or create) the store directory `dir`: verify the manifest,
    /// vote on cross-shard batches, then recover every shard in
    /// parallel. See [`crate::Store::open`] for the contract and the errors.
    pub(crate) fn open(
        dir: &Path,
        config: &ShardedConfig,
        durability: &DurabilityConfig,
    ) -> io::Result<Self> {
        let dir = dir.to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let lock = DirLock::acquire(&dir)?;
        manifest::clean_temp_file(&dir)?;
        let want = config.shards.max(1) as u64;
        let existing = manifest::load(&dir)?;
        match &existing {
            Some(m) if m.shards == want => {}
            Some(m) => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!(
                        "shard-count mismatch: {} holds {} shards, open asked for {want} \
                         (the hash routing is pinned at creation — resharding needs a \
                         rewrite, not a reopen)",
                        dir.display(),
                        m.shards
                    ),
                ));
            }
            // any surviving shard-<i> subdir (not just shard-0 — partial
            // restores can lose arbitrary shards along with the manifest)
            // or bare-layout file means there is data we would be
            // guessing the layout of — or silently shadowing with an
            // empty store
            None => {
                if let Some(found) = unmanifested_data(&dir)? {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!(
                            "{} has {found} — refusing to guess the layout",
                            dir.display()
                        ),
                    ));
                }
            }
        }
        let (prev_watermark, prev_discarded) = existing
            .map(|m| (m.global_epoch, m.discarded))
            .unwrap_or((0, Vec::new()));

        // Phase 1 — the vote. Pre-scan every shard's log (read-only, in
        // parallel) for cross-shard batch stamps, then decide each
        // global epoch above the persisted watermark: present on every
        // participant → commit; missing anywhere (a crash tore the tail
        // mid-batch) → discard on all shards. Epochs at or below the
        // watermark keep their persisted decision — their records may
        // already have been truncated elsewhere, so re-counting them
        // would be unsound. (Known cost: the pre-scan decodes the WALs
        // once and phase 2's `Wal::open` decodes them again — threading
        // the scan results through would halve open-time I/O; see
        // ROADMAP.)
        let phase_start = Instant::now();
        let scans = parlay::tabulate(want as usize, |i| {
            pam_wal::wal::scan_global_stamps(manifest::shard_dir(&dir, i))
        })
        .into_iter()
        .collect::<io::Result<Vec<Vec<GlobalStamp>>>>()?;
        let prescan_took = phase_start.elapsed();
        let phase_start = Instant::now();
        let mut seen: BTreeMap<u64, (u32, u32)> = BTreeMap::new(); // g → (participants, present)
        for per_shard in &scans {
            let mut uniq = BTreeSet::new();
            for stamp in per_shard {
                if uniq.insert(stamp.epoch) {
                    let entry = seen.entry(stamp.epoch).or_insert((stamp.participants, 0));
                    entry.1 += 1;
                }
            }
        }
        let mut discard: BTreeSet<u64> = prev_discarded.into_iter().collect();
        let mut watermark = prev_watermark;
        for (&g, &(participants, present)) in &seen {
            watermark = watermark.max(g);
            if g > prev_watermark && present < participants {
                discard.insert(g);
            }
        }
        // Forget discards no shard's log still mentions: once the last
        // record of a torn batch is truncated away, nothing can resurface
        // it (the clock never re-mints an old epoch).
        discard.retain(|g| seen.contains_key(g));
        let discard_list: Vec<u64> = discard.iter().copied().collect();
        // Pin the decisions before any shard opens for traffic: every
        // global epoch <= watermark now has a persisted verdict.
        manifest::write(&dir, want, watermark, &discard_list)?;
        let vote_took = phase_start.elapsed();
        event!(
            Level::Info,
            "pam_store::recovery",
            "vote over {want} shards: watermark {watermark}, {} discarded \
             (pre-scan {prescan_took:?}, vote {vote_took:?})",
            discard.len()
        );
        let tracker = Arc::new(GlobalTracker::new(
            dir.clone(),
            want,
            watermark,
            discard_list,
        ));

        // Phase 2 — recover every shard concurrently: each open is an
        // independent checkpoint bulk-load + WAL replay in its own
        // `shard-<i>/` directory (its own DirLock), so shard recovery
        // time is the max over shards instead of the sum. Replay skips
        // the discarded batches. The parallel driver keeps the results
        // in shard order; the first error wins (already-opened shards
        // shut down cleanly when dropped).
        let (shards, mut recovery): (Vec<_>, Vec<_>) = parlay::tabulate(want as usize, |i| {
            DurableShard::<S>::open(
                manifest::shard_dir(&dir, i),
                config.store.clone(),
                durability.clone(),
                tracker.clone(),
                &discard,
            )
        })
        .into_iter()
        .collect::<io::Result<Vec<_>>>()?
        .into_iter()
        .unzip();
        // The pre-scan and vote are store-wide phases; stamp the same
        // wall times into every shard's entry (documented on
        // `RecoveryTimings`).
        for info in &mut recovery {
            info.timings.prescan = prescan_took;
            info.timings.vote = vote_took;
        }

        Ok(Durability {
            shards,
            tracker,
            recovery,
            _dump_dir: flight::register_dump_dir(&dir),
            dir,
            _lock: lock,
        })
    }

    /// Checkpoint every shard; see [`crate::Store::checkpoint`].
    pub(crate) fn checkpoint(&self) -> io::Result<Vec<u64>> {
        self.shards
            .iter()
            .map(|s| do_checkpoint(&s.engine, &s.hook, &s.dir))
            .collect()
    }
}

impl<S: AugSpec> Durability<S> {
    /// Every shard's engine and WAL hook, shard order.
    pub(crate) fn parts(
        &self,
    ) -> impl Iterator<Item = (Arc<VersionedStore<S>>, Arc<WalHook>)> + '_ {
        self.shards
            .iter()
            .map(|s| (s.engine.clone(), s.hook.clone()))
    }
}
