//! [`Store`]: one map behind one group-commit pipeline × an optional
//! durability part.
//!
//! PAM's concurrency model (§4 of the paper) is "swap in a new root":
//! readers take O(1) persistent snapshots while one writer applies bulk
//! updates that are parallel inside. `Store` is exactly that shape: one
//! `AugMap` behind one group-commit pipeline, one commit at a time and
//! one head. A version is one root, so publishing is one swap and a
//! snapshot of the whole store is one pin.
//!
//! * writes — `put`, `delete` and `write_batch` alike — join the one
//!   open epoch. Whoever commits it — the store's committer thread, or a
//!   lone writer waiting on its ticket — normalizes the epoch once, logs
//!   it as one record (when durable) and applies its puts and deletes
//!   in one `multi_update`, one walk of the tree whose work forks inside
//!   it;
//! * point reads are one tree walk; [`Store::get_many`] probes its keys
//!   in sorted order, so successive lookups share their upper path;
//! * ordered scans ([`Store::range_for_each`]) are one streaming walk of
//!   the range;
//! * augmented queries are the tree's own: `aug_range` is O(log n) and
//!   `aug_val` O(1), for any associative `combine` — commutative or not.
//!
//! A *volatile* store ([`Store::volatile`]) is the same struct without
//! the durability part ([`Store::open`] adds a WAL, a checkpointer and
//! crash recovery — see the [`crate::durable`] module docs).
//!
//! ## The consistency contract
//!
//! * **One pin per read.** Every read — `get`, `get_many`, `len`, scans,
//!   aug queries, [`Store::snapshot`] — pins the head once (an `Arc`
//!   clone under the registry mutex, shared with `publish`) and then
//!   reads that version without a lock. A version holds every epoch up
//!   to its id and none after, so every read sees each batch wholly or
//!   not at all, and sees every write acknowledged before it started.
//! * **ack-vs-durable** — a write ticket resolves when its epoch is
//!   *published* (readable by everyone). On a durable store the
//!   commit appends the epoch to the WAL **before** publish, so an
//!   acked write is as durable as the configured [`crate::SyncPolicy`]
//!   promises (invariant I1); on a volatile store an ack promises
//!   visibility only.
//! * **One version sequence.** A ticket's version, a snapshot's version
//!   and the epoch a batch commits in are one number, store-wide: two
//!   acks can be ordered by their versions.

use crate::config::{DurabilityConfig, ShardedConfig};
use crate::durable::{self, RecoveryInfo, WalPart};
use crate::pipeline::{self, CommitTicket, Pipeline};
use crate::registry::{Registry, VersionEntry, VersionId};
use crate::stats::{StatsInner, StoreStats};
use crate::WriteOp;
use pam::{AugMap, AugSpec};
use pam_obs::{flight, Health, ObsServer, TelemetrySource};
use pam_wal::{Codec, DirLock};
use std::io;
use std::ops::ControlFlow;
use std::path::Path;
use std::sync::Arc;
use std::thread::JoinHandle;

/// What a store shares with its committer and checkpointer threads and
/// its tickets (a waiting writer may commit its own epoch): the one
/// head, the pipeline feeding it, the commit counters and — when
/// durable — the log.
pub(crate) struct Core<S: AugSpec> {
    pub(crate) registry: Registry<S>,
    pub(crate) pipeline: Pipeline<S>,
    pub(crate) stats: StatsInner,
    pub(crate) wal: Option<WalPart>,
}

impl<S: AugSpec> Core<S> {
    /// The commit/batch/version counters with the WAL's overlaid when
    /// durable: what [`Store::stats`] returns and `/metrics` exports.
    fn stats(&self) -> StoreStats {
        let (head, live, retired) = self.registry.counts();
        let mut stats = StoreStats::from_inner(&self.stats, live, retired, head);
        if let Some(wal) = &self.wal {
            stats.durability = wal.durability_stats();
        }
        stats
    }

    /// What [`Store::health`] returns and `/health` serves.
    fn health(&self) -> Health {
        let pipeline = match self.pipeline.poison_reason() {
            Some(reason) => Health::Poisoned(reason),
            None => Health::Healthy,
        };
        match &self.wal {
            Some(wal) => wal.health(pipeline),
            None => pipeline,
        }
    }
}

/// A key-value store over a parallel augmented map: one map behind one
/// group-commit pipeline and one head — and, when opened on a directory,
/// one WAL and one checkpointer.
///
/// Writes batch, normalize, log and apply one epoch at a time — on the
/// committer thread, or on a lone writer's own — as bulk operations
/// that are parallel inside; reads pin O(1) persistent
/// snapshots and never block (see the module docs for the consistency
/// contract). The store is `Send + Sync`; wrap it in an [`Arc`] to share
/// it across threads. Dropping it drains outstanding writes, joins the
/// committer and the checkpointer, and (when durable) closes the log and
/// releases the directory lock.
///
/// ```
/// use pam_store::{ShardedConfig, Store};
/// use pam::SumAug;
///
/// let store: Store<SumAug<u64, u64>> =
///     Store::volatile(ShardedConfig::builder().shards(4).build());
/// store.put_all((0..1000u64).map(|k| (k, 1))).wait();
/// assert_eq!(store.get(&17), Some(1));
/// assert_eq!(store.aug_range(&0, &999), 1000); // one O(log n) query
///
/// let snap = store.snapshot(); // one pin of the one root
/// store.delete(17).wait();
/// assert_eq!(snap.get(&17), Some(1));
/// assert_eq!(store.get(&17), None);
/// ```
///
/// The same store with a disk underneath it:
///
/// ```
/// use pam::SumAug;
/// use pam_store::{DurabilityConfig, ShardedConfig, Store};
///
/// let dir = std::env::temp_dir().join(format!("pam-doc-{}", std::process::id()));
/// let open = || -> Store<SumAug<u64, u64>> {
///     Store::open(&dir, ShardedConfig::default(), DurabilityConfig::default()).unwrap()
/// };
///
/// let store = open();
/// store.put(1, 10).wait(); // on disk when wait() returns
/// drop(store); // releases the directory lock
///
/// let store = open();
/// assert_eq!(store.get(&1), Some(10)); // recovered
/// # drop(store);
/// # std::fs::remove_dir_all(&dir).unwrap();
/// ```
pub struct Store<S: AugSpec> {
    /// `Drop` takes and stops these three in this order: the telemetry
    /// server (its sources hold `core` handles), the checkpointer, then
    /// the committer, which drains every buffered write into the log.
    obs: Option<ObsServer>,
    checkpointer: Option<JoinHandle<()>>,
    committer: Option<JoinHandle<()>>,
    /// The last handle once both threads are joined and no ticket is
    /// left: dropping it closes the log.
    core: Arc<Core<S>>,
    /// Files per checkpoint ([`ShardedConfig::shards`], at least 1).
    shards: usize,
    /// What recovery found, one entry per checkpoint file (empty for a
    /// volatile store).
    recovery: Vec<RecoveryInfo>,
    /// Keeps the directory the flight dump's destination through the
    /// committer's drain.
    _dump_dir: Option<flight::DumpDirGuard>,
    /// Declared last: the directory stays locked until the log is closed.
    _lock: Option<DirLock>,
}

impl<S: AugSpec> Store<S>
where
    S::K: Codec,
    S::V: Codec,
{
    /// An empty **volatile** store: the same pipeline and read paths as
    /// [`Self::open`], with no disk underneath — an ack promises
    /// visibility only, and everything is gone on drop.
    pub fn volatile(config: ShardedConfig) -> Self {
        Self::start(AugMap::new(), 0, &config, None)
    }

    /// Open (or create) a durable store in `dir`: verify the manifest,
    /// bulk-load the N key-range files of the newest complete checkpoint
    /// **in parallel** and union them, then replay the one log once from
    /// that checkpoint on — a torn final record tolerated and truncated.
    ///
    /// With [`DurabilityConfig::obs_addr`] set, one telemetry endpoint
    /// serves the whole store ([`Self::obs_addr`]).
    ///
    /// # Errors
    ///
    /// * `InvalidInput` — the manifest pins a different count of files
    ///   per checkpoint;
    /// * `InvalidData` — data but no manifest: checkpoint directories or
    ///   log segments whose manifest was lost, or the retired
    ///   single-directory layout — creating a fresh store would shadow
    ///   acknowledged data; a directory of an earlier format (a manifest
    ///   of format 1, 2 or 3, a log segment of version 1 or 2), which is
    ///   left untouched; also corruption outside a tolerated torn tail,
    ///   or a WAL gap;
    /// * `WouldBlock` — another live process holds the directory lock;
    /// * other kinds pass through from the filesystem or the
    ///   `obs_addr` bind.
    pub fn open(
        dir: impl AsRef<Path>,
        config: ShardedConfig,
        durability: DurabilityConfig,
    ) -> io::Result<Self> {
        let dir = dir.as_ref();
        let durable::Recovered {
            lock,
            map,
            version,
            recovery,
            wal,
        } = durable::recover::<S>(dir, config.shards.max(1), &durability)?;
        let mut store = Self::start(map, version, &config, Some(wal));
        store.recovery = recovery;
        store._dump_dir = Some(flight::register_dump_dir(dir));
        store._lock = Some(lock);
        if let Some(every) = durability.checkpoint_every_bytes {
            let core = store.core.clone();
            store.checkpointer = Some(
                std::thread::Builder::new()
                    .name("pam-store-checkpointer".into())
                    .spawn(move || {
                        if let Some(wal) = &core.wal {
                            wal.run_checkpointer(&core.registry, every);
                        }
                    })?,
            );
        }
        if let Some(addr) = &durability.obs_addr {
            let (metrics, health) = (store.core.clone(), store.core.clone());
            let source = TelemetrySource {
                export: Box::new(move |reg| metrics.stats().export_into(reg)),
                health: Box::new(move || health.health()),
            };
            let server = ObsServer::bind(addr.as_str(), source)
                .map_err(|e| io::Error::new(e.kind(), format!("binding obs_addr {addr}: {e}")))?;
            store.obs = Some(server);
        }
        Ok(store)
    }

    /// A store whose version `version` is `map`, with its committer
    /// running — appending to `wal` first when durable.
    fn start(
        map: AugMap<S>,
        version: VersionId,
        config: &ShardedConfig,
        wal: Option<WalPart>,
    ) -> Self {
        let core = Arc::new(Core {
            pipeline: Pipeline::new(config, version),
            registry: Registry::new(version, map),
            stats: StatsInner::default(),
            wal,
        });
        let worker = core.clone();
        let committer = std::thread::Builder::new()
            .name("pam-store-committer".into())
            .spawn(move || pipeline::run_committer(&worker))
            // lint: allow(panic) construction-time failure with no
            // caller to report to: a store without its committer thread
            // cannot exist, and spawn only fails on resource exhaustion
            .expect("spawn committer thread");
        Store {
            obs: None,
            checkpointer: None,
            committer: Some(committer),
            core,
            shards: config.shards.max(1),
            recovery: Vec::new(),
            _dump_dir: None,
            _lock: None,
        }
    }

    /// Checkpoint now: pin the head at store epoch `E`, stream the map's
    /// N key ranges to `shard-<i>/ckpt-<E>.ckpt` while writers keep
    /// committing, then truncate the WAL segments the checkpoint covers.
    /// Returns `E`.
    ///
    /// # Errors
    ///
    /// `Unsupported` on a volatile store. Otherwise filesystem errors
    /// pass through, naming the `shard-<i>` file that failed. A failed
    /// checkpoint is never fatal: the WAL still holds everything, and
    /// recovery ignores the files it did write.
    pub fn checkpoint(&self) -> io::Result<u64> {
        match &self.core.wal {
            Some(wal) => wal.checkpoint(&self.core.registry),
            None => Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "a volatile store has nothing to checkpoint",
            )),
        }
    }

    /// Number of key-range files a checkpoint is cut into (for a
    /// durable store: as pinned by the manifest).
    pub fn num_shards(&self) -> usize {
        self.shards
    }

    // -- writes -----------------------------------------------------------

    /// Insert or overwrite `key`. The ticket resolves when its epoch is
    /// published — and, on a durable store, logged first
    /// (**ack-vs-durable**, invariant I1).
    pub fn put(&self, key: S::K, value: S::V) -> CommitTicket<S> {
        self.write_batch([WriteOp::Put(key, value)])
    }

    /// Remove `key` (a no-op if absent — still acked).
    pub fn delete(&self, key: S::K) -> CommitTicket<S> {
        self.write_batch([WriteOp::Delete(key)])
    }

    /// Enqueue several operations as one **atomic batch**: they share an
    /// epoch, so every reader sees all of them or none, and (when
    /// durable) they are one WAL record — whole after a crash or absent.
    /// The batch may share its epoch with concurrent writers (group
    /// commit).
    pub fn write_batch(&self, ops: impl IntoIterator<Item = WriteOp<S>>) -> CommitTicket<S> {
        CommitTicket::new(self.core.pipeline.submit_all(ops), self.core.clone())
    }

    /// Upsert many pairs atomically (convenience over
    /// [`Self::write_batch`]).
    pub fn put_all(&self, pairs: impl IntoIterator<Item = (S::K, S::V)>) -> CommitTicket<S> {
        self.write_batch(pairs.into_iter().map(|(k, v)| WriteOp::Put(k, v)))
    }

    /// Block until every previously enqueued operation (from any handle)
    /// is committed and published; returns the id of the last published
    /// version.
    ///
    /// # Panics
    ///
    /// If the store was poisoned by a failed WAL append.
    pub fn flush(&self) -> VersionId {
        self.core.pipeline.flush()
    }

    // -- reads ------------------------------------------------------------
    //
    // Every read pins the head once: one version of the one map.

    /// The value at `key` in the current version.
    pub fn get(&self, key: &S::K) -> Option<S::V> {
        self.snapshot().get(key)
    }

    /// The values at several keys, all from one version, in input order
    /// (see [`Snapshot::get_many`]).
    pub fn get_many(&self, keys: &[S::K]) -> Vec<Option<S::V>> {
        self.snapshot().get_many(keys)
    }

    /// All entries with keys in `[lo, hi]`, in key order. Prefer
    /// [`Self::range_for_each`] for large ranges.
    pub fn range(&self, lo: &S::K, hi: &S::K) -> Vec<(S::K, S::V)> {
        self.snapshot().range(lo, hi)
    }

    /// Stream the entries with keys in `[lo, hi]` of the current version
    /// to `f` in key order (see [`Snapshot::range_for_each`]).
    pub fn range_for_each(&self, lo: &S::K, hi: &S::K, f: impl FnMut(&S::K, &S::V)) {
        self.snapshot().range_for_each(lo, hi, f);
    }

    /// [`Self::range_for_each`] with early exit: the scan stops — and
    /// stops *walking* — as soon as `f` returns [`ControlFlow::Break`].
    pub fn range_try_for_each(
        &self,
        lo: &S::K,
        hi: &S::K,
        f: impl FnMut(&S::K, &S::V) -> ControlFlow<()>,
    ) {
        self.snapshot().range_try_for_each(lo, hi, f);
    }

    /// Augmented value over keys in `[lo, hi]`, O(log n) — e.g. a range
    /// *sum* under `SumAug`.
    pub fn aug_range(&self, lo: &S::K, hi: &S::K) -> S::A {
        self.snapshot().aug_range(lo, hi)
    }

    /// Augmented value of the whole store, O(1).
    pub fn aug_val(&self) -> S::A {
        self.snapshot().aug_val()
    }

    /// Total entries in the current version.
    pub fn len(&self) -> usize {
        self.snapshot().len()
    }

    /// Is the current version empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Pin the current version: one O(1) pin of the head, which contains
    /// every write acknowledged before the call and every batch wholly or
    /// not at all.
    pub fn snapshot(&self) -> Snapshot<S> {
        self.core.registry.pin_head()
    }

    // -- observability -----------------------------------------------------

    /// Store-wide statistics: the commit/batch/version counters, with the
    /// WAL and checkpoint counters when durable (zeros otherwise).
    pub fn stats(&self) -> StoreStats {
        self.core.stats()
    }

    /// The store's health: `Poisoned` with the original error after a
    /// WAL-append fail-stop beats `Degraded` while the background
    /// checkpointer keeps failing (the reason names the failing file),
    /// which beats `Healthy`.
    pub fn health(&self) -> Health {
        self.core.health()
    }

    /// Exact heap bytes reachable from the current version. What an
    /// older snapshot costs on top is only the nodes it does not share
    /// with this one.
    pub fn memory_bytes(&self) -> usize {
        pam::stats::reachable_bytes(&[self.snapshot().map().root()])
    }

    // -- the durability part -------------------------------------------------

    /// What recovery found per checkpoint file when this store was opened
    /// (empty for a volatile store).
    pub fn recovery(&self) -> &[RecoveryInfo] {
        &self.recovery
    }

    /// The directory holding the manifest, the log and the checkpoint
    /// directories (`None` for a volatile store).
    pub fn dir(&self) -> Option<&Path> {
        self.core.wal.as_ref().map(|wal| wal.dir.as_path())
    }

    /// The live telemetry endpoint's bound address, when
    /// [`DurabilityConfig::obs_addr`] was configured (resolves port 0).
    pub fn obs_addr(&self) -> Option<std::net::SocketAddr> {
        self.obs.as_ref().map(|o| o.local_addr())
    }
}

impl<S: AugSpec> Drop for Store<S> {
    fn drop(&mut self) {
        // Stop in dependency order (see the field docs); the fields then
        // drop in declaration order: the core, closing the log, the
        // flight-dump registration and, last, the directory lock.
        drop(self.obs.take());
        if let Some(wal) = &self.core.wal {
            wal.stop_checkpointer();
        }
        if let Some(h) = self.checkpointer.take() {
            let _ = h.join();
        }
        self.core.pipeline.begin_shutdown();
        if let Some(h) = self.committer.take() {
            let _ = h.join();
        }
        // A ticket still held keeps the core, and with it the log, open:
        // sync the drained epochs now, before the directory lock goes.
        if let Some(wal) = &self.core.wal {
            wal.sync();
        }
    }
}

impl<S: AugSpec> std::fmt::Debug for Store<S>
where
    S::K: Codec,
    S::V: Codec,
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Store(len {}", self.len())?;
        match self.dir() {
            Some(dir) => write!(f, ", {})", dir.display()),
            None => write!(f, ", volatile)"),
        }
    }
}

// ---------------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------------

/// A frozen, immutable view of a store: one pinned version (see
/// [`Store::snapshot`]). Reads never block, never change, and never
/// observe later writes. Holding the snapshot keeps its version alive;
/// it dies with its last holder. Cloning is O(1).
pub struct Snapshot<S: AugSpec> {
    pub(crate) entry: Arc<VersionEntry<S>>,
}

impl<S: AugSpec> Snapshot<S> {
    /// The pinned version's id: the epoch of the last write it contains.
    pub fn version(&self) -> VersionId {
        self.entry.id
    }

    /// The store's map in this version.
    pub fn map(&self) -> &AugMap<S> {
        &self.entry.map
    }

    /// The value at `key` in this frozen view.
    pub fn get(&self, key: &S::K) -> Option<S::V> {
        self.map().get(key).cloned()
    }

    /// The values at several keys, results in input order — all from
    /// this one frozen view, so they are mutually consistent. The probes
    /// run in sorted key order, so successive lookups share their upper
    /// tree path in cache.
    pub fn get_many(&self, keys: &[S::K]) -> Vec<Option<S::V>> {
        let mut order: Vec<usize> = (0..keys.len()).collect();
        order.sort_by(|&a, &b| S::compare(&keys[a], &keys[b]));
        let mut out = vec![None; keys.len()];
        for i in order {
            out[i] = self.get(&keys[i]);
        }
        out
    }

    /// Total entries in the snapshot.
    pub fn len(&self) -> usize {
        self.map().len()
    }

    /// Is the snapshot empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All entries with keys in `[lo, hi]`, in key order.
    pub fn range(&self, lo: &S::K, hi: &S::K) -> Vec<(S::K, S::V)> {
        let mut out = Vec::new();
        self.range_for_each(lo, hi, |k, v| out.push((k.clone(), v.clone())));
        out
    }

    /// Stream the entries with keys in `[lo, hi]` to `f` in key order
    /// without materializing them.
    pub fn range_for_each(&self, lo: &S::K, hi: &S::K, mut f: impl FnMut(&S::K, &S::V)) {
        self.range_try_for_each(lo, hi, |k, v| {
            f(k, v);
            ControlFlow::Continue(())
        });
    }

    /// [`Self::range_for_each`] with early exit: when `f` returns
    /// [`ControlFlow::Break`] the walk stops without reading another
    /// entry, so a scan that wants `L` entries reads `L` of them however
    /// wide `[lo, hi]` is.
    pub fn range_try_for_each(
        &self,
        lo: &S::K,
        hi: &S::K,
        mut f: impl FnMut(&S::K, &S::V) -> ControlFlow<()>,
    ) {
        for (k, v) in self.map().iter_range(lo, hi) {
            if f(k, v).is_break() {
                break;
            }
        }
    }

    /// Augmented value over `[lo, hi]`, O(log n).
    pub fn aug_range(&self, lo: &S::K, hi: &S::K) -> S::A {
        self.map().aug_range(lo, hi)
    }

    /// Augmented value of the whole snapshot, O(1).
    pub fn aug_val(&self) -> S::A {
        self.map().aug_val()
    }
}

impl<S: AugSpec> Clone for Snapshot<S> {
    fn clone(&self) -> Self {
        Snapshot {
            entry: self.entry.clone(),
        }
    }
}

impl<S: AugSpec> std::fmt::Debug for Snapshot<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Snapshot(v{})", self.entry.id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pam::SumAug;
    use std::collections::BTreeMap;
    use std::time::Duration;

    type S = SumAug<u64, u64>;

    fn eager_config(shards: usize) -> ShardedConfig {
        ShardedConfig {
            shards,
            batch_window: Duration::ZERO,
            ..ShardedConfig::default()
        }
    }

    /// A volatile store with the given pipeline tuning.
    fn one_shard(batch_window: Duration, max_batch: usize) -> Store<S> {
        Store::volatile(ShardedConfig {
            shards: 1,
            batch_window,
            max_batch,
        })
    }

    fn eager(shards: usize) -> Store<S> {
        Store::volatile(eager_config(shards))
    }

    /// The store API end to end; run below over every cell of
    /// {1, 4 files per checkpoint} × {volatile, durable}.
    fn exercise(store: &Store<S>) {
        store.put(1, 10).wait();
        store.put(2, 20).wait();
        store
            .write_batch(vec![WriteOp::Put(3, 30), WriteOp::Delete(2)])
            .wait();
        store.flush();
        assert_eq!(store.get(&1), Some(10));
        assert_eq!(store.get(&2), None);
        assert_eq!(store.get_many(&[3, 2, 1]), vec![Some(30), None, Some(10)]);
        assert_eq!(store.len(), 2);
        assert!(!store.is_empty());
        assert_eq!(store.range(&0, &100), vec![(1, 10), (3, 30)]);
        let mut seen = 0;
        store.range_for_each(&0, &100, |_, _| seen += 1);
        assert_eq!(seen, 2);
        assert_eq!(store.aug_range(&0, &100), 40);
        assert_eq!(store.aug_val(), 40);
        assert_eq!(store.health(), Health::Healthy);
        assert!(store.stats().raw_ops >= 4);

        let snap = store.snapshot();
        store.put(1, 999).wait();
        assert_eq!(snap.get(&1), Some(10), "snapshot is frozen");
        assert_eq!(snap.get_many(&[1, 3]), vec![Some(10), Some(30)]);
        assert_eq!(snap.len(), 2);
        assert!(!snap.is_empty());
        assert_eq!(snap.range(&0, &100), vec![(1, 10), (3, 30)]);
        assert_eq!(snap.aug_range(&1, &3), 40);
        assert_eq!(snap.aug_val(), 40);
        assert_eq!(store.get(&1), Some(999), "live store moved on");
        assert!(store.snapshot().version() > snap.version());

        // every write carries its epoch, which is the version it commits
        // in
        let t = store.write_batch((100..132u64).map(|k| WriteOp::Put(k, k)));
        assert_eq!(t.global_epoch(), Some(t.wait()));
        assert_eq!(store.snapshot().version(), t.wait());
        assert_eq!(store.len(), 34);
    }

    #[test]
    fn every_shard_count_and_durability_serves_the_same_api() {
        let base = std::env::temp_dir().join(format!("pam-store-2x2-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        for shards in [1usize, 4] {
            let volatile = eager(shards);
            exercise(&volatile);
            assert!(volatile.recovery().is_empty() && volatile.dir().is_none());
            assert_eq!(
                volatile.checkpoint().unwrap_err().kind(),
                io::ErrorKind::Unsupported
            );

            let dir = base.join(format!("{shards}-shards"));
            let open = || {
                Store::<S>::open(&dir, eager_config(shards), DurabilityConfig::default()).unwrap()
            };
            let durable = open();
            exercise(&durable);
            assert_eq!(durable.recovery().len(), shards);
            assert!(durable.stats().durability.wal_records > 0);
            let contents = durable.range(&0, &u64::MAX);
            let version = durable.flush();
            drop(durable);
            // the one on-disk layout: one log at the top, one checkpoint
            // directory per key-range file
            assert!(dir.join("MANIFEST").is_file());
            assert!(dir.join("wal-00000000000000000001.seg").is_file());
            assert!(dir.join(format!("shard-{}", shards - 1)).is_dir());
            assert!(!dir.join(format!("shard-{shards}")).exists());
            let reopened = open();
            assert_eq!(reopened.range(&0, &u64::MAX), contents, "{shards} shards");
            assert_eq!(
                reopened.flush(),
                version,
                "versions continue the log's epochs"
            );
        }
        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn a_checkpoint_cuts_the_map_into_contiguous_key_ranges() {
        let base = std::env::temp_dir().join(format!("pam-store-ranges-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        // 497 entries over 5 files (uneven cuts), and 3 entries over 5
        // files (two of them empty)
        for (files, keys) in [(5usize, 0..500u64), (5, 0..3)] {
            let dir = base.join(format!("{files}-{}", keys.end));
            let store =
                Store::<S>::open(&dir, eager_config(files), DurabilityConfig::default()).unwrap();
            store.put_all(keys.map(|k| (k * 3, k))).wait();
            store.write_batch([7u64, 8, 9].map(WriteOp::Delete)).wait();
            let epoch = store.checkpoint().unwrap();
            let all = store.range(&0, &u64::MAX);
            let n = all.len();
            let mut joined = Vec::new();
            for i in 0..files {
                let shard_dir = pam_wal::manifest::shard_dir(&dir, i);
                let at = pam_wal::checkpoint::epochs(&shard_dir).unwrap();
                assert_eq!(at, [epoch], "every file is written, an empty range too");
                let gather = |part: &mut Vec<_>, chunk: Vec<(u64, u64)>| {
                    part.extend(chunk);
                    Ok(())
                };
                let (_, part) =
                    pam_wal::checkpoint::load_at(&shard_dir, epoch, Vec::new(), gather).unwrap();
                assert_eq!(part.len(), (i + 1) * n / files - i * n / files, "file {i}");
                joined.extend(part);
            }
            // in file order the files are the map itself: disjoint,
            // ascending, covering every key once
            assert_eq!(joined, all);
        }
        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn point_reads_and_scatter_gather() {
        let store = eager(4);
        store.put_all((0..200u64).map(|k| (k, k * 2))).wait();
        assert_eq!(store.get(&77), Some(154));
        assert_eq!(store.get(&999), None);
        // unsorted, with duplicates and misses; results in input order
        let keys = vec![42u64, 7, 999, 7, 0, 63];
        assert_eq!(
            store.get_many(&keys),
            vec![Some(84), Some(14), None, Some(14), Some(0), Some(126)]
        );
        assert_eq!(store.get_many(&[]), Vec::<Option<u64>>::new());
    }

    #[test]
    fn merged_range_is_globally_ordered() {
        let store = eager(4);
        store.put_all((0..1000u64).map(|k| (k, k))).wait();
        let got = store.range(&100, &199);
        assert_eq!(got, (100..=199).map(|k| (k, k)).collect::<Vec<_>>());
        // the streaming API agrees with the materializing one
        let mut seen = Vec::new();
        store.range_for_each(&100, &199, |&k, &v| seen.push((k, v)));
        assert_eq!(seen, got);
        assert_eq!(store.range(&998, &2000), vec![(998, 998), (999, 999)]);
        // empty range
        let mut n = 0;
        store.range_for_each(&5000, &6000, |_, _| n += 1);
        assert_eq!(n, 0);
    }

    #[test]
    fn a_breaking_visitor_stops_the_merge() {
        let store = eager(4);
        store.put_all((0..10_000u64).map(|k| (k, k))).wait();
        let snap = store.snapshot();
        for limit in [1usize, 10, 100] {
            let (mut calls, mut got) = (0usize, Vec::new());
            snap.range_try_for_each(&0, &u64::MAX, |&k, _| {
                calls += 1;
                got.push(k);
                if got.len() == limit {
                    ControlFlow::Break(())
                } else {
                    ControlFlow::Continue(())
                }
            });
            assert_eq!(calls, limit, "the visitor is never called after Break");
            assert_eq!(got, (0..limit as u64).collect::<Vec<_>>());
        }
        // the live-store form cuts its own snapshot and stops too
        let mut calls = 0;
        store.range_try_for_each(&0, &u64::MAX, |_, _| {
            calls += 1;
            ControlFlow::Break(())
        });
        assert_eq!(calls, 1);
    }

    #[test]
    fn aug_queries_combine_across_shards() {
        let store = eager(4);
        store.put_all((1..=100u64).map(|k| (k, k))).wait();
        assert_eq!(store.aug_val(), 5050);
        assert_eq!(store.aug_range(&10, &19), (10..=19).sum::<u64>());
        assert_eq!(store.len(), 100);
        assert!(!store.is_empty());
    }

    #[test]
    fn cross_shard_batch_commits_atomically_with_a_stamp() {
        let store = eager(2);
        let t = store.write_batch(
            (0..100u64)
                .map(|k| WriteOp::Put(k, k))
                .chain(std::iter::once(WriteOp::Delete(50))),
        );
        assert_eq!(t.global_epoch(), Some(1), "the store's first epoch");
        assert_eq!(t.wait(), 1, "one epoch, one version");
        assert!(t.is_done());
        assert_eq!(store.len(), 99);
        assert_eq!(store.get(&50), None);
        assert_eq!(store.snapshot().version(), 1);
        // a single-key write is the next epoch
        let put = store.put(7, 7);
        assert_eq!((put.global_epoch(), put.wait()), (Some(2), 2));
    }

    #[test]
    fn empty_cross_shard_batch_is_vacuously_committed() {
        let store = eager(3);
        let t = store.write_batch(std::iter::empty());
        assert_eq!(t.global_epoch(), None);
        assert!(t.is_done(), "an empty batch is already committed");
        assert_eq!(t.wait(), 0, "it names the current head");
        assert_eq!(store.flush(), 0, "no epoch was spent");
        assert!(store.is_empty());
        // empty submissions interleave harmlessly with real ones
        store.put(1, 1).wait();
        assert_eq!(store.write_batch(std::iter::empty()).wait(), 1);
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn snapshot_is_a_frozen_consistent_cut() {
        let store = eager(4);
        store.put_all((0..100u64).map(|k| (k, 1))).wait();
        let snap = store.snapshot();
        assert_eq!(snap.version(), 1);
        store.put_all((0..100u64).map(|k| (k, 2))).wait();
        store.put(1000, 1).wait();
        // the snapshot still sees the old world
        assert_eq!(snap.len(), 100);
        assert_eq!(snap.get(&7), Some(1));
        assert_eq!(snap.get(&1000), None);
        assert_eq!(snap.aug_val(), 100);
        assert_eq!(
            snap.range(&0, &10),
            (0..=10).map(|k| (k, 1)).collect::<Vec<_>>()
        );
        // while the live store moved on
        assert_eq!(store.get(&7), Some(2));
        assert_eq!(store.get(&1000), Some(1));
        // snapshots clone cheaply and agree
        let snap2 = snap.clone();
        assert_eq!(snap2.version(), snap.version());
        assert_eq!(snap2.get_many(&[7, 1000]), vec![Some(1), None]);
    }

    #[test]
    fn sharded_matches_btree_oracle() {
        let store = eager(7);
        let mut oracle = BTreeMap::new();
        for i in 0..2000u64 {
            let k = workloads::hash64(i) % 300;
            if i % 5 == 0 {
                store.delete(k);
                oracle.remove(&k);
            } else {
                store.put(k, i);
                oracle.insert(k, i);
            }
            // interleave occasional batches
            if i % 97 == 0 {
                store.write_batch(vec![WriteOp::Put(i, i), WriteOp::Delete(i / 2)]);
                oracle.insert(i, i);
                oracle.remove(&(i / 2));
            }
        }
        store.flush();
        let all = store.range(&0, &u64::MAX);
        assert_eq!(all, oracle.into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn stats_aggregate_across_shards() {
        let store = eager(4);
        store.put_all((0..1000u64).map(|k| (k, 1))).wait();
        let s = store.stats();
        assert_eq!(s.raw_ops, 1000);
        assert_eq!(s.applied_ops, 1000);
        assert_eq!(s.commits, 1, "one batch, one epoch");
        assert_eq!(s.commit.count(), s.commits);
        assert_eq!((s.head_version, s.live_versions), (1, 1));
        assert!(store.memory_bytes() > 1000 * 8);
    }

    #[test]
    fn one_shard_degenerates_to_single_engine() {
        let store = eager(1);
        store.put_all((0..100u64).map(|k| (k, k))).wait();
        assert_eq!(store.num_shards(), 1);
        assert_eq!(store.len(), 100);
        assert_eq!(store.range(&0, &99).len(), 100);
        assert_eq!(store.snapshot().len(), 100);
        // the store's version is the one engine's version
        assert_eq!(store.flush(), store.snapshot().version());
        assert_eq!(
            store.stats().fence_wait.count(),
            0,
            "nothing ever waits on a fence"
        );
        // ... and a zero shard count is clamped to that case
        assert_eq!(eager(0).num_shards(), 1);
    }

    // -- the pipeline and the registry ---------------------------------------

    #[test]
    fn put_get_delete_roundtrip() {
        let store = eager(1);
        store.put(1, 10);
        store.put(2, 20);
        store.put(1, 11).wait();
        assert_eq!(store.get(&1), Some(11));
        assert_eq!(store.get(&2), Some(20));
        assert_eq!(store.get(&3), None);
        store.delete(1).wait();
        assert_eq!(store.get(&1), None);
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn the_first_commit_builds_on_the_seed_map() {
        // the committer takes its starting maps and version from the
        // registry head, so each commit extends the one before it
        let store = eager(1);
        assert_eq!(store.put_all(vec![(1, 1), (2, 2), (3, 3)]).wait(), 1);
        let v1 = store.snapshot();
        assert_eq!((v1.version(), store.len()), (1, 3));
        assert_eq!(store.put(4, 4).wait(), 2);
        assert_eq!(store.snapshot().map().to_vec().len(), 4);
        assert_eq!(v1.map().len(), 3);
    }

    #[test]
    fn pins_freeze_history() {
        let store = eager(1);
        store.put(1, 1).wait();
        let pinned = store.snapshot();
        store.put(1, 999).wait();
        store.put(2, 2).wait();
        assert_eq!(pinned.get(&1), Some(1));
        assert_eq!(pinned.len(), 1);
        assert_eq!(store.get(&1), Some(999));
        assert!(store.snapshot().version() > pinned.version());
    }

    #[test]
    fn a_pin_keeps_its_own_version_and_no_other() {
        let store = eager(1);
        store.put(1, 1).wait();
        let pin = store.snapshot();
        for i in 2..=101u64 {
            store.put(i, i).wait();
        }
        assert_eq!(store.stats().live_versions, 2, "the head and the pin");
        assert_eq!((pin.version(), pin.map().to_vec()), (1, vec![(1, 1)]));
        drop(pin);
        let s = store.stats();
        assert_eq!((s.live_versions, s.retired_versions), (1, 101));
    }

    #[test]
    fn write_batch_is_atomic_wrt_flush() {
        let store = eager(1);
        let t = store.write_batch(vec![
            WriteOp::Put(1, 1),
            WriteOp::Put(2, 2),
            WriteOp::Delete(1),
        ]);
        let v = t.wait();
        let pinned = store.snapshot();
        assert_eq!(pinned.version(), v);
        assert_eq!(pinned.get(&1), None);
        assert_eq!(pinned.get(&2), Some(2));
    }

    #[test]
    fn flush_waits_for_everything() {
        let store = one_shard(Duration::from_millis(5), ShardedConfig::default().max_batch);
        for i in 0..500u64 {
            store.put(i, i);
        }
        let v = store.flush();
        assert!(v >= 1);
        assert_eq!(store.len(), 500);
        let s = store.stats();
        assert_eq!(s.raw_ops, 500);
        assert!(
            s.commits < 500,
            "group commit should have batched ({} commits)",
            s.commits
        );
    }

    #[test]
    fn stats_and_memory_are_populated() {
        let store = eager(1);
        store.put_all((0..1000u64).map(|k| (k, 1))).wait();
        store.put(5, 2).wait();
        let s = store.stats();
        assert_eq!(s.commits, 2);
        assert_eq!(s.raw_ops, 1001);
        assert_eq!(s.applied_ops, 1001);
        assert_eq!(s.head_version, 2);
        assert!(s.max_batch >= 1000);
        assert!(s.mean_commit > Duration::ZERO);
        assert!(store.memory_bytes() > 1000 * 8);
        let display = s.to_string();
        assert!(display.contains("2 commits"));
    }

    #[test]
    fn flush_is_durable_even_mid_apply() {
        // Regression: flush() used to return early when the buffer was
        // empty but the committer was still *applying* a drained epoch.
        // put → flush → get must always observe the write.
        let store = eager(1);
        for i in 0..1000u64 {
            store.put(i % 7, i);
            store.flush();
            assert_eq!(store.get(&(i % 7)), Some(i), "write lost after flush");
        }
    }

    #[test]
    fn max_batch_zero_behaves_as_one() {
        // Regression: the committer's window gate used to compare against
        // the *raw* config.max_batch while submit used the clamped copy,
        // so the two halves of the pipeline disagreed on the cap. With
        // max_batch: 0 (clamped to 1) a single op is already at the cap:
        // it must commit immediately, never lingering for the window.
        let store = one_shard(Duration::from_secs(10), 0);
        let t0 = std::time::Instant::now();
        store.put(1, 11).wait();
        store.put(2, 22).wait();
        assert!(
            t0.elapsed() < Duration::from_secs(2),
            "max_batch == 0 must clamp to 1 and skip the 10s window (took {:?})",
            t0.elapsed()
        );
        assert_eq!(store.get(&1), Some(11));
        assert_eq!(store.get(&2), Some(22));
    }

    #[test]
    fn crossing_max_batch_cuts_the_window_short() {
        let store = one_shard(Duration::from_secs(2), 64);
        let t0 = std::time::Instant::now();
        for i in 0..64u64 {
            store.put(i, i);
        }
        store.flush();
        assert!(
            t0.elapsed() < Duration::from_secs(1),
            "batch cap must drain before the 2s window elapses (took {:?})",
            t0.elapsed()
        );
        assert_eq!(store.len(), 64);
    }

    #[test]
    fn drop_drains_pending_writes() {
        let core;
        {
            let store = one_shard(
                Duration::from_millis(50),
                ShardedConfig::default().max_batch,
            );
            for i in 0..100u64 {
                store.put(i, i);
            }
            core = store.core.clone();
            // store dropped here with writes possibly still buffered
        }
        assert_eq!(
            core.registry.pin_head().len(),
            100,
            "drop must drain the pipeline"
        );
    }
}
