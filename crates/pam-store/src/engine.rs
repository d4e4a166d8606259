//! The engine: one registry, one pipeline, one committer.

use crate::config::StoreConfig;
use crate::op::WriteOp;
use crate::pipeline::{CommitHook, CommitTicket, Pipeline};
use crate::registry::{PinnedVersion, Registry, VersionId};
use crate::stats::{StatsInner, StoreStats};
use pam::{AugMap, AugSpec};
use std::sync::Arc;

struct Inner<S: AugSpec> {
    registry: Registry<S>,
    pipeline: Arc<Pipeline<S>>,
    stats: Arc<StatsInner>,
    hook: Option<Arc<dyn CommitHook<S>>>,
}

/// The engine under a [`crate::Store`]: a one-head version registry fed
/// by a group-commit pipeline with its own committer thread.
///
/// Writes flow through the pipeline; [`Self::pin`] takes an O(1)
/// persistent snapshot and never blocks, and the version it pins lives
/// exactly as long as the pin (or a clone of it) does. A store's engine
/// holds all of its shard maps — a version is their tuple — and the
/// store routes keys to them. Build one directly for a single unsharded
/// map, or to test a [`CommitHook`].
///
/// The engine is `Send + Sync`. Dropping the last handle drains
/// outstanding writes and joins the committer thread.
pub struct VersionedStore<S: AugSpec> {
    inner: Arc<Inner<S>>,
    committer: Option<std::thread::JoinHandle<()>>,
}

/// The router of a one-shard engine: every key is shard 0's.
fn one_shard<K>(_: &K) -> u64 {
    0
}

impl<S: AugSpec> VersionedStore<S> {
    /// An empty engine with the given configuration.
    pub fn with_config(config: StoreConfig) -> Self {
        Self::from_map(AugMap::new(), config)
    }

    /// An engine whose version 0 is `initial`.
    pub fn from_map(initial: AugMap<S>, config: StoreConfig) -> Self {
        Self::sharded(vec![initial], 0, &config, None, one_shard::<S::K>)
    }

    /// An engine whose committer logs every epoch through `hook` before
    /// applying it — the extension point the durable [`crate::Store`]
    /// attaches its WAL to. See [`CommitHook`] for the ordering contract.
    pub fn with_commit_hook(
        initial: AugMap<S>,
        config: StoreConfig,
        hook: Arc<dyn CommitHook<S>>,
    ) -> Self {
        Self::sharded(vec![initial], 0, &config, Some(hook), one_shard::<S::K>)
    }

    /// An engine whose version `version` is the tuple `maps`, one map per
    /// shard; its committer routes each key with `hash`.
    pub(crate) fn sharded(
        maps: Vec<AugMap<S>>,
        version: VersionId,
        config: &StoreConfig,
        hook: Option<Arc<dyn CommitHook<S>>>,
        hash: fn(&S::K) -> u64,
    ) -> Self {
        let stats = Arc::new(StatsInner::default());
        let inner = Arc::new(Inner {
            registry: Registry::new(version, maps),
            pipeline: Arc::new(Pipeline::new(config, stats.clone(), version)),
            stats,
            hook,
        });
        let worker = inner.clone();
        let committer = std::thread::Builder::new()
            .name("pam-store-committer".into())
            .spawn(move || {
                worker
                    .pipeline
                    .run_committer(&worker.registry, worker.hook.as_deref(), hash);
            })
            // lint: allow(panic) construction-time failure with no
            // caller to report to: a store without its committer thread
            // cannot exist, and spawn only fails on resource exhaustion
            .expect("spawn committer thread");
        VersionedStore {
            inner,
            committer: Some(committer),
        }
    }

    // -- writes (through the group-commit pipeline) -----------------------

    /// Insert or overwrite `key`. Returns immediately with a ticket;
    /// [`CommitTicket::wait`] blocks until the write is in a published
    /// version.
    pub fn put(&self, key: S::K, value: S::V) -> CommitTicket<S> {
        self.inner.pipeline.submit(WriteOp::Put(key, value))
    }

    /// Remove `key` (no-op if absent).
    pub fn delete(&self, key: S::K) -> CommitTicket<S> {
        self.inner.pipeline.submit(WriteOp::Delete(key))
    }

    /// Enqueue several operations **atomically**: they land in the same
    /// epoch, so every reader sees either all of them or none.
    pub fn write_batch(&self, ops: impl IntoIterator<Item = WriteOp<S>>) -> CommitTicket<S> {
        self.inner.pipeline.submit_all(ops)
    }

    /// Upsert many pairs atomically (convenience over [`Self::write_batch`]).
    pub fn put_all(&self, pairs: impl IntoIterator<Item = (S::K, S::V)>) -> CommitTicket<S> {
        self.write_batch(pairs.into_iter().map(|(k, v)| WriteOp::Put(k, v)))
    }

    /// Block until every previously enqueued operation is committed;
    /// returns the id of the last published version (which contains
    /// them).
    ///
    /// # Panics
    ///
    /// If the engine was poisoned by a failed commit hook (as do the
    /// write methods themselves — fail-stop, see [`CommitHook`]).
    pub fn flush(&self) -> VersionId {
        self.inner.pipeline.flush()
    }

    // -- reads and versions -------------------------------------------------
    //
    // Every read goes through the registry head — the one place the
    // committer publishes — so a reader that observes a write via `get`
    // can never then pin an *older* version.

    /// Pin the current head version (O(1)); the pin keeps it readable
    /// while later commits advance the head. Read through
    /// [`PinnedVersion::map`].
    pub fn pin(&self) -> PinnedVersion<S> {
        self.inner.registry.pin_head()
    }

    /// The value at `key` in the current version of a one-shard engine
    /// (see [`PinnedVersion::map`]).
    pub fn get(&self, key: &S::K) -> Option<S::V> {
        self.pin().map().get(key).cloned()
    }

    /// Entries in the current version.
    pub fn len(&self) -> usize {
        self.pin().shards().iter().map(AugMap::len).sum()
    }

    /// Is the current version empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The current head version id (the id [`Self::pin`] would return).
    pub fn head_version(&self) -> VersionId {
        self.pin().id()
    }

    // -- observability ------------------------------------------------------

    /// A coherent snapshot of the commit/batch/version statistics
    /// (durability counters zero: the store overlays them).
    pub fn stats(&self) -> StoreStats {
        let (head, live, retired) = self.inner.registry.counts();
        StoreStats::from_inner(&self.inner.stats, live, retired, head)
    }

    /// Liveness of the commit pipeline: [`pam_obs::Health::Poisoned`]
    /// (with the original commit-hook error) after a fail-stop,
    /// `Healthy` otherwise.
    pub fn health(&self) -> pam_obs::Health {
        match self.inner.pipeline.poison_reason() {
            Some(reason) => pam_obs::Health::Poisoned(reason),
            None => pam_obs::Health::Healthy,
        }
    }

    /// Exact heap bytes reachable from the current version. What an
    /// older pinned version costs on top is only the nodes it does not
    /// share with this one.
    pub fn memory_bytes(&self) -> usize {
        let pin = self.pin();
        let roots: Vec<_> = pin.shards().iter().map(AugMap::root).collect();
        pam::stats::reachable_bytes(&roots)
    }
}

impl<S: AugSpec> Drop for VersionedStore<S> {
    fn drop(&mut self) {
        self.inner.pipeline.begin_shutdown();
        if let Some(h) = self.committer.take() {
            let _ = h.join();
        }
    }
}

impl<S: AugSpec> std::fmt::Debug for VersionedStore<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "VersionedStore(v{}, len {})",
            self.head_version(),
            self.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pam::SumAug;
    use std::time::Duration;

    type Engine = VersionedStore<SumAug<u64, u64>>;

    fn eager() -> Engine {
        Engine::with_config(StoreConfig {
            batch_window: Duration::ZERO,
            ..StoreConfig::default()
        })
    }

    #[test]
    fn put_get_delete_roundtrip() {
        let store = eager();
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
        // the committer takes its starting map and version from the
        // registry head, so version 0 is the seed and version 1 extends it
        let seed = AugMap::build(vec![(1u64, 1u64), (2, 2), (3, 3)]);
        let store = Engine::from_map(
            seed,
            StoreConfig {
                batch_window: Duration::ZERO,
                ..StoreConfig::default()
            },
        );
        let v0 = store.pin();
        assert_eq!((v0.id(), store.len()), (0, 3));
        assert_eq!(store.put(4, 4).wait(), 1);
        assert_eq!(store.pin().map().to_vec().len(), 4);
        assert_eq!(v0.map().len(), 3);
    }

    #[test]
    fn pins_freeze_history() {
        let store = eager();
        store.put(1, 1).wait();
        let pinned = store.pin();
        let pinned_id = pinned.id();
        store.put(1, 999).wait();
        store.put(2, 2).wait();
        assert_eq!(pinned.map().get(&1), Some(&1));
        assert_eq!(pinned.map().len(), 1);
        assert_eq!(store.get(&1), Some(999));
        assert!(store.head_version() > pinned_id);
    }

    #[test]
    fn a_pin_keeps_its_own_version_and_no_other() {
        let store = eager();
        store.put(1, 1).wait();
        let pin = store.pin();
        for i in 2..=101u64 {
            store.put(i, i).wait();
        }
        assert_eq!(store.stats().live_versions, 2, "the head and the pin");
        assert_eq!((pin.id(), pin.map().to_vec()), (1, vec![(1, 1)]));
        drop(pin);
        let s = store.stats();
        assert_eq!((s.live_versions, s.retired_versions), (1, 101));
    }

    #[test]
    fn write_batch_is_atomic_wrt_flush() {
        let store = eager();
        let t = store.write_batch(vec![
            WriteOp::Put(1, 1),
            WriteOp::Put(2, 2),
            WriteOp::Delete(1),
        ]);
        let v = t.wait();
        let pinned = store.pin();
        assert_eq!(pinned.id(), v);
        assert_eq!(pinned.map().get(&1), None);
        assert_eq!(pinned.map().get(&2), Some(&2));
    }

    #[test]
    fn flush_waits_for_everything() {
        let store = Engine::with_config(StoreConfig {
            batch_window: Duration::from_millis(5),
            ..StoreConfig::default()
        });
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
        let store = eager();
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
        let store = eager();
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
        let store = Engine::with_config(StoreConfig {
            batch_window: Duration::from_secs(10),
            max_batch: 0,
        });
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
        let store = Engine::with_config(StoreConfig {
            batch_window: Duration::from_secs(2),
            max_batch: 64,
        });
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
        let inner;
        {
            let store = Engine::with_config(StoreConfig {
                batch_window: Duration::from_millis(50),
                ..StoreConfig::default()
            });
            for i in 0..100u64 {
                store.put(i, i);
            }
            inner = store.inner.clone();
            // store dropped here with writes possibly still buffered
        }
        assert_eq!(
            inner.registry.pin_head().map().len(),
            100,
            "drop must drain the pipeline"
        );
    }
}
