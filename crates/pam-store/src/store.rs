//! [`Store`]: N ≥ 1 hash shards × an optional durability part.
//!
//! One [`VersionedStore`] engine funnels every write through one
//! group-commit pipeline — one committer thread normalizes, (optionally)
//! logs, and applies each epoch, so write throughput caps out at one core
//! no matter how many writers enqueue. But PAM maps *compose*: a map
//! hash-partitioned into N independent maps supports `multi_insert`,
//! WAL append, and root publish on each partition concurrently, which is
//! the same observation the paper exploits inside one `multi_insert`
//! (split the batch, recurse in parallel, `join`) lifted to the serving
//! layer.
//!
//! `Store` is that lift: N fully independent engines, keys routed by a
//! *stable* hash ([`ShardKey`] — stable because for a durable store the
//! assignment is part of the on-disk format), and the read API
//! reassembled on top:
//!
//! * point reads route to one shard; [`Store::get_many`] scatters to the
//!   owning shards and gathers results back in input order;
//! * ordered scans ([`Store::range_for_each`]) k-way merge the per-shard
//!   streaming ranges — hash partitioning interleaves the key space, so
//!   every shard contributes to every range;
//! * augmented queries combine the per-shard monoid values. Because the
//!   hash interleaves keys, the per-shard values arrive out of key order:
//!   **aug queries on a store with more than one shard require a
//!   commutative `combine`** (all built-in specs — sum, max, min — are
//!   commutative).
//!
//! A 1-shard store is the degenerate case of the same code: no batch can
//! span shards, so nothing is ever stamped or fenced (and a snapshot is
//! one pin). A *volatile* store
//! ([`Store::volatile`]) is the same struct without the durability part
//! ([`Store::open`] adds a WAL, a checkpointer and crash recovery under
//! every shard — see the [`crate::durable`] module docs).
//!
//! ## The consistency contract
//!
//! Each method's docs name its spot on this ladder:
//!
//! * **pin consistency** — the call reads one O(1)-pinned version per
//!   involved shard; each shard is pinned independently, so two shards
//!   may be observed at different instants (a cross-shard batch can
//!   appear half-applied to *point reads* — never to epoch-fenced reads).
//!   The pin is an `Arc` clone under the shard's registry mutex (shared
//!   with `publish`); the read itself then takes no lock.
//! * **epoch-fenced consistency** — the call cuts at a global epoch
//!   boundary (fence + all-shard submit barrier): every cross-shard
//!   batch is observed wholly or not at all (invariant I5).
//! * **ack-vs-durable** — a write ticket resolves when the operation is
//!   *published* (readable by everyone). On a durable store the WAL hook
//!   logs **before** publish, so an acked write is as durable as the
//!   configured [`crate::SyncPolicy`] promises (invariant I1); on a
//!   volatile store an ack promises visibility only.
//!
//! ## The global epoch clock and the epoch fence
//!
//! Each shard keeps the single-engine guarantees (atomic epochs, snapshot
//! reads, read-your-writes). Cross-shard operations are coordinated by a
//! **global epoch clock** and an **epoch fence**:
//!
//! * a multi-shard [`Store::write_batch`] is stamped with a fresh
//!   **global epoch** ([`GlobalStamp`]), split per shard, and each
//!   shard's slice commits as its own *sealed* pipeline epoch carrying
//!   the stamp. The slices are submitted while holding the read side of
//!   the fence, so no epoch-fenced reader can ever observe the batch
//!   half-submitted. A batch whose operations all route to **one** shard
//!   skips the clock and the fence entirely (the fast path — a
//!   single-shard epoch is already atomic);
//! * [`Store::snapshot`] and the live [`Store::range_for_each`] /
//!   [`Store::range`] cut at a global epoch boundary: they take the
//!   fence's write side (waiting out any in-flight batch submission),
//!   raise a brief *submit barrier* on every shard (new writes park,
//!   buffered epochs drain), flush and pin every head, and release. The
//!   resulting [`Snapshot`] contains every write acknowledged before the
//!   cut, none submitted after it, and **every cross-shard batch wholly
//!   or not at all** — the paper's one-root-pointer snapshot guarantee,
//!   restored across N roots;
//! * point reads (`get`, `get_many`), `len`, and aug queries still pin
//!   each shard's head independently (a concurrent commit may land
//!   between two pins — they trade the fence for zero coordination); use
//!   [`Store::snapshot`] when cross-shard atomicity matters for point
//!   reads.
//!
//! Durability extends the same stamp: each slice's WAL record carries
//! the global epoch, and [`Store::open`] recovers to the maximum global
//! epoch fully present on all shards — a batch whose crash-torn log lost
//! a slice on one shard is discarded on every shard.

use crate::config::{DurabilityConfig, ShardedConfig};
use crate::durable::{Durability, GlobalTracker, RecoveryInfo, WalHook};
use crate::engine::VersionedStore;
use crate::pipeline::CommitTicket;
use crate::registry::{PinnedVersion, VersionId};
use crate::shard::{route, scatter_gather_get_many, ShardKey};
use crate::stats::StoreStats;
use crate::WriteOp;
use pam::AugSpec;
use pam_obs::{Health, Histogram, ObsServer, TelemetrySource};
use pam_wal::{Codec, GlobalStamp};
use parking_lot::{Mutex, RwLock};
use std::io;
use std::ops::ControlFlow;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

// ---------------------------------------------------------------------------
// The global epoch clock
// ---------------------------------------------------------------------------

/// The clock refuses to hand out stamps in the last 2^32 of the u64
/// range: a store minting a million cross-shard batches per second would
/// take half a million years to get here, so hitting the guard means a
/// corrupted clock value — panicking beats wrapping to stamps that
/// compare *older* than every persisted decision.
pub(crate) const CLOCK_OVERFLOW_MARGIN: u64 = 1 << 32;

/// Panic if `epoch` is inside the overflow margin (see
/// [`CLOCK_OVERFLOW_MARGIN`]).
#[inline]
pub(crate) fn check_clock_epoch(epoch: u64) {
    assert!(
        epoch < u64::MAX - CLOCK_OVERFLOW_MARGIN,
        "global epoch clock overflow: epoch {epoch} is inside the reserved margin"
    );
}

/// The store-wide monotone clock that stamps cross-shard batches.
///
/// A volatile store only needs the counter; a durable store routes
/// stamping through its `GlobalTracker`, which additionally records each
/// stamp as *outstanding* until every participant shard has logged its
/// slice (the input to checkpoint gating and the recovery vote).
enum GlobalClock {
    /// In-memory counter of the last stamped epoch.
    Untracked(AtomicU64),
    /// Durable stores stamp through the tracker (same monotone sequence,
    /// plus outstanding-batch accounting; recovery seeds it with the
    /// persisted watermark).
    Tracked(Arc<GlobalTracker>),
}

impl GlobalClock {
    /// Mint the next global epoch for a batch spanning `participants`
    /// shards.
    ///
    /// # Panics
    ///
    /// On clock overflow (see [`CLOCK_OVERFLOW_MARGIN`]).
    fn stamp(&self, participants: u32) -> GlobalStamp {
        match self {
            GlobalClock::Untracked(last) => {
                // relaxed: uniqueness + monotonicity come from fetch_add
                // atomicity alone; stamps order batches under the
                // xbatch_gate mutex, which supplies the happens-before
                let epoch = last.fetch_add(1, Ordering::Relaxed) + 1;
                check_clock_epoch(epoch);
                GlobalStamp {
                    epoch,
                    participants,
                }
            }
            GlobalClock::Tracked(t) => t.stamp(participants),
        }
    }

    /// The most recently stamped global epoch (0: none yet).
    fn current(&self) -> u64 {
        match self {
            // relaxed: monitoring read; a slightly stale epoch is fine
            GlobalClock::Untracked(last) => last.load(Ordering::Relaxed),
            GlobalClock::Tracked(t) => t.last_stamped(),
        }
    }
}

// ---------------------------------------------------------------------------
// The store
// ---------------------------------------------------------------------------

/// One shard as the store sees it: the engine and, when durable, the WAL
/// hook whose counters and checkpointer verdict complete the engine's
/// stats and health.
struct Shard<S: AugSpec> {
    engine: Arc<VersionedStore<S>>,
    wal: Option<Arc<WalHook>>,
}

impl<S: AugSpec> Clone for Shard<S> {
    fn clone(&self) -> Self {
        Shard {
            engine: self.engine.clone(),
            wal: self.wal.clone(),
        }
    }
}

impl<S: AugSpec> Shard<S> {
    fn stats(&self) -> StoreStats {
        let mut stats = self.engine.stats();
        if let Some(wal) = &self.wal {
            stats.durability = wal.durability_stats();
        }
        stats
    }

    /// This shard's health with its index prefixed to the reason.
    fn health(&self, i: usize) -> Health {
        let health = match &self.wal {
            Some(wal) => wal.health(self.engine.health()),
            None => self.engine.health(),
        };
        match health {
            Health::Poisoned(r) => Health::Poisoned(format!("shard {i}: {r}")),
            Health::Degraded(r) => Health::Degraded(format!("shard {i}: {r}")),
            Health::Healthy => Health::Healthy,
        }
    }
}

/// The per-shard stats folded with [`StoreStats::aggregate`], overlaid
/// with the fence metrics. A free function over cloneable parts so the
/// telemetry endpoint computes exactly what [`Store::stats`] returns.
fn aggregate_stats<S: AugSpec>(shards: &[Shard<S>], fence: &FenceObs) -> StoreStats {
    let per: Vec<StoreStats> = shards.iter().map(Shard::stats).collect();
    let mut s = StoreStats::aggregate(per.iter());
    s.fence_wait = fence.fence_wait.snapshot();
    // relaxed: stats snapshot; sampling skew is inherent
    s.snapshots_taken = fence.snapshots_taken.load(Ordering::Relaxed);
    s
}

/// The worst health over all shards (see [`Store::health`]).
fn worst_health<S: AugSpec>(shards: &[Shard<S>]) -> Health {
    shards
        .iter()
        .enumerate()
        .fold(Health::Healthy, |worst, (i, s)| worst.worse(s.health(i)))
}

/// A key-value store over parallel augmented maps: the key space is
/// hash-partitioned across N ≥ 1 independent [`VersionedStore`] engines,
/// each with its own group-commit pipeline and — when opened on a
/// directory — its own WAL and checkpointer.
///
/// Writes to different shards batch, normalize, log and apply
/// concurrently — N committer threads — while reads pin O(1) persistent
/// snapshots and never block (see the module docs for the exact
/// consistency contract). The store is `Send + Sync`; wrap it in an
/// [`Arc`] to share it across threads. Dropping it drains outstanding
/// writes, joins every committer and checkpointer, and (when durable)
/// closes the logs and releases the directory lock.
///
/// ```
/// use pam_store::{ShardedConfig, Store};
/// use pam::SumAug;
///
/// let store: Store<SumAug<u64, u64>> =
///     Store::volatile(ShardedConfig::builder().shards(4).build());
/// store.put_all((0..1000u64).map(|k| (k, 1))).wait();
/// assert_eq!(store.get(&17), Some(1));
/// assert_eq!(store.aug_range(&0, &999), 1000); // merged across shards
///
/// let snap = store.snapshot(); // consistent cross-shard cut
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
    /// Declared first: the telemetry server's source closures hold shard
    /// handles, so the server must shut down (and drain its in-flight
    /// scrapes) before the shards below begin their teardown.
    obs: Option<ObsServer>,
    /// Declared before `durable`, whose shards hold the last engine
    /// handles: they join their checkpointers and then drain.
    shards: Vec<Shard<S>>,
    /// Serializes [`Store::snapshot`] barriers (one at a time).
    snapshot_gate: Mutex<()>,
    /// Stamps cross-shard batches with monotone global epochs.
    clock: GlobalClock,
    /// The epoch fence. A multi-shard `write_batch` holds the **read**
    /// side while it submits its per-shard slices; an epoch-fenced
    /// reader ([`Store::snapshot`]) takes the **write** side before
    /// raising the shard barriers, so at the instant the barriers go up
    /// every cross-shard batch is either submitted to *all* its shards
    /// or to none — the other half of torn-batch freedom (the barriers +
    /// flush then turn "submitted everywhere" into "committed
    /// everywhere" before any head is pinned).
    fence: RwLock<()>,
    /// Serializes the stamp + enqueue phase of cross-shard batches:
    /// without it, two concurrent batches could enqueue their slices in
    /// opposite orders on different shards (shard 0 sees [B1, B2],
    /// shard 1 sees [B2, B1]) and the acked state would match *no*
    /// serial order of the batches. Held only across the N queue pushes
    /// — commits still run in parallel per shard — so per-shard epoch
    /// order always equals global stamp order.
    xbatch_gate: Mutex<()>,
    /// Fence contention metrics (see [`FenceObs`]).
    fence_obs: Arc<FenceObs>,
    /// `None`: a volatile store.
    durable: Option<Durability<S>>,
}

/// Coordination-layer observability: how often the epoch fence is
/// exercised and how long acquirers wait on it. Per-shard pipeline stats
/// live in each engine; these counters belong to the layer above them,
/// so [`Store::stats`] overlays them onto the aggregated per-shard view.
#[derive(Debug, Default)]
struct FenceObs {
    /// Epoch-fenced snapshots cut ([`Store::snapshot`], including the
    /// ones live `range`/`range_for_each` scans take internally) — each
    /// pays one fence write acquisition and one all-shard barrier.
    snapshots_taken: AtomicU64,
    /// Nanoseconds spent waiting to acquire the epoch fence, both sides:
    /// cross-shard batches blocked behind a snapshot cut (read side) and
    /// snapshots waiting out in-flight submissions (write side).
    fence_wait: Histogram,
}

/// Ends the raised barriers even if a flush panics mid-snapshot (a
/// poisoned shard must not leave every other shard's writers parked).
struct BarrierGuard<'a, S: AugSpec> {
    shards: &'a [Shard<S>],
    raised: usize,
}

impl<S: AugSpec> Drop for BarrierGuard<'_, S> {
    fn drop(&mut self) {
        for s in &self.shards[..self.raised] {
            s.engine.pipeline().end_barrier();
        }
    }
}

impl<S: AugSpec> Store<S>
where
    S::K: Codec + ShardKey,
    S::V: Codec,
{
    /// Open (or create) a durable store in `dir`: verify the shard-count
    /// manifest, **vote on cross-shard batches**, then recover every
    /// shard **in parallel** — checkpoint bulk-load plus WAL replay, a
    /// torn final record tolerated and truncated.
    ///
    /// The vote is the cross-shard half of recovery: a read-only
    /// pre-scan collects every global epoch stamp from every shard's
    /// log; stamps above the manifest's persisted watermark that are
    /// missing on at least one of their participants mark torn batches,
    /// which every shard's replay then skips. The advanced watermark and
    /// the discard list are pinned back into the manifest *before* any
    /// shard serves traffic, and the global epoch clock resumes past the
    /// watermark.
    ///
    /// With [`DurabilityConfig::obs_addr`] set, one aggregated telemetry
    /// endpoint serves the whole store ([`Self::obs_addr`]).
    ///
    /// # Errors
    ///
    /// * `InvalidInput` — the manifest pins a different shard count (the
    ///   hash routing is part of the on-disk format);
    /// * `InvalidData` — data but no manifest: shard directories whose
    ///   manifest was lost, or the retired single-directory layout
    ///   (`wal-*.seg` / `ckpt-*.ckpt` at the top level) — guessing a
    ///   layout could route keys into the wrong WAL, and creating a
    ///   fresh store would shadow acknowledged data; also corruption
    ///   outside a tolerated torn tail, or a WAL gap, inside a shard;
    /// * `WouldBlock` — another live process holds the directory lock;
    /// * other kinds pass through from the filesystem or the
    ///   `obs_addr` bind.
    pub fn open(
        dir: impl AsRef<Path>,
        config: ShardedConfig,
        durability: DurabilityConfig,
    ) -> io::Result<Self> {
        let durable = Durability::open(dir.as_ref(), &config, &durability)?;
        let shards = durable
            .parts()
            .map(|(engine, hook)| Shard {
                engine,
                wal: Some(hook),
            })
            .collect();
        let clock = GlobalClock::Tracked(durable.tracker.clone());
        let mut store = Self::assemble(shards, clock, Some(durable));
        if let Some(addr) = &durability.obs_addr {
            let (shards, fence) = (store.shards.clone(), store.fence_obs.clone());
            let shards2 = store.shards.clone();
            let source = TelemetrySource {
                export: Box::new(move |reg| aggregate_stats(&shards, &fence).export_into(reg)),
                health: Box::new(move || worst_health(&shards2)),
            };
            let server = ObsServer::bind(addr.as_str(), source)
                .map_err(|e| io::Error::new(e.kind(), format!("binding obs_addr {addr}: {e}")))?;
            store.obs = Some(server);
        }
        Ok(store)
    }

    /// Checkpoint every shard now: each pins its own head, streams it to
    /// disk while writers keep committing, persists the global epoch
    /// watermark to the manifest, then truncates the WAL segments the
    /// checkpoint covers. Returns the per-shard WAL epochs the
    /// checkpoints claim.
    ///
    /// # Errors
    ///
    /// `Unsupported` on a volatile store. Otherwise the first failing
    /// shard's error — filesystem errors pass through, and `TimedOut`
    /// means a cross-shard batch stayed undecided (a sibling shard
    /// wedged mid-log). Earlier shards' checkpoints remain valid, and a
    /// failed checkpoint is never fatal: the WAL still holds everything.
    pub fn checkpoint(&self) -> io::Result<Vec<u64>> {
        match &self.durable {
            Some(d) => d.checkpoint(),
            None => Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "a volatile store has nothing to checkpoint",
            )),
        }
    }
}

impl<S: AugSpec> Store<S>
where
    S::K: ShardKey,
{
    /// An empty **volatile** store: the same shards, pipelines, fence
    /// and read paths as [`Self::open`], with no disk underneath — an
    /// ack promises visibility only, and everything is gone on drop.
    pub fn volatile(config: ShardedConfig) -> Self {
        let shards = (0..config.shards.max(1))
            .map(|_| Shard {
                engine: Arc::new(VersionedStore::with_config(config.store.clone())),
                wal: None,
            })
            .collect();
        Self::assemble(shards, GlobalClock::Untracked(AtomicU64::new(0)), None)
    }

    fn assemble(shards: Vec<Shard<S>>, clock: GlobalClock, durable: Option<Durability<S>>) -> Self {
        // Label every member pipeline with its shard index so the
        // flight-recorder ring (and its Chrome export) gets one track
        // per shard.
        for (i, s) in shards.iter().enumerate() {
            s.engine.pipeline().set_trace_shard(i as u32);
        }
        Store {
            obs: None,
            shards,
            snapshot_gate: Mutex::new(()),
            clock,
            fence: RwLock::new(()),
            xbatch_gate: Mutex::new(()),
            fence_obs: Arc::default(),
            durable,
        }
    }

    /// Number of shards (for a durable store: as pinned by the manifest).
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard index `key` routes to.
    pub fn shard_of(&self, key: &S::K) -> usize {
        route(key.shard_hash(), self.shards.len())
    }

    /// One shard's engine: its head pin and its per-shard stats. Writes
    /// through it land in the same (logged) pipeline, but bypass
    /// routing — only write keys that [`Self::shard_of`] maps to `i`.
    pub fn shard(&self, i: usize) -> &Arc<VersionedStore<S>> {
        &self.shards[i].engine
    }

    // -- writes -----------------------------------------------------------

    /// Insert or overwrite `key` on its owning shard. The ticket
    /// resolves when that shard's epoch is published — and, on a durable
    /// store, logged first (**ack-vs-durable**, invariant I1).
    pub fn put(&self, key: S::K, value: S::V) -> CommitTicket<S> {
        self.shard(self.shard_of(&key)).put(key, value)
    }

    /// Remove `key` (a no-op if absent — still acked).
    pub fn delete(&self, key: S::K) -> CommitTicket<S> {
        self.shard(self.shard_of(&key)).delete(key)
    }

    /// Enqueue several operations as one **atomic batch**: readers see
    /// all of them or none.
    ///
    /// A batch spanning several shards is stamped with a fresh global
    /// epoch and split per shard; each slice commits as its own sealed
    /// epoch carrying the stamp, and the slices are submitted under the
    /// epoch fence — so [`Self::snapshot`] / [`Self::range_for_each`]
    /// readers see the whole batch or none of it (invariant I5), and
    /// (when durable) crash recovery keeps or discards it on all shards
    /// together (I6). A batch whose operations all route to one shard
    /// takes the fast path: no stamp, no fence, one ordinary
    /// group-committed epoch.
    ///
    /// Point reads (`get`, `get_many`) bypass the fence and may observe
    /// a batch's shards at different instants; use a snapshot when that
    /// matters.
    ///
    /// # Panics
    ///
    /// On global-epoch-clock overflow (after ~2^63 cross-shard batches).
    pub fn write_batch(&self, ops: impl IntoIterator<Item = WriteOp<S>>) -> BatchTicket<S> {
        let mut per_shard: Vec<Vec<WriteOp<S>>> =
            (0..self.shards.len()).map(|_| Vec::new()).collect();
        for op in ops {
            per_shard[self.shard_of(op.key())].push(op);
        }
        let participants = per_shard.iter().filter(|ops| !ops.is_empty()).count();
        if participants <= 1 {
            // Fast path: an empty batch is vacuously committed; a
            // single-shard batch is already atomic as one ordinary epoch
            // (it may share that epoch with concurrent writers — group
            // commit). Neither consults the clock or the fence.
            return BatchTicket {
                tickets: per_shard
                    .into_iter()
                    .enumerate()
                    .filter(|(_, ops)| !ops.is_empty())
                    .map(|(i, ops)| self.shard(i).write_batch(ops))
                    .collect(),
                global: None,
            };
        }
        // Hold the fence's read side across the stamp AND every
        // per-shard submit: an epoch-fenced reader (fence write side)
        // can never cut between two slices of this batch — and because
        // stamping happens under the fence, a snapshot's
        // `global_epoch()` (read under the write side) never names a
        // batch the snapshot does not contain. The xbatch gate then
        // orders concurrent batches: stamping and enqueueing are one
        // atomic step, so every shard's pipeline sees cross-shard
        // batches in global stamp order (the committed state is always
        // the serial order of the stamps). Safe to hold across the
        // submits: with the fence read held no barrier can be up, so
        // `submit_sealed` never blocks.
        let parked = Instant::now();
        let _in_flight = self.fence.read();
        self.fence_obs.fence_wait.record_duration(parked.elapsed());
        let _ordered = self.xbatch_gate.lock();
        let stamp = self.clock.stamp(participants as u32);
        BatchTicket {
            tickets: per_shard
                .into_iter()
                .enumerate()
                .filter(|(_, ops)| !ops.is_empty())
                .map(|(i, ops)| self.shard(i).submit_sealed(ops, Some(stamp)))
                .collect(),
            global: Some(stamp.epoch),
        }
    }

    /// Upsert many pairs (convenience over [`Self::write_batch`]).
    pub fn put_all(&self, pairs: impl IntoIterator<Item = (S::K, S::V)>) -> BatchTicket<S> {
        self.write_batch(pairs.into_iter().map(|(k, v)| WriteOp::Put(k, v)))
    }

    /// Block until every previously enqueued operation (from any handle)
    /// on every shard is committed and published; returns the per-shard
    /// ids of the last published versions.
    ///
    /// # Panics
    ///
    /// If a shard was poisoned by a failed commit hook.
    pub fn flush(&self) -> Vec<VersionId> {
        self.shards.iter().map(|s| s.engine.flush()).collect()
    }

    // -- reads ------------------------------------------------------------

    /// The value at `key` in its shard's current version
    /// (**pin-consistent**).
    pub fn get(&self, key: &S::K) -> Option<S::V> {
        self.shard(self.shard_of(key)).get(key)
    }

    /// The values at several keys, scattered to their owning shards and
    /// gathered back in input order. **Pin-consistent**: each involved
    /// shard is read from one pinned version (so on a 1-shard store the
    /// results are mutually consistent), and the probes run in sorted
    /// key order so successive lookups share their upper tree path in
    /// cache. For a cut that is consistent *across* shards, use
    /// [`Self::snapshot`] + [`Snapshot::get_many`].
    pub fn get_many(&self, keys: &[S::K]) -> Vec<Option<S::V>> {
        scatter_gather_get_many(self.shards.len(), keys, |i| self.shard(i).pin())
    }

    /// All entries with keys in `[lo, hi]`, merged across shards in key
    /// order, read from one **epoch-fenced** cut (see
    /// [`Self::range_for_each`]). Prefer `range_for_each` for large
    /// ranges.
    pub fn range(&self, lo: &S::K, hi: &S::K) -> Vec<(S::K, S::V)> {
        self.snapshot().range(lo, hi)
    }

    /// Stream the entries with keys in `[lo, hi]` to `f` in global key
    /// order: a k-way merge over every shard's streaming range (hash
    /// partitioning interleaves the key space, so all shards
    /// participate), without materializing a sub-map or vector.
    ///
    /// **Epoch-fenced**: the scan internally takes a [`Self::snapshot`]
    /// (on more than one shard: fence + brief all-shard barrier), so a
    /// cross-shard `write_batch` can never appear torn mid-scan. Writers
    /// park for one flush per scan start; a scan over an already-held
    /// [`Snapshot`] avoids that cost entirely.
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

    /// Augmented value over keys in `[lo, hi]`: the combine of the
    /// per-shard `aug_range` results (O(shards × log n) — e.g. a range
    /// *sum* under `SumAug`). **Pin-consistent**; requires a
    /// **commutative** combine on more than one shard — see the module
    /// docs.
    pub fn aug_range(&self, lo: &S::K, hi: &S::K) -> S::A {
        self.shards.iter().fold(S::identity(), |acc, s| {
            S::combine(&acc, &s.engine.pin().map().aug_range(lo, hi))
        })
    }

    /// Augmented value of the whole store (O(shards)). Same caveats as
    /// [`Self::aug_range`].
    pub fn aug_val(&self) -> S::A {
        self.shards.iter().fold(S::identity(), |acc, s| {
            S::combine(&acc, &s.engine.pin().map().aug_val())
        })
    }

    /// Total entries across shards (**pin-consistent**: each shard's
    /// head read independently).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.engine.len()).sum()
    }

    /// Is every shard empty?
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.engine.is_empty())
    }

    // -- snapshots ---------------------------------------------------------

    /// Take a **consistent cross-shard snapshot** at a global epoch
    /// boundary: take the epoch fence's write side (waiting out any
    /// in-flight cross-shard batch submission), raise a submit barrier
    /// on every shard (new writes park; epochs already buffered drain),
    /// flush and pin every shard's head, release. The result contains
    /// every write acknowledged before the call, none submitted after
    /// the barrier was up, and every cross-shard batch **wholly or not
    /// at all** — a consistent cut of the version vector, stamped with
    /// the global epoch it cut at ([`Snapshot::global_epoch`]).
    ///
    /// The fence + barrier are brief (one flush per shard) but do park
    /// writers; for read paths that tolerate per-shard consistency,
    /// `get`/`get_many`/aug queries avoid them entirely. A **1-shard**
    /// store has nothing to fence — its head already is such a cut (every
    /// acked write is in it, and no batch can span shards) — so there a
    /// snapshot is one O(1) pin: no barrier, no parked writer, no
    /// group-commit window cut short.
    pub fn snapshot(&self) -> Snapshot<S> {
        if let [only] = self.shards.as_slice() {
            return Snapshot {
                pins: vec![only.engine.pin()],
                global_epoch: self.clock.current(),
            };
        }
        let _serialize = self.snapshot_gate.lock();
        // Write side of the epoch fence: once held, no cross-shard batch
        // is half-submitted anywhere.
        let parked = Instant::now();
        let _fence = self.fence.write();
        self.fence_obs.fence_wait.record_duration(parked.elapsed());
        self.fence_obs
            .snapshots_taken
            // relaxed: monitoring counter only
            .fetch_add(1, Ordering::Relaxed);
        let mut guard = BarrierGuard {
            shards: &self.shards,
            raised: 0,
        };
        for s in &self.shards {
            s.engine.pipeline().begin_barrier();
            guard.raised += 1;
        }
        // Every fully-submitted batch flushes through on every shard
        // before any head is pinned: the pins form one global-epoch cut.
        let pins = self
            .shards
            .iter()
            .map(|s| {
                s.engine.flush();
                s.engine.pin()
            })
            .collect();
        let global_epoch = self.clock.current();
        drop(guard); // lowers every barrier
        Snapshot { pins, global_epoch }
    }

    /// The most recently minted global epoch (0: no cross-shard batch
    /// stamped yet). Monotone; durable stores persist its committed
    /// watermark in the `MANIFEST`.
    pub fn global_epoch(&self) -> u64 {
        self.clock.current()
    }

    // -- observability -----------------------------------------------------

    /// Store-wide statistics: the per-shard stats (durability counters
    /// included when durable, zeros otherwise) folded with
    /// [`StoreStats::aggregate`], overlaid with the fence metrics
    /// ([`StoreStats::fence_wait`], [`StoreStats::snapshots_taken`]).
    pub fn stats(&self) -> StoreStats {
        aggregate_stats(&self.shards, &self.fence_obs)
    }

    /// Per-shard statistics, shard order (spot imbalanced partitions).
    pub fn stats_per_shard(&self) -> Vec<StoreStats> {
        self.shards.iter().map(Shard::stats).collect()
    }

    /// The worst health over all shards, the shard index prefixed to the
    /// reason: `Poisoned` with the original error after a commit-hook
    /// (WAL) fail-stop beats `Degraded` while a durable shard's
    /// background checkpointer keeps failing, which beats `Healthy`.
    pub fn health(&self) -> Health {
        worst_health(&self.shards)
    }

    /// Exact heap bytes reachable from the current version of every
    /// shard (shards share no nodes, so the per-shard numbers sum).
    pub fn memory_bytes(&self) -> usize {
        self.shards.iter().map(|s| s.engine.memory_bytes()).sum()
    }

    // -- the durability part -------------------------------------------------

    /// What recovery found per shard when this store was opened (empty
    /// for a volatile store).
    pub fn recovery(&self) -> &[RecoveryInfo] {
        self.durable.as_ref().map_or(&[], |d| &d.recovery)
    }

    /// Highest durable-and-published WAL epoch per shard (empty for a
    /// volatile store).
    pub fn wal_epochs(&self) -> Vec<u64> {
        self.shards
            .iter()
            .filter_map(|s| s.wal.as_ref().map(|w| w.published()))
            .collect()
    }

    /// The global epoch clock's committed watermark: every cross-shard
    /// batch stamped `<=` this value is decided (durable on all its
    /// shards, or discarded on all of them). At open this is the
    /// *maximum global epoch fully present on all shards* — the
    /// prefix-consistent cut recovery restored. Always 0 on a volatile
    /// store, where nothing is ever durable.
    pub fn global_watermark(&self) -> u64 {
        self.durable.as_ref().map_or(0, |d| d.tracker.watermark())
    }

    /// The directory holding the manifest and shard subdirectories
    /// (`None` for a volatile store).
    pub fn dir(&self) -> Option<&Path> {
        self.durable.as_ref().map(|d| d.dir.as_path())
    }

    /// The live telemetry endpoint's bound address, when
    /// [`DurabilityConfig::obs_addr`] was configured (resolves port 0).
    pub fn obs_addr(&self) -> Option<std::net::SocketAddr> {
        self.obs.as_ref().map(|o| o.local_addr())
    }
}

impl<S: AugSpec> std::fmt::Debug for Store<S>
where
    S::K: ShardKey,
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Store({} shards, len {}", self.num_shards(), self.len())?;
        match self.dir() {
            Some(dir) => write!(f, ", {})", dir.display()),
            None => write!(f, ", volatile)"),
        }
    }
}

/// A receipt for a [`Store::write_batch`]: one sub-ticket per shard that
/// received operations, plus the batch's global epoch stamp (when it
/// spanned more than one shard).
pub struct BatchTicket<S: AugSpec> {
    tickets: Vec<CommitTicket<S>>,
    global: Option<u64>,
}

impl<S: AugSpec> BatchTicket<S> {
    /// Block until every shard's slice of the batch is committed and
    /// published (**ack-vs-durable**: on a durable store, logged first);
    /// returns the per-slice version ids (shard order, shards that
    /// received no operations omitted — per-shard version ids are
    /// independent sequences).
    ///
    /// # Panics
    ///
    /// If a shard was poisoned by a failed commit hook (fail-stop).
    pub fn wait(&self) -> Vec<u64> {
        self.tickets.iter().map(|t| t.wait()).collect()
    }

    /// Have all slices committed (non-blocking)?
    pub fn is_done(&self) -> bool {
        self.tickets.iter().all(|t| t.is_done())
    }

    /// The global epoch this batch was stamped with, or `None` for the
    /// single-shard (and empty) fast path that needs no stamp.
    pub fn global_epoch(&self) -> Option<u64> {
        self.global
    }
}

// ---------------------------------------------------------------------------
// Consistent snapshots
// ---------------------------------------------------------------------------

/// A frozen, immutable view of a store: one pinned version per shard,
/// taken under the epoch fence and an all-shard submit barrier (see
/// [`Store::snapshot`]) — every cross-shard batch is contained wholly or
/// not at all (invariant I5). Reads never block, never change, and never
/// observe later writes. Holding the snapshot keeps its versions
/// alive; they die with their last holder. Cloning is O(shards).
pub struct Snapshot<S: AugSpec> {
    pins: Vec<PinnedVersion<S>>,
    global_epoch: u64,
}

impl<S: AugSpec> Snapshot<S>
where
    S::K: ShardKey,
{
    /// The pinned per-shard version ids — the snapshot's coordinate.
    pub fn version_vector(&self) -> Vec<VersionId> {
        self.pins.iter().map(|p| p.id()).collect()
    }

    /// The global epoch this snapshot cut at: every cross-shard batch
    /// stamped `<=` this epoch is wholly contained; none stamped after
    /// it is visible.
    pub fn global_epoch(&self) -> u64 {
        self.global_epoch
    }

    /// The pinned version of one shard.
    pub fn shard(&self, i: usize) -> &PinnedVersion<S> {
        &self.pins[i]
    }

    /// The value at `key` in this frozen view.
    pub fn get(&self, key: &S::K) -> Option<S::V> {
        let shard = route(key.shard_hash(), self.pins.len());
        self.pins[shard].map().get(key).cloned()
    }

    /// The values at several keys, results in input order — all from
    /// this one frozen view, so they are mutually consistent by
    /// construction (probed with the same scatter/sorted-gather
    /// discipline as [`Store::get_many`]).
    pub fn get_many(&self, keys: &[S::K]) -> Vec<Option<S::V>> {
        scatter_gather_get_many(self.pins.len(), keys, |i| self.pins[i].clone())
    }

    /// Total entries in the snapshot.
    pub fn len(&self) -> usize {
        self.pins.iter().map(|p| p.map().len()).sum()
    }

    /// Is the snapshot empty?
    pub fn is_empty(&self) -> bool {
        self.pins.iter().all(|p| p.map().is_empty())
    }

    /// All entries with keys in `[lo, hi]`, merged in key order.
    pub fn range(&self, lo: &S::K, hi: &S::K) -> Vec<(S::K, S::V)> {
        let mut out = Vec::new();
        self.range_for_each(lo, hi, |k, v| out.push((k.clone(), v.clone())));
        out
    }

    /// Stream the entries with keys in `[lo, hi]` to `f` in global key
    /// order (k-way merge over the pinned shards) without materializing
    /// them.
    pub fn range_for_each(&self, lo: &S::K, hi: &S::K, mut f: impl FnMut(&S::K, &S::V)) {
        self.range_try_for_each(lo, hi, |k, v| {
            f(k, v);
            ControlFlow::Continue(())
        });
    }

    /// [`Self::range_for_each`] with early exit: when `f` returns
    /// [`ControlFlow::Break`] the merge stops without pulling another
    /// entry from any shard, so a scan that wants `L` entries reads at
    /// most `L + shards` of them however wide `[lo, hi]` is.
    ///
    /// Shards partition the key space disjointly, so repeatedly emitting
    /// the smallest head is a strict global key order. O(emitted ×
    /// shards) comparisons — shard counts are small (≤ cores), so a
    /// linear head scan beats a heap.
    pub fn range_try_for_each(
        &self,
        lo: &S::K,
        hi: &S::K,
        mut f: impl FnMut(&S::K, &S::V) -> ControlFlow<()>,
    ) {
        let mut iters: Vec<_> = self
            .pins
            .iter()
            .map(|p| p.map().iter_range(lo, hi))
            .collect();
        let mut heads: Vec<Option<(&S::K, &S::V)>> = iters.iter_mut().map(|it| it.next()).collect();
        loop {
            let mut best: Option<(usize, &S::K, &S::V)> = None;
            for (i, head) in heads.iter().enumerate() {
                let Some((k, v)) = *head else { continue };
                if best.is_none_or(|(_, bk, _)| S::compare(k, bk).is_lt()) {
                    best = Some((i, k, v));
                }
            }
            let Some((i, k, v)) = best else { break };
            if f(k, v).is_break() {
                break;
            }
            heads[i] = iters[i].next();
        }
    }

    /// Augmented value over `[lo, hi]`. The per-shard values are
    /// combined out of key order, so on more than one shard the spec's
    /// combine must be commutative (all built-ins are).
    pub fn aug_range(&self, lo: &S::K, hi: &S::K) -> S::A {
        self.pins.iter().fold(S::identity(), |acc, p| {
            S::combine(&acc, &p.map().aug_range(lo, hi))
        })
    }

    /// Augmented value of the whole snapshot (same commutativity caveat
    /// as [`Self::aug_range`]).
    pub fn aug_val(&self) -> S::A {
        self.pins
            .iter()
            .fold(S::identity(), |acc, p| S::combine(&acc, &p.map().aug_val()))
    }
}

impl<S: AugSpec> Clone for Snapshot<S> {
    fn clone(&self) -> Self {
        Snapshot {
            pins: self.pins.clone(),
            global_epoch: self.global_epoch,
        }
    }
}

impl<S: AugSpec> std::fmt::Debug for Snapshot<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Snapshot(v{:?})",
            self.pins.iter().map(|p| p.id()).collect::<Vec<_>>()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StoreConfig;
    use pam::SumAug;
    use std::collections::BTreeMap;
    use std::time::Duration;

    type S = SumAug<u64, u64>;

    fn eager_config(shards: usize) -> ShardedConfig {
        ShardedConfig {
            shards,
            store: StoreConfig {
                batch_window: Duration::ZERO,
                ..StoreConfig::default()
            },
        }
    }

    fn eager(shards: usize) -> Store<S> {
        Store::volatile(eager_config(shards))
    }

    /// The store API end to end; run below over every cell of
    /// {1, 4 shards} × {volatile, durable}.
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
        assert_eq!(snap.global_epoch(), store.global_epoch());
        assert_eq!(store.get(&1), Some(999), "live store moved on");

        // single-key writes never carry a global epoch; a batch does
        // exactly when it spans shards
        let t = store.write_batch((100..132u64).map(|k| WriteOp::Put(k, k)));
        assert_eq!(t.global_epoch().is_some(), store.num_shards() > 1);
        t.wait();
        assert_eq!(store.snapshot().global_epoch(), store.global_epoch());
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
            assert_eq!(durable.wal_epochs().len(), shards);
            assert!(durable.stats().durability.wal_records > 0);
            let contents = durable.range(&0, &u64::MAX);
            drop(durable);
            // the one on-disk layout, whatever the shard count
            assert!(dir.join("MANIFEST").is_file());
            assert!(dir.join("shard-0").is_dir());
            assert!(!dir.join(format!("shard-{shards}")).exists());
            assert_eq!(open().range(&0, &u64::MAX), contents, "{shards} shards");
        }
        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn routing_partitions_every_key_once() {
        let store = eager(5);
        store.put_all((0..500u64).map(|k| (k, k))).wait();
        let total: usize = (0..5).map(|i| store.shard(i).len()).sum();
        assert_eq!(total, 500);
        for i in 0..5 {
            let pin = store.shard(i).pin();
            pin.map().for_each(|k, _| assert_eq!(store.shard_of(k), i));
            assert!(!pin.map().is_empty(), "shard {i} got no keys");
        }
    }

    #[test]
    fn point_reads_and_scatter_gather() {
        for shards in [1, 4] {
            let store = eager(shards);
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
    }

    #[test]
    fn merged_range_is_globally_ordered() {
        for shards in [1, 4] {
            let store = eager(shards);
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
    }

    #[test]
    fn a_breaking_visitor_stops_the_merge() {
        for shards in [1, 4] {
            let store = eager(shards);
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
    }

    #[test]
    fn aug_queries_combine_across_shards() {
        for shards in [1, 3] {
            let store = eager(shards);
            store.put_all((1..=100u64).map(|k| (k, k))).wait();
            assert_eq!(store.aug_val(), 5050);
            assert_eq!(store.aug_range(&10, &19), (10..=19).sum::<u64>());
            assert_eq!(store.len(), 100);
            assert!(!store.is_empty());
        }
    }

    #[test]
    fn cross_shard_batch_commits_atomically_with_a_stamp() {
        let store = eager(2);
        let t = store.write_batch(
            (0..100u64)
                .map(|k| WriteOp::Put(k, k))
                .chain(std::iter::once(WriteOp::Delete(50))),
        );
        assert_eq!(
            t.global_epoch(),
            Some(1),
            "a multi-shard batch mints the first global epoch"
        );
        let versions = t.wait();
        assert!(t.is_done());
        assert_eq!(versions.len(), 2, "both shards received ops");
        assert_eq!(store.len(), 99);
        assert_eq!(store.get(&50), None);
        assert_eq!(store.global_epoch(), 1);
        let snap = store.snapshot();
        assert_eq!(snap.global_epoch(), 1, "the snapshot cut at the stamp");
    }

    #[test]
    fn single_shard_batch_takes_the_fast_path_without_a_stamp() {
        let store = eager(4);
        // all ops on one key → one shard → no clock tick, no fence
        let t = store.write_batch(vec![WriteOp::Put(7, 1), WriteOp::Put(7, 2)]);
        assert_eq!(
            t.global_epoch(),
            None,
            "single-shard batches skip the clock"
        );
        t.wait();
        assert_eq!(store.global_epoch(), 0);
        // plain puts skip it too
        store.put(8, 8).wait();
        store.put_all(std::iter::once((9u64, 9u64))).wait();
        assert_eq!(store.global_epoch(), 0);
        assert_eq!(store.get(&7), Some(2));
        // a one-shard *store* can never span shards
        let one = eager(1);
        let t = one.write_batch((0..50u64).map(|k| WriteOp::Put(k, k)));
        assert_eq!(t.global_epoch(), None);
        t.wait();
        assert_eq!(one.global_epoch(), 0);
    }

    #[test]
    fn empty_cross_shard_batch_is_vacuously_committed() {
        let store = eager(3);
        let t = store.write_batch(std::iter::empty());
        assert_eq!(t.global_epoch(), None);
        assert!(t.is_done(), "an empty batch is already committed");
        assert_eq!(t.wait(), Vec::<u64>::new());
        assert_eq!(store.global_epoch(), 0, "no stamp was spent");
        assert!(store.is_empty());
        // empty submissions interleave harmlessly with real ones
        store.put(1, 1).wait();
        assert_eq!(store.write_batch(std::iter::empty()).wait().len(), 0);
        assert_eq!(store.len(), 1);
    }

    #[test]
    #[should_panic(expected = "global epoch clock overflow")]
    fn clock_overflow_is_a_guarded_panic_not_a_wrap() {
        let mut store = eager(2);
        store.clock = GlobalClock::Untracked(AtomicU64::new(u64::MAX - CLOCK_OVERFLOW_MARGIN));
        // spans both shards → must stamp → must hit the guard
        store.write_batch((0..16u64).map(|k| WriteOp::Put(k, k)));
    }

    #[test]
    fn snapshot_is_a_frozen_consistent_cut() {
        let store = eager(4);
        store.put_all((0..100u64).map(|k| (k, 1))).wait();
        let snap = store.snapshot();
        assert_eq!(snap.version_vector().len(), 4);
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
        assert_eq!(snap2.version_vector(), snap.version_vector());
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
        assert!(s.commits >= 4, "each shard committed at least once");
        let per = store.stats_per_shard();
        assert_eq!(per.len(), 4);
        assert_eq!(per.iter().map(|p| p.raw_ops).sum::<u64>(), 1000);
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
        assert_eq!(store.flush(), vec![store.shard(0).head_version()]);
        // its head is a consistent cut by itself: the snapshots and the
        // live scan above were plain pins — no fence, no barrier
        let s = store.stats();
        assert_eq!(s.snapshots_taken, 0);
        assert_eq!(s.fence_wait.count(), 0);
        // ... and a zero shard count is clamped to that case
        assert_eq!(eager(0).num_shards(), 1);
    }
}
