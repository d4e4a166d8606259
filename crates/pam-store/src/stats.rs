//! The store's observability surface.
//!
//! Counters and latency histograms are lock-free atomics bumped by each
//! commit (see `pam_obs::Histogram` — wait-free recording); a
//! coherent [`StoreStats`] snapshot is assembled on demand. The memory
//! number ([`crate::Store::memory_bytes`]) is an exact distinct-node walk
//! (`pam::stats`) over the head version alone: an older version a
//! snapshot still holds costs only the nodes it does not share with the
//! head, and path copying keeps that small.
//!
//! Every histogram records **nanoseconds**. [`StoreStats::export_into`]
//! publishes the whole snapshot into a [`pam_obs::MetricsRegistry`]
//! under the canonical `pam_*` metric names (see the "Observability"
//! section of ARCHITECTURE.md), from which Prometheus-text or JSON
//! exposition follows.

use pam_obs::{Histogram, HistogramSnapshot, MetricsRegistry};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Per-stage wall times of one committed epoch, measured by whoever
/// committed it.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct CommitTiming {
    /// Whole commit: normalize + WAL + apply + publish.
    pub total: Duration,
    /// Group-commit window occupancy: how long the epoch segment sat
    /// open accumulating writes before the committer drained it.
    pub window: Duration,
    /// Sort + last-write-wins deduplication.
    pub normalize: Duration,
    /// WAL append (+ fsync, per the policy) for a durable store; zero
    /// for a volatile one.
    pub wal_log: Duration,
    /// The epoch's `multi_update`: its puts and deletes, in one walk.
    pub apply: Duration,
    /// Version-registry publish.
    pub publish: Duration,
}

#[derive(Default)]
pub(crate) struct StatsInner {
    commits: AtomicU64,
    commits_by_writer: AtomicU64,
    raw_ops: AtomicU64,
    applied_ops: AtomicU64,
    max_batch: AtomicU64,
    commit: Histogram,
    commit_window: Histogram,
    commit_normalize: Histogram,
    commit_wal_log: Histogram,
    commit_apply: Histogram,
    commit_publish: Histogram,
}

impl StatsInner {
    pub fn record_commit(
        &self,
        raw_ops: usize,
        applied_ops: usize,
        by_writer: bool,
        timing: CommitTiming,
    ) {
        // relaxed: throughput counters on the commit hot path — nothing
        // reads them for synchronization, only stats() (all five below)
        self.commits.fetch_add(1, Ordering::Relaxed);
        if by_writer {
            // relaxed: see above
            self.commits_by_writer.fetch_add(1, Ordering::Relaxed);
        }
        self.raw_ops.fetch_add(raw_ops as u64, Ordering::Relaxed); // relaxed: see above
        self.applied_ops
            // relaxed: see above
            .fetch_add(applied_ops as u64, Ordering::Relaxed);
        self.max_batch.fetch_max(raw_ops as u64, Ordering::Relaxed); // relaxed: see above
        self.commit.record_duration(timing.total);
        self.commit_window.record_duration(timing.window);
        self.commit_normalize.record_duration(timing.normalize);
        self.commit_wal_log.record_duration(timing.wal_log);
        self.commit_apply.record_duration(timing.apply);
        self.commit_publish.record_duration(timing.publish);
    }
}

/// A point-in-time summary of store activity.
#[derive(Clone, Debug, Default)]
pub struct StoreStats {
    /// Commits (group-commit epochs) applied so far.
    pub commits: u64,
    /// Of [`Self::commits`], those a waiting writer committed on its own
    /// thread instead of handing the epoch to the committer thread (a
    /// lone writer's epochs; see `CommitTicket::wait`).
    pub commits_by_writer: u64,
    /// Operations enqueued by writers and drained by the committer.
    pub raw_ops: u64,
    /// Operations surviving last-write-wins deduplication.
    pub applied_ops: u64,
    /// Largest single batch (raw operations) drained in one epoch.
    pub max_batch: u64,
    /// Mean wall time of a commit (derived from [`Self::commit`]).
    pub mean_commit: Duration,
    /// Worst-case commit wall time (derived from [`Self::commit`]).
    pub max_commit: Duration,
    /// Whole-commit latency distribution, nanoseconds.
    pub commit: HistogramSnapshot,
    /// Group-commit window occupancy: time each epoch segment sat open
    /// accumulating writes before the committer drained it.
    pub commit_window: HistogramSnapshot,
    /// Normalize stage (sort + last-write-wins) latency.
    pub commit_normalize: HistogramSnapshot,
    /// WAL stage latency (append + any fsync; all-zero for a volatile
    /// store).
    pub commit_wal_log: HistogramSnapshot,
    /// Apply stage (bulk insert + bulk delete) latency.
    pub commit_apply: HistogramSnapshot,
    /// Publish stage (registry swap) latency.
    pub commit_publish: HistogramSnapshot,
    /// Always empty: no write or snapshot waits on a fence. Kept only
    /// because the frozen benchmark package reads it; its next revision
    /// deletes the field.
    pub fence_wait: HistogramSnapshot,
    /// Versions alive right now: the head plus every older version a
    /// [`crate::Snapshot`] still holds.
    pub live_versions: usize,
    /// Versions dropped since the store opened (`live_versions +
    /// retired_versions` is the number of versions published since, the
    /// one it opened at included).
    pub retired_versions: u64,
    /// Current head version id.
    pub head_version: u64,
    /// Durability counters (all zero / `None` for a volatile store).
    pub durability: DurabilityStats,
}

/// WAL and checkpoint activity of a durable store.
#[derive(Clone, Debug, Default)]
pub struct DurabilityStats {
    /// Epoch records appended to the write-ahead log.
    pub wal_records: u64,
    /// Bytes appended to the write-ahead log (framing included).
    pub wal_bytes: u64,
    /// Fsyncs issued by the log: at most one per epoch, regardless of
    /// writer count (group commit), plus those that seal a segment or
    /// close the log: the count of [`Self::wal_fsync`].
    pub wal_fsyncs: u64,
    /// Live WAL segment files.
    pub wal_segments: u64,
    /// WAL segment rotations performed since open.
    pub wal_rotations: u64,
    /// Whole-append latency distribution (rotation + write + any
    /// fsync), nanoseconds.
    pub wal_append: HistogramSnapshot,
    /// Fsync (`sync_data`) latency distribution, nanoseconds.
    pub wal_fsync: HistogramSnapshot,
    /// Checkpoints written since open.
    pub checkpoints: u64,
    /// Bytes written by checkpoints since open.
    pub checkpoint_bytes: u64,
    /// Whole-checkpoint duration distribution, nanoseconds.
    pub checkpoint: HistogramSnapshot,
    /// How long each checkpoint held its version pin (the window in
    /// which that version's memory could not be reclaimed).
    pub checkpoint_pin_hold: HistogramSnapshot,
    /// Highest WAL epoch covered by the newest checkpoint.
    pub last_checkpoint_epoch: u64,
    /// Time since the newest checkpoint was written in this process
    /// (`None`: no checkpoint yet this run).
    pub last_checkpoint_age: Option<Duration>,
}

impl std::fmt::Display for DurabilityStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "wal {} records / {} KiB / {} fsyncs (p99 {:?}) / {} segments, {} checkpoints (last: epoch {}, {})",
            self.wal_records,
            self.wal_bytes / 1024,
            self.wal_fsyncs,
            Duration::from_nanos(self.wal_fsync.p99()),
            self.wal_segments,
            self.checkpoints,
            self.last_checkpoint_epoch,
            match self.last_checkpoint_age {
                Some(age) => format!("{age:.1?} ago"),
                None => "none this run".to_string(),
            },
        )
    }
}

impl StoreStats {
    pub(crate) fn from_inner(
        inner: &StatsInner,
        live_versions: usize,
        retired_versions: u64,
        head_version: u64,
    ) -> Self {
        let commit = inner.commit.snapshot();
        StoreStats {
            // relaxed: stats snapshot — counters are independent and
            // tolerate sampling skew (all five below)
            commits: inner.commits.load(Ordering::Relaxed),
            commits_by_writer: inner.commits_by_writer.load(Ordering::Relaxed), // relaxed: see above
            raw_ops: inner.raw_ops.load(Ordering::Relaxed), // relaxed: see above
            applied_ops: inner.applied_ops.load(Ordering::Relaxed), // relaxed: see above
            max_batch: inner.max_batch.load(Ordering::Relaxed), // relaxed: see above
            mean_commit: Duration::from_nanos(commit.mean()),
            max_commit: Duration::from_nanos(commit.max()),
            commit,
            commit_window: inner.commit_window.snapshot(),
            commit_normalize: inner.commit_normalize.snapshot(),
            commit_wal_log: inner.commit_wal_log.snapshot(),
            commit_apply: inner.commit_apply.snapshot(),
            commit_publish: inner.commit_publish.snapshot(),
            fence_wait: HistogramSnapshot::default(),
            live_versions,
            retired_versions,
            head_version,
            durability: DurabilityStats::default(),
        }
    }

    /// Mean raw operations per commit — the group-commit amortization
    /// factor (1.0 means no batching benefit).
    pub fn mean_batch(&self) -> f64 {
        self.raw_ops as f64 / self.commits.max(1) as f64
    }

    /// Publish this snapshot into `registry` under the canonical
    /// `pam_*` metric names (listed in ARCHITECTURE.md §Observability).
    /// Every metric is exported unconditionally — an idle store shows
    /// zeros rather than absent series — and re-exporting overwrites
    /// the previous values, so calling this periodically on the same
    /// registry yields a scrapeable surface.
    pub fn export_into(&self, registry: &MetricsRegistry) {
        registry.export_counter("pam_commits_total", self.commits);
        registry.export_counter("pam_commits_by_writer_total", self.commits_by_writer);
        registry.export_counter("pam_raw_ops_total", self.raw_ops);
        registry.export_counter("pam_applied_ops_total", self.applied_ops);
        registry.export_counter("pam_max_batch_ops", self.max_batch);
        registry.export_gauge("pam_live_versions", self.live_versions as i64);
        registry.export_counter("pam_retired_versions_total", self.retired_versions);
        registry.export_gauge("pam_head_version", self.head_version as i64);
        registry.export_histogram("pam_commit_nanos", self.commit.clone());
        registry.export_histogram("pam_commit_window_nanos", self.commit_window.clone());
        registry.export_histogram("pam_commit_normalize_nanos", self.commit_normalize.clone());
        registry.export_histogram("pam_commit_wal_log_nanos", self.commit_wal_log.clone());
        registry.export_histogram("pam_commit_apply_nanos", self.commit_apply.clone());
        registry.export_histogram("pam_commit_publish_nanos", self.commit_publish.clone());
        let d = &self.durability;
        registry.export_counter("pam_wal_records_total", d.wal_records);
        registry.export_counter("pam_wal_bytes_total", d.wal_bytes);
        registry.export_counter("pam_wal_fsyncs_total", d.wal_fsyncs);
        registry.export_gauge("pam_wal_segments", d.wal_segments as i64);
        registry.export_counter("pam_wal_rotations_total", d.wal_rotations);
        registry.export_histogram("pam_wal_append_nanos", d.wal_append.clone());
        registry.export_histogram("pam_wal_fsync_nanos", d.wal_fsync.clone());
        registry.export_counter("pam_checkpoints_total", d.checkpoints);
        registry.export_counter("pam_checkpoint_bytes_total", d.checkpoint_bytes);
        registry.export_histogram("pam_checkpoint_nanos", d.checkpoint.clone());
        registry.export_histogram("pam_checkpoint_pin_nanos", d.checkpoint_pin_hold.clone());
    }
}

impl std::fmt::Display for StoreStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "v{} | {} commits, {} ops ({} applied after LWW), mean batch {:.1}, \
             commit mean {:?} p99 {:?} max {:?}, {} live / {} retired versions",
            self.head_version,
            self.commits,
            self.raw_ops,
            self.applied_ops,
            self.mean_batch(),
            self.mean_commit,
            Duration::from_nanos(self.commit.p99()),
            self.max_commit,
            self.live_versions,
            self.retired_versions,
        )?;
        if self.durability.wal_records > 0 || self.durability.checkpoints > 0 {
            write!(f, " | {}", self.durability)?;
        }
        Ok(())
    }
}
