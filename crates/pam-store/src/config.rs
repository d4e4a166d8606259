//! Store tuning knobs.
//!
//! [`ShardedConfig`] and [`DurabilityConfig`] — the two a [`crate::Store`]
//! is opened with — offer a fluent builder:
//!
//! ```
//! use pam_store::{DurabilityConfig, ShardedConfig};
//! use pam_wal::SyncPolicy;
//!
//! let cfg = ShardedConfig::builder()
//!     .shards(4)
//!     .batch_window(std::time::Duration::from_micros(100))
//!     .build();
//! let dur = DurabilityConfig::builder()
//!     .sync(SyncPolicy::SyncEveryN(8))
//!     .obs_addr("127.0.0.1:0")
//!     .build();
//! # let _ = (cfg, dur);
//! ```
//!
//! The structs also keep public fields and `Default` impls, so struct
//! update syntax (`ShardedConfig { batch_window, ..Default::default() }`)
//! works too.

use pam_wal::SyncPolicy;
use std::time::Duration;

/// Configuration for a [`crate::Store`]: how many key-range files a
/// checkpoint is cut into, plus the tuning of its one group-commit
/// pipeline.
///
/// The store is one map whatever `shards` says: the count only decides
/// how many files a checkpoint writes, and so how many recovery loads in
/// parallel. For a durable store it is pinned on disk by a manifest;
/// reopening with a different count is refused.
#[derive(Clone, Debug)]
pub struct ShardedConfig {
    /// Number of key-range files per checkpoint (0 is clamped to 1).
    pub shards: usize,
    /// The *group-commit window*: the upper bound on how long the
    /// committer holds an epoch open after its first operation so that
    /// concurrent writers pile into the same batch — not a fixed delay.
    /// The committer estimates the gap between submissions and lingers
    /// only while more writers are due before the window runs out,
    /// closing on the first quiet stretch: a writer that waits for its
    /// acks and has nobody to share an epoch with is committed at once
    /// whatever this is set to, while many concurrent writers — or a
    /// steady stream of writes nobody waits for — share epochs up to
    /// this long.
    /// `Duration::ZERO` never lingers: smallest latency, smallest
    /// batches.
    pub batch_window: Duration,
    /// Drain the epoch as soon as this many operations are buffered,
    /// even if the window has not elapsed (bounds batch latency and
    /// memory under write bursts; 0 is clamped to 1).
    pub max_batch: usize,
}

impl Default for ShardedConfig {
    fn default() -> Self {
        ShardedConfig {
            shards: 4,
            batch_window: Duration::from_micros(200),
            max_batch: 1 << 14,
        }
    }
}

/// Durability tuning for [`crate::Store::open`].
///
/// The write-amplification story is unusually good here: group commit
/// means one WAL record (and at most one fsync) per *epoch*, not per
/// write, and checkpoints stream a pinned persistent snapshot without
/// pausing writers — so the defaults lean toward safety.
#[derive(Clone, Debug)]
pub struct DurabilityConfig {
    /// When the WAL fsyncs (see [`SyncPolicy`]). Default:
    /// [`SyncPolicy::SyncEachEpoch`] — an acked write is on disk. Every
    /// epoch honors it, a batch included: the batch is one record.
    pub sync: SyncPolicy,
    /// WAL segment rotation threshold in bytes. Smaller segments mean
    /// finer-grained space reclamation after checkpoints.
    pub segment_bytes: u64,
    /// Write a checkpoint automatically once this many WAL bytes have
    /// accumulated since the last one (`None`: only explicit
    /// `checkpoint()` calls).
    pub checkpoint_every_bytes: Option<u64>,
    /// Bind a live telemetry endpoint (`pam_obs::ObsServer`) on this
    /// address at open — e.g. `"127.0.0.1:9184"`, or port `0` to pick a
    /// free port (read it back with [`crate::Store::obs_addr`]). The
    /// server serves `/metrics`, `/metrics.json`, `/events`, `/health`,
    /// and `/trace` for this store and shuts down when the store drops.
    /// `None` (the default): no listener.
    pub obs_addr: Option<String>,
}

impl Default for DurabilityConfig {
    fn default() -> Self {
        DurabilityConfig {
            sync: SyncPolicy::SyncEachEpoch,
            segment_bytes: 16 << 20,
            checkpoint_every_bytes: Some(64 << 20),
            obs_addr: None,
        }
    }
}

// ---------------------------------------------------------------------------
// Builders
// ---------------------------------------------------------------------------

impl ShardedConfig {
    /// Start a [`ShardedConfigBuilder`] seeded with the defaults.
    pub fn builder() -> ShardedConfigBuilder {
        ShardedConfigBuilder {
            cfg: ShardedConfig::default(),
        }
    }
}

/// Fluent builder for [`ShardedConfig`]; see the module docs for an
/// example.
#[derive(Clone, Debug, Default)]
pub struct ShardedConfigBuilder {
    cfg: ShardedConfig,
}

impl ShardedConfigBuilder {
    /// Set the number of files per checkpoint (see
    /// [`ShardedConfig::shards`]).
    pub fn shards(mut self, n: usize) -> Self {
        self.cfg.shards = n;
        self
    }

    /// Set the group-commit window (see [`ShardedConfig::batch_window`]).
    pub fn batch_window(mut self, window: Duration) -> Self {
        self.cfg.batch_window = window;
        self
    }

    /// Set the epoch-drain cap (see [`ShardedConfig::max_batch`]).
    pub fn max_batch(mut self, ops: usize) -> Self {
        self.cfg.max_batch = ops;
        self
    }

    /// Finish, yielding the [`ShardedConfig`].
    pub fn build(self) -> ShardedConfig {
        self.cfg
    }
}

impl DurabilityConfig {
    /// Start a [`DurabilityConfigBuilder`] seeded with the defaults.
    pub fn builder() -> DurabilityConfigBuilder {
        DurabilityConfigBuilder {
            cfg: DurabilityConfig::default(),
        }
    }
}

/// Fluent builder for [`DurabilityConfig`]; see the module docs for an
/// example.
#[derive(Clone, Debug, Default)]
pub struct DurabilityConfigBuilder {
    cfg: DurabilityConfig,
}

impl DurabilityConfigBuilder {
    /// Set the WAL fsync cadence (see [`DurabilityConfig::sync`]).
    pub fn sync(mut self, sync: SyncPolicy) -> Self {
        self.cfg.sync = sync;
        self
    }

    /// Set the WAL segment rotation threshold (see
    /// [`DurabilityConfig::segment_bytes`]).
    pub fn segment_bytes(mut self, bytes: u64) -> Self {
        self.cfg.segment_bytes = bytes;
        self
    }

    /// Checkpoint automatically every `bytes` of WAL growth (see
    /// [`DurabilityConfig::checkpoint_every_bytes`]).
    pub fn checkpoint_every_bytes(mut self, bytes: u64) -> Self {
        self.cfg.checkpoint_every_bytes = Some(bytes);
        self
    }

    /// Disable automatic checkpoints; only explicit `checkpoint()` calls
    /// write one.
    pub fn manual_checkpoints_only(mut self) -> Self {
        self.cfg.checkpoint_every_bytes = None;
        self
    }

    /// Bind a live telemetry endpoint at open (see
    /// [`DurabilityConfig::obs_addr`]).
    pub fn obs_addr(mut self, addr: impl Into<String>) -> Self {
        self.cfg.obs_addr = Some(addr.into());
        self
    }

    /// Finish, yielding the [`DurabilityConfig`].
    pub fn build(self) -> DurabilityConfig {
        self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_cover_every_knob() {
        let cfg = ShardedConfig::builder()
            .shards(8)
            .batch_window(Duration::from_micros(50))
            .max_batch(512)
            .build();
        assert_eq!(cfg.shards, 8);
        assert_eq!(cfg.batch_window, Duration::from_micros(50));
        assert_eq!(cfg.max_batch, 512);

        let dur = DurabilityConfig::builder()
            .sync(SyncPolicy::SyncEveryN(8))
            .segment_bytes(1 << 20)
            .checkpoint_every_bytes(4 << 20)
            .obs_addr("127.0.0.1:0")
            .build();
        assert!(matches!(dur.sync, SyncPolicy::SyncEveryN(8)));
        assert_eq!(dur.segment_bytes, 1 << 20);
        assert_eq!(dur.checkpoint_every_bytes, Some(4 << 20));
        assert_eq!(dur.obs_addr.as_deref(), Some("127.0.0.1:0"));

        let manual = DurabilityConfig::builder()
            .manual_checkpoints_only()
            .build();
        assert_eq!(manual.checkpoint_every_bytes, None);
    }
}
