//! # pam-store — a versioned snapshot store over parallel augmented maps
//!
//! PAM's concurrency model (§4 of the paper) is "swap in a new root":
//! readers take O(1) persistent snapshots while one writer serializes
//! bulk updates. That is exactly the shape of a production multi-version
//! (MVCC) store, and this crate is the serving layer that turns the
//! primitive into one. There is **one store type**, [`Store`]: N ≥ 1
//! hash shards × an optional durability part, always weight-balanced.
//!
//! * **[`Store`]** ([`store`]) — hash-partitions the key space
//!   ([`ShardKey`], [`shard`]) across N independent per-shard engines:
//!   write parallelism beyond one committer, with scatter-gather reads,
//!   k-way merged range scans, and consistent cross-shard [`Snapshot`]s
//!   via a brief all-shard epoch barrier. [`Store::volatile`] keeps
//!   everything in memory; [`Store::open`] puts a WAL and checkpoints
//!   under every shard. The consistency contract of every method is
//!   stated in its rustdoc (see the [`store`] module docs for the
//!   ladder).
//! * **Per-shard engine** ([`VersionedStore`], reached through
//!   [`Store::shard`]) — a one-head **version registry** ([`registry`]) fed by a
//!   **group-commit write pipeline** ([`pipeline`]). Concurrent writers
//!   enqueue operations into an epoch buffer and immediately receive a
//!   [`CommitTicket`]. A dedicated committer thread — the engine's only
//!   writer — drains the buffer, normalizes the batch (parallel sort +
//!   last-write-wins dedup, via `parlay`), applies it to the map it owns
//!   with one work-optimal `multi_insert`/`multi_delete` per epoch
//!   (amortizing the O(log n) tree work across every writer in the
//!   window), and publishes the new root in the registry under the next
//!   [`VersionId`] — the single publication point every reader pins
//!   from. Versions are *refcount-pinned*: a version lives exactly as
//!   long as it is the head or somebody holds a [`PinnedVersion`] /
//!   [`Snapshot`] of it, and holding one is nearly free — path-copying
//!   means N similar versions share almost all of their nodes.
//! * **Cross-shard atomicity** — a **global epoch clock** stamps every
//!   multi-shard `write_batch` ([`GlobalStamp`]); the slices are
//!   submitted under an *epoch fence* and logged with the stamp, so
//!   epoch-fenced readers ([`Store::snapshot`],
//!   [`Store::range_for_each`]) never observe a torn batch, and a
//!   durable store crash-recovers every shard to the same global epoch
//!   (torn batches are discarded everywhere by a 2PC-style presence
//!   vote; the `MANIFEST` pins the clock).
//! * **Durability** ([`durable`]) — one WAL record, one group fsync per
//!   epoch (see `pam-wal`), logged by a [`CommitHook`] before the epoch
//!   is applied or acked; non-blocking snapshot checkpoints; recovery
//!   bulk-loads the newest checkpoint and replays the log, tolerating a
//!   torn final record. One on-disk layout whatever the shard count.
//! * **Stats surface** ([`stats`]) — per-stage commit latency histograms,
//!   batch sizes, fence waits, live versions, WAL/checkpoint counters, and
//!   a node-exact memory footprint built on `pam::stats`.
//!
//! ## Quick example
//!
//! ```
//! use pam_store::{ShardedConfig, Store};
//! use pam::SumAug;
//! use std::time::Duration;
//!
//! let store: Store<SumAug<u64, u64>> = Store::volatile(
//!     ShardedConfig::builder()
//!         .shards(1)
//!         .batch_window(Duration::from_micros(100))
//!         .build(),
//! );
//!
//! // writers get a ticket; the committer batches concurrent writes
//! let t = store.put(1, 10);
//! store.put(2, 20);
//! let v = t.wait(); // published (and, on a durable store, logged) in version `v`
//!
//! // readers never block: O(1) pin of the current version
//! assert_eq!(store.get(&1), Some(10));
//! assert_eq!(store.aug_range(&1, &2), 30); // augmented range sum
//!
//! // freeze the current state; later writes don't touch it
//! let snap = store.snapshot();
//! store.delete(1).wait();
//! assert_eq!(snap.get(&1), Some(10)); // history intact
//! assert_eq!(store.get(&1), None);
//! assert!(snap.shard(0).id() >= v);
//! ```

#![warn(missing_docs)]

mod config;
pub mod durable;
mod engine;
pub mod op;
pub mod pipeline;
pub mod registry;
pub mod shard;
pub mod stats;
pub mod store;

pub use config::{
    DurabilityConfig, DurabilityConfigBuilder, ShardedConfig, ShardedConfigBuilder, StoreConfig,
};
pub use durable::{RecoveryInfo, RecoveryTimings};
pub use engine::VersionedStore;
pub use op::{NormalizedBatch, WriteOp};
pub use pam_obs::Health;
pub use pam_wal::{Codec, GlobalStamp, SyncPolicy};
pub use pipeline::{CommitHook, CommitTicket};
pub use registry::{PinnedVersion, VersionId};
pub use shard::{Bytes, ShardKey};
pub use stats::{DurabilityStats, StoreStats};
pub use store::{BatchTicket, Snapshot, Store};

/// The frozen `benchmark/` package's name for [`Store`]; the next benchmark PR removes it.
pub type DurableShardedStore<S> = Store<S>;
