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
//!   ([`ShardKey`], [`shard`]) across N shard maps behind **one**
//!   group-commit write pipeline and **one** version head, with
//!   scatter-gather reads, k-way merged range scans, and [`Snapshot`]s
//!   that are one pin of every shard. [`Store::volatile`] keeps
//!   everything in memory; [`Store::open`] puts one WAL, a checkpoint
//!   directory per shard and crash recovery under it. The consistency
//!   contract is stated in the [`store`] module docs.
//! * **The write path** — concurrent writers enqueue operations into the
//!   open epoch and immediately receive a [`CommitTicket`]. A dedicated
//!   committer thread — the store's only writer — drains the epoch,
//!   normalizes the batch (parallel sort + last-write-wins dedup, via
//!   `parlay`), routes it to its shards and applies each shard's slice
//!   with one work-optimal `multi_insert`/`multi_delete` (amortizing the
//!   O(log n) tree work across every writer in the window), and publishes
//!   every shard's root as one version under the next [`VersionId`] — the
//!   single publication point every reader pins from. A version lives
//!   exactly as long as it is the head or somebody holds a [`Snapshot`]
//!   of it, and holding one is nearly free — path-copying means N
//!   similar versions share almost all of their nodes.
//! * **Durability** ([`durable`]) — one WAL record, one group fsync per
//!   epoch (see `pam-wal`), appended by the committer before the epoch
//!   is applied or acked, so a batch spanning shards is whole in the log
//!   or absent; non-blocking snapshot checkpoints; recovery bulk-loads
//!   every shard's newest checkpoint and replays the log once, tolerating
//!   a torn final record. One on-disk layout whatever the shard count.
//! * **Stats surface** ([`stats`]) — per-stage commit latency histograms,
//!   batch sizes, live versions, WAL/checkpoint counters, and a
//!   node-exact memory footprint built on `pam::stats`.
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
//! assert!(snap.version() >= v);
//! ```

#![warn(missing_docs)]

mod config;
pub mod durable;
pub mod op;
mod pipeline;
mod registry;
pub mod shard;
pub mod stats;
pub mod store;

pub use config::{DurabilityConfig, DurabilityConfigBuilder, ShardedConfig, ShardedConfigBuilder};
pub use durable::{RecoveryInfo, RecoveryTimings};
pub use op::{NormalizedBatch, WriteOp};
pub use pam_obs::Health;
pub use pam_wal::{Codec, SyncPolicy};
pub use pipeline::CommitTicket;
pub use registry::VersionId;
pub use shard::{Bytes, ShardKey};
pub use stats::{DurabilityStats, StoreStats};
pub use store::{Snapshot, Store};

/// The frozen `benchmark/` package's name for [`Store`]; the next benchmark PR removes it.
pub type DurableShardedStore<S> = Store<S>;
