//! # pam-store — a versioned snapshot store over parallel augmented maps
//!
//! PAM's concurrency model (§4 of the paper) is "swap in a new root":
//! readers take O(1) persistent snapshots while one writer serializes
//! bulk updates. That is exactly the shape of a production multi-version
//! (MVCC) store, and this crate is the serving layer that turns the
//! primitive into one. There is **one store type**, [`Store`]: one map
//! × an optional durability part, always weight-balanced.
//!
//! * **[`Store`]** ([`store`]) — one `AugMap` behind **one**
//!   group-commit write pipeline and **one** version head; a
//!   [`Snapshot`] is one pin of its root. [`Store::volatile`] keeps
//!   everything in memory; [`Store::open`] puts one WAL, checkpoints cut
//!   into N key-range files and crash recovery under it. The consistency
//!   contract is stated in the [`store`] module docs.
//! * **The write path** — concurrent writers enqueue operations into the
//!   open epoch and immediately receive a [`CommitTicket`]. One commit at
//!   a time — on the store's committer thread, or on a lone writer's own
//!   while it waits on its ticket — takes the epoch, normalizes the batch (parallel sort + last-write-wins dedup, via
//!   `parlay`), applies it with one work-optimal `multi_update` — puts
//!   and deletes in one walk (amortizing the O(log n) tree work
//!   across every writer in the window), and publishes the new root as
//!   one version under the next [`VersionId`] — the single publication
//!   point every reader pins from. A version lives exactly as long as it
//!   is the head or somebody holds a [`Snapshot`] of it, and holding one
//!   is nearly free — path-copying means N similar versions share almost
//!   all of their nodes.
//! * **Durability** ([`durable`]) — one WAL record, one group fsync per
//!   epoch (see `pam-wal`), appended by the commit before the epoch
//!   is applied or acked, so a batch is whole in the log or absent;
//!   non-blocking snapshot checkpoints, each cut by rank into N
//!   contiguous key ranges; recovery bulk-loads the newest complete
//!   checkpoint's N files in parallel, unions them and replays the
//!   whole log tail as one `multi_update`, tolerating a torn final
//!   record.
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
//! // writers get a ticket; concurrent writes share an epoch
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

mod bytes;
mod config;
pub mod durable;
pub mod op;
mod pipeline;
mod registry;
pub mod stats;
pub mod store;

pub use bytes::Bytes;
pub use config::{DurabilityConfig, DurabilityConfigBuilder, ShardedConfig, ShardedConfigBuilder};
pub use durable::{RecoveryInfo, RecoveryTimings};
pub use op::{NormalizedBatch, WriteOp};
pub use pam_obs::Health;
pub use pam_wal::{Codec, SyncPolicy};
pub use pipeline::CommitTicket;
pub use registry::VersionId;
pub use stats::{DurabilityStats, StoreStats};
pub use store::{Snapshot, Store};

/// The frozen `benchmark/` package's name for [`Store`]; the next benchmark PR removes it.
pub type DurableShardedStore<S> = Store<S>;
