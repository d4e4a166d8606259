//! # pam-wal — durability for persistent-map stores
//!
//! `pam-store`'s group-commit pipeline already turns concurrent writers
//! into one immutable, normalized batch per *epoch* (sorted,
//! last-write-wins deduplicated). That shape makes durability unusually
//! cheap, and this crate supplies the three mechanisms:
//!
//! * **Write-ahead log** ([`wal`]) — a segmented append-only log of epoch
//!   records, each framed as `[len | crc32 | payload]`. One record per
//!   epoch means one append (and at most one fsync) amortized over every
//!   writer in the group-commit window. Fsync behaviour is a
//!   [`SyncPolicy`]; segments rotate at a size threshold so checkpoint
//!   truncation can reclaim space at file granularity.
//! * **Checkpoints** ([`checkpoint`]) — a full snapshot of the map in
//!   sorted order, written to a temp file and atomically renamed. Because
//!   PAM maps are functional, the caller can pin a version and stream it
//!   out while writers keep committing — checkpointing never pauses the
//!   store.
//! * **Recovery** — load the newest valid checkpoint, then replay WAL
//!   epochs past it ([`wal::Wal::open`] returns them in order). A torn
//!   final record (the classic crash-mid-append) is detected by the
//!   length/checksum frame and cleanly truncated; corruption anywhere
//!   else is reported as an error.
//! * **Cross-shard atomicity metadata** — epoch records may carry a
//!   [`GlobalStamp`] (the global epoch clock value and participant count
//!   of a cross-shard atomic batch), and the sharded [`manifest`] pins
//!   the clock's committed watermark plus the discarded-batch list, so a
//!   sharded store can recover all shards to one prefix-consistent
//!   global cut ([`wal::scan_global_stamps`] is the read-only pre-scan
//!   that recovery's 2PC presence vote runs first).
//!
//! Serialization goes through the [`Codec`] trait ([`codec`]), with
//! implementations for the usual key/value primitives (integers, strings,
//! byte vectors, tuples). The crate is deliberately free of any
//! tree-library dependency: it moves bytes, not maps. `pam-store`'s
//! `Store::open` does the wiring.

#![warn(missing_docs)]

pub mod checkpoint;
pub mod codec;
pub mod frame;
pub mod lock;
pub mod manifest;
pub mod record;
pub mod wal;

pub use codec::{put_varint, Codec, CodecError, Reader};
pub use lock::DirLock;
pub use manifest::Manifest;
pub use record::EpochBody;
pub use wal::{EpochRecord, GlobalStamp, SyncPolicy, Wal, WalConfig, WalObs};
