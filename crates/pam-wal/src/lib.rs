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
//!   else is reported as an error. A store has one log, so a batch is
//!   one record: whole or absent, by its frame's checksum. The
//!   [`manifest`] pins how many key-range files a checkpoint is cut
//!   into.
//!
//! Serialization goes through the [`Codec`] trait ([`codec`]), with
//! implementations for the usual key/value primitives (integers, strings,
//! byte vectors, tuples). Each byte layout is written once: every counted
//! sequence is a *run* (`varint(n) ++ n × item`, [`codec::put_run`] and
//! [`Reader::run`]), so a checkpoint chunk, the puts of an epoch record
//! and a `pam-serve` `Scan` reply hold the same bytes for the same pairs,
//! and a run built in place is a [`frame::RunFrame`]. Each file step is
//! written once too: the log, the checkpoints and the manifest share one
//! private module for the directory fsync, the numbered file names and
//! the tmp → fsync → rename publish, whose leftovers
//! [`clean_temp_files`] removes at open. The crate is deliberately free of
//! any tree-library dependency: it moves bytes, not maps. `pam-store`'s
//! `Store::open` does the wiring.

#![warn(missing_docs)]

pub mod checkpoint;
pub mod codec;
mod files;
pub mod frame;
pub mod lock;
pub mod manifest;
pub mod record;
pub mod wal;

pub use codec::{put_varint, varint_len, Codec, CodecError, Reader};
pub use files::clean_temp_files;
pub use lock::DirLock;
pub use manifest::Manifest;
pub use record::EpochBody;
pub use wal::{EpochRecord, SyncPolicy, Wal, WalConfig, WalObs};
