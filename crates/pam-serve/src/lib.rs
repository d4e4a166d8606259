//! # pam-serve — a network front end over `pam_store::Store`
//!
//! PAM's headline result (Sun, Ferizovic & Blelloch, PPoPP 2018) is that
//! batched bulk operations over a purely functional tree scale with
//! parallelism. This crate is the production embodiment of that claim: a
//! TCP server whose request path funnels every connection's writes into
//! the store's **group-commit pipeline** — thousands of concurrent
//! writers coalesce into few epochs, each applied with one work-optimal
//! `multi_insert` — while reads run off O(1) pinned snapshots (the
//! multi-version access pattern of the augmented-maps queries paper,
//! arXiv 1803.08621). The pin is one `Arc` clone under the shard's
//! registry mutex, which `publish` also takes; ROADMAP item 8 makes it
//! lock-free.
//!
//! * [`wire`] — the length-prefixed binary protocol, reusing the WAL's
//!   frame layout (`[len | crc32 | payload]`) and [`pam_wal::Codec`]
//!   varint encoding, with hostile-input caps the on-disk reader does
//!   not need.
//! * [`server`] — a hand-rolled threaded accept loop (std `TcpListener`,
//!   bounded worker pool — the `pam_obs::ObsServer` idiom, no async
//!   runtime) over an `Arc<`[`pam_store::Store`]`>`; includes the
//!   graceful-drain protocol.
//! * [`client`] — a small blocking client, used by the serve and crash
//!   tests.
//!
//! The binary (`pam-serve`) serves a durable
//! [`pam_store::Store`]`<NoAug<`[`pam_store::Bytes`]`, Bytes>>`: opaque
//! byte keys/values, per-shard WALs, cross-shard atomic batches, and an
//! optional `--obs-addr` telemetry endpoint. It drains gracefully when
//! its stdin reaches EOF. `Bytes` is refcounted, so a commit's path
//! copies share each entry's buffer instead of copying it; it encodes and
//! routes exactly as `Vec<u8>`, so the binary opens a directory a
//! `Vec<u8>` store wrote, and the reverse.

#![warn(missing_docs)]

pub mod client;
pub mod server;
pub mod wire;

pub use client::{Ack, Client};
pub use server::{serve, ServeConfig, Server};
pub use wire::{Request, Response, WireOp};
