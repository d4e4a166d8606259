//! Stable key→shard routing, and the one read discipline built on it.
//!
//! A [`crate::Store`] hash-partitions its key space across N shards. For
//! a durable store each shard has its own WAL directory, so the
//! assignment `hash(key) % N` is part of the on-disk format: the hash
//! ([`ShardKey`]) must never change, and the shard count is pinned by the
//! manifest. [`Bytes`], the shared byte string `pam-serve` stores, lives
//! here because it must route (and encode) exactly as `Vec<u8>`.

use crate::registry::PinnedVersion;
use pam::{AugMap, AugSpec};
use pam_wal::{put_varint, Codec, CodecError, Reader};
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// A key that can be routed to a shard.
///
/// The hash must be **stable across processes and runs**: a durable
/// store persists each shard's data under its own WAL directory, so the
/// key→shard assignment is part of the on-disk format. (This is
/// why `std::hash::Hash` is not used — `DefaultHasher` makes no
/// cross-version stability promise.) Implementations must also spread
/// adjacent keys: range scans already pay a k-way merge, and a hash that
/// clumps consecutive keys onto one shard re-serializes the write load.
pub trait ShardKey {
    /// A well-mixed, stable 64-bit hash of the key.
    fn shard_hash(&self) -> u64;
}

/// SplitMix64 finalizer: cheap, stable, and passes avalanche tests —
/// every input bit flips every output bit with probability ~1/2, so
/// `hash % shards` stays uniform even for sequential integer keys.
#[inline]
pub(crate) fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// FNV-1a over a byte string, finalized with [`mix64`] (FNV alone has
/// weak high bits; the finalizer fixes the distribution for `% shards`).
#[inline]
fn hash_bytes(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    mix64(h)
}

macro_rules! impl_shardkey_uint {
    ($($t:ty),*) => {$(
        impl ShardKey for $t {
            #[inline]
            fn shard_hash(&self) -> u64 {
                mix64(*self as u64)
            }
        }
    )*};
}
impl_shardkey_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_shardkey_int {
    ($($t:ty => $u:ty),*) => {$(
        impl ShardKey for $t {
            #[inline]
            fn shard_hash(&self) -> u64 {
                mix64(*self as $u as u64)
            }
        }
    )*};
}
impl_shardkey_int!(i8 => u8, i16 => u16, i32 => u32, i64 => u64, isize => usize);

impl ShardKey for u128 {
    #[inline]
    fn shard_hash(&self) -> u64 {
        mix64((*self as u64) ^ mix64((*self >> 64) as u64))
    }
}

impl ShardKey for i128 {
    #[inline]
    fn shard_hash(&self) -> u64 {
        (*self as u128).shard_hash()
    }
}

impl ShardKey for String {
    #[inline]
    fn shard_hash(&self) -> u64 {
        hash_bytes(self.as_bytes())
    }
}

impl ShardKey for str {
    #[inline]
    fn shard_hash(&self) -> u64 {
        hash_bytes(self.as_bytes())
    }
}

impl ShardKey for Vec<u8> {
    #[inline]
    fn shard_hash(&self) -> u64 {
        hash_bytes(self)
    }
}

impl ShardKey for [u8] {
    #[inline]
    fn shard_hash(&self) -> u64 {
        hash_bytes(self)
    }
}

/// An immutable, reference-counted byte string: `Clone` bumps a
/// refcount instead of copying the bytes.
///
/// A path copy clones every key and value of the block and the pivots it
/// rewrites, so with `Bytes` entries a commit shares buffers with the
/// version it replaced instead of allocating and copying each one — the
/// O(1)-per-copied-node cost PAM's persistence assumes. Order, equality
/// and hashing are by content, lexicographic, exactly as for `Vec<u8>`.
///
/// Two invariants make `Bytes` and `Vec<u8>` interchangeable over one
/// durable directory:
/// - **the same on-disk bytes**: [`Codec`] writes a varint length, then
///   the bytes, exactly as `Vec<u8>` does, so checkpoints and WAL
///   records are byte-identical;
/// - **the same shard**: [`ShardKey`] hashes the same bytes as
///   `Vec<u8>`, so every key routes where a `Vec<u8>` key would.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Bytes(Arc<[u8]>);

impl Deref for Bytes {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl AsRef<[u8]> for Bytes {
    #[inline]
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl From<Vec<u8>> for Bytes {
    #[inline]
    fn from(v: Vec<u8>) -> Self {
        Bytes(v.into())
    }
}

impl From<&[u8]> for Bytes {
    #[inline]
    fn from(s: &[u8]) -> Self {
        Bytes(s.into())
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self[..], f)
    }
}

impl Codec for Bytes {
    fn encode(&self, out: &mut Vec<u8>) {
        put_varint(out, self.len() as u64);
        out.extend_from_slice(self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let n = r.length()?;
        Ok(Bytes::from(r.take(n)?))
    }
}

impl ShardKey for Bytes {
    #[inline]
    fn shard_hash(&self) -> u64 {
        hash_bytes(self)
    }
}

impl<A: ShardKey, B: ShardKey> ShardKey for (A, B) {
    #[inline]
    fn shard_hash(&self) -> u64 {
        mix64(self.0.shard_hash() ^ self.1.shard_hash().rotate_left(32))
    }
}

/// The one key→shard routing expression (`hash % shards`), shared by the
/// live store and the snapshot so the two can never diverge.
#[inline]
pub(crate) fn route(hash: u64, shards: usize) -> usize {
    (hash % shards as u64) as usize
}

/// Probe `map` for `keys[i]` at each `i` in `idxs`, writing the results
/// into `out[i]`. Probes run in sorted key order so successive lookups
/// share their upper tree path in cache.
fn gather_in_key_order<S: AugSpec>(
    map: &AugMap<S>,
    keys: &[S::K],
    idxs: &mut [usize],
    out: &mut [Option<S::V>],
) {
    idxs.sort_by(|&a, &b| S::compare(&keys[a], &keys[b]));
    for &i in idxs.iter() {
        out[i] = map.get(&keys[i]).cloned();
    }
}

/// Scatter `keys` to their owning shards, probe each involved shard from
/// one pinned version (obtained via `pin`), and gather the results back
/// in input order — the shared body of [`crate::Store::get_many`] (pins
/// each involved shard's live head) and [`crate::Snapshot::get_many`]
/// (reuses the snapshot's pins).
pub(crate) fn scatter_gather_get_many<S, F>(
    shards: usize,
    keys: &[S::K],
    pin: F,
) -> Vec<Option<S::V>>
where
    S: AugSpec,
    S::K: ShardKey,
    F: Fn(usize) -> PinnedVersion<S>,
{
    let mut index_of: Vec<Vec<usize>> = (0..shards).map(|_| Vec::new()).collect();
    for (i, k) in keys.iter().enumerate() {
        index_of[route(k.shard_hash(), shards)].push(i);
    }
    let mut out: Vec<Option<S::V>> = vec![None; keys.len()];
    for (shard, idxs) in index_of.iter_mut().enumerate() {
        if idxs.is_empty() {
            continue;
        }
        let pinned = pin(shard);
        gather_in_key_order(pinned.map(), keys, idxs, &mut out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix64_spreads_sequential_keys() {
        let shards = 4u64;
        let mut counts = [0usize; 4];
        for k in 0..10_000u64 {
            counts[(k.shard_hash() % shards) as usize] += 1;
        }
        for &c in &counts {
            assert!(
                (2000..=3000).contains(&c),
                "sequential keys must spread evenly, got {counts:?}"
            );
        }
    }

    #[test]
    fn string_and_tuple_hashes_are_stable() {
        // Pinned values: the hash is part of the durable format — if one
        // of these changes, existing store directories break.
        assert_eq!(42u64.shard_hash(), mix64(42));
        assert_eq!(
            "user:alice".shard_hash(),
            String::from("user:alice").shard_hash()
        );
        assert_eq!(vec![1u8, 2, 3].shard_hash(), [1u8, 2, 3][..].shard_hash());
        assert_eq!(
            Bytes::from(vec![1, 2, 3]).shard_hash(),
            vec![1u8, 2, 3].shard_hash()
        );
        assert_ne!((1u64, 2u64).shard_hash(), (2u64, 1u64).shard_hash());
    }
}
