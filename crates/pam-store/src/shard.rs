//! Stable key→shard routing, and the write and read disciplines built on
//! it.
//!
//! A [`crate::Store`] hash-partitions its key space across N shard maps.
//! For a durable store each shard checkpoints into its own directory, so
//! the assignment `hash(key) % N` is part of the on-disk format: the hash
//! ([`ShardKey`]) must never change, and the shard count is pinned by the
//! manifest. [`Bytes`], the shared byte string `pam-serve` stores, lives
//! here because it must route (and encode) exactly as `Vec<u8>`.

use pam::{AugMap, AugSpec};
use pam_wal::{put_varint, Codec, CodecError, Reader};
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// A key that can be routed to a shard.
///
/// The hash must be **stable across processes and runs**: a durable
/// store checkpoints each shard's data into its own directory, so the
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
/// committer, recovery and the snapshot so they can never diverge.
#[inline]
pub(crate) fn route(hash: u64, shards: usize) -> usize {
    (hash % shards as u64) as usize
}

/// One shard's part of a normalized batch: upserts and deletes, each
/// still sorted and distinct.
type Slice<S> = (
    Vec<(<S as AugSpec>::K, <S as AugSpec>::V)>,
    Vec<<S as AugSpec>::K>,
);

/// Apply one normalized batch (`puts` and `deletes` sorted, distinct,
/// disjoint) to the shard maps `maps`: route every key, then apply each
/// shard's slice as one `multi_insert` plus one `multi_delete`. The
/// slices fork across shards only when the batch is larger than
/// [`parlay::granularity`], so a small epoch never wakes a pool worker;
/// the bulk operations fork inside each slice by their own rule. The
/// committer and recovery's replay both apply through here.
pub(crate) fn apply_routed<S: AugSpec>(
    maps: &mut [AugMap<S>],
    puts: Vec<(S::K, S::V)>,
    deletes: Vec<S::K>,
) where
    S::K: ShardKey,
{
    if let [map] = maps {
        return apply_slice(map, (puts, deletes));
    }
    let fork = puts.len() + deletes.len() > parlay::granularity();
    let mut slices: Vec<Slice<S>> = maps.iter().map(|_| Default::default()).collect();
    for (k, v) in puts {
        slices[route(k.shard_hash(), maps.len())].0.push((k, v));
    }
    for k in deletes {
        slices[route(k.shard_hash(), maps.len())].1.push(k);
    }
    apply_slices(maps, &mut slices, fork);
}

fn apply_slices<S: AugSpec>(maps: &mut [AugMap<S>], slices: &mut [Slice<S>], fork: bool) {
    if let ([map], [slice]) = (&mut *maps, &mut *slices) {
        return apply_slice(map, std::mem::take(slice));
    }
    let mid = maps.len() / 2;
    let (maps_l, maps_r) = maps.split_at_mut(mid);
    let (slices_l, slices_r) = slices.split_at_mut(mid);
    parlay::par2_if(
        fork,
        || apply_slices(maps_l, slices_l, fork),
        || apply_slices(maps_r, slices_r, fork),
    );
}

fn apply_slice<S: AugSpec>(map: &mut AugMap<S>, (puts, deletes): Slice<S>) {
    if !puts.is_empty() {
        map.multi_insert(puts);
    }
    if !deletes.is_empty() {
        map.multi_delete(deletes);
    }
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

/// Scatter `keys` to their owning shards among `maps` (one version's
/// shard maps), probe each involved shard, and gather the results back
/// in input order.
pub(crate) fn scatter_gather_get_many<S>(maps: &[AugMap<S>], keys: &[S::K]) -> Vec<Option<S::V>>
where
    S: AugSpec,
    S::K: ShardKey,
{
    let mut index_of: Vec<Vec<usize>> = maps.iter().map(|_| Vec::new()).collect();
    for (i, k) in keys.iter().enumerate() {
        index_of[route(k.shard_hash(), maps.len())].push(i);
    }
    let mut out: Vec<Option<S::V>> = vec![None; keys.len()];
    for (map, idxs) in maps.iter().zip(&mut index_of) {
        if !idxs.is_empty() {
            gather_in_key_order(map, keys, idxs, &mut out);
        }
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
