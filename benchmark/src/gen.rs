//! Seeded input generation. Everything the program under test receives
//! is produced here from `--seed`: the same seed gives byte-identical
//! inputs, and the program never sees the seed itself.

use crate::profile::{
    KeyDist, BATCH_KEYS, CALLERS, KEY_BYTES, VALUE_BYTES, ZIPF_RANKS, ZIPF_THETA,
};
use workloads::{hash64, Zipf};

/// Derive the seed of an independent input stream from the run seed.
pub fn stream(seed: u64, tag: u64) -> u64 {
    hash64(hash64(seed) ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// Picks indices of a key population under a [`KeyDist`].
pub struct KeyPicker {
    zipf: Option<Zipf>,
}

impl KeyPicker {
    /// A picker for `dist` (building the zipf CDF when needed).
    pub fn new(dist: KeyDist) -> KeyPicker {
        KeyPicker {
            zipf: match dist {
                KeyDist::Uniform => None,
                KeyDist::Zipf => Some(Zipf::new(ZIPF_RANKS, ZIPF_THETA)),
            },
        }
    }

    /// The `i`-th pick of `stream`: an index in `[0, population)`. Zipf
    /// ranks are scrambled so the hot keys are spread over the key space
    /// instead of sitting in one leaf.
    #[inline]
    pub fn pick(&self, stream: u64, i: u64, population: usize) -> usize {
        let h = match &self.zipf {
            None => hash64(stream ^ i),
            Some(z) => hash64(z.sample(stream, i) as u64 ^ 0x5ca3_b1e5),
        };
        (h % population as u64) as usize
    }
}

/// `n` unsorted `(key, value)` pairs with keys picked from
/// `[0, key_range)`; duplicates are expected (always under zipf).
pub fn pairs(picker: &KeyPicker, stream: u64, n: usize, key_range: u64) -> Vec<(u64, u64)> {
    (0..n as u64)
        .map(|i| {
            (
                picker.pick(stream, i, key_range as usize) as u64,
                hash64(stream ^ i ^ (1 << 63)),
            )
        })
        .collect()
}

/// The 16-byte key of record `i`: a hash prefix (so key order is not
/// insertion order) followed by the index (so a key names its record).
pub fn record_key(i: usize) -> Vec<u8> {
    let key = format!("{:08x}{:08x}", hash64(i as u64) >> 32, i);
    debug_assert_eq!(key.len(), KEY_BYTES);
    key.into_bytes()
}

/// The record index a key was made from, if it is one of ours.
pub fn key_index(key: &[u8]) -> Option<usize> {
    let s = std::str::from_utf8(key).ok()?;
    if s.len() != KEY_BYTES {
        return None;
    }
    let i = usize::from_str_radix(&s[8..], 16).ok()?;
    (record_key(i) == key).then_some(i)
}

/// The 100-byte value of record `i` at `version`: self-describing
/// (index and version up front, a hash stream of both behind), so any
/// value read back can be checked without a stored copy.
pub fn record_value(i: usize, version: u64) -> Vec<u8> {
    let mut v = Vec::with_capacity(VALUE_BYTES);
    v.extend_from_slice(&(i as u64).to_le_bytes());
    v.extend_from_slice(&version.to_le_bytes());
    let mut word = 0u64;
    while v.len() < VALUE_BYTES {
        let h = hash64((i as u64).rotate_left(32) ^ version ^ (word << 48));
        let take = (VALUE_BYTES - v.len()).min(8);
        v.extend_from_slice(&h.to_le_bytes()[..take]);
        word += 1;
    }
    v
}

/// `(index, version)` of a well-formed value; `None` if any byte is off.
pub fn parse_value(value: &[u8]) -> Option<(usize, u64)> {
    if value.len() != VALUE_BYTES {
        return None;
    }
    let i = u64::from_le_bytes(value[..8].try_into().ok()?) as usize;
    let version = u64::from_le_bytes(value[8..16].try_into().ok()?);
    (record_value(i, version) == value).then_some((i, version))
}

/// One generated request, naming records by index. Versions are assigned
/// when the request runs: each caller owns the keys congruent to its
/// number modulo [`CALLERS`], so its model of them is exact.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Op {
    /// Point read.
    Get(usize),
    /// Multi-point read of [`BATCH_KEYS`] keys.
    GetMany(Vec<usize>),
    /// Ordered scan of the `limit` records from a record's key on.
    Scan {
        /// Record whose key is the inclusive lower bound.
        from: usize,
        /// Entry limit.
        limit: u64,
    },
    /// Acked upsert.
    Put(usize),
    /// Acked delete.
    Delete(usize),
    /// Acked atomic upsert of [`BATCH_KEYS`] distinct keys (cross-shard
    /// with near certainty).
    Batch(Vec<usize>),
}

/// A request mix in percent; the fields sum to 100.
#[derive(Clone, Copy, Debug)]
pub struct Mix {
    /// Share of [`Op::Get`].
    pub get: u64,
    /// Share of [`Op::GetMany`].
    pub get_many: u64,
    /// Share of [`Op::Scan`].
    pub scan: u64,
    /// Share of [`Op::Put`].
    pub put: u64,
    /// Share of [`Op::Delete`].
    pub delete: u64,
    /// Share of [`Op::Batch`].
    pub batch: u64,
    /// Entry limit of every scan.
    pub scan_limit: u64,
}

/// store-commit: 80 % acked put, 10 % delete, 10 % 16-key batch.
pub const STORE_MIX: Mix = Mix {
    get: 0,
    get_many: 0,
    scan: 0,
    put: 80,
    delete: 10,
    batch: 10,
    scan_limit: 0,
};
/// serve-read: 90 % get, 5 % get_many-16, 5 % scan limit 1000.
pub const READ_MIX: Mix = Mix {
    get: 90,
    get_many: 5,
    scan: 5,
    put: 0,
    delete: 0,
    batch: 0,
    scan_limit: 1000,
};
/// serve-mixed: 50 % get, 40 % put, 5 % batch-16, 5 % scan limit 100.
pub const MIXED_MIX: Mix = Mix {
    get: 50,
    get_many: 0,
    scan: 5,
    put: 40,
    delete: 0,
    batch: 5,
    scan_limit: 100,
};

/// The `n` requests of `caller` under `mix`, keys picked by `picker`
/// from `records` and folded onto the caller's own partition.
pub fn ops(
    picker: &KeyPicker,
    stream: u64,
    mix: Mix,
    caller: usize,
    n: usize,
    records: usize,
) -> Vec<Op> {
    debug_assert_eq!(
        mix.get + mix.get_many + mix.scan + mix.put + mix.delete + mix.batch,
        100
    );
    let base = hash64(stream ^ caller as u64);
    let own = |i: u64| {
        let idx = picker.pick(base, i, records);
        (idx - idx % CALLERS + caller).min(records - CALLERS + caller)
    };
    let distinct = |i: u64| {
        // BATCH_KEYS distinct own keys: re-pick on a collision
        let mut keys: Vec<usize> = Vec::with_capacity(BATCH_KEYS);
        let mut j = 0u64;
        while keys.len() < BATCH_KEYS {
            let k = own((i << 8 | j) ^ (1 << 62));
            if !keys.contains(&k) {
                keys.push(k);
            }
            j += 1;
        }
        keys
    };
    (0..n as u64)
        .map(|i| {
            let mut roll = hash64(base ^ i ^ (1 << 61)) % 100;
            let mut under = |share: u64| {
                let hit = roll < share;
                roll = roll.wrapping_sub(share);
                hit
            };
            if under(mix.get) {
                Op::Get(own(i))
            } else if under(mix.put) {
                Op::Put(own(i))
            } else if under(mix.scan) {
                Op::Scan {
                    from: own(i),
                    limit: mix.scan_limit,
                }
            } else if under(mix.batch) {
                Op::Batch(distinct(i))
            } else if under(mix.get_many) {
                Op::GetMany(distinct(i))
            } else {
                Op::Delete(own(i))
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::RECORDS;

    #[test]
    fn the_same_seed_gives_identical_inputs_and_another_seed_does_not() {
        for dist in [KeyDist::Uniform, KeyDist::Zipf] {
            let p = KeyPicker::new(dist);
            let a = pairs(&p, stream(7, 1), 10_000, 40_000);
            let b = pairs(&KeyPicker::new(dist), stream(7, 1), 10_000, 40_000);
            assert_eq!(a, b);
            assert_ne!(a, pairs(&p, stream(8, 1), 10_000, 40_000));

            let x = ops(&p, stream(7, 2), MIXED_MIX, 1, 5_000, RECORDS);
            let y = ops(&p, stream(7, 2), MIXED_MIX, 1, 5_000, RECORDS);
            assert_eq!(x, y);
            assert_ne!(x, ops(&p, stream(8, 2), MIXED_MIX, 1, 5_000, RECORDS));
        }
        assert_eq!(record_key(12345), record_key(12345));
        assert_eq!(record_value(9, 3), record_value(9, 3));
    }

    #[test]
    fn callers_stay_on_their_own_partition_and_mixes_hold() {
        let p = KeyPicker::new(KeyDist::Zipf);
        for caller in 0..CALLERS {
            let list = ops(&p, stream(3, 3), STORE_MIX, caller, 20_000, RECORDS);
            let (mut puts, mut dels, mut batches) = (0, 0, 0);
            for op in &list {
                let keys: Vec<usize> = match op {
                    Op::Put(k) => {
                        puts += 1;
                        vec![*k]
                    }
                    Op::Delete(k) => {
                        dels += 1;
                        vec![*k]
                    }
                    Op::Batch(ks) => {
                        batches += 1;
                        assert_eq!(ks.len(), BATCH_KEYS);
                        let mut d = ks.clone();
                        d.sort_unstable();
                        d.dedup();
                        assert_eq!(d.len(), BATCH_KEYS, "batch keys are distinct");
                        ks.clone()
                    }
                    other => panic!("store mix generated {other:?}"),
                };
                assert!(keys.iter().all(|k| k % CALLERS == caller && *k < RECORDS));
            }
            assert!((15_500..16_500).contains(&puts), "{puts} puts");
            assert!((1_700..2_300).contains(&dels), "{dels} deletes");
            assert!((1_700..2_300).contains(&batches), "{batches} batches");
        }
    }

    #[test]
    fn zipf_concentrates_and_uniform_spreads() {
        let count_top = |dist| {
            let p = KeyPicker::new(dist);
            let mut hits = std::collections::HashMap::new();
            for i in 0..50_000u64 {
                *hits.entry(p.pick(11, i, RECORDS)).or_insert(0u32) += 1;
            }
            *hits.values().max().unwrap()
        };
        assert!(count_top(KeyDist::Zipf) > 2_000);
        assert!(count_top(KeyDist::Uniform) < 10);
    }

    #[test]
    fn keys_and_values_describe_themselves() {
        for i in [0, 1, RECORDS - 1, 77_777] {
            let k = record_key(i);
            assert_eq!(k.len(), KEY_BYTES);
            assert_eq!(key_index(&k), Some(i));
            let v = record_value(i, 42);
            assert_eq!(v.len(), VALUE_BYTES);
            assert_eq!(parse_value(&v), Some((i, 42)));
            let mut bad = v.clone();
            bad[50] ^= 1;
            assert_eq!(parse_value(&bad), None);
        }
        assert_eq!(key_index(b"not-one-of-ours!"), None);
        assert_ne!(record_key(1), record_key(2));
    }
}
