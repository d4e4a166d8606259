//! `Bytes` and `Vec<u8>` are interchangeable over one durable directory:
//! the same encoding byte for byte, the same order, the same shard. A
//! directory either representation wrote reopens under the other with
//! the same contents, the same per-shard recovery and the same clock.

use pam::{AugSpec, NoAug};
use pam_store::{Bytes, Codec, DurabilityConfig, ShardKey, ShardedConfig, Store, WriteOp};
use pam_wal::{put_varint, Reader};
use std::fs;
use std::path::{Path, PathBuf};
use std::time::Duration;

type VecSpec = NoAug<Vec<u8>, Vec<u8>>;
type BytesSpec = NoAug<Bytes, Bytes>;

/// Deterministic xorshift byte strings: lengths 0..=300 (across the
/// 127 / 128 varint boundary), short alphabets so that equal strings and
/// strict prefixes of one another turn up.
fn random_strings(seed: u64, n: usize) -> Vec<Vec<u8>> {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    (0..n)
        .map(|_| {
            let len = match next() % 4 {
                0 => (next() % 4) as usize,
                1 => (next() % 301) as usize,
                _ => (next() % 12) as usize,
            };
            (0..len).map(|_| (next() % 3) as u8).collect()
        })
        .collect()
}

fn encoded<T: Codec>(v: &T) -> Vec<u8> {
    let mut out = Vec::new();
    v.encode(&mut out);
    out
}

#[test]
fn bytes_encode_exactly_as_vec() {
    let boundaries = [0usize, 1, 127, 128, 129, 16_383, 16_384, 16_385]
        .into_iter()
        .map(|len| (0..len).map(|i| (i * 7) as u8).collect::<Vec<u8>>());
    for v in boundaries.chain(random_strings(11, 500)) {
        let b = Bytes::from(v.clone());
        let wire = encoded(&b);
        assert_eq!(wire, encoded(&v), "length {}", v.len());
        // and each decodes the other's bytes, consuming all of them
        let mut r = Reader::new(&wire);
        assert_eq!(Vec::<u8>::decode(&mut r).unwrap(), v);
        assert!(r.is_empty());
        let mut r = Reader::new(&wire);
        assert_eq!(Bytes::decode(&mut r).unwrap(), b);
        assert!(r.is_empty());
    }
}

#[test]
fn a_length_prefix_past_the_end_is_a_codec_error() {
    // a hostile prefix: 2^60 bytes claimed, 2 present — refused before
    // any allocation
    let mut hostile = Vec::new();
    put_varint(&mut hostile, 1 << 60);
    hostile.extend_from_slice(b"xy");
    assert!(Bytes::decode(&mut Reader::new(&hostile)).is_err());

    // every truncation of a valid encoding, one byte short included
    let wire = encoded(&Bytes::from(vec![9u8; 200]));
    for cut in 0..wire.len() {
        assert!(
            Bytes::decode(&mut Reader::new(&wire[..cut])).is_err(),
            "cut at {cut}"
        );
    }
}

#[test]
fn sorting_by_bytes_and_by_vec_gives_the_same_permutation() {
    let strings = random_strings(23, 2_000);
    let as_bytes: Vec<Bytes> = strings.iter().cloned().map(Bytes::from).collect();
    let mut by_vec: Vec<usize> = (0..strings.len()).collect();
    by_vec.sort_by(|&a, &b| strings[a].cmp(&strings[b]));
    let mut by_bytes: Vec<usize> = (0..strings.len()).collect();
    by_bytes.sort_by(|&a, &b| as_bytes[a].cmp(&as_bytes[b]));
    assert_eq!(by_vec, by_bytes);
    for (v, b) in strings.iter().zip(&as_bytes) {
        assert_eq!(b.shard_hash(), v.shard_hash());
    }
}

fn fresh_dir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("pam-bytes-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&d);
    d
}

fn copy_dir(from: &Path, to: &Path) {
    fs::create_dir_all(to).unwrap();
    for entry in fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        let dst = to.join(entry.file_name());
        if entry.file_type().unwrap().is_dir() {
            copy_dir(&entry.path(), &dst);
        } else {
            fs::copy(entry.path(), dst).unwrap();
        }
    }
}

fn open<S>(dir: &Path) -> Store<S>
where
    S: AugSpec,
    S::K: Codec + ShardKey,
    S::V: Codec,
{
    Store::open(
        dir,
        ShardedConfig::builder()
            .shards(2)
            .batch_window(Duration::ZERO)
            .build(),
        DurabilityConfig::builder()
            .manual_checkpoints_only()
            .build(),
    )
    .expect("open")
}

fn key(i: u64) -> Vec<u8> {
    format!("key-{i:05}").into_bytes()
}

/// Values from empty to 199 bytes, so both varint widths are on disk.
fn value(i: u64, round: u8) -> Vec<u8> {
    vec![round; (i % 200) as usize]
}

/// A 2-shard directory with a checkpoint under a cross-shard batch,
/// then a WAL tail of puts, a delete and a second cross-shard batch.
fn write<S>(dir: &Path)
where
    S: AugSpec,
    S::K: Codec + ShardKey + From<Vec<u8>>,
    S::V: Codec + From<Vec<u8>>,
{
    let store = open::<S>(dir);
    store
        .put_all((0..300).map(|i| (key(i).into(), value(i, 1).into())))
        .wait();
    store.checkpoint().expect("checkpoint");
    for i in (0..300).step_by(7) {
        store.put(key(i).into(), value(i + 1, 2).into()).wait();
    }
    store.delete(key(3).into()).wait();
    let batch = (1_000..1_016)
        .map(|i| WriteOp::Put(key(i).into(), value(i, 3).into()))
        .chain([WriteOp::Delete(key(4).into())]);
    store.write_batch(batch).wait();
}

type Recovered = (Vec<(Vec<u8>, Vec<u8>)>, Vec<[u64; 5]>, u64);

/// Reopen `dir` as `S`: the full-range scan, each shard's recovery
/// counts, and the global watermark.
fn reopen<S>(dir: &Path) -> Recovered
where
    S: AugSpec,
    S::K: Codec + ShardKey + From<Vec<u8>> + AsRef<[u8]>,
    S::V: Codec + AsRef<[u8]>,
{
    let store = open::<S>(dir);
    let mut scan = Vec::new();
    store.range_for_each(
        &Vec::<u8>::new().into(),
        &vec![0xffu8; 16].into(),
        |k, v| scan.push((k.as_ref().to_vec(), v.as_ref().to_vec())),
    );
    // the scan merges every shard; a point read routes to one, so it
    // finds the entry only if this key type hashes as the writer's did
    for (k, v) in &scan {
        let got = store.get(&k.clone().into());
        assert_eq!(got.as_ref().map(AsRef::as_ref), Some(&v[..]), "{k:?}");
    }
    let recovery = store
        .recovery()
        .iter()
        .map(|r| {
            [
                r.checkpoint_epoch,
                r.checkpoint_entries,
                r.replayed_epochs,
                r.last_epoch,
                r.discarded_epochs,
            ]
        })
        .collect();
    (scan, recovery, store.global_watermark())
}

/// Write with `W`, then reopen two copies of the directory: one as `W`
/// itself, one as `R`. Everything recovery reports must agree.
fn written_as_then_read_as<W, R>(name: &str)
where
    W: AugSpec,
    W::K: Codec + ShardKey + From<Vec<u8>> + AsRef<[u8]>,
    W::V: Codec + From<Vec<u8>> + AsRef<[u8]>,
    R: AugSpec,
    R::K: Codec + ShardKey + From<Vec<u8>> + AsRef<[u8]>,
    R::V: Codec + AsRef<[u8]>,
{
    let src = fresh_dir(name);
    write::<W>(&src);
    let (same, other) = (
        fresh_dir(&format!("{name}-same")),
        fresh_dir(&format!("{name}-other")),
    );
    copy_dir(&src, &same);
    copy_dir(&src, &other);

    let expected = reopen::<W>(&same);
    let (scan, recovery, watermark) = &expected;
    assert_eq!(scan.len(), 300 - 2 + 16);
    assert!(scan.contains(&(key(7), value(8, 2))));
    assert!(
        recovery.iter().all(|r| r[1] > 0 && r[2] > 0),
        "every shard loads a checkpoint and replays a tail: {recovery:?}"
    );
    assert_eq!(*watermark, 2, "two cross-shard batches");
    assert_eq!(reopen::<R>(&other), expected);

    for d in [src, same, other] {
        fs::remove_dir_all(d).unwrap();
    }
}

#[test]
fn a_vec_written_directory_reopens_as_bytes() {
    written_as_then_read_as::<VecSpec, BytesSpec>("vec-then-bytes");
}

#[test]
fn a_bytes_written_directory_reopens_as_vec() {
    written_as_then_read_as::<BytesSpec, VecSpec>("bytes-then-vec");
}
