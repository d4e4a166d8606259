//! Snapshot checkpoints: the map, sorted, on disk.
//!
//! A checkpoint file is named for the last WAL epoch it is guaranteed to
//! contain (`ckpt-<epoch>.ckpt`) and holds the whole map in key order:
//!
//! ```text
//! [ magic "PAMCKPT1" ]
//! [ frame: header  = varint(epoch) ++ varint(entry_count) ]
//! [ frame: chunk   = varint(n) ++ n * (key ++ value) ]      (repeated)
//! ```
//!
//! Every frame is length+CRC checked ([`crate::frame`]), and the file is
//! written to a `.tmp` sibling, fsynced, then atomically renamed — a
//! crash mid-checkpoint leaves at worst a stale temp file, never a
//! half-visible checkpoint. Because the caller streams a *pinned*
//! persistent snapshot, checkpointing runs concurrently with live
//! commits; nothing pauses.
//!
//! [`load_latest`] walks checkpoints newest-first and returns the first
//! one that validates, so a corrupt newest checkpoint degrades to the
//! previous one (plus a longer WAL replay) instead of an unrecoverable
//! store. A caller that keeps one checkpoint across several directories
//! picks the epoch itself ([`epochs`], [`load_at`]) and prunes only once
//! every directory holds it ([`retain`]): writing never deletes anything.

use crate::codec::{put_varint, Codec, Reader};
use crate::frame;
use std::fs::{self, File, OpenOptions};
use std::io::{self, BufReader, Read, Write};
use std::path::{Path, PathBuf};

/// Magic bytes opening every checkpoint file.
pub const CHECKPOINT_MAGIC: &[u8; 8] = b"PAMCKPT1";

/// Entries per chunk frame: big enough to amortize framing, small enough
/// to keep the write buffer and a corrupt-chunk blast radius modest.
const CHUNK_ENTRIES: usize = 4096;

fn checkpoint_path(dir: &Path, epoch: u64) -> PathBuf {
    dir.join(format!("ckpt-{epoch:020}.ckpt"))
}

fn parse_checkpoint_name(path: &Path) -> Option<u64> {
    let name = path.file_name()?.to_str()?;
    let digits = name.strip_prefix("ckpt-")?.strip_suffix(".ckpt")?;
    digits.parse().ok()
}

fn sync_dir(dir: &Path) -> io::Result<()> {
    File::open(dir)?.sync_all()
}

/// Write a checkpoint claiming WAL epochs `..= epoch`, streaming the
/// `len` pairs that `source` emits (sorted by key, distinct — drive it
/// with `AugMap::for_each`) to disk one chunk at a time. Older
/// checkpoints stay: pruning them is [`retain`]'s job.
///
/// Returns the bytes written. Fails (leaving only a temp file behind) if
/// `source` does not emit exactly `len` pairs.
///
/// The visitor shape (instead of an iterator) is deliberate: it lets the
/// tree side export with a plain in-order recursion and keeps this crate
/// free of any map dependency.
///
/// # Errors
///
/// `InvalidInput` when `source` emits a different number of pairs than
/// `len` promised; filesystem errors pass through. Either way nothing
/// but a `.tmp` file is left behind — the rename is the commit point.
pub fn write<K, V>(
    dir: &Path,
    epoch: u64,
    len: u64,
    source: impl FnOnce(&mut dyn FnMut(&K, &V)),
) -> io::Result<u64>
where
    K: Codec,
    V: Codec,
{
    fs::create_dir_all(dir)?;
    let final_path = checkpoint_path(dir, epoch);
    let tmp_path = final_path.with_extension("tmp");
    let mut file = OpenOptions::new()
        .create(true)
        .write(true)
        .truncate(true)
        .open(&tmp_path)?;

    // The caller is a map, so the entry count is known up front: the
    // header goes first and chunks stream straight to the file — memory
    // use is one chunk, not one checkpoint.
    let mut bytes = 0u64;
    let mut out = Vec::new();
    out.extend_from_slice(CHECKPOINT_MAGIC);
    let mut header = Vec::new();
    put_varint(&mut header, epoch);
    put_varint(&mut header, len);
    frame::put_frame(&mut out, &header);
    file.write_all(&out)?;
    bytes += out.len() as u64;

    // Each chunk is framed in place: entries encode straight after the
    // reserved header, and the count, known once the chunk is full, goes
    // in front of them at close.
    const COUNT_ROOM: usize = 10; // a u64 varint
    fn flush_chunk(
        file: &mut File,
        cur: &mut Vec<u8>,
        chunk: frame::OpenFrame,
        n: usize,
    ) -> io::Result<u64> {
        let mut count = Vec::with_capacity(COUNT_ROOM);
        put_varint(&mut count, n as u64);
        let start = chunk.close(cur, &count);
        file.write_all(&cur[start..])?;
        let written = (cur.len() - start) as u64;
        cur.clear();
        Ok(written)
    }
    let mut cur = Vec::new();
    let mut chunk = frame::open_frame(&mut cur, COUNT_ROOM);
    let mut in_cur = 0usize;
    let mut total = 0u64;
    // io errors inside the visitor are parked here and re-raised after
    // the source returns (a callback cannot `?` outward)
    let mut deferred: io::Result<()> = Ok(());
    source(&mut |k: &K, v: &V| {
        if deferred.is_err() {
            return;
        }
        k.encode(&mut cur);
        v.encode(&mut cur);
        in_cur += 1;
        total += 1;
        if in_cur == CHUNK_ENTRIES {
            match flush_chunk(&mut file, &mut cur, chunk, in_cur) {
                Ok(n) => bytes += n,
                Err(e) => deferred = Err(e),
            }
            chunk = frame::open_frame(&mut cur, COUNT_ROOM);
            in_cur = 0;
        }
    });
    deferred?;
    if in_cur > 0 {
        bytes += flush_chunk(&mut file, &mut cur, chunk, in_cur)?;
    }
    if total != len {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("checkpoint stream yielded {total} entries, header claims {len}"),
        ));
    }
    file.sync_all()?;
    drop(file);
    fs::rename(&tmp_path, &final_path)?;
    sync_dir(dir)?;
    Ok(bytes)
}

/// Delete every checkpoint in `dir` whose epoch `keep` rejects.
///
/// # Errors
///
/// Propagates filesystem errors from the listing, removals and the
/// directory fsync.
pub fn retain(dir: &Path, mut keep: impl FnMut(u64) -> bool) -> io::Result<()> {
    let mut removed = false;
    for (epoch, path) in list(dir)? {
        if !keep(epoch) {
            fs::remove_file(path)?;
            removed = true;
        }
    }
    if removed {
        sync_dir(dir)?;
    }
    Ok(())
}

/// The epochs of the checkpoint files in `dir`, oldest first, by name
/// only: nothing is validated (a missing directory has none).
///
/// # Errors
///
/// Propagates filesystem errors from the listing.
pub fn epochs(dir: &Path) -> io::Result<Vec<u64>> {
    if !dir.exists() {
        return Ok(Vec::new());
    }
    Ok(list(dir)?.into_iter().map(|(epoch, _)| epoch).collect())
}

/// All checkpoint files in `dir`, oldest first.
fn list(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut out: Vec<(u64, PathBuf)> = fs::read_dir(dir)?
        .filter_map(|e| {
            let p = e.ok()?.path();
            Some((parse_checkpoint_name(&p)?, p))
        })
        .collect();
    out.sort_by_key(|&(e, _)| e);
    Ok(out)
}

/// Stream-decode one checkpoint file: chunks are handed to `sink` as they
/// are read, so peak memory is one chunk, not the whole checkpoint.
/// Errors on any framing/codec/count problem, or with the first error
/// `sink` returns (possibly after `sink` has already consumed earlier
/// chunks — callers discard partial state).
fn load_file_with<K: Codec, V: Codec>(
    path: &Path,
    sink: &mut impl FnMut(Vec<(K, V)>) -> io::Result<()>,
) -> io::Result<(u64, u64)> {
    let bad = |msg: &str| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{msg} in checkpoint {}", path.display()),
        )
    };
    let mut file = BufReader::new(File::open(path)?);
    let mut magic = [0u8; CHECKPOINT_MAGIC.len()];
    match file.read_exact(&mut magic) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Err(bad("bad magic")),
        Err(e) => return Err(e),
    }
    if &magic != CHECKPOINT_MAGIC {
        return Err(bad("bad magic"));
    }
    let header = match frame::read_frame_capped(&mut file, frame::MAX_PAYLOAD) {
        Ok(Some(p)) => p,
        Ok(None) => return Err(bad("bad header frame")),
        Err(e) if e.kind() == io::ErrorKind::InvalidData => return Err(bad("bad header frame")),
        Err(e) => return Err(e),
    };
    let mut hr = Reader::new(&header);
    let epoch = hr.varint().map_err(|_| bad("bad header epoch"))?;
    let total = hr.varint().map_err(|_| bad("bad header count"))?;
    if !hr.is_empty() {
        return Err(bad("trailing header bytes"));
    }

    let mut seen = 0u64;
    loop {
        let payload = match frame::read_frame_capped(&mut file, frame::MAX_PAYLOAD) {
            Ok(Some(p)) => p,
            Ok(None) => break,
            Err(e) if e.kind() == io::ErrorKind::InvalidData => return Err(bad("bad chunk frame")),
            Err(e) => return Err(e),
        };
        let mut r = Reader::new(&payload);
        let n = r.varint().map_err(|_| bad("bad chunk count"))?;
        let mut chunk: Vec<(K, V)> = Vec::with_capacity(n.min(1 << 20) as usize);
        for _ in 0..n {
            let k = K::decode(&mut r).map_err(|_| bad("bad chunk key"))?;
            let v = V::decode(&mut r).map_err(|_| bad("bad chunk value"))?;
            chunk.push((k, v));
        }
        if !r.is_empty() {
            return Err(bad("trailing chunk bytes"));
        }
        seen += chunk.len() as u64;
        sink(chunk)?;
    }
    if seen != total {
        return Err(bad("entry count mismatch"));
    }
    Ok((epoch, total))
}

/// Load the checkpoint at `epoch` in `dir`, streaming its chunks into
/// `acc` instead of materializing one giant vector: `absorb` folds one
/// decoded chunk into it. The writer emits chunks sorted by key and
/// ascending across the file, but this crate knows no key order: an
/// `absorb` that relies on it checks it, and refuses a chunk out of
/// order with `InvalidData`. Returns `(entries, acc)`.
///
/// # Errors
///
/// `InvalidData` when the file is corrupt (`acc` may then hold a prefix
/// of it: discard it); whatever `absorb` returns; other kinds pass
/// through from the filesystem.
pub fn load_at<K: Codec, V: Codec, M>(
    dir: &Path,
    epoch: u64,
    mut acc: M,
    mut absorb: impl FnMut(&mut M, Vec<(K, V)>) -> io::Result<()>,
) -> io::Result<(u64, M)> {
    let path = checkpoint_path(dir, epoch);
    let (claimed, total) = load_file_with::<K, V>(&path, &mut |chunk| absorb(&mut acc, chunk))?;
    if claimed != epoch {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "header claims epoch {claimed} in checkpoint {}",
                path.display()
            ),
        ));
    }
    Ok((total, acc))
}

/// Load the newest checkpoint that validates, streaming its chunks like
/// [`load_at`]: `fresh` builds an empty accumulator per candidate file,
/// `absorb` folds one decoded chunk into it. Returns `(epoch, entries,
/// accumulator)`.
///
/// A checkpoint that turns out corrupt mid-stream is abandoned (its
/// partial accumulator dropped) and the next-older one is tried — the
/// same fallback contract as [`load_latest`], which is this function
/// specialized to `Vec`.
///
/// # Errors
///
/// Corruption (`InvalidData`) is *not* an error here — it triggers the
/// fallback to the next-older checkpoint, and running out of candidates
/// yields `Ok(None)`. Genuine I/O errors (a failing device) pass
/// through, because falling back on those could silently serve stale
/// data from a half-readable disk.
pub fn load_latest_with<K: Codec, V: Codec, M>(
    dir: &Path,
    mut fresh: impl FnMut() -> M,
    mut absorb: impl FnMut(&mut M, Vec<(K, V)>) -> io::Result<()>,
) -> io::Result<Option<(u64, u64, M)>> {
    for epoch in epochs(dir)?.into_iter().rev() {
        match load_at::<K, V, M>(dir, epoch, fresh(), &mut absorb) {
            Ok((total, acc)) => return Ok(Some((epoch, total, acc))),
            Err(e) if e.kind() == io::ErrorKind::InvalidData => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(None)
}

/// A loaded checkpoint: the WAL epoch it claims plus its sorted entries.
pub type LoadedCheckpoint<K, V> = (u64, Vec<(K, V)>);

/// Load the newest checkpoint that validates, if any: `(epoch,
/// sorted_entries)`. A corrupt newer checkpoint silently falls back to an
/// older one (recovery then replays more WAL). Materializes the whole
/// entry vector — prefer [`load_latest_with`] for large maps.
///
/// # Errors
///
/// Only real I/O errors (a failing device, permissions) surface;
/// corruption is handled by falling back to the next-older checkpoint,
/// and no loadable checkpoint at all is `Ok(None)`.
pub fn load_latest<K: Codec, V: Codec>(dir: &Path) -> io::Result<Option<LoadedCheckpoint<K, V>>> {
    Ok(
        load_latest_with::<K, V, Vec<(K, V)>>(dir, Vec::new, |acc, mut chunk| {
            acc.append(&mut chunk);
            Ok(())
        })?
        .map(|(epoch, _, entries)| (epoch, entries)),
    )
}

/// Remove leftover `.tmp` files from a checkpoint interrupted by a crash.
///
/// # Errors
///
/// Propagates filesystem errors from the directory walk or removals (a
/// missing directory is fine: there is nothing to clean).
pub fn clean_temp_files(dir: &Path) -> io::Result<()> {
    if !dir.exists() {
        return Ok(());
    }
    for entry in fs::read_dir(dir)? {
        let p = entry?.path();
        if p.extension().is_some_and(|e| e == "tmp") {
            fs::remove_file(p)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("pam-ckpt-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn pairs(n: u64) -> Vec<(u64, u64)> {
        (0..n).map(|i| (i, i * 3)).collect()
    }

    #[test]
    fn write_load_roundtrip() {
        let dir = tmp_dir("roundtrip");
        let data = pairs(10_000); // spans multiple chunks
        let bytes = write(&dir, 42, data.len() as u64, |emit| {
            data.iter().for_each(|(k, v)| emit(k, v))
        })
        .unwrap();
        assert!(bytes > 0);
        let (epoch, loaded) = load_latest::<u64, u64>(&dir).unwrap().unwrap();
        assert_eq!(epoch, 42);
        assert_eq!(loaded, data);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_map_checkpoint() {
        let dir = tmp_dir("empty");
        write::<u64, u64>(&dir, 7, 0, |_emit| {}).unwrap();
        let (epoch, loaded) = load_latest::<u64, u64>(&dir).unwrap().unwrap();
        assert_eq!(epoch, 7);
        assert!(loaded.is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn keeps_only_newest_and_falls_back_on_corruption() {
        let dir = tmp_dir("fallback");
        for e in [10u64, 20, 30] {
            let data = pairs(e);
            write(&dir, e, data.len() as u64, |emit| {
                data.iter().for_each(|(k, v)| emit(k, v))
            })
            .unwrap();
        }
        assert_eq!(
            epochs(&dir).unwrap(),
            vec![10, 20, 30],
            "writing prunes nothing"
        );
        retain(&dir, |e| e >= 20).unwrap();
        assert_eq!(
            epochs(&dir).unwrap(),
            vec![20, 30],
            "pruned to the newest two"
        );
        // corrupt the newest
        let newest = checkpoint_path(&dir, 30);
        let mut bytes = fs::read(&newest).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        fs::write(&newest, bytes).unwrap();
        let (epoch, loaded) = load_latest::<u64, u64>(&dir).unwrap().unwrap();
        assert_eq!(epoch, 20, "must fall back to the older valid checkpoint");
        assert_eq!(loaded, pairs(20));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn streaming_load_sees_sorted_chunks_and_falls_back() {
        let dir = tmp_dir("streaming");
        for e in [5u64, 9] {
            let data = pairs(10_000); // several chunks
            write(&dir, e, data.len() as u64, |emit| {
                data.iter().for_each(|(k, v)| emit(k, v))
            })
            .unwrap();
        }
        let mut chunks = 0usize;
        let (epoch, total, flat) =
            load_latest_with::<u64, u64, Vec<(u64, u64)>>(&dir, Vec::new, |acc, chunk| {
                chunks += 1;
                assert!(chunk.windows(2).all(|w| w[0].0 < w[1].0), "chunk sorted");
                if let (Some(last), Some(first)) = (acc.last(), chunk.first()) {
                    assert!(last.0 < first.0, "chunks ascend globally");
                }
                acc.extend(chunk);
                Ok(())
            })
            .unwrap()
            .unwrap();
        assert_eq!(epoch, 9);
        assert_eq!(total, 10_000);
        assert!(chunks > 1, "10k entries must span multiple chunks");
        assert_eq!(flat, pairs(10_000));

        // corrupt the newest: partial accumulators must be discarded and
        // the older checkpoint streamed instead
        let newest = checkpoint_path(&dir, 9);
        let mut bytes = fs::read(&newest).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        fs::write(&newest, bytes).unwrap();
        let (epoch, _, flat) =
            load_latest_with::<u64, u64, Vec<(u64, u64)>>(&dir, Vec::new, |acc, chunk| {
                acc.extend(chunk);
                Ok(())
            })
            .unwrap()
            .unwrap();
        assert_eq!(epoch, 5, "fell back past the corrupt newest");
        assert_eq!(flat.len(), 10_000, "no partial chunks leaked in");

        // a chunk `absorb` refuses as invalid is corruption too: with
        // both files refused there is no checkpoint, and any other error
        // passes through
        let refuse =
            |kind| load_latest_with::<u64, u64, ()>(&dir, || (), |_, _| Err(io::Error::from(kind)));
        assert!(refuse(io::ErrorKind::InvalidData).unwrap().is_none());
        let err = refuse(io::ErrorKind::Other).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::Other);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn trailing_garbage_invalidates_a_checkpoint() {
        let dir = tmp_dir("trailing");
        for e in [3u64, 8] {
            let data = pairs(100);
            write(&dir, e, data.len() as u64, |emit| {
                data.iter().for_each(|(k, v)| emit(k, v))
            })
            .unwrap();
        }
        // a torn partial frame header after the last complete chunk (all
        // entries present, so only the tail scan can catch it)
        let newest = checkpoint_path(&dir, 8);
        let mut bytes = fs::read(&newest).unwrap();
        bytes.extend_from_slice(&[0x10, 0, 0]);
        fs::write(&newest, bytes).unwrap();
        let (epoch, loaded) = load_latest::<u64, u64>(&dir).unwrap().unwrap();
        assert_eq!(epoch, 3, "garbage-tailed checkpoint must not validate");
        assert_eq!(loaded, pairs(100));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn load_at_reads_the_named_epoch_only() {
        let dir = tmp_dir("load-at");
        for e in [4u64, 6] {
            let data = pairs(e);
            write(&dir, e, data.len() as u64, |emit| {
                data.iter().for_each(|(k, v)| emit(k, v))
            })
            .unwrap();
        }
        let (n, got) = load_at::<u64, u64, _>(&dir, 4, Vec::new(), |acc, c| {
            acc.extend(c);
            Ok(())
        })
        .unwrap();
        assert_eq!((n, got), (4, pairs(4)), "the older file, not the newest");
        // a file renamed to another epoch claims the wrong one: corrupt
        fs::rename(checkpoint_path(&dir, 4), checkpoint_path(&dir, 5)).unwrap();
        let err = load_at::<u64, u64, _>(&dir, 5, (), |_, _| Ok(())).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        let err = load_at::<u64, u64, _>(&dir, 4, (), |_, _| Ok(())).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound, "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_dir_is_no_checkpoint() {
        let dir = tmp_dir("missing");
        assert!(load_latest::<u64, u64>(&dir).unwrap().is_none());
    }

    #[test]
    fn temp_files_are_cleaned() {
        let dir = tmp_dir("tmpclean");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("ckpt-00000000000000000001.tmp"), b"junk").unwrap();
        clean_temp_files(&dir).unwrap();
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 0);
        fs::remove_dir_all(&dir).unwrap();
    }
}
