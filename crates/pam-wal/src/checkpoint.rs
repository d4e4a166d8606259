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
//! A chunk's payload is a run of pairs ([`crate::codec`]): the bytes of
//! the puts half of a WAL epoch body, and of a `pam-serve` `Scan` reply
//! after its tag, for the same pairs. Every frame is length+CRC checked
//! ([`crate::frame`]), and the file is written to a `.tmp` sibling,
//! fsynced, then atomically renamed — a crash mid-checkpoint leaves at
//! worst a stale temp file, never a half-visible checkpoint. Because the
//! caller streams a *pinned* persistent snapshot, checkpointing runs
//! concurrently with live commits; nothing pauses.
//!
//! A caller that keeps one checkpoint across several directories picks
//! the epoch itself ([`epochs`], [`load_at`]) — falling back to an older
//! one when a file turns out corrupt — and prunes only once every
//! directory holds it ([`retain`]): writing never deletes anything.

use crate::codec::{put_varint, Codec, CodecError, Reader};
use crate::files::{self, Numbered};
use crate::frame::{self, RunFrame};
use std::fs::{self, File};
use std::io::{self, BufReader, Read, Seek, Write};
use std::path::Path;

/// Magic bytes opening every checkpoint file.
pub const CHECKPOINT_MAGIC: &[u8; 8] = b"PAMCKPT1";

/// Entries per chunk frame: big enough to amortize framing, small enough
/// to keep the write buffer and a corrupt-chunk blast radius modest.
const CHUNK_ENTRIES: u64 = 4096;

/// Checkpoint files, named for the epoch each holds.
pub(crate) const CHECKPOINTS: Numbered = Numbered {
    prefix: "ckpt",
    ext: "ckpt",
};

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
/// `len` promised, or a pair too large for a frame; filesystem errors
/// pass through. Either way nothing but a `.tmp` file is left behind —
/// the rename is the commit point.
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
    files::publish(dir, &CHECKPOINTS.path(dir, epoch), |file| {
        // The caller is a map, so the entry count is known up front: the
        // header goes first and chunks stream straight to the file —
        // memory use is one chunk, not one checkpoint.
        let mut out = CHECKPOINT_MAGIC.to_vec();
        let mut header = Vec::new();
        put_varint(&mut header, epoch);
        put_varint(&mut header, len);
        frame::put_frame(&mut out, &header);
        file.write_all(&out)?;
        out.clear();

        // A full chunk is written when the next pair does not fit, and
        // the next chunk starts with that pair.
        let mut write_out = |chunk: RunFrame, out: &mut Vec<u8>| {
            let start = chunk.close(out);
            let written = file.write_all(&out[start..]);
            out.clear();
            written
        };
        let open = |out: &mut Vec<u8>| RunFrame::open(out, None, CHUNK_ENTRIES, frame::MAX_PAYLOAD);
        let mut chunk = open(&mut out);
        let mut total = 0u64;
        // io errors inside the visitor are parked here and re-raised after
        // the source returns (a callback cannot `?` outward)
        let mut deferred: io::Result<()> = Ok(());
        source(&mut |k: &K, v: &V| {
            if deferred.is_err() {
                return;
            }
            total += 1;
            if chunk.push(&mut out, k, v) {
                return;
            }
            deferred = write_out(chunk, &mut out);
            chunk = open(&mut out);
            if deferred.is_ok() && !chunk.push(&mut out, k, v) {
                deferred = Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    "checkpoint entry over the frame payload limit",
                ));
            }
        });
        deferred?;
        if !chunk.is_empty() {
            write_out(chunk, &mut out)?;
        }
        if total != len {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("checkpoint stream yielded {total} entries, header claims {len}"),
            ));
        }
        // written from the start of a truncated file: its length
        file.stream_position()
    })
}

/// Delete every checkpoint in `dir` whose epoch `keep` rejects.
///
/// # Errors
///
/// Propagates filesystem errors from the listing, removals and the
/// directory fsync.
pub fn retain(dir: &Path, mut keep: impl FnMut(u64) -> bool) -> io::Result<()> {
    let mut removed = false;
    for (epoch, path) in CHECKPOINTS.list(dir)? {
        if !keep(epoch) {
            fs::remove_file(path)?;
            removed = true;
        }
    }
    if removed {
        files::sync_dir(dir)?;
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
    Ok(CHECKPOINTS
        .list(dir)?
        .into_iter()
        .map(|(epoch, _)| epoch)
        .collect())
}

/// Decode one chunk payload: a run of pairs and nothing after it.
pub(crate) fn decode_chunk<K: Codec, V: Codec>(payload: &[u8]) -> Result<Vec<(K, V)>, CodecError> {
    let mut r = Reader::new(payload);
    let chunk = r.run()?;
    if !r.is_empty() {
        return Err(CodecError::new("trailing chunk bytes"));
    }
    Ok(chunk)
}

/// Load the checkpoint at `epoch` in `dir`, streaming its chunks into
/// `acc` instead of materializing one giant vector: `absorb` folds one
/// decoded chunk into it, so peak memory is one chunk. The writer emits
/// chunks sorted by key and ascending across the file, but this crate
/// knows no key order: an `absorb` that relies on it checks it, and
/// refuses a chunk out of order with `InvalidData`. Returns `(entries,
/// acc)`.
///
/// # Errors
///
/// `InvalidData` when the file is corrupt (`acc` may then hold a prefix
/// of it: discard it, and fall back to an older epoch); whatever
/// `absorb` returns; other kinds pass through from the filesystem — a
/// failing device is not a corrupt file, and falling back on it could
/// silently serve stale data.
pub fn load_at<K: Codec, V: Codec, M>(
    dir: &Path,
    epoch: u64,
    mut acc: M,
    mut absorb: impl FnMut(&mut M, Vec<(K, V)>) -> io::Result<()>,
) -> io::Result<(u64, M)> {
    let path = CHECKPOINTS.path(dir, epoch);
    let bad = |msg: &str| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{msg} in checkpoint {}", path.display()),
        )
    };
    // a frame that fails its checks is corruption; a failing read is not
    let next_frame = |file: &mut BufReader<File>, what: &str| {
        let read = frame::read_frame_capped(file, frame::MAX_PAYLOAD);
        match read {
            Err(e) if e.kind() == io::ErrorKind::InvalidData => Err(bad(what)),
            read => read,
        }
    };
    let mut file = BufReader::new(File::open(&path)?);
    let mut magic = [0u8; CHECKPOINT_MAGIC.len()];
    match file.read_exact(&mut magic) {
        Ok(()) if &magic == CHECKPOINT_MAGIC => {}
        Ok(()) => return Err(bad("bad magic")),
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Err(bad("bad magic")),
        Err(e) => return Err(e),
    }
    let header =
        next_frame(&mut file, "bad header frame")?.ok_or_else(|| bad("bad header frame"))?;
    let mut hr = Reader::new(&header);
    let (claimed, total) = match (hr.varint(), hr.varint()) {
        (Ok(e), Ok(n)) if hr.is_empty() => (e, n),
        _ => return Err(bad("bad header")),
    };
    if claimed != epoch {
        return Err(bad(&format!("header claims epoch {claimed}")));
    }
    let mut seen = 0u64;
    while let Some(payload) = next_frame(&mut file, "bad chunk frame")? {
        let chunk = decode_chunk::<K, V>(&payload).map_err(|e| bad(e.msg))?;
        seen += chunk.len() as u64;
        absorb(&mut acc, chunk)?;
    }
    if seen != total {
        return Err(bad("entry count mismatch"));
    }
    Ok((total, acc))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp_dir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("pam-ckpt-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn pairs(n: u64) -> Vec<(u64, u64)> {
        (0..n).map(|i| (i, i * 3)).collect()
    }

    fn write_pairs(dir: &Path, epoch: u64, data: &[(u64, u64)]) -> u64 {
        write(dir, epoch, data.len() as u64, |emit| {
            data.iter().for_each(|(k, v)| emit(k, v))
        })
        .unwrap()
    }

    /// Every entry of the checkpoint at `epoch`, gathered.
    fn load_all(dir: &Path, epoch: u64) -> io::Result<Vec<(u64, u64)>> {
        let (_, entries) = load_at(dir, epoch, Vec::new(), |acc, chunk| {
            acc.extend(chunk);
            Ok(())
        })?;
        Ok(entries)
    }

    /// The newest checkpoint in `dir` that loads, picked as recovery
    /// picks one: a file that is `InvalidData` at `load_at` falls back to
    /// the next older epoch, any other error passes through, and no
    /// loadable file is `None`. Returns `(epoch, entries, acc)`.
    fn newest<M>(
        dir: &Path,
        mut fresh: impl FnMut() -> M,
        mut absorb: impl FnMut(&mut M, Vec<(u64, u64)>) -> io::Result<()>,
    ) -> io::Result<Option<(u64, u64, M)>> {
        for epoch in epochs(dir)?.into_iter().rev() {
            match load_at(dir, epoch, fresh(), &mut absorb) {
                Ok((total, acc)) => return Ok(Some((epoch, total, acc))),
                Err(e) if e.kind() == io::ErrorKind::InvalidData => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(None)
    }

    /// [`newest`], gathering the entries.
    fn newest_entries(dir: &Path) -> Option<(u64, Vec<(u64, u64)>)> {
        newest(dir, Vec::new, |acc, chunk| {
            acc.extend(chunk);
            Ok(())
        })
        .unwrap()
        .map(|(epoch, _, entries)| (epoch, entries))
    }

    /// Flip the last byte of the checkpoint at `epoch`.
    fn corrupt(dir: &Path, epoch: u64) {
        let path = CHECKPOINTS.path(dir, epoch);
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        fs::write(&path, bytes).unwrap();
    }

    #[test]
    fn write_load_roundtrip() {
        let dir = tmp_dir("roundtrip");
        let data = pairs(10_000); // spans multiple chunks
        let bytes = write_pairs(&dir, 42, &data);
        assert!(bytes > 0);
        assert_eq!(
            bytes,
            fs::metadata(CHECKPOINTS.path(&dir, 42)).unwrap().len()
        );
        assert_eq!(epochs(&dir).unwrap(), vec![42]);
        assert_eq!(load_all(&dir, 42).unwrap(), data);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_map_checkpoint() {
        let dir = tmp_dir("empty");
        write::<u64, u64>(&dir, 7, 0, |_emit| {}).unwrap();
        let (epoch, loaded) = newest_entries(&dir).unwrap();
        assert_eq!(epoch, 7);
        assert!(loaded.is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn keeps_only_newest_and_falls_back_on_corruption() {
        let dir = tmp_dir("fallback");
        for e in [10u64, 20, 30] {
            write_pairs(&dir, e, &pairs(e));
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
        corrupt(&dir, 30);
        let err = load_all(&dir, 30).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        let (epoch, loaded) = newest_entries(&dir).unwrap();
        assert_eq!(epoch, 20, "must fall back to the older valid checkpoint");
        assert_eq!(loaded, pairs(20));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn streaming_load_sees_sorted_chunks_and_falls_back() {
        let dir = tmp_dir("streaming");
        for e in [5u64, 9] {
            write_pairs(&dir, e, &pairs(10_000)); // several chunks
        }
        let mut chunks = 0usize;
        let (epoch, total, flat) = newest(&dir, Vec::new, |acc: &mut Vec<(u64, u64)>, chunk| {
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
        corrupt(&dir, 9);
        let err = load_all(&dir, 9).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        let (epoch, _, flat) = newest(&dir, Vec::new, |acc, chunk| {
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
        let refuse = |kind| newest(&dir, || (), |_, _| Err(io::Error::from(kind)));
        assert!(refuse(io::ErrorKind::InvalidData).unwrap().is_none());
        let err = refuse(io::ErrorKind::Other).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::Other);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn trailing_garbage_invalidates_a_checkpoint() {
        let dir = tmp_dir("trailing");
        for e in [3u64, 8] {
            write_pairs(&dir, e, &pairs(100));
        }
        // a torn partial frame header after the last complete chunk (all
        // entries present, so only the tail scan can catch it)
        let newest_path = CHECKPOINTS.path(&dir, 8);
        let mut bytes = fs::read(&newest_path).unwrap();
        bytes.extend_from_slice(&[0x10, 0, 0]);
        fs::write(&newest_path, bytes).unwrap();
        let err = load_all(&dir, 8).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        let (epoch, loaded) = newest_entries(&dir).unwrap();
        assert_eq!(epoch, 3, "garbage-tailed checkpoint must not validate");
        assert_eq!(loaded, pairs(100));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn load_at_reads_the_named_epoch_only() {
        let dir = tmp_dir("load-at");
        for e in [4u64, 6] {
            write_pairs(&dir, e, &pairs(e));
        }
        let (n, got) = load_at::<u64, u64, _>(&dir, 4, Vec::new(), |acc, c| {
            acc.extend(c);
            Ok(())
        })
        .unwrap();
        assert_eq!((n, got), (4, pairs(4)), "the older file, not the newest");
        // a file renamed to another epoch claims the wrong one: corrupt
        fs::rename(CHECKPOINTS.path(&dir, 4), CHECKPOINTS.path(&dir, 5)).unwrap();
        let err = load_at::<u64, u64, _>(&dir, 5, (), |_, _| Ok(())).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        let err = load_at::<u64, u64, _>(&dir, 4, (), |_, _| Ok(())).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound, "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_dir_is_no_checkpoint() {
        let dir = tmp_dir("missing");
        assert_eq!(epochs(&dir).unwrap(), Vec::<u64>::new());
        assert!(newest_entries(&dir).is_none());
        retain(&dir, |_| false).unwrap();
    }

    #[test]
    fn temp_files_are_cleaned() {
        let dir = tmp_dir("tmpclean");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("ckpt-00000000000000000001.tmp"), b"junk").unwrap();
        files::clean_temp_files(&dir).unwrap();
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 0);
        fs::remove_dir_all(&dir).unwrap();
    }
}
