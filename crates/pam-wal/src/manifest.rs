//! The shard-layout manifest: how a directory of WAL/checkpoint
//! subdirectories is partitioned, and where the global epoch clock
//! stands.
//!
//! A sharded store splits its key space across N independent WAL
//! directories (`shard-0/ .. shard-<N-1>/`). The shard *assignment* of a
//! key is a pure function of the key and N — which makes N part of the
//! on-disk format: reopening a 4-shard directory as 8 shards would route
//! every key to a (mostly) different WAL and silently "lose" the data
//! sitting in the old layout. The manifest pins N (and the layout format
//! version) at creation time so an open with the wrong shard count fails
//! loudly instead.
//!
//! The manifest also **pins the global epoch clock**: the
//! committed watermark `global_epoch` (every cross-shard batch stamped
//! `<= global_epoch` has a persisted commit/discard decision) and the
//! short list of *discarded* global epochs — batches a crash left logged
//! on some-but-not-all participant shards, voted down at recovery. The
//! watermark is rewritten before any shard's WAL truncation may reclaim
//! a stamped record, which is what keeps the 2PC presence vote sound
//! across restarts (see `pam_store::Store::open`).
//!
//! ```text
//! MANIFEST = [ magic "PAMSHRD1" ]
//!            [ frame: varint(format = 2) ++ varint(shards)
//!                  ++ varint(global_epoch)
//!                  ++ varint(len) ++ len * varint(discarded) ]
//! ```
//!
//! The file is written to a `.tmp` sibling, fsynced, and atomically
//! renamed, like a checkpoint: it either exists wholly or not at all.
//! Any format other than [`MANIFEST_FORMAT`] — including the pre-clock
//! format 1, which had no clock fields — is refused with `InvalidData`.

use crate::codec::{put_varint, Reader};
use crate::frame::{self, Frame};
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// Magic bytes opening the manifest file.
pub const MANIFEST_MAGIC: &[u8; 8] = b"PAMSHRD1";

/// The one on-disk layout format version this crate reads and writes.
pub const MANIFEST_FORMAT: u64 = 2;

/// The pinned layout (and global-clock state) of a sharded store
/// directory.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Manifest {
    /// Number of hash shards the key space is partitioned into.
    pub shards: u64,
    /// The committed global-epoch watermark: every cross-shard batch
    /// stamped `<= global_epoch` has a persisted decision (committed
    /// unless listed in [`Manifest::discarded`]).
    pub global_epoch: u64,
    /// Global epochs whose batches were voted down at recovery (logged
    /// on some-but-not-all participants); always `<= global_epoch`.
    /// Pruned once no shard's WAL still holds a record stamped with
    /// them.
    pub discarded: Vec<u64>,
}

fn manifest_path(dir: &Path) -> PathBuf {
    dir.join("MANIFEST")
}

/// The per-shard subdirectory for shard `i` under `dir`.
pub fn shard_dir(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("shard-{shard}"))
}

fn sync_dir(dir: &Path) -> io::Result<()> {
    File::open(dir)?.sync_all()
}

/// Atomically write the manifest: `shards` pinned at creation,
/// `global_epoch` the committed global-clock watermark, `discarded` the
/// voted-down global epochs (sorted). Rewritten whenever the watermark
/// advances past state a WAL truncation is about to reclaim.
///
/// # Errors
///
/// Propagates filesystem errors from the temp-file write, fsync, or
/// rename.
pub fn write(dir: &Path, shards: u64, global_epoch: u64, discarded: &[u64]) -> io::Result<()> {
    fs::create_dir_all(dir)?;
    let final_path = manifest_path(dir);
    let tmp_path = final_path.with_extension("tmp");
    let mut out = Vec::new();
    out.extend_from_slice(MANIFEST_MAGIC);
    let mut payload = Vec::new();
    put_varint(&mut payload, MANIFEST_FORMAT);
    put_varint(&mut payload, shards);
    put_varint(&mut payload, global_epoch);
    put_varint(&mut payload, discarded.len() as u64);
    for &g in discarded {
        put_varint(&mut payload, g);
    }
    frame::put_frame(&mut out, &payload);
    let mut file = OpenOptions::new()
        .create(true)
        .write(true)
        .truncate(true)
        .open(&tmp_path)?;
    file.write_all(&out)?;
    file.sync_all()?;
    drop(file);
    fs::rename(&tmp_path, &final_path)?;
    sync_dir(dir)
}

/// Load the manifest, if one exists. A present-but-invalid manifest is an
/// error, never a silent "no manifest": guessing a layout risks routing
/// keys into the wrong shard's WAL.
///
/// # Errors
///
/// `InvalidData` when the file exists but its magic, frame, fields, or
/// format version are invalid; other kinds pass through from the
/// filesystem.
pub fn load(dir: &Path) -> io::Result<Option<Manifest>> {
    let path = manifest_path(dir);
    let bad = |msg: &str| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{msg} in manifest {}", path.display()),
        )
    };
    let bytes = match fs::read(&path) {
        Ok(b) => b,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    if bytes.len() < MANIFEST_MAGIC.len() || &bytes[..MANIFEST_MAGIC.len()] != MANIFEST_MAGIC {
        return Err(bad("bad magic"));
    }
    let payload = match frame::next_frame(&bytes[MANIFEST_MAGIC.len()..]) {
        Frame::Ok { payload, .. } => payload,
        _ => return Err(bad("bad frame")),
    };
    let mut r = Reader::new(payload);
    let format = r.varint().map_err(|_| bad("bad format field"))?;
    if format != MANIFEST_FORMAT {
        return Err(bad(&format!("unsupported format {format}")));
    }
    let shards = r.varint().map_err(|_| bad("bad shard count"))?;
    let global_epoch = r.varint().map_err(|_| bad("bad global epoch"))?;
    let n = r.varint().map_err(|_| bad("bad discard count"))?;
    let mut discarded = Vec::with_capacity(n.min(1 << 16) as usize);
    for _ in 0..n {
        discarded.push(r.varint().map_err(|_| bad("bad discarded epoch"))?);
    }
    if !r.is_empty() {
        return Err(bad("trailing bytes"));
    }
    if shards == 0 {
        return Err(bad("zero shards"));
    }
    Ok(Some(Manifest {
        shards,
        global_epoch,
        discarded,
    }))
}

/// Remove a leftover `MANIFEST.tmp` from a crash mid-write.
///
/// # Errors
///
/// Propagates filesystem errors other than the file being absent.
pub fn clean_temp_file(dir: &Path) -> io::Result<()> {
    match fs::remove_file(manifest_path(dir).with_extension("tmp")) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("pam-manifest-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn roundtrip_and_missing() {
        let dir = tmp_dir("roundtrip");
        assert_eq!(load(&dir).ok(), Some(None), "missing dir: no manifest");
        write(&dir, 4, 17, &[3, 9]).unwrap();
        assert_eq!(
            load(&dir).unwrap(),
            Some(Manifest {
                shards: 4,
                global_epoch: 17,
                discarded: vec![3, 9],
            })
        );
        // the watermark rewrite path: same shards, advanced clock
        write(&dir, 4, 21, &[]).unwrap();
        let m = load(&dir).unwrap().unwrap();
        assert_eq!((m.shards, m.global_epoch, m.discarded.len()), (4, 21, 0));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn format_1_manifests_are_refused() {
        let dir = tmp_dir("v1");
        fs::create_dir_all(&dir).unwrap();
        // raw pre-clock format-1 bytes: no clock fields
        let mut out = MANIFEST_MAGIC.to_vec();
        let mut payload = Vec::new();
        put_varint(&mut payload, 1); // format 1
        put_varint(&mut payload, 6); // shards
        frame::put_frame(&mut out, &payload);
        fs::write(manifest_path(&dir), out).unwrap();
        let err = load(&dir).expect_err("a pre-clock manifest must not load");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_manifest_is_an_error_not_none() {
        let dir = tmp_dir("corrupt");
        write(&dir, 8, 0, &[]).unwrap();
        let path = manifest_path(&dir);
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        fs::write(&path, bytes).unwrap();
        let err = load(&dir).expect_err("corrupt manifest must not look absent");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn future_format_is_refused() {
        let dir = tmp_dir("future");
        fs::create_dir_all(&dir).unwrap();
        let mut out = MANIFEST_MAGIC.to_vec();
        let mut payload = Vec::new();
        put_varint(&mut payload, MANIFEST_FORMAT + 1);
        put_varint(&mut payload, 2);
        frame::put_frame(&mut out, &payload);
        fs::write(manifest_path(&dir), out).unwrap();
        let err = load(&dir).expect_err("future formats must not be guessed at");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn temp_file_is_cleaned() {
        let dir = tmp_dir("tmpclean");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("MANIFEST.tmp"), b"junk").unwrap();
        clean_temp_file(&dir).unwrap();
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 0);
        clean_temp_file(&dir).unwrap(); // idempotent
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn shard_dir_layout() {
        assert!(shard_dir(Path::new("/x"), 3).ends_with("shard-3"));
    }
}
