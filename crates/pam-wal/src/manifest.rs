//! The layout manifest: how many checkpoint files a store directory's
//! checkpoints are cut into.
//!
//! A store keeps one map under one shared log. A checkpoint cuts that map
//! into N contiguous key ranges by rank and writes range `i` into
//! `shard-<i>/`, so recovery can bulk-load the N files in parallel. The
//! manifest pins N (and the layout format version) at creation time, so
//! an open with a different count fails loudly instead of looking for
//! files that were never written.
//!
//! ```text
//! MANIFEST = [ magic "PAMSHRD1" ]
//!            [ frame: varint(format = 4) ++ varint(shards) ]
//! ```
//!
//! The file is written to a `.tmp` sibling, fsynced, and atomically
//! renamed, like a checkpoint: it either exists wholly or not at all.
//! Any format other than [`MANIFEST_FORMAT`] is refused with
//! `InvalidData`: format 1 (no epoch clock), format 2 (a per-shard log
//! each, with a global-epoch watermark and discard list) and format 3
//! (checkpoint files partitioned by a key hash, not by key range).

use crate::codec::{put_varint, Reader};
use crate::frame::{self, Frame};
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// Magic bytes opening the manifest file.
pub const MANIFEST_MAGIC: &[u8; 8] = b"PAMSHRD1";

/// The one on-disk layout format version this crate reads and writes.
pub const MANIFEST_FORMAT: u64 = 4;

/// The pinned layout of a store directory.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Manifest {
    /// Number of key-range files every checkpoint is cut into.
    pub shards: u64,
}

fn manifest_path(dir: &Path) -> PathBuf {
    dir.join("MANIFEST")
}

/// The subdirectory under `dir` that holds every checkpoint's `shard`-th
/// key range.
pub fn shard_dir(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("shard-{shard}"))
}

fn sync_dir(dir: &Path) -> io::Result<()> {
    File::open(dir)?.sync_all()
}

/// Atomically write the manifest pinning `shards`, once, when the store
/// is created.
///
/// # Errors
///
/// Propagates filesystem errors from the temp-file write, fsync, or
/// rename.
pub fn write(dir: &Path, shards: u64) -> io::Result<()> {
    fs::create_dir_all(dir)?;
    let final_path = manifest_path(dir);
    let tmp_path = final_path.with_extension("tmp");
    let mut out = Vec::new();
    out.extend_from_slice(MANIFEST_MAGIC);
    let mut payload = Vec::new();
    put_varint(&mut payload, MANIFEST_FORMAT);
    put_varint(&mut payload, shards);
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
/// error, never a silent "no manifest": guessing a layout risks reading
/// checkpoint files as something they are not.
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
    if !r.is_empty() {
        return Err(bad("trailing bytes"));
    }
    if shards == 0 {
        return Err(bad("zero shards"));
    }
    Ok(Some(Manifest { shards }))
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
        write(&dir, 4).unwrap();
        assert_eq!(load(&dir).unwrap(), Some(Manifest { shards: 4 }));
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Write a raw manifest whose frame holds `fields`, the format first.
    fn write_raw(dir: &Path, fields: &[u64]) {
        fs::create_dir_all(dir).unwrap();
        let mut out = MANIFEST_MAGIC.to_vec();
        let mut payload = Vec::new();
        for &f in fields {
            put_varint(&mut payload, f);
        }
        frame::put_frame(&mut out, &payload);
        fs::write(manifest_path(dir), out).unwrap();
    }

    #[test]
    fn format_1_manifests_are_refused() {
        let dir = tmp_dir("v1");
        write_raw(&dir, &[1, 6]); // format 1: shards, no clock fields
        let err = load(&dir).expect_err("a pre-clock manifest must not load");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn format_2_manifests_are_refused() {
        let dir = tmp_dir("v2");
        // format 2: shards, the global-epoch watermark, one discarded epoch
        write_raw(&dir, &[2, 2, 3, 1, 3]);
        let err = load(&dir).expect_err("a per-shard-log manifest must not load");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("unsupported format 2"), "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn format_3_manifests_are_refused() {
        let dir = tmp_dir("v3");
        write_raw(&dir, &[3, 2]); // format 3: hash-partitioned checkpoints
        let err = load(&dir).expect_err("a hash-partitioned manifest must not load");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("unsupported format 3"), "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_manifest_is_an_error_not_none() {
        let dir = tmp_dir("corrupt");
        write(&dir, 8).unwrap();
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
        write_raw(&dir, &[MANIFEST_FORMAT + 1, 2]);
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
