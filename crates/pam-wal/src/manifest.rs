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

use crate::checkpoint::CHECKPOINTS;
use crate::codec::{put_varint, Reader};
use crate::files;
use crate::frame::{self, Frame};
use crate::wal::SEGMENTS;
use std::fs;
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

/// What store data `dir` holds that only a manifest could say the layout
/// of — for a directory with no manifest, where creating a store would
/// guess it, or shadow acknowledged data with an empty map: `shard-<i>`
/// directories, log segments (a store whose manifest was lost, or the
/// retired single-directory layout), or checkpoints at the top level
/// (that retired layout). `None` when there is none; a file no store
/// writes is not data.
///
/// # Errors
///
/// Propagates filesystem errors from the listing.
pub fn unmanifested_data(dir: &Path) -> io::Result<Option<&'static str>> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let is_shard = name
            .to_str()
            .and_then(|n| n.strip_prefix("shard-"))
            .is_some_and(|d| !d.is_empty() && d.bytes().all(|b| b.is_ascii_digit()));
        if is_shard && entry.file_type()?.is_dir() {
            return Ok(Some("shard directories but no manifest"));
        }
    }
    if !SEGMENTS.list(dir)?.is_empty() {
        return Ok(Some(
            "WAL segments but no manifest (a store whose manifest was lost, or \
             the retired single-directory layout)",
        ));
    }
    if !CHECKPOINTS.list(dir)?.is_empty() {
        return Ok(Some(
            "checkpoints at its top level (the retired single-directory layout, \
             which this version cannot open)",
        ));
    }
    Ok(None)
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
    let mut out = MANIFEST_MAGIC.to_vec();
    let mut payload = Vec::new();
    put_varint(&mut payload, MANIFEST_FORMAT);
    put_varint(&mut payload, shards);
    frame::put_frame(&mut out, &payload);
    files::publish(dir, &manifest_path(dir), |file| file.write_all(&out))
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
        files::clean_temp_files(&dir).unwrap();
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 0);
        files::clean_temp_files(&dir).unwrap(); // idempotent
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn shard_dir_layout() {
        assert!(shard_dir(Path::new("/x"), 3).ends_with("shard-3"));
    }
}
