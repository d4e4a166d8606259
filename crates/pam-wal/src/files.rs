//! The file steps of the log, the checkpoints and the manifest, each
//! written once: the directory fsync, the numbered file names, the
//! publish of a whole file by rename, and the cleanup of what an
//! interrupted publish leaves behind.
//!
//! Log segments and checkpoint files are named for an epoch,
//! `<prefix>-<epoch:020>.<ext>`, so a name sorts as its number does and
//! a listing needs no file to be opened.

use std::fs::{self, File, OpenOptions};
use std::io;
use std::path::{Path, PathBuf};

/// Flush directory metadata (a file created, renamed or deleted) to disk.
pub(crate) fn sync_dir(dir: &Path) -> io::Result<()> {
    File::open(dir)?.sync_all()
}

/// A family of files named `<prefix>-<number:020>.<ext>`.
pub(crate) struct Numbered {
    pub prefix: &'static str,
    pub ext: &'static str,
}

impl Numbered {
    /// The file numbered `n` in `dir`.
    pub fn path(&self, dir: &Path, n: u64) -> PathBuf {
        dir.join(format!("{}-{n:020}.{}", self.prefix, self.ext))
    }

    /// The number in `path`'s name, if it is one of this family's.
    fn parse(&self, path: &Path) -> Option<u64> {
        let name = path.file_name()?.to_str()?;
        let digits = name
            .strip_prefix(self.prefix)?
            .strip_prefix('-')?
            .strip_suffix(self.ext)?
            .strip_suffix('.')?;
        digits.parse().ok()
    }

    /// This family's files in `dir`, by number. A missing directory has
    /// none.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors from the listing.
    pub fn list(&self, dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
        let entries = match fs::read_dir(dir) {
            Ok(e) => e,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(e),
        };
        let mut out: Vec<(u64, PathBuf)> = entries
            .filter_map(|e| {
                let p = e.ok()?.path();
                Some((self.parse(&p)?, p))
            })
            .collect();
        out.sort_by_key(|&(n, _)| n);
        Ok(out)
    }
}

/// Make `path` (a file in `dir`) exist wholly or not at all: `fill`
/// writes its bytes into a `.tmp` sibling, which is fsynced, renamed over
/// `path`, and the rename made durable by a fsync of `dir`. A failure
/// leaves at worst the `.tmp` file behind — the rename is the commit
/// point.
pub(crate) fn publish<T>(
    dir: &Path,
    path: &Path,
    fill: impl FnOnce(&mut File) -> io::Result<T>,
) -> io::Result<T> {
    let tmp = path.with_extension("tmp");
    let mut file = OpenOptions::new()
        .create(true)
        .write(true)
        .truncate(true)
        .open(&tmp)?;
    let out = fill(&mut file)?;
    file.sync_all()?;
    drop(file);
    fs::rename(&tmp, path)?;
    sync_dir(dir)?;
    Ok(out)
}

/// Remove every `.tmp` file in `dir`: what a publish (a `.tmp` sibling,
/// fsynced, then renamed over its file) interrupted by a crash leaves
/// beside the file it was writing — `MANIFEST.tmp` at a store's top
/// level, `ckpt-<E>.tmp` in a checkpoint directory. A missing directory
/// has none.
///
/// # Errors
///
/// Propagates filesystem errors from the listing or a removal.
pub fn clean_temp_files(dir: &Path) -> io::Result<()> {
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(()),
        Err(e) => return Err(e),
    };
    for entry in entries {
        let p = entry?.path();
        if p.extension().is_some_and(|e| e == "tmp") {
            fs::remove_file(p)?;
        }
    }
    Ok(())
}
