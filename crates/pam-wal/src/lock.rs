//! Single-writer directory lock.
//!
//! A WAL directory has exactly one legitimate writer; a second
//! `Store::open` on the same directory (double-started service,
//! operator mistake) would append interleaved frames through an
//! independent file handle and corrupt the log. [`DirLock`] makes the
//! second open fail fast instead.
//!
//! The lock is a `LOCK.pid` file created with `O_EXCL` and holding the
//! owner's pid. Staleness (the owner crashed without unlinking) is
//! detected by probing `/proc/<pid>` — crash recovery must not require
//! manual lock removal. The probe is Linux-specific; on systems without
//! `/proc` every existing lock looks stale, degrading to advisory-only.
//! Pid recycling can cause a spurious refusal (never a spurious grant of
//! a *live* lock to a second caller racing the same stale file — the
//! `create_new` retry is atomic).

use std::fs::{self, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// Holds the exclusive write lock on a WAL directory; dropping releases
/// it (unlinks the lock file).
#[derive(Debug)]
pub struct DirLock {
    path: PathBuf,
}

fn lock_path(dir: &Path) -> PathBuf {
    dir.join("LOCK.pid")
}

fn owner_alive(pid: u32) -> bool {
    Path::new("/proc").exists() && Path::new(&format!("/proc/{pid}")).exists()
}

impl DirLock {
    /// Take the lock, failing with `WouldBlock` if a live process holds
    /// it. A lock left behind by a dead process is broken and re-taken.
    ///
    /// # Errors
    ///
    /// `WouldBlock` when another live process owns the directory;
    /// filesystem errors pass through.
    pub fn acquire(dir: impl AsRef<Path>) -> io::Result<DirLock> {
        let dir = dir.as_ref();
        fs::create_dir_all(dir)?;
        let path = lock_path(dir);
        // two attempts: the second runs after breaking a stale lock
        for attempt in 0..2 {
            match OpenOptions::new().write(true).create_new(true).open(&path) {
                Ok(mut f) => {
                    write!(f, "{}", std::process::id())?;
                    f.sync_all()?;
                    return Ok(DirLock { path });
                }
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
                    let owner: Option<u32> = fs::read_to_string(&path)
                        .ok()
                        .and_then(|s| s.trim().parse().ok());
                    match owner {
                        Some(pid) if owner_alive(pid) => {
                            return Err(io::Error::new(
                                io::ErrorKind::WouldBlock,
                                format!(
                                    "WAL directory {} is locked by live process {pid}",
                                    dir.display()
                                ),
                            ));
                        }
                        _ if attempt == 0 => {
                            // dead owner (or unreadable garbage): break it
                            let _ = fs::remove_file(&path);
                        }
                        _ => {
                            return Err(io::Error::new(
                                io::ErrorKind::WouldBlock,
                                format!("WAL directory {} lock contention", dir.display()),
                            ));
                        }
                    }
                }
                Err(e) => return Err(e),
            }
        }
        unreachable!("both lock attempts returned")
    }
}

impl Drop for DirLock {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("pam-lock-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn second_acquire_fails_while_held_then_succeeds_after_drop() {
        let dir = tmp_dir("exclusive");
        let lock = DirLock::acquire(&dir).unwrap();
        let err = DirLock::acquire(&dir).expect_err("held lock must refuse");
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
        drop(lock);
        let _relock = DirLock::acquire(&dir).expect("released lock is free");
        drop(_relock);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stale_lock_from_dead_pid_is_broken() {
        let dir = tmp_dir("stale");
        fs::create_dir_all(&dir).unwrap();
        // pid 0 is the idle task: never a userspace /proc entry
        fs::write(lock_path(&dir), "0").unwrap();
        let _lock = DirLock::acquire(&dir).expect("stale lock must be broken");
        drop(_lock);
        // garbage contents are also stale
        fs::write(lock_path(&dir), "not-a-pid").unwrap();
        let _lock = DirLock::acquire(&dir).expect("garbage lock must be broken");
        fs::remove_dir_all(&dir).unwrap();
    }
}
