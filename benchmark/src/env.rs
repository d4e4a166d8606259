//! The run's surroundings: where the checkout is, the per-run scratch
//! directory, the machine fingerprint, and `/proc` readings.

use std::io;
use std::path::{Path, PathBuf};
use std::process::Command;

/// The benchmark package directory (`benchmark/` of the checkout this
/// binary was built in).
pub fn bench_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// The root of the checkout: the parent of [`bench_dir`].
pub fn repo_root() -> &'static Path {
    bench_dir()
        .parent()
        .expect("benchmark/ sits inside the checkout")
}

/// A fresh `benchmark/out/run-<pid>-<workload>/`, removed when dropped
/// after [`Scratch::succeed`]; a failed run leaves it for inspection.
pub struct Scratch {
    dir: PathBuf,
    keep: bool,
}

impl Scratch {
    /// Sweep the leftovers of dead runs, then create this run's
    /// directory.
    ///
    /// # Errors
    ///
    /// Propagates the failure to create or clear the directory.
    pub fn create(workload: &str) -> io::Result<Scratch> {
        let out = bench_dir().join("out");
        std::fs::create_dir_all(&out)?;
        sweep_dead_runs(&out);
        let dir = out.join(format!("run-{}-{workload}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch { dir, keep: true })
    }

    /// A path inside the scratch directory.
    pub fn path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }

    /// Mark the run successful: the directory goes when this drops.
    pub fn succeed(&mut self) {
        self.keep = false;
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        if !self.keep {
            // best effort: a leftover is swept by the next run
            let _ = std::fs::remove_dir_all(&self.dir);
        }
    }
}

/// Remove `run-<pid>-*` directories whose process no longer exists.
fn sweep_dead_runs(out: &Path) {
    let Ok(entries) = std::fs::read_dir(out) else {
        return;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let pid = name
            .to_string_lossy()
            .strip_prefix("run-")
            .and_then(|rest| rest.split('-').next().map(str::to_owned))
            .and_then(|pid| pid.parse::<u32>().ok());
        if let Some(pid) = pid {
            if !Path::new(&format!("/proc/{pid}")).exists() {
                let _ = std::fs::remove_dir_all(entry.path());
            }
        }
    }
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn command_line(program: &str, args: &[&str], cwd: &Path) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .current_dir(cwd)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

/// The conditions a number was measured under, as a JSON object: a
/// number without them cannot be compared with another.
pub fn fingerprint_json() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = command_line("rustc", &["-V"], repo_root()).unwrap_or_else(|| "unknown".into());
    // a driver checkout is not a git repository: then there is no sha
    let sha = command_line("git", &["rev-parse", "HEAD"], repo_root())
        .unwrap_or_else(|| "unknown".into());
    format!(
        "{{\"nproc\": {}, \"cpu\": \"{}\", \"rustc\": \"{}\", \"git_sha\": \"{}\", \
         \"pam_leaf_b\": {}, \"sync\": \"NoSync\", \"transport\": \"loopback\", \
         \"load\": \"closed loop, {} callers\"}}",
        nproc(),
        pam_obs::json::escape(&cpu),
        pam_obs::json::escape(&rustc),
        pam_obs::json::escape(&sha),
        pam::DEFAULT_LEAF_B,
        crate::profile::CALLERS,
    )
}

/// CPU seconds (user + system) a process has used, from
/// `/proc/<pid>/stat`. Linux reports them in clock ticks of 1/100 s.
pub fn cpu_seconds(pid: u32) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // the command name may contain spaces; fields resume after ')'
    let rest = &stat[stat.rfind(')')? + 2..];
    let mut fields = rest.split(' ');
    let utime: f64 = fields.nth(11)?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / 100.0)
}

/// Resident set size of a process in MB, from `/proc/<pid>/status`.
pub fn rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readings_of_this_process_are_sane() {
        let me = std::process::id();
        assert!(cpu_seconds(me).is_some_and(|s| s >= 0.0));
        assert!(rss_mb(me).is_some_and(|mb| mb > 0.5));
        assert!(cpu_seconds(u32::MAX).is_none());
    }

    #[test]
    fn fingerprint_is_json_with_the_stated_conditions() {
        let doc = pam_obs::json::Json::parse(&fingerprint_json()).unwrap();
        for key in ["nproc", "cpu", "rustc", "git_sha", "pam_leaf_b", "sync"] {
            assert!(doc.get(key).is_some(), "{key} missing");
        }
    }
}
