//! The `pam-serve` command line: a mistyped or truncated flag is an
//! error naming the argument, not a server started on defaults; the flag
//! set the benchmark spawns it with keeps working.

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Command, Stdio};

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pam-serve-cli-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Run the binary on `--dir <fresh dir>` + `extra` with stdin closed (a
/// server that did start drains at once); expect exit 1, `needle` on
/// stderr, and no store directory created.
fn rejected(name: &str, extra: &[&str], needle: &str) {
    let dir = scratch_dir(name);
    let out = Command::new(env!("CARGO_BIN_EXE_pam-serve"))
        .arg("--dir")
        .arg(&dir)
        .args(["--addr", "127.0.0.1:0"])
        .args(extra)
        .stdin(Stdio::null())
        .output()
        .expect("spawn pam-serve");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{extra:?}: stderr: {stderr}");
    assert!(stderr.contains(needle), "{extra:?}: stderr: {stderr}");
    assert!(!dir.exists(), "{extra:?} opened a store before failing");
}

#[test]
fn unknown_flag_is_rejected_by_name() {
    rejected("unknown", &["--batch-window", "0"], "--batch-window");
}

#[test]
fn trailing_flag_without_value_is_rejected_by_name() {
    rejected("trailing", &["--shards"], "--shards");
}

#[test]
fn the_benchmarks_flag_set_starts_and_drains() {
    // exactly what benchmark/src/remote.rs passes (SHARDS = 2, WINDOW_US = 200)
    let dir = scratch_dir("bench");
    let mut child = Command::new(env!("CARGO_BIN_EXE_pam-serve"))
        .arg("--dir")
        .arg(&dir)
        .args(["--addr", "127.0.0.1:0", "--obs-addr", "127.0.0.1:0"])
        .args(["--shards", "2"])
        .args(["--workers", "2"])
        .args(["--sync", "none"])
        .args(["--batch-window-us", "200"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn pam-serve");
    let mut lines = BufReader::new(child.stdout.take().unwrap()).lines();
    for prefix in ["pam-serve listening on ", "obs listening on "] {
        let line = lines
            .next()
            .expect("server exited before it was ready")
            .unwrap();
        assert!(
            line.starts_with(prefix),
            "expected `{prefix}…`, got `{line}`"
        );
    }
    drop(child.stdin.take()); // EOF on stdin is the shutdown signal
    assert!(child.wait().unwrap().success());
    let _ = std::fs::remove_dir_all(&dir);
}
