//! Fixture tests for the pam-lint binary and library.
//!
//! Each rule class has a failing and a passing fixture under
//! `tests/fixtures/`; the fail fixtures must make `--deny` exit
//! non-zero with the rule's tag in the output, the pass fixtures must
//! come back clean even though they are stuffed with lexer decoys
//! (raw strings, nested block comments, `#[cfg(test)]` modules,
//! rustfmt-wrapped lock chains). A final test runs the binary against
//! the live workspace and requires it to be clean.

use std::path::Path;
use std::process::{Command, Output};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_pam-lint")
}

/// Runs the binary from the crate root (cargo's test cwd), so fixture
/// paths are relative to `crates/pam-lint/`.
fn run(args: &[&str]) -> Output {
    Command::new(bin())
        .args(args)
        .output()
        .expect("spawn pam-lint")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn assert_fails_with(fixture: &str, rule: &str, extra: &[&str]) {
    let mut args = vec!["--deny"];
    args.extend_from_slice(extra);
    args.push(fixture);
    let out = run(&args);
    let text = stdout(&out);
    assert_eq!(
        out.status.code(),
        Some(1),
        "{fixture}: expected exit 1, got {:?}\n{text}",
        out.status.code()
    );
    let tag = format!("[{rule}]");
    assert!(
        text.contains(&tag),
        "{fixture}: expected a {tag} finding, got:\n{text}"
    );
}

fn assert_clean(fixture: &str, extra: &[&str]) {
    let mut args = vec!["--deny"];
    args.extend_from_slice(extra);
    args.push(fixture);
    let out = run(&args);
    let text = stdout(&out);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{fixture}: expected exit 0, got {:?}\n{text}",
        out.status.code()
    );
    assert!(
        text.contains("pam-lint: clean"),
        "{fixture}: expected clean trailer, got:\n{text}"
    );
}

const FIXTURE_LOCKS: &[&str] = &["--locks", "tests/fixtures/LOCKS.toml"];

#[test]
fn unsafe_block_rule() {
    assert_fails_with("tests/fixtures/unsafe_fail.rs", "unsafe-block", &[]);
    assert_clean("tests/fixtures/unsafe_pass.rs", &[]);
}

#[test]
fn relaxed_ordering_rule() {
    assert_fails_with("tests/fixtures/relaxed_fail.rs", "relaxed-ordering", &[]);
    assert_clean("tests/fixtures/relaxed_pass.rs", &[]);
}

#[test]
fn panic_path_rule() {
    assert_fails_with("tests/fixtures/panic_fail.rs", "panic-path", &[]);
    assert_clean("tests/fixtures/panic_pass.rs", &[]);
}

#[test]
fn errors_doc_rule() {
    assert_fails_with("tests/fixtures/errors_fail.rs", "errors-doc", &[]);
    assert_clean("tests/fixtures/errors_pass.rs", &[]);
}

#[test]
fn lock_order_rule() {
    assert_fails_with(
        "tests/fixtures/lock_order_fail.rs",
        "lock-order",
        FIXTURE_LOCKS,
    );
    assert_clean("tests/fixtures/lock_order_pass.rs", FIXTURE_LOCKS);
}

#[test]
fn uncapped_read_frame_rule() {
    assert_fails_with(
        "tests/fixtures/read_frame_fail.rs",
        "uncapped-read-frame",
        &[],
    );
    assert_clean("tests/fixtures/read_frame_pass.rs", &[]);
}

#[test]
fn fail_fixtures_trip_exactly_their_own_rule() {
    // Keeps fixtures honest: a fail fixture that also trips an
    // unrelated rule would mask regressions in the rule under test.
    let cases = [
        ("tests/fixtures/unsafe_fail.rs", "unsafe-block"),
        ("tests/fixtures/relaxed_fail.rs", "relaxed-ordering"),
        ("tests/fixtures/panic_fail.rs", "panic-path"),
        ("tests/fixtures/errors_fail.rs", "errors-doc"),
        ("tests/fixtures/read_frame_fail.rs", "uncapped-read-frame"),
    ];
    let config = {
        let mut c = pam_lint::Config::workspace(pam_lint::DEFAULT_LOCKS_TOML).expect("config");
        c.all_files_in_scope = true;
        c
    };
    for (fixture, rule) in cases {
        let source = std::fs::read_to_string(fixture).expect("read fixture");
        let findings = pam_lint::lint_file(Path::new(fixture), &source, &config);
        assert!(
            !findings.is_empty() && findings.iter().all(|f| f.rule == rule),
            "{fixture}: expected only [{rule}] findings, got {findings:?}"
        );
    }
}

#[test]
fn report_flag_writes_the_rendered_findings() {
    let report = std::env::temp_dir().join(format!("pam-lint-report-{}.txt", std::process::id()));
    let report_str = report.to_string_lossy().into_owned();
    let out = run(&["--report", &report_str, "tests/fixtures/panic_fail.rs"]);
    // Without --deny findings are reported but do not fail the run.
    assert_eq!(out.status.code(), Some(0), "{}", stdout(&out));
    let written = std::fs::read_to_string(&report).expect("report file");
    assert!(written.contains("[panic-path]"), "report was:\n{written}");
    assert!(written.contains("pam-lint: 1 finding(s)"));
    let _ = std::fs::remove_file(&report);
}

#[test]
fn unknown_flags_are_usage_errors() {
    let out = run(&["--frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn workspace_self_check_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let out = Command::new(bin())
        .arg("--deny")
        .current_dir(&root)
        .output()
        .expect("spawn pam-lint");
    let text = stdout(&out);
    assert_eq!(
        out.status.code(),
        Some(0),
        "workspace lint must stay clean:\n{text}"
    );
    assert!(text.contains("pam-lint: clean"), "got:\n{text}");
}

#[test]
fn every_ranked_lock_names_a_live_field() {
    // A LOCKS.toml row whose file was renamed (or whose field is gone)
    // matches nothing, and the lock-order rule silently stops checking
    // it — so every row must point at a file that still takes that lock.
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let locks = pam_lint::locks::parse(pam_lint::DEFAULT_LOCKS_TOML).expect("shipped table");
    for lock in locks {
        let source = std::fs::read_to_string(crates.join(&lock.file))
            .unwrap_or_else(|e| panic!("LOCKS.toml names {}: {e}", lock.file));
        assert!(
            source.contains(&format!("{}.", lock.name))
                || source.contains(&format!("{}:", lock.name)),
            "{} no longer mentions a `{}` lock",
            lock.file,
            lock.name
        );
    }
}

// ── library-level lexer checks on the tricky constructs ─────────────────

#[test]
fn lexer_masks_strings_comments_and_chars() {
    let map = pam_lint::SourceMap::new(concat!(
        "let a = \"unsafe { x }\";\n",
        "let b = r#\"unsafe \" more\"#;\n",
        "let c = br##\"unsafe \"# nope\"##;\n",
        "/* outer /* unsafe */ still comment */ let d = 1;\n",
        "let e = 'u'; let f: &'static str = \"x\"; // unsafe trailing\n",
        "unsafe { real() }\n",
    ));
    let hits = map.word_occurrences("unsafe");
    assert_eq!(hits, vec![(5, 0)], "masked:\n{:#?}", map.masked);
}

#[test]
fn lexer_marks_cfg_test_spans() {
    let map = pam_lint::SourceMap::new(concat!(
        "pub fn live() {}\n",
        "#[cfg(test)]\n",
        "mod tests {\n",
        "    fn helper() {}\n",
        "}\n",
        "pub fn also_live() {}\n",
    ));
    assert!(!map.is_test[0]);
    assert!(map.is_test[3]);
    assert!(!map.is_test[5]);
}

#[test]
fn marker_walkup_stops_at_code() {
    let map = pam_lint::SourceMap::new(concat!(
        "// SAFETY: documented\n",
        "#[inline]\n",
        "unsafe fn a() {}\n",
        "let x = 1;\n",
        "unsafe fn b() {}\n",
    ));
    assert!(map.has_marker(2, "SAFETY:"));
    assert!(!map.has_marker(4, "SAFETY:"), "walk-up must stop at code");
}
