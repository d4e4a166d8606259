//! The six lint rules, each a scan over a [`SourceMap`].

use std::path::Path;

use crate::lexer::SourceMap;
use crate::{in_scope, Config, Finding};

/// Integration tests and benches live outside `src/`; like
/// `#[cfg(test)]` mods, they're exempt from the justification rules.
fn is_test_path(p: &str) -> bool {
    ["tests/", "benches/", "examples/"]
        .iter()
        .any(|d| p.starts_with(d) || p.contains(&format!("/{d}")))
}

fn finding(path: &Path, line: usize, rule: &'static str, msg: String) -> Finding {
    Finding {
        file: path.to_path_buf(),
        line: line + 1,
        rule,
        msg,
    }
}

/// Rule 1: every `unsafe` (block, fn, impl, trait) carries a
/// `// SAFETY:` comment or a `# Safety` rustdoc section. Applies to
/// test code too — a test's transmute needs the same argument.
pub fn unsafe_blocks(path: &Path, _p: &str, map: &SourceMap, out: &mut Vec<Finding>) {
    for (ln, _col) in map.word_occurrences("unsafe") {
        if map.has_marker(ln, "SAFETY:") || map.has_marker(ln, "# Safety") {
            continue;
        }
        out.push(finding(
            path,
            ln,
            "unsafe-block",
            "`unsafe` without a `// SAFETY:` comment; state the invariant that makes this sound"
                .into(),
        ));
    }
}

/// Rule 2: `Ordering::Relaxed` needs a `// relaxed:` justification
/// outside the allowlisted hot-path counter files. Test code is exempt
/// (tests assert on counters; they don't publish data via them).
pub fn relaxed_orderings(
    path: &Path,
    p: &str,
    map: &SourceMap,
    config: &Config,
    out: &mut Vec<Finding>,
) {
    if in_scope(p, &config.relaxed_allowlist) || (!config.all_files_in_scope && is_test_path(p)) {
        return;
    }
    for (ln, _col) in map.word_occurrences("Relaxed") {
        if map.is_test[ln] || map.has_marker(ln, "relaxed:") {
            continue;
        }
        out.push(finding(
            path,
            ln,
            "relaxed-ordering",
            "`Ordering::Relaxed` without a `// relaxed:` comment; say why no ordering is needed"
                .into(),
        ));
    }
}

/// Rule 3: no `.unwrap()` / `.expect(…)` / `panic!` in the serving
/// path's non-test code. `// lint: allow(panic) <reason>` marks the
/// deliberate invariant panics.
pub fn panic_paths(path: &Path, p: &str, map: &SourceMap, config: &Config, out: &mut Vec<Finding>) {
    if !config.all_files_in_scope && !in_scope(p, &config.panic_scope) {
        return;
    }
    let mut check = |word: &str, needs_dot: bool, needs_paren: bool| {
        for (ln, col) in map.word_occurrences(word) {
            if map.is_test[ln] || map.has_marker(ln, "lint: allow(panic)") {
                continue;
            }
            let bytes = map.masked[ln].as_bytes();
            if needs_dot && (col == 0 || bytes[col - 1] != b'.') {
                continue;
            }
            if needs_paren && !map.next_char_is(ln, col + word.len(), b'(') {
                continue;
            }
            out.push(finding(
                path,
                ln,
                "panic-path",
                format!(
                    "`{word}` in serving-path code; return an error, or add \
                     `// lint: allow(panic) <why this is an invariant>`"
                ),
            ));
        }
    };
    check("unwrap", true, true);
    check("expect", true, true);
    // `panic!` — the word match stops before `!`, so check it by hand.
    for (ln, col) in map.word_occurrences("panic") {
        if map.is_test[ln] || map.has_marker(ln, "lint: allow(panic)") {
            continue;
        }
        if !map.next_char_is(ln, col + "panic".len(), b'!') {
            continue;
        }
        out.push(finding(
            path,
            ln,
            "panic-path",
            "`panic!` in serving-path code; return an error, or add \
             `// lint: allow(panic) <why this is an invariant>`"
                .into(),
        ));
    }
}

/// Rule 4: `pub fn … -> Result` in the storage crates documents its
/// failure modes under an `# Errors` rustdoc heading.
pub fn errors_docs(path: &Path, p: &str, map: &SourceMap, config: &Config, out: &mut Vec<Finding>) {
    if !config.all_files_in_scope && !in_scope(p, &config.errors_doc_scope) {
        return;
    }
    for (ln, col) in map.word_occurrences("pub") {
        if map.is_test[ln] {
            continue;
        }
        // `pub fn` only: `pub(crate)`/`pub(super)` aren't public API.
        let Some((fn_ln, fn_col)) = next_word_at(map, ln, col + 3, "fn") else {
            continue;
        };
        let Some(sig) = signature_text(map, fn_ln, fn_col) else {
            continue;
        };
        let returns_result = sig
            .split_once("->")
            .is_some_and(|(_, ret)| ret.contains("Result"));
        if !returns_result || map.has_marker(ln, "# Errors") {
            continue;
        }
        out.push(finding(
            path,
            ln,
            "errors-doc",
            "public fallible API without an `# Errors` rustdoc section".into(),
        ));
    }
}

/// The next token after `(ln, col)` if it is exactly `word` (skipping
/// whitespace, staying on the same logical item).
fn next_word_at(map: &SourceMap, ln: usize, col: usize, word: &str) -> Option<(usize, usize)> {
    let mut line = ln;
    let mut start = col;
    while line < map.masked.len() {
        let s = &map.masked[line];
        let rest = &s[start.min(s.len())..];
        let trimmed = rest.trim_start();
        if !trimmed.is_empty() {
            let at = start + (rest.len() - trimmed.len());
            let matches = trimmed.starts_with(word)
                && trimmed[word.len()..]
                    .bytes()
                    .next()
                    .is_none_or(|b| !(b == b'_' || b.is_ascii_alphanumeric()));
            return matches.then_some((line, at));
        }
        line += 1;
        start = 0;
    }
    None
}

/// The signature text from an `fn` token to its body `{` or `;`.
fn signature_text(map: &SourceMap, ln: usize, col: usize) -> Option<String> {
    let mut sig = String::new();
    let mut line = ln;
    let mut start = col;
    while line < map.masked.len() {
        let s = &map.masked[line];
        for (i, ch) in s[start.min(s.len())..].char_indices() {
            let _ = i;
            if ch == '{' || ch == ';' {
                return Some(sig);
            }
            sig.push(ch);
        }
        sig.push(' ');
        line += 1;
        start = 0;
    }
    None
}

/// Rule 5: within one function, locks named in LOCKS.toml must be
/// acquired in ascending rank order. The check is textual — it sees
/// acquisition *sites*, not guard lifetimes — so a later low-rank
/// acquisition after an earlier-dropped high-rank guard is a false
/// positive by design, silenced with `// lint: allow(lock-order)
/// <why the earlier guard is gone>`.
pub fn lock_order(path: &Path, p: &str, map: &SourceMap, config: &Config, out: &mut Vec<Finding>) {
    let locks: Vec<_> = config
        .locks
        .iter()
        .filter(|l| p.contains(l.file.as_str()))
        .collect();
    if locks.is_empty() {
        return;
    }
    for (start, end) in map.fn_spans() {
        // rustfmt wraps chains (`self.ckpt_mutex\n.lock()`), so
        // match against a whitespace-condensed view of the body with a
        // char→line side table.
        let mut condensed = String::new();
        let mut line_of = Vec::new();
        for ln in start..=end.min(map.masked.len().saturating_sub(1)) {
            for ch in map.masked[ln].chars().filter(|c| !c.is_whitespace()) {
                condensed.push(ch);
                line_of.push(ln);
            }
        }
        // Ordered acquisitions in this function.
        let mut hits: Vec<(usize, u32, &str)> = Vec::new();
        for lock in &locks {
            for method in ["lock", "read", "write"] {
                let pat = format!(".{}.{}(", lock.name, method);
                let mut from = 0;
                while let Some(off) = condensed[from..].find(&pat) {
                    hits.push((from + off, lock.rank, lock.name.as_str()));
                    from += off + pat.len();
                }
            }
        }
        hits.sort_by_key(|h| h.0);
        // Highest-ranked acquisition seen so far in this function.
        let mut high: Option<(u32, &str, usize)> = None;
        for (pos, rank, name) in hits {
            let ln = line_of[pos];
            if let Some((hrank, hname, hline)) = high {
                if rank < hrank && !allow_lock_order(map, ln, line_of[pos + name.len() + 1]) {
                    out.push(finding(
                        path,
                        ln,
                        "lock-order",
                        format!(
                            "`{name}` (rank {rank}) acquired after `{hname}` (rank {hrank}, \
                             line {}); acquire in LOCKS.toml order, or add `// lint: \
                             allow(lock-order) <why the {hname} guard is already dropped>`",
                            hline + 1
                        ),
                    ));
                }
            }
            if high.is_none_or(|(hrank, _, _)| rank > hrank) {
                high = Some((rank, name, ln));
            }
        }
    }
}

/// The allow comment may sit above the line naming the lock field or on
/// any line of the wrapped acquisition chain.
fn allow_lock_order(map: &SourceMap, first: usize, last: usize) -> bool {
    if map.has_marker(first, "lint: allow(lock-order)") {
        return true;
    }
    (first..=last).any(|ln| {
        map.comments
            .get(ln)
            .is_some_and(|c| c.contains("lint: allow(lock-order)"))
    })
}

/// Rule 6: the uncapped `read_frame` stays inside pam-wal; everything
/// else bounds allocation with `read_frame_capped`.
pub fn uncapped_read_frame(
    path: &Path,
    p: &str,
    map: &SourceMap,
    config: &Config,
    out: &mut Vec<Finding>,
) {
    if in_scope(p, &config.read_frame_exempt) {
        return;
    }
    for (ln, col) in map.word_occurrences("read_frame") {
        if !map.next_char_is(ln, col + "read_frame".len(), b'(') {
            continue;
        }
        out.push(finding(
            path,
            ln,
            "uncapped-read-frame",
            "`read_frame` trusts length fields up to 1 GiB; outside pam-wal use \
             `read_frame_capped` with a cap sized to the input's provenance"
                .into(),
        ));
    }
}
