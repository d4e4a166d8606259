//! The epoch flight recorder: a black box for the commit pipeline.
//!
//! The committer records one [`EpochTrace`] per committed epoch — the
//! monotonic start of each pipeline stage (group-commit window, submit
//! drain, normalize, WAL log, apply, publish) plus batch sizes — into a
//! process-global fixed ring
//! ([`FlightRecorder`]). Two consumers read the ring:
//!
//! * the live telemetry server's `/trace` endpoint (see
//!   [`crate::server`]) renders it as Chrome trace-event JSON via
//!   [`crate::chrome::chrome_trace`];
//! * **crash dumps** — a store that poisons (WAL append failure) or a
//!   process that panics writes `flight-<pid>.json` into every
//!   registered WAL directory ([`register_dump_dir`]), capturing the
//!   ring, the full global metrics registry, and the recent-event ring:
//!   a crashed store leaves a black box next to its `LOCK.pid`.
//!
//! Timestamps are nanoseconds since a process-wide [`anchor`] `Instant`.
//! The anchor is created lazily but **must** be touched before the first
//! instant it will be compared against (the pipeline does this in its
//! constructor) — otherwise `saturating_duration_since` clamps earlier
//! instants to 0 and the window slices collapse.
//!
//! Dumps are first-wins per registered directory: the first failure is
//! the interesting one, and a cascade of waiter panics after a poison
//! must not overwrite the dump that named the root cause.

use crate::json::escape;
use crate::metrics::MetricsRegistry;
use crate::trace::recent_events;
use std::collections::VecDeque;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::Instant;

/// How many epoch traces the global ring retains (oldest evicted first).
pub const FLIGHT_CAPACITY: usize = 1024;

/// Per-stage timeline of one committed epoch, in nanoseconds relative to
/// the process [`anchor`]. The stages tile: the epoch segment opens at
/// `open_ns`, drains (is popped by the committer) at `drain_ns`, then
/// normalize → wal_log → apply → publish run back to back (`wal_log_ns`
/// covers the WAL append end to end, its fsync included; the append
/// does not expose a finer split).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EpochTrace {
    /// The epoch number — the version it published.
    pub epoch: u64,
    /// Operations writers enqueued into the epoch.
    pub raw_ops: u64,
    /// Operations surviving last-write-wins deduplication.
    pub applied_ops: u64,
    /// When the epoch segment opened (first write arrived).
    pub open_ns: u64,
    /// When the committer drained the segment (group-commit window end).
    pub drain_ns: u64,
    /// Normalize stage duration (parallel sort + LWW dedup).
    pub normalize_ns: u64,
    /// Commit-hook stage duration (WAL append + fsync; 0 in-memory).
    pub wal_log_ns: u64,
    /// Apply stage duration (routing + bulk insert/delete per shard).
    pub apply_ns: u64,
    /// Publish stage duration (the registry swap).
    pub publish_ns: u64,
}

impl EpochTrace {
    /// When the epoch finished publishing, relative to the [`anchor`].
    pub fn end_ns(&self) -> u64 {
        self.drain_ns + self.normalize_ns + self.wal_log_ns + self.apply_ns + self.publish_ns
    }

    /// Render as one JSON object (stable field set — the flight-dump
    /// format documented in ARCHITECTURE.md).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"epoch\": {}, \"raw_ops\": {}, \"applied_ops\": {}, \"open_ns\": {}, \
             \"drain_ns\": {}, \"normalize_ns\": {}, \"wal_log_ns\": {}, \"apply_ns\": {}, \
             \"publish_ns\": {}}}",
            self.epoch,
            self.raw_ops,
            self.applied_ops,
            self.open_ns,
            self.drain_ns,
            self.normalize_ns,
            self.wal_log_ns,
            self.apply_ns,
            self.publish_ns,
        )
    }
}

/// The process-wide monotonic zero point every [`EpochTrace`] timestamp
/// is relative to. Touch it **before** capturing any `Instant` that will
/// be converted (see the module docs).
pub fn anchor() -> Instant {
    static ANCHOR: OnceLock<Instant> = OnceLock::new();
    *ANCHOR.get_or_init(Instant::now)
}

/// Nanoseconds from the [`anchor`] to `t` (0 if `t` predates it).
pub fn instant_ns(t: Instant) -> u64 {
    t.saturating_duration_since(anchor()).as_nanos() as u64
}

/// Nanoseconds from the [`anchor`] to now.
pub fn monotonic_ns() -> u64 {
    instant_ns(Instant::now())
}

/// A fixed-size ring of the most recent [`EpochTrace`]s. The committer
/// of every store in the process records into [`FlightRecorder::global`].
#[derive(Default)]
pub struct FlightRecorder {
    ring: Mutex<VecDeque<EpochTrace>>,
}

impl FlightRecorder {
    /// An empty recorder (tests; production uses [`Self::global`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// The process-wide recorder every pipeline records into.
    pub fn global() -> &'static FlightRecorder {
        static GLOBAL: OnceLock<FlightRecorder> = OnceLock::new();
        GLOBAL.get_or_init(FlightRecorder::new)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, VecDeque<EpochTrace>> {
        self.ring.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Append one trace, evicting the oldest past [`FLIGHT_CAPACITY`].
    pub fn record(&self, trace: EpochTrace) {
        let mut ring = self.lock();
        if ring.len() == FLIGHT_CAPACITY {
            ring.pop_front();
        }
        ring.push_back(trace);
    }

    /// The retained traces, oldest first.
    pub fn snapshot(&self) -> Vec<EpochTrace> {
        self.lock().iter().cloned().collect()
    }

    /// Number of traces currently retained.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Is the ring empty?
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }
}

/// Render the full flight-dump document: reason, pid, the poisoned
/// epoch (if the dump came from the fail-stop path), the epoch ring,
/// the global metrics registry, and the recent-event ring.
pub fn render_flight_dump(reason: &str, poisoned_epoch: Option<u64>) -> String {
    let epochs: Vec<String> = FlightRecorder::global()
        .snapshot()
        .iter()
        .map(EpochTrace::to_json)
        .collect();
    let events: Vec<String> = recent_events().iter().map(|e| e.to_json()).collect();
    let poisoned = match poisoned_epoch {
        Some(e) => e.to_string(),
        None => "null".to_string(),
    };
    format!(
        "{{\"reason\": \"{}\", \"pid\": {}, \"poisoned_epoch\": {poisoned}, \
         \"captured_ns\": {}, \"epochs\": [{}], \"metrics\": {}, \"events\": [{}]}}",
        escape(reason),
        std::process::id(),
        monotonic_ns(),
        epochs.join(", "),
        MetricsRegistry::global().render_json(),
        events.join(", "),
    )
}

/// Write a flight dump to `<dir>/flight-<pid>.json` via the same
/// temp+rename idiom the checkpoint writer uses (`.tmp` sibling, then an
/// atomic rename — a reader never sees a torn dump). Returns the final
/// path.
///
/// # Errors
///
/// Filesystem errors pass through (the caller is usually already
/// crashing, so they are reported best-effort).
pub fn write_flight_dump(
    dir: &Path,
    reason: &str,
    poisoned_epoch: Option<u64>,
) -> io::Result<PathBuf> {
    let body = render_flight_dump(reason, poisoned_epoch);
    let path = dir.join(format!("flight-{}.json", std::process::id()));
    let tmp = dir.join(format!("flight-{}.json.tmp", std::process::id()));
    std::fs::write(&tmp, body.as_bytes())?;
    std::fs::rename(&tmp, &path)?;
    Ok(path)
}

struct DumpDirs {
    next_id: u64,
    /// (registration id, directory, already dumped this registration).
    dirs: Vec<(u64, PathBuf, bool)>,
}

fn dump_dirs() -> &'static Mutex<DumpDirs> {
    static DIRS: OnceLock<Mutex<DumpDirs>> = OnceLock::new();
    DIRS.get_or_init(|| {
        Mutex::new(DumpDirs {
            next_id: 0,
            dirs: Vec::new(),
        })
    })
}

/// Unregisters its directory when dropped (a cleanly closed store must
/// not receive dumps for later, unrelated panics).
#[must_use = "dropping the guard immediately unregisters the dump directory"]
pub struct DumpDirGuard {
    id: u64,
}

impl Drop for DumpDirGuard {
    fn drop(&mut self) {
        let mut g = dump_dirs().lock().unwrap_or_else(PoisonError::into_inner);
        g.dirs.retain(|(id, _, _)| *id != self.id);
    }
}

/// Register `dir` to receive a `flight-<pid>.json` black box when the
/// store poisons or the process panics. The first registration installs
/// a chained panic hook (the previous hook still runs). Dumps are
/// first-wins per registration: once a directory has its black box, a
/// cascade of follow-on panics leaves it alone.
pub fn register_dump_dir(dir: &Path) -> DumpDirGuard {
    static HOOK: OnceLock<()> = OnceLock::new();
    HOOK.get_or_init(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let reason = format!("panic: {info}");
            dump_registered(&reason, None);
            prev(info);
        }));
    });
    let mut g = dump_dirs().lock().unwrap_or_else(PoisonError::into_inner);
    let id = g.next_id;
    g.next_id += 1;
    g.dirs.push((id, dir.to_path_buf(), false));
    DumpDirGuard { id }
}

/// Dump the black box into every registered directory that has not
/// received one yet (best-effort: write errors go to stderr — the
/// process is crashing). Returns the paths written.
pub fn dump_registered(reason: &str, poisoned_epoch: Option<u64>) -> Vec<PathBuf> {
    // Snapshot the target list, then render and write *outside* the
    // registry lock: rendering takes the metrics/ring locks, and a panic
    // inside a Drop holding the registry lock must not deadlock us.
    let targets: Vec<(u64, PathBuf)> = {
        let g = dump_dirs().lock().unwrap_or_else(PoisonError::into_inner);
        g.dirs
            .iter()
            .filter(|(_, _, dumped)| !dumped)
            .map(|(id, dir, _)| (*id, dir.clone()))
            .collect()
    };
    if targets.is_empty() {
        return Vec::new();
    }
    let mut written = Vec::new();
    for (id, dir) in targets {
        match write_flight_dump(&dir, reason, poisoned_epoch) {
            Ok(path) => {
                written.push(path);
                let mut g = dump_dirs().lock().unwrap_or_else(PoisonError::into_inner);
                if let Some(entry) = g.dirs.iter_mut().find(|(i, _, _)| *i == id) {
                    entry.2 = true;
                }
            }
            Err(e) => eprintln!(
                "pam-obs: failed to write flight dump to {}: {e}",
                dir.display()
            ),
        }
    }
    if !written.is_empty() {
        eprintln!(
            "pam-obs: flight dump written to {}",
            written
                .iter()
                .map(|p| p.display().to_string())
                .collect::<Vec<_>>()
                .join(", ")
        );
    }
    written
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn ring_evicts_oldest_at_capacity() {
        let rec = FlightRecorder::new();
        for epoch in 0..(FLIGHT_CAPACITY as u64 + 10) {
            rec.record(EpochTrace {
                epoch,
                ..EpochTrace::default()
            });
        }
        let snap = rec.snapshot();
        assert_eq!(snap.len(), FLIGHT_CAPACITY);
        assert_eq!(snap.first().unwrap().epoch, 10);
        assert_eq!(snap.last().unwrap().epoch, FLIGHT_CAPACITY as u64 + 9);
    }

    #[test]
    fn dump_document_is_valid_json_and_names_the_epoch() {
        FlightRecorder::global().record(EpochTrace {
            epoch: 41,
            raw_ops: 10,
            applied_ops: 9,
            open_ns: 100,
            drain_ns: 200,
            normalize_ns: 10,
            wal_log_ns: 20,
            apply_ns: 30,
            publish_ns: 5,
        });
        let doc = render_flight_dump("test \"reason\"\nline2", Some(42));
        let v = Json::parse(&doc).expect("flight dump parses");
        assert_eq!(
            v.get("reason").unwrap().as_str(),
            Some("test \"reason\"\nline2")
        );
        assert_eq!(v.get("poisoned_epoch").unwrap().as_f64(), Some(42.0));
        let epochs = v.get("epochs").unwrap().as_arr().unwrap();
        let ours = epochs
            .iter()
            .find(|e| e.get("epoch").unwrap().as_f64() == Some(41.0))
            .expect("recorded epoch present");
        assert_eq!(ours.get("raw_ops").unwrap().as_f64(), Some(10.0));
        assert_eq!(ours.get("wal_log_ns").unwrap().as_f64(), Some(20.0));
        assert!(v.get("metrics").unwrap().get("counters").is_some());
        assert!(v.get("events").unwrap().as_arr().is_some());
    }

    #[test]
    fn registered_dirs_dump_first_wins_and_unregister_on_drop() {
        let dir = std::env::temp_dir().join(format!("pam-flight-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let guard = register_dump_dir(&dir);
        let written = dump_registered("first failure", Some(3));
        assert_eq!(written.len(), 1);
        let body = std::fs::read_to_string(&written[0]).unwrap();
        let v = Json::parse(&body).unwrap();
        assert_eq!(v.get("reason").unwrap().as_str(), Some("first failure"));
        // no torn temp file left behind
        assert!(!written[0].with_extension("json.tmp").exists());
        // second dump is suppressed (first-wins), file keeps the cause
        assert!(dump_registered("cascade", None).is_empty());
        let v = Json::parse(&std::fs::read_to_string(&written[0]).unwrap()).unwrap();
        assert_eq!(v.get("reason").unwrap().as_str(), Some("first failure"));
        // dropping the guard unregisters; nothing further is written
        drop(guard);
        assert!(dump_registered("after drop", None).is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn anchor_is_monotone() {
        let a = monotonic_ns();
        let b = monotonic_ns();
        assert!(b >= a);
        assert!(instant_ns(Instant::now()) >= a);
    }
}
