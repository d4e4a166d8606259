//! A minimal event log: the [`event!`](crate::event) macro writes every
//! event into one fixed ring of the last [`RING_CAPACITY`] events
//! ([`recent_events`], served at `/events` and captured into flight
//! dumps), and to stderr when the `PAM_LOG` environment variable
//! (`error|warn|info`, default off) enables its level.
//!
//! Events are lifecycle landmarks — recovery phases, checkpoints,
//! segment rotations, failures — a handful per checkpoint interval, so
//! every one is formatted and kept; there is no level gate to skip one.

use crate::json::escape;
use std::collections::VecDeque;
use std::sync::{Mutex, OnceLock, PoisonError};

/// Event severity, most severe first.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Something failed and was (at best) degraded around.
    Error,
    /// Something surprising that is not yet a failure.
    Warn,
    /// Lifecycle landmarks: recovery phases, checkpoints, rotations.
    Info,
}

impl Level {
    fn parse(s: &str) -> Option<Level> {
        match s.trim().to_ascii_lowercase().as_str() {
            "error" => Some(Level::Error),
            "warn" => Some(Level::Warn),
            "info" => Some(Level::Info),
            _ => None,
        }
    }

    fn as_str(self) -> &'static str {
        match self {
            Level::Error => "ERROR",
            Level::Warn => "WARN",
            Level::Info => "INFO",
        }
    }
}

impl std::fmt::Display for Level {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One event in the ring.
#[derive(Clone, Debug)]
pub struct CapturedEvent {
    /// Severity it fired at.
    pub level: Level,
    /// Component that fired it (e.g. `"pam_wal"`).
    pub target: &'static str,
    /// The formatted message.
    pub message: String,
}

impl CapturedEvent {
    /// `{"level": .., "target": .., "message": ..}` — one element of
    /// `/events` and of a flight dump's `events` array.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"level\": \"{}\", \"target\": \"{}\", \"message\": \"{}\"}}",
            self.level,
            escape(self.target),
            escape(&self.message)
        )
    }
}

/// How many events the ring retains; past that the oldest is dropped.
pub const RING_CAPACITY: usize = 256;

struct Ring(Mutex<VecDeque<CapturedEvent>>);

impl Ring {
    const fn new() -> Ring {
        Ring(Mutex::new(VecDeque::new()))
    }

    fn push(&self, event: CapturedEvent) {
        let mut ring = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        if ring.len() == RING_CAPACITY {
            ring.pop_front();
        }
        ring.push_back(event);
    }

    fn recent(&self) -> Vec<CapturedEvent> {
        let ring = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        ring.iter().cloned().collect()
    }
}

static RING: Ring = Ring::new();

/// The least severe level `PAM_LOG` sends to stderr, read once.
fn stderr_level() -> Option<Level> {
    static STDERR: OnceLock<Option<Level>> = OnceLock::new();
    *STDERR.get_or_init(|| std::env::var("PAM_LOG").ok().and_then(|s| Level::parse(&s)))
}

/// Record one event (the [`event!`](crate::event) macro's body — prefer
/// the macro).
pub fn record(level: Level, target: &'static str, message: String) {
    if stderr_level().is_some_and(|max| level <= max) {
        eprintln!("[{level:5} {target}] {message}");
    }
    RING.push(CapturedEvent {
        level,
        target,
        message,
    });
}

/// The last [`RING_CAPACITY`] events, oldest first.
pub fn recent_events() -> Vec<CapturedEvent> {
    RING.recent()
}

/// Fire an event: `event!(Level::Info, "pam_wal", "rotated to {}", n)`.
#[macro_export]
macro_rules! event {
    ($level:expr, $target:expr, $($arg:tt)+) => {
        $crate::trace::record($level, $target, format!($($arg)+))
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_land_in_the_ring_and_the_oldest_drops_past_capacity() {
        event!(Level::Info, "pam_test", "hello {}", 42);
        assert!(recent_events()
            .iter()
            .any(|e| e.level == Level::Info && e.target == "pam_test" && e.message == "hello 42"));

        // eviction on a private ring, so other tests' events in the
        // process-wide one are not flushed out
        let ring = Ring::new();
        for i in 0..=RING_CAPACITY {
            ring.push(CapturedEvent {
                level: Level::Warn,
                target: "pam_test",
                message: i.to_string(),
            });
        }
        let kept = ring.recent();
        assert_eq!(kept.len(), RING_CAPACITY);
        assert_eq!(kept[0].message, "1", "event 0 was the oldest");
        assert_eq!(kept[RING_CAPACITY - 1].message, RING_CAPACITY.to_string());
    }

    #[test]
    fn level_parsing_and_order() {
        assert_eq!(Level::parse("WARN"), Some(Level::Warn));
        assert_eq!(Level::parse(" info "), Some(Level::Info));
        assert_eq!(Level::parse("debug"), None);
        assert!(Level::Error < Level::Info);
        assert_eq!(Level::Warn.to_string(), "WARN");
    }
}
