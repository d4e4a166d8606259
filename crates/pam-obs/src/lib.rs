//! `pam-obs` — zero-dependency observability for the PAM store stack.
//!
//! Seven pieces, each usable on its own:
//!
//! * [`hist`] — lock-free **log-bucketed latency histograms**
//!   ([`Histogram`] / [`HistogramSnapshot`]): wait-free recording from
//!   any number of threads, snapshot-on-demand, percentiles
//!   (p50/p90/p99/p999) within ~6.25% relative error, and bucket-wise
//!   [`HistogramSnapshot::merge`] so per-shard histograms fold into one
//!   store-wide view.
//! * [`metrics`] — a [`MetricsRegistry`] of named counters, gauges, and
//!   histograms with **Prometheus-text** and **JSON** exposition. Hot
//!   paths keep their recorders embedded in their own structs and
//!   export into the registry at scrape time.
//! * [`trace`] — a minimal event log: [`event!`] writes every event into
//!   one fixed ring of recent events ([`recent_events`]) and, when
//!   `PAM_LOG` enables its level, to stderr.
//! * [`server`] — a **live telemetry endpoint**: a hand-rolled HTTP/1.0
//!   listener ([`ObsServer`]) serving `/metrics`, `/metrics.json`,
//!   `/events`, `/health`, and `/trace` from a [`TelemetrySource`].
//! * [`flight`] — the **epoch flight recorder**: a fixed ring of
//!   per-epoch stage timelines ([`EpochTrace`]) plus crash dumps
//!   (`flight-<pid>.json`) into registered WAL directories on poison or
//!   panic.
//! * [`chrome`] — renders the flight ring as Chrome trace-event JSON
//!   ([`chrome_trace`]) for `chrome://tracing` / Perfetto.
//! * [`json`] — the zero-dependency JSON reader the tests and CI checks
//!   validate all of the above with.
//!
//! Everything is hand-rolled (no registry access in this workspace, by
//! design — see the `crates/shims` pattern) and cheap enough to stay
//! compiled into release builds.

#![warn(missing_docs)]

pub mod chrome;
pub mod flight;
pub mod hist;
pub mod json;
pub mod metrics;
pub mod server;
pub mod trace;

pub use chrome::chrome_trace;
pub use flight::{EpochTrace, FlightRecorder};
pub use hist::{Histogram, HistogramSnapshot};
pub use metrics::MetricsRegistry;
pub use server::{Health, ObsServer, TelemetrySource};
pub use trace::{recent_events, Level};
