//! The metrics registry and its exposition formats.
//!
//! A [`MetricsRegistry`] is a named collection of point-in-time counter,
//! gauge, and histogram values, pushed in with the `export_*` methods.
//! Every layer keeps its hot-path recorders embedded in its own stats
//! struct (no registry lookup per commit) and exports them here at
//! scrape time; each `export_*` call overwrites the previous value under
//! the same name.
//!
//! Exposition: [`MetricsRegistry::render_prometheus`] (text format —
//! histograms become summaries with `{quantile="..."}` series) and
//! [`MetricsRegistry::render_json`].
//!
//! Metric names follow Prometheus rules — `[a-zA-Z_:][a-zA-Z0-9_:]*`,
//! optionally followed by one `{key="value",...}` label block baked into
//! the name (e.g. `pam_commit_nanos{shard="3"}`).

use crate::hist::HistogramSnapshot;
use crate::json::escape as json_escape;
use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock, PoisonError};

enum Slot {
    Counter(u64),
    Gauge(i64),
    Hist(HistogramSnapshot),
}

/// A named collection of exported metrics with Prometheus-text and JSON
/// exposition.
#[derive(Default)]
pub struct MetricsRegistry {
    slots: Mutex<BTreeMap<String, Slot>>,
}

/// Is `name` a valid metric name: `[a-zA-Z_:][a-zA-Z0-9_:]*` plus an
/// optional trailing `{...}` label block?
fn valid_name(name: &str) -> bool {
    let base = name.split_once('{').map_or(name, |(b, rest)| {
        if !rest.ends_with('}') {
            return "";
        }
        b
    });
    let mut chars = base.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Split `name` into its base and an optional `key="v",...` label body.
fn split_name(name: &str) -> (&str, Option<&str>) {
    match name.split_once('{') {
        Some((base, rest)) => (base, rest.strip_suffix('}')),
        None => (name, None),
    }
}

/// `name` with one more label appended (handles both labelled and plain
/// names).
fn with_label(name: &str, key: &str, value: &str) -> String {
    let (base, labels) = split_name(name);
    match labels {
        Some(l) if !l.is_empty() => format!("{base}{{{l},{key}=\"{value}\"}}"),
        _ => format!("{base}{{{key}=\"{value}\"}}"),
    }
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The process-wide registry (created on first use).
    pub fn global() -> &'static MetricsRegistry {
        static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();
        GLOBAL.get_or_init(MetricsRegistry::new)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<String, Slot>> {
        self.slots.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Publish a point-in-time counter value under `name` (overwrites a
    /// previous export of the same name).
    ///
    /// # Panics
    ///
    /// If `name` is not a valid metric name.
    pub fn export_counter(&self, name: &str, value: u64) {
        assert!(valid_name(name), "invalid metric name {name:?}");
        self.lock().insert(name.to_string(), Slot::Counter(value));
    }

    /// Publish a point-in-time gauge value under `name`.
    ///
    /// # Panics
    ///
    /// If `name` is not a valid metric name.
    pub fn export_gauge(&self, name: &str, value: i64) {
        assert!(valid_name(name), "invalid metric name {name:?}");
        self.lock().insert(name.to_string(), Slot::Gauge(value));
    }

    /// Publish a histogram snapshot under `name`.
    ///
    /// # Panics
    ///
    /// If `name` is not a valid metric name.
    pub fn export_histogram(&self, name: &str, snapshot: HistogramSnapshot) {
        assert!(valid_name(name), "invalid metric name {name:?}");
        self.lock().insert(name.to_string(), Slot::Hist(snapshot));
    }

    /// Render every metric in the Prometheus text exposition format.
    /// Histograms render as summaries: `{quantile="..."}` series plus
    /// `_count`, `_sum`, and `_max` samples. Every non-comment line is
    /// `name value` or `name{labels} value`.
    pub fn render_prometheus(&self) -> String {
        let slots = self.lock();
        let mut out = String::new();
        let mut typed: std::collections::BTreeSet<&str> = Default::default();
        for (name, slot) in slots.iter() {
            let (base, _) = split_name(name);
            let kind = match slot {
                Slot::Counter(_) => "counter",
                Slot::Gauge(_) => "gauge",
                Slot::Hist(_) => "summary",
            };
            if typed.insert(base) {
                out.push_str(&format!("# TYPE {base} {kind}\n"));
            }
            match slot {
                Slot::Counter(v) => out.push_str(&format!("{name} {v}\n")),
                Slot::Gauge(v) => out.push_str(&format!("{name} {v}\n")),
                Slot::Hist(s) => render_prom_hist(&mut out, name, s),
            }
        }
        out
    }

    /// Render every metric as one JSON object:
    /// `{"counters": {...}, "gauges": {...}, "histograms": {name:
    /// {"count", "sum", "max", "mean", "p50", "p90", "p99", "p999"}}}`.
    pub fn render_json(&self) -> String {
        let slots = self.lock();
        let mut counters = Vec::new();
        let mut gauges = Vec::new();
        let mut hists = Vec::new();
        for (name, slot) in slots.iter() {
            let name = json_escape(name);
            match slot {
                Slot::Counter(v) => counters.push(format!("\"{name}\": {v}")),
                Slot::Gauge(v) => gauges.push(format!("\"{name}\": {v}")),
                Slot::Hist(s) => hists.push(json_hist(&name, s)),
            }
        }
        format!(
            "{{\"counters\": {{{}}}, \"gauges\": {{{}}}, \"histograms\": {{{}}}}}",
            counters.join(", "),
            gauges.join(", "),
            hists.join(", ")
        )
    }
}

fn render_prom_hist(out: &mut String, name: &str, s: &HistogramSnapshot) {
    for (q, v) in [
        ("0.5", s.p50()),
        ("0.9", s.p90()),
        ("0.99", s.p99()),
        ("0.999", s.p999()),
    ] {
        out.push_str(&format!("{} {v}\n", with_label(name, "quantile", q)));
    }
    let (base, labels) = split_name(name);
    let suffixed = |suffix: &str| match labels {
        Some(l) if !l.is_empty() => format!("{base}{suffix}{{{l}}}"),
        _ => format!("{base}{suffix}"),
    };
    out.push_str(&format!("{} {}\n", suffixed("_count"), s.count()));
    out.push_str(&format!("{} {}\n", suffixed("_sum"), s.sum()));
    out.push_str(&format!("{} {}\n", suffixed("_max"), s.max()));
}

fn json_hist(escaped_name: &str, s: &HistogramSnapshot) -> String {
    format!(
        "\"{escaped_name}\": {{\"count\": {}, \"sum\": {}, \"max\": {}, \"mean\": {}, \
         \"p50\": {}, \"p90\": {}, \"p99\": {}, \"p999\": {}}}",
        s.count(),
        s.sum(),
        s.max(),
        s.mean(),
        s.p50(),
        s.p90(),
        s.p99(),
        s.p999()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn invalid_names_panic() {
        MetricsRegistry::new().export_counter("0bad name", 1);
    }

    #[test]
    fn prometheus_exposition_parses_line_by_line() {
        let reg = MetricsRegistry::new();
        reg.export_counter("pam_ops_total", 7);
        reg.export_gauge("pam_depth", -2);
        let h = crate::hist::Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        reg.export_histogram("pam_lat_nanos{shard=\"0\"}", h.snapshot());
        let text = reg.render_prometheus();
        // the CI contract: every line is a comment or `name[{labels}] value`
        for line in text.lines() {
            if line.starts_with('#') {
                continue;
            }
            let (name, value) = line.rsplit_once(' ').expect("name value");
            assert!(valid_name(name), "bad sample name {name:?}");
            value.parse::<i64>().expect("numeric value");
        }
        assert!(text.contains("# TYPE pam_lat_nanos summary"));
        assert!(text.contains("pam_lat_nanos{shard=\"0\",quantile=\"0.99\"}"));
        assert!(text.contains("pam_lat_nanos_count{shard=\"0\"} 100"));
        assert!(text.contains("pam_ops_total 7"));
        assert!(text.contains("pam_depth -2"));
    }

    #[test]
    fn json_exposition_has_all_sections() {
        let reg = MetricsRegistry::new();
        reg.export_counter("c", 1);
        reg.export_gauge("g", 1);
        let mut snap = crate::hist::Histogram::new().snapshot();
        let live = crate::hist::Histogram::new();
        live.record(50);
        snap.merge(&live.snapshot());
        reg.export_histogram("h", snap);
        let json = reg.render_json();
        assert!(json.contains("\"counters\": {\"c\": 1}"));
        assert!(json.contains("\"gauges\": {\"g\": 1}"));
        assert!(json.contains("\"p999\": 50"));
        assert!(json.contains("\"count\": 1"));
    }

    #[test]
    fn exports_overwrite_previous_values() {
        let reg = MetricsRegistry::new();
        reg.export_counter("x_total", 1);
        reg.export_counter("x_total", 5);
        assert!(reg.render_prometheus().contains("x_total 5"));
        reg.export_gauge("x_g", -3);
        assert!(reg.render_prometheus().contains("x_g -3"));
    }
}
