//! Chrome trace-event export of the epoch flight recorder.
//!
//! [`chrome_trace`] renders a set of [`EpochTrace`]s as the JSON object
//! format of the [Trace Event spec] — loadable in `chrome://tracing`
//! and [Perfetto](https://ui.perfetto.dev). The mapping:
//!
//! * one **track**, named `committer` via a thread-name metadata event:
//!   a store has one committer, whatever its shard count;
//! * per epoch, a `window` slice (segment open → committer drain: the
//!   group-commit window occupancy) followed by an enclosing
//!   `epoch <n>` slice whose children are the four committer stages —
//!   `normalize`, `wal_log`, `apply`, `publish` — laid back to back, so
//!   nesting falls out of timestamp containment;
//! * the epoch number and batch sizes ride in `args`.
//!
//! All slices are complete (`"ph": "X"`) events; timestamps are
//! microseconds since the process [`crate::flight::anchor`] with
//! nanosecond precision kept in the fraction.
//!
//! [Trace Event spec]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use crate::flight::EpochTrace;

/// Microseconds with the nanosecond remainder as the fraction.
fn us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

fn complete_event(name: &str, ts_ns: u64, dur_ns: u64, args: &str) -> String {
    format!(
        "{{\"name\": \"{name}\", \"ph\": \"X\", \"pid\": {pid}, \"tid\": 0, \
         \"ts\": {ts}, \"dur\": {dur}{args}}}",
        pid = std::process::id(),
        ts = us(ts_ns),
        dur = us(dur_ns),
        args = if args.is_empty() {
            String::new()
        } else {
            format!(", \"args\": {{{args}}}")
        },
    )
}

/// Render `traces` as one Chrome trace-event JSON document (the
/// `{"traceEvents": [...]}` object form).
pub fn chrome_trace(traces: &[EpochTrace]) -> String {
    let mut events = Vec::with_capacity(traces.len() * 6 + 1);
    if !traces.is_empty() {
        events.push(format!(
            "{{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": {}, \"tid\": 0, \
             \"args\": {{\"name\": \"committer\"}}}}",
            std::process::id(),
        ));
    }
    for t in traces {
        let base_args = format!(
            "\"epoch\": {}, \"raw_ops\": {}, \"applied_ops\": {}",
            t.epoch, t.raw_ops, t.applied_ops,
        );
        // The group-commit window: segment open → drained by the
        // committer. Clamped defensively — a trace recorded before the
        // anchor settled could invert the pair.
        if t.drain_ns >= t.open_ns {
            events.push(complete_event(
                "window",
                t.open_ns,
                t.drain_ns - t.open_ns,
                &base_args,
            ));
        }
        // Enclosing epoch slice, then the four stages tiled inside it.
        let commit_dur = t.normalize_ns + t.wal_log_ns + t.apply_ns + t.publish_ns;
        events.push(complete_event(
            &format!("epoch {}", t.epoch),
            t.drain_ns,
            commit_dur,
            &base_args,
        ));
        let mut at = t.drain_ns;
        for (stage, dur) in [
            ("normalize", t.normalize_ns),
            ("wal_log", t.wal_log_ns),
            ("apply", t.apply_ns),
            ("publish", t.publish_ns),
        ] {
            events.push(complete_event(stage, at, dur, &base_args));
            at += dur;
        }
    }
    format!(
        "{{\"traceEvents\": [{}], \"displayTimeUnit\": \"ms\"}}",
        events.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn trace(epoch: u64) -> EpochTrace {
        EpochTrace {
            epoch,
            raw_ops: 100,
            applied_ops: 90,
            open_ns: 1_000 * epoch,
            drain_ns: 1_000 * epoch + 500,
            normalize_ns: 100,
            wal_log_ns: 200,
            apply_ns: 300,
            publish_ns: 50,
        }
    }

    #[test]
    fn export_parses_and_has_one_timeline_per_epoch() {
        let traces: Vec<EpochTrace> = (1..=16u64).map(trace).collect();
        let doc = chrome_trace(&traces);
        let v = Json::parse(&doc).expect("trace JSON parses");
        let events = v.get("traceEvents").unwrap().as_arr().unwrap();
        // 1 metadata + 16 epochs × (window + epoch + 4 stages)
        assert_eq!(events.len(), 1 + 16 * 6);
        for ev in events {
            for key in ["name", "ph", "pid", "tid"] {
                assert!(ev.get(key).is_some(), "event missing {key}: {ev:?}");
            }
            if ev.get("ph").unwrap().as_str() == Some("X") {
                assert!(ev.get("ts").unwrap().as_f64().is_some());
                assert!(ev.get("dur").unwrap().as_f64().is_some());
            }
        }
        // one track: the committer's
        assert!(events
            .iter()
            .all(|e| e.get("tid").unwrap().as_f64() == Some(0.0)));
        // each epoch has all four stages
        for stage in ["normalize", "wal_log", "apply", "publish"] {
            let n = events
                .iter()
                .filter(|e| e.get("name").unwrap().as_str() == Some(stage))
                .count();
            assert_eq!(n, 16, "{stage} slices");
        }
        // stages tile: normalize starts at the drain timestamp
        let norm = events
            .iter()
            .find(|e| {
                e.get("name").unwrap().as_str() == Some("normalize")
                    && e.get("args").unwrap().get("epoch").unwrap().as_f64() == Some(1.0)
            })
            .unwrap();
        assert_eq!(norm.get("ts").unwrap().as_f64(), Some(1.5)); // 1500 ns
        assert_eq!(norm.get("dur").unwrap().as_f64(), Some(0.1)); // 100 ns
    }

    #[test]
    fn empty_ring_renders_an_empty_but_valid_document() {
        let v = Json::parse(&chrome_trace(&[])).unwrap();
        assert_eq!(v.get("traceEvents").unwrap().as_arr().unwrap().len(), 0);
    }
}
