//! The outside-in tracer: a span around every call the driver makes into
//! a layer, kept in memory and written as a Chrome trace at exit.
//!
//! Spans are recorded from the benchmark's own files only (spans inside
//! the program are a later issue). Each thread records into its own
//! [`Recorder`] — no shared state on the measured path — and hands the
//! finished buffer to the [`Tracer`] when its work is done. With tracing
//! off a `Recorder` is inert: `begin` and `end` are one branch each.

use pam_obs::json::escape;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// One completed span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// What was called, e.g. `union` or `roundtrip`.
    pub name: &'static str,
    /// The layer (crate) the call went into.
    pub layer: &'static str,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in the same trace, if any.
    pub parent: Option<usize>,
    /// Spans of one request share this identifier.
    pub request: Option<u64>,
    /// The recording thread's track.
    pub tid: u32,
}

impl Span {
    fn dur(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects the spans of every thread of one run.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

/// Handle returned by [`Recorder::begin`], consumed by [`Recorder::end`].
#[derive(Clone, Copy)]
pub struct Open(Option<usize>);

/// A thread's private span buffer.
pub struct Recorder<'t> {
    tracer: &'t Tracer,
    tid: u32,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A tracer; when `enabled` is false every recorder it hands out is
    /// inert.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Is this a traced run?
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// A recorder for the calling thread; `tid` names its track.
    pub fn recorder(&self, tid: u32) -> Recorder<'_> {
        Recorder {
            tracer: self,
            tid,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Every span handed in so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("tracer mutex poisoned").clone()
    }
}

impl Recorder<'_> {
    /// Open a span; close it with [`Recorder::end`]. Spans opened while
    /// another is open on this recorder become its children.
    #[inline]
    pub fn begin(&mut self, layer: &'static str, name: &'static str, request: Option<u64>) -> Open {
        if !self.tracer.enabled {
            return Open(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            layer,
            start_ns: self.tracer.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.stack.last().copied(),
            request,
            tid: self.tid,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Close the span `open` (and, defensively, anything left open
    /// inside it).
    #[inline]
    pub fn end(&mut self, open: Open) {
        if let Open(Some(idx)) = open {
            let now = self.tracer.epoch.elapsed().as_nanos() as u64;
            while let Some(top) = self.stack.pop() {
                self.spans[top].end_ns = now;
                if top == idx {
                    break;
                }
            }
        }
    }

    /// Time `f` inside a span.
    #[inline]
    pub fn span<R>(&mut self, layer: &'static str, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.begin(layer, name, None);
        let r = f();
        self.end(open);
        r
    }
}

impl Drop for Recorder<'_> {
    /// Hand the buffer to the tracer, rebasing parent links onto the
    /// shared vector.
    fn drop(&mut self) {
        if self.spans.is_empty() {
            return;
        }
        // a poisoned mutex here means another thread already panicked;
        // losing this thread's spans must not turn that into an abort
        if let Ok(mut all) = self.tracer.spans.lock() {
            let base = all.len();
            all.extend(self.spans.drain(..).map(|mut s| {
                s.parent = s.parent.map(|p| p + base);
                s
            }));
        }
    }
}

/// Per-span self time: the span's duration minus the part of its
/// interval its child spans cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur).collect();
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            own[p] = own[p].saturating_sub(hi.saturating_sub(lo));
        }
    }
    own
}

/// Totals of one `(layer, name)` pair over a trace.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpanTotals {
    /// Spans with this layer and name.
    pub count: u64,
    /// Sum of their durations, ns.
    pub total_ns: u64,
    /// Sum of their self times, ns.
    pub self_ns: u64,
}

/// Fold a trace into per-`(layer, name)` totals.
pub fn totals(spans: &[Span]) -> BTreeMap<(&'static str, &'static str), SpanTotals> {
    let own = self_times(spans);
    let mut out: BTreeMap<_, SpanTotals> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(own) {
        let t = out.entry((s.layer, s.name)).or_default();
        t.count += 1;
        t.total_ns += s.dur();
        t.self_ns += self_ns;
    }
    out
}

/// Render a trace in Chrome's trace-event format (`ph: "X"` complete
/// events, microsecond timestamps; loads in `chrome://tracing` and
/// Perfetto).
pub fn chrome_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\": [\n");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let mut args = format!("\"id\": {i}");
        if let Some(p) = s.parent {
            args.push_str(&format!(", \"parent\": {p}"));
        }
        if let Some(r) = s.request {
            args.push_str(&format!(", \"request\": {r}"));
        }
        out.push_str(&format!(
            "{{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"ts\": {:.3}, \"dur\": {:.3}, \
             \"pid\": 1, \"tid\": {}, \"args\": {{{args}}}}}",
            escape(s.name),
            escape(s.layer),
            s.start_ns as f64 / 1e3,
            s.dur() as f64 / 1e3,
            s.tid,
        ));
    }
    out.push_str("\n], \"displayTimeUnit\": \"ns\"}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pam_obs::json::Json;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            layer: "pam",
            start_ns: start,
            end_ns: end,
            parent,
            request: None,
            tid: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = vec![
            span("request", 0, 100, None),
            span("encode", 10, 30, Some(0)),
            span("roundtrip", 30, 90, Some(0)),
            span("syscall", 40, 50, Some(2)),
        ];
        // request: 100 - (20 + 60); roundtrip: 60 - 10; leaves keep theirs
        assert_eq!(self_times(&spans), vec![20, 20, 50, 10]);
        let t = totals(&spans);
        assert_eq!(t[&("pam", "request")].self_ns, 20);
        assert_eq!(t[&("pam", "roundtrip")].total_ns, 60);
        assert_eq!(t.values().map(|t| t.self_ns).sum::<u64>(), 100);
    }

    #[test]
    fn a_child_overrunning_its_parent_is_clipped() {
        let spans = vec![span("outer", 10, 50, None), span("inner", 40, 70, Some(0))];
        assert_eq!(self_times(&spans), vec![30, 30]);
    }

    #[test]
    fn recorders_nest_and_rebase_across_threads() {
        let tracer = Tracer::new(true);
        {
            let mut a = tracer.recorder(1);
            let outer = a.begin("driver", "phase", None);
            a.span("pam", "build", || ());
            a.end(outer);
        }
        {
            let mut b = tracer.recorder(2);
            let outer = b.begin("pam-serve", "request", Some(7));
            b.span("pam-serve", "roundtrip", || ());
            b.end(outer);
        }
        let spans = tracer.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2));
        assert_eq!(spans[2].request, Some(7));
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));

        let json = Json::parse(&chrome_json(&spans)).expect("chrome trace parses");
        assert_eq!(json.get("traceEvents").unwrap().as_arr().unwrap().len(), 4);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        let mut r = tracer.recorder(0);
        assert_eq!(r.span("pam", "build", || 5), 5);
        drop(r);
        assert!(tracer.spans().is_empty());
    }
}
