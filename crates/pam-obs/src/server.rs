//! The live telemetry server: a hand-rolled, zero-dependency HTTP/1.0
//! endpoint over [`std::net::TcpListener`].
//!
//! A store is only observable in production if it can be scraped *while
//! it runs*; this module turns the pull-at-exit surfaces (metrics
//! registry, event ring, flight recorder) into live endpoints:
//!
//! | Endpoint        | Body                                              |
//! |-----------------|---------------------------------------------------|
//! | `/metrics`      | Prometheus text exposition of the global registry |
//! | `/metrics.json` | The same registry as JSON                         |
//! | `/events`       | The recent-event ring as JSON                     |
//! | `/health`       | `healthy` / `degraded` / `poisoned` (+ reason); HTTP 503 when poisoned |
//! | `/trace`        | The epoch flight ring as Chrome trace-event JSON  |
//!
//! The shape is deliberate: a **threaded accept loop** (one acceptor
//! thread, one short-lived thread per connection) — the same pattern the
//! future `pam-serve` front end will use, built only on `std::net`
//! because the workspace has no registry access. Telemetry traffic is a
//! handful of scrapes per second, so thread-per-connection is the right
//! amount of machinery.
//!
//! The server pulls store state through a [`TelemetrySource`]: an
//! `export` closure that refreshes the global [`MetricsRegistry`] on
//! each scrape (the store stack keeps hot-path recorders in its own
//! structs and exports on demand — see `StoreStats::export_into`) and a
//! `health` closure threaded out of the pipeline's fail-stop path.

use crate::chrome::chrome_trace;
use crate::flight::{anchor, FlightRecorder};
use crate::json::escape;
use crate::metrics::MetricsRegistry;
use crate::trace::recent_events;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A store's liveness verdict, served at `/health`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Health {
    /// Serving normally.
    Healthy,
    /// Serving, but something non-fatal is wrong (e.g. the background
    /// checkpointer keeps failing): scrape-visible before it escalates.
    Degraded(String),
    /// The store fail-stopped: a failed WAL append poisoned the
    /// pipeline. The string is the original error, preserved verbatim.
    Poisoned(String),
}

impl Health {
    /// The status word (`healthy` / `degraded` / `poisoned`).
    pub fn status(&self) -> &'static str {
        match self {
            Health::Healthy => "healthy",
            Health::Degraded(_) => "degraded",
            Health::Poisoned(_) => "poisoned",
        }
    }

    /// The reason, when not healthy.
    pub fn reason(&self) -> Option<&str> {
        match self {
            Health::Healthy => None,
            Health::Degraded(r) | Health::Poisoned(r) => Some(r),
        }
    }

    /// `{"status": "...", "reason": ...}` — the `/health` body.
    pub fn to_json(&self) -> String {
        match self.reason() {
            Some(r) => format!(
                "{{\"status\": \"{}\", \"reason\": \"{}\"}}",
                self.status(),
                escape(r)
            ),
            None => format!("{{\"status\": \"{}\", \"reason\": null}}", self.status()),
        }
    }

    /// The worse of two verdicts (poisoned > degraded > healthy); the
    /// sharded layer folds per-shard health with this.
    pub fn worse(self, other: Health) -> Health {
        fn rank(h: &Health) -> u8 {
            match h {
                Health::Healthy => 0,
                Health::Degraded(_) => 1,
                Health::Poisoned(_) => 2,
            }
        }
        if rank(&other) > rank(&self) {
            other
        } else {
            self
        }
    }
}

/// What the server scrapes: both closures are called per request, on the
/// connection's thread.
pub struct TelemetrySource {
    /// Refresh the registry with current store state (called with
    /// [`MetricsRegistry::global`] before `/metrics` renders).
    pub export: Box<dyn Fn(&MetricsRegistry) + Send + Sync>,
    /// Current liveness verdict (called by `/health`).
    pub health: Box<dyn Fn() -> Health + Send + Sync>,
}

impl TelemetrySource {
    /// A source that exports nothing and always reports healthy — for
    /// processes that only populate the global registry directly.
    pub fn empty() -> Self {
        TelemetrySource {
            export: Box::new(|_| {}),
            health: Box::new(|| Health::Healthy),
        }
    }
}

/// The live telemetry endpoint. Binding spawns the acceptor thread;
/// dropping shuts it down and waits (bounded) for in-flight responses.
pub struct ObsServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    requests: Arc<AtomicU64>,
    active: Arc<AtomicUsize>,
    acceptor: Option<std::thread::JoinHandle<()>>,
}

impl ObsServer {
    /// Bind `addr` (e.g. `"127.0.0.1:9184"`; port 0 picks a free port —
    /// read it back with [`Self::local_addr`]) and start serving.
    ///
    /// # Errors
    ///
    /// Address resolution / bind errors pass through.
    pub fn bind(addr: impl ToSocketAddrs, source: TelemetrySource) -> io::Result<ObsServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        // Settle the flight anchor before any trace timestamps are taken
        // relative to it (see `flight::anchor`).
        let _ = anchor();
        let shutdown = Arc::new(AtomicBool::new(false));
        let requests = Arc::new(AtomicU64::new(0));
        let active = Arc::new(AtomicUsize::new(0));
        let source = Arc::new(source);
        let (sd, rq, ac) = (shutdown.clone(), requests.clone(), active.clone());
        let acceptor = std::thread::Builder::new()
            .name("pam-obs-server".into())
            .spawn(move || loop {
                let (stream, _) = match listener.accept() {
                    Ok(conn) => conn,
                    Err(_) if sd.load(Ordering::Acquire) => return,
                    Err(_) => continue,
                };
                if sd.load(Ordering::Acquire) {
                    return; // the Drop wake-up connection
                }
                let (source, rq) = (source.clone(), rq.clone());
                let conn_ac = ac.clone();
                ac.fetch_add(1, Ordering::AcqRel);
                let spawned = std::thread::Builder::new()
                    .name("pam-obs-conn".into())
                    .spawn(move || {
                        handle_connection(stream, &source, &rq);
                        conn_ac.fetch_sub(1, Ordering::AcqRel);
                    });
                if let Err(e) = spawned {
                    ac.fetch_sub(1, Ordering::AcqRel);
                    eprintln!("pam-obs: failed to spawn connection thread: {e}");
                }
            })
            .expect("spawn pam-obs-server thread");
        Ok(ObsServer {
            addr,
            shutdown,
            requests,
            active,
            acceptor: Some(acceptor),
        })
    }

    /// The address actually bound (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests served so far (any endpoint, including 404s). Lets a
    /// benchmark linger until its metrics have been scraped at least
    /// once.
    pub fn request_count(&self) -> u64 {
        self.requests.load(Ordering::Acquire)
    }
}

impl Drop for ObsServer {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        // Unblock the acceptor with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        // Connection threads hold clones of the telemetry source (which
        // may capture store handles): give in-flight responses a bounded
        // window to finish so the source drops before the caller's store
        // teardown proceeds.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while self.active.load(Ordering::Acquire) > 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

impl std::fmt::Debug for ObsServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ObsServer({})", self.addr)
    }
}

fn handle_connection(mut stream: TcpStream, source: &TelemetrySource, requests: &AtomicU64) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(5)));
    // Read until the end of the request head (we ignore bodies: every
    // endpoint is a GET), capped so a misbehaving client cannot balloon
    // memory.
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 1024];
    while !buf.windows(4).any(|w| w == b"\r\n\r\n") {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(_) => return,
        }
        if buf.len() > 16 * 1024 {
            respond(
                &mut stream,
                431,
                "Request Header Fields Too Large",
                "text/plain",
                "",
            );
            return;
        }
    }
    let head = String::from_utf8_lossy(&buf);
    let mut parts = head.lines().next().unwrap_or_default().split_whitespace();
    let (method, target) = match (parts.next(), parts.next()) {
        (Some(m), Some(t)) => (m, t),
        _ => return, // not even a request line; drop silently
    };
    requests.fetch_add(1, Ordering::AcqRel);
    if method != "GET" {
        respond(
            &mut stream,
            405,
            "Method Not Allowed",
            "text/plain",
            "GET only\n",
        );
        return;
    }
    let path = target.split('?').next().unwrap_or(target);
    match path {
        "/metrics" => {
            let registry = MetricsRegistry::global();
            (source.export)(registry);
            respond(
                &mut stream,
                200,
                "OK",
                "text/plain; version=0.0.4",
                &registry.render_prometheus(),
            );
        }
        "/metrics.json" => {
            let registry = MetricsRegistry::global();
            (source.export)(registry);
            respond(
                &mut stream,
                200,
                "OK",
                "application/json",
                &registry.render_json(),
            );
        }
        "/events" => {
            let events: Vec<String> = recent_events().iter().map(|e| e.to_json()).collect();
            let body = format!("[{}]", events.join(", "));
            respond(&mut stream, 200, "OK", "application/json", &body);
        }
        "/health" => {
            let health = (source.health)();
            let (code, text) = match health {
                Health::Poisoned(_) => (503, "Service Unavailable"),
                _ => (200, "OK"),
            };
            respond(
                &mut stream,
                code,
                text,
                "application/json",
                &health.to_json(),
            );
        }
        "/trace" => {
            let body = chrome_trace(&FlightRecorder::global().snapshot());
            respond(&mut stream, 200, "OK", "application/json", &body);
        }
        "/" => respond(
            &mut stream,
            200,
            "OK",
            "text/plain",
            "pam-obs live telemetry\n\n/metrics\n/metrics.json\n/events\n/health\n/trace\n",
        ),
        _ => respond(
            &mut stream,
            404,
            "Not Found",
            "text/plain",
            "unknown endpoint\n",
        ),
    }
}

fn respond(stream: &mut TcpStream, code: u16, text: &str, content_type: &str, body: &str) {
    let head = format!(
        "HTTP/1.0 {code} {text}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let _ = stream.write_all(head.as_bytes());
    let _ = stream.write_all(body.as_bytes());
    let _ = stream.flush();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn http_get(addr: SocketAddr, path: &str) -> (u16, String) {
        let mut s = TcpStream::connect(addr).unwrap();
        write!(s, "GET {path} HTTP/1.0\r\nHost: test\r\n\r\n").unwrap();
        let mut raw = String::new();
        s.read_to_string(&mut raw).unwrap();
        let status: u16 = raw
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .expect("status code");
        let body = raw
            .split_once("\r\n\r\n")
            .map(|(_, b)| b)
            .unwrap_or("")
            .to_string();
        (status, body)
    }

    #[test]
    fn endpoints_serve_and_count_requests() {
        let source = TelemetrySource {
            export: Box::new(|reg| reg.export_counter("pam_server_test_total", 42)),
            health: Box::new(|| Health::Degraded("ckpt lagging".into())),
        };
        let server = ObsServer::bind("127.0.0.1:0", source).unwrap();
        let addr = server.local_addr();

        let (code, prom) = http_get(addr, "/metrics");
        assert_eq!(code, 200);
        assert!(prom.contains("pam_server_test_total 42"));

        let (code, mj) = http_get(addr, "/metrics.json");
        assert_eq!(code, 200);
        let v = Json::parse(&mj).unwrap();
        assert_eq!(
            v.get("counters")
                .unwrap()
                .get("pam_server_test_total")
                .unwrap()
                .as_f64(),
            Some(42.0)
        );

        let (code, hj) = http_get(addr, "/health");
        assert_eq!(code, 200, "degraded still serves 200");
        let v = Json::parse(&hj).unwrap();
        assert_eq!(v.get("status").unwrap().as_str(), Some("degraded"));
        assert_eq!(v.get("reason").unwrap().as_str(), Some("ckpt lagging"));

        let (code, tj) = http_get(addr, "/trace");
        assert_eq!(code, 200);
        assert!(Json::parse(&tj).unwrap().get("traceEvents").is_some());

        crate::event!(
            crate::Level::Warn,
            "pam_server_test",
            "served at {}",
            "/events"
        );
        let (code, ev) = http_get(addr, "/events");
        assert_eq!(code, 200);
        let events = Json::parse(&ev).unwrap();
        assert!(
            events.as_arr().unwrap().iter().any(|e| {
                e.get("level").and_then(Json::as_str) == Some("WARN")
                    && e.get("target").and_then(Json::as_str) == Some("pam_server_test")
                    && e.get("message").and_then(Json::as_str) == Some("served at /events")
            }),
            "the event must be served: {ev}"
        );

        let (code, _) = http_get(addr, "/nope");
        assert_eq!(code, 404);

        assert_eq!(server.request_count(), 6);
    }

    #[test]
    fn poisoned_health_is_503_with_the_reason() {
        let source = TelemetrySource {
            export: Box::new(|_| {}),
            health: Box::new(|| Health::Poisoned("disk gone: No space left".into())),
        };
        let server = ObsServer::bind("127.0.0.1:0", source).unwrap();
        let (code, body) = http_get(server.local_addr(), "/health");
        assert_eq!(code, 503);
        let v = Json::parse(&body).unwrap();
        assert_eq!(v.get("status").unwrap().as_str(), Some("poisoned"));
        assert!(v
            .get("reason")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("No space left"));
    }

    #[test]
    fn non_get_methods_are_rejected() {
        let server = ObsServer::bind("127.0.0.1:0", TelemetrySource::empty()).unwrap();
        let mut s = TcpStream::connect(server.local_addr()).unwrap();
        write!(s, "POST /metrics HTTP/1.0\r\n\r\n").unwrap();
        let mut raw = String::new();
        s.read_to_string(&mut raw).unwrap();
        assert!(raw.starts_with("HTTP/1.0 405"));
    }

    #[test]
    fn health_worse_ranks_poisoned_over_degraded_over_healthy() {
        let p = Health::Poisoned("p".into());
        let d = Health::Degraded("d".into());
        assert_eq!(Health::Healthy.worse(d.clone()), d);
        assert_eq!(d.clone().worse(p.clone()), p);
        assert_eq!(p.clone().worse(d.clone()), p);
        assert_eq!(Health::Healthy.worse(Health::Healthy), Health::Healthy);
    }

    #[test]
    fn drop_shuts_the_listener_down() {
        let server = ObsServer::bind("127.0.0.1:0", TelemetrySource::empty()).unwrap();
        let addr = server.local_addr();
        drop(server);
        // The port is closed (or at least no longer serving): a fresh
        // bind to the same port must succeed.
        let rebind = TcpListener::bind(addr);
        assert!(rebind.is_ok(), "port still held after drop: {rebind:?}");
    }
}
