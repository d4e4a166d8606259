//! The real `pam-serve` binary, driven from outside: build it, spawn
//! it, talk to it over loopback with a span around every step of a
//! request, scrape its `--obs-addr`, and drain it.

use crate::env::repo_root;
use crate::profile::{SHARDS, WINDOW_US};
use crate::trace::Recorder;
use pam_obs::json::Json;
use pam_serve::wire::{decode_message, read_frame_capped, write_message, MAX_FRAME};
use pam_serve::{Request, Response};
use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::Instant;

/// Build `pam-serve` from the root workspace (a no-op when fresh) and
/// return the binary's path. Honours `CARGO_TARGET_DIR`.
///
/// # Errors
///
/// A message naming what failed: cargo could not be run, the build
/// failed, or the binary is not where the build should have put it.
pub fn build_pam_serve() -> Result<PathBuf, String> {
    let root = repo_root();
    let target = match std::env::var_os("CARGO_TARGET_DIR") {
        // a relative target dir is relative to where the driver ran us
        Some(dir) => std::path::absolute(PathBuf::from(dir))
            .map_err(|e| format!("resolve CARGO_TARGET_DIR: {e}"))?,
        None => root.join("target"),
    };
    let status = Command::new("cargo")
        .args(["build", "--release", "--offline", "--quiet"])
        .args(["-p", "pam-serve", "--bin", "pam-serve"])
        .current_dir(root)
        .env("CARGO_TARGET_DIR", &target)
        .status()
        .map_err(|e| format!("cannot run cargo to build pam-serve: {e}"))?;
    if !status.success() {
        return Err(format!(
            "`cargo build --release -p pam-serve` failed in {} ({status})",
            root.display()
        ));
    }
    let bin = target.join("release").join("pam-serve");
    if !bin.is_file() {
        return Err(format!(
            "pam-serve was built but {} is missing",
            bin.display()
        ));
    }
    Ok(bin)
}

/// A running `pam-serve` child. Dropping it without [`Server::drain`]
/// still asks it to drain (stdin EOF) and kills it only if it lingers,
/// so no server outlives its run.
pub struct Server {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
    /// The wire address it announced.
    pub addr: String,
    /// The telemetry address it announced.
    pub obs_addr: String,
}

impl Server {
    /// Spawn the binary on `dir` with the benchmark's fixed flags
    /// (2 shards, 2 workers, `--sync none`, 200 us window, ephemeral
    /// ports) and wait until it announces both addresses.
    ///
    /// # Errors
    ///
    /// Spawn failure, or the server exiting before it is ready.
    pub fn spawn(bin: &Path, dir: &Path) -> io::Result<Server> {
        let mut child = Command::new(bin)
            .arg("--dir")
            .arg(dir)
            .args(["--addr", "127.0.0.1:0", "--obs-addr", "127.0.0.1:0"])
            .args(["--shards", &SHARDS.to_string()])
            .args(["--workers", &SHARDS.to_string()])
            .args(["--sync", "none"])
            .args(["--batch-window-us", &WINDOW_US.to_string()])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()?;
        let stdin = child.stdin.take();
        let stdout = BufReader::new(child.stdout.take().expect("stdout was piped"));
        let mut server = Server {
            child,
            stdin,
            stdout,
            addr: String::new(),
            obs_addr: String::new(),
        };
        server.addr = server.wait_for("pam-serve listening on ")?;
        server.obs_addr = server.wait_for("obs listening on ")?;
        Ok(server)
    }

    /// Read stdout until a line starts with `prefix`; return the rest.
    fn wait_for(&mut self, prefix: &str) -> io::Result<String> {
        let mut line = String::new();
        loop {
            line.clear();
            if self.stdout.read_line(&mut line)? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    format!("pam-serve exited before printing `{prefix}`"),
                ));
            }
            if let Some(rest) = line.trim_end().strip_prefix(prefix) {
                return Ok(rest.to_string());
            }
        }
    }

    /// The server's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Close its stdin (the shutdown signal), wait for `pam-serve
    /// drained` and for the process to end; returns the seconds taken.
    ///
    /// # Errors
    ///
    /// The server died without draining, or exited with a failure.
    pub fn drain(mut self) -> io::Result<f64> {
        let start = Instant::now();
        drop(self.stdin.take());
        self.wait_for("pam-serve drained")?;
        let status = self.child.wait()?;
        if !status.success() {
            return Err(io::Error::other(format!("pam-serve exited with {status}")));
        }
        Ok(start.elapsed().as_secs_f64())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        drop(self.stdin.take());
        let deadline = Instant::now() + std::time::Duration::from_secs(10);
        while Instant::now() < deadline {
            // Ok(Some): exited (or already reaped by drain); Err: gone
            if !matches!(self.child.try_wait(), Ok(None)) {
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One blocking connection, instrumented: every request is a `request`
/// span with `wire.encode`, `roundtrip` and `wire.decode` children.
pub struct Conn {
    stream: TcpStream,
    frame: Vec<u8>,
    /// Request frame bytes written so far.
    pub bytes_out: u64,
    /// Reply frame bytes read so far (payload + 8-byte header).
    pub bytes_in: u64,
}

impl Conn {
    /// Connect with `TCP_NODELAY`, as `pam_serve::Client` does.
    ///
    /// # Errors
    ///
    /// Propagates the connect failure.
    pub fn connect(addr: &str) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            stream,
            frame: Vec::with_capacity(4096),
            bytes_out: 0,
            bytes_in: 0,
        })
    }

    /// One closed-loop request; returns the reply and its payload size.
    ///
    /// # Errors
    ///
    /// I/O failure, a closed connection, or an undecodable reply.
    pub fn call(
        &mut self,
        req: &Request,
        rec: &mut Recorder<'_>,
        id: Option<u64>,
    ) -> io::Result<(Response, usize)> {
        let whole = rec.begin("pam-serve", "request", id);

        let enc = rec.begin("pam-serve", "wire.encode", id);
        self.frame.clear();
        write_message(&mut self.frame, req)?;
        rec.end(enc);

        let rt = rec.begin("pam-serve", "roundtrip", id);
        self.stream.write_all(&self.frame)?;
        let payload = read_frame_capped(&mut self.stream, MAX_FRAME)?;
        rec.end(rt);
        let payload = payload.ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::ConnectionAborted,
                "server closed the connection",
            )
        })?;

        let dec = rec.begin("pam-serve", "wire.decode", id);
        let resp = decode_message::<Response>(&payload)?;
        rec.end(dec);

        rec.end(whole);
        self.bytes_out += self.frame.len() as u64;
        self.bytes_in += payload.len() as u64 + 8;
        Ok((resp, payload.len()))
    }
}

/// `GET path` from a `pam_obs::ObsServer`; returns the body.
///
/// # Errors
///
/// I/O failure or a non-200 status.
pub fn http_get(addr: &str, path: &str) -> io::Result<String> {
    let mut s = TcpStream::connect(addr)?;
    write!(s, "GET {path} HTTP/1.0\r\nHost: benchmark\r\n\r\n")?;
    let mut raw = String::new();
    s.read_to_string(&mut raw)?;
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no header/body split"))?;
    if !head.starts_with("HTTP/1.0 200") {
        let status = head.lines().next().unwrap_or("");
        return Err(io::Error::other(format!("GET {path}: {status}")));
    }
    Ok(body.to_string())
}

/// One histogram of a `/metrics.json` scrape. `count` and `sum` are
/// cumulative since the server started; the percentiles cover the same
/// span and cannot be differenced.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct HistReading {
    /// Values recorded.
    pub count: f64,
    /// Sum of recorded values (ns for every `*_nanos` histogram).
    pub sum: f64,
    /// Median since start.
    pub p50: f64,
}

/// A parsed `/metrics.json` snapshot.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Scrape {
    /// Counters by name.
    pub counters: BTreeMap<String, f64>,
    /// Histograms by name.
    pub hists: BTreeMap<String, HistReading>,
}

impl Scrape {
    /// Parse the body `pam_obs::MetricsRegistry::render_json` produces.
    ///
    /// # Errors
    ///
    /// A message naming the JSON error or the missing section.
    pub fn parse(body: &str) -> Result<Scrape, String> {
        let doc = Json::parse(body).map_err(|e| format!("/metrics.json: {e}"))?;
        let section = |name: &str| {
            doc.get(name)
                .and_then(Json::as_obj)
                .ok_or_else(|| format!("/metrics.json has no `{name}` object"))
        };
        let counters = section("counters")?
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
            .collect();
        let field = |h: &Json, f: &str| h.get(f).and_then(Json::as_f64).unwrap_or(0.0);
        let hists = section("histograms")?
            .iter()
            .map(|(k, h)| {
                let r = HistReading {
                    count: field(h, "count"),
                    sum: field(h, "sum"),
                    p50: field(h, "p50"),
                };
                (k.clone(), r)
            })
            .collect();
        Ok(Scrape { counters, hists })
    }

    /// Scrape a live endpoint.
    ///
    /// # Errors
    ///
    /// The scrape or the parse failed.
    pub fn take(obs_addr: &str) -> Result<Scrape, String> {
        let body = http_get(obs_addr, "/metrics.json").map_err(|e| format!("scrape: {e}"))?;
        Scrape::parse(&body)
    }

    /// How much counter `name` grew from `before` to `self`.
    pub fn counter_delta(&self, before: &Scrape, name: &str) -> f64 {
        let at = |s: &Scrape| s.counters.get(name).copied().unwrap_or(0.0);
        at(self) - at(before)
    }

    /// `(count, sum)` histogram `name` gained from `before` to `self`.
    pub fn hist_delta(&self, before: &Scrape, name: &str) -> (f64, f64) {
        let at = |s: &Scrape| s.hists.get(name).copied().unwrap_or_default();
        let (a, b) = (at(self), at(before));
        (a.count - b.count, a.sum - b.sum)
    }

    /// Mean of the values histogram `name` gained, 0 if it gained none.
    pub fn hist_delta_mean(&self, before: &Scrape, name: &str) -> f64 {
        let (count, sum) = self.hist_delta(before, name);
        if count > 0.0 {
            sum / count
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BEFORE: &str = r#"{"counters": {"pam_commits_total": 10, "pam_raw_ops_total": 40},
        "gauges": {"pam_live_versions": 3},
        "histograms": {"pam_commit_nanos": {"count": 10, "sum": 5000, "max": 900,
            "mean": 500, "p50": 480, "p90": 700, "p99": 880, "p999": 900}}}"#;
    const AFTER: &str = r#"{"counters": {"pam_commits_total": 110, "pam_raw_ops_total": 440},
        "gauges": {"pam_live_versions": 4},
        "histograms": {"pam_commit_nanos": {"count": 110, "sum": 35000, "max": 1200,
            "mean": 318, "p50": 300, "p90": 420, "p99": 1000, "p999": 1200},
          "pam_wal_append_nanos": {"count": 7, "sum": 700, "max": 100,
            "mean": 100, "p50": 100, "p90": 100, "p99": 100, "p999": 100}}}"#;

    #[test]
    fn deltas_subtract_counts_and_sums() {
        let (b, a) = (
            Scrape::parse(BEFORE).unwrap(),
            Scrape::parse(AFTER).unwrap(),
        );
        assert_eq!(a.counter_delta(&b, "pam_commits_total"), 100.0);
        assert_eq!(a.counter_delta(&b, "pam_raw_ops_total"), 400.0);
        assert_eq!(a.hist_delta(&b, "pam_commit_nanos"), (100.0, 30_000.0));
        assert_eq!(a.hist_delta_mean(&b, "pam_commit_nanos"), 300.0);
        // a histogram absent from the earlier scrape counts from zero
        assert_eq!(a.hist_delta(&b, "pam_wal_append_nanos"), (7.0, 700.0));
        // nothing gained, or never seen: a zero mean, not a division by zero
        assert_eq!(a.hist_delta_mean(&a, "pam_commit_nanos"), 0.0);
        assert_eq!(a.hist_delta_mean(&b, "pam_no_such_nanos"), 0.0);
        assert_eq!(a.hists["pam_commit_nanos"].p50, 300.0);
    }

    #[test]
    fn a_scrape_without_its_sections_is_an_error() {
        assert!(Scrape::parse("{\"counters\": {}}").is_err());
        assert!(Scrape::parse("not json").is_err());
    }
}
