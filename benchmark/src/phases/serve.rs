//! `serve-read` and `serve-mixed`: the real `pam-serve` binary over
//! loopback, two closed-loop connections. The read mix bypasses the
//! commit pipeline and the WAL (the prediction for any pipeline or WAL
//! change there: no move); the mixed one keeps every layer busy.

use super::store_commit::{base_records, check_read, preload, Model};
use super::{Ctx, Phase};
use crate::env::cpu_seconds;
use crate::gen::{self, key_index, parse_value, record_key, record_value, stream, Op};
use crate::measure::{reps, secs, setups, Samples};
use crate::profile::{CALLERS, RECORDS, SETUP_REPS, SIDE_REPS};
use crate::remote::{Conn, Scrape, Server};
use crate::report::Checks;
use crate::stats::Latency;
use crate::trace::{Recorder, Tracer};
use pam_serve::wire::{decode_message, write_message};
use pam_serve::{Request, Response, WireOp};
use std::path::Path;
use std::time::Instant;

/// Pings per connection behind `pam-serve.ping_p50_us`.
const PINGS: usize = 2_000;
/// Gets per side of the tracing-overhead comparison.
const OVERHEAD_GETS: usize = 4_000;

/// Above every record key (keys are lowercase hex).
fn open_end() -> Vec<u8> {
    vec![0xff]
}

/// What one connection measured.
#[derive(Default)]
struct Tally {
    get_us: Vec<f64>,
    get_many_us: Vec<f64>,
    scan_us: Vec<f64>,
    put_us: Vec<f64>,
    batch_us: Vec<f64>,
    requests: usize,
    scan_reply_bytes: u64,
    scan_entries: u64,
    checks: Checks,
    error: Option<String>,
}

/// Record indices in key order, and each record's position in it: the
/// oracle for scans of the preloaded store.
struct KeyOrder {
    sorted: Vec<u32>,
    position: Vec<u32>,
}

impl KeyOrder {
    fn new() -> KeyOrder {
        let mut keyed: Vec<(Vec<u8>, u32)> =
            (0..RECORDS).map(|i| (record_key(i), i as u32)).collect();
        keyed.sort_unstable();
        let sorted: Vec<u32> = keyed.into_iter().map(|(_, i)| i).collect();
        let mut position = vec![0u32; RECORDS];
        for (pos, &i) in sorted.iter().enumerate() {
            position[i as usize] = pos as u32;
        }
        KeyOrder { sorted, position }
    }

    /// The records a scan from record `from`, at most `limit`, returns
    /// (no phase here inserts or deletes a key, so the key set is fixed).
    fn scan(&self, from: usize, limit: u64) -> &[u32] {
        let start = self.position[from] as usize;
        &self.sorted[start..(start + limit as usize).min(RECORDS)]
    }

    /// The request for that scan. Its upper bound is the last key it
    /// should return: `pam-serve` walks the whole `[lo, hi]` range
    /// whatever the limit (~10 ms for limit 1000 with an open end on
    /// the preloaded store), so an open end would time the walk to
    /// the end of the key space, not a limit-sized scan.
    /// `pam-serve.scan_open_end_ms` keeps that finding measured.
    fn request(&self, from: usize, limit: u64) -> Request {
        let last = *self
            .scan(from, limit)
            .last()
            .expect("a scan starts at a stored key");
        Request::Scan {
            lo: record_key(from),
            hi: record_key(last as usize),
            limit,
        }
    }
}

fn unexpected(op: &Op, resp: &Response) -> String {
    let got = match resp {
        Response::Err(msg) => format!("Err({msg})"),
        other => format!("{other:?}").chars().take(80).collect(),
    };
    format!("{op:?} got the reply {got}")
}

/// The wire request for a generated op; a write takes its record's next
/// version from the caller's model.
fn to_request(op: &Op, order: &KeyOrder, model: &mut Model) -> Request {
    match op {
        Op::Get(i) => Request::Get(record_key(*i)),
        Op::GetMany(keys) => Request::GetMany(keys.iter().map(|&i| record_key(i)).collect()),
        Op::Scan { from, limit } => order.request(*from, *limit),
        Op::Put(i) => Request::Put(record_key(*i), record_value(*i, model.bump(*i))),
        Op::Delete(i) => {
            model.delete(*i);
            Request::Delete(record_key(*i))
        }
        Op::Batch(keys) => Request::Batch(
            keys.iter()
                .map(|&i| WireOp::Put(record_key(i), record_value(i, model.bump(i))))
                .collect(),
        ),
    }
}

/// Issue `ops` on one connection, closed loop, checking every reply.
/// `frozen` says the store still holds exactly the preload, so a scan's
/// values have one right answer too (its keys always do).
fn request_loop(
    conn: &mut Conn,
    ops: &[Op],
    model: &mut Model,
    (order, frozen): (&KeyOrder, bool),
    tally: &mut Tally,
    rec: &mut Recorder<'_>,
    id_base: u64,
) {
    for (n, op) in ops.iter().enumerate() {
        let id = Some(id_base + n as u64);
        let req = to_request(op, order, model);
        let start = Instant::now();
        let reply = conn.call(&req, rec, id);
        let us = start.elapsed().as_secs_f64() * 1e6;
        let (resp, reply_bytes) = match reply {
            Ok(r) => r,
            Err(e) => {
                tally.error = Some(format!("{op:?} failed: {e}"));
                return;
            }
        };
        tally.requests += 1;
        let checks = &mut tally.checks;
        match (op, &resp) {
            (Op::Get(i), Response::Value(v)) => {
                tally.get_us.push(us);
                check_read(model, *i, v.as_deref(), "get", checks);
            }
            (Op::GetMany(keys), Response::Values(vs)) => {
                tally.get_many_us.push(us);
                checks.check(vs.len() == keys.len(), || "get_many reply length".into());
                for (i, v) in keys.iter().zip(vs) {
                    check_read(model, *i, v.as_deref(), "get_many", checks);
                }
            }
            (Op::Scan { from, limit }, Response::Entries(entries)) => {
                tally.scan_us.push(us);
                tally.scan_reply_bytes += reply_bytes as u64;
                tally.scan_entries += entries.len() as u64;
                check_scan(order.scan(*from, *limit), frozen, entries, checks);
            }
            (Op::Put(_), Response::Acked { .. }) => tally.put_us.push(us),
            (Op::Delete(_), Response::Acked { .. }) => {}
            // (a stampless ack is legitimate: 16 keys fall on one of the
            // two shards once in 2^15 batches)
            (Op::Batch(_), Response::Acked { .. }) => tally.batch_us.push(us),
            _ => checks.check(false, || unexpected(op, &resp)),
        }
    }
}

/// A scan reply holds exactly the records the key order names, each
/// value well-formed and of that record — at version 0 while the store
/// is `frozen`.
fn check_scan(want: &[u32], frozen: bool, entries: &[(Vec<u8>, Vec<u8>)], checks: &mut Checks) {
    let exact = entries.len() == want.len()
        && entries.iter().zip(want).all(|((k, v), &i)| {
            key_index(k) == Some(i as usize)
                && parse_value(v)
                    .is_some_and(|(vi, version)| vi == i as usize && (!frozen || version == 0))
        });
    checks.check(exact, || {
        format!(
            "a scan of {} records from record {:?} returned something else",
            want.len(),
            want.first()
        )
    });
}

/// Run one mix on every connection at once; returns the wall seconds.
fn drive(
    conns: &mut [Conn],
    ops: &[&[Op]],
    models: &mut [Model],
    order: (&KeyOrder, bool),
    tallies: &mut [Tally],
    tracer: &Tracer,
    first_id: u64,
) -> f64 {
    let start = Instant::now();
    std::thread::scope(|scope| {
        for (caller, ((conn, model), tally)) in conns
            .iter_mut()
            .zip(models.iter_mut())
            .zip(tallies.iter_mut())
            .enumerate()
        {
            let ops = ops[caller];
            let id_base = (caller as u64) << 32 | first_id;
            scope.spawn(move || {
                let mut rec = tracer.recorder(caller as u32 + 1);
                request_loop(conn, ops, model, order, tally, &mut rec, id_base);
            });
        }
    });
    start.elapsed().as_secs_f64()
}

/// Fold the connections' checks into the report; a transport error ends
/// the run.
fn settle(ctx: &mut Ctx<'_>, tallies: &mut [Tally]) -> Result<(), String> {
    for t in tallies.iter_mut() {
        ctx.report.checks.merge(std::mem::take(&mut t.checks));
        if let Some(e) = t.error.take() {
            return Err(e);
        }
    }
    Ok(())
}

type Ready = (Vec<Conn>, Server, f64);

/// Spawn the server on `dir` and connect every caller (a `Ping` proves
/// the worker behind the connection is up).
fn start(bin: &Path, dir: &Path) -> Result<Ready, String> {
    let server = Server::spawn(bin, dir).map_err(|e| format!("spawn pam-serve: {e}"))?;
    let mut connect_us = 0.0;
    let mut conns = Vec::with_capacity(CALLERS);
    for _ in 0..CALLERS {
        let inert = Tracer::new(false);
        let (conn, t) = secs(|| -> std::io::Result<Conn> {
            let mut c = Conn::connect(&server.addr)?;
            c.call(&Request::Ping, &mut inert.recorder(0), None)?;
            Ok(c)
        });
        conns.push(conn.map_err(|e| format!("connect to pam-serve: {e}"))?);
        connect_us += t * 1e6 / CALLERS as f64;
    }
    Ok((conns, server, connect_us))
}

/// One request mix over the run: every caller's generated requests, the
/// slice each round sends, and what the measured rounds tallied.
struct MixRun {
    ops: Vec<Vec<Op>>,
    slice: usize,
    sent: usize,
    tallies: Vec<Tally>,
    /// Seconds per request of each measured round.
    pace: Samples,
}

impl MixRun {
    fn new(ops: Vec<Vec<Op>>, slice: usize) -> MixRun {
        MixRun {
            ops,
            slice,
            sent: 0,
            tallies: (0..CALLERS).map(|_| Tally::default()).collect(),
            pace: Samples::default(),
        }
    }

    /// Send the next slice of every caller's requests and record the
    /// round's pace; returns the slice's tallies for settling.
    fn send(
        &mut self,
        conns: &mut [Conn],
        models: &mut [Model],
        order: (&KeyOrder, bool),
        tracer: &Tracer,
    ) -> &mut [Tally] {
        let range = self.sent..self.sent + self.slice;
        self.sent += self.slice;
        let slices: Vec<&[Op]> = self.ops.iter().map(|o| &o[range.clone()]).collect();
        let first_id = range.start as u64;
        let wall = drive(
            conns,
            &slices,
            models,
            order,
            &mut self.tallies,
            tracer,
            first_id,
        );
        self.pace.push(wall / (self.slice * slices.len()) as f64);
        &mut self.tallies
    }

    fn reset(&mut self) {
        self.tallies = (0..CALLERS).map(|_| Tally::default()).collect();
        self.pace = Samples::default();
    }

    fn latency(&self, f: fn(&Tally) -> &Vec<f64>) -> Latency {
        let mut all: Vec<f64> = self
            .tallies
            .iter()
            .flat_map(|t| f(t).iter().copied())
            .collect();
        Latency::of(&mut all)
    }

    /// Requests per second at the typical (lower-quartile) round pace.
    fn kops_s(&self) -> f64 {
        1.0 / self.pace.typical() / 1e3
    }
}

/// The prepared serve phases: one server, one connection per caller.
pub struct Serve {
    conns: Vec<Conn>,
    server: Server,
    order: KeyOrder,
    models: Vec<Model>,
    read: Option<MixRun>,
    mixed: Option<MixRun>,
    /// Server scrape before the first measured mixed slice.
    before: Option<Scrape>,
    /// CPU seconds (driver, server) spent inside measured mixed slices.
    cpu: (f64, f64),
    /// Wire bytes moved inside measured mixed slices.
    mixed_bytes: u64,
}

/// Start `pam-serve` on the preloaded directory three times (the
/// set-up), keep the last, and generate both request mixes.
///
/// # Errors
///
/// The server cannot be started or reached.
pub fn prepare(
    ctx: &mut Ctx<'_>,
    rec: &mut Recorder<'_>,
    bin: &Path,
    read: bool,
    mixed: bool,
) -> Result<Box<dyn Phase>, String> {
    let seed = ctx.seed;
    let dir = match &ctx.preloaded {
        Some(dir) => dir.clone(),
        None => {
            // store-commit was not selected: make the directory here
            let dir = ctx.scratch.path("serve-data");
            preload(&dir, base_records())?;
            dir
        }
    };
    let (setup, ready) = setups(rec, "serve.setup", SETUP_REPS, |_| start(bin, &dir));
    let (mut conns, server, connect_us) = ready?;
    ctx.setup_s += setup;

    if ctx.traced() {
        wire_floor(ctx, rec, &mut conns, &server, connect_us)?;
    }
    let picker = ctx.picker;
    let rounds = ctx.counts.rounds + 1; // the warm-up round sends a slice too
    let mix_run = |on: bool, mix, tag, slice: usize| {
        on.then(|| {
            let ops = (0..CALLERS)
                .map(|c| gen::ops(picker, stream(seed, tag), mix, c, slice * rounds, RECORDS))
                .collect();
            MixRun::new(ops, slice)
        })
    };
    Ok(Box::new(Serve {
        conns,
        server,
        order: KeyOrder::new(),
        models: (0..CALLERS).map(|_| Model::new()).collect(),
        read: mix_run(read, gen::READ_MIX, 0x50, ctx.counts.read_slice),
        mixed: mix_run(mixed, gen::MIXED_MIX, 0x51, ctx.counts.mixed_slice),
        before: None,
        cpu: (0.0, 0.0),
        mixed_bytes: 0,
    }))
}

impl Phase for Serve {
    /// One slice of the read mix, then one of the mixed one, on every
    /// connection at once.
    fn round(&mut self, ctx: &mut Ctx<'_>, rec: &mut Recorder<'_>) -> Result<(), String> {
        let Self {
            conns,
            models,
            order,
            ..
        } = self;
        if let Some(run) = &mut self.read {
            // reads never change a value, but from the second round on the
            // mixed slices have: only the key set is still frozen
            let frozen = self.mixed.as_ref().is_none_or(|m| m.sent == 0);
            let span = rec.begin("driver", "serve-read", None);
            let tallies = run.send(conns, models, (order, frozen), ctx.tracer);
            rec.end(span);
            settle(ctx, tallies)?;
        }
        if let Some(run) = &mut self.mixed {
            if self.before.is_none() {
                self.before = Some(Scrape::take(&self.server.obs_addr)?);
            }
            let pids = (std::process::id(), self.server.pid());
            let cpu0 = (cpu_seconds(pids.0), cpu_seconds(pids.1));
            let bytes0: u64 = conns.iter().map(|c| c.bytes_in + c.bytes_out).sum();
            let span = rec.begin("driver", "serve-mixed", None);
            let tallies = run.send(conns, models, (order, false), ctx.tracer);
            rec.end(span);
            settle(ctx, tallies)?;
            if let ((Some(me0), Some(srv0)), Some(me1), Some(srv1)) =
                (cpu0, cpu_seconds(pids.0), cpu_seconds(pids.1))
            {
                self.cpu.0 += me1 - me0;
                self.cpu.1 += srv1 - srv0;
            }
            self.mixed_bytes +=
                conns.iter().map(|c| c.bytes_in + c.bytes_out).sum::<u64>() - bytes0;
        }
        Ok(())
    }

    fn reset(&mut self) {
        for run in self.read.iter_mut().chain(self.mixed.iter_mut()) {
            run.reset();
        }
        self.before = None;
        self.cpu = (0.0, 0.0);
        self.mixed_bytes = 0;
    }

    fn finish(self: Box<Self>, ctx: &mut Ctx<'_>, rec: &mut Recorder<'_>) -> Result<(), String> {
        let Serve {
            mut conns,
            server,
            order,
            models,
            read,
            mixed,
            before,
            cpu,
            mixed_bytes,
        } = *self;
        let traced = ctx.traced();

        if let Some(run) = &read {
            let get = run.latency(|t| &t.get_us);
            let many = run.latency(|t| &t.get_many_us);
            let scan = run.latency(|t| &t.scan_us);
            let r = &mut *ctx.report;
            r.note(format!("# serve-read get us: {get}"));
            r.note(format!("# serve-read get_many-16 us: {many}"));
            r.note(format!("# serve-read scan-1000 us: {scan}"));
            if traced {
                let reply_bytes: u64 = run.tallies.iter().map(|t| t.scan_reply_bytes).sum();
                let entries: u64 = run.tallies.iter().map(|t| t.scan_entries).sum();
                r.set("pam-serve.read_req_kops_s", run.kops_s());
                r.set("pam-serve.get_many_p50_us", many.p50);
                r.set("pam-serve.get_p99_us", get.p99);
                r.set("pam-serve.scan_p99_us", scan.p99);
                r.set(
                    "pam-serve.scan_reply_bytes_per_entry",
                    reply_bytes as f64 / entries.max(1) as f64,
                );
                let ping = r.get("pam-serve.ping_p50_us").unwrap_or(0.0);
                let store_get_us = r.get("pam-store.get_ns").unwrap_or(0.0) / 1e3;
                r.note(format!(
                    "# pam-serve.get_unattributed_us terms: get p50 {:.1} us - (ping p50 {ping:.1} us + pam-store.get {store_get_us:.2} us)",
                    get.p50
                ));
                r.set(
                    "pam-serve.get_unattributed_us",
                    get.p50 - (ping + store_get_us),
                );
            } else {
                r.set("get_p50_us", get.p50);
                r.set("scan_p50_us", scan.p50);
            }
        }

        if let Some(run) = &mixed {
            let after = Scrape::take(&server.obs_addr)?;
            let before = before.unwrap_or_default();

            // read back every acked write through the wire, from the model
            let inert = Tracer::new(false);
            for (conn, model) in conns.iter_mut().zip(&models) {
                for chunk in model.touched().chunks(64) {
                    let keys = chunk.iter().map(|&i| record_key(i)).collect();
                    match conn.call(&Request::GetMany(keys), &mut inert.recorder(0), None) {
                        Ok((Response::Values(vs), _)) if vs.len() == chunk.len() => {
                            for (&i, v) in chunk.iter().zip(&vs) {
                                check_read(
                                    model,
                                    i,
                                    v.as_deref(),
                                    "wire read-back",
                                    &mut ctx.report.checks,
                                );
                            }
                        }
                        Ok((other, _)) => return Err(format!("read-back got {other:?}")),
                        Err(e) => return Err(format!("read-back failed: {e}")),
                    }
                }
            }

            let get = run.latency(|t| &t.get_us);
            let scan = run.latency(|t| &t.scan_us);
            let put = run.latency(|t| &t.put_us);
            let batch = run.latency(|t| &t.batch_us);
            let requests: usize = run.tallies.iter().map(|t| t.requests).sum();
            let r = &mut *ctx.report;
            r.note(format!("# serve-mixed get us: {get}"));
            r.note(format!("# serve-mixed put ack us: {put}"));
            r.note(format!("# serve-mixed batch-16 ack us: {batch}"));
            r.note(format!("# serve-mixed scan-100 us: {scan}"));
            if traced {
                r.set(
                    "pam-serve.wire_bytes_per_req",
                    mixed_bytes as f64 / requests as f64,
                );
                r.set("pam-serve.mixed_get_p50_us", get.p50);
                r.set("pam-serve.mixed_scan_p50_us", scan.p50);
                r.set("pam-serve.put_ack_p99_us", put.p99);
                r.set("pam-serve.batch_ack_p99_us", batch.p99);
                r.set("pam-serve.cpu_us_per_req", cpu.1 * 1e6 / requests as f64);
                r.set("driver.client_cpu_share", cpu.0 / (cpu.0 + cpu.1).max(1e-9));
                let window = after
                    .hists
                    .get("pam_commit_window_nanos")
                    .map_or(0.0, |h| h.p50 / 1e3);
                let commit = after
                    .hists
                    .get("pam_commit_nanos")
                    .map_or(0.0, |h| h.p50 / 1e3);
                r.set("pam-serve.srv_window_p50_us", window);
                r.set("pam-serve.srv_commit_p50_us", commit);
                r.set(
                    "pam-serve.srv_commit_us_per_commit",
                    after.hist_delta_mean(&before, "pam_commit_nanos") / 1e3,
                );
                r.set(
                    "pam-serve.srv_commits_per_kop",
                    after.counter_delta(&before, "pam_commits_total")
                        / after.counter_delta(&before, "pam_raw_ops_total").max(1.0)
                        * 1e3,
                );
                let ping = r.get("pam-serve.ping_p50_us").unwrap_or(0.0);
                r.note(format!(
                    "# pam-serve.put_unattributed_us terms: put ack p50 {:.1} us - (ping p50 {ping:.1} us + server window p50 {window:.1} us + server commit p50 {commit:.1} us)",
                    put.p50
                ));
                r.set(
                    "pam-serve.put_unattributed_us",
                    put.p50 - (ping + window + commit),
                );
                for stage in ["normalize", "wal_log", "apply", "publish"] {
                    let name = format!("pam_commit_{stage}_nanos");
                    let (count, sum) = after.hist_delta(&before, &name);
                    r.note(format!(
                        "# server {name}: +{count} commits, +{:.1} ms",
                        sum / 1e6
                    ));
                }
                r.set(
                    "pam-serve.rss_mb",
                    crate::env::rss_mb(server.pid()).unwrap_or(0.0),
                );
                wire_codec(ctx, rec, &run.ops[0], &order);
            } else {
                r.set("req_kops_s", run.kops_s());
                r.set("put_ack_p50_us", put.p50);
                r.set("batch_ack_p50_us", batch.p50);
            }
        }

        drop(conns);
        let drain_s = server
            .drain()
            .map_err(|e| format!("drain pam-serve: {e}"))?;
        if traced && mixed.is_some() {
            ctx.report.set("pam-serve.drain_s", drain_s);
        }
        Ok(())
    }
}

/// The wire floor and the telemetry overheads, measured before any
/// workload traffic: pings, a scrape, the histogram recorder, and the
/// same `Get` loop with spans on and off.
fn wire_floor(
    ctx: &mut Ctx<'_>,
    rec: &mut Recorder<'_>,
    conns: &mut [Conn],
    server: &Server,
    connect_us: f64,
) -> Result<(), String> {
    let seed = ctx.seed;
    // every connection pings at once, as they will carry load at once:
    // a lone caller on an otherwise idle box pays a cross-core wake-up
    // per hop that a busy pair does not
    let tracer = ctx.tracer;
    let mut pings: Vec<f64> = std::thread::scope(|scope| {
        let callers: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(caller, conn)| {
                scope.spawn(move || -> Result<Vec<f64>, String> {
                    let mut rec = tracer.recorder(caller as u32 + 1);
                    let mut us = Vec::with_capacity(PINGS);
                    for n in 0..PINGS {
                        let start = Instant::now();
                        conn.call(&Request::Ping, &mut rec, Some(n as u64))
                            .map_err(|e| format!("ping: {e}"))?;
                        us.push(start.elapsed().as_secs_f64() * 1e6);
                    }
                    Ok(us)
                })
            })
            .collect();
        callers
            .into_iter()
            .map(|c| c.join().expect("a ping thread panicked"))
            .collect::<Result<Vec<_>, _>>()
    })?
    .concat();
    let ping = Latency::of(&mut pings);
    let (scrape_s, scraped) = reps(
        rec,
        "pam-obs",
        "scrape",
        15,
        || (),
        |()| Scrape::take(&server.obs_addr),
    );
    scraped?;
    let hist = pam_obs::Histogram::new();
    let (hist_s, _) = reps(
        rec,
        "pam-obs",
        "hist.record",
        15,
        || (),
        |()| {
            for v in 0..100_000u64 {
                hist.record(v.wrapping_mul(2_654_435_761) & 0xf_ffff);
            }
            hist.count()
        },
    );

    // spans are densest around requests: the same gets, traced and not
    let keys: Vec<Vec<u8>> = (0..OVERHEAD_GETS as u64)
        .map(|i| record_key(ctx.picker.pick(stream(seed, 0x52), i, RECORDS)))
        .collect();
    let inert = Tracer::new(false);
    let mut off = inert.recorder(0);
    let mut gets = |chunk: &[Vec<u8>], side: &mut Recorder<'_>| -> Result<f64, String> {
        let start = Instant::now();
        for key in chunk {
            conns[0]
                .call(&Request::Get(key.clone()), side, None)
                .map_err(|e| format!("overhead get: {e}"))?;
        }
        Ok(start.elapsed().as_secs_f64())
    };
    let (mut traced_s, mut plain_s) = (0.0, 0.0);
    for chunk in keys.chunks(500) {
        traced_s += gets(chunk, rec)?;
        plain_s += gets(chunk, &mut off)?;
    }

    // the finding behind KeyOrder::request: limit 1000, open upper bound
    let mut open_ms = Vec::new();
    for n in 0..20u64 {
        let from = ctx.picker.pick(stream(seed, 0x53), n, RECORDS);
        let req = Request::Scan {
            lo: record_key(from),
            hi: open_end(),
            limit: 1000,
        };
        let start = Instant::now();
        conns[0]
            .call(&req, rec, None)
            .map_err(|e| format!("open-end scan: {e}"))?;
        open_ms.push(start.elapsed().as_secs_f64() * 1e3);
    }

    let r = &mut *ctx.report;
    r.set("pam-serve.scan_open_end_ms", crate::stats::median(&open_ms));
    r.note(format!("# pam-serve ping us: {ping}"));
    r.set("pam-serve.ping_p50_us", ping.p50);
    r.set("pam-serve.connect_us", connect_us);
    r.set("pam-obs.scrape_ms", scrape_s * 1e3);
    r.set("pam-obs.hist_record_ns", hist_s * 1e9 / 100_000.0);
    r.set("driver.trace_overhead_share", 1.0 - plain_s / traced_s);
    Ok(())
}

/// Direct `write_message` / `decode_message` over the mixed request mix.
fn wire_codec(ctx: &mut Ctx<'_>, rec: &mut Recorder<'_>, ops: &[Op], order: &KeyOrder) {
    let n = SIDE_REPS;
    let mut scratch_model = Model::new();
    let requests: Vec<Request> = ops
        .iter()
        .take(2_000)
        .map(|op| to_request(op, order, &mut scratch_model))
        .collect();
    let (enc_s, frames) = reps(
        rec,
        "pam-serve",
        "write_message",
        n,
        || (),
        |()| {
            let mut frames = Vec::with_capacity(requests.len());
            for req in &requests {
                let mut frame = Vec::new();
                write_message(&mut frame, req).expect("writing to a Vec cannot fail");
                frames.push(frame);
            }
            frames
        },
    );
    let (dec_s, decoded) = reps(
        rec,
        "pam-serve",
        "decode_message",
        n,
        || (),
        |()| {
            frames
                .iter()
                .map(|f| decode_message::<Request>(&f[8..]))
                .collect::<Result<Vec<_>, _>>()
        },
    );
    let r = &mut *ctx.report;
    r.checks.check(decoded.is_ok_and(|d| d == requests), || {
        "a framed request did not decode to itself".into()
    });
    r.set(
        "pam-serve.wire_encode_ns_per_req",
        enc_s * 1e9 / requests.len() as f64,
    );
    r.set(
        "pam-serve.wire_decode_ns_per_req",
        dec_s * 1e9 / requests.len() as f64,
    );
}
