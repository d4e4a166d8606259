//! The threaded accept loop and request dispatcher.
//!
//! Same shape as `pam_obs::ObsServer`: a `std::net::TcpListener`, a named
//! acceptor thread, and a shutdown flag woken by a self-connect — no async
//! runtime. Accepted connections flow through a bounded channel to a fixed
//! pool of worker threads; each worker serves one connection to completion
//! (requests on a connection are strictly ordered, which is what gives a
//! session read-your-writes against the live store: its `put` ack returns
//! only after the epoch is published).
//!
//! The server serves a [`pam_store::Store`]: a volatile one in tests,
//! a durable one in production — the same type, so the same dispatcher.
//!
//! ## Drain protocol
//!
//! [`Server::drain`] (also run on drop):
//! 1. set the drain flag and self-connect to pop the acceptor out of
//!    `accept()` — no new connections from here on;
//! 2. half-close (`Shutdown::Read`) every live connection: a worker
//!    blocked in a read sees EOF and exits after finishing — and
//!    *replying to* — its in-flight request;
//! 3. join the workers, then flush the store (every accepted epoch
//!    commits — and, on a durable store, hits the log) and drop all
//!    named snapshot pins, the last holders of the versions they name.

use crate::wire::{
    decode_message, frame_message, read_frame_capped, EntriesFrame, Request, Response, WireOp,
    MAX_FRAME, MAX_SCAN,
};
use pam::AugSpec;
use pam_store::{Bytes, Snapshot, Store, WriteOp};
use pam_wal::frame::HEADER_LEN;
use pam_wal::varint_len;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io::{self, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::ops::ControlFlow;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Server tuning knobs.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Worker threads (each serves one connection at a time, so this is
    /// also the concurrent-connection limit; further accepted
    /// connections queue).
    pub workers: usize,
    /// Accepted connections that may queue for a free worker before the
    /// acceptor blocks.
    pub backlog: usize,
    /// Maximum accepted frame payload in bytes (see
    /// [`crate::wire::read_frame_capped`]).
    pub max_frame: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 4,
            backlog: 64,
            max_frame: MAX_FRAME,
        }
    }
}

/// A running server. Dropping it drains gracefully ([`Server::drain`]).
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    on_drain: Option<Box<dyn FnOnce() + Send>>,
}

/// Cap on named snapshot pins held at once. A pin keeps a version of
/// the store alive until it is unpinned, and names come from remote
/// clients, so the table they fill is bounded.
pub const MAX_PINS: usize = 1024;

/// Named snapshot pins, shared by every session (at most [`MAX_PINS`]).
type Pins<S> = Mutex<HashMap<String, Arc<Snapshot<S>>>>;

/// State shared between the acceptor, the workers, and `drain`.
struct Shared {
    draining: AtomicBool,
    /// Live connections by id (a `try_clone` of each worker's stream),
    /// so drain can half-close readers that are blocked mid-`read`.
    conns: Mutex<HashMap<u64, TcpStream>>,
}

/// Bind `addr` and serve `store` until [`Server::drain`] (or drop).
///
/// Writes feed the store's group-commit pipeline — concurrent
/// connections' puts coalesce into shared epochs — and each is acked
/// only once its ticket resolves, with the store-wide version its epoch
/// published (a batch's ack also carries that epoch). Reads run off
/// pinned snapshots (an `Arc` clone under the store's registry mutex,
/// which `publish` also takes — ROADMAP item 8). `Pin`/`UsePin` give
/// sessions a named snapshot for repeatable reads; the reply names its
/// version.
///
/// # Errors
///
/// Propagates the bind failure.
pub fn serve<S>(
    store: Arc<Store<S>>,
    addr: impl ToSocketAddrs,
    cfg: ServeConfig,
) -> io::Result<Server>
where
    S: AugSpec<K = Bytes, V = Bytes>,
{
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    let shared = Arc::new(Shared {
        draining: AtomicBool::new(false),
        conns: Mutex::new(HashMap::new()),
    });
    let pins: Arc<Pins<S>> = Arc::new(Mutex::new(HashMap::new()));

    let (tx, rx) = sync_channel::<(u64, TcpStream)>(cfg.backlog.max(1));
    let rx = Arc::new(Mutex::new(rx));

    let workers = (0..cfg.workers.max(1))
        .map(|i| {
            let rx = Arc::clone(&rx);
            let store = Arc::clone(&store);
            let shared = Arc::clone(&shared);
            let pins = Arc::clone(&pins);
            let max_frame = cfg.max_frame;
            thread::Builder::new()
                .name(format!("pam-serve-worker-{i}"))
                .spawn(move || worker_loop(rx, store, shared, pins, max_frame))
        })
        .collect::<io::Result<Vec<_>>>()?;

    let acceptor = {
        let shared = Arc::clone(&shared);
        thread::Builder::new()
            .name("pam-serve-accept".into())
            .spawn(move || {
                let mut next_id = 0u64;
                // `tx` lives (only) here: when the acceptor exits, the
                // channel closes and idle workers wake up and exit.
                for stream in listener.incoming() {
                    if shared.draining.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    let id = next_id;
                    next_id += 1;
                    if let Ok(clone) = stream.try_clone() {
                        shared.conns.lock().insert(id, clone);
                    }
                    if tx.send((id, stream)).is_err() {
                        break;
                    }
                }
            })?
        // a failed spawn drops `tx` with this scope, so the already
        // spawned workers wake on the closed channel and exit
    };

    let on_drain: Box<dyn FnOnce() + Send> = {
        let pins = Arc::clone(&pins);
        Box::new(move || {
            store.flush();
            pins.lock().clear();
        })
    };

    Ok(Server {
        addr: local,
        shared,
        acceptor: Some(acceptor),
        workers,
        on_drain: Some(on_drain),
    })
}

impl Server {
    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Gracefully drain: stop accepting, let in-flight requests finish
    /// and be acked, flush every submitted epoch, drop all named pins.
    /// Idempotent; also runs on drop.
    pub fn drain(&mut self) {
        let Some(acceptor) = self.acceptor.take() else {
            return;
        };
        self.shared.draining.store(true, Ordering::SeqCst);
        // pop the acceptor out of accept()
        let _ = TcpStream::connect(self.addr);
        let _ = acceptor.join();
        // half-close live connections: blocked reads see EOF, in-flight
        // responses can still be written
        for stream in self.shared.conns.lock().values() {
            let _ = stream.shutdown(Shutdown::Read);
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        if let Some(f) = self.on_drain.take() {
            f();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.drain();
    }
}

fn worker_loop<S>(
    rx: Arc<Mutex<Receiver<(u64, TcpStream)>>>,
    store: Arc<Store<S>>,
    shared: Arc<Shared>,
    pins: Arc<Pins<S>>,
    max_frame: usize,
) where
    S: AugSpec<K = Bytes, V = Bytes>,
{
    loop {
        // hold the receiver lock only for the dequeue, not the serve
        let next = rx.lock().recv();
        let Ok((id, stream)) = next else { break };
        serve_connection(&store, &pins, stream, max_frame);
        shared.conns.lock().remove(&id);
    }
}

/// Capacity a connection's reply buffer keeps between requests: a larger
/// reply's buffer is freed once it is sent.
const REPLY_BUF_KEEP: usize = 1 << 20;

/// How long a worker polls its connection for the next request (one
/// `yield_now` apart) before it blocks in `read`. A closed-loop client
/// sends its next request a few µs after the reply. A worker that blocked
/// in the meantime has to be woken for it, and while a CPU is idle the
/// scheduler wakes it there, so the request waits for a cross-CPU
/// wake-up. The pool's workers poll before parking for the same reason.
/// A quiet connection costs one window of polling per reply.
const POLL_BEFORE_BLOCK: Duration = Duration::from_micros(50);

/// Serve one connection to completion: read a frame, decode, dispatch,
/// reply — until clean EOF, a protocol error (answered with
/// [`Response::Err`], then the connection closes), or drain.
///
/// Every reply is framed in place in one buffer the connection reuses,
/// and sent with one `write_all`; then the worker polls for the next
/// request for up to [`POLL_BEFORE_BLOCK`] before it blocks.
fn serve_connection<S>(store: &Store<S>, pins: &Pins<S>, mut stream: TcpStream, max_frame: usize)
where
    S: AugSpec<K = Bytes, V = Bytes>,
{
    let _ = stream.set_nodelay(true);
    let mut session: Option<Arc<Snapshot<S>>> = None;
    let mut reply = Vec::new();
    loop {
        let (start, close) = match read_frame_capped(&mut stream, max_frame) {
            Ok(None) => break,
            Ok(Some(payload)) => match decode_message::<Request>(&payload) {
                Ok(req) => {
                    // a panicking dispatch (e.g. a poisoned store's
                    // ticket) must not take the worker thread down
                    let start = catch_unwind(AssertUnwindSafe(|| {
                        dispatch(store, pins, &mut session, req, &mut reply)
                    }))
                    .unwrap_or_else(|_| {
                        frame_reply(&mut reply, &Response::Err("internal error".into()))
                    });
                    (start, false)
                }
                Err(e) => (frame_reply(&mut reply, &Response::Err(e.msg.into())), true),
            },
            // hostile or corrupt framing: answer cleanly, then close
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                (frame_reply(&mut reply, &Response::Err(e.to_string())), true)
            }
            Err(_) => break,
        };
        if stream.write_all(&reply[start..]).is_err() || close {
            break;
        }
        reply.clear();
        reply.shrink_to(REPLY_BUF_KEEP);
        if poll_for_request(&stream).is_err() {
            break;
        }
    }
}

/// Poll `stream` without blocking until a request byte (or EOF, or an
/// error, which the next read reports) is there, or
/// [`POLL_BEFORE_BLOCK`] has passed; then put it back in blocking mode.
fn poll_for_request(stream: &TcpStream) -> io::Result<()> {
    stream.set_nonblocking(true)?;
    let start = Instant::now();
    let mut probe = [0u8; 1];
    while matches!(stream.peek(&mut probe), Err(e) if e.kind() == io::ErrorKind::WouldBlock)
        && start.elapsed() < POLL_BEFORE_BLOCK
    {
        thread::yield_now();
    }
    stream.set_nonblocking(false)
}

/// Frame `reply` into `out`; returns where the frame starts. A reply
/// whose payload would be over [`MAX_FRAME`], which no client reads, is
/// framed as an `Err` instead.
fn frame_reply(out: &mut Vec<u8>, reply: &Response) -> usize {
    frame_message(out, reply);
    if out.len() - HEADER_LEN > MAX_FRAME {
        frame_message(out, &over_frame_limit());
    }
    0
}

fn over_frame_limit() -> Response {
    Response::Err(format!("reply over the {MAX_FRAME}-byte frame limit"))
}

/// Serve `req`, framing its reply into `out`; returns where the frame
/// starts.
fn dispatch<S>(
    store: &Store<S>,
    pins: &Pins<S>,
    session: &mut Option<Arc<Snapshot<S>>>,
    req: Request,
    out: &mut Vec<u8>,
) -> usize
where
    S: AugSpec<K = Bytes, V = Bytes>,
{
    // Wire messages carry `Vec<u8>`; the store holds shared `Bytes`.
    // Requests convert once on the way in; a scan encodes its entries
    // straight from the snapshot, other replies copy the bytes out.
    let reply = match req {
        Request::Ping => Response::Pong,
        Request::Get(key) => {
            let key = Bytes::from(key);
            let value = match session {
                Some(snap) => snap.get(&key),
                None => store.get(&key),
            };
            Response::Value(value.map(|v| v.to_vec()))
        }
        Request::GetMany(keys) => {
            let keys: Vec<Bytes> = keys.into_iter().map(Bytes::from).collect();
            let values = match session {
                Some(snap) => snap.get_many(&keys),
                None => store.get_many(&keys),
            };
            // size the reply before copying a byte of it: repeated keys
            // of large values could otherwise ask for any amount
            let payload = values
                .iter()
                .fold(1 + varint_len(values.len() as u64), |n, v| {
                    n + 1
                        + v.as_ref()
                            .map_or(0, |v| varint_len(v.len() as u64) + v.len())
                });
            if payload > MAX_FRAME {
                over_frame_limit()
            } else {
                Response::Values(values.into_iter().map(|v| v.map(|v| v.to_vec())).collect())
            }
        }
        Request::Scan { lo, hi, limit } => return scan(store, session, lo, hi, limit, out),
        Request::Len => Response::Count(match session {
            Some(snap) => snap.len() as u64,
            None => store.len() as u64,
        }),
        Request::Put(key, value) => acked(store.put(key.into(), value.into()).wait(), None),
        Request::Delete(key) => acked(store.delete(key.into()).wait(), None),
        Request::Batch(ops) => {
            let ops: Vec<WriteOp<S>> = ops
                .into_iter()
                .map(|op| match op {
                    WireOp::Put(k, v) => WriteOp::Put(k.into(), v.into()),
                    WireOp::Delete(k) => WriteOp::Delete(k.into()),
                })
                .collect();
            let ticket = store.write_batch(ops);
            acked(ticket.wait(), ticket.global_epoch())
        }
        Request::Pin(name) => {
            let snap = Arc::new(store.snapshot());
            let epoch = snap.version();
            let mut table = pins.lock();
            // re-pinning a name replaces its snapshot: no new holder
            if table.len() >= MAX_PINS && !table.contains_key(&name) {
                Response::Err("too many pins".into())
            } else {
                table.insert(name, Arc::clone(&snap));
                drop(table);
                *session = Some(snap);
                Response::Pinned(epoch)
            }
        }
        Request::UsePin(name) => match pins.lock().get(&name) {
            Some(snap) => {
                let epoch = snap.version();
                *session = Some(Arc::clone(snap));
                Response::Pinned(epoch)
            }
            None => Response::Err(format!("unknown pin: {name}")),
        },
        Request::Unpin(name) => {
            if pins.lock().remove(&name).is_some() {
                Response::Ok
            } else {
                Response::Err(format!("unknown pin: {name}"))
            }
        }
        Request::Release => {
            *session = None;
            Response::Ok
        }
    };
    frame_reply(out, &reply)
}

/// Encode the reply to a `Scan` straight from the snapshot into `out`;
/// returns where the frame starts. The walk stops at `limit` (capped at
/// [`MAX_SCAN`]) or before the entry that would push the reply over
/// [`MAX_FRAME`], so the reply is the range's first entries either way.
/// Only a first entry too large for a frame by itself is an `Err`.
fn scan<S>(
    store: &Store<S>,
    session: &Option<Arc<Snapshot<S>>>,
    lo: Vec<u8>,
    hi: Vec<u8>,
    limit: u64,
    out: &mut Vec<u8>,
) -> usize
where
    S: AugSpec<K = Bytes, V = Bytes>,
{
    let (lo, hi) = (Bytes::from(lo), Bytes::from(hi));
    let limit = limit.min(MAX_SCAN);
    let mut entries = EntriesFrame::new(out, MAX_FRAME);
    let mut full = false;
    if limit > 0 {
        // Break as soon as the limit is reached: the walk reads no
        // further entry, however wide `[lo, hi]` is.
        let encode = |k: &Bytes, v: &Bytes| {
            if !entries.push(k, v) {
                full = true;
                return ControlFlow::Break(());
            }
            if entries.len() < limit {
                ControlFlow::Continue(())
            } else {
                ControlFlow::Break(())
            }
        };
        match session {
            Some(snap) => snap.range_try_for_each(&lo, &hi, encode),
            None => store.range_try_for_each(&lo, &hi, encode),
        }
    }
    if full && entries.is_empty() {
        return frame_reply(out, &over_frame_limit());
    }
    entries.finish()
}

/// The reply to a write whose ticket has resolved: the write is
/// committed, published in store version `version`, and (on a durable
/// store) logged per the sync policy.
fn acked(version: u64, global_epoch: Option<u64>) -> Response {
    Response::Acked {
        version,
        global_epoch,
    }
}
