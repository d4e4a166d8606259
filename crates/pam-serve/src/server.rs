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
    decode_message, read_frame_capped, write_message, Request, Response, WireOp, MAX_FRAME,
    MAX_SCAN,
};
use pam::AugSpec;
use pam_store::{Bytes, Snapshot, Store, WriteOp};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::ops::ControlFlow;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver};
use std::sync::Arc;
use std::thread::{self, JoinHandle};

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

/// Serve one connection to completion: read a frame, decode, dispatch,
/// reply — until clean EOF, a protocol error (answered with
/// [`Response::Err`], then the connection closes), or drain.
fn serve_connection<S>(store: &Store<S>, pins: &Pins<S>, mut stream: TcpStream, max_frame: usize)
where
    S: AugSpec<K = Bytes, V = Bytes>,
{
    let _ = stream.set_nodelay(true);
    let mut session: Option<Arc<Snapshot<S>>> = None;
    loop {
        match read_frame_capped(&mut stream, max_frame) {
            Ok(None) => break,
            Ok(Some(payload)) => {
                let reply = match decode_message::<Request>(&payload) {
                    Ok(req) => {
                        // a panicking dispatch (e.g. a poisoned store's
                        // ticket) must not take the worker thread down
                        catch_unwind(AssertUnwindSafe(|| {
                            dispatch(store, pins, &mut session, req)
                        }))
                        .unwrap_or_else(|_| Response::Err("internal error".into()))
                    }
                    Err(e) => {
                        let _ = write_message(&mut stream, &Response::Err(e.msg.into()));
                        break;
                    }
                };
                if write_message(&mut stream, &reply).is_err() {
                    break;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                // hostile or corrupt framing: answer cleanly, then close
                let _ = write_message(&mut stream, &Response::Err(e.to_string()));
                break;
            }
            Err(_) => break,
        }
    }
}

fn dispatch<S>(
    store: &Store<S>,
    pins: &Pins<S>,
    session: &mut Option<Arc<Snapshot<S>>>,
    req: Request,
) -> Response
where
    S: AugSpec<K = Bytes, V = Bytes>,
{
    // Wire messages carry `Vec<u8>`; the store holds shared `Bytes`.
    // Requests convert once on the way in, replies copy the bytes out.
    match req {
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
            Response::Values(values.into_iter().map(|v| v.map(|v| v.to_vec())).collect())
        }
        Request::Scan { lo, hi, limit } => {
            let (lo, hi) = (Bytes::from(lo), Bytes::from(hi));
            let limit = limit.min(MAX_SCAN) as usize;
            let mut entries = Vec::new();
            if limit > 0 {
                // Break as soon as the limit is reached: the merge pulls
                // no further entry, however wide `[lo, hi]` is.
                let collect = |k: &Bytes, v: &Bytes| {
                    entries.push((k.to_vec(), v.to_vec()));
                    if entries.len() < limit {
                        ControlFlow::Continue(())
                    } else {
                        ControlFlow::Break(())
                    }
                };
                match session {
                    Some(snap) => snap.range_try_for_each(&lo, &hi, collect),
                    None => store.range_try_for_each(&lo, &hi, collect),
                }
            }
            Response::Entries(entries)
        }
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
            {
                let mut pins = pins.lock();
                // re-pinning a name replaces its snapshot: no new holder
                if pins.len() >= MAX_PINS && !pins.contains_key(&name) {
                    return Response::Err("too many pins".into());
                }
                pins.insert(name, Arc::clone(&snap));
            }
            *session = Some(snap);
            Response::Pinned(epoch)
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
    }
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
