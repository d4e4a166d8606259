//! A small blocking client for the wire protocol (used by the remote
//! bench driver and the integration tests).

use crate::wire::{
    decode_message, read_frame_capped, write_message, Request, Response, WireOp, MAX_FRAME,
};
use std::io;
use std::net::{TcpStream, ToSocketAddrs};

/// A committed-write acknowledgement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Ack {
    /// The store-wide version the write's epoch published: acks are
    /// ordered by it.
    pub version: u64,
    /// For a batch, the epoch it committed in (equal to `version`);
    /// `None` for a put or a delete.
    pub global_epoch: Option<u64>,
}

/// One blocking connection to a `pam-serve` server. Requests on a client
/// are strictly ordered, so a `get` after an acked `put` on the *same*
/// client always observes it (and so does everyone else: an ack means
/// the write is published).
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connect to a server.
    ///
    /// # Errors
    ///
    /// Propagates the connect failure.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client { stream })
    }

    fn call(&mut self, req: &Request) -> io::Result<Response> {
        write_message(&mut self.stream, req)?;
        match read_frame_capped(&mut self.stream, MAX_FRAME)? {
            Some(payload) => Ok(decode_message::<Response>(&payload)?),
            None => Err(io::Error::new(
                io::ErrorKind::ConnectionAborted,
                "server closed the connection",
            )),
        }
    }

    fn unexpected(resp: Response) -> io::Error {
        match resp {
            Response::Err(msg) => io::Error::other(msg),
            other => io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unexpected response: {other:?}"),
            ),
        }
    }

    /// Liveness probe.
    ///
    /// # Errors
    ///
    /// I/O failure or an error reply.
    pub fn ping(&mut self) -> io::Result<()> {
        match self.call(&Request::Ping)? {
            Response::Pong => Ok(()),
            other => Err(Self::unexpected(other)),
        }
    }

    /// Point read (session snapshot if pinned, else live).
    ///
    /// # Errors
    ///
    /// I/O failure or an error reply.
    pub fn get(&mut self, key: &[u8]) -> io::Result<Option<Vec<u8>>> {
        match self.call(&Request::Get(key.to_vec()))? {
            Response::Value(v) => Ok(v),
            other => Err(Self::unexpected(other)),
        }
    }

    /// Multi-point read, results in input order.
    ///
    /// # Errors
    ///
    /// I/O failure or an error reply — including one for values that
    /// together would not fit in one reply frame
    /// ([`crate::wire::MAX_FRAME`]).
    pub fn get_many(&mut self, keys: &[Vec<u8>]) -> io::Result<Vec<Option<Vec<u8>>>> {
        match self.call(&Request::GetMany(keys.to_vec()))? {
            Response::Values(vs) => Ok(vs),
            other => Err(Self::unexpected(other)),
        }
    }

    /// Ordered scan of `[lo, hi]`: its first entries, at most `limit`
    /// (and [`crate::wire::MAX_SCAN`]), and fewer if more would not fit
    /// in one reply frame ([`crate::wire::MAX_FRAME`]). A short reply
    /// therefore does not mean the range is exhausted; scan on from
    /// after its last key.
    ///
    /// # Errors
    ///
    /// I/O failure or an error reply (an entry too large for a reply
    /// frame by itself).
    pub fn scan(
        &mut self,
        lo: &[u8],
        hi: &[u8],
        limit: u64,
    ) -> io::Result<Vec<(Vec<u8>, Vec<u8>)>> {
        let req = Request::Scan {
            lo: lo.to_vec(),
            hi: hi.to_vec(),
            limit,
        };
        match self.call(&req)? {
            Response::Entries(es) => Ok(es),
            other => Err(Self::unexpected(other)),
        }
    }

    /// Entry count.
    ///
    /// # Errors
    ///
    /// I/O failure or an error reply.
    pub fn len(&mut self) -> io::Result<u64> {
        match self.call(&Request::Len)? {
            Response::Count(n) => Ok(n),
            other => Err(Self::unexpected(other)),
        }
    }

    /// Whether the store holds no entries (a `len` round trip).
    ///
    /// # Errors
    ///
    /// I/O failure or an error reply.
    pub fn is_empty(&mut self) -> io::Result<bool> {
        Ok(self.len()? == 0)
    }

    /// Insert or overwrite; returns once the write is committed and
    /// published (group-commit ack).
    ///
    /// # Errors
    ///
    /// I/O failure or an error reply.
    pub fn put(&mut self, key: &[u8], value: &[u8]) -> io::Result<Ack> {
        self.acked(Request::Put(key.to_vec(), value.to_vec()))
    }

    /// Remove a key; acked like [`Client::put`].
    ///
    /// # Errors
    ///
    /// I/O failure or an error reply.
    pub fn delete(&mut self, key: &[u8]) -> io::Result<Ack> {
        self.acked(Request::Delete(key.to_vec()))
    }

    /// Submit an atomic batch: one epoch.
    ///
    /// # Errors
    ///
    /// I/O failure or an error reply.
    pub fn batch(&mut self, ops: Vec<WireOp>) -> io::Result<Ack> {
        self.acked(Request::Batch(ops))
    }

    fn acked(&mut self, req: Request) -> io::Result<Ack> {
        match self.call(&req)? {
            Response::Acked {
                version,
                global_epoch,
            } => Ok(Ack {
                version,
                global_epoch,
            }),
            other => Err(Self::unexpected(other)),
        }
    }

    /// Snapshot the store under `name` and pin this session's reads to
    /// it; returns the snapshot's version — at least that of every write
    /// acked before the call.
    ///
    /// # Errors
    ///
    /// I/O failure, or an error reply if `name` is new and the server
    /// already holds [`crate::server::MAX_PINS`] named snapshots.
    pub fn pin(&mut self, name: &str) -> io::Result<u64> {
        match self.call(&Request::Pin(name.into()))? {
            Response::Pinned(e) => Ok(e),
            other => Err(Self::unexpected(other)),
        }
    }

    /// Pin this session's reads to an existing named snapshot.
    ///
    /// # Errors
    ///
    /// I/O failure, or an error reply if the name is unknown.
    pub fn use_pin(&mut self, name: &str) -> io::Result<u64> {
        match self.call(&Request::UsePin(name.into()))? {
            Response::Pinned(e) => Ok(e),
            other => Err(Self::unexpected(other)),
        }
    }

    /// Drop a named snapshot from the server's registry.
    ///
    /// # Errors
    ///
    /// I/O failure, or an error reply if the name is unknown.
    pub fn unpin(&mut self, name: &str) -> io::Result<()> {
        match self.call(&Request::Unpin(name.into()))? {
            Response::Ok => Ok(()),
            other => Err(Self::unexpected(other)),
        }
    }

    /// Return this session's reads to the live store.
    ///
    /// # Errors
    ///
    /// I/O failure or an error reply.
    pub fn release(&mut self) -> io::Result<()> {
        match self.call(&Request::Release)? {
            Response::Ok => Ok(()),
            other => Err(Self::unexpected(other)),
        }
    }
}
