//! The wire format: length-prefixed, CRC-framed, varint-encoded messages.
//!
//! Every message travels as one `pam-wal` frame — the exact
//! `[len u32 LE | crc32 u32 LE | payload]` layout the WAL uses on disk
//! (`pam_wal::frame`), so the network protocol inherits the same torn- and
//! corrupt-input discipline the recovery path already trusts. Payloads are
//! encoded with [`pam_wal::Codec`]: a one-byte message tag followed by the
//! variant's fields (LEB128 varints, length-prefixed byte strings).
//!
//! One deliberate difference from the WAL reader: the server never
//! allocates a length it has not capped. `pam_wal::frame::read_frame`
//! trusts lengths up to `MAX_PAYLOAD` (1 GiB) because the WAL is
//! self-written; a network peer is hostile, so [`read_frame_capped`]
//! rejects anything over its cap (default [`MAX_FRAME`], 16 MiB) *before*
//! allocating.

use pam_wal::frame::{self, HEADER_LEN};
use pam_wal::{put_varint, Codec, CodecError, Reader};
use std::io::{self, Write};

/// Default maximum frame payload accepted from a peer (16 MiB). Generous
/// for batches, small enough that a hostile length prefix cannot balloon
/// server memory.
pub const MAX_FRAME: usize = 16 << 20;

/// Cap on entries returned by one `Scan` request, applied server-side
/// regardless of the requested limit.
pub const MAX_SCAN: u64 = 1 << 16;

/// One write inside a [`Request::Batch`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireOp {
    /// Insert or overwrite a key.
    Put(Vec<u8>, Vec<u8>),
    /// Remove a key (no-op if absent).
    Delete(Vec<u8>),
}

impl Codec for WireOp {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            WireOp::Put(k, v) => {
                out.push(0);
                k.encode(out);
                v.encode(out);
            }
            WireOp::Delete(k) => {
                out.push(1);
                k.encode(out);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.byte()? {
            0 => Ok(WireOp::Put(Vec::decode(r)?, Vec::decode(r)?)),
            1 => Ok(WireOp::Delete(Vec::decode(r)?)),
            _ => Err(CodecError {
                msg: "unknown batch op tag",
            }),
        }
    }
}

/// A client request. Keys and values are opaque byte strings.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Liveness probe; answered with [`Response::Pong`].
    Ping,
    /// Point read (session-pinned snapshot if one is active, else live).
    Get(Vec<u8>),
    /// Multi-point read, results in input order.
    GetMany(Vec<Vec<u8>>),
    /// Ordered scan of `[lo, hi]`, at most `limit` entries
    /// (server-capped at [`MAX_SCAN`]).
    Scan {
        /// Inclusive lower bound.
        lo: Vec<u8>,
        /// Inclusive upper bound.
        hi: Vec<u8>,
        /// Maximum entries to return.
        limit: u64,
    },
    /// Entry count.
    Len,
    /// Insert or overwrite; acked when group-committed.
    Put(Vec<u8>, Vec<u8>),
    /// Remove; acked when group-committed.
    Delete(Vec<u8>),
    /// Atomic batch: one epoch, whatever shards its keys route to.
    Batch(Vec<WireOp>),
    /// Snapshot the store, register it under `name`, and pin this
    /// session's reads to it.
    Pin(String),
    /// Pin this session's reads to the named snapshot.
    UsePin(String),
    /// Drop the named snapshot from the registry (sessions already
    /// reading it keep their pin).
    Unpin(String),
    /// Return this session's reads to the live store.
    Release,
}

impl Codec for Request {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Request::Ping => out.push(1),
            Request::Get(k) => {
                out.push(2);
                k.encode(out);
            }
            Request::GetMany(keys) => {
                out.push(3);
                put_seq(out, keys);
            }
            Request::Scan { lo, hi, limit } => {
                out.push(4);
                lo.encode(out);
                hi.encode(out);
                put_varint(out, *limit);
            }
            Request::Len => out.push(5),
            Request::Put(k, v) => {
                out.push(6);
                k.encode(out);
                v.encode(out);
            }
            Request::Delete(k) => {
                out.push(7);
                k.encode(out);
            }
            Request::Batch(ops) => {
                out.push(8);
                put_seq(out, ops);
            }
            Request::Pin(name) => {
                out.push(9);
                name.encode(out);
            }
            Request::UsePin(name) => {
                out.push(10);
                name.encode(out);
            }
            Request::Unpin(name) => {
                out.push(11);
                name.encode(out);
            }
            Request::Release => out.push(12),
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(match r.byte()? {
            1 => Request::Ping,
            2 => Request::Get(Vec::decode(r)?),
            3 => Request::GetMany(get_seq(r)?),
            4 => Request::Scan {
                lo: Vec::decode(r)?,
                hi: Vec::decode(r)?,
                limit: r.varint()?,
            },
            5 => Request::Len,
            6 => Request::Put(Vec::decode(r)?, Vec::decode(r)?),
            7 => Request::Delete(Vec::decode(r)?),
            8 => Request::Batch(get_seq(r)?),
            9 => Request::Pin(String::decode(r)?),
            10 => Request::UsePin(String::decode(r)?),
            11 => Request::Unpin(String::decode(r)?),
            12 => Request::Release,
            _ => {
                return Err(CodecError {
                    msg: "unknown request tag",
                })
            }
        })
    }
}

/// A server reply. Every request gets exactly one.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Response {
    /// Reply to [`Request::Ping`].
    Pong,
    /// Reply to [`Request::Get`].
    Value(Option<Vec<u8>>),
    /// Reply to [`Request::GetMany`], input order.
    Values(Vec<Option<Vec<u8>>>),
    /// Reply to [`Request::Scan`], key order.
    Entries(Vec<(Vec<u8>, Vec<u8>)>),
    /// Reply to [`Request::Len`].
    Count(u64),
    /// Reply to a write: the write is committed, published, and as
    /// durable as the server's sync policy promises. `global_epoch` is
    /// set only for batches.
    Acked {
        /// The store-wide version the write's epoch published.
        version: u64,
        /// A batch's epoch (equal to `version`).
        global_epoch: Option<u64>,
    },
    /// Reply to [`Request::Pin`] / [`Request::UsePin`]: the snapshot's
    /// version — at least that of every write acked before the pin.
    Pinned(u64),
    /// Generic success (Unpin, Release).
    Ok,
    /// The request could not be served; the connection stays usable
    /// unless the error was a framing/decoding one.
    Err(String),
}

impl Codec for Response {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Response::Pong => out.push(1),
            Response::Value(v) => {
                out.push(2);
                v.encode(out);
            }
            Response::Values(vs) => {
                out.push(3);
                put_seq(out, vs);
            }
            Response::Entries(es) => {
                out.push(4);
                put_seq(out, es);
            }
            Response::Count(n) => {
                out.push(5);
                put_varint(out, *n);
            }
            Response::Acked {
                version,
                global_epoch,
            } => {
                out.push(6);
                put_varint(out, *version);
                global_epoch.encode(out);
            }
            Response::Pinned(epoch) => {
                out.push(7);
                put_varint(out, *epoch);
            }
            Response::Ok => out.push(8),
            Response::Err(msg) => {
                out.push(9);
                msg.encode(out);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(match r.byte()? {
            1 => Response::Pong,
            2 => Response::Value(Option::decode(r)?),
            3 => Response::Values(get_seq(r)?),
            4 => Response::Entries(get_seq(r)?),
            5 => Response::Count(r.varint()?),
            6 => Response::Acked {
                version: r.varint()?,
                global_epoch: Option::decode(r)?,
            },
            7 => Response::Pinned(r.varint()?),
            8 => Response::Ok,
            9 => Response::Err(String::decode(r)?),
            _ => {
                return Err(CodecError {
                    msg: "unknown response tag",
                })
            }
        })
    }
}

fn put_seq<T: Codec>(out: &mut Vec<u8>, items: &[T]) {
    put_varint(out, items.len() as u64);
    for it in items {
        it.encode(out);
    }
}

fn get_seq<T: Codec>(r: &mut Reader<'_>) -> Result<Vec<T>, CodecError> {
    // `length()` range-checks the count against the remaining input
    // (every element costs >= 1 byte), so a hostile count cannot force a
    // huge allocation.
    let n = r.length()?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(T::decode(r)?);
    }
    Ok(out)
}

/// Frame `msg` and write it to `w` (one `write_all`, then flush).
///
/// # Errors
///
/// Propagates the underlying I/O error.
pub fn write_message<W: Write, M: Codec>(w: &mut W, msg: &M) -> io::Result<()> {
    let mut payload = Vec::new();
    msg.encode(&mut payload);
    let mut framed = Vec::with_capacity(HEADER_LEN + payload.len());
    frame::put_frame(&mut framed, &payload);
    w.write_all(&framed)?;
    w.flush()
}

/// The hostile-peer frame reader, now shared workspace-wide from
/// [`pam_wal::frame`]: enforces the cap on the announced payload length
/// **before allocating**. The server passes [`MAX_FRAME`] (or the
/// configured `ServeConfig::max_frame`) so a malicious 4 GiB length
/// field costs a closed connection, not an allocation.
pub use pam_wal::frame::read_frame_capped;

/// Decode one complete message from a frame payload, rejecting trailing
/// bytes (a well-formed frame holds exactly one message).
///
/// # Errors
///
/// Any [`CodecError`] from the message decoder, or "trailing bytes after
/// message" if the payload is longer than the message.
pub fn decode_message<M: Codec>(payload: &[u8]) -> Result<M, CodecError> {
    let mut r = Reader::new(payload);
    let msg = M::decode(&mut r)?;
    if !r.is_empty() {
        return Err(CodecError {
            msg: "trailing bytes after message",
        });
    }
    Ok(msg)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<M: Codec + PartialEq + std::fmt::Debug>(msg: M) {
        let mut wire = Vec::new();
        write_message(&mut wire, &msg).unwrap();
        let mut r = &wire[..];
        let payload = read_frame_capped(&mut r, MAX_FRAME).unwrap().unwrap();
        assert_eq!(decode_message::<M>(&payload).unwrap(), msg);
        assert!(r.is_empty());
    }

    #[test]
    fn every_message_roundtrips() {
        roundtrip(Request::Ping);
        roundtrip(Request::Get(b"k".to_vec()));
        roundtrip(Request::GetMany(vec![b"a".to_vec(), vec![], b"c".to_vec()]));
        roundtrip(Request::Scan {
            lo: vec![0],
            hi: vec![255; 9],
            limit: 42,
        });
        roundtrip(Request::Len);
        roundtrip(Request::Put(b"k".to_vec(), b"v".to_vec()));
        roundtrip(Request::Delete(vec![]));
        roundtrip(Request::Batch(vec![
            WireOp::Put(b"a".to_vec(), b"1".to_vec()),
            WireOp::Delete(b"b".to_vec()),
        ]));
        roundtrip(Request::Pin("cut".into()));
        roundtrip(Request::UsePin("cut".into()));
        roundtrip(Request::Unpin("cut".into()));
        roundtrip(Request::Release);

        roundtrip(Response::Pong);
        roundtrip(Response::Value(None));
        roundtrip(Response::Value(Some(b"v".to_vec())));
        roundtrip(Response::Values(vec![Some(vec![1]), None]));
        roundtrip(Response::Entries(vec![(b"k".to_vec(), b"v".to_vec())]));
        roundtrip(Response::Count(7));
        roundtrip(Response::Acked {
            version: 9,
            global_epoch: Some(3),
        });
        roundtrip(Response::Pinned(5));
        roundtrip(Response::Ok);
        roundtrip(Response::Err("nope".into()));
    }

    #[test]
    fn clean_eof_is_none_and_torn_input_is_invalid_data() {
        let empty: &[u8] = &[];
        assert!(read_frame_capped(&mut { empty }, MAX_FRAME)
            .unwrap()
            .is_none());

        let mut torn: &[u8] = &[1, 2, 3];
        let err = read_frame_capped(&mut torn, MAX_FRAME).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn oversized_length_is_rejected_before_allocation() {
        // header announcing 1 GiB; only the header is present
        let mut wire = Vec::new();
        wire.extend_from_slice(&(1u32 << 30).to_le_bytes());
        wire.extend_from_slice(&0u32.to_le_bytes());
        let err = read_frame_capped(&mut &wire[..], MAX_FRAME).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("over limit"));
    }

    #[test]
    fn corrupt_crc_is_rejected() {
        let mut wire = Vec::new();
        write_message(&mut wire, &Request::Ping).unwrap();
        let last = wire.len() - 1;
        wire[last] ^= 0xff; // flip a payload bit; crc no longer matches
        let err = read_frame_capped(&mut &wire[..], MAX_FRAME).unwrap_err();
        assert!(err.to_string().contains("bad frame crc"));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut payload = Vec::new();
        Request::Ping.encode(&mut payload);
        payload.push(0xab);
        assert!(decode_message::<Request>(&payload).is_err());
    }
}
