//! [`Bytes`]: the shared byte string `pam-serve` stores.

use pam_wal::{put_varint, Codec, CodecError, Reader};
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// An immutable, reference-counted byte string: `Clone` bumps a
/// refcount instead of copying the bytes.
///
/// A path copy clones every key and value of the block and the pivots it
/// rewrites, so with `Bytes` entries a commit shares buffers with the
/// version it replaced instead of allocating and copying each one — the
/// O(1)-per-copied-node cost PAM's persistence assumes. Order, equality
/// and hashing are by content, lexicographic, exactly as for `Vec<u8>`.
///
/// `Bytes` and `Vec<u8>` are interchangeable over one durable directory
/// because they write **the same on-disk bytes**: [`Codec`] writes a
/// varint length, then the bytes, exactly as `Vec<u8>` does, so
/// checkpoints and WAL records are byte-identical.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Bytes(Arc<[u8]>);

impl Deref for Bytes {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl AsRef<[u8]> for Bytes {
    #[inline]
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl From<Vec<u8>> for Bytes {
    #[inline]
    fn from(v: Vec<u8>) -> Self {
        Bytes(v.into())
    }
}

impl From<&[u8]> for Bytes {
    #[inline]
    fn from(s: &[u8]) -> Self {
        Bytes(s.into())
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self[..], f)
    }
}

impl Codec for Bytes {
    fn encode(&self, out: &mut Vec<u8>) {
        put_varint(out, self.len() as u64);
        out.extend_from_slice(self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let n = r.length()?;
        Ok(Bytes::from(r.take(n)?))
    }
}
