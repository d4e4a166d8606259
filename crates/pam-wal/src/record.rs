//! The epoch record payload: one normalized commit batch.
//!
//! The store's committer hands the WAL exactly what it is about to apply
//! to the tree — the *normalized* epoch (puts sorted by key, deletes
//! sorted, key sets disjoint, last-write-wins already resolved). Logging
//! after normalization is what keeps replay trivial: applying an epoch
//! body to a map is one `multi_update` (its two lists merged into one
//! sorted stream — one walk of the tree), and
//! re-applying an epoch that is already reflected in a checkpoint is
//! idempotent (same keys, same final values), so recovery may safely
//! overlap checkpoint and log.
//!
//! Layout (all inside one checksummed frame, see [`crate::frame`]): two
//! runs ([`crate::codec`]), the puts as `(key, value)` pairs — the bytes
//! of a checkpoint chunk holding the same pairs — then the deleted keys:
//!
//! ```text
//! [ puts_len : varint ][ (key, value) ... ][ dels_len : varint ][ key ... ]
//! ```

use crate::codec::{put_run, Codec, CodecError, Reader};

/// A decoded epoch body: the normalized batch that was committed.
#[derive(Debug, PartialEq, Eq)]
pub struct EpochBody<K, V> {
    /// Upserts, sorted by key, distinct.
    pub puts: Vec<(K, V)>,
    /// Deleted keys, sorted, distinct, disjoint from `puts`.
    pub deletes: Vec<K>,
}

/// Serialize a normalized batch into `out`.
pub fn encode_epoch_body<K: Codec, V: Codec>(puts: &[(K, V)], deletes: &[K], out: &mut Vec<u8>) {
    put_run(out, puts);
    put_run(out, deletes);
}

/// Deserialize an epoch body; the whole of `body` must be consumed.
///
/// # Errors
///
/// Fails on any malformed key/value encoding, on counts exceeding the
/// input, or on trailing bytes (a frame that validated its CRC but was
/// written by something speaking a different schema).
pub fn decode_epoch_body<K: Codec, V: Codec>(body: &[u8]) -> Result<EpochBody<K, V>, CodecError> {
    let mut r = Reader::new(body);
    let puts = r.run()?;
    let deletes = r.run()?;
    if !r.is_empty() {
        return Err(CodecError::new("trailing bytes after epoch body"));
    }
    Ok(EpochBody { puts, deletes })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_body_roundtrip() {
        let puts = vec![(1u64, 10u64), (5, 50)];
        let dels = vec![2u64, 3];
        let mut buf = Vec::new();
        encode_epoch_body(&puts, &dels, &mut buf);
        let body: EpochBody<u64, u64> = decode_epoch_body(&buf).unwrap();
        assert_eq!(body.puts, puts);
        assert_eq!(body.deletes, dels);
    }

    #[test]
    fn string_keys_roundtrip() {
        let puts = vec![
            (String::from("alpha"), vec![1u8, 2]),
            (String::from("beta"), vec![]),
        ];
        let dels = vec![String::from("gone")];
        let mut buf = Vec::new();
        encode_epoch_body(&puts, &dels, &mut buf);
        let body: EpochBody<String, Vec<u8>> = decode_epoch_body(&buf).unwrap();
        assert_eq!(body.puts, puts);
        assert_eq!(body.deletes, dels);
    }

    #[test]
    fn truncated_body_fails() {
        let mut buf = Vec::new();
        encode_epoch_body(&[(1u64, 2u64)], &[3u64], &mut buf);
        for cut in 0..buf.len() {
            assert!(decode_epoch_body::<u64, u64>(&buf[..cut]).is_err());
        }
    }
}
