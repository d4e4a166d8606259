//! Binary serialization for log and checkpoint payloads.
//!
//! [`Codec`] is the `(encode, decode)` pair a key or value type needs to
//! ride through the WAL and checkpoints. The wire format is compact and
//! deliberately boring: LEB128 varints for unsigned integers, zigzag
//! varints for signed ones, length-prefixed bytes for strings and byte
//! vectors, and field concatenation for tuples. Decoding is
//! allocation-bounded and never trusts a length it has not range-checked
//! against the remaining input, so a corrupt frame fails with a
//! [`CodecError`] instead of a huge allocation or a panic.

use std::fmt;

/// Error produced when decoding malformed bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CodecError {
    /// What went wrong, for humans.
    pub msg: &'static str,
}

impl CodecError {
    pub(crate) fn new(msg: &'static str) -> Self {
        CodecError { msg }
    }
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "codec error: {}", self.msg)
    }
}

impl std::error::Error for CodecError {}

impl From<CodecError> for std::io::Error {
    fn from(e: CodecError) -> Self {
        std::io::Error::new(std::io::ErrorKind::InvalidData, e)
    }
}

/// A bounds-checked cursor over a byte slice.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over the whole of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Has every byte been consumed?
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Consume exactly `n` bytes.
    ///
    /// # Errors
    ///
    /// Fails if fewer than `n` bytes remain.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::new("unexpected end of input"));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Consume one byte.
    ///
    /// # Errors
    ///
    /// Fails at end of input.
    pub fn byte(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Consume a LEB128 varint.
    ///
    /// # Errors
    ///
    /// Fails on truncated input or an encoding exceeding `u64::MAX`.
    pub fn varint(&mut self) -> Result<u64, CodecError> {
        let mut out = 0u64;
        let mut shift = 0u32;
        loop {
            let b = self.byte()?;
            if shift == 63 && b > 1 {
                return Err(CodecError::new("varint overflows u64"));
            }
            out |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Ok(out);
            }
            shift += 7;
        }
    }

    /// Consume a varint and range-check it as a collection length.
    ///
    /// # Errors
    ///
    /// Fails on a malformed varint or a length larger than the
    /// remaining input (an attacker-controlled allocation request).
    pub fn length(&mut self) -> Result<usize, CodecError> {
        let n = self.varint()?;
        if n > self.remaining() as u64 {
            return Err(CodecError::new("length prefix exceeds input"));
        }
        Ok(n as usize)
    }
}

/// Append `v` to `out` as a LEB128 varint.
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Bytes [`put_varint`] writes for `v`.
pub const fn varint_len(v: u64) -> usize {
    (64 - (v | 1).leading_zeros() as usize).div_ceil(7)
}

#[inline]
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

#[inline]
fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Types that can serialize themselves into WAL / checkpoint payloads.
///
/// Implementations must round-trip: `decode(encode(x)) == x`, consuming
/// exactly the bytes `encode` produced (so values can be concatenated).
pub trait Codec: Sized {
    /// Append the encoding of `self` to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// Decode one value from the reader, consuming exactly its bytes.
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError>;
}

macro_rules! impl_codec_unsigned {
    ($($t:ty),*) => {$(
        impl Codec for $t {
            #[inline]
            fn encode(&self, out: &mut Vec<u8>) {
                put_varint(out, *self as u64);
            }
            #[inline]
            fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
                let v = r.varint()?;
                <$t>::try_from(v).map_err(|_| CodecError::new("integer out of range"))
            }
        }
    )*};
}
impl_codec_unsigned!(u8, u16, u32, u64, usize);

macro_rules! impl_codec_signed {
    ($($t:ty),*) => {$(
        impl Codec for $t {
            #[inline]
            fn encode(&self, out: &mut Vec<u8>) {
                put_varint(out, zigzag(*self as i64));
            }
            #[inline]
            fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
                let v = unzigzag(r.varint()?);
                <$t>::try_from(v).map_err(|_| CodecError::new("integer out of range"))
            }
        }
    )*};
}
impl_codec_signed!(i8, i16, i32, i64, isize);

impl Codec for u128 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let b = r.take(16)?;
        // lint: allow(panic) take(n) above returned exactly n bytes
        Ok(u128::from_le_bytes(b.try_into().expect("16 bytes")))
    }
}

impl Codec for i128 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let b = r.take(16)?;
        // lint: allow(panic) take(n) above returned exactly n bytes
        Ok(i128::from_le_bytes(b.try_into().expect("16 bytes")))
    }
}

impl Codec for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.byte()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CodecError::new("invalid bool byte")),
        }
    }
}

// Floats in stores are payload, not keys: raw IEEE-754 bits.
impl Codec for f64 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let b = r.take(8)?;
        // lint: allow(panic) take(n) above returned exactly n bytes
        Ok(f64::from_le_bytes(b.try_into().expect("8 bytes")))
    }
}

impl Codec for f32 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let b = r.take(4)?;
        // lint: allow(panic) take(n) above returned exactly n bytes
        Ok(f32::from_le_bytes(b.try_into().expect("4 bytes")))
    }
}

impl Codec for String {
    fn encode(&self, out: &mut Vec<u8>) {
        put_varint(out, self.len() as u64);
        out.extend_from_slice(self.as_bytes());
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let n = r.length()?;
        let bytes = r.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| CodecError::new("invalid utf-8 in string"))
    }
}

impl Codec for Vec<u8> {
    fn encode(&self, out: &mut Vec<u8>) {
        put_varint(out, self.len() as u64);
        out.extend_from_slice(self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let n = r.length()?;
        Ok(r.take(n)?.to_vec())
    }
}

impl Codec for () {
    fn encode(&self, _out: &mut Vec<u8>) {}
    fn decode(_r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(())
    }
}

impl<T: Codec> Codec for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.byte()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            _ => Err(CodecError::new("invalid option tag")),
        }
    }
}

macro_rules! impl_codec_tuple {
    ($(($($n:ident . $idx:tt),+)),+ $(,)?) => {$(
        impl<$($n: Codec),+> Codec for ($($n,)+) {
            fn encode(&self, out: &mut Vec<u8>) {
                $(self.$idx.encode(out);)+
            }
            fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
                Ok(($($n::decode(r)?,)+))
            }
        }
    )+};
}
impl_codec_tuple!((A.0), (A.0, B.1), (A.0, B.1, C.2), (A.0, B.1, C.2, D.3));

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Codec + PartialEq + std::fmt::Debug>(v: T) {
        let mut buf = Vec::new();
        v.encode(&mut buf);
        let mut r = Reader::new(&buf);
        assert_eq!(T::decode(&mut r).unwrap(), v);
        assert!(r.is_empty(), "decode must consume exactly the encoding");
    }

    #[test]
    fn integer_roundtrips() {
        for v in [0u64, 1, 127, 128, 300, u64::MAX] {
            roundtrip(v);
        }
        for v in [0i64, -1, 1, i64::MIN, i64::MAX] {
            roundtrip(v);
        }
        roundtrip(u128::MAX);
        roundtrip(i128::MIN);
        roundtrip(255u8);
        roundtrip(-128i8);
    }

    #[test]
    fn container_roundtrips() {
        roundtrip(String::from("héllo, wal"));
        roundtrip(vec![0u8, 1, 2, 255]);
        roundtrip((7u64, String::from("k")));
        roundtrip(Some(42u32));
        roundtrip(Option::<u32>::None);
        roundtrip(());
        roundtrip(2.5f64);
    }

    #[test]
    fn truncated_input_is_an_error_not_a_panic() {
        let mut buf = Vec::new();
        String::from("hello").encode(&mut buf);
        for cut in 0..buf.len() {
            let mut r = Reader::new(&buf[..cut]);
            assert!(String::decode(&mut r).is_err());
        }
    }

    #[test]
    fn hostile_length_prefix_is_rejected() {
        // Claims a 2^60-byte string with 2 bytes of payload: must fail
        // fast without trying to allocate.
        let mut buf = Vec::new();
        put_varint(&mut buf, 1 << 60);
        buf.extend_from_slice(b"xy");
        assert!(String::decode(&mut Reader::new(&buf)).is_err());
        assert!(Vec::<u8>::decode(&mut Reader::new(&buf)).is_err());
    }

    #[test]
    fn varint_len_counts_what_put_varint_writes() {
        // both sides of every power of two, so every 7-bit boundary
        let edges = (0..64).flat_map(|b| [(1u64 << b) - 1, 1 << b]);
        for v in edges.chain([u64::MAX]) {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            assert_eq!(varint_len(v), buf.len(), "{v}");
        }
    }

    #[test]
    fn overlong_varint_is_rejected() {
        let buf = [0xffu8; 11];
        assert!(Reader::new(&buf).varint().is_err());
    }
}
