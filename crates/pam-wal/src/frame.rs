//! Length + checksum framing for on-disk records.
//!
//! Every WAL record and checkpoint chunk is written as
//!
//! ```text
//! [ payload_len : u32 LE ][ crc32(payload) : u32 LE ][ payload ... ]
//! ```
//!
//! which is what makes crash recovery decidable: a reader scanning a file
//! can classify every position as a whole valid frame, a *torn* frame
//! (the file ends before the announced payload does — the signature of a
//! crash mid-append), or a *corrupt* frame (all bytes present, checksum
//! disagrees). The CRC is the standard IEEE CRC-32 (the zlib/Ethernet
//! polynomial), implemented here table-driven (slicing-by-8) because the
//! workspace is offline and vendors no checksum crate.

use std::io;

/// Frame header size: `u32` length + `u32` CRC.
pub const HEADER_LEN: usize = 8;

/// Upper bound on a single payload. Nothing legitimate approaches this
/// (epochs are capped by the store's `max_batch`); its job is to make a
/// garbage length field land in `Corrupt` instead of a 4 GiB read.
pub const MAX_PAYLOAD: usize = 1 << 30;

/// Slicing-by-8 tables for the reflected IEEE polynomial: `[0]` is the
/// classic byte table, `[k][b]` the CRC of byte `b` followed by `k` zero
/// bytes.
const fn make_crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xedb8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static CRC_TABLES: [[u32; 256]; 8] = make_crc_tables();

/// One byte at a time — the tail of [`crc32`], and its test reference.
fn crc32_bytewise(mut c: u32, data: &[u8]) -> u32 {
    for &b in data {
        c = CRC_TABLES[0][((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
    }
    c
}

/// IEEE CRC-32 of `data`, eight bytes per step (slicing-by-8).
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xffff_ffffu32;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = t[7][(lo & 0xff) as usize]
            ^ t[6][((lo >> 8) & 0xff) as usize]
            ^ t[5][((lo >> 16) & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xff) as usize]
            ^ t[2][((hi >> 8) & 0xff) as usize]
            ^ t[1][((hi >> 16) & 0xff) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    !crc32_bytewise(c, words.remainder())
}

/// Append one frame around `payload` to `out`; returns the frame's size.
pub fn put_frame(out: &mut Vec<u8>, payload: &[u8]) -> usize {
    debug_assert!(payload.len() <= MAX_PAYLOAD);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    HEADER_LEN + payload.len()
}

/// One step of a frame scan over `buf` (see [`next_frame`]).
#[derive(Debug, PartialEq, Eq)]
pub enum Frame<'a> {
    /// A whole, checksum-valid frame: its payload and total on-disk size.
    Ok {
        /// The verified payload bytes.
        payload: &'a [u8],
        /// Header + payload bytes consumed from the input.
        consumed: usize,
    },
    /// The buffer ends mid-frame — a torn tail from a crash mid-append.
    Torn,
    /// All announced bytes are present but the checksum (or the length
    /// field itself) is invalid.
    Corrupt,
}

/// Classify the frame starting at the beginning of `buf`.
///
/// An empty `buf` is *not* a frame state — callers check for end-of-input
/// first.
pub fn next_frame(buf: &[u8]) -> Frame<'_> {
    if buf.len() < HEADER_LEN {
        return Frame::Torn;
    }
    let len = le32(buf, 0) as usize;
    if len > MAX_PAYLOAD {
        return Frame::Corrupt;
    }
    let want = le32(buf, 4);
    let Some(payload) = buf.get(HEADER_LEN..HEADER_LEN + len) else {
        return Frame::Torn;
    };
    if crc32(payload) != want {
        return Frame::Corrupt;
    }
    Frame::Ok {
        payload,
        consumed: HEADER_LEN + len,
    }
}

/// Infallible little-endian `u32` at `buf[at..at + 4]` (caller
/// guarantees the bounds, checked above in every use).
fn le32(buf: &[u8], at: usize) -> u32 {
    u32::from_le_bytes([buf[at], buf[at + 1], buf[at + 2], buf[at + 3]])
}

/// Fill `buf` from `r`, returning how many bytes were available. Unlike
/// `read_exact`, a short read is reported as a count — the caller can
/// tell a clean end-of-file (0 bytes) from a torn tail (some bytes) —
/// and genuine I/O errors pass through untouched.
fn read_up_to(r: &mut impl io::Read, buf: &mut [u8]) -> io::Result<usize> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(filled)
}

/// Stream one frame out of `r`, enforcing `cap` on the announced payload
/// length **before allocating** — the reader for input that may be
/// hostile (network peers) or oversized (damaged files). `Ok(None)` at a
/// clean end-of-input at a frame boundary.
///
/// This is the reader every frame consumer outside pam-wal should use
/// (`pam-lint` flags direct [`read_frame`] calls elsewhere); pick the
/// cap to match what the peer is allowed to send, e.g. pam-serve's
/// 16 MiB wire limit vs [`MAX_PAYLOAD`] for trusted local files.
///
/// # Errors
///
/// `InvalidData` for a torn header ("torn frame header"), over-cap
/// length ("frame length over limit"), truncated payload ("torn frame"),
/// or CRC mismatch ("bad frame crc"). Real I/O errors (e.g. `EIO`) keep
/// their kind — they mean a failing device, not a corrupt file, and
/// callers with fallback-on-corruption logic (checkpoint loading) must
/// be able to tell the two apart.
pub fn read_frame_capped(r: &mut impl io::Read, cap: usize) -> io::Result<Option<Vec<u8>>> {
    let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg);
    let mut header = [0u8; HEADER_LEN];
    match read_up_to(r, &mut header)? {
        0 => return Ok(None),
        n if n < header.len() => return Err(bad("torn frame header")),
        _ => {}
    }
    let len = le32(&header, 0) as usize;
    if len > cap {
        return Err(bad("frame length over limit"));
    }
    let want = le32(&header, 4);
    let mut payload = vec![0u8; len];
    if read_up_to(r, &mut payload)? < len {
        return Err(bad("torn frame"));
    }
    if crc32(&payload) != want {
        return Err(bad("bad frame crc"));
    }
    Ok(Some(payload))
}

/// Stream one frame out of `r` (the incremental sibling of
/// [`next_frame`], same `[len | crc | payload]` validation), trusting
/// the length field up to [`MAX_PAYLOAD`]. **WAL-internal**: anything
/// reading frames from a network peer or a file of unknown provenance
/// must call [`read_frame_capped`] with an appropriate cap instead —
/// `pam-lint` enforces this outside pam-wal.
///
/// # Errors
///
/// As for [`read_frame_capped`] with a [`MAX_PAYLOAD`] cap.
pub fn read_frame(r: &mut impl io::Read) -> io::Result<Option<Vec<u8>>> {
    read_frame_capped(r, MAX_PAYLOAD)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc_known_vectors() {
        // Standard IEEE CRC-32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
    }

    #[test]
    fn sliced_crc_matches_the_bytewise_loop() {
        let bytewise = |d: &[u8]| !crc32_bytewise(0xffff_ffff, d);
        let mut x = 0x2545_f491_4f6c_dd1d_u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        // every length 0..=64 at every alignment of the 8-byte step
        let buf: Vec<u8> = (0..80).map(|_| next() as u8).collect();
        for start in 0..8 {
            for len in 0..=64 {
                let d = &buf[start..start + len];
                assert_eq!(crc32(d), bytewise(d), "start {start} len {len}");
            }
        }
        // seeded random buffers up to 1 MiB, random offsets
        let big: Vec<u8> = (0..(1 << 20) + 8).map(|_| next() as u8).collect();
        for _ in 0..24 {
            let start = next() as usize % 8;
            let len = next() as usize % ((1 << 20) + 1);
            let d = &big[start..start + len];
            assert_eq!(crc32(d), bytewise(d), "start {start} len {len}");
        }
        assert_eq!(crc32(&big[..1 << 20]), bytewise(&big[..1 << 20]));
    }

    #[test]
    fn frame_roundtrip() {
        let mut buf = Vec::new();
        let n = put_frame(&mut buf, b"hello");
        assert_eq!(n, buf.len());
        match next_frame(&buf) {
            Frame::Ok { payload, consumed } => {
                assert_eq!(payload, b"hello");
                assert_eq!(consumed, n);
            }
            other => panic!("expected Ok, got {other:?}"),
        }
    }

    #[test]
    fn capped_reader_rejects_before_allocating() {
        let mut buf = Vec::new();
        put_frame(&mut buf, &[7u8; 100]);
        // under the cap: round-trips
        let got = read_frame_capped(&mut &buf[..], 100).expect("frame ok");
        assert_eq!(got.as_deref(), Some(&[7u8; 100][..]));
        // over the cap: rejected on the header, payload never read
        let err = read_frame_capped(&mut &buf[..], 99).expect_err("over cap");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("frame length over limit"));
        // clean EOF at a frame boundary
        assert!(read_frame_capped(&mut &[][..], 99).expect("eof").is_none());
        // uncapped alias trusts up to MAX_PAYLOAD
        let got = read_frame(&mut &buf[..]).expect("frame ok");
        assert_eq!(got.map(|p| p.len()), Some(100));
    }

    #[test]
    fn torn_and_corrupt_are_distinguished() {
        let mut buf = Vec::new();
        put_frame(&mut buf, b"payload bytes");
        // every strict prefix is torn
        for cut in 0..buf.len() {
            assert_eq!(next_frame(&buf[..cut]), Frame::Torn, "cut at {cut}");
        }
        // a flipped payload bit is corrupt
        let mut bad = buf.clone();
        *bad.last_mut().unwrap() ^= 1;
        assert_eq!(next_frame(&bad), Frame::Corrupt);
        // an absurd length field is corrupt, not a huge read
        let mut hostile = ((MAX_PAYLOAD + 1) as u32).to_le_bytes().to_vec();
        hostile.extend_from_slice(&[0u8; 12]);
        assert_eq!(next_frame(&hostile), Frame::Corrupt);
    }
}
