//! Length + checksum framing for on-disk records and wire messages.
//!
//! Every WAL record, checkpoint chunk and `pam-serve` message is written as
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
//! polynomial). The workspace is offline and vendors no checksum crate,
//! so it is computed here: on x86-64 CPUs with `PCLMULQDQ` and SSE4.1,
//! inputs of 64 bytes or more fold 64 bytes per step by carry-less
//! multiplication (Intel's folding method, as zlib does); everything else
//! — short inputs, other CPUs and other targets — uses a slicing-by-8
//! table. Both produce the same checksum, so the choice is the CPU's and
//! never shows in the bytes.
//!
//! Writers build a frame in place ([`open_frame`] … [`OpenFrame::close`]):
//! the header is reserved, the payload encoded straight after it, and the
//! length and CRC patched in at the end — no payload buffer copied into a
//! second frame buffer.

use std::io::{self, Read};

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

/// One byte at a time — the tail of [`crc32_sliced`], and its test
/// reference. `c` is the running (un-inverted) CRC register.
fn crc32_bytewise(mut c: u32, data: &[u8]) -> u32 {
    for &b in data {
        c = CRC_TABLES[0][((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
    }
    c
}

/// Advance the CRC register `c` over `data`, eight bytes per step
/// (slicing-by-8): the path for short inputs and CPUs without `clmul`.
fn crc32_sliced(mut c: u32, data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
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
    crc32_bytewise(c, words.remainder())
}

/// IEEE CRC-32 of `data`: carry-less-multiply folding where the CPU has
/// it and the input is at least 64 bytes, slicing-by-8 otherwise.
pub fn crc32(data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if data.len() >= clmul::MIN_LEN && clmul::available() {
        // SAFETY: `available()` just confirmed the CPU has every feature
        // `clmul::crc32` is compiled for.
        return !unsafe { clmul::crc32(!0, data) };
    }
    !crc32_sliced(!0, data)
}

/// CRC-32 by carry-less multiplication: the folding method of Gopal et
/// al., "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ
/// Instruction" (Intel, 2009), in its bit-reflected form. Four 128-bit
/// lanes fold 64 bytes per step; the lanes then fold into one, which a
/// Barrett reduction brings down to the 32-bit register. The constants
/// are powers of x modulo the IEEE polynomial (the ones zlib and the
/// Linux kernel use).
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_loadu_si128, _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    /// The shortest input worth the setup: one step of four lanes.
    pub(super) const MIN_LEN: usize = 64;

    /// x^(4·128+32) and x^(4·128-32) mod P: fold a lane 64 bytes ahead.
    const K1: i64 = 0x1_5444_2bd4;
    const K2: i64 = 0x1_c6e4_1596;
    /// x^(128+32) and x^(128-32) mod P: fold a lane 16 bytes ahead.
    const K3: i64 = 0x1_7519_97d0;
    const K4: i64 = 0x0_ccaa_009e;
    /// x^64 mod P: fold 96 bits down to 64.
    const K5: i64 = 0x1_63cd_6124;
    /// The polynomial P(x) and the Barrett constant floor(x^64 / P(x)).
    const P_X: i64 = 0x1_db71_0641;
    const U_PRIME: i64 = 0x1_f701_1641;

    /// Whether this CPU can run [`crc32`] (the answer is cached by std).
    pub(super) fn available() -> bool {
        is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1")
    }

    /// Advance the CRC register `crc` over `data` (at least [`MIN_LEN`]
    /// bytes); the bytes past the last whole 16-byte block go through the
    /// table. Call it only where [`available`] holds: it is compiled for
    /// `PCLMULQDQ` and SSE4.1.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) fn crc32(crc: u32, data: &[u8]) -> u32 {
        debug_assert!(data.len() >= MIN_LEN);
        let (blocks, tail) = data.as_chunks::<16>();
        let (first, rest) = blocks.split_at(4);
        let mut lanes = [
            load(&first[0]),
            load(&first[1]),
            load(&first[2]),
            load(&first[3]),
        ];
        lanes[0] = _mm_xor_si128(lanes[0], _mm_cvtsi32_si128(crc as i32));

        let k1k2 = _mm_set_epi64x(K2, K1);
        let mut quads = rest.chunks_exact(4);
        for quad in &mut quads {
            for (lane, block) in lanes.iter_mut().zip(quad) {
                *lane = fold(*lane, load(block), k1k2);
            }
        }

        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut x = fold(lanes[0], lanes[1], k3k4);
        x = fold(x, lanes[2], k3k4);
        x = fold(x, lanes[3], k3k4);
        for block in quads.remainder() {
            x = fold(x, load(block), k3k4);
        }

        // 128 bits down to 64
        let low32 = _mm_set_epi32(0, 0, 0, !0);
        x = _mm_xor_si128(_mm_clmulepi64_si128(x, k3k4, 0x10), _mm_srli_si128(x, 8));
        x = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5), 0x00),
            _mm_srli_si128(x, 4),
        );
        // Barrett reduction, 64 bits down to the 32-bit register (the
        // reflected variant keeps the upper half)
        let pu = _mm_set_epi64x(U_PRIME, P_X);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, low32), pu, 0x10);
        let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), pu, 0x00);
        let c = _mm_extract_epi32(_mm_xor_si128(x, t2), 1) as u32;
        super::crc32_sliced(c, tail)
    }

    /// `a` carried 128 bits ahead (by `keys`), plus `b`.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    fn fold(a: __m128i, b: __m128i, keys: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(a, keys, 0x00);
        let hi = _mm_clmulepi64_si128(a, keys, 0x11);
        _mm_xor_si128(_mm_xor_si128(b, lo), hi)
    }

    #[inline]
    fn load(block: &[u8; 16]) -> __m128i {
        // SAFETY: `block` is 16 readable bytes and `loadu` has no
        // alignment requirement.
        unsafe { _mm_loadu_si128(block.as_ptr().cast()) }
    }
}

/// A frame being built in place at the end of a buffer: opened by
/// [`open_frame`], finished by [`OpenFrame::close`].
#[must_use = "a frame has no length or checksum until it is closed"]
#[derive(Clone, Copy, Debug)]
pub struct OpenFrame {
    /// Where the reserved header starts.
    at: usize,
    /// Bytes reserved after the header for a prefix placed at close.
    room: usize,
}

/// Start a frame at the end of `out`: reserve its header plus `room`
/// bytes for a payload prefix known only once the rest of the payload is
/// written (an entry count, say). Append the payload to `out`, then
/// [`OpenFrame::close`] it.
pub fn open_frame(out: &mut Vec<u8>, room: usize) -> OpenFrame {
    let at = out.len();
    out.resize(at + HEADER_LEN + room, 0);
    OpenFrame { at, room }
}

impl OpenFrame {
    /// Payload bytes appended to `out` since the frame was opened (the
    /// prefix not counted).
    pub fn body_len(&self, out: &[u8]) -> usize {
        out.len() - (self.at + HEADER_LEN + self.room)
    }

    /// Finish the frame, which must end `out`: `prefix` (at most the
    /// reserved room) goes right before the appended payload, the header
    /// right before it, and the CRC covers prefix and payload. Returns
    /// where the frame starts — the open position plus whatever room
    /// `prefix` left unused — so the frame is `out[start..]`; with no room
    /// reserved that is where it was opened.
    pub fn close(self, out: &mut [u8], prefix: &[u8]) -> usize {
        assert!(prefix.len() <= self.room, "frame prefix over its room");
        let start = self.at + self.room - prefix.len();
        let payload = start + HEADER_LEN;
        out[payload..payload + prefix.len()].copy_from_slice(prefix);
        let len = out.len() - payload;
        assert!(len <= MAX_PAYLOAD, "frame payload over MAX_PAYLOAD");
        let crc = crc32(&out[payload..]);
        out[start..start + 4].copy_from_slice(&(len as u32).to_le_bytes());
        out[start + 4..payload].copy_from_slice(&crc.to_le_bytes());
        start
    }
}

/// Append one frame around `payload` to `out`; returns the frame's size.
pub fn put_frame(out: &mut Vec<u8>, payload: &[u8]) -> usize {
    let frame = open_frame(out, 0);
    out.extend_from_slice(payload);
    frame.close(out, &[]);
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
fn read_up_to(r: &mut impl Read, buf: &mut [u8]) -> io::Result<usize> {
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
pub fn read_frame_capped(r: &mut impl Read, cap: usize) -> io::Result<Option<Vec<u8>>> {
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
    // read into spare capacity: no zero fill of bytes about to be read
    let mut payload = Vec::with_capacity(len);
    r.take(len as u64).read_to_end(&mut payload)?;
    if payload.len() < len {
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
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    read_frame_capped(r, MAX_PAYLOAD)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic xorshift bytes for the CRC comparisons.
    fn xorshift(seed: u64) -> impl FnMut() -> u64 {
        let mut x = seed;
        move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        }
    }

    #[test]
    fn crc_known_vectors() {
        // Standard IEEE CRC-32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
    }

    #[test]
    fn sliced_crc_matches_the_bytewise_loop() {
        let mut next = xorshift(0x2545_f491_4f6c_dd1d);
        // every length 0..=64 at every alignment of the 8-byte step
        let buf: Vec<u8> = (0..80).map(|_| next() as u8).collect();
        for start in 0..8 {
            for len in 0..=64 {
                let d = &buf[start..start + len];
                assert_eq!(
                    crc32_sliced(!0, d),
                    crc32_bytewise(!0, d),
                    "start {start} len {len}"
                );
            }
        }
    }

    /// `crc32` — whichever path the CPU picks — against the slicing-by-8
    /// table and the bytewise loop, plus the carry-less-multiply path
    /// called directly where the CPU has it.
    #[test]
    fn crc32_matches_both_table_paths() {
        let check = |d: &[u8], what: &dyn Fn() -> String| {
            let want = !crc32_bytewise(!0, d);
            assert_eq!(!crc32_sliced(!0, d), want, "sliced, {}", what());
            assert_eq!(crc32(d), want, "crc32, {}", what());
            #[cfg(target_arch = "x86_64")]
            if d.len() >= clmul::MIN_LEN && clmul::available() {
                // SAFETY: the CPU was just checked for the features
                let folded = unsafe { clmul::crc32(!0, d) };
                assert_eq!(!folded, want, "clmul, {}", what());
            }
        };
        let mut next = xorshift(0x9e37_79b9_7f4a_7c15);
        // every length 0..=512 at every offset 0..16: every tail length
        // after the 16-byte blocks and every count of 64-byte steps
        // around the cut-over
        let buf: Vec<u8> = (0..512 + 16).map(|_| next() as u8).collect();
        for start in 0..16 {
            for len in 0..=512 {
                check(&buf[start..start + len], &|| {
                    format!("start {start} len {len}")
                });
            }
        }
        // 32 seeded random buffers up to 1 MiB at random offsets
        let big: Vec<u8> = (0..(1 << 20) + 16).map(|_| next() as u8).collect();
        for i in 0..32 {
            let start = next() as usize % 16;
            let len = next() as usize % ((1 << 20) + 1);
            check(&big[start..start + len], &|| {
                format!("buffer {i}: start {start} len {len}")
            });
        }
        check(&big[..1 << 20], &|| "1 MiB".into());
        // a register that is not the initial one carries through the fold
        let ones = [0xffu8; 200];
        check(&ones, &|| "all ones".into());
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
    fn in_place_frames_match_put_frame() {
        let body = b"entries encoded straight after the header";
        for prefix in [&[][..], &[4], &[4, 0x80, 0x80, 1]] {
            let mut payload = prefix.to_vec();
            payload.extend_from_slice(body);
            let mut want = Vec::new();
            put_frame(&mut want, &payload);

            let mut out = Vec::new();
            let frame = open_frame(&mut out, 4);
            out.extend_from_slice(body);
            assert_eq!(frame.body_len(&out), body.len());
            let start = frame.close(&mut out, prefix);
            assert_eq!(start, 4 - prefix.len());
            assert_eq!(&out[start..], &want[..], "prefix {prefix:?}");
        }
        // frames with no room append back to back
        let mut out = b"magic".to_vec();
        let frame = open_frame(&mut out, 0);
        out.extend_from_slice(b"one");
        assert_eq!(frame.close(&mut out, &[]), 5);
        let frame = open_frame(&mut out, 0);
        out.extend_from_slice(b"two");
        frame.close(&mut out, &[]);
        let mut want = b"magic".to_vec();
        put_frame(&mut want, b"one");
        put_frame(&mut want, b"two");
        assert_eq!(out, want);
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
        // every short payload is torn, not a short frame
        for cut in HEADER_LEN..buf.len() {
            let err = read_frame_capped(&mut &buf[..cut], 100).expect_err("torn");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert_eq!(err.to_string(), "torn frame", "cut at {cut}");
        }
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
