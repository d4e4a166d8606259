//! Protocol fuzz: hostile frames against a live server. The contract
//! under attack: every malformed input gets a clean `Response::Err` (or
//! a clean close), the worker never panics, and the store stays healthy
//! and serviceable.

use pam::NoAug;
use pam_serve::wire::{self, read_frame_capped, Response, MAX_FRAME};
use pam_serve::{serve, Client, ServeConfig, Server};
use pam_store::{Bytes, Health, ShardedConfig, Store};
use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

type Spec = NoAug<Bytes, Bytes>;

fn start() -> (Arc<Store<Spec>>, Server, SocketAddr) {
    let store = Arc::new(Store::volatile(
        ShardedConfig::builder()
            .shards(2)
            .batch_window(Duration::ZERO)
            .build(),
    ));
    let server = serve(Arc::clone(&store), "127.0.0.1:0", ServeConfig::default()).unwrap();
    let addr = server.local_addr();
    (store, server, addr)
}

/// Send raw bytes, half-close, and read back whatever the server says.
/// Returns the decoded replies (hostile input earns at most one `Err`).
fn poke(addr: SocketAddr, raw: &[u8]) -> Vec<Response> {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    // the server may reject and close before we finish writing (its
    // prerogative) — a broken pipe here is not a test failure
    let _ = stream.write_all(raw);
    let _ = stream.shutdown(Shutdown::Write);
    let mut replies = Vec::new();
    while let Ok(Some(payload)) = read_frame_capped(&mut stream, MAX_FRAME) {
        match wire::decode_message::<Response>(&payload) {
            Ok(r) => replies.push(r),
            Err(_) => break,
        }
    }
    replies
}

fn expect_err(replies: &[Response], what: &str) {
    assert_eq!(
        replies.len(),
        1,
        "{what}: want exactly one reply, got {replies:?}"
    );
    assert!(
        matches!(&replies[0], Response::Err(_)),
        "{what}: want a clean error reply, got {:?}",
        replies[0]
    );
}

fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    pam_wal::frame::put_frame(&mut out, payload);
    out
}

#[test]
fn hostile_frames_get_clean_errors_and_never_poison_the_store() {
    let (store, _server, addr) = start();

    // truncated length prefix: 3 of the 8 header bytes, then EOF
    expect_err(&poke(addr, &[0x01, 0x02, 0x03]), "truncated header");

    // header promising more payload than ever arrives
    let mut torn = Vec::new();
    torn.extend_from_slice(&100u32.to_le_bytes());
    torn.extend_from_slice(&0u32.to_le_bytes());
    torn.extend_from_slice(&[0xaa; 10]);
    expect_err(&poke(addr, &torn), "torn payload");

    // valid layout, corrupted payload byte → CRC mismatch
    let mut bad_crc = frame(&[1]); // a framed Ping...
    let last = bad_crc.len() - 1;
    bad_crc[last] ^= 0xff; // ...with its payload flipped
    expect_err(&poke(addr, &bad_crc), "bad crc");

    // length prefix far over the server cap (would be 256 MiB)
    let mut huge = Vec::new();
    huge.extend_from_slice(&(256u32 << 20).to_le_bytes());
    huge.extend_from_slice(&0u32.to_le_bytes());
    expect_err(&poke(addr, &huge), "oversized length");

    // well-framed Get whose key length is an oversized varint (11 × 0xff
    // overflows u64 during decode)
    let mut payload = vec![2u8];
    payload.extend_from_slice(&[0xff; 11]);
    expect_err(&poke(addr, &frame(&payload)), "oversized varint");

    // well-framed message with an unknown tag
    expect_err(&poke(addr, &frame(&[99u8])), "unknown tag");

    // well-framed message with trailing garbage after a valid Ping
    expect_err(&poke(addr, &frame(&[1u8, 0xde, 0xad])), "trailing bytes");

    // the server shrugged all of it off: healthy and still serving
    assert_eq!(store.health(), Health::Healthy);
    let mut c = Client::connect(addr).unwrap();
    c.ping().unwrap();
    c.put(b"k", b"v").unwrap();
    assert_eq!(c.get(b"k").unwrap(), Some(b"v".to_vec()));
}

#[test]
fn random_garbage_never_panics_the_server() {
    let (store, _server, addr) = start();

    // deterministic xorshift garbage, varying length and content
    let mut state = 0x9e3779b97f4a7c15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for round in 0..64 {
        let len = (next() % 256) as usize + round;
        let bytes: Vec<u8> = (0..len).map(|_| next() as u8).collect();
        // replies (if any) must decode as protocol responses; mostly we
        // just require the connection to terminate without a hang
        let _ = poke(addr, &bytes);
    }

    assert_eq!(store.health(), Health::Healthy, "garbage must not poison");
    let mut c = Client::connect(addr).unwrap();
    c.put(b"after", b"garbage").unwrap();
    assert_eq!(c.get(b"after").unwrap(), Some(b"garbage".to_vec()));
    assert_eq!(c.len().unwrap(), 1);
}
