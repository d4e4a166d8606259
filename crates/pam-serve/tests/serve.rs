//! End-to-end tests: a live server over TCP, real clients, group-commit
//! acks, session pins, and the graceful-drain protocol.

use pam::NoAug;
use pam_serve::wire::{write_message, MAX_FRAME, MAX_SCAN};
use pam_serve::{serve, Client, Request, Response, ServeConfig, Server, WireOp};
use pam_store::{Bytes, DurabilityConfig, ShardedConfig, Snapshot, Store};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

type Spec = NoAug<Bytes, Bytes>;

fn eager_store(shards: usize) -> Arc<Store<Spec>> {
    Arc::new(Store::volatile(
        ShardedConfig::builder()
            .shards(shards)
            .batch_window(Duration::ZERO)
            .build(),
    ))
}

fn start<S>(store: Arc<Store<S>>) -> (Server, SocketAddr)
where
    S: pam::AugSpec<K = Bytes, V = Bytes>,
{
    let server = serve(store, "127.0.0.1:0", ServeConfig::default()).expect("bind");
    let addr = server.local_addr();
    (server, addr)
}

fn key(i: u64) -> Vec<u8> {
    i.to_be_bytes().to_vec()
}

#[test]
fn puts_gets_batches_and_scans_round_trip() {
    let store = eager_store(4);
    let (_server, addr) = start(Arc::clone(&store));
    let mut c = Client::connect(addr).unwrap();

    c.ping().unwrap();
    assert_eq!(c.len().unwrap(), 0);
    assert_eq!(c.get(b"missing").unwrap(), None);

    let ack = c.put(&key(1), b"one").unwrap();
    assert!(ack.version >= 1);
    assert_eq!(ack.global_epoch, None, "a put's ack names only its version");
    assert_eq!(c.get(&key(1)).unwrap(), Some(b"one".to_vec()));

    // a batch's ack also carries the epoch it committed in: its version
    let ops: Vec<WireOp> = (10..42)
        .map(|i| WireOp::Put(key(i), format!("v{i}").into_bytes()))
        .collect();
    let ack = c.batch(ops).unwrap();
    assert_eq!(ack.global_epoch, Some(ack.version));
    assert_eq!(c.len().unwrap(), 33);

    assert_eq!(
        c.get_many(&[key(10), key(999), key(41)]).unwrap(),
        vec![Some(b"v10".to_vec()), None, Some(b"v41".to_vec())]
    );

    // scans come back in key order
    let entries = c.scan(&key(0), &key(u64::MAX), 1 << 16).unwrap();
    assert_eq!(entries.len(), 33);
    assert!(entries.windows(2).all(|w| w[0].0 < w[1].0));
    let limited = c.scan(&key(0), &key(u64::MAX), 5).unwrap();
    assert_eq!(limited.len(), 5);

    c.delete(&key(1)).unwrap();
    assert_eq!(c.get(&key(1)).unwrap(), None);
    assert_eq!(c.len().unwrap(), 32);

    // mixed batch: put + delete atomically
    c.batch(vec![
        WireOp::Put(key(100), b"hundred".to_vec()),
        WireOp::Delete(key(10)),
    ])
    .unwrap();
    assert_eq!(c.get(&key(100)).unwrap(), Some(b"hundred".to_vec()));
    assert_eq!(c.get(&key(10)).unwrap(), None);
}

/// Acks and pins name one store-wide version: over two connections,
/// puts on two keys, a batch over both and a pin are acked with strictly
/// increasing versions, and the pin's epoch is at least every earlier
/// ack.
#[test]
fn acks_and_pins_carry_one_store_wide_version() {
    let store = eager_store(2);
    let (_server, addr) = start(Arc::clone(&store));
    let mut a = Client::connect(addr).unwrap();
    let mut b = Client::connect(addr).unwrap();
    let (k0, k1) = (key(0), key(1));

    let mut acks = Vec::new();
    for round in 0..8u8 {
        acks.push(a.put(&k0, &[round]).unwrap().version);
        acks.push(b.put(&k1, &[round]).unwrap().version);
        acks.push(a.delete(&k1).unwrap().version);
    }
    let batch = b
        .batch(vec![
            WireOp::Put(k0.clone(), b"batch".to_vec()),
            WireOp::Put(k1.clone(), b"batch".to_vec()),
        ])
        .unwrap();
    assert_eq!(batch.global_epoch, Some(batch.version));
    acks.push(batch.version);
    assert!(
        acks.windows(2).all(|w| w[0] < w[1]),
        "acked versions in ack order: {acks:?}"
    );
    let pinned = a.pin("cut").unwrap();
    assert!(
        acks.iter().all(|&v| pinned >= v),
        "pin at {pinned} is older than an earlier ack: {acks:?}"
    );
    assert_eq!(a.get(&k1).unwrap(), Some(b"batch".to_vec()));
}

#[test]
fn named_pins_freeze_reads_until_release() {
    let store = eager_store(2);
    let (_server, addr) = start(Arc::clone(&store));
    let mut writer = Client::connect(addr).unwrap();
    let mut reader = Client::connect(addr).unwrap();

    writer.put(b"k", b"v1").unwrap();
    let epoch = writer.pin("cut").unwrap();

    // another session joins the same named snapshot
    assert_eq!(reader.use_pin("cut").unwrap(), epoch);

    // gets, multi-gets and scans all read the pinned cut
    let reads_v1 = |reader: &mut Client, after: &str| {
        assert_eq!(reader.get(b"k").unwrap(), Some(b"v1".to_vec()), "{after}");
        assert_eq!(reader.len().unwrap(), 1, "{after}");
        assert_eq!(
            reader.get_many(&[b"k".to_vec()]).unwrap(),
            vec![Some(b"v1".to_vec())],
            "{after}"
        );
        assert_eq!(
            reader.scan(b"", b"\xff\xff", 100).unwrap(),
            vec![(b"k".to_vec(), b"v1".to_vec())],
            "{after}"
        );
    };

    // the live store moves on; both pinned sessions keep the old view.
    // Versions share entry buffers, so the pinned `v1` must outlive
    // every way the live entry can be replaced.
    writer.release().unwrap();
    writer.put(b"k", b"v2").unwrap();
    assert_eq!(writer.get(b"k").unwrap(), Some(b"v2".to_vec()));
    reads_v1(&mut reader, "a same-length overwrite");
    writer.put(b"k", b"a longer third value").unwrap();
    reads_v1(&mut reader, "an overwrite of another length");
    writer.delete(b"k").unwrap();
    assert_eq!(writer.get(b"k").unwrap(), None);
    reads_v1(&mut reader, "a delete");
    writer.put(b"k", b"v2").unwrap();

    // releasing returns the session to the live store
    reader.release().unwrap();
    assert_eq!(reader.get(b"k").unwrap(), Some(b"v2".to_vec()));

    // unpin drops the name; rejoining fails cleanly
    writer.unpin("cut").unwrap();
    assert!(reader.use_pin("cut").is_err());
    assert!(writer.unpin("cut").is_err(), "double unpin is an error");
    assert!(
        reader.ping().is_ok(),
        "error replies keep the session alive"
    );
}

#[test]
fn the_pin_table_is_bounded() {
    use pam_serve::server::MAX_PINS;
    let store = eager_store(1);
    let (_server, addr) = start(Arc::clone(&store));
    let mut filler = Client::connect(addr).unwrap();
    let mut late = Client::connect(addr).unwrap();

    filler.put(b"k", b"v1").unwrap();
    for i in 0..MAX_PINS {
        filler.pin(&format!("p{i}")).unwrap();
    }
    filler.release().unwrap();
    filler.put(b"k", b"v2").unwrap();

    // a fresh name past the cap is refused and pins nothing
    let err = late.pin("one-too-many").unwrap_err();
    assert!(err.to_string().contains("too many pins"), "{err}");
    assert!(late.use_pin("one-too-many").is_err());
    assert_eq!(late.get(b"k").unwrap(), Some(b"v2".to_vec()));

    // an existing name is replaced, not added
    late.pin("p0").unwrap();
    filler.put(b"k", b"v3").unwrap();
    assert_eq!(late.get(b"k").unwrap(), Some(b"v2".to_vec()));

    // unpinning makes room again
    filler.unpin("p1").unwrap();
    late.pin("one-too-many").unwrap();
    assert_eq!(late.get(b"k").unwrap(), Some(b"v3".to_vec()));
}

#[test]
fn concurrent_clients_coalesce_into_the_group_commit_pipeline() {
    let store = Arc::new(Store::<Spec>::volatile(
        ShardedConfig::builder()
            .shards(2)
            .batch_window(Duration::from_micros(200))
            .build(),
    ));
    let (_server, addr) = start(Arc::clone(&store));

    let threads: Vec<_> = (0..4u64)
        .map(|t| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                for i in 0..50u64 {
                    let k = key(t * 1000 + i);
                    let ack = c.put(&k, b"x").unwrap();
                    assert!(ack.version >= 1);
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }

    let mut c = Client::connect(addr).unwrap();
    assert_eq!(c.len().unwrap(), 200, "every acked put is published");
    // acks rode the pipeline: commits can never exceed raw ops, and the
    // stats surface proves the writes flowed through it
    let stats = store.stats();
    assert_eq!(stats.raw_ops, 200);
    assert!(stats.commits <= stats.raw_ops);
}

#[test]
fn drain_stops_accepting_and_flushes_acked_writes() {
    let dir = std::env::temp_dir().join(format!("pam-serve-drain-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let open = || {
        Store::<Spec>::open(
            &dir,
            ShardedConfig::builder()
                .shards(2)
                .batch_window(Duration::ZERO)
                .build(),
            DurabilityConfig::default(),
        )
        .expect("open durable store")
    };

    let store = Arc::new(open());
    let mut server = serve(Arc::clone(&store), "127.0.0.1:0", ServeConfig::default()).unwrap();
    let addr = server.local_addr();

    let mut c = Client::connect(addr).unwrap();
    for i in 0..100u64 {
        c.put(&key(i), format!("v{i}").as_bytes()).unwrap();
    }

    // graceful drain: existing session dies cleanly, new connections are
    // refused, every acked epoch is flushed
    server.drain();
    assert!(c.ping().is_err(), "drained server closes the session");
    assert!(
        Client::connect(addr).and_then(|mut c| c.ping()).is_err(),
        "drained server accepts no new connections"
    );
    drop(server);
    drop(c);
    drop(store);

    let store = open();
    assert_eq!(store.len(), 100);
    for i in 0..100u64 {
        assert_eq!(
            store.get(&key(i).into()),
            Some(format!("v{i}").into_bytes().into()),
            "acked write {i} must survive a graceful drain"
        );
    }
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A plain byte-keyed map that counts key comparisons against [`HI`].
/// A range iterator compares each entry it pulls with the scan's upper
/// bound exactly once, and nothing else on the scan path compares with
/// it, so with `HI` as the bound the counter is the number of entries a
/// scan walked — observed from outside, through the real wire path.
struct CountingSpec;

/// Above every 8-byte key.
const HI: &[u8] = &[0xff; 9];
static HI_COMPARES: AtomicUsize = AtomicUsize::new(0);

impl pam::AugSpec for CountingSpec {
    type K = Bytes;
    type V = Bytes;
    type A = ();
    fn compare(a: &Bytes, b: &Bytes) -> std::cmp::Ordering {
        if **a == *HI || **b == *HI {
            HI_COMPARES.fetch_add(1, Ordering::Relaxed);
        }
        a.cmp(b)
    }
    fn identity() {}
    fn base(_: &Bytes, _: &Bytes) {}
    fn combine(_: &(), _: &()) {}
}

#[test]
fn scan_with_a_limit_stops_walking_at_the_limit() {
    const ENTRIES: u64 = 50_000;
    const LIMIT: u64 = 10;
    let store = Arc::new(Store::<CountingSpec>::volatile(
        ShardedConfig::builder()
            .shards(4)
            .batch_window(Duration::ZERO)
            .build(),
    ));
    store
        .put_all((0..ENTRIES).map(|i| (key(i).into(), Bytes::from(&b"v"[..]))))
        .wait();
    let (_server, addr) = start(Arc::clone(&store));
    let mut c = Client::connect(addr).unwrap();
    assert_eq!(c.len().unwrap(), ENTRIES);

    let first: Vec<Vec<u8>> = (0..LIMIT).map(key).collect();
    let scan_and_count = |c: &mut Client, what: &str| {
        HI_COMPARES.store(0, Ordering::Relaxed);
        let got = c.scan(&key(0), HI, LIMIT).unwrap();
        let walked = HI_COMPARES.load(Ordering::Relaxed);
        let keys: Vec<Vec<u8>> = got.into_iter().map(|(k, _)| k).collect();
        assert_eq!(keys, first, "{what}");
        assert!(
            (LIMIT as usize..=LIMIT as usize + 1).contains(&walked),
            "{what}: an open-ended limit-{LIMIT} scan over {ENTRIES} entries walked \
             {walked} of them; one cursor needs at most limit + 1"
        );
    };
    scan_and_count(&mut c, "live scan");
    // the same bound through a pinned session's snapshot
    c.pin("cut").unwrap();
    scan_and_count(&mut c, "pinned scan");
    // limit 0 walks nothing at all
    HI_COMPARES.store(0, Ordering::Relaxed);
    assert_eq!(c.scan(&key(0), HI, 0).unwrap(), vec![]);
    assert_eq!(HI_COMPARES.load(Ordering::Relaxed), 0);
}

/// After a reply the worker polls for the next request without blocking,
/// then goes back to a blocking read: a client that pauses past that
/// window, or between the bytes of a request, is still served.
#[test]
fn a_paused_client_is_still_served() {
    let store = eager_store(1);
    let (_server, addr) = start(Arc::clone(&store));
    let mut c = Client::connect(addr).unwrap();
    c.put(b"k", b"v").unwrap();
    for pause_us in [0, 30, 200, 5_000] {
        std::thread::sleep(Duration::from_micros(pause_us));
        assert_eq!(c.get(b"k").unwrap(), Some(b"v".to_vec()), "{pause_us} µs");
    }
    // a request split across two writes with a pause between them
    let mut raw = TcpStream::connect(addr).unwrap();
    let mut frame = Vec::new();
    write_message(&mut frame, &Request::Get(b"k".to_vec())).unwrap();
    for _ in 0..2 {
        raw.write_all(&frame[..3]).unwrap();
        std::thread::sleep(Duration::from_millis(2));
        raw.write_all(&frame[3..]).unwrap();
        let reply = raw_reply_frame(&mut raw);
        assert_eq!(decode(&reply), Response::Value(Some(b"v".to_vec())));
    }
}

/// A reply the client's `MAX_FRAME` cap would refuse is never sent: a
/// scan that would outgrow it comes back as the range's first entries,
/// exactly as with a smaller `limit`, and a multi-get that would is an
/// `Err`. Either way the connection stays in step and keeps serving.
#[test]
fn replies_stay_under_the_frame_limit() {
    let store = eager_store(2);
    let (_server, addr) = start(Arc::clone(&store));
    let mut c = Client::connect(addr).unwrap();
    let big = vec![0xabu8; 9 << 20];
    c.put(&key(1), &big).unwrap();
    c.put(&key(2), &big).unwrap();
    c.put(&key(3), b"small").unwrap();

    // (key, value length) pairs: a failed comparison prints no 9 MiB vec
    let shape = |entries: Vec<(Vec<u8>, Vec<u8>)>| {
        assert!(entries.iter().all(|(_, v)| v[0] == 0xab || v == b"small"));
        entries
            .into_iter()
            .map(|(k, v)| (k, v.len()))
            .collect::<Vec<_>>()
    };
    let big_len = big.len();

    // two 9 MiB entries make an 18 MiB reply: the scan stops before the
    // second, the entry that would push it over
    let got = c.scan(&key(0), &key(9), 2).unwrap();
    assert_eq!(shape(got), vec![(key(1), big_len)]);
    c.ping().unwrap();
    // a scan starting at that entry walks on from there
    let got = c.scan(&key(2), &key(9), 10).unwrap();
    assert_eq!(shape(got), vec![(key(2), big_len), (key(3), 5)]);

    let err = c.get_many(&[key(1), key(2)]).unwrap_err();
    assert!(err.to_string().contains("frame limit"), "{err}");
    c.ping().unwrap();
    // repeated keys count too
    assert!(c.get_many(&[key(1), key(1)]).is_err());
    let got = c.get_many(&[key(1), key(3)]).unwrap();
    assert!(got == vec![Some(big.clone()), Some(b"small".to_vec())]);
    assert!(c.get(&key(2)).unwrap() == Some(big));
    c.ping().unwrap();
}

/// Send `req` on a raw connection and return the reply frame's bytes,
/// header included, as they came off the socket.
fn raw_reply(stream: &mut TcpStream, req: &Request) -> Vec<u8> {
    write_message(stream, req).unwrap();
    raw_reply_frame(stream)
}

/// Read one reply frame off a raw connection, header included.
fn raw_reply_frame(stream: &mut TcpStream) -> Vec<u8> {
    let mut frame = vec![0u8; 8];
    stream.read_exact(&mut frame).unwrap();
    let len = u32::from_le_bytes(frame[..4].try_into().unwrap()) as usize;
    assert!(len <= MAX_FRAME);
    frame.resize(8 + len, 0);
    stream.read_exact(&mut frame[8..]).unwrap();
    frame
}

/// The server encodes a scan straight from the snapshot into its reply
/// buffer; the frame must be byte for byte what the `Response` codec
/// writes for the same entries, live and from a pinned session.
#[test]
fn scan_frames_are_byte_identical_to_the_entries_encoder() {
    let store = eager_store(4);
    let n = MAX_SCAN + 100;
    store
        .put_all((0..n).map(|i| {
            (
                key(i).into(),
                Bytes::from(&i.to_le_bytes()[..(i % 9) as usize]),
            )
        }))
        .wait();
    // an empty key and value, and values at the varint length boundaries
    store
        .put(Bytes::from(&b""[..]), Bytes::from(&b""[..]))
        .wait();
    for (i, len) in [127usize, 128, 16_383, 16_384].into_iter().enumerate() {
        store
            .put(
                Bytes::from(vec![0xfe, i as u8]),
                Bytes::from(vec![i as u8; len]),
            )
            .wait();
    }
    let (_server, addr) = start(Arc::clone(&store));
    let mut stream = TcpStream::connect(addr).unwrap();

    let all = (Vec::new(), vec![0xff; 9]);
    let mut cases: Vec<(Vec<u8>, Vec<u8>, u64)> = [0, 1, 127, 128, 129, MAX_SCAN + 1]
        .into_iter()
        .map(|limit| (all.0.clone(), all.1.clone(), limit))
        .collect();
    cases.extend([
        (vec![0xff, 0xff], vec![0xff, 0xff, 0xff], 10), // empty: past every key
        (key(9), key(3), 10),                           // empty: lo > hi
        (key(5), key(5), 10),                           // one entry
        (key(10), key(20), 100),                        // ends before the limit
        (vec![], vec![], 3),                            // the empty key alone
        (vec![0xfe], vec![0xff], 10),                   // the boundary values
        (vec![0xfe, 1], vec![0xfe, 2], 1),              // limit mid-range
    ]);
    let check = |stream: &mut TcpStream, snap: &Snapshot<Spec>, what: &str| {
        for (lo, hi, limit) in &cases {
            let entries: Vec<(Vec<u8>, Vec<u8>)> = snap
                .range(&Bytes::from(lo.clone()), &Bytes::from(hi.clone()))
                .into_iter()
                .take((*limit).min(MAX_SCAN) as usize)
                .map(|(k, v)| (k.to_vec(), v.to_vec()))
                .collect();
            let mut want = Vec::new();
            write_message(&mut want, &Response::Entries(entries)).unwrap();
            let req = Request::Scan {
                lo: lo.clone(),
                hi: hi.clone(),
                limit: *limit,
            };
            let got = raw_reply(stream, &req);
            assert!(
                got == want,
                "{what}: scan [{lo:?}, {hi:?}] limit {limit}: {} bytes, want {}",
                got.len(),
                want.len()
            );
        }
    };
    check(&mut stream, &store.snapshot(), "live");

    // pin, then move the live store on: the session reads the pinned cut
    let snap = store.snapshot();
    let Response::Pinned(version) = decode(&raw_reply(&mut stream, &Request::Pin("cut".into())))
    else {
        panic!("pin refused")
    };
    assert_eq!(version, snap.version());
    store.delete(key(5).into()).wait();
    store
        .put(Bytes::from(vec![0xfe, 0]), Bytes::from(vec![7u8; 300]))
        .wait();
    check(&mut stream, &snap, "pinned");

    raw_reply(&mut stream, &Request::Release);
    check(&mut stream, &store.snapshot(), "live after the pin");
}

fn decode(frame: &[u8]) -> Response {
    pam_serve::wire::decode_message(&frame[8..]).unwrap()
}
