//! End-to-end tests: a live server over TCP, real clients, group-commit
//! acks, session pins, and the graceful-drain protocol.

use pam::NoAug;
use pam_serve::{serve, Client, ServeConfig, Server, WireOp};
use pam_store::{Bytes, DurabilityConfig, ShardedConfig, Store};
use std::net::SocketAddr;
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

    // scans come back merged in key order
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
/// puts on both shards, a batch spanning them and a pin are acked with
/// strictly increasing versions, and the pin's epoch is at least every
/// earlier ack.
#[test]
fn acks_and_pins_carry_one_store_wide_version() {
    let store = eager_store(2);
    let (_server, addr) = start(Arc::clone(&store));
    let mut a = Client::connect(addr).unwrap();
    let mut b = Client::connect(addr).unwrap();
    let on_shard = |shard: usize| {
        (0u64..)
            .map(key)
            .find(|k| store.shard_of(&Bytes::from(k.clone())) == shard)
            .unwrap()
    };
    let (k0, k1) = (on_shard(0), on_shard(1));

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
    const SHARDS: usize = 4;
    const ENTRIES: u64 = 50_000;
    const LIMIT: u64 = 10;
    let store = Arc::new(Store::<CountingSpec>::volatile(
        ShardedConfig::builder()
            .shards(SHARDS)
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
            (LIMIT as usize..=LIMIT as usize + SHARDS).contains(&walked),
            "{what}: an open-ended limit-{LIMIT} scan over {ENTRIES} entries walked \
             {walked} of them; the k-way merge needs at most limit + shards"
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
