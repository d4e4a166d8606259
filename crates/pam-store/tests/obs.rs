//! Integration tests for the live-telemetry surface: a durable `Store`
//! (1 checkpoint file, then 4) scraped over a raw `TcpStream`, the poison path
//! surfacing its reason through `health()` and the store's own
//! `/health`, and — in a re-executed child process, mirroring
//! `recovery.rs` — the flight recorder dumping `flight-<pid>.json` into
//! the store directory when a WAL append fails.
//!
//! A real append failure needs no fault-injection seam: a file planted
//! where the log's next segment must go makes the WAL's `create_new`
//! fail with `AlreadyExists`.

use pam::{NoAug, SumAug};
use pam_obs::json::Json;
use pam_obs::Health;
use pam_store::{Codec, DurabilityConfig, ShardedConfig, Store, SyncPolicy};
use pam_wal::{CodecError, Reader};
use std::fs;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

type Spec = SumAug<u64, u64>;

fn eager(shards: usize) -> ShardedConfig {
    ShardedConfig {
        shards,
        batch_window: Duration::ZERO,
        ..ShardedConfig::default()
    }
}

fn fresh_dir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("pam-obs-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&d);
    d
}

fn with_obs() -> DurabilityConfig {
    DurabilityConfig {
        obs_addr: Some("127.0.0.1:0".into()),
        ..DurabilityConfig::default()
    }
}

/// Minimal HTTP/1.0 GET over a raw socket; returns (status, body).
fn http_get(addr: SocketAddr, path: &str) -> (u16, String) {
    let mut s = TcpStream::connect(addr).expect("connect to obs server");
    write!(s, "GET {path} HTTP/1.0\r\nHost: test\r\n\r\n").unwrap();
    let mut raw = String::new();
    s.read_to_string(&mut raw).expect("read response");
    let (head, body) = raw.split_once("\r\n\r\n").expect("header/body split");
    let code = head
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .expect("status code");
    (code, body.to_string())
}

/// Every non-comment Prometheus line must be `name[{labels}] value`
/// with a parseable float value.
fn assert_prometheus_shape(body: &str) {
    for line in body
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
    {
        let (name, value) = line.rsplit_once(' ').unwrap_or_else(|| {
            panic!("prometheus line has no value: {line:?}");
        });
        assert!(!name.is_empty(), "empty metric name in {line:?}");
        assert!(
            value.parse::<f64>().is_ok(),
            "unparseable value in {line:?}"
        );
    }
}

#[test]
fn obs_endpoints_serve_live_store() {
    let dir = fresh_dir("live");
    let store: Store<Spec> = Store::open(&dir, eager(1), with_obs()).expect("open with obs_addr");
    let addr = store.obs_addr().expect("obs server bound");
    for e in 1..=50u64 {
        store.put(e, e * 2).wait();
    }

    // /metrics: canonical pam_* names, parseable Prometheus text.
    let (code, prom) = http_get(addr, "/metrics");
    assert_eq!(code, 200);
    assert_prometheus_shape(&prom);
    for name in [
        "pam_commits_total",
        "pam_commits_by_writer_total",
        "pam_raw_ops_total",
        "pam_applied_ops_total",
        "pam_commit_nanos",
        "pam_wal_records_total",
        "pam_wal_fsyncs_total",
        "pam_live_versions",
    ] {
        assert!(prom.contains(name), "/metrics missing {name}:\n{prom}");
    }

    // /metrics.json: valid JSON with the registry's three sections and
    // a live commit counter matching what we just did.
    let (code, mj) = http_get(addr, "/metrics.json");
    assert_eq!(code, 200);
    let v = Json::parse(&mj).expect("/metrics.json parses");
    let commits = v
        .get("counters")
        .and_then(|c| c.get("pam_commits_total"))
        .and_then(Json::as_f64)
        .expect("counters.pam_commits_total");
    assert!(commits >= 50.0, "expected >= 50 commits, saw {commits}");
    assert!(v.get("gauges").is_some() && v.get("histograms").is_some());

    // /health: healthy while nothing is wrong.
    let (code, hj) = http_get(addr, "/health");
    assert_eq!(code, 200);
    let h = Json::parse(&hj).expect("/health parses");
    assert_eq!(h.get("status").and_then(Json::as_str), Some("healthy"));

    // /trace: chrome trace-event JSON; this store's committer recorded
    // its epochs into the global flight ring.
    let (code, tj) = http_get(addr, "/trace");
    assert_eq!(code, 200);
    let t = Json::parse(&tj).expect("/trace parses");
    assert!(
        !t.get("traceEvents")
            .and_then(Json::as_arr)
            .expect("traceEvents array")
            .is_empty(),
        "trace should contain epoch slices"
    );

    // /events: the recent-event ring renders as a JSON array.
    let (code, ev) = http_get(addr, "/events");
    assert_eq!(code, 200);
    assert!(
        Json::parse(&ev).expect("/events parses").as_arr().is_some(),
        "/events must be a JSON array"
    );

    // Unknown paths 404.
    let (code, _) = http_get(addr, "/nope");
    assert_eq!(code, 404);

    drop(store);
    fs::remove_dir_all(&dir).unwrap();
}

/// `pam_wal_fsyncs_total` counts every fsync the log issues — the one
/// after an append and the one sealing a rotated segment alike — so it
/// reads the count of `pam_wal_fsync_nanos` under either policy.
#[test]
fn the_fsync_counter_is_the_fsync_histograms_count() {
    for sync in [SyncPolicy::NoSync, SyncPolicy::SyncEachEpoch] {
        let dir = fresh_dir(&format!("fsyncs-{sync:?}"));
        let durability = DurabilityConfig {
            sync,
            segment_bytes: 128, // rotate every ten epochs
            checkpoint_every_bytes: None,
            ..with_obs()
        };
        let store: Store<Spec> = Store::open(&dir, eager(1), durability).expect("open");
        for e in 1..=60u64 {
            store.put(e, e).wait();
        }
        let d = store.stats().durability;
        assert!(d.wal_rotations > 3, "{sync:?}: tiny segments must rotate");
        let per_append = if sync == SyncPolicy::SyncEachEpoch {
            d.wal_records
        } else {
            0
        };
        assert_eq!(d.wal_fsyncs, d.wal_rotations + per_append, "{sync:?}");

        let (code, mj) = http_get(store.obs_addr().expect("obs bound"), "/metrics.json");
        assert_eq!(code, 200);
        let v = Json::parse(&mj).expect("/metrics.json parses");
        let total = v
            .get("counters")
            .and_then(|c| c.get("pam_wal_fsyncs_total"))
            .and_then(Json::as_f64)
            .expect("counters.pam_wal_fsyncs_total");
        let timed = v
            .get("histograms")
            .and_then(|h| h.get("pam_wal_fsync_nanos"))
            .and_then(|h| h.get("count"))
            .and_then(Json::as_f64)
            .expect("histograms.pam_wal_fsync_nanos.count");
        assert!(total > 0.0, "{sync:?}: rotations fsync");
        assert_eq!(total, timed, "{sync:?}");
        drop(store);
        fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn sharded_store_binds_one_aggregated_endpoint() {
    let dir = fresh_dir("sharded");
    let store: Store<Spec> =
        Store::open(&dir, eager(4), with_obs()).expect("open sharded with obs_addr");
    let addr = store.obs_addr().expect("aggregated obs server bound");
    for k in 0..256u64 {
        store.put(k, k).wait();
    }

    // One endpoint for the whole store: its one committer's counters.
    let (code, prom) = http_get(addr, "/metrics");
    assert_eq!(code, 200);
    assert_prometheus_shape(&prom);
    for name in [
        "pam_commits_total",
        "pam_commit_apply_nanos",
        "pam_live_versions",
        "pam_wal_records_total",
    ] {
        assert!(prom.contains(name), "/metrics missing {name}");
    }
    let v = Json::parse(&http_get(addr, "/metrics.json").1).expect("json");
    let counter = |name: &str| {
        v.get("counters")
            .and_then(|c| c.get(name))
            .and_then(Json::as_f64)
            .unwrap()
    };
    assert!(counter("pam_commits_total") >= 256.0, "256 acked puts");
    assert_eq!(
        counter("pam_wal_records_total"),
        counter("pam_commits_total"),
        "one log: one record per epoch"
    );

    // /trace: one track — a store has one committer
    let t = Json::parse(&http_get(addr, "/trace").1).expect("/trace parses");
    let slices: Vec<f64> = t
        .get("traceEvents")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
        .filter_map(|e| e.get("tid").and_then(Json::as_f64))
        .collect();
    assert!(!slices.is_empty(), "the committer recorded its epochs");
    assert!(slices.iter().all(|&tid| tid == 0.0), "tids {slices:?}");

    let (code, hj) = http_get(addr, "/health");
    assert_eq!(code, 200);
    assert_eq!(
        Json::parse(&hj)
            .unwrap()
            .get("status")
            .and_then(Json::as_str),
        Some("healthy")
    );

    drop(store);
    fs::remove_dir_all(&dir).unwrap();
}

/// A checkpoint file that cannot be written degrades the whole store's
/// health, and the reason names that file's directory.
#[test]
fn degraded_health_names_the_shard_whose_checkpointer_fails() {
    let dir = fresh_dir("degraded");
    let durability = DurabilityConfig {
        checkpoint_every_bytes: Some(1), // every poll with new epochs checkpoints
        ..DurabilityConfig::default()
    };
    let store: Store<Spec> = Store::open(&dir, eager(2), durability).expect("open");
    store.put(0, 0).wait();
    assert_eq!(store.health(), Health::Healthy);
    // swap shard 1's checkpoint directory for a plain file: the log
    // still takes every append, but no checkpoint can be written there
    fs::remove_dir_all(dir.join("shard-1")).unwrap();
    fs::write(dir.join("shard-1"), b"not a directory").unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    let mut k = 1u64;
    let reason = loop {
        store.put(k, k).wait(); // fresh epochs keep the checkpointer busy
        k += 1;
        match store.health() {
            Health::Degraded(reason) => break reason,
            Health::Healthy => {}
            other => panic!("expected Degraded, got {other:?}"),
        }
        assert!(
            std::time::Instant::now() < deadline,
            "the failing shard-1 checkpoint never surfaced in health()"
        );
        std::thread::sleep(Duration::from_millis(5));
    };
    let events = pam_obs::recent_events();
    let failure = reason
        .strip_prefix("background checkpoint failing: ")
        .unwrap_or_else(|| panic!("{reason}"));
    assert!(failure.starts_with("shard 1: "), "{reason}");
    // the checkpointer logged that failure before health reported it
    assert!(
        events.iter().any(|e| e.level == pam_obs::Level::Warn
            && e.target == "pam_store::checkpoint"
            && e.message.contains(failure)),
        "no Warn event names {failure:?}: {events:?}"
    );
    // acknowledged writes keep flowing: a failed checkpoint is not fatal
    store.put(u64::MAX, 1).wait();
    assert_eq!(store.get(&u64::MAX), Some(1));
    drop(store);
    fs::remove_dir_all(&dir).unwrap();
}

/// A telemetry address that cannot be bound fails the open cleanly: the
/// error names the address, and the store has shut down and released
/// its lock, so the directory opens again at once.
#[test]
fn an_unbindable_obs_addr_fails_the_open_and_releases_the_directory() {
    let dir = fresh_dir("obs-bind");
    let config = || eager(2);
    let taken = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = taken.local_addr().unwrap().to_string();
    let err = Store::<Spec>::open(
        &dir,
        config(),
        DurabilityConfig {
            obs_addr: Some(addr.clone()),
            ..DurabilityConfig::default()
        },
    )
    .expect_err("the port is taken");
    assert!(err.to_string().contains(&addr), "{err}");
    let store: Store<Spec> =
        Store::open(&dir, config(), DurabilityConfig::default()).expect("reopen after failed bind");
    store.put(1, 1).wait();
    assert_eq!(store.obs_addr(), None);
    drop(store);
    fs::remove_dir_all(&dir).unwrap();
}

/// The error the WAL's `create_new` of `segment` meets while a file is
/// in the way.
fn blocked(segment: &Path) -> String {
    fs::OpenOptions::new()
        .create_new(true)
        .write(true)
        .open(segment)
        .expect_err("a file is in the way")
        .to_string()
}

/// Plant a file at `segment`, where the log's next segment must go, and
/// return the error the WAL will meet creating it.
fn block_segment(segment: &Path) -> String {
    fs::write(segment, b"in the way").unwrap();
    blocked(segment)
}

#[test]
fn poisoned_health_reports_reason() {
    let dir = fresh_dir("poison");
    let store: Store<Spec> = Store::open(&dir, eager(1), with_obs()).expect("open");
    // a fresh log creates its first segment on epoch 1's append
    let cause = block_segment(&dir.join("wal-00000000000000000001.seg"));

    // The failed epoch's waiter panics with the preserved reason.
    let ticket = store.put(1, 1);
    let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| ticket.wait()))
        .expect_err("wait on a poisoned epoch must panic");
    let msg = panic
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_else(|| "<non-string panic>".into());
    assert!(
        msg.contains(&cause),
        "panic must carry the WAL error {cause:?}, got {msg:?}"
    );
    assert!(msg.contains("poisoned"), "panic names the poison: {msg:?}");

    // health() preserves the original error text...
    match store.health() {
        Health::Poisoned(reason) => {
            assert!(reason.contains(&cause), "reason: {reason}");
            assert!(reason.contains("epoch 1"), "reason names epoch: {reason}");
        }
        other => panic!("expected Poisoned, got {other:?}"),
    }

    // ...and the store's own endpoint serves 503 with the reason.
    let (code, body) = http_get(store.obs_addr().expect("obs server bound"), "/health");
    assert_eq!(code, 503, "poisoned store must serve 503");
    let h = Json::parse(&body).unwrap();
    assert_eq!(h.get("status").and_then(Json::as_str), Some("poisoned"));
    assert!(
        h.get("reason")
            .and_then(Json::as_str)
            .is_some_and(|r| r.contains(&cause)),
        "/health reason must carry the WAL error: {body}"
    );
    drop(store);
    fs::remove_dir_all(&dir).unwrap();
}

/// The segment epoch 4's append must create when every append rotates.
const EPOCH_4_SEGMENT: &str = "wal-00000000000000000004.seg";

/// When `PAM_OBS_CRASH_DIR` is set this test *is* the crashing child: it
/// opens a store there whose every append starts a new segment, blocks
/// epoch 4's segment, commits three clean epochs, hits the failed append
/// on epoch 4, and `abort()`s — exactly the fail-stop path. The parent
/// run re-executes the binary and asserts the flight recorder left
/// `flight-<pid>.json` in the store directory naming the poisoned epoch,
/// with the ring, metrics, and recent events inside.
#[test]
fn flight_dump_written_on_poison() {
    if let Ok(dir) = std::env::var("PAM_OBS_CRASH_DIR") {
        let dir = PathBuf::from(dir);
        let rotate_every_epoch = DurabilityConfig {
            segment_bytes: 1,
            ..DurabilityConfig::default()
        };
        let store: Store<Spec> = Store::open(&dir, eager(1), rotate_every_epoch).expect("open");
        block_segment(&dir.join(EPOCH_4_SEGMENT));
        for e in 1..=3u64 {
            store.put(e, e).wait(); // epochs 1..=3 land in the flight ring
        }
        let ticket = store.put(4, 4);
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| ticket.wait()));
        // The committer wrote the dump before waking us; die like a crash.
        std::process::abort();
    }

    let dir = fresh_dir("flight-dump");
    let status = std::process::Command::new(std::env::current_exe().unwrap())
        .args([
            "flight_dump_written_on_poison",
            "--exact",
            "--test-threads=1",
            "--nocapture",
        ])
        .env("PAM_OBS_CRASH_DIR", &dir)
        // the child's harness leaves a half-printed "test … " line when it
        // aborts; keep it out of this run's report
        .stdout(std::process::Stdio::null())
        .status()
        .expect("spawn crashing child");
    assert!(!status.success(), "child is expected to abort");

    let dump = fs::read_dir(&dir)
        .expect("dump dir exists")
        .filter_map(|e| {
            let p = e.unwrap().path();
            let name = p.file_name().unwrap().to_string_lossy().into_owned();
            (name.starts_with("flight-") && name.ends_with(".json")).then_some(p)
        })
        .max()
        .expect("flight-<pid>.json written on poison");
    let v = Json::parse(&fs::read_to_string(&dump).unwrap()).expect("flight dump parses");
    let reason = v.get("reason").and_then(Json::as_str).expect("reason");
    let cause = blocked(&dir.join(EPOCH_4_SEGMENT));
    assert!(
        reason.contains(&cause) && reason.contains("epoch 4"),
        "dump reason preserves the WAL error {cause:?}: {reason}"
    );
    assert_eq!(
        v.get("poisoned_epoch").and_then(Json::as_f64),
        Some(4.0),
        "dump names the poisoned epoch"
    );
    let epochs = v.get("epochs").and_then(Json::as_arr).expect("epochs ring");
    assert!(
        epochs.len() >= 3,
        "the three clean epochs are in the ring, saw {}",
        epochs.len()
    );
    assert!(v.get("metrics").is_some(), "dump embeds metrics");
    assert!(
        v.get("events").and_then(Json::as_arr).is_some(),
        "dump embeds recent events"
    );
    fs::remove_dir_all(&dir).unwrap();
}

/// A value whose WAL encoding, for [`Gated::PARK`], parks the encoding
/// thread until the test opens the gate: a commit frozen after it took
/// its epoch and before its append meets the planted segment.
#[derive(Clone, Debug, PartialEq)]
struct Gated(u64);

/// `(name of the thread parked in the encoding, gate open)`.
static GATE: Mutex<(Option<String>, bool)> = Mutex::new((None, false));
static GATE_MOVED: Condvar = Condvar::new();

impl Gated {
    const PARK: u64 = u64::MAX;

    /// Block until a commit is parked in the encoding; returns the
    /// committing thread's name.
    fn parked_by() -> String {
        let mut g = GATE.lock().unwrap();
        loop {
            if let Some(name) = &g.0 {
                return name.clone();
            }
            g = GATE_MOVED.wait(g).unwrap();
        }
    }

    fn open() {
        GATE.lock().unwrap().1 = true;
        GATE_MOVED.notify_all();
    }
}

impl Codec for Gated {
    fn encode(&self, out: &mut Vec<u8>) {
        if self.0 == Self::PARK {
            let mut g = GATE.lock().unwrap();
            g.0 = Some(std::thread::current().name().unwrap_or("?").to_string());
            GATE_MOVED.notify_all();
            while !g.1 {
                g = GATE_MOVED.wait(g).unwrap();
            }
        }
        self.0.encode(out);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        u64::decode(r).map(Gated)
    }
}

/// The `/proc/self/task/<tid>` directories of this process's threads
/// named `name` (the kernel keeps the first 15 bytes of a thread name).
fn threads_named(name: &str) -> Vec<PathBuf> {
    fs::read_dir("/proc/self/task")
        .expect("procfs")
        .map(|task| task.unwrap().path())
        .filter(|task| {
            fs::read_to_string(task.join("comm")).is_ok_and(|comm| name.starts_with(comm.trim()))
        })
        .collect()
}

/// Is the thread at `task` asleep (state `S`: blocked, here on the
/// pipeline's condvar)?
fn asleep(task: &Path) -> bool {
    fs::read_to_string(task.join("stat")).is_ok_and(|stat| {
        stat.rsplit_once(") ")
            .is_some_and(|(_, rest)| rest.starts_with('S'))
    })
}

/// Poll `done` every millisecond for up to five seconds.
fn eventually(mut done: impl FnMut() -> bool) -> bool {
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while !done() && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    done()
}

/// What a panic carried, as text.
fn panic_text(panic: Box<dyn std::any::Any + Send>) -> String {
    panic
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_else(|| "<non-string panic>".into())
}

/// A lone writer commits its own epochs; when the append of one it leads
/// fails, the store is poisoned exactly as when the committer thread's
/// does. The scenario runs in a re-executed child (`PAM_OBS_LEAD_DIR`),
/// alone in its process, so no other test's store receives the flight
/// dump first: the child asserts every step and exits; the parent
/// asserts it succeeded.
///
/// Writer 1 leads epoch 4, whose value parks the commit inside the WAL
/// append's encoding; writer 2 then submits epoch 5 and waits on it
/// behind the running commit. Opening the gate lets the append meet the
/// planted segment. Both writers must panic with the root cause, the
/// dump must name epoch 4, `/health` must say `poisoned`, the committer
/// thread must exit and dropping the store must return.
#[test]
fn a_writer_led_commit_whose_append_fails_poisons_the_store() {
    if let Ok(dir) = std::env::var("PAM_OBS_LEAD_DIR") {
        writer_led_poison_child(PathBuf::from(dir));
        return;
    }
    let dir = fresh_dir("writer-led-poison");
    let out = std::process::Command::new(std::env::current_exe().unwrap())
        .args([
            "a_writer_led_commit_whose_append_fails_poisons_the_store",
            "--exact",
            "--test-threads=1",
            "--nocapture",
        ])
        .env("PAM_OBS_LEAD_DIR", &dir)
        .output()
        .expect("spawn child");
    assert!(
        out.status.success(),
        "child failed:\n{}\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    fs::remove_dir_all(&dir).unwrap();
}

fn writer_led_poison_child(dir: PathBuf) {
    type GatedStore = Store<NoAug<u64, Gated>>;
    // a window long enough that the committer thread never takes a lone
    // writer's epoch: every commit below is writer-led
    let lingering = ShardedConfig {
        shards: 1,
        batch_window: Duration::from_secs(10),
        ..ShardedConfig::default()
    };
    let rotate_every_epoch = DurabilityConfig {
        segment_bytes: 1,
        ..with_obs()
    };
    let store = Arc::new(GatedStore::open(&dir, lingering, rotate_every_epoch).expect("open"));
    let cause = block_segment(&dir.join(EPOCH_4_SEGMENT));
    for e in 1..=3u64 {
        assert_eq!(store.put(e, Gated(e)).wait(), e);
    }
    assert_eq!(
        store.stats().commits_by_writer,
        3,
        "epochs 1..=3 writer-led"
    );
    assert_eq!(threads_named("pam-store-committer").len(), 1);

    let leader = {
        let store = store.clone();
        std::thread::Builder::new()
            .name("writer-1".into())
            .spawn(move || {
                let ticket = store.put(4, Gated(Gated::PARK));
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| ticket.wait()))
            })
            .unwrap()
    };
    assert_eq!(Gated::parked_by(), "writer-1", "writer 1 commits epoch 4");
    let second = store.put(5, Gated(5));
    assert_eq!(second.global_epoch(), Some(5), "epoch 4 is taken");
    let second = std::thread::Builder::new()
        .name("writer-2".into())
        .spawn(move || std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| second.wait())))
        .unwrap();
    // writer 2 blocks on epoch 5 behind the running commit
    assert!(eventually(|| {
        let writer = threads_named("writer-2");
        !writer.is_empty() && writer.iter().all(|t| asleep(t))
    }));
    Gated::open();

    for (who, outcome) in [("writer 1", leader), ("writer 2", second)] {
        let msg = panic_text(
            outcome
                .join()
                .unwrap()
                .expect_err("a wait on a poisoned store panics"),
        );
        assert!(
            msg.contains("poisoned") && msg.contains(&cause) && msg.contains("epoch 4"),
            "{who} must panic with the root cause {cause:?}, got {msg:?}"
        );
    }
    let (code, body) = http_get(store.obs_addr().expect("obs server bound"), "/health");
    assert_eq!(code, 503, "{body}");
    let h = Json::parse(&body).unwrap();
    assert_eq!(h.get("status").and_then(Json::as_str), Some("poisoned"));

    assert!(
        eventually(|| threads_named("pam-store-committer").is_empty()),
        "the committer thread exits"
    );
    drop(Arc::into_inner(store).expect("the writers are gone"));

    let dump = fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| {
            let name = p.file_name().unwrap().to_string_lossy();
            name.starts_with("flight-") && name.ends_with(".json")
        })
        .expect("flight-<pid>.json written on poison");
    let v = Json::parse(&fs::read_to_string(&dump).unwrap()).expect("flight dump parses");
    assert_eq!(
        v.get("poisoned_epoch").and_then(Json::as_f64),
        Some(4.0),
        "the dump names the poisoned epoch"
    );
    assert!(v
        .get("reason")
        .and_then(Json::as_str)
        .is_some_and(|r| r.contains(&cause)));
}
