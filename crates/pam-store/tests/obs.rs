//! Integration tests for the live-telemetry surface: a durable `Store`
//! (1 shard, then 4) scraped over a raw `TcpStream`,
//! the poison path surfacing its reason through `health()` and
//! `/health`, and — in a re-executed child process, mirroring
//! `recovery.rs` — the flight recorder dumping `flight-<pid>.json` into
//! the WAL directory when a commit hook fails.

use pam::{AugMap, SumAug};
use pam_obs::json::Json;
use pam_obs::{Health, ObsServer, TelemetrySource};
use pam_store::{
    CommitHook, DurabilityConfig, GlobalStamp, NormalizedBatch, ShardedConfig, Store, StoreConfig,
    VersionedStore,
};
use std::fs;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

type Spec = SumAug<u64, u64>;

fn eager() -> StoreConfig {
    StoreConfig {
        batch_window: Duration::ZERO,
        ..StoreConfig::default()
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
    let config = ShardedConfig {
        shards: 1,
        store: eager(),
    };
    let store: Store<Spec> = Store::open(&dir, config, with_obs()).expect("open with obs_addr");
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

#[test]
fn sharded_store_binds_one_aggregated_endpoint() {
    let dir = fresh_dir("sharded");
    let config = ShardedConfig {
        shards: 4,
        store: eager(),
    };
    let store: Store<Spec> =
        Store::open(&dir, config, with_obs()).expect("open sharded with obs_addr");
    let addr = store.obs_addr().expect("aggregated obs server bound");
    for k in 0..256u64 {
        store.put(k, k).wait();
    }
    let snap = store.snapshot(); // bump the fence/snapshot counters
    drop(snap);

    // One endpoint, aggregated metrics: shard commits fold together and
    // the epoch-fence counters appear alongside the per-shard sums.
    let (code, prom) = http_get(addr, "/metrics");
    assert_eq!(code, 200);
    assert_prometheus_shape(&prom);
    for name in [
        "pam_commits_total",
        "pam_fence_waits_total",
        "pam_snapshots_taken_total",
        "pam_fence_wait_nanos",
        "pam_wal_records_total",
    ] {
        assert!(prom.contains(name), "/metrics missing {name}");
    }
    let v = Json::parse(&http_get(addr, "/metrics.json").1).expect("json");
    let commits = v
        .get("counters")
        .and_then(|c| c.get("pam_commits_total"))
        .and_then(Json::as_f64)
        .unwrap();
    assert!(
        commits >= 256.0,
        "aggregated commits across 4 shards, saw {commits}"
    );
    let snaps = v
        .get("counters")
        .and_then(|c| c.get("pam_snapshots_taken_total"))
        .and_then(Json::as_f64)
        .unwrap();
    assert!(snaps >= 1.0, "snapshot() must count, saw {snaps}");

    // /trace: one track per shard — with 256 sequential keys every one
    // of the 4 hash shards has committed epochs, so the global flight
    // ring holds slices with tids 0..=3.
    let t = Json::parse(&http_get(addr, "/trace").1).expect("/trace parses");
    let mut tids: Vec<i64> = t
        .get("traceEvents")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
        .filter_map(|e| e.get("tid").and_then(Json::as_f64))
        .map(|tid| tid as i64)
        .collect();
    tids.sort_unstable();
    tids.dedup();
    for shard in 0..4 {
        assert!(
            tids.contains(&shard),
            "trace missing a track for shard {shard}; saw tids {tids:?}"
        );
    }

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

/// A shard whose background checkpointer keeps failing degrades the
/// whole store's health, and the reason names that shard.
#[test]
fn degraded_health_names_the_shard_whose_checkpointer_fails() {
    let dir = fresh_dir("degraded");
    let config = ShardedConfig {
        shards: 2,
        store: eager(),
    };
    let durability = DurabilityConfig {
        checkpoint_every_bytes: Some(1), // every poll with new epochs checkpoints
        ..DurabilityConfig::default()
    };
    let store: Store<Spec> = Store::open(&dir, config, durability).expect("open");
    // a first epoch on each shard opens its active WAL segment
    let mut k = 0u64;
    while store.stats_per_shard().iter().any(|s| s.commits == 0) {
        store.put(k, k).wait();
        k += 1;
    }
    assert_eq!(store.health(), Health::Healthy);
    // swap shard 1's directory for a plain file: appends still reach the
    // open (now unlinked) segment, but no checkpoint can be written there
    fs::remove_dir_all(dir.join("shard-1")).unwrap();
    fs::write(dir.join("shard-1"), b"not a directory").unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    let reason = loop {
        store.put(k, k).wait(); // fresh epochs on both shards keep the checkpointers busy
        k += 1;
        match store.health() {
            Health::Degraded(reason) => break reason,
            Health::Healthy => {}
            other => panic!("expected Degraded, got {other:?}"),
        }
        assert!(
            std::time::Instant::now() < deadline,
            "shard 1's failing checkpointer never surfaced in health()"
        );
        std::thread::sleep(Duration::from_millis(5));
    };
    let events = pam_obs::recent_events();
    let failure = reason
        .strip_prefix("shard 1: background checkpoint failing: ")
        .unwrap_or_else(|| panic!("{reason}"));
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
/// error names the address, and every shard has shut down and released
/// its lock, so the directory opens again at once.
#[test]
fn an_unbindable_obs_addr_fails_the_open_and_releases_the_directory() {
    let dir = fresh_dir("obs-bind");
    let config = || ShardedConfig {
        shards: 2,
        store: eager(),
    };
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

/// A commit hook that starts failing at the given `log_epoch` call,
/// poisoning the store the way a dying disk would.
struct FailingHook {
    fail_from: u64,
    calls: AtomicU64,
}

impl CommitHook<Spec> for FailingHook {
    fn log_epoch(
        &self,
        _epoch: u64,
        _global: Option<GlobalStamp>,
        _batch: &NormalizedBatch<Spec>,
    ) -> std::io::Result<()> {
        let n = self.calls.fetch_add(1, Ordering::SeqCst) + 1;
        if n >= self.fail_from {
            Err(std::io::Error::other("injected disk failure"))
        } else {
            Ok(())
        }
    }
}

#[test]
fn poisoned_health_reports_reason() {
    let hook = Arc::new(FailingHook {
        fail_from: 1,
        calls: AtomicU64::new(0),
    });
    let store: Arc<VersionedStore<Spec>> = Arc::new(VersionedStore::with_commit_hook(
        AugMap::new(),
        eager(),
        hook,
    ));

    // The failed epoch's waiter panics with the preserved reason.
    let ticket = store.put(1, 1);
    let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| ticket.wait()))
        .expect_err("wait on a poisoned epoch must panic");
    let msg = panic
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_else(|| "<non-string panic>".into());
    assert!(
        msg.contains("injected disk failure"),
        "panic must carry the hook error, got {msg:?}"
    );
    assert!(msg.contains("poisoned"), "panic names the poison: {msg:?}");

    // health() preserves the original error text...
    match store.health() {
        Health::Poisoned(reason) => {
            assert!(reason.contains("injected disk failure"), "reason: {reason}");
            assert!(reason.contains("epoch 1"), "reason names epoch: {reason}");
        }
        other => panic!("expected Poisoned, got {other:?}"),
    }

    // ...and an obs server over this store serves 503 with the reason.
    let st = store.clone();
    let st2 = store.clone();
    let server = ObsServer::bind(
        "127.0.0.1:0",
        TelemetrySource {
            export: Box::new(move |reg| st.stats().export_into(reg)),
            health: Box::new(move || st2.health()),
        },
    )
    .expect("bind");
    let (code, body) = http_get(server.local_addr(), "/health");
    assert_eq!(code, 503, "poisoned store must serve 503");
    let h = Json::parse(&body).unwrap();
    assert_eq!(h.get("status").and_then(Json::as_str), Some("poisoned"));
    assert!(
        h.get("reason")
            .and_then(Json::as_str)
            .is_some_and(|r| r.contains("injected disk failure")),
        "/health reason must carry the hook error: {body}"
    );
}

/// When `PAM_OBS_CRASH_DIR` is set this test *is* the crashing child:
/// it registers the dump directory, commits three clean epochs, hits
/// the injected hook failure on epoch 4, and `abort()`s — exactly the
/// fail-stop path. The parent run re-executes the binary and asserts
/// the flight recorder left `flight-<pid>.json` naming the poisoned
/// epoch, with the ring, metrics, and recent events inside.
#[test]
fn flight_dump_written_on_poison() {
    if let Ok(dir) = std::env::var("PAM_OBS_CRASH_DIR") {
        let dir = PathBuf::from(dir);
        fs::create_dir_all(&dir).unwrap();
        let _guard = pam_obs::flight::register_dump_dir(&dir);
        let hook = Arc::new(FailingHook {
            fail_from: 4,
            calls: AtomicU64::new(0),
        });
        let store: VersionedStore<Spec> =
            VersionedStore::with_commit_hook(AugMap::new(), eager(), hook);
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
    assert!(
        reason.contains("injected disk failure"),
        "dump reason preserves the hook error: {reason}"
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
