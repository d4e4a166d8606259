//! YCSB-style mixed read/write benchmark for the `pam-store` versioned
//! snapshot store.
//!
//! Reproduces the shape of the standard YCSB core workloads against a
//! 1-shard volatile `Store` (reads pin the current version; writes flow
//! through the group-commit pipeline):
//!
//! * **A** — 50% reads / 50% writes (update-heavy),
//! * **B** — 95% reads /  5% writes (read-heavy),
//! * **C** — 100% reads,
//! * plus a **range** mix (90% point reads / 5% range scans / 5% writes)
//!   and a **sum** mix exercising `aug_range` (the augmented O(log n)
//!   range sum — the query classic stores answer with a full scan).
//!
//! For each mix the driver sweeps the group-commit window to expose the
//! batching/latency trade-off: wider windows mean bigger batches, fewer
//! `multi_insert`s, higher write throughput — at the cost of commit
//! latency. Keys are drawn uniformly; `PAM_SCALE` scales the sizes.
//!
//! With `--durability {off,wal,wal-fsync,wal-bytes}` the driver instead
//! measures what the write-ahead log costs: workload A against an
//! in-memory store, a WAL'd store (`NoSync`), a per-epoch-fsync store
//! (`SyncEachEpoch`), and/or a byte-threshold store
//! (`SyncEveryBytes(256 KiB)`), reporting the commit-latency deltas.
//! (`all` runs the full comparison.)
//!
//! With `--shards N[,M,...]` the driver sweeps workload A across shard
//! counts (N independent group-commit pipelines), making
//! the 1-committer-vs-N-committers delta measurable. Add `--json <path>`
//! to also emit the rows as machine-readable JSON (the CI bench-smoke
//! artifact). `--threads N` pins the client-thread count (default:
//! hardware parallelism) — `--threads 1` vs the default is the scaling
//! comparison for the parallel drivers and sharded pipelines.
//!
//! With `--xbatch` (optionally `--shards N[,M,...]`) the driver instead
//! measures the **cross-shard atomic batch** path: acked single-key put
//! latency vs. acked 16-key `write_batch` latency (global epoch stamp +
//! per-shard sealed epochs + all-slice ack) and the epoch-fenced
//! `snapshot()` cost, per shard count.
//!
//! With `--remote ADDR` the driver leaves the in-process store behind
//! entirely and drives a live `pam-serve` process over TCP: for each
//! connection count in `--conns N[,M,...]` (default 1,2,4) it measures
//! acked-put, read, and 16-key-batch round-trip p50/p99/p999, and the
//! get phase re-reads every acked put as an exact read-back check.
//! `--json <path>` dumps the rows; the server's store metrics live in
//! the server process (scrape its `--obs-addr`), so `--prom` is
//! rejected here.
//!
//! With `--contend` (optionally `--shards N[,M,...]`) the driver
//! measures the **fence-contention tail**: acked put p50/p99/p999 alone
//! vs. under a concurrent epoch-fenced `snapshot()` loop (EXPERIMENTS
//! §7). All latency columns everywhere are histogram percentiles
//! (`pam_obs::Histogram`), not means. `--json <path>` artifacts embed
//! the full `pam_*` metrics-registry dump under `"metrics"`, and
//! `--prom <path>` writes the Prometheus-text exposition.

use pam::SumAug;
use pam_bench::*;
use pam_obs::{
    chrome_trace, FlightRecorder, Histogram, MetricsRegistry, ObsServer, TelemetrySource,
};
use pam_store::{DurabilityConfig, Health, ShardedConfig, StoreConfig, StoreStats, SyncPolicy};
use std::io::Write as _;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;
use workloads::hash64;

/// Render `stats` as the canonical `pam_*` metrics registry dump
/// (embedded under `"metrics"` in every `--json` artifact, so the
/// artifact always carries p50/p99/p999 for commit, fsync, and
/// fence-wait latencies).
fn metrics_json(stats: &StoreStats) -> String {
    let registry = MetricsRegistry::new();
    stats.export_into(&registry);
    registry.render_json()
}

/// Write the Prometheus-text exposition of `stats` to `path` (`--prom`).
fn write_prom(path: &str, stats: &StoreStats) {
    let registry = MetricsRegistry::new();
    stats.export_into(&registry);
    if let Some(parent) = std::path::Path::new(path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).expect("create prom output dir");
        }
    }
    std::fs::write(path, registry.render_prometheus()).expect("write prom output");
    println!("wrote {path}");
}

/// `p50/p99/p999` of a nanosecond histogram, as microseconds.
fn fmt_quantiles_us(h: &pam_obs::HistogramSnapshot) -> String {
    format!(
        "{:.1}/{:.1}/{:.1}",
        h.p50() as f64 / 1e3,
        h.p99() as f64 / 1e3,
        h.p999() as f64 / 1e3
    )
}

type Store = pam_store::Store<SumAug<u64, u64>>;

/// The configuration every in-process run uses: `shards` shards, each
/// with the given group-commit window.
fn config(shards: usize, window: Duration) -> ShardedConfig {
    ShardedConfig {
        shards,
        store: StoreConfig {
            batch_window: window,
            ..StoreConfig::default()
        },
    }
}

// -- live telemetry (`--obs-addr`) -----------------------------------------

/// What the telemetry endpoint scrapes from whichever store the current
/// run mode is driving.
type StatsProvider = Box<dyn Fn() -> (StoreStats, Health) + Send + Sync>;

/// The slot the active run mode installs its store into: the endpoint
/// outlives any single store (sweeps build one per row), so it reads
/// through this indirection.
fn obs_slot() -> &'static Mutex<Option<StatsProvider>> {
    static SLOT: OnceLock<Mutex<Option<StatsProvider>>> = OnceLock::new();
    SLOT.get_or_init(|| Mutex::new(None))
}

/// Point the live endpoint at `store` (replacing whatever previous row's
/// store it was scraping).
fn obs_install(store: &Arc<Store>) {
    let s = store.clone();
    *obs_slot().lock().unwrap() = Some(Box::new(move || (s.stats(), s.health())));
}

/// Bind the live telemetry endpoint (`--obs-addr`). The source reads the
/// slot on every scrape, so it follows the sweep from store to store.
fn obs_bind(addr: &str) -> ObsServer {
    let source = TelemetrySource {
        export: Box::new(|reg| {
            if let Some(provider) = obs_slot().lock().unwrap().as_ref() {
                provider().0.export_into(reg);
            }
        }),
        health: Box::new(|| match obs_slot().lock().unwrap().as_ref() {
            Some(provider) => provider().1,
            None => Health::Healthy,
        }),
    };
    let server = ObsServer::bind(addr, source).expect("bind --obs-addr");
    // CI polls the log for this line to learn the resolved port.
    println!("obs listening on {}", server.local_addr());
    server
}

/// End-of-run duties for the observability flags, as a drop guard so
/// every early-returning run mode pays them: write `--trace-out`, then
/// linger (bounded) until the endpoint has served at least one request —
/// a scraper racing a short run must not find a dead port.
struct ObsFinish {
    obs: Option<ObsServer>,
    trace_out: Option<String>,
}

impl Drop for ObsFinish {
    fn drop(&mut self) {
        if let Some(path) = &self.trace_out {
            let doc = chrome_trace(&FlightRecorder::global().snapshot());
            if let Some(parent) = std::path::Path::new(path).parent() {
                if !parent.as_os_str().is_empty() {
                    std::fs::create_dir_all(parent).expect("create trace output dir");
                }
            }
            std::fs::write(path, doc).expect("write trace output");
            println!("wrote {path}");
        }
        if let Some(obs) = &self.obs {
            let deadline = std::time::Instant::now() + Duration::from_secs(60);
            while obs.request_count() == 0 && std::time::Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(100));
            }
        }
        // the server itself shuts down when `obs` drops here
    }
}

struct Mix {
    name: &'static str,
    read_pct: u32,
    scan_pct: u32,
    sum_pct: u32,
}

const MIXES: &[Mix] = &[
    Mix {
        name: "A (50r/50w)",
        read_pct: 50,
        scan_pct: 0,
        sum_pct: 0,
    },
    Mix {
        name: "B (95r/5w)",
        read_pct: 95,
        scan_pct: 0,
        sum_pct: 0,
    },
    Mix {
        name: "C (100r)",
        read_pct: 100,
        scan_pct: 0,
        sum_pct: 0,
    },
    Mix {
        name: "range (90r/5s/5w)",
        read_pct: 90,
        scan_pct: 5,
        sum_pct: 0,
    },
    Mix {
        name: "augsum (90r/5q/5w)",
        read_pct: 90,
        scan_pct: 0,
        sum_pct: 5,
    },
];

/// Drive `threads × ops_per_thread` mixed operations against a store
/// handle; returns the wall-clock seconds (including the final flush).
fn drive(
    store: &Arc<Store>,
    mix: &Mix,
    threads: usize,
    ops_per_thread: usize,
    key_space: u64,
) -> f64 {
    let (read_pct, scan_pct, sum_pct) = (mix.read_pct, mix.scan_pct, mix.sum_pct);
    obs_install(store); // live scrapes follow the store under test
    let (_, secs) = time(|| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let s = store.clone();
                std::thread::spawn(move || {
                    let mut acc = 0u64;
                    for i in 0..ops_per_thread {
                        let r = hash64((t as u64) << 32 | i as u64);
                        let k = hash64(r) % key_space;
                        let dice = (r % 100) as u32;
                        if dice < read_pct {
                            acc = acc.wrapping_add(s.get(&k).unwrap_or(0));
                        } else if dice < read_pct + scan_pct {
                            s.range_for_each(&k, &(k + 1000), |_, _| acc = acc.wrapping_add(1));
                        } else if dice < read_pct + scan_pct + sum_pct {
                            acc = acc.wrapping_add(s.aug_range(&k, &(k + 100_000)));
                        } else {
                            s.put(k, i as u64);
                        }
                    }
                    std::hint::black_box(acc)
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        store.flush();
    });
    secs
}

fn run_mix(
    mix: &Mix,
    window: Duration,
    threads: usize,
    preload: usize,
    ops_per_thread: usize,
    key_space: u64,
) -> (f64, pam_store::StoreStats) {
    let store = Arc::new(Store::volatile(config(1, window)));
    store
        .put_all((0..preload as u64).map(|i| (hash64(i) % key_space, i)))
        .wait();
    let secs = drive(&store, mix, threads, ops_per_thread, key_space);
    (secs, store.stats())
}

/// The `--durability` comparison: workload A with the WAL off, on
/// without fsync, and on with per-epoch group fsync.
fn run_durability(mode: &str, threads: usize, preload: usize, ops_per_thread: usize) {
    let key_space = (preload as u64) * 4;
    let window = Duration::from_micros(200);
    let mix = &MIXES[0]; // A: 50r/50w — the write-heavy stressor
    let modes: Vec<&str> = match mode {
        "all" => vec!["off", "wal", "wal-fsync", "wal-bytes"],
        "off" => vec!["off"],
        m => vec!["off", m], // always include the baseline for the delta
    };

    let mut table = Table::new(&[
        "durability",
        "Mops/s",
        "commits",
        "commit p50/p99/p999 µs",
        "fsync p99 µs",
        "wal KiB",
        "fsyncs",
        "Δ p99 commit",
    ]);
    let mut baseline_p99: Option<u64> = None;
    for m in modes {
        // durable stores live in a scratch dir wiped per run
        let dir = std::env::temp_dir().join(format!("pam-ycsb-wal-{}-{m}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = match m {
            "off" => Store::volatile(config(1, window)),
            "wal" | "wal-fsync" | "wal-bytes" => {
                let sync = match m {
                    "wal" => SyncPolicy::NoSync,
                    "wal-bytes" => SyncPolicy::SyncEveryBytes(256 << 10),
                    _ => SyncPolicy::SyncEachEpoch,
                };
                Store::open(
                    &dir,
                    config(1, window),
                    DurabilityConfig {
                        sync,
                        checkpoint_every_bytes: None, // measure the log alone
                        ..DurabilityConfig::default()
                    },
                )
                .expect("open durable store")
            }
            other => {
                eprintln!(
                    "unknown --durability mode {other:?} (want off|wal|wal-fsync|wal-bytes|all)"
                );
                std::process::exit(2);
            }
        };
        let store = Arc::new(store);
        store
            .put_all((0..preload as u64).map(|i| (hash64(i) % key_space, i)))
            .wait();
        let secs = drive(&store, mix, threads, ops_per_thread, key_space);
        let stats = store.stats();
        let delta = match (m, baseline_p99) {
            ("off", _) => {
                baseline_p99 = Some(stats.commit.p99());
                "baseline".to_string()
            }
            (_, Some(base)) => {
                format!("{:+.1} µs", (stats.commit.p99() as f64 - base as f64) / 1e3)
            }
            _ => "-".to_string(),
        };
        table.row(vec![
            m.to_string(),
            fmt_meps(threads * ops_per_thread, secs),
            stats.commits.to_string(),
            fmt_quantiles_us(&stats.commit),
            format!("{:.1}", stats.durability.wal_fsync.p99() as f64 / 1e3),
            (stats.durability.wal_bytes / 1024).to_string(),
            stats.durability.wal_fsyncs.to_string(),
            delta,
        ]);
        obs_slot().lock().unwrap().take(); // the endpoint holds the other handle
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }
    table.print();
    println!(
        "\n(one WAL record + at most one group fsync per epoch: the cost is \
         amortized over every writer in the {window:?} window)"
    );
}

/// One row of the `--xbatch` sweep (also what `--json` serializes).
struct XbatchRow {
    shards: usize,
    put: pam_obs::HistogramSnapshot,
    xbatch: pam_obs::HistogramSnapshot,
    snapshot_us: f64,
    stamped: u64,
    stats: StoreStats,
}

/// The `--xbatch` comparison: acked single-key put latency vs. acked
/// cross-shard `write_batch` latency (the cost of the global epoch
/// stamp + per-shard sealed epochs + waiting on every slice), plus the
/// epoch-fenced `snapshot()` cost, per shard count. Zero group-commit
/// window: this measures the coordination path, not batching.
fn run_xbatch(counts: &[usize], preload: usize, ops: usize) -> Vec<XbatchRow> {
    const BATCH_KEYS: u64 = 16;
    let key_space = (preload as u64) * 4;
    let batches = (ops / BATCH_KEYS as usize).max(1);
    let mut rows = Vec::new();
    let mut table = Table::new(&[
        "shards",
        "put µs p50/p99/p999",
        "xbatch-16 µs p50/p99/p999",
        "per key p50 µs",
        "snapshot µs",
        "global epochs",
    ]);
    for &n in counts {
        let store = Arc::new(Store::volatile(config(n, Duration::ZERO)));
        obs_install(&store);
        store
            .put_all((0..preload as u64).map(|i| (hash64(i) % key_space, i)))
            .wait();

        // each acked latency lands in a log-bucketed histogram so the
        // row reports tail percentiles, not a tail-blind mean
        let timed = |iters: u64, f: &mut dyn FnMut(u64)| {
            let hist = Histogram::new();
            for i in 0..iters {
                let t0 = std::time::Instant::now();
                f(i);
                hist.record_duration(t0.elapsed());
            }
            hist.snapshot()
        };
        let s = store.clone();
        let put = timed(ops as u64, &mut |i| {
            s.put(hash64(i) % key_space, i).wait();
        });
        let stamped_before = store.global_epoch();
        let xbatch = timed(batches as u64, &mut |b| {
            s.put_all((0..BATCH_KEYS).map(|j| (hash64(b * BATCH_KEYS + j) % key_space, b)))
                .wait();
        });
        let stamped = store.global_epoch() - stamped_before;

        let snaps = (ops / 10).max(1);
        let t0 = std::time::Instant::now();
        for _ in 0..snaps {
            let _snap = store.snapshot();
        }
        let snapshot_us = t0.elapsed().as_secs_f64() * 1e6 / snaps as f64;

        table.row(vec![
            n.to_string(),
            fmt_quantiles_us(&put),
            fmt_quantiles_us(&xbatch),
            format!("{:.2}", xbatch.p50() as f64 / 1e3 / BATCH_KEYS as f64),
            format!("{snapshot_us:.1}"),
            stamped.to_string(),
        ]);
        rows.push(XbatchRow {
            shards: n,
            put,
            xbatch,
            snapshot_us,
            stamped,
            stats: store.stats(),
        });
    }
    table.print();
    println!(
        "\n(a cross-shard batch mints a global epoch, submits one sealed \
         epoch per shard under the fence, and acks when every slice \
         commits; single-shard batches skip all of it — \"global \
         epochs\" counts the batches that actually spanned shards)"
    );
    rows
}

/// Write the xbatch rows as JSON (hand-rolled: offline workspace).
fn write_xbatch_json(path: &str, rows: &[XbatchRow], preload: usize, ops: usize) {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"ycsb-xbatch\",\n");
    out.push_str(&format!("  \"pam_scale\": {},\n", scale()));
    out.push_str(&format!("  \"preload\": {preload},\n"));
    out.push_str(&format!("  \"acked_ops\": {ops},\n"));
    out.push_str("  \"results\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"shards\": {}, \"put_p50_us\": {:.3}, \"put_p99_us\": {:.3}, \
             \"put_p999_us\": {:.3}, \"put_max_us\": {:.3}, \
             \"xbatch_p50_us\": {:.3}, \"xbatch_p99_us\": {:.3}, \
             \"xbatch_p999_us\": {:.3}, \"snapshot_us\": {:.3}, \
             \"global_epochs\": {}}}{}\n",
            r.shards,
            r.put.p50() as f64 / 1e3,
            r.put.p99() as f64 / 1e3,
            r.put.p999() as f64 / 1e3,
            r.put.max() as f64 / 1e3,
            r.xbatch.p50() as f64 / 1e3,
            r.xbatch.p99() as f64 / 1e3,
            r.xbatch.p999() as f64 / 1e3,
            r.snapshot_us,
            r.stamped,
            if i + 1 == rows.len() { "" } else { "," },
        ));
    }
    out.push_str("  ],\n");
    // the registry dump of the last (most sharded) run: p50/p99/p999 for
    // every pam_* histogram, fence-wait and snapshot counters included
    let metrics = rows.last().map(|r| metrics_json(&r.stats));
    out.push_str(&format!(
        "  \"metrics\": {}\n",
        metrics.as_deref().unwrap_or("null")
    ));
    out.push_str("}\n");
    if let Some(parent) = std::path::Path::new(path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).expect("create json output dir");
        }
    }
    let mut f = std::fs::File::create(path).expect("create json output file");
    f.write_all(out.as_bytes()).expect("write json output");
    println!("\nwrote {path}");
}

/// One row of the `--remote` sweep (also what `--json` serializes).
struct RemoteRow {
    conns: usize,
    put: pam_obs::HistogramSnapshot,
    get: pam_obs::HistogramSnapshot,
    batch: pam_obs::HistogramSnapshot,
    puts_per_sec: f64,
}

/// The `--remote ADDR` sweep: drive a live `pam-serve` process over TCP
/// and measure what the wire adds — acked-put, read, and 16-key-batch
/// round-trip percentiles per connection count. Every connection owns a
/// disjoint key prefix, so the get phase doubles as an exact read-back
/// verification of every acked put.
fn run_remote(addr: &str, conn_counts: &[usize], ops: usize) -> Vec<RemoteRow> {
    const BATCH_KEYS: u64 = 16;
    // disjoint per-connection prefixes: puts under [t], batches under
    // [0x80|t] — read-back checks are exact, not probabilistic
    let key = |t: usize, i: u64| -> Vec<u8> {
        let mut k = vec![t as u8];
        k.extend_from_slice(&i.to_be_bytes());
        k
    };
    let bkey = |t: usize, i: u64| -> Vec<u8> {
        let mut k = vec![0x80 | t as u8];
        k.extend_from_slice(&i.to_be_bytes());
        k
    };
    let value = |t: usize, i: u64| format!("v{t}-{i}").into_bytes();

    let mut rows = Vec::new();
    let mut table = Table::new(&[
        "conns",
        "acked kputs/s",
        "put µs p50/p99/p999",
        "get µs p50/p99/p999",
        "batch-16 µs p50/p99/p999",
    ]);
    for &conns in conn_counts {
        let per_conn = (ops / conns).max(1) as u64;
        let batches = (per_conn / BATCH_KEYS).max(1);

        // phase 1: acked puts. A barrier releases every connection at
        // once so the wall clock spans only overlapping traffic; each
        // recorded latency is a full acked round trip (request → group
        // commit → ack frame).
        let put_hist = Arc::new(Histogram::new());
        let barrier = Arc::new(std::sync::Barrier::new(conns + 1));
        let handles: Vec<_> = (0..conns)
            .map(|t| {
                let addr = addr.to_string();
                let hist = Arc::clone(&put_hist);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    let mut c = pam_serve::Client::connect(addr.as_str()).expect("connect");
                    barrier.wait();
                    for i in 0..per_conn {
                        let t0 = std::time::Instant::now();
                        c.put(&key(t, i), &value(t, i)).expect("acked put");
                        hist.record_duration(t0.elapsed());
                    }
                })
            })
            .collect();
        barrier.wait();
        let t0 = std::time::Instant::now();
        for h in handles {
            h.join().unwrap();
        }
        let put_secs = t0.elapsed().as_secs_f64();

        // phase 2: reads — and the read-back proof that every put the
        // server acked is visible
        let get_hist = Arc::new(Histogram::new());
        let handles: Vec<_> = (0..conns)
            .map(|t| {
                let addr = addr.to_string();
                let hist = Arc::clone(&get_hist);
                std::thread::spawn(move || {
                    let mut c = pam_serve::Client::connect(addr.as_str()).expect("connect");
                    for i in 0..per_conn {
                        let t0 = std::time::Instant::now();
                        let got = c.get(&key(t, i)).expect("remote get");
                        hist.record_duration(t0.elapsed());
                        assert_eq!(got, Some(value(t, i)), "acked put not readable back");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }

        // phase 3: acked 16-key batches (cross-shard on a sharded server:
        // global epoch stamp + all-slice ack, now with a wire round trip)
        let batch_hist = Arc::new(Histogram::new());
        let handles: Vec<_> = (0..conns)
            .map(|t| {
                let addr = addr.to_string();
                let hist = Arc::clone(&batch_hist);
                std::thread::spawn(move || {
                    let mut c = pam_serve::Client::connect(addr.as_str()).expect("connect");
                    for b in 0..batches {
                        let ops: Vec<pam_serve::WireOp> = (0..BATCH_KEYS)
                            .map(|j| {
                                pam_serve::WireOp::Put(bkey(t, b * BATCH_KEYS + j), value(t, b))
                            })
                            .collect();
                        let t0 = std::time::Instant::now();
                        c.batch(ops).expect("acked batch");
                        hist.record_duration(t0.elapsed());
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }

        let (put, get, batch) = (
            put_hist.snapshot(),
            get_hist.snapshot(),
            batch_hist.snapshot(),
        );
        let puts_per_sec = (per_conn * conns as u64) as f64 / put_secs;
        table.row(vec![
            conns.to_string(),
            format!("{:.1}", puts_per_sec / 1e3),
            fmt_quantiles_us(&put),
            fmt_quantiles_us(&get),
            fmt_quantiles_us(&batch),
        ]);
        rows.push(RemoteRow {
            conns,
            put,
            get,
            batch,
            puts_per_sec,
        });
    }
    table.print();
    println!(
        "\n(each put/batch latency is a full wire round trip ending in a \
         group-commit ack; the get phase re-reads every acked put and \
         asserts the value — server-side store metrics are scraped from \
         the server's --obs-addr, not reported here)"
    );
    rows
}

/// Write the remote-sweep rows as JSON (hand-rolled: offline workspace).
/// `"metrics"` is `null` by design: the store lives in the server
/// process, so its registry is scraped from the *server's* `--obs-addr`.
fn write_remote_json(path: &str, rows: &[RemoteRow], ops: usize) {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"ycsb-remote\",\n");
    out.push_str(&format!("  \"pam_scale\": {},\n", scale()));
    out.push_str(&format!("  \"acked_ops\": {ops},\n"));
    out.push_str("  \"results\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"conns\": {}, \"puts_per_sec\": {:.1}, \
             \"put_p50_us\": {:.3}, \"put_p99_us\": {:.3}, \"put_p999_us\": {:.3}, \
             \"get_p50_us\": {:.3}, \"get_p99_us\": {:.3}, \"get_p999_us\": {:.3}, \
             \"batch16_p50_us\": {:.3}, \"batch16_p99_us\": {:.3}, \
             \"batch16_p999_us\": {:.3}}}{}\n",
            r.conns,
            r.puts_per_sec,
            r.put.p50() as f64 / 1e3,
            r.put.p99() as f64 / 1e3,
            r.put.p999() as f64 / 1e3,
            r.get.p50() as f64 / 1e3,
            r.get.p99() as f64 / 1e3,
            r.get.p999() as f64 / 1e3,
            r.batch.p50() as f64 / 1e3,
            r.batch.p99() as f64 / 1e3,
            r.batch.p999() as f64 / 1e3,
            if i + 1 == rows.len() { "" } else { "," },
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"metrics\": null\n");
    out.push_str("}\n");
    if let Some(parent) = std::path::Path::new(path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).expect("create json output dir");
        }
    }
    let mut f = std::fs::File::create(path).expect("create json output file");
    f.write_all(out.as_bytes()).expect("write json output");
    println!("\nwrote {path}");
}

/// One row of the `--contend` comparison (also what `--json` serializes).
struct ContendRow {
    shards: usize,
    baseline: pam_obs::HistogramSnapshot,
    contended: pam_obs::HistogramSnapshot,
    snapshots: u64,
    stats: StoreStats,
}

/// The `--contend` comparison (EXPERIMENTS §7): acked single-key put
/// latency on a sharded store, alone vs. under a concurrent
/// epoch-fenced `snapshot()` loop. Every snapshot raises the all-shard
/// submit barrier, so writers park in `admit()` and the put tail
/// stretches — the new histograms make that visible as p99/p999 rather
/// than a tail-blind mean. Zero group-commit window: the barrier, not
/// batching, is the object under test.
fn run_contend(counts: &[usize], preload: usize, ops: usize) -> Vec<ContendRow> {
    let key_space = (preload as u64) * 4;
    let mut rows = Vec::new();
    let mut table = Table::new(&[
        "shards",
        "alone µs p50/p99/p999",
        "contended µs p50/p99/p999",
        "snapshots",
        "fence waits",
        "fence p99 µs",
    ]);
    for &n in counts {
        let store = Arc::new(Store::volatile(config(n, Duration::ZERO)));
        obs_install(&store);
        store
            .put_all((0..preload as u64).map(|i| (hash64(i) % key_space, i)))
            .wait();

        let acked_puts = |salt: u64| {
            let hist = Histogram::new();
            for i in 0..ops as u64 {
                let t0 = std::time::Instant::now();
                store.put(hash64(salt ^ i) % key_space, i).wait();
                hist.record_duration(t0.elapsed());
            }
            hist.snapshot()
        };
        let baseline = acked_puts(0);

        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let snapper = {
            let s = store.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                // relaxed: shutdown flag only — seeing it late costs one
                // extra snapshot loop, and join() below synchronizes
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let _snap = s.snapshot();
                }
            })
        };
        let contended = acked_puts(1);
        // relaxed: see the loop above; join() provides the ordering
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        snapper.join().unwrap();

        let stats = store.stats();
        table.row(vec![
            n.to_string(),
            fmt_quantiles_us(&baseline),
            fmt_quantiles_us(&contended),
            stats.snapshots_taken.to_string(),
            stats.fence_waits.to_string(),
            format!(
                "{:.1}",
                stats.barrier_wait.p99().max(stats.fence_wait.p99()) as f64 / 1e3
            ),
        ]);
        rows.push(ContendRow {
            shards: n,
            baseline,
            contended,
            snapshots: stats.snapshots_taken,
            stats,
        });
    }
    table.print();
    println!(
        "\n(each snapshot takes the fence write side and raises a submit \
         barrier on every shard; writers admitted mid-barrier park until \
         it drops — the contended p99/p999 measures that parking)"
    );
    rows
}

/// Write the contend rows as JSON (hand-rolled: offline workspace).
fn write_contend_json(path: &str, rows: &[ContendRow], preload: usize, ops: usize) {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"ycsb-contend\",\n");
    out.push_str(&format!("  \"pam_scale\": {},\n", scale()));
    out.push_str(&format!("  \"preload\": {preload},\n"));
    out.push_str(&format!("  \"acked_ops\": {ops},\n"));
    out.push_str("  \"results\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"shards\": {}, \"alone_p50_us\": {:.3}, \"alone_p99_us\": {:.3}, \
             \"alone_p999_us\": {:.3}, \"contended_p50_us\": {:.3}, \
             \"contended_p99_us\": {:.3}, \"contended_p999_us\": {:.3}, \
             \"snapshots\": {}, \"fence_waits\": {}}}{}\n",
            r.shards,
            r.baseline.p50() as f64 / 1e3,
            r.baseline.p99() as f64 / 1e3,
            r.baseline.p999() as f64 / 1e3,
            r.contended.p50() as f64 / 1e3,
            r.contended.p99() as f64 / 1e3,
            r.contended.p999() as f64 / 1e3,
            r.snapshots,
            r.stats.fence_waits,
            if i + 1 == rows.len() { "" } else { "," },
        ));
    }
    out.push_str("  ],\n");
    let metrics = rows.last().map(|r| metrics_json(&r.stats));
    out.push_str(&format!(
        "  \"metrics\": {}\n",
        metrics.as_deref().unwrap_or("null")
    ));
    out.push_str("}\n");
    if let Some(parent) = std::path::Path::new(path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).expect("create json output dir");
        }
    }
    let mut f = std::fs::File::create(path).expect("create json output file");
    f.write_all(out.as_bytes()).expect("write json output");
    println!("\nwrote {path}");
}

/// One row of the `--shards` sweep (also what `--json` serializes).
struct ShardRow {
    shards: usize,
    mops: f64,
    secs: f64,
    stats: StoreStats,
}

/// The `--shards` comparison: workload A against hash-sharded stores,
/// one row per shard count — N independent committers vs. one.
fn run_shards(
    counts: &[usize],
    threads: usize,
    preload: usize,
    ops_per_thread: usize,
) -> Vec<ShardRow> {
    let key_space = (preload as u64) * 4;
    let window = Duration::from_micros(200);
    let mix = &MIXES[0]; // A: 50r/50w — the committer-bound stressor
    let mut rows = Vec::new();
    let mut table = Table::new(&[
        "shards",
        "Mops/s",
        "commits",
        "mean batch",
        "commit p50/p99/p999 µs",
        "max commit",
        "Δ Mops/s",
    ]);
    let mut baseline: Option<f64> = None;
    for &n in counts {
        let store = Arc::new(Store::volatile(config(n, window)));
        store
            .put_all((0..preload as u64).map(|i| (hash64(i) % key_space, i)))
            .wait();
        let secs = drive(&store, mix, threads, ops_per_thread, key_space);
        let stats = store.stats();
        let mops = (threads * ops_per_thread) as f64 / secs / 1e6;
        let delta = match baseline {
            None => {
                baseline = Some(mops);
                "baseline".to_string()
            }
            Some(base) => format!("{:+.2}", mops - base),
        };
        table.row(vec![
            n.to_string(),
            format!("{mops:.2}"),
            stats.commits.to_string(),
            format!("{:.1}", stats.mean_batch()),
            fmt_quantiles_us(&stats.commit),
            format!("{:?}", stats.max_commit),
            delta,
        ]);
        rows.push(ShardRow {
            shards: n,
            mops,
            secs,
            stats,
        });
    }
    table.print();
    println!(
        "\n(each shard runs its own group-commit pipeline: N shards batch, \
         normalize, and apply N epochs concurrently — the delta needs \
         multiple hardware threads to show)"
    );
    rows
}

/// Write the shard-sweep rows as JSON (the CI bench-smoke artifact).
/// Hand-rolled: the workspace is offline, so no serde.
fn write_json(path: &str, rows: &[ShardRow], threads: usize, preload: usize, ops: usize) {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"ycsb-shards\",\n");
    out.push_str(&format!("  \"pam_scale\": {},\n", scale()));
    out.push_str(&format!("  \"threads\": {threads},\n"));
    out.push_str(&format!("  \"preload\": {preload},\n"));
    out.push_str(&format!("  \"ops_per_thread\": {ops},\n"));
    out.push_str("  \"workload\": \"A (50r/50w)\",\n");
    out.push_str("  \"results\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"shards\": {}, \"mops\": {:.4}, \"secs\": {:.6}, \"commits\": {}, \
             \"mean_batch\": {:.2}, \"commit_p50_us\": {:.2}, \"commit_p99_us\": {:.2}, \
             \"commit_p999_us\": {:.2}, \"max_commit_us\": {:.2}}}{}\n",
            r.shards,
            r.mops,
            r.secs,
            r.stats.commits,
            r.stats.mean_batch(),
            r.stats.commit.p50() as f64 / 1e3,
            r.stats.commit.p99() as f64 / 1e3,
            r.stats.commit.p999() as f64 / 1e3,
            r.stats.max_commit.as_secs_f64() * 1e6,
            if i + 1 == rows.len() { "" } else { "," },
        ));
    }
    out.push_str("  ],\n");
    // the registry dump of the last (most sharded) run — gives the CI
    // artifact p50/p99/p999 for commit, fsync, and fence-wait metrics
    let metrics = rows.last().map(|r| metrics_json(&r.stats));
    out.push_str(&format!(
        "  \"metrics\": {}\n",
        metrics.as_deref().unwrap_or("null")
    ));
    out.push_str("}\n");
    if let Some(parent) = std::path::Path::new(path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).expect("create json output dir");
        }
    }
    let mut f = std::fs::File::create(path).expect("create json output file");
    f.write_all(out.as_bytes()).expect("write json output");
    println!("\nwrote {path}");
}

fn main() {
    banner(
        "YCSB-style mixed workloads on pam-store",
        "the serving-layer extension of §4 (group commit + snapshot reads)",
    );
    let preload = scaled(200_000);
    let ops_per_thread = scaled(50_000);
    let key_space = (preload as u64) * 4;

    let args: Vec<String> = std::env::args().collect();

    // `--threads N`: client-thread count (default: hardware parallelism).
    // Running `--threads 1` vs the default is the scaling comparison the
    // parallel iterator drivers / sharded pipelines are measured by.
    let threads = match args.iter().position(|a| a == "--threads") {
        Some(i) => match args.get(i + 1).and_then(|s| s.parse::<usize>().ok()) {
            Some(n) if n >= 1 => n,
            _ => {
                eprintln!("bad --threads value (want a positive integer)");
                std::process::exit(2);
            }
        },
        None => max_threads(),
    };

    // `--shards N[,M,...]` names the shard counts both the `--shards`
    // sweep and the `--xbatch` latency comparison run over.
    let shard_counts = |args: &[String]| -> Vec<usize> {
        let spec = args
            .iter()
            .position(|a| a == "--shards")
            .and_then(|i| args.get(i + 1).map(String::as_str))
            .unwrap_or("1,4");
        spec.split(',')
            .map(|s| match s.trim().parse() {
                Ok(n) if n >= 1 => n,
                // 0 would be silently clamped to 1 shard by the store,
                // mislabeling the table row and the JSON artifact
                _ => {
                    eprintln!("bad --shards value {s:?} (want positive counts, e.g. 1,4)");
                    std::process::exit(2);
                }
            })
            .collect()
    };
    fn path_arg<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
        args.iter().position(|a| a == flag).map(|j| {
            args.get(j + 1).map(String::as_str).unwrap_or_else(|| {
                eprintln!("{flag} needs a path");
                std::process::exit(2);
            })
        })
    }
    fn json_path(args: &[String]) -> Option<&str> {
        path_arg(args, "--json")
    }
    // `--prom <path>`: Prometheus-text exposition of the final run's
    // metrics registry (the CI bench-smoke parse-check artifact).
    fn prom_path(args: &[String]) -> Option<&str> {
        path_arg(args, "--prom")
    }

    // `--obs-addr ADDR`: serve /metrics, /metrics.json, /events, /health,
    // and /trace live while the benchmark runs (port 0 picks a free port;
    // the resolved address is printed as "obs listening on ..."). The run
    // then lingers — up to 60 s — until at least one request has been
    // served, so a scraper started alongside never races a short run.
    // `--trace-out FILE`: write the epoch flight ring as Chrome
    // trace-event JSON at exit (load it in chrome://tracing or Perfetto).
    // Both work with every run mode.
    let _obs_finish = ObsFinish {
        obs: path_arg(&args, "--obs-addr").map(obs_bind),
        trace_out: path_arg(&args, "--trace-out").map(String::from),
    };

    // `--remote ADDR`: leave the in-process store behind and drive a
    // live `pam-serve` over TCP, sweeping `--conns` connection counts.
    if let Some(addr) = path_arg(&args, "--remote") {
        if args.iter().any(|a| a == "--prom") {
            eprintln!(
                "--prom is not supported with --remote (the store's metrics \
                 live in the server process — scrape its --obs-addr instead)"
            );
            std::process::exit(2);
        }
        let conns: Vec<usize> = {
            let spec = args
                .iter()
                .position(|a| a == "--conns")
                .and_then(|i| args.get(i + 1).map(String::as_str))
                .unwrap_or("1,2,4");
            spec.split(',')
                .map(|s| match s.trim().parse() {
                    Ok(n) if n >= 1 => n,
                    _ => {
                        eprintln!("bad --conns value {s:?} (want positive counts, e.g. 1,2,4)");
                        std::process::exit(2);
                    }
                })
                .collect()
        };
        let acked_ops = scaled(8_000);
        println!(
            "remote target {addr}, {acked_ops} acked ops per phase, \
             connection sweep {conns:?}\n"
        );
        let rows = run_remote(addr, &conns, acked_ops);
        if let Some(path) = json_path(&args) {
            write_remote_json(path, &rows, acked_ops);
        }
        return;
    }

    // `--contend`: acked put latency under a concurrent epoch-fenced
    // snapshot loop — the fence-contention tail (EXPERIMENTS §7).
    if args.iter().any(|a| a == "--contend") {
        let counts = shard_counts(&args);
        let acked_ops = scaled(20_000);
        println!(
            "{preload} preloaded keys, {acked_ops} acked puts per mode, \
             zero group-commit window, snapshot loop on a second thread\n"
        );
        let rows = run_contend(&counts, preload, acked_ops);
        if let Some(path) = json_path(&args) {
            write_contend_json(path, &rows, preload, acked_ops);
        }
        if let Some(path) = prom_path(&args) {
            if let Some(r) = rows.last() {
                write_prom(path, &r.stats);
            }
        }
        return;
    }

    // `--xbatch`: acked single-put vs. cross-shard-batch latency — the
    // measured cost of the global epoch clock + fence (EXPERIMENTS §6).
    if args.iter().any(|a| a == "--xbatch") {
        let counts = shard_counts(&args);
        let acked_ops = scaled(20_000);
        println!(
            "{preload} preloaded keys, {acked_ops} acked ops per mode, \
             zero group-commit window\n"
        );
        let rows = run_xbatch(&counts, preload, acked_ops);
        if let Some(path) = json_path(&args) {
            write_xbatch_json(path, &rows, preload, acked_ops);
        }
        if let Some(path) = prom_path(&args) {
            if let Some(r) = rows.last() {
                write_prom(path, &r.stats);
            }
        }
        return;
    }

    // `--shards N[,M,...]`: sweep shard counts on workload A instead of
    // sweeping the group-commit window; `--json <path>` also dumps the
    // rows machine-readably.
    if args.iter().any(|a| a == "--shards") {
        let counts = shard_counts(&args);
        println!(
            "{} threads, {preload} preloaded keys, {ops_per_thread} ops/thread, workload A\n",
            threads
        );
        let rows = run_shards(&counts, threads, preload, ops_per_thread);
        if let Some(path) = json_path(&args) {
            write_json(path, &rows, threads, preload, ops_per_thread);
        }
        if let Some(path) = prom_path(&args) {
            if let Some(r) = rows.last() {
                write_prom(path, &r.stats);
            }
        }
        return;
    }

    // only the --shards / --xbatch / --contend paths serialize results;
    // silently dropping the flag elsewhere would leave a CI artifact
    // step with no file
    if args.iter().any(|a| a == "--json" || a == "--prom") {
        eprintln!(
            "--json / --prom are only supported with --shards / --xbatch / \
             --contend / --remote (--remote takes --json only)"
        );
        std::process::exit(2);
    }

    // `--durability {off,wal,wal-fsync,wal-bytes,all}`: measure the WAL
    // instead of sweeping the group-commit window.
    if let Some(i) = args.iter().position(|a| a == "--durability") {
        let mode = args.get(i + 1).map(String::as_str).unwrap_or("all");
        println!(
            "{} threads, {preload} preloaded keys, {ops_per_thread} ops/thread, workload A\n",
            threads
        );
        run_durability(mode, threads, preload, ops_per_thread);
        return;
    }
    let windows = [
        Duration::ZERO,
        Duration::from_micros(50),
        Duration::from_micros(200),
        Duration::from_millis(1),
    ];

    println!(
        "{} threads, {preload} preloaded keys, {ops_per_thread} ops/thread\n",
        threads
    );
    let mut table = Table::new(&[
        "mix",
        "window",
        "Mops/s",
        "commits",
        "mean batch",
        "commit p50/p99/p999 µs",
        "max commit",
    ]);
    for mix in MIXES {
        for &window in &windows {
            let (secs, stats) = run_mix(mix, window, threads, preload, ops_per_thread, key_space);
            let total_ops = threads * ops_per_thread;
            table.row(vec![
                mix.name.to_string(),
                format!("{window:?}"),
                fmt_meps(total_ops, secs),
                stats.commits.to_string(),
                format!("{:.1}", stats.mean_batch()),
                fmt_quantiles_us(&stats.commit),
                format!("{:?}", stats.max_commit),
            ]);
            // read-only mixes do not depend on the window; run once
            if mix.read_pct == 100 {
                break;
            }
        }
    }
    table.print();
    println!(
        "\n(wider window => larger batches => fewer multi_inserts; \
         reads always pin the current version and never block)"
    );
}
