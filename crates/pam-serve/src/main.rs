//! The `pam-serve` binary: a durable `pam_store::Store` behind TCP.
//!
//! ```text
//! pam-serve --dir DIR [--addr 127.0.0.1:7878] [--shards 4] [--workers 4]
//!           [--sync each|none] [--batch-window-us 200]
//!           [--obs-addr ADDR]
//! ```
//!
//! `--batch-window-us` is the store's group-commit window: the upper
//! bound on how long an epoch lingers for more writers, not a fixed
//! delay — a put with nobody to share an epoch with is committed at once
//! (0 never lingers). `--shards` is how many key-range files each
//! checkpoint is cut into, so that recovery loads them in parallel.
//!
//! Prints `pam-serve listening on ADDR` once serving (and `obs listening
//! on ADDR` when telemetry is bound) — scripts bind port 0 and read the
//! real address back from stdout. Runs until stdin reaches EOF, then
//! drains gracefully (stop accepting, finish + ack in-flight requests,
//! flush every epoch, drop pins) and prints `pam-serve drained`.

use pam::NoAug;
use pam_serve::{serve, ServeConfig};
use pam_store::{Bytes, DurabilityConfig, ShardedConfig, Store, SyncPolicy};
use std::io::{self, Read};
use std::process::exit;
use std::sync::Arc;
use std::time::Duration;

type Spec = NoAug<Bytes, Bytes>;

const FLAGS: [&str; 7] = [
    "--dir",
    "--addr",
    "--shards",
    "--workers",
    "--sync",
    "--batch-window-us",
    "--obs-addr",
];

/// Split the command line into `(flag, value)` pairs. An argument that is
/// not one of [`FLAGS`], or a flag with nothing after it, is an error
/// naming it: a typo must not start a server on defaults.
fn parse_args(args: &[String]) -> Result<Vec<(&str, &str)>, String> {
    let mut pairs = Vec::new();
    let mut rest = args.iter();
    while let Some(name) = rest.next() {
        if !FLAGS.contains(&name.as_str()) {
            return Err(format!("unknown argument: {name}"));
        }
        let value = rest.next().ok_or_else(|| format!("{name} needs a value"))?;
        pairs.push((name.as_str(), value.as_str()));
    }
    Ok(pairs)
}

fn flag<'a>(args: &[(&str, &'a str)], name: &str) -> Option<&'a str> {
    args.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
}

fn parse_sync(s: &str) -> Result<SyncPolicy, String> {
    match s {
        "each" => Ok(SyncPolicy::SyncEachEpoch),
        "none" => Ok(SyncPolicy::NoSync),
        _ => Err(format!("unknown --sync policy: {s} (each|none)")),
    }
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&args)?;
    let dir = flag(&args, "--dir").ok_or("--dir DIR is required")?;
    let addr = flag(&args, "--addr").unwrap_or("127.0.0.1:7878");
    let shards: usize = flag(&args, "--shards")
        .map(|s| s.parse().map_err(|e| format!("--shards: {e}")))
        .transpose()?
        .unwrap_or(4);
    let workers: usize = flag(&args, "--workers")
        .map(|s| s.parse().map_err(|e| format!("--workers: {e}")))
        .transpose()?
        .unwrap_or(4);
    let window_us: u64 = flag(&args, "--batch-window-us")
        .map(|s| s.parse().map_err(|e| format!("--batch-window-us: {e}")))
        .transpose()?
        .unwrap_or(200);
    let sync = flag(&args, "--sync")
        .map(parse_sync)
        .transpose()?
        .unwrap_or(SyncPolicy::SyncEachEpoch);

    let cfg = ShardedConfig::builder()
        .shards(shards)
        .batch_window(Duration::from_micros(window_us))
        .build();
    let mut dur = DurabilityConfig::builder().sync(sync);
    if let Some(obs) = flag(&args, "--obs-addr") {
        dur = dur.obs_addr(obs);
    }

    let store = Arc::new(
        Store::<Spec>::open(dir, cfg, dur.build()).map_err(|e| format!("open {dir}: {e}"))?,
    );
    let mut server = serve(Arc::clone(&store), addr, ServeConfig { workers })
        .map_err(|e| format!("bind {addr}: {e}"))?;

    println!("pam-serve listening on {}", server.local_addr());
    if let Some(obs) = store.obs_addr() {
        println!("obs listening on {obs}");
    }

    // Serve until our stdin reaches EOF (the supervisor closing the pipe
    // is the shutdown signal — same trick as `cat`), then drain.
    let mut sink = [0u8; 4096];
    let mut stdin = io::stdin().lock();
    while matches!(stdin.read(&mut sink), Ok(n) if n > 0) {}
    drop(stdin);

    println!("pam-serve draining");
    server.drain();
    drop(server);
    drop(store); // closes WALs, telemetry endpoint, releases the dir lock
    println!("pam-serve drained");
    Ok(())
}

fn main() {
    if let Err(e) = run() {
        eprintln!("pam-serve: {e}");
        exit(1);
    }
}
