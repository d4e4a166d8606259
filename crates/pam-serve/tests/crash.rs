//! Crash-recover-under-load: kill the real `pam-serve` binary with
//! SIGKILL while clients are writing, reopen the directory, and verify
//! that **every acked remote write survived** (invariant I1: log before
//! ack) and every acked batch is wholly present (I2: a batch commits or
//! vanishes atomically).

use pam::NoAug;
use pam_serve::{Client, WireOp};
use pam_store::{DurabilityConfig, ShardedConfig, Store};
use std::collections::BTreeMap;
use std::io::BufRead;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

// The binary serves `NoAug<Bytes, Bytes>`; the directory it leaves is
// reopened as `Vec<u8>` on purpose. This is the Bytes-written → Vec-read
// check: the two encode and route identically.
type Spec = NoAug<Vec<u8>, Vec<u8>>;

fn key(i: u64) -> Vec<u8> {
    format!("k{i:08}").into_bytes()
}

fn batch_key(b: u64, j: u64) -> Vec<u8> {
    format!("b{b:06}-{j}").into_bytes()
}

#[test]
fn every_acked_remote_write_survives_a_server_kill() {
    let dir = std::env::temp_dir().join(format!("pam-serve-crash-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // the real binary, fsync-per-epoch, eager commits for fast acks
    let mut child = Command::new(env!("CARGO_BIN_EXE_pam-serve"))
        .args([
            "--dir",
            dir.to_str().unwrap(),
            "--addr",
            "127.0.0.1:0",
            "--shards",
            "2",
            "--sync",
            "each",
            "--batch-window-us",
            "0",
        ])
        .stdin(Stdio::piped()) // held open: the server must die by signal
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn pam-serve");
    let stdout = child.stdout.take().unwrap();
    let mut lines = std::io::BufReader::new(stdout).lines();
    let addr = loop {
        let line = lines
            .next()
            .expect("server exited before announcing its address")
            .unwrap();
        if let Some(rest) = line.strip_prefix("pam-serve listening on ") {
            break rest.to_string();
        }
    };

    // the killer fires as soon as enough writes have been acked — the
    // SIGKILL lands mid-traffic, with more writes in flight behind it
    let child = Arc::new(Mutex::new(child));
    let acked_count = Arc::new(AtomicUsize::new(0));
    let killer = {
        let child = Arc::clone(&child);
        let acked_count = Arc::clone(&acked_count);
        std::thread::spawn(move || {
            while acked_count.load(Ordering::Relaxed) < 200 {
                std::thread::sleep(Duration::from_millis(2));
            }
            child.lock().unwrap().kill().expect("kill server");
        })
    };

    // drive acked puts (plus a batch every 16th round) until
    // the server dies under us; record exactly what was acked
    let mut client = Client::connect(&addr).expect("connect");
    let mut acked: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
    let mut acked_batches: Vec<u64> = Vec::new();
    let mut attempted_batches: Vec<u64> = Vec::new();
    for i in 0..1_000_000u64 {
        let value = format!("v{i}").into_bytes();
        match client.put(&key(i), &value) {
            Ok(_) => {
                acked.insert(key(i), value);
                acked_count.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => break, // the kill landed
        }
        if i % 16 == 0 {
            let b = i / 16;
            attempted_batches.push(b);
            let ops = (0..4)
                .map(|j| WireOp::Put(batch_key(b, j), format!("bv{b}").into_bytes()))
                .collect();
            match client.batch(ops) {
                Ok(_) => acked_batches.push(b),
                Err(_) => break,
            }
        }
    }
    killer.join().unwrap();
    let status = child.lock().unwrap().wait().unwrap();
    assert!(!status.success(), "server must have died by signal");
    assert!(
        acked.len() >= 200,
        "kill should land mid-traffic, after substantial acked load"
    );

    // reopen the directory in-process (the dead server's dir lock is
    // stale and gets broken) and hold recovery to its promises
    let store = Store::<Spec>::open(
        &dir,
        ShardedConfig::builder().shards(2).build(),
        DurabilityConfig::default(),
    )
    .expect("recover after kill");

    for (k, v) in &acked {
        assert_eq!(
            store.get(k).as_ref(),
            Some(v),
            "acked write {:?} lost in the crash",
            String::from_utf8_lossy(k)
        );
    }
    for b in &acked_batches {
        for j in 0..4 {
            assert_eq!(
                store.get(&batch_key(*b, j)),
                Some(format!("bv{b}").into_bytes()),
                "acked batch {b} torn by the crash"
            );
        }
    }
    // unacked batches may be kept or lost, but never torn (I5/I6)
    for b in &attempted_batches {
        let present = (0..4)
            .filter(|j| store.get(&batch_key(*b, *j)).is_some())
            .count();
        assert!(
            present == 0 || present == 4,
            "batch {b} recovered torn: {present}/4 keys present"
        );
    }
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}
