//! Blocked-leaf (PaC-tree style) ablation: memory footprint and scan
//! throughput at `LEAF_CAP` = 1 (the pre-blocking one-entry-per-leaf
//! layout) vs the default 32, on the same weight-balanced scheme.
//!
//! The block size is a type: this binary instantiates
//! `WeightBalancedCap<CAP>` at each capacity, so both layouts are
//! measured in one process.

use pam::balance::WeightBalancedCap;
use pam::stats::{node_size, reachable_bytes, unique_nodes};
use pam::{AugMap, SumAug};
use pam_bench::*;

type Spec = SumAug<u64, u64>;

fn measure<const CAP: usize>(n: usize) -> (usize, usize, f64, f64, f64) {
    let pairs: Vec<(u64, u64)> = (0..n as u64).map(|i| (i, i)).collect();
    let m: AugMap<Spec, WeightBalancedCap<CAP>> = AugMap::from_sorted_distinct(&pairs);
    let nodes = unique_nodes(&[m.root()]);
    let bytes = reachable_bytes(&[m.root()]);
    // full scan via cursor-backed iterator
    let scan = time_best_of(
        3,
        || (),
        |()| {
            let mut acc = 0u64;
            for (_, &v) in m.iter() {
                acc = acc.wrapping_add(v);
            }
            std::hint::black_box(acc)
        },
    );
    // streaming for_each (checkpoint writer path)
    let stream = time_best_of(
        3,
        || (),
        |()| {
            let mut acc = 0u64;
            m.for_each(|_, &v| acc = acc.wrapping_add(v));
            std::hint::black_box(acc)
        },
    );
    // random point lookups
    let keys: Vec<u64> = workloads::uniform_pairs(scaled(200_000), 7, n as u64)
        .into_iter()
        .map(|(k, _)| k)
        .collect();
    let get = time_best_of(
        3,
        || (),
        |()| {
            let mut hits = 0usize;
            for k in &keys {
                hits += usize::from(m.get(k).is_some());
            }
            std::hint::black_box(hits)
        },
    );
    (nodes, bytes, scan, stream, get)
}

fn main() {
    banner(
        "Blocked leaves: memory + scan ablation (CAP=1 vs CAP=32)",
        "PaC-trees (arxiv 2204.06077) applied to PAM",
    );
    let n = scaled(100_000);
    let mut t = Table::new(&[
        "layout",
        "nodes",
        "bytes",
        "B/entry",
        "scan",
        "for_each",
        "200k gets",
    ]);
    let (n1, b1, s1, f1, g1) = measure::<1>(n);
    let (n32, b32, s32, f32_, g32) = measure::<32>(n);
    for (label, nodes, bytes, scan, st, get) in [
        ("CAP=1 (per-entry)", n1, b1, s1, f1, g1),
        ("CAP=32 (blocked)", n32, b32, s32, f32_, g32),
    ] {
        t.row(vec![
            label.into(),
            nodes.to_string(),
            bytes.to_string(),
            format!("{:.1}", bytes as f64 / n as f64),
            fmt_secs(scan),
            fmt_secs(st),
            fmt_secs(get),
        ]);
    }
    t.print();
    println!();
    println!(
        "memory ratio (CAP=1 / CAP=32): {:.2}x   (internal node: {} B, n = {n})",
        b1 as f64 / b32 as f64,
        node_size::<Spec, WeightBalancedCap<32>>(),
    );
    println!(
        "scan speedup: {:.2}x   for_each speedup: {:.2}x",
        s1 / s32,
        f1 / f32_,
    );
}
