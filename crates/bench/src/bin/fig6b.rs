//! Figure 6(b) reproduction: concurrent read throughput vs thread count
//! (YCSB workload C: read-only), PAM vs skiplist / B+ tree / sharded
//! hash map.
//!
//! Paper: structures pre-loaded with 5e7 keys, 1e7 concurrent reads.
//! Shape to check: every structure scales with threads; PAM's reads
//! (pure tree search on an immutable snapshot) are competitive and
//! scale at least as well as the lock-coupled structures.

use pam::{AugMap, SumAug};
use pam_bench::*;

fn main() {
    banner(
        "Figure 6(b): read throughput vs threads (YCSB-C)",
        "Figure 6(b)",
    );
    let n = scaled(2_000_000);
    let reads = scaled(1_000_000);
    let population = workloads::distinct_shuffled_keys(n, 1, 3);
    let probes = workloads::read_probes(reads, 7, &population);

    // pre-load all structures
    let pam: AugMap<SumAug<u64, u64>> = AugMap::build(population.iter().map(|&k| (k, k)).collect());
    let sl = baselines::SkipList::new();
    let bp = baselines::BPlusTree::new();
    let sh = baselines::ShardedMap::new(8, n / 128);
    parlay::for_each(population.len(), |i| {
        let k = population[i];
        sl.insert(k, k);
        bp.insert(k, k);
        sh.insert(k, k);
    });

    let mut t = Table::new(&["threads", "PAM", "SkipList", "B+ tree", "ShardedHash"]);
    for p in thread_counts() {
        let pam_t = with_threads(p, || {
            time(|| par_sum(&probes, |k| u64::from(pam.get(k).is_some()))).1
        });
        let sl_t = with_threads(p, || {
            time(|| par_sum(&probes, |&k| u64::from(sl.get(k).is_some()))).1
        });
        let bp_t = with_threads(p, || {
            time(|| par_sum(&probes, |&k| u64::from(bp.get(k).is_some()))).1
        });
        let sh_t = with_threads(p, || {
            time(|| par_sum(&probes, |&k| u64::from(sh.get(k).is_some()))).1
        });
        t.row(vec![
            p.to_string(),
            fmt_meps(reads, pam_t),
            fmt_meps(reads, sl_t),
            fmt_meps(reads, bp_t),
            fmt_meps(reads, sh_t),
        ]);
    }
    t.print();
    println!("\n(values are throughput in millions of reads per second)");
}
