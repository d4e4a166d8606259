//! Figure 6(a) reproduction: insertion throughput (millions of elements
//! per second) vs thread count — PAM's parallel `multi_insert` against
//! the concurrent comparators (skiplist, B+ tree, sharded hash map; the
//! OpenBw/Masstree roles — see DESIGN.md "Substitutions").
//!
//! Paper: 5e7 insertions, 1..144 threads; PAM's bulk insertion largely
//! outperforms the point-concurrent structures. Shape to check: PAM's
//! line is highest and grows with threads; the lock-based structures
//! scale less steeply.

use pam::{AugMap, SumAug};
use pam_bench::*;

/// Run `insert` on every pair, `p` contiguous slices of `keys` in parallel.
fn insert_chunked(keys: &[(u64, u64)], p: usize, insert: impl Fn(u64, u64) + Sync) {
    let chunks: Vec<&[(u64, u64)]> = keys.chunks(keys.len().div_ceil(p).max(1)).collect();
    parlay::for_each(chunks.len(), |c| {
        for &(k, v) in chunks[c] {
            insert(k, v);
        }
    });
}

fn main() {
    banner("Figure 6(a): insert throughput vs threads", "Figure 6(a)");
    let n = scaled(2_000_000);
    let keys: Vec<(u64, u64)> = workloads::distinct_shuffled_keys(n, 1, 3)
        .into_iter()
        .map(|k| (k, k))
        .collect();

    let mut t = Table::new(&["threads", "PAM", "SkipList", "B+ tree", "ShardedHash"]);
    for p in thread_counts() {
        // PAM: batched multi-insert in chunks (the paper's model:
        // concurrent updates are accumulated and applied in bulk).
        let pam_t = with_threads(p, || {
            time(|| {
                let mut m: AugMap<SumAug<u64, u64>> = AugMap::new();
                for chunk in keys.chunks(250_000.max(n / 8)) {
                    m.multi_insert(chunk.to_vec());
                }
                m
            })
            .1
        });

        // point-concurrent structures: p threads insert disjoint slices
        let sl = baselines::SkipList::new();
        let (_, sl_t) = time(|| {
            with_threads(p, || {
                insert_chunked(&keys, p, |k, v| {
                    sl.insert(k, v);
                });
            })
        });
        assert_eq!(sl.len(), n);

        let bp = baselines::BPlusTree::new();
        let (_, bp_t) = time(|| {
            with_threads(p, || {
                insert_chunked(&keys, p, |k, v| {
                    bp.insert(k, v);
                });
            })
        });
        assert_eq!(bp.len(), n);

        let sh = baselines::ShardedMap::new(8, n / 128);
        let (_, sh_t) = time(|| {
            with_threads(p, || {
                insert_chunked(&keys, p, |k, v| {
                    sh.insert(k, v);
                });
            })
        });

        t.row(vec![
            p.to_string(),
            fmt_meps(n, pam_t),
            fmt_meps(n, sl_t),
            fmt_meps(n, bp_t),
            fmt_meps(n, sh_t),
        ]);
    }
    t.print();
    println!("\n(values are throughput in millions of inserts per second)");
}
