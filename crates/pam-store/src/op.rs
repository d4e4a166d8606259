//! Write operations and batch normalization.
//!
//! A commit receives an epoch's operations in arrival order, tagged with
//! global sequence numbers. Before touching the tree it *normalizes* the
//! batch: parallel-sort by `(key, seq)` (`parlay::par_sort_by`), then
//! collapse each key run to its **last** operation
//! (`parlay::combine_duplicates_by` — last-write-wins), and split the
//! survivors into a list of puts and a list of deletes — the two lists a
//! WAL record holds. They have disjoint key sets, so `apply` merges them
//! back into one sorted stream and applies it in one `multi_update`.
//! Nothing on this path copies a key or a value: the sort and the dedup
//! move the operations (last-write-wins keeps the later operation and
//! drops the earlier), `apply` moves them into the merged stream, and
//! `multi_update` moves each into the tree's entry, or drops it where a
//! key is already present or deleted.

use pam::{AugMap, AugSpec};

/// A single key-value store operation.
pub enum WriteOp<S: AugSpec> {
    /// Insert or overwrite `key` with `value`.
    Put(S::K, S::V),
    /// Remove `key` (no-op if absent).
    Delete(S::K),
}

impl<S: AugSpec> WriteOp<S> {
    /// The key this operation targets.
    pub fn key(&self) -> &S::K {
        match self {
            WriteOp::Put(k, _) => k,
            WriteOp::Delete(k) => k,
        }
    }
}

impl<S: AugSpec> Clone for WriteOp<S> {
    fn clone(&self) -> Self {
        match self {
            WriteOp::Put(k, v) => WriteOp::Put(k.clone(), v.clone()),
            WriteOp::Delete(k) => WriteOp::Delete(k.clone()),
        }
    }
}

impl<S: AugSpec> std::fmt::Debug for WriteOp<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WriteOp::Put(..) => write!(f, "Put(..)"),
            WriteOp::Delete(..) => write!(f, "Delete(..)"),
        }
    }
}

/// A normalized epoch: at most one surviving operation per key.
///
/// This is the unit the committer applies to the tree — and, verbatim,
/// the unit a durable store's WAL record holds: because the batch is
/// already sorted and last-write-wins resolved, re-applying it is
/// idempotent, which is what lets crash recovery overlap a checkpoint
/// with the log records it subsumes.
pub struct NormalizedBatch<S: AugSpec> {
    /// Last-write-wins upserts, sorted by key, distinct.
    pub puts: Vec<(S::K, S::V)>,
    /// Keys to remove, sorted, distinct, disjoint from `puts`.
    pub deletes: Vec<S::K>,
    /// Raw operation count before deduplication.
    pub raw_ops: usize,
}

impl<S: AugSpec> NormalizedBatch<S> {
    /// Did every raw operation cancel out (no surviving puts or
    /// deletes)? Such an epoch still commits (and, when durable, still
    /// logs, keeping epochs contiguous) but applies no tree work.
    pub fn is_empty(&self) -> bool {
        self.puts.is_empty() && self.deletes.is_empty()
    }

    /// Surviving operations (puts + deletes) after last-write-wins
    /// deduplication.
    pub fn len(&self) -> usize {
        self.puts.len() + self.deletes.len()
    }
}

/// Sort + last-write-wins dedup + partition (see module docs).
pub fn normalize<S: AugSpec>(mut ops: Vec<(u64, WriteOp<S>)>) -> NormalizedBatch<S> {
    let raw_ops = ops.len();
    // Parallel sort by (key, seq): equal keys end up adjacent with their
    // operations in arrival order.
    parlay::par_sort_by(&mut ops, |a, b| {
        S::compare(a.1.key(), b.1.key()).then(a.0.cmp(&b.0))
    });
    // Collapse each key run to its latest operation (LWW).
    let survivors = parlay::combine_duplicates_by(
        ops,
        |a, b| S::compare(a.1.key(), b.1.key()).is_eq(),
        |_earlier, later| later,
    );
    let mut puts = Vec::with_capacity(survivors.len());
    let mut deletes = Vec::new();
    for (_, op) in survivors {
        match op {
            WriteOp::Put(k, v) => puts.push((k, v)),
            WriteOp::Delete(k) => deletes.push(k),
        }
    }
    NormalizedBatch {
        puts,
        deletes,
        raw_ops,
    }
}

/// Apply one normalized epoch (`puts` and `deletes` sorted, distinct,
/// disjoint) to `map` in one walk of the tree: a linear merge moves the
/// two lists into one sorted stream for `multi_update`, which moves each
/// key and value into the tree. The committer and recovery's replay
/// both apply through here.
pub(crate) fn apply<S: AugSpec>(map: &mut AugMap<S>, puts: Vec<(S::K, S::V)>, deletes: Vec<S::K>) {
    let mut batch = Vec::with_capacity(puts.len() + deletes.len());
    let mut deletes = deletes.into_iter().peekable();
    for (k, v) in puts {
        while let Some(d) = deletes.next_if(|d| S::compare(d, &k).is_lt()) {
            batch.push((d, None));
        }
        batch.push((k, Some(v)));
    }
    batch.extend(deletes.map(|d| (d, None)));
    map.multi_update(batch);
}

#[cfg(test)]
mod tests {
    use super::*;
    use pam::SumAug;

    type S = SumAug<u64, u64>;

    fn norm(ops: Vec<(u64, WriteOp<S>)>) -> NormalizedBatch<S> {
        normalize::<S>(ops)
    }

    #[test]
    fn last_write_wins_per_key() {
        let b = norm(vec![
            (0, WriteOp::Put(5, 50)),
            (1, WriteOp::Put(1, 10)),
            (2, WriteOp::Put(5, 51)),
            (3, WriteOp::Put(5, 52)),
        ]);
        assert_eq!(b.puts, vec![(1, 10), (5, 52)]);
        assert!(b.deletes.is_empty());
        assert_eq!(b.raw_ops, 4);
    }

    #[test]
    fn delete_after_put_deletes() {
        let b = norm(vec![
            (0, WriteOp::Put(9, 1)),
            (1, WriteOp::Delete(9)),
            (2, WriteOp::Put(2, 2)),
        ]);
        assert_eq!(b.puts, vec![(2, 2)]);
        assert_eq!(b.deletes, vec![9]);
    }

    #[test]
    fn put_after_delete_survives() {
        let b = norm(vec![(0, WriteOp::Delete(4)), (1, WriteOp::Put(4, 44))]);
        assert_eq!(b.puts, vec![(4, 44)]);
        assert!(b.deletes.is_empty());
    }

    #[test]
    fn large_batch_is_sorted_and_distinct() {
        let ops: Vec<(u64, WriteOp<S>)> = (0..50_000u64)
            .map(|i| {
                let k = i % 1000;
                if i % 7 == 0 {
                    (i, WriteOp::Delete(k))
                } else {
                    (i, WriteOp::Put(k, i))
                }
            })
            .collect();
        let b = norm(ops);
        assert_eq!(b.puts.len() + b.deletes.len(), 1000);
        assert!(b.puts.windows(2).all(|w| w[0].0 < w[1].0));
        assert!(b.deletes.windows(2).all(|w| w[0] < w[1]));
        // disjoint key sets
        let dels: std::collections::HashSet<u64> = b.deletes.iter().copied().collect();
        assert!(b.puts.iter().all(|(k, _)| !dels.contains(k)));
        // each key's survivor is its chronologically last op
        for &(k, v) in &b.puts {
            let last = (0..50_000u64).filter(|i| i % 1000 == k).max().unwrap();
            assert!(last % 7 != 0, "a deleted key leaked into puts");
            assert_eq!(v, last);
        }
    }

    #[test]
    fn an_epoch_keeps_exactly_the_last_op_per_key() {
        // one 16k-op epoch: ~2k keys scattered and repeated, each put's
        // value its seq, and seqs not in arrival order
        const OPS: u64 = 16_384;
        let ops = || -> Vec<(u64, WriteOp<S>)> {
            (0..OPS)
                .map(|i| {
                    let seq = i.wrapping_mul(40_503) % OPS; // a permutation
                    let k = (i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 50) % 2048;
                    let op = if seq.is_multiple_of(5) {
                        WriteOp::Delete(k)
                    } else {
                        WriteOp::Put(k, seq)
                    };
                    (seq, op)
                })
                .collect()
        };
        // key -> (seq, value) of its last op; `None` is a delete
        let mut last = std::collections::BTreeMap::<u64, (u64, Option<u64>)>::new();
        for (seq, op) in ops() {
            let (k, v) = match op {
                WriteOp::Put(k, v) => (k, Some(v)),
                WriteOp::Delete(k) => (k, None),
            };
            let e = last.entry(k).or_insert((seq, v));
            if seq > e.0 {
                *e = (seq, v);
            }
        }
        let puts: Vec<(u64, u64)> = last
            .iter()
            .filter_map(|(&k, &(_, v))| v.map(|v| (k, v)))
            .collect();
        let deletes: Vec<u64> = last
            .iter()
            .filter(|(_, (_, v))| v.is_none())
            .map(|(&k, _)| k)
            .collect();
        assert!(puts.len() > 1000 && deletes.len() > 100);
        for threads in [1, 2, 3] {
            let b = parlay::with_threads(threads, || norm(ops()));
            assert_eq!(b.puts, puts, "{threads} threads");
            assert_eq!(b.deletes, deletes, "{threads} threads");
            assert_eq!(b.raw_ops, OPS as usize);
        }
    }

    static CLONES: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

    /// A key or value that owns a buffer, as `Bytes` and `Vec<u8>` do,
    /// and counts its clones.
    #[derive(PartialEq, Eq, PartialOrd, Ord, Debug)]
    struct Counted(Box<u64>);

    impl Clone for Counted {
        fn clone(&self) -> Self {
            CLONES.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            Counted(self.0.clone())
        }
    }

    #[test]
    fn an_epoch_is_normalized_and_applied_without_a_clone() {
        type C = pam::NoAug<Counted, Counted>;
        let c = |n: u64| Counted(Box::new(n));
        const OPS: u64 = 16_384;
        // ~4k keys, each written several times; a fifth of the ops deletes
        let ops = || -> Vec<(u64, WriteOp<C>)> {
            (0..OPS)
                .map(|seq| {
                    let k = (seq.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 50) % 4096;
                    match seq % 5 {
                        0 => (seq, WriteOp::Delete(c(k))),
                        _ => (seq, WriteOp::Put(c(k), c(seq))),
                    }
                })
                .collect()
        };
        for threads in [1, 2, 3] {
            // an unshared map holding half the keys the epoch touches
            let mut map = AugMap::<C>::from_sorted_distinct(
                (0..4096u64)
                    .step_by(2)
                    .map(|k| (c(k), c(0)))
                    .collect::<Vec<_>>(),
            );
            let before = CLONES.load(std::sync::atomic::Ordering::Relaxed);
            parlay::with_threads(threads, || {
                let epoch = normalize::<C>(ops());
                apply(&mut map, epoch.puts, epoch.deletes);
            });
            let clones = CLONES.load(std::sync::atomic::Ordering::Relaxed) - before;
            assert_eq!(clones, 0, "{threads} threads");
            // last write wins per key, over the map's old values
            let mut want = std::collections::BTreeMap::new();
            want.extend((0..4096u64).step_by(2).map(|k| (k, 0)));
            for seq in 0..OPS {
                let k = (seq.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 50) % 4096;
                match seq % 5 {
                    0 => want.remove(&k),
                    _ => want.insert(k, seq),
                };
            }
            let mut got = Vec::with_capacity(map.len());
            map.for_each(|k, v| got.push((*k.0, *v.0)));
            assert_eq!(
                got,
                want.into_iter().collect::<Vec<_>>(),
                "{threads} threads"
            );
        }
    }

    #[test]
    fn apply_walks_once_to_the_same_map_as_two_calls() {
        let base = AugMap::<S>::build((0..5000u64).map(|i| (i * 2, i)).collect());
        let puts = |keys: &mut dyn Iterator<Item = u64>| -> Vec<(u64, u64)> {
            keys.map(|k| (k, k + 1)).collect()
        };
        // (puts, deletes): sorted, distinct, disjoint, as `normalize` leaves them
        let cases = [
            (
                "deletes before the first put",
                puts(&mut (9000..9100)),
                (0..300).collect::<Vec<u64>>(),
            ),
            (
                "deletes after the last put",
                puts(&mut (0..300)),
                (9000..9600).collect(),
            ),
            (
                "interleaved",
                puts(&mut (0..6000).filter(|k| k % 3 != 0)),
                (0..6000).filter(|k| k % 3 == 0).collect(),
            ),
            ("no deletes", puts(&mut (0..4000).map(|k| k * 3)), vec![]),
            ("no puts", vec![], (0..4000).map(|k| k * 3).collect()),
            ("neither", vec![], vec![]),
        ];
        for threads in [1, 2, 3] {
            for (case, puts, deletes) in &cases {
                let mut one = base.clone();
                parlay::with_threads(threads, || apply(&mut one, puts.clone(), deletes.clone()));
                let mut two = base.clone();
                two.multi_insert(puts.clone());
                two.multi_delete(deletes.clone());
                assert_eq!(one.to_vec(), two.to_vec(), "{case}, {threads} threads");
                one.check_invariants().unwrap();
            }
        }
        assert_eq!(base.len(), 5000);
    }
}
