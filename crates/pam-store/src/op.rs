//! Write operations and batch normalization.
//!
//! The committer receives an epoch's operations in arrival order, tagged
//! with global sequence numbers. Before touching the tree it *normalizes*
//! the batch: parallel-sort by `(key, seq)` (`parlay::par_sort_by`), then
//! collapse each key run to its **last** operation
//! (`parlay::combine_duplicates_by` — last-write-wins), and split the
//! survivors into one `multi_insert` batch and one `multi_delete` batch.
//! After normalization the two batches have disjoint key sets, so the
//! order they are applied in does not matter.

use pam::AugSpec;

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
        |_earlier, later| later.clone(),
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
}
