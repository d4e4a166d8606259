//! Snapshot-isolation concurrency (§4, "Concurrency").
//!
//! PAM's concurrency story: *"any number of users can concurrently access
//! and update their local copy (snapshot) of any map ... Updates to the
//! shared instance of a map can be made atomically by swapping in a new
//! pointer"*. [`SharedMap`] packages exactly that: readers take O(1)
//! snapshots that are never affected by later commits; writers are
//! serialized and swap in a new root. Accumulated updates are best applied
//! in bulk with [`SharedMap::commit`] + `multi_insert`.
//!
//! (`pam-store`'s serving path does not go through this type: its single
//! committer thread owns the current map and publishes each new root
//! into a version registry, so it needs neither this lock nor a
//! compare-and-swap.)

use crate::balance::{Balance, WeightBalanced};
use crate::map::AugMap;
use crate::spec::AugSpec;
use parking_lot::RwLock;

/// An atomically swappable shared map supporting snapshot isolation.
pub struct SharedMap<S: AugSpec, B: Balance = WeightBalanced> {
    inner: RwLock<AugMap<S, B>>,
}

impl<S: AugSpec, B: Balance> SharedMap<S, B> {
    /// Share `map`.
    pub fn new(map: AugMap<S, B>) -> Self {
        SharedMap {
            inner: RwLock::new(map),
        }
    }

    /// Take an O(1) snapshot. The snapshot is fully persistent: it never
    /// observes later commits, and modifying it locally never disturbs
    /// the shared instance or other snapshots.
    pub fn snapshot(&self) -> AugMap<S, B> {
        self.inner.read().clone()
    }

    /// Atomically replace the shared map with `f(current)`. Writers are
    /// sequentialized (as in the paper); the write lock is held while `f`
    /// runs, so readers wait for the new root but never see a partial one.
    pub fn commit(&self, f: impl FnOnce(AugMap<S, B>) -> AugMap<S, B>) {
        let mut guard = self.inner.write();
        let current = std::mem::take(&mut *guard);
        *guard = f(current);
    }

    /// Current size (takes a read lock briefly).
    pub fn len(&self) -> usize {
        self.inner.read().len()
    }

    /// Is the shared map empty?
    pub fn is_empty(&self) -> bool {
        self.inner.read().is_empty()
    }
}

impl<S: AugSpec, B: Balance> Default for SharedMap<S, B> {
    fn default() -> Self {
        Self::new(AugMap::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SumAug;
    use std::sync::Arc;

    type M = SharedMap<SumAug<u64, u64>>;

    #[test]
    fn snapshots_are_isolated() {
        let shared = M::default();
        shared.commit(|mut m| {
            m.insert(1, 10);
            m
        });
        let snap = shared.snapshot();
        shared.commit(|mut m| {
            m.insert(2, 20);
            m
        });
        // the earlier snapshot does not see the later commit
        assert_eq!(snap.len(), 1);
        assert_eq!(shared.snapshot().len(), 2);
    }

    #[test]
    fn commits_under_contention_lose_no_updates() {
        let shared = Arc::new(M::default());
        let threads = 8;
        let per = 200u64;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let s = shared.clone();
                std::thread::spawn(move || {
                    for i in 0..per {
                        let k = t * per + i;
                        s.commit(|mut m| {
                            m.insert(k, 1);
                            m
                        });
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(shared.len(), (threads * per) as usize);
        assert_eq!(shared.snapshot().aug_val(), threads * per);
    }

    #[test]
    fn concurrent_readers_and_writer() {
        let shared = Arc::new(M::default());
        shared.commit(|mut m| {
            m.multi_insert((0..1000u64).map(|i| (i, i)).collect());
            m
        });
        let mut handles = Vec::new();
        for _ in 0..4 {
            let s = shared.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..100 {
                    let snap = s.snapshot();
                    // local modifications never affect the shared copy
                    let mut local = snap.clone();
                    local.insert(99_999, 1);
                    assert!(snap.len() == 1000 || snap.len() == 1001);
                }
            }));
        }
        let w = shared.clone();
        let writer = std::thread::spawn(move || {
            w.commit(|mut m| {
                m.insert(5000, 1);
                m
            });
        });
        for h in handles {
            h.join().unwrap();
        }
        writer.join().unwrap();
        assert_eq!(shared.len(), 1001);
    }
}
