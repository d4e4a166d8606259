//! The version registry: one head, refcount-pinned snapshots.
//!
//! A version is the tuple of every shard's root. Every commit publishes
//! the new tuple as a version entry under the next [`VersionId`], so
//! publishing is one swap and a snapshot of the whole store is one pin.
//! The registry holds exactly one entry — the head — and entries live in
//! `Arc`s, so a version is alive iff it is the head or somebody holds a
//! [`Snapshot`] of it: O(1) to take, free to hold (path copying shares
//! what did not change), and the last holder's drop frees exactly the
//! nodes no other version reaches. There is no retention policy beside
//! the reference counts.

use crate::store::Snapshot;
use pam::{AugMap, AugSpec};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Monotonically increasing version number. Every committed epoch
/// publishes exactly one version, so a version id is also the number of
/// the epoch that produced it (0 = a fresh store's initial map).
pub type VersionId = u64;

/// One published version.
pub(crate) struct VersionEntry<S: AugSpec> {
    pub id: VersionId,
    /// Every shard's map, shard order.
    pub maps: Vec<AugMap<S>>,
    /// The registry's count of dropped entries (see [`Registry::counts`]).
    retired: Arc<AtomicU64>,
}

impl<S: AugSpec> Drop for VersionEntry<S> {
    fn drop(&mut self) {
        // relaxed: a statistic; nothing is published through it
        self.retired.fetch_add(1, Ordering::Relaxed);
    }
}

pub(crate) struct Registry<S: AugSpec> {
    /// The current version: the one place a new root becomes visible.
    head: Mutex<Arc<VersionEntry<S>>>,
    /// The id the registry started at (see [`Registry::counts`]).
    first: VersionId,
    retired: Arc<AtomicU64>,
}

impl<S: AugSpec> Registry<S> {
    /// A registry whose head is version `id` holding `maps`.
    pub fn new(id: VersionId, maps: Vec<AugMap<S>>) -> Self {
        let retired = Arc::new(AtomicU64::new(0));
        Registry {
            head: Mutex::new(Arc::new(VersionEntry {
                id,
                maps,
                retired: retired.clone(),
            })),
            first: id,
            retired,
        }
    }

    /// Publish `maps` as version `id` and return a pin of the version it
    /// replaces, for the caller to drop — outside the lock every reader
    /// takes, since that drop frees the replaced version's own nodes
    /// unless somebody else holds it.
    #[must_use = "drop the replaced head outside the registry lock"]
    pub fn publish(&self, id: VersionId, maps: Vec<AugMap<S>>) -> Snapshot<S> {
        let entry = Arc::new(VersionEntry {
            id,
            maps,
            retired: self.retired.clone(),
        });
        let mut head = self.head.lock();
        debug_assert_eq!(head.id + 1, id, "version ids are dense");
        Snapshot {
            entry: std::mem::replace(&mut *head, entry),
        }
    }

    /// Pin the current head.
    pub fn pin_head(&self) -> Snapshot<S> {
        Snapshot {
            entry: self.head.lock().clone(),
        }
    }

    /// `(head id, live, retired)`: versions somebody still holds (the
    /// head included) and versions dropped so far. Ids are dense from
    /// the registry's first id, so `live + retired == head id - first
    /// id + 1`.
    pub fn counts(&self) -> (VersionId, usize, u64) {
        // Dropped entries are read before the head: a version published
        // and dropped between the two reads is then counted live, never
        // subtracted from a head that does not include it yet.
        // relaxed: a statistic, see VersionEntry::drop
        let retired = self.retired.load(Ordering::Relaxed);
        let head = self.head.lock().id;
        (head, (head - self.first + 1 - retired) as usize, retired)
    }
}
