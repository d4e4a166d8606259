//! The version registry: one head, refcount-pinned snapshots.
//!
//! Every commit publishes the new root as a version entry under the next
//! [`VersionId`]. The registry holds exactly one entry — the head — and
//! entries live in `Arc`s, so a version is alive iff it is the head or
//! somebody holds a [`PinnedVersion`] of it: O(1) to take, free to hold
//! (path copying shares what did not change), and the last holder's drop
//! frees exactly the nodes no other version reaches. There is no
//! retention policy beside the reference counts.

use pam::{AugMap, AugSpec};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Monotonically increasing version number (0 = the store's initial map).
pub type VersionId = u64;

/// One published version.
pub(crate) struct VersionEntry<S: AugSpec> {
    pub id: VersionId,
    pub map: AugMap<S>,
    pub created: Instant,
    /// Operations (after dedup) the commit producing this version applied.
    pub batch_len: usize,
    /// The registry's count of dropped entries (see [`Registry::counts`]).
    retired: Arc<AtomicU64>,
}

impl<S: AugSpec> Drop for VersionEntry<S> {
    fn drop(&mut self) {
        // relaxed: a statistic; nothing is published through it
        self.retired.fetch_add(1, Ordering::Relaxed);
    }
}

/// A pinned, immutable view of one version. Holding it keeps the version
/// readable forever; dropping it releases the pin. Cloning is O(1).
pub struct PinnedVersion<S: AugSpec> {
    entry: Arc<VersionEntry<S>>,
}

impl<S: AugSpec> Clone for PinnedVersion<S> {
    fn clone(&self) -> Self {
        PinnedVersion {
            entry: self.entry.clone(),
        }
    }
}

impl<S: AugSpec> PinnedVersion<S> {
    /// The version id this pin refers to.
    pub fn id(&self) -> VersionId {
        self.entry.id
    }

    /// The immutable map of this version.
    pub fn map(&self) -> &AugMap<S> {
        &self.entry.map
    }

    /// Age of this version (time since its commit).
    pub fn age(&self) -> std::time::Duration {
        self.entry.created.elapsed()
    }

    /// Number of (deduplicated) operations in the commit that produced
    /// this version.
    pub fn batch_len(&self) -> usize {
        self.entry.batch_len
    }
}

impl<S: AugSpec> std::fmt::Debug for PinnedVersion<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PinnedVersion(v{}, len {})", self.id(), self.map().len())
    }
}

pub(crate) struct Registry<S: AugSpec> {
    /// The current version: the one place a new root becomes visible.
    head: Mutex<Arc<VersionEntry<S>>>,
    retired: Arc<AtomicU64>,
}

impl<S: AugSpec> Registry<S> {
    pub fn new(initial: AugMap<S>) -> Self {
        let retired = Arc::new(AtomicU64::new(0));
        Registry {
            head: Mutex::new(Arc::new(VersionEntry {
                id: 0,
                map: initial,
                created: Instant::now(),
                batch_len: 0,
                retired: retired.clone(),
            })),
            retired,
        }
    }

    /// Publish `map` as version `id` and return a pin of the version it
    /// replaces, for the caller to drop — outside the lock every reader
    /// takes, since that drop frees the replaced version's own nodes
    /// unless somebody else holds it.
    #[must_use = "drop the replaced head outside the registry lock"]
    pub fn publish(&self, id: VersionId, map: AugMap<S>, batch_len: usize) -> PinnedVersion<S> {
        let entry = Arc::new(VersionEntry {
            id,
            map,
            created: Instant::now(),
            batch_len,
            retired: self.retired.clone(),
        });
        let mut head = self.head.lock();
        debug_assert_eq!(head.id + 1, id, "version ids are dense");
        PinnedVersion {
            entry: std::mem::replace(&mut *head, entry),
        }
    }

    /// Pin the current head.
    pub fn pin_head(&self) -> PinnedVersion<S> {
        PinnedVersion {
            entry: self.head.lock().clone(),
        }
    }

    /// `(head id, live, retired)`: versions somebody still holds (the
    /// head included) and versions dropped so far. Ids are dense from 0,
    /// so `live + retired == head id + 1`.
    pub fn counts(&self) -> (VersionId, usize, u64) {
        // Dropped entries are read before the head: a version published
        // and dropped between the two reads is then counted live, never
        // subtracted from a head that does not include it yet.
        // relaxed: a statistic, see VersionEntry::drop
        let retired = self.retired.load(Ordering::Relaxed);
        let head = self.head.lock().id;
        (head, (head + 1 - retired) as usize, retired)
    }
}
