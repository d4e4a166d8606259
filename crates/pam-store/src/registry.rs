//! The version registry: named, refcount-pinned snapshots.
//!
//! Every commit publishes the new root as a version entry under a
//! monotonically increasing [`VersionId`]. Entries are held in `Arc`s, so
//! the `Arc` strong count *is* the pin count: a [`PinnedVersion`] guard
//! keeps its version (and therefore the tree nodes it uniquely owns)
//! alive regardless of registry pruning — O(1) to take, free to hold,
//! thanks to path-copying persistence.
//!
//! The registry itself retains the most recent `keep_versions` unpinned
//! versions for id-addressed time travel, plus every *tagged* version
//! (named pins like `"daily-backup"`), pruning the rest as the head
//! advances.

use pam::{AugMap, AugSpec};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::collections::VecDeque;
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

/// Summary of a live registry entry (see [`crate::VersionedStore::versions`]).
#[derive(Clone, Debug)]
pub struct VersionInfo {
    /// Version id.
    pub id: VersionId,
    /// Entries in the map at this version.
    pub len: usize,
    /// External pins currently holding this version.
    pub pins: usize,
    /// Tags naming this version.
    pub tags: Vec<String>,
}

pub(crate) struct Registry<S: AugSpec> {
    inner: Mutex<RegistryInner<S>>,
    keep_versions: usize,
}

struct RegistryInner<S: AugSpec> {
    /// Live versions, oldest first. Always non-empty; back is the head.
    versions: VecDeque<Arc<VersionEntry<S>>>,
    /// Named pins.
    tags: HashMap<String, Arc<VersionEntry<S>>>,
    retired: u64,
}

impl<S: AugSpec> Registry<S> {
    pub fn new(initial: AugMap<S>, keep_versions: usize) -> Self {
        let entry = Arc::new(VersionEntry {
            id: 0,
            map: initial,
            created: Instant::now(),
            batch_len: 0,
        });
        let mut versions = VecDeque::new();
        versions.push_back(entry);
        Registry {
            inner: Mutex::new(RegistryInner {
                versions,
                tags: HashMap::new(),
                retired: 0,
            }),
            keep_versions: keep_versions.max(1),
        }
    }

    /// Publish a new head version and prune old unpinned entries.
    pub fn publish(&self, id: VersionId, map: AugMap<S>, batch_len: usize) {
        let mut g = self.inner.lock();
        debug_assert!(g.versions.back().is_none_or(|b| b.id < id));
        g.versions.push_back(Arc::new(VersionEntry {
            id,
            map,
            created: Instant::now(),
            batch_len,
        }));
        // Prune from the oldest end: keep the head, the last
        // `keep_versions` entries, anything externally pinned, and
        // anything tagged.
        while g.versions.len() > self.keep_versions {
            // lint: allow(panic) the loop condition just proved len > 0
            let front = g.versions.front().expect("non-empty");
            let externally_pinned = Arc::strong_count(front) > 1 + tag_refs(&g.tags, front.id);
            if externally_pinned || g.tags.values().any(|t| t.id == front.id) {
                break; // pinned history is retained in registry order
            }
            g.versions.pop_front();
            g.retired += 1;
        }
    }

    /// Pin the current head.
    pub fn pin_head(&self) -> PinnedVersion<S> {
        let g = self.inner.lock();
        PinnedVersion {
            // lint: allow(panic) publish() never leaves the registry
            // empty — the seed version is installed at construction
            entry: g.versions.back().expect("registry never empty").clone(),
        }
    }

    /// Pin a specific (still live) version.
    pub fn pin_version(&self, id: VersionId) -> Option<PinnedVersion<S>> {
        let g = self.inner.lock();
        g.versions
            .iter()
            .rev()
            .find(|e| e.id == id)
            .or_else(|| g.tags.values().find(|e| e.id == id))
            .map(|entry| PinnedVersion {
                entry: entry.clone(),
            })
    }

    /// Name the current head; the tag keeps the version alive until
    /// [`Registry::untag`]. Returns the tagged id.
    pub fn tag(&self, name: &str) -> VersionId {
        let mut g = self.inner.lock();
        // lint: allow(panic) see pin_head: the registry holds at least
        // the seed version for its whole lifetime
        let head = g.versions.back().expect("registry never empty").clone();
        let id = head.id;
        g.tags.insert(name.to_string(), head);
        id
    }

    /// Remove a tag; returns the version it referred to.
    pub fn untag(&self, name: &str) -> Option<VersionId> {
        self.inner.lock().tags.remove(name).map(|e| e.id)
    }

    /// Pin the version a tag refers to.
    pub fn pin_tagged(&self, name: &str) -> Option<PinnedVersion<S>> {
        let g = self.inner.lock();
        g.tags.get(name).map(|entry| PinnedVersion {
            entry: entry.clone(),
        })
    }

    /// Number of live (registry-retained) versions.
    pub fn live_versions(&self) -> usize {
        self.inner.lock().versions.len()
    }

    /// Number of versions pruned so far.
    pub fn retired_versions(&self) -> u64 {
        self.inner.lock().retired
    }

    /// Snapshot of the registry contents, oldest first.
    pub fn infos(&self) -> Vec<VersionInfo> {
        let g = self.inner.lock();
        g.versions
            .iter()
            .map(|e| {
                let tags: Vec<String> = g
                    .tags
                    .iter()
                    .filter(|(_, t)| t.id == e.id)
                    .map(|(n, _)| n.clone())
                    .collect();
                VersionInfo {
                    id: e.id,
                    len: e.map.len(),
                    pins: Arc::strong_count(e) - 1 - tags.len(),
                    tags,
                }
            })
            .collect()
    }

    /// Roots of every live version (for memory accounting).
    pub fn with_live_maps<R>(&self, f: impl FnOnce(&[&AugMap<S>]) -> R) -> R {
        let g = self.inner.lock();
        let maps: Vec<&AugMap<S>> = g
            .versions
            .iter()
            .map(|e| &e.map)
            .chain(g.tags.values().map(|e| &e.map))
            .collect();
        f(&maps)
    }
}

fn tag_refs<S: AugSpec>(tags: &HashMap<String, Arc<VersionEntry<S>>>, id: VersionId) -> usize {
    tags.values().filter(|t| t.id == id).count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pam::SumAug;

    type R = Registry<SumAug<u64, u64>>;

    fn map_of(pairs: &[(u64, u64)]) -> AugMap<SumAug<u64, u64>> {
        AugMap::build(pairs.to_vec())
    }

    #[test]
    fn publish_advances_head_and_prunes() {
        let r = R::new(AugMap::new(), 3);
        for v in 1..=10u64 {
            r.publish(v, map_of(&[(v, v)]), 1);
        }
        assert_eq!(r.live_versions(), 3);
        assert_eq!(r.retired_versions(), 8); // v0..v7 pruned
        assert_eq!(r.pin_head().id(), 10);
        assert!(r.pin_version(5).is_none(), "pruned version is gone");
        assert!(r.pin_version(9).is_some());
    }

    #[test]
    fn external_pin_blocks_pruning() {
        let r = R::new(AugMap::new(), 2);
        r.publish(1, map_of(&[(1, 1)]), 1);
        let pin = r.pin_version(1).unwrap();
        for v in 2..=8u64 {
            r.publish(v, map_of(&[(v, v)]), 1);
        }
        // v1 is pinned: it (and everything newer, by registry order)
        // survives
        assert!(r.pin_version(1).is_some());
        assert_eq!(pin.map().get(&1), Some(&1));
        drop(pin);
        r.publish(9, map_of(&[(9, 9)]), 1);
        assert!(r.pin_version(1).is_none(), "unpinned history now pruned");
    }

    #[test]
    fn tags_pin_by_name() {
        let r = R::new(map_of(&[(7, 7)]), 2);
        assert_eq!(r.tag("genesis"), 0);
        for v in 1..=6u64 {
            r.publish(v, map_of(&[(v, v)]), 1);
        }
        let g = r.pin_tagged("genesis").expect("tag holds v0");
        assert_eq!(g.id(), 0);
        assert_eq!(g.map().get(&7), Some(&7));
        assert_eq!(r.untag("genesis"), Some(0));
        assert!(r.pin_tagged("genesis").is_none());
    }

    #[test]
    fn infos_report_pins_and_tags() {
        let r = R::new(AugMap::new(), 8);
        r.publish(1, map_of(&[(1, 1)]), 1);
        r.publish(2, map_of(&[(1, 1), (2, 2)]), 1);
        let _pin = r.pin_version(1).unwrap();
        r.tag("head2");
        let infos = r.infos();
        assert_eq!(infos.len(), 3);
        assert_eq!(infos[1].id, 1);
        assert_eq!(infos[1].pins, 1);
        assert_eq!(infos[2].tags, vec!["head2".to_string()]);
        assert_eq!(infos[2].len, 2);
    }
}
