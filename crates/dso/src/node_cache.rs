//! A co-located read cache shared by every function container on one FaaS
//! host.
//!
//! A client's own read cache is a private [`NodeCache`] inside one
//! `DsoClient`, so its warmth dies with the function invocation — exactly
//! the ephemerality problem §3 of the paper works around. A shared
//! [`NodeCache`] instead belongs to the *host* (see `faas::FnCtx::host`):
//! containers come and go, each connecting a fresh client, but they all
//! share the host's cache, so the first container's read warms every
//! later one.
//!
//! Both tiers are read through the client's one cache probe: entries
//! remember the `(version, lamport)` piggybacked on the reply that
//! installed them; within the policy's lease they are served locally, and
//! after it they are revalidated with a dispatcher-level version probe;
//! either way the reading session must admit them. Writes issued through a
//! co-located client invalidate eagerly. Hits, misses and invalidations of
//! the host tier are counted under `dso.node_cache.*` (disjoint from the
//! client-private `dso.read_cache.*`).

use bytes::Bytes;
use parking_lot::Mutex;
use simcore::{FxHashMap, SimTime};

use crate::object::ObjectRef;

/// Cache key: one entry per `(object, method, arguments)` triple, the same
/// granularity as the client cache.
pub type NodeCacheKey = (ObjectRef, &'static str, Bytes);

/// One cached read result with the coherence metadata needed to serve or
/// revalidate it.
#[derive(Clone, Debug)]
pub struct NodeEntry {
    /// The encoded reply bytes.
    pub bytes: Bytes,
    /// Object version (mutation count) piggybacked on the installing read.
    pub version: u64,
    /// Lamport stamp piggybacked on the installing read (for causal
    /// admission).
    pub lamport: u64,
    /// Virtual time of the last validation against an owner node.
    pub validated_at: SimTime,
}

/// A per-host shared read cache. Cheap to clone the `Arc` around it; the
/// interior mutex is uncontended in simulation (one event at a time) and
/// exists so co-located simulated processes can share it mutably.
#[derive(Debug, Default)]
pub struct NodeCache {
    entries: Mutex<FxHashMap<NodeCacheKey, NodeEntry>>,
}

impl NodeCache {
    /// An empty cache.
    pub fn new() -> NodeCache {
        NodeCache::default()
    }

    /// Looks up an entry, cloning it out (the payload is refcounted).
    pub fn get(&self, key: &NodeCacheKey) -> Option<NodeEntry> {
        self.entries.lock().get(key).cloned()
    }

    /// Installs (or replaces) an entry.
    pub fn insert(&self, key: NodeCacheKey, entry: NodeEntry) {
        self.entries.lock().insert(key, entry);
    }

    /// Marks an entry as freshly validated at `now`, restarting its lease.
    pub fn revalidate(&self, key: &NodeCacheKey, now: SimTime) {
        if let Some(e) = self.entries.lock().get_mut(key) {
            e.validated_at = now;
        }
    }

    /// Drops one entry (failed revalidation).
    pub fn remove(&self, key: &NodeCacheKey) {
        self.entries.lock().remove(key);
    }

    /// Drops every entry for `obj` (a co-located client wrote it).
    /// Returns how many entries were removed.
    pub fn invalidate(&self, obj: &ObjectRef) -> usize {
        let mut entries = self.entries.lock();
        let before = entries.len();
        entries.retain(|(o, _, _), _| o != obj);
        before - entries.len()
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.entries.lock().len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.lock().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(obj: &str, method: &'static str) -> NodeCacheKey {
        (ObjectRef::new("T", obj), method, Bytes::new())
    }

    fn entry(version: u64) -> NodeEntry {
        NodeEntry {
            bytes: Bytes::from_static(b"v"),
            version,
            lamport: version,
            validated_at: SimTime::ZERO,
        }
    }

    #[test]
    fn insert_get_revalidate_invalidate() {
        let nc = NodeCache::new();
        assert!(nc.is_empty());
        nc.insert(key("a", "get"), entry(3));
        nc.insert(key("a", "size"), entry(3));
        nc.insert(key("b", "get"), entry(1));
        assert_eq!(nc.len(), 3);
        assert_eq!(nc.get(&key("a", "get")).expect("cached").version, 3);
        assert!(nc.get(&key("c", "get")).is_none());

        let later = SimTime::ZERO + std::time::Duration::from_millis(5);
        nc.revalidate(&key("a", "get"), later);
        assert_eq!(nc.get(&key("a", "get")).expect("cached").validated_at, later);

        // A write to `a` drops both of its entries, not `b`'s.
        assert_eq!(nc.invalidate(&ObjectRef::new("T", "a")), 2);
        assert_eq!(nc.len(), 1);
        assert!(nc.get(&key("b", "get")).is_some());

        nc.remove(&key("b", "get"));
        assert!(nc.is_empty());
    }
}
