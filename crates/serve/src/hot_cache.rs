//! The in-memory hot tier in front of the on-disk report store.
//!
//! A disk-memoized hit is already ~3000x cheaper than computing, but it
//! still pays a file open and read and two checksum passes *per hit* (its
//! LRU stamp is batched into the store's once-per-second manifest write).
//! [`HotCache`] keeps the hottest response bodies as ready-to-splice
//! strings keyed by request digest, so a repeated hot request costs one
//! map probe and one clone.
//!
//! Sizing is by **bytes, not entries** (bodies vary from hundreds of
//! bytes to tens of kilobytes): insertion evicts least-recently-used
//! entries until the new body fits under `max_bytes`. A body larger than
//! the whole budget is simply not cached — the disk tier still has it.
//!
//! The cache is a plain single-threaded structure; the service wraps it
//! in a `Mutex`. That is deliberate: the critical section is a probe or
//! an insert (microseconds), and one lock is cheaper and easier to reason
//! about than sharded LRU bookkeeping at this request rate.

use std::collections::HashMap;

/// Default hot-cache budget: 64 MiB of response bodies.
pub const DEFAULT_HOT_MAX_BYTES: u64 = 64 << 20;

/// Fixed per-entry overhead charged against the budget (digest key plus
/// map/recency bookkeeping), so thousands of tiny bodies don't account
/// as free.
const ENTRY_OVERHEAD_BYTES: u64 = 64;

/// Cumulative hot-tier counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HotCacheCounters {
    /// Probes that returned a body.
    pub hits: u64,
    /// Probes that found nothing.
    pub misses: u64,
    /// Bodies inserted.
    pub insertions: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
    /// Bytes reclaimed by those evictions (bodies plus overhead).
    pub evicted_bytes: u64,
}

#[derive(Debug)]
struct HotEntry {
    body: String,
    stamp: u64,
}

/// A bounded LRU (by bytes) map from request digest to response body.
/// See the [module docs](self) for the tiering rationale.
#[derive(Debug)]
pub struct HotCache {
    map: HashMap<[u8; 32], HotEntry>,
    max_bytes: u64,
    total_bytes: u64,
    clock: u64,
    counters: HotCacheCounters,
}

fn entry_cost(body: &str) -> u64 {
    body.len() as u64 + ENTRY_OVERHEAD_BYTES
}

impl HotCache {
    /// An empty cache with a `max_bytes` budget (0 admits nothing).
    pub fn new(max_bytes: u64) -> HotCache {
        HotCache {
            map: HashMap::new(),
            max_bytes,
            total_bytes: 0,
            clock: 0,
            counters: HotCacheCounters::default(),
        }
    }

    /// Probes for `digest`; a hit refreshes its recency and returns a
    /// clone of the body.
    pub fn get(&mut self, digest: &[u8; 32]) -> Option<String> {
        self.clock += 1;
        match self.map.get_mut(digest) {
            Some(entry) => {
                entry.stamp = self.clock;
                self.counters.hits += 1;
                Some(entry.body.clone())
            }
            None => {
                self.counters.misses += 1;
                None
            }
        }
    }

    /// Inserts (or refreshes) `digest -> body`, evicting least-recently
    /// used entries until it fits. A body bigger than the whole budget is
    /// ignored.
    pub fn insert(&mut self, digest: [u8; 32], body: &str) {
        let cost = entry_cost(body);
        if cost > self.max_bytes {
            return;
        }
        self.clock += 1;
        if let Some(old) = self.map.remove(&digest) {
            self.total_bytes -= entry_cost(&old.body);
        }
        while self.total_bytes + cost > self.max_bytes {
            let Some(victim) = self
                .map
                .iter()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(k, _)| *k)
            else {
                break;
            };
            if let Some(evicted) = self.map.remove(&victim) {
                let reclaimed = entry_cost(&evicted.body);
                self.total_bytes -= reclaimed;
                self.counters.evictions += 1;
                self.counters.evicted_bytes += reclaimed;
            }
        }
        self.total_bytes += cost;
        self.counters.insertions += 1;
        self.map.insert(digest, HotEntry { body: body.to_string(), stamp: self.clock });
    }

    /// Entries currently cached.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Bytes currently charged against the budget.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// The byte budget.
    pub fn max_bytes(&self) -> u64 {
        self.max_bytes
    }

    /// Cumulative counters.
    pub fn counters(&self) -> HotCacheCounters {
        self.counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digest(tag: u8) -> [u8; 32] {
        [tag; 32]
    }

    #[test]
    fn hit_returns_the_exact_inserted_bytes() {
        let mut cache = HotCache::new(1 << 20);
        let body = "{\"rows\":[1,2,3],\"digest\":\"abc\"}";
        cache.insert(digest(1), body);
        assert_eq!(cache.get(&digest(1)).as_deref(), Some(body));
        assert_eq!(cache.get(&digest(2)), None);
        let c = cache.counters();
        assert_eq!((c.hits, c.misses, c.insertions), (1, 1, 1));
    }

    #[test]
    fn eviction_is_least_recently_used_by_bytes() {
        // Budget fits exactly two entries of this size.
        let body = "x".repeat(100);
        let budget = 2 * entry_cost(&body);
        let mut cache = HotCache::new(budget);
        cache.insert(digest(1), &body);
        cache.insert(digest(2), &body);
        // Touch 1 so 2 becomes the LRU victim.
        assert!(cache.get(&digest(1)).is_some());
        cache.insert(digest(3), &body);
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&digest(1)).is_some(), "recently used survives");
        assert!(cache.get(&digest(2)).is_none(), "LRU entry was evicted");
        assert!(cache.get(&digest(3)).is_some());
        let c = cache.counters();
        assert_eq!(c.evictions, 1);
        assert_eq!(c.evicted_bytes, entry_cost(&body));
        assert!(cache.total_bytes() <= budget);
    }

    #[test]
    fn oversized_bodies_are_not_cached() {
        let mut cache = HotCache::new(64);
        cache.insert(digest(1), &"y".repeat(1000));
        assert!(cache.is_empty());
        assert_eq!(cache.total_bytes(), 0);
        assert_eq!(cache.counters().insertions, 0);
    }

    #[test]
    fn reinserting_a_digest_replaces_without_double_charging() {
        let mut cache = HotCache::new(1 << 20);
        cache.insert(digest(5), "short");
        let first = cache.total_bytes();
        cache.insert(digest(5), "a rather longer body than before");
        assert_eq!(cache.len(), 1);
        assert!(cache.total_bytes() > first);
        assert_eq!(
            cache.get(&digest(5)).as_deref(),
            Some("a rather longer body than before")
        );
    }

    #[test]
    fn zero_budget_admits_nothing() {
        let mut cache = HotCache::new(0);
        cache.insert(digest(1), "tiny");
        assert!(cache.is_empty());
    }
}
