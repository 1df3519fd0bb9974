//! The cache core: memcached semantics over a pluggable index.
//!
//! The paper replaces memcached's hash table with the variable-size-key
//! versions of the evaluated trees (§6.4), inserting the *full string key*
//! (not its hash) and relying on the tree's own concurrency scheme instead
//! of memcached's bucket locks. [`KvCache`] is that seam: SET/GET/DELETE
//! over any [`BytesIndex`].

use std::sync::Arc;

use fptree_core::index::BytesIndex;
use fptree_core::metrics::{Counter, Metrics, Snapshot};

use crate::lru::LruList;
use crate::store::{Item, ItemStore};

/// Index re-reads [`KvCache::get`] makes before it reports a miss for a key
/// whose handle keeps being retired under it.
const RESOLVE_RETRIES: usize = 8;

/// One scanned cache item: `(key, flags, data)`.
pub type ScanItem = (Vec<u8>, u32, Vec<u8>);

/// The serving seam between the protocol/server/bench layers and a cache
/// implementation: [`KvCache`] (one index, one LRU) and
/// [`crate::ShardedCache`] (keyspace-partitioned independent caches) both
/// implement it, so every front-end gets sharding for free via
/// `Arc<dyn Cache>`.
pub trait Cache: Send + Sync {
    /// The serving-layer observability registry (command / byte /
    /// connection counters recorded by the protocol and server layers).
    fn metrics(&self) -> &Arc<Metrics>;

    /// One flat snapshot spanning the whole stack (serving counters, cache
    /// counters, underlying index metrics).
    fn stats_snapshot(&self) -> Snapshot;

    /// Per-shard snapshot breakdown, shard order; `None` when the cache is
    /// not sharded (the `stats shards` wire command answers an error).
    fn shard_stats(&self) -> Option<Vec<Snapshot>> {
        None
    }

    /// Zeroes every counter the stats report draws from (`stats reset`).
    fn reset_stats(&self) {
        self.metrics().reset();
    }

    /// SET: stores `key → (flags, data)`, replacing any existing value.
    fn set(&self, key: &[u8], flags: u32, data: Vec<u8>);

    /// Batched SET; see [`KvCache::set_batch`] for the semantics.
    fn set_batch(&self, items: Vec<(Vec<u8>, u32, Vec<u8>)>);

    /// GET: `(flags, data)` if present.
    fn get(&self, key: &[u8]) -> Option<(u32, Vec<u8>)>;

    /// Multi-key GET: one result per requested key, request order.
    fn get_many(&self, keys: &[Vec<u8>]) -> Vec<Option<(u32, Vec<u8>)>>;

    /// DELETE: true if the key existed.
    fn delete(&self, key: &[u8]) -> bool;

    /// Ordered SCAN; `None` when the index cannot scan (hash).
    fn scan(&self, start: &[u8], count: usize) -> Option<Vec<ScanItem>>;

    /// Number of cached keys.
    fn len(&self) -> usize;

    /// True if no keys are cached.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A memcached-style cache over a pluggable index, with memcached's
/// globally locked LRU eviction when a capacity is set.
///
/// ```
/// use std::sync::Arc;
/// use fptree_kvcache::KvCache;
/// use fptree_baselines::HashIndex;
///
/// let cache = KvCache::with_capacity(Arc::new(HashIndex::<Vec<u8>>::new(8)), 2);
/// cache.set(b"a", 0, b"1".to_vec());
/// cache.set(b"b", 0, b"2".to_vec());
/// cache.set(b"c", 0, b"3".to_vec()); // evicts the LRU key "a"
/// assert!(cache.get(b"a").is_none());
/// assert_eq!(cache.get(b"c").unwrap().1, b"3");
/// ```
pub struct KvCache {
    index: Arc<dyn BytesIndex>,
    store: ItemStore,
    lru: LruList,
    max_items: Option<usize>,
    metrics: Arc<Metrics>,
}

impl KvCache {
    /// Builds an unbounded cache over `index`.
    pub fn new(index: Arc<dyn BytesIndex>) -> KvCache {
        KvCache {
            index,
            store: ItemStore::new(64),
            lru: LruList::new(),
            max_items: None,
            metrics: Arc::new(Metrics::new()),
        }
    }

    /// Builds a bounded cache: beyond `max_items`, SETs evict the least
    /// recently used key (memcached semantics).
    pub fn with_capacity(index: Arc<dyn BytesIndex>, max_items: usize) -> KvCache {
        assert!(max_items > 0, "capacity must be positive");
        KvCache {
            index,
            store: ItemStore::new(64),
            lru: LruList::new(),
            max_items: Some(max_items),
            metrics: Arc::new(Metrics::new()),
        }
    }

    /// The cache's own observability registry (command/byte/connection
    /// counters recorded by the protocol and server layers).
    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.metrics
    }

    /// One flat snapshot spanning the whole stack: the cache/server
    /// counters followed by the underlying tree's metrics (op latencies,
    /// contention, `htm_*`, `pmem_*`) when the index is instrumented.
    pub fn stats_snapshot(&self) -> Snapshot {
        let mut snap = self.metrics.snapshot();
        snap.push("curr_items", self.index.len() as u64);
        if let Some(tree) = self.index.metrics_snapshot() {
            snap.merge(tree);
        }
        snap
    }

    /// SET: stores `key → (flags, data)`, replacing any existing value and
    /// evicting the LRU tail when over capacity.
    pub fn set(&self, key: &[u8], flags: u32, data: Vec<u8>) {
        let handle = self.store.put(Item { flags, data });
        // Fast path: update in place; fall back to insert for new keys.
        if let Some(old) = self.swap_handle(key, handle) {
            self.store.remove(old);
        }
        self.maybe_evict(key);
    }

    /// Batched SET: the amortized-persistence counterpart of looping
    /// [`KvCache::set`], used by the server to coalesce pipelined sets. Keys
    /// not yet cached are inserted through the index's batched write path
    /// (one flush/fence set per touched leaf on tree indexes); existing keys
    /// are updated in place. Duplicate keys within one batch keep the
    /// **last** item, matching a loop of sets.
    pub fn set_batch(&self, items: Vec<(Vec<u8>, u32, Vec<u8>)>) {
        let mut by_key: Vec<(Vec<u8>, u64)> = Vec::with_capacity(items.len());
        for (key, flags, data) in items {
            let handle = self.store.put(Item { flags, data });
            if let Some(prev) = by_key.iter_mut().find(|(k, _)| *k == key) {
                // In-batch duplicate: the later set wins, the earlier item
                // is dead before it ever reaches the index.
                self.store.remove(prev.1);
                prev.1 = handle;
            } else {
                by_key.push((key, handle));
            }
        }
        // Split into fresh inserts (batched) and in-place updates.
        let current = self
            .index
            .get_batch(&by_key.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>());
        let mut fresh: Vec<(Vec<u8>, u64)> = Vec::new();
        for ((key, handle), cur) in by_key.iter().zip(&current) {
            match cur {
                Some(_) => {
                    if let Some(old) = self.swap_handle(key, *handle) {
                        self.store.remove(old);
                    }
                }
                None => fresh.push((key.clone(), *handle)),
            }
        }
        if !fresh.is_empty() {
            self.index.insert_batch(&fresh);
            // A concurrent set may have won the insert race for some keys;
            // fall back to the swap path so the batch's value still lands
            // (unordered concurrent sets: either value is a valid outcome,
            // but the loser's item must not leak).
            for (key, handle) in &fresh {
                if self.index.get(key) != Some(*handle) {
                    if let Some(old) = self.swap_handle(key, *handle) {
                        self.store.remove(old);
                    }
                }
            }
        }
        for (key, _) in &by_key {
            self.maybe_evict(key);
        }
    }

    /// Refreshes `key`'s recency and evicts LRU victims while over
    /// capacity. No-op on unbounded caches.
    fn maybe_evict(&self, key: &[u8]) {
        if let Some(cap) = self.max_items {
            let tracked = self.lru.touch(key);
            if tracked > cap {
                // Evict strictly LRU keys until back at capacity; skip the
                // key just written (it is at the front by construction).
                while self.lru.len() > cap {
                    let Some(victim) = self.lru.evict() else {
                        break;
                    };
                    if self.delete_evicted(&victim) {
                        // Only count an eviction when a mapping was actually
                        // removed — a victim already deleted (or re-written
                        // concurrently) is not an eviction.
                        self.metrics.inc(Counter::CacheEvictions);
                    }
                }
            }
        }
    }

    /// Removes an eviction victim, but only if its mapping is unchanged:
    /// between reading the handle and removing the key, a concurrent `set`
    /// can swap in a fresh handle, and an unconditional remove would drop
    /// that fresh mapping while freeing the stale handle — leaking the
    /// just-written item. The compare-and-remove backs off instead.
    fn delete_evicted(&self, key: &[u8]) -> bool {
        if let Some(handle) = self.index.get(key) {
            if self.index.remove_if(key, handle) {
                self.store.remove(handle);
                return true;
            }
        }
        false
    }

    /// Installs `handle` for `key`, returning the handle it displaced (the
    /// caller frees it). The compare-and-update is what makes the returned
    /// handle safe to free: a plain `update` after a racing set would
    /// replace the racer's fresh handle while this thread frees the stale
    /// handle it read earlier — freeing one item twice and leaking another.
    fn swap_handle(&self, key: &[u8], handle: u64) -> Option<u64> {
        loop {
            match self.index.get(key) {
                Some(h) => {
                    if self.index.update_if(key, h, handle) {
                        // Exactly one updater displaces h, so exactly one
                        // caller frees it.
                        return Some(h);
                    }
                    // Value changed (or key vanished) since the get: retry.
                }
                None => {
                    if self.index.insert(key, handle) {
                        return None;
                    }
                    // Key appeared concurrently: retry as update.
                }
            }
        }
    }

    /// Reads the item `key` maps to, given the handle the index returned
    /// for it. A racing `set` of the same key can free that item between
    /// the two reads; the store then refuses the retired handle (it never
    /// hands back the slot's next tenant) and the key's *current* handle is
    /// read again, so the race yields neither a foreign value nor a miss
    /// for a key that was never deleted. Bounded: each retry needs yet
    /// another `set` of this key to land inside the window.
    fn resolve(&self, key: &[u8], mut handle: Option<u64>) -> Option<(u32, Vec<u8>)> {
        for _ in 0..RESOLVE_RETRIES {
            if let Some(item) = self.store.get(handle?) {
                return Some((item.flags, item.data));
            }
            handle = self.index.get(key);
        }
        None
    }

    /// GET: returns `(flags, data)` if present; refreshes LRU recency.
    pub fn get(&self, key: &[u8]) -> Option<(u32, Vec<u8>)> {
        let item = self.resolve(key, self.index.get(key));
        if item.is_some() {
            self.metrics.inc(Counter::CacheHits);
            if self.max_items.is_some() {
                self.lru.touch(key);
            }
        } else {
            self.metrics.inc(Counter::CacheMisses);
        }
        item
    }

    /// DELETE: removes the key; true if it existed. Uses the same
    /// compare-and-remove as eviction so a racing `set` never has its fresh
    /// item freed under it; on a lost race the delete retries against the
    /// new handle (the delete arrived after that set, so it must win).
    pub fn delete(&self, key: &[u8]) -> bool {
        loop {
            let Some(handle) = self.index.get(key) else {
                return false;
            };
            if self.index.remove_if(key, handle) {
                self.store.remove(handle);
                if self.max_items.is_some() {
                    self.lru.remove(key);
                }
                return true;
            }
        }
    }

    /// Multi-key GET: one result per requested key, in request order. The
    /// index lookups go through [`BytesIndex::get_batch`], so tree-backed
    /// caches answer the whole request under one traversal lock
    /// acquisition; hits refresh LRU recency exactly like single GETs.
    pub fn get_many(&self, keys: &[Vec<u8>]) -> Vec<Option<(u32, Vec<u8>)>> {
        let handles = self.index.get_batch(keys);
        keys.iter()
            .zip(handles)
            .map(|(key, handle)| {
                let item = self.resolve(key, handle);
                if item.is_some() {
                    self.metrics.inc(Counter::CacheHits);
                    if self.max_items.is_some() {
                        self.lru.touch(key);
                    }
                } else {
                    self.metrics.inc(Counter::CacheMisses);
                }
                item
            })
            .collect()
    }

    /// SCAN: up to `count` items with keys `>= start`, in key order, as
    /// `(key, flags, data)`. `None` when the index has no ordered scan
    /// (hash). Scans do not refresh LRU recency: a range read is not a
    /// per-key access signal (and would let one scan wipe the recency
    /// ordering).
    pub fn scan(&self, start: &[u8], count: usize) -> Option<Vec<ScanItem>> {
        let entries = self.index.scan_from(start, count)?;
        Some(
            entries
                .into_iter()
                .filter_map(|(key, handle)| {
                    // A concurrent delete can race the handle lookup; drop
                    // the entry rather than fabricate an empty item.
                    let (flags, data) = self.resolve(&key, Some(handle))?;
                    Some((key, flags, data))
                })
                .collect(),
        )
    }

    /// Number of cached keys.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True if the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }
}

impl Cache for KvCache {
    fn metrics(&self) -> &Arc<Metrics> {
        KvCache::metrics(self)
    }
    fn stats_snapshot(&self) -> Snapshot {
        KvCache::stats_snapshot(self)
    }
    fn set(&self, key: &[u8], flags: u32, data: Vec<u8>) {
        KvCache::set(self, key, flags, data)
    }
    fn set_batch(&self, items: Vec<(Vec<u8>, u32, Vec<u8>)>) {
        KvCache::set_batch(self, items)
    }
    fn get(&self, key: &[u8]) -> Option<(u32, Vec<u8>)> {
        KvCache::get(self, key)
    }
    fn get_many(&self, keys: &[Vec<u8>]) -> Vec<Option<(u32, Vec<u8>)>> {
        KvCache::get_many(self, keys)
    }
    fn delete(&self, key: &[u8]) -> bool {
        KvCache::delete(self, key)
    }
    fn scan(&self, start: &[u8], count: usize) -> Option<Vec<ScanItem>> {
        KvCache::scan(self, start, count)
    }
    fn len(&self) -> usize {
        KvCache::len(self)
    }
    fn is_empty(&self) -> bool {
        KvCache::is_empty(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fptree_baselines::HashIndex;

    fn cache() -> KvCache {
        KvCache::new(Arc::new(HashIndex::<Vec<u8>>::new(16)))
    }

    #[test]
    fn set_get_roundtrip() {
        let c = cache();
        c.set(b"k1", 5, b"value-1".to_vec());
        assert_eq!(c.get(b"k1"), Some((5, b"value-1".to_vec())));
        assert_eq!(c.get(b"missing"), None);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn set_replaces_and_frees_old_item() {
        let c = cache();
        c.set(b"k", 0, b"old".to_vec());
        c.set(b"k", 1, b"new".to_vec());
        assert_eq!(c.get(b"k"), Some((1, b"new".to_vec())));
        assert_eq!(c.len(), 1);
        // The old item must have been freed (store holds exactly one).
        assert_eq!(c.store.len(), 1);
    }

    #[test]
    fn delete_semantics() {
        let c = cache();
        c.set(b"k", 0, b"v".to_vec());
        assert!(c.delete(b"k"));
        assert!(!c.delete(b"k"));
        assert_eq!(c.get(b"k"), None);
        assert!(c.is_empty());
        assert_eq!(c.store.len(), 0);
    }

    #[test]
    fn works_over_tree_indexes() {
        use fptree_core::{Locked, TreeConfig};
        use fptree_pmem::{PmemPool, PoolOptions, ROOT_SLOT};
        let pool = Arc::new(PmemPool::create(PoolOptions::direct(64 << 20)).unwrap());
        let tree = fptree_core::FPTreeVar::create(pool, TreeConfig::fptree_var(), ROOT_SLOT);
        let c = KvCache::new(Arc::new(Locked::new(tree)));
        for i in 0..500 {
            c.set(
                format!("key:{i}").as_bytes(),
                i,
                format!("val-{i}").into_bytes(),
            );
        }
        for i in 0..500 {
            let (f, v) = c.get(format!("key:{i}").as_bytes()).unwrap();
            assert_eq!(f, i);
            assert_eq!(v, format!("val-{i}").into_bytes());
        }
    }

    #[test]
    fn scan_over_tree_index_is_ordered() {
        use fptree_core::{Locked, TreeConfig};
        use fptree_pmem::{PmemPool, PoolOptions, ROOT_SLOT};
        let pool = Arc::new(PmemPool::create(PoolOptions::direct(64 << 20)).unwrap());
        let tree = fptree_core::FPTreeVar::create(pool, TreeConfig::fptree_var(), ROOT_SLOT);
        let c = KvCache::new(Arc::new(Locked::new(tree)));
        for i in (0..100).rev() {
            c.set(format!("key:{i:04}").as_bytes(), i, vec![i as u8]);
        }
        let items = c.scan(b"key:0040", 5).unwrap();
        let keys: Vec<_> = items
            .iter()
            .map(|(k, _, _)| String::from_utf8_lossy(k).into_owned())
            .collect();
        assert_eq!(
            keys,
            ["key:0040", "key:0041", "key:0042", "key:0043", "key:0044"]
        );
        assert_eq!(items[0].1, 40);
        assert_eq!(items[0].2, vec![40u8]);
        // Hash indexes cannot scan.
        assert!(cache().scan(b"", 10).is_none());
    }

    #[test]
    fn get_many_returns_request_order() {
        let c = cache();
        c.set(b"a", 1, b"A".to_vec());
        c.set(b"c", 3, b"C".to_vec());
        let got = c.get_many(&[b"c".to_vec(), b"b".to_vec(), b"a".to_vec()]);
        assert_eq!(
            got,
            vec![Some((3, b"C".to_vec())), None, Some((1, b"A".to_vec())),]
        );
    }

    #[test]
    fn set_batch_matches_loop_of_sets() {
        use fptree_core::{Locked, TreeConfig};
        use fptree_pmem::{PmemPool, PoolOptions, ROOT_SLOT};
        let pool = Arc::new(PmemPool::create(PoolOptions::direct(64 << 20)).unwrap());
        let tree = fptree_core::FPTreeVar::create(pool, TreeConfig::fptree_var(), ROOT_SLOT);
        let c = KvCache::new(Arc::new(Locked::new(tree)));
        c.set(b"k005", 9, b"old".to_vec()); // overwritten by the batch
        let items: Vec<(Vec<u8>, u32, Vec<u8>)> = (0..50u32)
            .map(|i| {
                (
                    format!("k{i:03}").into_bytes(),
                    i,
                    format!("v{i}").into_bytes(),
                )
            })
            .collect();
        c.set_batch(items);
        // In-batch duplicate: the last one wins, like a loop of sets.
        c.set_batch(vec![
            (b"dup".to_vec(), 0, b"first".to_vec()),
            (b"dup".to_vec(), 0, b"second".to_vec()),
        ]);
        assert_eq!(c.len(), 51);
        assert_eq!(c.get(b"k005"), Some((5, b"v5".to_vec())));
        assert_eq!(c.get(b"k049"), Some((49, b"v49".to_vec())));
        assert_eq!(c.get(b"dup"), Some((0, b"second".to_vec())));
        // No leaked store items: one per live key.
        assert_eq!(c.store.len(), 51);
    }

    #[test]
    fn set_batch_respects_capacity() {
        let c = KvCache::with_capacity(Arc::new(HashIndex::<Vec<u8>>::new(4)), 3);
        let items: Vec<(Vec<u8>, u32, Vec<u8>)> = (0..10u32)
            .map(|i| (format!("k{i}").into_bytes(), 0, vec![i as u8]))
            .collect();
        c.set_batch(items);
        assert_eq!(c.len(), 3);
        assert_eq!(c.store.len(), 3);
        assert!(c.get(b"k9").is_some());
        assert!(c.get(b"k0").is_none());
    }

    /// ROADMAP item 1: a `get` that loses the race with a `set` of its key
    /// holds a handle whose item was just freed — and whose slot the next
    /// `put`, of any key, reuses. Every value written to a key starts with
    /// that key and no key is ever deleted, so any other bytes are a
    /// foreign value and any miss is spurious.
    #[test]
    fn readers_beside_writers_on_shared_hot_keys() {
        const THREADS: u64 = 2;
        const REQUESTS: u64 = 6_000_000;
        let c = Arc::new(cache());
        let keys: Arc<Vec<Vec<u8>>> = Arc::new(
            (0..24)
                .map(|k| format!("hot:{k:02}:").into_bytes())
                .collect(),
        );
        let value = |key: &[u8], fill: u64| {
            let mut v = key.to_vec();
            v.resize(key.len() + (fill % 48) as usize, b'a' + (fill % 26) as u8);
            v
        };
        for (k, key) in keys.iter().enumerate() {
            c.set(key, k as u32, value(key, 0));
        }
        let start = Arc::new(std::sync::Barrier::new(THREADS as usize));
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let (c, keys, start) = (Arc::clone(&c), Arc::clone(&keys), Arc::clone(&start));
                std::thread::spawn(move || {
                    let check = |k: usize, got: Option<(u32, Vec<u8>)>| {
                        let (flags, data) =
                            got.unwrap_or_else(|| panic!("spurious miss of key {k}"));
                        let tail = data.strip_prefix(&keys[k][..]).unwrap_or_else(|| {
                            panic!("key {k} answered {:?}", String::from_utf8_lossy(&data))
                        });
                        assert!(tail.iter().all(|b| *b == tail[0]), "torn value for key {k}");
                        assert_eq!(flags, k as u32, "foreign flags for key {k}");
                    };
                    let mut x = 0x9E37_79B9_7F4A_7C15u64 ^ (t + 1);
                    start.wait();
                    for _ in 0..REQUESTS / THREADS {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        let k = (x % 24) as usize;
                        match (x >> 32) % 32 {
                            0..=3 => c.set(&keys[k], k as u32, value(&keys[k], x >> 40)),
                            4 => {
                                let other = (k + 7) % 24;
                                let got = c.get_many(&[keys[k].clone(), keys[other].clone()]);
                                for (k, item) in [k, other].into_iter().zip(got) {
                                    check(k, item);
                                }
                            }
                            _ => check(k, c.get(&keys[k])),
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.len(), 24);
        assert_eq!(c.store.len(), 24, "leaked or dangling store items");
    }

    #[test]
    fn concurrent_set_get() {
        let c = Arc::new(cache());
        let handles: Vec<_> = (0..8)
            .map(|t: u32| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for i in 0..2000u32 {
                        let key = format!("t{t}:{i}");
                        c.set(key.as_bytes(), t, i.to_le_bytes().to_vec());
                        let (f, v) = c.get(key.as_bytes()).unwrap();
                        assert_eq!(f, t);
                        assert_eq!(v, i.to_le_bytes().to_vec());
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.len(), 16_000);
    }
}

#[cfg(test)]
mod lru_tests {
    use super::*;
    use fptree_baselines::HashIndex;

    fn bounded(cap: usize) -> KvCache {
        KvCache::with_capacity(Arc::new(HashIndex::<Vec<u8>>::new(4)), cap)
    }

    #[test]
    fn eviction_keeps_capacity() {
        let c = bounded(3);
        for i in 0..10u32 {
            c.set(format!("k{i}").as_bytes(), 0, vec![i as u8]);
        }
        assert_eq!(c.len(), 3);
        // The three most recent survive.
        assert!(c.get(b"k9").is_some());
        assert!(c.get(b"k8").is_some());
        assert!(c.get(b"k7").is_some());
        assert!(c.get(b"k0").is_none());
        // The store freed evicted items too.
        assert_eq!(c.store.len(), 3);
    }

    #[test]
    fn get_refreshes_recency() {
        let c = bounded(2);
        c.set(b"a", 0, b"1".to_vec());
        c.set(b"b", 0, b"2".to_vec());
        assert!(c.get(b"a").is_some()); // a is now most recent
        c.set(b"c", 0, b"3".to_vec()); // evicts b
        assert!(c.get(b"a").is_some());
        assert!(c.get(b"b").is_none());
        assert!(c.get(b"c").is_some());
    }

    #[test]
    fn overwrite_does_not_evict() {
        let c = bounded(2);
        c.set(b"a", 0, b"1".to_vec());
        c.set(b"b", 0, b"2".to_vec());
        c.set(b"a", 0, b"1b".to_vec()); // overwrite, still 2 keys
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(b"a").unwrap().1, b"1b".to_vec());
        assert!(c.get(b"b").is_some());
    }

    #[test]
    fn delete_untracks() {
        let c = bounded(2);
        c.set(b"a", 0, b"1".to_vec());
        c.set(b"b", 0, b"2".to_vec());
        assert!(c.delete(b"a"));
        c.set(b"c", 0, b"3".to_vec()); // fits without eviction
        assert_eq!(c.len(), 2);
        assert!(c.get(b"b").is_some());
        assert!(c.get(b"c").is_some());
    }

    #[test]
    fn evictions_counted_only_on_actual_removal() {
        let c = bounded(2);
        for i in 0..5u32 {
            c.set(format!("k{i}").as_bytes(), 0, vec![i as u8]);
        }
        if fptree_core::Metrics::enabled() {
            // 5 sets into capacity 2: exactly 3 victims actually removed.
            assert_eq!(c.stats_snapshot().get("cache_evictions"), Some(3));
        }
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn concurrent_set_vs_evict_does_not_leak_items() {
        use fptree_core::{Locked, TreeConfig};
        use fptree_pmem::{PmemPool, PoolOptions, ROOT_SLOT};
        let pool = Arc::new(PmemPool::create(PoolOptions::direct(64 << 20)).unwrap());
        let tree = fptree_core::FPTreeVar::create(pool, TreeConfig::fptree_var(), ROOT_SLOT);
        let c = Arc::new(KvCache::with_capacity(Arc::new(Locked::new(tree)), 16));
        // Writers hammer a small, shared key set so evictions of a key
        // constantly race re-sets of that same key — the window where a
        // stale-handle remove would free the fresh item.
        let handles: Vec<_> = (0..4)
            .map(|t: u32| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for i in 0..3000u32 {
                        let key = format!("k{}", (t * 7 + i) % 24);
                        c.set(key.as_bytes(), t, vec![(i % 251) as u8; 8]);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // Every index entry must resolve to a live item (no mapping ever
        // pointed at a freed handle) ...
        for i in 0..24u32 {
            let key = format!("k{i}");
            if c.get(key.as_bytes()).is_some() {
                assert!(!c.get(key.as_bytes()).unwrap().1.is_empty());
            }
        }
        // ... and no item leaked: the store holds exactly the indexed keys.
        assert_eq!(c.store.len(), c.len(), "leaked or dangling store items");
        assert!(c.len() <= 16);
    }

    #[test]
    fn eviction_works_over_persistent_tree() {
        use fptree_core::{Locked, TreeConfig};
        use fptree_pmem::{PmemPool, PoolOptions, ROOT_SLOT};
        let pool = Arc::new(PmemPool::create(PoolOptions::direct(64 << 20)).unwrap());
        let tree = fptree_core::FPTreeVar::create(pool, TreeConfig::fptree_var(), ROOT_SLOT);
        let c = KvCache::with_capacity(Arc::new(Locked::new(tree)), 50);
        for i in 0..300u32 {
            c.set(format!("key:{i:04}").as_bytes(), 0, vec![0u8; 8]);
        }
        assert_eq!(c.len(), 50);
        assert!(c.get(b"key:0299").is_some());
        assert!(c.get(b"key:0000").is_none());
    }
}
