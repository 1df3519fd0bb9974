//! Keyspace-sharded cache: N independent [`KvCache`]s behind one
//! [`Cache`] facade.
//!
//! A single [`KvCache`] funnels every SET through one index, so the
//! serving layer inherits that index's contention wall. [`ShardedCache`]
//! partitions the keyspace with the same byte-string hash the sharded tree
//! uses ([`fptree_core::shard::bytes_shard`]), giving every shard its own
//! index, item store and metrics registry — a cache shard and a tree shard
//! always agree on key placement, so a shard's cache entries live in that
//! shard's pool file.
//!
//! Cross-shard semantics:
//!
//! * point commands (SET/GET/DELETE) touch exactly one shard;
//! * `set_batch` splits into per-shard sub-batches committed in shard order
//!   on the caller's thread (each through its shard index's amortized
//!   batched write path) — the caller is a reactor turn, which starts no
//!   thread;
//! * `scan` merges the per-shard ordered scans into one sorted,
//!   duplicate-free result (shards hold disjoint keys);
//! * `stats` aggregates shard snapshots via `Snapshot::merge`; the
//!   per-shard breakdown stays behind the `stats shards` wire command.

use std::sync::Arc;

use fptree_core::index::BytesIndex;
use fptree_core::metrics::{Metrics, Snapshot};
use fptree_core::shard::bytes_shard;

use crate::cache::{Cache, KvCache, ScanItem};

/// A keyspace-sharded family of [`KvCache`]s behaving as one cache.
pub struct ShardedCache {
    shards: Vec<KvCache>,
    /// Serving-layer registry (protocol/server counters); the per-shard
    /// cache counters live in each shard's own [`KvCache`] registry.
    metrics: Arc<Metrics>,
}

impl ShardedCache {
    /// Builds an unbounded sharded cache, one shard per index. Panics on an
    /// empty index list.
    pub fn new(indexes: Vec<Arc<dyn BytesIndex>>) -> ShardedCache {
        assert!(
            !indexes.is_empty(),
            "sharded cache needs at least one index"
        );
        ShardedCache {
            shards: indexes.into_iter().map(KvCache::new).collect(),
            metrics: Arc::new(Metrics::new()),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard caches themselves, shard order.
    pub fn shards(&self) -> &[KvCache] {
        &self.shards
    }

    /// The shard `key` routes to (same hash as the sharded tree).
    #[inline]
    pub fn shard_for(&self, key: &[u8]) -> usize {
        bytes_shard(key, self.shards.len())
    }

    #[inline]
    fn shard(&self, key: &[u8]) -> &KvCache {
        &self.shards[self.shard_for(key)]
    }
}

impl Cache for ShardedCache {
    fn metrics(&self) -> &Arc<Metrics> {
        &self.metrics
    }

    fn stats_snapshot(&self) -> Snapshot {
        // Serving counters first, then every shard's full stack snapshot
        // merged in (shared fields sum: curr_items totals, cache hit/miss
        // counters add up, tree/pool metrics aggregate).
        let mut snap = self.metrics.snapshot();
        for shard in &self.shards {
            snap.merge(shard.stats_snapshot());
        }
        snap.push("shards", self.shards.len() as u64);
        for (i, shard) in self.shards.iter().enumerate() {
            snap.push(format!("shard{i}_items"), shard.len() as u64);
        }
        snap
    }

    fn shard_stats(&self) -> Option<Vec<Snapshot>> {
        Some(self.shards.iter().map(|s| s.stats_snapshot()).collect())
    }

    fn reset_stats(&self) {
        self.metrics().reset();
        for shard in &self.shards {
            shard.metrics().reset();
        }
    }

    fn set(&self, key: &[u8], flags: u32, data: Vec<u8>) {
        self.shard(key).set(key, flags, data)
    }

    fn set_batch(&self, items: Vec<(Vec<u8>, u32, Vec<u8>)>) {
        type Batch = Vec<(Vec<u8>, u32, Vec<u8>)>;
        let mut parts: Vec<Batch> = (0..self.shards.len()).map(|_| Vec::new()).collect();
        for item in items {
            // Relative order within a shard is preserved, so in-batch
            // duplicate keys keep last-wins semantics (duplicates always
            // land in the same shard).
            parts[self.shard_for(&item.0)].push(item);
        }
        for (shard, part) in self.shards.iter().zip(parts) {
            if !part.is_empty() {
                shard.set_batch(part);
            }
        }
    }

    fn get(&self, key: &[u8]) -> Option<(u32, Vec<u8>)> {
        self.shard(key).get(key)
    }

    fn get_many(&self, keys: &[Vec<u8>]) -> Vec<Option<(u32, Vec<u8>)>> {
        if self.shards.len() == 1 {
            return self.shards[0].get_many(keys);
        }
        // Partition by shard (remembering request positions) so each shard
        // answers its group through one batched index lookup, then scatter
        // the answers back into request order.
        let mut groups: Vec<(Vec<usize>, Vec<Vec<u8>>)> = (0..self.shards.len())
            .map(|_| (Vec::new(), Vec::new()))
            .collect();
        for (pos, key) in keys.iter().enumerate() {
            let g = &mut groups[self.shard_for(key)];
            g.0.push(pos);
            g.1.push(key.clone());
        }
        let mut out = vec![None; keys.len()];
        for (i, (positions, group_keys)) in groups.into_iter().enumerate() {
            if group_keys.is_empty() {
                continue;
            }
            for (pos, item) in positions
                .into_iter()
                .zip(self.shards[i].get_many(&group_keys))
            {
                out[pos] = item;
            }
        }
        out
    }

    fn delete(&self, key: &[u8]) -> bool {
        self.shard(key).delete(key)
    }

    fn scan(&self, start: &[u8], count: usize) -> Option<Vec<ScanItem>> {
        // Every shard scans its own slice of the keyspace; since shards
        // hold disjoint keys, one sort over the union re-establishes the
        // global order. Any shard without an ordered index fails the whole
        // scan (mixed-index shard sets are a configuration error).
        let mut all: Vec<ScanItem> = Vec::new();
        for shard in &self.shards {
            all.extend(shard.scan(start, count)?);
        }
        all.sort_by(|a, b| a.0.cmp(&b.0));
        all.truncate(count);
        Some(all)
    }

    fn len(&self) -> usize {
        self.shards.iter().map(|s| s.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fptree_baselines::HashIndex;

    fn hash_indexes(n: usize) -> Vec<Arc<dyn BytesIndex>> {
        (0..n)
            .map(|_| Arc::new(HashIndex::<Vec<u8>>::new(8)) as Arc<dyn BytesIndex>)
            .collect()
    }

    fn tree_indexes(n: usize) -> Vec<Arc<dyn BytesIndex>> {
        use fptree_core::TreeConfig;
        use fptree_pmem::{create_pools, PoolOptions, ROOT_SLOT};
        create_pools(n, PoolOptions::direct(32 << 20))
            .unwrap()
            .into_iter()
            .map(|pool| {
                Arc::new(fptree_core::ConcurrentFPTreeVar::create(
                    pool,
                    TreeConfig::fptree_concurrent_var(),
                    ROOT_SLOT,
                )) as Arc<dyn BytesIndex>
            })
            .collect()
    }

    #[test]
    fn point_ops_route_consistently() {
        let c = ShardedCache::new(hash_indexes(4));
        for i in 0..500u32 {
            c.set(
                format!("key:{i}").as_bytes(),
                i,
                format!("v{i}").into_bytes(),
            );
        }
        assert_eq!(c.len(), 500);
        for i in 0..500u32 {
            let (f, v) = c.get(format!("key:{i}").as_bytes()).unwrap();
            assert_eq!(f, i);
            assert_eq!(v, format!("v{i}").into_bytes());
        }
        assert!(c.delete(b"key:7"));
        assert!(!c.delete(b"key:7"));
        assert_eq!(c.len(), 499);
        // Keys actually spread over multiple shards.
        let populated = c.shards().iter().filter(|s| !s.is_empty()).count();
        assert!(populated >= 2, "all keys landed in {populated} shard(s)");
    }

    #[test]
    fn set_batch_splits_like_loop_of_sets() {
        let c = ShardedCache::new(tree_indexes(3));
        c.set(b"k005", 9, b"old".to_vec());
        let items: Vec<ScanItem> = (0..60u32)
            .map(|i| {
                (
                    format!("k{i:03}").into_bytes(),
                    i,
                    format!("v{i}").into_bytes(),
                )
            })
            .collect();
        c.set_batch(items);
        // In-batch duplicates keep last-wins (both land in one shard).
        c.set_batch(vec![
            (b"dup".to_vec(), 0, b"first".to_vec()),
            (b"dup".to_vec(), 0, b"second".to_vec()),
        ]);
        assert_eq!(c.len(), 61);
        assert_eq!(c.get(b"k005"), Some((5, b"v5".to_vec())));
        assert_eq!(c.get(b"dup"), Some((0, b"second".to_vec())));
    }

    #[test]
    fn scan_merges_shards_sorted_and_dup_free() {
        let c = ShardedCache::new(tree_indexes(4));
        for i in (0..100u32).rev() {
            c.set(format!("key:{i:04}").as_bytes(), i, vec![i as u8]);
        }
        let items = c.scan(b"key:0040", 10).unwrap();
        let keys: Vec<_> = items
            .iter()
            .map(|(k, _, _)| String::from_utf8_lossy(k).into_owned())
            .collect();
        let expect: Vec<String> = (40..50).map(|i| format!("key:{i:04}")).collect();
        assert_eq!(keys, expect);
        // Hash shards cannot scan.
        assert!(ShardedCache::new(hash_indexes(2)).scan(b"", 5).is_none());
    }

    #[test]
    fn get_many_returns_request_order_across_shards() {
        let c = ShardedCache::new(hash_indexes(4));
        c.set(b"a", 1, b"A".to_vec());
        c.set(b"c", 3, b"C".to_vec());
        c.set(b"e", 5, b"E".to_vec());
        let got = c.get_many(&[b"c".to_vec(), b"b".to_vec(), b"e".to_vec(), b"a".to_vec()]);
        assert_eq!(
            got,
            vec![
                Some((3, b"C".to_vec())),
                None,
                Some((5, b"E".to_vec())),
                Some((1, b"A".to_vec())),
            ]
        );
    }

    #[test]
    fn stats_aggregate_and_break_down_per_shard() {
        let c = ShardedCache::new(hash_indexes(2));
        for i in 0..100u32 {
            c.set(format!("key:{i}").as_bytes(), 0, b"v".to_vec());
        }
        let snap = c.stats_snapshot();
        assert_eq!(snap.get("shards"), Some(2));
        assert_eq!(snap.get("curr_items"), Some(100));
        let s0 = snap.get("shard0_items").unwrap();
        let s1 = snap.get("shard1_items").unwrap();
        assert_eq!(s0 + s1, 100);
        let per_shard = c.shard_stats().unwrap();
        assert_eq!(per_shard.len(), 2);
        assert_eq!(
            per_shard[0].get("curr_items").unwrap() + per_shard[1].get("curr_items").unwrap(),
            100
        );
        // Unsharded caches expose no breakdown.
        assert!(KvCache::new(hash_indexes(1).pop().unwrap())
            .shard_stats()
            .is_none());
        // reset_stats reaches the shard registries too.
        if fptree_core::Metrics::enabled() {
            assert!(c.stats_snapshot().get("cache_hits").is_some());
            c.get(b"key:1");
            c.reset_stats();
            assert_eq!(c.stats_snapshot().get("cache_hits"), Some(0));
        }
    }

    #[test]
    fn concurrent_sets_across_shards() {
        let c = Arc::new(ShardedCache::new(tree_indexes(4)));
        let handles: Vec<_> = (0..4)
            .map(|t: u32| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for i in 0..1000u32 {
                        let key = format!("t{t}:{i}");
                        c.set(key.as_bytes(), t, i.to_le_bytes().to_vec());
                        assert_eq!(c.get(key.as_bytes()).unwrap().1, i.to_le_bytes().to_vec());
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.len(), 4000);
    }
}
