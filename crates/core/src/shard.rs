//! Keyspace-sharded multi-tree serving layer.
//!
//! One [`ConcurrentTree`] is ultimately bounded by its single global
//! seqlock version counter and one micro-log set: every structural writer
//! bumps the same version word, aborting every concurrent speculative
//! section tree-wide. [`Sharded`] sidesteps that wall by hash-partitioning
//! the keyspace across N fully independent trees — each shard has its own
//! pmem pool ("file"), allocator, micro-log set, metrics registry, and
//! recovery — so writers only ever contend with writers of the *same*
//! shard.
//!
//! Routing is a multiply-shift over a mixed 64-bit hash ([`u64_shard`] /
//! [`bytes_shard`]): Fibonacci hashing for u64 keys, an FxHash-style
//! word-at-a-time mix for byte-string keys. The mapping is deterministic
//! and persisted nowhere — recovery re-derives it from the shard count, so
//! a pool family must always be reopened with all of its shard files
//! (see [`fptree_pmem::poolset`]).
//!
//! Cross-shard invariants:
//!
//! * every key routes to exactly one shard, so point ops are one-shard ops;
//! * ordered scans k-way merge the per-shard scan iterators (each already
//!   sorted and duplicate-free) with a monotonic emission filter, so
//!   [`Sharded::scan`] output is bit-identical to a single tree holding
//!   the union of the shards;
//! * [`Sharded::open_with`] recovers shards *concurrently*, at most
//!   `threads` at a time, each shard running the phase-parallel recovery
//!   pipeline on its slice of the worker budget;
//! * `insert_batch` / `remove_batch` split into per-shard sub-batches
//!   committed in shard order on the caller's thread, keeping the one
//!   coalesced-flush-per-leaf-run amortization within each shard. A batch
//!   starts no thread: the caller is a request path (DESIGN.md §5.10).

use std::sync::Arc;

use fptree_pmem::{PmemPool, USER_BASE};

use crate::api::Error;
use crate::concurrent::ConcurrentTree;
use crate::config::TreeConfig;
use crate::keys::{FixedKey, KeyKind, VarKey};
use crate::metrics::Snapshot;
use crate::scan::{Scan, ScanBounds};

/// Keys that can be routed to a shard: anything with a well-mixed 64-bit
/// hash whose *high* bits are uniform (the multiply-shift range reduction
/// in [`shard_of`] consumes high bits).
pub trait ShardKey {
    /// A mixed 64-bit hash of the key.
    fn shard_hash(&self) -> u64;
}

/// 2^64 / φ — the Fibonacci hashing multiplier (also the final avalanche
/// multiplier for byte strings).
const FIB: u64 = 0x9E37_79B9_7F4A_7C15;
/// FxHash's word multiplier for the byte-string mix.
const FX: u64 = 0x517c_c1b7_2722_0a95;

impl ShardKey for u64 {
    #[inline]
    fn shard_hash(&self) -> u64 {
        // Fibonacci hashing with one extra fold so low-entropy (sequential)
        // keys land uniformly in the high bits too.
        let h = self.wrapping_mul(FIB);
        (h ^ (h >> 32)).wrapping_mul(FIB)
    }
}

impl ShardKey for [u8] {
    #[inline]
    fn shard_hash(&self) -> u64 {
        // FxHash-style: fold 8-byte little-endian words (zero-padded tail),
        // then mix the length in (so a key and its zero-extension differ)
        // and avalanche for the high bits.
        let mut h = 0u64;
        for chunk in self.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            h = (h.rotate_left(5) ^ u64::from_le_bytes(word)).wrapping_mul(FX);
        }
        h ^= self.len() as u64;
        let h = h.wrapping_mul(FIB);
        (h ^ (h >> 32)).wrapping_mul(FIB)
    }
}

impl ShardKey for Vec<u8> {
    #[inline]
    fn shard_hash(&self) -> u64 {
        self.as_slice().shard_hash()
    }
}

/// Range-reduces a mixed hash onto `n` shards via multiply-shift (uses the
/// hash's high bits; exact for any `n`, not just powers of two).
#[inline]
pub fn shard_of(hash: u64, n: usize) -> usize {
    ((hash as u128 * n as u128) >> 64) as usize
}

/// Shard index for a u64 key.
#[inline]
pub fn u64_shard(key: u64, n: usize) -> usize {
    shard_of(key.shard_hash(), n)
}

/// Shard index for a byte-string key. The kvcache's `ShardedCache` routes
/// with this same function, so a cache shard and its backing tree always
/// agree on key placement.
#[inline]
pub fn bytes_shard(key: &[u8], n: usize) -> usize {
    shard_of(key.shard_hash(), n)
}

/// A hash-sharded family of [`ConcurrentTree`]s behaving as one index.
///
/// Built by [`Sharded::try_create`] / [`Sharded::open`] from a vector of
/// pools, one shard per pool. See the module docs for the invariants.
pub struct Sharded<K: KeyKind> {
    shards: Vec<ConcurrentTree<K>>,
}

impl<K: KeyKind> std::fmt::Debug for Sharded<K> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sharded")
            .field("shards", &self.shards.len())
            .finish()
    }
}

/// Sharded fixed-key (u64) tree.
pub type ShardedTree = Sharded<FixedKey>;
/// Sharded variable-key (byte-string) tree.
pub type ShardedTreeVar = Sharded<VarKey>;

impl<K: KeyKind> Sharded<K>
where
    K::Owned: ShardKey,
{
    /// Creates a fresh sharded tree, one shard per pool. Every shard uses
    /// the same `owner_slot` within its own pool. Panics where
    /// [`Sharded::try_create`] errs.
    pub fn create(pools: Vec<Arc<PmemPool>>, cfg: TreeConfig, owner_slot: u64) -> Sharded<K> {
        Self::try_create(pools, cfg, owner_slot).expect("creating sharded tree")
    }

    /// [`Sharded::create`], rejecting an empty pool list
    /// ([`Error::InvalidConfig`]) and whatever
    /// [`ConcurrentTree::try_create`] rejects, with the shard named (shards
    /// ahead of the failing one have been created in their pools by then).
    pub fn try_create(
        pools: Vec<Arc<PmemPool>>,
        cfg: TreeConfig,
        owner_slot: u64,
    ) -> Result<Sharded<K>, Error> {
        if pools.is_empty() {
            return Err(Error::InvalidConfig(
                "sharded tree needs at least one pool".into(),
            ));
        }
        let shards = pools
            .into_iter()
            .enumerate()
            .map(|(i, pool)| {
                ConcurrentTree::try_create(pool, cfg, owner_slot).map_err(|e| e.with_shard(i))
            })
            .collect::<Result<_, _>>()?;
        Ok(Sharded { shards })
    }

    /// Opens (recovers) a sharded tree with the default worker budget; see
    /// [`Sharded::open_with`].
    pub fn open(pools: Vec<Arc<PmemPool>>, owner_slot: u64) -> Result<Sharded<K>, Error> {
        Self::open_with(pools, owner_slot, crate::config::default_recovery_threads())
    }

    /// Opens (recovers) every shard **concurrently**: `min(threads, n)`
    /// workers ([`crate::config::par_map`]) claim shards one at a time, so
    /// at most `threads` recoveries run at once, each using its share of the
    /// `threads` worker budget for the phase-parallel pipeline within the
    /// shard. A failed shard aborts the open with its error annotated by
    /// shard index.
    pub fn open_with(
        pools: Vec<Arc<PmemPool>>,
        owner_slot: u64,
        threads: usize,
    ) -> Result<Sharded<K>, Error> {
        if pools.is_empty() {
            return Err(Error::InvalidConfig(
                "sharded tree needs at least one pool".into(),
            ));
        }
        let per_shard = (threads / pools.len()).max(1);
        let shards = crate::config::par_map(&pools, threads, |pool| {
            ConcurrentTree::open_with(Arc::clone(pool), owner_slot, per_shard)
        })
        .into_iter()
        .enumerate()
        .map(|(i, r)| r.map_err(|e| e.with_shard(i)))
        .collect::<Result<_, _>>()?;
        Ok(Sharded { shards })
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The per-shard pools in shard order — pass to
    /// `fptree_pmem::save_pools` to persist the whole family.
    pub fn pools(&self) -> Vec<Arc<PmemPool>> {
        self.shards.iter().map(|s| Arc::clone(s.pool())).collect()
    }

    /// The shard trees themselves (per-shard inspection: recovery stats,
    /// consistency checks, direct pool access).
    pub fn shards(&self) -> &[ConcurrentTree<K>] {
        &self.shards
    }

    /// The shard `key` routes to.
    #[inline]
    pub fn shard_for(&self, key: &K::Owned) -> usize {
        shard_of(key.shard_hash(), self.shards.len())
    }

    #[inline]
    fn tree_for(&self, key: &K::Owned) -> &ConcurrentTree<K> {
        &self.shards[self.shard_for(key)]
    }

    /// Point lookup.
    pub fn get(&self, key: &K::Owned) -> Option<u64> {
        self.tree_for(key).get(key)
    }

    /// True if `key` is present.
    pub fn contains(&self, key: &K::Owned) -> bool {
        self.tree_for(key).contains(key)
    }

    /// Inserts; false if the key already exists.
    pub fn insert(&self, key: &K::Owned, value: u64) -> bool {
        self.tree_for(key).insert(key, value)
    }

    /// Updates an existing key; false if absent.
    pub fn update(&self, key: &K::Owned, value: u64) -> bool {
        self.tree_for(key).update(key, value)
    }

    /// Removes; false if absent.
    pub fn remove(&self, key: &K::Owned) -> bool {
        self.tree_for(key).remove(key)
    }

    /// Atomic compare-and-update; see [`ConcurrentTree::update_if`].
    pub fn update_if(&self, key: &K::Owned, expected: u64, value: u64) -> bool {
        self.tree_for(key).update_if(key, expected, value)
    }

    /// Atomic compare-and-remove; see [`ConcurrentTree::remove_if`].
    pub fn remove_if(&self, key: &K::Owned, expected: u64) -> bool {
        self.tree_for(key).remove_if(key, expected)
    }

    /// Total number of keys across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.len()).sum()
    }

    /// True if every shard is empty.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.is_empty())
    }

    /// Splits `items` into per-shard vectors, preserving relative order
    /// within each shard (first-duplicate-wins batch semantics depend on
    /// stable order).
    fn partition<T: Clone>(&self, items: &[T], shard_of_item: impl Fn(&T) -> usize) -> Vec<Vec<T>> {
        let mut parts: Vec<Vec<T>> = (0..self.shards.len()).map(|_| Vec::new()).collect();
        for item in items {
            parts[shard_of_item(item)].push(item.clone());
        }
        parts
    }

    /// Batched insert: splits into per-shard sub-batches and commits the
    /// non-empty ones in shard order on the calling thread, each through
    /// the shard tree's amortized-persistence batch path. Returns the
    /// number of newly inserted keys.
    pub fn insert_batch(&self, entries: &[(K::Owned, u64)]) -> usize {
        if self.shards.len() == 1 {
            return self.shards[0].insert_batch(entries);
        }
        let parts = self.partition(entries, |(k, _)| self.shard_for(k));
        self.shards
            .iter()
            .zip(parts)
            .filter(|(_, part)| !part.is_empty())
            .map(|(shard, part)| shard.insert_batch(&part))
            .sum()
    }

    /// Batched remove, split and committed per shard like
    /// [`Sharded::insert_batch`]. Returns the number of keys removed.
    pub fn remove_batch(&self, keys: &[K::Owned]) -> usize {
        if self.shards.len() == 1 {
            return self.shards[0].remove_batch(keys);
        }
        let parts = self.partition(keys, |k| self.shard_for(k));
        self.shards
            .iter()
            .zip(parts)
            .filter(|(_, part)| !part.is_empty())
            .map(|(shard, part)| shard.remove_batch(&part))
            .sum()
    }

    /// Ordered scan over the whole keyspace: a k-way merge of the per-shard
    /// concurrent scan iterators. Each per-shard iterator is sorted and
    /// duplicate-free by construction; the merge picks the globally
    /// smallest head each step and keeps the monotonic emission filter as a
    /// cross-shard invariant, so the output is bit-identical to a single
    /// tree scanning the union.
    pub fn scan<R: std::ops::RangeBounds<K::Owned>>(&self, range: R) -> ShardedScan<'_, K> {
        let bounds = ScanBounds::<K>::new(range);
        ShardedScan {
            heads: self
                .shards
                .iter()
                .map(|s| Scan::new(s, bounds.clone()).peekable())
                .collect(),
            last: None,
        }
    }

    /// Inclusive range `[lo, hi]`, collected in key order.
    pub fn range(&self, lo: &K::Owned, hi: &K::Owned) -> Vec<(K::Owned, u64)> {
        self.scan(lo.clone()..=hi.clone()).collect()
    }

    /// Per-shard fill levels as `(live_bytes, usable_capacity)` — the data
    /// a skewed keyspace shows up in first. Shards whose heap walk fails
    /// (mid-crash images) report zero live bytes.
    pub fn fill_levels(&self) -> Vec<(u64, u64)> {
        self.shards
            .iter()
            .map(|s| {
                let pool = s.pool();
                let live = pool.alloc_stats().map(|a| a.live_bytes).unwrap_or(0);
                let usable = (pool.capacity() as u64).saturating_sub(USER_BASE);
                (live, usable)
            })
            .collect()
    }

    /// One aggregated snapshot: per-shard registries summed via
    /// [`Snapshot::merge`], then `shards` and per-shard diagnosability
    /// fields (`shard<i>_keys`, `shard<i>_fill_permille`) appended so a
    /// skewed keyspace is visible without the full per-shard breakdown.
    pub fn metrics_snapshot(&self) -> Snapshot {
        let mut snap = Snapshot::new();
        for shard in &self.shards {
            snap.merge(shard.metrics_snapshot());
        }
        snap.push("shards", self.shards.len() as u64);
        for (i, ((live, usable), shard)) in self.fill_levels().iter().zip(&self.shards).enumerate()
        {
            snap.push(format!("shard{i}_keys"), shard.len() as u64);
            let permille = if *usable == 0 {
                0
            } else {
                live * 1000 / usable
            };
            snap.push(format!("shard{i}_fill_permille"), permille);
        }
        snap
    }

    /// Structural consistency of every shard; errors name the shard.
    pub fn check_consistency(&self) -> Result<(), String> {
        for (i, shard) in self.shards.iter().enumerate() {
            shard
                .check_consistency()
                .map_err(|e| format!("shard {i}: {e}"))?;
        }
        Ok(())
    }

    /// Allocator-vs-tree leak audit of every shard; errors name the shard.
    pub fn leak_audit(&self) -> Result<(), String> {
        for (i, shard) in self.shards.iter().enumerate() {
            shard.leak_audit().map_err(|e| format!("shard {i}: {e}"))?;
        }
        Ok(())
    }
}

/// K-way ordered merge over per-shard concurrent scans; see
/// [`Sharded::scan`].
pub struct ShardedScan<'a, K: KeyKind> {
    heads: Vec<std::iter::Peekable<Scan<'a, K>>>,
    /// Monotonic emission filter across the merge: only keys strictly
    /// greater than the last yielded key are emitted, preserving the
    /// sorted/dup-free guarantee even if a shard iterator re-seeks.
    last: Option<K::Owned>,
}

impl<K: KeyKind> Iterator for ShardedScan<'_, K> {
    type Item = (K::Owned, u64);

    fn next(&mut self) -> Option<(K::Owned, u64)> {
        loop {
            // Smallest head across shards. Shard count is small, so a
            // linear pass beats heap bookkeeping (and sidesteps holding
            // borrows of two iterators at once).
            let mut best: Option<(usize, K::Owned)> = None;
            for (i, head) in self.heads.iter_mut().enumerate() {
                if let Some((k, _)) = head.peek() {
                    if best.as_ref().is_none_or(|(_, bk)| k < bk) {
                        best = Some((i, k.clone()));
                    }
                }
            }
            let (i, _) = best?;
            let (k, v) = self.heads[i].next().expect("peeked head vanished");
            if self.last.as_ref().is_some_and(|l| k <= *l) {
                continue; // defensive: never emit out of order
            }
            self.last = Some(k.clone());
            return Some((k, v));
        }
    }
}

impl crate::index::U64Index for ShardedTree {
    fn insert(&self, key: u64, value: u64) -> bool {
        Sharded::insert(self, &key, value)
    }
    fn get(&self, key: u64) -> Option<u64> {
        Sharded::get(self, &key)
    }
    fn update(&self, key: u64, value: u64) -> bool {
        Sharded::update(self, &key, value)
    }
    fn remove(&self, key: u64) -> bool {
        Sharded::remove(self, &key)
    }
    fn insert_batch(&self, entries: &[(u64, u64)]) -> usize {
        Sharded::insert_batch(self, entries)
    }
    fn remove_batch(&self, keys: &[u64]) -> usize {
        Sharded::remove_batch(self, keys)
    }
    fn len(&self) -> usize {
        Sharded::len(self)
    }
    fn range(&self, lo: u64, hi: u64) -> Option<Vec<(u64, u64)>> {
        Some(Sharded::range(self, &lo, &hi))
    }
    fn scan_from(&self, start: u64, count: usize) -> Option<Vec<(u64, u64)>> {
        Some(Sharded::scan(self, start..).take(count).collect())
    }
    fn metrics_snapshot(&self) -> Option<Snapshot> {
        Some(Sharded::metrics_snapshot(self))
    }
}

impl crate::index::BytesIndex for ShardedTreeVar {
    fn insert(&self, key: &[u8], value: u64) -> bool {
        Sharded::insert(self, &key.to_vec(), value)
    }
    fn get(&self, key: &[u8]) -> Option<u64> {
        Sharded::get(self, &key.to_vec())
    }
    fn update(&self, key: &[u8], value: u64) -> bool {
        Sharded::update(self, &key.to_vec(), value)
    }
    fn remove(&self, key: &[u8]) -> bool {
        Sharded::remove(self, &key.to_vec())
    }
    fn remove_if(&self, key: &[u8], expected: u64) -> bool {
        Sharded::remove_if(self, &key.to_vec(), expected)
    }
    fn update_if(&self, key: &[u8], expected: u64, value: u64) -> bool {
        Sharded::update_if(self, &key.to_vec(), expected, value)
    }
    fn insert_batch(&self, entries: &[(Vec<u8>, u64)]) -> usize {
        Sharded::insert_batch(self, entries)
    }
    fn remove_batch(&self, keys: &[Vec<u8>]) -> usize {
        Sharded::remove_batch(self, keys)
    }
    fn len(&self) -> usize {
        Sharded::len(self)
    }
    fn scan_from(&self, start: &[u8], count: usize) -> Option<Vec<(Vec<u8>, u64)>> {
        Some(Sharded::scan(self, start.to_vec()..).take(count).collect())
    }
    fn metrics_snapshot(&self) -> Option<Snapshot> {
        Some(Sharded::metrics_snapshot(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fptree_pmem::{poolset, PoolOptions, ROOT_SLOT};

    fn sharded(n: usize) -> ShardedTree {
        let pools = poolset::create_pools(n, PoolOptions::direct(16 << 20)).unwrap();
        Sharded::create(pools, TreeConfig::fptree_concurrent(), ROOT_SLOT)
    }

    #[test]
    fn routing_is_deterministic_and_in_range() {
        for n in [1usize, 2, 3, 4, 7, 16] {
            for k in 0..1000u64 {
                let s = u64_shard(k, n);
                assert!(s < n);
                assert_eq!(s, u64_shard(k, n));
            }
        }
        for n in [1usize, 2, 5, 8] {
            for k in 0..500u32 {
                let key = format!("key:{k}");
                let s = bytes_shard(key.as_bytes(), n);
                assert!(s < n);
                assert_eq!(s, bytes_shard(key.as_bytes(), n));
            }
        }
    }

    #[test]
    fn sequential_keys_spread_across_shards() {
        // Fibonacci hashing must not send a dense keyspace to one shard.
        let n = 4;
        let mut counts = [0usize; 4];
        for k in 0..4000u64 {
            counts[u64_shard(k, n)] += 1;
        }
        for &c in &counts {
            assert!((600..=1400).contains(&c), "skewed shard counts: {counts:?}");
        }
    }

    #[test]
    fn bytes_hash_distinguishes_zero_extension() {
        assert_ne!(b"a".shard_hash(), b"a\0".shard_hash());
        assert_ne!(b"".shard_hash(), b"\0".shard_hash());
    }

    #[test]
    fn point_ops_route_and_roundtrip() {
        let t = sharded(4);
        for k in 0..2000u64 {
            assert!(t.insert(&k, k * 10));
        }
        assert_eq!(t.len(), 2000);
        for k in 0..2000u64 {
            assert_eq!(t.get(&k), Some(k * 10));
        }
        assert!(t.update(&7, 1));
        assert_eq!(t.get(&7), Some(1));
        assert!(t.remove(&7));
        assert!(!t.remove(&7));
        assert_eq!(t.len(), 1999);
        t.check_consistency().unwrap();
    }

    #[test]
    fn scan_merges_shards_in_order() {
        let t = sharded(4);
        let mut keys: Vec<u64> = (0..500).map(|i| i * 3).collect();
        for &k in &keys {
            t.insert(&k, k + 1);
        }
        keys.sort_unstable();
        let got: Vec<(u64, u64)> = t.scan(..).collect();
        assert_eq!(got.len(), keys.len());
        for (i, (k, v)) in got.iter().enumerate() {
            assert_eq!(*k, keys[i]);
            assert_eq!(*v, k + 1);
        }
        // Bounded scan matches too.
        let mid: Vec<(u64, u64)> = t.scan(300..=600).collect();
        assert!(mid.windows(2).all(|w| w[0].0 < w[1].0));
        assert!(mid.iter().all(|(k, _)| (300..=600).contains(k)));
    }

    #[test]
    fn batch_ops_split_and_commit_per_shard() {
        let t = sharded(3);
        let entries: Vec<(u64, u64)> = (0..1000).map(|k| (k, k)).collect();
        assert_eq!(t.insert_batch(&entries), 1000);
        assert_eq!(t.insert_batch(&entries), 0); // all duplicates
        let removals: Vec<u64> = (0..500).collect();
        assert_eq!(t.remove_batch(&removals), 500);
        assert_eq!(t.len(), 500);
        t.check_consistency().unwrap();
        t.leak_audit().unwrap();
    }

    #[test]
    fn snapshot_aggregates_and_reports_fill() {
        let t = sharded(2);
        for k in 0..100u64 {
            t.insert(&k, k);
        }
        let snap = t.metrics_snapshot();
        assert_eq!(snap.get("shards"), Some(2));
        let k0 = snap.get("shard0_keys").unwrap();
        let k1 = snap.get("shard1_keys").unwrap();
        assert_eq!(k0 + k1, 100);
        assert!(snap.get("shard0_fill_permille").is_some());
        if crate::Metrics::enabled() {
            assert_eq!(snap.get("insert_ops"), Some(100));
        }
    }
}
