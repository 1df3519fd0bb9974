//! Pluggable index traits.
//!
//! The paper's end-to-end experiments swap the index under memcached and
//! under a prototype database's dictionary. These traits are that seam:
//! every evaluated tree (FPTree, PTree, NV-Tree, wBTree, STXTree, hash map)
//! implements them, directly for concurrent structures and through
//! [`Locked`] for single-threaded ones (matching the paper's use of global
//! locks around non-concurrent trees in memcached).

use parking_lot::Mutex;

/// A key-value index over fixed-size (u64) keys.
pub trait U64Index: Send + Sync {
    /// Inserts; false if the key already exists.
    fn insert(&self, key: u64, value: u64) -> bool;
    /// Point lookup.
    fn get(&self, key: u64) -> Option<u64>;
    /// Updates an existing key; false if absent.
    fn update(&self, key: u64, value: u64) -> bool;
    /// Removes; false if absent.
    fn remove(&self, key: u64) -> bool;
    /// Number of keys.
    fn len(&self) -> usize;
    /// True if empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Batched insert; returns the number of newly inserted keys. The
    /// default loops [`U64Index::insert`]; tree-backed indexes override
    /// with the amortized-persistence batch path.
    fn insert_batch(&self, entries: &[(u64, u64)]) -> usize {
        entries.iter().filter(|(k, v)| self.insert(*k, *v)).count()
    }
    /// Batched remove; returns the number of keys removed. The default
    /// loops [`U64Index::remove`].
    fn remove_batch(&self, keys: &[u64]) -> usize {
        keys.iter().filter(|k| self.remove(**k)).count()
    }
    /// Batched point lookup, one result per requested key in order.
    fn get_batch(&self, keys: &[u64]) -> Vec<Option<u64>> {
        keys.iter().map(|k| self.get(*k)).collect()
    }
    /// Inclusive range scan, sorted. Unsupported indexes (hash) return None.
    fn range(&self, lo: u64, hi: u64) -> Option<Vec<(u64, u64)>>;
    /// Ordered scan of up to `count` entries starting at `start`
    /// (inclusive). Unsupported indexes (hash) return None.
    fn scan_from(&self, start: u64, count: usize) -> Option<Vec<(u64, u64)>> {
        let _ = (start, count);
        None
    }
    /// Observability snapshot of the underlying tree, when instrumented.
    /// Uninstrumented indexes (baselines, hash maps) return None.
    fn metrics_snapshot(&self) -> Option<crate::metrics::Snapshot> {
        None
    }
}

/// A key-value index over variable-size (byte-string) keys.
pub trait BytesIndex: Send + Sync {
    /// Inserts; false if the key already exists.
    fn insert(&self, key: &[u8], value: u64) -> bool;
    /// Point lookup.
    fn get(&self, key: &[u8]) -> Option<u64>;
    /// Updates an existing key; false if absent.
    fn update(&self, key: &[u8], value: u64) -> bool;
    /// Removes; false if absent.
    fn remove(&self, key: &[u8]) -> bool;
    /// Removes `key` only if it is still mapped to `expected`; false
    /// otherwise. The default is **not** atomic (a get/compare/remove
    /// sequence) — concurrent implementations must override it with a real
    /// compare-and-remove, which the kvcache `delete` relies on against a
    /// racing `set`.
    fn remove_if(&self, key: &[u8], expected: u64) -> bool {
        match self.get(key) {
            Some(v) if v == expected => self.remove(key),
            _ => false,
        }
    }
    /// Updates `key` to `value` only if it is still mapped to `expected`;
    /// false otherwise. Like [`BytesIndex::remove_if`], the default is
    /// **not** atomic — concurrent implementations must override it, which
    /// the kvcache write path relies on to avoid leaking items when two
    /// sets of one key race.
    fn update_if(&self, key: &[u8], expected: u64, value: u64) -> bool {
        match self.get(key) {
            Some(v) if v == expected => self.update(key, value),
            _ => false,
        }
    }
    /// Batched insert; returns the number of newly inserted keys. The
    /// default loops [`BytesIndex::insert`]; tree-backed indexes override
    /// with the amortized-persistence batch path.
    fn insert_batch(&self, entries: &[(Vec<u8>, u64)]) -> usize {
        entries.iter().filter(|(k, v)| self.insert(k, *v)).count()
    }
    /// Batched remove; returns the number of keys removed. The default
    /// loops [`BytesIndex::remove`].
    fn remove_batch(&self, keys: &[Vec<u8>]) -> usize {
        keys.iter().filter(|k| self.remove(k)).count()
    }
    /// Batched point lookup, one result per requested key in order.
    fn get_batch(&self, keys: &[Vec<u8>]) -> Vec<Option<u64>> {
        keys.iter().map(|k| self.get(k)).collect()
    }
    /// Number of keys.
    fn len(&self) -> usize;
    /// True if empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Ordered scan of up to `count` entries starting at `start`
    /// (inclusive), sorted by key. Unsupported indexes (hash) return None.
    fn scan_from(&self, start: &[u8], count: usize) -> Option<Vec<(Vec<u8>, u64)>> {
        let _ = (start, count);
        None
    }
    /// Observability snapshot of the underlying tree, when instrumented.
    /// Uninstrumented indexes (baselines, hash maps) return None.
    fn metrics_snapshot(&self) -> Option<crate::metrics::Snapshot> {
        None
    }
}

/// Global-lock adapter turning a single-threaded index into a shareable one.
pub struct Locked<T>(pub Mutex<T>);

impl<T> Locked<T> {
    /// Wraps `inner` behind a global mutex.
    pub fn new(inner: T) -> Self {
        Locked(Mutex::new(inner))
    }
}

impl U64Index for Locked<crate::FPTree> {
    fn insert(&self, key: u64, value: u64) -> bool {
        self.0.lock().insert(&key, value)
    }
    fn get(&self, key: u64) -> Option<u64> {
        self.0.lock().get(&key)
    }
    fn update(&self, key: u64, value: u64) -> bool {
        self.0.lock().update(&key, value)
    }
    fn remove(&self, key: u64) -> bool {
        self.0.lock().remove(&key)
    }
    fn insert_batch(&self, entries: &[(u64, u64)]) -> usize {
        self.0.lock().insert_batch(entries)
    }
    fn remove_batch(&self, keys: &[u64]) -> usize {
        self.0.lock().remove_batch(keys)
    }
    fn get_batch(&self, keys: &[u64]) -> Vec<Option<u64>> {
        let tree = self.0.lock();
        keys.iter().map(|k| tree.get(k)).collect()
    }
    fn len(&self) -> usize {
        self.0.lock().len()
    }
    fn range(&self, lo: u64, hi: u64) -> Option<Vec<(u64, u64)>> {
        Some(self.0.lock().range(&lo, &hi))
    }
    fn scan_from(&self, start: u64, count: usize) -> Option<Vec<(u64, u64)>> {
        Some(self.0.lock().scan(start..).take(count).collect())
    }
    fn metrics_snapshot(&self) -> Option<crate::metrics::Snapshot> {
        Some(self.0.lock().metrics_snapshot())
    }
}

impl BytesIndex for Locked<crate::FPTreeVar> {
    fn insert(&self, key: &[u8], value: u64) -> bool {
        self.0.lock().insert(&key.to_vec(), value)
    }
    fn get(&self, key: &[u8]) -> Option<u64> {
        self.0.lock().get(&key.to_vec())
    }
    fn update(&self, key: &[u8], value: u64) -> bool {
        self.0.lock().update(&key.to_vec(), value)
    }
    fn remove(&self, key: &[u8]) -> bool {
        self.0.lock().remove(&key.to_vec())
    }
    fn remove_if(&self, key: &[u8], expected: u64) -> bool {
        self.0.lock().remove_if(&key.to_vec(), expected)
    }
    fn update_if(&self, key: &[u8], expected: u64, value: u64) -> bool {
        self.0.lock().update_if(&key.to_vec(), expected, value)
    }
    fn insert_batch(&self, entries: &[(Vec<u8>, u64)]) -> usize {
        self.0.lock().insert_batch(entries)
    }
    fn remove_batch(&self, keys: &[Vec<u8>]) -> usize {
        self.0.lock().remove_batch(keys)
    }
    fn get_batch(&self, keys: &[Vec<u8>]) -> Vec<Option<u64>> {
        let tree = self.0.lock();
        keys.iter().map(|k| tree.get(k)).collect()
    }
    fn len(&self) -> usize {
        self.0.lock().len()
    }
    fn scan_from(&self, start: &[u8], count: usize) -> Option<Vec<(Vec<u8>, u64)>> {
        Some(self.0.lock().scan(start.to_vec()..).take(count).collect())
    }
    fn metrics_snapshot(&self) -> Option<crate::metrics::Snapshot> {
        Some(self.0.lock().metrics_snapshot())
    }
}

impl U64Index for crate::ConcurrentFPTree {
    fn insert(&self, key: u64, value: u64) -> bool {
        crate::ConcurrentTree::insert(self, &key, value)
    }
    fn get(&self, key: u64) -> Option<u64> {
        crate::ConcurrentTree::get(self, &key)
    }
    fn update(&self, key: u64, value: u64) -> bool {
        crate::ConcurrentTree::update(self, &key, value)
    }
    fn remove(&self, key: u64) -> bool {
        crate::ConcurrentTree::remove(self, &key)
    }
    fn insert_batch(&self, entries: &[(u64, u64)]) -> usize {
        crate::ConcurrentTree::insert_batch(self, entries)
    }
    fn remove_batch(&self, keys: &[u64]) -> usize {
        crate::ConcurrentTree::remove_batch(self, keys)
    }
    fn len(&self) -> usize {
        crate::ConcurrentTree::len(self)
    }
    fn range(&self, lo: u64, hi: u64) -> Option<Vec<(u64, u64)>> {
        Some(crate::ConcurrentTree::range(self, &lo, &hi))
    }
    fn scan_from(&self, start: u64, count: usize) -> Option<Vec<(u64, u64)>> {
        Some(
            crate::ConcurrentTree::scan(self, start..)
                .take(count)
                .collect(),
        )
    }
    fn metrics_snapshot(&self) -> Option<crate::metrics::Snapshot> {
        Some(crate::ConcurrentTree::metrics_snapshot(self))
    }
}

impl BytesIndex for crate::concurrent::ConcurrentFPTreeVar {
    fn insert(&self, key: &[u8], value: u64) -> bool {
        crate::ConcurrentTree::insert(self, &key.to_vec(), value)
    }
    fn get(&self, key: &[u8]) -> Option<u64> {
        crate::ConcurrentTree::get(self, &key.to_vec())
    }
    fn update(&self, key: &[u8], value: u64) -> bool {
        crate::ConcurrentTree::update(self, &key.to_vec(), value)
    }
    fn remove(&self, key: &[u8]) -> bool {
        crate::ConcurrentTree::remove(self, &key.to_vec())
    }
    fn remove_if(&self, key: &[u8], expected: u64) -> bool {
        crate::ConcurrentTree::remove_if(self, &key.to_vec(), expected)
    }
    fn update_if(&self, key: &[u8], expected: u64, value: u64) -> bool {
        crate::ConcurrentTree::update_if(self, &key.to_vec(), expected, value)
    }
    fn insert_batch(&self, entries: &[(Vec<u8>, u64)]) -> usize {
        crate::ConcurrentTree::insert_batch(self, entries)
    }
    fn remove_batch(&self, keys: &[Vec<u8>]) -> usize {
        crate::ConcurrentTree::remove_batch(self, keys)
    }
    fn len(&self) -> usize {
        crate::ConcurrentTree::len(self)
    }
    fn scan_from(&self, start: &[u8], count: usize) -> Option<Vec<(Vec<u8>, u64)>> {
        Some(
            crate::ConcurrentTree::scan(self, start.to_vec()..)
                .take(count)
                .collect(),
        )
    }
    fn metrics_snapshot(&self) -> Option<crate::metrics::Snapshot> {
        Some(crate::ConcurrentTree::metrics_snapshot(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TreeConfig;
    use fptree_pmem::{PmemPool, PoolOptions, ROOT_SLOT};
    use std::sync::Arc;

    #[test]
    fn locked_fptree_implements_u64_index() {
        let pool = Arc::new(PmemPool::create(PoolOptions::direct(16 << 20)).unwrap());
        let idx: Box<dyn U64Index> = Box::new(Locked::new(crate::FPTree::create(
            pool,
            TreeConfig::fptree(),
            ROOT_SLOT,
        )));
        assert!(idx.insert(1, 10));
        assert!(!idx.insert(1, 11));
        assert_eq!(idx.get(1), Some(10));
        assert!(idx.update(1, 12));
        assert!(idx.remove(1));
        assert!(idx.is_empty());
        assert_eq!(idx.range(0, 10), Some(vec![]));
    }

    #[test]
    fn concurrent_fptree_implements_u64_index() {
        let pool = Arc::new(PmemPool::create(PoolOptions::direct(16 << 20)).unwrap());
        let idx: Box<dyn U64Index> = Box::new(crate::ConcurrentFPTree::create(
            pool,
            TreeConfig::fptree_concurrent(),
            ROOT_SLOT,
        ));
        assert!(idx.insert(5, 50));
        assert_eq!(idx.get(5), Some(50));
        assert_eq!(idx.range(0, 10), Some(vec![(5, 50)]));
        assert_eq!(idx.scan_from(0, 8), Some(vec![(5, 50)]));
        assert_eq!(idx.len(), 1);
    }

    #[test]
    fn bytes_index_impls() {
        let pool = Arc::new(PmemPool::create(PoolOptions::direct(32 << 20)).unwrap());
        let idx: Box<dyn BytesIndex> = Box::new(Locked::new(crate::FPTreeVar::create(
            pool,
            TreeConfig::fptree_var(),
            ROOT_SLOT,
        )));
        assert!(idx.insert(b"alpha", 1));
        assert_eq!(idx.get(b"alpha"), Some(1));
        assert!(idx.insert(b"beta", 2));
        assert_eq!(
            idx.scan_from(b"a", 10),
            Some(vec![(b"alpha".to_vec(), 1), (b"beta".to_vec(), 2)])
        );
        assert_eq!(idx.scan_from(b"b", 10), Some(vec![(b"beta".to_vec(), 2)]));
        assert!(idx.update(b"alpha", 2));
        assert!(idx.remove(b"alpha"));
        assert!(idx.remove(b"beta"));
        assert!(idx.is_empty());
    }
}
