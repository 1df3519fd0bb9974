//! Sharded hash index: vanilla memcached's hash table stand-in.
//!
//! memcached's internal index is a chained hash table with bucket-level
//! locks; Figure 13 compares the trees against it. A sharded
//! `HashMap<Vec<u8>, u64>` reproduces its behaviour (O(1) lookups,
//! per-shard locking, no range support).

use parking_lot::Mutex;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

use fptree_core::index::{BytesIndex, U64Index};

/// A sharded, locked hash index.
pub struct HashIndex<K: Eq + Hash> {
    shards: Vec<Mutex<HashMap<K, u64>>>,
    mask: usize,
}

impl<K: Eq + Hash> HashIndex<K> {
    /// Creates an index with `shards` lock shards (rounded up to a power of
    /// two).
    pub fn new(shards: usize) -> Self {
        let n = shards.next_power_of_two().max(1);
        HashIndex {
            shards: (0..n).map(|_| Mutex::new(HashMap::new())).collect(),
            mask: n - 1,
        }
    }

    fn shard(&self, key: &K) -> &Mutex<HashMap<K, u64>> {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) & self.mask]
    }

    /// Inserts; false if present.
    pub fn insert_kv(&self, key: K, value: u64) -> bool {
        let mut m = self.shard(&key).lock();
        if let std::collections::hash_map::Entry::Vacant(e) = m.entry(key) {
            e.insert(value);
            true
        } else {
            false
        }
    }

    /// Point lookup.
    pub fn get_kv(&self, key: &K) -> Option<u64> {
        self.shard(key).lock().get(key).copied()
    }

    /// Updates an existing key.
    pub fn update_kv(&self, key: &K, value: u64) -> bool {
        match self.shard(key).lock().get_mut(key) {
            Some(v) => {
                *v = value;
                true
            }
            None => false,
        }
    }

    /// Removes a key.
    pub fn remove_kv(&self, key: &K) -> bool {
        self.shard(key).lock().remove(key).is_some()
    }

    /// Total entries across shards.
    pub fn total_len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }
}

impl U64Index for HashIndex<u64> {
    fn insert(&self, key: u64, value: u64) -> bool {
        self.insert_kv(key, value)
    }
    fn get(&self, key: u64) -> Option<u64> {
        self.get_kv(&key)
    }
    fn update(&self, key: u64, value: u64) -> bool {
        self.update_kv(&key, value)
    }
    fn remove(&self, key: u64) -> bool {
        self.remove_kv(&key)
    }
    fn len(&self) -> usize {
        self.total_len()
    }
    fn range(&self, _lo: u64, _hi: u64) -> Option<Vec<(u64, u64)>> {
        None // hash tables cannot scan
    }
}

impl BytesIndex for HashIndex<Vec<u8>> {
    fn insert(&self, key: &[u8], value: u64) -> bool {
        self.insert_kv(key.to_vec(), value)
    }
    fn remove_if(&self, key: &[u8], expected: u64) -> bool {
        // Compare and remove under one shard lock — the atomic form the
        // kvcache `delete` requires.
        let k = key.to_vec();
        let mut m = self.shard(&k).lock();
        match m.get(&k) {
            Some(v) if *v == expected => {
                m.remove(&k);
                true
            }
            _ => false,
        }
    }
    fn update_if(&self, key: &[u8], expected: u64, value: u64) -> bool {
        let k = key.to_vec();
        let mut m = self.shard(&k).lock();
        match m.get_mut(&k) {
            Some(v) if *v == expected => {
                *v = value;
                true
            }
            _ => false,
        }
    }
    fn get(&self, key: &[u8]) -> Option<u64> {
        self.get_kv(&key.to_vec())
    }
    fn update(&self, key: &[u8], value: u64) -> bool {
        self.update_kv(&key.to_vec(), value)
    }
    fn remove(&self, key: &[u8]) -> bool {
        self.remove_kv(&key.to_vec())
    }
    fn len(&self) -> usize {
        self.total_len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn basic_ops() {
        let h: HashIndex<u64> = HashIndex::new(16);
        assert!(h.insert_kv(1, 10));
        assert!(!h.insert_kv(1, 11));
        assert_eq!(h.get_kv(&1), Some(10));
        assert!(h.update_kv(&1, 12));
        assert_eq!(h.get_kv(&1), Some(12));
        assert!(h.remove_kv(&1));
        assert!(!h.remove_kv(&1));
        assert_eq!(h.total_len(), 0);
    }

    #[test]
    fn concurrent_distinct_keys() {
        let h = Arc::new(HashIndex::<u64>::new(16));
        let handles: Vec<_> = (0..8u64)
            .map(|tid| {
                let h = Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..5000u64 {
                        let k = tid * 5000 + i;
                        assert!(h.insert_kv(k, k));
                    }
                })
            })
            .collect();
        for x in handles {
            x.join().unwrap();
        }
        assert_eq!(h.total_len(), 40_000);
    }

    #[test]
    fn bytes_trait_object() {
        let h: Box<dyn BytesIndex> = Box::new(HashIndex::<Vec<u8>>::new(4));
        assert!(h.insert(b"a", 1));
        assert_eq!(h.get(b"a"), Some(1));
        assert!(h.update(b"a", 2));
        assert!(h.remove(b"a"));
        assert!(h.is_empty());
    }
}
