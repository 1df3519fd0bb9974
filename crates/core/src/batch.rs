//! Batched write path with amortized flush/fence persistence.
//!
//! Every one-by-one insert pays a full traversal, a leaf lock, and a
//! flush+fence set (slot persist, fingerprint persist, p-atomic bitmap
//! commit) even when dozens of keys land in the same leaf — the write cost
//! the paper's Table 1 / Figure 7 analysis attributes to SCM persistence
//! primitives. The batched path amortizes all of it:
//!
//! 1. the input is sorted (stable, so the **first** occurrence of a
//!    duplicated key wins, exactly like a loop of `insert` calls);
//! 2. consecutive keys routing to the same leaf form a **run**;
//! 3. each run is applied under one leaf lock and one checked-op window:
//!    every entry is staged with plain stores, the staged slot and
//!    fingerprint spans are flushed with coalesced `persist` calls, and a
//!    **single** p-atomic bitmap write commits the whole run;
//! 4. a full leaf splits once mid-run (micro-logged as usual) and both
//!    halves are staged before the split is published; keys that still do
//!    not fit re-route through the updated index, so progress per run is
//!    guaranteed.
//!
//! Crash atomicity is per run: a crash before a run's bitmap commit loses
//! that run (and all later ones) entirely and never exposes partial slots —
//! the staged stores are unreachable until the commit word lands. The
//! durability checker validates the staged protocol (store → flush →
//! publish → flush) over every batched window, and `crash_consistency.rs`
//! sweeps crash fuses through batched schedules.
//!
//! Steps 3–4 are the kernel's `insert_run` / `remove_run`
//! ([`crate::leafops`]); this file is steps 1–2: sort, find and lock each
//! run's leaf, publish what the kernel reports.

use fptree_htm::Abort;
use std::sync::atomic::Ordering;

use crate::concurrent::ConcurrentTree;
use crate::keys::KeyKind;
use crate::metrics::{Counter, Op};

/// Sorts batch input and drops duplicate keys, keeping the **first**
/// occurrence — the outcome a loop of single `insert` calls produces.
fn sort_dedup<K: KeyKind>(entries: &[(K::Owned, u64)]) -> Vec<(K::Owned, u64)> {
    let mut sorted = entries.to_vec();
    sorted.sort_by(|a, b| a.0.cmp(&b.0)); // stable: input order among equals
    sorted.dedup_by(|next, kept| next.0 == kept.0); // keeps the first
    sorted
}

/// Sorted, deduplicated copy of a remove batch.
fn sorted_keys<T: Ord + Clone>(keys: &[T]) -> Vec<T> {
    let mut sorted = keys.to_vec();
    sorted.sort();
    sorted.dedup();
    sorted
}

impl<K: KeyKind> ConcurrentTree<K> {
    /// True when the leaf at `off` covers `key`, decided by a
    /// globally-validated speculative traverse.
    ///
    /// Safe to call while holding `off`'s version lock: a locked leaf's key
    /// range only changes under its own lock, and the SpecLock fallback
    /// releases the global lock between attempts, so a writer spinning on
    /// our leaf lock can never hold the global lock while we wait for it.
    fn covered_by(&self, off: u64, key: &K::Owned) -> bool {
        self.lock.execute(|tx| {
            let o = self.traverse(key)?;
            if !tx.validate() {
                self.ctx.metrics.inc(Counter::SeqlockConflicts);
                return Err(Abort);
            }
            Ok(o)
        }) == off
    }

    /// Inserts many entries, grouping sorted runs by destination leaf so
    /// each touched leaf pays **one** leaf lock, one flush/fence set and
    /// one p-atomic commit regardless of how many batch keys land in it.
    ///
    /// Semantically identical to looping [`ConcurrentTree::insert`] over
    /// `entries`: already-present keys are left untouched and the first
    /// occurrence of an in-batch duplicate wins. Returns the number of
    /// newly inserted keys.
    pub fn insert_batch(&self, entries: &[(K::Owned, u64)]) -> usize {
        if entries.is_empty() {
            return 0;
        }
        if entries.len() == 1 {
            // A single-entry batch is exactly a single insert, which has
            // the cheaper one-publish append path (§5.12).
            return self.insert(&entries[0].0, entries[0].1) as usize;
        }
        let _t = self.ctx.metrics.time_op(Op::Insert);
        let _op = self.ctx.pool.begin_checked_op("insert_batch");
        let sorted = sort_dedup::<K>(entries);
        let mut inserted = 0usize;
        let mut i = 0;
        while i < sorted.len() {
            // Lock the leaf covering the first remaining key, extend the
            // run while subsequent keys route to the same (locked,
            // range-stable) leaf, and apply it with one commit. The right
            // leaf of a mid-run split is unreachable until `publish_split`,
            // so both halves are staged first — the same exposure window as
            // the single-insert split path.
            let rest = &sorted[i..];
            let off = self.lock_leaf_for_write(&rest[0].0);
            let mut t = 1;
            while t < rest.len() && self.covered_by(off, &rest[t].0) {
                t += 1;
            }
            let r = self
                .ctx
                .insert_run::<K>(off, &rest[..t], |off| self.split_locked_leaf(off));
            if let Some((split_key, new_off)) = &r.split {
                self.publish_split(split_key, off, *new_off);
            }
            self.ctx.leaf(off).unlock_version();
            self.len.fetch_add(r.inserted, Ordering::Relaxed);
            inserted += r.inserted;
            i += r.consumed;
        }
        inserted
    }

    /// Removes many keys: one p-atomic commit clears each touched leaf's
    /// run. A run that would empty its leaf keeps one entry back and
    /// delegates that last key to [`ConcurrentTree::remove`], which owns
    /// the predecessor-locking unlink protocol — one more bitmap commit
    /// (one persist) per emptied leaf than clearing the whole run at once.
    /// Semantically identical to looping [`ConcurrentTree::remove`];
    /// returns the number of keys removed.
    pub fn remove_batch(&self, keys: &[K::Owned]) -> usize {
        if keys.is_empty() {
            return 0;
        }
        let _t = self.ctx.metrics.time_op(Op::Remove);
        let _op = self.ctx.pool.begin_checked_op("remove_batch");
        let sorted = sorted_keys(keys);
        let mut removed = 0usize;
        let mut i = 0;
        while i < sorted.len() {
            let rest = &sorted[i..];
            let off = self.lock_leaf_for_write(&rest[0]);
            let mut t = 1;
            while t < rest.len() && self.covered_by(off, &rest[t]) {
                t += 1;
            }
            let r = self.ctx.remove_run::<K>(off, &rest[..t]);
            self.ctx.leaf(off).unlock_version();
            self.len.fetch_sub(r.removed, Ordering::Relaxed);
            removed += r.removed;
            if let Some(last) = r.held_back {
                removed += self.remove(&rest[last]) as usize;
            }
            i += t;
        }
        removed
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;
    use std::sync::Arc;

    use fptree_pmem::{PmemPool, PoolOptions, ROOT_SLOT};

    use crate::config::TreeConfig;
    use crate::{ConcurrentFPTree, FPTree, FPTreeVar};

    fn pool() -> Arc<PmemPool> {
        Arc::new(PmemPool::create(PoolOptions::direct(32 << 20)).unwrap())
    }

    fn small() -> TreeConfig {
        TreeConfig::fptree()
            .with_leaf_capacity(8)
            .with_inner_fanout(4)
    }

    #[test]
    fn batch_matches_loop_inserts() {
        let mut a = FPTree::create(pool(), small(), ROOT_SLOT);
        let mut b = FPTree::create(pool(), small(), ROOT_SLOT);
        let entries: Vec<(u64, u64)> = (0..500u64).map(|i| (i * 7919 % 1000, i)).collect();
        let mut loop_inserted = 0;
        for (k, v) in &entries {
            loop_inserted += a.insert(k, *v) as usize;
        }
        let batch_inserted = b.insert_batch(&entries);
        assert_eq!(batch_inserted, loop_inserted);
        assert_eq!(a.len(), b.len());
        let av: Vec<_> = a.iter().collect();
        let bv: Vec<_> = b.iter().collect();
        assert_eq!(av, bv);
        b.check_consistency().unwrap();
    }

    #[test]
    fn batch_insert_uses_fewer_flushes() {
        // Realistic leaf capacity: tiny leaves make the per-split
        // whole-leaf persist dominate and mask the per-key amortization.
        let cfg = TreeConfig::fptree().with_leaf_capacity(32);
        let entries: Vec<(u64, u64)> = (0..1000u64).map(|i| (i, i * 10)).collect();
        let p1 = pool();
        let mut one = FPTree::create(Arc::clone(&p1), cfg, ROOT_SLOT);
        p1.stats().reset();
        for (k, v) in &entries {
            one.insert(k, *v);
        }
        let single_flushes = p1.stats().snapshot().persist_calls;

        let p2 = pool();
        let mut many = FPTree::create(Arc::clone(&p2), cfg, ROOT_SLOT);
        p2.stats().reset();
        many.insert_batch(&entries);
        let batch_flushes = p2.stats().snapshot().persist_calls;

        assert!(
            batch_flushes * 2 <= single_flushes,
            "batched inserts flushed {batch_flushes}, one-by-one {single_flushes}"
        );
        assert_eq!(many.len(), 1000);
        many.check_consistency().unwrap();
    }

    #[test]
    fn remove_batch_matches_loop_removes() {
        let entries: Vec<(u64, u64)> = (0..300u64).map(|i| (i, i)).collect();
        let mut a = FPTree::create(pool(), small(), ROOT_SLOT);
        let mut b = FPTree::create(pool(), small(), ROOT_SLOT);
        a.insert_batch(&entries);
        b.insert_batch(&entries);
        let victims: Vec<u64> = (0..300u64).filter(|k| k % 3 != 0).collect();
        let mut loop_removed = 0;
        for k in &victims {
            loop_removed += a.remove(k) as usize;
        }
        assert_eq!(b.remove_batch(&victims), loop_removed);
        assert_eq!(a.len(), b.len());
        let av: Vec<_> = a.iter().collect();
        let bv: Vec<_> = b.iter().collect();
        assert_eq!(av, bv);
        b.check_consistency().unwrap();
    }

    #[test]
    fn remove_batch_unlinks_emptied_leaves() {
        let mut t = FPTree::create(pool(), small(), ROOT_SLOT);
        let entries: Vec<(u64, u64)> = (0..200u64).map(|i| (i, i)).collect();
        t.insert_batch(&entries);
        let all: Vec<u64> = (0..200u64).collect();
        assert_eq!(t.remove_batch(&all), 200);
        assert_eq!(t.len(), 0);
        assert_eq!(t.leaf_offsets().len(), 1, "tree collapses to one leaf");
        t.check_consistency().unwrap();
    }

    #[test]
    fn batch_first_duplicate_wins() {
        let mut t = FPTree::create(pool(), small(), ROOT_SLOT);
        let inserted = t.insert_batch(&[(5, 100), (5, 200), (7, 1), (5, 300)]);
        assert_eq!(inserted, 2);
        assert_eq!(t.get(&5), Some(100), "first occurrence wins");
        assert_eq!(t.get(&7), Some(1));
    }

    #[test]
    fn batch_skips_existing_keys() {
        let mut t = FPTree::create(pool(), small(), ROOT_SLOT);
        t.insert(&10, 1);
        assert_eq!(t.insert_batch(&[(9, 9), (10, 999), (11, 11)]), 2);
        assert_eq!(t.get(&10), Some(1), "existing value untouched");
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn var_key_batch_roundtrip() {
        let mut t = FPTreeVar::create(pool(), small(), ROOT_SLOT);
        let entries: Vec<(Vec<u8>, u64)> = (0..200u64)
            .map(|i| (format!("key-{i:05}").into_bytes(), i))
            .collect();
        assert_eq!(t.insert_batch(&entries), 200);
        assert_eq!(t.len(), 200);
        for (k, v) in &entries {
            assert_eq!(t.get(k), Some(*v));
        }
        let victims: Vec<Vec<u8>> = entries.iter().map(|(k, _)| k.clone()).collect();
        assert_eq!(t.remove_batch(&victims), 200);
        assert!(t.is_empty());
        t.check_consistency().unwrap();
    }

    #[test]
    fn concurrent_batch_matches_oracle() {
        let pool = pool();
        let mut cfg = TreeConfig::fptree_concurrent();
        cfg.leaf_capacity = 8;
        cfg.inner_fanout = 4;
        let tree = ConcurrentFPTree::create(pool, cfg, ROOT_SLOT);
        let mut oracle = BTreeMap::new();
        let entries: Vec<(u64, u64)> = (0..400u64).map(|i| (i * 131 % 500, i)).collect();
        for (k, v) in &entries {
            oracle.entry(*k).or_insert(*v);
        }
        let inserted = tree.insert_batch(&entries);
        assert_eq!(inserted, oracle.len());
        for (k, v) in &oracle {
            assert_eq!(tree.get(k), Some(*v));
        }
        let victims: Vec<u64> = oracle.keys().copied().filter(|k| k % 2 == 0).collect();
        let removed = tree.remove_batch(&victims);
        assert_eq!(removed, victims.len());
        for k in &victims {
            oracle.remove(k);
        }
        assert_eq!(tree.len(), oracle.len());
        tree.check_consistency().unwrap();
    }

    #[test]
    fn concurrent_batches_race_safely() {
        let pool = pool();
        let mut cfg = TreeConfig::fptree_concurrent();
        cfg.leaf_capacity = 8;
        cfg.inner_fanout = 4;
        let tree = Arc::new(ConcurrentFPTree::create(pool, cfg, ROOT_SLOT));
        std::thread::scope(|s| {
            for thread in 0..4u64 {
                let tree = Arc::clone(&tree);
                s.spawn(move || {
                    let entries: Vec<(u64, u64)> =
                        (0..250u64).map(|i| (thread * 1000 + i, i)).collect();
                    for chunk in entries.chunks(32) {
                        assert_eq!(tree.insert_batch(chunk), chunk.len());
                    }
                });
            }
        });
        assert_eq!(tree.len(), 1000);
        tree.check_consistency().unwrap();
        // Interleaved batched removes against batched inserts.
        std::thread::scope(|s| {
            for thread in 0..4u64 {
                let tree = Arc::clone(&tree);
                s.spawn(move || {
                    let keys: Vec<u64> = (0..250u64).map(|i| thread * 1000 + i).collect();
                    for chunk in keys.chunks(32) {
                        tree.remove_batch(chunk);
                    }
                });
            }
        });
        assert_eq!(tree.len(), 0);
        tree.check_consistency().unwrap();
    }

    #[test]
    fn concurrent_remove_if_guards_value() {
        let pool = pool();
        let tree = ConcurrentFPTree::create(pool, TreeConfig::fptree_concurrent(), ROOT_SLOT);
        tree.insert(&1, 10);
        assert!(
            !tree.remove_if(&1, 99),
            "stale expected value must not remove"
        );
        assert_eq!(tree.get(&1), Some(10));
        assert!(tree.remove_if(&1, 10));
        assert_eq!(tree.get(&1), None);
        assert!(!tree.remove_if(&1, 10), "absent key");
    }
}
