//! Amortized persistent memory allocation: leaf groups (§4.3, Appendix B).
//!
//! Persistent allocations are expensive, so the single-threaded FPTree
//! allocates leaves in *groups*: a persistent linked list of blocks each
//! holding `group_size` leaves, plus a **volatile** vector of currently free
//! leaves. `GetLeaf` pops a free leaf (allocating a new group only when the
//! vector is empty, Algorithm 10); `FreeLeaf` pushes a freed leaf back and
//! deallocates a group once every leaf in it is free (Algorithm 12). Both
//! use micro-logs so a crash can never leak a group (Algorithms 11 and 13).
//!
//! The group-list *tail* is kept volatile here (recomputed by walking the
//! list at open); only the head is persistent. This removes the persistent
//! tail updates of Algorithm 10 at the cost of re-walking on recovery — the
//! recovery-time group walk happens anyway to rebuild the free vector.
//!
//! Group block layout: `[next: RawPPtr | pad to 64][leaf 0][leaf 1]...`.
//!
//! The configured `leaf_group_size` is a minimum: a new tree takes as many
//! leaves per group as the allocator block of that minimum holds
//! ([`fill_group_block`]), and persists the result. `open` uses the stored
//! size as it is, so one tree keeps one group size for its whole life.

use std::collections::{BTreeMap, HashSet};

use fptree_pmem::{usable_size, PmemPool, RawPPtr};

use crate::api::Error;
use crate::config::TreeConfig;
use crate::layout::LeafLayout;
use crate::meta::TreeMeta;

/// Byte offset of the first leaf within a group block.
pub(crate) const GROUP_HEADER: u64 = 64;

/// Bytes a group of `group_size` leaves of `leaf_size` bytes asks the
/// allocator for: the header plus the leaves. `None` on overflow.
pub(crate) fn group_bytes(group_size: usize, leaf_size: usize) -> Option<usize> {
    group_size
        .checked_mul(leaf_size)?
        .checked_add(GROUP_HEADER as usize)
}

/// `cfg` with its group size raised to fill the allocator block: a group of
/// `cfg.leaf_group_size` leaves lands in a power-of-two size class, and the
/// resolved group takes every whole leaf that class has room for. Grouping
/// off (0 or 1) and sizes no class holds pass through unchanged.
pub(crate) fn fill_group_block(cfg: TreeConfig, key_slot: usize) -> TreeConfig {
    let requested = cfg.leaf_group_size;
    if requested <= 1 {
        return cfg;
    }
    let leaf = LeafLayout::new(&cfg, key_slot).size;
    let fitted = group_bytes(requested, leaf)
        .and_then(|bytes| usable_size(bytes).ok())
        .map_or(requested, |usable| (usable - GROUP_HEADER as usize) / leaf);
    cfg.with_leaf_group_size(fitted)
}

/// Volatile manager of the leaf-group structures.
pub(crate) struct GroupMgr {
    /// Leaves per group; 0/1 disables grouping entirely.
    group_size: usize,
    /// Zero fresh groups: required for variable-size keys (stale key
    /// pointers in recycled memory must never look live to the recovery
    /// audit); unnecessary for fixed keys, whose splits overwrite the whole
    /// leaf before it becomes reachable.
    sanitize: bool,
    /// Free leaves, most recently freed last (Algorithm 10 pops the back).
    free: Vec<u64>,
    /// Group base offset → number of currently free leaves in it; ordered,
    /// so the group holding a leaf is the last base at or below it.
    free_count: BTreeMap<u64, usize>,
    /// Group list in order (head first); tail is `groups.last()`. Kept for
    /// the persistent list's order: an unlink needs the predecessor.
    groups: Vec<u64>,
}

impl GroupMgr {
    pub(crate) fn new(group_size: usize) -> GroupMgr {
        Self::with_sanitize(group_size, true)
    }

    pub(crate) fn with_sanitize(group_size: usize, sanitize: bool) -> GroupMgr {
        GroupMgr {
            group_size,
            sanitize,
            free: Vec::new(),
            free_count: BTreeMap::new(),
            groups: Vec::new(),
        }
    }

    /// Whether grouping is active.
    pub(crate) fn enabled(&self) -> bool {
        self.group_size > 1
    }

    /// The free-leaf vector in pop order (differential recovery checks).
    pub(crate) fn free_snapshot(&self) -> Vec<u64> {
        self.free.clone()
    }

    /// Number of allocated groups.
    pub(crate) fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Base offsets of the allocated groups, in list order.
    pub(crate) fn blocks(&self) -> &[u64] {
        &self.groups
    }

    fn group_bytes(&self, layout: &LeafLayout) -> usize {
        GROUP_HEADER as usize + self.group_size * layout.size
    }

    fn group_of(&self, layout: &LeafLayout, leaf: u64) -> Option<u64> {
        let bytes = self.group_bytes(layout) as u64;
        let (&g, _) = self.free_count.range(..=leaf).next_back()?;
        (leaf >= g + GROUP_HEADER && leaf < g + bytes).then_some(g)
    }

    fn leaves_of(&self, layout: &LeafLayout, group: u64) -> impl Iterator<Item = u64> + '_ {
        let size = layout.size as u64;
        (0..self.group_size as u64).map(move |i| group + GROUP_HEADER + i * size)
    }

    /// GetLeaf (Algorithm 10): returns a free leaf, persistently publishing
    /// its address into the owner pointer at `dest_slot`.
    ///
    /// With grouping disabled this is a plain crash-safe allocation.
    pub(crate) fn get_leaf(
        &mut self,
        pool: &PmemPool,
        layout: &LeafLayout,
        meta: &TreeMeta,
        dest_slot: u64,
    ) -> u64 {
        self.try_get_leaf(pool, layout, meta, dest_slot)
            .expect("pool exhausted: leaf")
    }

    /// Fallible [`Self::get_leaf`] — the recovery paths must report pool
    /// exhaustion as an error instead of panicking.
    pub(crate) fn try_get_leaf(
        &mut self,
        pool: &PmemPool,
        layout: &LeafLayout,
        meta: &TreeMeta,
        dest_slot: u64,
    ) -> Result<u64, Error> {
        if !self.enabled() {
            return Ok(pool.allocate(dest_slot, layout.size)?);
        }
        if self.free.is_empty() {
            self.allocate_group(pool, layout, meta)?;
        }
        let leaf = self
            .free
            .pop()
            .expect("group allocation yielded no free leaves");
        let group = self
            .group_of(layout, leaf)
            .expect("free leaf outside any group");
        *self
            .free_count
            .get_mut(&group)
            .expect("group not registered") -= 1;
        let p = RawPPtr::new(pool.file_id(), leaf);
        pool.write_publish_at(dest_slot, &p);
        pool.persist(dest_slot, 16);
        Ok(leaf)
    }

    /// Allocates a fresh group, links it at the tail, and adds its leaves to
    /// the free vector (Algorithm 10 lines 2–9, getleaf micro-log).
    fn allocate_group(
        &mut self,
        pool: &PmemPool,
        layout: &LeafLayout,
        meta: &TreeMeta,
    ) -> Result<(), Error> {
        let log = meta.getleaf_log();
        let bytes = self.group_bytes(layout);
        let group = pool.allocate(log.ptr_slot(), bytes)?;
        if self.sanitize {
            // The allocator recycles memory, and stale leaf contents (key
            // pointers) must never be mistaken for live data by the audit.
            pool.write_bytes(group, &vec![0u8; bytes]);
            pool.persist(group, bytes);
        } else {
            // Fixed keys: only the group header (the next link) must be
            // clean before linking.
            pool.write_bytes(group, &[0u8; GROUP_HEADER as usize]);
            pool.persist(group, GROUP_HEADER as usize);
        }
        self.link_group(pool, meta, group);
        log.reset(pool);
        self.register_group(layout, group, self.group_size);
        for leaf in self.leaves_of(layout, group).collect::<Vec<_>>() {
            self.free.push(leaf);
        }
        Ok(())
    }

    /// Appends `group` to the persistent group list (volatile tail).
    fn link_group(&self, pool: &PmemPool, meta: &TreeMeta, group: u64) {
        let p = RawPPtr::new(pool.file_id(), group);
        match self.groups.last() {
            None => meta.set_groups_head(pool, p),
            Some(&tail) => {
                pool.write_publish_at(tail, &p); // group header starts with `next`
                pool.persist(tail, 16);
            }
        }
    }

    fn register_group(&mut self, _layout: &LeafLayout, group: u64, free: usize) {
        self.groups.push(group);
        self.free_count.insert(group, free);
    }

    /// FreeLeaf (Algorithm 12): returns a leaf to the pool; deallocates its
    /// group when the group becomes entirely free.
    ///
    /// With grouping disabled the caller deallocates through its own
    /// micro-log instead (this must not be called).
    pub(crate) fn free_leaf(
        &mut self,
        pool: &PmemPool,
        layout: &LeafLayout,
        meta: &TreeMeta,
        leaf: u64,
    ) {
        assert!(self.enabled(), "free_leaf requires grouping");
        let group = self
            .group_of(layout, leaf)
            .expect("freed leaf outside any group");
        let count = self
            .free_count
            .get_mut(&group)
            .expect("group not registered");
        if *count + 1 == self.group_size {
            // Group entirely free: unlink and deallocate it.
            let pos = self
                .groups
                .iter()
                .position(|&g| g == group)
                .expect("group in list");
            let (lo, hi) = (
                group + GROUP_HEADER,
                group + self.group_bytes(layout) as u64,
            );
            self.free.retain(|&l| !(lo..hi).contains(&l));
            let log = meta.freeleaf_log();
            log.set_first(pool, RawPPtr::new(pool.file_id(), group));
            if pos == 0 {
                let next: RawPPtr = pool.read_at(group);
                meta.set_groups_head(pool, next);
            } else {
                let prev = self.groups[pos - 1];
                log.set_second(pool, RawPPtr::new(pool.file_id(), prev));
                let next: RawPPtr = pool.read_at(group);
                pool.write_publish_at(prev, &next);
                pool.persist(prev, 16);
            }
            pool.deallocate(log.first_slot());
            log.reset(pool);
            self.groups.remove(pos);
            self.free_count.remove(&group);
        } else {
            *count += 1;
            self.free.push(leaf);
        }
    }

    /// Walks the persistent group list, validating every link (alignment,
    /// bounds for a whole group block, no cycles) before following it, and
    /// returns the group base offsets in list order. This is the one place
    /// recovery trusts group pointers: `rebuild`, the parallel harvest, and
    /// the micro-log replays all partition the leaf set through it.
    pub(crate) fn walk_directory(
        pool: &PmemPool,
        layout: &LeafLayout,
        meta: &TreeMeta,
        group_size: usize,
    ) -> Result<Vec<u64>, Error> {
        let bytes = GROUP_HEADER as usize + group_size * layout.size;
        let mut groups = Vec::new();
        let mut seen = HashSet::new();
        let mut cur = meta.groups_head(pool);
        while !cur.is_null() {
            let g = cur.offset;
            if !g.is_multiple_of(8) || !pool.in_bounds(g, bytes) {
                return Err(Error::corrupt("leaf-group pointer", g));
            }
            if !seen.insert(g) {
                return Err(Error::corrupt("leaf-group list cycle", g));
            }
            groups.push(g);
            cur = pool.read_at(g);
        }
        Ok(groups)
    }

    /// Recovers the GetLeaf micro-log (Algorithm 11, volatile-tail variant):
    /// a group that was allocated but not linked is linked at the end.
    pub(crate) fn recover_getleaf(
        pool: &PmemPool,
        meta: &TreeMeta,
        layout: &LeafLayout,
        group_size: usize,
    ) -> Result<(), Error> {
        let log = meta.getleaf_log();
        let p = log.ptr(pool);
        if p.is_null() {
            return Ok(());
        }
        let bytes = GROUP_HEADER as usize + group_size * layout.size;
        if !p.offset.is_multiple_of(8) || !pool.in_bounds(p.offset, bytes) {
            return Err(Error::corrupt("getleaf log pointer", p.offset));
        }
        // Walk the persistent list to see whether the group got linked.
        let directory = Self::walk_directory(pool, layout, meta, group_size)?;
        if !directory.contains(&p.offset) {
            // Re-sanitize (the zeroing may not have completed) and link.
            pool.write_bytes(p.offset, &vec![0u8; bytes]);
            pool.persist(p.offset, bytes);
            match directory.last() {
                None => meta.set_groups_head(pool, p),
                Some(&tail) => {
                    pool.write_publish_at(tail, &p);
                    pool.persist(tail, 16);
                }
            }
        }
        log.reset(pool);
        Ok(())
    }

    /// Recovers the FreeLeaf micro-log (Algorithm 13): completes an
    /// interrupted group unlink + deallocation, or rolls back.
    pub(crate) fn recover_freeleaf(pool: &PmemPool, meta: &TreeMeta) -> Result<(), Error> {
        let log = meta.freeleaf_log();
        let cur = log.first(pool);
        if cur.is_null() {
            log.reset_if_nonzero(pool);
            return Ok(());
        }
        if !cur.offset.is_multiple_of(8) || !pool.in_bounds(cur.offset, 16) {
            return Err(Error::corrupt("freeleaf log current pointer", cur.offset));
        }
        let prev = log.second(pool);
        if !prev.is_null() && (!prev.offset.is_multiple_of(8) || !pool.in_bounds(prev.offset, 16)) {
            return Err(Error::corrupt("freeleaf log previous pointer", prev.offset));
        }
        let head = meta.groups_head(pool);
        if !prev.is_null() {
            // Crashed between recording prev and deallocating: redo unlink.
            let next: RawPPtr = pool.read_at(cur.offset);
            pool.write_publish_at(prev.offset, &next);
            pool.persist(prev.offset, 16);
            pool.deallocate(log.first_slot());
        } else if head.offset == cur.offset {
            // Head unlink not yet done.
            let next: RawPPtr = pool.read_at(cur.offset);
            meta.set_groups_head(pool, next);
            pool.deallocate(log.first_slot());
        } else {
            let next: RawPPtr = pool.read_at(cur.offset);
            if next.offset == head.offset {
                // Head already moved past us: just deallocate.
                pool.deallocate(log.first_slot());
            }
            // Else: rollback — the group stays linked and allocated; its
            // free leaves are rediscovered by the rebuild walk.
        }
        log.reset(pool);
        Ok(())
    }

    /// Rebuilds the volatile free vector and group registry by walking the
    /// persistent group list; `in_tree` holds the leaf offsets reachable
    /// from the leaf linked list.
    pub(crate) fn rebuild(
        &mut self,
        pool: &PmemPool,
        layout: &LeafLayout,
        meta: &TreeMeta,
        in_tree: &std::collections::HashSet<u64>,
    ) -> Result<(), Error> {
        self.free.clear();
        self.free_count.clear();
        self.groups.clear();
        if !self.enabled() {
            return Ok(());
        }
        for group in Self::walk_directory(pool, layout, meta, self.group_size)? {
            self.register_group(layout, group, 0);
            let mut free_here = 0;
            for leaf in self.leaves_of(layout, group).collect::<Vec<_>>() {
                if !in_tree.contains(&leaf) {
                    self.free.push(leaf);
                    free_here += 1;
                }
            }
            *self.free_count.get_mut(&group).expect("just registered") = free_here;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TreeConfig;
    use fptree_pmem::{PoolOptions, ROOT_SLOT};

    fn setup(group_size: usize) -> (PmemPool, LeafLayout, TreeMeta, GroupMgr) {
        let pool = PmemPool::create(PoolOptions::direct(8 << 20)).unwrap();
        let cfg = TreeConfig::fptree().with_leaf_group_size(group_size);
        let layout = LeafLayout::new(&cfg, 8);
        let meta = TreeMeta::create(&pool, &cfg, 8, false, 1, ROOT_SLOT);
        let mgr = GroupMgr::new(group_size);
        (pool, layout, meta, mgr)
    }

    #[test]
    fn get_leaf_amortizes_allocations() {
        let (pool, layout, meta, mut mgr) = setup(8);
        let dest = meta.head_slot();
        pool.stats().reset();
        let mut leaves = Vec::new();
        for _ in 0..8 {
            leaves.push(mgr.get_leaf(&pool, &layout, &meta, dest));
        }
        // 8 leaves from ONE allocation (the metadata block came earlier).
        assert_eq!(pool.stats().snapshot().allocs, 1);
        assert_eq!(mgr.group_count(), 1);
        assert!(mgr.free_snapshot().is_empty());
        leaves.sort();
        leaves.dedup();
        assert_eq!(leaves.len(), 8);
        // Ninth leaf triggers a second group.
        mgr.get_leaf(&pool, &layout, &meta, dest);
        assert_eq!(pool.stats().snapshot().allocs, 2);
        assert_eq!(mgr.group_count(), 2);
    }

    #[test]
    fn get_leaf_publishes_owner_pointer() {
        let (pool, layout, meta, mut mgr) = setup(4);
        let dest = meta.head_slot();
        let leaf = mgr.get_leaf(&pool, &layout, &meta, dest);
        let p: RawPPtr = pool.read_at(dest);
        assert_eq!(p.offset, leaf);
    }

    #[test]
    fn free_leaf_recycles_without_deallocating() {
        let (pool, layout, meta, mut mgr) = setup(4);
        let dest = meta.head_slot();
        let a = mgr.get_leaf(&pool, &layout, &meta, dest);
        let _b = mgr.get_leaf(&pool, &layout, &meta, dest);
        pool.stats().reset();
        mgr.free_leaf(&pool, &layout, &meta, a);
        assert_eq!(pool.stats().snapshot().deallocs, 0);
        let c = mgr.get_leaf(&pool, &layout, &meta, dest);
        assert_eq!(c, a, "freed leaf must be recycled");
    }

    #[test]
    fn fully_free_group_is_deallocated() {
        let (pool, layout, meta, mut mgr) = setup(2);
        let dest = meta.head_slot();
        let a = mgr.get_leaf(&pool, &layout, &meta, dest);
        let b = mgr.get_leaf(&pool, &layout, &meta, dest);
        assert_eq!(mgr.group_count(), 1);
        mgr.free_leaf(&pool, &layout, &meta, a);
        pool.stats().reset();
        mgr.free_leaf(&pool, &layout, &meta, b);
        assert_eq!(
            pool.stats().snapshot().deallocs,
            1,
            "group must be deallocated"
        );
        assert_eq!(mgr.group_count(), 0);
        assert!(mgr.free_snapshot().is_empty());
        assert!(meta.groups_head(&pool).is_null());
    }

    #[test]
    fn group_unlink_preserves_other_groups() {
        let (pool, layout, meta, mut mgr) = setup(2);
        let dest = meta.head_slot();
        // Three groups worth of leaves.
        let leaves: Vec<u64> = (0..6)
            .map(|_| mgr.get_leaf(&pool, &layout, &meta, dest))
            .collect();
        assert_eq!(mgr.group_count(), 3);
        // Free the middle group (leaves 2 and 3).
        mgr.free_leaf(&pool, &layout, &meta, leaves[2]);
        mgr.free_leaf(&pool, &layout, &meta, leaves[3]);
        assert_eq!(mgr.group_count(), 2);
        // Persistent list must still connect head to the last group.
        let mut cur = meta.groups_head(&pool);
        let mut seen = 0;
        while !cur.is_null() {
            seen += 1;
            cur = pool.read_at(cur.offset);
        }
        assert_eq!(seen, 2);
    }

    #[test]
    fn rebuild_recovers_free_vector() {
        let (pool, layout, meta, mut mgr) = setup(4);
        let dest = meta.head_slot();
        let used: Vec<u64> = (0..6)
            .map(|_| mgr.get_leaf(&pool, &layout, &meta, dest))
            .collect();
        // Pretend only the first three are reachable from the tree.
        let in_tree: std::collections::HashSet<u64> = used[..3].iter().copied().collect();
        let mut fresh = GroupMgr::new(4);
        fresh.rebuild(&pool, &layout, &meta, &in_tree).unwrap();
        assert_eq!(fresh.group_count(), 2);
        // 8 leaves exist, 3 in tree -> 5 free.
        assert_eq!(fresh.free_snapshot().len(), 5);
    }

    #[test]
    fn recover_getleaf_links_orphan_group() {
        let (pool, layout, meta, mut mgr) = setup(2);
        let dest = meta.head_slot();
        let _ = mgr.get_leaf(&pool, &layout, &meta, dest); // one group linked
                                                           // Simulate a crash after allocation, before linking: allocate a block
                                                           // directly into the getleaf log.
        let log = meta.getleaf_log();
        let bytes = GROUP_HEADER as usize + 2 * layout.size;
        let orphan = pool.allocate(log.ptr_slot(), bytes).unwrap();
        GroupMgr::recover_getleaf(&pool, &meta, &layout, 2).unwrap();
        assert!(log.ptr(&pool).is_null());
        // Walk: orphan must now be reachable.
        let mut cur = meta.groups_head(&pool);
        let mut found = false;
        while !cur.is_null() {
            if cur.offset == orphan {
                found = true;
            }
            cur = pool.read_at(cur.offset);
        }
        assert!(found, "orphan group must be linked by recovery");
    }

    #[test]
    fn recover_freeleaf_rolls_back_untouched_unlink() {
        let (pool, layout, meta, mut mgr) = setup(2);
        let dest = meta.head_slot();
        let _ = mgr.get_leaf(&pool, &layout, &meta, dest);
        let second_group_leaf = {
            let _ = mgr.get_leaf(&pool, &layout, &meta, dest);
            mgr.get_leaf(&pool, &layout, &meta, dest)
        };
        let group = mgr.group_of(&layout, second_group_leaf).unwrap();
        // Crash right after logging the group, before any unlink step.
        let log = meta.freeleaf_log();
        log.set_first(&pool, RawPPtr::new(pool.file_id(), group));
        GroupMgr::recover_freeleaf(&pool, &meta).unwrap();
        assert!(log.first(&pool).is_null());
        // Group still linked (rollback).
        let mut cur = meta.groups_head(&pool);
        let mut count = 0;
        while !cur.is_null() {
            count += 1;
            cur = pool.read_at(cur.offset);
        }
        assert_eq!(count, 2);
    }
}
