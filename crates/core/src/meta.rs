//! Persistent tree metadata and micro-logs.
//!
//! Every tree owns one persistent metadata block holding:
//!
//! * a status word (detects crashes during initialization, Algorithm 9);
//! * the persisted configuration (so [`open`](crate::SingleTree::open) can
//!   validate and reconstruct the layout without the caller re-supplying it);
//! * the head of the leaf linked list and, when leaf groups are enabled, the
//!   head of the group list;
//! * the micro-log arrays: fixed-position, cache-line-aligned pairs of
//!   persistent pointers that make leaf splits and deletes crash-atomic
//!   (§5). The concurrent tree owns an array of each, indexed through a
//!   lock-free queue; the single-threaded tree uses index 0.
//!
//! Micro-log commit convention: each log's *first* pointer (`PCurrentLeaf` /
//! `PNewGroup` / `PCurrentGroup`) acts as the commit record — recovery
//! trusts the second pointer only after observing the first as non-null, and
//! writers persist the first pointer before (separately from) the second, so
//! the word-granularity crash model can never fabricate a half-valid log.

use fptree_pmem::{PmemPool, RawPPtr};

use crate::config::TreeConfig;

/// Status: metadata block exists but initialization did not finish.
pub const STATUS_INITIALIZING: u64 = 1;
/// Status: tree fully initialized.
pub const STATUS_READY: u64 = 2;

// Field offsets within the metadata block.
const M_STATUS: u64 = 0;
const M_LEAF_CAP: u64 = 8;
const M_VALUE_SIZE: u64 = 16;
const M_FLAGS: u64 = 24;
const M_HEAD: u64 = 32; // RawPPtr: head of the leaf linked list
const M_GROUPS_HEAD: u64 = 48; // RawPPtr: head of the leaf-group list
const M_GROUP_SIZE: u64 = 64;
const M_NLOGS: u64 = 72;
const M_INNER_FANOUT: u64 = 80;
const M_KEY_SLOT: u64 = 88;
const M_WBUF_ENTRIES: u64 = 96;
/// GetLeaf micro-log (Algorithm 10): one pointer, own cache line.
const M_GETLEAF_LOG: u64 = 128;
/// FreeLeaf micro-log (Algorithm 12): two pointers, own cache line.
const M_FREELEAF_LOG: u64 = 192;
/// Split/delete log arrays start here, 64 bytes per log.
const M_LOGS: u64 = 256;

const FLAG_FINGERPRINTS: u64 = 1;
const FLAG_SPLIT_ARRAYS: u64 = 2;
const FLAG_VAR_KEYS: u64 = 4;
/// Legacy: once selected the SWAR probe + sentinels over a scalar mode.
/// Still written (images stay byte-identical to older builds'), never read:
/// there is one probe, and the sentinels are gone (the bit goes at the
/// format bump that reclaims their 16 reserved bytes).
const FLAG_SWAR_PROBE: u64 = 8;

/// Handle over a tree's persistent metadata block.
#[derive(Debug, Clone, Copy)]
pub struct TreeMeta {
    /// Base offset of the block in the pool.
    pub off: u64,
    /// Number of split logs (== number of delete logs).
    pub n_logs: usize,
}

impl TreeMeta {
    /// Bytes needed for a metadata block with `n_logs` split + delete logs.
    pub fn byte_size(n_logs: usize) -> usize {
        (M_LOGS as usize) + 2 * n_logs * 64
    }

    /// Allocates and initializes a metadata block, publishing it into the
    /// owner pointer at `owner_slot`. Status is left INITIALIZING; the tree
    /// marks READY once its first leaf exists.
    pub fn create(
        pool: &PmemPool,
        cfg: &TreeConfig,
        key_slot: usize,
        var_keys: bool,
        n_logs: usize,
        owner_slot: u64,
    ) -> TreeMeta {
        let off = pool
            .allocate(owner_slot, Self::byte_size(n_logs))
            .expect("pool exhausted allocating tree metadata");
        // Zero the whole block (the allocator recycles memory).
        pool.write_bytes(off, &vec![0u8; Self::byte_size(n_logs)]);
        pool.persist(off, Self::byte_size(n_logs));

        // analyzer:allow(raw-publish) — staging a fresh, unreachable block;
        // the tree is committed later by the set_status(STATUS_READY) publish.
        pool.write_word(off + M_STATUS, STATUS_INITIALIZING);
        pool.write_word(off + M_LEAF_CAP, cfg.leaf_capacity as u64);
        pool.write_word(off + M_VALUE_SIZE, cfg.value_size as u64);
        let mut flags = FLAG_SWAR_PROBE;
        if cfg.fingerprints {
            flags |= FLAG_FINGERPRINTS;
        }
        if cfg.split_arrays {
            flags |= FLAG_SPLIT_ARRAYS;
        }
        if var_keys {
            flags |= FLAG_VAR_KEYS;
        }
        pool.write_word(off + M_FLAGS, flags);
        pool.write_word(off + M_GROUP_SIZE, cfg.leaf_group_size as u64);
        pool.write_word(off + M_NLOGS, n_logs as u64);
        pool.write_word(off + M_INNER_FANOUT, cfg.inner_fanout as u64);
        pool.write_word(off + M_KEY_SLOT, key_slot as u64);
        pool.write_word(off + M_WBUF_ENTRIES, cfg.wbuf_entries as u64);
        pool.persist(off, 128);
        TreeMeta { off, n_logs }
    }

    /// Opens an existing metadata block at `off` (from the owner pointer).
    ///
    /// Every word is read from a potentially corrupt image, so the block is
    /// validated — alignment, bounds, a sane log count — before any field
    /// is trusted; failures surface as [`crate::api::Error::Corrupt`].
    pub fn open(pool: &PmemPool, off: u64) -> Result<TreeMeta, crate::api::Error> {
        use crate::api::Error;
        if off == 0 || !off.is_multiple_of(8) || !pool.in_bounds(off, Self::byte_size(1)) {
            return Err(Error::corrupt("tree metadata pointer", off));
        }
        let n_logs = pool.read_word(off + M_NLOGS) as usize;
        // Upper bound before byte_size() so the size math cannot overflow:
        // no pool can hold more logs than bytes.
        if n_logs < 1 || n_logs > pool.capacity() / 128 {
            return Err(Error::corrupt(
                format!("metadata micro-log count {n_logs}"),
                off + M_NLOGS,
            ));
        }
        if !pool.in_bounds(off, Self::byte_size(n_logs)) {
            return Err(Error::corrupt(
                format!("metadata block of {n_logs} logs overruns the pool"),
                off,
            ));
        }
        Ok(TreeMeta { off, n_logs })
    }

    /// Reconstructs the persisted [`TreeConfig`] and key-slot width.
    pub fn stored_config(&self, pool: &PmemPool) -> (TreeConfig, usize, bool) {
        let flags = pool.read_word(self.off + M_FLAGS);
        let cfg = TreeConfig {
            leaf_capacity: pool.read_word(self.off + M_LEAF_CAP) as usize,
            inner_fanout: pool.read_word(self.off + M_INNER_FANOUT) as usize,
            value_size: pool.read_word(self.off + M_VALUE_SIZE) as usize,
            fingerprints: flags & FLAG_FINGERPRINTS != 0,
            split_arrays: flags & FLAG_SPLIT_ARRAYS != 0,
            leaf_group_size: pool.read_word(self.off + M_GROUP_SIZE) as usize,
            wbuf_entries: pool.read_word(self.off + M_WBUF_ENTRIES) as usize,
        };
        let key_slot = pool.read_word(self.off + M_KEY_SLOT) as usize;
        (cfg, key_slot, flags & FLAG_VAR_KEYS != 0)
    }

    /// Current status word.
    pub fn status(&self, pool: &PmemPool) -> u64 {
        pool.read_word(self.off + M_STATUS)
    }

    /// Persists a new status.
    pub fn set_status(&self, pool: &PmemPool, status: u64) {
        pool.write_publish_word(self.off + M_STATUS, status);
        pool.persist(self.off + M_STATUS, 8);
    }

    /// Head of the leaf linked list.
    pub fn head(&self, pool: &PmemPool) -> RawPPtr {
        pool.read_at(self.off + M_HEAD)
    }

    /// Persists the leaf-list head.
    pub fn set_head(&self, pool: &PmemPool, head: RawPPtr) {
        pool.write_publish_at(self.off + M_HEAD, &head);
        pool.persist(self.off + M_HEAD, 16);
    }

    /// Pool offset of the leaf-list head field (owner slot for allocating
    /// the first leaf).
    pub fn head_slot(&self) -> u64 {
        self.off + M_HEAD
    }

    /// Head of the leaf-group list.
    pub fn groups_head(&self, pool: &PmemPool) -> RawPPtr {
        pool.read_at(self.off + M_GROUPS_HEAD)
    }

    /// Persists the group-list head.
    pub fn set_groups_head(&self, pool: &PmemPool, head: RawPPtr) {
        pool.write_publish_at(self.off + M_GROUPS_HEAD, &head);
        pool.persist(self.off + M_GROUPS_HEAD, 16);
    }

    /// The GetLeaf micro-log (Algorithm 10).
    pub fn getleaf_log(&self) -> PtrLog {
        PtrLog {
            base: self.off + M_GETLEAF_LOG,
        }
    }

    /// The FreeLeaf micro-log (Algorithm 12).
    pub fn freeleaf_log(&self) -> PairLog {
        PairLog {
            base: self.off + M_FREELEAF_LOG,
        }
    }

    /// Split micro-log `i` (`PCurrentLeaf`, `PNewLeaf`).
    pub fn split_log(&self, i: usize) -> PairLog {
        assert!(i < self.n_logs);
        PairLog {
            base: self.off + M_LOGS + (i as u64) * 64,
        }
    }

    /// Delete micro-log `i` (`PCurrentLeaf`, `PPrevLeaf`).
    pub fn delete_log(&self, i: usize) -> PairLog {
        assert!(i < self.n_logs);
        PairLog {
            base: self.off + M_LOGS + ((self.n_logs + i) as u64) * 64,
        }
    }
}

/// A micro-log holding one persistent pointer (GetLeaf's `PNewGroup`).
#[derive(Debug, Clone, Copy)]
pub struct PtrLog {
    base: u64,
}

impl PtrLog {
    /// The logged pointer.
    pub fn ptr(&self, pool: &PmemPool) -> RawPPtr {
        pool.read_at(self.base)
    }

    /// Pool offset of the pointer field (allocator owner slot).
    pub fn ptr_slot(&self) -> u64 {
        self.base
    }

    /// Resets the log.
    pub fn reset(&self, pool: &PmemPool) {
        pool.write_publish_at(self.base, &RawPPtr::NULL);
        pool.persist(self.base, 16);
    }
}

/// A micro-log holding two persistent pointers.
///
/// The first pointer is the commit record: it is persisted on its own before
/// the second pointer is written, and recovery ignores the second unless the
/// first is non-null.
#[derive(Debug, Clone, Copy)]
pub struct PairLog {
    base: u64,
}

impl PairLog {
    /// First pointer (`PCurrentLeaf` / `PCurrentGroup`).
    pub fn first(&self, pool: &PmemPool) -> RawPPtr {
        pool.read_at(self.base)
    }

    /// Second pointer (`PNewLeaf` / `PPrevLeaf` / `PPrevGroup`).
    pub fn second(&self, pool: &PmemPool) -> RawPPtr {
        pool.read_at(self.base + 16)
    }

    /// Persists the first pointer (the log's commit record).
    pub fn set_first(&self, pool: &PmemPool, p: RawPPtr) {
        pool.write_publish_at(self.base, &p);
        pool.persist(self.base, 16);
    }

    /// Persists the second pointer.
    pub fn set_second(&self, pool: &PmemPool, p: RawPPtr) {
        pool.write_publish_at(self.base + 16, &p);
        pool.persist(self.base + 16, 16);
    }

    /// Pool offset of the second pointer (allocator owner slot for the new
    /// leaf in a split, per the leak-prevention interface).
    pub fn second_slot(&self) -> u64 {
        self.base + 16
    }

    /// Pool offset of the first pointer (owner slot when the logged object
    /// itself is deallocated, e.g. `Deallocate(µLog.PCurrentLeaf)`).
    pub fn first_slot(&self) -> u64 {
        self.base
    }

    /// Resets both pointers (end of the logged operation).
    pub fn reset(&self, pool: &PmemPool) {
        // One 32-byte publish: both halves are retired together and the
        // shared persist below is their only ordering point.
        pool.write_publish_at(self.base, &[RawPPtr::NULL, RawPPtr::NULL]);
        pool.persist(self.base, 32);
    }

    /// Recovery's reset of an unarmed log: a read when the log is already
    /// all zero, [`PairLog::reset`] otherwise. Every word counts, not just
    /// the first pointer — a torn reset can leave the second half set, and
    /// a later `set_first` without `set_second` would then replay it.
    pub fn reset_if_nonzero(&self, pool: &PmemPool) {
        if (0..4).any(|w| pool.read_word(self.base + 8 * w) != 0) {
            self.reset(pool);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fptree_pmem::{PoolOptions, ROOT_SLOT};

    fn pool() -> PmemPool {
        PmemPool::create(PoolOptions::direct(1 << 20)).unwrap()
    }

    #[test]
    fn create_open_roundtrip_preserves_config() {
        let p = pool();
        let cfg = TreeConfig::fptree_var();
        let meta = TreeMeta::create(&p, &cfg, 16, true, 8, ROOT_SLOT);
        assert_eq!(meta.status(&p), STATUS_INITIALIZING);
        meta.set_status(&p, STATUS_READY);

        let owner: RawPPtr = p.read_at(ROOT_SLOT);
        let meta2 = TreeMeta::open(&p, owner.offset).unwrap();
        assert_eq!(meta2.n_logs, 8);
        let (cfg2, key_slot, var) = meta2.stored_config(&p);
        assert_eq!(cfg2, cfg);
        assert_eq!(key_slot, 16);
        assert!(var);
        assert_eq!(meta2.status(&p), STATUS_READY);
    }

    #[test]
    fn logs_are_disjoint_cache_lines() {
        let p = pool();
        let meta = TreeMeta::create(&p, &TreeConfig::fptree(), 8, false, 4, ROOT_SLOT);
        let mut bases: Vec<u64> = (0..4)
            .flat_map(|i| [meta.split_log(i).base, meta.delete_log(i).base])
            .collect();
        bases.push(meta.getleaf_log().base);
        bases.push(meta.freeleaf_log().base);
        bases.sort();
        bases.dedup();
        assert_eq!(bases.len(), 10);
        for w in bases.windows(2) {
            assert!(w[1] - w[0] >= 64, "logs share a cache line");
        }
        for b in bases {
            assert_eq!(b % 64, 0, "log not cache-line aligned");
        }
    }

    #[test]
    fn pair_log_roundtrip() {
        let p = pool();
        let meta = TreeMeta::create(&p, &TreeConfig::fptree(), 8, false, 1, ROOT_SLOT);
        let log = meta.split_log(0);
        assert!(log.first(&p).is_null());
        assert!(log.second(&p).is_null());
        let a = RawPPtr::new(p.file_id(), 0x1000);
        let b = RawPPtr::new(p.file_id(), 0x2000);
        log.set_first(&p, a);
        log.set_second(&p, b);
        assert_eq!(log.first(&p), a);
        assert_eq!(log.second(&p), b);
        log.reset(&p);
        assert!(log.first(&p).is_null());
        assert!(log.second(&p).is_null());
    }

    #[test]
    fn reset_if_nonzero_persists_only_a_log_with_a_set_word() {
        let p = pool();
        let meta = TreeMeta::create(&p, &TreeConfig::fptree(), 8, false, 1, ROOT_SLOT);
        let log = meta.delete_log(0);
        let persists = || p.stats().snapshot().persist_calls;
        let before = persists();
        log.reset_if_nonzero(&p);
        assert_eq!(persists(), before, "an all-zero log costs a read");
        // A torn reset: the first pointer retired, the second still set.
        log.set_second(&p, RawPPtr::new(p.file_id(), 0x2000));
        let before = persists();
        log.reset_if_nonzero(&p);
        assert_eq!(persists(), before + 1);
        assert!(log.second(&p).is_null(), "the stale second half is gone");
    }

    #[test]
    fn head_pointers_roundtrip() {
        let p = pool();
        let meta = TreeMeta::create(&p, &TreeConfig::fptree(), 8, false, 1, ROOT_SLOT);
        assert!(meta.head(&p).is_null());
        let h = RawPPtr::new(p.file_id(), 0x4040);
        meta.set_head(&p, h);
        assert_eq!(meta.head(&p), h);
        assert!(meta.groups_head(&p).is_null());
        meta.set_groups_head(&p, h);
        assert_eq!(meta.groups_head(&p), h);
    }

    #[test]
    fn metadata_survives_reopen() {
        let p = PmemPool::create(PoolOptions::tracked(1 << 20)).unwrap();
        let meta = TreeMeta::create(&p, &TreeConfig::ptree(), 8, false, 2, ROOT_SLOT);
        meta.set_status(&p, STATUS_READY);
        let img = p.clean_image();
        let p2 = PmemPool::reopen(img, PoolOptions::tracked(0)).unwrap();
        let owner: RawPPtr = p2.read_at(ROOT_SLOT);
        let meta2 = TreeMeta::open(&p2, owner.offset).unwrap();
        let (cfg, _, _) = meta2.stored_config(&p2);
        assert_eq!(cfg, TreeConfig::ptree());
    }

    #[test]
    fn open_rejects_garbage_offsets() {
        let p = pool();
        TreeMeta::create(&p, &TreeConfig::fptree(), 8, false, 1, ROOT_SLOT);
        for off in [0u64, 7, 1 << 62, (1 << 20) - 8] {
            assert!(TreeMeta::open(&p, off).is_err(), "off={off:#x}");
        }
    }
}
