//! The single-threaded FPTree (and PTree), generic over the key kind.
//!
//! This file is the tree's *index shell*: the DRAM inner nodes and the
//! operations' outer halves — locate the leaf, call the leaf-mutation
//! kernel ([`crate::leafops`], DESIGN.md §5.14), publish a split or an
//! unlink into the inner nodes, keep `len`. What the kernel and the shared
//! recovery driver ([`crate::recovery`]) implement underneath:
//!
//! * **Find** — traverse DRAM inner nodes, fingerprint-scan one SCM leaf.
//! * **Insert** — write KV + fingerprint, persist, then commit with one
//!   p-atomic bitmap write; leaf splits are made crash-atomic by a split
//!   micro-log (Algorithms 3/4) and use amortized leaf-group allocation
//!   (Algorithm 10) when enabled.
//! * **Delete** — one p-atomic bitmap write; emptied leaves are unlinked
//!   under a delete micro-log (Algorithms 6/7) and returned to their group
//!   (Algorithm 12) or deallocated.
//! * **Update** — an optimized insert-after-delete: both the insertion and
//!   the deletion commit in the *same* p-atomic bitmap write (Algorithm 8);
//!   variable-size keys move the key *pointer* instead of reallocating
//!   (Algorithm 16).
//! * **Recovery** — replay the micro-logs, audit variable-key slots for
//!   leaks (Algorithm 17), rebuild the DRAM inner nodes from the leaf
//!   linked list, reset leaf locks (Algorithm 9).
//!
//! Two deliberate deviations from the pseudo-code, both documented in
//! DESIGN.md: (1) the last remaining leaf is never deleted, so traversal
//! always finds a leaf; (2) after a split the new key is inserted into
//! whichever half covers it (the paper's Algorithm 2 elides this choice).

use std::sync::Arc;
use std::time::Instant;

use fptree_pmem::PmemPool;

use crate::api::{check_create, Error};
use crate::config::TreeConfig;
use crate::groups::{fill_group_block, GroupMgr};
use crate::inner::{build_from_leaves, InnerNode, Node};
use crate::keys::KeyKind;
use crate::layout::LeafLayout;
use crate::leafops::{Ctx, WriteMode};
use crate::meta::{TreeMeta, STATUS_READY};
use crate::metrics::{Counter, Metrics, Op, RecoveryStats, Snapshot};
use crate::recovery::{recover, stamp_build};
use crate::scan::{Scan, ScanBounds};

/// Memory footprint report (Figure 8).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryUsage {
    /// Bytes in SCM: leaves (or their groups), key blobs, metadata block.
    pub scm_bytes: u64,
    /// Bytes in DRAM: inner nodes (plus the free-leaf vector).
    pub dram_bytes: u64,
    /// Number of leaves linked in the tree.
    pub leaf_count: usize,
    /// Number of inner nodes.
    pub inner_count: usize,
}

/// Sorted streaming iterator over a [`SingleTree`]'s entries.
///
/// Walks the persistent leaf list, buffering one leaf (sorted) at a time —
/// O(leaf) memory regardless of tree size. A full-range [`Scan`].
pub type TreeIter<'a, K> = Scan<'a, K>;

/// A single-threaded hybrid SCM-DRAM persistent B+-Tree.
///
/// `SingleTree<FixedKey>` with [`TreeConfig::fptree`] is the paper's FPTree;
/// with [`TreeConfig::ptree`] it is the PTree; `SingleTree<VarKey>` are the
/// variable-size-key variants.
pub struct SingleTree<K: KeyKind> {
    pub(crate) ctx: Ctx,
    pub(crate) groups: GroupMgr,
    pub(crate) root: Node<K>,
    pub(crate) len: usize,
    recovery: Option<RecoveryStats>,
}

/// The paper's FPTree / PTree with fixed-size (u64) keys.
pub type FPTree = SingleTree<crate::keys::FixedKey>;
/// The paper's FPTree / PTree with variable-size (byte-string) keys.
pub type FPTreeVar = SingleTree<crate::keys::VarKey>;

impl<K: KeyKind> SingleTree<K> {
    /// Creates a fresh tree, publishing its metadata block into the owner
    /// pointer at `owner_slot` (use [`fptree_pmem::ROOT_SLOT`] for the
    /// pool's primary object). Panics where [`Self::try_create`] errs.
    pub fn create(pool: Arc<PmemPool>, cfg: TreeConfig, owner_slot: u64) -> Self {
        Self::try_create(pool, cfg, owner_slot).expect("creating tree")
    }

    /// [`Self::create`], rejecting an invalid `cfg` or a pool too small for
    /// the tree's initial footprint before any persistent write.
    ///
    /// `cfg.leaf_group_size` is a minimum: the tree takes as many leaves per
    /// group as the allocator block of that many holds, and
    /// [`Self::config`] reports the resolved size.
    pub fn try_create(
        pool: Arc<PmemPool>,
        cfg: TreeConfig,
        owner_slot: u64,
    ) -> Result<Self, Error> {
        check_create::<K>(&cfg, &pool, 1)?;
        Self::create_resolved(pool, fill_group_block(cfg, K::SLOT_SIZE), owner_slot)
    }

    /// [`Self::try_create`] after its checks, with `cfg`'s group size taken
    /// as it is (already resolved).
    pub(crate) fn create_resolved(
        pool: Arc<PmemPool>,
        cfg: TreeConfig,
        owner_slot: u64,
    ) -> Result<Self, Error> {
        let checked = Arc::clone(&pool);
        let _op = checked.begin_checked_op("tree_create");
        let layout = LeafLayout::new(&cfg, K::SLOT_SIZE);
        let meta = TreeMeta::create(&pool, &cfg, K::SLOT_SIZE, K::IS_VAR, 1, owner_slot);
        let ctx = Ctx::new(pool, cfg, layout, meta);
        let mut groups = GroupMgr::with_sanitize(cfg.leaf_group_size, K::IS_VAR);
        ctx.metrics.inc(Counter::LeafAllocs);
        let head = groups.get_leaf(&ctx.pool, &ctx.layout, &meta, meta.head_slot());
        ctx.zero_leaf(head);
        meta.set_status(&ctx.pool, STATUS_READY);
        Ok(SingleTree {
            ctx,
            groups,
            root: Node::Leaf(head),
            len: 0,
            recovery: None,
        })
    }

    /// Bulk-loads sorted, unique `(key, value)` entries at ~70% leaf fill —
    /// how a warmed-up tree looks (Figure 8's fill factor), and much faster
    /// than repeated inserts.
    ///
    /// All-or-nothing: the metadata stays in the INITIALIZING state until
    /// the load completes, so a crash mid-load recovers to an empty tree
    /// (partial leaves are reclaimed by the init-crash path of `open`).
    /// Panics where [`Self::try_bulk_load`] errs.
    pub fn bulk_load(
        pool: Arc<PmemPool>,
        cfg: TreeConfig,
        owner_slot: u64,
        entries: &[(K::Owned, u64)],
    ) -> Self {
        Self::try_bulk_load(pool, cfg, owner_slot, entries).expect("bulk-loading tree")
    }

    /// [`Self::bulk_load`], rejecting what [`Self::try_create`] rejects plus
    /// unsorted or duplicated keys ([`Error::InvalidConfig`] — leaves built
    /// from them would misroute) and over-long byte-string keys
    /// ([`Error::KeyTooLarge`]), all before any persistent write.
    pub fn try_bulk_load(
        pool: Arc<PmemPool>,
        cfg: TreeConfig,
        owner_slot: u64,
        entries: &[(K::Owned, u64)],
    ) -> Result<Self, Error> {
        if !entries.windows(2).all(|w| w[0].0 < w[1].0) {
            return Err(Error::InvalidConfig(
                "bulk load requires sorted unique keys".into(),
            ));
        }
        for (key, _) in entries {
            K::check_len(key)?;
        }
        if entries.is_empty() {
            return Self::try_create(pool, cfg, owner_slot);
        }
        check_create::<K>(&cfg, &pool, 1)?;
        let cfg = fill_group_block(cfg, K::SLOT_SIZE);
        let checked = Arc::clone(&pool);
        let _op = checked.begin_checked_op("bulk_load");
        let layout = LeafLayout::new(&cfg, K::SLOT_SIZE);
        let meta = TreeMeta::create(&pool, &cfg, K::SLOT_SIZE, K::IS_VAR, 1, owner_slot);
        let ctx = Ctx::new(pool, cfg, layout, meta);
        let mut groups = GroupMgr::with_sanitize(cfg.leaf_group_size, K::IS_VAR);

        let per_leaf = (layout.m * 7 / 10).max(1);
        let mut index_entries: Vec<(K::Owned, u64)> = Vec::new();
        let mut prev: Option<u64> = None;
        for chunk in entries.chunks(per_leaf) {
            // The owner slot for each leaf is where its pointer will live:
            // the list head for the first, the predecessor's next field for
            // the rest — so the linked list forms as the allocator runs.
            let dest = match prev {
                None => meta.head_slot(),
                Some(p) => p + ctx.layout.off_next as u64,
            };
            ctx.metrics.inc(Counter::LeafAllocs);
            let off = groups.get_leaf(&ctx.pool, &ctx.layout, &meta, dest);
            ctx.zero_leaf(off);
            let leaf = ctx.leaf(off);
            for (slot, (k, v)) in chunk.iter().enumerate() {
                K::write_slot(&ctx.pool, leaf.key_off(slot), k);
                leaf.set_value(slot, *v);
                if layout.fingerprints {
                    leaf.set_fingerprint(slot, K::fingerprint(k));
                }
            }
            let bm = if chunk.len() == 64 {
                u64::MAX
            } else {
                (1u64 << chunk.len()) - 1
            };
            // analyzer:allow(raw-publish) — bulk-load leaves are unreachable
            // until the final set_status(STATUS_READY) publish commits the
            // whole tree; per-leaf bitmaps are plain initialization here.
            ctx.pool.write_word(off + layout.off_bitmap as u64, bm);
            ctx.pool.persist(off, layout.size);
            index_entries.push((chunk.last().expect("chunk nonempty").0.clone(), off));
            prev = Some(off);
        }
        meta.set_status(&ctx.pool, STATUS_READY);
        let root = build_from_leaves::<K>(index_entries, cfg.inner_fanout, 1);
        Ok(SingleTree {
            ctx,
            groups,
            root,
            len: entries.len(),
            recovery: None,
        })
    }

    /// Sorted streaming iterator over all entries (leaf list order).
    pub fn iter(&self) -> TreeIter<'_, K> {
        self.scan(..)
    }

    /// Ordered streaming scan over `range`: seeks the first leaf via the
    /// transient inner nodes, then walks the persistent leaf chain, sorting
    /// one leaf at a time (see [`crate::scan`]).
    pub fn scan<R: std::ops::RangeBounds<K::Owned>>(&self, range: R) -> Scan<'_, K> {
        Scan::new(&self.ctx, &self.root, ScanBounds::new(range))
    }

    /// Smallest key and its value.
    pub fn first_key_value(&self) -> Option<(K::Owned, u64)> {
        self.iter().next()
    }

    /// Largest key and its value.
    pub fn last_key_value(&self) -> Option<(K::Owned, u64)> {
        // The rightmost leaf holds the maximum (empty only if len == 0).
        let off = self.root.rightmost_leaf();
        let leaf = self.ctx.leaf(off);
        let mut entries = leaf.collect_merged::<K>();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        entries.pop()
    }

    /// Opens (recovers) the tree whose metadata is referenced by the owner
    /// pointer at `owner_slot` — Algorithm 9: finish interrupted
    /// initialization, replay micro-logs, audit, rebuild inner nodes.
    ///
    /// Runs the recovery pipeline on
    /// [`crate::config::default_recovery_threads`] workers. Any pointer,
    /// count, or metadata word that fails validation is reported as
    /// [`Error::Corrupt`] — a damaged image never panics.
    pub fn open(pool: Arc<PmemPool>, owner_slot: u64) -> Result<Self, Error> {
        Self::open_with(pool, owner_slot, crate::config::default_recovery_threads())
    }

    /// [`Self::open`] with an explicit recovery worker count (0 means the
    /// default). The result is bit-identical for every `threads` value: the
    /// parallel phases partition work in chain order and stitch the pieces
    /// back together serially.
    pub fn open_with(pool: Arc<PmemPool>, owner_slot: u64, threads: usize) -> Result<Self, Error> {
        let r = recover::<K>(pool, owner_slot, threads)?;
        // Phase 4 — bulk-build the DRAM inner nodes level by level.
        let t = Instant::now();
        let root = if r.entries.is_empty() {
            Node::Leaf(r.ctx.meta.head(&r.ctx.pool).offset)
        } else {
            build_from_leaves::<K>(r.entries, r.ctx.cfg.inner_fanout, r.threads)
        };
        Ok(SingleTree {
            recovery: stamp_build(r.stats, t),
            ctx: r.ctx,
            groups: r.groups,
            root,
            len: r.len,
        })
    }

    /// Publishes a leaf split into the volatile index: `right` becomes the
    /// sibling after the child covering `key` (the split key, which stayed
    /// in the old leaf). Returns the entry to push up when `node` itself
    /// split — or, at a bare leaf, the new sibling for its parent to adopt.
    fn index_insert(
        ctx: &Ctx,
        node: &mut Node<K>,
        key: K::Owned,
        right: Node<K>,
    ) -> Option<(K::Owned, Node<K>)> {
        let Node::Inner(inner) = node else {
            return Some((key, right));
        };
        let idx = inner.child_index(&key);
        let (up, right) = Self::index_insert(ctx, &mut inner.children[idx], key, right)?;
        inner.keys.insert(idx, up);
        inner.children.insert(idx + 1, right);
        if inner.children.len() <= ctx.cfg.inner_fanout {
            return None;
        }
        ctx.metrics.inc(Counter::InnerSplits);
        let (up, new_right) = inner.split();
        Some((up, Node::Inner(new_right)))
    }

    pub(crate) fn publish_split(&mut self, split_key: K::Owned, new_off: u64) {
        let pushed = Self::index_insert(&self.ctx, &mut self.root, split_key, Node::Leaf(new_off));
        if let Some((key, right)) = pushed {
            let old = std::mem::replace(&mut self.root, Node::Leaf(0));
            self.root = Node::Inner(Box::new(InnerNode {
                keys: vec![key],
                children: vec![old, right],
            }));
        }
    }

    /// Insert / update: locate → kernel → publish split → len.
    fn write(&mut self, key: &K::Owned, value: u64, mode: WriteMode) -> bool {
        let metrics = Arc::clone(&self.ctx.metrics);
        let _t = metrics.time_op(mode.op());
        let checked = Arc::clone(&self.ctx.pool);
        let _op = checked.begin_checked_op(mode.label());
        let off = self.root.find_leaf(key);
        let (ctx, groups) = (&self.ctx, &mut self.groups);
        let w = ctx.write_one::<K>(off, key, value, mode, |off| {
            ctx.split_leaf::<K>(groups, off, 0)
        });
        if let Some((split_key, new_off)) = w.split {
            self.publish_split(split_key, new_off);
        }
        if w.applied && matches!(mode, WriteMode::Insert) {
            self.len += 1;
        }
        w.applied
    }

    /// Inserts `key → value`. Returns false (without modifying anything) if
    /// the key already exists.
    pub fn insert(&mut self, key: &K::Owned, value: u64) -> bool {
        self.write(key, value, WriteMode::Insert)
    }

    /// Looks up `key`.
    pub fn get(&self, key: &K::Owned) -> Option<u64> {
        let _t = self.ctx.metrics.time_op(Op::Get);
        let off = self.root.find_leaf(key);
        let leaf = self.ctx.leaf(off);
        let found = leaf.find_merged_value::<K>(key);
        self.ctx.metrics.inc(if found.is_some() {
            Counter::GetHits
        } else {
            Counter::GetMisses
        });
        found
    }

    /// True if `key` is present.
    pub fn contains(&self, key: &K::Owned) -> bool {
        self.get(key).is_some()
    }

    /// Updates the value of an existing key. Returns false if absent.
    pub fn update(&mut self, key: &K::Owned, value: u64) -> bool {
        self.write(key, value, WriteMode::Update { expected: None })
    }

    /// Updates `key` to `value` only if it is currently mapped to `expected`
    /// (one leaf probe; a failed guard writes nothing).
    pub fn update_if(&mut self, key: &K::Owned, expected: u64, value: u64) -> bool {
        let expected = Some(expected);
        self.write(key, value, WriteMode::Update { expected })
    }

    /// Removes `key`. Returns false if absent.
    pub fn remove(&mut self, key: &K::Owned) -> bool {
        self.remove_guarded(key, None)
    }

    /// Removes `key` only if it is currently mapped to `expected` (one leaf
    /// probe; a failed guard writes nothing).
    pub fn remove_if(&mut self, key: &K::Owned, expected: u64) -> bool {
        self.remove_guarded(key, Some(expected))
    }

    fn remove_guarded(&mut self, key: &K::Owned, expected: Option<u64>) -> bool {
        let metrics = Arc::clone(&self.ctx.metrics);
        let _t = metrics.time_op(Op::Remove);
        let checked = Arc::clone(&self.ctx.pool);
        let _op = checked.begin_checked_op("remove");
        let (off, prev) = self.root.find_leaf_and_prev(key);
        let r = self.ctx.remove_one::<K>(off, key, expected);
        if r.removed {
            self.len -= 1;
        }
        if r.emptied {
            self.unlink_leaf(off, prev, key);
        }
        r.removed
    }

    /// Unlinks the emptied leaf `off` (covering `key`) from the persistent
    /// chain and the volatile index — unless it is the tree's only leaf,
    /// which is never deleted.
    pub(crate) fn unlink_leaf(&mut self, off: u64, prev: Option<u64>, key: &K::Owned) {
        if prev.is_none() && self.ctx.leaf(off).next().is_null() {
            return;
        }
        self.ctx.delete_leaf(Some(&mut self.groups), off, prev, 0);
        Self::remove_leaf_from_index(&mut self.root, key);
        // Collapse a single-child root chain.
        while let Node::Inner(inner) = &mut self.root {
            if inner.children.len() != 1 {
                break;
            }
            self.root = inner.children.pop().expect("one child");
        }
    }

    /// Removes the (already unlinked) leaf covering `key` from the volatile
    /// index. Returns true if the subtree became empty (cascades).
    fn remove_leaf_from_index(node: &mut Node<K>, key: &K::Owned) -> bool {
        match node {
            Node::Leaf(_) => true,
            Node::Inner(inner) => {
                let idx = inner.child_index(key);
                if Self::remove_leaf_from_index(&mut inner.children[idx], key) {
                    inner.children.remove(idx);
                    if inner.children.is_empty() {
                        return true;
                    }
                    if !inner.keys.is_empty() {
                        inner.keys.remove(idx.min(inner.keys.len() - 1));
                    }
                }
                false
            }
        }
    }

    /// Range scan over `[lo, hi]` via the leaf linked list; results sorted.
    /// A convenience collect over [`SingleTree::scan`].
    pub fn range(&self, lo: &K::Owned, hi: &K::Owned) -> Vec<(K::Owned, u64)> {
        self.scan(lo.clone()..=hi.clone()).collect()
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no keys are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Height of the volatile index (0 = a single leaf).
    pub fn height(&self) -> usize {
        self.root.height()
    }

    /// The pool this tree lives in.
    pub fn pool(&self) -> &Arc<PmemPool> {
        &self.ctx.pool
    }

    /// The effective configuration.
    pub fn config(&self) -> &TreeConfig {
        &self.ctx.cfg
    }

    /// This tree's observability registry (counters, latency histograms).
    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.ctx.metrics
    }

    /// Point-in-time snapshot of the tree's metrics, with the pool's
    /// persistence counters absorbed as `pmem_*` fields.
    pub fn metrics_snapshot(&self) -> Snapshot {
        self.ctx.metrics.snapshot().with_pool(&self.ctx.pool)
    }

    /// Per-phase timings of the recovery pipeline that produced this handle;
    /// `None` for a freshly created (or bulk-loaded) tree and for the
    /// re-initialization path of an interrupted `create`/`bulk_load`.
    pub fn recovery_stats(&self) -> Option<RecoveryStats> {
        self.recovery
    }

    /// The group free-list in pop order plus the group count — recovery
    /// must reconstruct these identically regardless of worker count (the
    /// differential fuzz harness compares them across thread counts).
    pub fn group_state(&self) -> (Vec<u64>, usize) {
        (self.groups.free_snapshot(), self.groups.group_count())
    }

    /// Leaf offsets in list order (tests, audits, stats).
    pub fn leaf_offsets(&self) -> Vec<u64> {
        self.ctx.leaf_offsets()
    }

    /// SCM/DRAM footprint (Figure 8).
    pub fn memory_usage(&self) -> MemoryUsage {
        let leaves = self.leaf_offsets();
        let mut scm = TreeMeta::byte_size(self.ctx.meta.n_logs) as u64;
        if self.groups.enabled() {
            // Whole groups are SCM footprint, free leaves included.
            scm += self.groups.group_count() as u64
                * (64 + self.ctx.cfg.leaf_group_size * self.ctx.layout.size) as u64;
        } else {
            scm += leaves.len() as u64 * self.ctx.layout.size as u64;
        }
        if K::IS_VAR {
            for &off in &leaves {
                for r in self.ctx.owned_key_refs::<K>(off) {
                    if !r.is_null() {
                        scm += 8 + self.ctx.pool.read_word(r.offset);
                    }
                }
            }
        }
        let key_bytes = |k: &K::Owned| std::mem::size_of_val(k);
        let (inner_count, dram) = self.root.dram_usage(key_bytes);
        MemoryUsage {
            scm_bytes: scm,
            dram_bytes: dram as u64,
            leaf_count: leaves.len(),
            inner_count,
        }
    }

    /// Allocator-vs-tree agreement (see `leafops::Ctx::leak_audit`); with
    /// leaf groups the allocations are the groups, free leaves included.
    pub fn leak_audit(&self) -> Result<(), String> {
        if self.groups.enabled() {
            self.ctx
                .leak_audit::<K>(self.groups.blocks().iter().copied())
        } else {
            self.ctx.leak_audit::<K>(self.leaf_offsets())
        }
    }

    /// Structural consistency check (tests): leaf list sorted and connected,
    /// fingerprints agree with keys, index routes every key to its leaf,
    /// length matches (see `leafops::Ctx::check_leaf_chain` for the list).
    pub fn check_consistency(&self) -> Result<(), String> {
        self.ctx
            .check_leaf_chain::<K>(self.len, |k, off| self.root.find_leaf(k) == off)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::FixedKey;
    use fptree_pmem::{PoolOptions, ROOT_SLOT};

    /// User sizes of the tree's group blocks, as the allocator recorded them.
    fn group_block_sizes(t: &FPTree) -> Vec<u64> {
        let live: std::collections::HashMap<u64, u64> =
            t.pool().live_blocks().unwrap().into_iter().collect();
        t.groups.blocks().iter().map(|g| live[g]).collect()
    }

    #[test]
    fn image_with_an_unresolved_group_size_opens_unchanged() {
        // An image written before group sizes were resolved at create stores
        // the requested 16, which does not fill its block.
        let cfg = TreeConfig::fptree().with_leaf_capacity(8);
        assert_ne!(fill_group_block(cfg, FixedKey::SLOT_SIZE), cfg);
        let pool = Arc::new(PmemPool::create(PoolOptions::direct(16 << 20)).unwrap());
        let mut t = FPTree::create_resolved(pool, cfg, ROOT_SLOT).unwrap();
        let group = 64 + 16 * t.ctx.layout.size as u64;
        for k in 0..4000u64 {
            assert!(t.insert(&k, k));
        }
        let full = t.groups.group_count();
        // Sequential inserts fill leaves, and so groups, in key order: a
        // removed key range frees whole groups.
        for k in 1000..2500u64 {
            assert!(t.remove(&k));
        }
        assert!(t.groups.group_count() < full, "no group was freed");
        for k in (0..999u64).step_by(3) {
            assert!(t.update(&k, k + 1));
            assert!(t.remove(&(k + 1)));
        }
        let content: Vec<(u64, u64)> = t.iter().collect();
        let groups = t.groups.group_count();
        assert!(groups > 1);
        let image = t.pool().clean_image();
        drop(t);

        let pool = Arc::new(PmemPool::reopen(image, PoolOptions::direct(0)).unwrap());
        let mut t = FPTree::open(pool, ROOT_SLOT).unwrap();
        assert_eq!(*t.config(), cfg);
        assert_eq!(t.iter().collect::<Vec<_>>(), content);
        assert_eq!(t.len(), content.len());
        t.check_consistency().unwrap();
        t.leak_audit().unwrap();

        for k in 4000..8000u64 {
            assert!(t.insert(&k, k));
        }
        assert!(
            t.groups.group_count() > groups,
            "no group allocated after open"
        );
        assert!(group_block_sizes(&t).iter().all(|&b| b == group));
        t.check_consistency().unwrap();
        t.leak_audit().unwrap();
    }
}
