//! The FPTree: one tree for one thread or many, Selective Concurrency
//! (§4.4, Algorithms 1–8) around the leaf-mutation kernel.
//!
//! The paper presents the concurrent FPTree as the single-threaded
//! algorithms inside a speculative section plus leaf locks, and so this is
//! the only tree: a single-threaded caller pays a speculative section that
//! never aborts and an uncontended leaf lock. Work that touches only the
//! transient part (traversal, inner-node updates) runs inside an emulated
//! hardware transaction — an optimistic section of the global [`SpecLock`]
//! — while work that needs persistence primitives (leaf writes, splits,
//! unlinks) runs *outside* it under fine-grained per-leaf locks. The flow
//! of every write operation is the paper's:
//!
//! 1. inside the speculative section: traverse, lock the target leaf (and
//!    for deletes of a dying leaf, its predecessor), validate, commit;
//! 2. outside: split (micro-logged) and/or modify the leaf, persist, commit
//!    with one p-atomic bitmap write — the leaf-mutation kernel
//!    ([`crate::leafops`], DESIGN.md §5.14);
//! 3. if the structure changed: a short exclusive section updates the
//!    parents; finally the leaf locks are released.
//!
//! Leaf groups (§4.3) stay with the trees that ask for them
//! (`leaf_group_size > 1`): the group manager sits behind a mutex held
//! across `GetLeaf` / `FreeLeaf`, which share one micro-log pair.
//!
//! ## Emulation-specific mechanics (see DESIGN.md §2)
//!
//! Real HTM buffers speculative writes and aborts readers whose read set is
//! touched. Our seqlock emulation cannot buffer, so:
//!
//! * leaf locks are **per-leaf sequence locks** (even/odd u64): readers
//!   snapshot a version and re-validate after reading the leaf, which is
//!   exactly the conflict TSX would detect on the leaf-lock cache line;
//! * inner nodes ([`crate::node`]) store keys and children in **atomic
//!   words**; readers may observe torn logical states (mid-shift arrays)
//!   but every individual word is a valid encoding, and the global
//!   validation rejects the traversal whenever a structural writer
//!   overlapped it;
//! * inner-node memory and interned variable keys are freed only when the
//!   tree drops, so optimistic readers can always dereference what they
//!   loaded.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use fptree_htm::{Abort, SpecLock};
use fptree_pmem::PmemPool;
use parking_lot::Mutex;

use crate::api::{check_create, Error};
use crate::config::TreeConfig;
use crate::groups::{fill_group_block, GroupMgr};
use crate::keys::{FixedKey, Interner, KeyKind, VarKey};
use crate::layout::LeafLayout;
use crate::leafops::{Ctx, WriteMode};
use crate::meta::{TreeMeta, STATUS_READY};
use crate::metrics::{Counter, Metrics, Op, RecoveryStats, Snapshot};
use crate::node::{Node, Nodes};
use crate::recovery::{recover, stamp_build};
use crate::scan::{Scan, ScanBounds};

/// Traversal depth bound: a torn optimistic read can cycle; anything deeper
/// than this is declared a conflict.
const MAX_DEPTH: usize = 64;

/// Number of split/delete micro-logs of a tree without leaf groups (upper
/// bound on concurrent structural operations; the paper indexes its
/// micro-log arrays with lock-free queues, here one word: bit `i` of the
/// free mask is log `i`).
const N_LOGS: usize = 64;

/// Split/delete micro-logs a new tree gets. A grouped tree keeps the one
/// pair that images written by the single-threaded FPTree carry: the
/// metadata block is part of its SCM footprint.
fn n_logs(cfg: &TreeConfig) -> usize {
    if cfg.leaf_group_size > 1 {
        1
    } else {
        N_LOGS
    }
}

#[inline]
fn leaf_enc(off: u64) -> u64 {
    (off << 1) | 1
}

#[inline]
fn enc_is_leaf(enc: u64) -> bool {
    enc & 1 == 1
}

#[inline]
fn enc_leaf_off(enc: u64) -> u64 {
    enc >> 1
}

/// Memory footprint report (Figure 8).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryUsage {
    /// Bytes in SCM: leaves (or their groups), key blobs, metadata block.
    pub scm_bytes: u64,
    /// Bytes in DRAM: inner nodes, free ones included, and interned
    /// variable-size discriminators.
    pub dram_bytes: u64,
    /// Number of leaves linked in the tree.
    pub leaf_count: usize,
    /// Number of inner nodes in use.
    pub inner_count: usize,
}

/// A persistent, hybrid SCM-DRAM B+-Tree, safe to share between threads.
///
/// All operations take `&self`. With [`TreeConfig::fptree`] it is the
/// paper's FPTree, with [`TreeConfig::fptree_concurrent`] its FPTreeC, with
/// [`TreeConfig::ptree`] the PTree; `ConcurrentTree<VarKey>` are the
/// variable-size-key variants.
///
/// ```
/// use std::sync::Arc;
/// use fptree_core::{ConcurrentFPTree, TreeConfig};
/// use fptree_pmem::{PmemPool, PoolOptions, ROOT_SLOT};
///
/// let pool = Arc::new(PmemPool::create(PoolOptions::direct(32 << 20)).unwrap());
/// let tree = Arc::new(ConcurrentFPTree::create(
///     pool, TreeConfig::fptree_concurrent(), ROOT_SLOT,
/// ));
/// std::thread::scope(|s| {
///     for t in 0..4u64 {
///         let tree = Arc::clone(&tree);
///         s.spawn(move || {
///             for i in 0..100 {
///                 tree.insert(&(t * 1000 + i), i);
///             }
///         });
///     }
/// });
/// assert_eq!(tree.len(), 400);
/// assert_eq!(tree.get(&1001), Some(1));
/// ```
pub struct ConcurrentTree<K: KeyKind> {
    pub(crate) ctx: Ctx,
    pub(crate) lock: SpecLock,
    root: AtomicU64,
    nodes: Nodes,
    intern: Interner,
    /// Leaf groups (inert when the tree has none).
    groups: Mutex<GroupMgr>,
    /// Free micro-log indices: bit `i` set means log `i` is free.
    free_logs: AtomicU64,
    pub(crate) len: AtomicUsize,
    recovery: Option<RecoveryStats>,
    _marker: std::marker::PhantomData<fn() -> K>,
}

/// The tree with fixed-size (u64) keys.
pub type ConcurrentFPTree = ConcurrentTree<FixedKey>;
/// The tree with variable-size (byte-string) keys.
pub type ConcurrentFPTreeVar = ConcurrentTree<VarKey>;
/// The tree held by one owner (see [`Exclusive`]).
pub type SingleTree<K> = Exclusive<K>;
/// The paper's FPTree / PTree with fixed-size (u64) keys, held by one owner.
pub type FPTree = Exclusive<FixedKey>;
/// The paper's FPTree / PTree with variable-size (byte-string) keys, held
/// by one owner.
pub type FPTreeVar = Exclusive<VarKey>;

/// A [`ConcurrentTree`] held by one owner: the same tree, whose writes take
/// `&mut self`. Everything else is the tree's, through `Deref`.
///
/// It is a handle, not a second implementation. A single-threaded caller
/// could write through `&ConcurrentTree`; the `&mut` receivers keep the
/// single-threaded API its callers compile against. A caller that holds
/// `&mut FPTree` next to a trait with its own `insert` (a key-value trait
/// implemented for `&mut FPTree`, say) resolves `tree.insert(..)` to the
/// tree only if the tree's method takes `&mut self` — a `&self` method is
/// found one auto-deref later, after the trait's.
pub struct Exclusive<K: KeyKind>(ConcurrentTree<K>);

impl<K: KeyKind> std::ops::Deref for Exclusive<K> {
    type Target = ConcurrentTree<K>;

    fn deref(&self) -> &ConcurrentTree<K> {
        &self.0
    }
}

impl<K: KeyKind> Exclusive<K> {
    /// [`ConcurrentTree::create`].
    pub fn create(pool: Arc<PmemPool>, cfg: TreeConfig, owner_slot: u64) -> Self {
        Exclusive(ConcurrentTree::create(pool, cfg, owner_slot))
    }

    /// [`ConcurrentTree::try_create`].
    pub fn try_create(
        pool: Arc<PmemPool>,
        cfg: TreeConfig,
        owner_slot: u64,
    ) -> Result<Self, Error> {
        ConcurrentTree::try_create(pool, cfg, owner_slot).map(Exclusive)
    }

    /// [`ConcurrentTree::bulk_load`].
    pub fn bulk_load(
        pool: Arc<PmemPool>,
        cfg: TreeConfig,
        owner_slot: u64,
        entries: &[(K::Owned, u64)],
    ) -> Self {
        Exclusive(ConcurrentTree::bulk_load(pool, cfg, owner_slot, entries))
    }

    /// [`ConcurrentTree::try_bulk_load`].
    pub fn try_bulk_load(
        pool: Arc<PmemPool>,
        cfg: TreeConfig,
        owner_slot: u64,
        entries: &[(K::Owned, u64)],
    ) -> Result<Self, Error> {
        ConcurrentTree::try_bulk_load(pool, cfg, owner_slot, entries).map(Exclusive)
    }

    /// [`ConcurrentTree::open`].
    pub fn open(pool: Arc<PmemPool>, owner_slot: u64) -> Result<Self, Error> {
        ConcurrentTree::open(pool, owner_slot).map(Exclusive)
    }

    /// [`ConcurrentTree::open_with`].
    pub fn open_with(pool: Arc<PmemPool>, owner_slot: u64, threads: usize) -> Result<Self, Error> {
        ConcurrentTree::open_with(pool, owner_slot, threads).map(Exclusive)
    }

    /// [`ConcurrentTree::get`] (also reachable through `Deref`; this one
    /// answers to the path `FPTree::get`).
    pub fn get(&self, key: &K::Owned) -> Option<u64> {
        self.0.get(key)
    }

    /// [`ConcurrentTree::insert`].
    pub fn insert(&mut self, key: &K::Owned, value: u64) -> bool {
        self.0.insert(key, value)
    }

    /// [`ConcurrentTree::update`].
    pub fn update(&mut self, key: &K::Owned, value: u64) -> bool {
        self.0.update(key, value)
    }

    /// [`ConcurrentTree::update_if`].
    pub fn update_if(&mut self, key: &K::Owned, expected: u64, value: u64) -> bool {
        self.0.update_if(key, expected, value)
    }

    /// [`ConcurrentTree::remove`].
    pub fn remove(&mut self, key: &K::Owned) -> bool {
        self.0.remove(key)
    }

    /// [`ConcurrentTree::remove_if`].
    pub fn remove_if(&mut self, key: &K::Owned, expected: u64) -> bool {
        self.0.remove_if(key, expected)
    }

    /// [`ConcurrentTree::insert_batch`].
    pub fn insert_batch(&mut self, entries: &[(K::Owned, u64)]) -> usize {
        self.0.insert_batch(entries)
    }

    /// [`ConcurrentTree::remove_batch`].
    pub fn remove_batch(&mut self, keys: &[K::Owned]) -> usize {
        self.0.remove_batch(keys)
    }
}

impl<K: KeyKind> ConcurrentTree<K> {
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
        check_create::<K>(&cfg, &pool, n_logs(&cfg))?;
        Self::create_with(
            pool,
            fill_group_block(cfg, K::SLOT_SIZE),
            owner_slot,
            n_logs(&cfg),
        )
    }

    /// [`Self::try_create`] after its checks, with `cfg` taken as it is
    /// (group size already resolved) and `logs` split/delete micro-logs.
    pub(crate) fn create_with(
        pool: Arc<PmemPool>,
        cfg: TreeConfig,
        owner_slot: u64,
        logs: usize,
    ) -> Result<Self, Error> {
        let checked = Arc::clone(&pool);
        let _op = checked.begin_checked_op("tree_create");
        let layout = LeafLayout::new(&cfg, K::SLOT_SIZE);
        let meta = TreeMeta::create(&pool, &cfg, K::SLOT_SIZE, K::IS_VAR, logs, owner_slot);
        let ctx = Ctx::new(pool, cfg, layout, meta);
        let mut groups = GroupMgr::with_sanitize(cfg.leaf_group_size, K::IS_VAR);
        ctx.metrics.inc(Counter::LeafAllocs);
        let head = groups.get_leaf(&ctx.pool, &ctx.layout, &meta, meta.head_slot());
        ctx.zero_leaf(head);
        meta.set_status(&ctx.pool, STATUS_READY);
        let t = Self::empty(ctx, groups);
        t.root.store(leaf_enc(head), Ordering::Release);
        Ok(t)
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
        let logs = n_logs(&cfg);
        check_create::<K>(&cfg, &pool, logs)?;
        let cfg = fill_group_block(cfg, K::SLOT_SIZE);
        let checked = Arc::clone(&pool);
        let _op = checked.begin_checked_op("bulk_load");
        let layout = LeafLayout::new(&cfg, K::SLOT_SIZE);
        let meta = TreeMeta::create(&pool, &cfg, K::SLOT_SIZE, K::IS_VAR, logs, owner_slot);
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
        let t = Self::empty(ctx, groups);
        t.len.store(entries.len(), Ordering::Relaxed);
        t.build_index(index_entries, 1);
        Ok(t)
    }

    /// Opens (recovers) the tree whose metadata is referenced by the owner
    /// pointer at `owner_slot` — Algorithm 9: finish interrupted
    /// initialization, replay micro-logs, audit, rebuild inner nodes, reset
    /// leaf locks.
    ///
    /// Runs the recovery pipeline on
    /// [`crate::config::default_recovery_threads`] workers. Any pointer,
    /// count, or metadata word that fails validation is reported as
    /// [`Error::Corrupt`] — a damaged image never panics.
    pub fn open(pool: Arc<PmemPool>, owner_slot: u64) -> Result<Self, Error> {
        Self::open_with(pool, owner_slot, crate::config::default_recovery_threads())
    }

    /// [`Self::open`] with an explicit recovery worker count (0 means the
    /// default). The result is identical for every `threads` value: the
    /// parallel phases partition work in chain order and stitch the pieces
    /// back together serially.
    pub fn open_with(pool: Arc<PmemPool>, owner_slot: u64, threads: usize) -> Result<Self, Error> {
        let r = recover::<K>(pool, owner_slot, threads)?;
        let mut t = Self::empty(r.ctx, r.groups);
        t.len.store(r.len, Ordering::Relaxed);
        // Phase 4 — build the inner nodes bottom-up, level by level.
        let start = Instant::now();
        t.build_index(r.entries, r.threads);
        t.recovery = stamp_build(r.stats, start);
        Ok(t)
    }

    fn empty(ctx: Ctx, groups: GroupMgr) -> Self {
        // `TreeMeta::open` bounds `n_logs` to at least 1; logs past the
        // mask's 64 stay unused.
        let free_logs = u64::MAX >> (N_LOGS - ctx.meta.n_logs.min(N_LOGS));
        ConcurrentTree {
            nodes: Nodes::new(ctx.cfg.inner_fanout),
            ctx,
            lock: SpecLock::new(),
            root: AtomicU64::new(0),
            intern: Interner::default(),
            groups: Mutex::new(groups),
            free_logs: AtomicU64::new(free_logs),
            len: AtomicUsize::new(0),
            recovery: None,
            _marker: std::marker::PhantomData,
        }
    }

    /// Builds the index over `entries = [(max_key, leaf)]` (chain order)
    /// and publishes its root; no entries means the head leaf alone.
    fn build_index(&self, entries: Vec<(K::Owned, u64)>, threads: usize) {
        let root = if entries.is_empty() {
            leaf_enc(self.ctx.meta.head(&self.ctx.pool).offset)
        } else {
            let mut level: Vec<(K::Owned, u64)> = entries
                .into_iter()
                .map(|(k, off)| (k, leaf_enc(off)))
                .collect();
            while level.len() > 1 {
                level = self.build_level(&level, threads);
            }
            level[0].1
        };
        self.root.store(root, Ordering::Release);
    }

    /// Packs one level's `(max_key, child_enc)` pairs into parent nodes
    /// across the worker pool. Segments split only at `fanout` boundaries,
    /// so the logical structure matches the serial chunking exactly.
    fn build_level(&self, level: &[(K::Owned, u64)], threads: usize) -> Vec<(K::Owned, u64)> {
        let fanout = self.ctx.cfg.inner_fanout;
        let n_chunks = level.len().div_ceil(fanout);
        let workers = threads.min(n_chunks).max(1);
        if workers <= 1 {
            return self.pack_chunks(level);
        }
        let per = n_chunks.div_ceil(workers) * fanout;
        std::thread::scope(|s| {
            let handles: Vec<_> = level
                .chunks(per)
                .map(|seg| s.spawn(move || self.pack_chunks(seg)))
                .collect();
            handles
                .into_iter()
                .flat_map(|h| match h.join() {
                    Ok(v) => v,
                    Err(p) => std::panic::resume_unwind(p),
                })
                .collect()
        })
    }

    /// Serial kernel of [`Self::build_level`]: one parent node per `fanout`
    /// children of `seg`.
    fn pack_chunks(&self, seg: &[(K::Owned, u64)]) -> Vec<(K::Owned, u64)> {
        seg.chunks(self.ctx.cfg.inner_fanout)
            .map(|chunk| {
                let enc = self.nodes.alloc(chunk.len(), |i| {
                    let (k, child) = &chunk[i];
                    let key = if i + 1 < chunk.len() {
                        K::encode(k, &self.intern)
                    } else {
                        0
                    };
                    (key, *child)
                });
                (chunk.last().expect("chunk nonempty").0.clone(), enc)
            })
            .collect()
    }

    // --------------------------------------------------------- traversal

    /// Optimistic descent to the leaf covering `key`. Every load is a valid
    /// word even mid-update; logical inconsistencies surface as a wrong
    /// leaf, caught by the caller's validation.
    pub(crate) fn traverse(&self, key: &K::Owned) -> Result<u64, Abort> {
        let mut enc = self.root.load(Ordering::Acquire);
        for _ in 0..MAX_DEPTH {
            if enc == 0 {
                return Err(Abort);
            }
            if enc_is_leaf(enc) {
                return Ok(enc_leaf_off(enc));
            }
            // SAFETY: non-zero and even, loaded from the root or a child
            // word, which hold only leaf encodings (odd), 0, and node
            // encodings of `self.nodes`.
            enc = unsafe { self.nodes.get(enc) }.route::<K>(key);
        }
        Err(Abort)
    }

    /// Optimistic descent also returning the predecessor leaf (Algorithm 5's
    /// `FindLeafAndPrevLeaf`): the rightmost leaf of the nearest left
    /// sibling subtree on the descent path.
    fn traverse_with_prev(&self, key: &K::Owned) -> Result<(u64, Option<u64>), Abort> {
        let mut enc = self.root.load(Ordering::Acquire);
        let mut left: Option<u64> = None;
        for _ in 0..MAX_DEPTH {
            if enc == 0 {
                return Err(Abort);
            }
            if enc_is_leaf(enc) {
                let prev = match left {
                    None => None,
                    Some(l) => Some(self.rightmost_leaf(l)?),
                };
                return Ok((enc_leaf_off(enc), prev));
            }
            // SAFETY: non-zero and even, loaded from the root or a child
            // word, which hold only leaf encodings (odd), 0, and node
            // encodings of `self.nodes`.
            let node = unsafe { self.nodes.get(enc) };
            let idx = node.child_index::<K>(key);
            if idx > 0 {
                left = Some(node.child(idx - 1));
            }
            enc = node.child(idx);
        }
        Err(Abort)
    }

    fn rightmost_leaf(&self, mut enc: u64) -> Result<u64, Abort> {
        for _ in 0..MAX_DEPTH {
            if enc == 0 {
                return Err(Abort);
            }
            if enc_is_leaf(enc) {
                return Ok(enc_leaf_off(enc));
            }
            // SAFETY: non-zero and even, loaded from the root or a child
            // word, which hold only leaf encodings (odd), 0, and node
            // encodings of `self.nodes`.
            enc = unsafe { self.nodes.get(enc) }.last_child();
        }
        Err(Abort)
    }

    // ------------------------------------------------------------- reads

    /// Find (Algorithm 1): fully speculative, retries on any conflicting
    /// leaf writer.
    pub fn get(&self, key: &K::Owned) -> Option<u64> {
        let _t = self.ctx.metrics.time_op(Op::Get);
        let found = self.lock.execute(|tx| {
            let off = self.traverse(key)?;
            let leaf = self.ctx.leaf(off);
            let Some(v) = leaf.version() else {
                self.ctx.metrics.inc(Counter::SeqlockConflicts);
                return Err(Abort); // leaf locked by a writer
            };
            // Merged probe (§5.12): append-buffer entries newest-first,
            // then the slot array. A torn buffer read (racing an append or
            // fold) is discarded by the version validation below, exactly
            // like a torn slot read.
            let result = leaf.find_merged_value::<K>(key);
            if !tx.validate() || leaf.version_changed(v) {
                self.ctx.metrics.inc(Counter::SeqlockConflicts);
                return Err(Abort);
            }
            Ok(result)
        });
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

    /// Ordered streaming scan over `range`: seqlock-validated leaf-chain
    /// iteration, one sorted leaf at a time (see [`crate::scan`]).
    ///
    /// Non-blocking for writers. Keys come out in strictly increasing
    /// order; every emitted entry existed in the tree at some point during
    /// the scan, and any key untouched by concurrent writers for the whole
    /// scan appears exactly once.
    pub fn scan<R: std::ops::RangeBounds<K::Owned>>(&self, range: R) -> Scan<'_, K> {
        Scan::new(self, ScanBounds::new(range))
    }

    /// Sorted streaming iterator over all entries.
    pub fn iter(&self) -> Scan<'_, K> {
        self.scan(..)
    }

    /// Range scan over `[lo, hi]`; results sorted. A convenience collect
    /// over [`ConcurrentTree::scan`].
    pub fn range(&self, lo: &K::Owned, hi: &K::Owned) -> Vec<(K::Owned, u64)> {
        self.scan(lo.clone()..=hi.clone()).collect()
    }

    /// Smallest key and its value.
    pub fn first_key_value(&self) -> Option<(K::Owned, u64)> {
        self.iter().next()
    }

    /// Largest key and its value: the maximum of the rightmost leaf, which
    /// is empty only if the tree is.
    pub fn last_key_value(&self) -> Option<(K::Owned, u64)> {
        self.lock.execute(|tx| {
            let off = self.rightmost_leaf(self.root.load(Ordering::Acquire))?;
            let leaf = self.ctx.leaf(off);
            let v = leaf.version().ok_or(Abort)?;
            let last = leaf
                .collect_merged::<K>()
                .into_iter()
                .max_by(|a, b| a.0.cmp(&b.0));
            if !tx.validate() || leaf.version_changed(v) {
                return Err(Abort);
            }
            Ok(last)
        })
    }

    // ------------------------------------------------------------ writes

    /// Speculative phase of a leaf write (Algorithm 2 step 1): traverse,
    /// lock the leaf, validate.
    pub(crate) fn lock_leaf_for_write(&self, key: &K::Owned) -> u64 {
        self.lock.execute(|tx| {
            let off = self.traverse(key)?;
            let leaf = self.ctx.leaf(off);
            let Some(v) = leaf.version() else {
                self.ctx.metrics.inc(Counter::LeafLockSpins);
                return Err(Abort);
            };
            if !leaf.try_lock_version(v) {
                self.ctx.metrics.inc(Counter::LeafLockSpins);
                return Err(Abort);
            }
            if !tx.validate() {
                leaf.unlock_version();
                self.ctx.metrics.inc(Counter::SeqlockConflicts);
                return Err(Abort);
            }
            Ok(off)
        })
    }

    /// Insert / update: locate and lock → kernel → publish split →
    /// unlock → len.
    fn write(&self, key: &K::Owned, value: u64, mode: WriteMode) -> bool {
        let _t = self.ctx.metrics.time_op(mode.op());
        let _op = self.ctx.pool.begin_checked_op(mode.label());
        let off = self.lock_leaf_for_write(key);
        let w = self
            .ctx
            .write_one::<K>(off, key, value, mode, |off| self.split_locked_leaf(off));
        if let Some((split_key, new_off)) = &w.split {
            // The right leaf is unreachable until here, so the kernel
            // placed the key before any reader can see either half.
            self.publish_split(split_key, off, *new_off);
        }
        self.ctx.leaf(off).unlock_version();
        if w.applied && matches!(mode, WriteMode::Insert) {
            self.len.fetch_add(1, Ordering::Relaxed);
        }
        w.applied
    }

    /// Insert (Algorithm 2). Returns false (without modifying anything) if
    /// the key exists.
    pub fn insert(&self, key: &K::Owned, value: u64) -> bool {
        self.write(key, value, WriteMode::Insert)
    }

    /// Update (Algorithm 8). Returns false if the key is absent.
    pub fn update(&self, key: &K::Owned, value: u64) -> bool {
        let mode = WriteMode::Update { expected: None };
        self.write(key, value, mode)
    }

    /// Updates `key` to `value` only if its current value equals `expected`
    /// — the compare-and-update a caching layer needs to replace a mapping
    /// it read without clobbering (and leaking) a concurrent writer's fresh
    /// value. Returns false if the key is absent or its value changed.
    pub fn update_if(&self, key: &K::Owned, expected: u64, value: u64) -> bool {
        let mode = WriteMode::Update {
            expected: Some(expected),
        };
        self.write(key, value, mode)
    }

    /// Delete (Algorithm 5). Returns false if the key is absent.
    pub fn remove(&self, key: &K::Owned) -> bool {
        self.remove_guarded(key, None)
    }

    /// Removes `key` only if its current value equals `expected` — the
    /// compare-and-remove an evictor needs: between deciding to evict and
    /// removing, a concurrent `set` may have published a fresh value under
    /// the same key, and unconditionally removing would drop that fresh
    /// mapping. Returns false if the key is absent or its value changed.
    pub fn remove_if(&self, key: &K::Owned, expected: u64) -> bool {
        self.remove_guarded(key, Some(expected))
    }

    /// True when a remove from leaf `off` (predecessor `prev`) may empty
    /// it and has to unlink it. A leaf dies when it holds one distinct live
    /// key. Slot keys are distinct and live, so a leaf with two slots
    /// survives; one with at most one may die — counting its buffered keys
    /// exactly would charge a probe per entry, so it is treated as dying
    /// (locking a predecessor that is not needed costs nothing persistent).
    /// The tree's only leaf never dies.
    fn may_die(&self, off: u64, prev: Option<u64>) -> bool {
        let leaf = self.ctx.leaf(off);
        leaf.count() <= 1 && !(prev.is_none() && leaf.next().is_null())
    }

    /// Remove: locate (and lock the leaf, and the predecessor of a dying
    /// leaf) → kernel → unlink → unlock → len.
    fn remove_guarded(&self, key: &K::Owned, expected: Option<u64>) -> bool {
        let _t = self.ctx.metrics.time_op(Op::Remove);
        let _op = self.ctx.pool.begin_checked_op("remove");
        // `unlink` is `Some(prev)` when the leaf may be dying and its
        // predecessor (if any) is locked too: its next pointer may change.
        let (off, unlink) = self.lock.execute(|tx| {
            let (off, prev) = self.traverse_with_prev(key)?;
            let leaf = self.ctx.leaf(off);
            let Some(v) = leaf.version() else {
                self.ctx.metrics.inc(Counter::LeafLockSpins);
                return Err(Abort);
            };
            // All reads here precede `try_lock_version(v)`, which fails
            // if any writer intervened since `v` was read.
            let dying = self.may_die(off, prev);
            let prev_leaf = prev.filter(|_| dying).map(|p| self.ctx.leaf(p));
            if let Some(pl) = &prev_leaf {
                if !pl.version().is_some_and(|pv| pl.try_lock_version(pv)) {
                    self.ctx.metrics.inc(Counter::LeafLockSpins);
                    return Err(Abort);
                }
            }
            if !leaf.try_lock_version(v) {
                self.ctx.metrics.inc(Counter::LeafLockSpins);
            } else if tx.validate() {
                return Ok((off, dying.then_some(prev)));
            } else {
                leaf.unlock_version();
                self.ctx.metrics.inc(Counter::SeqlockConflicts);
            }
            if let Some(pl) = &prev_leaf {
                pl.unlock_version();
            }
            Err(Abort)
        });

        let r = self.ctx.remove_one::<K>(off, key, expected);
        match unlink {
            Some(prev) if r.emptied => {
                // Inner nodes change inside an exclusive section (the paper
                // does this inside the TSX transaction), making the leaf
                // unreachable for new traversals.
                {
                    let _g = self.lock.write_lock();
                    self.remove_from_parents(key, leaf_enc(off));
                }
                // Persistent unlink + deallocation outside (Algorithm 6).
                // The deleted leaf's lock dies with it (unreachable).
                let li = self.take_log();
                self.ctx.delete_leaf(Some(&self.groups), off, prev, li);
                self.put_log(li);
            }
            _ => self.ctx.leaf(off).unlock_version(),
        }
        if let Some(Some(p)) = unlink {
            self.ctx.leaf(p).unlock_version();
        }
        if r.removed {
            self.len.fetch_sub(1, Ordering::Relaxed);
        }
        r.removed
    }

    /// Claims a free micro-log index (the lowest), yielding while all are
    /// held; every such wait counts as a `log_queue_waits`. The claim's
    /// Acquire pairs with the Release in [`Self::put_log`], so the previous
    /// holder's writes to the log happen before the new holder's.
    pub(crate) fn take_log(&self) -> usize {
        let mut free = self.free_logs.load(Ordering::Acquire);
        loop {
            if free == 0 {
                self.ctx.metrics.inc(Counter::LogQueueWaits);
                std::thread::yield_now();
                free = self.free_logs.load(Ordering::Acquire);
                continue;
            }
            let i = free.trailing_zeros();
            let taken = free & !(1u64 << i);
            match self.free_logs.compare_exchange_weak(
                free,
                taken,
                Ordering::Acquire,
                Ordering::Acquire,
            ) {
                Ok(_) => return i as usize,
                Err(now) => free = now,
            }
        }
    }

    /// Returns micro-log `i`, claimed by [`Self::take_log`].
    pub(crate) fn put_log(&self, i: usize) {
        let before = self.free_logs.fetch_or(1u64 << i, Ordering::Release);
        debug_assert_eq!(before & (1u64 << i), 0, "micro-log {i} returned twice");
    }

    /// Persistent leaf split (Algorithm 3) under the already-held leaf lock.
    pub(crate) fn split_locked_leaf(&self, off: u64) -> (K::Owned, u64) {
        let li = self.take_log();
        let split = self.ctx.split_leaf::<K>(&self.groups, off, li);
        self.put_log(li);
        split
    }

    /// Exclusive inner-node update after a split (Algorithm 2 step 3): the
    /// new leaf `new_off` goes right after `old_off`, which now ends at
    /// `split_key`.
    pub(crate) fn publish_split(&self, split_key: &K::Owned, old_off: u64, new_off: u64) {
        let _g = self.lock.write_lock();
        let key_enc = K::encode(split_key, &self.intern);
        let (old_enc, new_enc) = (leaf_enc(old_off), leaf_enc(new_off));
        let root = self.root.load(Ordering::Relaxed);
        let pushed = if root == old_enc {
            Some((key_enc, new_enc))
        } else {
            // SAFETY: the root is not a leaf here, and we hold the
            // exclusive lock.
            let node = unsafe { self.nodes.get(root) };
            self.insert_rec(node, split_key, key_enc, old_enc, new_enc)
        };
        if let Some((up, right)) = pushed {
            let grown = self
                .nodes
                .alloc(2, |i| if i == 0 { (up, root) } else { (0, right) });
            self.root.store(grown, Ordering::Release);
        }
    }

    /// Inserts `(key_enc, new_enc)` after the child `old_enc` below `node`,
    /// navigating by `nav`; returns the entry to push up when `node` splits.
    fn insert_rec(
        &self,
        node: Node<'_>,
        nav: &K::Owned,
        key_enc: u64,
        old_enc: u64,
        new_enc: u64,
    ) -> Option<(u64, u64)> {
        let idx = node.child_index::<K>(nav);
        let child = node.child(idx);
        let (key, right) = if child == old_enc {
            (key_enc, new_enc)
        } else {
            assert!(!enc_is_leaf(child), "split target vanished from the index");
            // SAFETY: a non-leaf child word, under the exclusive lock.
            let below = unsafe { self.nodes.get(child) };
            self.insert_rec(below, nav, key_enc, old_enc, new_enc)?
        };
        let pushed = self.nodes.insert_after(node, idx, key, right);
        if pushed.is_some() {
            self.ctx.metrics.inc(Counter::InnerSplits);
        }
        pushed
    }

    /// Exclusive removal of a leaf's entry from the index (delete case 3),
    /// then collapse of a single-child root chain.
    fn remove_from_parents(&self, nav: &K::Owned, leaf: u64) {
        let root = self.root.load(Ordering::Relaxed);
        assert!(!enc_is_leaf(root), "cannot unlink the root leaf");
        // SAFETY: checked non-leaf, under the exclusive lock.
        self.remove_rec(unsafe { self.nodes.get(root) }, nav, leaf);
        loop {
            let r = self.root.load(Ordering::Relaxed);
            if enc_is_leaf(r) {
                break;
            }
            // SAFETY: checked non-leaf, under the exclusive lock.
            let node = unsafe { self.nodes.get(r) };
            if node.count() != 1 {
                break;
            }
            self.root.store(node.child(0), Ordering::Release);
            self.nodes.retire(node);
        }
    }

    /// Removes the child `leaf` below `node`; returns true if `node` became
    /// empty (its parent removes and retires it).
    fn remove_rec(&self, node: Node<'_>, nav: &K::Owned, leaf: u64) -> bool {
        let idx = node.child_index::<K>(nav);
        let child = node.child(idx);
        let remove = child == leaf
            || !enc_is_leaf(child) && {
                // SAFETY: checked non-leaf, under the exclusive lock.
                let below = unsafe { self.nodes.get(child) };
                let empty = self.remove_rec(below, nav, leaf);
                if empty {
                    self.nodes.retire(below);
                }
                empty
            };
        if remove {
            self.nodes.remove_at(node, idx);
        }
        node.count() == 0
    }

    // ------------------------------------------------------------- stats

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    /// True if no keys are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Height of the index (0 = a single leaf).
    pub fn height(&self) -> usize {
        self.lock.execute(|tx| {
            let mut enc = self.root.load(Ordering::Acquire);
            let mut height = 0;
            while !enc_is_leaf(enc) {
                if enc == 0 || height == MAX_DEPTH {
                    return Err(Abort);
                }
                // SAFETY: non-zero, even, and loaded from the root or a
                // child word.
                enc = unsafe { self.nodes.get(enc) }.child(0);
                height += 1;
            }
            if tx.validate() {
                Ok(height)
            } else {
                Err(Abort)
            }
        })
    }

    /// The pool this tree lives in.
    pub fn pool(&self) -> &Arc<PmemPool> {
        &self.ctx.pool
    }

    /// The effective configuration.
    pub fn config(&self) -> &TreeConfig {
        &self.ctx.cfg
    }

    /// Speculation statistics `(attempts, aborts, fallbacks, writes)`.
    pub fn htm_stats(&self) -> (u64, u64, u64, u64) {
        self.lock.stats().snapshot()
    }

    /// Per-phase timings of the recovery pipeline that produced this handle;
    /// `None` for a freshly created (or bulk-loaded) tree and for the
    /// re-initialization path of an interrupted `create`/`bulk_load`.
    pub fn recovery_stats(&self) -> Option<RecoveryStats> {
        self.recovery
    }

    /// This tree's observability registry (counters, latency histograms).
    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.ctx.metrics
    }

    /// Point-in-time snapshot of the tree's metrics, with the speculation
    /// statistics (`htm_*`) and the pool's persistence counters (`pmem_*`)
    /// absorbed into the same flat field list.
    pub fn metrics_snapshot(&self) -> Snapshot {
        self.ctx
            .metrics
            .snapshot()
            .with_htm(self.htm_stats())
            .with_pool(&self.ctx.pool)
    }

    /// DRAM bytes held by the volatile index: every inner-node header and
    /// chunk allocated (free ones included) plus interned discriminators.
    pub fn dram_bytes(&self) -> usize {
        self.nodes.dram_bytes() + self.intern.bytes()
    }

    /// SCM/DRAM footprint (Figure 8).
    pub fn memory_usage(&self) -> MemoryUsage {
        let leaves = self.leaf_offsets();
        let mut scm = TreeMeta::byte_size(self.ctx.meta.n_logs) as u64;
        let groups = self.groups.lock();
        if groups.enabled() {
            // Whole groups are SCM footprint, free leaves included.
            scm += groups.group_count() as u64
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
        MemoryUsage {
            scm_bytes: scm,
            dram_bytes: self.dram_bytes() as u64,
            leaf_count: leaves.len(),
            inner_count: self.nodes.live(),
        }
    }

    /// The group free-list in pop order plus the group count — recovery
    /// must reconstruct these identically regardless of worker count (the
    /// differential fuzz harness compares them across thread counts).
    pub fn group_state(&self) -> (Vec<u64>, usize) {
        let groups = self.groups.lock();
        (groups.free_snapshot(), groups.group_count())
    }

    /// Leaf offsets in list order (quiescent contexts: tests, stats).
    pub fn leaf_offsets(&self) -> Vec<u64> {
        self.ctx.leaf_offsets()
    }

    /// Structural consistency check (quiescent state only; see
    /// `leafops::Ctx::check_leaf_chain` for the list of checks).
    pub fn check_consistency(&self) -> Result<(), String> {
        self.ctx
            .check_leaf_chain::<K>(self.len(), |k, off| self.traverse(k) == Ok(off))
    }

    /// Allocator-vs-tree agreement (see `leafops::Ctx::leak_audit`); with
    /// leaf groups the allocations are the groups, free leaves included,
    /// otherwise each linked leaf is its own allocation.
    pub fn leak_audit(&self) -> Result<(), String> {
        let groups = self.groups.lock();
        if groups.enabled() {
            self.ctx.leak_audit::<K>(groups.blocks().iter().copied())
        } else {
            self.ctx.leak_audit::<K>(self.leaf_offsets())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::FixedKey;
    use fptree_pmem::{PoolOptions, ROOT_SLOT};
    use std::sync::atomic::AtomicBool;

    fn tree() -> ConcurrentFPTree {
        let pool = Arc::new(PmemPool::create(PoolOptions::direct(1 << 20)).unwrap());
        ConcurrentTree::<FixedKey>::create(pool, TreeConfig::fptree_concurrent(), ROOT_SLOT)
    }

    #[test]
    fn no_micro_log_is_ever_held_twice() {
        let t = tree();
        let held: Vec<AtomicBool> = (0..N_LOGS).map(|_| AtomicBool::new(false)).collect();
        std::thread::scope(|s| {
            for thread in 0..8usize {
                let (t, held) = (&t, &held);
                s.spawn(move || {
                    for round in 0..2000 {
                        // Up to 8 at once: 8 threads can hold all 64.
                        let mine: Vec<usize> =
                            (0..=(thread + round) % 8).map(|_| t.take_log()).collect();
                        for &i in &mine {
                            assert!(!held[i].swap(true, Ordering::Relaxed), "log {i} twice");
                        }
                        for &i in &mine {
                            held[i].store(false, Ordering::Relaxed);
                            t.put_log(i);
                        }
                    }
                });
            }
        });
        assert_eq!(t.free_logs.load(Ordering::Relaxed), u64::MAX);
    }

    #[test]
    fn a_take_with_every_log_held_waits_and_counts() {
        let t = tree();
        let all: Vec<usize> = (0..N_LOGS).map(|_| t.take_log()).collect();
        assert_eq!(all, (0..N_LOGS).collect::<Vec<_>>());
        let waits = || t.metrics_snapshot().get("log_queue_waits").unwrap();
        std::thread::scope(|s| {
            let waiter = s.spawn(|| t.take_log());
            // With metrics on, release only once the waiter has counted a wait.
            while Metrics::enabled() && waits() == 0 {
                std::thread::yield_now();
            }
            t.put_log(41);
            assert_eq!(waiter.join().unwrap(), 41);
        });
        assert_eq!(t.free_logs.load(Ordering::Relaxed), 0);
    }

    /// A tree of `fanout` whose index is built over `n` stand-in leaves:
    /// leaf `i` holds keys up to `10 · (i + 1)` and sits at `1000 · i`.
    /// No leaf is read, so the offsets need not be real.
    fn built(fanout: usize, n: u64, threads: usize) -> ConcurrentFPTree {
        let pool = Arc::new(PmemPool::create(PoolOptions::direct(1 << 20)).unwrap());
        let cfg = TreeConfig::fptree_concurrent().with_inner_fanout(fanout);
        let t = ConcurrentTree::<FixedKey>::create(pool, cfg, ROOT_SLOT);
        t.build_index((0..n).map(|i| (10 * (i + 1), 1000 * i)).collect(), threads);
        t
    }

    /// The index below `enc`, written out: keys and children per node.
    fn shape(t: &ConcurrentFPTree, enc: u64) -> String {
        if enc_is_leaf(enc) {
            return format!("L{}", enc_leaf_off(enc));
        }
        // SAFETY: a non-leaf encoding from the root or a child word.
        let node = unsafe { t.nodes.get(enc) };
        let n = node.count();
        let keys: Vec<u64> = (0..n - 1).map(|i| node.key(i)).collect();
        let children: Vec<String> = (0..n).map(|i| shape(t, node.child(i))).collect();
        format!("I{keys:?}[{}]", children.join(","))
    }

    #[test]
    fn built_index_routes_every_key_to_its_leaf() {
        for fanout in [3usize, 4, 16, 300] {
            for n in [1u64, 2, 5, 16, 65, 1000] {
                let t = built(fanout, n, 1);
                // Key k in (10i, 10(i+1)] lives in leaf i.
                for k in 1..=10 * n {
                    let want = 1000 * ((k - 1) / 10);
                    assert_eq!(t.traverse(&k), Ok(want), "fanout={fanout} n={n} key={k}");
                    let (leaf, prev) = t.traverse_with_prev(&k).unwrap();
                    assert_eq!(leaf, want);
                    assert_eq!(
                        prev,
                        want.checked_sub(1000),
                        "fanout={fanout} n={n} key={k}"
                    );
                }
                // Keys beyond the max route to the last leaf.
                assert_eq!(t.traverse(&(10 * n + 5)), Ok(1000 * (n - 1)));
                assert_eq!(t.height() == 0, n == 1);
            }
        }
    }

    #[test]
    fn parallel_build_matches_serial_exactly() {
        for fanout in [3usize, 4, 16] {
            for n in [1u64, 2, 5, 16, 65, 257] {
                let serial = built(fanout, n, 1);
                let want = shape(&serial, serial.root.load(Ordering::Acquire));
                for threads in [2usize, 3, 7, 64] {
                    let par = built(fanout, n, threads);
                    let got = shape(&par, par.root.load(Ordering::Acquire));
                    assert_eq!(got, want, "fanout={fanout} n={n} threads={threads}");
                }
            }
        }
    }

    fn group_count(t: &ConcurrentFPTree) -> usize {
        t.groups.lock().group_count()
    }

    /// User sizes of the tree's group blocks, as the allocator recorded them.
    fn group_block_sizes(t: &ConcurrentFPTree) -> Vec<u64> {
        let live: std::collections::HashMap<u64, u64> =
            t.pool().live_blocks().unwrap().into_iter().collect();
        t.groups.lock().blocks().iter().map(|g| live[g]).collect()
    }

    /// Reopens `t`'s clean image in a fresh pool.
    fn reopen(t: &ConcurrentFPTree) -> ConcurrentFPTree {
        let image = t.pool().clean_image();
        let pool = Arc::new(PmemPool::reopen(image, PoolOptions::direct(0)).unwrap());
        ConcurrentTree::open(pool, ROOT_SLOT).unwrap()
    }

    #[test]
    fn image_with_an_unresolved_group_size_opens_unchanged() {
        // An image written before group sizes were resolved at create stores
        // the requested 16, which does not fill its block.
        let cfg = TreeConfig::fptree().with_leaf_capacity(8);
        assert_ne!(fill_group_block(cfg, FixedKey::SLOT_SIZE), cfg);
        let pool = Arc::new(PmemPool::create(PoolOptions::direct(16 << 20)).unwrap());
        let t = ConcurrentFPTree::create_with(pool, cfg, ROOT_SLOT, 1).unwrap();
        let group = 64 + 16 * t.ctx.layout.size as u64;
        for k in 0..4000u64 {
            assert!(t.insert(&k, k));
        }
        let full = group_count(&t);
        // Sequential inserts fill leaves, and so groups, in key order: a
        // removed key range frees whole groups.
        for k in 1000..2500u64 {
            assert!(t.remove(&k));
        }
        assert!(group_count(&t) < full, "no group was freed");
        for k in (0..999u64).step_by(3) {
            assert!(t.update(&k, k + 1));
            assert!(t.remove(&(k + 1)));
        }
        let content: Vec<(u64, u64)> = t.iter().collect();
        let groups = group_count(&t);
        assert!(groups > 1);
        let t = reopen(&t);
        assert_eq!(*t.config(), cfg);
        assert_eq!(t.iter().collect::<Vec<_>>(), content);
        assert_eq!(t.len(), content.len());
        t.check_consistency().unwrap();
        t.leak_audit().unwrap();

        for k in 4000..8000u64 {
            assert!(t.insert(&k, k));
        }
        assert!(group_count(&t) > groups, "no group allocated after open");
        assert!(group_block_sizes(&t).iter().all(|&b| b == group));
        t.check_consistency().unwrap();
        t.leak_audit().unwrap();
    }

    /// Images laid out the way the two former trees wrote them open in the
    /// one tree after churn: the single-threaded FPTree's (one micro-log
    /// pair, resolved groups; with groups off, still one pair) and the
    /// concurrent one's (64 pairs, no groups).
    #[test]
    fn images_of_both_former_layouts_reopen_after_churn() {
        let single = fill_group_block(
            TreeConfig::fptree().with_leaf_capacity(8),
            FixedKey::SLOT_SIZE,
        );
        let layouts = [
            (single, 1),
            (single.with_leaf_group_size(0), 1),
            (
                TreeConfig::fptree_concurrent().with_leaf_capacity(8),
                N_LOGS,
            ),
        ];
        for (cfg, logs) in layouts {
            let pool = Arc::new(PmemPool::create(PoolOptions::direct(16 << 20)).unwrap());
            let t = ConcurrentFPTree::create_with(pool, cfg, ROOT_SLOT, logs).unwrap();
            let mut model = std::collections::BTreeMap::new();
            for round in 0..3u64 {
                for k in 0..3000u64 {
                    let key = (k * 7919 + round) % 4000;
                    match (k + round) % 5 {
                        0 | 1 => {
                            let fresh = !model.contains_key(&key);
                            assert_eq!(t.insert(&key, k), fresh);
                            model.entry(key).or_insert(k);
                        }
                        2 => {
                            let present = model.contains_key(&key);
                            assert_eq!(t.update(&key, k), present);
                            if present {
                                model.insert(key, k);
                            }
                        }
                        _ => assert_eq!(t.remove(&key), model.remove(&key).is_some()),
                    }
                }
                let t = reopen(&t);
                assert_eq!(t.ctx.meta.n_logs, logs, "{cfg:?}");
                assert_eq!(*t.config(), cfg);
                assert_eq!(t.len(), model.len());
                let want: Vec<(u64, u64)> = model.iter().map(|(k, v)| (*k, *v)).collect();
                assert_eq!(t.iter().collect::<Vec<_>>(), want);
                t.check_consistency().unwrap();
                t.leak_audit().unwrap();
            }
        }
    }

    /// Four writers on a grouped tree with its one micro-log pair: splits
    /// and unlinks wait for the log, leaves come from and go back to groups
    /// under the group mutex, and the tree ends consistent and leak-free.
    #[test]
    fn grouped_tree_with_one_log_takes_concurrent_writers() {
        let pool = Arc::new(PmemPool::create(PoolOptions::direct(32 << 20)).unwrap());
        let t =
            ConcurrentFPTree::create(pool, TreeConfig::fptree().with_leaf_capacity(8), ROOT_SLOT);
        assert!(t.config().leaf_group_size > 1);
        assert_eq!(t.ctx.meta.n_logs, 1);
        let waits = || t.metrics_snapshot().get("log_queue_waits").unwrap();
        std::thread::scope(|s| {
            // Hold the log until a writer has waited for it.
            let held = t.take_log();
            let writers: Vec<_> = (0..4u64)
                .map(|w| {
                    let t = &t;
                    s.spawn(move || {
                        for k in 0..3000u64 {
                            assert!(t.insert(&(k * 4 + w), k));
                        }
                        for k in (0..3000u64).filter(|k| k % 3 != 0) {
                            assert!(t.remove(&(k * 4 + w)));
                        }
                    })
                })
                .collect();
            while Metrics::enabled() && waits() == 0 {
                std::thread::yield_now();
            }
            t.put_log(held);
            for w in writers {
                w.join().unwrap();
            }
        });
        assert!(!Metrics::enabled() || waits() > 0);
        assert_eq!(t.len(), 4 * 1000);
        for k in (0..3000u64).step_by(3) {
            for w in 0..4 {
                assert_eq!(t.get(&(k * 4 + w)), Some(k));
            }
        }
        t.check_consistency().unwrap();
        t.leak_audit().unwrap();
    }
}
