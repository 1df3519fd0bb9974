//! The concurrent FPTree: Selective Concurrency (§4.4, Algorithms 1–8).
//!
//! Work that touches only the transient part (traversal, inner-node updates)
//! runs inside an emulated hardware transaction — an optimistic section of
//! the global [`SpecLock`] — while work that needs persistence primitives
//! (leaf writes, splits, unlinks) runs *outside* it under fine-grained
//! per-leaf locks. The flow of every write operation is the paper's:
//!
//! 1. inside the speculative section: traverse, lock the target leaf (and
//!    for deletes of a dying leaf, its predecessor), decide whether a split
//!    is needed, validate, commit;
//! 2. outside: split (micro-logged) and/or modify the leaf, persist, commit
//!    with one p-atomic bitmap write — the leaf-mutation kernel shared with
//!    the single-threaded tree ([`crate::leafops`], DESIGN.md §5.14);
//! 3. if the structure changed: a short exclusive section updates the
//!    parents; finally the leaf locks are released.
//!
//! This file therefore holds only what differs from [`crate::single`]: the
//! atomic inner nodes, the speculative locate-and-lock sections, and the
//! exclusive index updates.
//!
//! ## Emulation-specific mechanics (see DESIGN.md §2)
//!
//! Real HTM buffers speculative writes and aborts readers whose read set is
//! touched. Our seqlock emulation cannot buffer, so:
//!
//! * leaf locks are **per-leaf sequence locks** (even/odd u64): readers
//!   snapshot a version and re-validate after reading the leaf, which is
//!   exactly the conflict TSX would detect on the leaf-lock cache line;
//! * inner nodes store keys and children in **atomic words**; readers may
//!   observe torn logical states (mid-shift arrays) but every individual
//!   word is a valid encoding, and the global validation rejects the
//!   traversal whenever a structural writer overlapped it;
//! * inner nodes and interned variable keys are retired to a graveyard
//!   (freed when the tree drops), never mid-run, so optimistic readers can
//!   always dereference what they loaded.

use std::cmp::Ordering as CmpOrdering;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use fptree_htm::{Abort, SpecLock};
use fptree_pmem::PmemPool;
use parking_lot::Mutex;

use crate::api::{check_create, Error};
use crate::config::TreeConfig;
use crate::groups::GroupMgr;
use crate::keys::{FixedKey, KeyKind, VarKey};
use crate::layout::LeafLayout;
use crate::leafops::{Ctx, WriteMode};
use crate::meta::{TreeMeta, STATUS_READY};
use crate::metrics::{Counter, Metrics, Op, RecoveryStats, Snapshot};
use crate::recovery::{recover, stamp_build};
use crate::scan::{ConcScan, ScanBounds};

/// Traversal depth bound: a torn optimistic read can cycle; anything deeper
/// than this is declared a conflict.
const MAX_DEPTH: usize = 64;

/// Number of split/delete micro-logs (upper bound on concurrent structural
/// operations; the paper indexes its micro-log arrays with lock-free
/// queues, here one word: bit `i` of the free mask is log `i`).
const N_LOGS: usize = 64;

/// Key encoding for atomic (u64) inner-node slots.
///
/// Fixed keys are stored directly. Variable keys are interned in DRAM and
/// stored as a pointer; interned keys live until the tree is dropped, so a
/// stale pointer read by an optimistic traversal is always dereferenceable.
pub trait ConcKey: KeyKind {
    /// Encodes `key` into a u64 inner-slot value.
    fn encode(key: &Self::Owned, intern: &Interner) -> u64;
    /// Compares an encoded slot value with a search key.
    fn cmp_encoded(enc: u64, key: &Self::Owned) -> CmpOrdering;
}

impl ConcKey for FixedKey {
    #[inline]
    fn encode(key: &u64, _intern: &Interner) -> u64 {
        *key
    }

    #[inline]
    fn cmp_encoded(enc: u64, key: &u64) -> CmpOrdering {
        enc.cmp(key)
    }
}

impl ConcKey for VarKey {
    fn encode(key: &Vec<u8>, intern: &Interner) -> u64 {
        intern.intern(key)
    }

    #[inline]
    fn cmp_encoded(enc: u64, key: &Vec<u8>) -> CmpOrdering {
        if enc == 0 {
            // Empty-slot sentinel: acts as +∞ so searches stop before it.
            return CmpOrdering::Greater;
        }
        // SAFETY: non-zero encodings in inner-key slots are only ever
        // produced by `Interner::intern`, and interned buffers are not
        // freed until the tree drops.
        let buf = unsafe { &*(enc as *const Box<[u8]>) };
        (**buf).cmp(key.as_slice())
    }
}

/// DRAM arena of interned variable-size discriminator keys.
#[derive(Default)]
pub struct Interner {
    // The outer Box pins each (fat) `Box<[u8]>` at a stable heap address
    // that encodes into one u64; do not "simplify" the nesting.
    #[allow(clippy::vec_box)]
    bufs: Mutex<Vec<Box<Box<[u8]>>>>,
}

impl Interner {
    /// Copies `key` into the arena, returning a stable pointer encoding.
    pub fn intern(&self, key: &[u8]) -> u64 {
        let boxed: Box<Box<[u8]>> = Box::new(key.to_vec().into_boxed_slice());
        let ptr = &*boxed as *const Box<[u8]> as u64;
        self.bufs.lock().push(boxed);
        ptr
    }

    fn bytes(&self) -> usize {
        self.bufs.lock().iter().map(|b| b.len() + 48).sum()
    }
}

/// An inner node with atomic fields, safe to read optimistically.
struct CNode {
    /// Number of children (keys = count − 1). May be stale mid-update;
    /// readers clamp and validate.
    count: AtomicUsize,
    /// Discriminators, capacity `fanout`.
    keys: Box<[AtomicU64]>,
    /// Child encodings, capacity `fanout + 1`: `(leaf_offset << 1) | 1` for
    /// leaves, the `CNode` address for inner children.
    children: Box<[AtomicU64]>,
}

impl CNode {
    fn new(fanout: usize) -> Box<CNode> {
        Box::new(CNode {
            count: AtomicUsize::new(0),
            keys: (0..fanout).map(|_| AtomicU64::new(0)).collect(),
            children: (0..fanout + 1).map(|_| AtomicU64::new(0)).collect(),
        })
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

/// A concurrent, persistent, hybrid SCM-DRAM B+-Tree (the paper's FPTreeC).
///
/// All operations take `&self` and are safe to call from many threads.
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
pub struct ConcurrentTree<K: ConcKey> {
    pub(crate) ctx: Ctx,
    pub(crate) lock: SpecLock,
    root: AtomicU64,
    /// Every CNode ever allocated; freed only on drop. Boxed so
    /// node addresses stay stable while the Vec grows (optimistic readers
    /// hold raw pointers).
    #[allow(clippy::vec_box)]
    nodes: Mutex<Vec<Box<CNode>>>,
    intern: Interner,
    /// Free micro-log indices: bit `i` set means log `i` is free.
    free_logs: AtomicU64,
    pub(crate) len: AtomicUsize,
    recovery: Option<RecoveryStats>,
    _marker: std::marker::PhantomData<K>,
}

/// Fixed-size-key concurrent FPTree.
pub type ConcurrentFPTree = ConcurrentTree<FixedKey>;
/// Variable-size-key concurrent FPTree.
pub type ConcurrentFPTreeVar = ConcurrentTree<VarKey>;

impl<K: ConcKey> ConcurrentTree<K> {
    /// Creates a fresh concurrent tree (leaf groups are never used: they
    /// would be a central synchronization point, §5). Panics where
    /// [`Self::try_create`] errs.
    pub fn create(pool: Arc<PmemPool>, cfg: TreeConfig, owner_slot: u64) -> Self {
        Self::try_create(pool, cfg, owner_slot).expect("creating concurrent tree")
    }

    /// [`Self::create`], rejecting an invalid `cfg` or a pool too small for
    /// the tree's initial footprint before any persistent write.
    pub fn try_create(
        pool: Arc<PmemPool>,
        cfg: TreeConfig,
        owner_slot: u64,
    ) -> Result<Self, Error> {
        let mut cfg = cfg;
        cfg.leaf_group_size = 0;
        check_create::<K>(&cfg, &pool, N_LOGS)?;
        let checked = Arc::clone(&pool);
        let _op = checked.begin_checked_op("tree_create");
        let layout = LeafLayout::new(&cfg, K::SLOT_SIZE);
        let meta = TreeMeta::create(&pool, &cfg, K::SLOT_SIZE, K::IS_VAR, N_LOGS, owner_slot);
        let ctx = Ctx::new(pool, cfg, layout, meta);
        ctx.metrics.inc(Counter::LeafAllocs);
        let head = ctx
            .pool
            .allocate(meta.head_slot(), layout.size)
            .expect("pool exhausted: first leaf");
        ctx.zero_leaf(head);
        meta.set_status(&ctx.pool, STATUS_READY);
        let t = Self::empty(ctx);
        t.root.store(leaf_enc(head), Ordering::Release);
        Ok(t)
    }

    /// Opens (recovers) a concurrent tree: Algorithm 9 — replay micro-logs,
    /// audit, rebuild inner nodes, reset leaf locks, rebuild log queues.
    ///
    /// Runs the recovery pipeline on
    /// [`crate::config::default_recovery_threads`] workers; corruption is
    /// reported as [`Error::Corrupt`] instead of a panic.
    pub fn open(pool: Arc<PmemPool>, owner_slot: u64) -> Result<Self, Error> {
        Self::open_with(pool, owner_slot, crate::config::default_recovery_threads())
    }

    /// [`Self::open`] with an explicit recovery worker count (0 means the
    /// default); the recovered tree is identical for every `threads` value.
    pub fn open_with(pool: Arc<PmemPool>, owner_slot: u64, threads: usize) -> Result<Self, Error> {
        let r = recover::<K>(pool, owner_slot, threads)?;
        let mut t = Self::empty(r.ctx);
        t.len.store(r.len, Ordering::Relaxed);
        // Phase 4 — build the atomic index bottom-up, level by level.
        let start = Instant::now();
        let root = if r.entries.is_empty() {
            leaf_enc(t.ctx.meta.head(&t.ctx.pool).offset)
        } else {
            let fanout = t.ctx.cfg.inner_fanout;
            let mut level: Vec<(K::Owned, u64)> = r
                .entries
                .into_iter()
                .map(|(k, off)| (k, leaf_enc(off)))
                .collect();
            while level.len() > 1 {
                level = t.build_level(&level, fanout, r.threads);
            }
            level[0].1
        };
        t.root.store(root, Ordering::Release);
        t.recovery = stamp_build(r.stats, start);
        Ok(t)
    }

    fn empty(ctx: Ctx) -> Self {
        // `TreeMeta::open` bounds `n_logs` to at least 1; logs past the
        // mask's 64 stay unused.
        let free_logs = u64::MAX >> (N_LOGS - ctx.meta.n_logs.min(N_LOGS));
        ConcurrentTree {
            ctx,
            lock: SpecLock::new(),
            root: AtomicU64::new(0),
            nodes: Mutex::new(Vec::new()),
            intern: Interner::default(),
            free_logs: AtomicU64::new(free_logs),
            len: AtomicUsize::new(0),
            recovery: None,
            _marker: std::marker::PhantomData,
        }
    }

    /// Packs one level's `(max_key, child_enc)` pairs into parent CNodes
    /// across the worker pool. Segments split only at `fanout` boundaries,
    /// so the logical structure matches the serial chunking exactly.
    fn build_level(
        &self,
        level: &[(K::Owned, u64)],
        fanout: usize,
        threads: usize,
    ) -> Vec<(K::Owned, u64)> {
        let n_chunks = level.len().div_ceil(fanout);
        let workers = threads.min(n_chunks).max(1);
        if workers <= 1 {
            return self.pack_chunks(level, fanout);
        }
        let per = n_chunks.div_ceil(workers) * fanout;
        std::thread::scope(|s| {
            let handles: Vec<_> = level
                .chunks(per)
                .map(|seg| s.spawn(move || self.pack_chunks(seg, fanout)))
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
    fn pack_chunks(&self, seg: &[(K::Owned, u64)], fanout: usize) -> Vec<(K::Owned, u64)> {
        let mut out = Vec::with_capacity(seg.len() / fanout + 1);
        for chunk in seg.chunks(fanout) {
            let node = self.alloc_node();
            for (i, (k, enc)) in chunk.iter().enumerate() {
                if i + 1 < chunk.len() {
                    node.keys[i].store(K::encode(k, &self.intern), Ordering::Relaxed);
                }
                node.children[i].store(*enc, Ordering::Relaxed);
            }
            node.count.store(chunk.len(), Ordering::Release);
            let max = chunk.last().expect("chunk nonempty").0.clone();
            out.push((max, node as *const CNode as u64));
        }
        out
    }

    fn alloc_node(&self) -> &CNode {
        let boxed = CNode::new(self.ctx.cfg.inner_fanout);
        let ptr = &*boxed as *const CNode;
        self.nodes.lock().push(boxed);
        // SAFETY: boxes in `nodes` are only dropped when the tree drops.
        unsafe { &*ptr }
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
            // SAFETY: non-leaf encodings are addresses of CNodes owned by
            // `self.nodes`, which only drops them when the tree drops.
            let node = unsafe { &*(enc as *const CNode) };
            let idx = self.child_index(node, key);
            enc = node.children[idx].load(Ordering::Acquire);
        }
        Err(Abort)
    }

    /// One level of descent: index of the child covering `key`, by binary
    /// search over the (clamped) key prefix.
    fn child_index(&self, node: &CNode, key: &K::Owned) -> usize {
        let cap = self.ctx.cfg.inner_fanout;
        let count = node.count.load(Ordering::Acquire).clamp(1, cap + 1);
        let mut lo = 0usize;
        let mut hi = count - 1;
        while lo < hi {
            let mid = (lo + hi) / 2;
            match K::cmp_encoded(node.keys[mid].load(Ordering::Acquire), key) {
                CmpOrdering::Less => lo = mid + 1,
                _ => hi = mid,
            }
        }
        lo
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
            // SAFETY: as in `traverse` — CNodes live in `self.nodes` until
            // the tree drops.
            let node = unsafe { &*(enc as *const CNode) };
            let idx = self.child_index(node, key);
            if idx > 0 {
                left = Some(node.children[idx - 1].load(Ordering::Acquire));
            }
            enc = node.children[idx].load(Ordering::Acquire);
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
            // SAFETY: as in `traverse` — CNodes live in `self.nodes` until
            // the tree drops.
            let node = unsafe { &*(enc as *const CNode) };
            let cap = self.ctx.cfg.inner_fanout;
            let count = node.count.load(Ordering::Acquire).clamp(1, cap + 1);
            enc = node.children[count - 1].load(Ordering::Acquire);
        }
        Err(Abort)
    }

    // ------------------------------------------------------------- reads

    /// Concurrent Find (Algorithm 1): fully speculative, retries on any
    /// conflicting leaf writer.
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
    /// iteration (see [`crate::scan`] for the validation protocol).
    ///
    /// Non-blocking for writers. Keys come out in strictly increasing
    /// order; every emitted entry existed in the tree at some point during
    /// the scan, and any key untouched by concurrent writers for the whole
    /// scan appears exactly once.
    pub fn scan<R: std::ops::RangeBounds<K::Owned>>(&self, range: R) -> ConcScan<'_, K> {
        ConcScan::new(self, ScanBounds::new(range))
    }

    /// Range scan over `[lo, hi]`; results sorted. A convenience collect
    /// over [`ConcurrentTree::scan`].
    pub fn range(&self, lo: &K::Owned, hi: &K::Owned) -> Vec<(K::Owned, u64)> {
        self.scan(lo.clone()..=hi.clone()).collect()
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

    /// Insert / update: lock → kernel → publish split → unlock → len.
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

    /// Concurrent Insert (Algorithm 2). Returns false if the key exists.
    pub fn insert(&self, key: &K::Owned, value: u64) -> bool {
        self.write(key, value, WriteMode::Insert)
    }

    /// Concurrent Update (Algorithm 8). Returns false if the key is absent.
    pub fn update(&self, key: &K::Owned, value: u64) -> bool {
        self.write(key, value, WriteMode::Update { expected: None })
    }

    /// Updates `key` to `value` only if its current value equals `expected`
    /// — the compare-and-update a caching layer needs to replace a mapping
    /// it read without clobbering (and leaking) a concurrent writer's fresh
    /// value. Returns false if the key is absent or its value changed.
    pub fn update_if(&self, key: &K::Owned, expected: u64, value: u64) -> bool {
        let expected = Some(expected);
        self.write(key, value, WriteMode::Update { expected })
    }

    /// Concurrent Delete (Algorithm 5). Returns false if the key is absent.
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

    /// Remove: lock (leaf, and the predecessor of a dying leaf) → kernel →
    /// unlink → unlock → len.
    fn remove_guarded(&self, key: &K::Owned, expected: Option<u64>) -> bool {
        let _t = self.ctx.metrics.time_op(Op::Remove);
        let _op = self.ctx.pool.begin_checked_op("remove");
        // `unlink` is `Some(prev)` when the leaf is dying and its
        // predecessor (if any) is locked too: its next pointer will change.
        let (off, unlink) = self.lock.execute(|tx| {
            let (off, prev) = self.traverse_with_prev(key)?;
            let leaf = self.ctx.leaf(off);
            let Some(v) = leaf.version() else {
                self.ctx.metrics.inc(Counter::LeafLockSpins);
                return Err(Abort);
            };
            // Dying means ONE distinct live key — a buffered update of a
            // slot-resident key must not count twice, or the remove takes
            // the in-place path and leaves an empty leaf linked (§5.12).
            // All reads here precede `try_lock_version(v)`, which fails if
            // any writer intervened since `v` was read.
            let dying = leaf.count() + leaf.wbuf_census::<K>().fresh == 1
                && !(prev.is_none() && leaf.next().is_null());
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
                self.ctx.delete_leaf(None, off, prev, li);
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
        let mut no_groups = GroupMgr::new(0);
        let (split_key, new_off) = self.ctx.split_leaf::<K>(&mut no_groups, off, li);
        self.put_log(li);
        (split_key, new_off)
    }

    /// Exclusive inner-node update after a split (Algorithm 2 step 3).
    pub(crate) fn publish_split(&self, split_key: &K::Owned, old_off: u64, new_off: u64) {
        let _g = self.lock.write_lock();
        let key_enc = K::encode(split_key, &self.intern);
        let old_enc = leaf_enc(old_off);
        let new_enc = leaf_enc(new_off);
        let root = self.root.load(Ordering::Relaxed);
        if root == old_enc {
            let node = self.alloc_node();
            node.keys[0].store(key_enc, Ordering::Relaxed);
            node.children[0].store(old_enc, Ordering::Relaxed);
            node.children[1].store(new_enc, Ordering::Relaxed);
            node.count.store(2, Ordering::Release);
            self.root
                .store(node as *const CNode as u64, Ordering::Release);
            return;
        }
        // SAFETY: the root is not a leaf here; CNodes live in `self.nodes`
        // until the tree drops, and we hold the exclusive lock.
        let root_node = unsafe { &*(root as *const CNode) };
        if let Some((up_enc, right_enc)) =
            self.insert_entry_rec(root_node, split_key, key_enc, old_enc, new_enc)
        {
            let node = self.alloc_node();
            node.keys[0].store(up_enc, Ordering::Relaxed);
            node.children[0].store(root, Ordering::Relaxed);
            node.children[1].store(right_enc, Ordering::Relaxed);
            node.count.store(2, Ordering::Release);
            self.root
                .store(node as *const CNode as u64, Ordering::Release);
        }
    }

    /// Recursive exclusive insert of `(key_enc, new_enc)` next to `old_enc`;
    /// returns a pushed-up entry when a node splits.
    fn insert_entry_rec(
        &self,
        node: &CNode,
        nav_key: &K::Owned,
        key_enc: u64,
        old_enc: u64,
        new_enc: u64,
    ) -> Option<(u64, u64)> {
        let count = node.count.load(Ordering::Relaxed);
        let nkeys = count - 1;
        let mut idx = 0usize;
        while idx < nkeys {
            if K::cmp_encoded(node.keys[idx].load(Ordering::Relaxed), nav_key) != CmpOrdering::Less
            {
                break;
            }
            idx += 1;
        }
        let child = node.children[idx].load(Ordering::Relaxed);
        if child == old_enc {
            self.node_insert_at(node, idx, key_enc, new_enc);
        } else {
            assert!(!enc_is_leaf(child), "split target vanished from the index");
            // SAFETY: checked non-leaf; CNodes live in `self.nodes` until
            // the tree drops, and we hold the exclusive lock.
            let child_node = unsafe { &*(child as *const CNode) };
            let pushed = self.insert_entry_rec(child_node, nav_key, key_enc, old_enc, new_enc)?;
            self.node_insert_at(node, idx, pushed.0, pushed.1);
        }
        (node.count.load(Ordering::Relaxed) > self.ctx.cfg.inner_fanout)
            .then(|| self.split_cnode(node))
    }

    /// Shifts arrays right and inserts `(key_enc, child_enc)` after `idx`.
    /// Runs under the exclusive lock; optimistic readers observing the
    /// mid-shift state are rejected by their validation.
    fn node_insert_at(&self, node: &CNode, idx: usize, key_enc: u64, child_enc: u64) {
        let count = node.count.load(Ordering::Relaxed);
        let nkeys = count - 1;
        for i in (idx..nkeys).rev() {
            let k = node.keys[i].load(Ordering::Relaxed);
            node.keys[i + 1].store(k, Ordering::Relaxed);
        }
        for i in (idx + 1..count).rev() {
            let c = node.children[i].load(Ordering::Relaxed);
            node.children[i + 1].store(c, Ordering::Relaxed);
        }
        node.keys[idx].store(key_enc, Ordering::Relaxed);
        node.children[idx + 1].store(child_enc, Ordering::Relaxed);
        node.count.store(count + 1, Ordering::Release);
    }

    /// Splits an over-full CNode, returning `(promoted_key_enc, right_enc)`.
    fn split_cnode(&self, node: &CNode) -> (u64, u64) {
        self.ctx.metrics.inc(Counter::InnerSplits);
        let count = node.count.load(Ordering::Relaxed);
        // Left keeps children[..mid] — the same split point as
        // `InnerNode::split` (keys[nkeys / 2] moves up), so both trees'
        // indexes route every key, including gaps left by unlinked leaves,
        // to the same leaf.
        let mid = (count - 1) / 2 + 1;
        let promoted = node.keys[mid - 1].load(Ordering::Relaxed);
        let right = self.alloc_node();
        for i in mid..count {
            let c = node.children[i].load(Ordering::Relaxed);
            right.children[i - mid].store(c, Ordering::Relaxed);
        }
        for i in mid..count - 1 {
            let k = node.keys[i].load(Ordering::Relaxed);
            right.keys[i - mid].store(k, Ordering::Relaxed);
        }
        right.count.store(count - mid, Ordering::Release);
        node.count.store(mid, Ordering::Release);
        (promoted, right as *const CNode as u64)
    }

    /// Exclusive removal of a leaf's entry from the index (delete case 3).
    fn remove_from_parents(&self, nav_key: &K::Owned, leaf: u64) {
        let root = self.root.load(Ordering::Relaxed);
        assert!(!enc_is_leaf(root), "cannot unlink the root leaf");
        // SAFETY: checked non-leaf; CNodes live in `self.nodes` until
        // the tree drops, and we hold the exclusive lock.
        let root_node = unsafe { &*(root as *const CNode) };
        self.remove_entry_rec(root_node, nav_key, leaf);
        // Collapse single-child root chain.
        loop {
            let r = self.root.load(Ordering::Relaxed);
            if enc_is_leaf(r) {
                break;
            }
            // SAFETY: checked non-leaf; CNodes live in `self.nodes` until
            // the tree drops, and we hold the exclusive lock.
            let node = unsafe { &*(r as *const CNode) };
            if node.count.load(Ordering::Relaxed) == 1 {
                let only = node.children[0].load(Ordering::Relaxed);
                self.root.store(only, Ordering::Release);
            } else {
                break;
            }
        }
    }

    /// Returns true if `node` became empty and should be removed itself.
    fn remove_entry_rec(&self, node: &CNode, nav_key: &K::Owned, leaf: u64) -> bool {
        let count = node.count.load(Ordering::Relaxed);
        let nkeys = count - 1;
        let mut idx = 0usize;
        while idx < nkeys {
            if K::cmp_encoded(node.keys[idx].load(Ordering::Relaxed), nav_key) != CmpOrdering::Less
            {
                break;
            }
            idx += 1;
        }
        let child = node.children[idx].load(Ordering::Relaxed);
        let remove_child = if child == leaf {
            true
        } else if enc_is_leaf(child) {
            false
        } else {
            // SAFETY: checked non-leaf; CNodes live in `self.nodes` until
            // the tree drops, and we hold the exclusive lock.
            let child_node = unsafe { &*(child as *const CNode) };
            self.remove_entry_rec(child_node, nav_key, leaf)
        };
        if remove_child {
            self.node_remove_at(node, idx);
        }
        node.count.load(Ordering::Relaxed) == 0
    }

    fn node_remove_at(&self, node: &CNode, idx: usize) {
        let count = node.count.load(Ordering::Relaxed);
        let nkeys = count - 1;
        for i in idx + 1..count {
            let c = node.children[i].load(Ordering::Relaxed);
            node.children[i - 1].store(c, Ordering::Relaxed);
        }
        let kidx = idx.min(nkeys.saturating_sub(1));
        for i in kidx + 1..nkeys {
            let k = node.keys[i].load(Ordering::Relaxed);
            node.keys[i - 1].store(k, Ordering::Relaxed);
        }
        node.count.store(count - 1, Ordering::Release);
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
    /// `None` for a freshly created tree.
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

    /// DRAM bytes held by the volatile index (inner nodes + interner).
    pub fn dram_bytes(&self) -> usize {
        let fanout = self.ctx.cfg.inner_fanout;
        let per_node = std::mem::size_of::<CNode>() + (2 * fanout + 1) * 8;
        self.nodes.lock().len() * per_node + self.intern.bytes()
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

    /// Allocator-vs-tree agreement (see `leafops::Ctx::leak_audit`); each
    /// linked leaf is its own allocation.
    pub fn leak_audit(&self) -> Result<(), String> {
        self.ctx.leak_audit::<K>(self.leaf_offsets())
    }
}

// SAFETY: shared state is either atomic, Mutex-protected, or governed by the
// SpecLock / per-leaf version-lock protocol documented above.
unsafe impl<K: ConcKey> Send for ConcurrentTree<K> {}
// SAFETY: as for Send — shared access goes through the same lock protocol.
unsafe impl<K: ConcKey> Sync for ConcurrentTree<K> {}

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
}
