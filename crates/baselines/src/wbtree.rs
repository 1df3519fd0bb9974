//! wBTree: the write-atomic B+-Tree baseline (Chen & Jin, PVLDB 2015).
//!
//! Re-implemented as the FPTree paper does for its evaluation: every node —
//! inner and leaf — lives in SCM; nodes keep entries unsorted with a
//! validity bitmap plus a **sorted indirection slot array** enabling binary
//! search; the atomic commit of each in-node modification is the p-atomic
//! bitmap write; and, following the paper ("we replace the wBTree undo-redo
//! logs with the more lightweight FPTree micro-logs"), structural changes
//! use FPTree-style micro-logs. Because everything is persistent, recovery
//! replays three micro-logs and is near-instantaneous — the flip side being
//! that every traversal level pays SCM latency (Figures 7 and 12).
//!
//! Simplifications relative to a production tree, shared with the paper's
//! own re-implementation: nodes are never merged (empty leaves persist),
//! and splits are *preemptive* (a full node is split before descending into
//! it), so an in-node insert always has a free slot and each split touches
//! exactly one parent.
//!
//! Routing uses max-key routers: an inner entry is `(max_of_subtree,
//! child)`; a search descends into the entry with the smallest router ≥ the
//! key, or the rightmost entry.

use std::sync::Arc;

use fptree_core::keys::KeyKind;
use fptree_pmem::{PmemPool, RawPPtr};

/// Status: fully initialized.
const READY: u64 = 2;

// Tree metadata block layout.
const M_STATUS: u64 = 0;
const M_LEAF_CAP: u64 = 8;
const M_INNER_CAP: u64 = 16;
const M_FLAGS: u64 = 24;
const M_ROOT: u64 = 32; // RawPPtr
const M_HEAD: u64 = 48; // RawPPtr
const M_KEY_SLOT: u64 = 64;
const M_NODE_LOG: u64 = 128; // RawPPtr: node whose slot array is in flux
const M_SPLIT_LOG: u64 = 192; // RawPPtr pair: (split child, new sibling)
const M_ROOT_LOG: u64 = 256; // RawPPtr: new root being installed
const META_SIZE: usize = 320;

const FLAG_VAR: u64 = 1;

/// Per-node-kind layout: byte offsets inside a node.
#[derive(Debug, Clone, Copy)]
struct NodeLayout {
    cap: usize,
    key_slot: usize,
    off_slots: usize, // [count u8][cap slot bytes], padded to 8
    off_next: usize,  // RawPPtr (leaves)
    off_entries: usize,
    size: usize,
}

impl NodeLayout {
    fn new(cap: usize, key_slot: usize) -> NodeLayout {
        assert!((2..=64).contains(&cap));
        let off_slots = 16;
        let slots_len = (1 + cap + 7) & !7;
        let off_next = off_slots + slots_len;
        let off_entries = off_next + 16;
        let size = (off_entries + cap * (key_slot + 8) + 63) & !63;
        NodeLayout {
            cap,
            key_slot,
            off_slots,
            off_next,
            off_entries,
            size,
        }
    }

    fn key_off(&self, slot: usize) -> usize {
        self.off_entries + slot * (self.key_slot + 8)
    }

    fn val_off(&self, slot: usize) -> usize {
        self.key_off(slot) + self.key_slot
    }

    fn full_bitmap(&self) -> u64 {
        if self.cap == 64 {
            u64::MAX
        } else {
            (1 << self.cap) - 1
        }
    }
}

/// Accessor over one wBTree node in SCM.
#[derive(Clone, Copy)]
struct WNode<'a> {
    pool: &'a PmemPool,
    l: NodeLayout,
    off: u64,
}

impl<'a> WNode<'a> {
    fn bitmap(&self) -> u64 {
        self.pool.read_word(self.off)
    }

    fn commit_bitmap(&self, bm: u64) {
        self.pool.write_word(self.off, bm);
        self.pool.persist(self.off, 8);
    }

    fn is_leaf(&self) -> bool {
        self.pool.read_word(self.off + 8) & 1 == 1
    }

    fn set_leaf_flag(&self, leaf: bool) {
        self.pool.write_word(self.off + 8, leaf as u64);
        self.pool.persist(self.off + 8, 8);
    }

    fn count(&self) -> usize {
        let c: u8 = self.pool.read_at(self.off + self.l.off_slots as u64);
        (c as usize).min(self.l.cap)
    }

    fn slot(&self, i: usize) -> usize {
        let s: u8 = self
            .pool
            .read_at(self.off + (self.l.off_slots + 1 + i) as u64);
        (s as usize).min(self.l.cap - 1)
    }

    /// Writes and persists the whole slot array (count + indirections).
    fn write_slots(&self, slots: &[usize]) {
        let mut buf = vec![0u8; 1 + self.l.cap];
        buf[0] = slots.len() as u8;
        for (i, &s) in slots.iter().enumerate() {
            buf[1 + i] = s as u8;
        }
        self.pool
            .write_bytes(self.off + self.l.off_slots as u64, &buf);
        self.pool
            .persist(self.off + self.l.off_slots as u64, buf.len());
    }

    fn next(&self) -> RawPPtr {
        self.pool.read_at(self.off + self.l.off_next as u64)
    }

    fn set_next(&self, p: RawPPtr) {
        self.pool.write_at(self.off + self.l.off_next as u64, &p);
        self.pool.persist(self.off + self.l.off_next as u64, 16);
    }

    fn key_off(&self, slot: usize) -> u64 {
        self.off + self.l.key_off(slot) as u64
    }

    fn value(&self, slot: usize) -> u64 {
        self.pool.read_word(self.off + self.l.val_off(slot) as u64)
    }

    fn set_value(&self, slot: usize, v: u64) {
        self.pool
            .write_word(self.off + self.l.val_off(slot) as u64, v);
    }

    fn persist_entry(&self, slot: usize) {
        self.pool.persist(self.key_off(slot), self.l.key_slot + 8);
    }

    fn first_zero(&self) -> Option<usize> {
        let free = !self.bitmap() & self.l.full_bitmap();
        (free != 0).then(|| free.trailing_zeros() as usize)
    }

    fn is_full(&self) -> bool {
        self.bitmap() == self.l.full_bitmap()
    }

    /// Charges SCM read latency for the node head (bitmap + slot array).
    fn touch_head(&self) {
        self.pool.touch_read(self.off, self.l.off_next);
    }

    /// Binary search over the slot array: position of the smallest key ≥
    /// `key` (or `count` if none). Charges one entry touch per probe.
    fn search_pos<K: KeyKind>(&self, key: &K::Owned) -> usize {
        let count = self.count();
        let mut lo = 0usize;
        let mut hi = count;
        while lo < hi {
            let mid = (lo + hi) / 2;
            let slot = self.slot(mid);
            self.pool.touch_read(self.key_off(slot), self.l.key_slot);
            K::touch_key(self.pool, self.key_off(slot));
            let stored = K::read_slot(self.pool, self.key_off(slot));
            if stored < *key {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Exact-match slot for `key`, if present.
    fn find_exact<K: KeyKind>(&self, key: &K::Owned) -> Option<(usize, usize)> {
        let pos = self.search_pos::<K>(key);
        if pos >= self.count() {
            return None;
        }
        let slot = self.slot(pos);
        K::slot_matches(self.pool, self.key_off(slot), key).then_some((pos, slot))
    }

    /// Child offset for routing `key` (inner nodes).
    fn route<K: KeyKind>(&self, key: &K::Owned) -> (usize, u64) {
        let count = self.count();
        debug_assert!(count > 0, "inner node with no entries");
        let pos = self.search_pos::<K>(key).min(count - 1);
        let slot = self.slot(pos);
        (pos, self.value(slot))
    }

    /// Sorted (position, slot, key) triples — recovery and splits.
    fn sorted_entries<K: KeyKind>(&self) -> Vec<(usize, K::Owned)> {
        let bm = self.bitmap();
        let mut v: Vec<(usize, K::Owned)> = (0..self.l.cap)
            .filter(|s| bm & (1 << s) != 0)
            .map(|s| (s, K::read_slot(self.pool, self.key_off(s))))
            .collect();
        v.sort_by(|a, b| a.1.cmp(&b.1));
        v
    }

    /// Recomputes the slot array from bitmap + keys (crash recovery of an
    /// interrupted in-node modification).
    fn rebuild_slots<K: KeyKind>(&self) {
        let sorted = self.sorted_entries::<K>();
        let slots: Vec<usize> = sorted.iter().map(|(s, _)| *s).collect();
        self.write_slots(&slots);
    }
}

/// The wBTree baseline, generic over fixed/variable keys.
///
/// ```
/// use std::sync::Arc;
/// use fptree_baselines::WBTreeFixed;
/// use fptree_pmem::{PmemPool, PoolOptions, ROOT_SLOT};
///
/// let pool = Arc::new(PmemPool::create(PoolOptions::direct(32 << 20)).unwrap());
/// let mut t = WBTreeFixed::create(pool, 64, 32, ROOT_SLOT);
/// t.insert(&7, 70);
/// assert_eq!(t.get(&7), Some(70));
/// assert_eq!(t.range(&0, &10), vec![(7, 70)]);
/// ```
pub struct WBTree<K: KeyKind> {
    pool: Arc<PmemPool>,
    meta: u64,
    leaf_l: NodeLayout,
    inner_l: NodeLayout,
    len: usize,
    _marker: std::marker::PhantomData<K>,
}

/// Fixed-key wBTree (Table 1: inner 32, leaf 64 — here both runtime-set).
pub type WBTreeFixed = WBTree<fptree_core::keys::FixedKey>;
/// Variable-key wBTree.
pub type WBTreeVar = WBTree<fptree_core::keys::VarKey>;

impl<K: KeyKind> WBTree<K> {
    /// Creates a fresh tree with the given node capacities (entries per
    /// leaf/inner node), publishing metadata into `owner_slot`.
    pub fn create(pool: Arc<PmemPool>, leaf_cap: usize, inner_cap: usize, owner_slot: u64) -> Self {
        let meta = pool
            .allocate(owner_slot, META_SIZE)
            .expect("pool exhausted: wbtree meta");
        pool.write_bytes(meta, &vec![0u8; META_SIZE]);
        pool.persist(meta, META_SIZE);
        pool.write_word(meta + M_LEAF_CAP, leaf_cap as u64);
        pool.write_word(meta + M_INNER_CAP, inner_cap as u64);
        pool.write_word(meta + M_FLAGS, if K::IS_VAR { FLAG_VAR } else { 0 });
        pool.write_word(meta + M_KEY_SLOT, K::SLOT_SIZE as u64);
        pool.persist(meta, 72);
        let leaf_l = NodeLayout::new(leaf_cap, K::SLOT_SIZE);
        let inner_l = NodeLayout::new(inner_cap, K::SLOT_SIZE);
        let tree = WBTree {
            pool,
            meta,
            leaf_l,
            inner_l,
            len: 0,
            _marker: Default::default(),
        };
        // First leaf, owner = root pointer; also the list head.
        let root = tree.alloc_node(meta + M_ROOT, true);
        let head = RawPPtr::new(tree.pool.file_id(), root);
        tree.pool.write_at(meta + M_HEAD, &head);
        tree.pool.persist(meta + M_HEAD, 16);
        tree.pool.write_word(meta + M_STATUS, READY);
        tree.pool.persist(meta + M_STATUS, 8);
        tree
    }

    /// Opens (recovers) the tree at `owner_slot` — replays the three
    /// micro-logs; since the whole tree lives in SCM, there is nothing to
    /// rebuild and recovery is near-instantaneous.
    pub fn open(pool: Arc<PmemPool>, owner_slot: u64) -> Self {
        let owner: RawPPtr = pool.read_at(owner_slot);
        assert!(!owner.is_null(), "no wBTree at owner slot");
        let meta = owner.offset;
        assert_eq!(
            pool.read_word(meta + M_STATUS),
            READY,
            "wBTree not initialized"
        );
        let flags = pool.read_word(meta + M_FLAGS);
        assert_eq!(flags & FLAG_VAR != 0, K::IS_VAR, "key-kind mismatch");
        assert_eq!(pool.read_word(meta + M_KEY_SLOT) as usize, K::SLOT_SIZE);
        let leaf_l = NodeLayout::new(pool.read_word(meta + M_LEAF_CAP) as usize, K::SLOT_SIZE);
        let inner_l = NodeLayout::new(pool.read_word(meta + M_INNER_CAP) as usize, K::SLOT_SIZE);
        let mut tree = WBTree {
            pool,
            meta,
            leaf_l,
            inner_l,
            len: 0,
            _marker: Default::default(),
        };
        tree.recover();
        tree.len = tree.count_entries();
        tree
    }

    fn node(&self, off: u64) -> WNode<'_> {
        // The leaf flag word tells us which layout applies.
        let is_leaf = self.pool.read_word(off + 8) & 1 == 1;
        WNode {
            pool: &self.pool,
            l: if is_leaf { self.leaf_l } else { self.inner_l },
            off,
        }
    }

    fn root_off(&self) -> u64 {
        let p: RawPPtr = self.pool.read_at(self.meta + M_ROOT);
        p.offset
    }

    fn pptr(&self, off: u64) -> RawPPtr {
        RawPPtr::new(self.pool.file_id(), off)
    }

    /// Allocates and zero-initializes a node, publishing it to `owner`.
    fn alloc_node(&self, owner: u64, leaf: bool) -> u64 {
        let l = if leaf { self.leaf_l } else { self.inner_l };
        let off = self
            .pool
            .allocate(owner, l.size)
            .expect("pool exhausted: wbtree node");
        self.pool.write_bytes(off, &vec![0u8; l.size]);
        self.pool.persist(off, l.size);
        let n = WNode {
            pool: &self.pool,
            l,
            off,
        };
        n.set_leaf_flag(leaf);
        off
    }

    // ------------------------------------------------------------- reads

    /// Point lookup: binary search at every level (all levels pay SCM
    /// latency — the cost Selective Persistence avoids).
    pub fn get(&self, key: &K::Owned) -> Option<u64> {
        let mut node = self.node(self.root_off());
        loop {
            node.touch_head();
            if node.is_leaf() {
                return node.find_exact::<K>(key).map(|(_, slot)| {
                    self.pool
                        .touch_read(node.key_off(slot), node.l.key_slot + 8);
                    node.value(slot)
                });
            }
            let (_, child) = node.route::<K>(key);
            node = self.node(child);
        }
    }

    /// True if present.
    pub fn contains(&self, key: &K::Owned) -> bool {
        self.get(key).is_some()
    }

    /// Inclusive range scan via the leaf list.
    pub fn range(&self, lo: &K::Owned, hi: &K::Owned) -> Vec<(K::Owned, u64)> {
        let mut out = Vec::new();
        if lo > hi {
            return out;
        }
        let mut node = self.node(self.root_off());
        loop {
            node.touch_head();
            if node.is_leaf() {
                break;
            }
            let (_, child) = node.route::<K>(lo);
            node = self.node(child);
        }
        loop {
            let mut past = false;
            for (slot, k) in node.sorted_entries::<K>() {
                if k > *hi {
                    past = true;
                    break;
                }
                if k >= *lo {
                    out.push((k, node.value(slot)));
                }
            }
            let next = node.next();
            if past || next.is_null() {
                break;
            }
            node = self.node(next.offset);
        }
        out
    }

    /// Ordered scan via the leaf list: up to `count` entries with keys
    /// `>= start`, in key order.
    pub fn scan_from(&self, start: &K::Owned, count: usize) -> Vec<(K::Owned, u64)> {
        let mut out = Vec::new();
        if count == 0 {
            return out;
        }
        let mut node = self.node(self.root_off());
        loop {
            node.touch_head();
            if node.is_leaf() {
                break;
            }
            let (_, child) = node.route::<K>(start);
            node = self.node(child);
        }
        loop {
            for (slot, k) in node.sorted_entries::<K>() {
                if k >= *start {
                    out.push((k, node.value(slot)));
                    if out.len() >= count {
                        return out;
                    }
                }
            }
            let next = node.next();
            if next.is_null() {
                return out;
            }
            node = self.node(next.offset);
        }
    }

    /// The pool this tree lives in.
    pub fn pool(&self) -> &Arc<PmemPool> {
        &self.pool
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    // ------------------------------------------------------------ writes

    /// Inserts; false if present. Full nodes on the path are split
    /// preemptively so the leaf insert is always a single-node commit.
    pub fn insert(&mut self, key: &K::Owned, value: u64) -> bool {
        self.split_root_if_full();
        let mut node = self.node(self.root_off());
        loop {
            if node.is_leaf() {
                break;
            }
            let (pos, child_off) = node.route::<K>(key);
            let child = self.node(child_off);
            if child.is_full() {
                self.split_child(node, pos, child);
                // Re-route: the split may have changed the target.
                let (_, child_off) = node.route::<K>(key);
                node = self.node(child_off);
            } else {
                node = child;
            }
        }
        if node.find_exact::<K>(key).is_some() {
            return false;
        }
        self.node_insert(node, key, value, true);
        self.len += 1;
        true
    }

    /// Updates an existing key in place (8-byte p-atomic value write).
    pub fn update(&mut self, key: &K::Owned, value: u64) -> bool {
        let mut node = self.node(self.root_off());
        loop {
            if node.is_leaf() {
                break;
            }
            let (_, child) = node.route::<K>(key);
            node = self.node(child);
        }
        match node.find_exact::<K>(key) {
            Some((_, slot)) => {
                node.set_value(slot, value);
                self.pool.persist(node.off + node.l.val_off(slot) as u64, 8);
                true
            }
            None => false,
        }
    }

    /// Removes; false if absent. Nodes are never merged.
    pub fn remove(&mut self, key: &K::Owned) -> bool {
        let mut node = self.node(self.root_off());
        loop {
            if node.is_leaf() {
                break;
            }
            let (_, child) = node.route::<K>(key);
            node = self.node(child);
        }
        let Some((pos, slot)) = node.find_exact::<K>(key) else {
            return false;
        };
        // In-node delete: new slot array, then p-atomic bitmap commit.
        let node_log = self.meta + M_NODE_LOG;
        self.pool.write_at(node_log, &self.pptr(node.off));
        self.pool.persist(node_log, 16);
        let mut slots: Vec<usize> = (0..node.count()).map(|i| node.slot(i)).collect();
        slots.remove(pos);
        node.write_slots(&slots);
        node.commit_bitmap(node.bitmap() & !(1 << slot));
        K::release_slot(&self.pool, node.key_off(slot));
        self.pool.write_at(node_log, &RawPPtr::NULL);
        self.pool.persist(node_log, 16);
        self.len -= 1;
        true
    }

    /// In-node insert (entry write → slot array → p-atomic bitmap commit).
    fn node_insert(&self, node: WNode<'_>, key: &K::Owned, value: u64, _is_leaf: bool) {
        let node_log = self.meta + M_NODE_LOG;
        self.pool.write_at(node_log, &self.pptr(node.off));
        self.pool.persist(node_log, 16);
        let slot = node
            .first_zero()
            .expect("preemptive split guarantees a free slot");
        K::write_slot(&self.pool, node.key_off(slot), key);
        node.set_value(slot, value);
        node.persist_entry(slot);
        let pos = node.search_pos::<K>(key);
        let mut slots: Vec<usize> = (0..node.count()).map(|i| node.slot(i)).collect();
        slots.insert(pos, slot);
        node.write_slots(&slots);
        node.commit_bitmap(node.bitmap() | (1 << slot));
        self.pool.write_at(node_log, &RawPPtr::NULL);
        self.pool.persist(node_log, 16);
    }

    /// If the root is full, installs a fresh root above it (micro-logged).
    fn split_root_if_full(&self) {
        let root = self.node(self.root_off());
        if !root.is_full() {
            return;
        }
        let root_log = self.meta + M_ROOT_LOG;
        let new_root_off = self.alloc_node(root_log, false);
        self.install_root(new_root_off, root.off);
        self.pool.write_at(root_log, &RawPPtr::NULL);
        self.pool.persist(root_log, 16);
        // Now split the old root under the new one.
        let new_root = self.node(new_root_off);
        let old = self.node(root.off);
        self.split_child(new_root, 0, old);
    }

    /// Points a fresh inner node at `old_root` and makes it the root.
    fn install_root(&self, new_root: u64, old_root: u64) {
        let n = self.node(new_root);
        // One entry: (max-key router = old root's max; but since it is the
        // only entry the router value is never compared — store the old
        // root's max so later splits keep order).
        // The single entry is the rightmost: its router is never compared,
        // so the old root's largest entry key is sufficient.
        let old = self.node(old_root);
        let last = old
            .sorted_entries::<K>()
            .pop()
            .expect("a full root has entries");
        let max = last.1;
        K::write_slot(&self.pool, n.key_off(0), &max);
        n.set_value(0, old_root);
        n.persist_entry(0);
        n.write_slots(&[0]);
        n.commit_bitmap(1);
        self.pool.write_at(self.meta + M_ROOT, &self.pptr(new_root));
        self.pool.persist(self.meta + M_ROOT, 16);
    }

    /// Splits full `child` (a child of `parent`): micro-logged sibling
    /// allocation, deterministic state-machine redo (Algorithm 3 adapted).
    fn split_child(&self, parent: WNode<'_>, _pos: usize, child: WNode<'_>) {
        let split_log = self.meta + M_SPLIT_LOG;
        self.pool.write_at(split_log, &self.pptr(child.off));
        self.pool.persist(split_log, 16);
        let new_off = self.alloc_node(split_log + 16, child.is_leaf());
        self.split_body(parent, child, new_off);
        self.pool.write_at(split_log, &RawPPtr::NULL);
        self.pool.write_at(split_log + 16, &RawPPtr::NULL);
        self.pool.persist(split_log, 32);
    }

    /// The split body. Steps, each individually committed so recovery can
    /// resume from the first incomplete one:
    ///
    /// 1. copy the upper half into the (unreachable) sibling, commit its
    ///    bitmap;
    /// 2. retarget the parent router that covered the child to the sibling
    ///    (one p-atomic child-pointer write — the old router key is the
    ///    subtree max, which the sibling now owns);
    /// 3. insert `(lower_max → child)` into the parent (in-node commit);
    /// 4. commit the child's halved bitmap, null dead key slots, link the
    ///    sibling into the leaf list.
    fn split_body(&self, parent: WNode<'_>, child: WNode<'_>, new_off: u64) {
        let new = self.node(new_off);
        let sorted = child.sorted_entries::<K>();
        let keep = sorted.len().div_ceil(2);
        // The last kept entry's key is always a correct separator: lower
        // keys route at-or-before it (so are ≤ it), upper keys after it.
        let lower_max = sorted[keep - 1].1.clone();

        // Step 1: sibling gets the upper half (fresh, compact entry area).
        if new.bitmap() == 0 {
            let mut new_slots = Vec::new();
            let mut new_bm = 0u64;
            for (i, (slot, _)) in sorted[keep..].iter().enumerate() {
                // Copy raw key-slot bytes (pointer copy for var keys).
                let mut kb = vec![0u8; child.l.key_slot];
                self.pool.read_bytes(child.key_off(*slot), &mut kb);
                self.pool.write_bytes(new.key_off(i), &kb);
                new.set_value(i, child.value(*slot));
                new.persist_entry(i);
                new_slots.push(i);
                new_bm |= 1 << i;
            }
            new.write_slots(&new_slots);
            new.set_next(child.next());
            new.commit_bitmap(new_bm);
        }

        // Steps 2–3: repair the parent routers.
        self.fix_parent_routers(parent, child.off, new_off, &lower_max);

        // Step 4: shrink the child and link the sibling.
        let keep_slots: Vec<usize> = sorted[..keep].iter().map(|(s, _)| *s).collect();
        let mut keep_bm = 0u64;
        for &s in &keep_slots {
            keep_bm |= 1 << s;
        }
        child.write_slots(&keep_slots);
        child.commit_bitmap(keep_bm);
        // Dead key slots in the child must not be double-freed (var keys).
        for slot in 0..child.l.cap {
            if keep_bm & (1 << slot) == 0 {
                K::reset_slot(&self.pool, child.key_off(slot));
            }
        }
        if child.is_leaf() {
            child.set_next(self.pptr(new_off));
        }
    }

    /// True maximum key of the subtree rooted at `off` (None if every leaf
    /// below is empty). Descends right-to-left so stale routers to empty
    /// leaves cannot inflate the result.
    fn subtree_true_max(&self, off: u64) -> Option<K::Owned> {
        let node = self.node(off);
        let entries = node.sorted_entries::<K>();
        if node.is_leaf() {
            return entries.into_iter().last().map(|(_, k)| k);
        }
        for (slot, _) in entries.into_iter().rev() {
            if let Some(m) = self.subtree_true_max(node.value(slot)) {
                return Some(m);
            }
        }
        None
    }

    /// Monotone router repair after a split. Final state: the parent holds
    /// `(lower_max → child)` plus an entry routing to the sibling whose key
    /// is the old router (always a valid separator against the right
    /// neighbour) — re-keyed up to the sibling's true max only when the old
    /// router was a stale rightmost-overflow catcher. Every step is
    /// individually committed and re-runnable from any crash state.
    fn fix_parent_routers(
        &self,
        parent: WNode<'_>,
        child_off: u64,
        sib_off: u64,
        lower_max: &K::Owned,
    ) {
        let find = |target: u64, key: Option<&K::Owned>| -> Option<(usize, usize)> {
            (0..parent.count())
                .map(|i| (i, parent.slot(i)))
                .find(|&(_, s)| {
                    parent.value(s) == target
                        && key.is_none_or(|k| K::slot_matches(&self.pool, parent.key_off(s), k))
                })
        };
        // Step A: ensure (lower_max → child).
        if find(child_off, Some(lower_max)).is_none() {
            self.node_insert(parent, lower_max, child_off, false);
        }
        // Step B: route the sibling. Retarget the old router if it still
        // points at the child.
        if find(sib_off, None).is_none() {
            let old = (0..parent.count())
                .map(|i| (i, parent.slot(i)))
                .find(|&(_, s)| {
                    parent.value(s) == child_off
                        && !K::slot_matches(&self.pool, parent.key_off(s), lower_max)
                });
            match old {
                Some((_, slot)) => {
                    parent.set_value(slot, sib_off);
                    self.pool
                        .persist(parent.off + parent.l.val_off(slot) as u64, 8);
                }
                None => {
                    // Crash window after a re-key delete: reinsert directly
                    // under the sibling's true max.
                    let m = self
                        .subtree_true_max(sib_off)
                        .unwrap_or_else(|| lower_max.clone());
                    self.node_insert(parent, &m, sib_off, false);
                }
            }
        }
        // Step C: the old router key may be a stale overflow catcher
        // (smaller than keys the sibling actually holds): re-key it to the
        // sibling's true max.
        if let Some((pos, slot)) = find(sib_off, None) {
            let current = K::read_slot(&self.pool, parent.key_off(slot));
            if let Some(true_max) = self.subtree_true_max(sib_off) {
                if true_max > current {
                    self.node_delete_at(parent, pos, slot);
                    self.node_insert(parent, &true_max, sib_off, false);
                }
            }
        }
    }

    /// In-node delete of the entry at slot-array position `pos` (slot
    /// `slot`), committed by the p-atomic bitmap write.
    fn node_delete_at(&self, node: WNode<'_>, pos: usize, slot: usize) {
        let node_log = self.meta + M_NODE_LOG;
        self.pool.write_at(node_log, &self.pptr(node.off));
        self.pool.persist(node_log, 16);
        let mut slots: Vec<usize> = (0..node.count()).map(|i| node.slot(i)).collect();
        slots.remove(pos);
        node.write_slots(&slots);
        node.commit_bitmap(node.bitmap() & !(1 << slot));
        K::release_slot(&self.pool, node.key_off(slot));
        self.pool.write_at(node_log, &RawPPtr::NULL);
        self.pool.persist(node_log, 16);
    }

    // ---------------------------------------------------------- recovery

    fn recover(&self) {
        // 1. Interrupted root installation: redo deterministically.
        let root_log: RawPPtr = self.pool.read_at(self.meta + M_ROOT_LOG);
        if !root_log.is_null() {
            let new_root = self.node(root_log.offset);
            if self.root_off() != root_log.offset {
                // Not installed yet: the old root is still current.
                let old_root = self.root_off();
                // Re-zero (the entry write may be partial) and redo.
                self.pool
                    .write_bytes(root_log.offset, &vec![0u8; self.inner_l.size]);
                self.pool.persist(root_log.offset, self.inner_l.size);
                new_root.set_leaf_flag(false);
                self.install_root(root_log.offset, old_root);
            }
            self.pool.write_at(self.meta + M_ROOT_LOG, &RawPPtr::NULL);
            self.pool.persist(self.meta + M_ROOT_LOG, 16);
        }

        // 2. Interrupted in-node modification: slot array may disagree with
        //    the committed bitmap — recompute it.
        let node_log: RawPPtr = self.pool.read_at(self.meta + M_NODE_LOG);
        if !node_log.is_null() {
            self.node(node_log.offset).rebuild_slots::<K>();
            self.pool.write_at(self.meta + M_NODE_LOG, &RawPPtr::NULL);
            self.pool.persist(self.meta + M_NODE_LOG, 16);
        }

        // 3. Interrupted split: resume the state machine or roll back.
        let split_cur: RawPPtr = self.pool.read_at(self.meta + M_SPLIT_LOG);
        let split_new: RawPPtr = self.pool.read_at(self.meta + M_SPLIT_LOG + 16);
        if !split_cur.is_null() && !split_new.is_null() {
            let child = self.node(split_cur.offset);
            // The sibling's layout flag may be half-written: force it.
            self.node_raw_flag(split_new.offset, child.is_leaf());
            let new = self.node(split_new.offset);
            if new.bitmap() == 0 {
                // Crashed before any entry moved: roll the split back.
                self.pool.deallocate(self.meta + M_SPLIT_LOG + 16);
            } else if child.is_full() {
                // Steps 2–4 may be pending: resume (split_body skips
                // whatever already happened).
                let parent = self
                    .find_parent_exhaustive(split_cur.offset, split_new.offset)
                    .expect("split child must have a parent");
                self.split_body(parent, child, split_new.offset);
            } else {
                // Child already halved (steps 1–3 done): redo the tail.
                let keep_bm = child.bitmap();
                child.rebuild_slots::<K>();
                for slot in 0..child.l.cap {
                    if keep_bm & (1 << slot) == 0 {
                        K::reset_slot(&self.pool, child.key_off(slot));
                    }
                }
                if child.is_leaf() {
                    child.set_next(self.pptr(split_new.offset));
                }
            }
        }
        if !split_cur.is_null() || !split_new.is_null() {
            self.pool.write_at(self.meta + M_SPLIT_LOG, &RawPPtr::NULL);
            self.pool
                .write_at(self.meta + M_SPLIT_LOG + 16, &RawPPtr::NULL);
            self.pool.persist(self.meta + M_SPLIT_LOG, 32);
        }
    }

    fn node_raw_flag(&self, off: u64, leaf: bool) {
        self.pool.write_word(off + 8, leaf as u64);
        self.pool.persist(off + 8, 8);
    }

    /// Exhaustive (BFS) search for the inner node holding a router to
    /// `child` or `sibling` — robust to any half-finished router state.
    fn find_parent_exhaustive(&self, child: u64, sibling: u64) -> Option<WNode<'_>> {
        let root = self.root_off();
        let mut queue = vec![root];
        while let Some(off) = queue.pop() {
            let node = self.node(off);
            if node.is_leaf() {
                continue;
            }
            for i in 0..node.count() {
                let v = node.value(node.slot(i));
                if v == child || v == sibling {
                    return Some(node);
                }
                queue.push(v);
            }
        }
        None
    }

    fn count_entries(&self) -> usize {
        let mut n = 0;
        let mut cur: RawPPtr = self.pool.read_at(self.meta + M_HEAD);
        while !cur.is_null() {
            let node = self.node(cur.offset);
            n += node.bitmap().count_ones() as usize;
            cur = node.next();
        }
        n
    }

    /// Structural consistency check (tests).
    pub fn check_consistency(&self) -> Result<(), String> {
        let mut prev: Option<K::Owned> = None;
        let mut cur: RawPPtr = self.pool.read_at(self.meta + M_HEAD);
        let mut total = 0;
        while !cur.is_null() {
            let node = self.node(cur.offset);
            if !node.is_leaf() {
                return Err("leaf list reached an inner node".into());
            }
            let entries = node.sorted_entries::<K>();
            if node.count() != entries.len() {
                return Err("slot count disagrees with bitmap".into());
            }
            for (i, (_, k)) in entries.iter().enumerate() {
                let want = node.slot(i);
                let have = entries[i].0;
                if want != have {
                    return Err("slot array out of order".into());
                }
                if let Some(p) = &prev {
                    if *k <= *p {
                        return Err("keys not globally sorted".into());
                    }
                }
                prev = Some(k.clone());
                if self.get(k).is_none() {
                    return Err("stored key unreachable from root".into());
                }
            }
            total += entries.len();
            cur = node.next();
        }
        if total != self.len {
            return Err(format!("len {} != entries {}", self.len, total));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fptree_pmem::{PoolOptions, ROOT_SLOT};
    use rand::prelude::*;

    fn pool(mb: usize) -> Arc<PmemPool> {
        Arc::new(PmemPool::create(PoolOptions::direct(mb << 20)).unwrap())
    }

    #[test]
    fn roundtrip_fixed() {
        let mut t = WBTreeFixed::create(pool(64), 8, 8, ROOT_SLOT);
        for i in 0..3000u64 {
            assert!(t.insert(&i, i * 2), "insert {i}");
        }
        assert!(!t.insert(&7, 0));
        assert_eq!(t.len(), 3000);
        for i in 0..3000u64 {
            assert_eq!(t.get(&i), Some(i * 2), "get {i}");
        }
        t.check_consistency().unwrap();
    }

    #[test]
    fn random_ops_match_model() {
        let mut t = WBTreeFixed::create(pool(64), 4, 4, ROOT_SLOT);
        let mut model = std::collections::BTreeMap::new();
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..10_000 {
            let k = rng.gen_range(0..1500u64);
            match rng.gen_range(0..4) {
                0 => {
                    let ins = t.insert(&k, k);
                    assert_eq!(ins, !model.contains_key(&k), "insert {k}");
                    if ins {
                        model.insert(k, k);
                    }
                }
                1 => {
                    let had = model.contains_key(&k);
                    if had {
                        model.insert(k, k + 9);
                    }
                    assert_eq!(t.update(&k, k + 9), had);
                }
                2 => assert_eq!(t.remove(&k), model.remove(&k).is_some()),
                _ => assert_eq!(t.get(&k), model.get(&k).copied()),
            }
        }
        assert_eq!(t.len(), model.len());
        t.check_consistency().unwrap();
        let scan = t.range(&300, &900);
        let expect: Vec<(u64, u64)> = model.range(300..=900).map(|(k, v)| (*k, *v)).collect();
        assert_eq!(scan, expect);
    }

    #[test]
    fn var_keys_roundtrip() {
        let mut t = WBTreeVar::create(pool(64), 8, 8, ROOT_SLOT);
        for i in 0..800u64 {
            assert!(t.insert(&format!("key:{i:05}").into_bytes(), i));
        }
        for i in 0..800u64 {
            assert_eq!(t.get(&format!("key:{i:05}").into_bytes()), Some(i));
        }
        for i in (0..800u64).step_by(2) {
            assert!(t.remove(&format!("key:{i:05}").into_bytes()));
        }
        assert_eq!(t.len(), 400);
        t.check_consistency().unwrap();
    }

    #[test]
    fn instant_recovery_after_clean_shutdown() {
        let p = Arc::new(PmemPool::create(PoolOptions::tracked(64 << 20)).unwrap());
        let mut t = WBTreeFixed::create(Arc::clone(&p), 8, 8, ROOT_SLOT);
        for i in 0..1000u64 {
            t.insert(&i, i + 1);
        }
        drop(t);
        let img = p.clean_image();
        let p2 = Arc::new(PmemPool::reopen(img, PoolOptions::tracked(0)).unwrap());
        let t2 = WBTreeFixed::open(Arc::clone(&p2), ROOT_SLOT);
        assert_eq!(t2.len(), 1000);
        for i in 0..1000u64 {
            assert_eq!(t2.get(&i), Some(i + 1));
        }
        t2.check_consistency().unwrap();
    }

    #[test]
    fn crash_recovery_committed_ops_survive() {
        for fuse in (0..150u64).step_by(5) {
            let p = Arc::new(PmemPool::create(PoolOptions::tracked(64 << 20)).unwrap());
            let committed = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
            let c2 = committed.clone();
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let mut t = WBTreeFixed::create(Arc::clone(&p), 4, 4, ROOT_SLOT);
                p.set_crash_fuse(Some(80 + fuse * 9));
                for i in 0..80u64 {
                    t.insert(&i, i);
                    c2.lock().unwrap().push(i);
                }
            }));
            p.set_crash_fuse(None);
            if r.is_ok() {
                continue;
            }
            assert!(fptree_pmem::crash_is_injected(r.unwrap_err().as_ref()));
            for seed in [2u64, 31] {
                let img = p.crash_image(seed);
                let p2 = Arc::new(PmemPool::reopen(img, PoolOptions::tracked(0)).unwrap());
                let t2 = WBTreeFixed::open(Arc::clone(&p2), ROOT_SLOT);
                t2.check_consistency()
                    .unwrap_or_else(|e| panic!("fuse {fuse} seed {seed}: {e}"));
                // Every insert whose call returned must be present.
                let done = committed.lock().unwrap();
                // The last recorded insert may be the one that crashed
                // mid-call (push happens after return, so all are safe).
                for &k in done.iter() {
                    assert_eq!(t2.get(&k), Some(k), "fuse {fuse} seed {seed}: lost {k}");
                }
            }
        }
    }
}
