//! The leaf-mutation kernel: everything a tree operation does *inside* one
//! leaf, written once for both tree variants (DESIGN.md §5.14).
//!
//! The paper presents its concurrent algorithms (Alg. 1–8) as the
//! single-threaded ones bracketed by a speculative section and a leaf lock.
//! This module is the bracketed part. It owns the append-buffer room rule,
//! the fold, split-then-place, the slot commit and the expected-value guard;
//! the trees ([`crate::single`], [`crate::concurrent`], [`crate::batch`])
//! own locating the leaf, locking it, choosing the micro-log, publishing a
//! split or an unlink into their own volatile index, and `len`. Every store
//! issued here runs under the calling operation's `begin_checked_op` window.
//!
//! Also here, because both trees and recovery share them: the micro-logged
//! structural primitives (`split_leaf`, `delete_leaf`, their replays), the
//! per-leaf leak audits, and the structural checker behind both
//! `check_consistency` implementations.

use std::collections::HashSet;
use std::sync::Arc;

use fptree_pmem::{PmemPool, RawPPtr};

use crate::api::Error;
use crate::config::TreeConfig;
use crate::groups::GroupMgr;
use crate::keys::KeyKind;
use crate::layout::LeafLayout;
use crate::leaf::Leaf;
use crate::meta::TreeMeta;
use crate::metrics::{Counter, Metrics, Op};

/// Shared immutable context: pool, configuration, layout, metadata handle,
/// and the tree's observability registry.
pub(crate) struct Ctx {
    pub pool: Arc<PmemPool>,
    pub cfg: TreeConfig,
    pub layout: LeafLayout,
    pub meta: TreeMeta,
    pub metrics: Arc<Metrics>,
}

impl Ctx {
    /// A context with a fresh metrics registry.
    pub fn new(pool: Arc<PmemPool>, cfg: TreeConfig, layout: LeafLayout, meta: TreeMeta) -> Ctx {
        Ctx {
            pool,
            cfg,
            layout,
            meta,
            metrics: Arc::new(Metrics::new()),
        }
    }

    #[inline]
    pub fn leaf(&self, off: u64) -> Leaf<'_> {
        Leaf::new(&self.pool, &self.layout, off)
    }

    #[inline]
    pub fn pptr(&self, off: u64) -> RawPPtr {
        RawPPtr::new(self.pool.file_id(), off)
    }

    pub fn zero_leaf(&self, off: u64) {
        let prior = self.leaf(off).version_word();
        self.pool.write_bytes(off, &vec![0u8; self.layout.size]);
        self.pool.persist(off, self.layout.size);
        // A recycled offset must never revalidate a version an optimistic
        // reader or scan anchor took against its previous contents: restart
        // the transient version word strictly above its old value
        // (offset-reuse ABA).
        self.leaf(off).restore_version_monotonic(prior);
        self.leaf(off).digest_store(&[], 0);
    }

    /// Validates a persistent pointer that is supposed to reference a leaf
    /// before it is dereferenced: 8-aligned with a whole leaf in bounds.
    pub(crate) fn check_leaf_ptr(&self, off: u64, what: &str) -> Result<(), Error> {
        if off == 0 || !off.is_multiple_of(8) || !self.pool.in_bounds(off, self.layout.size) {
            return Err(Error::corrupt(format!("{what} is not a leaf"), off));
        }
        Ok(())
    }

    /// Writes one KV into a leaf with a free slot and p-atomically commits
    /// it (the non-split insert path of Algorithm 2 / 14).
    fn insert_into_leaf<K: KeyKind>(&self, off: u64, key: &K::Owned, value: u64) {
        let leaf = self.leaf(off);
        let slot = leaf
            .first_zero_slot()
            .expect("insert_into_leaf requires a free slot");
        K::write_slot(&self.pool, leaf.key_off(slot), key);
        leaf.set_value(slot, value);
        if self.layout.fingerprints {
            leaf.set_fingerprint(slot, K::fingerprint(key));
        }
        leaf.persist_slot(slot);
        if self.layout.fingerprints {
            leaf.persist_fingerprint(slot);
        }
        // Commit point: before this p-atomic write the entry is invisible.
        leaf.commit_bitmap(leaf.bitmap() | (1 << slot));
    }

    /// In-place update (Algorithms 8 / 16): stage the new record in a free
    /// slot, then one p-atomic bitmap write retires the old slot and
    /// publishes the new one.
    fn update_in_leaf<K: KeyKind>(&self, off: u64, old_slot: usize, value: u64) {
        let leaf = self.leaf(off);
        let new_slot = leaf
            .first_zero_slot()
            .expect("update_in_leaf requires a free slot");
        // The key moves by copying the slot bytes: fixed keys copy the key
        // itself, variable keys copy the persistent pointer (no realloc).
        let mut slot_bytes = vec![0u8; self.layout.key_slot];
        self.pool
            .read_bytes(leaf.key_off(old_slot), &mut slot_bytes);
        self.pool.write_bytes(leaf.key_off(new_slot), &slot_bytes);
        leaf.set_value(new_slot, value);
        if self.layout.fingerprints {
            leaf.set_fingerprint(new_slot, leaf.fingerprint(old_slot));
        }
        leaf.persist_slot(new_slot);
        if self.layout.fingerprints {
            leaf.persist_fingerprint(new_slot);
        }
        let bm = (leaf.bitmap() & !(1 << old_slot)) | (1 << new_slot);
        leaf.commit_bitmap(bm);
        // The old slot no longer owns the key blob (Algorithm 16 line 16);
        // until this reset, recovery's audit resolves the shared reference.
        K::reset_slot(&self.pool, leaf.key_off(old_slot));
    }

    /// Splits a full leaf (Algorithm 3 + leaf groups), returning the split
    /// key (max of the lower half) and the new right leaf.
    pub fn split_leaf<K: KeyKind>(
        &self,
        groups: &mut GroupMgr,
        off: u64,
        log_idx: usize,
    ) -> (K::Owned, u64) {
        self.metrics.inc(Counter::LeafSplits);
        self.metrics.inc(Counter::LeafAllocs);
        let log = self.meta.split_log(log_idx);
        log.set_first(&self.pool, self.pptr(off));
        let new_off = groups.get_leaf(&self.pool, &self.layout, &self.meta, log.second_slot());
        let split_key = self.split_copy_commit::<K>(off, new_off);
        log.reset(&self.pool);
        (split_key, new_off)
    }

    /// The body of a leaf split, shared between the forward path and
    /// recovery redo (Algorithm 3 lines 6–14).
    fn split_copy_commit<K: KeyKind>(&self, old: u64, new: u64) -> K::Owned {
        // Splits only run on folded leaves (the write paths fold before
        // splitting), so the copied buffer region holds only dead entries.
        debug_assert_eq!(
            self.leaf(old).wbuf_count(),
            0,
            "split requires a folded buffer"
        );
        // Copy the entire leaf content, then persist it. The transient
        // tail of the head — lock word, reserved gap, buffer digest —
        // must not be copied: the new leaf starts unlocked and with the
        // digest of its (dead) buffer.
        let prior = self.leaf(new).version_word();
        let mut buf = vec![0u8; self.layout.size];
        self.pool.read_bytes(old, &mut buf);
        buf[self.layout.off_lock..self.layout.off_kv].fill(0);
        self.pool.write_bytes(new, &buf);
        self.pool.persist(new, self.layout.size);
        // The new offset may be recycled: versions taken in its previous
        // life must not validate against this one.
        self.leaf(new).restore_version_monotonic(prior);
        self.leaf(new).digest_store(&[], 0);

        // Choose the split: lower half stays, upper half moves.
        let old_leaf = self.leaf(old);
        let mut entries = old_leaf.collect_entries::<K>();
        entries.sort_by(|a, b| a.1.cmp(&b.1));
        let keep = entries.len().div_ceil(2);
        let split_key = entries[keep - 1].1.clone();
        let mut new_bm = 0u64;
        for (slot, _) in &entries[keep..] {
            new_bm |= 1 << slot;
        }
        self.leaf(new).commit_bitmap(new_bm);
        old_leaf.commit_bitmap(self.layout.full_bitmap() ^ new_bm);
        self.split_reset_dead_slots::<K>(old, new, new_bm);
        old_leaf.set_next(self.pptr(new));
        split_key
    }

    /// After a split, both leaves hold copies of every key slot; for
    /// variable-size keys the *invalid* copies must be persistently nulled
    /// so the recovery audit (Algorithm 17) can treat any non-null invalid
    /// slot as a same-leaf question.
    fn split_reset_dead_slots<K: KeyKind>(&self, old: u64, new: u64, new_bm: u64) {
        if !K::IS_VAR {
            return;
        }
        let old_leaf = self.leaf(old);
        let new_leaf = self.leaf(new);
        for slot in 0..self.layout.m {
            if new_bm & (1 << slot) != 0 {
                K::reset_slot(&self.pool, old_leaf.key_off(slot));
            } else {
                K::reset_slot(&self.pool, new_leaf.key_off(slot));
            }
        }
    }

    /// Replays split micro-log `log_idx` (Algorithm 4).
    pub fn recover_split<K: KeyKind>(&self, log_idx: usize) -> Result<(), Error> {
        let log = self.meta.split_log(log_idx);
        let cur = log.first(&self.pool);
        if cur.is_null() {
            log.reset_if_nonzero(&self.pool);
            return Ok(());
        }
        self.check_leaf_ptr(cur.offset, "split-log current pointer")?;
        let new = log.second(&self.pool);
        if new.is_null() {
            // Crashed before the new leaf was published: roll back.
            log.reset(&self.pool);
            return Ok(());
        }
        self.check_leaf_ptr(new.offset, "split-log new-leaf pointer")?;
        let old_leaf = self.leaf(cur.offset);
        if old_leaf.bitmap() == self.layout.full_bitmap() {
            // Crashed before the old bitmap was halved: redo everything
            // (FindSplitKey is deterministic, so this is idempotent).
            self.split_copy_commit::<K>(cur.offset, new.offset);
        } else {
            // Old bitmap already halved: redo the tail only.
            let new_bm = self.leaf(new.offset).bitmap();
            old_leaf.commit_bitmap(self.layout.full_bitmap() ^ new_bm);
            self.split_reset_dead_slots::<K>(cur.offset, new.offset, new_bm);
            old_leaf.set_next(self.pptr(new.offset));
        }
        log.reset(&self.pool);
        Ok(())
    }

    /// Unlinks (and frees) an empty leaf (Algorithm 6 + FreeLeaf).
    ///
    /// `groups = None` during recovery's cleanup walk: in group mode the
    /// leaf is simply left free-in-group (rediscovered by the group
    /// rebuild); without groups it is deallocated either way.
    pub fn delete_leaf(
        &self,
        groups: Option<&mut GroupMgr>,
        off: u64,
        prev: Option<u64>,
        log_idx: usize,
    ) {
        self.metrics.inc(Counter::LeafFrees);
        let log = self.meta.delete_log(log_idx);
        log.set_first(&self.pool, self.pptr(off));
        let next = self.leaf(off).next();
        if self.meta.head(&self.pool).offset == off {
            self.meta.set_head(&self.pool, next);
        } else {
            let prev = prev.expect("non-head leaf must have a predecessor");
            log.set_second(&self.pool, self.pptr(prev));
            self.leaf(prev).set_next(next);
        }
        match groups {
            Some(g) if g.enabled() => {
                g.free_leaf(&self.pool, &self.layout, &self.meta, off);
            }
            _ if self.cfg.leaf_group_size > 1 => {
                // Recovery cleanup in group mode: leave the leaf for the
                // group rebuild to reclaim.
            }
            _ => {
                self.pool.deallocate(log.first_slot());
            }
        }
        log.reset(&self.pool);
    }

    /// Replays delete micro-log `log_idx` (Algorithm 7).
    pub fn recover_delete(&self, log_idx: usize) -> Result<(), Error> {
        let log = self.meta.delete_log(log_idx);
        let cur = log.first(&self.pool);
        if cur.is_null() {
            log.reset_if_nonzero(&self.pool);
            return Ok(());
        }
        self.check_leaf_ptr(cur.offset, "delete-log current pointer")?;
        let prev = log.second(&self.pool);
        if !prev.is_null() {
            self.check_leaf_ptr(prev.offset, "delete-log predecessor pointer")?;
        }
        let head = self.meta.head(&self.pool);
        let group_mode = self.cfg.leaf_group_size > 1;
        let finish = |log: &crate::meta::PairLog| {
            if !group_mode {
                self.pool.deallocate(log.first_slot());
            }
            log.reset(&self.pool);
        };
        if !prev.is_null() {
            // Crashed between recording prev and finishing: redo the unlink.
            let next = self.leaf(cur.offset).next();
            self.leaf(prev.offset).set_next(next);
            finish(&log);
        } else if head.offset == cur.offset {
            // Head unlink not yet done.
            self.meta.set_head(&self.pool, self.leaf(cur.offset).next());
            finish(&log);
        } else if !head.is_null() && self.leaf(cur.offset).next().offset == head.offset {
            // Head already moved past us: only the free remained.
            finish(&log);
        } else {
            // Nothing structural happened: roll back. (The leaf may be
            // empty; the rebuild walk unlinks empty leaves.)
            log.reset(&self.pool);
        }
        Ok(())
    }

    /// Every key-slot reference the leaf currently owns: the valid slots
    /// plus the *live* append-buffer prefix (null for fixed-size keys' empty
    /// fields; callers filter as needed).
    pub fn owned_key_refs<K: KeyKind>(&self, off: u64) -> Vec<RawPPtr> {
        let leaf = self.leaf(off);
        let bm = leaf.bitmap();
        (0..self.layout.m)
            .filter(|s| bm & (1 << s) != 0)
            .map(|s| leaf.key_off(s))
            .chain((0..leaf.wbuf_count()).map(|i| leaf.wbuf_key_off(i)))
            .map(|key_off| K::slot_ref(&self.pool, key_off))
            .collect()
    }

    /// Resolves every non-null key field among `fields` — fields the leaf
    /// does *not* own: a duplicate of an owned reference is reset, an orphan
    /// blob is released, anything else rejects the image.
    fn audit_fields<K: KeyKind>(
        &self,
        off: u64,
        fields: impl Iterator<Item = u64>,
        what: &'static str,
    ) -> Result<(), Error> {
        let owned = self.owned_key_refs::<K>(off);
        for key_off in fields {
            if !K::slot_nonnull(&self.pool, key_off) {
                continue;
            }
            let r = K::slot_ref(&self.pool, key_off);
            if owned.contains(&r) {
                K::reset_slot(&self.pool, key_off);
            } else if self.pool.looks_like_block(r) {
                K::release_slot(&self.pool, key_off);
            } else {
                // A stale pointer that was never a live allocation: freeing
                // it would corrupt the allocator, so reject the image.
                return Err(Error::corrupt(what, r.offset));
            }
        }
        Ok(())
    }

    /// Leak audit for one leaf (Algorithm 17): every invalid slot must hold
    /// a null key pointer; a non-null one is either a duplicate of a key the
    /// leaf owns (interrupted update, or a fold interrupted after staging a
    /// still-live buffered blob → reset) or an orphan blob (interrupted
    /// insert/delete → deallocate).
    pub fn audit_leaf<K: KeyKind>(&self, off: u64) -> Result<(), Error> {
        if !K::IS_VAR {
            return Ok(());
        }
        let leaf = self.leaf(off);
        let bm = leaf.bitmap();
        let dead = (0..self.layout.m).filter(|s| bm & (1 << s) == 0);
        self.audit_fields::<K>(
            off,
            dead.map(|s| leaf.key_off(s)),
            "orphan key blob pointer",
        )
    }

    /// Leak audit for a leaf's *dead* append-buffer entries — those past
    /// the live prefix. A dead entry's key field is either null, a
    /// duplicate of an owned blob (folded winner whose zeroing crashed →
    /// reset), or an orphan blob from a crashed append (allocated, but the
    /// entry publish never landed → release).
    pub fn audit_wbuf<K: KeyKind>(&self, off: u64) -> Result<(), Error> {
        if !K::IS_VAR || self.layout.wbuf_entries == 0 {
            return Ok(());
        }
        let leaf = self.leaf(off);
        let entries = leaf.wbuf_count()..self.layout.wbuf_entries;
        self.audit_fields::<K>(
            off,
            entries.map(|i| leaf.wbuf_key_off(i)),
            "orphan buffer blob pointer",
        )
    }

    /// Allocator-vs-tree agreement (quiescent state only): every live block
    /// must be the metadata block, one of `leaf_blocks` (the allocations
    /// that hold the leaves), or a key blob owned by a valid slot or a live
    /// append-buffer entry — and no blob may be owned twice.
    pub fn leak_audit<K: KeyKind>(
        &self,
        leaf_blocks: impl IntoIterator<Item = u64>,
    ) -> Result<(), String> {
        let live = self.pool.live_blocks().map_err(|e| e.to_string())?;
        let mut expected: HashSet<u64> = HashSet::from([self.meta.off]);
        expected.extend(leaf_blocks);
        if K::IS_VAR {
            for off in self.leaf_offsets() {
                for r in self.owned_key_refs::<K>(off) {
                    if !r.is_null() && !expected.insert(r.offset) {
                        return Err(format!("key blob at {:#x} owned twice", r.offset));
                    }
                }
            }
        }
        for (off, _) in &live {
            if !expected.contains(off) {
                return Err(format!("leaked block at {off:#x}"));
            }
        }
        if expected.len() != live.len() {
            return Err(format!(
                "tree references {} blocks but only {} are live",
                expected.len(),
                live.len()
            ));
        }
        Ok(())
    }

    /// Leaf offsets in list order (quiescent contexts: tests, audits, stats).
    pub fn leaf_offsets(&self) -> Vec<u64> {
        let mut offs = Vec::new();
        let mut cur = self.meta.head(&self.pool);
        while !cur.is_null() {
            offs.push(cur.offset);
            cur = self.leaf(cur.offset).next();
        }
        offs
    }

    /// Structural consistency check behind both trees' `check_consistency`
    /// (quiescent state only): no leaf left locked or empty-but-linked,
    /// slots hold distinct keys whose fingerprints agree, the buffer never
    /// overcommits the slot array and its digest (where one verifies)
    /// counts what the checksum walk counts, the chain is sorted, no dead
    /// slot or dead buffer entry still references a key blob,
    /// `routes_to(key, leaf)` holds for every stored key, and the stored
    /// entries add up to `len`.
    pub fn check_leaf_chain<K: KeyKind>(
        &self,
        len: usize,
        routes_to: impl Fn(&K::Owned, u64) -> bool,
    ) -> Result<(), String> {
        let offs = self.leaf_offsets();
        let mut prev_max: Option<K::Owned> = None;
        let mut total = 0usize;
        for (i, &off) in offs.iter().enumerate() {
            let leaf = self.leaf(off);
            if leaf.version().is_none() {
                return Err(format!("leaf {i} left locked"));
            }
            let slot_entries = leaf.collect_entries::<K>();
            // Merged view: distinct buffered keys (newest wins) + slots.
            let merged = leaf.collect_merged::<K>();
            if merged.is_empty() && offs.len() > 1 {
                return Err(format!("leaf {i} is empty but linked"));
            }
            total += merged.len();
            let mut keys: Vec<&K::Owned> = slot_entries.iter().map(|(_, k)| k).collect();
            keys.sort();
            keys.dedup();
            if keys.len() != slot_entries.len() {
                return Err(format!("leaf {i} holds duplicate keys"));
            }
            for (slot, k) in &slot_entries {
                if self.layout.fingerprints && leaf.fingerprint(*slot) != K::fingerprint(k) {
                    return Err(format!("leaf {i} slot {slot}: fingerprint mismatch"));
                }
                if K::IS_VAR && K::slot_ref(&self.pool, leaf.key_off(*slot)).is_null() {
                    return Err(format!("leaf {i} slot {slot}: valid slot with null key"));
                }
            }
            let (count, live) = (leaf.count(), leaf.wbuf_count());
            if leaf.wbuf_view().live != live {
                return Err(format!(
                    "leaf {i}: buffer digest disagrees with the {live} live entries"
                ));
            }
            if count + live > self.layout.m {
                return Err(format!(
                    "leaf {i}: {count} slots + {live} buffered exceed capacity (fold invariant)"
                ));
            }
            for (k, _) in &merged {
                if !routes_to(k, off) {
                    return Err(format!("index routes a key of leaf {i} elsewhere"));
                }
                if prev_max.as_ref().is_some_and(|pm| k <= pm) {
                    return Err(format!("leaf {i}: key order violates list order"));
                }
            }
            if let Some(max) = merged.iter().map(|(k, _)| k).max() {
                prev_max = Some(max.clone());
            }
            if K::IS_VAR {
                let bm = leaf.bitmap();
                for slot in 0..self.layout.m {
                    if bm & (1 << slot) == 0 && K::slot_nonnull(&self.pool, leaf.key_off(slot)) {
                        return Err(format!("leaf {i} slot {slot}: dead slot references a key"));
                    }
                }
                for e in live..self.layout.wbuf_entries {
                    if K::slot_nonnull(&self.pool, leaf.wbuf_key_off(e)) {
                        return Err(format!(
                            "leaf {i} entry {e}: dead buffer entry references a key"
                        ));
                    }
                }
            }
        }
        if total != len {
            return Err(format!("len {len} != stored entries {total}"));
        }
        Ok(())
    }
}

/// What a single-key write does to an existing or absent key.
#[derive(Clone, Copy)]
pub(crate) enum WriteMode {
    /// Add the key; a present key is left untouched.
    Insert,
    /// Replace a present key's value — only if it still equals `expected`
    /// when that is `Some`.
    Update { expected: Option<u64> },
}

impl WriteMode {
    /// The latency histogram this write is timed under.
    pub fn op(self) -> Op {
        match self {
            WriteMode::Insert => Op::Insert,
            WriteMode::Update { .. } => Op::Update,
        }
    }

    /// The checked-operation label of this write.
    pub fn label(self) -> &'static str {
        match self {
            WriteMode::Insert => "insert",
            WriteMode::Update { .. } => "update",
        }
    }
}

/// Outcome of [`Ctx::write_one`].
pub(crate) struct Written<K: KeyKind> {
    /// False when the mode's precondition failed (nothing was written).
    pub applied: bool,
    /// `(split_key, new_right_leaf)` when the leaf split; the caller
    /// publishes it into its index before releasing the leaf.
    pub split: Option<(K::Owned, u64)>,
}

/// Outcome of [`Ctx::remove_one`].
pub(crate) struct Removed {
    /// False when the key was absent or failed the value guard.
    pub removed: bool,
    /// The removal cleared the leaf's last entry; the caller unlinks it
    /// (unless it is the tree's only leaf).
    pub emptied: bool,
}

/// Outcome of [`Ctx::insert_run`].
pub(crate) struct RunInserted<K: KeyKind> {
    /// Length of the run prefix that was decided (inserted or found
    /// present); the rest re-routes through the caller's index.
    pub consumed: usize,
    /// Newly inserted keys among the consumed prefix.
    pub inserted: usize,
    /// As [`Written::split`].
    pub split: Option<(K::Owned, u64)>,
}

/// Outcome of [`Ctx::remove_run`].
pub(crate) struct RunRemoved {
    /// Keys cleared from the leaf.
    pub removed: usize,
    /// As [`Removed::emptied`].
    pub emptied: bool,
    /// Index (into the run) of the present key that was *not* removed
    /// because `keep_one` forbade emptying the leaf.
    pub held_back: Option<usize>,
}

/// True if the key is present (`newest` is its newest value) and — when
/// `expected` is `Some` — that value equals it.
fn guard_holds(newest: Option<u64>, expected: Option<u64>) -> bool {
    newest.is_some_and(|v| expected.is_none_or(|e| e == v))
}

/// The leaf-local half of every mutating operation. Callers hold the leaf
/// exclusively (`&mut` tree or the leaf's version lock) and an open
/// checked-operation window; `split` is the caller's micro-logged
/// [`Ctx::split_leaf`] (it picks the log slot and the leaf source).
impl Ctx {
    /// Inserts or updates one key: probe → buffer room? append : fold →
    /// (full? split, place in the covering half) → slot commit.
    pub fn write_one<K: KeyKind>(
        &self,
        off: u64,
        key: &K::Owned,
        value: u64,
        mode: WriteMode,
        split: impl FnOnce(u64) -> (K::Owned, u64),
    ) -> Written<K> {
        let leaf = self.leaf(off);
        let view = leaf.wbuf_view();
        let live = view.live;
        // The key's newest value: the one merged probe every lookup runs.
        let newest = leaf.find_merged::<K>(key, &view);
        let (applies, miss) = match mode {
            WriteMode::Insert => (newest.is_none(), Counter::InsertExisting),
            WriteMode::Update { expected } => {
                (guard_holds(newest, expected), Counter::UpdateMisses)
            }
        };
        if !applies {
            self.metrics.inc(miss);
            return Written {
                applied: false,
                split: None,
            };
        }
        let done = Written {
            applied: true,
            split: None,
        };
        // Fast path (§5.12): one p-atomic entry publish instead of the slot
        // + fingerprint + bitmap persist sequence; for an update the newest
        // entry shadows older entries and the slot copy. The room rule keeps
        // `count + live <= m`, so a later fold never needs a split.
        //
        // Not for updates of variable-size keys: the entry would need a
        // second key blob (an allocation now, a deallocation at the fold —
        // several times the lines of the whole slot commit), while the slot
        // path just moves the existing blob's pointer (Algorithm 16).
        let appends = !(K::IS_VAR && matches!(mode, WriteMode::Update { .. }));
        if appends && live < self.layout.wbuf_entries && leaf.count() + live < self.layout.m {
            leaf.wbuf_append::<K>(live, key, value);
            return done;
        }
        if live > 0 {
            leaf.wbuf_fold::<K>();
            if appends && leaf.count() < self.layout.m {
                leaf.wbuf_append::<K>(0, key, value);
                return done;
            }
        }
        // Slot path: the buffer is empty (or absent). An insert with a
        // buffer only gets here on a full leaf, i.e. always through the
        // split.
        let (target, split) = if leaf.is_full() {
            let (split_key, new_off) = split(off);
            let target = if *key > split_key { new_off } else { off };
            (target, Some((split_key, new_off)))
        } else {
            (off, None)
        };
        match mode {
            // Both split halves start with an empty buffer (the fold above
            // emptied the old leaf's; the copy's entries are dead under the
            // copied generation).
            WriteMode::Insert if self.layout.wbuf_entries > 0 => {
                self.leaf(target).wbuf_append::<K>(0, key, value)
            }
            WriteMode::Insert => self.insert_into_leaf::<K>(target, key, value),
            WriteMode::Update { .. } => {
                let slot = self
                    .leaf(target)
                    .find_slot::<K>(key)
                    .expect("a folded key occupies a slot and survives its leaf's split");
                self.update_in_leaf::<K>(target, slot, value);
            }
        }
        Written {
            applied: true,
            split,
        }
    }

    /// Removes one key — only if its newest value equals `expected` when
    /// that is `Some`. Folds first: buffer entries cannot be retired
    /// individually (the live prefix must stay contiguous), and a buffered
    /// value would shadow the slot removal.
    pub fn remove_one<K: KeyKind>(
        &self,
        off: u64,
        key: &K::Owned,
        expected: Option<u64>,
    ) -> Removed {
        let leaf = self.leaf(off);
        let view = leaf.wbuf_view();
        let newest = leaf.find_merged::<K>(key, &view);
        if !guard_holds(newest, expected) {
            self.metrics.inc(Counter::RemoveMisses);
            return Removed {
                removed: false,
                emptied: false,
            };
        }
        if view.live > 0 {
            leaf.wbuf_fold::<K>();
        }
        let slot = leaf
            .find_slot::<K>(key)
            .expect("folded key must occupy a slot");
        let bm = leaf.bitmap() & !(1 << slot);
        leaf.commit_bitmap(bm);
        K::release_slot(&self.pool, leaf.key_off(slot));
        Removed {
            removed: true,
            emptied: bm == 0,
        }
    }

    /// Stages `run` — sorted unique keys, none currently in the leaf, all
    /// fitting its free slots — and commits the whole run with **one**
    /// p-atomic bitmap write. Staged slot/fingerprint spans are flushed
    /// with coalesced `persist` calls before the commit, so the checker
    /// sees the canonical store → flush → publish → flush pattern.
    fn stage_run<K: KeyKind>(&self, off: u64, run: &[(K::Owned, u64)]) {
        if run.is_empty() {
            return;
        }
        let leaf = self.leaf(off);
        let mut bm = leaf.bitmap();
        let mut free = !bm & self.layout.full_bitmap();
        debug_assert!(run.len() <= free.count_ones() as usize);
        let mut slots = Vec::with_capacity(run.len());
        for (key, value) in run {
            let slot = free.trailing_zeros() as usize;
            free &= free - 1;
            K::write_slot(&self.pool, leaf.key_off(slot), key);
            leaf.set_value(slot, *value);
            if self.layout.fingerprints {
                leaf.set_fingerprint(slot, K::fingerprint(key));
            }
            bm |= 1 << slot;
            slots.push(slot);
        }
        leaf.persist_slots(&slots);
        if self.layout.fingerprints {
            leaf.persist_fingerprints(&slots);
        }
        // Commit point: every staged entry becomes valid at once.
        leaf.commit_bitmap(bm);
        self.metrics.inc(Counter::InsertBatchRuns);
        self.metrics.add(Counter::InsertBatchKeys, run.len() as u64);
    }

    /// Applies `run` — sorted unique entries all routing to this leaf —
    /// with one commit per touched leaf: skips present keys, stages the
    /// fresh ones that fit, and splits a full leaf at most once (both
    /// halves are staged before the caller publishes the split). Fresh
    /// keys are taken strictly as a prefix: the first one without room
    /// ends the run, and the caller re-routes the rest.
    pub fn insert_run<K: KeyKind>(
        &self,
        off: u64,
        run: &[(K::Owned, u64)],
        split: impl FnOnce(u64) -> (K::Owned, u64),
    ) -> RunInserted<K> {
        let leaf = self.leaf(off);
        // Staged runs reason about free slots and present keys from the
        // slot array alone, so the append buffer is compacted first (§5.12).
        leaf.wbuf_fold::<K>();
        let present: Vec<bool> = run
            .iter()
            .map(|(k, _)| leaf.find_slot::<K>(k).is_some())
            .collect();
        let fresh = present.iter().filter(|p| !**p).count();
        // Room per half, `[lower, upper]`. Only an overflowing *full* leaf
        // splits (`split_leaf` requires one); an overflowing leaf with room
        // is topped up first and splits on the caller's next round. Each
        // half of a split keeps at least ⌊m/2⌋ free slots (m ≥ 2).
        let mut room = [self.layout.m - leaf.count(), 0];
        let mut halves = None;
        if fresh > 0 && room[0] == 0 {
            let (split_key, new_off) = split(off);
            room = [
                self.layout.m - leaf.count(),
                self.layout.m - self.leaf(new_off).count(),
            ];
            halves = Some((split_key, new_off));
        }
        let mut take: [Vec<(K::Owned, u64)>; 2] = [Vec::new(), Vec::new()];
        let mut consumed = 0;
        for (idx, entry) in run.iter().enumerate() {
            if !present[idx] {
                let upper = halves.as_ref().is_some_and(|(sk, _)| entry.0 > *sk) as usize;
                if room[upper] == 0 {
                    break;
                }
                room[upper] -= 1;
                take[upper].push(entry.clone());
            }
            consumed = idx + 1;
        }
        assert!(
            consumed > 0,
            "insert_batch: split produced no free slot (leaf capacity 1)"
        );
        self.stage_run::<K>(off, &take[0]);
        if let Some((_, new_off)) = &halves {
            self.stage_run::<K>(*new_off, &take[1]);
        }
        let inserted = take[0].len() + take[1].len();
        self.metrics
            .add(Counter::InsertExisting, (consumed - inserted) as u64);
        RunInserted {
            consumed,
            inserted,
            split: halves,
        }
    }

    /// Clears every present key of `run` (sorted, unique, all routing to
    /// this leaf) with **one** p-atomic bitmap write, then releases the key
    /// slots. With `keep_one`, a run that would empty the leaf holds back
    /// its last present key — for callers that cannot unlink under the
    /// leaf lock alone.
    pub fn remove_run<K: KeyKind>(&self, off: u64, run: &[K::Owned], keep_one: bool) -> RunRemoved {
        let leaf = self.leaf(off);
        // Fold first: the probes and the emptied-leaf decision are only
        // correct against slot-only state.
        leaf.wbuf_fold::<K>();
        let mut found: Vec<(usize, usize)> = run
            .iter()
            .enumerate()
            .filter_map(|(i, k)| leaf.find_slot::<K>(k).map(|slot| (i, slot)))
            .collect();
        self.metrics
            .add(Counter::RemoveMisses, (run.len() - found.len()) as u64);
        let mut held_back = None;
        if keep_one && found.len() == leaf.count() {
            held_back = found.pop().map(|(i, _)| i);
        }
        let mut bm = leaf.bitmap();
        if !found.is_empty() {
            for &(_, slot) in &found {
                bm &= !(1 << slot);
            }
            leaf.commit_bitmap(bm);
            for &(_, slot) in &found {
                K::release_slot(&self.pool, leaf.key_off(slot));
            }
            self.metrics.inc(Counter::RemoveBatchRuns);
            self.metrics
                .add(Counter::RemoveBatchKeys, found.len() as u64);
        }
        RunRemoved {
            removed: found.len(),
            emptied: !found.is_empty() && bm == 0,
            held_back,
        }
    }
}
