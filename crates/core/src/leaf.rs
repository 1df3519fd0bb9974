//! Typed accessors over a leaf node stored in SCM.
//!
//! A [`Leaf`] borrows the pool, the layout, and the leaf's base offset and
//! exposes the paper's leaf fields (Figure 2): the p-atomic validity bitmap,
//! the fingerprint array, the persistent `next` pointer, the transient lock
//! byte, and the KV slots. Methods never persist implicitly — the tree
//! algorithms call `persist` exactly where the paper does, which is what the
//! crash-consistency tests verify.

use std::sync::atomic::{AtomicU8, Ordering};

use fptree_pmem::{PmemPool, RawPPtr, CACHE_LINE};

use crate::fingerprint::fp_match_mask;
use crate::keys::KeyKind;
use crate::layout::LeafLayout;

/// A view over one leaf node in persistent memory.
#[derive(Clone, Copy)]
pub struct Leaf<'a> {
    /// The pool holding the leaf.
    pub pool: &'a PmemPool,
    /// Node layout the leaf was written with.
    pub layout: &'a LeafLayout,
    /// Base offset of the leaf in the pool.
    pub off: u64,
}

impl<'a> Leaf<'a> {
    /// Creates a view; `off` must reference a leaf laid out by `layout`.
    #[inline]
    pub fn new(pool: &'a PmemPool, layout: &'a LeafLayout, off: u64) -> Self {
        Leaf { pool, layout, off }
    }

    // ------------------------------------------------------------- bitmap

    /// Reads the validity bitmap.
    #[inline]
    pub fn bitmap(&self) -> u64 {
        self.pool
            .read_word(self.off + self.layout.off_bitmap as u64)
    }

    /// P-atomically writes and persists the bitmap — the commit point of
    /// every leaf modification. Also advances the transient version word,
    /// so cached records *about* this leaf (successor sentinels) stop
    /// validating.
    #[inline]
    pub fn commit_bitmap(&self, bm: u64) {
        let off = self.off + self.layout.off_bitmap as u64;
        self.pool.write_publish_word(off, bm);
        self.pool.persist(off, 8);
        self.version_bump();
    }

    /// Number of valid entries.
    #[inline]
    pub fn count(&self) -> usize {
        self.bitmap().count_ones() as usize
    }

    /// True when every slot is occupied.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.bitmap() == self.layout.full_bitmap()
    }

    /// Index of the first free slot, if any.
    #[inline]
    pub fn first_zero_slot(&self) -> Option<usize> {
        let free = !self.bitmap() & self.layout.full_bitmap();
        if free == 0 {
            None
        } else {
            Some(free.trailing_zeros() as usize)
        }
    }

    // -------------------------------------------------------- fingerprints

    /// Reads one fingerprint (layout must have fingerprints).
    #[inline]
    pub fn fingerprint(&self, slot: usize) -> u8 {
        debug_assert!(self.layout.fingerprints);
        self.pool
            .read_at(self.off + (self.layout.off_fps + slot) as u64)
    }

    /// Writes one fingerprint (not persisted: flushed with the KV slot).
    #[inline]
    pub fn set_fingerprint(&self, slot: usize, fp: u8) {
        debug_assert!(self.layout.fingerprints);
        self.pool
            .write_at(self.off + (self.layout.off_fps + slot) as u64, &fp);
    }

    /// Persists the fingerprint byte of `slot`.
    #[inline]
    pub fn persist_fingerprint(&self, slot: usize) {
        self.pool
            .persist(self.off + (self.layout.off_fps + slot) as u64, 1);
    }

    /// Copies the whole fingerprint array into `buf` (length ≥ m).
    #[inline]
    pub fn read_fingerprints(&self, buf: &mut [u8]) {
        debug_assert!(self.layout.fingerprints);
        self.pool.read_bytes(
            self.off + self.layout.off_fps as u64,
            &mut buf[..self.layout.m],
        );
    }

    // ---------------------------------------------------------------- next

    /// Reads the persistent next pointer.
    #[inline]
    pub fn next(&self) -> RawPPtr {
        self.pool.read_at(self.off + self.layout.off_next as u64)
    }

    /// Writes and persists the next pointer.
    #[inline]
    pub fn set_next(&self, next: RawPPtr) {
        let off = self.off + self.layout.off_next as u64;
        self.pool.write_publish_at(off, &next);
        self.pool.persist(off, 16);
    }

    // ---------------------------------------------------------------- lock

    /// The transient lock byte as an atomic (never persisted; recovery
    /// resets it).
    #[inline]
    pub fn lock_ref(&self) -> &AtomicU8 {
        self.pool.atomic_u8(self.off + self.layout.off_lock as u64)
    }

    /// Attempts to take the leaf lock (0 → 1).
    #[inline]
    pub fn try_lock(&self) -> bool {
        self.lock_ref()
            .compare_exchange(0, 1, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
    }

    /// True if some thread holds the leaf lock.
    #[inline]
    pub fn is_locked(&self) -> bool {
        self.lock_ref().load(Ordering::Acquire) != 0
    }

    /// Releases the leaf lock.
    #[inline]
    pub fn unlock(&self) {
        self.lock_ref().store(0, Ordering::Release);
    }

    /// Forces the lock word to zero (recovery resets all leaf locks).
    #[inline]
    pub fn reset_lock(&self) {
        self.vlock_ref().store(0, Ordering::Relaxed);
    }

    // ----------------------------------------------------- version lock
    //
    // The concurrent tree uses the 8-byte lock field as a per-leaf
    // *sequence lock*: even = unlocked, odd = a writer holds the leaf.
    // Optimistic readers snapshot an even version and re-check it after
    // reading — our emulation of TSX detecting a conflicting leaf-lock
    // write in the reader's read set (§5: "if many threads try to write
    // the same lock, only one will succeed and the others will be
    // aborted"). Like the paper's lock byte, it is transient: never
    // persisted deliberately, reset on recovery.

    /// The 8-byte transient version-lock word.
    #[inline]
    pub fn vlock_ref(&self) -> &std::sync::atomic::AtomicU64 {
        self.pool.atomic_u64(self.off + self.layout.off_lock as u64)
    }

    /// Snapshot for an optimistic leaf read: `Some(version)` if unlocked.
    #[inline]
    pub fn version(&self) -> Option<u64> {
        let v = self.vlock_ref().load(Ordering::Acquire);
        (v & 1 == 0).then_some(v)
    }

    /// True if the version moved (or a writer holds the leaf) since `v`.
    #[inline]
    pub fn version_changed(&self, v: u64) -> bool {
        std::sync::atomic::fence(Ordering::Acquire);
        self.vlock_ref().load(Ordering::Acquire) != v
    }

    /// Attempts to lock the leaf given its observed unlocked version.
    #[inline]
    pub fn try_lock_version(&self, v: u64) -> bool {
        self.vlock_ref()
            .compare_exchange(v, v + 1, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
    }

    /// Releases a version lock, publishing the new leaf state.
    #[inline]
    pub fn unlock_version(&self) {
        self.vlock_ref().fetch_add(1, Ordering::Release);
    }

    /// Advances the version word by a full even step (parity-preserving).
    /// Every leaf commit point calls this so that transient records taken
    /// *about* this leaf — the successor sentinels below — self-invalidate:
    /// the version they captured no longer matches.
    #[inline]
    pub fn version_bump(&self) {
        self.vlock_ref().fetch_add(2, Ordering::Release);
    }

    /// Raw snapshot of the version word, any parity — the `prior` input of
    /// [`Leaf::restore_version_monotonic`].
    #[inline]
    pub fn version_word(&self) -> u64 {
        self.vlock_ref().load(Ordering::Acquire)
    }

    /// Re-initializes the version word of a recycled or rewritten leaf to
    /// an even value strictly greater than `prior`, so sentinel records
    /// taken against the old contents can never validate against the new
    /// ones (offset-reuse ABA).
    #[inline]
    pub fn restore_version_monotonic(&self, prior: u64) {
        self.vlock_ref()
            .store((prior | 1).wrapping_add(1), Ordering::Release);
    }

    // ------------------------------------------------------------ sentinel
    //
    // Transient successor sentinel (Boosting-with-Sentinels adapted to the
    // FPTree leaf chain): four 8-byte words after the lock word caching
    // `(succ_min_prefix, succ_off, succ_version, checksummed tag)` — the
    // successor leaf's minimum key as an order-preserving 8-byte prefix,
    // plus enough identity to detect staleness. A failed lookup whose key
    // provably orders at or beyond the successor's minimum returns without
    // touching any SCM-resident key or fingerprint line; scan hops use the
    // same record to skip re-seeks. Like the lock word the region is pure
    // scratch: accessed only through atomics, never persisted deliberately,
    // wiped by recovery. A record is a *hint* — every read revalidates the
    // checksum, the live next pointer, and the successor's version word, so
    // a stale or torn record degrades to a normal probe, never a wrong
    // answer.

    /// Transient sentinel word `i` (0..4) as an atomic.
    #[inline]
    fn sentinel_word(&self, i: usize) -> &std::sync::atomic::AtomicU64 {
        debug_assert!(i < 4);
        self.pool
            .atomic_u64(self.off + (self.layout.off_sentinel + 8 * i) as u64)
    }

    /// Checksummed tag over a sentinel record; bit 0 is always set so a
    /// zeroed region reads as "no record".
    fn sentinel_tag(enc: u64, succ_off: u64, succ_ver: u64) -> u64 {
        #[inline]
        fn mix(h: u64, v: u64) -> u64 {
            let x = (h ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            x ^ (x >> 32)
        }
        mix(mix(mix(0xC0FF_EE11, enc), succ_off), succ_ver) | 1
    }

    /// Publishes a sentinel record: the successor at `succ_off` (this
    /// leaf's current `next`) had minimum-key prefix `enc` while its
    /// version word read `succ_ver` (even). Racing stores may interleave
    /// fields; the checksum makes any mixed record read as invalid.
    pub fn sentinel_store(&self, enc: u64, succ_off: u64, succ_ver: u64) {
        let tag = self.sentinel_word(3);
        tag.store(0, Ordering::Relaxed);
        self.sentinel_word(0).store(enc, Ordering::Relaxed);
        self.sentinel_word(1).store(succ_off, Ordering::Relaxed);
        self.sentinel_word(2).store(succ_ver, Ordering::Relaxed);
        tag.store(
            Self::sentinel_tag(enc, succ_off, succ_ver),
            Ordering::Release,
        );
    }

    /// Drops any sentinel record (chain surgery: split, unlink, recovery).
    #[inline]
    pub fn sentinel_clear(&self) {
        self.sentinel_word(3).store(0, Ordering::Release);
    }

    /// Reads the raw record if its checksum validates.
    fn sentinel_read(&self) -> Option<(u64, u64, u64)> {
        let tag = self.sentinel_word(3).load(Ordering::Acquire);
        if tag == 0 {
            return None;
        }
        let enc = self.sentinel_word(0).load(Ordering::Relaxed);
        let succ_off = self.sentinel_word(1).load(Ordering::Relaxed);
        let succ_ver = self.sentinel_word(2).load(Ordering::Relaxed);
        (tag == Self::sentinel_tag(enc, succ_off, succ_ver)).then_some((enc, succ_off, succ_ver))
    }

    /// The successor's minimum-key prefix, if a sentinel record exists and
    /// still proves it: the checksum validates, the live next pointer still
    /// references the recorded successor, and the successor's version word
    /// is unchanged (even and equal — any modification, rewrite, or
    /// recycling of the successor bumps it). Charges no SCM read latency:
    /// everything consulted is transient or metadata.
    pub fn sentinel_succ_min(&self) -> Option<u64> {
        let (enc, succ_off, succ_ver) = self.sentinel_read()?;
        let next = self.next();
        if next.is_null() || next.offset != succ_off {
            return None;
        }
        if succ_ver & 1 != 0
            || !succ_off.is_multiple_of(8)
            || succ_off + self.layout.size as u64 > self.pool.capacity() as u64
        {
            return None;
        }
        let succ = Leaf::new(self.pool, self.layout, succ_off);
        (succ.vlock_ref().load(Ordering::Acquire) == succ_ver).then_some(enc)
    }

    /// True if a validated sentinel proves `key` cannot live in this leaf:
    /// every key here orders strictly below the successor's minimum, so a
    /// key at (exact prefixes only) or beyond that minimum is elsewhere.
    pub fn sentinel_excludes<K: KeyKind>(&self, key: &K::Owned) -> bool {
        let Some(enc) = self.sentinel_succ_min() else {
            return false;
        };
        let ke = K::prefix64(key);
        ke > enc || (K::PREFIX_EXACT && ke == enc)
    }

    // ------------------------------------------------------------ kv slots

    /// Absolute pool offset of slot `i`'s key.
    #[inline]
    pub fn key_off(&self, slot: usize) -> u64 {
        self.off + self.layout.key_off(slot) as u64
    }

    /// Absolute pool offset of slot `i`'s value.
    #[inline]
    pub fn val_off(&self, slot: usize) -> u64 {
        self.off + self.layout.val_off(slot) as u64
    }

    /// Reads slot `i`'s logical value.
    #[inline]
    pub fn value(&self, slot: usize) -> u64 {
        self.pool.read_word(self.val_off(slot))
    }

    /// Writes slot `i`'s value (first 8 bytes carry the logical value; any
    /// remaining payload bytes are filled to model larger records).
    pub fn set_value(&self, slot: usize, v: u64) {
        let off = self.val_off(slot);
        self.pool.write_word(off, v);
        if self.layout.value_size > 8 {
            // Payload body beyond the logical u64 (Appendix A experiments).
            let filler = vec![0xA5u8; self.layout.value_size - 8];
            self.pool.write_bytes(off + 8, &filler);
        }
    }

    /// Persists slot `i`'s key+value region.
    #[inline]
    pub fn persist_slot(&self, slot: usize) {
        if self.layout.split_arrays {
            self.pool.persist(self.key_off(slot), self.layout.key_slot);
            self.pool
                .persist(self.val_off(slot), self.layout.value_size);
        } else {
            self.pool.persist(
                self.key_off(slot),
                self.layout.key_slot + self.layout.value_size,
            );
        }
    }

    /// Persists the key+value regions of the contiguous slot range
    /// `[lo, hi]` with one flush span per region — the amortized form of
    /// [`Leaf::persist_slot`] used by the batched write path.
    pub fn persist_slot_span(&self, lo: usize, hi: usize) {
        debug_assert!(lo <= hi && hi < self.layout.m);
        let n = hi - lo + 1;
        if self.layout.split_arrays {
            self.pool
                .persist(self.key_off(lo), n * self.layout.key_slot);
            self.pool
                .persist(self.val_off(lo), n * self.layout.value_size);
        } else {
            self.pool.persist(
                self.key_off(lo),
                n * (self.layout.key_slot + self.layout.value_size),
            );
        }
    }

    /// Issues one persist per byte range, first merging ranges whose
    /// line-rounded spans touch: two nearby slot runs that share a cache
    /// line would otherwise flush that line twice. Merging may cover gap
    /// bytes between runs, which is safe — under the leaf lock any dirty
    /// gap word belongs to this op's own staged stores, and flushing an
    /// operand *before* its commit record never violates the protocol.
    fn persist_merged(&self, ranges: &mut [(u64, usize)]) {
        ranges.sort_unstable();
        let line = !(CACHE_LINE as u64 - 1);
        let mut cur: Option<(u64, u64)> = None; // (start, end) in bytes
        for &(s, len) in ranges.iter() {
            let e = s + len as u64;
            match cur {
                Some((cs, ce)) if (s & line) <= ((ce - 1) & line) => {
                    cur = Some((cs, ce.max(e)));
                }
                Some((cs, ce)) => {
                    self.pool.persist(cs, (ce - cs) as usize);
                    cur = Some((s, e));
                }
                None => cur = Some((s, e)),
            }
        }
        if let Some((cs, ce)) = cur {
            self.pool.persist(cs, (ce - cs) as usize);
        }
    }

    /// Persists the key+value regions of `slots` (ascending), coalescing
    /// contiguous slot indexes — and noncontiguous runs that share a cache
    /// line — into single flush spans. Staged slots of one batch run are
    /// usually adjacent, so this typically issues one or two flush calls
    /// for the whole run.
    pub fn persist_slots(&self, slots: &[usize]) {
        debug_assert!(slots.windows(2).all(|w| w[0] < w[1]));
        let mut ranges = Vec::new();
        let mut i = 0;
        while i < slots.len() {
            let mut j = i;
            while j + 1 < slots.len() && slots[j + 1] == slots[j] + 1 {
                j += 1;
            }
            let n = j - i + 1;
            if self.layout.split_arrays {
                ranges.push((self.key_off(slots[i]), n * self.layout.key_slot));
                ranges.push((self.val_off(slots[i]), n * self.layout.value_size));
            } else {
                ranges.push((
                    self.key_off(slots[i]),
                    n * (self.layout.key_slot + self.layout.value_size),
                ));
            }
            i = j + 1;
        }
        self.persist_merged(&mut ranges);
    }

    /// Persists the fingerprint bytes of `slots` (ascending), coalescing
    /// contiguous slot indexes — and runs sharing a cache line — into
    /// single flush spans.
    pub fn persist_fingerprints(&self, slots: &[usize]) {
        debug_assert!(self.layout.fingerprints);
        debug_assert!(slots.windows(2).all(|w| w[0] < w[1]));
        let mut ranges = Vec::new();
        let mut i = 0;
        while i < slots.len() {
            let mut j = i;
            while j + 1 < slots.len() && slots[j + 1] == slots[j] + 1 {
                j += 1;
            }
            ranges.push((
                self.off + (self.layout.off_fps + slots[i]) as u64,
                j - i + 1,
            ));
            i = j + 1;
        }
        self.persist_merged(&mut ranges);
    }

    // ---------------------------------------------------------- latencies

    /// Charges the SCM read cost of the leaf head (bitmap + fingerprints) —
    /// the first cache miss of every leaf access.
    #[inline]
    pub fn touch_head(&self) {
        self.pool.touch_read(self.off, self.layout.head_len());
    }

    /// Charges the SCM read cost of probing slot `i`'s KV data.
    #[inline]
    pub fn touch_slot(&self, slot: usize) {
        if self.layout.split_arrays {
            self.pool
                .touch_read(self.key_off(slot), self.layout.key_slot);
            self.pool
                .touch_read(self.val_off(slot), self.layout.value_size);
        } else {
            self.pool.touch_read(
                self.key_off(slot),
                self.layout.key_slot + self.layout.value_size,
            );
        }
    }

    /// Charges the SCM read cost of a full linear key scan (the
    /// no-fingerprint path: the whole key region streams through the cache).
    #[inline]
    pub fn touch_key_scan(&self) {
        if self.layout.split_arrays {
            self.pool
                .touch_read(self.key_off(0), self.layout.m * self.layout.key_slot);
        } else {
            self.pool.touch_read(
                self.key_off(0),
                self.layout.m * (self.layout.key_slot + self.layout.value_size),
            );
        }
    }

    // -------------------------------------------------------------- search

    /// Searches the leaf for `key`, returning its slot.
    ///
    /// With fingerprints: scan the fingerprint array and probe only matching
    /// slots (expected one probe, §4.2). The scan is data-parallel:
    /// fingerprints load eight at a time, a SWAR match mask against the
    /// broadcast probe byte ANDs with the validity bitmap, and candidates
    /// iterate via `trailing_zeros` — same candidates, same order, same
    /// charged lines as the byte loop of [`Leaf::find_slot_scalar`] (the
    /// differential tests pin this). Without fingerprints: linear scan of
    /// the key area. Read latency is charged per the access pattern.
    pub fn find_slot<K: KeyKind>(&self, key: &K::Owned) -> Option<usize> {
        let bitmap = self.bitmap();
        self.touch_head();
        if self.layout.fingerprints {
            let fp = K::fingerprint(key);
            let mut fps = [0u8; crate::config::MAX_LEAF_CAPACITY];
            self.read_fingerprints(&mut fps);
            let mut cand = fp_match_mask(&fps[..self.layout.m], fp) & bitmap;
            while cand != 0 {
                let slot = cand.trailing_zeros() as usize;
                cand &= cand - 1;
                if self.probe_slot::<K>(slot, key) {
                    return Some(slot);
                }
            }
            None
        } else {
            self.touch_key_scan();
            for slot in 0..self.layout.m {
                if bitmap & (1 << slot) != 0 {
                    K::touch_key(self.pool, self.key_off(slot));
                    if K::slot_matches(self.pool, self.key_off(slot), key) {
                        // The linear scan above already streamed this
                        // slot's key — and, interleaved, its value —
                        // through the cache; a full `touch_slot` here
                        // double-counted the key bytes. Only a split
                        // layout's value array is a genuinely new access.
                        if self.layout.split_arrays {
                            self.pool
                                .touch_read(self.val_off(slot), self.layout.value_size);
                        }
                        return Some(slot);
                    }
                }
            }
            None
        }
    }

    /// Charges and performs the key comparison at a fingerprint hit.
    #[inline]
    fn probe_slot<K: KeyKind>(&self, slot: usize, key: &K::Owned) -> bool {
        self.touch_slot(slot);
        K::touch_key(self.pool, self.key_off(slot));
        K::slot_matches(self.pool, self.key_off(slot), key)
    }

    /// Reference implementation of [`Leaf::find_slot`]'s fingerprint scan:
    /// the byte-at-a-time loop the SWAR probe replaced. Differential tests
    /// and the probe microbenchmark run both over the same leaf bytes.
    #[doc(hidden)]
    pub fn find_slot_scalar<K: KeyKind>(&self, key: &K::Owned) -> Option<usize> {
        if !self.layout.fingerprints {
            return self.find_slot::<K>(key);
        }
        let bitmap = self.bitmap();
        self.touch_head();
        let fp = K::fingerprint(key);
        let mut fps = [0u8; crate::config::MAX_LEAF_CAPACITY];
        self.read_fingerprints(&mut fps);
        (0..self.layout.m).find(|&slot| {
            bitmap & (1 << slot) != 0 && fps[slot] == fp && self.probe_slot::<K>(slot, key)
        })
    }

    /// Collects every valid `(slot, key)` pair (splits, scans, recovery),
    /// iterating set bitmap bits word-wise via `trailing_zeros`.
    pub fn collect_entries<K: KeyKind>(&self) -> Vec<(usize, K::Owned)> {
        let mut bm = self.bitmap() & self.layout.full_bitmap();
        let mut out = Vec::with_capacity(bm.count_ones() as usize);
        while bm != 0 {
            let slot = bm.trailing_zeros() as usize;
            bm &= bm - 1;
            out.push((slot, K::read_slot(self.pool, self.key_off(slot))));
        }
        out
    }

    /// Largest key in the leaf (recovery: discriminator for inner rebuild).
    ///
    /// Covers the *merged* key set: bitmap-valid slots AND live unfolded
    /// buffer entries. A buffered key larger than every slot-resident key
    /// previously yielded a wrong split/rebuild discriminator.
    pub fn max_key<K: KeyKind>(&self) -> Option<K::Owned> {
        let mut bm = self.bitmap() & self.layout.full_bitmap();
        let mut max: Option<K::Owned> = None;
        while bm != 0 {
            let slot = bm.trailing_zeros() as usize;
            bm &= bm - 1;
            let k = K::read_slot(self.pool, self.key_off(slot));
            if max.as_ref().is_none_or(|m| k > *m) {
                max = Some(k);
            }
        }
        for i in 0..self.wbuf_count() {
            let k = K::read_slot(self.pool, self.wbuf_key_off(i));
            if max.as_ref().is_none_or(|m| k > *m) {
                max = Some(k);
            }
        }
        max
    }

    // ------------------------------------------------------ append buffer
    //
    // The per-leaf persistent write buffer (§5.12): W entries of
    // `| tag (8) | key slot | value |` after the KV area, preceded by an
    // 8-byte generation word. A single-key write appends the whole entry
    // as ONE word-aligned multi-word publish followed by ONE persist —
    // the tag word embeds a 48-bit checksum over (generation, index,
    // fingerprint, key slot, value), so recovery validates each entry
    // independently and any torn sibling word makes the tag mismatch.
    // Fold (compaction into regular slots) bumps the generation word
    // p-atomically, which invalidates every entry at once; live entries
    // therefore always form a prefix, and `wbuf_count` is the length of
    // the valid prefix.

    /// True when the layout carries an append buffer.
    #[inline]
    pub fn has_wbuf(&self) -> bool {
        self.layout.wbuf_entries > 0
    }

    /// Reads the buffer generation word.
    #[inline]
    pub fn wbuf_gen(&self) -> u64 {
        self.pool
            .read_word(self.off + self.layout.wbuf_gen_off() as u64)
    }

    /// Absolute pool offset of buffer entry `i`'s key slot.
    #[inline]
    pub fn wbuf_key_off(&self, i: usize) -> u64 {
        self.off + self.layout.wbuf_key_off(i) as u64
    }

    /// Reads buffer entry `i`'s logical value.
    #[inline]
    pub fn wbuf_value(&self, i: usize) -> u64 {
        self.pool
            .read_word(self.off + self.layout.wbuf_val_off(i) as u64)
    }

    /// Fingerprint byte stored in entry `i`'s tag.
    #[inline]
    pub fn wbuf_fp(&self, i: usize) -> u8 {
        let tag = self
            .pool
            .read_word(self.off + self.layout.wbuf_entry_off(i) as u64);
        (tag >> 8) as u8
    }

    /// Tag word for an entry: 48-bit checksum over the generation, index,
    /// fingerprint and payload, above the fingerprint byte and a nonzero
    /// marker byte (so a zeroed leaf has an empty buffer).
    fn wbuf_tag_for(gen: u64, idx: usize, fp: u8, payload: &[u8]) -> u64 {
        #[inline]
        fn mix(h: u64, v: u64) -> u64 {
            let x = (h ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            x ^ (x >> 32)
        }
        debug_assert!(payload.len().is_multiple_of(8));
        let mut h = mix(mix(0x5BF0_3635, gen), ((idx as u64) << 8) | fp as u64);
        for w in payload.chunks_exact(8) {
            h = mix(h, u64::from_le_bytes(w.try_into().unwrap()));
        }
        (h & !0xFFFFu64) | ((fp as u64) << 8) | 1
    }

    /// Validates entry `i` against the current generation: recomputes the
    /// tag checksum from the stored payload bytes.
    pub fn wbuf_entry_valid(&self, i: usize) -> bool {
        let l = self.layout;
        let tag = self.pool.read_word(self.off + l.wbuf_entry_off(i) as u64);
        if tag == 0 {
            return false;
        }
        let plen = l.key_slot + l.value_size;
        let mut payload = vec![0u8; plen];
        self.pool.read_bytes(self.wbuf_key_off(i), &mut payload);
        tag == Self::wbuf_tag_for(self.wbuf_gen(), i, (tag >> 8) as u8, &payload)
    }

    /// Number of live buffer entries (length of the valid prefix).
    pub fn wbuf_count(&self) -> usize {
        if self.layout.wbuf_entries == 0 {
            return 0;
        }
        let mut n = 0;
        while n < self.layout.wbuf_entries && self.wbuf_entry_valid(n) {
            n += 1;
        }
        n
    }

    /// Appends `(key, value)` as entry `idx` with ONE publish + ONE
    /// persist. The key slot is staged first (for variable-size keys the
    /// allocator publishes the blob pointer into the entry's key field,
    /// per the leak-prevention interface), then the whole entry — tag,
    /// key slot, value — commits as a single multi-word publish; the
    /// checksummed tag is the commit record.
    pub fn wbuf_append<K: KeyKind>(&self, idx: usize, key: &K::Owned, value: u64) {
        let l = self.layout;
        debug_assert!(idx < l.wbuf_entries);
        K::write_slot(self.pool, self.wbuf_key_off(idx), key);
        let mut entry = vec![0u8; l.wbuf_entry_size()];
        self.pool
            .read_bytes(self.wbuf_key_off(idx), &mut entry[8..8 + l.key_slot]);
        entry[8 + l.key_slot..8 + l.key_slot + 8].copy_from_slice(&value.to_le_bytes());
        for b in &mut entry[8 + l.key_slot + 8..] {
            *b = 0xA5; // payload body convention, as Leaf::set_value
        }
        let fp = K::fingerprint(key);
        let tag = Self::wbuf_tag_for(self.wbuf_gen(), idx, fp, &entry[8..]);
        entry[..8].copy_from_slice(&tag.to_le_bytes());
        let eoff = self.off + l.wbuf_entry_off(idx) as u64;
        // analyzer:allow(flush-order) — the staged key slot lies inside the
        // publish span and is re-written by the publish image itself, so the
        // single persist below makes both durable together.
        self.pool.write_publish_bytes(eoff, &entry);
        self.pool.persist(eoff, l.wbuf_entry_size());
        // An append is a commit point like the bitmap: invalidate sentinel
        // records other leaves hold about this one.
        self.version_bump();
    }

    /// Searches the live buffer prefix for `key`, newest entry first
    /// (newer appends shadow older ones and slot copies). Charges the SCM
    /// read cost of the scanned region.
    pub fn find_buffered<K: KeyKind>(&self, key: &K::Owned, live: usize) -> Option<usize> {
        if live == 0 {
            return None;
        }
        let l = self.layout;
        self.pool
            .touch_read(self.off + l.off_wbuf as u64, 8 + live * l.wbuf_entry_size());
        let fp = K::fingerprint(key);
        (0..live).rev().find(|&i| {
            self.wbuf_fp(i) == fp && K::slot_matches(self.pool, self.wbuf_key_off(i), key)
        })
    }

    /// Merged point lookup: the live buffer (newest first), then the
    /// slots. Returns the logical value. A validated successor sentinel
    /// short-circuits keys that provably order past this leaf without
    /// touching any SCM-resident key line.
    pub fn find_merged_value<K: KeyKind>(&self, key: &K::Owned) -> Option<u64> {
        if self.sentinel_excludes::<K>(key) {
            return None;
        }
        let live = self.wbuf_count();
        if let Some(i) = self.find_buffered::<K>(key, live) {
            return Some(self.wbuf_value(i));
        }
        self.find_slot::<K>(key).map(|s| self.value(s))
    }

    /// Collects the merged `(key, value)` view: every distinct key in the
    /// buffer (newest wins) and the slots (shadowed by the buffer). The
    /// result is unsorted, like [`Leaf::collect_entries`].
    pub fn collect_merged<K: KeyKind>(&self) -> Vec<(K::Owned, u64)> {
        let live = self.wbuf_count();
        let mut out: Vec<(K::Owned, u64)> = Vec::new();
        for i in (0..live).rev() {
            let k = K::read_slot(self.pool, self.wbuf_key_off(i));
            if !out.iter().any(|(ok, _)| *ok == k) {
                out.push((k, self.wbuf_value(i)));
            }
        }
        for (s, k) in self.collect_entries::<K>() {
            if !out.iter().any(|(ok, _)| *ok == k) {
                out.push((k, self.value(s)));
            }
        }
        out
    }

    /// Number of distinct buffered keys not already present in a slot —
    /// how many slots a fold of the current buffer would consume.
    pub fn wbuf_fresh_keys<K: KeyKind>(&self) -> usize {
        let live = self.wbuf_count();
        let mut fresh = 0;
        for i in (0..live).rev() {
            let k = K::read_slot(self.pool, self.wbuf_key_off(i));
            let newer = (i + 1..live).any(|j| K::slot_matches(self.pool, self.wbuf_key_off(j), &k));
            if !newer && self.find_slot::<K>(&k).is_none() {
                fresh += 1;
            }
        }
        fresh
    }

    /// Folds the live buffer into regular slots (compaction): stages each
    /// distinct key's newest value into a free slot (or retires the key's
    /// old slot), persists the staged slots + fingerprints coalesced,
    /// commits ONE bitmap word, then p-atomically bumps the generation
    /// word — which invalidates every buffer entry at once — and finally
    /// releases superseded resources. Idempotent across a crash at any
    /// point: re-folding skips entries whose bytes already sit in a slot,
    /// and the recovery audits resolve every partially-staged state.
    ///
    /// The caller must hold the leaf lock (or be recovery's exclusive
    /// owner) and must have ensured `count + live <= m` — the append
    /// invariant — so staging never needs a split.
    pub fn wbuf_fold<K: KeyKind>(&self) {
        let live = self.wbuf_count();
        if live == 0 {
            return;
        }
        let l = self.layout;
        // Newest-first winners per distinct key; older same-key entries
        // are shadowed and only their resources are released.
        let mut winners: Vec<usize> = Vec::new();
        let mut shadowed: Vec<usize> = Vec::new();
        for i in (0..live).rev() {
            let k = K::read_slot(self.pool, self.wbuf_key_off(i));
            if winners
                .iter()
                .any(|&w| K::slot_matches(self.pool, self.wbuf_key_off(w), &k))
            {
                shadowed.push(i);
            } else {
                winners.push(i);
            }
        }
        let bm = self.bitmap();
        let mut free = !bm & l.full_bitmap();
        let mut staged: Vec<usize> = Vec::new();
        let mut retired_bits = 0u64;
        let mut retired_slots: Vec<usize> = Vec::new();
        let mut folded: Vec<usize> = Vec::new(); // winners whose bytes moved or already sit in a slot
        for &e in &winners {
            let key = K::read_slot(self.pool, self.wbuf_key_off(e));
            let val = self.wbuf_value(e);
            let mut ekey = vec![0u8; l.key_slot];
            self.pool.read_bytes(self.wbuf_key_off(e), &mut ekey);
            if let Some(s) = self.find_slot::<K>(&key) {
                let mut skey = vec![0u8; l.key_slot];
                self.pool.read_bytes(self.key_off(s), &mut skey);
                if skey == ekey && self.value(s) == val {
                    // Crash-redo duplicate: a previous fold already staged
                    // this exact entry (the slot owns the key blob). Only
                    // the generation bump below is still needed.
                    folded.push(e);
                    continue;
                }
                retired_bits |= 1 << s;
                retired_slots.push(s);
            }
            debug_assert!(free != 0, "append invariant: fold always has room");
            let s = free.trailing_zeros() as usize;
            free &= free - 1;
            // Raw byte move of the key slot: for variable-size keys the
            // blob pointer transfers to the slot without reallocating.
            self.pool.write_bytes(self.key_off(s), &ekey);
            self.set_value(s, val);
            if l.fingerprints {
                self.set_fingerprint(s, self.wbuf_fp(e));
            }
            staged.push(s);
            folded.push(e);
        }
        if !staged.is_empty() {
            staged.sort_unstable();
            self.persist_slots(&staged);
            if l.fingerprints {
                self.persist_fingerprints(&staged);
            }
            let mut nbm = bm & !retired_bits;
            for &s in &staged {
                nbm |= 1 << s;
            }
            self.commit_bitmap(nbm);
        }
        // Invalidate the whole buffer p-atomically: every entry checksum
        // embeds the old generation.
        let goff = self.off + l.wbuf_gen_off() as u64;
        self.pool
            .write_publish_word(goff, self.wbuf_gen().wrapping_add(1));
        self.pool.persist(goff, 8);
        // Release what the fold made unreachable. Updated keys' old slots
        // hold a *different* blob than the staged copy, so release (the
        // allocator nulls the owner word persistently); same for shadowed
        // entries' blobs.
        for &s in &retired_slots {
            K::release_slot(self.pool, self.key_off(s));
        }
        for &e in &shadowed {
            K::release_slot(self.pool, self.wbuf_key_off(e));
        }
        // Folded winners' key fields duplicate their slot's pointer; zero
        // them so no dead entry outlives the blob it references (a later
        // remove may free it). Plain single-word stores + one coalesced
        // persist; a crash inside this window is resolved by recovery's
        // dead-entry audit (the pointers still duplicate live slots).
        if K::IS_VAR && !folded.is_empty() {
            let mut ranges = Vec::new();
            for &e in &folded {
                let koff = self.wbuf_key_off(e);
                for w in 0..l.key_slot / 8 {
                    self.pool.write_word(koff + 8 * w as u64, 0);
                }
                ranges.push((koff, l.key_slot));
            }
            self.persist_merged(&mut ranges);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TreeConfig;
    use crate::keys::FixedKey;
    use fptree_pmem::{PoolOptions, ROOT_SLOT};

    fn setup() -> (PmemPool, LeafLayout, u64) {
        let pool = PmemPool::create(PoolOptions::direct(1 << 20)).unwrap();
        let layout = LeafLayout::new(&TreeConfig::fptree(), 8);
        let off = pool.allocate(ROOT_SLOT, layout.size).unwrap();
        // Zero the leaf region (allocator does not).
        pool.write_bytes(off, &vec![0u8; layout.size]);
        pool.persist(off, layout.size);
        (pool, layout, off)
    }

    fn insert_fixed(leaf: &Leaf<'_>, slot: usize, key: u64, val: u64) {
        use crate::keys::KeyKind;
        FixedKey::write_slot(leaf.pool, leaf.key_off(slot), &key);
        leaf.set_value(slot, val);
        leaf.set_fingerprint(slot, FixedKey::fingerprint(&key));
        leaf.persist_slot(slot);
        leaf.persist_fingerprint(slot);
        leaf.commit_bitmap(leaf.bitmap() | (1 << slot));
    }

    #[test]
    fn bitmap_commit_roundtrip() {
        let (pool, layout, off) = setup();
        let leaf = Leaf::new(&pool, &layout, off);
        assert_eq!(leaf.bitmap(), 0);
        assert_eq!(leaf.count(), 0);
        leaf.commit_bitmap(0b1011);
        assert_eq!(leaf.bitmap(), 0b1011);
        assert_eq!(leaf.count(), 3);
        assert_eq!(leaf.first_zero_slot(), Some(2));
        assert!(!leaf.is_full());
        leaf.commit_bitmap(layout.full_bitmap());
        assert!(leaf.is_full());
        assert_eq!(leaf.first_zero_slot(), None);
    }

    #[test]
    fn find_slot_uses_fingerprints() {
        let (pool, layout, off) = setup();
        let leaf = Leaf::new(&pool, &layout, off);
        for (i, k) in [42u64, 7, 99, 1000].iter().enumerate() {
            insert_fixed(&leaf, i, *k, k * 10);
        }
        pool.stats().reset();
        let slot = leaf.find_slot::<FixedKey>(&99).unwrap();
        assert_eq!(slot, 2);
        assert_eq!(leaf.value(slot), 990);
        // One head line + one slot probe: 2 lines charged in expectation.
        let lines = pool.stats().snapshot().read_lines;
        assert!(lines <= 4, "fingerprint search touched {lines} lines");
        assert!(leaf.find_slot::<FixedKey>(&123456).is_none());
    }

    #[test]
    fn linear_scan_without_fingerprints() {
        let pool = PmemPool::create(PoolOptions::direct(1 << 20)).unwrap();
        let layout = LeafLayout::new(&TreeConfig::ptree(), 8);
        let off = pool.allocate(ROOT_SLOT, layout.size).unwrap();
        pool.write_bytes(off, &vec![0u8; layout.size]);
        let leaf = Leaf::new(&pool, &layout, off);
        use crate::keys::KeyKind;
        for (i, k) in [5u64, 3, 8].iter().enumerate() {
            FixedKey::write_slot(&pool, leaf.key_off(i), k);
            leaf.set_value(i, k + 100);
            leaf.persist_slot(i);
            leaf.commit_bitmap(leaf.bitmap() | (1 << i));
        }
        assert_eq!(leaf.find_slot::<FixedKey>(&3), Some(1));
        assert_eq!(leaf.find_slot::<FixedKey>(&9), None);
    }

    #[test]
    fn next_pointer_roundtrip() {
        let (pool, layout, off) = setup();
        let leaf = Leaf::new(&pool, &layout, off);
        assert!(leaf.next().is_null());
        let p = RawPPtr::new(pool.file_id(), 0x8000);
        leaf.set_next(p);
        assert_eq!(leaf.next(), p);
    }

    #[test]
    fn lock_protocol() {
        let (pool, layout, off) = setup();
        let leaf = Leaf::new(&pool, &layout, off);
        assert!(!leaf.is_locked());
        assert!(leaf.try_lock());
        assert!(leaf.is_locked());
        assert!(!leaf.try_lock(), "second lock attempt must fail");
        leaf.unlock();
        assert!(leaf.try_lock());
        leaf.reset_lock();
        assert!(!leaf.is_locked());
    }

    #[test]
    fn collect_and_max() {
        let (pool, layout, off) = setup();
        let leaf = Leaf::new(&pool, &layout, off);
        assert!(leaf.max_key::<FixedKey>().is_none());
        for (i, k) in [50u64, 10, 90, 30].iter().enumerate() {
            insert_fixed(&leaf, i, *k, 0);
        }
        let entries = leaf.collect_entries::<FixedKey>();
        assert_eq!(entries.len(), 4);
        assert_eq!(leaf.max_key::<FixedKey>(), Some(90));
    }

    #[test]
    fn large_payload_fill() {
        let pool = PmemPool::create(PoolOptions::direct(1 << 20)).unwrap();
        let cfg = TreeConfig::fptree().with_value_size(112);
        let layout = LeafLayout::new(&cfg, 8);
        let off = pool.allocate(ROOT_SLOT, layout.size).unwrap();
        pool.write_bytes(off, &vec![0u8; layout.size]);
        let leaf = Leaf::new(&pool, &layout, off);
        leaf.set_value(0, 77);
        assert_eq!(leaf.value(0), 77);
        // Padding bytes were written.
        let b: u8 = pool.read_at(leaf.val_off(0) + 8);
        assert_eq!(b, 0xA5);
    }

    /// Exact flush-count oracle for the span-merging persist helpers:
    /// from the byte regions the slots occupy, computes how many persist
    /// calls and flushed lines merging by touching line-rounded spans must
    /// produce. Regions must be sorted by start offset.
    fn flush_oracle(regions: &[(u64, usize)]) -> (u64, u64) {
        let line = CACHE_LINE as u64;
        let mut spans: Vec<(u64, u64)> = Vec::new(); // inclusive line ranges
        for &(s, len) in regions {
            let (ls, le) = (s / line, (s + len as u64 - 1) / line);
            match spans.last_mut() {
                Some((_, ce)) if ls <= *ce => *ce = (*ce).max(le),
                _ => spans.push((ls, le)),
            }
        }
        let calls = spans.len() as u64;
        let lines = spans.iter().map(|(s, e)| e - s + 1).sum();
        (calls, lines)
    }

    #[test]
    fn persist_slots_matches_flush_count_oracle() {
        let (pool, layout, off) = setup();
        let leaf = Leaf::new(&pool, &layout, off);
        let pitch = layout.key_slot + layout.value_size;
        // Adjacent-but-noncontiguous runs sharing a cache line, runs that
        // straddle lines, isolated slots, and a full prefix.
        let cases: [&[usize]; 6] = [
            &[0, 2],             // same line, gap slot between — must merge
            &[0, 1],             // contiguous run
            &[0, 8],             // different lines — must not merge
            &[0, 2, 3, 8, 9],    // mixed runs across lines
            &[5],                // single slot
            &[0, 1, 2, 3, 4, 5], // long contiguous run spanning lines
        ];
        for slots in cases {
            let regions: Vec<(u64, usize)> =
                slots.iter().map(|&s| (leaf.key_off(s), pitch)).collect();
            let (calls, lines) = flush_oracle(&regions);
            let before = pool.stats().snapshot();
            leaf.persist_slots(slots);
            let after = pool.stats().snapshot();
            assert_eq!(
                after.persist_calls - before.persist_calls,
                calls,
                "persist calls for slots {slots:?}"
            );
            assert_eq!(
                after.flushed_lines - before.flushed_lines,
                lines,
                "flushed lines for slots {slots:?}"
            );
        }
        // The headline case pinned exactly: find a slot whose line also
        // holds slot i+2 (the KV area is not line-aligned, so scan). The
        // two 16-byte regions 32 bytes apart must flush as ONE line.
        let i = (0..layout.m - 2)
            .find(|&i| {
                leaf.key_off(i) / CACHE_LINE as u64
                    == (leaf.key_off(i + 2) + pitch as u64 - 1) / CACHE_LINE as u64
            })
            .expect("a 64-byte line holds four 16-byte slots");
        let before = pool.stats().snapshot();
        leaf.persist_slots(&[i, i + 2]);
        let after = pool.stats().snapshot();
        assert_eq!(after.persist_calls - before.persist_calls, 1);
        assert_eq!(after.flushed_lines - before.flushed_lines, 1);
    }

    #[test]
    fn persist_fingerprints_matches_flush_count_oracle() {
        let (pool, layout, off) = setup();
        let leaf = Leaf::new(&pool, &layout, off);
        let cases: [&[usize]; 4] = [
            &[0, 2],         // noncontiguous bytes in one line
            &[0, 55],        // opposite ends of the fingerprint array
            &[3, 4, 5],      // contiguous run
            &[0, 1, 30, 31], // two runs
        ];
        for slots in cases {
            let regions: Vec<(u64, usize)> = slots
                .iter()
                .map(|&s| (off + (layout.off_fps + s) as u64, 1))
                .collect();
            let (calls, lines) = flush_oracle(&regions);
            let before = pool.stats().snapshot();
            leaf.persist_fingerprints(slots);
            let after = pool.stats().snapshot();
            assert_eq!(
                after.persist_calls - before.persist_calls,
                calls,
                "persist calls for fps {slots:?}"
            );
            assert_eq!(
                after.flushed_lines - before.flushed_lines,
                lines,
                "flushed lines for fps {slots:?}"
            );
        }
    }

    #[test]
    fn wbuf_append_costs_one_persist_and_probes_newest_first() {
        let (pool, layout, off) = setup();
        let leaf = Leaf::new(&pool, &layout, off);
        assert!(leaf.has_wbuf());
        assert_eq!(leaf.wbuf_count(), 0, "zeroed leaf has an empty buffer");
        let before = pool.stats().snapshot();
        leaf.wbuf_append::<FixedKey>(0, &42, 420);
        let after = pool.stats().snapshot();
        assert_eq!(
            after.persist_calls - before.persist_calls,
            1,
            "the append commit is exactly one persist"
        );
        assert_eq!(leaf.wbuf_count(), 1);
        assert_eq!(leaf.find_merged_value::<FixedKey>(&42), Some(420));
        // A newer append of the same key shadows the older entry.
        leaf.wbuf_append::<FixedKey>(1, &42, 421);
        assert_eq!(leaf.wbuf_count(), 2);
        assert_eq!(leaf.find_merged_value::<FixedKey>(&42), Some(421));
        assert_eq!(leaf.wbuf_fresh_keys::<FixedKey>(), 1);
        // Buffered entries shadow slot copies too.
        insert_fixed(&leaf, 0, 7, 70);
        leaf.wbuf_append::<FixedKey>(2, &7, 71);
        assert_eq!(leaf.find_merged_value::<FixedKey>(&7), Some(71));
        assert_eq!(leaf.find_merged_value::<FixedKey>(&404), None);
    }

    #[test]
    fn wbuf_fold_moves_newest_values_into_slots() {
        let (pool, layout, off) = setup();
        let leaf = Leaf::new(&pool, &layout, off);
        insert_fixed(&leaf, 0, 7, 70); // slot copy, to be superseded
        leaf.wbuf_append::<FixedKey>(0, &42, 420);
        leaf.wbuf_append::<FixedKey>(1, &42, 421);
        leaf.wbuf_append::<FixedKey>(2, &7, 71);
        let gen = leaf.wbuf_gen();
        leaf.wbuf_fold::<FixedKey>();
        assert_eq!(leaf.wbuf_count(), 0, "fold empties the buffer");
        assert_eq!(leaf.wbuf_gen(), gen + 1, "fold bumps the generation");
        assert_eq!(leaf.count(), 2);
        let s42 = leaf.find_slot::<FixedKey>(&42).unwrap();
        assert_eq!(leaf.value(s42), 421, "newest buffered value wins");
        let s7 = leaf.find_slot::<FixedKey>(&7).unwrap();
        assert_eq!(leaf.value(s7), 71, "buffer supersedes the slot copy");
        assert_eq!(leaf.find_merged_value::<FixedKey>(&42), Some(421));
        // Folding an empty buffer is a no-op.
        leaf.wbuf_fold::<FixedKey>();
        assert_eq!(leaf.wbuf_gen(), gen + 1);
    }

    #[test]
    fn swar_and_scalar_probes_agree_on_same_bytes() {
        let (pool, layout, off) = setup();
        let leaf = Leaf::new(&pool, &layout, off);
        for i in 0..layout.m {
            let k = (i as u64) * 977;
            insert_fixed(&leaf, i, k, k + 1);
        }
        for x in 0..4096u64 {
            let probe = x * 41;
            pool.stats().reset();
            let a = leaf.find_slot::<FixedKey>(&probe);
            let la = pool.stats().snapshot().read_lines;
            pool.stats().reset();
            let b = leaf.find_slot_scalar::<FixedKey>(&probe);
            let lb = pool.stats().snapshot().read_lines;
            assert_eq!(a, b, "probe {probe}");
            assert_eq!(la, lb, "charged lines for probe {probe}");
        }
    }

    #[test]
    fn sentinel_excludes_without_touching_scm_and_self_invalidates() {
        let (pool, layout, off) = setup();
        let leaf = Leaf::new(&pool, &layout, off);
        insert_fixed(&leaf, 0, 10, 100);
        // Chain a successor whose minimum key is 50 and record it.
        let soff = pool.allocate(ROOT_SLOT, layout.size).unwrap();
        pool.write_bytes(soff, &vec![0u8; layout.size]);
        let succ = Leaf::new(&pool, &layout, soff);
        insert_fixed(&succ, 0, 50, 500);
        leaf.set_next(RawPPtr::new(pool.file_id(), soff));
        leaf.sentinel_store(50, soff, succ.version_word());
        assert_eq!(leaf.sentinel_succ_min(), Some(50));
        // Keys at or past the successor's minimum short-circuit with ZERO
        // SCM read lines (everything consulted is transient).
        pool.stats().reset();
        assert_eq!(leaf.find_merged_value::<FixedKey>(&60), None);
        assert_eq!(leaf.find_merged_value::<FixedKey>(&50), None);
        assert_eq!(pool.stats().snapshot().read_lines, 0);
        // Keys below it probe normally.
        assert_eq!(leaf.find_merged_value::<FixedKey>(&10), Some(100));
        assert_eq!(leaf.find_merged_value::<FixedKey>(&49), None);
        // Any commit on the successor self-invalidates the record and the
        // lookup degrades to a normal probe.
        insert_fixed(&succ, 1, 5, 55);
        assert_eq!(leaf.sentinel_succ_min(), None);
        pool.stats().reset();
        assert_eq!(leaf.find_merged_value::<FixedKey>(&60), None);
        assert!(pool.stats().snapshot().read_lines > 0);
        // Chain surgery invalidates too; an explicit clear drops it.
        leaf.sentinel_store(5, soff, succ.version_word());
        assert_eq!(leaf.sentinel_succ_min(), Some(5));
        leaf.set_next(RawPPtr::NULL);
        assert_eq!(leaf.sentinel_succ_min(), None);
        leaf.set_next(RawPPtr::new(pool.file_id(), soff));
        assert_eq!(leaf.sentinel_succ_min(), Some(5));
        leaf.sentinel_clear();
        assert_eq!(leaf.sentinel_succ_min(), None);
        // A corrupted record reads as absent, never as a wrong answer.
        leaf.sentinel_store(5, soff, succ.version_word());
        pool.atomic_u64(off + layout.off_sentinel as u64)
            .store(6, Ordering::Relaxed);
        assert_eq!(leaf.sentinel_succ_min(), None);
    }

    #[test]
    fn max_key_covers_live_buffer_entries() {
        let (pool, layout, off) = setup();
        let leaf = Leaf::new(&pool, &layout, off);
        assert_eq!(leaf.max_key::<FixedKey>(), None);
        insert_fixed(&leaf, 0, 50, 500);
        leaf.wbuf_append::<FixedKey>(0, &99, 990);
        assert_eq!(
            leaf.max_key::<FixedKey>(),
            Some(99),
            "a live buffered key is part of the leaf's key set"
        );
        leaf.wbuf_fold::<FixedKey>();
        assert_eq!(leaf.wbuf_count(), 0);
        assert_eq!(leaf.max_key::<FixedKey>(), Some(99));
    }

    #[test]
    fn linear_probe_charges_the_scan_once() {
        // Split arrays (PTree): a hit adds only the value region beyond
        // the scanned key array — the old code re-charged the key bytes.
        let pool = PmemPool::create(PoolOptions::direct(1 << 20)).unwrap();
        let layout = LeafLayout::new(&TreeConfig::ptree(), 8);
        let off = pool.allocate(ROOT_SLOT, layout.size).unwrap();
        pool.write_bytes(off, &vec![0u8; layout.size]);
        let leaf = Leaf::new(&pool, &layout, off);
        use crate::keys::KeyKind;
        for (i, k) in [5u64, 3, 8].iter().enumerate() {
            FixedKey::write_slot(&pool, leaf.key_off(i), k);
            leaf.set_value(i, k + 100);
            leaf.persist_slot(i);
            leaf.commit_bitmap(leaf.bitmap() | (1 << i));
        }
        pool.stats().reset();
        assert_eq!(leaf.find_slot::<FixedKey>(&9), None);
        let miss = pool.stats().snapshot().read_lines;
        pool.stats().reset();
        assert_eq!(leaf.find_slot::<FixedKey>(&3), Some(1));
        let hit = pool.stats().snapshot().read_lines;
        assert_eq!(hit, miss + 1, "a hit adds exactly the one-line value read");
        // Interleaved layout without fingerprints: the scan already
        // streamed the value bytes, so a hit charges nothing extra.
        let pool2 = PmemPool::create(PoolOptions::direct(1 << 20)).unwrap();
        let cfg = TreeConfig {
            fingerprints: false,
            split_arrays: false,
            ..TreeConfig::ptree()
        };
        let layout2 = LeafLayout::new(&cfg, 8);
        let off2 = pool2.allocate(ROOT_SLOT, layout2.size).unwrap();
        pool2.write_bytes(off2, &vec![0u8; layout2.size]);
        let leaf2 = Leaf::new(&pool2, &layout2, off2);
        FixedKey::write_slot(&pool2, leaf2.key_off(0), &7);
        leaf2.set_value(0, 70);
        leaf2.persist_slot(0);
        leaf2.commit_bitmap(1);
        pool2.stats().reset();
        assert_eq!(leaf2.find_slot::<FixedKey>(&8), None);
        let miss2 = pool2.stats().snapshot().read_lines;
        pool2.stats().reset();
        assert_eq!(leaf2.find_slot::<FixedKey>(&7), Some(0));
        let hit2 = pool2.stats().snapshot().read_lines;
        assert_eq!(hit2, miss2, "interleaved values ride the key scan");
    }

    #[test]
    fn commit_points_bump_the_version_word() {
        let (pool, layout, off) = setup();
        let leaf = Leaf::new(&pool, &layout, off);
        let v0 = leaf.version_word();
        leaf.commit_bitmap(0b1);
        assert_eq!(
            leaf.version_word(),
            v0 + 2,
            "bitmap commit bumps, parity kept"
        );
        leaf.wbuf_append::<FixedKey>(0, &1, 10);
        assert_eq!(leaf.version_word(), v0 + 4, "buffer append bumps too");
        leaf.restore_version_monotonic(leaf.version_word());
        let v = leaf.version_word();
        assert!(
            v > v0 + 4 && v & 1 == 0,
            "recycled word restarts strictly above, even"
        );
    }

    #[test]
    fn wbuf_torn_sibling_word_kills_the_entry() {
        let (pool, layout, off) = setup();
        let leaf = Leaf::new(&pool, &layout, off);
        leaf.wbuf_append::<FixedKey>(0, &42, 420);
        leaf.wbuf_append::<FixedKey>(1, &43, 430);
        assert_eq!(leaf.wbuf_count(), 2);
        // Corrupt entry 1's value word as a torn multi-word publish would:
        // its checksummed tag no longer matches, so the valid prefix ends.
        pool.write_word(off + layout.wbuf_val_off(1) as u64, 0xDEAD);
        assert_eq!(leaf.wbuf_count(), 1);
        assert!(leaf.wbuf_entry_valid(0));
        assert!(!leaf.wbuf_entry_valid(1));
        assert_eq!(leaf.find_merged_value::<FixedKey>(&42), Some(420));
        assert_eq!(leaf.find_merged_value::<FixedKey>(&43), None);
    }
}
