//! Typed accessors over a leaf node stored in SCM.
//!
//! A [`Leaf`] borrows the pool, the layout, and the leaf's base offset and
//! exposes the paper's leaf fields (Figure 2): the p-atomic validity bitmap,
//! the fingerprint array, the persistent `next` pointer, the transient lock
//! word, and the KV slots. Methods never persist implicitly — the tree
//! algorithms call `persist` exactly where the paper does, which is what the
//! crash-consistency tests verify.

use std::sync::atomic::{AtomicU64, Ordering};

use fptree_pmem::{PmemPool, RawPPtr, CACHE_LINE};

use crate::config::MAX_LEAF_CAPACITY;
use crate::fingerprint::fp_match_mask;
use crate::keys::KeyKind;
use crate::layout::LeafLayout;

/// One round of the multiplicative mix chain behind every checksummed tag
/// in a leaf (buffer entries, buffer digest).
#[inline]
fn mix(h: u64, v: u64) -> u64 {
    let x = (h ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^ (x >> 32)
}

/// The live prefix of a leaf's append buffer as one operation sees it
/// ([`Leaf::wbuf_view`]): how many entries are live, and their fingerprints.
#[derive(Clone, Copy)]
pub struct WbufView {
    /// Number of live buffer entries.
    pub live: usize,
    /// `fps[i]` is live entry `i`'s fingerprint; zero from `live` on.
    fps: [u8; MAX_LEAF_CAPACITY],
    /// The view came from the checksum walk, which charged the whole live
    /// prefix: a probe under it charges no entry again.
    walked: bool,
}

impl WbufView {
    const EMPTY: WbufView = WbufView {
        live: 0,
        fps: [0u8; MAX_LEAF_CAPACITY],
        walked: false,
    };
}

/// What [`Leaf::wbuf_census`] learns about the live buffer.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WbufCensus {
    /// Distinct buffered keys without a valid slot — how many slots a
    /// fold of the current buffer would consume.
    pub fresh: usize,
    /// Some distinct key's newest entry already sits, byte for byte, in a
    /// valid slot: a fold committed its bitmap and crashed before its
    /// generation bump.
    pub crashed_fold: bool,
}

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
    /// every leaf modification.
    #[inline]
    pub fn commit_bitmap(&self, bm: u64) {
        let off = self.off + self.layout.off_bitmap as u64;
        self.pool.write_publish_word(off, bm);
        self.pool.persist(off, 8);
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
    pub fn vlock_ref(&self) -> &AtomicU64 {
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

    /// Raw snapshot of the version word, any parity — the `prior` input of
    /// [`Leaf::restore_version_monotonic`].
    #[inline]
    pub fn version_word(&self) -> u64 {
        self.vlock_ref().load(Ordering::Acquire)
    }

    /// Re-initializes the version word of a recycled or rewritten leaf to
    /// an even value strictly greater than `prior`, so a version an
    /// optimistic reader or scan anchor took against the old contents can
    /// never validate against the new ones (offset-reuse ABA).
    #[inline]
    pub fn restore_version_monotonic(&self, prior: u64) {
        self.vlock_ref()
            .store((prior | 1).wrapping_add(1), Ordering::Release);
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
        self.touch_head();
        self.find_slot_headed::<K>(key)
    }

    /// [`Leaf::find_slot`] for a caller that already charged the head.
    fn find_slot_headed<K: KeyKind>(&self, key: &K::Owned) -> Option<usize> {
        let bitmap = self.bitmap();
        if self.layout.fingerprints {
            let fp = K::fingerprint(key);
            let mut fps = [0u8; MAX_LEAF_CAPACITY];
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
        let mut fps = [0u8; MAX_LEAF_CAPACITY];
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
        for i in 0..self.wbuf_view().live {
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
    /// fingerprint and payload words, above the fingerprint byte and a
    /// nonzero marker byte (so a zeroed leaf has an empty buffer).
    fn wbuf_tag_for(gen: u64, idx: usize, fp: u8, payload: impl Iterator<Item = u64>) -> u64 {
        let h = mix(mix(0x5BF0_3635, gen), ((idx as u64) << 8) | fp as u64);
        (payload.fold(h, mix) & !0xFFFFu64) | ((fp as u64) << 8) | 1
    }

    /// Validates entry `i` against the current generation: recomputes the
    /// tag checksum from the stored payload words, streamed from the pool.
    pub fn wbuf_entry_valid(&self, i: usize) -> bool {
        let l = self.layout;
        let tag = self.pool.read_word(self.off + l.wbuf_entry_off(i) as u64);
        if tag == 0 {
            return false;
        }
        let base = self.wbuf_key_off(i);
        let payload =
            (0..(l.key_slot + l.value_size) as u64 / 8).map(|w| self.pool.read_word(base + 8 * w));
        tag == Self::wbuf_tag_for(self.wbuf_gen(), i, (tag >> 8) as u8, payload)
    }

    /// Number of live buffer entries (length of the valid prefix), by
    /// walking the entries and validating each checksum. Operations take
    /// the count from [`Leaf::wbuf_view`]; the walk is its fallback, the
    /// recovery audit's source of truth, and the reference the structural
    /// checker and the tests hold the digest against. Charges nothing.
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

    /// Appends `(key, value)` as entry `idx` — the current live count —
    /// with ONE publish + ONE persist. The key slot is staged first (for
    /// variable-size keys the allocator publishes the blob pointer into
    /// the entry's key field, per the leak-prevention interface), then the
    /// whole entry — tag, key slot, value — commits as a single multi-word
    /// publish; the checksummed tag is the commit record. The transient
    /// digest is extended afterwards.
    pub fn wbuf_append<K: KeyKind>(&self, idx: usize, key: &K::Owned, value: u64) {
        let l = self.layout;
        debug_assert!(idx < l.wbuf_entries);
        K::write_slot(self.pool, self.wbuf_key_off(idx), key);
        // The image of every preset's entry (24 or 32 bytes) fits the
        // stack; only Appendix-A payload sweeps take the heap.
        let (mut stack, mut heap) = ([0u8; 64], Vec::new());
        let entry = match l.wbuf_entry_size() {
            n if n <= stack.len() => &mut stack[..n],
            n => {
                heap.resize(n, 0);
                &mut heap[..]
            }
        };
        self.pool
            .read_bytes(self.wbuf_key_off(idx), &mut entry[8..8 + l.key_slot]);
        entry[8 + l.key_slot..8 + l.key_slot + 8].copy_from_slice(&value.to_le_bytes());
        for b in &mut entry[8 + l.key_slot + 8..] {
            *b = 0xA5; // payload body convention, as Leaf::set_value
        }
        let fp = K::fingerprint(key);
        let payload = entry[8..]
            .chunks_exact(8)
            .map(|w| u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        let tag = Self::wbuf_tag_for(self.wbuf_gen(), idx, fp, payload);
        entry[..8].copy_from_slice(&tag.to_le_bytes());
        let eoff = self.off + l.wbuf_entry_off(idx) as u64;
        // analyzer:allow(flush-order) — the staged key slot lies inside the
        // publish span and is re-written by the publish image itself, so the
        // single persist below makes both durable together.
        self.pool.write_publish_bytes(eoff, entry);
        self.pool.persist(eoff, l.wbuf_entry_size());
        self.digest_push(idx, fp);
    }

    // ------------------------------------------------------ buffer digest
    //
    // A transient mirror of the live buffer prefix in the leaf head
    // (§5.16): the live entries' fingerprint bytes in `ceil(W/8)` words and
    // a tag word `| checksum (48) | live (8) | marker (8) |` whose checksum
    // covers the leaf offset, the fingerprint words and the count. With it
    // a lookup learns the live count and which entries can hold its key
    // from two atomic loads, and touches the buffer region only at a
    // fingerprint match. Like the lock word it lives out of the persistence
    // domain: pool atomics only, never flushed, rewritten from the walk by
    // recovery's audit. It is *maintained*, not cached: whoever
    // changes the buffer — `wbuf_append`, `wbuf_fold`, leaf initialization —
    // holds the leaf exclusively and rewrites it; lookups only ever read
    // it. A lookup that stored a digest it rebuilt could overwrite the
    // newer one of an append it raced, and nothing would correct that.
    // An all-zero region (a leaf built by hand) is "no digest", not "empty":
    // a tag that does not verify sends the reader down the validated walk.

    /// Transient digest word `i`: fingerprint words first, then the tag.
    #[inline]
    fn digest_word(&self, i: usize) -> &AtomicU64 {
        debug_assert!(i <= self.layout.digest_fp_words());
        self.pool
            .atomic_u64(self.off + (self.layout.off_digest + 8 * i) as u64)
    }

    /// Start of the digest checksum chain: bound to this leaf's offset, so
    /// digest bytes copied from another leaf never verify here.
    #[inline]
    fn digest_seed(&self) -> u64 {
        mix(0xD16E_57AB, self.off)
    }

    /// Tag word closing the chain `h` over the fingerprint words: bit 0 is
    /// always set, so a zeroed region never verifies.
    #[inline]
    fn digest_tag(h: u64, live: usize) -> u64 {
        (mix(h, live as u64) & !0xFFFFu64) | ((live as u64) << 8) | 1
    }

    /// Writes the digest: `fps[..live]` are the live entries' fingerprints
    /// in entry order. The caller holds the leaf exclusively. Racing
    /// readers see the tag zeroed or a mixed record that fails its
    /// checksum, and walk.
    pub(crate) fn digest_store(&self, fps: &[u8], live: usize) {
        if !self.has_wbuf() {
            return;
        }
        debug_assert!(live <= self.layout.wbuf_entries && live <= fps.len());
        let words = self.layout.digest_fp_words();
        let mut bytes = [0u8; MAX_LEAF_CAPACITY];
        bytes[..live].copy_from_slice(&fps[..live]);
        let tag = self.digest_word(words);
        tag.store(0, Ordering::Relaxed);
        let mut h = self.digest_seed();
        for (w, chunk) in bytes.chunks_exact(8).take(words).enumerate() {
            let word = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
            self.digest_word(w).store(word, Ordering::Relaxed);
            h = mix(h, word);
        }
        // Release: a reader that acquires this tag sees the words above.
        tag.store(Self::digest_tag(h, live), Ordering::Release);
    }

    /// Reads the digest if its tag verifies.
    fn digest_read(&self) -> Option<WbufView> {
        let words = self.layout.digest_fp_words();
        let tag = self.digest_word(words).load(Ordering::Acquire);
        if tag == 0 {
            return None;
        }
        let mut view = WbufView {
            live: (tag >> 8) as u8 as usize,
            ..WbufView::EMPTY
        };
        let mut h = self.digest_seed();
        for (w, chunk) in view.fps.chunks_exact_mut(8).take(words).enumerate() {
            let word = self.digest_word(w).load(Ordering::Relaxed);
            chunk.copy_from_slice(&word.to_le_bytes());
            h = mix(h, word);
        }
        (view.live <= self.layout.wbuf_entries && tag == Self::digest_tag(h, view.live))
            .then_some(view)
    }

    /// The validated walk as a view (charges nothing, like `wbuf_count`).
    fn wbuf_walk(&self) -> WbufView {
        let mut view = WbufView {
            live: self.wbuf_count(),
            walked: true,
            ..WbufView::EMPTY
        };
        for (i, fp) in view.fps[..view.live].iter_mut().enumerate() {
            *fp = self.wbuf_fp(i);
        }
        view
    }

    /// The live buffer prefix — its length and fingerprints — from the
    /// digest, or from the validated walk when the digest does not verify;
    /// the walk is charged what it read: the generation word, the live
    /// entries and the entry that ended the prefix. Every operation sizes
    /// and probes the buffer through this.
    pub fn wbuf_view(&self) -> WbufView {
        let l = self.layout;
        if !self.has_wbuf() {
            return WbufView::EMPTY;
        }
        // Debug builds hold every digest read against the walk, which
        // makes each test that reads a leaf a differential test. The
        // comparison only stands if no writer was active around both reads.
        let stable = cfg!(debug_assertions).then(|| self.version_word());
        let Some(view) = self.digest_read() else {
            let view = self.wbuf_walk();
            let read = (view.live + 1).min(l.wbuf_entries);
            self.pool
                .touch_read(self.off + l.off_wbuf as u64, 8 + read * l.wbuf_entry_size());
            return view;
        };
        if let Some(v) = stable {
            let walk = self.wbuf_walk();
            if v & 1 == 0 && self.version_word() == v {
                debug_assert_eq!(
                    (view.live, &view.fps[..view.live]),
                    (walk.live, &walk.fps[..walk.live]),
                    "buffer digest of leaf {:#x} disagrees with the walk",
                    self.off
                );
            }
        }
        view
    }

    /// Extends the digest with entry `idx`'s fingerprint. A digest that
    /// does not describe `idx` live entries — none yet, on a leaf built by
    /// hand — is recollected by the walk, which by now ends at entry `idx`.
    fn digest_push(&self, idx: usize, fp: u8) {
        let mut fps = match self.digest_read() {
            Some(view) if view.live == idx => view.fps,
            _ => self.wbuf_walk().fps,
        };
        fps[idx] = fp;
        self.digest_store(&fps, idx + 1);
    }

    /// Rewrites the digest from the validated walk (recovery's audit: a
    /// crash image may carry any digest bytes, stale or torn).
    pub(crate) fn digest_rebuild(&self) {
        let walk = self.wbuf_walk();
        self.digest_store(&walk.fps, walk.live);
    }

    /// Crash-test hook: overwrites the digest with one that verifies and
    /// claims `delta` more (or fewer) live entries than the walk finds —
    /// the stale record an image can carry, which the audit must not
    /// believe.
    #[doc(hidden)]
    pub fn digest_forge(&self, delta: isize) {
        let mut walk = self.wbuf_walk();
        let claimed = walk
            .live
            .saturating_add_signed(delta)
            .min(self.layout.wbuf_entries);
        walk.fps[walk.live.min(claimed)..claimed].fill(0x5A);
        self.digest_store(&walk.fps, claimed);
    }

    /// Merged point lookup under `view`: buffer entries whose digest
    /// fingerprint matches, newest first (newer appends shadow older ones
    /// and slot copies), then the slots. Returns the key's newest logical
    /// value. Charges the head — every leaf access reads it; the digest
    /// sits in its transient tail — then the buffer region only at a
    /// matching entry (a walked view already paid for the whole prefix),
    /// then what the slot probe inspects.
    pub(crate) fn find_merged<K: KeyKind>(&self, key: &K::Owned, view: &WbufView) -> Option<u64> {
        let l = self.layout;
        self.touch_head();
        let mut cand = match view.live {
            0 => 0,
            live => {
                fp_match_mask(&view.fps[..live], K::fingerprint(key)) & (u64::MAX >> (64 - live))
            }
        };
        while cand != 0 {
            let i = 63 - cand.leading_zeros() as usize;
            cand &= !(1 << i);
            if !view.walked {
                self.pool
                    .touch_read(self.off + l.wbuf_entry_off(i) as u64, l.wbuf_entry_size());
            }
            K::touch_key(self.pool, self.wbuf_key_off(i));
            if K::slot_matches(self.pool, self.wbuf_key_off(i), key) {
                return Some(self.wbuf_value(i));
            }
        }
        self.find_slot_headed::<K>(key).map(|s| self.value(s))
    }

    /// Merged point lookup: [`Leaf::find_merged`] under the digest.
    pub fn find_merged_value<K: KeyKind>(&self, key: &K::Owned) -> Option<u64> {
        self.find_merged::<K>(key, &self.wbuf_view())
    }

    /// Collects the merged `(key, value)` view: every distinct key in the
    /// buffer (newest wins) and the slots (shadowed by the buffer). The
    /// result is unsorted, like [`Leaf::collect_entries`].
    pub fn collect_merged<K: KeyKind>(&self) -> Vec<(K::Owned, u64)> {
        let live = self.wbuf_view().live;
        let slots = self.collect_entries::<K>();
        let mut out: Vec<(K::Owned, u64)> = Vec::with_capacity(live + slots.len());
        for i in (0..live).rev() {
            let k = K::read_slot(self.pool, self.wbuf_key_off(i));
            if !out.iter().any(|(ok, _)| *ok == k) {
                out.push((k, self.wbuf_value(i)));
            }
        }
        // Slot keys are distinct, so a slot key is only ever shadowed by a
        // buffered one.
        let buffered = out.len();
        for (s, k) in slots {
            if !out[..buffered].iter().any(|(ok, _)| *ok == k) {
                out.push((k, self.value(s)));
            }
        }
        out
    }

    /// One pass over the live buffer, newest entry first, with one slot
    /// probe per distinct key (the fold probes the same way). Charges what
    /// those probes inspect.
    pub(crate) fn wbuf_census<K: KeyKind>(&self) -> WbufCensus {
        let live = self.wbuf_view().live;
        let mut census = WbufCensus {
            fresh: 0,
            crashed_fold: false,
        };
        for i in (0..live).rev() {
            let k = K::read_slot(self.pool, self.wbuf_key_off(i));
            if (i + 1..live).any(|j| K::slot_matches(self.pool, self.wbuf_key_off(j), &k)) {
                continue; // shadowed by a newer entry
            }
            match self.find_slot::<K>(&k) {
                None => census.fresh += 1,
                Some(s) => census.crashed_fold |= self.slot_holds_entry(s, i),
            }
        }
        census
    }

    /// True when valid slot `s` holds buffer entry `e`'s exact key-slot
    /// bytes (for variable-size keys: the same blob pointer) and value —
    /// what a fold leaves behind once it has staged and committed `e`.
    fn slot_holds_entry(&self, s: usize, e: usize) -> bool {
        let (so, eo) = (self.key_off(s), self.wbuf_key_off(e));
        self.value(s) == self.wbuf_value(e)
            && (0..self.layout.key_slot as u64 / 8)
                .all(|w| self.pool.read_word(so + 8 * w) == self.pool.read_word(eo + 8 * w))
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
        let live = self.wbuf_view().live;
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
                if self.slot_holds_entry(s, e) {
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
        self.digest_store(&[], 0);
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
        let v = leaf.version().expect("a zeroed leaf is unlocked");
        assert!(leaf.try_lock_version(v));
        assert_eq!(leaf.version(), None, "odd word = a writer holds the leaf");
        assert!(!leaf.try_lock_version(v), "second lock attempt must fail");
        leaf.unlock_version();
        assert_eq!(leaf.version(), Some(v + 2));
        assert!(leaf.version_changed(v), "a lock/unlock pair moves the word");
        assert!(leaf.try_lock_version(v + 2));
        leaf.reset_lock();
        assert_eq!(leaf.version(), Some(0));
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
        assert_eq!(leaf.wbuf_census::<FixedKey>().fresh, 1);
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
        // Only a crash tears an entry, and recovery's audit then rewrites
        // the digest from the walk before any lookup runs.
        leaf.digest_rebuild();
        assert_eq!(leaf.wbuf_view().live, 1);
        assert_eq!(leaf.find_merged_value::<FixedKey>(&42), Some(420));
        assert_eq!(leaf.find_merged_value::<FixedKey>(&43), None);
    }

    /// Lines `f` charges.
    fn lines_of<T>(pool: &PmemPool, f: impl FnOnce() -> T) -> (T, u64) {
        let before = pool.stats().snapshot().read_lines;
        let out = f();
        (out, pool.stats().snapshot().read_lines - before)
    }

    /// Cache lines the byte range covers.
    fn span_lines(off: u64, len: usize) -> u64 {
        (off + len as u64 - 1) / CACHE_LINE as u64 - off / CACHE_LINE as u64 + 1
    }

    /// A key absent from the leaf whose fingerprint none of `present` has.
    fn key_without_collision(present: &[u64]) -> u64 {
        use crate::keys::KeyKind;
        (1u64 << 40..)
            .find(|k| {
                present
                    .iter()
                    .all(|p| FixedKey::fingerprint(p) != FixedKey::fingerprint(k))
            })
            .expect("256 fingerprints, a handful taken")
    }

    #[test]
    fn merged_probe_charges_the_lines_it_inspects() {
        let (pool, layout, off) = setup();
        let leaf = Leaf::new(&pool, &layout, off);
        let head = span_lines(off, layout.head_len());
        let present = [7u64, 8, 42, 43, 44];
        insert_fixed(&leaf, 0, 7, 70);
        insert_fixed(&leaf, 1, 8, 80);
        for (i, k) in [42u64, 43, 44].iter().enumerate() {
            leaf.wbuf_append::<FixedKey>(i, k, k * 10);
        }
        // Buffered hit: the head, then — the digest names the entry —
        // that entry's span and nothing else. The newest entry and the
        // oldest cost the same.
        for (i, k) in [42u64, 43, 44].iter().enumerate() {
            let entry = span_lines(
                off + layout.wbuf_entry_off(i) as u64,
                layout.wbuf_entry_size(),
            );
            let (got, lines) = lines_of(&pool, || leaf.find_merged_value::<FixedKey>(k));
            assert_eq!(got, Some(k * 10));
            assert_eq!(lines, head + entry, "buffered hit on entry {i}");
        }
        // Slot hit: head + the slot.
        let slot = span_lines(leaf.key_off(1), layout.key_slot + layout.value_size);
        let (got, lines) = lines_of(&pool, || leaf.find_merged_value::<FixedKey>(&8));
        assert_eq!(got, Some(80));
        assert_eq!(lines, head + slot, "slot hit");
        // Miss without a fingerprint collision: the head only.
        let absent = key_without_collision(&present);
        let (got, lines) = lines_of(&pool, || leaf.find_merged_value::<FixedKey>(&absent));
        assert_eq!(got, None);
        assert_eq!(lines, head, "miss");
        // The walk the digest replaced: without a digest (tag zeroed, as on
        // a leaf built by hand) the same lookups charge the walked prefix —
        // generation word, three live entries, the entry ending the prefix —
        // before the head, and never less than the digest path.
        pool.atomic_u64(off + (layout.off_digest + 8) as u64)
            .store(0, Ordering::Relaxed);
        let walked = span_lines(
            off + layout.off_wbuf as u64,
            8 + 4 * layout.wbuf_entry_size(),
        );
        let (got, lines) = lines_of(&pool, || leaf.find_merged_value::<FixedKey>(&44));
        assert_eq!(
            (got, lines),
            (Some(440), walked + head),
            "walked buffered hit"
        );
        let (got, lines) = lines_of(&pool, || leaf.find_merged_value::<FixedKey>(&absent));
        assert_eq!((got, lines), (None, walked + head), "walked miss");
        // An empty buffer costs a lookup the head and its slot, as a leaf
        // without a buffer does.
        leaf.wbuf_fold::<FixedKey>();
        let (got, lines) = lines_of(&pool, || leaf.find_merged_value::<FixedKey>(&absent));
        assert_eq!((got, lines), (None, head), "miss on an empty buffer");
    }

    #[test]
    fn digest_follows_appends_and_folds() {
        use crate::keys::KeyKind;
        let (pool, layout, off) = setup();
        let leaf = Leaf::new(&pool, &layout, off);
        // A zeroed region is "no digest": the view comes from the walk.
        assert!(leaf.digest_read().is_none());
        assert!(leaf.wbuf_view().walked);
        // The first append creates it; later ones extend it.
        for (i, k) in [5u64, 6, 5].iter().enumerate() {
            leaf.wbuf_append::<FixedKey>(i, k, 100 + i as u64);
            let view = leaf.digest_read().expect("appends maintain the digest");
            assert_eq!(view.live, i + 1);
            assert_eq!(view.fps[i], FixedKey::fingerprint(k));
            assert!(view.fps[i + 1..].iter().all(|&b| b == 0));
        }
        assert_eq!(leaf.find_merged_value::<FixedKey>(&5), Some(102));
        // The fold's generation bump empties it.
        leaf.wbuf_fold::<FixedKey>();
        let view = leaf.digest_read().expect("a fold leaves an empty digest");
        assert_eq!((view.live, view.walked), (0, false));
        assert_eq!(leaf.find_merged_value::<FixedKey>(&5), Some(102));
        // Without a digest an append at idx > 0 recollects the older
        // entries' fingerprints from their tags.
        leaf.wbuf_append::<FixedKey>(0, &9, 900);
        leaf.digest_word(layout.digest_fp_words())
            .store(0, Ordering::Relaxed);
        leaf.wbuf_append::<FixedKey>(1, &10, 1000);
        let view = leaf.digest_read().expect("recollected");
        assert_eq!(
            &view.fps[..2],
            &[FixedKey::fingerprint(&9), FixedKey::fingerprint(&10)]
        );
        assert_eq!(view.live, leaf.wbuf_count());
    }

    #[test]
    fn digest_that_does_not_verify_is_ignored() {
        let (pool, layout, off) = setup();
        let leaf = Leaf::new(&pool, &layout, off);
        leaf.wbuf_append::<FixedKey>(0, &42, 420);
        leaf.wbuf_append::<FixedKey>(1, &43, 430);
        let words = layout.digest_fp_words();
        let good: Vec<u64> = (0..=words)
            .map(|w| leaf.digest_word(w).load(Ordering::Relaxed))
            .collect();
        // A flipped fingerprint byte, a wrong count, a count past W: none
        // verifies, all fall back to the walk and still answer.
        for (w, bad) in [
            (0, good[0] ^ 0xFF),
            (words, good[words] + (1 << 8)),
            (words, good[words] | (0xFF << 8)),
        ] {
            leaf.digest_word(w).store(bad, Ordering::Relaxed);
            assert!(leaf.digest_read().is_none());
            assert_eq!(leaf.wbuf_view().live, 2);
            assert_eq!(leaf.find_merged_value::<FixedKey>(&43), Some(430));
            leaf.digest_word(w).store(good[w], Ordering::Relaxed);
            assert!(leaf.digest_read().is_some());
        }
        // The checksum is bound to the leaf: the same words at another
        // offset (a leaf copied byte for byte) do not verify there.
        let off2 = pool.allocate(ROOT_SLOT, layout.size).unwrap();
        let mut bytes = vec![0u8; layout.size];
        pool.read_bytes(off, &mut bytes);
        pool.write_bytes(off2, &bytes);
        let copy = Leaf::new(&pool, &layout, off2);
        assert!(copy.digest_read().is_none());
        assert_eq!(copy.find_merged_value::<FixedKey>(&43), Some(430));
        // The audit overwrites a digest that is ahead of the entries (here:
        // it claims a third entry that never became durable) or behind.
        use crate::keys::KeyKind;
        let fps = [42u64, 43, 44].map(|k| FixedKey::fingerprint(&k));
        for forged in [3, 1, 0] {
            leaf.digest_store(&fps, forged);
            leaf.digest_rebuild();
            let view = leaf.digest_read().expect("rebuilt");
            assert_eq!((view.live, &view.fps[..2]), (2, &fps[..2]));
        }
    }

    #[test]
    fn digest_spans_several_words_for_large_buffers() {
        use crate::keys::KeyKind;
        for w in [1usize, 7, 9, 16, 64] {
            let pool = PmemPool::create(PoolOptions::direct(1 << 20)).unwrap();
            let cfg = TreeConfig::fptree_concurrent().with_wbuf_entries(w);
            let layout = LeafLayout::new(&cfg, 8);
            let off = pool.allocate(ROOT_SLOT, layout.size).unwrap();
            pool.write_bytes(off, &vec![0u8; layout.size]);
            let leaf = Leaf::new(&pool, &layout, off);
            for i in 0..w {
                leaf.wbuf_append::<FixedKey>(i, &(i as u64 % 5), i as u64);
            }
            let view = leaf.wbuf_view();
            assert!(!view.walked, "W = {w}");
            assert_eq!(view.live, w);
            for i in 0..w {
                assert_eq!(view.fps[i], FixedKey::fingerprint(&(i as u64 % 5)));
            }
            // Newest of each key wins.
            for k in 0..5u64.min(w as u64) {
                let newest = (0..w as u64).rev().find(|i| i % 5 == k).unwrap();
                assert_eq!(leaf.find_merged_value::<FixedKey>(&k), Some(newest));
            }
            leaf.wbuf_fold::<FixedKey>();
            assert_eq!(leaf.wbuf_view().live, 0);
            assert_eq!(leaf.count(), w.min(5));
        }
    }
}
