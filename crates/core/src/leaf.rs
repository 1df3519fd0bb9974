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

/// Where [`Leaf::find_merged`] found a key's newest value.
#[derive(Clone, Copy)]
pub(crate) enum Where {
    /// A live buffer entry; it shadows any slot copy of the key.
    Entry,
    /// Valid slot `i`; no live buffer entry holds the key.
    Slot(usize),
}

/// The leaf head as one read saw it ([`Leaf::read_head`]): the validity
/// bitmap and the slot fingerprints.
#[derive(Clone, Copy)]
pub(crate) struct Head {
    /// The validity bitmap.
    pub bitmap: u64,
    /// `fps[i]` is slot `i`'s fingerprint (all zero without fingerprints).
    fps: [u8; MAX_LEAF_CAPACITY],
}

/// The one classification pass over a leaf's live buffer
/// ([`Leaf::wbuf_census`]): the fold stages from it, and recovery reads
/// its verdict from it. Entry masks are indexed by buffer entry.
pub(crate) struct WbufCensus<K: KeyKind> {
    /// The newest entry of each distinct key.
    winners: u64,
    /// Older entries of a key a newer entry holds: a fold only releases
    /// their resources.
    shadowed: u64,
    /// Winners not yet sitting byte for byte in a valid slot: what a fold
    /// stages. A winner outside it was staged by a fold that committed its
    /// bitmap and crashed before its generation bump.
    stage: u64,
    /// `slot[e]`: the valid slot holding winner `e`'s key, if any — the
    /// slot a fold of `e` retires.
    slot: [Option<u8>; MAX_LEAF_CAPACITY],
    /// Winners without a valid slot — how many slots a fold consumes.
    pub fresh: usize,
    /// The largest buffered key.
    pub max: Option<K::Owned>,
}

impl<K: KeyKind> WbufCensus<K> {
    /// A live buffer whose fold would stage nothing: a fold committed its
    /// bitmap and crashed before its generation bump. (A buffer of nothing
    /// but updates that rewrote their slots' own values looks the same;
    /// finishing its fold is harmless.)
    pub fn crashed_fold(&self) -> bool {
        self.winners != 0 && self.stage == 0
    }
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

    /// The free slots, as a mask.
    #[inline]
    pub fn free_slots(&self) -> u64 {
        !self.bitmap() & self.layout.full_bitmap()
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

    /// Persists the key+value regions of the slots set in `slots`,
    /// coalescing contiguous slot indexes — and noncontiguous runs that
    /// share a cache line — into single flush spans. Staged slots of one
    /// batch run or fold are usually adjacent, so this typically issues one
    /// or two flush calls for the whole run.
    fn persist_slots(&self, slots: u64) {
        let mut ranges = Ranges::default();
        for (lo, n) in slot_runs(slots) {
            if self.layout.split_arrays {
                ranges.push(self.key_off(lo), n * self.layout.key_slot);
                ranges.push(self.val_off(lo), n * self.layout.value_size);
            } else {
                ranges.push(
                    self.key_off(lo),
                    n * (self.layout.key_slot + self.layout.value_size),
                );
            }
        }
        self.persist_merged(ranges.as_mut_slice());
    }

    /// Persists the fingerprint bytes of the slots set in `slots`,
    /// coalescing contiguous slot indexes — and runs sharing a cache line —
    /// into single flush spans.
    fn persist_fingerprints(&self, slots: u64) {
        debug_assert!(self.layout.fingerprints);
        let mut ranges = Ranges::default();
        for (lo, n) in slot_runs(slots) {
            ranges.push(self.off + (self.layout.off_fps + lo) as u64, n);
        }
        self.persist_merged(ranges.as_mut_slice());
    }

    // -------------------------------------------------------- slot commit
    //
    // Every change to the slots commits one way (Algorithms 2, 8, 14 and
    // 16): stage whole slots outside the bitmap, persist them and their
    // fingerprints, then ONE p-atomic bitmap write publishes the staged
    // slots and retires the slots they replace. A single insert or update,
    // a batch run, a fold and a remove differ only in what they stage.

    /// Stages `key` and `value`, with the key's fingerprint, into the
    /// lowest slot of `free` and takes it out of `free`; returns the slot's
    /// bit. For variable-size keys this allocates the key blob. A plain
    /// store: [`Leaf::commit_slots`] persists and publishes it.
    pub(crate) fn stage_key<K: KeyKind>(&self, free: &mut u64, key: &K::Owned, value: u64) -> u64 {
        let s = take_lowest(free);
        K::write_slot(self.pool, self.key_off(s), key);
        self.stage_rest(s, value, K::fingerprint(key))
    }

    /// Stages a copy of the key slot at `from` — for variable-size keys
    /// the blob pointer, not the blob — with `value` and fingerprint `fp`
    /// into the lowest slot of `free`, as [`Leaf::stage_key`] does.
    pub(crate) fn stage_copy(&self, free: &mut u64, from: u64, value: u64, fp: u8) -> u64 {
        let s = take_lowest(free);
        let to = self.key_off(s);
        for w in 0..self.layout.key_slot as u64 / 8 {
            self.pool
                .write_word(to + 8 * w, self.pool.read_word(from + 8 * w));
        }
        self.stage_rest(s, value, fp)
    }

    /// The value and fingerprint half of staging slot `s`.
    fn stage_rest(&self, s: usize, value: u64, fp: u8) -> u64 {
        self.set_value(s, value);
        if self.layout.fingerprints {
            self.set_fingerprint(s, fp);
        }
        1 << s
    }

    /// The commit point of every slot change: persists the `staged` slots
    /// and their fingerprints with coalesced flushes, then p-atomically
    /// writes the bitmap with `staged` set and `retired` cleared. Returns
    /// the committed bitmap. The caller holds the leaf exclusively.
    pub fn commit_slots(&self, staged: u64, retired: u64) -> u64 {
        if staged != 0 {
            self.persist_slots(staged);
            if self.layout.fingerprints {
                self.persist_fingerprints(staged);
            }
        }
        let bm = (self.bitmap() & !retired) | staged;
        self.commit_bitmap(bm);
        bm
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
        self.find_slot_in::<K>(&self.read_head(), key)
    }

    /// Reads the head — bitmap and fingerprints — once and charges it.
    /// [`Leaf::find_slot_in`] then probes any number of keys against the
    /// copy, each charging only the slots it inspects.
    pub(crate) fn read_head(&self) -> Head {
        self.touch_head();
        self.load_head()
    }

    /// [`Leaf::read_head`] for a caller that already charged the head.
    fn load_head(&self) -> Head {
        let mut head = Head {
            bitmap: self.bitmap(),
            fps: [0u8; MAX_LEAF_CAPACITY],
        };
        if self.layout.fingerprints {
            self.read_fingerprints(&mut head.fps);
        }
        head
    }

    /// [`Leaf::find_slot`] against `head`, a copy read earlier. Slots
    /// staged since (outside its bitmap) never match.
    pub(crate) fn find_slot_in<K: KeyKind>(&self, head: &Head, key: &K::Owned) -> Option<usize> {
        let bitmap = head.bitmap;
        if self.layout.fingerprints {
            let fp = K::fingerprint(key);
            let mut cand = fp_match_mask(&head.fps[..self.layout.m], fp) & bitmap;
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

    /// Largest key among the valid slots. Recovery's discriminator for the
    /// inner rebuild is the larger of this and the census's largest
    /// buffered key ([`WbufCensus::max`]).
    pub fn max_slot_key<K: KeyKind>(&self) -> Option<K::Owned> {
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
    /// crash image may carry any digest bytes, stale or torn) and returns
    /// the walk's live count.
    pub(crate) fn digest_rebuild(&self) -> usize {
        let walk = self.wbuf_walk();
        self.digest_store(&walk.fps, walk.live);
        walk.live
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
    /// value and where it sits. Charges the head — every leaf access reads
    /// it; the digest sits in its transient tail — then the buffer region
    /// only at a matching entry (a walked view already paid for the whole
    /// prefix), then what the slot probe inspects.
    pub(crate) fn find_merged<K: KeyKind>(
        &self,
        key: &K::Owned,
        view: &WbufView,
    ) -> Option<(u64, Where)> {
        self.touch_head();
        if let Some(i) = self.wbuf_probe::<K>(key, view) {
            return Some((self.wbuf_value(i), Where::Entry));
        }
        let slot = self.find_slot_in::<K>(&self.load_head(), key)?;
        Some((self.value(slot), Where::Slot(slot)))
    }

    /// The newest live entry under `view` that holds `key`: only entries
    /// whose digest fingerprint matches are read, and each is charged
    /// unless the view was walked. The head is the caller's to charge.
    pub(crate) fn wbuf_probe<K: KeyKind>(&self, key: &K::Owned, view: &WbufView) -> Option<usize> {
        let l = self.layout;
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
                return Some(i);
            }
        }
        None
    }

    /// Merged point lookup: [`Leaf::find_merged`]'s value under the digest.
    pub fn find_merged_value<K: KeyKind>(&self, key: &K::Owned) -> Option<u64> {
        self.find_merged::<K>(key, &self.wbuf_view())
            .map(|(v, _)| v)
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

    /// True when one of the entries in the mask `entries` holds `key`.
    /// Charges nothing: the census compares against entries it read itself.
    fn entries_hold<K: KeyKind>(&self, mut entries: u64, key: &K::Owned) -> bool {
        while entries != 0 {
            let j = entries.trailing_zeros() as usize;
            entries &= entries - 1;
            if K::slot_matches(self.pool, self.wbuf_key_off(j), key) {
                return true;
            }
        }
        false
    }

    /// The one pass over the first `live` buffer entries, newest first:
    /// each distinct key's newest entry wins and shadows older ones, and
    /// each winner probes one read of the head for its slot and whether
    /// that slot already holds it. Charges the head once and the slots
    /// those probes inspect; an empty buffer charges nothing.
    pub(crate) fn wbuf_census<K: KeyKind>(&self, live: usize) -> WbufCensus<K> {
        let mut census = WbufCensus {
            winners: 0,
            shadowed: 0,
            stage: 0,
            slot: [None; MAX_LEAF_CAPACITY],
            fresh: 0,
            max: None,
        };
        if live == 0 {
            return census;
        }
        let head = self.read_head();
        for e in (0..live).rev() {
            let key = K::read_slot(self.pool, self.wbuf_key_off(e));
            if self.entries_hold::<K>(census.winners, &key) {
                census.shadowed |= 1 << e;
                continue;
            }
            census.winners |= 1 << e;
            match self.find_slot_in::<K>(&head, &key) {
                None => census.fresh += 1,
                Some(s) => census.slot[e] = Some(s as u8),
            }
            if census.slot[e].is_none_or(|s| !self.slot_holds_entry(s as usize, e)) {
                census.stage |= 1 << e;
            }
            if census.max.as_ref().is_none_or(|m| key > *m) {
                census.max = Some(key);
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

    /// Folds the live buffer into regular slots (compaction): stages what
    /// the census says — each distinct key's newest value, into a free slot
    /// — and commits it through [`Leaf::commit_slots`], retiring the keys'
    /// old slots; then p-atomically bumps the generation word, which
    /// invalidates every buffer entry at once, and finally releases
    /// superseded resources. Idempotent across a crash at any point:
    /// re-folding skips entries whose bytes already sit in a slot, and the
    /// recovery audits resolve every partially-staged state.
    ///
    /// The census charges the head once plus the slots its fingerprint
    /// hits inspect. Staging works in `u64` masks (W ≤ 64, m ≤ 64) and
    /// touches no heap.
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
        let census = self.wbuf_census::<K>(live);
        // Newest winner first into the lowest free slot.
        let (mut free, mut staged, mut retired) = (self.free_slots(), 0u64, 0u64);
        for e in bits_newest_first(census.stage) {
            if let Some(s) = census.slot[e] {
                retired |= 1 << s;
            }
            staged |= self.stage_copy(
                &mut free,
                self.wbuf_key_off(e),
                self.wbuf_value(e),
                self.wbuf_fp(e),
            );
        }
        if staged != 0 {
            self.commit_slots(staged, retired);
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
        // entries' blobs. Both newest first.
        for e in bits_newest_first(census.stage) {
            if let Some(s) = census.slot[e] {
                K::release_slot(self.pool, self.key_off(s as usize));
            }
        }
        for e in bits_newest_first(census.shadowed) {
            K::release_slot(self.pool, self.wbuf_key_off(e));
        }
        // Every winner's key field now duplicates its slot's pointer; zero
        // them so no dead entry outlives the blob it references (a later
        // remove may free it). Plain single-word stores + one coalesced
        // persist; a crash inside this window is resolved by recovery's
        // dead-entry audit (the pointers still duplicate live slots).
        if K::IS_VAR {
            let mut ranges = Ranges::default();
            for e in bits_newest_first(census.winners) {
                let koff = self.wbuf_key_off(e);
                for w in 0..l.key_slot / 8 {
                    self.pool.write_word(koff + 8 * w as u64, 0);
                }
                ranges.push(koff, l.key_slot);
            }
            self.persist_merged(ranges.as_mut_slice());
        }
    }
}

/// Takes the lowest set bit out of `free` and returns its index.
fn take_lowest(free: &mut u64) -> usize {
    assert!(*free != 0, "no free slot to stage into");
    let s = free.trailing_zeros() as usize;
    *free &= *free - 1;
    s
}

/// The set bits of `mask`, highest first: buffer entries newest first.
fn bits_newest_first(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        if mask == 0 {
            return None;
        }
        let i = 63 - mask.leading_zeros() as usize;
        mask &= !(1 << i);
        Some(i)
    })
}

/// The contiguous runs of set bits in `mask`, lowest first, as
/// `(first index, length)`.
fn slot_runs(mut mask: u64) -> impl Iterator<Item = (usize, usize)> {
    std::iter::from_fn(move || {
        if mask == 0 {
            return None;
        }
        let lo = mask.trailing_zeros();
        let n = (mask >> lo).trailing_ones();
        // Adding the lowest set bit carries through the run and clears it.
        mask &= mask.wrapping_add(1 << lo);
        Some((lo as usize, n as usize))
    })
}

/// Byte ranges for [`Leaf::persist_merged`], on the stack: one per buffer
/// entry, or one per run of slots (two with split arrays) — a 64-bit mask
/// holds at most 32 runs — so never more than `MAX_LEAF_CAPACITY`.
struct Ranges {
    buf: [(u64, usize); MAX_LEAF_CAPACITY],
    len: usize,
}

impl Default for Ranges {
    fn default() -> Self {
        Ranges {
            buf: [(0, 0); MAX_LEAF_CAPACITY],
            len: 0,
        }
    }
}

impl Ranges {
    fn push(&mut self, off: u64, len: usize) {
        self.buf[self.len] = (off, len);
        self.len += 1;
    }

    fn as_mut_slice(&mut self) -> &mut [(u64, usize)] {
        &mut self.buf[..self.len]
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

    /// Commits `key` into `slot`, which must be the lowest free one.
    fn insert_fixed(leaf: &Leaf<'_>, slot: usize, key: u64, val: u64) {
        let mut free = leaf.free_slots();
        let staged = leaf.stage_key::<FixedKey>(&mut free, &key, val);
        assert_eq!(staged, 1 << slot);
        leaf.commit_slots(staged, 0);
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
        assert_eq!(leaf.free_slots().trailing_zeros(), 2);
        assert!(!leaf.is_full());
        leaf.commit_bitmap(layout.full_bitmap());
        assert!(leaf.is_full());
        assert_eq!(leaf.free_slots(), 0);
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
        for (i, k) in [5u64, 3, 8].iter().enumerate() {
            insert_fixed(&leaf, i, *k, k + 100);
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
        assert!(leaf.max_slot_key::<FixedKey>().is_none());
        for (i, k) in [50u64, 10, 90, 30].iter().enumerate() {
            insert_fixed(&leaf, i, *k, 0);
        }
        let entries = leaf.collect_entries::<FixedKey>();
        assert_eq!(entries.len(), 4);
        assert_eq!(leaf.max_slot_key::<FixedKey>(), Some(90));
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

    /// The slot mask of `slots`.
    fn mask(slots: &[usize]) -> u64 {
        slots.iter().fold(0, |m, s| m | 1 << s)
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
            leaf.persist_slots(mask(slots));
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
        leaf.persist_slots(mask(&[i, i + 2]));
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
            leaf.persist_fingerprints(mask(slots));
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
        assert_eq!(leaf.wbuf_census::<FixedKey>(2).fresh, 1);
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
    fn census_reports_the_largest_buffered_key() {
        let (pool, layout, off) = setup();
        let leaf = Leaf::new(&pool, &layout, off);
        assert!(leaf.wbuf_census::<FixedKey>(0).max.is_none());
        insert_fixed(&leaf, 0, 50, 500);
        leaf.wbuf_append::<FixedKey>(0, &99, 990);
        leaf.wbuf_append::<FixedKey>(1, &20, 200);
        // Recovery's discriminator is the larger of the two: a live
        // buffered key is part of the leaf's key set.
        let census = leaf.wbuf_census::<FixedKey>(2);
        assert_eq!((census.max, census.fresh), (Some(99), 2));
        assert_eq!(leaf.max_slot_key::<FixedKey>(), Some(50));
        leaf.wbuf_fold::<FixedKey>();
        assert_eq!(leaf.wbuf_count(), 0);
        assert_eq!(leaf.max_slot_key::<FixedKey>(), Some(99));
    }

    #[test]
    fn crashed_fold_is_a_live_census_that_stages_nothing() {
        let (pool, layout, off) = setup();
        let leaf = Leaf::new(&pool, &layout, off);
        assert!(!leaf.wbuf_census::<FixedKey>(0).crashed_fold());
        insert_fixed(&leaf, 0, 7, 70);
        for (i, (k, v)) in [(42u64, 420u64), (7, 71), (42, 421)]
            .into_iter()
            .enumerate()
        {
            leaf.wbuf_append::<FixedKey>(i, &k, v);
        }
        let census = leaf.wbuf_census::<FixedKey>(3);
        assert_eq!(
            (census.winners, census.shadowed, census.stage),
            (0b110, 0b001, 0b110)
        );
        assert_eq!((census.slot[1], census.slot[2]), (Some(0), None));
        assert_eq!((census.fresh, census.max), (1, Some(42)));
        assert!(!census.crashed_fold());
        // A fold that crashed after its bitmap commit staged every winner
        // (here in two commits, checking the census in between) and never
        // bumped the generation.
        let stage = |e: usize, retired: u64| {
            let from = leaf.wbuf_key_off(e);
            let staged = leaf.stage_copy(
                &mut leaf.free_slots(),
                from,
                leaf.wbuf_value(e),
                leaf.wbuf_fp(e),
            );
            leaf.commit_slots(staged, retired);
        };
        stage(2, 0);
        let census = leaf.wbuf_census::<FixedKey>(3);
        assert_eq!(
            (census.stage, census.slot[2], census.fresh),
            (0b010, Some(1), 0)
        );
        assert!(!census.crashed_fold(), "entry 1 still stages");
        stage(1, 1 << 0);
        let census = leaf.wbuf_census::<FixedKey>(3);
        assert_eq!((census.stage, census.fresh), (0, 0));
        assert!(census.crashed_fold());
        // Finishing it stages nothing more: the generation bump ends it.
        let gen = leaf.wbuf_gen();
        leaf.wbuf_fold::<FixedKey>();
        assert_eq!(
            (leaf.wbuf_gen(), leaf.wbuf_count(), leaf.count()),
            (gen + 1, 0, 2)
        );
        assert_eq!(leaf.find_merged_value::<FixedKey>(&7), Some(71));
        assert_eq!(leaf.find_merged_value::<FixedKey>(&42), Some(421));
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
        for (i, k) in [5u64, 3, 8].iter().enumerate() {
            insert_fixed(&leaf, i, *k, k + 100);
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
        insert_fixed(&leaf2, 0, 7, 70);
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
    fn fold_and_census_read_the_head_once() {
        use crate::keys::KeyKind;
        let (pool, layout, off) = setup();
        let leaf = Leaf::new(&pool, &layout, off);
        let head = span_lines(off, layout.head_len());
        let slot_lines =
            |s: usize| span_lines(leaf.key_off(s), layout.key_slot + layout.value_size);
        insert_fixed(&leaf, 0, 7, 70);
        insert_fixed(&leaf, 1, 8, 80);
        // Buffered: two fresh keys without a fingerprint hit, an update of
        // slot key 7 (a hit that matches), and a key sharing slot 8's
        // fingerprint (a hit that does not).
        let a = key_without_collision(&[7, 8]);
        let b = key_without_collision(&[7, 8, a]);
        let alias = (1u64 << 40..)
            .find(|&k| k != 8 && FixedKey::fingerprint(&k) == FixedKey::fingerprint(&8))
            .expect("256 fingerprints");
        for (i, k) in [a, 7, b, alias].iter().enumerate() {
            leaf.wbuf_append::<FixedKey>(i, k, k + 1);
        }
        // One head line for all four keys, plus the two slots hit.
        let want = head + slot_lines(0) + slot_lines(1);
        let (census, lines) = lines_of(&pool, || leaf.wbuf_census::<FixedKey>(4));
        assert_eq!((census.fresh, census.crashed_fold()), (3, false));
        assert_eq!(lines, want, "census");
        let ((), lines) = lines_of(&pool, || leaf.wbuf_fold::<FixedKey>());
        assert_eq!(lines, want, "fold");
        assert_eq!((leaf.count(), leaf.wbuf_count()), (5, 0));
        for k in [a, 7, b, alias] {
            assert_eq!(leaf.find_merged_value::<FixedKey>(&k), Some(k + 1));
        }
        assert_eq!(leaf.find_merged_value::<FixedKey>(&8), Some(80));
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
