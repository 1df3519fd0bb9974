//! Runtime-parameterized leaf node layout.
//!
//! Leaf nodes live in SCM and are addressed by byte offsets, so their layout
//! is computed at tree-construction time from the [`TreeConfig`] — node-size
//! sweeps (Table 1) and payload sweeps (Appendix A) reconfigure it without
//! recompiling. Layout of an FPTree leaf (paper Figure 2):
//!
//! ```text
//! | bitmap (8) | fingerprints (m) | pad | next PPtr (16) | lock word (8) |
//! | reserved (16, never read) | buffer digest (16, transient) | KV area |
//! ```
//!
//! With m = 56 and fixed keys, bitmap + fingerprints exactly fill the first
//! cache line — the leaf head a search must always read. The PTree variant
//! drops fingerprints and splits the KV area into a key array followed by a
//! value array (better locality for its linear key scans).
//!
//! When [`TreeConfig::wbuf_entries`] > 0 the KV area is followed by the
//! persistent append buffer (§5.12): an 8-byte generation word, then W
//! entries of `| tag (8) | key slot | value |`. Single-key writes land here
//! with one multi-word publish; the tag embeds a checksum over the entry and
//! the leaf generation, so recovery self-validates each entry. The live
//! entries' fingerprints and their count are mirrored in the transient
//! buffer digest in the leaf head (§5.16): `ceil(W/8)` fingerprint words
//! and a tag word, 16 bytes for W ≤ 8, which is what every preset uses.

use crate::config::TreeConfig;
use fptree_pmem::CACHE_LINE;

/// Reserved bytes between the lock word and the digest, never read: images
/// written before PR 22 keep a successor-sentinel record here (§5.13), and
/// `off_digest`, `off_kv` and every preset size stay where those images
/// have them. Reclaimed at the format bump that retires meta flag bit 3.
const RESERVED_GAP_BYTES: usize = 16;

/// Transient bytes every leaf keeps for the digest, buffer or not: the
/// digest of a W ≤ 8 buffer, so `off_kv` — and with it every persistent
/// offset of an existing pool image — is the same for all of them.
const DIGEST_MIN_BYTES: usize = 16;

/// Byte offsets of every leaf field, precomputed from a [`TreeConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeafLayout {
    /// Entries per leaf (m).
    pub m: usize,
    /// Bytes per key slot: 8 for fixed u64 keys, 16 for a persistent pointer
    /// to a variable-size key.
    pub key_slot: usize,
    /// Bytes reserved per value.
    pub value_size: usize,
    /// Whether a fingerprint array is present.
    pub fingerprints: bool,
    /// Whether keys and values form separate arrays (PTree).
    pub split_arrays: bool,
    /// Offset of the validity bitmap (always 0; 8-byte p-atomic word).
    pub off_bitmap: usize,
    /// Offset of the fingerprint array (m bytes; unused if disabled).
    pub off_fps: usize,
    /// Offset of the 16-byte persistent next pointer.
    pub off_next: usize,
    /// Offset of the 8-byte transient lock/version word.
    pub off_lock: usize,
    /// Offset of the transient append-buffer digest: `digest_fp_words()`
    /// words holding the live entries' fingerprint bytes, then the tag word
    /// `| checksum (48) | live (8) | marker (8) |`. Written by whoever
    /// changes the buffer, only read by lookups, rebuilt by recovery.
    pub off_digest: usize,
    /// Offset of the KV area.
    pub off_kv: usize,
    /// Entries in the persistent append buffer (0 = no buffer).
    pub wbuf_entries: usize,
    /// Offset of the append-buffer region: the generation word, followed by
    /// `wbuf_entries` tagged entries. Equals the end of the KV area even
    /// when the buffer is disabled (region length 0).
    pub off_wbuf: usize,
    /// Total leaf size, rounded up to a cache line.
    pub size: usize,
}

impl LeafLayout {
    /// Computes the layout for `cfg` with the given key slot width.
    pub fn new(cfg: &TreeConfig, key_slot: usize) -> LeafLayout {
        cfg.validate();
        let m = cfg.leaf_capacity;
        let off_bitmap = 0usize;
        let off_fps = 8;
        let fps_len = if cfg.fingerprints { m } else { 0 };
        // Next pointer 8-byte aligned after the fingerprints.
        let off_next = (off_fps + fps_len + 7) & !7;
        let off_lock = off_next + 16;
        let off_digest = off_lock + 8 + RESERVED_GAP_BYTES;
        let digest_len = if cfg.wbuf_entries > 0 {
            8 * (cfg.wbuf_entries.div_ceil(8) + 1)
        } else {
            0
        };
        // KV area 8-byte aligned after the transient words.
        let off_kv = off_digest + digest_len.max(DIGEST_MIN_BYTES);
        let kv_len = m * (key_slot + cfg.value_size);
        // The KV area is a whole number of 8-byte fields, so off_wbuf (and
        // every buffer entry: 8-byte tag + key slot + value) stays 8-aligned,
        // which the multi-word entry publish requires.
        let off_wbuf = off_kv + kv_len;
        let wbuf_len = if cfg.wbuf_entries > 0 {
            8 + cfg.wbuf_entries * (8 + key_slot + cfg.value_size)
        } else {
            0
        };
        let size = (off_wbuf + wbuf_len + CACHE_LINE - 1) & !(CACHE_LINE - 1);
        LeafLayout {
            m,
            key_slot,
            value_size: cfg.value_size,
            fingerprints: cfg.fingerprints,
            split_arrays: cfg.split_arrays,
            off_bitmap,
            off_fps,
            off_next,
            off_lock,
            off_digest,
            off_kv,
            wbuf_entries: cfg.wbuf_entries,
            off_wbuf,
            size,
        }
    }

    /// Byte offset of slot `i`'s key within the leaf.
    #[inline]
    pub fn key_off(&self, slot: usize) -> usize {
        debug_assert!(slot < self.m);
        if self.split_arrays {
            self.off_kv + slot * self.key_slot
        } else {
            self.off_kv + slot * (self.key_slot + self.value_size)
        }
    }

    /// Byte offset of slot `i`'s value within the leaf.
    #[inline]
    pub fn val_off(&self, slot: usize) -> usize {
        debug_assert!(slot < self.m);
        if self.split_arrays {
            self.off_kv + self.m * self.key_slot + slot * self.value_size
        } else {
            self.off_kv + slot * (self.key_slot + self.value_size) + self.key_slot
        }
    }

    /// Bytes of the leaf head a search always reads: bitmap plus, when
    /// present, the fingerprint array.
    #[inline]
    pub fn head_len(&self) -> usize {
        if self.fingerprints {
            8 + self.m
        } else {
            8
        }
    }

    /// Words of fingerprint bytes in the buffer digest (the tag word
    /// follows them).
    #[inline]
    pub fn digest_fp_words(&self) -> usize {
        self.wbuf_entries.div_ceil(8)
    }

    /// Bytes per append-buffer entry: tag word + key slot + value.
    #[inline]
    pub fn wbuf_entry_size(&self) -> usize {
        8 + self.key_slot + self.value_size
    }

    /// Byte offset of the buffer's generation word.
    #[inline]
    pub fn wbuf_gen_off(&self) -> usize {
        debug_assert!(self.wbuf_entries > 0);
        self.off_wbuf
    }

    /// Byte offset of append-buffer entry `i` (its tag word).
    #[inline]
    pub fn wbuf_entry_off(&self, i: usize) -> usize {
        debug_assert!(i < self.wbuf_entries);
        self.off_wbuf + 8 + i * self.wbuf_entry_size()
    }

    /// Byte offset of entry `i`'s key slot.
    #[inline]
    pub fn wbuf_key_off(&self, i: usize) -> usize {
        self.wbuf_entry_off(i) + 8
    }

    /// Byte offset of entry `i`'s value.
    #[inline]
    pub fn wbuf_val_off(&self, i: usize) -> usize {
        self.wbuf_entry_off(i) + 8 + self.key_slot
    }

    /// Bitmask with the low `m` bits set: a full leaf's bitmap.
    #[inline]
    pub fn full_bitmap(&self) -> u64 {
        if self.m == 64 {
            u64::MAX
        } else {
            (1u64 << self.m) - 1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_leaf_head_fills_one_cache_line() {
        // m = 56 fixed-key FPTree: 8-byte bitmap + 56 fingerprints = 64 B.
        let l = LeafLayout::new(&TreeConfig::fptree(), 8);
        assert_eq!(l.head_len(), 64);
        assert_eq!(l.off_next, 64);
        assert_eq!(l.size % CACHE_LINE, 0);
        // Transient tail of the head: lock word, reserved gap, digest.
        assert_eq!(l.off_lock, l.off_next + 16);
        assert_eq!(l.off_digest, l.off_lock + 8 + RESERVED_GAP_BYTES);
        assert_eq!(l.off_kv, l.off_digest + 8 * (l.digest_fp_words() + 1));
    }

    /// No preset leaf changes size and no field moves: pool images written
    /// by earlier builds keep opening.
    #[test]
    fn preset_sizes_and_kv_offsets_are_pinned() {
        let presets = [
            (TreeConfig::fptree(), 8, 1216, 120),
            (TreeConfig::fptree_concurrent(), 8, 1408, 128),
            (TreeConfig::fptree_var(), 16, 1728, 120),
            (TreeConfig::fptree_concurrent_var(), 16, 1984, 128),
            (TreeConfig::ptree(), 8, 576, 64),
            (TreeConfig::ptree_var(), 16, 832, 64),
        ];
        for (cfg, key_slot, size, off_kv) in presets {
            let l = LeafLayout::new(&cfg, key_slot);
            assert_eq!((l.size, l.off_kv), (size, off_kv), "{cfg:?}");
            assert_eq!((l.off_lock, l.off_digest), (off_kv - 40, off_kv - 16));
        }
        // Every W <= 8 shares the two-word digest; a larger buffer grows
        // the transient area by one word per eight entries.
        let at = |w| LeafLayout::new(&TreeConfig::fptree().with_wbuf_entries(w), 8).off_kv;
        assert!((0..=8).all(|w| at(w) == 120));
        assert_eq!((at(9), at(16), at(64)), (128, 128, 176));
    }

    #[test]
    fn interleaved_offsets_do_not_overlap() {
        // W = 8 is the presets' two-word digest; 20 and 64 grow it.
        for wbuf in [8usize, 20, 64] {
            let cfg = TreeConfig::fptree()
                .with_leaf_capacity(16)
                .with_value_size(24)
                .with_wbuf_entries(wbuf);
            let l = LeafLayout::new(&cfg, 8);
            let mut spans: Vec<(usize, usize)> = vec![
                (l.off_bitmap, 8),
                (l.off_fps, 16),
                (l.off_next, 16),
                (l.off_lock, 8),
                (l.off_lock + 8, RESERVED_GAP_BYTES),
            ];
            // Digest: the fingerprint words, then the tag word.
            for w in 0..=l.digest_fp_words() {
                spans.push((l.off_digest + 8 * w, 8));
            }
            for i in 0..16 {
                spans.push((l.key_off(i), 8));
                spans.push((l.val_off(i), 24));
            }
            assert_eq!(l.wbuf_entries, wbuf);
            spans.push((l.wbuf_gen_off(), 8));
            for i in 0..l.wbuf_entries {
                spans.push((l.wbuf_entry_off(i), 8));
                spans.push((l.wbuf_key_off(i), 8));
                spans.push((l.wbuf_val_off(i), 24));
            }
            spans.sort();
            for w in spans.windows(2) {
                assert!(w[0].0 + w[0].1 <= w[1].0, "overlap: {:?} {:?}", w[0], w[1]);
            }
            assert!(spans.last().unwrap().0 + spans.last().unwrap().1 <= l.size);
        }
    }

    #[test]
    fn split_arrays_group_keys_contiguously() {
        let cfg = TreeConfig::ptree(); // m = 32, split arrays, no fps
        let l = LeafLayout::new(&cfg, 8);
        assert!(!l.fingerprints);
        // Keys are adjacent.
        assert_eq!(l.key_off(1) - l.key_off(0), 8);
        // Values follow the complete key array.
        assert_eq!(l.val_off(0), l.key_off(0) + 32 * 8);
        assert_eq!(l.val_off(1) - l.val_off(0), 8);
    }

    #[test]
    fn var_key_slots_are_sixteen_bytes() {
        let l = LeafLayout::new(&TreeConfig::fptree_var(), 16);
        assert_eq!(l.key_off(1) - l.key_off(0), 16 + 8);
        assert_eq!(l.val_off(0) - l.key_off(0), 16);
    }

    #[test]
    fn wbuf_region_follows_kv_area() {
        let l = LeafLayout::new(&TreeConfig::fptree(), 8);
        assert_eq!(l.off_wbuf, l.off_kv + 56 * 16);
        assert_eq!(l.wbuf_entry_size(), 24);
        assert_eq!(l.wbuf_entry_off(0), l.off_wbuf + 8);
        assert_eq!(l.wbuf_entry_off(1) - l.wbuf_entry_off(0), 24);
        let last = l.wbuf_entry_off(l.wbuf_entries - 1) + l.wbuf_entry_size();
        assert!(last <= l.size);

        // Disabled buffer adds no bytes.
        let off = LeafLayout::new(&TreeConfig::fptree().with_wbuf_entries(0), 8);
        assert_eq!(off.off_wbuf, off.off_kv + 56 * 16);
        assert!(off.size <= l.size);
        assert_eq!(off.wbuf_entries, 0);
    }

    #[test]
    fn full_bitmap_handles_all_capacities() {
        for m in [1usize, 8, 56, 63, 64] {
            let cfg = TreeConfig::fptree().with_leaf_capacity(m);
            let l = LeafLayout::new(&cfg, 8);
            assert_eq!(l.full_bitmap().count_ones() as usize, m);
        }
    }

    #[test]
    fn key_offsets_are_eight_byte_aligned() {
        for m in [3usize, 7, 56, 64] {
            for &(fps, split) in &[(true, false), (false, true), (false, false)] {
                let cfg = TreeConfig {
                    leaf_capacity: m,
                    inner_fanout: 16,
                    value_size: 8,
                    fingerprints: fps,
                    split_arrays: split,
                    leaf_group_size: 0,
                    wbuf_entries: 4,
                };
                for ks in [8usize, 16] {
                    let l = LeafLayout::new(&cfg, ks);
                    for i in 0..m {
                        assert_eq!(l.key_off(i) % 8, 0);
                        assert_eq!(l.val_off(i) % 8, 0);
                    }
                    assert_eq!(l.off_next % 8, 0);
                    assert_eq!(l.wbuf_gen_off() % 8, 0);
                    for i in 0..l.wbuf_entries {
                        assert_eq!(l.wbuf_entry_off(i) % 8, 0);
                        assert_eq!(l.wbuf_key_off(i) % 8, 0);
                        assert_eq!(l.wbuf_val_off(i) % 8, 0);
                    }
                }
            }
        }
    }
}
