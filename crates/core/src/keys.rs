//! Key representation: fixed-size (u64) and variable-size (byte string).
//!
//! The paper implements every tree in two variants: fixed 8-byte keys stored
//! inline in the leaf, and variable-size keys where the leaf slot holds a
//! persistent pointer to a separately allocated key blob (Appendix C). The
//! [`KeyKind`] trait captures the difference so each tree algorithm is
//! written once:
//!
//! * writing a variable-size key *allocates* persistent memory with the leaf
//!   slot itself as the owner pointer (the allocator persists the blob
//!   address into the slot before returning — the leak-prevention interface);
//! * clearing a slot either deallocates the blob (delete path) or resets the
//!   pointer without deallocation (update / split dead-slot path, where the
//!   blob ownership moved to another slot);
//! * probing a variable-size key costs an extra SCM cache miss to
//!   dereference the blob — the reason fingerprints pay off even more for
//!   string keys (§6.2);
//! * a DRAM inner node stores a fixed key as its own word, and a byte
//!   string as one order-preserving word past the prefix the node keeps
//!   ([`var_word`]), so its search compares integers either way
//!   (`crate::node`).

use fptree_pmem::{PmemPool, RawPPtr};

use crate::fingerprint::{fingerprint_bytes, fingerprint_u64};

/// Strategy object for key storage inside leaves.
pub trait KeyKind: 'static {
    /// Owned key type used in volatile inner nodes and the public API.
    type Owned: Ord + Clone + std::fmt::Debug + Send + Sync;

    /// Bytes per key slot in a leaf.
    const SLOT_SIZE: usize;

    /// Whether this kind stores keys out-of-line (drives the recovery-time
    /// leak audit of Algorithm 17). Inner nodes of such keys also keep a
    /// prefix, and the full bytes of discriminators whose words may tie.
    const IS_VAR: bool;

    /// One-byte fingerprint.
    fn fingerprint(key: &Self::Owned) -> u8;

    /// Writes `key` into the slot at `slot_off`. Any *out-of-line* data it
    /// creates (the variable-key blob, and its owner pointer in the slot)
    /// is persisted before returning; the slot region itself is persisted
    /// by the caller together with the value.
    fn write_slot(pool: &PmemPool, slot_off: u64, key: &Self::Owned);

    /// Reads the slot back as an owned key. The slot must be valid.
    fn read_slot(pool: &PmemPool, slot_off: u64) -> Self::Owned;

    /// True if the slot currently holds exactly `key`.
    fn slot_matches(pool: &PmemPool, slot_off: u64, key: &Self::Owned) -> bool;

    /// Charges SCM read latency for probing this slot's key beyond the KV
    /// slot itself (variable keys: the blob dereference).
    fn touch_key(pool: &PmemPool, slot_off: u64);

    /// Delete path: releases the key (variable: deallocates the blob,
    /// persistently nulling the slot). No-op for fixed keys.
    fn release_slot(pool: &PmemPool, slot_off: u64);

    /// Resets the slot *without* deallocating (ownership moved elsewhere:
    /// update old slot, split dead slots). Persists. No-op for fixed keys.
    fn reset_slot(pool: &PmemPool, slot_off: u64);

    /// Raw persistent reference held by the slot, for cross-slot identity
    /// checks during the audit (Algorithm 17's `KeyExists`). Fixed keys
    /// return null.
    fn slot_ref(pool: &PmemPool, slot_off: u64) -> RawPPtr;

    /// Encodes `key` into one inner-node word, read past the first `skip`
    /// bytes: the prefix its inner node keeps. A fixed key is its own word
    /// (its nodes keep no prefix, so `skip` is 0); a byte string is
    /// [`var_word`] of its bytes past the prefix.
    fn encode(key: &Self::Owned, skip: usize) -> u64;

    /// The key's bytes: what an inner node of byte-string keys compares
    /// with its prefix and keeps whole for ties. Empty for fixed keys,
    /// whose nodes need neither.
    fn bytes(key: &Self::Owned) -> &[u8];

    /// The key an inner node hands back for a discriminator: a fixed key's
    /// `word`, or the byte string `bytes` the node rebuilt.
    fn decode(word: u64, bytes: Vec<u8>) -> Self::Owned;
}

/// Low byte of a byte-string word whose key runs more than 7 bytes past
/// its node's prefix. Two such words with the same first 7 bytes tie.
pub(crate) const WORD_LONG: u64 = 8;

/// The inner-node word of `rest`, a byte-string key's bytes past its
/// node's prefix: the first 7 bytes big-endian and zero-padded, then one
/// byte `min(rest.len(), 8)`.
///
/// Integer order is key order. Where the 7-byte windows differ, the first
/// differing byte decides, or the zero padding of the shorter key, which
/// is below every byte the longer key holds there unless that byte is 0
/// too. Where they agree, the length byte decides: a shorter key is then a
/// prefix of the longer one. Equal words therefore stand for equal keys,
/// except when both end in [`WORD_LONG`]: both keys run past the window,
/// and only their full bytes can order them.
#[inline]
pub(crate) fn var_word(rest: &[u8]) -> u64 {
    let mut b = [0u8; 8];
    let n = rest.len().min(7);
    b[..n].copy_from_slice(&rest[..n]);
    b[7] = rest.len().min(WORD_LONG as usize) as u8;
    u64::from_be_bytes(b)
}

/// Fixed-size 8-byte integer keys, stored inline.
pub struct FixedKey;

impl KeyKind for FixedKey {
    type Owned = u64;
    const SLOT_SIZE: usize = 8;
    const IS_VAR: bool = false;

    #[inline]
    fn encode(key: &u64, _skip: usize) -> u64 {
        *key
    }

    #[inline]
    fn bytes(_key: &u64) -> &[u8] {
        &[]
    }

    #[inline]
    fn decode(word: u64, _bytes: Vec<u8>) -> u64 {
        word
    }

    #[inline]
    fn fingerprint(key: &u64) -> u8 {
        fingerprint_u64(*key)
    }

    #[inline]
    fn write_slot(pool: &PmemPool, slot_off: u64, key: &u64) {
        pool.write_word(slot_off, *key);
    }

    #[inline]
    fn read_slot(pool: &PmemPool, slot_off: u64) -> u64 {
        pool.read_word(slot_off)
    }

    #[inline]
    fn slot_matches(pool: &PmemPool, slot_off: u64, key: &u64) -> bool {
        pool.read_word(slot_off) == *key
    }

    #[inline]
    fn touch_key(_pool: &PmemPool, _slot_off: u64) {
        // Inline key: covered by the KV-slot touch the caller performs.
    }

    #[inline]
    fn release_slot(_pool: &PmemPool, _slot_off: u64) {}

    #[inline]
    fn reset_slot(_pool: &PmemPool, _slot_off: u64) {}

    #[inline]
    fn slot_ref(_pool: &PmemPool, _slot_off: u64) -> RawPPtr {
        RawPPtr::NULL
    }
}

/// Variable-size byte-string keys: the slot holds a 16-byte persistent
/// pointer to a `[len: u64][bytes]` blob.
pub struct VarKey;

impl VarKey {
    /// Largest plausible key; anything bigger is treated as garbage from an
    /// optimistic read racing a writer (the caller's validation rejects the
    /// whole operation afterwards).
    const MAX_KEY_LEN: usize = 1 << 16;

    /// Bytes [`KeyKind::slot_matches`] compares per read: keys up to this
    /// long compare in one read, longer ones chunk by chunk.
    const MATCH_CHUNK: usize = 64;

    /// Blob length if the pointer and length are plausible.
    ///
    /// Optimistic readers in the concurrent tree may chase a stale pointer
    /// into recycled memory; every read here is clamped so the worst
    /// outcome is a wrong comparison (discarded on validation), never a
    /// panic or out-of-bounds access.
    fn checked_len(pool: &PmemPool, p: RawPPtr) -> Option<usize> {
        if p.is_null() || !p.offset.is_multiple_of(8) {
            return None;
        }
        let cap = pool.capacity() as u64;
        if p.offset + 8 > cap {
            return None;
        }
        let len = pool.read_word(p.offset) as usize;
        if len > Self::MAX_KEY_LEN || p.offset + 8 + len as u64 > cap {
            return None;
        }
        Some(len)
    }

    /// Reads the blob a slot points to; empty on null/garbage.
    fn read_blob(pool: &PmemPool, slot_off: u64) -> Vec<u8> {
        let p: RawPPtr = pool.read_at(slot_off);
        let Some(len) = Self::checked_len(pool, p) else {
            return Vec::new();
        };
        let mut buf = vec![0u8; len];
        pool.read_bytes(p.offset + 8, &mut buf);
        buf
    }
}

impl KeyKind for VarKey {
    type Owned = Vec<u8>;
    const SLOT_SIZE: usize = 16;
    const IS_VAR: bool = true;

    #[inline]
    fn encode(key: &Vec<u8>, skip: usize) -> u64 {
        var_word(&key[skip..])
    }

    #[inline]
    fn bytes(key: &Vec<u8>) -> &[u8] {
        key
    }

    #[inline]
    fn decode(_word: u64, bytes: Vec<u8>) -> Vec<u8> {
        bytes
    }

    #[inline]
    fn fingerprint(key: &Vec<u8>) -> u8 {
        fingerprint_bytes(key)
    }

    fn write_slot(pool: &PmemPool, slot_off: u64, key: &Vec<u8>) {
        // The allocator persistently publishes the blob address into the
        // slot before returning (leak-prevention interface, §2).
        let blob = pool
            .allocate(slot_off, 8 + key.len())
            .expect("persistent pool exhausted while allocating a key");
        pool.write_word(blob, key.len() as u64);
        pool.write_bytes(blob + 8, key);
        pool.persist(blob, 8 + key.len());
    }

    fn read_slot(pool: &PmemPool, slot_off: u64) -> Vec<u8> {
        Self::read_blob(pool, slot_off)
    }

    fn slot_matches(pool: &PmemPool, slot_off: u64, key: &Vec<u8>) -> bool {
        let p: RawPPtr = pool.read_at(slot_off);
        let Some(len) = Self::checked_len(pool, p) else {
            return false;
        };
        if len != key.len() {
            return false;
        }
        // Compared in place through a stack chunk: no allocation per probe.
        let mut chunk = [0u8; Self::MATCH_CHUNK];
        let mut at = p.offset + 8;
        key.chunks(Self::MATCH_CHUNK).all(|want| {
            let got = &mut chunk[..want.len()];
            pool.read_bytes(at, got);
            at += want.len() as u64;
            got == want
        })
    }

    #[inline]
    fn touch_key(pool: &PmemPool, slot_off: u64) {
        let p: RawPPtr = pool.read_at(slot_off);
        if let Some(len) = Self::checked_len(pool, p) {
            pool.touch_read(p.offset, 8 + len);
        }
    }

    fn release_slot(pool: &PmemPool, slot_off: u64) {
        pool.deallocate(slot_off);
    }

    fn reset_slot(pool: &PmemPool, slot_off: u64) {
        pool.write_publish_at(slot_off, &RawPPtr::NULL);
        pool.persist(slot_off, 16);
    }

    fn slot_ref(pool: &PmemPool, slot_off: u64) -> RawPPtr {
        pool.read_at(slot_off)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fptree_pmem::{PoolOptions, USER_BASE};

    fn pool() -> PmemPool {
        PmemPool::create(PoolOptions::direct(1 << 20)).unwrap()
    }

    #[test]
    fn fixed_key_roundtrip() {
        let p = pool();
        let slot = USER_BASE + 64;
        FixedKey::write_slot(&p, slot, &12345);
        assert_eq!(FixedKey::read_slot(&p, slot), 12345);
        assert!(FixedKey::slot_matches(&p, slot, &12345));
        assert!(!FixedKey::slot_matches(&p, slot, &12346));
        assert!(FixedKey::slot_ref(&p, slot).is_null());
    }

    #[test]
    fn var_key_roundtrip_allocates_blob() {
        let p = pool();
        // The slot must itself live in allocated persistent memory; carve a
        // block for it.
        let holder = USER_BASE + 16;
        let block = p.allocate(holder, 64).unwrap();
        let slot = block;
        let key = b"hello world, this is a longish key".to_vec();
        VarKey::write_slot(&p, slot, &key);
        assert!(!VarKey::slot_ref(&p, slot).is_null());
        assert_eq!(VarKey::read_slot(&p, slot), key);
        assert!(VarKey::slot_matches(&p, slot, &key));
        assert!(!VarKey::slot_matches(&p, slot, &b"hello".to_vec()));
        // The blob is a live allocation owned by the slot.
        let live = p.live_blocks().unwrap();
        assert_eq!(live.len(), 2); // holder block + key blob
    }

    #[test]
    fn var_key_release_deallocates() {
        let p = pool();
        let holder = USER_BASE + 16;
        let slot = p.allocate(holder, 64).unwrap();
        VarKey::write_slot(&p, slot, &b"k".to_vec());
        VarKey::release_slot(&p, slot);
        assert!(VarKey::slot_ref(&p, slot).is_null());
        assert_eq!(p.live_blocks().unwrap().len(), 1); // only the holder
    }

    #[test]
    fn var_key_reset_keeps_blob_alive() {
        let p = pool();
        let holder = USER_BASE + 16;
        let slot = p.allocate(holder, 128).unwrap();
        let slot2 = slot + 16;
        VarKey::write_slot(&p, slot, &b"moved".to_vec());
        // Simulate an update: copy the pointer, reset the old slot.
        let r: RawPPtr = p.read_at(slot);
        p.write_at(slot2, &r);
        p.persist(slot2, 16);
        VarKey::reset_slot(&p, slot);
        assert!(VarKey::slot_ref(&p, slot).is_null());
        assert_eq!(VarKey::read_slot(&p, slot2), b"moved".to_vec());
        assert_eq!(p.live_blocks().unwrap().len(), 2); // holder + blob
    }

    #[test]
    fn slot_refs_identify_shared_blobs() {
        let p = pool();
        let holder = USER_BASE + 16;
        let slot = p.allocate(holder, 128).unwrap();
        let slot2 = slot + 16;
        VarKey::write_slot(&p, slot, &b"x".to_vec());
        let r = VarKey::slot_ref(&p, slot);
        p.write_at(slot2, &r);
        assert_eq!(VarKey::slot_ref(&p, slot2), r);
        assert_eq!(FixedKey::slot_ref(&p, slot), RawPPtr::NULL);
    }

    /// Word order is byte order over adversarial pairs: the zero-padding
    /// trap (`ab` < `ab\0`), keys that are prefixes of each other, the
    /// empty key, and 7- and 8-byte windows that tie.
    #[test]
    fn var_words_preserve_order_and_tie_only_past_the_window() {
        let keys: Vec<&[u8]> = vec![
            b"",
            b"\0",
            b"\0\0",
            b"a",
            b"ab",
            b"ab\0",
            b"ab\0\0\0\0\0",
            b"ab\0\0\0\0\0\0",
            b"ab\0\0\0\0\0\0\0",
            b"ab\x01",
            b"abcdefg",
            b"abcdefg\0",
            b"abcdefgh",
            b"abcdefghi",
            b"abcdefgz",
            b"abcdefh",
            b"\xff\xff\xff\xff\xff\xff\xff",
            b"\xff\xff\xff\xff\xff\xff\xff\xff\xff",
        ];
        for a in &keys {
            for b in &keys {
                let (wa, wb) = (var_word(a), var_word(b));
                let long = wa & 0xff == WORD_LONG && wb & 0xff == WORD_LONG;
                if wa == wb && long {
                    assert_eq!(a[..7], b[..7], "{a:?} {b:?}");
                } else {
                    assert_eq!(wa.cmp(&wb), a.cmp(b), "{a:?} vs {b:?}");
                }
            }
        }
        let skip = b"key:0000".len();
        assert_eq!(
            VarKey::encode(&b"key:00001234".to_vec(), skip),
            var_word(b"1234")
        );
        assert_eq!(FixedKey::encode(&7, 0), 7);
    }

    #[test]
    fn empty_var_key_is_representable() {
        let p = pool();
        let holder = USER_BASE + 16;
        let slot = p.allocate(holder, 64).unwrap();
        VarKey::write_slot(&p, slot, &Vec::new());
        assert_eq!(VarKey::read_slot(&p, slot), Vec::<u8>::new());
        assert!(VarKey::slot_matches(&p, slot, &Vec::new()));
    }

    /// The in-place compare against a tracked pool: it sees bytes not yet
    /// flushed (a CPU reads its own cache), compares keys longer than one
    /// chunk to their last byte, rejects a length mismatch before reading
    /// the bytes, and matches the empty key; and it charges no line.
    #[test]
    fn var_key_compares_in_place_on_a_tracked_pool() {
        let p = PmemPool::create(PoolOptions::tracked(1 << 20)).unwrap();
        let slot = p.allocate(USER_BASE + 16, 64).unwrap();
        let long: Vec<u8> = (0..VarKey::MATCH_CHUNK * 3 + 5).map(|i| i as u8).collect();
        for key in [b"short".to_vec(), long, Vec::new()] {
            VarKey::write_slot(&p, slot, &key);
            let reads = p.stats().snapshot().read_lines;
            assert!(VarKey::slot_matches(&p, slot, &key), "len {}", key.len());
            let mut longer = key.clone();
            longer.push(0);
            assert!(!VarKey::slot_matches(&p, slot, &longer), "length mismatch");
            if let Some(last) = key.len().checked_sub(1) {
                let mut other = key.clone();
                other[last] ^= 1;
                assert!(!VarKey::slot_matches(&p, slot, &other), "last byte");
                assert!(!VarKey::slot_matches(&p, slot, &key[..last].to_vec()));
            }
            assert_eq!(
                p.stats().snapshot().read_lines,
                reads,
                "compares charge nothing"
            );
            VarKey::release_slot(&p, slot);
        }
        // An unflushed rewrite of the blob's bytes is what the compare sees.
        VarKey::write_slot(&p, slot, &b"cached".to_vec());
        let blob = VarKey::slot_ref(&p, slot).offset;
        p.write_bytes(blob + 8, b"CACHED");
        assert!(VarKey::slot_matches(&p, slot, &b"CACHED".to_vec()));
        assert!(!VarKey::slot_matches(&p, slot, &b"cached".to_vec()));
        assert_eq!(p.dirty_lines(), 1, "the rewrite is still unflushed");
    }
}
