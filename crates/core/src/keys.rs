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
//!   string keys (§6.2).

use fptree_pmem::{PmemPool, RawPPtr};

use crate::fingerprint::{fingerprint_bytes, fingerprint_u64};

/// Strategy object for key storage inside leaves.
pub trait KeyKind: 'static {
    /// Owned key type used in volatile inner nodes and the public API.
    type Owned: Ord + Clone + std::fmt::Debug + Send + Sync;

    /// Bytes per key slot in a leaf.
    const SLOT_SIZE: usize;

    /// Whether this kind stores keys out-of-line (drives the recovery-time
    /// leak audit of Algorithm 17).
    const IS_VAR: bool;

    /// One-byte fingerprint.
    fn fingerprint(key: &Self::Owned) -> u8;

    /// Rejects keys the index seams refuse: byte strings longer than
    /// [`crate::MAX_KEY_BYTES`]. Fixed-size keys always pass.
    fn check_len(_key: &Self::Owned) -> Result<(), crate::Error> {
        Ok(())
    }

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

    /// Leak audit: true if an invalid slot still references a key blob.
    /// Always false for fixed keys.
    fn slot_nonnull(pool: &PmemPool, slot_off: u64) -> bool;

    /// Raw persistent reference held by the slot, for cross-slot identity
    /// checks during the audit (Algorithm 17's `KeyExists`). Fixed keys
    /// return null.
    fn slot_ref(pool: &PmemPool, slot_off: u64) -> RawPPtr;
}

/// Fixed-size 8-byte integer keys, stored inline.
pub struct FixedKey;

impl KeyKind for FixedKey {
    type Owned = u64;
    const SLOT_SIZE: usize = 8;
    const IS_VAR: bool = false;

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
    fn slot_nonnull(_pool: &PmemPool, _slot_off: u64) -> bool {
        false
    }

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
    fn fingerprint(key: &Vec<u8>) -> u8 {
        fingerprint_bytes(key)
    }

    fn check_len(key: &Vec<u8>) -> Result<(), crate::Error> {
        crate::api::check_key(key)
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
        let mut buf = vec![0u8; len];
        pool.read_bytes(p.offset + 8, &mut buf);
        buf == *key
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

    fn slot_nonnull(pool: &PmemPool, slot_off: u64) -> bool {
        let p: RawPPtr = pool.read_at(slot_off);
        !p.is_null()
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
        assert!(!FixedKey::slot_nonnull(&p, slot));
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
        assert!(VarKey::slot_nonnull(&p, slot));
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
        assert!(!VarKey::slot_nonnull(&p, slot));
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
        assert!(!VarKey::slot_nonnull(&p, slot));
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

    #[test]
    fn empty_var_key_is_representable() {
        let p = pool();
        let holder = USER_BASE + 16;
        let slot = p.allocate(holder, 64).unwrap();
        VarKey::write_slot(&p, slot, &Vec::new());
        assert_eq!(VarKey::read_slot(&p, slot), Vec::<u8>::new());
        assert!(VarKey::slot_matches(&p, slot, &Vec::new()));
    }
}
