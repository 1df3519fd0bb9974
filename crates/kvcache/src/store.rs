//! Item storage: a sharded slab of cache items.
//!
//! memcached keeps items in a slab allocator and indexes them by a hash
//! table; our trees index `key → item handle` instead, so the item store
//! hands out u64 handles. Sharded to keep allocation off the hot lock
//! (memcached's slab lock equivalent).
//!
//! Slots are recycled, so a handle carries the slot's **generation**:
//! `[idx:32][gen:24][shard:7][1]` (low bit keeps it nonzero). `remove`
//! bumps the slot's generation; `get`/`remove` reject a handle whose
//! generation is not the slot's. A reader that took a handle from the
//! index and lost a race with the `set` that freed it therefore sees "no
//! such item" — never whichever key's item moved into the slot since. The
//! generation wraps at 2²⁴: a stale handle resolves again only if its
//! holder sleeps across exactly 2²⁴ reuses of that one slot.

use parking_lot::Mutex;

/// A stored cache item.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Item {
    /// Client-provided opaque flags (memcached protocol field).
    pub flags: u32,
    /// The value payload.
    pub data: Vec<u8>,
}

const SHARD_BITS: u32 = 7;
const GEN_BITS: u32 = 24;
const GEN_MASK: u64 = (1 << GEN_BITS) - 1;

/// One slab slot, an [`Item`] taken apart so that the generation rides in
/// what would be the item's padding: 32 bytes, never straddling a line.
struct Slot {
    /// Times this slot has been freed, mod 2²⁴.
    gen: u32,
    flags: u32,
    /// `None` while the slot is on the free list.
    data: Option<Vec<u8>>,
}

struct Shard {
    slots: Vec<Slot>,
    free: Vec<u32>,
}

impl Shard {
    /// The slot `handle` names, if the handle's generation is still current.
    fn slot(&mut self, handle: u64) -> Option<&mut Slot> {
        let slot = self.slots.get_mut((handle >> 32) as usize)?;
        (u64::from(slot.gen) == (handle >> (SHARD_BITS + 1)) & GEN_MASK).then_some(slot)
    }
}

/// Sharded slab of items addressed by opaque, generation-tagged u64 handles.
pub struct ItemStore {
    shards: Vec<Mutex<Shard>>,
    mask: u64,
}

impl ItemStore {
    /// Creates a store with `shards` lock shards (rounded to a power of 2,
    /// at most 128: the handle has 7 shard bits).
    pub fn new(shards: usize) -> ItemStore {
        let n = shards.clamp(1, 1 << SHARD_BITS).next_power_of_two();
        ItemStore {
            shards: (0..n)
                .map(|_| {
                    Mutex::new(Shard {
                        slots: Vec::new(),
                        free: Vec::new(),
                    })
                })
                .collect(),
            mask: n as u64 - 1,
        }
    }

    /// Stores an item, returning its handle. Handles are never zero.
    pub fn put(&self, item: Item) -> u64 {
        // Spread inserts across shards by a cheap counter-ish source: the
        // item data address has enough entropy here.
        let shard_idx = (item.data.as_ptr() as u64 >> 4) & self.mask;
        let mut shard = self.shards[shard_idx as usize].lock();
        let idx = shard.free.pop().unwrap_or_else(|| {
            shard.slots.push(Slot {
                gen: 0,
                flags: 0,
                data: None,
            });
            (shard.slots.len() - 1) as u32
        });
        let slot = &mut shard.slots[idx as usize];
        (slot.flags, slot.data) = (item.flags, Some(item.data));
        (u64::from(idx) << 32) | (u64::from(slot.gen) << (SHARD_BITS + 1)) | (shard_idx << 1) | 1
    }

    /// Reads a copy of the item behind `handle`; `None` once it was freed,
    /// whatever the slot holds now.
    pub fn get(&self, handle: u64) -> Option<Item> {
        let mut shard = self.shard(handle)?.lock();
        let slot = shard.slot(handle)?;
        Some(Item {
            flags: slot.flags,
            data: slot.data.clone()?,
        })
    }

    /// Frees the item behind `handle` and retires the handle.
    pub fn remove(&self, handle: u64) -> Option<Item> {
        let mut shard = self.shard(handle)?.lock();
        let slot = shard.slot(handle)?;
        let item = Item {
            flags: slot.flags,
            data: slot.data.take()?,
        };
        slot.gen = (slot.gen + 1) & GEN_MASK as u32;
        shard.free.push((handle >> 32) as u32);
        Some(item)
    }

    fn shard(&self, handle: u64) -> Option<&Mutex<Shard>> {
        (handle & 1 == 1).then(|| &self.shards[((handle >> 1) & self.mask) as usize])
    }

    /// Number of live items.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().slots.iter().filter(|x| x.data.is_some()).count())
            .sum()
    }

    /// True if no items are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn put_get_remove_roundtrip() {
        let s = ItemStore::new(4);
        let h = s.put(Item {
            flags: 7,
            data: b"hello".to_vec(),
        });
        assert_ne!(h, 0);
        assert_eq!(s.get(h).unwrap().data, b"hello");
        assert_eq!(s.get(h).unwrap().flags, 7);
        let removed = s.remove(h).unwrap();
        assert_eq!(removed.data, b"hello");
        assert!(s.get(h).is_none());
        assert!(s.remove(h).is_none());
        assert!(s.is_empty());
    }

    #[test]
    fn handles_are_distinct_and_reusable() {
        let s = ItemStore::new(2);
        let mut handles = Vec::new();
        for i in 0..100u32 {
            handles.push(s.put(Item {
                flags: i,
                data: vec![i as u8],
            }));
        }
        let mut uniq = handles.clone();
        uniq.sort();
        uniq.dedup();
        assert_eq!(uniq.len(), 100);
        assert_eq!(s.len(), 100);
        for h in &handles {
            s.remove(*h);
        }
        assert!(s.is_empty());
        // Every slot is free again; the next put reuses one. Its handle
        // resolves, and the freed handle that named the same slot does not
        // — neither for `get` nor for a second `remove`.
        let h = s.put(Item {
            flags: 7,
            data: b"new tenant".to_vec(),
        });
        assert_eq!(s.get(h).unwrap().flags, 7);
        let stale: Vec<u64> = handles
            .iter()
            .copied()
            .filter(|old| old >> 32 == h >> 32 && (old >> 1) & 1 == (h >> 1) & 1)
            .collect();
        assert_eq!(stale.len(), 1, "one old handle named the reused slot");
        assert_ne!(stale[0], h);
        assert!(s.get(stale[0]).is_none(), "freed handle resolved again");
        assert!(s.remove(stale[0]).is_none());
        assert!(handles.iter().all(|old| s.get(*old).is_none()));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn concurrent_puts() {
        let s = Arc::new(ItemStore::new(8));
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    (0..1000)
                        .map(|i| {
                            s.put(Item {
                                flags: t,
                                data: vec![i as u8],
                            })
                        })
                        .collect::<Vec<u64>>()
                })
            })
            .collect();
        let mut all = Vec::new();
        for h in handles {
            all.extend(h.join().unwrap());
        }
        all.sort();
        all.dedup();
        assert_eq!(all.len(), 8000);
        assert_eq!(s.len(), 8000);
    }
}
