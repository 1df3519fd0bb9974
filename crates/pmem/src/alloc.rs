//! Crash-safe persistent memory allocator.
//!
//! The paper (§2 "Memory leaks") observes that in SCM a memory leak is
//! *persistent*: if a crash separates the allocator's notion of "allocated"
//! from the data structure's, the block is lost forever. Its fix, reproduced
//! here, changes the allocator *interface*: allocation takes a reference to
//! a persistent pointer that belongs to the calling persistent data
//! structure, and the allocator persistently writes the block address into
//! it before returning; deallocation persistently nulls it. Combined with a
//! redo micro-log inside the allocator, every crash leaves the pair
//! (allocator state, owner pointer) reconcilable: recovery completes or
//! rolls back the in-flight operation.
//!
//! Design: segregated free lists over power-of-two size classes, backed by a
//! bump region. Every block has a 64-byte header (class, user size, free-list
//! link), so user data is always cache-line aligned — the FPTree leaf layout
//! depends on fingerprints occupying the first cache line — and the whole
//! heap can be *walked* (header to header) for the leak audits used in
//! recovery tests.

use crate::pool::{PmemPool, USER_BASE};
use crate::pptr::RawPPtr;
use crate::stats::PoolStats;

/// Size of the per-block header. A full cache line so that user data is
/// always 64-byte aligned.
pub const BLOCK_HEADER_SIZE: u64 = 64;

/// Smallest size class (bytes).
const MIN_CLASS_SHIFT: u32 = 6; // 64 B
/// Largest size class (bytes).
const MAX_CLASS_SHIFT: u32 = 25; // 32 MiB
const NCLASS: usize = (MAX_CLASS_SHIFT - MIN_CLASS_SHIFT + 1) as usize;

/// Magic tag in the high 32 bits of a block header's first word.
const BLOCK_MAGIC: u64 = 0xB10C_0000_0000_0000;
const BLOCK_MAGIC_MASK: u64 = 0xFFFF_0000_0000_0000;

// Allocator metadata layout inside the pool header (all 8-byte aligned).
const OFF_BUMP: u64 = 64;
/// Redo log: op, dest, block, size — 32 bytes in one cache line.
///
/// The `op` word is the *commit record*: operand words are persisted first,
/// `op` second, so a crash can never leave a durable `op` with non-durable
/// operands (our crash model lets 8-byte words within one line survive
/// independently, so intra-line write order cannot be relied on).
const OFF_LOG: u64 = 128;
const LOG_OP: u64 = OFF_LOG;
const LOG_DEST: u64 = OFF_LOG + 8;
/// Block base offset; bit 0 doubles as the source flag (0 = free list,
/// 1 = bump) so that recording the block is a single p-atomic write.
const LOG_BLOCK: u64 = OFF_LOG + 16;
const LOG_SIZE: u64 = OFF_LOG + 24;
const OFF_FREE_HEADS: u64 = 192;

const OP_NONE: u64 = 0;
const OP_ALLOC: u64 = 1;
const OP_FREE: u64 = 2;

const SRC_BUMP_FLAG: u64 = 1;

/// Block header field offsets relative to the block base.
const HDR_TAG: u64 = 0; // magic | class index
const HDR_USER_SIZE: u64 = 8;
const HDR_NEXT: u64 = 16; // free-list link (block base offset of next free)

/// Errors from pool construction and allocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AllocError {
    /// Pool size below the minimum (header + one block).
    PoolTooSmall,
    /// Reopened image fails validation (bad magic / not initialized).
    BadImage,
    /// No space left in the pool.
    OutOfMemory,
    /// Request exceeds the largest size class.
    TooLarge,
    /// Heap walk found an inconsistency (test/audit API).
    Corrupt(&'static str),
}

impl std::fmt::Display for AllocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AllocError::PoolTooSmall => write!(f, "pool size below minimum"),
            AllocError::BadImage => write!(f, "image failed validation"),
            AllocError::OutOfMemory => write!(f, "persistent pool exhausted"),
            AllocError::TooLarge => write!(f, "allocation exceeds largest size class"),
            AllocError::Corrupt(why) => write!(f, "heap corruption detected: {why}"),
        }
    }
}

impl std::error::Error for AllocError {}

/// Aggregate allocator statistics derived from a heap walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocStats {
    /// Blocks currently allocated (not on any free list).
    pub live_blocks: usize,
    /// Blocks on free lists.
    pub free_blocks: usize,
    /// Sum of user sizes of live blocks.
    pub live_bytes: u64,
    /// Bump cursor: total bytes of the pool ever used.
    pub bump: u64,
}

fn class_for(size: usize) -> Result<usize, AllocError> {
    if size == 0 || size > (1usize << MAX_CLASS_SHIFT) {
        return Err(AllocError::TooLarge);
    }
    let shift = usize::BITS - (size - 1).leading_zeros();
    Ok(shift.max(MIN_CLASS_SHIFT) as usize - MIN_CLASS_SHIFT as usize)
}

fn class_size(class: usize) -> u64 {
    1u64 << (class as u32 + MIN_CLASS_SHIFT)
}

/// Usable bytes of the block that [`PmemPool::allocate`] returns for a
/// `size`-byte request: `size` rounded up to its power-of-two size class.
/// The block itself takes [`BLOCK_HEADER_SIZE`] more. Errs where
/// `allocate` would ([`AllocError::TooLarge`] for 0 or beyond the largest
/// class).
pub fn usable_size(size: usize) -> Result<usize, AllocError> {
    class_for(size).map(|class| class_size(class) as usize)
}

/// Internal handle over the allocator's persistent metadata.
pub(crate) struct AllocHeader;

impl AllocHeader {
    /// Writes fresh allocator metadata into a new pool.
    pub(crate) fn init(pool: &PmemPool) {
        pool.write_word(OFF_BUMP, USER_BASE);
        for w in 0..4 {
            pool.write_word(OFF_LOG + w * 8, 0);
        }
        for c in 0..NCLASS {
            pool.write_word(OFF_FREE_HEADS + c as u64 * 8, 0);
        }
        pool.persist(OFF_BUMP, 8);
        pool.persist(OFF_LOG, 32);
        pool.persist(OFF_FREE_HEADS, NCLASS * 8);
    }

    /// Completes or rolls back an in-flight alloc/free after a crash.
    ///
    /// Every step of the protocols below is idempotent given the redo log,
    /// so recovery can itself crash and be re-run. Every logged word comes
    /// from a potentially corrupt image, so each is validated before use and
    /// damage surfaces as [`AllocError::Corrupt`] instead of a panic.
    pub(crate) fn recover(pool: &PmemPool) -> Result<(), AllocError> {
        let op = pool.read_word(LOG_OP);
        match op {
            OP_NONE => {}
            OP_ALLOC => {
                let block_word = pool.read_word(LOG_BLOCK);
                if block_word == 0 {
                    // Crashed before a block was chosen: roll back.
                    reset_log(pool);
                    return Ok(());
                }
                let from_bump = block_word & SRC_BUMP_FLAG != 0;
                let block = block_word & !SRC_BUMP_FLAG;
                let dest = pool.read_word(LOG_DEST);
                let size = pool.read_word(LOG_SIZE);
                let class = class_for(size as usize)
                    .map_err(|_| AllocError::Corrupt("alloc log records an invalid size"))?;
                if block < USER_BASE
                    || !pool.in_bounds(block, (BLOCK_HEADER_SIZE + class_size(class)) as usize)
                {
                    return Err(AllocError::Corrupt("alloc log block outside the heap"));
                }
                if !dest.is_multiple_of(8) || !pool.in_bounds(dest, 16) {
                    return Err(AllocError::Corrupt("alloc log owner slot outside the pool"));
                }
                if from_bump {
                    // Redo the bump advance if it has not happened.
                    let end = block + BLOCK_HEADER_SIZE + class_size(class);
                    if pool.read_word(OFF_BUMP) < end {
                        pool.write_word(OFF_BUMP, end);
                        pool.persist(OFF_BUMP, 8);
                    }
                } else {
                    // Redo the unlink if the head still points at us.
                    let head_off = OFF_FREE_HEADS + class as u64 * 8;
                    if pool.read_word(head_off) == block {
                        let next = pool.read_word(block + HDR_NEXT);
                        pool.write_word(head_off, next);
                        pool.persist(head_off, 8);
                    }
                }
                write_block_header(pool, block, class, size);
                write_dest(pool, dest, block + BLOCK_HEADER_SIZE);
                reset_log(pool);
            }
            OP_FREE => {
                let block = pool.read_word(LOG_BLOCK);
                let dest = pool.read_word(LOG_DEST);
                if block < USER_BASE || !pool.in_bounds(block, BLOCK_HEADER_SIZE as usize) {
                    return Err(AllocError::Corrupt("free log block outside the heap"));
                }
                if !dest.is_multiple_of(8) || !pool.in_bounds(dest, 16) {
                    return Err(AllocError::Corrupt("free log owner slot outside the pool"));
                }
                let tag = pool.read_word(block + HDR_TAG);
                if tag & BLOCK_MAGIC_MASK != BLOCK_MAGIC {
                    return Err(AllocError::Corrupt("freed block header corrupt"));
                }
                let class = (tag & !BLOCK_MAGIC_MASK) as usize;
                if class >= NCLASS {
                    return Err(AllocError::Corrupt("freed block has an invalid size class"));
                }
                let head_off = OFF_FREE_HEADS + class as u64 * 8;
                if pool.read_word(head_off) != block {
                    // Redo the push (setting next twice is idempotent: no
                    // other operation ran between log write and crash).
                    pool.write_word(block + HDR_NEXT, pool.read_word(head_off));
                    pool.persist(block + HDR_NEXT, 8);
                    pool.write_word(head_off, block);
                    pool.persist(head_off, 8);
                }
                write_dest(pool, dest, 0);
                reset_log(pool);
            }
            _ => return Err(AllocError::Corrupt("unknown allocator log op")),
        }
        Ok(())
    }
}

fn reset_log(pool: &PmemPool) {
    // Only the commit word needs clearing: operand words are never trusted
    // unless `op` is durable and non-NONE.
    pool.write_publish_word(LOG_OP, OP_NONE);
    pool.persist(LOG_OP, 8);
}

/// Persists the log operands, then commits by persisting the op word.
fn commit_log(pool: &PmemPool, op: u64) {
    pool.persist(OFF_LOG, 32);
    pool.write_publish_word(LOG_OP, op);
    pool.persist(LOG_OP, 8);
}

fn write_block_header(pool: &PmemPool, block: u64, class: usize, user_size: u64) {
    pool.write_word(block + HDR_TAG, BLOCK_MAGIC | class as u64);
    pool.write_word(block + HDR_USER_SIZE, user_size);
    pool.persist(block + HDR_TAG, 16);
}

/// Persistently writes the owner's persistent pointer (`user_off == 0`
/// writes null). The 16-byte pointer spans two p-atomic words; recovery
/// tolerates any prefix because it redoes this write idempotently.
fn write_dest(pool: &PmemPool, dest: u64, user_off: u64) {
    let pptr = if user_off == 0 {
        RawPPtr::NULL
    } else {
        RawPPtr::new(pool.file_id(), user_off)
    };
    pool.write_publish_at(dest, &pptr);
    pool.persist(dest, 16);
}

impl PmemPool {
    /// Allocates `size` bytes of persistent memory, persistently publishing
    /// the result into the owner's persistent pointer at offset `dest_off`
    /// before returning (the paper's leak-preventing interface).
    ///
    /// Returns the user-data offset (always 64-byte aligned).
    pub fn allocate(&self, dest_off: u64, size: usize) -> Result<u64, AllocError> {
        let class = class_for(size)?;
        let _guard = self.alloc_lock.lock();
        let _op = self.begin_checked_op("alloc");

        // Phase 1: intent — operands first, then the op commit word.
        self.write_word(LOG_DEST, dest_off);
        self.write_word(LOG_SIZE, size as u64);
        self.write_word(LOG_BLOCK, 0);
        commit_log(self, OP_ALLOC);

        // Phase 2: record the chosen block (one p-atomic write, source flag
        // in bit 0), then detach it from the free list / bump region.
        let head_off = OFF_FREE_HEADS + class as u64 * 8;
        let head = self.read_word(head_off);
        let block = if head != 0 {
            self.write_word(LOG_BLOCK, head);
            self.persist(LOG_BLOCK, 8);
            let next = self.read_word(head + HDR_NEXT);
            self.write_word(head_off, next);
            self.persist(head_off, 8);
            head
        } else {
            let bump = self.read_word(OFF_BUMP);
            let end = bump + BLOCK_HEADER_SIZE + class_size(class);
            if end > self.capacity() as u64 {
                reset_log(self);
                return Err(AllocError::OutOfMemory);
            }
            self.write_word(LOG_BLOCK, bump | SRC_BUMP_FLAG);
            self.persist(LOG_BLOCK, 8);
            self.write_word(OFF_BUMP, end);
            self.persist(OFF_BUMP, 8);
            self.stats()
                .bump_high_water
                .fetch_max(end, std::sync::atomic::Ordering::Relaxed);
            bump
        };

        // Phase 3: header, owner pointer, log reset.
        write_block_header(self, block, class, size as u64);
        let user = block + BLOCK_HEADER_SIZE;
        write_dest(self, dest_off, user);
        reset_log(self);

        PoolStats::add(&self.stats().allocs, 1);
        PoolStats::add(&self.stats().bytes_live, size as u64);
        Ok(user)
    }

    /// True if `p` plausibly points at the user area of an allocator block:
    /// aligned, in bounds, and carrying the block magic in its header.
    /// Recovery validates pointers read from a possibly-corrupt image with
    /// this before deallocating through them, so torn state surfaces as a
    /// typed error instead of tripping `deallocate`'s asserts.
    pub fn looks_like_block(&self, p: RawPPtr) -> bool {
        if p.is_null() || !p.offset.is_multiple_of(8) || p.offset < BLOCK_HEADER_SIZE {
            return false;
        }
        let block = p.offset - BLOCK_HEADER_SIZE;
        if !self.in_bounds(block, BLOCK_HEADER_SIZE as usize + 8) {
            return false;
        }
        self.read_word(block + HDR_TAG) & BLOCK_MAGIC_MASK == BLOCK_MAGIC
    }

    /// Deallocates the block whose address is stored in the owner's
    /// persistent pointer at `dest_off`, persistently nulling that pointer.
    pub fn deallocate(&self, dest_off: u64) {
        let _guard = self.alloc_lock.lock();
        let _op = self.begin_checked_op("dealloc");
        let pptr: RawPPtr = self.read_at(dest_off);
        assert!(
            !pptr.is_null(),
            "deallocate through a null persistent pointer"
        );
        let block = pptr.offset - BLOCK_HEADER_SIZE;
        let tag = self.read_word(block + HDR_TAG);
        assert_eq!(
            tag & BLOCK_MAGIC_MASK,
            BLOCK_MAGIC,
            "deallocate of a non-block"
        );
        let class = (tag & !BLOCK_MAGIC_MASK) as usize;
        let user_size = self.read_word(block + HDR_USER_SIZE);

        self.write_word(LOG_DEST, dest_off);
        self.write_word(LOG_BLOCK, block);
        self.write_word(LOG_SIZE, 0);
        commit_log(self, OP_FREE);

        let head_off = OFF_FREE_HEADS + class as u64 * 8;
        self.write_word(block + HDR_NEXT, self.read_word(head_off));
        self.persist(block + HDR_NEXT, 8);
        self.write_word(head_off, block);
        self.persist(head_off, 8);

        write_dest(self, dest_off, 0);
        reset_log(self);

        PoolStats::add(&self.stats().deallocs, 1);
        PoolStats::sub(&self.stats().bytes_live, user_size);
    }

    /// Walks the heap and returns every *live* block as `(user_off, size)`.
    ///
    /// Used by recovery-time leak audits: a block that is live here but not
    /// reachable from the data structure is a persistent leak.
    pub fn live_blocks(&self) -> Result<Vec<(u64, u64)>, AllocError> {
        let _guard = self.alloc_lock.lock();
        let mut free = std::collections::HashSet::new();
        for class in 0..NCLASS {
            let mut cur = self.read_word(OFF_FREE_HEADS + class as u64 * 8);
            let mut hops = 0u64;
            while cur != 0 {
                if !free.insert(cur) {
                    return Err(AllocError::Corrupt("free-list cycle"));
                }
                let tag = self.read_word(cur + HDR_TAG);
                if tag & BLOCK_MAGIC_MASK != BLOCK_MAGIC
                    || (tag & !BLOCK_MAGIC_MASK) as usize != class
                {
                    return Err(AllocError::Corrupt("free block header/class mismatch"));
                }
                cur = self.read_word(cur + HDR_NEXT);
                hops += 1;
                if hops > self.capacity() as u64 / BLOCK_HEADER_SIZE {
                    return Err(AllocError::Corrupt("free-list runaway"));
                }
            }
        }
        let bump = self.read_word(OFF_BUMP);
        let mut live = Vec::new();
        let mut off = USER_BASE;
        while off < bump {
            let tag = self.read_word(off + HDR_TAG);
            if tag & BLOCK_MAGIC_MASK != BLOCK_MAGIC {
                return Err(AllocError::Corrupt("heap walk hit a bad header"));
            }
            let class = (tag & !BLOCK_MAGIC_MASK) as usize;
            if class >= NCLASS {
                return Err(AllocError::Corrupt("heap walk hit a bad class"));
            }
            if !free.contains(&off) {
                live.push((off + BLOCK_HEADER_SIZE, self.read_word(off + HDR_USER_SIZE)));
            }
            off += BLOCK_HEADER_SIZE + class_size(class);
        }
        Ok(live)
    }

    /// Aggregate allocator statistics from a heap walk.
    pub fn alloc_stats(&self) -> Result<AllocStats, AllocError> {
        let live = self.live_blocks()?;
        let bump;
        let free_blocks;
        {
            let _guard = self.alloc_lock.lock();
            bump = self.read_word(OFF_BUMP);
            let mut count = 0usize;
            for class in 0..NCLASS {
                let mut cur = self.read_word(OFF_FREE_HEADS + class as u64 * 8);
                while cur != 0 {
                    count += 1;
                    cur = self.read_word(cur + HDR_NEXT);
                }
            }
            free_blocks = count;
        }
        Ok(AllocStats {
            live_blocks: live.len(),
            free_blocks,
            live_bytes: live.iter().map(|&(_, s)| s).sum(),
            bump,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::{crash_is_injected, PoolOptions};
    use crate::pptr::RawPPtr;

    fn pool() -> PmemPool {
        PmemPool::create(PoolOptions::direct(4 << 20)).unwrap()
    }

    /// A little persistent struct holding one owner pointer at a fixed spot.
    fn owner_slot(pool: &PmemPool) -> u64 {
        // Allocate a block to hold the owner pointer itself so the slot is
        // part of "persistent data" — here we just reserve the first block.
        pool.allocate(crate::pool::USER_BASE + 2048, 64).unwrap()
    }

    #[test]
    fn class_for_rounds_up_to_pow2() {
        assert_eq!(class_for(1).unwrap(), 0);
        assert_eq!(class_for(64).unwrap(), 0);
        assert_eq!(class_for(65).unwrap(), 1);
        assert_eq!(class_for(128).unwrap(), 1);
        assert_eq!(class_for(1 << 25).unwrap(), NCLASS - 1);
        assert!(class_for((1 << 25) + 1).is_err());
        assert!(class_for(0).is_err());
    }

    #[test]
    fn usable_size_is_what_allocate_charges() {
        let p = pool();
        let slot = owner_slot(&p);
        for size in [1usize, 64, 65, 1216, 19_520, 32_768] {
            let before = p.alloc_stats().unwrap().bump;
            p.allocate(slot, size).unwrap();
            let charged = p.alloc_stats().unwrap().bump - before;
            assert_eq!(
                charged,
                BLOCK_HEADER_SIZE + usable_size(size).unwrap() as u64
            );
        }
        assert_eq!(usable_size(19_520), Ok(32_768));
        assert_eq!(usable_size(0), Err(AllocError::TooLarge));
        assert_eq!(usable_size((1 << 25) + 1), Err(AllocError::TooLarge));
    }

    #[test]
    fn allocate_publishes_owner_pointer() {
        let p = pool();
        let slot = owner_slot(&p);
        let user = p.allocate(slot, 100).unwrap();
        assert_eq!(user % 64, 0, "user data must be cache-line aligned");
        let back: RawPPtr = p.read_at(slot);
        assert_eq!(back.offset, user);
        assert_eq!(back.file_id, p.file_id());
    }

    #[test]
    fn deallocate_nulls_owner_pointer_and_reuses_block() {
        let p = pool();
        let slot = owner_slot(&p);
        let user1 = p.allocate(slot, 100).unwrap();
        p.deallocate(slot);
        let back: RawPPtr = p.read_at(slot);
        assert!(back.is_null());
        let user2 = p.allocate(slot, 100).unwrap();
        assert_eq!(user1, user2, "freed block must be reused (same class)");
    }

    #[test]
    fn different_classes_do_not_mix() {
        let p = pool();
        let slot = owner_slot(&p);
        let small = p.allocate(slot, 64).unwrap();
        p.deallocate(slot);
        let large = p.allocate(slot, 4096).unwrap();
        assert_ne!(
            small, large,
            "a 4 KiB request must not land on a 64 B block"
        );
    }

    #[test]
    fn out_of_memory_is_clean() {
        let p = PmemPool::create(PoolOptions::direct(16384)).unwrap();
        let slot = USER_BASE + 1024;
        // Each 4 KiB-class alloc takes 64 + 4096 bytes; pool is 16 KiB total
        // with 4 KiB header, so the second must fail.
        let mut allocs = 0;
        loop {
            match p.allocate(slot + allocs * 16, 4096) {
                Ok(_) => allocs += 1,
                Err(AllocError::OutOfMemory) => break,
                Err(e) => panic!("unexpected error {e}"),
            }
            assert!(allocs < 10);
        }
        // Allocator must still work for smaller sizes after an OOM.
        p.allocate(slot + 512, 64).unwrap();
    }

    #[test]
    fn live_blocks_tracks_alloc_free() {
        let p = pool();
        let s1 = USER_BASE + 1024;
        let s2 = USER_BASE + 1040;
        let a = p.allocate(s1, 200).unwrap();
        let b = p.allocate(s2, 300).unwrap();
        let live = p.live_blocks().unwrap();
        let offs: Vec<u64> = live.iter().map(|&(o, _)| o).collect();
        assert!(offs.contains(&a) && offs.contains(&b));
        p.deallocate(s1);
        let live = p.live_blocks().unwrap();
        let offs: Vec<u64> = live.iter().map(|&(o, _)| o).collect();
        assert!(!offs.contains(&a) && offs.contains(&b));
        let stats = p.alloc_stats().unwrap();
        assert_eq!(stats.live_blocks, 1);
        assert_eq!(stats.free_blocks, 1);
        assert_eq!(stats.live_bytes, 300);
    }

    /// Crash-inject at every persistence event inside allocate/deallocate;
    /// after recovery either the operation fully happened (owner pointer set,
    /// block live) or fully did not (owner null, no leak).
    #[test]
    fn alloc_free_crash_atomicity_exhaustive() {
        for fuse in 0..40u64 {
            let p = PmemPool::create(PoolOptions::tracked(4 << 20)).unwrap();
            let slot = USER_BASE + 1024;
            // A pre-existing allocation so free lists get exercised.
            let pre_slot = USER_BASE + 1056;
            p.allocate(pre_slot, 128).unwrap();
            p.deallocate(pre_slot);

            p.set_crash_fuse(Some(fuse));
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                p.allocate(slot, 128).map(|_| ())
            }));
            p.set_crash_fuse(None);
            let crashed = match outcome {
                Ok(_) => false,
                Err(e) => {
                    assert!(crash_is_injected(e.as_ref()), "non-injected panic");
                    true
                }
            };

            for seed in [1u64, 7, 42] {
                let img = p.crash_image(seed);
                let p2 = PmemPool::reopen(img, PoolOptions::tracked(0)).unwrap();
                let owner: RawPPtr = p2.read_at(slot);
                let live = p2.live_blocks().unwrap();
                let owned: Vec<u64> = live.iter().map(|&(o, _)| o).collect();
                if owner.is_null() {
                    // Rolled back: exactly zero live blocks besides none.
                    assert!(
                        live.is_empty(),
                        "fuse={fuse} seed={seed}: leak — live blocks with null owner: {owned:?}"
                    );
                } else {
                    assert_eq!(
                        owned,
                        vec![owner.offset],
                        "fuse={fuse} seed={seed}: allocator/owner disagree"
                    );
                }
                if !crashed {
                    // Completed operations must be durable.
                    assert!(!owner.is_null(), "fuse={fuse}: completed alloc lost");
                }
            }
        }
    }

    #[test]
    fn free_crash_atomicity_exhaustive() {
        for fuse in 0..30u64 {
            let p = PmemPool::create(PoolOptions::tracked(4 << 20)).unwrap();
            let slot = USER_BASE + 1024;
            p.allocate(slot, 128).unwrap();

            p.set_crash_fuse(Some(fuse));
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                p.deallocate(slot);
            }));
            p.set_crash_fuse(None);
            let crashed = outcome.is_err();

            for seed in [3u64, 9] {
                let img = p.crash_image(seed);
                let p2 = PmemPool::reopen(img, PoolOptions::tracked(0)).unwrap();
                let owner: RawPPtr = p2.read_at(slot);
                let live = p2.live_blocks().unwrap();
                if owner.is_null() {
                    assert!(
                        live.is_empty(),
                        "fuse={fuse} seed={seed}: freed block still live"
                    );
                } else {
                    assert_eq!(
                        live.len(),
                        1,
                        "fuse={fuse} seed={seed}: owner set but block gone"
                    );
                    assert_eq!(live[0].0, owner.offset);
                }
                if !crashed {
                    assert!(owner.is_null(), "fuse={fuse}: completed free not durable");
                }
            }
        }
    }

    #[test]
    fn recovery_is_idempotent() {
        // Crash mid-alloc, recover, then recover again from a re-crash of
        // the recovered image: state must stay consistent.
        let p = PmemPool::create(PoolOptions::tracked(4 << 20)).unwrap();
        let slot = USER_BASE + 1024;
        p.set_crash_fuse(Some(6));
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = p.allocate(slot, 128);
        }));
        p.set_crash_fuse(None);
        let img = p.crash_image(11);
        let p2 = PmemPool::reopen(img, PoolOptions::tracked(0)).unwrap();
        let img2 = p2.clean_image();
        let p3 = PmemPool::reopen(img2, PoolOptions::tracked(0)).unwrap();
        let o2: RawPPtr = p2.read_at(slot);
        let o3: RawPPtr = p3.read_at(slot);
        assert_eq!(o2, o3);
        assert_eq!(p2.live_blocks().unwrap(), p3.live_blocks().unwrap());
    }
}
