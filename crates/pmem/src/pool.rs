//! The persistent memory pool: simulated SCM with a volatile cache overlay.
//!
//! A pool models one SCM "file" mapped into the address space (the SNIA
//! model the paper follows: an SCM-aware file system gives the application
//! direct load/store access via mmap). Two operating modes:
//!
//! * [`PoolMode::Direct`] — stores hit the backing memory immediately;
//!   `persist` costs only emulated latency and statistics. This is the
//!   benchmark configuration, equivalent to the paper's emulation platform.
//! * [`PoolMode::Tracked`] — stores land in a simulated CPU-cache overlay
//!   keyed by cache line, and reach the durable image only when explicitly
//!   flushed by `persist`. [`PmemPool::crash_image`] then materializes what
//!   SCM would contain after a power failure: flushed data intact, unflushed
//!   data lost at 8-byte granularity (the paper's p-atomic write size).
//!
//! The *crash fuse* ([`PmemPool::set_crash_fuse`]) makes every write/persist
//! a potential crash point, which is how the crash-consistency test harness
//! interrupts tree operations at arbitrary instructions.

use std::cell::UnsafeCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::alloc::{AllocError, AllocHeader};
use crate::check::{self, CheckedOp, CheckerState, DurabilityReport};
use crate::latency::LatencyProfile;
use crate::pptr::{PPtr, Pod};
use crate::stats::PoolStats;

/// Size of a simulated CPU cache line in bytes.
pub const CACHE_LINE: usize = 64;

/// First offset available to the allocator; everything below is pool header.
pub const USER_BASE: u64 = 4096;

/// Granularity of power-fail atomicity: the paper assumes only 8-byte writes
/// are p-atomic (§2 "Partial writes").
pub const PATOMIC_SIZE: usize = 8;

const MAGIC: u64 = 0x46505452_45455631; // "FPTREEV1"
const OFF_MAGIC: u64 = 0;
const OFF_LEN: u64 = 8;
const OFF_FILE_ID: u64 = 16;
const OFF_ROOT: u64 = 24;
const OFF_INIT: u64 = 32;
/// Pool considered fully initialized once this value is persisted at OFF_INIT.
const INIT_DONE: u64 = 2;

/// Offset of a reserved 16-byte persistent-pointer slot in the pool header.
///
/// Bootstraps ownership: the application's root object is allocated with
/// this slot as the owner pointer, so even the very first allocation is
/// covered by the leak-prevention protocol.
pub const ROOT_SLOT: u64 = 40;

/// Payload of the panic raised when the crash fuse fires.
///
/// The crash-test harness catches unwinds and downcasts to this type to
/// distinguish injected crashes from genuine bugs.
#[derive(Debug, Clone, Copy)]
pub struct CrashPanic;

/// Returns true if `payload` (from `catch_unwind`) is an injected crash.
pub fn crash_is_injected(payload: &(dyn std::any::Any + Send)) -> bool {
    payload.is::<CrashPanic>()
}

/// Operating mode of a pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolMode {
    /// Stores hit backing memory immediately; for benchmarks.
    Direct,
    /// Stores buffered in a simulated cache; for crash-consistency tests.
    Tracked,
}

/// Construction options for [`PmemPool`].
#[derive(Debug, Clone, Copy)]
pub struct PoolOptions {
    /// Pool capacity in bytes (header included).
    pub size: usize,
    /// Operating mode.
    pub mode: PoolMode,
    /// Emulated extra SCM latency.
    pub latency: LatencyProfile,
    /// Pool ("file") identifier baked into persistent pointers.
    pub file_id: u64,
    /// Enables the durability checker from construction, so pool/allocator
    /// initialization and recovery run under it too (see [`crate::check`]).
    pub checker: bool,
}

impl PoolOptions {
    /// Direct-mode pool with no injected latency — the common test setup.
    pub fn direct(size: usize) -> Self {
        PoolOptions {
            size,
            mode: PoolMode::Direct,
            latency: LatencyProfile::DRAM,
            file_id: 1,
            checker: false,
        }
    }

    /// Tracked-mode pool for crash simulation.
    pub fn tracked(size: usize) -> Self {
        PoolOptions {
            size,
            mode: PoolMode::Tracked,
            latency: LatencyProfile::DRAM,
            file_id: 1,
            checker: false,
        }
    }

    /// Sets the latency profile.
    pub fn with_latency(mut self, latency: LatencyProfile) -> Self {
        self.latency = latency;
        self
    }

    /// Enables the persist-order durability checker from the first write.
    pub fn with_checker(mut self) -> Self {
        self.checker = true;
        self
    }
}

/// One dirty cache line in the simulated CPU cache.
struct DirtyLine {
    data: [u8; CACHE_LINE],
    /// Per-byte dirty mask: bit i set means byte i was written since the
    /// last flush of this line.
    dirty: u64,
}

/// The simulated CPU cache: dirty lines that have not reached SCM yet.
#[derive(Default)]
struct Overlay {
    lines: HashMap<u64, DirtyLine>,
}

/// A simulated persistent memory pool.
///
/// All persistent accesses go through the typed [`read`](Self::read) /
/// [`write`](Self::write) API so that tracked mode can interpose the cache
/// overlay; transient in-pool fields (leaf locks) use
/// [`atomic_u64`](Self::atomic_u64) and bypass it by design.
///
/// ```
/// use fptree_pmem::{PmemPool, PoolOptions, ROOT_SLOT};
///
/// let pool = PmemPool::create(PoolOptions::tracked(1 << 20)).unwrap();
/// // Crash-safe allocation: the block address is persisted into the owner
/// // slot before `allocate` returns, so a crash can never leak it.
/// let off = pool.allocate(ROOT_SLOT, 64).unwrap();
/// pool.write_word(off, 42);
/// pool.persist(off, 8);
/// // Simulate a restart from the durable image.
/// let pool2 = PmemPool::reopen(pool.clean_image(), PoolOptions::tracked(0)).unwrap();
/// assert_eq!(pool2.read_word(off), 42);
/// ```
pub struct PmemPool {
    buf: Box<[UnsafeCell<u8>]>,
    len: usize,
    mode: PoolMode,
    file_id: u64,
    read_ns: AtomicU64,
    write_ns: AtomicU64,
    overlay: Mutex<Overlay>,
    /// Remaining persistence events before an injected crash; negative = off.
    fuse: AtomicI64,
    pub(crate) alloc_lock: Mutex<()>,
    stats: PoolStats,
    /// Fast-path gate for the durability checker (one relaxed load per
    /// write/persist when disabled).
    checker_enabled: AtomicBool,
    /// Durability-checker trace and report. Lock order: never taken while
    /// holding `overlay` (each hook takes exactly one of the two).
    checker: Mutex<CheckerState>,
}

// SAFETY: interior mutability is through raw pointers into `buf`; the access
// protocol (allocator lock, leaf locks, tracked-mode overlay mutex) prevents
// data races on non-atomic locations, and genuinely shared locations are
// accessed through atomics.
unsafe impl Send for PmemPool {}
// SAFETY: as for Send — the same access protocol synchronizes every location
// that is actually shared across threads.
unsafe impl Sync for PmemPool {}

impl PmemPool {
    /// Creates and initializes a fresh pool.
    pub fn create(opts: PoolOptions) -> Result<PmemPool, AllocError> {
        if opts.size < 2 * USER_BASE as usize {
            return Err(AllocError::PoolTooSmall);
        }
        let pool = Self::from_bytes(vec![0u8; opts.size], opts);
        {
            let _op = pool.begin_checked_op("pool_create");
            pool.write_word(OFF_MAGIC, MAGIC);
            pool.write_word(OFF_LEN, opts.size as u64);
            pool.write_word(OFF_FILE_ID, opts.file_id);
            // analyzer:allow(raw-publish) — header zero-init before the pool
            // is reachable; pool creation commits via the OFF_INIT publish.
            pool.write_word(OFF_ROOT, 0);
            pool.persist(OFF_MAGIC, 32);
            AllocHeader::init(&pool);
            // The init word is the pool's commit record: header and allocator
            // state are durable above, so the publish is p-atomic.
            pool.write_publish_word(OFF_INIT, INIT_DONE);
            pool.persist(OFF_INIT, 8);
        }
        Ok(pool)
    }

    /// Reopens a pool from a durable image (e.g. one produced by
    /// [`crash_image`](Self::crash_image)), running allocator recovery.
    pub fn reopen(image: Vec<u8>, opts: PoolOptions) -> Result<PmemPool, AllocError> {
        if image.len() < 2 * USER_BASE as usize {
            return Err(AllocError::PoolTooSmall);
        }
        let mut opts = opts;
        opts.size = image.len();
        let mut pool = Self::from_bytes(image, opts);
        if pool.read_word(OFF_MAGIC) != MAGIC || pool.read_word(OFF_INIT) != INIT_DONE {
            return Err(AllocError::BadImage);
        }
        // The image records its own file id; pointers inside it refer to it.
        pool.file_id = pool.read_word(OFF_FILE_ID);
        {
            let _op = pool.begin_checked_op("alloc_recover");
            AllocHeader::recover(&pool)?;
        }
        Ok(pool)
    }

    fn from_bytes(bytes: Vec<u8>, opts: PoolOptions) -> PmemPool {
        let len = bytes.len();
        // SAFETY: UnsafeCell<u8> has the same layout as u8.
        let buf: Box<[UnsafeCell<u8>]> = unsafe {
            let mut b = std::mem::ManuallyDrop::new(bytes);
            Vec::from_raw_parts(b.as_mut_ptr() as *mut UnsafeCell<u8>, b.len(), b.capacity())
        }
        .into_boxed_slice();
        PmemPool {
            buf,
            len,
            mode: opts.mode,
            file_id: opts.file_id,
            read_ns: AtomicU64::new(opts.latency.read_ns),
            write_ns: AtomicU64::new(opts.latency.write_ns),
            overlay: Mutex::new(Overlay::default()),
            fuse: AtomicI64::new(-1),
            alloc_lock: Mutex::new(()),
            stats: PoolStats::default(),
            checker_enabled: AtomicBool::new(opts.checker),
            checker: Mutex::new(CheckerState::default()),
        }
    }

    /// Pool ("file") id carried by pointers into this pool.
    #[inline]
    pub fn file_id(&self) -> u64 {
        self.file_id
    }

    /// Pool capacity in bytes.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.len
    }

    /// Operating mode.
    #[inline]
    pub fn mode(&self) -> PoolMode {
        self.mode
    }

    /// Instrumentation counters.
    #[inline]
    pub fn stats(&self) -> &PoolStats {
        &self.stats
    }

    /// Replaces the latency profile (e.g. between benchmark phases).
    pub fn set_latency(&self, latency: LatencyProfile) {
        self.read_ns.store(latency.read_ns, Ordering::Relaxed);
        self.write_ns.store(latency.write_ns, Ordering::Relaxed);
    }

    /// Current latency profile.
    pub fn latency(&self) -> LatencyProfile {
        LatencyProfile {
            read_ns: self.read_ns.load(Ordering::Relaxed),
            write_ns: self.write_ns.load(Ordering::Relaxed),
        }
    }

    #[inline]
    fn base(&self) -> *mut u8 {
        self.buf.as_ptr() as *mut u8
    }

    #[inline]
    fn check(&self, off: u64, len: usize) {
        assert!(
            self.in_bounds(off, len),
            "pmem access out of bounds: off={off:#x} len={len} cap={:#x}",
            self.len
        );
    }

    /// True if `[off, off + len)` lies inside the pool. Recovery code uses
    /// this to validate persistent pointers read from a (possibly corrupt)
    /// image *before* dereferencing them, so corruption surfaces as a typed
    /// error instead of the out-of-bounds panic the accessors would raise.
    #[inline]
    pub fn in_bounds(&self, off: u64, len: usize) -> bool {
        (off as usize)
            .checked_add(len)
            .is_some_and(|end| end <= self.len)
    }

    // ---------------------------------------------------------------- fuse

    /// Arms (Some) or disarms (None) the crash fuse. When armed, the pool
    /// panics with [`CrashPanic`] after `events` more persistence events
    /// (writes and persists each count as one).
    pub fn set_crash_fuse(&self, events: Option<u64>) {
        self.fuse
            .store(events.map_or(-1, |e| e as i64), Ordering::SeqCst);
    }

    /// Decrements the fuse; fires the injected crash at zero. `pre` events
    /// crash *before* taking effect (persists), `!pre` after (writes).
    #[inline]
    fn fuse_tick(&self) -> bool {
        if self.fuse.load(Ordering::Relaxed) < 0 {
            return false;
        }
        self.fuse.fetch_sub(1, Ordering::SeqCst) == 0
    }

    #[cold]
    fn crash_now(&self) -> ! {
        std::panic::panic_any(CrashPanic);
    }

    // -------------------------------------------------------------- writes

    /// Writes raw bytes at `off`. In tracked mode the data lands in the
    /// simulated cache and is *not durable* until `persist`ed.
    pub fn write_bytes(&self, off: u64, src: &[u8]) {
        self.write_bytes_inner(off, src, false);
    }

    fn write_bytes_inner(&self, off: u64, src: &[u8], publish: bool) {
        self.check(off, src.len());
        if self.checker_enabled.load(Ordering::Relaxed) {
            let op = check::current_op(self as *const PmemPool as usize);
            if self
                .checker
                .lock()
                .record_store(off, src.len(), publish, op)
            {
                PoolStats::add(&self.stats.checker_events, 1);
            }
        }
        match self.mode {
            // SAFETY: `check` bounds-checked [off, off+len); `base` points at
            // `len` bytes; `src` cannot alias `buf` (it is a fresh &[u8]).
            PoolMode::Direct => unsafe {
                std::ptr::copy_nonoverlapping(
                    src.as_ptr(),
                    self.base().add(off as usize),
                    src.len(),
                );
            },
            PoolMode::Tracked => {
                let mut ov = self.overlay.lock();
                for (i, &b) in src.iter().enumerate() {
                    let abs = off + i as u64;
                    let line_off = abs & !(CACHE_LINE as u64 - 1);
                    let within = (abs - line_off) as usize;
                    let line = ov.lines.entry(line_off).or_insert_with(|| DirtyLine {
                        data: [0; CACHE_LINE],
                        dirty: 0,
                    });
                    line.data[within] = b;
                    line.dirty |= 1 << within;
                }
            }
        }
        if self.fuse_tick() {
            self.crash_now();
        }
    }

    /// Writes a POD value at `off`.
    #[inline]
    pub fn write_at<T: Pod>(&self, off: u64, val: &T) {
        // SAFETY: T: Pod guarantees no padding and a stable byte
        // representation, so viewing the value as bytes is defined.
        let bytes = unsafe {
            std::slice::from_raw_parts(val as *const T as *const u8, std::mem::size_of::<T>())
        };
        self.write_bytes(off, bytes);
    }

    /// Writes a POD value at `off`, marking it as a *publish* (commit
    /// record) for the durability checker: a p-atomic store that makes
    /// previously written state reachable or valid. The checker verifies
    /// its durability is ordered strictly after its operands'
    /// (see [`crate::check`]). Identical to [`write_at`](Self::write_at)
    /// when the checker is disabled.
    #[inline]
    pub fn write_publish_at<T: Pod>(&self, off: u64, val: &T) {
        // SAFETY: T: Pod guarantees no padding and a stable byte
        // representation, so viewing the value as bytes is defined.
        let bytes = unsafe {
            std::slice::from_raw_parts(val as *const T as *const u8, std::mem::size_of::<T>())
        };
        self.write_bytes_inner(off, bytes, true);
    }

    /// P-atomic 8-byte *publish* write (see
    /// [`write_publish_at`](Self::write_publish_at)): the flag/commit-word
    /// flavor used for allocator log opcodes, leaf bitmaps and status words.
    #[inline]
    pub fn write_publish_word(&self, off: u64, val: u64) {
        assert_eq!(
            off % PATOMIC_SIZE as u64,
            0,
            "p-atomic write must be 8-byte aligned"
        );
        self.write_publish_at(off, &val);
    }

    /// Multi-word *publish* write of raw bytes (see
    /// [`write_publish_at`](Self::write_publish_at)): used for
    /// dynamically sized commit records such as leaf append-buffer
    /// entries, whose length depends on the runtime layout. Must be
    /// 8-byte aligned and a whole number of words so each word commits
    /// p-atomically (the checker's per-word commit convention —
    /// recovery must tolerate any subset of the words surviving a
    /// crash, e.g. by validating a checksum stored in one word).
    #[inline]
    pub fn write_publish_bytes(&self, off: u64, src: &[u8]) {
        assert_eq!(
            off % PATOMIC_SIZE as u64,
            0,
            "p-atomic write must be 8-byte aligned"
        );
        assert_eq!(
            src.len() % PATOMIC_SIZE,
            0,
            "multi-word publish must be a whole number of words"
        );
        self.write_bytes_inner(off, src, true);
    }

    /// Writes a POD value through a typed persistent pointer.
    #[inline]
    pub fn write<T: Pod>(&self, p: PPtr<T>, val: &T) {
        debug_assert_eq!(p.file_id(), self.file_id, "pointer into a different pool");
        self.write_at(p.offset(), val);
    }

    /// P-atomic 8-byte write: must be 8-byte aligned so that a power failure
    /// can never tear it (the paper's p-atomicity assumption).
    #[inline]
    pub fn write_word(&self, off: u64, val: u64) {
        assert_eq!(
            off % PATOMIC_SIZE as u64,
            0,
            "p-atomic write must be 8-byte aligned"
        );
        self.write_at(off, &val);
    }

    /// Reads the 8-byte word at `off` (must be aligned).
    #[inline]
    pub fn read_word(&self, off: u64) -> u64 {
        assert_eq!(
            off % PATOMIC_SIZE as u64,
            0,
            "p-atomic read must be 8-byte aligned"
        );
        self.read_at(off)
    }

    // --------------------------------------------------------------- reads

    /// Reads raw bytes at `off` into `buf`, observing unflushed cached data
    /// (a CPU always sees its own cache).
    pub fn read_bytes(&self, off: u64, buf: &mut [u8]) {
        self.check(off, buf.len());
        // SAFETY: `check` bounds-checked the source range, and `buf` is a
        // distinct borrow so the copy cannot overlap the pool buffer.
        unsafe {
            std::ptr::copy_nonoverlapping(
                self.base().add(off as usize),
                buf.as_mut_ptr(),
                buf.len(),
            );
        }
        if self.mode == PoolMode::Tracked {
            let ov = self.overlay.lock();
            for (i, b) in buf.iter_mut().enumerate() {
                let abs = off + i as u64;
                let line_off = abs & !(CACHE_LINE as u64 - 1);
                if let Some(line) = ov.lines.get(&line_off) {
                    let within = (abs - line_off) as usize;
                    if line.dirty & (1 << within) != 0 {
                        *b = line.data[within];
                    }
                }
            }
        }
    }

    /// Reads a POD value at `off`.
    #[inline]
    pub fn read_at<T: Pod>(&self, off: u64) -> T {
        self.check(off, std::mem::size_of::<T>());
        match self.mode {
            // SAFETY: `check` bounds-checked the range, and T: Pod means any
            // byte pattern is a valid T (read_unaligned handles alignment).
            PoolMode::Direct => unsafe {
                std::ptr::read_unaligned(self.base().add(off as usize) as *const T)
            },
            PoolMode::Tracked => {
                let mut val = std::mem::MaybeUninit::<T>::uninit();
                // SAFETY: the slice covers exactly the size_of::<T>() bytes
                // of `val`; u8 has no validity requirements, so exposing
                // uninitialized memory for overwriting is sound here.
                let buf = unsafe {
                    std::slice::from_raw_parts_mut(
                        val.as_mut_ptr() as *mut u8,
                        std::mem::size_of::<T>(),
                    )
                };
                self.read_bytes(off, buf);
                // SAFETY: read_bytes filled every byte, and T: Pod makes any
                // byte pattern a valid T.
                unsafe { val.assume_init() }
            }
        }
    }

    /// Reads a POD value through a typed persistent pointer.
    #[inline]
    pub fn read<T: Pod>(&self, p: PPtr<T>) -> T {
        debug_assert_eq!(p.file_id(), self.file_id, "pointer into a different pool");
        self.read_at(p.offset())
    }

    // --------------------------------------------------------- persistence

    /// Makes `[off, off+len)` durable: the paper's `Persist` function
    /// (fence + CLFLUSH per line + fence). Charges one write delay per line.
    pub fn persist(&self, off: u64, len: usize) {
        self.check(off, len);
        if self.fuse_tick() {
            // Crash *before* the flush takes effect: persist never returned,
            // so durability of this range is not guaranteed.
            self.crash_now();
        }
        let first = off & !(CACHE_LINE as u64 - 1);
        let last = (off + len.max(1) as u64 - 1) & !(CACHE_LINE as u64 - 1);
        let lines = (last - first) / CACHE_LINE as u64 + 1;
        if self.mode == PoolMode::Tracked {
            let mut ov = self.overlay.lock();
            let mut line_off = first;
            while line_off <= last {
                if let Some(line) = ov.lines.remove(&line_off) {
                    self.flush_line_to_durable(line_off, &line);
                }
                line_off += CACHE_LINE as u64;
            }
        }
        if self.checker_enabled.load(Ordering::Relaxed) {
            // Recorded only after `fuse_tick`: a persist interrupted by an
            // injected crash never flushed anything.
            let (redundant, unwritten, recorded) = self.checker.lock().record_flush(off, len);
            PoolStats::add(&self.stats.checker_redundant_flushes, redundant);
            PoolStats::add(&self.stats.checker_unwritten_flushes, unwritten);
            if recorded {
                PoolStats::add(&self.stats.checker_events, 1);
            }
        }
        let traffic = self.stats.traffic();
        PoolStats::add(&traffic.persist_calls, 1);
        PoolStats::add(&traffic.flushed_lines, lines);
        let write_ns = self.write_ns.load(Ordering::Relaxed);
        if write_ns != 0 {
            crate::latency::busy_wait_ns(write_ns * lines);
        }
    }

    fn flush_line_to_durable(&self, line_off: u64, line: &DirtyLine) {
        for i in 0..CACHE_LINE {
            if line.dirty & (1 << i) != 0 {
                // SAFETY: overlay lines are created only by bounds-checked
                // writes, so line_off + i is within the buffer; the overlay
                // mutex (held by the caller) serializes these plain stores.
                unsafe {
                    *self.base().add(line_off as usize + i) = line.data[i];
                }
            }
        }
    }

    /// Memory fence (ordering only; our simulator is sequentially consistent
    /// per-pool, so this is bookkeeping).
    pub fn fence(&self) {
        if self.checker_enabled.load(Ordering::Relaxed) && self.checker.lock().record_fence() {
            PoolStats::add(&self.stats.checker_events, 1);
        }
        PoolStats::add(&self.stats.traffic().fences, 1);
    }

    // ------------------------------------------------- durability checker

    /// Turns on the persist-order durability checker (see [`crate::check`]).
    /// Once enabled it stays enabled for the pool's lifetime.
    pub fn enable_durability_checker(&self) {
        self.checker_enabled.store(true, Ordering::SeqCst);
    }

    /// Opens a *checked operation*: until the returned guard drops, stores
    /// and publishes issued by this thread are attributed to the operation,
    /// and on close the checker's detectors run over its event window
    /// (no-op while the checker is disabled). Operations nest; see
    /// [`crate::check`] for the event model and the detector rules.
    pub fn begin_checked_op(&self, label: &'static str) -> CheckedOp<'_> {
        if !self.checker_enabled.load(Ordering::Relaxed) {
            return CheckedOp::new(self, None);
        }
        let id = self.checker.lock().begin_op(label);
        check::push_op(self as *const PmemPool as usize, id);
        CheckedOp::new(self, Some(id))
    }

    /// Closes a checked operation (guard drop path).
    pub(crate) fn finish_checked_op(&self, id: u64, aborted: bool) {
        check::pop_op(self as *const PmemPool as usize, id);
        let (found, by_kind) = {
            let mut checker = self.checker.lock();
            let before = checker.kind_counts();
            let found = checker.end_op(id, aborted);
            let after = checker.kind_counts();
            let mut by_kind = [0u64; 4];
            for (d, (a, b)) in by_kind.iter_mut().zip(after.iter().zip(before.iter())) {
                *d = a - b;
            }
            (found, by_kind)
        };
        if !aborted {
            PoolStats::add(&self.stats.checker_ops, 1);
            PoolStats::add(&self.stats.checker_violations, found);
            let [missing, unordered, torn, multi] = by_kind;
            PoolStats::add(&self.stats.checker_missing_flush, missing);
            PoolStats::add(&self.stats.checker_unordered_publish, unordered);
            PoolStats::add(&self.stats.checker_torn_publish, torn);
            PoolStats::add(&self.stats.checker_unpublished_multi_word, multi);
        }
    }

    /// Snapshot of the checker's accumulated report.
    pub fn durability_report(&self) -> DurabilityReport {
        self.checker.lock().report()
    }

    /// Takes and resets the checker's accumulated report.
    pub fn take_durability_report(&self) -> DurabilityReport {
        self.checker.lock().take_report()
    }

    /// Panics with a rendered report if any durability violation was found.
    #[track_caller]
    pub fn assert_durability_clean(&self) {
        let report = self.durability_report();
        assert!(report.is_clean(), "{}", report.render());
    }

    /// Charges SCM read latency for the cache lines covering `[off, off+len)`.
    ///
    /// Trees call this once per leaf cache line they actually inspect — the
    /// simulator's equivalent of an SCM cache miss.
    #[inline]
    pub fn touch_read(&self, off: u64, len: usize) {
        let first = off & !(CACHE_LINE as u64 - 1);
        let last = (off + len.max(1) as u64 - 1) & !(CACHE_LINE as u64 - 1);
        let lines = (last - first) / CACHE_LINE as u64 + 1;
        PoolStats::add(&self.stats.traffic().read_lines, lines);
        let read_ns = self.read_ns.load(Ordering::Relaxed);
        if read_ns != 0 {
            crate::latency::busy_wait_ns(read_ns * lines);
        }
    }

    // ------------------------------------------------------------- atomics

    /// A reference to a *transient* atomic u64 inside the pool (leaf locks).
    ///
    /// Deliberately bypasses the tracked-mode overlay: the paper never
    /// persists leaf-lock writes; recovery resets them.
    #[inline]
    pub fn atomic_u64(&self, off: u64) -> &AtomicU64 {
        self.check(off, 8);
        assert_eq!(off % 8, 0, "atomic u64 must be 8-byte aligned");
        // SAFETY: the 8 bytes are in bounds and 8-byte aligned (asserted;
        // the buffer base is allocator-aligned well past 8), live in
        // UnsafeCell storage, and AtomicU64 is layout-compatible with u64.
        unsafe { &*(self.base().add(off as usize) as *const AtomicU64) }
    }

    // ---------------------------------------------------------------- root

    /// Persistently stores the application root object pointer (p-atomic).
    ///
    /// The root pointer is a commit record (it makes an object graph
    /// reachable after recovery), so the store goes through the publish path
    /// and the caller must have persisted the object it points to first.
    pub fn set_root(&self, off: u64) {
        self.write_publish_word(OFF_ROOT, off);
        self.persist(OFF_ROOT, 8);
    }

    /// Reads the application root object pointer (0 if unset).
    pub fn root(&self) -> u64 {
        self.read_word(OFF_ROOT)
    }

    // ---------------------------------------------------------------- files

    /// Writes the pool's durable image to a file (a clean shutdown to
    /// simulated "disk"). Together with [`load`](Self::load) this gives the
    /// library real cross-process persistence: the simulated SCM becomes an
    /// ordinary file between runs.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        std::fs::write(path, self.clean_image())
    }

    /// Loads a pool previously [`save`](Self::save)d, running allocator
    /// recovery (equivalent to [`reopen`](Self::reopen) from a file).
    pub fn load(path: impl AsRef<std::path::Path>, opts: PoolOptions) -> std::io::Result<PmemPool> {
        let bytes = std::fs::read(path)?;
        Self::reopen(bytes, opts).map_err(std::io::Error::other)
    }

    // ------------------------------------------------------------- crashes

    /// Materializes the durable image after a simulated power failure.
    ///
    /// Flushed data is intact. Each *8-byte word* containing unflushed bytes
    /// independently either reaches SCM (the CPU happened to evict it) or is
    /// lost, decided by `seed` — the strictest failure model consistent with
    /// the paper's 8-byte p-atomicity assumption. In direct mode everything
    /// is considered durable (direct mode cannot lose data).
    pub fn crash_image(&self, seed: u64) -> Vec<u8> {
        let mut image = vec![0u8; self.len];
        // SAFETY: both buffers are exactly `len` bytes and cannot overlap
        // (`image` is freshly allocated).
        unsafe {
            std::ptr::copy_nonoverlapping(self.base() as *const u8, image.as_mut_ptr(), self.len);
        }
        if self.mode == PoolMode::Tracked {
            // The base copy above contains only durable data for tracked
            // writes (they live in the overlay), but transient atomics were
            // written directly; that is fine — recovery resets them.
            let ov = self.overlay.lock();
            let mut rng = StdRng::seed_from_u64(seed);
            for (&line_off, line) in ov.lines.iter() {
                for word in 0..CACHE_LINE / PATOMIC_SIZE {
                    let word_mask = 0xFFu64 << (word * 8);
                    if line.dirty & word_mask == 0 {
                        continue;
                    }
                    if rng.gen_bool(0.5) {
                        // The word was evicted before the crash: its dirty
                        // bytes reached SCM.
                        for i in word * 8..word * 8 + 8 {
                            if line.dirty & (1 << i) != 0 {
                                image[line_off as usize + i] = line.data[i];
                            }
                        }
                    }
                }
            }
        }
        image
    }

    /// Durable image with *all* pending data flushed (a clean shutdown).
    pub fn clean_image(&self) -> Vec<u8> {
        let mut image = vec![0u8; self.len];
        // SAFETY: both buffers are exactly `len` bytes and cannot overlap
        // (`image` is freshly allocated).
        unsafe {
            std::ptr::copy_nonoverlapping(self.base() as *const u8, image.as_mut_ptr(), self.len);
        }
        if self.mode == PoolMode::Tracked {
            let ov = self.overlay.lock();
            for (&line_off, line) in ov.lines.iter() {
                for i in 0..CACHE_LINE {
                    if line.dirty & (1 << i) != 0 {
                        image[line_off as usize + i] = line.data[i];
                    }
                }
            }
        }
        image
    }

    /// Number of dirty (unflushed) cache lines in the simulated cache.
    pub fn dirty_lines(&self) -> usize {
        self.overlay.lock().lines.len()
    }
}

impl std::fmt::Debug for PmemPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PmemPool")
            .field("file_id", &self.file_id)
            .field("capacity", &self.len)
            .field("mode", &self.mode)
            .field("latency", &self.latency())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn direct_pool() -> PmemPool {
        PmemPool::create(PoolOptions::direct(1 << 20)).unwrap()
    }

    fn tracked_pool() -> PmemPool {
        PmemPool::create(PoolOptions::tracked(1 << 20)).unwrap()
    }

    #[test]
    fn create_initializes_header() {
        let pool = direct_pool();
        assert_eq!(pool.read_word(OFF_MAGIC), MAGIC);
        assert_eq!(pool.read_word(OFF_INIT), INIT_DONE);
        assert_eq!(pool.root(), 0);
    }

    #[test]
    fn write_read_roundtrip_direct() {
        let pool = direct_pool();
        pool.write_at(USER_BASE, &0xDEADBEEFu64);
        assert_eq!(pool.read_at::<u64>(USER_BASE), 0xDEADBEEF);
        let p: PPtr<u32> = PPtr::new(pool.file_id(), USER_BASE + 64);
        pool.write(p, &42u32);
        assert_eq!(pool.read(p), 42u32);
    }

    #[test]
    fn tracked_reads_see_own_unflushed_writes() {
        let pool = tracked_pool();
        pool.write_at(USER_BASE, &7u64);
        // Not persisted, but the CPU sees its own cache.
        assert_eq!(pool.read_at::<u64>(USER_BASE), 7);
        assert_eq!(pool.dirty_lines(), 1);
        pool.persist(USER_BASE, 8);
        assert_eq!(pool.dirty_lines(), 0);
        assert_eq!(pool.read_at::<u64>(USER_BASE), 7);
    }

    #[test]
    fn unflushed_data_can_be_lost_in_crash() {
        let pool = tracked_pool();
        pool.write_at(USER_BASE, &1u64);
        pool.persist(USER_BASE, 8);
        pool.write_at(USER_BASE + 8, &2u64); // never persisted
                                             // Across seeds, the unflushed word must sometimes be lost and
                                             // sometimes survive; the flushed one must always survive.
        let mut lost = false;
        let mut kept = false;
        for seed in 0..32 {
            let img = pool.crash_image(seed);
            let flushed = u64::from_le_bytes(img[USER_BASE as usize..][..8].try_into().unwrap());
            let pending =
                u64::from_le_bytes(img[USER_BASE as usize + 8..][..8].try_into().unwrap());
            assert_eq!(flushed, 1, "flushed data must survive any crash");
            match pending {
                0 => lost = true,
                2 => kept = true,
                other => panic!("torn 8-byte word: {other}"),
            }
        }
        assert!(lost && kept, "both outcomes must be possible");
    }

    #[test]
    fn clean_image_flushes_everything() {
        let pool = tracked_pool();
        pool.write_at(USER_BASE, &99u64);
        let img = pool.clean_image();
        let v = u64::from_le_bytes(img[USER_BASE as usize..][..8].try_into().unwrap());
        assert_eq!(v, 99);
    }

    #[test]
    fn reopen_clean_image_preserves_data() {
        let pool = tracked_pool();
        pool.write_at(USER_BASE + 128, &0xABCDu64);
        pool.persist(USER_BASE + 128, 8);
        let img = pool.clean_image();
        let pool2 = PmemPool::reopen(img, PoolOptions::tracked(0)).unwrap();
        assert_eq!(pool2.read_at::<u64>(USER_BASE + 128), 0xABCD);
        assert_eq!(pool2.file_id(), pool.file_id());
    }

    #[test]
    fn reopen_rejects_garbage() {
        assert!(matches!(
            PmemPool::reopen(vec![0u8; 1 << 20], PoolOptions::tracked(0)),
            Err(AllocError::BadImage)
        ));
    }

    #[test]
    fn crash_fuse_fires_after_n_events() {
        let pool = tracked_pool();
        pool.set_crash_fuse(Some(2));
        pool.write_at(USER_BASE, &1u64); // event 1 (fuse -> 1)
        pool.write_at(USER_BASE + 8, &2u64); // event 2 (fuse -> 0)
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.write_at(USER_BASE + 16, &3u64); // event 3: crash
        }));
        let err = r.unwrap_err();
        assert!(crash_is_injected(err.as_ref()));
    }

    #[test]
    fn persist_crash_fires_before_flush() {
        let pool = tracked_pool();
        pool.write_at(USER_BASE, &5u64);
        pool.set_crash_fuse(Some(0));
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.persist(USER_BASE, 8);
        }));
        assert!(crash_is_injected(r.unwrap_err().as_ref()));
        // The flush never happened: the line must still be dirty.
        assert_eq!(pool.dirty_lines(), 1);
    }

    #[test]
    fn save_load_roundtrip_via_file() {
        let pool = tracked_pool();
        pool.write_at(USER_BASE + 64, &0x5AFEu64);
        pool.persist(USER_BASE + 64, 8);
        pool.write_at(USER_BASE + 72, &0xBADu64); // unflushed: still saved
        let path = std::env::temp_dir().join(format!("fpt-pool-{}.img", std::process::id()));
        pool.save(&path).unwrap();
        let pool2 = PmemPool::load(&path, PoolOptions::tracked(0)).unwrap();
        assert_eq!(pool2.read_at::<u64>(USER_BASE + 64), 0x5AFE);
        assert_eq!(pool2.read_at::<u64>(USER_BASE + 72), 0xBAD);
        std::fs::remove_file(&path).unwrap();
        assert!(PmemPool::load(&path, PoolOptions::tracked(0)).is_err());
    }

    #[test]
    fn load_rejects_corrupt_file() {
        let path = std::env::temp_dir().join(format!("fpt-bad-{}.img", std::process::id()));
        std::fs::write(&path, vec![7u8; 1 << 20]).unwrap();
        assert!(PmemPool::load(&path, PoolOptions::tracked(0)).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn root_pointer_roundtrip() {
        let pool = direct_pool();
        pool.set_root(USER_BASE + 256);
        assert_eq!(pool.root(), USER_BASE + 256);
    }

    #[test]
    fn atomics_bypass_overlay() {
        let pool = tracked_pool();
        let a = pool.atomic_u64(USER_BASE);
        a.store(1, Ordering::SeqCst);
        assert_eq!(pool.atomic_u64(USER_BASE).load(Ordering::SeqCst), 1);
        // No dirty line was created: the write went straight to memory.
        assert_eq!(pool.dirty_lines(), 0);
    }

    #[test]
    fn checker_kind_counters_reach_stats() {
        let pool = PmemPool::create(PoolOptions::direct(1 << 20).with_checker()).unwrap();
        pool.stats().reset();
        {
            // Store dropped without a flush: MissingFlush.
            let _op = pool.begin_checked_op("kind_missing_flush");
            pool.write_at(USER_BASE, &7u64);
        }
        {
            // Operand flushed by the same persist call as the commit record:
            // UnorderedPublish (the commit may become durable first).
            let _op = pool.begin_checked_op("kind_unordered_publish");
            pool.write_at(USER_BASE + 64, &1u64);
            pool.write_publish_word(USER_BASE + 128, 2);
            pool.persist(USER_BASE + 64, 72);
        }
        let s = pool.stats().snapshot();
        assert_eq!(s.checker_ops, 2);
        assert_eq!(s.checker_missing_flush, 1);
        assert_eq!(s.checker_unordered_publish, 1);
        assert_eq!(s.checker_torn_publish, 0);
        assert_eq!(s.checker_unpublished_multi_word, 0);
        assert_eq!(s.checker_violations, 2);
        // The pool-level report carries the same per-kind tallies.
        let r = pool.take_durability_report();
        assert_eq!(r.missing_flush, 1);
        assert_eq!(r.unordered_publish, 1);
    }

    #[test]
    fn stats_count_flush_traffic() {
        let pool = direct_pool();
        pool.stats().reset();
        pool.write_at(USER_BASE, &[0u8; 256]);
        pool.persist(USER_BASE, 256);
        let s = pool.stats().snapshot();
        assert_eq!(s.persist_calls, 1);
        assert_eq!(s.flushed_lines, 4);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_write_panics() {
        let pool = direct_pool();
        pool.write_at(pool.capacity() as u64 - 4, &0u64);
    }

    #[test]
    fn unaligned_word_write_rejected() {
        let pool = direct_pool();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.write_word(USER_BASE + 1, 1)
        }));
        assert!(r.is_err());
    }

    #[test]
    fn tracked_write_spanning_lines() {
        let pool = tracked_pool();
        let data = [0xAAu8; 200];
        let off = USER_BASE + 40; // deliberately misaligned start
        pool.write_bytes(off, &data);
        let mut back = [0u8; 200];
        pool.read_bytes(off, &mut back);
        assert_eq!(back, data);
        pool.persist(off, 200);
        let mut back2 = [0u8; 200];
        pool.read_bytes(off, &mut back2);
        assert_eq!(back2, data);
        assert_eq!(pool.dirty_lines(), 0);
    }
}
