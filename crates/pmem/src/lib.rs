//! Simulated Storage Class Memory (SCM) for the FPTree reproduction.
//!
//! The FPTree paper evaluates on an SCM emulation platform: ordinary DRAM
//! whose access latency to a reserved region is raised by a special BIOS,
//! managed by a persistent-memory-aware file system (PMFS / ext4-DAX) that
//! maps it directly into the address space. This crate provides the software
//! equivalent:
//!
//! * [`PmemPool`] — a byte-addressable persistent memory pool ("file") with
//!   load/store access, explicit persistence primitives ([`PmemPool::persist`],
//!   [`PmemPool::fence`]) and configurable extra latency per SCM cache-line
//!   access ([`LatencyProfile`]).
//! * [`PPtr`] — 16-byte persistent pointers (file id + offset), the paper's
//!   answer to address-space layout changing across restarts (§2 "Data
//!   recovery").
//! * A crash-safe **persistent allocator** whose interface takes a reference
//!   to a persistent pointer *inside the caller's persistent data structure*
//!   and persists the allocation result into it before returning, splitting
//!   leak discovery between allocator and data structure (§2 "Memory leaks").
//! * **Crash simulation** — in [`PoolMode::Tracked`] mode, stores land in a
//!   simulated CPU-cache overlay and reach the durable image only when
//!   flushed; [`PmemPool::crash_image`] materializes the durable state after
//!   a crash in which unflushed data is lost at 8-byte granularity (the
//!   paper's p-atomicity assumption, §2 "Partial writes"). A write/persist
//!   *fuse* ([`PmemPool::set_crash_fuse`]) lets tests inject a crash at any
//!   point inside an operation.
//!
//! Benchmarks use [`PoolMode::Direct`] where stores hit the backing memory
//! immediately and `persist` only costs (emulated) latency and bookkeeping.
//!
//! The [`check`] module adds a pmemcheck-style **durability checker** on
//! top of tracked mode: an event trace of stores / publishes / flushes /
//! fences, analyzed per *checked operation* for missing flushes, unordered
//! commit records, torn publishes and redundant flush traffic.

#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

mod alloc;
pub mod check;
mod latency;
mod pool;
pub mod poolset;
mod pptr;
mod stats;

pub use alloc::{usable_size, AllocError, AllocStats, BLOCK_HEADER_SIZE};
pub use check::{CheckedOp, DurabilityReport, Violation, ViolationKind};
pub use latency::{busy_wait_ns, LatencyProfile};
pub use pool::{
    crash_is_injected, CrashPanic, PmemPool, PoolMode, PoolOptions, CACHE_LINE, ROOT_SLOT,
    USER_BASE,
};
pub use poolset::{create_pools, load_pools, save_pools, shard_file_count, shard_path};
pub use pptr::{PPtr, Pod, RawPPtr, NULL_OFFSET};
pub use stats::{PoolStats, StatsSnapshot};

/// Result alias for pool construction / allocation failures.
pub type Result<T> = std::result::Result<T, AllocError>;
