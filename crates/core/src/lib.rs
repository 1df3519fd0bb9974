//! # FPTree — a hybrid SCM-DRAM persistent and concurrent B+-Tree
//!
//! Rust reproduction of *Oukid et al., "FPTree: A Hybrid SCM-DRAM Persistent
//! and Concurrent B-Tree for Storage Class Memory", SIGMOD 2016*.
//!
//! The FPTree keeps **leaf nodes in (simulated) storage class memory** and
//! **inner nodes in DRAM**, rebuilt on recovery (Selective Persistence). Leaf
//! lookups scan a one-byte-per-key **fingerprint** array first, bounding
//! expected in-leaf key probes to one. The concurrent variant wraps inner
//! work in (emulated) **hardware transactions** while persistent leaf work
//! runs outside them under fine-grained leaf locks (Selective Concurrency).
//! All persistent-memory management follows the paper's sound programming
//! model: persistent pointers, a leak-preventing crash-safe allocator, and
//! micro-logged structural operations.
//!
//! ## Quick start
//!
//! ```
//! use std::sync::Arc;
//! use fptree_pmem::{PmemPool, PoolOptions, ROOT_SLOT};
//! use fptree_core::{FPTree, TreeConfig};
//!
//! let pool = Arc::new(PmemPool::create(PoolOptions::direct(32 << 20)).unwrap());
//! let mut tree = FPTree::create(Arc::clone(&pool), TreeConfig::fptree(), ROOT_SLOT);
//! tree.insert(&42, 4200);
//! assert_eq!(tree.get(&42), Some(4200));
//! ```
//!
//! ## Crate map
//!
//! | Module | Paper section |
//! |---|---|
//! | [`fingerprint`] | §4.2 Fingerprints (+ Figure 4 analysis) |
//! | [`config`] / [`layout`] | Table 1 node sizing, Figure 2 leaf layout |
//! | [`keys`] | Appendix C variable-size keys |
//! | [`meta`] | §5 micro-logs |
//! | `leafops` (private) | §5 base operations inside one leaf — the mutation kernel both trees call — plus micro-logged split/unlink and the leak audits |
//! | `recovery` (private) | Algorithm 9: the recovery driver both trees' `open` run |
//! | [`single`] | index shell: DRAM inner nodes around the kernel, §4.3 leaf groups |
//! | [`concurrent`] | index shell: §4.4 Selective Concurrency (speculative locate + leaf locks, Algorithms 1–8) around the kernel |
//! | [`scan`] | ordered range scans over the unsorted leaf chain |
//! | [`metrics`] | observability: op latencies, contention counters |
//! | [`shard`] | keyspace-sharded multi-tree serving layer |
//! | [`api`] | the typed [`Error`], the key-length limit, and the pre-flight check behind every `try_create` |

#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

pub mod api;
mod batch;
pub mod concurrent;
pub mod config;
pub mod fingerprint;
mod groups;
pub mod index;
mod inner;
pub mod keys;
pub mod layout;
pub mod leaf;
mod leafops;
pub mod meta;
pub mod metrics;
mod recovery;
pub mod scan;
pub mod shard;
pub mod single;

pub use api::{Error, MAX_KEY_BYTES};
pub use concurrent::{ConcKey, ConcurrentFPTree, ConcurrentFPTreeVar, ConcurrentTree};
pub use config::TreeConfig;
pub use index::{BytesIndex, Locked, U64Index};
pub use keys::{FixedKey, KeyKind, VarKey};
pub use layout::LeafLayout;
pub use metrics::{Counter, Metrics, Op, OpTimer, RecoveryStats, Snapshot};
pub use scan::{ConcScan, Scan, ScanBounds};
pub use shard::{
    bytes_shard, u64_shard, ShardKey, Sharded, ShardedScan, ShardedTree, ShardedTreeVar,
};
pub use single::{FPTree, FPTreeVar, MemoryUsage, SingleTree, TreeIter};
