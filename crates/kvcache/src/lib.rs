//! memcached-style key-value cache with a pluggable index (paper §6.4).
//!
//! The paper integrates the evaluated trees into memcached by replacing its
//! hash table with the variable-size-key tree variants (full string keys,
//! values = item references) and measuring mc-benchmark SET/GET throughput.
//! This crate provides the pieces: a sharded [`store::ItemStore`], the
//! [`cache::KvCache`] core over any [`fptree_core::index::BytesIndex`], a
//! memcached text-[`protocol`] implementation, the per-connection
//! [`session`] state machine, and the TCP [`server`] front-end that moves
//! bytes for it (see DESIGN.md §2 for the substitution argument). Like
//! the paper's runs, whose cache never fills, the cache is unbounded: it
//! never evicts.

pub mod cache;
pub mod protocol;
pub mod server;
pub mod session;
pub mod shard;
pub mod store;

pub use cache::{Cache, KvCache};
pub use server::{Client, ServerBuilder, ServerHandle};
pub use shard::ShardedCache;
pub use store::{Item, ItemStore};
