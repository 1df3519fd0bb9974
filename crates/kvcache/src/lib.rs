//! memcached-style key-value cache with a pluggable index (paper §6.4).
//!
//! The paper integrates the evaluated trees into memcached by replacing its
//! hash table with the variable-size-key tree variants (full string keys,
//! values = item references) and measuring mc-benchmark SET/GET throughput.
//! This crate provides the pieces: a sharded [`store::ItemStore`], the
//! [`cache::KvCache`] core over any [`fptree_core::index::BytesIndex`], a
//! memcached text-[`protocol`] implementation with a TCP [`server`]
//! front-end (see DESIGN.md §2 for the substitution argument).

pub mod cache;
pub mod lru;
pub mod protocol;
pub mod server;
pub mod shard;
pub mod store;

pub use cache::{Cache, KvCache};
pub use lru::LruList;
pub use server::{Client, ServerBuilder, ServerHandle};
pub use shard::ShardedCache;
pub use store::{Item, ItemStore};
