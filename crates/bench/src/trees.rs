//! Every evaluated tree behind the index traits, configured with the node
//! sizes of Table 1, and the one timing kernel the figures share.

use std::sync::Arc;

use fptree_baselines::adapters::Locked as LockedBaseline;
use fptree_baselines::{HashIndex, NVTreeC, StxTree, WBTree};
use fptree_core::keys::{FixedKey, VarKey};
use fptree_core::{
    BytesIndex, ConcurrentTree, KeyKind, Locked, RecoveryStats, SingleTree, Snapshot, TreeConfig,
    U64Index,
};
use fptree_pmem::{PmemPool, ROOT_SLOT};

use crate::{drive, key_sets, pool, string_key};

/// The trees of the evaluation (§6.1), plus Figure 13's hash table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TreeKind {
    /// Single-threaded FPTree (fingerprints + leaf groups).
    FPTree,
    /// PTree: selective persistence + unsorted leaves only.
    PTree,
    /// NV-Tree, its concurrent variant (DRAM inner nodes granted, as in
    /// the paper).
    NVTree,
    /// wBTree: all-SCM, sorted indirection slot arrays.
    WBTree,
    /// STX B+-Tree: the transient DRAM reference.
    Stx,
    /// Concurrent FPTree (selective concurrency).
    FPTreeC,
    /// memcached's own structure: a locked hash table (DRAM, unordered).
    Hash,
}

impl TreeKind {
    /// The single-threaded comparison set of Figures 7 and 8.
    pub const FIG7: [TreeKind; 5] = [
        TreeKind::FPTree,
        TreeKind::PTree,
        TreeKind::NVTree,
        TreeKind::WBTree,
        TreeKind::Stx,
    ];

    /// Display name as used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            TreeKind::FPTree => "FPTree",
            TreeKind::PTree => "PTree",
            TreeKind::NVTree => "NV-Tree",
            TreeKind::WBTree => "wBTree",
            TreeKind::Stx => "STXTree",
            TreeKind::FPTreeC => "FPTreeC",
            TreeKind::Hash => "HashMap",
        }
    }

    /// True for the DRAM-only structures, which a restart rebuilds from
    /// scratch instead of recovering.
    pub fn transient(self) -> bool {
        matches!(self, TreeKind::Stx | TreeKind::Hash)
    }

    /// A fresh pool of `mb` MiB at `latency_ns` for a persistent kind;
    /// None for the DRAM-only ones.
    pub fn pool(self, mb: usize, latency_ns: u64) -> Option<Arc<PmemPool>> {
        (!self.transient()).then(|| pool(mb, latency_ns))
    }
}

/// `(leaf entries, inner fanout)` overriding a tree's Table 1 node sizes.
pub type Nodes = Option<(usize, usize)>;

/// Table 1 configuration of the FPTree-family kinds (baselines take none).
fn config(kind: TreeKind, var_keys: bool, nodes: Nodes) -> TreeConfig {
    let cfg = match (kind, var_keys) {
        (TreeKind::PTree, false) => TreeConfig::ptree(),
        (TreeKind::PTree, true) => TreeConfig::ptree_var(),
        (TreeKind::FPTreeC, false) => TreeConfig::fptree_concurrent(),
        (TreeKind::FPTreeC, true) => TreeConfig::fptree_concurrent_var(),
        (_, false) => TreeConfig::fptree(),
        (_, true) => TreeConfig::fptree_var(),
    };
    match nodes {
        Some((leaf, inner)) => cfg.with_leaf_capacity(leaf).with_inner_fanout(inner),
        None => cfg,
    }
}

/// Table 1 node sizes of the baselines.
fn baseline_nodes(kind: TreeKind, var_keys: bool, nodes: Nodes) -> (usize, usize) {
    nodes.unwrap_or(match kind {
        TreeKind::NVTree => (32, 128),
        TreeKind::WBTree => (64, 32),
        TreeKind::Stx if var_keys => (8, 8),
        _ => (16, 16),
    })
}

/// `(scm_bytes, dram_bytes)` of a tree, read on demand (Figure 8).
type Footprint = Box<dyn Fn() -> (u64, u64)>;

/// A tree under benchmark behind its index trait (`dyn U64Index` or
/// `dyn BytesIndex`; the handle derefs to it), plus the two things the
/// trait does not carry: the backing pool and the memory footprint.
/// Single-threaded trees sit behind the global-lock `Locked` adapters, as
/// the paper runs non-concurrent trees.
pub struct BenchTree<I: ?Sized> {
    index: Arc<I>,
    pool: Option<Arc<PmemPool>>,
    footprint: Footprint,
}

/// What every constructor arm yields before its tree is type-erased.
type Parts<T> = (Arc<T>, Option<Arc<PmemPool>>, Footprint);

impl<I: ?Sized> BenchTree<I> {
    /// `erase` is always `|t| t`: its signature is where the concrete
    /// `Arc<T>` unsizes to the trait object.
    fn new<T>((index, pool, footprint): Parts<T>, erase: fn(Arc<T>) -> Arc<I>) -> Self {
        BenchTree {
            index: erase(index),
            pool,
            footprint,
        }
    }

    /// The backing pool; None for the DRAM-only kinds.
    pub fn pool(&self) -> Option<&Arc<PmemPool>> {
        self.pool.as_ref()
    }

    /// `(scm_bytes, dram_bytes)` footprint (Figure 8).
    pub fn memory(&self) -> (u64, u64) {
        (self.footprint)()
    }

    /// A shared handle to the index.
    pub fn index(&self) -> Arc<I> {
        Arc::clone(&self.index)
    }

    /// Persist calls the backing pool has issued so far; zero for the
    /// DRAM-only kinds.
    pub fn persists(&self) -> u64 {
        self.pool
            .as_ref()
            .map_or(0, |p| p.stats().snapshot().persist_calls)
    }
}

impl<I: ?Sized> std::ops::Deref for BenchTree<I> {
    type Target = I;
    fn deref(&self) -> &I {
        &self.index
    }
}

/// Allocator-live SCM bytes plus `dram` — the footprint of the trees that
/// do not account their own SCM (the all-SCM wBTree passes `dram` = 0).
fn live_bytes(pool: &PmemPool, dram: u64) -> (u64, u64) {
    (pool.alloc_stats().expect("walk").live_bytes, dram)
}

fn single<K: KeyKind>(
    pool: Arc<PmemPool>,
    cfg: TreeConfig,
    slot: u64,
) -> Parts<Locked<SingleTree<K>>> {
    let tree = SingleTree::create(Arc::clone(&pool), cfg, slot);
    let t = Arc::new(Locked::new(tree));
    let tree = Arc::clone(&t);
    let footprint = move || {
        let m = tree.0.lock().memory_usage();
        (m.scm_bytes, m.dram_bytes)
    };
    (t, Some(pool), Box::new(footprint))
}

fn concurrent<K: KeyKind>(
    pool: Arc<PmemPool>,
    cfg: TreeConfig,
    slot: u64,
) -> Parts<ConcurrentTree<K>> {
    let t = Arc::new(ConcurrentTree::create(Arc::clone(&pool), cfg, slot));
    let tree = Arc::clone(&t);
    let footprint = move || live_bytes(tree.pool(), tree.dram_bytes() as u64);
    (t, Some(pool), Box::new(footprint))
}

fn nvtree<K: KeyKind>(
    pool: Arc<PmemPool>,
    (leaf, inner): (usize, usize),
    slot: u64,
) -> Parts<NVTreeC<K>> {
    let t = Arc::new(NVTreeC::create(Arc::clone(&pool), leaf, inner, slot));
    let tree = Arc::clone(&t);
    let footprint = move || {
        let (scm, dram, _) = tree.memory_usage();
        (scm, dram)
    };
    (t, Some(pool), Box::new(footprint))
}

fn wbtree<K: KeyKind>(
    pool: Arc<PmemPool>,
    (leaf, inner): (usize, usize),
    slot: u64,
) -> Parts<LockedBaseline<WBTree<K>>> {
    let tree = WBTree::create(Arc::clone(&pool), leaf, inner, slot);
    let t = Arc::new(LockedBaseline::new(tree));
    let walked = Arc::clone(&pool);
    (t, Some(pool), Box::new(move || live_bytes(&walked, 0)))
}

fn stx<K: Ord + Clone + 'static>(
    (leaf, inner): (usize, usize),
) -> Parts<LockedBaseline<StxTree<K>>> {
    let t = Arc::new(LockedBaseline::new(StxTree::with_capacities(leaf, inner)));
    let tree = Arc::clone(&t);
    let key_bytes = std::mem::size_of::<K>();
    let footprint = move || (0, tree.0.lock().memory_bytes(key_bytes) as u64);
    (t, None, Box::new(footprint))
}

fn hash<K: Eq + std::hash::Hash>() -> Parts<HashIndex<K>> {
    (Arc::new(HashIndex::new(1024)), None, Box::new(|| (0, 0)))
}

/// Builds the fixed-key tree of `kind` at owner `slot` of `pool` (None for
/// the DRAM-only kinds), with Table 1 node sizes unless `nodes` overrides
/// them. `value_size` models larger payloads in the FPTree family
/// (Appendix A); pass 8 normally.
pub fn u64_tree(
    kind: TreeKind,
    pool: Option<Arc<PmemPool>>,
    slot: u64,
    nodes: Nodes,
    value_size: usize,
) -> BenchTree<dyn U64Index> {
    let pool = move || pool.expect("a persistent tree needs a pool");
    let cfg = config(kind, false, nodes).with_value_size(value_size);
    let sizes = baseline_nodes(kind, false, nodes);
    match kind {
        TreeKind::FPTree | TreeKind::PTree => {
            BenchTree::new(single::<FixedKey>(pool(), cfg, slot), |t| t)
        }
        TreeKind::FPTreeC => BenchTree::new(concurrent::<FixedKey>(pool(), cfg, slot), |t| t),
        TreeKind::NVTree => BenchTree::new(nvtree::<FixedKey>(pool(), sizes, slot), |t| t),
        TreeKind::WBTree => BenchTree::new(wbtree::<FixedKey>(pool(), sizes, slot), |t| t),
        TreeKind::Stx => BenchTree::new(stx::<u64>(sizes), |t| t),
        TreeKind::Hash => BenchTree::new(hash::<u64>(), |t| t),
    }
}

/// Builds the variable-size-key variant of `kind`; see [`u64_tree`].
fn bytes_tree(
    kind: TreeKind,
    pool: Option<Arc<PmemPool>>,
    slot: u64,
    nodes: Nodes,
) -> BenchTree<dyn BytesIndex> {
    let pool = move || pool.expect("a persistent tree needs a pool");
    let cfg = config(kind, true, nodes);
    let sizes = baseline_nodes(kind, true, nodes);
    match kind {
        TreeKind::FPTree | TreeKind::PTree => {
            BenchTree::new(single::<VarKey>(pool(), cfg, slot), |t| t)
        }
        TreeKind::FPTreeC => BenchTree::new(concurrent::<VarKey>(pool(), cfg, slot), |t| t),
        TreeKind::NVTree => BenchTree::new(nvtree::<VarKey>(pool(), sizes, slot), |t| t),
        TreeKind::WBTree => BenchTree::new(wbtree::<VarKey>(pool(), sizes, slot), |t| t),
        TreeKind::Stx => BenchTree::new(stx::<Vec<u8>>(sizes), |t| t),
        TreeKind::Hash => BenchTree::new(hash::<Vec<u8>>(), |t| t),
    }
}

/// What recovering a persistent tree yielded.
pub struct Reopened {
    /// Keys the recovered tree holds.
    pub len: usize,
    /// Per-phase recovery timings (FPTree family only).
    pub stats: Option<RecoveryStats>,
    /// The recovered tree's metrics: the recovery work alone.
    pub metrics: Option<Snapshot>,
}

/// Recovers the single-threaded tree of `kind` at owner `slot` of `pool`,
/// with `threads` recovery workers in the FPTree family (0 picks the
/// default). `nodes` must match what the tree was built with.
pub fn reopen<K: KeyKind>(
    kind: TreeKind,
    pool: Arc<PmemPool>,
    slot: u64,
    threads: usize,
    nodes: Nodes,
) -> Reopened {
    let len = match kind {
        TreeKind::FPTree | TreeKind::PTree => {
            let t = SingleTree::<K>::open_with(pool, slot, threads).expect("recover");
            return Reopened {
                len: t.len(),
                stats: t.recovery_stats(),
                metrics: Some(t.metrics_snapshot()),
            };
        }
        TreeKind::NVTree => {
            let fanout = baseline_nodes(kind, K::IS_VAR, nodes).1;
            NVTreeC::<K>::open(pool, fanout, slot).len()
        }
        TreeKind::WBTree => WBTree::<K>::open(pool, slot).len(),
        _ => panic!("{} is not reopened by the figures", kind.name()),
    };
    Reopened {
        len,
        stats: None,
        metrics: None,
    }
}

/// One phase of the timing [`kernel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Look up every warm key.
    Find,
    /// Insert every extra key.
    Insert,
    /// Update every warm key.
    Update,
    /// Remove every extra key.
    Delete,
    /// Alternate inserting an extra key and finding a warm one.
    Mixed,
}

/// The key type of an [`Index`].
pub type Key<I> = <<I as Index>::K as KeyKind>::Owned;

/// What the figures need of an index, whatever its key kind: the
/// fixed-key and variable-key variants of a figure run the same generic
/// code over `dyn U64Index` and `dyn BytesIndex`.
pub trait Index: Send + Sync {
    /// Key kind of the persistent trees (`FixedKey` / `VarKey`).
    type K: KeyKind;
    /// Experiment-id suffix: "fixed" or "var".
    const KEYS: &'static str;

    /// Builds `kind` with Table 1 node sizes over a fresh pool of
    /// `pool_mb` MiB at `latency_ns` (see [`TreeKind::pool`]).
    fn build(kind: TreeKind, pool_mb: usize, latency_ns: u64) -> BenchTree<Self>;
    /// The evaluation's key for `k`: `k` itself, or its 16-byte string.
    fn key(k: u64) -> Key<Self>;
    /// One point operation (not [`Op::Mixed`]); true on success or hit.
    fn apply(&self, op: Op, key: &Key<Self>, value: u64) -> bool;
    /// Batched insert of `entries`.
    fn ingest(&self, entries: &[(Key<Self>, u64)]);
    /// Batched remove of `keys`.
    fn drain(&self, keys: &[Key<Self>]);
    /// The tree's metrics snapshot, if it is instrumented.
    fn snapshot(&self) -> Option<Snapshot>;

    /// Disjoint warm and extra key sets of `n` keys each (see [`key_sets`]).
    fn keys(n: usize, seed: u64) -> (Vec<Key<Self>>, Vec<Key<Self>>) {
        let (warm, extra) = key_sets(n, seed);
        let convert = |ks: Vec<u64>| ks.into_iter().map(Self::key).collect();
        (convert(warm), convert(extra))
    }

    /// Inserts `keys`, the i-th with value i.
    fn fill(&self, keys: &[Key<Self>]) {
        for (i, k) in keys.iter().enumerate() {
            self.apply(Op::Insert, k, i as u64);
        }
    }
}

impl Index for dyn U64Index {
    type K = FixedKey;
    const KEYS: &'static str = "fixed";

    fn build(kind: TreeKind, pool_mb: usize, latency_ns: u64) -> BenchTree<Self> {
        u64_tree(kind, kind.pool(pool_mb, latency_ns), ROOT_SLOT, None, 8)
    }
    fn key(k: u64) -> u64 {
        k
    }
    fn apply(&self, op: Op, key: &u64, value: u64) -> bool {
        match op {
            Op::Find => self.get(*key).is_some(),
            Op::Insert => self.insert(*key, value),
            Op::Update => self.update(*key, value),
            Op::Delete => self.remove(*key),
            Op::Mixed => unreachable!("the kernel splits a mixed phase"),
        }
    }
    fn ingest(&self, entries: &[(u64, u64)]) {
        self.insert_batch(entries);
    }
    fn drain(&self, keys: &[u64]) {
        self.remove_batch(keys);
    }
    fn snapshot(&self) -> Option<Snapshot> {
        self.metrics_snapshot()
    }
}

impl Index for dyn BytesIndex {
    type K = VarKey;
    const KEYS: &'static str = "var";

    fn build(kind: TreeKind, pool_mb: usize, latency_ns: u64) -> BenchTree<Self> {
        bytes_tree(kind, kind.pool(pool_mb, latency_ns), ROOT_SLOT, None)
    }
    fn key(k: u64) -> Vec<u8> {
        string_key(k)
    }
    fn apply(&self, op: Op, key: &Vec<u8>, value: u64) -> bool {
        match op {
            Op::Find => self.get(key).is_some(),
            Op::Insert => self.insert(key, value),
            Op::Update => self.update(key, value),
            Op::Delete => self.remove(key),
            Op::Mixed => unreachable!("the kernel splits a mixed phase"),
        }
    }
    fn ingest(&self, entries: &[(Vec<u8>, u64)]) {
        self.insert_batch(entries);
    }
    fn drain(&self, keys: &[Vec<u8>]) {
        self.remove_batch(keys);
    }
    fn snapshot(&self) -> Option<Snapshot> {
        self.metrics_snapshot()
    }
}

/// The one timing kernel: runs each of `ops` in turn over every index of
/// `warm` on `threads` threads and returns wall-clock µs per operation.
/// Find and Update touch `warm` (already in the tree), Insert and Delete
/// touch `extra`.
pub fn kernel<I: Index + ?Sized>(
    t: &I,
    warm: &[Key<I>],
    extra: &[Key<I>],
    threads: usize,
    ops: &[Op],
) -> Vec<f64> {
    let n = warm.len();
    ops.iter()
        .map(|&op| {
            let us = drive(threads, n, |i| {
                let (op, key) = match op {
                    Op::Find | Op::Update => (op, &warm[i]),
                    Op::Insert | Op::Delete => (op, &extra[i]),
                    Op::Mixed if i % 2 == 0 => (Op::Insert, &extra[i]),
                    Op::Mixed => (Op::Find, &warm[i]),
                };
                std::hint::black_box(t.apply(op, key, i as u64));
            });
            us / n as f64
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: [TreeKind; 7] = [
        TreeKind::FPTree,
        TreeKind::PTree,
        TreeKind::NVTree,
        TreeKind::WBTree,
        TreeKind::Stx,
        TreeKind::FPTreeC,
        TreeKind::Hash,
    ];

    #[test]
    fn every_kind_builds_and_round_trips() {
        for kind in ALL {
            let t = <dyn U64Index>::build(kind, 64, 90);
            for i in 0..500u64 {
                assert!(t.insert(i, i + 1), "{:?} insert {i}", kind);
            }
            for i in 0..500u64 {
                assert_eq!(t.get(i), Some(i + 1), "{:?} get {i}", kind);
            }
            assert!(t.update(7, 70));
            assert!(t.remove(8));
            assert_eq!(t.get(7), Some(70));
            assert_eq!(t.get(8), None);
            assert_eq!(t.pool().is_some(), !kind.transient());
            let (scm, dram) = t.memory();
            assert!(
                scm + dram > 0 || kind == TreeKind::Hash,
                "{:?} footprint",
                kind
            );
            if kind == TreeKind::Hash {
                continue; // unordered: no scans
            }
            let s = t.scan_from(100, 5).unwrap();
            let expect: Vec<_> = (100..105).map(|i| (i, i + 1)).collect();
            assert_eq!(s, expect, "{:?} scan_from", kind);
            // Scan over the deleted key 8: skipped, not counted.
            assert_eq!(
                t.scan_from(7, 3).unwrap(),
                vec![(7, 70), (9, 10), (10, 11)],
                "{:?} scan over hole",
                kind
            );
        }
    }

    #[test]
    fn every_var_kind_builds_and_round_trips() {
        for kind in ALL {
            let t = <dyn BytesIndex>::build(kind, 128, 90);
            let (warm, _) = <dyn BytesIndex>::keys(300, 1);
            t.fill(&warm);
            for (i, k) in warm.iter().enumerate() {
                assert_eq!(t.get(k), Some(i as u64), "{:?}", kind);
            }
        }
    }

    #[test]
    fn kernel_leaves_warm_keys_and_takes_extras_back() {
        let t = <dyn U64Index>::build(TreeKind::FPTreeC, 64, 90);
        let (warm, extra) = <dyn U64Index>::keys(1_000, 5);
        t.fill(&warm);
        let ops = [Op::Find, Op::Insert, Op::Update, Op::Delete];
        let us = kernel(&*t, &warm, &extra, 2, &ops);
        assert!(us.iter().all(|u| u.is_finite() && *u > 0.0));
        assert_eq!(t.len(), warm.len());
        kernel(&*t, &warm, &extra, 2, &[Op::Mixed]);
        assert_eq!(t.len(), warm.len() + warm.len() / 2);
    }
}
