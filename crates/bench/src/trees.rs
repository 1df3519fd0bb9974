//! Every evaluated tree behind the index traits, configured with the node
//! sizes of Table 1.

use std::sync::Arc;

use fptree_baselines::adapters::Locked as LockedBaseline;
use fptree_baselines::{NVTreeC, StxTree, WBTree};
use fptree_core::keys::{FixedKey, VarKey};
use fptree_core::{
    BytesIndex, ConcKey, ConcurrentTree, KeyKind, Locked, SingleTree, TreeConfig, U64Index,
};
use fptree_pmem::{LatencyProfile, PmemPool, PoolOptions, ROOT_SLOT};

/// The trees of the evaluation (§6.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TreeKind {
    /// Single-threaded FPTree (fingerprints + leaf groups).
    FPTree,
    /// PTree: selective persistence + unsorted leaves only.
    PTree,
    /// NV-Tree (DRAM inner nodes granted, as in the paper).
    NVTree,
    /// wBTree: all-SCM, sorted indirection slot arrays.
    WBTree,
    /// STX B+-Tree: the transient DRAM reference.
    Stx,
    /// Concurrent FPTree (selective concurrency).
    FPTreeC,
}

impl TreeKind {
    /// Display name as used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            TreeKind::FPTree => "FPTree",
            TreeKind::PTree => "PTree",
            TreeKind::NVTree => "NV-Tree",
            TreeKind::WBTree => "wBTree",
            TreeKind::Stx => "STXTree",
            TreeKind::FPTreeC => "FPTreeC",
        }
    }

    /// The single-threaded comparison set of Figure 7.
    pub fn fig7_set() -> [TreeKind; 5] {
        [
            TreeKind::FPTree,
            TreeKind::PTree,
            TreeKind::NVTree,
            TreeKind::WBTree,
            TreeKind::Stx,
        ]
    }
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

    /// The backing pool; None for the DRAM-only STXTree.
    pub fn pool(&self) -> Option<&Arc<PmemPool>> {
        self.pool.as_ref()
    }

    /// `(scm_bytes, dram_bytes)` footprint (Figure 8).
    pub fn memory(&self) -> (u64, u64) {
        (self.footprint)()
    }
}

impl<I: ?Sized> std::ops::Deref for BenchTree<I> {
    type Target = I;
    fn deref(&self) -> &I {
        &self.index
    }
}

fn make_pool(mb: usize, total_latency_ns: u64) -> Arc<PmemPool> {
    let latency = LatencyProfile::from_total(total_latency_ns);
    let opts = PoolOptions::direct(mb << 20).with_latency(latency);
    Arc::new(PmemPool::create(opts).expect("pool creation"))
}

/// What every constructor arm yields before its tree is type-erased.
type Parts<T> = (Arc<T>, Option<Arc<PmemPool>>, Footprint);

/// Allocator-live SCM bytes plus `dram` — the footprint of the trees that
/// do not account their own SCM (the all-SCM wBTree passes `dram` = 0).
fn live_bytes(pool: &PmemPool, dram: u64) -> (u64, u64) {
    (pool.alloc_stats().expect("walk").live_bytes, dram)
}

fn single<K: KeyKind>(pool: Arc<PmemPool>, cfg: TreeConfig) -> Parts<Locked<SingleTree<K>>> {
    let tree = SingleTree::create(Arc::clone(&pool), cfg, ROOT_SLOT);
    let t = Arc::new(Locked::new(tree));
    let tree = Arc::clone(&t);
    let footprint = move || {
        let m = tree.0.lock().memory_usage();
        (m.scm_bytes, m.dram_bytes)
    };
    (t, Some(pool), Box::new(footprint))
}

fn concurrent<K: ConcKey>(pool: Arc<PmemPool>, cfg: TreeConfig) -> Parts<ConcurrentTree<K>> {
    let t = Arc::new(ConcurrentTree::create(Arc::clone(&pool), cfg, ROOT_SLOT));
    let tree = Arc::clone(&t);
    let footprint = move || live_bytes(tree.pool(), tree.dram_bytes() as u64);
    (t, Some(pool), Box::new(footprint))
}

fn nvtree<K: KeyKind>(pool: Arc<PmemPool>) -> Parts<NVTreeC<K>> {
    let t = Arc::new(NVTreeC::create(Arc::clone(&pool), 32, 128, ROOT_SLOT));
    let tree = Arc::clone(&t);
    let footprint = move || {
        let (scm, dram, _) = tree.memory_usage();
        (scm, dram)
    };
    (t, Some(pool), Box::new(footprint))
}

fn wbtree<K: KeyKind>(pool: Arc<PmemPool>) -> Parts<LockedBaseline<WBTree<K>>> {
    let tree = WBTree::create(Arc::clone(&pool), 64, 32, ROOT_SLOT);
    let t = Arc::new(LockedBaseline::new(tree));
    let walked = Arc::clone(&pool);
    (t, Some(pool), Box::new(move || live_bytes(&walked, 0)))
}

fn stx<K: Ord + Clone + 'static>(cap: usize) -> Parts<LockedBaseline<StxTree<K>>> {
    let t = Arc::new(LockedBaseline::new(StxTree::with_capacities(cap, cap)));
    let tree = Arc::clone(&t);
    let key_bytes = std::mem::size_of::<K>();
    let footprint = move || (0, tree.0.lock().memory_bytes(key_bytes) as u64);
    (t, None, Box::new(footprint))
}

/// Table 1 configuration of the FPTree-family kinds (baselines take none).
fn table1(kind: TreeKind, var_keys: bool) -> TreeConfig {
    match (kind, var_keys) {
        (TreeKind::PTree, false) => TreeConfig::ptree(),
        (TreeKind::PTree, true) => TreeConfig::ptree_var(),
        (TreeKind::FPTreeC, false) => TreeConfig::fptree_concurrent(),
        (TreeKind::FPTreeC, true) => TreeConfig::fptree_concurrent_var(),
        (_, false) => TreeConfig::fptree(),
        (_, true) => TreeConfig::fptree_var(),
    }
}

/// Builds the fixed-key tree of `kind` with Table 1 node sizes, over a
/// fresh pool of `pool_mb` MiB emulating `latency_ns` total SCM latency.
/// `value_size` models larger payloads (Appendix A); pass 8 normally.
pub fn build_u64(
    kind: TreeKind,
    pool_mb: usize,
    latency_ns: u64,
    value_size: usize,
) -> BenchTree<dyn U64Index> {
    let pool = || make_pool(pool_mb, latency_ns);
    let cfg = table1(kind, false).with_value_size(value_size);
    match kind {
        TreeKind::FPTree | TreeKind::PTree => {
            BenchTree::new(single::<FixedKey>(pool(), cfg), |t| t)
        }
        TreeKind::NVTree => BenchTree::new(nvtree::<FixedKey>(pool()), |t| t),
        TreeKind::WBTree => BenchTree::new(wbtree::<FixedKey>(pool()), |t| t),
        TreeKind::Stx => BenchTree::new(stx::<u64>(16), |t| t),
        TreeKind::FPTreeC => BenchTree::new(concurrent::<FixedKey>(pool(), cfg), |t| t),
    }
}

/// Builds the variable-size-key variant of `kind` (Table 1 sizes).
pub fn build_bytes(kind: TreeKind, pool_mb: usize, latency_ns: u64) -> BenchTree<dyn BytesIndex> {
    let pool = || make_pool(pool_mb, latency_ns);
    let cfg = table1(kind, true);
    match kind {
        TreeKind::FPTree | TreeKind::PTree => BenchTree::new(single::<VarKey>(pool(), cfg), |t| t),
        TreeKind::NVTree => BenchTree::new(nvtree::<VarKey>(pool()), |t| t),
        TreeKind::WBTree => BenchTree::new(wbtree::<VarKey>(pool()), |t| t),
        TreeKind::Stx => BenchTree::new(stx::<Vec<u8>>(8), |t| t),
        TreeKind::FPTreeC => BenchTree::new(concurrent::<VarKey>(pool(), cfg), |t| t),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: [TreeKind; 6] = [
        TreeKind::FPTree,
        TreeKind::PTree,
        TreeKind::NVTree,
        TreeKind::WBTree,
        TreeKind::Stx,
        TreeKind::FPTreeC,
    ];

    #[test]
    fn every_kind_builds_and_round_trips() {
        for kind in ALL {
            let t = build_u64(kind, 64, 90, 8);
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
            assert_eq!(t.pool().is_some(), kind != TreeKind::Stx);
            let (scm, dram) = t.memory();
            assert!(scm + dram > 0, "{:?} footprint", kind);
        }
    }

    #[test]
    fn every_var_kind_builds_and_round_trips() {
        for kind in ALL {
            let t = build_bytes(kind, 128, 90);
            for i in 0..300u64 {
                let k = crate::keys::string_key(i);
                assert!(t.insert(&k, i), "{:?} insert {i}", kind);
            }
            for i in 0..300u64 {
                assert_eq!(t.get(&crate::keys::string_key(i)), Some(i), "{:?}", kind);
            }
        }
    }
}
