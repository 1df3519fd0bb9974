//! Figure 12: the dictionary index's impact on (a) TATP read-only
//! throughput across SCM latencies and (b) database restart time.
//!
//! The database is the dictionary-encoded columnar engine of `fptree-tatp`;
//! each row swaps the dictionary index. Population uses sequential
//! subscriber ids — the skewed load that forces frequent NV-Tree inner
//! rebuilds (§6.4). Restart reopens every persistent dictionary index from
//! the pool image (the transient STXTree is rebuilt from scratch) and then
//! rebuilds the DRAM decode vectors. The repo's sharded rows put every
//! dictionary on a keyspace-sharded FPTreeC over [`SHARDS`] pools, whose
//! restart recovers all shards of an index concurrently.

use std::cell::Cell;
use std::sync::Arc;

use fptree_core::{FixedKey, ShardedTree, Snapshot, TreeConfig, U64Index};
use fptree_pmem::{create_pools, PmemPool, ROOT_SLOT};
use fptree_tatp::{run_mix, TatpDb};

use crate::trees::Nodes;
use crate::{
    pool_mb, pool_options, reopen, reopen_pool, timed, u64_tree, Report, Row, Scale, TreeKind,
    SHARDS,
};

const LATENCIES: [u64; 4] = [160, 250, 450, 650];
const CLIENTS: usize = 8;

/// The NV-Tree's §6.4 workaround sizes: large leaves space out its inner
/// rebuilds under the sequential load, small inner nodes keep them cheap.
const NVTREE_NODES: Nodes = Some((64, 8));

/// Owner slots reserved per pool for the dictionary indexes.
const DIR_SLOTS: usize = 64;

/// Figure 12 target.
pub fn fig12(s: Scale) -> Vec<Report> {
    let subscribers = s.pick(20_000, 200) as u64;
    let txns = s.pick(200_000, 2_000);
    let mut report = Report::new(
        "fig12_tatp",
        &format!(
            "Figure 12: TATP tx/s (a) and restart ms (b), {subscribers} subscribers, \
             {CLIENTS} clients"
        ),
    );
    let unsharded = TreeKind::FIG7.map(|kind| (kind, 0));
    let sharded = SHARDS.map(|shards| (TreeKind::FPTreeC, shards));
    for (kind, shards) in unsharded.into_iter().chain(sharded) {
        for latency in LATENCIES {
            let dicts = Dictionaries::new(kind, shards, subscribers, latency);
            let db = TatpDb::populate(subscribers, &|_| dicts.create(), 5);
            let tps = run_mix(&db, CLIENTS, txns, 99);
            let (ms, recovered) = dicts.restart(&db, latency);
            let name = match shards {
                0 => kind.name().to_string(),
                n => format!("{} {n}S", kind.name()),
            };
            report.push(
                Row::new(format!("{name} @{latency}ns"))
                    .field("tx_per_s", tps)
                    .field("restart_ms", ms)
                    .with_metrics(recovered),
            );
        }
    }
    vec![report]
}

/// Where a database's dictionary indexes live: one pool, a family of
/// `shards` pools for the sharded tree (none for the transient STXTree),
/// with the indexes at consecutive owner slots of a directory.
struct Dictionaries {
    kind: TreeKind,
    /// 0: one `kind` tree per index; n: a `ShardedTree` over n pools.
    shards: usize,
    pools: Vec<Arc<PmemPool>>,
    dir: u64,
    created: Cell<u64>,
}

impl Dictionaries {
    fn new(kind: TreeKind, shards: usize, subscribers: u64, latency: u64) -> Dictionaries {
        let mb = pool_mb(subscribers as usize * 10) / shards.max(1);
        let pools = match kind.transient() {
            true => Vec::new(),
            false => create_pools(shards.max(1), pool_options(mb, latency)).expect("pools"),
        };
        // Freshly created pools allocate identically, so the directory sits
        // at one offset in every pool of the family.
        let dirs: Vec<u64> = pools
            .iter()
            .map(|p| p.allocate(ROOT_SLOT, DIR_SLOTS * 16).expect("directory"))
            .collect();
        assert!(dirs.windows(2).all(|w| w[0] == w[1]));
        Dictionaries {
            kind,
            shards,
            pools,
            dir: dirs.first().copied().unwrap_or(0),
            created: Cell::new(0),
        }
    }

    fn nodes(&self) -> Nodes {
        NVTREE_NODES.filter(|_| self.kind == TreeKind::NVTree)
    }

    /// The owner slot of the `i`-th dictionary index.
    fn slot(&self, i: u64) -> u64 {
        assert!(i < DIR_SLOTS as u64, "directory full");
        self.dir + i * 16
    }

    /// A new dictionary index at the next owner slot.
    fn create(&self) -> Arc<dyn U64Index> {
        let slot = self.slot(self.created.get());
        self.created.set(self.created.get() + 1);
        if self.shards > 0 {
            let cfg = TreeConfig::fptree_concurrent();
            return Arc::new(ShardedTree::create(self.pools.clone(), cfg, slot));
        }
        u64_tree(
            self.kind,
            self.pools.first().cloned(),
            slot,
            self.nodes(),
            8,
        )
        .index()
    }

    /// Restarts `db` in ms: reopens every pool from a clean image and
    /// recovers each index (or rebuilds a transient database), then
    /// rebuilds the decode vectors. Returns the merged recovery metrics.
    fn restart(&self, db: &TatpDb, latency: u64) -> (f64, Option<Snapshot>) {
        if self.pools.is_empty() {
            let rebuild = || TatpDb::populate(db.subscribers(), &|_| self.create(), 5);
            return (timed(rebuild).1 / 1e3, None);
        }
        let images: Vec<Vec<u8>> = self.pools.iter().map(|p| p.clean_image()).collect();
        let (recovered, us) = timed(|| {
            let pools: Vec<_> = images
                .into_iter()
                .map(|i| reopen_pool(i, latency))
                .collect();
            let recovered = (0..self.created.get()).filter_map(|i| {
                let slot = self.slot(i);
                if self.shards > 0 {
                    let t = ShardedTree::open(pools.clone(), slot).expect("recover");
                    return Some(t.metrics_snapshot());
                }
                let pool = Arc::clone(&pools[0]);
                reopen::<FixedKey>(self.kind, pool, slot, 0, self.nodes()).metrics
            });
            let merged = recovered.reduce(|mut acc, s| {
                acc.merge(s);
                acc
            });
            db.rebuild_decodes();
            merged
        });
        (us / 1e3, recovered)
    }
}
