//! Figure 13: memcached SET/GET throughput per index, at SCM latencies 85
//! and 145 ns (local vs remote socket on the paper's HTM machine).
//!
//! mc-benchmark style ([`crate::mcbench`]): SETs, then as many GETs, from
//! 50 clients with a modeled 8 µs per-request network cost. The claim under
//! test: concurrent indexes (FPTreeC, NV-TreeC, hash) are network-bound
//! (near-identical throughput), single-threaded trees bottleneck on SETs.
//! The repo's sharded rows hash-route keys over [`SHARDS`] FPTreeC indexes,
//! one pool each.

use std::sync::Arc;

use fptree_core::BytesIndex;
use fptree_kvcache::{Cache, KvCache, ShardedCache};

use crate::mcbench::{self, McBenchConfig};
use crate::{pool_mb, Index, Report, Row, Scale, TreeKind, SHARDS};

const LATENCIES: [u64; 2] = [85, 145];
const CLIENTS: usize = 50;
const NET_NS: u64 = 8_000;
const VALUE_SIZE: usize = 32;

const INDEXES: [TreeKind; 7] = [
    TreeKind::FPTree,
    TreeKind::FPTreeC,
    TreeKind::PTree,
    TreeKind::NVTree,
    TreeKind::WBTree,
    TreeKind::Stx,
    TreeKind::Hash,
];

/// Figure 13 target.
pub fn fig13(s: Scale) -> Vec<Report> {
    let requests = s.pick(100_000, 2_000);
    let cfg = McBenchConfig {
        requests,
        clients: CLIENTS,
        keyspace: requests,
        value_size: VALUE_SIZE,
        net_ns: NET_NS,
    };
    let mut report = Report::new(
        "fig13_memcached",
        &format!(
            "Figure 13: mc-benchmark kOps/s, {requests} requests, {CLIENTS} clients, \
             {} µs network",
            NET_NS / 1000
        ),
    );
    let unsharded = INDEXES.map(|kind| (kind, 0));
    let sharded = SHARDS.map(|shards| (TreeKind::FPTreeC, shards));
    for latency in LATENCIES {
        for (kind, shards) in unsharded.into_iter().chain(sharded) {
            let index = |n: usize| {
                let mb = pool_mb(requests / n);
                <dyn BytesIndex>::build(kind, mb, latency).index()
            };
            let (name, cache): (String, Arc<dyn Cache>) = match shards {
                0 => (kind.name().into(), Arc::new(KvCache::new(index(1)))),
                n => {
                    let indexes = (0..n).map(|_| index(n)).collect();
                    (
                        format!("{} {n}S", kind.name()),
                        Arc::new(ShardedCache::new(indexes)),
                    )
                }
            };
            let r = mcbench::run(cache.as_ref(), &cfg);
            report.push(
                Row::new(format!("{name} @{latency}ns"))
                    .field("set_kops", r.set / 1e3)
                    .field("get_kops", r.get / 1e3)
                    .with_metrics(Some(cache.stats_snapshot())),
            );
        }
    }
    vec![report]
}
