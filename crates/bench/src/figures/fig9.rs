//! Figures 9–11: concurrent scalability of the FPTreeC and the NV-TreeC,
//! fixed and variable keys.
//!
//! Figure 9 is one socket at 85 ns, Figure 10 two sockets (here: the
//! thread ladder past the host's cores), Figure 11 one socket at 145 ns.
//! Each row warms a fresh tree, then times Find / Insert / Update / Delete
//! / Mixed (50 % inserts) at one thread count, and reports MOps/s and the
//! speedup over one thread.
//!
//! The repo's shard table sweeps the keyspace-sharded FPTreeC over
//! [`SHARDS`] at the top of the ladder: with one shard every writer
//! serializes on that tree's speculative lock, with N shards concurrent
//! writers mostly take different locks.

use fptree_core::{BytesIndex, ShardedTree, TreeConfig, U64Index};
use fptree_pmem::{create_pools, ROOT_SLOT};

use crate::{
    kernel, key_sets, pool_mb, pool_options, Index, Op, Report, Row, Scale, TreeKind, SHARDS,
};

/// Figure 9's latency (one socket) and Figure 11's (higher SCM latency).
const LATENCIES: [u64; 2] = [85, 145];

/// Thread ladder: up to twice the paper's per-socket core count is out of
/// reach; this runs to 8, four times a 2-vCPU host (oversubscription is
/// Figure 10's regime).
pub const THREADS: [usize; 4] = [1, 2, 4, 8];

const TREES: [TreeKind; 2] = [TreeKind::FPTreeC, TreeKind::NVTree];

const OPS: [(Op, &str); 5] = [
    (Op::Find, "Find"),
    (Op::Insert, "Insert"),
    (Op::Update, "Update"),
    (Op::Delete, "Delete"),
    (Op::Mixed, "Mixed"),
];

/// Figures 9–11 target.
pub fn fig9(s: Scale) -> Vec<Report> {
    let mut out = scalability::<dyn U64Index>(s.pick(100_000, 1_000));
    out.extend(scalability::<dyn BytesIndex>(s.pick(50_000, 500)));
    out.push(shards(s.pick(100_000, 2_000)));
    out
}

fn scalability<I: Index + ?Sized>(n: usize) -> Vec<Report> {
    let (warm, extra) = I::keys(n, 11);
    let mut mops = Report::new(
        &format!("fig9_mops_{}", I::KEYS),
        &format!("Figures 9–11: throughput (MOps/s), {n} {} keys", I::KEYS),
    );
    let mut speedup = Report::new(
        &format!("fig9_speedup_{}", I::KEYS),
        &format!("Figures 9–11: speedup over 1 thread, {} keys", I::KEYS),
    );
    let ops = OPS.map(|(op, _)| op);
    for latency in LATENCIES {
        for kind in TREES {
            let mut base = [0.0; OPS.len()];
            for threads in THREADS {
                let t = I::build(kind, pool_mb(2 * n), latency);
                t.fill(&warm);
                let us = kernel(&*t, &warm, &extra, threads, &ops);
                let label = format!("{} @{latency}ns {threads}T", kind.name());
                let (mut m, mut sp) = (Row::new(label.as_str()), Row::new(label.as_str()));
                for (i, (_, name)) in OPS.iter().enumerate() {
                    let rate = 1.0 / us[i];
                    if threads == 1 {
                        base[i] = rate;
                    }
                    m = m.field(name, rate);
                    sp = sp.field(name, rate / base[i]);
                }
                mops.push(m.with_metrics(t.snapshot()));
                speedup.push(sp);
            }
        }
    }
    vec![mops, speedup]
}

fn shards(n: usize) -> Report {
    let (latency, threads) = (LATENCIES[0], THREADS[THREADS.len() - 1]);
    let mut report = Report::new(
        "fig9_shards",
        &format!("Sharded FPTreeC throughput (MOps/s) @{latency}ns, {n} keys, {threads} threads"),
    );
    let (warm, extra) = key_sets(n, 11);
    let mut base_insert = 0.0;
    for shards in SHARDS {
        let opts = pool_options(pool_mb(2 * n / shards), latency);
        let pools = create_pools(shards, opts).expect("shard pools");
        let tree = ShardedTree::create(pools, TreeConfig::fptree_concurrent(), ROOT_SLOT);
        let t: &dyn U64Index = &tree;
        t.fill(&warm);
        let persist_calls = || -> u64 {
            let shards = tree.shards().iter();
            shards
                .map(|s| s.pool().stats().snapshot().persist_calls)
                .sum()
        };
        let before = persist_calls();
        let insert_mops = 1.0 / kernel(t, &warm, &extra, threads, &[Op::Insert])[0];
        let persists = persist_calls() - before;
        let find_mops = 1.0 / kernel(t, &warm, &extra, threads, &[Op::Find])[0];
        if base_insert == 0.0 {
            base_insert = insert_mops;
        }
        report.push(
            Row::new(format!("{shards}S"))
                .field("shards", shards as f64)
                .field("insert_mops", insert_mops)
                .field("find_mops", find_mops)
                .field("insert_speedup", insert_mops / base_insert)
                .field("persists_per_insert", persists as f64 / n as f64)
                .with_metrics(Some(tree.metrics_snapshot())),
        );
    }
    report
}
