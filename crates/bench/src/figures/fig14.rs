//! Figure 14 / Appendix A: payload (value) size impact, plus the repo's
//! connection-scaling table for the kvcache server.
//!
//! (a–d) single-threaded Find/Insert/Update/Delete average latency at
//! 360 ns with payloads 8–112 bytes; (e–f) FPTreeC / NV-TreeC mixed
//! throughput across the same payloads at the top of the thread ladder.
//! Expected shape: the NV-Tree suffers most (its linear leaf scans read
//! payload bytes); FPTree and wBTree vary only slightly.
//!
//! Connection scaling: throughput vs open TCP connections against the
//! reactor server, every connection exercised by pipelined windows
//! ([`mcbench::run_connscale`]). It should stay flat as connections grow.

use std::sync::Arc;

use fptree_core::{BytesIndex, U64Index};
use fptree_kvcache::{Cache, KvCache, ServerBuilder};
use fptree_pmem::ROOT_SLOT;

use crate::figures::fig7::four_ops;
use crate::figures::fig9::THREADS;
use crate::mcbench::{self, ConnScaleConfig};
use crate::{kernel, pool_mb, u64_tree, Index, Op, Report, Row, Scale, TreeKind};

const LATENCY_NS: u64 = 360;
const PAYLOADS: [usize; 4] = [8, 48, 80, 112];
const SINGLE: [TreeKind; 4] = [
    TreeKind::FPTree,
    TreeKind::PTree,
    TreeKind::NVTree,
    TreeKind::WBTree,
];
const CONCURRENT: [TreeKind; 2] = [TreeKind::FPTreeC, TreeKind::NVTree];

/// Open connections per row of the connection-scaling table.
const CONNS: [usize; 4] = [64, 256, 1024, 4096];
/// Client driver threads, requests per pipelined window, every n-th window
/// SETs (the rest GETs), value bytes.
const DRIVERS: usize = 4;
const PIPELINE: usize = 32;
const SET_EVERY: usize = 10;
const VALUE_SIZE: usize = 32;

/// Figure 14 target.
pub fn fig14(s: Scale) -> Vec<Report> {
    let n = s.pick(30_000, 500);
    let mut single = Report::new(
        "fig14_payload",
        &format!("Figure 14 a–d: avg µs/op vs payload @{LATENCY_NS}ns, {n} keys"),
    );
    let mut concurrent = Report::new(
        "fig14_concurrent",
        &format!(
            "Figure 14 e–f: {}-thread mixed MOps/s vs payload",
            THREADS[THREADS.len() - 1]
        ),
    );
    let (warm, extra) = <dyn U64Index>::keys(n, 21);
    for payload in PAYLOADS {
        let build = |kind: TreeKind| {
            let pool = kind.pool(pool_mb(2 * n), LATENCY_NS);
            let t = u64_tree(kind, pool, ROOT_SLOT, None, payload);
            t.fill(&warm);
            t
        };
        for kind in SINGLE {
            let t = build(kind);
            let label = format!("{} {payload}B", kind.name());
            single.push(four_ops(&*t, &warm, &extra, label));
        }
        for kind in CONCURRENT {
            let t = build(kind);
            let us = kernel(&*t, &warm, &extra, THREADS[THREADS.len() - 1], &[Op::Mixed]);
            concurrent.push(
                Row::new(format!("{} {payload}B", kind.name()))
                    .field("mops", 1.0 / us[0])
                    .with_metrics(t.snapshot()),
            );
        }
    }
    vec![
        single,
        concurrent,
        connscale(s.pick(400_000, 20_000), s.pick(20_000, 2_000)),
    ]
}

fn connscale(requests: usize, keyspace: usize) -> Report {
    // Every connection needs a client-side and a server-side fd; skip rows
    // over the process fd limit rather than dying mid-sweep.
    let fd_budget = fd_limit().map_or(usize::MAX, |n| n.saturating_sub(64) / 2);
    let (conns, skipped): (Vec<usize>, Vec<usize>) =
        CONNS.into_iter().partition(|&c| c <= fd_budget);
    if !skipped.is_empty() {
        eprintln!("fig14: skipping {skipped:?} connections, over the fd budget ({fd_budget})");
    }
    let max_conns = conns.iter().copied().max().unwrap_or(0);

    // One concurrent FPTree cache for the whole sweep, preloaded so GET
    // windows hit; SET windows keep writing through it.
    let index = <dyn BytesIndex>::build(TreeKind::FPTreeC, pool_mb(keyspace), 90).index();
    let cache = Arc::new(KvCache::new(index));
    for i in 0..keyspace {
        cache.set(format!("key:{i:012}").as_bytes(), 0, vec![0x42; VALUE_SIZE]);
    }
    let server = ServerBuilder::new("127.0.0.1:0")
        .max_connections(max_conns + 64)
        .serve(Arc::clone(&cache) as Arc<dyn Cache>)
        .expect("serve");

    let mut report = Report::new(
        "fig14_connscale",
        &format!(
            "Connection scaling: kOps/s vs open connections, {requests} requests, \
             {DRIVERS} driver threads, pipeline {PIPELINE}"
        ),
    );
    for n in conns {
        cache.reset_stats();
        let cfg = ConnScaleConfig {
            conns: n,
            threads: DRIVERS,
            requests,
            pipeline: PIPELINE,
            keyspace,
            value_size: VALUE_SIZE,
            set_every: SET_EVERY,
        };
        let r = mcbench::run_connscale(server.addr, &cfg).expect("connscale run");
        let snap = cache.stats_snapshot();
        assert_eq!(snap.get("conn_rejected").unwrap_or(0), 0, "{n} connections");
        report.push(
            Row::new(format!("conns={n}"))
                .field("conns", n as f64)
                .field("kops", r.ops_per_sec / 1e3)
                .field("secs", r.secs)
                .with_metrics(Some(snap)),
        );
    }
    server.shutdown();
    report
}

/// Soft fd limit (`RLIMIT_NOFILE`) read from /proc; elsewhere the sweep
/// just tries its luck.
fn fd_limit() -> Option<usize> {
    let limits = std::fs::read_to_string("/proc/self/limits").ok()?;
    let line = limits.lines().find(|l| l.starts_with("Max open files"))?;
    line.split_whitespace().nth(3)?.parse().ok()
}
