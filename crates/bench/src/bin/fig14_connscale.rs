//! Figure 14 (repo extension): throughput vs. open connection count for the
//! event-loop kvcache server.
//!
//! The thread-per-connection server capped out at `MAX_CONNECTIONS = 1024`
//! and paid one OS thread per idle socket. The readiness-polled event loop
//! makes a connection a registered socket plus a small state machine, so
//! throughput should stay flat as open connections grow past the old cap.
//! This sweep opens `--conns` real TCP connections (all of them exercised:
//! pipelined request windows round-robin across every socket), measures
//! aggregate throughput, and emits one JSON row per connection count.

use std::sync::Arc;

use fptree_bench::{Args, Report, Row};
use fptree_core::concurrent::ConcurrentFPTreeVar;
use fptree_core::TreeConfig;
use fptree_kvcache::{run_connscale, Cache, ConnScaleConfig, KvCache, ServerBuilder};
use fptree_pmem::{PmemPool, PoolOptions, ROOT_SLOT};

fn main() {
    let args = Args::parse();
    let requests: usize = args.get("scale", 400_000);
    let threads: usize = args.get("threads", 4);
    let pipeline: usize = args.get("pipeline", 32);
    let keyspace: usize = args.get("keyspace", 20_000);
    let want_metrics = args.flag("metrics");
    let out = args.get_str("out");
    let conns: Vec<usize> = args
        .get_str("conns")
        .map(|s| {
            s.split(',')
                .map(|c| {
                    c.trim()
                        .parse()
                        .expect("--conns takes a comma-separated list")
                })
                .collect()
        })
        .unwrap_or_else(|| vec![64, 256, 1024, 4096]);

    // Every connection needs one client-side and one server-side fd; stay
    // under the process fd limit rather than dying mid-sweep.
    let fd_budget = fd_limit().map(|n| (n.saturating_sub(64)) / 2);
    let conns: Vec<usize> = conns
        .into_iter()
        .filter(|&c| match fd_budget {
            Some(budget) if c > budget => {
                eprintln!("skipping {c} conns: over the fd budget ({budget})");
                false
            }
            _ => true,
        })
        .collect();
    let max_conns = conns.iter().copied().max().unwrap_or(64);

    // One concurrent FPTree cache shared across the whole sweep, preloaded
    // so GET windows hit; SET windows keep writing through the sweep.
    let pool_mb = ((keyspace * 6000) / (1 << 20) + 512).next_power_of_two();
    let pool = Arc::new(PmemPool::create(PoolOptions::direct(pool_mb << 20)).expect("pool"));
    let tree = ConcurrentFPTreeVar::create(pool, TreeConfig::fptree_concurrent_var(), ROOT_SLOT);
    let cache = Arc::new(KvCache::new(Arc::new(tree)));
    for i in 0..keyspace {
        cache.set(format!("key:{i:012}").as_bytes(), 0, vec![0x42u8; 32]);
    }

    let server = ServerBuilder::new("127.0.0.1:0")
        .max_connections(max_conns + 64)
        .serve(Arc::clone(&cache) as Arc<dyn Cache>)
        .expect("serve");

    let mut report = Report::new(
        "fig14_connscale",
        &format!(
            "Connection scaling: kOps/s vs open connections, {requests} reqs, {threads} driver thread(s), pipeline {pipeline}"
        ),
    );
    for &n in &conns {
        cache.reset_stats();
        let cfg = ConnScaleConfig {
            conns: n,
            threads,
            requests,
            pipeline,
            keyspace,
            value_size: 32,
            set_every: 10,
        };
        let r = run_connscale(server.addr, &cfg).expect("connscale run");
        let kops = r.ops_per_sec / 1e3;
        eprintln!(
            "{n} conns: {kops:.1} kOps/s ({} reqs in {:.2}s)",
            r.requests, r.secs
        );
        let snap = cache.stats_snapshot();
        if snap.get("conn_rejected").unwrap_or(0) > 0 {
            eprintln!("error: server rejected connections during the {n}-conn row");
            std::process::exit(1);
        }
        let mut row = Row::new(format!("conns={n}"))
            .field("conns", n as f64)
            .field("kops", kops)
            .field("secs", r.secs);
        if want_metrics {
            fptree_bench::print_metrics(&format!("{n} conns"), Some(&snap));
            row = row.with_metrics(Some(snap));
        }
        report.push(row);
    }
    report.emit(out);
    server.shutdown();
}

/// Soft fd limit (`RLIMIT_NOFILE`) read from /proc — good enough for a
/// Linux bench host; elsewhere the sweep just tries its luck.
fn fd_limit() -> Option<usize> {
    let limits = std::fs::read_to_string("/proc/self/limits").ok()?;
    let line = limits.lines().find(|l| l.starts_with("Max open files"))?;
    line.split_whitespace().nth(3)?.parse().ok()
}
