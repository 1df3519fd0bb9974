//! Figures 9–11: concurrent scalability of the FPTreeC and NV-TreeC.
//!
//! Figure 9: one socket (threads up to 2× cores, modeling HyperThreading);
//! Figure 10: two sockets (`--threads-max 2x` widens the sweep);
//! Figure 11: one socket at a higher SCM latency (`--latency 145`).
//!
//! Workload: warm `--scale` keys, then `--scale` operations of each kind
//! (Find / Insert / Update / Delete / Mixed 50-50) at each thread count;
//! reports throughput (MOps/s) and speedup over single-threaded execution.
//!
//! Shard sweep: `--shards N,M,...` switches to the keyspace-sharded tree
//! ([`fptree_core::ShardedTree`]) and sweeps shard counts at a fixed thread
//! count (`--threads-max`, default all cores). Each row reports insert/find
//! throughput, the summed `pmem_persist_calls` delta of the insert phase,
//! and speedup over the first listed shard count.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use fptree_baselines::NVTreeC;
use fptree_bench::{shuffled_keys, string_key, Args, Report, Row};
use fptree_core::concurrent::ConcurrentFPTreeVar;
use fptree_core::keys::{FixedKey, VarKey};
use fptree_core::{ConcurrentFPTree, ShardedTree, TreeConfig};
use fptree_pmem::{create_pools, LatencyProfile, PmemPool, PoolOptions, ROOT_SLOT};

#[derive(Clone, Copy, PartialEq)]
enum Op {
    Find,
    Insert,
    Update,
    Delete,
    Mixed,
}

const OPS: [(Op, &str); 5] = [
    (Op::Find, "Find"),
    (Op::Insert, "Insert"),
    (Op::Update, "Update"),
    (Op::Delete, "Delete"),
    (Op::Mixed, "Mixed"),
];

fn main() {
    let args = Args::parse();
    let scale: usize = args.get("scale", 200_000);
    let latency: u64 = args.get("latency", 85);
    let var_keys = args.get_str("keys") == Some("var");
    let verbose = args.flag("verbose");
    let want_metrics = args.flag("metrics");
    let out = args.get_str("out");
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let max_threads: usize = if args.get_str("threads-max") == Some("2x") {
        cores * 2
    } else {
        args.get("threads-max", cores)
    };
    let mut threads = vec![1usize];
    let mut t = 2;
    while t <= max_threads {
        threads.push(t);
        t *= 2;
    }
    if *threads.last().expect("nonempty") != max_threads {
        threads.push(max_threads);
    }

    if let Some(list) = args.get_str("shards") {
        let counts: Vec<usize> = list
            .split(',')
            .map(|s| s.trim().parse().expect("--shards takes e.g. 1,2,4"))
            .collect();
        run_shard_sweep(&counts, scale, latency, max_threads, out);
        return;
    }

    for tree_name in ["FPTreeC", "NV-TreeC"] {
        let mut tp = Report::new(
            "fig9_scalability",
            &format!(
                "Figures 9–11: {tree_name}{} throughput (MOps/s) @{latency}ns, scale {scale}",
                if var_keys { "Var" } else { "" }
            ),
        );
        let mut speedup = Report::new(
            "fig9_speedup",
            &format!(
                "{tree_name}{} speedup over 1 thread",
                if var_keys { "Var" } else { "" }
            ),
        );
        let mut base: Vec<f64> = Vec::new();
        for &n_threads in &threads {
            let mut tp_row = Row::new(format!("{n_threads}T"));
            let mut sp_row = Row::new(format!("{n_threads}T"));
            for (i, (op, opname)) in OPS.iter().enumerate() {
                let mops = run_one(
                    tree_name,
                    var_keys,
                    scale,
                    latency,
                    n_threads,
                    *op,
                    verbose,
                    want_metrics,
                );
                if n_threads == 1 {
                    base.push(mops);
                }
                tp_row = tp_row.field(opname, mops);
                sp_row = sp_row.field(opname, mops / base[i]);
                eprintln!("{tree_name} {n_threads}T {opname}: {mops:.2} MOps/s");
            }
            tp.push(tp_row);
            speedup.push(sp_row);
        }
        tp.emit(out);
        speedup.emit(out);
    }
}

/// Sweeps shard counts for the keyspace-sharded FPTreeC at a fixed thread
/// count. The interesting contrast on any machine is lock-contention
/// relief: with one shard every writer serializes on that tree's global
/// speculative lock, while with N shards concurrent writers mostly land on
/// different shards and different locks — so insert throughput rises with
/// shard count even before true parallelism is available.
fn run_shard_sweep(
    counts: &[usize],
    scale: usize,
    latency: u64,
    n_threads: usize,
    out: Option<&str>,
) {
    let mut report = Report::new(
        "fig9_shards",
        &format!(
            "Sharded FPTreeC throughput (MOps/s) @{latency}ns, scale {scale}, {n_threads} threads"
        ),
    );
    let warm = shuffled_keys(scale, 11);
    let extra = shuffled_keys(scale, 11 + scale as u64); // disjoint from warm
    let mut base_insert = 0.0f64;
    for &n in counts {
        assert!(n > 0, "--shards counts must be positive");
        // Size each shard's pool for its expected slice of the keyspace.
        let pool_mb = ((scale / n) * 5000 / (1 << 20) + 64).next_power_of_two();
        let pools = create_pools(
            n,
            PoolOptions::direct(pool_mb << 20).with_latency(LatencyProfile::from_total(latency)),
        )
        .expect("shard pools");
        let tree = ShardedTree::create(pools, TreeConfig::fptree_concurrent(), ROOT_SLOT);
        for &k in &warm {
            tree.insert(&k, k);
        }
        let persists_before = sum_persist_calls(&tree);
        let insert_mops = drive(n_threads, scale, |i| {
            tree.insert(&extra[i], extra[i]);
        });
        let persists = sum_persist_calls(&tree) - persists_before;
        let find_mops = drive(n_threads, scale, |i| {
            std::hint::black_box(tree.get(&warm[i]));
        });
        if base_insert == 0.0 {
            base_insert = insert_mops;
        }
        eprintln!(
            "{n} shard(s), {n_threads}T: insert {insert_mops:.2} MOps/s ({:.2}x), \
             find {find_mops:.2} MOps/s, {persists} persist calls",
            insert_mops / base_insert
        );
        report.push(
            Row::new(format!("{n}S"))
                .field("shards", n as f64)
                .field("insert_mops", insert_mops)
                .field("find_mops", find_mops)
                .field("insert_speedup", insert_mops / base_insert)
                .field("pmem_persist_calls", persists as f64),
        );
    }
    report.emit(out);
}

/// Summed `persist_calls` across every shard's pool.
fn sum_persist_calls(tree: &ShardedTree) -> u64 {
    tree.shards()
        .iter()
        .map(|s| s.pool().stats().snapshot().persist_calls)
        .sum()
}

#[allow(clippy::too_many_arguments)] // a private figure-runner, not an API
fn run_one(
    tree: &str,
    var_keys: bool,
    scale: usize,
    latency: u64,
    n_threads: usize,
    op: Op,
    verbose: bool,
    want_metrics: bool,
) -> f64 {
    let pool_mb = (scale * 5000 / (1 << 20) + 256).next_power_of_two();
    let pool = Arc::new(
        PmemPool::create(
            PoolOptions::direct(pool_mb << 20).with_latency(LatencyProfile::from_total(latency)),
        )
        .expect("pool"),
    );
    if verbose {
        pool.enable_durability_checker();
    }
    let report_pool = Arc::clone(&pool);
    let warm = shuffled_keys(scale, 11);
    let extra = shuffled_keys(scale, 11 + scale as u64); // disjoint from warm

    // A closure-based op runner per tree type keeps this readable.
    let mops = match (tree, var_keys) {
        ("FPTreeC", false) => {
            let t = ConcurrentFPTree::create(pool, TreeConfig::fptree_concurrent(), ROOT_SLOT);
            for &k in &warm {
                t.insert(&k, k);
            }
            let mops = drive(n_threads, scale, |i| {
                let (w, e) = (warm[i], extra[i]);
                match op {
                    Op::Find => {
                        std::hint::black_box(t.get(&w));
                    }
                    Op::Insert => {
                        t.insert(&e, e);
                    }
                    Op::Update => {
                        t.update(&w, w + 1);
                    }
                    Op::Delete => {
                        t.remove(&w);
                    }
                    Op::Mixed => {
                        if i % 2 == 0 {
                            t.insert(&e, e);
                        } else {
                            std::hint::black_box(t.get(&w));
                        }
                    }
                }
            });
            if want_metrics {
                let snap = t.metrics_snapshot();
                fptree_bench::print_metrics(&format!("{tree} {n_threads}T"), Some(&snap));
            }
            mops
        }
        ("FPTreeC", true) => {
            let t =
                ConcurrentFPTreeVar::create(pool, TreeConfig::fptree_concurrent_var(), ROOT_SLOT);
            let wk: Vec<Vec<u8>> = warm.iter().map(|&k| string_key(k)).collect();
            let ek: Vec<Vec<u8>> = extra.iter().map(|&k| string_key(k)).collect();
            for k in &wk {
                t.insert(k, 1);
            }
            let mops = drive(n_threads, scale, |i| match op {
                Op::Find => {
                    std::hint::black_box(t.get(&wk[i]));
                }
                Op::Insert => {
                    t.insert(&ek[i], 2);
                }
                Op::Update => {
                    t.update(&wk[i], 3);
                }
                Op::Delete => {
                    t.remove(&wk[i]);
                }
                Op::Mixed => {
                    if i % 2 == 0 {
                        t.insert(&ek[i], 2);
                    } else {
                        std::hint::black_box(t.get(&wk[i]));
                    }
                }
            });
            if want_metrics {
                let snap = t.metrics_snapshot();
                fptree_bench::print_metrics(&format!("{tree} {n_threads}T"), Some(&snap));
            }
            mops
        }
        ("NV-TreeC", false) => {
            let t = NVTreeC::<FixedKey>::create(pool, 32, 128, ROOT_SLOT);
            for &k in &warm {
                t.insert(&k, k);
            }
            drive(n_threads, scale, |i| {
                let (w, e) = (warm[i], extra[i]);
                match op {
                    Op::Find => {
                        std::hint::black_box(t.get(&w));
                    }
                    Op::Insert => {
                        t.insert(&e, e);
                    }
                    Op::Update => {
                        t.update(&w, w + 1);
                    }
                    Op::Delete => {
                        t.remove(&w);
                    }
                    Op::Mixed => {
                        if i % 2 == 0 {
                            t.insert(&e, e);
                        } else {
                            std::hint::black_box(t.get(&w));
                        }
                    }
                }
            })
        }
        ("NV-TreeC", true) => {
            let t = NVTreeC::<VarKey>::create(pool, 32, 128, ROOT_SLOT);
            let wk: Vec<Vec<u8>> = warm.iter().map(|&k| string_key(k)).collect();
            let ek: Vec<Vec<u8>> = extra.iter().map(|&k| string_key(k)).collect();
            for k in &wk {
                t.insert(k, 1);
            }
            drive(n_threads, scale, |i| match op {
                Op::Find => {
                    std::hint::black_box(t.get(&wk[i]));
                }
                Op::Insert => {
                    t.insert(&ek[i], 2);
                }
                Op::Update => {
                    t.update(&wk[i], 3);
                }
                Op::Delete => {
                    t.remove(&wk[i]);
                }
                Op::Mixed => {
                    if i % 2 == 0 {
                        t.insert(&ek[i], 2);
                    } else {
                        std::hint::black_box(t.get(&wk[i]));
                    }
                }
            })
        }
        other => panic!("unknown tree {other:?}"),
    };
    if verbose {
        fptree_bench::print_pool_counters(&format!("{tree} {n_threads}T"), Some(&report_pool));
    }
    if want_metrics && tree == "NV-TreeC" {
        fptree_bench::print_metrics(&format!("{tree} {n_threads}T"), None);
    }
    mops
}

/// Runs `total` indexed operations across `n_threads` via a shared work
/// counter; returns MOps/s.
fn drive(n_threads: usize, total: usize, f: impl Fn(usize) + Sync) -> f64 {
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..n_threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= total {
                    break;
                }
                f(i);
            });
        }
    });
    total as f64 / start.elapsed().as_secs_f64() / 1e6
}
