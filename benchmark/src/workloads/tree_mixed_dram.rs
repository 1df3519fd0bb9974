//! `tree_mixed_dram`: reads beside writes on a `ConcurrentFPTree` at DRAM
//! latency, each client on its own id stripe so the oracle stays exact.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use fptree_core::{ConcurrentFPTree, TreeConfig};
use fptree_pmem::{PmemPool, ROOT_SLOT};

use super::tree_common::{
    audit_scan, pool_bytes, preload_concurrent, restart_concurrent, Client, Stripe,
};
use crate::common::{direct_pool, repeat_setup, Checks, Config, Counters, Metric, WorkloadResult};
use crate::gen::{
    hash_u32s, mixed_stream, op_kind, stream_index_bound, sub_seed, Mix, OP_INSERT, OP_REMOVE,
};
use crate::section::{drive, ClientLog, HasLog};
use crate::trace::Tracer;
use crate::workloads::timed_and_traced;

pub const NAME: &str = "tree_mixed_dram";
pub const WHY: &str = "same layers as tree_get_dram with writers beside readers: leaf locks, wbuf append/fold, splits and leaf frees taking the global write lock and aborting concurrent readers";

const KEYS: usize = 1_000_000;
pub const MIX: Mix = Mix {
    get: 50,
    insert: 20,
    update: 20,
    remove: 10,
};
/// Ops pre-generated per client per second of timed section: about twice
/// the reference host's rate, so the stream outlasts the clock.
const STREAM_OPS_PER_SEC: f64 = 1.2e6;
/// Per client and per second of `--seconds`, the op prefix after which the
/// footprint is read (a quarter of the reference host's rate).
const PREFIX_OPS_PER_SEC: f64 = 1.5e5;

/// A client and the op count it publishes as it goes, so that whoever
/// reads the footprint knows how many keys were live at that moment.
struct Mixed<'a> {
    inner: Client<&'a ConcurrentFPTree>,
    progress: &'a Progress,
}

/// One client's op count, on a cache line of its own.
#[repr(align(64))]
#[derive(Default)]
struct Progress(AtomicUsize);

/// What the last client to pass its prefix saw.
struct Footprint {
    scm_bytes: u64,
    dram_bytes: usize,
    /// Every client's op count at that moment.
    positions: Vec<usize>,
}

impl HasLog for Mixed<'_> {
    fn log_mut(&mut self) -> &mut ClientLog {
        &mut self.inner.log
    }
}

/// Live keys of a stripe preloaded with `preloaded` after running `ops`.
fn live_after(preloaded: u32, ops: &[u32]) -> u64 {
    ops.iter()
        .fold(preloaded as u64, |live, &op| match op_kind(op) {
            OP_INSERT => live + 1,
            OP_REMOVE => live - 1,
            _ => live,
        })
}

pub struct Built {
    pub pool: Arc<PmemPool>,
    pub tree: ConcurrentFPTree,
}

/// Pool + tree + preload of `per_stripe` keys per client.
pub fn build(threads: usize, per_stripe: u32, extra: usize, checks: &mut Checks) -> Built {
    let pool = direct_pool(pool_bytes(per_stripe as usize * threads + extra), 90);
    let tree = ConcurrentFPTree::create(
        Arc::clone(&pool),
        TreeConfig::fptree_concurrent(),
        ROOT_SLOT,
    );
    preload_concurrent(&tree, threads, per_stripe, checks);
    Built { pool, tree }
}

pub fn counters_of(pool: &PmemPool, tree: &ConcurrentFPTree) -> Counters {
    let mut c = Counters::default();
    c.add_pool(pool.stats().snapshot());
    c.add_htm(tree.htm_stats());
    c.add_tree(&tree.metrics().snapshot());
    c
}

pub fn run(cfg: &Config, tracer: &mut Tracer) -> WorkloadResult {
    let mut res = WorkloadResult::new(NAME);
    let per_stripe = (cfg.scaled(KEYS) / cfg.threads) as u32;
    let stream_len = (STREAM_OPS_PER_SEC * cfg.stream_secs()) as usize;

    // Inputs first: the pool is sized from what the streams will insert.
    let streams: Vec<Vec<u32>> = (0..cfg.threads)
        .map(|t| mixed_stream(sub_seed(cfg.seed, t as u64), per_stripe, stream_len, MIX))
        .collect();
    let bounds: Vec<usize> = streams
        .iter()
        .map(|s| stream_index_bound(per_stripe, s))
        .collect();
    let extra: usize = bounds.iter().map(|b| b - per_stripe as usize).sum();
    res.note(format!(
        "inputs: {} keys preloaded, {stream_len} ops/client pre-generated, hash {:016x}",
        per_stripe as usize * cfg.threads,
        streams.iter().fold(0, |h, s| h ^ hash_u32s(s))
    ));

    let (Built { pool, tree }, setup) = repeat_setup(cfg, tracer, || {
        build(cfg.threads, per_stripe, extra, &mut res.checks)
    });

    // The footprint is read when the last client passes a fixed op prefix,
    // not when the clock stops: how far a run gets depends on the host, and
    // bytes per key drift as inserts split leaves.
    let prefix = ((PREFIX_OPS_PER_SEC * cfg.timed_secs()) as usize).min(stream_len);
    let passed = AtomicUsize::new(0);
    let progress: Vec<Progress> = (0..cfg.threads).map(|_| Progress::default()).collect();
    let footprint: Mutex<Option<Footprint>> = Mutex::new(None);
    let mut clients: Vec<Mixed> = streams
        .into_iter()
        .zip(bounds)
        .zip(&progress)
        .enumerate()
        .map(|(t, ((stream, bound), progress))| Mixed {
            inner: Client::new(&tree, Stripe::new(t, per_stripe, bound), stream),
            progress,
        })
        .collect();

    let counters = || counters_of(&pool, &tree);
    let step = |c: &mut Mixed, ctx| {
        let mut log = std::mem::take(&mut c.inner.log);
        let n = drive(ctx, &mut log, |checks| {
            c.progress.0.store(c.inner.pos, Ordering::Relaxed);
            if c.inner.pos == prefix && passed.fetch_add(1, Ordering::SeqCst) + 1 == cfg.threads {
                *footprint.lock().expect("footprint lock") = Some(Footprint {
                    scm_bytes: pool.stats().snapshot().bump_high_water,
                    dram_bytes: tree.dram_bytes(),
                    positions: progress
                        .iter()
                        .map(|p| p.0.load(Ordering::Relaxed))
                        .collect(),
                });
            }
            c.inner.next_op(checks)
        });
        c.inner.log = log;
        n
    };
    let before = pool.stats().snapshot();
    let timed = timed_and_traced(cfg, &mut clients, step, counters, tracer, &mut res);
    let flushed = pool.stats().snapshot().flushed_lines - before.flushed_lines;
    let writes: usize = clients.iter().map(|c| c.inner.writes_done()).sum();
    if clients.iter().any(|c| c.inner.pos == c.inner.stream.len()) {
        res.note("note: a client ran out of pre-generated ops before the clock did");
    }
    // A host too slow to reach the prefix reports the footprint it ended on.
    let footprint = footprint
        .into_inner()
        .expect("footprint lock")
        .unwrap_or_else(|| Footprint {
            scm_bytes: pool.stats().snapshot().bump_high_water,
            dram_bytes: tree.dram_bytes(),
            positions: clients.iter().map(|c| c.inner.pos).collect(),
        });
    let live: u64 = clients
        .iter()
        .zip(&footprint.positions)
        .map(|(c, &pos)| live_after(per_stripe, &c.inner.stream[..pos]))
        .sum();
    let (scm, dram) = (footprint.scm_bytes, footprint.dram_bytes);
    let stripes: Vec<Stripe> = clients.into_iter().map(|c| c.inner.stripe).collect();

    tracer.begin("audit");
    audit_scan(
        "audit",
        tree.scan(..),
        tree.len(),
        &stripes,
        &mut res.checks,
    );
    let consistent = tree.check_consistency();
    res.checks.check(consistent.is_ok(), || {
        format!("check_consistency: {consistent:?}")
    });
    let leaks = tree.leak_audit();
    res.checks
        .check(leaks.is_ok(), || format!("leak_audit: {leaks:?}"));
    tracer.end();

    let restarts = restart_concurrent(cfg, &pool, &stripes, &mut res.checks, tracer);

    res.push(setup);
    res.push_throughput(&timed.tp);
    res.push_latency("read", timed.read_latency());
    res.push_latency("write", timed.write_latency());
    res.push(Metric::new(
        "flushed_lines_per_write",
        flushed as f64 / writes.max(1) as f64,
        "lines",
    ));
    res.push(Metric::new(
        "scm_bytes_per_key",
        scm as f64 / live as f64,
        "B",
    ));
    res.push(Metric::new(
        "dram_bytes_per_key",
        dram as f64 / live as f64,
        "B",
    ));
    res.note(restarts.note());
    res.push(restarts.metric());
    res
}
