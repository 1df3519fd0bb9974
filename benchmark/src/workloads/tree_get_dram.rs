//! `tree_get_dram`: uniform `get`s on a preloaded `ConcurrentFPTree` with
//! no injected latency — the pure software read path.

use std::sync::Arc;

use fptree_core::{ConcurrentFPTree, TreeConfig};
use fptree_pmem::{PmemPool, ROOT_SLOT};

use super::tree_common::{
    audit_scan, expect, pool_bytes, preload_concurrent, restart_concurrent, Stripe,
};
use crate::common::{direct_pool, repeat_setup, Checks, Config, Counters, Metric, WorkloadResult};
use crate::gen::{get_stream, hash_u64s, key_of, sub_seed};
use crate::section::{drive, ClientLog, HasLog, OpKind};
use crate::stats::{latency, Samples};
use crate::trace::Tracer;
use crate::workloads::timed_and_traced;

pub const NAME: &str = "tree_get_dram";
pub const WHY: &str = "pure software read path: inner traversal under SpecLock, fingerprint probe and pool read API on 2 M keys at DRAM latency; no persist is issued";

const KEYS: usize = 2_000_000;
/// Pre-generated lookups per client; the stream wraps (gets change nothing).
const STREAM: usize = 1 << 22;
const ABSENT_PCT: u64 = 10;

struct Client<'a> {
    tree: &'a ConcurrentFPTree,
    stripes: &'a [Stripe],
    stream: Vec<u64>,
    pos: usize,
    log: ClientLog,
}

impl HasLog for Client<'_> {
    fn log_mut(&mut self) -> &mut ClientLog {
        &mut self.log
    }
}

struct Built {
    pool: Arc<PmemPool>,
    tree: ConcurrentFPTree,
    insert_lat: Vec<Samples>,
    flushed_lines: u64,
}

fn build(cfg: &Config, per_stripe: u32, checks: &mut Checks) -> Built {
    let pool = direct_pool(pool_bytes(per_stripe as usize * cfg.threads), 90);
    let tree = ConcurrentFPTree::create(
        Arc::clone(&pool),
        TreeConfig::fptree_concurrent(),
        ROOT_SLOT,
    );
    let before = pool.stats().snapshot().flushed_lines;
    let insert_lat = preload_concurrent(&tree, cfg.threads, per_stripe, checks);
    Built {
        flushed_lines: pool.stats().snapshot().flushed_lines - before,
        insert_lat,
        pool,
        tree,
    }
}

pub fn run(cfg: &Config, tracer: &mut Tracer) -> WorkloadResult {
    let mut res = WorkloadResult::new(NAME);
    let per_stripe = (cfg.scaled(KEYS) / cfg.threads) as u32;
    let keys = per_stripe as usize * cfg.threads;

    // Set-up, several times; the last build is the one measured. Every
    // build's insert latencies count: they are this workload's writes.
    let mut insert_lat: Vec<Samples> = Vec::new();
    let (built, setup) = repeat_setup(cfg, tracer, || {
        let mut b = build(cfg, per_stripe, &mut res.checks);
        insert_lat.append(&mut b.insert_lat);
        b
    });
    let Built {
        pool,
        tree,
        flushed_lines,
        ..
    } = built;
    let stripes: Vec<Stripe> = (0..cfg.threads)
        .map(|t| Stripe::new(t, per_stripe, 0))
        .collect();

    // Inputs, before any clock starts.
    let stream_len = cfg.scaled(STREAM);
    let mut clients: Vec<Client> = (0..cfg.threads)
        .map(|t| Client {
            tree: &tree,
            stripes: &stripes,
            stream: get_stream(
                sub_seed(cfg.seed, t as u64),
                cfg.threads as u64,
                per_stripe as u64,
                stream_len,
                ABSENT_PCT,
            ),
            pos: 0,
            log: ClientLog::default(),
        })
        .collect();
    res.note(format!(
        "inputs: {keys} keys, {} lookups/client pre-generated (wrapping), hash {:016x}",
        stream_len,
        clients.iter().fold(0, |h, c| h ^ hash_u64s(&c.stream))
    ));

    let counters = || {
        let mut c = Counters::default();
        c.add_pool(pool.stats().snapshot());
        c.add_htm(tree.htm_stats());
        c.add_tree(&tree.metrics().snapshot());
        c
    };
    let step = |c: &mut Client, ctx| {
        let Client {
            tree,
            stripes,
            stream,
            pos,
            log,
        } = c;
        drive(ctx, log, |checks| {
            let id = stream[*pos];
            *pos = (*pos + 1) % stream.len();
            let got = tree.get(&key_of(id));
            let want = expect(stripes, id);
            checks.check(got == want, || {
                format!("get id {id}: {got:?}, oracle {want:?}")
            });
            Some(OpKind::Read("get"))
        })
    };

    let timed = timed_and_traced(cfg, &mut clients, step, counters, tracer, &mut res);
    drop(clients);

    // Audit: footprint, then full content.
    tracer.begin("audit");
    let scm = pool.stats().snapshot().bump_high_water;
    let dram = tree.dram_bytes();
    audit_scan(
        "audit",
        tree.scan(..),
        tree.len(),
        &stripes,
        &mut res.checks,
    );
    tracer.end();

    let restarts = restart_concurrent(cfg, &pool, &stripes, &mut res.checks, tracer);

    let lat: Vec<&Samples> = insert_lat.iter().collect();
    res.push(setup);
    res.push_throughput(&timed.tp);
    res.push_latency("read", timed.read_latency());
    // No write is issued while the clock runs; the writes a user of this
    // workload pays for are the preload inserts.
    res.push_latency("write", latency(&lat));
    res.push(Metric::new(
        "flushed_lines_per_write",
        flushed_lines as f64 / keys as f64,
        "lines",
    ));
    res.push(Metric::new(
        "scm_bytes_per_key",
        scm as f64 / keys as f64,
        "B",
    ));
    res.push(Metric::new(
        "dram_bytes_per_key",
        dram as f64 / keys as f64,
        "B",
    ));
    res.note(restarts.note());
    res.push(restarts.metric());
    res
}
