//! `tree_write_scm`: a write-only mix on the single-threaded `FPTree` at
//! 650 ns, where injected line latency — `persists × lines × 560 ns` — sets
//! the clock. One thread and no timers, so its counts repeat exactly.

use std::sync::Arc;

use fptree_core::{FPTree, TreeConfig};
use fptree_pmem::{LatencyProfile, PmemPool, PoolOptions, StatsSnapshot, ROOT_SLOT};

use super::tree_common::{audit_scan, pool_bytes, preload_single, restart_tree, Client, Stripe};
use crate::common::{direct_pool, repeat_setup, Checks, Config, Counters, Metric, WorkloadResult};
use crate::gen::{hash_u32s, key_of, mixed_stream, stream_index_bound, sub_seed, Mix, SplitMix64};
use crate::section::{drive, run_section, ClientLog, HasLog, OpKind};
use crate::stats::SAMPLE_EVERY;
use crate::trace::Tracer;
use crate::workloads::timed_and_traced;

pub const NAME: &str = "tree_write_scm";
pub const WHY: &str = "SCM-bound writes: at 650 ns at least 75 % of every insert/update/remove is injected line latency, so persists and flushed lines set the clock and software-path changes must not";

const KEYS: usize = 1_000_000;
pub const MIX: Mix = Mix {
    get: 0,
    insert: 40,
    update: 40,
    remove: 20,
};
const SCM_NS: u64 = 650;
/// Ops pre-generated per second of timed section (reference rate: 135 k/s;
/// the injected latency alone caps the rate near 700 k/s).
const STREAM_OPS_PER_SEC: f64 = 4.0e5;
/// The exact counts are taken over this many ops per second of `--seconds`
/// — a fixed op prefix, not a time window, so they repeat bit for bit. The
/// run continues past the clock if the host is too slow to reach it.
const PREFIX_OPS_PER_SEC: f64 = 4.0e4;
/// The durability check replays the generator at 1/50 of the workload.
const DURABILITY_SCALE: usize = 50;

struct Built {
    pool: Arc<PmemPool>,
    tree: FPTree,
}

/// Pool + tree + preload at DRAM latency, then the switch to 650 ns.
fn build(keys: u32, extra: usize, checks: &mut Checks) -> Built {
    let pool = direct_pool(pool_bytes(keys as usize + extra), 90);
    let mut tree = FPTree::create(Arc::clone(&pool), TreeConfig::fptree(), ROOT_SLOT);
    preload_single(&mut tree, keys, checks);
    pool.set_latency(LatencyProfile::from_total(SCM_NS));
    Built { pool, tree }
}

/// The writer, with the snapshot it takes on reaching the op prefix.
struct Writer<'a> {
    inner: Client<&'a mut FPTree>,
    pool: &'a PmemPool,
    prefix: usize,
    at_prefix: Option<(StatsSnapshot, u64)>,
}

impl HasLog for Writer<'_> {
    fn log_mut(&mut self) -> &mut ClientLog {
        &mut self.inner.log
    }
}

impl Writer<'_> {
    #[inline]
    fn next_op(&mut self, checks: &mut Checks) -> Option<OpKind> {
        if self.inner.pos == self.prefix && self.at_prefix.is_none() {
            self.at_prefix = Some((self.pool.stats().snapshot(), self.inner.stripe.live()));
        }
        self.inner.next_op(checks)
    }
}

/// Reads back live keys at SCM latency.
struct Reader<'a> {
    tree: &'a FPTree,
    stripe: &'a Stripe,
    stream: Vec<u32>,
    pos: usize,
    log: ClientLog,
}

impl HasLog for Reader<'_> {
    fn log_mut(&mut self) -> &mut ClientLog {
        &mut self.log
    }
}

pub fn run(cfg: &Config, tracer: &mut Tracer) -> WorkloadResult {
    let mut res = WorkloadResult::new(NAME);
    let keys = cfg.scaled(KEYS) as u32;
    let stream_len = (STREAM_OPS_PER_SEC * cfg.stream_secs()) as usize;
    let prefix = ((PREFIX_OPS_PER_SEC * cfg.timed_secs()) as usize).min(stream_len);
    let stream = mixed_stream(sub_seed(cfg.seed, 0), keys, stream_len, MIX);
    let bound = stream_index_bound(keys, &stream);
    res.note(format!(
        "inputs: {keys} keys preloaded, {stream_len} ops pre-generated, hash {:016x}; exact counts over the first {prefix} ops",
        hash_u32s(&stream)
    ));

    let (Built { pool, mut tree }, setup) = repeat_setup(cfg, tracer, || {
        build(keys, bound - keys as usize, &mut res.checks)
    });

    // The write section.
    let start_stats = pool.stats().snapshot();
    let mut writers = vec![Writer {
        inner: Client::new(&mut tree, Stripe::new(0, keys, bound), stream),
        pool: &pool,
        prefix,
        at_prefix: None,
    }];
    let counters = || {
        let mut c = Counters::default();
        c.add_pool(pool.stats().snapshot());
        c
    };
    let step = |w: &mut Writer, ctx| {
        let mut log = std::mem::take(&mut w.inner.log);
        let n = drive(ctx, &mut log, |checks| w.next_op(checks));
        w.inner.log = log;
        n
    };
    let timed = timed_and_traced(cfg, &mut writers, step, counters, tracer, &mut res);
    let mut writer = writers.pop().expect("one writer");
    while writer.at_prefix.is_none() && writer.next_op(&mut res.checks).is_some() {}
    if writer.inner.pos == writer.inner.stream.len() {
        res.note("note: the writer ran out of pre-generated ops before the clock did");
    }
    let (prefix_stats, prefix_live) = writer
        .at_prefix
        .unwrap_or((pool.stats().snapshot(), writer.inner.stripe.live()));
    let stripes = vec![writer.inner.stripe];
    let live = stripes[0].live();

    // Read-back at 650 ns: the read latency of the tree the writes left.
    let readback_secs = cfg.timed_secs() / 5.0;
    let mut rng = SplitMix64::new(sub_seed(cfg.seed, 1));
    let mut readers = vec![Reader {
        tree: &tree,
        stripe: &stripes[0],
        stream: (0..cfg.scaled(1 << 20))
            .map(|_| stripes[0].lo + rng.below(live) as u32)
            .collect(),
        pos: 0,
        log: ClientLog::default(),
    }];
    let mut readback = run_section(
        "readback",
        &mut readers,
        readback_secs / 8.0,
        readback_secs,
        SAMPLE_EVERY,
        |r: &mut Reader, ctx| {
            let Reader {
                tree,
                stripe,
                stream,
                pos,
                log,
            } = r;
            drive(ctx, log, |checks| {
                let idx = stream[*pos];
                *pos = (*pos + 1) % stream.len();
                let got = tree.get(&key_of(stripe.id(idx)));
                let want = stripe.value(idx);
                checks.check(got == Some(want), || {
                    format!("read-back idx {idx}: {got:?}, oracle {want:#x}")
                });
                Some(OpKind::Read("get"))
            })
        },
        counters,
        tracer,
    );
    readback.take_checks(&mut res.checks);
    drop(readers);

    // Audit at DRAM latency: footprint, full content.
    tracer.begin("audit");
    pool.set_latency(LatencyProfile::DRAM);
    let usage = tree.memory_usage();
    audit_scan("audit", tree.iter(), tree.len(), &stripes, &mut res.checks);
    pool.set_latency(LatencyProfile::from_total(SCM_NS));
    tracer.end();

    // Restart at 650 ns: reopen the image, rebuild the inner nodes.
    let restarts = restart_tree(
        cfg,
        &pool,
        &mut res.checks,
        tracer,
        |p| FPTree::open(p, ROOT_SLOT),
        |what, t, c| audit_scan(what, t.iter(), t.len(), &stripes, c),
    );

    tracer.scope("durability", |_| durability_check(cfg, &mut res));

    res.push(setup);
    res.push_throughput(&timed.tp);
    res.push_latency("read", readback.read_latency());
    res.push_latency("write", timed.write_latency());
    res.push(Metric::new(
        "flushed_lines_per_write",
        (prefix_stats.flushed_lines - start_stats.flushed_lines) as f64 / prefix.max(1) as f64,
        "lines",
    ));
    res.push(Metric::new(
        "scm_bytes_per_key",
        prefix_stats.bump_high_water as f64 / prefix_live as f64,
        "B",
    ));
    res.push(Metric::new(
        "dram_bytes_per_key",
        usage.dram_bytes as f64 / live as f64,
        "B",
    ));
    res.note(restarts.note());
    res.push(restarts.metric());
    res.note(format!(
        "exact over the first {prefix} ops: {:.4} persists, {:.4} flushed lines, {:.4} read lines per op",
        (prefix_stats.persist_calls - start_stats.persist_calls) as f64 / prefix.max(1) as f64,
        (prefix_stats.flushed_lines - start_stats.flushed_lines) as f64 / prefix.max(1) as f64,
        (prefix_stats.read_lines - start_stats.read_lines) as f64 / prefix.max(1) as f64,
    ));
    res
}

/// Replays the same generator at 1/50 scale on a tracked pool under the
/// durability checker, cuts power right after the last acknowledged op —
/// `crash_image` really drops unflushed words — and requires the reopened
/// tree to hold every acknowledged op, pass `check_consistency`, and the
/// checker to have found nothing.
fn durability_check(cfg: &Config, res: &mut WorkloadResult) {
    let keys = (cfg.scaled(KEYS) / DURABILITY_SCALE).max(64) as u32;
    let ops = (cfg.scaled(KEYS) / DURABILITY_SCALE).max(64);
    let stream = mixed_stream(sub_seed(cfg.seed, 0), keys, ops, MIX);
    let bound = stream_index_bound(keys, &stream);
    let opts = PoolOptions::tracked(pool_bytes(bound)).with_checker();
    let pool = Arc::new(PmemPool::create(opts).expect("tracked pool"));
    let mut tree = FPTree::create(Arc::clone(&pool), TreeConfig::fptree(), ROOT_SLOT);
    let mut checks = Checks::default();
    preload_single(&mut tree, keys, &mut checks);
    let mut client = Client::new(&mut tree, Stripe::new(0, keys, bound), stream);
    while client.next_op(&mut checks).is_some() {}
    let stripes = vec![client.stripe];

    let image = pool.crash_image(cfg.seed);
    let violations = pool.stats().snapshot().checker_violations;
    checks.check(violations == 0, || {
        format!(
            "durability checker: {violations} violations\n{}",
            pool.durability_report().render()
        )
    });
    match PmemPool::reopen(image, PoolOptions::direct(0)) {
        Ok(pool2) => match FPTree::open(Arc::new(pool2), ROOT_SLOT) {
            Ok(t2) => {
                audit_scan(
                    "after power cut",
                    t2.iter(),
                    t2.len(),
                    &stripes,
                    &mut checks,
                );
                let consistent = t2.check_consistency();
                checks.check(consistent.is_ok(), || {
                    format!("after power cut: check_consistency: {consistent:?}")
                });
            }
            Err(e) => checks.fail(format!("after power cut: open failed: {e}")),
        },
        Err(e) => checks.fail(format!("after power cut: reopen failed: {e}")),
    }
    res.note(format!(
        "durability: {keys} keys + {ops} ops on a tracked pool under the checker, power cut, {} checks, {} failed",
        checks.attempted, checks.failed
    ));
    res.checks.merge(checks);
}
