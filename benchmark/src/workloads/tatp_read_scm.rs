//! `tatp_read_scm`: the paper's second integration. Read-only TATP
//! transactions through the dictionary engine, every dictionary index a
//! single-threaded `FPTree` behind a mutex, all in one pool at 250 ns.
//!
//! One client, not `T`. The dictionary mutexes are held across the injected
//! SCM latency, so two clients collide on them constantly and what gets
//! measured is the VM's futex wake-up time: two passes of one seed in one
//! process differed by 28 % in `ops_per_s`. The workload exists to show
//! lines read per lookup (160 ns each in a 2 µs transaction); with one client
//! the mutexes are on the path but uncontended, and that signal is visible.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use fptree_core::index::U64Index;
use fptree_core::{FPTree, Locked, TreeConfig};
use fptree_pmem::{LatencyProfile, PmemPool, ROOT_SLOT};
use fptree_tatp::db::cf_key;
use fptree_tatp::TatpDb;

use super::tree_common::{ms, Restarts};
use crate::common::{
    direct_pool, reopen_image, repeat_setup, Checks, Config, Counters, Metric, WorkloadResult,
};
use crate::gen::{mix64, sub_seed, tatp_stream, Txn};
use crate::section::{drive, ClientLog, HasLog, OpKind};
use crate::stats::{latency, Samples, ROUNDS};
use crate::trace::Tracer;
use crate::workloads::timed_and_traced;

pub const NAME: &str = "tatp_read_scm";
pub const WHY: &str = "SCM-bound reads at 250 ns through many small single-threaded trees behind a mutex and the dictionary engine, one client; lines read per lookup show here, SpecLock and concurrent-tree changes do not";

const SUBSCRIBERS: usize = 100_000;
pub const SCM_NS: u64 = 250;
/// Pre-generated transactions per client; the stream wraps (read-only).
const STREAM: usize = 1 << 19;
/// Rows inserted after the clock stops, each timed: this workload's writes.
const INSERTED_ROWS: usize = 50_000;
/// Owner slots in the pool's index directory (the schema needs 20).
const DIR_SLOTS: u64 = 64;

/// A populated database whose dictionary indexes the benchmark can still
/// reach: the pool, the directory of owner slots, and every tree in
/// creation order.
pub struct Rig {
    pub pool: Arc<PmemPool>,
    pub dir: u64,
    pub trees: Vec<Arc<Locked<FPTree>>>,
    pub db: TatpDb,
}

impl Rig {
    /// Populates `subscribers` at DRAM latency, then switches the pool to
    /// `total_ns`: set-up cost is the software path's, the measured
    /// sections run at SCM latency.
    pub fn build(subscribers: usize, seed: u64, total_ns: u64) -> Rig {
        let pool = direct_pool((64 << 20) + subscribers * 2048, 90);
        let dir = pool
            .allocate(ROOT_SLOT, (DIR_SLOTS * 16) as usize)
            .expect("index directory");
        let trees = RefCell::new(Vec::new());
        let factory = |_: &str| -> Arc<dyn U64Index> {
            let slot = dir + trees.borrow().len() as u64 * 16;
            let tree = Arc::new(Locked::new(FPTree::create(
                Arc::clone(&pool),
                TreeConfig::fptree(),
                slot,
            )));
            trees.borrow_mut().push(Arc::clone(&tree));
            tree
        };
        let db = TatpDb::populate(subscribers as u64, &factory, seed);
        pool.set_latency(LatencyProfile::from_total(total_ns));
        Rig {
            dir,
            trees: trees.into_inner(),
            db,
            pool,
        }
    }

    /// Dictionary entries over all indexes.
    pub fn entries(&self) -> usize {
        self.trees.iter().map(|t| t.len()).sum()
    }

    pub fn dram_bytes(&self) -> u64 {
        self.trees
            .iter()
            .map(|t| t.0.lock().memory_usage().dram_bytes)
            .sum()
    }

    /// Restart: reopen the image, `open` every dictionary index, rebuild
    /// the decode vectors. Returns `(open_ms, decode_ms)` and audits every
    /// reopened index against the live one (length and full content).
    pub fn restart(&self, what: &str, checks: &mut Checks) -> (f64, f64) {
        let image = self.pool.clean_image();
        let t = Instant::now();
        let pool2 = reopen_image(image, self.pool.latency());
        let reopened: Vec<_> = (0..self.trees.len() as u64)
            .map(|i| FPTree::open(Arc::clone(&pool2), self.dir + i * 16))
            .collect();
        let open_ms = ms(t.elapsed());
        let t = Instant::now();
        self.db.rebuild_decodes();
        let decode_ms = ms(t.elapsed());

        let latency = self.pool.latency();
        self.pool.set_latency(LatencyProfile::DRAM);
        pool2.set_latency(LatencyProfile::DRAM);
        for (i, (old, new)) in self.trees.iter().zip(reopened).enumerate() {
            match new {
                Ok(new) => {
                    let old = old.0.lock();
                    let same = old.len() == new.len() && old.iter().eq(new.iter());
                    checks.check(same, || {
                        format!(
                            "{what}: index {i} reopened with {} entries, held {}",
                            new.len(),
                            old.len()
                        )
                    });
                }
                Err(e) => checks.fail(format!("{what}: index {i}: open failed: {e}")),
            }
        }
        self.pool.set_latency(latency);
        (open_ms, decode_ms)
    }
}

/// The oracle's dictionary index: a locked `BTreeMap`.
#[derive(Default)]
struct OracleIndex(Mutex<BTreeMap<u64, u64>>);

impl OracleIndex {
    fn map(&self) -> std::sync::MutexGuard<'_, BTreeMap<u64, u64>> {
        self.0.lock().expect("oracle index lock poisoned")
    }
}

impl U64Index for OracleIndex {
    fn insert(&self, key: u64, value: u64) -> bool {
        match self.map().entry(key) {
            std::collections::btree_map::Entry::Vacant(e) => {
                e.insert(value);
                true
            }
            _ => false,
        }
    }
    fn get(&self, key: u64) -> Option<u64> {
        self.map().get(&key).copied()
    }
    fn update(&self, key: u64, value: u64) -> bool {
        self.map().get_mut(&key).map(|v| *v = value).is_some()
    }
    fn remove(&self, key: u64) -> bool {
        self.map().remove(&key).is_some()
    }
    fn len(&self) -> usize {
        self.map().len()
    }
    fn range(&self, lo: u64, hi: u64) -> Option<Vec<(u64, u64)>> {
        Some(self.map().range(lo..=hi).map(|(k, v)| (*k, *v)).collect())
    }
}

/// The same population over the oracle index: identical rows, because the
/// rows depend on the seed and not on the index.
pub fn oracle_db(subscribers: usize, seed: u64) -> TatpDb {
    TatpDb::populate(
        subscribers as u64,
        &|_: &str| -> Arc<dyn U64Index> { Arc::new(OracleIndex::default()) },
        seed,
    )
}

/// Executes `txn` and folds its answer into one word.
#[inline]
pub fn execute(db: &TatpDb, txn: Txn) -> u64 {
    let fold = |row: Option<Vec<u64>>| row.map_or(0, |r| r.iter().fold(1, |h, &v| mix64(h ^ v)));
    match txn {
        Txn::GetSubscriberData { s_id } => fold(db.get_subscriber_data(s_id)),
        Txn::GetNewDestination {
            s_id,
            sf_type,
            start,
            end,
        } => db
            .get_new_destination(s_id, sf_type, start, end)
            .map_or(0, |n| mix64(n) | 1),
        Txn::GetAccessData { s_id, ai_type } => fold(db.get_access_data(s_id, ai_type)),
    }
}

pub fn txn_name(txn: Txn) -> &'static str {
    match txn {
        Txn::GetSubscriberData { .. } => "get_subscriber_data",
        Txn::GetNewDestination { .. } => "get_new_destination",
        Txn::GetAccessData { .. } => "get_access_data",
    }
}

/// A client: its transactions and the answers the oracle gave for them.
pub struct Client<'a> {
    pub db: &'a TatpDb,
    pub stream: Vec<Txn>,
    pub expected: Vec<u64>,
    pub pos: usize,
    pub log: ClientLog,
}

impl HasLog for Client<'_> {
    fn log_mut(&mut self) -> &mut ClientLog {
        &mut self.log
    }
}

impl<'a> Client<'a> {
    pub fn new(db: &'a TatpDb, oracle: &TatpDb, seed: u64, subscribers: usize, len: usize) -> Self {
        let stream = tatp_stream(seed, subscribers as u64, len);
        let expected = stream.iter().map(|&t| execute(oracle, t)).collect();
        Client {
            db,
            stream,
            expected,
            pos: 0,
            log: ClientLog::default(),
        }
    }

    #[inline]
    pub fn next_op(&mut self, checks: &mut Checks) -> Option<OpKind> {
        let (txn, want) = (self.stream[self.pos], self.expected[self.pos]);
        self.pos = (self.pos + 1) % self.stream.len();
        let got = execute(self.db, txn);
        checks.check(got == want, || {
            format!("{txn:?}: answer {got:#x}, oracle {want:#x}")
        });
        Some(OpKind::Read(txn_name(txn)))
    }
}

pub fn step(c: &mut Client, ctx: crate::stats::RoundCtx) -> u64 {
    let mut log = std::mem::take(&mut c.log);
    let n = drive(ctx, &mut log, |checks| c.next_op(checks));
    c.log = log;
    n
}

pub fn run(cfg: &Config, tracer: &mut Tracer) -> WorkloadResult {
    let mut res = WorkloadResult::new(NAME);
    let subscribers = cfg.scaled(SUBSCRIBERS);
    let pop_seed = sub_seed(cfg.seed, 99);

    let (rig, setup) = repeat_setup(cfg, tracer, || Rig::build(subscribers, pop_seed, SCM_NS));

    // Inputs and their answers, before any clock starts.
    let oracle = oracle_db(subscribers, pop_seed);
    let stream_len = cfg.scaled(STREAM);
    let mut clients = vec![Client::new(
        &rig.db,
        &oracle,
        sub_seed(cfg.seed, 0),
        subscribers,
        stream_len,
    )];
    res.note(format!(
        "inputs: {subscribers} subscribers, {} dictionary entries in {} indexes, {stream_len} transactions pre-generated (wrapping), answers hash {:016x}",
        rig.entries(),
        rig.trees.len(),
        clients
            .iter()
            .fold(0, |h, c| h ^ crate::gen::hash_u64s(&c.expected))
    ));

    let counters = || {
        let mut c = Counters::default();
        c.add_pool(rig.pool.stats().snapshot());
        c
    };
    let timed = timed_and_traced(cfg, &mut clients, step, counters, tracer, &mut res);

    // Writes: INSERT_CALL_FORWARDING's storage half for fresh subscribers,
    // one row at a time, every row timed.
    tracer.begin("insert_rows");
    let rows = cfg.scaled(INSERTED_ROWS);
    let before = rig.pool.stats().snapshot();
    let mut insert_lat = Samples::default();
    let numberx = |s_id: u64| mix64(s_id) >> 32;
    for k in 0..rows as u64 {
        let s_id = subscribers as u64 + 1 + k;
        let t0 = Instant::now();
        rig.db
            .call_forwarding
            .insert_row(cf_key(s_id, 1, 0), &[8, numberx(s_id)]);
        insert_lat.push(t0.elapsed());
        if (k + 1) % (rows as u64).div_ceil(ROUNDS as u64) == 0 {
            insert_lat.end_round();
        }
    }
    insert_lat.end_round();
    let flushed = rig.pool.stats().snapshot().flushed_lines - before.flushed_lines;
    for k in 0..rows as u64 {
        let s_id = subscribers as u64 + 1 + k;
        let got = rig
            .db
            .call_forwarding
            .find_row(cf_key(s_id, 1, 0))
            .map(|r| rig.db.call_forwarding.read_row(r));
        res.checks.check(got == Some(vec![8, numberx(s_id)]), || {
            format!("inserted call_forwarding row of s_id {s_id} reads back {got:?}")
        });
    }
    tracer.end();

    let entries = rig.entries();
    let scm = rig.pool.stats().snapshot().bump_high_water;
    let dram = rig.dram_bytes();

    // Restart, then the first transactions again: the rebuilt decode
    // vectors must give the same answers.
    let mut restarts = Restarts::default();
    for i in 0..cfg.recoveries() {
        tracer.begin("restart");
        let (open_ms, decode_ms) = rig.restart(&format!("restart {i}"), &mut res.checks);
        tracer.end();
        restarts.ms.push(open_ms + decode_ms);
    }
    rig.pool.set_latency(LatencyProfile::DRAM);
    for c in &mut clients {
        c.pos = 0;
        for _ in 0..c.stream.len().min(10_000) {
            c.next_op(&mut res.checks);
        }
    }

    let insert_lat = [&insert_lat];
    res.push(setup);
    res.push_throughput(&timed.tp);
    res.push_latency("read", timed.read_latency());
    res.push_latency("write", latency(&insert_lat));
    res.push(Metric::new(
        "flushed_lines_per_write",
        flushed as f64 / rows as f64,
        "lines",
    ));
    res.push(Metric::new(
        "scm_bytes_per_key",
        scm as f64 / entries as f64,
        "B",
    ));
    res.push(Metric::new(
        "dram_bytes_per_key",
        dram as f64 / entries as f64,
        "B",
    ));
    res.note(restarts.note());
    res.push(restarts.metric());
    res
}
