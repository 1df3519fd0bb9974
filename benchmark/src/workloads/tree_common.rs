//! Shared by the three in-process tree workloads: the stripe oracle, the
//! preload, the content audit and the restart loop.

use std::sync::Arc;
use std::time::{Duration, Instant};

use fptree_core::{ConcurrentFPTree, FPTree};
use fptree_pmem::{PmemPool, ROOT_SLOT};

use crate::common::{reopen_image, Checks, Config, Metric};
use crate::gen::{
    id_of, key_of, op_index, op_kind, value_of, OP_GET, OP_INSERT, OP_UPDATE, STRIPE,
};
use crate::section::{ClientLog, HasLog, OpKind};
use crate::stats::{median, spread, Samples, SAMPLE_EVERY};
use crate::trace::Tracer;

/// The exact expected content of one id stripe: the live indices are the
/// contiguous range `lo..hi`, and `ver[i]` counts the updates index `i` has
/// received (mod 256, which is all [`value_of`] looks at).
#[derive(Debug, Clone)]
pub struct Stripe {
    pub base: u64,
    pub lo: u32,
    pub hi: u32,
    pub ver: Vec<u8>,
}

impl Stripe {
    /// Stripe `t` with indices `0..preloaded` live and room for `bound`.
    pub fn new(t: usize, preloaded: u32, bound: usize) -> Stripe {
        Stripe {
            base: t as u64 * STRIPE,
            lo: 0,
            hi: preloaded,
            ver: vec![0; bound.max(preloaded as usize)],
        }
    }

    #[inline]
    pub fn id(&self, idx: u32) -> u64 {
        self.base + idx as u64
    }

    #[inline]
    pub fn value(&self, idx: u32) -> u64 {
        value_of(self.id(idx), self.ver[idx as usize])
    }

    pub fn live(&self) -> u64 {
        (self.hi - self.lo) as u64
    }
}

/// The expected value of `id` across all stripes, `None` if it must be
/// absent.
pub fn expect(stripes: &[Stripe], id: u64) -> Option<u64> {
    let s = stripes.get((id / STRIPE) as usize)?;
    let idx = (id % STRIPE) as u32;
    (s.lo <= idx && idx < s.hi).then(|| s.value(idx))
}

/// The four point operations, over either tree flavour.
pub trait Kv {
    fn get(&self, key: u64) -> Option<u64>;
    fn insert(&mut self, key: u64, value: u64) -> bool;
    fn update(&mut self, key: u64, value: u64) -> bool;
    fn remove(&mut self, key: u64) -> bool;
}

impl Kv for &ConcurrentFPTree {
    fn get(&self, key: u64) -> Option<u64> {
        ConcurrentFPTree::get(self, &key)
    }
    fn insert(&mut self, key: u64, value: u64) -> bool {
        ConcurrentFPTree::insert(self, &key, value)
    }
    fn update(&mut self, key: u64, value: u64) -> bool {
        ConcurrentFPTree::update(self, &key, value)
    }
    fn remove(&mut self, key: u64) -> bool {
        ConcurrentFPTree::remove(self, &key)
    }
}

impl Kv for &mut FPTree {
    fn get(&self, key: u64) -> Option<u64> {
        FPTree::get(self, &key)
    }
    fn insert(&mut self, key: u64, value: u64) -> bool {
        FPTree::insert(self, &key, value)
    }
    fn update(&mut self, key: u64, value: u64) -> bool {
        FPTree::update(self, &key, value)
    }
    fn remove(&mut self, key: u64) -> bool {
        FPTree::remove(self, &key)
    }
}

/// One closed-loop client of a mixed stream: the tree, its pre-generated
/// ops, its cursor and the oracle of its stripe.
pub struct Client<T> {
    pub tree: T,
    pub stripe: Stripe,
    pub stream: Vec<u32>,
    pub pos: usize,
    pub log: ClientLog,
}

impl<T> HasLog for Client<T> {
    fn log_mut(&mut self) -> &mut ClientLog {
        &mut self.log
    }
}

impl<T: Kv> Client<T> {
    pub fn new(tree: T, stripe: Stripe, stream: Vec<u32>) -> Client<T> {
        Client {
            tree,
            stripe,
            stream,
            pos: 0,
            log: ClientLog::default(),
        }
    }

    /// Executes the next op against the tree and the oracle; `None` when
    /// the stream is exhausted.
    #[inline]
    pub fn next_op(&mut self, checks: &mut Checks) -> Option<OpKind> {
        let op = *self.stream.get(self.pos)?;
        self.pos += 1;
        let idx = op_index(op);
        let id = self.stripe.id(idx);
        let key = key_of(id);
        Some(match op_kind(op) {
            OP_GET => {
                let got = self.tree.get(key);
                let want = self.stripe.value(idx);
                checks.check(got == Some(want), || {
                    format!("get id {id}: {got:?}, oracle {want:#x}")
                });
                OpKind::Read("get")
            }
            OP_INSERT => {
                self.stripe.ver[idx as usize] = 0;
                let ok = self.tree.insert(key, value_of(id, 0));
                self.stripe.hi = idx + 1;
                checks.check(ok, || format!("insert of fresh id {id} refused"));
                OpKind::Write("insert")
            }
            OP_UPDATE => {
                let v = &mut self.stripe.ver[idx as usize];
                *v = v.wrapping_add(1);
                let value = value_of(id, *v);
                let ok = self.tree.update(key, value);
                checks.check(ok, || format!("update of live id {id} refused"));
                OpKind::Write("update")
            }
            _ => {
                let ok = self.tree.remove(key);
                self.stripe.lo = idx + 1;
                checks.check(ok, || format!("remove of live id {id} refused"));
                OpKind::Write("remove")
            }
        })
    }

    /// Writes among the ops executed so far.
    pub fn writes_done(&self) -> usize {
        self.stream[..self.pos]
            .iter()
            .filter(|&&op| op_kind(op) != OP_GET)
            .count()
    }
}

/// Audits a full ordered scan against the oracle: every entry must decode
/// to a live id with the expected value, in strictly ascending key order,
/// and the count must equal the live total (so nothing is missing either).
pub fn audit_scan(
    what: &str,
    entries: impl Iterator<Item = (u64, u64)>,
    len: usize,
    stripes: &[Stripe],
    checks: &mut Checks,
) {
    let live: u64 = stripes.iter().map(Stripe::live).sum();
    let mut seen = 0u64;
    let mut prev = 0u64;
    for (key, value) in entries {
        seen += 1;
        let want = id_of(key).and_then(|id| expect(stripes, id));
        let ok = want == Some(value) && (seen == 1 || key > prev);
        checks.check(ok, || {
            format!("{what}: scanned ({key:#x}, {value:#x}), oracle says {want:?}")
        });
        prev = key;
    }
    checks.check(seen == live && len as u64 == live, || {
        format!("{what}: {seen} entries scanned, len() = {len}, oracle holds {live}")
    });
}

/// Preloads stripe `t`'s indices `0..per_stripe` from thread `t`, timing
/// one insert in [`SAMPLE_EVERY`]. Returns the insert latencies.
pub fn preload_concurrent(
    tree: &ConcurrentFPTree,
    threads: usize,
    per_stripe: u32,
    checks: &mut Checks,
) -> Vec<Samples> {
    let outs: Vec<(Samples, Checks)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                scope.spawn(move || {
                    let mut lat = Samples::default();
                    let mut checks = Checks::default();
                    let base = t as u64 * STRIPE;
                    for idx in 0..per_stripe as u64 {
                        let id = base + idx;
                        let timed = idx % SAMPLE_EVERY as u64 == 0;
                        let t0 = timed.then(Instant::now);
                        let ok = tree.insert(&key_of(id), value_of(id, 0));
                        if let Some(t0) = t0 {
                            lat.push(t0.elapsed());
                        }
                        checks.check(ok, || format!("preload insert of id {id} refused"));
                    }
                    lat.end_round();
                    (lat, checks)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("preload thread panicked"))
            .collect()
    });
    outs.into_iter()
        .map(|(lat, c)| {
            checks.merge(c);
            lat
        })
        .collect()
}

/// Single-threaded preload of stripe 0's indices `0..n`.
pub fn preload_single(tree: &mut FPTree, n: u32, checks: &mut Checks) -> Samples {
    let mut lat = Samples::default();
    for idx in 0..n as u64 {
        let timed = idx % SAMPLE_EVERY as u64 == 0;
        let t0 = timed.then(Instant::now);
        let ok = tree.insert(&key_of(idx), value_of(idx, 0));
        if let Some(t0) = t0 {
            lat.push(t0.elapsed());
        }
        checks.check(ok, || format!("preload insert of id {idx} refused"));
    }
    lat.end_round();
    lat
}

/// Restart times of one workload.
#[derive(Debug, Default)]
pub struct Restarts {
    pub ms: Vec<f64>,
}

impl Restarts {
    /// The individual restart times, for the report.
    pub fn note(&self) -> String {
        let ms: Vec<String> = self.ms.iter().map(|m| format!("{m:.1}")).collect();
        format!("restarts (ms): {}", ms.join(" "))
    }

    pub fn metric(&self) -> Metric {
        Metric::new("recovery_ms", median(&self.ms), "ms")
            .spread(spread(&self.ms))
            .samples(self.ms.len())
    }
}

/// Restarts a fixed-key tree `cfg.recoveries()` times from a clean image of
/// its pool — reopen the pool (allocator recovery) and `open` the tree —
/// handing each reopened tree to `audit` (length and full content, at DRAM
/// latency). Only reopen + open is timed.
pub fn restart_tree<T>(
    cfg: &Config,
    pool: &PmemPool,
    checks: &mut Checks,
    tracer: &mut Tracer,
    open: impl Fn(Arc<PmemPool>) -> Result<T, fptree_core::Error>,
    audit: impl Fn(&str, &T, &mut Checks),
) -> Restarts {
    let mut out = Restarts::default();
    for i in 0..cfg.recoveries() {
        let image = pool.clean_image();
        tracer.begin("restart");
        let t = Instant::now();
        let pool2 = reopen_image(image, pool.latency());
        let reopened = open(Arc::clone(&pool2));
        let took = t.elapsed();
        tracer.end();
        match reopened {
            Ok(tree) => {
                out.ms.push(ms(took));
                pool2.set_latency(fptree_pmem::LatencyProfile::DRAM);
                audit(&format!("restart {i}"), &tree, checks);
            }
            Err(e) => checks.fail(format!("restart {i}: open failed: {e}")),
        }
    }
    out
}

/// [`restart_tree`] for the concurrent tree the two DRAM workloads use.
pub fn restart_concurrent(
    cfg: &Config,
    pool: &PmemPool,
    stripes: &[Stripe],
    checks: &mut Checks,
    tracer: &mut Tracer,
) -> Restarts {
    restart_tree(
        cfg,
        pool,
        checks,
        tracer,
        |p| ConcurrentFPTree::open(p, ROOT_SLOT),
        |what, t, c| audit_scan(what, t.scan(..), t.len(), stripes, c),
    )
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Pool bytes for `keys` fixed-size keys with headroom for churn.
pub fn pool_bytes(keys: usize) -> usize {
    (keys * 128).max(32 << 20)
}
