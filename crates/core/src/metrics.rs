//! Tree-wide observability: op metrics, latency histograms, contention
//! counters.
//!
//! The paper evaluates the FPTree through externally measured throughput
//! curves and *infers* concurrent behaviour (HTM aborts, leaf-lock
//! contention). This module makes those signals first-class: a lock-free,
//! sharded-per-thread [`Metrics`] registry records per-operation counts and
//! latencies, structural events (splits, leaf allocations, recovery
//! rebuilds) and concurrency signals (seqlock validation failures, scan hop
//! retries/re-seeks, leaf-lock acquisition spins), and renders them through
//! one [`Snapshot`] type with stable field names shared by `Display`, JSON,
//! the bench reports and the kvcache wire protocol's `stats` command.
//!
//! ## Design
//!
//! * **Sharding** — the registry holds [`N_SHARDS`] cache-line-aligned
//!   shards of relaxed `AtomicU64`s; each thread hashes to a shard by a
//!   thread-local id, so concurrent recorders touch disjoint cache lines in
//!   the common case. Reads (snapshots) sum across shards.
//! * **Histograms** — latencies land in log₂ buckets: bucket *i* covers
//!   `[2^i, 2^(i+1))` nanoseconds, [`N_BUCKETS`] buckets (≈ 18 minutes at
//!   the top). Percentiles are reported as the upper bound of the bucket the
//!   rank falls in.
//! * **Sampling** — every operation increments its count, but only one in
//!   [`SAMPLE_EVERY`] takes the two `Instant::now()` clock reads; this keeps
//!   hot-path cost to one relaxed `fetch_add` (~ns) on the non-sampled path
//!   while histograms stay representative.
//! * **Feature gating** — the `metrics` cargo feature (on by default) gates
//!   every hot-path recording body. With `--no-default-features` the types
//!   and the `Snapshot` API still compile (all-zero fields), but recording
//!   compiles to nothing.
//!
//! Counters from layers below the tree are *absorbed at snapshot time*:
//! [`Snapshot::with_pool`] merges the pmem [`fptree_pmem::PoolStats`]
//! counters (prefixed `pmem_`), and [`Snapshot::with_htm`] merges the
//! [`fptree_htm::SpecLock`] speculation statistics (prefixed `htm_`), so one
//! flat snapshot spans the whole stack without inverting the crate graph.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
#[cfg(feature = "metrics")]
use std::time::Instant;

use fptree_pmem::PmemPool;

/// Number of registry shards (power of two). Threads map to shards by a
/// monotonically assigned thread-local id.
pub const N_SHARDS: usize = 16;

/// Number of log₂ latency buckets: bucket `i` covers `[2^i, 2^(i+1))` ns.
pub const N_BUCKETS: usize = 40;

/// One in this many operations is latency-sampled (counts are exact).
pub const SAMPLE_EVERY: u64 = 8;

/// Timed tree operations (each gets a count + latency histogram).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Point lookup.
    Get = 0,
    /// Insert of a new key.
    Insert = 1,
    /// Update of an existing key.
    Update = 2,
    /// Removal of a key.
    Remove = 3,
    /// Ordered range scan (timed over the iterator's whole lifetime).
    Scan = 4,
}

/// Number of [`Op`] variants.
pub const N_OPS: usize = 5;

impl Op {
    /// Every variant, in field order.
    pub const ALL: [Op; N_OPS] = [Op::Get, Op::Insert, Op::Update, Op::Remove, Op::Scan];

    /// Stable field-name stem (`{name}_ops`, `{name}_p99_ns`, …).
    pub const fn name(self) -> &'static str {
        match self {
            Op::Get => "get",
            Op::Insert => "insert",
            Op::Update => "update",
            Op::Remove => "remove",
            Op::Scan => "scan",
        }
    }
}

/// Event counters: op outcomes, structural events, concurrency signals, and
/// the kvcache server's wire-level counters — one registry spanning every
/// layer, so a single snapshot explains a whole run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counter {
    // ----- op outcomes
    /// `get` found the key.
    GetHits = 0,
    /// `get` missed.
    GetMisses = 1,
    /// `insert` rejected an already-present key.
    InsertExisting = 2,
    /// `update` missed (key absent).
    UpdateMisses = 3,
    /// `remove` missed (key absent).
    RemoveMisses = 4,
    // ----- structural events
    /// Persistent leaf splits (micro-logged).
    LeafSplits = 5,
    /// Transient inner-node splits.
    InnerSplits = 6,
    /// Leaves allocated (splits, tree creation, bulk load).
    LeafAllocs = 7,
    /// Leaves unlinked and freed (or returned to their group).
    LeafFrees = 8,
    /// Recovery rebuilds of the transient inner nodes (`open`).
    RecoveryRebuilds = 9,
    /// Leaves walked during recovery rebuilds.
    RecoveryLeaves = 10,
    // ----- concurrency signals
    /// Optimistic reads aborted by seqlock validation (global or per-leaf).
    SeqlockConflicts = 11,
    /// Failed attempts to acquire a leaf write lock (retried).
    LeafLockSpins = 12,
    /// Spins waiting for a free structural micro-log.
    LogQueueWaits = 13,
    /// Root-to-leaf seeks performed by scans.
    ScanSeeks = 14,
    /// Scan leaf-chain hops retried after a version conflict.
    ScanHopRetries = 15,
    /// Scan hops that exhausted their retries and re-sought from the root.
    ScanReseeks = 16,
    /// Entries emitted by scans.
    ScanEntries = 17,
    // ----- kvcache server
    /// Wire `get` commands.
    CmdGet = 18,
    /// Wire `set` commands.
    CmdSet = 19,
    /// Wire `delete` commands.
    CmdDelete = 20,
    /// Wire `scan` commands.
    CmdScan = 21,
    /// Wire `stats` commands.
    CmdStats = 22,
    /// Wire `version` commands.
    CmdVersion = 23,
    /// Malformed wire commands.
    CmdBad = 24,
    /// Cache lookups that found the key.
    CacheHits = 25,
    /// Cache lookups that missed.
    CacheMisses = 26,
    /// Items evicted by the LRU.
    CacheEvictions = 27,
    /// Bytes read from client connections.
    BytesRead = 28,
    /// Bytes written to client connections.
    BytesWritten = 29,
    /// Client connections accepted.
    ConnOpened = 30,
    /// Client connections closed.
    ConnClosed = 31,
    /// Client connections rejected because the server was at its
    /// concurrent-connection cap.
    ConnRejected = 32,
    // ----- batched write path
    /// Leaf runs applied by `insert_batch` (one commit per run).
    InsertBatchRuns = 33,
    /// Keys newly inserted through the batched write path.
    InsertBatchKeys = 34,
    /// Leaf runs cleared by `remove_batch` (one commit per run).
    RemoveBatchRuns = 35,
    /// Keys removed through the batched write path.
    RemoveBatchKeys = 36,
    // ----- event-loop serving
    /// Readiness wake-ups delivered to the server's poll loop (one per
    /// `poll` return carrying at least one event).
    EvloopWakeups = 37,
    /// Response flushes that could not drain a connection's write queue in
    /// one pass (socket buffer full; the rest waits for writability).
    EvloopPartialWrites = 38,
    /// Times a connection's write queue crossed its cap and the server
    /// paused reading from that connection until the queue drained
    /// (backpressure).
    EvloopQueueStalls = 39,
    /// Connections reaped by the server's idle timeout.
    ConnIdleClosed = 40,
}

/// Number of [`Counter`] variants.
pub const N_COUNTERS: usize = 41;

impl Counter {
    /// Every variant, in field order.
    pub const ALL: [Counter; N_COUNTERS] = [
        Counter::GetHits,
        Counter::GetMisses,
        Counter::InsertExisting,
        Counter::UpdateMisses,
        Counter::RemoveMisses,
        Counter::LeafSplits,
        Counter::InnerSplits,
        Counter::LeafAllocs,
        Counter::LeafFrees,
        Counter::RecoveryRebuilds,
        Counter::RecoveryLeaves,
        Counter::SeqlockConflicts,
        Counter::LeafLockSpins,
        Counter::LogQueueWaits,
        Counter::ScanSeeks,
        Counter::ScanHopRetries,
        Counter::ScanReseeks,
        Counter::ScanEntries,
        Counter::CmdGet,
        Counter::CmdSet,
        Counter::CmdDelete,
        Counter::CmdScan,
        Counter::CmdStats,
        Counter::CmdVersion,
        Counter::CmdBad,
        Counter::CacheHits,
        Counter::CacheMisses,
        Counter::CacheEvictions,
        Counter::BytesRead,
        Counter::BytesWritten,
        Counter::ConnOpened,
        Counter::ConnClosed,
        Counter::ConnRejected,
        Counter::InsertBatchRuns,
        Counter::InsertBatchKeys,
        Counter::RemoveBatchRuns,
        Counter::RemoveBatchKeys,
        Counter::EvloopWakeups,
        Counter::EvloopPartialWrites,
        Counter::EvloopQueueStalls,
        Counter::ConnIdleClosed,
    ];

    /// Stable snapshot field name.
    pub const fn name(self) -> &'static str {
        match self {
            Counter::GetHits => "get_hits",
            Counter::GetMisses => "get_misses",
            Counter::InsertExisting => "insert_existing",
            Counter::UpdateMisses => "update_misses",
            Counter::RemoveMisses => "remove_misses",
            Counter::LeafSplits => "leaf_splits",
            Counter::InnerSplits => "inner_splits",
            Counter::LeafAllocs => "leaf_allocs",
            Counter::LeafFrees => "leaf_frees",
            Counter::RecoveryRebuilds => "recovery_rebuilds",
            Counter::RecoveryLeaves => "recovery_leaves",
            Counter::SeqlockConflicts => "seqlock_conflicts",
            Counter::LeafLockSpins => "leaf_lock_spins",
            Counter::LogQueueWaits => "log_queue_waits",
            Counter::ScanSeeks => "scan_seeks",
            Counter::ScanHopRetries => "scan_hop_retries",
            Counter::ScanReseeks => "scan_reseeks",
            Counter::ScanEntries => "scan_entries",
            Counter::CmdGet => "cmd_get",
            Counter::CmdSet => "cmd_set",
            Counter::CmdDelete => "cmd_delete",
            Counter::CmdScan => "cmd_scan",
            Counter::CmdStats => "cmd_stats",
            Counter::CmdVersion => "cmd_version",
            Counter::CmdBad => "cmd_bad",
            Counter::CacheHits => "cache_hits",
            Counter::CacheMisses => "cache_misses",
            Counter::CacheEvictions => "cache_evictions",
            Counter::BytesRead => "bytes_read",
            Counter::BytesWritten => "bytes_written",
            Counter::ConnOpened => "conn_opened",
            Counter::ConnClosed => "conn_closed",
            Counter::ConnRejected => "conn_rejected",
            Counter::InsertBatchRuns => "insert_batch_runs",
            Counter::InsertBatchKeys => "insert_batch_keys",
            Counter::RemoveBatchRuns => "remove_batch_runs",
            Counter::RemoveBatchKeys => "remove_batch_keys",
            Counter::EvloopWakeups => "evloop_wakeups",
            Counter::EvloopPartialWrites => "evloop_partial_writes",
            Counter::EvloopQueueStalls => "evloop_queue_stalls",
            Counter::ConnIdleClosed => "conn_idle_closed",
        }
    }
}

/// Per-phase wall-clock breakdown of one recovery (`open`) run, reported by
/// [`crate::ConcurrentTree::recovery_stats`].
///
/// Phases of the parallel pipeline, in order: micro-log **replay** (serial),
/// leaf-set **harvest** via the group directory or chain walk, the parallel
/// lock-reset/**audit**/count pass, and the level-by-level inner-node
/// **build**. Durations are microseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Worker threads the audit and build phases ran on.
    pub threads: usize,
    /// Micro-log replay (getleaf/freeleaf/split/delete), microseconds.
    pub replay_us: u64,
    /// Leaf-set harvest + chain stitch, microseconds.
    pub harvest_us: u64,
    /// Parallel leaf audit (lock reset, Algorithm-17 audit, counts) plus
    /// the serial empty-leaf unlink sweep, microseconds.
    pub audit_us: u64,
    /// DRAM inner-node bulk build, microseconds.
    pub build_us: u64,
    /// Leaves visited on the chain (including unlinked empties).
    pub leaves: u64,
}

/// One shard: a thread-partitioned slice of every counter and histogram.
/// Aligned to two cache lines so shards never false-share.
#[repr(align(128))]
struct Shard {
    counters: [AtomicU64; N_COUNTERS],
    op_count: [AtomicU64; N_OPS],
    op_samples: [AtomicU64; N_OPS],
    op_sum_ns: [AtomicU64; N_OPS],
    op_max_ns: [AtomicU64; N_OPS],
    hist: [[AtomicU64; N_BUCKETS]; N_OPS],
}

impl Shard {
    fn new() -> Shard {
        Shard {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            op_count: std::array::from_fn(|_| AtomicU64::new(0)),
            op_samples: std::array::from_fn(|_| AtomicU64::new(0)),
            op_sum_ns: std::array::from_fn(|_| AtomicU64::new(0)),
            op_max_ns: std::array::from_fn(|_| AtomicU64::new(0)),
            hist: std::array::from_fn(|_| std::array::from_fn(|_| AtomicU64::new(0))),
        }
    }

    fn reset(&self) {
        for c in &self.counters {
            c.store(0, Ordering::Relaxed);
        }
        for arr in [
            &self.op_count,
            &self.op_samples,
            &self.op_sum_ns,
            &self.op_max_ns,
        ] {
            for c in arr.iter() {
                c.store(0, Ordering::Relaxed);
            }
        }
        for h in &self.hist {
            for b in h.iter() {
                b.store(0, Ordering::Relaxed);
            }
        }
    }
}

/// Maps the calling thread to its shard index.
#[cfg(feature = "metrics")]
#[inline]
fn shard_id() -> usize {
    use std::sync::atomic::AtomicUsize;
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static ID: usize = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    ID.with(|id| *id) & (N_SHARDS - 1)
}

/// Log₂ histogram bucket for a nanosecond value.
#[cfg(feature = "metrics")]
#[inline]
fn bucket_of(ns: u64) -> usize {
    if ns == 0 {
        0
    } else {
        ((63 - ns.leading_zeros()) as usize).min(N_BUCKETS - 1)
    }
}

/// Upper bound (exclusive, in ns) of histogram bucket `i`.
fn bucket_upper_ns(i: usize) -> u64 {
    1u64 << ((i + 1).min(63))
}

/// The lock-free, sharded metrics registry.
///
/// One per tree (held in the tree's shared context) or per kvcache. All
/// recording methods are `&self`, wait-free, and compiled to no-ops when the
/// `metrics` feature is disabled.
pub struct Metrics {
    shards: Vec<Shard>,
}

impl Default for Metrics {
    fn default() -> Self {
        Self::new()
    }
}

impl Metrics {
    /// Creates an empty registry. With the `metrics` feature disabled no
    /// shards are allocated (snapshots read all-zero).
    pub fn new() -> Metrics {
        let n = if cfg!(feature = "metrics") {
            N_SHARDS
        } else {
            0
        };
        Metrics {
            shards: (0..n).map(|_| Shard::new()).collect(),
        }
    }

    /// True when recording is compiled in (the `metrics` cargo feature).
    pub const fn enabled() -> bool {
        cfg!(feature = "metrics")
    }

    /// Adds `n` to a counter.
    #[inline]
    pub fn add(&self, counter: Counter, n: u64) {
        #[cfg(feature = "metrics")]
        self.shards[shard_id()].counters[counter as usize].fetch_add(n, Ordering::Relaxed);
        #[cfg(not(feature = "metrics"))]
        let _ = (counter, n);
    }

    /// Increments a counter by one.
    #[inline]
    pub fn inc(&self, counter: Counter) {
        self.add(counter, 1);
    }

    /// Counts one `op` and returns a timer that records its latency (one in
    /// [`SAMPLE_EVERY`] is clock-sampled) when dropped.
    #[inline]
    pub fn time_op(&self, op: Op) -> OpTimer<'_> {
        #[cfg(feature = "metrics")]
        {
            let n = self.shards[shard_id()].op_count[op as usize].fetch_add(1, Ordering::Relaxed);
            OpTimer {
                metrics: self,
                op,
                start: n.is_multiple_of(SAMPLE_EVERY).then(Instant::now),
            }
        }
        #[cfg(not(feature = "metrics"))]
        {
            let _ = op;
            OpTimer {
                _marker: std::marker::PhantomData,
            }
        }
    }

    /// Records one fully counted and sampled `op` of `ns` nanoseconds
    /// (tests and replayed traces; the hot path uses [`Metrics::time_op`]).
    pub fn record_op_ns(&self, op: Op, ns: u64) {
        #[cfg(feature = "metrics")]
        {
            self.shards[shard_id()].op_count[op as usize].fetch_add(1, Ordering::Relaxed);
            self.record_sample(op, ns);
        }
        #[cfg(not(feature = "metrics"))]
        let _ = (op, ns);
    }

    #[cfg(feature = "metrics")]
    fn record_sample(&self, op: Op, ns: u64) {
        let shard = &self.shards[shard_id()];
        shard.op_samples[op as usize].fetch_add(1, Ordering::Relaxed);
        shard.op_sum_ns[op as usize].fetch_add(ns, Ordering::Relaxed);
        shard.op_max_ns[op as usize].fetch_max(ns, Ordering::Relaxed);
        shard.hist[op as usize][bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
    }

    /// Zeroes every counter and histogram (the `stats reset` command and
    /// benchmark phase boundaries).
    pub fn reset(&self) {
        for s in &self.shards {
            s.reset();
        }
    }

    fn sum_counter(&self, c: Counter) -> u64 {
        self.shards
            .iter()
            .map(|s| s.counters[c as usize].load(Ordering::Relaxed))
            .sum()
    }

    /// Point-in-time [`Snapshot`] of every field, summed across shards.
    pub fn snapshot(&self) -> Snapshot {
        let mut snap = Snapshot::new();
        for op in Op::ALL {
            let i = op as usize;
            let count: u64 = self
                .shards
                .iter()
                .map(|s| s.op_count[i].load(Ordering::Relaxed))
                .sum();
            let samples: u64 = self
                .shards
                .iter()
                .map(|s| s.op_samples[i].load(Ordering::Relaxed))
                .sum();
            let sum_ns: u64 = self
                .shards
                .iter()
                .map(|s| s.op_sum_ns[i].load(Ordering::Relaxed))
                .sum();
            let max_ns: u64 = self
                .shards
                .iter()
                .map(|s| s.op_max_ns[i].load(Ordering::Relaxed))
                .max()
                .unwrap_or(0);
            let mut hist = [0u64; N_BUCKETS];
            for s in &self.shards {
                for (b, slot) in hist.iter_mut().enumerate() {
                    *slot += s.hist[i][b].load(Ordering::Relaxed);
                }
            }
            let name = op.name();
            snap.push(format!("{name}_ops"), count);
            snap.push(format!("{name}_lat_samples"), samples);
            snap.push(
                format!("{name}_avg_ns"),
                sum_ns.checked_div(samples).unwrap_or(0),
            );
            snap.push(format!("{name}_p50_ns"), percentile(&hist, samples, 50));
            snap.push(format!("{name}_p99_ns"), percentile(&hist, samples, 99));
            snap.push(format!("{name}_max_ns"), max_ns);
        }
        for c in Counter::ALL {
            snap.push(c.name(), self.sum_counter(c));
        }
        snap
    }
}

/// Percentile from a log₂ histogram: the upper bound of the bucket the rank
/// falls in (a ≤2× overestimate, stable and monotone).
fn percentile(hist: &[u64; N_BUCKETS], total: u64, p: u64) -> u64 {
    if total == 0 {
        return 0;
    }
    let rank = (total * p).div_ceil(100).max(1);
    let mut cum = 0u64;
    for (i, &c) in hist.iter().enumerate() {
        cum += c;
        if cum >= rank {
            return bucket_upper_ns(i);
        }
    }
    bucket_upper_ns(N_BUCKETS - 1)
}

/// RAII latency timer returned by [`Metrics::time_op`]; records the sample
/// on drop. Compiles to a zero-sized no-op without the `metrics` feature.
pub struct OpTimer<'a> {
    #[cfg(feature = "metrics")]
    metrics: &'a Metrics,
    #[cfg(feature = "metrics")]
    op: Op,
    #[cfg(feature = "metrics")]
    start: Option<Instant>,
    #[cfg(not(feature = "metrics"))]
    _marker: std::marker::PhantomData<&'a Metrics>,
}

impl Drop for OpTimer<'_> {
    fn drop(&mut self) {
        #[cfg(feature = "metrics")]
        if let Some(start) = self.start {
            self.metrics
                .record_sample(self.op, start.elapsed().as_nanos() as u64);
        }
    }
}

/// A point-in-time, ordered list of `(field, value)` metric pairs with
/// stable field names.
///
/// Produced by [`Metrics::snapshot`]; extended with lower-layer counters via
/// [`Snapshot::with_pool`] / [`Snapshot::with_htm`]; rendered as `key=value`
/// lines (`Display`), a flat JSON object ([`Snapshot::to_json`]), or
/// memcached `STAT` lines by the kvcache server.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    fields: Vec<(String, u64)>,
}

impl Snapshot {
    /// An empty snapshot.
    pub fn new() -> Snapshot {
        Snapshot { fields: Vec::new() }
    }

    /// Appends a field.
    pub fn push(&mut self, name: impl Into<String>, value: u64) {
        self.fields.push((name.into(), value));
    }

    /// Looks a field up by name.
    pub fn get(&self, name: &str) -> Option<u64> {
        self.fields.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// All fields in emission order.
    pub fn fields(&self) -> &[(String, u64)] {
        &self.fields
    }

    /// Merges `other` in, summing values for fields both sides carry and
    /// appending the rest. Summing keeps counter semantics when combining
    /// registries from different layers (e.g. a cache's command counters
    /// with its tree's op counters) and keeps field names unique, so
    /// [`Snapshot::to_json`] never emits duplicate keys. Derived latency
    /// fields (`*_avg_ns`, percentiles) only stay meaningful when at most
    /// one side recorded that op, which holds for layered registries.
    pub fn merge(&mut self, other: Snapshot) {
        for (name, value) in other.fields {
            match self.fields.iter_mut().find(|(n, _)| *n == name) {
                Some((_, v)) => *v += value,
                None => self.fields.push((name, value)),
            }
        }
    }

    /// Absorbs the pool's [`fptree_pmem::PoolStats`] counters as `pmem_*`
    /// fields — the persistence layer's view, unified into this registry's
    /// snapshot.
    pub fn with_pool(mut self, pool: &PmemPool) -> Snapshot {
        let p = pool.stats().snapshot();
        for (name, v) in [
            ("pmem_flushed_lines", p.flushed_lines),
            ("pmem_persist_calls", p.persist_calls),
            ("pmem_fences", p.fences),
            ("pmem_read_lines", p.read_lines),
            ("pmem_allocs", p.allocs),
            ("pmem_deallocs", p.deallocs),
            ("pmem_bytes_live", p.bytes_live),
            ("pmem_bump_high_water", p.bump_high_water),
            ("pmem_checker_ops", p.checker_ops),
            ("pmem_checker_events", p.checker_events),
            ("pmem_checker_violations", p.checker_violations),
            ("pmem_checker_missing_flush", p.checker_missing_flush),
            (
                "pmem_checker_unordered_publish",
                p.checker_unordered_publish,
            ),
            ("pmem_checker_torn_publish", p.checker_torn_publish),
            (
                "pmem_checker_unpublished_multi_word",
                p.checker_unpublished_multi_word,
            ),
            (
                "pmem_checker_redundant_flushes",
                p.checker_redundant_flushes,
            ),
            (
                "pmem_checker_unwritten_flushes",
                p.checker_unwritten_flushes,
            ),
        ] {
            self.push(name, v);
        }
        self
    }

    /// Absorbs the speculative lock's `(attempts, aborts, fallbacks,
    /// writes)` statistics as `htm_*` fields (HTM-fallback takes included).
    pub fn with_htm(mut self, stats: (u64, u64, u64, u64)) -> Snapshot {
        let (attempts, aborts, fallbacks, writes) = stats;
        self.push("htm_attempts", attempts);
        self.push("htm_aborts", aborts);
        self.push("htm_fallbacks", fallbacks);
        self.push("htm_writes", writes);
        self
    }

    /// Renders the snapshot as one flat JSON object (hand-rolled: the
    /// offline build carries no serde). Field names are plain identifiers,
    /// so no escaping is needed.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value)) in self.fields.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            out.push_str(name);
            out.push_str("\":");
            out.push_str(&value.to_string());
        }
        out.push('}');
        out
    }
}

impl fmt::Display for Snapshot {
    /// `key=value` lines, one per field, in emission order.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, value) in &self.fields {
            writeln!(f, "{name}={value}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_names_are_unique_and_ordered() {
        let names: Vec<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
        let mut dedup = names.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), N_COUNTERS);
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(*c as usize, i, "ALL must be discriminant-ordered");
        }
        for (i, op) in Op::ALL.iter().enumerate() {
            assert_eq!(*op as usize, i);
        }
    }

    #[test]
    fn counters_accumulate_and_reset() {
        let m = Metrics::new();
        m.inc(Counter::LeafSplits);
        m.add(Counter::BytesRead, 41);
        m.inc(Counter::BytesRead);
        let s = m.snapshot();
        if Metrics::enabled() {
            assert_eq!(s.get("leaf_splits"), Some(1));
            assert_eq!(s.get("bytes_read"), Some(42));
        } else {
            assert_eq!(s.get("leaf_splits"), Some(0));
        }
        m.reset();
        assert_eq!(m.snapshot().get("bytes_read"), Some(0));
    }

    #[test]
    fn op_timer_counts_and_samples() {
        let m = Metrics::new();
        for _ in 0..100 {
            let _t = m.time_op(Op::Get);
        }
        let s = m.snapshot();
        if Metrics::enabled() {
            assert_eq!(s.get("get_ops"), Some(100));
            let samples = s.get("get_lat_samples").unwrap();
            assert!(
                (1..=100).contains(&samples),
                "expected sampled latencies, got {samples}"
            );
        } else {
            assert_eq!(s.get("get_ops"), Some(0));
        }
    }

    #[test]
    fn histogram_percentiles() {
        let m = Metrics::new();
        // 99 fast ops at ~100ns, one slow op at ~1ms.
        for _ in 0..99 {
            m.record_op_ns(Op::Insert, 100);
        }
        m.record_op_ns(Op::Insert, 1_000_000);
        let s = m.snapshot();
        if Metrics::enabled() {
            assert_eq!(s.get("insert_ops"), Some(100));
            assert_eq!(s.get("insert_lat_samples"), Some(100));
            assert_eq!(s.get("insert_max_ns"), Some(1_000_000));
            // 100ns falls in bucket [64, 128): p50 reports 128.
            assert_eq!(s.get("insert_p50_ns"), Some(128));
            // p99 still lands in the fast bucket (rank 99 of 100).
            assert_eq!(s.get("insert_p99_ns"), Some(128));
            let avg = s.get("insert_avg_ns").unwrap();
            assert!((10_000..=11_000).contains(&avg), "avg {avg}");
        }
    }

    #[test]
    fn snapshot_json_is_one_flat_object_in_emission_order() {
        let mut s = Snapshot::new();
        assert_eq!(s.to_json(), "{}");
        s.push("a", 1);
        s = s.with_htm((10, 2, 1, 7));
        assert_eq!(
            s.to_json(),
            r#"{"a":1,"htm_attempts":10,"htm_aborts":2,"htm_fallbacks":1,"htm_writes":7}"#
        );
        // Every registry field renders, none twice.
        let json = Metrics::new().snapshot().to_json();
        for c in Counter::ALL {
            assert_eq!(json.matches(&format!("\"{}\":", c.name())).count(), 1);
        }
    }

    #[test]
    fn snapshot_display_is_key_value_lines() {
        let mut s = Snapshot::new();
        s.push("a", 1);
        s.push("b", 2);
        assert_eq!(s.to_string(), "a=1\nb=2\n");
    }

    #[test]
    fn buckets_cover_u64() {
        assert_eq!(bucket_upper_ns(0), 2);
        assert_eq!(bucket_upper_ns(N_BUCKETS - 1), 1 << N_BUCKETS);
        #[cfg(feature = "metrics")]
        {
            assert_eq!(bucket_of(0), 0);
            assert_eq!(bucket_of(1), 0);
            assert_eq!(bucket_of(2), 1);
            assert_eq!(bucket_of(1023), 9);
            assert_eq!(bucket_of(u64::MAX), N_BUCKETS - 1);
        }
    }
}
