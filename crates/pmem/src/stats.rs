//! Volatile instrumentation counters for a pool.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Per-thread copies of the traffic counters.
const TRAFFIC_SHARDS: usize = 16;

/// The four counters every pool access bumps (`touch_read`, `persist`,
/// `fence`), one copy per thread shard on cache lines of its own. With a
/// single copy, two threads sharing a pool bounce that line between their
/// cores on every access; parallel recovery pays it a dozen times per leaf.
#[derive(Debug, Default)]
#[repr(align(128))]
pub(crate) struct Traffic {
    /// Cache lines written back to SCM by `persist` calls.
    pub flushed_lines: AtomicU64,
    /// Calls to `persist` (each models fence + flush(es) + fence).
    pub persist_calls: AtomicU64,
    /// Explicit memory fences.
    pub fences: AtomicU64,
    /// Cache lines charged with SCM read latency via `touch_read`.
    pub read_lines: AtomicU64,
}

thread_local! {
    /// This thread's traffic shard, handed out round-robin.
    static SHARD: usize = {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        NEXT.fetch_add(1, Ordering::Relaxed) % TRAFFIC_SHARDS
    };
}

/// Counters describing the persistence traffic of a pool.
///
/// All counters are volatile (they do not survive a restart) and updated with
/// relaxed atomics, so they are cheap enough to leave enabled in benchmarks.
/// Read them through [`PoolStats::snapshot`], which sums the per-thread
/// traffic shards.
#[derive(Debug, Default)]
pub struct PoolStats {
    traffic: [Traffic; TRAFFIC_SHARDS],
    /// Successful persistent allocations.
    pub allocs: AtomicU64,
    /// Successful persistent deallocations.
    pub deallocs: AtomicU64,
    /// Net bytes currently allocated (user sizes, excluding block headers).
    pub bytes_live: AtomicU64,
    /// High-water mark of the bump cursor (total SCM footprint).
    pub bump_high_water: AtomicU64,
    /// Checked operations analyzed by the durability checker.
    pub checker_ops: AtomicU64,
    /// Trace events recorded by the durability checker.
    pub checker_events: AtomicU64,
    /// Durability-protocol violations found by the checker.
    pub checker_violations: AtomicU64,
    /// Checker violations from the missing-flush detector.
    pub checker_missing_flush: AtomicU64,
    /// Checker violations from the unordered-publish detector.
    pub checker_unordered_publish: AtomicU64,
    /// Checker violations from the torn-publish detector.
    pub checker_torn_publish: AtomicU64,
    /// Checker violations from the unpublished-multi-word detector.
    pub checker_unpublished_multi_word: AtomicU64,
    /// Checker warning: flushes of lines with nothing unflushed on them.
    pub checker_redundant_flushes: AtomicU64,
    /// Checker warning: flushes of lines never written to.
    pub checker_unwritten_flushes: AtomicU64,
}

impl PoolStats {
    #[inline]
    pub(crate) fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn sub(counter: &AtomicU64, n: u64) {
        counter.fetch_sub(n, Ordering::Relaxed);
    }

    /// The calling thread's copy of the traffic counters (shard 0 while the
    /// thread's locals are being torn down).
    #[inline]
    pub(crate) fn traffic(&self) -> &Traffic {
        &self.traffic[SHARD.try_with(|s| *s).unwrap_or(0)]
    }

    /// Snapshot of all counters as plain integers.
    pub fn snapshot(&self) -> StatsSnapshot {
        let traffic = |counter: fn(&Traffic) -> &AtomicU64| -> u64 {
            self.traffic
                .iter()
                .map(|t| counter(t).load(Ordering::Relaxed))
                .sum()
        };
        StatsSnapshot {
            flushed_lines: traffic(|t| &t.flushed_lines),
            persist_calls: traffic(|t| &t.persist_calls),
            fences: traffic(|t| &t.fences),
            read_lines: traffic(|t| &t.read_lines),
            allocs: self.allocs.load(Ordering::Relaxed),
            deallocs: self.deallocs.load(Ordering::Relaxed),
            bytes_live: self.bytes_live.load(Ordering::Relaxed),
            bump_high_water: self.bump_high_water.load(Ordering::Relaxed),
            checker_ops: self.checker_ops.load(Ordering::Relaxed),
            checker_events: self.checker_events.load(Ordering::Relaxed),
            checker_violations: self.checker_violations.load(Ordering::Relaxed),
            checker_missing_flush: self.checker_missing_flush.load(Ordering::Relaxed),
            checker_unordered_publish: self.checker_unordered_publish.load(Ordering::Relaxed),
            checker_torn_publish: self.checker_torn_publish.load(Ordering::Relaxed),
            checker_unpublished_multi_word: self
                .checker_unpublished_multi_word
                .load(Ordering::Relaxed),
            checker_redundant_flushes: self.checker_redundant_flushes.load(Ordering::Relaxed),
            checker_unwritten_flushes: self.checker_unwritten_flushes.load(Ordering::Relaxed),
        }
    }

    /// Resets every counter to zero (between benchmark phases).
    pub fn reset(&self) {
        for t in &self.traffic {
            t.flushed_lines.store(0, Ordering::Relaxed);
            t.persist_calls.store(0, Ordering::Relaxed);
            t.fences.store(0, Ordering::Relaxed);
            t.read_lines.store(0, Ordering::Relaxed);
        }
        self.allocs.store(0, Ordering::Relaxed);
        self.deallocs.store(0, Ordering::Relaxed);
        self.checker_ops.store(0, Ordering::Relaxed);
        self.checker_events.store(0, Ordering::Relaxed);
        self.checker_violations.store(0, Ordering::Relaxed);
        self.checker_missing_flush.store(0, Ordering::Relaxed);
        self.checker_unordered_publish.store(0, Ordering::Relaxed);
        self.checker_torn_publish.store(0, Ordering::Relaxed);
        self.checker_unpublished_multi_word
            .store(0, Ordering::Relaxed);
        self.checker_redundant_flushes.store(0, Ordering::Relaxed);
        self.checker_unwritten_flushes.store(0, Ordering::Relaxed);
        // bytes_live / bump_high_water track state, not traffic: keep them.
    }
}

/// Plain-integer snapshot of [`PoolStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Cache lines written back to SCM by `persist` calls.
    pub flushed_lines: u64,
    /// Calls to `persist`.
    pub persist_calls: u64,
    /// Explicit memory fences.
    pub fences: u64,
    /// Cache lines charged with SCM read latency.
    pub read_lines: u64,
    /// Successful persistent allocations.
    pub allocs: u64,
    /// Successful persistent deallocations.
    pub deallocs: u64,
    /// Net bytes currently allocated.
    pub bytes_live: u64,
    /// High-water mark of the bump cursor.
    pub bump_high_water: u64,
    /// Checked operations analyzed by the durability checker.
    pub checker_ops: u64,
    /// Trace events recorded by the durability checker.
    pub checker_events: u64,
    /// Durability-protocol violations found by the checker.
    pub checker_violations: u64,
    /// Checker violations from the missing-flush detector.
    pub checker_missing_flush: u64,
    /// Checker violations from the unordered-publish detector.
    pub checker_unordered_publish: u64,
    /// Checker violations from the torn-publish detector.
    pub checker_torn_publish: u64,
    /// Checker violations from the unpublished-multi-word detector.
    pub checker_unpublished_multi_word: u64,
    /// Checker warning: flushes of clean lines.
    pub checker_redundant_flushes: u64,
    /// Checker warning: flushes of never-written lines.
    pub checker_unwritten_flushes: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reset_clears_traffic_but_not_state() {
        let s = PoolStats::default();
        PoolStats::add(&s.traffic().flushed_lines, 5);
        PoolStats::add(&s.bytes_live, 100);
        s.reset();
        let snap = s.snapshot();
        assert_eq!(snap.flushed_lines, 0);
        assert_eq!(snap.bytes_live, 100);
    }

    #[test]
    fn traffic_from_many_threads_sums_exactly() {
        let s = PoolStats::default();
        std::thread::scope(|scope| {
            // More threads than shards: some share one, none loses a count.
            for t in 0..2 * TRAFFIC_SHARDS as u64 {
                let s = &s;
                scope.spawn(move || {
                    for _ in 0..1000 {
                        PoolStats::add(&s.traffic().read_lines, t + 1);
                        PoolStats::add(&s.traffic().persist_calls, 1);
                    }
                });
            }
        });
        let snap = s.snapshot();
        let n = 2 * TRAFFIC_SHARDS as u64;
        assert_eq!(snap.read_lines, 1000 * n * (n + 1) / 2);
        assert_eq!(snap.persist_calls, 1000 * n);
        s.reset();
        assert_eq!(s.snapshot().read_lines, 0);
    }
}
