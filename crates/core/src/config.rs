//! Tree configuration: node sizes and feature toggles, plus the worker
//! budget of recovery and [`par_map`], the library's one fan-out.
//!
//! The paper tunes node sizes per tree (Table 1) and evaluates payload-size
//! sensitivity (Appendix A), so leaf layout must be runtime-parameterized.
//! Feature toggles express the design-principle ablations: the PTree is the
//! FPTree minus fingerprints (plus split key/value arrays for scan locality),
//! and leaf-group amortization is used by the single-threaded presets only
//! (§5: groups are a central synchronization point and hinder scalability).

use std::sync::atomic::{AtomicUsize, Ordering};

/// Maximum number of entries per leaf: the validity bitmap must fit in one
/// 8-byte word so it can be committed p-atomically.
pub const MAX_LEAF_CAPACITY: usize = 64;

/// Default worker count for the parallel recovery pipeline: the machine's
/// available parallelism, or 1 if it cannot be determined. Recovery work is
/// dominated by leaf audits (pure per-leaf reads plus occasional slot
/// resets), which scale with cores up to SCM bandwidth.
pub fn default_recovery_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Maps `f` over `items` on `min(threads, items.len()).max(1)` scoped
/// workers and returns the results in item order.
///
/// Workers claim items one at a time, so items of unequal cost balance
/// across them. A single worker runs inline on the calling thread and
/// starts none. A worker's panic is re-raised on the caller with its own
/// payload, so an injected crash (`fptree_pmem::CrashPanic`) reaches the
/// caller unchanged. This is the library's one fan-out: recovery, the
/// index build and sharded `open` go through it, and no request path
/// starts a thread.
pub fn par_map<T: Sync, R: Send>(
    items: &[T],
    threads: usize,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let workers = threads.min(items.len()).max(1);
    if workers == 1 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let (f, next) = (&f, &next);
    let mut out: Vec<Option<R>> = items.iter().map(|_| None).collect();
    // analyzer:allow(thread-start) — the one fan-out helper; every other
    // library fan-out calls it.
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(move || {
                    let mut done = Vec::new();
                    loop {
                        // The counter publishes no data: results reach the
                        // caller through `join`.
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else {
                            return done;
                        };
                        done.push((i, f(item)));
                    }
                })
            })
            .collect();
        for h in handles {
            match h.join() {
                Ok(done) => done.into_iter().for_each(|(i, r)| out[i] = Some(r)),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    // Every index below `items.len()` was claimed exactly once.
    out.into_iter().flatten().collect()
}

/// Configuration of a persistent tree instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TreeConfig {
    /// Entries per leaf node (m). Paper default: 56 for the FPTree with
    /// fixed-size keys (bitmap + 56 fingerprints fill the first cache line).
    pub leaf_capacity: usize,
    /// Maximum children per inner node. Paper default: 4096 single-threaded,
    /// 128 concurrent (large nodes raise TSX conflict probability).
    pub inner_fanout: usize,
    /// Bytes reserved per value in the leaf; the logical value is a u64, the
    /// remainder models larger payloads (Appendix A sweeps 8–112 bytes).
    pub value_size: usize,
    /// Store one-byte key fingerprints in the leaf head (the FPTree's
    /// headline technique). Off reproduces the PTree.
    pub fingerprints: bool,
    /// Keys and values in separate in-leaf arrays (PTree layout: better
    /// locality for linear key scans without fingerprints).
    pub split_arrays: bool,
    /// Leaves per amortized allocation group, at least; 0 or 1 disables
    /// grouping (the concurrent presets do). A new tree raises it to fill
    /// the allocator block such a group lands in and persists that; its
    /// `config()` reports the size in use.
    pub leaf_group_size: usize,
    /// Entries in the per-leaf persistent append buffer (W). Single-key
    /// inserts/updates append `(tag, key, value)` here with one persist and
    /// fold into regular slots only on overflow or split; 0 disables
    /// buffering (every write takes the slot/fingerprint/bitmap path).
    pub wbuf_entries: usize,
}

impl TreeConfig {
    /// Paper's single-threaded FPTree configuration (fixed-size keys).
    pub fn fptree() -> Self {
        TreeConfig {
            leaf_capacity: 56,
            inner_fanout: 4096,
            value_size: 8,
            fingerprints: true,
            split_arrays: false,
            leaf_group_size: 16,
            wbuf_entries: 8,
        }
    }

    /// Paper's concurrent FPTree configuration (fixed-size keys): smaller
    /// inner nodes, no leaf groups.
    pub fn fptree_concurrent() -> Self {
        TreeConfig {
            leaf_capacity: 64,
            inner_fanout: 128,
            value_size: 8,
            fingerprints: true,
            split_arrays: false,
            leaf_group_size: 0,
            wbuf_entries: 8,
        }
    }

    /// Paper's PTree: selective persistence + unsorted leaves only, split
    /// key/value arrays, no fingerprints.
    pub fn ptree() -> Self {
        TreeConfig {
            leaf_capacity: 32,
            inner_fanout: 4096,
            value_size: 8,
            fingerprints: false,
            split_arrays: true,
            leaf_group_size: 16,
            wbuf_entries: 0,
        }
    }

    /// Variable-size-key FPTree (paper: inner 2048, leaf 56).
    pub fn fptree_var() -> Self {
        TreeConfig {
            inner_fanout: 2048,
            ..Self::fptree()
        }
    }

    /// Variable-size-key concurrent FPTree (paper: inner 64, leaf 64).
    pub fn fptree_concurrent_var() -> Self {
        TreeConfig {
            inner_fanout: 64,
            ..Self::fptree_concurrent()
        }
    }

    /// Variable-size-key PTree (paper: inner 256, leaf 32).
    pub fn ptree_var() -> Self {
        TreeConfig {
            inner_fanout: 256,
            ..Self::ptree()
        }
    }

    /// Sets the leaf capacity.
    pub fn with_leaf_capacity(mut self, m: usize) -> Self {
        self.leaf_capacity = m;
        self
    }

    /// Sets the inner fanout.
    pub fn with_inner_fanout(mut self, f: usize) -> Self {
        self.inner_fanout = f;
        self
    }

    /// Sets the value (payload) size in bytes.
    pub fn with_value_size(mut self, v: usize) -> Self {
        self.value_size = v;
        self
    }

    /// Sets the minimum leaf group size (0 disables grouping).
    pub fn with_leaf_group_size(mut self, g: usize) -> Self {
        self.leaf_group_size = g;
        self
    }

    /// Sets the per-leaf append-buffer capacity (0 disables buffering).
    pub fn with_wbuf_entries(mut self, w: usize) -> Self {
        self.wbuf_entries = w;
        self
    }

    /// Validates invariants, returning the violation message instead of
    /// panicking (the `try_create` error path).
    pub fn try_validate(&self) -> Result<(), String> {
        if !(1..=MAX_LEAF_CAPACITY).contains(&self.leaf_capacity) {
            return Err(format!(
                "leaf capacity must be in 1..=64 (single-word p-atomic bitmap), got {}",
                self.leaf_capacity
            ));
        }
        if self.inner_fanout < 3 {
            return Err("inner fanout must be at least 3".to_string());
        }
        if self.value_size < 8 {
            return Err("value size must hold a u64".to_string());
        }
        if !self.value_size.is_multiple_of(8) {
            return Err("value size must be 8-byte aligned".to_string());
        }
        if self.wbuf_entries > MAX_LEAF_CAPACITY {
            return Err(format!(
                "write buffer must hold at most {MAX_LEAF_CAPACITY} entries, got {}",
                self.wbuf_entries
            ));
        }
        Ok(())
    }

    /// Validates invariants; panics with a descriptive message on misuse.
    pub fn validate(&self) {
        if let Err(e) = self.try_validate() {
            panic!("{e}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_returns_results_in_item_order() {
        let items: Vec<u64> = (0..64).collect();
        for threads in [0, 1, 2, 3, 8] {
            let out = par_map(&items, threads, |&i| {
                // Uneven cost, so workers finish out of item order.
                std::thread::sleep(std::time::Duration::from_micros((i * 37) % 200));
                i * 2
            });
            assert_eq!(out, items.iter().map(|i| i * 2).collect::<Vec<_>>());
        }
        assert!(par_map(&[] as &[u64], 4, |&i| i).is_empty());
    }

    #[test]
    fn one_worker_runs_inline_on_the_caller() {
        let caller = std::thread::current().id();
        let on_caller = |_: &u8| std::thread::current().id() == caller;
        assert!(par_map(&[1u8, 2, 3], 1, on_caller).into_iter().all(|b| b));
        assert!(par_map(&[1u8], 4, on_caller).into_iter().all(|b| b));
        assert!(par_map(&[1u8, 2], 0, on_caller).into_iter().all(|b| b));
        assert!(!par_map(&[1u8, 2], 2, on_caller).into_iter().any(|b| b));
    }

    #[test]
    fn a_worker_panic_reaches_the_caller_with_its_payload() {
        #[derive(Debug, PartialEq)]
        struct Marker(u32);
        let items: Vec<u32> = (0..8).collect();
        let r = std::panic::catch_unwind(|| {
            par_map(&items, 3, |&i| {
                if i == 5 {
                    std::panic::panic_any(Marker(i));
                }
                i
            })
        });
        let payload = r.expect_err("the panic must propagate");
        assert_eq!(payload.downcast_ref::<Marker>(), Some(&Marker(5)));
    }

    #[test]
    fn no_more_than_threads_closures_run_at_once() {
        let running = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let items: Vec<usize> = (0..24).collect();
        for threads in [1, 2, 3] {
            peak.store(0, Ordering::SeqCst);
            par_map(&items, threads, |_| {
                let now = running.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                std::thread::sleep(std::time::Duration::from_millis(1));
                running.fetch_sub(1, Ordering::SeqCst);
            });
            let seen = peak.load(Ordering::SeqCst);
            assert!(
                (1..=threads).contains(&seen),
                "{seen} closures at once on {threads} workers"
            );
        }
    }

    #[test]
    fn presets_match_paper_table1() {
        let fp = TreeConfig::fptree();
        assert_eq!((fp.leaf_capacity, fp.inner_fanout), (56, 4096));
        assert!(fp.fingerprints && !fp.split_arrays);
        let fpc = TreeConfig::fptree_concurrent();
        assert_eq!((fpc.leaf_capacity, fpc.inner_fanout), (64, 128));
        assert_eq!(fpc.leaf_group_size, 0);
        let pt = TreeConfig::ptree();
        assert!(!pt.fingerprints && pt.split_arrays);
        assert_eq!(pt.leaf_capacity, 32);
    }

    #[test]
    fn validate_accepts_presets() {
        for cfg in [
            TreeConfig::fptree(),
            TreeConfig::fptree_concurrent(),
            TreeConfig::ptree(),
            TreeConfig::fptree_var(),
            TreeConfig::fptree_concurrent_var(),
            TreeConfig::ptree_var(),
        ] {
            cfg.validate();
        }
    }

    #[test]
    #[should_panic(expected = "leaf capacity")]
    fn validate_rejects_oversized_leaf() {
        TreeConfig::fptree().with_leaf_capacity(65).validate();
    }

    #[test]
    #[should_panic(expected = "value size")]
    fn validate_rejects_tiny_value() {
        TreeConfig::fptree().with_value_size(4).validate();
    }

    #[test]
    fn write_buffer_defaults_per_preset() {
        // FPTree presets buffer single-key writes; the PTree reproduces the
        // plain slot path and must stay buffer-free.
        assert_eq!(TreeConfig::fptree().wbuf_entries, 8);
        assert_eq!(TreeConfig::fptree_concurrent().wbuf_entries, 8);
        assert_eq!(TreeConfig::fptree_var().wbuf_entries, 8);
        assert_eq!(TreeConfig::ptree().wbuf_entries, 0);
        assert_eq!(TreeConfig::ptree_var().wbuf_entries, 0);
    }

    #[test]
    #[should_panic(expected = "write buffer")]
    fn validate_rejects_oversized_wbuf() {
        TreeConfig::fptree().with_wbuf_entries(65).validate();
    }
}
