//! Tree configuration: node sizes and feature toggles.
//!
//! The paper tunes node sizes per tree (Table 1) and evaluates payload-size
//! sensitivity (Appendix A), so leaf layout must be runtime-parameterized.
//! Feature toggles express the design-principle ablations: the PTree is the
//! FPTree minus fingerprints (plus split key/value arrays for scan locality),
//! and leaf-group amortization is used by the single-threaded FPTree only
//! (§5: groups are a central synchronization point and hinder scalability).

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
    /// grouping (required for the concurrent version). A new single-threaded
    /// tree raises it to fill the allocator block such a group lands in and
    /// persists that; its `config()` reports the size in use.
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
