//! Benchmark harness: shared infrastructure for regenerating every table
//! and figure of the FPTree paper's evaluation.
//!
//! Each `src/bin/*` binary reproduces one experiment (see DESIGN.md §4 for
//! the index). This library provides the pieces they share: every evaluated
//! tree behind the index traits ([`build_u64`], [`build_bytes`]), keyset
//! generation, a simple CLI parser, latency sweeps, and result emission
//! (human table + JSON lines).

pub mod args;
pub mod keys;
pub mod report;
pub mod trees;

pub use args::Args;
pub use keys::{shuffled_keys, string_key};
pub use report::{Report, Row};
pub use trees::{build_bytes, build_u64, BenchTree, TreeKind};

/// Paper SCM latency axis (ns): ext4-DAX DRAM point plus emulated points.
pub const LATENCIES_NS: [u64; 4] = [90, 250, 450, 650];

/// Prints a pool's persistence-traffic and durability-checker counters to
/// stderr (the `--verbose` diagnostic of the figure binaries).
///
/// Checker counters are live only when the pool's durability checker is on
/// (see [`enable_pool_checker`]); they read zero otherwise.
pub fn print_pool_counters(label: &str, pool: Option<&std::sync::Arc<fptree_pmem::PmemPool>>) {
    let Some(pool) = pool else {
        eprintln!("  [{label}] no persistent pool (DRAM-only tree)");
        return;
    };
    let s = pool.stats().snapshot();
    eprintln!(
        "  [{label}] persists: {} calls / {} lines, {} fences, {} SCM lines read",
        s.persist_calls, s.flushed_lines, s.fences, s.read_lines
    );
    eprintln!(
        "  [{label}] checker: {} ops, {} events, {} violations, \
         {} redundant + {} unwritten-line flushes",
        s.checker_ops,
        s.checker_events,
        s.checker_violations,
        s.checker_redundant_flushes,
        s.checker_unwritten_flushes
    );
    if s.checker_violations > 0 {
        eprintln!("{}", pool.durability_report().render());
    }
}

/// Turns on the durability checker for a tree's backing pool (if any), so a
/// `--verbose` run reports real checker counters instead of zeros.
pub fn enable_pool_checker(pool: Option<&std::sync::Arc<fptree_pmem::PmemPool>>) {
    if let Some(pool) = pool {
        pool.enable_durability_checker();
    }
}

/// Prints a tree's metrics snapshot to stderr (the `--metrics` diagnostic of
/// the figure binaries). The same snapshot should also be attached to the
/// result row with [`Row::with_metrics`] so `--out` JSON embeds it.
pub fn print_metrics(label: &str, snap: Option<&fptree_core::Snapshot>) {
    match snap {
        Some(s) => eprintln!("  [{label}] metrics:\n{s}"),
        None => eprintln!("  [{label}] metrics: not instrumented"),
    }
}
