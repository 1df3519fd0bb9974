//! The FPTree paper's evaluation (§6 and Appendix A), figure by figure.
//!
//! `fptree-figures <target> [--smoke] [--out DIR]` regenerates one paper
//! table or figure per target (DESIGN.md §4 has the index) into
//! `DIR/<target>.txt` and `DIR/<target>.jsonl`. Each figure is one function
//! in [`figures`] with the paper's parameters as constants; `--smoke` only
//! shrinks key, request and transaction counts. This library holds what the
//! figures share: every evaluated tree behind one [`Index`] trait, the one
//! timing [`kernel`], pools, keys, and result emission.

pub mod figures;
pub mod keys;
pub mod mcbench;
pub mod report;
pub mod trees;

use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use fptree_pmem::{LatencyProfile, PmemPool, PoolOptions};

pub use keys::{key_sets, shuffled_keys, string_key};
pub use report::{Report, Row};
pub use trees::{kernel, reopen, u64_tree, BenchTree, Index, Key, Op, TreeKind};

/// Shard counts of the keyspace-sharding tables in Figures 9, 12 and 13.
pub const SHARDS: [usize; 3] = [1, 2, 4];

/// Size of a run: the paper-shaped default, or `--smoke` for CI and tests.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// True for `--smoke`.
    pub smoke: bool,
}

impl Scale {
    /// `full` normally, `smoke` under `--smoke`.
    pub fn pick(self, full: usize, smoke: usize) -> usize {
        if self.smoke {
            smoke
        } else {
            full
        }
    }
}

/// A figure: its reports at a scale.
pub type Figure = fn(Scale) -> Vec<Report>;

/// Every target of `fptree-figures`, in the order `all` runs them.
pub const TARGETS: [(&str, Figure); 11] = [
    ("table1", figures::table1::table1),
    ("fig4", figures::fig4::fig4),
    ("fig7", figures::fig7::fig7),
    ("fig7r", figures::fig7::fig7r),
    ("fig8", figures::fig8::fig8),
    ("fig9", figures::fig9::fig9),
    ("fig12", figures::fig12::fig12),
    ("fig13", figures::fig13::fig13),
    ("fig14", figures::fig14::fig14),
    ("scan", figures::scan::scan),
    ("overhead", figures::overhead::overhead),
];

/// What every output file is stamped with: the commit and the host.
#[derive(Debug, Clone)]
pub struct Stamp {
    /// `git describe --always --dirty=+` of the checkout this crate was
    /// built from ("+" marks uncommitted changes), or "unknown".
    pub commit: String,
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
}

impl Stamp {
    /// The stamp of the source checkout and this host.
    pub fn here() -> Stamp {
        let commit = std::process::Command::new("git")
            .args(["-C", env!("CARGO_MANIFEST_DIR")])
            .args(["describe", "--always", "--dirty=+"])
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into());
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        Stamp { commit, nproc }
    }
}

/// Runs one target and writes `out/<name>.txt` and `out/<name>.jsonl`,
/// replacing an earlier run's files. The first line of each is the stamp.
pub fn run_target(
    name: &str,
    figure: Figure,
    scale: Scale,
    stamp: &Stamp,
    out: &Path,
) -> io::Result<Vec<Report>> {
    let reports = figure(scale);
    std::fs::create_dir_all(out)?;
    let Stamp { commit, nproc } = stamp;
    let mut txt = format!(
        "# fptree-figures {name}{} @ {commit}, nproc {nproc}\n",
        if scale.smoke { " --smoke" } else { "" }
    );
    let mut jsonl = format!(
        "{{\"stamp\":\"fptree-figures {name}\",\"commit\":{},\"nproc\":{nproc},\"smoke\":{}}}\n",
        report::json_str(commit),
        scale.smoke
    );
    for r in &reports {
        txt.push_str(&r.render());
        jsonl.push_str(&r.to_jsonl());
    }
    std::fs::write(out.join(format!("{name}.txt")), txt)?;
    std::fs::write(out.join(format!("{name}.jsonl")), jsonl)?;
    Ok(reports)
}

/// Options of a direct-mode pool of `mb` MiB emulating `latency_ns` total
/// SCM latency (90 ns injects none).
pub fn pool_options(mb: usize, latency_ns: u64) -> PoolOptions {
    PoolOptions::direct(mb << 20).with_latency(LatencyProfile::from_total(latency_ns))
}

/// A fresh pool: see [`pool_options`].
pub fn pool(mb: usize, latency_ns: u64) -> Arc<PmemPool> {
    Arc::new(PmemPool::create(pool_options(mb, latency_ns)).expect("pool creation"))
}

/// Reopens a pool image at `latency_ns`, running allocator recovery.
pub fn reopen_pool(image: Vec<u8>, latency_ns: u64) -> Arc<PmemPool> {
    Arc::new(PmemPool::reopen(image, pool_options(0, latency_ns)).expect("reopen"))
}

/// MiB for a pool that holds `keys` keys of any tree: 1 KiB per key plus
/// 16 MiB. The hungriest tree, the NV-Tree with string keys, advances the
/// allocator by ~380 B per key (Figure 8). Direct pools are zeroed lazily,
/// so headroom costs memory only where a pool image is copied.
pub fn pool_mb(keys: usize) -> usize {
    (keys >> 10) + 16
}

/// Runs `f(i)` for every `i < total` on `threads` threads and returns
/// elapsed microseconds. Threads claim one index at a time from a shared
/// counter, so concurrent threads interleave over the index sequence. One
/// thread runs inline.
pub fn drive(threads: usize, total: usize, f: impl Fn(usize) + Sync) -> f64 {
    let start = Instant::now();
    if threads == 1 {
        (0..total).for_each(f);
    } else {
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= total {
                        break;
                    }
                    f(i);
                });
            }
        });
    }
    start.elapsed().as_secs_f64() * 1e6
}

/// Runs `f` and returns its result and elapsed microseconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let t = f();
    (t, start.elapsed().as_secs_f64() * 1e6)
}
