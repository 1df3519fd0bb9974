//! Range-scan latency: both FPTree variants against the STX and wBTree
//! baselines across range lengths (a repo table; the paper reports none).
//!
//! Each tree is warmed, then timed over `scan_from(start, len)` at start
//! keys spread over the key range. FPTree gathers each unsorted leaf
//! through the bitmap and sorts it; sorted-leaf trees pay no per-leaf sort,
//! which is the trade-off this table quantifies. A last row pits the
//! concurrent FPTree's scans against update threads, exercising the
//! hand-over-hand hop path; its metrics show the contention it absorbed
//! (`scan_hop_retries`, `scan_reseeks`).

use std::sync::atomic::{AtomicBool, Ordering};

use fptree_core::U64Index;

use crate::{key_sets, pool_mb, timed, Index, Report, Row, Scale, TreeKind};

const LATENCY_NS: u64 = 90;
const RANGE_LENS: [usize; 3] = [10, 100, 1000];
const TREES: [TreeKind; 4] = [
    TreeKind::FPTree,
    TreeKind::FPTreeC,
    TreeKind::Stx,
    TreeKind::WBTree,
];
/// Update threads racing the concurrent FPTree's scans in the last row.
const WRITERS: usize = 2;

/// Range-scan target.
pub fn scan(s: Scale) -> Vec<Report> {
    let n = s.pick(50_000, 2_000);
    let (keys, _) = key_sets(n, 1);
    let mut sorted = keys.clone();
    sorted.sort_unstable();
    let mut report = Report::new(
        "fig_scan",
        &format!("Range scan avg µs/scan vs range length, {n} keys @{LATENCY_NS}ns"),
    );
    let rows = TREES.map(|kind| (kind, 0)).into_iter();
    for (kind, writers) in rows.chain([(TreeKind::FPTreeC, WRITERS)]) {
        let t = <dyn U64Index>::build(kind, pool_mb(n), LATENCY_NS);
        t.fill(&keys);
        let label = match writers {
            0 => kind.name().to_string(),
            w => format!("{} +{w} writers", kind.name()),
        };
        let index: &dyn U64Index = &*t;
        let stop = AtomicBool::new(false);
        let row = std::thread::scope(|scope| {
            for w in 0..writers {
                let (stop, keys) = (&stop, &keys);
                // Values change in place, so every scan still sees every
                // key, but each update locks a leaf and bumps its version.
                scope.spawn(move || {
                    let mut i = w;
                    while !stop.load(Ordering::Relaxed) {
                        index.update(keys[i % n], i as u64);
                        i += writers;
                    }
                });
            }
            let mut row = Row::new(label.as_str());
            for len in RANGE_LENS {
                let scans = (2_000 / len).max(8);
                let stride = (n - len) / scans;
                let (produced, us) = timed(|| {
                    (0..scans)
                        .map(|i| {
                            index
                                .scan_from(sorted[i * stride], len)
                                .expect("ordered")
                                .len()
                        })
                        .sum::<usize>()
                });
                assert_eq!(produced, scans * len, "{label}: short scans");
                row = row.field(&format!("len{len}_us"), us / scans as f64);
            }
            stop.store(true, Ordering::Relaxed);
            row
        });
        report.push(row.with_metrics(t.snapshot()));
    }
    vec![report]
}
