//! Range-scan latency: both FPTree variants against the STX and wBTree
//! baselines across range lengths.
//!
//! Each tree is warmed with `--scale` shuffled keys, then timed over
//! `scan_from(start, len)` calls at rotating start keys for each range
//! length. FPTree gathers each unsorted leaf through the bitmap and sorts
//! it into a stack buffer; sorted-leaf trees (STX, wBTree) pay no per-leaf
//! sort, which is exactly the trade-off this figure quantifies.
//!
//! `--writers N` pits the concurrent FPTree's scans against N update
//! threads, exercising the hand-over-hand hop path; `--metrics` then shows
//! the contention it absorbed (`scan_hop_retries`, `scan_reseeks`) both on
//! stderr and embedded in the `--out` JSON.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use fptree_bench::{build_u64, print_metrics, shuffled_keys, Args, Report, Row, TreeKind};

/// Range lengths measured (keys per scan).
const RANGE_LENS: [usize; 3] = [10, 100, 1000];

fn main() {
    let args = Args::parse();
    let scale: usize = args.get("scale", 50_000);
    let latency: u64 = args.get("latency", 90);
    let writers: usize = args.get("writers", 0);
    let want_metrics = args.flag("metrics");
    let out = args.get_str("out");

    let kinds = [
        TreeKind::FPTree,
        TreeKind::FPTreeC,
        TreeKind::Stx,
        TreeKind::WBTree,
    ];

    let pool_mb = (scale * 4000 / (1 << 20) + 128).next_power_of_two();
    let warm = shuffled_keys(scale, 1);

    let mut report = Report::new(
        "fig_scan",
        &format!(
            "Range scan avg µs/scan vs range length \
             (scale {scale}, {latency} ns SCM, {writers} writers)"
        ),
    );

    for kind in kinds {
        let t = build_u64(kind, pool_mb, latency, 8);
        for &k in &warm {
            t.insert(k, k);
        }
        let mut row = Row::new(kind.name());
        // Concurrent update threads (FPTreeC only): they rewrite values in
        // place, so scans still see every key, but each update locks a leaf
        // and bumps its version — the scan's hop validation must retry.
        let stop = AtomicBool::new(false);
        row = std::thread::scope(|s| {
            if kind == TreeKind::FPTreeC {
                for w in 0..writers {
                    // The index itself is Sync; the handle around it is not.
                    let (stop, t) = (&stop, &*t);
                    s.spawn(move || {
                        let mut i = w as u64;
                        while !stop.load(Ordering::Relaxed) {
                            t.update(i % scale as u64, i);
                            i = i.wrapping_add(writers as u64);
                        }
                    });
                }
            }
            for len in RANGE_LENS {
                // Rotate starts through the key space; keys are 0..scale so a
                // start leaves at least `len` successors when small enough.
                let scans = (2_000 / len).max(8);
                let stride = (scale.saturating_sub(len)).max(1) / scans;
                let mut produced = 0usize;
                let elapsed = time(|| {
                    for i in 0..scans {
                        let start = (i * stride) as u64;
                        let got = t.scan_from(start, len).expect("ordered index");
                        produced += std::hint::black_box(got).len();
                    }
                });
                assert!(
                    produced >= scans * len.min(scale / 2),
                    "{} produced {produced} entries over {scans} scans of {len}",
                    kind.name()
                );
                row = row.field(&format!("len{len}"), elapsed / scans as f64);
            }
            stop.store(true, Ordering::Relaxed);
            row
        });
        if want_metrics {
            let snap = t.metrics_snapshot();
            print_metrics(kind.name(), snap.as_ref());
            row = row.with_metrics(snap);
        }
        report.push(row);
        eprintln!("{} done", kind.name());
    }
    report.emit(out);
}

/// Runs `f` and returns elapsed microseconds.
fn time(f: impl FnOnce()) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_secs_f64() * 1e6
}
