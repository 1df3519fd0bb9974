//! Figure 8: DRAM and SCM consumption per tree (paper: 100 M key-values at
//! ~70% leaf fill; scaled by --scale).
//!
//! The headline claims under test: the FPTree keeps <3% of its data in
//! DRAM; the NV-Tree consumes an order of magnitude more DRAM and
//! noticeably more SCM (padded, flagged entries); the wBTree uses no DRAM.

use fptree_bench::{
    build_bytes, build_u64, shuffled_keys, string_key, Args, Report, Row, TreeKind,
};

fn main() {
    let args = Args::parse();
    let scale: usize = args.get("scale", 200_000);
    let want_metrics = args.flag("metrics");
    let out = args.get_str("out");
    let keys = shuffled_keys(scale, 8);
    let pool_mb = (scale * 6000 / (1 << 20) + 256).next_power_of_two();

    let mut report = Report::new(
        "fig8_memory",
        &format!("Figure 8a: memory at {scale} fixed keys"),
    );
    for kind in TreeKind::fig7_set() {
        let t = build_u64(kind, pool_mb, 90, 8);
        for &k in &keys {
            t.insert(k, k);
        }
        let (scm, dram) = t.memory();
        let frac = dram as f64 / (scm + dram).max(1) as f64 * 100.0;
        let mut row = Row::new(kind.name())
            .field("scm_mb", scm as f64 / (1 << 20) as f64)
            .field("dram_mb", dram as f64 / (1 << 20) as f64)
            .field("dram_pct", frac);
        if want_metrics {
            let snap = t.metrics_snapshot();
            fptree_bench::print_metrics(kind.name(), snap.as_ref());
            row = row.with_metrics(snap);
        }
        report.push(row);
    }
    report.emit(out);

    let mut report = Report::new(
        "fig8_memory_var",
        &format!("Figure 8b: memory at {scale} var keys"),
    );
    for kind in TreeKind::fig7_set() {
        let t = build_bytes(kind, pool_mb * 2, 90);
        for &k in &keys {
            t.insert(&string_key(k), k);
        }
        let (scm, dram) = t.memory();
        let frac = dram as f64 / (scm + dram).max(1) as f64 * 100.0;
        let mut row = Row::new(kind.name())
            .field("scm_mb", scm as f64 / (1 << 20) as f64)
            .field("dram_mb", dram as f64 / (1 << 20) as f64)
            .field("dram_pct", frac);
        if want_metrics {
            let snap = t.metrics_snapshot();
            fptree_bench::print_metrics(kind.name(), snap.as_ref());
            row = row.with_metrics(snap);
        }
        report.push(row);
    }
    report.emit(out);
}
