//! Figure 8: DRAM and SCM consumption per tree (paper: 100 M key-values at
//! ~70 % leaf fill), fixed and variable keys.
//!
//! The headline claims under test: the FPTree keeps < 3 % of its data in
//! DRAM; the NV-Tree consumes an order of magnitude more DRAM and
//! noticeably more SCM (padded, flagged entries); the wBTree uses no DRAM.

use fptree_core::{BytesIndex, U64Index};

use crate::{pool_mb, Index, Report, Row, Scale, TreeKind};

/// Figure 8 target.
pub fn fig8(s: Scale) -> Vec<Report> {
    let n = s.pick(200_000, 2_000);
    vec![memory::<dyn U64Index>(n), memory::<dyn BytesIndex>(n)]
}

fn memory<I: Index + ?Sized>(n: usize) -> Report {
    let (keys, _) = I::keys(n, 8);
    let mut report = Report::new(
        &format!("fig8_memory_{}", I::KEYS),
        &format!("Figure 8: memory at {n} {} keys", I::KEYS),
    );
    for kind in TreeKind::FIG7 {
        let t = I::build(kind, pool_mb(n), 90);
        t.fill(&keys);
        let (scm, dram) = t.memory();
        let mb = |b: u64| b as f64 / (1 << 20) as f64;
        report.push(
            Row::new(kind.name())
                .field("scm_mb", mb(scm))
                .field("dram_mb", mb(dram))
                .field("dram_pct", dram as f64 / (scm + dram).max(1) as f64 * 100.0)
                .with_metrics(t.snapshot()),
        );
    }
    report
}
