//! Figure 8: DRAM and SCM consumption per tree (paper: 100 M key-values at
//! ~70 % leaf fill), fixed and variable keys.
//!
//! The headline claims under test: the FPTree keeps < 3 % of its data in
//! DRAM; the NV-Tree consumes an order of magnitude more DRAM and
//! noticeably more SCM (padded, flagged entries); the wBTree uses no DRAM.
//!
//! `scm_mb` is what each tree requested; `scm_charged_mb` is what the
//! allocator charged for it (size-class rounding and block headers
//! included, read from the pool's bump high-water mark), and `b_per_key`
//! is that charge per key. The leaf-group report breaks the FPTree
//! presets' charge down: one allocator block (`block_b`) per group of
//! `leaves` leaves, `b_per_leaf` in a full group, and `fill_pct`, the
//! share of the block the group requested.

use std::sync::Arc;

use fptree_core::{BytesIndex, KeyKind, LeafLayout, SingleTree, TreeConfig, U64Index};
use fptree_core::{FixedKey, VarKey};
use fptree_pmem::{usable_size, PmemPool, PoolOptions, BLOCK_HEADER_SIZE, ROOT_SLOT, USER_BASE};

use crate::{pool_mb, Index, Report, Row, Scale, TreeKind};

/// Figure 8 target.
pub fn fig8(s: Scale) -> Vec<Report> {
    let n = s.pick(200_000, 2_000);
    vec![
        memory::<dyn U64Index>(n),
        memory::<dyn BytesIndex>(n),
        leaf_groups(),
    ]
}

fn mb(bytes: u64) -> f64 {
    bytes as f64 / (1 << 20) as f64
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
        let charged = t
            .pool()
            .map_or(0, |p| p.stats().snapshot().bump_high_water - USER_BASE);
        report.push(
            Row::new(kind.name())
                .field("scm_mb", mb(scm))
                .field("scm_charged_mb", mb(charged))
                .field("b_per_key", charged as f64 / n as f64)
                .field("dram_mb", mb(dram))
                .field("dram_pct", dram as f64 / (scm + dram).max(1) as f64 * 100.0)
                .with_metrics(t.snapshot()),
        );
    }
    report
}

/// The grouped presets' leaf groups: leaves per group as created, and what
/// the allocator charges per group block and per leaf in a full group.
fn leaf_groups() -> Report {
    let mut report = Report::new(
        "fig8_leaf_groups",
        "Figure 8: leaf groups of the single-threaded presets",
    );
    let presets = [
        ("FPTree fixed", TreeConfig::fptree(), false),
        ("PTree fixed", TreeConfig::ptree(), false),
        ("FPTree var", TreeConfig::fptree_var(), true),
        ("PTree var", TreeConfig::ptree_var(), true),
    ];
    for (label, cfg, var) in presets {
        let row = if var {
            group_row::<VarKey>(label, cfg)
        } else {
            group_row::<FixedKey>(label, cfg)
        };
        report.push(row);
    }
    report
}

fn group_row<K: KeyKind>(label: &str, preset: TreeConfig) -> Row {
    let pool = Arc::new(PmemPool::create(PoolOptions::direct(1 << 20)).unwrap());
    let g = SingleTree::<K>::create(pool, preset, ROOT_SLOT)
        .config()
        .leaf_group_size;
    let leaf = LeafLayout::new(&preset, K::SLOT_SIZE).size;
    let requested = 64 + g * leaf;
    let block = BLOCK_HEADER_SIZE as usize + usable_size(requested).unwrap();
    Row::new(label)
        .field("leaf_b", leaf as f64)
        .field("leaves", g as f64)
        .field("block_b", block as f64)
        .field("b_per_leaf", block as f64 / g as f64)
        .field("fill_pct", requested as f64 / block as f64 * 100.0)
}
