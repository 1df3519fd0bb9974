//! Table 1: node-size tuning — "a preliminary experiment to determine the
//! best node sizes for every tree". Sweeps leaf and inner sizes per tree on
//! a warm + find + insert mix and reports the best pair next to the
//! paper's choice.

use fptree_pmem::ROOT_SLOT;

use crate::{key_sets, pool_mb, timed, u64_tree, Index, Report, Row, Scale, TreeKind};

const LATENCY_NS: u64 = 250;

/// Tree, leaf sizes, inner sizes, and the paper's `(leaf, inner)` choice.
type Sweep = (TreeKind, &'static [usize], &'static [usize], (usize, usize));

const GRID: [Sweep; 5] = [
    (
        TreeKind::FPTree,
        &[16, 32, 56, 64],
        &[64, 512, 4096],
        (56, 4096),
    ),
    (TreeKind::PTree, &[16, 32, 64], &[64, 512, 4096], (32, 4096)),
    (TreeKind::NVTree, &[16, 32, 64], &[32, 128, 512], (32, 128)),
    (TreeKind::WBTree, &[16, 32, 64], &[8, 16, 32, 64], (64, 32)),
    (
        TreeKind::Stx,
        &[8, 16, 64, 256],
        &[8, 16, 64, 256],
        (16, 16),
    ),
];

/// Table 1 target.
pub fn table1(s: Scale) -> Vec<Report> {
    let n = s.pick(20_000, 1_000);
    // Time finding every warm key, then inserting a fifth as many more.
    let (keys, mut extra) = key_sets(n, 31);
    extra.truncate(n / 5);
    let mut report = Report::new(
        "table1_node_sizes",
        &format!("Table 1: best (leaf, inner) by mixed Mops/s @{LATENCY_NS}ns, {n} keys"),
    );
    for (kind, leaves, inners, paper) in GRID {
        let mut best = (0.0, 0, 0);
        for &leaf in leaves {
            for &inner in inners {
                let pool = kind.pool(pool_mb(n), LATENCY_NS);
                let t = u64_tree(kind, pool, ROOT_SLOT, Some((leaf, inner)), 8);
                t.fill(&keys);
                let us = timed(|| {
                    for &k in &keys {
                        assert!(t.get(k).is_some(), "warm keys must all be found");
                    }
                    for &k in &extra {
                        t.insert(k, k);
                    }
                })
                .1;
                let mops = (keys.len() + extra.len()) as f64 / us;
                if mops > best.0 {
                    best = (mops, leaf, inner);
                }
            }
        }
        report.push(
            Row::new(kind.name())
                .field("best_leaf", best.1 as f64)
                .field("best_inner", best.2 as f64)
                .field("paper_leaf", paper.0 as f64)
                .field("paper_inner", paper.1 as f64)
                .field("mops", best.0),
        );
    }
    vec![report]
}
