//! Metrics overhead: point lookups on a warmed single-threaded FPTree,
//! ns/op, best of five passes. Run it under both feature builds and compare
//! the two rows (`metrics_on` / `metrics_off`):
//!
//! ```sh
//! cargo run --release -p fptree-bench -- overhead --out /tmp/on
//! cargo run --release -p fptree-bench --no-default-features -- overhead --out /tmp/off
//! ```
//!
//! The claim under test: the sharded atomic counters plus 1-in-8 latency
//! sampling cost < 2 % on the hottest read path.

use fptree_core::{FixedKey, Metrics, SingleTree, TreeConfig};
use fptree_pmem::ROOT_SLOT;

use crate::{key_sets, pool, pool_mb, timed, Report, Row, Scale};

const ROUNDS: usize = 5;

/// Metrics-overhead target.
pub fn overhead(s: Scale) -> Vec<Report> {
    let n = s.pick(200_000, 2_000);
    let (keys, _) = key_sets(n, 7);
    let pool = pool(pool_mb(n), 90);
    let mut t = SingleTree::<FixedKey>::create(pool, TreeConfig::fptree(), ROOT_SLOT);
    for &k in &keys {
        t.insert(&k, k);
    }
    let pass = |t: &SingleTree<FixedKey>| {
        timed(|| {
            for k in &keys {
                std::hint::black_box(t.get(k));
            }
        })
        .1
    };
    pass(&t); // warm-up
    let best_us = (0..ROUNDS).map(|_| pass(&t)).fold(f64::INFINITY, f64::min);
    let label = if Metrics::enabled() {
        "metrics_on"
    } else {
        "metrics_off"
    };
    let mut report = Report::new(
        "metrics_overhead",
        &format!("Point lookup ns/op, {n} keys, best of {ROUNDS}"),
    );
    report.push(
        Row::new(label)
            .field("point_lookup_ns", best_us * 1e3 / n as f64)
            .with_metrics(Some(t.metrics_snapshot())),
    );
    vec![report]
}
