//! Figure 7 (a–d, g–j): single-threaded Find/Insert/Update/Delete average
//! latency across SCM latencies, fixed and variable keys; plus the paper's
//! headline speedup summary (§1: FPTree vs competitors at 90 and 650 ns).
//!
//! Paper setup: warm 50 M key-values, then 50 M of each operation
//! back-to-back. Scaled by `--scale` (default 50 k); shape, not absolute
//! numbers, is the claim under test.

use std::time::Instant;

use fptree_bench::{
    build_bytes, build_u64, shuffled_keys, string_key, Args, Report, Row, TreeKind, LATENCIES_NS,
};
use fptree_pmem::StatsSnapshot;

fn main() {
    let args = Args::parse();
    let scale: usize = args.get("scale", 50_000);
    let var_keys = args.get_str("keys") == Some("var");
    let verbose = args.flag("verbose");
    let want_metrics = args.flag("metrics");
    let batch: usize = args.get("batch", 0);
    let out = args.get_str("out");
    let latencies: Vec<u64> = args
        .get_str("latencies")
        .map(|s| s.split(',').filter_map(|x| x.parse().ok()).collect())
        .unwrap_or_else(|| LATENCIES_NS.to_vec());

    let pool_mb = (scale * 4000 / (1 << 20) + 128).next_power_of_two();
    let warm = shuffled_keys(scale, 1);
    let extra = shuffled_keys(scale, 2);

    if batch > 0 {
        run_batch_mode(
            batch,
            scale,
            var_keys,
            pool_mb,
            &latencies,
            &warm,
            verbose,
            want_metrics,
            out,
        );
        return;
    }

    let mut per_op: Vec<Report> = ["Find", "Insert", "Update", "Delete"]
        .iter()
        .map(|op| {
            Report::new(
                "fig7_base_ops",
                &format!(
                    "Figure 7 {}: {op} avg µs/op vs SCM latency (scale {scale})",
                    if var_keys {
                        "g–j (var keys)"
                    } else {
                        "a–d (fixed keys)"
                    }
                ),
            )
        })
        .collect();

    // (tree, latency) -> [find, insert, update, delete] µs
    let mut results: Vec<(TreeKind, u64, [f64; 4])> = Vec::new();

    for &latency in &latencies {
        for kind in TreeKind::fig7_set() {
            let timings = if var_keys {
                run_var(kind, pool_mb, latency, &warm, &extra, verbose, want_metrics)
            } else {
                run_fixed(kind, pool_mb, latency, &warm, &extra, verbose, want_metrics)
            };
            results.push((kind, latency, timings));
            eprintln!(
                "{} @{latency}ns: find {:.2} insert {:.2} update {:.2} delete {:.2} µs",
                kind.name(),
                timings[0],
                timings[1],
                timings[2],
                timings[3]
            );
        }
    }

    for (op_idx, report) in per_op.iter_mut().enumerate() {
        for kind in TreeKind::fig7_set() {
            let mut row = Row::new(kind.name());
            for &latency in &latencies {
                let t = results
                    .iter()
                    .find(|(k, l, _)| *k == kind && *l == latency)
                    .expect("measured");
                row = row.field(&format!("{latency}ns"), t.2[op_idx]);
            }
            report.push(row);
        }
        report.emit(out);
    }

    // Headline speedups: FPTree vs each competitor at the extremes.
    let mut summary = Report::new(
        "fig7_speedups",
        "Headline speedups: competitor µs / FPTree µs (Find/Insert/Update/Delete)",
    );
    for &latency in [latencies.first(), latencies.last()].into_iter().flatten() {
        let fp = results
            .iter()
            .find(|(k, l, _)| *k == TreeKind::FPTree && *l == latency)
            .expect("fptree measured");
        for kind in [
            TreeKind::PTree,
            TreeKind::NVTree,
            TreeKind::WBTree,
            TreeKind::Stx,
        ] {
            let other = results
                .iter()
                .find(|(k, l, _)| *k == kind && *l == latency)
                .expect("measured");
            let mut row = Row::new(format!("{} @{latency}ns", kind.name()));
            for (i, op) in ["find", "insert", "update", "delete"].iter().enumerate() {
                row = row.field(op, other.2[i] / fp.2[i]);
            }
            summary.push(row);
        }
    }
    summary.emit(out);
}

/// `--batch N` mode: batched ingest/teardown with amortized-persistence
/// accounting. Each tree inserts the warm set in runs of `batch` keys via
/// `insert_batch`, then removes them via `remove_batch`. Persist and fence
/// figures are **deltas of non-destructive snapshots taken around each
/// timed phase** — resetting the shared pool counters would destroy
/// anything accumulated before the phase and silently misattribute work —
/// so `pmem_persists`/`persists_per_key` isolate the ingest and
/// `remove_persists`/`remove_persists_per_key` isolate the teardown.
/// Batched commits stage many slots per leaf behind one flush-span + one
/// p-atomic bitmap publish, and at `--batch 1` the append buffer (§5.12)
/// commits each key with a single publish, so both ends beat the
/// pre-buffer per-key cost.
#[allow(clippy::too_many_arguments)]
fn run_batch_mode(
    batch: usize,
    scale: usize,
    var_keys: bool,
    pool_mb: usize,
    latencies: &[u64],
    warm: &[u64],
    verbose: bool,
    want_metrics: bool,
    out: Option<&str>,
) {
    let mut report = Report::new(
        "fig7_batch_ingest",
        &format!(
            "Batched ingest (batch {batch}, scale {scale}, {} keys): µs/key and pmem persists",
            if var_keys { "var" } else { "fixed" }
        ),
    );
    // Ingest in key order — the bulk-load scenario batching targets. A run
    // of consecutive keys lands in few leaves, so the per-leaf commit is
    // shared across many keys; the same sorted stream at `--batch 1` pays
    // a full commit per key, making the two runs directly comparable.
    let mut warm: Vec<u64> = warm.to_vec();
    warm.sort_unstable();
    let warm = &warm[..];
    for &latency in latencies {
        for kind in TreeKind::fig7_set() {
            let (insert_us, remove_us, ins, rem, snap) = if var_keys {
                let t = build_bytes(kind, pool_mb * 2, latency);
                if verbose {
                    fptree_bench::enable_pool_checker(t.pool());
                }
                let entries: Vec<(Vec<u8>, u64)> =
                    warm.iter().map(|&k| (string_key(k), k)).collect();
                let keys: Vec<Vec<u8>> = entries.iter().map(|(k, _)| k.clone()).collect();
                let before = t.pool().map(|p| p.stats().snapshot());
                let insert_us = time(|| {
                    for chunk in entries.chunks(batch) {
                        t.insert_batch(chunk);
                    }
                });
                let mid = t.pool().map(|p| p.stats().snapshot());
                let remove_us = time(|| {
                    for chunk in keys.chunks(batch) {
                        t.remove_batch(chunk);
                    }
                });
                let after = t.pool().map(|p| p.stats().snapshot());
                if verbose {
                    fptree_bench::print_pool_counters(
                        &format!("{} @{latency}ns", kind.name()),
                        t.pool(),
                    );
                }
                let ins = phase_delta(&before, &mid);
                let rem = phase_delta(&mid, &after);
                (insert_us, remove_us, ins, rem, t.metrics_snapshot())
            } else {
                let t = build_u64(kind, pool_mb, latency, 8);
                if verbose {
                    fptree_bench::enable_pool_checker(t.pool());
                }
                let entries: Vec<(u64, u64)> = warm.iter().map(|&k| (k, k)).collect();
                let before = t.pool().map(|p| p.stats().snapshot());
                let insert_us = time(|| {
                    for chunk in entries.chunks(batch) {
                        t.insert_batch(chunk);
                    }
                });
                let mid = t.pool().map(|p| p.stats().snapshot());
                let remove_us = time(|| {
                    for chunk in warm.chunks(batch) {
                        t.remove_batch(chunk);
                    }
                });
                let after = t.pool().map(|p| p.stats().snapshot());
                if verbose {
                    fptree_bench::print_pool_counters(
                        &format!("{} @{latency}ns", kind.name()),
                        t.pool(),
                    );
                }
                let ins = phase_delta(&before, &mid);
                let rem = phase_delta(&mid, &after);
                (insert_us, remove_us, ins, rem, t.metrics_snapshot())
            };
            let n = warm.len() as f64;
            let (persists, fences) = ins;
            let (rem_persists, rem_fences) = rem;
            eprintln!(
                "{} @{latency}ns batch {batch}: insert {:.2} remove {:.2} µs/key, \
                 insert {persists} persists ({:.2}/key) {fences} fences, \
                 remove {rem_persists} persists ({:.2}/key) {rem_fences} fences",
                kind.name(),
                insert_us / n,
                remove_us / n,
                persists as f64 / n,
                rem_persists as f64 / n,
            );
            let mut row = Row::new(format!("{} @{latency}ns", kind.name()))
                .field("batch", batch as f64)
                .field("insert_us", insert_us / n)
                .field("remove_us", remove_us / n)
                .field("pmem_persists", persists as f64)
                .field("pmem_fences", fences as f64)
                .field("persists_per_key", persists as f64 / n)
                .field("remove_persists", rem_persists as f64)
                .field("remove_fences", rem_fences as f64)
                .field("remove_persists_per_key", rem_persists as f64 / n);
            if want_metrics {
                if let Some(snap) = &snap {
                    fptree_bench::print_metrics(
                        &format!("{} @{latency}ns", kind.name()),
                        Some(snap),
                    );
                }
                row = row.with_metrics(snap);
            }
            report.push(row);
        }
    }
    report.emit(out);
}

fn run_fixed(
    kind: TreeKind,
    pool_mb: usize,
    latency: u64,
    warm: &[u64],
    extra: &[u64],
    verbose: bool,
    want_metrics: bool,
) -> [f64; 4] {
    let t = build_u64(kind, pool_mb, latency, 8);
    if verbose {
        fptree_bench::enable_pool_checker(t.pool());
    }
    for &k in warm {
        t.insert(k, k);
    }
    let n = warm.len() as f64;
    let find = time(|| {
        for &k in warm {
            std::hint::black_box(t.get(k));
        }
    });
    let insert = time(|| {
        for &k in extra {
            t.insert(k, k);
        }
    });
    let update = time(|| {
        for &k in warm {
            t.update(k, k + 1);
        }
    });
    let delete = time(|| {
        for &k in extra {
            t.remove(k);
        }
    });
    if verbose {
        fptree_bench::print_pool_counters(&format!("{} @{latency}ns", kind.name()), t.pool());
    }
    if want_metrics {
        let snap = t.metrics_snapshot();
        fptree_bench::print_metrics(&format!("{} @{latency}ns", kind.name()), snap.as_ref());
    }
    [find / n, insert / n, update / n, delete / n]
}

fn run_var(
    kind: TreeKind,
    pool_mb: usize,
    latency: u64,
    warm: &[u64],
    extra: &[u64],
    verbose: bool,
    want_metrics: bool,
) -> [f64; 4] {
    let t = build_bytes(kind, pool_mb * 2, latency);
    if verbose {
        fptree_bench::enable_pool_checker(t.pool());
    }
    let warm_keys: Vec<Vec<u8>> = warm.iter().map(|&k| string_key(k)).collect();
    let extra_keys: Vec<Vec<u8>> = extra.iter().map(|&k| string_key(k)).collect();
    for k in &warm_keys {
        t.insert(k, 1);
    }
    let n = warm.len() as f64;
    let find = time(|| {
        for k in &warm_keys {
            std::hint::black_box(t.get(k));
        }
    });
    let insert = time(|| {
        for k in &extra_keys {
            t.insert(k, 2);
        }
    });
    let update = time(|| {
        for k in &warm_keys {
            t.update(k, 3);
        }
    });
    let delete = time(|| {
        for k in &extra_keys {
            t.remove(k);
        }
    });
    if verbose {
        fptree_bench::print_pool_counters(&format!("{} @{latency}ns", kind.name()), t.pool());
    }
    if want_metrics {
        let snap = t.metrics_snapshot();
        fptree_bench::print_metrics(&format!("{} @{latency}ns", kind.name()), snap.as_ref());
    }
    [find / n, insert / n, update / n, delete / n]
}

/// `(persist_calls, fences)` accumulated between two non-destructive pool
/// snapshots; `(0, 0)` for trees without a pool (STX).
fn phase_delta(before: &Option<StatsSnapshot>, after: &Option<StatsSnapshot>) -> (u64, u64) {
    match (before, after) {
        (Some(b), Some(a)) => (a.persist_calls - b.persist_calls, a.fences - b.fences),
        _ => (0, 0),
    }
}

/// Runs `f` and returns elapsed microseconds.
fn time(f: impl FnOnce()) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_secs_f64() * 1e6
}
