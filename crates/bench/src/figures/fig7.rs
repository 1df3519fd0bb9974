//! Figure 7: single-threaded base operations and recovery, fixed and
//! variable keys.
//!
//! `fig7` (a–d, g–j): Find/Insert/Update/Delete average latency across SCM
//! latencies, the paper's headline speedups (§1: FPTree vs each competitor
//! at 90 and 650 ns), and the repo's batched-ingest table. Paper setup:
//! warm 50 M key-values, then 50 M of each operation back-to-back.
//!
//! `fig7r` (e–f, k–l): recovery time vs tree size at 90 and 650 ns, plus
//! the repo's recovery worker sweep. Persistent trees recover by replaying
//! micro-logs and rebuilding DRAM inner nodes from the leaves; the
//! transient STXTree must be fully rebuilt (the paper's "full rebuild").

use fptree_core::{BytesIndex, U64Index};
use fptree_pmem::ROOT_SLOT;

use crate::trees::Reopened;
use crate::{
    kernel, pool_mb, reopen, reopen_pool, timed, Index, Key, Op, Report, Row, Scale, TreeKind,
};

/// The paper's SCM latency axis (ns): the ext4-DAX DRAM point plus the
/// emulated points.
const LATENCIES_NS: [u64; 4] = [90, 250, 450, 650];

const OP_FIELDS: [&str; 4] = ["find_us", "insert_us", "update_us", "delete_us"];

/// The latencies of the headline speedups, of the recovery plots and of
/// the batched-ingest table.
const EXTREMES: [u64; 2] = [90, 650];

/// Keys per commit in the batched-ingest table: one, and a leaf's worth.
const BATCHES: [usize; 2] = [1, 64];

/// Recovery worker counts of the worker sweep.
const WORKERS: [usize; 3] = [1, 2, 4];

/// Figure 7 (a–d, g–j) target.
pub fn fig7(s: Scale) -> Vec<Report> {
    let mut out = ops::<dyn U64Index>(s.pick(50_000, 1_000));
    out.extend(ops::<dyn BytesIndex>(s.pick(30_000, 600)));
    out
}

/// Figure 7 (e–f, k–l) target.
pub fn fig7r(s: Scale) -> Vec<Report> {
    let mut out = recovery::<dyn U64Index>(sizes(s, 200_000));
    out.extend(recovery::<dyn BytesIndex>(sizes(s, 100_000)));
    out
}

fn ops<I: Index + ?Sized>(n: usize) -> Vec<Report> {
    let (warm, extra) = I::keys(n, 1);
    let mut times = Report::new(
        &format!("fig7_ops_{}", I::KEYS),
        &format!("Figure 7 a–d, g–j: avg µs/op, {n} {} keys", I::KEYS),
    );
    for latency in LATENCIES_NS {
        for kind in TreeKind::FIG7 {
            let t = I::build(kind, pool_mb(2 * n), latency);
            t.fill(&warm);
            let label = format!("{} @{latency}ns", kind.name());
            times.push(four_ops(&*t, &warm, &extra, label));
        }
    }

    let mut speedups = Report::new(
        &format!("fig7_speedups_{}", I::KEYS),
        "Headline speedups: competitor µs / FPTree µs",
    );
    for latency in EXTREMES {
        let fp = times
            .row(&format!("FPTree @{latency}ns"))
            .expect("measured");
        for kind in &TreeKind::FIG7[1..] {
            let label = format!("{} @{latency}ns", kind.name());
            let other = times.row(&label).expect("measured");
            let row = OP_FIELDS.iter().fold(Row::new(label.as_str()), |r, f| {
                r.field(f, other.get(f).expect("field") / fp.get(f).expect("field"))
            });
            speedups.push(row);
        }
    }
    vec![times, speedups, batched::<I>(&warm)]
}

/// Single-threaded µs per Find, Insert, Update and Delete of the warm tree
/// `t` (see [`kernel`]) as a row, with the tree's metrics.
pub(crate) fn four_ops<I: Index + ?Sized>(
    t: &I,
    warm: &[Key<I>],
    extra: &[Key<I>],
    label: String,
) -> Row {
    let ops = [Op::Find, Op::Insert, Op::Update, Op::Delete];
    let us = kernel(t, warm, extra, 1, &ops);
    let row = OP_FIELDS
        .iter()
        .zip(us)
        .fold(Row::new(label), |r, (f, v)| r.field(f, v));
    row.with_metrics(t.snapshot())
}

/// Batched ingest and teardown: each tree inserts the warm set in runs of
/// each of [`BATCHES`] keys via `insert_batch`, then removes it via
/// `remove_batch`. Persist counts are deltas of non-destructive pool
/// snapshots around each timed phase. A batched commit stages many slots
/// per leaf behind one flush span and one p-atomic bitmap publish.
fn batched<I: Index + ?Sized>(warm: &[Key<I>]) -> Report {
    // Key order: the bulk-load scenario batching targets. A run of
    // consecutive keys lands in few leaves, so the per-leaf commit is
    // shared; the same stream in runs of one pays a commit per key.
    let mut keys = warm.to_vec();
    keys.sort_unstable();
    let entries: Vec<(Key<I>, u64)> = keys.iter().cloned().zip(0..).collect();
    let n = keys.len() as f64;
    let mut report = Report::new(
        &format!("fig7_batch_{}", I::KEYS),
        &format!(
            "Batched ingest of {} sorted {} keys: µs and pmem persists per key",
            keys.len(),
            I::KEYS
        ),
    );
    for latency in EXTREMES {
        for kind in TreeKind::FIG7 {
            for batch in BATCHES {
                let t = I::build(kind, pool_mb(keys.len()), latency);
                let p0 = t.persists();
                let insert_us = timed(|| entries.chunks(batch).for_each(|c| t.ingest(c))).1;
                let p1 = t.persists();
                let remove_us = timed(|| keys.chunks(batch).for_each(|c| t.drain(c))).1;
                let p2 = t.persists();
                report.push(
                    Row::new(format!("{} @{latency}ns b{batch}", kind.name()))
                        .field("batch", batch as f64)
                        .field("insert_us", insert_us / n)
                        .field("remove_us", remove_us / n)
                        .field("persists_per_key", (p1 - p0) as f64 / n)
                        .field("remove_persists_per_key", (p2 - p1) as f64 / n)
                        .with_metrics(t.snapshot()),
                );
            }
        }
    }
    report
}

/// Tree-size ladder: a hundredth, a tenth and all of `largest` keys (a
/// hundredth of each under `--smoke`).
fn sizes(s: Scale, largest: usize) -> [usize; 3] {
    [largest / 100, largest / 10, largest].map(|n| s.pick(n, n / 100))
}

fn recovery<I: Index + ?Sized>(sizes: [usize; 3]) -> Vec<Report> {
    let mut times = Report::new(
        &format!("fig7_recovery_{}", I::KEYS),
        &format!(
            "Figure 7 e–f, k–l: recovery ms vs tree size, {} keys (STXTree: full rebuild)",
            I::KEYS
        ),
    );
    for latency in EXTREMES {
        for n in sizes {
            let (keys, _) = I::keys(n, 3);
            let row = TreeKind::FIG7
                .iter()
                .fold(Row::new(format!("{n} keys @{latency}ns")), |r, &kind| {
                    r.field(kind.name(), restart::<I>(kind, &keys, latency, 0).0)
                });
            times.push(row);
        }
    }

    let n = sizes[2];
    let (keys, _) = I::keys(n, 3);
    let mut workers = Report::new(
        &format!("fig7_recovery_workers_{}", I::KEYS),
        &format!("Recovery worker sweep: ms per phase, {n} keys @90ns"),
    );
    for kind in [TreeKind::FPTree, TreeKind::PTree] {
        for threads in WORKERS {
            let (ms, r) = restart::<I>(kind, &keys, 90, threads);
            let r = r.expect("persistent");
            let phases = r.stats.expect("the FPTree family reports recovery phases");
            workers.push(
                Row::new(format!("{} t{threads}", kind.name()))
                    .field("total_ms", ms)
                    .field("replay_ms", phases.replay_us as f64 / 1e3)
                    .field("harvest_ms", phases.harvest_us as f64 / 1e3)
                    .field("audit_ms", phases.audit_us as f64 / 1e3)
                    .field("build_ms", phases.build_us as f64 / 1e3)
                    .with_metrics(r.metrics),
            );
        }
    }
    vec![times, workers]
}

/// Builds a `kind` tree over `keys` and times its restart in ms: recovery
/// from a clean image with `threads` workers for a persistent tree,
/// re-inserting every key for a transient one.
fn restart<I: Index + ?Sized>(
    kind: TreeKind,
    keys: &[Key<I>],
    latency: u64,
    threads: usize,
) -> (f64, Option<Reopened>) {
    let t = I::build(kind, pool_mb(keys.len()), latency);
    let Some(pool) = t.pool() else {
        return (timed(|| t.fill(keys)).1 / 1e3, None);
    };
    t.fill(keys);
    let pool = reopen_pool(pool.clean_image(), latency);
    drop(t);
    let (r, us) = timed(|| reopen::<I::K>(kind, pool, ROOT_SLOT, threads, None));
    assert_eq!(r.len, keys.len(), "{} lost keys in recovery", kind.name());
    (us / 1e3, Some(r))
}
