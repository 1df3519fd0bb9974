//! The five workloads. Names are fixed: later issues cite them.

pub mod tatp_read_scm;
pub mod tree_common;
pub mod tree_get_dram;
pub mod tree_mixed_dram;
pub mod tree_write_scm;
pub mod wire_kv;

use crate::common::{Config, Counters, Metric, WorkloadResult};
use crate::section::{run_section, HasLog, SectionOut};
use crate::stats::{Pct, RoundCtx, SAMPLE_EVERY};
use crate::trace::Tracer;

/// A workload: its fixed name, the one-line reason it exists, its runner.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub run: fn(&Config, &mut Tracer) -> WorkloadResult,
}

pub const ALL: [Workload; 5] = [
    Workload {
        name: tree_get_dram::NAME,
        why: tree_get_dram::WHY,
        run: tree_get_dram::run,
    },
    Workload {
        name: tree_mixed_dram::NAME,
        why: tree_mixed_dram::WHY,
        run: tree_mixed_dram::run,
    },
    Workload {
        name: tree_write_scm::NAME,
        why: tree_write_scm::WHY,
        run: tree_write_scm::run,
    },
    Workload {
        name: tatp_read_scm::NAME,
        why: tatp_read_scm::WHY,
        run: tatp_read_scm::run,
    },
    Workload {
        name: wire_kv::NAME,
        why: wire_kv::WHY,
        run: wire_kv::run,
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    ALL.iter().find(|w| w.name == name)
}

/// Runs a workload's main section: sampled timing for `cfg.timed_secs()`,
/// and in a traced run the same clients again — op stream continued — with
/// every op timed, which yields the workload's own per-layer metrics.
/// Returns the untraced section; both sections' checks land in `res`.
pub fn timed_and_traced<C: Send + HasLog>(
    cfg: &Config,
    clients: &mut [C],
    step: impl Fn(&mut C, RoundCtx) -> u64 + Sync + Copy,
    counters: impl Fn() -> Counters + Copy,
    tracer: &mut Tracer,
    res: &mut WorkloadResult,
) -> SectionOut {
    let mut timed = run_section(
        "timed",
        clients,
        cfg.warmup_secs(),
        cfg.timed_secs(),
        SAMPLE_EVERY,
        step,
        counters,
        tracer,
    );
    timed.take_checks(&mut res.checks);
    if cfg.trace {
        let mut traced = run_section(
            "traced",
            clients,
            0.0,
            cfg.traced_secs(),
            1,
            step,
            counters,
            tracer,
        );
        traced.take_checks(&mut res.checks);
        res.per_layer = traced_layer_metrics(&TracedPair {
            untraced: &timed,
            traced: &traced,
            clients: clients.len(),
        });
    }
    timed
}

/// The untraced and traced sections of one traced run.
struct TracedPair<'a> {
    untraced: &'a SectionOut,
    traced: &'a SectionOut,
    clients: usize,
}

/// The per-layer metrics a traced workload run contributes itself (the
/// ladder supplies the rest): what timing every op cost, and the exported
/// counters per op of the traced section.
fn traced_layer_metrics(p: &TracedPair) -> Vec<Metric> {
    let ops = p.traced.tp.ops.max(1) as f64;
    let c = p.traced.counters;
    let per_op = |n: u64| n as f64 / ops;
    // 0 where the traced section issued no op of the kind.
    let p99 = |name: &str, (_, p): (Pct, Pct)| {
        let us = if p.samples == 0 { 0.0 } else { p.us };
        Metric::new(name, us, "us").samples(p.samples)
    };
    vec![
        Metric::new(
            "bench.trace_overhead_share",
            p.untraced.tp.median() / p.traced.tp.median() - 1.0,
            "share",
        )
        .spread(p.traced.tp.spread()),
        Metric::new(
            "workload.traced_ns_per_op",
            p.traced.tp.ns_per_op(p.clients),
            "ns",
        )
        .spread(p.traced.tp.spread())
        .samples(p.traced.tp.ops as usize),
        p99("workload.read_p99_us", p.traced.read_latency()),
        p99("workload.write_p99_us", p.traced.write_latency()),
        Metric::new("workload.scm_lines_per_op", per_op(c.read_lines), "lines"),
        Metric::new("workload.persists_per_op", per_op(c.persists), "count"),
        Metric::new(
            "workload.flushed_lines_per_op",
            per_op(c.flushed_lines),
            "lines",
        ),
        Metric::new(
            "workload.htm_aborts_per_kop",
            per_op(c.htm_aborts) * 1e3,
            "count",
        ),
        Metric::new(
            "workload.leaf_lock_spins_per_kop",
            per_op(c.leaf_lock_spins) * 1e3,
            "count",
        ),
    ]
}
