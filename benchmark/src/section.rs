//! One timed section of an in-process workload: closed-loop clients, five
//! rounds, sampled (or, traced, exhaustive) op timing, counter snapshots
//! around each round, and the spans that go with them.

use std::time::Instant;

use crate::common::{Checks, Counters};
use crate::stats::{latency, run_rounds, Pct, RoundCtx, Samples, Throughput, ROUNDS};
use crate::trace::{OpSpan, Tracer, OP_SPANS_PER_ROUND};

/// What a client thread accumulates over a section.
#[derive(Debug, Default)]
pub struct ClientLog {
    pub read: Samples,
    pub write: Samples,
    pub checks: Checks,
    pub op_spans: Vec<OpSpan>,
}

/// What the op closure of [`drive`] reports about the op it just ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    Read(&'static str),
    Write(&'static str),
}

/// Runs ops until the round's deadline, timing one in `ctx.every`. `op`
/// executes the client's next operation (checking its answer against the
/// oracle) and says what it was, or returns `None` when the pre-generated
/// stream is exhausted. Returns the number of ops completed.
#[inline]
pub fn drive(
    ctx: RoundCtx,
    log: &mut ClientLog,
    mut op: impl FnMut(&mut Checks) -> Option<OpKind>,
) -> u64 {
    let ClientLog {
        read,
        write,
        checks,
        op_spans,
    } = log;
    let keep_spans = ctx.every == 1;
    let mut kept = 0;
    let mut n = 0u64;
    'round: loop {
        for _ in 1..ctx.every {
            if op(checks).is_none() {
                break 'round;
            }
            n += 1;
        }
        let t0 = Instant::now();
        let Some(kind) = op(checks) else {
            break;
        };
        let t1 = Instant::now();
        n += 1;
        let name = match kind {
            OpKind::Read(name) => {
                read.push(t1 - t0);
                name
            }
            OpKind::Write(name) => {
                write.push(t1 - t0);
                name
            }
        };
        if keep_spans && kept < OP_SPANS_PER_ROUND {
            kept += 1;
            op_spans.push(OpSpan {
                name,
                round: ctx.round,
                start: t0,
                end: t1,
            });
        }
        if t1 >= ctx.deadline {
            break;
        }
    }
    read.end_round();
    write.end_round();
    n
}

/// A client that owns a [`ClientLog`].
pub trait HasLog {
    fn log_mut(&mut self) -> &mut ClientLog;
}

/// A finished section.
#[derive(Debug)]
pub struct SectionOut {
    pub tp: Throughput,
    logs: Vec<ClientLog>,
    /// Exported-counter deltas over the whole section.
    pub counters: Counters,
}

impl SectionOut {
    /// `(p50, p99)` of the section's reads.
    pub fn read_latency(&self) -> (Pct, Pct) {
        latency(&self.logs.iter().map(|l| &l.read).collect::<Vec<_>>())
    }

    /// `(p50, p99)` of the section's writes.
    pub fn write_latency(&self) -> (Pct, Pct) {
        latency(&self.logs.iter().map(|l| &l.write).collect::<Vec<_>>())
    }

    /// Moves the section's checked-answer ledger into `into`.
    pub fn take_checks(&mut self, into: &mut Checks) {
        for l in &mut self.logs {
            into.merge(std::mem::take(&mut l.checks));
        }
    }
}

/// Runs one section of `secs` seconds over `clients`, snapshotting
/// `counters()` around every round and recording round and op spans. The
/// section is preceded by `warmup_secs` of the same loop whose timings are
/// thrown away (its answers are still checked): caches, branch predictors
/// and the structure itself settle before the clock that counts starts.
#[allow(clippy::too_many_arguments)]
pub fn run_section<C: Send + HasLog>(
    name: &str,
    clients: &mut [C],
    warmup_secs: f64,
    secs: f64,
    every: u32,
    step: impl Fn(&mut C, RoundCtx) -> u64 + Sync,
    counters: impl Fn() -> Counters,
    tracer: &mut Tracer,
) -> SectionOut {
    tracer.begin(name);
    let mut warmup_checks = Checks::default();
    if warmup_secs > 0.0 {
        tracer.begin("warmup");
        run_rounds(clients, 1, warmup_secs, every, &step, |_, _| ());
        for c in clients.iter_mut() {
            warmup_checks.merge(std::mem::take(c.log_mut()).checks);
        }
        tracer.end();
    }
    let first = counters();
    let mut before = (Instant::now(), first);
    let mut round_spans = Vec::new();
    let tp = run_rounds(
        clients,
        ROUNDS,
        secs / ROUNDS as f64,
        every,
        step,
        |round, started| {
            if started {
                before = (Instant::now(), counters());
            } else {
                let delta = counters().since(&before.1);
                round_spans.push(tracer.round(round, before.0, Instant::now(), delta));
            }
        },
    );
    let mut logs: Vec<ClientLog> = clients
        .iter_mut()
        .map(|c| std::mem::take(c.log_mut()))
        .collect();
    logs[0].checks.merge(warmup_checks);
    for (thread, log) in logs.iter().enumerate() {
        tracer.ops(thread, &log.op_spans, &round_spans);
    }
    tracer.end();
    SectionOut {
        tp,
        logs,
        counters: counters().since(&first),
    }
}
