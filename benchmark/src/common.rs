//! What every workload shares: the run configuration, the failure ledger,
//! counter snapshots and the result record.

use std::sync::Arc;

use fptree_pmem::{LatencyProfile, PmemPool, PoolOptions, StatsSnapshot};

use crate::json::Json;
use crate::stats::{Pct, Throughput};

/// Set-ups per untraced run (`setup_s` is their median).
pub const SETUPS: usize = 3;
/// Restarts per untraced run (`recovery_ms` is their median).
pub const RECOVERIES: usize = 7;
/// Default `--seconds`.
pub const DEFAULT_SECONDS: f64 = 8.0;

/// One run's configuration, fixed by the command line.
#[derive(Debug, Clone)]
pub struct Config {
    pub seed: u64,
    /// Length of the timed section(s) of one workload.
    pub seconds: f64,
    /// 1/50 of every op count and duration, same code paths.
    pub smoke: bool,
    pub trace: bool,
    /// Closed-loop client threads: `min(nproc, 4)`.
    pub threads: usize,
    pub nproc: usize,
}

impl Config {
    pub fn new(seed: u64, seconds: f64, smoke: bool, trace: bool) -> Config {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        Config {
            seed,
            seconds: if smoke { seconds / 50.0 } else { seconds },
            smoke,
            trace,
            threads: nproc.min(4),
            nproc,
        }
    }

    /// An op or key count at this run's scale.
    pub fn scaled(&self, n: usize) -> usize {
        if self.smoke {
            (n / 50).max(64)
        } else {
            n
        }
    }

    /// Set-ups this run performs: several when `setup_s` is being
    /// measured, one when the run exists for its trace.
    pub fn setups(&self) -> usize {
        if self.trace {
            1
        } else {
            SETUPS
        }
    }

    pub fn recoveries(&self) -> usize {
        if self.trace {
            1
        } else {
            RECOVERIES
        }
    }

    /// Seconds of the untraced timed section. A traced run splits its
    /// budget: a short untraced section (the overhead baseline), a traced
    /// one, and the ladder.
    pub fn timed_secs(&self) -> f64 {
        if self.trace {
            self.seconds * 0.15
        } else {
            self.seconds
        }
    }

    pub fn traced_secs(&self) -> f64 {
        self.seconds * 0.25
    }

    /// Seconds of untimed warm-up before the untraced timed section.
    pub fn warmup_secs(&self) -> f64 {
        self.timed_secs() / 8.0
    }

    /// Seconds for which a stateful workload must pre-generate ops.
    pub fn stream_secs(&self) -> f64 {
        self.warmup_secs() + self.timed_secs() + if self.trace { self.traced_secs() } else { 0.0 }
    }
}

/// A direct-mode pool: `persist` charges the injected write latency per
/// flushed line and nothing else (the benchmark's stated flush policy).
pub fn direct_pool(bytes: usize, total_ns: u64) -> Arc<PmemPool> {
    let opts = PoolOptions::direct(bytes).with_latency(LatencyProfile::from_total(total_ns));
    Arc::new(PmemPool::create(opts).expect("benchmark pool"))
}

/// Reopens a clean-shutdown image of `pool` at the same injected latency.
pub fn reopen_image(image: Vec<u8>, latency: LatencyProfile) -> Arc<PmemPool> {
    let opts = PoolOptions::direct(0).with_latency(latency);
    Arc::new(PmemPool::reopen(image, opts).expect("reopen image"))
}

// ------------------------------------------------------------------ checks

/// The failure ledger: every checked answer is one attempt.
#[derive(Debug, Default, Clone)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the report.
    pub examples: Vec<String>,
}

impl Checks {
    /// Records one checked answer; `what` is only rendered on failure.
    #[inline]
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    #[cold]
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.examples.len() < 5 {
            self.examples.push(what);
        }
    }

    pub fn merge(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for e in other.examples {
            if self.examples.len() < 5 {
                self.examples.push(e);
            }
        }
    }
}

// ---------------------------------------------------------------- counters

/// Declares [`Counters`] from one list of fields, so the difference and
/// the JSON rendering cannot fall out of step with the struct.
macro_rules! counters {
    ($($field:ident),* $(,)?) => {
        /// The exported counters a traced section snapshots around each round.
        #[derive(Debug, Default, Clone, Copy)]
        pub struct Counters {
            $(pub $field: u64,)*
        }

        impl Counters {
            pub fn since(&self, before: &Counters) -> Counters {
                Counters {
                    $($field: self.$field - before.$field,)*
                }
            }

            pub fn to_json(self) -> Json {
                Json::obj([
                    $((stringify!($field), Json::Num(self.$field as f64)),)*
                ])
            }
        }
    };
}

counters!(
    persists,
    flushed_lines,
    fences,
    read_lines,
    htm_attempts,
    htm_aborts,
    htm_fallbacks,
    seqlock_conflicts,
    leaf_lock_spins,
    leaf_splits,
);

impl Counters {
    pub fn add_pool(&mut self, s: StatsSnapshot) {
        self.persists += s.persist_calls;
        self.flushed_lines += s.flushed_lines;
        self.fences += s.fences;
        self.read_lines += s.read_lines;
    }

    pub fn add_htm(&mut self, (attempts, aborts, fallbacks, _writes): (u64, u64, u64, u64)) {
        self.htm_attempts += attempts;
        self.htm_aborts += aborts;
        self.htm_fallbacks += fallbacks;
    }

    pub fn add_tree(&mut self, snap: &fptree_core::Snapshot) {
        self.seqlock_conflicts += snap.get("seqlock_conflicts").unwrap_or(0);
        self.leaf_lock_spins += snap.get("leaf_lock_spins").unwrap_or(0);
        self.leaf_splits += snap.get("leaf_splits").unwrap_or(0);
    }
}

// ----------------------------------------------------------------- results

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Inter-round (or inter-repeat) IQR / median, where the metric is a
    /// timing.
    pub spread: Option<f64>,
    pub samples: Option<usize>,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
            spread: None,
            samples: None,
        }
    }

    pub fn spread(mut self, s: f64) -> Metric {
        self.spread = Some(s);
        self
    }

    pub fn samples(mut self, n: usize) -> Metric {
        self.samples = Some(n);
        self
    }

    pub fn to_json(&self) -> Json {
        let mut f = vec![
            ("value".to_string(), Json::Num(self.value)),
            ("unit".to_string(), Json::Str(self.unit.into())),
        ];
        if let Some(s) = self.spread {
            f.push(("spread".into(), Json::Num(s)));
        }
        if let Some(n) = self.samples {
            f.push(("samples".into(), Json::Num(n as f64)));
        }
        Json::Obj(f)
    }
}

/// Everything one workload run produced.
#[derive(Debug, Clone, Default)]
pub struct WorkloadResult {
    pub name: &'static str,
    pub checks: Checks,
    /// End-to-end metrics (untraced runs).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (traced runs).
    pub per_layer: Vec<Metric>,
    /// Printed with the end-to-end metrics but not among them: the p99
    /// latencies of the untraced sections (see `spec::END_TO_END`).
    pub informational: Vec<Metric>,
    /// Free-form report lines (input hash, counts, findings).
    pub notes: Vec<String>,
}

impl WorkloadResult {
    pub fn new(name: &'static str) -> WorkloadResult {
        WorkloadResult {
            name,
            ..Default::default()
        }
    }

    pub fn push(&mut self, m: Metric) {
        self.end_to_end.push(m);
    }

    pub fn note(&mut self, s: impl Into<String>) {
        self.notes.push(s.into());
    }

    /// `ops_per_s` with the inter-round spread.
    pub fn push_throughput(&mut self, tp: &Throughput) {
        self.note(format!(
            "round rates: {}",
            tp.per_round
                .iter()
                .map(|r| format!("{r:.0}"))
                .collect::<Vec<_>>()
                .join(" ")
        ));
        self.push(
            Metric::new("ops_per_s", tp.median(), "1/s")
                .spread(tp.spread())
                .samples(tp.ops as usize),
        );
    }

    /// The p50 and p99 of one kind of op: `<kind>_p50_us` is an end-to-end
    /// metric, `<kind>_p99_us` is informational.
    pub fn push_latency(&mut self, kind: &str, (p50, p99): (Pct, Pct)) {
        let metric = |p: Pct, q: &str| {
            Metric::new(format!("{kind}_{q}_us"), p.us, "us")
                .spread(p.spread)
                .samples(p.samples)
        };
        self.end_to_end.push(metric(p50, "p50"));
        self.informational.push(metric(p99, "p99"));
    }

    pub fn correct(&self) -> bool {
        self.checks.failed == 0
    }
}

/// Builds the system under test `cfg.setups()` times, timing each build
/// (create + preload; dropping the previous build is not timed), and keeps
/// the last one.
pub fn repeat_setup<B>(
    cfg: &Config,
    tracer: &mut crate::trace::Tracer,
    mut build: impl FnMut() -> B,
) -> (B, Metric) {
    tracer.begin("setup");
    let mut secs = Vec::new();
    let mut last = None;
    for _ in 0..cfg.setups() {
        drop(last.take());
        let t = std::time::Instant::now();
        last = Some(build());
        secs.push(t.elapsed().as_secs_f64());
    }
    tracer.end();
    let metric = Metric::new("setup_s", crate::stats::median(&secs), "s")
        .spread(crate::stats::spread(&secs))
        .samples(secs.len());
    (last.expect("at least one set-up"), metric)
}
