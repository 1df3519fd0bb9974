//! Order statistics and the closed-loop round driver every timed section
//! uses: a fixed number of equal rounds, a rate per round, the median of the
//! round rates, latency percentiles over all rounds pooled, and the
//! inter-round spread beside each.

use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Rounds per timed section. (The issue sketched five; on the reference
/// host a round's rate wanders by ±10 % from second to second, and the
/// median of ten is what brought the run-to-run spread down.)
pub const ROUNDS: usize = 10;
/// Untraced in-process sections time one op in this many (two `Instant`
/// reads cost about 15 % of a 300 ns `get`); traced sections time every op.
pub const SAMPLE_EVERY: u32 = 8;

/// Nearest-rank percentile of an ascending slice (`p` in 0..=100).
pub fn percentile_sorted(sorted: &[u32], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] as f64
}

/// Median of a list (mean of the middle pair for even lengths).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the "exclusive" method), so spreads printed here match the driver's.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let q = |i: usize| -> f64 {
        let pos = i as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n.saturating_sub(1).max(1));
        let delta = pos - j as f64;
        if n == 1 {
            v[0]
        } else {
            v[j - 1] + (v[j] - v[j - 1]) * delta
        }
    };
    (q(1), q(2), q(3))
}

/// Inter-quartile range over the median: the spread figure printed beside
/// every timing.
pub fn spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let (q1, q2, q3) = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// Latency samples of one kind, in nanoseconds, tagged with their round.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    ns: Vec<u32>,
    /// `round_ends[r]` = number of samples recorded by the end of round `r`.
    round_ends: Vec<usize>,
}

impl Samples {
    #[inline]
    pub fn push(&mut self, d: Duration) {
        self.ns.push(d.as_nanos().min(u32::MAX as u128) as u32);
    }

    pub fn end_round(&mut self) {
        self.round_ends.push(self.ns.len());
    }

    fn round(&self, r: usize) -> &[u32] {
        let lo = if r == 0 { 0 } else { self.round_ends[r - 1] };
        &self.ns[lo..self.round_ends[r]]
    }
}

/// A latency percentile with its inter-round spread.
#[derive(Debug, Clone, Copy)]
pub struct Pct {
    /// Microseconds.
    pub us: f64,
    pub spread: f64,
    pub samples: usize,
}

/// The p50 and p99 of a section: each round's percentiles over the samples
/// of all threads pooled, then the median of the rounds. (Pooling all rounds
/// into one percentile lets a single disturbed second own the whole p99;
/// the median over rounds does not.)
pub fn latency(threads: &[&Samples]) -> (Pct, Pct) {
    let rounds = threads
        .iter()
        .map(|s| s.round_ends.len())
        .min()
        .unwrap_or(0);
    let (mut p50s, mut p99s) = (Vec::new(), Vec::new());
    for r in 0..rounds {
        let mut v: Vec<u32> = threads
            .iter()
            .flat_map(|s| s.round(r).iter().copied())
            .collect();
        if v.is_empty() {
            continue;
        }
        v.sort_unstable();
        p50s.push(percentile_sorted(&v, 50.0));
        p99s.push(percentile_sorted(&v, 99.0));
    }
    let samples = threads.iter().map(|s| s.ns.len()).sum();
    let pct = |per_round: &[f64]| Pct {
        us: median(per_round) / 1e3,
        spread: spread(per_round),
        samples,
    };
    (pct(&p50s), pct(&p99s))
}

/// What one client thread reports for one round.
#[derive(Debug, Clone, Copy, Default)]
pub struct RoundOut {
    pub ops: u64,
    pub secs: f64,
}

/// A section's throughput: per-round rates summed over the closed-loop
/// clients, their median and spread.
#[derive(Debug, Clone)]
pub struct Throughput {
    pub per_round: Vec<f64>,
    pub ops: u64,
}

impl Throughput {
    pub fn median(&self) -> f64 {
        median(&self.per_round)
    }
    pub fn spread(&self) -> f64 {
        spread(&self.per_round)
    }
    /// Mean nanoseconds per op per client (the ladder's unit).
    pub fn ns_per_op(&self, clients: usize) -> f64 {
        clients as f64 * 1e9 / self.median()
    }
}

/// Context handed to a client for one round.
#[derive(Debug, Clone, Copy)]
pub struct RoundCtx {
    pub round: usize,
    pub deadline: Instant,
    /// Time one op in this many (1 = every op).
    pub every: u32,
}

/// Runs `clients.len()` closed-loop clients through `rounds` rounds of
/// `round_secs` each. All clients start a round together (barrier); a
/// client's `step` runs ops until `ctx.deadline` and returns how many it
/// completed. `between(round, started)` runs on the calling thread while
/// the clients wait at the barrier — `started = true` just before a round,
/// `false` just after — which is where traced runs snapshot counters.
pub fn run_rounds<C: Send>(
    clients: &mut [C],
    rounds: usize,
    round_secs: f64,
    every: u32,
    step: impl Fn(&mut C, RoundCtx) -> u64 + Sync,
    mut between: impl FnMut(usize, bool),
) -> Throughput {
    let n = clients.len();
    let barrier = Barrier::new(n + 1);
    let round_dur = Duration::from_secs_f64(round_secs);
    let outs: Vec<Vec<RoundOut>> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                let (barrier, step) = (&barrier, &step);
                scope.spawn(move || {
                    (0..rounds)
                        .map(|round| {
                            barrier.wait();
                            let start = Instant::now();
                            let ops = step(
                                client,
                                RoundCtx {
                                    round,
                                    deadline: start + round_dur,
                                    every,
                                },
                            );
                            let secs = start.elapsed().as_secs_f64();
                            barrier.wait();
                            RoundOut { ops, secs }
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for round in 0..rounds {
            between(round, true);
            barrier.wait();
            barrier.wait();
            between(round, false);
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let per_round = (0..rounds)
        .map(|r| {
            outs.iter()
                .map(|t| t[r])
                .filter(|o| o.ops > 0)
                .map(|o| o.ops as f64 / o.secs)
                .sum()
        })
        .collect();
    Throughput {
        per_round,
        ops: outs.iter().flatten().map(|o| o.ops).sum(),
    }
}

/// Times `ops` calls of `f` in [`ROUNDS`] equal batches on the calling
/// thread and returns the median ns per call with the inter-round spread —
/// the ladder's single-thread rung.
pub fn time_batches(ops: usize, mut f: impl FnMut(usize)) -> (f64, f64) {
    let per = (ops / ROUNDS).max(1);
    let rates: Vec<f64> = (0..ROUNDS)
        .map(|r| {
            let t = Instant::now();
            for i in r * per..(r + 1) * per {
                f(i);
            }
            t.elapsed().as_nanos() as f64 / per as f64
        })
        .collect();
    (median(&rates), spread(&rates))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile_sorted(&v, 50.0), 50.0);
        assert_eq!(percentile_sorted(&v, 99.0), 99.0);
        assert_eq!(percentile_sorted(&v, 100.0), 100.0);
        assert_eq!(percentile_sorted(&[7], 99.0), 7.0);
        assert!(percentile_sorted(&[], 50.0).is_nan());
    }

    #[test]
    fn median_and_quartiles_match_python() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([1,2,3,4,5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 3.0, 4.5));
        assert_eq!(spread(&[2.0, 2.0, 2.0]), 0.0);
    }

    #[test]
    fn rounds_report_median_rate_and_pooled_percentiles() {
        struct C {
            lat: Samples,
        }
        let mut clients = vec![
            C {
                lat: Samples::default(),
            },
            C {
                lat: Samples::default(),
            },
        ];
        let mut seen = Vec::new();
        let tp = run_rounds(
            &mut clients,
            ROUNDS,
            0.01,
            1,
            |c, ctx| {
                let mut n = 0;
                while Instant::now() < ctx.deadline {
                    c.lat.push(Duration::from_nanos(100 + ctx.round as u64));
                    n += 1;
                }
                c.lat.end_round();
                n
            },
            |round, started| seen.push((round, started)),
        );
        assert_eq!(tp.per_round.len(), ROUNDS);
        assert_eq!(seen.len(), 2 * ROUNDS);
        assert!(tp.median() > 0.0 && tp.ops > 0);
        let (p, _) = latency(&[&clients[0].lat, &clients[1].lat]);
        assert_eq!(p.samples as u64, tp.ops);
        // Round r records 100 + r ns: the median of the rounds' medians.
        assert!((0.104..=0.105).contains(&p.us), "{p:?}");
    }

    #[test]
    fn time_batches_covers_every_index_once() {
        let mut hits = vec![0u8; 1000];
        let (ns, _) = time_batches(1000, |i| hits[i] += 1);
        assert!(ns >= 0.0);
        assert!(hits.iter().all(|&h| h == 1));
    }
}
