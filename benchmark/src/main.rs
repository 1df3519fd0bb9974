//! The repo's benchmark: five named workloads, eight bounded end-to-end
//! metrics, and a per-layer ladder (pmem → htm → core → kvcache → tatp),
//! all measured from outside through the crates' public functions and
//! exported counters. See `README.md` beside this crate.
//!
//! ```text
//! fptree-benchmark run --seed <u64> [--workload <name>] [--seconds <s>]
//!                      [--trace [0|1]] [--smoke] [--out <file>]
//! fptree-benchmark compare <base.json> <new.json>
//! fptree-benchmark selfcheck [--seed <u64>] [--seconds <s>] [--smoke]
//! ```

mod common;
mod gen;
mod json;
mod ladder;
mod report;
mod section;
mod spec;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use common::{Config, Metric, WorkloadResult, DEFAULT_SECONDS};
use json::Json;
use report::Verdict;
use trace::Tracer;
use workloads::Workload;

const USAGE: &str = "usage:
  fptree-benchmark run --seed <u64> [--workload <name>] [--seconds <s>] [--trace [0|1]] [--smoke] [--out <file>]
  fptree-benchmark compare <base.json> <new.json>
  fptree-benchmark selfcheck [--seed <u64>] [--seconds <s>] [--smoke]";

/// Parsed `run` / `selfcheck` options.
#[derive(Debug, Clone, PartialEq)]
struct RunArgs {
    seed: u64,
    workload: Option<String>,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: Option<PathBuf>,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut a = RunArgs {
        seed: 1,
        workload: None,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        out: None,
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--seed" => {
                let v = value("a number")?;
                a.seed = v.parse().map_err(|_| format!("bad --seed {v}"))?;
            }
            "--workload" => {
                let v = value("a workload name")?;
                if workloads::by_name(&v).is_none() {
                    let names: Vec<_> = workloads::ALL.iter().map(|w| w.name).collect();
                    return Err(format!("unknown workload {v}; one of {}", names.join(", ")));
                }
                a.workload = Some(v);
            }
            "--seconds" => {
                let v = value("a number of seconds")?;
                a.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 60.0)
                    .ok_or_else(|| format!("bad --seconds {v} (0 < s <= 60)"))?;
            }
            "--trace" => {
                // `--trace`, `--trace 0` and `--trace 1` are all accepted.
                a.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--smoke" => a.smoke = true,
            "--out" => a.out = Some(PathBuf::from(value("a file")?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(a)
}

/// Where the span file goes: `out/` beside this crate's manifest.
fn trace_path(seed: u64) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{seed}.json"))
}

/// One full pass: the selected workloads, then (traced) the ladder.
struct Pass {
    cfg: Config,
    results: Vec<WorkloadResult>,
    ladder: Vec<Metric>,
    ladder_failures: Vec<String>,
}

impl Pass {
    fn correct(&self) -> bool {
        self.results.iter().all(WorkloadResult::correct) && self.ladder_failures.is_empty()
    }
}

fn run_pass(args: &RunArgs) -> Pass {
    let cfg = Config::new(args.seed, args.seconds, args.smoke, args.trace);
    let selected: Vec<&Workload> = match &args.workload {
        Some(name) => vec![workloads::by_name(name).expect("validated by the parser")],
        None => workloads::ALL.iter().collect(),
    };
    println!(
        "fptree-benchmark: seed {}, {} s per timed section{}{}, T = {} client threads on nproc = {}",
        cfg.seed,
        cfg.seconds,
        if cfg.smoke { " (smoke: 1/50 scale)" } else { "" },
        if cfg.trace { ", traced" } else { "" },
        cfg.threads,
        cfg.nproc
    );
    println!("method: {}", spec::METHOD);
    let mut tracer = Tracer::new(cfg.trace);
    let mut results = Vec::new();
    for w in &selected {
        tracer.set_workload(w.name);
        tracer.begin(w.name);
        results.push((w.run)(&cfg, &mut tracer));
        tracer.end();
    }
    let (ladder, ladder_failures) = if cfg.trace {
        tracer.set_workload("ladder");
        let out = ladder::run(&cfg, &mut tracer);
        let path = trace_path(cfg.seed);
        match tracer.write(&path) {
            Ok(()) => println!("wrote {} spans to {}", tracer.len(), path.display()),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
        out
    } else {
        (Vec::new(), Vec::new())
    };
    Pass {
        cfg,
        results,
        ladder,
        ladder_failures,
    }
}

fn cmd_run(args: &[String]) -> Result<bool, String> {
    let args = parse_run_args(args)?;
    let pass = run_pass(&args);
    for f in &pass.ladder_failures {
        println!("LADDER: {f}");
    }
    if let Some(out) = &args.out {
        let doc = report::document(&pass.cfg, &pass.results, &pass.ladder);
        std::fs::write(out, doc.render() + "\n").map_err(|e| format!("{}: {e}", out.display()))?;
    }
    // One block and one result line per workload; the last line of standard
    // output is the (last) workload's result object.
    for r in &pass.results {
        report::print_workload(&pass.cfg, r, &pass.ladder);
        let mut r = r.clone();
        for f in &pass.ladder_failures {
            r.checks.attempted += 1;
            r.checks.fail(f.clone());
        }
        println!("{}", report::result_line(&pass.cfg, &r, &pass.ladder));
    }
    Ok(pass.correct())
}

fn read_doc(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn cmd_compare(args: &[String]) -> Result<bool, String> {
    let [base, new] = args else {
        return Err("compare needs two result files".into());
    };
    let rows = report::compare(&read_doc(base)?, &read_doc(new)?);
    report::print_rows(&rows);
    let bad = rows
        .iter()
        .filter(|r| matches!(r.verdict, Verdict::Regressed | Verdict::Differs))
        .count();
    let unresolved = rows
        .iter()
        .filter(|r| r.verdict == Verdict::Unresolved)
        .count();
    println!(
        "{} rows, {bad} regressed, {unresolved} unresolved",
        rows.len()
    );
    Ok(bad == 0)
}

/// Runs the full untraced set twice on this build and holds the two
/// against each other: no end-to-end metric may differ by more than its
/// bound in either direction, and exact counts must be bit-equal.
fn cmd_selfcheck(args: &[String]) -> Result<bool, String> {
    let args = parse_run_args(args)?;
    if args.trace || args.workload.is_some() {
        return Err("selfcheck runs every workload untraced".into());
    }
    let docs: Vec<Json> = (0..2)
        .map(|i| {
            println!("-- selfcheck pass {}", i + 1);
            let pass = run_pass(&args);
            for r in &pass.results {
                report::print_workload(&pass.cfg, r, &[]);
            }
            report::document(&pass.cfg, &pass.results, &[])
        })
        .collect();
    let rows = report::compare(&docs[0], &docs[1]);
    report::print_rows(&rows);
    let correct = docs.iter().all(|d| {
        d.get("workloads")
            .map(Json::fields)
            .unwrap_or(&[])
            .iter()
            .all(|(_, w)| w.get("correct").and_then(Json::as_bool) == Some(true))
    });
    let mut ok = correct;
    for r in &rows {
        match r.verdict {
            // One build, twice: "improved" beyond the bound is as much a
            // disagreement as "regressed".
            Verdict::Regressed | Verdict::Improved | Verdict::Differs => {
                println!(
                    "selfcheck: {} {} differs beyond its bound: {} vs {}",
                    r.workload, r.metric, r.base, r.new
                );
                ok = false;
            }
            Verdict::Unresolved => println!(
                "selfcheck: {} {} unresolved (spread {:.1}% exceeds its bound)",
                r.workload,
                r.metric,
                r.spread * 100.0
            ),
            _ => {}
        }
    }
    println!("selfcheck: {}", if ok { "PASS" } else { "FAIL" });
    Ok(ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => cmd_run(rest),
        Some((cmd, rest)) if cmd == "compare" => cmd_compare(rest),
        Some((cmd, rest)) if cmd == "selfcheck" => cmd_selfcheck(rest),
        _ => Err(USAGE.into()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests;
