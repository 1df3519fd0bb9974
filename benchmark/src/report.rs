//! Printing results, the result document `--out` writes, and `compare`.

use crate::common::{Config, Metric, WorkloadResult};
use crate::json::Json;
use crate::spec::{self, Better};

/// One human-readable line per metric: name, value, unit, samples, spread.
pub fn print_metrics(metrics: &[Metric]) {
    for m in metrics {
        let mut line = format!("  {:<44} {:>16} {:<6}", m.name, fmt_value(m.value), m.unit);
        if let Some(n) = m.samples {
            line.push_str(&format!(" n={n}"));
        }
        if let Some(s) = m.spread {
            line.push_str(&format!(" spread={:.2}%", s * 100.0));
        }
        println!("{}", line.trim_end());
    }
}

fn fmt_value(v: f64) -> String {
    if v == 0.0 || (v.abs() >= 0.01 && v.abs() < 1e7) {
        format!("{v:.4}")
    } else {
        format!("{v:.4e}")
    }
}

/// The block printed for one workload.
pub fn print_workload(cfg: &Config, r: &WorkloadResult, ladder: &[Metric]) {
    println!(
        "== {} (seed {}, T = {}, nproc = {})",
        r.name, cfg.seed, cfg.threads, cfg.nproc
    );
    if let Some(w) = crate::workloads::by_name(r.name) {
        println!("  why: {}", w.why);
    }
    for n in &r.notes {
        println!("  {n}");
    }
    if cfg.trace {
        print_metrics(&r.per_layer);
        print_metrics(ladder);
    } else {
        print_metrics(&r.end_to_end);
        println!("  informational (per-layer in a traced run, no bound):");
        print_metrics(&r.informational);
    }
    let c = &r.checks;
    println!(
        "  failed_share = {} ({} failed of {} checked answers)",
        c.failed as f64 / c.attempted.max(1) as f64,
        c.failed,
        c.attempted
    );
    for e in &c.examples {
        println!("  FAILED: {e}");
    }
}

fn metrics_json(metrics: &[Metric]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| (m.name.clone(), m.to_json()))
            .collect(),
    )
}

/// The metrics a result line must carry, in the vocabulary's order and with
/// the vocabulary's units: every end-to-end metric untraced, every per-layer
/// metric traced — no more, no fewer. A name that was not measured is
/// returned in the second list.
pub fn listed_metrics(
    cfg: &Config,
    r: &WorkloadResult,
    ladder: &[Metric],
) -> (Json, Vec<&'static str>) {
    let listed: Vec<(&'static str, &'static str)> = if cfg.trace {
        spec::PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        spec::END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    };
    let measured = || r.end_to_end.iter().chain(&r.per_layer).chain(ladder);
    let mut missing = Vec::new();
    let mut found = Vec::new();
    for (name, unit) in listed {
        match measured().find(|m| m.name == name) {
            Some(m) => found.push((
                name,
                Json::obj([
                    ("value", Json::Num(m.value)),
                    ("unit", Json::Str(unit.into())),
                ]),
            )),
            None => missing.push(name),
        }
    }
    (Json::obj(found), missing)
}

/// The last line of standard output for one workload: exactly the keys
/// `correct`, `attempted`, `failed`, `metrics`. A listed metric that was not
/// measured makes the run incorrect.
pub fn result_line(cfg: &Config, r: &WorkloadResult, ladder: &[Metric]) -> String {
    let (metrics, missing) = listed_metrics(cfg, r, ladder);
    for name in &missing {
        eprintln!("{}: listed metric {name} was not measured", r.name);
    }
    Json::obj([
        ("correct", Json::Bool(r.correct() && missing.is_empty())),
        ("attempted", Json::Num(r.checks.attempted.max(1) as f64)),
        (
            "failed",
            Json::Num((r.checks.failed + missing.len() as u64) as f64),
        ),
        ("metrics", metrics),
    ])
    .render()
}

/// The document `--out` writes and `compare` reads.
pub fn document(cfg: &Config, results: &[WorkloadResult], ladder: &[Metric]) -> Json {
    Json::obj([
        ("seed", Json::Num(cfg.seed as f64)),
        ("seconds", Json::Num(cfg.seconds)),
        ("smoke", Json::Bool(cfg.smoke)),
        ("trace", Json::Bool(cfg.trace)),
        (
            "host",
            Json::obj([
                ("nproc", Json::Num(cfg.nproc as f64)),
                ("threads", Json::Num(cfg.threads as f64)),
            ]),
        ),
        ("method", Json::Str(spec::METHOD.into())),
        (
            "workloads",
            Json::Obj(
                results
                    .iter()
                    .map(|r| {
                        (
                            r.name.to_string(),
                            Json::obj([
                                ("correct", Json::Bool(r.correct())),
                                ("attempted", Json::Num(r.checks.attempted as f64)),
                                ("failed", Json::Num(r.checks.failed as f64)),
                                ("end_to_end", metrics_json(&r.end_to_end)),
                                ("informational", metrics_json(&r.informational)),
                                ("per_layer", metrics_json(&r.per_layer)),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
        ("ladder", metrics_json(ladder)),
    ])
}

// ----------------------------------------------------------------- compare

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Identical,
    Unchanged,
    Improved,
    /// The recorded spread exceeds the bound: the runs cannot tell.
    Unresolved,
    Regressed,
    /// An exact count differs between two runs of one seed.
    Differs,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Identical => "identical",
            Verdict::Unchanged => "unchanged",
            Verdict::Improved => "improved",
            Verdict::Unresolved => "unresolved",
            Verdict::Regressed => "REGRESSED",
            Verdict::Differs => "DIFFERS",
        }
    }
}

/// One row of a comparison.
#[derive(Debug, Clone)]
pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub base: f64,
    pub new: f64,
    pub spread: f64,
    pub verdict: Verdict,
}

/// How much worse `new` is than `base`, as a share of `base` (negative
/// when it is better).
pub fn worse_by(better: Better, base: f64, new: f64) -> f64 {
    match better {
        Better::Lower => (new - base) / base,
        Better::Higher => (base - new) / base,
    }
}

/// Judges one metric of one workload. `same_seed` turns the exactness
/// demand on: counts that repeat bit for bit must be bit-equal.
pub fn judge(
    m: &spec::EndToEnd,
    workload: &str,
    base: f64,
    new: f64,
    spread: f64,
    same_seed: bool,
) -> Verdict {
    if same_seed && m.exact_on.contains(&workload) {
        return if base.to_bits() == new.to_bits() {
            Verdict::Identical
        } else {
            Verdict::Differs
        };
    }
    if base == new {
        return Verdict::Identical;
    }
    if spread > m.bound {
        return Verdict::Unresolved;
    }
    let w = worse_by(m.better, base, new);
    if w > m.bound {
        Verdict::Regressed
    } else if w < -m.bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

fn metric_of(doc: &Json, workload: &str, metric: &str) -> Option<(f64, f64)> {
    let m = doc
        .get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(metric)?;
    Some((
        m.get("value")?.as_f64()?,
        m.get("spread").and_then(Json::as_f64).unwrap_or(0.0),
    ))
}

fn failed_share(doc: &Json, workload: &str) -> Option<f64> {
    let w = doc.get("workloads")?.get(workload)?;
    Some(w.get("failed")?.as_f64()? / w.get("attempted")?.as_f64()?.max(1.0))
}

/// Applies the per-metric bounds to every workload row both documents hold.
pub fn compare(base: &Json, new: &Json) -> Vec<Row> {
    let same_seed = base.get("seed") == new.get("seed")
        && base.get("seconds") == new.get("seconds")
        && base.get("smoke") == new.get("smoke");
    let mut rows = Vec::new();
    let workloads = base.get("workloads").map(Json::fields).unwrap_or(&[]);
    for (workload, _) in workloads {
        for m in &spec::END_TO_END {
            let (Some((b, sb)), Some((n, sn))) = (
                metric_of(base, workload, m.name),
                metric_of(new, workload, m.name),
            ) else {
                continue;
            };
            let spread = sb.max(sn);
            rows.push(Row {
                workload: workload.clone(),
                metric: m.name,
                base: b,
                new: n,
                spread,
                verdict: judge(m, workload, b, n, spread, same_seed),
            });
        }
        if let (Some(b), Some(n)) = (failed_share(base, workload), failed_share(new, workload)) {
            rows.push(Row {
                workload: workload.clone(),
                metric: "failed_share",
                base: b,
                new: n,
                spread: 0.0,
                // Bound 0: it must not rise.
                verdict: if n > b {
                    Verdict::Regressed
                } else if n == b {
                    Verdict::Identical
                } else {
                    Verdict::Improved
                },
            });
        }
    }
    rows
}

/// Prints a comparison, every ratio with its base.
pub fn print_rows(rows: &[Row]) {
    println!(
        "{:<16} {:<24} {:>14} {:>14} {:>8} {:>8} {:>7}  verdict",
        "workload", "metric", "base", "new", "new/base", "spread", "bound"
    );
    for r in rows {
        let bound = spec::end_to_end(r.metric).map_or(0.0, |m| m.bound);
        println!(
            "{:<16} {:<24} {:>14} {:>14} {:>8.4} {:>7.2}% {:>6.0}%  {}",
            r.workload,
            r.metric,
            fmt_value(r.base),
            fmt_value(r.new),
            if r.base == 0.0 {
                f64::NAN
            } else {
                r.new / r.base
            },
            r.spread * 100.0,
            bound * 100.0,
            r.verdict.as_str()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(seed: u64, ops: f64, spread: f64, lines: f64, failed: f64) -> Json {
        let w = |name: &str| {
            (
                name.to_string(),
                Json::obj([
                    ("attempted", Json::Num(100.0)),
                    ("failed", Json::Num(failed)),
                    (
                        "end_to_end",
                        Json::obj([
                            (
                                "ops_per_s",
                                Json::obj([
                                    ("value", Json::Num(ops)),
                                    ("spread", Json::Num(spread)),
                                ]),
                            ),
                            (
                                "flushed_lines_per_write",
                                Json::obj([("value", Json::Num(lines))]),
                            ),
                        ]),
                    ),
                ]),
            )
        };
        Json::obj([
            ("seed", Json::Num(seed as f64)),
            (
                "workloads",
                Json::Obj(vec![w("tree_write_scm"), w("wire_kv")]),
            ),
        ])
    }

    fn verdict(rows: &[Row], workload: &str, metric: &str) -> Verdict {
        rows.iter()
            .find(|r| r.workload == workload && r.metric == metric)
            .unwrap()
            .verdict
    }

    #[test]
    fn bounds_apply_per_metric_in_the_better_direction() {
        let rows = compare(
            &doc(1, 1000.0, 0.01, 2.5, 0.0),
            &doc(2, 700.0, 0.01, 2.55, 0.0),
        );
        assert_eq!(verdict(&rows, "wire_kv", "ops_per_s"), Verdict::Regressed);
        assert_eq!(
            verdict(&rows, "wire_kv", "flushed_lines_per_write"),
            Verdict::Unchanged
        );
        let rows = compare(
            &doc(1, 1000.0, 0.01, 2.5, 0.0),
            &doc(2, 1300.0, 0.01, 2.5, 0.0),
        );
        assert_eq!(verdict(&rows, "wire_kv", "ops_per_s"), Verdict::Improved);
        assert_eq!(
            verdict(&rows, "wire_kv", "failed_share"),
            Verdict::Identical
        );
    }

    #[test]
    fn wide_spread_is_unresolved_not_unchanged() {
        let rows = compare(
            &doc(1, 1000.0, 0.3, 2.5, 0.0),
            &doc(2, 990.0, 0.01, 2.5, 0.0),
        );
        assert_eq!(verdict(&rows, "wire_kv", "ops_per_s"), Verdict::Unresolved);
    }

    #[test]
    fn exact_counts_must_be_bit_equal_for_one_seed() {
        let rows = compare(
            &doc(1, 1000.0, 0.0, 2.5, 0.0),
            &doc(1, 1000.0, 0.0, 2.5000001, 0.0),
        );
        assert_eq!(
            verdict(&rows, "tree_write_scm", "flushed_lines_per_write"),
            Verdict::Differs
        );
        // Not exact on a concurrent workload, and not across seeds.
        assert_eq!(
            verdict(&rows, "wire_kv", "flushed_lines_per_write"),
            Verdict::Unchanged
        );
        let rows = compare(
            &doc(1, 1000.0, 0.0, 2.5, 0.0),
            &doc(2, 1000.0, 0.0, 2.5000001, 0.0),
        );
        assert_eq!(
            verdict(&rows, "tree_write_scm", "flushed_lines_per_write"),
            Verdict::Unchanged
        );
    }

    #[test]
    fn a_rising_failed_share_is_a_regression() {
        let rows = compare(
            &doc(1, 1000.0, 0.0, 2.5, 0.0),
            &doc(1, 1000.0, 0.0, 2.5, 1.0),
        );
        assert_eq!(
            verdict(&rows, "wire_kv", "failed_share"),
            Verdict::Regressed
        );
    }
}
