//! Tests that cut across modules: the command line, the agreement between
//! this program's vocabulary and `BENCHMARK.json`, and whole smoke runs.

use std::collections::BTreeSet;
use std::sync::Mutex;

use super::*;
use crate::json::Json;

/// Whole runs time things; two at once would time each other.
static ONE_RUN_AT_A_TIME: Mutex<()> = Mutex::new(());

fn args(list: &[&str]) -> Vec<String> {
    list.iter().map(|s| s.to_string()).collect()
}

fn smoke(workload: Option<&str>, trace: bool) -> Pass {
    let _guard = ONE_RUN_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    run_pass(&RunArgs {
        seed: 7,
        workload: workload.map(str::to_string),
        seconds: DEFAULT_SECONDS,
        trace,
        smoke: true,
        out: None,
    })
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
        .expect("BENCHMARK.json parses")
}

fn names(list: &Json) -> Vec<String> {
    list.as_arr()
        .expect("a list")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("a name")
                .to_string()
        })
        .collect()
}

#[test]
fn the_drivers_arguments_parse() {
    let a = parse_run_args(&args(&[
        "--workload",
        "wire_kv",
        "--seed",
        "42",
        "--seconds",
        "8",
        "--trace",
        "0",
    ]))
    .unwrap();
    assert_eq!((a.seed, a.seconds, a.trace), (42, 8.0, false));
    assert_eq!(a.workload.as_deref(), Some("wire_kv"));
    assert!(parse_run_args(&args(&["--trace", "1"])).unwrap().trace);
    // The issue's spelling: a bare flag, possibly followed by another flag.
    let a = parse_run_args(&args(&["--seed", "1", "--trace", "--out", "x.json"])).unwrap();
    assert!(a.trace && a.out.is_some());
    assert!(parse_run_args(&args(&["--workload", "nope"])).is_err());
    assert!(parse_run_args(&args(&["--seconds", "0"])).is_err());
    assert!(parse_run_args(&args(&["--seed"])).is_err());
    assert!(parse_run_args(&args(&["--frobnicate"])).is_err());
}

#[test]
fn benchmark_json_lists_exactly_this_programs_vocabulary() {
    let doc = benchmark_json();
    let keys: Vec<&str> = doc.fields().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    assert_eq!(doc.get("paths").unwrap().render(), r#"["benchmark"]"#);
    assert_eq!(
        doc.get("run_seconds").and_then(Json::as_f64),
        Some(DEFAULT_SECONDS)
    );

    let workloads = doc.get("workloads").unwrap().as_arr().unwrap();
    assert_eq!(workloads.len(), workloads::ALL.len());
    for (listed, w) in workloads.iter().zip(&workloads::ALL) {
        assert_eq!(listed.get("name").and_then(Json::as_str), Some(w.name));
        assert_eq!(listed.get("why").and_then(Json::as_str), Some(w.why));
        assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
    }

    let e2e = doc.get("end_to_end").unwrap().as_arr().unwrap();
    assert_eq!(e2e.len(), spec::END_TO_END.len());
    for (listed, m) in e2e.iter().zip(&spec::END_TO_END) {
        assert_eq!(listed.get("name").and_then(Json::as_str), Some(m.name));
        assert_eq!(listed.get("unit").and_then(Json::as_str), Some(m.unit));
        assert_eq!(
            listed.get("better").and_then(Json::as_str),
            Some(m.better.as_str())
        );
        assert_eq!(listed.get("bound").and_then(Json::as_f64), Some(m.bound));
        assert!(m.bound > 0.0 && m.bound <= 0.25);
    }
    // setup_s is there, in seconds, with the largest bound.
    assert!(spec::end_to_end("setup_s").is_some_and(|m| m.unit == "s" && m.bound == 0.25));

    let layers = doc.get("per_layer").unwrap().as_arr().unwrap();
    assert_eq!(layers.len(), spec::PER_LAYER.len());
    assert!(layers.len() <= 128);
    for (listed, m) in layers.iter().zip(spec::PER_LAYER) {
        assert_eq!(listed.get("name").and_then(Json::as_str), Some(m.name));
        assert_eq!(listed.get("unit").and_then(Json::as_str), Some(m.unit));
        assert_eq!(
            listed.get("better").and_then(Json::as_str),
            Some(m.better.as_str())
        );
    }
    let all: Vec<String> = names(doc.get("end_to_end").unwrap())
        .into_iter()
        .chain(names(doc.get("per_layer").unwrap()))
        .chain(names(doc.get("workloads").unwrap()))
        .collect();
    assert_eq!(
        all.iter().collect::<BTreeSet<_>>().len(),
        all.len(),
        "a name is used twice"
    );
    for n in &all {
        assert!(
            n.len() <= 64
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        );
    }
}

#[test]
fn every_workload_reports_every_end_to_end_metric_and_nothing_else() {
    let pass = smoke(None, false);
    assert_eq!(pass.results.len(), workloads::ALL.len());
    let want: Vec<&str> = spec::END_TO_END.iter().map(|m| m.name).collect();
    for r in &pass.results {
        assert!(r.correct(), "{}: {:?}", r.name, r.checks.examples);
        assert!(r.checks.attempted > 0);
        let line = json::parse(&report::result_line(&pass.cfg, r, &[])).unwrap();
        let keys: Vec<&str> = line.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let got: Vec<&str> = line
            .get("metrics")
            .unwrap()
            .fields()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(got, want, "{}", r.name);
        for (m, spec) in r.end_to_end.iter().zip(&spec::END_TO_END) {
            assert_eq!(m.unit, spec.unit, "{} {}", r.name, m.name);
            assert!(
                m.value.is_finite() && m.value > 0.0,
                "{} {} = {}",
                r.name,
                m.name,
                m.value
            );
        }
    }
    // The document `--out` writes compares clean against itself.
    let doc = report::document(&pass.cfg, &pass.results, &[]);
    let rows = report::compare(&doc, &json::parse(&doc.render()).unwrap());
    assert_eq!(
        rows.len(),
        workloads::ALL.len() * (spec::END_TO_END.len() + 1)
    );
    assert!(rows.iter().all(|r| r.verdict == Verdict::Identical));
}

#[test]
fn a_traced_run_reports_every_per_layer_metric_and_a_consistent_ladder() {
    let pass = smoke(Some("tree_mixed_dram"), true);
    assert!(
        pass.ladder_failures.is_empty(),
        "{:?}",
        pass.ladder_failures
    );
    let r = &pass.results[0];
    assert!(r.correct(), "{:?}", r.checks.examples);
    let line = json::parse(&report::result_line(&pass.cfg, r, &pass.ladder)).unwrap();
    let got: Vec<&str> = line
        .get("metrics")
        .unwrap()
        .fields()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    let want: Vec<&str> = spec::PER_LAYER.iter().map(|m| m.name).collect();
    assert_eq!(
        got.iter().collect::<BTreeSet<_>>(),
        want.iter().collect::<BTreeSet<_>>()
    );
    assert_eq!(got.len(), want.len());
    for m in r.per_layer.iter().chain(&pass.ladder) {
        let spec = spec::PER_LAYER.iter().find(|s| s.name == m.name).unwrap();
        assert_eq!(m.unit, spec.unit, "{}", m.name);
        assert!(m.value.is_finite(), "{}", m.name);
    }
    // Timings are positive; a self time below zero beyond spread and slack
    // would already have landed in `ladder_failures`.
    for m in pass.ladder.iter().filter(|m| m.unit == "ns") {
        assert!(m.value > 0.0, "{}", m.name);
    }
    let spans = std::fs::read_to_string(trace_path(pass.cfg.seed)).expect("span file written");
    let Json::Arr(spans) = json::parse(&spans).unwrap() else {
        panic!("span file is not a list")
    };
    assert!(spans
        .iter()
        .any(|s| s.get("name").and_then(Json::as_str) == Some("round")));
    assert!(spans
        .iter()
        .any(|s| s.get("workload").and_then(Json::as_str) == Some("ladder")));
}
