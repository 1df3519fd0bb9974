//! Fixture-driven self-tests: each seeded-violation fixture must produce
//! exactly the expected lint at the expected line, and each clean fixture
//! must produce nothing.

use std::path::{Path, PathBuf};

use fptree_analyzer::{analyze, parse_baseline, Analysis, Options};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .to_path_buf()
}

fn run_fixture(name: &str) -> Analysis {
    run_fixture_with(name, &Options::default())
}

fn run_fixture_with(name: &str, opts: &Options) -> Analysis {
    let root = workspace_root();
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    analyze(&root, &[path], opts).expect("fixture readable")
}

/// Asserts the fixture yields exactly the `(lint, line)` error spans given.
fn expect(name: &str, spans: &[(&str, u32)]) {
    let a = run_fixture(name);
    let got: Vec<(&str, u32)> = a.errors.iter().map(|f| (f.lint, f.line)).collect();
    assert_eq!(got, spans, "unexpected findings in {name}: {:#?}", a.errors);
    if !spans.is_empty() {
        assert_eq!(a.exit_code(true), 1, "{name} must fail the gate");
    }
}

#[test]
fn checked_op_seeded_violations() {
    expect(
        "checked_op_bad1.rs",
        &[("pmem-store-outside-checked-op", 4)],
    );
    expect(
        "checked_op_bad2.rs",
        &[("pmem-store-outside-checked-op", 4)],
    );
}

#[test]
fn checked_op_clean() {
    expect("checked_op_good.rs", &[]);
}

#[test]
fn raw_publish_seeded_violations() {
    expect("raw_publish_bad1.rs", &[("raw-publish", 5)]);
    expect("raw_publish_bad2.rs", &[("raw-publish", 5)]);
}

#[test]
fn raw_publish_clean() {
    expect("raw_publish_good.rs", &[]);
}

#[test]
fn transient_store_seeded_violation() {
    expect("transient_store_bad1.rs", &[("transient-store", 5)]);
}

#[test]
fn transient_store_clean() {
    expect("transient_store_good.rs", &[]);
}

#[test]
fn thread_start_seeded_violations() {
    expect("thread_start_bad1.rs", &[("thread-start", 4)]);
    expect(
        "thread_start_bad2.rs",
        &[("thread-start", 6), ("thread-start", 7)],
    );
}

#[test]
fn thread_start_clean() {
    expect("thread_start_good.rs", &[]);
}

#[test]
fn flush_order_seeded_violations() {
    expect("flush_order_bad1.rs", &[("flush-order", 6)]);
    expect("flush_order_bad2.rs", &[("flush-order", 7)]);
}

#[test]
fn flush_order_clean() {
    expect("flush_order_good.rs", &[]);
}

#[test]
fn wbuf_commit_seeded_violations() {
    expect("wbuf_commit_bad1.rs", &[("raw-publish", 5)]);
    expect("wbuf_commit_bad2.rs", &[("flush-order", 5)]);
}

#[test]
fn wbuf_commit_clean() {
    expect("wbuf_commit_good.rs", &[]);
}

#[test]
fn slot_commit_seeded_violation() {
    expect("slot_commit_bad1.rs", &[("flush-order", 7)]);
}

#[test]
fn slot_commit_clean() {
    expect("slot_commit_good.rs", &[]);
}

#[test]
fn lock_discipline_seeded_violations() {
    expect("lock_bad1.rs", &[("lock-discipline", 4)]);
    expect("lock_bad2.rs", &[("lock-discipline", 4)]);
}

#[test]
fn lock_discipline_clean() {
    expect("lock_good.rs", &[]);
}

#[test]
fn unsafe_seeded_violations() {
    expect("unsafe_bad1.rs", &[("unsafe-without-safety", 4)]);
    expect("unsafe_bad2.rs", &[("unsafe-without-safety", 5)]);
}

#[test]
fn unsafe_clean() {
    expect("unsafe_good.rs", &[]);
}

#[test]
fn reasoned_allow_suppresses() {
    let a = run_fixture("allow_good.rs");
    assert!(
        a.errors.is_empty(),
        "allow must silence the finding: {:#?}",
        a.errors
    );
    assert!(a.warnings.is_empty(), "allow is used, no warning expected");
    assert_eq!(a.suppressed, 1);
    assert_eq!(a.exit_code(true), 0);
}

#[test]
fn allow_without_reason_is_an_error() {
    let a = run_fixture("allow_bad.rs");
    let got: Vec<(&str, u32)> = a.errors.iter().map(|f| (f.lint, f.line)).collect();
    assert_eq!(got, [("bad-allow", 5)]);
    assert_eq!(a.suppressed, 1, "the finding itself is still suppressed");
    assert_eq!(a.exit_code(false), 1);
}

#[test]
fn baseline_suppresses_and_reports_stale_entries() {
    let rel = "crates/analyzer/tests/fixtures/raw_publish_bad1.rs";
    let opts = Options {
        baseline: parse_baseline(&format!("raw-publish {rel}:5\nflush-order {rel}:99\n")),
    };
    let a = run_fixture_with("raw_publish_bad1.rs", &opts);
    assert!(
        a.errors.is_empty(),
        "baselined finding must not error: {:#?}",
        a.errors
    );
    assert_eq!(a.suppressed, 1);
    let stale: Vec<&str> = a.warnings.iter().map(|w| w.lint).collect();
    assert_eq!(stale, ["unused-baseline"]);
    assert_eq!(a.exit_code(false), 0);
    assert_eq!(a.exit_code(true), 1, "stale baseline fails --deny-warnings");
}
