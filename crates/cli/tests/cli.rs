//! Drives the real `fptree` binary: construction failures fed by user input
//! must exit with the typed error, never a panic; shell and one-shot
//! sessions must round-trip through the pool files they leave behind.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::Arc;

use fptree_core::{FPTreeVar, TreeConfig};
use fptree_pmem::{PmemPool, PoolOptions, ROOT_SLOT};

#[test]
fn oversharded_pool_reports_pool_full_instead_of_panicking() {
    // 256 MiB / 16000 shards leaves ~16 KiB per pool: enough for the pool
    // layer, too small for a shard's metadata block + first leaf.
    let dir = std::env::temp_dir().join(format!("fptree-cli-it-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_fptree"))
        .args(["--shards", "16000"])
        .arg(dir.join("new.pool"))
        .args(["put", "a", "b"])
        .output()
        .unwrap();
    std::fs::remove_dir_all(&dir).ok();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    let msg = "fptree: creating tree: pool of shard 0 is full: need ";
    assert!(stderr.contains(msg), "stderr: {stderr}");
    assert!(stderr.contains(" bytes, "), "stderr: {stderr}");
}

/// A fresh scratch directory per test (tests run in parallel).
fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fptree-cli-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs the binary with `args`, feeding `stdin`; returns stdout after
/// asserting a clean exit.
fn fptree(args: &[&str], base: &Path, command: &[&str], stdin: &str) -> String {
    let (code, stdout, stderr) = run(args, base, command, stdin);
    assert_eq!(code, Some(0), "stderr: {stderr}");
    stdout
}

/// One-shot mode for a command the shell must refuse: exit code 2, no
/// panic; returns stdout.
fn rejected(base: &Path, command: &str) -> String {
    let words: Vec<&str> = command.split_whitespace().collect();
    let (code, stdout, _) = run(&[], base, &words, "");
    assert_eq!(code, Some(2), "`{command}` must be rejected: {stdout}");
    stdout
}

/// Runs the binary with `args`, feeding `stdin`; returns the exit code,
/// stdout and stderr after asserting that nothing panicked.
fn run(args: &[&str], base: &Path, command: &[&str], stdin: &str) -> (Option<i32>, String, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_fptree"))
        .args(args)
        .arg(base)
        .args(command)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    // Feed stdin from a thread so a long session cannot fill the stdout
    // pipe while its input is still being written.
    let mut input = child.stdin.take().unwrap();
    let stdin = stdin.to_owned();
    let writer = std::thread::spawn(move || input.write_all(stdin.as_bytes()));
    let out = child.wait_with_output().unwrap();
    writer.join().unwrap().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    (
        out.status.code(),
        String::from_utf8(out.stdout).unwrap(),
        stderr,
    )
}

/// One-shot mode: `fptree <base> <command...>`.
fn one_shot(base: &Path, command: &str) -> String {
    let words: Vec<&str> = command.split_whitespace().collect();
    fptree(&[], base, &words, "")
}

/// Shell mode over stdin; `quit` saves.
fn shell(args: &[&str], base: &Path, lines: &[&str]) -> String {
    fptree(args, base, &[], &(lines.join("\n") + "\nquit\n"))
}

/// The `SCM in use` byte counts `stats` prints, one per shard.
fn scm_in_use(stats: &str) -> Vec<u64> {
    stats
        .lines()
        .filter_map(|l| l.split("SCM in use: ").nth(1))
        .map(|s| s.split(' ').next().unwrap().parse().unwrap())
        .collect()
}

fn assert_check_is_clean(base: &Path) {
    assert_eq!(one_shot(base, "check"), "consistent\nleak-free\n");
}

fn round_trip(args: &[&str], dir: &Path) {
    let base = dir.join("kv.pool");
    let out = shell(
        args,
        &base,
        &[
            "put a 1",
            "put b 2",
            "put c 3",
            "put a 10",
            "update b 20",
            "update zz 5",
            "del c",
            "del c",
            "get a",
        ],
    );
    for answer in [
        "inserted",
        "updated",
        "(key not found)",
        "deleted",
        "(not found)",
        "a -> 10",
        "saved 2 keys",
    ] {
        assert!(out.contains(answer), "missing {answer:?} in:\n{out}");
    }

    // Reopen in fresh processes: every answer comes back from recovery.
    assert_eq!(one_shot(&base, "get a"), "a -> 10\n");
    assert_eq!(one_shot(&base, "get b"), "b -> 20\n");
    assert_eq!(one_shot(&base, "get c"), "(not found)\n");
    assert_eq!(one_shot(&base, "put d 4"), "inserted\n");
    assert_eq!(one_shot(&base, "update d 40"), "updated\n");
    assert_eq!(one_shot(&base, "range a c"), "a -> 10\nb -> 20\n");
    assert_eq!(one_shot(&base, "range b"), "b -> 20\nd -> 40\n");
    assert_eq!(one_shot(&base, "scan 2"), "a -> 10\nb -> 20\n");
    assert_eq!(one_shot(&base, "scan b 5"), "b -> 20\nd -> 40\n");
    assert_eq!(one_shot(&base, "del a"), "deleted\n");
    assert_eq!(one_shot(&base, "scan"), "b -> 20\nd -> 40\n");
    assert_check_is_clean(&base);
}

#[test]
fn one_pool_round_trips_through_the_plain_file() {
    let dir = temp_dir("one");
    round_trip(&[], &dir);
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    files.sort();
    assert_eq!(files, ["kv.pool"]);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn three_shards_round_trip_through_the_shard_family() {
    let dir = temp_dir("three");
    round_trip(&["--shards", "3"], &dir);
    let base = dir.join("kv.pool");
    assert!(!base.exists());
    assert_eq!(fptree_pmem::shard_file_count(&base), 3);
    assert_eq!(scm_in_use(&one_shot(&base, "stats")).len(), 3);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn overwrites_reuse_their_space_and_leak_nothing() {
    let dir = temp_dir("overwrite");
    let base = dir.join("hot.pool");
    let puts = |range: std::ops::Range<u32>| -> Vec<String> {
        range.map(|i| format!("put hot {i}")).collect()
    };
    let mut lines = puts(0..10);
    lines.push("stats".into());
    lines.extend(puts(10..2000));
    lines.push("stats".into());
    lines.push("check".into());
    let lines: Vec<&str> = lines.iter().map(String::as_str).collect();
    let out = shell(&[], &base, &lines);
    let scm = scm_in_use(&out);
    assert_eq!(scm.len(), 2, "{out}");
    assert_eq!(scm[0], scm[1], "SCM grew under overwrites:\n{out}");
    assert!(out.contains("consistent\nleak-free\n"), "{out}");
    assert_eq!(one_shot(&base, "get hot"), "hot -> 1999\n");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn single_tree_pool_file_opens_and_answers() {
    let dir = temp_dir("legacy");
    let base = dir.join("legacy.pool");
    {
        let pool = Arc::new(PmemPool::create(PoolOptions::direct(8 << 20)).unwrap());
        let mut tree = FPTreeVar::create(Arc::clone(&pool), TreeConfig::fptree_var(), ROOT_SLOT);
        for k in 0..300u64 {
            tree.insert(&format!("key{k:03}").into_bytes(), k * 3);
        }
        pool.save(&base).unwrap();
    }
    assert_eq!(one_shot(&base, "get key123"), "key123 -> 369\n");
    assert_eq!(one_shot(&base, "get key300"), "(not found)\n");
    assert_check_is_clean(&base);
    assert_eq!(one_shot(&base, "put key000 7"), "updated\n");
    assert_eq!(one_shot(&base, "get key000"), "key000 -> 7\n");
    assert!(base.exists() && fptree_pmem::shard_file_count(&base) == 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn non_numeric_value_is_rejected_and_the_session_goes_on() {
    let dir = temp_dir("badvalue");
    let base = dir.join("v.pool");
    let out = shell(
        &[],
        &base,
        &[
            "put k 1",
            "put k notanumber",
            "update k -3",
            "put j 18446744073709551616",
            "put j",
            "get k",
            "get j",
        ],
    );
    assert_eq!(out.matches("error:").count(), 4, "{out}");
    assert!(out.contains("k -> 1\n"), "{out}");
    assert!(out.contains("(not found)\n"), "{out}");
    assert_eq!(rejected(&base, "put k x").lines().count(), 1);
    assert_eq!(one_shot(&base, "scan"), "k -> 1\n");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn one_shot_rejections_exit_non_zero_and_misses_do_not() {
    let dir = temp_dir("exitcode");
    let base = dir.join("v.pool");
    assert_eq!(one_shot(&base, "put k 1"), "inserted\n");
    assert!(rejected(&base, "frobnicate k").contains("unknown command"));
    assert!(rejected(&base, "put").contains("unknown command"));
    assert!(rejected(&base, "update k -1").contains("error:"));
    assert_eq!(one_shot(&base, "get nope"), "(not found)\n");
    assert_eq!(one_shot(&base, "del nope"), "(not found)\n");
    assert_eq!(one_shot(&base, "update nope 3"), "(key not found)\n");
    assert_eq!(one_shot(&base, "scan"), "k -> 1\n");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_one_key_pool_file_is_small_and_reopens_at_full_capacity() {
    let dir = temp_dir("small");
    let base = dir.join("v.pool");
    assert_eq!(one_shot(&base, "put alpha 7"), "inserted\n");
    let bytes = std::fs::metadata(&base).unwrap().len();
    assert!(bytes < 1 << 20, "a one-key pool file is {bytes} bytes");
    let pool = PmemPool::load(&base, PoolOptions::direct(0)).unwrap();
    assert_eq!(pool.capacity(), 256 << 20);
    assert_eq!(one_shot(&base, "get alpha"), "alpha -> 7\n");
    assert_check_is_clean(&base);
    std::fs::remove_dir_all(&dir).ok();
}

/// `stats` on a pool file whose length is intact but one of whose block
/// headers is damaged reports that shard's heap-walk error in its place,
/// still reports the healthy shard, and exits 1 in one-shot mode.
#[test]
fn stats_reports_a_damaged_block_header_instead_of_panicking() {
    let dir = temp_dir("damaged");
    let base = dir.join("v.pool");
    fptree(&["--shards", "2"], &base, &["put", "alpha", "7"], "");
    let shard0 = dir.join("v.pool.shard0");
    let mut image = std::fs::read(&shard0).unwrap();
    // The tag word of the heap's first block header (`USER_BASE`).
    let tag = fptree_pmem::USER_BASE as usize;
    assert_ne!(
        image[tag..tag + 8],
        [0; 8],
        "a block header at the heap start"
    );
    image[tag..tag + 8].fill(0);
    std::fs::write(&shard0, &image).unwrap();
    assert_eq!(one_shot(&base, "get alpha"), "alpha -> 7\n");
    let (code, stdout, _) = run(&[], &base, &["stats"], "");
    assert_eq!(code, Some(1), "stdout: {stdout}");
    assert!(
        stdout.contains("shard 0:      error: heap walk failed"),
        "{stdout}"
    );
    assert_eq!(
        scm_in_use(&stdout).len(),
        1,
        "shard 1 still reports: {stdout}"
    );
    // The interactive shell prints the same and goes on.
    let out = shell(&[], &base, &["stats", "get alpha"]);
    assert!(
        out.contains("heap walk failed") && out.contains("alpha -> 7"),
        "{out}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// `put` and `update` take keys up to `MAX_KEY_BYTES` (what the wire
/// protocol and every byte-string index seam accept) and refuse a longer
/// one before it reaches the tree: one-shot mode exits 2 and the pool
/// keeps only what was written before.
#[test]
fn put_and_update_refuse_keys_longer_than_the_limit() {
    let dir = temp_dir("longkey");
    let base = dir.join("v.pool");
    let (fits, long) = ("a".repeat(250), "b".repeat(251));
    assert_eq!(one_shot(&base, &format!("put {fits} 1")), "inserted\n");
    assert_eq!(one_shot(&base, &format!("update {fits} 2")), "updated\n");
    let refusal = "error: key of 251 bytes exceeds the 250-byte limit\n";
    assert_eq!(rejected(&base, &format!("put {long} 3")), refusal);
    assert_eq!(rejected(&base, &format!("update {long} 3")), refusal);
    assert_eq!(one_shot(&base, &format!("get {long}")), "(not found)\n");
    assert_eq!(one_shot(&base, "scan"), format!("{fits} -> 2\n"));
    assert_check_is_clean(&base);
    std::fs::remove_dir_all(&dir).ok();
}

/// `check` over a pool holding a block the tree does not own prints
/// `LEAKED` and exits 1 in one-shot mode; the shell prints the same and
/// goes on.
#[test]
fn check_fails_on_a_leaked_block() {
    let dir = temp_dir("leaked");
    let base = dir.join("v.pool");
    {
        let pool = Arc::new(PmemPool::create(PoolOptions::direct(8 << 20)).unwrap());
        // The tree's create overwrites the root slot's pointer to this
        // block, so nothing reaches it any more.
        pool.allocate(ROOT_SLOT, 64).unwrap();
        let mut tree = FPTreeVar::create(Arc::clone(&pool), TreeConfig::fptree_var(), ROOT_SLOT);
        tree.insert(&b"alpha".to_vec(), 7);
        pool.save(&base).unwrap();
    }
    let (code, stdout, _) = run(&[], &base, &["check"], "");
    assert_eq!(code, Some(1), "stdout: {stdout}");
    assert!(
        stdout.starts_with("consistent\nLEAKED: "),
        "stdout: {stdout}"
    );
    let out = shell(&[], &base, &["check", "get alpha"]);
    assert!(
        out.contains("LEAKED: ") && out.contains("alpha -> 7"),
        "{out}"
    );
    std::fs::remove_dir_all(&dir).ok();
}
