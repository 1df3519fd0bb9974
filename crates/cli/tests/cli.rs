//! Drives the real `fptree` binary: construction failures fed by user input
//! must exit with the typed error, never a panic.

use std::process::Command;

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
