//! Integration tests for the pmemcheck-style durability checker.
//!
//! Positive direction: every real FPTree write path — single-threaded,
//! concurrent, variable-size keys, leaf groups, allocator, recovery — must
//! produce a clean [`DurabilityReport`]. Negative direction: deliberately
//! broken persist-order protocols (a removed `persist`, a commit record
//! flushed together with its operands, a straddling publish, an unpublished
//! multi-word store) must each be caught as the right violation kind.

use std::sync::Arc;

use fptree_suite::core::keys::VarKey;
use fptree_suite::core::leaf::Leaf;
use fptree_suite::core::{ConcurrentFPTree, FPTree, LeafLayout, SingleTree, TreeConfig};
use fptree_suite::pmem::{
    crash_is_injected, PmemPool, PoolOptions, RawPPtr, ViolationKind, ROOT_SLOT, USER_BASE,
};

fn checked_pool(bytes: usize) -> Arc<PmemPool> {
    Arc::new(PmemPool::create(PoolOptions::tracked(bytes).with_checker()).expect("pool"))
}

// ------------------------------------------------------------ clean paths

#[test]
fn single_tree_workload_is_clean_and_counted() {
    let pool = checked_pool(32 << 20);
    let cfg = TreeConfig::fptree()
        .with_leaf_capacity(4)
        .with_inner_fanout(4);
    let mut tree = FPTree::create(Arc::clone(&pool), cfg, ROOT_SLOT);
    for k in 0..200u64 {
        assert!(tree.insert(&k, k * 10));
    }
    for k in (0..200u64).step_by(3) {
        assert!(tree.update(&k, k * 10 + 1));
    }
    for k in (0..200u64).step_by(2) {
        assert!(tree.remove(&k));
    }
    // Counters surface through the pool stats for bench `--verbose`.
    // 200 inserts + 67 updates + 100 removes = 367 tree-level ops, plus
    // pool/tree creation and nested allocator ops.
    let snap = pool.stats().snapshot();
    assert!(
        snap.checker_ops >= 367,
        "ops not counted: {}",
        snap.checker_ops
    );
    assert!(snap.checker_events > 0);
    assert_eq!(snap.checker_violations, 0);

    let report = pool.take_durability_report();
    assert!(
        report.is_clean(),
        "single-tree workload dirty:\n{}",
        report.render()
    );
    assert!(report.ops_checked >= 367);
    assert!(report.events_recorded > 0);

    pool.stats().reset();
    assert_eq!(pool.stats().snapshot().checker_events, 0);
}

#[test]
fn var_key_grouped_tree_workload_is_clean() {
    let pool = checked_pool(32 << 20);
    let cfg = TreeConfig::fptree_var()
        .with_leaf_capacity(4)
        .with_inner_fanout(4)
        .with_leaf_group_size(2);
    let mk = |k: u64| format!("key:{k:05}").into_bytes();
    let mut tree = SingleTree::<VarKey>::create(Arc::clone(&pool), cfg, ROOT_SLOT);
    for k in 0..120u64 {
        assert!(tree.insert(&mk(k), k));
    }
    for k in (0..120u64).step_by(2) {
        assert!(tree.update(&mk(k), k + 1));
    }
    // Deep removal drains leaves, exercising FreeLeaf group retirement and
    // variable-key blob deallocation (both publish-heavy paths).
    for k in 0..100u64 {
        assert!(tree.remove(&mk(k)));
    }
    pool.assert_durability_clean();
}

#[test]
fn concurrent_tree_workload_is_clean() {
    let pool = checked_pool(32 << 20);
    let cfg = TreeConfig::fptree_concurrent()
        .with_leaf_capacity(8)
        .with_inner_fanout(8);
    let tree = Arc::new(ConcurrentFPTree::create(Arc::clone(&pool), cfg, ROOT_SLOT));
    let threads: Vec<_> = (0..4u64)
        .map(|t| {
            let tree = Arc::clone(&tree);
            std::thread::spawn(move || {
                for i in 0..150u64 {
                    let k = t * 1000 + i;
                    assert!(tree.insert(&k, k));
                    if i % 3 == 0 {
                        assert!(tree.update(&k, k + 1));
                    }
                    if i % 4 == 0 {
                        assert!(tree.remove(&k));
                    }
                }
            })
        })
        .collect();
    for th in threads {
        th.join().expect("worker");
    }
    let report = pool.take_durability_report();
    assert!(
        report.is_clean(),
        "concurrent workload dirty:\n{}",
        report.render()
    );
    assert!(report.ops_checked >= 4 * 150);
}

/// The batched commit protocol — stage many slots with plain stores, one
/// coalesced flush span, one p-atomic bitmap publish per leaf run — must
/// pass the same checker as the single-op protocol, on every variant and
/// with mid-run splits.
#[test]
fn batched_workload_is_clean_on_every_variant() {
    let entries: Vec<(u64, u64)> = (0..300u64).map(|k| ((k * 37) % 1000, k)).collect();
    let dead: Vec<u64> = entries.iter().map(|(k, _)| *k).step_by(2).collect();

    // Single-threaded, with and without leaf groups.
    for group in [0usize, 4] {
        let pool = checked_pool(32 << 20);
        let cfg = TreeConfig::fptree()
            .with_leaf_capacity(4)
            .with_inner_fanout(4)
            .with_leaf_group_size(group);
        let mut tree = FPTree::create(Arc::clone(&pool), cfg, ROOT_SLOT);
        for chunk in entries.chunks(48) {
            tree.insert_batch(chunk);
        }
        for chunk in dead.chunks(48) {
            tree.remove_batch(chunk);
        }
        let report = pool.take_durability_report();
        assert!(
            report.is_clean(),
            "batched single-tree (groups {group}) dirty:\n{}",
            report.render()
        );
    }

    // Variable keys: slot stores carry blob pointers, so batched runs also
    // cover the blob-allocation publish protocol.
    let pool = checked_pool(32 << 20);
    let cfg = TreeConfig::fptree_var()
        .with_leaf_capacity(4)
        .with_inner_fanout(4)
        .with_leaf_group_size(2);
    let mk = |k: u64| format!("key:{k:05}").into_bytes();
    let mut tree = SingleTree::<VarKey>::create(Arc::clone(&pool), cfg, ROOT_SLOT);
    let var_entries: Vec<(Vec<u8>, u64)> = entries.iter().map(|&(k, v)| (mk(k), v)).collect();
    let var_dead: Vec<Vec<u8>> = dead.iter().map(|&k| mk(k)).collect();
    for chunk in var_entries.chunks(48) {
        tree.insert_batch(chunk);
    }
    for chunk in var_dead.chunks(48) {
        tree.remove_batch(chunk);
    }
    pool.assert_durability_clean();

    // Concurrent: batched runs race single ops from other threads.
    let pool = checked_pool(32 << 20);
    let cfg = TreeConfig::fptree_concurrent()
        .with_leaf_capacity(8)
        .with_inner_fanout(8);
    let tree = Arc::new(ConcurrentFPTree::create(Arc::clone(&pool), cfg, ROOT_SLOT));
    let threads: Vec<_> = (0..4u64)
        .map(|t| {
            let tree = Arc::clone(&tree);
            std::thread::spawn(move || {
                let mine: Vec<(u64, u64)> = (0..200u64).map(|i| (t * 1000 + i, i)).collect();
                for chunk in mine.chunks(32) {
                    tree.insert_batch(chunk);
                }
                let keys: Vec<u64> = mine.iter().map(|(k, _)| *k).step_by(3).collect();
                for chunk in keys.chunks(32) {
                    tree.remove_batch(chunk);
                }
            })
        })
        .collect();
    for th in threads {
        th.join().expect("worker");
    }
    let report = pool.take_durability_report();
    assert!(
        report.is_clean(),
        "concurrent batched workload dirty:\n{}",
        report.render()
    );
}

/// Crash a batched ingest at a handful of fixed persistence events —
/// landing mid-stage, between leaf runs, and inside a mid-run split — then
/// recover under the checker; both sides must be protocol-clean.
#[test]
fn batched_recovery_is_clean_after_midrun_crash() {
    let entries: Vec<(u64, u64)> = (0..400u64).map(|k| (k, k * 3)).collect();
    for fuse in [40u64, 75, 110, 300, 900] {
        let pool = checked_pool(32 << 20);
        let cfg = TreeConfig::fptree()
            .with_leaf_capacity(4)
            .with_inner_fanout(4);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut tree = FPTree::create(Arc::clone(&pool), cfg, ROOT_SLOT);
            pool.set_crash_fuse(Some(fuse));
            for chunk in entries.chunks(64) {
                tree.insert_batch(chunk);
            }
        }));
        pool.set_crash_fuse(None);
        if let Err(e) = outcome {
            assert!(crash_is_injected(e.as_ref()), "non-injected panic");
        }
        pool.assert_durability_clean();

        let img = pool.crash_image(fuse.wrapping_mul(0x9e37_79b9));
        let pool2 = Arc::new(
            PmemPool::reopen(img, PoolOptions::tracked(0).with_checker()).expect("reopen"),
        );
        let tree = FPTree::open(Arc::clone(&pool2), ROOT_SLOT).expect("recover");
        tree.check_consistency().expect("recovered tree consistent");
        // Staged-but-unpublished slots must be invisible: every surviving
        // key is one the ingest offered, with its offered value.
        for (k, v) in tree.scan(..) {
            assert_eq!(v, k * 3, "torn value for key {k} (fuse {fuse})");
        }
        pool2.assert_durability_clean();
    }
}

// ------------------------------------------ append-buffer commit point (§5.12)

/// Overwrites every chained leaf's transient buffer digest (§5.16) with one
/// that verifies and claims `live + delta` entries — ahead of the entries
/// the crash leaves behind, or behind them. Raw pool atomics, so the
/// forgery is in every image taken afterwards; `delta = 0` keeps the run's.
fn forge_digests(pool: &PmemPool, cfg: &TreeConfig, leaves: &[u64], delta: isize) {
    let layout = LeafLayout::new(cfg, 8);
    for &off in leaves.iter().filter(|_| delta != 0) {
        Leaf::new(pool, &layout, off).digest_forge(delta);
    }
}

/// Crash a buffered single-key insert at every persistence event around its
/// one-publish commit — landing before the entry publish (the entry must be
/// invisible after recovery), inside the multi-word publish (a torn sibling
/// word must kill the checksummed tag), and after it (the entry must be
/// durable or recoverable) — on the single-threaded variant. The checker
/// must accept both sides of the crash, and recovery must be atomic: the
/// in-flight key is present-with-its-value or absent, never torn.
#[test]
fn wbuf_commit_crash_sweep_single_tree() {
    for fuse in 1..=14u64 {
        let pool = checked_pool(32 << 20);
        let cfg = TreeConfig::fptree()
            .with_leaf_capacity(8)
            .with_inner_fanout(4)
            .with_leaf_group_size(0);
        let mut tree = FPTree::create(Arc::clone(&pool), cfg, ROOT_SLOT);
        // Prime past the first-leaf setup so the fuse lands inside the
        // append itself (and, at higher fuses, inside the fold it forces).
        for k in 0..6u64 {
            assert!(tree.insert(&k, k * 10));
        }
        pool.assert_durability_clean();

        pool.set_crash_fuse(Some(fuse));
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            for k in 100..120u64 {
                tree.insert(&k, k * 10);
            }
        }));
        pool.set_crash_fuse(None);
        let crashed = outcome.is_err();
        if let Err(e) = outcome {
            assert!(crash_is_injected(e.as_ref()), "non-injected panic");
        }
        assert!(crashed, "fuse {fuse} never fired");
        pool.assert_durability_clean();

        // Each image also once with every digest forged ahead of, and once
        // behind, the entries that survive: recovery must not believe it.
        for (seed, delta) in [(1u64, 0), (42, 1), (7777, -1)] {
            forge_digests(&pool, &cfg, &tree.leaf_offsets(), delta);
            let img = pool.crash_image(seed);
            let pool2 = Arc::new(
                PmemPool::reopen(img, PoolOptions::tracked(0).with_checker()).expect("reopen"),
            );
            let tree = FPTree::open(Arc::clone(&pool2), ROOT_SLOT).expect("recover");
            tree.check_consistency().expect("recovered tree consistent");
            for k in 0..6u64 {
                assert_eq!(tree.get(&k), Some(k * 10), "primed key lost (fuse {fuse})");
            }
            // Atomicity at the commit point: each in-flight key either
            // committed with its exact value or vanished.
            for k in 100..120u64 {
                match tree.get(&k) {
                    None => {}
                    Some(v) => assert_eq!(v, k * 10, "torn buffered insert (fuse {fuse})"),
                }
            }
            pool2.assert_durability_clean();
        }
    }
}

/// The same commit-point sweep on the concurrent variant (seqlock leaves,
/// parallel recovery path).
#[test]
fn wbuf_commit_crash_sweep_concurrent_tree() {
    for fuse in 1..=14u64 {
        let pool = checked_pool(32 << 20);
        let cfg = TreeConfig::fptree_concurrent()
            .with_leaf_capacity(8)
            .with_inner_fanout(4);
        let tree = ConcurrentFPTree::create(Arc::clone(&pool), cfg, ROOT_SLOT);
        for k in 0..6u64 {
            assert!(tree.insert(&k, k * 10));
        }
        pool.assert_durability_clean();

        pool.set_crash_fuse(Some(fuse));
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            for k in 100..120u64 {
                tree.insert(&k, k * 10);
            }
        }));
        pool.set_crash_fuse(None);
        if let Err(e) = outcome {
            assert!(crash_is_injected(e.as_ref()), "non-injected panic");
        }
        pool.assert_durability_clean();

        for (seed, delta) in [(3u64, 1), (99, -1)] {
            forge_digests(&pool, &cfg, &tree.leaf_offsets(), delta);
            let img = pool.crash_image(seed);
            let pool2 = Arc::new(
                PmemPool::reopen(img, PoolOptions::tracked(0).with_checker()).expect("reopen"),
            );
            let tree = ConcurrentFPTree::open(Arc::clone(&pool2), ROOT_SLOT).expect("recover");
            tree.check_consistency().expect("recovered tree consistent");
            for k in 0..6u64 {
                assert_eq!(tree.get(&k), Some(k * 10), "primed key lost (fuse {fuse})");
            }
            for k in 100..120u64 {
                match tree.get(&k) {
                    None => {}
                    Some(v) => assert_eq!(v, k * 10, "torn buffered insert (fuse {fuse})"),
                }
            }
            pool2.assert_durability_clean();
        }
    }
}

/// Buffered single-key traffic — appends, shadowing updates, overflow
/// folds, splits of folded leaves — is protocol-clean for every buffer
/// size on both variants.
#[test]
fn wbuf_workloads_are_clean_across_buffer_sizes() {
    for wbuf in [0usize, 1, 2, 8] {
        let pool = checked_pool(32 << 20);
        let cfg = TreeConfig::fptree()
            .with_leaf_capacity(4)
            .with_inner_fanout(4)
            .with_wbuf_entries(wbuf);
        let mut tree = FPTree::create(Arc::clone(&pool), cfg, ROOT_SLOT);
        for k in 0..150u64 {
            assert!(tree.insert(&k, k));
        }
        for k in (0..150u64).step_by(2) {
            assert!(tree.update(&k, k + 1));
        }
        for k in (0..150u64).step_by(3) {
            assert!(tree.remove(&k));
        }
        let report = pool.take_durability_report();
        assert!(
            report.is_clean(),
            "single-tree wbuf={wbuf} dirty:\n{}",
            report.render()
        );

        let pool = checked_pool(32 << 20);
        let cfg = TreeConfig::fptree_concurrent()
            .with_leaf_capacity(4)
            .with_inner_fanout(4)
            .with_wbuf_entries(wbuf);
        let tree = ConcurrentFPTree::create(Arc::clone(&pool), cfg, ROOT_SLOT);
        for k in 0..150u64 {
            assert!(tree.insert(&k, k));
        }
        for k in (0..150u64).step_by(2) {
            assert!(tree.update(&k, k + 1));
        }
        for k in (0..150u64).step_by(3) {
            assert!(tree.remove(&k));
        }
        let report = pool.take_durability_report();
        assert!(
            report.is_clean(),
            "concurrent wbuf={wbuf} dirty:\n{}",
            report.render()
        );
    }
}

// ------------------------------------------------- negative: broken protocols

/// The acceptance-criterion test: an insert-shaped operation whose slot
/// `persist` was deliberately removed must be reported as a missing flush.
#[test]
fn removed_persist_is_caught_as_missing_flush() {
    let pool = checked_pool(1 << 20);
    pool.take_durability_report(); // discard pool-creation events
    let slot = USER_BASE + 1024;
    let bitmap = USER_BASE + 1024 + 128; // different cache line
    {
        let _op = pool.begin_checked_op("insert_no_persist");
        pool.write_word(slot, 0xDEAD_BEEF);
        // BUG under test: `pool.persist(slot, 8)` deliberately removed.
        pool.write_publish_word(bitmap, 1);
        pool.persist(bitmap, 8);
    }
    let report = pool.take_durability_report();
    assert!(!report.is_clean());
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.kind == ViolationKind::MissingFlush && v.offset == slot),
        "missing flush not reported:\n{}",
        report.render()
    );
}

#[test]
fn commit_flushed_with_operands_is_caught_as_unordered_publish() {
    let pool = checked_pool(1 << 20);
    pool.take_durability_report();
    let base = USER_BASE + 2048;
    {
        let _op = pool.begin_checked_op("same_persist_commit");
        pool.write_word(base, 7);
        pool.write_publish_word(base + 8, 1);
        // BUG under test: one persist covers operand and commit record, so
        // a crash can keep the commit word while losing the operand.
        pool.persist(base, 16);
    }
    let report = pool.take_durability_report();
    assert_eq!(report.total_violations, 1, "{}", report.render());
    assert_eq!(report.violations[0].kind, ViolationKind::UnorderedPublish);
}

#[test]
fn straddling_publish_is_caught_as_torn() {
    let pool = checked_pool(1 << 20);
    pool.take_durability_report();
    let base = USER_BASE + 4096;
    {
        let _op = pool.begin_checked_op("unaligned_commit");
        // An 8-byte publish at +4 straddles two p-atomic words.
        pool.write_publish_at(base + 4, &0xABCD_EF01_2345_6789u64);
        pool.persist(base, 64);
    }
    let report = pool.take_durability_report();
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.kind == ViolationKind::TornPublish),
        "torn publish not reported:\n{}",
        report.render()
    );
}

#[test]
fn multiword_store_without_commit_is_caught() {
    let pool = checked_pool(1 << 20);
    pool.take_durability_report();
    let base = USER_BASE + 8192;
    {
        let _op = pool.begin_checked_op("naked_pointer_write");
        // A 16-byte pointer written and flushed, but nothing marks it
        // committed: a crash can keep one half.
        pool.write_at(base, &RawPPtr::new(1, 0x1000));
        pool.persist(base, 16);
    }
    let report = pool.take_durability_report();
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.kind == ViolationKind::UnpublishedMultiWord),
        "unpublished multi-word store not reported:\n{}",
        report.render()
    );
}

#[test]
fn wasteful_flushes_are_counted_as_warnings() {
    let pool = checked_pool(1 << 20);
    pool.take_durability_report();
    let base = USER_BASE + 16384;
    {
        let _op = pool.begin_checked_op("flush_happy");
        pool.write_word(base, 1);
        pool.persist(base, 8);
        pool.persist(base, 8); // redundant: line already clean
        pool.persist(base + 4096, 8); // never written at all
    }
    let report = pool.take_durability_report();
    assert!(
        report.is_clean(),
        "warnings must not fail the run:\n{}",
        report.render()
    );
    assert_eq!(report.redundant_clean_flushes, 1);
    assert_eq!(report.unwritten_line_flushes, 1);
    let snap = pool.stats().snapshot();
    assert_eq!(snap.checker_redundant_flushes, 1);
    assert_eq!(snap.checker_unwritten_flushes, 1);
}

// --------------------------------------------- allocator recovery coverage

/// Crash an `allocate` at every persistence event; recovery — reopened
/// under the checker — must replay the redo log with a clean protocol.
#[test]
fn alloc_recovery_is_clean_at_every_crash_point() {
    for fuse in 0..40u64 {
        let pool = checked_pool(4 << 20);
        let slot = USER_BASE + 1024;
        let pre_slot = USER_BASE + 1056;
        // Pre-populate a free list so both alloc sources get exercised.
        pool.allocate(pre_slot, 128).expect("pre-alloc");
        pool.deallocate(pre_slot);
        pool.assert_durability_clean();

        pool.set_crash_fuse(Some(fuse));
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.allocate(slot, 128).map(|_| ())
        }));
        pool.set_crash_fuse(None);
        if let Err(e) = outcome {
            assert!(crash_is_injected(e.as_ref()), "non-injected panic");
        }
        // The interrupted op is discarded unanalyzed; nothing completed
        // after it, so the trace must still be clean.
        pool.assert_durability_clean();

        for seed in [1u64, 42] {
            let img = pool.crash_image(seed);
            let pool2 =
                PmemPool::reopen(img, PoolOptions::tracked(0).with_checker()).expect("reopen");
            let report = pool2.take_durability_report();
            assert!(
                report.is_clean(),
                "fuse={fuse} seed={seed}: allocator recovery dirty:\n{}",
                report.render()
            );
            assert!(report.ops_checked >= 1, "recovery ran outside a checked op");
        }
    }
}

/// Same exhaustive sweep for `deallocate`.
#[test]
fn dealloc_recovery_is_clean_at_every_crash_point() {
    for fuse in 0..30u64 {
        let pool = checked_pool(4 << 20);
        let slot = USER_BASE + 1024;
        pool.allocate(slot, 128).expect("alloc");
        pool.assert_durability_clean();

        pool.set_crash_fuse(Some(fuse));
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.deallocate(slot);
        }));
        pool.set_crash_fuse(None);
        if let Err(e) = outcome {
            assert!(crash_is_injected(e.as_ref()), "non-injected panic");
        }
        pool.assert_durability_clean();

        for seed in [3u64, 9] {
            let img = pool.crash_image(seed);
            let pool2 =
                PmemPool::reopen(img, PoolOptions::tracked(0).with_checker()).expect("reopen");
            let report = pool2.take_durability_report();
            assert!(
                report.is_clean(),
                "fuse={fuse} seed={seed}: free recovery dirty:\n{}",
                report.render()
            );
        }
    }
}

/// Tree-level crash + recovery under the checker at a handful of fixed
/// crash points (the proptest sweep lives in `crash_consistency.rs`).
#[test]
fn tree_recovery_is_clean_after_midsplit_crash() {
    for fuse in [60u64, 95, 130, 400] {
        let pool = checked_pool(32 << 20);
        let cfg = TreeConfig::fptree()
            .with_leaf_capacity(4)
            .with_inner_fanout(4);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut tree = FPTree::create(Arc::clone(&pool), cfg, ROOT_SLOT);
            pool.set_crash_fuse(Some(fuse));
            for k in 0..100u64 {
                tree.insert(&k, k);
            }
        }));
        pool.set_crash_fuse(None);
        if let Err(e) = outcome {
            assert!(crash_is_injected(e.as_ref()), "non-injected panic");
        }
        pool.assert_durability_clean();

        let img = pool.crash_image(fuse ^ 0x5eed);
        let pool2 = Arc::new(
            PmemPool::reopen(img, PoolOptions::tracked(0).with_checker()).expect("reopen"),
        );
        let tree = FPTree::open(Arc::clone(&pool2), ROOT_SLOT).expect("recover");
        tree.check_consistency().expect("recovered tree consistent");
        pool2.assert_durability_clean();
    }
}
