//! Functional, concurrency, and recovery tests for the concurrent FPTree.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use fptree_core::concurrent::{ConcurrentFPTree, ConcurrentFPTreeVar, ConcurrentTree};
use fptree_core::leaf::Leaf;
use fptree_core::{FixedKey, KeyKind, LeafLayout, TreeConfig, VarKey};
use fptree_pmem::{PmemPool, PoolOptions, RawPPtr, ROOT_SLOT};
use rand::prelude::*;

fn pool(mb: usize) -> Arc<PmemPool> {
    Arc::new(PmemPool::create(PoolOptions::direct(mb << 20)).unwrap())
}

fn small_cfg() -> TreeConfig {
    TreeConfig::fptree_concurrent()
        .with_leaf_capacity(4)
        .with_inner_fanout(4)
}

#[test]
fn single_thread_roundtrip() {
    let t = ConcurrentFPTree::create(pool(32), small_cfg(), ROOT_SLOT);
    for i in 0..2000u64 {
        assert!(t.insert(&i, i * 2), "insert {i}");
    }
    assert!(!t.insert(&0, 9));
    assert_eq!(t.len(), 2000);
    for i in 0..2000u64 {
        assert_eq!(t.get(&i), Some(i * 2));
    }
    assert_eq!(t.get(&99999), None);
    t.check_consistency().unwrap();
}

#[test]
fn single_thread_update_remove() {
    let t = ConcurrentFPTree::create(pool(32), small_cfg(), ROOT_SLOT);
    for i in 0..1000u64 {
        t.insert(&i, i);
    }
    for i in 0..1000u64 {
        assert!(t.update(&i, i + 7));
    }
    assert!(!t.update(&5000, 1));
    for i in (0..1000u64).step_by(2) {
        assert!(t.remove(&i));
    }
    assert!(!t.remove(&0));
    assert_eq!(t.len(), 500);
    for i in 0..1000u64 {
        assert_eq!(t.get(&i), (i % 2 == 1).then_some(i + 7));
    }
    t.check_consistency().unwrap();
    t.leak_audit().unwrap();
}

/// Regression: a buffered update of a slot-resident key must not make the
/// remove path think the leaf holds TWO live keys. With the raw
/// `count() + wbuf_count()` heuristic, removing the last distinct key took
/// the in-place path and left an empty leaf linked into the chain.
#[test]
fn remove_after_buffered_update_unlinks_dying_leaves() {
    let t = ConcurrentFPTree::create(pool(32), small_cfg().with_wbuf_entries(4), ROOT_SLOT);
    for i in 0..200u64 {
        assert!(t.insert(&i, i));
    }
    // Descending drain, updating each key just before its removal: when a
    // leaf is down to one distinct key, the update parks in the append
    // buffer over the key's slot — the exact state the dying check must
    // still count as ONE.
    for i in (0..200u64).rev() {
        assert!(t.update(&i, i + 1000));
        assert!(t.remove(&i), "remove {i}");
        t.check_consistency().unwrap();
    }
    assert!(t.is_empty());
    t.leak_audit().unwrap();
}

#[test]
fn range_scan_single_thread() {
    let t = ConcurrentFPTree::create(pool(32), small_cfg(), ROOT_SLOT);
    for i in (0..500u64).step_by(5) {
        t.insert(&i, i);
    }
    let r = t.range(&100, &200);
    let keys: Vec<u64> = r.iter().map(|(k, _)| *k).collect();
    let expect: Vec<u64> = (0..500)
        .step_by(5)
        .filter(|k| (100..=200).contains(k))
        .collect();
    assert_eq!(keys, expect);
}

#[test]
fn drain_and_refill() {
    let t = ConcurrentFPTree::create(pool(32), small_cfg(), ROOT_SLOT);
    for round in 0..3u64 {
        for i in 0..400u64 {
            assert!(t.insert(&i, i + round));
        }
        let mut order: Vec<u64> = (0..400).collect();
        order.shuffle(&mut StdRng::seed_from_u64(round));
        for i in order {
            assert!(t.remove(&i), "round {round} remove {i}");
        }
        assert!(t.is_empty());
        t.check_consistency().unwrap();
        t.leak_audit().unwrap();
    }
}

#[test]
fn var_keys_single_thread() {
    let cfg = TreeConfig::fptree_concurrent_var()
        .with_leaf_capacity(4)
        .with_inner_fanout(4);
    let t = ConcurrentFPTreeVar::create(pool(64), cfg, ROOT_SLOT);
    for i in 0..600u64 {
        assert!(t.insert(&format!("user:{i:05}").into_bytes(), i));
    }
    for i in 0..600u64 {
        assert_eq!(t.get(&format!("user:{i:05}").into_bytes()), Some(i));
    }
    for i in (0..600u64).step_by(3) {
        assert!(t.remove(&format!("user:{i:05}").into_bytes()));
    }
    t.check_consistency().unwrap();
    t.leak_audit().unwrap();
}

#[test]
fn concurrent_inserts_disjoint_ranges() {
    let t = Arc::new(ConcurrentFPTree::create(pool(128), small_cfg(), ROOT_SLOT));
    let threads = 8;
    let per = 2000u64;
    let handles: Vec<_> = (0..threads)
        .map(|tid| {
            let t = Arc::clone(&t);
            std::thread::spawn(move || {
                let base = tid as u64 * per;
                for i in 0..per {
                    assert!(t.insert(&(base + i), base + i));
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(t.len(), threads as usize * per as usize);
    for k in 0..threads as u64 * per {
        assert_eq!(t.get(&k), Some(k), "key {k}");
    }
    t.check_consistency().unwrap();
}

#[test]
fn concurrent_mixed_workload_with_verification() {
    // Each thread owns a key stripe (key % threads == tid) and maintains a
    // local model; cross-thread reads happen constantly via get.
    let t = Arc::new(ConcurrentFPTree::create(pool(128), small_cfg(), ROOT_SLOT));
    let threads = 8u64;
    let handles: Vec<_> = (0..threads)
        .map(|tid| {
            let t = Arc::clone(&t);
            std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(tid);
                let mut model = std::collections::HashMap::new();
                for op in 0..4000 {
                    let key = tid + threads * rng.gen_range(0..500);
                    match op % 4 {
                        0 => {
                            let inserted = t.insert(&key, key + 1);
                            assert_eq!(
                                inserted,
                                !model.contains_key(&key),
                                "insert {key} disagreed with model"
                            );
                            model.entry(key).or_insert(key + 1);
                        }
                        1 => {
                            let v = key + 2;
                            let updated = t.update(&key, v);
                            assert_eq!(updated, model.contains_key(&key));
                            if updated {
                                model.insert(key, v);
                            }
                        }
                        2 => {
                            let removed = t.remove(&key);
                            assert_eq!(removed, model.remove(&key).is_some());
                        }
                        _ => {
                            assert_eq!(t.get(&key), model.get(&key).copied(), "get {key}");
                            // Read someone else's stripe too (no assertion
                            // on value, just must not crash or hang).
                            let other = (key + 1) % (threads * 500);
                            let _ = t.get(&other);
                        }
                    }
                }
                model
            })
        })
        .collect();
    let mut expected = std::collections::HashMap::new();
    for h in handles {
        expected.extend(h.join().unwrap());
    }
    assert_eq!(t.len(), expected.len());
    for (k, v) in &expected {
        assert_eq!(t.get(k), Some(*v), "final check key {k}");
    }
    t.check_consistency().unwrap();
    t.leak_audit().unwrap();
}

#[test]
fn concurrent_readers_during_writes_never_see_garbage() {
    let t = Arc::new(ConcurrentFPTree::create(pool(128), small_cfg(), ROOT_SLOT));
    // Values are always key*10+generation; readers must only ever observe
    // such values.
    let stop = Arc::new(AtomicU64::new(0));
    let writer = {
        let (t, stop) = (Arc::clone(&t), Arc::clone(&stop));
        std::thread::spawn(move || {
            for generation in 0..40u64 {
                for k in 0..500u64 {
                    if generation == 0 {
                        t.insert(&k, k * 100);
                    } else {
                        t.update(&k, k * 100 + generation);
                    }
                }
            }
            stop.store(1, Ordering::Release);
        })
    };
    let readers: Vec<_> = (0..4)
        .map(|_| {
            let (t, stop) = (Arc::clone(&t), Arc::clone(&stop));
            std::thread::spawn(move || {
                let mut reads = 0u64;
                while stop.load(Ordering::Acquire) == 0 {
                    let k = reads % 500;
                    if let Some(v) = t.get(&k) {
                        assert_eq!(v / 100, k, "torn value {v} for key {k}");
                        assert!(v % 100 < 40, "impossible generation in {v}");
                    }
                    reads += 1;
                }
                reads
            })
        })
        .collect();
    writer.join().unwrap();
    for r in readers {
        assert!(r.join().unwrap() > 0);
    }
    t.check_consistency().unwrap();
}

/// Readers beside appenders and folders on a handful of hot keys in ONE
/// leaf (§5.16): every update is a buffer append, every ninth a fold, and
/// each rewrites the transient digest the readers probe through. A reader
/// must never miss a key (none is ever removed), never get another key's
/// value, and — each key has one writer — never see a value go backwards.
#[test]
fn readers_beside_appenders_and_folders_on_hot_keys() {
    const KEYS: u64 = 16;
    const UPDATES: u64 = 20_000;
    let t = Arc::new(ConcurrentFPTree::create(
        pool(32),
        TreeConfig::fptree_concurrent(),
        ROOT_SLOT,
    ));
    let value = |k: u64, version: u64| (k << 32) | version;
    for k in 0..KEYS {
        assert!(t.insert(&k, value(k, 0)));
    }
    assert_eq!(t.leaf_offsets().len(), 1, "all hot keys share a leaf");
    let writers = 2u64;
    let done = Arc::new(AtomicU64::new(0));
    let start = Arc::new(std::sync::Barrier::new(writers as usize + 3));
    let writer_handles: Vec<_> = (0..writers)
        .map(|w| {
            let (t, done, start) = (Arc::clone(&t), Arc::clone(&done), Arc::clone(&start));
            std::thread::spawn(move || {
                start.wait();
                for version in 1..=UPDATES {
                    // Writer w owns the keys congruent to w.
                    let k = (version * writers + w) % KEYS;
                    assert!(t.update(&k, value(k, version)));
                }
                done.fetch_add(1, Ordering::Release);
            })
        })
        .collect();
    let reader_handles: Vec<_> = (0..3u64)
        .map(|r| {
            let (t, done, start) = (Arc::clone(&t), Arc::clone(&done), Arc::clone(&start));
            std::thread::spawn(move || {
                let mut newest = [0u64; KEYS as usize];
                let mut reads = r;
                start.wait();
                while done.load(Ordering::Acquire) < writers {
                    let k = reads % KEYS;
                    let v = t
                        .get(&k)
                        .unwrap_or_else(|| panic!("hot key {k} went missing"));
                    assert_eq!(v >> 32, k, "key {k} answered with a foreign value {v:#x}");
                    let version = v & 0xFFFF_FFFF;
                    assert!(
                        version >= newest[k as usize],
                        "key {k} went back from version {} to {version}",
                        newest[k as usize]
                    );
                    newest[k as usize] = version;
                    // Absent keys sharing the leaf stay absent.
                    assert_eq!(t.get(&(KEYS + k)), None);
                    reads += 1;
                }
            })
        })
        .collect();
    for h in writer_handles.into_iter().chain(reader_handles) {
        h.join().unwrap();
    }
    t.check_consistency().unwrap();
}

#[test]
fn concurrent_var_key_stress() {
    let cfg = TreeConfig::fptree_concurrent_var()
        .with_leaf_capacity(8)
        .with_inner_fanout(8);
    let t = Arc::new(ConcurrentFPTreeVar::create(pool(256), cfg, ROOT_SLOT));
    let threads = 6u64;
    let handles: Vec<_> = (0..threads)
        .map(|tid| {
            let t = Arc::clone(&t);
            std::thread::spawn(move || {
                for i in 0..1500u64 {
                    let key = format!("t{tid}:{i:05}").into_bytes();
                    assert!(t.insert(&key, i));
                    if i % 3 == 0 {
                        assert!(t.update(&key, i + 1));
                    }
                    if i % 5 == 0 {
                        assert!(t.remove(&key));
                    }
                    // Constant cross-stripe reads.
                    let other = format!("t{}:{:05}", (tid + 1) % threads, i / 2).into_bytes();
                    let _ = t.get(&other);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    t.check_consistency().unwrap();
    t.leak_audit().unwrap();
}

#[test]
fn recovery_after_clean_shutdown() {
    let p = Arc::new(PmemPool::create(PoolOptions::tracked(64 << 20)).unwrap());
    let t = ConcurrentFPTree::create(Arc::clone(&p), small_cfg(), ROOT_SLOT);
    for i in 0..800u64 {
        t.insert(&i, i * 3);
    }
    for i in (0..800u64).step_by(4) {
        t.remove(&i);
    }
    let n = t.len();
    drop(t);
    let img = p.clean_image();
    let p2 = Arc::new(PmemPool::reopen(img, PoolOptions::tracked(0)).unwrap());
    let t2 = ConcurrentFPTree::open(Arc::clone(&p2), ROOT_SLOT).expect("recover");
    assert_eq!(t2.len(), n);
    for i in 0..800u64 {
        assert_eq!(t2.get(&i), (i % 4 != 0).then_some(i * 3));
    }
    t2.check_consistency().unwrap();
    t2.leak_audit().unwrap();
}

#[test]
fn crash_recovery_concurrent_tree() {
    // Crash injection on the concurrent tree run single-threaded (the crash
    // fuse panics whichever thread trips it; single-threaded keeps the
    // test deterministic).
    for fuse in (0..120u64).step_by(3) {
        let p = Arc::new(PmemPool::create(PoolOptions::tracked(64 << 20)).unwrap());
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let t = ConcurrentFPTree::create(Arc::clone(&p), small_cfg(), ROOT_SLOT);
            p.set_crash_fuse(Some(100 + fuse * 11));
            for i in 0..60u64 {
                t.insert(&i, i);
            }
            for i in (0..60u64).step_by(3) {
                t.remove(&i);
            }
            for i in (1..60u64).step_by(3) {
                t.update(&i, i + 100);
            }
        }));
        p.set_crash_fuse(None);
        if result.is_ok() {
            continue;
        }
        assert!(fptree_pmem::crash_is_injected(result.unwrap_err().as_ref()));
        for seed in [5u64, 23] {
            let img = p.crash_image(seed);
            let p2 = Arc::new(PmemPool::reopen(img, PoolOptions::tracked(0)).unwrap());
            let t2 = ConcurrentFPTree::open(Arc::clone(&p2), ROOT_SLOT).expect("recover");
            t2.check_consistency()
                .unwrap_or_else(|e| panic!("fuse {fuse} seed {seed}: {e}"));
            // Values must remain bound to their keys.
            for (k, v) in t2.range(&0, &1000) {
                assert!(
                    v == k || v == k + 100,
                    "fuse {fuse}: key {k} has foreign value {v}"
                );
            }
        }
    }
}

#[test]
fn htm_stats_report_fallbacks_under_contention() {
    let t = Arc::new(ConcurrentFPTree::create(pool(64), small_cfg(), ROOT_SLOT));
    // Hammer a single leaf from many threads to force aborts.
    let handles: Vec<_> = (0..8)
        .map(|tid: u64| {
            let t = Arc::clone(&t);
            std::thread::spawn(move || {
                for i in 0..2000u64 {
                    if tid.is_multiple_of(2) {
                        // Growing keyspace guarantees splits, hence
                        // exclusive-lock acquisitions.
                        t.insert(&(tid * 10_000 + i), i);
                        if i.is_multiple_of(3) {
                            t.remove(&(tid * 10_000 + i));
                        }
                    } else {
                        let _ = t.get(&(i % 64));
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let (attempts, _aborts, _fallbacks, writes) = t.htm_stats();
    assert!(attempts > 0);
    assert!(writes > 0, "structural ops must have taken the lock");
}

/// Generic helper used by both key kinds to test open() key-kind mismatch.
#[test]
fn open_checks_key_kind() {
    let p = Arc::new(PmemPool::create(PoolOptions::tracked(32 << 20)).unwrap());
    let t = ConcurrentFPTree::create(Arc::clone(&p), small_cfg(), ROOT_SLOT);
    drop(t);
    let img = p.clean_image();
    let p2 = Arc::new(PmemPool::reopen(img, PoolOptions::tracked(0)).unwrap());
    let r = ConcurrentTree::<fptree_core::VarKey>::open(p2, ROOT_SLOT);
    assert!(matches!(r, Err(fptree_core::Error::Corrupt { .. })));
}

/// The single-threaded and concurrent trees must agree on semantics.
#[test]
fn agrees_with_single_threaded_tree() {
    let pc = pool(64);
    let ps = pool(64);
    let tc = ConcurrentFPTree::create(pc, small_cfg(), ROOT_SLOT);
    let mut ts = fptree_core::FPTree::create(
        ps,
        TreeConfig::fptree()
            .with_leaf_capacity(4)
            .with_inner_fanout(4),
        ROOT_SLOT,
    );
    let mut rng = StdRng::seed_from_u64(99);
    for _ in 0..5000 {
        let k = rng.gen_range(0..800u64);
        match rng.gen_range(0..4) {
            0 => assert_eq!(tc.insert(&k, k), ts.insert(&k, k)),
            1 => assert_eq!(tc.update(&k, k + 1), ts.update(&k, k + 1)),
            2 => assert_eq!(tc.remove(&k), ts.remove(&k)),
            _ => assert_eq!(tc.get(&k), ts.get(&k)),
        }
    }
    assert_eq!(tc.len(), ts.len());
    tc.check_consistency().unwrap();
    ts.check_consistency().unwrap();
}

/// Regression: `check_consistency` used to skip checks the single-threaded
/// tree performs. Both corruptions below are planted with raw `Leaf` writes
/// and passed silently before the two checkers were unified.
#[test]
fn check_consistency_rejects_duplicate_slots_and_dead_slot_key_refs() {
    // (a) The same key valid in two slots. The merged view dedups it, so
    // neither the entry count nor reachability notices.
    let cfg = small_cfg().with_wbuf_entries(0);
    let t = ConcurrentFPTree::create(pool(8), cfg, ROOT_SLOT);
    t.insert(&1, 10);
    t.insert(&2, 20);
    t.check_consistency().unwrap();
    let layout = LeafLayout::new(t.config(), FixedKey::SLOT_SIZE);
    let leaf = Leaf::new(t.pool(), &layout, t.leaf_offsets()[0]);
    let dup = leaf.first_zero_slot().unwrap();
    FixedKey::write_slot(t.pool(), leaf.key_off(dup), &1);
    leaf.set_value(dup, 10);
    leaf.set_fingerprint(dup, FixedKey::fingerprint(&1));
    leaf.persist_slot(dup);
    leaf.persist_fingerprint(dup);
    leaf.commit_bitmap(leaf.bitmap() | (1 << dup));
    let err = t.check_consistency().unwrap_err();
    assert!(err.contains("duplicate keys"), "{err}");

    // (b) A dead variable-key slot still referencing a key blob (what an
    // un-audited crashed update leaves behind: a leak, or a double free
    // once the live copy is removed).
    let cfg = small_cfg().with_wbuf_entries(0);
    let t = ConcurrentFPTreeVar::create(pool(8), cfg, ROOT_SLOT);
    t.insert(&b"alpha".to_vec(), 1);
    t.check_consistency().unwrap();
    let layout = LeafLayout::new(t.config(), VarKey::SLOT_SIZE);
    let leaf = Leaf::new(t.pool(), &layout, t.leaf_offsets()[0]);
    let live = leaf.bitmap().trailing_zeros() as usize;
    let blob: RawPPtr = t.pool().read_at(leaf.key_off(live));
    let dead = leaf.first_zero_slot().unwrap();
    t.pool().write_at(leaf.key_off(dead), &blob);
    t.pool().persist(leaf.key_off(dead), VarKey::SLOT_SIZE);
    let err = t.check_consistency().unwrap_err();
    assert!(err.contains("dead slot references a key"), "{err}");
}

/// The expected-value guard compares against the merged newest value, so
/// `update_if` takes the same path as `update` — for fixed-size keys the
/// one-persist append, instead of force-folding first — and a stale
/// `expected` writes nothing.
#[test]
fn update_if_appends_like_update_and_guards_on_the_buffered_value() {
    let stats = |t: &ConcurrentFPTree| {
        let s = t.pool().stats().snapshot();
        (s.persist_calls, s.flushed_lines)
    };
    // Same leaf state, same entry index: one tree per flavour. Default
    // leaves carry 8 buffer entries, plenty of room for these appends.
    let fresh = || {
        let t = ConcurrentFPTree::create(pool(8), TreeConfig::fptree_concurrent(), ROOT_SLOT);
        t.insert(&7, 1);
        t
    };
    let delta = |t: &ConcurrentFPTree, op: fn(&ConcurrentFPTree) -> bool| {
        let before = stats(t);
        assert!(op(t));
        let after = stats(t);
        (after.0 - before.0, after.1 - before.1)
    };
    let plain = delta(&fresh(), |t| t.update(&7, 2));
    let t = fresh();
    let guarded = delta(&t, |t| t.update_if(&7, 1, 2));
    assert_eq!(plain.0, 1, "one entry publish, one persist");
    assert_eq!(guarded, plain);
    assert!(t.update_if(&7, 2, 3));
    assert_eq!(t.get(&7), Some(3));

    // The older buffered values 1 and 2 are stale: the newest is 3.
    let before = stats(&t);
    assert!(!t.update_if(&7, 1, 9));
    assert!(!t.update_if(&7, 2, 9));
    assert!(!t.remove_if(&7, 2));
    assert_eq!(stats(&t), before, "a failed guard must not write");
    assert_eq!(t.get(&7), Some(3));
    assert!(t.remove_if(&7, 3));
    assert_eq!(t.get(&7), None);
    t.check_consistency().unwrap();

    // Variable-size keys: appending an update would allocate a second key
    // blob, so both flavours move the existing blob's pointer instead.
    let t = ConcurrentFPTreeVar::create(pool(8), TreeConfig::fptree_concurrent_var(), ROOT_SLOT);
    let key = b"alpha".to_vec();
    t.insert(&key, 1);
    let before = t.pool().stats().snapshot();
    assert!(t.update(&key, 2));
    assert!(t.update_if(&key, 2, 3));
    let after = t.pool().stats().snapshot();
    assert_eq!(
        (after.allocs, after.deallocs),
        (before.allocs, before.deallocs)
    );
    assert_eq!(t.get(&key), Some(3));
    t.check_consistency().unwrap();
    t.leak_audit().unwrap();
}
