//! Tests for the ordered range-scan subsystem: bound handling on the
//! single-threaded trees, and seqlock-validated scans racing writers on
//! the concurrent tree.

use std::collections::BTreeMap;
use std::ops::Bound;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use fptree_core::concurrent::{ConcurrentFPTree, ConcurrentTree};
use fptree_core::keys::FixedKey;
use fptree_core::{FPTree, FPTreeVar, TreeConfig};
use fptree_pmem::{PmemPool, PoolOptions, RawPPtr, ROOT_SLOT};
use rand::prelude::*;

fn pool(mb: usize) -> Arc<PmemPool> {
    Arc::new(PmemPool::create(PoolOptions::direct(mb << 20)).unwrap())
}

fn small_cfg() -> TreeConfig {
    TreeConfig::fptree()
        .with_leaf_capacity(4)
        .with_inner_fanout(4)
        .with_leaf_group_size(4)
}

fn conc_cfg() -> TreeConfig {
    TreeConfig::fptree_concurrent()
        .with_leaf_capacity(4)
        .with_inner_fanout(4)
}

/// Every bound combination agrees with `BTreeMap::range` on a tree whose
/// keys land mid-leaf, at leaf boundaries, and past the ends.
#[test]
fn single_tree_bounds_match_btreemap() {
    let mut t = FPTree::create(pool(32), small_cfg(), ROOT_SLOT);
    let mut model = BTreeMap::new();
    // Sparse keys so probe points fall between keys too.
    for i in 0..400u64 {
        let k = i * 3;
        assert!(t.insert(&k, k + 1));
        model.insert(k, k + 1);
    }
    let probes = [0u64, 1, 2, 3, 29, 30, 31, 597, 598, 1196, 1197, 2000];
    for &lo in &probes {
        for &hi in &probes {
            for (lo_b, hi_b) in [
                (Bound::Included(lo), Bound::Included(hi)),
                (Bound::Included(lo), Bound::Excluded(hi)),
                (Bound::Excluded(lo), Bound::Included(hi)),
                (Bound::Excluded(lo), Bound::Excluded(hi)),
                (Bound::Included(lo), Bound::Unbounded),
                (Bound::Unbounded, Bound::Excluded(hi)),
            ] {
                let got: Vec<(u64, u64)> = t.scan((lo_b, hi_b)).collect();
                // BTreeMap::range panics on inverted bounds; the tree scan
                // must simply yield nothing there.
                let inverted = lo > hi
                    || (lo == hi
                        && matches!(lo_b, Bound::Excluded(_))
                        && matches!(hi_b, Bound::Excluded(_)));
                let want: Vec<(u64, u64)> = if inverted
                    && !matches!(lo_b, Bound::Unbounded)
                    && !matches!(hi_b, Bound::Unbounded)
                {
                    Vec::new()
                } else {
                    model.range((lo_b, hi_b)).map(|(k, v)| (*k, *v)).collect()
                };
                assert_eq!(got, want, "bounds {lo_b:?}..{hi_b:?}");
            }
        }
    }
    let all: Vec<(u64, u64)> = t.scan(..).collect();
    assert_eq!(all.len(), 400);
    assert!(all.windows(2).all(|w| w[0].0 < w[1].0));
}

#[test]
fn single_tree_scan_skips_deleted_and_sees_updates() {
    let mut t = FPTree::create(pool(32), small_cfg(), ROOT_SLOT);
    for i in 0..200u64 {
        t.insert(&i, i);
    }
    for i in (0..200u64).step_by(3) {
        t.remove(&i);
    }
    for i in 0..200u64 {
        t.update(&i, i + 1000);
    }
    let got: Vec<(u64, u64)> = t.scan(50..150).collect();
    let want: Vec<(u64, u64)> = (50..150)
        .filter(|i| i % 3 != 0)
        .map(|i| (i, i + 1000))
        .collect();
    assert_eq!(got, want);
    assert!(t.scan(..0u64).next().is_none());
    assert!(t.scan(500u64..).next().is_none());
    #[allow(clippy::reversed_empty_ranges)]
    let empty: Vec<_> = t.scan(100u64..50).collect();
    assert!(empty.is_empty());
}

#[test]
fn var_key_scan_is_byte_ordered() {
    let mut t = FPTreeVar::create(pool(64), TreeConfig::fptree_var(), ROOT_SLOT);
    let mut model = BTreeMap::new();
    let mut rng = StdRng::seed_from_u64(7);
    for i in 0..500u64 {
        // Mixed-length keys: byte order differs from insertion order.
        let len = rng.gen_range(1..=12);
        let mut k = format!("{i:x}").into_bytes();
        k.resize(len.max(k.len()), b'a' + (i % 26) as u8);
        if t.insert(&k, i) {
            model.insert(k, i);
        }
    }
    let lo = b"3".to_vec();
    let hi = b"c".to_vec();
    let got: Vec<(Vec<u8>, u64)> = t.scan(lo.clone()..hi.clone()).collect();
    let want: Vec<(Vec<u8>, u64)> = model.range(lo..hi).map(|(k, v)| (k.clone(), *v)).collect();
    assert_eq!(got, want);
}

#[test]
fn scan_on_empty_tree() {
    let t = FPTree::create(pool(16), small_cfg(), ROOT_SLOT);
    assert!(t.scan(..).next().is_none());
    let c = ConcurrentFPTree::create(pool(16), conc_cfg(), ROOT_SLOT);
    assert!(c.scan(..).next().is_none());
}

/// The batched write path must be scan-invisible: a tree loaded through
/// `insert_batch`/`remove_batch` runs yields exactly the ordered view of a
/// tree loaded by a loop of singles, on every variant.
#[test]
fn batched_writes_scan_like_loop_writes() {
    let mut rng = StdRng::seed_from_u64(23);
    let mut keys: Vec<u64> = (0..1500u64).map(|i| i * 2).collect();
    keys.shuffle(&mut rng);
    let entries: Vec<(u64, u64)> = keys.iter().map(|&k| (k, k + 7)).collect();
    let dead: Vec<u64> = keys.iter().copied().filter(|k| k % 6 == 0).collect();

    // Fixed keys, single-threaded (leaf groups) vs concurrent.
    let mut looped = FPTree::create(pool(32), small_cfg(), ROOT_SLOT);
    for &(k, v) in &entries {
        assert!(looped.insert(&k, v));
    }
    for k in &dead {
        assert!(looped.remove(k));
    }
    let want: Vec<(u64, u64)> = looped.scan(..).collect();

    let mut batched = FPTree::create(pool(32), small_cfg(), ROOT_SLOT);
    for chunk in entries.chunks(64) {
        assert_eq!(batched.insert_batch(chunk), chunk.len());
    }
    for chunk in dead.chunks(64) {
        assert_eq!(batched.remove_batch(chunk), chunk.len());
    }
    assert_eq!(batched.scan(..).collect::<Vec<_>>(), want);
    batched.check_consistency().unwrap();

    let conc = ConcurrentFPTree::create(pool(32), conc_cfg(), ROOT_SLOT);
    for chunk in entries.chunks(64) {
        assert_eq!(conc.insert_batch(chunk), chunk.len());
    }
    for chunk in dead.chunks(64) {
        assert_eq!(conc.remove_batch(chunk), chunk.len());
    }
    assert_eq!(conc.scan(..).collect::<Vec<_>>(), want);
    conc.check_consistency().unwrap();

    // Variable keys: byte-ordered view must match too.
    let key = |k: u64| format!("{k:08}").into_bytes();
    let var_cfg = TreeConfig::fptree_var()
        .with_leaf_capacity(4)
        .with_inner_fanout(4)
        .with_leaf_group_size(4);
    let mut var_looped = FPTreeVar::create(pool(64), var_cfg, ROOT_SLOT);
    let mut var_batched = FPTreeVar::create(pool(64), var_cfg, ROOT_SLOT);
    let var_entries: Vec<(Vec<u8>, u64)> = entries.iter().map(|&(k, v)| (key(k), v)).collect();
    let var_dead: Vec<Vec<u8>> = dead.iter().map(|&k| key(k)).collect();
    for (k, v) in &var_entries {
        assert!(var_looped.insert(k, *v));
    }
    for k in &var_dead {
        assert!(var_looped.remove(k));
    }
    for chunk in var_entries.chunks(64) {
        assert_eq!(var_batched.insert_batch(chunk), chunk.len());
    }
    for chunk in var_dead.chunks(64) {
        assert_eq!(var_batched.remove_batch(chunk), chunk.len());
    }
    let want_var: Vec<(Vec<u8>, u64)> = var_looped.scan(..).collect();
    assert_eq!(var_batched.scan(..).collect::<Vec<_>>(), want_var);
    var_batched.check_consistency().unwrap();
}

/// Scans must surface entries that still live in the per-leaf append
/// buffer (§5.12): with `leaf_capacity` 16 and `wbuf_entries` 8, fewer
/// than eight writes to one leaf never trigger a fold, so the keys below
/// are only reachable through the buffer when the scan runs.
#[test]
fn scan_sees_buffered_entries() {
    let cfg = TreeConfig::fptree()
        .with_leaf_capacity(16)
        .with_inner_fanout(4)
        .with_leaf_group_size(4)
        .with_wbuf_entries(8);
    let mut t = FPTree::create(pool(32), cfg, ROOT_SLOT);
    // Five buffered inserts, out of order; all stay in the buffer.
    for k in [40u64, 10, 30, 50, 20] {
        assert!(t.insert(&k, k + 1));
    }
    let got: Vec<(u64, u64)> = t.scan(..).collect();
    assert_eq!(got, [(10, 11), (20, 21), (30, 31), (40, 41), (50, 51)]);
    // A buffered update supersedes a buffered insert: newest entry wins
    // and the key appears exactly once.
    assert!(t.update(&30, 999));
    let got: Vec<(u64, u64)> = t.scan(..).collect();
    assert_eq!(got, [(10, 11), (20, 21), (30, 999), (40, 41), (50, 51)]);
    // Range bounds cut through buffered keys.
    let got: Vec<(u64, u64)> = t.scan(20..=40).collect();
    assert_eq!(got, [(20, 21), (30, 999), (40, 41)]);
    // Force a fold (eight live entries), then buffer an update over the
    // folded slot: the scan must prefer the buffered value over the slot.
    for k in [60u64, 70, 80] {
        assert!(t.insert(&k, k + 1));
    }
    assert!(t.update(&10, 1234));
    let got: Vec<(u64, u64)> = t.scan(..).collect();
    assert_eq!(
        got,
        [
            (10, 1234),
            (20, 21),
            (30, 999),
            (40, 41),
            (50, 51),
            (60, 61),
            (70, 71),
            (80, 81)
        ]
    );
    t.check_consistency().unwrap();

    // Concurrent variant: seqlock-validated scan reads the buffer too.
    let cfg = TreeConfig::fptree_concurrent()
        .with_leaf_capacity(16)
        .with_inner_fanout(4)
        .with_wbuf_entries(8);
    let c = ConcurrentFPTree::create(pool(32), cfg, ROOT_SLOT);
    for k in [40u64, 10, 30] {
        assert!(c.insert(&k, k + 1));
    }
    assert!(c.update(&10, 77));
    let got: Vec<(u64, u64)> = c.scan(..).collect();
    assert_eq!(got, [(10, 77), (30, 31), (40, 41)]);
    let got: Vec<(u64, u64)> = c.scan(10..40).collect();
    assert_eq!(got, [(10, 77), (30, 31)]);
    c.check_consistency().unwrap();
}

/// Quiescent concurrent scans are exactly the model, for every bound shape.
#[test]
fn concurrent_scan_quiescent_matches_model() {
    let t = ConcurrentFPTree::create(pool(32), conc_cfg(), ROOT_SLOT);
    let mut model = BTreeMap::new();
    let mut rng = StdRng::seed_from_u64(11);
    for _ in 0..3000 {
        let k = rng.gen_range(0..4000u64);
        match rng.gen_range(0..3) {
            0 => {
                t.insert(&k, k);
                model.entry(k).or_insert(k);
            }
            1 => {
                t.update(&k, k + 9);
                model.entry(k).and_modify(|v| *v = k + 9);
            }
            _ => {
                t.remove(&k);
                model.remove(&k);
            }
        }
    }
    for (lo, hi) in [(0u64, 4000u64), (100, 200), (3999, 4000), (777, 777)] {
        let got: Vec<(u64, u64)> = t.scan(lo..hi).collect();
        let want: Vec<(u64, u64)> = model.range(lo..hi).map(|(k, v)| (*k, *v)).collect();
        assert_eq!(got, want, "range {lo}..{hi}");
    }
    let got: Vec<(u64, u64)> = t.scan(..).collect();
    let want: Vec<(u64, u64)> = model.iter().map(|(k, v)| (*k, *v)).collect();
    assert_eq!(got, want);
}

/// The acceptance fuzz: writer threads insert/update/remove volatile keys
/// (forcing splits and deletes to race the scans) while scanner threads
/// stream ranges. Every scan must be strictly sorted, stay inside its
/// bounds, include every *stable* key (never touched by writers) exactly
/// once with its committed value, and contain no key that was never
/// inserted. Afterwards a quiescent scan must equal the final model.
#[test]
fn concurrent_scans_race_writers() {
    const STABLE_STRIDE: u64 = 3; // keys where k % 3 == 0 are never written
    const KEYSPACE: u64 = 6000;
    let t = Arc::new(ConcurrentFPTree::create(pool(128), conc_cfg(), ROOT_SLOT));
    for k in (0..KEYSPACE).step_by(STABLE_STRIDE as usize) {
        assert!(t.insert(&k, k * 2));
    }
    let stop = Arc::new(AtomicBool::new(false));

    let writers: Vec<_> = (0..3u64)
        .map(|w| {
            let t = Arc::clone(&t);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(100 + w);
                while !stop.load(Ordering::Relaxed) {
                    let k = {
                        // Volatile keys only: k % 3 != 0.
                        let base = rng.gen_range(0..KEYSPACE / STABLE_STRIDE - 1) * STABLE_STRIDE;
                        base + rng.gen_range(1..STABLE_STRIDE)
                    };
                    match rng.gen_range(0..3) {
                        0 => {
                            t.insert(&k, k);
                        }
                        1 => {
                            t.update(&k, k + 1);
                        }
                        _ => {
                            t.remove(&k);
                        }
                    }
                }
            })
        })
        .collect();

    let scanners: Vec<_> = (0..3u64)
        .map(|s| {
            let t = Arc::clone(&t);
            std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(200 + s);
                for _ in 0..150 {
                    let lo = rng.gen_range(0..KEYSPACE);
                    let hi = (lo + rng.gen_range(1..1500)).min(KEYSPACE);
                    let got: Vec<(u64, u64)> = t.scan(lo..hi).collect();
                    // Strictly sorted, in bounds.
                    assert!(
                        got.windows(2).all(|w| w[0].0 < w[1].0),
                        "scan output not strictly sorted"
                    );
                    assert!(got.iter().all(|(k, _)| *k >= lo && *k < hi));
                    // Every stable key present with its committed value.
                    let stable_lo = lo.div_ceil(STABLE_STRIDE) * STABLE_STRIDE;
                    let mut want = (stable_lo..hi).step_by(STABLE_STRIDE as usize);
                    let mut seen = got.iter().filter(|(k, _)| k % STABLE_STRIDE == 0);
                    loop {
                        match (want.next(), seen.next()) {
                            (None, None) => break,
                            (Some(w), Some(&(k, v))) => {
                                assert_eq!(k, w, "stable key missing or duplicated");
                                assert_eq!(v, w * 2, "stable value torn");
                            }
                            (w, s) => panic!("stable mismatch: want {w:?}, saw {s:?}"),
                        }
                    }
                    // Volatile keys must carry a value some writer stored.
                    for &(k, v) in &got {
                        if k % STABLE_STRIDE != 0 {
                            assert!(v == k || v == k + 1, "phantom value {v} for key {k}");
                        }
                    }
                }
            })
        })
        .collect();

    for s in scanners {
        s.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    for w in writers {
        w.join().unwrap();
    }
    t.check_consistency().unwrap();
    // Quiescent: full scan equals get() for every key.
    let all: Vec<(u64, u64)> = t.scan(..).collect();
    assert_eq!(all.len(), t.len());
    assert!(all.windows(2).all(|w| w[0].0 < w[1].0));
    for (k, v) in all {
        assert_eq!(t.get(&k), Some(v));
    }
}

/// Scans racing an insert-only storm of fresh ascending keys: every split
/// splices a new leaf into the chain mid-scan.
#[test]
fn concurrent_scan_races_splits() {
    let t = Arc::new(ConcurrentTree::<FixedKey>::create(
        pool(128),
        conc_cfg(),
        ROOT_SLOT,
    ));
    // Seed even keys; writers add odd keys in ascending order, splitting
    // leaves all along the chain while scanners stream it.
    for k in (0..4000u64).step_by(2) {
        t.insert(&k, k);
    }
    let writers: Vec<_> = (0..2u64)
        .map(|w| {
            let t = Arc::clone(&t);
            std::thread::spawn(move || {
                for k in (0..4000u64).filter(|k| k % 2 == 1 && k % 4 == 2 * w + 1) {
                    t.insert(&k, k);
                }
            })
        })
        .collect();
    let scanners: Vec<_> = (0..2)
        .map(|_| {
            let t = Arc::clone(&t);
            std::thread::spawn(move || {
                for _ in 0..40 {
                    let got: Vec<(u64, u64)> = t.scan(..).collect();
                    assert!(got.windows(2).all(|w| w[0].0 < w[1].0));
                    // All seeded even keys always present.
                    let evens = got.iter().filter(|(k, _)| k % 2 == 0).count();
                    assert_eq!(evens, 2000, "seeded keys lost mid-scan");
                }
            })
        })
        .collect();
    for h in writers.into_iter().chain(scanners) {
        h.join().unwrap();
    }
    let final_scan: Vec<(u64, u64)> = t.scan(..).collect();
    assert_eq!(final_scan.len(), 4000);
    t.check_consistency().unwrap();
}

#[test]
fn bounded_rescans_equal_the_model() {
    // A bounded scan whose upper bound sits on a leaf boundary walks one
    // leaf past it to learn that every further key is out of range; the
    // rescan takes the same walk and emits the same entries.
    let p = pool(8);
    let t = {
        let mut t = FPTree::create(Arc::clone(&p), small_cfg(), ROOT_SLOT);
        for i in 0..64u64 {
            assert!(t.insert(&i, i + 7));
        }
        t
    };
    // hi = 19 sits on a leaf boundary (leaves hold 4 contiguous keys): the
    // leaf holding 16..=19 never observes a past-bound key.
    let expect: Vec<(u64, u64)> = (10..=19u64).map(|i| (i, i + 7)).collect();
    assert_eq!(t.scan(10..=19).collect::<Vec<_>>(), expect);
    assert_eq!(t.scan(10..=19).collect::<Vec<_>>(), expect);
    assert_eq!(t.scan(10..20).collect::<Vec<_>>(), expect);
}

#[test]
fn legacy_probe_flag_is_ignored_on_open() {
    // Meta flag bit 3 once selected the SWAR probe over a scalar mode. It
    // is still written, never read: an image with the bit cleared must open
    // in the one mode that exists.
    let p = Arc::new(PmemPool::create(PoolOptions::tracked(8 << 20)).unwrap());
    let mut t = FPTree::create(Arc::clone(&p), small_cfg(), ROOT_SLOT);
    for i in 0..64u64 {
        assert!(t.insert(&i, i + 7));
    }
    let gets: Vec<Option<u64>> = (0..70u64).map(|k| t.get(&k)).collect();
    let full: Vec<(u64, u64)> = t.scan(..).collect();
    drop(t);

    let meta: RawPPtr = p.read_at(ROOT_SLOT);
    let flags_off = meta.offset + 24;
    let flags = p.read_word(flags_off);
    assert_ne!(flags & 8, 0, "bit 3 keeps being written");
    p.write_word(flags_off, flags & !8);
    p.persist(flags_off, 8);
    let p = Arc::new(PmemPool::reopen(p.clean_image(), PoolOptions::tracked(0)).unwrap());
    assert_eq!(p.read_word(flags_off) & 8, 0);

    let t = FPTree::open(Arc::clone(&p), ROOT_SLOT).unwrap();
    assert_eq!((0..70u64).map(|k| t.get(&k)).collect::<Vec<_>>(), gets);
    assert_eq!(t.scan(..).collect::<Vec<_>>(), full);
    t.check_consistency().unwrap();
    let expect: Vec<(u64, u64)> = (10..=19u64).map(|i| (i, i + 7)).collect();
    assert_eq!(t.scan(10..=19).collect::<Vec<_>>(), expect);
    assert_eq!(t.scan(10..=19).collect::<Vec<_>>(), expect);
}

#[test]
fn concurrent_bounded_rescans_equal_the_model_beside_a_writer() {
    // Bounded rescans on the concurrent tree while a writer splits leaves
    // all along the scanned region: the seeded even keys are never
    // written, so every rescan must carry exactly those, in order, with
    // their values, plus only odd keys the writer stored.
    let p = pool(8);
    let t = ConcurrentFPTree::create(Arc::clone(&p), conc_cfg(), ROOT_SLOT);
    for i in (0..256u64).step_by(2) {
        assert!(t.insert(&i, i * 2));
    }
    let evens: Vec<(u64, u64)> = (10..=150u64).step_by(2).map(|i| (i, i * 2)).collect();
    assert_eq!(t.scan(10..=150).collect::<Vec<_>>(), evens);
    assert_eq!(t.scan(10..=150).collect::<Vec<_>>(), evens);

    let start = std::sync::Barrier::new(2);
    std::thread::scope(|s| {
        s.spawn(|| {
            start.wait();
            for i in (1..256u64).step_by(2) {
                assert!(t.insert(&i, i * 2));
            }
        });
        s.spawn(|| {
            start.wait();
            for _ in 0..200 {
                let got: Vec<(u64, u64)> = t.scan(10..=150).collect();
                assert!(got.windows(2).all(|w| w[0].0 < w[1].0));
                assert!(got
                    .iter()
                    .all(|&(k, v)| (10..=150).contains(&k) && v == k * 2));
                let seen: Vec<(u64, u64)> = got.into_iter().filter(|(k, _)| k % 2 == 0).collect();
                assert_eq!(seen, evens, "seeded key lost or duplicated mid-scan");
            }
        });
    });
    // Quiescent again: full and bounded scans agree with the model.
    let full: Vec<(u64, u64)> = t.scan(..).collect();
    assert_eq!(full, (0..256u64).map(|i| (i, i * 2)).collect::<Vec<_>>());
    let tail: Vec<(u64, u64)> = t.scan(200..).collect();
    assert_eq!(tail, (200..256u64).map(|i| (i, i * 2)).collect::<Vec<_>>());
    t.check_consistency().unwrap();
}
