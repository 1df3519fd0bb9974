//! Functional and crash-recovery tests for the single-threaded trees
//! (FPTree, PTree, fixed and variable keys).

use std::sync::Arc;

use fptree_core::leaf::Leaf;
use fptree_core::{
    ConcurrentFPTree, ConcurrentTree, Error, FPTree, FPTreeVar, FixedKey, LeafLayout, SingleTree,
    TreeConfig, VarKey, MAX_KEY_BYTES,
};
use fptree_pmem::{PmemPool, PoolOptions, ROOT_SLOT};
use rand::prelude::*;

fn direct_pool(mb: usize) -> Arc<PmemPool> {
    Arc::new(PmemPool::create(PoolOptions::direct(mb << 20)).unwrap())
}

fn tracked_pool(mb: usize) -> Arc<PmemPool> {
    Arc::new(PmemPool::create(PoolOptions::tracked(mb << 20)).unwrap())
}

fn small_cfg() -> TreeConfig {
    // Tiny nodes exercise splits and multi-level indexes quickly.
    TreeConfig::fptree()
        .with_leaf_capacity(4)
        .with_inner_fanout(4)
        .with_leaf_group_size(4)
}

#[test]
fn insert_find_roundtrip() {
    let pool = direct_pool(32);
    let mut t = FPTree::create(pool, TreeConfig::fptree(), ROOT_SLOT);
    for i in 0..1000u64 {
        assert!(t.insert(&i, i * 2), "insert {i}");
    }
    assert_eq!(t.len(), 1000);
    for i in 0..1000u64 {
        assert_eq!(t.get(&i), Some(i * 2), "get {i}");
    }
    assert_eq!(t.get(&1000), None);
    t.check_consistency().unwrap();
}

#[test]
fn duplicate_insert_rejected() {
    let pool = direct_pool(8);
    let mut t = FPTree::create(pool, small_cfg(), ROOT_SLOT);
    assert!(t.insert(&7, 1));
    assert!(!t.insert(&7, 2));
    assert_eq!(t.get(&7), Some(1));
    assert_eq!(t.len(), 1);
}

#[test]
fn random_order_inserts_stay_sorted() {
    let pool = direct_pool(32);
    let mut t = FPTree::create(pool, small_cfg(), ROOT_SLOT);
    let mut keys: Vec<u64> = (0..2000).collect();
    keys.shuffle(&mut StdRng::seed_from_u64(1));
    for &k in &keys {
        t.insert(&k, k + 1);
    }
    t.check_consistency().unwrap();
    let all = t.range(&0, &u64::MAX);
    assert_eq!(all.len(), 2000);
    for (i, (k, v)) in all.iter().enumerate() {
        assert_eq!(*k, i as u64);
        assert_eq!(*v, i as u64 + 1);
    }
}

#[test]
fn update_changes_value_in_place() {
    let pool = direct_pool(16);
    let mut t = FPTree::create(pool, small_cfg(), ROOT_SLOT);
    for i in 0..500u64 {
        t.insert(&i, i);
    }
    for i in 0..500u64 {
        assert!(t.update(&i, i + 1000), "update {i}");
    }
    assert!(!t.update(&9999, 0), "update of absent key must fail");
    for i in 0..500u64 {
        assert_eq!(t.get(&i), Some(i + 1000));
    }
    assert_eq!(t.len(), 500);
    t.check_consistency().unwrap();
}

#[test]
fn update_on_full_leaf_splits() {
    let pool = direct_pool(8);
    let cfg = TreeConfig::fptree()
        .with_leaf_capacity(4)
        .with_inner_fanout(8);
    let mut t = FPTree::create(pool, cfg, ROOT_SLOT);
    for i in 0..4u64 {
        t.insert(&i, i);
    }
    // The single leaf is full: updating must split, then update.
    assert!(t.update(&2, 777));
    assert_eq!(t.get(&2), Some(777));
    assert_eq!(t.len(), 4);
    t.check_consistency().unwrap();
}

#[test]
fn remove_and_reinsert() {
    let pool = direct_pool(32);
    let mut t = FPTree::create(pool, small_cfg(), ROOT_SLOT);
    for i in 0..1000u64 {
        t.insert(&i, i);
    }
    for i in (0..1000u64).step_by(2) {
        assert!(t.remove(&i), "remove {i}");
    }
    assert!(!t.remove(&0), "double remove must fail");
    assert_eq!(t.len(), 500);
    for i in 0..1000u64 {
        assert_eq!(t.get(&i).is_some(), i % 2 == 1, "key {i}");
    }
    t.check_consistency().unwrap();
    for i in (0..1000u64).step_by(2) {
        assert!(t.insert(&i, i + 5));
    }
    assert_eq!(t.len(), 1000);
    t.check_consistency().unwrap();
}

#[test]
fn drain_to_empty_and_refill() {
    let pool = direct_pool(16);
    let mut t = FPTree::create(pool, small_cfg(), ROOT_SLOT);
    for round in 0..3 {
        for i in 0..300u64 {
            assert!(t.insert(&i, i + round), "round {round} insert {i}");
        }
        let mut order: Vec<u64> = (0..300).collect();
        order.shuffle(&mut StdRng::seed_from_u64(round));
        for &i in &order {
            assert!(t.remove(&i), "round {round} remove {i}");
        }
        assert!(t.is_empty());
        t.check_consistency().unwrap();
    }
}

#[test]
fn range_scans() {
    let pool = direct_pool(16);
    let mut t = FPTree::create(pool, small_cfg(), ROOT_SLOT);
    for i in (0..1000u64).step_by(3) {
        t.insert(&i, i);
    }
    let r = t.range(&100, &200);
    let expect: Vec<u64> = (0..1000)
        .step_by(3)
        .filter(|k| (100..=200).contains(k))
        .collect();
    assert_eq!(r.iter().map(|(k, _)| *k).collect::<Vec<_>>(), expect);
    assert!(t.range(&2000, &3000).is_empty());
    assert!(t.range(&200, &100).is_empty(), "inverted range is empty");
    let one = t.range(&99, &99);
    assert_eq!(one, vec![(99, 99)]);
}

#[test]
fn ptree_config_works_without_fingerprints() {
    let pool = direct_pool(32);
    let mut t = FPTree::create(pool, TreeConfig::ptree(), ROOT_SLOT);
    for i in 0..2000u64 {
        t.insert(&(i * 7 % 2000), i);
    }
    t.check_consistency().unwrap();
    assert!(t.get(&7).is_some());
}

#[test]
fn var_keys_roundtrip() {
    let pool = direct_pool(64);
    let cfg = TreeConfig::fptree_var()
        .with_leaf_capacity(4)
        .with_inner_fanout(4);
    let mut t = FPTreeVar::create(pool, cfg, ROOT_SLOT);
    for i in 0..500u64 {
        let key = format!("user:{i:06}").into_bytes();
        assert!(t.insert(&key, i));
    }
    for i in 0..500u64 {
        let key = format!("user:{i:06}").into_bytes();
        assert_eq!(t.get(&key), Some(i));
    }
    assert_eq!(t.get(&b"user:999999".to_vec()), None);
    t.check_consistency().unwrap();
    // Update moves key ownership between slots.
    for i in 0..500u64 {
        let key = format!("user:{i:06}").into_bytes();
        assert!(t.update(&key, i + 1));
    }
    t.check_consistency().unwrap();
    // Remove deallocates blobs.
    for i in 0..500u64 {
        let key = format!("user:{i:06}").into_bytes();
        assert!(t.remove(&key));
    }
    assert!(t.is_empty());
    t.check_consistency().unwrap();
}

#[test]
fn var_keys_no_blob_leak_after_churn() {
    let pool = direct_pool(64);
    let cfg = TreeConfig::fptree_var()
        .with_leaf_capacity(4)
        .with_inner_fanout(4);
    let mut t = FPTreeVar::create(Arc::clone(&pool), cfg, ROOT_SLOT);
    for round in 0..3u64 {
        for i in 0..200u64 {
            t.insert(&format!("k{i:04}").into_bytes(), round);
        }
        for i in 0..200u64 {
            t.update(&format!("k{i:04}").into_bytes(), round + 1);
        }
        for i in 0..200u64 {
            t.remove(&format!("k{i:04}").into_bytes());
        }
    }
    // Every key blob must be gone: live blocks are only tree infrastructure
    // (metadata + groups), bounded and key-free.
    let live = pool.live_blocks().unwrap();
    let usage = t.memory_usage();
    let infra: u64 = live.iter().map(|&(_, s)| s).sum();
    assert!(
        infra <= usage.scm_bytes + 4096,
        "leaked blobs: {} bytes live vs {} accounted",
        infra,
        usage.scm_bytes
    );
    assert_eq!(t.len(), 0);
}

#[test]
fn clean_reopen_recovers_everything() {
    let pool = tracked_pool(64);
    let mut t = FPTree::create(Arc::clone(&pool), small_cfg(), ROOT_SLOT);
    for i in 0..800u64 {
        t.insert(&i, i * 3);
    }
    for i in (0..800u64).step_by(5) {
        t.remove(&i);
    }
    let expected_len = t.len();
    drop(t);
    let img = pool.clean_image();
    let pool2 = Arc::new(PmemPool::reopen(img, PoolOptions::tracked(0)).unwrap());
    let t2 = FPTree::open(Arc::clone(&pool2), ROOT_SLOT).expect("recover");
    assert_eq!(t2.len(), expected_len);
    for i in 0..800u64 {
        let expect = if i % 5 == 0 { None } else { Some(i * 3) };
        assert_eq!(t2.get(&i), expect, "key {i}");
    }
    t2.check_consistency().unwrap();
}

#[test]
fn clean_reopen_var_keys() {
    let pool = tracked_pool(64);
    let cfg = TreeConfig::fptree_var()
        .with_leaf_capacity(4)
        .with_inner_fanout(4);
    let mut t = FPTreeVar::create(Arc::clone(&pool), cfg, ROOT_SLOT);
    for i in 0..300u64 {
        t.insert(&format!("key:{i:05}").into_bytes(), i);
    }
    drop(t);
    let img = pool.clean_image();
    let pool2 = Arc::new(PmemPool::reopen(img, PoolOptions::tracked(0)).unwrap());
    let t2 = FPTreeVar::open(Arc::clone(&pool2), ROOT_SLOT).expect("recover");
    assert_eq!(t2.len(), 300);
    for i in 0..300u64 {
        assert_eq!(t2.get(&format!("key:{i:05}").into_bytes()), Some(i));
    }
    t2.check_consistency().unwrap();
}

/// The paper's core durability claim: any committed operation survives any
/// crash; any in-flight operation is atomically present-or-absent; no
/// persistent leaks. Crash at every persistence event of a mixed workload.
#[test]
fn crash_at_every_point_fixed_keys() {
    crash_torture::<fptree_core::FixedKey>(|i| i, 160);
}

#[test]
fn crash_at_every_point_var_keys() {
    crash_torture::<fptree_core::VarKey>(|i| format!("key{i:05}").into_bytes(), 120);
}

fn crash_torture<K: fptree_core::KeyKind>(mk: impl Fn(u64) -> K::Owned, max_fuse: u64) {
    // A workload whose tail mixes splits, updates, deletes, leaf deletes.
    let run = |pool: &Arc<PmemPool>, upto: usize| -> (SingleTree<K>, Vec<(K::Owned, u64)>) {
        let cfg = TreeConfig::fptree()
            .with_leaf_capacity(4)
            .with_inner_fanout(4)
            .with_leaf_group_size(2);
        let mut t = SingleTree::<K>::create(Arc::clone(pool), cfg, ROOT_SLOT);
        let mut model: Vec<(K::Owned, u64)> = Vec::new();
        let ops: Vec<(u8, u64)> = (0..40u64)
            .map(|i| (0u8, i))
            .chain((0..40).step_by(3).map(|i| (1u8, i)))
            .chain((0..40).step_by(4).map(|i| (2u8, i)))
            .collect();
        for (idx, &(op, i)) in ops.iter().enumerate() {
            if idx >= upto {
                break;
            }
            let key = mk(i);
            match op {
                0 => {
                    t.insert(&key, i);
                    model.push((key, i));
                }
                1 => {
                    t.update(&key, i + 100);
                    if let Some(e) = model.iter_mut().find(|(k, _)| *k == key) {
                        e.1 = i + 100;
                    }
                }
                _ => {
                    t.remove(&key);
                    model.retain(|(k, _)| *k != key);
                }
            }
        }
        (t, model)
    };

    for fuse in (0..max_fuse).step_by(1) {
        let pool = tracked_pool(64);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.set_crash_fuse(Some(200 + fuse * 7));
            run(&pool, usize::MAX)
        }));
        pool.set_crash_fuse(None);
        let crashed = match result {
            Ok(_) => false,
            Err(e) => {
                assert!(
                    fptree_pmem::crash_is_injected(e.as_ref()),
                    "fuse {fuse}: genuine panic, not an injected crash"
                );
                true
            }
        };
        if !crashed {
            continue; // fuse beyond the workload; nothing to test
        }
        for seed in [11u64, 97] {
            let img = pool.crash_image(seed);
            let pool2 = Arc::new(PmemPool::reopen(img, PoolOptions::tracked(0)).unwrap());
            let t2 = SingleTree::<K>::open(Arc::clone(&pool2), ROOT_SLOT).expect("recover");
            t2.check_consistency()
                .unwrap_or_else(|e| panic!("fuse {fuse} seed {seed}: inconsistent: {e}"));
            // Atomicity: every present key maps to a value the workload
            // wrote for it at some point (insert i or update i+100).
            // (We cannot know exactly which ops committed, but values are
            // bound to keys, so cross-key corruption is detectable.)
            let all = t2.range(&t2_min::<K>(&mk), &t2_max::<K>(&mk));
            for (k, v) in &all {
                let i = v % 100;
                assert_eq!(
                    *k,
                    mk(i),
                    "fuse {fuse} seed {seed}: value bound to wrong key"
                );
            }
        }
    }

    // And a full run with a clean shutdown must recover exactly.
    let pool = tracked_pool(64);
    let (t, model) = run(&pool, usize::MAX);
    drop(t);
    let img = pool.clean_image();
    let pool2 = Arc::new(PmemPool::reopen(img, PoolOptions::tracked(0)).unwrap());
    let t2 = SingleTree::<K>::open(Arc::clone(&pool2), ROOT_SLOT).expect("recover");
    assert_eq!(t2.len(), model.len());
    for (k, v) in &model {
        assert_eq!(t2.get(k), Some(*v));
    }
}

fn t2_min<K: fptree_core::KeyKind>(mk: &impl Fn(u64) -> K::Owned) -> K::Owned {
    mk(0)
}

fn t2_max<K: fptree_core::KeyKind>(mk: &impl Fn(u64) -> K::Owned) -> K::Owned {
    mk(99_999)
}

#[test]
fn memory_usage_reports_selective_persistence() {
    let pool = direct_pool(64);
    let mut t = FPTree::create(pool, TreeConfig::fptree(), ROOT_SLOT);
    for i in 0..50_000u64 {
        t.insert(&i, i);
    }
    let mu = t.memory_usage();
    assert!(mu.leaf_count > 500);
    assert!(mu.scm_bytes > 0 && mu.dram_bytes > 0);
    // Headline claim: DRAM is a small fraction of the total (paper: <3% at
    // paper-scale fanouts; generous bound here).
    let frac = mu.dram_bytes as f64 / (mu.scm_bytes + mu.dram_bytes) as f64;
    assert!(frac < 0.10, "DRAM fraction {frac:.3} too large");
}

#[test]
fn multiple_trees_in_one_pool() {
    let pool = direct_pool(64);
    // A directory block with two owner slots.
    let dir = pool.allocate(ROOT_SLOT, 64).unwrap();
    let mut a = FPTree::create(Arc::clone(&pool), small_cfg(), dir);
    let mut b = FPTree::create(Arc::clone(&pool), small_cfg(), dir + 16);
    for i in 0..200u64 {
        a.insert(&i, i);
        b.insert(&i, i + 1_000_000);
    }
    assert_eq!(a.get(&100), Some(100));
    assert_eq!(b.get(&100), Some(1_000_100));
    a.check_consistency().unwrap();
    b.check_consistency().unwrap();
}

#[test]
fn open_rejects_key_kind_mismatch() {
    let pool = tracked_pool(16);
    let t = FPTree::create(Arc::clone(&pool), small_cfg(), ROOT_SLOT);
    drop(t);
    let img = pool.clean_image();
    let pool2 = Arc::new(PmemPool::reopen(img, PoolOptions::tracked(0)).unwrap());
    let r = FPTreeVar::open(pool2, ROOT_SLOT);
    assert!(
        matches!(r, Err(fptree_core::Error::Corrupt { .. })),
        "opening a fixed-key tree as var-key must fail with Corrupt"
    );
}

#[test]
fn var_key_range_scans_are_sorted_lexicographically() {
    let pool = direct_pool(64);
    let cfg = TreeConfig::fptree_var()
        .with_leaf_capacity(4)
        .with_inner_fanout(4);
    let mut t = FPTreeVar::create(pool, cfg, ROOT_SLOT);
    let mut model = std::collections::BTreeMap::new();
    for i in (0..400u64).rev() {
        let k = format!("id:{i:04}").into_bytes();
        t.insert(&k, i);
        model.insert(k, i);
    }
    let lo = b"id:0050".to_vec();
    let hi = b"id:0199".to_vec();
    let got = t.range(&lo, &hi);
    let expect: Vec<(Vec<u8>, u64)> = model.range(lo..=hi).map(|(k, v)| (k.clone(), *v)).collect();
    assert_eq!(got, expect);
    // Full scan covers everything in order.
    let all = t.range(&Vec::new(), &b"zzzz".to_vec());
    assert_eq!(all.len(), 400);
    assert!(all.windows(2).all(|w| w[0].0 < w[1].0));
}

#[test]
fn mixed_key_lengths_coexist() {
    let pool = direct_pool(64);
    let cfg = TreeConfig::fptree_var()
        .with_leaf_capacity(4)
        .with_inner_fanout(4);
    let mut t = FPTreeVar::create(pool, cfg, ROOT_SLOT);
    let keys: Vec<Vec<u8>> = vec![
        b"".to_vec(),
        b"a".to_vec(),
        b"ab".to_vec(),
        b"abc".to_vec(),
        vec![0xFF; 100],
        vec![0x00, 0x01],
        b"prefix".to_vec(),
        b"prefix\x00".to_vec(),
        b"prefix-longer-key-with-many-bytes-inside".to_vec(),
    ];
    for (i, k) in keys.iter().enumerate() {
        assert!(t.insert(k, i as u64), "insert {k:?}");
    }
    for (i, k) in keys.iter().enumerate() {
        assert_eq!(t.get(k), Some(i as u64), "get {k:?}");
    }
    t.check_consistency().unwrap();
    // Prefix keys must not be confused.
    assert!(t.remove(&b"prefix".to_vec()));
    assert_eq!(t.get(&b"prefix\x00".to_vec()), Some(7));
    assert_eq!(
        t.get(&b"prefix-longer-key-with-many-bytes-inside".to_vec()),
        Some(8)
    );
}

#[test]
fn value_payload_sizes_roundtrip() {
    for value_size in [8usize, 24, 64, 112] {
        let pool = direct_pool(32);
        let cfg = TreeConfig::fptree()
            .with_leaf_capacity(8)
            .with_inner_fanout(8)
            .with_value_size(value_size);
        let mut t = FPTree::create(pool, cfg, ROOT_SLOT);
        for i in 0..500u64 {
            t.insert(&i, i * 3);
        }
        for i in 0..500u64 {
            assert_eq!(t.get(&i), Some(i * 3), "value_size {value_size} key {i}");
        }
        t.check_consistency().unwrap();
    }
}

#[test]
fn reopen_preserves_config() {
    let pool = tracked_pool(32);
    let cfg = TreeConfig::fptree()
        .with_leaf_capacity(12)
        .with_inner_fanout(7)
        .with_value_size(24)
        .with_leaf_group_size(3);
    let mut t = FPTree::create(Arc::clone(&pool), cfg, ROOT_SLOT);
    // The requested group size is a minimum; the tree stores what it took.
    let created = *t.config();
    assert!(cfg.leaf_group_size <= created.leaf_group_size);
    assert_eq!(created, cfg.with_leaf_group_size(created.leaf_group_size));
    for i in 0..100u64 {
        t.insert(&i, i);
    }
    drop(t);
    let img = pool.clean_image();
    let pool2 = Arc::new(PmemPool::reopen(img, PoolOptions::tracked(0)).unwrap());
    let t2 = FPTree::open(Arc::clone(&pool2), ROOT_SLOT).expect("recover");
    assert_eq!(*t2.config(), created);
    assert_eq!(t2.len(), 100);
}

/// A grouped preset's resolved group fills the allocator block that the
/// requested group size lands in: at least the request, at least 94 % of
/// the block (its header included), and one more leaf would not fit.
fn preset_fills_its_block<K: fptree_core::KeyKind>(preset: TreeConfig) {
    let tree = SingleTree::<K>::try_create(direct_pool(8), preset, ROOT_SLOT)
        .unwrap_or_else(|e| panic!("{preset:?}: {e}"));
    let g = tree.config().leaf_group_size;
    assert_eq!(*tree.config(), preset.with_leaf_group_size(g));
    assert!(g >= preset.leaf_group_size, "{preset:?}: {g} leaves");
    let leaf = LeafLayout::new(&preset, K::SLOT_SIZE).size;
    let requested = 64 + g * leaf;
    let usable = fptree_pmem::usable_size(requested).unwrap();
    let block = fptree_pmem::BLOCK_HEADER_SIZE as usize + usable;
    let fill = requested as f64 / block as f64;
    assert!(fill >= 0.94, "{preset:?}: {g} leaves fill {fill:.3}");
    assert!(
        requested + leaf > usable,
        "{preset:?}: leaf {} fits too",
        g + 1
    );
    // The group size class did not grow.
    let asked = 64 + preset.leaf_group_size * leaf;
    assert_eq!(fptree_pmem::usable_size(asked), Ok(usable));
}

#[test]
fn every_grouped_preset_fills_its_block() {
    for preset in [
        TreeConfig::fptree(),
        TreeConfig::fptree_var(),
        TreeConfig::ptree(),
        TreeConfig::ptree_var(),
    ] {
        preset_fills_its_block::<FixedKey>(preset);
        preset_fills_its_block::<VarKey>(preset);
    }
}

#[test]
fn height_grows_logarithmically() {
    let pool = direct_pool(64);
    let cfg = TreeConfig::fptree()
        .with_leaf_capacity(4)
        .with_inner_fanout(4);
    let mut t = FPTree::create(pool, cfg, ROOT_SLOT);
    assert_eq!(t.height(), 0);
    for i in 0..4096u64 {
        t.insert(&i, i);
    }
    // With fanout 4 and leaf 4: >= log4(4096/4) = 5 levels, well below 14.
    assert!(t.height() >= 5 && t.height() <= 14, "height {}", t.height());
}

#[test]
fn bulk_load_matches_incremental_build() {
    for group in [0usize, 4] {
        let entries: Vec<(u64, u64)> = (0..5000u64).map(|i| (i * 3, i)).collect();
        let pool = direct_pool(64);
        let cfg = TreeConfig::fptree()
            .with_leaf_capacity(8)
            .with_inner_fanout(8)
            .with_leaf_group_size(group);
        let t = FPTree::bulk_load(pool, cfg, ROOT_SLOT, &entries);
        assert_eq!(t.len(), 5000);
        t.check_consistency().unwrap();
        for (k, v) in entries.iter().step_by(97) {
            assert_eq!(t.get(k), Some(*v), "group {group} key {k}");
        }
        assert_eq!(t.get(&1), None);
        assert_eq!(t.first_key_value(), Some((0, 0)));
        assert_eq!(t.last_key_value(), Some((4999 * 3, 4999)));
    }
}

#[test]
fn bulk_load_survives_restart() {
    let entries: Vec<(u64, u64)> = (0..2000u64).map(|i| (i, i + 7)).collect();
    let pool = tracked_pool(64);
    let cfg = TreeConfig::fptree()
        .with_leaf_capacity(8)
        .with_inner_fanout(8);
    let t = FPTree::bulk_load(Arc::clone(&pool), cfg, ROOT_SLOT, &entries);
    drop(t);
    let img = pool.clean_image();
    let pool2 = Arc::new(PmemPool::reopen(img, PoolOptions::tracked(0)).unwrap());
    let t2 = FPTree::open(Arc::clone(&pool2), ROOT_SLOT).expect("recover");
    assert_eq!(t2.len(), 2000);
    for (k, v) in &entries {
        assert_eq!(t2.get(k), Some(*v));
    }
    t2.check_consistency().unwrap();
    // And the tree is fully mutable after a bulk load + restart.
    let mut t2 = t2;
    assert!(t2.insert(&999_999, 1));
    assert!(t2.remove(&0));
    t2.check_consistency().unwrap();
}

#[test]
fn interrupted_bulk_load_recovers_empty_without_leaks() {
    for group in [0usize, 4] {
        for fuse in [30u64, 120, 400] {
            let pool = tracked_pool(64);
            let entries: Vec<(u64, u64)> = (0..1500u64).map(|i| (i, i)).collect();
            let cfg = TreeConfig::fptree()
                .with_leaf_capacity(8)
                .with_inner_fanout(8)
                .with_leaf_group_size(group);
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                pool.set_crash_fuse(Some(fuse));
                FPTree::bulk_load(Arc::clone(&pool), cfg, ROOT_SLOT, &entries)
            }));
            pool.set_crash_fuse(None);
            if r.is_ok() {
                continue; // load finished before the fuse
            }
            let img = pool.crash_image(fuse);
            let pool2 = Arc::new(PmemPool::reopen(img, PoolOptions::tracked(0)).unwrap());
            let t = FPTree::open(Arc::clone(&pool2), ROOT_SLOT).expect("recover");
            assert!(
                t.is_empty(),
                "group {group} fuse {fuse}: partial load visible"
            );
            t.check_consistency().unwrap();
            // Leak audit: only the metadata block, group blocks (group
            // mode), or the single head leaf may be live.
            let live = pool2.live_blocks().unwrap();
            let mu = t.memory_usage();
            let live_bytes: u64 = live.iter().map(|&(_, s)| s).sum();
            assert!(
                live_bytes <= mu.scm_bytes + 4096,
                "group {group} fuse {fuse}: leaked {} vs accounted {}",
                live_bytes,
                mu.scm_bytes
            );
        }
    }
}

#[test]
fn iterator_streams_in_order() {
    let pool = direct_pool(32);
    let mut t = FPTree::create(pool, small_cfg(), ROOT_SLOT);
    let mut keys: Vec<u64> = (0..1500).map(|i| i * 7).collect();
    keys.shuffle(&mut StdRng::seed_from_u64(5));
    for &k in &keys {
        t.insert(&k, k + 1);
    }
    let collected: Vec<(u64, u64)> = t.iter().collect();
    assert_eq!(collected.len(), 1500);
    assert!(
        collected.windows(2).all(|w| w[0].0 < w[1].0),
        "iterator out of order"
    );
    assert_eq!(collected.first(), Some(&(0, 1)));
    assert_eq!(collected.last(), Some(&(1499 * 7, 1499 * 7 + 1)));
    // Iterator agrees with range.
    assert_eq!(collected, t.range(&0, &u64::MAX));
    // Empty tree iterates to nothing.
    let pool = direct_pool(8);
    let t2 = FPTree::create(pool, small_cfg(), ROOT_SLOT);
    assert_eq!(t2.iter().count(), 0);
}

#[test]
fn file_backed_tree_survives_process_style_restart() {
    let path = std::env::temp_dir().join(format!("fpt-tree-{}.img", std::process::id()));
    {
        let pool = tracked_pool(32);
        let mut t = FPTree::create(Arc::clone(&pool), small_cfg(), ROOT_SLOT);
        for i in 0..500u64 {
            t.insert(&i, i * 11);
        }
        pool.save(&path).unwrap();
    } // everything dropped: "process exit"
    {
        let pool = Arc::new(PmemPool::load(&path, PoolOptions::tracked(0)).unwrap());
        let t = FPTree::open(Arc::clone(&pool), ROOT_SLOT).expect("recover");
        assert_eq!(t.len(), 500);
        assert_eq!(t.get(&123), Some(123 * 11));
        t.check_consistency().unwrap();
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn buffered_max_key_survives_split_and_recovery() {
    // Regression: a leaf's maximum living only in the append buffer must
    // still drive the split discriminator and the recovered inner index.
    // Ascending inserts keep the rightmost leaf's max perpetually buffered
    // (every single-key commit lands in the wbuf first), so each split and
    // the final rebuild happen while maxima are wbuf-fresh.
    let cfg = TreeConfig::fptree()
        .with_leaf_capacity(4)
        .with_inner_fanout(4)
        .with_wbuf_entries(4);
    let pool = tracked_pool(8);
    let mut t = FPTree::create(Arc::clone(&pool), cfg, ROOT_SLOT);
    for i in 0..64u64 {
        assert!(t.insert(&i, i * 3), "insert {i}");
    }
    for i in 0..64u64 {
        assert_eq!(t.get(&i), Some(i * 3), "get {i} after buffered splits");
    }
    let scanned: Vec<(u64, u64)> = t.scan(..).collect();
    assert_eq!(scanned.len(), 64);
    assert!(scanned.windows(2).all(|w| w[0].0 < w[1].0), "scan sorted");
    t.check_consistency().unwrap();

    // Recover while the hottest leaves still hold unfolded buffer entries:
    // the rebuilt discriminators must route every key — including ones
    // whose leaf max was buffered at crash time — and stay consistent
    // under post-recovery inserts that traverse the rebuilt index.
    let img = pool.clean_image();
    let pool2 = Arc::new(PmemPool::reopen(img, PoolOptions::tracked(0)).unwrap());
    let mut t2 = FPTree::open(Arc::clone(&pool2), ROOT_SLOT).expect("recover");
    for i in 0..64u64 {
        assert_eq!(t2.get(&i), Some(i * 3), "get {i} after recovery");
    }
    for i in 64..96u64 {
        assert!(t2.insert(&i, i * 3), "post-recovery insert {i}");
    }
    for i in 0..96u64 {
        assert_eq!(t2.get(&i), Some(i * 3), "get {i} after rebuild routing");
    }
    t2.check_consistency().unwrap();
}

/// A freed leaf's offset comes back through the group free list (or the
/// allocator). Whatever digest the old life left there — here a forged one
/// that verifies at that offset and claims three entries too many — must not
/// describe the leaf's next life: initialization writes "empty" over it.
#[test]
fn recycled_leaf_offset_never_keeps_its_old_digest() {
    for groups in [4usize, 0] {
        let cfg = small_cfg().with_leaf_group_size(groups);
        let layout = LeafLayout::new(&cfg, 8);
        let pool = direct_pool(8);
        let mut t = FPTree::create(Arc::clone(&pool), cfg, ROOT_SLOT);
        for i in 0..64u64 {
            assert!(t.insert(&(i * 10), i));
        }
        // Empty one interior leaf: it is unlinked and freed.
        let before = t.leaf_offsets();
        let victim = before[before.len() / 2];
        let keys: Vec<u64> = Leaf::new(&pool, &layout, victim)
            .collect_merged::<FixedKey>()
            .into_iter()
            .map(|(k, _)| k)
            .collect();
        for k in &keys {
            assert!(t.remove(k));
        }
        assert!(!t.leaf_offsets().contains(&victim), "leaf was freed");
        Leaf::new(&pool, &layout, victim).digest_forge(3);
        // Grow until a split is served the same offset again.
        let mut next = 1u64;
        while !t.leaf_offsets().contains(&victim) {
            assert!(t.insert(&next, next), "insert {next}");
            next += 10;
            assert!(next < 100_000, "offset {victim:#x} was never reused");
        }
        let reborn = Leaf::new(&pool, &layout, victim);
        assert_eq!(reborn.wbuf_view().live, reborn.wbuf_count());
        for k in (1..next).step_by(10) {
            assert_eq!(t.get(&k), Some(k), "get {k} after reuse");
        }
        for i in 0..64u64 {
            let want = (!keys.contains(&(i * 10))).then_some(i);
            assert_eq!(t.get(&(i * 10)), want, "get {} after reuse", i * 10);
        }
        t.check_consistency().unwrap();
    }
}

/// The 16 reserved bytes after the lock word are never read, and the
/// digest words are overwritten by recovery before anything consults them:
/// whatever an image carries there — an older build's successor record, or
/// plain garbage — the tree answers exactly as the tree that wrote it.
#[test]
fn garbage_in_the_reserved_gap_and_the_digest_words_is_never_read() {
    use std::sync::atomic::Ordering;
    let cfg = small_cfg().with_wbuf_entries(8);
    let layout = LeafLayout::new(&cfg, 8);
    let pool = tracked_pool(8);
    let mut t = FPTree::create(Arc::clone(&pool), cfg, ROOT_SLOT);
    for i in 0..300u64 {
        assert!(t.insert(&(i * 7), i));
    }
    for i in (0..300u64).step_by(3) {
        assert!(t.update(&(i * 7), i + 1000));
    }
    let want: Vec<(u64, u64)> = t.scan(..).collect();
    let answers_match = |t: &FPTree| {
        for (k, v) in &want {
            assert_eq!(t.get(k), Some(*v));
            assert_eq!(t.get(&(k + 1)), None);
        }
        assert_eq!(t.scan(..).collect::<Vec<_>>(), want);
        let bounded: Vec<(u64, u64)> = want
            .iter()
            .filter(|(k, _)| (70..=700).contains(k))
            .copied()
            .collect();
        assert_eq!(t.range(&70, &700), bounded);
        t.check_consistency().unwrap();
    };
    // The four words between the lock word and the KV area: two reserved,
    // two of digest. A live tree only ever looks at the digest pair.
    let forge = |words: std::ops::Range<usize>| {
        for pair in t.leaf_offsets().windows(2) {
            let junk = [pair[1] * 3, pair[1], 0x2A, 0x9E37_79B9_7F4A_7C15 | 1];
            for w in words.clone() {
                pool.atomic_u64(pair[0] + (layout.off_lock + 8 + 8 * w) as u64)
                    .store(junk[w], Ordering::Relaxed);
            }
        }
    };
    forge(0..2);
    answers_match(&t);
    forge(0..4);
    drop(t);
    let pool2 = Arc::new(PmemPool::reopen(pool.clean_image(), PoolOptions::tracked(0)).unwrap());
    let t2 = FPTree::open(Arc::clone(&pool2), ROOT_SLOT).expect("recover");
    for off in t2.leaf_offsets() {
        let leaf = Leaf::new(&pool2, &layout, off);
        assert_eq!(leaf.wbuf_view().live, leaf.wbuf_count());
    }
    answers_match(&t2);
}

#[test]
fn try_create_rejects_bad_config_and_undersized_pools() {
    // (`.err()`: the trees are not `Debug`, so no `unwrap_err`.)
    let cfg = TreeConfig::fptree();
    let bad = cfg.with_leaf_capacity(0);
    match FPTree::try_create(direct_pool(8), bad, ROOT_SLOT).err() {
        Some(Error::InvalidConfig(msg)) => assert!(msg.contains("leaf capacity"), "{msg}"),
        other => panic!("expected InvalidConfig, got {other:?}"),
    }
    // 8 KiB cannot hold metadata + a 16-leaf group of 56-entry leaves; the
    // check runs before any allocation.
    let tiny = Arc::new(PmemPool::create(PoolOptions::direct(8 << 10)).unwrap());
    match FPTree::try_create(Arc::clone(&tiny), cfg, ROOT_SLOT).err() {
        Some(Error::PoolFull {
            required,
            available,
            shard,
        }) => {
            assert!(required > available, "{required} vs {available}");
            assert_eq!(shard, None);
        }
        other => panic!("expected PoolFull, got {other:?}"),
    }
    assert!(tiny.live_blocks().unwrap().is_empty());
}

#[test]
fn try_create_is_exact_at_every_pool_size() {
    // The footprint check must agree with the allocator: at every pool
    // size a fresh pool either is refused (nothing allocated) or yields a
    // working tree — `create` on a checked pool can never hit its `expect`.
    // (Fixed keys: the first insert lands in the first leaf, no allocation.)
    let grouped = TreeConfig::fptree();
    let plain = grouped.with_leaf_group_size(0);
    let refused = |p: &PmemPool, e: Error, bytes: usize| {
        assert!(matches!(e, Error::PoolFull { .. }), "{bytes} B: {e:?}");
        assert!(p.live_blocks().unwrap().is_empty(), "{bytes} B");
    };
    let (mut built, mut total) = (0, 0);
    for bytes in (8usize << 10..72 << 10).step_by(64) {
        let pool = || Arc::new(PmemPool::create(PoolOptions::direct(bytes)).unwrap());
        for cfg in [grouped, plain] {
            let p = pool();
            match FPTree::try_create(Arc::clone(&p), cfg, ROOT_SLOT) {
                Ok(mut t) => assert!(t.insert(&7, 1), "{bytes} B"),
                Err(e) => refused(&p, e, bytes),
            }
        }
        let p = pool();
        total += 1;
        match ConcurrentFPTree::try_create(Arc::clone(&p), plain, ROOT_SLOT) {
            Ok(t) => built += usize::from(t.insert(&7, 1)),
            Err(e) => refused(&p, e, bytes),
        }
    }
    // The sweep straddles the boundary: both outcomes were exercised.
    assert!(0 < built && built < total, "{built} of {total} built");
}

#[test]
fn try_bulk_load_rejects_bad_input_before_writing() {
    let cfg = small_cfg();
    let fresh = direct_pool(8).stats().snapshot().persist_calls;
    let untouched = |pool: &PmemPool| {
        assert!(pool.live_blocks().unwrap().is_empty(), "blocks leaked");
        assert_eq!(pool.stats().snapshot().persist_calls, fresh);
    };
    // Release builds used to accept these silently (the guard was a
    // debug_assert) and build leaves whose discriminators misroute.
    for bad in [
        vec![(30u64, 3u64), (10, 1), (20, 2)],
        vec![(10, 1), (20, 2), (20, 99)],
    ] {
        let pool = direct_pool(8);
        let err = FPTree::try_bulk_load(Arc::clone(&pool), cfg, ROOT_SLOT, &bad).err();
        assert!(matches!(err, Some(Error::InvalidConfig(_))), "{err:?}");
        untouched(&pool);
    }
    let pool = direct_pool(8);
    let long = vec![(vec![b'a'; 10], 1), (vec![b'k'; MAX_KEY_BYTES + 1], 2)];
    let err = FPTreeVar::try_bulk_load(Arc::clone(&pool), cfg, ROOT_SLOT, &long).err();
    let too_large = matches!(err, Some(Error::KeyTooLarge { len: 251, max: 250 }));
    assert!(too_large, "{err:?}");
    untouched(&pool);

    // Sorted unique input still loads, at the key-length limit included.
    let ok = vec![(vec![b'a'; 10], 1), (vec![b'k'; MAX_KEY_BYTES], 2)];
    let t = FPTreeVar::try_bulk_load(pool, cfg, ROOT_SLOT, &ok).unwrap();
    assert_eq!(t.len(), 2);
    assert_eq!(t.get(&ok[1].0), Some(2));
    t.check_consistency().unwrap();
}

/// Drives the guarded ops on a single tree and a concurrent tree side by
/// side: same answers on hits and misses, and a failed guard persists
/// nothing on the single tree.
fn guarded_ops_match_concurrent<K: fptree_core::ConcKey>(
    mk: impl Fn(u64) -> K::Owned,
    wbuf: usize,
) {
    let cfg = small_cfg().with_wbuf_entries(wbuf);
    let pool = direct_pool(16);
    let mut s = SingleTree::<K>::create(Arc::clone(&pool), cfg, ROOT_SLOT);
    let c = ConcurrentTree::<K>::create(direct_pool(16), cfg, ROOT_SLOT);
    for i in 0..40u64 {
        assert!(s.insert(&mk(i), i));
        assert!(c.insert(&mk(i), i));
    }
    let persists = || pool.stats().snapshot().persist_calls;
    for i in 0..44u64 {
        let k = mk(i);
        // Wrong expectation (or absent key): both refuse, nothing persists.
        let before = persists();
        assert!(!s.update_if(&k, i + 1, 777), "wbuf {wbuf} key {i}");
        assert!(!s.remove_if(&k, i + 1), "wbuf {wbuf} key {i}");
        assert_eq!(persists(), before, "failed guard persisted (key {i})");
        assert!(!c.update_if(&k, i + 1, 777));
        assert!(!c.remove_if(&k, i + 1));
        assert_eq!(s.get(&k), c.get(&k));

        // Right expectation: both apply; the guard then sees the new value.
        let present = i < 40;
        assert_eq!(s.update_if(&k, i, i + 100), present, "wbuf {wbuf} key {i}");
        assert_eq!(c.update_if(&k, i, i + 100), present);
        assert_eq!(s.get(&k), present.then_some(i + 100));
        assert_eq!(s.get(&k), c.get(&k));
        if i % 2 == 0 {
            assert!(!s.remove_if(&k, i), "stale value must not remove");
            assert_eq!(s.remove_if(&k, i + 100), present);
            assert_eq!(c.remove_if(&k, i + 100), present);
            assert_eq!(s.get(&k), None);
        }
    }
    assert_eq!(s.len(), c.len());
    assert_eq!(s.len(), 20);
    s.check_consistency().unwrap();
    c.check_consistency().unwrap();
}

#[test]
fn update_if_and_remove_if_match_the_concurrent_tree() {
    for wbuf in [0usize, 8] {
        guarded_ops_match_concurrent::<FixedKey>(|i| i * 7, wbuf);
        guarded_ops_match_concurrent::<VarKey>(|i| format!("key:{i:05}").into_bytes(), wbuf);
    }
}
