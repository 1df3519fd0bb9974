//! Integration tests for the keyspace-sharded tree: scan equivalence with
//! an unsharded tree, `try_create` validation and PoolFull shard context, fill
//! statistics, batch equivalence, and the save/load/recovery round-trip
//! through the shard-file family.

use std::sync::Arc;

use fptree_core::{Error, ShardedTree, ShardedTreeVar, TreeConfig};
use fptree_pmem::{
    create_pools, load_pools, save_pools, shard_file_count, PmemPool, PoolOptions, ROOT_SLOT,
};
use rand::prelude::*;

fn small_cfg() -> TreeConfig {
    TreeConfig::fptree_concurrent()
        .with_leaf_capacity(4)
        .with_inner_fanout(4)
}

fn pools(n: usize, mb: usize) -> Vec<Arc<PmemPool>> {
    create_pools(n, PoolOptions::direct(mb << 20)).unwrap()
}

fn sharded(n: usize) -> ShardedTree {
    ShardedTree::create(pools(n, 32), small_cfg(), ROOT_SLOT)
}

/// The merged scan of an N-shard tree must be bit-identical to a 1-shard
/// tree's over the same keys — full range, suffix ranges, and bounded
/// sub-ranges.
#[test]
fn sharded_scan_is_bit_identical_to_one_shard() {
    let mut rng = StdRng::seed_from_u64(7);
    let keys: Vec<u64> = (0..5000u64).map(|_| rng.gen_range(0..100_000)).collect();
    let one = sharded(1);
    let many = sharded(5);
    for &k in &keys {
        assert_eq!(one.insert(&k, k ^ 0xAB), many.insert(&k, k ^ 0xAB));
    }
    assert_eq!(one.len(), many.len());

    let full_one: Vec<(u64, u64)> = one.scan(..).collect();
    let full_many: Vec<(u64, u64)> = many.scan(..).collect();
    assert_eq!(full_one, full_many, "full scans must be bit-identical");
    assert!(full_many.windows(2).all(|w| w[0].0 < w[1].0));

    for start in [0u64, 1, 17_000, 99_999, 100_001] {
        let a: Vec<(u64, u64)> = one.scan(start..).collect();
        let b: Vec<(u64, u64)> = many.scan(start..).collect();
        assert_eq!(a, b, "suffix scan from {start}");
        let a: Vec<(u64, u64)> = one.scan(start..start + 5000).collect();
        let b: Vec<(u64, u64)> = many.scan(start..start + 5000).collect();
        assert_eq!(a, b, "bounded scan from {start}");
    }
}

/// Batched writes through the sharded tree must agree with loop-of-singles
/// on an unsharded tree, including duplicate keys inside one batch
/// (first occurrence wins) and misses in remove batches.
#[test]
fn sharded_batches_match_unsharded_loop() {
    let mut rng = StdRng::seed_from_u64(8);
    let single = sharded(1);
    let many = sharded(4);
    for _ in 0..30 {
        let batch: Vec<(u64, u64)> = (0..rng.gen_range(1..200))
            .map(|_| (rng.gen_range(0..800u64), rng.gen()))
            .collect();
        let expect = batch.iter().filter(|(k, v)| single.insert(k, *v)).count();
        assert_eq!(many.insert_batch(&batch), expect);

        let dels: Vec<u64> = (0..rng.gen_range(1..100))
            .map(|_| rng.gen_range(0..800u64))
            .collect();
        let expect = dels.iter().filter(|k| single.remove(k)).count();
        assert_eq!(many.remove_batch(&dels), expect);
    }
    let a: Vec<(u64, u64)> = single.scan(..).collect();
    let b: Vec<(u64, u64)> = many.scan(..).collect();
    assert_eq!(a, b);
    many.check_consistency().unwrap();
    many.leak_audit().unwrap();
}

/// Validated sharded construction: an empty pool list is rejected, and an
/// undersized pool reports which shard is too small.
#[test]
fn try_create_rejects_empty_or_undersized_pools() {
    let cfg = TreeConfig::fptree_concurrent();
    let t = ShardedTree::try_create(pools(3, 16), cfg, ROOT_SLOT).unwrap();
    assert_eq!(t.shard_count(), 3);
    let err = ShardedTree::try_create(Vec::new(), cfg, ROOT_SLOT).unwrap_err();
    assert!(matches!(err, Error::InvalidConfig(_)), "{err:?}");

    // Pools below the initial footprint: the error names shard 0 (checked
    // first) so operators know which file to grow.
    let tiny = create_pools(3, PoolOptions::direct(8 << 10)).unwrap();
    match ShardedTree::try_create(tiny, cfg, ROOT_SLOT).unwrap_err() {
        Error::PoolFull {
            required,
            available,
            shard,
        } => {
            assert!(required > available, "{required} vs {available}");
            assert_eq!(shard, Some(0), "error must carry the shard index");
        }
        other => panic!("expected PoolFull, got {other:?}"),
    }
}

/// Filling one shard to capacity must surface `PoolFull` context through
/// the metrics fill levels — a skewed keyspace fills one shard first.
#[test]
fn fill_levels_track_per_shard_occupancy() {
    let t = sharded(4);
    for k in 0..3000u64 {
        t.insert(&k, k);
    }
    let fills = t.fill_levels();
    assert_eq!(fills.len(), 4);
    for (live, usable) in &fills {
        assert!(*live > 0, "every shard should hold data under uniform keys");
        assert!(live < usable);
    }
    let snap = t.metrics_snapshot();
    assert_eq!(snap.get("shards"), Some(4));
    let total: u64 = (0..4)
        .map(|i| snap.get(&format!("shard{i}_keys")).unwrap())
        .sum();
    assert_eq!(total, 3000);
    for i in 0..4 {
        assert!(snap.get(&format!("shard{i}_fill_permille")).is_some());
    }
}

/// Save the shard-file family, load it back, recover every shard, and
/// verify the contents — the full persistence round-trip, for both key
/// kinds. The shard count is rediscovered from the files on disk.
#[test]
fn save_load_recover_roundtrip_via_shard_files() {
    let dir = std::env::temp_dir().join(format!("fptree-shard-it-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let base = dir.join("tree.pool");

    {
        let ps = pools(3, 32);
        let t = ShardedTree::create(ps.clone(), small_cfg(), ROOT_SLOT);
        for k in 0..4000u64 {
            t.insert(&(k * 7), k);
        }
        save_pools(&ps, &base).unwrap();
    }
    assert_eq!(shard_file_count(&base), 3);
    {
        let ps = load_pools(&base, PoolOptions::direct(0)).unwrap();
        let t = ShardedTree::open(ps, ROOT_SLOT).unwrap();
        assert_eq!(t.shard_count(), 3);
        assert_eq!(t.len(), 4000);
        for k in 0..4000u64 {
            assert_eq!(t.get(&(k * 7)), Some(k), "key {k} after recovery");
        }
        assert!(t
            .scan(..)
            .collect::<Vec<_>>()
            .windows(2)
            .all(|w| w[0].0 < w[1].0));
        t.check_consistency().unwrap();
        t.leak_audit().unwrap();
    }

    // Variable keys through the same family path (separate base).
    let base_var = dir.join("tree-var.pool");
    let key = |k: u64| format!("user:{k:08}").into_bytes();
    {
        let ps = pools(2, 32);
        let cfg = TreeConfig::fptree_concurrent_var()
            .with_leaf_capacity(4)
            .with_inner_fanout(4);
        let t = ShardedTreeVar::create(ps.clone(), cfg, ROOT_SLOT);
        for k in 0..1500 {
            t.insert(&key(k), k);
        }
        save_pools(&ps, &base_var).unwrap();
    }
    {
        let ps = load_pools(&base_var, PoolOptions::direct(0)).unwrap();
        let t = ShardedTreeVar::open(ps, ROOT_SLOT).unwrap();
        assert_eq!(t.len(), 1500);
        for k in 0..1500 {
            assert_eq!(t.get(&key(k)), Some(k));
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// More shards than recovery workers: `open_with` runs the recoveries on a
/// bounded worker pool (here 2 workers for 12 shards) and every shard
/// still comes back with its own contents, in shard order.
#[test]
fn open_with_fewer_workers_than_shards_recovers_every_shard() {
    let ps = pools(12, 2);
    let expected = {
        let t = ShardedTree::create(ps.clone(), small_cfg(), ROOT_SLOT);
        for k in 0..3000u64 {
            t.insert(&(k * 13), k);
        }
        for k in (0..3000u64).step_by(5) {
            t.remove(&(k * 13));
        }
        t.scan(..).collect::<Vec<_>>()
    };
    for threads in [1, 2] {
        let t = ShardedTree::open_with(ps.clone(), ROOT_SLOT, threads).unwrap();
        assert_eq!(t.shard_count(), 12);
        assert_eq!(t.len(), expected.len());
        assert_eq!(t.scan(..).collect::<Vec<_>>(), expected);
        for (i, shard) in t.shards().iter().enumerate() {
            assert!(Arc::ptr_eq(shard.pool(), &ps[i]), "shard {i} out of order");
        }
        t.check_consistency().unwrap();
        t.leak_audit().unwrap();
    }
}

/// A shard whose recovery must persist crashes again inside
/// `open_with(.., 2)`: the injected panic reaches the caller with its own
/// payload, whichever worker ran that shard. The image is the first one
/// (by fuse) whose recovery writes at all — a crash inside a split leaves
/// a micro-log for `open` to replay.
#[test]
fn a_crash_inside_a_shard_recovery_reaches_the_caller() {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    let cfg = small_cfg().with_wbuf_entries(0);
    for fuse in 1..400u64 {
        let ps = create_pools(2, PoolOptions::tracked(4 << 20)).unwrap();
        let t = ShardedTree::create(ps.clone(), cfg, ROOT_SLOT);
        ps[1].set_crash_fuse(Some(fuse));
        let crashed = catch_unwind(AssertUnwindSafe(|| {
            for k in 0..200u64 {
                t.insert(&k, k);
            }
        }))
        .is_err();
        ps[1].set_crash_fuse(None);
        if !crashed {
            continue;
        }
        let images: Vec<Arc<PmemPool>> = ps
            .iter()
            .map(|p| {
                Arc::new(PmemPool::reopen(p.crash_image(fuse), PoolOptions::tracked(0)).unwrap())
            })
            .collect();
        images[1].set_crash_fuse(Some(0));
        let opened = catch_unwind(AssertUnwindSafe(|| {
            ShardedTree::open_with(images.clone(), ROOT_SLOT, 2)
        }));
        images[1].set_crash_fuse(None);
        if let Err(payload) = opened {
            assert!(
                fptree_pmem::crash_is_injected(payload.as_ref()),
                "the caller must see the injected crash, not a replacement panic"
            );
            return;
        }
    }
    panic!("no crash image in the sweep needed a persist to recover");
}

/// Concurrent writers spread across shards: the end state must be exactly
/// the union of all writes, and every shard internally consistent.
#[test]
fn concurrent_writers_across_shards() {
    let t = Arc::new(sharded(4));
    let threads = 4;
    let per = 2000u64;
    std::thread::scope(|s| {
        for w in 0..threads {
            let t = Arc::clone(&t);
            s.spawn(move || {
                for i in 0..per {
                    let k = w * per + i;
                    assert!(t.insert(&k, k + 1));
                }
            });
        }
    });
    assert_eq!(t.len(), (threads * per) as usize);
    for k in 0..threads * per {
        assert_eq!(t.get(&k), Some(k + 1));
    }
    t.check_consistency().unwrap();
    t.leak_audit().unwrap();
}
