//! End-to-end integration: the memcached-style cache and the TATP database
//! running over every pluggable index, plus a full pipeline test (populate →
//! crash → recover → query).

use std::cell::Cell;
use std::sync::Arc;

use fptree_bench::mcbench::{run as run_mcbench, McBenchConfig};
use fptree_suite::baselines::{adapters, HashIndex, NVTreeC, StxTree, WBTree};
use fptree_suite::core::concurrent::ConcurrentFPTreeVar;
use fptree_suite::core::index::{BytesIndex, U64Index};
use fptree_suite::core::keys::{FixedKey, VarKey};
use fptree_suite::core::{ConcurrentFPTree, Locked, SingleTree, TreeConfig};
use fptree_suite::kvcache::KvCache;
use fptree_suite::pmem::{PmemPool, PoolOptions, ROOT_SLOT};
use fptree_suite::tatp::{run_mix, TatpDb};

fn pool(mb: usize) -> Arc<PmemPool> {
    Arc::new(PmemPool::create(PoolOptions::direct(mb << 20)).unwrap())
}

fn bytes_indexes() -> Vec<(&'static str, Arc<dyn BytesIndex>)> {
    vec![
        (
            "fptree-var",
            Arc::new(Locked::new(SingleTree::<VarKey>::create(
                pool(128),
                TreeConfig::fptree_var(),
                ROOT_SLOT,
            ))),
        ),
        (
            "fptree-c-var",
            Arc::new(ConcurrentFPTreeVar::create(
                pool(128),
                TreeConfig::fptree_concurrent_var(),
                ROOT_SLOT,
            )),
        ),
        (
            "nvtree-var",
            Arc::new(NVTreeC::<VarKey>::create(pool(128), 16, 16, ROOT_SLOT)),
        ),
        (
            "wbtree-var",
            Arc::new(adapters::Locked::new(WBTree::<VarKey>::create(
                pool(128),
                16,
                16,
                ROOT_SLOT,
            ))),
        ),
        (
            "stx-var",
            Arc::new(adapters::Locked::new(StxTree::<Vec<u8>>::new())),
        ),
        ("hash", Arc::new(HashIndex::<Vec<u8>>::new(16))),
    ]
}

#[test]
fn kvcache_works_over_every_index() {
    for (name, index) in bytes_indexes() {
        let cache = Arc::new(KvCache::new(index));
        for i in 0..500u32 {
            cache.set(format!("k{i}").as_bytes(), i, format!("v{i}").into_bytes());
        }
        // Overwrites.
        for i in 0..500u32 {
            cache.set(format!("k{i}").as_bytes(), i, format!("w{i}").into_bytes());
        }
        for i in 0..500u32 {
            let (f, v) = cache.get(format!("k{i}").as_bytes()).unwrap();
            assert_eq!(f, i, "{name}");
            assert_eq!(v, format!("w{i}").into_bytes(), "{name}");
        }
        assert!(cache.delete(b"k0"), "{name}");
        assert_eq!(cache.get(b"k0"), None, "{name}");
        assert_eq!(cache.len(), 499, "{name}");
    }
}

#[test]
fn mcbench_runs_over_concurrent_fptree() {
    let index = Arc::new(ConcurrentFPTreeVar::create(
        pool(256),
        TreeConfig::fptree_concurrent_var(),
        ROOT_SLOT,
    ));
    let cache = Arc::new(KvCache::new(index));
    let cfg = McBenchConfig {
        requests: 4000,
        clients: 4,
        keyspace: 2000,
        value_size: 16,
        net_ns: 0,
    };
    let r = run_mcbench(cache.as_ref(), &cfg);
    assert!(r.set > 0.0 && r.get > 0.0);
    assert_eq!(cache.len(), 2000);
}

#[test]
fn tatp_runs_over_every_u64_index() {
    type Factory = Box<dyn Fn(&str) -> Arc<dyn U64Index>>;
    let factories: Vec<(&str, Factory)> = vec![
        (
            "stx",
            Box::new(|_| Arc::new(adapters::Locked::new(StxTree::<u64>::new()))),
        ),
        ("fptree", {
            let p = pool(256);
            let dir = p.allocate(ROOT_SLOT, 64 * 16).unwrap();
            let next = Cell::new(0u64);
            Box::new(move |_| {
                let slot = dir + next.get() * 16;
                next.set(next.get() + 1);
                Arc::new(Locked::new(SingleTree::<FixedKey>::create(
                    Arc::clone(&p),
                    TreeConfig::fptree(),
                    slot,
                )))
            })
        }),
        ("fptree-c", {
            let p = pool(256);
            let dir = p.allocate(ROOT_SLOT, 64 * 16).unwrap();
            let next = Cell::new(0u64);
            Box::new(move |_| {
                let slot = dir + next.get() * 16;
                next.set(next.get() + 1);
                Arc::new(ConcurrentFPTree::create(
                    Arc::clone(&p),
                    TreeConfig::fptree_concurrent(),
                    slot,
                ))
            })
        }),
        ("wbtree", {
            let p = pool(256);
            let dir = p.allocate(ROOT_SLOT, 64 * 16).unwrap();
            let next = Cell::new(0u64);
            Box::new(move |_| {
                let slot = dir + next.get() * 16;
                next.set(next.get() + 1);
                Arc::new(adapters::Locked::new(WBTree::<FixedKey>::create(
                    Arc::clone(&p),
                    32,
                    16,
                    slot,
                )))
            })
        }),
        ("nvtree", {
            let p = pool(256);
            let dir = p.allocate(ROOT_SLOT, 64 * 16).unwrap();
            let next = Cell::new(0u64);
            Box::new(move |_| {
                let slot = dir + next.get() * 16;
                next.set(next.get() + 1);
                Arc::new(NVTreeC::<FixedKey>::create(Arc::clone(&p), 64, 8, slot))
            })
        }),
    ];

    for (name, factory) in factories {
        let db = TatpDb::populate(300, &*factory, 11);
        // Every subscriber reachable.
        for s in 1..=300u64 {
            assert!(
                db.get_subscriber_data(s).is_some(),
                "{name}: subscriber {s}"
            );
        }
        let tps = run_mix(&db, 2, 4000, 3);
        assert!(tps > 0.0, "{name}");
    }
}

/// Full pipeline: populate TATP over FPTree dictionaries, crash the pool,
/// recover every index, verify queries still answer correctly.
#[test]
fn tatp_survives_restart() {
    let p = Arc::new(PmemPool::create(PoolOptions::tracked(256 << 20)).unwrap());
    let dir = p.allocate(ROOT_SLOT, 64 * 16).unwrap();
    let next = Cell::new(0u64);
    let factory = |_: &str| -> Arc<dyn U64Index> {
        let slot = dir + next.get() * 16;
        next.set(next.get() + 1);
        Arc::new(Locked::new(SingleTree::<FixedKey>::create(
            Arc::clone(&p),
            TreeConfig::fptree(),
            slot,
        )))
    };
    let db = TatpDb::populate(200, &factory, 13);
    let before: Vec<_> = (1..=200u64).map(|s| db.get_subscriber_data(s)).collect();

    let image = p.clean_image();
    let p2 = Arc::new(PmemPool::reopen(image, PoolOptions::tracked(0)).unwrap());
    let slots = next.get();
    // Recover each dictionary index and make sure the key → code mappings
    // survived: rebuild a fresh DB shell and compare PK lookups.
    let recovered: Vec<_> = (0..slots)
        .map(|i| SingleTree::<FixedKey>::open(Arc::clone(&p2), dir + i * 16).expect("recover"))
        .collect();
    // Index 0 is the subscriber PK dictionary (created first).
    let sub_pk = &recovered[0];
    for s in 1..=200u64 {
        let row = sub_pk.get(&s).expect("subscriber key survived") as usize;
        assert!(row < 200);
        assert!(before[s as usize - 1].is_some());
    }
}
