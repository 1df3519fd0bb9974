//! Differential testing: every evaluated tree must implement identical map
//! semantics. Random workloads run against all trees and a BTreeMap oracle.

use std::collections::BTreeMap;
use std::sync::Arc;

use fptree_suite::core::{
    ConcurrentTree, FixedKey, KeyKind, ShardedTree, SingleTree, TreeConfig, VarKey,
};
use fptree_suite::pmem::{create_pools, PmemPool, PoolOptions, ROOT_SLOT};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Insert(u32, u32),
    Update(u32, u32),
    Remove(u32),
    Get(u32),
    Range(u32, u32),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0..400u32, any::<u32>()).prop_map(|(k, v)| Op::Insert(k, v)),
        2 => (0..400u32, any::<u32>()).prop_map(|(k, v)| Op::Update(k, v)),
        2 => (0..400u32).prop_map(Op::Remove),
        3 => (0..400u32).prop_map(Op::Get),
        1 => (0..400u32, 0..400u32).prop_map(|(a, b)| Op::Range(a.min(b), a.max(b))),
    ]
}

/// Tree-call adapter: one closure avoids multi-borrow issues.
enum Call {
    Insert(u64, u64),
    Update(u64, u64),
    Remove(u64),
    Get(u64),
    Range(u64, u64),
    /// Full ordered scan; issued once after the schedule.
    ScanAll,
}

enum Resp {
    Bool(bool),
    Val(Option<u64>),
    Scan(Option<Vec<(u64, u64)>>),
}

/// Runs the schedule against one tree through a single dispatch closure,
/// checking against the oracle op by op.
fn check(name: &str, ops: &[Op], mut run: impl FnMut(Call) -> Resp) {
    let as_bool = |r: Resp| match r {
        Resp::Bool(b) => b,
        _ => panic!("expected bool"),
    };
    let mut oracle = BTreeMap::new();
    for op in ops {
        match op {
            Op::Insert(k, v) => {
                let expect = !oracle.contains_key(&(*k as u64));
                let got = as_bool(run(Call::Insert(*k as u64, *v as u64)));
                assert_eq!(got, expect, "{name}: insert {k}");
                if expect {
                    oracle.insert(*k as u64, *v as u64);
                }
            }
            Op::Update(k, v) => {
                let expect = oracle.contains_key(&(*k as u64));
                let got = as_bool(run(Call::Update(*k as u64, *v as u64)));
                assert_eq!(got, expect, "{name}: update {k}");
                if expect {
                    oracle.insert(*k as u64, *v as u64);
                }
            }
            Op::Remove(k) => {
                let expect = oracle.remove(&(*k as u64)).is_some();
                let got = as_bool(run(Call::Remove(*k as u64)));
                assert_eq!(got, expect, "{name}: remove {k}");
            }
            Op::Get(k) => {
                let got = match run(Call::Get(*k as u64)) {
                    Resp::Val(v) => v,
                    _ => panic!("expected val"),
                };
                assert_eq!(got, oracle.get(&(*k as u64)).copied(), "{name}: get {k}");
            }
            Op::Range(lo, hi) => {
                let got = match run(Call::Range(*lo as u64, *hi as u64)) {
                    Resp::Scan(s) => s,
                    _ => panic!("expected scan"),
                };
                if let Some(got) = got {
                    let expect: Vec<(u64, u64)> = oracle
                        .range(*lo as u64..=*hi as u64)
                        .map(|(k, v)| (*k, *v))
                        .collect();
                    assert_eq!(got, expect, "{name}: range {lo}..={hi}");
                }
            }
        }
    }
    // The full ordered view must equal the oracle after any schedule.
    if let Resp::Scan(Some(got)) = run(Call::ScanAll) {
        let expect: Vec<(u64, u64)> = oracle.iter().map(|(k, v)| (*k, *v)).collect();
        assert_eq!(got, expect, "{name}: full scan");
    }
}

fn small(cfg: TreeConfig) -> TreeConfig {
    cfg.with_leaf_capacity(4).with_inner_fanout(4)
}

/// A schedule step for the batched write path: each batch may hold
/// duplicates and keys that are already present or absent.
#[derive(Debug, Clone)]
enum BatchOp {
    InsertBatch(Vec<(u32, u32)>),
    RemoveBatch(Vec<u32>),
}

fn batch_op_strategy() -> impl Strategy<Value = BatchOp> {
    prop_oneof![
        3 => proptest::collection::vec((0..300u32, any::<u32>()), 0..48)
            .prop_map(BatchOp::InsertBatch),
        2 => proptest::collection::vec(0..300u32, 0..48).prop_map(BatchOp::RemoveBatch),
    ]
}

/// Loop-of-singles semantics for a batch, applied to the oracle: inserts
/// take the first occurrence of a duplicated key, removes count each key
/// once. `insert_batch`/`remove_batch` must return exactly these counts and
/// leave the tree equal to the oracle.
fn apply_batch_to_oracle(oracle: &mut BTreeMap<u64, u64>, op: &BatchOp) -> usize {
    match op {
        BatchOp::InsertBatch(entries) => entries
            .iter()
            .filter(|(k, v)| {
                use std::collections::btree_map::Entry;
                match oracle.entry(*k as u64) {
                    Entry::Vacant(e) => {
                        e.insert(*v as u64);
                        true
                    }
                    Entry::Occupied(_) => false,
                }
            })
            .count(),
        BatchOp::RemoveBatch(keys) => keys
            .iter()
            .filter(|k| oracle.remove(&(**k as u64)).is_some())
            .count(),
    }
}

/// Digest probe vs. checksum walk over identical leaf bytes (§5.16): a leaf
/// built by hand — `slot_keys` under `bitmap`, then `appends` into the
/// buffer — answers every probe the same way with its digest and, the
/// digest's tag zeroed, through the fallback walk; the answer is the
/// oracle's; the digest path never charges more lines than the walk.
fn assert_digest_matches_walk<K: fptree_suite::core::KeyKind>(
    m: usize,
    wbuf: usize,
    bitmap: u64,
    slot_keys: &[K::Owned],
    appends: &[(K::Owned, u64)],
    probes: &[K::Owned],
) {
    use fptree_suite::core::leaf::Leaf;
    use fptree_suite::core::LeafLayout;
    use fptree_suite::pmem::{PmemPool, PoolOptions, ROOT_SLOT};
    use std::sync::atomic::Ordering;

    let cfg = TreeConfig {
        leaf_capacity: m,
        wbuf_entries: wbuf,
        ..TreeConfig::fptree()
    };
    let layout = LeafLayout::new(&cfg, K::SLOT_SIZE);
    let pool = PmemPool::create(PoolOptions::direct(4 << 20)).unwrap();
    let off = pool.allocate(ROOT_SLOT, layout.size).unwrap();
    pool.write_bytes(off, &vec![0u8; layout.size]);
    let leaf = Leaf::new(&pool, &layout, off);

    // Distinct keys only in the slot array (a leaf never holds a key twice).
    let mut oracle: BTreeMap<K::Owned, u64> = BTreeMap::new();
    let mut bm = 0u64;
    for (slot, k) in slot_keys.iter().take(m).enumerate() {
        if bitmap & (1 << slot) == 0 || oracle.contains_key(k) {
            continue;
        }
        K::write_slot(&pool, leaf.key_off(slot), k);
        leaf.set_value(slot, 1000 + slot as u64);
        leaf.set_fingerprint(slot, K::fingerprint(k));
        oracle.insert(k.clone(), 1000 + slot as u64);
        bm |= 1 << slot;
    }
    leaf.commit_bitmap(bm);
    for (i, (k, v)) in appends.iter().take(wbuf).enumerate() {
        leaf.wbuf_append::<K>(i, k, *v);
        oracle.insert(k.clone(), *v);
    }
    let live = appends.len().min(wbuf);
    assert_eq!(leaf.wbuf_view().live, live);
    assert_eq!(leaf.wbuf_count(), live);

    let tag = pool.atomic_u64(off + (layout.off_digest + 8 * layout.digest_fp_words()) as u64);
    let lines = |f: &dyn Fn() -> Option<u64>| {
        let before = pool.stats().snapshot().read_lines;
        let got = f();
        (got, pool.stats().snapshot().read_lines - before)
    };
    let keys = probes
        .iter()
        .chain(slot_keys.iter().take(m))
        .chain(appends.iter().map(|(k, _)| k));
    for k in keys {
        let (by_digest, digest_lines) = lines(&|| leaf.find_merged_value::<K>(k));
        let saved = tag.swap(0, Ordering::AcqRel);
        let (by_walk, walk_lines) = lines(&|| leaf.find_merged_value::<K>(k));
        tag.store(saved, Ordering::Release);
        assert_eq!(
            by_digest,
            oracle.get(k).copied(),
            "probe {k:?} (m={m}, W={wbuf})"
        );
        assert_eq!(by_digest, by_walk, "probe {k:?} diverged (m={m}, W={wbuf})");
        assert!(
            digest_lines <= walk_lines,
            "probe {k:?}: digest charged {digest_lines} lines, walk {walk_lines}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn all_trees_agree(ops in proptest::collection::vec(op_strategy(), 50..250)) {
        use fptree_suite::pmem::{PmemPool, PoolOptions, ROOT_SLOT};
        use std::sync::Arc;

        // FPTree (single-threaded, leaf groups).
        {
            let pool = Arc::new(PmemPool::create(PoolOptions::direct(64 << 20)).unwrap());
            let mut t = fptree_suite::core::FPTree::create(
                pool,
                small(TreeConfig::fptree()).with_leaf_group_size(2),
                ROOT_SLOT,
            );
            check("fptree", &ops, |c| match c {
                Call::Insert(k, v) => Resp::Bool(t.insert(&k, v)),
                Call::Update(k, v) => Resp::Bool(t.update(&k, v)),
                Call::Remove(k) => Resp::Bool(t.remove(&k)),
                Call::Get(k) => Resp::Val(t.get(&k)),
                Call::Range(lo, hi) => Resp::Scan(Some(t.range(&lo, &hi))),
                Call::ScanAll => Resp::Scan(Some(t.scan(..).collect())),
            });
            t.check_consistency().unwrap();
        }
        // PTree config.
        {
            let pool = Arc::new(PmemPool::create(PoolOptions::direct(64 << 20)).unwrap());
            let mut t = fptree_suite::core::FPTree::create(
                pool,
                small(TreeConfig::ptree()),
                ROOT_SLOT,
            );
            check("ptree", &ops, |c| match c {
                Call::Insert(k, v) => Resp::Bool(t.insert(&k, v)),
                Call::Update(k, v) => Resp::Bool(t.update(&k, v)),
                Call::Remove(k) => Resp::Bool(t.remove(&k)),
                Call::Get(k) => Resp::Val(t.get(&k)),
                Call::Range(lo, hi) => Resp::Scan(Some(t.range(&lo, &hi))),
                Call::ScanAll => Resp::Scan(Some(t.scan(..).collect())),
            });
        }
        // Concurrent FPTree.
        {
            let pool = Arc::new(PmemPool::create(PoolOptions::direct(64 << 20)).unwrap());
            let t = fptree_suite::core::ConcurrentFPTree::create(
                pool,
                small(TreeConfig::fptree_concurrent()),
                ROOT_SLOT,
            );
            check("fptree-c", &ops, |c| match c {
                Call::Insert(k, v) => Resp::Bool(t.insert(&k, v)),
                Call::Update(k, v) => Resp::Bool(t.update(&k, v)),
                Call::Remove(k) => Resp::Bool(t.remove(&k)),
                Call::Get(k) => Resp::Val(t.get(&k)),
                Call::Range(lo, hi) => Resp::Scan(Some(t.range(&lo, &hi))),
                Call::ScanAll => Resp::Scan(Some(t.scan(..).collect())),
            });
            t.check_consistency().unwrap();
        }
        // wBTree.
        {
            let pool = Arc::new(PmemPool::create(PoolOptions::direct(128 << 20)).unwrap());
            let mut t = fptree_suite::baselines::WBTreeFixed::create(pool, 4, 4, ROOT_SLOT);
            check("wbtree", &ops, |c| match c {
                Call::Insert(k, v) => Resp::Bool(t.insert(&k, v)),
                Call::Update(k, v) => Resp::Bool(t.update(&k, v)),
                Call::Remove(k) => Resp::Bool(t.remove(&k)),
                Call::Get(k) => Resp::Val(t.get(&k)),
                Call::Range(lo, hi) => Resp::Scan(Some(t.range(&lo, &hi))),
                Call::ScanAll => Resp::Scan(Some(t.scan_from(&0, usize::MAX))),
            });
            t.check_consistency().unwrap();
        }
        // NV-Tree.
        {
            let pool = Arc::new(PmemPool::create(PoolOptions::direct(128 << 20)).unwrap());
            let t = fptree_suite::baselines::NVTree::<fptree_suite::core::FixedKey>::create(
                pool, 8, 4, ROOT_SLOT,
            );
            check("nvtree", &ops, |c| match c {
                Call::Insert(k, v) => Resp::Bool(t.insert(&k, v)),
                Call::Update(k, v) => Resp::Bool(t.update(&k, v)),
                Call::Remove(k) => Resp::Bool(t.remove(&k)),
                Call::Get(k) => Resp::Val(t.get(&k)),
                Call::Range(lo, hi) => Resp::Scan(Some(t.range(&lo, &hi))),
                Call::ScanAll => Resp::Scan(Some(t.scan_from(&0, usize::MAX))),
            });
            t.check_consistency().unwrap();
        }
        // STXTree.
        {
            let mut t = fptree_suite::baselines::StxTree::<u64>::with_capacities(4, 4);
            check("stx", &ops, |c| match c {
                Call::Insert(k, v) => Resp::Bool(t.insert(&k, v)),
                Call::Update(k, v) => Resp::Bool(t.update(&k, v)),
                Call::Remove(k) => Resp::Bool(t.remove(&k)),
                Call::Get(k) => Resp::Val(t.get(&k)),
                Call::Range(lo, hi) => Resp::Scan(Some(t.range(&lo, &hi))),
                Call::ScanAll => Resp::Scan(Some(t.scan_from(&0, usize::MAX))),
            });
        }
    }

    #[test]
    fn sharded_tree_agrees_at_every_shard_count(
        ops in proptest::collection::vec(op_strategy(), 50..200),
    ) {
        use fptree_suite::pmem::{create_pools, PoolOptions, ROOT_SLOT};

        // Hash-sharding must be invisible to map semantics at any shard
        // count — including 7, which exercises non-power-of-two routing.
        for shards in [1usize, 2, 4, 7] {
            let pools = create_pools(shards, PoolOptions::direct(64 << 20)).unwrap();
            let t = fptree_suite::core::ShardedTree::create(
                pools,
                small(TreeConfig::fptree_concurrent()),
                ROOT_SLOT,
            );
            check(&format!("sharded-{shards}"), &ops, |c| match c {
                Call::Insert(k, v) => Resp::Bool(t.insert(&k, v)),
                Call::Update(k, v) => Resp::Bool(t.update(&k, v)),
                Call::Remove(k) => Resp::Bool(t.remove(&k)),
                Call::Get(k) => Resp::Val(t.get(&k)),
                Call::Range(lo, hi) => Resp::Scan(Some(t.range(&lo, &hi))),
                Call::ScanAll => Resp::Scan(Some(t.scan(..).collect())),
            });
            t.check_consistency().unwrap();
            t.leak_audit().unwrap();
        }
    }

    #[test]
    fn sharded_scan_from_is_sorted_dup_free_and_matches_one_shard(
        keys in proptest::collection::vec(any::<u32>(), 1..300),
        start in any::<u32>(),
        count in 1..64usize,
    ) {
        use fptree_suite::core::index::U64Index;
        use fptree_suite::pmem::{create_pools, PoolOptions, ROOT_SLOT};

        // The k-way merged scan through the index seam must be strictly
        // sorted, duplicate-free, and bit-identical to an unsharded tree's.
        let mk = |n: usize| {
            let pools = create_pools(n, PoolOptions::direct(64 << 20)).unwrap();
            let t = fptree_suite::core::ShardedTree::create(
                pools,
                small(TreeConfig::fptree_concurrent()),
                ROOT_SLOT,
            );
            for &k in &keys {
                t.insert(&(k as u64), k as u64 + 1);
            }
            t
        };
        let one = mk(1);
        let four = mk(4);
        let got = four.scan_from(start as u64, count).expect("sharded scans");
        prop_assert!(got.windows(2).all(|w| w[0].0 < w[1].0), "sorted, dup-free");
        prop_assert_eq!(got, one.scan_from(start as u64, count).expect("scans"));
    }

    #[test]
    fn batch_ops_match_loop_oracle(ops in proptest::collection::vec(batch_op_strategy(), 1..40)) {
        use fptree_suite::pmem::{PmemPool, PoolOptions, ROOT_SLOT};
        use std::sync::Arc;

        // Single-threaded FPTree with leaf groups.
        {
            let pool = Arc::new(PmemPool::create(PoolOptions::direct(64 << 20)).unwrap());
            let mut t = fptree_suite::core::FPTree::create(
                pool,
                small(TreeConfig::fptree()).with_leaf_group_size(2),
                ROOT_SLOT,
            );
            let mut oracle = BTreeMap::new();
            for op in &ops {
                let expect = apply_batch_to_oracle(&mut oracle, op);
                let got = match op {
                    BatchOp::InsertBatch(entries) => {
                        let e: Vec<(u64, u64)> =
                            entries.iter().map(|(k, v)| (*k as u64, *v as u64)).collect();
                        t.insert_batch(&e)
                    }
                    BatchOp::RemoveBatch(keys) => {
                        let k: Vec<u64> = keys.iter().map(|k| *k as u64).collect();
                        t.remove_batch(&k)
                    }
                };
                prop_assert_eq!(got, expect, "fptree: {:?}", op);
            }
            let got: Vec<(u64, u64)> = t.scan(..).collect();
            let expect: Vec<(u64, u64)> = oracle.iter().map(|(k, v)| (*k, *v)).collect();
            prop_assert_eq!(got, expect, "fptree: scan after batches");
            t.check_consistency().unwrap();
        }
        // Concurrent FPTree (one leaf lock per run).
        {
            let pool = Arc::new(PmemPool::create(PoolOptions::direct(64 << 20)).unwrap());
            let t = fptree_suite::core::ConcurrentFPTree::create(
                pool,
                small(TreeConfig::fptree_concurrent()),
                ROOT_SLOT,
            );
            let mut oracle = BTreeMap::new();
            for op in &ops {
                let expect = apply_batch_to_oracle(&mut oracle, op);
                let got = match op {
                    BatchOp::InsertBatch(entries) => {
                        let e: Vec<(u64, u64)> =
                            entries.iter().map(|(k, v)| (*k as u64, *v as u64)).collect();
                        t.insert_batch(&e)
                    }
                    BatchOp::RemoveBatch(keys) => {
                        let k: Vec<u64> = keys.iter().map(|k| *k as u64).collect();
                        t.remove_batch(&k)
                    }
                };
                prop_assert_eq!(got, expect, "fptree-c: {:?}", op);
            }
            let got: Vec<(u64, u64)> = t.scan(..).collect();
            let expect: Vec<(u64, u64)> = oracle.iter().map(|(k, v)| (*k, *v)).collect();
            prop_assert_eq!(got, expect, "fptree-c: scan after batches");
            t.check_consistency().unwrap();
        }
        // Variable-key FPTree: batch path over byte-string keys.
        {
            let key = |k: u32| format!("key:{k:06}").into_bytes();
            let pool = Arc::new(PmemPool::create(PoolOptions::direct(128 << 20)).unwrap());
            let mut t = fptree_suite::core::FPTreeVar::create(
                pool,
                small(TreeConfig::fptree_var()).with_leaf_group_size(2),
                ROOT_SLOT,
            );
            let mut oracle = BTreeMap::new();
            for op in &ops {
                let expect = apply_batch_to_oracle(&mut oracle, op);
                let got = match op {
                    BatchOp::InsertBatch(entries) => {
                        let e: Vec<(Vec<u8>, u64)> =
                            entries.iter().map(|(k, v)| (key(*k), *v as u64)).collect();
                        t.insert_batch(&e)
                    }
                    BatchOp::RemoveBatch(keys) => {
                        let k: Vec<Vec<u8>> = keys.iter().map(|k| key(*k)).collect();
                        t.remove_batch(&k)
                    }
                };
                prop_assert_eq!(got, expect, "fptree-var: {:?}", op);
            }
            let got: Vec<(Vec<u8>, u64)> = t.scan(..).collect();
            let expect: Vec<(Vec<u8>, u64)> =
                oracle.iter().map(|(k, v): (&u64, &u64)| (key(*k as u32), *v)).collect();
            prop_assert_eq!(got, expect, "fptree-var: scan after batches");
            t.check_consistency().unwrap();
        }
    }

    #[test]
    fn buffered_writes_match_loop_oracle(
        ops in proptest::collection::vec(op_strategy(), 50..250),
        wbuf in 1usize..=8,
    ) {
        use fptree_suite::pmem::{PmemPool, PoolOptions, ROOT_SLOT};
        use std::sync::Arc;

        // Single-key writes that commit through the per-leaf append buffer
        // (§5.12) must be observationally identical to the loop-of-singles
        // oracle at every buffer size, for gets, ranges, and full scans —
        // including reads that land while entries are still buffered.
        {
            let pool = Arc::new(PmemPool::create(PoolOptions::direct(64 << 20)).unwrap());
            let mut t = fptree_suite::core::FPTree::create(
                pool,
                small(TreeConfig::fptree())
                    .with_leaf_group_size(2)
                    .with_wbuf_entries(wbuf),
                ROOT_SLOT,
            );
            check(&format!("fptree-wbuf{wbuf}"), &ops, |c| match c {
                Call::Insert(k, v) => Resp::Bool(t.insert(&k, v)),
                Call::Update(k, v) => Resp::Bool(t.update(&k, v)),
                Call::Remove(k) => Resp::Bool(t.remove(&k)),
                Call::Get(k) => Resp::Val(t.get(&k)),
                Call::Range(lo, hi) => Resp::Scan(Some(t.range(&lo, &hi))),
                Call::ScanAll => Resp::Scan(Some(t.scan(..).collect())),
            });
            t.check_consistency().unwrap();
        }
        // Concurrent variant: the buffer rides under the leaf lock.
        {
            let pool = Arc::new(PmemPool::create(PoolOptions::direct(64 << 20)).unwrap());
            let t = fptree_suite::core::ConcurrentFPTree::create(
                pool,
                small(TreeConfig::fptree_concurrent()).with_wbuf_entries(wbuf),
                ROOT_SLOT,
            );
            check(&format!("fptree-c-wbuf{wbuf}"), &ops, |c| match c {
                Call::Insert(k, v) => Resp::Bool(t.insert(&k, v)),
                Call::Update(k, v) => Resp::Bool(t.update(&k, v)),
                Call::Remove(k) => Resp::Bool(t.remove(&k)),
                Call::Get(k) => Resp::Val(t.get(&k)),
                Call::Range(lo, hi) => Resp::Scan(Some(t.range(&lo, &hi))),
                Call::ScanAll => Resp::Scan(Some(t.scan(..).collect())),
            });
            t.check_consistency().unwrap();
        }
        // Batch entry points on a buffered tree still follow loop-of-singles
        // semantics: the fold path and the batch path may not disagree.
        {
            let pool = Arc::new(PmemPool::create(PoolOptions::direct(64 << 20)).unwrap());
            let mut t = fptree_suite::core::FPTree::create(
                pool,
                small(TreeConfig::fptree()).with_wbuf_entries(wbuf),
                ROOT_SLOT,
            );
            let mut oracle = BTreeMap::new();
            for op in &ops {
                match op {
                    Op::Insert(k, v) => {
                        let expect = usize::from(!oracle.contains_key(&(*k as u64)));
                        let got = t.insert_batch(&[(*k as u64, *v as u64)]);
                        prop_assert_eq!(got, expect, "batch-of-one insert {}", k);
                        if expect == 1 {
                            oracle.insert(*k as u64, *v as u64);
                        }
                    }
                    Op::Remove(k) => {
                        let expect = usize::from(oracle.remove(&(*k as u64)).is_some());
                        let got = t.remove_batch(&[*k as u64]);
                        prop_assert_eq!(got, expect, "batch-of-one remove {}", k);
                    }
                    _ => {}
                }
            }
            let got: Vec<(u64, u64)> = t.scan(..).collect();
            let expect: Vec<(u64, u64)> = oracle.iter().map(|(k, v)| (*k, *v)).collect();
            prop_assert_eq!(got, expect, "buffered batch-of-one: scan");
            t.check_consistency().unwrap();
        }
    }

    #[test]
    fn swar_and_scalar_probes_agree_on_random_leaves(
        m in 1usize..=64,
        bitmap in any::<u64>(),
        mut keys in proptest::collection::vec(0u64..96, 64),
        probes in proptest::collection::vec(0u64..96, 32),
        wbuf in prop_oneof![Just(0usize), Just(8usize)],
        collide in any::<bool>(),
    ) {
        use fptree_suite::core::fingerprint::fingerprint_u64;
        use fptree_suite::core::keys::{FixedKey, KeyKind};
        use fptree_suite::core::layout::LeafLayout;
        use fptree_suite::core::leaf::Leaf;
        use fptree_suite::pmem::{PmemPool, PoolOptions, ROOT_SLOT};

        // Fingerprint-collision-heavy variant: rewrite every other slot to a
        // distinct key sharing slot 0's fingerprint, so the probe's word
        // match-mask is dense and the full-key confirm actually decides.
        if collide {
            let base = keys[0];
            let fp = fingerprint_u64(base);
            let mut next = base;
            for k in keys.iter_mut().skip(1).step_by(2) {
                next += 1;
                while fingerprint_u64(next) != fp {
                    next += 1;
                }
                *k = next;
            }
        }

        // The SWAR word probe and its scalar reference loop must agree on
        // every (bitmap, keyset, probe) — same slot or same absence — and
        // charge the same SCM lines, over the same leaf bytes.
        let cfg = TreeConfig {
            leaf_capacity: m,
            wbuf_entries: wbuf,
            ..TreeConfig::fptree()
        };
        let layout = LeafLayout::new(&cfg, FixedKey::SLOT_SIZE);
        let pool = PmemPool::create(PoolOptions::direct(1 << 20)).unwrap();
        let off = pool.allocate(ROOT_SLOT, layout.size).unwrap();
        pool.write_bytes(off, &vec![0u8; layout.size]);

        let leaf = Leaf::new(&pool, &layout, off);
        for (slot, k) in keys.iter().take(m).enumerate() {
            FixedKey::write_slot(&pool, leaf.key_off(slot), k);
            leaf.set_value(slot, k + 1000);
            leaf.set_fingerprint(slot, FixedKey::fingerprint(k));
        }
        leaf.commit_bitmap(bitmap & layout.full_bitmap());

        for k in probes.iter().chain(keys.iter().take(m)) {
            pool.stats().reset();
            let a = leaf.find_slot::<FixedKey>(k);
            let la = pool.stats().snapshot().read_lines;
            pool.stats().reset();
            let b = leaf.find_slot_scalar::<FixedKey>(k);
            let lb = pool.stats().snapshot().read_lines;
            prop_assert_eq!(a, b, "probe {} diverged (m={}, bitmap={:#x})", k, m, bitmap);
            prop_assert_eq!(la, lb, "probe {} charged different lines", k);
        }
    }

    #[test]
    fn digest_and_walk_probes_agree_on_random_leaves(
        m in 1usize..=64,
        wbuf in prop_oneof![1usize..=8, Just(16usize), Just(64usize)],
        bitmap in any::<u64>(),
        mut ids in proptest::collection::vec(0u64..96, 64),
        appends in proptest::collection::vec((0u64..96, any::<u32>()), 0..=64),
        probes in proptest::collection::vec(0u64..96, 32),
        collide in any::<bool>(),
    ) {
        use fptree_suite::core::fingerprint::{fingerprint_bytes, fingerprint_u64};
        use fptree_suite::core::{FixedKey, VarKey};

        // Fingerprint-collision-heavy variant: every other id is rewritten
        // to a distinct one sharing ids[0]'s fingerprint — under the fixed
        // and the byte-string hash alike — so digest candidates are dense
        // and the full-key compare decides.
        let var_key = |id: u64| format!("key:{id:06}").into_bytes();
        if collide {
            let (fu, fb) = (fingerprint_u64(ids[0]), fingerprint_bytes(&var_key(ids[0])));
            let mut next = ids[0];
            for id in ids.iter_mut().skip(1).step_by(2) {
                next += 1;
                while fingerprint_u64(next) != fu || fingerprint_bytes(&var_key(next)) != fb {
                    next += 1;
                }
                *id = next;
            }
        }
        // Appends draw from the slot ids (updates shadowing a slot) and
        // from fresh ids, newest last.
        let appends: Vec<(u64, u64)> = appends
            .iter()
            .enumerate()
            .map(|(i, (id, v))| (if i % 2 == 0 { ids[i % ids.len()] } else { *id }, *v as u64))
            .collect();
        let probes: Vec<u64> = probes.iter().chain(ids.iter()).copied().collect();

        assert_digest_matches_walk::<FixedKey>(m, wbuf, bitmap, &ids, &appends, &probes);
        let v = |ids: &[u64]| ids.iter().map(|id| var_key(*id)).collect::<Vec<_>>();
        let var_appends: Vec<(Vec<u8>, u64)> =
            appends.iter().map(|(id, val)| (var_key(*id), *val)).collect();
        assert_digest_matches_walk::<VarKey>(m, wbuf, bitmap, &v(&ids), &var_appends, &v(&probes));
    }

    #[test]
    fn var_key_trees_agree(ops in proptest::collection::vec(op_strategy(), 50..150)) {
        use fptree_suite::pmem::{PmemPool, PoolOptions, ROOT_SLOT};
        use std::sync::Arc;
        // Zero-padded keys: byte order equals numeric order, so var-key
        // range output maps back onto the u64 oracle.
        let key = |k: u64| format!("key:{k:06}").into_bytes();
        let unkey = |k: &[u8]| -> u64 {
            std::str::from_utf8(&k[4..]).unwrap().parse().unwrap()
        };
        let map_back = |v: Vec<(Vec<u8>, u64)>| -> Vec<(u64, u64)> {
            v.iter().map(|(k, val)| (unkey(k), *val)).collect()
        };

        let pool = Arc::new(PmemPool::create(PoolOptions::direct(128 << 20)).unwrap());
        let mut fp = fptree_suite::core::FPTreeVar::create(
            pool,
            small(TreeConfig::fptree_var()).with_leaf_group_size(2),
            ROOT_SLOT,
        );
        check("fptree-var", &ops, |c| match c {
                Call::Insert(k, v) => Resp::Bool(fp.insert(&key(k), v)),
                Call::Update(k, v) => Resp::Bool(fp.update(&key(k), v)),
                Call::Remove(k) => Resp::Bool(fp.remove(&key(k))),
                Call::Get(k) => Resp::Val(fp.get(&key(k))),
                Call::Range(lo, hi) => {
                    Resp::Scan(Some(map_back(fp.range(&key(lo), &key(hi)))))
                }
                Call::ScanAll => Resp::Scan(Some(map_back(fp.scan(..).collect()))),
            });
        fp.check_consistency().unwrap();

        let pool = Arc::new(PmemPool::create(PoolOptions::direct(128 << 20)).unwrap());
        let mut wb = fptree_suite::baselines::WBTreeVar::create(pool, 4, 4, ROOT_SLOT);
        check("wbtree-var", &ops, |c| match c {
                Call::Insert(k, v) => Resp::Bool(wb.insert(&key(k), v)),
                Call::Update(k, v) => Resp::Bool(wb.update(&key(k), v)),
                Call::Remove(k) => Resp::Bool(wb.remove(&key(k))),
                Call::Get(k) => Resp::Val(wb.get(&key(k))),
                Call::Range(lo, hi) => {
                    Resp::Scan(Some(map_back(wb.range(&key(lo), &key(hi)))))
                }
                Call::ScanAll => {
                    Resp::Scan(Some(map_back(wb.scan_from(&key(0), usize::MAX))))
                }
            });
        wb.check_consistency().unwrap();
    }
}

/// Every user byte of the pool — transient words included.
fn pool_bytes(pool: &fptree_suite::pmem::PmemPool) -> Vec<u8> {
    let base = fptree_suite::pmem::USER_BASE;
    let mut bytes = vec![0u8; pool.capacity() - base as usize];
    pool.read_bytes(base, &mut bytes);
    bytes
}

/// Reads on a quiescent tree leave the pool bit-identical: no lookup or
/// scan stores anything, not even into a leaf's transient words.
fn assert_reads_do_not_write<K: KeyKind>(cfg: TreeConfig, key: impl Fn(u64) -> K::Owned) {
    let pool = Arc::new(PmemPool::create(PoolOptions::direct(8 << 20)).unwrap());
    let t = ConcurrentTree::<K>::create(Arc::clone(&pool), small(cfg), ROOT_SLOT);
    let mut oracle = BTreeMap::new();
    // Splits, buffered updates and removes, so leaves carry slots, live
    // buffer entries and digests; odd keys stay absent.
    for k in (0..400u64).step_by(2) {
        assert!(t.insert(&key(k), k));
        oracle.insert(key(k), k);
    }
    for k in (0..400u64).step_by(6) {
        assert!(t.update(&key(k), k + 1));
        oracle.insert(key(k), k + 1);
    }
    for k in (0..400u64).step_by(10) {
        assert!(t.remove(&key(k)));
        oracle.remove(&key(k));
    }
    let before = pool_bytes(&pool);
    for k in 0..400u64 {
        assert_eq!(t.get(&key(k)), oracle.get(&key(k)).copied());
        assert_eq!(t.contains(&key(k)), oracle.contains_key(&key(k)));
    }
    for (lo, hi) in [(0, 399), (17, 90), (90, 91), (250, 1000)] {
        let (lo, hi) = (key(lo), key(hi));
        let want: Vec<(K::Owned, u64)> = oracle
            .range(lo.clone()..=hi.clone())
            .map(|(k, v)| (k.clone(), *v))
            .collect();
        assert_eq!(t.range(&lo, &hi), want);
        assert_eq!(
            t.scan(lo.clone()..hi.clone()).count(),
            oracle.range(lo..hi).count()
        );
    }
    let all: Vec<(K::Owned, u64)> = oracle.iter().map(|(k, v)| (k.clone(), *v)).collect();
    assert_eq!(t.iter().collect::<Vec<_>>(), all);
    assert_eq!(t.first_key_value().as_ref(), all.first());
    assert_eq!(t.last_key_value().as_ref(), all.last());
    assert!(pool_bytes(&pool) == before, "a read wrote to the pool");
}

#[test]
fn reads_do_not_write() {
    for cfg in [TreeConfig::fptree(), TreeConfig::fptree_concurrent()] {
        assert_reads_do_not_write::<FixedKey>(cfg, |k| k);
    }
    for cfg in [
        TreeConfig::fptree_var(),
        TreeConfig::fptree_concurrent_var(),
    ] {
        assert_reads_do_not_write::<VarKey>(cfg, |k| format!("key:{k:06}").into_bytes());
    }
}

/// A seeded insert/update/remove mix over keys `0..300` and the map it
/// leaves. Every write stores a fresh value, so no buffered update repeats
/// the value its key's slot already holds.
fn seeded_mix(seed: u64, mut write: impl FnMut(u8, u64, u64) -> bool) -> BTreeMap<u64, u64> {
    let mut state = seed;
    let mut next = move || {
        // splitmix64
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut oracle = BTreeMap::new();
    for value in 1..=1500u64 {
        let (op, k) = ((next() % 10) as u8, next() % 300);
        let expect = match op {
            0..=5 => !oracle.contains_key(&k),
            6..=7 => oracle.contains_key(&k),
            _ => oracle.remove(&k).is_some(),
        };
        if op <= 7 && expect {
            oracle.insert(k, value);
        }
        assert_eq!(write(op, k, value), expect, "op {op} on key {k}");
    }
    oracle
}

/// Applies one [`seeded_mix`] write to a tree with the usual API.
macro_rules! mix_write {
    ($tree:expr, $key:expr) => {
        |op: u8, k: u64, v: u64| match op {
            0..=5 => $tree.insert(&$key(k), v),
            6..=7 => $tree.update(&$key(k), v),
            _ => $tree.remove(&$key(k)),
        }
    };
}

/// Number of leaves among `offs` with live append-buffer entries.
fn buffered_leaves<K: fptree_suite::core::KeyKind>(
    pool: &fptree_suite::pmem::PmemPool,
    cfg: &TreeConfig,
    offs: Vec<u64>,
) -> usize {
    let layout = fptree_suite::core::LeafLayout::new(cfg, K::SLOT_SIZE);
    offs.into_iter()
        .filter(|&off| fptree_suite::core::leaf::Leaf::new(pool, &layout, off).wbuf_count() > 0)
        .count()
}

/// Restarts `pools` from their clean images and asserts that `open`
/// issued no persist and flushed no line on any of them.
fn open_counted<T>(pools: &[Arc<PmemPool>], open: impl FnOnce(Vec<Arc<PmemPool>>) -> T) -> T {
    let reopened: Vec<_> = pools
        .iter()
        .map(|p| Arc::new(PmemPool::reopen(p.clean_image(), PoolOptions::direct(0)).unwrap()))
        .collect();
    let before: Vec<_> = reopened.iter().map(|p| p.stats().snapshot()).collect();
    let tree = open(reopened.clone());
    for (pool, before) in reopened.iter().zip(before) {
        let after = pool.stats().snapshot();
        let wrote = (
            after.persist_calls - before.persist_calls,
            after.flushed_lines - before.flushed_lines,
        );
        assert_eq!(wrote, (0, 0), "open issued (persists, flushed lines)");
    }
    tree
}

fn single_clean_restart<K: KeyKind>(cfg: TreeConfig, key: impl Fn(u64) -> K::Owned, seed: u64) {
    let pool = Arc::new(PmemPool::create(PoolOptions::direct(16 << 20)).unwrap());
    let mut t = SingleTree::<K>::create(Arc::clone(&pool), small(cfg), ROOT_SLOT);
    let oracle = seeded_mix(seed, mix_write!(t, key));
    assert!(buffered_leaves::<K>(&pool, t.config(), t.leaf_offsets()) > 0);
    let r = open_counted(&[pool], |p| {
        SingleTree::<K>::open(Arc::clone(&p[0]), ROOT_SLOT)
    });
    let r = r.unwrap();
    assert!(buffered_leaves::<K>(r.pool(), r.config(), r.leaf_offsets()) > 0);
    assert_eq!(r.len(), t.len());
    let want: Vec<_> = oracle.iter().map(|(k, v)| (key(*k), *v)).collect();
    assert_eq!(r.scan(..).collect::<Vec<_>>(), want);
    r.check_consistency().unwrap();
    r.leak_audit().unwrap();
}

fn concurrent_clean_restart<K: KeyKind>(cfg: TreeConfig, key: impl Fn(u64) -> K::Owned, seed: u64) {
    let pool = Arc::new(PmemPool::create(PoolOptions::direct(16 << 20)).unwrap());
    let t = ConcurrentTree::<K>::create(Arc::clone(&pool), small(cfg), ROOT_SLOT);
    let oracle = seeded_mix(seed, mix_write!(t, key));
    assert!(buffered_leaves::<K>(&pool, t.config(), t.leaf_offsets()) > 0);
    let r = open_counted(&[pool], |p| {
        ConcurrentTree::<K>::open(Arc::clone(&p[0]), ROOT_SLOT)
    });
    let r = r.unwrap();
    assert_eq!(r.len(), t.len());
    let want: Vec<_> = oracle.iter().map(|(k, v)| (key(*k), *v)).collect();
    assert_eq!(r.scan(..).collect::<Vec<_>>(), want);
    r.check_consistency().unwrap();
    r.leak_audit().unwrap();
}

/// A buffer holding an update that rewrote its slot's own value, beside a
/// changed value and a fresh insert, is not a fold that crashed after its
/// bitmap commit: that fold leaves *every* newest entry in a slot. Its
/// clean image restarts without a persist and keeps the buffer.
fn same_value_update_restart() {
    use fptree_suite::core::leaf::Leaf;
    use fptree_suite::core::LeafLayout;
    // One leaf: 8 slots and a 4-entry buffer.
    let cfg = TreeConfig::fptree()
        .with_leaf_capacity(8)
        .with_inner_fanout(4)
        .with_leaf_group_size(0)
        .with_wbuf_entries(4);
    let pool = Arc::new(PmemPool::create(PoolOptions::direct(16 << 20)).unwrap());
    let mut t = SingleTree::<FixedKey>::create(Arc::clone(&pool), cfg, ROOT_SLOT);
    for k in 1..=3 {
        assert!(t.insert(&k, k));
    }
    assert!(t.insert(&9, 9) && t.remove(&9), "folds 1..=3");
    assert!(t.update(&1, 1), "same value");
    assert!(t.update(&2, 20));
    assert!(t.insert(&4, 4));
    let layout = LeafLayout::new(t.config(), FixedKey::SLOT_SIZE);
    let off = t.leaf_offsets()[0];
    assert_eq!(Leaf::new(&pool, &layout, off).wbuf_count(), 3);
    let r = open_counted(&[pool], |p| {
        SingleTree::<FixedKey>::open(Arc::clone(&p[0]), ROOT_SLOT)
    });
    let r = r.unwrap();
    assert_eq!(
        Leaf::new(r.pool(), &layout, off).wbuf_count(),
        3,
        "buffer kept"
    );
    assert_eq!(
        r.scan(..).collect::<Vec<_>>(),
        [(1, 1), (2, 20), (3, 3), (4, 4)]
    );
    r.check_consistency().unwrap();
    r.leak_audit().unwrap();
}

/// Restarting a tree whose leaves carry live buffer entries from a clean
/// image writes nothing: no persist, no flushed line. The reopened tree
/// holds the same entries, keeps its buffers, and audits clean.
#[test]
fn open_of_a_clean_image_persists_nothing() {
    let var = |k: u64| format!("key:{k:06}").into_bytes();
    // Single-threaded trees with leaf groups (the preset) and without.
    single_clean_restart::<FixedKey>(TreeConfig::fptree(), |k| k, 1);
    let ungrouped = TreeConfig::fptree().with_leaf_group_size(0);
    single_clean_restart::<FixedKey>(ungrouped, |k| k, 2);
    single_clean_restart::<VarKey>(TreeConfig::fptree_var(), var, 3);
    concurrent_clean_restart::<FixedKey>(TreeConfig::fptree_concurrent(), |k| k, 4);
    concurrent_clean_restart::<VarKey>(TreeConfig::fptree_concurrent_var(), var, 5);
    same_value_update_restart();

    let pools = create_pools(3, PoolOptions::direct(8 << 20)).unwrap();
    let cfg = small(TreeConfig::fptree_concurrent());
    let t = ShardedTree::create(pools.clone(), cfg, ROOT_SLOT);
    let oracle = seeded_mix(6, mix_write!(t, |k| k));
    let buffered: usize = t
        .shards()
        .iter()
        .zip(&pools)
        .map(|(s, p)| buffered_leaves::<FixedKey>(p, s.config(), s.leaf_offsets()))
        .sum();
    assert!(buffered > 0);
    let r = open_counted(&pools, |p| ShardedTree::open(p, ROOT_SLOT).unwrap());
    assert_eq!(r.len(), t.len());
    assert_eq!(
        r.scan(..).collect::<Vec<_>>(),
        oracle.into_iter().collect::<Vec<_>>()
    );
    r.check_consistency().unwrap();
    r.leak_audit().unwrap();
}

/// A fold that crashed after its bitmap commit and before its generation
/// bump leaves live buffer entries whose bytes already sit in valid slots.
/// `open` must finish that fold (and only that one): the leaf's buffer is
/// empty afterwards, no blob leaks or is owned twice, and the tree answers
/// like the map before the interrupted remove.
fn assert_crashed_fold_is_finished<K: KeyKind>(
    key: impl Fn(u64) -> K::Owned,
    updates_buffer: bool,
) {
    use fptree_suite::core::leaf::Leaf;
    use fptree_suite::core::LeafLayout;
    use fptree_suite::pmem::crash_is_injected;

    // One leaf, no groups: 8 slots and a 4-entry buffer.
    let cfg = TreeConfig::fptree()
        .with_leaf_capacity(8)
        .with_inner_fanout(4)
        .with_leaf_group_size(0)
        .with_wbuf_entries(4);
    let layout = LeafLayout::new(&cfg, K::SLOT_SIZE);
    // Slots {1, 2, 3}, then a buffer of [4] or [4, 1'] (only fixed-size
    // keys buffer updates); removing the buffered key 4 folds the buffer
    // first (removing a slot key would leave the buffer alone).
    let prefix = |t: &mut SingleTree<K>| {
        for k in 1..=3 {
            assert!(t.insert(&key(k), k));
        }
        assert!(t.insert(&key(9), 9) && t.remove(&key(9)), "folds 1..=3");
        assert!(t.insert(&key(4), 4));
        if updates_buffer {
            assert!(t.update(&key(1), 10));
        }
    };
    let mut model: BTreeMap<u64, u64> = (1..=4).map(|k| (k, k)).collect();
    if updates_buffer {
        model.insert(1, 10);
    }
    // Live entries whose key bytes and value sit in a valid slot.
    let staged = |pool: &PmemPool, off: u64| {
        let leaf = Leaf::new(pool, &layout, off);
        (0..leaf.wbuf_count()).any(|i| {
            let k = K::read_slot(pool, leaf.wbuf_key_off(i));
            leaf.find_slot::<K>(&k).is_some_and(|s| {
                let (mut a, mut b) = (vec![0u8; layout.key_slot], vec![0u8; layout.key_slot]);
                pool.read_bytes(leaf.key_off(s), &mut a);
                pool.read_bytes(leaf.wbuf_key_off(i), &mut b);
                a == b && leaf.value(s) == leaf.wbuf_value(i)
            })
        })
    };
    // Walk the fuse through the remove until an image shows that state.
    for fuse in 0..200 {
        let pool = Arc::new(PmemPool::create(PoolOptions::tracked(4 << 20)).unwrap());
        let mut t = SingleTree::<K>::create(Arc::clone(&pool), cfg, ROOT_SLOT);
        prefix(&mut t);
        let off = t.leaf_offsets()[0];
        pool.set_crash_fuse(Some(fuse));
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| t.remove(&key(4))));
        pool.set_crash_fuse(None);
        match r {
            Ok(_) => panic!("the remove finished before its fold reached that state"),
            Err(e) => assert!(crash_is_injected(e.as_ref())),
        }
        for seed in 0..8 {
            let opts = PoolOptions::tracked(0).with_checker();
            let image = Arc::new(PmemPool::reopen(pool.crash_image(seed), opts).unwrap());
            if !staged(&image, off) {
                continue;
            }
            let r = SingleTree::<K>::open(Arc::clone(&image), ROOT_SLOT).expect("recover");
            let leaf = Leaf::new(&image, &layout, off);
            assert_eq!(leaf.wbuf_count(), 0, "open finished the crashed fold");
            r.check_consistency().unwrap();
            r.leak_audit().unwrap();
            image.assert_durability_clean();
            let got: Vec<(K::Owned, u64)> = r.scan(..).collect();
            let want: Vec<(K::Owned, u64)> = model.iter().map(|(k, v)| (key(*k), *v)).collect();
            assert_eq!(got, want, "fuse {fuse}, seed {seed}");
            return;
        }
    }
    panic!("no crash image held a fold between its bitmap commit and generation bump");
}

#[test]
fn open_finishes_a_fold_that_crashed_after_its_bitmap_commit() {
    assert_crashed_fold_is_finished::<FixedKey>(|k| k, true);
    assert_crashed_fold_is_finished::<VarKey>(|k| format!("key:{k:06}").into_bytes(), false);
}
