//! Property-based crash-consistency tests (the paper's central claim:
//! "the FPTree must be able to self-recover to a consistent state from any
//! software crash or power failure scenario").
//!
//! proptest generates random operation schedules, a random crash point
//! (counted in persistence events), and random survival seeds for unflushed
//! 8-byte words; after recovery the tree must be structurally consistent,
//! every *completed* operation must be durable, the in-flight operation must
//! be atomic, and the allocator must agree with the tree on every live
//! block (no persistent leaks).

use std::collections::BTreeMap;
use std::sync::Arc;

use fptree_suite::core::keys::{FixedKey, KeyKind, VarKey};
use fptree_suite::core::leaf::Leaf;
use fptree_suite::core::{LeafLayout, SingleTree, TreeConfig};
use fptree_suite::pmem::{crash_is_injected, PmemPool, PoolOptions, RawPPtr, ROOT_SLOT};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Insert(u16, u16),
    Update(u16, u16),
    Remove(u16),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0..200u16, any::<u16>()).prop_map(|(k, v)| Op::Insert(k, v)),
        1 => (0..200u16, any::<u16>()).prop_map(|(k, v)| Op::Update(k, v)),
        1 => (0..200u16).prop_map(Op::Remove),
    ]
}

/// Generic over the key kind; drives ops, crashes, recovers, checks.
fn crash_check<K: KeyKind>(
    mk: impl Fn(u16) -> K::Owned,
    ops: &[Op],
    fuse: u64,
    seed: u64,
    group_size: usize,
    wbuf: usize,
    digest_delta: isize,
) {
    let pool =
        Arc::new(PmemPool::create(PoolOptions::tracked(64 << 20).with_checker()).expect("pool"));
    // Completed operations and the model state they imply.
    let completed = std::sync::Mutex::new(BTreeMap::<u16, u64>::new());
    // Key of the operation executing when the crash fires: it may
    // legitimately commit or not (atomicity, not durability, applies).
    let in_flight = std::sync::Mutex::new(None::<u16>);
    let cfg = TreeConfig::fptree()
        .with_leaf_capacity(4)
        .with_inner_fanout(4)
        .with_leaf_group_size(group_size)
        .with_wbuf_entries(wbuf);
    // Outlives the crash: its leaf chain is what the forgery walks.
    let mut crashed_tree = None;

    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let tree = crashed_tree.insert(SingleTree::<K>::create(Arc::clone(&pool), cfg, ROOT_SLOT));
        pool.set_crash_fuse(Some(fuse));
        for op in ops {
            *in_flight.lock().expect("in-flight") = Some(match op {
                Op::Insert(k, _) | Op::Update(k, _) | Op::Remove(k) => *k,
            });
            match op {
                Op::Insert(k, v) => {
                    if tree.insert(&mk(*k), *v as u64) {
                        completed.lock().expect("model").insert(*k, *v as u64);
                    }
                }
                Op::Update(k, v) => {
                    if tree.update(&mk(*k), *v as u64) {
                        completed.lock().expect("model").insert(*k, *v as u64);
                    }
                }
                Op::Remove(k) => {
                    if tree.remove(&mk(*k)) {
                        completed.lock().expect("model").remove(k);
                    }
                }
            }
        }
    }));
    pool.set_crash_fuse(None);
    let crashed = match outcome {
        Ok(()) => false,
        Err(e) => {
            assert!(crash_is_injected(e.as_ref()), "non-injected panic escaped");
            true
        }
    };

    // Every completed operation must also have followed the durability
    // protocol (the crash-interrupted one is discarded unanalyzed).
    pool.assert_durability_clean();

    // The image's transient buffer digests (§5.16): as the run left them,
    // or forged to verify and claim one live entry more (ahead) or fewer
    // (behind) than the buffer holds. Raw pool atomics, so — like a lock
    // word an evicted line carried to SCM — they are in the image.
    if digest_delta != 0 {
        let layout = LeafLayout::new(&cfg, K::SLOT_SIZE);
        let crashed_tree = crashed_tree.expect("created before the fuse");
        for off in crashed_tree.leaf_offsets() {
            Leaf::new(&pool, &layout, off).digest_forge(digest_delta);
        }
    }
    let image = pool.crash_image(seed);
    let pool2 =
        Arc::new(PmemPool::reopen(image, PoolOptions::tracked(0).with_checker()).expect("reopen"));
    let tree = SingleTree::<K>::open(Arc::clone(&pool2), ROOT_SLOT).expect("recover");
    tree.check_consistency().expect("recovered tree consistent");

    let model = completed.lock().expect("model");
    let interrupted = *in_flight.lock().expect("in-flight");
    if crashed {
        // Every op whose call returned before the crash must be durable.
        // The interrupted op's key is exempt: that operation may have
        // committed or not (its call never returned).
        for (k, v) in model.iter() {
            if Some(*k) == interrupted {
                continue;
            }
            assert_eq!(
                tree.get(&mk(*k)),
                Some(*v),
                "completed op on key {k} lost after crash (fuse {fuse}, seed {seed})"
            );
        }
        // Atomicity of the in-flight op: any extra key beyond the model must
        // carry a value some operation actually wrote for that key.
        for (k, v) in tree.range(&mk(0), &mk(u16::MAX)) {
            let wrote_it = ops.iter().any(|op| match op {
                Op::Insert(ok, ov) | Op::Update(ok, ov) => mk(*ok) == k && *ov as u64 == v,
                Op::Remove(_) => false,
            });
            assert!(wrote_it, "phantom entry {k:?}={v} after crash");
        }
    } else {
        assert_eq!(tree.len(), model.len(), "clean run must recover exactly");
        for (k, v) in model.iter() {
            assert_eq!(tree.get(&mk(*k)), Some(*v));
        }
    }

    // A scan over the recovered leaf chain must see exactly the committed
    // keys: strictly sorted, no torn or phantom entries, and agreeing with
    // the tree's own point reads — the leaf-chain order itself (next
    // pointers + bitmaps) is what survived the crash.
    let scanned: Vec<(K::Owned, u64)> = tree.scan(..).collect();
    assert!(
        scanned.windows(2).all(|w| w[0].0 < w[1].0),
        "recovered scan not strictly sorted (fuse {fuse}, seed {seed})"
    );
    assert_eq!(scanned.len(), tree.len(), "scan disagrees with len");
    for (k, v) in &scanned {
        assert_eq!(tree.get(k), Some(*v), "scan entry invisible to get");
    }
    if crashed {
        for (k, v) in model.iter() {
            if Some(*k) == interrupted {
                continue;
            }
            assert!(
                scanned
                    .binary_search_by(|e| e.0.cmp(&mk(*k)))
                    .map(|i| scanned[i].1 == *v)
                    .unwrap_or(false),
                "committed key {k} missing from recovered scan (fuse {fuse}, seed {seed})"
            );
        }
    } else {
        let want: Vec<(K::Owned, u64)> = model.iter().map(|(k, v)| (mk(*k), *v)).collect();
        assert_eq!(scanned, want, "clean-run scan must equal the model exactly");
    }

    // No persistent leaks: every live block is reachable from the tree.
    audit_leaks::<K>(&pool2, &tree);

    // Recovery itself (allocator log replay, micro-log replay, re-init)
    // must follow the durability protocol too.
    pool2.assert_durability_clean();
}

/// A schedule step for the batched-commit crash sweep.
#[derive(Debug, Clone)]
enum BatchOp {
    InsertBatch(Vec<(u16, u16)>),
    RemoveBatch(Vec<u16>),
}

fn batch_op_strategy() -> impl Strategy<Value = BatchOp> {
    prop_oneof![
        3 => proptest::collection::vec((0..200u16, any::<u16>()), 1..40)
            .prop_map(BatchOp::InsertBatch),
        1 => proptest::collection::vec(0..200u16, 1..40).prop_map(BatchOp::RemoveBatch),
    ]
}

/// Crash sweep over the batched write path. A batch stages many slots with
/// plain stores and publishes each leaf run with one p-atomic bitmap
/// commit, so the crash windows differ from the single-op protocol: the
/// fuse can land mid-stage (staged slots must stay invisible), between two
/// runs of one batch (earlier runs durable, later ones absent), or inside
/// the split a run triggered. After recovery: completed batch calls are
/// durable in full, every surviving key carries a value some batch actually
/// wrote for it, and the durability checker accepts every persistence
/// event on both sides of the crash.
fn batch_crash_check<K: KeyKind>(
    mk: impl Fn(u16) -> K::Owned,
    ops: &[BatchOp],
    fuse: u64,
    seed: u64,
    group_size: usize,
) {
    let pool =
        Arc::new(PmemPool::create(PoolOptions::tracked(64 << 20).with_checker()).expect("pool"));
    let completed = std::sync::Mutex::new(BTreeMap::<u16, u64>::new());
    // Keys of the batch executing when the crash fires: each may have
    // committed (its run published) or not, independently.
    let in_flight = std::sync::Mutex::new(Vec::<u16>::new());

    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let cfg = TreeConfig::fptree()
            .with_leaf_capacity(4)
            .with_inner_fanout(4)
            .with_leaf_group_size(group_size);
        let mut tree = SingleTree::<K>::create(Arc::clone(&pool), cfg, ROOT_SLOT);
        pool.set_crash_fuse(Some(fuse));
        for op in ops {
            match op {
                BatchOp::InsertBatch(entries) => {
                    *in_flight.lock().expect("in-flight") =
                        entries.iter().map(|(k, _)| *k).collect();
                    let batch: Vec<(K::Owned, u64)> =
                        entries.iter().map(|(k, v)| (mk(*k), *v as u64)).collect();
                    tree.insert_batch(&batch);
                    // The call returned: the whole batch is committed.
                    // First occurrence of a duplicated key wins; keys
                    // already present keep their old value.
                    let mut model = completed.lock().expect("model");
                    for (k, v) in entries {
                        model.entry(*k).or_insert(*v as u64);
                    }
                }
                BatchOp::RemoveBatch(keys) => {
                    *in_flight.lock().expect("in-flight") = keys.clone();
                    let batch: Vec<K::Owned> = keys.iter().map(|k| mk(*k)).collect();
                    tree.remove_batch(&batch);
                    let mut model = completed.lock().expect("model");
                    for k in keys {
                        model.remove(k);
                    }
                }
            }
        }
        in_flight.lock().expect("in-flight").clear();
    }));
    pool.set_crash_fuse(None);
    let crashed = match outcome {
        Ok(()) => false,
        Err(e) => {
            assert!(crash_is_injected(e.as_ref()), "non-injected panic escaped");
            true
        }
    };
    pool.assert_durability_clean();

    let image = pool.crash_image(seed);
    let pool2 =
        Arc::new(PmemPool::reopen(image, PoolOptions::tracked(0).with_checker()).expect("reopen"));
    let tree = SingleTree::<K>::open(Arc::clone(&pool2), ROOT_SLOT).expect("recover");
    tree.check_consistency().expect("recovered tree consistent");

    let model = completed.lock().expect("model");
    let interrupted = in_flight.lock().expect("in-flight");
    if crashed {
        // Batches whose call returned before the crash are durable in
        // full; the interrupted batch's keys are exempt (each of its leaf
        // runs committed or didn't, independently).
        for (k, v) in model.iter() {
            if interrupted.contains(k) {
                continue;
            }
            assert_eq!(
                tree.get(&mk(*k)),
                Some(*v),
                "completed batch op on key {k} lost after crash (fuse {fuse}, seed {seed})"
            );
        }
        // No torn or phantom entries: every surviving key must carry a
        // value some insert batch actually offered for it — staged slots
        // whose run never published must be invisible.
        for (k, v) in tree.range(&mk(0), &mk(u16::MAX)) {
            let wrote_it = ops.iter().any(|op| match op {
                BatchOp::InsertBatch(entries) => entries
                    .iter()
                    .any(|(ok, ov)| mk(*ok) == k && *ov as u64 == v),
                BatchOp::RemoveBatch(_) => false,
            });
            assert!(wrote_it, "phantom entry {k:?}={v} after batched crash");
        }
    } else {
        assert_eq!(tree.len(), model.len(), "clean run must recover exactly");
        for (k, v) in model.iter() {
            assert_eq!(tree.get(&mk(*k)), Some(*v));
        }
    }

    // The recovered leaf chain must read as a strictly sorted scan that
    // agrees with point reads.
    let scanned: Vec<(K::Owned, u64)> = tree.scan(..).collect();
    assert!(
        scanned.windows(2).all(|w| w[0].0 < w[1].0),
        "recovered scan not strictly sorted (fuse {fuse}, seed {seed})"
    );
    assert_eq!(scanned.len(), tree.len(), "scan disagrees with len");
    for (k, v) in &scanned {
        assert_eq!(tree.get(k), Some(*v), "scan entry invisible to get");
    }

    audit_leaks::<K>(&pool2, &tree);
    pool2.assert_durability_clean();
}

/// Crash sweep over the keyspace-sharded tree. Each shard is its own pool
/// and durability domain; the fuse is armed on one proptest-chosen shard,
/// so the crash fires mid-operation on that shard while the others hold
/// only completed ops. A power failure hits the whole machine: every
/// pool's crash image drops its own unflushed lines (per-pool survival
/// seeds). Recovery reopens all shards concurrently; afterwards every
/// completed op (any shard) must be durable, the in-flight key atomic, and
/// the k-way merged scan strictly sorted.
fn sharded_crash_check(ops: &[Op], shards: usize, crash_shard: usize, fuse: u64, seed: u64) {
    use fptree_suite::core::ShardedTree;
    use fptree_suite::pmem::create_pools;

    let pools = create_pools(shards, PoolOptions::tracked(64 << 20).with_checker()).expect("pools");
    let completed = std::sync::Mutex::new(BTreeMap::<u16, u64>::new());
    let in_flight = std::sync::Mutex::new(None::<u16>);

    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let cfg = TreeConfig::fptree_concurrent()
            .with_leaf_capacity(4)
            .with_inner_fanout(4);
        let tree = ShardedTree::create(pools.clone(), cfg, ROOT_SLOT);
        pools[crash_shard % shards].set_crash_fuse(Some(fuse));
        for op in ops {
            *in_flight.lock().expect("in-flight") = Some(match op {
                Op::Insert(k, _) | Op::Update(k, _) | Op::Remove(k) => *k,
            });
            match op {
                Op::Insert(k, v) => {
                    if tree.insert(&(*k as u64), *v as u64) {
                        completed.lock().expect("model").insert(*k, *v as u64);
                    }
                }
                Op::Update(k, v) => {
                    if tree.update(&(*k as u64), *v as u64) {
                        completed.lock().expect("model").insert(*k, *v as u64);
                    }
                }
                Op::Remove(k) => {
                    if tree.remove(&(*k as u64)) {
                        completed.lock().expect("model").remove(k);
                    }
                }
            }
        }
    }));
    for pool in &pools {
        pool.set_crash_fuse(None);
    }
    let crashed = match outcome {
        Ok(()) => false,
        Err(e) => {
            assert!(crash_is_injected(e.as_ref()), "non-injected panic escaped");
            true
        }
    };
    for pool in &pools {
        pool.assert_durability_clean();
    }

    // Whole-machine power failure: every shard pool loses its own unflushed
    // lines, under a per-shard survival seed.
    let pools2: Vec<Arc<PmemPool>> = pools
        .iter()
        .enumerate()
        .map(|(i, pool)| {
            let image =
                pool.crash_image(seed.wrapping_add((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)));
            Arc::new(
                PmemPool::reopen(image, PoolOptions::tracked(0).with_checker()).expect("reopen"),
            )
        })
        .collect();
    let tree = ShardedTree::open(pools2.clone(), ROOT_SLOT).expect("recover");
    tree.check_consistency().expect("recovered tree consistent");

    let model = completed.lock().expect("model");
    let interrupted = *in_flight.lock().expect("in-flight");
    if crashed {
        for (k, v) in model.iter() {
            if Some(*k) == interrupted {
                continue;
            }
            assert_eq!(
                tree.get(&(*k as u64)),
                Some(*v),
                "completed op on key {k} lost after sharded crash (fuse {fuse}, seed {seed})"
            );
        }
    } else {
        assert_eq!(tree.len(), model.len(), "clean run must recover exactly");
        for (k, v) in model.iter() {
            assert_eq!(tree.get(&(*k as u64)), Some(*v));
        }
    }

    // The merged scan over all recovered shards: strictly sorted, no
    // phantom values, agreeing with point reads.
    let scanned: Vec<(u64, u64)> = tree.scan(..).collect();
    assert!(
        scanned.windows(2).all(|w| w[0].0 < w[1].0),
        "recovered sharded scan not strictly sorted (fuse {fuse}, seed {seed})"
    );
    assert_eq!(scanned.len(), tree.len(), "scan disagrees with len");
    for (k, v) in &scanned {
        assert_eq!(tree.get(k), Some(*v), "scan entry invisible to get");
        let wrote_it = ops.iter().any(|op| match op {
            Op::Insert(ok, ov) | Op::Update(ok, ov) => *ok as u64 == *k && *ov as u64 == *v,
            Op::Remove(_) => false,
        });
        assert!(wrote_it, "phantom entry {k}={v} after sharded crash");
    }

    tree.leak_audit().expect("no persistent leaks in any shard");
    for pool in &pools2 {
        pool.assert_durability_clean();
    }
}

/// Allocator-vs-tree reachability audit.
fn audit_leaks<K: KeyKind>(pool: &Arc<PmemPool>, tree: &SingleTree<K>) {
    let live = pool.live_blocks().expect("heap walk");
    let mut reachable = std::collections::HashSet::new();
    // Tree metadata block (from the root slot).
    let owner: RawPPtr = pool.read_at(ROOT_SLOT);
    reachable.insert(owner.offset);
    // Leaf groups (group mode) by walking the persistent group list; the
    // list head lives in the metadata block — reuse the tree's own
    // accounting instead: every leaf offset and key blob.
    let cfg = tree.config();
    if cfg.leaf_group_size > 1 {
        // Group blocks are the allocation unit: collect them by walking the
        // group list stored in metadata (offset 48 within the block).
        let ghead: RawPPtr = pool.read_at(owner.offset + 48);
        let mut cur = ghead;
        while !cur.is_null() {
            reachable.insert(cur.offset);
            cur = pool.read_at(cur.offset);
        }
    } else {
        for off in tree.leaf_offsets() {
            reachable.insert(off);
        }
    }
    if K::IS_VAR {
        // The tree's ownership rule: a key blob belongs to exactly one valid
        // slot or one live append-buffer entry (recovery leaves live
        // buffers unfolded).
        let layout = LeafLayout::new(cfg, K::SLOT_SIZE);
        let mut owned = std::collections::HashSet::new();
        for off in tree.leaf_offsets() {
            let leaf = Leaf::new(pool, &layout, off);
            let bm = leaf.bitmap();
            let slots = (0..layout.m)
                .filter(|s| bm & (1 << s) != 0)
                .map(|s| leaf.key_off(s));
            let entries = (0..leaf.wbuf_count()).map(|i| leaf.wbuf_key_off(i));
            for key_off in slots.chain(entries) {
                let p: RawPPtr = pool.read_at(key_off);
                if !p.is_null() {
                    assert!(
                        owned.insert(p.offset),
                        "key blob at {:#x} referenced twice",
                        p.offset
                    );
                }
            }
        }
        reachable.extend(owned);
    }
    for (off, size) in &live {
        assert!(
            reachable.contains(off),
            "persistent leak: block at {off:#x} ({size} B) unreachable from the tree"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn fixed_keys_with_groups(
        ops in proptest::collection::vec(op_strategy(), 20..120),
        fuse in 50u64..2500,
        seed in any::<u64>(),
    ) {
        crash_check::<FixedKey>(|k| k as u64, &ops, fuse, seed, 4, 8, 0);
    }

    #[test]
    fn fixed_keys_without_groups(
        ops in proptest::collection::vec(op_strategy(), 20..120),
        fuse in 50u64..2500,
        seed in any::<u64>(),
    ) {
        crash_check::<FixedKey>(|k| k as u64, &ops, fuse, seed, 0, 8, 0);
    }

    /// The §5.12 append-buffer crash sweep: buffer sizes from disabled to
    /// larger than the leaf, so random fuses land inside append publishes
    /// and folds (stage + bitmap commit + generation bump) as well as the
    /// plain slot path.
    #[test]
    fn wbuf_sizes_fixed_keys(
        ops in proptest::collection::vec(op_strategy(), 20..120),
        fuse in 50u64..2500,
        seed in any::<u64>(),
        wbuf in 0usize..=6,
    ) {
        crash_check::<FixedKey>(|k| k as u64, &ops, fuse, seed, 0, wbuf, 0);
    }

    /// Variable-size keys through the buffer: append entries own key blobs,
    /// and folds transfer blob pointers into slots then zero the dead
    /// entries — every window swept under crash + leak audit.
    #[test]
    fn wbuf_sizes_var_keys(
        ops in proptest::collection::vec(op_strategy(), 20..80),
        fuse in 50u64..2500,
        seed in any::<u64>(),
        wbuf in 1usize..=4,
    ) {
        crash_check::<VarKey>(
            |k| format!("key:{k:05}").into_bytes(),
            &ops,
            fuse,
            seed,
            2,
            wbuf,
            0,
        );
    }

    /// A crash image can carry any transient bytes: a digest that verifies
    /// yet claims an entry that never became durable (ahead), or misses one
    /// that did (behind). Recovery's audit must overwrite it from the walk
    /// before anything consults it — same oracle as every other sweep.
    #[test]
    fn forged_digests_are_wiped_by_recovery(
        ops in proptest::collection::vec(op_strategy(), 20..100),
        fuse in 50u64..2500,
        seed in any::<u64>(),
        wbuf in 1usize..=8,
        ahead in any::<bool>(),
        var in any::<bool>(),
    ) {
        let delta = if ahead { 1 } else { -1 };
        if var {
            let mk = |k: u16| format!("key:{k:05}").into_bytes();
            crash_check::<VarKey>(mk, &ops, fuse, seed, 2, wbuf, delta);
        } else {
            crash_check::<FixedKey>(|k| k as u64, &ops, fuse, seed, 0, wbuf, delta);
        }
    }

    #[test]
    fn var_keys(
        ops in proptest::collection::vec(op_strategy(), 20..80),
        fuse in 50u64..2500,
        seed in any::<u64>(),
    ) {
        crash_check::<VarKey>(
            |k| format!("key:{k:05}").into_bytes(),
            &ops,
            fuse,
            seed,
            2,
            8,
            0,
        );
    }

    #[test]
    fn batched_fixed_keys_with_groups(
        ops in proptest::collection::vec(batch_op_strategy(), 2..20),
        fuse in 50u64..2500,
        seed in any::<u64>(),
    ) {
        batch_crash_check::<FixedKey>(|k| k as u64, &ops, fuse, seed, 4);
    }

    #[test]
    fn batched_fixed_keys_without_groups(
        ops in proptest::collection::vec(batch_op_strategy(), 2..20),
        fuse in 50u64..2500,
        seed in any::<u64>(),
    ) {
        batch_crash_check::<FixedKey>(|k| k as u64, &ops, fuse, seed, 0);
    }

    #[test]
    fn sharded_point_ops(
        ops in proptest::collection::vec(op_strategy(), 20..100),
        shards in 2usize..=4,
        crash_shard in 0usize..4,
        fuse in 50u64..1500,
        seed in any::<u64>(),
    ) {
        sharded_crash_check(&ops, shards, crash_shard, fuse, seed);
    }

    #[test]
    fn batched_var_keys(
        ops in proptest::collection::vec(batch_op_strategy(), 2..12),
        fuse in 50u64..2500,
        seed in any::<u64>(),
    ) {
        batch_crash_check::<VarKey>(
            |k| format!("key:{k:05}").into_bytes(),
            &ops,
            fuse,
            seed,
            2,
        );
    }
}
