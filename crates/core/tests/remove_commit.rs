//! The remove contract (Algorithm 5 over the append buffer, DESIGN.md
//! §5.12): a key found in a slot is removed by one p-atomic bitmap commit
//! that leaves the buffer alone; a buffered key is folded first; a leaf is
//! empty only when neither a slot nor a live buffer entry is left. Each
//! test runs on the single-threaded handle (`FPTree`, `&mut` writes) and
//! on the concurrent tree (`&self` writes), with fixed and variable keys.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use fptree_core::leaf::Leaf;
use fptree_core::{ConcurrentTree, FixedKey, KeyKind, LeafLayout, SingleTree, TreeConfig, VarKey};
use fptree_pmem::{PmemPool, PoolOptions, CACHE_LINE, ROOT_SLOT};

/// One of the two tree handles, written through its own write methods.
enum Tree<K: KeyKind> {
    Single(SingleTree<K>),
    Concurrent(ConcurrentTree<K>),
}

impl<K: KeyKind> Tree<K> {
    /// An `FPTree`-style handle over the `fptree` preset, or a concurrent
    /// tree over the `fptree_concurrent` preset; both trimmed to leaves of
    /// 8 slots and a 4-entry buffer, so a test controls every fold.
    fn create(concurrent: bool, pool: &Arc<PmemPool>, groups: usize) -> Self {
        let preset = if concurrent {
            TreeConfig::fptree_concurrent()
        } else {
            TreeConfig::fptree()
        };
        let cfg = preset
            .with_leaf_capacity(8)
            .with_inner_fanout(4)
            .with_leaf_group_size(groups)
            .with_wbuf_entries(4);
        let pool = Arc::clone(pool);
        if concurrent {
            Tree::Concurrent(ConcurrentTree::create(pool, cfg, ROOT_SLOT))
        } else {
            Tree::Single(SingleTree::create(pool, cfg, ROOT_SLOT))
        }
    }

    fn read(&self) -> &ConcurrentTree<K> {
        match self {
            Tree::Single(t) => t,
            Tree::Concurrent(t) => t,
        }
    }

    fn insert(&mut self, k: &K::Owned, v: u64) -> bool {
        match self {
            Tree::Single(t) => t.insert(k, v),
            Tree::Concurrent(t) => t.insert(k, v),
        }
    }

    fn update(&mut self, k: &K::Owned, v: u64) -> bool {
        match self {
            Tree::Single(t) => t.update(k, v),
            Tree::Concurrent(t) => t.update(k, v),
        }
    }

    fn remove(&mut self, k: &K::Owned) -> bool {
        match self {
            Tree::Single(t) => t.remove(k),
            Tree::Concurrent(t) => t.remove(k),
        }
    }

    fn layout(&self) -> LeafLayout {
        LeafLayout::new(self.read().config(), K::SLOT_SIZE)
    }
}

fn fixed(i: u64) -> u64 {
    i
}

fn var(i: u64) -> Vec<u8> {
    format!("key:{i:06}").into_bytes()
}

/// `n` key ids, ascending, whose keys' fingerprints are pairwise distinct:
/// a probe for one of them never inspects another's slot or entry.
fn distinct_fps<K: KeyKind>(mk: &impl Fn(u64) -> K::Owned, n: usize) -> Vec<u64> {
    let mut ids = Vec::new();
    let mut fps = Vec::new();
    for i in 1.. {
        let fp = K::fingerprint(&mk(i));
        if !fps.contains(&fp) {
            fps.push(fp);
            ids.push(i);
            if ids.len() == n {
                return ids;
            }
        }
    }
    unreachable!()
}

/// Cache lines the byte range covers.
fn span_lines(off: u64, len: usize) -> u64 {
    (off + len as u64 - 1) / CACHE_LINE as u64 - off / CACHE_LINE as u64 + 1
}

/// The transient buffer digest words of the leaf at `off`.
fn digest_words(pool: &PmemPool, layout: &LeafLayout, off: u64) -> Vec<u64> {
    (0..=layout.digest_fp_words())
        .map(|w| {
            pool.atomic_u64(off + (layout.off_digest + 8 * w) as u64)
                .load(Ordering::Relaxed)
        })
        .collect()
}

/// Builds the one-leaf state every scenario starts from: slot keys
/// `ids[0..3]`, then the fresh keys `ids[3..5]` buffered (live = 2). The
/// key `ids[5]` fills the buffer and is removed again, which folds it.
fn slots_and_buffer<K: KeyKind>(
    t: &mut Tree<K>,
    pool: &PmemPool,
    mk: &impl Fn(u64) -> K::Owned,
    ids: &[u64],
) -> u64 {
    for &i in &[ids[0], ids[1], ids[2], ids[5]] {
        assert!(t.insert(&mk(i), i));
    }
    assert!(t.remove(&mk(ids[5])), "a buffered key's remove folds");
    for &i in &ids[3..5] {
        assert!(t.insert(&mk(i), i));
    }
    let off = t.read().leaf_offsets()[0];
    let layout = t.layout();
    let leaf = Leaf::new(pool, &layout, off);
    assert_eq!((leaf.count(), leaf.wbuf_count()), (3, 2));
    off
}

/// A slot key's remove on a leaf with live entries: one persist, the
/// lines of a lookup (head + slot), and the buffer, its generation word
/// and its digest untouched. Fixed keys flush one line; variable keys
/// also release the key blob, which costs what it costs on a leaf with an
/// empty buffer.
fn slot_key_remove_is_one_bitmap_commit<K: KeyKind>(
    mk: impl Fn(u64) -> K::Owned,
    concurrent: bool,
) {
    let ids = distinct_fps::<K>(&mk, 6);
    let pool = Arc::new(PmemPool::create(PoolOptions::direct(4 << 20)).unwrap());
    let mut t = Tree::<K>::create(concurrent, &pool, 0);
    let layout = t.layout();
    let off = slots_and_buffer(&mut t, &pool, &mk, &ids);
    let leaf = Leaf::new(&pool, &layout, off);
    let (gen, digest) = (leaf.wbuf_gen(), digest_words(&pool, &layout, off));
    let victim = mk(ids[1]);
    let slot = leaf.find_slot::<K>(&victim).expect("a slot key");

    let before = pool.stats().snapshot();
    assert_eq!(t.read().get(&victim), Some(ids[1]));
    let get_lines = pool.stats().snapshot().read_lines - before.read_lines;
    let before = pool.stats().snapshot();
    assert!(t.remove(&victim));
    let after = pool.stats().snapshot();
    let (lines, persists, flushed) = (
        after.read_lines - before.read_lines,
        after.persist_calls - before.persist_calls,
        after.flushed_lines - before.flushed_lines,
    );
    assert_eq!(lines, get_lines, "a remove reads what a lookup reads");
    if !K::IS_VAR {
        let head = span_lines(off, layout.head_len());
        let slot = span_lines(leaf.key_off(slot), layout.key_slot + layout.value_size);
        assert_eq!(lines, head + slot, "head + slot");
        assert_eq!((persists, flushed), (1, 1), "one bitmap commit");
    }
    assert_eq!(leaf.wbuf_count(), 2, "the buffer stays live");
    assert_eq!(leaf.wbuf_gen(), gen, "no fold bumped the generation");
    assert_eq!(
        digest_words(&pool, &layout, off),
        digest,
        "digest unchanged"
    );
    assert_eq!(t.read().get(&victim), None);
    for &i in [ids[0], ids[2], ids[3], ids[4]].iter() {
        assert_eq!(t.read().get(&mk(i)), Some(i));
    }
    t.read().check_consistency().unwrap();
    t.read().leak_audit().unwrap();

    // The same remove on a leaf whose buffer is empty: the bitmap commit
    // and, for variable keys, the blob release — nothing more.
    let pool2 = Arc::new(PmemPool::create(PoolOptions::direct(4 << 20)).unwrap());
    let mut t2 = Tree::<K>::create(concurrent, &pool2, 0);
    slots_and_buffer(&mut t2, &pool2, &mk, &ids);
    assert!(t2.remove(&mk(ids[3])), "folds the buffer");
    let before = pool2.stats().snapshot();
    assert!(t2.remove(&mk(ids[1])));
    let after = pool2.stats().snapshot();
    assert_eq!(
        (persists, flushed),
        (
            after.persist_calls - before.persist_calls,
            after.flushed_lines - before.flushed_lines
        ),
        "live entries add nothing to a slot key's remove"
    );
}

#[test]
fn removing_a_slot_key_beside_live_entries_is_one_bitmap_commit() {
    for concurrent in [false, true] {
        slot_key_remove_is_one_bitmap_commit::<FixedKey>(fixed, concurrent);
        slot_key_remove_is_one_bitmap_commit::<VarKey>(var, concurrent);
    }
}

/// Removing a buffered key — a fresh insert, or (fixed keys only: a
/// variable key's update takes the slot path) a buffered update of a slot
/// key — folds the buffer first and answers like the map.
fn buffered_key_remove_folds<K: KeyKind>(mk: impl Fn(u64) -> K::Owned, concurrent: bool) {
    let ids = distinct_fps::<K>(&mk, 6);
    let pool = Arc::new(PmemPool::create(PoolOptions::direct(4 << 20)).unwrap());
    let mut t = Tree::<K>::create(concurrent, &pool, 0);
    let layout = t.layout();
    let off = slots_and_buffer(&mut t, &pool, &mk, &ids);
    let leaf = Leaf::new(&pool, &layout, off);
    let mut model: Vec<(u64, u64)> = [0, 1, 2, 3, 4].map(|j| (ids[j], ids[j])).to_vec();

    // A fresh buffered key.
    let gen = leaf.wbuf_gen();
    assert!(t.remove(&mk(ids[3])));
    model.retain(|(k, _)| *k != ids[3]);
    assert_eq!(leaf.wbuf_gen(), gen + 1, "the remove folded");
    assert_eq!(
        (leaf.count(), leaf.wbuf_count()),
        (4, 0),
        "ids[4] folded too"
    );

    // A buffered update of a slot key.
    if !K::IS_VAR {
        assert!(t.update(&mk(ids[0]), 77));
        assert_eq!(leaf.wbuf_count(), 1, "the update is buffered");
        assert!(t.remove(&mk(ids[0])));
        model.retain(|(k, _)| *k != ids[0]);
        assert_eq!(leaf.wbuf_gen(), gen + 2, "the remove folded");
        assert_eq!(leaf.wbuf_count(), 0);
    }
    let want: Vec<(K::Owned, u64)> = model.iter().map(|&(k, v)| (mk(k), v)).collect();
    assert_eq!(t.read().scan(..).collect::<Vec<_>>(), want);
    for &(k, v) in &model {
        assert_eq!(t.read().get(&mk(k)), Some(v));
    }
    assert_eq!(t.read().get(&mk(ids[3])), None);
    assert_eq!(t.read().len(), model.len());
    t.read().check_consistency().unwrap();
    t.read().leak_audit().unwrap();
}

#[test]
fn removing_a_buffered_key_still_folds() {
    for concurrent in [false, true] {
        buffered_key_remove_folds::<FixedKey>(fixed, concurrent);
        buffered_key_remove_folds::<VarKey>(var, concurrent);
    }
}

/// A leaf whose slots empty while its buffer holds a fresh key is not
/// empty: it stays linked, answers and scans that key, survives a restart,
/// and is unlinked only when that last buffered key goes too.
fn leaf_with_only_buffered_keys_stays_linked<K: KeyKind>(
    mk: impl Fn(u64) -> K::Owned,
    concurrent: bool,
) {
    for groups in [0usize, 4] {
        let pool = Arc::new(PmemPool::create(PoolOptions::tracked(8 << 20)).unwrap());
        let mut t = Tree::<K>::create(concurrent, &pool, groups);
        let layout = t.layout();
        // Ascending inserts: every split leaves its lower half folded.
        for i in 1..=40u64 {
            assert!(t.insert(&mk(i * 10), i));
        }
        let first = t.read().leaf_offsets()[0];
        let leaf = Leaf::new(&pool, &layout, first);
        assert!(t.read().leaf_offsets().len() > 1);
        assert_eq!(leaf.wbuf_count(), 0, "a split's lower half is folded");
        let slot_keys: Vec<K::Owned> = leaf
            .collect_entries::<K>()
            .into_iter()
            .map(|(_, k)| k)
            .collect();
        // A fresh key below every other routes here and is buffered.
        assert!(t.insert(&mk(1), 1));
        assert_eq!(leaf.wbuf_count(), 1);
        for k in &slot_keys {
            assert!(t.remove(k));
        }
        assert_eq!((leaf.count(), leaf.wbuf_count()), (0, 1));
        assert!(t.read().leaf_offsets().contains(&first), "still linked");
        assert_eq!(t.read().get(&mk(1)), Some(1));
        assert_eq!(t.read().scan(..).next(), Some((mk(1), 1)));
        assert_eq!(t.read().len(), 40 + 1 - slot_keys.len());
        t.read().check_consistency().unwrap();
        t.read().leak_audit().unwrap();

        // A restart counts the buffered key and keeps the leaf.
        let image = pool.clean_image();
        let pool2 = Arc::new(PmemPool::reopen(image, PoolOptions::tracked(0)).unwrap());
        let r = SingleTree::<K>::open(Arc::clone(&pool2), ROOT_SLOT).expect("recover");
        assert!(r.leaf_offsets().contains(&first));
        assert_eq!(r.get(&mk(1)), Some(1));
        assert_eq!(r.len(), t.read().len());
        r.check_consistency().unwrap();
        r.leak_audit().unwrap();

        // The last key goes: the leaf is empty and unlinked.
        assert!(t.remove(&mk(1)));
        assert!(!t.read().leaf_offsets().contains(&first), "unlinked");
        assert_eq!(t.read().get(&mk(1)), None);
        assert_eq!(t.read().len(), 40 - slot_keys.len());
        t.read().check_consistency().unwrap();
        t.read().leak_audit().unwrap();
    }
}

#[test]
fn a_leaf_with_only_buffered_keys_stays_linked_until_they_go() {
    for concurrent in [false, true] {
        leaf_with_only_buffered_keys_stays_linked::<FixedKey>(fixed, concurrent);
        leaf_with_only_buffered_keys_stays_linked::<VarKey>(var, concurrent);
    }
}
