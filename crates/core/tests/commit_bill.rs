//! The commit bill of every leaf write site: `(persist calls, flushed
//! lines, read lines)` for one operation on a one-leaf tree, pinned per
//! site and key kind. Every site stages its slots and commits them through
//! one bitmap write (DESIGN.md §5.14); these figures show that routing the
//! sites through one commit helper changed no store, flush or charged read.

use std::sync::Arc;

use fptree_core::leaf::Leaf;
use fptree_core::{FixedKey, KeyKind, LeafLayout, SingleTree, TreeConfig, VarKey};
use fptree_pmem::{PmemPool, PoolOptions, ROOT_SLOT};

/// One write site and the tree preset it runs on.
#[derive(Clone, Copy, Debug)]
enum Site {
    /// A fresh key into a PTree leaf with a free slot (no buffer).
    PtreeInsert,
    /// A present key of a PTree leaf: stage a copy, retire the old slot.
    PtreeUpdate,
    /// The slot-path update of an FPTree leaf: with an empty buffer for
    /// variable keys (they never buffer an update), without a buffer for
    /// fixed keys.
    SlotUpdate,
    /// `wbuf_fold` of a full buffer: fresh keys, and for fixed keys also a
    /// buffered update of a slot key and a shadowed entry.
    Fold,
    /// `insert_batch` of four fresh keys into one leaf.
    BatchRun,
    /// `remove` of a slot key (no fold).
    Remove,
    /// `remove_batch` of three slot keys (no fold).
    RemoveRun,
}

/// `(persist_calls, flushed_lines, read_lines)` of one operation.
type Bill = (u64, u64, u64);

/// Every site with its pinned bill for fixed keys, then for variable keys.
const BILLS: [(Site, Bill, Bill); 7] = [
    (Site::PtreeInsert, (3, 3, 5), (11, 11, 15)),
    (Site::PtreeUpdate, (3, 3, 6), (4, 4, 13)),
    (Site::SlotUpdate, (3, 3, 2), (4, 4, 3)),
    (Site::Fold, (4, 6, 2), (8, 11, 1)),
    (Site::BatchRun, (3, 4, 1), (35, 37, 1)),
    (Site::Remove, (1, 1, 2), (7, 7, 3)),
    (Site::RemoveRun, (1, 1, 5), (19, 19, 7)),
];

fn fixed(i: u64) -> u64 {
    i
}

fn var(i: u64) -> Vec<u8> {
    format!("key:{i:06}").into_bytes()
}

/// The preset `site` runs on, for key kind `K`.
fn config<K: KeyKind>(site: Site) -> TreeConfig {
    match site {
        Site::PtreeInsert | Site::PtreeUpdate if K::IS_VAR => TreeConfig::ptree_var(),
        Site::PtreeInsert | Site::PtreeUpdate => TreeConfig::ptree(),
        Site::SlotUpdate if K::IS_VAR => TreeConfig::fptree_var(),
        Site::SlotUpdate => TreeConfig::fptree().with_wbuf_entries(0),
        _ if K::IS_VAR => TreeConfig::fptree_var(),
        _ => TreeConfig::fptree(),
    }
}

/// Runs `site` once on a fresh one-leaf tree and returns what it cost.
fn bill<K: KeyKind>(mk: impl Fn(u64) -> K::Owned, site: Site) -> Bill {
    let pool = Arc::new(PmemPool::create(PoolOptions::direct(8 << 20)).unwrap());
    let mut t = SingleTree::<K>::create(Arc::clone(&pool), config::<K>(site), ROOT_SLOT);
    // Six slot keys, committed by one batch (the buffer stays empty).
    let slots: Vec<(K::Owned, u64)> = (1..=6).map(|i| (mk(i * 10), i)).collect();
    assert_eq!(t.insert_batch(&slots), 6);
    let layout = LeafLayout::new(t.config(), K::SLOT_SIZE);
    let off = t.leaf_offsets()[0];
    let leaf = Leaf::new(&pool, &layout, off);
    if matches!(site, Site::Fold) {
        let w = layout.wbuf_entries as u64;
        let mut n = 0;
        if !K::IS_VAR {
            // A buffered update of slot key 20, shadowed by a newer one.
            assert!(t.update(&mk(20), 200));
            assert!(t.update(&mk(20), 201));
            n = 2;
        }
        for i in n..w {
            assert!(t.insert(&mk(100 + i), i));
        }
        assert_eq!(leaf.wbuf_count(), w as usize, "a full buffer");
    }
    let before = pool.stats().snapshot();
    match site {
        Site::PtreeInsert => assert!(t.insert(&mk(35), 35)),
        Site::PtreeUpdate | Site::SlotUpdate => assert!(t.update(&mk(30), 33)),
        Site::Fold => leaf.wbuf_fold::<K>(),
        Site::BatchRun => {
            let run: Vec<(K::Owned, u64)> = (0..4).map(|i| (mk(15 + 10 * i), i)).collect();
            assert_eq!(t.insert_batch(&run), 4);
        }
        Site::Remove => assert!(t.remove(&mk(30))),
        Site::RemoveRun => assert_eq!(t.remove_batch(&[mk(20), mk(40), mk(50)]), 3),
    }
    let after = pool.stats().snapshot();
    assert_eq!(leaf.wbuf_count(), 0, "{site:?} leaves no live entry");
    t.check_consistency().unwrap();
    t.leak_audit().unwrap();
    (
        after.persist_calls - before.persist_calls,
        after.flushed_lines - before.flushed_lines,
        after.read_lines - before.read_lines,
    )
}

#[test]
fn every_commit_site_keeps_its_bill() {
    for (site, want_fixed, want_var) in BILLS {
        assert_eq!(
            bill::<FixedKey>(fixed, site),
            want_fixed,
            "{site:?}, fixed keys"
        );
        assert_eq!(
            bill::<VarKey>(var, site),
            want_var,
            "{site:?}, variable keys"
        );
    }
}
