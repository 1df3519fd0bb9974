//! Ordered range scans over the persistent leaf chain.
//!
//! FPTree leaves keep entries unsorted behind fingerprints (§4.1), so an
//! ordered scan has to *produce* order: seek to the first relevant leaf via
//! the transient inner nodes, then walk the persistent `next` chain, sorting
//! each leaf's merged live entries — bitmap-masked slots plus append-buffer
//! entries, newest shadowing oldest (§5.12) — into a fixed stack buffer
//! ([`MAX_LEAF_CAPACITY`] slots, of which only the configured leaf capacity
//! is ever used) before handing them out one by one.
//!
//! Two iterators share that machinery:
//!
//! * [`Scan`] — the single-threaded variant; the tree is externally
//!   synchronized (`&self` with no concurrent writers), so leaf reads need
//!   no validation.
//! * [`ConcScan`] — the concurrent variant. Each leaf read is validated
//!   against the leaf's 8-byte sequence lock, and leaf-to-leaf hops are
//!   validated *hand-over-hand*: after reading leaf `M` reached through
//!   `L.next`, the reader re-checks `L`'s version. Unlinking `M` always
//!   locks `L` (the unlink rewrites `L.next` under `L`'s lock), so an
//!   unchanged `L` proves `M` was `L`'s live successor for the whole read —
//!   a recycled leaf can never be mistaken for a chain member. On any
//!   version conflict the hop is retried a bounded number of times, then
//!   the scan re-seeks from the root by the last emitted key inside a
//!   globally validated speculative section (the same protocol as `get`).
//!   A monotonic emission filter (only keys strictly greater than the last
//!   yielded key) keeps the output sorted and duplicate-free across
//!   re-seeks, so scans never block writers and never observe torn leaves.

use std::ops::{Bound, RangeBounds};

use fptree_htm::Abort;

use crate::concurrent::{ConcKey, ConcurrentTree};
use crate::config::MAX_LEAF_CAPACITY;
use crate::inner::Node;
use crate::keys::KeyKind;
use crate::leafops::Ctx;
use crate::metrics::{Counter, Op, OpTimer};

/// Bounded retries of a leaf-chain hop before the scan falls back to a
/// re-seek from the root (mirrors the HTM retry-then-fallback shape).
const HOP_RETRIES: u32 = 8;

/// Owned, clonable form of a `RangeBounds` over tree keys.
#[derive(Debug)]
pub struct ScanBounds<K: KeyKind> {
    lo: Bound<K::Owned>,
    hi: Bound<K::Owned>,
}

// Manual impl: the derive would demand `K: Clone` on the key-kind marker
// itself, but only the owned endpoint keys need cloning.
impl<K: KeyKind> Clone for ScanBounds<K> {
    fn clone(&self) -> Self {
        ScanBounds {
            lo: self.lo.clone(),
            hi: self.hi.clone(),
        }
    }
}

impl<K: KeyKind> ScanBounds<K> {
    /// Captures `range` by cloning its endpoint keys.
    pub fn new<R: RangeBounds<K::Owned>>(range: R) -> Self {
        fn own<T: Clone>(b: Bound<&T>) -> Bound<T> {
            match b {
                Bound::Included(x) => Bound::Included(x.clone()),
                Bound::Excluded(x) => Bound::Excluded(x.clone()),
                Bound::Unbounded => Bound::Unbounded,
            }
        }
        ScanBounds {
            lo: own(range.start_bound()),
            hi: own(range.end_bound()),
        }
    }

    /// The key to seek the leaf search for, `None` for an unbounded start
    /// (scan from the head leaf).
    fn seek_key(&self) -> Option<&K::Owned> {
        match &self.lo {
            Bound::Included(k) | Bound::Excluded(k) => Some(k),
            Bound::Unbounded => None,
        }
    }

    /// True if `k` satisfies the lower bound.
    fn above_lo(&self, k: &K::Owned) -> bool {
        match &self.lo {
            Bound::Included(lo) => k >= lo,
            Bound::Excluded(lo) => k > lo,
            Bound::Unbounded => true,
        }
    }

    /// True if `k` lies beyond the upper bound (terminates the walk).
    fn past_hi(&self, k: &K::Owned) -> bool {
        match &self.hi {
            Bound::Included(hi) => k > hi,
            Bound::Excluded(hi) => k >= hi,
            Bound::Unbounded => false,
        }
    }

    /// True if no key can satisfy both bounds.
    fn is_empty(&self) -> bool {
        match (&self.lo, &self.hi) {
            (Bound::Included(l), Bound::Included(h)) => l > h,
            (Bound::Included(l), Bound::Excluded(h))
            | (Bound::Excluded(l), Bound::Included(h))
            | (Bound::Excluded(l), Bound::Excluded(h)) => l >= h,
            _ => false,
        }
    }
}

/// One leaf's worth of entries in a fixed-capacity buffer, drained in key
/// order.
///
/// Gathering appends (O(1) per entry); the first `pop` after a gather sorts
/// the undrained entries once, and every pop after it takes the next one.
///
/// Sized by the compile-time bitmap limit [`MAX_LEAF_CAPACITY`]; only the
/// configured `leaf_capacity` slots are ever occupied, which
/// `TreeConfig::validate` guarantees fits.
struct LeafBuf<K: KeyKind> {
    slots: [Option<(K::Owned, u64)>; MAX_LEAF_CAPACITY],
    /// `slots[head..len]` hold the undrained entries.
    head: usize,
    len: usize,
    /// The undrained entries are in key order.
    sorted: bool,
}

impl<K: KeyKind> LeafBuf<K> {
    fn new() -> Self {
        LeafBuf {
            slots: std::array::from_fn(|_| None),
            head: 0,
            len: 0,
            sorted: true,
        }
    }

    fn clear(&mut self) {
        self.slots[self.head..self.len].fill(None);
        self.head = 0;
        self.len = 0;
        self.sorted = true;
    }

    /// True when every buffer slot is occupied (only a torn concurrent
    /// read can produce more entries than one leaf holds).
    fn is_full(&self) -> bool {
        self.len == MAX_LEAF_CAPACITY
    }

    /// Appends `(key, val)` — no ordering work here.
    fn insert(&mut self, key: K::Owned, val: u64) {
        debug_assert!(!self.is_full(), "leaf wider than bitmap");
        self.slots[self.len] = Some((key, val));
        self.len += 1;
        self.sorted = false;
    }

    /// Removes and returns the minimum-key undrained entry.
    fn pop(&mut self) -> Option<(K::Owned, u64)> {
        if !self.sorted {
            // Keys within one leaf are distinct, so the order is total.
            self.slots[self.head..self.len].sort_unstable();
            self.sorted = true;
        }
        if self.head == self.len {
            return None;
        }
        self.head += 1;
        self.slots[self.head - 1].take()
    }
}

/// What one [`gather`] learned about a leaf besides its buffered entries.
struct Gathered {
    /// Some key of the leaf lies past the upper bound: the walk ends here.
    past_hi: bool,
    /// Offset of the successor leaf, 0 at the end of the chain.
    next: u64,
}

/// Gathers the merged entries of leaf `off` that lie inside `bounds` and
/// strictly above `floor` into `buf` — the one leaf read behind both
/// iterators. No validation: a concurrent caller validates the leaf
/// version before letting the gather stand.
fn gather<K: KeyKind>(
    ctx: &Ctx,
    off: u64,
    bounds: &ScanBounds<K>,
    floor: Option<&K::Owned>,
    buf: &mut LeafBuf<K>,
) -> Gathered {
    let leaf = ctx.leaf(off);
    leaf.touch_head();
    leaf.touch_key_scan();
    buf.clear();
    let mut past_hi = false;
    for (k, v) in leaf.collect_merged::<K>() {
        if bounds.past_hi(&k) {
            past_hi = true;
        } else if bounds.above_lo(&k) && floor.is_none_or(|l| k > *l) {
            if buf.is_full() {
                // Only a torn read (merged count never exceeds the slot
                // capacity under a valid snapshot); the validation after
                // this gather will discard the buffer anyway.
                break;
            }
            buf.insert(k, v);
        }
    }
    let next = leaf.next();
    Gathered {
        past_hi,
        next: if next.is_null() { 0 } else { next.offset },
    }
}

// ------------------------------------------------------- single-threaded

/// Sorted streaming iterator over a range of a `SingleTree`.
///
/// Seeks the first leaf through the transient inner nodes, then walks the
/// persistent leaf chain, buffering one sorted leaf at a time — O(leaf)
/// memory regardless of range length.
pub struct Scan<'a, K: KeyKind> {
    ctx: &'a Ctx,
    bounds: ScanBounds<K>,
    buf: LeafBuf<K>,
    /// Next leaf offset to gather; 0 when the chain walk is finished.
    next_leaf: u64,
    /// Times the scan over the iterator's whole lifetime.
    _timer: OpTimer<'a>,
}

impl<'a, K: KeyKind> Scan<'a, K> {
    pub(crate) fn new(ctx: &'a Ctx, root: &Node<K>, bounds: ScanBounds<K>) -> Self {
        let timer = ctx.metrics.time_op(Op::Scan);
        ctx.metrics.inc(Counter::ScanSeeks);
        let next_leaf = if bounds.is_empty() {
            0
        } else {
            match bounds.seek_key() {
                Some(k) => root.find_leaf(k),
                None => ctx.meta.head(&ctx.pool).offset,
            }
        };
        Scan {
            ctx,
            bounds,
            buf: LeafBuf::new(),
            next_leaf,
            _timer: timer,
        }
    }
}

impl<K: KeyKind> Iterator for Scan<'_, K> {
    type Item = (K::Owned, u64);

    fn next(&mut self) -> Option<(K::Owned, u64)> {
        loop {
            if let Some(item) = self.buf.pop() {
                self.ctx.metrics.inc(Counter::ScanEntries);
                return Some(item);
            }
            if self.next_leaf == 0 {
                return None;
            }
            let g = gather(self.ctx, self.next_leaf, &self.bounds, None, &mut self.buf);
            self.next_leaf = if g.past_hi { 0 } else { g.next };
        }
    }
}

// ------------------------------------------------------------ concurrent

/// Where the concurrent scan resumes after draining its buffer.
enum Cursor {
    /// Re-seek from the root by the last emitted key (or the lower bound).
    Seek,
    /// Hop through `anchor.next` to `next_off`; `anchor` is the already
    /// validated predecessor `(offset, version)` pair.
    Hop {
        anchor_off: u64,
        anchor_ver: u64,
        next_off: u64,
    },
    /// Chain exhausted or upper bound passed.
    Done,
}

/// Sorted streaming iterator over a range of a `ConcurrentTree`.
///
/// Non-blocking for writers: every leaf read is an optimistic section
/// validated against the leaf's sequence lock (hops additionally re-check
/// the predecessor, see the module docs); conflicts retry a bounded number
/// of times and then re-seek by key. Entries are emitted in strictly
/// increasing key order; each emitted entry was present in the tree at some
/// point during the scan (no torn or recycled leaf is ever observed).
pub struct ConcScan<'a, K: ConcKey> {
    tree: &'a ConcurrentTree<K>,
    bounds: ScanBounds<K>,
    buf: LeafBuf<K>,
    cursor: Cursor,
    /// Last key handed out; the monotonic emission floor.
    last: Option<K::Owned>,
    /// Times the scan over the iterator's whole lifetime.
    _timer: OpTimer<'a>,
}

impl<'a, K: ConcKey> ConcScan<'a, K> {
    pub(crate) fn new(tree: &'a ConcurrentTree<K>, bounds: ScanBounds<K>) -> Self {
        let timer = tree.metrics().time_op(Op::Scan);
        let cursor = if bounds.is_empty() {
            Cursor::Done
        } else {
            Cursor::Seek
        };
        ConcScan {
            tree,
            bounds,
            buf: LeafBuf::new(),
            cursor,
            last: None,
            _timer: timer,
        }
    }

    /// Re-seek from the root inside a globally validated speculative
    /// section (the `get` protocol): traverse by the resume key, snapshot
    /// the leaf version, gather, then validate both the global lock and the
    /// leaf version before the gather is allowed to stand.
    fn step_seek(&mut self) {
        let resume = self
            .last
            .clone()
            .or_else(|| self.bounds.seek_key().cloned());
        let tree = self.tree;
        tree.ctx.metrics.inc(Counter::ScanSeeks);
        let (off, ver, g) = tree.lock.execute(|tx| {
            let off = match &resume {
                Some(k) => tree.traverse(k)?,
                None => tree.ctx.meta.head(&tree.ctx.pool).offset,
            };
            let leaf = tree.ctx.leaf(off);
            let Some(ver) = leaf.version() else {
                return Err(Abort); // leaf locked by a writer (or dying)
            };
            let g = gather(
                &tree.ctx,
                off,
                &self.bounds,
                self.last.as_ref(),
                &mut self.buf,
            );
            if !tx.validate() || leaf.version_changed(ver) {
                self.buf.clear();
                return Err(Abort);
            }
            Ok((off, ver, g))
        });
        self.advance_cursor(off, ver, &g);
    }

    /// Cursor advance after a validated gather `g` of leaf `(off, ver)`.
    fn advance_cursor(&mut self, off: u64, ver: u64, g: &Gathered) {
        self.cursor = if g.past_hi || g.next == 0 {
            Cursor::Done
        } else {
            Cursor::Hop {
                anchor_off: off,
                anchor_ver: ver,
                next_off: g.next,
            }
        };
    }

    /// Follow the persistent chain from the validated anchor. Retries a
    /// bounded number of times on version conflict or chain splice, then
    /// degrades to a re-seek.
    fn step_hop(&mut self, anchor_off: u64, anchor_ver: u64, next_off: u64) {
        for attempt in 0..HOP_RETRIES {
            let leaf = self.tree.ctx.leaf(next_off);
            if let Some(ver) = leaf.version() {
                let g = gather(
                    &self.tree.ctx,
                    next_off,
                    &self.bounds,
                    self.last.as_ref(),
                    &mut self.buf,
                );
                // Hand-over-hand: the anchor unchanged proves
                // `anchor.next == next_off` held for this whole read, so the
                // leaf we just gathered was the live successor — not a
                // deleted-and-recycled block (unlinking it would have bumped
                // the anchor's version). Its own version unchanged proves
                // the gather was not torn by a writer.
                let anchor = self.tree.ctx.leaf(anchor_off);
                if !anchor.version_changed(anchor_ver) && !leaf.version_changed(ver) {
                    self.advance_cursor(next_off, ver, &g);
                    return;
                }
                self.buf.clear();
            }
            self.tree.ctx.metrics.inc(Counter::ScanHopRetries);
            if attempt > 2 {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
        // Conflict persisted: splice or hot writer — re-seek by key.
        self.tree.ctx.metrics.inc(Counter::ScanReseeks);
        self.cursor = Cursor::Seek;
    }
}

impl<K: ConcKey> Iterator for ConcScan<'_, K> {
    type Item = (K::Owned, u64);

    fn next(&mut self) -> Option<(K::Owned, u64)> {
        loop {
            if let Some((k, v)) = self.buf.pop() {
                self.last = Some(k.clone());
                self.tree.ctx.metrics.inc(Counter::ScanEntries);
                return Some((k, v));
            }
            match self.cursor {
                Cursor::Done => return None,
                Cursor::Seek => self.step_seek(),
                Cursor::Hop {
                    anchor_off,
                    anchor_ver,
                    next_off,
                } => self.step_hop(anchor_off, anchor_ver, next_off),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::FixedKey;

    #[test]
    fn leaf_buf_pops_in_key_order_regardless_of_insert_order() {
        let mut buf = LeafBuf::<FixedKey>::new();
        let keys = [42u64, 7, 99, 7 + 64, 0, u64::MAX, 13];
        for &k in &keys {
            buf.insert(k, k ^ 0xAB);
        }
        let mut sorted = keys.to_vec();
        sorted.sort_unstable();
        for want in sorted {
            let (k, v) = buf.pop().expect("entry");
            assert_eq!(k, want);
            assert_eq!(v, want ^ 0xAB);
        }
        assert!(buf.pop().is_none());
        assert!(!buf.is_full());
    }

    #[test]
    fn leaf_buf_clear_frees_all_slots_and_full_detection_works() {
        let mut buf = LeafBuf::<FixedKey>::new();
        for k in 0..MAX_LEAF_CAPACITY as u64 {
            buf.insert(k, k);
        }
        assert!(buf.is_full());
        buf.clear();
        assert!(buf.pop().is_none());
        buf.insert(5, 50);
        assert_eq!(buf.pop(), Some((5, 50)));
    }
}
