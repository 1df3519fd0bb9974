//! The tree's inner node: compact, and safe to search while a writer
//! changes it.
//!
//! Selective Persistence (§4.1) keeps inner nodes in DRAM; Selective
//! Concurrency (§4.4) has readers descend through them inside a speculative
//! section that any structural writer aborts. One node layout serves both:
//!
//! * A node is a **header** `[count, chunks, fence × M, chunk × M]` plus up
//!   to `M` **chunks** of `C` children: `C` keys, then `C` child words. Key
//!   `i` is child `i`'s discriminator, the largest key it may hold (the
//!   last child's is unused); `fence q` repeats the last key of chunk `q`.
//! * Capacity grows one chunk at a time, up to `fanout` children, and a
//!   node gives back the chunks it no longer needs. Chunks are why a node
//!   is not one allocation: a node that grew by copying into a larger block
//!   would leave the smaller one behind, and with nothing freed before the
//!   tree drops, a root that grew from 2 to 4,096 children would carry
//!   about twice its own size in retired blocks. Chunks of one size are
//!   reused by any node. A chunk holds a quarter of the fanout (at most
//!   [`MAX_CHUNK`] children), so a node a split left half full carries at
//!   most a quarter of the fanout in empty slots, where a node allocated
//!   at full capacity would carry half.
//! * Every word is an atomic and keeps one role for the tree's life — a
//!   count, a key encoding, a chunk pointer or a child encoding. A chunk
//!   slot never used points at a shared all-zero chunk, and one whose
//!   chunk was given back still points at that (live) chunk. So a reader
//!   that races a writer's shift, or holds a node that was retired and
//!   reused, reads only valid encodings and valid memory; its validation
//!   turns it away.
//! * Headers and chunks come from the tree's [`Nodes`] arena and go back
//!   to its free lists, one per size, when a node splits, shrinks or is
//!   unlinked. Only a writer reuses them — under the tree's write lock, or
//!   on a node no reader can reach yet — and memory is freed only when the
//!   tree drops. Every `SAFETY:` argument that dereferences an inner-node
//!   word rests on that.
//!
//! Readers and writers locate a child with the same search
//! ([`Node::child_index`], [`Node::route`]), with no data-dependent branch:
//! a count of the header's fences below the key picks the chunk, and
//! `slice::partition_point` — a binary search whose comparisons feed a
//! select instead of a branch — searches that chunk's keys.

use std::cmp::Ordering as CmpOrdering;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

use crate::keys::KeyKind;

/// Largest chunk, in children.
const MAX_CHUNK: usize = 256;

/// The chunk every unassigned header slot points at: all keys 0, all
/// children 0 (a reader that reaches a 0 child aborts). Never written.
static ZERO_CHUNK: [AtomicU64; 2 * MAX_CHUNK] = [const { AtomicU64::new(0) }; 2 * MAX_CHUNK];

/// Header words before the fences: the child count and the number of
/// chunks the node owns.
const HEAD: usize = 2;

/// Children per chunk for `fanout`: a quarter of the fanout rounded up to
/// a power of two, at least 4 and at most [`MAX_CHUNK`].
fn chunk_children(fanout: usize) -> usize {
    (fanout.next_power_of_two() / 4).clamp(4, MAX_CHUNK)
}

/// The arena of one tree's inner nodes.
pub(crate) struct Nodes {
    /// log2 of the children per chunk.
    shift: u32,
    /// Chunks of a full node (`M`).
    max_chunks: usize,
    fanout: usize,
    arena: Mutex<Arena>,
}

#[derive(Default)]
struct Arena {
    /// Every header and chunk ever allocated, as boxes given up to raw
    /// pointers (readers hold addresses into them, so no `Box` may be moved
    /// or reborrowed while they live); freed when the arena drops.
    blocks: Vec<*mut [AtomicU64]>,
    free_heads: Vec<u64>,
    free_chunks: Vec<u64>,
    heads: usize,
    chunks: usize,
}

// SAFETY: the blocks are atomics the arena owns alone; the raw pointers are
// only dereferenced through `Node` views (atomics) and in `drop`.
unsafe impl Send for Arena {}

impl Arena {
    /// A block of `words` atomics initialized by `init`; returns its address.
    fn block(&mut self, words: usize, init: impl Fn(usize) -> u64) -> u64 {
        let block: Box<[AtomicU64]> = (0..words).map(|w| AtomicU64::new(init(w))).collect();
        let raw = Box::into_raw(block);
        self.blocks.push(raw);
        raw as *mut AtomicU64 as u64
    }
}

impl Drop for Arena {
    fn drop(&mut self) {
        for &block in &self.blocks {
            // SAFETY: every pointer in `blocks` came from `Box::into_raw`
            // in `Arena::block` and is freed exactly once, here.
            drop(unsafe { Box::from_raw(block) });
        }
    }
}

/// A view of one node. Reader methods clamp what they load, so they are
/// safe on a node a writer is changing; `count` and the writer methods on
/// [`Nodes`] are for its writer.
#[derive(Clone, Copy)]
pub(crate) struct Node<'a> {
    head: &'a [AtomicU64],
    shift: u32,
}

impl<'a> Node<'a> {
    /// The exact child count (writers only; readers clamp).
    pub fn count(&self) -> usize {
        self.head[0].load(Ordering::Acquire) as usize
    }

    fn chunks(&self) -> usize {
        self.head[1].load(Ordering::Relaxed) as usize
    }

    fn max_chunks(&self) -> usize {
        (self.head.len() - HEAD) / 2
    }

    fn fence(&self, q: usize) -> &'a AtomicU64 {
        &self.head[HEAD + q]
    }

    fn chunk_slot(&self, q: usize) -> &'a AtomicU64 {
        &self.head[HEAD + self.max_chunks() + q]
    }

    /// Chunk `q`: its keys, then its children.
    #[inline]
    fn chunk(&self, q: usize) -> &'a [AtomicU64] {
        let ptr = self.chunk_slot(q).load(Ordering::Acquire) as *const AtomicU64;
        // SAFETY: a chunk slot only ever holds the address of `ZERO_CHUNK`
        // or of a chunk of `2 << shift` words allocated by the same arena
        // (`Nodes::fresh_chunk`); neither is freed before the tree drops,
        // which outlives `'a`.
        unsafe { std::slice::from_raw_parts(ptr, 2 << self.shift) }
    }

    #[inline]
    fn word(&self, i: usize, child: bool) -> &'a AtomicU64 {
        let mask = (1 << self.shift) - 1;
        &self.chunk(i >> self.shift)[(i & mask) + ((child as usize) << self.shift)]
    }

    /// Discriminator of child `i`: the largest key it may hold.
    #[inline]
    pub fn key(&self, i: usize) -> u64 {
        self.word(i, false).load(Ordering::Acquire)
    }

    /// Encoding of child `i`.
    #[inline]
    pub fn child(&self, i: usize) -> u64 {
        self.word(i, true).load(Ordering::Acquire)
    }

    /// The count as a reader may use it: at least 1, at most what the
    /// header's chunk slots cover.
    #[inline]
    fn readable_count(&self) -> usize {
        self.count().clamp(1, self.max_chunks() << self.shift)
    }

    /// Where the child covering `key` sits — the first whose discriminator
    /// is not below `key`, else the last child — as its index, the chunk
    /// the search ended in, and its offset there (`C` when the child opens
    /// the next chunk).
    #[inline]
    fn locate<K: KeyKind>(&self, key: &K::Owned) -> (usize, &'a [AtomicU64], usize) {
        let lt =
            |w: &AtomicU64| K::cmp_encoded(w.load(Ordering::Acquire), key) == CmpOrdering::Less;
        let keys = self.readable_count() - 1;
        // The chunks whose keys are all discriminators, by their fences:
        // the answer lies in the first whose fence is not below `key`, or
        // in the partial chunk after them. The fences are few and sorted,
        // so counting those below `key` finds it without a dependent load.
        let fences = &self.head[HEAD..HEAD + (keys >> self.shift)];
        let q: usize = fences.iter().map(|f| lt(f) as usize).sum();
        let start = q << self.shift;
        let chunk = self.chunk(q);
        let o = chunk[..(keys - start).min(1 << self.shift)].partition_point(lt);
        (start + o, chunk, o)
    }

    /// Index of the child covering `key`.
    #[inline]
    pub fn child_index<K: KeyKind>(&self, key: &K::Owned) -> usize {
        self.locate::<K>(key).0
    }

    /// Encoding of the child covering `key`.
    #[inline]
    pub fn route<K: KeyKind>(&self, key: &K::Owned) -> u64 {
        let (i, chunk, o) = self.locate::<K>(key);
        let per = 1 << self.shift;
        if o < per {
            chunk[per + o].load(Ordering::Acquire)
        } else {
            self.child(i)
        }
    }

    /// Encoding of the last child.
    #[inline]
    pub fn last_child(&self) -> u64 {
        self.child(self.readable_count() - 1)
    }

    fn set_key(&self, i: usize, key: u64) {
        self.word(i, false).store(key, Ordering::Release);
        let mask = (1 << self.shift) - 1;
        if i & mask == mask {
            self.fence(i >> self.shift).store(key, Ordering::Release);
        }
    }

    fn set(&self, i: usize, key: u64, child: u64) {
        self.set_key(i, key);
        self.word(i, true).store(child, Ordering::Release);
    }

    /// Moves children `from..n` (with their keys) one place up, a chunk at
    /// a time, and refreshes the fences of the chunks it touched. Writer
    /// only; `n` must fit the node's chunks.
    fn shift_right(&self, from: usize, n: usize) {
        let per = 1 << self.shift;
        let mut j = n; // the next child to fill
        while j > from {
            let (q, base) = (j >> self.shift, j & !(per - 1));
            let dst = self.chunk(q);
            if j == base {
                let src = self.chunk(q - 1);
                move_word(&src[per - 1], &dst[0]);
                move_word(&src[2 * per - 1], &dst[per]);
                j -= 1;
                continue;
            }
            let lo = from.max(base);
            for o in (lo - base..j - base).rev() {
                move_word(&dst[o], &dst[o + 1]);
                move_word(&dst[per + o], &dst[per + o + 1]);
            }
            j = lo;
        }
        self.refresh_fences(from >> self.shift, n >> self.shift);
    }

    /// Moves children `from..n` (with their keys) one place down, a chunk
    /// at a time, and refreshes the fences of the chunks it touched.
    /// Writer only.
    fn shift_left(&self, from: usize, n: usize) {
        let per = 1 << self.shift;
        let mut j = from; // the next child to move
        while j < n {
            let (q, base) = (j >> self.shift, j & !(per - 1));
            let src = self.chunk(q);
            if j == base {
                let dst = self.chunk(q - 1);
                move_word(&src[0], &dst[per - 1]);
                move_word(&src[per], &dst[2 * per - 1]);
                j += 1;
                continue;
            }
            let hi = n.min(base + per);
            for o in j - base..hi - base {
                move_word(&src[o], &src[o - 1]);
                move_word(&src[per + o], &src[per + o - 1]);
            }
            j = hi;
        }
        self.refresh_fences(from.saturating_sub(1) >> self.shift, n >> self.shift);
    }

    /// Rewrites the fences of chunks `lo..=hi` that the node owns.
    fn refresh_fences(&self, lo: usize, hi: usize) {
        let per = 1 << self.shift;
        for q in lo..=hi.min(self.chunks().saturating_sub(1)) {
            let last = self.chunk(q)[per - 1].load(Ordering::Relaxed);
            self.fence(q).store(last, Ordering::Release);
        }
    }
}

/// Copies one word within a node (writer only).
#[inline]
fn move_word(src: &AtomicU64, dst: &AtomicU64) {
    dst.store(src.load(Ordering::Relaxed), Ordering::Release);
}

impl Nodes {
    /// An empty arena for nodes of up to `fanout` children.
    pub fn new(fanout: usize) -> Nodes {
        Self::with_chunk(fanout, chunk_children(fanout))
    }

    /// [`Nodes::new`] with `per` (a power of two) children per chunk.
    fn with_chunk(fanout: usize, per: usize) -> Nodes {
        debug_assert!(per.is_power_of_two() && per <= MAX_CHUNK);
        Nodes {
            shift: per.trailing_zeros(),
            max_chunks: fanout.div_ceil(per),
            fanout,
            arena: Mutex::new(Arena::default()),
        }
    }

    /// The node whose header is at `enc`.
    ///
    /// # Safety
    ///
    /// `enc` must be a node encoding returned by [`Nodes::alloc`] or
    /// [`Nodes::insert_after`] on this arena (headers are never freed
    /// before the arena drops).
    #[inline]
    pub unsafe fn get(&self, enc: u64) -> Node<'_> {
        Node {
            // SAFETY: the caller guarantees `enc` is the address of a header
            // of `HEAD + 2 · max_chunks` words owned by this arena.
            head: unsafe { std::slice::from_raw_parts(enc as *const AtomicU64, self.head_words()) },
            shift: self.shift,
        }
    }

    fn head_words(&self) -> usize {
        HEAD + 2 * self.max_chunks
    }

    fn per(&self) -> usize {
        1 << self.shift
    }

    fn fresh_chunk(&self, a: &mut Arena) -> u64 {
        a.free_chunks.pop().unwrap_or_else(|| {
            a.chunks += 1;
            a.block(2 * self.per(), |_| 0)
        })
    }

    /// A node of `n` children, child `i` being `pair(i)` = `(key, child)`.
    /// The node is unreachable until its encoding (the return value) is
    /// stored in a parent or the root.
    pub fn alloc(&self, n: usize, mut pair: impl FnMut(usize) -> (u64, u64)) -> u64 {
        debug_assert!(n >= 1 && n <= self.fanout);
        let chunks = n.div_ceil(self.per());
        let enc = {
            let a = &mut *self.arena.lock();
            let enc = a.free_heads.pop().unwrap_or_else(|| {
                let zero = ZERO_CHUNK.as_ptr() as u64;
                a.heads += 1;
                let fences = HEAD + self.max_chunks;
                a.block(self.head_words(), |w| if w < fences { 0 } else { zero })
            });
            // SAFETY: `enc` is a header of this arena, taken just above.
            let node = unsafe { self.get(enc) };
            for q in 0..chunks {
                node.chunk_slot(q)
                    .store(self.fresh_chunk(a), Ordering::Release);
            }
            enc
        };
        // SAFETY: as above.
        let node = unsafe { self.get(enc) };
        for i in 0..n {
            let (key, child) = pair(i);
            node.set(i, key, child);
        }
        node.head[1].store(chunks as u64, Ordering::Relaxed);
        node.head[0].store(n as u64, Ordering::Release);
        enc
    }

    /// Gives an unlinked node's header and chunks back to the free lists.
    pub fn retire(&self, node: Node<'_>) {
        let a = &mut *self.arena.lock();
        for q in 0..node.chunks() {
            a.free_chunks
                .push(node.chunk_slot(q).load(Ordering::Relaxed));
        }
        a.free_heads.push(node.head.as_ptr() as u64);
    }

    /// Inserts child `child` with discriminator `key` right after child
    /// `idx`, which keeps its place but takes `key` as its discriminator:
    /// what a split of child `idx` at `key` publishes. Grows the node by a
    /// chunk when it needs one. A full node splits instead: of its
    /// `fanout + 1` children it keeps the first `fanout / 2 + 1`, and the
    /// rest move to a new right sibling; returns the discriminator to push
    /// up (the left half's last) and the sibling's encoding. Writer only.
    pub fn insert_after(
        &self,
        node: Node<'_>,
        idx: usize,
        key: u64,
        child: u64,
    ) -> Option<(u64, u64)> {
        let n = node.count();
        debug_assert!(idx < n && n <= self.fanout);
        if n == self.fanout {
            let mut all: Vec<(u64, u64)> = (0..n).map(|i| (node.key(i), node.child(i))).collect();
            all.insert(idx + 1, (all[idx].0, child));
            all[idx].0 = key;
            let mid = n / 2 + 1;
            for (i, &(k, c)) in all.iter().enumerate().take(mid).skip(idx) {
                node.set(i, k, c);
            }
            node.head[0].store(mid as u64, Ordering::Release);
            self.shrink(node, mid);
            return Some((all[mid - 1].0, self.alloc(n + 1 - mid, |i| all[mid + i])));
        }
        let chunks = node.chunks();
        if n == chunks << self.shift {
            let fresh = self.fresh_chunk(&mut self.arena.lock());
            node.chunk_slot(chunks).store(fresh, Ordering::Release);
            node.head[1].store(chunks as u64 + 1, Ordering::Relaxed);
        }
        node.shift_right(idx + 1, n);
        node.set(idx + 1, node.key(idx), child);
        node.set_key(idx, key);
        node.head[0].store(n as u64 + 1, Ordering::Release);
        None
    }

    /// Removes child `idx`. Its discriminator goes with it, except for the
    /// last child, whose predecessor's discriminator goes instead (the
    /// predecessor then covers the range up to the node's upper bound).
    /// Gives back a chunk the node no longer needs. Writer only.
    pub fn remove_at(&self, node: Node<'_>, idx: usize) {
        let n = node.count();
        debug_assert!(idx < n);
        node.shift_left(idx + 1, n);
        node.head[0].store(n as u64 - 1, Ordering::Release);
        self.shrink(node, n - 1);
    }

    /// Gives back the chunks past what `n` children need (keeping one).
    fn shrink(&self, node: Node<'_>, n: usize) {
        let keep = n.div_ceil(self.per()).max(1);
        let chunks = node.chunks();
        if keep < chunks {
            let a = &mut *self.arena.lock();
            for q in keep..chunks {
                a.free_chunks
                    .push(node.chunk_slot(q).load(Ordering::Relaxed));
            }
            node.head[1].store(keep as u64, Ordering::Relaxed);
        }
    }

    /// Bytes of every header and chunk allocated, free ones included.
    pub fn dram_bytes(&self) -> usize {
        let a = self.arena.lock();
        8 * (a.heads * self.head_words() + a.chunks * 2 * self.per())
    }

    /// Nodes in use (allocated headers not on the free list).
    pub fn live(&self) -> usize {
        let a = self.arena.lock();
        a.heads - a.free_heads.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::FixedKey;
    use fptree_htm::SpecLock;
    use std::collections::HashMap;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    /// splitmix64: a seeded stream without a dependency.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    /// The routing oracle: `n − 1` sorted discriminators and `n` children,
    /// changed the way the node's writer methods change a node.
    #[derive(Clone, Debug, PartialEq)]
    struct Model {
        keys: Vec<u64>,
        children: Vec<u64>,
    }

    impl Model {
        fn route(&self, x: u64) -> u64 {
            self.children[self.keys.partition_point(|k| *k < x)]
        }

        fn insert_after(&mut self, idx: usize, key: u64, child: u64) {
            self.keys.insert(idx, key);
            self.children.insert(idx + 1, child);
        }

        fn remove_at(&mut self, idx: usize) {
            self.children.remove(idx);
            if !self.keys.is_empty() {
                self.keys.remove(idx.min(self.keys.len() - 1));
            }
        }

        fn split(&mut self) -> (u64, Model) {
            let mid = (self.children.len() - 1) / 2 + 1;
            let right = Model {
                keys: self.keys.split_off(mid),
                children: self.children.split_off(mid),
            };
            (self.keys.pop().expect("a key above the left half"), right)
        }

        /// The pairs of a node holding this model (last key unused: 0).
        fn pair(&self, i: usize) -> (u64, u64) {
            (self.keys.get(i).copied().unwrap_or(0), self.children[i])
        }

        /// A key strictly between the neighbours of discriminator `idx`,
        /// if there is room.
        fn fresh_key(&self, idx: usize, rng: &mut Rng) -> Option<u64> {
            let lo = if idx == 0 { 0 } else { self.keys[idx - 1] + 1 };
            let hi = self.keys.get(idx).copied().unwrap_or(1 << 40);
            (lo < hi).then(|| lo + rng.next() % (hi - lo))
        }
    }

    /// The node holds exactly `m`, and routes every probe as `m` does.
    fn assert_matches(nodes: &Nodes, enc: u64, m: &Model, rng: &mut Rng) {
        // SAFETY: `enc` came from `nodes.alloc`.
        let node = unsafe { nodes.get(enc) };
        assert_eq!(node.count(), m.children.len());
        assert!(node.chunks() >= m.children.len().div_ceil(nodes.per()).max(1));
        for (i, &c) in m.children.iter().enumerate() {
            assert_eq!(node.child(i), c, "child {i}");
        }
        for (i, &k) in m.keys.iter().enumerate() {
            assert_eq!(node.key(i), k, "key {i}");
        }
        let mut probes: Vec<u64> = m.keys.iter().flat_map(|&k| [k, k + 1]).collect();
        probes.extend((0..8).map(|_| rng.next() % (1 << 41)));
        probes.push(0);
        for x in probes {
            let idx = node.child_index::<FixedKey>(&x);
            assert_eq!(node.child(idx), m.route(x), "routing {x}");
            assert_eq!(node.route::<FixedKey>(&x), m.route(x), "routing {x}");
        }
        assert_eq!(node.last_child(), *m.children.last().unwrap());
    }

    #[test]
    fn chunk_sizes_follow_the_fanout() {
        assert_eq!(chunk_children(4096), 256);
        assert_eq!(chunk_children(2048), 256);
        assert_eq!(chunk_children(128), 32);
        assert_eq!(chunk_children(64), 16);
        assert_eq!(chunk_children(8), 4);
        assert_eq!(chunk_children(3), 4);
        assert_eq!(Nodes::new(4096).max_chunks, 16);
        assert_eq!(Nodes::new(128).max_chunks, 4);
        for fanout in [64usize, 128] {
            // A full node costs no more than a pointer-based node's 24 B
            // per child plus 48 B; one at most three quarters full costs
            // less than the `2 · fanout + 1` words plus a 40-byte header of
            // a node allocated at full capacity.
            for (n, bound) in [
                (fanout, 24 * fanout + 48),
                (fanout * 3 / 4, 40 + (2 * fanout + 1) * 8 - 1),
            ] {
                let nodes = Nodes::new(fanout);
                let enc = nodes.alloc(n, |i| (i as u64, 2 * i as u64 + 1));
                assert_eq!(nodes.live(), 1);
                assert!(nodes.dram_bytes() <= bound, "fanout {fanout}, {n} children");
                // SAFETY: allocated just above.
                nodes.retire(unsafe { nodes.get(enc) });
                assert_eq!(nodes.live(), 0);
            }
        }
    }

    /// Random inserts, removes, splits, retirements and fresh nodes against
    /// the oracle, on 4-child chunks so a node of up to 9 children passes
    /// through 1, 2 and 3 chunks.
    #[test]
    fn node_matches_the_routing_model() {
        const FANOUT: usize = 9;
        let nodes = Nodes::with_chunk(FANOUT, 4);
        let mut rng = Rng(42);
        let mut next_child = 1u64;
        let mut child = || {
            next_child += 2;
            next_child
        };
        let mut live: Vec<(u64, Model)> = Vec::new();
        let mut classes = [false; 4];
        let mut reused = 0;
        let steps = if cfg!(miri) { 150 } else { 600 };
        for step in 0..steps {
            if live.is_empty() {
                let m = Model {
                    keys: vec![1 << 20],
                    children: vec![child(), child()],
                };
                live.push((nodes.alloc(2, |i| m.pair(i)), m));
            }
            let (enc, mut m) = live.swap_remove(rng.below(live.len()));
            // SAFETY: every encoding in `live` came from `nodes.alloc`.
            let node = unsafe { nodes.get(enc) };
            match rng.below(10) {
                0..=5 => {
                    let idx = rng.below(m.children.len());
                    if let Some(key) = m.fresh_key(idx, &mut rng) {
                        let c = child();
                        let split = nodes.insert_after(node, idx, key, c);
                        m.insert_after(idx, key, c);
                        classes[node.chunks()] = true;
                        assert_eq!(split.is_some(), m.children.len() > FANOUT);
                        if let Some((up, right)) = split {
                            let (want_up, right_model) = m.split();
                            assert_eq!(up, want_up, "step {step}");
                            live.push((right, right_model));
                        }
                    }
                }
                6..=8 => {
                    let idx = rng.below(m.children.len());
                    nodes.remove_at(node, idx);
                    m.remove_at(idx);
                }
                _ => {
                    // Retire and rebuild: the new node must come off the
                    // free lists without growing the arena.
                    let before = nodes.dram_bytes();
                    nodes.retire(node);
                    let fresh = nodes.alloc(m.children.len(), |i| m.pair(i));
                    assert_eq!(nodes.dram_bytes(), before, "step {step}");
                    reused += 1;
                    live.push((fresh, m));
                    continue;
                }
            }
            if m.children.is_empty() {
                nodes.retire(node);
            } else {
                live.push((enc, m));
            }
            for (enc, m) in &live {
                assert_matches(&nodes, *enc, m, &mut rng);
            }
        }
        assert_eq!(classes, [false, true, true, true], "capacity classes");
        assert!(reused > 5, "{reused} rebuilds");
        assert_eq!(nodes.live(), live.len());
    }

    /// Readers descend while one writer grows a node chunk by chunk until
    /// it splits under a new root, collapses the two levels back into one
    /// node built from the free lists, and shrinks it again. The writer
    /// records the logical content of every state it publishes under the
    /// version that publishes it; each read that validates against a
    /// version must route as that state does.
    #[test]
    fn validated_reads_route_correctly_beside_a_writer() {
        const FANOUT: usize = 20;
        // Miri interprets every load; a few rounds still cover each step.
        let rounds = if cfg!(miri) { 3 } else { 40 };
        let nodes = Nodes::with_chunk(FANOUT, 4);
        let lock = SpecLock::new();
        let root = AtomicU64::new(0);
        let states: parking_lot::Mutex<HashMap<u64, Arc<Model>>> = Default::default();
        let done = AtomicBool::new(false);
        let mut rng = Rng(3);
        let mut m = Model {
            keys: vec![1000],
            children: vec![1, 3],
        };
        root.store(nodes.alloc(2, |i| m.pair(i)), Ordering::Release);
        states.lock().insert(lock.read_begin(), Arc::new(m.clone()));
        // Leaf encodings are odd; a node's is its (even) header address.
        let descend = |x: u64| {
            let mut enc = root.load(Ordering::Acquire);
            for _ in 0..4 {
                if enc & 1 == 1 {
                    break;
                }
                // SAFETY: `root` and child words hold only odd encodings and
                // encodings returned by `nodes`.
                enc = unsafe { nodes.get(enc) }.route::<FixedKey>(&x);
            }
            enc
        };

        let validated = std::thread::scope(|s| {
            let readers: Vec<_> = (0..2u64)
                .map(|r| {
                    let (lock, states, done, descend) = (&lock, &states, &done, &descend);
                    s.spawn(move || {
                        let mut rng = Rng(100 + r);
                        let mut validated = 0u64;
                        while !done.load(Ordering::Acquire) {
                            let x = rng.next() % 3000;
                            let v = lock.read_begin();
                            let got = descend(x);
                            if lock.read_validate(v) {
                                let state = Arc::clone(&states.lock()[&v]);
                                assert_eq!(got, state.route(x), "key {x} at version {v}");
                                validated += 1;
                            }
                        }
                        validated
                    })
                })
                .collect();
            let publish = |m: &Model, v: u64| states.lock().insert(v + 2, Arc::new(m.clone()));
            let mut next_child = 5u64;
            for _ in 0..rounds {
                // Grow one child per section, through every chunk count,
                // until the node splits under a new root.
                let (left, right) = loop {
                    let idx = rng.below(m.children.len());
                    let Some(key) = m.fresh_key(idx, &mut rng) else {
                        continue;
                    };
                    let v = lock.read_begin();
                    let _g = lock.write_lock();
                    let left = root.load(Ordering::Relaxed);
                    // SAFETY: as in `descend`.
                    let node = unsafe { nodes.get(left) };
                    let split = nodes.insert_after(node, idx, key, next_child);
                    m.insert_after(idx, key, next_child);
                    next_child += 2;
                    if let Some((up, right)) = split {
                        let top = nodes.alloc(2, |i| [(up, left), (0, right)][i]);
                        root.store(top, Ordering::Release);
                        publish(&m, v);
                        break (left, right);
                    }
                    publish(&m, v);
                };
                // Collapse to one node over the first half of the children,
                // taking the three retired nodes' memory back.
                {
                    let v = lock.read_begin();
                    let _g = lock.write_lock();
                    m.children.truncate(FANOUT / 2);
                    m.keys.truncate(FANOUT / 2 - 1);
                    let whole = nodes.alloc(m.children.len(), |i| m.pair(i));
                    let top = root.swap(whole, Ordering::AcqRel);
                    for enc in [top, left, right] {
                        // SAFETY: all three came from `nodes`.
                        nodes.retire(unsafe { nodes.get(enc) });
                    }
                    publish(&m, v);
                }
                // Shrink to two children, one removal per section.
                while m.children.len() > 2 {
                    let idx = rng.below(m.children.len());
                    let v = lock.read_begin();
                    let _g = lock.write_lock();
                    // SAFETY: as in `descend`.
                    let node = unsafe { nodes.get(root.load(Ordering::Relaxed)) };
                    nodes.remove_at(node, idx);
                    m.remove_at(idx);
                    publish(&m, v);
                }
                std::thread::yield_now();
            }
            done.store(true, Ordering::Release);
            readers.into_iter().map(|r| r.join().unwrap()).sum::<u64>()
        });
        assert!(validated > 0, "no read validated");
        // The free lists kept the arena at a few nodes' worth of memory.
        assert!(nodes.dram_bytes() <= 4 * nodes_bytes(&nodes), "arena grew");
        assert_eq!(nodes.live(), 1);
    }

    /// Bytes of one full node of `nodes`.
    fn nodes_bytes(nodes: &Nodes) -> usize {
        8 * (nodes.head_words() + nodes.max_chunks * 2 * nodes.per())
    }
}
