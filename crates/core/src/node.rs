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
//! * A key word is an integer in both key kinds. A fixed key is its own
//!   word. A node of byte-string keys ends its header with two more words,
//!   `[prefix, ties]`: a **key blob** holding a prefix that every
//!   discriminator starts with (for a sorted build, the longest common
//!   prefix of the first and last), and a **tie array** of one word per
//!   slot. Each key word is [`var_word`] of the discriminator's bytes past
//!   the prefix: 7 bytes and a length byte, in key order. Only a
//!   discriminator that runs more than 7 bytes past the prefix can tie with
//!   a search key, and only such a one keeps its full bytes, in a key blob
//!   its tie-array slot points to. The tie array exists from the node's
//!   first such discriminator on; the prefix is absent (0) when empty. A
//!   writer that inserts a key outside the prefix shrinks the prefix and
//!   re-encodes the node; a prefix never grows in place.
//! * Every word is an atomic and keeps one role for the tree's life — a
//!   count, a key encoding, a chunk pointer, a child encoding, a key-blob
//!   pointer or a tie-array pointer. A chunk slot never used points at a
//!   shared all-zero chunk, and one whose chunk was given back still points
//!   at that (live) chunk. A key blob is `[capacity, length, bytes…]`, its
//!   capacity fixed for the blob's life and its length clamped to it. So a
//!   reader that races a writer's shift, or holds a node that was retired
//!   and reused, reads only valid encodings and valid memory; its
//!   validation turns it away.
//! * Headers, chunks, tie arrays and key blobs come from the tree's
//!   [`Nodes`] arena and go back to its free lists, one per role and size,
//!   when a node splits, shrinks, re-encodes or is unlinked. Only a writer
//!   reuses them — under the tree's write lock, or on a node no reader can
//!   reach yet — and memory is freed only when the tree drops. Every
//!   `SAFETY:` argument that dereferences an inner-node word rests on that.
//!
//! Readers and writers locate a child with the same search
//! ([`Node::child_index`], [`Node::route`]), with no data-dependent branch
//! for fixed keys: a count of the header's fences below the key picks the
//! chunk, and `slice::partition_point` — a binary search whose comparisons
//! feed a select instead of a branch — searches that chunk's keys. A
//! byte-string search first compares the key with the prefix once (below
//! it routes to the first child, above it to the last), builds the key's
//! word, runs the same integer search, and reads full bytes only where
//! words tie.

use std::cmp::Ordering as CmpOrdering;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

use crate::keys::{var_word, KeyKind, WORD_LONG};

/// Largest chunk, in children.
const MAX_CHUNK: usize = 256;

/// The chunk every unassigned header slot points at: all keys 0, all
/// children 0 (a reader that reaches a 0 child aborts). Never written.
static ZERO_CHUNK: [AtomicU64; 2 * MAX_CHUNK] = [const { AtomicU64::new(0) }; 2 * MAX_CHUNK];

/// Header words before the fences: the child count and the number of
/// chunks the node owns.
const HEAD: usize = 2;

/// Header words after the chunk slots of a byte-string node: its prefix
/// blob and its tie array.
const VAR_TAIL: usize = 2;

/// Children per chunk for `fanout`: a quarter of the fanout rounded up to
/// a power of two, at least 4 and at most [`MAX_CHUNK`].
fn chunk_children(fanout: usize) -> usize {
    (fanout.next_power_of_two() / 4).clamp(4, MAX_CHUNK)
}

/// Words of a key blob that holds `len` bytes: capacity and length, then
/// the bytes, rounded up to a power of two (one free list per size).
fn blob_words(len: usize) -> usize {
    (2 + len.div_ceil(8)).next_power_of_two()
}

/// The longest common prefix of `a` and `b`.
fn common_prefix<'k>(a: &'k [u8], b: &[u8]) -> &'k [u8] {
    let n = a.iter().zip(b).take_while(|(x, y)| x == y).count();
    &a[..n]
}

/// `blob[..len]` against `key`, byte by byte (the blob's bytes are packed
/// big-endian into `words`).
fn cmp_blob(len: usize, words: &[AtomicU64], key: &[u8]) -> CmpOrdering {
    let common = len.min(key.len());
    for (w, k) in words.iter().zip(key[..common].chunks(8)) {
        match w.load(Ordering::Acquire).to_be_bytes()[..k.len()].cmp(k) {
            CmpOrdering::Equal => {}
            other => return other,
        }
    }
    len.cmp(&key.len())
}

/// The first `len` bytes of `words`.
fn blob_bytes(len: usize, words: &[AtomicU64]) -> Vec<u8> {
    let mut out: Vec<u8> = words
        .iter()
        .take(len.div_ceil(8))
        .flat_map(|w| w.load(Ordering::Acquire).to_be_bytes())
        .collect();
    out.truncate(len);
    out
}

#[cfg(test)]
thread_local! {
    /// Prefix and full-key blob reads by this thread's searches.
    pub(crate) static KEY_READS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Counts one key-blob read by a search (tests only).
#[inline]
fn count_key_read() {
    #[cfg(test)]
    KEY_READS.with(|c| c.set(c.get() + 1));
}

/// The arena of one tree's inner nodes.
pub(crate) struct Nodes<K> {
    /// log2 of the children per chunk.
    shift: u32,
    /// Chunks of a full node (`M`).
    max_chunks: usize,
    fanout: usize,
    arena: Mutex<Arena>,
    _key: PhantomData<fn() -> K>,
}

#[derive(Default)]
struct Arena {
    /// Every block ever allocated, as boxes given up to raw pointers
    /// (readers hold addresses into them, so no `Box` may be moved or
    /// reborrowed while they live); freed when the arena drops.
    blocks: Vec<*mut [AtomicU64]>,
    free_heads: Vec<u64>,
    free_chunks: Vec<u64>,
    free_ties: Vec<u64>,
    /// Free key blobs, by log2 of their words.
    free_blobs: Vec<Vec<u64>>,
    heads: usize,
    /// Words of every block allocated.
    words: usize,
}

// SAFETY: the blocks are atomics the arena owns alone; the raw pointers are
// only dereferenced through `Node` views (atomics) and in `drop`.
unsafe impl Send for Arena {}

impl Arena {
    /// A block of `words` atomics, word `w` holding `initial(w)`; returns
    /// its address.
    fn block(&mut self, words: usize, initial: impl Fn(usize) -> u64) -> u64 {
        let block: Box<[AtomicU64]> = (0..words).map(|w| AtomicU64::new(initial(w))).collect();
        let raw = Box::into_raw(block);
        self.blocks.push(raw);
        self.words += words;
        raw as *mut AtomicU64 as u64
    }

    /// A key blob holding `bytes`, from its size's free list or new.
    fn blob(&mut self, bytes: &[u8]) -> u64 {
        let words = blob_words(bytes.len());
        let class = words.trailing_zeros() as usize;
        let addr = match self.free_blobs.get_mut(class).and_then(Vec::pop) {
            Some(addr) => addr,
            None => self.block(words, |w| if w == 0 { 8 * (words - 2) as u64 } else { 0 }),
        };
        // SAFETY: `addr` is a key blob of `words` words, just taken from
        // this arena; only its writer (the caller) reaches it yet, or a
        // stale reader, which reads atomics.
        let blob = unsafe { std::slice::from_raw_parts(addr as *const AtomicU64, words) };
        for (w, chunk) in blob[2..].iter().zip(bytes.chunks(8)) {
            let mut b = [0u8; 8];
            b[..chunk.len()].copy_from_slice(chunk);
            w.store(u64::from_be_bytes(b), Ordering::Release);
        }
        blob[1].store(bytes.len() as u64, Ordering::Release);
        addr
    }

    /// Puts the key blob at `addr` on its size's free list.
    fn free_blob(&mut self, addr: u64) {
        // SAFETY: `addr` is a key blob of this arena; word 0 is its
        // capacity, set when it was allocated and never changed.
        let cap = unsafe { &*(addr as *const AtomicU64) }.load(Ordering::Relaxed) as usize;
        let class = (2 + cap / 8).trailing_zeros() as usize;
        if self.free_blobs.len() <= class {
            self.free_blobs.resize_with(class + 1, Vec::new);
        }
        self.free_blobs[class].push(addr);
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
pub(crate) struct Node<'a, K> {
    head: &'a [AtomicU64],
    shift: u32,
    _key: PhantomData<fn() -> K>,
}

impl<K> Clone for Node<'_, K> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<K> Copy for Node<'_, K> {}

/// Where a byte-string search key stands against a node's prefix.
enum Side {
    /// Below every key that starts with the prefix.
    Below,
    /// Starts with the prefix, this many bytes long.
    Within(usize),
    /// Above every key that starts with the prefix.
    Above,
}

impl<'a, K: KeyKind> Node<'a, K> {
    /// Header words after the chunk slots.
    const TAIL: usize = if K::IS_VAR { VAR_TAIL } else { 0 };

    /// The exact child count (writers only; readers clamp).
    pub fn count(&self) -> usize {
        self.head[0].load(Ordering::Acquire) as usize
    }

    fn chunks(&self) -> usize {
        self.head[1].load(Ordering::Relaxed) as usize
    }

    fn max_chunks(&self) -> usize {
        (self.head.len() - HEAD - Self::TAIL) / 2
    }

    fn fence(&self, q: usize) -> &'a AtomicU64 {
        &self.head[HEAD + q]
    }

    fn chunk_slot(&self, q: usize) -> &'a AtomicU64 {
        &self.head[HEAD + self.max_chunks() + q]
    }

    /// The prefix's key-blob word (byte-string nodes only).
    fn prefix_slot(&self) -> &'a AtomicU64 {
        &self.head[HEAD + 2 * self.max_chunks()]
    }

    /// The tie array's word (byte-string nodes only).
    fn ties_slot(&self) -> &'a AtomicU64 {
        &self.head[HEAD + 2 * self.max_chunks() + 1]
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

    /// Discriminator word of child `i`.
    #[inline]
    pub fn key(&self, i: usize) -> u64 {
        self.word(i, false).load(Ordering::Acquire)
    }

    /// Encoding of child `i`.
    #[inline]
    pub fn child(&self, i: usize) -> u64 {
        self.word(i, true).load(Ordering::Acquire)
    }

    /// The key blob at `addr`: its length, clamped to its capacity, and the
    /// words holding its bytes.
    ///
    /// # Safety
    ///
    /// `addr` must have been loaded from a prefix slot or a tie-array word
    /// of this node's arena and be non-zero.
    unsafe fn blob(addr: u64) -> (usize, &'a [AtomicU64]) {
        let ptr = addr as *const AtomicU64;
        // SAFETY: prefix slots and tie-array words hold only 0 or addresses
        // of key blobs allocated by the arena (`Arena::blob`), which are
        // never freed before the tree drops, which outlives `'a`. Word 0 is
        // the blob's capacity in bytes (a multiple of 8), written when it
        // was allocated and never changed: free lists reuse a blob only for
        // another blob of the same size.
        let cap = unsafe { &*ptr }.load(Ordering::Relaxed) as usize;
        // SAFETY: as above; the blob is `2 + cap / 8` words long.
        let words = unsafe { std::slice::from_raw_parts(ptr, 2 + cap / 8) };
        let len = (words[1].load(Ordering::Acquire) as usize).min(cap);
        (len, &words[2..])
    }

    /// The prefix: its length and the words holding its bytes.
    fn prefix(&self) -> (usize, &'a [AtomicU64]) {
        match self.prefix_slot().load(Ordering::Acquire) {
            0 => (0, &[]),
            // SAFETY: a non-zero value loaded from a prefix slot.
            addr => unsafe { Self::blob(addr) },
        }
    }

    /// The tie array, once the node has one.
    fn ties(&self) -> Option<&'a [AtomicU64]> {
        match self.ties_slot().load(Ordering::Acquire) {
            0 => None,
            // SAFETY: a tie-array word only ever holds 0 or the address of
            // a tie array of `max_chunks << shift` words allocated by the
            // same arena (`Nodes::set_tie`), never freed before the tree
            // drops, which outlives `'a`.
            addr => Some(unsafe {
                std::slice::from_raw_parts(
                    addr as *const AtomicU64,
                    self.max_chunks() << self.shift,
                )
            }),
        }
    }

    /// The key blob that slot `i`'s tie-array word points to, or 0.
    fn tie(&self, i: usize) -> u64 {
        self.ties()
            .map_or(0, |ties| ties[i].load(Ordering::Acquire))
    }

    /// Where `key` stands against the prefix.
    #[inline]
    fn side(&self, key: &[u8]) -> Side {
        let (len, words) = self.prefix();
        if len == 0 {
            return Side::Within(0);
        }
        count_key_read();
        match cmp_blob(len, words, &key[..len.min(key.len())]) {
            CmpOrdering::Equal => Side::Within(len),
            CmpOrdering::Greater => Side::Below,
            CmpOrdering::Less => Side::Above,
        }
    }

    /// True if discriminator `i`, whose word ties with `key`'s, is below
    /// `key`: a read of its full bytes.
    fn tie_below(&self, i: usize, key: &[u8]) -> bool {
        count_key_read();
        match self.tie(i) {
            // A long word without bytes is a torn view: any answer does.
            0 => false,
            addr => {
                // SAFETY: a non-zero value loaded from a tie-array word.
                let (len, words) = unsafe { Self::blob(addr) };
                cmp_blob(len, words, key) == CmpOrdering::Less
            }
        }
    }

    /// Discriminator `i`'s bytes (byte-string nodes, writers only).
    fn disc_bytes(&self, i: usize) -> Vec<u8> {
        let tie = self.tie(i);
        if tie != 0 {
            // SAFETY: a non-zero value loaded from a tie-array word.
            let (len, words) = unsafe { Self::blob(tie) };
            return blob_bytes(len, words);
        }
        let (len, words) = self.prefix();
        let mut bytes = blob_bytes(len, words);
        let w = self.key(i).to_be_bytes();
        bytes.extend_from_slice(&w[..(w[7] as usize).min(7)]);
        bytes
    }

    /// Discriminator `i` as a key (writers only).
    fn disc(&self, i: usize) -> K::Owned {
        let bytes = if K::IS_VAR {
            self.disc_bytes(i)
        } else {
            Vec::new()
        };
        K::decode(self.key(i), bytes)
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
    fn locate(&self, key: &K::Owned) -> (usize, &'a [AtomicU64], usize) {
        let keys = self.readable_count() - 1;
        let mut skip = 0;
        if K::IS_VAR {
            match self.side(K::bytes(key)) {
                Side::Below => return (0, self.chunk(0), 0),
                Side::Above => {
                    let mask = (1 << self.shift) - 1;
                    return (keys, self.chunk(keys >> self.shift), keys & mask);
                }
                Side::Within(len) => skip = len,
            }
        }
        let word = K::encode(key, skip);
        let lt = |w: &AtomicU64| w.load(Ordering::Acquire) < word;
        // The chunks whose keys are all discriminators, by their fences:
        // the answer lies in the first whose fence is not below `key`, or
        // in the partial chunk after them. The fences are few and sorted,
        // so counting those below `key` finds it without a dependent load.
        let fences = &self.head[HEAD..HEAD + (keys >> self.shift)];
        let mut q: usize = fences.iter().map(|f| lt(f) as usize).sum();
        let tied = K::IS_VAR && word & 0xff == WORD_LONG;
        let per = 1 << self.shift;
        // Fences tied with `key` and below it in full.
        while tied
            && q < fences.len()
            && fences[q].load(Ordering::Acquire) == word
            && self.tie_below((q << self.shift) + per - 1, K::bytes(key))
        {
            q += 1;
        }
        let start = q << self.shift;
        let chunk = self.chunk(q);
        let len = (keys - start).min(per);
        let mut o = chunk[..len].partition_point(lt);
        if tied {
            // The run of words equal to `key`'s, searched by full bytes.
            let mut hi = o + chunk[o..len].partition_point(|w| w.load(Ordering::Acquire) == word);
            while o < hi {
                let mid = (o + hi) / 2;
                if self.tie_below(start + mid, K::bytes(key)) {
                    o = mid + 1;
                } else {
                    hi = mid;
                }
            }
        }
        (start + o, chunk, o)
    }

    /// Index of the child covering `key`.
    #[inline]
    pub fn child_index(&self, key: &K::Owned) -> usize {
        self.locate(key).0
    }

    /// Encoding of the child covering `key`.
    #[inline]
    pub fn route(&self, key: &K::Owned) -> u64 {
        let (i, chunk, o) = self.locate(key);
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

    fn set_child(&self, i: usize, child: u64) {
        self.word(i, true).store(child, Ordering::Release);
    }

    /// Moves children `from..n` (with their keys and tie words) one place
    /// up, a chunk at a time, and refreshes the fences of the chunks it
    /// touched. Writer only; `n` must fit the node's chunks.
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
        if let Some(ties) = K::IS_VAR.then(|| self.ties()).flatten() {
            for j in (from..n).rev() {
                move_word(&ties[j], &ties[j + 1]);
            }
        }
        self.refresh_fences(from >> self.shift, n >> self.shift);
    }

    /// Moves children `from..n` (with their keys and tie words) one place
    /// down, a chunk at a time, and refreshes the fences of the chunks it
    /// touched. Writer only.
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
        if let Some(ties) = K::IS_VAR.then(|| self.ties()).flatten() {
            for j in from..n {
                move_word(&ties[j], &ties[j - 1]);
            }
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

impl<K: KeyKind> Nodes<K> {
    /// An empty arena for nodes of up to `fanout` children.
    pub fn new(fanout: usize) -> Nodes<K> {
        Self::with_chunk(fanout, chunk_children(fanout))
    }

    /// [`Nodes::new`] with `per` (a power of two) children per chunk.
    fn with_chunk(fanout: usize, per: usize) -> Nodes<K> {
        debug_assert!(per.is_power_of_two() && per <= MAX_CHUNK);
        Nodes {
            shift: per.trailing_zeros(),
            max_chunks: fanout.div_ceil(per),
            fanout,
            arena: Mutex::new(Arena::default()),
            _key: PhantomData,
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
    pub unsafe fn get(&self, enc: u64) -> Node<'_, K> {
        Node {
            // SAFETY: the caller guarantees `enc` is the address of a header
            // of `head_words()` words owned by this arena.
            head: unsafe { std::slice::from_raw_parts(enc as *const AtomicU64, self.head_words()) },
            shift: self.shift,
            _key: PhantomData,
        }
    }

    fn head_words(&self) -> usize {
        HEAD + 2 * self.max_chunks + Node::<K>::TAIL
    }

    fn per(&self) -> usize {
        1 << self.shift
    }

    fn fresh_chunk(&self, a: &mut Arena) -> u64 {
        a.free_chunks
            .pop()
            .unwrap_or_else(|| a.block(2 * self.per(), |_| 0))
    }

    /// Stores discriminator `i` of `node`, whose prefix is `skip` bytes
    /// long: its word, and for a byte-string key that runs more than 7
    /// bytes past the prefix, a key blob of its bytes in the tie array.
    /// Whatever tie word slot `i` held must have moved or been given back.
    fn put_key(&self, node: Node<'_, K>, i: usize, key: &K::Owned, skip: usize) {
        let word = K::encode(key, skip);
        node.set_key(i, word);
        if K::IS_VAR {
            let blob = if word & 0xff == WORD_LONG {
                self.arena.lock().blob(K::bytes(key))
            } else {
                0
            };
            self.set_tie(node, i, blob);
        }
    }

    /// Points slot `i`'s tie word at `blob` (0: none), taking a tie array
    /// for the node when it needs its first.
    fn set_tie(&self, node: Node<'_, K>, i: usize, blob: u64) {
        let ties = match node.ties() {
            Some(ties) => ties,
            None if blob == 0 => return,
            None => {
                let words = self.max_chunks << self.shift;
                let a = &mut *self.arena.lock();
                let ties = a.free_ties.pop().unwrap_or_else(|| a.block(words, |_| 0));
                node.ties_slot().store(ties, Ordering::Release);
                node.ties().expect("just stored")
            }
        };
        ties[i].store(blob, Ordering::Release);
    }

    /// Gives back the key blob of slot `i`'s tie word, if any, and clears
    /// the word.
    fn take_tie(&self, node: Node<'_, K>, i: usize) {
        let blob = node
            .ties()
            .map_or(0, |ties| ties[i].swap(0, Ordering::AcqRel));
        if blob != 0 {
            self.arena.lock().free_blob(blob);
        }
    }

    /// A node of `entries.len()` children: child `i` is `entries[i].1`
    /// and its discriminator `entries[i].0` (the last one's is unused).
    /// The discriminators must be sorted. The node is unreachable until
    /// its encoding (the return value) is stored in a parent or the root.
    pub fn alloc(&self, entries: &[(K::Owned, u64)]) -> u64 {
        let n = entries.len();
        debug_assert!(n >= 1 && n <= self.fanout);
        let chunks = n.div_ceil(self.per());
        let prefix = match entries {
            [(first, _), .., (last, _), _] if K::IS_VAR => {
                common_prefix(K::bytes(first), K::bytes(last))
            }
            [(only, _), _] if K::IS_VAR => K::bytes(only),
            _ => &[],
        };
        let enc = {
            let a = &mut *self.arena.lock();
            let enc = a.free_heads.pop().unwrap_or_else(|| {
                let zero = ZERO_CHUNK.as_ptr() as u64;
                a.heads += 1;
                let (fences, slots) = (HEAD + self.max_chunks, HEAD + 2 * self.max_chunks);
                a.block(self.head_words(), |w| {
                    if (fences..slots).contains(&w) {
                        zero
                    } else {
                        0
                    }
                })
            });
            // SAFETY: `enc` is a header of this arena, taken just above.
            let node = unsafe { self.get(enc) };
            for q in 0..chunks {
                node.chunk_slot(q)
                    .store(self.fresh_chunk(a), Ordering::Release);
            }
            if !prefix.is_empty() {
                node.prefix_slot().store(a.blob(prefix), Ordering::Release);
            }
            enc
        };
        // SAFETY: as above.
        let node = unsafe { self.get(enc) };
        for (i, (key, child)) in entries.iter().enumerate() {
            if i + 1 < n {
                self.put_key(node, i, key, prefix.len());
            } else {
                node.set_key(i, 0);
            }
            node.set_child(i, *child);
        }
        node.head[1].store(chunks as u64, Ordering::Relaxed);
        node.head[0].store(n as u64, Ordering::Release);
        enc
    }

    /// Gives an unlinked node's header, chunks, prefix, tie array and key
    /// blobs back to the free lists.
    pub fn retire(&self, node: Node<'_, K>) {
        let a = &mut *self.arena.lock();
        if K::IS_VAR {
            let prefix = node.prefix_slot().swap(0, Ordering::AcqRel);
            if prefix != 0 {
                a.free_blob(prefix);
            }
            if let Some(ties) = node.ties() {
                for tie in ties {
                    let blob = tie.swap(0, Ordering::AcqRel);
                    if blob != 0 {
                        a.free_blob(blob);
                    }
                }
                a.free_ties.push(node.ties_slot().swap(0, Ordering::AcqRel));
            }
        }
        for q in 0..node.chunks() {
            a.free_chunks
                .push(node.chunk_slot(q).load(Ordering::Relaxed));
        }
        a.free_heads.push(node.head.as_ptr() as u64);
    }

    /// Shrinks a byte-string node's prefix to one that `key` starts with,
    /// re-encoding discriminators `0..upto` (the rest are rewritten by the
    /// caller), and returns the prefix's length. Writer only.
    fn cover(&self, node: Node<'_, K>, key: &[u8], upto: usize) -> usize {
        let (len, words) = node.prefix();
        if key.len() >= len && cmp_blob(len, words, &key[..len]) == CmpOrdering::Equal {
            return len;
        }
        let prefix = blob_bytes(len, words);
        let keep = common_prefix(&prefix, key).len();
        let discs: Vec<Vec<u8>> = (0..upto).map(|i| node.disc_bytes(i)).collect();
        let fresh = if keep == 0 {
            0
        } else {
            self.arena.lock().blob(&prefix[..keep])
        };
        let old = node.prefix_slot().swap(fresh, Ordering::AcqRel);
        for (i, bytes) in discs.iter().enumerate() {
            let word = var_word(&bytes[keep..]);
            node.set_key(i, word);
            // A key long past the old prefix keeps its blob.
            if word & 0xff == WORD_LONG && node.tie(i) == 0 {
                let blob = self.arena.lock().blob(bytes);
                self.set_tie(node, i, blob);
            }
        }
        if old != 0 {
            self.arena.lock().free_blob(old);
        }
        keep
    }

    /// Inserts child `child` with discriminator `key` right after child
    /// `idx`, which keeps its place but takes `key` as its discriminator:
    /// what a split of child `idx` at `key` publishes. Grows the node by a
    /// chunk when it needs one, and shrinks a byte-string node's prefix
    /// when `key` lies outside it. A full node splits instead: of its
    /// `fanout + 1` children it keeps the first `fanout / 2 + 1`, and the
    /// rest move to a new right sibling; returns the discriminator to push
    /// up (the left half's last) and the sibling's encoding. Writer only.
    pub fn insert_after(
        &self,
        node: Node<'_, K>,
        idx: usize,
        key: &K::Owned,
        child: u64,
    ) -> Option<(K::Owned, u64)> {
        let n = node.count();
        debug_assert!(idx < n && n <= self.fanout);
        if n == self.fanout {
            let mut all: Vec<(K::Owned, u64)> = (0..n)
                .map(|i| {
                    let k = if i + 1 < n { node.disc(i) } else { key.clone() };
                    (k, node.child(i))
                })
                .collect();
            all.insert(idx + 1, (all[idx].0.clone(), child));
            all[idx].0 = key.clone();
            let mid = n / 2 + 1;
            // The left half keeps `all[..mid - 1]`: its prefix shrinks only
            // when `key` lands there, and the right half's comes from
            // `alloc`.
            let skip = if !K::IS_VAR {
                0
            } else if idx + 1 < mid {
                self.cover(node, K::bytes(key), idx)
            } else {
                node.prefix().0
            };
            // Rewrite from the first changed slot, or from the left half's
            // last, which becomes its unused one.
            let from = idx.min(mid - 1);
            if K::IS_VAR {
                for i in from..n {
                    self.take_tie(node, i);
                }
            }
            for (i, (k, c)) in all.iter().enumerate().take(mid).skip(from) {
                if i + 1 < mid {
                    self.put_key(node, i, k, skip);
                } else {
                    node.set_key(i, 0);
                }
                node.set_child(i, *c);
            }
            node.head[0].store(mid as u64, Ordering::Release);
            self.shrink(node, mid);
            let right = self.alloc(&all[mid..]);
            return Some((all.swap_remove(mid - 1).0, right));
        }
        let skip = if K::IS_VAR {
            self.cover(node, K::bytes(key), n - 1)
        } else {
            0
        };
        let chunks = node.chunks();
        if n == chunks << self.shift {
            let fresh = self.fresh_chunk(&mut self.arena.lock());
            node.chunk_slot(chunks).store(fresh, Ordering::Release);
            node.head[1].store(chunks as u64 + 1, Ordering::Relaxed);
        }
        node.shift_right(idx + 1, n);
        node.set_key(idx + 1, node.key(idx));
        node.set_child(idx + 1, child);
        if K::IS_VAR {
            self.set_tie(node, idx + 1, node.tie(idx));
        }
        self.put_key(node, idx, key, skip);
        node.head[0].store(n as u64 + 1, Ordering::Release);
        None
    }

    /// Removes child `idx`. Its discriminator goes with it, except for the
    /// last child, whose predecessor's discriminator goes instead (the
    /// predecessor then covers the range up to the node's upper bound).
    /// Gives back a chunk the node no longer needs. Writer only.
    pub fn remove_at(&self, node: Node<'_, K>, idx: usize) {
        let n = node.count();
        debug_assert!(idx < n);
        if K::IS_VAR && n >= 2 {
            self.take_tie(node, idx.min(n - 2));
        }
        node.shift_left(idx + 1, n);
        node.head[0].store(n as u64 - 1, Ordering::Release);
        self.shrink(node, n - 1);
    }

    /// Gives back the chunks past what `n` children need (keeping one).
    fn shrink(&self, node: Node<'_, K>, n: usize) {
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

    /// Bytes of every block allocated — headers, chunks, tie arrays and
    /// key blobs — free ones included.
    pub fn dram_bytes(&self) -> usize {
        8 * self.arena.lock().words
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
    use crate::keys::{FixedKey, VarKey};
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

    /// What the routing model needs of a key kind.
    trait TestKey: KeyKind {
        /// The one discriminator of a fresh two-child model.
        fn seed() -> Self::Owned;
        /// The least key, below every discriminator (for `VarKey` also
        /// outside every non-empty prefix).
        fn min() -> Self::Owned;
        /// A random probe or candidate key.
        fn random(rng: &mut Rng) -> Self::Owned;
        /// Probes at and around `k`.
        fn around(k: &Self::Owned) -> Vec<Self::Owned>;
        /// A key strictly between `lo` and `hi` (`None`: unbounded), if
        /// the draw finds room.
        fn between(
            lo: Option<&Self::Owned>,
            hi: Option<&Self::Owned>,
            rng: &mut Rng,
        ) -> Option<Self::Owned>;
    }

    impl TestKey for FixedKey {
        fn seed() -> u64 {
            1 << 20
        }

        fn min() -> u64 {
            0
        }

        fn random(rng: &mut Rng) -> u64 {
            rng.next() % (1 << 41)
        }

        fn around(k: &u64) -> Vec<u64> {
            vec![*k, k + 1]
        }

        fn between(lo: Option<&u64>, hi: Option<&u64>, rng: &mut Rng) -> Option<u64> {
            let lo = lo.map_or(0, |k| k + 1);
            let hi = hi.copied().unwrap_or(1 << 40);
            (lo < hi).then(|| lo + rng.next() % (hi - lo))
        }
    }

    /// A shared stem that random byte-string keys cut at a random length:
    /// long common prefixes, keys that are prefixes of each other, and
    /// 7- and 8-byte windows past any prefix that tie.
    const STEM: &[u8] = b"key:0000000000/shared-stem";

    impl TestKey for VarKey {
        fn seed() -> Vec<u8> {
            STEM.to_vec()
        }

        fn min() -> Vec<u8> {
            Vec::new()
        }

        fn random(rng: &mut Rng) -> Vec<u8> {
            let mut k = STEM[..rng.below(STEM.len() + 1)].to_vec();
            for _ in 0..rng.below(12) {
                // Zero bytes make keys that differ only by trailing zeros.
                k.push([0u8, 0, 1, b'0', b'k', 0xff][rng.below(6)]);
            }
            k
        }

        fn around(k: &Vec<u8>) -> Vec<Vec<u8>> {
            let mut out = vec![k.clone(), [k.as_slice(), &[0]].concat()];
            if let Some((&last, head)) = k.split_last() {
                out.push(head.to_vec());
                out.push([head, &[last.wrapping_sub(1)]].concat());
                out.push([head, &[last.wrapping_add(1)]].concat());
            }
            out
        }

        fn between(lo: Option<&Vec<u8>>, hi: Option<&Vec<u8>>, rng: &mut Rng) -> Option<Vec<u8>> {
            let fits = |k: &Vec<u8>| lo.is_none_or(|l| l < k) && hi.is_none_or(|h| k < h);
            let mut near = Vec::new();
            if let Some(l) = lo {
                near.push([l.as_slice(), &[0]].concat());
                near.push([l.as_slice(), &[0, 0, 0, 0, 0, 0, 0, 0]].concat());
                near.push([l.as_slice(), &[rng.next() as u8]].concat());
            }
            let drawn = (0..32).map(|_| Self::random(rng));
            let fit: Vec<Vec<u8>> = near.into_iter().chain(drawn).filter(fits).collect();
            (!fit.is_empty()).then(|| fit[rng.below(fit.len())].clone())
        }
    }

    /// The routing oracle: `n − 1` sorted discriminators and `n` children,
    /// changed the way the node's writer methods change a node.
    #[derive(Debug, PartialEq)]
    struct Model<K: KeyKind> {
        keys: Vec<K::Owned>,
        children: Vec<u64>,
    }

    impl<K: KeyKind> Clone for Model<K> {
        fn clone(&self) -> Self {
            Model {
                keys: self.keys.clone(),
                children: self.children.clone(),
            }
        }
    }

    impl<K: TestKey> Model<K> {
        fn new(children: [u64; 2]) -> Self {
            Model {
                keys: vec![K::seed()],
                children: children.to_vec(),
            }
        }

        fn route(&self, x: &K::Owned) -> u64 {
            self.children[self.keys.partition_point(|k| k < x)]
        }

        fn insert_after(&mut self, idx: usize, key: K::Owned, child: u64) {
            self.keys.insert(idx, key);
            self.children.insert(idx + 1, child);
        }

        fn remove_at(&mut self, idx: usize) {
            self.children.remove(idx);
            if !self.keys.is_empty() {
                self.keys.remove(idx.min(self.keys.len() - 1));
            }
        }

        fn split(&mut self) -> (K::Owned, Self) {
            let mid = (self.children.len() - 1) / 2 + 1;
            let right = Model {
                keys: self.keys.split_off(mid),
                children: self.children.split_off(mid),
            };
            (self.keys.pop().expect("a key above the left half"), right)
        }

        /// The entries of a node holding this model (last key unused).
        fn entries(&self) -> Vec<(K::Owned, u64)> {
            let unused = self.keys.last().cloned().unwrap_or_else(K::seed);
            self.children
                .iter()
                .enumerate()
                .map(|(i, &c)| (self.keys.get(i).unwrap_or(&unused).clone(), c))
                .collect()
        }

        /// A key strictly between the neighbours of discriminator `idx`,
        /// if there is room.
        fn fresh_key(&self, idx: usize, rng: &mut Rng) -> Option<K::Owned> {
            let lo = idx.checked_sub(1).map(|i| &self.keys[i]);
            K::between(lo, self.keys.get(idx), rng)
        }
    }

    /// The node holds exactly `m`, and routes every probe as `m` does.
    fn assert_matches<K: TestKey>(nodes: &Nodes<K>, enc: u64, m: &Model<K>, rng: &mut Rng) {
        // SAFETY: `enc` came from `nodes.alloc`.
        let node = unsafe { nodes.get(enc) };
        assert_eq!(node.count(), m.children.len());
        assert!(node.chunks() >= m.children.len().div_ceil(nodes.per()).max(1));
        for (i, &c) in m.children.iter().enumerate() {
            assert_eq!(node.child(i), c, "child {i}");
        }
        for (i, k) in m.keys.iter().enumerate() {
            assert_eq!(&node.disc(i), k, "key {i}");
        }
        if K::IS_VAR {
            // Every discriminator starts with the prefix, its word is its
            // encoding past it, and exactly the long ones keep a blob.
            let (len, words) = node.prefix();
            let prefix = blob_bytes(len, words);
            for (i, k) in m.keys.iter().enumerate() {
                assert!(
                    K::bytes(k).starts_with(&prefix),
                    "key {i} outside the prefix"
                );
                let word = K::encode(k, len);
                assert_eq!(node.key(i), word, "word {i}");
                assert_eq!(node.tie(i) != 0, word & 0xff == WORD_LONG, "tie {i}");
            }
            let slots = nodes.max_chunks << nodes.shift;
            for i in m.keys.len()..slots {
                assert_eq!(node.tie(i), 0, "tie word {i} past the discriminators");
            }
        }
        let mut probes: Vec<K::Owned> = m.keys.iter().flat_map(K::around).collect();
        probes.extend((0..8).map(|_| K::random(rng)));
        probes.push(K::min());
        for x in probes {
            let idx = node.child_index(&x);
            assert_eq!(node.child(idx), m.route(&x), "routing {x:?}");
            assert_eq!(node.route(&x), m.route(&x), "routing {x:?}");
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
        assert_eq!(Nodes::<FixedKey>::new(4096).max_chunks, 16);
        assert_eq!(Nodes::<FixedKey>::new(128).max_chunks, 4);
        for fanout in [64usize, 128] {
            // A full node costs no more than a pointer-based node's 24 B
            // per child plus 48 B; one at most three quarters full costs
            // less than the `2 · fanout + 1` words plus a 40-byte header of
            // a node allocated at full capacity.
            for (n, bound) in [
                (fanout, 24 * fanout + 48),
                (fanout * 3 / 4, 40 + (2 * fanout + 1) * 8 - 1),
            ] {
                let nodes = Nodes::<FixedKey>::new(fanout);
                let entries: Vec<(u64, u64)> = (0..n as u64).map(|i| (i, 2 * i + 1)).collect();
                let enc = nodes.alloc(&entries);
                assert_eq!(nodes.live(), 1);
                assert!(nodes.dram_bytes() <= bound, "fanout {fanout}, {n} children");
                // SAFETY: allocated just above.
                nodes.retire(unsafe { nodes.get(enc) });
                assert_eq!(nodes.live(), 0);
            }
        }
    }

    /// A byte-string node of short keys past a long prefix costs its
    /// header, its chunks and one prefix blob: no tie array, no key blobs.
    #[test]
    fn var_key_node_keeps_one_prefix_and_no_blobs_for_short_keys() {
        let nodes = Nodes::<VarKey>::new(64);
        let entries: Vec<(Vec<u8>, u64)> = (0..48u64)
            .map(|i| (format!("key:{:012}", 1000 + 37 * i).into_bytes(), 2 * i + 1))
            .collect();
        let enc = nodes.alloc(&entries);
        // SAFETY: allocated just above.
        let node = unsafe { nodes.get(enc) };
        assert_eq!(node.prefix().0, b"key:00000000".len());
        assert!(node.ties().is_none());
        let per = nodes.per();
        let want = 8 * (nodes.head_words() + 48usize.div_ceil(per) * 2 * per + blob_words(12));
        assert_eq!(nodes.dram_bytes(), want);
        for (i, (k, c)) in entries.iter().enumerate() {
            assert_eq!(node.route(k), *c);
            if i + 1 < entries.len() {
                assert_eq!(node.disc(i), *k);
            }
        }
        // A key outside the prefix shrinks it and re-encodes the node.
        let idx = node.child_index(&b"key:1".to_vec());
        assert_eq!(idx, 47);
        nodes.insert_after(node, idx, &b"key:1".to_vec(), 999);
        assert_eq!(node.prefix().0, b"key:".len());
        assert!(
            node.ties().is_some(),
            "keys long past the prefix keep blobs"
        );
        for (k, c) in &entries {
            assert_eq!(node.route(k), *c);
        }
        assert_eq!(node.route(&b"key:0".to_vec()), 1);
        assert_eq!(node.route(&b"key:1".to_vec()), 95);
        assert_eq!(node.route(&b"key:1\0".to_vec()), 999);
        assert_eq!(node.route(&b"key".to_vec()), 1);
        assert_eq!(node.route(&b"kez".to_vec()), 999);
    }

    /// Random inserts, removes, splits, retirements and fresh nodes against
    /// the oracle, on 4-child chunks so a node of up to 9 children passes
    /// through 1, 2 and 3 chunks.
    fn node_matches_the_routing_model_with<K: TestKey>() {
        const FANOUT: usize = 9;
        let nodes = Nodes::<K>::with_chunk(FANOUT, 4);
        let mut rng = Rng(42);
        let mut next_child = 1u64;
        let mut child = || {
            next_child += 2;
            next_child
        };
        let mut live: Vec<(u64, Model<K>)> = Vec::new();
        let mut classes = [false; 4];
        let mut reused = 0;
        let steps = if cfg!(miri) { 150 } else { 600 };
        for step in 0..steps {
            if live.is_empty() {
                let m = Model::new([child(), child()]);
                live.push((nodes.alloc(&m.entries()), m));
            }
            let (enc, mut m) = live.swap_remove(rng.below(live.len()));
            // SAFETY: every encoding in `live` came from `nodes.alloc`.
            let node = unsafe { nodes.get(enc) };
            match rng.below(10) {
                0..=5 => {
                    let idx = rng.below(m.children.len());
                    if let Some(key) = m.fresh_key(idx, &mut rng) {
                        let c = child();
                        let split = nodes.insert_after(node, idx, &key, c);
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
                    // free lists without growing the arena (byte strings:
                    // but for a longer prefix's blob).
                    let before = nodes.dram_bytes();
                    nodes.retire(node);
                    let fresh = nodes.alloc(&m.entries());
                    let grown = nodes.dram_bytes() - before;
                    if K::IS_VAR {
                        assert!(grown <= 8 * blob_words(STEM.len() + 12), "step {step}");
                    } else {
                        assert_eq!(grown, 0, "step {step}");
                    }
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

    #[test]
    fn node_matches_the_routing_model() {
        node_matches_the_routing_model_with::<FixedKey>();
    }

    #[test]
    fn var_key_node_matches_the_routing_model() {
        node_matches_the_routing_model_with::<VarKey>();
    }

    /// Readers descend while one writer grows a node chunk by chunk until
    /// it splits under a new root, collapses the two levels back into one
    /// node built from the free lists, and shrinks it again. The writer
    /// records the logical content of every state it publishes under the
    /// version that publishes it; each read that validates against a
    /// version must route as that state does. Returns how often an insert
    /// shrank the root's prefix.
    fn validated_reads_beside_a_writer<K: TestKey>() -> usize {
        const FANOUT: usize = 20;
        // Miri interprets every load; a few rounds still cover each step.
        let rounds = if cfg!(miri) { 3 } else { 40 };
        let nodes = Nodes::<K>::with_chunk(FANOUT, 4);
        let lock = SpecLock::new();
        let root = AtomicU64::new(0);
        let states: parking_lot::Mutex<HashMap<u64, Arc<Model<K>>>> = Default::default();
        let done = AtomicBool::new(false);
        let mut rng = Rng(3);
        let mut m = Model::<K>::new([1, 3]);
        let mut shrinks = 0;
        root.store(nodes.alloc(&m.entries()), Ordering::Release);
        states.lock().insert(lock.read_begin(), Arc::new(m.clone()));
        // Leaf encodings are odd; a node's is its (even) header address.
        let descend = |x: &K::Owned| {
            let mut enc = root.load(Ordering::Acquire);
            for _ in 0..4 {
                if enc & 1 == 1 {
                    break;
                }
                // SAFETY: `root` and child words hold only odd encodings and
                // encodings returned by `nodes`.
                enc = unsafe { nodes.get(enc) }.route(x);
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
                            let x = K::random(&mut rng);
                            let v = lock.read_begin();
                            let got = descend(&x);
                            if lock.read_validate(v) {
                                let state = Arc::clone(&states.lock()[&v]);
                                assert_eq!(got, state.route(&x), "key {x:?} at version {v}");
                                validated += 1;
                            }
                        }
                        validated
                    })
                })
                .collect();
            let publish = |m: &Model<K>, v: u64| states.lock().insert(v + 2, Arc::new(m.clone()));
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
                    let before = if K::IS_VAR { node.prefix().0 } else { 0 };
                    let split = nodes.insert_after(node, idx, &key, next_child);
                    if K::IS_VAR && node.prefix().0 < before {
                        shrinks += 1;
                    }
                    m.insert_after(idx, key, next_child);
                    next_child += 2;
                    if let Some((up, right)) = split {
                        let top = nodes.alloc(&[(up.clone(), left), (up, right)]);
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
                    let whole = nodes.alloc(&m.entries());
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
        shrinks
    }

    #[test]
    fn validated_reads_route_correctly_beside_a_writer() {
        validated_reads_beside_a_writer::<FixedKey>();
    }

    #[test]
    fn validated_var_key_reads_route_correctly_beside_a_prefix_shrinking_writer() {
        let shrinks = validated_reads_beside_a_writer::<VarKey>();
        assert!(shrinks > 0, "no insert shrank a prefix");
    }

    /// Bytes of one full node of `nodes`, with a blob of every key it can
    /// hold for byte strings.
    fn nodes_bytes<K: KeyKind>(nodes: &Nodes<K>) -> usize {
        let slots = nodes.max_chunks * nodes.per();
        let var = if K::IS_VAR {
            slots + (slots + 1) * blob_words(STEM.len() + 12)
        } else {
            0
        };
        8 * (nodes.head_words() + 2 * slots + var)
    }
}
