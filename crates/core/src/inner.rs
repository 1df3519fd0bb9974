//! Volatile inner nodes for the single-threaded trees.
//!
//! Selective Persistence (§4.1): inner nodes are non-primary data — they can
//! always be rebuilt from the leaves — so they live in DRAM with a classical
//! sorted layout and need no persistence effort at all. This module is that
//! classical structure: sorted keys, `n` keys / `n+1` children, child `i`
//! covering `(keys[i-1], keys[i]]`.

use crate::keys::KeyKind;

/// A node of the volatile index: an inner node or a reference to a leaf in
/// SCM (by pool offset).
pub(crate) enum Node<K: KeyKind> {
    Inner(Box<InnerNode<K>>),
    Leaf(u64),
}

/// A sorted DRAM inner node.
pub(crate) struct InnerNode<K: KeyKind> {
    /// Discriminators: child `i` holds keys `≤ keys[i]` (and `> keys[i-1]`).
    pub keys: Vec<K::Owned>,
    /// `keys.len() + 1` children.
    pub children: Vec<Node<K>>,
}

impl<K: KeyKind> InnerNode<K> {
    /// Index of the child that covers `key`.
    #[inline]
    pub fn child_index(&self, key: &K::Owned) -> usize {
        self.keys.partition_point(|k| k < key)
    }

    /// Splits a over-full node in half, returning the key to push up and the
    /// new right sibling.
    pub fn split(&mut self) -> (K::Owned, Box<InnerNode<K>>) {
        let mid = self.keys.len() / 2;
        let up = self.keys[mid].clone();
        let right_keys = self.keys.split_off(mid + 1);
        self.keys.pop(); // `up` moves to the parent
        let right_children = self.children.split_off(mid + 1);
        (
            up,
            Box::new(InnerNode {
                keys: right_keys,
                children: right_children,
            }),
        )
    }
}

impl<K: KeyKind> Node<K> {
    /// Descends to the leaf covering `key`.
    pub fn find_leaf(&self, key: &K::Owned) -> u64 {
        let mut node = self;
        loop {
            match node {
                Node::Leaf(off) => return *off,
                Node::Inner(inner) => node = &inner.children[inner.child_index(key)],
            }
        }
    }

    /// Descends to the leaf covering `key`, also returning the leaf that
    /// precedes it in the linked list (`FindLeafAndPrevLeaf`): the rightmost
    /// leaf of the nearest left sibling subtree on the descent path.
    pub fn find_leaf_and_prev(&self, key: &K::Owned) -> (u64, Option<u64>) {
        let mut node = self;
        let mut left_subtree: Option<&Node<K>> = None;
        loop {
            match node {
                Node::Leaf(off) => {
                    return (*off, left_subtree.map(|n| n.rightmost_leaf()));
                }
                Node::Inner(inner) => {
                    let idx = inner.child_index(key);
                    if idx > 0 {
                        left_subtree = Some(&inner.children[idx - 1]);
                    }
                    node = &inner.children[idx];
                }
            }
        }
    }

    /// Rightmost leaf of this subtree.
    pub fn rightmost_leaf(&self) -> u64 {
        let mut node = self;
        loop {
            match node {
                Node::Leaf(off) => return *off,
                Node::Inner(inner) => {
                    node = inner.children.last().expect("inner node with no children")
                }
            }
        }
    }

    /// Number of inner nodes and total volatile bytes (DRAM footprint).
    pub fn dram_usage(&self, key_bytes: impl Fn(&K::Owned) -> usize + Copy) -> (usize, usize) {
        match self {
            Node::Leaf(_) => (0, 0),
            Node::Inner(inner) => {
                let mut nodes = 1;
                // Struct + vec headers + child enum slots + key payloads.
                let mut bytes = std::mem::size_of::<InnerNode<K>>()
                    + inner.children.len() * std::mem::size_of::<Node<K>>()
                    + inner.keys.iter().map(&key_bytes).sum::<usize>();
                for c in &inner.children {
                    let (n, b) = c.dram_usage(key_bytes);
                    nodes += n;
                    bytes += b;
                }
                (nodes, bytes)
            }
        }
    }

    /// Depth of the volatile index (0 for a bare leaf).
    pub fn height(&self) -> usize {
        match self {
            Node::Leaf(_) => 0,
            Node::Inner(inner) => 1 + inner.children[0].height(),
        }
    }
}

/// Packs one level's `(max_key, node)` pairs into the parent level, `fanout`
/// children per inner node — one worker's share of a bulk-build level.
fn chunk_into_nodes<K: KeyKind>(
    level: Vec<(K::Owned, Node<K>)>,
    fanout: usize,
) -> Vec<(K::Owned, Node<K>)> {
    let mut next = Vec::with_capacity(level.len() / fanout + 1);
    let mut iter = level.into_iter().peekable();
    while iter.peek().is_some() {
        let chunk: Vec<(K::Owned, Node<K>)> = iter.by_ref().take(fanout).collect();
        let max = chunk.last().expect("chunk nonempty").0.clone();
        let mut keys: Vec<K::Owned> = chunk.iter().map(|(k, _)| k.clone()).collect();
        keys.pop(); // n children, n-1 discriminators
        let children: Vec<Node<K>> = chunk.into_iter().map(|(_, n)| n).collect();
        next.push((max, Node::Inner(Box::new(InnerNode { keys, children }))));
    }
    next
}

/// Bulk-builds an index over `entries = [(max_key, leaf_off)]` (ascending by
/// key) — exactly how recovery rebuilds inner nodes from the leaf list
/// (Algorithm 9 / §6.2) — with each level packed by a pool of `threads`
/// workers. Segments are split only at multiples of `fanout`, so every
/// worker produces exactly the nodes the serial chunking would — the
/// resulting tree is identical for every thread count.
pub(crate) fn build_from_leaves<K: KeyKind>(
    entries: Vec<(K::Owned, u64)>,
    fanout: usize,
    threads: usize,
) -> Node<K> {
    assert!(
        !entries.is_empty(),
        "cannot build an index over zero leaves"
    );
    let mut level: Vec<(K::Owned, Node<K>)> = entries
        .into_iter()
        .map(|(k, off)| (k, Node::Leaf(off)))
        .collect();
    while level.len() > 1 {
        let n_chunks = level.len().div_ceil(fanout);
        let workers = threads.min(n_chunks).max(1);
        if workers <= 1 {
            level = chunk_into_nodes::<K>(level, fanout);
            continue;
        }
        // Each worker takes a whole number of fanout-sized chunks.
        let per = n_chunks.div_ceil(workers) * fanout;
        let mut segments = Vec::with_capacity(workers);
        let mut rest = level;
        while rest.len() > per {
            let tail = rest.split_off(per);
            segments.push(rest);
            rest = tail;
        }
        segments.push(rest);
        level = std::thread::scope(|s| {
            let handles: Vec<_> = segments
                .into_iter()
                .map(|seg| s.spawn(move || chunk_into_nodes::<K>(seg, fanout)))
                .collect();
            handles
                .into_iter()
                .flat_map(|h| match h.join() {
                    Ok(v) => v,
                    Err(p) => std::panic::resume_unwind(p),
                })
                .collect()
        });
    }
    level.pop().expect("one root remains").1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::FixedKey;

    fn leaf_entries(n: u64) -> Vec<(u64, u64)> {
        // Leaf i holds keys up to max 10*(i+1), stored at offset 1000*i.
        (0..n).map(|i| (10 * (i + 1), 1000 * i)).collect()
    }

    #[test]
    fn child_index_partitions_correctly() {
        let node: InnerNode<FixedKey> = InnerNode {
            keys: vec![10, 20, 30],
            children: vec![Node::Leaf(0), Node::Leaf(1), Node::Leaf(2), Node::Leaf(3)],
        };
        assert_eq!(node.child_index(&5), 0);
        assert_eq!(node.child_index(&10), 0); // key ≤ keys[0] goes left
        assert_eq!(node.child_index(&11), 1);
        assert_eq!(node.child_index(&20), 1);
        assert_eq!(node.child_index(&25), 2);
        assert_eq!(node.child_index(&31), 3);
    }

    #[test]
    fn build_single_leaf_is_bare() {
        let root = build_from_leaves::<FixedKey>(vec![(10, 0)], 4, 1);
        assert!(matches!(root, Node::Leaf(0)));
        assert_eq!(root.height(), 0);
    }

    #[test]
    fn build_and_search_many_leaves() {
        for fanout in [3usize, 4, 16] {
            for n in [1u64, 2, 5, 16, 65] {
                let root = build_from_leaves::<FixedKey>(leaf_entries(n), fanout, 1);
                // Every key must route to its leaf: key k in (10i, 10(i+1)]
                // lives in leaf i at offset 1000*i.
                for k in 1..=(10 * n) {
                    let expect = 1000 * ((k - 1) / 10);
                    assert_eq!(root.find_leaf(&k), expect, "fanout={fanout} n={n} key={k}");
                }
                // Keys beyond the max route to the last leaf.
                assert_eq!(root.find_leaf(&(10 * n + 5)), 1000 * (n - 1));
            }
        }
    }

    #[test]
    fn find_leaf_and_prev_returns_list_predecessor() {
        let root = build_from_leaves::<FixedKey>(leaf_entries(10), 3, 1);
        // Key 35 lives in leaf 3 (offset 3000); its predecessor is leaf 2.
        let (leaf, prev) = root.find_leaf_and_prev(&35);
        assert_eq!(leaf, 3000);
        assert_eq!(prev, Some(2000));
        // First leaf has no predecessor.
        let (leaf, prev) = root.find_leaf_and_prev(&5);
        assert_eq!(leaf, 0);
        assert_eq!(prev, None);
        // Predecessor across subtree boundaries (fanout 3: leaves 2 and 3
        // fall in different subtrees).
        let (leaf, prev) = root.find_leaf_and_prev(&95);
        assert_eq!(leaf, 9000);
        assert_eq!(prev, Some(8000));
    }

    fn shape(node: &Node<FixedKey>) -> String {
        match node {
            Node::Leaf(off) => format!("L{off}"),
            Node::Inner(inner) => format!(
                "I({:?})[{}]",
                inner.keys,
                inner
                    .children
                    .iter()
                    .map(shape)
                    .collect::<Vec<_>>()
                    .join(",")
            ),
        }
    }

    #[test]
    fn parallel_build_matches_serial_exactly() {
        for fanout in [3usize, 4, 16] {
            for n in [1u64, 2, 5, 16, 65, 257] {
                let serial = build_from_leaves::<FixedKey>(leaf_entries(n), fanout, 1);
                for threads in [1usize, 2, 3, 7, 64] {
                    let par = build_from_leaves::<FixedKey>(leaf_entries(n), fanout, threads);
                    assert_eq!(
                        shape(&par),
                        shape(&serial),
                        "fanout={fanout} n={n} threads={threads}"
                    );
                }
            }
        }
    }

    #[test]
    fn split_preserves_order() {
        let mut node: InnerNode<FixedKey> = InnerNode {
            keys: (1..=7).map(|i| i * 10).collect(),
            children: (0..=7).map(Node::Leaf).collect(),
        };
        let (up, right) = node.split();
        assert_eq!(up, 40);
        assert_eq!(node.keys, vec![10, 20, 30]);
        assert_eq!(node.children.len(), 4);
        assert_eq!(right.keys, vec![50, 60, 70]);
        assert_eq!(right.children.len(), 4);
    }

    #[test]
    fn extremes_and_height() {
        let root = build_from_leaves::<FixedKey>(leaf_entries(30), 4, 1);
        assert_eq!(root.rightmost_leaf(), 29_000);
        assert!(root.height() >= 2);
        let (nodes, bytes) = root.dram_usage(|_| 8);
        assert!(nodes >= 8);
        assert!(bytes > nodes * 8);
    }
}
