//! STXTree: a transient, sorted, main-memory B+-Tree.
//!
//! The paper's reference DRAM implementation is the open-source STX B+-Tree
//! (Table 1: inner and leaf nodes of 16 entries for fixed keys, 8 for
//! strings). This is a faithful counterpart: fully volatile, sorted nodes,
//! binary search, no persistence machinery at all — the yardstick the
//! FPTree's "near-DRAM performance" goal is measured against, and the
//! "full rebuild" baseline of the recovery experiments (Figure 7 e–f, k–l).

/// A sorted main-memory B+-Tree with `u64` values.
pub struct StxTree<K: Ord + Clone> {
    root: Node<K>,
    leaf_cap: usize,
    inner_cap: usize,
    len: usize,
}

enum Node<K> {
    Inner {
        keys: Vec<K>,
        children: Vec<Node<K>>,
    },
    Leaf {
        keys: Vec<K>,
        vals: Vec<u64>,
    },
}

enum Outcome<K> {
    Done(bool),
    Split {
        key: K,
        right: Node<K>,
        result: bool,
    },
}

impl<K: Ord + Clone> StxTree<K> {
    /// Creates an empty tree with the paper's default node sizes.
    pub fn new() -> Self {
        Self::with_capacities(16, 16)
    }

    /// Creates an empty tree with explicit node capacities.
    pub fn with_capacities(leaf_cap: usize, inner_cap: usize) -> Self {
        assert!(leaf_cap >= 2 && inner_cap >= 3);
        StxTree {
            root: Node::Leaf {
                keys: Vec::new(),
                vals: Vec::new(),
            },
            leaf_cap,
            inner_cap,
            len: 0,
        }
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts; false if the key exists.
    pub fn insert(&mut self, key: &K, value: u64) -> bool {
        let (leaf_cap, inner_cap) = (self.leaf_cap, self.inner_cap);
        match Self::insert_rec(&mut self.root, key, value, leaf_cap, inner_cap) {
            Outcome::Done(r) => {
                self.len += r as usize;
                r
            }
            Outcome::Split {
                key: up,
                right,
                result,
            } => {
                let old = std::mem::replace(
                    &mut self.root,
                    Node::Leaf {
                        keys: Vec::new(),
                        vals: Vec::new(),
                    },
                );
                self.root = Node::Inner {
                    keys: vec![up],
                    children: vec![old, right],
                };
                self.len += result as usize;
                result
            }
        }
    }

    fn insert_rec(
        node: &mut Node<K>,
        key: &K,
        value: u64,
        leaf_cap: usize,
        inner_cap: usize,
    ) -> Outcome<K> {
        match node {
            Node::Leaf { keys, vals } => match keys.binary_search(key) {
                Ok(_) => Outcome::Done(false),
                Err(pos) => {
                    keys.insert(pos, key.clone());
                    vals.insert(pos, value);
                    if keys.len() > leaf_cap {
                        let mid = keys.len() / 2;
                        let rk = keys.split_off(mid);
                        let rv = vals.split_off(mid);
                        let up = keys.last().expect("left half nonempty").clone();
                        Outcome::Split {
                            key: up,
                            right: Node::Leaf { keys: rk, vals: rv },
                            result: true,
                        }
                    } else {
                        Outcome::Done(true)
                    }
                }
            },
            Node::Inner { keys, children } => {
                let idx = keys.partition_point(|k| k < key);
                match Self::insert_rec(&mut children[idx], key, value, leaf_cap, inner_cap) {
                    Outcome::Done(r) => Outcome::Done(r),
                    Outcome::Split {
                        key: up,
                        right,
                        result,
                    } => {
                        keys.insert(idx, up);
                        children.insert(idx + 1, right);
                        if children.len() > inner_cap {
                            let mid = keys.len() / 2;
                            let up2 = keys[mid].clone();
                            let rk = keys.split_off(mid + 1);
                            keys.pop();
                            let rc = children.split_off(mid + 1);
                            Outcome::Split {
                                key: up2,
                                right: Node::Inner {
                                    keys: rk,
                                    children: rc,
                                },
                                result,
                            }
                        } else {
                            Outcome::Done(result)
                        }
                    }
                }
            }
        }
    }

    /// Point lookup.
    pub fn get(&self, key: &K) -> Option<u64> {
        let mut node = &self.root;
        loop {
            match node {
                Node::Leaf { keys, vals } => {
                    return keys.binary_search(key).ok().map(|i| vals[i]);
                }
                Node::Inner { keys, children } => {
                    node = &children[keys.partition_point(|k| k < key)];
                }
            }
        }
    }

    /// Updates an existing key; false if absent.
    pub fn update(&mut self, key: &K, value: u64) -> bool {
        let mut node = &mut self.root;
        loop {
            match node {
                Node::Leaf { keys, vals } => {
                    return match keys.binary_search(key) {
                        Ok(i) => {
                            vals[i] = value;
                            true
                        }
                        Err(_) => false,
                    };
                }
                Node::Inner { keys, children } => {
                    let idx = keys.partition_point(|k| k < key);
                    node = &mut children[idx];
                }
            }
        }
    }

    /// Removes; false if absent. (Sorted delete: shifts the arrays — the
    /// cost the paper contrasts with the FPTree's single bitmap flip.)
    pub fn remove(&mut self, key: &K) -> bool {
        let removed = Self::remove_rec(&mut self.root, key);
        if removed {
            self.len -= 1;
            // Collapse a root with a single child.
            loop {
                let replace = match &mut self.root {
                    Node::Inner { children, .. } if children.len() == 1 => {
                        Some(children.pop().expect("one child"))
                    }
                    _ => None,
                };
                match replace {
                    Some(c) => self.root = c,
                    None => break,
                }
            }
        }
        removed
    }

    fn remove_rec(node: &mut Node<K>, key: &K) -> bool {
        match node {
            Node::Leaf { keys, vals } => match keys.binary_search(key) {
                Ok(i) => {
                    keys.remove(i);
                    vals.remove(i);
                    true
                }
                Err(_) => false,
            },
            Node::Inner { keys, children } => {
                let idx = keys.partition_point(|k| k < key);
                let removed = Self::remove_rec(&mut children[idx], key);
                if removed {
                    // Drop empty children (no rebalancing, like the other
                    // evaluated trees).
                    let empty = match &children[idx] {
                        Node::Leaf { keys, .. } => keys.is_empty(),
                        Node::Inner { children, .. } => children.is_empty(),
                    };
                    if empty && children.len() > 1 {
                        children.remove(idx);
                        keys.remove(idx.min(keys.len() - 1));
                    }
                }
                removed
            }
        }
    }

    /// Inclusive range scan.
    pub fn range(&self, lo: &K, hi: &K) -> Vec<(K, u64)> {
        let mut out = Vec::new();
        Self::range_rec(&self.root, lo, hi, &mut out);
        out
    }

    fn range_rec(node: &Node<K>, lo: &K, hi: &K, out: &mut Vec<(K, u64)>) {
        match node {
            Node::Leaf { keys, vals } => {
                let start = keys.partition_point(|k| k < lo);
                for i in start..keys.len() {
                    if keys[i] > *hi {
                        break;
                    }
                    out.push((keys[i].clone(), vals[i]));
                }
            }
            Node::Inner { keys, children } => {
                let start = keys.partition_point(|k| k < lo);
                let end = keys.partition_point(|k| k <= hi);
                for child in &children[start..=end.min(children.len() - 1)] {
                    Self::range_rec(child, lo, hi, out);
                }
            }
        }
    }

    /// Ordered scan: up to `count` entries with keys `>= start`, in key
    /// order (count-capped counterpart of [`StxTree::range`]).
    pub fn scan_from(&self, start: &K, count: usize) -> Vec<(K, u64)> {
        let mut out = Vec::new();
        Self::scan_rec(&self.root, start, count, &mut out);
        out
    }

    fn scan_rec(node: &Node<K>, start: &K, count: usize, out: &mut Vec<(K, u64)>) {
        if out.len() >= count {
            return;
        }
        match node {
            Node::Leaf { keys, vals } => {
                let from = keys.partition_point(|k| k < start);
                for i in from..keys.len() {
                    if out.len() >= count {
                        return;
                    }
                    out.push((keys[i].clone(), vals[i]));
                }
            }
            Node::Inner { keys, children } => {
                let from = keys.partition_point(|k| k < start);
                for child in &children[from..] {
                    if out.len() >= count {
                        return;
                    }
                    Self::scan_rec(child, start, count, out);
                }
            }
        }
    }

    /// Approximate DRAM footprint in bytes.
    pub fn memory_bytes(&self, key_bytes: usize) -> usize {
        fn rec<K>(node: &Node<K>, key_bytes: usize) -> usize {
            match node {
                Node::Leaf { keys, .. } => 64 + keys.len() * (key_bytes + 8),
                Node::Inner { keys, children } => {
                    64 + keys.len() * key_bytes
                        + children.len() * 8
                        + children.iter().map(|c| rec(c, key_bytes)).sum::<usize>()
                }
            }
        }
        rec(&self.root, key_bytes)
    }
}

impl<K: Ord + Clone> Default for StxTree<K> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;

    #[test]
    fn roundtrip() {
        let mut t = StxTree::new();
        for i in 0..5000u64 {
            assert!(t.insert(&i, i * 2));
        }
        assert!(!t.insert(&0, 1));
        assert_eq!(t.len(), 5000);
        for i in 0..5000u64 {
            assert_eq!(t.get(&i), Some(i * 2));
        }
        assert_eq!(t.get(&5000), None);
    }

    #[test]
    fn random_ops_match_btreemap() {
        let mut t = StxTree::with_capacities(4, 4);
        let mut model = std::collections::BTreeMap::new();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..20_000 {
            let k = rng.gen_range(0..2000u64);
            match rng.gen_range(0..4) {
                0 => {
                    let ins = t.insert(&k, k);
                    assert_eq!(ins, !model.contains_key(&k), "insert {k}");
                    if ins {
                        model.insert(k, k);
                    }
                }
                1 => {
                    let had = model.contains_key(&k);
                    if had {
                        model.insert(k, k + 1);
                    }
                    assert_eq!(t.update(&k, k + 1), had, "update {k}");
                }
                2 => assert_eq!(t.remove(&k), model.remove(&k).is_some(), "remove {k}"),
                _ => assert_eq!(t.get(&k), model.get(&k).copied(), "get {k}"),
            }
        }
        assert_eq!(t.len(), model.len());
        let scan = t.range(&500, &1500);
        let expect: Vec<(u64, u64)> = model.range(500..=1500).map(|(k, v)| (*k, *v)).collect();
        assert_eq!(scan, expect);
        let scan = t.scan_from(&500, 37);
        let expect: Vec<(u64, u64)> = model.range(500..).take(37).map(|(k, v)| (*k, *v)).collect();
        assert_eq!(scan, expect);
    }

    #[test]
    fn string_keys() {
        let mut t: StxTree<Vec<u8>> = StxTree::with_capacities(8, 8);
        for i in 0..1000u64 {
            assert!(t.insert(&format!("k{i:05}").into_bytes(), i));
        }
        assert_eq!(t.get(&b"k00500".to_vec()), Some(500));
        assert!(t.remove(&b"k00500".to_vec()));
        assert_eq!(t.get(&b"k00500".to_vec()), None);
    }

    #[test]
    fn drain_to_empty() {
        let mut t = StxTree::with_capacities(4, 4);
        for i in 0..500u64 {
            t.insert(&i, i);
        }
        let mut order: Vec<u64> = (0..500).collect();
        order.shuffle(&mut StdRng::seed_from_u64(7));
        for k in order {
            assert!(t.remove(&k));
        }
        assert!(t.is_empty());
        assert!(t.insert(&1, 1));
    }
}
