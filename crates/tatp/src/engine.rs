//! A dictionary-encoded, columnar storage engine (paper §6.4).
//!
//! The paper's prototype database stores every column dictionary-encoded:
//! a column is a vector of integer codes plus a *dictionary* mapping values
//! to codes. The dictionary's value→code index is the pluggable tree under
//! evaluation — the hot structure of every point query — while the code→
//! value decode vector is plain DRAM (non-primary data, rebuilt on restart).

use std::sync::Arc;

use fptree_core::index::U64Index;
use parking_lot::RwLock;

/// Produces a fresh dictionary index for a named column.
pub type IndexFactory<'a> = dyn Fn(&str) -> Arc<dyn U64Index> + 'a;

/// A dictionary: value → code through the evaluated index, code → value
/// through a DRAM decode vector.
pub struct Dictionary {
    index: Arc<dyn U64Index>,
    decode: RwLock<Vec<u64>>,
}

impl Dictionary {
    /// Creates an empty dictionary over `index`.
    pub fn new(index: Arc<dyn U64Index>) -> Dictionary {
        Dictionary {
            index,
            decode: RwLock::new(Vec::new()),
        }
    }

    /// Encodes `value`, assigning a fresh code on first sight (load phase).
    pub fn encode(&self, value: u64) -> u32 {
        if let Some(code) = self.index.get(value) {
            return code as u32;
        }
        let mut decode = self.decode.write();
        let code = decode.len() as u32;
        if self.index.insert(value, code as u64) {
            decode.push(value);
            code
        } else {
            // Lost a race: someone else inserted the value.
            self.index.get(value).expect("value just inserted") as u32
        }
    }

    /// Looks up the code of `value` (query phase: one tree find).
    pub fn lookup(&self, value: u64) -> Option<u32> {
        self.index.get(value).map(|c| c as u32)
    }

    /// Decodes a code.
    pub fn decode(&self, code: u32) -> u64 {
        self.decode.read()[code as usize]
    }

    /// Number of distinct values.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True if the dictionary is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops and rebuilds the DRAM decode vector from the index (restart:
    /// non-primary data reconstruction). Codes are dense `0..len` by
    /// construction, so each scanned pair lands at its code directly.
    ///
    /// # Panics
    /// If a code is out of range or appears twice: the index no longer
    /// holds a dense code assignment.
    pub fn rebuild_decode(&self) {
        let entries = self
            .index
            .range(0, u64::MAX)
            .expect("dictionary indexes support scans");
        let n = entries.len();
        let mut decode = vec![0u64; n];
        let mut seen = vec![false; n];
        for (value, code) in entries {
            let c = code as usize;
            assert!(
                c < n && !std::mem::replace(&mut seen[c], true),
                "dictionary code {code} of value {value} is out of range or seen twice \
                 ({n} entries)"
            );
            decode[c] = value;
        }
        *self.decode.write() = decode;
    }
}

/// A dictionary-encoded column.
pub struct Column {
    /// Column name (diagnostics).
    pub name: String,
    /// The dictionary.
    pub dict: Dictionary,
    /// Row codes. Written during the single-threaded load, read-only during
    /// query execution.
    pub rows: RwLock<Vec<u32>>,
}

impl Column {
    /// Creates an empty column over a fresh index from `factory`.
    pub fn new(name: &str, factory: &IndexFactory<'_>) -> Column {
        Column {
            name: name.to_string(),
            dict: Dictionary::new(factory(name)),
            rows: RwLock::new(Vec::new()),
        }
    }

    /// Appends a value (load phase).
    pub fn append(&self, value: u64) {
        let code = self.dict.encode(value);
        self.rows.write().push(code);
    }

    /// Reads and decodes row `row`.
    pub fn get(&self, row: usize) -> u64 {
        let code = self.rows.read()[row];
        self.dict.decode(code)
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.read().len()
    }

    /// True if no rows were loaded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A table: named columns of equal length plus a primary-key dictionary
/// whose codes double as row ids (the PK column is loaded densely, so code
/// assignment order equals row order).
pub struct Table {
    /// Table name.
    pub name: String,
    /// The primary-key column (its dictionary maps key → row id).
    pub pk: Column,
    /// Remaining columns.
    pub columns: Vec<Column>,
}

impl Table {
    /// Creates a table with the given non-PK column names.
    pub fn new(
        name: &str,
        pk_name: &str,
        column_names: &[&str],
        factory: &IndexFactory<'_>,
    ) -> Table {
        Table {
            name: name.to_string(),
            pk: Column::new(pk_name, factory),
            columns: column_names
                .iter()
                .map(|c| Column::new(c, factory))
                .collect(),
        }
    }

    /// Inserts a row: the PK value followed by one value per column.
    pub fn insert_row(&self, pk: u64, values: &[u64]) {
        assert_eq!(values.len(), self.columns.len(), "row arity mismatch");
        self.pk.append(pk);
        for (col, &v) in self.columns.iter().zip(values) {
            col.append(v);
        }
    }

    /// Point lookup by primary key: one tree find, then decode.
    pub fn find_row(&self, pk: u64) -> Option<usize> {
        // PK codes are row ids by dense construction.
        self.pk.dict.lookup(pk).map(|c| c as usize)
    }

    /// Reads the full row (every column decoded) — GET_SUBSCRIBER_DATA's
    /// access pattern.
    pub fn read_row(&self, row: usize) -> Vec<u64> {
        self.columns.iter().map(|c| c.get(row)).collect()
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.pk.len()
    }

    /// True if the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fptree_baselines::HashIndex;

    fn factory(_name: &str) -> Arc<dyn U64Index> {
        // Hash cannot scan; use a tree for dictionary tests.
        Arc::new(fptree_baselines::adapters::Locked::new(
            fptree_baselines::StxTree::<u64>::new(),
        ))
    }

    #[test]
    fn dictionary_encode_lookup_decode() {
        let d = Dictionary::new(factory("c"));
        let a = d.encode(100);
        let b = d.encode(200);
        assert_eq!(d.encode(100), a, "re-encoding must reuse the code");
        assert_ne!(a, b);
        assert_eq!(d.lookup(100), Some(a));
        assert_eq!(d.lookup(300), None);
        assert_eq!(d.decode(a), 100);
        assert_eq!(d.decode(b), 200);
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn decode_rebuild_matches() {
        let d = Dictionary::new(factory("c"));
        for v in [5u64, 3, 9, 7, 3, 5] {
            d.encode(v);
        }
        let before: Vec<u64> = (0..d.len() as u32).map(|c| d.decode(c)).collect();
        d.rebuild_decode();
        let after: Vec<u64> = (0..d.len() as u32).map(|c| d.decode(c)).collect();
        assert_eq!(before, after);
    }

    #[test]
    #[should_panic(expected = "out of range or seen twice")]
    fn decode_rebuild_rejects_a_code_seen_twice() {
        let d = Dictionary::new(factory("c"));
        d.encode(5);
        d.index.insert(6, 0);
        d.rebuild_decode();
    }

    #[test]
    fn table_roundtrip() {
        let f: Box<IndexFactory<'_>> = Box::new(factory);
        let t = Table::new("sub", "s_id", &["a", "b"], &f);
        for i in 0..100u64 {
            t.insert_row(i + 1, &[i * 10, i * 20]);
        }
        assert_eq!(t.len(), 100);
        let row = t.find_row(50).unwrap();
        assert_eq!(t.read_row(row), vec![490, 980]);
        assert!(t.find_row(0).is_none());
        let _ = HashIndex::<u64>::new(1); // keep the import meaningful
    }
}
