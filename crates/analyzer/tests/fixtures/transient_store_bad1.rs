//! Seeded violation: a buffer-digest word stored through the persistence API.

pub fn digest_store(pool: &Pool, layout: &Layout, off: u64, tag: u64) {
    let _op = pool.begin_checked_op("fixture");
    pool.write_word(off + layout.off_digest as u64, tag);
}
