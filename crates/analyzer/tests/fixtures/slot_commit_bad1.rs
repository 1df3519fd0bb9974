//! Seeded violation: a staged slot published by the bare bitmap commit,
//! which does not persist it first.

pub fn stage_then_bare_commit(leaf: &Leaf, pool: &Pool, slot: usize, value: u64) {
    let _op = pool.begin_checked_op("fixture");
    leaf.set_value(slot, value);
    leaf.commit_bitmap(leaf.bitmap() | (1 << slot));
}
