//! Clean: slot stores committed through the leaf's one slot commit, which
//! persists them before its bitmap publish.

pub fn stage_and_commit(leaf: &Leaf, pool: &Pool, slot: usize, key: &u64, value: u64) {
    let _op = pool.begin_checked_op("fixture");
    K::write_slot(pool, leaf.key_off(slot), key);
    leaf.set_value(slot, value);
    leaf.set_fingerprint(slot, fp);
    leaf.commit_slots(1 << slot, 0);
}
