//! Clean: transient leaf words are written through pool atomics only.

pub fn digest_store(pool: &Pool, layout: &Layout, off: u64, tag: u64) {
    pool.atomic_u64(off + layout.off_digest as u64)
        .store(tag, Ordering::Release);
    pool.atomic_u64(off + layout.off_digest as u64 + 8)
        .store(0, Ordering::Release);
}
