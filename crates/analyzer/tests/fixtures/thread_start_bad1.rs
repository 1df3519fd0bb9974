//! Seeded violation: a request path fans a batch out over scoped threads.

pub fn set_batch(shards: &[Shard], parts: Vec<Batch>) {
    std::thread::scope(|s| {
        for (shard, part) in shards.iter().zip(parts) {
            s.spawn(move || shard.set_batch(part));
        }
    });
}
