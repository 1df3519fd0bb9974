//! Clean: sub-batches commit in order on the caller's thread, the one
//! fan-out helper carries a reasoned allow, and tests may start threads.

pub fn set_batch(shards: &[Shard], parts: Vec<Batch>) {
    for (shard, part) in shards.iter().zip(parts) {
        shard.set_batch(part);
    }
}

pub fn par_map(items: &[Item], f: impl Fn(&Item) + Sync) {
    // analyzer:allow(thread-start) — the one fan-out helper.
    std::thread::scope(|s| {
        for item in items {
            s.spawn(|| f(item));
        }
    });
}

#[cfg(test)]
mod tests {
    #[test]
    fn concurrent_callers() {
        std::thread::spawn(|| ()).join().unwrap();
    }
}
