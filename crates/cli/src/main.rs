//! `fptree` — an interactive shell over a file-backed persistent FPTree.
//!
//! The simulated SCM pool round-trips through an ordinary file, so a tree
//! built in one invocation is recovered (inner nodes rebuilt from the SCM
//! leaf list) by the next — a hands-on demonstration of Selective
//! Persistence.
//!
//! ```text
//! $ fptree mydata.pool
//! fptree> put 42 hello
//! fptree> get 42
//! 42 -> "hello"
//! fptree> stats
//! ...
//! fptree> quit        # saves the pool to mydata.pool
//! ```
//!
//! `--shards N` runs a keyspace-sharded tree over N pools instead: the
//! shard-file family `mydata.pool.shard0..N-1` round-trips through
//! [`fptree_pmem::save_pools`] / [`fptree_pmem::load_pools`], and reopening
//! recovers every shard (the flag is only needed at creation — the on-disk
//! family determines the count thereafter).
//!
//! `serve <addr> [secs]` exposes the open pool over TCP with the memcached
//! text protocol, on the kvcache event-loop server — point any memcached
//! client (or `fptree_kvcache::Client`) at it.

use std::io::{BufRead, Write};
use std::sync::{Arc, Mutex};

/// `println!` that tolerates a closed stdout (`fptree ... | head` must not
/// panic with a broken-pipe backtrace).
macro_rules! say {
    ($($arg:tt)*) => {{
        use std::io::Write as _;
        if writeln!(std::io::stdout(), $($arg)*).is_err() {
            std::process::exit(0); // reader hung up; nothing left to say
        }
    }};
}

use fptree_core::metrics::{Metrics, Snapshot};
use fptree_core::{FPTreeVar, ShardedTreeVar, TreeConfig};
use fptree_kvcache::cache::ScanItem;
use fptree_kvcache::{Cache, ServerBuilder};
use fptree_pmem::{
    create_pools, load_pools, save_pools, shard_file_count, PmemPool, PoolOptions, ROOT_SLOT,
};

const POOL_SIZE: usize = 256 << 20;

/// The shell's backing index: one tree over one pool, or a keyspace-sharded
/// tree over a family of pools. Every command works on either; the only
/// per-variant concern is that value blobs must live in the pool of the
/// shard that owns the key (handles are pool offsets).
#[allow(clippy::large_enum_variant)] // exactly one instance lives per process
enum CliTree {
    Single {
        pool: Arc<PmemPool>,
        tree: FPTreeVar,
    },
    Sharded {
        pools: Vec<Arc<PmemPool>>,
        tree: ShardedTreeVar,
    },
}

impl CliTree {
    fn len(&self) -> usize {
        match self {
            CliTree::Single { tree, .. } => tree.len(),
            CliTree::Sharded { tree, .. } => tree.len(),
        }
    }

    fn insert(&mut self, key: &[u8], handle: u64) -> bool {
        let key = key.to_vec();
        match self {
            CliTree::Single { tree, .. } => tree.insert(&key, handle),
            CliTree::Sharded { tree, .. } => tree.insert(&key, handle),
        }
    }

    fn update(&mut self, key: &[u8], handle: u64) -> bool {
        let key = key.to_vec();
        match self {
            CliTree::Single { tree, .. } => tree.update(&key, handle),
            CliTree::Sharded { tree, .. } => tree.update(&key, handle),
        }
    }

    fn get(&self, key: &[u8]) -> Option<u64> {
        let key = key.to_vec();
        match self {
            CliTree::Single { tree, .. } => tree.get(&key),
            CliTree::Sharded { tree, .. } => tree.get(&key),
        }
    }

    fn remove(&mut self, key: &[u8]) -> bool {
        let key = key.to_vec();
        match self {
            CliTree::Single { tree, .. } => tree.remove(&key),
            CliTree::Sharded { tree, .. } => tree.remove(&key),
        }
    }

    /// Sorted iteration from `start` (or the head); sharded scans merge the
    /// per-shard leaf chains back into one ordered stream.
    fn scan_from(&self, start: Option<Vec<u8>>) -> Box<dyn Iterator<Item = (Vec<u8>, u64)> + '_> {
        match (self, start) {
            (CliTree::Single { tree, .. }, Some(s)) => Box::new(tree.scan(s..)),
            (CliTree::Single { tree, .. }, None) => Box::new(tree.iter()),
            (CliTree::Sharded { tree, .. }, Some(s)) => Box::new(tree.scan(s..)),
            (CliTree::Sharded { tree, .. }, None) => Box::new(tree.scan(..)),
        }
    }

    fn scan_between(
        &self,
        lo: Vec<u8>,
        hi: Vec<u8>,
    ) -> Box<dyn Iterator<Item = (Vec<u8>, u64)> + '_> {
        match self {
            CliTree::Single { tree, .. } => Box::new(tree.scan(lo..=hi)),
            CliTree::Sharded { tree, .. } => Box::new(tree.scan(lo..=hi)),
        }
    }

    /// Pool that owns `key`'s shard — where its value blob must live.
    fn pool_for(&self, key: &[u8]) -> &Arc<PmemPool> {
        match self {
            CliTree::Single { pool, .. } => pool,
            CliTree::Sharded { pools, tree } => &pools[tree.shard_for(&key.to_vec())],
        }
    }

    fn check_consistency(&self) -> Result<(), String> {
        match self {
            CliTree::Single { tree, .. } => tree.check_consistency(),
            CliTree::Sharded { tree, .. } => tree.check_consistency(),
        }
    }

    fn save(&self, path: &str) -> std::io::Result<()> {
        match self {
            CliTree::Single { pool, .. } => pool.save(path),
            CliTree::Sharded { pools, .. } => save_pools(pools, path),
        }
    }

    fn print_stats(&self, path: &str) {
        match self {
            CliTree::Single { pool, tree } => {
                let mu = tree.memory_usage();
                let alloc = pool.alloc_stats().expect("heap walk");
                say!("keys:         {}", tree.len());
                say!("height:       {}", tree.height());
                say!("leaves:       {}", mu.leaf_count);
                say!(
                    "inner nodes:  {} ({} B DRAM)",
                    mu.inner_count,
                    mu.dram_bytes
                );
                say!(
                    "SCM in use:   {} B across {} blocks",
                    alloc.live_bytes,
                    alloc.live_blocks
                );
                say!("pool file:    {path} ({} B capacity)", pool.capacity());
            }
            CliTree::Sharded { pools, tree } => {
                say!("keys:         {}", tree.len());
                say!("shards:       {}", tree.shard_count());
                for (i, ((live, usable), shard)) in
                    tree.fill_levels().iter().zip(tree.shards()).enumerate()
                {
                    say!(
                        "shard {i}:      {} keys, {live} / {usable} B SCM in use",
                        shard.len()
                    );
                }
                say!(
                    "pool files:   {path}.shard0..{} ({} B capacity each)",
                    pools.len() - 1,
                    pools[0].capacity()
                );
            }
        }
    }
}

fn main() {
    let mut shards: usize = 1;
    let mut positional = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--shards" {
            let n = args
                .next()
                .and_then(|s| s.parse().ok())
                .unwrap_or_else(|| fail("--shards takes a positive count"));
            if n == 0 {
                fail("--shards takes a positive count");
            }
            shards = n;
        } else {
            positional.push(a);
        }
    }
    let mut positional = positional.into_iter();
    let Some(path) = positional.next() else {
        eprintln!("usage: fptree [--shards N] <pool-file> [command...]");
        eprintln!("       with no command, starts an interactive shell");
        std::process::exit(2);
    };

    // Shared with `serve`-spawned server threads; every command path locks.
    let tree = Arc::new(Mutex::new(open_or_create(&path, shards)));

    // One-shot mode: `fptree pool.img get foo`.
    let rest: Vec<String> = positional.collect();
    if !rest.is_empty() {
        let line = rest.join(" ");
        if execute(&tree, &line, &path) {
            lock_tree(&tree)
                .save(&path)
                .unwrap_or_else(|e| fail(&format!("saving pool: {e}")));
        }
        return;
    }

    say!(
        "fptree shell — {} keys loaded from {path}",
        lock_tree(&tree).len()
    );
    say!("commands: put <k> <v> | get <k> | del <k> | update <k> <v> | range <lo> [hi]");
    say!("          scan [key] [n] | serve <addr> [secs] | stats | check | save | help | quit");
    let stdin = std::io::stdin();
    loop {
        print!("fptree> ");
        std::io::stdout().flush().ok();
        let mut line = String::new();
        if stdin.lock().read_line(&mut line).unwrap_or(0) == 0 {
            break; // EOF
        }
        let line = line.trim();
        if line == "quit" || line == "exit" {
            break;
        }
        if !line.is_empty() {
            execute(&tree, line, &path);
        }
    }
    let tree = lock_tree(&tree);
    tree.save(&path)
        .unwrap_or_else(|e| fail(&format!("saving pool: {e}")));
    say!("saved {} keys to {path}", tree.len());
}

fn lock_tree(tree: &Arc<Mutex<CliTree>>) -> std::sync::MutexGuard<'_, CliTree> {
    // A server thread that panicked mid-command poisons the lock; the data
    // itself is crash-consistent by design, so keep going.
    tree.lock().unwrap_or_else(|e| e.into_inner())
}

fn open_or_create(path: &str, shards: usize) -> CliTree {
    // The on-disk layout is authoritative: a shard-file family reopens
    // sharded (whatever its count), a plain pool file reopens single.
    let family = shard_file_count(path);
    if family > 0 {
        if shards > 1 && shards != family {
            eprintln!("note: {path} holds {family} shard files; ignoring --shards {shards}");
        }
        let pools = load_pools(path, PoolOptions::direct(0))
            .unwrap_or_else(|e| fail(&format!("loading {path} shard files: {e}")));
        let t = std::time::Instant::now();
        let tree = ShardedTreeVar::open(pools.clone(), ROOT_SLOT)
            .unwrap_or_else(|e| fail(&format!("recovering {path}: {e}")));
        eprintln!(
            "recovered {} keys across {family} shards in {:?}",
            tree.len(),
            t.elapsed()
        );
        return CliTree::Sharded { pools, tree };
    }
    if std::path::Path::new(path).exists() {
        if shards > 1 {
            eprintln!("note: {path} is a single pool file; ignoring --shards {shards}");
        }
        let pool = Arc::new(
            PmemPool::load(path, PoolOptions::direct(0))
                .unwrap_or_else(|e| fail(&format!("loading {path}: {e}"))),
        );
        let t = std::time::Instant::now();
        let tree = FPTreeVar::open(Arc::clone(&pool), ROOT_SLOT)
            .unwrap_or_else(|e| fail(&format!("recovering {path}: {e}")));
        eprintln!("recovered {} keys in {:?}", tree.len(), t.elapsed());
        CliTree::Single { pool, tree }
    } else if shards > 1 {
        let pools = create_pools(shards, PoolOptions::direct(POOL_SIZE / shards))
            .unwrap_or_else(|e| fail(&format!("creating shard pools: {e}")));
        let cfg = TreeConfig::fptree_concurrent_var();
        let tree = ShardedTreeVar::try_create(pools.clone(), cfg, ROOT_SLOT)
            .unwrap_or_else(|e| fail(&format!("creating tree: {e}")));
        CliTree::Sharded { pools, tree }
    } else {
        let pool = Arc::new(
            PmemPool::create(PoolOptions::direct(POOL_SIZE))
                .unwrap_or_else(|e| fail(&format!("creating pool: {e}"))),
        );
        let tree = FPTreeVar::try_create(Arc::clone(&pool), TreeConfig::fptree_var(), ROOT_SLOT)
            .unwrap_or_else(|e| fail(&format!("creating tree: {e}")));
        CliTree::Single { pool, tree }
    }
}

/// Runs one command; returns true if it may have mutated the tree.
fn execute(tree_arc: &Arc<Mutex<CliTree>>, line: &str, path: &str) -> bool {
    let mut parts = line.split_whitespace();
    let verb = parts.next().unwrap_or("");
    let arg1 = parts.next();
    let rest: Vec<&str> = parts.collect();
    let mut tree = lock_tree(tree_arc);
    match (verb, arg1) {
        ("put", Some(k)) => {
            let value = rest.join(" ");
            let handle = store_value(tree.pool_for(k.as_bytes()), value.as_bytes());
            if tree.insert(k.as_bytes(), handle) {
                say!("inserted");
            } else {
                tree.update(k.as_bytes(), handle);
                say!("updated");
            }
            true
        }
        ("update", Some(k)) => {
            let value = rest.join(" ");
            let handle = store_value(tree.pool_for(k.as_bytes()), value.as_bytes());
            if tree.update(k.as_bytes(), handle) {
                say!("updated");
            } else {
                say!("(key not found)");
            }
            true
        }
        ("get", Some(k)) => {
            match tree.get(k.as_bytes()) {
                Some(handle) => say!(
                    "{k} -> {:?}",
                    load_value(tree.pool_for(k.as_bytes()), handle)
                ),
                None => say!("(not found)"),
            }
            false
        }
        ("del", Some(k)) => {
            say!(
                "{}",
                if tree.remove(k.as_bytes()) {
                    "deleted"
                } else {
                    "(not found)"
                }
            );
            true
        }
        ("range", Some(lo)) => {
            // Stream through the scan iterator: entries print as the leaf
            // chain is walked, without collecting the range up front.
            let lo = lo.as_bytes().to_vec();
            let iter = match rest.first() {
                Some(hi) => tree.scan_between(lo, hi.as_bytes().to_vec()),
                None => tree.scan_from(Some(lo)),
            };
            for (k, handle) in iter {
                say!(
                    "{} -> {:?}",
                    String::from_utf8_lossy(&k),
                    load_value(tree.pool_for(&k), handle)
                );
            }
            false
        }
        ("scan", n) => {
            // `scan <key> [n]` starts at a key; `scan [n]` from the head.
            let (start, limit) = match (n, rest.first()) {
                (Some(s), lim) if s.parse::<usize>().is_err() => (
                    Some(s.as_bytes().to_vec()),
                    lim.and_then(|s| s.parse().ok()).unwrap_or(20),
                ),
                (lim, _) => (None, lim.and_then(|s| s.parse().ok()).unwrap_or(20)),
            };
            for (k, handle) in tree.scan_from(start).take(limit) {
                say!(
                    "{} -> {:?}",
                    String::from_utf8_lossy(&k),
                    load_value(tree.pool_for(&k), handle)
                );
            }
            false
        }
        ("serve", Some(addr)) => {
            // `serve 127.0.0.1:11211 [secs]`: expose the open pool over
            // TCP (memcached text protocol) on the kvcache server. With no duration, runs until Enter.
            let secs: Option<u64> = rest.first().and_then(|s| s.parse().ok());
            let addr = addr.to_string();
            drop(tree); // the server's reactor locks the tree per command
            let bridge = Arc::new(ServeBridge {
                tree: Arc::clone(tree_arc),
                metrics: Arc::new(Metrics::new()),
            });
            match ServerBuilder::new(&addr)
                .worker_threads(1) // commands serialize on the tree lock anyway
                .serve(bridge as Arc<dyn Cache>)
            {
                Ok(server) => {
                    say!("serving memcached protocol on {}", server.addr);
                    say!("(flags are not persisted: GETs always report flags 0)");
                    match secs {
                        Some(s) => std::thread::sleep(std::time::Duration::from_secs(s)),
                        None => {
                            say!("press Enter to stop");
                            let mut line = String::new();
                            let _ = std::io::stdin().lock().read_line(&mut line);
                        }
                    }
                    server.shutdown();
                    say!("server stopped ({} keys now)", lock_tree(tree_arc).len());
                }
                Err(e) => say!("serve failed: {e}"),
            }
            true
        }
        ("stats", _) => {
            tree.print_stats(path);
            false
        }
        ("check", _) => {
            match tree.check_consistency() {
                Ok(()) => say!("consistent"),
                Err(e) => say!("INCONSISTENT: {e}"),
            }
            false
        }
        ("save", _) => {
            match tree.save(path) {
                Ok(()) => say!("saved to {path}"),
                Err(e) => say!("save failed: {e}"),
            }
            false
        }
        ("help", _) => {
            say!("put <k> <v...>    insert or overwrite");
            say!("get <k>           point lookup");
            say!("update <k> <v...> update existing");
            say!("del <k>           delete");
            say!("range <lo> [hi]   sorted scan of [lo, hi] ([lo, end) if no hi)");
            say!("scan [key] [n]    n entries in key order, from key or the head");
            say!("serve <a> [secs]  serve the pool over TCP (memcached protocol) on addr <a>");
            say!("stats             tree + pool statistics");
            say!("check             structural consistency check");
            say!("save              write the pool file(s) now");
            say!("quit              save and exit");
            false
        }
        _ => {
            say!("unknown command (try `help`)");
            false
        }
    }
}

/// Bridges the TCP server onto the shell's tree: the memcached `Cache`
/// trait over a mutex-protected [`CliTree`]. Values round-trip through the
/// pool as the shell's length-prefixed blobs (so `put` and a wire `set`
/// store identically); memcached flags are not persisted — GETs report 0.
struct ServeBridge {
    tree: Arc<Mutex<CliTree>>,
    metrics: Arc<Metrics>,
}

impl ServeBridge {
    fn get_locked(tree: &CliTree, key: &[u8]) -> Option<(u32, Vec<u8>)> {
        tree.get(key)
            .map(|handle| (0, load_bytes(tree.pool_for(key), handle)))
    }
}

impl Cache for ServeBridge {
    fn metrics(&self) -> &Arc<Metrics> {
        &self.metrics
    }

    fn stats_snapshot(&self) -> Snapshot {
        let mut snap = self.metrics.snapshot();
        snap.push("curr_items", lock_tree(&self.tree).len() as u64);
        snap
    }

    fn set(&self, key: &[u8], _flags: u32, data: Vec<u8>) {
        let mut tree = lock_tree(&self.tree);
        let handle = store_value(tree.pool_for(key), &data);
        if !tree.insert(key, handle) {
            tree.update(key, handle);
        }
    }

    fn set_batch(&self, items: Vec<(Vec<u8>, u32, Vec<u8>)>) {
        let mut tree = lock_tree(&self.tree);
        for (key, _, data) in items {
            let handle = store_value(tree.pool_for(&key), &data);
            if !tree.insert(&key, handle) {
                tree.update(&key, handle);
            }
        }
    }

    fn get(&self, key: &[u8]) -> Option<(u32, Vec<u8>)> {
        Self::get_locked(&lock_tree(&self.tree), key)
    }

    fn get_many(&self, keys: &[Vec<u8>]) -> Vec<Option<(u32, Vec<u8>)>> {
        let tree = lock_tree(&self.tree);
        keys.iter().map(|k| Self::get_locked(&tree, k)).collect()
    }

    fn delete(&self, key: &[u8]) -> bool {
        lock_tree(&self.tree).remove(key)
    }

    fn scan(&self, start: &[u8], count: usize) -> Option<Vec<ScanItem>> {
        let tree = lock_tree(&self.tree);
        Some(
            tree.scan_from(Some(start.to_vec()))
                .take(count)
                .map(|(k, handle)| {
                    let data = load_bytes(tree.pool_for(&k), handle);
                    (k, 0, data)
                })
                .collect(),
        )
    }

    fn len(&self) -> usize {
        lock_tree(&self.tree).len()
    }
}

/// Values are stored as length-prefixed blobs in the pool, referenced from
/// the tree by offset. Old blobs are not reclaimed by the CLI (values are
/// tiny); a production embedder would use owner slots as the trees do.
fn store_value(pool: &Arc<PmemPool>, value: &[u8]) -> u64 {
    // Owner slot in the pool header's application scratch area (the header
    // is 4 KiB; allocator metadata ends well before 2048).
    let scratch = 2048;
    let off = pool
        .allocate(scratch, 8 + value.len())
        .unwrap_or_else(|e| fail(&format!("pool full: {e}")));
    pool.write_word(off, value.len() as u64);
    pool.write_bytes(off + 8, value);
    pool.persist(off, 8 + value.len());
    off
}

fn load_bytes(pool: &Arc<PmemPool>, off: u64) -> Vec<u8> {
    let len = pool.read_word(off) as usize;
    let mut buf = vec![0u8; len.min(1 << 16)];
    pool.read_bytes(off + 8, &mut buf);
    buf
}

fn load_value(pool: &Arc<PmemPool>, off: u64) -> String {
    String::from_utf8_lossy(&load_bytes(pool, off)).into_owned()
}

fn fail(msg: &str) -> ! {
    eprintln!("fptree: {msg}");
    std::process::exit(1);
}
