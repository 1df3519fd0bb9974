//! `fptree` — an interactive shell over a file-backed persistent FPTree.
//!
//! The simulated SCM pool round-trips through an ordinary file, so a tree
//! built in one invocation is recovered (inner nodes rebuilt from the SCM
//! leaf list) by the next — a hands-on demonstration of Selective
//! Persistence. Keys are byte strings; values are the tree's own 64-bit
//! words, as in the paper.
//!
//! ```text
//! $ fptree mydata.pool
//! fptree> put 42 7
//! fptree> get 42
//! 42 -> 7
//! fptree> stats
//! ...
//! fptree> quit        # saves the pool to mydata.pool
//! ```
//!
//! `--shards N` creates a keyspace-sharded tree over N pools. The pools
//! round-trip through [`fptree_pmem::save_pools`] /
//! [`fptree_pmem::load_pools`]: one pool is the plain file `mydata.pool`,
//! more are the family `mydata.pool.shard0..N-1`. The flag is only read at
//! creation — the files on disk determine the count thereafter.

use std::io::{BufRead, Write};

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

use fptree_core::{ShardedTreeVar, TreeConfig};
use fptree_pmem::{create_pools, load_pools, save_pools, PoolOptions, ROOT_SLOT};

const POOL_SIZE: usize = 256 << 20;

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
    let tree = open_or_create(&path, shards);
    let save = |tree: &ShardedTreeVar| {
        save_pools(&tree.pools(), &path).unwrap_or_else(|e| fail(&format!("saving pool: {e}")))
    };

    // One-shot mode: `fptree pool.img get foo`. A rejected command exits 2
    // with the tree untouched, so a script can tell it from a done one.
    let rest: Vec<String> = positional.collect();
    if !rest.is_empty() {
        match execute(&tree, &rest.join(" "), &path) {
            Outcome::Wrote => save(&tree),
            Outcome::Read => {}
            Outcome::Rejected => std::process::exit(2),
            Outcome::Failed => std::process::exit(1),
        }
        return;
    }

    say!("fptree shell — {} keys loaded from {path}", tree.len());
    say!("commands: put <k> <u64> | get <k> | del <k> | update <k> <u64> | range <lo> [hi]");
    say!("          scan [key] [n] | stats | check | save | help | quit");
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
    save(&tree);
    say!("saved {} keys to {path}", tree.len());
}

/// Recovers the pool(s) under `path`, or creates `shards` fresh ones if
/// there are none. The files on disk are authoritative at reopen.
fn open_or_create(path: &str, shards: usize) -> ShardedTreeVar {
    match load_pools(path, PoolOptions::direct(0)) {
        Ok(pools) => {
            let n = pools.len();
            if shards > 1 && shards != n {
                eprintln!("note: {path} holds {n} pool file(s); ignoring --shards {shards}");
            }
            let t = std::time::Instant::now();
            let tree = ShardedTreeVar::open(pools, ROOT_SLOT)
                .unwrap_or_else(|e| fail(&format!("recovering {path}: {e}")));
            eprintln!(
                "recovered {} keys across {n} shard(s) in {:?}",
                tree.len(),
                t.elapsed()
            );
            tree
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            let pools = create_pools(shards, PoolOptions::direct(POOL_SIZE / shards))
                .unwrap_or_else(|e| fail(&format!("creating pools: {e}")));
            ShardedTreeVar::try_create(pools, TreeConfig::fptree_var(), ROOT_SLOT)
                .unwrap_or_else(|e| fail(&format!("creating tree: {e}")))
        }
        Err(e) => fail(&format!("loading {path}: {e}")),
    }
}

/// What one command did.
enum Outcome {
    /// Answered without touching the tree (a miss is an answer too).
    Read,
    /// May have mutated the tree: one-shot mode saves.
    Wrote,
    /// Refused: an unknown verb, a missing argument, a key too long for
    /// the tree or a value that does not parse. The tree is untouched.
    Rejected,
    /// Ran, and reported damage it found in a pool (one-shot mode exits 1).
    Failed,
}

/// Runs one command.
fn execute(tree: &ShardedTreeVar, line: &str, path: &str) -> Outcome {
    let mut parts = line.split_whitespace();
    let verb = parts.next().unwrap_or("");
    let arg1 = parts.next();
    let rest: Vec<&str> = parts.collect();
    let print = |(k, v): (Vec<u8>, u64)| say!("{} -> {v}", String::from_utf8_lossy(&k));
    match (verb, arg1.map(|k| k.as_bytes().to_vec())) {
        ("put", Some(k)) => {
            let Some(value) = parse_write(&k, &rest) else {
                return Outcome::Rejected;
            };
            if tree.insert(&k, value) {
                say!("inserted");
            } else {
                tree.update(&k, value);
                say!("updated");
            }
            Outcome::Wrote
        }
        ("update", Some(k)) => {
            let Some(value) = parse_write(&k, &rest) else {
                return Outcome::Rejected;
            };
            if tree.update(&k, value) {
                say!("updated");
            } else {
                say!("(key not found)");
            }
            Outcome::Wrote
        }
        ("get", Some(k)) => {
            match tree.get(&k) {
                Some(v) => print((k, v)),
                None => say!("(not found)"),
            }
            Outcome::Read
        }
        ("del", Some(k)) => {
            if tree.remove(&k) {
                say!("deleted");
            } else {
                say!("(not found)");
            }
            Outcome::Wrote
        }
        ("range", Some(lo)) => {
            // Stream through the scan iterator: entries print as the leaf
            // chains are merged, without collecting the range up front.
            match rest.first() {
                Some(hi) => tree.scan(lo..=hi.as_bytes().to_vec()).for_each(print),
                None => tree.scan(lo..).for_each(print),
            }
            Outcome::Read
        }
        ("scan", _) => {
            // `scan <key> [n]` starts at a key; `scan [n]` from the head.
            let (start, limit) = match (arg1, rest.first()) {
                (Some(s), lim) if s.parse::<usize>().is_err() => (Some(s), lim.copied()),
                (lim, _) => (None, lim),
            };
            let limit = limit.and_then(|s| s.parse().ok()).unwrap_or(20);
            match start {
                Some(s) => tree
                    .scan(s.as_bytes().to_vec()..)
                    .take(limit)
                    .for_each(print),
                None => tree.scan(..).take(limit).for_each(print),
            }
            Outcome::Read
        }
        ("stats", _) => {
            if print_stats(tree, path) {
                Outcome::Read
            } else {
                Outcome::Failed
            }
        }
        ("check", _) => {
            let consistent = tree.check_consistency();
            match &consistent {
                Ok(()) => say!("consistent"),
                Err(e) => say!("INCONSISTENT: {e}"),
            }
            let leak_free = tree.leak_audit();
            match &leak_free {
                Ok(()) => say!("leak-free"),
                Err(e) => say!("LEAKED: {e}"),
            }
            if consistent.is_ok() && leak_free.is_ok() {
                Outcome::Read
            } else {
                Outcome::Failed
            }
        }
        ("save", _) => {
            match save_pools(&tree.pools(), path) {
                Ok(()) => say!("saved to {path}"),
                Err(e) => say!("save failed: {e}"),
            }
            Outcome::Read
        }
        ("help", _) => {
            say!("put <k> <u64>     insert or overwrite");
            say!("get <k>           point lookup");
            say!("update <k> <u64>  update existing");
            say!("del <k>           delete");
            say!("range <lo> [hi]   sorted scan of [lo, hi] ([lo, end) if no hi)");
            say!("scan [key] [n]    n entries in key order, from key or the head");
            say!("stats             per-shard tree + pool statistics");
            say!("check             structural consistency check and leak audit");
            say!("save              write the pool file(s) now");
            say!("quit              save and exit");
            Outcome::Read
        }
        _ => {
            say!("unknown command (try `help`)");
            Outcome::Rejected
        }
    }
}

/// The value of `put` / `update`, after their key: the key must fit the
/// tree's byte-string limit ([`fptree_core::MAX_KEY_BYTES`]), the value be
/// exactly one unsigned 64-bit word.
fn parse_write(key: &[u8], rest: &[&str]) -> Option<u64> {
    if let Err(e) = fptree_core::api::check_key(key) {
        say!("error: {e}");
        return None;
    }
    let value = match rest {
        [v] => v.parse().ok(),
        _ => None,
    };
    if value.is_none() {
        say!(
            "error: expected one unsigned 64-bit integer, got `{}`",
            rest.join(" ")
        );
    }
    value
}

/// Prints the tree's and each shard's figures; false if a shard's heap
/// walk failed (its error is printed in the shard's place).
fn print_stats(tree: &ShardedTreeVar, path: &str) -> bool {
    say!("keys:         {}", tree.len());
    let mut intact = true;
    for (i, shard) in tree.shards().iter().enumerate() {
        let mu = shard.memory_usage();
        let alloc = match shard.pool().alloc_stats() {
            Ok(alloc) => alloc,
            Err(e) => {
                say!("shard {i}:      error: heap walk failed: {e:?}");
                intact = false;
                continue;
            }
        };
        say!(
            "shard {i}:      {} keys, height {}, {} leaves, {} inner nodes ({} B DRAM), \
             SCM in use: {} B across {} blocks",
            shard.len(),
            shard.height(),
            mu.leaf_count,
            mu.inner_count,
            mu.dram_bytes,
            alloc.live_bytes,
            alloc.live_blocks
        );
    }
    say!(
        "pool files:   {} under {path} ({} B capacity each)",
        tree.shard_count(),
        tree.shards()[0].pool().capacity()
    );
    intact
}

fn fail(msg: &str) -> ! {
    eprintln!("fptree: {msg}");
    std::process::exit(1);
}
