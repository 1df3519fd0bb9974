//! The layer ladder: the same kinds of operation timed at successively
//! lower boundaries — pool primitive, leaf, single tree, concurrent tree,
//! sharded tree, in-process cache, protocol, server — plus the exported
//! counts that explain the timings. A layer's self time is its rung minus
//! the rung below on the same op stream.
//!
//! Every rung is measured from outside: public functions are timed and
//! exported counters are read; nothing here reaches into a crate.

use std::hint::black_box;
use std::sync::{Arc, Barrier};
use std::time::Instant;

use fptree_core::index::BytesIndex;
use fptree_core::keys::{FixedKey, KeyKind};
use fptree_core::layout::LeafLayout;
use fptree_core::leaf::Leaf;
use fptree_core::{ConcurrentFPTree, ConcurrentFPTreeVar, FPTree, ShardedTree, TreeConfig};
use fptree_htm::{Abort, SpecLock};
use fptree_kvcache::protocol::{execute_into, parse, Command};
use fptree_kvcache::{Cache, Item, ItemStore, KvCache, ShardedCache};
use fptree_pmem::{
    create_pools, LatencyProfile, PmemPool, PoolOptions, StatsSnapshot, ROOT_SLOT, USER_BASE,
};

use crate::common::{direct_pool, reopen_image, Checks, Config, Metric};
use crate::gen::{
    key_of, mixed_stream, render_get, render_set, stream_index_bound, sub_seed, tatp_stream,
    value_of, wire_key, wire_stream, wire_value, SplitMix64, Txn, Window, WireStream, Zipfian,
    STRIPE, WINDOW,
};
use crate::stats::{latency, median, run_rounds, spread, time_batches, ROUNDS};
use crate::trace::Tracer;
use crate::workloads::tree_common::{pool_bytes, preload_single, Client, Stripe};
use crate::workloads::{tatp_read_scm, tree_mixed_dram, wire_kv};

/// Keys in each of the fixed-key trees (well beyond the last-level cache).
const TREE_KEYS: usize = 1_000_000;
/// Items in each of the in-process caches and the ladder's server.
const CACHE_KEYS: usize = 100_000;
const TATP_SUBSCRIBERS: usize = 20_000;
/// A self time may be this far below zero, as a share of the lower rung,
/// before the ladder calls it a contradiction (on top of the rungs' own
/// printed spreads).
const SELF_TIME_SLACK: f64 = 0.15;

struct Ladder<'a> {
    cfg: &'a Config,
    tracer: &'a mut Tracer,
    out: Vec<Metric>,
    checks: Checks,
    failures: Vec<String>,
}

impl Ladder<'_> {
    fn ops(&self, n: usize) -> usize {
        self.cfg.scaled(n).max(ROUNDS)
    }

    fn rng(&self, stream: u64) -> SplitMix64 {
        SplitMix64::new(sub_seed(self.cfg.seed, 1000 + stream))
    }

    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.out.push(Metric::new(name, value, unit));
    }

    /// A one-thread rung: `ops` calls of `f`, median ns per call.
    fn time(&mut self, name: &str, ops: usize, f: impl FnMut(usize)) {
        self.tracer.begin(name);
        let (ns, s) = time_batches(ops, f);
        self.tracer.end();
        self.out
            .push(Metric::new(name, ns, "ns").spread(s).samples(ops));
    }

    /// The same from `T` threads at once: mean over threads of each
    /// thread's median ns per call.
    fn time_mt(&mut self, name: &str, ops: usize, f: impl Fn(usize, usize) + Sync) {
        let threads = self.cfg.threads;
        let barrier = Barrier::new(threads);
        self.tracer.begin(name);
        let per_thread: Vec<(f64, f64)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let (barrier, f) = (&barrier, &f);
                    scope.spawn(move || {
                        barrier.wait();
                        time_batches(ops, |i| f(t, i))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("ladder thread panicked"))
                .collect()
        });
        self.tracer.end();
        let ns = per_thread.iter().map(|p| p.0).sum::<f64>() / threads as f64;
        let s = per_thread.iter().map(|p| p.1).fold(0.0, f64::max);
        self.out
            .push(Metric::new(name, ns, "ns").spread(s).samples(ops * threads));
    }

    /// `time`, plus the pool's exported counts per op over the same calls.
    fn time_counted(
        &mut self,
        name: &str,
        pool: &PmemPool,
        ops: usize,
        f: impl FnMut(usize),
    ) -> StatsSnapshot {
        let before = pool.stats().snapshot();
        self.time(name, ops, f);
        let after = pool.stats().snapshot();
        StatsSnapshot {
            persist_calls: after.persist_calls - before.persist_calls,
            flushed_lines: after.flushed_lines - before.flushed_lines,
            read_lines: after.read_lines - before.read_lines,
            ..StatsSnapshot::default()
        }
    }

    fn value(&self, name: &str) -> (f64, f64) {
        let m = self
            .out
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("ladder rung {name} was not measured"));
        (m.value, m.spread.unwrap_or(0.0))
    }

    /// Prints each layer's self time along `chain` (lowest rung first) and
    /// records a failure where one is negative beyond spread and slack.
    fn self_times(&mut self, what: &str, chain: &[&str]) {
        println!("  ladder {what}:");
        for pair in chain.windows(2) {
            let ((below, sb), (above, sa)) = (self.value(pair[0]), self.value(pair[1]));
            let own = above - below;
            let tolerance = below * SELF_TIME_SLACK + 3.0 * (sb * below + sa * above);
            println!(
                "    {:<40} self {:>10.1} ns  (= {:.1} - {:.1} {})",
                pair[1], own, above, below, pair[0]
            );
            if own < -tolerance {
                self.failures.push(format!(
                    "{} ({above:.1} ns) is below {} ({below:.1} ns) by more than spread and slack allow",
                    pair[1], pair[0]
                ));
            }
        }
    }
}

pub fn run(cfg: &Config, tracer: &mut Tracer) -> (Vec<Metric>, Vec<String>) {
    let mut l = Ladder {
        cfg,
        tracer,
        out: Vec::new(),
        checks: Checks::default(),
        failures: Vec::new(),
    };
    l.tracer.begin("ladder");
    pmem(&mut l);
    htm(&mut l);
    leaf(&mut l);
    let gets = single(&mut l);
    concurrent(&mut l, &gets);
    shard(&mut l, &gets);
    kvcache(&mut l);
    tatp(&mut l);
    l.tracer.end();

    l.self_times(
        "u64 get",
        &[
            "pmem.touch_read_ns",
            "core.leaf.find_slot_hit_ns",
            "core.single.get_ns",
        ],
    );
    l.self_times("sharding", &["core.concurrent.get_ns", "core.shard.get_ns"]);
    l.self_times(
        "wire get",
        &[
            "core.concurrent.var_get_ns",
            "kvcache.cache.get_ns",
            "kvcache.shard.get_ns",
            "kvcache.protocol.execute_get_ns",
        ],
    );
    if l.checks.failed > 0 {
        l.failures.push(format!(
            "{} of {} ladder answers were wrong, e.g. {:?}",
            l.checks.failed, l.checks.attempted, l.checks.examples
        ));
    }
    (l.out, l.failures)
}

// -------------------------------------------------------------------- pmem

fn pmem(l: &mut Ladder) {
    let size = 64usize << 20;
    let pool = direct_pool(size, 90);
    let mut rng = l.rng(0);
    let offs: Vec<u64> = (0..1 << 16)
        .map(|_| (USER_BASE + rng.below(size as u64 - USER_BASE - 128)) & !63)
        .collect();
    let off = |i: usize| offs[i & (offs.len() - 1)];
    // First touches fault pages in; that is the kernel's cost, not the pool's.
    for &o in &offs {
        pool.write_word(o, 0);
    }
    let n = l.ops(2_000_000);
    l.time("pmem.read_word_ns", n, |i| {
        black_box(pool.read_word(off(i)));
    });
    l.time("pmem.read_at64_ns", n, |i| {
        black_box(pool.read_at::<[u8; 64]>(off(i)));
    });
    l.time("pmem.write_word_ns", n, |i| {
        pool.write_word(off(i), i as u64)
    });
    l.time("pmem.touch_read_ns", n, |i| pool.touch_read(off(i), 64));
    l.time("pmem.persist_line_ns", n, |i| pool.persist(off(i), 64));
    l.time("pmem.fence_ns", n, |_| pool.fence());
    l.time_mt("pmem.touch_read_mt_ns", n, |_, i| {
        pool.touch_read(off(i), 64)
    });

    // Leaf-sized allocate + deallocate through one owner slot.
    let leaf_bytes = LeafLayout::new(&TreeConfig::fptree_concurrent(), FixedKey::SLOT_SIZE).size;
    let dir = pool.allocate(ROOT_SLOT, 64).expect("owner slot block");
    l.time("pmem.alloc_free_ns", l.ops(200_000), |_| {
        pool.allocate(dir, leaf_bytes)
            .expect("ladder pool has room");
        pool.deallocate(dir);
    });

    // The busy-wait calibration: one flushed line at 650 ns should cost
    // the injected 560 ns plus the software path measured above.
    pool.set_latency(LatencyProfile::from_total(650));
    l.time("pmem.persist_line_650_ns", l.ops(100_000), |i| {
        pool.persist(off(i), 64)
    });
}

// --------------------------------------------------------------------- htm

fn htm(l: &mut Ladder) {
    let lock = SpecLock::new();
    let word = std::sync::atomic::AtomicU64::new(7);
    let read = |_: usize| {
        black_box(lock.execute(|tx| {
            let v = word.load(std::sync::atomic::Ordering::Relaxed);
            if tx.validate() {
                Ok(v)
            } else {
                Err(Abort)
            }
        }));
    };
    let n = l.ops(2_000_000);
    l.time("htm.execute_read_ns", n, read);
    l.time_mt("htm.execute_read_mt_ns", n, |_, i| read(i));
    l.time("htm.write_lock_ns", n, |_| drop(lock.write_lock()));
}

// --------------------------------------------------------------- core.leaf

fn leaf(l: &mut Ladder) {
    let pool = direct_pool(1 << 20, 90);
    let cfg = TreeConfig::fptree_concurrent();
    let layout = LeafLayout::new(&cfg, FixedKey::SLOT_SIZE);
    let m = layout.m;
    let new_leaf = |filled: usize| {
        let dir = pool.allocate(ROOT_SLOT, 64).expect("owner slot block");
        let off = pool.allocate(dir, layout.size).expect("leaf");
        pool.write_bytes(off, &vec![0u8; layout.size]);
        let leaf = Leaf::new(&pool, &layout, off);
        for slot in 0..filled {
            let k = key_of(slot as u64);
            FixedKey::write_slot(&pool, leaf.key_off(slot), &k);
            leaf.set_value(slot, value_of(slot as u64, 0));
            leaf.set_fingerprint(slot, FixedKey::fingerprint(&k));
        }
        let bitmap = if filled == 64 {
            u64::MAX
        } else {
            (1u64 << filled) - 1
        };
        leaf.commit_bitmap(bitmap);
        (off, bitmap)
    };

    // A full leaf: probes that hit, and probes that scan every fingerprint.
    let (off, _) = new_leaf(m);
    let full = Leaf::new(&pool, &layout, off);
    let mut rng = l.rng(1);
    let hits: Vec<u64> = (0..4096).map(|_| key_of(rng.below(m as u64))).collect();
    let misses: Vec<u64> = (0..4096)
        .map(|_| key_of((1 << 40) + rng.below(1 << 30)))
        .collect();
    let n = l.ops(2_000_000);
    l.time("core.leaf.find_slot_hit_ns", n, |i| {
        let found = full.find_slot::<FixedKey>(&hits[i & 4095]);
        debug_assert!(found.is_some());
        black_box(found);
    });
    l.time("core.leaf.find_slot_miss_ns", n, |i| {
        black_box(full.find_slot::<FixedKey>(&misses[i & 4095]));
    });

    // A half-full leaf: fill the append buffer, fold it, put the bitmap
    // back. Appends and folds are timed apart, cycle by cycle.
    let (off, half) = new_leaf(m / 2);
    let leaf = Leaf::new(&pool, &layout, off);
    let w = layout.wbuf_entries;
    let cycles = l.ops(40_000) / ROUNDS;
    let (mut append, mut fold) = (Vec::new(), Vec::new());
    l.tracer.begin("core.leaf.wbuf");
    let mut fresh = 1u64 << 41;
    for _ in 0..ROUNDS {
        let (mut a, mut f) = (0u128, 0u128);
        for _ in 0..cycles {
            let t0 = Instant::now();
            for idx in 0..w {
                fresh += 1;
                leaf.wbuf_append::<FixedKey>(idx, &key_of(fresh), fresh);
            }
            let t1 = Instant::now();
            leaf.wbuf_fold::<FixedKey>();
            let t2 = Instant::now();
            a += (t1 - t0).as_nanos();
            f += (t2 - t1).as_nanos();
            l.checks.check(leaf.count() == m / 2 + w, || {
                format!("fold left {} slots, expected {}", leaf.count(), m / 2 + w)
            });
            leaf.commit_bitmap(half);
        }
        append.push(a as f64 / (cycles * w) as f64);
        fold.push(f as f64 / cycles as f64);
    }
    l.tracer.end();
    for (name, v, n) in [
        ("core.leaf.wbuf_append_ns", &append, cycles * w * ROUNDS),
        ("core.leaf.wbuf_fold_ns", &fold, cycles * ROUNDS),
    ] {
        l.out.push(
            Metric::new(name, median(v), "ns")
                .spread(spread(v))
                .samples(n),
        );
    }
}

// ------------------------------------------------------------- core.single

/// The ids every fixed-key `get` rung looks up, so the rungs share one op
/// stream: uniform over stripe 0's preloaded indices.
struct GetStream {
    ids: Vec<u64>,
    keys: usize,
}

fn per_op(delta: u64, ops: usize) -> f64 {
    delta as f64 / ops as f64
}

fn single(l: &mut Ladder) -> GetStream {
    let keys = l.cfg.scaled(TREE_KEYS);
    let n = l.ops(200_000);
    let pool = direct_pool(pool_bytes(keys + 2 * n), 90);
    let mut tree = FPTree::create(Arc::clone(&pool), TreeConfig::fptree(), ROOT_SLOT);
    l.tracer.begin("core.single.build");
    preload_single(&mut tree, keys as u32, &mut l.checks);
    l.tracer.end();
    let mut rng = l.rng(2);
    let gets = GetStream {
        ids: (0..n).map(|_| rng.below(keys as u64)).collect(),
        keys,
    };

    let mut checks = Checks::default();
    let d = l.time_counted("core.single.get_ns", &pool, n, |i| {
        let id = gets.ids[i];
        checks.check(tree.get(&key_of(id)) == Some(value_of(id, 0)), || {
            format!("core.single get of id {id}")
        });
    });
    l.put(
        "core.single.scm_lines_per_get",
        per_op(d.read_lines, n),
        "lines",
    );

    let splits_before = tree.metrics_snapshot().get("leaf_splits").unwrap_or(0);
    let fresh = |i: usize| (keys + i) as u64;
    let d = l.time_counted("core.single.insert_ns", &pool, n, |i| {
        checks.check(
            tree.insert(&key_of(fresh(i)), value_of(fresh(i), 0)),
            || format!("core.single insert of id {}", fresh(i)),
        );
    });
    let splits = tree.metrics_snapshot().get("leaf_splits").unwrap_or(0) - splits_before;
    report_counts(l, "insert", d, n);
    l.put(
        "core.single.leaf_splits_per_kinsert",
        per_op(splits, n) * 1e3,
        "count",
    );
    let d = l.time_counted("core.single.update_ns", &pool, n, |i| {
        let id = gets.ids[i];
        checks.check(tree.update(&key_of(id), value_of(id, 0)), || {
            format!("core.single update of id {id}")
        });
    });
    report_counts(l, "update", d, n);
    let d = l.time_counted("core.single.remove_ns", &pool, n, |i| {
        checks.check(tree.remove(&key_of(fresh(i))), || {
            format!("core.single remove of id {}", fresh(i))
        });
    });
    report_counts(l, "remove", d, n);

    let scans = l.ops(5_000);
    l.time("core.single.scan100_ns", scans, |i| {
        let got = tree.scan(key_of(gets.ids[i])..).take(100).count();
        black_box(got);
    });
    let batches: Vec<Vec<(u64, u64)>> = (0..n / 64)
        .map(|b| {
            (0..64)
                .map(|j| fresh(n + b * 64 + j))
                .map(|id| (key_of(id), value_of(id, 0)))
                .collect()
        })
        .collect();
    let t = Instant::now();
    l.tracer.begin("core.single.insert_batch64");
    let inserted: usize = batches.iter().map(|b| tree.insert_batch(b)).sum();
    l.tracer.end();
    checks.check(inserted == batches.len() * 64, || {
        format!(
            "insert_batch took {inserted} of {} keys",
            batches.len() * 64
        )
    });
    l.out.push(
        Metric::new(
            "core.single.insert_batch64_ns_per_key",
            t.elapsed().as_nanos() as f64 / inserted.max(1) as f64,
            "ns",
        )
        .samples(inserted),
    );

    // Restart, for the phases recovery reports about itself.
    let image = pool.clean_image();
    l.tracer.begin("core.single.recovery");
    let reopened = FPTree::open(reopen_image(image, pool.latency()), ROOT_SLOT);
    l.tracer.end();
    let stats = reopened.as_ref().ok().and_then(|t| t.recovery_stats());
    checks.check(
        reopened.as_ref().is_ok_and(|t| t.len() == tree.len()) && stats.is_some(),
        || "core.single reopen lost keys or reported no recovery phases".into(),
    );
    let stats = stats.unwrap_or_default();
    for (phase, us) in [
        ("replay", stats.replay_us),
        ("harvest", stats.harvest_us),
        ("audit", stats.audit_us),
        ("build", stats.build_us),
    ] {
        l.put(&format!("core.single.recovery_{phase}_us"), us as f64, "us");
    }
    l.checks.merge(checks);
    gets
}

fn report_counts(l: &mut Ladder, op: &str, d: StatsSnapshot, ops: usize) {
    l.put(
        &format!("core.single.persists_per_{op}"),
        per_op(d.persist_calls, ops),
        "count",
    );
    l.put(
        &format!("core.single.flushed_lines_per_{op}"),
        per_op(d.flushed_lines, ops),
        "lines",
    );
    l.put(
        &format!("core.single.scm_lines_per_{op}"),
        per_op(d.read_lines, ops),
        "lines",
    );
}

// --------------------------------------------------------- core.concurrent

fn concurrent(l: &mut Ladder, gets: &GetStream) {
    let threads = l.cfg.threads;
    let n = gets.ids.len();
    // Stripe 0 holds the keys the shared `get` stream asks for; the other
    // stripes bring the tree to the same total size.
    let per_stripe = (gets.keys / threads) as u32;
    let id_of = |i: usize| {
        let id = gets.ids[i];
        (id % threads as u64) * STRIPE + id / threads as u64 % per_stripe as u64
    };
    let mixed_ops = l.ops(300_000);
    let streams: Vec<Vec<u32>> = (0..threads)
        .map(|t| {
            mixed_stream(
                sub_seed(l.cfg.seed, 2000 + t as u64),
                per_stripe,
                mixed_ops,
                tree_mixed_dram::MIX,
            )
        })
        .collect();
    let bounds: Vec<usize> = streams
        .iter()
        .map(|s| stream_index_bound(per_stripe, s))
        .collect();
    let extra: usize = bounds.iter().sum::<usize>() - per_stripe as usize * threads;
    l.tracer.begin("core.concurrent.build");
    let tree_mixed_dram::Built { pool, tree } =
        tree_mixed_dram::build(threads, per_stripe, extra + n, &mut l.checks);
    l.tracer.end();

    let mut checks = Checks::default();
    l.time("core.concurrent.get_ns", n, |i| {
        let id = id_of(i);
        checks.check(tree.get(&key_of(id)) == Some(value_of(id, 0)), || {
            format!("core.concurrent get of id {id}")
        });
    });
    l.time_mt("core.concurrent.get_mt_ns", n, |_, i| {
        black_box(tree.get(&key_of(id_of(i))));
    });
    // Fresh ids live in a stripe no client of the mixed replay owns.
    let fresh = |i: usize| threads as u64 * STRIPE + i as u64;
    l.time("core.concurrent.insert_ns", n, |i| {
        checks.check(
            tree.insert(&key_of(fresh(i)), value_of(fresh(i), 0)),
            || format!("core.concurrent insert of id {}", fresh(i)),
        );
    });
    l.time("core.concurrent.update_ns", n, |i| {
        let id = id_of(i);
        checks.check(tree.update(&key_of(id), value_of(id, 0)), || {
            format!("core.concurrent update of id {id}")
        });
    });
    l.time("core.concurrent.remove_ns", n, |i| {
        checks.check(tree.remove(&key_of(fresh(i))), || {
            format!("core.concurrent remove of id {}", fresh(i))
        });
    });
    l.time("core.concurrent.scan100_ns", l.ops(5_000), |i| {
        black_box(tree.scan(key_of(id_of(i))..).take(100).count());
    });
    l.checks.merge(checks);

    // The tree_mixed_dram loop for a fixed op count per client: what the
    // concurrency machinery did, per op.
    let mut clients: Vec<Client<&ConcurrentFPTree>> = streams
        .into_iter()
        .zip(bounds)
        .enumerate()
        .map(|(t, (s, bound))| Client::new(&tree, Stripe::new(t, per_stripe, bound), s))
        .collect();
    let before = tree_mixed_dram::counters_of(&pool, &tree);
    l.tracer.begin("core.concurrent.mixed");
    let mut mixed_checks = Checks::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|c| {
                scope.spawn(move || {
                    let mut checks = Checks::default();
                    while c.next_op(&mut checks).is_some() {}
                    checks
                })
            })
            .collect();
        for h in handles {
            mixed_checks.merge(h.join().expect("mixed replay thread panicked"));
        }
    });
    l.tracer.end();
    l.checks.merge(mixed_checks);
    let d = tree_mixed_dram::counters_of(&pool, &tree).since(&before);
    let ops = (mixed_ops * threads) as f64;
    let writes: usize = clients.iter().map(Client::writes_done).sum();
    l.put(
        "htm.abort_share",
        d.htm_aborts as f64 / d.htm_attempts.max(1) as f64,
        "share",
    );
    l.put(
        "htm.fallback_share",
        d.htm_fallbacks as f64 / d.htm_attempts.max(1) as f64,
        "share",
    );
    l.put(
        "core.concurrent.seqlock_conflicts_per_kop",
        d.seqlock_conflicts as f64 * 1e3 / ops,
        "count",
    );
    l.put(
        "core.concurrent.leaf_lock_spins_per_kop",
        d.leaf_lock_spins as f64 * 1e3 / ops,
        "count",
    );
    l.put(
        "core.concurrent.persists_per_write",
        d.persists as f64 / writes.max(1) as f64,
        "count",
    );
}

// -------------------------------------------------------------- core.shard

fn shard(l: &mut Ladder, gets: &GetStream) {
    let n = gets.ids.len();
    let opts = PoolOptions::direct(pool_bytes((gets.keys + n) / 2 + n));
    let tree = ShardedTree::create(
        create_pools(2, opts).expect("shard pools"),
        TreeConfig::fptree_concurrent(),
        ROOT_SLOT,
    );
    let threads = l.cfg.threads;
    l.tracer.begin("core.shard.build");
    std::thread::scope(|scope| {
        for t in 0..threads {
            let tree = &tree;
            scope.spawn(move || {
                for id in (t as u64..gets.keys as u64).step_by(threads) {
                    tree.insert(&key_of(id), value_of(id, 0));
                }
            });
        }
    });
    l.tracer.end();
    let mut checks = Checks::default();
    checks.check(tree.len() == gets.keys, || {
        format!(
            "core.shard build holds {} of {} keys",
            tree.len(),
            gets.keys
        )
    });
    l.time("core.shard.get_ns", n, |i| {
        let id = gets.ids[i];
        checks.check(tree.get(&key_of(id)) == Some(value_of(id, 0)), || {
            format!("core.shard get of id {id}")
        });
    });
    l.time("core.shard.insert_ns", n, |i| {
        let id = (gets.keys + i) as u64;
        checks.check(tree.insert(&key_of(id), value_of(id, 0)), || {
            format!("core.shard insert of id {id}")
        });
    });
    l.time("core.shard.scan100_ns", l.ops(5_000), |i| {
        black_box(tree.scan(key_of(gets.ids[i])..).take(100).count());
    });
    l.checks.merge(checks);
}

// ----------------------------------------------------------------- kvcache

fn var_tree(keys: usize) -> Arc<ConcurrentFPTreeVar> {
    Arc::new(ConcurrentFPTreeVar::create(
        direct_pool((32 << 20) + keys * 512, 90),
        TreeConfig::fptree_concurrent_var(),
        ROOT_SLOT,
    ))
}

fn kvcache(l: &mut Ladder) {
    let keys = l.cfg.scaled(CACHE_KEYS);
    let n = l.ops(100_000);
    let zipf = Zipfian::new(keys as u64, wire_kv::THETA);
    let mut rng = l.rng(3);
    // One id stream for every `get`/`set` rung from the var-key tree up to
    // `execute_into`: the wire workload's key popularity.
    let ids: Vec<u64> = (0..n).map(|_| zipf.id(&mut rng)).collect();
    let wkeys: Vec<Vec<u8>> = (0..(keys + 2 * n) as u64).map(wire_key).collect();
    let mut checks = Checks::default();

    // The 16-byte var-key tree kvcache sits on, by itself.
    let tree = var_tree(keys + n);
    for (id, key) in wkeys.iter().enumerate().take(keys) {
        tree.insert(key, id as u64 + 1);
    }
    l.time("core.concurrent.var_get_ns", n, |i| {
        let id = ids[i] as usize;
        checks.check(tree.get(&wkeys[id]) == Some(id as u64 + 1), || {
            format!("var get of item {id}")
        });
    });
    l.time("core.concurrent.var_insert_ns", n, |i| {
        checks.check(tree.insert(&wkeys[keys + i], 1), || {
            format!("var insert of item {}", keys + i)
        });
    });
    drop(tree);

    let store = ItemStore::new(64);
    l.time("kvcache.store.put_get_remove_ns", l.ops(500_000), |i| {
        let h = store.put(Item {
            flags: 0,
            data: wire_value(i as u64 & 1023),
        });
        black_box(store.get(h));
        black_box(store.remove(h));
    });

    // KvCache over one var-key tree.
    let cache = KvCache::new(var_tree(keys + 2 * n) as Arc<dyn BytesIndex>);
    for (id, key) in wkeys.iter().enumerate().take(keys) {
        cache.set(key, 0, wire_value(id as u64));
    }
    l.time("kvcache.cache.get_ns", n, |i| {
        let got = cache.get(&wkeys[ids[i] as usize]);
        checks.check(got.is_some_and(|g| g.1 == wire_value(ids[i])), || {
            format!("cache get of item {}", ids[i])
        });
    });
    l.time("kvcache.cache.set_ns", n, |i| {
        cache.set(&wkeys[ids[i] as usize], 0, wire_value(ids[i]));
    });
    l.time("kvcache.cache.set_fresh_ns", n, |i| {
        cache.set(&wkeys[keys + i], 0, wire_value((keys + i) as u64));
    });
    let batches = n / 16;
    let t = Instant::now();
    l.tracer.begin("kvcache.cache.set_batch16");
    for b in 0..batches {
        cache.set_batch(
            (0..16)
                .map(|j| keys + n + b * 16 + j)
                .map(|id| (wkeys[id].clone(), 0, wire_value(id as u64)))
                .collect(),
        );
    }
    l.tracer.end();
    l.out.push(
        Metric::new(
            "kvcache.cache.set_batch16_ns_per_key",
            t.elapsed().as_nanos() as f64 / (batches * 16).max(1) as f64,
            "ns",
        )
        .samples(batches * 16),
    );
    checks.check(cache.len() == keys + n + batches * 16, || {
        format!("cache holds {} items after the fresh sets", cache.len())
    });

    // Readers beside writers on the same hot keys: no key is ever deleted
    // and a key's value never changes, so every miss here is spurious and
    // every other value is stale (see the README's finding).
    let threads = l.cfg.threads;
    let before = cache.metrics().snapshot();
    l.tracer.begin("kvcache.cache.mixed");
    let (misses, stale): (u64, u64) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let (cache, ids, wkeys) = (&cache, &ids, &wkeys);
                let mut rng = l.rng(10 + t as u64);
                scope.spawn(move || {
                    let (mut misses, mut stale) = (0u64, 0u64);
                    for &id in ids.iter() {
                        if rng.below(100) < wire_kv::SET_PCT {
                            cache.set(&wkeys[id as usize], 0, wire_value(id));
                            continue;
                        }
                        match cache.get(&wkeys[id as usize]) {
                            None => misses += 1,
                            Some((_, data)) => stale += (data != wire_value(id)) as u64,
                        }
                    }
                    (misses, stale)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("cache replay thread panicked"))
            .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1))
    });
    l.tracer.end();
    let after = cache.metrics().snapshot();
    let delta = |name: &str| after.get(name).unwrap_or(0) - before.get(name).unwrap_or(0);
    let (hit, miss) = (delta("cache_hits"), delta("cache_misses"));
    l.put(
        "kvcache.cache.hit_share",
        hit as f64 / (hit + miss).max(1) as f64,
        "share",
    );
    l.put(
        "kvcache.cache.spurious_miss_per_mreq",
        misses as f64 * 1e6 / (n * threads) as f64,
        "count",
    );
    l.put(
        "kvcache.cache.stale_value_per_mreq",
        stale as f64 * 1e6 / (n * threads) as f64,
        "count",
    );
    drop(cache);

    // ShardedCache over two var-key trees, then the protocol layer on it.
    let sharded = ShardedCache::new(
        (0..wire_kv::SHARDS)
            .map(|_| var_tree(keys) as Arc<dyn BytesIndex>)
            .collect(),
    );
    for (id, key) in wkeys.iter().enumerate().take(keys) {
        sharded.set(key, 0, wire_value(id as u64));
    }
    l.time("kvcache.shard.get_ns", n, |i| {
        let got = sharded.get(&wkeys[ids[i] as usize]);
        checks.check(got.is_some_and(|g| g.1 == wire_value(ids[i])), || {
            format!("sharded cache get of item {}", ids[i])
        });
    });
    l.time("kvcache.shard.set_ns", n, |i| {
        sharded.set(&wkeys[ids[i] as usize], 0, wire_value(ids[i]));
    });
    let requests = |render: fn(u64, &mut Vec<u8>)| -> Vec<Vec<u8>> {
        ids.iter()
            .map(|&id| {
                let mut req = Vec::new();
                render(id, &mut req);
                req
            })
            .collect()
    };
    let mut out = Vec::with_capacity(256);
    for (verb, render) in [
        ("get", render_get as fn(u64, &mut Vec<u8>)),
        ("set", render_set),
    ] {
        let reqs = requests(render);
        l.time(&format!("kvcache.protocol.parse_{verb}_ns"), n, |i| {
            black_box(parse(&reqs[i]).expect("rendered request parses"));
        });
        let cmds: Vec<Command> = reqs.iter().map(|r| parse(r).expect("parses").0).collect();
        l.time(&format!("kvcache.protocol.execute_{verb}_ns"), n, |i| {
            out.clear();
            execute_into(&sharded, &cmds[i], &mut out);
            black_box(&out);
        });
    }
    l.checks.merge(checks);
    server(l, keys, &zipf);
}

// ---------------------------------------------------------- kvcache.server

/// `sets` pipelined `set`s of fresh items `first..`, `WINDOW` per window.
fn fresh_set_stream(first: u64, windows: usize) -> WireStream {
    let mut s = WireStream::default();
    for w in 0..windows as u64 {
        let start = s.bytes.len();
        let mut ids = [0u32; WINDOW];
        for (i, slot) in ids.iter_mut().enumerate() {
            let id = first + w * WINDOW as u64 + i as u64;
            *slot = id as u32;
            render_set(id, &mut s.bytes);
        }
        s.windows.push(Window {
            start,
            end: s.bytes.len(),
            depth: WINDOW,
            ids,
            sets: u16::MAX,
        });
    }
    s
}

/// The wire `stats` the server rungs difference.
fn wire_stats(addr: std::net::SocketAddr) -> std::collections::HashMap<String, u64> {
    fptree_kvcache::Client::connect(addr)
        .and_then(|mut c| c.stats())
        .expect("stats from the ladder's own server")
        .into_iter()
        .filter_map(|(k, v)| Some((k, v.parse().ok()?)))
        .collect()
}

fn server(l: &mut Ladder, keys: usize, zipf: &Zipfian) {
    let threads = l.cfg.threads;
    let rig = wire_kv::Rig::build(keys, &mut l.checks);
    let hits = wire_kv::HitTable::new(keys);
    let addr = rig.server.addr;
    let stat = |s: &std::collections::HashMap<String, u64>, k: &str| *s.get(k).unwrap_or(&0);
    let send = |client: &mut wire_kv::Client, windows: usize| {
        for _ in 0..windows {
            client.window(0, &mut 0);
        }
        client.finish()
    };

    // A pipelined load of fresh keys: do consecutive sets reach the index
    // through its batched write path?
    let load_windows = l.ops(20_000) / WINDOW;
    let mut loader =
        wire_kv::Client::connect(addr, fresh_set_stream(keys as u64, load_windows), &hits);
    let before = wire_stats(addr);
    l.tracer.begin("kvcache.server.load");
    let log = send(&mut loader, load_windows);
    l.tracer.end();
    let after = wire_stats(addr);
    l.checks.merge(log.checks);
    l.put(
        "kvcache.server.set_batch_keys_share",
        (stat(&after, "insert_batch_keys") - stat(&before, "insert_batch_keys")) as f64
            / (stat(&after, "cmd_set") - stat(&before, "cmd_set")).max(1) as f64,
        "share",
    );
    drop(loader);

    // Depth 1: one connection, one request in flight. The same requests
    // then go through parse + execute_into in process; what is left of the
    // round trip is sockets, event loop and worker hand-off.
    let n1 = l.ops(20_000);
    let stream1 = wire_stream(
        sub_seed(l.cfg.seed, 3000),
        zipf,
        (0, 1),
        n1,
        1,
        wire_kv::SET_PCT,
    );
    let in_process = {
        let mut out = Vec::with_capacity(256);
        let t = Instant::now();
        for w in &stream1.windows {
            let (cmd, _) = parse(&stream1.bytes[w.start..w.end]).expect("rendered request parses");
            out.clear();
            execute_into(rig.cache.as_ref(), &cmd, &mut out);
            black_box(&out);
        }
        t.elapsed().as_nanos() as f64 / n1 as f64
    };
    let mut c1 = wire_kv::Client::connect(addr, stream1, &hits);
    l.tracer.begin("kvcache.server.depth1");
    let log = send(&mut c1, n1);
    l.tracer.end();
    drop(c1);
    let (rtt, _) = latency(&[&log.read, &log.write]);
    l.checks.merge(log.checks);
    l.out
        .push(Metric::new("kvcache.server.rtt_depth1_us", rtt.us, "us").samples(rtt.samples));
    let rtt = rtt.us;
    l.put(
        "kvcache.server.self_us_depth1",
        rtt - in_process / 1e3,
        "us",
    );

    // Depth 16 from T connections, each on its own key stripe: the wire_kv
    // loop, shorter.
    let windows = l.ops(1 << 13);
    let striped = Zipfian::new((keys / threads) as u64, wire_kv::THETA);
    let mut clients: Vec<wire_kv::Client> = (0..threads)
        .map(|t| {
            let s = wire_stream(
                sub_seed(l.cfg.seed, 3001 + t as u64),
                &striped,
                (t, threads),
                windows,
                WINDOW,
                wire_kv::SET_PCT,
            );
            wire_kv::Client::connect(addr, s, &hits)
        })
        .collect();
    let before = wire_stats(addr);
    l.tracer.begin("kvcache.server.depth16");
    let tp = run_rounds(
        &mut clients,
        ROUNDS,
        l.cfg.seconds * 0.1 / ROUNDS as f64,
        0,
        wire_kv::step,
        |_, _| (),
    );
    l.tracer.end();
    let after = wire_stats(addr);
    for c in &mut clients {
        l.checks.merge(c.finish().checks);
    }
    drop(clients);
    let d = |k: &str| (stat(&after, k) - stat(&before, k)) as f64;
    let reqs = (d("cmd_get") + d("cmd_set")).max(1.0);
    l.out.push(
        Metric::new("kvcache.server.ns_per_req_depth16", 1e9 / tp.median(), "ns")
            .spread(tp.spread())
            .samples(tp.ops as usize),
    );
    l.put(
        "kvcache.server.evloop_wakeups_per_kreq",
        d("evloop_wakeups") * 1e3 / reqs,
        "count",
    );
    l.put(
        "kvcache.server.bytes_written_per_req",
        d("bytes_written") / reqs,
        "B",
    );
    l.put(
        "kvcache.server.partial_writes",
        d("evloop_partial_writes"),
        "count",
    );
    l.put(
        "kvcache.server.queue_stalls",
        d("evloop_queue_stalls"),
        "count",
    );
    rig.server.shutdown();
}

// -------------------------------------------------------------------- tatp

fn tatp(l: &mut Ladder) {
    let subscribers = l.cfg.scaled(TATP_SUBSCRIBERS);
    let seed = sub_seed(l.cfg.seed, 4000);
    l.tracer.begin("tatp.build");
    let rig = tatp_read_scm::Rig::build(subscribers, seed, tatp_read_scm::SCM_NS);
    let oracle = tatp_read_scm::oracle_db(subscribers, seed);
    l.tracer.end();
    let n = l.ops(30_000);
    let stream = tatp_stream(sub_seed(l.cfg.seed, 4001), subscribers as u64, 8 * n);
    let mut checks = Checks::default();
    for (name, pick) in [
        (
            "tatp.get_subscriber_data_ns",
            (|t| matches!(t, Txn::GetSubscriberData { .. })) as fn(&Txn) -> bool,
        ),
        ("tatp.get_new_destination_ns", |t| {
            matches!(t, Txn::GetNewDestination { .. })
        }),
        ("tatp.get_access_data_ns", |t| {
            matches!(t, Txn::GetAccessData { .. })
        }),
    ] {
        let txns: Vec<(Txn, u64)> = stream
            .iter()
            .filter(|t| pick(t))
            .take(n)
            .map(|&t| (t, tatp_read_scm::execute(&oracle, t)))
            .collect();
        l.time(name, txns.len(), |i| {
            let (txn, want) = txns[i];
            checks.check(tatp_read_scm::execute(&rig.db, txn) == want, || {
                format!("ladder {txn:?}")
            });
        });
    }
    let before = rig.pool.stats().snapshot().read_lines;
    for &t in stream.iter().take(n) {
        black_box(tatp_read_scm::execute(&rig.db, t));
    }
    let lines = rig.pool.stats().snapshot().read_lines - before;
    l.put("tatp.scm_lines_per_txn", per_op(lines, n), "lines");
    l.tracer.begin("tatp.restart");
    let (open_ms, decode_ms) = rig.restart("ladder tatp restart", &mut checks);
    l.tracer.end();
    l.put("tatp.restart_open_ms", open_ms, "ms");
    l.put("tatp.restart_decode_ms", decode_ms, "ms");
    l.checks.merge(checks);
}
