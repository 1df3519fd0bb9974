//! `wire_kv`: the paper's first integration and the roadmap's end-to-end.
//! Pipelined memcached-protocol clients over loopback TCP against the
//! event-loop server on a sharded cache of variable-size-key FPTrees.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fptree_core::index::BytesIndex;
use fptree_core::{bytes_shard, ConcurrentFPTreeVar, TreeConfig};
use fptree_kvcache::{Cache, ServerBuilder, ServerHandle, ShardedCache};
use fptree_pmem::{create_pools, PmemPool, PoolOptions, ROOT_SLOT};

use super::tree_common::{ms, Restarts};
use crate::common::{reopen_image, repeat_setup, Checks, Config, Counters, Metric, WorkloadResult};
use crate::gen::{
    expected_hit, fnv1a, sub_seed, wire_key, wire_stream, wire_value, WireStream, Zipfian, WINDOW,
};
use crate::section::{ClientLog, HasLog};
use crate::stats::RoundCtx;
use crate::trace::{OpSpan, Tracer, OP_SPANS_PER_ROUND};
use crate::workloads::timed_and_traced;

pub const NAME: &str = "wire_kv";
pub const WHY: &str = "everything on the path of a real request: socket I/O, event loop, worker hand-off, parser, set coalescing, item store and var-key tree, under zipfian 90/10 get/set at pipeline depth 16";

const KEYS: usize = 200_000;
pub const SHARDS: usize = 2;
pub const THETA: f64 = 0.99;
pub const SET_PCT: u64 = 10;
/// Pre-rendered windows per connection; the stream wraps (a key's value
/// never changes, so replaying a window is harmless).
const WINDOWS: usize = 1 << 16;
/// A reply that takes longer than this is an I/O failure, not a hang.
const IO_TIMEOUT: Duration = Duration::from_secs(20);

/// The server side: pools, trees, cache, listening server.
pub struct Rig {
    pub pools: Vec<Arc<PmemPool>>,
    pub trees: Vec<Arc<ConcurrentFPTreeVar>>,
    pub cache: Arc<ShardedCache>,
    pub server: ServerHandle,
}

impl Rig {
    /// Pools, trees, sharded cache, a `ServerBuilder` default server on a
    /// free loopback port, and `keys` items preloaded in process.
    pub fn build(keys: usize, checks: &mut Checks) -> Rig {
        let opts = PoolOptions::direct((32 << 20) + keys * 256 / SHARDS);
        let pools = create_pools(SHARDS, opts).expect("shard pools");
        let trees: Vec<_> = pools
            .iter()
            .map(|p| {
                Arc::new(ConcurrentFPTreeVar::create(
                    Arc::clone(p),
                    TreeConfig::fptree_concurrent_var(),
                    ROOT_SLOT,
                ))
            })
            .collect();
        let cache = Arc::new(ShardedCache::new(
            trees
                .iter()
                .map(|t| Arc::clone(t) as Arc<dyn BytesIndex>)
                .collect(),
        ));
        let server = ServerBuilder::new("127.0.0.1:0")
            .serve(Arc::clone(&cache) as Arc<dyn Cache>)
            .expect("bind a loopback port");
        // One loader per shard, each storing only its shard's keys in id
        // order: the trees come out the same on every run.
        std::thread::scope(|scope| {
            for (s, shard) in cache.shards().iter().enumerate() {
                scope.spawn(move || {
                    for id in 0..keys as u64 {
                        let key = wire_key(id);
                        if bytes_shard(&key, SHARDS) == s {
                            shard.set(&key, 0, wire_value(id));
                        }
                    }
                });
            }
        });
        checks.check(cache.len() == keys, || {
            format!("preload: cache holds {} of {keys} keys", cache.len())
        });
        Rig {
            pools,
            trees,
            cache,
            server,
        }
    }

    pub fn counters(&self) -> Counters {
        let mut c = Counters::default();
        for p in &self.pools {
            c.add_pool(p.stats().snapshot());
        }
        for t in &self.trees {
            c.add_htm(t.htm_stats());
            c.add_tree(&t.metrics().snapshot());
        }
        c
    }

    pub fn scm_bytes(&self) -> u64 {
        self.pools
            .iter()
            .map(|p| p.stats().snapshot().bump_high_water)
            .sum()
    }

    pub fn dram_bytes(&self) -> usize {
        self.trees.iter().map(|t| t.dram_bytes()).sum()
    }
}

/// Every `get` hit response, fixed width, indexed by item id.
pub struct HitTable {
    bytes: Vec<u8>,
    width: usize,
}

impl HitTable {
    pub fn new(keys: usize) -> HitTable {
        let width = expected_hit(0).len();
        let mut bytes = Vec::with_capacity(keys * width);
        for id in 0..keys as u64 {
            bytes.extend_from_slice(&expected_hit(id));
        }
        assert_eq!(bytes.len(), keys * width);
        HitTable { bytes, width }
    }

    pub fn get(&self, id: u32) -> &[u8] {
        &self.bytes[id as usize * self.width..(id as usize + 1) * self.width]
    }
}

/// What one response turned out to be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reply {
    /// Byte-exact `VALUE … END` or `STORED`.
    Ok,
    /// A bare `END` for a key that was never deleted: legal for a cache.
    Miss,
    /// Anything else.
    Bad,
}

/// Incremental response reader over any byte source: responses may arrive
/// split across reads at any byte.
pub struct ReplyReader<R> {
    src: R,
    buf: Vec<u8>,
    start: usize,
}

impl<R: Read> ReplyReader<R> {
    pub fn new(src: R) -> ReplyReader<R> {
        ReplyReader {
            src,
            buf: Vec::with_capacity(1 << 16),
            start: 0,
        }
    }

    /// Makes at least `n` unread bytes available.
    fn need(&mut self, n: usize) -> std::io::Result<()> {
        if self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        } else if self.start > (1 << 16) {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        while self.buf.len() - self.start < n {
            let old = self.buf.len();
            self.buf.resize(old + (1 << 14), 0);
            let got = self.src.read(&mut self.buf[old..]);
            self.buf.truncate(old + got.as_ref().map_or(0, |g| *g));
            if got? == 0 {
                return Err(std::io::ErrorKind::UnexpectedEof.into());
            }
        }
        Ok(())
    }

    fn take(&mut self, expected: &[u8]) -> std::io::Result<Reply> {
        self.need(expected.len())?;
        let got = &self.buf[self.start..self.start + expected.len()];
        let reply = if got == expected {
            Reply::Ok
        } else {
            Reply::Bad
        };
        self.start += expected.len();
        Ok(reply)
    }

    /// The bytes just consumed, for a failure report.
    fn last(&self, n: usize) -> String {
        String::from_utf8_lossy(&self.buf[self.start.saturating_sub(n)..self.start]).into_owned()
    }

    /// Reads the reply to a single-key `get` whose hit form is `hit`.
    pub fn get_reply(&mut self, hit: &[u8]) -> std::io::Result<Reply> {
        const END: &[u8] = b"END\r\n";
        self.need(END.len())?;
        if &self.buf[self.start..self.start + END.len()] == END {
            self.start += END.len();
            return Ok(Reply::Miss);
        }
        self.take(hit)
    }

    /// Reads the reply to a `set`.
    pub fn set_reply(&mut self) -> std::io::Result<Reply> {
        self.take(b"STORED\r\n")
    }
}

/// One connection: its socket, its pre-rendered windows, its cursor.
pub struct Client<'a> {
    sock: TcpStream,
    replies: ReplyReader<TcpStream>,
    stream: WireStream,
    hits: &'a HitTable,
    pos: usize,
    pub spurious_misses: u64,
    pub sets_acked: u64,
    dead: bool,
    log: ClientLog,
}

impl HasLog for Client<'_> {
    fn log_mut(&mut self) -> &mut ClientLog {
        &mut self.log
    }
}

impl<'a> Client<'a> {
    pub fn connect(addr: SocketAddr, stream: WireStream, hits: &'a HitTable) -> Client<'a> {
        let sock = TcpStream::connect(addr).expect("connect to the benchmark's own server");
        sock.set_nodelay(true).expect("TCP_NODELAY");
        sock.set_read_timeout(Some(IO_TIMEOUT))
            .expect("read timeout");
        sock.set_write_timeout(Some(IO_TIMEOUT))
            .expect("write timeout");
        let replies = ReplyReader::new(sock.try_clone().expect("clone socket"));
        Client {
            sock,
            replies,
            stream,
            hits,
            pos: 0,
            spurious_misses: 0,
            sets_acked: 0,
            dead: false,
            log: ClientLog::default(),
        }
    }

    /// Closes the current round and hands over everything logged so far.
    pub fn finish(&mut self) -> ClientLog {
        self.log.read.end_round();
        self.log.write.end_round();
        std::mem::take(&mut self.log)
    }

    /// Counts the `n` unanswered requests of a window as failed and
    /// retires the connection: after a malformed reply or an I/O error the
    /// framing is lost.
    fn fail_rest(&mut self, n: usize, what: String) {
        for _ in 0..n {
            self.log.checks.attempted += 1;
            self.log.checks.fail(what.clone());
        }
        self.dead = true;
    }

    /// Sends one window and reads its replies; each request's latency runs
    /// from the window's send to its own reply fully parsed. Returns the
    /// time the last reply was parsed.
    pub fn window(&mut self, round: usize, keep_spans: &mut usize) -> (usize, Instant) {
        let w = &self.stream.windows[self.pos];
        let (ids, sets, depth, range) = (w.ids, w.sets, w.depth, w.start..w.end);
        self.pos = (self.pos + 1) % self.stream.windows.len();
        let t0 = Instant::now();
        if let Err(e) = self.sock.write_all(&self.stream.bytes[range]) {
            self.fail_rest(depth, format!("i/o error on send: {e}"));
            return (depth, Instant::now());
        }
        let mut last = t0;
        for (i, &id) in ids.iter().enumerate().take(depth) {
            let is_set = sets & (1 << i) != 0;
            let reply = if is_set {
                self.replies.set_reply()
            } else {
                self.replies.get_reply(self.hits.get(id))
            };
            last = Instant::now();
            match reply {
                Ok(Reply::Ok) => self.sets_acked += is_set as u64,
                Ok(Reply::Miss) if !is_set => self.spurious_misses += 1,
                Ok(_) => {
                    let got = self.replies.last(self.hits.get(id).len());
                    self.fail_rest(depth - i, format!("item {id}: malformed reply {got:?}"));
                    return (depth, last);
                }
                Err(e) => {
                    self.fail_rest(depth - i, format!("i/o error: {e}"));
                    return (depth, last);
                }
            }
            self.log.checks.attempted += 1;
            let (samples, name) = if is_set {
                (&mut self.log.write, "set")
            } else {
                (&mut self.log.read, "get")
            };
            samples.push(last - t0);
            if *keep_spans > 0 {
                *keep_spans -= 1;
                self.log.op_spans.push(OpSpan {
                    name,
                    round,
                    start: t0,
                    end: last,
                });
            }
        }
        (depth, last)
    }
}

/// A round of full windows until the deadline.
pub fn step(c: &mut Client, ctx: RoundCtx) -> u64 {
    let mut keep_spans = if ctx.every == 1 {
        OP_SPANS_PER_ROUND
    } else {
        0
    };
    let mut n = 0;
    while !c.dead {
        let (depth, last) = c.window(ctx.round, &mut keep_spans);
        n += depth as u64;
        if last >= ctx.deadline {
            break;
        }
    }
    c.log.read.end_round();
    c.log.write.end_round();
    n
}

pub fn run(cfg: &Config, tracer: &mut Tracer) -> WorkloadResult {
    let mut res = WorkloadResult::new(NAME);
    let keys = cfg.scaled(KEYS);

    let (rig, setup) = repeat_setup(cfg, tracer, || Rig::build(keys, &mut res.checks));

    // Inputs, before any clock starts.
    let zipf = Zipfian::new((keys / cfg.threads) as u64, THETA);
    let hits = HitTable::new(keys);
    let windows = cfg.scaled(WINDOWS);
    let mut clients: Vec<Client> = (0..cfg.threads)
        .map(|t| {
            let stream = wire_stream(
                sub_seed(cfg.seed, t as u64),
                &zipf,
                (t, cfg.threads),
                windows,
                WINDOW,
                SET_PCT,
            );
            Client::connect(rig.server.addr, stream, &hits)
        })
        .collect();
    res.note(format!(
        "inputs: {keys} keys x 64-byte values, {windows} windows of {WINDOW} requests/connection pre-rendered (wrapping), hash {:016x}",
        clients
            .iter()
            .fold(0, |h, c| h ^ fnv1a(c.stream.bytes.iter().copied()))
    ));

    let before = rig.counters();
    let timed = timed_and_traced(cfg, &mut clients, step, || rig.counters(), tracer, &mut res);
    let flushed = rig.counters().since(&before).flushed_lines;
    let sets: u64 = clients.iter().map(|c| c.sets_acked).sum();
    let spurious: u64 = clients.iter().map(|c| c.spurious_misses).sum();
    let requests = timed.tp.ops;
    drop(clients);
    // With a key stripe per connection no `get` can race a `set` of its
    // key, so a miss of a never-deleted key would be news; it still is not a
    // failure (a cache may miss), and it is still counted.
    res.note(format!(
        "get misses of never-deleted keys (not failures): {spurious} in {requests} requests"
    ));

    // Audit: every key still maps to its one value.
    tracer.begin("audit");
    res.checks.check(rig.cache.len() == keys, || {
        format!("cache holds {} keys, oracle {keys}", rig.cache.len())
    });
    for id in 0..keys as u64 {
        let got = rig.cache.get(&wire_key(id));
        res.checks
            .check(got.as_ref().map(|g| &g.1) == Some(&wire_value(id)), || {
                format!("item {id} reads back {got:?}")
            });
    }
    let scm = rig.scm_bytes();
    let dram = rig.dram_bytes();
    tracer.end();

    // Restart of the persistent part, the var-key indexes. (The items
    // themselves are volatile: this is a cache.)
    let mut restarts = Restarts::default();
    for i in 0..cfg.recoveries() {
        let images: Vec<_> = rig.pools.iter().map(|p| p.clean_image()).collect();
        tracer.begin("restart");
        let t = Instant::now();
        let reopened: Vec<_> = images
            .into_iter()
            .zip(&rig.pools)
            .map(|(img, p)| ConcurrentFPTreeVar::open(reopen_image(img, p.latency()), ROOT_SLOT))
            .collect();
        let took = t.elapsed();
        tracer.end();
        let trees: Vec<ConcurrentFPTreeVar> = reopened
            .into_iter()
            .filter_map(|r| match r {
                Ok(t) => Some(t),
                Err(e) => {
                    res.checks.fail(format!("restart {i}: open failed: {e}"));
                    None
                }
            })
            .collect();
        if trees.len() != SHARDS {
            continue;
        }
        restarts.ms.push(ms(took));
        let len: usize = trees.iter().map(|t| t.len()).sum();
        res.checks.check(len == keys, || {
            format!("restart {i}: {len} keys reopened, oracle {keys}")
        });
        for id in 0..keys as u64 {
            let key = wire_key(id);
            let shard = bytes_shard(&key, SHARDS);
            let (old, new) = (rig.trees[shard].get(&key), trees[shard].get(&key));
            res.checks.check(new.is_some() && new == old, || {
                format!("restart {i}: item {id} maps to {new:?}, held {old:?}")
            });
        }
    }
    rig.server.shutdown();

    res.push(setup);
    res.push_throughput(&timed.tp);
    res.push_latency("read", timed.read_latency());
    res.push_latency("write", timed.write_latency());
    res.push(Metric::new(
        "flushed_lines_per_write",
        flushed as f64 / sets.max(1) as f64,
        "lines",
    ));
    res.push(Metric::new(
        "scm_bytes_per_key",
        scm as f64 / keys as f64,
        "B",
    ));
    res.push(Metric::new(
        "dram_bytes_per_key",
        dram as f64 / keys as f64,
        "B",
    ));
    res.note(restarts.note());
    res.push(restarts.metric());
    res
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Yields its bytes a few at a time, like a congested socket.
    struct Dribble {
        data: Vec<u8>,
        pos: usize,
        chunk: usize,
    }

    impl Read for Dribble {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = self.chunk.min(buf.len()).min(self.data.len() - self.pos);
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            self.chunk = self.chunk % 7 + 1;
            Ok(n)
        }
    }

    #[test]
    fn replies_split_across_reads_parse_exactly() {
        let hits = HitTable::new(10);
        let mut data = Vec::new();
        data.extend_from_slice(hits.get(3));
        data.extend_from_slice(b"STORED\r\n");
        data.extend_from_slice(b"END\r\n");
        data.extend_from_slice(hits.get(9));
        data.extend_from_slice(hits.get(4)); // answers a get of item 5: wrong
        let mut r = ReplyReader::new(Dribble {
            data,
            pos: 0,
            chunk: 1,
        });
        assert_eq!(r.get_reply(hits.get(3)).unwrap(), Reply::Ok);
        assert_eq!(r.set_reply().unwrap(), Reply::Ok);
        assert_eq!(r.get_reply(hits.get(7)).unwrap(), Reply::Miss);
        assert_eq!(r.get_reply(hits.get(9)).unwrap(), Reply::Ok);
        assert_eq!(r.get_reply(hits.get(5)).unwrap(), Reply::Bad);
        assert!(
            r.set_reply().is_err(),
            "short reply is an error, not a hang"
        );
    }
}
