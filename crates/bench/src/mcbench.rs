//! Load generators for the cache: mc-benchmark-style clients for
//! Figure 13 and TCP connection scaling for Figure 14's repo table.
//!
//! The paper runs mc-benchmark (50 clients) against memcached over a
//! 940 Mbit/s network and finds performance *network-bound*: concurrent
//! indexes service requests in parallel and saturate the link (≤2–3%
//! overhead vs. the hash table), while single-threaded trees become the
//! bottleneck on SETs. We reproduce the bottleneck with a modeled
//! per-request network cost (`net_ns`): each simulated client busy-waits
//! that long per request, capping the per-client request rate exactly like
//! a fixed-RTT link; server-side work is the real index operation.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Instant;

use fptree_kvcache::Cache;
use fptree_pmem::busy_wait_ns;

/// Workload configuration.
#[derive(Debug, Clone, Copy)]
pub struct McBenchConfig {
    /// Total SET requests (then the same number of GETs).
    pub requests: usize,
    /// Simulated concurrent clients (threads).
    pub clients: usize,
    /// Distinct keys (mc-benchmark uses a bounded random keyspace).
    pub keyspace: usize,
    /// Value payload size in bytes.
    pub value_size: usize,
    /// Modeled per-request network cost in nanoseconds (0 = none).
    pub net_ns: u64,
}

/// Throughput of each phase, requests per second.
#[derive(Debug, Clone, Copy)]
pub struct McBenchResult {
    pub set: f64,
    pub get: f64,
}

/// Runs the SET-then-GET workload against `cache` (any [`Cache`]:
/// unsharded or sharded).
pub fn run(cache: &dyn Cache, cfg: &McBenchConfig) -> McBenchResult {
    let set = run_phase(cache, cfg, true);
    let get = run_phase(cache, cfg, false);
    McBenchResult { set, get }
}

fn run_phase(cache: &dyn Cache, cfg: &McBenchConfig, is_set: bool) -> f64 {
    let payload = vec![0x42u8; cfg.value_size];
    let us = crate::drive(cfg.clients, cfg.requests, |i| {
        // mc-benchmark key shape: "memtier"-style counter key.
        let key = format!("key:{:012}", i % cfg.keyspace);
        if cfg.net_ns > 0 {
            busy_wait_ns(cfg.net_ns);
        }
        if is_set {
            cache.set(key.as_bytes(), 0, payload.clone());
        } else {
            let _ = cache.get(key.as_bytes());
        }
    });
    cfg.requests as f64 / us * 1e6
}

/// Configuration for the connection-scaling sweep (`fig14_connscale`):
/// many open TCP connections, driven over real sockets against the
/// reactor server.
#[derive(Debug, Clone, Copy)]
pub struct ConnScaleConfig {
    /// Open (and exercised) concurrent connections.
    pub conns: usize,
    /// Driver threads; each owns `conns / threads` connections and
    /// round-robins pipelined request windows across them.
    pub threads: usize,
    /// Total requests across all connections.
    pub requests: usize,
    /// Requests pipelined per window (one write, one response read).
    pub pipeline: usize,
    /// Distinct keys.
    pub keyspace: usize,
    /// Value payload size in bytes.
    pub value_size: usize,
    /// Every `set_every`-th window is SETs; the rest are GETs
    /// (0 = GET-only).
    pub set_every: usize,
}

/// Result of one connection-scaling run.
#[derive(Debug, Clone, Copy)]
pub struct ConnScaleResult {
    /// Connections actually opened and exercised.
    pub conns: usize,
    /// Requests completed.
    pub requests: usize,
    /// Wall-clock seconds (measured after every connection is open).
    pub secs: f64,
    /// Requests per second.
    pub ops_per_sec: f64,
}

/// Opens `cfg.conns` real TCP connections against the server at `addr`
/// and drives pipelined windows of requests across all of them, measuring
/// aggregate throughput. Every connection stays open for the whole run —
/// the point of the sweep is that throughput holds as open connections
/// grow — and each takes traffic, because windows round-robin across a
/// thread's whole connection set.
pub fn run_connscale(addr: SocketAddr, cfg: &ConnScaleConfig) -> io::Result<ConnScaleResult> {
    assert!(cfg.threads >= 1 && cfg.pipeline >= 1 && cfg.keyspace >= 1);
    let threads = cfg.threads.min(cfg.conns.max(1));
    let per_thread = cfg.conns / threads;
    let conns = per_thread * threads;
    let windows = Arc::new(AtomicU64::new(0));
    let total_windows = (cfg.requests / cfg.pipeline) as u64;
    // All connections open before the clock starts.
    let ready = Arc::new(Barrier::new(threads + 1));
    let payload = vec![0x42u8; cfg.value_size]; // no CR/LF inside: one line
    let mut elapsed = std::time::Duration::ZERO;
    let counts: Vec<u64> = std::thread::scope(|scope| -> io::Result<Vec<u64>> {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let windows = Arc::clone(&windows);
                let ready = Arc::clone(&ready);
                let payload = &payload;
                scope.spawn(move || -> io::Result<u64> {
                    let mut socks = Vec::with_capacity(per_thread);
                    // Handshake every socket before the clock starts: a
                    // connect() alone only reaches the kernel backlog, so
                    // without this the server would still be accepting and
                    // registering thousands of sockets inside the timed
                    // window (and a socket over the server's connection cap
                    // would silently count as "open"). Handshaking each one
                    // as it connects also keeps the listen backlog short: a
                    // burst of thousands of connects overflows it, and each
                    // dropped SYN costs a one-second retransmit.
                    for _ in 0..per_thread {
                        let mut s = TcpStream::connect(addr)?;
                        s.set_nodelay(true)?;
                        s.write_all(b"version\r\n")?;
                        await_lines(&s, b"VERSION", 1)?;
                        socks.push(s);
                    }
                    ready.wait();
                    let mut completed = 0u64;
                    loop {
                        let w = windows.fetch_add(1, Ordering::Relaxed);
                        if w >= total_windows {
                            break;
                        }
                        let sock = &mut socks[w as usize % per_thread];
                        // Homogeneous windows: all SETs or all GETs.
                        let is_set = cfg.set_every > 0 && w.is_multiple_of(cfg.set_every as u64);
                        let mut msg = Vec::with_capacity(cfg.pipeline * (cfg.value_size + 48));
                        for i in 0..cfg.pipeline {
                            let key = (w * cfg.pipeline as u64 + i as u64) as usize % cfg.keyspace;
                            if is_set {
                                msg.extend_from_slice(
                                    format!("set key:{key:012} 0 0 {}\r\n", payload.len())
                                        .as_bytes(),
                                );
                                msg.extend_from_slice(payload);
                                msg.extend_from_slice(b"\r\n");
                            } else {
                                msg.extend_from_slice(format!("get key:{key:012}\r\n").as_bytes());
                            }
                        }
                        sock.write_all(&msg)?;
                        // One "STORED" per set; hits and misses of a get
                        // both end in "END".
                        let last: &[u8] = if is_set { b"STORED" } else { b"END" };
                        await_lines(sock, last, cfg.pipeline)?;
                        completed += cfg.pipeline as u64;
                    }
                    Ok(completed)
                })
            })
            .collect();
        ready.wait();
        let start = Instant::now();
        let counts = handles
            .into_iter()
            .map(|h| h.join().expect("driver thread panicked"))
            .collect::<io::Result<Vec<u64>>>();
        elapsed = start.elapsed();
        counts
    })?;
    let requests: u64 = counts.iter().sum();
    let secs = elapsed.as_secs_f64();
    Ok(ConnScaleResult {
        conns,
        requests: requests as usize,
        secs,
        ops_per_sec: requests as f64 / secs.max(1e-9),
    })
}

/// Reads response lines from `sock` until `n` of them start with `prefix`.
/// The caller has nothing else in flight, so no byte is left buffered.
fn await_lines(sock: &TcpStream, prefix: &[u8], n: usize) -> io::Result<()> {
    let mut reader = BufReader::new(sock);
    let (mut line, mut seen) = (Vec::new(), 0);
    while seen < n {
        line.clear();
        if reader.read_until(b'\n', &mut line)? == 0 {
            return Err(io::Error::other(
                "server closed the connection (connection cap?)",
            ));
        }
        seen += usize::from(line.starts_with(prefix));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fptree_baselines::HashIndex;
    use fptree_kvcache::KvCache;

    #[test]
    fn runs_both_phases() {
        let cache = Arc::new(KvCache::new(Arc::new(HashIndex::<Vec<u8>>::new(16))));
        let cfg = McBenchConfig {
            requests: 5000,
            clients: 4,
            keyspace: 1000,
            value_size: 16,
            net_ns: 0,
        };
        let r = run(cache.as_ref(), &cfg);
        assert!(r.set > 0.0 && r.get > 0.0);
        assert_eq!(cache.len(), 1000);
    }

    #[test]
    fn network_model_caps_throughput() {
        let cache = Arc::new(KvCache::new(Arc::new(HashIndex::<Vec<u8>>::new(16))));
        let cfg = McBenchConfig {
            requests: 2000,
            clients: 2,
            keyspace: 500,
            value_size: 8,
            net_ns: 100_000, // 100 µs per request
        };
        let r = run(cache.as_ref(), &cfg);
        // 2 clients at ≤10k req/s each.
        assert!(
            r.set < 25_000.0,
            "modeled network should cap throughput, got {}",
            r.set
        );
    }

    #[test]
    fn connscale_drives_real_sockets() {
        let cache = Arc::new(KvCache::new(Arc::new(HashIndex::<Vec<u8>>::new(16))));
        let server = fptree_kvcache::ServerBuilder::new("127.0.0.1:0")
            .max_connections(128)
            .serve(Arc::clone(&cache) as Arc<dyn Cache>)
            .unwrap();
        let cfg = ConnScaleConfig {
            conns: 32,
            threads: 2,
            requests: 4_000,
            pipeline: 8,
            keyspace: 500,
            value_size: 16,
            set_every: 3,
        };
        let r = run_connscale(server.addr, &cfg).unwrap();
        assert_eq!(r.conns, 32);
        assert_eq!(r.requests, 4_000);
        assert!(r.ops_per_sec > 0.0);
        // SET windows actually stored keys.
        assert!(!cache.is_empty());
        if fptree_core::Metrics::enabled() {
            let snap = cache.stats_snapshot();
            assert_eq!(snap.get("conn_opened"), Some(32));
            assert_eq!(snap.get("conn_rejected"), Some(0));
            let sets = snap.get("cmd_set").unwrap_or(0);
            let gets = snap.get("cmd_get").unwrap_or(0);
            assert_eq!(sets + gets, 4_000);
            assert!(sets > 0 && gets > 0);
        }
        server.shutdown();
    }
}
