//! TCP front-end: a memcached-protocol server made of identical reactor
//! threads, memcached's own thread model.
//!
//! Each of the [`ServerBuilder::worker_threads`] reactors owns a poller and
//! the connections dealt to it, and does everything for them on its own
//! thread: read → parse → execute → write. Reactor 0 additionally owns the
//! listener and deals accepted sockets round-robin; that hand-over, once per
//! connection, is the only cross-thread traffic. Sibling reactors pin
//! themselves one per allowed CPU, so where they run is as deterministic as
//! which connections they own.
//!
//! A connection is a registered nonblocking socket plus a [`Session`], not
//! an OS thread, so the server sustains thousands of them (`fptree-figures
//! fig14` sweeps connection counts). The split is sans-IO: the session owns
//! every per-connection rule — frame cap, per-turn command budget, `set`
//! coalescing (→ [`Cache::set_batch`]), backpressure, half-close, response
//! order — and never sees a socket, a clock or a poller. The reactor only
//! moves bytes between sockets and sessions, gives a session another turn
//! from its run queue when the last one used its budget, maps what the
//! session wants onto poller interest, reaps idle connections after
//! [`ServerBuilder::idle_timeout`] (`conn_idle_closed`), and drains
//! in-flight responses at shutdown. A command that panics closes only its
//! own connection.
//!
//! Construct servers with [`ServerBuilder`].
//!
//! The mc-benchmark harness still defaults to in-process calls with a
//! modeled network cost (`fptree-figures fig13`) because the paper's
//! finding under test is that the *network* is the bottleneck, not
//! loopback throughput.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::SocketAddr;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fptree_core::metrics::{Counter, Metrics};
use mio::net::{TcpListener, TcpStream};
use mio::{Events, Interest, Poll, Token, Waker};
use parking_lot::Mutex;

use crate::cache::Cache;
use crate::session::{Session, Turn};

/// Default cap on concurrently served connections, across all reactors.
/// Connections are poll slots, not threads, so
/// [`ServerBuilder::max_connections`] can raise this far higher; accepts
/// beyond the cap are answered `SERVER_ERROR too many connections` and
/// closed, counted under `conn_rejected`.
pub const MAX_CONNECTIONS: usize = 1024;

/// Default [`ServerBuilder::idle_timeout`]: how long a connection may sit
/// with no traffic and no pending work before it is reaped
/// (`conn_idle_closed`).
pub const DEFAULT_IDLE_TIMEOUT: Duration = Duration::from_secs(300);

/// How long shutdown waits for in-flight responses to drain before closing
/// the remaining connections.
const SHUTDOWN_DRAIN: Duration = Duration::from_secs(2);

const LISTENER_TOKEN: Token = Token(usize::MAX);
const WAKER_TOKEN: Token = Token(usize::MAX - 1);

/// Builds and starts the server: fluent settings, validation up front, one
/// terminal call.
///
/// ```no_run
/// # use std::sync::Arc;
/// # use fptree_kvcache::{Cache, KvCache, ServerBuilder};
/// # use fptree_baselines::HashIndex;
/// let cache = Arc::new(KvCache::new(Arc::new(HashIndex::<Vec<u8>>::new(16))));
/// let server = ServerBuilder::new("127.0.0.1:0")
///     .max_connections(8192)
///     .worker_threads(4)
///     .idle_timeout(std::time::Duration::from_secs(60))
///     .serve(cache as Arc<dyn Cache>)
///     .expect("bind");
/// println!("serving on {}", server.addr);
/// server.shutdown();
/// ```
#[derive(Debug, Clone)]
pub struct ServerBuilder {
    addr: String,
    max_connections: usize,
    worker_threads: usize,
    idle_timeout: Duration,
}

impl ServerBuilder {
    /// Starts a builder for a server on `addr` (e.g. `"127.0.0.1:0"`).
    pub fn new(addr: impl Into<String>) -> ServerBuilder {
        ServerBuilder {
            addr: addr.into(),
            max_connections: MAX_CONNECTIONS,
            worker_threads: default_worker_threads(),
            idle_timeout: DEFAULT_IDLE_TIMEOUT,
        }
    }

    /// Cap on concurrently served connections (default
    /// [`MAX_CONNECTIONS`]). Accepts beyond the cap are answered
    /// `SERVER_ERROR too many connections` and closed.
    pub fn max_connections(mut self, n: usize) -> ServerBuilder {
        self.max_connections = n;
        self
    }

    /// Reactor threads (default: available parallelism, capped at 8). They
    /// are the server's only threads: each serves the connections dealt to
    /// it from socket read to socket write.
    pub fn worker_threads(mut self, n: usize) -> ServerBuilder {
        self.worker_threads = n;
        self
    }

    /// Reap connections idle (no traffic, no pending work) this long
    /// (default [`DEFAULT_IDLE_TIMEOUT`]). Must be positive; use a large
    /// value to effectively disable reaping.
    pub fn idle_timeout(mut self, d: Duration) -> ServerBuilder {
        self.idle_timeout = d;
        self
    }

    fn validate(&self) -> io::Result<()> {
        let invalid = |msg: &str| Err(io::Error::new(io::ErrorKind::InvalidInput, msg));
        if self.max_connections == 0 {
            return invalid("max_connections must be at least 1");
        }
        if self.worker_threads == 0 {
            return invalid("worker_threads must be at least 1");
        }
        if self.idle_timeout.is_zero() {
            return invalid("idle_timeout must be positive (use a large value to disable)");
        }
        Ok(())
    }

    /// Validates the settings, binds, and starts the reactors.
    pub fn serve(self, cache: Arc<dyn Cache>) -> io::Result<ServerHandle> {
        self.validate()?;
        let listener = std::net::TcpListener::bind(&self.addr)?;
        let addr = listener.local_addr()?;
        let mut listener = Some(TcpListener::from_std(listener));

        let polls = (0..self.worker_threads)
            .map(|_| Poll::new())
            .collect::<io::Result<Vec<_>>>()?;
        let mailboxes = polls
            .iter()
            .map(|poll| {
                Ok(Mailbox {
                    inbox: Mutex::new(Vec::new()),
                    waker: Waker::new(poll.registry(), WAKER_TOKEN)?,
                })
            })
            .collect::<io::Result<Vec<_>>>()?;
        let shared = Arc::new(Shared {
            mailboxes,
            stop: AtomicBool::new(false),
            active: AtomicUsize::new(0),
            max_connections: self.max_connections,
            idle_timeout: self.idle_timeout,
        });
        // The handle exists before the first thread does, so a failed spawn
        // drops it and thereby stops and joins the reactors already running.
        let handle = ServerHandle {
            addr,
            shared: Arc::clone(&shared),
            joins: Mutex::new(Vec::new()),
        };
        for (id, poll) in polls.into_iter().enumerate() {
            // Reactor 0 gets the listener; `take` leaves `None` for the rest.
            let mut listener = listener.take();
            if let Some(l) = listener.as_mut() {
                poll.registry()
                    .register(l, LISTENER_TOKEN, Interest::READABLE)?;
            }
            let mut reactor = Reactor {
                id,
                shared: Arc::clone(&shared),
                metrics: Arc::clone(cache.metrics()),
                cache: Arc::clone(&cache),
                poll,
                listener,
                dealt: 0,
                conns: Vec::new(),
                free: Vec::new(),
                runq: VecDeque::new(),
            };
            let join = std::thread::Builder::new()
                .name(format!("kvcache-reactor-{id}"))
                .spawn(move || reactor.run())?;
            handle.joins.lock().push(join);
        }
        Ok(handle)
    }
}

fn default_worker_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .clamp(1, 8)
}

/// Handle to a running server. [`ServerHandle::shutdown`] stops it
/// explicitly; dropping the handle shuts it down too.
pub struct ServerHandle {
    /// Address the server actually bound (useful with port 0).
    pub addr: SocketAddr,
    shared: Arc<Shared>,
    joins: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl ServerHandle {
    /// Signals the reactors to stop, waits for in-flight responses to
    /// drain (bounded), and joins every server thread. Idempotent: calling
    /// again (or dropping after a call) is a no-op.
    pub fn shutdown(&self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        let joins = std::mem::take(&mut *self.joins.lock());
        for mailbox in &self.shared.mailboxes {
            let _ = mailbox.waker.wake();
        }
        for join in joins {
            let _ = join.join();
        }
        // A socket dealt to a reactor that had already left closes here.
        for mailbox in &self.shared.mailboxes {
            mailbox.inbox.lock().clear();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for ServerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerHandle")
            .field("addr", &self.addr)
            .finish_non_exhaustive()
    }
}

// ---------------------------------------------------------------------------
// Reactors
// ---------------------------------------------------------------------------

/// What the reactors share: the stop flag, the global connection count, and
/// each reactor's mailbox.
struct Shared {
    /// `mailboxes[i]` belongs to reactor `i`.
    mailboxes: Vec<Mailbox>,
    stop: AtomicBool,
    /// Connections accepted and not yet closed, over all reactors: the
    /// quantity `max_connections` caps. Only reactor 0 raises it.
    active: AtomicUsize,
    max_connections: usize,
    idle_timeout: Duration,
}

/// How a socket reaches the reactor that will own it: reactor 0 pushes it
/// and wakes the owner, the owner takes the lot on that wake-up.
struct Mailbox {
    inbox: Mutex<Vec<TcpStream>>,
    waker: Waker,
}

/// A socket and its session.
struct Conn {
    stream: TcpStream,
    session: Session,
    /// Interest currently registered with the poller (`None` = none).
    registered: Option<Interest>,
    /// On the run queue.
    queued: bool,
}

/// One server thread: a poller, the connections it owns, and the queue of
/// those that still have complete commands buffered after their turn.
struct Reactor {
    id: usize,
    shared: Arc<Shared>,
    cache: Arc<dyn Cache>,
    metrics: Arc<Metrics>,
    poll: Poll,
    /// Reactor 0's; dropped (stops accepting) once shutdown begins.
    listener: Option<TcpListener>,
    /// Sockets dealt so far; the next goes to reactor `dealt % n`.
    dealt: usize,
    /// Connection slab: `Token(i)` ↔ `conns[i]`.
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    /// Connections waiting for another turn, round-robin.
    runq: VecDeque<usize>,
}

/// Pins the calling thread to the `nth` CPU (wrapping) of those the process
/// may run on; on any failure the thread simply stays unpinned. Direct
/// `extern "C"` like `third_party/mio`: `std` already links libc.
fn pin_to_cpu(nth: usize) {
    extern "C" {
        fn sched_getaffinity(pid: i32, len: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, len: usize, mask: *const u64) -> i32;
    }
    // glibc's `cpu_set_t`: 1024 bits.
    let mut allowed = [0u64; 16];
    let len = std::mem::size_of_val(&allowed);
    // SAFETY: `allowed` is `len` writable bytes; pid 0 is the calling thread.
    if unsafe { sched_getaffinity(0, len, allowed.as_mut_ptr()) } != 0 {
        return;
    }
    let cpus: Vec<usize> = (0..len * 8)
        .filter(|c| allowed[c / 64] >> (c % 64) & 1 == 1)
        .collect();
    if cpus.is_empty() {
        return;
    }
    let cpu = cpus[nth % cpus.len()];
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is `len` readable bytes; pid 0 is the calling thread.
    unsafe { sched_setaffinity(0, len, one.as_ptr()) };
}

impl Reactor {
    fn run(&mut self) {
        // Sibling reactors each take a CPU of their own. Left to the
        // scheduler, two reactors ping-ponging with two closed-loop clients
        // on two vCPUs spend a fifth of the time stacked on one CPU while
        // the other idles, and how often differs from run to run. A lone
        // reactor has no sibling to be stacked on and stays unpinned.
        if self.shared.mailboxes.len() > 1 {
            pin_to_cpu(self.id);
        }
        let mut events = Events::with_capacity(1024);
        let idle_timeout = self.shared.idle_timeout;
        let tick = (idle_timeout / 4).clamp(Duration::from_millis(1), Duration::from_millis(100));
        let mut draining: Option<Instant> = None;
        let mut next_sweep = Instant::now() + tick;
        loop {
            // With connections waiting for a turn, only collect what is
            // ready; sleep when there is nothing to run.
            let waiting = self.runq.len();
            let timeout = if waiting == 0 { tick } else { Duration::ZERO };
            if self.poll.poll(&mut events, Some(timeout)).is_err() {
                break;
            }
            if !events.is_empty() {
                self.metrics.inc(Counter::EvloopWakeups);
            }
            for event in events.iter() {
                match event.token() {
                    LISTENER_TOKEN => self.accept_ready(),
                    // Edge-triggered eventfd: nothing to drain.
                    WAKER_TOKEN => self.adopt_dealt(),
                    Token(id) => self.turn(id, event.is_readable()),
                }
            }
            // One turn for each connection that was waiting when this pass
            // began; whoever is still not done re-queues behind the rest.
            for _ in 0..waiting {
                let id = self.runq.pop_front().expect("only this loop pops");
                if let Some(conn) = self.conns[id].as_mut() {
                    conn.queued = false;
                }
                self.turn(id, false);
            }
            // Reap connections idle (no traffic, nothing unsent) past the
            // timeout. The sweep walks every connection slot, so under load
            // it runs on its tick, not on every wakeup.
            let now = Instant::now();
            if now >= next_sweep {
                for id in 0..self.conns.len() {
                    let conn = self.conns[id].as_ref();
                    if conn.is_some_and(|c| c.session.idle(now, idle_timeout)) {
                        self.metrics.inc(Counter::ConnIdleClosed);
                        self.close_conn(id);
                    }
                }
                next_sweep = now + tick;
            }
            if self.shared.stop.load(Ordering::SeqCst) {
                let deadline = *draining.get_or_insert(now + SHUTDOWN_DRAIN);
                // Stop accepting; what was read keeps being answered until
                // every connection has flushed or the deadline passes.
                if let Some(mut l) = self.listener.take() {
                    let _ = self.poll.registry().deregister(&mut l);
                }
                let busy = |c: &Conn| c.queued || !c.session.output().is_empty();
                let drained = !self.conns.iter().flatten().any(busy);
                if drained || now >= deadline {
                    break;
                }
            }
        }
        for id in 0..self.conns.len() {
            self.close_conn(id);
        }
    }

    /// Reactor 0 only: accepts what is pending and deals each socket to the
    /// next reactor in turn (itself included). Round-robin rather than
    /// whoever-wakes-first so that k connections land on min(k, n) reactors.
    fn accept_ready(&mut self) {
        let shared = &self.shared;
        while let Some(listener) = self.listener.as_ref() {
            match listener.accept() {
                Ok((mut stream, _)) => {
                    if shared.active.load(Ordering::SeqCst) >= shared.max_connections
                        || shared.stop.load(Ordering::SeqCst)
                    {
                        self.metrics.inc(Counter::ConnRejected);
                        // Best-effort refusal: a fresh socket's send buffer
                        // is empty, so this short line won't block.
                        let _ = stream.write(b"SERVER_ERROR too many connections\r\n");
                        continue; // drops (closes) the stream
                    }
                    shared.active.fetch_add(1, Ordering::SeqCst);
                    let _ = stream.set_nodelay(true);
                    let owner = &shared.mailboxes[self.dealt % shared.mailboxes.len()];
                    self.dealt += 1;
                    owner.inbox.lock().push(stream);
                    let _ = owner.waker.wake();
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    /// Takes the sockets dealt to this reactor and starts serving them.
    fn adopt_dealt(&mut self) {
        let dealt = std::mem::take(&mut *self.shared.mailboxes[self.id].inbox.lock());
        for stream in dealt {
            let id = self.free.pop().unwrap_or_else(|| {
                self.conns.push(None);
                self.conns.len() - 1
            });
            self.conns[id] = Some(Conn {
                stream,
                session: Session::new(Instant::now()),
                registered: None,
                queued: false,
            });
            self.metrics.inc(Counter::ConnOpened);
            // Registers the interest a fresh session wants.
            self.turn(id, false);
        }
    }

    /// One turn for a connection: read what the socket has (after a
    /// readiness event), execute, write until the socket would block, then
    /// close the connection, queue it for another turn, or re-register the
    /// interest its session wants.
    fn turn(&mut self, id: usize, readable: bool) {
        let Some(conn) = self.conns.get_mut(id).and_then(Option::as_mut) else {
            return;
        };
        if readable {
            let mut chunk = [0u8; 16 * 1024];
            // The frame cap ends the session's appetite, so it doubles as
            // the per-pass read budget: one firehose client can't keep its
            // reactor in this loop.
            while conn.session.want().0 {
                match conn.stream.read(&mut chunk) {
                    Ok(0) => conn.session.eof(),
                    Ok(n) => {
                        self.metrics.add(Counter::BytesRead, n as u64);
                        conn.session.input(&chunk[..n]);
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => return self.close_conn(id),
                }
            }
        }
        // A command that panics ends its own connection, not the reactor
        // and every other connection dealt to it.
        let turned = || conn.session.turn(self.cache.as_ref(), Instant::now());
        let Ok(Turn { more, close }) = catch_unwind(AssertUnwindSafe(turned)) else {
            return self.close_conn(id);
        };
        while !conn.session.output().is_empty() {
            match conn.stream.write(conn.session.output()) {
                Ok(0) => return self.close_conn(id),
                Ok(n) => {
                    self.metrics.add(Counter::BytesWritten, n as u64);
                    conn.session.wrote(n);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    // Socket buffer full with responses still queued: the
                    // remainder waits for the next writability event.
                    self.metrics.inc(Counter::EvloopPartialWrites);
                    break;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return self.close_conn(id),
            }
        }
        if close && conn.session.output().is_empty() {
            return self.close_conn(id);
        }
        if more && !conn.queued {
            conn.queued = true;
            self.runq.push_back(id);
        }
        let want = match conn.session.want() {
            (true, true) => Some(Interest::READABLE | Interest::WRITABLE),
            (true, false) => Some(Interest::READABLE),
            (false, true) => Some(Interest::WRITABLE),
            (false, false) => None,
        };
        let registry = self.poll.registry();
        let res = match (conn.registered, want) {
            (old, new) if old == new => return,
            (_, None) => registry.deregister(&mut conn.stream),
            (None, Some(interest)) => registry.register(&mut conn.stream, Token(id), interest),
            (Some(_), Some(interest)) => registry.reregister(&mut conn.stream, Token(id), interest),
        };
        match res {
            Ok(()) => conn.registered = want,
            Err(_) => self.close_conn(id),
        }
    }

    fn close_conn(&mut self, id: usize) {
        let Some(mut conn) = self.conns.get_mut(id).and_then(Option::take) else {
            return;
        };
        if conn.registered.is_some() {
            let _ = self.poll.registry().deregister(&mut conn.stream);
        }
        self.free.push(id);
        self.shared.active.fetch_sub(1, Ordering::SeqCst);
        self.metrics.inc(Counter::ConnClosed);
        // `conn.stream` drops (closes) here.
    }
}

/// A minimal blocking client for tests and examples.
pub struct Client {
    stream: std::net::TcpStream,
    buf: Vec<u8>,
}

impl Client {
    /// Connects to a server.
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = std::net::TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            stream,
            buf: Vec::new(),
        })
    }

    /// SET; waits for `STORED`.
    pub fn set(&mut self, key: &str, data: &[u8]) -> io::Result<()> {
        let mut msg = format!("set {key} 0 0 {}\r\n", data.len()).into_bytes();
        msg.extend_from_slice(data);
        msg.extend_from_slice(b"\r\n");
        self.stream.write_all(&msg)?;
        self.read_line()?; // STORED
        Ok(())
    }

    /// GET; returns the value if present.
    pub fn get(&mut self, key: &str) -> io::Result<Option<Vec<u8>>> {
        self.stream.write_all(format!("get {key}\r\n").as_bytes())?;
        let header = self.read_line()?;
        if header == b"END" {
            return Ok(None);
        }
        // VALUE <key> <flags> <bytes>
        let text = String::from_utf8_lossy(&header).to_string();
        let bytes: usize = text
            .split_ascii_whitespace()
            .nth(3)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| io::Error::other("bad VALUE header"))?;
        while self.buf.len() < bytes + 2 {
            self.fill()?;
        }
        let data = self.buf[..bytes].to_vec();
        self.buf.drain(..bytes + 2);
        self.read_line()?; // END
        Ok(Some(data))
    }

    /// Multi-key GET (`get k1 k2 ...`); returns the present keys as
    /// `(key, value)` pairs in request order.
    pub fn get_multi(&mut self, keys: &[&str]) -> io::Result<Vec<(String, Vec<u8>)>> {
        self.stream
            .write_all(format!("get {}\r\n", keys.join(" ")).as_bytes())?;
        self.read_values()
    }

    /// SCAN; returns up to `count` `(key, value)` pairs with keys
    /// `>= start`, in key order. Errors if the server's index cannot scan.
    pub fn scan(&mut self, start: &str, count: usize) -> io::Result<Vec<(String, Vec<u8>)>> {
        self.stream
            .write_all(format!("scan {start} {count}\r\n").as_bytes())?;
        self.read_values()
    }

    /// Reads `VALUE` blocks up to `END` (shared by multi-get and scan).
    fn read_values(&mut self) -> io::Result<Vec<(String, Vec<u8>)>> {
        let mut out = Vec::new();
        loop {
            let header = self.read_line()?;
            if header == b"END" {
                return Ok(out);
            }
            let text = String::from_utf8_lossy(&header).to_string();
            if text.starts_with("SERVER_ERROR") {
                return Err(io::Error::other(text));
            }
            // VALUE <key> <flags> <bytes>
            let mut parts = text.split_ascii_whitespace();
            let (Some("VALUE"), Some(key), _, Some(bytes)) =
                (parts.next(), parts.next(), parts.next(), parts.next())
            else {
                return Err(io::Error::other("bad VALUE header"));
            };
            let bytes: usize = bytes
                .parse()
                .map_err(|_| io::Error::other("bad VALUE length"))?;
            while self.buf.len() < bytes + 2 {
                self.fill()?;
            }
            let data = self.buf[..bytes].to_vec();
            self.buf.drain(..bytes + 2);
            out.push((key.to_string(), data));
        }
    }

    /// VERSION; returns the server's banner line, e.g.
    /// `VERSION fptree-kvcache/0.1.0 proto 2`.
    pub fn version(&mut self) -> io::Result<String> {
        self.stream.write_all(b"version\r\n")?;
        let line = self.read_line()?;
        Ok(String::from_utf8_lossy(&line).into_owned())
    }

    /// STATS; returns the `STAT <name> <value>` pairs in server order.
    /// Values stay strings because memcached stats mix numbers and text
    /// (e.g. `STAT version 0.1.0`).
    pub fn stats(&mut self) -> io::Result<Vec<(String, String)>> {
        self.stream.write_all(b"stats\r\n")?;
        let mut out = Vec::new();
        loop {
            let line = self.read_line()?;
            if line == b"END" {
                return Ok(out);
            }
            let text = String::from_utf8_lossy(&line).to_string();
            let mut parts = text.split_ascii_whitespace();
            let (Some("STAT"), Some(name), Some(value), None) =
                (parts.next(), parts.next(), parts.next(), parts.next())
            else {
                return Err(io::Error::other(format!("bad STAT line: {text}")));
            };
            out.push((name.to_string(), value.to_string()));
        }
    }

    /// STATS RESET; zeroes the server-side counters.
    pub fn stats_reset(&mut self) -> io::Result<()> {
        self.stream.write_all(b"stats reset\r\n")?;
        let line = self.read_line()?;
        if line == b"RESET" {
            Ok(())
        } else {
            Err(io::Error::other("expected RESET"))
        }
    }

    fn read_line(&mut self) -> io::Result<Vec<u8>> {
        loop {
            if let Some(pos) = self.buf.windows(2).position(|w| w == b"\r\n") {
                let line = self.buf[..pos].to_vec();
                self.buf.drain(..pos + 2);
                return Ok(line);
            }
            self.fill()?;
        }
    }

    fn fill(&mut self) -> io::Result<()> {
        let mut chunk = [0u8; 4096];
        let n = self.stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::other("connection closed"));
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::KvCache;
    use fptree_baselines::HashIndex;
    use std::net::TcpStream as StdTcpStream;

    fn hash_cache() -> Arc<KvCache> {
        Arc::new(KvCache::new(Arc::new(HashIndex::<Vec<u8>>::new(8))))
    }

    fn tree_cache() -> Arc<KvCache> {
        use fptree_core::{Locked, TreeConfig};
        use fptree_pmem::{PmemPool, PoolOptions, ROOT_SLOT};
        let pool = Arc::new(PmemPool::create(PoolOptions::direct(64 << 20)).unwrap());
        let tree = fptree_core::FPTreeVar::create(pool, TreeConfig::fptree_var(), ROOT_SLOT);
        Arc::new(KvCache::new(Arc::new(Locked::new(tree))))
    }

    fn start(cache: &Arc<KvCache>) -> ServerHandle {
        ServerBuilder::new("127.0.0.1:0")
            .serve(Arc::clone(cache) as Arc<dyn Cache>)
            .unwrap()
    }

    /// Polls a metrics counter until it reaches `want` — a reactor
    /// finishes teardown (conn_closed, etc.) asynchronously after the
    /// client observes its side of the close.
    fn wait_counter(cache: &KvCache, name: &str, want: u64) -> u64 {
        let mut last = 0;
        for _ in 0..400 {
            last = cache.stats_snapshot().get(name).unwrap_or(0);
            if last >= want {
                return last;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        last
    }

    #[test]
    fn end_to_end_over_tcp() {
        let cache = hash_cache();
        let server = start(&cache);
        let mut client = Client::connect(server.addr).unwrap();
        client.set("alpha", b"one").unwrap();
        client.set("beta", b"two").unwrap();
        assert_eq!(client.get("alpha").unwrap(), Some(b"one".to_vec()));
        assert_eq!(client.get("beta").unwrap(), Some(b"two".to_vec()));
        assert_eq!(client.get("gamma").unwrap(), None);
        // Overwrite.
        client.set("alpha", b"uno").unwrap();
        assert_eq!(client.get("alpha").unwrap(), Some(b"uno".to_vec()));
        server.shutdown();
    }

    #[test]
    fn builder_validates_settings() {
        let cache = hash_cache();
        for bad in [
            ServerBuilder::new("127.0.0.1:0").max_connections(0),
            ServerBuilder::new("127.0.0.1:0").worker_threads(0),
            ServerBuilder::new("127.0.0.1:0").idle_timeout(Duration::ZERO),
        ] {
            let err = bad.serve(Arc::clone(&cache) as Arc<dyn Cache>).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        }
        // A bad address surfaces as the bind error, not a panic.
        assert!(ServerBuilder::new("not-an-address")
            .serve(Arc::clone(&cache) as Arc<dyn Cache>)
            .is_err());
    }

    #[test]
    fn scan_over_tcp_with_tree_index() {
        let cache = tree_cache();
        let server = start(&cache);
        let mut client = Client::connect(server.addr).unwrap();
        for i in (0..50).rev() {
            client
                .set(&format!("user:{i:03}"), format!("v{i}").as_bytes())
                .unwrap();
        }
        let items = client.scan("user:010", 4).unwrap();
        let keys: Vec<_> = items.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["user:010", "user:011", "user:012", "user:013"]);
        assert_eq!(items[0].1, b"v10".to_vec());
        // Scan past the last key returns the tail, not an error.
        assert_eq!(client.scan("user:048", 10).unwrap().len(), 2);
        server.shutdown();
    }

    #[test]
    fn scan_on_hash_index_is_an_error() {
        let cache = hash_cache();
        let server = start(&cache);
        let mut client = Client::connect(server.addr).unwrap();
        client.set("k", b"v").unwrap();
        assert!(client.scan("a", 5).is_err());
        // The connection stays usable after the SERVER_ERROR line.
        assert_eq!(client.get("k").unwrap(), Some(b"v".to_vec()));
        server.shutdown();
    }

    #[test]
    fn shutdown_is_idempotent() {
        let cache = hash_cache();
        let server = start(&cache);
        server.shutdown();
        // Second explicit call and the implicit Drop are both no-ops.
        server.shutdown();
        drop(server);
    }

    #[test]
    fn shutdown_drains_pipelined_responses() {
        let cache = hash_cache();
        let server = start(&cache);
        let mut stream = StdTcpStream::connect(server.addr).unwrap();
        // One synchronous round-trip first, so the server has demonstrably
        // accepted and registered this connection (a connect alone can
        // still be sitting in the accept backlog when shutdown begins).
        stream.write_all(b"set d00 0 0 1\r\nx\r\n").unwrap();
        let mut first = [0u8; 8];
        stream.read_exact(&mut first).unwrap();
        assert_eq!(&first, b"STORED\r\n");
        let mut msg = Vec::new();
        for i in 1..50 {
            msg.extend_from_slice(format!("set d{i:02} 0 0 1\r\nx\r\n").as_bytes());
        }
        stream.write_all(&msg).unwrap();
        // Shut down immediately: every response already in flight must
        // still be delivered before the server closes the connection.
        server.shutdown();
        // The shutdown races the reads: the server answers whatever it
        // *did* read, so 0..=50 STOREDs are all legal — but the stream
        // must be a clean prefix of STOREDs. If the server closed while
        // requests were still unread in its receive queue the close is an
        // RST, which can surface as an error after the delivered bytes.
        let mut resp = Vec::new();
        let mut chunk = [0u8; 4096];
        loop {
            match stream.read(&mut chunk) {
                Ok(0) | Err(_) => break,
                Ok(n) => resp.extend_from_slice(&chunk[..n]),
            }
        }
        let stored = resp
            .windows(b"STORED\r\n".len())
            .filter(|w| w == b"STORED\r\n")
            .count();
        assert_eq!(resp.len(), stored * b"STORED\r\n".len());
        assert!(cache.len() >= stored);
    }

    #[test]
    fn stats_over_tcp_reports_live_counters() {
        let cache = tree_cache();
        let server = start(&cache);
        let mut client = Client::connect(server.addr).unwrap();

        let banner = client.version().unwrap();
        assert!(banner.starts_with("VERSION fptree-kvcache/"));

        client.set("alpha", b"one").unwrap();
        client.set("beta", b"two").unwrap();
        assert_eq!(client.get("alpha").unwrap(), Some(b"one".to_vec()));
        assert_eq!(client.get("missing").unwrap(), None);

        let stats = client.stats().unwrap();
        let field = |name: &str| {
            stats
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| v.clone())
        };
        assert_eq!(field("curr_items"), Some("2".to_string()));
        assert!(field("protocol").is_some());
        if fptree_core::Metrics::enabled() {
            assert_eq!(field("cmd_set"), Some("2".to_string()));
            assert_eq!(field("cmd_get"), Some("2".to_string()));
            assert_eq!(field("cache_hits"), Some("1".to_string()));
            assert_eq!(field("cache_misses"), Some("1".to_string()));
            assert_eq!(field("conn_opened"), Some("1".to_string()));
            // The event loop's own counters ride in the same snapshot.
            let wakeups: u64 = field("evloop_wakeups").unwrap().parse().unwrap();
            assert!(wakeups > 0, "requests must arrive via readiness wakeups");
            // The tree's metrics ride along in the same snapshot. The cache
            // issues extra tree GETs internally (swap_handle), so `get_ops`
            // exceeds the two client GETs.
            assert_eq!(field("insert_ops"), Some("2".to_string()));
            let get_ops: u64 = field("get_ops").unwrap().parse().unwrap();
            assert!(get_ops >= 2);
            assert!(field("pmem_allocs").is_some());
            let read: u64 = field("bytes_read").unwrap().parse().unwrap();
            assert!(read > 0, "bytes_read should count request bytes");
        }

        client.stats_reset().unwrap();
        let stats = client.stats().unwrap();
        let zeroed = stats
            .iter()
            .find(|(n, _)| n == "cmd_set")
            .map(|(_, v)| v.clone());
        assert_eq!(zeroed, Some("0".to_string()));
        server.shutdown();
    }

    #[test]
    fn idle_connection_is_reaped() {
        let cache = hash_cache();
        let server = ServerBuilder::new("127.0.0.1:0")
            .idle_timeout(Duration::from_millis(100))
            .serve(Arc::clone(&cache) as Arc<dyn Cache>)
            .unwrap();
        // A client that connects and never sends a byte used to hold its
        // slot forever; the idle timeout must reap it.
        let mut silent = StdTcpStream::connect(server.addr).unwrap();
        silent
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut resp = Vec::new();
        let n = silent.read_to_end(&mut resp).unwrap(); // EOF once reaped
        assert_eq!(n, 0, "server should close the idle connection silently");
        if fptree_core::Metrics::enabled() {
            assert_eq!(wait_counter(&cache, "conn_idle_closed", 1), 1);
            assert_eq!(wait_counter(&cache, "conn_closed", 1), 1);
        }
        // An active client on the same server is not reaped.
        let mut client = Client::connect(server.addr).unwrap();
        for _ in 0..5 {
            std::thread::sleep(Duration::from_millis(60));
            client.set("k", b"v").unwrap(); // traffic refreshes the timer
        }
        assert_eq!(client.get("k").unwrap(), Some(b"v".to_vec()));
        server.shutdown();
    }

    #[test]
    fn unstalled_connection_resumes_buffered_commands() {
        let cache = hash_cache();
        let server = start(&cache);
        let value = vec![b'U'; 64 * 1024];
        Client::connect(server.addr)
            .unwrap()
            .set("big", &value)
            .unwrap();
        // More gets than one turn executes (256), in one write, and nothing
        // sent afterwards: the first turn's replies (16 MiB) fill the socket
        // and stall the connection, and once the client has drained them
        // only a writability event can wake the turn that resumes the 44
        // commands still buffered. This is the reactor's half of the
        // stall/resume contract the session tests check without sockets.
        let gets = 300;
        let mut stream = StdTcpStream::connect(server.addr).unwrap();
        stream.write_all(&b"get big\r\n".repeat(gets)).unwrap();
        // Read nothing until the stall has happened (the kernel's socket
        // buffers hold a few MiB of the 16 at most).
        if fptree_core::Metrics::enabled() {
            let stalls = wait_counter(&cache, "evloop_queue_stalls", 1);
            assert_eq!(stalls, 1, "16 MiB unsent never stalled");
        } else {
            std::thread::sleep(Duration::from_millis(200));
        }
        stream
            .set_read_timeout(Some(Duration::from_secs(20)))
            .unwrap();
        let mut want = format!("VALUE big 0 {}\r\n", value.len()).into_bytes();
        want.extend_from_slice(&value);
        want.extend_from_slice(b"\r\nEND\r\n");
        let mut got = vec![0u8; want.len()];
        for i in 0..gets {
            stream
                .read_exact(&mut got)
                .unwrap_or_else(|e| panic!("reply {i} of {gets} never arrived: {e}"));
            assert!(got == want, "reply {i} of {gets} is not the value");
        }
        if fptree_core::Metrics::enabled() {
            let partial = cache.stats_snapshot().get("evloop_partial_writes");
            assert!(
                partial.unwrap_or(0) > 0,
                "an unread client should have produced partial writes"
            );
        }
        server.shutdown();
    }

    #[test]
    fn idle_reap_frees_slot_at_the_connection_cap() {
        let cache = hash_cache();
        let server = ServerBuilder::new("127.0.0.1:0")
            .max_connections(1)
            .idle_timeout(Duration::from_millis(80))
            .serve(Arc::clone(&cache) as Arc<dyn Cache>)
            .unwrap();
        let _silent = StdTcpStream::connect(server.addr).unwrap();
        // The lone slot is held by the silent client; once the reaper runs,
        // a real client gets in.
        let ok = (0..200).any(|_| {
            std::thread::sleep(Duration::from_millis(5));
            Client::connect(server.addr).is_ok_and(|mut c| c.version().is_ok())
        });
        assert!(ok, "idle reap never freed the slot");
        server.shutdown();
    }

    #[test]
    fn connection_cap_bounds_slots() {
        // The cap is one count over all reactors, not one per reactor.
        for reactors in [1, 2] {
            connection_cap_bounds_slots_with(reactors);
        }
    }

    fn connection_cap_bounds_slots_with(reactors: usize) {
        let cache = hash_cache();
        let server = ServerBuilder::new("127.0.0.1:0")
            .max_connections(2)
            .worker_threads(reactors)
            .serve(Arc::clone(&cache) as Arc<dyn Cache>)
            .unwrap();
        let mut held: Vec<Client> = (0..2)
            .map(|_| Client::connect(server.addr).unwrap())
            .collect();
        for c in &mut held {
            c.version().unwrap(); // both slots demonstrably serving
        }
        // A burst past the cap: every extra connection is refused with
        // SERVER_ERROR and closed, without taking a slot.
        for _ in 0..6 {
            let mut s = StdTcpStream::connect(server.addr).unwrap();
            let mut resp = Vec::new();
            s.read_to_end(&mut resp).unwrap();
            assert_eq!(resp, b"SERVER_ERROR too many connections\r\n");
        }
        if fptree_core::Metrics::enabled() {
            let snap = cache.stats_snapshot();
            // conn_opened counts registered (served) connections: exactly
            // the two held ones; rejects are counted separately.
            assert_eq!(snap.get("conn_opened"), Some(2));
            assert_eq!(snap.get("conn_rejected"), Some(6));
        }
        // Closing a connection frees its slot for new clients.
        drop(held.pop());
        let ok = (0..200).any(|_| {
            std::thread::sleep(Duration::from_millis(5));
            Client::connect(server.addr).is_ok_and(|mut c| c.version().is_ok())
        });
        assert!(ok, "slot was not released after a connection closed");
        server.shutdown();
    }

    #[test]
    fn connections_are_dealt_across_reactors() {
        let cache = hash_cache();
        let server = ServerBuilder::new("127.0.0.1:0")
            .worker_threads(3)
            .serve(Arc::clone(&cache) as Arc<dyn Cache>)
            .unwrap();
        // Nine live connections, three per reactor: every one is served,
        // whichever thread owns it, and sees the others' writes.
        let mut clients: Vec<Client> = (0..9)
            .map(|_| Client::connect(server.addr).unwrap())
            .collect();
        for (i, c) in clients.iter_mut().enumerate() {
            c.set(&format!("r{i}"), format!("v{i}").as_bytes()).unwrap();
        }
        for (i, c) in clients.iter_mut().enumerate() {
            let next = (i + 1) % 9;
            assert_eq!(
                c.get(&format!("r{next}")).unwrap(),
                Some(format!("v{next}").into_bytes())
            );
        }
        if fptree_core::Metrics::enabled() {
            let snap = cache.stats_snapshot();
            assert_eq!(snap.get("conn_opened"), Some(9));
            assert_eq!(snap.get("conn_rejected"), Some(0));
        }
        drop(clients);
        if fptree_core::Metrics::enabled() {
            assert_eq!(wait_counter(&cache, "conn_closed", 9), 9);
        }
        server.shutdown();
    }

    #[test]
    fn pin_to_cpu_narrows_the_thread_to_one_allowed_cpu() {
        // `Cpus_allowed_list` of the calling thread, e.g. "0-1" or "0,2-3".
        fn allowed() -> Vec<usize> {
            let status = std::fs::read_to_string("/proc/thread-self/status").unwrap();
            let list = status
                .lines()
                .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
                .unwrap();
            list.trim()
                .split(',')
                .flat_map(|r| {
                    let (lo, hi) = r.split_once('-').unwrap_or((r, r));
                    lo.parse::<usize>().unwrap()..=hi.parse().unwrap()
                })
                .collect()
        }
        // A fresh thread per case: the pin is for the thread's lifetime.
        for nth in 0..4 {
            std::thread::spawn(move || {
                let before = allowed();
                pin_to_cpu(nth);
                assert_eq!(allowed(), [before[nth % before.len()]], "nth = {nth}");
            })
            .join()
            .unwrap();
        }
    }

    /// A cache whose multi-get panics on the key `boom`.
    struct Boom(KvCache);

    impl Cache for Boom {
        fn metrics(&self) -> &Arc<Metrics> {
            Cache::metrics(&self.0)
        }
        fn stats_snapshot(&self) -> fptree_core::metrics::Snapshot {
            self.0.stats_snapshot()
        }
        fn set(&self, key: &[u8], flags: u32, data: Vec<u8>) {
            self.0.set(key, flags, data)
        }
        fn set_batch(&self, items: Vec<(Vec<u8>, u32, Vec<u8>)>) {
            self.0.set_batch(items)
        }
        fn get(&self, key: &[u8]) -> Option<(u32, Vec<u8>)> {
            self.0.get(key)
        }
        fn get_many(&self, keys: &[Vec<u8>]) -> Vec<Option<(u32, Vec<u8>)>> {
            assert!(!keys.iter().any(|k| k == b"boom"), "boom");
            self.0.get_many(keys)
        }
        fn delete(&self, key: &[u8]) -> bool {
            self.0.delete(key)
        }
        fn scan(&self, start: &[u8], count: usize) -> Option<Vec<crate::cache::ScanItem>> {
            self.0.scan(start, count)
        }
        fn len(&self) -> usize {
            self.0.len()
        }
    }

    #[test]
    fn a_panicking_command_closes_only_its_connection() {
        let cache = Arc::new(Boom(KvCache::new(Arc::new(HashIndex::<Vec<u8>>::new(8)))));
        let server = ServerBuilder::new("127.0.0.1:0")
            .max_connections(2)
            .worker_threads(1) // the victim and its neighbour share a reactor
            .serve(Arc::clone(&cache) as Arc<dyn Cache>)
            .unwrap();
        let mut neighbour = Client::connect(server.addr).unwrap();
        neighbour.set("k", b"v").unwrap();
        let mut victim = StdTcpStream::connect(server.addr).unwrap();
        victim
            .set_read_timeout(Some(Duration::from_secs(20)))
            .unwrap();
        victim.write_all(b"get boom\r\n").unwrap();
        let mut resp = Vec::new();
        victim.read_to_end(&mut resp).unwrap();
        assert!(resp.is_empty(), "the panicking command answered");
        // The reactor lives on: the neighbour is still served, and the
        // victim's slot was released under the cap of two.
        assert_eq!(neighbour.get("k").unwrap(), Some(b"v".to_vec()));
        let mut next = Client::connect(server.addr).unwrap();
        assert_eq!(next.get("k").unwrap(), Some(b"v".to_vec()));
        server.shutdown();
    }

    #[test]
    fn firehose_does_not_starve_a_neighbour() {
        let cache = hash_cache();
        let server = ServerBuilder::new("127.0.0.1:0")
            .worker_threads(1) // both connections on the one reactor
            .serve(Arc::clone(&cache) as Arc<dyn Cache>)
            .unwrap();
        let mut neighbour = Client::connect(server.addr).unwrap();
        neighbour.version().unwrap();
        // ~1 MiB of pipelined misses in one write: hundreds of turns' worth,
        // with replies (5 bytes each) far below the backpressure cap.
        let gets = (1 << 20) / b"get nokey\r\n".len();
        let mut firehose = StdTcpStream::connect(server.addr).unwrap();
        firehose.write_all(&b"get nokey\r\n".repeat(gets)).unwrap();
        // The neighbour's request arrives behind all of that. `stats` is
        // executed on the reactor, so its `cmd_get` says how far the
        // firehose had got when the neighbour was served.
        let stats = neighbour.stats().unwrap();
        if fptree_core::Metrics::enabled() {
            let done: usize = stats
                .iter()
                .find(|(name, _)| name == "cmd_get")
                .and_then(|(_, v)| v.parse().ok())
                .expect("cmd_get in stats");
            assert!(
                done < gets,
                "neighbour waited for all {gets} firehose commands"
            );
        }
        firehose
            .set_read_timeout(Some(Duration::from_secs(20)))
            .unwrap();
        let mut resp = vec![0u8; gets * b"END\r\n".len()];
        firehose.read_exact(&mut resp).unwrap();
        assert!(resp.chunks(5).all(|r| r == b"END\r\n"));
        server.shutdown();
    }

    #[test]
    fn stats_shards_over_tcp() {
        use crate::ShardedCache;
        use fptree_core::index::BytesIndex;
        let sharded = Arc::new(ShardedCache::new(
            (0..2)
                .map(|_| Arc::new(HashIndex::<Vec<u8>>::new(4)) as Arc<dyn BytesIndex>)
                .collect(),
        ));
        let server = ServerBuilder::new("127.0.0.1:0")
            .serve(Arc::clone(&sharded) as Arc<dyn Cache>)
            .unwrap();
        let mut client = Client::connect(server.addr).unwrap();
        for i in 0..20 {
            client.set(&format!("k{i}"), b"v").unwrap();
        }
        // `stats shards` over the wire: per-shard sections summing
        // to the total item count.
        let mut stream = StdTcpStream::connect(server.addr).unwrap();
        stream.write_all(b"stats shards\r\nquit\r\n").unwrap();
        let mut resp = String::new();
        stream.read_to_string(&mut resp).unwrap();
        assert!(resp.starts_with("STAT shards 2\r\n"));
        assert!(resp.ends_with("END\r\n"));
        let items: u64 = (0..2)
            .map(|i| {
                resp.lines()
                    .find_map(|l| l.strip_prefix(&format!("STAT shard{i}:curr_items ")))
                    .expect("per-shard curr_items line")
                    .parse::<u64>()
                    .unwrap()
            })
            .sum();
        assert_eq!(items, 20);
        server.shutdown();
    }

    #[test]
    fn many_clients() {
        let cache = hash_cache();
        let server = start(&cache);
        let addr = server.addr;
        let handles: Vec<_> = (0..4)
            .map(|t: u32| {
                std::thread::spawn(move || {
                    let mut c = Client::connect(addr).unwrap();
                    for i in 0..200 {
                        let key = format!("t{t}k{i}");
                        c.set(&key, format!("v{i}").as_bytes()).unwrap();
                        assert_eq!(c.get(&key).unwrap(), Some(format!("v{i}").into_bytes()));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(cache.len(), 800);
        server.shutdown();
    }

    #[test]
    fn hundreds_of_concurrent_connections_on_two_reactors() {
        let cache = hash_cache();
        let server = ServerBuilder::new("127.0.0.1:0")
            .max_connections(600)
            .worker_threads(2)
            .serve(Arc::clone(&cache) as Arc<dyn Cache>)
            .unwrap();
        // Hold 512 connections open at once — far beyond what a
        // thread-per-connection server would tolerate in a unit test —
        // and verify every one of them is served.
        let mut clients: Vec<Client> = (0..512)
            .map(|_| Client::connect(server.addr).unwrap())
            .collect();
        for (i, c) in clients.iter_mut().enumerate() {
            c.set(&format!("c{i}"), format!("v{i}").as_bytes()).unwrap();
        }
        for (i, c) in clients.iter_mut().enumerate() {
            assert_eq!(
                c.get(&format!("c{i}")).unwrap(),
                Some(format!("v{i}").into_bytes())
            );
        }
        assert_eq!(cache.len(), 512);
        if fptree_core::Metrics::enabled() {
            let snap = cache.stats_snapshot();
            assert_eq!(snap.get("conn_opened"), Some(512));
            assert_eq!(snap.get("conn_rejected"), Some(0));
        }
        server.shutdown();
    }
}
