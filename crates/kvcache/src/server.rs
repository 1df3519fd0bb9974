//! TCP front-end: a readiness-polled event-loop memcached-protocol server.
//!
//! One acceptor/poll thread owns every connection as a registered
//! nonblocking socket with a per-connection state machine (read buffer →
//! [`crate::protocol`] parser → response queue); a small worker pool
//! executes the cache operations. Connections are therefore cheap slots
//! instead of OS threads, so the server sustains thousands of them — the
//! `fig14_connscale` benchmark sweeps connection counts past the old
//! thread-per-connection cap. Responses for a pipelined batch accumulate
//! into contiguous blocks and flush as scatter-gather vectored writes, so
//! pipelined `set`-coalescing (→ [`Cache::set_batch`]) and multi-get stay
//! the natural batch units. Backpressure: a connection whose write queue
//! exceeds its cap stops being read until the client drains responses
//! (`evloop_queue_stalls`); idle connections are reaped after
//! [`ServerBuilder::idle_timeout`] (`conn_idle_closed`); shutdown drains
//! in-flight responses before closing.
//!
//! Construct servers with [`ServerBuilder`].
//!
//! The mc-benchmark harness still defaults to in-process calls with a
//! modeled network cost (see [`crate::mcbench`]) because the paper's
//! finding under test is that the *network* is the bottleneck, not
//! loopback throughput.

use std::collections::VecDeque;
use std::io::{self, IoSlice, Read, Write};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use fptree_core::metrics::{Counter, Metrics};
use mio::net::{TcpListener, TcpStream};
use mio::{Events, Interest, Poll, Token, Waker};

use crate::cache::Cache;
use crate::protocol::{execute_into, parse, Command, ParseError};

/// Upper bound on one connection's unparsed request buffer. A client that
/// streams bytes without ever completing a frame (a slowloris, or a `set`
/// announcing an absurd byte count) is answered `ERROR` and disconnected
/// instead of growing the buffer without limit. Sized above memcached's
/// traditional 1 MiB item ceiling so every legitimate frame still fits.
pub const MAX_FRAME_BYTES: usize = (1 << 20) + 4096;

/// Most consecutive pipelined `set` commands coalesced into one
/// [`Cache::set_batch`] call. A client that pipelines its load phase
/// (memcached `noreply` style) gets the tree's amortized batched write path
/// — one flush/fence set per touched leaf — instead of a full persistence
/// round per key.
pub const SET_BATCH_MAX: usize = 64;

/// Default cap on concurrently served connections. Connections are poll
/// slots, not threads, so [`ServerBuilder::max_connections`] can raise this
/// far higher; accepts beyond the cap are answered
/// `SERVER_ERROR too many connections` and closed, counted under
/// `conn_rejected`.
pub const MAX_CONNECTIONS: usize = 1024;

/// Default [`ServerBuilder::idle_timeout`]: how long a connection may sit
/// with no traffic and no pending work before it is reaped
/// (`conn_idle_closed`).
pub const DEFAULT_IDLE_TIMEOUT: Duration = Duration::from_secs(300);

/// Default [`ServerBuilder::write_queue_cap`] in bytes: once a connection
/// has this much queued unsent response data, the server stops reading
/// from it until the client drains (`evloop_queue_stalls`).
pub const DEFAULT_WRITE_QUEUE_CAP: usize = 1 << 20;

/// Most parsed commands dispatched to the worker pool per batch; what the
/// client pipelined beyond this waits for the next completion (bounds
/// per-batch memory without extra syscalls).
const MAX_BATCH_CMDS: usize = 256;

/// How long shutdown waits for in-flight responses to drain before closing
/// the remaining connections.
const SHUTDOWN_DRAIN: Duration = Duration::from_secs(2);

const LISTENER_TOKEN: Token = Token(usize::MAX);
const WAKER_TOKEN: Token = Token(usize::MAX - 1);

/// Builds and starts the event-loop server: fluent settings, validation
/// up front, one terminal call.
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
    max_frame_bytes: usize,
    write_queue_cap: usize,
}

impl ServerBuilder {
    /// Starts a builder for a server on `addr` (e.g. `"127.0.0.1:0"`).
    pub fn new(addr: impl Into<String>) -> ServerBuilder {
        ServerBuilder {
            addr: addr.into(),
            max_connections: MAX_CONNECTIONS,
            worker_threads: default_worker_threads(),
            idle_timeout: DEFAULT_IDLE_TIMEOUT,
            max_frame_bytes: MAX_FRAME_BYTES,
            write_queue_cap: DEFAULT_WRITE_QUEUE_CAP,
        }
    }

    /// Cap on concurrently served connections (default
    /// [`MAX_CONNECTIONS`]). Accepts beyond the cap are answered
    /// `SERVER_ERROR too many connections` and closed.
    pub fn max_connections(mut self, n: usize) -> ServerBuilder {
        self.max_connections = n;
        self
    }

    /// Worker threads executing cache operations (default: available
    /// parallelism, capped at 8). The poll thread is separate.
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

    /// Cap on one connection's unparsed request buffer (default
    /// [`MAX_FRAME_BYTES`]); an over-long frame is answered `ERROR` and
    /// the connection closed.
    pub fn max_frame_bytes(mut self, n: usize) -> ServerBuilder {
        self.max_frame_bytes = n;
        self
    }

    /// Per-connection cap in bytes on queued unsent responses (default
    /// [`DEFAULT_WRITE_QUEUE_CAP`]); past it the connection stops being
    /// read until the client drains (backpressure).
    pub fn write_queue_cap(mut self, n: usize) -> ServerBuilder {
        self.write_queue_cap = n;
        self
    }

    fn validate(&self) -> io::Result<()> {
        let invalid = |msg: String| Err(io::Error::new(io::ErrorKind::InvalidInput, msg));
        if self.max_connections == 0 {
            return invalid("max_connections must be at least 1".into());
        }
        if self.worker_threads == 0 {
            return invalid("worker_threads must be at least 1".into());
        }
        if self.idle_timeout.is_zero() {
            return invalid("idle_timeout must be positive (use a large value to disable)".into());
        }
        if self.max_frame_bytes < 1024 {
            return invalid(format!(
                "max_frame_bytes must be at least 1024, got {}",
                self.max_frame_bytes
            ));
        }
        if self.write_queue_cap < 1024 {
            return invalid(format!(
                "write_queue_cap must be at least 1024, got {}",
                self.write_queue_cap
            ));
        }
        Ok(())
    }

    /// Validates the settings, binds, and starts the server.
    pub fn serve(self, cache: Arc<dyn Cache>) -> io::Result<ServerHandle> {
        self.validate()?;
        let listener = std::net::TcpListener::bind(&self.addr)?;
        let addr = listener.local_addr()?;
        let mut listener = TcpListener::from_std(listener);

        let poll = Poll::new()?;
        let waker = Arc::new(Waker::new(poll.registry(), WAKER_TOKEN)?);
        poll.registry()
            .register(&mut listener, LISTENER_TOKEN, Interest::READABLE)?;

        let stop = Arc::new(AtomicBool::new(false));
        let shared = Arc::new(WorkerShared {
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            done: Mutex::new(Vec::new()),
            waker: Arc::clone(&waker),
        });
        let workers = (0..self.worker_threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                let cache = Arc::clone(&cache);
                std::thread::Builder::new()
                    .name(format!("kvcache-worker-{i}"))
                    .spawn(move || worker_loop(&shared, cache.as_ref()))
            })
            .collect::<io::Result<Vec<_>>>()?;

        let stop2 = Arc::clone(&stop);
        let join = std::thread::Builder::new()
            .name("kvcache-evloop".into())
            .spawn(move || {
                let mut lp = EventLoop {
                    cfg: self,
                    metrics: Arc::clone(cache.metrics()),
                    poll,
                    listener: Some(listener),
                    conns: Vec::new(),
                    free: Vec::new(),
                    active: 0,
                    shared,
                    workers,
                    stop: stop2,
                };
                lp.run();
            })?;

        Ok(ServerHandle {
            addr,
            stop,
            waker,
            join: Mutex::new(Some(join)),
        })
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
    stop: Arc<AtomicBool>,
    waker: Arc<Waker>,
    join: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl ServerHandle {
    /// Signals the event loop to stop, waits for in-flight responses to
    /// drain (bounded), and joins every server thread. Idempotent: calling
    /// again (or dropping after a call) is a no-op.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
        let Some(join) = self.join.lock().unwrap_or_else(|e| e.into_inner()).take() else {
            return; // already shut down
        };
        let _ = self.waker.wake();
        let _ = join.join();
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
// Worker pool
// ---------------------------------------------------------------------------

enum Work {
    /// Execute a connection's parsed command batch.
    Batch { conn: usize, cmds: Vec<Command> },
    /// Exit the worker loop.
    Shutdown,
}

struct Done {
    conn: usize,
    resp: Vec<u8>,
}

struct WorkerShared {
    queue: Mutex<VecDeque<Work>>,
    available: Condvar,
    done: Mutex<Vec<Done>>,
    waker: Arc<Waker>,
}

fn worker_loop(shared: &WorkerShared, cache: &dyn Cache) {
    loop {
        let work = {
            let mut q = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(w) = q.pop_front() {
                    break w;
                }
                q = shared.available.wait(q).unwrap_or_else(|e| e.into_inner());
            }
        };
        match work {
            Work::Shutdown => return,
            Work::Batch { conn, cmds } => {
                let resp = run_batch(cache, cmds);
                shared
                    .done
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .push(Done { conn, resp });
                let _ = shared.waker.wake();
            }
        }
    }
}

/// Executes one connection's command batch, rendering every response into
/// one contiguous block (the scatter-gather unit). Runs of consecutive
/// `set`s coalesce into [`Cache::set_batch`] calls — responses stay in
/// command order because every coalesced command is a set.
fn run_batch(cache: &dyn Cache, cmds: Vec<Command>) -> Vec<u8> {
    let metrics = Arc::clone(cache.metrics());
    let mut resp = Vec::new();
    let mut it = cmds.into_iter().peekable();
    while let Some(cmd) = it.next() {
        let Command::Set {
            key,
            flags,
            data,
            noreply,
        } = cmd
        else {
            execute_into(cache, &cmd, &mut resp);
            continue;
        };
        let mut sets = vec![(key, flags, data, noreply)];
        while sets.len() < SET_BATCH_MAX && matches!(it.peek(), Some(Command::Set { .. })) {
            let Some(Command::Set {
                key,
                flags,
                data,
                noreply,
            }) = it.next()
            else {
                unreachable!("peeked a set");
            };
            sets.push((key, flags, data, noreply));
        }
        metrics.add(Counter::CmdSet, sets.len() as u64);
        for (_, _, _, noreply) in &sets {
            if !noreply {
                resp.extend_from_slice(b"STORED\r\n");
            }
        }
        if sets.len() == 1 {
            let (key, flags, data, _) = sets.pop().expect("one set");
            cache.set(&key, flags, data);
        } else {
            cache.set_batch(sets.into_iter().map(|(k, f, d, _)| (k, f, d)).collect());
        }
    }
    resp
}

// ---------------------------------------------------------------------------
// Event loop
// ---------------------------------------------------------------------------

/// Per-connection state machine.
struct Conn {
    stream: TcpStream,
    /// Unparsed request bytes.
    buf: Vec<u8>,
    /// Queued response blocks, oldest first.
    out: VecDeque<Vec<u8>>,
    /// Bytes of `out.front()` already written (partial-write resume point).
    out_head: usize,
    /// Total unwritten bytes across `out`.
    out_bytes: usize,
    /// Last traffic (read progress or batch completion), for idle reaping.
    last_activity: Instant,
    /// A command batch is at the workers. At most one batch is in flight
    /// per connection, which keeps responses in order; reads continue
    /// (bytes queue in `buf`) but nothing new dispatches until it returns.
    busy: bool,
    /// Close once `out` drains and no batch is in flight (quit, EOF, or
    /// protocol error).
    closing: bool,
    /// Reads paused: the write queue crossed its cap (backpressure).
    stalled: bool,
    /// A protocol error is pending behind the in-flight batch; emit
    /// `ERROR` after its responses, then close.
    error_after_batch: bool,
    /// Interest currently registered with the poller (`None` = none).
    registered: Option<Interest>,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            buf: Vec::with_capacity(4096),
            out: VecDeque::new(),
            out_head: 0,
            out_bytes: 0,
            last_activity: Instant::now(),
            busy: false,
            closing: false,
            stalled: false,
            error_after_batch: false,
            registered: Some(Interest::READABLE),
        }
    }

    fn enqueue(&mut self, resp: Vec<u8>) {
        if !resp.is_empty() {
            self.out_bytes += resp.len();
            self.out.push_back(resp);
        }
    }
}

struct EventLoop {
    cfg: ServerBuilder,
    metrics: Arc<Metrics>,
    poll: Poll,
    /// Dropped (stops accepting) once shutdown begins.
    listener: Option<TcpListener>,
    /// Connection slab: `Token(i)` ↔ `conns[i]`.
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    active: usize,
    shared: Arc<WorkerShared>,
    workers: Vec<std::thread::JoinHandle<()>>,
    stop: Arc<AtomicBool>,
}

impl EventLoop {
    fn run(&mut self) {
        let mut events = Events::with_capacity(1024);
        let tick =
            (self.cfg.idle_timeout / 4).clamp(Duration::from_millis(1), Duration::from_millis(100));
        let mut draining: Option<Instant> = None;
        let mut next_sweep = Instant::now() + tick;
        loop {
            if self.poll.poll(&mut events, Some(tick)).is_err() {
                break;
            }
            if !events.is_empty() {
                self.metrics.inc(Counter::EvloopWakeups);
            }
            let ready: Vec<(Token, bool, bool)> = events
                .iter()
                .map(|e| (e.token(), e.is_readable(), e.is_writable()))
                .collect();
            for (token, readable, writable) in ready {
                match token {
                    LISTENER_TOKEN => self.accept_ready(),
                    WAKER_TOKEN => {} // edge-triggered eventfd: nothing to drain
                    Token(id) => {
                        if readable {
                            self.conn_readable(id);
                        }
                        if writable {
                            self.conn_writable(id);
                        }
                    }
                }
            }
            self.collect_done();
            // The sweep walks every connection slot, so under load it runs
            // on its tick, not on every wakeup.
            let now = Instant::now();
            if now >= next_sweep {
                self.sweep_idle();
                next_sweep = now + tick;
            }
            if self.stop.load(Ordering::SeqCst) {
                let deadline = *draining.get_or_insert_with(|| Instant::now() + SHUTDOWN_DRAIN);
                // Stop accepting; in-flight work keeps draining until every
                // connection has flushed or the deadline passes.
                if let Some(mut l) = self.listener.take() {
                    let _ = self.poll.registry().deregister(&mut l);
                }
                let drained = self
                    .conns
                    .iter()
                    .flatten()
                    .all(|c| !c.busy && c.out_bytes == 0);
                if drained || Instant::now() >= deadline {
                    break;
                }
            }
        }
        for id in 0..self.conns.len() {
            if self.conns[id].is_some() {
                self.close_conn(id);
            }
        }
        {
            let mut q = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            for _ in 0..self.workers.len() {
                q.push_back(Work::Shutdown);
            }
        }
        self.shared.available.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }

    fn accept_ready(&mut self) {
        loop {
            let Some(listener) = self.listener.as_ref() else {
                return;
            };
            match listener.accept() {
                Ok((stream, _)) => {
                    if self.active >= self.cfg.max_connections || self.stop.load(Ordering::SeqCst) {
                        self.metrics.inc(Counter::ConnRejected);
                        let mut stream = stream;
                        // Best-effort refusal: a fresh socket's send buffer
                        // is empty, so this short line won't block.
                        let _ = stream.write(b"SERVER_ERROR too many connections\r\n");
                        continue; // drops (closes) the stream
                    }
                    let _ = stream.set_nodelay(true);
                    let id = self.free.pop().unwrap_or_else(|| {
                        self.conns.push(None);
                        self.conns.len() - 1
                    });
                    let mut conn = Conn::new(stream);
                    if self
                        .poll
                        .registry()
                        .register(&mut conn.stream, Token(id), Interest::READABLE)
                        .is_err()
                    {
                        self.free.push(id);
                        continue;
                    }
                    self.conns[id] = Some(conn);
                    self.active += 1;
                    self.metrics.inc(Counter::ConnOpened);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    fn conn_readable(&mut self, id: usize) {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            let Some(conn) = self.conns.get_mut(id).and_then(Option::as_mut) else {
                return;
            };
            // Keep reading while a batch is at the workers: draining the
            // socket keeps level-triggered polling quiet (no interest
            // churn); the bytes just wait in `buf` until the batch
            // completes. Only stalls and the frame cap stop reads.
            if conn.stalled || conn.closing {
                break;
            }
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    // EOF: serve out what's pending, then close.
                    conn.closing = true;
                    break;
                }
                Ok(n) => {
                    self.metrics.add(Counter::BytesRead, n as u64);
                    let conn = self.conns[id].as_mut().expect("checked above");
                    conn.last_activity = Instant::now();
                    conn.buf.extend_from_slice(&chunk[..n]);
                    // Enough buffered for a full dispatch round: stop the
                    // read loop so one firehose client can't monopolize.
                    if conn.buf.len() >= self.cfg.max_frame_bytes {
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close_conn(id);
                    return;
                }
            }
        }
        self.dispatch(id);
        self.flush(id);
        self.after_io(id);
    }

    fn conn_writable(&mut self, id: usize) {
        self.flush(id);
        self.after_io(id);
    }

    /// Parses buffered bytes into a command batch and hands it to the
    /// worker pool. At most one batch per connection is in flight.
    fn dispatch(&mut self, id: usize) {
        let Some(conn) = self.conns.get_mut(id).and_then(Option::as_mut) else {
            return;
        };
        if conn.busy {
            return;
        }
        if conn.out_bytes > self.cfg.write_queue_cap {
            if !conn.stalled {
                conn.stalled = true;
                self.metrics.inc(Counter::EvloopQueueStalls);
            }
            return;
        }
        conn.stalled = false;
        let mut cmds = Vec::new();
        let mut error = false;
        while cmds.len() < MAX_BATCH_CMDS && !conn.closing {
            match parse(&conn.buf) {
                Ok((Command::Quit, _)) => {
                    // Respond to everything before the quit, then hang up;
                    // bytes after it are discarded (the client said bye).
                    conn.buf.clear();
                    conn.closing = true;
                }
                Ok((cmd, used)) => {
                    conn.buf.drain(..used);
                    cmds.push(cmd);
                }
                Err(ParseError::Incomplete) => {
                    if conn.buf.len() >= self.cfg.max_frame_bytes {
                        // The frame can only keep growing; cut the
                        // slowloris off.
                        error = true;
                    }
                    break;
                }
                Err(ParseError::Bad(_)) => {
                    error = true;
                    break;
                }
            }
        }
        if error {
            self.metrics.inc(Counter::CmdBad);
            conn.closing = true;
            if cmds.is_empty() {
                conn.enqueue(b"ERROR\r\n".to_vec());
            } else {
                // The ERROR line must follow the good commands' responses,
                // which the worker is about to produce.
                conn.error_after_batch = true;
            }
        }
        if !cmds.is_empty() {
            conn.busy = true;
            self.shared
                .queue
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push_back(Work::Batch { conn: id, cmds });
            self.shared.available.notify_one();
        }
    }

    /// Collects finished batches from the workers, queues their responses,
    /// and resumes the connections (flush + parse whatever piled up).
    fn collect_done(&mut self) {
        let done = std::mem::take(&mut *self.shared.done.lock().unwrap_or_else(|e| e.into_inner()));
        for Done { conn: id, resp } in done {
            let Some(conn) = self.conns.get_mut(id).and_then(Option::as_mut) else {
                continue; // connection torn down during shutdown
            };
            conn.busy = false;
            conn.last_activity = Instant::now();
            conn.enqueue(resp);
            if conn.error_after_batch {
                conn.error_after_batch = false;
                conn.enqueue(b"ERROR\r\n".to_vec());
            }
            self.dispatch(id);
            self.flush(id);
            self.after_io(id);
        }
    }

    /// Writes queued responses with one vectored write per pass until the
    /// socket would block or the queue drains.
    fn flush(&mut self, id: usize) {
        loop {
            let Some(conn) = self.conns.get_mut(id).and_then(Option::as_mut) else {
                return;
            };
            if conn.out_bytes == 0 {
                break;
            }
            let mut slices = Vec::with_capacity(conn.out.len().min(64));
            for (i, block) in conn.out.iter().enumerate().take(64) {
                slices.push(IoSlice::new(if i == 0 {
                    &block[conn.out_head..]
                } else {
                    &block[..]
                }));
            }
            match conn.stream.write_vectored(&slices) {
                Ok(0) => {
                    self.close_conn(id);
                    return;
                }
                Ok(n) => {
                    self.metrics.add(Counter::BytesWritten, n as u64);
                    let mut left = n;
                    while left > 0 {
                        let front_remaining =
                            conn.out.front().expect("bytes queued").len() - conn.out_head;
                        if left >= front_remaining {
                            left -= front_remaining;
                            conn.out_bytes -= front_remaining;
                            conn.out.pop_front();
                            conn.out_head = 0;
                        } else {
                            conn.out_head += left;
                            conn.out_bytes -= left;
                            left = 0;
                        }
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    // Socket buffer full with responses still queued: the
                    // remainder waits for the next writability event.
                    self.metrics.inc(Counter::EvloopPartialWrites);
                    break;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close_conn(id);
                    return;
                }
            }
        }
    }

    /// Settles a connection after I/O: close if finished, un-stall if the
    /// queue drained, and re-register the interest set its state wants.
    fn after_io(&mut self, id: usize) {
        let Some(conn) = self.conns.get_mut(id).and_then(Option::as_mut) else {
            return;
        };
        if conn.closing && !conn.busy && conn.out_bytes == 0 {
            self.close_conn(id);
            return;
        }
        if conn.stalled && conn.out_bytes <= self.cfg.write_queue_cap / 2 {
            // Hysteresis: resume reading once the client has drained half
            // the cap, not on the first freed byte.
            conn.stalled = false;
        }
        let want_read = !conn.closing && !conn.stalled && conn.buf.len() < self.cfg.max_frame_bytes;
        let want_write = conn.out_bytes > 0;
        let want = match (want_read, want_write) {
            (true, true) => Some(Interest::READABLE | Interest::WRITABLE),
            (true, false) => Some(Interest::READABLE),
            (false, true) => Some(Interest::WRITABLE),
            (false, false) => None,
        };
        if want == conn.registered {
            return;
        }
        let registry = self.poll.registry();
        let res = match (conn.registered, want) {
            (Some(_), Some(interest)) => registry.reregister(&mut conn.stream, Token(id), interest),
            (None, Some(interest)) => registry.register(&mut conn.stream, Token(id), interest),
            (Some(_), None) => registry.deregister(&mut conn.stream),
            (None, None) => Ok(()),
        };
        match res {
            Ok(()) => conn.registered = want,
            Err(_) => self.close_conn(id),
        }
    }

    /// Reaps connections that have sat idle — no traffic, no pending work
    /// — longer than the idle timeout.
    fn sweep_idle(&mut self) {
        let now = Instant::now();
        for id in 0..self.conns.len() {
            let Some(conn) = self.conns[id].as_ref() else {
                continue;
            };
            if !conn.busy
                && conn.out_bytes == 0
                && now.duration_since(conn.last_activity) >= self.cfg.idle_timeout
            {
                self.metrics.inc(Counter::ConnIdleClosed);
                self.close_conn(id);
            }
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
        self.active -= 1;
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

    /// Polls a metrics counter until it reaches `want` — the event loop
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
            ServerBuilder::new("127.0.0.1:0").max_frame_bytes(16),
            ServerBuilder::new("127.0.0.1:0").write_queue_cap(0),
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
    fn noreply_pipelining_over_tcp() {
        let cache = hash_cache();
        let server = start(&cache);
        let mut stream = StdTcpStream::connect(server.addr).unwrap();
        // Pipeline noreply sets + a final get; only the get answers.
        let mut msg = Vec::new();
        for i in 0..10 {
            msg.extend_from_slice(format!("set k{i} 0 0 2 noreply\r\nv{i}\r\n").as_bytes());
        }
        msg.extend_from_slice(b"get k7\r\n");
        stream.write_all(&msg).unwrap();
        let mut resp = Vec::new();
        let mut chunk = [0u8; 1024];
        while !resp.ends_with(b"END\r\n") {
            let n = stream.read(&mut chunk).unwrap();
            assert!(n > 0, "server closed before responding");
            resp.extend_from_slice(&chunk[..n]);
        }
        assert_eq!(resp, b"VALUE k7 0 2\r\nv7\r\nEND\r\n");
        assert_eq!(cache.len(), 10);
        server.shutdown();
    }

    #[test]
    fn multi_key_get_over_tcp() {
        let cache = tree_cache();
        let server = start(&cache);
        let mut client = Client::connect(server.addr).unwrap();
        for i in 0..20 {
            client
                .set(&format!("k{i:02}"), format!("v{i}").as_bytes())
                .unwrap();
        }
        // Present keys come back as consecutive VALUE blocks before END,
        // in request order; the absent key is skipped.
        let items = client.get_multi(&["k07", "missing", "k01", "k19"]).unwrap();
        assert_eq!(
            items,
            vec![
                ("k07".to_string(), b"v7".to_vec()),
                ("k01".to_string(), b"v1".to_vec()),
                ("k19".to_string(), b"v19".to_vec()),
            ]
        );
        // All-absent multi-get: bare END.
        assert!(client.get_multi(&["x", "y"]).unwrap().is_empty());
        server.shutdown();
    }

    #[test]
    fn pipelined_sets_are_batched() {
        let cache = tree_cache();
        let server = start(&cache);
        let mut stream = StdTcpStream::connect(server.addr).unwrap();
        // One write carrying many sets: the server coalesces whatever is
        // buffered into set_batch calls. Mixed noreply and replied sets
        // must still answer exactly the replied ones, in order.
        let mut msg = Vec::new();
        for i in 0..40 {
            let nr = if i % 2 == 0 { " noreply" } else { "" };
            msg.extend_from_slice(format!("set b{i:02} 0 0 3{nr}\r\nv{i:02}\r\n").as_bytes());
        }
        msg.extend_from_slice(b"quit\r\n");
        stream.write_all(&msg).unwrap();
        let mut resp = Vec::new();
        stream.read_to_end(&mut resp).unwrap();
        let expect: Vec<u8> = std::iter::repeat_n(b"STORED\r\n".to_vec(), 20)
            .flatten()
            .collect();
        assert_eq!(resp, expect);
        assert_eq!(cache.len(), 40);
        for i in 0..40 {
            let (_, v) = cache.get(format!("b{i:02}").as_bytes()).unwrap();
            assert_eq!(v, format!("v{i:02}").into_bytes());
        }
        if fptree_core::Metrics::enabled() {
            let snap = cache.stats_snapshot();
            assert_eq!(snap.get("cmd_set"), Some(40));
            // At least some of the load went through the batched tree path.
            let batched = snap.get("insert_batch_keys").unwrap_or(0);
            assert!(batched > 0, "pipelined sets never hit insert_batch");
        }
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
    fn bad_command_counts_and_errors() {
        let cache = hash_cache();
        let server = start(&cache);
        let mut stream = StdTcpStream::connect(server.addr).unwrap();
        stream.write_all(b"frobnicate\r\n").unwrap();
        let mut resp = Vec::new();
        stream.read_to_end(&mut resp).unwrap();
        assert_eq!(resp, b"ERROR\r\n");
        if fptree_core::Metrics::enabled() {
            assert_eq!(cache.stats_snapshot().get("cmd_bad"), Some(1));
        }
        server.shutdown();
    }

    #[test]
    fn error_after_good_pipelined_commands_keeps_order() {
        let cache = hash_cache();
        let server = start(&cache);
        let mut stream = StdTcpStream::connect(server.addr).unwrap();
        // Two good commands then garbage, all in one write: the responses
        // must arrive in order, ERROR last, then close.
        stream
            .write_all(b"set k 0 0 1\r\nv\r\nget k\r\nfrobnicate\r\n")
            .unwrap();
        let mut resp = Vec::new();
        stream.read_to_end(&mut resp).unwrap();
        assert_eq!(resp, b"STORED\r\nVALUE k 0 1\r\nv\r\nEND\r\nERROR\r\n");
        server.shutdown();
    }

    #[test]
    fn slowloris_frame_is_capped() {
        let cache = hash_cache();
        let server = start(&cache);
        let mut stream = StdTcpStream::connect(server.addr).unwrap();
        // One endless unterminated line: the parser stays Incomplete while
        // the buffer grows, so the server must answer ERROR and hang up at
        // MAX_FRAME_BYTES instead of buffering without limit.
        let chunk = [b'x'; 4096];
        let mut sent = 0;
        while sent < MAX_FRAME_BYTES {
            stream.write_all(&chunk).unwrap();
            sent += chunk.len();
        }
        let mut resp = Vec::new();
        stream.read_to_end(&mut resp).unwrap();
        assert_eq!(resp, b"ERROR\r\n");
        if fptree_core::Metrics::enabled() {
            assert_eq!(cache.stats_snapshot().get("cmd_bad"), Some(1));
        }
        server.shutdown();
    }

    #[test]
    fn byte_at_a_time_requests_and_tiny_chunk_reads() {
        let cache = hash_cache();
        let server = start(&cache);
        let mut stream = StdTcpStream::connect(server.addr).unwrap();
        // Drip every request byte individually: the connection state
        // machine must accumulate short reads across readiness events.
        for b in b"set slow 0 0 5\r\nhello\r\nget slow\r\n" {
            stream.write_all(std::slice::from_ref(b)).unwrap();
        }
        // Read the responses one byte at a time too.
        let want = b"STORED\r\nVALUE slow 0 5\r\nhello\r\nEND\r\n";
        let mut got = Vec::new();
        let mut byte = [0u8; 1];
        while got.len() < want.len() {
            let n = stream.read(&mut byte).unwrap();
            assert!(
                n > 0,
                "server closed early: {:?}",
                String::from_utf8_lossy(&got)
            );
            got.extend_from_slice(&byte[..n]);
        }
        assert_eq!(got, want);
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
    fn backpressure_stalls_and_recovers() {
        let cache = hash_cache();
        let server = ServerBuilder::new("127.0.0.1:0")
            .write_queue_cap(8 * 1024)
            .serve(Arc::clone(&cache) as Arc<dyn Cache>)
            .unwrap();
        let mut client = Client::connect(server.addr).unwrap();
        let value = vec![b'B'; 512 * 1024];
        client.set("big", &value).unwrap();
        // Pipeline 64 gets of a 512 KiB value without reading anything:
        // ~32 MB of responses exceeds what the loopback kernel buffers can
        // absorb (forcing WouldBlock partial writes) and each response
        // alone exceeds the 8 KiB write queue cap (forcing read stalls),
        // so the server must stop reading instead of buffering everything.
        // Then drain and verify nothing was lost or reordered.
        let gets = 64;
        let mut stream = StdTcpStream::connect(server.addr).unwrap();
        for _ in 0..gets {
            stream.write_all(b"get big\r\n").unwrap();
        }
        std::thread::sleep(Duration::from_millis(200)); // let queues fill
        stream.write_all(b"quit\r\n").unwrap();
        let mut resp = Vec::new();
        stream.read_to_end(&mut resp).unwrap();
        let one = {
            let mut b = format!("VALUE big 0 {}\r\n", value.len()).into_bytes();
            b.extend_from_slice(&value);
            b.extend_from_slice(b"\r\nEND\r\n");
            b
        };
        let want: Vec<u8> = std::iter::repeat_n(one, gets).flatten().collect();
        assert_eq!(resp, want);
        if fptree_core::Metrics::enabled() {
            let snap = cache.stats_snapshot();
            assert!(
                snap.get("evloop_queue_stalls").unwrap_or(0) > 0,
                "64 × 16 KiB of queued responses never crossed the 8 KiB cap"
            );
            assert!(
                snap.get("evloop_partial_writes").unwrap_or(0) > 0,
                "an unread client should have produced partial writes"
            );
        }
        server.shutdown();
    }

    #[test]
    fn connection_cap_bounds_slots() {
        let cache = hash_cache();
        let server = ServerBuilder::new("127.0.0.1:0")
            .max_connections(2)
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
        // `stats shards` over the event loop: per-shard sections summing
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
    fn hundreds_of_concurrent_connections_on_one_thread() {
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
