//! One connection's protocol state, without the connection ("sans-IO").
//!
//! A [`Session`] holds what a memcached connection needs between socket
//! events — unparsed request bytes, rendered responses not yet written, and
//! three flags — and owns every per-connection rule: the frame cap, the
//! per-turn command budget, `set` coalescing, backpressure with its
//! hysteresis, half-close, and the order of responses, `quit` and `ERROR`. It never touches a
//! socket, a clock or a poller. The reactor in [`crate::server`] moves bytes
//! in ([`Session::input`], [`Session::eof`]) and out ([`Session::output`],
//! [`Session::wrote`]), calls [`Session::turn`] when the connection is
//! ready or queued, and maps [`Session::want`] onto poller interest. So a
//! test can drive the exact server logic with any interleaving of arrivals,
//! partial writes and half-closes, and no timing.

use std::time::{Duration, Instant};

use fptree_core::metrics::Counter;

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

/// Backpressure threshold in bytes: once a connection has this much unsent
/// response data, the server stops reading and executing for it until the
/// client has drained half of it (`evloop_queue_stalls`).
pub const DEFAULT_WRITE_QUEUE_CAP: usize = 1 << 20;

/// Most commands one turn executes; what the client pipelined beyond this
/// waits for another turn while the reactor's other connections get theirs
/// (fairness, and a bound on per-turn memory).
const MAX_BATCH_CMDS: usize = 256;

/// Output-buffer capacity a session keeps once its responses drain.
const OUT_KEEP_BYTES: usize = 16 * 1024;

/// What the owner must do after a [`Session::turn`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Turn {
    /// The turn used its command budget: complete commands may still be
    /// buffered, and no readiness event will announce them. Turn again.
    pub more: bool,
    /// Nothing more will be read or executed (quit, protocol error, or
    /// everything before EOF answered): close once [`Session::output`] is
    /// empty.
    pub close: bool,
}

/// Per-connection protocol state machine.
#[derive(Debug)]
pub struct Session {
    /// Unparsed request bytes.
    buf: Vec<u8>,
    /// Rendered responses; `out[out_head..]` is still to be written.
    out: Vec<u8>,
    out_head: usize,
    /// Start of the last turn that found request bytes buffered.
    last_activity: Instant,
    /// Reads and execution paused: unsent responses crossed the cap.
    /// Cleared by the first turn after the client drained half of it.
    stalled: bool,
    /// The peer finished sending. What is buffered is still answered; the
    /// session closes after the last complete command.
    eof: bool,
    /// Nothing more will be read or executed; close once `out` drains.
    closing: bool,
}

impl Session {
    /// A fresh session; `now` starts its idle clock.
    pub fn new(now: Instant) -> Session {
        Session {
            buf: Vec::with_capacity(4096),
            out: Vec::new(),
            out_head: 0,
            last_activity: now,
            stalled: false,
            eof: false,
            closing: false,
        }
    }

    /// Appends request bytes received from the peer.
    pub fn input(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// The peer half-closed: answer what is buffered, then close.
    pub fn eof(&mut self) {
        self.eof = true;
    }

    /// Parses up to 256 (`MAX_BATCH_CMDS`) buffered commands and executes
    /// them into the output, in command order, with `ERROR` last if the
    /// parser hit garbage or the frame cap behind them.
    pub fn turn(&mut self, cache: &dyn Cache, now: Instant) -> Turn {
        if !self.buf.is_empty() {
            self.last_activity = now;
        }
        let unsent = self.out.len() - self.out_head;
        if self.stalled && unsent <= DEFAULT_WRITE_QUEUE_CAP / 2 {
            // Hysteresis: resume once the client has drained half the cap,
            // not on the first freed byte — and resume in this turn, with
            // the commands read before the stall, which no readiness event
            // will announce again.
            self.stalled = false;
        } else if !self.stalled && !self.closing && unsent > DEFAULT_WRITE_QUEUE_CAP {
            self.stalled = true;
            cache.metrics().inc(Counter::EvloopQueueStalls);
        }
        let mut cmds = Vec::new();
        let mut used = 0;
        let mut error = false;
        while !self.stalled && !self.closing && cmds.len() < MAX_BATCH_CMDS {
            match parse(&self.buf[used..]) {
                Ok((Command::Quit, _)) => {
                    // Respond to everything before the quit, then hang up;
                    // bytes after it are discarded (the client said bye).
                    used = self.buf.len();
                    self.closing = true;
                }
                Ok((cmd, n)) => {
                    used += n;
                    cmds.push(cmd);
                }
                Err(ParseError::Incomplete) => {
                    // At the frame cap the frame can only keep growing: cut
                    // the slowloris off. After EOF it can never complete.
                    error = self.buf.len() - used >= MAX_FRAME_BYTES;
                    self.closing = error || self.eof;
                    break;
                }
                Err(ParseError::Bad(_)) => {
                    error = true;
                    self.closing = true;
                }
            }
        }
        self.buf.drain(..used);
        let more = cmds.len() == MAX_BATCH_CMDS && !self.closing;
        run_batch(cache, cmds, &mut self.out);
        if error {
            // After the good commands' responses, so the stream stays ordered.
            cache.metrics().inc(Counter::CmdBad);
            self.out.extend_from_slice(b"ERROR\r\n");
        }
        let close = self.closing;
        Turn { more, close }
    }

    /// Rendered responses not yet written.
    pub fn output(&self) -> &[u8] {
        &self.out[self.out_head..]
    }

    /// The first `n` bytes of [`Session::output`] were written.
    pub fn wrote(&mut self, n: usize) {
        self.out_head += n;
        if self.out_head == self.out.len() {
            self.out.clear();
            self.out_head = 0;
            self.out.shrink_to(OUT_KEEP_BYTES);
        }
    }

    /// Which readiness the session can use: `(read, write)`. It reads
    /// unless stalled, half-closed, closing or at the frame cap. It wants
    /// writability while responses are unsent, and while stalled even with
    /// none: a client that drained everything must still wake the turn
    /// that un-stalls.
    pub fn want(&self) -> (bool, bool) {
        let read = !(self.stalled || self.eof || self.closing) && self.buf.len() < MAX_FRAME_BYTES;
        (read, self.stalled || !self.output().is_empty())
    }

    /// No traffic and nothing unsent for at least `timeout` before `now`.
    pub fn idle(&self, now: Instant, timeout: Duration) -> bool {
        self.out.is_empty() && now.duration_since(self.last_activity) >= timeout
    }
}

/// Executes one turn's commands, appending every response to `resp` in
/// command order. Runs of consecutive `set`s coalesce into
/// [`Cache::set_batch`] calls — responses stay in command order because
/// every coalesced command is a set.
fn run_batch(cache: &dyn Cache, cmds: Vec<Command>, resp: &mut Vec<u8>) {
    let mut sets = Vec::new();
    for cmd in cmds {
        match cmd {
            Command::Set {
                key,
                flags,
                data,
                noreply,
            } => {
                if !noreply {
                    resp.extend_from_slice(b"STORED\r\n");
                }
                sets.push((key, flags, data));
            }
            cmd => {
                store(cache, &mut sets);
                execute_into(cache, &cmd, resp);
            }
        }
        if sets.len() == SET_BATCH_MAX {
            store(cache, &mut sets);
        }
    }
    store(cache, &mut sets);
}

/// Stores the coalesced `sets` (one [`Cache::set`] for a lone one) and
/// empties the run.
fn store(cache: &dyn Cache, sets: &mut Vec<(Vec<u8>, u32, Vec<u8>)>) {
    let n = sets.len();
    match n {
        0 => return,
        1 => {
            let (key, flags, data) = sets.pop().expect("one set");
            cache.set(&key, flags, data);
        }
        _ => cache.set_batch(std::mem::take(sets)),
    }
    cache.metrics().add(Counter::CmdSet, n as u64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::KvCache;
    use fptree_baselines::HashIndex;
    use proptest::prelude::*;
    use std::collections::HashMap;
    use std::sync::Arc;

    fn hash_cache() -> KvCache {
        KvCache::new(Arc::new(HashIndex::<Vec<u8>>::new(8)))
    }

    fn tree_cache() -> KvCache {
        use fptree_core::{Locked, TreeConfig};
        use fptree_pmem::{PmemPool, PoolOptions, ROOT_SLOT};
        let pool = Arc::new(PmemPool::create(PoolOptions::direct(64 << 20)).unwrap());
        let tree = fptree_core::FPTreeVar::create(pool, TreeConfig::fptree_var(), ROOT_SLOT);
        KvCache::new(Arc::new(Locked::new(tree)))
    }

    /// Turns `s` like a reactor whose socket takes at most `room` bytes per
    /// flush, until the session closes or has nothing left to do without
    /// more input. Returns what was written and whether it closed.
    fn drive(s: &mut Session, cache: &dyn Cache, room: usize) -> (Vec<u8>, bool) {
        let mut written = Vec::new();
        loop {
            let turn = s.turn(cache, Instant::now());
            let n = room.min(s.output().len());
            written.extend_from_slice(&s.output()[..n]);
            s.wrote(n);
            if turn.close && s.output().is_empty() {
                return (written, true);
            }
            if !turn.more && !s.want().1 {
                return (written, false);
            }
        }
    }

    /// A fresh session fed `request` in one read, its socket taking
    /// everything.
    fn serve(cache: &dyn Cache, request: &[u8]) -> (Vec<u8>, bool) {
        let mut s = Session::new(Instant::now());
        s.input(request);
        drive(&mut s, cache, usize::MAX)
    }

    /// `n` back-to-back replies to `get <key>` of `value`.
    fn hits(key: &str, value: &[u8], n: usize) -> Vec<u8> {
        let mut one = format!("VALUE {key} 0 {}\r\n", value.len()).into_bytes();
        one.extend_from_slice(value);
        one.extend_from_slice(b"\r\nEND\r\n");
        one.repeat(n)
    }

    #[test]
    fn bad_command_counts_and_errors() {
        let cache = hash_cache();
        assert_eq!(
            serve(&cache, b"frobnicate\r\n"),
            (b"ERROR\r\n".to_vec(), true)
        );
        if fptree_core::Metrics::enabled() {
            assert_eq!(cache.stats_snapshot().get("cmd_bad"), Some(1));
        }
    }

    #[test]
    fn error_after_good_pipelined_commands_keeps_order() {
        // Two good commands then garbage, all in one read: the responses
        // come in order, ERROR last, then close.
        let (out, closed) = serve(
            &hash_cache(),
            b"set k 0 0 1\r\nv\r\nget k\r\nfrobnicate\r\n",
        );
        assert_eq!(out, b"STORED\r\nVALUE k 0 1\r\nv\r\nEND\r\nERROR\r\n");
        assert!(closed);
    }

    #[test]
    fn slowloris_frame_is_capped() {
        let cache = hash_cache();
        let mut s = Session::new(Instant::now());
        // One endless unterminated line: the parser stays Incomplete while
        // the buffer grows, so the session must answer ERROR and close at
        // MAX_FRAME_BYTES instead of buffering without limit.
        let chunk = [b'x'; 4096];
        let mut sent = 0;
        loop {
            assert!(s.want().0, "stopped reading before the cap");
            s.input(&chunk);
            sent += chunk.len();
            if s.turn(&cache, Instant::now()).close {
                break;
            }
            assert!(s.output().is_empty());
        }
        assert!((MAX_FRAME_BYTES..MAX_FRAME_BYTES + chunk.len()).contains(&sent));
        assert_eq!(s.output(), b"ERROR\r\n");
        assert_eq!(s.want(), (false, true));
        if fptree_core::Metrics::enabled() {
            assert_eq!(cache.stats_snapshot().get("cmd_bad"), Some(1));
        }
    }

    #[test]
    fn byte_at_a_time_requests_and_tiny_chunk_reads() {
        let cache = hash_cache();
        let mut s = Session::new(Instant::now());
        // Drip every request byte individually, one turn per byte: the
        // session must accumulate short reads. Write the responses one byte
        // at a time too.
        let mut got = Vec::new();
        for b in b"set slow 0 0 5\r\nhello\r\nget slow\r\n" {
            s.input(std::slice::from_ref(b));
            assert_eq!(s.turn(&cache, Instant::now()), Turn::default());
            while let Some(&byte) = s.output().first() {
                got.push(byte);
                s.wrote(1);
            }
        }
        assert_eq!(got, b"STORED\r\nVALUE slow 0 5\r\nhello\r\nEND\r\n");
    }

    #[test]
    fn noreply_pipelining() {
        let cache = hash_cache();
        // Pipeline noreply sets + a final get; only the get answers.
        let mut msg = Vec::new();
        for i in 0..10 {
            msg.extend_from_slice(format!("set k{i} 0 0 2 noreply\r\nv{i}\r\n").as_bytes());
        }
        msg.extend_from_slice(b"get k7\r\n");
        assert_eq!(
            serve(&cache, &msg),
            (b"VALUE k7 0 2\r\nv7\r\nEND\r\n".to_vec(), false)
        );
        assert_eq!(cache.len(), 10);
    }

    #[test]
    fn multi_key_get() {
        let cache = tree_cache();
        let mut msg = Vec::new();
        for i in 0..20 {
            msg.extend_from_slice(
                format!("set k{i:02} 0 0 {}\r\nv{i}\r\n", i.to_string().len() + 1).as_bytes(),
            );
        }
        serve(&cache, &msg);
        // Present keys come back as consecutive VALUE blocks before END,
        // in request order; the absent key is skipped.
        assert_eq!(
            serve(&cache, b"get k07 missing k01 k19\r\n").0,
            b"VALUE k07 0 2\r\nv7\r\nVALUE k01 0 2\r\nv1\r\nVALUE k19 0 3\r\nv19\r\nEND\r\n"
        );
        // All-absent multi-get: bare END.
        assert_eq!(serve(&cache, b"get x y\r\n").0, b"END\r\n");
    }

    #[test]
    fn pipelined_sets_are_batched() {
        let cache = tree_cache();
        // One read carrying many sets: the session coalesces them into
        // set_batch calls. Mixed noreply and replied sets must still answer
        // exactly the replied ones, in order.
        let mut msg = Vec::new();
        for i in 0..40 {
            let nr = if i % 2 == 0 { " noreply" } else { "" };
            msg.extend_from_slice(format!("set b{i:02} 0 0 3{nr}\r\nv{i:02}\r\n").as_bytes());
        }
        msg.extend_from_slice(b"quit\r\n");
        assert_eq!(serve(&cache, &msg), (b"STORED\r\n".repeat(20), true));
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
    }

    #[test]
    fn backpressure_stalls_and_recovers() {
        let cache = hash_cache();
        let value = vec![b'B'; 512 * 1024];
        cache.set(b"big", 0, value.clone());
        // 64 pipelined gets of a 512 KiB value, read by a client that takes
        // nothing back: 32 MiB of replies are over the 1 MiB cap, so the
        // session must stop reading and executing instead of answering
        // what arrives next.
        let mut s = Session::new(Instant::now());
        s.input(&b"get big\r\n".repeat(64));
        assert_eq!(s.turn(&cache, Instant::now()), Turn::default());
        s.input(b"get big\r\nquit\r\n");
        assert_eq!(s.turn(&cache, Instant::now()), Turn::default());
        assert!(s.stalled);
        assert_eq!(s.want(), (false, true));
        // Then drain through a socket that takes 64 KiB per flush, and
        // check that nothing was lost or reordered.
        let (out, closed) = drive(&mut s, &cache, 64 * 1024);
        assert_eq!(out, hits("big", &value, 65));
        assert!(closed);
        if fptree_core::Metrics::enabled() {
            let stalls = cache.stats_snapshot().get("evloop_queue_stalls");
            assert_eq!(stalls, Some(1), "32 MiB of queued responses never stalled");
        }
    }

    #[test]
    fn unstalled_connection_resumes_buffered_commands() {
        let cache = hash_cache();
        let value = vec![b'U'; 64 * 1024];
        cache.set(b"big", 0, value.clone());
        // More gets than one turn executes, in one read, and nothing sent
        // afterwards: the first turn's replies (16 MiB) stall the session,
        // and once the client has drained them only the session itself can
        // notice the 44 commands still sitting in its buffer.
        let gets = MAX_BATCH_CMDS + 44;
        let mut s = Session::new(Instant::now());
        s.input(&b"get big\r\n".repeat(gets));
        assert!(s.turn(&cache, Instant::now()).more);
        assert_eq!(s.turn(&cache, Instant::now()), Turn::default());
        assert!(s.stalled);
        let mut got = s.output().to_vec();
        s.wrote(got.len());
        // Nothing is unsent, yet the session still wants writability: that
        // readiness event is the turn that resumes it.
        assert_eq!(s.want(), (false, true));
        let (rest, closed) = drive(&mut s, &cache, usize::MAX);
        got.extend_from_slice(&rest);
        assert!(
            got == hits("big", &value, gets),
            "replies lost or reordered"
        );
        assert!(!closed && !s.stalled);
    }

    #[test]
    fn half_close_still_answers_buffered_commands() {
        let cache = hash_cache();
        let mut s = Session::new(Instant::now());
        // Request and FIN arrive in one read: EOF means "answer what is
        // buffered, then close", not "close". The trailing partial frame
        // can never complete and is dropped without an ERROR.
        s.input(b"set k 0 0 1\r\nv\r\nget k\r\nget unfinis");
        s.eof();
        assert_eq!(
            drive(&mut s, &cache, usize::MAX),
            (b"STORED\r\nVALUE k 0 1\r\nv\r\nEND\r\n".to_vec(), true)
        );
    }

    #[test]
    fn idle_means_no_traffic_and_nothing_unsent() {
        let (cache, start) = (hash_cache(), Instant::now());
        let (later, timeout) = (start + Duration::from_secs(10), Duration::from_secs(5));
        let mut s = Session::new(start);
        assert!(s.idle(later, timeout));
        s.input(b"get k");
        s.turn(&cache, later);
        assert!(
            !s.idle(later, timeout),
            "a turn with bytes buffered is traffic"
        );
        s.input(b"\r\n");
        s.turn(&cache, later);
        assert!(!s.idle(later + timeout, timeout), "a reply is still unsent");
        s.wrote(s.output().len());
        assert!(s.idle(later + timeout, timeout));
    }

    /// One command of a generated pipelined stream over the keys `k0`..`k3`.
    #[derive(Debug, Clone)]
    enum Op {
        Set {
            key: u8,
            flags: u32,
            len: usize,
            noreply: bool,
        },
        Get(Vec<u8>),
        Delete {
            key: u8,
            noreply: bool,
        },
    }

    /// How a generated stream ends, if it does.
    #[derive(Debug, Clone, Copy)]
    enum End {
        Open,
        Quit,
        /// One of four malformed frames: answered `ERROR`, then closed.
        Bad(u8),
        /// A `set` announcing more than the frame cap: cut off with `ERROR`
        /// once a cap's worth of it has arrived.
        Oversize,
    }

    /// Sets and deletes touch `k1`..`k3`; gets favour `k0`, whose preloaded
    /// value alone is over the write cap.
    fn any_op() -> impl Strategy<Value = Op> {
        let len = prop_oneof![15 => 0usize..64, 1 => 100_000usize..300_000];
        let set = (1u8..4, any::<u32>(), len, any::<bool>());
        let key = prop_oneof![2 => Just(0u8), 1 => 1u8..4];
        prop_oneof![
            3 => set.prop_map(|(key, flags, len, noreply)| Op::Set { key, flags, len, noreply }),
            5 => proptest::collection::vec(key, 1..4).prop_map(Op::Get),
            1 => (1u8..4, any::<bool>()).prop_map(|(key, noreply)| Op::Delete { key, noreply }),
        ]
    }

    fn any_end() -> impl Strategy<Value = End> {
        prop_oneof![
            Just(End::Open),
            Just(End::Quit),
            (0u8..4).prop_map(End::Bad),
            Just(End::Oversize),
        ]
    }

    /// What `k0` holds before a stream starts: one hit on it is over the
    /// write cap, which is where the stall and resume rules live.
    fn preload() -> Vec<u8> {
        (0..DEFAULT_WRITE_QUEUE_CAP + 64 * 1024)
            .map(|j| (j % 251) as u8)
            .collect()
    }

    /// A rendered stream: its bytes, and per frame the offset at which the
    /// session can act on it, its response, and whether it ends the stream.
    struct Stream {
        bytes: Vec<u8>,
        frames: Vec<(usize, Vec<u8>, bool)>,
    }

    impl Stream {
        /// Renders `ops` then `end`, with responses from a map model.
        fn new(ops: &[Op], end: End) -> Stream {
            let mut model = HashMap::from([(0u8, (0u32, preload()))]);
            let mut s = Stream {
                bytes: Vec::new(),
                frames: Vec::new(),
            };
            for (i, op) in ops.iter().enumerate() {
                let mut resp = Vec::new();
                match op {
                    Op::Set {
                        key,
                        flags,
                        len,
                        noreply,
                    } => {
                        let data: Vec<u8> = (0..*len).map(|j| (i * 31 + j) as u8).collect();
                        let nr = if *noreply { " noreply" } else { "" };
                        let head = format!("set k{key} {flags} 0 {len}{nr}\r\n");
                        s.bytes.extend_from_slice(head.as_bytes());
                        s.bytes.extend_from_slice(&data);
                        s.bytes.extend_from_slice(b"\r\n");
                        if !noreply {
                            resp.extend_from_slice(b"STORED\r\n");
                        }
                        model.insert(*key, (*flags, data));
                    }
                    Op::Get(keys) => {
                        let names: Vec<String> = keys.iter().map(|k| format!("k{k}")).collect();
                        s.bytes
                            .extend_from_slice(format!("get {}\r\n", names.join(" ")).as_bytes());
                        for (key, name) in keys.iter().zip(&names) {
                            if let Some((flags, data)) = model.get(key) {
                                resp.extend_from_slice(
                                    format!("VALUE {name} {flags} {}\r\n", data.len()).as_bytes(),
                                );
                                resp.extend_from_slice(data);
                                resp.extend_from_slice(b"\r\n");
                            }
                        }
                        resp.extend_from_slice(b"END\r\n");
                    }
                    Op::Delete { key, noreply } => {
                        let nr = if *noreply { " noreply" } else { "" };
                        s.bytes
                            .extend_from_slice(format!("delete k{key}{nr}\r\n").as_bytes());
                        let hit = model.remove(key).is_some();
                        if !noreply {
                            resp.extend_from_slice(if hit {
                                b"DELETED\r\n"
                            } else {
                                b"NOT_FOUND\r\n"
                            });
                        }
                    }
                }
                s.frames.push((s.bytes.len(), resp, false));
            }
            let error = b"ERROR\r\n".to_vec();
            match end {
                End::Open => {}
                End::Quit => {
                    s.bytes.extend_from_slice(b"quit\r\nget k0\r\n");
                    s.frames
                        .push((s.bytes.len() - b"get k0\r\n".len(), Vec::new(), true));
                }
                End::Bad(n) => {
                    let bad: [&[u8]; 4] = [
                        b"frobnicate\r\n",
                        b"get\r\n",
                        b"set k0 x 0 5\r\n",
                        b"set k0 0 0 3\r\nabcde",
                    ];
                    s.bytes.extend_from_slice(bad[n as usize]);
                    s.frames.push((s.bytes.len(), error, true));
                    s.bytes.extend_from_slice(b"get k0\r\n");
                }
                End::Oversize => {
                    let start = s.bytes.len();
                    s.bytes.extend_from_slice(b"set k0 0 0 2000000\r\n");
                    s.bytes.resize(start + MAX_FRAME_BYTES + 64 * 1024, b'z');
                    s.frames.push((start + MAX_FRAME_BYTES, error, true));
                }
            }
            s
        }

        /// The responses owed once the first `sent` bytes have arrived.
        fn owed(&self, sent: usize) -> Vec<u8> {
            let mut out = Vec::new();
            for (at, resp, last) in &self.frames {
                if *at > sent {
                    break;
                }
                out.extend_from_slice(resp);
                if *last {
                    break;
                }
            }
            out
        }
    }

    /// True when a turn would make progress without more input: a complete
    /// (or malformed) frame is buffered, the frame cap is reached, or EOF
    /// has arrived.
    fn has_work(s: &Session) -> bool {
        !s.closing
            && (s.eof
                || s.buf.len() >= MAX_FRAME_BYTES
                || !matches!(parse(&s.buf), Err(ParseError::Incomplete)))
    }

    /// Plays `stream` against one session as a reactor and a client would,
    /// with every choice — which ready event comes next, how many chunks a
    /// read gets, how much a flush writes, where the client stops sending and
    /// whether it then half-closes — drawn from `seed`, and checks the three
    /// session invariants after every event.
    fn play(stream: &Stream, seed: u64) -> Result<(), TestCaseError> {
        let mut x = seed | 1;
        let mut rand = move |n: usize| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % n as u64) as usize
        };
        let len = stream.bytes.len();
        let cut = if rand(4) != 0 { len } else { rand(len + 1) };
        let half_close = rand(4) != 0;
        let cache = hash_cache();
        cache.set(b"k0", 0, preload());
        let full = stream.owed(len);
        let mut s = Session::new(Instant::now());
        let (mut sent, mut eof_sent, mut more, mut closed) = (0, false, false, false);
        let mut written = Vec::new();
        for step in 0.. {
            prop_assert!(step < 1_000_000, "no end after {step} events");
            let (read, write) = s.want();
            let readable = read && (sent < cut || half_close && !eof_sent);
            let ready: Vec<usize> = [readable, write, more]
                .iter()
                .enumerate()
                .filter_map(|(i, &r)| r.then_some(i))
                .collect();
            if ready.is_empty() {
                break;
            }
            // Clients send faster than they read: favour arrivals, which is
            // how a turn finds commands behind a stalling backlog.
            let event = if readable && rand(3) != 0 {
                0
            } else {
                ready[rand(ready.len())]
            };
            if event == 0 {
                // A read event: the reactor reads until the socket is empty
                // or the session stops wanting input, EOF included.
                for _ in 0..1 + rand(2) {
                    if !s.want().0 || sent == cut {
                        break;
                    }
                    let most = [8, 8, 64, 64, 16 * 1024][rand(5)];
                    let k = (1 + rand(most)).min(cut - sent);
                    s.input(&stream.bytes[sent..sent + k]);
                    sent += k;
                }
                if sent == cut && half_close && s.want().0 {
                    s.eof();
                    eof_sent = true;
                }
            }
            let turn = s.turn(&cache, Instant::now());
            more = turn.more;
            // (ii) never stalled with at most half the cap unsent.
            prop_assert!(
                !s.stalled || s.output().len() > DEFAULT_WRITE_QUEUE_CAP / 2,
                "stalled with {} bytes unsent",
                s.output().len()
            );
            // The flush: a writable event means room for at least a byte.
            let room = match rand(4) {
                0 => usize::MAX,
                _ => rand(64 * 1024) + usize::from(event == 1),
            };
            let n = room.min(s.output().len());
            let at = written.len();
            written.extend_from_slice(&s.output()[..n]);
            s.wrote(n);
            // (i) every byte written is the next byte of the in-order
            // responses.
            prop_assert!(
                full.get(at..written.len()) == Some(&written[at..]),
                "output diverged from the responses at byte {at}"
            );
            if turn.close && s.output().is_empty() {
                closed = true;
                break;
            }
            // (iii) never idle — no turn queued, no writability awaited —
            // while a turn would make progress.
            prop_assert!(
                !has_work(&s) || more || s.want().1,
                "idle with work buffered after {step} events"
            );
        }
        // (i) at the end: exactly the responses to what arrived.
        let owed = stream.owed(sent);
        prop_assert!(
            written == owed,
            "wrote {} bytes, owed {} (sent {sent} of {len}, eof {eof_sent})",
            written.len(),
            owed.len()
        );
        prop_assert!(closed || !eof_sent, "half-closed but never closed");
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        /// The model: arbitrary pipelined streams, arrival, flush and
        /// half-close interleavings against the three invariants — in-order
        /// responses (`ERROR` last on a bad frame), no stall below half the
        /// cap, and no idle session with a command it could execute.
        #[test]
        fn session_keeps_order_backpressure_and_liveness(
            ops in proptest::collection::vec(any_op(), 4..40),
            end in any_end(),
            seed in any::<u64>(),
        ) {
            play(&Stream::new(&ops, end), seed)?;
        }
    }
}
