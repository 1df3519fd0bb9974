//! Fuzz-style property tests for the memcached text protocol: no input may
//! panic the parser, rendering→parsing round-trips every command, and
//! pipelined command streams run through the server's own per-connection
//! path (`Session`: parse, `set` coalescing, execution) answer like a model.

use std::collections::BTreeMap;
use std::time::Instant;

use fptree_suite::core::{FPTreeVar, Locked, TreeConfig};
use fptree_suite::kvcache::protocol::{parse, Command, ParseError};
use fptree_suite::kvcache::session::Session;
use fptree_suite::kvcache::{Cache, KvCache};
use fptree_suite::pmem::{PmemPool, PoolOptions, ROOT_SLOT};
use proptest::prelude::*;

fn any_key() -> impl Strategy<Value = Vec<u8>> {
    // memcached keys: printable, no whitespace/control, 1..=250 bytes.
    proptest::collection::vec(0x21u8..0x7F, 1..64)
}

/// Feeds `stream` to one `Session` as a pipelining client would — cut into
/// chunks of random size, the last one carrying the half-close — and writes
/// its output back in random amounts, turning it wherever a reactor would.
/// Returns everything the session wrote before it closed.
fn serve_pipelined(cache: &dyn Cache, stream: &[u8], seed: u64) -> Vec<u8> {
    let mut x = seed | 1;
    let mut rand = move |n: usize| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        (x % n as u64) as usize
    };
    let mut s = Session::new(Instant::now());
    let (mut sent, mut written) = (0, Vec::new());
    loop {
        if s.want().0 && sent < stream.len() {
            // Mostly short reads; sometimes everything at once, so runs of
            // sets land in one turn and coalesce.
            let k = if rand(4) == 0 {
                stream.len()
            } else {
                1 + rand(64)
            };
            let k = k.min(stream.len() - sent);
            s.input(&stream[sent..sent + k]);
            sent += k;
            if sent == stream.len() {
                s.eof();
            }
        }
        let turn = s.turn(cache, Instant::now());
        let n = (1 + rand(96)).min(s.output().len());
        written.extend_from_slice(&s.output()[..n]);
        s.wrote(n);
        if turn.close && s.output().is_empty() {
            return written;
        }
        assert!(
            turn.more || s.want() != (false, false),
            "session stalled for good after {sent} of {} bytes",
            stream.len()
        );
    }
}

/// The wire form of `cmd`.
fn render(cmd: &Command) -> Vec<u8> {
    let name = |k: &[u8]| String::from_utf8(k.to_vec()).expect("printable");
    match cmd {
        Command::Set {
            key,
            flags,
            data,
            noreply,
        } => {
            let nr = if *noreply { " noreply" } else { "" };
            let mut msg =
                format!("set {} {flags} 0 {}{nr}\r\n", name(key), data.len()).into_bytes();
            msg.extend_from_slice(data);
            msg.extend_from_slice(b"\r\n");
            msg
        }
        Command::Get { keys } => {
            let keys: Vec<String> = keys.iter().map(|k| name(k)).collect();
            format!("get {}\r\n", keys.join(" ")).into_bytes()
        }
        Command::Delete { key, noreply } => {
            let nr = if *noreply { " noreply" } else { "" };
            format!("delete {}{nr}\r\n", name(key)).into_bytes()
        }
        Command::Scan { start, count } => format!("scan {} {count}\r\n", name(start)).into_bytes(),
        _ => unreachable!("the fuzz streams carry only set/get/delete/scan"),
    }
}

/// Renders one `VALUE` block.
fn value_block(key: &[u8], flags: u32, data: &[u8]) -> Vec<u8> {
    let mut out = format!(
        "VALUE {} {flags} {}\r\n",
        String::from_utf8_lossy(key),
        data.len()
    )
    .into_bytes();
    out.extend_from_slice(data);
    out.extend_from_slice(b"\r\n");
    out
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// Arbitrary bytes never panic the parser.
    #[test]
    fn parser_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = parse(&bytes);
    }

    /// Arbitrary *line-shaped* garbage never panics and never parses as a
    /// valid SET with mismatched framing.
    #[test]
    fn garbage_lines_are_rejected_or_incomplete(
        mut line in "[ -~]{0,80}",
    ) {
        line.push_str("\r\n");
        match parse(line.as_bytes()) {
            Ok((cmd, used)) => {
                // Only well-formed verbs may come out.
                prop_assert!(used <= line.len());
                match cmd {
                    Command::Set { .. } | Command::Get { .. }
                    | Command::Delete { .. } | Command::Scan { .. }
                    | Command::Stats { .. } | Command::Version
                    | Command::Quit => {}
                }
            }
            Err(ParseError::Bad(_)) | Err(ParseError::Incomplete) => {}
        }
    }

    /// SET rendering round-trips through the parser, including binary
    /// payloads containing CR/LF and the optional `noreply` suffix.
    #[test]
    fn set_roundtrips(
        key in any_key(),
        flags in any::<u32>(),
        data in proptest::collection::vec(any::<u8>(), 0..128),
        noreply in any::<bool>(),
    ) {
        let mut msg = format!(
            "set {} {} 0 {}{}\r\n",
            String::from_utf8(key.clone()).expect("printable"),
            flags,
            data.len(),
            if noreply { " noreply" } else { "" },
        ).into_bytes();
        msg.extend_from_slice(&data);
        msg.extend_from_slice(b"\r\n");
        let (cmd, used) = parse(&msg).expect("well-formed SET parses");
        prop_assert_eq!(used, msg.len());
        prop_assert_eq!(cmd, Command::Set { key, flags, data, noreply });
    }

    /// SCAN rendering round-trips through the parser.
    #[test]
    fn scan_roundtrips(start in any_key(), count in 0usize..10_000) {
        let msg = format!(
            "scan {} {count}\r\n",
            String::from_utf8(start.clone()).expect("printable"),
        ).into_bytes();
        let (cmd, used) = parse(&msg).expect("well-formed SCAN parses");
        prop_assert_eq!(used, msg.len());
        prop_assert_eq!(cmd, Command::Scan { start, count });
    }

    /// Any set/get/delete sequence, pipelined into one connection's byte
    /// stream (so consecutive sets coalesce into `set_batch`, in-batch
    /// duplicates included) and cut into random chunks, neither panics nor
    /// corrupts the cache: the session answers exactly what a map model
    /// renders, gets after sets returning the latest data.
    #[test]
    fn command_sequences_execute_safely(
        cmds in proptest::collection::vec(
            (any_key(), proptest::collection::vec(any::<u8>(), 0..32), 0u8..3),
            1..40,
        ),
        seed in any::<u64>(),
    ) {
        let cache = KvCache::new(std::sync::Arc::new(
            fptree_suite::baselines::HashIndex::<Vec<u8>>::new(4),
        ));
        let mut model = std::collections::HashMap::new();
        let (mut stream, mut expect) = (Vec::new(), Vec::new());
        for (key, data, kind) in cmds {
            let cmd = match kind {
                0 => {
                    model.insert(key.clone(), data.clone());
                    expect.extend_from_slice(b"STORED\r\n");
                    Command::Set { key, flags: 1, data, noreply: false }
                }
                1 => {
                    if let Some(data) = model.get(&key) {
                        expect.extend_from_slice(&value_block(&key, 1, data));
                    }
                    expect.extend_from_slice(b"END\r\n");
                    Command::Get { keys: vec![key] }
                }
                _ => {
                    let hit = model.remove(&key).is_some();
                    expect.extend_from_slice(if hit { b"DELETED\r\n" } else { b"NOT_FOUND\r\n" });
                    Command::Delete { key, noreply: false }
                }
            };
            stream.extend_from_slice(&render(&cmd));
        }
        let resp = serve_pipelined(&cache, &stream, seed);
        prop_assert!(resp == expect, "responses diverged from the model");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// The same command mix, pipelined through a `Session` against a
    /// *pool-backed* FPTree index under the durability checker: every store
    /// the cache triggers in SCM — `set_batch` runs included — must follow
    /// the persist-order protocol. A wire `scan` of the whole keyspace
    /// follows every get/delete and ends the stream; each one must equal a
    /// BTreeMap model, in key order. No scan follows a set that another set
    /// follows, because it would split the run that coalesces: the tree's
    /// state inside a run of sets is compared only once the run ends, while
    /// the checker still sees every store. Noreply mutations render nothing
    /// while still taking effect.
    #[test]
    fn pool_backed_commands_are_durability_clean(
        cmds in proptest::collection::vec(
            (any_key(), proptest::collection::vec(any::<u8>(), 0..32), 0u8..4),
            1..40,
        ),
        seed in any::<u64>(),
    ) {
        let pool = std::sync::Arc::new(
            PmemPool::create(PoolOptions::tracked(16 << 20).with_checker()).expect("pool"),
        );
        let tree =
            FPTreeVar::create(std::sync::Arc::clone(&pool), TreeConfig::fptree_var(), ROOT_SLOT);
        let cache = KvCache::new(std::sync::Arc::new(Locked::new(tree)));
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        let (mut stream, mut expect) = (Vec::new(), Vec::new());
        let last = cmds.len() - 1;
        for (i, (key, data, kind)) in cmds.into_iter().enumerate() {
            // Odd kinds go through the silent noreply path.
            let noreply = kind % 2 == 1;
            let cmd = match kind {
                0 | 1 => {
                    model.insert(key.clone(), data.clone());
                    if !noreply {
                        expect.extend_from_slice(b"STORED\r\n");
                    }
                    Command::Set { key, flags: 1, data, noreply }
                }
                2 => {
                    if let Some(data) = model.get(&key) {
                        expect.extend_from_slice(&value_block(&key, 1, data));
                    }
                    expect.extend_from_slice(b"END\r\n");
                    Command::Get { keys: vec![key] }
                }
                _ => {
                    model.remove(&key);
                    Command::Delete { key, noreply }
                }
            };
            let is_set = matches!(cmd, Command::Set { .. });
            stream.extend_from_slice(&render(&cmd));
            // Scans between sets would split the runs that coalesce.
            if !is_set || i == last {
                let scan = Command::Scan { start: vec![0x21], count: usize::MAX };
                stream.extend_from_slice(&render(&scan));
                for (k, v) in &model {
                    expect.extend_from_slice(&value_block(k, 1, v));
                }
                expect.extend_from_slice(b"END\r\n");
            }
        }
        let resp = serve_pipelined(&cache, &stream, seed);
        prop_assert!(resp == expect, "responses or scans diverged from the model");
        let report = pool.take_durability_report();
        prop_assert!(report.events_recorded > 0, "checker saw no events");
        prop_assert!(report.is_clean(), "durability violations:\n{}", report.render());
    }
}

/// Incremental (byte-at-a-time) feeding reaches the same parse as one shot.
#[test]
fn incremental_parsing_matches_oneshot() {
    let msgs: &[&[u8]] = &[
        b"get alpha\r\n",
        b"set beta 7 0 3\r\nxyz\r\n",
        b"set beta 7 0 3 noreply\r\nxyz\r\n",
        b"delete gamma\r\n",
        b"delete gamma noreply\r\n",
        b"scan alpha 10\r\n",
        b"quit\r\n",
    ];
    for msg in msgs {
        let oneshot = parse(msg).expect("full parse");
        // Feed byte by byte; must stay Incomplete until the very end.
        for cut in 1..msg.len() {
            match parse(&msg[..cut]) {
                Err(ParseError::Incomplete) => {}
                Ok((_, used)) => assert!(used <= cut),
                Err(ParseError::Bad(e)) => panic!("prefix declared Bad({e}) at {cut}"),
            }
        }
        assert_eq!(parse(msg).expect("reparse"), oneshot);
    }
}

/// ROADMAP item 1 over the wire: two connections (one per reactor) read and
/// overwrite the *same* sixteen keys. Every value ever written to a key
/// starts with that key and no key is deleted, so each `VALUE` block must
/// carry a requested key, bytes that start with it, and nothing may miss.
#[test]
fn shared_keys_over_two_connections_never_cross() {
    use fptree_suite::core::ConcurrentFPTreeVar;
    use fptree_suite::kvcache::{Cache, Client, ServerBuilder};
    use std::sync::Arc;

    let pool = Arc::new(PmemPool::create(PoolOptions::direct(64 << 20)).expect("pool"));
    let tree = ConcurrentFPTreeVar::create(pool, TreeConfig::fptree_concurrent_var(), ROOT_SLOT);
    let cache = Arc::new(KvCache::new(Arc::new(tree)));
    let server = ServerBuilder::new("127.0.0.1:0")
        .worker_threads(2)
        .serve(Arc::clone(&cache) as Arc<dyn Cache>)
        .expect("bind");
    let keys: Vec<String> = (0..16).map(|k| format!("shared:{k:02}")).collect();
    for key in &keys {
        cache.set(key.as_bytes(), 0, format!("{key}|preload").into_bytes());
    }
    std::thread::scope(|scope| {
        for conn in 0..2u64 {
            let (keys, addr) = (&keys, server.addr);
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let mut x = 0x2545_F491_4F6C_DD1Du64 ^ conn;
                for i in 0..12_000u32 {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let k = (x % 16) as usize;
                    if x >> 60 < 4 {
                        let pad = "x".repeat((x >> 32) as usize % 40);
                        let value = format!("{}|{conn}:{i}:{pad}", keys[k]);
                        client.set(&keys[k], value.as_bytes()).expect("set");
                        continue;
                    }
                    let want = [
                        &keys[k][..],
                        &keys[(k + 5) % 16][..],
                        &keys[(k + 11) % 16][..],
                    ];
                    let want = &want[..1 + (x >> 40) as usize % 3];
                    let got = client.get_multi(want).expect("get");
                    let hit: Vec<&String> = got.iter().map(|(key, _)| key).collect();
                    assert_eq!(
                        hit, want,
                        "a never-deleted key missed, or a foreign key answered"
                    );
                    for (key, data) in &got {
                        assert!(
                            data.starts_with(format!("{key}|").as_bytes()),
                            "{key} answered {:?}",
                            String::from_utf8_lossy(data)
                        );
                    }
                }
            });
        }
    });
    server.shutdown();
    assert_eq!(cache.len(), 16);
}
