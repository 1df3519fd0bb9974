//! Fuzz-style property tests for the memcached text-protocol parser: no
//! input may panic it, and rendering→parsing round-trips every command.

use std::collections::BTreeMap;

use fptree_suite::core::{FPTreeVar, Locked, TreeConfig};
use fptree_suite::kvcache::protocol::{execute, parse, Command, ParseError};
use fptree_suite::kvcache::KvCache;
use fptree_suite::pmem::{PmemPool, PoolOptions, ROOT_SLOT};
use proptest::prelude::*;

fn any_key() -> impl Strategy<Value = Vec<u8>> {
    // memcached keys: printable, no whitespace/control, 1..=250 bytes.
    proptest::collection::vec(0x21u8..0x7F, 1..64)
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

    /// Executing any parsed command sequence against a cache neither panics
    /// nor corrupts the cache (gets after sets return the latest data).
    #[test]
    fn command_sequences_execute_safely(
        cmds in proptest::collection::vec(
            (any_key(), proptest::collection::vec(any::<u8>(), 0..32), 0u8..3),
            1..40,
        )
    ) {
        let cache = KvCache::new(std::sync::Arc::new(
            fptree_suite::baselines::HashIndex::<Vec<u8>>::new(4),
        ));
        let mut model = std::collections::HashMap::new();
        for (key, data, kind) in cmds {
            let cmd = match kind {
                0 => {
                    model.insert(key.clone(), data.clone());
                    Command::Set { key, flags: 1, data, noreply: false }
                }
                1 => Command::Get { keys: vec![key] },
                _ => {
                    model.remove(&key);
                    Command::Delete { key, noreply: false }
                }
            };
            let resp = execute(&cache, &cmd);
            if let Command::Get { keys } = &cmd {
                match model.get(&keys[0]) {
                    Some(data) => {
                        prop_assert!(resp.starts_with(b"VALUE "), "hit must render VALUE");
                        prop_assert!(resp.ends_with(b"\r\nEND\r\n"));
                        // The payload is embedded verbatim.
                        prop_assert!(
                            resp.windows(data.len().max(1)).any(|w| w == &data[..]) || data.is_empty()
                        );
                    }
                    None => prop_assert_eq!(resp, b"END\r\n".to_vec()),
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// The same command mix executed against a *pool-backed* FPTree index
    /// under the durability checker: every store the cache triggers in SCM
    /// must follow the persist-order protocol. After every step the wire
    /// `scan` output is cross-checked against a BTreeMap model, and noreply
    /// mutations must render nothing while still taking effect.
    #[test]
    fn pool_backed_commands_are_durability_clean(
        cmds in proptest::collection::vec(
            (any_key(), proptest::collection::vec(any::<u8>(), 0..32), 0u8..4),
            1..40,
        )
    ) {
        let pool = std::sync::Arc::new(
            PmemPool::create(PoolOptions::tracked(16 << 20).with_checker()).expect("pool"),
        );
        let tree =
            FPTreeVar::create(std::sync::Arc::clone(&pool), TreeConfig::fptree_var(), ROOT_SLOT);
        let cache = KvCache::new(std::sync::Arc::new(Locked::new(tree)));
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        for (key, data, kind) in cmds {
            // Odd steps go through the silent noreply path.
            let noreply = kind % 2 == 1;
            let cmd = match kind {
                0 | 1 => {
                    model.insert(key.clone(), data.clone());
                    Command::Set { key, flags: 1, data, noreply }
                }
                2 => Command::Get { keys: vec![key] },
                _ => {
                    model.remove(&key);
                    Command::Delete { key, noreply }
                }
            };
            let resp = execute(&cache, &cmd);
            if noreply && !matches!(cmd, Command::Get { .. }) {
                prop_assert!(resp.is_empty(), "noreply must render nothing");
            }
            // Every step: the wire scan over the whole keyspace must equal
            // the model, in key order.
            let scan = Command::Scan { start: vec![0x21], count: usize::MAX };
            let mut expect = Vec::new();
            for (k, v) in &model {
                expect.extend_from_slice(
                    format!("VALUE {} 1 {}\r\n", String::from_utf8_lossy(k), v.len()).as_bytes(),
                );
                expect.extend_from_slice(v);
                expect.extend_from_slice(b"\r\n");
            }
            expect.extend_from_slice(b"END\r\n");
            prop_assert_eq!(execute(&cache, &scan), expect, "scan diverged from model");
        }
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
