//! memcached text protocol (the subset mc-benchmark exercises).
//!
//! `set <key> <flags> <exptime> <bytes> [noreply]\r\n<data>\r\n` → `STORED\r\n`
//! `get <key> [key ...]\r\n` → one `VALUE <key> <flags> <bytes>\r\n<data>\r\n`
//! block per present key (request order), then `END\r\n`
//! `delete <key> [noreply]\r\n` → `DELETED\r\n` / `NOT_FOUND\r\n`
//! `scan <start> <count>\r\n` → `VALUE ...` lines then `END\r\n`
//!
//! `noreply` suppresses the response entirely (memcached semantics: the
//! client pipelines without reading). `scan` is our ordered-index extension:
//! it returns up to `count` items with keys `>= start` in key order, and
//! `SERVER_ERROR` when the configured index cannot scan (hash).
//!
//! Observability commands (memcached-compatible):
//! `version\r\n` → `VERSION <server> proto <n>\r\n`
//! `stats\r\n` → `STAT <name> <value>\r\n` lines then `END\r\n`
//! `stats reset\r\n` → `RESET\r\n` (zeroes the server-side counters)
//!
//! Keys follow memcached's limit of 250 bytes
//! ([`fptree_core::MAX_KEY_BYTES`]); longer keys are a protocol error.

use crate::cache::Cache;
use fptree_core::metrics::Counter;
use fptree_core::MAX_KEY_BYTES;

/// Wire-protocol revision, reported by `version` and `stats`. Bump when the
/// command set or response framing changes incompatibly.
pub const PROTOCOL_VERSION: u32 = 2;

/// A parsed client command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    Set {
        key: Vec<u8>,
        flags: u32,
        data: Vec<u8>,
        /// Suppress the `STORED` response (memcached `noreply`).
        noreply: bool,
    },
    Get {
        /// One or more keys (memcached multi-get); absent keys are simply
        /// skipped in the response.
        keys: Vec<Vec<u8>>,
    },
    Delete {
        key: Vec<u8>,
        /// Suppress the `DELETED`/`NOT_FOUND` response.
        noreply: bool,
    },
    Scan {
        /// First key of the scan (inclusive).
        start: Vec<u8>,
        /// Maximum number of items to return.
        count: usize,
    },
    Stats {
        /// `stats reset`: zero the server-side counters instead of dumping.
        reset: bool,
        /// `stats shards`: dump the per-shard breakdown (`SERVER_ERROR` on
        /// unsharded caches).
        shards: bool,
    },
    Version,
    Quit,
}

/// Protocol-level parse errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// More bytes are needed to complete the command.
    Incomplete,
    /// Malformed command line.
    Bad(&'static str),
}

/// Consumes an optional trailing `noreply` token; any other trailing token
/// is a protocol error.
fn parse_noreply<'a>(
    mut parts: impl Iterator<Item = &'a str>,
    verb: &'static str,
) -> Result<bool, ParseError> {
    match parts.next() {
        None => Ok(false),
        Some("noreply") => match parts.next() {
            None => Ok(true),
            Some(_) => Err(ParseError::Bad(verb)),
        },
        Some(_) => Err(ParseError::Bad(verb)),
    }
}

/// Rejects keys beyond memcached's 250-byte limit.
fn check_key_len(key: &str) -> Result<(), ParseError> {
    if key.len() > MAX_KEY_BYTES {
        Err(ParseError::Bad("key exceeds 250 bytes"))
    } else {
        Ok(())
    }
}

/// Parses one command from `buf`, returning it and the bytes consumed.
pub fn parse(buf: &[u8]) -> Result<(Command, usize), ParseError> {
    let line_end = find_crlf(buf).ok_or(ParseError::Incomplete)?;
    let line = std::str::from_utf8(&buf[..line_end]).map_err(|_| ParseError::Bad("utf8"))?;
    let mut parts = line.split_ascii_whitespace();
    let verb = parts.next().ok_or(ParseError::Bad("empty command"))?;
    match verb {
        "set" => {
            let key = parts.next().ok_or(ParseError::Bad("set: missing key"))?;
            check_key_len(key)?;
            let flags: u32 = parts
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or(ParseError::Bad("set: flags"))?;
            let _exptime = parts.next().ok_or(ParseError::Bad("set: exptime"))?;
            let bytes: usize = parts
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or(ParseError::Bad("set: bytes"))?;
            let noreply = parse_noreply(parts, "set: trailing token")?;
            let data_start = line_end + 2;
            if buf.len() < data_start + bytes + 2 {
                return Err(ParseError::Incomplete);
            }
            if &buf[data_start + bytes..data_start + bytes + 2] != b"\r\n" {
                return Err(ParseError::Bad("set: data not CRLF-terminated"));
            }
            Ok((
                Command::Set {
                    key: key.as_bytes().to_vec(),
                    flags,
                    data: buf[data_start..data_start + bytes].to_vec(),
                    noreply,
                },
                data_start + bytes + 2,
            ))
        }
        "get" => {
            let mut keys = Vec::new();
            for key in parts {
                check_key_len(key)?;
                keys.push(key.as_bytes().to_vec());
            }
            if keys.is_empty() {
                return Err(ParseError::Bad("get: missing key"));
            }
            Ok((Command::Get { keys }, line_end + 2))
        }
        "delete" => {
            let key = parts.next().ok_or(ParseError::Bad("delete: missing key"))?;
            check_key_len(key)?;
            let noreply = parse_noreply(parts, "delete: trailing token")?;
            Ok((
                Command::Delete {
                    key: key.as_bytes().to_vec(),
                    noreply,
                },
                line_end + 2,
            ))
        }
        "scan" => {
            let start = parts.next().ok_or(ParseError::Bad("scan: missing start"))?;
            let count: usize = parts
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or(ParseError::Bad("scan: count"))?;
            if parts.next().is_some() {
                return Err(ParseError::Bad("scan: trailing token"));
            }
            Ok((
                Command::Scan {
                    start: start.as_bytes().to_vec(),
                    count,
                },
                line_end + 2,
            ))
        }
        "stats" => {
            let (reset, shards) = match parts.next() {
                None => (false, false),
                Some(arg @ ("reset" | "shards")) => match parts.next() {
                    None => (arg == "reset", arg == "shards"),
                    Some(_) => return Err(ParseError::Bad("stats: trailing token")),
                },
                Some(_) => return Err(ParseError::Bad("stats: unknown argument")),
            };
            Ok((Command::Stats { reset, shards }, line_end + 2))
        }
        "version" => {
            if parts.next().is_some() {
                return Err(ParseError::Bad("version: trailing token"));
            }
            Ok((Command::Version, line_end + 2))
        }
        "quit" => Ok((Command::Quit, line_end + 2)),
        _ => Err(ParseError::Bad("unknown verb")),
    }
}

fn find_crlf(buf: &[u8]) -> Option<usize> {
    buf.windows(2).position(|w| w == b"\r\n")
}

/// Executes a command against the cache, appending the rendered response to
/// `out` (nothing for `noreply` commands and for `quit`). A server session
/// renders a whole turn's responses into its one output buffer this way.
pub fn execute_into(cache: &dyn Cache, cmd: &Command, out: &mut Vec<u8>) {
    match cmd {
        Command::Set {
            key,
            flags,
            data,
            noreply,
        } => {
            cache.metrics().inc(Counter::CmdSet);
            cache.set(key, *flags, data.clone());
            if !*noreply {
                out.extend_from_slice(b"STORED\r\n");
            }
        }
        Command::Get { keys } => {
            cache.metrics().inc(Counter::CmdGet);
            for (key, item) in keys.iter().zip(cache.get_many(keys)) {
                if let Some((flags, data)) = item {
                    push_value(out, key, flags, &data);
                }
            }
            out.extend_from_slice(b"END\r\n");
        }
        Command::Delete { key, noreply } => {
            cache.metrics().inc(Counter::CmdDelete);
            let deleted = cache.delete(key);
            if !*noreply {
                out.extend_from_slice(if deleted {
                    b"DELETED\r\n"
                } else {
                    b"NOT_FOUND\r\n"
                });
            }
        }
        Command::Scan { start, count } => {
            cache.metrics().inc(Counter::CmdScan);
            match cache.scan(start, *count) {
                Some(items) => {
                    for (key, flags, data) in &items {
                        push_value(out, key, *flags, data);
                    }
                    out.extend_from_slice(b"END\r\n");
                }
                None => out.extend_from_slice(b"SERVER_ERROR scan not supported by this index\r\n"),
            }
        }
        Command::Stats { reset, shards } => {
            cache.metrics().inc(Counter::CmdStats);
            if *reset {
                cache.reset_stats();
                out.extend_from_slice(b"RESET\r\n");
            } else if *shards {
                out.extend_from_slice(&render_shard_stats(cache));
            } else {
                out.extend_from_slice(&render_stats(cache));
            }
        }
        Command::Version => {
            cache.metrics().inc(Counter::CmdVersion);
            out.extend_from_slice(version_line().as_bytes());
        }
        Command::Quit => {}
    }
}

/// The `version` response: server name/version plus the wire-protocol
/// revision, e.g. `VERSION fptree-kvcache/0.1.0 proto 2\r\n`.
pub fn version_line() -> String {
    format!(
        "VERSION fptree-kvcache/{} proto {}\r\n",
        env!("CARGO_PKG_VERSION"),
        PROTOCOL_VERSION
    )
}

/// Renders the memcached `stats` response: one `STAT <name> <value>\r\n`
/// line per snapshot field, closed by `END\r\n`. The first two lines carry
/// the server version and protocol revision like memcached's `STAT version`.
fn render_stats(cache: &dyn Cache) -> Vec<u8> {
    let mut out = String::new();
    out.push_str(&format!(
        "STAT version {}\r\nSTAT protocol {}\r\n",
        env!("CARGO_PKG_VERSION"),
        PROTOCOL_VERSION
    ));
    for (name, value) in cache.stats_snapshot().fields() {
        out.push_str(&format!("STAT {name} {value}\r\n"));
    }
    out.push_str("END\r\n");
    out.into_bytes()
}

/// Renders the `stats shards` response: per shard, one
/// `STAT shard<i>:<name> <value>\r\n` line per snapshot field, closed by
/// `END\r\n`; `SERVER_ERROR` when the cache is not sharded.
fn render_shard_stats(cache: &dyn Cache) -> Vec<u8> {
    let Some(snapshots) = cache.shard_stats() else {
        return b"SERVER_ERROR cache is not sharded\r\n".to_vec();
    };
    let mut out = String::new();
    out.push_str(&format!("STAT shards {}\r\n", snapshots.len()));
    for (i, snap) in snapshots.iter().enumerate() {
        for (name, value) in snap.fields() {
            out.push_str(&format!("STAT shard{i}:{name} {value}\r\n"));
        }
    }
    out.push_str("END\r\n");
    out.into_bytes()
}

/// Renders one `VALUE <key> <flags> <bytes>\r\n<data>\r\n` block.
fn push_value(out: &mut Vec<u8>, key: &[u8], flags: u32, data: &[u8]) {
    out.extend_from_slice(
        format!(
            "VALUE {} {} {}\r\n",
            String::from_utf8_lossy(key),
            flags,
            data.len()
        )
        .as_bytes(),
    );
    out.extend_from_slice(data);
    out.extend_from_slice(b"\r\n");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::KvCache;
    use fptree_baselines::HashIndex;
    use std::sync::Arc;

    fn cache() -> KvCache {
        KvCache::new(Arc::new(HashIndex::<Vec<u8>>::new(4)))
    }

    /// The rendered response to `cmd`.
    fn execute(cache: &dyn Cache, cmd: &Command) -> Vec<u8> {
        let mut out = Vec::new();
        execute_into(cache, cmd, &mut out);
        out
    }

    #[test]
    fn parse_set() {
        let buf = b"set mykey 7 0 5\r\nhello\r\n";
        let (cmd, used) = parse(buf).unwrap();
        assert_eq!(used, buf.len());
        assert_eq!(
            cmd,
            Command::Set {
                key: b"mykey".to_vec(),
                flags: 7,
                data: b"hello".to_vec(),
                noreply: false,
            }
        );
    }

    #[test]
    fn parse_get_delete_quit() {
        assert_eq!(
            parse(b"get k\r\n").unwrap().0,
            Command::Get {
                keys: vec![b"k".to_vec()]
            }
        );
        assert_eq!(
            parse(b"delete k\r\n").unwrap().0,
            Command::Delete {
                key: b"k".to_vec(),
                noreply: false,
            }
        );
        assert_eq!(parse(b"quit\r\n").unwrap().0, Command::Quit);
    }

    #[test]
    fn parse_noreply_suffix() {
        let buf = b"set k 1 0 2 noreply\r\nhi\r\n";
        let (cmd, used) = parse(buf).unwrap();
        assert_eq!(used, buf.len());
        assert_eq!(
            cmd,
            Command::Set {
                key: b"k".to_vec(),
                flags: 1,
                data: b"hi".to_vec(),
                noreply: true,
            }
        );
        assert_eq!(
            parse(b"delete k noreply\r\n").unwrap().0,
            Command::Delete {
                key: b"k".to_vec(),
                noreply: true,
            }
        );
        // Anything after `noreply` (or in its place) is malformed.
        assert!(matches!(
            parse(b"set k 1 0 2 noreply x\r\nhi\r\n"),
            Err(ParseError::Bad(_))
        ));
        assert!(matches!(
            parse(b"set k 1 0 2 bogus\r\nhi\r\n"),
            Err(ParseError::Bad(_))
        ));
        assert!(matches!(
            parse(b"delete k bogus\r\n"),
            Err(ParseError::Bad(_))
        ));
    }

    #[test]
    fn parse_scan() {
        assert_eq!(
            parse(b"scan user:0001 50\r\n").unwrap().0,
            Command::Scan {
                start: b"user:0001".to_vec(),
                count: 50,
            }
        );
        assert!(matches!(parse(b"scan\r\n"), Err(ParseError::Bad(_))));
        assert!(matches!(parse(b"scan k\r\n"), Err(ParseError::Bad(_))));
        assert!(matches!(parse(b"scan k x\r\n"), Err(ParseError::Bad(_))));
        assert!(matches!(parse(b"scan k 5 y\r\n"), Err(ParseError::Bad(_))));
    }

    #[test]
    fn parse_incomplete() {
        assert_eq!(
            parse(b"set k 0 0 5\r\nhel").unwrap_err(),
            ParseError::Incomplete
        );
        assert_eq!(parse(b"get k").unwrap_err(), ParseError::Incomplete);
    }

    #[test]
    fn parse_pipelined() {
        let buf = b"set a 0 0 1\r\nx\r\nget a\r\n";
        let (c1, used) = parse(buf).unwrap();
        assert!(matches!(c1, Command::Set { .. }));
        let (c2, used2) = parse(&buf[used..]).unwrap();
        assert_eq!(
            c2,
            Command::Get {
                keys: vec![b"a".to_vec()]
            }
        );
        assert_eq!(used + used2, buf.len());
    }

    #[test]
    fn parse_multi_key_get() {
        assert_eq!(
            parse(b"get k1 k2 k3\r\n").unwrap().0,
            Command::Get {
                keys: vec![b"k1".to_vec(), b"k2".to_vec(), b"k3".to_vec()]
            }
        );
        // A bare `get` is still malformed.
        assert!(matches!(parse(b"get\r\n"), Err(ParseError::Bad(_))));
        // Every key of a multi-get honors the 250-byte limit.
        let long = "k".repeat(MAX_KEY_BYTES + 1);
        assert!(matches!(
            parse(format!("get ok {long}\r\n").as_bytes()),
            Err(ParseError::Bad(_))
        ));
    }

    #[test]
    fn execute_multi_key_get() {
        let c = cache();
        for (k, v) in [("a", "1"), ("b", "2"), ("d", "4")] {
            let (set, _) = parse(format!("set {k} 0 0 1\r\n{v}\r\n").as_bytes()).unwrap();
            execute(&c, &set);
        }
        // Present keys answer in request order; absent keys are skipped.
        let (get, _) = parse(b"get b missing a d\r\n").unwrap();
        assert_eq!(
            execute(&c, &get),
            b"VALUE b 0 1\r\n2\r\nVALUE a 0 1\r\n1\r\nVALUE d 0 1\r\n4\r\nEND\r\n"
        );
        // All absent: just END.
        let (get, _) = parse(b"get x y\r\n").unwrap();
        assert_eq!(execute(&c, &get), b"END\r\n");
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(matches!(parse(b"frobnicate\r\n"), Err(ParseError::Bad(_))));
        assert!(matches!(parse(b"set k x 0 5\r\n"), Err(ParseError::Bad(_))));
    }

    #[test]
    fn parse_stats_and_version() {
        assert_eq!(
            parse(b"stats\r\n").unwrap().0,
            Command::Stats {
                reset: false,
                shards: false
            }
        );
        assert_eq!(
            parse(b"stats reset\r\n").unwrap().0,
            Command::Stats {
                reset: true,
                shards: false
            }
        );
        assert_eq!(
            parse(b"stats shards\r\n").unwrap().0,
            Command::Stats {
                reset: false,
                shards: true
            }
        );
        assert_eq!(parse(b"version\r\n").unwrap().0, Command::Version);
        assert!(matches!(parse(b"stats bogus\r\n"), Err(ParseError::Bad(_))));
        assert!(matches!(
            parse(b"stats reset x\r\n"),
            Err(ParseError::Bad(_))
        ));
        assert!(matches!(
            parse(b"stats shards x\r\n"),
            Err(ParseError::Bad(_))
        ));
        assert!(matches!(parse(b"version x\r\n"), Err(ParseError::Bad(_))));
    }

    #[test]
    fn parse_rejects_oversized_keys() {
        let long = "k".repeat(MAX_KEY_BYTES + 1);
        assert!(matches!(
            parse(format!("get {long}\r\n").as_bytes()),
            Err(ParseError::Bad(_))
        ));
        assert!(matches!(
            parse(format!("set {long} 0 0 1\r\nx\r\n").as_bytes()),
            Err(ParseError::Bad(_))
        ));
        assert!(matches!(
            parse(format!("delete {long}\r\n").as_bytes()),
            Err(ParseError::Bad(_))
        ));
        // Exactly at the limit is fine.
        let max = "k".repeat(MAX_KEY_BYTES);
        assert!(parse(format!("get {max}\r\n").as_bytes()).is_ok());
    }

    #[test]
    fn execute_version_reports_protocol() {
        let c = cache();
        let (cmd, _) = parse(b"version\r\n").unwrap();
        let resp = String::from_utf8(execute(&c, &cmd)).unwrap();
        assert!(resp.starts_with("VERSION fptree-kvcache/"));
        assert!(resp.ends_with(&format!("proto {PROTOCOL_VERSION}\r\n")));
    }

    #[test]
    fn execute_stats_renders_memcached_format() {
        let c = cache();
        for cmd in ["set k 0 0 2\r\nhi\r\n", "get k\r\n", "get missing\r\n"] {
            let (cmd, _) = parse(cmd.as_bytes()).unwrap();
            execute(&c, &cmd);
        }
        let (stats, _) = parse(b"stats\r\n").unwrap();
        let resp = String::from_utf8(execute(&c, &stats)).unwrap();
        assert!(resp.ends_with("END\r\n"));
        let mut lines = resp.lines().collect::<Vec<_>>();
        assert_eq!(lines.pop(), Some("END"));
        // Every remaining line is `STAT <name> <value>`.
        for line in &lines {
            let mut parts = line.split(' ');
            assert_eq!(parts.next(), Some("STAT"));
            assert!(parts.next().is_some());
            assert!(parts.next().is_some());
        }
        let field = |name: &str| {
            lines
                .iter()
                .find_map(|l| l.strip_prefix(&format!("STAT {name} ")))
                .map(|v| v.to_owned())
        };
        assert_eq!(field("protocol"), Some(PROTOCOL_VERSION.to_string()));
        assert_eq!(field("curr_items"), Some("1".to_string()));
        if fptree_core::Metrics::enabled() {
            assert_eq!(field("cmd_get"), Some("2".to_string()));
            assert_eq!(field("cmd_set"), Some("1".to_string()));
            assert_eq!(field("cache_hits"), Some("1".to_string()));
            assert_eq!(field("cache_misses"), Some("1".to_string()));
        }
    }

    #[test]
    fn execute_stats_shards_needs_sharded_cache() {
        // Unsharded: SERVER_ERROR.
        let c = cache();
        let (cmd, _) = parse(b"stats shards\r\n").unwrap();
        assert!(execute(&c, &cmd).starts_with(b"SERVER_ERROR"));

        // Sharded: one STAT shard<i>:<name> section per shard.
        let sharded = crate::ShardedCache::new(
            (0..2)
                .map(|_| {
                    Arc::new(HashIndex::<Vec<u8>>::new(4))
                        as Arc<dyn fptree_core::index::BytesIndex>
                })
                .collect(),
        );
        for i in 0..20u32 {
            sharded.set(format!("k{i}").as_bytes(), 0, b"v".to_vec());
        }
        let resp = String::from_utf8(execute(&sharded, &cmd)).unwrap();
        assert!(resp.ends_with("END\r\n"));
        assert!(resp.starts_with("STAT shards 2\r\n"));
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
    }

    #[test]
    fn execute_stats_reset_zeroes_counters() {
        let c = cache();
        let (set, _) = parse(b"set k 0 0 2\r\nhi\r\n").unwrap();
        execute(&c, &set);
        let (reset, _) = parse(b"stats reset\r\n").unwrap();
        assert_eq!(execute(&c, &reset), b"RESET\r\n");
        let snap = c.stats_snapshot();
        assert_eq!(snap.get("cmd_set"), Some(0));
        // stats reset leaves the data itself untouched.
        assert_eq!(c.get(b"k").unwrap().1, b"hi".to_vec());
    }

    #[test]
    fn execute_set_get_delete() {
        let c = cache();
        let (set, _) = parse(b"set k 3 0 2\r\nhi\r\n").unwrap();
        assert_eq!(execute(&c, &set), b"STORED\r\n");
        let (get, _) = parse(b"get k\r\n").unwrap();
        assert_eq!(execute(&c, &get), b"VALUE k 3 2\r\nhi\r\nEND\r\n");
        let (del, _) = parse(b"delete k\r\n").unwrap();
        assert_eq!(execute(&c, &del), b"DELETED\r\n");
        assert_eq!(execute(&c, &del), b"NOT_FOUND\r\n");
        assert_eq!(execute(&c, &get), b"END\r\n");
    }

    #[test]
    fn execute_noreply_is_silent() {
        let c = cache();
        let (set, _) = parse(b"set k 3 0 2 noreply\r\nhi\r\n").unwrap();
        assert_eq!(execute(&c, &set), b"");
        assert_eq!(c.get(b"k").unwrap().1, b"hi".to_vec());
        let (del, _) = parse(b"delete k noreply\r\n").unwrap();
        assert_eq!(execute(&c, &del), b"");
        assert!(c.get(b"k").is_none());
        // noreply delete of a missing key is silent too.
        assert_eq!(execute(&c, &del), b"");
    }

    #[test]
    fn execute_scan_on_hash_is_server_error() {
        let c = cache();
        let (scan, _) = parse(b"scan a 10\r\n").unwrap();
        let resp = execute(&c, &scan);
        assert!(resp.starts_with(b"SERVER_ERROR"));
    }

    #[test]
    fn binary_safe_values() {
        let c = cache();
        let mut buf = b"set bin 0 0 4\r\n".to_vec();
        buf.extend_from_slice(&[0, 255, 13, 10]); // includes CR LF bytes
        buf.extend_from_slice(b"\r\n");
        let (cmd, used) = parse(&buf).unwrap();
        assert_eq!(used, buf.len());
        execute(&c, &cmd);
        assert_eq!(c.get(b"bin").unwrap().1, vec![0, 255, 13, 10]);
    }
}
