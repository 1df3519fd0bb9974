//! The FPTree protocol lints.
//!
//! Seven lints, six mirroring the disciplines PAPER.md §4–5 demand and one
//! keeping the threading model:
//!
//! * `pmem-store-outside-checked-op` — a raw pool store primitive reachable
//!   from outside every `begin_checked_op` RAII window (interprocedural
//!   coverage over a name-based call graph).
//! * `raw-publish` — a *plain* store targeting a known commit word (bitmap,
//!   next pointer, status, log op, list heads, root) instead of going through
//!   `write_publish_word`/`write_publish_at`.
//! * `flush-order` — within one function body: a publish issued while earlier
//!   plain stores are still unflushed, or a publish never followed by a
//!   `persist` before the function returns.
//! * `lock-discipline` — a leaf-lock acquire with no release anywhere in the
//!   same function, or a manual seqlock word bump (`vlock_ref().fetch_add`
//!   and friends) outside the blessed `leaf.rs` implementation.
//! * `unsafe-without-safety` — an `unsafe` keyword with no `SAFETY:` comment
//!   on the same line or in the contiguous comment/attribute block above.
//! * `transient-store` — any pool store or publish primitive targeting a
//!   *transient* leaf word (lock, buffer digest): those live outside the
//!   persistence domain and are written through `atomic_u64` only, never
//!   staged, published or flushed.
//! * `thread-start` — a `thread::scope`, `thread::spawn` or
//!   `thread::Builder` call in library code. A request runs on the thread
//!   that owns its connection, and library fan-outs go through
//!   `fptree_core::config::par_map`; the helper and the server's reactor
//!   start are the reasoned exceptions.

use std::collections::{HashMap, HashSet};

use crate::parse::{Call, FnInfo, ParsedFile, Recv};

/// Lint ids (stable strings used in output, allows, and baselines).
pub const LINT_CHECKED_OP: &str = "pmem-store-outside-checked-op";
pub const LINT_RAW_PUBLISH: &str = "raw-publish";
pub const LINT_FLUSH_ORDER: &str = "flush-order";
pub const LINT_LOCK: &str = "lock-discipline";
pub const LINT_UNSAFE: &str = "unsafe-without-safety";
pub const LINT_TRANSIENT: &str = "transient-store";
pub const LINT_THREAD_START: &str = "thread-start";
/// Suppression-hygiene error: an `analyzer:allow` with no written reason.
pub const LINT_BAD_ALLOW: &str = "bad-allow";

/// All suppressible lint ids.
pub const ALL_LINTS: [&str; 7] = [
    LINT_CHECKED_OP,
    LINT_RAW_PUBLISH,
    LINT_FLUSH_ORDER,
    LINT_LOCK,
    LINT_UNSAFE,
    LINT_TRANSIENT,
    LINT_THREAD_START,
];

/// Severity of a finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Level {
    Error,
    Warning,
}

/// One analyzer finding.
#[derive(Debug, Clone)]
pub struct Finding {
    pub lint: &'static str,
    pub file: String,
    pub line: u32,
    pub message: String,
    pub level: Level,
}

impl Finding {
    fn err(lint: &'static str, file: &str, line: u32, message: String) -> Self {
        Finding {
            lint,
            file: file.to_string(),
            line,
            message,
            level: Level::Error,
        }
    }
}

/// Raw pool store primitives (any receiver).
const STORE_RAW: [&str; 3] = ["write_bytes", "write_at", "write_word"];
/// Publish primitives (`write_publish_bytes` is the multi-word flavor the
/// leaf append-buffer entry commit uses, §5.12).
const PUBLISH_RAW: [&str; 3] = [
    "write_publish_word",
    "write_publish_at",
    "write_publish_bytes",
];
/// Typed store wrappers that stage data without flushing.
const STORE_WRAP: [&str; 3] = ["set_value", "set_fingerprint", "write_slot"];
/// Flush primitives/wrappers (fence + CLFLUSH + fence semantics).
const PERSIST: [&str; 4] = [
    "persist",
    "persist_slots",
    "persist_fingerprints",
    "persist_merged",
];
/// Wrappers that publish *and* persist internally (safe combos).
/// `wbuf_append` commits a buffer entry with one publish + persist;
/// `wbuf_fold` ends with the p-atomic generation bump + persist (§5.12);
/// `commit_slots` is the leaf's one slot commit ([`SLOT_COMMIT`]).
const COMBO: [&str; 9] = [
    "commit_slots",
    "commit_bitmap",
    "set_next",
    "set_status",
    "set_head",
    "set_groups_head",
    "reset_slot",
    "wbuf_append",
    "wbuf_fold",
];
/// The combo that persists the staged slot stores before its own
/// publish: stores ahead of it are its operands, not unflushed ones.
const SLOT_COMMIT: &str = "commit_slots";
/// Leaf-lock acquire entry points.
const ACQUIRE: [&str; 2] = ["try_lock_version", "lock_leaf_for_write"];
/// Leaf-lock release entry points (`reset_lock` is the recovery clobber).
const RELEASE: [&str; 2] = ["unlock_version", "reset_lock"];
/// Atomic ops that would manually mutate a lock word.
const BUMP_OPS: [&str; 6] = [
    "store",
    "fetch_add",
    "fetch_sub",
    "fetch_or",
    "compare_exchange",
    "compare_exchange_weak",
];
/// Accessors whose result is the lock word.
const BUMP_TARGETS: [&str; 1] = ["vlock_ref"];
/// First-argument substrings identifying p-atomic commit words.
const COMMIT_KEYWORDS: [&str; 9] = [
    "bitmap",
    "off_next",
    "status",
    "log_op",
    "m_head",
    "groups_head",
    "root",
    "wbuf_gen",
    "wbuf_entry_off",
];

/// First-argument substrings identifying transient leaf words: the lock
/// word and the buffer digest (§5.16).
const TRANSIENT_KEYWORDS: [&str; 2] = ["off_lock", "off_digest"];

/// The window opener.
const OPENER: &str = "begin_checked_op";

/// Per-file lint configuration (decided by the caller from the path).
#[derive(Debug, Clone, Copy)]
pub struct FileScope {
    /// Run the protocol lints (1–4)? False for non-protocol crates, test
    /// paths, and fixture/bench/example files.
    pub protocol: bool,
    /// This is `crates/pmem/src/pool.rs` — the primitive layer itself.
    pub pool_file: bool,
}

/// Pool-primitive functions exempt from lints 2–3 inside `pool.rs` (their
/// bodies *are* the store/publish/flush implementations).
const POOL_PRIMS: [&str; 11] = [
    "write_bytes",
    "write_bytes_inner",
    "write_at",
    "write_word",
    "write",
    "write_publish_at",
    "write_publish_word",
    "write_publish_bytes",
    "persist",
    "fence",
    "flush_line_to_durable",
];

fn is_raw_store(c: &Call) -> bool {
    STORE_RAW.contains(&c.name.as_str())
        || (c.name == "write" && matches!(&c.recv, Recv::Field(f) if f == "pool"))
}

fn is_publish(c: &Call) -> bool {
    PUBLISH_RAW.contains(&c.name.as_str())
}

fn is_store_like(c: &Call) -> bool {
    is_raw_store(c) || STORE_WRAP.contains(&c.name.as_str())
}

fn is_persist(c: &Call) -> bool {
    PERSIST.contains(&c.name.as_str())
}

fn is_combo(c: &Call) -> bool {
    COMBO.contains(&c.name.as_str())
}

fn fn_eligible(f: &FnInfo, scope: FileScope) -> bool {
    scope.protocol && !f.is_test && !(scope.pool_file && POOL_PRIMS.contains(&f.name.as_str()))
}

/// Calls accepted by `targets` in lint-eligible functions whose first
/// argument names one of `keywords`, with the function and the keyword.
fn stores_naming<'a>(
    file: &'a ParsedFile,
    scope: FileScope,
    targets: fn(&Call) -> bool,
    keywords: &'a [&'a str],
) -> impl Iterator<Item = (&'a FnInfo, &'a Call, &'a str)> {
    file.fns
        .iter()
        .filter(move |f| fn_eligible(f, scope))
        .flat_map(move |f| {
            f.calls
                .iter()
                .filter(move |c| targets(c))
                .filter_map(move |c| {
                    let arg = c.arg0.to_ascii_lowercase();
                    let kw = keywords.iter().find(|kw| arg.contains(**kw))?;
                    Some((f, c, *kw))
                })
        })
}

/// Lint 2: plain store into a commit word.
pub fn lint_raw_publish(file: &ParsedFile, scope: FileScope, out: &mut Vec<Finding>) {
    for (f, c, kw) in stores_naming(file, scope, is_raw_store, &COMMIT_KEYWORDS) {
        out.push(Finding::err(
            LINT_RAW_PUBLISH,
            &file.rel,
            c.line,
            format!(
                "plain `{}` targets commit word `{}` in `{}`; p-atomic commit \
                 records must go through write_publish_word/write_publish_at",
                c.name, kw, f.name
            ),
        ));
    }
}

/// Lint 6: a persistence-API store into a transient leaf word.
pub fn lint_transient_store(file: &ParsedFile, scope: FileScope, out: &mut Vec<Finding>) {
    let any_store = |c: &Call| is_raw_store(c) || is_publish(c);
    for (f, c, kw) in stores_naming(file, scope, any_store, &TRANSIENT_KEYWORDS) {
        out.push(Finding::err(
            LINT_TRANSIENT,
            &file.rel,
            c.line,
            format!(
                "`{}` targets transient word `{}` in `{}`; lock and digest \
                 words are out of the persistence domain and go through pool \
                 atomics (atomic_u64) only",
                c.name, kw, f.name
            ),
        ));
    }
}

/// Lint 7: a thread started in library code.
pub fn lint_thread_start(file: &ParsedFile, scope: FileScope, out: &mut Vec<Finding>) {
    if !scope.protocol {
        return;
    }
    for f in file.fns.iter().filter(|f| !f.is_test) {
        for c in &f.calls {
            let starts = c.path.ends_with("thread::Builder")
                || ((c.path == "thread" || c.path.ends_with("::thread"))
                    && (c.name == "scope" || c.name == "spawn"));
            if starts {
                out.push(Finding::err(
                    LINT_THREAD_START,
                    &file.rel,
                    c.line,
                    format!(
                        "`{}::{}` starts a thread in `{}`; requests run on the \
                         caller's thread and fan-outs go through \
                         fptree_core::config::par_map",
                        c.path, c.name, f.name
                    ),
                ));
            }
        }
    }
}

/// Lint 3: publish ordering within a function body.
pub fn lint_flush_order(file: &ParsedFile, scope: FileScope, out: &mut Vec<Finding>) {
    for f in &file.fns {
        if !fn_eligible(f, scope) {
            continue;
        }
        // Line of the first unflushed plain store, if any.
        let mut pending_store: Option<u32> = None;
        // Line of a publish not yet covered by a later persist.
        let mut open_publish: Option<u32> = None;
        for c in &f.calls {
            if is_persist(c) {
                pending_store = None;
                open_publish = None;
            } else if is_publish(c) || is_combo(c) {
                if let Some(line) = open_publish.take() {
                    out.push(Finding::err(
                        LINT_FLUSH_ORDER,
                        &file.rel,
                        line,
                        format!(
                            "publish in `{}` is not persisted before the next \
                             publish; its commit record may not be durable first",
                            f.name
                        ),
                    ));
                }
                if c.name == SLOT_COMMIT {
                    pending_store = None;
                }
                if let Some(line) = pending_store.take() {
                    out.push(Finding::err(
                        LINT_FLUSH_ORDER,
                        &file.rel,
                        c.line,
                        format!(
                            "publish `{}` in `{}` while the store at line {} is \
                             still unflushed; persist operands before publishing",
                            c.name, f.name, line
                        ),
                    ));
                }
                if is_publish(c) {
                    open_publish = Some(c.line);
                }
            } else if is_store_like(c) {
                pending_store.get_or_insert(c.line);
            }
        }
        if let Some(line) = open_publish {
            out.push(Finding::err(
                LINT_FLUSH_ORDER,
                &file.rel,
                line,
                format!(
                    "publish in `{}` is never followed by a persist in this \
                     function; the commit record may not reach durable media",
                    f.name
                ),
            ));
        }
    }
}

/// Lint 4: leaf-lock discipline.
pub fn lint_lock_discipline(file: &ParsedFile, scope: FileScope, out: &mut Vec<Finding>) {
    let blessed_impl =
        file.rel.ends_with("crates/core/src/leaf.rs") || file.rel == "crates/core/src/leaf.rs";
    for f in &file.fns {
        if !fn_eligible(f, scope) {
            continue;
        }
        let first_acquire = f.calls.iter().find(|c| ACQUIRE.contains(&c.name.as_str()));
        let has_release = f.calls.iter().any(|c| RELEASE.contains(&c.name.as_str()));
        if let Some(acq) = first_acquire {
            if !has_release && !blessed_impl {
                out.push(Finding::err(
                    LINT_LOCK,
                    &file.rel,
                    acq.line,
                    format!(
                        "`{}` acquires a leaf lock via `{}` but never releases \
                         one in this function; pair the acquire with \
                         unlock_version/unlock or justify the handoff",
                        f.name, acq.name
                    ),
                ));
            }
        }
        if blessed_impl {
            continue;
        }
        for c in &f.calls {
            if BUMP_OPS.contains(&c.name.as_str()) {
                if let Recv::CallResult(src) = &c.recv {
                    if BUMP_TARGETS.contains(&src.as_str()) {
                        out.push(Finding::err(
                            LINT_LOCK,
                            &file.rel,
                            c.line,
                            format!(
                                "manual seqlock word mutation `{}().{}` in `{}`; \
                                 version bumps must go through the leaf lock API \
                                 (try_lock_version/unlock_version)",
                                src, c.name, f.name
                            ),
                        ));
                    }
                }
            }
        }
    }
}

/// Lint 5: `unsafe` without a SAFETY comment.
///
/// Accepts `SAFETY` (any case: `SAFETY:`/`# Safety`) on the same line or in
/// the contiguous block of comments/attributes directly above, tolerating one
/// blank line.
pub fn lint_unsafe_safety(file: &ParsedFile, out: &mut Vec<Finding>) {
    'next: for &line in &file.unsafe_lines {
        let idx = line as usize - 1;
        if idx >= file.lines.len() {
            continue;
        }
        if has_safety(&file.lines[idx]) {
            continue;
        }
        let mut blanks = 0;
        let mut j = idx;
        while j > 0 {
            j -= 1;
            let t = file.lines[j].trim();
            if t.is_empty() {
                blanks += 1;
                if blanks > 1 {
                    break;
                }
                continue;
            }
            let is_comment = t.starts_with("//") || t.starts_with("/*") || t.starts_with('*');
            let is_attr = t.starts_with("#[") || t.starts_with("#![");
            if is_comment && has_safety(t) {
                continue 'next;
            }
            if !is_comment && !is_attr {
                break;
            }
        }
        out.push(Finding::err(
            LINT_UNSAFE,
            &file.rel,
            line,
            "`unsafe` without a `// SAFETY:` comment on or above the line".to_string(),
        ));
    }
}

fn has_safety(line: &str) -> bool {
    let lower = line.to_ascii_lowercase();
    lower.contains("safety")
}

/// Lint 1: interprocedural checked-op-window coverage.
///
/// A function is *covered* if it opens a window itself, or if it has at least
/// one in-graph caller and every caller is covered. Raw stores inside
/// uncovered functions are findings. `pool.rs` participates in the graph (its
/// `create`/`reopen` open windows for everything they call) but its own sites
/// are exempt — it is the primitive layer the protocol is built on.
pub fn lint_checked_op(files: &[(ParsedFile, FileScope)], out: &mut Vec<Finding>) {
    // Node set: protocol, non-test fns (pool.rs included for graph edges).
    let mut covered: HashMap<&str, bool> = HashMap::new();
    let mut callers: HashMap<&str, HashSet<&str>> = HashMap::new();
    let mut nodes: Vec<&FnInfo> = Vec::new();

    for (file, scope) in files {
        if !scope.protocol {
            continue;
        }
        for f in &file.fns {
            if f.is_test {
                continue;
            }
            nodes.push(f);
            let opens = f.calls_name(OPENER);
            // Same-name methods across types merge; opening anywhere counts.
            let e = covered.entry(f.name.as_str()).or_insert(false);
            *e = *e || opens;
        }
    }
    let names: HashSet<&str> = covered.keys().copied().collect();
    for f in &nodes {
        for c in &f.calls {
            // Calls chained off the volatile instrumentation accessors
            // (`stats().reset()`, `metrics().reset()`) are outside the
            // persistence domain; don't let them alias pmem methods of the
            // same name.
            if matches!(&c.recv, Recv::CallResult(r) if r == "stats" || r == "metrics") {
                continue;
            }
            if names.contains(c.name.as_str()) && c.name != f.name {
                callers
                    .entry(c.name.as_str())
                    .or_default()
                    .insert(f.name.as_str());
            }
        }
    }
    // Fixpoint: propagate coverage down the call graph.
    let mut changed = true;
    while changed {
        changed = false;
        for name in &names {
            if covered[name] {
                continue;
            }
            let cs = callers.get(name);
            let ok = cs.is_some_and(|cs| !cs.is_empty() && cs.iter().all(|c| covered[c]));
            if ok {
                covered.insert(name, true);
                changed = true;
            }
        }
    }

    for (file, scope) in files {
        if !scope.protocol || scope.pool_file {
            continue;
        }
        for f in &file.fns {
            if f.is_test || covered.get(f.name.as_str()).copied().unwrap_or(false) {
                continue;
            }
            for c in &f.calls {
                if is_raw_store(c) || is_publish(c) {
                    let why = match callers.get(f.name.as_str()) {
                        None => "it has no in-graph caller".to_string(),
                        Some(cs) => {
                            let mut bad: Vec<&str> = cs
                                .iter()
                                .filter(|c| !covered.get(*c).copied().unwrap_or(false))
                                .copied()
                                .collect();
                            bad.sort_unstable();
                            format!("uncovered caller(s): {}", bad.join(", "))
                        }
                    };
                    out.push(Finding::err(
                        LINT_CHECKED_OP,
                        &file.rel,
                        c.line,
                        format!(
                            "pmem store `{}` in `{}` is reachable without an open \
                             checked-op window ({}); open one with begin_checked_op \
                             or route through a covered caller",
                            c.name, f.name, why
                        ),
                    ));
                }
            }
        }
    }
}

/// Runs every lint over the parsed files.
pub fn run_all(files: &[(ParsedFile, FileScope)]) -> Vec<Finding> {
    let mut out = Vec::new();
    lint_checked_op(files, &mut out);
    for (file, scope) in files {
        lint_raw_publish(file, *scope, &mut out);
        lint_transient_store(file, *scope, &mut out);
        lint_flush_order(file, *scope, &mut out);
        lint_lock_discipline(file, *scope, &mut out);
        lint_unsafe_safety(file, &mut out);
        lint_thread_start(file, *scope, &mut out);
    }
    out.sort_by(|a, b| (a.file.as_str(), a.line, a.lint).cmp(&(b.file.as_str(), b.line, b.lint)));
    out
}
