//! Structural pass: brace/scope tracking over the token stream.
//!
//! Recovers just enough structure for the lints: function boundaries (with
//! nesting), `#[cfg(test)]` regions, call sites with receiver chains and the
//! text of the first argument, and the lines where the `unsafe` keyword
//! appears. Closures and nested blocks attribute to the innermost enclosing
//! `fn`, which is exactly the scope the protocol lints reason about.

use crate::lexer::{blank, tokenize, Allow, Tok, Token};

/// Receiver of a method call, as far as a token scanner can tell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Recv {
    /// Free function or path call (`foo(..)`, `K::foo(..)`).
    None,
    /// `ident.foo(..)` — the identifier before the dot.
    Field(String),
    /// `chain().foo(..)` — the *name* of the call producing the receiver,
    /// e.g. `vlock_ref` for `leaf.vlock_ref().store(..)`.
    CallResult(String),
}

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct Call {
    pub name: String,
    pub line: u32,
    pub recv: Recv,
    /// Path qualifier of a path call, `::`-joined: `std::thread` for
    /// `std::thread::scope(..)`, `thread::Builder` for
    /// `thread::Builder::new()`; empty for a method or bare call.
    pub path: String,
    /// Text of the first argument (blanked source, trimmed, capped).
    pub arg0: String,
}

/// One `fn` item (free function or method).
#[derive(Debug)]
pub struct FnInfo {
    pub name: String,
    pub start_line: u32,
    pub end_line: u32,
    /// Inside a `#[cfg(test)]` region or annotated `#[cfg(test)]`/`#[test]`.
    pub is_test: bool,
    /// Calls in source order (innermost-fn attribution).
    pub calls: Vec<Call>,
}

impl FnInfo {
    pub fn calls_name(&self, name: &str) -> bool {
        self.calls.iter().any(|c| c.name == name)
    }
}

/// Fully parsed file, ready for linting.
#[derive(Debug)]
pub struct ParsedFile {
    /// Path relative to the scan root, with forward slashes.
    pub rel: String,
    pub fns: Vec<FnInfo>,
    pub allows: Vec<Allow>,
    /// Original source lines (1-based access via `line - 1`).
    pub lines: Vec<String>,
    /// Lines containing the `unsafe` keyword (deduped, in order).
    pub unsafe_lines: Vec<u32>,
}

/// Extracts the first argument text after the `(` at byte `open_pos`.
fn first_arg(code: &str, open_pos: usize) -> String {
    let bytes = code.as_bytes();
    debug_assert_eq!(bytes.get(open_pos), Some(&b'('));
    let mut depth = 0i32;
    let mut out = String::new();
    for (k, &b) in bytes.iter().enumerate().skip(open_pos) {
        match b {
            b'(' | b'[' | b'{' => {
                depth += 1;
                if depth > 1 {
                    out.push(b as char);
                }
            }
            b')' | b']' | b'}' => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
                out.push(b as char);
            }
            b',' if depth == 1 => break,
            _ => {
                if depth >= 1 {
                    out.push(b as char);
                }
            }
        }
        if out.len() > 160 || k > open_pos + 600 {
            break;
        }
    }
    out.split_whitespace().collect::<Vec<_>>().join(" ")
}

/// Pending `fn` whose body `{` has not been seen yet.
struct PendingFn {
    name: String,
    line: u32,
    is_test: bool,
}

struct OpenFn {
    info: FnInfo,
    /// Brace depth *inside* the body (depth after the opening `{`).
    body_depth: u32,
}

/// Parses one file's source.
pub fn parse_file(rel: &str, src: &str) -> ParsedFile {
    let blanked = blank(src);
    let toks = tokenize(&blanked.code);
    let lines: Vec<String> = src.lines().map(|l| l.to_string()).collect();

    let mut fns: Vec<FnInfo> = Vec::new();
    let mut stack: Vec<OpenFn> = Vec::new();
    let mut unsafe_lines: Vec<u32> = Vec::new();

    let mut depth: u32 = 0;
    // Depths at which `#[cfg(test)]`-guarded `mod`/`impl` bodies opened.
    let mut test_regions: Vec<u32> = Vec::new();
    let mut pending_fn: Option<PendingFn> = None;
    // Set by `#[cfg(test)]` / `#[test]`; consumed by the next item keyword.
    let mut pending_cfg_test = false;
    // `mod`/`impl` seen while pending_cfg_test: next `{` opens a test region.
    let mut pending_test_container = false;

    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        match &t.tok {
            Tok::Punct(b'#') => {
                // Attribute: `#[...]` or `#![...]`. Scan to the matching `]`.
                let mut j = i + 1;
                if j < toks.len() && toks[j].is(b'!') {
                    j += 1;
                }
                if j < toks.len() && toks[j].is(b'[') {
                    let mut bd = 0i32;
                    let mut has_cfg = false;
                    let mut has_test = false;
                    let mut has_not = false;
                    while j < toks.len() {
                        match &toks[j].tok {
                            Tok::Punct(b'[') => bd += 1,
                            Tok::Punct(b']') => {
                                bd -= 1;
                                if bd == 0 {
                                    break;
                                }
                            }
                            Tok::Ident(s) => {
                                if s == "cfg" {
                                    has_cfg = true;
                                }
                                if s == "test" {
                                    has_test = true;
                                }
                                if s == "not" {
                                    has_not = true;
                                }
                            }
                            _ => {}
                        }
                        j += 1;
                    }
                    // `#[cfg(test)]` (but not `#[cfg(not(test))]`) or bare
                    // `#[test]` (exactly `# [ test ]`).
                    if has_test && !has_not && (has_cfg || j == i + 3) {
                        pending_cfg_test = true;
                    }
                    i = j + 1;
                    continue;
                }
                i += 1;
            }
            Tok::Ident(kw) if kw == "fn" => {
                // Next ident is the name (skip if this is an `fn(..)` type).
                if let Some(name_tok) = toks.get(i + 1) {
                    if let Some(name) = name_tok.ident() {
                        pending_fn = Some(PendingFn {
                            name: name.to_string(),
                            line: name_tok.line,
                            is_test: pending_cfg_test || !test_regions.is_empty(),
                        });
                        pending_cfg_test = false;
                        i += 2;
                        continue;
                    }
                }
                i += 1;
            }
            Tok::Ident(kw) if kw == "mod" || kw == "impl" || kw == "trait" => {
                if pending_cfg_test {
                    pending_test_container = true;
                    pending_cfg_test = false;
                }
                i += 1;
            }
            Tok::Ident(kw) if kw == "unsafe" => {
                if unsafe_lines.last() != Some(&t.line) {
                    unsafe_lines.push(t.line);
                }
                i += 1;
            }
            Tok::Ident(name) => {
                // Other item keywords consume a dangling cfg(test) flag.
                if pending_cfg_test
                    && matches!(
                        name.as_str(),
                        "struct" | "enum" | "const" | "static" | "use" | "type" | "macro_rules"
                    )
                {
                    pending_cfg_test = false;
                }
                // Call detection: ident followed by `(`, or `ident::<..>(`.
                let mut call_open: Option<usize> = None;
                if let Some(next) = toks.get(i + 1) {
                    if next.is(b'(') {
                        call_open = Some(i + 1);
                    } else if next.is(b':')
                        && toks.get(i + 2).is_some_and(|t2| t2.is(b':'))
                        && toks.get(i + 3).is_some_and(|t3| t3.is(b'<'))
                    {
                        // Turbofish: skip to matching `>` then require `(`.
                        let mut ad = 0i32;
                        let mut j = i + 3;
                        while j < toks.len() && j < i + 40 {
                            if toks[j].is(b'<') {
                                ad += 1;
                            } else if toks[j].is(b'>') {
                                ad -= 1;
                                if ad == 0 {
                                    break;
                                }
                            }
                            j += 1;
                        }
                        if toks.get(j + 1).is_some_and(|t2| t2.is(b'(')) {
                            call_open = Some(j + 1);
                        }
                    }
                }
                if let Some(open_idx) = call_open {
                    if let Some(top) = stack.last_mut() {
                        let recv = receiver_of(&toks, i);
                        let arg0 = first_arg(&blanked.code, toks[open_idx].pos);
                        top.info.calls.push(Call {
                            name: name.clone(),
                            line: t.line,
                            recv,
                            path: path_of(&toks, i),
                            arg0,
                        });
                    }
                }
                i += 1;
            }
            Tok::Punct(b'{') => {
                depth += 1;
                if let Some(pf) = pending_fn.take() {
                    stack.push(OpenFn {
                        info: FnInfo {
                            name: pf.name,
                            start_line: pf.line,
                            end_line: pf.line,
                            is_test: pf.is_test,
                            calls: Vec::new(),
                        },
                        body_depth: depth,
                    });
                } else if pending_test_container {
                    pending_test_container = false;
                    test_regions.push(depth);
                }
                i += 1;
            }
            Tok::Punct(b'}') => {
                if let Some(top) = stack.last() {
                    if depth == top.body_depth {
                        let mut f = stack.pop().unwrap().info;
                        f.end_line = t.line;
                        fns.push(f);
                    }
                }
                if test_regions.last() == Some(&depth) {
                    test_regions.pop();
                }
                depth = depth.saturating_sub(1);
                i += 1;
            }
            Tok::Punct(b';') => {
                // Declaration without body (trait method, extern).
                pending_fn = None;
                pending_test_container = false;
                i += 1;
            }
            _ => {
                i += 1;
            }
        }
    }
    // Unterminated fns (shouldn't happen on valid source): close them.
    while let Some(top) = stack.pop() {
        let mut f = top.info;
        f.end_line = lines.len() as u32;
        fns.push(f);
    }
    fns.sort_by_key(|f| f.start_line);

    ParsedFile {
        rel: rel.to_string(),
        fns,
        allows: blanked.allows,
        lines,
        unsafe_lines,
    }
}

/// Path qualifier of the call whose name token is at `idx`: the
/// `ident ::` pairs directly before it, `::`-joined.
fn path_of(toks: &[Token], idx: usize) -> String {
    let mut segs: Vec<&str> = Vec::new();
    let mut j = idx;
    while j >= 3 && toks[j - 1].is(b':') && toks[j - 2].is(b':') {
        let Some(seg) = toks[j - 3].ident() else {
            break;
        };
        segs.push(seg);
        j -= 3;
    }
    segs.reverse();
    segs.join("::")
}

/// Receiver of the call whose name token is at `idx`.
fn receiver_of(toks: &[Token], idx: usize) -> Recv {
    if idx < 1 || !toks[idx - 1].is(b'.') {
        return Recv::None;
    }
    if idx < 2 {
        return Recv::None;
    }
    match &toks[idx - 2].tok {
        Tok::Ident(s) => Recv::Field(s.clone()),
        Tok::Punct(b')') => {
            // Walk back over the balanced `(..)` to the producing call name.
            let mut pd = 0i32;
            let mut j = idx - 2;
            loop {
                if toks[j].is(b')') {
                    pd += 1;
                } else if toks[j].is(b'(') {
                    pd -= 1;
                    if pd == 0 {
                        break;
                    }
                }
                if j == 0 {
                    return Recv::None;
                }
                j -= 1;
            }
            if j >= 1 {
                if let Some(name) = toks[j - 1].ident() {
                    return Recv::CallResult(name.to_string());
                }
            }
            Recv::None
        }
        _ => Recv::None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_fns_and_calls() {
        let src = r#"
impl Foo {
    fn alpha(&self, pool: &Pool) {
        pool.write_word(8, 1);
        pool.persist(8, 8);
    }
}
fn beta() { helper(); }
"#;
        let f = parse_file("x.rs", src);
        assert_eq!(f.fns.len(), 2);
        let alpha = f.fns.iter().find(|f| f.name == "alpha").unwrap();
        assert_eq!(alpha.calls.len(), 2);
        assert_eq!(alpha.calls[0].name, "write_word");
        assert_eq!(alpha.calls[0].recv, Recv::Field("pool".into()));
        assert_eq!(alpha.calls[0].line, 4);
        assert_eq!(alpha.calls[0].arg0, "8");
    }

    #[test]
    fn path_calls_record_their_qualifier() {
        let src = "fn f() { std::thread::scope(|s| s.spawn(g)); thread::Builder::new(); h(); }";
        let f = parse_file("x.rs", src);
        let path = |name: &str| {
            let c = f.fns[0].calls.iter().find(|c| c.name == name).unwrap();
            c.path.clone()
        };
        assert_eq!(path("scope"), "std::thread");
        assert_eq!(path("spawn"), "");
        assert_eq!(path("new"), "thread::Builder");
        assert_eq!(path("h"), "");
    }

    #[test]
    fn chain_receiver_resolves_to_call_name() {
        let src = "fn f(leaf: &Leaf) { leaf.vlock_ref().fetch_add(1, Ordering::Release); }";
        let f = parse_file("x.rs", src);
        let c = &f.fns[0].calls;
        let bump = c.iter().find(|c| c.name == "fetch_add").unwrap();
        assert_eq!(bump.recv, Recv::CallResult("vlock_ref".into()));
    }

    #[test]
    fn cfg_test_mod_marks_fns() {
        let src = r#"
fn live() {}
#[cfg(test)]
mod tests {
    fn helper() {}
    #[test]
    fn case() {}
}
"#;
        let f = parse_file("x.rs", src);
        assert!(!f.fns.iter().find(|f| f.name == "live").unwrap().is_test);
        assert!(f.fns.iter().find(|f| f.name == "helper").unwrap().is_test);
        assert!(f.fns.iter().find(|f| f.name == "case").unwrap().is_test);
    }

    #[test]
    fn unsafe_lines_recorded() {
        let src = "fn f(p: *const u8) -> u8 {\n    unsafe { *p }\n}\n";
        let f = parse_file("x.rs", src);
        assert_eq!(f.unsafe_lines, vec![2]);
    }

    #[test]
    fn closures_attribute_to_enclosing_fn() {
        let src = "fn outer(pool: &Pool) { std::thread::scope(|s| { pool.write_word(0, 1); }); }";
        let f = parse_file("x.rs", src);
        let outer = &f.fns[0];
        assert!(outer.calls_name("write_word"));
    }
}
