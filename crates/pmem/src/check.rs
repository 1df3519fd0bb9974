//! Persist-order durability checker: a pmemcheck-style analysis layer.
//!
//! SCM code is only correct if every store is explicitly flushed, and if
//! *commit records* (the 8-byte p-atomic writes that make an operation
//! visible: allocator log opcodes, leaf bitmaps, next pointers, tree status
//! words) reach durability strictly *after* the data they guard. Violations
//! of this discipline do not fail under normal execution — they only
//! manifest as corruption after a power failure at exactly the wrong
//! instruction. The checker makes them fail deterministically instead, the
//! way Valgrind's pmemcheck does for real persistent memory programs.
//!
//! # Event model
//!
//! When the checker is enabled ([`PmemPool::enable_durability_checker`](crate::PmemPool::enable_durability_checker) or
//! [`PoolOptions::with_checker`](crate::PoolOptions::with_checker)), the
//! pool records an append-only trace of persistence events, each stamped
//! with a monotonically increasing *epoch*:
//!
//! * **Store** — a tracked write (`write_bytes` / `write_at` /
//!   `write_word`), with offset and length;
//! * **Publish** — a store issued through the publish API
//!   ([`PmemPool::write_publish_word`](crate::PmemPool::write_publish_word) / [`PmemPool::write_publish_at`](crate::PmemPool::write_publish_at)),
//!   marking it as a commit record whose durability must be ordered after
//!   its operands;
//! * **Flush** — a `persist` call, covering a cache-line range;
//! * **Fence** — an explicit `fence` call (bookkeeping only; the simulator
//!   is sequentially consistent per pool, so `persist` already implies the
//!   paper's fence–flush–fence sequence).
//!
//! Transient in-pool atomics (`atomic_u64`, the leaf locks)
//! bypass the trace by design: the paper never persists lock words and
//! recovery resets them.
//!
//! Stores and publishes are attributed to the innermost *checked operation*
//! open on the current thread ([`PmemPool::begin_checked_op`](crate::PmemPool::begin_checked_op)); flushes and
//! fences are global effects and are visible to every open operation.
//! Operations nest: a tree insert that allocates opens a nested allocator
//! operation, and each is analyzed independently. Nothing is recorded while
//! no operation is open, which bounds trace memory. Because attribution is
//! per-thread, multi-threaded phases (the parallel recovery audit) must open
//! one checked operation *per worker thread* — stores issued by a thread
//! with no open operation are silently unattributed and escape analysis.
//!
//! # Detectors
//!
//! When a checked operation ends (guard drop), its event window is analyzed:
//!
//! 1. **MissingFlush** — an 8-byte word stored by the operation has no
//!    covering line flush after its last store: the data can be lost
//!    entirely at a crash even though the operation returned.
//! 2. **UnorderedPublish** — an operand word stored before a publish is
//!    first flushed *at or after* the flush that makes the publish durable.
//!    Words survive a crash independently even within one cache line, so
//!    flushing the commit record in the same `persist` call as (or earlier
//!    than) its operands means a crash can persist the commit while losing
//!    the data it guards.
//! 3. **TornPublish** — a publish store whose bytes straddle an 8-byte
//!    word boundary without being a whole-word sequence: some word of the
//!    commit record can be half-written at a crash. Word-aligned multiples
//!    of 8 bytes are allowed anywhere (even across cache lines — words
//!    survive independently): by the pool-wide convention a
//!    [`RawPPtr`](crate::RawPPtr) commits on its offset word and recovery
//!    tolerates a torn file-id word.
//! 4. **UnpublishedMultiWord** — a plain store crossing the 8-byte
//!    p-atomicity boundary with no commit record published after it: a
//!    crash can tear the write and nothing marks it incomplete.
//!
//! Two non-fatal warnings are counted as well (detector (c) of the issue):
//! **redundant flushes** of lines with no unflushed store, and flushes of
//! **never-written** lines — both wasted `CLFLUSH` traffic.
//!
//! If an operation unwinds (in particular when the crash fuse fires), its
//! window is discarded without analysis: a crashed operation is *supposed*
//! to leave unflushed stores behind, and recovery — itself run under the
//! checker — is what must be clean.

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};

use crate::pool::{CACHE_LINE, PATOMIC_SIZE};

/// Cap on individually retained [`Violation`]s; the total count keeps
/// incrementing past it.
const MAX_KEPT_VIOLATIONS: usize = 64;

/// Classification of a durability-protocol violation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationKind {
    /// A stored word was never flushed before the operation ended.
    MissingFlush,
    /// A commit record was not fence/flush-separated from its operands.
    UnorderedPublish,
    /// A publish store that cannot be made durable p-atomically.
    TornPublish,
    /// A multi-word store with no commit record published after it.
    UnpublishedMultiWord,
}

impl std::fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ViolationKind::MissingFlush => "missing-flush",
            ViolationKind::UnorderedPublish => "unordered-publish",
            ViolationKind::TornPublish => "torn-publish",
            ViolationKind::UnpublishedMultiWord => "unpublished-multi-word",
        };
        f.write_str(s)
    }
}

/// One durability-protocol violation found by the checker.
#[derive(Debug, Clone)]
pub struct Violation {
    /// What rule was broken.
    pub kind: ViolationKind,
    /// Label of the checked operation the violation occurred in.
    pub op_label: &'static str,
    /// Pool offset of the offending word (or store start).
    pub offset: u64,
    /// Human-readable explanation.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{}] op `{}` at {:#x}: {}",
            self.kind, self.op_label, self.offset, self.detail
        )
    }
}

/// Accumulated result of running the durability checker.
#[derive(Debug, Clone, Default)]
pub struct DurabilityReport {
    /// Checked operations analyzed (aborted/crashed operations excluded).
    pub ops_checked: u64,
    /// Trace events recorded (stores, publishes, flushes, fences).
    pub events_recorded: u64,
    /// Total violations found (may exceed `violations.len()`).
    pub total_violations: u64,
    /// Violations from the missing-flush detector.
    pub missing_flush: u64,
    /// Violations from the unordered-publish detector.
    pub unordered_publish: u64,
    /// Violations from the torn-publish detector.
    pub torn_publish: u64,
    /// Violations from the unpublished-multi-word detector.
    pub unpublished_multi_word: u64,
    /// Line flushes with no unflushed store to flush (wasted CLFLUSH).
    pub redundant_clean_flushes: u64,
    /// Line flushes of lines never stored to while the checker was enabled.
    pub unwritten_line_flushes: u64,
    /// Retained violations, capped at an internal limit.
    pub violations: Vec<Violation>,
}

impl DurabilityReport {
    /// True if no violation was found (warnings do not count).
    pub fn is_clean(&self) -> bool {
        self.total_violations == 0
    }

    /// Multi-line human-readable summary.
    pub fn render(&self) -> String {
        let mut out = format!(
            "durability checker: {} ops, {} events, {} violations \
             ({} redundant flushes, {} unwritten-line flushes)\n",
            self.ops_checked,
            self.events_recorded,
            self.total_violations,
            self.redundant_clean_flushes,
            self.unwritten_line_flushes
        );
        for v in &self.violations {
            out.push_str(&format!("  {v}\n"));
        }
        if self.total_violations > self.violations.len() as u64 {
            out.push_str(&format!(
                "  ... and {} more\n",
                self.total_violations - self.violations.len() as u64
            ));
        }
        out
    }
}

/// Trace event kind (internal).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Store,
    Publish,
    Flush,
    Fence,
}

/// One trace event. Its epoch is implicit: `CheckerState::base` plus its
/// index in the event vector.
#[derive(Debug, Clone, Copy)]
struct Event {
    kind: Kind,
    /// Owning operation for stores/publishes; 0 for flushes/fences.
    op: u64,
    off: u64,
    len: u32,
}

/// A checked operation still in progress.
struct OpenOp {
    id: u64,
    label: &'static str,
    /// Absolute epoch of the first event in this operation's window.
    begin: u64,
}

/// Internal checker state; one per pool, behind its own mutex.
#[derive(Default)]
pub(crate) struct CheckerState {
    events: Vec<Event>,
    /// Absolute epoch of `events[0]` (events before it have been drained).
    base: u64,
    open: Vec<OpenOp>,
    next_op: u64,
    /// Lines with at least one store not yet covered by a flush.
    line_dirty: HashSet<u64>,
    /// Lines ever stored to while the checker was enabled.
    line_written: HashSet<u64>,
    report: DurabilityReport,
}

// Per-thread stack of open checked operations: (pool identity, op id).
// Innermost entry for a given pool wins, so nested operations (a tree op
// that allocates) attribute their stores to the inner window.
thread_local! {
    static OP_STACK: RefCell<Vec<(usize, u64)>> = const { RefCell::new(Vec::new()) };
}

/// Innermost open operation for `pool` on this thread.
pub(crate) fn current_op(pool: usize) -> Option<u64> {
    OP_STACK.with(|s| {
        s.borrow()
            .iter()
            .rev()
            .find(|(p, _)| *p == pool)
            .map(|&(_, id)| id)
    })
}

/// Pushes an operation onto this thread's stack.
pub(crate) fn push_op(pool: usize, id: u64) {
    OP_STACK.with(|s| s.borrow_mut().push((pool, id)));
}

/// Removes `(pool, id)` from this thread's stack (search from the top:
/// guards drop in reverse open order, but a stray out-of-order drop must
/// still only remove its own entry).
pub(crate) fn pop_op(pool: usize, id: u64) {
    OP_STACK.with(|s| {
        let mut st = s.borrow_mut();
        if let Some(i) = st.iter().rposition(|&(p, o)| p == pool && o == id) {
            st.remove(i);
        }
    });
}

/// Cache line containing byte offset `off`.
#[inline]
fn line_of(off: u64) -> u64 {
    off & !(CACHE_LINE as u64 - 1)
}

/// Iterator over the cache lines covering `[off, off + len)`.
fn lines(off: u64, len: usize) -> impl Iterator<Item = u64> {
    let first = line_of(off);
    let last = line_of(off + len.max(1) as u64 - 1);
    (first..=last).step_by(CACHE_LINE)
}

/// Iterator over the 8-byte words covering `[off, off + len)`.
fn words(off: u64, len: usize) -> impl Iterator<Item = u64> {
    let w = PATOMIC_SIZE as u64;
    let first = off / w * w;
    let last = (off + len.max(1) as u64 - 1) / w * w;
    (first..=last).step_by(PATOMIC_SIZE)
}

impl CheckerState {
    /// Opens a new checked operation and returns its id.
    pub(crate) fn begin_op(&mut self, label: &'static str) -> u64 {
        self.next_op += 1;
        let id = self.next_op;
        self.open.push(OpenOp {
            id,
            label,
            begin: self.base + self.events.len() as u64,
        });
        id
    }

    /// Records a store (or publish). Returns true if a trace event was
    /// appended (i.e. an operation was open on the calling thread).
    pub(crate) fn record_store(
        &mut self,
        off: u64,
        len: usize,
        publish: bool,
        op: Option<u64>,
    ) -> bool {
        for line in lines(off, len) {
            self.line_dirty.insert(line);
            self.line_written.insert(line);
        }
        let Some(op) = op else { return false };
        let kind = if publish { Kind::Publish } else { Kind::Store };
        self.events.push(Event {
            kind,
            op,
            off,
            len: len as u32,
        });
        self.report.events_recorded += 1;
        true
    }

    /// Records a `persist` call. Returns `(redundant, unwritten, recorded)`:
    /// how many covered lines were clean / never written, and whether a
    /// trace event was appended.
    pub(crate) fn record_flush(&mut self, off: u64, len: usize) -> (u64, u64, bool) {
        let mut redundant = 0;
        let mut unwritten = 0;
        for line in lines(off, len) {
            if self.line_dirty.remove(&line) {
                continue;
            }
            if self.line_written.contains(&line) {
                redundant += 1;
            } else {
                unwritten += 1;
            }
        }
        self.report.redundant_clean_flushes += redundant;
        self.report.unwritten_line_flushes += unwritten;
        let recorded = if self.open.is_empty() {
            false
        } else {
            self.events.push(Event {
                kind: Kind::Flush,
                op: 0,
                off,
                len: len as u32,
            });
            self.report.events_recorded += 1;
            true
        };
        (redundant, unwritten, recorded)
    }

    /// Records a `fence` call. Returns true if a trace event was appended.
    pub(crate) fn record_fence(&mut self) -> bool {
        if self.open.is_empty() {
            return false;
        }
        self.events.push(Event {
            kind: Kind::Fence,
            op: 0,
            off: 0,
            len: 0,
        });
        self.report.events_recorded += 1;
        true
    }

    /// Closes operation `id`. Analyzes its window unless `aborted` (the
    /// operation unwound, e.g. an injected crash). Returns the number of
    /// violations found.
    pub(crate) fn end_op(&mut self, id: u64, aborted: bool) -> u64 {
        let Some(idx) = self.open.iter().position(|o| o.id == id) else {
            return 0;
        };
        let op = self.open.remove(idx);
        let mut found = 0;
        if !aborted {
            found = self.analyze(&op);
            self.report.ops_checked += 1;
            self.report.total_violations += found;
        }
        self.drain();
        found
    }

    /// Drops trace events no open operation can still see.
    fn drain(&mut self) {
        let keep_from = self
            .open
            .iter()
            .map(|o| o.begin)
            .min()
            .unwrap_or(self.base + self.events.len() as u64);
        let cut = (keep_from - self.base) as usize;
        if cut > 0 {
            self.events.drain(..cut);
            self.base = keep_from;
        }
    }

    /// Runs every detector over one finished operation's event window.
    fn analyze(&mut self, op: &OpenOp) -> u64 {
        let start = (op.begin - self.base) as usize;
        let window = &self.events[start..];

        // Flushes are global; stores/publishes belong to this operation.
        // `i` below is the event's window-relative epoch.
        let mut flushes: Vec<(usize, u64, u64)> = Vec::new(); // (i, first_line, last_line)
        let mut own: Vec<(usize, u64, usize, bool)> = Vec::new(); // (i, off, len, publish)
        for (i, ev) in window.iter().enumerate() {
            match ev.kind {
                Kind::Flush => {
                    let first = line_of(ev.off);
                    let last = line_of(ev.off + (ev.len as u64).max(1) - 1);
                    flushes.push((i, first, last));
                }
                Kind::Store | Kind::Publish if ev.op == op.id => {
                    own.push((i, ev.off, ev.len as usize, ev.kind == Kind::Publish));
                }
                _ => {}
            }
        }
        if own.is_empty() {
            return 0;
        }

        // First flush after event `i` whose line range covers `word`.
        let first_flush_after = |i: usize, word: u64| -> Option<usize> {
            let line = line_of(word);
            flushes
                .iter()
                .find(|&&(fi, lo, hi)| fi > i && lo <= line && line <= hi)
                .map(|f| f.0)
        };

        let mut found: Vec<Violation> = Vec::new();

        // (1) MissingFlush: the last store to each word must be flushed.
        let mut last_store: HashMap<u64, usize> = HashMap::new();
        for &(i, off, len, _) in &own {
            for word in words(off, len) {
                last_store.insert(word, i);
            }
        }
        let mut missing: Vec<(u64, usize)> = last_store.iter().map(|(&w, &i)| (w, i)).collect();
        missing.sort_unstable();
        for (word, i) in missing {
            if first_flush_after(i, word).is_none() {
                found.push(Violation {
                    kind: ViolationKind::MissingFlush,
                    op_label: op.label,
                    offset: word,
                    detail: "word stored but never flushed before the operation ended".to_string(),
                });
            }
        }

        // (2) UnorderedPublish + (3) TornPublish.
        for &(pi, poff, plen, publish) in &own {
            if !publish {
                continue;
            }
            let w = PATOMIC_SIZE as u64;
            let torn = if plen as u64 <= w {
                // A short publish must sit inside a single p-atomic word.
                poff % w + plen as u64 > w
            } else {
                // A long publish must be a word-aligned run of whole words
                // (per-word commit convention; line crossings are fine).
                poff % w != 0 || plen % PATOMIC_SIZE != 0
            };
            if torn {
                found.push(Violation {
                    kind: ViolationKind::TornPublish,
                    op_label: op.label,
                    offset: poff,
                    detail: format!(
                        "publish of {plen} bytes straddles an 8-byte word boundary \
                         and cannot be made durable p-atomically"
                    ),
                });
                continue;
            }
            let Some(pf) = first_flush_after(pi, poff) else {
                continue; // never flushed: already reported by MissingFlush
            };
            let pwords: HashSet<u64> = words(poff, plen).collect();
            // Last store before the publish, per operand word.
            let mut operands: HashMap<u64, usize> = HashMap::new();
            for &(i, off, len, _) in own.iter().filter(|&&(i, ..)| i < pi) {
                for word in words(off, len) {
                    if !pwords.contains(&word) {
                        operands.insert(word, i);
                    }
                }
            }
            let mut operands: Vec<(u64, usize)> = operands.into_iter().collect();
            operands.sort_unstable();
            for (word, si) in operands {
                match first_flush_after(si, word) {
                    None => {} // reported by MissingFlush
                    Some(f) if f >= pf => found.push(Violation {
                        kind: ViolationKind::UnorderedPublish,
                        op_label: op.label,
                        offset: word,
                        detail: format!(
                            "operand first flushed {} the commit record at {poff:#x}; \
                             a crash can persist the commit but lose the operand",
                            if f == pf {
                                "by the same persist call as"
                            } else {
                                "after"
                            }
                        ),
                    }),
                    _ => {}
                }
            }
        }

        // (4) UnpublishedMultiWord: a torn-able plain store needs a commit
        // record published after it. One report per operation is enough.
        let has_publish_after = |i: usize| own.iter().any(|&(j, _, _, publish)| publish && j > i);
        for &(i, off, len, publish) in &own {
            if !publish
                && (off % PATOMIC_SIZE as u64 + len as u64) > PATOMIC_SIZE as u64
                && !has_publish_after(i)
            {
                found.push(Violation {
                    kind: ViolationKind::UnpublishedMultiWord,
                    op_label: op.label,
                    offset: off,
                    detail: format!(
                        "store of {len} bytes crosses the 8-byte p-atomicity boundary \
                         and no commit record is published after it"
                    ),
                });
                break;
            }
        }

        let n = found.len() as u64;
        for v in found {
            match v.kind {
                ViolationKind::MissingFlush => self.report.missing_flush += 1,
                ViolationKind::UnorderedPublish => self.report.unordered_publish += 1,
                ViolationKind::TornPublish => self.report.torn_publish += 1,
                ViolationKind::UnpublishedMultiWord => self.report.unpublished_multi_word += 1,
            }
            if self.report.violations.len() < MAX_KEPT_VIOLATIONS {
                self.report.violations.push(v);
            }
        }
        n
    }

    /// Per-detector violation totals so far, in declaration order
    /// (missing-flush, unordered-publish, torn-publish,
    /// unpublished-multi-word). Used to compute per-operation deltas.
    pub(crate) fn kind_counts(&self) -> [u64; 4] {
        [
            self.report.missing_flush,
            self.report.unordered_publish,
            self.report.torn_publish,
            self.report.unpublished_multi_word,
        ]
    }

    /// Snapshot of the accumulated report.
    pub(crate) fn report(&self) -> DurabilityReport {
        self.report.clone()
    }

    /// Takes the accumulated report, resetting violation and warning
    /// accumulators (line tracking and open operations are kept).
    pub(crate) fn take_report(&mut self) -> DurabilityReport {
        std::mem::take(&mut self.report)
    }
}

/// RAII guard for a checked operation; see [`PmemPool::begin_checked_op`](crate::PmemPool::begin_checked_op).
///
/// Ends — and analyzes — the operation on drop. If the thread is unwinding
/// (an injected crash or any other panic), the window is discarded without
/// analysis: interrupted operations legitimately leave unflushed state, and
/// the *recovery* path is what the checker must then prove clean.
///
/// [`PmemPool::begin_checked_op`](crate::PmemPool::begin_checked_op): crate::PmemPool::begin_checked_op
#[must_use = "the checked operation ends when this guard drops"]
pub struct CheckedOp<'a> {
    pool: &'a crate::PmemPool,
    op: Option<u64>,
}

impl<'a> CheckedOp<'a> {
    /// Builds a guard; `op` is None when the checker is disabled.
    pub(crate) fn new(pool: &'a crate::PmemPool, op: Option<u64>) -> Self {
        CheckedOp { pool, op }
    }
}

impl Drop for CheckedOp<'_> {
    fn drop(&mut self) {
        if let Some(id) = self.op.take() {
            self.pool.finish_checked_op(id, std::thread::panicking());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn words_and_lines_cover_ranges() {
        assert_eq!(words(0, 8).collect::<Vec<_>>(), vec![0]);
        assert_eq!(words(4, 8).collect::<Vec<_>>(), vec![0, 8]);
        assert_eq!(words(8, 16).collect::<Vec<_>>(), vec![8, 16]);
        assert_eq!(lines(0, 64).collect::<Vec<_>>(), vec![0]);
        assert_eq!(lines(60, 8).collect::<Vec<_>>(), vec![0, 64]);
        assert_eq!(lines(64, 1).collect::<Vec<_>>(), vec![64]);
    }

    #[test]
    fn clean_protocol_passes() {
        // store data; flush; publish; flush — the canonical pattern.
        let mut st = CheckerState::default();
        let id = st.begin_op("test");
        st.record_store(4096, 16, false, Some(id));
        st.record_flush(4096, 16);
        st.record_store(4160, 8, true, Some(id));
        st.record_flush(4160, 8);
        assert_eq!(st.end_op(id, false), 0);
        assert!(st.report().is_clean());
        assert_eq!(st.report().ops_checked, 1);
    }

    #[test]
    fn missing_flush_detected() {
        let mut st = CheckerState::default();
        let id = st.begin_op("test");
        st.record_store(4096, 8, false, Some(id));
        assert_eq!(st.end_op(id, false), 1);
        let r = st.report();
        assert_eq!(r.violations[0].kind, ViolationKind::MissingFlush);
        assert_eq!(r.violations[0].offset, 4096);
    }

    #[test]
    fn publish_in_same_persist_as_operand_detected() {
        let mut st = CheckerState::default();
        let id = st.begin_op("test");
        st.record_store(4096, 8, false, Some(id)); // operand
        st.record_store(4104, 8, true, Some(id)); // commit record, same line
        st.record_flush(4096, 16); // one persist covers both: unordered
        assert_eq!(st.end_op(id, false), 1);
        assert_eq!(
            st.report().violations[0].kind,
            ViolationKind::UnorderedPublish
        );
    }

    #[test]
    fn publish_after_operand_flush_is_clean() {
        let mut st = CheckerState::default();
        let id = st.begin_op("test");
        st.record_store(4096, 8, false, Some(id));
        st.record_flush(4096, 8);
        st.record_store(4104, 8, true, Some(id));
        st.record_flush(4104, 8);
        assert_eq!(st.end_op(id, false), 0);
    }

    #[test]
    fn torn_publish_detected() {
        let mut st = CheckerState::default();
        let id = st.begin_op("test");
        st.record_store(4100, 8, true, Some(id)); // unaligned publish
        st.record_flush(4100, 8);
        assert_eq!(st.end_op(id, false), 1);
        assert_eq!(st.report().violations[0].kind, ViolationKind::TornPublish);
    }

    #[test]
    fn multiword_store_without_commit_detected() {
        let mut st = CheckerState::default();
        let id = st.begin_op("test");
        st.record_store(4096, 32, false, Some(id));
        st.record_flush(4096, 32);
        assert_eq!(st.end_op(id, false), 1);
        assert_eq!(
            st.report().violations[0].kind,
            ViolationKind::UnpublishedMultiWord
        );
    }

    #[test]
    fn multiword_store_with_later_publish_is_clean() {
        let mut st = CheckerState::default();
        let id = st.begin_op("test");
        st.record_store(4096, 32, false, Some(id));
        st.record_flush(4096, 32);
        st.record_store(4160, 8, true, Some(id));
        st.record_flush(4160, 8);
        assert_eq!(st.end_op(id, false), 0);
    }

    #[test]
    fn buffer_entry_commit_is_one_clean_publish() {
        // The leaf append-buffer commit: the whole (tag, key, value) entry
        // is one word-aligned multi-word publish with no prior operand
        // stores, so a single persist closes the op cleanly. Recovery
        // tolerates per-word tearing via the checksum in the tag word.
        let mut st = CheckerState::default();
        let id = st.begin_op("wbuf_append");
        st.record_store(4096, 24, true, Some(id));
        st.record_flush(4096, 24);
        assert_eq!(st.end_op(id, false), 0);
        assert!(st.report().is_clean());
    }

    #[test]
    fn buffer_entry_commit_misaligned_is_torn() {
        // Same shape but off word alignment: every word could tear
        // independently across field boundaries, which the tag checksum
        // does not cover.
        let mut st = CheckerState::default();
        let id = st.begin_op("wbuf_append");
        st.record_store(4100, 24, true, Some(id));
        st.record_flush(4100, 24);
        assert_eq!(st.end_op(id, false), 1);
        assert_eq!(st.report().violations[0].kind, ViolationKind::TornPublish);
    }

    #[test]
    fn buffer_entry_commit_unflushed_is_missing_flush() {
        // MissingFlush is reported per stored word, so the whole 3-word
        // entry surfaces as three violations.
        let mut st = CheckerState::default();
        let id = st.begin_op("wbuf_append");
        st.record_store(4096, 24, true, Some(id));
        assert_eq!(st.end_op(id, false), 3);
        let report = st.report();
        assert_eq!(report.violations.len(), 3);
        assert!(report
            .violations
            .iter()
            .all(|v| v.kind == ViolationKind::MissingFlush));
    }

    #[test]
    fn aborted_op_is_not_analyzed() {
        let mut st = CheckerState::default();
        let id = st.begin_op("test");
        st.record_store(4096, 8, false, Some(id)); // never flushed
        assert_eq!(st.end_op(id, true), 0);
        assert!(st.report().is_clean());
        assert_eq!(st.report().ops_checked, 0);
        assert!(st.events.is_empty(), "window must be drained");
    }

    #[test]
    fn nested_ops_attribute_independently() {
        let mut st = CheckerState::default();
        let outer = st.begin_op("outer");
        st.record_store(4096, 8, false, Some(outer));
        let inner = st.begin_op("inner");
        st.record_store(8192, 8, false, Some(inner)); // never flushed
        assert_eq!(st.end_op(inner, false), 1, "inner op missing flush");
        st.record_flush(4096, 8);
        assert_eq!(st.end_op(outer, false), 0, "outer op is clean");
    }

    #[test]
    fn flush_accounting_counts_redundant_and_unwritten() {
        let mut st = CheckerState::default();
        st.record_store(4096, 8, false, None);
        let (r, u, _) = st.record_flush(4096, 8);
        assert_eq!((r, u), (0, 0));
        let (r, u, _) = st.record_flush(4096, 8); // clean line
        assert_eq!((r, u), (1, 0));
        let (r, u, _) = st.record_flush(8192, 8); // never written
        assert_eq!((r, u), (0, 1));
        let rep = st.report();
        assert_eq!(rep.redundant_clean_flushes, 1);
        assert_eq!(rep.unwritten_line_flushes, 1);
    }

    #[test]
    fn drain_keeps_open_windows() {
        let mut st = CheckerState::default();
        let outer = st.begin_op("outer");
        st.record_store(4096, 8, false, Some(outer));
        let inner = st.begin_op("inner");
        st.record_store(8192, 8, false, Some(inner));
        st.record_flush(8192, 8);
        st.end_op(inner, false);
        // Outer still open: its events must survive the drain.
        assert!(!st.events.is_empty());
        st.record_flush(4096, 8);
        assert_eq!(st.end_op(outer, false), 0);
        assert!(st.events.is_empty());
    }

    #[test]
    fn tls_stack_tracks_innermost_per_pool() {
        push_op(1, 10);
        push_op(2, 20);
        push_op(1, 11);
        assert_eq!(current_op(1), Some(11));
        assert_eq!(current_op(2), Some(20));
        pop_op(1, 11);
        assert_eq!(current_op(1), Some(10));
        pop_op(1, 10);
        pop_op(2, 20);
        assert_eq!(current_op(1), None);
    }

    #[test]
    fn report_renders_summary() {
        let mut st = CheckerState::default();
        let id = st.begin_op("demo");
        st.record_store(4096, 8, false, Some(id));
        st.end_op(id, false);
        let text = st.report().render();
        assert!(text.contains("missing-flush"));
        assert!(text.contains("demo"));
    }
}
