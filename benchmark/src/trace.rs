//! Spans recorded from the benchmark's own files, around the calls into
//! each layer. Kept in memory and written out once, when the run ends.

use std::path::Path;
use std::time::Instant;

use crate::common::Counters;
use crate::json::Json;

/// Op spans kept per client thread per round; every op of a traced round is
/// *timed*, but keeping millions of spans would only measure the allocator.
pub const OP_SPANS_PER_ROUND: usize = 32;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub workload: &'static str,
    pub round: i64,
    pub thread: i64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the causing span, -1 for a root.
    pub parent: i64,
    /// Exported-counter deltas over the span, where they were snapshotted.
    pub counters: Option<Counters>,
}

/// An op span as a client thread records it (merged in after the round).
#[derive(Debug, Clone, Copy)]
pub struct OpSpan {
    pub name: &'static str,
    pub round: usize,
    pub start: Instant,
    pub end: Instant,
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    workload: &'static str,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            workload: "",
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn set_workload(&mut self, name: &'static str) {
        self.workload = name;
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    fn parent(&self) -> i64 {
        self.open.last().map_or(-1, |&i| i as i64)
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &str) {
        if !self.enabled {
            return;
        }
        let now = self.ns(Instant::now());
        let parent = self.parent();
        self.open.push(self.spans.len());
        self.spans.push(Span {
            name: name.into(),
            workload: self.workload,
            round: -1,
            thread: -1,
            start_ns: now,
            end_ns: now,
            parent,
            counters: None,
        });
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if !self.enabled {
            return;
        }
        let now = self.ns(Instant::now());
        if let Some(i) = self.open.pop() {
            self.spans[i].end_ns = now;
        }
    }

    /// Runs `f` inside a span.
    pub fn scope<R>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        self.begin(name);
        let r = f(self);
        self.end();
        r
    }

    /// Records a finished round with its counter deltas; returns its index
    /// so op spans can name it as their parent.
    pub fn round(&mut self, round: usize, start: Instant, end: Instant, delta: Counters) -> i64 {
        if !self.enabled {
            return -1;
        }
        let parent = self.parent();
        self.spans.push(Span {
            name: "round".into(),
            workload: self.workload,
            round: round as i64,
            thread: -1,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            counters: Some(delta),
        });
        self.spans.len() as i64 - 1
    }

    /// Merges the op spans one client thread kept; `round_spans[r]` is the
    /// index [`Tracer::round`] returned for round `r`.
    pub fn ops(&mut self, thread: usize, ops: &[OpSpan], round_spans: &[i64]) {
        if !self.enabled {
            return;
        }
        for op in ops {
            self.spans.push(Span {
                name: op.name.into(),
                workload: self.workload,
                round: op.round as i64,
                thread: thread as i64,
                start_ns: self.ns(op.start),
                end_ns: self.ns(op.end),
                parent: round_spans.get(op.round).copied().unwrap_or(-1),
                counters: None,
            });
        }
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    let mut f = vec![
                        ("name".to_string(), Json::Str(s.name.clone())),
                        ("workload".into(), Json::Str(s.workload.into())),
                        ("round".into(), Json::Num(s.round as f64)),
                        ("thread".into(), Json::Num(s.thread as f64)),
                        ("start_ns".into(), Json::Num(s.start_ns as f64)),
                        ("end_ns".into(), Json::Num(s.end_ns as f64)),
                        ("parent".into(), Json::Num(s.parent as f64)),
                    ];
                    if let Some(c) = s.counters {
                        f.push(("counters".into(), c.to_json()));
                    }
                    Json::Obj(f)
                })
                .collect(),
        )
    }

    /// Writes the spans as one JSON array, one span per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let Json::Arr(spans) = self.to_json() else {
            unreachable!("to_json returns an array");
        };
        let mut out = String::from("[\n");
        for (i, s) in spans.iter().enumerate() {
            out.push_str(&s.render());
            out.push_str(if i + 1 < spans.len() { ",\n" } else { "\n" });
        }
        out.push_str("]\n");
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_round_trip() {
        let mut t = Tracer::new(true);
        t.set_workload("w");
        t.begin("outer");
        t.scope("inner", |_| ());
        let now = Instant::now();
        let r = t.round(0, now, now, Counters::default());
        t.ops(
            1,
            &[OpSpan {
                name: "get",
                round: 0,
                start: now,
                end: now,
            }],
            &[r],
        );
        t.end();
        let Json::Arr(spans) = crate::json::parse(&t.to_json().render()).unwrap() else {
            panic!()
        };
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].get("parent").unwrap().as_f64(), Some(-1.0));
        assert_eq!(spans[1].get("parent").unwrap().as_f64(), Some(0.0));
        assert_eq!(spans[3].get("parent").unwrap().as_f64(), Some(r as f64));
        assert_eq!(spans[3].get("thread").unwrap().as_f64(), Some(1.0));
        assert!(spans[2].get("counters").is_some());
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        t.scope("x", |_| ());
        assert_eq!(t.len(), 0);
    }
}
