//! Result tables: aligned text and JSON lines.

/// One result row: label plus named numeric fields.
#[derive(Debug, Clone)]
pub struct Row {
    /// Row label (tree name, latency, thread count…); unique within its
    /// report's experiment.
    pub label: String,
    /// `(column, value)` pairs in display order.
    pub fields: Vec<(String, f64)>,
    /// Observability snapshot of the row's tree; embedded as a `"metrics"`
    /// sub-object in the JSON line, omitted from the table.
    pub metrics: Option<fptree_core::Snapshot>,
}

impl Row {
    /// Creates a row.
    pub fn new(label: impl Into<String>) -> Row {
        Row {
            label: label.into(),
            fields: Vec::new(),
            metrics: None,
        }
    }

    /// Adds a field (builder style).
    pub fn field(mut self, name: &str, value: f64) -> Row {
        self.fields.push((name.to_string(), value));
        self
    }

    /// Attaches a metrics snapshot (builder style). `None` — an
    /// uninstrumented tree — leaves the row unchanged, so call sites can
    /// pass `tree.metrics_snapshot()` straight through.
    pub fn with_metrics(mut self, snapshot: Option<fptree_core::Snapshot>) -> Row {
        self.metrics = snapshot;
        self
    }

    /// Value of field `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.fields.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }
}

/// A titled collection of rows that renders as a table and as JSON lines.
pub struct Report {
    /// Experiment id (e.g. "fig7_ops_fixed"); every JSON line carries it.
    pub experiment: String,
    /// Human title.
    pub title: String,
    rows: Vec<Row>,
}

impl Report {
    /// Creates an empty report.
    pub fn new(experiment: &str, title: &str) -> Report {
        Report {
            experiment: experiment.to_string(),
            title: title.to_string(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn push(&mut self, row: Row) {
        self.rows.push(row);
    }

    /// The rows, in order.
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// The row labelled `label`.
    pub fn row(&self, label: &str) -> Option<&Row> {
        self.rows.iter().find(|r| r.label == label)
    }

    /// Renders the table to a string.
    pub fn render(&self) -> String {
        let mut out = format!("\n== {} ({}) ==\n", self.title, self.experiment);
        if self.rows.is_empty() {
            out.push_str("(no rows)\n");
            return out;
        }
        let label_w = self
            .rows
            .iter()
            .map(|r| r.label.len())
            .max()
            .unwrap_or(5)
            .max("label".len());
        out.push_str(&format!("{:label_w$}", "label"));
        for (c, _) in &self.rows[0].fields {
            out.push_str(&format!("  {c:>12}"));
        }
        out.push('\n');
        for r in &self.rows {
            out.push_str(&format!("{:label_w$}", r.label));
            for (_, v) in &r.fields {
                if v.abs() >= 1000.0 {
                    out.push_str(&format!("  {v:>12.0}"));
                } else {
                    out.push_str(&format!("  {v:>12.3}"));
                }
            }
            out.push('\n');
        }
        out
    }

    /// One JSON object line per row.
    pub fn to_jsonl(&self) -> String {
        self.rows.iter().map(|r| self.json_line(r) + "\n").collect()
    }

    /// Renders one row as a JSON object line (hand-rolled: the offline build
    /// carries no serde).
    fn json_line(&self, r: &Row) -> String {
        let (experiment, label) = (json_str(&self.experiment), json_str(&r.label));
        let mut line = format!("{{\"experiment\":{experiment},\"label\":{label}");
        for (k, v) in &r.fields {
            let v = if v.is_finite() {
                v.to_string()
            } else {
                "null".into()
            };
            line += &format!(",{}:{v}", json_str(k));
        }
        if let Some(snap) = &r.metrics {
            line += &format!(",\"metrics\":{}", snap.to_json());
        }
        line + "}"
    }
}

/// `s` as a JSON string literal (quoted, escaped).
pub(crate) fn json_str(s: &str) -> String {
    let mut out = String::from('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out + "\""
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_table() {
        let mut r = Report::new("test", "Test table");
        r.push(
            Row::new("fptree")
                .field("ops", 1234567.0)
                .field("us", 1.234),
        );
        r.push(Row::new("wb").field("ops", 1.0).field("us", 2.0));
        let s = r.render();
        assert!(s.contains("Test table"));
        assert!(s.contains("fptree"));
        assert!(s.contains("1234567"));
        assert_eq!(r.row("wb").and_then(|row| row.get("us")), Some(2.0));
    }

    #[test]
    fn emits_json_lines() {
        let mut r = Report::new("exp", "t");
        r.push(Row::new("a").field("x", 1.5));
        r.push(Row::new("b").field("x", 2.0));
        assert_eq!(
            r.to_jsonl(),
            "{\"experiment\":\"exp\",\"label\":\"a\",\"x\":1.5}\n\
             {\"experiment\":\"exp\",\"label\":\"b\",\"x\":2}\n"
        );
    }

    #[test]
    fn json_embeds_metrics_snapshot() {
        let mut snap = fptree_core::Snapshot::default();
        snap.push("scan_hop_retries", 3);
        snap.push("scan_reseeks", 1);
        let mut r = Report::new("exp", "t");
        r.push(Row::new("fpc").field("us", 2.0).with_metrics(Some(snap)));
        let line = r.json_line(&r.rows[0]);
        assert_eq!(
            line,
            r#"{"experiment":"exp","label":"fpc","us":2,"metrics":{"scan_hop_retries":3,"scan_reseeks":1}}"#
        );
        // No snapshot, no "metrics" key.
        let bare = Report::new("exp", "t");
        let row = Row::new("x").with_metrics(None);
        assert!(!bare.json_line(&row).contains("metrics"));
    }

    #[test]
    fn json_escapes_specials() {
        let mut r = Report::new("e\"x", "t");
        r.push(Row::new("a\\b\nc").field("nan", f64::NAN));
        let line = r.json_line(&r.rows[0]);
        assert_eq!(
            line,
            r#"{"experiment":"e\"x","label":"a\\b\nc","nan":null}"#
        );
    }
}
