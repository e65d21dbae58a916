//! Experiment output: aligned text tables + JSON records.

use serde_json::escape_str;
use std::fmt::Write as _;
use std::path::Path;

/// One cell value.
#[derive(Debug, Clone)]
pub enum Cell {
    Str(String),
    Int(i64),
    Float(f64),
}

impl Cell {
    /// Untagged JSON value: strings quoted, numbers bare.
    fn to_json(&self) -> String {
        match self {
            Cell::Str(s) => format!("\"{}\"", escape_str(s)),
            Cell::Int(i) => i.to_string(),
            Cell::Float(f) if f.is_finite() => f.to_string(),
            Cell::Float(_) => "null".to_string(),
        }
    }

    fn render(&self) -> String {
        match self {
            Cell::Str(s) => s.clone(),
            Cell::Int(i) => i.to_string(),
            Cell::Float(f) => {
                if f.abs() >= 100.0 {
                    format!("{f:.1}")
                } else if f.abs() >= 1.0 {
                    format!("{f:.3}")
                } else {
                    format!("{f:.5}")
                }
            }
        }
    }
}

impl From<&str> for Cell {
    fn from(s: &str) -> Self {
        Cell::Str(s.to_string())
    }
}

impl From<String> for Cell {
    fn from(s: String) -> Self {
        Cell::Str(s)
    }
}

impl From<u64> for Cell {
    fn from(v: u64) -> Self {
        Cell::Int(v as i64)
    }
}

impl From<usize> for Cell {
    fn from(v: usize) -> Self {
        Cell::Int(v as i64)
    }
}

impl From<u32> for Cell {
    fn from(v: u32) -> Self {
        Cell::Int(v as i64)
    }
}

impl From<f64> for Cell {
    fn from(v: f64) -> Self {
        Cell::Float(v)
    }
}

/// A rendered experiment result.
#[derive(Debug, Clone)]
pub struct Report {
    /// Paper artifact id ("fig6a", "tab5", …).
    pub id: String,
    pub title: String,
    /// What the paper's y-axis/shape looks like, asserted from our data.
    pub notes: Vec<String>,
    pub headers: Vec<String>,
    pub rows: Vec<Vec<Cell>>,
    /// Extra artifacts (DOT sources, query texts) keyed by file stem.
    /// Omitted from the JSON record when empty.
    pub attachments: Vec<(String, String)>,
}

fn json_str_list(items: impl Iterator<Item = String>) -> String {
    let body: Vec<String> = items.map(|s| format!("\"{}\"", escape_str(&s))).collect();
    format!("[{}]", body.join(", "))
}

impl Report {
    pub fn new(id: impl Into<String>, title: impl Into<String>, headers: &[&str]) -> Self {
        Report {
            id: id.into(),
            title: title.into(),
            notes: Vec::new(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            attachments: Vec::new(),
        }
    }

    pub fn row(&mut self, cells: Vec<Cell>) -> &mut Self {
        debug_assert_eq!(cells.len(), self.headers.len());
        self.rows.push(cells);
        self
    }

    pub fn note(&mut self, n: impl Into<String>) -> &mut Self {
        self.notes.push(n.into());
        self
    }

    pub fn attach(&mut self, name: impl Into<String>, body: impl Into<String>) -> &mut Self {
        self.attachments.push((name.into(), body.into()));
        self
    }

    /// Aligned text rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== {} — {} ==", self.id, self.title);
        let rendered: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| r.iter().map(Cell::render).collect())
            .collect();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &rendered {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        for (i, h) in self.headers.iter().enumerate() {
            let _ = write!(out, "{:<w$}  ", h, w = widths[i]);
        }
        out.push('\n');
        for (i, _) in self.headers.iter().enumerate() {
            let _ = write!(out, "{}  ", "-".repeat(widths[i]));
        }
        out.push('\n');
        for row in &rendered {
            for (i, c) in row.iter().enumerate() {
                let _ = write!(out, "{:<w$}  ", c, w = widths[i]);
            }
            out.push('\n');
        }
        for n in &self.notes {
            let _ = writeln!(out, "  note: {n}");
        }
        out
    }

    /// JSON record of the full report (pretty-printed, stable field order).
    pub fn to_json_pretty(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{{");
        let _ = writeln!(out, "  \"id\": \"{}\",", escape_str(&self.id));
        let _ = writeln!(out, "  \"title\": \"{}\",", escape_str(&self.title));
        let _ = writeln!(out, "  \"notes\": {},", json_str_list(self.notes.iter().cloned()));
        let _ = writeln!(
            out,
            "  \"headers\": {},",
            json_str_list(self.headers.iter().cloned())
        );
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|row| {
                let cells: Vec<String> = row.iter().map(Cell::to_json).collect();
                format!("    [{}]", cells.join(", "))
            })
            .collect();
        if rows.is_empty() {
            let _ = write!(out, "  \"rows\": []");
        } else {
            let _ = write!(out, "  \"rows\": [\n{}\n  ]", rows.join(",\n"));
        }
        if !self.attachments.is_empty() {
            let atts: Vec<String> = self
                .attachments
                .iter()
                .map(|(name, body)| {
                    format!(
                        "    [\"{}\", \"{}\"]",
                        escape_str(name),
                        escape_str(body)
                    )
                })
                .collect();
            let _ = write!(out, ",\n  \"attachments\": [\n{}\n  ]", atts.join(",\n"));
        }
        out.push_str("\n}");
        out
    }

    /// Write `<dir>/<id>.json` (+ attachments as separate files).
    pub fn save(&self, dir: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let json = self.to_json_pretty();
        std::fs::write(dir.join(format!("{}.json", self.id)), json)?;
        for (name, body) in &self.attachments {
            std::fs::write(dir.join(name), body)?;
        }
        Ok(())
    }
}

/// Format bytes at a human scale (matching the paper's KB/MB y-axes).
pub fn human_bytes(b: u64) -> String {
    if b >= 1 << 20 {
        format!("{:.2} MiB", b as f64 / (1 << 20) as f64)
    } else if b >= 1 << 10 {
        format!("{:.2} KiB", b as f64 / 1024.0)
    } else {
        format!("{b} B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_and_notes() {
        let mut r = Report::new("figX", "demo", &["a", "b"]);
        r.row(vec!["x".into(), 1u64.into()]);
        r.row(vec!["longer".into(), 2.5f64.into()]);
        r.note("shape holds");
        let t = r.render();
        assert!(t.contains("== figX"));
        assert!(t.contains("note: shape holds"));
        assert_eq!(t.lines().filter(|l| !l.is_empty()).count(), 6);
    }

    #[test]
    fn save_writes_json_and_attachments() {
        let dir = std::env::temp_dir().join(format!("provio-bench-test-{}", std::process::id()));
        let mut r = Report::new("figY", "demo", &["a"]);
        r.row(vec![1u64.into()]);
        r.attach("figY.dot", "digraph {}");
        r.save(&dir).unwrap();
        assert!(dir.join("figY.json").exists());
        assert!(dir.join("figY.dot").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn human_bytes_units() {
        assert_eq!(human_bytes(512), "512 B");
        assert_eq!(human_bytes(2048), "2.00 KiB");
        assert_eq!(human_bytes(3 << 20), "3.00 MiB");
    }
}
