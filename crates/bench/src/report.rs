//! Markdown + CSV table emission.

use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

/// A simple column-ordered results table.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Self {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row (stringified cells).
    ///
    /// # Panics
    /// Panics when the cell count differs from the header count.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width mismatch in table '{}'",
            self.title
        );
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` when the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table as GitHub-flavored markdown.
    pub fn to_markdown(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "\n## {}\n", self.title);
        let fmt_row = |cells: &[String]| -> String {
            let padded: Vec<String> = cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:<w$}"))
                .collect();
            format!("| {} |", padded.join(" | "))
        };
        let _ = writeln!(out, "{}", fmt_row(&self.headers));
        let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        let _ = writeln!(out, "{}", fmt_row(&sep));
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row));
        }
        out
    }

    /// Renders the table as CSV (headers + rows).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let escape = |cell: &str| -> String {
            if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        };
        let _ = writeln!(
            out,
            "{}",
            self.headers
                .iter()
                .map(|h| escape(h))
                .collect::<Vec<_>>()
                .join(",")
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{}",
                row.iter().map(|c| escape(c)).collect::<Vec<_>>().join(",")
            );
        }
        out
    }

    /// Prints the markdown rendering to stdout and writes a CSV copy under
    /// `out_dir/<name>.csv`. IO failures are reported, not fatal.
    pub fn emit(&self, out_dir: &Path, name: &str) {
        print!("{}", self.to_markdown());
        let path: PathBuf = out_dir.join(format!("{name}.csv"));
        if let Err(e) = fs::create_dir_all(out_dir) {
            eprintln!("warning: cannot create {}: {e}", out_dir.display());
            return;
        }
        if let Err(e) = fs::write(&path, self.to_csv()) {
            eprintln!("warning: cannot write {}: {e}", path.display());
        } else {
            eprintln!("[saved {}]", path.display());
        }
    }
}

/// A minimal JSON value for machine-readable benchmark summaries. The
/// build environment vendors no serde; this hand-rolled subset (objects,
/// arrays, strings, numbers, bools) is everything the harness emits.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// A float; non-finite values render as `null`.
    Num(f64),
    /// An unsigned integer (exact, no float formatting).
    Int(u64),
    /// A string (escaped on render).
    Str(String),
    /// A boolean.
    Bool(bool),
    /// An ordered array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Starts an empty object.
    pub fn obj() -> Self {
        Json::Obj(Vec::new())
    }

    /// Appends a field to an object (builder style).
    ///
    /// # Panics
    /// Panics when `self` is not an object.
    pub fn field(mut self, key: impl Into<String>, value: Json) -> Self {
        match &mut self {
            Json::Obj(fields) => fields.push((key.into(), value)),
            other => panic!("field() on non-object {other:?}"),
        }
        self
    }

    /// Renders pretty-printed JSON with two-space indentation.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out.push('\n');
        out
    }

    fn render_into(&self, out: &mut String, indent: usize) {
        let pad = |out: &mut String, n: usize| out.push_str(&"  ".repeat(n));
        match self {
            Json::Num(v) if v.is_finite() => {
                let _ = write!(out, "{v}");
            }
            Json::Num(_) => out.push_str("null"),
            Json::Int(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Bool(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        '\t' => out.push_str("\\t"),
                        '\r' => out.push_str("\\r"),
                        c if (c as u32) < 0x20 => {
                            let _ = write!(out, "\\u{:04x}", c as u32);
                        }
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Json::Arr(items) if items.is_empty() => out.push_str("[]"),
            Json::Arr(items) => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    pad(out, indent + 1);
                    item.render_into(out, indent + 1);
                    out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
                }
                pad(out, indent);
                out.push(']');
            }
            Json::Obj(fields) if fields.is_empty() => out.push_str("{}"),
            Json::Obj(fields) => {
                out.push_str("{\n");
                for (i, (k, v)) in fields.iter().enumerate() {
                    pad(out, indent + 1);
                    Json::Str(k.clone()).render_into(out, indent + 1);
                    out.push_str(": ");
                    v.render_into(out, indent + 1);
                    out.push_str(if i + 1 < fields.len() { ",\n" } else { "\n" });
                }
                pad(out, indent);
                out.push('}');
            }
        }
    }
}

/// Writes `json` to `out_dir/BENCH_<name>.json` — the machine-readable
/// companion of [`Table::emit`]. IO failures are reported, not fatal.
pub fn emit_bench_json(out_dir: &Path, name: &str, json: &Json) {
    let path = out_dir.join(format!("BENCH_{name}.json"));
    if let Err(e) = fs::create_dir_all(out_dir) {
        eprintln!("warning: cannot create {}: {e}", out_dir.display());
        return;
    }
    if let Err(e) = fs::write(&path, json.render()) {
        eprintln!("warning: cannot write {}: {e}", path.display());
    } else {
        eprintln!("[saved {}]", path.display());
    }
}

/// Formats a float with `digits` decimals, trimming noise.
pub fn num(value: f64, digits: usize) -> String {
    format!("{value:.digits$}")
}

/// Formats a byte count in MiB.
pub fn mib(bytes: u64) -> String {
    format!("{:.1}MiB", bytes as f64 / (1024.0 * 1024.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("Demo", &["a", "b"]);
        t.row(vec!["1".into(), "x,y".into()]);
        t
    }

    #[test]
    fn markdown_contains_all_cells() {
        let md = sample().to_markdown();
        assert!(md.contains("## Demo"));
        assert!(md.contains("| a"));
        assert!(md.contains("x,y"));
    }

    #[test]
    fn csv_escapes_commas() {
        let csv = sample().to_csv();
        assert!(csv.contains("\"x,y\""));
        assert!(csv.starts_with("a,b"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn width_mismatch_panics() {
        let mut t = Table::new("t", &["a"]);
        t.row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(num(1.23456, 2), "1.23");
        assert_eq!(mib(2 * 1024 * 1024), "2.0MiB");
    }

    #[test]
    fn json_renders_nested_structures() {
        let j = Json::obj()
            .field("bench", Json::Str("multi_client".into()))
            .field("qps", Json::Num(1234.5))
            .field("ok", Json::Bool(true))
            .field(
                "rows",
                Json::Arr(vec![Json::obj()
                    .field("clients", Json::Int(4))
                    .field("p99_ms", Json::Num(2.5))]),
            );
        let s = j.render();
        assert!(s.contains("\"bench\": \"multi_client\""));
        assert!(s.contains("\"qps\": 1234.5"));
        assert!(s.contains("\"clients\": 4"));
        assert!(s.contains("\"p99_ms\": 2.5"));
        assert!(s.ends_with("}\n"));
    }

    #[test]
    fn json_escapes_strings_and_nulls_non_finite() {
        let s = Json::obj()
            .field("msg", Json::Str("a\"b\\c\nd".into()))
            .field("nan", Json::Num(f64::NAN))
            .render();
        assert!(s.contains(r#""msg": "a\"b\\c\nd""#));
        assert!(s.contains("\"nan\": null"));
    }
}
