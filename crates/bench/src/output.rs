//! Tabular experiment output: aligned stdout rendering plus CSV export.
//!
//! Every experiment reduces to one or more [`Table`]s — a title, column
//! headers, numeric rows, and free-form notes (the place where paper-vs-
//! measured commentary lands). `EXPERIMENTS.md` is assembled from these.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// A rendered experiment result.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// Table id, e.g. `fig8` (used as the CSV filename).
    pub id: String,
    /// Human title, e.g. `Fig. 8 — dynamic averaging under uncorrelated failures`.
    pub title: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Numeric rows (one value per column).
    pub rows: Vec<Vec<f64>>,
    /// Free-form notes printed under the table.
    pub notes: Vec<String>,
}

impl Table {
    /// New empty table.
    pub fn new(id: impl Into<String>, title: impl Into<String>, columns: &[&str]) -> Self {
        Self {
            id: id.into(),
            title: title.into(),
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Append a row; must match the column count.
    pub fn push_row(&mut self, row: Vec<f64>) {
        assert_eq!(row.len(), self.columns.len(), "row width mismatch in table {}", self.id);
        self.rows.push(row);
    }

    /// Append a note line.
    pub fn note(&mut self, s: impl Into<String>) {
        self.notes.push(s.into());
    }

    /// Render as an aligned text table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len().max(8)).collect();
        let cells: Vec<Vec<String>> =
            self.rows.iter().map(|r| r.iter().map(|v| format_num(*v)).collect()).collect();
        for row in &cells {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "## {}", self.title);
        let header: Vec<String> =
            self.columns.iter().zip(&widths).map(|(c, w)| format!("{c:>w$}")).collect();
        let _ = writeln!(out, "{}", header.join("  "));
        for row in &cells {
            let line: Vec<String> =
                row.iter().zip(&widths).map(|(c, w)| format!("{c:>w$}")).collect();
            let _ = writeln!(out, "{}", line.join("  "));
        }
        for n in &self.notes {
            let _ = writeln!(out, "note: {n}");
        }
        out
    }

    /// CSV rendering (RFC 4180: numeric cells; a header cell holding `,`,
    /// `"` or a line break is quoted with inner quotes doubled, every
    /// other name stays bare).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let header: Vec<String> = self
            .columns
            .iter()
            .map(|c| {
                if c.contains([',', '"', '\n', '\r']) {
                    format!("\"{}\"", c.replace('"', "\"\""))
                } else {
                    c.clone()
                }
            })
            .collect();
        let _ = writeln!(out, "{}", header.join(","));
        for row in &self.rows {
            let line: Vec<String> = row.iter().map(|v| format_num(*v)).collect();
            let _ = writeln!(out, "{}", line.join(","));
        }
        out
    }

    /// Write `<dir>/<id>.csv`, creating the directory.
    pub fn write_csv(&self, dir: &Path) -> io::Result<PathBuf> {
        fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.csv", self.id));
        fs::write(&path, self.to_csv())?;
        Ok(path)
    }
}

/// Compact numeric formatting: integers bare, small magnitudes with more
/// precision, large with fewer digits.
pub fn format_num(v: f64) -> String {
    if !v.is_finite() {
        return format!("{v}");
    }
    if v == v.trunc() && v.abs() < 1e12 {
        return format!("{}", v as i64);
    }
    let a = v.abs();
    if a >= 1000.0 {
        format!("{v:.1}")
    } else if a >= 1.0 {
        format!("{v:.3}")
    } else {
        format!("{v:.5}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_and_includes_notes() {
        let mut t = Table::new("t1", "Test", &["round", "stddev"]);
        t.push_row(vec![0.0, 12.5]);
        t.push_row(vec![1.0, 3.25]);
        t.note("hello");
        let s = t.render();
        assert!(s.contains("## Test"));
        assert!(s.contains("round"));
        assert!(s.contains("12.5"));
        assert!(s.contains("note: hello"));
    }

    #[test]
    fn csv_rows_match() {
        let mut t = Table::new("t2", "T", &["a", "b"]);
        t.push_row(vec![1.0, 2.0]);
        let csv = t.to_csv();
        assert_eq!(csv, "a,b\n1,2\n");
    }

    #[test]
    fn csv_quotes_header_cells_that_need_it() {
        let mut t = Table::new("t5", "T", &["style(0=push,1=pushpull)", "say \"hi\"", "plain"]);
        t.push_row(vec![0.0, 1.0, 2.0]);
        assert_eq!(t.to_csv(), "\"style(0=push,1=pushpull)\",\"say \"\"hi\"\"\",plain\n0,1,2\n");
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        let mut t = Table::new("t3", "T", &["a", "b"]);
        t.push_row(vec![1.0]);
    }

    #[test]
    fn numbers_format_compactly() {
        assert_eq!(format_num(3.0), "3");
        assert_eq!(format_num(0.69400), "0.69400");
        assert_eq!(format_num(2.13), "2.130");
        assert_eq!(format_num(25000.5), "25000.5");
    }

    #[test]
    fn csv_writes_to_disk() {
        let mut t = Table::new("t4", "T", &["x"]);
        t.push_row(vec![9.0]);
        let dir = std::env::temp_dir().join("dynagg-output-test");
        let p = t.write_csv(&dir).unwrap();
        assert!(p.ends_with("t4.csv"));
        assert_eq!(fs::read_to_string(p).unwrap(), "x\n9\n");
    }
}
