//! Lightweight tabular reports for the experiment harness.
//!
//! The harness regenerates every figure and validates every theorem of the
//! paper; its output is a sequence of [`Table`]s rendered as aligned plain
//! text (the form `tests/golden/experiments.txt` records).

use std::fmt::Write as _;

/// A titled table with a header row.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Table {
    /// Table title, shown above the table.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows; each row should have `headers.len()` entries.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table with a title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Self {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a data row.
    ///
    /// # Panics
    /// Panics if the row width does not match the header width.
    pub fn push_row(&mut self, row: Vec<String>) {
        assert_eq!(
            row.len(),
            self.headers.len(),
            "row width {} != header width {}",
            row.len(),
            self.headers.len()
        );
        self.rows.push(row);
    }

    /// Column widths for aligned rendering.
    fn widths(&self) -> Vec<usize> {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row.iter()) {
                *w = (*w).max(cell.chars().count());
            }
        }
        widths
    }

    /// Renders the table as aligned plain text.
    pub fn render_text(&self) -> String {
        let widths = self.widths();
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let line = |cells: &[String], widths: &[usize]| -> String {
            let mut s = String::new();
            for (cell, w) in cells.iter().zip(widths.iter()) {
                let pad = w - cell.chars().count();
                s.push_str("  ");
                s.push_str(cell);
                s.extend(std::iter::repeat_n(' ', pad));
            }
            s.trim_end().to_string()
        };
        let _ = writeln!(out, "{}", line(&self.headers, &widths));
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len();
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            let _ = writeln!(out, "{}", line(row, &widths));
        }
        out
    }
}

/// Formats a float with `prec` significant decimal places, trimming noise.
pub fn fmt_f64(v: f64, prec: usize) -> String {
    format!("{v:.prec$}")
}

/// Formats a ratio (e.g. measured / bound), flagging the interesting
/// magnitude range.
pub fn fmt_ratio(v: f64) -> String {
    format!("{v:.4}")
}

/// Formats a `u128` with thousands separators for readability.
pub fn fmt_u128(v: u128) -> String {
    let digits = v.to_string();
    let mut out = String::with_capacity(digits.len() + digits.len() / 3);
    let chars: Vec<char> = digits.chars().collect();
    for (i, c) in chars.iter().enumerate() {
        if i > 0 && (chars.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(*c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned_text() {
        let mut t = Table::new("demo", &["curve", "D^avg"]);
        t.push_row(vec!["Z".into(), "1.5".into()]);
        t.push_row(vec!["hilbert".into(), "1.25".into()]);
        let text = t.render_text();
        assert!(text.contains("== demo =="));
        assert!(text.contains("curve"));
        assert!(text.contains("hilbert"));
        // Aligned: both data rows start at the same column.
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 5);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_is_rejected() {
        let mut t = Table::new("bad", &["a", "b"]);
        t.push_row(vec!["only-one".into()]);
    }

    #[test]
    fn number_formatting() {
        assert_eq!(fmt_f64(1.23456, 3), "1.235");
        assert_eq!(fmt_ratio(1.5), "1.5000");
        assert_eq!(fmt_u128(0), "0");
        assert_eq!(fmt_u128(999), "999");
        assert_eq!(fmt_u128(1000), "1,000");
        assert_eq!(fmt_u128(1234567), "1,234,567");
    }
}
