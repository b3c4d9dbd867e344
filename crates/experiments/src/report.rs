//! Fixed-width table and CSV output for the `figures` binary.
//!
//! Each experiment binary prints the series the corresponding paper
//! figure plots, one row per x-value, plus an optional CSV dump for
//! external plotting.

use std::fmt::Write as _;

/// A simple column-oriented table.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    pub fn title(&self) -> &str {
        &self.title
    }

    pub fn n_rows(&self) -> usize {
        self.rows.len()
    }

    /// Append a row; must match the header arity.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row arity mismatch in table '{}'",
            self.title
        );
        self.rows.push(cells);
    }

    /// Cell accessor (row, col) for tests and cross-checks.
    pub fn cell(&self, row: usize, col: usize) -> &str {
        &self.rows[row][col]
    }

    /// Parse a numeric cell.
    pub fn cell_f64(&self, row: usize, col: usize) -> f64 {
        self.cell(row, col).parse().unwrap_or_else(|_| {
            panic!("cell ({row},{col}) = '{}' not numeric", self.cell(row, col))
        })
    }

    /// Column of parsed numbers.
    pub fn column_f64(&self, col: usize) -> Vec<f64> {
        (0..self.rows.len())
            .map(|r| self.cell_f64(r, col))
            .collect()
    }

    /// Render as an aligned fixed-width table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let line = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let _ = writeln!(out, "{}", line(&self.headers, &widths));
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len().saturating_sub(1));
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            let _ = writeln!(out, "{}", line(row, &widths));
        }
        out
    }

    /// Render as CSV (RFC-4180-ish: quotes only when needed).
    pub fn to_csv(&self) -> String {
        let esc = |s: &str| -> String {
            if s.contains([',', '"', '\n']) {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{}",
            self.headers
                .iter()
                .map(|h| esc(h))
                .collect::<Vec<_>>()
                .join(",")
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{}",
                row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(",")
            );
        }
        out
    }
}

/// Format a float with a sensible number of decimals for tables.
pub fn fmt2(x: f64) -> String {
    format!("{x:.2}")
}

/// Format a float as an integer-looking count.
pub fn fmt0(x: f64) -> String {
    format!("{x:.0}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("Demo", &["n", "rate"]);
        t.row(vec!["100".into(), "95.12".into()]);
        t.row(vec!["1000".into(), "99.90".into()]);
        t
    }

    #[test]
    fn render_aligns_and_includes_everything() {
        let s = sample().render();
        assert!(s.contains("== Demo =="));
        assert!(s.contains("rate"));
        assert!(s.contains("95.12"));
        assert!(s.contains("1000"));
        // Alignment: each data line ends with the rate column.
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 5);
    }

    #[test]
    fn csv_output() {
        let csv = sample().to_csv();
        assert_eq!(csv.lines().next().unwrap(), "n,rate");
        assert_eq!(csv.lines().count(), 3);
    }

    #[test]
    fn csv_escapes_special_chars() {
        let mut t = Table::new("x", &["a"]);
        t.row(vec!["hello, \"world\"".into()]);
        assert!(t.to_csv().contains("\"hello, \"\"world\"\"\""));
    }

    #[test]
    fn cell_accessors() {
        let t = sample();
        assert_eq!(t.cell(0, 0), "100");
        assert_eq!(t.cell_f64(1, 1), 99.90);
        assert_eq!(t.column_f64(0), vec![100.0, 1000.0]);
        assert_eq!(t.n_rows(), 2);
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn arity_checked() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(vec!["1".into()]);
    }

    #[test]
    fn float_formatters() {
        assert_eq!(fmt2(3.137), "3.14");
        assert_eq!(fmt0(1234.6), "1235");
    }
}
