//! Plain-text table and CSV rendering.

use std::fmt::Write as _;

/// An aligned plain-text table builder.
#[derive(Debug, Clone)]
pub struct TextTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given headers; the first column (labels) is
    /// left-aligned, the rest (numbers) right-aligned.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        Self {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count does not match the column count.
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) -> &mut Self {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.headers.len(), "cell count mismatch");
        self.rows.push(cells);
        self
    }

    /// Renders the table as aligned text with a header separator.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let write_row = |out: &mut String, cells: &[String]| {
            for i in 0..cols {
                if i > 0 {
                    out.push_str("  ");
                }
                let cell = &cells[i];
                if i == 0 {
                    let _ = write!(out, "{:<width$}", cell, width = widths[i]);
                } else {
                    let _ = write!(out, "{:>width$}", cell, width = widths[i]);
                }
            }
            // Trim trailing padding.
            while out.ends_with(' ') {
                out.pop();
            }
            out.push('\n');
        };
        write_row(&mut out, &self.headers);
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            write_row(&mut out, row);
        }
        out
    }

    /// Renders the table as CSV (RFC-4180-style quoting of commas/quotes).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let write_row = |out: &mut String, cells: &[String]| {
            let encoded: Vec<String> = cells.iter().map(|c| csv_escape(c)).collect();
            out.push_str(&encoded.join(","));
            out.push('\n');
        };
        write_row(&mut out, &self.headers);
        for row in &self.rows {
            write_row(&mut out, row);
        }
        out
    }
}

fn csv_escape(cell: &str) -> String {
    if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
        format!("\"{}\"", cell.replace('"', "\"\""))
    } else {
        cell.to_string()
    }
}

/// Formats a probability/rate with four significant decimals (`0.0051`).
pub fn fmt_rate(x: f64) -> String {
    format!("{x:.4}")
}

/// Formats a float with two decimals.
pub fn fmt2(x: f64) -> String {
    format!("{x:.2}")
}

/// Formats a percentage with one decimal.
pub fn fmt_pct(x: f64) -> String {
    format!("{x:.1}%")
}

/// Formats an optional value, rendering `None` as `-`.
pub fn fmt_opt<T>(value: Option<T>, f: impl Fn(T) -> String) -> String {
    value.map_or_else(|| "-".to_string(), f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = TextTable::new(vec!["name", "value"]);
        t.row(vec!["alpha", "1"]);
        t.row(vec!["b", "12345"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[1].chars().all(|c| c == '-'));
        assert!(lines[2].contains("alpha"));
        // Right-aligned number column.
        assert!(lines[3].ends_with("12345"));
    }

    #[test]
    fn label_column_left_numbers_right() {
        let mut t = TextTable::new(vec!["class", "PM", "VM"]);
        t.row(vec!["HW", "0.5", "12"]);
        t.row(vec!["Software", "10.25", "3"]);
        assert_eq!(
            t.render(),
            "class        PM  VM\n\
             -------------------\n\
             HW          0.5  12\n\
             Software  10.25   3\n"
        );
    }

    #[test]
    fn csv_escapes_special_cells() {
        let mut t = TextTable::new(vec!["a", "b"]);
        t.row(vec!["x,y", "q\"q"]);
        let csv = t.to_csv();
        assert_eq!(csv, "a,b\n\"x,y\",\"q\"\"q\"\n");
    }

    #[test]
    fn empty_cells_leave_no_trailing_padding_and_newlines_are_quoted() {
        let mut t = TextTable::new(vec!["label", "value"]);
        t.row(vec!["a", ""]).row(vec!["two\nlines", "7"]);
        assert_eq!(t.render().lines().nth(2), Some("a"));
        assert_eq!(t.to_csv(), "label,value\na,\n\"two\nlines\",7\n");
        let header_only = TextTable::new(vec!["only"]);
        assert_eq!(header_only.render(), "only\n----\n");
    }

    #[test]
    #[should_panic(expected = "cell count mismatch")]
    fn wrong_row_width_rejected() {
        let mut t = TextTable::new(vec!["a", "b"]);
        t.row(vec!["only-one"]);
    }

    #[test]
    fn formatters() {
        assert_eq!(fmt_rate(0.00512), "0.0051");
        assert_eq!(fmt2(38.456), "38.46");
        assert_eq!(fmt_pct(53.04), "53.0%");
        assert_eq!(fmt_opt(Some(1.5), fmt2), "1.50");
        assert_eq!(fmt_opt(None::<f64>, fmt2), "-");
    }
}
