//! Aligned text tables and CSV emission for experiment binaries.

use std::fmt::Write as _;
use std::path::Path;

/// A simple column-aligned table builder.
///
/// ```
/// use dxh_analysis::TextTable;
/// let mut t = TextTable::new(["b", "tq", "tu"]);
/// t.row(["64", "1.002", "0.13"]);
/// t.row(["256", "1.000", "0.04"]);
/// let s = t.render();
/// assert!(s.contains("b    tq     tu"));
/// ```
#[derive(Clone, Debug)]
pub struct TextTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// A table with the given column headers.
    pub fn new<I, S>(headers: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        TextTable { headers: headers.into_iter().map(Into::into).collect(), rows: Vec::new() }
    }

    /// Appends a row; its arity must match the headers.
    pub fn row<I, S>(&mut self, cells: I)
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(row);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders with space-aligned columns (left-justified), a header
    /// separator, and a trailing newline.
    pub fn render(&self) -> String {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let emit = |out: &mut String, cells: &[String]| {
            for (i, cell) in cells.iter().enumerate() {
                if i + 1 == ncols {
                    let _ = write!(out, "{cell}");
                } else {
                    let _ = write!(out, "{cell:<w$}  ", w = widths[i]);
                }
            }
            out.push('\n');
        };
        emit(&mut out, &self.headers);
        let total: usize = widths.iter().sum::<usize>() + 2 * (ncols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            emit(&mut out, row);
        }
        out
    }

    /// Serializes as CSV (header row first, minimal quoting).
    fn to_csv(&self) -> String {
        let mut out = String::new();
        let emit = |out: &mut String, cells: &[String]| {
            let line = cells
                .iter()
                .map(|c| {
                    if c.contains(',') || c.contains('"') || c.contains('\n') {
                        format!("\"{}\"", c.replace('"', "\"\""))
                    } else {
                        c.clone()
                    }
                })
                .collect::<Vec<_>>()
                .join(",");
            out.push_str(&line);
            out.push('\n');
        };
        emit(&mut out, &self.headers);
        for row in &self.rows {
            emit(&mut out, row);
        }
        out
    }

    /// Writes the CSV form to `path`, creating parent directories.
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, self.to_csv())
    }
}

/// Formats a float with `digits` significant decimals, trimming noise.
pub fn fmt_f(x: f64, digits: usize) -> String {
    format!("{x:.digits$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = TextTable::new(["name", "x"]);
        t.row(["a", "1"]);
        t.row(["longer", "22"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name    x"));
        assert!(lines[1].chars().all(|c| c == '-'));
        assert!(lines[3].starts_with("longer  22"));
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn arity_is_checked() {
        let mut t = TextTable::new(["a", "b"]);
        t.row(["only one"]);
    }

    #[test]
    fn csv_quotes_when_needed() {
        let mut t = TextTable::new(["k", "v"]);
        t.row(["plain", "has,comma"]);
        t.row(["quote\"y", "x"]);
        let csv = t.to_csv();
        assert!(csv.contains("plain,\"has,comma\""));
        assert!(csv.contains("\"quote\"\"y\",x"));
    }

    #[test]
    fn write_csv_round_trips() {
        let mut t = TextTable::new(["a"]);
        t.row(["1"]);
        let dir = std::env::temp_dir().join(format!("dxh-table-{}", std::process::id()));
        let path = dir.join("t.csv");
        t.write_csv(&path).unwrap();
        let back = std::fs::read_to_string(&path).unwrap();
        assert_eq!(back, "a\n1\n");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn fmt_f_rounds() {
        assert_eq!(fmt_f(1.23456, 3), "1.235");
        assert_eq!(fmt_f(2.0, 1), "2.0");
    }
}
