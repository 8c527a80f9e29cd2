//! Plain-text table rendering for experiment output.
//!
//! `standby`'s commands and the study binaries print their results as
//! aligned ASCII tables; this module is the tiny formatting layer they
//! share.

use std::fmt::Write as _;

/// A simple right-padded text table.
///
/// # Examples
///
/// ```
/// use simty_sim::report::TextTable;
///
/// let mut t = TextTable::new(["policy", "energy (J)"]);
/// t.row(["NATIVE", "950.1"]);
/// t.row(["SIMTY", "720.4"]);
/// let s = t.render();
/// assert!(s.contains("NATIVE"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given header cells.
    pub fn new<I, S>(header: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        TextTable {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row. Rows shorter than the header are padded with empty
    /// cells; longer rows extend the column count.
    pub fn row<I, S>(&mut self, cells: I) -> &mut Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.rows.push(cells.into_iter().map(Into::into).collect());
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table with aligned columns and a separator rule.
    pub fn render(&self) -> String {
        let columns = self
            .rows
            .iter()
            .map(Vec::len)
            .chain([self.header.len()])
            .max()
            .unwrap_or(0);
        let mut widths = vec![0usize; columns];
        let measure = |widths: &mut Vec<usize>, cells: &[String]| {
            for (i, c) in cells.iter().enumerate() {
                widths[i] = widths[i].max(c.chars().count());
            }
        };
        measure(&mut widths, &self.header);
        for r in &self.rows {
            measure(&mut widths, r);
        }

        let mut out = String::new();
        let write_row = |out: &mut String, cells: &[String]| {
            for (i, w) in widths.iter().enumerate() {
                let cell = cells.get(i).map(String::as_str).unwrap_or("");
                let _ = write!(out, "{cell:<w$}");
                if i + 1 < widths.len() {
                    out.push_str("  ");
                }
            }
            out.push('\n');
        };
        write_row(&mut out, &self.header);
        let rule: usize = widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1);
        out.push_str(&"-".repeat(rule));
        out.push('\n');
        for r in &self.rows {
            write_row(&mut out, r);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = TextTable::new(["a", "bbbb"]);
        t.row(["xxxxx", "y"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("a    "));
        assert!(lines[1].chars().all(|c| c == '-'));
        assert!(lines[2].starts_with("xxxxx"));
    }

    #[test]
    fn ragged_rows_are_padded() {
        let mut t = TextTable::new(["a"]);
        t.row(["1", "2", "3"]);
        t.row(["only"]);
        let s = t.render();
        assert!(s.contains('3'));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }
}
