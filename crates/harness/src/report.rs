//! Plain-text table rendering for experiment reports.

use std::fmt::Write as _;

/// A simple fixed-width text table.
///
/// # Example
///
/// ```rust
/// use ph_harness::report::TextTable;
///
/// let mut t = TextTable::new(["task", "measured", "paper"]);
/// t.add_row(["search", "12.1 s", "11 s"]);
/// let out = t.render();
/// assert!(out.contains("search"));
/// assert!(out.contains("paper"));
/// ```
#[derive(Debug, Clone)]
pub struct TextTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new<I, S>(headers: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        TextTable {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row. Short rows are padded with empty cells; long rows
    /// are truncated to the header width.
    pub fn add_row<I, S>(&mut self, cells: I)
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut row: Vec<String> = cells.into_iter().map(Into::into).collect();
        row.resize(self.headers.len(), String::new());
        row.truncate(self.headers.len());
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

    /// Renders the table with a header separator.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(cols) {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let render_row = |out: &mut String, cells: &[String]| {
            for (i, cell) in cells.iter().enumerate().take(cols) {
                if i > 0 {
                    out.push_str("  ");
                }
                let _ = write!(out, "{:<width$}", cell, width = widths[i]);
            }
            // Trim trailing padding.
            while out.ends_with(' ') {
                out.pop();
            }
            out.push('\n');
        };
        render_row(&mut out, &self.headers);
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols.saturating_sub(1));
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            render_row(&mut out, row);
        }
        out
    }
}

/// Formats a duration in seconds with one decimal.
pub fn secs(d: std::time::Duration) -> String {
    format!("{:.1} s", d.as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = TextTable::new(["a", "long-header", "c"]);
        t.add_row(["xxxxxxxx", "1", "2"]);
        t.add_row(["y", "2", "3"]);
        let out = t.render();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("a"));
        assert!(lines[1].starts_with("---"));
        // Column alignment: '1' and '2' start at the same offset.
        let pos1 = lines[2].find('1').unwrap();
        let pos2 = lines[3].find('2').unwrap();
        assert_eq!(pos1, pos2);
    }

    #[test]
    fn pads_and_truncates_rows() {
        let mut t = TextTable::new(["a", "b"]);
        t.add_row(["only-one"]);
        t.add_row(["1", "2", "3-extra"]);
        let out = t.render();
        assert!(out.contains("only-one"));
        assert!(!out.contains("3-extra"));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn secs_formatting() {
        assert_eq!(secs(std::time::Duration::from_millis(12_340)), "12.3 s");
    }
}
