//! Plain-text table rendering for the experiment binaries.
//!
//! The reproduction binaries print the paper's tables side by side with
//! the regenerated values; this tiny formatter keeps the columns aligned
//! without pulling in a dependency.

use std::fmt;

/// A fixed-column text table.
///
/// # Examples
///
/// ```
/// use bist_core::report::Table;
///
/// let mut t = Table::new(&["counter", "type I", "type II"]);
/// t.row_owned(vec!["4".into(), "0.065".into(), "0.045".into()]);
/// t.row_owned(vec!["5".into(), "0.025".into(), "0.045".into()]);
/// let s = t.to_string();
/// assert!(s.contains("counter"));
/// assert!(s.lines().count() >= 4); // header, rule, two rows
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
    title: Option<String>,
}

impl Table {
    /// Creates a table with the given column headers.
    ///
    /// # Panics
    ///
    /// Panics if `headers` is empty.
    pub fn new(headers: &[&str]) -> Self {
        assert!(!headers.is_empty(), "table needs at least one column");
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            title: None,
        }
    }

    /// Sets a title printed above the table.
    pub fn with_title(mut self, title: &str) -> Self {
        self.title = Some(title.to_owned());
        self
    }

    /// Appends a row of already-owned cells.
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the header count.
    pub fn row_owned(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row has {} cells, expected {}",
            cells.len(),
            self.headers.len()
        );
        self.rows.push(cells);
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
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(cols) {
                widths[i] = widths[i].max(cell.len());
            }
        }
        if let Some(t) = &self.title {
            writeln!(f, "{t}")?;
        }
        let write_row = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            let line = cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{c:>width$}", width = widths[i]))
                .collect::<Vec<_>>()
                .join("  ");
            writeln!(f, "{line}")
        };
        write_row(f, &self.headers)?;
        let rule: Vec<String> = widths.iter().map(|&w| "-".repeat(w)).collect();
        write_row(f, &rule)?;
        for row in &self.rows {
            write_row(f, row)?;
        }
        Ok(())
    }
}

/// Formats a probability compactly: fixed-point for moderate values,
/// scientific for tiny ones, `-` for `None`.
pub fn fmt_prob(p: Option<f64>) -> String {
    match p {
        None => "-".to_owned(),
        Some(0.0) => "0".to_owned(),
        Some(p) if p.abs() < 1e-3 => format!("{p:.2e}"),
        Some(p) => format!("{p:.4}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cells(cells: &[&str]) -> Vec<String> {
        cells.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(&["a", "long-header", "b"]);
        t.row_owned(cells(&["1", "2", "33333"]));
        let s = t.to_string();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 3);
        // All lines equal length (aligned).
        assert_eq!(lines[0].len(), lines[1].len());
        assert_eq!(lines[1].len(), lines[2].len());
    }

    #[test]
    fn title_precedes_table() {
        let mut t = Table::new(&["x"]).with_title("Table 1");
        t.row_owned(cells(&["1"]));
        let s = t.to_string();
        assert!(s.starts_with("Table 1\n"));
    }

    #[test]
    #[should_panic(expected = "row has 1 cells, expected 2")]
    fn wrong_cell_count_panics() {
        Table::new(&["a", "b"]).row_owned(cells(&["only-one"]));
    }

    #[test]
    #[should_panic(expected = "at least one column")]
    fn empty_headers_panic() {
        Table::new(&[]);
    }

    #[test]
    fn len_and_empty() {
        let mut t = Table::new(&["a"]);
        assert!(t.is_empty());
        t.row_owned(cells(&["1"])).row_owned(cells(&["2"]));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn row_owned_works() {
        let mut t = Table::new(&["a", "b"]);
        t.row_owned(vec!["1".into(), "2".into()]);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn fmt_prob_ranges() {
        assert_eq!(fmt_prob(None), "-");
        assert_eq!(fmt_prob(Some(0.0)), "0");
        assert_eq!(fmt_prob(Some(0.065)), "0.0650");
        assert_eq!(fmt_prob(Some(7e-5)), "7.00e-5");
    }
}
