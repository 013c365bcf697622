//! Minimal fixed-width text tables for experiment reports.

use std::fmt;

/// A plain-text table with a header row and right-aligned numeric columns.
///
/// # Examples
///
/// ```
/// use aoft_models::tables::TextTable;
///
/// let mut t = TextTable::new(vec!["N", "ticks"]);
/// t.row(vec!["4".into(), "123.5".into()]);
/// let out = t.to_string();
/// assert!(out.contains("N"));
/// assert!(out.contains("123.5"));
/// ```
#[derive(Debug, Clone)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        Self {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.header.len(),
            "row width {} vs header width {}",
            cells.len(),
            self.header.len()
        );
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` if the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

impl fmt::Display for TextTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        let write_row = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    write!(f, "  ")?;
                }
                // First column left-aligned (labels), the rest right-aligned
                // (numbers).
                if i == 0 {
                    write!(f, "{cell:<width$}", width = widths[i])?;
                } else {
                    write!(f, "{cell:>width$}", width = widths[i])?;
                }
            }
            writeln!(f)
        };
        write_row(f, &self.header)?;
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        writeln!(f, "{}", "-".repeat(total))?;
        for row in &self.rows {
            write_row(f, row)?;
        }
        Ok(())
    }
}

/// Formats a tick count with one decimal.
pub(crate) fn ticks(value: f64) -> String {
    format!("{value:.1}")
}

/// Formats a ratio as a percentage with one decimal.
pub(crate) fn percent(value: f64) -> String {
    format!("{:.1}%", value * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = TextTable::new(vec!["algo", "N", "time"]);
        t.row(vec!["S_FT".into(), "32".into(), "104.0".into()]);
        t.row(vec!["host-seq".into(), "4".into(), "9.5".into()]);
        let out = t.to_string();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[1].starts_with("---"));
        assert!(lines[2].starts_with("S_FT"));
        // Right-aligned numeric columns end at the same offset.
        assert_eq!(lines[2].len(), lines[3].len());
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn ragged_row_panics() {
        TextTable::new(vec!["a", "b"]).row(vec!["x".into()]);
    }

    #[test]
    fn formatters() {
        assert_eq!(ticks(12.345), "12.3");
        assert_eq!(percent(0.111), "11.1%");
    }
}
