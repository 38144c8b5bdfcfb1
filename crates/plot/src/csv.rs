//! Dependency-free CSV output.

/// A small CSV writer with RFC-4180-style quoting.
///
/// # Example
///
/// ```
/// use sociolearn_plot::CsvWriter;
///
/// let mut w = CsvWriter::new(vec!["t".into(), "regret".into()]);
/// w.row(&["0".into(), "0.5".into()]);
/// w.row_values(&[1.0, 0.25]);
/// let text = w.to_string();
/// assert!(text.starts_with("t,regret\n"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsvWriter {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl CsvWriter {
    /// Creates a writer with the given column names.
    pub fn new(header: Vec<String>) -> Self {
        CsvWriter {
            header,
            rows: Vec::new(),
        }
    }

    /// Creates a writer from string-slice column names.
    pub fn with_columns(cols: &[&str]) -> Self {
        CsvWriter::new(cols.iter().map(|s| s.to_string()).collect())
    }

    /// Appends one row of pre-formatted cells.
    ///
    /// # Panics
    ///
    /// Panics if the cell count does not match the header width.
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(
            cells.len(),
            self.header.len(),
            "csv row width {} != header width {}",
            cells.len(),
            self.header.len()
        );
        self.rows.push(cells.to_vec());
    }

    /// Appends one row of numeric cells (formatted with `{}`).
    ///
    /// # Panics
    ///
    /// Panics if the cell count does not match the header width.
    pub fn row_values(&mut self, values: &[f64]) {
        let cells: Vec<String> = values.iter().map(|v| format!("{v}")).collect();
        self.row(&cells);
    }

    /// Number of data rows so far.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether no rows have been added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Serializes to CSV text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&join_csv(&self.header));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&join_csv(row));
            out.push('\n');
        }
        out
    }
}

impl std::fmt::Display for CsvWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render())
    }
}

fn join_csv(cells: &[String]) -> String {
    cells.iter().map(|c| quote(c)).collect::<Vec<_>>().join(",")
}

fn quote(cell: &str) -> String {
    if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
        format!("\"{}\"", cell.replace('"', "\"\""))
    } else {
        cell.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_roundtrip() {
        let mut w = CsvWriter::with_columns(&["a", "b"]);
        w.row_values(&[1.0, 2.5]);
        assert_eq!(w.render(), "a,b\n1,2.5\n");
        assert_eq!(w.len(), 1);
    }

    #[test]
    fn quoting_rules() {
        let mut w = CsvWriter::with_columns(&["x"]);
        w.row(&["hello, world".into()]);
        w.row(&["say \"hi\"".into()]);
        let text = w.render();
        assert!(text.contains("\"hello, world\""));
        assert!(text.contains("\"say \"\"hi\"\"\""));
    }

    #[test]
    #[should_panic(expected = "csv row width")]
    fn width_mismatch_panics() {
        let mut w = CsvWriter::with_columns(&["a", "b"]);
        w.row(&["only-one".into()]);
    }

    #[test]
    fn render_ends_every_line() {
        let mut w = CsvWriter::with_columns(&["n"]);
        w.row_values(&[9.0]);
        assert_eq!(w.render(), "n\n9\n");
    }

    #[test]
    fn display_matches_render() {
        let w = CsvWriter::with_columns(&["z"]);
        assert_eq!(format!("{w}"), w.render());
        assert!(w.is_empty());
    }
}
