//! Markdown table builder for experiment reports.

/// Builds a GitHub-flavoured Markdown table with aligned columns.
///
/// # Example
///
/// ```
/// use sociolearn_plot::MarkdownTable;
///
/// let mut t = MarkdownTable::new(&["N", "regret", "bound"]);
/// t.add_row(&["100".into(), "0.21".into(), "0.4".into()]);
/// t.add_row(&["10000".into(), "0.12".into(), "0.4".into()]);
/// let md = t.render();
/// assert!(md.lines().count() == 4);
/// assert!(md.contains("| 10000 |"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MarkdownTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl MarkdownTable {
    /// Creates a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        MarkdownTable {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count does not match the header width.
    pub fn add_row(&mut self, cells: &[String]) {
        assert_eq!(
            cells.len(),
            self.header.len(),
            "table row width {} != header width {}",
            cells.len(),
            self.header.len()
        );
        self.rows.push(cells.to_vec());
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders to aligned Markdown.
    pub fn render(&self) -> String {
        let ncol = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        let fmt_row = |cells: &[String]| -> String {
            let padded: Vec<String> = cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:<w$}", c, w = widths[i]))
                .collect();
            format!("| {} |", padded.join(" | "))
        };
        let mut out = String::new();
        out.push_str(&fmt_row(&self.header));
        out.push('\n');
        let sep: Vec<String> = widths.iter().map(|w| "-".repeat((*w).max(3))).collect();
        out.push_str(&format!(
            "|{}|",
            sep.iter()
                .map(|s| format!(" {s} "))
                .collect::<Vec<_>>()
                .join("|")
        ));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        let _ = ncol;
        out
    }
}

impl std::fmt::Display for MarkdownTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_header_and_separator() {
        let t = MarkdownTable::new(&["a", "b"]);
        let md = t.render();
        let lines: Vec<&str> = md.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("| a"));
        assert!(lines[1].contains("---"));
    }

    #[test]
    fn columns_align() {
        let mut t = MarkdownTable::new(&["name", "v"]);
        t.add_row(&["x".into(), "1".into()]);
        t.add_row(&["longer-name".into(), "2".into()]);
        let md = t.render();
        let lines: Vec<&str> = md.lines().collect();
        // All rows should have equal rendered width.
        assert_eq!(lines[0].chars().count(), lines[2].chars().count());
        assert_eq!(lines[2].chars().count(), lines[3].chars().count());
    }

    #[test]
    #[should_panic(expected = "table row width")]
    fn mismatched_row_panics() {
        let mut t = MarkdownTable::new(&["a"]);
        t.add_row(&["1".into(), "2".into()]);
    }

    #[test]
    fn display_impl_matches_render() {
        let t = MarkdownTable::new(&["q"]);
        assert_eq!(format!("{t}"), t.render());
    }
}
