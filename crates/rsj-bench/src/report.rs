//! Output plumbing shared by the experiment binaries: Markdown tables, CSV
//! files and the `results/` directory convention.

use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;

/// Errors from assembling a report table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum ReportError {
    /// A row's cell count does not match the header's column count.
    RowWidthMismatch {
        /// Number of header columns.
        expected: usize,
        /// Number of cells in the offending row.
        got: usize,
        /// Index the row would have had.
        row_index: usize,
    },
}

impl std::fmt::Display for ReportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReportError::RowWidthMismatch {
                expected,
                got,
                row_index,
            } => write!(
                f,
                "row {row_index} has {got} cells but the header has {expected} columns"
            ),
        }
    }
}

impl std::error::Error for ReportError {}

/// Lets experiment binaries whose `emit` returns `io::Result` propagate
/// table-shape errors with `?`.
impl From<ReportError> for std::io::Error {
    fn from(e: ReportError) -> Self {
        std::io::Error::new(std::io::ErrorKind::InvalidInput, e)
    }
}

/// Where experiment outputs go: `$RSJ_RESULTS_DIR` or `./results`.
pub fn results_dir() -> PathBuf {
    let dir = std::env::var("RSJ_RESULTS_DIR").unwrap_or_else(|_| "results".into());
    PathBuf::from(dir)
}

/// Writes `content` to `results/<name>`, creating the directory, and
/// returns the path.
pub fn write_result_file(name: &str, content: &str) -> std::io::Result<PathBuf> {
    let dir = results_dir();
    fs::create_dir_all(&dir)?;
    let path = dir.join(name);
    fs::write(&path, content)?;
    Ok(path)
}

/// A simple Markdown/CSV table builder.
#[derive(Debug, Clone)]
pub(crate) struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub(crate) fn new<S: Into<String>>(header: Vec<S>) -> Self {
        Self {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row; errors when its length does not match the header
    /// (a malformed experiment result must surface as a reportable error,
    /// not a panic deep inside a long run).
    pub(crate) fn push_row<S: Into<String>>(&mut self, row: Vec<S>) -> Result<(), ReportError> {
        let row: Vec<String> = row.into_iter().map(Into::into).collect();
        if row.len() != self.header.len() {
            return Err(ReportError::RowWidthMismatch {
                expected: self.header.len(),
                got: row.len(),
                row_index: self.rows.len(),
            });
        }
        self.rows.push(row);
        Ok(())
    }

    /// Renders GitHub-flavoured Markdown.
    pub(crate) fn to_markdown(&self) -> String {
        let mut out = String::new();
        let widths: Vec<usize> = self
            .header
            .iter()
            .enumerate()
            .map(|(i, h)| {
                self.rows
                    .iter()
                    .map(|r| r[i].len())
                    .chain(std::iter::once(h.len()))
                    .max()
                    .unwrap_or(0)
            })
            .collect();
        let fmt_row = |cells: &[String]| {
            let mut line = String::from("|");
            for (c, w) in cells.iter().zip(&widths) {
                let _ = write!(line, " {c:w$} |");
            }
            line
        };
        out.push_str(&fmt_row(&self.header));
        out.push('\n');
        let mut sep = String::from("|");
        for w in &widths {
            let _ = write!(sep, "{:-<width$}|", "", width = w + 2);
        }
        out.push_str(&sep);
        out.push('\n');
        for r in &self.rows {
            out.push_str(&fmt_row(r));
            out.push('\n');
        }
        out
    }

    /// Renders CSV (comma-separated, quoting cells containing commas).
    pub(crate) fn to_csv(&self) -> String {
        let quote = |c: &str| {
            if c.contains(',') || c.contains('"') {
                format!("\"{}\"", c.replace('"', "\"\""))
            } else {
                c.to_string()
            }
        };
        let mut out = String::new();
        out.push_str(
            &self
                .header
                .iter()
                .map(|c| quote(c))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for r in &self.rows {
            out.push_str(&r.iter().map(|c| quote(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }

    /// Writes both renderings under `results/` with the given stem and
    /// prints the Markdown to stdout.
    pub(crate) fn emit(&self, stem: &str, title: &str) -> std::io::Result<()> {
        let md = format!("# {title}\n\n{}", self.to_markdown());
        println!("{md}");
        write_result_file(&format!("{stem}.md"), &md)?;
        write_result_file(&format!("{stem}.csv"), &self.to_csv())?;
        Ok(())
    }
}

/// Formats a ratio like the paper's tables (2 decimals), with `-` for
/// invalid entries.
pub(crate) fn fmt_ratio(v: Option<f64>) -> String {
    match v {
        Some(x) => format!("{x:.2}"),
        None => "-".into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markdown_rendering() {
        let mut t = Table::new(vec!["a", "b"]);
        t.push_row(vec!["1", "2.50"]).unwrap();
        let md = t.to_markdown();
        assert!(md.contains("| a | b"), "{md}");
        assert!(md.contains("| 1 | 2.50 |"), "{md}");
        assert!(md.lines().nth(1).unwrap().starts_with("|--"), "{md}");
    }

    #[test]
    fn csv_quotes_commas() {
        let mut t = Table::new(vec!["name", "v"]);
        t.push_row(vec!["a,b", "1"]).unwrap();
        assert!(t.to_csv().contains("\"a,b\",1"));
    }

    #[test]
    fn row_width_mismatch_is_a_typed_error() {
        let mut t = Table::new(vec!["a", "b"]);
        let err = t.push_row(vec!["only-one"]).unwrap_err();
        assert_eq!(
            err,
            ReportError::RowWidthMismatch {
                expected: 2,
                got: 1,
                row_index: 0,
            }
        );
        assert!(err.to_string().contains("2 columns"));
        assert!(t.rows.is_empty(), "failed row must not be committed");
        // And it converts into io::Error for `?` in emit() pipelines.
        let io: std::io::Error = err.into();
        assert_eq!(io.kind(), std::io::ErrorKind::InvalidInput);
    }

    #[test]
    fn fmt_ratio_dash() {
        assert_eq!(fmt_ratio(None), "-");
        assert_eq!(fmt_ratio(Some(1.3333)), "1.33");
    }
}
