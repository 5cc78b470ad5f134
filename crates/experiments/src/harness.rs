//! Experiment harness: aligned-column tables on stdout and CSV artifacts
//! under `results/`.

use std::fmt::Display;
use std::path::PathBuf;

/// A rectangular result table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    /// Human title printed above the table.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows; each must have `headers.len()` cells.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// New empty table.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Table {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row of displayable cells.
    ///
    /// # Panics
    /// Panics if the arity does not match the headers.
    pub fn push(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row arity mismatch in table '{}'",
            self.title
        );
        self.rows.push(cells);
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let line = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&line(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&line(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Print to stdout.
    pub fn print(&self) {
        println!("{}", self.render());
    }

    /// Render as a GitHub-flavoured markdown table (title as a heading).
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("### {}\n\n", self.title));
        out.push_str(&format!("| {} |\n", self.headers.join(" | ")));
        out.push_str(&format!(
            "|{}\n",
            self.headers.iter().map(|_| "---|").collect::<String>()
        ));
        for row in &self.rows {
            out.push_str(&format!("| {} |\n", row.join(" | ")));
        }
        out.push('\n');
        out
    }

    /// Render as CSV text (RFC-4180 style quoting).
    pub fn to_csv(&self) -> String {
        let esc = |s: &str| {
            if s.contains([',', '"', '\n']) {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        let mut out = String::new();
        out.push_str(
            &self
                .headers
                .iter()
                .map(|h| esc(h))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }

    /// Write as CSV into the results directory; returns the path. The write
    /// is atomic (temp file + rename), so a crash mid-write never leaves a
    /// truncated artifact where a previous good one stood.
    pub fn try_write_csv(&self, stem: &str) -> std::io::Result<PathBuf> {
        let path = results_dir().join(format!("{stem}.csv"));
        dbp_obs::export::atomic_write(&path, self.to_csv().as_bytes())?;
        Ok(path)
    }

    /// Write as CSV into the results directory; returns the path.
    ///
    /// # Panics
    /// Panics on I/O errors — experiments must not silently lose artifacts.
    /// Fallible callers (`run_all`) use [`try_write_csv`](Self::try_write_csv).
    pub fn write_csv(&self, stem: &str) -> PathBuf {
        self.try_write_csv(stem).expect("cannot write CSV")
    }
}

/// Where CSV artifacts go: `$DBP_RESULTS` or `./results`.
pub fn results_dir() -> PathBuf {
    std::env::var_os("DBP_RESULTS")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results"))
}

/// Format helper: fixed 3-decimal float.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Format helper: any displayable value.
pub fn cell(x: impl Display) -> String {
    x.to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new("demo", &["k", "ratio"]);
        t.push(vec!["2".into(), "1.5".into()]);
        t.push(vec!["16".into(), "10.25".into()]);
        let r = t.render();
        assert!(r.contains("== demo =="));
        assert!(r.contains(" k"));
        // Right-aligned: the 2 under the 16's column.
        let lines: Vec<&str> = r.lines().collect();
        assert_eq!(lines.len(), 5);
    }

    #[test]
    fn markdown_rendering() {
        let mut t = Table::new("demo", &["k", "ratio"]);
        t.push(vec!["2".into(), "1.5".into()]);
        let md = t.to_markdown();
        assert!(md.contains("### demo"));
        assert!(md.contains("| k | ratio |"));
        assert!(md.contains("|---|---|"));
        assert!(md.contains("| 2 | 1.5 |"));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_mismatch_panics() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.push(vec!["1".into()]);
    }

    #[test]
    fn csv_escapes_commas_and_quotes() {
        let mut t = Table::new("demo", &["x"]);
        t.push(vec!["a,b\"c".into()]);
        let dir = std::env::temp_dir().join("dbp-exp-test");
        std::env::set_var("DBP_RESULTS", &dir);
        let p = t.write_csv("escape_test");
        let body = std::fs::read_to_string(&p).unwrap();
        assert!(body.contains("\"a,b\"\"c\""));
        // Atomic write: no temp sibling left behind.
        assert!(!p.with_extension("csv.tmp").exists());
        std::env::remove_var("DBP_RESULTS");
    }

    #[test]
    fn csv_write_creates_missing_results_dir() {
        let dir = std::env::temp_dir().join("dbp-exp-test-nested/deeper");
        let _ = std::fs::remove_dir_all(&dir);
        let mut t = Table::new("demo", &["x"]);
        t.push(vec!["1".into()]);
        std::env::set_var("DBP_RESULTS", &dir);
        let p = t.try_write_csv("fresh").unwrap();
        std::env::remove_var("DBP_RESULTS");
        assert!(p.exists());
        let _ = std::fs::remove_dir_all(dir.parent().unwrap());
    }
}
