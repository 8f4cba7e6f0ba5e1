//! Aligned text tables, CSV emitters and the one writer of result files.
//!
//! Every experiment prints a human-readable table to stdout (the shape
//! the paper's tables have) and writes the same data as CSV for plotting
//! through [`write_result`].

use std::path::{Path, PathBuf};

/// A simple column-aligned table builder.
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with the given header cells.
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        Self {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row; must match the header width.
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) -> &mut Self {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(
            cells.len(),
            self.header.len(),
            "row width {} != header width {}",
            cells.len(),
            self.header.len()
        );
        self.rows.push(cells);
        self
    }

    /// Render with padded columns (first column left-aligned, the rest
    /// right-aligned, like the paper's tables).
    pub fn render(&self) -> String {
        let ncols = self.header.len();
        let mut widths = vec![0usize; ncols];
        for (i, h) in self.header.iter().enumerate() {
            widths[i] = widths[i].max(h.len());
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, c) in cells.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                if i == 0 {
                    line.push_str(&format!("{c:<width$}", width = widths[i]));
                } else {
                    line.push_str(&format!("{c:>width$}", width = widths[i]));
                }
            }
            line
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 2 * (ncols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Render as CSV (RFC-4180-ish; quotes cells containing commas).
    pub fn to_csv(&self) -> String {
        let esc = |c: &String| -> String {
            if c.contains(',') || c.contains('"') {
                format!("\"{}\"", c.replace('"', "\"\""))
            } else {
                c.clone()
            }
        };
        let mut out = String::new();
        out.push_str(&self.header.iter().map(esc).collect::<Vec<_>>().join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(esc).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }

    /// Write the CSV as `results/<name>.csv` through [`write_result`].
    pub fn write_csv(&self, name: &str) -> PathBuf {
        write_result(&format!("{name}.csv"), &self.to_csv())
    }
}

/// Write `contents` to `results/<file>` (creating `results/`) and return
/// the path written.
///
/// # Panics
/// Naming the path and the io error, when the file cannot be written: a
/// lost result file stops the run instead of leaving a stale copy.
pub fn write_result(file: &str, contents: &str) -> PathBuf {
    write_under(Path::new("results"), file, contents)
}

fn write_under(dir: &Path, file: &str, contents: &str) -> PathBuf {
    let path = dir.join(file);
    if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, contents)) {
        panic!("cannot write {}: {e}", path.display());
    }
    path
}

/// Format a float with `digits` decimals.
pub fn f(v: f64, digits: usize) -> String {
    format!("{v:.digits$}")
}

/// Format a ratio as a percentage with 1 decimal.
pub fn pct(v: f64) -> String {
    format!("{:.1}%", v * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new(vec!["name", "value"]);
        t.row(vec!["a", "1"]);
        t.row(vec!["longer", "22"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        // All lines the same width.
        assert_eq!(lines[0].len(), lines[2].len());
        assert_eq!(lines[2].len(), lines[3].len());
        assert!(lines[3].starts_with("longer"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["only-one"]);
    }

    #[test]
    fn csv_escapes_commas() {
        let mut t = Table::new(vec!["k", "v"]);
        t.row(vec!["a,b", "plain"]);
        let csv = t.to_csv();
        assert!(csv.contains("\"a,b\",plain"));
    }

    #[test]
    fn write_fails_loudly_naming_the_path() {
        let blocker =
            std::env::temp_dir().join(format!("tmprof-results-blocker-{}", std::process::id()));
        std::fs::write(
            &blocker,
            "a regular file where the results directory belongs",
        )
        .unwrap();
        let err = std::panic::catch_unwind(|| write_under(&blocker, "x.csv", "k,v\n")).unwrap_err();
        std::fs::remove_file(&blocker).ok();
        let msg = err
            .downcast_ref::<String>()
            .expect("formatted panic message");
        assert!(
            msg.contains(&blocker.join("x.csv").display().to_string()),
            "{msg}"
        );
    }

    #[test]
    fn formatters() {
        assert_eq!(f(1.23456, 2), "1.23");
        assert_eq!(pct(0.1234), "12.3%");
    }
}
