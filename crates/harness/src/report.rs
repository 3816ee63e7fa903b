//! Plain-text tables and CSV output for experiment results.

use std::fmt::Display;
use std::fs;
use std::io::Write as _;
use std::path::Path;

/// A simple fixed-width ASCII table builder.
#[derive(Debug, Clone, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(header: I) -> Self {
        Table {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (stringifies each cell).
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row<S: Display, I: IntoIterator<Item = S>>(&mut self, cells: I) -> &mut Self {
        let row: Vec<String> = cells.into_iter().map(|c| c.to_string()).collect();
        assert_eq!(row.len(), self.header.len(), "row width mismatch");
        self.rows.push(row);
        self
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (cell, w) in cells.iter().zip(widths) {
                line.push_str(&format!("{cell:>w$}  ", w = w));
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(
            &"-".repeat(
                widths
                    .iter()
                    .map(|w| w + 2)
                    .sum::<usize>()
                    .saturating_sub(2),
            ),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Writes the table as CSV to `path`, creating parent directories.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent)?;
        }
        let mut f = fs::File::create(path)?;
        writeln!(f, "{}", csv_line(&self.header))?;
        for row in &self.rows {
            writeln!(f, "{}", csv_line(row))?;
        }
        Ok(())
    }
}

/// Renders an `(x, y)` series as a fixed-size ASCII line/step chart —
/// enough to eyeball Figure 15's shapes in a terminal.
///
/// `height` rows by `width` columns; x is mapped linearly over its range,
/// y likewise. Intended for monotone or slowly-varying series (bounds
/// curves, CDFs).
///
/// # Panics
///
/// Panics if `points` is empty or `width`/`height` are below 2.
pub fn ascii_chart(points: &[(f64, f64)], width: usize, height: usize) -> String {
    assert!(!points.is_empty(), "nothing to plot");
    assert!(width >= 2 && height >= 2, "chart too small");
    let (xmin, xmax) = points
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), p| {
            (lo.min(p.0), hi.max(p.0))
        });
    let (ymin, ymax) = points
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), p| {
            (lo.min(p.1), hi.max(p.1))
        });
    let xspan = (xmax - xmin).max(f64::MIN_POSITIVE);
    let yspan = (ymax - ymin).max(f64::MIN_POSITIVE);
    let mut grid = vec![vec![b' '; width]; height];
    for &(x, y) in points {
        let col = (((x - xmin) / xspan) * (width - 1) as f64).round() as usize;
        let row = (((y - ymin) / yspan) * (height - 1) as f64).round() as usize;
        grid[height - 1 - row][col] = b'*';
    }
    let mut out = String::new();
    out.push_str(&format!("{ymax:>10.3} ┤"));
    for (r, row) in grid.iter().enumerate() {
        if r > 0 {
            out.push_str(&format!("{:>10} ┤", ""));
        }
        out.push_str(std::str::from_utf8(row).expect("ascii"));
        out.push('\n');
    }
    out.push_str(&format!("{ymin:>10.3} └{}\n", "─".repeat(width)));
    out.push_str(&format!(
        "{:>11} {:<width$.0}{:>}\n",
        "",
        xmin,
        format!("{xmax:.0}"),
        width = width.saturating_sub(format!("{xmax:.0}").len())
    ));
    out
}

fn csv_line(cells: &[String]) -> String {
    cells
        .iter()
        .map(|c| {
            if c.contains(',') || c.contains('"') {
                format!("\"{}\"", c.replace('"', "\"\""))
            } else {
                c.clone()
            }
        })
        .collect::<Vec<_>>()
        .join(",")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new(["n", "bound"]);
        t.row([10.to_string(), "8.001".into()]);
        t.row([100_000.to_string(), "6.4".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains('n') && lines[0].contains("bound"));
        assert!(lines[3].contains("100000"));
    }

    #[test]
    fn csv_escapes_commas_and_quotes() {
        assert_eq!(
            csv_line(&["a,b".into(), "c\"d".into()]),
            "\"a,b\",\"c\"\"d\""
        );
        assert_eq!(csv_line(&["plain".into()]), "plain");
    }

    #[test]
    fn write_csv_roundtrip() {
        let dir = std::env::temp_dir().join("hyperring-report-test");
        let path = dir.join("t.csv");
        let mut t = Table::new(["x", "y"]);
        t.row(["1", "2"]);
        t.write_csv(&path).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert_eq!(content, "x,y\n1,2\n");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn mismatched_row_panics() {
        Table::new(["a", "b"]).row(["only-one"]);
    }

    #[test]
    fn ascii_chart_places_extremes() {
        let pts: Vec<(f64, f64)> = (0..=10).map(|i| (i as f64, (i * i) as f64)).collect();
        let s = ascii_chart(&pts, 40, 8);
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 8 + 2);
        // Max label on the first row, min label on the axis row.
        assert!(lines[0].trim_start().starts_with("100.000"));
        assert!(lines[8].trim_start().starts_with("0.000"));
        // The top row holds the rightmost point; the bottom data row the
        // leftmost.
        assert!(lines[0].trim_end().ends_with('*'));
        assert!(lines[7].contains('*'));
        assert_eq!(s.matches('*').count(), 11 - 2 + 2); // some rows merge
    }

    #[test]
    #[should_panic(expected = "nothing to plot")]
    fn ascii_chart_rejects_empty() {
        ascii_chart(&[], 10, 5);
    }

    #[test]
    fn ascii_chart_flat_series() {
        // Constant y must not divide by zero.
        let pts = vec![(0.0, 5.0), (1.0, 5.0), (2.0, 5.0)];
        let s = ascii_chart(&pts, 10, 4);
        assert!(s.contains('*'));
    }
}
