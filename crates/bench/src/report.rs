//! Plain-text result tables.
//!
//! The `err × k` tables and the `recovery` / `robustness` rows render
//! an aligned matrix — rows and columns labelled with the swept
//! parameters — so the output can be compared against the paper's chart
//! by eye and parsed by scripts (cells are whitespace-separated).

use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// A labelled numeric matrix (rows × columns).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    /// Title printed above the table.
    pub title: String,
    /// Label of the row dimension.
    pub row_label: String,
    /// Row header values.
    pub rows: Vec<String>,
    /// Column header values.
    pub cols: Vec<String>,
    /// `values[row][col]`.
    pub values: Vec<Vec<f64>>,
}

impl Matrix {
    /// Creates a matrix, validating the shape.
    ///
    /// # Panics
    ///
    /// Panics when `values` is not `rows.len() × cols.len()` — harness
    /// construction bugs should fail loudly.
    pub fn new(
        title: impl Into<String>,
        row_label: impl Into<String>,
        rows: Vec<String>,
        cols: Vec<String>,
        values: Vec<Vec<f64>>,
    ) -> Self {
        assert_eq!(values.len(), rows.len(), "row count mismatch");
        for row in &values {
            assert_eq!(row.len(), cols.len(), "column count mismatch");
        }
        Matrix {
            title: title.into(),
            row_label: row_label.into(),
            rows,
            cols,
            values,
        }
    }

    /// Renders the matrix as an aligned text table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# {}", self.title);
        let width = 10usize;
        let row_header_width = self
            .row_label
            .len()
            .max(self.rows.iter().map(String::len).max().unwrap_or(0))
            + 2;
        let _ = write!(out, "{:<row_header_width$}", self.row_label);
        for c in &self.cols {
            let _ = write!(out, "{c:>width$}");
        }
        let _ = writeln!(out);
        for (r, row) in self.rows.iter().zip(&self.values) {
            let _ = write!(out, "{r:<row_header_width$}");
            for v in row {
                let _ = write!(out, "{v:>width$.4}");
            }
            let _ = writeln!(out);
        }
        out
    }

    /// Serializes to pretty JSON (for machine consumption alongside the
    /// text table).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("matrices serialize")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Matrix {
        Matrix::new(
            "demo",
            "err",
            vec!["0.002".into(), "0.004".into()],
            vec!["k=1".into(), "k=2".into()],
            vec![vec![0.5, 0.25], vec![0.4, 0.2]],
        )
    }

    #[test]
    fn render_contains_all_cells() {
        let text = sample().render();
        assert!(text.contains("# demo"));
        assert!(text.contains("0.002"));
        assert!(text.contains("k=2"));
        assert!(text.contains("0.2500"));
        assert_eq!(text.lines().count(), 4);
    }

    #[test]
    fn render_is_aligned() {
        let text = sample().render();
        let lines: Vec<&str> = text.lines().skip(1).collect();
        let lens: Vec<usize> = lines.iter().map(|l| l.len()).collect();
        assert!(lens.windows(2).all(|w| w[0] == w[1]), "lines {lens:?}");
    }

    #[test]
    fn json_round_trip() {
        let m = sample();
        let back: Matrix = serde_json::from_str(&m.to_json()).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    #[should_panic(expected = "row count mismatch")]
    fn shape_validation_rows() {
        Matrix::new("x", "r", vec!["a".into()], vec!["c".into()], vec![]);
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn shape_validation_cols() {
        Matrix::new(
            "x",
            "r",
            vec!["a".into()],
            vec!["c".into()],
            vec![vec![1.0, 2.0]],
        );
    }
}
