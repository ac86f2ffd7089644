//! The [`DataFrame`] type: a schema-checked set of equal-length columns.

use crate::column::Column;
use crate::value::Value;
use crate::{FrameError, Result};
use std::collections::HashSet;
use std::fmt;

/// A columnar table with named, equal-length, typed columns.
#[derive(Debug, Clone, PartialEq)]
pub struct DataFrame {
    names: Vec<String>,
    columns: Vec<Column>,
    n_rows: usize,
}

impl DataFrame {
    /// Builds a frame from `(name, column)` pairs.
    ///
    /// # Errors
    ///
    /// * [`FrameError::DuplicateColumn`] for repeated names.
    /// * [`FrameError::ColumnLengthMismatch`] for ragged columns.
    pub fn new<N: Into<String>>(columns: Vec<(N, Column)>) -> Result<DataFrame> {
        let mut names = Vec::with_capacity(columns.len());
        let mut cols = Vec::with_capacity(columns.len());
        let mut seen = HashSet::new();
        let mut n_rows = None;
        for (name, col) in columns {
            let name = name.into();
            if !seen.insert(name.clone()) {
                return Err(FrameError::DuplicateColumn(name));
            }
            match n_rows {
                None => n_rows = Some(col.len()),
                Some(n) if n != col.len() => {
                    return Err(FrameError::ColumnLengthMismatch {
                        column: name,
                        actual: col.len(),
                        expected: n,
                    })
                }
                _ => {}
            }
            names.push(name);
            cols.push(col);
        }
        Ok(DataFrame {
            names,
            columns: cols,
            n_rows: n_rows.unwrap_or(0),
        })
    }

    /// Column names in order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Whether a column exists.
    pub fn has_column(&self, name: &str) -> bool {
        self.names.iter().any(|n| n == name)
    }

    /// Appends a row of values, one per column in order.
    ///
    /// # Errors
    ///
    /// * [`FrameError::RowLengthMismatch`] for the wrong arity.
    /// * [`FrameError::TypeMismatch`] for incompatible values. On type
    ///   error the row is *not* partially applied — the frame rolls back.
    pub fn push_row(&mut self, row: Vec<Value>) -> Result<()> {
        if row.len() != self.columns.len() {
            return Err(FrameError::RowLengthMismatch {
                expected: self.columns.len(),
                actual: row.len(),
            });
        }
        // Validate all before mutating any (so a failed push can't leave a
        // ragged frame).
        for (col, value) in self.columns.iter().zip(&row) {
            let compatible = matches!(
                (col.dtype(), value),
                (_, Value::Null)
                    | (crate::DType::Int, Value::Int(_))
                    | (crate::DType::Float, Value::Float(_) | Value::Int(_))
                    | (crate::DType::Str, Value::Str(_))
                    | (crate::DType::Bool, Value::Bool(_))
            );
            if !compatible {
                return Err(FrameError::TypeMismatch {
                    expected: col.dtype().name(),
                    found: value.dtype().map_or("null", crate::DType::name),
                });
            }
        }
        for (col, value) in self.columns.iter_mut().zip(row) {
            col.push(value).expect("validated above");
        }
        self.n_rows += 1;
        Ok(())
    }

    /// Adds a column to the frame.
    ///
    /// # Errors
    ///
    /// * [`FrameError::DuplicateColumn`] for an existing name.
    /// * [`FrameError::ColumnLengthMismatch`] for a wrong-length column.
    pub fn add_column<N: Into<String>>(&mut self, name: N, column: Column) -> Result<()> {
        let name = name.into();
        if self.has_column(&name) {
            return Err(FrameError::DuplicateColumn(name));
        }
        if !self.columns.is_empty() && column.len() != self.n_rows {
            return Err(FrameError::ColumnLengthMismatch {
                column: name,
                actual: column.len(),
                expected: self.n_rows,
            });
        }
        if self.columns.is_empty() {
            self.n_rows = column.len();
        }
        self.names.push(name);
        self.columns.push(column);
        Ok(())
    }

    /// One row as a vector of values.
    ///
    /// # Errors
    ///
    /// Returns [`FrameError::RowOutOfBounds`] for a bad index.
    pub fn row(&self, index: usize) -> Result<Vec<Value>> {
        if index >= self.n_rows {
            return Err(FrameError::RowOutOfBounds {
                index,
                len: self.n_rows,
            });
        }
        Ok(self
            .columns
            .iter()
            .map(|c| c.get(index).expect("in range"))
            .collect())
    }

    /// Iterates over rows as value vectors.
    pub fn rows(&self) -> impl Iterator<Item = Vec<Value>> + '_ {
        (0..self.n_rows).map(move |i| self.row(i).expect("in range"))
    }
}

impl fmt::Display for DataFrame {
    /// Renders an aligned plain-text table (up to 20 rows).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        const MAX_ROWS: usize = 20;
        let mut widths: Vec<usize> = self.names.iter().map(String::len).collect();
        let shown = self.n_rows.min(MAX_ROWS);
        let mut cells: Vec<Vec<String>> = Vec::with_capacity(shown);
        for row in 0..shown {
            let rendered: Vec<String> = self
                .columns
                .iter()
                .map(|c| c.get(row).expect("in range").to_string())
                .collect();
            for (w, cell) in widths.iter_mut().zip(&rendered) {
                *w = (*w).max(cell.len());
            }
            cells.push(rendered);
        }
        for (name, w) in self.names.iter().zip(&widths) {
            write!(f, "{name:>w$}  ")?;
        }
        writeln!(f)?;
        for row in cells {
            for (cell, w) in row.iter().zip(&widths) {
                write!(f, "{cell:>w$}  ")?;
            }
            writeln!(f)?;
        }
        if self.n_rows > MAX_ROWS {
            writeln!(f, "... ({} rows total)", self.n_rows)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn column(values: impl IntoIterator<Item = impl Into<Value>>) -> Column {
        values.into_iter().map(Into::into).collect()
    }

    fn sample() -> DataFrame {
        DataFrame::new(vec![
            ("maker", column(["waymo", "bosch", "nissan", "waymo"])),
            ("miles", column([100.0, 20.0, 50.0, 300.0])),
            ("events", column([1i64, 5, 2, 3])),
        ])
        .unwrap()
    }

    #[test]
    fn construction_and_shape() {
        let df = sample();
        assert_eq!(df.rows().count(), 4);
        assert_eq!(df.names(), &["maker", "miles", "events"]);
        assert!(df.has_column("miles") && !df.has_column("nope"));
    }

    #[test]
    fn duplicate_column_rejected() {
        let r = DataFrame::new(vec![("a", column([1i64])), ("a", column([2i64]))]);
        assert!(matches!(r, Err(FrameError::DuplicateColumn(_))));
    }

    #[test]
    fn ragged_columns_rejected() {
        let r = DataFrame::new(vec![("a", column([1i64, 2])), ("b", column([1i64]))]);
        assert!(matches!(r, Err(FrameError::ColumnLengthMismatch { .. })));
    }

    #[test]
    fn push_row_ok() {
        let mut df = sample();
        df.push_row(vec![
            Value::Str("tesla".into()),
            Value::Float(9.0),
            Value::Int(0),
        ])
        .unwrap();
        assert_eq!(df.rows().count(), 5);
        assert_eq!(df.row(4).unwrap()[0], Value::Str("tesla".into()));
    }

    #[test]
    fn push_row_atomic_on_type_error() {
        let mut df = sample();
        let r = df.push_row(vec![
            Value::Str("tesla".into()),
            Value::Str("not a number".into()),
            Value::Int(0),
        ]);
        assert!(r.is_err());
        // No partial append: every column still has 4 rows.
        assert_eq!(df.rows().count(), 4);
        assert!(df.columns.iter().all(|c| c.len() == 4));
    }

    #[test]
    fn push_row_wrong_arity() {
        let mut df = sample();
        assert!(matches!(
            df.push_row(vec![Value::Int(1)]),
            Err(FrameError::RowLengthMismatch { .. })
        ));
    }

    #[test]
    fn rows_iterate() {
        let df = sample();
        assert_eq!(df.rows().count(), 4);
        assert_eq!(
            df.row(1).unwrap(),
            vec![
                Value::Str("bosch".into()),
                Value::Float(20.0),
                Value::Int(5)
            ]
        );
        assert!(df.row(4).is_err());
    }

    #[test]
    fn add_column_checks() {
        let mut df = sample();
        df.add_column("flag", column([true, false, true, false]))
            .unwrap();
        assert_eq!(df.names().len(), 4);
        assert!(df
            .add_column("flag", column([true, false, true, false]))
            .is_err());
        assert!(df.add_column("short", column([true])).is_err());
    }

    #[test]
    fn display_renders() {
        let out = sample().to_string();
        assert!(out.contains("maker"));
        assert!(out.contains("waymo"));
    }
}
