//! Typed, null-aware columns.

use crate::value::{DType, Value};
use crate::{FrameError, Result};

/// A typed column of values with per-row nullability.
///
/// Internally each variant stores `Option<T>` per cell; `None` is the
/// missing marker (rendered as an empty CSV field).
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    /// 64-bit integers.
    Int(Vec<Option<i64>>),
    /// 64-bit floats.
    Float(Vec<Option<f64>>),
    /// UTF-8 strings.
    Str(Vec<Option<String>>),
    /// Booleans.
    Bool(Vec<Option<bool>>),
}

impl Column {
    /// Creates an empty column of the given type.
    pub fn empty(dtype: DType) -> Column {
        match dtype {
            DType::Int => Column::Int(Vec::new()),
            DType::Float => Column::Float(Vec::new()),
            DType::Str => Column::Str(Vec::new()),
            DType::Bool => Column::Bool(Vec::new()),
        }
    }

    /// Builds a non-null string column from owned strings.
    pub fn from_strings(values: Vec<String>) -> Column {
        Column::Str(values.into_iter().map(Some).collect())
    }

    /// Builds a nullable string column.
    pub fn from_opt_strings(values: Vec<Option<String>>) -> Column {
        Column::Str(values)
    }

    /// The column's data type.
    pub fn dtype(&self) -> DType {
        match self {
            Column::Int(_) => DType::Int,
            Column::Float(_) => DType::Float,
            Column::Str(_) => DType::Str,
            Column::Bool(_) => DType::Bool,
        }
    }

    /// Number of cells (including nulls).
    pub fn len(&self) -> usize {
        match self {
            Column::Int(v) => v.len(),
            Column::Float(v) => v.len(),
            Column::Str(v) => v.len(),
            Column::Bool(v) => v.len(),
        }
    }

    /// Whether the column has no cells.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The value at `row`.
    ///
    /// # Errors
    ///
    /// Returns [`FrameError::RowOutOfBounds`] for a bad index.
    pub fn get(&self, row: usize) -> Result<Value> {
        if row >= self.len() {
            return Err(FrameError::RowOutOfBounds {
                index: row,
                len: self.len(),
            });
        }
        Ok(match self {
            Column::Int(v) => v[row].map_or(Value::Null, Value::Int),
            Column::Float(v) => v[row].map_or(Value::Null, Value::Float),
            Column::Str(v) => v[row]
                .as_ref()
                .map_or(Value::Null, |s| Value::Str(s.clone())),
            Column::Bool(v) => v[row].map_or(Value::Null, Value::Bool),
        })
    }

    /// Appends a [`Value`], which must be `Null` or match the column type
    /// (integers are widened into float columns).
    ///
    /// # Errors
    ///
    /// Returns [`FrameError::TypeMismatch`] for an incompatible value.
    pub fn push(&mut self, value: Value) -> Result<()> {
        match (self, value) {
            (Column::Int(v), Value::Int(i)) => v.push(Some(i)),
            (Column::Int(v), Value::Null) => v.push(None),
            (Column::Float(v), Value::Float(f)) => v.push(Some(f)),
            (Column::Float(v), Value::Int(i)) => v.push(Some(i as f64)),
            (Column::Float(v), Value::Null) => v.push(None),
            (Column::Str(v), Value::Str(s)) => v.push(Some(s)),
            (Column::Str(v), Value::Null) => v.push(None),
            (Column::Bool(v), Value::Bool(b)) => v.push(Some(b)),
            (Column::Bool(v), Value::Null) => v.push(None),
            (col, value) => {
                return Err(FrameError::TypeMismatch {
                    expected: col.dtype().name(),
                    found: value.dtype().map_or("null", DType::name),
                })
            }
        }
        Ok(())
    }
}

impl FromIterator<Value> for Column {
    /// Builds a column from values, inferring the type from the first
    /// non-null value (defaults to `Str` if all values are null).
    ///
    /// # Panics
    ///
    /// Panics if the values have inconsistent types. For fallible
    /// construction, build with [`Column::empty`] + [`Column::push`].
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> Column {
        let values: Vec<Value> = iter.into_iter().collect();
        let dtype = values.iter().find_map(Value::dtype).unwrap_or(DType::Str);
        let mut col = Column::empty(dtype);
        for v in values {
            col.push(v).expect("consistent types in FromIterator");
        }
        col
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_len() {
        assert_eq!(Column::from_strings(vec!["a".into(), "b".into()]).len(), 2);
        assert_eq!(Column::from_opt_strings(vec![None]).dtype(), DType::Str);
        assert!(Column::empty(DType::Int).is_empty());
    }

    #[test]
    fn get_and_bounds() {
        let c: Column = [Value::Int(10), Value::Int(20)].into_iter().collect();
        assert_eq!(c.get(1).unwrap(), Value::Int(20));
        assert!(matches!(
            c.get(2),
            Err(FrameError::RowOutOfBounds { index: 2, len: 2 })
        ));
    }

    #[test]
    fn push_type_checking() {
        let mut c = Column::empty(DType::Int);
        c.push(Value::Int(1)).unwrap();
        c.push(Value::Null).unwrap();
        assert!(matches!(
            c.push(Value::Str("x".into())),
            Err(FrameError::TypeMismatch { .. })
        ));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn float_column_accepts_ints() {
        let mut c = Column::empty(DType::Float);
        c.push(Value::Int(3)).unwrap();
        assert_eq!(c.get(0).unwrap(), Value::Float(3.0));
    }

    #[test]
    fn from_iterator_infers_type() {
        let c: Column = vec![Value::Null, Value::Int(5), Value::Null]
            .into_iter()
            .collect();
        assert_eq!(c.dtype(), DType::Int);
        assert_eq!(c.get(0).unwrap(), Value::Null);
        // All-null defaults to Str.
        let c: Column = vec![Value::Null].into_iter().collect();
        assert_eq!(c.dtype(), DType::Str);
    }
}
