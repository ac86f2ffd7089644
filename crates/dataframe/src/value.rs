//! Scalar values and data types.

use std::fmt;

/// The data type of a [`crate::Column`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DType {
    /// 64-bit signed integer.
    Int,
    /// 64-bit float.
    Float,
    /// UTF-8 string.
    Str,
    /// Boolean.
    Bool,
}

impl DType {
    /// Human-readable name of the type.
    pub fn name(self) -> &'static str {
        match self {
            DType::Int => "int",
            DType::Float => "float",
            DType::Str => "str",
            DType::Bool => "bool",
        }
    }
}

impl fmt::Display for DType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A single dynamically-typed cell value.
///
/// `Null` is a distinguished missing marker valid in any column — the CA
/// DMV reports are full of absent fields (Table I's dashes), so nulls are
/// first-class here.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Missing value.
    Null,
    /// Integer value.
    Int(i64),
    /// Float value.
    Float(f64),
    /// String value.
    Str(String),
    /// Boolean value.
    Bool(bool),
}

impl Value {
    /// The [`DType`] this value inhabits, or `None` for `Null`.
    pub fn dtype(&self) -> Option<DType> {
        match self {
            Value::Null => None,
            Value::Int(_) => Some(DType::Int),
            Value::Float(_) => Some(DType::Float),
            Value::Str(_) => Some(DType::Str),
            Value::Bool(_) => Some(DType::Bool),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str(""),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => f.write_str(s),
            Value::Bool(b) => write!(f, "{b}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Value {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::Float(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Str(v.to_owned())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::Str(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}

impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Value {
        match v {
            Some(x) => x.into(),
            None => Value::Null,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dtype_names() {
        assert_eq!(DType::Int.to_string(), "int");
        assert_eq!(DType::Float.name(), "float");
        assert_eq!(DType::Str.name(), "str");
        assert_eq!(DType::Bool.name(), "bool");
    }

    #[test]
    fn value_dtypes() {
        assert_eq!(Value::Int(1).dtype(), Some(DType::Int));
        assert_eq!(Value::Null.dtype(), None);
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from(5i64), Value::Int(5));
        assert_eq!(Value::from(1.5), Value::Float(1.5));
        assert_eq!(Value::from("hi"), Value::Str("hi".into()));
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::from(None::<i64>), Value::Null);
        assert_eq!(Value::from(Some(2i64)), Value::Int(2));
    }

    #[test]
    fn display() {
        assert_eq!(Value::Null.to_string(), "");
        assert_eq!(Value::Int(-3).to_string(), "-3");
        assert_eq!(Value::Bool(false).to_string(), "false");
    }
}
