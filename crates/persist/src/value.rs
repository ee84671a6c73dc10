//! The dynamically typed JSON document model used by checkpoints and
//! manifests.
//!
//! Objects keep their fields in insertion order (a `Vec` of pairs, not a
//! hash map) so that encoding is deterministic: the same snapshot always
//! produces the same bytes, which is what makes checkpoint diffing and the
//! bit-identical-resume contract testable.

use crate::error::PersistError;

/// One JSON value.
///
/// Numbers are split three ways so 64-bit integers survive a round trip
/// exactly: `I64` for negative integers, `U64` for non-negative integers
/// (covering `u64::MAX`), and `F64` for everything with a fractional part.
/// Non-finite floats have no JSON literal; the encoder writes them as the
/// strings `"NaN"`, `"Infinity"` and `"-Infinity"`, and [`Value::as_f64`]
/// accepts those strings back.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A negative integer (non-negative integers parse as [`Value::U64`]).
    I64(i64),
    /// A non-negative integer.
    U64(u64),
    /// A finite or non-finite double.
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object with fields in insertion order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Builds an object from `(key, value)` pairs, preserving order.
    pub fn object(fields: Vec<(&str, Value)>) -> Self {
        Value::Object(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Builds an array of finite-or-not doubles.
    pub fn f64_array(values: &[f64]) -> Self {
        Value::Array(values.iter().map(|&v| Value::F64(v)).collect())
    }

    /// Builds an array of `u64`s.
    pub fn u64_array(values: &[u64]) -> Self {
        Value::Array(values.iter().map(|&v| Value::U64(v)).collect())
    }

    /// Builds an array of `usize`s.
    pub fn usize_array(values: &[usize]) -> Self {
        Value::Array(values.iter().map(|&v| Value::U64(v as u64)).collect())
    }

    /// Looks up a field of an object; `Err(Schema)` when missing or when
    /// `self` is not an object.
    pub fn field(&self, name: &str) -> Result<&Value, PersistError> {
        match self {
            Value::Object(fields) => fields
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v)
                .ok_or_else(|| PersistError::schema(format!("missing field `{name}`"))),
            other => Err(PersistError::schema(format!(
                "expected object with field `{name}`, got {}",
                other.kind()
            ))),
        }
    }

    /// Looks up an optional field of an object (`None` when absent).
    pub fn field_opt(&self, name: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == name).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an `f64`. Accepts any number, plus the string spellings
    /// `"NaN"`, `"Infinity"` and `"-Infinity"` the encoder uses for
    /// non-finite floats.
    pub fn as_f64(&self) -> Result<f64, PersistError> {
        match self {
            Value::F64(v) => Ok(*v),
            Value::I64(v) => Ok(*v as f64),
            Value::U64(v) => Ok(*v as f64),
            Value::Str(s) => match s.as_str() {
                "NaN" => Ok(f64::NAN),
                "Infinity" => Ok(f64::INFINITY),
                "-Infinity" => Ok(f64::NEG_INFINITY),
                _ => Err(PersistError::schema(format!("expected number, got string {s:?}"))),
            },
            other => Err(PersistError::schema(format!("expected number, got {}", other.kind()))),
        }
    }

    /// The value as a `u64` (integers only; rejects negatives and floats).
    pub fn as_u64(&self) -> Result<u64, PersistError> {
        match self {
            Value::U64(v) => Ok(*v),
            Value::I64(v) if *v >= 0 => Ok(*v as u64),
            other => Err(PersistError::schema(format!(
                "expected unsigned integer, got {}",
                other.kind()
            ))),
        }
    }

    /// The value as a `usize`.
    pub fn as_usize(&self) -> Result<usize, PersistError> {
        let v = self.as_u64()?;
        usize::try_from(v).map_err(|_| PersistError::schema(format!("integer {v} overflows usize")))
    }

    /// The value as a `bool`.
    pub fn as_bool(&self) -> Result<bool, PersistError> {
        match self {
            Value::Bool(b) => Ok(*b),
            other => Err(PersistError::schema(format!("expected bool, got {}", other.kind()))),
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Result<&str, PersistError> {
        match self {
            Value::Str(s) => Ok(s),
            other => Err(PersistError::schema(format!("expected string, got {}", other.kind()))),
        }
    }

    /// The value as an array slice.
    pub fn as_array(&self) -> Result<&[Value], PersistError> {
        match self {
            Value::Array(items) => Ok(items),
            other => Err(PersistError::schema(format!("expected array, got {}", other.kind()))),
        }
    }

    /// Decodes an array of doubles (accepting the non-finite string forms).
    pub fn to_f64_vec(&self) -> Result<Vec<f64>, PersistError> {
        self.as_array()?.iter().map(Value::as_f64).collect()
    }

    /// Decodes an array of `u64`s.
    pub fn to_u64_vec(&self) -> Result<Vec<u64>, PersistError> {
        self.as_array()?.iter().map(Value::as_u64).collect()
    }

    /// Decodes an array of `usize`s.
    pub fn to_usize_vec(&self) -> Result<Vec<usize>, PersistError> {
        self.as_array()?.iter().map(Value::as_usize).collect()
    }

    /// A short name for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::I64(_) | Value::U64(_) => "integer",
            Value::F64(_) => "number",
            Value::Str(_) => "string",
            Value::Array(_) => "array",
            Value::Object(_) => "object",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_lookup_and_schema_errors() {
        let v = Value::object(vec![("a", Value::U64(1)), ("b", Value::Bool(true))]);
        assert_eq!(v.field("a").unwrap().as_u64().unwrap(), 1);
        assert!(v.field("b").unwrap().as_bool().unwrap());
        let err = v.field("missing").unwrap_err();
        assert!(err.to_string().contains("missing"));
        assert!(Value::Null.field("x").is_err());
        assert!(v.field_opt("b").is_some());
        assert!(v.field_opt("missing").is_none());
    }

    #[test]
    fn numeric_accessors_respect_ranges() {
        assert_eq!(Value::U64(u64::MAX).as_u64().unwrap(), u64::MAX);
        assert!(Value::I64(-3).as_u64().is_err());
        assert_eq!(Value::I64(4).as_u64().unwrap(), 4);
        assert_eq!(Value::U64(7).as_f64().unwrap(), 7.0);
        assert!(Value::Bool(true).as_f64().is_err());
    }

    #[test]
    fn non_finite_strings_read_back_as_f64() {
        assert!(Value::Str("NaN".into()).as_f64().unwrap().is_nan());
        assert_eq!(Value::Str("Infinity".into()).as_f64().unwrap(), f64::INFINITY);
        assert_eq!(Value::Str("-Infinity".into()).as_f64().unwrap(), f64::NEG_INFINITY);
        assert!(Value::Str("nan".into()).as_f64().is_err());
    }

    #[test]
    fn typed_vec_decoding() {
        let v = Value::f64_array(&[1.5, f64::NAN]);
        // f64_array keeps non-finite values as F64; to_f64_vec reads them.
        let round = v.to_f64_vec().unwrap();
        assert_eq!(round[0], 1.5);
        assert!(round[1].is_nan());
        assert_eq!(Value::usize_array(&[1, 2]).to_usize_vec().unwrap(), vec![1, 2]);
        assert_eq!(Value::u64_array(&[u64::MAX]).to_u64_vec().unwrap(), vec![u64::MAX]);
    }
}
