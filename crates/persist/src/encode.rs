//! The JSON encoder.
//!
//! Output is deterministic: object fields appear in insertion order and
//! floats use Rust's shortest-round-trip `Display` formatting, so equal
//! [`Value`]s always serialize to equal bytes.
//!
//! Every token is appended to one output `String`: integers go through a
//! stack digit buffer and floats through the Ryū kernel in
//! `shortest.rs`, so encoding allocates nothing per number. The
//! per-number `to_string` encoder this replaced is kept in the crate's
//! test oracle, which holds the two to the same bytes.

use crate::shortest;
use crate::value::Value;

/// Encodes a value as compact JSON (no whitespace).
pub fn to_string(value: &Value) -> String {
    let mut out = String::new();
    write_value(&mut out, value);
    out
}

fn write_value(out: &mut String, value: &Value) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::I64(v) => {
            if *v < 0 {
                out.push('-');
            }
            write_u64(out, v.unsigned_abs());
        }
        Value::U64(v) => write_u64(out, *v),
        Value::F64(v) => write_f64(out, *v),
        Value::Str(s) => write_string(out, s),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(out, item);
            }
            out.push(']');
        }
        Value::Object(fields) => {
            out.push('{');
            for (i, (key, item)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_string(out, key);
                out.push(':');
                write_value(out, item);
            }
            out.push('}');
        }
    }
}

/// Appends the decimal digits of `v`.
fn write_u64(out: &mut String, v: u64) {
    out.push_str(shortest::decimal(v, &mut [0u8; 20]));
}

fn write_f64(out: &mut String, v: f64) {
    if v.is_nan() {
        out.push_str("\"NaN\"");
    } else if v == f64::INFINITY {
        out.push_str("\"Infinity\"");
    } else if v == f64::NEG_INFINITY {
        out.push_str("\"-Infinity\"");
    } else {
        // Rust's Display for f64 is the shortest string that round-trips.
        // Keep a decimal point so the token re-parses as a float, not an
        // integer: 2.0 must encode as "2.0", not "2".
        if !shortest::write_finite(out, v) {
            out.push_str(".0");
        }
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    // Copy runs of characters that need no escape as one slice; every
    // escaped character is ASCII, so the run boundaries are char
    // boundaries.
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0x08 => "\\b",
            0x0C => "\\f",
            0x00..=0x1F => "",
            _ => continue,
        };
        out.push_str(&s[run..i]);
        run = i + 1;
        if escape.is_empty() {
            const HEX: &[u8; 16] = b"0123456789abcdef";
            out.push_str("\\u00");
            out.push(char::from(HEX[usize::from(b >> 4)]));
            out.push(char::from(HEX[usize::from(b & 0xF)]));
        } else {
            out.push_str(escape);
        }
    }
    out.push_str(&s[run..]);
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_encode_to_json_literals() {
        assert_eq!(to_string(&Value::Null), "null");
        assert_eq!(to_string(&Value::Bool(true)), "true");
        assert_eq!(to_string(&Value::I64(-42)), "-42");
        assert_eq!(to_string(&Value::U64(u64::MAX)), "18446744073709551615");
        assert_eq!(to_string(&Value::F64(1.5)), "1.5");
    }

    #[test]
    fn integral_floats_keep_a_decimal_point() {
        assert_eq!(to_string(&Value::F64(2.0)), "2.0");
        assert_eq!(to_string(&Value::F64(-0.0)), "-0.0");
        assert_eq!(to_string(&Value::F64(1e30)), "1000000000000000000000000000000.0");
    }

    #[test]
    fn non_finite_floats_become_strings() {
        assert_eq!(to_string(&Value::F64(f64::NAN)), "\"NaN\"");
        assert_eq!(to_string(&Value::F64(f64::INFINITY)), "\"Infinity\"");
        assert_eq!(to_string(&Value::F64(f64::NEG_INFINITY)), "\"-Infinity\"");
    }

    #[test]
    fn strings_escape_specials_and_control_bytes() {
        assert_eq!(to_string(&Value::Str("a\"b\\c\n".into())), r#""a\"b\\c\n""#);
        assert_eq!(to_string(&Value::Str("\u{01}".into())), r#""\u0001""#);
        assert_eq!(to_string(&Value::Str("héllo ☃".into())), "\"héllo ☃\"");
    }

    #[test]
    fn containers_nest_compactly_in_order() {
        let v = Value::object(vec![
            ("b", Value::Array(vec![Value::U64(1), Value::Null])),
            ("a", Value::Str("x".into())),
        ]);
        assert_eq!(to_string(&v), r#"{"b":[1,null],"a":"x"}"#);
    }
}
