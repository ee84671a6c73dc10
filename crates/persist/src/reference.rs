//! The JSON encoder and the CRC-32 as first written, kept as the oracles
//! for [`crate::encode`] and [`crate::crc32`], and the differential
//! harness that holds each pair to the same bytes.
//!
//! [`to_string`] formats every number through its own `to_string`
//! `String` (floats through `Display`) and escapes strings one character
//! at a time; [`crc32`] folds one byte per step through one table. The production kernels must
//! reproduce both bit for bit: checkpoint bytes are pinned by CRC, so a
//! drift in either would read as a change of optimizer state.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngCore};

use crate::value::Value;

/// Encodes a value as compact JSON, one allocation per number.
fn to_string(value: &Value) -> String {
    let mut out = String::new();
    write_value(&mut out, value);
    out
}

fn write_value(out: &mut String, value: &Value) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::I64(v) => out.push_str(&v.to_string()),
        Value::U64(v) => out.push_str(&v.to_string()),
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

fn write_f64(out: &mut String, v: f64) {
    if v.is_nan() {
        out.push_str("\"NaN\"");
    } else if v == f64::INFINITY {
        out.push_str("\"Infinity\"");
    } else if v == f64::NEG_INFINITY {
        out.push_str("\"-Infinity\"");
    } else {
        let s = v.to_string();
        out.push_str(&s);
        if !s.contains(['.', 'e', 'E']) {
            out.push_str(".0");
        }
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// The CRC-32/ISO-HDLC of `bytes`, one byte per step.
fn crc32(bytes: &[u8]) -> u32 {
    let mut table = [0u32; 256];
    for (i, entry) in table.iter_mut().enumerate() {
        let mut crc = i as u32;
        for _ in 0..8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
        }
        *entry = crc;
    }
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = (crc >> 8) ^ table[((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

/// Arbitrary [`Value`] trees, `depth` levels deep at most, whose scalars
/// favour the encoder's corners: signed zeros, subnormals, huge and
/// integral floats, NaN and ±Inf, the integer extremes, and strings of
/// control characters, escapes and multi-byte UTF-8.
#[derive(Clone, Debug)]
struct ArbValue {
    depth: u32,
}

impl ArbValue {
    fn f64(rng: &mut StdRng) -> f64 {
        const CORNERS: &[f64] = &[
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            5e-324,
            -2.5e-310,
            1e300,
            -1e300,
            1e21,
            1e22,
            2.0,
            -7.0,
            0.1,
            f64::MAX,
            f64::MIN,
            f64::EPSILON,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        match rng.gen_range(0..4usize) {
            0 => CORNERS[rng.gen_range(0..CORNERS.len())],
            1 => f64::from(rng.gen_range(-1_000_000i32..1_000_000)),
            2 => rng.gen_range(-1.0..1.0),
            // Raw bit patterns: every exponent, subnormals and NaN payloads.
            _ => f64::from_bits(rng.next_u64()),
        }
    }

    fn string(rng: &mut StdRng) -> String {
        const POOL: &[char] = &[
            'a', 'Z', '0', ' ', '"', '\\', '\n', '\r', '\t', '\u{08}', '\u{0C}', '\u{00}',
            '\u{01}', '\u{1b}', '\u{1f}', '\u{7f}', 'é', '☃', '𝄞', '\u{2028}', '/', '{', ':',
        ];
        let len = rng.gen_range(0..16usize);
        (0..len).map(|_| POOL[rng.gen_range(0..POOL.len())]).collect()
    }

    fn scalar(rng: &mut StdRng) -> Value {
        match rng.gen_range(0..9usize) {
            0 => Value::Null,
            1 => Value::Bool(rng.gen_bool(0.5)),
            2 => Value::I64(match rng.gen_range(0..4usize) {
                0 => i64::MIN,
                1 => i64::MAX,
                2 => rng.gen_range(-20i64..20),
                _ => rng.next_u64() as i64,
            }),
            3 => Value::U64(match rng.gen_range(0..4usize) {
                0 => u64::MAX,
                1 => 0,
                2 => rng.gen_range(0u64..20),
                _ => rng.next_u64() >> rng.gen_range(0..64u32),
            }),
            4..=6 => Value::F64(Self::f64(rng)),
            _ => Value::Str(Self::string(rng)),
        }
    }

    fn generate_at(&self, depth: u32, rng: &mut StdRng) -> Value {
        if depth == 0 || rng.gen_bool(0.3) {
            return Self::scalar(rng);
        }
        let len = rng.gen_range(0..6usize);
        if rng.gen_bool(0.5) {
            Value::Array((0..len).map(|_| self.generate_at(depth - 1, rng)).collect())
        } else {
            Value::Object(
                (0..len).map(|_| (Self::string(rng), self.generate_at(depth - 1, rng))).collect(),
            )
        }
    }
}

impl Strategy for ArbValue {
    type Value = Value;

    fn generate(&self, rng: &mut StdRng) -> Value {
        self.generate_at(self.depth, rng)
    }
}

/// Byte strings of every length from 0 to 96, so every length mod 8 and
/// every offset of the bytewise tail shows up many times.
#[derive(Clone, Debug)]
struct ArbBytes;

impl Strategy for ArbBytes {
    type Value = Vec<u8>;

    fn generate(&self, rng: &mut StdRng) -> Vec<u8> {
        let mut bytes = vec![0u8; rng.gen_range(0..97usize)];
        rng.fill_bytes(&mut bytes);
        bytes
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn the_encoder_matches_the_oracle(v in ArbValue { depth: 4 }) {
        prop_assert_eq!(crate::encode::to_string(&v), to_string(&v));
    }

    #[test]
    fn the_crc_matches_the_oracle(bytes in ArbBytes) {
        prop_assert_eq!(crate::crc32::crc32(&bytes), crc32(&bytes));
    }
}

/// Batches of floats: raw bit patterns (every exponent, subnormals),
/// short decimals read back from text (the values whose shortest digits
/// are few, where ties to even show), and powers of two and ten across
/// the whole range.
#[derive(Clone, Debug)]
struct ArbFloats;

impl Strategy for ArbFloats {
    type Value = Vec<f64>;

    fn generate(&self, rng: &mut StdRng) -> Vec<f64> {
        (0..2048)
            .map(|_| match rng.gen_range(0..4usize) {
                0 | 1 => f64::from_bits(rng.next_u64()),
                2 => {
                    let digits = rng.next_u64() % 10u64.pow(rng.gen_range(1..18u32));
                    format!("{digits}e{}", rng.gen_range(-330..310i32)).parse().unwrap_or(0.0)
                }
                _ => {
                    let base: f64 = if rng.gen_bool(0.5) { 2.0 } else { 10.0 };
                    base.powi(rng.gen_range(-1100..1030i32))
                        * if rng.gen_bool(0.5) { 1.0 } else { 3.0 }
                }
            })
            .collect()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn floats_encode_like_display(floats in ArbFloats) {
        for v in floats {
            prop_assert_eq!(crate::encode::to_string(&Value::F64(v)), to_string(&Value::F64(v)), "{:e}", v);
        }
    }
}

#[test]
fn every_corner_scalar_matches_the_oracle() {
    let mut scalars = vec![
        Value::I64(i64::MIN),
        Value::I64(-1),
        Value::I64(0),
        Value::I64(i64::MAX),
        Value::U64(0),
        Value::U64(9),
        Value::U64(10),
        Value::U64(u64::MAX),
    ];
    for bits in [0u64, 1, 0x000F_FFFF_FFFF_FFFF, 0x0010_0000_0000_0000, 0x7FF8_0000_0000_0001] {
        scalars.push(Value::F64(f64::from_bits(bits)));
        scalars.push(Value::F64(-f64::from_bits(bits)));
    }
    scalars.extend(
        [0.0, -0.0, 1e300, -1e300, 1e-300, 2.0, 1e15, 1e16, 1e21, 123456789.125].map(Value::F64),
    );
    scalars.extend([f64::NAN, f64::INFINITY, f64::NEG_INFINITY].map(Value::F64));
    scalars.push(Value::Str((0u8..0x80).map(char::from).collect()));
    scalars.push(Value::Str("héllo ☃ 𝄞 \u{2028}".into()));
    for v in scalars {
        assert_eq!(crate::encode::to_string(&v), to_string(&v), "{v:?}");
    }
}

#[test]
fn every_length_mod_eight_matches_the_oracle() {
    let bytes: Vec<u8> = (0..=255u8).cycle().take(1024 + 7).collect();
    for len in 0..bytes.len() {
        for offset in 0..8.min(bytes.len() - len) {
            let slice = &bytes[offset..offset + len];
            assert_eq!(crate::crc32::crc32(slice), crc32(slice), "len {len} offset {offset}");
        }
    }
}
