//! Property-based fuzzing of the run-options decoder behind its two
//! untrusted entry points: a run directory's `manifest.json` (read by
//! `resume`) and a job spec (read by the server on submission and again
//! from `job.json` on restart).
//!
//! Both reach [`RunOptions::from_value`], so the contract is the same:
//! for any input — byte soup, a truncated document, flipped bits, a
//! field of the wrong type — the entry point returns the options or a
//! structured error, never a panic. The proptest runner turns a panic
//! into a failure.

use moela_moo::normalize::Normalizer;
use moela_persist::{decode, encode, Value};
use proptest::prelude::*;

use crate::args::RunOptions;
use crate::engine::{manifest_value, options_from_manifest};
use crate::serve_cmd::spec_to_options;

/// A configuration that sets every option key `to_value` writes.
fn options() -> RunOptions {
    RunOptions {
        eval_retries: 2,
        fault_policy: moela_moo::fault::FaultPolicy::Skip,
        chaos: Some(moela_moo::ChaosSpec::parse("panic=0.1,nan=0.05").expect("valid spec")),
        chaos_seed: Some(41),
        ..RunOptions::default()
    }
}

/// A valid manifest, as `run --run-dir` writes it.
fn manifest() -> Value {
    manifest_value(&options(), &Normalizer::fit(&[vec![0.0, 1.0, 2.0], vec![3.0, 4.0, 5.0]]))
}

/// A valid job spec, as a client would submit it.
fn spec() -> Value {
    let Value::Object(mut fields) = options().to_value() else { unreachable!("an object") };
    fields.push(("timeout_s".to_owned(), Value::U64(60)));
    Value::Object(fields)
}

/// The manifest entry point: `resume` decodes the file, then the options.
fn read_manifest(text: &str) -> Result<(), String> {
    let v = decode::from_str(text).map_err(|e| e.to_string())?;
    options_from_manifest(&v).map(|_| ()).map_err(|e| e.message)
}

/// The job-spec entry point: the server decodes the body (or `job.json`
/// on restart), then reads the spec.
fn read_spec(text: &str) -> Result<(), String> {
    let v = decode::from_str(text).map_err(|e| e.to_string())?;
    spec_to_options(&v, 1).map(|_| ())
}

/// An entry point: decodes a document and reads its options.
type Reader = fn(&str) -> Result<(), String>;

/// Both documents, encoded, with their entry points.
fn documents() -> [(String, Reader); 2] {
    [(encode::to_string(&manifest()), read_manifest), (encode::to_string(&spec()), read_spec)]
}

/// Values of every JSON kind, including out-of-range integers.
fn replacement(pick: usize) -> Value {
    match pick % 10 {
        0 => Value::Null,
        1 => Value::Bool(true),
        2 => Value::I64(-1),
        3 => Value::U64(0),
        4 => Value::U64(1),
        5 => Value::U64(u64::MAX),
        6 => Value::F64(0.5),
        7 => Value::Str(String::new()),
        8 => Value::Array(vec![Value::U64(1)]),
        _ => Value::object(vec![]),
    }
}

#[test]
fn valid_documents_read() {
    for (text, read) in documents() {
        read(&text).unwrap_or_else(|e| panic!("{text}: {e}"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn byte_soup_never_panics(raw in proptest::collection::vec(0u8..=255u8, 0..512)) {
        let text = String::from_utf8_lossy(&raw);
        for (_, read) in documents() {
            let _ = read(&text);
        }
    }

    /// Every strict prefix of a valid document is refused.
    #[test]
    fn truncations_are_refused(cut in 0usize..4096) {
        for (text, read) in documents() {
            let cut = cut % text.len();
            prop_assert!(read(&text[..cut]).is_err(), "prefix {} of {} read", cut, text);
        }
    }

    /// Flipped bits reach the decoder's number, string and key paths.
    #[test]
    fn bit_flips_never_panic(flips in proptest::collection::vec((0usize..4096, 0u8..8), 1..4)) {
        for (text, read) in documents() {
            let mut bytes = text.into_bytes();
            for &(at, bit) in &flips {
                let at = at % bytes.len();
                bytes[at] ^= 1 << bit;
            }
            let _ = read(&String::from_utf8_lossy(&bytes));
        }
    }

    /// A field of any kind in place of any other reaches every key's
    /// type and range checks behind a syntactically valid document.
    #[test]
    fn retyped_fields_never_panic(at in 0usize..64, pick in 0usize..10) {
        for (text, read) in documents() {
            let Ok(Value::Object(mut fields)) = decode::from_str(&text) else {
                unreachable!("valid documents decode to objects")
            };
            let at = at % fields.len();
            fields[at].1 = replacement(pick);
            let _ = read(&encode::to_string(&Value::Object(fields)));
        }
    }
}
