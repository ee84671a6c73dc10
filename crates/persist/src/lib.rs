//! # moela-persist — crash-safe persistence for MOELA runs
//!
//! The paper's headline experiments run for days; this crate makes such
//! runs durable. It provides, with zero external dependencies:
//!
//! * a small JSON document model and codec ([`Value`], [`encode`],
//!   [`decode`]) that round-trips 64-bit integers exactly and encodes
//!   non-finite floats as the strings `"NaN"` / `"Infinity"` /
//!   `"-Infinity"`;
//! * [`Snapshot`] / [`Restore`] traits for turning optimizer components
//!   into [`Value`]s and back, plus [`SolutionCodec`] for solution types
//!   that need problem context to decode (e.g. a manycore `Design` needs
//!   the grid dimensions);
//! * a versioned, CRC-32-checksummed checkpoint file format with atomic
//!   writes, keep-last-K rotation and corruption fallback
//!   ([`checkpoint::CheckpointStore`]), and a [`Persister`] that writes
//!   a run's checkpoints on a thread of their own;
//! * a run-store directory layout ([`store::RunStore`]) holding
//!   `manifest.json`, `checkpoints/`, `trace.csv` and `front.csv`.
//!
//! The contract, extending the workspace's determinism guarantee: a run
//! interrupted at any checkpoint and resumed produces bit-identical
//! traces and fronts to an uninterrupted run, at any thread count.

pub mod checkpoint;
pub mod crc32;
pub mod decode;
pub mod encode;
pub mod error;
mod persister;
#[cfg(test)]
mod reference;
mod shortest;
pub mod store;
pub mod value;

pub use checkpoint::{CheckpointStore, Encoded, FORMAT_VERSION};
pub use error::PersistError;
pub use persister::Persister;
pub use store::RunStore;
pub use value::Value;

/// Conversion of a component's state into a JSON [`Value`].
///
/// Implementations must capture *all* state that influences future
/// behavior — the round-trip law is that
/// `T::restore(&t.snapshot())` behaves bit-identically to `t` from then
/// on.
pub trait Snapshot {
    /// Captures the complete state as a JSON value.
    fn snapshot(&self) -> Value;
}

/// Reconstruction of a component from a [`Snapshot`]-produced value.
pub trait Restore: Sized {
    /// Rebuilds the component; `Err` on schema mismatch.
    fn restore(value: &Value) -> Result<Self, PersistError>;
}

/// Encodes and decodes one problem's solution type.
///
/// Solutions often cannot implement [`Restore`] directly because decoding
/// needs problem context (a manycore design needs the platform's grid
/// dimensions and PE mix to validate a placement). The problem type
/// itself implements this trait and is threaded through snapshot/restore
/// of anything that contains solutions.
pub trait SolutionCodec<S> {
    /// Encodes one solution.
    fn encode_solution(&self, solution: &S) -> Value;
    /// Decodes one solution; `Err` when the value does not describe a
    /// valid solution for this problem.
    fn decode_solution(&self, value: &Value) -> Result<S, PersistError>;
}

/// The codec for plain `Vec<f64>` solutions (the continuous test
/// problems: ZDT, DTLZ).
#[derive(Debug, Clone, Copy, Default)]
pub struct VecF64Codec;

impl SolutionCodec<Vec<f64>> for VecF64Codec {
    fn encode_solution(&self, solution: &Vec<f64>) -> Value {
        Value::f64_array(solution)
    }

    fn decode_solution(&self, value: &Value) -> Result<Vec<f64>, PersistError> {
        value.to_f64_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_codec_round_trips() {
        let codec = VecF64Codec;
        let x = vec![0.25, -1.5, 1e-12];
        let v = codec.encode_solution(&x);
        assert_eq!(codec.decode_solution(&v).unwrap(), x);
        assert!(codec.decode_solution(&Value::Bool(true)).is_err());
    }
}
