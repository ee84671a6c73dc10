//! [`Snapshot`]/[`Restore`] implementations for the toolkit's stateful
//! components, plus codec-threaded helpers for containers that hold
//! problem solutions.

use std::time::Duration;

use moela_persist::{PersistError, Restore, Snapshot, SolutionCodec, Value};

use crate::archive::ParetoArchive;
use crate::normalize::Normalizer;
use crate::run::{TracePoint, TraceRecorder};
use crate::scalarize::ReferencePoint;

impl Snapshot for Normalizer {
    fn snapshot(&self) -> Value {
        Value::object(vec![
            ("min", Value::f64_array(self.min())),
            ("max", Value::f64_array(self.max())),
        ])
    }
}

impl Restore for Normalizer {
    fn restore(value: &Value) -> Result<Self, PersistError> {
        let min = value.field("min")?.to_f64_vec()?;
        let max = value.field("max")?.to_f64_vec()?;
        if min.len() != max.len() {
            return Err(PersistError::schema("normalizer min/max dimension mismatch"));
        }
        Ok(Normalizer::from_parts(min, max))
    }
}

impl Snapshot for ReferencePoint {
    fn snapshot(&self) -> Value {
        Value::object(vec![("z", Value::f64_array(self.values()))])
    }
}

impl Restore for ReferencePoint {
    fn restore(value: &Value) -> Result<Self, PersistError> {
        Ok(ReferencePoint::from_values(value.field("z")?.to_f64_vec()?))
    }
}

impl Snapshot for TracePoint {
    fn snapshot(&self) -> Value {
        Value::object(vec![
            ("generation", Value::U64(self.generation as u64)),
            ("evaluations", Value::U64(self.evaluations)),
            // u64 nanoseconds cover ~584 years of wall clock.
            ("elapsed_nanos", Value::U64(self.elapsed.as_nanos() as u64)),
            ("phv", Value::F64(self.phv)),
        ])
    }
}

impl Restore for TracePoint {
    fn restore(value: &Value) -> Result<Self, PersistError> {
        Ok(TracePoint {
            generation: value.field("generation")?.as_usize()?,
            evaluations: value.field("evaluations")?.as_u64()?,
            elapsed: Duration::from_nanos(value.field("elapsed_nanos")?.as_u64()?),
            phv: value.field("phv")?.as_f64()?,
        })
    }
}

impl Snapshot for TraceRecorder {
    fn snapshot(&self) -> Value {
        Value::object(vec![
            ("normalizer", self.normalizer().snapshot()),
            ("fixed", Value::Bool(self.fixed())),
            ("points", Value::Array(self.points().iter().map(Snapshot::snapshot).collect())),
        ])
    }
}

impl Restore for TraceRecorder {
    fn restore(value: &Value) -> Result<Self, PersistError> {
        let normalizer = Normalizer::restore(value.field("normalizer")?)?;
        let fixed = value.field("fixed")?.as_bool()?;
        let points = value
            .field("points")?
            .as_array()?
            .iter()
            .map(TracePoint::restore)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(TraceRecorder::from_parts(normalizer, fixed, points))
    }
}

/// Encodes `(solution, objectives)` entries through a solution codec.
pub fn entries_to_value<S, C: SolutionCodec<S>>(entries: &[(S, Vec<f64>)], codec: &C) -> Value {
    Value::Array(entries.iter().map(|(s, o)| entry_to_value(s, o, codec)).collect())
}

/// Encodes one entry of [`entries_to_value`].
pub(crate) fn entry_to_value<S, C: SolutionCodec<S>>(
    solution: &S,
    objectives: &[f64],
    codec: &C,
) -> Value {
    Value::object(vec![
        ("solution", codec.encode_solution(solution)),
        ("objectives", Value::f64_array(objectives)),
    ])
}

/// Decodes entries written by [`entries_to_value`].
#[allow(clippy::type_complexity)]
pub fn entries_from_value<S, C: SolutionCodec<S>>(
    value: &Value,
    codec: &C,
) -> Result<Vec<(S, Vec<f64>)>, PersistError> {
    value
        .as_array()?
        .iter()
        .map(|entry| {
            let solution = codec.decode_solution(entry.field("solution")?)?;
            let objectives = entry.field("objectives")?.to_f64_vec()?;
            Ok((solution, objectives))
        })
        .collect()
}

/// Encodes a Pareto archive (entries in order plus the capacity bound).
pub fn archive_to_value<S: Clone, C: SolutionCodec<S>>(
    archive: &ParetoArchive<S>,
    codec: &C,
) -> Value {
    Value::object(vec![
        ("entries", entries_to_value(archive.entries(), codec)),
        (
            "capacity",
            match archive.capacity() {
                Some(cap) => Value::U64(cap as u64),
                None => Value::Null,
            },
        ),
    ])
}

/// Decodes an archive written by [`archive_to_value`]. Entries are adopted
/// verbatim (order matters to MOOS's index-based selection).
pub fn archive_from_value<S: Clone, C: SolutionCodec<S>>(
    value: &Value,
    codec: &C,
) -> Result<ParetoArchive<S>, PersistError> {
    let entries = entries_from_value(value.field("entries")?, codec)?;
    let capacity = match value.field("capacity")? {
        Value::Null => None,
        v => Some(v.as_usize()?),
    };
    Ok(ParetoArchive::from_parts(entries, capacity))
}

#[cfg(test)]
mod tests {
    use super::*;
    use moela_persist::VecF64Codec;

    #[test]
    fn normalizer_round_trips_including_unobserved_dimensions() {
        let mut n = Normalizer::new(3);
        n.observe(&[1.0, f64::INFINITY, 2.0]); // dim 1 stays unobserved-ish
        let back = Normalizer::restore(&n.snapshot()).unwrap();
        assert_eq!(back, n);
        // A brand-new normalizer has ±∞ bounds and must still round-trip.
        let fresh = Normalizer::new(2);
        assert_eq!(Normalizer::restore(&fresh.snapshot()).unwrap(), fresh);
    }

    #[test]
    fn reference_point_round_trips() {
        let mut z = ReferencePoint::new(2);
        z.update(&[3.0, -1.5]);
        assert_eq!(ReferencePoint::restore(&z.snapshot()).unwrap(), z);
    }

    #[test]
    fn trace_recorder_round_trips_points_and_mode() {
        let mut rec = TraceRecorder::new(2);
        rec.observe(&[0.0, 0.0]);
        rec.observe(&[4.0, 4.0]);
        rec.record(0, 10, Duration::from_millis(5), &[vec![1.0, 2.0]]);
        rec.record(1, 20, Duration::from_millis(9), &[vec![0.5, 1.0]]);
        let back = TraceRecorder::restore(&rec.snapshot()).unwrap();
        assert_eq!(back.points(), rec.points());
        assert_eq!(back.normalizer(), rec.normalizer());
        assert!(!back.fixed());
    }

    #[test]
    fn archive_round_trip_preserves_order_and_capacity() {
        let mut a = ParetoArchive::bounded(4);
        a.insert(vec![0.5], vec![1.0, 4.0]);
        a.insert(vec![0.25], vec![4.0, 1.0]);
        let v = archive_to_value(&a, &VecF64Codec);
        let back: ParetoArchive<Vec<f64>> = archive_from_value(&v, &VecF64Codec).unwrap();
        assert_eq!(back.entries(), a.entries());
        assert_eq!(back.capacity(), Some(4));
        let unbounded: ParetoArchive<Vec<f64>> = archive_from_value(
            &archive_to_value(&ParetoArchive::unbounded(), &VecF64Codec),
            &VecF64Codec,
        )
        .unwrap();
        assert_eq!(unbounded.capacity(), None);
    }
}
