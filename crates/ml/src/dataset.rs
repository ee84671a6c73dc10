//! A bounded training buffer of `(features, target)` samples.
//!
//! The paper caps the training set at the most recent 10 000 samples
//! (`|S_train| ≤ 10K`); [`Dataset::with_capacity`] implements exactly that
//! sliding-window behavior.

use moela_persist::{PersistError, Restore, Snapshot, Value};

/// A FIFO-bounded regression training set.
///
/// # Example
///
/// ```
/// use moela_ml::Dataset;
///
/// let mut d = Dataset::with_capacity(2);
/// d.push(vec![0.0], 1.0);
/// d.push(vec![1.0], 2.0);
/// d.push(vec![2.0], 3.0); // evicts the oldest sample
/// assert_eq!(d.len(), 2);
/// let mut kept: Vec<f64> = (0..d.len()).map(|i| d.target(i)).collect();
/// kept.sort_by(f64::total_cmp);
/// assert_eq!(kept, vec![2.0, 3.0]);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Dataset {
    features: Vec<Vec<f64>>,
    targets: Vec<f64>,
    capacity: Option<usize>,
    /// Index of the logically-oldest sample (ring start) when bounded.
    start: usize,
}

impl Dataset {
    /// An unbounded dataset.
    pub fn new() -> Self {
        Self::default()
    }

    /// A dataset keeping only the most recent `capacity` samples.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "dataset capacity must be positive");
        Self { capacity: Some(capacity), ..Self::default() }
    }

    /// Appends a sample, evicting the oldest if at capacity.
    ///
    /// # Panics
    ///
    /// Panics if `features` has a different length from earlier samples,
    /// or if `target` or any feature is not finite.
    pub fn push(&mut self, features: Vec<f64>, target: f64) {
        assert!(target.is_finite(), "regression target must be finite");
        assert!(features.iter().all(|f| f.is_finite()), "features must be finite");
        if let Some(first) = self.features.first() {
            assert_eq!(features.len(), first.len(), "inconsistent feature dimensionality");
        }
        match self.capacity {
            Some(cap) if self.features.len() == cap => {
                self.features[self.start] = features;
                self.targets[self.start] = target;
                self.start = (self.start + 1) % cap;
            }
            _ => {
                self.features.push(features);
                self.targets.push(target);
            }
        }
    }

    /// Appends a sample only when both the target and every feature are
    /// finite; returns whether it was stored. This is the fault-tolerant
    /// entry point optimizers use so quarantined evaluations can never
    /// poison the forest's training set ([`push`](Self::push) stays
    /// strict and panics, for callers that consider non-finite input a
    /// bug).
    pub fn push_finite(&mut self, features: Vec<f64>, target: f64) -> bool {
        if !target.is_finite() || features.iter().any(|f| !f.is_finite()) {
            return false;
        }
        self.push(features, target);
        true
    }

    /// Number of stored samples.
    pub fn len(&self) -> usize {
        self.features.len()
    }

    /// `true` if no samples are stored.
    pub fn is_empty(&self) -> bool {
        self.features.is_empty()
    }

    /// Feature dimensionality, or 0 when empty.
    pub fn feature_len(&self) -> usize {
        self.features.first().map_or(0, Vec::len)
    }

    /// Features of sample `i` (storage order; when the buffer has wrapped,
    /// storage order is not insertion order — regression does not care).
    pub fn features(&self, i: usize) -> &[f64] {
        &self.features[i]
    }

    /// Target of sample `i`.
    pub fn target(&self, i: usize) -> f64 {
        self.targets[i]
    }

    /// All targets in storage order.
    pub fn targets(&self) -> &[f64] {
        &self.targets
    }

    /// The capacity bound, if any.
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// Ring-start index (position of the logically-oldest sample once the
    /// bounded buffer has wrapped).
    pub fn start(&self) -> usize {
        self.start
    }

    /// Rebuilds a dataset from checkpointed storage — exact storage order
    /// and ring position, so subsequent pushes evict the same samples the
    /// uninterrupted run would have evicted.
    ///
    /// # Panics
    ///
    /// Panics on parts no sequence of pushes could produce: unequal
    /// feature and target counts, ragged feature rows, non-finite values,
    /// a zero capacity or more samples than it, or a ring start that is
    /// not 0 while the buffer is not full.
    pub fn from_parts(
        features: Vec<Vec<f64>>,
        targets: Vec<f64>,
        capacity: Option<usize>,
        start: usize,
    ) -> Self {
        if let Err(message) = check_parts(&features, &targets, capacity, start) {
            panic!("{message}");
        }
        Self { features, targets, capacity, start }
    }
}

/// Why `(features, targets, capacity, start)` is not a state
/// [`Dataset::push`] can reach, if it is not.
fn check_parts(
    features: &[Vec<f64>],
    targets: &[f64],
    capacity: Option<usize>,
    start: usize,
) -> Result<(), String> {
    if features.len() != targets.len() {
        return Err("feature/target length mismatch".into());
    }
    let width = features.first().map_or(0, Vec::len);
    if features.iter().any(|row| row.len() != width) {
        return Err("inconsistent feature dimensionality".into());
    }
    if !targets.iter().chain(features.iter().flatten()).all(|x| x.is_finite()) {
        return Err("samples must be finite".into());
    }
    let len = features.len();
    match capacity {
        Some(0) => return Err("capacity must be positive".into()),
        Some(cap) if len > cap => return Err(format!("{len} samples exceed capacity {cap}")),
        _ => {}
    }
    let full = capacity == Some(len);
    if start != 0 && !(full && start < len) {
        return Err(format!("ring start {start} out of range for {len} samples"));
    }
    Ok(())
}

impl Snapshot for Dataset {
    fn snapshot(&self) -> Value {
        Value::object(vec![
            ("features", Value::Array(self.features.iter().map(|f| Value::f64_array(f)).collect())),
            ("targets", Value::f64_array(&self.targets)),
            (
                "capacity",
                match self.capacity {
                    Some(cap) => Value::U64(cap as u64),
                    None => Value::Null,
                },
            ),
            ("start", Value::U64(self.start as u64)),
        ])
    }
}

impl Restore for Dataset {
    fn restore(value: &Value) -> Result<Self, PersistError> {
        let features = value
            .field("features")?
            .as_array()?
            .iter()
            .map(Value::to_f64_vec)
            .collect::<Result<Vec<_>, _>>()?;
        let targets = value.field("targets")?.to_f64_vec()?;
        let capacity = match value.field("capacity")? {
            Value::Null => None,
            v => Some(v.as_usize()?),
        };
        let start = value.field("start")?.as_usize()?;
        check_parts(&features, &targets, capacity, start)
            .map_err(|message| PersistError::schema(format!("dataset {message}")))?;
        Ok(Dataset { features, targets, capacity, start })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_keeps_everything() {
        let mut d = Dataset::new();
        for i in 0..100 {
            d.push(vec![i as f64], i as f64);
        }
        assert_eq!(d.len(), 100);
    }

    #[test]
    fn bounded_buffer_holds_only_most_recent() {
        let mut d = Dataset::with_capacity(3);
        for i in 0..10 {
            d.push(vec![i as f64], i as f64);
        }
        assert_eq!(d.len(), 3);
        let mut targets: Vec<f64> = (0..3).map(|i| d.target(i)).collect();
        targets.sort_by(f64::total_cmp);
        assert_eq!(targets, vec![7.0, 8.0, 9.0]);
    }

    #[test]
    #[should_panic(expected = "inconsistent feature dimensionality")]
    fn mismatched_features_panic() {
        let mut d = Dataset::new();
        d.push(vec![1.0, 2.0], 0.0);
        d.push(vec![1.0], 0.0);
    }

    #[test]
    #[should_panic(expected = "must be finite")]
    fn nan_target_panics() {
        let mut d = Dataset::new();
        d.push(vec![1.0], f64::NAN);
    }

    #[test]
    #[should_panic(expected = "features must be finite")]
    fn nan_feature_panics() {
        let mut d = Dataset::new();
        d.push(vec![1.0, f64::NAN], 0.0);
    }

    #[test]
    fn push_finite_drops_non_finite_samples() {
        let mut d = Dataset::new();
        assert!(d.push_finite(vec![1.0], 2.0));
        assert!(!d.push_finite(vec![1.0], f64::NAN));
        assert!(!d.push_finite(vec![1.0], f64::INFINITY));
        assert!(!d.push_finite(vec![f64::NAN], 1.0));
        assert!(!d.push_finite(vec![f64::NEG_INFINITY], 1.0));
        assert_eq!(d.len(), 1);
        assert_eq!(d.target(0), 2.0);
    }

    #[test]
    fn snapshot_restore_preserves_ring_position() {
        let mut d = Dataset::with_capacity(3);
        for i in 0..5 {
            d.push(vec![i as f64], i as f64 * 2.0);
        }
        let mut back = Dataset::restore(&d.snapshot()).unwrap();
        assert_eq!(back.capacity(), Some(3));
        assert_eq!(back.start(), d.start());
        assert_eq!(back.targets(), d.targets());
        // The next push must evict the same slot in both copies.
        d.push(vec![99.0], 99.0);
        back.push(vec![99.0], 99.0);
        assert_eq!(back.targets(), d.targets());
    }

    /// Restores a full three-sample ring after `edit` changes its snapshot
    /// fields, expecting a schema error.
    fn restore_err(edit: impl FnOnce(&mut [(String, Value)])) -> String {
        let mut d = Dataset::with_capacity(3);
        for i in 0..3 {
            d.push(vec![i as f64, 1.0], i as f64);
        }
        let Value::Object(mut fields) = d.snapshot() else { unreachable!("an object") };
        edit(&mut fields);
        match Dataset::restore(&Value::Object(fields)) {
            Err(PersistError::Schema(message)) => message,
            other => panic!("expected a schema error, got {other:?}"),
        }
    }

    fn set(fields: &mut [(String, Value)], key: &str, value: Value) {
        fields.iter_mut().find(|(k, _)| k == key).expect("snapshot key").1 = value;
    }

    #[test]
    fn restore_rejects_ragged_feature_rows() {
        let message = restore_err(|f| {
            let rows = [[0.0, 1.0].as_slice(), &[1.0], &[2.0, 1.0]];
            set(f, "features", Value::Array(rows.iter().map(|r| Value::f64_array(r)).collect()));
        });
        assert!(message.contains("dimensionality"), "{message}");
    }

    #[test]
    fn restore_rejects_zero_capacity() {
        let message = restore_err(|f| set(f, "capacity", Value::U64(0)));
        assert!(message.contains("capacity must be positive"), "{message}");
    }

    #[test]
    fn restore_rejects_more_samples_than_capacity() {
        let message = restore_err(|f| set(f, "capacity", Value::U64(2)));
        assert!(message.contains("exceed capacity"), "{message}");
    }

    #[test]
    fn restore_rejects_an_out_of_range_start() {
        let message = restore_err(|f| set(f, "start", Value::U64(3)));
        assert!(message.contains("ring start 3"), "{message}");
        // A ring that is not full has never moved its start.
        let message = restore_err(|f| {
            set(f, "capacity", Value::U64(5));
            set(f, "start", Value::U64(1));
        });
        assert!(message.contains("ring start 1"), "{message}");
    }

    #[test]
    fn restore_rejects_non_finite_features() {
        let message = restore_err(|f| {
            let rows = vec![Value::f64_array(&[0.0, f64::NAN]); 3];
            set(f, "features", Value::Array(rows));
        });
        assert!(message.contains("finite"), "{message}");
    }

    #[test]
    fn restore_rejects_non_finite_targets() {
        let message =
            restore_err(|f| set(f, "targets", Value::f64_array(&[0.0, f64::INFINITY, 1.0])));
        assert!(message.contains("finite"), "{message}");
    }

    #[test]
    fn restore_rejects_a_target_count_mismatch() {
        let message = restore_err(|f| set(f, "targets", Value::f64_array(&[0.0])));
        assert!(message.contains("length mismatch"), "{message}");
    }

    #[test]
    #[should_panic(expected = "ring start")]
    fn from_parts_panics_on_an_unreachable_state() {
        Dataset::from_parts(vec![vec![1.0]], vec![1.0], Some(4), 2);
    }

    #[test]
    fn feature_len_tracks_first_sample() {
        let mut d = Dataset::new();
        assert_eq!(d.feature_len(), 0);
        d.push(vec![1.0, 2.0, 3.0], 0.5);
        assert_eq!(d.feature_len(), 3);
    }
}
