//! A surrogate forest that checkpoints as the RNG state of its last fit.
//!
//! MOELA's `Eval`, MOOS's gain model and MOO-STAGE's `Eval` are all
//! forests of one shape, [`SURROGATE_FOREST`]. The first two are refit
//! from their whole training set every step, and a fit is a pure function
//! of the data, the configuration and the RNG (the tree tests pin that).
//! So a checkpoint
//! need not carry the trees: [`Surrogate::snapshot`] records only
//! `fit_rng`, the four `StdRng` words the last fit started from, and
//! [`Surrogate::restore`] refits from the restored training set, which
//! is the set the fit saw because nothing pushes to it between a fit and
//! the step boundary.

use moela_persist::{PersistError, Value};
use rand::rngs::StdRng;

use crate::dataset::Dataset;
use crate::forest::{ForestConfig, RandomForest};
use crate::tree::TreeConfig;

/// The forest every optimizer's surrogate fits: 25 trees, each on 512
/// bootstrap draws, with the default tree shape.
pub const SURROGATE_FOREST: ForestConfig = ForestConfig {
    trees: 25,
    bootstrap_size: Some(512),
    tree: TreeConfig { max_depth: 12, min_samples_leaf: 2, max_features: None },
};

/// The fewest training rows a surrogate is fitted on. The optimizers fit
/// only once their training set holds this many, so a checkpointed fit
/// over fewer rows cannot come from a real run.
pub const MIN_FIT_ROWS: usize = 8;

/// The last fitted forest of a run, if any, with the RNG state its fit
/// started from.
#[derive(Clone, Debug, Default)]
pub struct Surrogate {
    fitted: Option<(RandomForest, [u64; 4])>,
}

impl Surrogate {
    /// Fits a [`SURROGATE_FOREST`] on `data`, drawing from `rng`, and
    /// replaces the previous one.
    ///
    /// # Panics
    ///
    /// As [`RandomForest::fit`]: when `data` is empty.
    pub fn fit(&mut self, data: &Dataset, rng: &mut StdRng) {
        let start = rng.state();
        self.fitted = Some((RandomForest::fit(data, &SURROGATE_FOREST, rng), start));
    }

    /// The fitted forest, once there is one.
    pub fn model(&self) -> Option<&RandomForest> {
        self.fitted.as_ref().map(|(forest, _)| forest)
    }

    /// The `fit_rng` value: the four RNG words the last fit started
    /// from, or `null` before the first fit.
    pub fn snapshot(&self) -> Value {
        self.fitted.as_ref().map_or(Value::Null, |(_, start)| Value::u64_array(start))
    }

    /// Rebuilds the surrogate from a [`Surrogate::snapshot`] value by
    /// refitting on `data`, the restored training set.
    ///
    /// A `fit_rng` that is not `null` or four `u64` words, or one over
    /// fewer than [`MIN_FIT_ROWS`] rows, is a schema error, so a hostile
    /// checkpoint never reaches the fit's asserts.
    pub fn restore(fit_rng: &Value, data: &Dataset) -> Result<Self, PersistError> {
        if *fit_rng == Value::Null {
            return Ok(Self::default());
        }
        let words = fit_rng.to_u64_vec()?;
        let start: [u64; 4] = words.as_slice().try_into().map_err(|_| {
            PersistError::schema(format!("fit_rng has {} words, expected 4", words.len()))
        })?;
        if data.len() < MIN_FIT_ROWS {
            return Err(PersistError::schema(format!(
                "fit_rng over {} training rows; a fit needs at least {MIN_FIT_ROWS}",
                data.len()
            )));
        }
        let mut surrogate = Self::default();
        surrogate.fit(data, &mut StdRng::from_state(start));
        Ok(surrogate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moela_persist::Snapshot;
    use rand::{Rng, SeedableRng};

    fn data(rows: usize) -> Dataset {
        let mut rng = StdRng::seed_from_u64(3);
        let mut d = Dataset::with_capacity(64);
        for _ in 0..rows {
            let x: f64 = rng.gen_range(-1.0..1.0);
            let y: f64 = rng.gen_range(-1.0..1.0);
            d.push(vec![x, y], x * x - y);
        }
        d
    }

    #[test]
    fn restore_refits_the_same_forest() {
        let d = data(40);
        let mut rng = StdRng::seed_from_u64(9);
        let mut fitted = Surrogate::default();
        fitted.fit(&d, &mut rng);
        let restored = Surrogate::restore(&fitted.snapshot(), &d).unwrap();
        assert_eq!(restored.snapshot(), fitted.snapshot());
        let trees = |s: &Surrogate| -> Vec<String> {
            let forest = s.model().expect("fitted");
            forest.trees().iter().map(|t| moela_persist::encode::to_string(&t.snapshot())).collect()
        };
        assert_eq!(trees(&restored), trees(&fitted), "the refit grows the same trees");
    }

    #[test]
    fn null_restores_unfitted() {
        let restored = Surrogate::restore(&Value::Null, &Dataset::new()).unwrap();
        assert!(restored.model().is_none());
        assert_eq!(restored.snapshot(), Value::Null);
    }
}
