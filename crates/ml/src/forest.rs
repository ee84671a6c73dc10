//! Bagged random forests over [`crate::tree::RegressionTree`].

use moela_persist::{PersistError, Restore, Snapshot, Value};
use rand::Rng;

use crate::dataset::Dataset;
use crate::tree::{ColumnTable, RegressionTree, TreeConfig};

/// Hyper-parameters of a [`RandomForest`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ForestConfig {
    /// Number of bagged trees.
    pub trees: usize,
    /// Bootstrap sample size per tree; `None` = dataset size.
    pub bootstrap_size: Option<usize>,
    /// Per-tree configuration. `max_features = None` here means the forest
    /// picks `⌈√d⌉` automatically (the standard RF default).
    pub tree: TreeConfig,
}

impl Default for ForestConfig {
    fn default() -> Self {
        Self { trees: 30, bootstrap_size: None, tree: TreeConfig::default() }
    }
}

/// A fitted random-forest regressor: the mean prediction of `trees` CART
/// trees, each trained on a bootstrap resample with `√d` feature
/// subsampling per split.
///
/// # Example
///
/// ```
/// use moela_ml::{Dataset, ForestConfig, RandomForest};
/// use rand::{Rng, SeedableRng};
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(2);
/// let mut d = Dataset::new();
/// for _ in 0..400 {
///     let x: f64 = rng.gen_range(-1.0..1.0);
///     d.push(vec![x], x * x);
/// }
/// let f = RandomForest::fit(&d, &ForestConfig::default(), &mut rng);
/// assert!((f.predict(&[0.0]) - 0.0).abs() < 0.1);
/// assert!((f.predict(&[0.9]) - 0.81).abs() < 0.2);
/// ```
#[derive(Clone, Debug)]
pub struct RandomForest {
    trees: Vec<RegressionTree>,
}

impl RandomForest {
    /// Fits a forest on `data`. The trees share one column-major copy of
    /// `data` with per-feature ranks, built here (see [`crate::tree`]).
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty or `config.trees` is zero.
    pub fn fit(data: &Dataset, config: &ForestConfig, rng: &mut impl Rng) -> Self {
        assert!(!data.is_empty(), "cannot fit a forest on zero samples");
        assert!(config.trees > 0, "forest needs at least one tree");
        let n = data.len();
        let boot = config.bootstrap_size.unwrap_or(n).max(1);
        let mut tree_cfg = config.tree;
        if tree_cfg.max_features.is_none() {
            let d = data.feature_len().max(1);
            tree_cfg.max_features = Some((d as f64).sqrt().ceil() as usize);
        }
        let table = ColumnTable::new(data);
        let trees = (0..config.trees)
            .map(|_| {
                let indices: Vec<usize> = (0..boot).map(|_| rng.gen_range(0..n)).collect();
                RegressionTree::fit_table(&table, &indices, &tree_cfg, rng)
            })
            .collect();
        Self { trees }
    }

    /// Mean prediction over all trees.
    pub fn predict(&self, features: &[f64]) -> f64 {
        self.trees.iter().map(|t| t.predict(features)).sum::<f64>() / self.trees.len() as f64
    }

    /// Per-tree predictions (exposed for variance/uncertainty estimates).
    pub fn tree_predictions(&self, features: &[f64]) -> Vec<f64> {
        self.trees.iter().map(|t| t.predict(features)).collect()
    }

    /// Prediction variance across trees — a cheap uncertainty proxy.
    pub fn predict_variance(&self, features: &[f64]) -> f64 {
        let preds = self.tree_predictions(features);
        let mean = preds.iter().sum::<f64>() / preds.len() as f64;
        preds.iter().map(|p| (p - mean).powi(2)).sum::<f64>() / preds.len() as f64
    }

    /// Number of trees in the forest.
    pub fn tree_count(&self) -> usize {
        self.trees.len()
    }

    #[cfg(test)]
    pub(crate) fn trees(&self) -> &[RegressionTree] {
        &self.trees
    }
}

impl Snapshot for RandomForest {
    fn snapshot(&self) -> Value {
        Value::object(vec![(
            "trees",
            Value::Array(self.trees.iter().map(Snapshot::snapshot).collect()),
        )])
    }
}

impl Restore for RandomForest {
    fn restore(value: &Value) -> Result<Self, PersistError> {
        let trees = value
            .field("trees")?
            .as_array()?
            .iter()
            .map(RegressionTree::restore)
            .collect::<Result<Vec<_>, _>>()?;
        let Some(first) = trees.first() else {
            return Err(PersistError::schema("forest must have at least one tree"));
        };
        if let Some(odd) = trees.iter().find(|t| t.feature_len() != first.feature_len()) {
            return Err(PersistError::schema(format!(
                "forest mixes trees over {} and {} features",
                first.feature_len(),
                odd.feature_len()
            )));
        }
        Ok(Self { trees })
    }
}

/// Mean-squared error of a predictor over a dataset — the fit-quality
/// figure the MOELA trainer logs.
pub fn mse(forest: &RandomForest, data: &Dataset) -> f64 {
    assert!(!data.is_empty(), "cannot score on zero samples");
    (0..data.len())
        .map(|i| (forest.predict(data.features(i)) - data.target(i)).powi(2))
        .sum::<f64>()
        / data.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(99)
    }

    fn linear_data(n: usize, noise: f64, r: &mut impl Rng) -> Dataset {
        let mut d = Dataset::new();
        for _ in 0..n {
            let x0: f64 = r.gen_range(0.0..1.0);
            let x1: f64 = r.gen_range(0.0..1.0);
            let eps: f64 = r.gen_range(-noise..=noise);
            d.push(vec![x0, x1], 3.0 * x0 - x1 + eps);
        }
        d
    }

    #[test]
    fn forest_learns_a_linear_function() {
        let mut r = rng();
        let d = linear_data(600, 0.05, &mut r);
        let f = RandomForest::fit(&d, &ForestConfig::default(), &mut r);
        for (x, want) in [([0.5, 0.5], 1.0), ([0.9, 0.1], 2.6), ([0.1, 0.9], -0.6)] {
            let got = f.predict(&x);
            assert!((got - want).abs() < 0.35, "f({x:?}) = {got}, want ≈ {want}");
        }
    }

    #[test]
    fn forest_beats_or_matches_single_tree_on_noisy_data() {
        let mut r = rng();
        let train = linear_data(400, 0.5, &mut r);
        let test = linear_data(200, 0.0, &mut r);
        let forest = RandomForest::fit(&train, &ForestConfig::default(), &mut r);
        let single = RandomForest::fit(
            &train,
            &ForestConfig { trees: 1, ..ForestConfig::default() },
            &mut r,
        );
        assert!(mse(&forest, &test) <= mse(&single, &test) * 1.05);
    }

    #[test]
    fn more_trees_reduce_prediction_variance() {
        let mut r = rng();
        let d = linear_data(300, 0.4, &mut r);
        let small =
            RandomForest::fit(&d, &ForestConfig { trees: 3, ..ForestConfig::default() }, &mut r);
        let large =
            RandomForest::fit(&d, &ForestConfig { trees: 60, ..ForestConfig::default() }, &mut r);
        // Average per-point variance of the ensemble mean scales ~1/T; the
        // per-tree variance itself is similar, so compare mean/T proxies.
        let x = [0.5, 0.5];
        let v_small = small.predict_variance(&x) / small.tree_count() as f64;
        let v_large = large.predict_variance(&x) / large.tree_count() as f64;
        assert!(v_large <= v_small + 1e-9);
    }

    #[test]
    fn bootstrap_size_can_subsample() {
        let mut r = rng();
        let d = linear_data(1000, 0.1, &mut r);
        let cfg = ForestConfig { bootstrap_size: Some(100), ..ForestConfig::default() };
        let f = RandomForest::fit(&d, &cfg, &mut r);
        assert!((f.predict(&[0.5, 0.5]) - 1.0).abs() < 0.5);
    }

    #[test]
    fn deterministic_given_the_same_rng_seed() {
        let d = linear_data(200, 0.1, &mut rng());
        let f1 = RandomForest::fit(&d, &ForestConfig::default(), &mut rng());
        let f2 = RandomForest::fit(&d, &ForestConfig::default(), &mut rng());
        for x in [[0.2, 0.8], [0.7, 0.3]] {
            assert_eq!(f1.predict(&x), f2.predict(&x));
        }
    }

    #[test]
    fn snapshot_restore_predicts_identically() {
        let mut r = rng();
        let d = linear_data(300, 0.2, &mut r);
        let f = RandomForest::fit(&d, &ForestConfig::default(), &mut r);
        let back = RandomForest::restore(&f.snapshot()).unwrap();
        assert_eq!(back.tree_count(), f.tree_count());
        for x in [[0.1, 0.9], [0.5, 0.5], [0.9, 0.2]] {
            assert_eq!(back.predict(&x), f.predict(&x), "bit-identical predictions");
            assert_eq!(back.tree_predictions(&x), f.tree_predictions(&x));
        }
    }

    #[test]
    fn restore_rejects_trees_of_different_feature_lengths() {
        let mut r = rng();
        let narrow =
            RandomForest::fit(&linear_data(40, 0.1, &mut r), &ForestConfig::default(), &mut r);
        let mut wide_data = Dataset::new();
        for i in 0..40 {
            wide_data.push(vec![i as f64, 1.0, 2.0], i as f64);
        }
        let wide = RandomForest::fit(&wide_data, &ForestConfig::default(), &mut r);
        let trees = vec![narrow.trees[0].snapshot(), wide.trees[0].snapshot()];
        let mixed = Value::object(vec![("trees", Value::Array(trees))]);
        match RandomForest::restore(&mixed) {
            Err(PersistError::Schema(message)) => {
                assert!(message.contains("2 and 3 features"), "{message}")
            }
            other => panic!("expected a schema error, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "at least one tree")]
    fn zero_trees_panics() {
        let mut d = Dataset::new();
        d.push(vec![0.0], 0.0);
        RandomForest::fit(&d, &ForestConfig { trees: 0, ..Default::default() }, &mut rng());
    }
}
