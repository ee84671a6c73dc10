//! Bagged random forests over [`crate::tree::RegressionTree`].

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

    /// Per-tree predictions.
    pub fn tree_predictions(&self, features: &[f64]) -> Vec<f64> {
        self.trees.iter().map(|t| t.predict(features)).collect()
    }

    #[cfg(test)]
    pub(crate) fn trees(&self) -> &[RegressionTree] {
        &self.trees
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(99)
    }

    fn mse(forest: &RandomForest, data: &Dataset) -> f64 {
        (0..data.len())
            .map(|i| (forest.predict(data.features(i)) - data.target(i)).powi(2))
            .sum::<f64>()
            / data.len() as f64
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
    #[should_panic(expected = "at least one tree")]
    fn zero_trees_panics() {
        let mut d = Dataset::new();
        d.push(vec![0.0], 0.0);
        RandomForest::fit(&d, &ForestConfig { trees: 0, ..Default::default() }, &mut rng());
    }
}
