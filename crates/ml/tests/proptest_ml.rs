//! Property-based tests of the learning substrate.

use moela_ml::{Dataset, ForestConfig, RandomForest, RegressionTree, TreeConfig};
use proptest::prelude::*;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Tree predictions always lie within the range of training targets
    /// (each leaf is a mean of training values).
    #[test]
    fn tree_predictions_stay_in_target_range(
        samples in proptest::collection::vec(
            (proptest::collection::vec(0.0f64..1.0, 3), -5.0f64..5.0), 2..40),
        query in proptest::collection::vec(0.0f64..1.0, 3),
        seed in 0u64..100,
    ) {
        let mut data = Dataset::new();
        for (x, y) in &samples {
            data.push(x.clone(), *y);
        }
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let tree = RegressionTree::fit(&data, &TreeConfig::default(), &mut rng);
        let lo = samples.iter().map(|(_, y)| *y).fold(f64::INFINITY, f64::min);
        let hi = samples.iter().map(|(_, y)| *y).fold(f64::NEG_INFINITY, f64::max);
        let pred = tree.predict(&query);
        prop_assert!(pred >= lo - 1e-9 && pred <= hi + 1e-9, "pred {pred} outside [{lo}, {hi}]");
    }

    /// Forest predictions are means of tree predictions, hence also
    /// bounded by the target range.
    #[test]
    fn forest_predictions_stay_in_target_range(
        samples in proptest::collection::vec(
            (proptest::collection::vec(0.0f64..1.0, 2), 0.0f64..10.0), 4..30),
        query in proptest::collection::vec(0.0f64..1.0, 2),
        seed in 0u64..100,
    ) {
        let mut data = Dataset::new();
        for (x, y) in &samples {
            data.push(x.clone(), *y);
        }
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let cfg = ForestConfig { trees: 7, ..Default::default() };
        let forest = RandomForest::fit(&data, &cfg, &mut rng);
        let lo = samples.iter().map(|(_, y)| *y).fold(f64::INFINITY, f64::min);
        let hi = samples.iter().map(|(_, y)| *y).fold(f64::NEG_INFINITY, f64::max);
        let pred = forest.predict(&query);
        prop_assert!(pred >= lo - 1e-9 && pred <= hi + 1e-9);
        prop_assert!(forest.tree_predictions(&query).iter().all(|p| *p >= lo - 1e-9 && *p <= hi + 1e-9));
    }

    /// A constant target function is learned exactly regardless of inputs.
    #[test]
    fn constant_targets_are_learned_exactly(
        xs in proptest::collection::vec(proptest::collection::vec(0.0f64..1.0, 3), 3..20),
        c in -10.0f64..10.0,
        seed in 0u64..100,
    ) {
        let mut data = Dataset::new();
        for x in &xs {
            data.push(x.clone(), c);
        }
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let forest = RandomForest::fit(&data, &ForestConfig { trees: 5, ..Default::default() }, &mut rng);
        prop_assert!((forest.predict(&xs[0]) - c).abs() < 1e-9);
    }

    /// The bounded dataset never exceeds its capacity and keeps the newest
    /// sample.
    #[test]
    fn dataset_capacity_is_a_hard_bound(
        cap in 1usize..20,
        n in 1usize..60,
    ) {
        let mut d = Dataset::with_capacity(cap);
        for i in 0..n {
            d.push(vec![i as f64], i as f64);
        }
        prop_assert_eq!(d.len(), n.min(cap));
        let newest = (n - 1) as f64;
        let has_newest = (0..d.len()).any(|i| (d.target(i) - newest).abs() < 1e-12);
        prop_assert!(has_newest, "newest sample must survive");
    }
}
