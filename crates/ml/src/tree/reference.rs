//! The split search as first written, kept as the oracle for
//! [`super::Builder`], and the differential harness that holds the two
//! to the same bytes.
//!
//! [`build`] re-sorts the node's samples with `sort_by(total_cmp)` for
//! every candidate, reading features through the dataset's rows. It is
//! the original builder verbatim except for one switch, [`Ties`]: with
//! [`Ties::BootstrapPosition`] each candidate sorts a fresh copy of the
//! node order, which is what one presort per fit would do. The harness
//! must tell that variant apart, or it could not catch a builder that
//! breaks ties the wrong way.

use moela_persist::{encode, Snapshot};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use super::{Node, RegressionTree, TreeConfig};
use crate::dataset::Dataset;
use crate::forest::{ForestConfig, RandomForest};

/// How a candidate's sort breaks ties between equal feature values.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Ties {
    /// In the order the previous candidate left (the contract).
    Carried,
    /// By bootstrap position (a presort's order).
    BootstrapPosition,
}

fn fit_on(
    data: &Dataset,
    indices: &[usize],
    config: &TreeConfig,
    rng: &mut impl Rng,
    ties: Ties,
) -> RegressionTree {
    assert!(!indices.is_empty(), "cannot fit a tree on zero samples");
    let root = build(data, indices.to_vec(), config, 0, rng, ties);
    RegressionTree { root, feature_len: data.feature_len() }
}

/// [`RandomForest::fit`]'s draws over the reference trees.
fn forest_fit(
    data: &Dataset,
    config: &ForestConfig,
    rng: &mut impl Rng,
    ties: Ties,
) -> Vec<RegressionTree> {
    let n = data.len();
    let boot = config.bootstrap_size.unwrap_or(n).max(1);
    let mut tree_cfg = config.tree;
    if tree_cfg.max_features.is_none() {
        let d = data.feature_len().max(1);
        tree_cfg.max_features = Some((d as f64).sqrt().ceil() as usize);
    }
    (0..config.trees)
        .map(|_| {
            let indices: Vec<usize> = (0..boot).map(|_| rng.gen_range(0..n)).collect();
            fit_on(data, &indices, &tree_cfg, rng, ties)
        })
        .collect()
}

fn mean(data: &Dataset, indices: &[usize]) -> f64 {
    indices.iter().map(|&i| data.target(i)).sum::<f64>() / indices.len() as f64
}

fn build(
    data: &Dataset,
    indices: Vec<usize>,
    config: &TreeConfig,
    depth: usize,
    rng: &mut impl Rng,
    ties: Ties,
) -> Node {
    let leaf_value = mean(data, &indices);
    if depth >= config.max_depth || indices.len() < 2 * config.min_samples_leaf {
        return Node::Leaf { value: leaf_value };
    }
    // Homogeneous targets: nothing to gain.
    let first = data.target(indices[0]);
    if indices.iter().all(|&i| (data.target(i) - first).abs() < 1e-15) {
        return Node::Leaf { value: leaf_value };
    }

    let d = data.feature_len();
    let mut candidates: Vec<usize> = (0..d).collect();
    if let Some(k) = config.max_features {
        candidates.shuffle(rng);
        candidates.truncate(k.clamp(1, d));
    }

    let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, sse)
    let mut order = indices.clone();
    for &feat in &candidates {
        if ties == Ties::BootstrapPosition {
            order.clone_from(&indices);
        }
        order.sort_by(|&a, &b| data.features(a)[feat].total_cmp(&data.features(b)[feat]));
        // Prefix sums over sorted targets let every threshold be scored in
        // O(1): SSE_total = Σy² − (Σy)²/n on each side.
        let n = order.len();
        let mut prefix_sum = 0.0;
        let mut prefix_sq = 0.0;
        let total_sum: f64 = order.iter().map(|&i| data.target(i)).sum();
        let total_sq: f64 = order.iter().map(|&i| data.target(i).powi(2)).sum();
        for split_at in 1..n {
            let prev = order[split_at - 1];
            prefix_sum += data.target(prev);
            prefix_sq += data.target(prev).powi(2);
            let xa = data.features(prev)[feat];
            let xb = data.features(order[split_at])[feat];
            if xb - xa < 1e-15 {
                continue; // cannot separate equal feature values
            }
            if split_at < config.min_samples_leaf || n - split_at < config.min_samples_leaf {
                continue;
            }
            let left_n = split_at as f64;
            let right_n = (n - split_at) as f64;
            let left_sse = prefix_sq - prefix_sum * prefix_sum / left_n;
            let right_sum = total_sum - prefix_sum;
            let right_sse = (total_sq - prefix_sq) - right_sum * right_sum / right_n;
            let sse = left_sse + right_sse;
            if best.is_none_or(|(_, _, b)| sse < b) {
                best = Some((feat, (xa + xb) / 2.0, sse));
            }
        }
    }

    match best {
        None => Node::Leaf { value: leaf_value },
        Some((feature, threshold, _)) => {
            let (left_idx, right_idx): (Vec<usize>, Vec<usize>) =
                indices.into_iter().partition(|&i| data.features(i)[feature] <= threshold);
            if left_idx.is_empty() || right_idx.is_empty() {
                return Node::Leaf { value: leaf_value };
            }
            Node::Split {
                feature,
                threshold,
                left: Box::new(build(data, left_idx, config, depth + 1, rng, ties)),
                right: Box::new(build(data, right_idx, config, depth + 1, rng, ties)),
            }
        }
    }
}

/// A dataset shaped like the surrogate's inputs: most features quantized
/// to a few levels, some constant or signed-zero columns, a handful of
/// distinct targets.
fn tie_heavy(seed: u64, rows: usize, features: usize) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let kinds: Vec<u32> = (0..features).map(|_| rng.gen_range(0..5u32)).collect();
    let levels: Vec<u32> = (0..features).map(|_| rng.gen_range(2..=70u32)).collect();
    let targets = [0.1, 0.7, -0.3, 2.0 / 3.0, 1e-3, 0.1 + 0.2];
    let distinct = rng.gen_range(1..=targets.len());
    let mut data = Dataset::new();
    for _ in 0..rows {
        let x = (0..features)
            .map(|f| match kinds[f] {
                0 => 0.25,
                1 => [-0.0, 0.0, 1.0][rng.gen_range(0..3usize)],
                2 => rng.gen_range(0.0..1.0),
                _ => f64::from(rng.gen_range(0..levels[f])) / f64::from(levels[f]),
            })
            .collect();
        data.push(x, targets[rng.gen_range(0..distinct)]);
    }
    data
}

fn bytes(tree: &RegressionTree) -> String {
    encode::to_string(&tree.snapshot())
}

/// Fits with both builders from one seed; `true` when the encoded trees
/// and the RNG states after the fits are equal.
fn agree(
    mut fit: impl FnMut(&mut StdRng) -> Vec<RegressionTree>,
    mut oracle: impl FnMut(&mut StdRng) -> Vec<RegressionTree>,
    seed: u64,
) -> bool {
    let (mut a, mut b) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
    let fitted: Vec<String> = fit(&mut a).iter().map(bytes).collect();
    let expected: Vec<String> = oracle(&mut b).iter().map(bytes).collect();
    fitted == expected && a.state() == b.state()
}

fn forest_trees(forest: &RandomForest) -> Vec<RegressionTree> {
    forest.trees().to_vec()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn trees_match_the_reference_bit_for_bit(
        data_seed in 0u64..1 << 40,
        rows in 1usize..90,
        features in 1usize..9,
        boot in 1usize..160,
        max_features in 0usize..6,
        min_leaf in 1usize..=5,
        max_depth in 0usize..14,
        fit_seed in 0u64..1 << 40,
    ) {
        let data = tie_heavy(data_seed, rows, features);
        let mut draw = StdRng::seed_from_u64(data_seed ^ 0x9E37);
        let indices: Vec<usize> = (0..boot).map(|_| draw.gen_range(0..rows)).collect();
        let config = TreeConfig {
            max_depth,
            min_samples_leaf: min_leaf,
            max_features: (max_features > 0).then_some(max_features),
        };
        prop_assert!(agree(
            |r| vec![RegressionTree::fit_on(&data, &indices, &config, r)],
            |r| vec![fit_on(&data, &indices, &config, r, Ties::Carried)],
            fit_seed,
        ));
    }

    #[test]
    fn forests_match_the_reference_bit_for_bit(
        data_seed in 0u64..1 << 40,
        rows in 1usize..260,
        features in 1usize..33,
        boot in 0usize..600,
        trees in 1usize..6,
        min_leaf in 1usize..=5,
        fit_seed in 0u64..1 << 40,
    ) {
        let data = tie_heavy(data_seed, rows, features);
        let config = ForestConfig {
            trees,
            bootstrap_size: (boot > 0).then_some(boot),
            tree: TreeConfig { min_samples_leaf: min_leaf, ..TreeConfig::default() },
        };
        prop_assert!(agree(
            |r| forest_trees(&RandomForest::fit(&data, &config, r)),
            |r| forest_fit(&data, &config, r, Ties::Carried),
            fit_seed,
        ));
    }
}

/// The surrogate's forest settings on a surrogate-shaped fixture.
fn fixture() -> (Dataset, ForestConfig) {
    let config = ForestConfig { trees: 25, bootstrap_size: Some(512), ..ForestConfig::default() };
    (tie_heavy(0, 230, 32), config)
}

#[test]
fn the_surrogate_fixture_matches_the_reference() {
    let (data, config) = fixture();
    assert!(agree(
        |r| forest_trees(&RandomForest::fit(&data, &config, r)),
        |r| forest_fit(&data, &config, r, Ties::Carried),
        7,
    ));
}

#[test]
fn the_harness_catches_ties_broken_by_bootstrap_position() {
    let (data, config) = fixture();
    assert!(!agree(
        |r| forest_trees(&RandomForest::fit(&data, &config, r)),
        |r| forest_fit(&data, &config, r, Ties::BootstrapPosition),
        7,
    ));
}

#[test]
fn without_ties_the_presort_order_is_the_same_tree() {
    // The self-check above fails only through the tie order: with
    // distinct values and no repeated samples, the variant agrees.
    let mut rng = StdRng::seed_from_u64(3);
    let mut data = Dataset::new();
    for _ in 0..120 {
        let x: Vec<f64> = (0..6).map(|_| rng.gen_range(0.0..1.0)).collect();
        let y = x[0] - 2.0 * x[3] + 0.1 * x[5];
        data.push(x, y);
    }
    let indices: Vec<usize> = (0..120).collect();
    let config = TreeConfig::default();
    assert!(agree(
        |r| vec![RegressionTree::fit_on(&data, &indices, &config, r)],
        |r| vec![fit_on(&data, &indices, &config, r, Ties::BootstrapPosition)],
        5,
    ));
}
