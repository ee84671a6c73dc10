//! Two independent builders that [`super::Builder`] is held to, and the
//! differential harness that compares them.
//!
//! * [`repeated_fit`] is the original builder verbatim. It keeps every
//!   bootstrap draw as a sample in bootstrap order and re-sorts the node
//!   with `sort_by(total_cmp)` at every candidate, carrying the order
//!   from candidate to candidate. It computes the same estimator with
//!   other rounding, so the harness compares it with the builder on
//!   integer targets, where every sum is exact: there the trees and the
//!   RNG draws must be equal.
//! * [`weighted_fit`] is a naive reading of the module contract. It
//!   holds distinct rows with counts, and for each candidate it loops
//!   over the node's distinct values, summing the rows of each in row
//!   order. The harness holds the builder to it bit for bit on float
//!   targets. Its [`Fill::Descending`] switch sums each value's rows in
//!   descending row order instead; the harness must tell that variant
//!   apart, or it could not catch a builder that adds in the wrong order.

use moela_persist::{encode, Snapshot};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use super::{Node, RegressionTree, TreeConfig};
use crate::dataset::Dataset;
use crate::forest::{ForestConfig, RandomForest};

/// [`RandomForest::fit`]'s draws over trees grown by `fit_tree`.
fn forest_fit(
    data: &Dataset,
    config: &ForestConfig,
    rng: &mut StdRng,
    fit_tree: impl Fn(&Dataset, &[usize], &TreeConfig, &mut StdRng) -> RegressionTree,
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
            fit_tree(data, &indices, &tree_cfg, rng)
        })
        .collect()
}

/// The node's candidate features, shuffled and truncated as every
/// builder does.
fn candidates(data: &Dataset, config: &TreeConfig, rng: &mut StdRng) -> Vec<usize> {
    let d = data.feature_len();
    let mut candidates: Vec<usize> = (0..d).collect();
    if let Some(k) = config.max_features {
        candidates.shuffle(rng);
        candidates.truncate(k.clamp(1, d));
    }
    candidates
}

fn repeated_fit(
    data: &Dataset,
    indices: &[usize],
    config: &TreeConfig,
    rng: &mut StdRng,
) -> RegressionTree {
    assert!(!indices.is_empty(), "cannot fit a tree on zero samples");
    let root = repeated_build(data, indices.to_vec(), config, 0, rng);
    RegressionTree { root, feature_len: data.feature_len() }
}

fn mean(data: &Dataset, indices: &[usize]) -> f64 {
    indices.iter().map(|&i| data.target(i)).sum::<f64>() / indices.len() as f64
}

fn repeated_build(
    data: &Dataset,
    indices: Vec<usize>,
    config: &TreeConfig,
    depth: usize,
    rng: &mut StdRng,
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

    let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, sse)
    let mut order = indices.clone();
    for feat in candidates(data, config, rng) {
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
                left: Box::new(repeated_build(data, left_idx, config, depth + 1, rng)),
                right: Box::new(repeated_build(data, right_idx, config, depth + 1, rng)),
            }
        }
    }
}

/// The order in which [`weighted_fit`] sums the rows of one value.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Fill {
    /// Ascending row id (the contract).
    Ascending,
    /// Descending row id.
    Descending,
}

fn weighted_fit(
    data: &Dataset,
    indices: &[usize],
    config: &TreeConfig,
    rng: &mut StdRng,
    fill: Fill,
) -> RegressionTree {
    assert!(!indices.is_empty(), "cannot fit a tree on zero samples");
    let mut counts = vec![0u32; data.len()];
    for &i in indices {
        counts[i] += 1;
    }
    let rows = (0..data.len()).filter(|&i| counts[i] > 0).collect();
    let root = weighted_build(data, &counts, rows, config, 0, rng, fill);
    RegressionTree { root, feature_len: data.feature_len() }
}

fn weighted_build(
    data: &Dataset,
    counts: &[u32],
    rows: Vec<usize>,
    config: &TreeConfig,
    depth: usize,
    rng: &mut StdRng,
    fill: Fill,
) -> Node {
    let w = |i: usize| f64::from(counts[i]);
    let weight: u32 = rows.iter().map(|&i| counts[i]).sum();
    let leaf_value = rows.iter().map(|&i| w(i) * data.target(i)).sum::<f64>() / f64::from(weight);
    if depth >= config.max_depth || (weight as usize) < 2 * config.min_samples_leaf {
        return Node::Leaf { value: leaf_value };
    }
    let first = data.target(rows[0]);
    if rows.iter().all(|&i| (data.target(i) - first).abs() < 1e-15) {
        return Node::Leaf { value: leaf_value };
    }

    let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, sse)
    for feat in candidates(data, config, rng) {
        let x = |i: usize| data.features(i)[feat];
        let mut values: Vec<f64> = rows.iter().map(|&i| x(i)).collect();
        values.sort_by(f64::total_cmp);
        values.dedup_by(|a, b| a.total_cmp(b).is_eq());
        // (Σw, Σw·y, Σw·y²) through each value, in ascending value.
        let mut prefixes = Vec::new();
        let (mut pw, mut ps, mut pq) = (0u32, 0.0, 0.0);
        for &v in &values {
            let mut of_value: Vec<usize> =
                rows.iter().copied().filter(|&i| x(i).total_cmp(&v).is_eq()).collect();
            if fill == Fill::Descending {
                of_value.reverse();
            }
            let (mut bw, mut bs, mut bq) = (0u32, 0.0, 0.0);
            for i in of_value {
                let y = data.target(i);
                bw += counts[i];
                bs += w(i) * y;
                bq += w(i) * y.powi(2);
            }
            (pw, ps, pq) = (pw + bw, ps + bs, pq + bq);
            prefixes.push((pw, ps, pq));
        }
        let (total_w, total_sum, total_sq) = *prefixes.last().expect("a non-empty node");
        for k in 1..values.len() {
            let (left_w, left_sum, left_sq) = prefixes[k - 1];
            let right_w = total_w - left_w;
            if (left_w as usize) < config.min_samples_leaf
                || (right_w as usize) < config.min_samples_leaf
            {
                continue;
            }
            let (xa, xb) = (values[k - 1], values[k]);
            if xb - xa < 1e-15 {
                continue;
            }
            let left_sse = left_sq - left_sum * left_sum / f64::from(left_w);
            let right_sum = total_sum - left_sum;
            let right_sse = (total_sq - left_sq) - right_sum * right_sum / f64::from(right_w);
            let sse = left_sse + right_sse;
            if best.is_none_or(|(_, _, b)| sse < b) {
                best = Some((feat, (xa + xb) / 2.0, sse));
            }
        }
    }

    let Some((feature, threshold, _)) = best else {
        return Node::Leaf { value: leaf_value };
    };
    let (left, right): (Vec<usize>, Vec<usize>) =
        rows.into_iter().partition(|&i| data.features(i)[feature] <= threshold);
    if left.is_empty() || right.is_empty() {
        return Node::Leaf { value: leaf_value };
    }
    Node::Split {
        feature,
        threshold,
        left: Box::new(weighted_build(data, counts, left, config, depth + 1, rng, fill)),
        right: Box::new(weighted_build(data, counts, right, config, depth + 1, rng, fill)),
    }
}

/// The targets a fixture draws from.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Targets {
    /// Small integers: every sum of a fit is exact.
    Integer,
    /// Decimal fractions, whose sums round.
    Float,
}

/// A dataset shaped like the surrogate's inputs: most features quantized
/// to a few levels, some constant or signed-zero columns, a handful of
/// distinct targets.
fn tie_heavy(seed: u64, rows: usize, features: usize, targets: Targets) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let kinds: Vec<u32> = (0..features).map(|_| rng.gen_range(0..5u32)).collect();
    let levels: Vec<u32> = (0..features).map(|_| rng.gen_range(2..=70u32)).collect();
    let targets = match targets {
        Targets::Integer => [0.0, 1.0, -3.0, 7.0, 2.0, -1.0],
        Targets::Float => [0.1, 0.7, -0.3, 2.0 / 3.0, 1e-3, 0.1 + 0.2],
    };
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

fn ascending(d: &Dataset, i: &[usize], c: &TreeConfig, r: &mut StdRng) -> RegressionTree {
    weighted_fit(d, i, c, r, Fill::Ascending)
}

fn descending(d: &Dataset, i: &[usize], c: &TreeConfig, r: &mut StdRng) -> RegressionTree {
    weighted_fit(d, i, c, r, Fill::Descending)
}

/// Tree fits of the builder and `oracle` agree on a random bootstrap.
#[allow(clippy::too_many_arguments)]
fn trees_agree(
    oracle: fn(&Dataset, &[usize], &TreeConfig, &mut StdRng) -> RegressionTree,
    targets: Targets,
    data_seed: u64,
    rows: usize,
    features: usize,
    boot: usize,
    config: TreeConfig,
    fit_seed: u64,
) -> bool {
    let data = tie_heavy(data_seed, rows, features, targets);
    let mut draw = StdRng::seed_from_u64(data_seed ^ 0x9E37);
    let indices: Vec<usize> = (0..boot).map(|_| draw.gen_range(0..rows)).collect();
    agree(
        |r| vec![RegressionTree::fit_on(&data, &indices, &config, r)],
        |r| vec![oracle(&data, &indices, &config, r)],
        fit_seed,
    )
}

/// Forest fits of the builder and `oracle` agree.
fn forests_agree(
    oracle: fn(&Dataset, &[usize], &TreeConfig, &mut StdRng) -> RegressionTree,
    data: &Dataset,
    config: &ForestConfig,
    fit_seed: u64,
) -> bool {
    agree(
        |r| forest_trees(&RandomForest::fit(data, config, r)),
        |r| forest_fit(data, config, r, oracle),
        fit_seed,
    )
}

fn tree_config(max_features: usize, min_leaf: usize, max_depth: usize) -> TreeConfig {
    TreeConfig {
        max_depth,
        min_samples_leaf: min_leaf,
        max_features: (max_features > 0).then_some(max_features),
    }
}

fn forest_config(trees: usize, boot: usize, min_leaf: usize) -> ForestConfig {
    ForestConfig {
        trees,
        bootstrap_size: (boot > 0).then_some(boot),
        tree: TreeConfig { min_samples_leaf: min_leaf, ..TreeConfig::default() },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn trees_match_the_repeated_sample_builder_on_integer_targets(
        data_seed in 0u64..1 << 40,
        rows in 1usize..90,
        features in 1usize..9,
        boot in 1usize..160,
        max_features in 0usize..6,
        min_leaf in 1usize..=5,
        max_depth in 0usize..14,
        fit_seed in 0u64..1 << 40,
    ) {
        let config = tree_config(max_features, min_leaf, max_depth);
        prop_assert!(trees_agree(
            repeated_fit, Targets::Integer, data_seed, rows, features, boot, config, fit_seed,
        ));
    }

    #[test]
    fn forests_match_the_repeated_sample_builder_on_integer_targets(
        data_seed in 0u64..1 << 40,
        rows in 1usize..260,
        features in 1usize..33,
        boot in 0usize..600,
        trees in 1usize..6,
        min_leaf in 1usize..=5,
        fit_seed in 0u64..1 << 40,
    ) {
        let data = tie_heavy(data_seed, rows, features, Targets::Integer);
        let config = forest_config(trees, boot, min_leaf);
        prop_assert!(forests_agree(repeated_fit, &data, &config, fit_seed));
    }

    #[test]
    fn trees_match_the_weighted_reference_bit_for_bit(
        data_seed in 0u64..1 << 40,
        rows in 1usize..90,
        features in 1usize..9,
        boot in 1usize..160,
        max_features in 0usize..6,
        min_leaf in 1usize..=5,
        max_depth in 0usize..14,
        fit_seed in 0u64..1 << 40,
    ) {
        let config = tree_config(max_features, min_leaf, max_depth);
        prop_assert!(trees_agree(
            ascending, Targets::Float, data_seed, rows, features, boot, config, fit_seed,
        ));
    }

    #[test]
    fn forests_match_the_weighted_reference_bit_for_bit(
        data_seed in 0u64..1 << 40,
        rows in 1usize..260,
        features in 1usize..33,
        boot in 0usize..600,
        trees in 1usize..6,
        min_leaf in 1usize..=5,
        fit_seed in 0u64..1 << 40,
    ) {
        let data = tie_heavy(data_seed, rows, features, Targets::Float);
        let config = forest_config(trees, boot, min_leaf);
        prop_assert!(forests_agree(ascending, &data, &config, fit_seed));
    }
}

/// The surrogate's forest settings on a surrogate-shaped fixture.
fn fixture(targets: Targets) -> (Dataset, ForestConfig) {
    let config = ForestConfig { trees: 25, bootstrap_size: Some(512), ..ForestConfig::default() };
    (tie_heavy(0, 230, 32, targets), config)
}

#[test]
fn the_surrogate_fixture_matches_both_references() {
    let (data, config) = fixture(Targets::Float);
    assert!(forests_agree(ascending, &data, &config, 7));
    let (data, config) = fixture(Targets::Integer);
    assert!(forests_agree(repeated_fit, &data, &config, 7));
}

#[test]
fn the_harness_catches_bins_filled_in_descending_row_order() {
    let (data, config) = fixture(Targets::Float);
    assert!(!forests_agree(descending, &data, &config, 7));
}

#[test]
fn with_exact_sums_the_fill_order_is_the_same_tree() {
    // The self-check above fails only through rounding: where every sum
    // is exact, the descending variant agrees.
    let (data, config) = fixture(Targets::Integer);
    assert!(forests_agree(descending, &data, &config, 7));
}
