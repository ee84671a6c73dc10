//! CART regression trees (variance-reduction splitting).
//!
//! # Split-search contract
//!
//! A fit is pinned to the bit by its RNG draws and the order in which it
//! adds floating-point numbers, so the split search keeps both fixed:
//!
//! * A node holds bootstrap sample ids (dataset rows, repeats kept) in
//!   bootstrap order, and its children receive stable partitions of that
//!   list. Its leaf value is the sum of its targets in that order divided
//!   by their count.
//! * Each node shuffles the feature list once when `max_features` is set,
//!   then examines the candidates in that order. One `order` of the node's
//!   samples carries over from candidate to candidate: it starts in node
//!   order and each candidate re-sorts it **stably** by its feature under
//!   [`f64::total_cmp`]. Equal feature values therefore stay in the order
//!   the earlier candidates left, and the first candidate's ties stay in
//!   bootstrap order.
//! * The scan sums the sorted targets and their squares in `order` in one
//!   pass, recording the prefix at the end of each run of equal values;
//!   the totals are that prefix carried to the end of `order`. Every SSE,
//!   and so the winning split, depends on that order's rounding. A single
//!   presort per fit would break ties by bootstrap position at every
//!   candidate, and would change the trees.
//!
//! A column table, built once per forest fit and shared by its trees,
//! makes the re-sort cheap. It stores each feature's column and the
//! column's dense ranks under `total_cmp`, so a candidate's re-sort is a
//! stable counting sort of `order` by rank (when the node's ranks spread
//! too widely, a sort of keys that put the rank above the position in
//! `order`, which is just as stable). The sort also emits where each
//! run of equal ranks ends. A [`Dataset`] holds only finite values, so
//! equal ranks are equal values, and only run ends can be split points.
//! A candidate whose feature is constant within the node is skipped: the
//! stable sort would leave `order` unchanged and the scan could evaluate
//! no split.

use rand::seq::SliceRandom;
use rand::Rng;

use crate::dataset::Dataset;

#[cfg(test)]
mod reference;

/// Hyper-parameters of a single regression tree.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TreeConfig {
    /// Maximum tree depth (root at depth 0).
    pub max_depth: usize,
    /// Minimum samples a leaf may hold.
    pub min_samples_leaf: usize,
    /// Number of candidate features examined per split; `None` = all
    /// (set by the forest to `√d` for decorrelated trees).
    pub max_features: Option<usize>,
}

impl Default for TreeConfig {
    fn default() -> Self {
        Self { max_depth: 12, min_samples_leaf: 2, max_features: None }
    }
}

#[derive(Clone, Debug)]
enum Node {
    Leaf { value: f64 },
    Split { feature: usize, threshold: f64, left: Box<Node>, right: Box<Node> },
}

/// A fitted CART regression tree.
///
/// # Example
///
/// ```
/// use moela_ml::{Dataset, RegressionTree, TreeConfig};
/// use rand::SeedableRng;
///
/// let mut d = Dataset::new();
/// for i in 0..50 {
///     let x = i as f64 / 50.0;
///     d.push(vec![x], if x < 0.5 { 0.0 } else { 1.0 });
/// }
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let tree = RegressionTree::fit(&d, &TreeConfig::default(), &mut rng);
/// assert!(tree.predict(&[0.1]) < 0.5);
/// assert!(tree.predict(&[0.9]) > 0.5);
/// ```
#[derive(Clone, Debug)]
pub struct RegressionTree {
    root: Node,
    feature_len: usize,
}

impl RegressionTree {
    /// Fits a tree on all samples of `data`.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty.
    pub fn fit(data: &Dataset, config: &TreeConfig, rng: &mut impl Rng) -> Self {
        let indices: Vec<usize> = (0..data.len()).collect();
        Self::fit_on(data, &indices, config, rng)
    }

    /// Fits a tree on the samples selected by `indices` (the forest's
    /// bootstrap hook). Indices may repeat.
    ///
    /// # Panics
    ///
    /// Panics if `indices` is empty or names a sample `data` lacks.
    pub fn fit_on(
        data: &Dataset,
        indices: &[usize],
        config: &TreeConfig,
        rng: &mut impl Rng,
    ) -> Self {
        Self::fit_table(&ColumnTable::new(data), indices, config, rng)
    }

    /// [`fit_on`](Self::fit_on) over a prepared column table, which a
    /// forest builds once and shares across its trees.
    pub(crate) fn fit_table(
        table: &ColumnTable,
        indices: &[usize],
        config: &TreeConfig,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(!indices.is_empty(), "cannot fit a tree on zero samples");
        let mut samples: Vec<u32> = indices
            .iter()
            .map(|&i| {
                assert!(i < table.rows, "sample index {i} out of range");
                i as u32
            })
            .collect();
        let root = Builder::new(table, config).build(&mut samples, 0, rng);
        Self { root, feature_len: table.features }
    }

    /// Predicts the target for a feature vector.
    ///
    /// # Panics
    ///
    /// Panics if `features` has the wrong length.
    pub fn predict(&self, features: &[f64]) -> f64 {
        assert_eq!(features.len(), self.feature_len, "feature length mismatch");
        let mut node = &self.root;
        loop {
            match node {
                Node::Leaf { value } => return *value,
                Node::Split { feature, threshold, left, right } => {
                    node = if features[*feature] <= *threshold { left } else { right };
                }
            }
        }
    }

    /// Depth of the fitted tree (a leaf-only tree has depth 0).
    pub fn depth(&self) -> usize {
        fn walk(n: &Node) -> usize {
            match n {
                Node::Leaf { .. } => 0,
                Node::Split { left, right, .. } => 1 + walk(left).max(walk(right)),
            }
        }
        walk(&self.root)
    }
}

#[cfg(test)]
impl moela_persist::Snapshot for RegressionTree {
    fn snapshot(&self) -> moela_persist::Value {
        use moela_persist::Value;
        fn node_to_value(node: &Node) -> Value {
            match node {
                Node::Leaf { value } => Value::object(vec![("leaf", Value::F64(*value))]),
                Node::Split { feature, threshold, left, right } => Value::object(vec![
                    ("feature", Value::U64(*feature as u64)),
                    ("threshold", Value::F64(*threshold)),
                    ("left", node_to_value(left)),
                    ("right", node_to_value(right)),
                ]),
            }
        }
        Value::object(vec![
            ("feature_len", Value::U64(self.feature_len as u64)),
            ("root", node_to_value(&self.root)),
        ])
    }
}

/// A dataset in the split search's layout: feature-major columns, each
/// with its values' dense ranks under [`f64::total_cmp`] (equal values
/// share a rank), plus the targets.
pub(crate) struct ColumnTable {
    rows: usize,
    features: usize,
    /// `values[f * rows + i]` is feature `f` of sample `i`.
    values: Vec<f64>,
    /// Dense rank of `values[f * rows + i]` within column `f`.
    ranks: Vec<u32>,
    /// The largest rank in any column.
    max_rank: u32,
    targets: Vec<f64>,
}

impl ColumnTable {
    pub(crate) fn new(data: &Dataset) -> Self {
        let rows = data.len();
        assert!(u32::try_from(rows).is_ok(), "too many samples for one fit");
        let features = data.feature_len();
        let mut values = Vec::with_capacity(rows * features);
        for f in 0..features {
            values.extend((0..rows).map(|i| data.features(i)[f]));
        }
        let mut ranks = vec![0; rows * features];
        let mut max_rank = 0;
        let mut keyed: Vec<(i64, u32)> = Vec::with_capacity(rows);
        for f in 0..features {
            let column = &values[f * rows..(f + 1) * rows];
            keyed.clear();
            keyed.extend(column.iter().enumerate().map(|(i, &x)| (total_order_key(x), i as u32)));
            keyed.sort_unstable();
            let column_ranks = &mut ranks[f * rows..(f + 1) * rows];
            let mut rank = 0;
            for (k, &(key, i)) in keyed.iter().enumerate() {
                if k > 0 && key != keyed[k - 1].0 {
                    rank += 1;
                }
                column_ranks[i as usize] = rank;
            }
            max_rank = max_rank.max(rank);
        }
        Self { rows, features, values, ranks, max_rank, targets: data.targets().to_vec() }
    }

    fn values(&self, feature: usize) -> &[f64] {
        &self.values[feature * self.rows..(feature + 1) * self.rows]
    }

    fn ranks(&self, feature: usize) -> &[u32] {
        &self.ranks[feature * self.rows..(feature + 1) * self.rows]
    }
}

/// The integer whose order is [`f64::total_cmp`]'s order (the same bit
/// trick the standard library uses).
fn total_order_key(x: f64) -> i64 {
    let bits = x.to_bits() as i64;
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

/// A counting sort runs when the node's rank span is at most this many
/// times its size; wider spans fall back to a comparison sort.
const COUNTING_SPAN_FACTOR: usize = 4;

/// Grows one tree over a [`ColumnTable`], reusing its scratch buffers
/// from node to node.
struct Builder<'a> {
    table: &'a ColumnTable,
    config: &'a TreeConfig,
    /// The node's samples in the order the candidates so far left them.
    order: Vec<u32>,
    /// Where each run of equal ranks in `order` ends (exclusive), in
    /// order; the last is `order.len()`.
    run_ends: Vec<u32>,
    /// Σy and Σy² over `order` up to each of `run_ends`.
    prefixes: Vec<(f64, f64)>,
    /// Counting-sort buckets, indexed by rank and all zero between sorts.
    counts: Vec<u32>,
    /// Counting-sort output and partition overflow.
    spare: Vec<u32>,
    /// Comparison-sort keys: rank in the high half, position in `order`
    /// in the low half.
    keyed: Vec<u64>,
}

impl<'a> Builder<'a> {
    fn new(table: &'a ColumnTable, config: &'a TreeConfig) -> Self {
        Self {
            table,
            config,
            order: Vec::new(),
            run_ends: Vec::new(),
            prefixes: Vec::new(),
            counts: vec![0; table.max_rank as usize + 1],
            spare: Vec::new(),
            keyed: Vec::new(),
        }
    }

    fn build(&mut self, samples: &mut [u32], depth: usize, rng: &mut impl Rng) -> Node {
        let table = self.table;
        let targets = &table.targets;
        let leaf_value =
            samples.iter().map(|&i| targets[i as usize]).sum::<f64>() / samples.len() as f64;
        if depth >= self.config.max_depth || samples.len() < 2 * self.config.min_samples_leaf {
            return Node::Leaf { value: leaf_value };
        }
        // Homogeneous targets: nothing to gain.
        let first = targets[samples[0] as usize];
        if samples.iter().all(|&i| (targets[i as usize] - first).abs() < 1e-15) {
            return Node::Leaf { value: leaf_value };
        }

        let d = table.features;
        let mut candidates: Vec<usize> = (0..d).collect();
        if let Some(k) = self.config.max_features {
            candidates.shuffle(rng);
            candidates.truncate(k.clamp(1, d));
        }

        let Some((feature, threshold)) = self.best_split(samples, &candidates) else {
            return Node::Leaf { value: leaf_value };
        };
        let values = table.values(feature);
        let split = stable_partition(samples, |i| values[i as usize] <= threshold, &mut self.spare);
        if split == 0 || split == samples.len() {
            return Node::Leaf { value: leaf_value };
        }
        let (left, right) = samples.split_at_mut(split);
        let left = Box::new(self.build(left, depth + 1, rng));
        let right = Box::new(self.build(right, depth + 1, rng));
        Node::Split { feature, threshold, left, right }
    }

    /// The lowest-SSE `(feature, threshold)` over `candidates`, ties going
    /// to the first found.
    fn best_split(&mut self, samples: &[u32], candidates: &[usize]) -> Option<(usize, f64)> {
        let table = self.table;
        let targets = &table.targets;
        let n = samples.len();
        let min_leaf = self.config.min_samples_leaf;
        let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, sse)
        self.order.clear();
        self.order.extend_from_slice(samples);
        for &feat in candidates {
            if !self.sort_by_rank(table.ranks(feat)) {
                continue; // constant here: no value can be separated
            }
            // Prefix sums over sorted targets let every threshold be scored in
            // O(1): SSE_total = Σy² − (Σy)²/n on each side. One pass adds
            // the targets in `order` and records the prefix at each run
            // end; the last run's prefix is the totals. A zero start is
            // exact because some target here is non-zero (the node is not
            // homogeneous).
            let (order, run_ends, prefixes) = (&self.order, &self.run_ends, &mut self.prefixes);
            prefixes.clear();
            let mut prefix_sum = 0.0;
            let mut prefix_sq = 0.0;
            let mut start = 0;
            for &end in run_ends {
                for &i in &order[start..end as usize] {
                    let y = targets[i as usize];
                    prefix_sum += y;
                    prefix_sq += y.powi(2);
                }
                prefixes.push((prefix_sum, prefix_sq));
                start = end as usize;
            }
            let (total_sum, total_sq) = (prefix_sum, prefix_sq);
            let values = table.values(feat);
            let splits = &run_ends[..run_ends.len() - 1];
            for (&split_at, &(prefix_sum, prefix_sq)) in splits.iter().zip(prefixes.iter()) {
                let split_at = split_at as usize;
                if split_at < min_leaf || n - split_at < min_leaf {
                    continue;
                }
                let xa = values[order[split_at - 1] as usize];
                let xb = values[order[split_at] as usize];
                if xb - xa < 1e-15 {
                    continue; // too close to separate
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
        best.map(|(feature, threshold, _)| (feature, threshold))
    }

    /// Stably re-sorts `order` by `ranks`, leaving the end of each run of
    /// equal ranks in `run_ends`. Returns `false`, with `order` untouched,
    /// when every sample in it has the same rank.
    fn sort_by_rank(&mut self, ranks: &[u32]) -> bool {
        let Self { order, run_ends, counts, spare, keyed, .. } = self;
        let (mut lo, mut hi) = (u32::MAX, 0);
        for &i in order.iter() {
            let key = ranks[i as usize];
            lo = lo.min(key);
            hi = hi.max(key);
            counts[key as usize] += 1;
        }
        let (lo, hi) = (lo as usize, hi as usize);
        if lo >= hi {
            counts[lo] = 0;
            return false;
        }
        let n = order.len();
        let span = hi - lo + 1;
        run_ends.clear();
        if span <= COUNTING_SPAN_FACTOR * n {
            // counts[r] becomes the first output slot of rank r; the
            // placement advances it to the end of that rank's run.
            let mut end = 0;
            for count in &mut counts[lo..=hi] {
                if *count > 0 {
                    let start = end;
                    end += *count;
                    run_ends.push(end);
                    *count = start;
                }
            }
            spare.clear();
            spare.resize(n, 0);
            for &sample in order.iter() {
                let slot = &mut counts[ranks[sample as usize] as usize];
                spare[*slot as usize] = sample;
                *slot += 1;
            }
            std::mem::swap(order, spare);
            counts[lo..=hi].fill(0);
        } else {
            // Each sample keyed by its rank, then its position in `order`:
            // the keys are distinct, so an unstable sort of them is a
            // stable sort of `order` by rank. The buckets counted above go
            // back to zero on the way.
            keyed.clear();
            keyed.extend(order.iter().enumerate().map(|(k, &i)| {
                let rank = ranks[i as usize];
                counts[rank as usize] = 0;
                u64::from(rank) << 32 | k as u64
            }));
            keyed.sort_unstable();
            spare.clear();
            spare.extend_from_slice(order);
            for (k, (slot, &key)) in order.iter_mut().zip(keyed.iter()).enumerate() {
                *slot = spare[key as u32 as usize];
                if k > 0 && key >> 32 != keyed[k - 1] >> 32 {
                    run_ends.push(k as u32);
                }
            }
            run_ends.push(n as u32);
        }
        true
    }
}

/// Moves the samples `goes_left` accepts to the front of `samples`, both
/// sides keeping their order, and returns how many went left.
fn stable_partition(
    samples: &mut [u32],
    goes_left: impl Fn(u32) -> bool,
    spare: &mut Vec<u32>,
) -> usize {
    spare.clear();
    let mut left = 0;
    for k in 0..samples.len() {
        let sample = samples[k];
        if goes_left(sample) {
            samples[left] = sample;
            left += 1;
        } else {
            spare.push(sample);
        }
    }
    samples[left..].copy_from_slice(spare);
    left
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(77)
    }

    #[test]
    fn constant_targets_yield_a_single_leaf() {
        let mut d = Dataset::new();
        for i in 0..20 {
            d.push(vec![i as f64], 3.5);
        }
        let t = RegressionTree::fit(&d, &TreeConfig::default(), &mut rng());
        assert_eq!(t.depth(), 0);
        assert_eq!(t.predict(&[100.0]), 3.5);
    }

    #[test]
    fn step_function_is_learned_exactly() {
        let mut d = Dataset::new();
        for i in 0..100 {
            let x = i as f64 / 100.0;
            d.push(vec![x], if x < 0.37 { -1.0 } else { 1.0 });
        }
        let t = RegressionTree::fit(&d, &TreeConfig::default(), &mut rng());
        assert_eq!(t.predict(&[0.1]), -1.0);
        assert_eq!(t.predict(&[0.99]), 1.0);
    }

    #[test]
    fn splits_pick_the_informative_feature() {
        // Feature 1 is pure noise; feature 0 determines the target.
        let mut d = Dataset::new();
        let mut r = rng();
        for i in 0..200 {
            let x0 = i as f64 / 200.0;
            let noise: f64 = r.gen_range(0.0..1.0);
            d.push(vec![x0, noise], x0 * 10.0);
        }
        let t = RegressionTree::fit(&d, &TreeConfig::default(), &mut r);
        // Prediction must track feature 0 and ignore feature 1.
        let lo = t.predict(&[0.1, 0.9]);
        let hi = t.predict(&[0.9, 0.1]);
        assert!(hi - lo > 5.0, "lo {lo} hi {hi}");
    }

    #[test]
    fn max_depth_limits_the_tree() {
        let mut d = Dataset::new();
        let mut r = rng();
        for _ in 0..500 {
            let x: f64 = r.gen_range(0.0..1.0);
            d.push(vec![x], (x * 20.0).sin());
        }
        let cfg = TreeConfig { max_depth: 3, ..TreeConfig::default() };
        let t = RegressionTree::fit(&d, &cfg, &mut r);
        assert!(t.depth() <= 3);
    }

    #[test]
    fn min_samples_leaf_is_respected_via_smoothing() {
        let mut d = Dataset::new();
        // One outlier among identical points.
        for i in 0..20 {
            d.push(vec![i as f64], 0.0);
        }
        d.push(vec![20.0], 100.0);
        let cfg = TreeConfig { min_samples_leaf: 5, ..TreeConfig::default() };
        let t = RegressionTree::fit(&d, &cfg, &mut rng());
        // The outlier cannot sit in its own leaf, so its prediction is
        // blended with neighbors.
        assert!(t.predict(&[20.0]) < 100.0);
    }

    #[test]
    fn fit_on_bootstrap_indices_works_with_repeats() {
        let mut d = Dataset::new();
        for i in 0..10 {
            d.push(vec![i as f64], i as f64);
        }
        let idx = vec![0, 0, 0, 9, 9, 9];
        let t = RegressionTree::fit_on(&d, &idx, &TreeConfig::default(), &mut rng());
        assert!(t.predict(&[0.0]) < t.predict(&[9.0]));
    }

    #[test]
    #[should_panic(expected = "zero samples")]
    fn empty_fit_panics() {
        let d = Dataset::new();
        RegressionTree::fit(&d, &TreeConfig::default(), &mut rng());
    }

    #[test]
    #[should_panic(expected = "feature length mismatch")]
    fn wrong_feature_length_panics() {
        let mut d = Dataset::new();
        d.push(vec![1.0, 2.0], 0.0);
        d.push(vec![2.0, 1.0], 1.0);
        let t = RegressionTree::fit(&d, &TreeConfig::default(), &mut rng());
        t.predict(&[1.0]);
    }

    #[test]
    fn ranks_follow_total_cmp_with_dense_ties() {
        let column = [0.5, -0.0, 0.0, f64::MIN, 0.5, -2.0, f64::MAX, 0.0];
        let mut d = Dataset::new();
        for x in column {
            d.push(vec![x], 0.0);
        }
        let table = ColumnTable::new(&d);
        assert_eq!(table.ranks(0), &[4, 2, 3, 0, 4, 1, 5, 3]);
        for (a, &xa) in column.iter().enumerate() {
            for (b, &xb) in column.iter().enumerate() {
                assert_eq!(table.ranks(0)[a].cmp(&table.ranks(0)[b]), xa.total_cmp(&xb));
            }
        }
    }

    #[test]
    fn every_sort_path_is_stable() {
        // A whole tied column takes the counting sort; a few samples
        // spread over a wide column take the comparison sort, once with
        // ties only between repeated samples and once with distinct
        // samples of equal value. Samples repeat, as in a bootstrap, and
        // equal ranks must keep their incoming order.
        let mut r = rng();
        let mut rows: Vec<u32> = (0..200).collect();
        rows.shuffle(&mut r);
        let levels = |r: &mut rand::rngs::StdRng, levels: u32| -> Vec<f64> {
            (0..200).map(|_| f64::from(r.gen_range(0..levels))).collect()
        };
        // 190 distinct values; rows 190.. share row 5's.
        let shared: Vec<f64> = (0..200).map(|i| if i < 190 { f64::from(i) } else { 5.0 }).collect();
        let cases = [
            ("tied", levels(&mut r, 5), rows.clone(), true),
            ("wide", levels(&mut r, 1000), rows[..12].to_vec(), false),
            ("wide with shared values", shared, (190..200).chain([5, 0, 189]).collect(), false),
        ];
        for (case, column, node, counting) in cases {
            let mut d = Dataset::new();
            for x in column {
                d.push(vec![x], 0.0);
            }
            let table = ColumnTable::new(&d);
            let (values, ranks) = (table.values(0), table.ranks(0));
            let config = TreeConfig::default();
            let mut builder = Builder::new(&table, &config);
            let mut incoming = node;
            incoming.extend_from_within(..incoming.len() / 2);
            incoming.shuffle(&mut r);
            let node_ranks = incoming.iter().map(|&i| ranks[i as usize]);
            let span = (node_ranks.clone().max().unwrap() - node_ranks.min().unwrap()) as usize + 1;
            assert_eq!(span <= COUNTING_SPAN_FACTOR * incoming.len(), counting, "{case}: {span}");
            builder.order = incoming.clone();
            assert!(builder.sort_by_rank(ranks));
            let mut expected = incoming;
            expected.sort_by(|&a, &b| values[a as usize].total_cmp(&values[b as usize]));
            assert_eq!(builder.order, expected, "{case}");
            let mut expected_ends: Vec<u32> = (1..expected.len())
                .filter(|&k| values[expected[k] as usize] != values[expected[k - 1] as usize])
                .map(|k| k as u32)
                .collect();
            expected_ends.push(expected.len() as u32);
            assert_eq!(builder.run_ends, expected_ends, "{case}");
            assert!(builder.counts.iter().all(|&c| c == 0), "{case}");
        }
    }

    #[test]
    fn constant_candidates_leave_the_order_alone() {
        let mut d = Dataset::new();
        for i in 0..30 {
            d.push(vec![1.25, i as f64], 0.0);
        }
        let table = ColumnTable::new(&d);
        let config = TreeConfig::default();
        let mut builder = Builder::new(&table, &config);
        builder.order = (0..30).rev().collect();
        assert!(!builder.sort_by_rank(table.ranks(0)));
        assert_eq!(builder.order, (0..30).rev().collect::<Vec<u32>>());
        assert!(builder.counts.iter().all(|&c| c == 0));
    }

    #[test]
    fn a_fit_with_an_overflowing_leaf_predicts_infinity() {
        // Two huge same-sign targets share a leaf whose mean overflows.
        let mut d = Dataset::new();
        for (x, y) in [(1.0, 0.9 * f64::MAX), (1.0, 0.8 * f64::MAX), (3.0, 0.0), (4.0, 1.0)] {
            d.push(vec![x], y);
        }
        let cfg = TreeConfig { min_samples_leaf: 1, ..TreeConfig::default() };
        let tree = RegressionTree::fit(&d, &cfg, &mut rng());
        assert_eq!(tree.predict(&[1.0]), f64::INFINITY);
    }
}
